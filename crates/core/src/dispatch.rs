//! The pivot operator — the paper's "future work" optimization.
//!
//! SIGMOD §3.2 observes that the CASE strategy makes the evaluator test `N`
//! disjoint boolean conjunctions per input row because "the query optimizer
//! has no way to stop comparisons", and that a hash-based search would cut
//! the per-row cost from `O(N)` to `O(1)`. The evaluator that does so is the
//! engine's pivot adapter over the scan core
//! ([`pa_engine::ops::pivot`], DESIGN.md §16): the aggregate at
//! `GROUP BY ∪ BY`, transposed at finalize. It is re-exported here, where
//! the horizontal strategies and the benchmark harness name it.

pub use pa_engine::ops::pivot::{pivot_aggregate, pivot_aggregate_with_config, PivotTask};
