//! # pa-engine — physical relational operators
//!
//! The execution layer the percentage-aggregation strategies compile to:
//! expressions (with SQL three-valued logic and divide-by-zero → NULL), hash
//! group-by aggregation with multi-level synchronized scans, the equi-join
//! as a lookup of one right row per left row (with an optional prebuilt
//! index), DISTINCT, sort, bulk INSERT..SELECT, per-row UPDATE..FROM, and
//! sort-based window functions (the OLAP-extension baseline).
//!
//! Every operator accounts its work in [`ExecStats`] so tests and benchmarks
//! can verify cost *shape* (scans, CASE evaluations, WAL records) rather
//! than trusting wall-clock alone.

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod error;
pub mod expr;
pub mod guard;
pub mod keymap;
pub mod ops;
pub mod parallel;
pub mod predicate;
mod scan;
pub mod sketch;
pub mod stats;
pub mod vector;

pub use clock::{Clock, SystemClock, TestClock};
pub use error::{EngineError, Result};
pub use expr::{ArithOp, CmpOp, Expr};
pub use guard::{Deadline, ResourceGuard, CANCEL_CHECK_INTERVAL};
pub use keymap::{
    DenseGroupMap, DenseKeySpace, RowKeyMap, WideKeySpace, WideProjector, DEFAULT_DENSE_BUDGET,
};
pub use ops::acc::{Acc, PartialState, PctState, DEFAULT_PERCENTILE_BUDGET};
pub use ops::aggregate::{
    aggregate, aggregate_level, aggregate_projecting, hash_aggregate, hash_aggregate_with_config,
    lattice_aggregate, lattice_aggregate_with_config, multi_hash_aggregate,
    multi_hash_aggregate_with_config, AggFunc, AggSpec, PBits,
};
pub use ops::distinct::{distinct, distinct_keys};
pub use ops::divide::divide;
pub use ops::filter::filter;
pub use ops::insert::insert_into;
pub use ops::join::lookup;
pub use ops::partial::{partial_aggregate, ShardPartial};
pub use ops::pivot::{pivot_aggregate, pivot_aggregate_with_config, PivotTask};
pub use ops::sort::{sort, sort_permutation};
pub use ops::update::update_from;
pub use ops::window::window_aggregate;
pub use pa_obs::{MetricsRegistry, SpanHandle, SpanRecord, TraceReport, Tracer};
pub use parallel::ParallelConfig;
pub use predicate::{Selected, Selection};
pub use scan::Parent;
pub use sketch::{Hll, TDigest, HLL_REGISTERS, HLL_STD_ERROR, TDIGEST_RANK_EPSILON};
pub use stats::{AbortCause, Degradation, ExecStats};
pub use vector::{BlockCoder, CodeWord, Coder, LaneSrc, NumSlice, RawLane, WideCoder, BLOCK_ROWS};

// The naive reference of the scan core's tests, which names this crate as
// the integration tests that share it do.
#[cfg(test)]
extern crate self as pa_engine;
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;
