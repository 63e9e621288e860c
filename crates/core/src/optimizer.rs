//! Heuristic strategy selection — the papers' recommendations as code.
//!
//! SIGMOD §4.1 distills the experiments into rules of thumb:
//!
//! * vertical: "we recommend creating indexes on the common subkey of `Fk`
//!   and `Fj`, using INSERT instead of UPDATE ... and computing `Fj` from
//!   `Fk`" — i.e. [`VpctStrategy::best`], unconditionally.
//! * horizontal: "computing `FH` directly from `F` when there are no more
//!   than two columns in the list `Dj+1..Dk` and each of them has low
//!   selectivity, and computing `FH` from `FV` ... when there are three or
//!   more grouping columns or when the grouping columns have high
//!   selectivity."
//!
//! Selectivity is read from the column's statistics
//! ([`pa_storage::Table::distinct_estimate`]): the record the key space and
//! the block coder read their domains from, derived once per column
//! version — never sampled per statement.

use crate::error::Result;
use crate::query::{Fact, FactRows, HorizontalQuery, VpctQuery};
use crate::strategy::{HorizontalStrategy, VpctStrategy};
use pa_storage::Catalog;

/// Estimated BY-domain size (product of per-column distinct counts) above
/// which a horizontal query routes through `FV` instead of evaluating the
/// CASE terms directly from `F`.
///
/// The paper's rule — direct only for "no more than two columns ... each of
/// them [with] low selectivity" — priced the per-row O(N) CASE chain. With
/// jump-table CASE evaluation (see [`pa_engine::DenseKeySpace`]) a direct
/// scan pays O(1) per row regardless of how many output columns the BY
/// domain expands to, so column count and per-column selectivity stop
/// mattering on their own; what is left is the width of the accumulator
/// block and the dispatch table, which grow with the *product* of the
/// distinct counts. Past this budget the jump table stops paying for
/// itself (and the result is about to hit `max_columns` anyway), so the
/// FV pre-aggregation — which shrinks the scanned input instead — wins.
pub const DIRECT_CELL_BUDGET: usize = 1024;

/// The paper's recommended strategy for a vertical percentage query, which
/// its findings show dominates, so this is constant. It no longer runs on
/// the execution path — a `Vpct` without strategy knobs is one lattice
/// request — and names the plan EXPLAIN renders as the paper's SQL script.
pub fn choose_vpct_strategy(_catalog: &Catalog, _q: &VpctQuery) -> VpctStrategy {
    VpctStrategy::best()
}

/// Pick the CASE evaluation source for a horizontal query.
///
/// The paper's rule ("direct from `F` for at most two low-selectivity
/// subgrouping columns, from `FV` otherwise") priced the O(N)-per-row CASE
/// chain that a SQL optimizer is stuck with. Our default evaluation is the
/// jump-table code path, where a direct scan costs O(1) per row however
/// many columns the BY list expands to — so the rule is recalibrated to
/// what still matters: the estimated BY-domain *cell count* per term. At
/// most [`DIRECT_CELL_BUDGET`] cells, the direct scan wins (one pass over
/// `F`, no `FV` materialization); past it, pre-aggregating into `FV`
/// shrinks the scanned input and the direct scan's dense structures would
/// not fit a cache-resident table anyway.
pub fn choose_horizontal_strategy(
    catalog: &Catalog,
    q: &HorizontalQuery,
) -> Result<HorizontalStrategy> {
    horizontal_strategy_over(&Fact::named(catalog, &q.table)?.read(), q)
}

/// [`choose_horizontal_strategy`] over the fact `q` will actually read. A
/// selection does not enter the estimate: the table's distinct counts
/// bound the selected rows' from above.
pub(crate) fn horizontal_strategy_over(
    f: &FactRows<'_>,
    q: &HorizontalQuery,
) -> Result<HorizontalStrategy> {
    // Holistic aggregates cannot re-aggregate from FV at all.
    if q.terms.iter().any(|t| t.func.is_holistic()) || q.extra.iter().any(|e| e.func.is_holistic())
    {
        return Ok(HorizontalStrategy::CaseDirect);
    }
    for term in &q.terms {
        let mut cells: usize = 1;
        for b in &term.by {
            let col = f.schema().index_of(b)?;
            // +1 for the NULL slot each dimension carries in the dense
            // encoding; saturating keeps huge domains from wrapping.
            let distinct = f.distinct_estimate(col) + 1;
            cells = cells.saturating_mul(distinct);
            if cells > DIRECT_CELL_BUDGET {
                return Ok(HorizontalStrategy::CaseFromFv);
            }
        }
    }
    Ok(HorizontalStrategy::CaseDirect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{Catalog, DataType, Schema, Value};

    fn catalog(day_card: i64) -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("day", DataType::Int),
            ("dept", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = pa_storage::Table::empty(schema);
        for i in 0..500i64 {
            t.push_row(&[
                Value::Int(i % 10),
                Value::Int(i % day_card),
                Value::str(format!("dept{}", i % 100)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        catalog.create_table("sales", t).unwrap();
        catalog
    }

    #[test]
    fn distinct_estimates() {
        let catalog = catalog(7);
        let f = catalog.table("sales").unwrap();
        let t = f.read();
        assert_eq!(t.distinct_estimate(1), 7, "a slot vector is exact");
        assert_eq!(t.distinct_estimate(2), 100, "dictionary is exact");
        assert_eq!(t.distinct_estimate(3), 500, "a float column is sampled");
    }

    #[test]
    fn low_selectivity_small_by_goes_direct() {
        let catalog = catalog(7);
        let q = crate::HorizontalQuery::hpct("sales", &["store"], "amt", &["day"]);
        assert_eq!(
            choose_horizontal_strategy(&catalog, &q).unwrap(),
            HorizontalStrategy::CaseDirect
        );
    }

    #[test]
    fn high_selectivity_small_domain_goes_direct() {
        // dept has 100 distinct values — "high selectivity" under the
        // paper's rule, which would have routed through FV. The jump-table
        // recalibration keeps it direct: 101 cells is far under
        // DIRECT_CELL_BUDGET and one O(1)-per-row scan of F beats
        // materializing FV first.
        let catalog = catalog(7);
        let q = crate::HorizontalQuery::hpct("sales", &["store"], "amt", &["dept"]);
        assert_eq!(
            choose_horizontal_strategy(&catalog, &q).unwrap(),
            HorizontalStrategy::CaseDirect
        );
    }

    #[test]
    fn over_budget_domain_goes_indirect() {
        // (100+1) dept slots × (11+1) day slots = 1212 cells > 1024.
        let catalog = catalog(11);
        let q = crate::HorizontalQuery::hpct("sales", &["store"], "amt", &["dept", "day"]);
        assert_eq!(
            choose_horizontal_strategy(&catalog, &q).unwrap(),
            HorizontalStrategy::CaseFromFv
        );
    }

    #[test]
    fn three_by_columns_over_budget_go_indirect() {
        // 11 × 3 × 101 = 3333 cells — three BY columns alone no longer
        // force FV, but this product blows the cell budget.
        let catalog = catalog(2);
        let mut q = crate::HorizontalQuery::hpct("sales", &[], "amt", &["store", "day", "dept"]);
        q.terms[0].by = vec!["store".into(), "day".into(), "dept".into()];
        assert_eq!(
            choose_horizontal_strategy(&catalog, &q).unwrap(),
            HorizontalStrategy::CaseFromFv
        );
    }

    #[test]
    fn three_low_cardinality_by_columns_go_direct() {
        // (10+1) store × (2+1) day × (2+1) day = 99 cells ≤ 1024: the
        // paper's hard two-column cutoff is gone.
        let catalog = catalog(2);
        let mut q = crate::HorizontalQuery::hpct("sales", &[], "amt", &["store", "day"]);
        q.terms[0].by = vec!["store".into(), "day".into(), "day".into()];
        assert_eq!(
            choose_horizontal_strategy(&catalog, &q).unwrap(),
            HorizontalStrategy::CaseDirect
        );
    }

    #[test]
    fn vpct_choice_is_the_recommended_default() {
        let catalog = catalog(7);
        let q = crate::VpctQuery::single("sales", &["store", "day"], "amt", &["day"]);
        assert_eq!(choose_vpct_strategy(&catalog, &q), VpctStrategy::best());
    }
}
