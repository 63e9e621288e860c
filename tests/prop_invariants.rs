//! Invariants of the percentage functions over the kit's seeded
//! corner-value tables (`pa_testkit::gen::fact`: NULL in every column, a
//! group whose amounts cancel to a zero total, one whose amounts are all
//! NULL, negative amounts, duplicate rows). Each test runs over the same
//! [`SEEDS`] tables of 1 to 60 rows:
//!
//! 1. every vertical strategy and the OLAP window plan answer `FV` as the
//!    reference does;
//! 2. within each totals-group, non-NULL percentages sum to 1 (or the
//!    group's total is zero/NULL and all its percentages are NULL);
//! 3. every horizontal strategy (± hash dispatch) answers `FH` as the
//!    reference does;
//! 4. each `FH` row's percentages sum to 1 under the same proviso;
//! 5. the horizontal cell equals the matching vertical percentage;
//! 6. `sum` re-aggregated from partials equals `sum` from the raw table
//!    (the distributivity the `Fj`-from-`Fk` optimization relies on);
//! 7. post-processing pads complete the cube.
//!
//! The amounts are whole numbers and halves, so every comparison of two
//! answers is by bits; only a sum of percentages keeps a tolerance.

use pa_testkit::compare::cell;
use pa_testkit::oracle::{answer, post_pads};
use pa_testkit::{assert_same_rows, gen, Draw, Stmt};
use percentage_aggregations::prelude::*;
use std::collections::{BTreeSet, HashMap};

const SEEDS: u64 = 48;

/// `body` over each seed's table, installed as `f`.
fn each_table(mut body: impl FnMut(&Table, &PercentageEngine<'_>)) {
    for seed in 0..SEEDS {
        let mut draw = Draw::new(seed);
        let n = 1 + draw.below(60);
        let f = gen::fact(&mut draw, n);
        let catalog = Catalog::new();
        catalog.create_table("f", f.clone()).unwrap();
        body(&f, &PercentageEngine::new(&catalog));
    }
}

fn vpct() -> Stmt {
    Stmt::new("f", &["g", "d"]).vpct("amt", &["d"], "p")
}

fn hpct() -> Stmt {
    Stmt::new("f", &["g"]).hpct("amt", &["d"], "h")
}

/// Per key, the percentages that are not NULL sum to 1.
fn sums_to_one(rows: impl Iterator<Item = (String, Value)>) {
    let mut sums: HashMap<String, Option<f64>> = HashMap::new();
    for (key, p) in rows {
        let sum = sums.entry(key).or_default();
        if let Some(p) = p.as_f64() {
            *sum = Some(sum.unwrap_or(0.0) + p);
        }
    }
    // Each percentage is a rounded quotient: their sum is 1 only to within
    // rounding, the one tolerance here.
    for (key, sum) in sums {
        assert!(sum.is_none_or(|s| (s - 1.0).abs() < 1e-9), "{key}: {sum:?}");
    }
}

#[test]
fn vertical_strategies_and_olap_agree() {
    each_table(|f, engine| {
        let (stmt, q) = (vpct(), vpct().vpct_query());
        let want = answer(f, &stmt);
        for strategy in [
            VpctStrategy::best(),
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy::synchronized(),
        ] {
            let got = engine.vpct_with(&q, &strategy).unwrap().snapshot();
            assert_same_rows(&got, &want, &format!("{strategy:?}"));
        }
        assert_same_rows(&engine.vpct_olap(&q).unwrap().snapshot(), &want, "OLAP");
    });
}

#[test]
fn vertical_group_percentages_sum_to_one_or_all_null() {
    each_table(|_, engine| {
        let t = engine.vpct(&vpct().vpct_query()).unwrap().snapshot();
        sums_to_one((0..t.num_rows()).map(|r| (t.get(r, 0).to_string(), t.get(r, 2))));
    });
}

#[test]
fn horizontal_strategies_agree() {
    each_table(|f, engine| {
        let (want, q) = (answer(f, &hpct()), hpct().horizontal_query());
        for strategy in HorizontalStrategy::all() {
            let opts = HorizontalOptions::with_strategy(strategy);
            let got = engine.horizontal_with(&q, &opts).unwrap().snapshot();
            assert_same_rows(&got, &want, strategy.label());
        }
        let hash_tier = ParallelConfig {
            dense_budget: 0,
            ..ParallelConfig::from_env()
        };
        let engine = engine.clone().with_config(hash_tier);
        let dispatch = engine.horizontal(&q).unwrap().snapshot();
        assert_same_rows(&dispatch, &want, "dispatch");
    });
}

#[test]
fn horizontal_rows_sum_to_one_or_null() {
    each_table(|_, engine| {
        let t = engine.horizontal(&hpct().horizontal_query()).unwrap();
        let t = t.snapshot();
        let cells = (0..t.num_rows()).flat_map(|r| (1..t.num_columns()).map(move |c| (r, c)));
        sums_to_one(cells.map(|(r, c)| (r.to_string(), t.get(r, c))));
    });
}

#[test]
fn horizontal_cells_equal_vertical_percentages() {
    each_table(|_, engine| {
        let v = engine.vpct(&vpct().vpct_query()).unwrap().snapshot();
        let h = engine.horizontal(&hpct().horizontal_query()).unwrap();
        let ht = h.snapshot();
        let hrow: HashMap<String, usize> = (0..ht.num_rows())
            .map(|r| (ht.get(r, 0).to_string(), r))
            .collect();
        for r in 0..v.num_rows() {
            let (g, d) = (v.get(r, 0).to_string(), v.get(r, 1));
            let c = ht
                .schema()
                .index_of(&format!("d={d}"))
                .expect("cell column");
            let (pct_h, pct_v) = (ht.get(hrow[&g], c), v.get(r, 2));
            // Faithful semantic divergence: a cell whose measures are all
            // NULL is NULL under Vpct (sum() of nothing) but 0% under Hpct
            // (SIGMOD's `ELSE 0` CASE form) — unless the group total is
            // itself zero/NULL, in which case both are NULL.
            let zero = pct_h.is_null() || pct_h.as_f64() == Some(0.0);
            assert!(
                if pct_v.is_null() {
                    zero
                } else {
                    cell(&pct_h) == cell(&pct_v)
                },
                "g={g} d={d}: horizontal {pct_h} vs vertical {pct_v}"
            );
        }
    });
}

#[test]
fn sum_is_distributive_over_partials() {
    use pa_engine::{hash_aggregate, AggSpec, ExecStats, Expr};
    each_table(|f, _| {
        let mut st = ExecStats::default();
        let spec = AggSpec::new(AggFunc::Sum, Expr::col(f.schema(), "amt").unwrap(), "s");
        // Fine level (g, d), then re-aggregate to (g).
        let fk = hash_aggregate(f, &[0, 1], std::slice::from_ref(&spec), &mut st).unwrap();
        let respec = AggSpec::new(AggFunc::Sum, Expr::Col(2), "s");
        let from_fk = hash_aggregate(&fk, &[0], &[respec], &mut st).unwrap();
        let from_f = hash_aggregate(f, &[0], &[spec], &mut st).unwrap();
        assert_same_rows(&from_fk, &from_f, "Fj from Fk");
    });
}

#[test]
fn missing_row_postprocess_completes_the_cube() {
    each_table(|f, engine| {
        let (stmt, mode) = (vpct(), MissingRows::PostProcess);
        let padded = engine.vpct_with_missing(&stmt.vpct_query(), &VpctStrategy::best(), mode);
        let padded = padded.unwrap().snapshot();
        // After padding, every (existing g-group) × (existing d-value) pair
        // is present exactly once, with the reference's percentage.
        let distinct = |c: usize| (0..f.num_rows()).map(|r| cell(&f.get(r, c))).collect();
        let (gs, ds): (BTreeSet<_>, BTreeSet<_>) = (distinct(0), distinct(1));
        assert_eq!(padded.num_rows(), gs.len() * ds.len());
        assert_same_rows(&padded, &post_pads(&answer(f, &stmt), f, &stmt), "padded");
    });
}
