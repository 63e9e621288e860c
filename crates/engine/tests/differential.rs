//! Differential oracle harness: every pair of evaluation strategies that
//! claims to compute the same relation must produce *byte-identical*
//! results, and a divergence must fail with an actionable message — the
//! two strategy names and the first row where they disagree.
//!
//! Three oracles, mirroring the repo's equivalence claims:
//!
//! 1. **CASE vs SPJ** (± hash dispatch): all four `HorizontalStrategy`
//!    plans over proptest-generated fact tables (NULL dimensions, NULL and
//!    negative measures, duplicate rows).
//! 2. **Serial vs parallel**: `ParallelConfig::serial()` against
//!    `with_threads(1|2|4)` on a table large enough (> 3 morsels) that 4
//!    real workers engage — each a configuration handed to its own engine
//!    (`PercentageEngine::with_config`); no test writes the environment.
//! 3. **Vertical vs horizontally-transposed-then-flattened**: the `Hpct`
//!    matrix mapped back to `(group, by-value, pct)` triples via its cell
//!    column names must equal the `Vpct` relation, modulo the documented
//!    NULL-cell divergence (SIGMOD's `ELSE 0` CASE arm renders an
//!    all-NULL cell as 0 where `Vpct`'s `sum()` of nothing is NULL).
//!
//! A fourth oracle sits below the strategies: the four entry points that
//! plan over the engine's one scan core — `hash_aggregate`,
//! `partial_aggregate`, the single full-arity level of `lattice_aggregate`
//! and `pivot_aggregate` un-transposed — must finalize to the same bytes at
//! every kernel tier, thread count and input shape.
//!
//! A fifth pins what the scan reads *beside* the columns: every shape of
//! integer key domain, and every `Table` mutator between two scans, against
//! a per-row loop that reads no column statistics.
//!
//! A sixth is the `WHERE` axis: every statement family with a predicate,
//! at every thread count, kernel path and side of the dense budget, against
//! the same statement without one over a table registered from
//! `pa_engine::filter(F, predicate)` — the selection the scans read in
//! place against the copy no query path makes any more.
//!
//! Measures are integer-valued floats throughout: their sums are exact
//! under any regrouping of additions (DESIGN.md §7), so "identical" means
//! bitwise equality, not within-epsilon. This is a pa-engine *dev*
//! dependency on pa-core — a dev-dep cycle Cargo permits — because the
//! strategies under test are planned above the operator layer but the
//! operators are what diverge.

use pa_core::{
    HorizontalOptions, HorizontalQuery, HorizontalResult, HorizontalStrategy, PercentageEngine,
    VpctQuery, VpctStrategy,
};
use pa_engine::{
    distinct_keys, filter, hash_aggregate_with_config, lattice_aggregate_with_config,
    multi_hash_aggregate_with_config, partial_aggregate, pivot_aggregate_with_config, AggFunc,
    AggSpec, CmpOp, ExecStats, Expr, PBits, ParallelConfig, PivotTask, ResourceGuard,
    DEFAULT_DENSE_BUDGET,
};
use pa_storage::{Catalog, DataType, Schema, Table, Value};
use proptest::prelude::*;

#[path = "support/reference.rs"]
mod reference;

#[derive(Debug, Clone)]
struct Row {
    g: Option<i64>,
    d: Option<i64>,
    a: Option<i64>,
}

/// NULLs in every column, few distinct keys (duplicates guaranteed),
/// negative measures (zero-sum groups reachable).
fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop::option::weighted(0.9, 0..4i64),
        prop::option::weighted(0.9, 0..5i64),
        prop::option::weighted(0.85, -3..=3i64),
    )
        .prop_map(|(g, d, a)| Row { g, d, a })
}

fn build_catalog(rows: &[Row]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, rows.len());
    for r in rows {
        t.push_row(&[
            Value::from(r.g),
            Value::from(r.d),
            Value::from(r.a.map(|x| x as f64)),
        ])
        .unwrap();
    }
    catalog.create_table("f", t).unwrap();
    catalog
}

fn sorted_rows(t: &Table) -> Vec<Vec<Value>> {
    let all: Vec<usize> = (0..t.num_columns()).collect();
    t.sorted_by(&all).rows().collect()
}

/// Byte-identical comparison with an actionable verdict: `None` on
/// agreement, otherwise a message carrying both strategy names, the first
/// divergent (sorted) row index and both rows in full.
fn first_divergence(name_a: &str, a: &Table, name_b: &str, b: &Table) -> Option<String> {
    if a.num_columns() != b.num_columns() {
        return Some(format!(
            "{name_a} vs {name_b}: column count {} vs {}",
            a.num_columns(),
            b.num_columns()
        ));
    }
    let ra = sorted_rows(a);
    let rb = sorted_rows(b);
    for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
        if x != y {
            return Some(format!(
                "{name_a} vs {name_b}: first divergent row {i}: {x:?} vs {y:?}"
            ));
        }
    }
    if ra.len() != rb.len() {
        let i = ra.len().min(rb.len());
        let extra = if ra.len() > rb.len() {
            format!("{name_a} has extra row {:?}", ra[i])
        } else {
            format!("{name_b} has extra row {:?}", rb[i])
        };
        return Some(format!(
            "{name_a} vs {name_b}: row count {} vs {}; first unmatched row {i}: {extra}",
            ra.len(),
            rb.len()
        ));
    }
    None
}

/// Which kernel tier a variant's engine is handed, over a base
/// configuration.
type Tier = fn(ParallelConfig) -> ParallelConfig;

/// A horizontal plan variant: its name, the paper's options, and the tier.
type Variant = (String, HorizontalOptions, Tier);

/// Every horizontal plan variant under test: the four strategies (the CASE
/// pair defaulting to the dense jump-table group path, which on dense
/// inputs runs the vectorized bit-packed kernels), the hash-tier ablation
/// of each CASE strategy (`dense_budget: 0`: the hash group path through
/// the same pivot) and the legacy O(N)-per-row CASE chain of each (jump
/// table off). The three CASE code paths — dense pivot, hash pivot, legacy
/// chain — all appear, so every oracle that consumes this list is also a
/// dense-vs-hash-vs-legacy differential.
fn horizontal_variants() -> Vec<Variant> {
    let as_given: Tier = |base| base;
    let hash_tier: Tier = |base| ParallelConfig {
        dense_budget: 0,
        ..base
    };
    let mut v = Vec::new();
    for strategy in HorizontalStrategy::all() {
        let opts = HorizontalOptions::with_strategy(strategy);
        v.push((strategy.label().to_string(), opts, as_given));
    }
    for strategy in [
        HorizontalStrategy::CaseDirect,
        HorizontalStrategy::CaseFromFv,
    ] {
        let opts = HorizontalOptions::with_strategy(strategy);
        let legacy = HorizontalOptions {
            jump_table: false,
            ..opts.clone()
        };
        let label = strategy.label();
        v.push((format!("{label}+dispatch"), opts.clone(), hash_tier));
        v.push((format!("{label}+legacy-chain"), legacy, as_given));
    }
    v
}

/// `q` under one variant, by an engine handed the variant's tier of `base`.
fn run_variant(
    catalog: &Catalog,
    q: &HorizontalQuery,
    (name, opts, tier): &Variant,
    base: ParallelConfig,
) -> HorizontalResult {
    PercentageEngine::new(catalog)
        .with_config(tier(base))
        .horizontal_with(q, opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oracle 1: CASE vs SPJ (and ± dispatch) are byte-identical.
    #[test]
    fn case_and_spj_strategies_are_byte_identical(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
            let catalog = build_catalog(&rows);
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        let variants = horizontal_variants();
        let deployed = ParallelConfig::from_env();
        let reference = run_variant(&catalog, &q, &variants[0], deployed).snapshot();
        for variant in &variants[1..] {
            let got = run_variant(&catalog, &q, variant, deployed).snapshot();
            if let Some(diff) = first_divergence(&variants[0].0, &reference, &variant.0, &got) {
                prop_assert!(false, "{diff}");
            }
        }
    }

    /// Oracle 1b: the vertical strategies against the best plan, same
    /// byte-identical contract.
    #[test]
    fn vertical_strategies_are_byte_identical(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
            let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("f", &["g", "d"], "a", &["d"]);
        let reference = engine.vpct_with(&q, &VpctStrategy::best()).unwrap().snapshot();
        for strat in [
            VpctStrategy::without_index(),
            VpctStrategy::with_update(),
            VpctStrategy::fj_from_f(),
            VpctStrategy::synchronized(),
        ] {
            let got = engine.vpct_with(&q, &strat).unwrap().snapshot();
            if let Some(diff) = first_divergence("best", &reference, &format!("{strat:?}"), &got) {
                prop_assert!(false, "{diff}");
            }
        }
    }

    /// Oracle 3: flattening the `Hpct` matrix reproduces `Vpct`.
    #[test]
    fn flattened_horizontal_equals_vertical(
        rows in prop::collection::vec(row_strategy(), 1..60)
    ) {
            let catalog = build_catalog(&rows);
        let engine = PercentageEngine::new(&catalog);
        let v = engine
            .vpct(&VpctQuery::single("f", &["g", "d"], "a", &["d"]))
            .unwrap()
            .snapshot();
        let h = engine
            .horizontal(&HorizontalQuery::hpct("f", &["g"], "a", &["d"]))
            .unwrap();
        let ht = h.snapshot();
        let names = &h.cell_columns[0];
        let mut hrow = std::collections::HashMap::new();
        for r in 0..ht.num_rows() {
            hrow.insert(ht.get(r, 0).to_string(), r);
        }
        // Every vertical row must be found in the flattened matrix.
        for r in 0..v.num_rows() {
            let g = v.get(r, 0).to_string();
            let d = v.get(r, 1);
            let col_name = names
                .iter()
                .find(|n| **n == format!("d={d}"))
                .expect("cell column exists for every observed BY value");
            let c = ht.schema().index_of(col_name).unwrap();
            let pct_h = ht.get(hrow[&g], c);
            let pct_v = v.get(r, 2);
            if pct_v.is_null() {
                // Documented divergence: all-NULL cell is NULL vertically,
                // 0 horizontally (ELSE 0) — unless the whole group total is
                // zero/NULL, where both are NULL.
                prop_assert!(
                    pct_h.is_null() || pct_h.as_f64().is_some_and(|x| x == 0.0),
                    "vertical vs horizontal-flattened: g={g} d={d}: \
                     horizontal {pct_h:?} for NULL vertical cell"
                );
            } else {
                prop_assert!(
                    pct_h == pct_v,
                    "vertical vs horizontal-flattened: first divergent cell \
                     g={g} d={d}: vertical {pct_v:?} vs horizontal {pct_h:?}"
                );
            }
        }
        // And the matrix must not contain cells the vertical relation lacks:
        // every non-NULL, non-zero cell corresponds to some vertical row.
        let vert_rows = v.num_rows();
        let mut nonzero_cells = 0usize;
        for r in 0..ht.num_rows() {
            for name in names {
                let c = ht.schema().index_of(name).unwrap();
                match ht.get(r, c).as_f64() {
                    Some(x) if x != 0.0 => nonzero_cells += 1,
                    _ => {}
                }
            }
        }
        prop_assert!(
            nonzero_cells <= vert_rows,
            "horizontal matrix has {nonzero_cells} non-zero cells but the \
             vertical relation only {vert_rows} rows"
        );
    }
}

/// Oracle 2: serial vs real morsel parallelism, all strategies.
///
/// 260 096 rows = 3×64Ki morsels + remainder, above the 32Ki serial
/// threshold, so `with_threads(4)` engages four genuine workers
/// (`ParallelConfig::effective_threads`). Deterministic LCG data — the
/// point here is the fan-out/merge path, not input diversity (oracle 1
/// covers that).
#[test]
fn serial_and_parallel_plans_are_byte_identical() {
    const N: usize = 260_096;
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, N);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..N {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = (state >> 33) % 101;
        let d = (state >> 13) % 7;
        let a = (state >> 3) % 1000;
        t.push_row(&[
            Value::from(g as i64),
            Value::from(d as i64),
            Value::from(a as f64),
        ])
        .unwrap();
    }
    catalog.create_table("f", t).unwrap();
    let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);

    for variant in horizontal_variants() {
        let name = &variant.0;
        let serial = run_variant(&catalog, &q, &variant, ParallelConfig::serial()).snapshot();
        for threads in [1usize, 2, 4] {
            let workers = ParallelConfig::with_threads(threads);
            let parallel = run_variant(&catalog, &q, &variant, workers).snapshot();
            if let Some(diff) = first_divergence(
                &format!("{name}/serial"),
                &serial,
                &format!("{name}/threads={threads}"),
                &parallel,
            ) {
                panic!("{diff}");
            }
        }
    }
}

/// Deterministic fact table with one dimension optionally stretched across
/// more codes than the dense budget (values spaced `spread` apart), so the
/// same generator produces inputs on either side of the 2^20-code budget.
fn budget_catalog(n: usize, g_spread: i64, d_spread: i64) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    let mut state = 0xdead_beef_cafe_f00du64;
    for _ in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) % 7) as i64 * g_spread;
        let d = ((state >> 13) % 7) as i64 * d_spread;
        let a = ((state >> 3) % 1000) as i64;
        t.push_row(&[Value::from(g), Value::from(d), Value::from(a as f64)])
            .unwrap();
    }
    catalog.create_table("f", t).unwrap();
    catalog
}

/// Dense vs hash vs legacy CASE paths on both sides of the dense-code
/// budget, byte-identical at 1/2/4 workers against the serial plan.
///
/// * a spread of `230_000` on either dimension pushes `GROUP BY ∪ BY` over
///   the 2^20-code budget: the pivot's one code stream takes the wide tier
///   (a hash of one integer per level) and stays in the block loop — no row
///   drops to the per-row loop.
/// * spreads of 1 keep everything dense (the all-dense side).
#[test]
fn group_paths_agree_on_both_sides_of_the_dense_budget() {
    const N: usize = 200_000; // 4 morsels: real fan-out at four threads
    let case_variants: Vec<Variant> = horizontal_variants()
        .into_iter()
        .filter(|(name, ..)| name.contains("CASE"))
        .collect();
    for (g_spread, d_spread) in [(1, 1), (1, 230_000), (230_000, 1)] {
        let catalog = budget_catalog(N, g_spread, d_spread);
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        let ref_name = &case_variants[0].0;
        let reference = run_variant(&catalog, &q, &case_variants[0], ParallelConfig::serial());
        if (g_spread, d_spread) == (1, 1) {
            assert!(
                reference.stats.dense_group_ops > 0 && reference.stats.hash_group_ops == 0,
                "all-dense input must take the dense path: {:?}",
                reference.stats
            );
        }
        if (g_spread, d_spread) != (1, 1) {
            assert!(
                reference.stats.hash_group_ops > 0 && reference.stats.scalar_kernel_rows == 0,
                "an over-budget key must take the wide tier, fused: {:?}",
                reference.stats
            );
        }
        let reference = reference.snapshot();
        for variant in &case_variants {
            let name = &variant.0;
            for threads in [1usize, 2, 4] {
                let workers = ParallelConfig::with_threads(threads);
                let got = run_variant(&catalog, &q, variant, workers);
                if name.ends_with("+dispatch") {
                    assert_eq!(
                        got.stats.dense_group_ops, 0,
                        "the hash tier must never touch the dense path: {:?}",
                        got.stats
                    );
                }
                let got = got.snapshot();
                if let Some(diff) = first_divergence(
                    &format!("{ref_name}/serial/spread=({g_spread},{d_spread})"),
                    &reference,
                    &format!("{name}/threads={threads}/spread=({g_spread},{d_spread})"),
                    &got,
                ) {
                    panic!("{diff}");
                }
            }
        }
    }
}

/// `Hpct(a BY d) … GROUP BY g` of `t` by the naive reference: each cell's
/// sum over its group's total (a cell no row fed is 0, a zero or NULL total
/// makes the row NULL), one column per `d` value in value order, rows
/// sorted.
fn reference_hpct(t: &Table) -> Vec<Vec<Value>> {
    let sum = [AggSpec::new(AggFunc::Sum, Expr::Col(2), "s")];
    let rows = || reference::Rows::all(t.num_rows());
    let totals = reference::aggregate(t, &rows(), &[0], &sum, 0);
    let cells = reference::aggregate(t, &rows(), &[0, 1], &sum, 0);
    let combos = reference::aggregate(t, &rows(), &[1], &[], 0).sorted_by(&[0]);
    let cell = |g: &Value, d: &Value| {
        let at = |r: &Vec<Value>| r[0].key_eq(g) && r[1].key_eq(d);
        cells
            .rows()
            .find(at)
            .map_or(0.0, |r| r[2].as_f64().unwrap_or(0.0))
    };
    let hpct = totals.rows().map(|row| {
        let total = row[1].as_f64().filter(|&x| x != 0.0);
        let pct =
            |d: Vec<Value>| total.map_or(Value::Null, |x| Value::Float(cell(&row[0], &d[0]) / x));
        std::iter::once(row[0].clone())
            .chain(combos.rows().map(pct))
            .collect()
    });
    let mut hpct: Vec<Vec<Value>> = hpct.collect();
    hpct.sort_by(|a, b| a[0].total_cmp(&b[0]));
    hpct
}

/// The RLE path on RLE-friendly input: the fact table is sorted by
/// `(BY, GROUP BY)`, so the pivot's code stream over `GROUP BY ∪ BY` is
/// run-dominated and takes the core's run-level fast path. The result must
/// be the naive reference's at every thread count, and the kernel-path
/// counters must prove which path ran — NULL measures included, so the
/// validity-branch in the scatter kernels is exercised, not just the
/// happy path.
#[test]
fn the_rle_path_matches_the_reference_on_sorted_input() {
    const N: usize = 200_000; // 4 morsels: real fan-out at four threads
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, N);
    let mut state = 0x0123_4567_89ab_cdefu64;
    for i in 0..N {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Sorted string dimension: 7 runs of ~28.5k rows each — dictionary-
        // coded, so the stream reads it through the bit-packed code vector —
        // and inside each, 101 sorted runs of the integer dimension (~280
        // rows, a few runs per 1024-row kernel block).
        let g = (i * 7 * 101 / N % 101) as i64;
        let d = format!("d{}", i * 7 / N);
        let a = if state.is_multiple_of(10) {
            Value::Null
        } else {
            Value::from(((state >> 3) % 1000) as f64)
        };
        t.push_row(&[Value::from(g), Value::str(&d), a]).unwrap();
    }
    catalog.create_table("f", t).unwrap();
    let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    let run = |config: ParallelConfig| {
        let engine = PercentageEngine::new(&catalog).with_config(config);
        engine.horizontal(&q).unwrap()
    };

    let want = reference_hpct(&catalog.table("f").unwrap().read());
    for threads in [1usize, 2, 4] {
        let vectorized = run(ParallelConfig::with_threads(threads));
        assert!(
            vectorized.stats.vectorized_kernel_rows >= N as u64,
            "dense sorted input must run the vectorized kernels: {:?}",
            vectorized.stats
        );
        assert!(
            vectorized.stats.rle_runs > 0,
            "a sorted key must hit the RLE fast path: {:?}",
            vectorized.stats
        );
        assert!(
            vectorized.stats.pack_width > 0,
            "vectorized plan must record its pack width: {:?}",
            vectorized.stats
        );
        assert_eq!(vectorized.stats.scalar_kernel_rows, 0, "one scan mode");
        let got = sorted_rows(&vectorized.snapshot());
        assert_eq!(got, want, "threads={threads}");
    }
}

/// Holistic lanes in the fused pivot (DESIGN.md §12): `median`,
/// `percentile`, `approx_percentile` and `approx_count_distinct` as extra
/// lanes beside an `Hpct` term and as the cell lanes of a horizontal term,
/// against the naive reference over the same worker chunks — at 1, 2 and 4
/// workers, with
/// a GROUP BY and without one, on unsorted and key-sorted input (the run
/// path), over NULL-carrying and all-NULL measures,
/// with the percentile budget inside and crossed in mid-block. Same table,
/// bit for bit, and the kernel-path counters prove which scan ran.
#[test]
fn holistic_pivot_lanes_match_the_reference() {
    use pa_core::dispatch::{pivot_aggregate_with_config, PivotTask};
    use pa_engine::{AggFunc, ExecStats, Expr, PBits, ParallelConfig, ResourceGuard};

    const N: usize = 9_000;
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Str),
        ("a", DataType::Float),
        ("m", DataType::Int),
        ("z", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    for sorted in [false, true] {
        let mut t = Table::with_capacity(schema.clone(), N);
        let mut state = 0x0bad_5eed_1234_5678u64;
        for i in 0..N {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (g, d) = if sorted {
                (i * 55 / N % 11, i * 5 / N)
            } else {
                ((state >> 33) as usize % 11, (state >> 13) as usize % 5)
            };
            t.push_row(&[
                Value::from(g as i64),
                // "d4" is in the data but in no listed combination.
                Value::str(format!("d{d}")),
                if state.is_multiple_of(9) {
                    Value::Null
                } else {
                    Value::from(((state >> 3) % 1000) as f64)
                },
                Value::from((1i64 << 53) + ((state >> 23) % 19) as i64),
                Value::Null,
            ])
            .unwrap();
        }
        let combos: Vec<Vec<Value>> = (0..4).map(|d| vec![Value::str(format!("d{d}"))]).collect();
        let hpct = PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, Expr::Col(2))],
            combos: combos.clone(),
            total: Some(Expr::Col(2)),
        };
        let holistic = [
            (AggFunc::Percentile(PBits::new(0.5)), 2usize),
            (AggFunc::ApproxPercentile(PBits::new(0.9)), 2),
            (AggFunc::ApproxCountDistinct, 3),
            (AggFunc::Percentile(PBits::new(0.5)), 4),
            (AggFunc::ApproxCountDistinct, 4),
        ];
        // Holistic extras riding an Hpct term (with a raw extra between
        // them), then holistic cell lanes beside a raw one.
        type Lanes = Vec<(AggFunc, Expr)>;
        let mut plans: Vec<(Vec<PivotTask>, Lanes)> = vec![(
            vec![hpct.clone()],
            holistic
                .iter()
                .map(|&(f, c)| (f, Expr::Col(c)))
                .chain([(AggFunc::CountStar, Expr::lit(1))])
                .collect(),
        )];
        for &(func, col) in &holistic {
            plans.push((
                vec![
                    hpct.clone(),
                    PivotTask {
                        by_cols: vec![1],
                        lanes: vec![(AggFunc::Count, Expr::Col(2)), (func, Expr::Col(col))],
                        combos: combos.clone(),
                        total: None,
                    },
                ],
                vec![(AggFunc::Sum, Expr::Col(2))],
            ));
        }
        for (tasks, extras) in &plans {
            for j_cols in [vec![0usize], vec![]] {
                for percentile_budget in [1usize << 16, 150] {
                    for threads in [1usize, 2, 4] {
                        let what = format!(
                            "sorted={sorted} j_cols={j_cols:?} budget={percentile_budget} \
                             threads={threads} tasks={tasks:?} extras={extras:?}"
                        );
                        let config = ParallelConfig {
                            threads,
                            morsel_rows: 2_048,
                            min_parallel_rows: 0,
                            percentile_budget,
                            ..ParallelConfig::serial()
                        };
                        let mut fused_stats = ExecStats::default();
                        let fused = pivot_aggregate_with_config(
                            &t,
                            &j_cols,
                            tasks,
                            extras,
                            &ResourceGuard::unlimited(),
                            &mut fused_stats,
                            &config,
                        )
                        .unwrap();
                        let rows = reference::Rows::all(N).chunked(config.chunks(N));
                        let want =
                            reference::pivot(&t, &rows, &j_cols, tasks, extras, percentile_budget);
                        reference::assert_same(&fused, &want, &what);
                        assert_eq!(fused_stats.scalar_kernel_rows, 0, "{what}");
                        assert_eq!(fused_stats.vectorized_kernel_rows, N as u64, "{what}");
                        if sorted {
                            assert!(fused_stats.rle_runs > 0, "{what}: the run path");
                        }
                    }
                }
            }
        }
    }
}

/// A cached combination set must not change a single byte of the
/// result, only the miss/hit counters.
#[test]
fn cache_cold_and_cache_warm_catalog_are_byte_identical() {
    let catalog = budget_catalog(50_000, 1, 1);
    let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    let deployed = ParallelConfig::from_env();
    for variant in horizontal_variants()
        .into_iter()
        .filter(|(name, ..)| name.contains("CASE"))
    {
        let name = &variant.0;
        // The executor scans a pinned snapshot alias, so combos are keyed
        // by the alias; invalidate through the catalog to reach it.
        catalog.invalidate_combos("f");
        let cold = run_variant(&catalog, &q, &variant, deployed);
        assert!(
            cold.stats.combo_cache_misses > 0 && cold.stats.combo_cache_hits == 0,
            "{name}: first evaluation must miss the cold cache: {:?}",
            cold.stats
        );
        let warm = run_variant(&catalog, &q, &variant, deployed);
        assert!(
            warm.stats.combo_cache_hits > 0 && warm.stats.combo_cache_misses == 0,
            "{name}: second evaluation must hit the warm cache: {:?}",
            warm.stats
        );
        if let Some(diff) = first_divergence(
            &format!("{name}/cold"),
            &cold.snapshot(),
            &format!("{name}/warm"),
            &warm.snapshot(),
        ) {
            panic!("{diff}");
        }
    }
}

/// The harness itself must be able to see a divergence: feed it two tables
/// that differ in one cell and check the message carries both names and
/// the divergent row.
/// Seeded table for the adapter matrix: two integer keys spread over
/// `spread` values each (NULLs in the first), a three-valued string key,
/// and an integer-valued float measure with NULLs.
fn adapter_table(n: usize, spread: u64, seed: u64) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("h", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n {
        let g = next();
        t.push_row(&[
            if g % 19 == 0 {
                Value::Null
            } else {
                Value::Int((g % spread) as i64)
            },
            Value::Int((next() % spread) as i64 - 3),
            Value::str(["x", "y", "z"][(next() % 3) as usize]),
            if next() % 11 == 0 {
                Value::Null
            } else {
                Value::Float((next() % 41) as f64 - 20.0)
            },
        ])
        .unwrap();
    }
    t
}

/// A result's rows in key order, rendered so that `-0.0` and `0.0` (equal
/// as values) would still differ: byte identity, not value equality.
fn canonical(t: &Table, n_keys: usize) -> Vec<String> {
    canonical_rows(t.rows().collect(), n_keys)
}

fn canonical_rows(mut rows: Vec<Vec<Value>>, n_keys: usize) -> Vec<String> {
    rows.sort_by(|a, b| {
        a[..n_keys]
            .iter()
            .zip(&b[..n_keys])
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// The pivot of `specs` over `GROUP BY cols[..k]`, `BY cols[k..]`, laid
/// back out as the aggregate at `cols` it transposes: one row per cell some
/// input row fed (told by the `count(*)` lane, which `specs` must carry),
/// keys then lanes, in [`canonical`] form. The lanes ride two tasks sharing
/// the BY list; a cell no row fed must read as a fresh accumulator does —
/// 0 under the counts, NULL under everything else.
fn untransposed_pivot(
    t: &Table,
    cols: &[usize],
    k: usize,
    specs: &[AggSpec],
    config: &ParallelConfig,
    stats: &mut ExecStats,
) -> Vec<String> {
    let (j_cols, by_cols) = cols.split_at(k);
    let combos = if by_cols.is_empty() {
        vec![vec![]] // the one cell of a pivot with nothing to pivot on
    } else {
        distinct_keys(t, by_cols, &mut ExecStats::default()).unwrap()
    };
    let star = specs
        .iter()
        .position(|s| s.func == AggFunc::CountStar)
        .expect("a count(*) lane");
    let split = [&specs[..2], &specs[2..]];
    let tasks: Vec<PivotTask> = split
        .iter()
        .map(|lanes| PivotTask {
            by_cols: by_cols.to_vec(),
            lanes: lanes.iter().map(|s| (s.func, s.input.clone())).collect(),
            combos: combos.clone(),
            total: None,
        })
        .collect();
    let guard = ResourceGuard::unlimited();
    let out = pivot_aggregate_with_config(t, j_cols, &tasks, &[], &guard, stats, config).unwrap();
    let mut cells: Vec<Vec<Value>> = Vec::new();
    for row in out.rows() {
        for (i, combo) in combos.iter().enumerate() {
            // Task 0's cells come first, `combos × 2` of them.
            let first = &row[k + i * 2..][..2];
            let rest = &row[k + combos.len() * 2 + i * split[1].len()..][..split[1].len()];
            let lanes: Vec<Value> = first.iter().chain(rest).cloned().collect();
            if by_cols.is_empty() || lanes[star] != Value::Int(0) {
                cells.push(row[..k].iter().chain(combo).cloned().chain(lanes).collect());
                continue;
            }
            for (spec, v) in specs.iter().zip(&lanes) {
                let counts = matches!(
                    spec.func,
                    AggFunc::Count | AggFunc::CountStar | AggFunc::ApproxCountDistinct
                );
                let fresh = if counts { Value::Int(0) } else { Value::Null };
                assert_eq!(v, &fresh, "an unfed {} cell", spec.func.sql_name());
            }
        }
    }
    canonical_rows(cells, cols.len())
}

/// Oracle 4: one scan core, four adapters, one answer.
///
/// `hash_aggregate` ≡ `partial_aggregate(..).finalize()` ≡ the single
/// full-arity level of `lattice_aggregate` ≡ `pivot_aggregate`
/// un-transposed (the last key column as BY, and on one table every key
/// column as BY under the empty GROUP BY), against the naive reference,
/// over threads {1,2,4} × dense budget {0, 64, default} — the wide and
/// dense tiers — on code spaces under and over 2^16 and one past the
/// default budget (a 2000 × 2000 group key), key-sorted input (the RLE
/// path), empty input and the empty GROUP BY; and the pivot once more by a
/// float column, whose task levels are grouped by tuple hash and no GROUP BY
/// level is scanned. (`partial_aggregate` takes its configuration from the
/// environment, so it contributes one cell per table; the lattice has no
/// empty level, and answers holistic lanes like every other adapter.)
#[test]
fn aggregate_partial_and_lattice_adapters_agree_across_the_kernel_matrix() {
    let guard = ResourceGuard::unlimited();
    let small = adapter_table(3_000, 5, 11);
    let large = adapter_table(3_000, 300, 12); // (300 + 2)^2 codes > 2^16
    let tables = [
        ("small", small.clone()),
        ("small sorted", small.sorted_by(&[0, 1])),
        ("large", large.clone()),
        ("large sorted", large.sorted_by(&[0, 1])),
        ("empty", adapter_table(0, 5, 13)),
        ("wide", adapter_table(3_000, 2_000, 15)),
    ];
    let a = Expr::Col(3);
    let raw = vec![
        AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
        AggSpec::new(AggFunc::Count, a.clone(), "c"),
        AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        AggSpec::new(AggFunc::Avg, a.clone(), "m"),
    ];
    let mut holistic = raw.clone();
    holistic.push(AggSpec::new(
        AggFunc::Percentile(PBits::new(0.5)),
        a.clone(),
        "med",
    ));
    holistic.push(AggSpec::new(AggFunc::ApproxCountDistinct, a.clone(), "adx"));
    for (name, t) in &tables {
        let every_row = || reference::Rows::all(t.num_rows());
        // Past the dense budget the group key is both integers, BY the
        // string: 2000 BY values would make a matrix of millions of cells.
        let key_sets = match *name {
            "wide" => vec![vec![0usize, 1, 2]],
            _ => vec![vec![0, 1], vec![2, 0], vec![]],
        };
        for (lanes, specs) in [("raw", &raw), ("holistic", &holistic)] {
            for cols in key_sets.clone() {
                let what = format!("{name} {lanes} by {cols:?}");
                let mut st = ExecStats::default();
                let budget = ParallelConfig::serial().percentile_budget;
                let want = reference::aggregate(t, &every_row(), &cols, specs, budget);
                let want = canonical(&want, cols.len());
                let partial = partial_aggregate(t, &cols, specs, &mut st)
                    .unwrap()
                    .finalize(&mut st)
                    .unwrap();
                assert_eq!(canonical(&partial, cols.len()), want, "{what}: partial");

                for threads in [1usize, 2, 4] {
                    for dense_budget in [0, 64, DEFAULT_DENSE_BUDGET] {
                        let config = ParallelConfig {
                            threads,
                            morsel_rows: 256,
                            min_parallel_rows: 0,
                            dense_budget,
                            ..ParallelConfig::serial()
                        };
                        let cell = format!("{what} threads={threads} budget={dense_budget}");
                        let mut st = ExecStats::default();
                        let got =
                            hash_aggregate_with_config(t, &cols, specs, &guard, &mut st, &config)
                                .unwrap();
                        assert_eq!(canonical(&got, cols.len()), want, "{cell}: aggregate");
                        assert_eq!(
                            (st.vectorized_kernel_rows, st.scalar_kernel_rows),
                            (t.num_rows() as u64, 0),
                            "{cell}: one block loop"
                        );

                        // The last key column as BY (but for the
                        // 300 × 300 cells of the large tables); on the
                        // small one every key column too, under the
                        // empty GROUP BY.
                        let n = t.num_rows() as u64;
                        let splits = match (*name, cols.len()) {
                            ("small", len) => vec![len.saturating_sub(1), 0],
                            ("large" | "large sorted", 2) if cols[1] == 1 => vec![],
                            (_, len) => vec![len.saturating_sub(1)],
                        };
                        for k in splits {
                            let mut st = ExecStats::default();
                            let got = untransposed_pivot(t, &cols, k, specs, &config, &mut st);
                            assert_eq!(got, want, "{cell}: pivot GROUP BY {:?}", &cols[..k]);
                            assert_eq!(
                                (st.vectorized_kernel_rows, st.scalar_kernel_rows),
                                (n, 0),
                                "{cell}: one stream for the pivot's levels"
                            );
                        }
                        // The pivot by the float measure: its two
                        // task levels are streams of their own, grouped
                        // by tuple hash, and the GROUP BY level — no
                        // total, no extra, so no lane of its own — is
                        // not scanned at all: its rows are the cell
                        // level's `parent`.
                        if *name == "small" && cols == [0, 1] {
                            let by_float =
                                reference::aggregate(t, &every_row(), &[0, 3], specs, budget);
                            let by_float = canonical(&by_float, 2);
                            let mut st = ExecStats::default();
                            let got = untransposed_pivot(t, &[0, 3], 1, specs, &config, &mut st);
                            assert_eq!(got, by_float, "{cell}: pivot BY a float");
                            assert_eq!(
                                (st.vectorized_kernel_rows, st.scalar_kernel_rows),
                                (2 * n, 0),
                                "{cell}: the two cell levels, keyed by the float, and nothing else"
                            );
                        }

                        if cols.is_empty() {
                            continue; // the lattice has no empty level
                        }
                        let every_dim: Vec<usize> = (0..cols.len()).collect();
                        let mut st = ExecStats::default();
                        let mut lattice = lattice_aggregate_with_config(
                            t,
                            &cols,
                            specs,
                            &[every_dim],
                            &guard,
                            &mut st,
                            &config,
                        )
                        .unwrap();
                        let level = lattice.pop().unwrap();
                        assert_eq!(lattice.len(), 0, "{cell}: one level in, one out");
                        assert_eq!(canonical(&level, cols.len()), want, "{cell}: lattice");
                        assert_eq!(
                            (st.vectorized_kernel_rows, st.scalar_kernel_rows),
                            (n, 0),
                            "{cell}: the lattice's one stream, holistic or not"
                        );
                    }
                }
            }
        }
    }
}

/// One synchronized scan whose levels carry typed lanes and an `Acc`
/// (`min`) lane: each must equal the naive reference of its own level.
#[test]
fn a_multi_level_scan_mixes_typed_and_acc_levels() {
    let guard = ResourceGuard::unlimited();
    let t = adapter_table(3_000, 5, 14);
    let a = Expr::Col(3);
    let levels = vec![
        (
            vec![0usize, 1],
            vec![AggSpec::new(AggFunc::Sum, a.clone(), "sum")],
        ),
        (vec![0], vec![AggSpec::new(AggFunc::Min, a.clone(), "lo")]),
        (vec![], vec![AggSpec::new(AggFunc::Avg, a.clone(), "m")]),
    ];
    for threads in [1usize, 2, 4] {
        let config = ParallelConfig {
            threads,
            morsel_rows: 256,
            min_parallel_rows: 0,
            ..ParallelConfig::serial()
        };
        let mut st = ExecStats::default();
        let got = multi_hash_aggregate_with_config(&t, &levels, &guard, &mut st, &config).unwrap();
        assert_eq!(st.rows_scanned, t.num_rows() as u64, "one scan");
        assert_eq!(
            (st.vectorized_kernel_rows, st.scalar_kernel_rows),
            (3 * t.num_rows() as u64, 0),
            "threads={threads}: three streams, one block loop"
        );
        for (out, (cols, specs)) in got.iter().zip(&levels) {
            let rows = reference::Rows::all(t.num_rows());
            let solo = reference::aggregate(&t, &rows, cols, specs, config.percentile_budget);
            assert_eq!(
                canonical(out, cols.len()),
                canonical(&solo, cols.len()),
                "threads={threads} level {cols:?}"
            );
        }
    }
}

/// A table keyed by `k` (the domain under test) and `h` (three values and
/// NULL around zero), with an integer-valued float measure carrying NULLs.
fn key_domain_table(keys: &[Option<i64>]) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("h", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, keys.len());
    for (i, k) in keys.iter().enumerate() {
        t.push_row(&[
            Value::from(*k),
            Value::from((i % 4 != 3).then_some(i as i64 % 4 - 1)),
            Value::from((i % 7 != 0).then_some((i % 13) as f64 - 6.0)),
        ])
        .unwrap();
    }
    t
}

fn key_domain_specs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, Expr::Col(2), "sum"),
        AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
    ]
}

/// `hash_aggregate` of `t` by `cols` at threads {1,2,4} × both sides of the
/// dense budget against the naive reference — which reads no column
/// statistics at all, the one evaluation a stale or wrong domain cannot
/// reach — byte for byte. Returns the stats of the serial dense-budget run.
fn assert_key_domain_cells(t: &Table, cols: &[usize], what: &str) -> ExecStats {
    let guard = ResourceGuard::unlimited();
    let specs = key_domain_specs();
    let rows = reference::Rows::all(t.num_rows());
    let want = reference::aggregate(t, &rows, cols, &specs, 0);
    let want = canonical(&want, cols.len());
    let mut fused = ExecStats::default();
    for threads in [1usize, 2, 4] {
        for dense_budget in [0, DEFAULT_DENSE_BUDGET] {
            let config = ParallelConfig {
                threads,
                morsel_rows: 256,
                min_parallel_rows: 0,
                dense_budget,
                ..ParallelConfig::serial()
            };
            let mut st = ExecStats::default();
            let got =
                hash_aggregate_with_config(t, cols, &specs, &guard, &mut st, &config).unwrap();
            assert_eq!(
                canonical(&got, cols.len()),
                want,
                "{what} by {cols:?} threads={threads} budget={dense_budget}"
            );
            if threads == 1 && dense_budget > 0 {
                fused = st;
            }
        }
    }
    fused
}

/// Oracle 5: a key's domain is read from the column's statistics — range,
/// slot vector — so every shape of integer domain must group exactly as
/// the statistics-free naive reference does: NULLs and negatives, an all-NULL
/// key, spans on both sides of each storage lane (254 | 255: `u8` → `u16`;
/// 65 534 | 65 535: `u16` → no slot vector, the `i64` + validity reader),
/// and a span that overflows `i64` (`checked_sub` → no code space at all,
/// the tuple hash). The pack width says which reader ran.
#[test]
fn int_key_domains_agree_on_every_lane_and_tier() {
    const N: usize = 1_500;
    let spread = |min: i64, span: i64| -> Vec<Option<i64>> {
        // Both ends of the range, NULLs, and a seeded walk between them.
        let mut state = 0x5eed_0000_0000_0001u64 ^ span as u64;
        (0..N)
            .map(|i| match i {
                3 => Some(min),
                5 => Some(min + span),
                _ if i % 17 == 0 => None,
                _ => {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Some(min + ((state >> 33) % (span as u64 + 1)) as i64)
                }
            })
            .collect()
    };
    // (name, keys, pack width of `k` alone; `None`: no code space)
    let domains = vec![
        ("nulls and negatives", spread(-7, 12), Some(4u64)),
        ("all NULL", vec![None; N], Some(0)),
        ("span 254", spread(-100, 254), Some(8)),
        ("span 255", spread(-100, 255), Some(9)),
        ("span 65 534", spread(1 << 40, 65_534), Some(16)),
        ("span 65 535", spread(-65_535, 65_535), Some(0)),
        (
            "span past i64",
            (0..N)
                .map(|i| match i % 4 {
                    0 => Some(i64::MIN + (i % 12) as i64),
                    1 => Some(i64::MAX - (i % 12) as i64),
                    2 => Some(0),
                    _ => None,
                })
                .collect(),
            None,
        ),
    ];
    for (name, keys, width) in &domains {
        let t = key_domain_table(keys);
        let solo = assert_key_domain_cells(&t, &[0], name);
        match width {
            Some(width) => {
                assert_eq!(solo.pack_width, *width, "{name}: the reader of `k`");
                assert_eq!(
                    (solo.vectorized_kernel_rows, solo.scalar_kernel_rows),
                    (N as u64, 0),
                    "{name}: fused"
                );
            }
            None => assert_eq!(
                (
                    solo.vectorized_kernel_rows,
                    solo.scalar_kernel_rows,
                    solo.pack_width
                ),
                (N as u64, 0, 0),
                "{name}: no code space, the tuple hash in the same loop"
            ),
        }
        // Beside a second key, in both orders of significance.
        assert_key_domain_cells(&t, &[0, 1], name);
        assert_key_domain_cells(&t, &[1, 0], name);
        assert_eq!(
            t.column_stats(0).slots().is_some(),
            matches!(width, Some(w) if *w > 0),
            "{name}: a slot vector exactly where the range fits 16 bits"
        );
    }
}

/// A stale statistics cell is the bug class a side-car invites: per
/// mutator, aggregate (building the cells of both keys), write a value
/// that moves the domain — below `min`, above `max`, into and out of NULL —
/// and aggregate again. Every cell of the matrix must equal the
/// statistics-free per-row loop over the table as written.
#[test]
fn no_mutator_leaves_a_stale_key_domain() {
    let keys: Vec<Option<i64>> = (0..1_500).map(|i| Some(10 + i % 30)).collect();
    let other = key_domain_table(&[Some(-400), None, Some(70_000)]);
    type Write = Box<dyn Fn(&mut Table)>;
    let writes: Vec<(&str, Write)> = vec![
        (
            "push_row below min",
            Box::new(|t| {
                t.push_row(&[Value::Int(-3), Value::Int(0), Value::Float(1.0)])
                    .unwrap()
            }),
        ),
        (
            "push_rows past the u8 lane",
            Box::new(|t| {
                t.push_rows(&[
                    vec![Value::Int(500), Value::Null, Value::Float(2.0)],
                    vec![Value::Null, Value::Int(9), Value::Null],
                ])
                .unwrap()
            }),
        ),
        (
            "set_cells above max",
            Box::new(|t| t.set_cells(7, &[0], &[Value::Int(41)]).unwrap()),
        ),
        (
            "set_cells to NULL on the other key",
            Box::new(|t| {
                t.set_cells(0, &[1, 2], &[Value::Null, Value::Float(3.0)])
                    .unwrap()
            }),
        ),
        (
            "column_mut below min",
            Box::new(|t| t.column_mut(0).set(11, Value::Int(i64::MIN + 1)).unwrap()),
        ),
        (
            "column_mut removes the max",
            Box::new(|t| t.column_mut(0).set(29, Value::Null).unwrap()),
        ),
        (
            "extend_from past the u16 lane",
            Box::new(move |t| t.extend_from(&other).unwrap()),
        ),
    ];
    for (name, write) in &writes {
        let mut t = key_domain_table(&keys);
        let pin = t.clone();
        assert_key_domain_cells(&t, &[0, 1], &format!("before {name}"));
        let pinned = pin.column_stats(0) as *const _;
        write(&mut t);
        assert_key_domain_cells(&t, &[0, 1], &format!("after {name}"));
        assert_key_domain_cells(&t, &[1, 0], &format!("after {name}"));
        // The clone taken before the write is the old version, statistics
        // and all.
        assert!(std::ptr::eq(pinned, pin.column_stats(0)), "{name}: the pin");
        assert_eq!(pin.column_stats(0).range(), Some((10, 39)), "{name}");
        assert_key_domain_cells(&pin, &[0, 1], &format!("the pin of {name}"));
    }
}

// ---- oracle 6: the WHERE axis --------------------------------------------------

/// A `g, d, s, a` fact table of `n` rows: NULLs in every column, few
/// distinct keys, integer-valued measures. `sorted` orders it by `(g, d)`,
/// so the key stream is run-dominated and a mixed block meets the run path.
fn where_table(n: usize, sorted: bool) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut state = 0x5eed_0f5e_1ec7_u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut rows: Vec<[Value; 4]> = (0..n)
        .map(|_| {
            let nullable = |v: Value, one_in: u64, roll: u64| match roll % one_in {
                0 => Value::Null,
                _ => v,
            };
            [
                nullable(Value::Int(next(5) as i64), 11, next(11)),
                nullable(Value::Int(next(4) as i64), 13, next(13)),
                nullable(Value::str(["x", "b", "q"][next(3) as usize]), 7, next(7)),
                nullable(Value::Float(next(9) as f64 - 3.0), 6, next(6)),
            ]
        })
        .collect();
    if sorted {
        rows.sort_by(|x, y| x[0].total_cmp(&y[0]).then(x[1].total_cmp(&y[1])));
    }
    let mut t = Table::with_capacity(schema, n);
    for row in &rows {
        t.push_row(row).unwrap();
    }
    t
}

/// The predicates of the axis, as SQL text and as the expression the text
/// means over [`where_table`]'s columns.
fn where_predicates() -> Vec<(&'static str, Expr)> {
    let cmp =
        |op, c: usize, v: Value| Expr::Cmp(op, Box::new(Expr::Col(c)), Box::new(Expr::Lit(v)));
    let (g, d, s, a) = (0, 1, 2, 3);
    vec![
        // NULL on the rows whose measure is: dropped, not kept.
        ("a >= 1", cmp(CmpOp::Ge, a, Value::Int(1))),
        // On a column that is also a key: `d = 2` is wholly filtered out
        // and must not come back as a group or as an `Hpct` column.
        (
            "d <> 2 AND a < 3",
            cmp(CmpOp::Ne, d, Value::Int(2)).and(cmp(CmpOp::Lt, a, Value::Int(3))),
        ),
        (
            "g = 1 OR s <> 'b'",
            Expr::Or(
                Box::new(cmp(CmpOp::Eq, g, Value::Int(1))),
                Box::new(cmp(CmpOp::Ne, s, Value::str("b"))),
            ),
        ),
        // Nothing qualifies: no group under a keyed GROUP BY, the one
        // global row under an empty one.
        ("a > 1000", cmp(CmpOp::Gt, a, Value::Int(1000))),
        // Arithmetic does not compile: the scalar mode, same words.
        (
            "a + 1 > 2",
            Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::Col(a).add(Expr::lit(1))),
                Box::new(Expr::lit(2)),
            ),
        ),
    ]
}

/// How a statement of the axis is planned.
#[derive(Clone, Copy, PartialEq)]
enum Planned {
    /// As the optimizer plans it: a multi-term or lattice-grouped `Vpct`
    /// on the dimension lattice.
    Optimizer,
    /// Under every explicit vertical strategy (`FromF` plans read `F` two
    /// or three times through the one selection).
    EveryVertical,
    /// Under every horizontal plan variant.
    EveryHorizontal,
}

/// Every statement family, as `(select list, grouping)` around the `FROM f
/// [WHERE ..]` in the middle. The boundary-size tables run the first
/// vertical and the first horizontal one.
fn where_statements() -> Vec<(&'static str, &'static str, Planned)> {
    use Planned::*;
    vec![
        (
            "SELECT g, d, Vpct(a BY d) AS p",
            "GROUP BY g, d",
            EveryVertical,
        ),
        (
            "SELECT g, d, Vpct(a BY d) AS p, Vpct(a BY g, d) AS q",
            "GROUP BY g, d",
            Optimizer,
        ),
        (
            "SELECT g, d, Vpct(a BY d) AS p",
            "GROUP BY ROLLUP (g, d)",
            Optimizer,
        ),
        (
            "SELECT g, d, Vpct(a BY g, d) AS p, count(*) AS n",
            "GROUP BY CUBE (g, d)",
            Optimizer,
        ),
        (
            "SELECT g, d, s, Vpct(a BY s) AS p",
            "GROUP BY GROUPING SETS ((g, s), (d, s))",
            Optimizer,
        ),
        (
            "SELECT g, d, Vpct(a BY d) AS p, median(a) AS m, approx_count_distinct(a) AS u",
            "GROUP BY g, d",
            Optimizer,
        ),
        (
            "SELECT g, Hpct(a BY d), sum(a) AS t",
            "GROUP BY g",
            EveryHorizontal,
        ),
        (
            "SELECT g, sum(a BY d), count(* BY s)",
            "GROUP BY g",
            EveryHorizontal,
        ),
        // (A holistic extra: the FV plans refuse it, on both sides alike.)
        (
            "SELECT g, Hpct(a BY d), median(a) AS m",
            "GROUP BY g",
            EveryHorizontal,
        ),
        ("SELECT Hpct(a BY d, s)", "", EveryHorizontal),
    ]
}

/// Column names and rows, in the order the statement returned them.
fn verbatim(t: &Table) -> (Vec<String>, Vec<Vec<Value>>) {
    let names = t.schema().fields().iter().map(|f| f.name.clone());
    (names.collect(), t.rows().collect())
}

/// Oracle 6: `WHERE` as a selection inside the scans against `WHERE` as a
/// copy made beforehand, byte for byte — result column names and row order
/// included — for every statement family × predicate × threads {1, 2, 4} ×
/// dense budget 0 / default. Morsels of 1000 rows make
/// real workers on small tables and put every chunk boundary off a word
/// boundary; table sizes sit either side of a word and of a block.
#[test]
fn where_is_the_same_selection_inside_the_scan_as_a_copy_before_it() {
    let sizes = [63, 64, 65, 1023, 1024, 1025];
    let tables: Vec<(String, Table, bool)> = [(3 * 1024 + 500, false), (3 * 1024 + 500, true)]
        .into_iter()
        .chain(sizes.map(|n| (n, false)))
        .map(|(n, sorted)| {
            let shape = format!("n={n} sorted={sorted}");
            (shape, where_table(n, sorted), n > 2048)
        })
        .collect();
    let predicates = where_predicates();
    let statements = where_statements();
    let horizontal = horizontal_variants();
    let vertical = [
        VpctStrategy::best(),
        VpctStrategy::fj_from_f(),
        VpctStrategy::synchronized(),
        VpctStrategy::with_update(),
    ];
    let budgets = [DEFAULT_DENSE_BUDGET, 0];
    for (threads, dense_budget) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|t| budgets.map(|b| (t, b)))
    {
        let base = ParallelConfig {
            threads,
            morsel_rows: 1000,
            min_parallel_rows: 1,
            dense_budget,
            ..ParallelConfig::serial()
        };
        let knobs = format!("threads={threads} dense={dense_budget}");
        for (shape, table, full) in &tables {
            // The boundary sizes: two predicates, one statement a family,
            // the four strategies.
            let predicates = &predicates[..if *full { predicates.len() } else { 2 }];
            for (text, expr) in predicates {
                let selected = Catalog::new();
                selected.create_table("f", table.clone()).unwrap();
                let copied = Catalog::new();
                let copy = filter(table, expr, &mut ExecStats::default()).unwrap();
                copied.create_table("f", copy).unwrap();
                for (i, (select, grouping, planned)) in statements.iter().enumerate() {
                    if !full && i != 0 && i != 6 {
                        continue;
                    }
                    let with_where = format!("{select} FROM f WHERE {text} {grouping}");
                    let without = format!("{select} FROM f {grouping}");
                    // Each plan as `(name, vertical strategy, horizontal
                    // options, kernel tier)`; `None` leaves the choice to
                    // the optimizer.
                    type Knobs<'k> = Option<(&'k VpctStrategy, &'k HorizontalOptions)>;
                    let (_, any_horizontal, as_given) = &horizontal[0];
                    let plans: Vec<(String, Knobs<'_>, Tier)> = match planned {
                        Planned::Optimizer => vec![("optimizer".into(), None, *as_given)],
                        Planned::EveryVertical => vertical
                            .iter()
                            .map(|v| (format!("{v:?}"), Some((v, any_horizontal)), *as_given))
                            .collect(),
                        Planned::EveryHorizontal => horizontal
                            [..if *full { horizontal.len() } else { 4 }]
                            .iter()
                            .map(|(name, h, tier)| (name.clone(), Some((&vertical[0], h)), *tier))
                            .collect(),
                    };
                    for (plan, knobs_of_plan, tier) in plans {
                        let run = |catalog: &Catalog, sql: &str| {
                            let engine = PercentageEngine::new(catalog).with_config(tier(base));
                            let out = match knobs_of_plan {
                                Some((v, h)) => engine.execute_sql_with(sql, v, h),
                                None => engine.execute_sql(sql),
                            };
                            out.map(|out| verbatim(&out.table().read()))
                        };
                        let what = format!("{knobs} {shape} {plan}: {with_where}");
                        match (run(&selected, &with_where), run(&copied, &without)) {
                            (Ok(got), Ok(want)) => assert_eq!(got, want, "{what}"),
                            (Err(got), Err(want)) => {
                                assert_eq!(got.to_string(), want.to_string(), "{what}")
                            }
                            (got, want) => panic!("{what}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// A string column that holds only NULLs has an empty dictionary. SPJ reads
/// each combination through a key match compiled against it (`s` matches
/// NULL), and a `WHERE` may compare it: under every plan the column is the
/// one NULL cell, and a comparison with it selects nothing.
#[test]
fn a_by_column_of_only_nulls_is_one_cell_under_every_plan() {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..70i64 {
        t.push_row(&[Value::Int(i % 3), Value::Null, Value::Float((i % 5) as f64)])
            .unwrap();
    }
    let catalog = Catalog::new();
    catalog.create_table("f", t).unwrap();
    let variants = horizontal_variants();
    // `(WHERE, result rows, cell columns)`.
    for (pred, rows, cells) in [
        ("", 3, 1),
        ("WHERE a >= 1", 3, 1),
        ("WHERE s = 'x'", 0, 0),
        ("WHERE s <> 'x' OR s < 'x'", 0, 0),
    ] {
        let sql = format!("SELECT g, Hpct(a BY s) FROM f {pred} GROUP BY g");
        let run = |(_, opts, tier): &Variant| {
            let engine =
                PercentageEngine::new(&catalog).with_config(tier(ParallelConfig::from_env()));
            let out = engine.execute_sql_with(&sql, &VpctStrategy::best(), opts);
            let out = out.unwrap_or_else(|e| panic!("{sql}: {e}")).table();
            let t = out.read().clone();
            t
        };
        let reference = run(&variants[0]);
        assert_eq!(reference.num_rows(), rows, "{sql}");
        assert_eq!(reference.num_columns(), 1 + cells, "{sql}");
        for variant in &variants[1..] {
            let (ref_name, name) = (&variants[0].0, &variant.0);
            if let Some(diff) = first_divergence(ref_name, &reference, name, &run(variant)) {
                panic!("{sql}: {diff}");
            }
        }
    }
}

#[test]
fn harness_reports_injected_divergence() {
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("p", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut a = Table::empty(schema.clone());
    let mut b = Table::empty(schema);
    for g in 0..3i64 {
        a.push_row(&[Value::from(g), Value::from(0.25f64)]).unwrap();
        let p = if g == 1 { 0.5 } else { 0.25 };
        b.push_row(&[Value::from(g), Value::from(p)]).unwrap();
    }
    let msg =
        first_divergence("case_direct", &a, "spj_direct", &b).expect("divergence must be detected");
    assert!(
        msg.contains("case_direct") && msg.contains("spj_direct"),
        "message names both strategies: {msg}"
    );
    assert!(
        msg.contains("first divergent row 1"),
        "message pins the first divergent row: {msg}"
    );

    // Row-count divergence is also actionable.
    let mut c = Table::empty(a.schema().clone());
    c.push_row(&[Value::from(0i64), Value::from(0.25f64)])
        .unwrap();
    let msg = first_divergence("serial", &a, "threads=4", &c).expect("count divergence");
    assert!(msg.contains("row count 3 vs 1"), "{msg}");
}
