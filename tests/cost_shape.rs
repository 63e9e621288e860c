//! Cost-shape assertions: the *mechanisms* behind every comparison in the
//! papers' evaluation sections, verified via work counters rather than
//! wall-clock (so they hold in debug builds and on any machine).

use percentage_aggregations::prelude::*;

fn sales_catalog(rows: usize) -> Catalog {
    let catalog = Catalog::new();
    pa_workload::install_sales(&catalog, &SalesConfig { rows, seed: 99 }).unwrap();
    catalog
}

/// Table 4 column (4): `Fj` from `Fk` reads `F` once; from `F` reads twice.
#[test]
fn fj_from_fk_halves_fact_scans() {
    let catalog = sales_catalog(30_000);
    let engine = PercentageEngine::new(&catalog);
    let q = VpctQuery::single("sales", &["monthNo", "dweek"], "salesAmt", &["dweek"]);
    let from_fk = engine.vpct_with(&q, &VpctStrategy::best()).unwrap();
    let from_f = engine.vpct_with(&q, &VpctStrategy::fj_from_f()).unwrap();
    // From-F pays a second full scan of F (30k rows); from-Fk re-reads only
    // the 84-row partial.
    assert!(from_f.stats.rows_scanned >= from_fk.stats.rows_scanned + 29_000);
    // The synchronized scan recovers the single pass.
    let sync = engine.vpct_with(&q, &VpctStrategy::synchronized()).unwrap();
    assert!(sync.stats.rows_scanned <= from_fk.stats.rows_scanned);
}

/// Table 4 column (3): UPDATE logs one WAL record per row; INSERT one per
/// batch. When |FV| ≈ |F| this is the dominating difference.
#[test]
fn update_pays_per_row_logging() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    // dept,store,dweek,monthNo: |FV| within a factor of the 20k input.
    let q = VpctQuery::single(
        "sales",
        &["dept", "store", "dweek", "monthNo"],
        "salesAmt",
        &["dweek", "monthNo"],
    );
    let ins = engine.vpct_with(&q, &VpctStrategy::best()).unwrap();
    let upd = engine.vpct_with(&q, &VpctStrategy::with_update()).unwrap();
    let fv_rows = ins.snapshot().num_rows() as u64;
    assert!(fv_rows > 10_000, "|FV| comparable to |F| ({fv_rows})");
    assert_eq!(upd.stats.rows_updated, fv_rows);
    assert!(
        upd.stats.wal_records > ins.stats.wal_records + fv_rows / 2,
        "per-row update records ({}) vs bulk insert records ({})",
        upd.stats.wal_records,
        ins.stats.wal_records
    );
}

/// Table 6: the OLAP window plan does row-granular work — sort comparisons
/// and n-row materializations the percentage plan never pays.
#[test]
fn olap_baseline_is_row_granular() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    let q = VpctQuery::single("sales", &["monthNo", "dweek"], "salesAmt", &["dweek"]);
    let fast = engine.vpct(&q).unwrap();
    let olap = engine.vpct_olap(&q).unwrap();
    // Two window sorts over 20k rows.
    assert!(olap.stats.sort_comparisons > 100_000);
    assert_eq!(fast.stats.sort_comparisons, 0);
    // The window plan materializes ≥ 3 n-row intermediates + distinct;
    // the percentage plan materializes group-sized tables only.
    assert!(olap.stats.rows_materialized > 3 * 20_000);
    assert!(fast.stats.rows_materialized < 2_000);
}

/// Table 5 / DMKD Table 3: direct CASE work scales with n × N; indirect
/// CASE replaces n by |FV|. This is the *legacy* predicate-chain cost shape
/// (`jump_table: false`) — the default jump-table code path makes the same
/// query O(1) per row, asserted at the end.
#[test]
fn indirect_case_cuts_condition_evaluations() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    // N = 84 columns (dweek × monthNo), |FV| = |dept × dweek × monthNo| ≤ 8400.
    let q = HorizontalQuery::hpct("sales", &["dept"], "salesAmt", &["dweek", "monthNo"]);
    let direct = engine
        .horizontal_with(
            &q,
            &HorizontalOptions {
                strategy: HorizontalStrategy::CaseDirect,
                jump_table: false,
                ..HorizontalOptions::default()
            },
        )
        .unwrap();
    let indirect = engine
        .horizontal_with(
            &q,
            &HorizontalOptions {
                strategy: HorizontalStrategy::CaseFromFv,
                jump_table: false,
                ..HorizontalOptions::default()
            },
        )
        .unwrap();
    assert!(
        direct.stats.case_condition_evals > 20_000 * 42,
        "direct evaluates ~n×N/2 conditions: {}",
        direct.stats.case_condition_evals
    );
    assert!(
        indirect.stats.case_condition_evals < direct.stats.case_condition_evals / 2,
        "indirect {} vs direct {}",
        indirect.stats.case_condition_evals,
        direct.stats.case_condition_evals
    );
    // The default jump-table path removes the chain altogether: what
    // remains is output-sized (the percentage-division pass over |groups|
    // × N cells), not scan-sized n × N work.
    let jump = engine
        .horizontal_with(&q, &HorizontalOptions::default())
        .unwrap();
    assert!(
        jump.stats.case_condition_evals * 50 < direct.stats.case_condition_evals,
        "jump table {} vs legacy chain {}",
        jump.stats.case_condition_evals,
        direct.stats.case_condition_evals
    );
    assert!(jump.stats.dense_group_ops > 0, "{}", jump.stats);
}

/// DMKD Table 3: SPJ re-scans the source once per result column and joins N
/// times — orders of magnitude more scanned rows than one CASE pass.
#[test]
fn spj_scans_explode_with_n() {
    let catalog = sales_catalog(10_000);
    let engine = PercentageEngine::new(&catalog);
    let q = HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["dweek", "monthNo"]);
    let case = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect),
        )
        .unwrap();
    let spj = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::SpjDirect),
        )
        .unwrap();
    // 84 combinations → 84 extra scans of F.
    assert!(
        spj.stats.rows_scanned > 80 * 10_000,
        "spj scanned {}",
        spj.stats.rows_scanned
    );
    assert!(spj.stats.rows_scanned > 20 * case.stats.rows_scanned);
    // And SPJ-from-FV replaces those scans of F with scans of the smaller FV.
    let spj_fv = engine
        .horizontal_with(
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::SpjFromFv),
        )
        .unwrap();
    assert!(spj_fv.stats.rows_scanned < spj.stats.rows_scanned / 2);
}

/// The paper's future-work hash dispatch: O(1) per row instead of O(N) —
/// measured against the legacy chain, since the default jump-table path is
/// already O(1). The two O(1) evaluators differ only in lookup machinery:
/// dense composite-code indexing vs hashing.
#[test]
fn hash_dispatch_removes_case_chains() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    let q = HorizontalQuery::hpct("sales", &["dept"], "salesAmt", &["dweek", "monthNo"]);
    let case = engine
        .horizontal_with(
            &q,
            &HorizontalOptions {
                jump_table: false,
                ..HorizontalOptions::default()
            },
        )
        .unwrap();
    let hash_tier = PercentageEngine::new(&catalog).with_config(ParallelConfig {
        dense_budget: 0,
        ..ParallelConfig::from_env()
    });
    let dispatch = hash_tier
        .horizontal_with(&q, &HorizontalOptions::default())
        .unwrap();
    assert!(
        dispatch.stats.case_condition_evals * 50 < case.stats.case_condition_evals,
        "dispatch {} vs case {}",
        dispatch.stats.case_condition_evals,
        case.stats.case_condition_evals
    );
    assert!(
        dispatch.stats.dense_group_ops == 0 && dispatch.stats.hash_group_ops > 0,
        "the ablation runs every lookup through the hash path: {}",
        dispatch.stats
    );
    // The default (dense) evaluator does the same constant per-row work.
    let dense = engine
        .horizontal_with(&q, &HorizontalOptions::default())
        .unwrap();
    assert!(
        dense.stats.case_condition_evals * 50 < case.stats.case_condition_evals,
        "dense {} vs case {}",
        dense.stats.case_condition_evals,
        case.stats.case_condition_evals
    );
}

/// Table 4 column (2): the subkey index removes the transient join build.
#[test]
fn subkey_index_removes_transient_build() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    let q = VpctQuery::single("sales", &["dept", "dweek"], "salesAmt", &["dweek"]);
    let with_idx = engine.vpct_with(&q, &VpctStrategy::best()).unwrap();
    let without = engine
        .vpct_with(&q, &VpctStrategy::without_index())
        .unwrap();
    assert!(
        without.stats.hash_build_rows > with_idx.stats.hash_build_rows,
        "without {} vs with {}",
        without.stats.hash_build_rows,
        with_idx.stats.hash_build_rows
    );
}

/// DMKD §3.6: exceeding the column limit errors, partitioning remedies it.
#[test]
fn wide_results_partition_under_column_limit() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    // dept × dweek = 700 columns > 512.
    let q = HorizontalQuery::hpct("sales", &["state"], "salesAmt", &["dept", "dweek"]);
    let strict = HorizontalOptions {
        max_columns: 512,
        ..HorizontalOptions::default()
    };
    assert!(matches!(
        engine.horizontal_with(&q, &strict),
        Err(CoreError::TooManyColumns { .. })
    ));
    let partitioned = HorizontalOptions {
        max_columns: 512,
        allow_partitioning: true,
        ..HorizontalOptions::default()
    };
    let result = engine.horizontal_with(&q, &partitioned).unwrap();
    assert!(result.partitions.len() >= 2);
    let mut total_cells = 0;
    for p in &result.partitions {
        let t = p.read();
        assert!(t.num_columns() <= 512);
        assert_eq!(t.schema().field_at(0).name, "state");
        total_cells += t.num_columns() - 1;
    }
    assert_eq!(total_cells, 700);
}

/// SIGMOD §3.1 (m > 1): the dimension lattice computes shared totals levels
/// once and re-aggregates nested levels from the smallest ancestor.
#[test]
fn lattice_saves_scans_on_multi_term_queries() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    let q = VpctQuery {
        table: "sales".into(),
        group_by: vec!["dept".into(), "dweek".into(), "monthNo".into()],
        terms: vec![
            percentage_aggregations::core::VpctTerm::new("salesAmt", &["monthNo"]),
            percentage_aggregations::core::VpctTerm::new("salesAmt", &["dweek", "monthNo"]),
            percentage_aggregations::core::VpctTerm::new("salesAmt", &["dept", "dweek", "monthNo"]),
        ],
        extra: vec![],
    };
    // Per-term evaluation: every Fj re-aggregates the 8400-row Fk.
    let per_term = engine.vpct_with(&q, &VpctStrategy::best()).unwrap();
    // Lattice: deeper levels re-aggregate the previous (smaller) level.
    let lattice = percentage_aggregations::core::eval_vpct_lattice_guarded(
        engine.catalog(),
        &q,
        "lat_",
        &ResourceGuard::unlimited(),
    )
    .unwrap();
    assert!(
        lattice.stats.rows_scanned < per_term.stats.rows_scanned,
        "lattice {} vs per-term {}",
        lattice.stats.rows_scanned,
        per_term.stats.rows_scanned
    );
    // Same answers.
    let a: Vec<Vec<Value>> = per_term.snapshot().sorted_by(&[0, 1, 2]).rows().collect();
    let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1, 2]).rows().collect();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        for (va, vb) in ra.iter().zip(rb) {
            let close = match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => (x - y).abs() < 1e-9 * (1.0 + x.abs()),
                _ => va == vb,
            };
            assert!(close, "{va} vs {vb}");
        }
    }
}

/// SIGMOD §6 (future work): a batch of queries over one shared summary
/// scans F once instead of once per query.
#[test]
fn batch_shares_the_fact_scan() {
    let catalog = sales_catalog(20_000);
    let engine = PercentageEngine::new(&catalog);
    // Related queries whose union grouping (state × dweek × monthNo = 420
    // cells) is far coarser than F — the case shared summaries exist for.
    let queries = vec![
        VpctQuery::single("sales", &["state", "dweek"], "salesAmt", &["dweek"]),
        VpctQuery::single("sales", &["state", "monthNo"], "salesAmt", &["monthNo"]),
        VpctQuery::single("sales", &["dweek", "monthNo"], "salesAmt", &["monthNo"]),
    ];
    let batch = engine.vpct_batch(&queries).unwrap();
    let batch_scanned: u64 = batch.iter().map(|r| r.stats.rows_scanned).sum();
    let solo_scanned: u64 = queries
        .iter()
        .map(|q| engine.vpct(q).unwrap().stats.rows_scanned)
        .sum();
    assert!(
        batch_scanned < solo_scanned / 2,
        "batch {batch_scanned} vs solo {solo_scanned}"
    );
    // And identical answers.
    for (q, r) in queries.iter().zip(&batch) {
        let solo = engine.vpct(q).unwrap();
        assert_eq!(solo.snapshot().num_rows(), r.snapshot().num_rows());
    }
}
