//! Ablations for the design choices DESIGN.md calls out:
//!
//! * synchronized scan vs two scans of `F` (SIGMOD §3.1);
//! * subkey index on vs off for the division join;
//! * O(N)-per-row CASE vs O(1) hash dispatch (SIGMOD §3.2 future work);
//! * WAL on vs off for the UPDATE materialization.

use criterion::{criterion_group, criterion_main, Criterion};
use pa_bench::install_all;
use pa_core::{
    HorizontalOptions, HorizontalQuery, ParallelConfig, PercentageEngine, VpctQuery, VpctStrategy,
};
use pa_storage::Catalog;
use pa_workload::Scale;

fn bench_ablations(c: &mut Criterion) {
    let catalog = Catalog::new();
    install_all(&catalog, Scale::SMOKE);
    let engine = PercentageEngine::new(&catalog);

    // Scan sharing.
    let q = VpctQuery::single("sales", &["monthNo", "dweek"], "salesAmt", &["dweek"]);
    {
        let mut group = c.benchmark_group("ablation/scan-sharing");
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        group.bench_function("two scans of F", |b| {
            b.iter(|| {
                engine
                    .vpct_with(&q, &VpctStrategy::fj_from_f())
                    .expect("bench")
            });
        });
        group.bench_function("synchronized scan", |b| {
            b.iter(|| {
                engine
                    .vpct_with(&q, &VpctStrategy::synchronized())
                    .expect("bench")
            });
        });
        group.finish();
    }

    // Subkey index.
    let q = VpctQuery::single(
        "sales",
        &["dept", "store", "dweek", "monthNo"],
        "salesAmt",
        &["dweek", "monthNo"],
    );
    {
        let mut group = c.benchmark_group("ablation/subkey-index");
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        group.bench_function("indexed", |b| {
            b.iter(|| engine.vpct_with(&q, &VpctStrategy::best()).expect("bench"));
        });
        group.bench_function("unindexed", |b| {
            b.iter(|| {
                engine
                    .vpct_with(&q, &VpctStrategy::without_index())
                    .expect("bench")
            });
        });
        group.finish();
    }

    // CASE chain vs hash dispatch at large N.
    let hq = HorizontalQuery::hpct("sales", &["dept"], "salesAmt", &["dweek", "monthNo"]);
    {
        let mut group = c.benchmark_group("ablation/case-dispatch");
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        let chain = HorizontalOptions {
            jump_table: false,
            ..HorizontalOptions::default()
        };
        group.bench_function("O(N) CASE chain", |b| {
            b.iter(|| engine.horizontal_with(&hq, &chain).expect("bench"));
        });
        // The pivot on the hash tier: an engine handed dense budget 0.
        let hash_tier = PercentageEngine::new(&catalog).with_config(ParallelConfig {
            dense_budget: 0,
            ..ParallelConfig::from_env()
        });
        let pivot = HorizontalOptions::default();
        group.bench_function("O(1) hash dispatch", |b| {
            b.iter(|| hash_tier.horizontal_with(&hq, &pivot).expect("bench"));
        });
        group.finish();
    }

    // WAL cost of the UPDATE materialization.
    let q = VpctQuery::single(
        "sales",
        &["dept", "store", "dweek", "monthNo"],
        "salesAmt",
        &["dweek", "monthNo"],
    );
    {
        let nowal = Catalog::without_wal();
        install_all(&nowal, Scale::SMOKE);
        let engine_nowal = PercentageEngine::new(&nowal);
        let mut group = c.benchmark_group("ablation/update-wal");
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(500));
        group.measurement_time(std::time::Duration::from_secs(2));
        group.bench_function("update with WAL", |b| {
            b.iter(|| {
                engine
                    .vpct_with(&q, &VpctStrategy::with_update())
                    .expect("bench")
            });
        });
        group.bench_function("update without WAL", |b| {
            b.iter(|| {
                engine_nowal
                    .vpct_with(&q, &VpctStrategy::with_update())
                    .expect("bench")
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
