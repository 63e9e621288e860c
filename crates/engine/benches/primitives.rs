//! Microbenchmarks for the physical operators underneath every percentage
//! plan: hash aggregation (single and synchronized multi-level), the join
//! lookup with and without a prebuilt index, DISTINCT, the window operator, and
//! CASE-expression evaluation — the per-row costs whose ratios drive the
//! strategy comparisons — plus the sketch kernels the holistic lanes run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pa_engine::{
    distinct, hash_aggregate, hash_aggregate_with_config, lookup, multi_hash_aggregate,
    window_aggregate, AggFunc, AggSpec, ExecStats, Expr, PBits, ParallelConfig, ResourceGuard,
    TDigest,
};
use pa_storage::{DataType, HashIndex, Schema, Table, Value};
use std::borrow::Cow;

fn fact_table(n: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
        ("id", DataType::Int),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, n);
    // Deterministic pseudo-random contents without pulling in rand here.
    let mut x: u64 = 0x9e3779b97f4a7c15;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t.push_row(&[
            Value::Int((x % 100) as i64),
            Value::Int(((x >> 8) % 7) as i64),
            Value::Float(((x >> 16) % 1000) as f64 / 10.0),
            // xorshift never repeats a state: every row distinct.
            Value::Int(x as i64),
        ])
        .unwrap();
    }
    t
}

fn bench_primitives(c: &mut Criterion) {
    const N: usize = 100_000;
    let f = fact_table(N);
    let sum_a = AggSpec::new(AggFunc::Sum, Expr::col(f.schema(), "a").unwrap(), "s");

    c.bench_with_input(BenchmarkId::new("aggregate/group-by-2", N), &N, |b, _| {
        b.iter(|| {
            hash_aggregate(
                &f,
                &[0, 1],
                std::slice::from_ref(&sum_a),
                &mut ExecStats::default(),
            )
            .unwrap()
        });
    });

    c.bench_with_input(
        BenchmarkId::new("aggregate/synchronized-2-levels", N),
        &N,
        |b, _| {
            b.iter(|| {
                multi_hash_aggregate(
                    &f,
                    &[
                        (vec![0, 1], vec![sum_a.clone()]),
                        (vec![0], vec![sum_a.clone()]),
                    ],
                    &mut ExecStats::default(),
                )
                .unwrap()
            });
        },
    );

    // Look a 700-group Fk up in a 100-group Fj: its `parent` vector.
    let fk = hash_aggregate(
        &f,
        &[0, 1],
        std::slice::from_ref(&sum_a),
        &mut ExecStats::default(),
    )
    .unwrap();
    let fj = hash_aggregate(
        &f,
        &[0],
        std::slice::from_ref(&sum_a),
        &mut ExecStats::default(),
    )
    .unwrap();
    let guard = ResourceGuard::unlimited();
    c.bench_function("lookup/unindexed", |b| {
        b.iter(|| {
            let index = Cow::Owned(HashIndex::build(&fj, &[0]).unwrap());
            lookup(&fk, &[0], index, false, &guard, &mut ExecStats::default()).unwrap()
        });
    });
    let idx = HashIndex::build(&fj, &[0]).unwrap();
    c.bench_function("lookup/prebuilt-index", |b| {
        b.iter(|| {
            let index = Cow::Borrowed(&idx);
            lookup(&fk, &[0], index, false, &guard, &mut ExecStats::default()).unwrap()
        });
    });

    c.bench_function("distinct/2-columns", |b| {
        let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        let mut stats = ExecStats::default();
        b.iter(|| distinct((&f).into(), &[0, 1], &guard, &mut stats, &config).unwrap());
    });

    c.bench_function("window/sum-over-partition", |b| {
        b.iter(|| {
            window_aggregate(
                &f,
                &[0],
                AggFunc::Sum,
                2,
                "w",
                &mut ExecStats::default(),
                &ParallelConfig::serial(),
            )
            .unwrap()
        });
    });

    // The N-condition CASE chain at the heart of the horizontal strategies.
    let case_specs: Vec<AggSpec> = (0..7)
        .map(|i| {
            AggSpec::new(
                AggFunc::Sum,
                Expr::Case {
                    branches: vec![(
                        Expr::key_match(&[(1, Value::Int(i))]),
                        Expr::col(f.schema(), "a").unwrap(),
                    )],
                    else_value: None,
                },
                format!("c{i}"),
            )
        })
        .collect();
    c.bench_function("aggregate/7-case-cells", |b| {
        b.iter(|| hash_aggregate(&f, &[0], &case_specs, &mut ExecStats::default()).unwrap());
    });
}

/// The holistic lanes' own kernels: t-digest updates (one long stream, and
/// `holistic`'s 707 store × day groups of ~141 samples, each read once),
/// the two percentile functions' lane, and the HLL lane's insert, grouped
/// by `g`, over a 7-value column and an all-distinct one.
fn bench_sketches(c: &mut Criterion) {
    const N: usize = 100_000;
    let f = fact_table(N);
    let samples: Vec<f64> = (0..N)
        .map(|row| f.column(2).get_f64(row).unwrap())
        .collect();

    c.bench_function("sketch/tdigest-update/1x100k", |b| {
        b.iter(|| {
            let mut d = TDigest::new();
            samples.iter().for_each(|&x| d.update(x));
            d.quantile(0.5)
        });
    });
    c.bench_function("sketch/tdigest-update-quantile/707x141", |b| {
        b.iter(|| {
            let groups = samples.chunks(141).take(707);
            let quantile = |group: &[f64]| {
                let mut d = TDigest::new();
                group.iter().for_each(|&x| d.update(x));
                d.quantile(0.5).unwrap()
            };
            groups.map(quantile).sum::<f64>()
        });
    });

    // `approx_percentile` priced against `percentile` in the same run: one
    // lane over 100k rows in 101 groups of ~990 samples (`holistic`'s
    // `GROUP BY store`), scan and finish included.
    let mut by_store = Table::with_capacity(
        Schema::from_pairs(&[("store", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared(),
        N,
    );
    for row in 0..N {
        let store = f.get(row, 3).as_i64().unwrap().rem_euclid(101);
        by_store
            .push_row(&[Value::Int(store), f.get(row, 2)])
            .unwrap();
    }
    let p25 = PBits::new(0.25);
    for (name, func) in [
        ("exact", AggFunc::Percentile(p25)),
        ("approx", AggFunc::ApproxPercentile(p25)),
    ] {
        let lane = [AggSpec::new(func, Expr::Col(1), "p")];
        let config = ParallelConfig::serial();
        c.bench_function(format!("sketch/percentile-lane/{name}/101x990"), |b| {
            let (guard, mut stats) = (ResourceGuard::unlimited(), ExecStats::default());
            b.iter(|| {
                hash_aggregate_with_config(&by_store, &[0], &lane, &guard, &mut stats, &config)
            });
        });
    }

    let distinct = |col| {
        let input = Expr::col(f.schema(), col).unwrap();
        [AggSpec::new(AggFunc::ApproxCountDistinct, input, "n")]
    };
    let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
    for (name, col) in [("7-values", "d"), ("all-distinct", "id")] {
        let lane = distinct(col);
        c.bench_function(format!("sketch/hll-lane/{name}"), |b| {
            let mut stats = ExecStats::default();
            b.iter(|| hash_aggregate_with_config(&f, &[0], &lane, &guard, &mut stats, &config));
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_primitives, bench_sketches
}
criterion_main!(benches);
