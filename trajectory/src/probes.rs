//! Micro-probes: each times one public function of one crate on the
//! workload's own main table. They run in the traced run only, single
//! client, after the replay.

use crate::stats::median;
use crate::system::System;
use crate::workloads::{Kind, Plan};
use percentage_aggregations::engine::{
    filter, hash_aggregate_with_config, lattice_aggregate_with_config, partial_aggregate, AggFunc,
    AggSpec, BlockCoder, CmpOp, DenseKeySpace, ExecStats, Expr, LaneSrc, PBits, ParallelConfig,
    RawLane, ResourceGuard, ShardPartial, SystemClock, Tracer, BLOCK_ROWS, DEFAULT_DENSE_BUDGET,
};
use percentage_aggregations::service::QueryService;
use percentage_aggregations::storage::{
    wal::{crc32, DEFAULT_CAPACITY},
    Catalog, CheckpointPolicy, MemCheckpointStore, MemLogStore, Table, Value,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Median milliseconds of `reps` calls.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v).expect("at least one call")
}

/// The table a workload's probes read, and the dimensions they group by
/// (finest first).
fn probe_target(plan: &Plan) -> (&'static str, Vec<&'static str>) {
    match plan.kind {
        Kind::Scan => ("f7", vec!["store", "day"]),
        Kind::Small => ("s00", vec!["store", "day"]),
        Kind::Holistic => ("h", vec!["store", "day"]),
        Kind::Cube => ("c", vec!["store", "day", "region", "month"]),
        Kind::Ingest => ("g", vec!["store", "day", "region", "month"]),
    }
}

#[derive(Debug, Clone, Default)]
struct SharedImage(Arc<Mutex<Vec<u8>>>);

impl percentage_aggregations::storage::CheckpointStore for SharedImage {
    fn save(&mut self, frame: &[u8]) -> percentage_aggregations::storage::Result<()> {
        *self.0.lock().expect("image lock") = frame.to_vec();
        Ok(())
    }
    fn read_raw(&mut self) -> percentage_aggregations::storage::Result<Vec<u8>> {
        Ok(self.0.lock().expect("image lock").clone())
    }
}

pub fn engine_probes(
    plan: &Plan,
    system: &System,
    sum_ns_per_row: f64,
    out: &mut BTreeMap<String, f64>,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (name, dims) = probe_target(plan);
    let shared = system.catalog.table(name).expect("probe table exists");
    let t: Table = shared.read().clone();
    let n = t.num_rows();
    let reps = if n > 200_000 { 5 } else { 15 };
    let cols: Vec<usize> = dims
        .iter()
        .map(|d| t.schema().index_of(d).expect("dimension exists"))
        .collect();
    let amt = t.schema().index_of("amt").expect("measure exists");
    let sum = || vec![AggSpec::new(AggFunc::Sum, Expr::Col(amt), "s")];
    let guard = ResourceGuard::counting();
    let one = ParallelConfig::with_threads(1);
    let all = ParallelConfig::with_threads(nproc);
    let aggregate = |cfg: &ParallelConfig, specs: &[AggSpec]| {
        let mut stats = ExecStats::default();
        black_box(
            hash_aggregate_with_config(&t, &cols[..2], specs, &guard, &mut stats, cfg)
                .expect("aggregate probe"),
        );
    };

    let agg_all = median_ms(reps, || aggregate(&all, &sum()));
    let agg_one = median_ms(reps, || aggregate(&one, &sum()));
    out.insert("engine.aggregate_ms".into(), agg_all);
    out.insert("engine.thread_speedup".into(), agg_one / agg_all);
    out.insert(
        "engine.kernel_vs_sum".into(),
        agg_one * 1e6 / (n as f64 * sum_ns_per_row),
    );
    // The same aggregation with the dense path switched off: the wide /
    // hash tier every group space past the dense budget falls into.
    let wide = ParallelConfig {
        dense_budget: 0,
        ..all
    };
    out.insert(
        "engine.aggregate_wide_ms".into(),
        median_ms(reps, || aggregate(&wide, &sum())),
    );

    // Cold fused lattice: every prefix level of the dimensions in one scan.
    let levels: Vec<Vec<usize>> = (1..=cols.len()).rev().map(|k| (0..k).collect()).collect();
    out.insert(
        "engine.lattice_ms".into(),
        median_ms(reps, || {
            let mut stats = ExecStats::default();
            black_box(
                lattice_aggregate_with_config(&t, &cols, &sum(), &levels, &guard, &mut stats, &all)
                    .expect("lattice probe"),
            );
        }),
    );

    // The partial-aggregate protocol on a bounded slice (it is a
    // row-at-a-time loop; the whole table would dominate the run).
    let slice_rows: Vec<usize> = (0..n.min(100_000)).collect();
    let slice = t.take(&slice_rows);
    let mut partial = None;
    let partial_ms = median_ms(5, || {
        let mut stats = ExecStats::default();
        partial =
            Some(partial_aggregate(&slice, &cols, &sum(), &mut stats).expect("partial probe"));
    });
    out.insert(
        "engine.partial_ms".into(),
        partial_ms * n as f64 / slice.num_rows().max(1) as f64,
    );
    let partial: ShardPartial = partial.expect("ran at least once");
    let mut wire = Vec::new();
    out.insert(
        "engine.partial_serialize_us".into(),
        median_ms(15, || wire = partial.serialize()) * 1e3,
    );
    out.insert(
        "engine.partial_merge_us".into(),
        median_ms(15, || {
            let mut a = ShardPartial::deserialize(&wire).expect("decodes");
            let b = ShardPartial::deserialize(&wire).expect("decodes");
            a.merge(b).expect("merges");
            black_box(a);
        }) * 1e3,
    );

    let pred = Expr::Cmp(
        CmpOp::Ge,
        Box::new(Expr::Col(amt)),
        Box::new(Expr::lit(100)),
    );
    out.insert(
        "engine.filter_ms".into(),
        median_ms(reps, || {
            black_box(filter(&t, &pred, &mut ExecStats::default()).expect("filter probe"));
        }),
    );

    // Block coder fill and raw-lane scatter over the two leading dimensions.
    if let Some(space) = DenseKeySpace::try_build(&t, &cols[..2], DEFAULT_DENSE_BUDGET) {
        if let (Some(coder), Some(src)) = (
            BlockCoder::try_new(&t, &space),
            LaneSrc::for_column(t.column(amt)),
        ) {
            let blocks = n / BLOCK_ROWS;
            let mut codes = vec![0u32; BLOCK_ROWS];
            let fill = median_ms(reps, || {
                for b in 0..blocks {
                    coder.fill(b * BLOCK_ROWS, &mut codes);
                    black_box(&codes);
                }
            });
            let mut lane = RawLane::default();
            lane.ensure(space.size());
            let both = median_ms(reps, || {
                for b in 0..blocks {
                    let start = b * BLOCK_ROWS;
                    coder.fill(start, &mut codes);
                    lane.scatter(&src, start..start + BLOCK_ROWS, &codes);
                }
                black_box(lane.pair(0));
            });
            let rows = (blocks * BLOCK_ROWS).max(1) as f64;
            out.insert("engine.block_fill_ns_per_row".into(), fill * 1e6 / rows);
            out.insert(
                "engine.scatter_ns_per_row".into(),
                (both - fill).max(0.0) * 1e6 / rows,
            );
        }
    }

    // One exact-percentile lane against one sum lane, per row.
    let hol_rows: Vec<usize> = (0..n.min(200_000)).collect();
    let hol = t.take(&hol_rows);
    let lane_ms = |func: AggFunc| {
        median_ms(5, || {
            let mut stats = ExecStats::default();
            black_box(
                hash_aggregate_with_config(
                    &hol,
                    &cols[..1],
                    &[AggSpec::new(func, Expr::Col(amt), "x")],
                    &guard,
                    &mut stats,
                    &all,
                )
                .expect("holistic probe"),
            );
        })
    };
    let holistic = lane_ms(AggFunc::Percentile(PBits::new(0.5)));
    let plain = lane_ms(AggFunc::Sum);
    out.insert(
        "engine.holistic_ns_per_row".into(),
        (holistic - plain).max(0.0) * 1e6 / hol.num_rows().max(1) as f64,
    );

    // The program's tracer: one span opened and closed.
    let tracer = Tracer::enabled(SystemClock::shared());
    let _root = tracer.span("probe");
    let spans = 10_000;
    let ms = median_ms(5, || {
        for _ in 0..spans {
            tracer.span("probe").finish();
        }
        black_box(tracer.take_report());
    });
    out.insert("obs.span_ns".into(), ms * 1e6 / spans as f64);
}

/// Write-path probes on a private copy of the main table, a checkpoint of
/// the whole catalog and its recovery, and a log replayed on its own.
pub fn storage_probes(
    plan: &Plan,
    system: &System,
    svc: &QueryService<'_>,
    out: &mut BTreeMap<String, f64>,
) {
    let catalog = &system.catalog;
    let (name, _) = probe_target(plan);
    const COPY: &str = "trj_probe_copy";
    let copy = catalog
        .table(name)
        .expect("probe table exists")
        .read()
        .clone();
    let row_bytes = (copy.num_columns() * 8) as f64;
    catalog.create_or_replace_table(COPY, copy);
    let engine = svc.engine();
    // A write batch: the table's own leading rows, appended again.
    let batch: Vec<Vec<Value>> = {
        let t = catalog.table(COPY).expect("copy exists");
        let t = t.read();
        (0..plan.batch_rows.min(t.num_rows()))
            .map(|r| t.row(r).expect("row in range"))
            .collect()
    };

    // Append with nothing pinned, then with a reader's snapshot alive
    // (the first write after a pin detaches every column: copy-on-write).
    let mut plain = Vec::new();
    let mut after_pin = Vec::new();
    let mut wal_bytes = 0u64;
    let mut user_bytes = 0.0;
    for _ in 0..7 {
        let w0 = catalog.wal_stats().bytes_written;
        let t0 = Instant::now();
        engine.append_rows(COPY, &batch).expect("probe append");
        plain.push(t0.elapsed().as_secs_f64() * 1e3);
        wal_bytes += catalog.wal_stats().bytes_written - w0;
        user_bytes += batch.len() as f64 * row_bytes;

        let view = catalog.pin_table(COPY).expect("copy exists");
        let t0 = Instant::now();
        engine.append_rows(COPY, &batch).expect("probe append");
        after_pin.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(view);
    }
    plain.sort_by(f64::total_cmp);
    after_pin.sort_by(f64::total_cmp);
    out.insert("storage.append_ms".into(), plain[plain.len() / 2]);
    out.insert(
        "storage.append_after_pin_ms".into(),
        after_pin[after_pin.len() / 2],
    );
    out.insert(
        "storage.wal_bytes_per_append_byte".into(),
        wal_bytes as f64 / user_bytes.max(1.0),
    );

    // Checkpoint the whole catalog and recover from the image alone. On
    // `ingest` the catalog's own (file) store stays in place; elsewhere an
    // in-memory store is attached for this.
    let image = SharedImage::default();
    let durable = system.durable.as_ref();
    if durable.is_none() {
        catalog.set_checkpoint_store(Box::new(image.clone()), CheckpointPolicy::disabled());
    }
    let mut ckpt_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        catalog.checkpoint_now().expect("probe checkpoint");
        ckpt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    ckpt_ms.sort_by(f64::total_cmp);
    out.insert("storage.checkpoint_ms".into(), ckpt_ms[1]);
    let image_bytes = match durable {
        Some(d) => d
            .checkpoints
            .lock()
            .expect("checkpoint-log lock")
            .image
            .clone(),
        None => image.0.lock().expect("image lock").clone(),
    };
    out.insert("storage.checkpoint_bytes".into(), image_bytes.len() as f64);
    let image_ms = median_ms(3, || {
        let (c, report) = Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::new()),
            Box::new(MemCheckpointStore::from_bytes(image_bytes.clone())),
            DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
        .expect("probe recovery");
        assert!(report.checkpoint_error.is_none(), "{report:?}");
        black_box(c);
    });
    out.insert("storage.recover_image_ms".into(), image_ms);
    let _ = catalog.drop_table(COPY);

    // Replay alone: a log holding one table's creation and twenty write
    // batches, recovered without an image.
    let log = {
        let private = Catalog::new();
        let schema = catalog
            .table(name)
            .expect("probe table exists")
            .read()
            .schema()
            .clone();
        private
            .create_table(COPY, Table::empty(schema))
            .expect("fresh catalog");
        let writer = percentage_aggregations::core::PercentageEngine::new(&private);
        for _ in 0..20 {
            writer.append_rows(COPY, &batch).expect("probe append");
        }
        private
            .with_wal(|w| w.snapshot())
            .expect("in-memory log reads")
    };
    out.insert(
        "storage.recover_replay_ms".into(),
        median_ms(5, || {
            let (c, report) =
                Catalog::recover(Box::new(MemLogStore::from_bytes(log.clone()))).expect("replay");
            assert_eq!(report.records_replayed, 21, "{report:?}");
            black_box(c);
        }),
    );

    let buf = vec![0xa5u8; 16 << 20];
    let ms = median_ms(5, || {
        black_box(crc32(black_box(&buf)));
    });
    out.insert(
        "storage.crc32_gb_per_s".into(),
        buf.len() as f64 / 1e9 / (ms / 1e3),
    );
}
