//! Replication catch-up bench: bootstrap image-ship vs full-history ship,
//! plus steady-state apply throughput.
//!
//! ```text
//! replication [--n ROWS] [--batch B] [--bursts K] [--iters I]
//!             [--gate MIN_SPEEDUP] [--out PATH]
//! ```
//!
//! A seeded workload of `--n` rows runs through the WAL on two identical
//! primaries. One retains its full frame history; the other checkpoints and
//! compacts, so a fresh replica must bootstrap from the image and replay
//! only the suffix. Both catch-up paths are timed to a caught-up replica,
//! best-of-`--iters`:
//!
//! * `full_ship`  — every WAL frame re-ships and re-applies on the replica;
//! * `image_ship` — the checkpoint image installs, then the LSN suffix.
//!
//! Then a steady-state phase measures apply throughput: `--bursts` write
//! bursts land on the primary and each syncs to an already-caught-up
//! replica, reporting records/s through replica apply. Both replicas are
//! verified byte-identical to their primary before timing is trusted.
//! Output: `results/BENCH_replication.json`; exits non-zero when the
//! image-bootstrap speedup falls below `--gate`.

use pa_bench::{catalog_retaining, time_ms};
use pa_storage::{
    Catalog, Change, CheckpointPolicy, DataType, DirectTransport, MemCheckpointStore,
    ReplicaApplier, ReplicationStream, Rows, Schema, Table, Value,
};
use std::fmt::Write as _;

struct Args {
    n: usize,
    batch: usize,
    bursts: usize,
    iters: usize,
    gate: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 1_000_000,
        batch: 1000,
        bursts: 20,
        iters: 3,
        gate: 1.0,
        out: "results/BENCH_replication.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_default();
        match a.as_str() {
            "--n" => args.n = next().parse().unwrap_or(args.n),
            "--batch" => args.batch = next().parse().unwrap_or(args.batch),
            "--bursts" => args.bursts = next().parse().unwrap_or(args.bursts),
            "--iters" => args.iters = next().parse().unwrap_or(args.iters),
            "--gate" => args.gate = next().parse().unwrap_or(args.gate),
            "--out" => args.out = next(),
            "--help" | "-h" => {
                println!(
                    "usage: replication [--n ROWS] [--batch B] [--bursts K] [--iters I] \
                     [--gate MIN_SPEEDUP] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.n == 0 || args.batch == 0 {
        eprintln!("--n and --batch must be positive");
        std::process::exit(2);
    }
    args
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A primary holding `n` seeded rows, its log sized to keep that history
/// and `bursts` more batches shippable from the first record.
fn build_primary(n: usize, batch: usize, bursts: usize, seed: u64) -> Catalog {
    let catalog = catalog_retaining(n + bursts * batch, n.div_ceil(batch) + bursts);
    let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    catalog.create_table("f", Table::empty(schema)).unwrap();
    let mut state = seed;
    let mut written = 0usize;
    while written < n {
        let rows = batch.min(n - written);
        append_batch(&catalog, rows, &mut state);
        written += rows;
    }
    catalog
}

/// One write batch of `rows` seeded rows: one catalog write, one WAL frame.
fn append_batch(catalog: &Catalog, rows: usize, state: &mut u64) {
    let batch: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let d = (lcg(state) % 1000) as i64;
            let a = (lcg(state) % 97) as f64;
            vec![Value::Int(d), Value::Float(a)]
        })
        .collect();
    catalog
        .write("f", Change::Append(Rows::Values(&batch)))
        .unwrap();
}

fn rows_of(catalog: &Catalog) -> usize {
    catalog.table("f").unwrap().read().num_rows()
}

/// Bring a fresh replica to caught-up against `primary`; returns the
/// replica row count as a liveness check for the caller's asserts.
fn catch_up(primary: &Catalog) -> usize {
    let replica = Catalog::new();
    let mut applier = ReplicaApplier::new();
    let mut stream = ReplicationStream::new(Box::new(DirectTransport));
    let report = stream.sync(primary, &replica, &mut applier).unwrap();
    assert!(report.caught_up, "{report:?}");
    rows_of(&replica)
}

fn best_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        best = best.min(time_ms(&mut f).0);
    }
    best
}

fn main() {
    let args = parse_args();
    println!(
        "replication bench — n={}, batch={}, {} steady-state bursts, best of {}",
        args.n, args.batch, args.bursts, args.iters
    );

    // Two primaries, identical seeded history. `compacted` checkpoints so
    // its shippable prefix is gone and catch-up must go through the image.
    let full = build_primary(args.n, args.batch, args.bursts.max(1), 0xC0FFEE);
    let compacted = build_primary(args.n, args.batch, 0, 0xC0FFEE);
    compacted.set_checkpoint_store(
        Box::new(MemCheckpointStore::new()),
        CheckpointPolicy::disabled(),
    );
    compacted.checkpoint_now().expect("checkpoint");
    assert!(
        compacted.with_wal(|w| w.ship_since(1)).unwrap().is_none(),
        "compaction must force the bootstrap path"
    );
    let frames = full.with_wal(|w| w.ship_since(1)).unwrap().unwrap().len();
    let live_rows = rows_of(&full);

    // Both paths must converge to the same state before timing counts.
    assert_eq!(catch_up(&full), live_rows, "full ship lost rows");
    assert_eq!(catch_up(&compacted), live_rows, "image ship lost rows");

    let full_ms = best_ms(args.iters, || {
        assert_eq!(catch_up(&full), live_rows);
    });
    let image_ms = best_ms(args.iters, || {
        assert_eq!(catch_up(&compacted), live_rows);
    });
    let speedup = full_ms / image_ms.max(1e-9);
    println!(
        "  bootstrap full ship  {full_ms:>9.1} ms  ({frames} frames)\n  \
         bootstrap image ship {image_ms:>9.1} ms  (image + suffix)\n  \
         speedup              {speedup:>9.1}x  (gate {:.1}x)",
        args.gate
    );

    // Steady state: a caught-up replica chases write bursts; measure the
    // replica apply's throughput (records/s through the replication stream).
    let replica = Catalog::new();
    let mut applier = ReplicaApplier::new();
    let mut stream = ReplicationStream::new(Box::new(DirectTransport));
    stream.sync(&full, &replica, &mut applier).unwrap();
    let burst_rows = args.batch.max(1);
    let mut state = 0xBEEF;
    let mut applied_records = 0u64;
    let mut sync_ms_total = 0.0f64;
    for _ in 0..args.bursts.max(1) {
        append_batch(&full, burst_rows, &mut state);
        let (ms, report) = time_ms(|| stream.sync(&full, &replica, &mut applier).unwrap());
        assert!(report.caught_up, "{report:?}");
        applied_records += report.applied_records;
        sync_ms_total += ms;
    }
    assert_eq!(rows_of(&replica), rows_of(&full), "steady state diverged");
    let steady_rows = (args.bursts.max(1) * burst_rows) as f64;
    let rows_per_s = steady_rows / (sync_ms_total / 1e3).max(1e-9);
    println!(
        "  steady state         {sync_ms_total:>9.1} ms for {} rows in {} bursts \
         ({rows_per_s:.0} rows/s, {applied_records} records)",
        steady_rows as u64,
        args.bursts.max(1),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"replication\",");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"batch\": {},", args.batch);
    let _ = writeln!(json, "  \"frames\": {frames},");
    let _ = writeln!(json, "  \"bootstrap_full_ms\": {full_ms:.3},");
    let _ = writeln!(json, "  \"bootstrap_image_ms\": {image_ms:.3},");
    let _ = writeln!(json, "  \"bootstrap_speedup\": {speedup:.2},");
    let _ = writeln!(json, "  \"steady_bursts\": {},", args.bursts.max(1));
    let _ = writeln!(json, "  \"steady_rows\": {},", steady_rows as u64);
    let _ = writeln!(json, "  \"steady_sync_ms\": {sync_ms_total:.3},");
    let _ = writeln!(json, "  \"steady_rows_per_s\": {rows_per_s:.0},");
    let _ = writeln!(json, "  \"gate\": {:.2},", args.gate);
    let _ = writeln!(json, "  \"pass\": {}", speedup >= args.gate);
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write output file");
    println!("\nwrote {}", args.out);

    if speedup < args.gate {
        eprintln!(
            "FAIL: image-bootstrap speedup {speedup:.2}x below the {:.2}x gate",
            args.gate
        );
        std::process::exit(1);
    }
}
