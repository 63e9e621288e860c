//! Recovery-time bench: replay-from-zero vs checkpoint + suffix replay.
//!
//! ```text
//! recovery [--n ROWS] [--batch B] [--ckpt-frac F] [--iters K]
//!          [--gate MIN_SPEEDUP] [--out PATH]
//! ```
//!
//! A seeded append/update workload of `--n` rows runs through the WAL in
//! `--batch`-row bulk inserts (one record each) with a per-row update per
//! batch. At `--ckpt-frac` of the traffic a checkpoint is cut (image saved,
//! WAL compacted); the rest of the workload becomes the suffix. Both disk
//! states are then recovered, in memory, best-of-`--iters`:
//!
//! * `full` — no checkpoint: the entire record history replays;
//! * `checkpoint` — the image installs and only the suffix replays.
//!
//! The two recovered catalogs are verified identical before timing is
//! trusted. Output: `results/BENCH_recovery.json`; exits non-zero when the
//! measured speedup falls below `--gate` (the ci.sh regression gate).

use pa_bench::{catalog_retaining, time_ms};
use pa_storage::log::MemLogStore;
use pa_storage::{
    Catalog, CheckpointPolicy, CheckpointStore, DataType, MemCheckpointStore, Schema, Table, Value,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Checkpoint slot the bench can read back after `checkpoint_now`.
#[derive(Debug, Clone, Default)]
struct SharedCkptStore(Arc<Mutex<Vec<u8>>>);

impl CheckpointStore for SharedCkptStore {
    fn save(&mut self, frame: &[u8]) -> pa_storage::Result<()> {
        *self.0.lock().unwrap() = frame.to_vec();
        Ok(())
    }

    fn read_raw(&mut self) -> pa_storage::Result<Vec<u8>> {
        Ok(self.0.lock().unwrap().clone())
    }
}

struct Args {
    n: usize,
    batch: usize,
    ckpt_frac: f64,
    iters: usize,
    gate: f64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 1_000_000,
        batch: 100,
        ckpt_frac: 0.9,
        iters: 3,
        gate: 5.0,
        out: "results/BENCH_recovery.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_default();
        match a.as_str() {
            "--n" => args.n = next().parse().unwrap_or(args.n),
            "--batch" => args.batch = next().parse().unwrap_or(args.batch),
            "--ckpt-frac" => args.ckpt_frac = next().parse().unwrap_or(args.ckpt_frac),
            "--iters" => args.iters = next().parse().unwrap_or(args.iters),
            "--gate" => args.gate = next().parse().unwrap_or(args.gate),
            "--out" => args.out = next(),
            "--help" | "-h" => {
                println!(
                    "usage: recovery [--n ROWS] [--batch B] [--ckpt-frac F] [--iters K] \
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
    if args.n == 0 || args.batch == 0 || !(0.0..1.0).contains(&args.ckpt_frac) {
        eprintln!("--n and --batch must be positive, --ckpt-frac in [0, 1)");
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

/// One logged update record per `UPDATES_PER_BATCH` appended rows: the
/// paper's INSERT/UPDATE asymmetry (Table 4) puts per-row update records,
/// not bulk batches, at the center of replay cost.
const UPDATES_PER_BATCH: usize = 8;

/// Append `rows` seeded rows as one logged bulk-insert batch, then touch
/// [`UPDATES_PER_BATCH`] rows with logged per-row updates (the WAL's
/// expensive record kind).
fn one_batch(catalog: &Catalog, rows: usize, state: &mut u64) {
    let shared = catalog.table("f").unwrap();
    let mut t = shared.write();
    let start = t.num_rows();
    for _ in 0..rows {
        let d = (lcg(state) % 1000) as i64;
        let a = (lcg(state) % 97) as f64;
        t.push_row(&[Value::Int(d), Value::Float(a)]).unwrap();
    }
    catalog
        .with_wal_mutating("f", |w| w.log_bulk_insert("f", &t, start))
        .unwrap();
    for _ in 0..UPDATES_PER_BATCH {
        let row = (lcg(state) as usize) % t.num_rows();
        let before = vec![t.column(1).get(row)];
        let after = vec![Value::Float((lcg(state) % 7) as f64)];
        t.column_mut(1).set(row, after[0].clone()).unwrap();
        catalog
            .with_wal_mutating("f", |w| w.log_update("f", row, &[1], &before, &after))
            .unwrap();
    }
}

fn state_rows(catalog: &Catalog) -> usize {
    catalog.table("f").unwrap().read().num_rows()
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
        "recovery bench — n={}, batch={}, checkpoint at {:.0}% of traffic, best of {}",
        args.n,
        args.batch,
        args.ckpt_frac * 100.0,
        args.iters
    );

    // Run the workload once, cutting the checkpoint mid-stream. The WAL
    // prefix is captured just before the cut (compaction discards it from
    // the live store), so `prefix ++ suffix` is the full no-checkpoint log.
    let store = SharedCkptStore::default();
    let batches = args.n.div_ceil(args.batch);
    let catalog = catalog_retaining(args.n, batches);
    let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    catalog.create_table("f", Table::empty(schema)).unwrap();
    catalog.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::disabled());

    let cut_at = ((batches as f64) * args.ckpt_frac) as usize;
    let mut state = 0xC0FFEE;
    let mut prefix = Vec::new();
    for b in 0..batches {
        one_batch(
            &catalog,
            args.batch.min(args.n - b * args.batch),
            &mut state,
        );
        if b + 1 == cut_at {
            prefix = catalog.with_wal(|w| w.snapshot()).unwrap();
            catalog.checkpoint_now().expect("checkpoint");
        }
    }
    let suffix = catalog.with_wal(|w| w.snapshot()).unwrap();
    let ckpt_bytes = store.0.lock().unwrap().clone();
    let mut full = prefix;
    full.extend_from_slice(&suffix);
    println!(
        "  wal: {:.1} MB full, {:.1} MB suffix; image: {:.1} MB",
        full.len() as f64 / 1e6,
        suffix.len() as f64 / 1e6,
        ckpt_bytes.len() as f64 / 1e6
    );

    // Both recoveries must reproduce the live catalog before timing counts.
    let live_rows = state_rows(&catalog);
    let (rec_full, rep_full) =
        Catalog::recover(Box::new(MemLogStore::from_bytes(full.clone()))).expect("full recovery");
    let (rec_ckpt, rep_ckpt) = Catalog::recover_with_checkpoint(
        Box::new(MemLogStore::from_bytes(suffix.clone())),
        Box::new(MemCheckpointStore::from_bytes(ckpt_bytes.clone())),
        pa_storage::wal::DEFAULT_CAPACITY,
        CheckpointPolicy::disabled(),
    )
    .expect("checkpoint recovery");
    assert!(rep_full.corruption.is_none() && rep_ckpt.corruption.is_none());
    assert!(rep_ckpt.checkpoint_error.is_none(), "{rep_ckpt:?}");
    assert_eq!(state_rows(&rec_full), live_rows, "full replay lost rows");
    assert_eq!(state_rows(&rec_ckpt), live_rows, "image + suffix lost rows");
    let records_full = rep_full.records_replayed + rep_full.records_skipped;
    let records_suffix = rep_ckpt.records_replayed;

    let full_ms = best_ms(args.iters, || {
        let (c, _) = Catalog::recover(Box::new(MemLogStore::from_bytes(full.clone()))).unwrap();
        assert_eq!(state_rows(&c), live_rows);
    });
    let ckpt_ms = best_ms(args.iters, || {
        let (c, _) = Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::from_bytes(suffix.clone())),
            Box::new(MemCheckpointStore::from_bytes(ckpt_bytes.clone())),
            pa_storage::wal::DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        assert_eq!(state_rows(&c), live_rows);
    });
    let speedup = full_ms / ckpt_ms.max(1e-9);
    println!(
        "  full replay       {full_ms:>9.1} ms  ({records_full} records)\n  \
         checkpoint+suffix {ckpt_ms:>9.1} ms  ({records_suffix} records past LSN {})\n  \
         speedup           {speedup:>9.1}x  (gate {:.1}x)",
        rep_ckpt.checkpoint_lsn, args.gate
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"recovery\",");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"batch\": {},", args.batch);
    let _ = writeln!(json, "  \"ckpt_frac\": {},", args.ckpt_frac);
    let _ = writeln!(json, "  \"records_full\": {records_full},");
    let _ = writeln!(json, "  \"records_suffix\": {records_suffix},");
    let _ = writeln!(json, "  \"checkpoint_lsn\": {},", rep_ckpt.checkpoint_lsn);
    let _ = writeln!(json, "  \"full_replay_ms\": {full_ms:.3},");
    let _ = writeln!(json, "  \"checkpoint_ms\": {ckpt_ms:.3},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.2},");
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
            "FAIL: recovery speedup {speedup:.2}x below the {:.2}x gate",
            args.gate
        );
        std::process::exit(1);
    }
}
