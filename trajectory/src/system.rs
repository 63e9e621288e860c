//! Set-up: generate a workload's tables and load them into a catalog the
//! way a deployment would — `Catalog::new()` for the read workloads, a
//! file-backed WAL plus checkpoint store for `ingest`.

use crate::crash::{CheckpointLog, CrashCheckpoints, CrashLog, Flushed};
use crate::workloads::{build, Kind, Plan, Sizes};
use percentage_aggregations::service::ServiceConfig;
use percentage_aggregations::storage::{
    wal::DEFAULT_CAPACITY, Catalog, CheckpointPolicy, FileCheckpointStore, FileLogStore, Wal,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The on-disk half of an `ingest` system. Dropping it removes the files.
#[derive(Debug)]
pub struct Durable {
    dir: PathBuf,
    pub flushed: Flushed,
    pub checkpoints: Arc<Mutex<CheckpointLog>>,
}

impl Drop for Durable {
    fn drop(&mut self) {
        // Scratch files of a finished run; nothing to report if they are
        // already gone.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Debug)]
pub struct System {
    pub catalog: Catalog,
    pub durable: Option<Durable>,
    /// Seconds spent generating rows, and rows generated.
    pub gen_s: f64,
    pub gen_rows: usize,
}

/// WAL bytes between automatic checkpoints on `ingest`, per second of
/// measurement. The log grows by ~3 MB/s here (0.5 MB/s of batches, the
/// rest the readers' temporaries), so this cuts eight or so checkpoints in
/// a run of any length — comfortably the five the workload promises.
const CHECKPOINT_BYTES_PER_SECOND: u64 = 360_000;

pub fn checkpoint_policy(seconds: f64, batch_rows: usize) -> CheckpointPolicy {
    // Scaled with the batch so `--check`'s small batches still checkpoint.
    let scale = batch_rows as f64 / 1000.0;
    let bytes = CHECKPOINT_BYTES_PER_SECOND as f64 * seconds.max(1.0) * scale;
    CheckpointPolicy::every_bytes(bytes as u64)
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

pub fn service_config(nproc: usize) -> ServiceConfig {
    ServiceConfig {
        max_concurrent: nproc,
        ..ServiceConfig::default()
    }
}

/// Generate and load `kind`'s tables. `scratch` holds `ingest`'s files.
pub fn setup(
    kind: Kind,
    seed: u64,
    sizes: &Sizes,
    nproc: usize,
    seconds: f64,
    scratch: &Path,
) -> Result<(Plan, System), String> {
    let t0 = Instant::now();
    let plan = build(kind, seed, sizes, nproc);
    let gen_s = t0.elapsed().as_secs_f64();
    let gen_rows = plan.tables.iter().map(|t| t.rows()).sum();

    let (catalog, durable) = if kind == Kind::Ingest {
        let dir = scratch.join(format!(
            "ingest-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = FileLogStore::open(dir.join("wal.log")).map_err(|e| e.to_string())?;
        let (log, flushed) = CrashLog::new(log);
        let ckpt = FileCheckpointStore::open(&dir, "checkpoint").map_err(|e| e.to_string())?;
        let (ckpt, checkpoints) = CrashCheckpoints::new(ckpt);
        let catalog = Catalog::from_wal(Wal::with_store(Box::new(log), DEFAULT_CAPACITY));
        let durable = Durable {
            dir,
            flushed,
            checkpoints,
        };
        (catalog, Some((durable, ckpt)))
    } else {
        (Catalog::new(), None)
    };
    for t in &plan.tables {
        catalog
            .create_table(t.name.clone(), t.to_table())
            .map_err(|e| format!("create table {}: {e}", t.name))?;
    }
    // Checkpoint once after the bulk load, as a deployment would: the run
    // then starts from an image plus an empty log, and the cut policy
    // counts WAL traffic from here.
    let durable = match durable {
        Some((durable, ckpt)) => {
            catalog
                .set_checkpoint_store(Box::new(ckpt), checkpoint_policy(seconds, plan.batch_rows));
            catalog
                .checkpoint_now()
                .map_err(|e| format!("checkpoint after load: {e}"))?;
            Some(durable)
        }
        None => None,
    };
    Ok((
        plan,
        System {
            catalog,
            durable,
            gen_s,
            gen_rows,
        },
    ))
}
