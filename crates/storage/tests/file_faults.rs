//! Seeded fault coverage for the *file-backed* stores.
//!
//! The in-memory stores get chaos coverage everywhere; these tests route
//! `FileLogStore` and the checkpoint stores through the same
//! [`FaultInjector`] so torn writes, failed fsyncs, and bit rot are
//! exercised against real files — the paths production would hit.

use pa_storage::{
    scan_checkpoints, Catalog, Change, CheckpointPolicy, CheckpointStore, FaultInjector, FaultPlan,
    FileCheckpointStore, FileLogStore, LogCheckpointStore, LogStore, MemCheckpointStore, Rows,
    Schema, StorageError, Table, Value,
};
use std::path::PathBuf;

/// A unique on-disk path per test (no tempfile crate in the sanctioned
/// dependency set).
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pa-file-faults-{tag}-{}", std::process::id()))
}

fn seeded_catalog_on(store: Box<dyn LogStore>, rows: usize) -> Catalog {
    let wal = pa_storage::Wal::with_store(store, 64 << 20);
    let catalog = Catalog::from_wal(wal);
    let schema = pa_storage::Schema::from_pairs(&[
        ("d", pa_storage::DataType::Int),
        ("a", pa_storage::DataType::Float),
    ])
    .unwrap()
    .into_shared();
    catalog.create_table("f", Table::empty(schema)).unwrap();
    for i in 0..rows {
        let row = [vec![Value::Int(i as i64 % 5), Value::Float(i as f64)]];
        catalog
            .write("f", Change::Append(Rows::Values(&row)))
            .unwrap();
    }
    catalog
}

#[test]
fn torn_file_write_recovers_the_persisted_prefix() {
    let path = temp_path("torn-log");
    let _ = std::fs::remove_file(&path);
    // Write through a fault injector that tears the log mid-frame at a
    // seeded offset, then recover from the *file* as a crashed process
    // would and check the prefix survived intact.
    let seed = 0xF11E_u64;
    let plan = FaultPlan::seeded_torn_write(seed, 4096);
    let cut = plan.torn_write_at.unwrap();
    {
        let store = FileLogStore::open(&path).unwrap();
        let injector = FaultInjector::from_seed_plan(store, seed, plan);
        let wal = pa_storage::Wal::with_store(Box::new(injector), 64 << 20);
        let catalog = Catalog::from_wal(wal);
        let schema = Schema::from_pairs(&[("d", pa_storage::DataType::Int)])
            .unwrap()
            .into_shared();
        if catalog.create_table("f", Table::empty(schema)).is_ok() {
            for i in 0..200i64 {
                let row = [vec![Value::Int(i)]];
                if catalog
                    .write("f", Change::Append(Rows::Values(&row)))
                    .is_err()
                {
                    break; // the device died at the cut, as planned
                }
            }
        }
        // Drop without any clean shutdown: the crash.
    }
    let on_disk = std::fs::metadata(&path).unwrap().len();
    assert!(
        on_disk <= cut,
        "no bytes past the tear may reach the file: {on_disk} > {cut} [fault seed {seed}]"
    );
    let (catalog, report) = Catalog::recover(Box::new(FileLogStore::open(&path).unwrap())).unwrap();
    // Whatever re-read cleanly replayed; the torn tail was truncated.
    assert_eq!(report.records_skipped, 0, "[fault seed {seed}]");
    if let Ok(shared) = catalog.table("f") {
        let t = shared.read();
        for i in 0..t.num_rows() {
            assert_eq!(t.get(i, 0), Value::Int(i as i64), "[fault seed {seed}]");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_fsync_is_transparent_to_the_caller_via_retry() {
    let path = temp_path("fsync");
    let _ = std::fs::remove_file(&path);
    let store = FileLogStore::open(&path).unwrap();
    let plan = FaultPlan {
        error_on_sync: Some(0),
        ..FaultPlan::default()
    };
    let mut injector = FaultInjector::new(store, plan);
    injector.append(b"frame").unwrap();
    let err = injector.sync().unwrap_err();
    assert!(
        err.is_transient(),
        "a failed fsync must be typed transient so the retry layer absorbs it: {err}"
    );
    injector.sync().expect("second sync succeeds");
    assert_eq!(injector.read_all().unwrap(), b"frame");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_rot_on_file_log_read_truncates_at_the_flip() {
    let path = temp_path("bitrot");
    let _ = std::fs::remove_file(&path);
    {
        let catalog = seeded_catalog_on(Box::new(FileLogStore::open(&path).unwrap()), 20);
        catalog.with_wal(|w| w.sync()).unwrap();
    }
    // Recover through an injector flipping one bit mid-log: the CRC chain
    // must reject the flipped frame and keep only the prefix.
    let len = std::fs::metadata(&path).unwrap().len();
    let flip_byte = len / 2;
    let plan = FaultPlan {
        flip_bit_on_read: Some(flip_byte * 8),
        ..FaultPlan::default()
    };
    let injector = FaultInjector::new(FileLogStore::open(&path).unwrap(), plan);
    let (catalog, report) = Catalog::recover(Box::new(injector)).unwrap();
    assert!(
        report.corruption.is_some(),
        "a mid-log bit flip must be detected, got {report:?}"
    );
    let t = catalog.table("f").unwrap();
    let t = t.read();
    assert!(t.num_rows() < 20, "rows past the flip cannot replay");
    for i in 0..t.num_rows() {
        assert_eq!(t.get(i, 1), Value::Float(i as f64));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_checkpoint_survives_a_torn_temp_file() {
    let dir = temp_path("ckpt-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileCheckpointStore::open(&dir, "img").unwrap();
    let good = {
        let catalog = seeded_catalog_on(Box::new(pa_storage::MemLogStore::new()), 10);
        let (frame, _, _) = catalog.export_image().unwrap();
        frame
    };
    store.save(&good).unwrap();
    // A crash mid-save leaves a torn *temp* file next to the live image —
    // simulate it, then prove reads keep serving the renamed good image.
    std::fs::write(dir.join("img.tmp"), &good[..good.len() / 2]).unwrap();
    let raw = store.read_raw().unwrap();
    assert_eq!(raw, good, "the live image must not see the torn temp");
    let (image, why) = scan_checkpoints(&raw);
    assert!(why.is_none(), "{why:?}");
    assert_eq!(image.unwrap().tables.len(), 1);
    // And a *torn live file* (crash during a non-atomic overwrite, or rot)
    // degrades to "no usable image", never a panic.
    std::fs::write(store.path(), &good[..good.len() / 3]).unwrap();
    let (image, why) = scan_checkpoints(&store.read_raw().unwrap());
    assert!(image.is_none());
    assert!(why.is_some(), "torn image must be reported");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_checkpoint_store_over_faulted_file_rejects_rotten_images() {
    let path = temp_path("ckpt-log");
    let _ = std::fs::remove_file(&path);
    let wal_path = temp_path("ckpt-wal");
    let _ = std::fs::remove_file(&wal_path);
    // Checkpoint a file-backed catalog into a LogCheckpointStore whose
    // underlying FileLogStore flips a bit on every read. The image is
    // saved without compacting the WAL (export_image, not checkpoint_now)
    // so recovery can prove the fallback-to-full-replay path.
    {
        let catalog = seeded_catalog_on(Box::new(FileLogStore::open(&wal_path).unwrap()), 15);
        let (frame, _, _) = catalog.export_image().unwrap();
        let mut store = LogCheckpointStore::new(Box::new(FileLogStore::open(&path).unwrap()));
        store.save(&frame).unwrap();
        catalog.with_wal(|w| w.sync()).unwrap();
    }
    let img_len = std::fs::metadata(&path).unwrap().len();
    let plan = FaultPlan {
        flip_bit_on_read: Some((img_len / 2) * 8),
        ..FaultPlan::default()
    };
    let rotten = FaultInjector::new(FileLogStore::open(&path).unwrap(), plan);
    let (catalog, report) = Catalog::recover_with_checkpoint(
        Box::new(FileLogStore::open(&wal_path).unwrap()),
        Box::new(LogCheckpointStore::new(Box::new(rotten))),
        64 << 20,
        CheckpointPolicy::disabled(),
    )
    .unwrap();
    assert!(
        report.checkpoint_error.is_some(),
        "the flipped image must be rejected, got {report:?}"
    );
    // Full WAL replay still rebuilt the state.
    let t = catalog.table("f").unwrap();
    assert_eq!(t.read().num_rows(), 15);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn transient_nth_op_error_on_file_store_is_absorbed_by_the_wal_retry() {
    let path = temp_path("nth-op");
    let _ = std::fs::remove_file(&path);
    let plan = FaultPlan {
        error_on_op: Some(2),
        ..FaultPlan::default()
    };
    let injector = FaultInjector::new(FileLogStore::open(&path).unwrap(), plan);
    let catalog = seeded_catalog_on(Box::new(injector), 8);
    // All appends landed despite the injected once-off error...
    assert_eq!(catalog.table("f").unwrap().read().num_rows(), 8);
    // ...and the WAL accounted for the absorbed retry.
    assert!(
        catalog.wal_stats().retries > 0,
        "the transient fault must surface in stats: {:?}",
        catalog.wal_stats()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn export_image_round_trips_through_mem_checkpoint_store() {
    // Control case pinning the bootstrap-image format the replication
    // layer ships: what export_image produces, scan_checkpoints accepts.
    let catalog = seeded_catalog_on(Box::new(pa_storage::MemLogStore::new()), 5);
    let (frame, fence, term) = catalog.export_image().unwrap();
    assert!(fence >= 1);
    assert_eq!(term, 0);
    let mut store = MemCheckpointStore::new();
    store.save(&frame).unwrap();
    let (image, why) = scan_checkpoints(&store.read_raw().unwrap());
    assert!(why.is_none(), "{why:?}");
    let image = image.unwrap();
    assert_eq!(image.lsn, fence);
    assert_eq!(image.tables.len(), 1);
    assert_eq!(image.tables[0].0, "f");
    assert_eq!(image.tables[0].1.num_rows(), 5);
    // StorageError is part of this test module's contract surface.
    let _: fn(&StorageError) -> bool = StorageError::is_transient;
}
