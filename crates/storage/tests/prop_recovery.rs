//! Crash-recovery property tests.
//!
//! A random DDL/DML workload runs against a catalog; the log is then cut at
//! a random byte (or torn mid-write by a seeded [`FaultInjector`]) and
//! recovered. The recovered catalog must always be *prefix-consistent*:
//! exactly the state produced by some record-prefix of the workload's log,
//! structurally sound (column lengths, validity bitmaps, dictionary codes),
//! and ready to keep logging.
//!
//! A third property is the four-way oracle: with the log device refusing
//! seeded writes mid-workload, the live catalog, a recovery from the log
//! alone, a recovery from an image plus the log's suffix, and a replica
//! synced over [`DirectTransport`] must all hold the same rows.
//!
//! Failures print the deriving seed and a one-line repro command
//! (`PA_PROPTEST_SEED=<seed> cargo test <name>`); fault-injector errors
//! additionally carry their own `[fault seed N]` tag.

use pa_storage::log::MemLogStore;
use pa_storage::wal::scan_log;
use pa_storage::{
    Catalog, Change, CheckpointPolicy, DataType, DirectTransport, FaultInjector, FaultPlan,
    LogStore, MemCheckpointStore, ReplicaApplier, ReplicationStream, RetryPolicy, Rows, Schema,
    StorageError, Table, Value, Wal,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One step of the random workload. `slot` picks a table (fixed schema per
/// slot so generated values always type-check), the payload fields seed the
/// row values.
#[derive(Debug, Clone)]
enum Op {
    Create { slot: u8, rows: u8, a: i64, b: i64 },
    Insert { slot: u8, rows: u8, a: i64, b: i64 },
    Update { slot: u8, row: u8, a: i64, b: i64 },
    Drop { slot: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let payload = || (0u8..4, 0u8..8, -1000i64..1000, -1000i64..1000);
    prop_oneof![
        3 => payload().prop_map(|(slot, rows, a, b)| Op::Create { slot, rows, a, b }),
        4 => payload().prop_map(|(slot, rows, a, b)| Op::Insert { slot, rows, a, b }),
        4 => payload().prop_map(|(slot, row, a, b)| Op::Update { slot, row, a, b }),
        1 => payload().prop_map(|(slot, ..)| Op::Drop { slot }),
    ]
}

fn slot_name(slot: u8) -> String {
    format!("t{}", slot % 4)
}

/// Per-slot schema: exercises every data type, including dictionary columns.
fn slot_schema(slot: u8) -> Schema {
    match slot % 4 {
        0 => Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)]).unwrap(),
        1 => Schema::from_pairs(&[("s", DataType::Str), ("n", DataType::Int)]).unwrap(),
        2 => Schema::from_pairs(&[("x", DataType::Float)]).unwrap(),
        _ => Schema::from_pairs(&[
            ("k", DataType::Str),
            ("v", DataType::Float),
            ("w", DataType::Int),
        ])
        .unwrap(),
    }
}

/// Deterministic row for (slot, i, a, b), with NULLs sprinkled in.
fn slot_row(slot: u8, i: i64, a: i64, b: i64) -> Vec<Value> {
    let null_every = |k: i64, v: Value| if (i + k) % 5 == 0 { Value::Null } else { v };
    match slot % 4 {
        0 => vec![
            null_every(a, Value::Int(a + i)),
            null_every(b, Value::Float((b + i) as f64 / 4.0)),
        ],
        1 => vec![
            null_every(a, Value::str(format!("s{}", (a + i).rem_euclid(17)))),
            null_every(b, Value::Int(b - i)),
        ],
        2 => vec![null_every(a, Value::Float((a * 3 + b + i) as f64))],
        _ => vec![
            null_every(a, Value::str(format!("k{}", (b + i).rem_euclid(9)))),
            null_every(b, Value::Float(i as f64)),
            null_every(a + b, Value::Int(i)),
        ],
    }
}

/// Apply one op through the catalog's write path. Returns Err when the log
/// device refused a record (the simulated crash point).
fn apply_op(catalog: &Catalog, op: &Op) -> Result<(), StorageError> {
    let name = match *op {
        Op::Create { slot, .. }
        | Op::Insert { slot, .. }
        | Op::Update { slot, .. }
        | Op::Drop { slot } => slot_name(slot),
    };
    let rows_now = catalog.table(&name).map(|t| t.read().num_rows());
    match *op {
        Op::Create { slot, rows, a, b } => {
            let mut t = Table::empty(slot_schema(slot).into_shared());
            for i in 0..rows as i64 {
                t.push_row(&slot_row(slot, i, a, b)).unwrap();
            }
            let refused = catalog.wal_stats().write_errors;
            catalog.create_or_replace_table(name, t);
            // DDL swallows device errors (counted in write_errors); surface
            // them here so the workload stops at the crash like DML does.
            if catalog.wal_stats().write_errors > refused {
                return Err(StorageError::Io("device refused DDL record".into()));
            }
            Ok(())
        }
        Op::Insert { slot, rows, a, b } => {
            let Ok(start) = rows_now else {
                return Ok(()); // no such table yet; op is a no-op
            };
            let batch: Vec<Vec<Value>> = (0..rows as i64)
                .map(|i| slot_row(slot, start as i64 + i, a, b))
                .collect();
            catalog
                .write(&name, Change::Append(Rows::Values(&batch)))
                .map(drop)
        }
        Op::Update { slot, row, a, b } => {
            let Ok(n @ 1..) = rows_now else {
                return Ok(());
            };
            let full_after = slot_row(slot, a ^ b, b, a);
            // Alternate between full-row updates and single-column updates:
            // the write path logs only the touched columns.
            let cols: Vec<usize> = if b % 2 == 0 {
                (0..full_after.len()).collect()
            } else {
                vec![a.rem_euclid(full_after.len() as i64) as usize]
            };
            let after: Vec<Value> = cols.iter().map(|&c| full_after[c].clone()).collect();
            catalog
                .update_cells(&name, row as usize % n, &cols, &after)
                .map(drop)
        }
        Op::Drop { .. } => {
            let _ = catalog.drop_table(&name);
            Ok(())
        }
    }
}

/// An in-memory log device that refuses — once, transiently — the next
/// append after the test arms it.
#[derive(Debug)]
struct FlakyLog {
    inner: MemLogStore,
    armed: Arc<AtomicBool>,
}

impl LogStore for FlakyLog {
    fn append(&mut self, data: &[u8]) -> Result<usize, StorageError> {
        if self.armed.swap(false, Ordering::Relaxed) {
            return Err(StorageError::TransientIo("injected append refusal".into()));
        }
        self.inner.append(data)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_all()
    }

    fn len(&self) -> Result<u64, StorageError> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }

    fn discard_front(&mut self, n: u64) -> Result<(), StorageError> {
        self.inner.discard_front(n)
    }
}

/// Materialize every table as (name, rows) for state comparison.
fn state_of(catalog: &Catalog) -> Vec<(String, Vec<Vec<Value>>)> {
    catalog
        .table_names()
        .into_iter()
        .map(|name| {
            let table = catalog.table(&name).unwrap();
            let rows = table.read().rows().collect();
            (name, rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cut the log at an arbitrary byte: recovery must replay exactly the
    /// record-prefix that survives, pass integrity checks, and — for an
    /// uncut log — reproduce the live catalog bit for bit.
    #[test]
    fn recovery_is_prefix_consistent(
        ops in prop::collection::vec(op_strategy(), 1..40),
        cut_frac in 0u32..=1000,
    ) {
        let catalog = Catalog::new();
        for op in &ops {
            apply_op(&catalog, op).expect("mem store never fails");
        }
        let full = catalog.with_wal(|w| w.snapshot()).unwrap();
        let cut = (full.len() as u64 * cut_frac as u64 / 1000) as usize;
        let image = full[..cut].to_vec();

        // Record-level prefix consistency: the cut log's records are a
        // prefix of the full log's records.
        let full_scan = scan_log(&full);
        let cut_scan = scan_log(&image);
        prop_assert!(full_scan.corruption.is_none());
        let n = cut_scan.records.len();
        prop_assert!(n <= full_scan.records.len());
        prop_assert_eq!(&cut_scan.records[..], &full_scan.records[..n]);

        // Recovery replays that prefix into a structurally sound catalog.
        let (recovered, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(image))).unwrap();
        recovered.check_integrity().unwrap();
        prop_assert_eq!(report.records_replayed + report.records_skipped, n as u64);
        prop_assert_eq!(report.bytes_skipped, (cut as u64) - cut_scan.valid_len);

        // An uncut log recovers the exact live state.
        if cut == full.len() {
            prop_assert!(report.is_clean());
            prop_assert_eq!(state_of(&recovered), state_of(&catalog));
        }

        // The recovered WAL keeps working: one more record, still clean.
        recovered
            .create_table("post", Table::empty(slot_schema(0).into_shared()))
            .unwrap();
        let again = recovered.with_wal(|w| w.snapshot()).unwrap();
        let rescan = scan_log(&again);
        prop_assert!(rescan.corruption.is_none());
        prop_assert_eq!(rescan.records.len(), n + 1);
    }

    /// Torn writes injected by a seeded fault plan: the workload stops at
    /// the simulated crash, and whatever bytes survived recover into a
    /// prefix-consistent, integrity-checked catalog.
    #[test]
    fn recovery_survives_seeded_torn_writes(
        ops in prop::collection::vec(op_strategy(), 1..40),
        fault_seed in 0u64..1 << 48,
    ) {
        let plan = FaultPlan::seeded_torn_write(fault_seed, 6000);
        let injector = FaultInjector::from_seed_plan(MemLogStore::new(), fault_seed, plan);
        let wal = Wal::with_store(Box::new(injector), 1 << 20);
        let catalog = Catalog::from_wal(wal);

        let mut crashed = false;
        for op in &ops {
            if let Err(e) = apply_op(&catalog, op) {
                // Injected failures name their seed for reproduction; DDL
                // crashes surface via the write_errors counter instead.
                let msg = e.to_string();
                prop_assert!(
                    msg.contains(&format!("fault seed {fault_seed}"))
                        || msg.contains("device refused DDL record"),
                    "unexpected error: {}", msg
                );
                crashed = true;
                break;
            }
        }

        // The surviving bytes (possibly a torn prefix) must recover.
        // Device already offline means recovery gets nothing — also valid.
        let image = catalog.with_wal(|w| w.snapshot().unwrap_or_default());
        let (recovered, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(image.clone()))).unwrap();
        recovered.check_integrity().unwrap();
        if crashed {
            let scan = scan_log(&image);
            prop_assert_eq!(scan.valid_len + report.bytes_skipped, image.len() as u64);
        } else {
            // No crash: the plan's cut lay beyond the workload's volume.
            prop_assert!(report.corruption.is_none());
            prop_assert_eq!(state_of(&recovered), state_of(&catalog));
        }
    }

    /// The four-way oracle. A third of the data writes meet a log device
    /// that refuses their record (DDL is not failed by a sick device, by
    /// contract — the torn-write property above covers it): each such
    /// write must return the error and leave the table as it was, and at
    /// the end the live catalog, a recovery from the log alone, a recovery
    /// from a mid-workload image plus the log's suffix, and a replica
    /// synced over a direct transport must agree row for row.
    #[test]
    fn live_log_image_and_replica_agree_under_refused_appends(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1 << 48,
    ) {
        let armed = Arc::new(AtomicBool::new(false));
        let device = FlakyLog { inner: MemLogStore::new(), armed: Arc::clone(&armed) };
        let mut wal = Wal::with_store(Box::new(device), 1 << 20);
        wal.set_retry_policy(RetryPolicy::none());
        let live = Catalog::from_wal(wal);

        let mut image = Vec::new();
        let mut refused = 0;
        for (i, op) in ops.iter().enumerate() {
            let data_write = matches!(op, Op::Insert { .. } | Op::Update { .. });
            // Fewer than 40 ops, 48 seed bits: op i rolls on the bits from i up.
            let arm = data_write && (seed >> i).is_multiple_of(3);
            armed.store(arm, Ordering::Relaxed);
            let before = state_of(&live);
            let outcome = apply_op(&live, op);
            // Still armed: the op reached no append (no such table, no rows).
            let fired = arm && !armed.swap(false, Ordering::Relaxed);
            prop_assert_eq!(outcome.is_err(), fired, "[seed {}] op {} {:?}", seed, i, op);
            if fired {
                refused += 1;
                prop_assert_eq!(
                    state_of(&live), before,
                    "[seed {}] op {} {:?}: a refused write stayed visible", seed, i, op
                );
            }
            if i == ops.len() / 2 {
                // An image without compaction: the full log stays shippable.
                image = live.export_image().unwrap().0;
            }
        }
        prop_assert_eq!(live.wal_stats().write_errors, refused, "[seed {}]", seed);
        live.check_integrity().unwrap();
        let expected = state_of(&live);
        let log = live.with_wal(|w| w.snapshot()).unwrap();

        let (from_log, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(log.clone()))).unwrap();
        prop_assert!(report.is_clean(), "[seed {}] {:?}", seed, report);
        from_log.check_integrity().unwrap();
        prop_assert_eq!(state_of(&from_log), expected.clone(), "[seed {}] log alone", seed);

        let (from_image, report) = Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::from_bytes(log)),
            Box::new(MemCheckpointStore::from_bytes(image)),
            1 << 20,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        prop_assert!(report.is_clean(), "[seed {}] {:?}", seed, report);
        prop_assert!(report.checkpoint_error.is_none(), "[seed {}] {:?}", seed, report);
        prop_assert!(report.checkpoint_lsn >= 1, "[seed {}] {:?}", seed, report);
        from_image.check_integrity().unwrap();
        prop_assert_eq!(
            state_of(&from_image), expected.clone(),
            "[seed {}] image + suffix", seed
        );

        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let synced = ReplicationStream::new(Box::new(DirectTransport))
            .sync(&live, &replica, &mut applier)
            .unwrap();
        prop_assert!(synced.caught_up, "[seed {}] {:?}", seed, synced);
        prop_assert_eq!(synced.skipped_records, 0, "[seed {}] {:?}", seed, synced);
        replica.check_integrity().unwrap();
        prop_assert_eq!(state_of(&replica), expected, "[seed {}] replica", seed);
    }
}
