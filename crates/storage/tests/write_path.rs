//! The catalog's one write path, from outside the crate.
//!
//! * A write whose log append is refused is not visible afterwards: the
//!   caller gets the device's error, the table holds what it held, and a
//!   recovery from the log — after further acknowledged writes — skips
//!   nothing and rebuilds the live rows exactly. One case per logged kind.
//! * The bytes are the parent's: a fixed op sequence produces the WAL and
//!   the checkpoint image recorded at `53bf2bb`, where the same sequence
//!   went through the hand-written mutate-then-log protocol.

use pa_storage::checkpoint::{encode_image, CHECKPOINT_VERSION};
use pa_storage::log::MemLogStore;
use pa_storage::wal::{crc32, FRAME_HEADER};
use pa_storage::{
    scan_checkpoints, Catalog, Change, CheckpointImage, CheckpointPolicy, CheckpointStore,
    DataType, FaultInjector, FaultPlan, Result, RetryPolicy, Rows, Schema, StorageError, Table,
    Value, Wal, WriteReceipt,
};
use std::sync::{Arc, Mutex};

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("d", DataType::Int),
        ("s", DataType::Str),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared()
}

fn row(i: i64) -> Vec<Value> {
    let s = if i % 3 == 0 {
        Value::Null
    } else {
        Value::str(format!("s{}", i % 4))
    };
    vec![Value::Int(i), s, Value::Float(i as f64 / 2.0)]
}

fn rows_of(catalog: &Catalog) -> Vec<Vec<Value>> {
    catalog.table("f").unwrap().read().rows().collect()
}

/// A catalog holding `f` with four rows, on a device that refuses its
/// `refuse`-th data operation once (creating `f` is operations 0 and 1),
/// with retries off so the refusal reaches the caller.
fn catalog_refusing(refuse: u64) -> Catalog {
    let plan = FaultPlan {
        error_on_op: Some(refuse),
        ..FaultPlan::default()
    };
    let mut wal = Wal::with_store(
        Box::new(FaultInjector::new(MemLogStore::new(), plan)),
        1 << 20,
    );
    wal.set_retry_policy(RetryPolicy::none());
    let catalog = Catalog::from_wal(wal);
    let mut f = Table::empty(schema());
    for i in 0..4 {
        f.push_row(&row(i)).unwrap();
    }
    catalog.create_table("f", f).unwrap();
    catalog
}

fn assert_recovers_to_live(catalog: &Catalog, kind: &str) {
    let log = catalog.with_wal(|w| w.snapshot()).unwrap();
    let (recovered, report) = Catalog::recover(Box::new(MemLogStore::from_bytes(log))).unwrap();
    assert_eq!(report.records_skipped, 0, "{kind}: {report:?}");
    assert!(report.is_clean(), "{kind}: {report:?}");
    recovered.check_integrity().unwrap();
    assert_eq!(
        rows_of(&recovered),
        rows_of(catalog),
        "{kind}: recovery != live"
    );
}

/// The i-th write of one logged kind.
type Write = fn(&Catalog, i64) -> Result<WriteReceipt>;

fn append_values(catalog: &Catalog, i: i64) -> Result<WriteReceipt> {
    let batch = [row(10 * i), row(10 * i + 1), row(10 * i + 2)];
    catalog.write("f", Change::Append(Rows::Values(&batch)))
}

fn append_table(catalog: &Catalog, i: i64) -> Result<WriteReceipt> {
    let mut batch = Table::empty(schema());
    for k in 0..3 {
        batch.push_row(&row(10 * i + k)).unwrap();
    }
    catalog.write("f", Change::Append(Rows::Table(&batch)))
}

fn update_one_row(catalog: &Catalog, i: i64) -> Result<WriteReceipt> {
    let cells = [Value::str(format!("u{i}")), Value::Float(i as f64)];
    catalog.update_cells("f", i as usize, &[1, 2], &cells)
}

/// `UPDATE f SET a = i` over every row: one record per row, as
/// `update_from` issues it.
fn update_every_row(catalog: &Catalog, i: i64) -> Result<WriteReceipt> {
    let mut rows = 0..catalog.table("f").unwrap().read().num_rows();
    let next = &mut |_: &Table, after: &mut Vec<Value>| {
        after.push(Value::Float(i as f64));
        rows.next()
    };
    catalog.write("f", Change::Update { cols: &[2], next })
}

#[test]
fn a_write_whose_log_append_is_refused_is_not_visible() {
    let kinds: [(&str, Write); 4] = [
        ("append from values", append_values),
        ("append from a table", append_table),
        ("single-row update", update_one_row),
        ("per-row updates of one statement", update_every_row),
    ];
    for (kind, write) in kinds {
        // Operation 2 is the first write's first record; refuse the second
        // write's first record.
        let first = {
            let probe = catalog_refusing(u64::MAX);
            write(&probe, 1).unwrap()
        };
        let catalog = catalog_refusing(2 + first.records);
        let stats = catalog.wal_stats();
        let acked = write(&catalog, 1).unwrap();
        assert_eq!(acked, first, "{kind}: the receipt is per call");
        let logged = catalog.wal_stats();
        assert_eq!(
            (acked.records, acked.bytes),
            (
                logged.records - stats.records,
                logged.bytes_written - stats.bytes_written
            ),
            "{kind}: the receipt counts what the call logged"
        );
        assert_eq!(
            acked.lsn,
            2 + acked.records,
            "{kind}: LSN of the last record"
        );

        let before = rows_of(&catalog);
        let err = write(&catalog, 2).unwrap_err();
        assert!(
            matches!(err, StorageError::TransientIo(_)),
            "{kind}: the caller gets the device's error, got {err}"
        );
        assert_eq!(
            rows_of(&catalog),
            before,
            "{kind}: an unacknowledged write is readable"
        );
        assert_eq!(catalog.wal_stats().write_errors, 1, "{kind}");

        // Further acknowledged writes, then a restart from the log alone.
        write(&catalog, 3).unwrap();
        update_one_row(&catalog, 0).unwrap();
        assert_ne!(rows_of(&catalog), before, "{kind}: later writes landed");
        assert_recovers_to_live(&catalog, kind);
    }
}

#[test]
fn a_statement_refused_midway_keeps_its_logged_rows_and_no_others() {
    // Creating `f` is operations 0 and 1; the statement's records are 2..;
    // refuse its third.
    let catalog = catalog_refusing(4);
    let version = catalog.table_version("f");
    let err = update_every_row(&catalog, 9).unwrap_err();
    assert!(matches!(err, StorageError::TransientIo(_)), "{err}");
    let a: Vec<Value> = rows_of(&catalog)
        .into_iter()
        .map(|r| r[2].clone())
        .collect();
    assert_eq!(
        a,
        [
            Value::Float(9.0),
            Value::Float(9.0),
            Value::Float(1.0),
            Value::Float(1.5)
        ],
        "rows 0 and 1 are in the log and applied; row 2's record was refused"
    );
    assert_eq!(
        catalog.table_version("f"),
        version + 1,
        "one version bump for the statement, failed or not"
    );
    assert_recovers_to_live(&catalog, "statement refused midway");
}

#[test]
fn an_invalid_write_logs_nothing_and_changes_nothing() {
    let catalog = catalog_refusing(u64::MAX);
    let (before, stats, version) = (
        rows_of(&catalog),
        catalog.wal_stats(),
        catalog.table_version("f"),
    );
    let clash = [
        row(7),
        vec![Value::str("not an int"), Value::Null, Value::Null],
    ];
    assert!(catalog
        .write("f", Change::Append(Rows::Values(&clash)))
        .is_err());
    let other = Schema::from_pairs(&[("x", DataType::Int)])
        .unwrap()
        .into_shared();
    assert!(catalog
        .write("f", Change::Append(Rows::Table(&Table::empty(other))))
        .is_err());
    assert!(catalog
        .update_cells("f", 99, &[0], &[Value::Int(1)])
        .is_err());
    assert!(catalog
        .update_cells("f", 0, &[9], &[Value::Int(1)])
        .is_err());
    assert!(catalog
        .update_cells("f", 0, &[0], &[Value::str("x")])
        .is_err());
    assert!(matches!(
        catalog.update_cells("nope", 0, &[0], &[Value::Int(1)]),
        Err(StorageError::TableNotFound(_))
    ));
    assert_eq!(rows_of(&catalog), before);
    assert_eq!(catalog.wal_stats(), stats, "validation precedes the log");
    assert_eq!(catalog.table_version("f"), version, "nothing changed");
}

// ---- byte identity with the parent commit -----------------------------------

/// Checkpoint slot over a shared buffer, so the test can read the image.
#[derive(Debug, Clone, Default)]
struct SharedCkptStore(Arc<Mutex<Vec<u8>>>);

impl CheckpointStore for SharedCkptStore {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        *self.0.lock().unwrap() = frame.to_vec();
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        Ok(self.0.lock().unwrap().clone())
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// NULLs in every column, a non-ASCII dictionary string, and `Int`s bound
/// for the `Float` column (the table widens them; the log must too).
fn golden_row(state: &mut u64) -> Vec<Value> {
    let (d, s, a) = (lcg(state), lcg(state), lcg(state));
    vec![
        if d.is_multiple_of(6) {
            Value::Null
        } else {
            Value::Int(d as i64 % 9 - 4)
        },
        if s.is_multiple_of(5) {
            Value::Null
        } else {
            Value::str(["CA", "TX", "WA", "höuston"][(s % 4) as usize])
        },
        match a % 4 {
            0 => Value::Null,
            1 => Value::Int(a as i64 % 50),
            _ => Value::Float((a % 1000) as f64 / 8.0),
        },
    ]
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn wal_frames_and_checkpoint_image_are_byte_identical_to_the_parent() {
    let append = |cat: &Catalog, name: &str, rows: &[Vec<Value>]| {
        cat.write(name, Change::Append(Rows::Values(rows))).unwrap();
    };
    let mut state = 0x5EED_601Du64;
    let cat = Catalog::new();
    let mut seed_rows = Table::empty(schema());
    for _ in 0..5 {
        seed_rows.push_row(&golden_row(&mut state)).unwrap();
    }
    cat.create_table("f", seed_rows).unwrap();
    let batch: Vec<Vec<Value>> = (0..7).map(|_| golden_row(&mut state)).collect();
    append(&cat, "f", &batch);
    let mut columnar = Table::empty(schema());
    for _ in 0..4 {
        columnar.push_row(&golden_row(&mut state)).unwrap();
    }
    cat.write("f", Change::Append(Rows::Table(&columnar)))
        .unwrap();
    cat.update_cells("f", 2, &[2], &[Value::Float(0.5)])
        .unwrap();
    cat.update_cells("f", 9, &[0, 1], &[Value::Null, Value::str("NV")])
        .unwrap();
    cat.update_cells("f", 0, &[2], &[Value::Int(3)]).unwrap();
    cat.create_table("g", Table::empty(schema())).unwrap();
    append(&cat, "g", &batch[..2]);
    cat.drop_table("g").unwrap();
    cat.begin_term(3).unwrap();
    cat.create_or_replace_table("h", columnar.clone());
    append(&cat, "h", &batch[2..3]);

    let wal = cat.with_wal(|w| w.snapshot()).unwrap();
    let store = SharedCkptStore::default();
    cat.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::disabled());
    let fence = cat.checkpoint_now().unwrap();
    let image = store.0.lock().unwrap().clone();

    // Recorded at 53bf2bb by the same sequence through `push_rows` /
    // `extend_from` / `set_cells`, each followed by the hand-logged record.
    assert_eq!(
        (wal.len(), crc32(&wal), fnv64(&wal)),
        (1046, 0x5cef_faa0, 0xc9a3_a818_7238_7189),
        "WAL bytes moved"
    );
    // The image in checkpoint format 2, which packs integers and string
    // codes; format 1 wrote the 635 bytes of `CHECKPOINT_V1` below.
    assert_eq!(
        (image.len(), crc32(&image), fnv64(&image)),
        (445, 0xe2dc_f874, 0x0699_7437_57d7_ff76),
        "checkpoint image bytes moved"
    );
    assert_eq!((fence, cat.epoch()), (15, 11));
}

/// The image of the sequence above as format 1 wrote it, recorded at
/// bb2c3dd: 635 bytes, crc32 0x781f4690.
const CHECKPOINT_V1: &str = "730200006ee1e37750414331010b000000000000000f000000000000000200000001000000660300000001000000640001000000730201000000610110000000000000000000000000000000000000000000000003000000000000000300000000000000feffffffffffffff0000000000000000030000000000000004000000000000000400000000000000000000000000000000000000000000000000000000000000fdffffffffffffff00000000000000000400000000000000000000000000000000dd51000000000000050000000200000043410800000068c3b67573746f6e020000005741020000005458020000004e560000000000000000010000000000000002000000030000000000000001000000000000000400000002000000000000000200000001000000000000000300000000fef60000000000000000000000000840000000000000f87f000000000000e03f0000000000305a400000000000002e40000000000000f87f0000000000002a400000000000001c400000000000603d40000000000000f87f00000000008041400000000000505b400000000000a0414000000000009057400000000000585340000000000018594000ddfd0000000000000100000068030000000100000064000100000073020100000061010500000000000000fdffffffffffffff0000000000000000040000000000000000000000000000000400000000000000001500000000000000040000000200000057410800000068c3b67573746f6e0200000043410200000054580000000001000000020000000300000001000000010000000000a041400000000000905740000000000058534000000000001859400000000000001c4001";

/// A format-1 image still decodes, to the very tables its format-2 image
/// holds: re-encoded, the two are the same bytes.
#[test]
fn a_format_1_checkpoint_decodes_to_the_tables_of_its_format_2_image() {
    let v1: Vec<u8> = (0..CHECKPOINT_V1.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&CHECKPOINT_V1[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!((v1.len(), crc32(&v1)), (635, 0x781f_4690));
    assert_eq!(v1[FRAME_HEADER + 4], 1, "a format-1 payload");
    let (old, why) = scan_checkpoints(&v1);
    assert!(why.is_none(), "{why:?}");
    let old = old.expect("the format-1 image decodes");
    let encode = |image: &CheckpointImage| {
        let tables: Vec<(String, &Table)> = (image.tables.iter())
            .map(|(name, t)| (name.clone(), t))
            .collect();
        encode_image(&tables, image.epoch, image.lsn).unwrap()
    };
    let v2 = encode(&old);
    assert_eq!(v2[FRAME_HEADER + 4], CHECKPOINT_VERSION);
    assert_eq!(
        (v2.len(), crc32(&v2)),
        (445, 0xe2dc_f874),
        "the format-2 image"
    );
    let (new, why) = scan_checkpoints(&v2);
    assert!(why.is_none(), "{why:?}");
    let new = new.unwrap();
    assert_eq!((new.epoch, new.lsn), (old.epoch, old.lsn));
    for ((name, a), (name_b, b)) in old.tables.iter().zip(&new.tables) {
        assert_eq!(name, name_b);
        let rows = |t: &Table| t.rows().collect::<Vec<_>>();
        assert_eq!(rows(a), rows(b), "table {name}");
    }
    assert_eq!(encode(&new), v2, "re-encoded, byte for byte");
}
