//! Crash-at-every-offset recovery tests.
//!
//! A fixed workload runs twice in lockstep: once WAL-only and once with
//! automatic checkpointing. Every byte offset of the durable state — the
//! WAL tail, and the checkpoint frame mid-append — is then treated as a
//! crash point and recovered. The recovered catalog must always pass
//! integrity checks and equal the state after some committed record
//! prefix of the workload; a torn checkpoint must fall back to the
//! previous image (or full replay) without losing a single committed
//! record.
//!
//! Unlike the seeded random cuts in `prop_recovery.rs`, these sweeps are
//! deterministic and exhaustive at byte granularity.

use std::sync::{Arc, Mutex};

use pa_storage::log::MemLogStore;
use pa_storage::{
    scan_checkpoints, scan_log, Catalog, Change, CheckpointPolicy, CheckpointStore, DataType,
    MemCheckpointStore, Result, Rows, Schema, Table, Value,
};

/// Checkpoint slot that hands the test a live view of the retained image.
/// `save` replaces atomically (like [`MemCheckpointStore`]); the shared
/// buffer lets the workload capture the image after every op.
#[derive(Debug, Clone, Default)]
struct SharedCkptStore(Arc<Mutex<Vec<u8>>>);

impl SharedCkptStore {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl CheckpointStore for SharedCkptStore {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        *self.0.lock().unwrap() = frame.to_vec();
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        Ok(self.bytes())
    }
}

// ---- deterministic workload -----------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(&'static str, usize),
    Insert(&'static str, usize),
    Update(&'static str, usize),
    Drop(&'static str),
}

/// Mixes both schemas, dictionary strings, NULLs, per-column updates, and a
/// drop + recreate. With `every_records(4)` this cuts several checkpoints.
fn workload() -> Vec<Op> {
    vec![
        Op::Create("f", 6),
        Op::Insert("f", 4),
        Op::Update("f", 1),
        Op::Create("g", 5),
        Op::Insert("g", 3),
        Op::Update("g", 0),
        Op::Insert("f", 2),
        Op::Drop("g"),
        Op::Create("g", 2),
        Op::Update("f", 3),
        Op::Insert("g", 4),
        Op::Insert("f", 1),
    ]
}

fn int_float_table(n: usize, salt: i64) -> Table {
    let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
        .unwrap()
        .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..n as i64 {
        let a = if (i + salt) % 4 == 0 {
            Value::Null
        } else {
            Value::Float((i * 3 + salt) as f64 / 2.0)
        };
        t.push_row(&[Value::Int(i + salt), a]).unwrap();
    }
    t
}

fn str_int_table(n: usize, salt: i64) -> Table {
    let schema = Schema::from_pairs(&[("s", DataType::Str), ("n", DataType::Int)])
        .unwrap()
        .into_shared();
    let mut t = Table::empty(schema);
    for i in 0..n as i64 {
        let s = if (i + salt) % 5 == 0 {
            Value::Null
        } else {
            Value::str(format!("s{}", (i + salt) % 3))
        };
        t.push_row(&[s, Value::Int(salt - i)]).unwrap();
    }
    t
}

fn build(name: &str, rows: usize, salt: i64) -> Table {
    if name == "g" {
        str_int_table(rows, salt)
    } else {
        int_float_table(rows, salt)
    }
}

/// Apply one op through the catalog's write path, which also gives the
/// checkpoint policy its chance once the op's guard is released.
fn apply(catalog: &Catalog, op: Op, idx: usize) {
    let salt = idx as i64 + 1;
    match op {
        Op::Create(name, rows) => {
            catalog.create_or_replace_table(name, build(name, rows, salt));
        }
        Op::Insert(name, rows) => {
            let add = build(name, rows, salt);
            catalog
                .write(name, Change::Append(Rows::Table(&add)))
                .unwrap();
        }
        Op::Update(name, row) => {
            let row = row % catalog.table(name).unwrap().read().num_rows();
            let after = [if name == "g" {
                Value::Int(salt * 7)
            } else {
                Value::Float(salt as f64 * 7.5)
            }];
            catalog.update_cells(name, row, &[1], &after).unwrap();
        }
        Op::Drop(name) => {
            catalog.drop_table(name).unwrap();
        }
    }
}

// ---- oracles --------------------------------------------------------------

type State = Vec<(String, Vec<Vec<Value>>)>;

fn state_of(catalog: &Catalog) -> State {
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

fn recover_state(bytes: &[u8]) -> State {
    let (cat, _) = Catalog::recover(Box::new(MemLogStore::from_bytes(bytes.to_vec()))).unwrap();
    cat.check_integrity().unwrap();
    state_of(&cat)
}

/// `states[k]` = catalog state after replaying the first `k` records of the
/// full (never-compacted) log — the set of all committed prefixes.
fn prefix_states(full: &[u8]) -> Vec<State> {
    let scan = scan_log(full);
    assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
    let mut states = Vec::with_capacity(scan.frame_lens.len() + 1);
    let mut end = 0usize;
    states.push(recover_state(&[]));
    for len in &scan.frame_lens {
        end += *len as usize;
        states.push(recover_state(&full[..end]));
    }
    states
}

fn image_lsn(ckpt_bytes: &[u8]) -> u64 {
    scan_checkpoints(ckpt_bytes).0.map_or(0, |i| i.lsn)
}

// ---- the sweeps -----------------------------------------------------------

/// Checkpoints disabled: cut the WAL at EVERY byte offset. Recovery must
/// yield exactly the state of the record prefix that survives the cut.
#[test]
fn wal_only_crash_at_every_offset_recovers_a_committed_prefix() {
    let catalog = Catalog::new();
    for (idx, op) in workload().into_iter().enumerate() {
        apply(&catalog, op, idx);
    }
    let full = catalog.with_wal(|w| w.snapshot()).unwrap();
    let states = prefix_states(&full);
    assert!(states.len() > 12, "workload too small to be interesting");

    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        let n = scan_log(prefix).records.len();
        let (rec, report) =
            Catalog::recover(Box::new(MemLogStore::from_bytes(prefix.to_vec()))).unwrap();
        rec.check_integrity().unwrap();
        assert_eq!(
            report.records_replayed + report.records_skipped,
            n as u64,
            "cut at byte {cut}"
        );
        assert_eq!(state_of(&rec), states[n], "cut at byte {cut}");
    }
    // The uncut log reproduces the live catalog exactly.
    assert_eq!(state_of(&catalog), states[states.len() - 1]);
}

/// Checkpoints enabled: two exhaustive sweeps over the durable byte state.
///
/// 1. The WAL tail (already compacted behind the newest image) is cut at
///    every byte offset with the image intact — recovery = image + the
///    surviving suffix records, always a committed prefix.
/// 2. Every checkpoint write is torn at every byte offset of its frame,
///    paired with the pre-compaction WAL it was cut against (exactly the
///    bytes a crash mid-append leaves behind under the append-then-discard
///    store protocol) — recovery falls back to the previous image or full
///    replay and loses nothing.
#[test]
fn checkpointed_crash_at_every_offset_recovers_a_committed_prefix() {
    let shadow = Catalog::new(); // same ops, never compacted: the oracle
    let store = SharedCkptStore::default();
    let catalog = Catalog::new();
    catalog.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::every_records(4));

    // Durable state after each op: (image bytes, compacted WAL bytes,
    // shadow full WAL bytes, live state).
    type DurableState = (Vec<u8>, Vec<u8>, Vec<u8>, State);
    let mut after_op: Vec<DurableState> = Vec::new();
    for (idx, op) in workload().into_iter().enumerate() {
        apply(&shadow, op, idx);
        apply(&catalog, op, idx);
        after_op.push((
            store.bytes(),
            catalog.with_wal(|w| w.snapshot()).unwrap(),
            shadow.with_wal(|w| w.snapshot()).unwrap(),
            state_of(&catalog),
        ));
    }
    assert!(!catalog.checkpoint_degraded());
    assert_eq!(
        state_of(&catalog),
        state_of(&shadow),
        "compaction must not change live state"
    );

    let fences: Vec<u64> = after_op.iter().map(|(c, ..)| image_lsn(c)).collect();
    assert!(
        fences.iter().filter(|f| **f > 1).count() >= 2,
        "workload must cut at least two checkpoints, fences: {fences:?}"
    );
    // The compacted WAL is always a byte suffix of the shadow's full log:
    // compaction pops whole frames and LSN stamping is identical.
    for (_, wal, shadow_wal, _) in &after_op {
        assert!(shadow_wal.ends_with(wal), "compacted WAL diverged");
    }

    let shadow_full = &after_op.last().unwrap().2;
    let states = prefix_states(shadow_full);

    // Sweep 1: tear the WAL tail at every offset, newest image intact.
    let (ckpt_bytes, wal_bytes, _, _) = after_op.last().unwrap();
    let fence = image_lsn(ckpt_bytes);
    assert!(fence > 1);
    for cut in 0..=wal_bytes.len() {
        let prefix = wal_bytes[..cut].to_vec();
        let n = scan_log(&prefix).records.len();
        let (rec, report) = Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::from_bytes(prefix)),
            Box::new(MemCheckpointStore::from_bytes(ckpt_bytes.clone())),
            1 << 20,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        rec.check_integrity().unwrap();
        assert!(report.checkpoint_error.is_none(), "wal cut at byte {cut}");
        assert_eq!(report.checkpoint_lsn, fence);
        assert_eq!(report.records_pre_checkpoint, 0, "wal cut at byte {cut}");
        // Image holds records 1..fence; the surviving suffix adds n more.
        assert_eq!(
            state_of(&rec),
            states[(fence - 1) as usize + n],
            "wal cut at byte {cut}"
        );
    }

    // Sweep 2: tear every checkpoint write at every byte of its frame.
    let mut torn_events = 0;
    for k in 0..after_op.len() {
        let prev_fence = if k == 0 { 0 } else { fences[k - 1] };
        if fences[k] == prev_fence {
            continue; // no checkpoint fired during this op
        }
        torn_events += 1;
        let old_image: Vec<u8> = if k == 0 {
            Vec::new()
        } else {
            after_op[k - 1].0.clone()
        };
        let new_frame = &after_op[k].0;
        // The WAL as the checkpointer saw it at save time: everything past
        // the previous fence, through the end of this op's records.
        let shadow_k = &after_op[k].2;
        let scan = scan_log(shadow_k);
        let mut off = 0usize;
        for (lsn, len) in scan.lsns.iter().zip(&scan.frame_lens) {
            if *lsn >= prev_fence.max(1) {
                break;
            }
            off += *len as usize;
        }
        let wal_at_save = &shadow_k[off..];

        // i < len: torn mid-append (old image survives the append-then-
        // discard protocol). i == len: crash after the append landed but
        // before compaction — the image and the full pre-compaction WAL
        // coexist, and replay must skip what the image already holds.
        for i in 0..=new_frame.len() {
            let mut disk = old_image.clone();
            disk.extend_from_slice(&new_frame[..i]);
            let (rec, report) = Catalog::recover_with_checkpoint(
                Box::new(MemLogStore::from_bytes(wal_at_save.to_vec())),
                Box::new(MemCheckpointStore::from_bytes(disk)),
                1 << 20,
                CheckpointPolicy::disabled(),
            )
            .unwrap();
            rec.check_integrity().unwrap();
            if i < new_frame.len() {
                assert_eq!(report.checkpoint_lsn, prev_fence, "op {k}, torn at {i}");
                assert_eq!(
                    report.checkpoint_error.is_some(),
                    i > 0,
                    "op {k}, torn at {i}: {:?}",
                    report.checkpoint_error
                );
            } else {
                assert_eq!(report.checkpoint_lsn, fences[k]);
                assert!(
                    report.records_pre_checkpoint > 0,
                    "uncompacted WAL must overlap the fresh image"
                );
            }
            assert_eq!(state_of(&rec), after_op[k].3, "op {k}, torn at byte {i}");
        }
    }
    assert!(torn_events >= 2, "expected several torn-checkpoint events");
}
