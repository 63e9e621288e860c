//! WAL-shipping replication: primary → replica catch-up over an
//! injectable, fault-tolerant transport.
//!
//! The protocol is pull-based and idempotent. A [`ReplicaApplier`] tracks
//! the highest LSN it has applied; each sync round asks the primary for
//! every retained frame past that point ([`crate::wal::Wal::ship_since`]),
//! pushes the frames through a [`ShipTransport`] (which may tear, reorder,
//! duplicate, or drop them), and applies whatever arrives:
//!
//! * **CRC re-verification** — every frame is re-scanned with
//!   [`scan_log`] on arrival, so a bit flipped in flight is rejected
//!   exactly like a torn frame on disk; the frame is simply re-shipped on
//!   the next round.
//! * **LSN sequencing** — frames apply strictly in LSN order. Duplicates
//!   (LSN at or below the applied watermark, or already buffered) are
//!   dropped; gaps park later frames in a bounded reorder buffer until
//!   the missing LSN arrives.
//! * **Bootstrap** — when the replica's resume point has been recycled or
//!   checkpoint-compacted out of the primary's retained window,
//!   [`Catalog::export_image`] serializes the whole catalog at an LSN
//!   fence (checkpoint image format, [`crate::checkpoint`]); the replica
//!   installs it and resumes the frame stream at the fence.
//! * **Term fencing** — `TermBump` records ride the stream. A replica
//!   that has observed term *T* refuses any stream or bootstrap whose
//!   term is below *T* ([`StorageError::Replication`]) — a deposed
//!   primary cannot roll a promoted replica set back (split-brain).
//!
//! Replica mutations go through [`Catalog::apply_shipped`] — the body of
//! [`Catalog::write`] with logging off, the call recovery replay makes too
//! — so derived caches and snapshot versions move on the replica exactly
//! as on the primary, and a replica read at LSN *L* is byte-identical to a
//! primary snapshot pinned at *L*.

use crate::catalog::Catalog;
use crate::checkpoint::scan_checkpoints;
use crate::error::{Result, StorageError};
use crate::wal::{scan_log, WalRecord};
use std::collections::BTreeMap;

pub use crate::wal::ShippedFrame;

/// Out-of-order frames a replica will park before it starts shedding
/// arrivals (shed frames are re-shipped on a later round, so this bounds
/// memory, not correctness).
const PENDING_CAP: usize = 65_536;

/// Delivery channel for replication frames. Implementations may reorder,
/// duplicate, corrupt, or drop frames — the apply side is built to
/// tolerate all of it — but must never *invent* frames.
pub trait ShipTransport: std::fmt::Debug + Send {
    /// Deliver a batch, returning what arrives at the replica end.
    fn deliver(&mut self, frames: Vec<ShippedFrame>) -> Vec<ShippedFrame>;
}

/// The in-process transport: delivers every frame, unchanged, in order.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectTransport;

impl ShipTransport for DirectTransport {
    fn deliver(&mut self, frames: Vec<ShippedFrame>) -> Vec<ShippedFrame> {
        frames
    }
}

/// What a [`ChaosTransport`] actually did to the stream, for asserting
/// that a chaos test exercised real faults rather than passing vacuously.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered with one bit flipped.
    pub corrupted: u64,
    /// Adjacent frame pairs swapped (reordering).
    pub swapped: u64,
}

/// A seeded, misbehaving transport: per frame it may drop, duplicate, or
/// bit-flip; per batch it may swap adjacent frames. Deterministic from
/// the seed, so any failure reproduces from one `u64`.
#[derive(Debug)]
pub struct ChaosTransport {
    state: u64,
    seed: u64,
    /// Drop one frame in this many (0 disables).
    pub drop_1_in: u64,
    /// Duplicate one frame in this many (0 disables).
    pub dup_1_in: u64,
    /// Corrupt (bit-flip) one frame in this many (0 disables).
    pub corrupt_1_in: u64,
    /// Swap one adjacent pair in this many (0 disables).
    pub swap_1_in: u64,
    stats: ChaosStats,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosTransport {
    /// A transport misbehaving at the default rates (roughly one frame in
    /// five dropped, one in six duplicated, one in seven corrupted, one
    /// adjacent pair in four swapped), derived deterministically from
    /// `seed`.
    pub fn seeded(seed: u64) -> ChaosTransport {
        ChaosTransport {
            state: seed,
            seed,
            drop_1_in: 5,
            dup_1_in: 6,
            corrupt_1_in: 7,
            swap_1_in: 4,
            stats: ChaosStats::default(),
        }
    }

    /// The seed this transport was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// What the transport has done to the stream so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    fn roll(&mut self, one_in: u64) -> bool {
        one_in > 0 && splitmix64(&mut self.state).is_multiple_of(one_in)
    }
}

impl ShipTransport for ChaosTransport {
    fn deliver(&mut self, frames: Vec<ShippedFrame>) -> Vec<ShippedFrame> {
        let mut out: Vec<ShippedFrame> = Vec::with_capacity(frames.len());
        for frame in frames {
            if self.roll(self.drop_1_in) {
                self.stats.dropped += 1;
                continue;
            }
            if self.roll(self.corrupt_1_in) && !frame.bytes.is_empty() {
                let mut torn = frame.clone();
                let byte = (splitmix64(&mut self.state) as usize) % torn.bytes.len();
                let bit = splitmix64(&mut self.state) % 8;
                torn.bytes[byte] ^= 1 << bit;
                self.stats.corrupted += 1;
                out.push(torn);
                continue;
            }
            if self.roll(self.dup_1_in) {
                self.stats.duplicated += 1;
                out.push(frame.clone());
            }
            out.push(frame);
        }
        let mut i = 1;
        while i < out.len() {
            if self.roll(self.swap_1_in) {
                out.swap(i - 1, i);
                self.stats.swapped += 1;
                i += 1; // don't re-swap the same pair
            }
            i += 1;
        }
        out
    }
}

/// Cumulative counters for one replica's apply side.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Records applied to the replica catalog.
    pub applied_records: u64,
    /// Valid records that could not apply to the current state
    /// (skip-and-count, the recovery contract).
    pub skipped_records: u64,
    /// Frames dropped as duplicates (already applied or already buffered).
    pub duplicates: u64,
    /// Frames rejected by CRC / decode re-verification on arrival.
    pub rejected_corrupt: u64,
    /// Bootstrap images installed.
    pub bootstraps: u64,
    /// Streams or bootstraps refused for carrying a regressed term.
    pub term_refusals: u64,
}

/// Per-call outcome of [`ReplicaApplier::apply`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReport {
    /// Records applied, in LSN order.
    pub applied: u64,
    /// Records skipped (valid but inapplicable).
    pub skipped: u64,
    /// Duplicate frames dropped.
    pub duplicates: u64,
    /// Frames rejected by re-verification.
    pub rejected: u64,
}

/// The replica-side state of one replication subscription: the applied-LSN
/// watermark, the reorder buffer, and the highest term observed. The
/// applier owns no catalog — callers pass the replica [`Catalog`] to
/// [`ReplicaApplier::apply`], so a serving layer can keep the applier
/// under its own lock while queries read the catalog freely.
#[derive(Debug, Default)]
pub struct ReplicaApplier {
    applied_lsn: u64,
    pending: BTreeMap<u64, WalRecord>,
    term: u64,
    stats: ReplicaStats,
}

impl ReplicaApplier {
    /// A fresh subscription: nothing applied, next expected LSN is 1 (a
    /// first sync against a compacted primary bootstraps automatically).
    pub fn new() -> ReplicaApplier {
        ReplicaApplier::default()
    }

    /// Highest LSN applied to the replica catalog.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// The next LSN this replica needs.
    pub fn next_lsn(&self) -> u64 {
        self.applied_lsn + 1
    }

    /// Highest replication term observed in-stream or via bootstrap.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Cumulative apply-side counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Frames parked in the reorder buffer (gap waiting to be filled).
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Reset the subscription for a *new* stream (e.g. after a failover
    /// promoted a different primary, whose LSN space is unrelated): clears
    /// the watermark and reorder buffer so the next sync bootstraps from
    /// the new primary's image. The observed term survives — that is the
    /// fence that keeps a deposed primary out.
    pub fn resubscribe(&mut self) {
        self.applied_lsn = 0;
        self.pending.clear();
    }

    /// Verify, sequence, and apply a batch of shipped frames to `catalog`.
    ///
    /// Every frame is re-scanned ([`scan_log`]): torn or bit-flipped
    /// frames are rejected and counted, never applied. Valid frames
    /// buffer by LSN and drain in order through
    /// [`Catalog::apply_shipped`]. Errors only on term regression
    /// ([`StorageError::Replication`]) — a stale primary's stream must
    /// not be half-applied.
    pub fn apply(&mut self, catalog: &Catalog, frames: &[ShippedFrame]) -> Result<ApplyReport> {
        let mut report = ApplyReport::default();
        for frame in frames {
            let scan = scan_log(&frame.bytes);
            if scan.records.len() != 1
                || scan.corruption.is_some()
                || scan.valid_len != frame.bytes.len() as u64
            {
                self.stats.rejected_corrupt += 1;
                report.rejected += 1;
                continue;
            }
            // Trust only the LSN inside the checksummed payload.
            let lsn = scan.lsns[0];
            let record = scan.records.into_iter().next().expect("len checked");
            if let WalRecord::TermBump { term } = &record {
                if *term < self.term {
                    self.stats.term_refusals += 1;
                    return Err(StorageError::Replication(format!(
                        "stale primary: stream term {term} is below the replica's term {}",
                        self.term
                    )));
                }
            }
            if lsn <= self.applied_lsn || self.pending.contains_key(&lsn) {
                self.stats.duplicates += 1;
                report.duplicates += 1;
                continue;
            }
            if self.pending.len() >= PENDING_CAP {
                // Shed: the frame will be re-shipped once the gap closes.
                continue;
            }
            self.pending.insert(lsn, record);
        }
        while let Some(record) = self.pending.remove(&(self.applied_lsn + 1)) {
            if let WalRecord::TermBump { term } = &record {
                self.term = self.term.max(*term);
            }
            if catalog.apply_shipped(&record) {
                self.stats.applied_records += 1;
                report.applied += 1;
            } else {
                self.stats.skipped_records += 1;
                report.skipped += 1;
            }
            self.applied_lsn += 1;
        }
        Ok(report)
    }

    /// Install a bootstrap image (see [`Catalog::export_image`]) into
    /// `catalog` and move the watermark to the image's LSN fence.
    ///
    /// Errors: [`StorageError::Replication`] when `source_term` regresses
    /// below the replica's observed term (stale primary — do not retry);
    /// [`StorageError::Checkpoint`] when the image does not decode (torn
    /// in transit — retry on a later round). Returns the fence LSN.
    pub fn bootstrap(
        &mut self,
        catalog: &Catalog,
        image_frame: &[u8],
        source_term: u64,
    ) -> Result<u64> {
        if source_term < self.term {
            self.stats.term_refusals += 1;
            return Err(StorageError::Replication(format!(
                "stale primary: bootstrap term {source_term} is below the replica's term {}",
                self.term
            )));
        }
        let (image, why) = scan_checkpoints(image_frame);
        let Some(image) = image else {
            self.stats.rejected_corrupt += 1;
            return Err(StorageError::Checkpoint(format!(
                "bootstrap image rejected: {}",
                why.unwrap_or_else(|| "empty image".into())
            )));
        };
        let fence = image.lsn.max(1);
        catalog.install_image(image);
        self.applied_lsn = fence - 1;
        self.term = self.term.max(source_term);
        self.pending = self.pending.split_off(&fence);
        self.stats.bootstraps += 1;
        Ok(fence)
    }
}

/// Outcome of one [`ReplicationStream::sync`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Rounds run (each round ships one batch or one bootstrap attempt).
    pub rounds: u64,
    /// Whether the replica reached the primary's `next_lsn`.
    pub caught_up: bool,
    /// Frames handed to the transport.
    pub shipped_frames: u64,
    /// Records applied on the replica.
    pub applied_records: u64,
    /// Records skipped on the replica (valid but inapplicable).
    pub skipped_records: u64,
    /// Duplicate frames the replica dropped.
    pub duplicates: u64,
    /// Frames (or bootstrap images) rejected by re-verification.
    pub rejected_frames: u64,
    /// Bootstrap images shipped (catch-up fell off the retained window).
    pub bootstraps_attempted: u64,
    /// Bootstrap images successfully installed.
    pub bootstraps: u64,
}

/// One primary→replica subscription: a transport plus a round budget.
///
/// [`ReplicationStream::sync`] loops catch-up rounds until the replica is
/// caught up or the budget runs out — bounded, so a transport that drops
/// every frame cannot hang the caller. Lost frames are simply re-shipped
/// on the next round (the applier's watermark never advanced past them).
#[derive(Debug)]
pub struct ReplicationStream {
    transport: Box<dyn ShipTransport>,
    max_rounds: u64,
}

impl ReplicationStream {
    /// A stream over `transport` with the default round budget (64).
    pub fn new(transport: Box<dyn ShipTransport>) -> ReplicationStream {
        ReplicationStream {
            transport,
            max_rounds: 64,
        }
    }

    /// Replace the per-sync round budget (minimum 1).
    pub fn with_max_rounds(mut self, rounds: u64) -> ReplicationStream {
        self.max_rounds = rounds.max(1);
        self
    }

    /// The transport, e.g. to read a [`ChaosTransport`]'s fault counters.
    pub fn transport(&self) -> &dyn ShipTransport {
        self.transport.as_ref()
    }

    /// Run catch-up rounds from `primary` into `replica` until the
    /// applier reaches the primary's `next_lsn` or the round budget is
    /// spent (`caught_up` in the report says which). Each round ships the
    /// retained frames past the replica's watermark — or, when that
    /// history was compacted away, a full bootstrap image at an LSN
    /// fence. Errors propagate only for unrecoverable conditions (term
    /// regression, a sick primary store); in-flight corruption is counted
    /// and retried.
    pub fn sync(
        &mut self,
        primary: &Catalog,
        replica: &Catalog,
        applier: &mut ReplicaApplier,
    ) -> Result<SyncReport> {
        let mut report = SyncReport::default();
        for _ in 0..self.max_rounds {
            let target = primary.with_wal(|w| w.next_lsn());
            if applier.next_lsn() >= target {
                report.caught_up = true;
                return Ok(report);
            }
            report.rounds += 1;
            let from = applier.next_lsn();
            match primary.with_wal(|w| w.ship_since(from))? {
                Some(frames) => {
                    report.shipped_frames += frames.len() as u64;
                    let delivered = self.transport.deliver(frames);
                    let a = applier.apply(replica, &delivered)?;
                    report.applied_records += a.applied;
                    report.skipped_records += a.skipped;
                    report.duplicates += a.duplicates;
                    report.rejected_frames += a.rejected;
                }
                None => {
                    let (frame, fence, term) = match primary.export_image() {
                        Ok(x) => x,
                        // Concurrent writers kept moving the fence; the
                        // next round retries.
                        Err(StorageError::CheckpointContended) => continue,
                        Err(e) => return Err(e),
                    };
                    report.bootstraps_attempted += 1;
                    let delivered = self.transport.deliver(vec![ShippedFrame {
                        lsn: fence,
                        bytes: frame,
                    }]);
                    for image in &delivered {
                        match applier.bootstrap(replica, &image.bytes, term) {
                            Ok(_) => {
                                report.bootstraps += 1;
                                break;
                            }
                            // Torn in transit: re-ship next round.
                            Err(StorageError::Checkpoint(_)) => report.rejected_frames += 1,
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }
        report.caught_up = applier.next_lsn() >= primary.with_wal(|w| w.next_lsn());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Change;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use crate::wal::Rows;

    /// A catalog whose WAL holds one `CreateTable` frame plus one
    /// `BulkInsert` frame per row — enough stream volume for chaos tests.
    fn seeded_catalog(rows: usize) -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        catalog.create_table("f", Table::empty(schema)).unwrap();
        for i in 0..rows {
            let row = [vec![Value::Int(i as i64 % 7), Value::Float(i as f64)]];
            catalog
                .write("f", Change::Append(Rows::Values(&row)))
                .unwrap();
        }
        catalog
    }

    fn rows_of(catalog: &Catalog, name: &str) -> Vec<Vec<Value>> {
        catalog.table(name).unwrap().read().rows().collect()
    }

    #[test]
    fn direct_ship_reaches_byte_identity() {
        let primary = seeded_catalog(100);
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut stream = ReplicationStream::new(Box::new(DirectTransport));
        let report = stream.sync(&primary, &replica, &mut applier).unwrap();
        assert!(report.caught_up, "{report:?}");
        assert_eq!(rows_of(&primary, "f"), rows_of(&replica, "f"));
        assert_eq!(applier.stats().rejected_corrupt, 0);
        // Replica apply is the write path: the cache is cold.
        assert!(replica.combo_cache().is_empty());
    }

    #[test]
    fn duplicated_batches_are_idempotent() {
        let primary = seeded_catalog(10);
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let frames = primary
            .with_wal(|w| w.ship_since(1))
            .unwrap()
            .expect("retained");
        applier.apply(&replica, &frames).unwrap();
        let report = applier.apply(&replica, &frames).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.duplicates, frames.len() as u64);
        assert_eq!(rows_of(&primary, "f"), rows_of(&replica, "f"));
    }

    #[test]
    fn reordered_frames_buffer_until_the_gap_closes() {
        let primary = seeded_catalog(10);
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut frames = primary
            .with_wal(|w| w.ship_since(1))
            .unwrap()
            .expect("retained");
        frames.reverse();
        let (head, tail) = frames.split_at(frames.len() - 1);
        applier.apply(&replica, head).unwrap();
        assert_eq!(applier.applied_lsn(), 0, "gap at LSN 1 blocks everything");
        assert_eq!(applier.pending_frames(), head.len());
        applier.apply(&replica, tail).unwrap();
        assert_eq!(applier.pending_frames(), 0);
        assert_eq!(rows_of(&primary, "f"), rows_of(&replica, "f"));
    }

    #[test]
    fn corrupt_frames_are_rejected_then_recovered_by_reship() {
        let primary = seeded_catalog(10);
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut frames = primary
            .with_wal(|w| w.ship_since(1))
            .unwrap()
            .expect("retained");
        let n = frames.len();
        frames[0].bytes[9] ^= 0x40; // flip a payload bit under the CRC
        let report = applier.apply(&replica, &frames).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(applier.applied_lsn(), 0, "later frames parked behind gap");
        // Re-ship from the watermark: the clean copy closes the gap.
        let again = primary
            .with_wal(|w| w.ship_since(applier.next_lsn()))
            .unwrap()
            .expect("retained");
        let report = applier.apply(&replica, &again).unwrap();
        assert_eq!(report.applied as usize, n);
        assert_eq!(rows_of(&primary, "f"), rows_of(&replica, "f"));
    }

    #[test]
    fn term_regression_is_refused() {
        let primary = seeded_catalog(2);
        primary.begin_term(7).unwrap();
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut stream = ReplicationStream::new(Box::new(DirectTransport));
        stream.sync(&primary, &replica, &mut applier).unwrap();
        assert_eq!(applier.term(), 7);

        // A deposed primary still at term 3 tries to ship.
        let stale = seeded_catalog(2);
        stale.begin_term(3).unwrap();
        let frames = stale
            .with_wal(|w| w.ship_since(applier.next_lsn()))
            .unwrap()
            .unwrap_or_default();
        // Craft guarantees at least the TermBump frame is in range only if
        // LSNs align; ship from 1 to be sure the TermBump record arrives.
        let frames = if frames.iter().any(|f| {
            scan_log(&f.bytes)
                .records
                .iter()
                .any(|r| matches!(r, WalRecord::TermBump { .. }))
        }) {
            frames
        } else {
            stale.with_wal(|w| w.ship_since(1)).unwrap().expect("full")
        };
        let err = applier.apply(&replica, &frames).unwrap_err();
        assert!(
            matches!(err, StorageError::Replication(_)),
            "stale stream must be refused, got {err}"
        );
        let err = applier.bootstrap(&replica, &[], 3).unwrap_err();
        assert!(matches!(err, StorageError::Replication(_)), "{err}");
    }

    #[test]
    fn compacted_primary_forces_bootstrap() {
        let primary = seeded_catalog(50);
        primary.set_checkpoint_store(
            Box::new(crate::checkpoint::MemCheckpointStore::new()),
            crate::checkpoint::CheckpointPolicy::disabled(),
        );
        primary.checkpoint_now().unwrap(); // compacts the whole prefix
        assert!(
            primary.with_wal(|w| w.ship_since(1)).unwrap().is_none(),
            "history below the fence must be gone"
        );
        let replica = Catalog::new();
        let mut applier = ReplicaApplier::new();
        let mut stream = ReplicationStream::new(Box::new(DirectTransport));
        let report = stream.sync(&primary, &replica, &mut applier).unwrap();
        assert!(report.caught_up);
        assert_eq!(report.bootstraps, 1, "{report:?}");
        assert_eq!(rows_of(&primary, "f"), rows_of(&replica, "f"));
    }

    #[test]
    fn chaos_transport_is_deterministic_and_reports_faults() {
        let primary = seeded_catalog(40);
        let frames = primary.with_wal(|w| w.ship_since(1)).unwrap().unwrap();
        let mut a = ChaosTransport::seeded(99);
        let mut b = ChaosTransport::seeded(99);
        assert_eq!(a.deliver(frames.clone()), b.deliver(frames.clone()));
        assert_eq!(a.stats(), b.stats());
        let total = a.stats().dropped + a.stats().duplicated + a.stats().corrupted;
        assert!(total > 0, "default rates must actually misbehave");
    }
}
