//! Named-table catalog.
//!
//! Holds the stored tables: the fact table `F`, and the `Fk` an UPDATE plan
//! stores while it runs (every other intermediate of a percentage query is
//! a value the query owns). Tables are individually lockable so an UPDATE
//! mutates in place (the cost the paper measures) instead of copy-on-write.
//!
//! A registered table changes in one function, [`Catalog::write`]: it
//! resolves the table, holds its guard across validate → append the WAL
//! record → apply, bumps the version and journals what the change did
//! ([`crate::journal`]) once, and checks the checkpoint policy after the
//! guard is gone. Replica apply and recovery replay run the same body with
//! logging off.
//!
//! Two robustness layers ride on top of the table map:
//!
//! * **Snapshot reads** — [`Catalog::pin_table`] freezes a table's current
//!   contents into an immutable [`SnapshotView`] (an `Arc`-shared
//!   copy-on-write clone registered under a hidden `__snap…` alias), so
//!   scans read one stable version while writers keep appending. Pinning
//!   costs one shallow [`Table::clone`]; the first mutation after a pin
//!   detaches the writer's columns.
//! * **Checkpoints** — [`Catalog::checkpoint_now`] serializes the whole
//!   catalog into a [`crate::checkpoint`] image at one WAL LSN and
//!   compacts the log prefix behind it; [`Catalog::recover_with_checkpoint`]
//!   loads the newest valid image and replays only the WAL suffix.

use crate::checkpoint::{
    encode_image, scan_checkpoints, CheckpointImage, CheckpointPolicy, CheckpointStore,
};
use crate::error::{Result, StorageError};
use crate::journal::{Entry, Journal, TableDelta};
use crate::lattice::LatticeCache;
use crate::log::LogStore;
use crate::retry::RetryPolicy;
use crate::table::Table;
use crate::value::Value;
use crate::wal::{scan_log, Rows, Wal, WalRecord, WalStats, WriteReceipt, DEFAULT_CAPACITY};
use pa_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A table shared between operators, lockable for in-place mutation.
pub type SharedTable = Arc<RwLock<Table>>;

/// One change to the stored state — exactly the [`WalRecord`] kinds. What
/// [`Catalog::write`] is told is *what* changes (rows appended, cells
/// overwritten), not merely that something did.
pub enum Change<'a> {
    /// Register `table` under the name; `replace` decides whether a taken
    /// name is an error or is overwritten. Logged as the schema plus, when
    /// the table already holds rows, one bulk record.
    Create {
        /// The table to register.
        table: SharedTable,
        /// Overwrite an existing table of that name.
        replace: bool,
    },
    /// Unregister the name. Handles to the table keep its data.
    Drop,
    /// Append rows: one bulk record for the batch.
    Append(Rows<'a>),
    /// Overwrite columns `cols` of a run of rows: one record per row
    /// (Table 4's UPDATE penalty), one version bump for the statement.
    Update {
        /// The columns every updated row overwrites.
        cols: &'a [usize],
        /// Called under the table's write guard until it returns `None`:
        /// pushes the next row's new values, parallel to `cols`, and
        /// returns that row. It sees every earlier row's update applied.
        next: &'a mut dyn FnMut(&Table, &mut Vec<Value>) -> Option<usize>,
    },
    /// Raise the replication term (names no table).
    Term(u64),
}

/// Name prefix of the hidden alias tables backing pinned snapshots. Names
/// under it are filtered from [`Catalog::table_names`], never WAL-logged,
/// and refused as snapshot sources.
pub const SNAP_PREFIX: &str = "__snap";

/// An immutable view of one table pinned at a point in time.
///
/// The view holds the frozen table under a hidden catalog alias; queries
/// rewrite their table reference to [`SnapshotView::alias`] and scan that,
/// while writers keep mutating the live table. Dropping the last `Arc`
/// releases the pin; the catalog sweeps the alias on a later pin.
#[derive(Debug)]
pub struct SnapshotView {
    table: SharedTable,
    alias: String,
    source: String,
    epoch: u64,
    version: u64,
    rows: usize,
}

impl SnapshotView {
    /// The frozen table (never mutated after the pin).
    pub fn table(&self) -> &SharedTable {
        &self.table
    }

    /// Hidden catalog name the frozen table is registered under; queries
    /// scan this alias.
    pub fn alias(&self) -> &str {
        &self.alias
    }

    /// Name of the live table this view was pinned from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Global mutation epoch at pin time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-table version at pin time (bumps on every logged mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Row high-water mark: rows visible to this snapshot.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// One live pin per source table, plus aliases awaiting sweep.
#[derive(Debug, Default)]
struct SnapRegistry {
    /// Newest pin per source table.
    current: BTreeMap<String, SnapEntry>,
    /// Aliases whose entry was superseded; removed once unpinned.
    retired: Vec<RetiredSnap>,
}

#[derive(Debug)]
struct RetiredSnap {
    alias: String,
    source: String,
    version: u64,
    view: Weak<SnapshotView>,
}

#[derive(Debug)]
struct SnapEntry {
    version: u64,
    alias: String,
    view: Weak<SnapshotView>,
}

/// Checkpoint wiring: where images go, when to cut them, and how the last
/// attempt went.
struct CheckpointState {
    store: Box<dyn CheckpointStore>,
    policy: CheckpointPolicy,
    /// WAL counters at the last successful checkpoint, for policy `due`.
    last_records: u64,
    last_bytes: u64,
    /// True after a failed checkpoint: the catalog runs WAL-only until a
    /// later attempt succeeds. Writes are never failed by this.
    degraded: bool,
    retry: RetryPolicy,
}

impl std::fmt::Debug for CheckpointState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointState")
            .field("policy", &self.policy)
            .field("degraded", &self.degraded)
            .finish()
    }
}

/// Registered handles mirroring checkpoint/snapshot activity into a
/// [`MetricsRegistry`] (Prometheus names `pa_storage_checkpoint_*`,
/// `pa_storage_snapshot_*`).
#[derive(Debug)]
struct CatalogMetrics {
    checkpoint_writes: Arc<Counter>,
    checkpoint_failures: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    checkpoint_lsn: Arc<Gauge>,
    checkpoint_degraded: Arc<Gauge>,
    snapshot_epoch: Arc<Gauge>,
    snapshot_pins: Arc<Counter>,
}

impl CatalogMetrics {
    fn register(registry: &MetricsRegistry) -> CatalogMetrics {
        CatalogMetrics {
            checkpoint_writes: registry.counter(
                "pa_storage_checkpoint_writes_total",
                "checkpoint images written successfully",
            ),
            checkpoint_failures: registry.counter(
                "pa_storage_checkpoint_failures_total",
                "checkpoint attempts that failed (catalog degrades to WAL-only)",
            ),
            checkpoint_bytes: registry.counter(
                "pa_storage_checkpoint_bytes_total",
                "checkpoint frame bytes written",
            ),
            checkpoint_lsn: registry.gauge(
                "pa_storage_checkpoint_lsn",
                "WAL LSN fence of the newest checkpoint",
            ),
            checkpoint_degraded: registry.gauge(
                "pa_storage_checkpoint_degraded",
                "1 while the catalog runs WAL-only after a checkpoint failure",
            ),
            snapshot_epoch: registry
                .gauge("pa_storage_snapshot_epoch", "global catalog mutation epoch"),
            snapshot_pins: registry.counter(
                "pa_storage_snapshot_pins_total",
                "snapshot views pinned by queries",
            ),
        }
    }
}

/// Catalog of named tables, the level cache, the WAL, and the
/// checkpoint/snapshot machinery.
#[derive(Debug, Default)]
pub struct Catalog {
    /// The registered tables. Lock order: the map before a table's guard,
    /// never under it — a checkpoint read-locks every table under the map.
    tables: RwLock<BTreeMap<String, SharedTable>>,
    lattice: LatticeCache,
    wal: Mutex<Wal>,
    /// Global mutation epoch: bumps on every logged create/drop/mutation.
    epoch: AtomicU64,
    /// Per-table mutation versions (absent → 0), driving snapshot reuse
    /// and naming the data a cached level describes.
    versions: RwLock<BTreeMap<String, u64>>,
    /// Per-table write journals: what each append and update since the
    /// oldest cached version changed. Taken under the table's write guard.
    journals: Mutex<BTreeMap<String, Journal>>,
    /// Snapshot pins and retired aliases. Lock order: `snaps` before
    /// `tables`, never the reverse.
    snaps: Mutex<SnapRegistry>,
    /// Monotonic discriminator for snapshot alias names, so two freezes of
    /// the same (table, version) never collide.
    snap_seq: AtomicU64,
    /// Set when a sweep dropped a snapshot version nobody pins any more;
    /// the next live write gives the allocator's free pages back
    /// ([`crate::memory::release_free_pages`]).
    versions_freed: AtomicBool,
    /// Checkpoint wiring, absent until a store is attached. Held across a
    /// whole checkpoint attempt to serialize checkpointers.
    checkpoint: Mutex<Option<CheckpointState>>,
    metrics: RwLock<Option<CatalogMetrics>>,
    /// Replication term this catalog last wrote or applied (0 = never
    /// participated in a replica set). Monotonic; raised by
    /// [`Catalog::begin_term`] and by replaying / applying `TermBump`
    /// records.
    term: AtomicU64,
    /// Non-zero once [`Catalog::seal`] fenced this catalog off (the value
    /// is the deposing term): [`Catalog::ensure_writable`] then refuses
    /// DML, so a deposed primary cannot diverge after a failover.
    sealed_at: AtomicU64,
}

impl Catalog {
    /// Empty catalog with a default WAL.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Catalog with WAL disabled (ablation runs).
    pub fn without_wal() -> Catalog {
        Catalog::from_wal(Wal::disabled())
    }

    /// Empty catalog logging to the given WAL (e.g. one over a
    /// [`crate::log::FileLogStore`] or a fault-injecting store).
    pub fn from_wal(wal: Wal) -> Catalog {
        Catalog {
            wal: Mutex::new(wal),
            ..Catalog::default()
        }
    }

    /// Bump the global epoch and `name`'s version, and account for what
    /// changed: [`Catalog::apply`] calls this once per change, under the
    /// guard the change was made under, so the next [`Catalog::pin_table`]
    /// freezes a fresh view. `journal` is what an append or update did, and
    /// `rows` the table's length after it: the changes are journaled under
    /// the new version, and the cached levels of older versions stay, to be
    /// rolled forward by a reader that wants the new one. `None` — a create,
    /// a drop, a change made around [`Catalog::write`] — removes the journal
    /// and drops every cached level of the table, so nothing derived
    /// from its data outlives the rows it was computed from. Hidden
    /// snapshot aliases are immutable by contract: no version.
    fn note_changed(&self, name: &str, journal: Option<(Vec<Entry>, usize)>) {
        if name.starts_with(SNAP_PREFIX) {
            return;
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut versions = self.versions.write();
        let version = versions.entry(name.to_string()).or_insert(0);
        *version += 1;
        let version = *version;
        drop(versions);
        match journal {
            Some((changes, rows)) => self.journal(name, version, changes, rows),
            None => self.forget_derived(name),
        }
        if let Some(m) = &*self.metrics.read() {
            m.snapshot_epoch.set(epoch as i64);
        }
    }

    /// Journal `changes`, which took `name` to `version` and left it `rows`
    /// long, and trim the journal to the oldest version a cached level of
    /// the table describes. A journal that covers as many rows as the
    /// table, or holds more bytes than the level cache may, drops its
    /// oldest changes until it fits, and the cached levels older than what
    /// it still reaches go with them: rolling one of those forward would
    /// read as many rows as a scan. The newer levels stay, to be rolled.
    fn journal(&self, name: &str, version: u64, changes: Vec<Entry>, rows: usize) {
        let mut journals = self.journals.lock();
        // A table with no journal has had no change journaled since it was
        // created or forgotten: this one is the first.
        let journal =
            (journals.entry(name.to_string())).or_insert_with(|| Journal::at(version - 1));
        journal.record(version, changes);
        journal.trim(self.lattice.oldest_version(name), version);
        if let Some(base) = journal.fit(rows, self.lattice.budget()) {
            self.lattice.invalidate_before(name, base);
        }
    }

    /// Drop `name`'s journal and every cached level of the table: nothing
    /// cached can be rolled to its current version, and the next change
    /// starts a journal afresh.
    fn forget_derived(&self, name: &str) {
        self.journals.lock().remove(name);
        self.lattice.invalidate_table(name);
    }

    /// What changed in `name` from version `from` to version `to`, when
    /// the write journal still reaches back to `from`: the rows appended,
    /// and each overwritten cell with its value at `from`. A reader holding
    /// a cached level of `from` and a pin of `to` rolls the level forward
    /// over it.
    pub fn changes(&self, name: &str, from: u64, to: u64) -> Option<TableDelta> {
        self.journals.lock().get(name)?.since(from, to)
    }

    /// Make one logged change to the stored state: the write path of every
    /// live writer. See [`Change`] for what can change and
    /// [`WriteReceipt`] for what comes back.
    ///
    /// The order is validate → append the record → apply, all under the
    /// guard that serializes writers of the thing changed (the name map
    /// for DDL, the table's own write guard for data), so a write whose
    /// record the log device refuses returns the device's error and is
    /// *not visible*: what a reader can see is what recovery will rebuild.
    /// An `Update` that fails on its k-th row keeps rows `0..k` — each is
    /// in the log — and returns the error (a committed prefix). DDL is the
    /// exception on a sick device, as on a real one: create and drop go
    /// ahead in memory, the lost record is counted in
    /// [`WalStats::write_errors`] and surfaces at recovery.
    pub fn write(&self, name: &str, change: Change<'_>) -> Result<WriteReceipt> {
        self.apply(name, change, true)
    }

    /// The body of [`Catalog::write`]; `log` is the only thing that differs
    /// between its callers. Replica apply ([`Catalog::apply_shipped`]) and
    /// recovery replay pass `false`: their records are already in a log,
    /// and re-logging would interleave foreign LSNs with this catalog's
    /// own. Versions, the epoch and the derived caches move exactly as for
    /// a live write.
    fn apply(&self, name: &str, change: Change<'_>, log: bool) -> Result<WriteReceipt> {
        // Hidden snapshot aliases were never logged; neither is their drop.
        let log = log && !name.starts_with(SNAP_PREFIX);
        let mut receipt = WriteReceipt::default();
        let outcome = match change {
            Change::Create { table, replace } => {
                let mut tables = self.tables.write();
                if !replace && tables.contains_key(name) {
                    return Err(StorageError::TableExists(name.into()));
                }
                let t = table.read();
                if log {
                    let mut wal = self.wal.lock();
                    if let Ok(created) = wal.log_create_table(name, t.schema()) {
                        receipt += created;
                        if t.num_rows() > 0 {
                            receipt += wal
                                .log_bulk_insert(name, Rows::Table(&t), &t)
                                .unwrap_or_default();
                        }
                    }
                }
                receipt.rows = t.num_rows() as u64;
                drop(t);
                tables.insert(name.to_string(), table);
                self.note_changed(name, None);
                Ok(())
            }
            Change::Drop => {
                let mut tables = self.tables.write();
                if !tables.contains_key(name) {
                    return Err(StorageError::TableNotFound(name.into()));
                }
                if log {
                    receipt += self.wal.lock().log_drop_table(name).unwrap_or_default();
                }
                tables.remove(name);
                self.note_changed(name, None);
                Ok(())
            }
            Change::Append(rows) => {
                let shared = self.table(name)?;
                let mut t = shared.write();
                match rows {
                    Rows::Values(rows) => rows.iter().try_for_each(|r| t.validate_row(r))?,
                    Rows::Table(source) => t.check_extend(source)?,
                }
                if log {
                    receipt += self.wal.lock().log_bulk_insert(name, rows, &t)?;
                }
                let from = t.num_rows();
                match rows {
                    Rows::Values(rows) => t.push_valid_rows(rows),
                    Rows::Table(source) => t.extend_from(source)?,
                }
                let to = t.num_rows();
                receipt.rows = to as u64;
                self.note_changed(name, Some((vec![Entry::Append(from..to)], to)));
                Ok(())
            }
            Change::Update { cols, next } => {
                let shared = self.table(name)?;
                let mut t = shared.write();
                let mut after = Vec::new();
                // The rows written and their before-images, `cols.len()`
                // values a row: one journal entry for the statement.
                let (mut rows, mut before) = (Vec::new(), Vec::new());
                let outcome = (|| loop {
                    after.clear();
                    let Some(row) = next(&t, &mut after) else {
                        return Ok(());
                    };
                    t.check_cells(row, cols, &after)?;
                    before.truncate(rows.len() * cols.len());
                    before.extend(cols.iter().map(|&c| t.column(c).get(row)));
                    if log {
                        let image = &before[rows.len() * cols.len()..];
                        receipt += (self.wal.lock()).log_update(name, row, cols, image, &after)?;
                    }
                    t.set_checked_cells(row, cols, &after);
                    rows.push(row);
                })();
                receipt.rows = t.num_rows() as u64;
                if !rows.is_empty() {
                    before.truncate(rows.len() * cols.len());
                    let cols = cols.to_vec();
                    let entry = Entry::Update { cols, rows, before };
                    self.note_changed(name, Some((vec![entry], t.num_rows())));
                }
                outcome
            }
            Change::Term(term) => {
                if log {
                    receipt += self.wal.lock().log_term_bump(term)?;
                }
                self.observe_term(term);
                Ok(())
            }
        };
        // Every guard is released: a due checkpoint can fence and cut now
        // (it read-locks every table, so it must never run under one), and
        // the pages of a version a reader's sweep freed since the last write
        // go back on the writer's time, not on a reader's.
        if log {
            self.maybe_checkpoint();
            if self.versions_freed.swap(false, Ordering::Relaxed) {
                crate::memory::release_free_pages();
            }
        }
        outcome.map(|()| receipt)
    }

    /// [`Catalog::write`] of one row's cells: `values[i]` replaces column
    /// `cols[i]` of `row`, one `UpdateRow` record.
    pub fn update_cells(
        &self,
        name: &str,
        row: usize,
        cols: &[usize],
        values: &[Value],
    ) -> Result<WriteReceipt> {
        self.apply_cells(name, row, cols, values, true)
    }

    fn apply_cells(
        &self,
        name: &str,
        row: usize,
        cols: &[usize],
        values: &[Value],
        log: bool,
    ) -> Result<WriteReceipt> {
        let mut row = Some(row);
        let next = &mut |_: &Table, after: &mut Vec<Value>| {
            after.extend_from_slice(values);
            row.take()
        };
        self.apply(name, Change::Update { cols, next }, log)
    }

    /// Register a table. Errors when the name is taken.
    pub fn create_table(&self, name: impl Into<String>, table: Table) -> Result<SharedTable> {
        self.create(&name.into(), table, false)
    }

    /// Register or replace a table.
    pub fn create_or_replace_table(&self, name: impl Into<String>, table: Table) -> SharedTable {
        self.create(&name.into(), table, true)
            .expect("a replacing create has no failing input")
    }

    fn create(&self, name: &str, table: Table, replace: bool) -> Result<SharedTable> {
        let table: SharedTable = Arc::new(RwLock::new(table));
        let change = Change::Create {
            table: Arc::clone(&table),
            replace,
        };
        self.write(name, change)?;
        Ok(table)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<SharedTable> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.into()))
    }

    /// Drop a table. Errors when missing.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.write(name, Change::Drop).map(drop)
    }

    /// Drop every table whose name starts with `prefix` (a caller's own
    /// scratch namespace, e.g. `q7_Fk`, `q7_Fj0`, ...). Returns how many
    /// tables were dropped. A no-op for an empty catalog or an unmatched
    /// prefix.
    ///
    /// Callers holding [`SharedTable`] handles to a dropped table keep
    /// them: dropping unregisters the name, it does not free the data.
    pub fn drop_prefixed(&self, prefix: &str) -> usize {
        if prefix.is_empty() {
            return 0; // refuse to silently clear the whole catalog
        }
        let names: Vec<String> = {
            let tables = self.tables.read();
            tables
                .range(prefix.to_string()..)
                .take_while(|(name, _)| name.starts_with(prefix))
                .map(|(name, _)| name.clone())
                .collect()
        };
        let mut dropped = 0;
        for name in &names {
            if self.drop_table(name).is_ok() {
                dropped += 1;
            }
        }
        dropped
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Sorted table names. Hidden snapshot aliases are filtered out —
    /// they are plumbing, not part of the user-visible catalog.
    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .keys()
            .filter(|n| !n.starts_with(SNAP_PREFIX))
            .cloned()
            .collect()
    }

    /// Run `f` with the write-ahead log: sync, snapshot, shipping,
    /// compaction. Appending records is [`Catalog::write`]'s job alone.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.wal.lock())
    }

    /// [`Catalog::lattice_cache`], under the name callers that only want a
    /// table's distinct `BY` combinations know it by: a combination set is
    /// a cached level with no lanes.
    pub fn combo_cache(&self) -> &LatticeCache {
        &self.lattice
    }

    /// The level cache (see [`LatticeCache`]).
    pub fn lattice_cache(&self) -> &LatticeCache {
        &self.lattice
    }

    /// WAL counters snapshot.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.lock().stats()
    }

    /// Verify structural invariants of every table (column lengths,
    /// validity bitmaps, dictionary codes). See [`Table::check_integrity`].
    pub fn check_integrity(&self) -> Result<()> {
        for (name, table) in self.tables.read().iter() {
            table.read().check_integrity().map_err(|e| {
                StorageError::Wal(format!("table {name} failed integrity check: {e}"))
            })?;
        }
        Ok(())
    }

    // ---- snapshot reads --------------------------------------------------

    /// Global mutation epoch (bumps on every logged DDL/data mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// `name`'s mutation version (0 for a never-mutated or absent table).
    pub fn table_version(&self, name: &str) -> u64 {
        self.versions.read().get(name).copied().unwrap_or(0)
    }

    fn count_pin(&self) {
        if let Some(m) = &*self.metrics.read() {
            m.snapshot_pins.inc();
        }
    }

    /// Pin an immutable snapshot of `name`'s current contents.
    ///
    /// Cheap: one shallow [`Table::clone`] (the columns are `Arc`-shared
    /// until the live table's next write detaches them) registered under a
    /// hidden `__snap…` alias. Repeat pins of an unchanged table reuse the
    /// same frozen alias. The view's [`SnapshotView::version`] names the
    /// data it holds — it is read under the table's guard, which every
    /// write bumps it under — and is what the level cache keys by. Returns
    /// `None` for an absent table or a snapshot alias itself.
    pub fn pin_table(&self, name: &str) -> Option<Arc<SnapshotView>> {
        if name.starts_with(SNAP_PREFIX) {
            return None;
        }
        let mut snaps = self.snaps.lock();
        // Both handles come out of one read of the name map, taken before
        // the table's guard and never under it: a checkpoint holds the map
        // while it read-locks every table, so a pin waiting for the map
        // under a table guard could close a cycle with it.
        let (source, frozen) = {
            let tables = self.tables.read();
            let source = tables.get(name).cloned()?;
            let alias = snaps.current.get(name).map(|e| e.alias.as_str());
            (source, alias.and_then(|a| tables.get(a).cloned()))
        };
        let live = source.read();
        let mut version = self.table_version(name);
        let epoch = self.epoch();
        if let Some(entry) = snaps.current.get_mut(name) {
            // Reuse needs the version to match AND the frozen alias to
            // still share the live table's column storage. A mutation made
            // around `Catalog::write` leaves the version and moves the
            // columns: it is a new version, journaled as none.
            let moved = (frozen.as_ref()).is_some_and(|f| !live.shares_columns(&f.read()));
            if entry.version == version && moved {
                self.note_changed(name, None);
                version = self.table_version(name);
            }
            if entry.version == version {
                if let Some(view) = entry.view.upgrade() {
                    self.count_pin();
                    return Some(view);
                }
                // All pins were dropped but the alias table is still
                // registered (not yet swept): re-issue a view over it.
                if let Some(shared) = frozen {
                    let rows = shared.read().num_rows();
                    let view = Arc::new(SnapshotView {
                        table: shared,
                        alias: entry.alias.clone(),
                        source: name.to_string(),
                        epoch,
                        version,
                        rows,
                    });
                    entry.view = Arc::downgrade(&view);
                    self.count_pin();
                    return Some(view);
                }
            }
        }
        // Freeze the current contents under a fresh alias.
        let frozen = live.clone();
        drop(live);
        let rows = frozen.num_rows();
        let seq = self.snap_seq.fetch_add(1, Ordering::Relaxed);
        let alias = format!("{SNAP_PREFIX}{seq}_v{version}_{name}");
        let shared: SharedTable = Arc::new(RwLock::new(frozen));
        self.tables
            .write()
            .insert(alias.clone(), Arc::clone(&shared));
        let view = Arc::new(SnapshotView {
            table: shared,
            alias: alias.clone(),
            source: name.to_string(),
            epoch,
            version,
            rows,
        });
        if let Some(old) = snaps.current.insert(
            name.to_string(),
            SnapEntry {
                version,
                alias,
                view: Arc::downgrade(&view),
            },
        ) {
            snaps.retired.push(RetiredSnap {
                alias: old.alias,
                source: name.to_string(),
                version: old.version,
                view: old.view,
            });
        }
        self.sweep_locked(&mut snaps);
        self.count_pin();
        Some(view)
    }

    /// Pin a snapshot of every user-visible table at the current epoch.
    pub fn snapshot(&self) -> Vec<Arc<SnapshotView>> {
        self.table_names()
            .into_iter()
            .filter_map(|n| self.pin_table(&n))
            .collect()
    }

    /// The table and version whose data `name` holds, as the level cache
    /// knows it: a snapshot alias's source and pinned version, or a
    /// registered table and its current version. `None` for a name that is
    /// neither.
    pub fn data_version(&self, name: &str) -> Option<(String, u64)> {
        if !name.starts_with(SNAP_PREFIX) {
            let table = self.tables.read().get(name).cloned()?;
            let _guard = table.read();
            return Some((name.to_string(), self.table_version(name)));
        }
        let snaps = self.snaps.lock();
        let current = (snaps.current.iter()).map(|(source, e)| (&e.alias, source, e.version));
        let retired = (snaps.retired.iter()).map(|r| (&r.alias, &r.source, r.version));
        let mut all = current.chain(retired);
        let (_, source, version) = all.find(|(alias, ..)| *alias == name)?;
        Some((source.clone(), version))
    }

    /// Forget every cached derivation of `name`'s data — distinct
    /// combinations *and* lattice levels, of every version — and remove its
    /// write journal, so the next read of the table, through any of
    /// its snapshot aliases, finds nothing to hit or roll forward. A
    /// snapshot alias names its source.
    pub fn invalidate_combos(&self, name: &str) {
        let Some((source, _)) = self.data_version(name) else {
            self.lattice.invalidate_table(name);
            return;
        };
        let table = self.tables.read().get(&source).cloned();
        let _guard = table.as_ref().map(|t| t.read());
        self.forget_derived(&source);
    }

    /// Drop the hidden alias tables of superseded snapshots nobody pins
    /// anymore. Runs automatically on every fresh pin; callable explicitly
    /// after a burst of queries.
    pub fn sweep_snapshots(&self) {
        let mut snaps = self.snaps.lock();
        self.sweep_locked(&mut snaps);
    }

    fn sweep_locked(&self, snaps: &mut SnapRegistry) {
        let mut dead = Vec::new();
        snaps.retired.retain(|r| {
            if r.view.strong_count() == 0 {
                dead.push(r.alias.clone());
                false
            } else {
                true
            }
        });
        if dead.is_empty() {
            return;
        }
        let mut tables = self.tables.write();
        for alias in dead {
            tables.remove(&alias);
        }
        self.versions_freed.store(true, Ordering::Relaxed);
    }

    /// Mirror checkpoint/snapshot/WAL/level-cache counters into `registry`
    /// (Prometheus names `pa_storage_*`).
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let m = CatalogMetrics::register(registry);
        m.snapshot_epoch.set(self.epoch() as i64);
        *self.metrics.write() = Some(m);
        self.wal.lock().attach_metrics(registry);
        self.lattice.attach_metrics(registry);
    }

    // ---- checkpoints -----------------------------------------------------

    /// Attach a checkpoint store and cut policy. [`Catalog::maybe_checkpoint`]
    /// consults the policy; [`Catalog::checkpoint_now`] forces a cut.
    pub fn set_checkpoint_store(&self, store: Box<dyn CheckpointStore>, policy: CheckpointPolicy) {
        let stats = self.wal.lock().stats();
        *self.checkpoint.lock() = Some(CheckpointState {
            store,
            policy,
            last_records: stats.records,
            last_bytes: stats.bytes_written,
            degraded: false,
            retry: RetryPolicy::default(),
        });
    }

    /// True while the catalog runs WAL-only after a failed checkpoint
    /// (writes proceed; only restart time suffers).
    pub fn checkpoint_degraded(&self) -> bool {
        self.checkpoint.lock().as_ref().is_some_and(|s| s.degraded)
    }

    /// Cut a checkpoint now: serialize every user table at one WAL LSN
    /// fence, persist the image (transient store errors absorbed by the
    /// retry policy), and compact the WAL prefix behind the fence. Returns
    /// the fence LSN.
    ///
    /// Errors: [`StorageError::Checkpoint`] when no store is attached or
    /// the image cannot be written (the catalog degrades to WAL-only —
    /// state is safe, restarts just replay more);
    /// [`StorageError::CheckpointContended`] when concurrent writers kept
    /// moving the LSN fence (not a degradation — try again later).
    pub fn checkpoint_now(&self) -> Result<u64> {
        let mut guard = self.checkpoint.lock();
        let state = guard
            .as_mut()
            .ok_or_else(|| StorageError::Checkpoint("no checkpoint store attached".into()))?;
        let outcome = self.checkpoint_locked(state);
        if let Err(e) = &outcome {
            if !matches!(e, StorageError::CheckpointContended) {
                self.note_checkpoint_failure(state);
            }
        }
        outcome
    }

    /// Cut a checkpoint if the policy says one is due. Never blocks on a
    /// running checkpoint and never fails the caller: a write path calls
    /// this *after* releasing its table guard, and a failed cut only flips
    /// the catalog into degraded (WAL-only) mode.
    pub fn maybe_checkpoint(&self) {
        let Some(mut guard) = self.checkpoint.try_lock() else {
            return; // another checkpointer is at work
        };
        let Some(state) = guard.as_mut() else {
            return;
        };
        if state.degraded {
            return; // WAL-only until an explicit checkpoint_now succeeds
        }
        let stats = self.wal.lock().stats();
        let records = stats.records.saturating_sub(state.last_records);
        let bytes = stats.bytes_written.saturating_sub(state.last_bytes);
        if !state.policy.due(records, bytes) {
            return;
        }
        match self.checkpoint_locked(state) {
            Ok(_) | Err(StorageError::CheckpointContended) => {}
            Err(_) => self.note_checkpoint_failure(state),
        }
    }

    fn note_checkpoint_failure(&self, state: &mut CheckpointState) {
        state.degraded = true;
        if let Some(m) = &*self.metrics.read() {
            m.checkpoint_failures.inc();
            m.checkpoint_degraded.set(1);
        }
    }

    // ---- replication: terms, sealing, image export -----------------------

    /// The replication term this catalog last observed (0 when it never
    /// joined a replica set).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Relaxed)
    }

    /// Raise the replication term to `term` and record it in the WAL, the
    /// promotion fence: replicas subscribed to this catalog learn the new
    /// term in-stream, and any older primary's stream is refused from then
    /// on. Errors with [`StorageError::Replication`] unless `term` is
    /// strictly larger than the current one (terms never regress or tie —
    /// two primaries at one term is exactly the split-brain this refuses).
    pub fn begin_term(&self, term: u64) -> Result<u64> {
        let current = self.term.load(Ordering::Relaxed);
        if term <= current {
            return Err(StorageError::Replication(format!(
                "term {term} is not past the current term {current}"
            )));
        }
        self.write("", Change::Term(term))?;
        // Winning a later term unfences a previously deposed catalog: the
        // seal existed to keep the *old* term's writes out, and this node
        // now owns a newer one.
        self.sealed_at.store(0, Ordering::Relaxed);
        Ok(term)
    }

    /// Merge an observed term (from a replayed or applied `TermBump`
    /// record) into this catalog's term: terms only ratchet up.
    fn observe_term(&self, term: u64) {
        self.term.fetch_max(term, Ordering::Relaxed);
    }

    /// Fence this catalog off as a deposed primary: `term` is the
    /// deposing promotion's term. After sealing,
    /// [`Catalog::ensure_writable`] refuses with [`StorageError::Sealed`].
    pub fn seal(&self, term: u64) {
        self.sealed_at.store(term.max(1), Ordering::Relaxed);
        self.observe_term(term);
    }

    /// True once [`Catalog::seal`] fenced this catalog off.
    pub fn is_sealed(&self) -> bool {
        self.sealed_at.load(Ordering::Relaxed) != 0
    }

    /// Refuse DML on a sealed (deposed) catalog. The engine's write paths
    /// call this before mutating user tables; replica apply does not (a
    /// replica's catalog is never sealed, and the shipped records already
    /// passed the primary's check).
    pub fn ensure_writable(&self) -> Result<()> {
        match self.sealed_at.load(Ordering::Relaxed) {
            0 => Ok(()),
            term => Err(StorageError::Sealed { term }),
        }
    }

    /// Serialize every user table into one checkpoint-format image frame at
    /// a stable WAL LSN fence; returns `(frame, fence)`. Every record below
    /// `fence` is inside the image and none at or past it is — the one body
    /// behind a checkpoint cut and a replica's bootstrap image.
    ///
    /// Writers take a table write guard *then* the WAL lock, so this must
    /// never hold the WAL lock while locking tables (ABBA). Instead it
    /// reads the fence, serializes without any WAL lock, and re-reads the
    /// fence: unchanged means no record landed mid-serialization.
    /// [`Catalog::apply`] holds a table's write guard from before its
    /// record is appended until the change is applied, so a record the
    /// fence already counts belongs to a change `t.read()` below waits for,
    /// and a change it does not count either is not applied yet or moves
    /// the fence and forces a retry. Persistent write pressure reports
    /// [`StorageError::CheckpointContended`] (callers try again later).
    fn fenced_image(&self) -> Result<(Vec<u8>, u64)> {
        const FENCE_ATTEMPTS: usize = 3;
        for _ in 0..FENCE_ATTEMPTS {
            let fence = self.wal.lock().next_lsn();
            let tables: Vec<(String, Table)> = {
                let map = self.tables.read();
                map.iter()
                    .filter(|(n, _)| !n.starts_with(SNAP_PREFIX))
                    .map(|(n, t)| (n.clone(), t.read().clone()))
                    .collect()
            };
            let epoch = self.epoch();
            if self.wal.lock().next_lsn() != fence {
                continue;
            }
            let refs: Vec<(String, &Table)> = tables.iter().map(|(n, t)| (n.clone(), t)).collect();
            return Ok((encode_image(&refs, epoch, fence)?, fence));
        }
        Err(StorageError::CheckpointContended)
    }

    /// The replica-bootstrap export: [`Catalog::fenced_image`] without
    /// touching the checkpoint store. Returns `(frame, fence, term)`; a
    /// replica installing the frame resumes the stream at `fence`.
    pub fn export_image(&self) -> Result<(Vec<u8>, u64, u64)> {
        let (frame, fence) = self.fenced_image()?;
        Ok((frame, fence, self.term()))
    }

    /// Apply one replicated or replayed WAL record: [`Catalog::write`]'s
    /// body with logging off, so versions and the global epoch bump and the
    /// touched table's cached levels die exactly
    /// as on the primary, and the next [`Catalog::pin_table`] freezes a
    /// fresh view. Returns `false` for a valid record that cannot apply to
    /// the current state (skip-and-count, the recovery contract); a record
    /// is validated whole before the first cell moves, so a skipped one
    /// leaves its table exactly as it was.
    pub(crate) fn apply_shipped(&self, record: &WalRecord) -> bool {
        let name = record.table_name();
        let change = match record {
            WalRecord::CreateTable { schema, .. } => Change::Create {
                table: Arc::new(RwLock::new(Table::empty(schema.clone().into_shared()))),
                replace: true,
            },
            WalRecord::DropTable { .. } => Change::Drop,
            WalRecord::BulkInsert { rows, .. } => Change::Append(Rows::Values(rows)),
            WalRecord::TermBump { term } => Change::Term(*term),
            WalRecord::UpdateRow {
                row, cols, after, ..
            } => {
                let cols: Vec<usize> = cols.iter().map(|&c| c as usize).collect();
                return self
                    .apply_cells(name, *row as usize, &cols, after, false)
                    .is_ok();
            }
        };
        self.apply(name, change, false).is_ok()
    }

    /// Replace every user table with the contents of an image (a replica's
    /// bootstrap, see [`Catalog::export_image`]; recovery's checkpoint):
    /// unlogged drops and creates through [`Catalog::apply`]. Hidden
    /// snapshot aliases survive — pins taken before the install stay
    /// frozen.
    pub(crate) fn install_image(&self, image: CheckpointImage) {
        for name in self.table_names() {
            let _ = self.apply(&name, Change::Drop, false);
        }
        for (name, table) in image.tables {
            let change = Change::Create {
                table: Arc::new(RwLock::new(table)),
                replace: true,
            };
            let _ = self.apply(&name, change, false);
        }
    }

    /// Cut a checkpoint, with the `checkpoint` mutex held: persist a
    /// [`Catalog::fenced_image`] (transient store errors absorbed by the
    /// retry policy), then compact the WAL prefix behind its fence.
    fn checkpoint_locked(&self, state: &mut CheckpointState) -> Result<u64> {
        let (frame, fence) = self.fenced_image()?;
        let retry = state.retry;
        let store = &mut state.store;
        retry.run(|| store.save(&frame))?;
        self.wal.lock().compact(fence)?;
        let stats = self.wal.lock().stats();
        state.last_records = stats.records;
        state.last_bytes = stats.bytes_written;
        state.degraded = false;
        if let Some(m) = &*self.metrics.read() {
            m.checkpoint_writes.inc();
            m.checkpoint_bytes.add(frame.len() as u64);
            m.checkpoint_lsn.set(fence as i64);
            m.checkpoint_degraded.set(0);
        }
        Ok(fence)
    }

    /// Rebuild a catalog from the log in `store` (crash recovery).
    ///
    /// Valid frames are replayed in order; the first torn or
    /// checksum-failing frame ends the trusted prefix and everything after
    /// it is truncated from the store (truncate-tail policy). Records whose
    /// replay cannot apply — e.g. a bulk insert whose create record was
    /// recycled out of the retained window — are skipped and counted, not
    /// fatal. The recovered catalog resumes logging onto the same store,
    /// appending after the valid prefix.
    pub fn recover(store: Box<dyn LogStore>) -> Result<(Catalog, RecoveryReport)> {
        Catalog::recover_with_capacity(store, DEFAULT_CAPACITY)
    }

    /// [`Catalog::recover`] with an explicit retained-log capacity for the
    /// resumed WAL.
    pub fn recover_with_capacity(
        store: Box<dyn LogStore>,
        capacity: usize,
    ) -> Result<(Catalog, RecoveryReport)> {
        Catalog::recover_impl(store, None, capacity, CheckpointPolicy::disabled())
    }

    /// Checkpoint-aware recovery: load the newest valid image from `ckpt`,
    /// install its tables, and replay only the WAL records at or past the
    /// image's LSN fence. Records below the fence are counted in
    /// [`RecoveryReport::records_pre_checkpoint`] and skipped — the image
    /// already contains them. Any checkpoint failure (unreadable store,
    /// torn or corrupt image) falls back to the previous image or full WAL
    /// replay, recorded in [`RecoveryReport::checkpoint_error`] — recovery
    /// itself never fails because of a bad checkpoint.
    ///
    /// The recovered catalog keeps `ckpt` as its checkpoint store under
    /// `policy`, and its derived caches are cold: install and replay are
    /// the write path, logging off.
    pub fn recover_with_checkpoint(
        store: Box<dyn LogStore>,
        ckpt: Box<dyn CheckpointStore>,
        capacity: usize,
        policy: CheckpointPolicy,
    ) -> Result<(Catalog, RecoveryReport)> {
        Catalog::recover_impl(store, Some(ckpt), capacity, policy)
    }

    fn recover_impl(
        mut store: Box<dyn LogStore>,
        ckpt: Option<Box<dyn CheckpointStore>>,
        capacity: usize,
        policy: CheckpointPolicy,
    ) -> Result<(Catalog, RecoveryReport)> {
        // Load the newest valid checkpoint image, when a store is given.
        // Reads retry transient device errors; permanent errors and
        // undecodable images degrade to full replay, never fail recovery.
        let mut checkpoint_error = None;
        let mut image = None;
        let mut ckpt = ckpt;
        if let Some(ckpt) = ckpt.as_mut() {
            let raw = match RetryPolicy::default().run(|| ckpt.read_raw()) {
                Ok(bytes) => bytes,
                Err(e) => {
                    checkpoint_error = Some(e.to_string());
                    Vec::new()
                }
            };
            let (newest, why) = scan_checkpoints(&raw);
            if let Some(why) = why {
                checkpoint_error = Some(match checkpoint_error.take() {
                    Some(prev) => format!("{prev}; {why}"),
                    None => why,
                });
            }
            image = newest;
        }
        // Install the image into an ordinary catalog, then apply the
        // trusted records to it: the unlogged side of the one write path,
        // which is also what keeps the recovered caches cold.
        let catalog = Catalog::default();
        let (start_lsn, checkpoint_tables) = match image {
            Some(img) => {
                catalog.epoch.store(img.epoch, Ordering::Relaxed);
                let at = (img.lsn, img.tables.len() as u64);
                catalog.install_image(img);
                at
            }
            None => (0, 0),
        };

        // Recovery reads retry transient device errors too: a hiccup while
        // reading the log must not fail a restart that would succeed a
        // moment later. Permanent errors still propagate untouched.
        let data = RetryPolicy::default().run(|| store.read_all())?;
        let scan = scan_log(&data);
        let next_lsn = scan.next_lsn(start_lsn.max(1));

        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut pre_checkpoint = 0u64;
        for (record, &lsn) in scan.records.iter().zip(&scan.lsns) {
            if lsn < start_lsn {
                // Already inside the checkpoint image (a crash can land
                // between image save and WAL compaction) — but a term
                // raised below the fence was still raised.
                if let WalRecord::TermBump { term } = record {
                    catalog.observe_term(*term);
                }
                pre_checkpoint += 1;
            } else if catalog.apply_shipped(record) {
                replayed += 1;
            } else {
                skipped += 1;
            }
        }

        let report = RecoveryReport {
            records_replayed: replayed,
            records_skipped: skipped,
            records_pre_checkpoint: pre_checkpoint,
            bytes_skipped: scan.total_len - scan.valid_len,
            truncation_offset: (scan.valid_len < scan.total_len).then_some(scan.valid_len),
            corruption: scan.corruption,
            checkpoint_lsn: start_lsn,
            checkpoint_tables,
            checkpoint_error,
        };
        store.truncate(scan.valid_len)?;

        // Resume the WAL on the same store, appending after the valid prefix.
        let stats = WalStats {
            records: replayed + skipped + pre_checkpoint,
            bytes_written: scan.valid_len,
            write_errors: 0,
            retries: 0,
        };
        let frames = scan.lsns.into_iter().zip(scan.frame_lens).collect();
        *catalog.wal.lock() = Wal::resume(store, capacity, stats, frames, next_lsn);
        if let Some(ckpt) = ckpt {
            catalog.set_checkpoint_store(ckpt, policy);
        }
        Ok((catalog, report))
    }
}

/// Outcome of [`Catalog::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records decoded and successfully applied.
    pub records_replayed: u64,
    /// Valid records whose replay could not apply (table recycled away,
    /// stale row index); these are counted, not fatal.
    pub records_skipped: u64,
    /// Records already covered by the checkpoint image (LSN below its
    /// fence) and therefore not replayed. Expected whenever a crash lands
    /// between image save and WAL compaction; does not affect
    /// [`RecoveryReport::is_clean`].
    pub records_pre_checkpoint: u64,
    /// Bytes discarded from the untrusted tail.
    pub bytes_skipped: u64,
    /// Offset the log was truncated to, when a tail was discarded.
    pub truncation_offset: Option<u64>,
    /// Why the scan stopped before the end of the log, if it did.
    pub corruption: Option<String>,
    /// LSN fence of the checkpoint image recovery started from (0 when
    /// none was loaded).
    pub checkpoint_lsn: u64,
    /// Tables installed from the checkpoint image.
    pub checkpoint_tables: u64,
    /// Why checkpoint loading fell back (unreadable store, torn or
    /// corrupt image), if it did. Recovery proceeded via WAL replay.
    pub checkpoint_error: Option<String>,
}

impl RecoveryReport {
    /// True when the whole log was trusted and applied.
    pub fn is_clean(&self) -> bool {
        self.records_skipped == 0 && self.bytes_skipped == 0 && self.corruption.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::Float(2.0)]).unwrap();
        t
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        assert!(cat.contains("F"));
        assert_eq!(cat.table("F").unwrap().read().num_rows(), 1);
        assert!(matches!(
            cat.create_table("F", table()),
            Err(StorageError::TableExists(_))
        ));
        cat.drop_table("F").unwrap();
        assert!(!cat.contains("F"));
        assert!(cat.drop_table("F").is_err());
    }

    #[test]
    fn a_write_after_a_sweep_freed_a_version_gives_the_pages_back() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        let freed = || cat.versions_freed.load(Ordering::Relaxed);
        let row = [Value::Int(2), Value::Float(3.0)];
        // A pin, a write under it (the pinned version retires), the pin
        // dropped: nothing is freed until a sweep drops the version.
        let pin = cat.pin_table("F").unwrap();
        cat.write("F", Change::Append(Rows::Values(&[row.to_vec()])))
            .unwrap();
        drop(pin);
        assert!(!freed());
        let pin = cat.pin_table("F").unwrap();
        assert!(freed(), "the sweep of the new pin dropped the old version");
        // The next live write releases the pages and clears the mark.
        cat.update_cells("F", 0, &[1], &[Value::Float(4.0)])
            .unwrap();
        assert!(!freed());
        drop(pin);
    }

    #[test]
    fn replace_resets_table_version_and_derived_caches() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        // `table()` is its own level `(d)` with one lane.
        let (dims, lanes) = (["d".to_string()], ["sum(a)".to_string()]);
        let version = cat.table_version("F");
        cat.lattice_cache()
            .store("F", version, &dims, &lanes, Arc::new(table()));
        assert!(cat.combo_cache().get("F", version, &dims, &[]).is_some());
        cat.create_or_replace_table("F", Table::empty(table().schema().clone()));
        assert_eq!(cat.table("F").unwrap().read().num_rows(), 0);
        let now = cat.table_version("F");
        assert!(now > version, "a replace is a new version");
        assert!(
            cat.combo_cache().get("F", version, &dims, &[]).is_none()
                && cat.combo_cache().older("F", now, &dims, &[]).is_none()
                && cat.changes("F", version, now).is_none(),
            "derived caches die with the old table"
        );
    }

    #[test]
    fn a_write_journals_what_it_changed_and_leaves_the_cached_levels() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        let (dims, lanes) = (["d".to_string()], ["sum(a)".to_string()]);
        let cached = |v: u64| cat.lattice_cache().get("F", v, &dims, &lanes).is_some();
        let store = |v: u64| {
            let level = Arc::new(table());
            cat.lattice_cache().store("F", v, &dims, &lanes, level);
        };
        let rows = |n: i64| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| vec![Value::Int(i), Value::Float(1.0)])
                .collect()
        };
        cat.write("F", Change::Append(Rows::Values(&rows(9))))
            .unwrap();
        let v1 = cat.table_version("F");
        store(v1);
        cat.write("F", Change::Append(Rows::Values(&rows(4))))
            .unwrap();
        cat.update_cells("F", 0, &[1], &[Value::Float(5.0)])
            .unwrap();
        let v3 = cat.table_version("F");
        assert_eq!(v3, v1 + 2);
        assert!(cached(v1) && !cached(v3), "a write finds no entry to drop");
        let delta = cat.changes("F", v1, v3).unwrap();
        assert_eq!(delta.appended, 10..14);
        assert_eq!(delta.overwritten, vec![(0, 1, Value::Float(2.0))]);
        assert_eq!(delta.rows(), 5);

        // Trimmed to the oldest cached version: once the level is stored at
        // v3 (superseding v1's), nothing before v3 is kept.
        store(v3);
        cat.update_cells("F", 1, &[1], &[Value::Float(6.0)])
            .unwrap();
        assert!(cat.changes("F", v1, v3 + 1).is_none());
        assert_eq!(cat.changes("F", v3, v3 + 1).unwrap().rows(), 1);

        // A journal as long as the table drops its oldest change, and the
        // level only that change could roll; the rest stays.
        for row in 0..13 {
            cat.update_cells("F", row, &[1], &[Value::Float(7.0)])
                .unwrap();
        }
        assert!(!cached(v3) && cat.lattice_cache().oldest_version("F").is_none());
        let now = cat.table_version("F");
        assert!(cat.changes("F", v3, now).is_none());
        assert_eq!(cat.changes("F", v3 + 1, now).unwrap().rows(), 13);

        // `invalidate_combos` removes the journal, also through an alias;
        // the next write starts a new one.
        let now = cat.table_version("F");
        store(now);
        let pin = cat.pin_table("F").unwrap();
        cat.invalidate_combos(pin.alias());
        assert!(!cached(now));
        assert_eq!(cat.data_version(pin.alias()), Some(("F".into(), now)));
        assert!(cat.changes("F", v3, now).is_none());
        store(now);
        cat.update_cells("F", 0, &[1], &[Value::Float(8.0)])
            .unwrap();
        assert_eq!(cat.changes("F", now, now + 1).unwrap().rows(), 1);
    }

    #[test]
    fn a_journal_stays_shorter_than_its_table_under_repeated_updates() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        let rows: Vec<Vec<Value>> = (1..100)
            .map(|i| vec![Value::Int(i), Value::Float(1.0)])
            .collect();
        cat.write("F", Change::Append(Rows::Values(&rows))).unwrap();
        let lanes = ["sum(a)".to_string()];
        let (stale, hot) = (["d".to_string()], ["a".to_string()]);
        let store = |dims: &[String], v: u64| {
            (cat.lattice_cache()).store("F", v, dims, &lanes, Arc::new(table()));
        };
        // A level nobody reads again, and one a reader rolls every version.
        let start = cat.table_version("F");
        store(&stale, start);
        for i in 0..1000 {
            cat.update_cells("F", i % 100, &[1], &[Value::Float(i as f64)])
                .unwrap();
            let now = cat.table_version("F");
            let journal = |j: &Journal| (j.rows(), j.bytes());
            let (rows, bytes) = journal(&cat.journals.lock()["F"]);
            assert!(rows < 100, "update {i}: {rows} journaled rows");
            assert!(
                bytes <= rows * 64,
                "update {i}: {bytes} bytes for {rows} rows"
            );
            let older = cat.lattice_cache().older("F", now, &hot, &lanes);
            if i > 0 {
                assert_eq!(older.map(|(v, _)| v), Some(now - 1), "update {i}");
                assert_eq!(cat.changes("F", now - 1, now).unwrap().rows(), 1);
            }
            store(&hot, now);
        }
        let old = cat.lattice_cache().older("F", u64::MAX, &stale, &lanes);
        assert!(old.is_none(), "the unread level went with its changes");
    }

    #[test]
    fn pins_appends_checkpoints_and_creates_run_beside_each_other() {
        let cat = Arc::new(Catalog::new());
        cat.create_table("F", table()).unwrap();
        let store = SharedCkptStore::default();
        cat.set_checkpoint_store(Box::new(store), CheckpointPolicy::every_records(3));
        let (done, finished) = std::sync::mpsc::channel();
        let work: [fn(&Catalog, i64); 4] = [
            |cat, _| drop(cat.pin_table("F")),
            |cat, i| append_row(cat, "F", i, 1.0),
            |cat, _| drop(cat.checkpoint_now()),
            |cat, i| drop(cat.create_or_replace_table(format!("G{}", i % 4), table())),
        ];
        for step in work {
            let (cat, done) = (Arc::clone(&cat), done.clone());
            std::thread::spawn(move || {
                (0..1000).for_each(|i| step(&cat, i));
                done.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
            assert!(waited.is_ok(), "a pin, a write or a checkpoint hung");
        }
        assert_eq!(cat.table("F").unwrap().read().num_rows(), 1001);
        assert!(cat.pin_table("F").unwrap().rows() == 1001);
    }

    #[test]
    fn a_change_made_around_write_is_a_new_version_at_the_next_pin() {
        let cat = Catalog::new();
        let shared = cat.create_table("F", table()).unwrap();
        let pin = cat.pin_table("F").unwrap();
        let (dims, lanes) = (["d".to_string()], ["sum(a)".to_string()]);
        let v = pin.version();
        cat.lattice_cache()
            .store("F", v, &dims, &lanes, Arc::new(table()));
        drop(pin);
        shared
            .write()
            .push_row(&[Value::Int(2), Value::Float(3.0)])
            .unwrap();
        let pin = cat.pin_table("F").unwrap();
        assert!(pin.version() > v && pin.rows() == 2);
        assert!(cat.lattice_cache().is_empty(), "nothing describes it");
        assert!(cat.changes("F", v, pin.version()).is_none());
    }

    #[test]
    fn in_place_mutation_through_shared_handle() {
        let cat = Catalog::new();
        let shared = cat.create_table("F", table()).unwrap();
        shared
            .write()
            .push_row(&[Value::Int(2), Value::Float(3.0)])
            .unwrap();
        assert_eq!(cat.table("F").unwrap().read().num_rows(), 2);
    }

    #[test]
    fn ddl_hits_the_wal() {
        let cat = Catalog::new();
        // Non-empty table: one CreateTable record plus one BulkInsert for
        // the rows it already holds, so replay is lossless.
        cat.create_table("F", table()).unwrap();
        cat.drop_table("F").unwrap();
        assert_eq!(cat.wal_stats().records, 3);
        let nowal = Catalog::without_wal();
        nowal.create_table("F", table()).unwrap();
        assert_eq!(nowal.wal_stats().records, 0);
    }

    #[test]
    fn recover_round_trips_catalog_state() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        cat.update_cells("F", 0, &[0, 1], &[Value::Int(-1), Value::Null])
            .unwrap();
        let rows = [vec![Value::Int(7), Value::Float(8.0)]];
        cat.write("F", Change::Append(Rows::Values(&rows))).unwrap();
        cat.create_table("gone", table()).unwrap();
        cat.drop_table("gone").unwrap();

        let image = cat.with_wal(|w| w.snapshot()).unwrap();
        let (rec, report) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(rec.table_names(), vec!["F".to_string()]);
        rec.check_integrity().unwrap();

        let f = rec.table("F").unwrap();
        let f = f.read();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0).unwrap(), vec![Value::Int(-1), Value::Null]);
        assert_eq!(f.row(1).unwrap(), vec![Value::Int(7), Value::Float(8.0)]);
    }

    #[test]
    fn recover_truncates_torn_tail_and_resumes_logging() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        cat.update_cells("F", 0, &[0, 1], &[Value::Int(2), Value::Float(2.0)])
            .unwrap();
        let mut image = cat.with_wal(|w| w.snapshot()).unwrap();
        let image_len = image.len();
        image.truncate(image_len - 3); // tear the last record

        let (rec, report) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image))).unwrap();
        assert!(
            report.bytes_skipped > 0 && report.bytes_skipped < image_len as u64,
            "whole partial frame dropped: {report:?}"
        );
        assert!(report.truncation_offset.is_some());
        assert!(report.corruption.is_some());
        assert_eq!(report.records_replayed, 2, "create + bulk survive");

        // The resumed WAL appends after the valid prefix; a second
        // recovery sees the new record.
        rec.update_cells("F", 0, &[0, 1], &[Value::Int(9), Value::Float(2.0)])
            .unwrap();
        let image2 = rec.with_wal(|w| w.snapshot()).unwrap();
        let (rec2, report2) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image2))).unwrap();
        assert!(report2.is_clean(), "{report2:?}");
        assert_eq!(
            rec2.table("F").unwrap().read().get(0, 0),
            Value::Int(9),
            "post-recovery update replays"
        );
    }

    #[test]
    fn recover_skips_records_for_recycled_tables() {
        // A log whose CreateTable frame was recycled away: the orphan
        // bulk insert is skipped and counted, not fatal.
        let mut wal = Wal::default();
        let t = table();
        wal.log_bulk_insert("orphan", Rows::Table(&t), &t).unwrap();
        wal.log_create_table("F", t.schema()).unwrap();
        let image = wal.snapshot().unwrap();

        let (rec, report) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image))).unwrap();
        assert_eq!(report.records_skipped, 1);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(rec.table_names(), vec!["F".to_string()]);
    }

    #[test]
    fn recover_replays_partial_column_updates() {
        // Production write paths log only the touched columns (the SET
        // clause), not full-row images: replay must land those values in
        // the right columns and leave the others alone.
        let schema = Schema::from_pairs(&[
            ("d", DataType::Int),
            ("a", DataType::Float),
            ("b", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::Float(2.0), Value::Float(3.0)])
            .unwrap();
        let cat = Catalog::new();
        cat.create_table("F", t).unwrap();
        cat.update_cells("F", 0, &[2], &[Value::Float(9.0)])
            .unwrap();

        let image = cat.with_wal(|w| w.snapshot()).unwrap();
        let (rec, report) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let f = rec.table("F").unwrap();
        let f = f.read();
        assert_eq!(
            f.row(0).unwrap(),
            vec![Value::Int(1), Value::Float(2.0), Value::Float(9.0)],
            "only the logged column changed"
        );
    }

    #[test]
    fn inapplicable_records_skip_without_partial_mutation() {
        // A record that cannot fully apply (here: values of the wrong type
        // for the recovered schema) must be skipped whole — the table stays
        // exactly as it was, never half-mutated.
        let str_schema = Schema::from_pairs(&[("d", DataType::Int), ("s", DataType::Str)])
            .unwrap()
            .into_shared();
        let mut alien = Table::empty(str_schema);
        alien.push_row(&[Value::Int(5), Value::Null]).unwrap(); // would fit
        alien.push_row(&[Value::Int(6), Value::str("x")]).unwrap(); // would not

        let mut wal = Wal::default();
        let t = table(); // schema (Int, Float)
        wal.log_create_table("F", t.schema()).unwrap();
        wal.log_bulk_insert("F", Rows::Table(&t), &t).unwrap();
        // Batch whose second row type-clashes with F's schema.
        wal.log_bulk_insert("F", Rows::Table(&alien), &alien)
            .unwrap();
        // Update whose second cell type-clashes.
        wal.log_update(
            "F",
            0,
            &[0, 1],
            &[Value::Int(1), Value::Float(2.0)],
            &[Value::Int(7), Value::str("bad")],
        )
        .unwrap();
        let image = wal.snapshot().unwrap();

        let (rec, report) =
            Catalog::recover(Box::new(crate::log::MemLogStore::from_bytes(image))).unwrap();
        assert_eq!(report.records_replayed, 2, "create + good batch");
        assert_eq!(report.records_skipped, 2, "bad batch + bad update");
        let f = rec.table("F").unwrap();
        let f = f.read();
        assert_eq!(f.num_rows(), 1, "bad batch added no rows at all");
        assert_eq!(
            f.row(0).unwrap(),
            vec![Value::Int(1), Value::Float(2.0)],
            "bad update touched no cell at all"
        );
        rec.check_integrity().unwrap();
    }

    #[test]
    fn drop_prefixed_cleans_temps_and_spares_the_rest() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        cat.create_table("q7_Fk", table()).unwrap();
        cat.create_table("q7_Fj0", table()).unwrap();
        cat.create_table("q7_FV", table()).unwrap();
        cat.create_table("q70_FV", table()).unwrap(); // "q7_" is not a prefix of "q70_FV"

        assert_eq!(cat.drop_prefixed("q7_"), 3);
        assert_eq!(
            cat.table_names(),
            vec!["F".to_string(), "q70_FV".to_string()],
            "only the exact prefix was swept"
        );
        assert_eq!(cat.drop_prefixed("q7_"), 0, "idempotent");
        assert_eq!(cat.drop_prefixed(""), 0, "empty prefix refuses to sweep");
        assert!(cat.contains("F"));
    }

    /// Checkpoint slot over a shared buffer, so a test can hand the same
    /// bytes to [`Catalog::recover_with_checkpoint`] after the writing
    /// catalog is gone.
    #[derive(Debug, Clone, Default)]
    struct SharedCkptStore(Arc<Mutex<Vec<u8>>>);

    impl crate::checkpoint::CheckpointStore for SharedCkptStore {
        fn save(&mut self, frame: &[u8]) -> Result<()> {
            *self.0.lock() = frame.to_vec();
            Ok(())
        }

        fn read_raw(&mut self) -> Result<Vec<u8>> {
            Ok(self.0.lock().clone())
        }
    }

    fn append_row(cat: &Catalog, name: &str, d: i64, a: f64) {
        let rows = [vec![Value::Int(d), Value::Float(a)]];
        cat.write(name, Change::Append(Rows::Values(&rows)))
            .unwrap();
    }

    #[test]
    fn checkpoint_compacts_wal_and_recovery_replays_only_the_suffix() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        append_row(&cat, "F", 2, 3.0);
        let store = SharedCkptStore::default();
        cat.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::disabled());

        let wal_before = cat.with_wal(|w| w.snapshot()).unwrap().len();
        let fence = cat.checkpoint_now().unwrap();
        assert!(fence >= 3, "create + bulk + insert sit below the fence");
        assert!(!cat.checkpoint_degraded());
        let wal_after = cat.with_wal(|w| w.snapshot()).unwrap().len();
        assert!(
            wal_after < wal_before,
            "checkpoint compacts the WAL prefix ({wal_before} -> {wal_after})"
        );

        append_row(&cat, "F", 3, 4.0);
        let wal_img = cat.with_wal(|w| w.snapshot()).unwrap();
        let (rec, report) = Catalog::recover_with_checkpoint(
            Box::new(crate::log::MemLogStore::from_bytes(wal_img)),
            Box::new(store.clone()),
            DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checkpoint_lsn, fence);
        assert_eq!(report.checkpoint_tables, 1);
        assert_eq!(
            report.records_pre_checkpoint, 0,
            "prefix was compacted away"
        );
        assert_eq!(
            report.records_replayed, 1,
            "only the post-checkpoint insert"
        );
        assert!(report.checkpoint_error.is_none());

        rec.check_integrity().unwrap();
        assert!(
            rec.combo_cache().is_empty(),
            "install and replay are the write path; combos start cold"
        );
        let f = rec.table("F").unwrap();
        let f = f.read();
        assert_eq!(f.num_rows(), 3);
        assert_eq!(f.row(2).unwrap(), vec![Value::Int(3), Value::Float(4.0)]);

        // The recovered catalog kept the checkpoint store: another cut works.
        let fence2 = rec.checkpoint_now().unwrap();
        assert!(fence2 >= fence, "fences are monotone across recoveries");
    }

    #[test]
    fn recovery_skips_records_already_inside_the_image() {
        // A crash can land between image save and WAL compaction; the
        // recovered state must not double-apply the prefix.
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        append_row(&cat, "F", 2, 3.0);
        let full_wal = cat.with_wal(|w| w.snapshot()).unwrap();
        let store = SharedCkptStore::default();
        cat.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::disabled());
        let fence = cat.checkpoint_now().unwrap();

        // Recover from the *uncompacted* WAL plus the image.
        let (rec, report) = Catalog::recover_with_checkpoint(
            Box::new(crate::log::MemLogStore::from_bytes(full_wal)),
            Box::new(store),
            DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checkpoint_lsn, fence);
        assert_eq!(
            report.records_pre_checkpoint, 3,
            "create + 2 inserts skipped"
        );
        assert_eq!(report.records_replayed, 0);
        let f = rec.table("F").unwrap();
        let f = f.read();
        assert_eq!(f.num_rows(), 2, "no double-applied rows");
        assert_eq!(f.row(1).unwrap(), vec![Value::Int(2), Value::Float(3.0)]);
    }

    #[test]
    fn torn_checkpoint_degrades_to_wal_only_and_recovery_survives() {
        use crate::checkpoint::LogCheckpointStore;
        use crate::fault::{FaultInjector, FaultPlan};
        use crate::log::MemLogStore;

        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        append_row(&cat, "F", 2, 3.0);

        // Checkpoint device tears ten bytes into its first write.
        let plan = FaultPlan {
            torn_write_at: Some(10),
            ..FaultPlan::default()
        };
        let torn = LogCheckpointStore::new(Box::new(FaultInjector::new(MemLogStore::new(), plan)));
        cat.set_checkpoint_store(Box::new(torn), CheckpointPolicy::every_records(1));

        let err = cat.checkpoint_now().unwrap_err();
        assert!(
            !matches!(err, StorageError::CheckpointContended),
            "torn write is a real failure: {err}"
        );
        assert!(cat.checkpoint_degraded(), "catalog drops to WAL-only mode");

        // Writes keep flowing and policy checks stay silent no-ops.
        append_row(&cat, "F", 3, 4.0);
        cat.maybe_checkpoint();
        assert!(cat.checkpoint_degraded());

        // The WAL was never compacted (the cut failed before its fence
        // landed), so plain WAL recovery reconstructs everything.
        let wal_img = cat.with_wal(|w| w.snapshot()).unwrap();
        let (rec, report) = Catalog::recover(Box::new(MemLogStore::from_bytes(wal_img))).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(rec.table("F").unwrap().read().num_rows(), 3);
    }

    #[test]
    fn unreadable_checkpoint_store_falls_back_to_full_replay() {
        use crate::checkpoint::LogCheckpointStore;
        use crate::fault::{FaultInjector, FaultPlan};
        use crate::log::MemLogStore;

        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        append_row(&cat, "F", 2, 3.0);
        let wal_img = cat.with_wal(|w| w.snapshot()).unwrap();

        // Dead-on-arrival checkpoint device: every read errors permanently.
        let plan = FaultPlan {
            torn_write_at: Some(0),
            ..FaultPlan::default()
        };
        let mut dead = FaultInjector::new(MemLogStore::new(), plan);
        let _ = crate::log::LogStore::append(&mut dead, b"x"); // kill the device
        let (rec, report) = Catalog::recover_with_checkpoint(
            Box::new(MemLogStore::from_bytes(wal_img)),
            Box::new(LogCheckpointStore::new(Box::new(dead))),
            DEFAULT_CAPACITY,
            CheckpointPolicy::disabled(),
        )
        .unwrap();
        assert!(
            report.checkpoint_error.is_some(),
            "fallback is recorded: {report:?}"
        );
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.records_replayed, 3, "full WAL replay");
        assert_eq!(rec.table("F").unwrap().read().num_rows(), 2);
    }

    #[test]
    fn maybe_checkpoint_honors_the_record_policy() {
        let cat = Catalog::new();
        assert!(
            matches!(cat.checkpoint_now(), Err(StorageError::Checkpoint(_))),
            "no store attached"
        );
        cat.create_table("F", table()).unwrap();
        let store = SharedCkptStore::default();
        cat.set_checkpoint_store(Box::new(store.clone()), CheckpointPolicy::every_records(2));

        cat.maybe_checkpoint();
        assert!(store.0.lock().is_empty(), "nothing logged since attach");
        // The write path checks the policy itself, after its guard drops.
        append_row(&cat, "F", 2, 2.0);
        assert!(
            store.0.lock().is_empty(),
            "one record is below the threshold"
        );
        append_row(&cat, "F", 3, 3.0);
        assert!(
            !store.0.lock().is_empty(),
            "two records since attach trip the policy"
        );
    }

    #[test]
    fn pins_freeze_reuse_and_sweep() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        let p1 = cat.pin_table("F").unwrap();
        let p2 = cat.pin_table("F").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "unchanged table reuses the same pin");
        assert_eq!(p1.source(), "F");
        assert_eq!(p1.rows(), 1);
        assert_eq!(
            cat.table_names(),
            vec!["F".to_string()],
            "aliases stay hidden"
        );
        assert!(
            cat.table(p1.alias()).is_ok(),
            "alias is a real registered table"
        );
        assert!(
            cat.pin_table(p1.alias()).is_none(),
            "snapshot aliases cannot themselves be pinned"
        );

        append_row(&cat, "F", 5, 6.0);
        let p3 = cat.pin_table("F").unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "mutation forces a fresh freeze");
        assert!(p3.version() > p1.version());
        assert!(p3.epoch() > p1.epoch());
        assert_eq!(p3.rows(), 2);
        assert_eq!(
            p1.table().read().num_rows(),
            1,
            "old pin still sees its frozen rows"
        );

        // Same-version repin after all pins dropped reuses the alias while
        // it is still registered.
        let alias3 = p3.alias().to_string();
        drop(p3);
        let p4 = cat.pin_table("F").unwrap();
        assert_eq!(
            p4.alias(),
            alias3,
            "repin reuses the still-registered alias"
        );

        // Superseded + unpinned aliases are reclaimed by the sweep.
        let old_alias = p1.alias().to_string();
        drop(p1);
        drop(p2);
        cat.sweep_snapshots();
        assert!(
            cat.table(&old_alias).is_err(),
            "dead snapshot alias reclaimed"
        );
        assert!(cat.table(p4.alias()).is_ok(), "live pin keeps its alias");
    }

    #[test]
    fn snapshot_pins_every_user_table() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        cat.create_table("G", table()).unwrap();
        let views = cat.snapshot();
        let sources: Vec<&str> = views.iter().map(|v| v.source()).collect();
        assert_eq!(sources, vec!["F", "G"]);
        let epoch = cat.epoch();
        assert!(views.iter().all(|v| v.epoch() == epoch));
    }

    #[test]
    fn table_names_sorted() {
        let cat = Catalog::new();
        cat.create_table("b", table()).unwrap();
        cat.create_table("a", table()).unwrap();
        assert_eq!(cat.table_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
