//! Named-table catalog.
//!
//! Holds the stored tables: the fact table `F`, and the `Fk` an UPDATE plan
//! stores while it runs (every other intermediate of a percentage query is
//! a value the query owns). Tables are individually lockable so an UPDATE
//! mutates in place (the cost the paper measures) instead of copy-on-write.
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
use crate::combos::ComboCache;
use crate::error::{Result, StorageError};
use crate::index::HashIndex;
use crate::lattice::LatticeCache;
use crate::log::LogStore;
use crate::retry::RetryPolicy;
use crate::table::Table;
use crate::wal::{scan_log, Wal, WalRecord, WalStats, DEFAULT_CAPACITY};
use pa_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A table shared between operators, lockable for in-place mutation.
pub type SharedTable = Arc<RwLock<Table>>;

/// Key for the index registry: (table name, key column names).
type IndexKey = (String, Vec<String>);

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

/// Catalog of named tables, their secondary indexes, the combination
/// cache, the WAL, and the checkpoint/snapshot machinery.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, SharedTable>>,
    indexes: RwLock<BTreeMap<IndexKey, Arc<HashIndex>>>,
    combos: ComboCache,
    lattice: LatticeCache,
    wal: Mutex<Wal>,
    /// Global mutation epoch: bumps on every logged create/drop/mutation.
    epoch: AtomicU64,
    /// Per-table mutation versions (absent → 0), driving snapshot reuse.
    versions: RwLock<BTreeMap<String, u64>>,
    /// Snapshot pins and retired aliases. Lock order: `snaps` before
    /// `tables`, never the reverse.
    snaps: Mutex<SnapRegistry>,
    /// Monotonic discriminator for snapshot alias names, so two freezes of
    /// the same (table, version) never collide.
    snap_seq: AtomicU64,
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

    /// Bump the global epoch and `name`'s version — every logged DDL or
    /// data mutation funnels through here. Hidden snapshot aliases are
    /// immutable by contract and skip the bump.
    fn bump_version(&self, name: &str) {
        if name.starts_with(SNAP_PREFIX) {
            return;
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        *self.versions.write().entry(name.to_string()).or_insert(0) += 1;
        if let Some(m) = &*self.metrics.read() {
            m.snapshot_epoch.set(epoch as i64);
        }
    }

    /// Register a table. Errors when the name is taken.
    pub fn create_table(&self, name: impl Into<String>, table: Table) -> Result<SharedTable> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        self.log_table_created(&name, &table);
        self.bump_version(&name);
        let shared: SharedTable = Arc::new(RwLock::new(table));
        tables.insert(name, Arc::clone(&shared));
        Ok(shared)
    }

    /// Register or replace a table.
    pub fn create_or_replace_table(&self, name: impl Into<String>, table: Table) -> SharedTable {
        let name = name.into();
        let mut tables = self.tables.write();
        self.log_table_created(&name, &table);
        self.bump_version(&name);
        self.invalidate_indexes(&name);
        self.invalidate_derived(&name);
        let shared: SharedTable = Arc::new(RwLock::new(table));
        tables.insert(name, Arc::clone(&shared));
        shared
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<SharedTable> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.into()))
    }

    /// Drop a table (and its indexes). Errors when missing.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.remove(name).is_none() {
            return Err(StorageError::TableNotFound(name.into()));
        }
        // DDL is not failed by a sick log device; the loss is counted in
        // `WalStats::write_errors` and surfaces at recovery. Hidden
        // snapshot aliases were never logged, so their drop isn't either.
        if !name.starts_with(SNAP_PREFIX) {
            let _ = self.wal.lock().log_drop_table(name);
            self.bump_version(name);
        }
        self.invalidate_indexes(name);
        self.invalidate_derived(name);
        Ok(())
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

    /// Build (or rebuild) a hash index on `table_name(key_names...)`.
    pub fn create_index(&self, table_name: &str, key_names: &[&str]) -> Result<Arc<HashIndex>> {
        let table = self.table(table_name)?;
        let idx = Arc::new(HashIndex::build_on(&table.read(), key_names)?);
        let key = (
            table_name.to_string(),
            key_names.iter().map(|s| s.to_string()).collect(),
        );
        self.indexes.write().insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// Fetch a previously built index, if any.
    pub fn index(&self, table_name: &str, key_names: &[&str]) -> Option<Arc<HashIndex>> {
        let key = (
            table_name.to_string(),
            key_names.iter().map(|s| s.to_string()).collect(),
        );
        self.indexes.read().get(&key).cloned()
    }

    fn invalidate_indexes(&self, table_name: &str) {
        self.indexes.write().retain(|(t, _), _| t != table_name);
    }

    /// Run `f` with the write-ahead log.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.wal.lock())
    }

    /// Run `f` with the WAL *after* invalidating `table`'s cached
    /// combination sets — the funnel every logged data mutation (bulk
    /// insert, per-row update) goes through, so the combo cache can never
    /// serve combinations discovered before the mutation. The table's
    /// snapshot version and the global epoch bump too: the next
    /// [`Catalog::pin_table`] freezes a fresh view.
    ///
    /// Callers may hold the table's write guard here, so this must never
    /// take the `checkpoint` mutex (a checkpointer serializing tables
    /// would deadlock); checkpoints are triggered *after* write guards
    /// drop, via [`Catalog::maybe_checkpoint`].
    pub fn with_wal_mutating<R>(&self, table: &str, f: impl FnOnce(&mut Wal) -> R) -> R {
        self.bump_version(table);
        self.invalidate_derived(table);
        f(&mut self.wal.lock())
    }

    /// The distinct-combination cache (see [`ComboCache`]).
    pub fn combo_cache(&self) -> &ComboCache {
        &self.combos
    }

    /// The lattice-level partial cache (see [`LatticeCache`]).
    pub fn lattice_cache(&self) -> &LatticeCache {
        &self.lattice
    }

    /// Drop every derived cache entry for `name`: cached distinct
    /// combinations and cached lattice partials share one invalidation
    /// funnel, so nothing derived from a table's data outlives a mutation
    /// of that table.
    fn invalidate_derived(&self, name: &str) {
        self.combos.invalidate_table(name);
        self.lattice.invalidate_table(name);
    }

    /// WAL counters snapshot.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.lock().stats()
    }

    /// Log a create so replay can rebuild the table: schema first, then a
    /// bulk-insert record when the table already holds rows. DDL is not
    /// failed by a sick log device; the loss is counted in
    /// `WalStats::write_errors` and surfaces at recovery.
    fn log_table_created(&self, name: &str, table: &Table) {
        let mut wal = self.wal.lock();
        if wal.log_create_table(name, table.schema()).is_ok() && table.num_rows() > 0 {
            let _ = wal.log_bulk_insert(name, table, 0);
        }
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
    /// same frozen alias, so per-alias caches (indexes, combination sets)
    /// stay warm across queries. Returns `None` for an absent table or a
    /// snapshot alias itself.
    pub fn pin_table(&self, name: &str) -> Option<Arc<SnapshotView>> {
        if name.starts_with(SNAP_PREFIX) {
            return None;
        }
        let mut snaps = self.snaps.lock();
        let version = self.table_version(name);
        let epoch = self.epoch();
        let source = self.tables.read().get(name).cloned()?;
        if let Some(entry) = snaps.current.get_mut(name) {
            // Reuse needs the version to match AND the frozen alias to
            // still share the live table's column storage — the CoW
            // identity catches mutations that bypassed the WAL funnel,
            // which a version number alone would miss.
            let unchanged = entry.version == version
                && self
                    .tables
                    .read()
                    .get(&entry.alias)
                    .is_some_and(|frozen| source.read().shares_columns(&frozen.read()));
            if unchanged {
                if let Some(view) = entry.view.upgrade() {
                    self.count_pin();
                    return Some(view);
                }
                // All pins were dropped but the alias table is still
                // registered (not yet swept): re-issue a view over it.
                if let Some(shared) = self.tables.read().get(&entry.alias).cloned() {
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
        let frozen = source.read().clone();
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

    /// Forget every cached derivation of `name`'s data — distinct
    /// combinations *and* lattice partials — including entries keyed by its
    /// snapshot aliases. Executors scan pinned aliases, so the caches key
    /// by the alias actually scanned; a plain invalidation on the source
    /// name would leave those alias entries warm.
    pub fn invalidate_combos(&self, name: &str) {
        self.invalidate_derived(name);
        let snaps = self.snaps.lock();
        if let Some(entry) = snaps.current.get(name) {
            self.invalidate_derived(&entry.alias);
        }
        for r in &snaps.retired {
            if r.source == name {
                self.invalidate_derived(&r.alias);
            }
        }
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
            self.invalidate_indexes(&alias);
            self.invalidate_derived(&alias);
        }
    }

    /// Mirror checkpoint/snapshot/WAL/combo-cache counters into `registry`
    /// (Prometheus names `pa_storage_*`).
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let m = CatalogMetrics::register(registry);
        m.snapshot_epoch.set(self.epoch() as i64);
        *self.metrics.write() = Some(m);
        self.wal.lock().attach_metrics(registry);
        self.combos.attach_metrics(registry);
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
        self.wal.lock().log_term_bump(term)?;
        self.term.store(term, Ordering::Relaxed);
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
    /// a stable WAL LSN fence, without touching the checkpoint store — the
    /// replica-bootstrap export. Returns `(frame, fence, term)`: every
    /// record below `fence` is inside the image, so a replica installing it
    /// resumes the stream at `fence`. Uses the same fence-retry protocol as
    /// [`Catalog::checkpoint_now`] and reports
    /// [`StorageError::CheckpointContended`] under persistent write
    /// pressure (callers retry on the next sync round).
    pub fn export_image(&self) -> Result<(Vec<u8>, u64, u64)> {
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
            let frame = encode_image(&refs, epoch, fence)?;
            return Ok((frame, fence, self.term()));
        }
        Err(StorageError::CheckpointContended)
    }

    /// Register or replace `name` *without* logging to this catalog's WAL,
    /// routing invalidation exactly as a live write would: version and
    /// epoch bump, indexes and cached combinations die. The replica apply
    /// path — the shipped record was already logged by the primary, and
    /// re-logging here would interleave replicated LSNs with this
    /// catalog's own records.
    fn install_unlogged(&self, name: &str, table: Table) {
        let mut tables = self.tables.write();
        self.bump_version(name);
        self.invalidate_indexes(name);
        self.invalidate_derived(name);
        tables.insert(name.to_string(), Arc::new(RwLock::new(table)));
    }

    /// Drop `name` without logging; same invalidation as a live drop.
    fn drop_unlogged(&self, name: &str) -> bool {
        let removed = self.tables.write().remove(name).is_some();
        if removed {
            self.bump_version(name);
            self.invalidate_indexes(name);
            self.invalidate_derived(name);
        }
        removed
    }

    /// Apply one replicated WAL record to this catalog through the same
    /// invalidation funnel live writes use — versions and the global epoch
    /// bump, cached combinations and indexes for the touched table die, so
    /// the next [`Catalog::pin_table`] freezes a fresh view — but without
    /// re-logging to this catalog's own WAL. Returns `false` for a valid
    /// record that cannot apply to the current state (skip-and-count, the
    /// same contract as recovery replay); application is atomic either way.
    pub fn apply_shipped(&self, record: &WalRecord) -> bool {
        match record {
            WalRecord::CreateTable { name, schema } => {
                self.install_unlogged(name, Table::empty(schema.clone().into_shared()));
                true
            }
            WalRecord::DropTable { name } => self.drop_unlogged(name),
            WalRecord::BulkInsert { name, rows } => {
                let Ok(shared) = self.table(name) else {
                    return false;
                };
                // Hold the write guard across both the mutation and the
                // funnel bump, mirroring the live writer protocol.
                let mut t = shared.write();
                if t.push_rows(rows).is_err() {
                    return false;
                }
                self.with_wal_mutating(name, |_| {});
                true
            }
            WalRecord::UpdateRow {
                name,
                row,
                cols,
                after,
                ..
            } => {
                let Ok(shared) = self.table(name) else {
                    return false;
                };
                let mut t = shared.write();
                let cols: Vec<usize> = cols.iter().map(|&c| c as usize).collect();
                if t.set_cells(*row as usize, &cols, after).is_err() {
                    return false;
                }
                self.with_wal_mutating(name, |_| {});
                true
            }
            WalRecord::TermBump { term } => {
                self.observe_term(*term);
                true
            }
        }
    }

    /// Replace every user table with the contents of a bootstrap image
    /// (see [`Catalog::export_image`]), unlogged and through the same
    /// invalidation funnel as [`Catalog::apply_shipped`]. Hidden snapshot
    /// aliases survive — pins taken before the install stay frozen.
    pub fn install_image(&self, image: CheckpointImage) {
        let existing: Vec<String> = self.table_names();
        for name in existing {
            self.drop_unlogged(&name);
        }
        for (name, table) in image.tables {
            self.install_unlogged(&name, table);
        }
    }

    /// The checkpoint protocol, called with the `checkpoint` mutex held.
    ///
    /// Writers take a table write guard *then* the WAL lock, so the
    /// checkpointer must never hold the WAL lock while locking tables
    /// (ABBA). Instead it reads an LSN fence, serializes without any WAL
    /// lock, and re-reads the fence: unchanged means no record landed
    /// mid-serialization, so the image is exactly "everything below the
    /// fence". (Data mutations hold their table's write guard across both
    /// the mutation and its WAL append, so a half-visible mutation blocks
    /// `t.read()` until its record is in the log — the fence then catches
    /// it.) A moved fence retries; persistent contention reports
    /// [`StorageError::CheckpointContended`] without degrading.
    fn checkpoint_locked(&self, state: &mut CheckpointState) -> Result<u64> {
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
            let frame = encode_image(&refs, epoch, fence)?;
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
            return Ok(fence);
        }
        Err(StorageError::CheckpointContended)
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
    /// `policy`, and its combination cache is verifiably cold: the install
    /// is routed through the same mutation funnel live writes use.
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
        let (start_lsn, image_epoch, mut tables, checkpoint_tables) = match image {
            Some(img) => {
                let n = img.tables.len() as u64;
                let map: BTreeMap<String, SharedTable> = img
                    .tables
                    .into_iter()
                    .map(|(name, t)| (name, Arc::new(RwLock::new(t))))
                    .collect();
                (img.lsn, img.epoch, map, n)
            }
            None => (0, 0, BTreeMap::new(), 0),
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
        let mut term = 0u64;
        let lsns = scan.lsns;
        for (record, lsn) in scan.records.into_iter().zip(lsns.iter().copied()) {
            // Terms ratchet regardless of the checkpoint fence: a TermBump
            // below the fence still happened.
            if let WalRecord::TermBump { term: t } = &record {
                term = term.max(*t);
            }
            if lsn < start_lsn {
                // Already inside the checkpoint image (a crash can land
                // between image save and WAL compaction).
                pre_checkpoint += 1;
            } else if apply_record(&mut tables, record) {
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

        let stats = WalStats {
            records: replayed + skipped + pre_checkpoint,
            bytes_written: scan.valid_len,
            write_errors: 0,
            retries: 0,
        };
        let frames = lsns
            .iter()
            .copied()
            .zip(scan.frame_lens.iter().copied())
            .collect();
        let wal = Wal::resume(store, capacity, stats, frames, next_lsn);
        // The combination cache starts empty on recovery: nothing cached
        // before the crash survives into the recovered catalog.
        let catalog = Catalog {
            tables: RwLock::new(tables),
            wal: Mutex::new(wal),
            ..Catalog::default()
        };
        catalog.epoch.store(image_epoch, Ordering::Relaxed);
        catalog.term.store(term, Ordering::Relaxed);
        // Route the install through the same funnel live mutations use, so
        // the combo cache is verifiably cold for every installed table.
        for name in catalog.table_names() {
            catalog.with_wal_mutating(&name, |_| {});
        }
        debug_assert!(
            catalog.combo_cache().is_empty(),
            "recovered combo cache must start cold"
        );
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

/// Replay one record into the table map. Returns false when the record is
/// valid but cannot apply to the current state (skip-and-count semantics).
/// Application is atomic: [`Table::push_rows`] and [`Table::set_cells`]
/// validate the whole record against the table before mutating, so a
/// skipped record leaves the table exactly as it was — never half-applied.
fn apply_record(tables: &mut BTreeMap<String, SharedTable>, record: WalRecord) -> bool {
    match record {
        WalRecord::CreateTable { name, schema } => {
            let table = Table::empty(schema.into_shared());
            tables.insert(name, Arc::new(RwLock::new(table)));
            true
        }
        WalRecord::DropTable { name } => tables.remove(&name).is_some(),
        WalRecord::BulkInsert { name, rows } => {
            let Some(table) = tables.get(&name) else {
                return false;
            };
            table.write().push_rows(&rows).is_ok()
        }
        WalRecord::UpdateRow {
            name,
            row,
            cols,
            after,
            ..
        } => {
            let Some(table) = tables.get(&name) else {
                return false;
            };
            let cols: Vec<usize> = cols.into_iter().map(|c| c as usize).collect();
            table.write().set_cells(row as usize, &cols, &after).is_ok()
        }
        // Terms are tracked by the replay loop itself; the record touches
        // no table state.
        WalRecord::TermBump { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

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
    fn replace_resets_table_and_indexes() {
        let cat = Catalog::new();
        cat.create_table("F", table()).unwrap();
        cat.create_index("F", &["d"]).unwrap();
        assert!(cat.index("F", &["d"]).is_some());
        cat.create_or_replace_table("F", table());
        assert!(
            cat.index("F", &["d"]).is_none(),
            "indexes die with the old table"
        );
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
        let shared = cat.table("F").unwrap();
        shared
            .write()
            .push_row(&[Value::Int(7), Value::Float(8.0)])
            .unwrap();
        cat.with_wal(|w| {
            let t = shared.read();
            w.log_update(
                "F",
                0,
                &[0, 1],
                &[Value::Int(1), Value::Float(2.0)],
                &[Value::Int(-1), Value::Null],
            )
            .unwrap();
            w.log_bulk_insert("F", &t, 1).unwrap();
        });
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
        cat.with_wal(|w| {
            w.log_update(
                "F",
                0,
                &[0, 1],
                &[Value::Int(1), Value::Float(2.0)],
                &[Value::Int(2), Value::Float(2.0)],
            )
        })
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
        rec.with_wal(|w| {
            w.log_update(
                "F",
                0,
                &[0, 1],
                &[Value::Int(1), Value::Float(2.0)],
                &[Value::Int(9), Value::Float(2.0)],
            )
        })
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
        wal.log_bulk_insert("orphan", &t, 0).unwrap();
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
        cat.with_wal(|w| w.log_update("F", 0, &[2], &[Value::Float(3.0)], &[Value::Float(9.0)]))
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
        wal.log_bulk_insert("F", &t, 0).unwrap();
        // Batch whose second row type-clashes with F's schema.
        wal.log_bulk_insert("F", &alien, 0).unwrap();
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
        cat.create_index("q7_Fk", &["d"]).unwrap();

        assert_eq!(cat.drop_prefixed("q7_"), 3);
        assert_eq!(
            cat.table_names(),
            vec!["F".to_string(), "q70_FV".to_string()],
            "only the exact prefix was swept"
        );
        assert!(cat.index("q7_Fk", &["d"]).is_none(), "indexes die too");
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

    /// Mimic the engine's write path: mutate under the table's write guard,
    /// then log through the mutation funnel (which bumps the version).
    fn append_row(cat: &Catalog, name: &str, d: i64, a: f64) {
        let shared = cat.table(name).unwrap();
        let mut t = shared.write();
        let start = t.num_rows();
        t.push_row(&[Value::Int(d), Value::Float(a)]).unwrap();
        cat.with_wal_mutating(name, |w| w.log_bulk_insert(name, &t, start).unwrap());
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
            "install runs through the funnel; combos start cold"
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
        append_row(&cat, "F", 2, 2.0);
        cat.maybe_checkpoint();
        assert!(
            store.0.lock().is_empty(),
            "one record is below the threshold"
        );
        append_row(&cat, "F", 3, 3.0);
        cat.maybe_checkpoint();
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
