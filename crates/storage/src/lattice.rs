//! The level cache: cached `GROUP BY` levels of a table (DESIGN.md "The
//! level cache").
//!
//! An entry is one finalized `Arc<Table>` — the level's key columns, then
//! one column per aggregate lane, rows sorted by key — tagged with the
//! caller's identity of each lane and with the **version** of the source
//! table it describes; a `(table, level columns)` key holds a short list of
//! them. A lookup names the table and the version it reads (a pinned
//! snapshot's source and version), and an entry answers only a lookup of
//! its own version: an entry is a fact about one version of the data, so a
//! write never has to find it to keep it honest. A one-scan CUBE/ROLLUP
//! evaluation stores one per lattice level under the level's normalized
//! columns: a later query at the same level is answered by a
//! refcount bump, and one at any *coarser* level re-aggregates the cached
//! table's distributive sums instead of rescanning the fact table (and
//! stores the result back, so the request after it finds its level exact).
//! The distinct `BY` combinations of a horizontal query (`SELECT DISTINCT
//! Dj+1..Dk FROM F`, SIGMOD §3.1 step 2) are a level with **no lanes**: the
//! key columns alone, under the `BY` columns in query order.
//!
//! Lanes are positional, and an entry serves any lookup for a leading run
//! of its lanes: a lookup with different aggregates never resurrects a
//! table of the wrong shape, a totals level reads the sums of an entry that
//! also carries extras, and a lookup for no lanes — a combination set — is
//! served by whatever entry sits at its key, so a level a ROLLUP cached
//! answers an `Hpct`'s combinations without a pass. Never the converse: a
//! zero-lane entry serves zero-lane lookups only.
//!
//! Statements that share a level but not their aggregates keep an entry
//! each. A store that an entry at its key, of its version or a newer one,
//! already serves changes nothing; any other store drops the entries of
//! its version or older that its own lanes serve (a combination set, a
//! sums-only totals level, the same level one write ago) and sits beside
//! the rest.
//!
//! A write leaves the entries alone. A reader at a newer version that
//! misses asks [`LatticeCache::older`] for the newest entry of the level
//! below its version and rolls it forward over the catalog's write journal
//! ([`crate::journal`]); the result is stored at the new version and
//! supersedes the old entry. The catalog trims the journal to
//! [`LatticeCache::oldest_version`]. When the journal covers as many rows
//! as the table, or holds more than the cache's byte budget, it drops its
//! oldest changes and the catalog drops the entries older than what it
//! still reaches ([`LatticeCache::invalidate_before`]); it drops all of a
//! table's entries ([`LatticeCache::invalidate_table`]) when the table is
//! created, replaced or dropped, and on
//! [`crate::Catalog::invalidate_combos`].
//!
//! Beside an entry's table the cache keeps its `parent` vectors
//! ([`LatticeCache::parent`]): for a coarser level the evaluator divides
//! by, the row of that level's table each row of this one projects onto.
//! Every table at a level lists every key of the fact table in one
//! canonical order, so a vector is a function of the finer table alone: it
//! lives and dies with that entry, and a coarser level evicted and
//! recomputed, or held by another entry, finds it valid. An entry rolled
//! forward starts with none.
//!
//! The cache is bounded by bytes: every entry carries the heap size of its
//! table and its parent vectors, and a store that takes the total past
//! [`LATTICE_CACHE_BYTES`] evicts least-recently-used entries, one at a
//! time, until it fits. An evicted level is simply a miss — the planner
//! falls back to a cached ancestor or the scan, a combination set is
//! scanned for again. Recovery and replica bootstrap start cold. A
//! [`crate::SharedTable`] write guard is for unregistered values (a query's
//! own result), which are never cached.

use crate::error::Result;
use crate::table::Table;
use pa_obs::{Counter, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Heap bytes of level tables the cache retains before it evicts.
pub const LATTICE_CACHE_BYTES: usize = 64 << 20;

/// One cached level.
#[derive(Debug)]
struct LatticeEntry {
    /// The version of the source table the level describes.
    version: u64,
    /// Caller-defined identity of each lane (aggregate function and
    /// input), in column order.
    lanes: Vec<String>,
    table: Arc<Table>,
    /// `table`'s parent vectors, by the coarser level's columns.
    parents: Vec<(Vec<String>, Arc<[u32]>)>,
    /// `table.heap_bytes()` when stored, plus the parent vectors'.
    bytes: usize,
    /// Tick of the last hit (or the store), for least-recently-used
    /// eviction.
    used: AtomicU64,
}

impl LatticeEntry {
    /// Whether this entry answers a lookup for `lanes`: they are a leading
    /// run of its own (none at all included).
    fn serves(&self, lanes: &[String]) -> bool {
        self.lanes.starts_with(lanes)
    }
}

/// Counter handles mirroring the cache's traffic into a
/// [`MetricsRegistry`] (Prometheus names `pa_storage_lattice_cache_*`).
#[derive(Debug)]
struct LatticeMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl LatticeMetrics {
    fn register(registry: &MetricsRegistry) -> LatticeMetrics {
        LatticeMetrics {
            hits: registry.counter(
                "pa_storage_lattice_cache_hits_total",
                "lattice levels served from cache",
            ),
            misses: registry.counter(
                "pa_storage_lattice_cache_misses_total",
                "lattice-level lookups that required evaluation",
            ),
            invalidations: registry.counter(
                "pa_storage_lattice_cache_invalidations_total",
                "lattice levels dropped by table mutations",
            ),
            evictions: registry.counter(
                "pa_storage_lattice_cache_evictions_total",
                "lattice levels evicted by the byte bound",
            ),
        }
    }
}

/// Cumulative traffic counters, snapshot via [`LatticeCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatticeCacheStats {
    /// Lookups served from cache (lanes matched).
    pub hits: u64,
    /// Lookups that missed (absent or lane mismatch).
    pub misses: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
    /// Entries dropped by the byte bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Parent vectors built ([`LatticeCache::parent`] calls that found
    /// none): a request served warm builds none.
    pub parent_builds: u64,
}

/// The entries, by table name and then by level columns, so a lookup
/// borrows its key: `&str` and `&[String]` find a level with nothing built.
/// A level holds one entry per version and lane signature, none serving
/// another of its version.
#[derive(Debug, Default)]
struct Entries {
    map: BTreeMap<String, BTreeMap<Vec<String>, Vec<LatticeEntry>>>,
    /// Sum of the entries' `bytes`.
    bytes: usize,
}

impl Entries {
    /// The entries at `(table, level_cols)`.
    fn level(&self, table: &str, level_cols: &[String]) -> &[LatticeEntry] {
        let level = self.map.get(table).and_then(|l| l.get(level_cols));
        level.map_or(&[], Vec::as_slice)
    }

    /// The first entry at `(table, level_cols)` of `version` that serves
    /// `lanes`.
    fn serving(
        &self,
        (table, version): (&str, u64),
        level_cols: &[String],
        lanes: &[String],
    ) -> Option<&LatticeEntry> {
        self.level(table, level_cols)
            .iter()
            .find(|e| e.version == version && e.serves(lanes))
    }

    /// Drop least-recently-used entries until the total fits `budget`;
    /// returns how many went.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let (table, cols, i) = (self.map.iter())
                .flat_map(|(t, levels)| levels.iter().map(move |(c, es)| (t, c, es)))
                .flat_map(|(t, c, es)| es.iter().enumerate().map(move |(i, e)| (t, c, i, e)))
                .min_by_key(|(_, _, _, e)| e.used.load(Ordering::Relaxed))
                .map(|(t, c, i, _)| (t.clone(), c.clone(), i))
                .expect("a non-zero byte total has an entry");
            let levels = self.map.get_mut(&table).expect("table just listed");
            let level = levels.get_mut(&cols).expect("level just listed");
            self.bytes -= level.remove(i).bytes;
            if level.is_empty() {
                levels.remove(&cols);
            }
            evicted += 1;
        }
        evicted
    }
}

/// Memoized `(table, level columns, lanes) → level table` map, bounded by
/// bytes.
///
/// Tables are shared out as `Arc`, so a hit costs one map lookup and one
/// refcount bump, against columns that can never be mutated underneath it.
#[derive(Debug)]
pub struct LatticeCache {
    entries: RwLock<Entries>,
    budget: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    parent_builds: AtomicU64,
    metrics: RwLock<Option<LatticeMetrics>>,
}

impl Default for LatticeCache {
    fn default() -> LatticeCache {
        LatticeCache::with_budget(LATTICE_CACHE_BYTES)
    }
}

impl LatticeCache {
    /// Empty cache bounded by [`LATTICE_CACHE_BYTES`].
    pub fn new() -> LatticeCache {
        LatticeCache::default()
    }

    fn with_budget(budget: usize) -> LatticeCache {
        LatticeCache {
            entries: RwLock::default(),
            budget,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            parent_builds: AtomicU64::new(0),
            metrics: RwLock::new(None),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bump a traffic counter and its registry mirror.
    fn count(&self, local: &AtomicU64, mirror: impl Fn(&LatticeMetrics) -> &Counter, n: u64) {
        local.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = &*self.metrics.read() {
            mirror(m).add(n);
        }
    }

    /// Cached table for `level_cols` of `table` at `version` whose leading
    /// lanes are `lanes`, counting the lookup as a hit or miss. A level
    /// whose entries all carry other lanes, or describe other versions,
    /// counts as a miss (the caller will store its own entry beside them).
    pub fn get(
        &self,
        table: &str,
        version: u64,
        level_cols: &[String],
        lanes: &[String],
    ) -> Option<Arc<Table>> {
        let mut found = [None];
        self.get_levels((table, version), &[(level_cols, lanes)], &mut found);
        found[0].take()
    }

    /// [`LatticeCache::get`] of a request's `levels` of `table` at
    /// `version`, `(level columns, lanes)` each, into the `None` slots of
    /// `found`: one read lock, one clock advance and one counter update for
    /// the lot. Hits and misses count, and recency refreshes, as that many
    /// `get`s would.
    pub fn get_levels(
        &self,
        source: (&str, u64),
        levels: &[(&[String], &[String])],
        found: &mut [Option<Arc<Table>>],
    ) {
        let base = self.clock.fetch_add(levels.len() as u64, Ordering::Relaxed);
        let (entries, mut hits) = (self.entries.read(), 0);
        for (i, (&(cols, lanes), slot)) in levels.iter().zip(found).enumerate() {
            let Some(e) = entries.serving(source, cols, lanes) else {
                continue;
            };
            e.used.store(base + 1 + i as u64, Ordering::Relaxed);
            (*slot, hits) = (Some(Arc::clone(&e.table)), hits + 1);
        }
        drop(entries);
        self.count(&self.hits, |m| &m.hits, hits);
        self.count(&self.misses, |m| &m.misses, levels.len() as u64 - hits);
    }

    /// Store a level table (canonical layout, see the module docs) of
    /// `table` at `version` whose lane columns are `lanes`. An entry at the
    /// key, of this version or a newer one, that already serves `lanes`
    /// stays and this store changes nothing: two statements that both
    /// missed store in either order, and the one with fewer lanes (a
    /// combination set against a ROLLUP's level) must not cost the other
    /// its entry, nor may a reader of an old pin put back what a newer
    /// version superseded. Otherwise the new entry drops the entries at the
    /// key, of this version or older, that `lanes` serve, and sits beside
    /// the rest: statements that share a level but not their extras keep an
    /// entry each, and a level rolled forward replaces the one it was
    /// rolled from. Least-recently-used entries are evicted until the cache
    /// fits its byte budget again; a table larger than the whole budget is
    /// not retained.
    pub fn store(
        &self,
        table: &str,
        version: u64,
        level_cols: &[String],
        lanes: &[String],
        level: Arc<Table>,
    ) {
        let bytes = level.heap_bytes();
        if bytes > self.budget {
            return;
        }
        let entry = LatticeEntry {
            version,
            lanes: lanes.to_vec(),
            bytes,
            table: level,
            parents: Vec::new(),
            used: AtomicU64::new(self.tick()),
        };
        let mut entries = self.entries.write();
        let newer = |e: &LatticeEntry| e.version >= version && e.serves(lanes);
        if entries.level(table, level_cols).iter().any(newer) {
            return;
        }
        let levels = entries.map.entry(table.to_string()).or_default();
        let level = levels.entry(level_cols.to_vec()).or_default();
        let mut freed = 0;
        level.retain(|e| {
            let served = e.version <= version && lanes.starts_with(&e.lanes);
            freed += if served { e.bytes } else { 0 };
            !served
        });
        level.push(entry);
        entries.bytes = entries.bytes + bytes - freed;
        let evicted = entries.evict_to(self.budget);
        drop(entries);
        if evicted > 0 {
            self.count(&self.evictions, |m| &m.evictions, evicted);
        }
    }

    /// The `parent` vector of `level` — the table a [`LatticeCache::get`]
    /// of `level_cols` handed out — onto the coarser level `onto`: for each
    /// of its rows, the row of that level's table holding the group it
    /// projects onto. `build` derives it the first time; it is then kept
    /// beside the entry holding `level`, counted in its bytes and dropped
    /// with it (eviction, invalidation, a store whose lanes serve that
    /// entry's), whatever happens to the level's other entries. Not a level
    /// lookup: it counts as neither hit nor miss. For a table the cache does not hold
    /// (never cached, evicted since) `build` runs every time; a `build`
    /// that fails keeps nothing.
    pub fn parent(
        &self,
        table: &str,
        level_cols: &[String],
        level: &Arc<Table>,
        onto: &[String],
        build: impl FnOnce() -> Result<Vec<u32>>,
    ) -> Result<Arc<[u32]>> {
        let held = |e: &LatticeEntry| Arc::ptr_eq(&e.table, level);
        let kept = |e: &LatticeEntry| {
            let found = e.parents.iter().find(|(cols, _)| cols == onto);
            found.map(|(_, parent)| Arc::clone(parent))
        };
        let entries = self.entries.read();
        let entry = entries.level(table, level_cols).iter().find(|e| held(e));
        if let Some(parent) = entry.and_then(kept) {
            return Ok(parent);
        }
        drop(entries);
        self.parent_builds.fetch_add(1, Ordering::Relaxed);
        let parent: Arc<[u32]> = build()?.into();
        let mut entries = self.entries.write();
        let level = (entries.map.get_mut(table)).and_then(|l| l.get_mut(level_cols));
        let Some(entry) = level.and_then(|es| es.iter_mut().find(|e| held(e))) else {
            return Ok(parent);
        };
        if kept(entry).is_none() {
            let bytes = std::mem::size_of_val(&*parent);
            entry.parents.push((onto.to_vec(), Arc::clone(&parent)));
            entry.bytes += bytes;
            entries.bytes += bytes;
            let evicted = entries.evict_to(self.budget);
            drop(entries);
            if evicted > 0 {
                self.count(&self.evictions, |m| &m.evictions, evicted);
            }
        }
        Ok(parent)
    }

    /// Whether a compatible entry exists, **without** counting the lookup
    /// or refreshing its recency — planners and EXPLAIN probe here so
    /// speculative planning does not skew the hit/miss counters.
    pub fn probe(
        &self,
        table: &str,
        version: u64,
        level_cols: &[String],
        lanes: &[String],
    ) -> bool {
        let entries = self.entries.read();
        entries
            .serving((table, version), level_cols, lanes)
            .is_some()
    }

    /// The newest entry of `level_cols` of `table` older than `version`
    /// that serves `lanes`, with the version it describes: what a reader
    /// at `version` that missed may roll forward over the write journal.
    /// Counts nothing and refreshes nothing (the miss was counted).
    pub fn older(
        &self,
        table: &str,
        version: u64,
        level_cols: &[String],
        lanes: &[String],
    ) -> Option<(u64, Arc<Table>)> {
        let entries = self.entries.read();
        let older = entries.level(table, level_cols).iter();
        let older = older.filter(|e| e.version < version && e.serves(lanes));
        let newest = older.max_by_key(|e| e.version)?;
        Some((newest.version, Arc::clone(&newest.table)))
    }

    /// The oldest version an entry of `table` describes; `None` when
    /// nothing of it is cached. The catalog trims its write journal to it.
    pub fn oldest_version(&self, table: &str) -> Option<u64> {
        let entries = self.entries.read();
        let levels = entries.map.get(table)?.values().flatten();
        levels.map(|e| e.version).min()
    }

    /// Drop every cached level of `table`, of every version: the catalog
    /// calls this when the table is created, replaced or dropped, and on
    /// [`crate::Catalog::invalidate_combos`].
    pub fn invalidate_table(&self, table: &str) {
        self.invalidate_before(table, u64::MAX);
    }

    /// Drop the cached levels of `table` that describe a version older
    /// than `version`: the catalog calls this when its write journal drops
    /// the changes they would be rolled forward over.
    pub fn invalidate_before(&self, table: &str, version: u64) {
        let mut entries = self.entries.write();
        let Some(levels) = entries.map.get_mut(table) else {
            return;
        };
        let (mut dropped, mut freed) = (0, 0);
        levels.retain(|_, level| {
            level.retain(|e| {
                let old = e.version < version;
                (dropped, freed) = (dropped + old as u64, freed + if old { e.bytes } else { 0 });
                !old
            });
            !level.is_empty()
        });
        if levels.is_empty() {
            entries.map.remove(table);
        }
        entries.bytes -= freed;
        drop(entries);
        if dropped > 0 {
            self.count(&self.invalidations, |m| &m.invalidations, dropped);
        }
    }

    /// The byte bound the cache evicts to ([`LATTICE_CACHE_BYTES`]); the
    /// catalog holds a table's write journal to it as well.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The levels cached for `table` at `version` with leading lanes
    /// `lanes`, in key order — planners use this to find a cached *finer*
    /// ancestor to re-aggregate from. Counts nothing.
    pub fn levels_for(&self, table: &str, version: u64, lanes: &[String]) -> Vec<Vec<String>> {
        let entries = self.entries.read();
        let levels = entries.map.get(table).into_iter().flatten();
        let serves = |e: &LatticeEntry| e.version == version && e.serves(lanes);
        (levels.filter(|(_, es)| es.iter().any(serves)))
            .map(|(cols, _)| cols.clone())
            .collect()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        let entries = self.entries.read();
        let levels = entries.map.values().flat_map(BTreeMap::values);
        levels.map(Vec::len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters snapshot.
    pub fn stats(&self) -> LatticeCacheStats {
        LatticeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            parent_builds: self.parent_builds.load(Ordering::Relaxed),
        }
    }

    /// Mirror this cache's counters into `registry` (Prometheus names
    /// `pa_storage_lattice_cache_*`).
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        *self.metrics.write() = Some(LatticeMetrics::register(registry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType, Schema, Value};

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// A one-column level table of `rows` rows, all holding `tag`.
    fn level(tag: i64, rows: usize) -> Arc<Table> {
        let schema = Schema::from_pairs(&[("s", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut col = Column::with_capacity(DataType::Int, rows);
        for _ in 0..rows {
            col.push(Value::Int(tag)).unwrap();
        }
        Arc::new(Table::from_columns(schema, vec![col]).unwrap())
    }

    fn tag_of(t: &Table) -> Value {
        t.get(0, 0)
    }

    #[test]
    fn miss_store_hit_round_trip() {
        let cache = LatticeCache::new();
        assert!(cache
            .get("F", 0, &cols(&["state"]), &cols(&["sum(amt)"]))
            .is_none());
        let stored = level(7, 3);
        cache.store(
            "F",
            0,
            &cols(&["state"]),
            &cols(&["sum(amt)"]),
            Arc::clone(&stored),
        );
        let hit = cache
            .get("F", 0, &cols(&["state"]), &cols(&["sum(amt)"]))
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &stored), "a hit is a refcount bump");
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn lane_mismatch_is_a_miss_and_store_replaces() {
        let cache = LatticeCache::new();
        let state = cols(&["state"]);
        let tag = |lanes: &[&str]| cache.get("F", 0, &state, &cols(lanes)).map(|t| tag_of(&t));
        cache.store("F", 0, &state, &cols(&["sum(amt)"]), level(1, 1));
        assert_eq!(tag(&["sum(qty)"]), None, "other lanes are a miss");
        // An entry with other lanes coexists with it at the same level.
        cache.store("F", 0, &state, &cols(&["sum(qty)"]), level(2, 1));
        assert_eq!(cache.len(), 2, "one entry per lane signature");
        assert_eq!(tag(&["sum(amt)"]), Some(Value::Int(1)));
        assert_eq!(tag(&["sum(qty)"]), Some(Value::Int(2)));
        // A store replaces exactly the entries its lanes serve.
        cache.store(
            "F",
            0,
            &state,
            &cols(&["sum(qty)", "count(*)"]),
            level(3, 1),
        );
        assert_eq!(cache.len(), 2, "sum(qty) replaced, sum(amt) kept");
        assert_eq!(tag(&["sum(qty)"]), Some(Value::Int(3)));
        assert_eq!(tag(&["sum(qty)", "count(*)"]), Some(Value::Int(3)));
        assert_eq!(tag(&["sum(amt)"]), Some(Value::Int(1)));
        assert_eq!(tag(&["sum(amt)", "count(*)"]), None);
        assert_eq!(
            cache.levels_for("F", 0, &cols(&["sum(amt)"])),
            vec![state.clone()]
        );
        assert_eq!(cache.stats().evictions, 0, "replacing is not evicting");
        // Each entry goes by its own recency: in room for two levels, a
        // third evicts the older entry, not the whole level.
        let one = level(0, 1000).heap_bytes();
        let cache = LatticeCache::with_budget(2 * one + one / 2);
        cache.store("F", 0, &state, &cols(&["a"]), level(1, 1000));
        cache.store("F", 0, &state, &cols(&["b"]), level(2, 1000));
        assert!(cache.get("F", 0, &state, &cols(&["a"])).is_some());
        cache.store("F", 0, &state, &cols(&["c"]), level(3, 1000));
        let kept: Vec<bool> = ["a", "b", "c"]
            .iter()
            .map(|l| cache.probe("F", 0, &state, &cols(&[l])))
            .collect();
        assert_eq!(kept, [true, false, true], "the least recently used went");
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
        cache.invalidate_table("F");
        assert_eq!((cache.len(), cache.stats().invalidations), (0, 2));
    }

    #[test]
    fn an_entry_serves_any_leading_run_of_its_lanes() {
        let cache = LatticeCache::new();
        let state = cols(&["state"]);
        cache.store(
            "F",
            0,
            &state,
            &cols(&["sum(amt)", "count(*)"]),
            level(1, 1),
        );
        assert!(cache.get("F", 0, &state, &cols(&["sum(amt)"])).is_some());
        assert!(cache
            .get("F", 0, &state, &cols(&["sum(amt)", "count(*)"]))
            .is_some());
        assert!(cache.get("F", 0, &state, &cols(&["count(*)"])).is_none());
        assert!(cache
            .get("F", 0, &state, &cols(&["sum(amt)", "count(*)", "min(amt)"]))
            .is_none());
        assert_eq!(cache.levels_for("F", 0, &cols(&["sum(amt)"])), vec![state]);
    }

    #[test]
    fn a_combination_set_is_a_level_with_no_lanes() {
        let cache = LatticeCache::new();
        let (day, none) = (cols(&["day"]), cols(&[]));
        // A zero-lane entry serves zero-lane lookups only, at its own key.
        cache.store("F", 0, &day, &none, level(1, 2));
        assert!(cache.get("F", 0, &day, &none).is_some());
        assert!(cache.get("F", 0, &cols(&["day", "store"]), &none).is_none());
        assert!(cache.get("G", 0, &day, &none).is_none());
        assert!(cache.get("F", 0, &day, &cols(&["sum(amt)"])).is_none());
        assert!(!cache.probe("F", 0, &day, &cols(&["sum(amt)"])));
        assert!(cache.levels_for("F", 0, &cols(&["sum(amt)"])).is_empty());
        // A level with lanes replaces it and serves both kinds of lookup.
        let rollup = level(2, 2);
        let lanes = cols(&["sum(amt)", "count(*)"]);
        cache.store("F", 0, &day, &lanes, Arc::clone(&rollup));
        assert_eq!(cache.len(), 1);
        for wanted in [&none, &lanes[..1].to_vec(), &lanes] {
            let hit = cache.get("F", 0, &day, wanted).expect("a leading run");
            assert!(Arc::ptr_eq(&hit, &rollup));
        }
    }

    #[test]
    fn a_store_the_entry_already_serves_does_not_replace_it() {
        // Two statements miss at `(F, day)`; the ROLLUP stores its level
        // first, the `Hpct` its combinations after. The level must survive,
        // or the next ROLLUP rescans.
        let cache = LatticeCache::new();
        let day = cols(&["day"]);
        let lanes = cols(&["sum(amt)", "count(*)"]);
        let rollup = level(1, 2);
        cache.store("F", 0, &day, &lanes, Arc::clone(&rollup));
        let evictions = cache.stats().evictions;
        for fewer in [&lanes[..0], &lanes[..1], &lanes[..]] {
            cache.store("F", 0, &day, fewer, level(2, 2));
            let hit = cache.get("F", 0, &day, &lanes).expect("still every lane");
            assert!(Arc::ptr_eq(&hit, &rollup), "kept against {fewer:?}");
        }
        assert_eq!((cache.len(), cache.stats().evictions), (1, evictions));
        // Other lanes are another shape: that entry sits beside the level.
        let qty = level(3, 2);
        cache.store("F", 0, &day, &cols(&["sum(qty)"]), Arc::clone(&qty));
        let hit = cache
            .get("F", 0, &day, &lanes)
            .expect("the ROLLUP's level stays");
        assert!(Arc::ptr_eq(&hit, &rollup));
        let hit = cache.get("F", 0, &day, &cols(&["sum(qty)"])).unwrap();
        assert!(Arc::ptr_eq(&hit, &qty));
        assert_eq!(cache.len(), 2);
        // More lanes over the ROLLUP's replace its entry, and only it.
        let wider = level(4, 2);
        let more = cols(&["sum(amt)", "count(*)", "min(amt)"]);
        cache.store("F", 0, &day, &more, Arc::clone(&wider));
        let hit = cache.get("F", 0, &day, &lanes).unwrap();
        assert!(Arc::ptr_eq(&hit, &wider), "served by the wider entry");
        assert!(cache.probe("F", 0, &day, &cols(&["sum(qty)"])));
        assert_eq!((cache.len(), cache.stats().evictions), (2, evictions));
        // And every kept entry still dies with the table's data.
        cache.invalidate_table("F");
        assert!(cache.get("F", 0, &day, &[]).is_none());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn the_byte_bound_evicts_combination_sets_and_a_recomputed_set_is_identical() {
        // The distinct values of a column, sorted: what a miss computes.
        let distinct = |values: &[i64]| {
            let schema = Schema::from_pairs(&[("d", DataType::Int)]).unwrap();
            let mut t = Table::empty(schema.into_shared());
            for v in values {
                t.push_row(&[Value::Int(*v)]).unwrap();
            }
            let sorted = t.sorted_by(&[0]);
            let mut rows: Vec<Vec<Value>> = sorted.rows().collect();
            rows.dedup();
            let mut set = Table::empty(Arc::clone(t.schema()));
            set.push_rows(&rows).unwrap();
            Arc::new(set)
        };
        let facts: Vec<Vec<i64>> = (0..3)
            .map(|f| (0..2000).map(|i| (i * 7 + f) % 1000).collect())
            .collect();
        let one = distinct(&facts[0]).heap_bytes();
        // Room for two sets, not three.
        let cache = LatticeCache::with_budget(2 * one + one / 2);
        let by = cols(&["d"]);
        let first = distinct(&facts[0]);
        for (f, values) in facts.iter().enumerate() {
            cache.store(&format!("F{f}"), 0, &by, &[], distinct(values));
        }
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
        assert!(cache.get("F0", 0, &by, &[]).is_none(), "LRU set evicted");
        // The miss recomputes and stores; the set is the one evicted.
        cache.store("F0", 0, &by, &[], distinct(&facts[0]));
        let again = cache.get("F0", 0, &by, &[]).expect("stored again");
        let rows = |t: &Table| t.rows().collect::<Vec<_>>();
        assert_eq!(rows(&again), rows(&first));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 2));
    }

    #[test]
    fn an_entry_answers_its_own_version_and_a_newer_one_supersedes_it() {
        let cache = LatticeCache::new();
        let (day, sums) = (cols(&["day"]), cols(&["sum(amt)"]));
        let v3 = level(3, 2);
        cache.store("F", 3, &day, &sums, Arc::clone(&v3));
        assert!(
            cache.get("F", 4, &day, &sums).is_none(),
            "never another version's"
        );
        assert!(cache.get("F", 2, &day, &sums).is_none());
        assert!(!cache.probe("F", 4, &day, &sums));
        assert!(cache.levels_for("F", 4, &sums).is_empty());
        assert_eq!(cache.oldest_version("F"), Some(3));
        assert_eq!(cache.oldest_version("G"), None);
        // What a reader at a newer version may roll forward: the newest
        // older entry serving its lanes.
        let (from, old) = cache.older("F", 5, &day, &sums).unwrap();
        assert!(from == 3 && Arc::ptr_eq(&old, &v3));
        assert!(cache.older("F", 3, &day, &sums).is_none(), "not its own");
        assert!(cache.older("F", 5, &day, &cols(&["count(*)"])).is_none());
        assert!(cache.older("F", 5, &day, &[]).is_some(), "combinations too");
        // An entry with other lanes of the old version stays beside the
        // new one; the one the new lanes serve is superseded.
        cache.store("F", 3, &day, &cols(&["min(amt)"]), level(9, 2));
        let v5 = level(5, 2);
        cache.store("F", 5, &day, &sums, Arc::clone(&v5));
        assert!(Arc::ptr_eq(&cache.get("F", 5, &day, &sums).unwrap(), &v5));
        assert!(cache.get("F", 3, &day, &sums).is_none(), "superseded");
        assert!(cache.probe("F", 3, &day, &cols(&["min(amt)"])));
        assert_eq!((cache.len(), cache.oldest_version("F")), (2, Some(3)));
        // A reader of an old pin does not put back what a newer version
        // superseded.
        cache.store("F", 4, &day, &sums, level(4, 2));
        assert!(cache.get("F", 4, &day, &sums).is_none());
        assert_eq!(cache.len(), 2);
        cache.invalidate_table("F");
        assert_eq!(cache.oldest_version("F"), None);
    }

    #[test]
    fn invalidation_is_per_table_and_counted() {
        let cache = LatticeCache::new();
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), level(1, 1));
        cache.store("F", 0, &cols(&["a", "b"]), &cols(&["s"]), level(2, 1));
        cache.store("G", 0, &cols(&["a"]), &cols(&["s"]), level(3, 1));
        cache.invalidate_table("F");
        assert!(cache.get("F", 0, &cols(&["a"]), &cols(&["s"])).is_none());
        assert!(cache.get("G", 0, &cols(&["a"]), &cols(&["s"])).is_some());
        assert_eq!(cache.stats().invalidations, 2);
        cache.invalidate_table("F");
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn levels_for_lists_only_the_tables_compatible_levels() {
        let cache = LatticeCache::new();
        cache.store("F", 0, &cols(&["a", "b"]), &cols(&["s"]), level(1, 1));
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), level(1, 1));
        cache.store("F", 0, &cols(&["b"]), &cols(&["other"]), level(1, 1));
        cache.store("G", 0, &cols(&["c"]), &cols(&["s"]), level(1, 1));
        assert_eq!(
            cache.levels_for("F", 0, &cols(&["s"])),
            vec![cols(&["a"]), cols(&["a", "b"])]
        );
    }

    #[test]
    fn the_byte_bound_evicts_least_recently_used_first() {
        let one = level(0, 1000).heap_bytes();
        // Room for three such levels, not four.
        let cache = LatticeCache::with_budget(3 * one + one / 2);
        for (tag, name) in ["a", "b", "c"].iter().enumerate() {
            cache.store(
                "F",
                0,
                &cols(&[name]),
                &cols(&["s"]),
                level(tag as i64, 1000),
            );
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch the oldest: `b` is now the least recently used.
        assert!(cache.get("F", 0, &cols(&["a"]), &cols(&["s"])).is_some());
        cache.store("F", 0, &cols(&["d"]), &cols(&["s"]), level(3, 1000));
        assert!(
            !cache.probe("F", 0, &cols(&["b"]), &cols(&["s"])),
            "LRU entry evicted"
        );
        for kept in ["a", "c", "d"] {
            assert!(
                cache.probe("F", 0, &cols(&[kept]), &cols(&["s"])),
                "{kept} survives"
            );
        }
        // Replacing an entry releases its bytes instead of evicting.
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), level(9, 1000));
        let st = cache.stats();
        assert_eq!((st.evictions, st.entries), (1, 3));
        // A level larger than the whole budget is not retained and evicts
        // nothing on its way.
        cache.store("F", 0, &cols(&["huge"]), &cols(&["s"]), level(0, 10_000));
        assert!(!cache.probe("F", 0, &cols(&["huge"]), &cols(&["s"])));
        assert_eq!(cache.stats(), st);
        // Invalidation resets the byte total: three fit again.
        cache.invalidate_table("F");
        let before = cache.stats().evictions;
        for name in ["x", "y", "z"] {
            cache.store("F", 0, &cols(&[name]), &cols(&["s"]), level(0, 1000));
        }
        assert_eq!(cache.stats().evictions, before);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn a_parent_vector_is_built_once_and_lives_with_its_entry() {
        let cache = LatticeCache::new();
        let (fine, onto) = (cols(&["a", "b"]), cols(&["a"]));
        let stored = level(1, 4);
        cache.store("F", 0, &fine, &cols(&["s"]), Arc::clone(&stored));
        let before = cache.stats();
        let build = || Ok(vec![0, 0, 1, 1]);
        let first = cache.parent("F", &fine, &stored, &onto, build).unwrap();
        assert_eq!(&*first, &[0, 0, 1, 1]);
        let again = cache
            .parent("F", &fine, &stored, &onto, || unreachable!("kept"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // Another coarser level is another vector.
        cache
            .parent("F", &fine, &stored, &[], || Ok(vec![0; 4]))
            .unwrap();
        let st = cache.stats();
        assert_eq!(st.parent_builds, 2);
        // Not a level lookup.
        assert_eq!((st.hits, st.misses), (before.hits, before.misses));

        // A table the cache does not hold builds every time and keeps
        // nothing: another table under the same key, or none.
        let other = level(1, 4);
        for _ in 0..2 {
            cache.parent("F", &fine, &other, &onto, build).unwrap();
            cache.parent("G", &fine, &stored, &onto, build).unwrap();
        }
        assert_eq!(cache.stats().parent_builds, 6);

        // A store the entry already serves keeps it, vectors and all.
        cache.store("F", 0, &fine, &cols(&["s"]), level(1, 4));
        cache
            .parent("F", &fine, &stored, &onto, || unreachable!("kept"))
            .unwrap();
        // An entry with other lanes beside it keeps vectors of its own and
        // leaves the first entry's alone.
        let beside = level(2, 4);
        cache.store("F", 0, &fine, &cols(&["other"]), Arc::clone(&beside));
        cache
            .parent("F", &fine, &stored, &onto, || unreachable!("kept"))
            .unwrap();
        cache.parent("F", &fine, &beside, &onto, build).unwrap();
        assert_eq!(cache.stats().parent_builds, 7);
        // A store whose lanes serve the first entry replaces it: its vectors
        // die with it, the neighbour's stay.
        let wider = level(1, 4);
        cache.store("F", 0, &fine, &cols(&["s", "t"]), Arc::clone(&wider));
        assert_eq!(cache.len(), 2);
        cache.parent("F", &fine, &stored, &onto, build).unwrap();
        cache.parent("F", &fine, &stored, &onto, build).unwrap();
        assert_eq!(cache.stats().parent_builds, 9, "no longer held");
        cache
            .parent("F", &fine, &beside, &onto, || unreachable!("kept"))
            .unwrap();
        cache.parent("F", &fine, &wider, &onto, build).unwrap();
        assert_eq!(cache.stats().parent_builds, 10);
        // An invalidation drops every entry's vectors.
        cache.invalidate_table("F");
        cache.parent("F", &fine, &beside, &onto, build).unwrap();
        assert_eq!(cache.stats().parent_builds, 11);

        // A build that fails keeps nothing: the next request builds.
        cache.store("F", 0, &fine, &cols(&["s"]), Arc::clone(&stored));
        let missing = || Err(crate::StorageError::MissingKey { row: 0 });
        assert!(cache.parent("F", &fine, &stored, &onto, missing).is_err());
        cache.parent("F", &fine, &stored, &onto, build).unwrap();
        cache
            .parent("F", &fine, &stored, &onto, || unreachable!("kept"))
            .unwrap();
        assert_eq!(cache.stats().parent_builds, 13);
    }

    #[test]
    fn parent_vectors_count_toward_the_byte_bound() {
        let one = level(0, 1000).heap_bytes();
        // Two levels fit with a little room; a 4 000-byte vector does not.
        let cache = LatticeCache::with_budget(2 * one + 2000);
        let (a, b) = (level(0, 1000), level(1, 1000));
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), Arc::clone(&a));
        cache.store("F", 0, &cols(&["b"]), &cols(&["s"]), Arc::clone(&b));
        let small = cache
            .parent("F", &cols(&["b"]), &b, &[], || Ok(vec![0; 250]))
            .unwrap();
        assert_eq!((small.len(), cache.stats().evictions), (250, 0));
        // `a` is the least recently used entry and pays for it.
        cache
            .parent("F", &cols(&["b"]), &b, &cols(&["x"]), || Ok(vec![0; 1000]))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(!cache.probe("F", 0, &cols(&["a"]), &cols(&["s"])));
        assert!(cache.probe("F", 0, &cols(&["b"]), &cols(&["s"])));
        // Evicting `b` releases its vectors' bytes with it.
        cache.invalidate_table("F");
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), Arc::clone(&a));
        cache.store("F", 0, &cols(&["b"]), &cols(&["s"]), b);
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
    }

    #[test]
    fn borrowed_lookups_hit_miss_count_and_refresh_as_one_get_each() {
        // Three levels of F, one of G; lanes `s`.
        let one = level(0, 1000).heap_bytes();
        let cache = LatticeCache::with_budget(4 * one + one / 2);
        let s = cols(&["s"]);
        for name in ["a", "b", "c"] {
            cache.store("F", 0, &cols(&[name]), &s, level(0, 1000));
        }
        cache.store("G", 0, &cols(&["a"]), &s, level(1, 1000));
        let before = cache.stats();

        // `probe` counts nothing and refreshes nothing; `parent` is no
        // lookup either.
        assert!(cache.probe("F", 0, &cols(&["a"]), &s));
        assert!(!cache.probe("F", 0, &cols(&["a"]), &cols(&["t"])));
        assert!(!cache.probe("F", 0, &cols(&["z"]), &s));
        let a = cache.get("F", 0, &cols(&["a"]), &s).unwrap();
        cache
            .parent("F", &cols(&["a"]), &a, &[], || Ok(vec![0; 1000]))
            .unwrap();
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (before.hits + 1, before.misses));

        // One batch: a hit, a lane mismatch, an absent level, another
        // table's level under this table's name, a hit — in that order.
        let (b, c, t, z) = (cols(&["b"]), cols(&["c"]), cols(&["t"]), cols(&["z"]));
        let batch = [
            (&c[..], &s[..]),
            (&b[..], &t[..]),
            (&z[..], &s[..]),
            (&b[..], &s[..]),
        ];
        let mut got = vec![None; batch.len()];
        cache.get_levels(("F", 0), &batch, &mut got);
        assert_eq!(
            got.iter().map(Option::is_some).collect::<Vec<_>>(),
            [true, false, false, true]
        );
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (before.hits + 3, before.misses + 2));
        // The same as `get`s would: each hit is the stored table.
        let single = cache.get("F", 0, &c, &s).unwrap();
        assert!(Arc::ptr_eq(got[0].as_ref().unwrap(), &single));

        // Recency: the batch touched `c` then `b`, the `get` above `c`
        // again, and nothing touched `a` since its `get`; G's level is the
        // oldest. Two stores over the budget evict G's level, then `a`.
        cache.store("F", 0, &cols(&["d"]), &s, level(0, 1000));
        assert!(
            !cache.probe("G", 0, &cols(&["a"]), &s),
            "least recently used"
        );
        cache.store("F", 0, &cols(&["e"]), &s, level(0, 1000));
        assert!(
            !cache.probe("F", 0, &cols(&["a"]), &s),
            "next least recently used"
        );
        for kept in ["b", "c", "d", "e"] {
            assert!(cache.probe("F", 0, &cols(&[kept]), &s), "{kept} kept");
        }
        // Nothing is looked up in an empty batch.
        cache.get_levels(("F", 0), &[], &mut []);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(
            (cache.stats().hits, cache.stats().misses),
            (st.hits + 1, st.misses)
        );
    }

    #[test]
    fn attached_registry_mirrors_traffic() {
        let reg = MetricsRegistry::new();
        let one = level(0, 100).heap_bytes();
        let cache = LatticeCache::with_budget(one);
        cache.attach_metrics(&reg);
        cache.get("F", 0, &cols(&["a"]), &cols(&["s"]));
        cache.store("F", 0, &cols(&["a"]), &cols(&["s"]), level(0, 100));
        cache.get("F", 0, &cols(&["a"]), &cols(&["s"]));
        cache.store("F", 0, &cols(&["b"]), &cols(&["s"]), level(0, 100));
        cache.invalidate_table("F");
        let text = reg.render();
        for line in [
            "pa_storage_lattice_cache_hits_total 1",
            "pa_storage_lattice_cache_misses_total 1",
            "pa_storage_lattice_cache_evictions_total 1",
            "pa_storage_lattice_cache_invalidations_total 1",
        ] {
            assert!(text.contains(line), "{line} missing from {text}");
        }
    }
}
