//! Cached distinct-combination sets (the "combination catalog").
//!
//! Every horizontal strategy starts by discovering the distinct
//! `Dj+1..Dk` subgroup combinations of the fact table (`SELECT DISTINCT
//! Dj+1..Dk FROM F` — SIGMOD §3.1 step 2); the combinations define the
//! result columns. The set only changes when the table's data changes, so
//! the catalog memoizes it per `(table, dimension columns)` and serves
//! repeat queries without rescanning the fact table.
//!
//! Invalidation is [`crate::Catalog::write`]'s job: every change to a
//! registered table — live, replicated or replayed — drops the table's
//! entries under the guard the change was made under, so recovery starts
//! from an empty cache. A [`crate::SharedTable`] write guard is for
//! unregistered values (a query's own result), which are never cached.

use crate::value::Value;
use pa_obs::{Counter, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key: (table name, dimension column names in query order).
type ComboKey = (String, Vec<String>);

/// Counter handles mirroring the cache's traffic into a
/// [`MetricsRegistry`] (Prometheus names `pa_storage_combo_cache_*`).
#[derive(Debug)]
struct ComboMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl ComboMetrics {
    fn register(registry: &MetricsRegistry) -> ComboMetrics {
        ComboMetrics {
            hits: registry.counter(
                "pa_storage_combo_cache_hits_total",
                "combination-catalog lookups served from cache",
            ),
            misses: registry.counter(
                "pa_storage_combo_cache_misses_total",
                "combination-catalog lookups that required a table scan",
            ),
            invalidations: registry.counter(
                "pa_storage_combo_cache_invalidations_total",
                "combination-catalog entries dropped by table mutations",
            ),
        }
    }
}

/// Cumulative traffic counters, snapshot via [`ComboCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComboCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that missed (caller scanned and stored).
    pub misses: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: u64,
}

/// Memoized `(table, dims) → sorted distinct combinations` map.
///
/// Entries are shared out as `Arc` so a hit costs one map lookup and one
/// refcount bump — no cloning of the combination tuples.
#[derive(Debug, Default)]
pub struct ComboCache {
    entries: RwLock<BTreeMap<ComboKey, Arc<Vec<Vec<Value>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    metrics: RwLock<Option<ComboMetrics>>,
}

impl ComboCache {
    /// Empty cache.
    pub fn new() -> ComboCache {
        ComboCache::default()
    }

    /// Cached combination set for `dims` of `table`, counting the lookup
    /// as a hit or miss.
    pub fn get(&self, table: &str, dims: &[String]) -> Option<Arc<Vec<Vec<Value>>>> {
        let key = (table.to_string(), dims.to_vec());
        let found = self.entries.read().get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &*self.metrics.read() {
                m.hits.inc();
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &*self.metrics.read() {
                m.misses.inc();
            }
        }
        found
    }

    /// Store a freshly discovered combination set (callers store it
    /// post-sort, so every consumer sees one canonical order). Returns the
    /// shared handle.
    pub fn store(
        &self,
        table: &str,
        dims: &[String],
        combos: Vec<Vec<Value>>,
    ) -> Arc<Vec<Vec<Value>>> {
        let key = (table.to_string(), dims.to_vec());
        let shared = Arc::new(combos);
        self.entries.write().insert(key, Arc::clone(&shared));
        shared
    }

    /// Drop every cached set for `table`. Called by the catalog's write
    /// path for every insert/update/replace/drop of the table.
    pub fn invalidate_table(&self, table: &str) {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|(t, _), _| t != table);
        let dropped = (before - entries.len()) as u64;
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
            if let Some(m) = &*self.metrics.read() {
                m.invalidations.add(dropped);
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Traffic counters snapshot.
    pub fn stats(&self) -> ComboCacheStats {
        ComboCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Mirror this cache's counters into `registry` (Prometheus names
    /// `pa_storage_combo_cache_*`). Increments happen on the lookup path
    /// with relaxed ordering, like the WAL's metrics.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        *self.metrics.write() = Some(ComboMetrics::register(registry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn combos() -> Vec<Vec<Value>> {
        vec![vec![Value::str("Mon")], vec![Value::str("Tue")]]
    }

    #[test]
    fn miss_store_hit_round_trip() {
        let cache = ComboCache::new();
        assert!(cache.get("F", &dims(&["dweek"])).is_none());
        cache.store("F", &dims(&["dweek"]), combos());
        let hit = cache.get("F", &dims(&["dweek"])).unwrap();
        assert_eq!(hit.len(), 2);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn keys_distinguish_table_and_dims() {
        let cache = ComboCache::new();
        cache.store("F", &dims(&["a"]), combos());
        cache.store("F", &dims(&["a", "b"]), combos());
        cache.store("G", &dims(&["a"]), combos());
        assert_eq!(cache.len(), 3);
        assert!(cache.get("F", &dims(&["b"])).is_none());
        assert!(cache.get("F", &dims(&["a", "b"])).is_some());
    }

    #[test]
    fn invalidation_is_per_table_and_counted() {
        let cache = ComboCache::new();
        cache.store("F", &dims(&["a"]), combos());
        cache.store("F", &dims(&["b"]), combos());
        cache.store("G", &dims(&["a"]), combos());
        cache.invalidate_table("F");
        assert!(cache.get("F", &dims(&["a"])).is_none());
        assert!(cache.get("G", &dims(&["a"])).is_some());
        assert_eq!(cache.stats().invalidations, 2);
        // Invalidating an absent table is a counted no-op.
        cache.invalidate_table("F");
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn attached_registry_mirrors_traffic() {
        let reg = MetricsRegistry::new();
        let cache = ComboCache::new();
        cache.attach_metrics(&reg);
        cache.get("F", &dims(&["a"]));
        cache.store("F", &dims(&["a"]), combos());
        cache.get("F", &dims(&["a"]));
        cache.invalidate_table("F");
        let text = reg.render();
        assert!(
            text.contains("pa_storage_combo_cache_hits_total 1"),
            "{text}"
        );
        assert!(
            text.contains("pa_storage_combo_cache_misses_total 1"),
            "{text}"
        );
        assert!(
            text.contains("pa_storage_combo_cache_invalidations_total 1"),
            "{text}"
        );
    }
}
