//! Regression tests for cached combination sets — the zero-lane entries of
//! the catalog's level cache — and the dense group path:
//!
//! * an entry describes one version of its table: after a logged mutation
//!   (bulk INSERT, per-row UPDATE) a lookup at the new version misses, the
//!   old version's entry stays, and the next `Hpct` rolls it forward to
//!   the combinations a fresh scan finds;
//! * a recovered catalog starts with a cold (empty) level cache;
//! * a dimension whose dictionary outgrows the dense-code budget
//!   mid-append must silently fall back to the hash group path with
//!   byte-identical results.

use pa_core::PercentageEngine;
use pa_engine::{
    hash_aggregate_with_config, insert_into, update_from, AggFunc, AggSpec, ExecStats, Expr,
    ParallelConfig, ResourceGuard,
};
use pa_storage::{Catalog, DataType, HashIndex, Schema, Table, Value};
use pa_testkit::assert_same;
use std::sync::Arc;

fn dims(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn sales_catalog() -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("store", DataType::Int),
        ("dweek", DataType::Str),
        ("amt", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::empty(schema);
    for (s, d, a) in [
        (1, "Mon", 10.0),
        (1, "Tue", 20.0),
        (2, "Mon", 5.0),
        (2, "Tue", 7.0),
    ] {
        t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
            .unwrap();
    }
    catalog.create_table("sales", t).unwrap();
    catalog
}

/// One-row batch with the sales schema.
fn batch(catalog: &Catalog, s: i64, d: &str, a: f64) -> Table {
    let schema = catalog.table("sales").unwrap().read().schema().clone();
    let mut b = Table::empty(schema);
    b.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
        .unwrap();
    b
}

/// A combination set over `dweek`: a level table with no lanes.
fn dweek_combos(days: &[&str]) -> Arc<Table> {
    let schema = Schema::from_pairs(&[("dweek", DataType::Str)]).unwrap();
    let mut t = Table::empty(schema.into_shared());
    for d in days {
        t.push_row(&[Value::str(d)]).unwrap();
    }
    Arc::new(t)
}

fn seed_cache(catalog: &Catalog) {
    let cache = catalog.combo_cache();
    cache.store(
        "sales",
        catalog.table_version("sales"),
        &dims(&["dweek"]),
        &[],
        dweek_combos(&["Mon", "Tue"]),
    );
    cache.store("other", 1, &dims(&["dweek"]), &[], dweek_combos(&["Mon"]));
}

/// The combinations `(dweek)` of `sales` cached at `version`, if any.
fn combos_at(catalog: &Catalog, version: u64) -> Option<Vec<Vec<Value>>> {
    let set = catalog
        .combo_cache()
        .get("sales", version, &dims(&["dweek"]), &[])?;
    Some(set.rows().collect())
}

#[test]
fn a_wal_append_leaves_the_old_versions_combinations_and_the_new_version_misses() {
    let catalog = sales_catalog();
    seed_cache(&catalog);
    let (before, old) = (
        catalog.combo_cache().stats(),
        catalog.table_version("sales"),
    );
    assert_eq!(before.entries, 2);

    let mut stats = ExecStats::default();
    let b = batch(&catalog, 3, "Wed", 1.0);
    insert_into(&catalog, "sales", &b, &mut stats).unwrap();

    let new = catalog.table_version("sales");
    assert!(new > old, "an append is a new version");
    assert_eq!(
        combos_at(&catalog, new),
        None,
        "a lookup at the new version never returns the old version's entry"
    );
    assert!(
        combos_at(&catalog, old).is_some(),
        "the old version's entry stays, for its readers and to roll forward from"
    );
    let other = catalog
        .combo_cache()
        .get("other", 1, &dims(&["dweek"]), &[]);
    assert!(other.is_some(), "other tables' entries stay");
    let after = catalog.combo_cache().stats();
    assert_eq!(
        after.invalidations, before.invalidations,
        "an append drops nothing"
    );
    let delta = catalog.changes("sales", old, new).expect("journaled");
    assert_eq!((delta.appended, delta.overwritten.len()), (4..5, 0));
}

#[test]
fn a_wal_update_leaves_the_old_versions_combinations_and_journals_the_before_image() {
    let catalog = sales_catalog();
    seed_cache(&catalog);
    let (before, old) = (
        catalog.combo_cache().stats(),
        catalog.table_version("sales"),
    );

    // UPDATE sales SET amt = amt / src.amt joined on store against a
    // one-row source — the values don't matter, only that the mutation is
    // logged.
    let src = batch(&catalog, 1, "Mon", 0.0);
    let sales = catalog.table("sales").unwrap().read().clone();
    let index = HashIndex::build(&src, &[0]).unwrap();
    let parent = index.lookup(&sales, &[0], true).unwrap();
    let (guard, mut stats) = (ResourceGuard::unlimited(), ExecStats::default());
    let n = update_from(
        &catalog,
        "sales",
        2,
        src.column(2),
        &parent,
        &guard,
        &mut stats,
    )
    .unwrap();
    assert!(n > 0, "update must touch at least one row");

    let new = catalog.table_version("sales");
    assert!(new > old, "an update is a new version");
    assert_eq!(
        combos_at(&catalog, new),
        None,
        "a lookup at the new version never returns the old version's entry"
    );
    assert!(combos_at(&catalog, old).is_some());
    let other = catalog
        .combo_cache()
        .get("other", 1, &dims(&["dweek"]), &[]);
    assert!(
        other.is_some(),
        "UPDATE must not drop other tables' entries"
    );
    assert_eq!(
        catalog.combo_cache().stats().invalidations,
        before.invalidations
    );
    // Every overwritten `amt` cell — store 1's rows — with what it held.
    let delta = catalog.changes("sales", old, new).expect("journaled");
    let want: Vec<(usize, usize, Value)> = (0..2).map(|r| (r, 2, sales.get(r, 2))).collect();
    assert_eq!((delta.appended.len(), delta.overwritten), (0, want));
}

#[test]
fn a_roll_forward_returns_the_fresh_scans_combinations() {
    // An `Hpct` caches `(dweek)`; appends bring a new day and repeat an old
    // one, and an update writes a measure. The next `Hpct` rolls the set
    // forward — no `distinct` pass — and answers as a fresh catalog does.
    let catalog = sales_catalog();
    let engine = PercentageEngine::new(&catalog);
    let sql = "SELECT store, Hpct(amt BY dweek) FROM sales GROUP BY store";
    engine.execute_sql(sql).unwrap();
    let mut stats = ExecStats::default();
    for (s, d) in [(3, "Wed"), (1, "Mon"), (4, "Sun")] {
        insert_into(&catalog, "sales", &batch(&catalog, s, d, 2.0), &mut stats).unwrap();
    }
    catalog
        .update_cells("sales", 0, &[2], &[Value::Float(11.0)])
        .unwrap();
    let rolled = engine.execute_sql(sql).unwrap();
    assert_eq!(
        (
            rolled.stats().combo_cache_misses,
            rolled.stats().levels_rolled
        ),
        (1, 1),
        "{}",
        rolled.stats()
    );
    let version = catalog.table_version("sales");
    let fresh = Catalog::new();
    let rows = catalog.table("sales").unwrap().read().clone();
    fresh
        .create_table(
            "sales",
            rows.take(&(0..rows.num_rows()).collect::<Vec<_>>()),
        )
        .unwrap();
    let scanned = PercentageEngine::new(&fresh).execute_sql(sql).unwrap();
    assert_eq!(scanned.stats().levels_rolled, 0);
    let cached = catalog
        .combo_cache()
        .get("sales", version, &dims(&["dweek"]), &[]);
    let want = fresh.combo_cache().get("sales", 1, &dims(&["dweek"]), &[]);
    assert_same(&cached.unwrap(), &want.unwrap(), "the rolled combinations");
    assert_same(
        &rolled.table().read(),
        &scanned.table().read(),
        "the answer",
    );
}

#[test]
fn recovered_catalog_starts_cache_cold() {
    let catalog = sales_catalog();
    seed_cache(&catalog);
    assert_eq!(catalog.combo_cache().stats().entries, 2);

    let image = catalog.with_wal(|w| w.snapshot()).unwrap();
    let (recovered, report) =
        Catalog::recover(Box::new(pa_storage::log::MemLogStore::from_bytes(image))).unwrap();
    assert!(report.is_clean(), "{report:?}");

    let stats = recovered.combo_cache().stats();
    assert_eq!(
        stats.entries, 0,
        "recovery must not resurrect cached combination sets"
    );
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 0);
    assert_eq!(recovered.lattice_cache().stats(), stats, "one cache");
}

/// Checkpoint slot the test can read back after `checkpoint_now`.
#[derive(Debug, Clone, Default)]
struct SharedCkpt(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl pa_storage::CheckpointStore for SharedCkpt {
    fn save(&mut self, frame: &[u8]) -> pa_storage::Result<()> {
        *self.0.lock().unwrap() = frame.to_vec();
        Ok(())
    }

    fn read_raw(&mut self) -> pa_storage::Result<Vec<u8>> {
        Ok(self.0.lock().unwrap().clone())
    }
}

/// Mirror of [`recovered_catalog_starts_cache_cold`] for checkpoint-aware
/// recovery: installing image tables goes through the same mutation funnel
/// live writes use, so nothing cached before the crash can survive — even
/// though the image itself bypasses record-by-record replay.
#[test]
fn checkpoint_recovered_catalog_starts_cache_cold() {
    let catalog = sales_catalog();
    let store = SharedCkpt::default();
    catalog.set_checkpoint_store(
        Box::new(store.clone()),
        pa_storage::CheckpointPolicy::disabled(),
    );

    // A pre-checkpoint append, the checkpoint, then a post-checkpoint
    // append: recovery must install the image AND replay a WAL suffix.
    let mut stats = ExecStats::default();
    insert_into(
        &catalog,
        "sales",
        &batch(&catalog, 3, "Wed", 2.0),
        &mut stats,
    )
    .unwrap();
    catalog.checkpoint_now().unwrap();
    insert_into(
        &catalog,
        "sales",
        &batch(&catalog, 4, "Thu", 3.0),
        &mut stats,
    )
    .unwrap();
    seed_cache(&catalog);
    assert_eq!(catalog.combo_cache().stats().entries, 2);

    let wal = catalog.with_wal(|w| w.snapshot()).unwrap();
    let (recovered, report) = Catalog::recover_with_checkpoint(
        Box::new(pa_storage::log::MemLogStore::from_bytes(wal)),
        Box::new(store.clone()),
        1 << 20,
        pa_storage::CheckpointPolicy::disabled(),
    )
    .unwrap();
    assert!(report.checkpoint_error.is_none(), "{report:?}");
    assert!(report.checkpoint_tables >= 1 && report.checkpoint_lsn > 1);
    assert!(
        report.records_replayed >= 1,
        "the post-checkpoint suffix must replay: {report:?}"
    );

    let stats = recovered.combo_cache().stats();
    assert_eq!(
        stats.entries, 0,
        "checkpoint install must leave the level cache cold"
    );
    assert_eq!((stats.hits, stats.misses), (0, 0));

    let live: Vec<Vec<Value>> = catalog.table("sales").unwrap().read().rows().collect();
    let rec: Vec<Vec<Value>> = recovered.table("sales").unwrap().read().rows().collect();
    assert_eq!(rec, live, "image + suffix must reproduce the live table");
}

#[test]
fn dictionary_overflow_mid_append_falls_back_to_hash() {
    // A string dimension under a tiny dense budget: dense while the
    // dictionary is small, hash after appends push it past the budget —
    // with byte-identical aggregation results on both paths.
    let budget = 16;
    let config = ParallelConfig {
        dense_budget: budget,
        ..ParallelConfig::serial()
    };
    let catalog = sales_catalog();
    let specs = vec![AggSpec::new(AggFunc::Sum, Expr::Col(2), "total")];
    let guard = ResourceGuard::unlimited();

    let shared = catalog.table("sales").unwrap();
    let mut stats = ExecStats::default();
    let out = hash_aggregate_with_config(&shared.read(), &[1], &specs, &guard, &mut stats, &config)
        .unwrap();
    assert_eq!(out.num_rows(), 2);
    assert!(
        stats.dense_group_ops > 0 && stats.hash_group_ops == 0,
        "small dictionary must run dense: {stats}"
    );

    // Mid-append dictionary growth: more distinct strings than the budget.
    let mut stats = ExecStats::default();
    for i in 0..budget as i64 {
        let b = batch(&catalog, 9, &format!("day{i}"), 1.0);
        insert_into(&catalog, "sales", &b, &mut stats).unwrap();
    }

    let mut dense_stats = ExecStats::default();
    let dense = hash_aggregate_with_config(
        &shared.read(),
        &[1],
        &specs,
        &guard,
        &mut dense_stats,
        &ParallelConfig::serial(), // default budget: still dense-eligible
    )
    .unwrap();
    assert!(
        dense_stats.dense_group_ops > 0 && dense_stats.hash_group_ops == 0,
        "{dense_stats}"
    );

    let mut hash_stats = ExecStats::default();
    let hashed = hash_aggregate_with_config(
        &shared.read(),
        &[1],
        &specs,
        &guard,
        &mut hash_stats,
        &config, // overflowed budget: must fall back
    )
    .unwrap();
    assert!(
        hash_stats.hash_group_ops > 0 && hash_stats.dense_group_ops == 0,
        "overflowed dictionary must fall back to hash: {hash_stats}"
    );

    let key: Vec<usize> = vec![0];
    let d: Vec<Vec<Value>> = dense.sorted_by(&key).rows().collect();
    let h: Vec<Vec<Value>> = hashed.sorted_by(&key).rows().collect();
    assert_eq!(d, h, "dense and hash group paths must agree byte-for-byte");
    assert_eq!(d.len(), 2 + budget);
}
