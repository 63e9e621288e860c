//! Snapshot-isolation differential oracle.
//!
//! A query pinned to a [`pa_storage::SnapshotView`] must be isolated from
//! every write that lands after the pin: its result is byte-identical to
//! the same query on a quiesced catalog frozen at the pin's epoch, no
//! matter how many seeded appends and updates hammer the live table while
//! the query runs, and no matter which configuration evaluates it
//! (serial, 1, 2, or 4 workers).
//!
//! The pinned alias is scanned directly (the executor recognizes the
//! hidden prefix and skips re-pinning), so the Arc the test holds is the
//! only thing keeping the frozen columns alive — exactly how the executor
//! holds its per-query pin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pa_core::{HorizontalOptions, HorizontalQuery, ParallelConfig, PercentageEngine};
use pa_storage::{Catalog, Change, DataType, Rows, Schema, Table, Value};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Integer-valued measures (exact sums under any regrouping), NULLs in
/// every column, few distinct keys.
fn seeded_row(state: &mut u64) -> Vec<Value> {
    let g = lcg(state);
    let d = lcg(state);
    let a = lcg(state);
    vec![
        if g.is_multiple_of(10) {
            Value::Null
        } else {
            Value::Int((g % 4) as i64)
        },
        if d.is_multiple_of(11) {
            Value::Null
        } else {
            Value::Int((d % 5) as i64)
        },
        if a.is_multiple_of(8) {
            Value::Null
        } else {
            Value::Float((a % 7) as f64 - 3.0)
        },
    ]
}

fn build_catalog(rows: usize, seed: u64) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::from_pairs(&[
        ("g", DataType::Int),
        ("d", DataType::Int),
        ("a", DataType::Float),
    ])
    .unwrap()
    .into_shared();
    let mut t = Table::with_capacity(schema, rows);
    let mut state = seed;
    for _ in 0..rows {
        t.push_row(&seeded_row(&mut state)).unwrap();
    }
    catalog.create_table("f", t).unwrap();
    catalog
}

/// (column names, sorted rows): the byte-identity fingerprint.
fn fingerprint(t: &Table) -> (Vec<String>, Vec<Vec<Value>>) {
    let names: Vec<String> = t.schema().fields().iter().map(|f| f.name.clone()).collect();
    let all: Vec<usize> = (0..t.num_columns()).collect();
    (names, t.sorted_by(&all).rows().collect())
}

/// One seeded writer mutation through the catalog's write path: mostly
/// appends, every fourth op a logged in-place update.
fn writer_op(catalog: &Catalog, state: &mut u64) {
    let rows = catalog.table("f").unwrap().read().num_rows();
    if lcg(state).is_multiple_of(4) && rows > 0 {
        let row = (lcg(state) as usize) % rows;
        let after = [Value::Float((lcg(state) % 9) as f64)];
        catalog.update_cells("f", row, &[2], &after).unwrap();
    } else {
        let row = [seeded_row(state)];
        catalog
            .write("f", Change::Append(Rows::Values(&row)))
            .unwrap();
    }
}

struct StopOnDrop<'s>(&'s AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn pinned_snapshot_queries_are_byte_identical_under_concurrent_writes() {
    let modes = [
        ParallelConfig::serial(),
        ParallelConfig::with_threads(1),
        ParallelConfig::with_threads(2),
        ParallelConfig::with_threads(4),
    ];
    let opts = HorizontalOptions::default();
    let catalog = build_catalog(2_000, 42);
    let view = catalog.pin_table("f").unwrap();

    // Quiesced reference: a standalone catalog holding a copy of the
    // frozen table, queried before any writer starts.
    let refcat = Catalog::new();
    refcat
        .create_table("f", view.table().read().clone())
        .unwrap();
    let hq = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    let expected: Vec<_> = modes
        .iter()
        .map(|mode| {
            let ref_engine = PercentageEngine::new(&refcat).with_config(*mode);
            fingerprint(&ref_engine.horizontal_with(&hq, &opts).unwrap().snapshot())
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let catalog = &catalog;
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut state = 0xD1F0_5EED ^ (w << 17);
                while !stop.load(Ordering::Relaxed) {
                    writer_op(catalog, &mut state);
                }
            });
        }
        // Stops the writers however the readers leave — a failed assertion
        // included, so the scope joins and the test fails instead of hanging.
        let _stop = StopOnDrop(&stop);

        // The pinned alias is a frozen table: every query over it, in any
        // configuration, must reproduce the quiesced reference while the
        // writers race. Twelve rounds at least, and on until the live
        // table has grown past the pin — a fast reader must not finish
        // before a writer was scheduled.
        let aq = HorizontalQuery::hpct(view.alias(), &["g"], "a", &["d"]);
        let grown = || catalog.table("f").unwrap().read().num_rows() > view.rows();
        let mut round = 0;
        while round < 12 || !grown() {
            assert!(
                round < 100_000,
                "writers never landed a row in {round} reader rounds"
            );
            round += 1;
            for (mode, exp) in modes.iter().zip(&expected) {
                let engine = PercentageEngine::new(&catalog).with_config(*mode);
                let got = fingerprint(&engine.horizontal_with(&aq, &opts).unwrap().snapshot());
                assert_eq!(
                    &got, exp,
                    "round {round}, {mode:?}: pinned snapshot result drifted"
                );
            }
        }
    });

    // The race was real: writers moved the live table past the pin...
    let live_rows = catalog.table("f").unwrap().read().num_rows();
    assert!(live_rows > view.rows(), "writers never landed a row");
    // ...the view still sees exactly its frozen high-water mark...
    assert_eq!(view.table().read().num_rows(), view.rows());
    // ...and a fresh pin observes the new version of the world.
    let fresh = catalog.pin_table("f").unwrap();
    assert!(fresh.version() > view.version());
    assert_eq!(fresh.rows(), live_rows);
}

/// Column statistics — the key domains and slot vectors a scan reads beside
/// the columns — belong to a column *version*: a pin keeps the records of
/// the version it froze while a writer resets or extends the live table's,
/// a column the writer did not touch keeps its record on both sides, and
/// each side's queries answer from its own.
#[test]
fn a_pin_keeps_its_key_statistics_while_a_writer_resets_the_live_ones() {
    let catalog = build_catalog(2_000, 5);
    let engine = PercentageEngine::new(&catalog);
    let view = catalog.pin_table("f").unwrap();
    let pinned_q = HorizontalQuery::hpct(view.alias(), &["g"], "a", &["d"]);
    let live_q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    // The query through the pin builds the records of both key columns —
    // on the one version pin and live table still share.
    let before = fingerprint(&engine.horizontal(&pinned_q).unwrap().snapshot());
    let live = catalog.table("f").unwrap();
    let stats_of = |t: &Table, c: usize| {
        let stats = t.column_stats(c);
        (stats as *const _, stats.range(), stats.null_count())
    };
    let frozen = view.table();
    let (pin_g, pin_d) = (stats_of(&frozen.read(), 0), stats_of(&frozen.read(), 1));
    assert_eq!(stats_of(&live.read(), 1), pin_d, "one version, one record");
    assert_eq!(pin_d.1, Some((0, 4)));

    // An update above `max` on `d` alone, through the write path.
    catalog
        .update_cells("f", 0, &[1], &[Value::Int(9)])
        .unwrap();
    assert_eq!(stats_of(&frozen.read(), 1), pin_d, "the pin keeps its `d`");
    assert_eq!(
        stats_of(&live.read(), 1).1,
        Some((0, 9)),
        "live `d` rebuilt"
    );
    assert_eq!(stats_of(&live.read(), 0), pin_g, "untouched `g` is shared");

    // An append below `min` on `g` resets the live `g` record (every slot
    // would shift) and carries `d`'s over one more NULL; the pin's stay.
    let below_min = [vec![Value::Int(-6), Value::Null, Value::Float(2.0)]];
    catalog
        .write("f", Change::Append(Rows::Values(&below_min)))
        .unwrap();
    assert_eq!(stats_of(&frozen.read(), 0), pin_g, "the pin keeps its `g`");
    assert_eq!(stats_of(&live.read(), 0).1, Some((-6, 3)));
    assert_eq!(
        stats_of(&live.read(), 1).2,
        pin_d.2 + 1,
        "one more NULL `d`"
    );

    // Each side answers from its own records: the pin as before the writes,
    // the live name as a quiesced copy of the written table.
    let again = fingerprint(&engine.horizontal(&pinned_q).unwrap().snapshot());
    assert_eq!(again, before, "the pinned answer drifted");
    // (`take` copies the rows into a table with no record built.)
    let every_row: Vec<usize> = (0..live.read().num_rows()).collect();
    let refcat = Catalog::new();
    refcat
        .create_table("f", live.read().take(&every_row))
        .unwrap();
    let expected = PercentageEngine::new(&refcat).horizontal(&live_q).unwrap();
    let after = engine.horizontal(&live_q).unwrap();
    assert_eq!(
        fingerprint(&after.snapshot()),
        fingerprint(&expected.snapshot())
    );
    assert_ne!(
        fingerprint(&after.snapshot()),
        before,
        "the writes are visible"
    );
}

/// Degraded/retried queries re-pin: after the first pin is dropped and the
/// table mutates, the executor's next automatic pin must observe the new
/// epoch — queries on the *source name* see fresh data, never the stale
/// frozen alias.
#[test]
fn repinning_after_writes_observes_the_new_epoch() {
    let catalog = build_catalog(500, 7);
    let engine = PercentageEngine::new(&catalog);
    let hq = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
    let before = fingerprint(&engine.horizontal(&hq).unwrap().snapshot());

    let mut state = 99;
    for _ in 0..40 {
        writer_op(&catalog, &mut state);
    }

    let after = fingerprint(&engine.horizontal(&hq).unwrap().snapshot());
    assert_ne!(
        before, after,
        "a fresh query must re-pin and see the mutated table"
    );

    // And the re-pinned run matches a quiesced copy of the *new* state.
    let refcat = Catalog::new();
    refcat
        .create_table("f", catalog.table("f").unwrap().read().clone())
        .unwrap();
    let ref_engine = PercentageEngine::new(&refcat);
    let expected = fingerprint(&ref_engine.horizontal(&hq).unwrap().snapshot());
    assert_eq!(after, expected);
}

/// The write axis. What a write leaves derived beside the columns — slot
/// vectors extended over the appended rows, cells reset by an overwrite or
/// by an append the extend rule refuses — must be invisible in answers:
/// after every step of a seeded series of appends and updates, each of the
/// five statement shapes the `ingest` benchmark runs returns, row for row
/// in the same order, what it returns on a catalog freshly loaded with the
/// same rows (nothing built, nothing cached), and a reader's pin held
/// across the write keeps returning its own version's answer. `PA_THREADS`
/// (ci.sh runs 1 and 4) decides how many workers scan the 70 000 rows.
#[test]
fn answers_after_every_write_equal_a_fresh_load_of_the_same_rows() {
    const SHAPES: [&str; 5] = [
        "SELECT store, day, Vpct(amt BY day) AS pct FROM g GROUP BY store, day",
        "SELECT region, month, Vpct(amt BY month) AS pct FROM g GROUP BY region, month",
        "SELECT store, month, Vpct(amt BY month) AS pct FROM g GROUP BY store, month",
        "SELECT store, Hpct(amt BY day) FROM g GROUP BY store",
        "SELECT store, day, region, Vpct(amt BY region) AS pct FROM g \
         GROUP BY ROLLUP(store, day, region)",
    ];
    let dims: [(&str, u64); 4] = [("store", 23), ("day", 7), ("region", 5), ("month", 12)];
    let mut fields: Vec<(&str, DataType)> = dims.iter().map(|d| (d.0, DataType::Int)).collect();
    fields.push(("amt", DataType::Float));
    let schema = Schema::from_pairs(&fields).unwrap().into_shared();
    // `shift` moves a batch's keys off the loaded domain: above every max
    // (the vectors extend, the domains grow) or below every min (reset).
    let batch = |state: &mut u64, rows: usize, shift: i64| -> Vec<Vec<Value>> {
        let row = |state: &mut u64| {
            let key = |card: u64, state: &mut u64| match lcg(state) % 50 {
                0 => Value::Null,
                _ => Value::Int((lcg(state) % card) as i64 + shift),
            };
            let mut row: Vec<Value> = dims.iter().map(|d| key(d.1, state)).collect();
            row.push(Value::Float((lcg(state) % 1000) as f64));
            row
        };
        (0..rows).map(|_| row(state)).collect()
    };
    let mut state = 20;
    let mut loaded = Table::with_capacity(schema, 70_000);
    loaded.push_rows(&batch(&mut state, 70_000, 0)).unwrap();
    let catalog = Catalog::new();
    catalog.create_table("g", loaded).unwrap();
    let engine = PercentageEngine::new(&catalog);

    // (column names, rows in the order returned) per shape, `FROM table`.
    let answers = |engine: &PercentageEngine<'_>, table: &str| -> Vec<_> {
        let ask = |sql: &&str| {
            let sql = sql.replace("FROM g", &format!("FROM {table}"));
            let out = engine.execute_sql(&sql).unwrap().table();
            let out = out.read();
            let names: Vec<String> = out
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            (names, out.rows().collect::<Vec<_>>())
        };
        SHAPES.iter().map(ask).collect()
    };
    let fresh_load = || {
        let live = catalog.table("g").unwrap();
        let every_row: Vec<usize> = (0..live.read().num_rows()).collect();
        let fresh = Catalog::new();
        fresh
            .create_table("g", live.read().take(&every_row))
            .unwrap();
        answers(&PercentageEngine::new(&fresh), "g")
    };
    assert_eq!(answers(&engine, "g"), fresh_load(), "as loaded");

    // (rows appended, key shift, the column the update writes).
    let steps = [
        (1000, 0, 4),
        (1, 0, 4),
        (300, 2, 4),
        (64, 0, 1),
        (200, -1, 4),
        (1000, 0, 0),
    ];
    for (step, (rows, shift, col)) in steps.into_iter().enumerate() {
        let view = catalog.pin_table("g").unwrap();
        let pinned = answers(&engine, view.alias());
        let appended = batch(&mut state, rows, shift);
        catalog
            .write("g", Change::Append(Rows::Values(&appended)))
            .unwrap();
        let at = (lcg(&mut state) as usize) % view.rows();
        let after = [[Value::Int(3), Value::Float(7.0)][usize::from(col == 4)].clone()];
        catalog.update_cells("g", at, &[col], &after).unwrap();

        let live = answers(&engine, "g");
        assert_eq!(live, fresh_load(), "step {step}: live answers");
        assert_ne!(live, pinned, "step {step}: the write is visible");
        assert_eq!(
            answers(&engine, view.alias()),
            pinned,
            "step {step}: the pin's answers"
        );
    }
}
