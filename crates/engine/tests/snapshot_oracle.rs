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

use pa_core::{HorizontalOptions, ParallelConfig, PercentageEngine};
use pa_storage::{Catalog, Change, DataType, Rows, Schema, Table, Value};
use pa_testkit::compare::{self, cells};
use pa_testkit::{answer, assert_same, assert_same_rows, gen, Draw, Stmt};

/// The kit's corner-value fact table of `rows` rows as `f`.
fn build_catalog(rows: usize, seed: u64) -> Catalog {
    let catalog = Catalog::new();
    catalog
        .create_table("f", gen::fact(&mut Draw::new(seed), rows))
        .unwrap();
    catalog
}

/// `Hpct(amt BY d) … GROUP BY g` over `table`.
fn hpct(table: &str) -> Stmt {
    Stmt::new(table, &["g"]).hpct("amt", &["d"], "h")
}

/// One seeded writer mutation through the catalog's write path: mostly
/// appends, every fourth op a logged in-place update of `amt`.
fn writer_op(catalog: &Catalog, draw: &mut Draw) {
    let rows = catalog.table("f").unwrap().read().num_rows();
    if draw.one_in(4) && rows > 0 {
        let row = draw.below(rows);
        let after = [Value::Float(draw.below(9) as f64)];
        catalog.update_cells("f", row, &[4], &after).unwrap();
    } else {
        let row = [gen::fact_row(draw, &["a", "b", "c"])];
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

    // The frozen table's answer, before any writer starts.
    let expected = answer(&view.table().read(), &hpct("f"));

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let catalog = &catalog;
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut draw = Draw::new(0xD1F0_5EED ^ (w << 17));
                while !stop.load(Ordering::Relaxed) {
                    writer_op(catalog, &mut draw);
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
        let aq = hpct(view.alias()).horizontal_query();
        let grown = || catalog.table("f").unwrap().read().num_rows() > view.rows();
        let mut round = 0;
        while round < 12 || !grown() {
            assert!(
                round < 100_000,
                "writers never landed a row in {round} reader rounds"
            );
            round += 1;
            for mode in &modes {
                let engine = PercentageEngine::new(&catalog).with_config(*mode);
                let got = engine.horizontal_with(&aq, &opts).unwrap().snapshot();
                let what = format!("round {round}, {mode:?}: the pinned snapshot's answer");
                assert_same_rows(&got, &expected, &what);
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
    // `Hpct(amt BY d) … GROUP BY q`: two integer key columns.
    let stmt = |table: &str| Stmt::new(table, &["q"]).hpct("amt", &["d"], "h");
    let (pinned_q, live_q) = (
        stmt(view.alias()).horizontal_query(),
        stmt("f").horizontal_query(),
    );
    // The query through the pin builds the records of both key columns —
    // on the one version pin and live table still share.
    let before = engine.horizontal(&pinned_q).unwrap().snapshot();
    assert_same_rows(&before, &answer(&view.table().read(), &stmt("f")), "pinned");
    let live = catalog.table("f").unwrap();
    let stats_of = |t: &Table, c: usize| {
        let stats = t.column_stats(c);
        (stats as *const _, stats.range(), stats.null_count())
    };
    let frozen = view.table();
    let (pin_g, pin_d) = (stats_of(&frozen.read(), 5), stats_of(&frozen.read(), 1));
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
    assert_eq!(stats_of(&live.read(), 5), pin_g, "untouched `q` is shared");

    // An append below `min` on `q` resets the live `q` record (every slot
    // would shift) and carries `d`'s over one more NULL; the pin's stay.
    let mut below_min = [gen::fact_row(&mut Draw::new(1), &["a"])];
    below_min[0][1] = Value::Null;
    below_min[0][5] = Value::Int(-6);
    catalog
        .write("f", Change::Append(Rows::Values(&below_min)))
        .unwrap();
    assert_eq!(stats_of(&frozen.read(), 5), pin_g, "the pin keeps its `q`");
    assert_eq!(stats_of(&live.read(), 5).1, Some((-6, 3)));
    assert_eq!(
        stats_of(&live.read(), 1).2,
        pin_d.2 + 1,
        "one more NULL `d`"
    );

    // Each side answers from its own records: the pin as before the writes,
    // the live name as a quiesced copy of the written table.
    let again = engine.horizontal(&pinned_q).unwrap().snapshot();
    assert_same(&again, &before, "the pinned answer");
    let after = engine.horizontal(&live_q).unwrap().snapshot();
    assert_same_rows(&after, &answer(&live.read(), &stmt("f")), "the live answer");
    assert_ne!(cells(&after), cells(&before), "the writes are visible");
}

/// Degraded/retried queries re-pin: after the first pin is dropped and the
/// table mutates, the executor's next automatic pin must observe the new
/// epoch — queries on the *source name* see fresh data, never the stale
/// frozen alias.
#[test]
fn repinning_after_writes_observes_the_new_epoch() {
    let catalog = build_catalog(500, 7);
    let engine = PercentageEngine::new(&catalog);
    let hq = hpct("f").horizontal_query();
    let before = engine.horizontal(&hq).unwrap().snapshot();

    let mut draw = Draw::new(99);
    for _ in 0..40 {
        writer_op(&catalog, &mut draw);
    }

    let after = engine.horizontal(&hq).unwrap().snapshot();
    assert_ne!(
        cells(&before),
        cells(&after),
        "a fresh query must re-pin and see the mutated table"
    );
    // And the re-pinned run answers the *new* state.
    let live = catalog.table("f").unwrap().read().clone();
    assert_same_rows(&after, &answer(&live, &hpct("f")), "re-pinned");
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
    let dims: [(&str, usize); 4] = [("store", 23), ("day", 7), ("region", 5), ("month", 12)];
    let mut fields: Vec<(&str, DataType)> = dims.iter().map(|d| (d.0, DataType::Int)).collect();
    fields.push(("amt", DataType::Float));
    let schema = Schema::from_pairs(&fields).unwrap().into_shared();
    // `shift` moves a batch's keys off the loaded domain: above every max
    // (the vectors extend, the domains grow) or below every min (reset).
    let batch = |draw: &mut Draw, rows: usize, shift: i64| -> Vec<Vec<Value>> {
        let row = |draw: &mut Draw| {
            let key = |card: usize, draw: &mut Draw| match draw.one_in(50) {
                true => Value::Null,
                false => Value::Int(draw.below(card) as i64 + shift),
            };
            let mut row: Vec<Value> = dims.iter().map(|d| key(d.1, draw)).collect();
            row.push(Value::Float(draw.below(1000) as f64));
            row
        };
        (0..rows).map(|_| row(draw)).collect()
    };
    let mut draw = Draw::new(20);
    let mut loaded = Table::with_capacity(schema, 70_000);
    loaded.push_rows(&batch(&mut draw, 70_000, 0)).unwrap();
    let catalog = Catalog::new();
    catalog.create_table("g", loaded).unwrap();
    let engine = PercentageEngine::new(&catalog);

    // (column names, rows in the order returned) per shape, `FROM table`.
    let answers = |engine: &PercentageEngine<'_>, table: &str| -> Vec<_> {
        let ask = |sql: &&str| {
            let sql = sql.replace("FROM g", &format!("FROM {table}"));
            let out = engine.execute_sql(&sql).unwrap().table();
            let out = out.read();
            (compare::shape(&out), compare::cells(&out))
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
        let appended = batch(&mut draw, rows, shift);
        catalog
            .write("g", Change::Append(Rows::Values(&appended)))
            .unwrap();
        let at = draw.below(view.rows());
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
