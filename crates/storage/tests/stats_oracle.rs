//! Side-car oracle: whatever a table's mutators do, in whatever order, a
//! built statistics record or slot vector equals the one a fresh build
//! derives from the same column, and a pinned clone's records are the very
//! objects they were when it was pinned.
//!
//! An append *extends* a built record over the appended rows, an overwrite
//! of a float cell carries it over the cell and any other overwrite resets
//! it (DESIGN.md §12), so the oracle interleaves them all with
//! pins and readers and compares, after every step, against a copy of the
//! table that has nothing built (`Table::take` of every row: same rows,
//! same dictionaries, fresh cells).

use pa_storage::{Column, DataType, PackedCodes, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

const COLS: usize = 3;
const INT: usize = 0;
const STR: usize = 1;
const FLOAT: usize = 2;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
    ])
    .unwrap()
    .into_shared()
}

fn table(rows: &[Vec<Value>]) -> Table {
    let mut t = Table::empty(schema());
    t.push_rows(rows).unwrap();
    t
}

/// The same rows and dictionaries with no side-car built.
fn unbuilt(t: &Table) -> Table {
    t.take(&(0..t.num_rows()).collect::<Vec<_>>())
}

/// Bytes of whatever side-cars `t` holds built; 0 when nothing is.
fn side_car_bytes(t: &Table) -> usize {
    t.heap_bytes() - unbuilt(t).heap_bytes()
}

/// Column `c`'s record and slot vector in `t` against a fresh build.
fn assert_fresh(t: &Table, c: usize, what: &str) {
    let fresh = unbuilt(t);
    let (got, want) = (t.column_stats(c), fresh.column_stats(c));
    assert_eq!(got.range(), want.range(), "{what}: range of column {c}");
    assert_eq!(got.null_count(), want.null_count(), "{what}: NULLs of {c}");
    let (got, want) = (t.distinct_estimate(c), fresh.distinct_estimate(c));
    assert_eq!(got, want, "{what}: distinct of {c}");
    // Asking builds the whole-number bound, so every later append carries
    // it; a column never asked before builds it from the rows as they are.
    let (got, want) = (t.integral_bound(c), fresh.integral_bound(c));
    assert_eq!(got, want, "{what}: whole-number bound of {c}");
    let slots = |t: &Table| t.key_slots(c).map(|s| PackedCodes::clone(s));
    assert_eq!(slots(t), slots(&fresh), "{what}: every slot of {c}");
    if let Column::Str {
        dict,
        codes,
        validity,
        ..
    } = t.column(c)
    {
        let packed = PackedCodes::from_codes(codes, validity, dict.len());
        assert_eq!(slots(t), packed, "{what}: from_codes of {c}");
    }
}

/// Where a table's records of the columns in `asked` live.
fn addresses(t: &Table, asked: [bool; COLS]) -> Vec<(usize, *const PackedCodes)> {
    (0..COLS)
        .filter(|&c| asked[c])
        .map(|c| {
            let stats = t.column_stats(c) as *const _ as usize;
            (stats, t.key_slots(c).map_or(std::ptr::null(), Arc::as_ptr))
        })
        .collect()
}

/// A pinned clone, the cells it had been asked for, and where they were.
struct Pin {
    table: Table,
    asked: [bool; COLS],
    at: Vec<(usize, *const PackedCodes)>,
}

#[derive(Debug, Clone)]
enum Op {
    PushRow(Vec<Value>),
    PushRows(Vec<Vec<Value>>),
    ExtendFrom(Vec<Vec<Value>>),
    SetCells(usize, usize, Vec<Value>),
    ColumnMut(usize, usize, Vec<Value>),
    Pin,
    ColumnStats(usize),
    KeySlots(usize),
}

fn row_strategy() -> impl Strategy<Value = Vec<Value>> {
    // Mostly a narrow domain; now and then a value one side of a lane
    // boundary (slot 255 | 256, 65 535 | 65 536), below any minimum, or
    // past every lane.
    let int = prop_oneof![
        2 => Just(Value::Null),
        8 => (0i64..7).prop_map(Value::Int),
        2 => (250i64..260).prop_map(Value::Int),
        1 => (65_530i64..65_540).prop_map(Value::Int),
        1 => (-3i64..0).prop_map(Value::Int),
        1 => Just(Value::Int(1 << 40)),
    ];
    let string = prop_oneof![
        1 => Just(Value::Null),
        4 => "[a-c]{0,2}".prop_map(Value::str),
        2 => (0u32..300).prop_map(|k| Value::str(format!("k{k}"))),
    ];
    // Whole numbers mostly, so the column's whole-number bound survives a
    // few appends before a fraction clears it.
    let float = prop_oneof![
        2 => Just(Value::Null),
        12 => (-40i64..40).prop_map(|x| Value::Float(x as f64)),
        1 => (-4i64..4).prop_map(|x| Value::Float(x as f64 + 0.5)),
    ];
    (int, string, float).prop_map(|(i, s, f)| vec![i, s, f])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let rows = || prop::collection::vec(row_strategy(), 0..6);
    prop_oneof![
        3 => row_strategy().prop_map(Op::PushRow),
        3 => rows().prop_map(Op::PushRows),
        2 => rows().prop_map(Op::ExtendFrom),
        1 => (0usize..1000, 0..COLS, row_strategy()).prop_map(|(r, c, v)| Op::SetCells(r, c, v)),
        1 => (0usize..1000, 0..COLS, row_strategy()).prop_map(|(r, c, v)| Op::ColumnMut(r, c, v)),
        2 => Just(Op::Pin),
        3 => (0..COLS).prop_map(Op::ColumnStats),
        3 => (0..COLS).prop_map(Op::KeySlots),
    ]
}

/// `n` rows whose integer values and strings cycle through `modulus`
/// distinct ones: 254 leaves both slot domains one value short of a byte.
fn seeded_rows(n: usize, modulus: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let k = i % modulus;
            vec![
                Value::Int(k as i64),
                Value::str(format!("k{k}")),
                Value::Float(k as f64),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_built_cell_is_a_fresh_build_after_every_step(
        n in 0usize..300,
        modulus in prop_oneof![Just(5usize), Just(254), Just(300)],
        ops in prop::collection::vec(op_strategy(), 0..48),
    ) {
        let mut t = table(&seeded_rows(n, modulus));
        // The cells some reader asked for and no overwrite has reset since:
        // the only ones the oracle may look at without building them itself.
        let mut asked = [false; COLS];
        let mut pins: Vec<Pin> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::PushRow(row) => t.push_row(row).unwrap(),
                Op::PushRows(rows) => t.push_rows(rows).unwrap(),
                Op::ExtendFrom(rows) => t.extend_from(&table(rows)).unwrap(),
                Op::SetCells(row, c, values) if t.num_rows() > 0 => {
                    let row = row % t.num_rows();
                    t.set_cells(row, &[*c], &[values[*c].clone()]).unwrap();
                    // A float column's record is carried over the cell.
                    asked[*c] &= *c == FLOAT;
                }
                Op::ColumnMut(row, c, values) if t.num_rows() > 0 => {
                    let row = row % t.num_rows();
                    t.column_mut(*c).set(row, values[*c].clone()).unwrap();
                    asked[*c] = false;
                }
                Op::SetCells(..) | Op::ColumnMut(..) => {}
                Op::Pin => pins.push(Pin {
                    table: t.clone(),
                    asked,
                    at: addresses(&t, asked),
                }),
                Op::ColumnStats(c) => {
                    t.column_stats(*c);
                    asked[*c] = true;
                }
                Op::KeySlots(c) => {
                    t.key_slots(*c);
                    asked[*c] = true;
                }
            }
            let what = format!("step {step} {op:?}");
            t.check_integrity().unwrap();
            for c in (0..COLS).filter(|&c| asked[c]) {
                assert_fresh(&t, c, &what);
            }
            for (p, pin) in pins.iter().enumerate() {
                let what = format!("{what}, pin {p}");
                prop_assert_eq!(addresses(&pin.table, pin.asked), pin.at.clone(), "{}", what);
                for c in (0..COLS).filter(|&c| pin.asked[c]) {
                    assert_fresh(&pin.table, c, &what);
                }
            }
        }
    }
}

fn ints(values: &[Option<i64>]) -> Vec<Vec<Value>> {
    values
        .iter()
        .map(|v| vec![v.map_or(Value::Null, Value::Int), Value::Null, Value::Null])
        .collect()
}

/// A table of `values` in the integer column, its cell built.
fn built_ints(values: &[Option<i64>]) -> Table {
    let t = table(&ints(values));
    t.column_stats(INT);
    t
}

#[test]
fn a_value_above_max_inside_the_lane_extends_and_the_domain_grows() {
    let mut t = built_ints(&[Some(10), Some(12), None]);
    let at = Arc::as_ptr(t.key_slots(INT).unwrap());
    t.push_rows(&ints(&[Some(200), None, Some(11)])).unwrap();
    assert_eq!(Arc::as_ptr(t.key_slots(INT).unwrap()), at, "in place");
    assert_eq!(t.column_stats(INT).range(), Some((10, 200)));
    assert_eq!(t.column_stats(INT).null_count(), 2);
    assert_eq!(t.distinct_estimate(INT), 4);
    assert_eq!(t.key_slots(INT).unwrap().width(), 8, "slots 0..=191");
    assert_eq!(t.key_slots(INT).unwrap().get(3), 191);
    assert_fresh(&t, INT, "above max");
}

#[test]
fn a_value_below_min_resets_the_cell_and_the_rebuild_agrees() {
    let mut t = built_ints(&[Some(10), Some(12)]);
    t.push_row(&ints(&[Some(9)])[0]).unwrap();
    assert_eq!(side_car_bytes(&t), 0, "every slot would shift: reset");
    assert_eq!(t.column_stats(INT).range(), Some((9, 12)));
    assert_fresh(&t, INT, "below min");
}

#[test]
fn a_slot_domain_that_outgrows_its_lane_resets_the_cell() {
    // Slots 1..=255 fill a byte lane, 1..=65 535 a two-byte one.
    for (top, bytes_per_row) in [(254i64, 1), (65_534, 2)] {
        let mut t = built_ints(&[Some(0), Some(top - 1)]);
        t.push_row(&ints(&[Some(top)])[0]).unwrap();
        assert!(side_car_bytes(&t) > 0, "slot {} fits the lane", top + 1);
        assert_eq!(t.key_slots(INT).unwrap().heap_bytes(), 3 * bytes_per_row);
        assert_fresh(&t, INT, "the lane's last slot");

        t.push_row(&ints(&[Some(top + 1)])[0]).unwrap();
        assert_eq!(side_car_bytes(&t), 0, "slot {} does not", top + 2);
        assert_fresh(&t, INT, "past the lane");
        let slots = t.key_slots(INT).map(|s| s.heap_bytes());
        let next_lane = (bytes_per_row == 1).then_some(4 * 2);
        assert_eq!(slots, next_lane, "two bytes a row, or no vector at all");
    }
}

#[test]
fn an_all_null_column_takes_nulls_in_place_and_rebuilds_on_its_first_value() {
    let mut t = built_ints(&[None, None]);
    assert_eq!(t.column_stats(INT).range(), None);
    let built = side_car_bytes(&t);
    t.push_rows(&ints(&[None])).unwrap();
    assert_eq!(side_car_bytes(&t), built, "still built, still no vector");
    assert_eq!(t.column_stats(INT).null_count(), 3);
    assert_fresh(&t, INT, "NULL onto all-NULL");

    t.push_rows(&ints(&[Some(7)])).unwrap();
    assert_eq!(side_car_bytes(&t), 0, "a first value may pack: reset");
    assert_eq!(t.key_slots(INT).unwrap().get(3), 1);
    assert_fresh(&t, INT, "first value");
}

#[test]
fn a_string_append_extends_until_the_dictionary_crosses_a_lane() {
    let strings = |range: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        range
            .map(|k| vec![Value::Null, Value::str(format!("k{k}")), Value::Null])
            .collect()
    };
    let mut t = table(&strings(0..200));
    let pin = t.clone();
    let at = Arc::as_ptr(pin.key_slots(STR).unwrap());
    // 255 entries: slot 255 is the last a byte holds.
    t.push_rows(&strings(150..255)).unwrap();
    t.push_row(&[Value::Null, Value::Null, Value::Null])
        .unwrap();
    assert_eq!(t.key_slots(STR).unwrap().heap_bytes(), 306);
    assert_fresh(&t, STR, "255 entries");
    assert_eq!(Arc::as_ptr(pin.key_slots(STR).unwrap()), at);
    assert_eq!(pin.key_slots(STR).unwrap().len(), 200, "the pin's version");

    let live = Arc::as_ptr(t.key_slots(STR).unwrap());
    t.extend_from(&table(&strings(100..255))).unwrap();
    assert_eq!(Arc::as_ptr(t.key_slots(STR).unwrap()), live, "no new entry");
    assert_fresh(&t, STR, "extend_from, dictionary unchanged");

    t.extend_from(&table(&strings(255..256))).unwrap();
    assert_eq!(
        t.column(STR).heap_bytes(),
        unbuilt(&t).column(STR).heap_bytes()
    );
    assert_eq!(t.key_slots(STR).unwrap().heap_bytes(), 2 * t.num_rows());
    assert_fresh(&t, STR, "256 entries");
}

#[test]
fn the_whole_number_bound_follows_appends_and_a_fraction_clears_it() {
    let floats = |values: &[Option<f64>]| -> Vec<Vec<Value>> {
        let row = |v: &Option<f64>| vec![Value::Null, Value::Null, Value::from(*v)];
        values.iter().map(row).collect()
    };
    let mut t = table(&floats(&[Some(3.0), None, Some(-7.0), Some(-0.0)]));
    assert_eq!(t.integral_bound(FLOAT), Some(7.0));
    assert_eq!(t.integral_bound(STR), None, "strings have no numbers");
    assert_eq!(
        t.integral_bound(INT),
        Some(0.0),
        "an all-NULL integer column"
    );

    // Built, an append folds the appended values only; the pin keeps its own.
    let pin = t.clone();
    t.push_rows(&floats(&[Some(12.0), None])).unwrap();
    assert_eq!(t.integral_bound(FLOAT), Some(12.0));
    assert_eq!(pin.integral_bound(FLOAT), Some(7.0));
    assert_fresh(&t, FLOAT, "a larger whole number");

    // A fraction (or an infinity) clears it, and later whole numbers do not
    // bring it back; an overwrite of the fraction resets the cell, and the
    // rebuild finds whole numbers only.
    t.push_rows(&floats(&[Some(0.5)])).unwrap();
    assert_eq!(t.integral_bound(FLOAT), None);
    t.push_rows(&floats(&[Some(100.0)])).unwrap();
    assert_eq!(t.integral_bound(FLOAT), None);
    assert_fresh(&t, FLOAT, "after a fraction");
    let fraction = t.num_rows() - 2;
    t.set_cells(fraction, &[FLOAT], &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(t.integral_bound(FLOAT), Some(100.0));
    t.set_cells(0, &[FLOAT], &[Value::Float(f64::INFINITY)])
        .unwrap();
    assert_eq!(
        t.integral_bound(FLOAT),
        None,
        "a fractional overwrite clears it"
    );

    // The largest whole number the test can vouch for is 2^52 - 1; NaN and
    // a NULL holding the NaN placeholder are different things.
    let edge = (1u64 << 52) as f64;
    assert_eq!(
        table(&floats(&[Some(1.0 - edge), None])).integral_bound(FLOAT),
        Some(edge - 1.0)
    );
    assert_eq!(table(&floats(&[Some(edge)])).integral_bound(FLOAT), None);
    assert_eq!(
        table(&floats(&[Some(f64::NAN)])).integral_bound(FLOAT),
        None
    );
    assert_eq!(
        table(&floats(&[None, None])).integral_bound(FLOAT),
        Some(0.0)
    );

    // An integer column answers from its range, however wide.
    let ints = built_ints(&[Some(-9), Some(4), None, Some(i64::MIN)]);
    assert_eq!(
        ints.integral_bound(INT),
        Some(i64::MIN.unsigned_abs() as f64)
    );
}

/// A table of `values` in the float column, its record built (the bound
/// asked for), and what the overwrite of `row` with `to` leaves: whether
/// the record was carried rather than reset, and the bound.
fn overwrite_float(values: &[Option<f64>], row: usize, to: Option<f64>) -> (bool, Option<f64>) {
    let rows: Vec<Vec<Value>> = (values.iter())
        .map(|v| vec![Value::Null, Value::Null, Value::from(*v)])
        .collect();
    let mut t = table(&rows);
    t.integral_bound(FLOAT);
    let built = side_car_bytes(&t);
    assert!(built > 0);
    t.set_cells(row, &[FLOAT], &[Value::from(to)]).unwrap();
    let carried = side_car_bytes(&t) == built;
    assert_fresh(&t, FLOAT, &format!("{values:?}[{row}] = {to:?}"));
    (carried, t.integral_bound(FLOAT))
}

#[test]
fn a_float_overwrite_moves_the_null_count_and_keeps_the_record() {
    let values = [Some(3.0), None, Some(-7.0)];
    assert_eq!(overwrite_float(&values, 1, Some(2.0)), (true, Some(7.0)));
    assert_eq!(overwrite_float(&values, 0, None), (true, Some(7.0)));
    assert_eq!(overwrite_float(&values, 1, None), (true, Some(7.0)));
}

#[test]
fn a_float_overwrite_with_a_larger_whole_value_raises_the_bound() {
    let values = [Some(3.0), None, Some(-7.0)];
    assert_eq!(overwrite_float(&values, 0, Some(-12.0)), (true, Some(12.0)));
    assert_eq!(overwrite_float(&values, 2, Some(9.0)), (true, Some(9.0)));
    assert_eq!(overwrite_float(&values, 2, Some(-7.0)), (true, Some(7.0)));
}

#[test]
fn a_float_overwrite_with_a_fraction_clears_the_bound() {
    let values = [Some(3.0), None, Some(-7.0)];
    assert_eq!(overwrite_float(&values, 0, Some(0.5)), (true, None));
    assert_eq!(overwrite_float(&values, 1, Some(f64::NAN)), (true, None));
    assert_eq!(
        overwrite_float(&values, 0, Some(f64::INFINITY)),
        (true, None)
    );
    // A fraction elsewhere keeps it clear; overwriting the fraction
    // itself may leave whole numbers only, so the record is rebuilt.
    let fractional = [Some(0.5), Some(4.0)];
    assert_eq!(overwrite_float(&fractional, 1, Some(2.0)), (true, None));
    assert_eq!(
        overwrite_float(&fractional, 0, Some(2.0)),
        (false, Some(4.0))
    );
}

#[test]
fn a_float_overwrite_of_the_bounds_magnitude_by_a_smaller_value_resets_the_record() {
    let values = [Some(3.0), None, Some(-7.0), Some(7.0)];
    assert_eq!(overwrite_float(&values, 2, Some(1.0)), (false, Some(7.0)));
    assert_eq!(
        overwrite_float(&[Some(3.0), Some(-7.0)], 1, Some(1.0)),
        (false, Some(3.0))
    );
    assert_eq!(
        overwrite_float(&[Some(3.0), Some(-7.0)], 1, None),
        (false, Some(3.0))
    );
    // Not smaller: carried.
    assert_eq!(
        overwrite_float(&[Some(3.0), Some(-7.0)], 1, Some(7.0)),
        (true, Some(7.0))
    );
}

#[test]
fn an_int_overwrite_resets_the_record() {
    let mut t = built_ints(&[Some(10), Some(12), None]);
    assert!(side_car_bytes(&t) > 0);
    t.set_cells(0, &[INT], &[Value::Int(11)]).unwrap();
    assert_eq!(side_car_bytes(&t), 0);
    assert_fresh(&t, INT, "an integer overwrite");
}

#[test]
fn an_append_onto_an_unbuilt_cell_derives_nothing() {
    let mut t = table(&seeded_rows(100, 7));
    t.push_row(&seeded_rows(1, 1)[0]).unwrap();
    t.push_rows(&seeded_rows(50, 9)).unwrap();
    t.extend_from(&table(&seeded_rows(50, 11))).unwrap();
    assert_eq!(side_car_bytes(&t), 0);
    // Built, an append keeps it built (and a float column's record, which
    // has no vector, is carried too).
    for c in 0..COLS {
        t.column_stats(c);
        t.key_slots(c);
    }
    let built = side_car_bytes(&t);
    t.push_rows(&seeded_rows(3, 3)).unwrap();
    assert_eq!(side_car_bytes(&t), built + 2 * 3, "two byte slots a row");
    for c in 0..COLS {
        assert_fresh(&t, c, "carried");
    }
}

#[test]
fn single_row_appends_detach_a_pinned_vector_once_per_pin() {
    let mut t = table(&seeded_rows(10, 7));
    let mut pins = Vec::new();
    let mut detaches = 0;
    let mut at = [INT, STR].map(|c| Arc::as_ptr(t.key_slots(c).unwrap()));
    for (i, row) in seeded_rows(10_000, 7).iter().enumerate() {
        if i % 1_000 == 0 {
            pins.push(t.clone());
        }
        t.push_row(row).unwrap();
        let now = [INT, STR].map(|c| Arc::as_ptr(t.key_slots(c).unwrap()));
        detaches += usize::from(now != at);
        at = now;
    }
    assert_eq!(detaches, 10, "one copy per pin, none per row");
    assert_eq!(t.key_slots(INT).unwrap().len(), 10_010);
    assert_fresh(&t, INT, "10 000 rows later");
    assert_fresh(&t, STR, "10 000 rows later");
    for (p, pin) in pins.iter().enumerate() {
        assert_eq!(pin.key_slots(INT).unwrap().len(), 10 + p * 1_000);
    }
}
