//! The one generator: seeded fact tables of corner values, and statements
//! over them.
//!
//! Everything comes from a [`Draw`] (SplitMix64), so a seed names a table
//! and a statement for good. The fact table [`fact`] holds the values the
//! paper's practical issues are about: NULL in every column, a string
//! dimension, an integer one, a float one with `-0.0`, `0.0` and NaN, a
//! group whose measure cancels to a zero total (`zero`) and one whose
//! measure is all NULL (`void`), and negative amounts. Its measures are
//! whole numbers and halves, so every sum is exact in any order and any
//! regrouping, and answers compare by bits.

use crate::stmt::{Sets, Stmt};
use pa_engine::{AggFunc, ParallelConfig};
use pa_storage::{DataType, Schema, Table, Value};

/// A seeded stream of draws.
pub struct Draw(u64);

impl Draw {
    /// The stream `seed` names.
    pub fn new(seed: u64) -> Draw {
        Draw(seed)
    }

    /// A number below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// True once in `n` draws.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    /// One item of `of`.
    pub fn one_of<T: Clone>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())].clone()
    }

    /// Between `min` and `max` distinct items of `of`, in a drawn order.
    pub fn some_of<T: Clone>(&mut self, of: &[T], min: usize, max: usize) -> Vec<T> {
        let mut pool: Vec<T> = of.to_vec();
        let n = min + self.below(max.min(of.len()) - min + 1);
        (0..n)
            .map(|_| pool.remove(self.below(pool.len())))
            .collect()
    }
}

/// `threads` workers over 64-row morsels (so a small table really splits),
/// on the given side of the dense budget.
pub fn config(threads: usize, dense_budget: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        morsel_rows: 64,
        min_parallel_rows: 1,
        dense_budget,
        ..ParallelConfig::serial()
    }
}

/// A table of `fields` holding `rows`.
pub fn table(fields: &[(&str, DataType)], rows: &[Vec<Value>]) -> Table {
    let schema = Schema::from_pairs(fields).expect("schema").into_shared();
    let mut t = Table::with_capacity(schema, rows.len());
    for row in rows {
        t.push_row(row).expect("row fits the schema");
    }
    t
}

/// `t` with its float `column` scaled to whole cents (`x * 100`, rounded),
/// so every sum of it is exact in any order and answers compare by bits.
pub fn in_cents(mut t: Table, column: &str) -> Table {
    let c = t.schema().index_of(column).expect("column");
    for row in 0..t.num_rows() {
        if let Some(x) = t.column(c).get_f64(row) {
            let cents = Value::Float((x * 100.0).round());
            t.column_mut(c).set(row, cents).expect("a float column");
        }
    }
    t
}

/// The columns of [`fact`]: dimensions `g` (string), `d` (integer), `x`
/// (float), `s` (string); measures `amt` (float) and `q` (integer).
pub const FACT: [(&str, DataType); 6] = [
    ("g", DataType::Str),
    ("d", DataType::Int),
    ("x", DataType::Float),
    ("s", DataType::Str),
    ("amt", DataType::Float),
    ("q", DataType::Int),
];

/// `n` rows of corner values, then (when `n > 0`) one row that cancels
/// group `zero` to a zero total.
pub fn fact(draw: &mut Draw, n: usize) -> Table {
    let groups = ["a", "b", "c", "zero", "void"];
    let mut rows: Vec<Vec<Value>> = (0..n).map(|_| fact_row(draw, &groups)).collect();
    if n > 0 {
        let zero = rows.iter().filter(|row| row[0].as_str() == Some("zero"));
        let zero: f64 = zero.filter_map(|row| row[4].as_f64()).sum();
        let (d, x, s) = (Value::Int(0), Value::Float(1.5), Value::str("p"));
        rows.push(vec![
            Value::str("zero"),
            d,
            x,
            s,
            Value::Float(-zero),
            Value::Int(1),
        ]);
    }
    table(&FACT, &rows)
}

/// One row of [`fact`], `g` drawn from `groups`.
pub fn fact_row(draw: &mut Draw, groups: &[&str]) -> Vec<Value> {
    let g = match draw.below(groups.len() + 1) {
        i if i < groups.len() => Value::str(groups[i]),
        _ => Value::Null,
    };
    let amt = match g.as_str() {
        Some("void") => Value::Null,
        _ if draw.one_in(8) => Value::Null,
        _ => Value::Float(draw.below(17) as f64 / 2.0 - 4.0),
    };
    let x = [-0.0, 0.0, 1.5, f64::NAN, -2.0];
    vec![
        g,
        nullable(draw, |d| Value::Int(d.below(5) as i64)),
        nullable(draw, |d| Value::Float(d.one_of(&x))),
        nullable(draw, |d| Value::str(d.one_of(&["p", "q", "r"]))),
        amt,
        nullable(draw, |d| Value::Int(d.below(7) as i64 - 3)),
    ]
}

/// NULL once in six draws, else `value`.
fn nullable(draw: &mut Draw, value: impl Fn(&mut Draw) -> Value) -> Value {
    match draw.one_in(6) {
        true => Value::Null,
        false => value(draw),
    }
}

/// What a drawn statement may hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Whatever SQL carries — up to two terms, extras, `ORDER BY` and, for
    /// `Vpct`, grouping sets — and a `WHERE` when `true`.
    Sql(bool),
    /// What the typed entry points take: flat, up to two terms, no extra.
    Typed,
    /// One term and nothing else, as the missing-row pads take.
    OneTerm,
}

/// A `Vpct` statement over [`fact`]'s table `f`.
pub fn vertical(draw: &mut Draw, shape: Shape) -> Stmt {
    let dims = draw.some_of(&["g", "d", "x", "s"], 1, 3);
    let mut stmt = Stmt::new("f", &dims);
    for t in 0..1 + draw.below(2) * usize::from(shape != Shape::OneTerm) {
        let by = draw.some_of(&dims, 0, dims.len());
        let measure = draw.one_of(&["amt", "amt", "q", "1"]);
        stmt = stmt.vpct(measure, &by, &format!("p{t}"));
    }
    finish(draw, stmt, shape, true)
}

/// An `Hpct`/`Hagg` statement over [`fact`]'s table `f`: its `BY` lists
/// never name the float dimension.
pub fn horizontal(draw: &mut Draw, shape: Shape) -> Stmt {
    let dims = draw.some_of(&["g", "d", "s"], 1, 3);
    let split = draw.below(dims.len());
    let (group_by, rest) = dims.split_at(split);
    let mut stmt = Stmt::new("f", group_by);
    for t in 0..1 + draw.below(2) * usize::from(shape != Shape::OneTerm) {
        let by = draw.some_of(rest, 1, rest.len());
        let (func, measure, pct) = draw.one_of(&[
            (AggFunc::Sum, Some("amt"), true),
            (AggFunc::Sum, Some("q"), true),
            (AggFunc::Sum, Some("1"), true),
            (AggFunc::Sum, Some("amt"), false),
            (AggFunc::Sum, Some("q"), false),
            (AggFunc::Count, Some("q"), false),
            (AggFunc::CountStar, None, false),
            (AggFunc::Avg, Some("amt"), false),
            (AggFunc::Max, Some("q"), false),
            (AggFunc::Min, Some("amt"), false),
        ]);
        let zero = draw.one_in(3);
        stmt = stmt.horizontal(func, measure, &by, (pct, zero), &format!("h{t}"));
    }
    finish(draw, stmt, shape, false)
}

/// The SQL-only parts of a `shape`: extras, grouping sets (when `sets`),
/// a `WHERE`, an `ORDER BY`.
fn finish(draw: &mut Draw, mut stmt: Stmt, shape: Shape, sets: bool) -> Stmt {
    let Shape::Sql(filter) = shape else {
        return stmt;
    };
    let extras = [
        (AggFunc::Sum, Some("amt")),
        (AggFunc::CountStar, None),
        (AggFunc::Count, Some("q")),
        (AggFunc::Avg, Some("amt")),
        (AggFunc::Min, Some("q")),
        (AggFunc::Max, Some("amt")),
    ];
    for (i, (func, m)) in draw.some_of(&extras, 0, 2).into_iter().enumerate() {
        stmt = stmt.extra(func, m, &format!("e{i}"));
    }
    let k = stmt.group_by.len();
    if sets && k > 0 && draw.one_in(2) {
        stmt.sets = match draw.below(3) {
            0 => Sets::Rollup,
            1 => Sets::Cube,
            _ => {
                // The full list, then sub-lists of it, each in its order.
                let mut sets = vec![stmt.group_by.clone()];
                for _ in 0..draw.below(3) {
                    let keep = draw.below(1 << k);
                    let cols = stmt.group_by.iter().enumerate();
                    let set = cols.filter(|(i, _)| keep >> i & 1 == 1);
                    sets.push(set.map(|(_, c)| c.clone()).collect());
                }
                sets.dedup();
                Sets::Sets(sets)
            }
        };
    }
    if filter {
        let (column, op, literal) = draw.one_of(&[
            ("amt", "<", Value::Int(1)),
            ("d", ">=", Value::Int(1)),
            ("g", "<>", Value::str("b")),
            ("q", "<>", Value::Int(0)),
            ("amt", ">=", Value::Int(100)),
        ]);
        stmt = stmt.filter(column, op, literal);
    }
    stmt.order_by = k > 0 && draw.one_in(2);
    stmt
}

/// The first integer a float cannot hold.
pub const PAST_2_53: i64 = (1 << 53) + 1;

/// Values where the comparison semantics have corners: integers a float
/// cannot hold, signed zeros, NaN of either sign, infinities, the empty
/// string, and NULL in every column.
pub fn corner_values() -> [Vec<Value>; 3] {
    let ints = [
        0,
        1,
        -1,
        7,
        PAST_2_53,
        PAST_2_53 - 1,
        -PAST_2_53,
        i64::MAX,
        i64::MIN,
    ];
    let floats = [
        0.0,
        -0.0,
        1.0,
        7.0,
        -1.5,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        (1u64 << 53) as f64,
        PAST_2_53 as f64,
    ];
    let strs = ["", "a", "ab", "b", "zz"];
    let with_null = |vals: Vec<Value>| vals.into_iter().chain([Value::Null]).collect();
    [
        with_null(ints.iter().map(|&i| Value::Int(i)).collect()),
        with_null(floats.iter().map(|&f| Value::Float(f)).collect()),
        with_null(strs.iter().map(|&s| Value::str(s)).collect()),
    ]
}

/// An `id, i, f, s, sn` table of `n` rows drawn from the corner values;
/// `sn` is a string column holding only NULLs, so its dictionary is empty.
pub fn corner_table(draw: &mut Draw, n: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("sn", DataType::Str),
    ])
    .unwrap()
    .into_shared();
    let [ints, floats, strs] = corner_values();
    let mut t = Table::empty(schema);
    for id in 0..n {
        let row = [
            Value::Int(id as i64),
            draw.one_of(&ints),
            draw.one_of(&floats),
            draw.one_of(&strs),
            Value::Null,
        ];
        t.push_row(&row).unwrap();
    }
    t
}
