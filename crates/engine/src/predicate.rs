//! `WHERE` as a selection over the scan (DESIGN.md §16).
//!
//! The paper lets `F` be "a temporary table resulting from some query", and
//! SPJ is built out of `WHERE Dh = v` steps. Neither needs a table: a
//! predicate is *which rows of `F`* a scan reads. [`Selection::compile`]
//! turns an [`Expr`] into one bit per row, once per statement, and the scan
//! core applies the bits block by block (`crate::scan`), so every adapter
//! over a [`Selected`] table returns what it would return over
//! `filter(F)` without `filter(F)` ever existing.
//!
//! An `And` / `Or` / `Not` tree over column-versus-literal `Cmp` / `KeyEq`
//! leaves compiles to typed block tests: a loop over `&[i64]` / `&[f64]`
//! per numeric leaf, and for a string column the comparison evaluated once
//! per dictionary entry into a by-code truth table, then a lookup per row.
//! Anything else (arithmetic, column-versus-column, `CASE`) runs the per-row
//! [`Expr::eval`] into the same words — the scalar mode, and the reference
//! the property test compares the compiler with.
//! The semantics are `Expr::eval`'s bit for bit: only TRUE keeps a row,
//! ordering is [`Value::total_cmp`], equality [`Value::key_eq`].

use crate::error::Result;
use crate::expr::{compare, truth, CmpOp, Expr};
use crate::guard::ResourceGuard;
use crate::parallel::ParallelConfig;
use crate::stats::ExecStats;
use crate::vector::{blocks, BLOCK_ROWS};
use pa_storage::{Bitmap, Column, Table, Value};
use std::cmp::Ordering;
use std::ops::Range;

/// Selection words of one block.
type Words = [u64; BLOCK_ROWS / 64];

/// Which rows of one table a statement reads: one bit per row.
#[derive(Debug, Clone)]
pub struct Selection {
    bits: Bitmap,
    /// `"compiled"` or `"scalar"`: how the predicate was evaluated.
    mode: &'static str,
}

/// A scan's input: a table and, when the statement has a predicate, which
/// of its rows. Every scan-core operator reads this, so the rows of a
/// selected table are reachable only through its selection.
#[derive(Debug, Clone, Copy)]
pub struct Selected<'a> {
    pub(crate) table: &'a Table,
    pub(crate) selection: Option<&'a Selection>,
}

impl<'a> Selected<'a> {
    /// The same table read through `selection` instead.
    ///
    /// # Panics
    /// When the selection was compiled over a table of another length.
    pub fn with(self, selection: &'a Selection) -> Selected<'a> {
        assert_eq!(
            selection.bits.len(),
            self.table.num_rows(),
            "a selection belongs to the table it was compiled over"
        );
        Selected {
            table: self.table,
            selection: Some(selection),
        }
    }
}

impl<'a> From<&'a Table> for Selected<'a> {
    fn from(table: &'a Table) -> Selected<'a> {
        Selected {
            table,
            selection: None,
        }
    }
}

/// What a block's selection words say of it.
pub(crate) enum Pick {
    /// Every row: the block takes the unselected path untouched.
    All,
    /// No row: the block is skipped.
    None,
    /// This many rows, their offsets within the block written out.
    Some(usize),
}

impl Selection {
    /// Evaluate `pred` over every row of `input`'s table, morsel by morsel
    /// under `guard` (deadline and cancellation are observed once per
    /// morsel; nothing is charged — the scans that read the selection
    /// charge the rows they read, which is where a budget trips — so the
    /// pass's `select` span counts morsels and no rows). A row `input` does
    /// not already select stays unselected: two selections intersect
    /// word-wise.
    pub fn compile(
        input: Selected<'_>,
        pred: &Expr,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        config: &ParallelConfig,
    ) -> Result<Selection> {
        let table = input.table;
        let n = table.num_rows();
        let mut span = guard.span("select");
        let tree = Node::compile(table, pred);
        let mut words = vec![0u64; n.div_ceil(64)];
        // Morsels cut at block multiples, so every block starts on a word.
        let morsel = config.morsel_rows.next_multiple_of(BLOCK_ROWS);
        for start in (0..n).step_by(morsel) {
            guard.check()?;
            span.add_morsels(1);
            let rows = start..(start + morsel).min(n);
            match &tree {
                Some(node) => {
                    for block in blocks(rows) {
                        let (t, _) = node.eval(&block);
                        let at = block.start / 64..block.end.div_ceil(64);
                        words[at.clone()].copy_from_slice(&t[..at.len()]);
                    }
                }
                None => {
                    for row in rows {
                        if truth(&pred.eval(table, row, stats)?) == Some(true) {
                            words[row >> 6] |= 1 << (row & 63);
                        }
                    }
                }
            }
        }
        if let Some(base) = input.selection {
            for (w, b) in words.iter_mut().zip(base.bits.words()) {
                *w &= b;
            }
        }
        // (Masks what a NULL-matching leaf set past the last row.)
        let bits = Bitmap::from_words(words, n).expect("one word per 64 rows");
        let mode = if tree.is_some() { "compiled" } else { "scalar" };
        let selection = Selection { bits, mode };
        if span.is_enabled() {
            let (mode, selected) = selection.summary();
            span.set_selection(mode, selected);
        }
        Ok(selection)
    }

    /// The rows of a `len`-row table that `keep` names, for tests that
    /// need a selection no predicate draws.
    #[cfg(test)]
    pub(crate) fn of_rows(len: usize, keep: impl Fn(usize) -> bool) -> Selection {
        Selection {
            bits: (0..len).map(keep).collect(),
            mode: "scalar",
        }
    }

    /// How the predicate ran (`"compiled"` / `"scalar"`) and how many rows
    /// it selected, for span details.
    pub(crate) fn summary(&self) -> (&'static str, u64) {
        (self.mode, self.bits.count_ones() as u64)
    }

    /// The selection bits of rows `at..at + 64`, row `at` in bit 0 (zeros
    /// past the last row).
    #[inline]
    fn word_at(&self, at: usize) -> u64 {
        let words = self.bits.words();
        let word = |w: usize| words.get(w).copied().unwrap_or(0);
        match at & 63 {
            0 => word(at >> 6),
            shift => word(at >> 6) >> shift | word((at >> 6) + 1) << (64 - shift),
        }
    }

    /// The selection bits of `rows`, 64 rows a word, with the row each
    /// word starts at.
    #[inline]
    fn words_of(&self, rows: Range<usize>) -> impl Iterator<Item = (usize, u64)> + '_ {
        let end = rows.end;
        rows.step_by(64).map(move |at| {
            let mask = match end - at {
                0..=63 => (1u64 << (end - at)) - 1,
                _ => u64::MAX,
            };
            (at, self.word_at(at) & mask)
        })
    }

    /// The selected rows of `rows`, in row order.
    pub(crate) fn ones(&self, rows: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.words_of(rows).flat_map(|(at, mut word)| {
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    at + bit
                })
            })
        })
    }

    /// What the selection says of `block`; for a mixed block the offsets of
    /// its selected rows are written to the front of `picked`.
    pub(crate) fn pick(&self, block: &Range<usize>, picked: &mut [u32; BLOCK_ROWS]) -> Pick {
        let mut words: Words = [0; BLOCK_ROWS / 64];
        let mut n = 0;
        for (word, (_, bits)) in words.iter_mut().zip(self.words_of(block.clone())) {
            *word = bits;
            n += bits.count_ones() as usize;
        }
        if n == 0 {
            return Pick::None;
        }
        if n == block.len() {
            return Pick::All;
        }
        // Branch-free: every row writes its offset, a selected one keeps it.
        let mut at = 0;
        for (row, slot) in (0..block.len()).zip(0u32..) {
            picked[at] = slot;
            at += (words[row >> 6] >> (row & 63) & 1) as usize;
        }
        Pick::Some(n)
    }
}

// ---- the compiler ---------------------------------------------------------------

/// A compiled predicate. Evaluating a node over a block yields two word
/// vectors, the rows it is TRUE on and the rows it is FALSE on; a row in
/// neither is NULL. That is all three-valued logic needs: `And` is TRUE
/// where both are and FALSE where either is, `Or` the dual, `Not` swaps.
enum Node<'a> {
    And(Box<Node<'a>>, Box<Node<'a>>),
    Or(Box<Node<'a>>, Box<Node<'a>>),
    Not(Box<Node<'a>>),
    /// A comparison with the NULL literal: NULL on every row.
    Unknown,
    Leaf(Leaf<'a>),
}

/// One column-versus-literal test.
struct Leaf<'a> {
    test: Test<'a>,
    /// The column's validity words.
    valid: &'a [u64],
    /// What the leaf is on a NULL row: NULL for a comparison (`None`),
    /// whether the literal is NULL too for a `KeyEq`.
    on_null: Option<bool>,
}

/// How a leaf's non-NULL rows test.
enum Test<'a> {
    /// All alike: a number against a string literal compares by rank.
    Const(bool),
    Int(&'a [i64], CmpOp, i64),
    /// Int-versus-Float compares through `f64`, as [`Value`] does.
    IntAsFloat(&'a [i64], CmpOp, f64),
    Float(&'a [f64], CmpOp, f64),
    /// The comparison's outcome per dictionary code.
    Codes(&'a [u32], Vec<bool>),
}

/// `literal op column` as `column op' literal`.
fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        eq_or_ne => eq_or_ne,
    }
}

impl<'a> Node<'a> {
    /// Compile `expr` against `table`, `None` when some part of it is not
    /// an `And` / `Or` / `Not` of column-versus-literal tests.
    fn compile(table: &'a Table, expr: &Expr) -> Option<Node<'a>> {
        let node = |e: &Expr| Node::compile(table, e).map(Box::new);
        Some(match expr {
            Expr::And(l, r) => Node::And(node(l)?, node(r)?),
            Expr::Or(l, r) => Node::Or(node(l)?, node(r)?),
            Expr::Not(e) => Node::Not(node(e)?),
            Expr::Cmp(op, l, r) => match (&**l, &**r) {
                (Expr::Col(c), Expr::Lit(v)) => Node::leaf(table, *c, Some(*op), v)?,
                (Expr::Lit(v), Expr::Col(c)) => Node::leaf(table, *c, Some(mirrored(*op)), v)?,
                _ => return None,
            },
            Expr::KeyEq(l, r) => match (&**l, &**r) {
                (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => {
                    Node::leaf(table, *c, None, v)?
                }
                _ => return None,
            },
            _ => return None,
        })
    }

    /// Column `c` against `lit`: the comparison `op`, or `KeyEq` without
    /// one. `None` when the table has no such column (the scalar mode
    /// reports it as `Expr::eval` does).
    fn leaf(table: &'a Table, c: usize, op: Option<CmpOp>, lit: &Value) -> Option<Node<'a>> {
        let col = table.columns().get(c)?;
        if op.is_some() && lit.is_null() {
            return Some(Node::Unknown);
        }
        // What one non-NULL value of the column makes of the literal.
        let outcome = |v: &Value| match op {
            Some(op) => truth(&compare(op, v, lit)) == Some(true),
            None => v.key_eq(lit),
        };
        let eq_or = op.unwrap_or(CmpOp::Eq);
        let test = match (col, lit) {
            (Column::Int { data, .. }, Value::Int(x)) => Test::Int(data, eq_or, *x),
            (Column::Int { data, .. }, Value::Float(x)) => Test::IntAsFloat(data, eq_or, *x),
            (Column::Float { data, .. }, Value::Int(x)) => Test::Float(data, eq_or, *x as f64),
            (Column::Float { data, .. }, Value::Float(x)) => Test::Float(data, eq_or, *x),
            // Number against string or NULL: the value plays no part.
            (Column::Int { .. } | Column::Float { .. }, _) => Test::Const(outcome(&Value::Int(0))),
            (Column::Str { dict, codes, .. }, _) => {
                let of = |s| outcome(&Value::Str(std::sync::Arc::clone(s)));
                Test::Codes(codes, dict.values().iter().map(of).collect())
            }
        };
        Some(Node::Leaf(Leaf {
            test,
            valid: col.validity().words(),
            on_null: op.is_none().then(|| lit.is_null()),
        }))
    }

    /// The rows of `block` (which starts on a word) this node is TRUE on
    /// and the rows it is FALSE on.
    fn eval(&self, block: &Range<usize>) -> (Words, Words) {
        let zip = |a: Words, b: Words, f: fn(u64, u64) -> u64| -> Words {
            std::array::from_fn(|i| f(a[i], b[i]))
        };
        match self {
            Node::And(l, r) => {
                let ((lt, lf), (rt, rf)) = (l.eval(block), r.eval(block));
                (zip(lt, rt, |a, b| a & b), zip(lf, rf, |a, b| a | b))
            }
            Node::Or(l, r) => {
                let ((lt, lf), (rt, rf)) = (l.eval(block), r.eval(block));
                (zip(lt, rt, |a, b| a | b), zip(lf, rf, |a, b| a & b))
            }
            Node::Not(e) => {
                let (t, f) = e.eval(block);
                (f, t)
            }
            Node::Unknown => ([0; BLOCK_ROWS / 64], [0; BLOCK_ROWS / 64]),
            Node::Leaf(leaf) => leaf.eval(block),
        }
    }
}

/// One bit per value of `data` (64 a word) that passes `test`.
#[inline]
fn hits<T: Copy>(data: &[T], out: &mut Words, test: impl Fn(T) -> bool) {
    for (word, chunk) in out.iter_mut().zip(data.chunks(64)) {
        let mut bits = 0u64;
        for (k, &x) in chunk.iter().enumerate() {
            bits |= u64::from(test(x)) << k;
        }
        *word = bits;
    }
}

/// [`hits`] of `value op literal`, given the value's equality and ordering
/// against the literal. The operator is matched here, outside the row loop.
#[inline]
fn cmp_hits<T: Copy>(
    op: CmpOp,
    data: &[T],
    out: &mut Words,
    eq: impl Fn(T) -> bool,
    ord: impl Fn(T) -> Ordering,
) {
    match op {
        CmpOp::Eq => hits(data, out, eq),
        CmpOp::Ne => hits(data, out, |x| !eq(x)),
        CmpOp::Lt => hits(data, out, |x| ord(x) == Ordering::Less),
        CmpOp::Le => hits(data, out, |x| ord(x) != Ordering::Greater),
        CmpOp::Gt => hits(data, out, |x| ord(x) == Ordering::Greater),
        CmpOp::Ge => hits(data, out, |x| ord(x) != Ordering::Less),
    }
}

/// [`Value::key_eq`] of two floats: NaN equals NaN.
#[inline]
fn float_eq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

impl Leaf<'_> {
    fn eval(&self, block: &Range<usize>) -> (Words, Words) {
        let mut hit: Words = [0; BLOCK_ROWS / 64];
        let rows = block.clone();
        match &self.test {
            Test::Const(all) => hit.fill(if *all { u64::MAX } else { 0 }),
            Test::Int(data, op, lit) => {
                cmp_hits(*op, &data[rows], &mut hit, |x| x == *lit, |x| x.cmp(lit))
            }
            Test::IntAsFloat(data, op, lit) => cmp_hits(
                *op,
                &data[rows],
                &mut hit,
                |x| float_eq(x as f64, *lit),
                |x| (x as f64).total_cmp(lit),
            ),
            Test::Float(data, op, lit) => cmp_hits(
                *op,
                &data[rows],
                &mut hit,
                |x| float_eq(x, *lit),
                |x| x.total_cmp(lit),
            ),
            // A NULL row holds code 0 whatever the dictionary holds — nothing,
            // for an all-NULL column — so the lookup is total; `valid`
            // discards what it answers there.
            Test::Codes(codes, by_code) => hits(&codes[rows], &mut hit, |c| {
                by_code.get(c as usize).copied().unwrap_or(false)
            }),
        }
        let valid = &self.valid[block.start / 64..block.end.div_ceil(64)];
        let (mut t, mut f): (Words, Words) = ([0; BLOCK_ROWS / 64], [0; BLOCK_ROWS / 64]);
        for (i, &v) in valid.iter().enumerate() {
            (t[i], f[i]) = (hit[i] & v, !hit[i] & v);
            match self.on_null {
                Some(true) => t[i] |= !v,
                Some(false) => f[i] |= !v,
                None => {}
            }
        }
        (t, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[("d", DataType::Str), ("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..n {
            let d = match i % 3 {
                0 => Value::Null,
                1 => Value::str("x"),
                _ => Value::str("y"),
            };
            t.push_row(&[d, Value::Int(i as i64)]).unwrap();
        }
        t
    }

    fn select(t: &Table, base: Option<&Selection>, pred: &Expr) -> Selection {
        let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::serial());
        let input = base.map_or(t.into(), |base| Selected::from(t).with(base));
        Selection::compile(input, pred, &guard, &mut ExecStats::default(), &config).unwrap()
    }

    #[test]
    fn compiled_and_scalar_modes_fill_the_same_words() {
        let t = table(2 * BLOCK_ROWS + 65);
        let d_is_x = Expr::Col(0).eq(Expr::lit("x"));
        let compiled = select(&t, None, &d_is_x);
        // `d = 'x' AND a + 0 >= 0`: arithmetic sends the tree to `Expr::eval`.
        let ge = |l: Expr, r: Expr| Expr::Cmp(CmpOp::Ge, Box::new(l), Box::new(r));
        let scalar = select(
            &t,
            None,
            &d_is_x.and(ge(Expr::Col(1).add(Expr::lit(0)), Expr::lit(0))),
        );
        assert_eq!(compiled.summary().0, "compiled");
        assert_eq!(scalar.summary().0, "scalar");
        assert_eq!(compiled.bits, scalar.bits);
        assert_eq!(compiled.summary().1, (t.num_rows() / 3) as u64);
    }

    #[test]
    fn a_string_column_of_only_nulls_compiles_against_an_empty_dictionary() {
        let mut t = Table::empty(table(0).schema().clone());
        for i in 0..70 {
            t.push_row(&[Value::Null, Value::Int(i)]).unwrap();
        }
        // A comparison is NULL on every row, `KeyEq` with NULL TRUE on every
        // row (what SPJ asks of an all-NULL `BY` column), `KeyEq` with a
        // string FALSE on every row.
        let is = |v: Value| Expr::KeyEq(Box::new(Expr::Col(0)), Box::new(Expr::Lit(v)));
        for (pred, want) in [
            (Expr::Col(0).eq(Expr::lit("x")), 0),
            (Expr::Not(Box::new(Expr::Col(0).eq(Expr::lit("x")))), 0),
            (is(Value::Null), 70),
            (is(Value::str("x")), 0),
            (Expr::Not(Box::new(is(Value::str("x")))), 70),
        ] {
            let sel = select(&t, None, &pred);
            assert_eq!(sel.summary(), ("compiled", want), "{pred:?}");
        }
    }

    #[test]
    fn a_base_selection_intersects() {
        let t = table(200);
        let lt = |x: i64| Expr::Cmp(CmpOp::Lt, Box::new(Expr::Col(1)), Box::new(Expr::lit(x)));
        let base = select(&t, None, &lt(100));
        let both = select(&t, Some(&base), &Expr::Not(Box::new(lt(70))));
        assert_eq!(
            both.ones(0..200).collect::<Vec<_>>(),
            (70..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pick_reads_blocks_at_any_alignment() {
        let t = table(300);
        let odd = Expr::KeyEq(Box::new(Expr::Col(0)), Box::new(Expr::Lit(Value::Null)));
        let sel = select(&t, None, &odd); // rows 0, 3, 6, ..
        let mut picked = [0u32; BLOCK_ROWS];
        let Pick::Some(n) = sel.pick(&(70..201), &mut picked) else {
            panic!("a mixed block");
        };
        let want: Vec<u32> = (70..201).filter(|r| r % 3 == 0).map(|r| r - 70).collect();
        assert_eq!(&picked[..n], &want[..]);
        assert!(matches!(sel.pick(&(1..3), &mut picked), Pick::None));
        assert!(matches!(sel.pick(&(3..4), &mut picked), Pick::All));
        assert!(matches!(sel.pick(&(300..300), &mut picked), Pick::None));
    }

    #[test]
    fn the_guard_is_observed_once_per_morsel() {
        let t = table(10 * BLOCK_ROWS);
        let guard = ResourceGuard::with_row_budget(u64::MAX);
        guard.cancel();
        let config = ParallelConfig::serial();
        let pred = Expr::Col(1).eq(Expr::lit(1));
        let err = Selection::compile(
            (&t).into(),
            &pred,
            &guard,
            &mut ExecStats::default(),
            &config,
        );
        assert!(matches!(err, Err(crate::EngineError::Cancelled)));
    }
}
