//! The percentage divide: a group's sum over the sum of the coarser group
//! it projects onto, looked up through `parent` (DESIGN.md "a percentage is
//! a measure looked up through `parent`").
//!
//! Every `Fj` is a projection of `Fk`, so once both levels exist as columns
//! the paper's `CASE WHEN Fj.A <> 0 THEN Fk.A / Fj.A ELSE NULL END` needs no
//! join: `parent[r]` is the row of the coarser level that row `r` of the
//! finer one projects onto, and the percentage is one gather along it. The
//! scalar reference the tests hold this to is that `CASE` evaluated on one
//! row's values at a time, over the rows a nested-loop join on the shared
//! key pairs up (`prop_engine.rs`).

use pa_storage::{Bitmap, Column};
use std::borrow::Cow;

/// A numeric column's values as `f64` (integers widened as
/// [`Column::get_f64`] does) and its validity; a string column has no
/// numeric row.
fn numeric(col: &Column) -> (Cow<'_, [f64]>, Cow<'_, Bitmap>) {
    match col {
        Column::Float { data, validity } => (Cow::Borrowed(data), Cow::Borrowed(validity)),
        Column::Int { data, validity } => (
            Cow::Owned(data.iter().map(|&v| v as f64).collect()),
            Cow::Borrowed(validity),
        ),
        Column::Str { codes, .. } => (
            Cow::Owned(vec![f64::NAN; codes.len()]),
            Cow::Owned(Bitmap::filled(codes.len(), false)),
        ),
    }
}

/// `sums[r] / totals[parent[r]]` for every row `r` of the finer level,
/// appended to the `Float` column `out` — a result column sized for it,
/// which the percentages land in with no copy: NULL when the total is NULL
/// or zero (of either sign), or the group's own sum is NULL. A NULL result
/// keeps the `NaN` placeholder [`Column::push`] writes for one.
///
/// Without a `parent` the totals sit on the sums' own rows — the horizontal
/// form, where `sums` is one cell column of an `Hpct` table — and a NULL sum
/// is a cell no row fed, which SIGMOD's `ELSE 0` counts as zero: the cell is
/// `0 / total`, NULL only for the total's sake.
///
/// # Panics
///
/// Panics when `out` is not a `Float` column, when `parent` does not have
/// one entry per row of `sums`, or names a row `totals` does not have.
pub fn divide(sums: &Column, totals: &Column, parent: Option<&[u32]>, out: &mut Column) {
    let n = sums.len();
    assert_eq!(
        parent.map_or(totals.len(), <[u32]>::len),
        n,
        "one total per group"
    );
    let Column::Float { data, validity } = out else {
        panic!("a percentage is a Float column");
    };
    let (num, present) = numeric(sums);
    let (den, den_valid) = numeric(totals);
    // A total nothing may be divided by reads as zero, the one test the
    // loop makes (a NaN total stays NaN and divides, as the `CASE` has it).
    let den: Cow<'_, [f64]> = match den_valid.all_set() {
        true => den,
        false => (den.iter().zip(den_valid.iter()))
            .map(|(&d, valid)| if valid { d } else { 0.0 })
            .collect(),
    };
    let den: &[f64] = &den;
    data.reserve(n);
    let words = match parent {
        Some(parent) => ratios::<_, false>(&num, &present, parent, |&p| den[p as usize], data),
        None => ratios::<_, true>(&num, &present, den, |&d| d, data),
    };
    validity.extend_from(&Bitmap::from_words(words, n).expect("one word per 64 rows"));
}

/// `num[r] / total(&keys[r])` per row, pushed onto `data`, and the rows'
/// validity words: NULL where the total is zero, and where `present` does
/// not list the row — unless such a row `COUNTS_ZERO`, and is `0 / total`.
/// Which rule holds is a compile-time parameter, and the keys are walked in
/// step with the rows, so that the vertical form keeps the loop it had (a
/// warm `ROLLUP` is little else: 12% on `cube` when the two forms shared a
/// loop that tested for both).
fn ratios<K, const COUNTS_ZERO: bool>(
    num: &[f64],
    present: &Bitmap,
    keys: &[K],
    total: impl Fn(&K) -> f64,
    data: &mut Vec<f64>,
) -> Vec<u64> {
    let mut words = Vec::with_capacity(num.len().div_ceil(64));
    for ((keys, num), &present) in (keys.chunks(64).zip(num.chunks(64))).zip(present.words()) {
        let mut word = 0u64;
        // One `extend` per word: the column's length is kept in a register
        // across the 64 rows, not reloaded past every store.
        data.extend(keys.iter().zip(num).enumerate().map(|(bit, (key, &x))| {
            let d = total(key);
            let fed = (present >> bit) & 1 == 1;
            let valid = d != 0.0 && (fed || COUNTS_ZERO);
            let x = if COUNTS_ZERO && !fed { 0.0 } else { x };
            word |= u64::from(valid) << bit;
            if valid {
                x / d
            } else {
                f64::NAN
            }
        }));
        words.push(word);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Value};

    fn column(dtype: DataType, values: &[Value]) -> Column {
        let mut col = Column::new(dtype);
        for v in values {
            col.push(v.clone()).unwrap();
        }
        col
    }

    fn floats(values: &[Option<f64>]) -> Column {
        let values: Vec<Value> = values.iter().map(|&v| Value::from(v)).collect();
        column(DataType::Float, &values)
    }

    /// The percentages `divide` appends to an empty column.
    fn divided(sums: &Column, totals: &Column, parent: Option<&[u32]>) -> Column {
        let mut out = Column::new(DataType::Float);
        divide(sums, totals, parent, &mut out);
        out
    }

    fn cells(col: &Column) -> Vec<Value> {
        (0..col.len()).map(|r| col.get(r)).collect()
    }

    #[test]
    fn the_papers_rule_case_by_case() {
        use Value::{Float, Null};
        // (name, sums, totals, parent, expected)
        let cases = vec![
            (
                "a share of its group",
                floats(&[Some(23.0), Some(83.0), Some(85.0)]),
                floats(&[Some(106.0), Some(149.0)]),
                vec![0, 0, 1],
                vec![
                    Float(23.0 / 106.0),
                    Float(83.0 / 106.0),
                    Float(85.0 / 149.0),
                ],
            ),
            (
                "zero total",
                floats(&[Some(5.0), Some(-5.0)]),
                floats(&[Some(0.0)]),
                vec![0, 0],
                vec![Null, Null],
            ),
            (
                "NULL total",
                floats(&[Some(1.0)]),
                floats(&[None]),
                vec![0],
                vec![Null],
            ),
            (
                "NULL sum",
                floats(&[None, Some(2.0)]),
                floats(&[Some(4.0)]),
                vec![0, 0],
                vec![Null, Float(0.5)],
            ),
            (
                "negative total",
                floats(&[Some(3.0)]),
                floats(&[Some(-6.0)]),
                vec![0],
                vec![Float(-0.5)],
            ),
            (
                "-0.0 total",
                floats(&[Some(3.0)]),
                floats(&[Some(-0.0)]),
                vec![0],
                vec![Null],
            ),
            (
                "Int sums over Float totals",
                column(DataType::Int, &[Value::Int(3), Null, Value::Int(1)]),
                floats(&[Some(4.0)]),
                vec![0, 0, 0],
                vec![Float(0.75), Null, Float(0.25)],
            ),
            (
                "Float sums over Int totals",
                floats(&[Some(1.0), Some(1.0)]),
                column(DataType::Int, &[Value::Int(0), Value::Int(8)]),
                vec![0, 1],
                vec![Null, Float(0.125)],
            ),
            ("empty input", floats(&[]), floats(&[]), vec![], vec![]),
            (
                // The totals row of the NULL-key group is a row like any
                // other: here it is row 1, between two keyed groups.
                "a parent that is the NULL-key group",
                floats(&[Some(1.0), Some(2.0), Some(3.0), Some(6.0)]),
                floats(&[Some(2.0), Some(8.0), Some(3.0)]),
                vec![0, 1, 2, 1],
                vec![Float(0.5), Float(0.25), Float(1.0), Float(0.75)],
            ),
        ];
        for (name, sums, totals, parent, expected) in cases {
            let out = divided(&sums, &totals, Some(&parent));
            assert_eq!(out.data_type(), DataType::Float, "{name}");
            assert_eq!(cells(&out), expected, "{name}");
            // A NULL cell holds what `Column::push(Value::Null)` writes.
            let data = out.float_data().unwrap();
            for (r, v) in expected.iter().enumerate() {
                assert_eq!(v.is_null(), data[r].is_nan(), "{name}: placeholder at {r}");
            }
            out.check_integrity(parent.len()).unwrap();
        }
    }

    #[test]
    fn without_a_parent_the_total_is_on_the_row_and_a_missing_cell_counts_zero() {
        use Value::{Float, Null};
        // An `Hpct` cell column beside its row totals: a fed cell, a cell no
        // row fed (SIGMOD's `ELSE 0`), and both over a zero and a NULL total.
        let cells = floats(&[Some(5.0), None, Some(5.0), None, Some(2.0), None]);
        let totals = floats(&[Some(20.0), Some(20.0), Some(0.0), Some(-0.0), None, None]);
        let out = divided(&cells, &totals, None);
        assert_eq!(
            super::tests::cells(&out),
            [Float(0.25), Float(0.0), Null, Null, Null, Null]
        );
        let data = out.float_data().unwrap();
        assert_eq!(
            data[1].to_bits(),
            0.0f64.to_bits(),
            "0 / 20, not a placeholder"
        );
        assert!(data[2..].iter().all(|x| x.is_nan()), "NULL cells hold NaN");
        out.check_integrity(6).unwrap();
        // Past one validity word, against the per-row rule.
        let n = 150;
        let cells: Vec<Option<f64>> = (0..n).map(|r| (r % 4 != 0).then_some(r as f64)).collect();
        let totals: Vec<Option<f64>> = (0..n)
            .map(|r| (r % 7 != 0).then_some((r % 5) as f64))
            .collect();
        let out = divided(&floats(&cells), &floats(&totals), None);
        for r in 0..n {
            let want = match totals[r] {
                Some(t) if t != 0.0 => Float(cells[r].unwrap_or(0.0) / t),
                _ => Null,
            };
            assert_eq!(out.get(r), want, "row {r}");
        }
    }

    #[test]
    fn validity_words_line_up_past_one_word() {
        // 200 groups over 7 totals: every third sum NULL, total 3 zero,
        // total 5 NULL.
        let n = 200;
        let sums: Vec<Option<f64>> = (0..n).map(|r| (r % 3 != 0).then_some(r as f64)).collect();
        let totals: Vec<Option<f64>> = (0..7)
            .map(|t| match t {
                3 => Some(0.0),
                5 => None,
                t => Some(t as f64 + 1.0),
            })
            .collect();
        let parent: Vec<u32> = (0..n).map(|r| (r * 5 % 7) as u32).collect();
        let out = divided(&floats(&sums), &floats(&totals), Some(&parent));
        for r in 0..n {
            let want = match (sums[r], totals[parent[r] as usize]) {
                (Some(s), Some(t)) if t != 0.0 => Value::Float(s / t),
                _ => Value::Null,
            };
            assert_eq!(out.get(r), want, "row {r}");
        }
        assert_eq!(
            out.null_count(),
            cells(&out).iter().filter(|v| v.is_null()).count()
        );
    }

    #[test]
    fn percentages_append_at_any_offset() {
        // Two levels' percentages into one column, the first of a length
        // that leaves the second's validity words on a seam.
        let rows = |n: usize, k: usize| -> Vec<Option<f64>> {
            (0..n)
                .map(|r| (!(r + k).is_multiple_of(5)).then_some(r as f64))
                .collect()
        };
        let totals = floats(&[Some(3.0), Some(0.0), None, Some(-2.0)]);
        for (a, b) in [(0, 70), (1, 1), (63, 64), (64, 65), (100, 0), (130, 200)] {
            let parents = |n: usize| (0..n).map(|r| (r % 4) as u32).collect::<Vec<u32>>();
            let (pa, pb) = (parents(a), parents(b));
            let mut out = Column::with_capacity(DataType::Float, a + b);
            divide(&floats(&rows(a, 1)), &totals, Some(&pa), &mut out);
            divide(&floats(&rows(b, 2)), &totals, Some(&pb), &mut out);
            out.check_integrity(a + b).unwrap();
            let mut want = divided(&floats(&rows(a, 1)), &totals, Some(&pa));
            want.extend_from(&divided(&floats(&rows(b, 2)), &totals, Some(&pb)))
                .unwrap();
            assert_eq!(out.validity(), want.validity(), "a={a} b={b}");
            let bits = |c: &Column| {
                c.float_data()
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            let (got, expected): (Vec<u64>, Vec<u64>) = (bits(&out), bits(&want));
            assert_eq!(got, expected, "a={a} b={b}");
        }
    }

    #[test]
    fn a_string_column_has_no_numeric_row() {
        let strs = column(DataType::Str, &[Value::str("x"), Value::Null]);
        let ones = floats(&[Some(1.0), Some(1.0)]);
        assert_eq!(
            cells(&divided(&strs, &ones, Some(&[0, 1]))),
            [Value::Null, Value::Null]
        );
        assert_eq!(
            cells(&divided(&ones, &strs, Some(&[0, 1]))),
            [Value::Null, Value::Null]
        );
    }
}
