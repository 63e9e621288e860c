//! Column statistics and slot vectors, kept beside the column.
//!
//! Gray et al. size a cube as Π(Cᵢ + 1) over its dimensions' cardinalities:
//! a key's domain is a property of the column, which a catalog keeps, not
//! one every statement rediscovers. A [`ColumnStats`] is that record for one
//! column *version* (DESIGN.md §12): value range, NULL count, distinct count,
//! whether a measure holds whole numbers only (what makes its sums exact in
//! any order) and — for an integer column narrow enough — the NULL-folded
//! slot vector the block kernels read instead of the 8-byte values.
//! [`crate::Table`]
//! owns one lazily built cell per column and shares it with its clones (a
//! pinned snapshot is the same version); an append carries a built record
//! forward over the appended rows ([`ColumnStats::extend`]), an overwrite
//! of a float cell carries it over the cell ([`ColumnStats::overwrite`])
//! and any other overwrite resets it, so the key space, the block coder
//! and the optimizer all read one derivation and none of them can hold a
//! stale one.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::hash::FxHashSet;
use crate::packed::{int_width, PackedCodes};
use std::sync::{Arc, OnceLock};

/// Rows sampled when estimating the distinct count of a column that has no
/// slot vector to count exactly from.
const SAMPLE_ROWS: usize = 100_000;

/// Statistics of one column version; see the module docs.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    range: Option<(i64, i64)>,
    null_count: usize,
    /// Filled at build time where it is exact and free (a slot vector's
    /// presence table, a dictionary's length), by a prefix sample on first
    /// demand otherwise — only the optimizer asks, and only for BY columns.
    distinct: OnceLock<usize>,
    /// A `Float` column's whole-number bound ([`Self::integral`]), scanned
    /// for on first demand — only a fold of the column's sums asks.
    integral: OnceLock<Option<f64>>,
    /// The slot vector and the presence table of its slots (bit `s`: some
    /// row holds slot `s`), which keeps `distinct` exact under append.
    slots: Option<(Arc<PackedCodes>, Bitmap)>,
}

/// `bound` raised to the largest magnitude among the non-NULL values of rows
/// `rows` of a float column, when every one of them is a whole number below
/// 2^52; `None` when one is not — a fraction, NaN, an infinity, or a
/// magnitude so large that no sum of two such values is exact anyway. Below
/// 2^52, adding and subtracting 2^52 rounds a fraction away and leaves a
/// whole number as it was: two adds and a compare the compiler vectorizes,
/// where `fract` is a library call per value on baseline x86-64.
fn whole_bound(
    bound: f64,
    data: &[f64],
    validity: &Bitmap,
    rows: std::ops::Range<usize>,
) -> Option<f64> {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let fold = |(whole, bound): (bool, f64), x: f64| {
        let x = x.abs();
        let larger = if x > bound { x } else { bound };
        (whole & ((x + TWO_52) - TWO_52 == x), larger)
    };
    let (whole, bound) = match validity.all_set() {
        true => data[rows].iter().copied().fold((true, bound), fold),
        false => {
            (rows.filter(|&row| validity.get(row)).map(|row| data[row])).fold((true, bound), fold)
        }
    };
    (whole && bound < TWO_52).then_some(bound)
}

/// `|x|` when `x` is a whole number below 2^52 in magnitude — what
/// [`whole_bound`] asks of every value, for one.
fn whole(x: f64) -> Option<f64> {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let x = x.abs();
    ((x + TWO_52) - TWO_52 == x && x < TWO_52).then_some(x)
}

/// Distinct non-NULL values, from a presence table: slot 0 is NULL.
fn values_present(present: &Bitmap) -> usize {
    present.count_ones() - usize::from(present.get(0))
}

impl ColumnStats {
    /// Derive the record from `col`: for an integer column one word-wise
    /// min/max pass, then — when the range fits
    /// [`crate::packed::MAX_INT_PACK_WIDTH`] bits — one pack pass that also
    /// counts the distinct values.
    pub(crate) fn build(col: &Column) -> ColumnStats {
        let mut stats = ColumnStats {
            range: None,
            null_count: col.null_count(),
            distinct: OnceLock::new(),
            integral: OnceLock::new(),
            slots: None,
        };
        match col {
            Column::Int { data, validity } => {
                stats.range = int_range(data, validity);
                let packed = stats
                    .range
                    .and_then(|(min, max)| PackedCodes::from_ints(data, validity, min, max));
                if let Some((slots, present)) = packed {
                    stats.distinct = OnceLock::from(values_present(&present));
                    stats.slots = Some((Arc::new(slots), present));
                }
            }
            Column::Str { dict, .. } => stats.distinct = OnceLock::from(dict.len()),
            Column::Float { .. } => {}
        }
        stats
    }

    /// Carry the record over the rows `from..` just appended to `col`, in
    /// time proportional to those rows: what [`ColumnStats::build`] would
    /// derive from the longer column. The rule: a slot vector extends when
    /// the appended values keep `min` (slots are `value - min + 1`) and the
    /// slot domain still fits the lane it is stored in; otherwise `false`
    /// comes back, the record is no longer valid, and the caller resets the
    /// cell for the next reader to rebuild. The vector is copied first if a
    /// clone of the record (a pinned snapshot) still shares it.
    pub(crate) fn extend(&mut self, col: &Column, from: usize) -> bool {
        let appended = from..col.len();
        let nulls = appended.clone().filter(|&row| !col.is_valid(row)).count();
        self.null_count += nulls;
        match col {
            Column::Int { data, validity } => {
                let arrived = appended.clone().filter(|&row| validity.get(row));
                let (lo, hi) = arrived.fold((i64::MAX, i64::MIN), |(lo, hi), row| {
                    (lo.min(data[row]), hi.max(data[row]))
                });
                match (self.range, &mut self.slots) {
                    (Some((min, max)), Some((slots, present))) => {
                        let max = max.max(hi);
                        let width = int_width(min, max).filter(|&w| lo >= min && slots.holds(w));
                        let Some(width) = width else {
                            return false;
                        };
                        for _ in present.len()..(max - min) as usize + 2 {
                            present.push(false);
                        }
                        let slot = |row| {
                            let valid = validity.get(row);
                            let slot = if valid {
                                (data[row] - min) as u32 + 1
                            } else {
                                0
                            };
                            present.set(slot as usize, true);
                            slot
                        };
                        Arc::make_mut(slots).extend(width, appended.map(slot));
                        self.range = Some((min, max));
                        self.distinct = OnceLock::from(values_present(present));
                    }
                    // No slot vector to keep in step: the range folds.
                    (Some((min, max)), None) => {
                        self.range = Some((min.min(lo), max.max(hi)));
                        self.resample(from);
                    }
                    // The first value of an all-NULL column: it may pack now.
                    (None, _) if lo <= hi => return false,
                    (None, _) => {}
                }
            }
            Column::Str { dict, .. } => self.distinct = OnceLock::from(dict.len()),
            Column::Float { data, validity } => {
                self.resample(from);
                // A built bound folds the appended values; a fraction among
                // them clears it for good, an unbuilt one stays unbuilt.
                if let Some(bound) = self.integral.get_mut() {
                    *bound = bound.and_then(|whole| whole_bound(whole, data, validity, appended));
                }
            }
        }
        true
    }

    /// Carry a float column's record over the overwrite of row `row` of
    /// `col`, which held `before` (`None`: NULL), in time independent of
    /// the column: what [`ColumnStats::build`] would derive from it now.
    /// The NULL count moves by the cell; a sampled distinct count is
    /// forgotten when the row is in the sample; a built whole-number bound
    /// rises to a larger whole value and clears at a fraction. `false`
    /// comes back — reset the cell — in the one case a rebuild could find a
    /// tighter bound: the overwritten value was the bound's fraction, or
    /// had the bound's magnitude and the new value is smaller (or NULL).
    pub(crate) fn overwrite(&mut self, col: &Column, row: usize, before: Option<f64>) -> bool {
        let Column::Float { data, validity } = col else {
            return false;
        };
        let after = validity.get(row).then(|| data[row]);
        if let Some(bound) = self.integral.get_mut() {
            let tightens = match (*bound, before) {
                (None, Some(b)) => whole(b).is_none(),
                (Some(m), Some(b)) => b.abs() == m && after.is_none_or(|a| a.abs() < m),
                (_, None) => false,
            };
            if tightens {
                return false;
            }
            *bound = bound.and_then(|m| after.map_or(Some(m), |a| whole(a).map(|a| a.max(m))));
        }
        self.null_count =
            self.null_count + usize::from(after.is_none()) - usize::from(before.is_none());
        self.resample(row);
        true
    }

    /// Forget a sampled distinct count that rows appended at `from` can
    /// change: the sample is the column's first [`SAMPLE_ROWS`] rows.
    fn resample(&mut self, from: usize) {
        if from < SAMPLE_ROWS {
            self.distinct = OnceLock::new();
        }
    }

    /// Smallest and largest non-NULL value of an integer column; `None` for
    /// an all-NULL (or empty) one and for the other column types.
    pub fn range(&self) -> Option<(i64, i64)> {
        self.range
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// The NULL-folded slot vector of a narrow integer column: slot 0 for
    /// NULL rows, `value - min + 1` otherwise, `min` being
    /// [`Self::range`]'s. `None` when the range needs more than
    /// [`crate::packed::MAX_INT_PACK_WIDTH`] bits, and for the other column
    /// types (a string column keeps its vector in its own
    /// [`crate::PackedCell`]).
    pub fn slots(&self) -> Option<&Arc<PackedCodes>> {
        self.slots.as_ref().map(|(slots, _)| slots)
    }

    /// Distinct non-NULL values of `col`, the column this record was built
    /// from: exact where a slot vector or a dictionary says so (an unused
    /// dictionary entry counts), otherwise the count over a prefix sample —
    /// exact up to [`SAMPLE_ROWS`] rows, a lower bound past them, which is
    /// the safe direction for a "small domain" test.
    pub(crate) fn distinct(&self, col: &Column) -> usize {
        *self.distinct.get_or_init(|| {
            let seen: FxHashSet<i64> = (0..col.len().min(SAMPLE_ROWS))
                .filter_map(|row| col.key_fragment(row))
                .collect();
            seen.len()
        })
    }

    /// `Some(m)` when every non-NULL value of `col`, the column this record
    /// was built from, is a whole number of magnitude at most `m` — sums of
    /// such values are exact in `f64`, whatever the order, while they stay
    /// under 2^53. An integer column answers from its range; a float column
    /// is scanned once, on first demand, and the answer carried over
    /// appends; `None` for a float column holding a fraction, NaN or a
    /// magnitude from 2^52 up, and for strings.
    pub(crate) fn integral(&self, col: &Column) -> Option<f64> {
        match col {
            Column::Int { .. } => Some(self.range.map_or(0.0, |(min, max)| {
                min.unsigned_abs().max(max.unsigned_abs()) as f64
            })),
            Column::Float { data, validity } => *self
                .integral
                .get_or_init(|| whole_bound(0.0, data, validity, 0..data.len())),
            Column::Str { .. } => None,
        }
    }

    /// Approximate heap bytes held.
    pub(crate) fn heap_bytes(&self) -> usize {
        let slots = self.slots.as_ref();
        std::mem::size_of::<ColumnStats>()
            + slots.map_or(0, |(slots, present)| slots.heap_bytes() + present.len() / 8)
    }
}

/// Min and max over the valid rows, a validity word at a time: a full word
/// is 64 values compared with no per-row bit test.
fn int_range(data: &[i64], validity: &Bitmap) -> Option<(i64, i64)> {
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for (chunk, &word) in data.chunks(64).zip(validity.words()) {
        if word == u64::MAX {
            for &v in chunk {
                min = min.min(v);
                max = max.max(v);
            }
        } else {
            let mut rest = word;
            while rest != 0 {
                let v = chunk[rest.trailing_zeros() as usize];
                min = min.min(v);
                max = max.max(v);
                rest &= rest - 1;
            }
        }
    }
    (min <= max).then_some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn int_col(values: &[Option<i64>]) -> Column {
        let mut col = Column::new(DataType::Int);
        for &v in values {
            col.push(v.map_or(Value::Null, Value::Int)).unwrap();
        }
        col
    }

    #[test]
    fn int_stats_cover_nulls_negatives_and_word_boundaries() {
        // 130 rows: two full validity words (one with a hole) and a tail.
        let values: Vec<Option<i64>> = (0..130)
            .map(|i| (i != 70).then_some((i % 9) - 4))
            .chain([None, Some(-40), Some(11)])
            .collect();
        let col = int_col(&values);
        let stats = ColumnStats::build(&col);
        assert_eq!(stats.range(), Some((-40, 11)));
        assert_eq!(stats.null_count(), 2);
        assert_eq!(stats.distinct(&col), 11, "-4..=4, -40 and 11");
        let slots = stats.slots().expect("a 52-value range packs");
        for (row, v) in values.iter().enumerate() {
            let want = v.map_or(0, |v| (v + 40 + 1) as u32);
            assert_eq!(slots.get(row), want, "row {row}");
        }
    }

    #[test]
    fn all_null_and_empty_int_columns_have_no_range() {
        for col in [int_col(&[None, None]), int_col(&[])] {
            let stats = ColumnStats::build(&col);
            assert_eq!(stats.range(), None);
            assert!(stats.slots().is_none());
            assert_eq!(stats.distinct(&col), 0);
        }
    }

    #[test]
    fn a_wide_range_keeps_its_range_and_samples_its_distinct_count() {
        let col = int_col(&[Some(i64::MIN), None, Some(i64::MAX), Some(7), Some(7)]);
        let stats = ColumnStats::build(&col);
        assert_eq!(stats.range(), Some((i64::MIN, i64::MAX)));
        assert!(stats.slots().is_none(), "no 16-bit slot domain");
        assert_eq!(stats.distinct(&col), 3, "NULL is not a value");
    }

    #[test]
    fn strings_answer_from_the_dictionary_and_floats_from_the_sample() {
        let mut s = Column::new(DataType::Str);
        let mut f = Column::new(DataType::Float);
        for (name, x) in [("a", 1.5), ("b", -0.0), ("a", 1.5)] {
            s.push(Value::str(name)).unwrap();
            f.push(Value::Float(x)).unwrap();
        }
        f.push(Value::Null).unwrap();
        assert_eq!(ColumnStats::build(&s).distinct(&s), 2);
        let stats = ColumnStats::build(&f);
        assert_eq!((stats.range(), stats.null_count()), (None, 1));
        assert_eq!(stats.distinct(&f), 2);
    }
}
