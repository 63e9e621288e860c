//! Typed column vectors with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::dictionary::Dictionary;
use crate::error::{Result, StorageError};
use crate::index::NONE;
use crate::packed::{PackedCell, PackedCodes};
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A column of values, stored as a typed vector plus a validity bitmap.
///
/// NULL slots keep a placeholder in the data vector so that positions stay
/// aligned with row ids.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Values (0 placeholder where NULL).
        data: Vec<i64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Values (NaN placeholder where NULL).
        data: Vec<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Dictionary-encoded strings.
    Str {
        /// Shared string dictionary.
        dict: Dictionary,
        /// Per-row dictionary codes (0 placeholder where NULL).
        codes: Vec<u32>,
        /// Validity bitmap.
        validity: Bitmap,
        /// Lazily built NULL-folded slot vector for the vectorized kernels
        /// (DESIGN.md §12); extended by an append, reset by an overwrite,
        /// shared by clones.
        packed: PackedCell,
    },
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Column {
        Column::with_capacity(dtype, 0)
    }

    /// Create an empty column pre-sized for `capacity` rows.
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Column {
        match dtype {
            DataType::Int => Column::Int {
                data: Vec::with_capacity(capacity),
                validity: Bitmap::with_capacity(capacity),
            },
            DataType::Float => Column::Float {
                data: Vec::with_capacity(capacity),
                validity: Bitmap::with_capacity(capacity),
            },
            DataType::Str => Column::Str {
                dict: Dictionary::new(),
                codes: Vec::with_capacity(capacity),
                validity: Bitmap::with_capacity(capacity),
                packed: PackedCell::new(),
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows (including NULL slots).
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity().count_ones()
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Str { validity, .. } => validity,
        }
    }

    /// True when row `i` is non-NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().get(i)
    }

    /// Get the value at row `i` (NULL when invalid). Panics out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int { data, validity } => {
                if validity.get(i) {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Float { data, validity } => {
                if validity.get(i) {
                    Value::Float(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Str {
                dict,
                codes,
                validity,
                ..
            } => {
                if validity.get(i) {
                    Value::Str(Arc::clone(dict.resolve(codes[i])))
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Fast path: raw f64 at row `i` (ints widened), `None` when NULL or
    /// non-numeric. Used by aggregation inner loops to skip `Value` boxing.
    #[inline]
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int { data, validity } => validity.get(i).then(|| data[i] as f64),
            Column::Float { data, validity } => validity.get(i).then(|| data[i]),
            Column::Str { .. } => None,
        }
    }

    /// Fast path: row `i` as a group key fragment, `None` when NULL. Two
    /// rows of one column share a fragment exactly when grouping puts them
    /// in one group: an int is its value, a float its bits with `-0.0`
    /// folded into `0.0` and every NaN into one, a string its dictionary
    /// code (a valid key fragment *within one column*).
    #[inline]
    pub fn key_fragment(&self, i: usize) -> Option<i64> {
        match self {
            Column::Int { data, validity } => validity.get(i).then(|| data[i]),
            Column::Float { data, validity } => validity.get(i).then(|| {
                let x = data[i];
                if x.is_nan() {
                    f64::NAN.to_bits() as i64
                } else if x == 0.0 {
                    0
                } else {
                    x.to_bits() as i64
                }
            }),
            Column::Str {
                codes, validity, ..
            } => validity.get(i).then(|| codes[i] as i64),
        }
    }

    /// Raw `i64` data slice (NULL rows hold a 0 placeholder), or `None` for
    /// non-integer columns. Kernels pair it with [`Column::validity`].
    #[inline]
    pub fn int_data(&self) -> Option<&[i64]> {
        match self {
            Column::Int { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw `f64` data slice (NULL rows hold a NaN placeholder), or `None`
    /// for non-float columns. Kernels pair it with [`Column::validity`].
    #[inline]
    pub fn float_data(&self) -> Option<&[f64]> {
        match self {
            Column::Float { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Raw dictionary-code slice (NULL rows hold a 0 placeholder), or
    /// `None` for non-string columns.
    #[inline]
    pub fn str_codes(&self) -> Option<&[u32]> {
        match self {
            Column::Str { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// NULL-folded slot vector for a string column: slot 0 for NULL rows,
    /// `code + 1` otherwise, in the narrowest lane the dictionary's
    /// cardinality fits ([`crate::packed::width_for`]). Built lazily on
    /// first use and cached per column version — an append extends the
    /// cached vector, an overwrite resets it, clones (CoW snapshots) share
    /// it. `None` for
    /// non-string columns or unpackable (> 32-bit slot) dictionaries.
    pub fn packed_slots(&self) -> Option<&std::sync::Arc<PackedCodes>> {
        match self {
            Column::Str {
                dict,
                codes,
                validity,
                packed,
            } => packed.get_or_build(codes, validity, dict.len()),
            _ => None,
        }
    }

    /// Append a value, enforcing the column type. NULL is accepted anywhere.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int { data, validity }, Value::Int(v)) => {
                data.push(v);
                validity.push(true);
            }
            (Column::Int { data, validity }, Value::Null) => {
                data.push(0);
                validity.push(false);
            }
            (Column::Float { data, validity }, Value::Float(v)) => {
                data.push(v);
                validity.push(true);
            }
            // Ints widen into float columns (measure expressions mix both).
            (Column::Float { data, validity }, Value::Int(v)) => {
                data.push(v as f64);
                validity.push(true);
            }
            (Column::Float { data, validity }, Value::Null) => {
                data.push(f64::NAN);
                validity.push(false);
            }
            (
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed,
                },
                Value::Str(s),
            ) => {
                codes.push(dict.intern_arc(&s));
                validity.push(true);
                packed.extend(codes, validity, codes.len() - 1, dict.len());
            }
            (
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed,
                },
                Value::Null,
            ) => {
                codes.push(0);
                validity.push(false);
                packed.extend(codes, validity, codes.len() - 1, dict.len());
            }
            (col, value) => {
                return Err(StorageError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    found: value
                        .data_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "Null".into()),
                });
            }
        }
        Ok(())
    }

    /// Append `n` NULL rows at once (the placeholders [`Column::push`] of a
    /// NULL writes), e.g. a dimension a grouping set rolled away.
    pub fn push_nulls(&mut self, n: usize) {
        match self {
            Column::Int { data, validity } => {
                data.resize(data.len() + n, 0);
                validity.push_unset(n);
            }
            Column::Float { data, validity } => {
                data.resize(data.len() + n, f64::NAN);
                validity.push_unset(n);
            }
            Column::Str {
                dict,
                codes,
                validity,
                packed,
            } => {
                let from = codes.len();
                codes.resize(from + n, 0);
                validity.push_unset(n);
                packed.extend(codes, validity, from, dict.len());
            }
        }
    }

    /// Overwrite the value at row `i` (UPDATE path).
    pub fn set(&mut self, i: usize, value: Value) -> Result<()> {
        let len = self.len();
        if i >= len {
            return Err(StorageError::RowOutOfBounds { index: i, len });
        }
        match (self, value) {
            (Column::Int { data, validity }, Value::Int(v)) => {
                data[i] = v;
                validity.set(i, true);
            }
            (Column::Int { data, validity }, Value::Null) => {
                data[i] = 0;
                validity.set(i, false);
            }
            (Column::Float { data, validity }, Value::Float(v)) => {
                data[i] = v;
                validity.set(i, true);
            }
            (Column::Float { data, validity }, Value::Int(v)) => {
                data[i] = v as f64;
                validity.set(i, true);
            }
            (Column::Float { data, validity }, Value::Null) => {
                data[i] = f64::NAN;
                validity.set(i, false);
            }
            (
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed,
                },
                Value::Str(s),
            ) => {
                codes[i] = dict.intern_arc(&s);
                validity.set(i, true);
                packed.invalidate();
            }
            (
                Column::Str {
                    codes,
                    validity,
                    packed,
                    ..
                },
                Value::Null,
            ) => {
                codes[i] = 0;
                validity.set(i, false);
                packed.invalidate();
            }
            (col, value) => {
                return Err(StorageError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    found: value
                        .data_type()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "Null".into()),
                });
            }
        }
        Ok(())
    }

    /// Bulk-append every row of `other`. Types must match exactly.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (
                Column::Int { data, validity },
                Column::Int {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend_from(ov);
            }
            (
                Column::Float { data, validity },
                Column::Float {
                    data: od,
                    validity: ov,
                },
            ) => {
                data.extend_from_slice(od);
                validity.extend_from(ov);
            }
            (
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed,
                },
                Column::Str {
                    dict: odict,
                    codes: ocodes,
                    validity: ov,
                    ..
                },
            ) => {
                let from = codes.len();
                // Two dictionaries one of which starts with the other (one
                // level's and another's of the same source, or none yet
                // here) give a string one code in both: the codes copy as
                // they are, and this dictionary takes what it lacks.
                let (ours, theirs) = (dict.values(), odict.values());
                let shared = ours.len().min(theirs.len());
                let same = |(a, b): (&Arc<str>, &Arc<str>)| Arc::ptr_eq(a, b) || a == b;
                if ours[..shared].iter().zip(&theirs[..shared]).all(same) {
                    if dict.is_empty() {
                        *dict = odict.clone();
                    } else {
                        for s in &theirs[shared..] {
                            dict.intern_arc(s);
                        }
                    }
                    codes.extend_from_slice(ocodes);
                } else {
                    // Remap the other column's codes into this dictionary.
                    // NULL rows hold a 0 placeholder that an all-NULL
                    // column's empty dictionary has no entry for.
                    let remap: Vec<u32> = theirs.iter().map(|s| dict.intern_arc(s)).collect();
                    let remapped = (ocodes.iter()).map(|&c| remap.get(c as usize).copied());
                    codes.extend(remapped.map(|c| c.unwrap_or(0)));
                }
                validity.extend_from(ov);
                packed.extend(codes, validity, from, dict.len());
            }
            (me, other) => {
                return Err(StorageError::TypeMismatch {
                    expected: me.data_type().to_string(),
                    found: other.data_type().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Build a new column containing `self[i]` for each `i` in `rows`
    /// (gather / semi-materialized projection).
    pub fn take(&self, rows: &[usize]) -> Column {
        // A column without NULLs gathers none: no bit is read or pushed.
        let valid = |validity: &Bitmap| match validity.all_set() {
            true => Bitmap::filled(rows.len(), true),
            false => rows.iter().map(|&i| validity.get(i)).collect(),
        };
        match self {
            Column::Int { data, validity } => Column::Int {
                data: rows.iter().map(|&i| data[i]).collect(),
                validity: valid(validity),
            },
            Column::Float { data, validity } => Column::Float {
                data: rows.iter().map(|&i| data[i]).collect(),
                validity: valid(validity),
            },
            Column::Str {
                dict,
                codes,
                validity,
                ..
            } => Column::Str {
                dict: dict.clone(),
                codes: rows.iter().map(|&i| codes[i]).collect(),
                validity: valid(validity),
                packed: PackedCell::new(),
            },
        }
    }

    /// `self[i]` for each `i` in `rows`, NULL where `i` is [`NONE`]: a
    /// column of a join's right side, gathered through the row each left
    /// row found ([`crate::HashIndex::lookup`]).
    pub fn gather(&self, rows: &[u32]) -> Column {
        fn pick<T: Copy>(data: &[T], rows: &[u32], null: T) -> Vec<T> {
            let at = |&i: &u32| if i == NONE { null } else { data[i as usize] };
            rows.iter().map(at).collect()
        }
        let valid = |validity: &Bitmap| -> Bitmap {
            (rows.iter())
                .map(|&i| i != NONE && validity.get(i as usize))
                .collect()
        };
        match self {
            Column::Int { data, validity } => Column::Int {
                data: pick(data, rows, 0),
                validity: valid(validity),
            },
            Column::Float { data, validity } => Column::Float {
                data: pick(data, rows, f64::NAN),
                validity: valid(validity),
            },
            Column::Str {
                dict,
                codes,
                validity,
                ..
            } => Column::Str {
                dict: dict.clone(),
                codes: pick(codes, rows, 0),
                validity: valid(validity),
                packed: PackedCell::new(),
            },
        }
    }

    /// This column with every NULL row read as zero, as a column of `dtype`:
    /// a count, or a cell with `DEFAULT 0`. A `Float` read as `Int`
    /// truncates, as SQL's `CAST` does (a count re-aggregated through a
    /// float sum). Any other change of type is a
    /// [`StorageError::TypeMismatch`].
    pub fn zero_nulls(self, dtype: DataType) -> Result<Column> {
        fn zeroed<T: Default>(mut data: Vec<T>, validity: &Bitmap) -> Vec<T> {
            for (x, valid) in data.iter_mut().zip(validity.iter()) {
                if !valid {
                    *x = T::default();
                }
            }
            data
        }
        let all = Bitmap::filled(self.len(), true);
        Ok(match (self, dtype) {
            (Column::Int { data, validity }, DataType::Int) => Column::Int {
                data: zeroed(data, &validity),
                validity: all,
            },
            (Column::Float { data, validity }, DataType::Float) => Column::Float {
                data: zeroed(data, &validity),
                validity: all,
            },
            (Column::Float { data, validity }, DataType::Int) => Column::Int {
                data: (zeroed(data, &validity).into_iter())
                    .map(|x| x as i64)
                    .collect(),
                validity: all,
            },
            (column, dtype) => {
                return Err(StorageError::TypeMismatch {
                    expected: dtype.to_string(),
                    found: column.data_type().to_string(),
                })
            }
        })
    }

    /// Verify internal invariants: data, codes, and validity vectors all
    /// hold exactly `expected_len` entries, and every valid string slot's
    /// dictionary code resolves. Used by recovery tests to prove a replayed
    /// table is structurally sound.
    pub fn check_integrity(&self, expected_len: usize) -> Result<()> {
        let (len, validity) = match self {
            Column::Int { data, validity } => (data.len(), validity),
            Column::Float { data, validity } => (data.len(), validity),
            Column::Str {
                codes, validity, ..
            } => (codes.len(), validity),
        };
        if len != expected_len {
            return Err(StorageError::LengthMismatch {
                expected: expected_len,
                found: len,
            });
        }
        if validity.len() != expected_len {
            return Err(StorageError::LengthMismatch {
                expected: expected_len,
                found: validity.len(),
            });
        }
        if let Column::Str {
            dict,
            codes,
            validity,
            ..
        } = self
        {
            for (i, &code) in codes.iter().enumerate() {
                if validity.get(i) && code as usize >= dict.len() {
                    return Err(StorageError::InvalidIndex(format!(
                        "row {i}: dictionary code {code} out of range ({} entries)",
                        dict.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Approximate heap bytes held by this column (intermediate-table
    /// sizing), a built slot vector included.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len() * 8 + data.len() / 8,
            Column::Float { data, .. } => data.len() * 8 + data.len() / 8,
            Column::Str {
                codes,
                dict,
                packed,
                ..
            } => {
                codes.len() * 4
                    + codes.len() / 8
                    + dict.values().iter().map(|s| s.len() + 16).sum::<usize>()
                    + packed.heap_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip_int() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-7)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-7));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_get_round_trip_str() {
        let mut c = Column::new(DataType::Str);
        c.push(Value::str("CA")).unwrap();
        c.push(Value::str("TX")).unwrap();
        c.push(Value::str("CA")).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.get(0), Value::str("CA"));
        assert_eq!(c.get(2), Value::str("CA"));
        assert_eq!(c.get(3), Value::Null);
        if let Column::Str { dict, .. } = &c {
            assert_eq!(dict.len(), 2, "dictionary deduplicates");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Int(4)).unwrap();
        assert_eq!(c.get(0), Value::Float(4.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int);
        let err = c.push(Value::str("oops")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn set_in_place() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Float(1.0)).unwrap();
        c.push(Value::Float(2.0)).unwrap();
        c.set(1, Value::Float(0.5)).unwrap();
        assert_eq!(c.get(1), Value::Float(0.5));
        c.set(0, Value::Null).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.null_count(), 1);
        assert!(matches!(
            c.set(5, Value::Float(0.0)),
            Err(StorageError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn extend_from_remaps_dictionaries() {
        let mut a = Column::new(DataType::Str);
        a.push(Value::str("x")).unwrap();
        let mut b = Column::new(DataType::Str);
        b.push(Value::str("y")).unwrap();
        b.push(Value::str("x")).unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), Value::str("x"));
        assert_eq!(a.get(1), Value::str("y"));
        assert_eq!(a.get(2), Value::str("x"));
        // An all-NULL column never interned a string.
        let mut nulls = Column::new(DataType::Str);
        nulls.push(Value::Null).unwrap();
        a.extend_from(&nulls).unwrap();
        assert_eq!(a.get(3), Value::Null);
    }

    #[test]
    fn extend_from_copies_codes_when_one_dictionary_starts_the_other() {
        let strs = |col: &Column| (0..col.len()).map(|r| col.get(r)).collect::<Vec<_>>();
        let mut short = Column::new(DataType::Str);
        for s in ["x", "y", "x"] {
            short.push(Value::str(s)).unwrap();
        }
        short.push(Value::Null).unwrap();
        // A later version of the same column: its dictionary extends this one.
        let mut long = short.clone();
        long.push(Value::str("z")).unwrap();
        long.push(Value::str("y")).unwrap();
        let mut out = Column::new(DataType::Str);
        for part in [&short, &long, &short] {
            out.extend_from(part).unwrap();
        }
        out.check_integrity(short.len() * 2 + long.len()).unwrap();
        let want: Vec<Value> = [strs(&short), strs(&long), strs(&short)].concat();
        assert_eq!(strs(&out), want);
        let Column::Str { dict, codes, .. } = &out else {
            unreachable!()
        };
        assert_eq!(dict.len(), 3, "z appended once");
        assert_eq!(
            &codes[..short.len()],
            short.str_codes().unwrap(),
            "codes copied"
        );
    }

    #[test]
    fn take_gathers_rows() {
        let mut c = Column::new(DataType::Int);
        for i in 0..10 {
            c.push(Value::Int(i)).unwrap();
        }
        let t = c.take(&[9, 0, 5]);
        assert_eq!(t.get(0), Value::Int(9));
        assert_eq!(t.get(1), Value::Int(0));
        assert_eq!(t.get(2), Value::Int(5));
    }

    #[test]
    fn gather_reads_null_at_none() {
        let mut c = Column::new(DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i)).unwrap();
        }
        c.push(Value::Null).unwrap();
        let t = c.gather(&[4, NONE, 0, 5]);
        assert_eq!(t.get(0), Value::Int(4));
        assert_eq!(t.get(1), Value::Null);
        assert_eq!(t.get(2), Value::Int(0));
        assert_eq!(t.get(3), Value::Null);

        let mut s = Column::new(DataType::Str);
        s.push(Value::str("a")).unwrap();
        let ts = s.gather(&[NONE, 0]);
        assert_eq!(ts.get(0), Value::Null);
        assert_eq!(ts.get(1), Value::str("a"));
        let f = Column::new(DataType::Float).gather(&[NONE]);
        assert_eq!(f.float_data().map(|d| d[0].is_nan()), Some(true));
    }

    #[test]
    fn push_nulls_is_that_many_null_pushes() {
        let first = [Value::Int(7), Value::Float(0.5), Value::str("a")];
        for (dtype, first) in [DataType::Int, DataType::Float, DataType::Str]
            .into_iter()
            .zip(first)
        {
            let (mut bulk, mut one_by_one) = (Column::new(dtype), Column::new(dtype));
            for col in [&mut bulk, &mut one_by_one] {
                col.push(first.clone()).unwrap();
                // Built before the append, so the append has to extend it.
                col.packed_slots();
            }
            bulk.push_nulls(130);
            for _ in 0..130 {
                one_by_one.push(Value::Null).unwrap();
            }
            bulk.push(first.clone()).unwrap();
            one_by_one.push(first.clone()).unwrap();
            bulk.check_integrity(132).unwrap();
            assert_eq!(bulk.null_count(), 130);
            for r in 0..132 {
                assert_eq!(bulk.get(r), one_by_one.get(r), "{dtype:?} row {r}");
            }
            assert_eq!(bulk.validity(), one_by_one.validity());
            assert_eq!(bulk.packed_slots(), one_by_one.packed_slots());
            if let (Some(a), Some(b)) = (bulk.float_data(), one_by_one.float_data()) {
                assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn get_f64_and_key_fragment() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(3)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.get_f64(0), Some(3.0));
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.key_fragment(0), Some(3));
        assert_eq!(c.key_fragment(1), None);

        let mut s = Column::new(DataType::Str);
        s.push(Value::str("a")).unwrap();
        s.push(Value::str("b")).unwrap();
        s.push(Value::str("a")).unwrap();
        assert_eq!(s.key_fragment(0), s.key_fragment(2));
        assert_ne!(s.key_fragment(0), s.key_fragment(1));

        // Grouping equality: signed zeros are one key, every NaN is one.
        let mut f = Column::new(DataType::Float);
        for x in [0.0, -0.0, f64::NAN, -f64::NAN, 1.5] {
            f.push(Value::Float(x)).unwrap();
        }
        assert_eq!(f.key_fragment(0), f.key_fragment(1));
        assert_eq!(f.key_fragment(2), f.key_fragment(3));
        assert_ne!(f.key_fragment(0), f.key_fragment(4));
        assert_ne!(f.key_fragment(2), f.key_fragment(4));
    }
}
