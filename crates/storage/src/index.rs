//! Unique-key hash indexes: the one equi-join.
//!
//! The paper recommends "identical indexes on `D1..Dj`" on `Fk` and `Fj` to
//! accelerate the division join. Every table this codebase joins onto is a
//! `GROUP BY` output, so its key is unique and a join needs no more than a
//! map from each key to its one row. A [`HashIndex`] holds that map, and
//! [`HashIndex::lookup`] answers a whole probe table with one row id per
//! probe row: the `parent` vector a percentage divides through (DESIGN.md
//! §17), [`NONE`] where an outer probe row has no match.
//!
//! Keys compare as grouping does, by [`Column::key_fragment`]: NULL matches
//! NULL, `-0.0` equals `0.0`, every NaN is one key, a string is its text.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::table::Table;
use crate::value::DataType;
use std::sync::Arc;

/// The row [`HashIndex::lookup`] gives a probe row with no match, and the
/// row [`Column::gather`] reads as NULL.
pub const NONE: u32 = u32::MAX;

/// The fragment of a probe string the index's dictionary does not hold: no
/// dictionary code equals it.
const ABSENT: i64 = -1;

/// Hash index over the unique key columns of one table.
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// Each key column's type, and a string column's dictionary entries:
    /// what a probe table's codes are translated into.
    dtypes: Vec<DataType>,
    strings: Vec<Vec<Arc<str>>>,
    rows: usize,
    /// Row `r`'s key fragments are `keys[r * arity..][..arity]`.
    keys: Vec<Option<i64>>,
    /// Open-addressed row ids ([`NONE`] is an empty slot), probed linearly
    /// from the top bits of the key's hash.
    slots: Vec<u32>,
    shift: u32,
}

/// Rows `0..rows` of `columns` as key tuples, one fragment a column, read
/// column by column: an integer column without NULLs is its values, any
/// other its [`Column::key_fragment`]s, a string column's codes mapped
/// through `codes` when it has some (a probe's, into the index's
/// dictionary).
fn fragments(columns: &[&Column], codes: &[Option<Vec<i64>>], rows: usize) -> Vec<Option<i64>> {
    let arity = columns.len();
    let mut keys = vec![None; rows * arity];
    for (c, column) in columns.iter().enumerate() {
        let out = keys.iter_mut().skip(c).step_by(arity);
        match (column, codes.get(c).and_then(Option::as_deref)) {
            (Column::Int { data, validity }, _) if validity.all_set() => {
                out.zip(data).for_each(|(k, &v)| *k = Some(v))
            }
            (_, Some(codes)) => out
                .enumerate()
                .for_each(|(row, k)| *k = column.key_fragment(row).map(|f| codes[f as usize])),
            (_, None) => out
                .enumerate()
                .for_each(|(row, k)| *k = column.key_fragment(row)),
        }
    }
    keys
}

fn hash(key: &[Option<i64>]) -> u64 {
    // NULL hashes as one arbitrary word: the comparison tells them apart.
    let word = |k: &Option<i64>| k.map_or(0x9e37_79b9_7f4a_7c15, |v| v as u64);
    let mix = |h: u64, k| (h.rotate_left(5) ^ word(k)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    key.iter().fold(0, mix)
}

impl HashIndex {
    /// Index the rows of `table` by their `key_cols` tuple (no columns: the
    /// one empty key). A key carried by two rows is a
    /// [`StorageError::DuplicateKey`].
    pub fn build(table: &Table, key_cols: &[usize]) -> Result<HashIndex> {
        if let Some(c) = key_cols.iter().find(|&&c| c >= table.num_columns()) {
            return Err(StorageError::InvalidIndex(format!(
                "key column {c} out of range for table with {} columns",
                table.num_columns()
            )));
        }
        let rows = table.num_rows();
        if rows >= NONE as usize {
            return Err(StorageError::InvalidIndex(format!(
                "{rows} rows exceed a u32 row id"
            )));
        }
        let columns: Vec<&Column> = key_cols.iter().map(|&c| table.column(c)).collect();
        let keys = fragments(&columns, &[], rows);
        let strings = |c: &&Column| match c {
            Column::Str { dict, .. } => dict.values().to_vec(),
            _ => Vec::new(),
        };
        let capacity = (2 * rows).next_power_of_two().max(2);
        let mut index = HashIndex {
            dtypes: columns.iter().map(|c| c.data_type()).collect(),
            strings: columns.iter().map(strings).collect(),
            rows,
            keys,
            slots: vec![NONE; capacity],
            shift: 64 - capacity.trailing_zeros(),
        };
        for row in 0..rows {
            match index.find(index.key(row)) {
                Ok(_) => return Err(StorageError::DuplicateKey { row }),
                Err(slot) => index.slots[slot] = row as u32,
            }
        }
        Ok(index)
    }

    /// Rows of the indexed table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// For each row of `left`, the indexed row whose key equals its
    /// `left_keys` tuple (one column per key column, of the same type), or
    /// [`NONE`] when there is none and the lookup is `outer`. An inner
    /// lookup with a probe row no indexed row matches is a
    /// [`StorageError::MissingKey`].
    pub fn lookup(&self, left: &Table, left_keys: &[usize], outer: bool) -> Result<Vec<u32>> {
        if left_keys.len() != self.dtypes.len() {
            return Err(StorageError::InvalidIndex(format!(
                "{} probe key columns for an index over {}",
                left_keys.len(),
                self.dtypes.len()
            )));
        }
        let mut columns: Vec<&Column> = Vec::with_capacity(left_keys.len());
        for (&c, &dtype) in left_keys.iter().zip(&self.dtypes) {
            let column = left.columns().get(c).ok_or_else(|| {
                StorageError::InvalidIndex(format!("probe key column {c} out of range"))
            })?;
            if column.data_type() != dtype {
                return Err(StorageError::InvalidIndex(format!(
                    "probe key column {c} is {}, the indexed one {dtype}",
                    column.data_type()
                )));
            }
            columns.push(column);
        }
        // A probe string column's codes, translated into the index's once
        // per dictionary entry.
        let translate = |(column, ours): (&&Column, &Vec<Arc<str>>)| match column {
            Column::Str { dict, .. } => {
                let mut codes = vec![ABSENT; dict.len()];
                for (code, s) in ours.iter().enumerate() {
                    if let Some(theirs) = dict.code_of(s) {
                        codes[theirs as usize] = code as i64;
                    }
                }
                Some(codes)
            }
            _ => None,
        };
        let translated: Vec<Option<Vec<i64>>> =
            columns.iter().zip(&self.strings).map(translate).collect();
        let arity = columns.len();
        let keys = fragments(&columns, &translated, left.num_rows());
        let mut found = Vec::with_capacity(left.num_rows());
        for row in 0..left.num_rows() {
            found.push(match self.find(&keys[row * arity..][..arity]) {
                Ok(at) => at as u32,
                Err(_) if outer => NONE,
                Err(_) => return Err(StorageError::MissingKey { row }),
            });
        }
        Ok(found)
    }

    fn key(&self, row: usize) -> &[Option<i64>] {
        let arity = self.dtypes.len();
        &self.keys[row * arity..][..arity]
    }

    /// The row carrying `key`, or the empty slot where it would go.
    #[inline]
    fn find(&self, key: &[Option<i64>]) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash(key) >> self.shift) as usize;
        let arity = key.len();
        loop {
            match self.slots[slot] {
                NONE => return Err(slot),
                row if self.keys[row as usize * arity..][..arity] == *key => {
                    return Ok(row as usize)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn table(rows: &[(&str, &str, f64)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for &(s, c, a) in rows {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn cities() -> Table {
        table(&[
            ("CA", "SF", 13.0),
            ("CA", "LA", 23.0),
            ("TX", "Houston", 5.0),
            ("TX", "Dallas", 53.0),
        ])
    }

    #[test]
    fn composite_keys_find_their_row_across_dictionaries() {
        let idx = HashIndex::build(&cities(), &[0, 1]).unwrap();
        assert_eq!(idx.rows(), 4);
        // Interned in another order, with a city the index does not hold.
        let probe = table(&[
            ("TX", "Dallas", 0.0),
            ("NV", "Reno", 0.0),
            ("CA", "SF", 0.0),
            ("TX", "SF", 0.0),
        ]);
        assert_eq!(
            idx.lookup(&probe, &[0, 1], true).unwrap(),
            [3, NONE, 0, NONE]
        );
        assert_eq!(
            idx.lookup(&probe, &[0, 1], false).unwrap_err(),
            StorageError::MissingKey { row: 1 }
        );
    }

    #[test]
    fn keys_compare_as_grouping_does() {
        let schema = Schema::from_pairs(&[("k", DataType::Float)])
            .unwrap()
            .into_shared();
        let column = |values: &[Value]| {
            let mut t = Table::empty(schema.clone());
            for v in values {
                t.push_row(std::slice::from_ref(v)).unwrap();
            }
            t
        };
        let nan = |sign: f64| Value::Float(f64::NAN.copysign(sign));
        let built = column(&[Value::Null, Value::Float(0.0), nan(1.0), Value::Float(2.5)]);
        let idx = HashIndex::build(&built, &[0]).unwrap();
        let probe = column(&[
            Value::Float(-0.0),
            nan(-1.0),
            Value::Null,
            Value::Float(7.0),
        ]);
        assert_eq!(idx.lookup(&probe, &[0], true).unwrap(), [1, 2, 0, NONE]);
    }

    /// Integer keys read as plain values when a column holds no NULL and
    /// through their validity otherwise; either way every probe row finds
    /// the row a scan for an equal key finds: NULL matches NULL, a value
    /// the index lacks matches nothing.
    #[test]
    fn integer_keys_with_and_without_nulls_answer_as_a_scan() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let schema = schema.unwrap().into_shared();
        let table = |rows: &[(Option<i64>, Option<i64>)]| {
            let mut t = Table::empty(schema.clone());
            for &(a, b) in rows {
                t.push_row(&[Value::from(a), Value::from(b)]).unwrap();
            }
            t
        };
        let full: Vec<_> = (0..6)
            .flat_map(|a| (0..4).map(move |b| (Some(a), Some(b))))
            .collect();
        let mut nulls = full.clone();
        nulls.extend([(None, Some(0)), (Some(2), None), (None, None)]);
        let mut probe = full.clone();
        probe.extend([
            (None, Some(0)),
            (Some(2), None),
            (None, None),
            (Some(9), Some(0)),
        ]);
        let probe = table(&probe);
        let key = |t: &Table, r: usize| [t.column(0), t.column(1)].map(|c| c.key_fragment(r));
        for rows in [&full, &nulls] {
            let built = table(rows);
            let found = HashIndex::build(&built, &[0, 1]).unwrap();
            let found = found.lookup(&probe, &[0, 1], true).unwrap();
            for (r, &got) in found.iter().enumerate() {
                let want = (0..built.num_rows()).find(|&b| key(&built, b) == key(&probe, r));
                assert_eq!(got, want.map_or(NONE, |b| b as u32), "probe row {r}");
            }
        }
    }

    #[test]
    fn a_repeated_key_is_a_typed_error() {
        let t = cities();
        assert_eq!(
            HashIndex::build(&t, &[0]).unwrap_err(),
            StorageError::DuplicateKey { row: 1 }
        );
        // The empty key is one key: one row has it, two repeat it.
        let one = HashIndex::build(&t.take(&[2]), &[]).unwrap();
        assert_eq!(one.lookup(&t, &[], false).unwrap(), [0; 4]);
        assert!(HashIndex::build(&t, &[]).is_err());
    }

    #[test]
    fn bad_columns_are_rejected() {
        let t = cities();
        assert!(HashIndex::build(&t, &[9]).is_err());
        let idx = HashIndex::build(&t, &[1]).unwrap();
        assert!(idx.lookup(&t, &[0, 1], true).is_err(), "arity");
        assert!(idx.lookup(&t, &[9], true).is_err(), "range");
        assert!(
            idx.lookup(&t, &[2], true).is_err(),
            "a Float probe of a Str key"
        );
    }
}
