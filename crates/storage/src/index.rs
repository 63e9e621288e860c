//! Secondary hash indexes.
//!
//! The paper recommends "identical indexes on `D1..Dj`" on `Fk` and `Fj` to
//! accelerate the division join. A [`HashIndex`] maps the hash of a key-column
//! tuple to the row ids carrying it; probes verify candidates against the
//! indexed table, so hash collisions are handled, not assumed away.

use crate::error::{Result, StorageError};
use crate::hash::{FxHashMap, FxHasher};
use crate::table::Table;
use crate::value::Value;
use std::hash::Hasher;

/// Hash index over a fixed set of key columns of one table.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

fn hash_row_key(table: &Table, key_cols: &[usize], row: usize) -> u64 {
    let mut h = FxHasher::default();
    for &c in key_cols {
        table.column(c).get(row).key_hash(&mut h);
    }
    h.finish()
}

fn hash_probe_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.key_hash(&mut h);
    }
    h.finish()
}

impl HashIndex {
    /// Build an index over `key_cols` of `table`.
    pub fn build(table: &Table, key_cols: &[usize]) -> Result<HashIndex> {
        for &c in key_cols {
            if c >= table.num_columns() {
                return Err(StorageError::InvalidIndex(format!(
                    "key column {c} out of range for table with {} columns",
                    table.num_columns()
                )));
            }
        }
        if key_cols.is_empty() {
            return Err(StorageError::InvalidIndex("empty key column list".into()));
        }
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        buckets.reserve(table.num_rows());
        for row in 0..table.num_rows() {
            let h = hash_row_key(table, key_cols, row);
            buckets.entry(h).or_default().push(row as u32);
        }
        Ok(HashIndex {
            key_cols: key_cols.to_vec(),
            buckets,
        })
    }

    /// Build an index by column names.
    pub fn build_on(table: &Table, key_names: &[&str]) -> Result<HashIndex> {
        let cols = key_names
            .iter()
            .map(|n| table.schema().index_of(n))
            .collect::<Result<Vec<_>>>()?;
        HashIndex::build(table, &cols)
    }

    /// The indexed key columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids of `table` whose key equals `key`. `table` must be the table
    /// the index was built over; candidates are verified value-by-value.
    pub fn probe<'a>(
        &'a self,
        table: &'a Table,
        key: &'a [Value],
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(key.len(), self.key_cols.len(), "probe arity");
        let bucket = self
            .buckets
            .get(&hash_probe_key(key))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        bucket.iter().map(|&r| r as usize).filter(move |&r| {
            self.key_cols
                .iter()
                .zip(key)
                .all(|(&c, v)| table.column(c).get(r).key_eq(v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c, a) in [
            ("CA", "SF", 13.0),
            ("CA", "SF", 3.0),
            ("CA", "LA", 23.0),
            ("TX", "Houston", 5.0),
            ("TX", "Dallas", 53.0),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    #[test]
    fn probe_single_column() {
        let t = table();
        let idx = HashIndex::build_on(&t, &["state"]).unwrap();
        let ca: Vec<usize> = idx.probe(&t, &[Value::str("CA")]).collect();
        assert_eq!(ca, vec![0, 1, 2]);
        let tx: Vec<usize> = idx.probe(&t, &[Value::str("TX")]).collect();
        assert_eq!(tx, vec![3, 4]);
        let none: Vec<usize> = idx.probe(&t, &[Value::str("NY")]).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn probe_composite_key() {
        let t = table();
        let idx = HashIndex::build_on(&t, &["state", "city"]).unwrap();
        let rows: Vec<usize> = idx
            .probe(&t, &[Value::str("CA"), Value::str("SF")])
            .collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn null_keys_match_each_other() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        t.push_row(&[Value::Int(7), Value::Int(2)]).unwrap();
        t.push_row(&[Value::Null, Value::Int(3)]).unwrap();
        let idx = HashIndex::build_on(&t, &["k"]).unwrap();
        let rows: Vec<usize> = idx.probe(&t, &[Value::Null]).collect();
        assert_eq!(rows, vec![0, 2], "grouping semantics: NULL is one key");
    }

    #[test]
    fn build_rejects_bad_columns() {
        let t = table();
        assert!(HashIndex::build(&t, &[9]).is_err());
        assert!(HashIndex::build(&t, &[]).is_err());
        assert!(HashIndex::build_on(&t, &["nope"]).is_err());
    }
}
