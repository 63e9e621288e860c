//! In-memory columnar tables.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::packed::PackedCodes;
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One column's lazily built [`ColumnStats`]. Cloning a cell shares what is
/// built and leaves an unbuilt one unbuilt.
type StatsCell = OnceLock<Arc<ColumnStats>>;

/// A columnar table: a shared schema plus one [`Column`] per field.
///
/// The column vector is held behind an [`Arc`] with copy-on-write
/// semantics: `Table::clone` is a cheap refcount bump (the snapshot path —
/// [`crate::Catalog`] epochs clone tables per pinned read), and the first
/// mutation after a clone detaches a private copy via [`Arc::make_mut`].
/// While a table is unshared (the common case) the extra cost per mutation
/// is one refcount check.
///
/// Beside the columns, under the same sharing rule, sits one lazily built
/// [`ColumnStats`] cell per column ([`Table::column_stats`]): a clone reads
/// and fills the cells of the version it shares, an append carries every
/// built cell forward over the rows it adds, and an overwrite resets the
/// cells of exactly the columns it writes — each on the writer's side of
/// the copy, so a pinned snapshot keeps the statistics of *its* version.
///
/// ```
/// use pa_storage::{DataType, Schema, Table, Value};
///
/// let schema = Schema::from_pairs(&[("city", DataType::Str), ("amt", DataType::Float)])
///     .unwrap()
///     .into_shared();
/// let mut t = Table::empty(schema);
/// t.push_row(&[Value::str("Houston"), Value::Float(5.0)]).unwrap();
/// t.push_row(&[Value::str("Dallas"), Value::Null]).unwrap();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.get(1, 1), Value::Null);
/// assert_eq!(t.sorted_by(&[0]).get(0, 0), Value::str("Dallas"));
///
/// let snapshot = t.clone(); // shares columns, no copy
/// t.push_row(&[Value::str("Austin"), Value::Float(1.0)]).unwrap(); // detaches
/// assert_eq!(snapshot.num_rows(), 2, "snapshot unaffected");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Arc<Vec<Column>>,
    stats: Arc<Vec<StatsCell>>,
}

/// The writer's own columns, copied away from any snapshot sharing them.
/// Every copy is a table-sized buffer that dies with the snapshot, so the
/// first one settles how the process frees such buffers ([`crate::memory`]).
fn detach(columns: &mut Arc<Vec<Column>>) -> &mut Vec<Column> {
    if Arc::get_mut(columns).is_none() {
        crate::memory::settle_large_buffers();
    }
    Arc::make_mut(columns)
}

impl Table {
    /// Empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.dtype))
            .collect();
        Table::assemble(schema, columns)
    }

    /// Empty table pre-sized for `capacity` rows.
    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, capacity))
            .collect();
        Table::assemble(schema, columns)
    }

    /// A table over columns already known to fit `schema`, no statistics
    /// built.
    fn assemble(schema: Arc<Schema>, columns: Vec<Column>) -> Table {
        Table {
            schema,
            stats: Arc::new(columns.iter().map(|_| StatsCell::new()).collect()),
            columns: Arc::new(columns),
        }
    }

    /// Append rows through `push`, copy-on-write: the columns are detached
    /// from any snapshot sharing them (no-op when unshared), `push` extends
    /// them, and every statistics cell already built is carried over the
    /// appended rows ([`ColumnStats::extend`]) — or reset, when its rule
    /// says the record cannot be, or when `push` failed. An unbuilt cell
    /// stays unbuilt.
    fn append(&mut self, push: impl FnOnce(&mut [Column]) -> Result<()>) -> Result<()> {
        let from = self.num_rows();
        let pushed = push(detach(&mut self.columns).as_mut_slice());
        let cells = Arc::make_mut(&mut self.stats);
        for (cell, col) in cells.iter_mut().zip(self.columns.iter()) {
            let carried = pushed.is_ok()
                && cell
                    .get_mut()
                    .is_some_and(|stats| Arc::make_mut(stats).extend(col, from));
            if !carried {
                cell.take();
            }
        }
        pushed
    }

    /// True when `self` and `other` share the same physical column storage
    /// (neither side has written since they were cloned apart).
    pub fn shares_columns(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }

    /// Build a table from pre-constructed columns. Column count and lengths
    /// must agree with the schema.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(StorageError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.dtype != col.data_type() {
                return Err(StorageError::TypeMismatch {
                    expected: field.dtype.to_string(),
                    found: col.data_type().to_string(),
                });
            }
        }
        if let Some(first) = columns.first() {
            let n = first.len();
            for col in &columns {
                if col.len() != n {
                    return Err(StorageError::LengthMismatch {
                        expected: n,
                        found: col.len(),
                    });
                }
            }
        }
        Ok(Table::assemble(schema, columns))
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Verify structural invariants: column count and types agree with the
    /// schema, every column (and its validity bitmap) has `num_rows`
    /// entries, and dictionary codes resolve. Recovery tests use this to
    /// prove a replayed table is sound.
    pub fn check_integrity(&self) -> Result<()> {
        if self.columns.len() != self.schema.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.schema.len(),
                found: self.columns.len(),
            });
        }
        let n = self.num_rows();
        for (field, col) in self.schema.fields().iter().zip(self.columns.iter()) {
            if field.dtype != col.data_type() {
                return Err(StorageError::TypeMismatch {
                    expected: field.dtype.to_string(),
                    found: col.data_type().to_string(),
                });
            }
            col.check_integrity(n)?;
        }
        Ok(())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Mutable column by position (UPDATE path). Detaches from any shared
    /// snapshot before handing out the reference (copy-on-write) and resets
    /// that column's statistics cell; the other columns keep theirs.
    pub fn column_mut(&mut self, i: usize) -> &mut Column {
        Arc::make_mut(&mut self.stats)[i].take();
        &mut detach(&mut self.columns)[i]
    }

    /// Statistics of column `i` as it stands — range, NULL count and, for a
    /// narrow integer column, its slot vector — derived on first use and
    /// then shared by every reader of this version, clones included.
    pub fn column_stats(&self, i: usize) -> &ColumnStats {
        self.stats[i].get_or_init(|| Arc::new(ColumnStats::build(&self.columns[i])))
    }

    /// Whether column `i`'s statistics cell holds a record right now.
    #[cfg(test)]
    fn stats_built(&self, i: usize) -> bool {
        self.stats[i].get().is_some()
    }

    /// Distinct non-NULL values of column `i`: exact for a dictionary or
    /// slot-vector column, a prefix-sample lower bound otherwise; computed
    /// once per column version either way.
    pub fn distinct_estimate(&self, i: usize) -> usize {
        self.column_stats(i).distinct(&self.columns[i])
    }

    /// `Some(m)` when every non-NULL value of column `i` is a whole number of
    /// magnitude at most `m` (`None` for a float column holding a fraction,
    /// NaN or a magnitude from 2^52 up, and for strings): computed once per
    /// column version and carried over appends, like the range it sits
    /// beside.
    pub fn integral_bound(&self, i: usize) -> Option<f64> {
        self.column_stats(i).integral(&self.columns[i])
    }

    /// The NULL-folded slot vector a block kernel reads key column `i`
    /// through, whichever side-car holds it: a string column's
    /// [`Column::packed_slots`], a narrow integer column's
    /// [`ColumnStats::slots`]. `None` when the column has neither.
    pub fn key_slots(&self, i: usize) -> Option<&Arc<PackedCodes>> {
        match &self.columns[i] {
            col @ Column::Str { .. } => col.packed_slots(),
            Column::Int { .. } => self.column_stats(i).slots(),
            Column::Float { .. } => None,
        }
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The columns by value: moved out when no clone shares them, copied
    /// otherwise.
    pub fn into_columns(self) -> Vec<Column> {
        Arc::try_unwrap(self.columns).unwrap_or_else(|shared| shared.to_vec())
    }

    /// Value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Whether `value` can be stored in column `col` (NULL anywhere, exact
    /// type match, or an int widening into a float column).
    fn value_fits(col: &Column, value: &Value) -> Result<()> {
        let ok = value.is_null()
            || match (col.data_type(), value) {
                (t, v) if v.data_type() == Some(t) => true,
                (crate::DataType::Float, Value::Int(_)) => true,
                _ => false,
            };
        if ok {
            Ok(())
        } else {
            Err(StorageError::TypeMismatch {
                expected: col.data_type().to_string(),
                found: value
                    .data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "Null".into()),
            })
        }
    }

    /// Check `row` against the schema (arity and per-column types) without
    /// mutating anything.
    pub fn validate_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (col, value) in self.columns.iter().zip(row) {
            Self::value_fits(col, value)?;
        }
        Ok(())
    }

    /// Append one row. The slice must have one value per column.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        // Validate all values first so a failed push can't leave ragged
        // columns behind.
        self.validate_row(row)?;
        self.append(|cols| Self::append_row(cols, row))
    }

    /// Push one validated row onto `cols`.
    fn append_row(cols: &mut [Column], row: &[Value]) -> Result<()> {
        for (col, value) in cols.iter_mut().zip(row) {
            col.push(value.clone())?;
        }
        Ok(())
    }

    /// Append a batch of rows, all-or-nothing: every row is validated
    /// (arity and types) before the first one is pushed, so a bad row in the
    /// middle cannot leave the table partially extended.
    pub fn push_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        rows.iter().try_for_each(|row| self.validate_row(row))?;
        self.push_valid_rows(rows);
        Ok(())
    }

    /// Append rows that [`Table::validate_row`] already accepted — the
    /// catalog's write path validates, logs, then applies, and does not pay
    /// for the check twice.
    pub(crate) fn push_valid_rows(&mut self, rows: &[Vec<Value>]) {
        // One detach and one statistics pass for the batch, not per row.
        self.append(|cols| rows.iter().try_for_each(|row| Self::append_row(cols, row)))
            .expect("rows validated against this table");
    }

    /// Overwrite `values[i]` into column `cols[i]` of row `row`, atomically:
    /// [`Table::check_cells`] runs before the first write, so a bad cell
    /// cannot leave the row half-updated.
    pub fn set_cells(&mut self, row: usize, cols: &[usize], values: &[Value]) -> Result<()> {
        self.check_cells(row, cols, values)?;
        self.set_checked_cells(row, cols, values);
        Ok(())
    }

    /// Write cells that [`Table::check_cells`] already accepted (the
    /// catalog's write path checks, logs, then applies).
    pub(crate) fn set_checked_cells(&mut self, row: usize, cols: &[usize], values: &[Value]) {
        for (&col, value) in cols.iter().zip(values) {
            self.column_mut(col)
                .set(row, value.clone())
                .expect("cell checked against this table");
        }
    }

    /// Whether [`Table::set_cells`] would accept this update: row bounds,
    /// column bounds, arity and value types. Mutates nothing.
    pub fn check_cells(&self, row: usize, cols: &[usize], values: &[Value]) -> Result<()> {
        let n = self.num_rows();
        if row >= n {
            return Err(StorageError::RowOutOfBounds { index: row, len: n });
        }
        if cols.len() != values.len() {
            return Err(StorageError::LengthMismatch {
                expected: cols.len(),
                found: values.len(),
            });
        }
        for (&col, value) in cols.iter().zip(values) {
            let ncols = self.columns.len();
            if col >= ncols {
                return Err(StorageError::InvalidSchema(format!(
                    "column index {col} out of range ({ncols} columns)"
                )));
            }
            Self::value_fits(&self.columns[col], value)?;
        }
        Ok(())
    }

    /// Collect row `i` into a `Vec<Value>`.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        let n = self.num_rows();
        if i >= n {
            return Err(StorageError::RowOutOfBounds { index: i, len: n });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Iterate rows as `Vec<Value>`. Convenience for tests and display; hot
    /// paths should work column-wise.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(move |i| self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Contiguous row ranges of at most `chunk_rows` rows covering the
    /// table, in row order — the morsel view parallel scans iterate.
    /// Workers index the shared columns directly through these ranges; the
    /// table itself is `Sync` (dictionary strings are `Arc<str>`), so no
    /// per-chunk copy is made.
    pub fn row_chunks(&self, chunk_rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let n = self.num_rows();
        let step = chunk_rows.max(1);
        (0..n).step_by(step).map(move |start| {
            let end = (start + step).min(n);
            start..end
        })
    }

    /// Whether [`Table::extend_from`] would accept `other`: the schemas
    /// must be equal. Mutates nothing.
    pub fn check_extend(&self, other: &Table) -> Result<()> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(StorageError::InvalidSchema(format!(
                "append schema {} does not match {}",
                other.schema, self.schema
            )));
        }
        Ok(())
    }

    /// Bulk-append all rows of `other` (schemas must be equal).
    pub fn extend_from(&mut self, other: &Table) -> Result<()> {
        self.check_extend(other)?;
        self.append(|cols| {
            let pairs = cols.iter_mut().zip(other.columns.iter());
            pairs
                .into_iter()
                .try_for_each(|(dst, src)| dst.extend_from(src))
        })
    }

    /// New table holding only the listed rows, in order (gather).
    pub fn take(&self, rows: &[usize]) -> Table {
        Table::assemble(
            Arc::clone(&self.schema),
            self.columns.iter().map(|c| c.take(rows)).collect(),
        )
    }

    /// New table sorted by the given columns ascending (NULLs first).
    /// Used to present result rows "in the order given by GROUP BY".
    pub fn sorted_by(&self, key_cols: &[usize]) -> Table {
        self.take(&self.sort_order(key_cols, &mut 0))
    }

    /// The row order of a stable ascending sort by `key_cols`, in the order
    /// [`Value::total_cmp`] puts their cells — NULL first, floats by
    /// `f64::total_cmp`, strings by their bytes — read from the typed
    /// columns, no `Value` built. `comparisons` counts the cells compared.
    pub fn sort_order(&self, key_cols: &[usize], comparisons: &mut u64) -> Vec<usize> {
        let keys: Vec<&Column> = key_cols.iter().map(|&c| &self.columns[c]).collect();
        let mut order: Vec<usize> = (0..self.num_rows()).collect();
        order.sort_by(|&a, &b| {
            for key in &keys {
                *comparisons += 1;
                let cmp = cmp_cells(key, a, b);
                if cmp != Ordering::Equal {
                    return cmp;
                }
            }
            Ordering::Equal
        });
        order
    }

    /// Approximate heap bytes (used to compare intermediate-table sizes and
    /// to bound caches of tables), built statistics and slot vectors
    /// included — 1–2 bytes a row per scanned integer key column.
    pub fn heap_bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(Column::heap_bytes).sum();
        let stats: usize = self
            .stats
            .iter()
            .filter_map(|cell| cell.get())
            .map(|stats| stats.heap_bytes())
            .sum();
        columns + stats
    }

    /// Render the first `limit` rows as an aligned text table (debugging,
    /// examples, the repro harness).
    pub fn display(&self, limit: usize) -> String {
        let n = self.num_rows().min(limit);
        let mut widths: Vec<usize> = self.schema.fields().iter().map(|f| f.name.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| match c.get(i) {
                    Value::Float(f) => format!("{f:.4}"),
                    v => v.to_string(),
                })
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        for (j, f) in self.schema.fields().iter().enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:width$}", f.name, width = widths[j]));
        }
        out.push('\n');
        for row in &cells {
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{:width$}", cell, width = widths[j]));
            }
            out.push('\n');
        }
        if self.num_rows() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.num_rows()));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display(20))
    }
}

/// Rows `a` and `b` of `col` in [`Value::total_cmp`]'s order.
fn cmp_cells(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_valid(a), col.is_valid(b)) {
        (true, true) => {}
        (va, vb) => return va.cmp(&vb),
    }
    match col {
        Column::Int { data, .. } => data[a].cmp(&data[b]),
        Column::Float { data, .. } => data[a].total_cmp(&data[b]),
        Column::Str { dict, codes, .. } => match codes[a] == codes[b] {
            true => Ordering::Equal,
            false => dict.resolve(codes[a]).cmp(dict.resolve(codes[b])),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn sales_schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("salesAmt", DataType::Float),
        ])
        .unwrap()
        .into_shared()
    }

    /// Parallel scans share `&Table` (and its dictionary `Arc<str>`
    /// payloads) across worker threads; regressing these bounds would break
    /// the engine's morsel-driven execution at a distance.
    #[test]
    fn table_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Table>();
        assert_send_sync::<Column>();
        assert_send_sync::<Value>();
    }

    #[test]
    fn clone_is_shallow_and_cow_detaches_on_write() {
        let mut t = Table::empty(sales_schema());
        t.push_row(&[Value::str("CA"), Value::str("SF"), Value::Float(1.0)])
            .unwrap();
        let snap = t.clone();
        assert!(snap.shares_columns(&t), "clone shares storage");

        // Every mutation path detaches instead of writing through.
        t.push_row(&[Value::str("TX"), Value::str("Austin"), Value::Float(2.0)])
            .unwrap();
        assert!(!snap.shares_columns(&t), "first write detaches");
        assert_eq!(snap.num_rows(), 1, "snapshot frozen at clone time");
        assert_eq!(t.num_rows(), 2);

        let snap2 = t.clone();
        t.set_cells(0, &[2], &[Value::Float(9.0)]).unwrap();
        assert_eq!(snap2.get(0, 2), Value::Float(1.0), "set_cells detaches");

        let snap3 = t.clone();
        t.column_mut(2).set(0, Value::Float(7.0)).unwrap();
        assert_eq!(snap3.get(0, 2), Value::Float(9.0), "column_mut detaches");

        let snap4 = t.clone();
        let other = snap4.clone();
        t.extend_from(&other).unwrap();
        assert_eq!(snap4.num_rows(), 2, "extend_from detaches");
        assert_eq!(t.num_rows(), 4);
    }

    fn int_pair() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (k, v) in [(3, 10), (5, 20), (4, 30)] {
            t.push_row(&[Value::Int(k), Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn a_clone_shares_statistics_and_a_write_resets_only_the_writers() {
        let t = int_pair();
        let pin = t.clone();
        // Built through the clone, visible to the original: one version.
        let built = pin.column_stats(0);
        assert_eq!(built.range(), Some((3, 5)));
        assert!(std::ptr::eq(built, t.column_stats(0)));

        let mut live = t;
        live.push_row(&[Value::Int(1), Value::Int(40)]).unwrap();
        assert_eq!(live.column_stats(0).range(), Some((1, 5)), "rebuilt");
        assert_eq!(pin.column_stats(0).range(), Some((3, 5)), "the pin's own");
        assert_eq!(pin.key_slots(0).unwrap().len(), 3);
        assert_eq!(live.key_slots(0).unwrap().len(), 4);
    }

    #[test]
    fn every_mutator_resets_the_cells_of_the_columns_it_writes() {
        let fresh = |t: &Table| (t.column_stats(0).range(), t.column_stats(1).range());
        let mut t = int_pair();
        assert_eq!(fresh(&t), (Some((3, 5)), Some((10, 30))));
        let untouched = t.column_stats(1) as *const ColumnStats;

        t.set_cells(0, &[0], &[Value::Int(9)]).unwrap();
        assert_eq!(t.column_stats(0).range(), Some((4, 9)), "set_cells");
        assert!(
            std::ptr::eq(untouched, t.column_stats(1)),
            "a column set_cells did not write keeps its record"
        );

        t.column_mut(0).set(1, Value::Int(-2)).unwrap();
        assert_eq!(t.column_stats(0).range(), Some((-2, 9)), "column_mut");
        assert!(std::ptr::eq(untouched, t.column_stats(1)));

        t.push_rows(&[vec![Value::Int(12), Value::Null]]).unwrap();
        assert_eq!(fresh(&t), (Some((-2, 12)), Some((10, 30))), "push_rows");
        assert_eq!(t.column_stats(1).null_count(), 1);

        let other = int_pair();
        t.extend_from(&other).unwrap();
        assert_eq!(t.column_stats(0).null_count(), 0);
        assert_eq!(t.distinct_estimate(0), 6, "extend_from: 4, -2, 9, 12, 3, 5");

        // Derived tables start with nothing built.
        let before = t.take(&[0]).heap_bytes();
        let taken = t.take(&[0]);
        taken.column_stats(0);
        assert!(taken.heap_bytes() > before, "a built record is counted");
    }

    #[test]
    fn an_append_extends_built_cells_and_leaves_unbuilt_ones_alone() {
        let mut t = int_pair();
        t.push_rows(&[vec![Value::Int(4), Value::Int(7)]]).unwrap();
        t.extend_from(&int_pair()).unwrap();
        assert!(!t.stats_built(0) && !t.stats_built(1), "nothing derived");

        let pin = t.clone();
        let (pinned, slots) = (pin.column_stats(0), pin.key_slots(0).unwrap().clone());
        assert!(t.stats_built(0), "built through the pin, one version");
        // 5 is the max, 3 the min: 4 and NULL extend in place of a rebuild.
        t.push_rows(&[vec![Value::Int(4), Value::Int(1)], vec![Value::Null; 2]])
            .unwrap();
        assert!(t.stats_built(0) && !t.stats_built(1));
        assert_eq!(t.column_stats(0).range(), Some((3, 5)));
        assert_eq!(t.column_stats(0).null_count(), 1);
        assert_eq!(t.key_slots(0).unwrap().len(), 9);
        assert!(!Arc::ptr_eq(t.key_slots(0).unwrap(), &slots), "detached");
        assert!(std::ptr::eq(pinned, pin.column_stats(0)), "the pin's own");
        assert!(Arc::ptr_eq(pin.key_slots(0).unwrap(), &slots));
        assert_eq!(slots.len(), 7);

        // Unpinned, the vector grows where it is.
        let live = t.key_slots(0).unwrap().clone();
        let at = Arc::as_ptr(&live);
        drop(live);
        t.push_row(&[Value::Int(9), Value::Null]).unwrap();
        assert_eq!(Arc::as_ptr(t.key_slots(0).unwrap()), at);
        assert_eq!(t.column_stats(0).range(), Some((3, 9)), "max grows");
        assert_eq!(t.distinct_estimate(0), 4, "3, 4, 5, 9");

        // Below the minimum every slot would shift: the cell is reset.
        t.push_row(&[Value::Int(2), Value::Null]).unwrap();
        assert!(!t.stats_built(0));
        assert_eq!(t.column_stats(0).range(), Some((2, 9)));
    }

    #[test]
    fn row_chunks_cover_the_table_in_order() {
        let mut t = Table::empty(sales_schema());
        for i in 0..7 {
            t.push_row(&[Value::str("CA"), Value::str("SF"), Value::Float(i as f64)])
                .unwrap();
        }
        let chunks: Vec<_> = t.row_chunks(3).collect();
        assert_eq!(chunks, vec![0..3, 3..6, 6..7]);
        assert_eq!(t.row_chunks(100).collect::<Vec<_>>(), vec![0..7]);
        assert_eq!(t.row_chunks(0).count(), 7, "zero clamps to one-row chunks");
        let empty = Table::empty(sales_schema());
        assert_eq!(empty.row_chunks(3).count(), 0);
    }

    #[test]
    fn push_and_read_rows() {
        let mut t = Table::empty(sales_schema());
        t.push_row(&[Value::str("CA"), Value::str("SF"), Value::Float(13.0)])
            .unwrap();
        t.push_row(&[Value::str("TX"), Value::str("Houston"), Value::Int(5)])
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(0, 0), Value::str("CA"));
        assert_eq!(t.get(1, 2), Value::Float(5.0), "int widened");
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::str("TX"), Value::str("Houston"), Value::Float(5.0)]
        );
        assert!(t.row(2).is_err());
    }

    #[test]
    fn push_row_arity_and_type_checked_atomically() {
        let mut t = Table::empty(sales_schema());
        assert!(t.push_row(&[Value::str("CA")]).is_err());
        // Type error in the *last* column must not grow the first columns.
        let bad = t.push_row(&[Value::str("CA"), Value::str("SF"), Value::str("x")]);
        assert!(bad.is_err());
        assert_eq!(t.num_rows(), 0, "failed push leaves no partial row");
    }

    #[test]
    fn from_columns_validates() {
        let schema = sales_schema();
        let cols = vec![
            Column::new(DataType::Str),
            Column::new(DataType::Str),
            Column::new(DataType::Float),
        ];
        assert!(Table::from_columns(Arc::clone(&schema), cols).is_ok());
        let wrong = vec![Column::new(DataType::Str)];
        assert!(Table::from_columns(schema, wrong).is_err());
    }

    #[test]
    fn extend_and_take() {
        let schema = sales_schema();
        let mut a = Table::empty(Arc::clone(&schema));
        a.push_row(&[Value::str("CA"), Value::str("SF"), Value::Float(1.0)])
            .unwrap();
        let mut b = Table::empty(schema);
        b.push_row(&[Value::str("TX"), Value::str("Dallas"), Value::Float(2.0)])
            .unwrap();
        b.push_row(&[Value::str("TX"), Value::str("Houston"), Value::Float(3.0)])
            .unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.num_rows(), 3);
        let picked = a.take(&[2, 0]);
        assert_eq!(picked.get(0, 1), Value::str("Houston"));
        assert_eq!(picked.get(1, 1), Value::str("SF"));
    }

    #[test]
    fn sorted_by_orders_rows_with_nulls_first() {
        let schema = sales_schema();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::str("TX"), Value::str("b"), Value::Float(1.0)])
            .unwrap();
        t.push_row(&[Value::Null, Value::str("a"), Value::Float(2.0)])
            .unwrap();
        t.push_row(&[Value::str("CA"), Value::str("c"), Value::Float(3.0)])
            .unwrap();
        let s = t.sorted_by(&[0]);
        assert_eq!(s.get(0, 0), Value::Null);
        assert_eq!(s.get(1, 0), Value::str("CA"));
        assert_eq!(s.get(2, 0), Value::str("TX"));
    }

    /// The reference order: a `Value` per cell, [`Value::total_cmp`].
    fn value_order(t: &Table, key_cols: &[usize]) -> (Vec<usize>, u64) {
        let mut comparisons = 0;
        let mut order: Vec<usize> = (0..t.num_rows()).collect();
        order.sort_by(|&a, &b| {
            for &c in key_cols {
                comparisons += 1;
                let cmp = t.get(a, c).total_cmp(&t.get(b, c));
                if cmp != Ordering::Equal {
                    return cmp;
                }
            }
            Ordering::Equal
        });
        (order, comparisons)
    }

    #[test]
    fn the_typed_sort_orders_as_values_do() {
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("f", DataType::Float),
            ("i", DataType::Int),
            ("n", DataType::Str),
        ])
        .unwrap()
        .into_shared();
        let floats = [
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Interned out of string order, so codes do not sort as strings.
        let strs = ["pear", "apple", "", "Zebra", "apples", "é"];
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = |m: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % m as u64) as usize
            };
            let rows = 1 + next(300);
            let mut t = Table::empty(Arc::clone(&schema));
            for _ in 0..rows {
                let s = match next(8) {
                    0 => Value::Null,
                    k => Value::str(strs[k % strs.len()]),
                };
                let f = match next(10) {
                    0 => Value::Null,
                    k => Value::Float(floats[k % floats.len()]),
                };
                let i = match next(6) {
                    0 => Value::Null,
                    k => Value::Int(k as i64 - 3),
                };
                t.push_row(&[s, f, i, Value::Null]).unwrap();
            }
            for keys in [
                &[0][..],
                &[1],
                &[2],
                &[3],
                &[1, 0],
                &[0, 2, 1],
                &[3, 2, 0, 1],
            ] {
                let (want, want_comparisons) = value_order(&t, keys);
                let mut comparisons = 0;
                assert_eq!(
                    t.sort_order(keys, &mut comparisons),
                    want,
                    "seed {seed} {keys:?}"
                );
                assert_eq!(comparisons, want_comparisons, "seed {seed} {keys:?}");
                let sorted: Vec<Vec<Value>> = t.sorted_by(keys).rows().collect();
                let reference: Vec<Vec<Value>> = t.take(&want).rows().collect();
                assert_eq!(sorted.len(), reference.len());
                for (a, b) in sorted.iter().zip(&reference) {
                    // Bit for bit: -0.0 before 0.0, NaNs by sign.
                    let bits = |v: &Value| match v {
                        Value::Float(x) => Value::Int(x.to_bits() as i64),
                        other => other.clone(),
                    };
                    let a: Vec<Value> = a.iter().map(bits).collect();
                    let b: Vec<Value> = b.iter().map(bits).collect();
                    assert_eq!(a, b, "seed {seed} {keys:?}");
                }
            }
        }
    }

    #[test]
    fn display_renders_header_and_rows() {
        let mut t = Table::empty(sales_schema());
        t.push_row(&[Value::str("CA"), Value::str("SF"), Value::Float(0.78)])
            .unwrap();
        let text = t.display(10);
        assert!(text.contains("state"));
        assert!(text.contains("0.7800"));
    }
}
