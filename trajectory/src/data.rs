//! Harness-owned table data: the generator's output, the reference
//! evaluator's input, and the shadow copy `ingest` checks recovery against.
//! Nothing here reads a `pa_storage::Table` back — the engine's storage is
//! only ever *written* from this form, so the reference stays independent.

use percentage_aggregations::storage::{
    packed::PackedCell, Bitmap, Column, DataType, Dictionary, Schema, Table, Value,
};
use std::cmp::Ordering;

/// One cell of a generated table or of a query answer.
#[derive(Debug, Clone)]
pub enum Cell {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
}

impl Cell {
    fn rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Int(_) => 1,
            Cell::Float(_) => 2,
            Cell::Str(_) => 3,
        }
    }

    /// The engine's representation of this cell.
    pub fn to_value(&self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(*i),
            Cell::Float(x) => Value::Float(*x),
            Cell::Str(s) => Value::str(s),
        }
    }

    pub fn from_value(v: &Value) -> Cell {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::Str(s.to_string()),
        }
    }
}

// Floats compare by bits (`total_cmp`): answers must match byte for byte,
// and -0.0 / NaN must not make the order partial.
impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cell {}
impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Cell) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cell {
    fn cmp(&self, other: &Cell) -> Ordering {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Float(a), Cell::Float(b)) => a.total_cmp(b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// One generated column. Dimensions are `Int` or `Str`, measures `Float`;
/// generated tables hold no NULLs (NULLs appear only in answers).
#[derive(Debug, Clone, PartialEq)]
pub enum RawCol {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Dictionary codes plus the dictionary, in first-use order.
    Str(Vec<u32>, Vec<String>),
}

impl RawCol {
    pub fn len(&self) -> usize {
        match self {
            RawCol::Int(v) => v.len(),
            RawCol::Float(v) => v.len(),
            RawCol::Str(c, _) => c.len(),
        }
    }

    pub fn cell(&self, row: usize) -> Cell {
        match self {
            RawCol::Int(v) => Cell::Int(v[row]),
            RawCol::Float(v) => Cell::Float(v[row]),
            RawCol::Str(c, d) => Cell::Str(d[c[row] as usize].clone()),
        }
    }

    fn push(&mut self, cell: &Cell) {
        match (self, cell) {
            (RawCol::Int(v), Cell::Int(i)) => v.push(*i),
            (RawCol::Float(v), Cell::Float(x)) => v.push(*x),
            (RawCol::Str(codes, dict), Cell::Str(s)) => {
                let code = dict.iter().position(|d| d == s).unwrap_or_else(|| {
                    dict.push(s.clone());
                    dict.len() - 1
                });
                codes.push(code as u32);
            }
            (col, cell) => panic!("cell {cell:?} does not fit column {col:?}"),
        }
    }

    fn set(&mut self, row: usize, cell: &Cell) {
        match (self, cell) {
            (RawCol::Int(v), Cell::Int(i)) => v[row] = *i,
            (RawCol::Float(v), Cell::Float(x)) => v[row] = *x,
            (col, cell) => panic!("cell {cell:?} cannot overwrite column {col:?}"),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            RawCol::Int(_) => DataType::Int,
            RawCol::Float(_) => DataType::Float,
            RawCol::Str(..) => DataType::Str,
        }
    }

    fn to_column(&self) -> Column {
        let validity = Bitmap::filled(self.len(), true);
        match self {
            RawCol::Int(v) => Column::Int {
                data: v.clone(),
                validity,
            },
            RawCol::Float(v) => Column::Float {
                data: v.clone(),
                validity,
            },
            RawCol::Str(codes, names) => {
                let mut dict = Dictionary::new();
                // Interning in dictionary order reproduces the codes.
                for (i, n) in names.iter().enumerate() {
                    assert_eq!(dict.intern(n) as usize, i, "dictionary holds duplicates");
                }
                Column::Str {
                    dict,
                    codes: codes.clone(),
                    validity,
                    packed: PackedCell::new(),
                }
            }
        }
    }
}

/// A generated table.
#[derive(Debug, Clone, PartialEq)]
pub struct RawTable {
    pub name: String,
    pub cols: Vec<(String, RawCol)>,
}

impl RawTable {
    pub fn rows(&self) -> usize {
        self.cols.first().map_or(0, |(_, c)| c.len())
    }

    pub fn col(&self, name: &str) -> &RawCol {
        &self
            .cols
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
            .1
    }

    pub fn col_index(&self, name: &str) -> usize {
        self.cols
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
    }

    pub fn push_row(&mut self, row: &[Cell]) {
        assert_eq!(row.len(), self.cols.len());
        for ((_, col), cell) in self.cols.iter_mut().zip(row) {
            col.push(cell);
        }
    }

    pub fn set_cell(&mut self, row: usize, col: usize, cell: &Cell) {
        self.cols[col].1.set(row, cell);
    }

    /// The same rows as an engine table.
    pub fn to_table(&self) -> Table {
        let pairs: Vec<(&str, DataType)> = self
            .cols
            .iter()
            .map(|(n, c)| (n.as_str(), c.dtype()))
            .collect();
        let schema = Schema::from_pairs(&pairs)
            .expect("generated column names are distinct")
            .into_shared();
        let columns = self.cols.iter().map(|(_, c)| c.to_column()).collect();
        Table::from_columns(schema, columns).expect("generated columns match their schema")
    }

    /// A stable content hash (FNV-1a over names and cell bytes): the
    /// determinism tests compare tables through it.
    #[cfg(test)]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        for (name, col) in &self.cols {
            eat(name.as_bytes());
            match col {
                RawCol::Int(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
                RawCol::Float(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
                RawCol::Str(codes, dict) => {
                    codes.iter().for_each(|c| eat(&c.to_le_bytes()));
                    dict.iter().for_each(|d| eat(d.as_bytes()));
                }
            }
        }
        h
    }
}

/// Harness rows as the engine's write path takes them.
pub fn to_values(rows: &[Vec<Cell>]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(Cell::to_value).collect())
        .collect()
}

/// An engine result table as harness cells, row-major.
pub fn cells_of(t: &Table) -> Vec<Vec<Cell>> {
    (0..t.num_rows())
        .map(|r| {
            (0..t.num_columns())
                .map(|c| Cell::from_value(&t.get(r, c)))
                .collect()
        })
        .collect()
}
