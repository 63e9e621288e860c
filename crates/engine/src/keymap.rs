//! Group-id assignment shared by aggregation, join, and DISTINCT.
//!
//! Two code paths map a tuple of key values to a dense group id:
//!
//! * [`RowKeyMap`] — the general hash path. Input rows are hashed straight
//!   from their columns (no per-row key allocation); a key tuple is
//!   materialized only once per *distinct* group. Collisions are resolved
//!   by value comparison.
//! * [`DenseKeySpace`] / [`DenseGroupMap`] — the code path. When every key
//!   column has a small enumerable domain (dictionary codes for strings, a
//!   narrow observed range for integers), keys compress to a mixed-radix
//!   *composite code* and group lookup becomes one array index — no
//!   hashing, no `Value` construction, no key comparison.
//!
//! [`GroupMap`] unifies the two behind one interface so operators pick per
//! input: dense when the cardinality product fits the configured budget,
//! hash otherwise. Both paths assign group ids in first-appearance scan
//! order, which is what keeps parallel merges byte-identical to the serial
//! plan (DESIGN.md §7, §10).

use crate::error::Result;
use crate::stats::ExecStats;
use pa_storage::hash::FxHashMap;
use pa_storage::{Bitmap, Column, Dictionary, FxHasher, PackedCell, Table, Value};
use std::hash::Hasher;

/// Default ceiling on the composite-code space (product of per-dimension
/// radices) for the dense group path. 2^20 codes × 4-byte slot ≈ 4 MiB of
/// direct-addressed table per worker — beyond that the hash path wins.
pub const DEFAULT_DENSE_BUDGET: usize = 1 << 20;

/// Hash table from key tuples to dense group ids.
#[derive(Debug, Default)]
pub struct RowKeyMap {
    buckets: FxHashMap<u64, Vec<u32>>,
    keys: Vec<Vec<Value>>,
}

fn hash_row(table: &Table, cols: &[usize], row: usize) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        table.column(c).get(row).key_hash(&mut h);
    }
    h.finish()
}

fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.key_hash(&mut h);
    }
    h.finish()
}

fn row_matches(table: &Table, cols: &[usize], row: usize, key: &[Value]) -> bool {
    cols.iter()
        .zip(key)
        .all(|(&c, v)| table.column(c).get(row).key_eq(v))
}

impl RowKeyMap {
    /// Empty map.
    pub fn new() -> RowKeyMap {
        RowKeyMap::default()
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key tuples, indexed by group id.
    pub fn keys(&self) -> &[Vec<Value>] {
        &self.keys
    }

    /// Consume the map, yielding the key tuples in group-id order. Used by
    /// the parallel merge to fold a worker's partial groups into the global
    /// map without cloning every key.
    pub fn into_keys(self) -> Vec<Vec<Value>> {
        self.keys
    }

    /// Group id for the key formed by `cols` of `table[row]`, inserting a
    /// new group when unseen.
    pub fn get_or_insert_row(
        &mut self,
        table: &Table,
        cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> usize {
        stats.hash_probes += 1;
        let h = hash_row(table, cols, row);
        let bucket = self.buckets.entry(h).or_default();
        for &gid in bucket.iter() {
            if row_matches(table, cols, row, &self.keys[gid as usize]) {
                return gid as usize;
            }
        }
        let gid = self.keys.len() as u32;
        let key: Vec<Value> = cols.iter().map(|&c| table.column(c).get(row)).collect();
        self.keys.push(key);
        bucket.push(gid);
        stats.hash_build_rows += 1;
        gid as usize
    }

    /// Group id for an explicit key tuple, without inserting.
    pub fn lookup_key(&self, key: &[Value], stats: &mut ExecStats) -> Option<usize> {
        stats.hash_probes += 1;
        let h = hash_key(key);
        self.buckets.get(&h).and_then(|bucket| {
            bucket
                .iter()
                .find(|&&gid| {
                    self.keys[gid as usize]
                        .iter()
                        .zip(key)
                        .all(|(a, b)| a.key_eq(b))
                })
                .map(|&gid| gid as usize)
        })
    }

    /// Group id for an explicit key tuple, inserting when unseen.
    pub fn get_or_insert_key(&mut self, key: &[Value], stats: &mut ExecStats) -> usize {
        stats.hash_probes += 1;
        let h = hash_key(key);
        let bucket = self.buckets.entry(h).or_default();
        for &gid in bucket.iter() {
            if self.keys[gid as usize]
                .iter()
                .zip(key)
                .all(|(a, b)| a.key_eq(b))
            {
                return gid as usize;
            }
        }
        let gid = self.keys.len() as u32;
        self.keys.push(key.to_vec());
        bucket.push(gid);
        stats.hash_build_rows += 1;
        gid as usize
    }
}

// ---- dense (code-path) grouping ------------------------------------------

/// How one key dimension maps to a slot in `0..radix`. Slot 0 is always the
/// NULL slot, so NULL groups exactly like the hash path's `key_eq`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DimCoder {
    /// Dictionary-encoded string column: slot = code + 1.
    Str,
    /// Integer column with observed range `[min, min + radix - 2]`:
    /// slot = value - min + 1.
    Int {
        /// Smallest non-NULL value observed at build time.
        min: i64,
    },
}

impl DimCoder {
    /// The key column a run of this dimension's slots decodes to, one row
    /// per slot, written typed: `source` is the input column the dimension
    /// codes. Strings are re-interned as they first appear, so the column
    /// is the one pushing each decoded value in turn would build.
    pub(crate) fn decode(
        self,
        source: &Column,
        slots: impl ExactSizeIterator<Item = usize>,
    ) -> Column {
        let mut validity = Bitmap::with_capacity(slots.len());
        match (self, source) {
            (DimCoder::Int { min }, _) => {
                let mut data = Vec::with_capacity(slots.len());
                for slot in slots {
                    data.push(if slot == 0 { 0 } else { min + slot as i64 - 1 });
                    validity.push(slot != 0);
                }
                Column::Int { data, validity }
            }
            (DimCoder::Str, Column::Str { dict: theirs, .. }) => {
                let (mut dict, mut codes) = (Dictionary::new(), Vec::with_capacity(slots.len()));
                let mut interned = vec![u32::MAX; theirs.len()];
                for slot in slots {
                    codes.push(match slot.checked_sub(1) {
                        None => 0,
                        Some(code) => {
                            if interned[code] == u32::MAX {
                                interned[code] = dict.intern_arc(theirs.resolve(code as u32));
                            }
                            interned[code]
                        }
                    });
                    validity.push(slot != 0);
                }
                let packed = PackedCell::new();
                Column::Str {
                    dict,
                    codes,
                    validity,
                    packed,
                }
            }
            _ => unreachable!("column type changed under a built key space"),
        }
    }
}

/// One key dimension's coder and radix — its slot count, the NULL slot
/// included — read from the column's statistics
/// ([`Table::column_stats`]): the integer range is derived once per column
/// version and shared by both key spaces, the block coder and the optimizer,
/// never rescanned per statement. `None` for a `Float` column (unbounded
/// domain) and for an integer range whose span overflows.
fn dim_domain(table: &Table, col: usize) -> Option<(DimCoder, u64)> {
    match table.column(col) {
        Column::Str { dict, .. } => Some((DimCoder::Str, dict.len() as u64 + 1)),
        Column::Int { .. } => match table.column_stats(col).range() {
            // All-NULL dimension: only the NULL slot.
            None => Some((DimCoder::Int { min: 0 }, 1)),
            Some((min, max)) => {
                let span = u64::try_from(max.checked_sub(min)?).ok()?;
                Some((DimCoder::Int { min }, span.checked_add(2)?))
            }
        },
        Column::Float { .. } => None,
    }
}

/// Mixed-radix composite-code space over a tuple of key columns.
///
/// Each dimension contributes a slot in `0..radix_d` (0 = NULL); the
/// composite code is `Σ slot_d × stride_d`, a bijection between key tuples
/// and `0..size()`. Built against one immutable table snapshot: the
/// per-dimension domains (dictionary size, integer range) are that
/// snapshot's column statistics, so every row of it encodes in range.
#[derive(Debug, Clone)]
pub struct DenseKeySpace {
    cols: Vec<usize>,
    pub(crate) dims: Vec<DimCoder>,
    radices: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    size: usize,
}

impl DenseKeySpace {
    /// Try to build a code space for `cols` of `table` whose size stays
    /// within `budget` codes. Returns `None` — callers fall back to the
    /// hash path — when the key is empty, the budget is 0 (dense path
    /// disabled), any column is `Float` (unbounded domain), or the
    /// cardinality product overflows the budget.
    pub fn try_build(table: &Table, cols: &[usize], budget: usize) -> Option<DenseKeySpace> {
        if cols.is_empty() || budget == 0 {
            return None;
        }
        let mut dims = Vec::with_capacity(cols.len());
        let mut radices = Vec::with_capacity(cols.len());
        for &c in cols {
            let (coder, radix) = dim_domain(table, c)?;
            dims.push(coder);
            radices.push(usize::try_from(radix).ok()?);
        }
        let mut strides = Vec::with_capacity(cols.len());
        let mut size = 1usize;
        for &radix in &radices {
            strides.push(size);
            size = size.checked_mul(radix)?;
            if size > budget {
                return None;
            }
        }
        Some(DenseKeySpace {
            cols: cols.to_vec(),
            dims,
            radices,
            strides,
            size,
        })
    }

    /// The one-code space of the empty key (an empty GROUP BY): no
    /// dimensions, every row codes to 0. [`Self::try_build`] refuses an
    /// empty key because its callers mean "no dense path" by it; the scan
    /// core asks for this space explicitly.
    pub(crate) fn keyless() -> DenseKeySpace {
        DenseKeySpace {
            cols: Vec::new(),
            dims: Vec::new(),
            radices: Vec::new(),
            strides: Vec::new(),
            size: 1,
        }
    }

    /// Number of addressable composite codes (product of radices).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Key columns the space encodes, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The sub-space over a subset of this space's dimensions (`dims` are
    /// positions into this space's key order). The projected space reuses
    /// the parent's per-dimension coders and radices — it is exactly the
    /// space [`DenseKeySpace::try_build`] would build for those columns on
    /// the same table snapshot, so a composite code in the parent projects
    /// to the child by pure digit arithmetic, no rescan of the domains.
    pub fn project(&self, dims: &[usize]) -> DenseKeySpace {
        let mut strides = Vec::with_capacity(dims.len());
        let mut size = 1usize;
        for &d in dims {
            strides.push(size);
            size *= self.radices[d];
        }
        DenseKeySpace {
            cols: dims.iter().map(|&d| self.cols[d]).collect(),
            dims: dims.iter().map(|&d| self.dims[d]).collect(),
            radices: dims.iter().map(|&d| self.radices[d]).collect(),
            strides,
            size,
        }
    }

    /// Radix-projection jump table onto the sub-space over `dims` (as built
    /// by [`DenseKeySpace::project`]): `table[code]` is the child code of
    /// every parent code — `Σ_d digit_d(code) × child_stride_d`. One `u32`
    /// per parent code; the dense budget keeps `size()` far under
    /// `u32::MAX`, so the cast never truncates.
    pub fn projection_table(&self, dims: &[usize], child: &DenseKeySpace) -> Vec<u32> {
        debug_assert_eq!(dims.len(), child.strides.len());
        // Walk the codes as an odometer (dimension 0 turns fastest): a
        // digit's step moves the child code by that dimension's child
        // stride, 0 for a dropped one — no division per code, which on a
        // small input costs more than the scan the table serves.
        let mut step = vec![0usize; self.radices.len()];
        for (&d, &stride) in dims.iter().zip(&child.strides) {
            step[d] = stride;
        }
        let mut digits = vec![0usize; self.radices.len()];
        let mut table = Vec::with_capacity(self.size);
        let mut child_code = 0usize;
        for _ in 0..self.size {
            table.push(child_code as u32);
            for d in 0..digits.len() {
                digits[d] += 1;
                child_code += step[d];
                if digits[d] < self.radices[d] {
                    break;
                }
                child_code -= digits[d] * step[d];
                digits[d] = 0;
            }
        }
        table
    }

    /// The code in `child` (this space [projected](Self::project) onto
    /// `dims`) of one of this space's codes.
    pub(crate) fn project_code(&self, code: usize, dims: &[usize], child: &DenseKeySpace) -> usize {
        debug_assert_eq!(dims.len(), child.strides.len());
        let digit = |d: usize| (code / self.strides[d]) % self.radices[d];
        dims.iter()
            .zip(&child.strides)
            .map(|(&d, stride)| digit(d) * stride)
            .sum()
    }

    #[inline]
    fn slot_of_row(&self, table: &Table, d: usize, row: usize) -> usize {
        match (table.column(self.cols[d]), self.dims[d]) {
            (
                Column::Str {
                    codes, validity, ..
                },
                DimCoder::Str,
            ) => {
                if validity.get(row) {
                    codes[row] as usize + 1
                } else {
                    0
                }
            }
            (Column::Int { data, validity }, DimCoder::Int { min }) => {
                if validity.get(row) {
                    (data[row] - min) as usize + 1
                } else {
                    0
                }
            }
            _ => unreachable!("column type changed under a built key space"),
        }
    }

    /// Composite code of one row of the table the space was built on.
    #[inline]
    pub fn code_of_row(&self, table: &Table, row: usize) -> usize {
        let mut code = 0;
        for d in 0..self.dims.len() {
            code += self.slot_of_row(table, d, row) * self.strides[d];
        }
        code
    }

    /// Dimension `d`'s slot of a composite code (0 is NULL).
    #[inline]
    pub(crate) fn slot(&self, code: usize, d: usize) -> usize {
        (code / self.strides[d]) % self.radices[d]
    }

    /// Decode dimension `d` of a composite code back into its key value.
    pub fn key_value(&self, table: &Table, code: usize, d: usize) -> Value {
        let slot = self.slot(code, d);
        if slot == 0 {
            return Value::Null;
        }
        match self.dims[d] {
            DimCoder::Str => {
                let Column::Str { dict, .. } = table.column(self.cols[d]) else {
                    unreachable!("column type changed under a built key space")
                };
                Value::Str(dict.resolve((slot - 1) as u32).clone())
            }
            DimCoder::Int { min } => Value::Int(min + slot as i64 - 1),
        }
    }
}

/// Direct-addressed group-id map over a [`DenseKeySpace`]: `code → gid` is
/// one array index. Group ids are assigned in first-appearance order, same
/// as [`RowKeyMap`], so the two paths produce byte-identical output.
#[derive(Debug)]
pub struct DenseGroupMap {
    space: DenseKeySpace,
    /// `u32::MAX` marks an unseen code (the space fits 2^20 ≪ u32::MAX).
    code_to_gid: Vec<u32>,
    /// Composite code per group id, in first-appearance order.
    gid_to_code: Vec<u32>,
}

impl DenseGroupMap {
    /// Empty map over `space`.
    pub fn new(space: DenseKeySpace) -> DenseGroupMap {
        DenseGroupMap {
            code_to_gid: vec![u32::MAX; space.size()],
            gid_to_code: Vec::new(),
            space,
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        self.gid_to_code.len()
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.gid_to_code.is_empty()
    }

    /// Composite code per group id, in first-appearance order.
    pub fn codes(&self) -> &[u32] {
        &self.gid_to_code
    }

    /// The code space the map addresses.
    pub(crate) fn space(&self) -> &DenseKeySpace {
        &self.space
    }

    /// Group id for a composite code, inserting a new group when unseen.
    #[inline]
    pub fn get_or_insert_code(&mut self, code: usize) -> usize {
        let gid = self.code_to_gid[code];
        if gid != u32::MAX {
            return gid as usize;
        }
        let gid = self.gid_to_code.len() as u32;
        self.code_to_gid[code] = gid;
        self.gid_to_code.push(code as u32);
        gid as usize
    }

    /// Key dimension `d` of group `gid`; `table` must be the one the space
    /// was built on.
    pub(crate) fn key_value(&self, table: &Table, gid: usize, d: usize) -> Value {
        self.space
            .key_value(table, self.gid_to_code[gid] as usize, d)
    }

    /// Key dimension `d` of the groups `gids`, in that order, as a column.
    pub(crate) fn key_column(
        &self,
        table: &Table,
        d: usize,
        gids: impl ExactSizeIterator<Item = usize>,
    ) -> Column {
        let slots = gids.map(|gid| self.space.slot(self.gid_to_code[gid] as usize, d));
        self.space.dims[d].decode(table.column(self.space.cols[d]), slots)
    }

    /// Group id for the key formed by the space's columns of `table[row]`,
    /// inserting a new group when unseen.
    #[inline]
    pub fn get_or_insert_row(&mut self, table: &Table, row: usize) -> usize {
        let code = self.space.code_of_row(table, row);
        self.get_or_insert_code(code)
    }
}

// ---- wide (shift-packed) codes for the over-budget hash path -------------

/// Shift-packed composite-code space over a tuple of key columns whose
/// per-dimension bit widths sum to at most 64 — the over-budget companion
/// to [`DenseKeySpace`]. Where the dense space multiplies mixed radices and
/// direct-addresses an array, the wide space packs each dimension's slot
/// into its own bit field of one `u64`: the packing is still a bijection
/// (slot 0 = NULL, same per-dimension coders), so group lookup hashes one
/// integer instead of a key tuple, codes compare exactly (no collisions to
/// resolve), and a coarser level projects by mask-and-shift arithmetic.
/// There is no size budget — a 2^40-code space costs nothing until codes
/// are actually observed, because the group map behind it is a hash table.
#[derive(Debug, Clone)]
pub struct WideKeySpace {
    cols: Vec<usize>,
    pub(crate) dims: Vec<DimCoder>,
    radices: Vec<u64>,
    pub(crate) shifts: Vec<u32>,
    widths: Vec<u32>,
}

impl WideKeySpace {
    /// Try to build a shift-packed code space for `cols` of `table`.
    /// Returns `None` — callers fall back to tuple hashing — when the key
    /// is empty, any column is `Float` (unbounded domain), an integer range
    /// does not fit, or the per-dimension widths overflow 64 bits.
    pub fn try_build(table: &Table, cols: &[usize]) -> Option<WideKeySpace> {
        if cols.is_empty() {
            return None;
        }
        let mut dims = Vec::with_capacity(cols.len());
        let mut radices = Vec::with_capacity(cols.len());
        for &c in cols {
            let (coder, radix) = dim_domain(table, c)?;
            dims.push(coder);
            radices.push(radix);
        }
        let mut shifts = Vec::with_capacity(cols.len());
        let mut widths = Vec::with_capacity(cols.len());
        let mut used = 0u32;
        for &radix in &radices {
            let max_slot = radix - 1;
            let width = 64 - max_slot.leading_zeros();
            if used.checked_add(width)? > 64 {
                return None;
            }
            shifts.push(used);
            widths.push(width);
            used += width;
        }
        Some(WideKeySpace {
            cols: cols.to_vec(),
            dims,
            radices,
            shifts,
            widths,
        })
    }

    /// Key columns the space encodes, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Shift-packed code of one row of the table the space was built on.
    #[inline]
    pub fn code_of_row(&self, table: &Table, row: usize) -> u64 {
        let mut code = 0u64;
        for d in 0..self.dims.len() {
            let slot = match (table.column(self.cols[d]), self.dims[d]) {
                (
                    Column::Str {
                        codes, validity, ..
                    },
                    DimCoder::Str,
                ) => {
                    if validity.get(row) {
                        codes[row] as u64 + 1
                    } else {
                        0
                    }
                }
                (Column::Int { data, validity }, DimCoder::Int { min }) => {
                    if validity.get(row) {
                        data[row].wrapping_sub(min) as u64 + 1
                    } else {
                        0
                    }
                }
                _ => unreachable!("column type changed under a built key space"),
            };
            code |= slot << self.shifts[d];
        }
        code
    }

    /// Dimension `d`'s slot of a shift-packed code (0 is NULL).
    #[inline]
    pub(crate) fn slot(&self, code: u64, d: usize) -> u64 {
        match self.widths[d] {
            0 => 0,
            width => (code >> self.shifts[d]) & (u64::MAX >> (64 - width)),
        }
    }

    /// Decode dimension `d` of a shift-packed code back into its key value.
    pub fn key_value(&self, table: &Table, code: u64, d: usize) -> Value {
        let slot = self.slot(code, d);
        if slot == 0 {
            return Value::Null;
        }
        match self.dims[d] {
            DimCoder::Str => {
                let Column::Str { dict, .. } = table.column(self.cols[d]) else {
                    unreachable!("column type changed under a built key space")
                };
                Value::Str(dict.resolve((slot - 1) as u32).clone())
            }
            DimCoder::Int { min } => Value::Int(min + slot as i64 - 1),
        }
    }

    /// The sub-space over a subset of this space's dimensions, with its bit
    /// fields re-packed contiguously from bit 0 — exactly the space
    /// [`WideKeySpace::try_build`] would build for those columns.
    pub fn project(&self, dims: &[usize]) -> WideKeySpace {
        let mut shifts = Vec::with_capacity(dims.len());
        let mut used = 0u32;
        for &d in dims {
            shifts.push(used);
            used += self.widths[d];
        }
        WideKeySpace {
            cols: dims.iter().map(|&d| self.cols[d]).collect(),
            dims: dims.iter().map(|&d| self.dims[d]).collect(),
            radices: dims.iter().map(|&d| self.radices[d]).collect(),
            shifts,
            widths: dims.iter().map(|&d| self.widths[d]).collect(),
        }
    }

    /// Mask-and-shift projector from this space's codes onto the sub-space
    /// over `dims` (as built by [`WideKeySpace::project`]) — the wide
    /// counterpart of the dense path's radix jump table, with no table to
    /// materialize because bit fields move instead of digits.
    pub fn projector(&self, dims: &[usize], child: &WideKeySpace) -> WideProjector {
        let steps = dims
            .iter()
            .zip(&child.shifts)
            .filter(|(&d, _)| self.widths[d] > 0)
            .map(|(&d, &dst)| {
                let mask = u64::MAX >> (64 - self.widths[d]);
                (self.shifts[d], mask, dst)
            })
            .collect();
        WideProjector { steps }
    }
}

/// Projects a [`WideKeySpace`] code onto a sub-space: each step extracts
/// one dimension's bit field and re-places it at the child's shift.
#[derive(Debug, Clone)]
pub struct WideProjector {
    /// `(source shift, field mask, destination shift)` per kept dimension.
    steps: Vec<(u32, u64, u32)>,
}

impl WideProjector {
    /// The child code of `code`.
    #[inline]
    pub fn project(&self, code: u64) -> u64 {
        let mut out = 0u64;
        for &(src, mask, dst) in &self.steps {
            out |= ((code >> src) & mask) << dst;
        }
        out
    }
}

/// Group-id assignment behind either code path. Operators pick the variant
/// per input via [`GroupMap::for_space`]; everything downstream (scan, merge,
/// materialization) is path-agnostic and byte-identical across paths.
#[derive(Debug)]
pub enum GroupMap {
    /// General hash path ([`RowKeyMap`]).
    Hash(RowKeyMap),
    /// Direct-addressed code path ([`DenseGroupMap`]).
    Dense(DenseGroupMap),
}

impl GroupMap {
    /// Dense map over `space` when one was built, hash map otherwise.
    pub fn for_space(space: Option<DenseKeySpace>) -> GroupMap {
        match space {
            Some(space) => GroupMap::Dense(DenseGroupMap::new(space)),
            None => GroupMap::Hash(RowKeyMap::new()),
        }
    }

    /// Number of distinct groups seen.
    pub fn len(&self) -> usize {
        match self {
            GroupMap::Hash(m) => m.len(),
            GroupMap::Dense(m) => m.len(),
        }
    }

    /// True when no groups have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group id for the key formed by `cols` of `table[row]`, inserting a
    /// new group when unseen. `cols` must be the columns the map was chosen
    /// for (the dense path encodes its own column list).
    #[inline]
    pub fn get_or_insert_row(
        &mut self,
        table: &Table,
        cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> usize {
        match self {
            GroupMap::Hash(m) => m.get_or_insert_row(table, cols, row, stats),
            GroupMap::Dense(m) => m.get_or_insert_row(table, row),
        }
    }

    /// Group id for an explicit key tuple, inserting when unseen. Only the
    /// hash path supports explicit keys; levels with an empty key (global
    /// aggregates) always choose it.
    pub fn get_or_insert_key(&mut self, key: &[Value], stats: &mut ExecStats) -> usize {
        match self {
            GroupMap::Hash(m) => m.get_or_insert_key(key, stats),
            GroupMap::Dense(_) => unreachable!("explicit keys require the hash group path"),
        }
    }

    /// Fold another map's groups into this one, returning this map's group
    /// id for each of `other`'s group ids (in `other`'s id order). Unseen
    /// groups are appended in `other`'s first-appearance order — the
    /// deterministic worker-order merge both aggregation operators rely on.
    pub fn merge_ids(&mut self, other: GroupMap, stats: &mut ExecStats) -> Vec<u32> {
        match (self, other) {
            (GroupMap::Hash(dst), GroupMap::Hash(src)) => src
                .into_keys()
                .iter()
                .map(|key| dst.get_or_insert_key(key, stats) as u32)
                .collect(),
            (GroupMap::Dense(dst), GroupMap::Dense(src)) => src
                .gid_to_code
                .iter()
                .map(|&code| dst.get_or_insert_code(code as usize) as u32)
                .collect(),
            _ => unreachable!("worker partials always share one group path"),
        }
    }

    /// Key dimension `d` of group `gid`; `table` must be the input the map
    /// was built over.
    pub(crate) fn key_value(&self, table: &Table, gid: usize, d: usize) -> Value {
        match self {
            GroupMap::Hash(m) => m.keys[gid][d].clone(),
            GroupMap::Dense(m) => m.key_value(table, gid, d),
        }
    }

    /// Key dimension `d` — column `col` of `table` — of the groups `gids`,
    /// in that order. The hash path holds its keys as values (a float key
    /// has no code) and pushes them.
    pub(crate) fn key_column(
        &self,
        table: &Table,
        col: usize,
        d: usize,
        gids: impl ExactSizeIterator<Item = usize>,
    ) -> Result<Column> {
        match self {
            GroupMap::Dense(m) => Ok(m.key_column(table, d, gids)),
            GroupMap::Hash(m) => {
                let mut out = Column::with_capacity(table.column(col).data_type(), gids.len());
                for gid in gids {
                    out.push(m.keys[gid][d].clone())?;
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_storage::{DataType, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("state", DataType::Str), ("x", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (s, x) in [("CA", 1), ("TX", 2), ("CA", 3), ("TX", 4), ("CA", 5)] {
            t.push_row(&[Value::str(s), Value::Int(x)]).unwrap();
        }
        t
    }

    #[test]
    fn assigns_dense_group_ids() {
        let t = table();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let gids: Vec<usize> = (0..5)
            .map(|r| m.get_or_insert_row(&t, &[0], r, &mut st))
            .collect();
        assert_eq!(gids, vec![0, 1, 0, 1, 0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.keys()[0], vec![Value::str("CA")]);
        assert_eq!(st.hash_probes, 5);
        assert_eq!(st.hash_build_rows, 2);
    }

    #[test]
    fn lookup_key_finds_inserted_groups_only() {
        let t = table();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        for r in 0..5 {
            m.get_or_insert_row(&t, &[0], r, &mut st);
        }
        assert_eq!(m.lookup_key(&[Value::str("TX")], &mut st), Some(1));
        assert_eq!(m.lookup_key(&[Value::str("NY")], &mut st), None);
    }

    #[test]
    fn composite_keys_with_nulls() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        t.push_row(&[Value::Null, Value::Int(1)]).unwrap();
        t.push_row(&[Value::Int(1), Value::Null]).unwrap();
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let g0 = m.get_or_insert_row(&t, &[0, 1], 0, &mut st);
        let g1 = m.get_or_insert_row(&t, &[0, 1], 1, &mut st);
        let g2 = m.get_or_insert_row(&t, &[0, 1], 2, &mut st);
        assert_eq!(g0, g1, "NULL groups together");
        assert_ne!(g0, g2);
    }

    #[test]
    fn get_or_insert_key_round_trip() {
        let mut m = RowKeyMap::new();
        let mut st = ExecStats::default();
        let a = m.get_or_insert_key(&[Value::Int(1), Value::str("x")], &mut st);
        let b = m.get_or_insert_key(&[Value::Int(1), Value::str("x")], &mut st);
        let c = m.get_or_insert_key(&[Value::Int(2), Value::str("x")], &mut st);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.len(), 2);
    }

    /// Str × Int table with NULLs in both key dimensions.
    fn mixed_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("d", DataType::Int),
            ("f", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d) in [
            (Some("CA"), Some(10)),
            (Some("TX"), Some(12)),
            (None, Some(10)),
            (Some("CA"), None),
            (Some("CA"), Some(10)),
            (None, Some(10)),
        ] {
            t.push_row(&[
                s.map_or(Value::Null, Value::str),
                d.map_or(Value::Null, Value::Int),
                Value::Float(1.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn dense_space_respects_budget_and_column_types() {
        let t = mixed_table();
        // s: 2 dict values + NULL = 3; d: range 10..=12 + NULL = 4.
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        assert_eq!(space.size(), 12);
        // A budget below the product forces the hash fallback.
        assert!(DenseKeySpace::try_build(&t, &[0, 1], 11).is_none());
        assert!(DenseKeySpace::try_build(&t, &[0, 1], 0).is_none());
        // Float columns never dense-encode.
        assert!(DenseKeySpace::try_build(&t, &[2], 1 << 20).is_none());
        assert!(DenseKeySpace::try_build(&t, &[], 1 << 20).is_none());
    }

    #[test]
    fn dense_gids_match_hash_gids_in_scan_order() {
        let t = mixed_table();
        let mut hash = RowKeyMap::new();
        let mut dense = DenseGroupMap::new(DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap());
        let mut st = ExecStats::default();
        for row in 0..t.num_rows() {
            let h = hash.get_or_insert_row(&t, &[0, 1], row, &mut st);
            let d = dense.get_or_insert_row(&t, row);
            assert_eq!(h, d, "row {row}");
        }
        assert_eq!(hash.len(), dense.len());
    }

    #[test]
    fn dense_codes_round_trip_through_key_values() {
        let t = mixed_table();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        for row in 0..t.num_rows() {
            let code = space.code_of_row(&t, row);
            assert!(code < space.size());
            let key: Vec<Value> = (0..2).map(|d| space.key_value(&t, code, d)).collect();
            assert!(key[0].key_eq(&t.get(row, 0)), "row {row}");
            assert!(key[1].key_eq(&t.get(row, 1)), "row {row}");
        }
    }

    #[test]
    fn group_map_merge_ids_agrees_across_paths() {
        let t = mixed_table();
        let mut st = ExecStats::default();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        // Worker 0 sees rows 0..3, worker 1 rows 3..6; merge in worker order.
        let run = |mut maps: Vec<GroupMap>, st: &mut ExecStats| -> (Vec<u32>, usize) {
            for row in 0..3 {
                maps[0].get_or_insert_row(&t, &[0, 1], row, st);
            }
            for row in 3..6 {
                maps[1].get_or_insert_row(&t, &[0, 1], row, st);
            }
            let w1 = maps.pop().unwrap();
            let mut global = maps.pop().unwrap();
            let ids = global.merge_ids(w1, st);
            (ids, global.len())
        };
        let (hash_ids, hash_len) = run(
            vec![
                GroupMap::Hash(RowKeyMap::new()),
                GroupMap::Hash(RowKeyMap::new()),
            ],
            &mut st,
        );
        let (dense_ids, dense_len) = run(
            vec![
                GroupMap::Dense(DenseGroupMap::new(space.clone())),
                GroupMap::Dense(DenseGroupMap::new(space)),
            ],
            &mut st,
        );
        assert_eq!(hash_ids, dense_ids);
        assert_eq!(hash_len, dense_len);
    }

    #[test]
    fn dense_projection_matches_direct_build() {
        let t = mixed_table();
        let root = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        for dims in [vec![0usize], vec![1], vec![0, 1]] {
            let child = root.project(&dims);
            let cols: Vec<usize> = dims.iter().map(|&d| root.cols()[d]).collect();
            let direct = DenseKeySpace::try_build(&t, &cols, 1 << 20).unwrap();
            assert_eq!(child.size(), direct.size(), "dims {dims:?}");
            let table = root.projection_table(&dims, &child);
            assert_eq!(table.len(), root.size());
            for row in 0..t.num_rows() {
                let projected = table[root.code_of_row(&t, row)] as usize;
                assert_eq!(projected, direct.code_of_row(&t, row), "row {row}");
                for (j, _) in dims.iter().enumerate() {
                    let v = child.key_value(&t, projected, j);
                    assert!(v.key_eq(&t.get(row, cols[j])), "row {row} dim {j}");
                }
            }
        }
    }

    #[test]
    fn wide_space_groups_like_the_hash_path() {
        let t = mixed_table();
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let mut hash = RowKeyMap::new();
        let mut codes: Vec<u64> = Vec::new();
        let mut st = ExecStats::default();
        for row in 0..t.num_rows() {
            let h = hash.get_or_insert_row(&t, &[0, 1], row, &mut st);
            let code = space.code_of_row(&t, row);
            let w = match codes.iter().position(|&c| c == code) {
                Some(g) => g,
                None => {
                    codes.push(code);
                    codes.len() - 1
                }
            };
            assert_eq!(h, w, "row {row}");
        }
        // Decoded key values match what the hash path materialized.
        for (gid, &code) in codes.iter().enumerate() {
            for d in 0..2 {
                assert!(
                    space.key_value(&t, code, d).key_eq(&hash.keys()[gid][d]),
                    "gid {gid} dim {d}"
                );
            }
        }
        // Float columns never wide-encode; empty keys neither.
        assert!(WideKeySpace::try_build(&t, &[2]).is_none());
        assert!(WideKeySpace::try_build(&t, &[]).is_none());
    }

    #[test]
    fn wide_projector_matches_direct_coding() {
        let t = mixed_table();
        let root = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        for dims in [vec![0usize], vec![1], vec![0, 1]] {
            let child = root.project(&dims);
            let proj = root.projector(&dims, &child);
            let cols: Vec<usize> = dims.iter().map(|&d| root.cols()[d]).collect();
            let direct = WideKeySpace::try_build(&t, &cols).unwrap();
            for row in 0..t.num_rows() {
                assert_eq!(
                    proj.project(root.code_of_row(&t, row)),
                    direct.code_of_row(&t, row),
                    "dims {dims:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn wide_space_refuses_overflowing_widths() {
        // Two full-range integer dimensions cannot pack into 64 bits.
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(0), Value::Int(0)]).unwrap();
        t.push_row(&[Value::Int(1 << 33), Value::Int(1 << 33)])
            .unwrap();
        assert!(WideKeySpace::try_build(&t, &[0, 1]).is_none());
        // Either wide dimension alone still fits.
        assert!(WideKeySpace::try_build(&t, &[0]).is_some());
        assert!(WideKeySpace::try_build(&t, &[1]).is_some());
    }
}
