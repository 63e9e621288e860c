//! Vectorized compressed-column kernels (DESIGN.md §12).
//!
//! The scalar operators interpret one row at a time: a virtual
//! `Column::get`/`get_f64` per lane per row, an enum match per dimension per
//! row inside `DenseKeySpace::code_of_row`. This module replaces the inner
//! loops with MonetDB/X100-style *block-at-a-time* kernels over compressed
//! vectors:
//!
//! * [`BlockCoder`] resolves each key dimension to a typed reader **once**
//!   — bit-packed NULL-folded slots for dictionary columns
//!   ([`pa_storage::PackedCodes`]), raw `&[i64]` plus validity words for
//!   integer columns — and fills a stack block of mixed-radix composite
//!   codes with tight, autovectorizable loops. The packed slot (`0` NULL,
//!   `code + 1` otherwise) is exactly the dense key space's digit, so
//!   unpack output feeds the code computation with no translation.
//! * [`LaneSrc`] / [`RawLane`] accumulate `sum`/`count` pairs straight
//!   into a dense array indexed by group id — no `Option`, no `Value`, no
//!   `Acc` enum dispatch inside the loop. [`HolisticLane`] is the same for
//!   `percentile` / `approx_percentile` / `approx_count_distinct`: typed
//!   per-group state (sample buffer, t-digest, HLL registers) fed from the
//!   same sources through the same two entry points, a block or a run at
//!   a time. Lanes convert to real [`Acc`]s only once per worker chunk
//!   ([`raw_acc`], [`HolisticLane::into_accs`]), so the merge/finish
//!   machinery — and therefore the output bytes — are identical to the
//!   scalar path.
//! * Run detection ([`FusedAgg`]) switches to an RLE fast path when a code
//!   block is dominated by runs (sorted/clustered dimensions): one group
//!   lookup per run and register-resident accumulation, with counts added
//!   run-length at a time. Floating-point sums still add row by row in row
//!   order — never reassociated — which is what keeps the fused path
//!   byte-identical to the scalar one.
//! * [`NumSlice`] is the same hoisting for the *scalar fallback* loops:
//!   lanes that cannot fuse still resolve their typed slices once per scan
//!   instead of re-matching the column enum per row.
//!
//! Eligibility: a grouping pass fuses when its key codes block-at-a-time
//! (dense or shift-packed wide codes over packed/integer dimensions, or no
//! key at all) and every lane is `count(*)` or a raw or holistic function
//! over a plain numeric column. Everything else — float keys, unpackable
//! dictionaries, min/max, `count(DISTINCT)` or expression lanes — falls
//! back to the (hoisted) scalar loop, and the chosen path is recorded in
//! [`crate::ExecStats`] and on trace spans.

use crate::keymap::{DenseGroupMap, DenseKeySpace, DimCoder, WideKeySpace};
use crate::ops::acc::{Acc, PctState};
use crate::ops::aggregate::AggFunc;
use crate::sketch::{Hll, TDigest};
use crate::stats::ExecStats;
use pa_storage::{Column, FxHashMap, PackedCodes, Table, Value};
use std::ops::Range;
use std::sync::Arc;

/// Rows per kernel block: the unit the fused pipelines unpack, encode, and
/// scatter at a time. Fits the code/gid scratch in L1 alongside the lane
/// data.
pub const BLOCK_ROWS: usize = 1024;

/// When a block splits into at most `len / RLE_RUN_DIVISOR` runs, the
/// run-level path beats the per-row scatter.
pub(crate) const RLE_RUN_DIVISOR: usize = 2;

// ---- hoisted typed column views ------------------------------------------

/// A numeric column resolved to its raw parts once per scan, replacing the
/// per-row `table.column(c).get_f64(row)` in non-vectorized fallback loops.
#[derive(Clone, Copy)]
pub enum NumSlice<'a> {
    /// Integer column: data (0 placeholders) + validity words.
    Int(&'a [i64], &'a [u64]),
    /// Float column: data (NaN placeholders) + validity words.
    Float(&'a [f64], &'a [u64]),
}

impl<'a> NumSlice<'a> {
    /// Resolve a column, `None` when it is not numeric.
    pub fn for_column(col: &'a Column) -> Option<NumSlice<'a>> {
        match col {
            Column::Int { data, validity } => Some(NumSlice::Int(data, validity.words())),
            Column::Float { data, validity } => Some(NumSlice::Float(data, validity.words())),
            Column::Str { .. } => None,
        }
    }

    /// The value at `row` widened to `f64`, `None` when NULL — same
    /// contract as [`Column::get_f64`], minus the per-row column resolve.
    #[inline]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match *self {
            NumSlice::Int(data, vwords) => {
                (vwords[row >> 6] >> (row & 63) & 1 == 1).then(|| data[row] as f64)
            }
            NumSlice::Float(data, vwords) => {
                (vwords[row >> 6] >> (row & 63) & 1 == 1).then(|| data[row])
            }
        }
    }

    /// Visit the non-NULL rows of `rows` in row order as `f(k, value)`, `k`
    /// the offset inside `rows` and the value widened to `f64`. The column
    /// type is matched once, outside the row loop.
    #[inline]
    fn for_each_f64(self, rows: Range<usize>, mut f: impl FnMut(usize, f64)) {
        match self {
            NumSlice::Int(data, vwords) => {
                for_each_valid(data, vwords, rows, |k, x| f(k, x as f64))
            }
            NumSlice::Float(data, vwords) => for_each_valid(data, vwords, rows, f),
        }
    }

    /// [`Self::for_each_f64`] with the value kept in its column type, as the
    /// [`Value`] `Expr::Col` evaluates to — what distinct-count sketches
    /// hash (an `i64` past 2^53 must not round through `f64`).
    #[inline]
    fn for_each_value(self, rows: Range<usize>, mut f: impl FnMut(usize, Value)) {
        match self {
            NumSlice::Int(data, vwords) => {
                for_each_valid(data, vwords, rows, |k, x| f(k, Value::Int(x)))
            }
            NumSlice::Float(data, vwords) => {
                for_each_valid(data, vwords, rows, |k, x| f(k, Value::Float(x)))
            }
        }
    }
}

#[inline]
fn for_each_valid<T: Copy>(
    data: &[T],
    vwords: &[u64],
    rows: Range<usize>,
    mut f: impl FnMut(usize, T),
) {
    let data = &data[rows.start..rows.end];
    for (k, &x) in data.iter().enumerate() {
        let row = rows.start + k;
        if vwords[row >> 6] >> (row & 63) & 1 == 1 {
            f(k, x);
        }
    }
}

// ---- block composite-code computation ------------------------------------

enum DimReader<'a> {
    /// Dictionary dimension via the bit-packed NULL-folded slot vector.
    Packed {
        packed: Arc<PackedCodes>,
        stride: u32,
    },
    /// Integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
        stride: u32,
    },
}

/// Fills blocks of mixed-radix composite codes for a [`DenseKeySpace`],
/// reading every dimension through a compressed or typed vector.
pub struct BlockCoder<'a> {
    dims: Vec<DimReader<'a>>,
    /// Widest bit-packed dimension, for stats (`0` when no packed dim).
    pack_width: u32,
}

impl<'a> BlockCoder<'a> {
    /// Build a coder for `space` over `table`. `None` when some dimension
    /// cannot be read vectorized (unpackable dictionary) or the code space
    /// does not fit the `u32` block buffers — callers then keep the scalar
    /// `code_of_row` loop.
    pub fn try_new(table: &'a Table, space: &DenseKeySpace) -> Option<BlockCoder<'a>> {
        if space.size() > u32::MAX as usize {
            return None;
        }
        let mut dims = Vec::with_capacity(space.cols().len());
        let mut pack_width = 0u32;
        for (d, &c) in space.cols().iter().enumerate() {
            let stride = space.strides[d] as u32;
            let reader = match (table.column(c), space.dims[d]) {
                (col @ Column::Str { .. }, DimCoder::Str) => {
                    let packed = Arc::clone(col.packed_slots()?);
                    pack_width = pack_width.max(packed.width());
                    DimReader::Packed { packed, stride }
                }
                (Column::Int { data, validity }, DimCoder::Int { min }) => DimReader::Int {
                    data,
                    vwords: validity.words(),
                    min,
                    stride,
                },
                _ => return None,
            };
            dims.push(reader);
        }
        Some(BlockCoder { dims, pack_width })
    }

    /// Widest bit-packed dimension this coder reads (0 when none).
    pub fn pack_width(&self) -> u32 {
        self.pack_width
    }

    /// Compute the composite codes of rows `start..start + out.len()` into
    /// `out`. Every loop body is branch-free over raw slices.
    pub fn fill(&self, start: usize, out: &mut [u32]) {
        let mut first = true;
        let mut slots = [0u32; BLOCK_ROWS];
        for dim in &self.dims {
            match dim {
                DimReader::Packed { packed, stride } => {
                    let slots = &mut slots[..out.len()];
                    packed.unpack_into(start, slots);
                    if first {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o = s * stride;
                        }
                    } else {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o += s * stride;
                        }
                    }
                }
                DimReader::Int {
                    data,
                    vwords,
                    min,
                    stride,
                } => {
                    // Wrapping math masked by validity: NULL placeholders may
                    // sit arbitrarily far from `min`, the multiply by the
                    // validity bit discards whatever they wrap to.
                    for (i, o) in out.iter_mut().enumerate() {
                        let row = start + i;
                        let valid = (vwords[row >> 6] >> (row & 63) & 1) as u32;
                        let slot = (data[row].wrapping_sub(*min) as u32).wrapping_add(1) * valid;
                        if first {
                            *o = slot * stride;
                        } else {
                            *o += slot * stride;
                        }
                    }
                }
            }
            first = false;
        }
        if first {
            out.fill(0);
        }
    }
}

// ---- wide (shift-packed) block coding -------------------------------------

enum WideDimReader<'a> {
    /// Dictionary dimension via the bit-packed NULL-folded slot vector.
    Packed {
        packed: Arc<PackedCodes>,
        shift: u32,
    },
    /// Integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
        shift: u32,
    },
}

/// Fills blocks of shift-packed `u64` composite codes for a
/// [`WideKeySpace`] — the same typed-slice block discipline as
/// [`BlockCoder`], for key spaces past the dense budget where codes pack
/// into bit fields instead of mixed radices.
pub struct WideCoder<'a> {
    dims: Vec<WideDimReader<'a>>,
    /// Widest bit-packed dimension, for stats (`0` when no packed dim).
    pack_width: u32,
}

impl<'a> WideCoder<'a> {
    /// Build a coder for `space` over `table`. `None` when some dictionary
    /// dimension cannot be read through a packed vector — callers then keep
    /// the per-row scalar loop.
    pub fn try_new(table: &'a Table, space: &WideKeySpace) -> Option<WideCoder<'a>> {
        let mut dims = Vec::with_capacity(space.cols().len());
        let mut pack_width = 0u32;
        for (d, &c) in space.cols().iter().enumerate() {
            let shift = space.shifts[d];
            let reader = match (table.column(c), space.dims[d]) {
                (col @ Column::Str { .. }, DimCoder::Str) => {
                    let packed = Arc::clone(col.packed_slots()?);
                    pack_width = pack_width.max(packed.width());
                    WideDimReader::Packed { packed, shift }
                }
                (Column::Int { data, validity }, DimCoder::Int { min }) => WideDimReader::Int {
                    data,
                    vwords: validity.words(),
                    min,
                    shift,
                },
                _ => return None,
            };
            dims.push(reader);
        }
        Some(WideCoder { dims, pack_width })
    }

    /// Widest bit-packed dimension this coder reads (0 when none).
    pub fn pack_width(&self) -> u32 {
        self.pack_width
    }

    /// Compute the shift-packed codes of rows `start..start + out.len()`
    /// into `out`. Every loop body is branch-free over raw slices.
    pub fn fill(&self, start: usize, out: &mut [u64]) {
        let mut first = true;
        let mut slots = [0u32; BLOCK_ROWS];
        for dim in &self.dims {
            match dim {
                WideDimReader::Packed { packed, shift } => {
                    let slots = &mut slots[..out.len()];
                    packed.unpack_into(start, slots);
                    if first {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o = (s as u64) << shift;
                        }
                    } else {
                        for (o, &s) in out.iter_mut().zip(slots.iter()) {
                            *o |= (s as u64) << shift;
                        }
                    }
                }
                WideDimReader::Int {
                    data,
                    vwords,
                    min,
                    shift,
                } => {
                    // Wrapping math masked by validity, as in `BlockCoder`:
                    // the multiply by the validity bit zeroes NULL slots.
                    for (i, o) in out.iter_mut().enumerate() {
                        let row = start + i;
                        let valid = vwords[row >> 6] >> (row & 63) & 1;
                        let slot = (data[row].wrapping_sub(*min) as u64).wrapping_add(1) * valid;
                        if first {
                            *o = slot << shift;
                        } else {
                            *o |= slot << shift;
                        }
                    }
                }
            }
            first = false;
        }
        if first {
            out.fill(0);
        }
    }
}

// ---- raw accumulator lanes -----------------------------------------------

/// Where one fused aggregate lane reads its input.
#[derive(Clone, Copy)]
pub enum LaneSrc<'a> {
    /// Typed numeric column.
    Col(NumSlice<'a>),
    /// `count(*)`: no input read.
    CountStar,
}

impl<'a> LaneSrc<'a> {
    /// Resolve a numeric column lane; `None` when the column is not numeric.
    pub fn for_column(col: &'a Column) -> Option<LaneSrc<'a>> {
        NumSlice::for_column(col).map(LaneSrc::Col)
    }
}

/// One lane's dense `sum`/`count` pair, indexed by group id (or any other
/// dense accumulator index). `sum` accumulates in strict row order so float
/// results match the scalar `Acc` updates bit for bit.
///
/// Sum and count interleave in one array so a group update touches one
/// cache line, not two — on group counts that outgrow L1, the second
/// random line per row is the scatter loop's dominant cost.
#[derive(Default)]
pub struct RawLane {
    /// Per-index `(running sum, non-NULL input count)` pairs (row counts
    /// for `count(*)` lanes).
    pairs: Vec<(f64, i64)>,
}

impl RawLane {
    /// Grow the array to at least `n` entries.
    #[inline]
    pub fn ensure(&mut self, n: usize) {
        if self.pairs.len() < n {
            self.pairs.resize(n, (0.0, 0));
        }
    }

    /// The `(sum, count)` pair at index `g`.
    #[inline]
    pub fn pair(&self, g: usize) -> (f64, i64) {
        self.pairs[g]
    }

    /// Mutable access to the `(sum, count)` pair at index `g`.
    #[inline]
    pub fn pair_mut(&mut self, g: usize) -> &mut (f64, i64) {
        &mut self.pairs[g]
    }

    /// Scatter rows `rows.start + k` into accumulator indices `idx[k]`,
    /// one update per row in row order.
    #[inline]
    pub fn scatter(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, idx: &[u32]) {
        debug_assert_eq!(rows.len(), idx.len());
        match src {
            LaneSrc::CountStar => {
                for &g in idx {
                    self.pairs[g as usize].1 += 1;
                }
            }
            LaneSrc::Col(NumSlice::Float(data, vwords)) => {
                let data = &data[rows.start..rows.end];
                for (k, (&g, &x)) in idx.iter().zip(data).enumerate() {
                    let row = rows.start + k;
                    // Branch, don't mask: adding 0.0 for NULLs would turn a
                    // -0.0 running sum into +0.0, and the NaN placeholder
                    // would poison a masked multiply.
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        let p = &mut self.pairs[g as usize];
                        p.0 += x;
                        p.1 += 1;
                    }
                }
            }
            LaneSrc::Col(NumSlice::Int(data, vwords)) => {
                let data = &data[rows.start..rows.end];
                for (k, (&g, &x)) in idx.iter().zip(data).enumerate() {
                    let row = rows.start + k;
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        let p = &mut self.pairs[g as usize];
                        p.0 += x as f64;
                        p.1 += 1;
                    }
                }
            }
        }
    }

    /// Accumulate one run of rows that all map to accumulator index `g`:
    /// the accumulator lives in registers for the run, counts add
    /// run-length-weighted, and float sums still add row by row in row
    /// order (reassociating would change the bits).
    #[inline]
    pub fn accumulate_run(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, g: usize) {
        match src {
            LaneSrc::CountStar => {
                self.pairs[g].1 += rows.len() as i64;
            }
            LaneSrc::Col(NumSlice::Float(data, vwords)) => {
                let mut sum = self.pairs[g].0;
                let mut cnt = 0i64;
                for row in rows {
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        sum += data[row];
                        cnt += 1;
                    }
                }
                self.pairs[g].0 = sum;
                self.pairs[g].1 += cnt;
            }
            LaneSrc::Col(NumSlice::Int(data, vwords)) => {
                let mut sum = self.pairs[g].0;
                let mut cnt = 0i64;
                for row in rows {
                    if vwords[row >> 6] >> (row & 63) & 1 == 1 {
                        sum += data[row] as f64;
                        cnt += 1;
                    }
                }
                self.pairs[g].0 = sum;
                self.pairs[g].1 += cnt;
            }
        }
    }
}

/// Convert one raw `sum`/`count` pair into the [`Acc`] the scalar path
/// would have produced for the same rows in the same order.
///
/// # Panics
/// On functions that have no raw pair (min/max/distinct and the holistic
/// ones, which ride a [`HolisticLane`]).
#[inline]
pub fn raw_acc(func: AggFunc, sum: f64, count: i64) -> Acc {
    match func {
        AggFunc::Sum => Acc::Sum {
            sum,
            any: count > 0,
        },
        AggFunc::Avg => Acc::Avg { sum, n: count },
        AggFunc::Count => Acc::Count(count),
        AggFunc::CountStar => Acc::CountStar(count),
        _ => unreachable!("raw lanes are sum/avg/count/count(*) only"),
    }
}

// ---- holistic accumulator lanes ------------------------------------------

/// One holistic lane's state per accumulator index: the typed insides of
/// [`Acc::Percentile`], [`Acc::ApproxPercentile`] or
/// [`Acc::ApproxCountDistinct`], fed from a [`LaneSrc`] through the same two
/// entry points as [`RawLane`]. Gray et al. call these functions holistic
/// because their state is the value set — not because they must be fed one
/// [`Value`] at a time. Every index sees its non-NULL inputs in row order,
/// the order the scalar `Acc::update` loop sees them, so the state — spill
/// row, digest flush points, registers — is the scalar loop's state.
pub struct HolisticLane(Holistic);

enum Holistic {
    /// Exact percentile: samples in row order until the budget spills them.
    Exact {
        p: f64,
        budget: usize,
        states: Vec<PctState>,
    },
    Digest {
        p: f64,
        digests: Vec<TDigest>,
    },
    Distinct(Vec<Hll>),
}

impl HolisticLane {
    /// Empty lane for `func`; `None` when `func` is not one of the three
    /// holistic functions with a typed lane.
    pub fn new(func: AggFunc, percentile_budget: usize) -> Option<HolisticLane> {
        Some(HolisticLane(match func {
            AggFunc::Percentile(p) => Holistic::Exact {
                p: p.value(),
                budget: percentile_budget,
                states: Vec::new(),
            },
            AggFunc::ApproxPercentile(p) => Holistic::Digest {
                p: p.value(),
                digests: Vec::new(),
            },
            AggFunc::ApproxCountDistinct => Holistic::Distinct(Vec::new()),
            _ => return None,
        }))
    }

    /// Grow to at least `n` indices.
    pub fn ensure(&mut self, n: usize) {
        match &mut self.0 {
            Holistic::Exact { states, .. } if states.len() < n => {
                states.resize_with(n, || PctState::Exact(Vec::new()))
            }
            Holistic::Digest { digests, .. } if digests.len() < n => {
                digests.resize_with(n, TDigest::new)
            }
            Holistic::Distinct(sketches) if sketches.len() < n => sketches.resize_with(n, Hll::new),
            _ => {}
        }
    }

    /// Scatter rows `rows.start + k` into indices `idx[k]` in row order;
    /// `u32::MAX` skips the row (the pivot's "no listed combination").
    pub fn scatter(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, idx: &[u32]) {
        debug_assert_eq!(rows.len(), idx.len());
        let col = holistic_col(src);
        match &mut self.0 {
            Holistic::Exact { budget, states, .. } => col.for_each_f64(rows, |k, x| {
                if idx[k] != u32::MAX {
                    states[idx[k] as usize].push(*budget, x);
                }
            }),
            Holistic::Digest { digests, .. } => col.for_each_f64(rows, |k, x| {
                if idx[k] != u32::MAX {
                    digests[idx[k] as usize].update(x);
                }
            }),
            Holistic::Distinct(sketches) => col.for_each_value(rows, |k, v| {
                if idx[k] != u32::MAX {
                    sketches[idx[k] as usize].insert(&v);
                }
            }),
        }
    }

    /// Feed one run of rows that all map to index `g`: the state is looked
    /// up once and the run's samples append to it in bulk.
    pub fn accumulate_run(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, g: usize) {
        let col = holistic_col(src);
        match &mut self.0 {
            Holistic::Exact { budget, states, .. } => {
                let state = &mut states[g];
                col.for_each_f64(rows, |_, x| state.push(*budget, x));
            }
            Holistic::Digest { digests, .. } => {
                let digest = &mut digests[g];
                col.for_each_f64(rows, |_, x| digest.update(x));
            }
            Holistic::Distinct(sketches) => {
                let sketch = &mut sketches[g];
                col.for_each_value(rows, |_, v| sketch.insert(&v));
            }
        }
    }

    /// The lane's states in index order, each as the [`Acc`] the scalar
    /// path would hold — so merge, serialization and finalize are shared.
    pub fn into_accs(self) -> Box<dyn Iterator<Item = Acc>> {
        match self.0 {
            Holistic::Exact { p, budget, states } => Box::new(
                states
                    .into_iter()
                    .map(move |state| Acc::Percentile { p, budget, state }),
            ),
            Holistic::Digest { p, digests } => Box::new(
                digests
                    .into_iter()
                    .map(move |digest| Acc::ApproxPercentile { p, digest }),
            ),
            Holistic::Distinct(sketches) => {
                Box::new(sketches.into_iter().map(Acc::ApproxCountDistinct))
            }
        }
    }
}

fn holistic_col<'a>(src: &LaneSrc<'a>) -> NumSlice<'a> {
    match src {
        LaneSrc::Col(col) => *col,
        LaneSrc::CountStar => unreachable!("holistic lanes read a numeric column"),
    }
}

// ---- fused aggregate state -----------------------------------------------

/// One fused lane of either kind. The kind is matched once per block or
/// run, never per row.
enum Lane {
    Raw(RawLane),
    Holistic(HolisticLane),
}

/// The lanes of one fused grouping level with their sources — the part the
/// dense, wide and global drivers share: per-run and per-block feeding, and
/// the collapse into the `groups × lanes` [`Acc`] matrix.
pub(crate) struct LaneSet<'a> {
    srcs: Vec<LaneSrc<'a>>,
    funcs: Vec<AggFunc>,
    lanes: Vec<Lane>,
}

impl<'a> LaneSet<'a> {
    /// One lane per `(src, func)` pair; every `func` must be a raw or a
    /// holistic lane function (the classification the callers ran).
    pub(crate) fn new(
        srcs: Vec<LaneSrc<'a>>,
        funcs: Vec<AggFunc>,
        percentile_budget: usize,
    ) -> LaneSet<'a> {
        debug_assert_eq!(srcs.len(), funcs.len());
        let lanes = funcs
            .iter()
            .map(|&func| match HolisticLane::new(func, percentile_budget) {
                Some(lane) => Lane::Holistic(lane),
                None => Lane::Raw(RawLane::default()),
            })
            .collect();
        LaneSet { srcs, funcs, lanes }
    }

    /// Feed one run of rows that all belong to group `g`.
    #[inline]
    fn accumulate_run(&mut self, rows: Range<usize>, g: usize) {
        for (lane, src) in self.lanes.iter_mut().zip(&self.srcs) {
            match lane {
                Lane::Raw(lane) => {
                    lane.ensure(g + 1);
                    lane.accumulate_run(src, rows.clone(), g);
                }
                Lane::Holistic(lane) => {
                    lane.ensure(g + 1);
                    lane.accumulate_run(src, rows.clone(), g);
                }
            }
        }
    }

    /// Scatter one block: row `rows.start + k` belongs to group `gids[k]`,
    /// all below `n_groups`.
    #[inline]
    fn scatter(&mut self, rows: Range<usize>, gids: &[u32], n_groups: usize) {
        for (lane, src) in self.lanes.iter_mut().zip(&self.srcs) {
            match lane {
                Lane::Raw(lane) => {
                    lane.ensure(n_groups);
                    lane.scatter(src, rows.clone(), gids);
                }
                Lane::Holistic(lane) => {
                    lane.ensure(n_groups);
                    lane.scatter(src, rows.clone(), gids);
                }
            }
        }
    }

    /// Collapse into the flat `n_groups × lanes` [`Acc`] matrix the scalar
    /// path builds, so merge and finish are shared.
    fn into_accs(self, n_groups: usize) -> Vec<Acc> {
        let mut columns: Vec<Box<dyn Iterator<Item = Acc>>> = self
            .lanes
            .into_iter()
            .zip(self.funcs)
            .map(|(lane, func)| -> Box<dyn Iterator<Item = Acc>> {
                match lane {
                    Lane::Raw(mut lane) => {
                        lane.ensure(n_groups);
                        Box::new(
                            lane.pairs
                                .into_iter()
                                .map(move |(sum, count)| raw_acc(func, sum, count)),
                        )
                    }
                    Lane::Holistic(mut lane) => {
                        lane.ensure(n_groups);
                        lane.into_accs()
                    }
                }
            })
            .collect();
        let mut accs = Vec::with_capacity(n_groups * columns.len());
        for _ in 0..n_groups {
            for column in &mut columns {
                accs.push(column.next().expect("every lane covers every group"));
            }
        }
        accs
    }
}

/// The block ranges of one morsel, in row order.
fn blocks(morsel: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = morsel.end;
    morsel
        .step_by(BLOCK_ROWS)
        .map(move |start| start..(start + BLOCK_ROWS).min(end))
}

/// The number of maximal equal-code runs in a block when it is
/// run-dominated (sorted/clustered keys), `None` otherwise: `Some` sends the
/// block down the RLE path — one group lookup and one bulk lane feed per
/// run.
#[inline]
fn rle_runs<C: Copy + PartialEq>(codes: &[C]) -> Option<usize> {
    let mut runs = 1usize;
    for k in 1..codes.len() {
        runs += usize::from(codes[k] != codes[k - 1]);
    }
    (runs * RLE_RUN_DIVISOR <= codes.len()).then_some(runs)
}

/// Visit the maximal equal-code runs of a block, in order, as
/// `f(offsets, code)`.
#[inline]
fn for_each_run<C: Copy + PartialEq>(codes: &[C], mut f: impl FnMut(Range<usize>, C)) {
    let mut i = 0usize;
    while i < codes.len() {
        let code = codes[i];
        let mut j = i + 1;
        while j < codes.len() && codes[j] == code {
            j += 1;
        }
        f(i..j, code);
        i = j;
    }
}

/// Per-worker state for one fused grouping level of the aggregate
/// operator: scan → unpack/encode → gid → scatter, with the RLE run path
/// when blocks are run-dominated.
pub(crate) struct FusedAgg<'a> {
    coder: BlockCoder<'a>,
    pub(crate) map: DenseGroupMap,
    lanes: LaneSet<'a>,
    codes: Box<[u32; BLOCK_ROWS]>,
    gids: Box<[u32; BLOCK_ROWS]>,
}

impl<'a> FusedAgg<'a> {
    pub(crate) fn new(
        coder: BlockCoder<'a>,
        map: DenseGroupMap,
        lanes: LaneSet<'a>,
    ) -> FusedAgg<'a> {
        FusedAgg {
            coder,
            map,
            lanes,
            codes: Box::new([0; BLOCK_ROWS]),
            gids: Box::new([0; BLOCK_ROWS]),
        }
    }

    /// Absorb one morsel, block by block.
    pub(crate) fn absorb_morsel(&mut self, morsel: Range<usize>, stats: &mut ExecStats) {
        for block in blocks(morsel) {
            self.absorb_block(block, stats);
        }
    }

    fn absorb_block(&mut self, block: Range<usize>, stats: &mut ExecStats) {
        let (start, len) = (block.start, block.len());
        let codes = &mut self.codes[..len];
        self.coder.fill(start, codes);
        stats.vectorized_kernel_rows += len as u64;

        if let Some(runs) = rle_runs(codes) {
            stats.rle_runs += runs as u64;
            for_each_run(codes, |run, code| {
                let g = self.map.get_or_insert_code(code as usize);
                self.lanes
                    .accumulate_run(start + run.start..start + run.end, g);
            });
            return;
        }

        let gids = &mut self.gids[..len];
        for (g, &code) in gids.iter_mut().zip(codes.iter()) {
            *g = self.map.get_or_insert_code(code as usize) as u32;
        }
        self.lanes.scatter(block, gids, self.map.len());
    }

    /// Collapse into the dense map plus the flat `groups × lanes` [`Acc`]
    /// matrix the scalar path builds, so merge and finish are shared.
    pub(crate) fn into_accs(self) -> (DenseGroupMap, Vec<Acc>) {
        let accs = self.lanes.into_accs(self.map.len());
        (self.map, accs)
    }
}

/// Per-worker state for one fused *wide* (over-budget) grouping level:
/// scan → unpack/encode `u64` codes → gid via one-integer hash → scatter,
/// with the same RLE run path as the dense pipeline. Group ids are
/// assigned in first-appearance order and the codes are a bijection onto
/// key tuples, so the output is byte-identical to the scalar hash path.
pub(crate) struct FusedWideAgg<'a> {
    table: &'a Table,
    coder: WideCoder<'a>,
    space: WideKeySpace,
    code_to_gid: FxHashMap<u64, u32>,
    gid_to_code: Vec<u64>,
    lanes: LaneSet<'a>,
    codes: Box<[u64; BLOCK_ROWS]>,
    gids: Box<[u32; BLOCK_ROWS]>,
}

/// Group id for a wide code, inserting in first-appearance order — a free
/// function over the two map fields so block loops can hold disjoint
/// borrows of the code/gid scratch at the same time.
#[inline]
pub(crate) fn wide_gid(
    code_to_gid: &mut FxHashMap<u64, u32>,
    gid_to_code: &mut Vec<u64>,
    code: u64,
    stats: &mut ExecStats,
) -> usize {
    stats.hash_probes += 1;
    match code_to_gid.entry(code) {
        std::collections::hash_map::Entry::Occupied(e) => *e.get() as usize,
        std::collections::hash_map::Entry::Vacant(e) => {
            let gid = gid_to_code.len() as u32;
            e.insert(gid);
            gid_to_code.push(code);
            stats.hash_build_rows += 1;
            gid as usize
        }
    }
}

impl<'a> FusedWideAgg<'a> {
    pub(crate) fn new(
        table: &'a Table,
        coder: WideCoder<'a>,
        space: WideKeySpace,
        lanes: LaneSet<'a>,
    ) -> FusedWideAgg<'a> {
        FusedWideAgg {
            table,
            coder,
            space,
            code_to_gid: FxHashMap::default(),
            gid_to_code: Vec::new(),
            lanes,
            codes: Box::new([0; BLOCK_ROWS]),
            gids: Box::new([0; BLOCK_ROWS]),
        }
    }

    /// Absorb one morsel, block by block.
    pub(crate) fn absorb_morsel(&mut self, morsel: Range<usize>, stats: &mut ExecStats) {
        for block in blocks(morsel) {
            self.absorb_block(block, stats);
        }
    }

    fn absorb_block(&mut self, block: Range<usize>, stats: &mut ExecStats) {
        let (start, len) = (block.start, block.len());
        let codes = &mut self.codes[..len];
        self.coder.fill(start, codes);
        stats.vectorized_kernel_rows += len as u64;

        if let Some(runs) = rle_runs(codes) {
            stats.rle_runs += runs as u64;
            for_each_run(codes, |run, code| {
                let g = wide_gid(&mut self.code_to_gid, &mut self.gid_to_code, code, stats);
                self.lanes
                    .accumulate_run(start + run.start..start + run.end, g);
            });
            return;
        }

        let gids = &mut self.gids[..len];
        for (g, &code) in gids.iter_mut().zip(codes.iter()) {
            *g = wide_gid(&mut self.code_to_gid, &mut self.gid_to_code, code, stats) as u32;
        }
        self.lanes.scatter(block, gids, self.gid_to_code.len());
    }

    /// Collapse into decoded key tuples (group-id order) plus the flat
    /// `groups × lanes` [`Acc`] matrix — the exact state the scalar hash
    /// path holds after the same rows, so merge and finish are shared.
    pub(crate) fn into_keys_accs(self) -> (Vec<Vec<Value>>, Vec<Acc>) {
        let n_dims = self.space.cols().len();
        let keys = self
            .gid_to_code
            .iter()
            .map(|&code| {
                (0..n_dims)
                    .map(|d| self.space.key_value(self.table, code, d))
                    .collect()
            })
            .collect();
        let accs = self.lanes.into_accs(self.gid_to_code.len());
        (keys, accs)
    }
}

/// Per-worker state for a fused level with an **empty** GROUP BY: there is
/// nothing to code, every block is one run into the single global group.
pub(crate) struct FusedGlobal<'a> {
    lanes: LaneSet<'a>,
    rows: usize,
}

impl<'a> FusedGlobal<'a> {
    pub(crate) fn new(lanes: LaneSet<'a>) -> FusedGlobal<'a> {
        FusedGlobal { lanes, rows: 0 }
    }

    /// Absorb one morsel, one run per block.
    pub(crate) fn absorb_morsel(&mut self, morsel: Range<usize>, stats: &mut ExecStats) {
        for block in blocks(morsel) {
            stats.vectorized_kernel_rows += block.len() as u64;
            stats.rle_runs += 1;
            self.rows += block.len();
            self.lanes.accumulate_run(block, 0);
        }
    }

    /// The global group's accumulators, `None` when no row was absorbed —
    /// the scalar loop creates the group at its first row, and the caller
    /// owns the "one global row even for empty input" rule.
    pub(crate) fn into_accs(self) -> Option<Vec<Acc>> {
        (self.rows > 0).then(|| self.lanes.into_accs(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::acc::DEFAULT_PERCENTILE_BUDGET;
    use pa_storage::{DataType, Schema};

    fn table(rows: &[(Option<&str>, Option<i64>, Option<f64>)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("s", DataType::Str),
            ("d", DataType::Int),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for &(s, d, a) in rows {
            t.push_row(&[
                s.map_or(Value::Null, Value::str),
                d.map_or(Value::Null, Value::Int),
                a.map_or(Value::Null, Value::Float),
            ])
            .unwrap();
        }
        t
    }

    /// One `sum(a)` lane over the measure column of [`table`].
    fn sum_lanes(t: &Table) -> LaneSet<'_> {
        let srcs = vec![LaneSrc::for_column(t.column(2)).unwrap()];
        LaneSet::new(srcs, vec![AggFunc::Sum], DEFAULT_PERCENTILE_BUDGET)
    }

    #[test]
    fn block_coder_matches_code_of_row() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.0)),
            (None, Some(5), None),
            (Some("y"), None, Some(2.0)),
            (Some("x"), Some(4), Some(3.0)),
            (None, None, None),
        ]);
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        assert!(coder.pack_width() >= 1);
        let mut codes = vec![0u32; t.num_rows()];
        coder.fill(0, &mut codes);
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(code as usize, space.code_of_row(&t, row), "row {row}");
        }
    }

    #[test]
    fn block_coder_rejects_float_dims_via_space() {
        let t = table(&[(Some("x"), Some(1), Some(1.0))]);
        assert!(DenseKeySpace::try_build(&t, &[2], 1 << 20).is_none());
    }

    #[test]
    fn num_slice_agrees_with_get_f64() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.5)),
            (None, None, None),
            (Some("y"), Some(-2), Some(-0.0)),
        ]);
        for c in 1..=2 {
            let col = t.column(c);
            let slice = NumSlice::for_column(col).unwrap();
            for row in 0..t.num_rows() {
                let a = slice.get_f64(row);
                let b = col.get_f64(row);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "col {c} row {row}"
                );
            }
        }
        assert!(NumSlice::for_column(t.column(0)).is_none());
    }

    #[test]
    fn raw_acc_matches_scalar_updates() {
        // The raw lane and the Acc must agree on every func, including the
        // all-NULL (count 0) edge.
        assert_eq!(raw_acc(AggFunc::Sum, 0.0, 0).finish(), Value::Null);
        assert_eq!(raw_acc(AggFunc::Sum, 5.0, 2).finish(), Value::Float(5.0));
        assert_eq!(raw_acc(AggFunc::Avg, 6.0, 0).finish(), Value::Null);
        assert_eq!(raw_acc(AggFunc::Avg, 6.0, 3).finish(), Value::Float(2.0));
        assert_eq!(raw_acc(AggFunc::Count, 0.0, 4).finish(), Value::Int(4));
        assert_eq!(raw_acc(AggFunc::CountStar, 0.0, 7).finish(), Value::Int(7));
    }

    #[test]
    fn fused_float_sums_are_bit_identical_to_scalar_acc() {
        // The fused path must reproduce the scalar Acc updates bit for bit —
        // including signed zeros, NaN NULL placeholders being skipped (never
        // mask-multiplied), and strict row-order addition within a run.
        let t = table(&[
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), None),
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), Some(0.1)),
            (Some("g"), Some(1), Some(0.2)),
            (Some("g"), Some(1), Some(-0.3)),
        ]);
        let n = t.num_rows();
        let mut scalar = Acc::Sum {
            sum: 0.0,
            any: false,
        };
        for row in 0..n {
            scalar.update_f64(t.column(2).get_f64(row));
        }
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        let map = DenseGroupMap::new(space);
        let mut fused = FusedAgg::new(coder, map, sum_lanes(&t));
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        let (_map, accs) = fused.into_accs();
        match (&accs[0], &scalar) {
            (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                assert_eq!(fa, sa);
                assert_eq!(f.to_bits(), s.to_bits(), "bit-identical sums");
            }
            _ => unreachable!(),
        }
        // All rows share one code: the block collapsed to one RLE run.
        assert_eq!(stats.rle_runs, 1);
        assert_eq!(stats.vectorized_kernel_rows, n as u64);
    }

    #[test]
    fn wide_coder_matches_code_of_row() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.0)),
            (None, Some(5), None),
            (Some("y"), None, Some(2.0)),
            (Some("x"), Some(4), Some(3.0)),
            (None, None, None),
        ]);
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let coder = WideCoder::try_new(&t, &space).unwrap();
        assert!(coder.pack_width() >= 1);
        let mut codes = vec![0u64; t.num_rows()];
        coder.fill(0, &mut codes);
        for (row, &code) in codes.iter().enumerate() {
            assert_eq!(code, space.code_of_row(&t, row), "row {row}");
        }
    }

    #[test]
    fn fused_wide_matches_scalar_hash_oracle() {
        use crate::keymap::RowKeyMap;
        // Alternating keys defeat run detection; a sorted prefix exercises
        // the run path too. Compare against the scalar hash-path oracle.
        let mut rows: Vec<(Option<&str>, Option<i64>, Option<f64>)> = Vec::new();
        for i in 0..BLOCK_ROWS + 100 {
            let sorted = i < BLOCK_ROWS / 2;
            rows.push((
                Some(if sorted || i % 2 == 0 { "a" } else { "b" }),
                Some(if sorted { 0 } else { (i % 3) as i64 }),
                (i % 5 != 0).then_some(i as f64 * 0.25),
            ));
        }
        let t = table(&rows);
        let n = t.num_rows();
        // Scalar oracle: first-appearance gid order, row-order updates.
        let mut st = ExecStats::default();
        let mut oracle_map = RowKeyMap::new();
        let mut oracle: Vec<Acc> = Vec::new();
        for row in 0..n {
            let g = oracle_map.get_or_insert_row(&t, &[0, 1], row, &mut st);
            if g == oracle.len() {
                oracle.push(Acc::Sum {
                    sum: 0.0,
                    any: false,
                });
            }
            oracle[g].update_f64(t.column(2).get_f64(row));
        }
        let space = WideKeySpace::try_build(&t, &[0, 1]).unwrap();
        let coder = WideCoder::try_new(&t, &space).unwrap();
        let mut fused = FusedWideAgg::new(&t, coder, space, sum_lanes(&t));
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        assert_eq!(stats.vectorized_kernel_rows, n as u64);
        let (keys, accs) = fused.into_keys_accs();
        assert_eq!(keys.len(), oracle_map.len(), "same groups in same order");
        for g in 0..keys.len() {
            for (d, k) in keys[g].iter().enumerate().take(2) {
                assert!(k.key_eq(&oracle_map.keys()[g][d]), "gid {g}");
            }
            match (&accs[g], &oracle[g]) {
                (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                    assert_eq!(fa, sa, "gid {g}");
                    assert_eq!(f.to_bits(), s.to_bits(), "gid {g}");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn scatter_path_matches_run_path() {
        // Alternating keys defeat run detection; both paths must agree with
        // the scalar oracle.
        let rows: Vec<(Option<&str>, Option<i64>, Option<f64>)> = (0..200)
            .map(|i| {
                (
                    Some(if i % 2 == 0 { "a" } else { "b" }),
                    Some((i % 3) as i64),
                    (i % 5 != 0).then_some(i as f64 * 0.25),
                )
            })
            .collect();
        let t = table(&rows);
        let n = t.num_rows();
        let space = DenseKeySpace::try_build(&t, &[0, 1], 1 << 20).unwrap();
        // Scalar oracle: first-appearance gid order, row-order updates.
        let mut oracle_map = DenseGroupMap::new(space.clone());
        let mut oracle: Vec<Acc> = Vec::new();
        for row in 0..n {
            let g = oracle_map.get_or_insert_row(&t, row);
            if g == oracle.len() {
                oracle.push(Acc::Sum {
                    sum: 0.0,
                    any: false,
                });
            }
            oracle[g].update_f64(t.column(2).get_f64(row));
        }
        let coder = BlockCoder::try_new(&t, &space).unwrap();
        let map = DenseGroupMap::new(space);
        let mut fused = FusedAgg::new(coder, map, sum_lanes(&t));
        let mut stats = ExecStats::default();
        fused.absorb_morsel(0..n, &mut stats);
        assert_eq!(stats.rle_runs, 0, "alternating keys take the scatter path");
        let (map, accs) = fused.into_accs();
        assert_eq!(map.len(), oracle_map.len(), "same groups in same order");
        for g in 0..map.len() {
            match (&accs[g], &oracle[g]) {
                (Acc::Sum { sum: f, any: fa }, Acc::Sum { sum: s, any: sa }) => {
                    assert_eq!(fa, sa, "gid {g}");
                    assert_eq!(f.to_bits(), s.to_bits(), "gid {g}");
                }
                _ => unreachable!(),
            }
        }
    }

    /// The three holistic functions, alone and beside `sum`/`count(*)`.
    fn holistic_lane_lists() -> Vec<Vec<AggFunc>> {
        use crate::ops::aggregate::PBits;
        let holistic = [
            AggFunc::Percentile(PBits::new(0.5)),
            AggFunc::ApproxPercentile(PBits::new(0.9)),
            AggFunc::ApproxCountDistinct,
        ];
        let mut lists: Vec<Vec<AggFunc>> = holistic.iter().map(|&f| vec![f]).collect();
        lists.extend(
            holistic
                .iter()
                .map(|&f| vec![AggFunc::Sum, f, AggFunc::CountStar]),
        );
        lists
    }

    /// What the scalar loop holds after the same rows: first-appearance
    /// group order over `key_cols`, one `Acc::update` per row per lane with
    /// the `Value` that `Expr::Col(measure)` evaluates to.
    fn scalar_oracle(
        t: &Table,
        key_cols: &[usize],
        funcs: &[AggFunc],
        measure: usize,
        budget: usize,
    ) -> Vec<Acc> {
        use crate::keymap::RowKeyMap;
        let mut st = ExecStats::default();
        let mut map = RowKeyMap::new();
        let mut accs: Vec<Acc> = Vec::new();
        for row in 0..t.num_rows() {
            let g = if key_cols.is_empty() {
                0
            } else {
                map.get_or_insert_row(t, key_cols, row, &mut st)
            };
            if (g + 1) * funcs.len() > accs.len() {
                accs.extend(funcs.iter().map(|&f| Acc::with_budget(f, budget)));
            }
            for acc in &mut accs[g * funcs.len()..][..funcs.len()] {
                acc.update(&t.column(measure).get(row)).unwrap();
            }
        }
        accs
    }

    fn assert_same_partials(fused: &[Acc], oracle: &[Acc], what: &str) {
        assert_eq!(fused.len(), oracle.len(), "{what}: accumulator count");
        for (i, (f, o)) in fused.iter().zip(oracle).enumerate() {
            assert_eq!(f.serialize(), o.serialize(), "{what}: partial bytes at {i}");
            assert_eq!(f.spilled(), o.spilled(), "{what}: spill state at {i}");
        }
    }

    /// Rows past two blocks: unsorted keys (scatter path) or key-sorted
    /// (RLE path), a float measure with NULLs (or all NULL), and an integer
    /// measure in column 1 whose values exceed 2^53 (so a lane that rounded
    /// them through `f64` would hash them wrong).
    fn holistic_rows(
        sorted: bool,
        all_null: bool,
    ) -> Vec<(Option<&'static str>, Option<i64>, Option<f64>)> {
        let n = 2 * BLOCK_ROWS + 77;
        (0..n)
            .map(|i| {
                let g = if sorted { i * 3 / n } else { i * 7 % 3 };
                (
                    Some(["a", "b", "c"][g]),
                    (i % 9 != 0).then_some((1i64 << 53) + (i % 5) as i64),
                    (!all_null && i % 11 != 0).then_some(((i * 37) % 101) as f64 - 50.0),
                )
            })
            .collect()
    }

    #[test]
    fn holistic_lanes_hold_the_scalar_loops_partial_bytes() {
        // Budget 300: with ~700 rows a group, every group crosses it in the
        // middle of a block, on the scatter path and on the run path.
        let budget = 300;
        for (sorted, all_null) in [(false, false), (true, false), (false, true)] {
            let t = table(&holistic_rows(sorted, all_null));
            let n = t.num_rows();
            for funcs in holistic_lane_lists() {
                for measure in [2usize, 1] {
                    let what =
                        format!("sorted={sorted} all_null={all_null} {funcs:?} col {measure}");
                    let lanes = || {
                        let srcs = funcs
                            .iter()
                            .map(|f| match f {
                                AggFunc::CountStar => LaneSrc::CountStar,
                                _ => LaneSrc::for_column(t.column(measure)).unwrap(),
                            })
                            .collect();
                        LaneSet::new(srcs, funcs.clone(), budget)
                    };
                    let mut stats = ExecStats::default();

                    // Dense tier.
                    let oracle = scalar_oracle(&t, &[0], &funcs, measure, budget);
                    let space = DenseKeySpace::try_build(&t, &[0], 1 << 20).unwrap();
                    let coder = BlockCoder::try_new(&t, &space).unwrap();
                    let mut fused = FusedAgg::new(coder, DenseGroupMap::new(space), lanes());
                    fused.absorb_morsel(0..n, &mut stats);
                    assert_eq!(stats.rle_runs > 0, sorted, "{what}: path taken");
                    assert_same_partials(&fused.into_accs().1, &oracle, &format!("dense {what}"));

                    // Wide tier.
                    let space = WideKeySpace::try_build(&t, &[0]).unwrap();
                    let coder = WideCoder::try_new(&t, &space).unwrap();
                    let mut fused = FusedWideAgg::new(&t, coder, space, lanes());
                    fused.absorb_morsel(0..n, &mut stats);
                    assert_same_partials(
                        &fused.into_keys_accs().1,
                        &oracle,
                        &format!("wide {what}"),
                    );

                    // Empty GROUP BY.
                    let oracle = scalar_oracle(&t, &[], &funcs, measure, budget);
                    let mut fused = FusedGlobal::new(lanes());
                    fused.absorb_morsel(0..n, &mut stats);
                    let accs = fused.into_accs().expect("rows were absorbed");
                    assert_same_partials(&accs, &oracle, &format!("global {what}"));
                    if !all_null && matches!(funcs[0], AggFunc::Percentile(_)) {
                        assert!(accs[0].spilled(), "{what}: the global group is over budget");
                    }
                }
            }
        }
        let lanes = LaneSet::new(Vec::new(), Vec::new(), budget);
        assert!(
            FusedGlobal::new(lanes).into_accs().is_none(),
            "no rows, no group"
        );
    }

    #[test]
    fn holistic_scatter_skips_sentinel_rows() {
        use crate::ops::aggregate::PBits;
        let t = table(&[
            (Some("x"), Some(1), Some(4.0)),
            (Some("x"), Some(2), Some(8.0)),
            (Some("x"), Some(3), None),
            (Some("x"), Some(4), Some(6.0)),
        ]);
        let src = LaneSrc::for_column(t.column(2)).unwrap();
        let mut lane = HolisticLane::new(AggFunc::Percentile(PBits::new(0.5)), 10).unwrap();
        lane.ensure(2);
        lane.scatter(&src, 0..4, &[1, u32::MAX, 1, 0]);
        let out: Vec<Value> = lane.into_accs().map(|acc| acc.finish()).collect();
        assert_eq!(out, vec![Value::Float(6.0), Value::Float(4.0)]);
        assert!(HolisticLane::new(AggFunc::Sum, 10).is_none());
    }
}
