//! Vectorized compressed-column kernels (DESIGN.md §12).
//!
//! The scan core's inner loops are MonetDB/X100-style *block-at-a-time*
//! kernels over compressed vectors, never a `Column::get` per lane per row
//! or an enum match per dimension per row:
//!
//! * [`Coder`] resolves each key dimension to a typed reader **once**
//!   — the NULL-folded slot vector kept beside a dictionary column or a
//!   narrow integer one ([`pa_storage::Table::key_slots`]), raw `&[i64]`
//!   plus validity words only for an integer range past 16 bits — and
//!   fills a stack block of composite codes with
//!   tight, autovectorizable loops: mixed-radix `u32` codes
//!   ([`BlockCoder`]) or, past the dense budget, shift-packed `u64` ones
//!   ([`WideCoder`]). The packed slot (`0` NULL, `code + 1` otherwise) is
//!   exactly the key space's digit, so unpack output feeds the code
//!   computation with no translation.
//! * [`LaneSrc`] / [`RawLane`] accumulate `sum`/`count` pairs straight
//!   into a dense array indexed by group id — no `Option`, no `Value`, no
//!   `Acc` enum dispatch inside the loop. `HolisticLane` is the same for
//!   `percentile` / `approx_percentile` / `approx_count_distinct`: typed
//!   per-group state (the two percentiles' shared sample set, spilled to a
//!   t-digest past the budget; HLL registers) fed from the same sources
//!   through the same two entry points, a block or a run at a time. Lanes
//!   convert to real [`Acc`]s only once per worker chunk
//!   (`LaneSet::into_accs`), so the merge/finish machinery — and therefore
//!   the output bytes — are those of one `Acc::update` per row.
//! * Run detection (`rle_runs`) lets the block loop of
//!   `crate::scan` switch to an RLE fast path when a code
//!   block is dominated by runs (sorted/clustered dimensions): one group
//!   lookup per run and register-resident accumulation, with counts added
//!   run-length at a time. Floating-point sums still add row by row in row
//!   order — never reassociated — which is what keeps a run's bits those
//!   of a row-at-a-time loop.
//! * Every other lane — `min`/`max`, `count(DISTINCT)`, a string, literal
//!   or expression input — rides the same block loop as an [`Acc`] lane:
//!   one `Acc::update` per selected row with the `Value` its expression
//!   evaluates to, fed through the same group ids.
//!
//! Which lane a function gets is decided in one place, `typed_src`: a lane
//! is typed when it is `count(*)` or a raw or holistic function over a
//! plain numeric column, an [`Acc`] lane otherwise.

use crate::error::Result;
use crate::expr::Expr;
use crate::keymap::{DenseKeySpace, DimCoder, WideKeySpace};
use crate::ops::acc::{Acc, PctState};
use crate::ops::aggregate::{AggFunc, AggSpec};
use crate::sketch::{value_hash64, Hll};
use crate::stats::ExecStats;
use pa_storage::{Column, PackedCodes, Table, Value};
use std::ops::Range;
use std::sync::Arc;

/// Rows per kernel block: the unit the fused pipelines unpack, encode, and
/// scatter at a time. Fits the code/gid scratch in L1 alongside the lane
/// data.
pub const BLOCK_ROWS: usize = 1024;

/// When a block splits into at most `len / RLE_RUN_DIVISOR` runs, the
/// run-level path beats the per-row scatter.
const RLE_RUN_DIVISOR: usize = 2;

// ---- hoisted typed column views ------------------------------------------

/// A numeric column resolved to its raw parts once per scan.
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

/// The word a composite key code packs into, and how one dimension's slot
/// takes its place in it: a mixed-radix digit of a `u32` (dense spaces,
/// the place is the dimension's stride) or a bit field of a `u64` (wide
/// spaces past the dense budget, the place is its shift). Slot 0 is NULL in
/// both, so the packed slot vectors feed either with no translation.
pub trait CodeWord: Copy + Default + PartialEq {
    /// The slot of a dictionary dimension (its NULL-folded packed code).
    fn slot(slot: u32) -> Self;
    /// The slot of an integer dimension, `value - min + 1`, or 0 when the
    /// validity bit `valid` is 0. Wrapping math masked by validity: NULL
    /// placeholders may sit arbitrarily far from `min`, the multiply by the
    /// validity bit discards whatever they wrap to.
    fn int_slot(value: i64, min: i64, valid: u64) -> Self;
    /// `code` with this slot put at `place`.
    fn put(self, place: u32, code: Self) -> Self;
}

impl CodeWord for u32 {
    #[inline]
    fn slot(slot: u32) -> u32 {
        slot
    }
    #[inline]
    fn int_slot(value: i64, min: i64, valid: u64) -> u32 {
        (value.wrapping_sub(min) as u32).wrapping_add(1) * valid as u32
    }
    #[inline]
    fn put(self, stride: u32, code: u32) -> u32 {
        code + self * stride
    }
}

impl CodeWord for u64 {
    #[inline]
    fn slot(slot: u32) -> u64 {
        u64::from(slot)
    }
    #[inline]
    fn int_slot(value: i64, min: i64, valid: u64) -> u64 {
        (value.wrapping_sub(min) as u64).wrapping_add(1) * valid
    }
    #[inline]
    fn put(self, shift: u32, code: u64) -> u64 {
        code | self << shift
    }
}

/// One key dimension resolved to a typed reader, with its slot's place in
/// the code word.
enum DimReader<'a> {
    /// Dictionary or narrow integer dimension via its NULL-folded slot
    /// vector.
    Packed {
        packed: Arc<PackedCodes>,
        place: u32,
    },
    /// Wide integer dimension: slot = `value - min + 1` masked by validity.
    Int {
        data: &'a [i64],
        vwords: &'a [u64],
        min: i64,
        place: u32,
    },
}

/// Fills blocks of composite codes of word `W`, reading every dimension
/// through a compressed or typed vector.
pub struct Coder<'a, W> {
    dims: Vec<DimReader<'a>>,
    /// Widest slot-vector dimension, for stats (`0` when no packed dim).
    pack_width: u32,
    word: std::marker::PhantomData<W>,
}

/// Mixed-radix `u32` codes for a [`DenseKeySpace`].
pub type BlockCoder<'a> = Coder<'a, u32>;

/// Shift-packed `u64` codes for a [`WideKeySpace`] — the same typed-slice
/// block discipline for key spaces past the dense budget, where codes pack
/// into bit fields instead of mixed radices.
pub type WideCoder<'a> = Coder<'a, u64>;

impl<'a> Coder<'a, u32> {
    /// Build a coder for `space` over `table`. `None` when some dimension
    /// cannot be read vectorized (unpackable dictionary) or the code space
    /// does not fit the `u32` block buffers — the scan core then groups the
    /// key by tuple hash.
    pub fn try_new(table: &'a Table, space: &DenseKeySpace) -> Option<BlockCoder<'a>> {
        if space.size() > u32::MAX as usize {
            return None;
        }
        let strides = space.strides.iter().map(|&s| s as u32);
        Coder::build(table, space.cols(), &space.dims, strides)
    }
}

impl<'a> Coder<'a, u64> {
    /// Build a coder for `space` over `table`. `None` when some dictionary
    /// dimension cannot be read through a packed vector — the scan core then
    /// groups the key by tuple hash.
    pub fn try_new(table: &'a Table, space: &WideKeySpace) -> Option<WideCoder<'a>> {
        Coder::build(
            table,
            space.cols(),
            &space.dims,
            space.shifts.iter().copied(),
        )
    }
}

impl<'a, W: CodeWord> Coder<'a, W> {
    fn build(
        table: &'a Table,
        cols: &[usize],
        coders: &[DimCoder],
        places: impl Iterator<Item = u32>,
    ) -> Option<Coder<'a, W>> {
        let mut dims = Vec::with_capacity(cols.len());
        let mut pack_width = 0u32;
        for ((&c, &coder), place) in cols.iter().zip(coders).zip(places) {
            let mut packed = |packed: &Arc<PackedCodes>| {
                pack_width = pack_width.max(packed.width());
                let packed = Arc::clone(packed);
                DimReader::Packed { packed, place }
            };
            let reader = match (table.column(c), coder) {
                (Column::Str { .. }, DimCoder::Str) => packed(table.key_slots(c)?),
                (Column::Int { data, validity }, DimCoder::Int { min }) => {
                    match table.key_slots(c) {
                        Some(slots) => packed(slots),
                        // A range past 16 bits has no slot vector: this is
                        // its only block reader.
                        None => DimReader::Int {
                            data,
                            vwords: validity.words(),
                            min,
                            place,
                        },
                    }
                }
                _ => return None,
            };
            dims.push(reader);
        }
        Some(Coder {
            dims,
            pack_width,
            word: std::marker::PhantomData,
        })
    }

    /// Widest slot-vector dimension this coder reads (0 when none).
    pub fn pack_width(&self) -> u32 {
        self.pack_width
    }

    /// Compute the composite codes of rows `start..start + out.len()` into
    /// `out`. Every loop body is branch-free over raw slices (`first` is
    /// loop-invariant: the first dimension stores, later ones combine).
    pub fn fill(&self, start: usize, out: &mut [W]) {
        let mut first = true;
        for dim in &self.dims {
            let zero = W::default();
            match dim {
                DimReader::Packed { packed, place } => packed.zip_into(start, out, |s, o| {
                    *o = W::slot(s).put(*place, if first { zero } else { *o });
                }),
                DimReader::Int {
                    data,
                    vwords,
                    min,
                    place,
                } => {
                    for (i, o) in out.iter_mut().enumerate() {
                        let row = start + i;
                        let valid = vwords[row >> 6] >> (row & 63) & 1;
                        let slot = W::int_slot(data[row], *min, valid);
                        *o = slot.put(*place, if first { zero } else { *o });
                    }
                }
            }
            first = false;
        }
        if first {
            out.fill(W::default());
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

/// The typed input of `func(input)` over `table`, the scan core's one
/// classification: a plain numeric column for `sum`/`avg`/`count` and the
/// holistic functions with a [`HolisticLane`], no input at all for
/// `count(*)`. `None` for every other lane (min/max, `count(DISTINCT)`,
/// string, literal or expression inputs), which an [`Acc`] lane feeds.
fn typed_src<'a>(func: AggFunc, input: &Expr, table: &'a Table) -> Option<LaneSrc<'a>> {
    let col = match *input {
        Expr::Col(c) if c < table.num_columns() => LaneSrc::for_column(table.column(c)),
        _ => None,
    };
    match func {
        AggFunc::CountStar => Some(LaneSrc::CountStar),
        AggFunc::Sum
        | AggFunc::Avg
        | AggFunc::Count
        | AggFunc::Percentile(_)
        | AggFunc::ApproxPercentile(_)
        | AggFunc::ApproxCountDistinct => col,
        AggFunc::Min | AggFunc::Max | AggFunc::CountDistinct => None,
    }
}

/// One lane's dense `sum`/`count` pair, indexed by group id (or any other
/// dense accumulator index). `sum` accumulates in strict row order so float
/// results match one `Acc` update per row bit for bit.
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
            // NULL rows are skipped, never masked: adding 0.0 would turn a
            // -0.0 running sum into +0.0, and the NaN placeholder would
            // poison a masked multiply.
            LaneSrc::Col(NumSlice::Float(data, vwords)) => {
                let data = &data[rows.start..rows.end];
                for (k, (&g, &x)) in idx.iter().zip(data).enumerate() {
                    let row = rows.start + k;
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
            LaneSrc::CountStar => self.pairs[g].1 += rows.len() as i64,
            LaneSrc::Col(col) => {
                let (mut sum, mut cnt) = (self.pairs[g].0, 0i64);
                col.for_each_f64(rows, |_, x| {
                    sum += x;
                    cnt += 1;
                });
                self.pairs[g].0 = sum;
                self.pairs[g].1 += cnt;
            }
        }
    }
}

/// Convert one raw `sum`/`count` pair into the [`Acc`] one update per row
/// would have produced for the same rows in the same order.
///
/// # Panics
/// On functions that have no raw pair (min/max/distinct and the holistic
/// ones, which ride a [`HolisticLane`]).
#[inline]
fn raw_acc(func: AggFunc, sum: f64, count: i64) -> Acc {
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
/// [`Acc::Percentile`] (either percentile) or [`Acc::ApproxCountDistinct`],
/// fed from a [`LaneSrc`] through the same two entry points as [`RawLane`].
/// Gray et al. call these functions holistic because their state is the
/// value set — not because they must be fed one [`Value`] at a time. Every
/// index sees its non-NULL inputs in row order, the order a row-at-a-time
/// `Acc::update` loop sees them, so the state — spill row, digest flush
/// points, registers — is that loop's state.
pub(crate) struct HolisticLane(Holistic);

enum Holistic {
    /// `percentile` or `approx_percentile`: samples in row order until the
    /// budget spills them.
    Exact {
        p: f64,
        approx: bool,
        budget: usize,
        states: Vec<PctState>,
    },
    Distinct {
        sketches: Vec<Hll>,
        memo: HashMemo,
    },
}

/// Entries of a distinct lane's [`HashMemo`].
const HASH_MEMO: usize = 1024;

/// A distinct lane's direct-mapped memo from a value's bits in its column
/// type to its [`value_hash64`]: a column of few values (a weekday) is
/// hashed once per value per worker, not once per row. The hash is the
/// one of the [`Value`] `Expr::Col` evaluates to, so an `i64` past 2^53
/// never rounds through `f64`; a lane reads one column, so its bits name
/// one value. Seeded with the hash of 0 — `Int(0)` and `Float(0.0)` hash
/// alike — so an untouched entry answers right too.
struct HashMemo(Box<[(u64, u64); HASH_MEMO]>);

impl HashMemo {
    fn new() -> HashMemo {
        HashMemo(Box::new([(0, value_hash64(&Value::Int(0))); HASH_MEMO]))
    }

    /// The entry `bits` maps to: a multiplicative hash, so integral floats
    /// (zero low mantissa bits) spread as well as small integers.
    #[inline]
    fn slot(bits: u64) -> usize {
        (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HASH_MEMO.trailing_zeros())) as usize
    }

    #[inline]
    fn hash(&mut self, bits: u64, value: impl FnOnce() -> Value) -> u64 {
        let entry = &mut self.0[HashMemo::slot(bits)];
        if entry.0 != bits {
            *entry = (bits, value_hash64(&value()));
        }
        entry.1
    }

    /// Visit the non-NULL rows of `rows` in row order as `f(k, hash)`, `k`
    /// the offset inside `rows`.
    #[inline]
    fn for_each_hash(
        &mut self,
        col: NumSlice<'_>,
        rows: Range<usize>,
        mut f: impl FnMut(usize, u64),
    ) {
        match col {
            NumSlice::Int(data, vwords) => for_each_valid(data, vwords, rows, |k, x| {
                f(k, self.hash(x as u64, || Value::Int(x)))
            }),
            NumSlice::Float(data, vwords) => for_each_valid(data, vwords, rows, |k, x| {
                f(k, self.hash(x.to_bits(), || Value::Float(x)))
            }),
        }
    }
}

impl HolisticLane {
    /// Empty lane for `func`; `None` when `func` is not one of the three
    /// holistic functions with a typed lane.
    fn new(func: AggFunc, percentile_budget: usize) -> Option<HolisticLane> {
        Some(HolisticLane(match func {
            AggFunc::Percentile(p) | AggFunc::ApproxPercentile(p) => Holistic::Exact {
                p: p.value(),
                approx: matches!(func, AggFunc::ApproxPercentile(_)),
                budget: percentile_budget,
                states: Vec::new(),
            },
            AggFunc::ApproxCountDistinct => Holistic::Distinct {
                sketches: Vec::new(),
                memo: HashMemo::new(),
            },
            _ => return None,
        }))
    }

    /// Grow to at least `n` indices.
    fn ensure(&mut self, n: usize) {
        match &mut self.0 {
            Holistic::Exact { states, .. } if states.len() < n => {
                states.resize_with(n, || PctState::Exact(Vec::new()))
            }
            Holistic::Distinct { sketches, .. } if sketches.len() < n => {
                sketches.resize_with(n, Hll::new)
            }
            _ => {}
        }
    }

    /// Scatter rows `rows.start + k` into indices `idx[k]` in row order.
    fn scatter(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, idx: &[u32]) {
        debug_assert_eq!(rows.len(), idx.len());
        let col = holistic_col(src);
        match &mut self.0 {
            Holistic::Exact { budget, states, .. } => {
                col.for_each_f64(rows, |k, x| states[idx[k] as usize].push(*budget, x))
            }
            Holistic::Distinct { sketches, memo } => {
                memo.for_each_hash(col, rows, |k, h| sketches[idx[k] as usize].insert_hash(h))
            }
        }
    }

    /// Feed one run of rows that all map to index `g`: the state is looked
    /// up once and the run's samples append to it in bulk.
    fn accumulate_run(&mut self, src: &LaneSrc<'_>, rows: Range<usize>, g: usize) {
        let col = holistic_col(src);
        match &mut self.0 {
            Holistic::Exact { budget, states, .. } => {
                let state = &mut states[g];
                col.for_each_f64(rows, |_, x| state.push(*budget, x));
            }
            Holistic::Distinct { sketches, memo } => {
                let sketch = &mut sketches[g];
                memo.for_each_hash(col, rows, |_, h| sketch.insert_hash(h));
            }
        }
    }

    /// The lane's states in index order, each as the [`Acc`] one update
    /// per row would hold — so merge, serialization and finalize are shared.
    fn into_accs(self) -> Box<dyn Iterator<Item = Acc>> {
        match self.0 {
            Holistic::Exact {
                p,
                approx,
                budget,
                states,
            } => Box::new(states.into_iter().map(move |state| Acc::Percentile {
                p,
                approx,
                budget,
                state,
            })),
            Holistic::Distinct { sketches, .. } => {
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

// ---- the lanes of one level -----------------------------------------------

/// One lane of a level with what it reads. The kind is matched once per
/// block or run, never per row.
enum Lane<'a> {
    /// `sum`/`avg`/`count`/`count(*)`: a `(sum, count)` pair per index.
    Raw {
        func: AggFunc,
        src: LaneSrc<'a>,
        lane: RawLane,
    },
    /// `percentile`/`approx_percentile`/`approx_count_distinct` over a
    /// numeric column: typed states per index.
    Holistic {
        src: LaneSrc<'a>,
        lane: HolisticLane,
    },
    /// Every other lane: an [`Acc`] per index, updated with the `Value`
    /// its expression evaluates to on each row.
    Acc {
        input: &'a Expr,
        fresh: Acc,
        accs: Vec<Acc>,
    },
}

/// The picked rows of one block of one input column, gathered so that they
/// are a dense block again: values and validity bits side by side, as a
/// column holds them.
enum Gathered {
    Int(Vec<i64>, Vec<u64>),
    Float(Vec<f64>, Vec<u64>),
}

/// Rows `base + picked[j]` of `(data, vwords)` as rows `j` of `(out, valid)`.
fn gather<T: Copy>(
    (data, vwords): (&[T], &[u64]),
    base: usize,
    picked: &[u32],
    (out, valid): (&mut Vec<T>, &mut Vec<u64>),
) {
    out.clear();
    out.extend(picked.iter().map(|&k| data[base + k as usize]));
    valid.clear();
    // The block's last picked row bounds the validity words it touches.
    let last = base + picked.last().map_or(0, |&k| k as usize);
    if vwords[base >> 6..=last >> 6].iter().all(|&w| w == u64::MAX) {
        valid.resize(picked.len().div_ceil(64), u64::MAX);
        return;
    }
    valid.resize(picked.len().div_ceil(64), 0);
    for (j, &k) in picked.iter().enumerate() {
        let row = base + k as usize;
        valid[j >> 6] |= (vwords[row >> 6] >> (row & 63) & 1) << (j & 63);
    }
}

/// One worker's gather scratch for one code stream: a slot per distinct
/// input column, shared by every lane of every level that reads the column
/// — `sum(a), count(a), avg(a)` at three levels copy `a` once per block —
/// and, when an [`Acc`] lane evaluates its expression, the table row each
/// picked row is.
#[derive(Default)]
pub(crate) struct GatherScratch<'a> {
    cols: Vec<(NumSlice<'a>, Gathered)>,
    /// Whether some lane reads `rows`.
    keep_rows: bool,
    rows: Vec<usize>,
}

impl<'a> GatherScratch<'a> {
    /// The slot `lane` reads its gathered input from, added when no lane
    /// read the column before; `None` for `count(*)`, which reads no input,
    /// and for an [`Acc`] lane, which reads the table at the picked rows.
    fn slot_of(&mut self, lane: &Lane<'a>) -> Option<usize> {
        let col = match lane {
            Lane::Raw { src, .. } | Lane::Holistic { src, .. } => match src {
                LaneSrc::Col(col) => col,
                LaneSrc::CountStar => return None,
            },
            Lane::Acc { .. } => {
                self.keep_rows = true;
                return None;
            }
        };
        let same = |held: &NumSlice<'_>| match (held, col) {
            (NumSlice::Int(a, _), NumSlice::Int(b, _)) => std::ptr::eq(*a, *b),
            (NumSlice::Float(a, _), NumSlice::Float(b, _)) => std::ptr::eq(*a, *b),
            _ => false,
        };
        let held = self.cols.iter().position(|(held, _)| same(held));
        Some(held.unwrap_or_else(|| {
            let own = match col {
                NumSlice::Int(..) => Gathered::Int(Vec::new(), Vec::new()),
                NumSlice::Float(..) => Gathered::Float(Vec::new(), Vec::new()),
            };
            self.cols.push((*col, own));
            self.cols.len() - 1
        }))
    }

    /// Gather rows `base + picked[j]` of every column as its row `j`.
    pub(crate) fn gather(&mut self, base: usize, picked: &[u32]) {
        for (col, own) in &mut self.cols {
            match (col, own) {
                (NumSlice::Int(data, vwords), Gathered::Int(out, valid)) => {
                    gather((data, vwords), base, picked, (out, valid))
                }
                (NumSlice::Float(data, vwords), Gathered::Float(out, valid)) => {
                    gather((data, vwords), base, picked, (out, valid))
                }
                _ => unreachable!("a slot holds its column's type"),
            }
        }
        if self.keep_rows {
            self.rows.clear();
            self.rows.extend(picked.iter().map(|&k| base + k as usize));
        }
    }

    /// The gathered block of `slot`, read as the column it copies.
    fn src(&self, slot: usize) -> LaneSrc<'_> {
        LaneSrc::Col(match &self.cols[slot].1 {
            Gathered::Int(data, valid) => NumSlice::Int(data, valid),
            Gathered::Float(data, valid) => NumSlice::Float(data, valid),
        })
    }
}

/// The lanes of one grouping level with their sources: per-run and
/// per-block feeding, and the collapse into the `groups × lanes` [`Acc`]
/// matrix. What an index means — a first-appearance group id or the level
/// code itself — is the caller's business (the group index of
/// `crate::scan`).
///
/// A block the statement's selection thinned is fed *gathered*: its picked
/// rows copied out per input column ([`GatherScratch::gather`]) into a dense
/// block of their own, which then takes the same two entry points with the
/// scratch in hand and row numbers counted from 0. No lane has a selected
/// variant.
pub(crate) struct LaneSet<'a> {
    /// The table the lanes read, which [`Lane::Acc`] expressions evaluate
    /// against.
    table: &'a Table,
    lanes: Vec<Lane<'a>>,
    /// Where each lane's input is gathered; `None` for `count(*)` and
    /// [`Lane::Acc`].
    slots: Vec<Option<usize>>,
    /// Whether some lane is a [`Lane::Acc`].
    evals: bool,
}

impl<'a> LaneSet<'a> {
    /// One lane per aggregate of `aggs` over `table`: typed when
    /// `typed_src` reads its input, an [`Acc`] lane otherwise. The lanes'
    /// input columns take their slots in `scratch`.
    pub(crate) fn new(
        table: &'a Table,
        aggs: &'a [AggSpec],
        percentile_budget: usize,
        scratch: &mut GatherScratch<'a>,
    ) -> LaneSet<'a> {
        let lane = |spec: &'a AggSpec| match typed_src(spec.func, &spec.input, table) {
            Some(src) => match HolisticLane::new(spec.func, percentile_budget) {
                Some(lane) => Lane::Holistic { src, lane },
                None => Lane::Raw {
                    func: spec.func,
                    src,
                    lane: RawLane::default(),
                },
            },
            None => Lane::Acc {
                input: &spec.input,
                fresh: Acc::with_budget(spec.func, percentile_budget),
                accs: Vec::new(),
            },
        };
        let lanes: Vec<Lane<'a>> = aggs.iter().map(lane).collect();
        let slots = lanes.iter().map(|lane| scratch.slot_of(lane)).collect();
        let evals = lanes.iter().any(|lane| matches!(lane, Lane::Acc { .. }));
        LaneSet {
            table,
            lanes,
            slots,
            evals,
        }
    }

    /// Grow every lane to at least `n` indices, and feed each typed lane
    /// with the source it reads this block from: its column, or the
    /// column's block in `gathered`.
    fn feed_typed(
        &mut self,
        n: usize,
        gathered: Option<&GatherScratch<'_>>,
        mut raw: impl FnMut(&mut RawLane, &LaneSrc<'_>),
        mut holistic: impl FnMut(&mut HolisticLane, &LaneSrc<'_>),
    ) {
        for (lane, slot) in self.lanes.iter_mut().zip(&self.slots) {
            let read = |src: &LaneSrc<'a>| match (gathered, slot) {
                (Some(scratch), Some(slot)) => scratch.src(*slot),
                _ => *src,
            };
            match lane {
                Lane::Raw { src, lane, .. } => {
                    lane.ensure(n);
                    raw(lane, &read(src));
                }
                Lane::Holistic { src, lane } => {
                    lane.ensure(n);
                    holistic(lane, &read(src));
                }
                Lane::Acc { fresh, accs, .. } => {
                    if accs.len() < n {
                        accs.resize(n, fresh.clone());
                    }
                }
            }
        }
    }

    /// Update the [`Acc`] lanes with rows `rows`, row `rows.start + k` into
    /// index `index(k)`: each row's lanes in lane order, with the `Value`
    /// `Expr::eval` gives at the table row it is.
    fn update_accs(
        &mut self,
        rows: Range<usize>,
        index: impl Fn(usize) -> usize,
        gathered: Option<&GatherScratch<'_>>,
        stats: &mut ExecStats,
    ) -> Result<()> {
        if !self.evals {
            return Ok(());
        }
        for (k, row) in rows.enumerate() {
            let row = gathered.map_or(row, |scratch| scratch.rows[row]);
            let g = index(k);
            for lane in &mut self.lanes {
                if let Lane::Acc { input, accs, .. } = lane {
                    accs[g].update(&input.eval(self.table, row, stats)?)?;
                }
            }
        }
        Ok(())
    }

    /// Feed one run of rows that all belong to index `g`.
    #[inline]
    pub(crate) fn accumulate_run(
        &mut self,
        rows: Range<usize>,
        g: usize,
        gathered: Option<&GatherScratch<'_>>,
        stats: &mut ExecStats,
    ) -> Result<()> {
        self.feed_typed(
            g + 1,
            gathered,
            |lane, src| lane.accumulate_run(src, rows.clone(), g),
            |lane, src| lane.accumulate_run(src, rows.clone(), g),
        );
        self.update_accs(rows, |_| g, gathered, stats)
    }

    /// Scatter one block: row `rows.start + k` belongs to index `idx[k]`,
    /// all below `n`.
    #[inline]
    pub(crate) fn scatter(
        &mut self,
        rows: Range<usize>,
        idx: &[u32],
        n: usize,
        gathered: Option<&GatherScratch<'_>>,
        stats: &mut ExecStats,
    ) -> Result<()> {
        self.feed_typed(
            n,
            gathered,
            |lane, src| lane.scatter(src, rows.clone(), idx),
            |lane, src| lane.scatter(src, rows.clone(), idx),
        );
        self.update_accs(rows, |k| idx[k] as usize, gathered, stats)
    }

    /// Collapse into the flat `n_groups × lanes` [`Acc`] matrix, so merge
    /// and finish are shared.
    pub(crate) fn into_accs(self, n_groups: usize) -> Vec<Acc> {
        let mut columns: Vec<Box<dyn Iterator<Item = Acc>>> = self
            .lanes
            .into_iter()
            .map(|lane| -> Box<dyn Iterator<Item = Acc>> {
                match lane {
                    Lane::Raw { func, mut lane, .. } => {
                        lane.ensure(n_groups);
                        Box::new(
                            lane.pairs
                                .into_iter()
                                .map(move |(sum, count)| raw_acc(func, sum, count)),
                        )
                    }
                    Lane::Holistic { mut lane, .. } => {
                        lane.ensure(n_groups);
                        lane.into_accs()
                    }
                    Lane::Acc {
                        fresh, mut accs, ..
                    } => {
                        accs.resize(n_groups, fresh);
                        Box::new(accs.into_iter())
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

// ---- block and run iteration -----------------------------------------------

/// The block ranges of one morsel, in row order.
pub(crate) fn blocks(morsel: Range<usize>) -> impl Iterator<Item = Range<usize>> {
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
pub(crate) fn rle_runs<C: Copy + PartialEq>(codes: &[C]) -> Option<usize> {
    // Neighbours zipped and counted in `u32` (a block is far shorter): the
    // form the compiler turns into packed compares.
    let changes: u32 = codes
        .iter()
        .zip(codes.get(1..).unwrap_or_default())
        .map(|(a, b)| u32::from(a != b))
        .sum();
    let runs = changes as usize + 1;
    (runs * RLE_RUN_DIVISOR <= codes.len()).then_some(runs)
}

/// Visit the maximal equal-code runs of a block, in order, as
/// `f(offsets, code)`, stopping at the first error.
#[inline]
pub(crate) fn for_each_run<C: Copy + PartialEq>(
    codes: &[C],
    mut f: impl FnMut(Range<usize>, C) -> Result<()>,
) -> Result<()> {
    let mut i = 0usize;
    while i < codes.len() {
        let code = codes[i];
        let mut j = i + 1;
        while j < codes.len() && codes[j] == code {
            j += 1;
        }
        f(i..j, code)?;
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::PBits;
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
    fn num_slice_visits_what_get_f64_reads() {
        let t = table(&[
            (Some("x"), Some(3), Some(1.5)),
            (None, None, None),
            (Some("y"), Some(-2), Some(-0.0)),
        ]);
        for c in 1..=2 {
            let col = t.column(c);
            let mut seen = vec![None; t.num_rows()];
            let slice = NumSlice::for_column(col).unwrap();
            slice.for_each_f64(0..t.num_rows(), |k, x| seen[k] = Some(x.to_bits()));
            let want: Vec<_> = (0..t.num_rows())
                .map(|row| col.get_f64(row).map(f64::to_bits))
                .collect();
            assert_eq!(seen, want, "col {c}");
        }
        assert!(NumSlice::for_column(t.column(0)).is_none());
    }

    #[test]
    fn lanes_over_one_column_share_one_gathered_block() {
        // Two levels' lane sets over one scratch: `a` is read by four lanes
        // and gathered once, `d` once, `count(*)` not at all — and every
        // lane reads from the scratch what it would read from a table
        // holding the picked rows only.
        let rows: Vec<_> = (0..150)
            .map(|i| {
                (
                    None,
                    (i % 7 != 0).then_some(i as i64 - 9),
                    (i % 5 != 0).then_some(i as f64 * 0.5),
                )
            })
            .collect();
        let (base, picked): (usize, Vec<u32>) = (20, (0..120).filter(|k| k % 3 != 1).collect());
        let t = table(&rows);
        let kept: Vec<_> = picked.iter().map(|&k| rows[base + k as usize]).collect();
        let copy = table(&kept);
        let spec = |func, input| AggSpec::new(func, input, "x");
        let lists = [
            vec![
                spec(AggFunc::Sum, Expr::Col(2)),
                spec(AggFunc::Count, Expr::Col(2)),
                spec(AggFunc::CountStar, Expr::lit(1)),
                spec(AggFunc::Avg, Expr::Col(2)),
                spec(AggFunc::Sum, Expr::Col(1)),
            ],
            vec![
                spec(AggFunc::Percentile(PBits::new(0.5)), Expr::Col(2)),
                // Acc lanes: evaluated at the table row each picked row is.
                spec(AggFunc::Min, Expr::Col(1)),
                spec(AggFunc::Sum, Expr::Col(2).add(Expr::Col(1))),
            ],
        ];
        let lanes_over =
            |t, scratch: &mut _| lists.each_ref().map(|l| LaneSet::new(t, l, 1000, scratch));
        let mut scratch = GatherScratch::default();
        let gathered = lanes_over(&t, &mut scratch);
        assert_eq!(scratch.cols.len(), 2, "one slot per distinct column");
        scratch.gather(base, &picked);
        let copied = lanes_over(&copy, &mut GatherScratch::default());
        let idx: Vec<u32> = (0..picked.len() as u32).map(|j| j % 4).collect();
        let st = &mut ExecStats::default();
        for (mut got, mut want) in gathered.into_iter().zip(copied) {
            // A scatter over the first half, one run over the rest.
            let half = picked.len() / 2;
            got.scatter(0..half, &idx[..half], 4, Some(&scratch), st)
                .unwrap();
            want.scatter(0..half, &idx[..half], 4, None, st).unwrap();
            let rest = half..picked.len();
            got.accumulate_run(rest.clone(), 2, Some(&scratch), st)
                .unwrap();
            want.accumulate_run(rest, 2, None, st).unwrap();
            let bytes = |set: LaneSet<'_>| -> Vec<_> {
                set.into_accs(4).iter().map(Acc::serialize).collect()
            };
            assert_eq!(bytes(got), bytes(want));
        }
    }

    /// At the spill boundary — `budget` and `budget + 1` samples, NaN, ±0.0
    /// and NULLs among them — `percentile` and `approx_percentile` spill at
    /// the same row, a lane (a scatter, then a run) holds the bytes one
    /// `Acc::update` per row holds, and the two functions' frames differ in
    /// their tag alone (and so their CRC), their answers not at all.
    #[test]
    fn both_percentiles_spill_at_the_same_row_on_every_path() {
        const BUDGET: usize = 6;
        let pattern = [f64::NAN, -0.0, 0.0, 2.5, -1.0, f64::NAN, 0.0, -0.0, 7.0];
        let funcs = [
            AggFunc::Percentile(PBits::new(0.25)),
            AggFunc::ApproxPercentile(PBits::new(0.25)),
        ];
        for samples in [BUDGET, BUDGET + 1] {
            // Every fourth row is NULL (a NaN placeholder under it).
            let (mut data, mut valid) = (Vec::new(), Vec::new());
            while valid.iter().filter(|&&v| v).count() < samples {
                data.push(pattern[data.len() % pattern.len()]);
                valid.push(data.len() % 4 != 0);
            }
            let rows = data.len();
            let mut vwords = vec![0u64; rows.div_ceil(64)];
            (0..rows)
                .filter(|&k| valid[k])
                .for_each(|k| vwords[k >> 6] |= 1 << (k & 63));
            let value = |k: usize| match valid[k] {
                true => Value::Float(data[k]),
                false => Value::Null,
            };
            let src = LaneSrc::Col(NumSlice::Float(&data, &vwords));
            let mut answers = Vec::new();
            let mut frames = Vec::new();
            for func in funcs {
                let mut lane = HolisticLane::new(func, BUDGET).unwrap();
                lane.ensure(1);
                let half = rows / 2;
                lane.scatter(&src, 0..half, &vec![0; half]);
                lane.accumulate_run(&src, half..rows, 0);
                let got = lane.into_accs().next().unwrap();
                let mut want = Acc::with_budget(func, BUDGET);
                (0..rows).for_each(|k| want.update(&value(k)).unwrap());
                assert_eq!(got.spilled(), samples > BUDGET, "{func:?} {samples}");
                assert_eq!(got.serialize(), want.serialize(), "{func:?} {samples}");
                frames.push(got.serialize());
                answers.push(got.finish().as_f64().map(f64::to_bits));
            }
            let strip = |f: &Vec<u8>| f[4..f.len() - 4].to_vec();
            assert_eq!(strip(&frames[0]), strip(&frames[1]), "{samples} samples");
            assert_eq!(answers[0], answers[1], "{samples} samples");
            // Row by row, the two functions spill at the same row.
            let [mut exact, mut approx] = funcs.map(|f| Acc::with_budget(f, BUDGET));
            for k in 0..rows {
                exact.update(&value(k)).unwrap();
                approx.update(&value(k)).unwrap();
                assert_eq!(exact.spilled(), approx.spilled(), "row {k}");
            }
        }
    }

    /// A distinct lane's registers are those of `Hll::insert(&Value)` over
    /// the same rows: values that evict each other from one memo entry,
    /// `-0.0` beside `0.0`, NaN payloads, integral floats (which hash as
    /// ints), `i64` past 2^53, and fresh lanes whose first value is the
    /// memo's seed or its negative zero. Every fifth row is NULL.
    #[test]
    fn distinct_lane_sketches_equal_value_inserts() {
        let registers = |col: NumSlice<'_>, rows: usize| -> Vec<Vec<u8>> {
            // A scatter over two groups, then one run into the second.
            let mut lane = HolisticLane::new(AggFunc::ApproxCountDistinct, 0).unwrap();
            lane.ensure(2);
            let half = rows / 2;
            let idx: Vec<u32> = (0..half as u32).map(|k| k % 2).collect();
            lane.scatter(&LaneSrc::Col(col), 0..half, &idx);
            lane.accumulate_run(&LaneSrc::Col(col), half..rows, 1);
            let regs = |acc| match acc {
                Acc::ApproxCountDistinct(h) => h.registers().to_vec(),
                _ => unreachable!("a distinct lane holds sketches"),
            };
            lane.into_accs().map(regs).collect()
        };
        let reference = |values: &[Value]| -> Vec<Vec<u8>> {
            let mut sketches = [Hll::new(), Hll::new()];
            let half = values.len() / 2;
            for (k, v) in values.iter().enumerate() {
                if k % 5 != 4 {
                    sketches[if k < half { k % 2 } else { 1 }].insert(v);
                }
            }
            sketches.iter().map(|h| h.registers().to_vec()).collect()
        };
        let validity = |rows: usize| -> Vec<u64> {
            let mut words = vec![0u64; rows.div_ceil(64)];
            (0..rows)
                .filter(|k| k % 5 != 4)
                .for_each(|k| words[k >> 6] |= 1 << (k & 63));
            words
        };
        let colliding = |first: u64, next: &dyn Fn(u64) -> u64| {
            let slot = HashMemo::slot(first);
            let mut bits = next(first);
            while HashMemo::slot(bits) != slot {
                bits = next(bits);
            }
            bits
        };
        let (a, b) = (7u64, colliding(7, &|v| v + 1));
        let (fa, fb) = (0.5f64, colliding(0.5f64.to_bits(), &|v| v + 1));
        let ints: [Vec<i64>; 4] = [
            (0..64).map(|k| [a, b][k % 2] as i64).collect(),
            vec![0, 0, 1, 0],
            vec![
                (1 << 53) + 1,
                1 << 53,
                i64::MAX,
                i64::MIN,
                -1,
                0,
                3,
                (1 << 53) + 1,
            ],
            vec![-7],
        ];
        for data in &ints {
            let vwords = validity(data.len());
            let values: Vec<Value> = data.iter().map(|&x| Value::Int(x)).collect();
            let got = registers(NumSlice::Int(data, &vwords), data.len());
            assert_eq!(got, reference(&values), "{data:?}");
        }
        let floats: [Vec<f64>; 6] = [
            (0..64)
                .map(|k| f64::from_bits([fa.to_bits(), fb][k % 2]))
                .collect(),
            vec![0.0, -0.0, 1.0],
            vec![-0.0, 0.0, -0.0, 2.0],
            vec![
                f64::NAN,
                f64::from_bits(0x7ff0_0000_0000_0001),
                -f64::NAN,
                f64::from_bits(0xfff8_0000_0000_0042),
                0.1,
            ],
            vec![
                3.0,
                3.5,
                1e15,
                9007199254740994.0,
                2f64.powi(63),
                -2f64.powi(63),
                1e300,
            ],
            vec![f64::INFINITY, f64::NEG_INFINITY, 3.0, -0.5, 7.0],
        ];
        for data in &floats {
            let vwords = validity(data.len());
            let values: Vec<Value> = data.iter().map(|&x| Value::Float(x)).collect();
            let got = registers(NumSlice::Float(data, &vwords), data.len());
            assert_eq!(got, reference(&values), "{data:?}");
        }
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
}
