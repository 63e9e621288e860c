//! The scan core: the one group-by scan behind `multi_hash_aggregate`,
//! `lattice_aggregate`, `partial_aggregate`, `pivot_aggregate` and
//! `distinct` (DESIGN.md §16).
//!
//! Gray et al. observe that GROUP BY is the one-level cube, and the paper
//! that every total `Fj` is a projection of the finest grouping `Fk`. The
//! core says both once. A [`ScanPlan`] is a list of **code streams**
//! scanned together, morsel by morsel, in one pass over the input, and one
//! block loop ([`StreamScan::absorb`]) runs every one of them:
//!
//! * A stream's [`Coder`] fills `u32` mixed-radix codes within the dense
//!   budget (or the one code of an empty GROUP BY), `u64` shift-packed
//!   codes past it. A key neither coder packs — a `Float` dimension, an
//!   integer range whose span overflows, more than 64 bits of slots — is a
//!   stream of its own whose codes are the row numbers themselves, grouped
//!   by a [`TupleIndex`] over the rows' key fragments.
//! * One or more **levels** read a stream. A level takes the stream's code
//!   through an optional *projection* (a dense jump table, a wide
//!   mask-and-shift) into its *group index* — a [`DenseGroupMap`] for a
//!   dense code space, a hash of the one integer for a wide one, the tuple
//!   hash for rows; the space alone decides, never the adapter — and feeds
//!   the block into its [`LaneSet`]: typed lanes for the numeric and
//!   holistic functions, an `Acc` per group for every other lane, with the
//!   RLE run path when a block is run-dominated.
//!
//! The plan's fourth input is the statement's **selection** (`WHERE`, an SPJ
//! combination): one bit per row, computed once per statement
//! ([`Selection::compile`]) and applied here, per block, before anything
//! else sees the block. A block whose bits are all ones is the unselected
//! path untouched; an all-zero block is skipped; a mixed block is *gathered*
//! — its picked rows' codes and lane inputs compacted into a dense block —
//! and then takes the same path, run detection included. An unselected row
//! therefore reaches neither a group index nor a lane, so every level holds
//! exactly what it would hold after a scan of `filter(F)`, in the same
//! first-appearance order; the empty key keeps its one group over an empty
//! selection.
//!
//! Every index assigns groups in first-appearance order and every worker
//! returns its groups *by code* ([`LevelGroups`]); [`fan_out`] merges
//! workers in row order by code, and keys are decoded once, from the
//! merged codes, by whoever formats the result. `multi_hash_aggregate` is
//! "one stream per level, no projection", the lattice is "one stream, N
//! projected levels" — or, when the finest key does not code, the same plan
//! `multi_hash_aggregate` makes of its levels — and both finish their
//! levels as typed tables through one sequence (`ops::aggregate`); a
//! partial is "one level, stop before finish", `distinct` is "one level,
//! no lanes" — a level's aggregate list may be empty, and then only its
//! keys are scanned for.

use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::keymap::{
    gather_key, DenseGroupMap, DenseKeySpace, RowKeyMap, TupleIndex, WideKeySpace, WideProjector,
};
use crate::ops::acc::Acc;
use crate::ops::aggregate::AggSpec;
use crate::parallel::{fan_out, ParallelConfig};
use crate::predicate::{Pick, Selected, Selection};
use crate::stats::ExecStats;
use crate::vector::{
    blocks, for_each_run, rle_runs, BlockCoder, CodeWord, Coder, GatherScratch, LaneSet, WideCoder,
    BLOCK_ROWS,
};
use pa_obs::SpanHandle;
use pa_storage::{Column, FxHashMap, Table, Value};
use std::ops::Range;

// ---- code streams -----------------------------------------------------------

/// A code word the block loop is generic over: how a level's code derives
/// from the codes its stream's [`Coder`] fills.
trait StreamCode: CodeWord + Sync {
    /// A projection of a stream's codes onto a sub-key's codes.
    type Proj: Sync + 'static;
    fn project(proj: &Self::Proj, code: Self) -> Self;
    fn widen(self) -> u64;
    /// The code of row `row` in a stream without a coder.
    fn of_row(row: usize) -> Self;
}

impl StreamCode for u32 {
    /// Radix jump table, [`DenseKeySpace::projection_table`].
    type Proj = Vec<u32>;
    #[inline]
    fn project(jump: &Vec<u32>, code: u32) -> u32 {
        jump[code as usize]
    }
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
    fn of_row(row: usize) -> u32 {
        row as u32
    }
}

impl StreamCode for u64 {
    type Proj = WideProjector;
    #[inline]
    fn project(proj: &WideProjector, code: u64) -> u64 {
        proj.project(code)
    }
    #[inline]
    fn widen(self) -> u64 {
        self
    }
    fn of_row(row: usize) -> u64 {
        row as u64
    }
}

/// The code space of one level: what decodes its codes back into keys.
#[derive(Debug, Clone)]
enum LevelSpace {
    Dense(DenseKeySpace),
    Wide(WideKeySpace),
    /// Row numbers over these key columns, grouped by tuple hash.
    Rows(Vec<usize>),
}

impl LevelSpace {
    /// The space of the empty key: one code, one group.
    fn keyless(&self) -> bool {
        match self {
            LevelSpace::Dense(space) => space.cols().is_empty(),
            LevelSpace::Wide(space) => space.cols().is_empty(),
            LevelSpace::Rows(_) => false,
        }
    }
}

/// One level of a code stream, as planned: its key and its own lanes.
struct FusedLevel<'a, P> {
    /// `None`: the level keeps every dimension, its code is the stream's
    /// (skipping the identity jump-table load matters — on a code space
    /// that outgrows L1 that load is the scan's largest single cost).
    proj: Option<P>,
    space: LevelSpace,
    aggs: &'a [AggSpec],
}

/// One code stream and the levels reading it.
struct Stream<'a, W: StreamCode> {
    /// `None`: the codes are the row numbers.
    coder: Option<Coder<'a, W>>,
    /// No key at all (the empty GROUP BY): nothing to code.
    keyless: bool,
    levels: Vec<FusedLevel<'a, W::Proj>>,
}

// ---- group indexes ------------------------------------------------------------

/// A level's code → group id assignment, in first-appearance order; lanes
/// and accumulators are indexed by the gid.
enum GroupIndex {
    /// A code→gid array over a dense space.
    Dense(DenseGroupMap),
    /// A hash of the code, for wide spaces.
    Hash {
        space: WideKeySpace,
        map: FxHashMap<u64, u32>,
        order: Vec<u64>,
    },
    /// The codes are rows, grouped by their key tuples; a group's code is
    /// its first row.
    Rows(TupleIndex),
}

impl GroupIndex {
    fn new(space: &LevelSpace) -> GroupIndex {
        match space {
            LevelSpace::Dense(space) => GroupIndex::Dense(DenseGroupMap::new(space.clone())),
            LevelSpace::Wide(space) => GroupIndex::Hash {
                space: space.clone(),
                map: FxHashMap::default(),
                order: Vec::new(),
            },
            LevelSpace::Rows(cols) => GroupIndex::Rows(TupleIndex::new(cols.clone())),
        }
    }

    /// Groups seen so far.
    fn len(&self) -> usize {
        match self {
            GroupIndex::Dense(map) => map.len(),
            GroupIndex::Hash { order, .. } => order.len(),
            GroupIndex::Rows(index) => index.len(),
        }
    }

    /// The level code of group `gid`.
    fn code(&self, gid: usize) -> u64 {
        match self {
            GroupIndex::Dense(map) => u64::from(map.codes()[gid]),
            GroupIndex::Hash { order, .. } => order[gid],
            GroupIndex::Rows(index) => u64::from(index.first(gid)),
        }
    }

    /// Key dimension `d` of group `gid`, decoded against the scanned table.
    fn key_value(&self, input: &Table, gid: usize, d: usize) -> Value {
        match self {
            GroupIndex::Dense(map) => map.key_value(input, gid, d),
            GroupIndex::Hash { space, order, .. } => space.key_value(input, order[gid], d),
            GroupIndex::Rows(index) => {
                let first = index.first(gid) as usize;
                input.column(index.cols()[d]).get(first)
            }
        }
    }

    /// Key dimension `d` of the groups `gids`, in that order, as a column.
    fn key_column(
        &self,
        input: &Table,
        d: usize,
        gids: impl ExactSizeIterator<Item = usize>,
    ) -> Column {
        match self {
            GroupIndex::Dense(map) => map.key_column(input, d, gids),
            GroupIndex::Hash { space, order, .. } => {
                let slots = gids.map(|gid| space.slot(order[gid], d) as usize);
                space.dims[d].decode(input.column(space.cols()[d]), slots)
            }
            GroupIndex::Rows(index) => {
                let firsts: Vec<u32> = gids.map(|gid| index.first(gid)).collect();
                gather_key(input.column(index.cols()[d]), &firsts)
            }
        }
    }

    /// Group id of `code`, inserting when unseen — the merge's form; a
    /// scan resolves the index kind outside its row loops ([`feed`]).
    fn gid(&mut self, input: &Table, code: u64, stats: &mut ExecStats) -> usize {
        match self {
            GroupIndex::Dense(map) => map.get_or_insert_code(code as usize),
            GroupIndex::Hash { map, order, .. } => hash_gid(map, order, code, stats),
            GroupIndex::Rows(index) => index.gid_of_row(input, code as usize, stats),
        }
    }
}

/// Group id for a wide code, inserting in first-appearance order.
#[inline]
fn hash_gid(
    map: &mut FxHashMap<u64, u32>,
    order: &mut Vec<u64>,
    code: u64,
    stats: &mut ExecStats,
) -> usize {
    stats.hash_probes += 1;
    *map.entry(code).or_insert_with(|| {
        stats.hash_build_rows += 1;
        order.push(code);
        order.len() as u32 - 1
    }) as usize
}

// ---- the block loop -----------------------------------------------------------

/// What one unit of the plan does on one worker chunk.
trait UnitScan {
    fn absorb(&mut self, morsel: Range<usize>, stats: &mut ExecStats) -> Result<()>;
    /// Append this unit's levels, in plan order.
    fn finish(self: Box<Self>, out: &mut Vec<LevelGroups>);
}

/// A planned unit: instantiated once per worker chunk of `plan`'s scan.
trait Unit<'a>: Sync {
    fn begin<'p>(&'p self, plan: &'p ScanPlan<'a>) -> Box<dyn UnitScan + 'p>;
}

/// One worker's state for one code stream.
struct StreamScan<'p, 'a, W: StreamCode> {
    plan: &'p Stream<'a, W>,
    input: &'a Table,
    levels: Vec<(GroupIndex, LaneSet<'a>)>,
    codes: Box<[W; BLOCK_ROWS]>,
    idx: Box<[u32; BLOCK_ROWS]>,
    /// The statement's selection, with room for one block's picked rows.
    selection: Option<(&'a Selection, Box<[u32; BLOCK_ROWS]>)>,
    /// Those rows of every column a lane reads, gathered once per block.
    scratch: GatherScratch<'a>,
}

impl<'a, W: StreamCode> Unit<'a> for Stream<'a, W> {
    fn begin<'p>(&'p self, plan: &'p ScanPlan<'a>) -> Box<dyn UnitScan + 'p> {
        let mut scratch = GatherScratch::default();
        let (input, budget) = (plan.input, plan.config.percentile_budget);
        let levels = self
            .levels
            .iter()
            .map(|level| {
                let mut index = GroupIndex::new(&level.space);
                // An empty key has its one group from the start: SQL's
                // global aggregate is a row even over no rows.
                if level.space.keyless() {
                    index.gid(input, 0, &mut ExecStats::default());
                }
                let lanes = LaneSet::new(input, level.aggs, budget, &mut scratch);
                (index, lanes)
            })
            .collect();
        Box::new(StreamScan {
            plan: self,
            input,
            levels,
            codes: Box::new([W::default(); BLOCK_ROWS]),
            idx: Box::new([0; BLOCK_ROWS]),
            selection: plan.selection.map(|s| (s, Box::new([0; BLOCK_ROWS]))),
            scratch,
        })
    }
}

impl<W: StreamCode> UnitScan for StreamScan<'_, '_, W> {
    /// The block loop: pick the selected rows → fill codes → detect runs →
    /// per level, project and index → feed lanes. A row counts once per
    /// stream.
    fn absorb(&mut self, morsel: Range<usize>, stats: &mut ExecStats) -> Result<()> {
        for block in blocks(morsel) {
            // The rows the statement selected, when they are not the whole
            // block: one test per block, none per row, without a selection.
            let picked = match &mut self.selection {
                None => None,
                Some((selection, picked)) => match selection.pick(&block, picked) {
                    Pick::All => None,
                    Pick::None => continue,
                    Pick::Some(n) => Some(&picked[..n]),
                },
            };
            // What the lanes read: the block's own rows, or its picked rows
            // gathered into a dense block of their own.
            let rows = match picked {
                None => block.clone(),
                Some(picked) => {
                    self.scratch.gather(block.start, picked);
                    0..picked.len()
                }
            };
            let gathered = picked.map(|_| &self.scratch);
            stats.vectorized_kernel_rows += rows.len() as u64;
            if self.plan.keyless {
                // Every block is one run into the one (pre-seeded) group.
                stats.rle_runs += 1;
                for (_, lanes) in &mut self.levels {
                    lanes.accumulate_run(rows.clone(), 0, gathered, stats)?;
                }
                continue;
            }
            let codes = &mut self.codes[..block.len()];
            match &self.plan.coder {
                Some(coder) => coder.fill(block.start, codes),
                None => (codes.iter_mut().zip(block.clone())).for_each(|(c, r)| *c = W::of_row(r)),
            }
            if let Some(picked) = picked {
                for (j, &k) in picked.iter().enumerate() {
                    codes[j] = codes[k as usize];
                }
            }
            let codes = &codes[..rows.len()];
            let runs = rle_runs(codes);
            stats.rle_runs += runs.unwrap_or(0) as u64;
            let idx = &mut self.idx[..rows.len()];
            let rows = (&rows, gathered, self.input);
            for (level, (index, lanes)) in self.plan.levels.iter().zip(&mut self.levels) {
                let rle = runs.is_some();
                match &level.proj {
                    None => feed(index, lanes, rows, codes, rle, idx, |c| c, stats)?,
                    Some(proj) => {
                        let project = |c| W::project(proj, c);
                        feed(index, lanes, rows, codes, rle, idx, project, stats)?
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>, out: &mut Vec<LevelGroups>) {
        for (index, lanes) in self.levels {
            let accs = lanes.into_accs(index.len());
            out.push(LevelGroups { index, accs });
        }
    }
}

/// The rows one block feeds its lanes: the table's own, or — with the
/// scratch that holds them — the gathered copies of a block the selection
/// thinned; and the table they are rows of.
type BlockRows<'b> = (&'b Range<usize>, Option<&'b GatherScratch<'b>>, &'b Table);

/// Feed one block to one level. The projection and the index kind are both
/// resolved here, outside the row loops, so each of their combinations
/// compiles to its own tight loop.
#[allow(clippy::too_many_arguments)]
#[inline]
fn feed<W: StreamCode>(
    index: &mut GroupIndex,
    lanes: &mut LaneSet<'_>,
    rows: BlockRows<'_>,
    codes: &[W],
    rle: bool,
    idx: &mut [u32],
    projection: impl Fn(W) -> W,
    stats: &mut ExecStats,
) -> Result<()> {
    let level_code = |c| projection(c).widen();
    let input = rows.2;
    match index {
        GroupIndex::Dense(map) => route(lanes, rows, codes, rle, idx, stats, |c, _| {
            map.get_or_insert_code(level_code(c) as usize)
        }),
        GroupIndex::Hash { map, order, .. } => {
            route(lanes, rows, codes, rle, idx, stats, |c, st| {
                hash_gid(map, order, level_code(c), st)
            })
        }
        GroupIndex::Rows(tuples) => route(lanes, rows, codes, rle, idx, stats, |c, st| {
            tuples.gid_of_row(input, level_code(c) as usize, st)
        }),
    }?;
    if !rle {
        lanes.scatter(rows.0.clone(), idx, index.len(), rows.1, stats)?;
    }
    Ok(())
}

/// Run-dominated block: one index lookup and one bulk lane feed per run.
/// Otherwise: resolve every row's lane index into `idx` for the scatter.
/// Its own function on purpose: inlined into `absorb` with every other
/// projection × index combination, the row loop spills registers (~7%).
#[inline(never)]
fn route<C: Copy + PartialEq>(
    lanes: &mut LaneSet<'_>,
    (rows, gathered, _): BlockRows<'_>,
    codes: &[C],
    rle: bool,
    idx: &mut [u32],
    stats: &mut ExecStats,
    mut slot: impl FnMut(C, &mut ExecStats) -> usize,
) -> Result<()> {
    if rle {
        for_each_run(codes, |run, code| {
            let run = rows.start + run.start..rows.start + run.end;
            let gid = slot(code, stats);
            lanes.accumulate_run(run, gid, gathered, stats)
        })
    } else {
        for (i, &code) in idx.iter_mut().zip(codes) {
            *i = slot(code, stats) as u32;
        }
        Ok(())
    }
}

// ---- results ----------------------------------------------------------------

/// A level's `parent` vector onto a coarser key (a subset of its own): for
/// each of the level's groups, the row its key's projection has at the
/// coarser key. The distinct projections are numbered in first-appearance
/// order, which is the order a scan of the same rows at the coarser key
/// returns its groups in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parent {
    /// The coarser row of each group, in group order.
    pub rows: Vec<u32>,
    /// How many coarser rows there are.
    pub groups: usize,
}

impl Parent {
    /// The first group of each coarser row — rows are numbered as their
    /// first group appears, so these ascend.
    pub(crate) fn firsts(&self) -> Vec<u32> {
        let mut firsts = Vec::with_capacity(self.groups);
        for (gid, &row) in self.rows.iter().enumerate() {
            if row as usize == firsts.len() {
                firsts.push(gid as u32);
            }
        }
        firsts
    }
}

/// The groups of one level — a worker's partial, or the merged result —
/// in first-appearance order.
pub(crate) struct LevelGroups {
    /// The index the level's scan grouped through; a merge keeps folding
    /// into it, and keys are decoded from it on demand.
    index: GroupIndex,
    /// `groups × lanes`, flat, group-major.
    pub(crate) accs: Vec<Acc>,
}

impl LevelGroups {
    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Key dimension `d` of group `gid`, decoded against the scanned table.
    pub(crate) fn key_value(&self, input: &Table, gid: usize, d: usize) -> Value {
        self.index.key_value(input, gid, d)
    }

    /// Key dimension `d` of the groups `gids`, in that order (`0..self.len()`
    /// for the level's own key column): decoded column-wise from the codes,
    /// or gathered from the groups' first rows, never a `Value` per cell.
    pub(crate) fn key_column(
        &self,
        input: &Table,
        d: usize,
        gids: impl ExactSizeIterator<Item = usize>,
    ) -> Column {
        self.index.key_column(input, d, gids)
    }

    /// This level's [`Parent`] onto its key dimensions `dims`: one lookup
    /// per group by projected code.
    pub(crate) fn parent(&self, input: &Table, dims: &[usize]) -> Parent {
        let mut rows: FxHashMap<u64, u32> = FxHashMap::default();
        let row = |code| {
            let next = rows.len() as u32;
            *rows.entry(code).or_insert(next)
        };
        let rows: Vec<u32> = self
            .projected_codes(input, dims)
            .into_iter()
            .map(row)
            .collect();
        let groups = rows.iter().max().map_or(0, |&last| last as usize + 1);
        Parent { rows, groups }
    }

    /// Where each group's key, projected onto its dimensions `dims`, stands
    /// in `keys` — `u32::MAX` when it is not listed: one decoded key looked
    /// up per *distinct* projection.
    pub(crate) fn index_in(&self, input: &Table, dims: &[usize], keys: &[Vec<Value>]) -> Vec<u32> {
        let mut stats = ExecStats::default();
        let mut listed = RowKeyMap::new();
        for key in keys {
            listed.get_or_insert_key(key, &mut stats);
        }
        let mut key = Vec::with_capacity(dims.len());
        let mut find = |gid: usize| {
            key.clear();
            key.extend(dims.iter().map(|&d| self.key_value(input, gid, d)));
            let at = listed.lookup_key(&key, &mut stats);
            at.map_or(u32::MAX, |at| at as u32)
        };
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        let codes = self.projected_codes(input, dims).into_iter().enumerate();
        codes
            .map(|(gid, code)| *seen.entry(code).or_insert_with(|| find(gid)))
            .collect()
    }

    /// Lane `lane` of this level's `width`, folded onto the `rows` coarser
    /// rows of `parent`: each row's accumulator is `fresh` merged with its
    /// groups' in group order — what a scan at the coarser key holds when
    /// the lane [folds exactly](AggSpec::folds_exactly).
    pub(crate) fn fold(
        &self,
        (lane, width): (usize, usize),
        parent: &Parent,
        rows: usize,
        fresh: Acc,
    ) -> Result<Vec<Acc>> {
        let mut folded = vec![fresh; rows];
        let lane = self.accs.iter().skip(lane).step_by(width);
        for (acc, &row) in lane.zip(&parent.rows) {
            folded[row as usize].merge(acc.clone())?;
        }
        Ok(folded)
    }

    /// Each group's code projected onto its key dimensions `dims`: two
    /// groups agree on those dimensions exactly when the projections are
    /// equal. A level grouped by tuple hash numbers the projections of its
    /// groups' first rows by a tuple index over the kept columns.
    fn projected_codes(&self, input: &Table, dims: &[usize]) -> Vec<u64> {
        match &self.index {
            GroupIndex::Dense(map) => {
                let (space, child) = (map.space(), map.space().project(dims));
                let project = |&code| space.project_code(code as usize, dims, &child) as u64;
                map.codes().iter().map(project).collect()
            }
            GroupIndex::Hash { space, order, .. } => {
                let proj = space.projector(dims, &space.project(dims));
                order.iter().map(|&code| proj.project(code)).collect()
            }
            GroupIndex::Rows(index) => {
                let mut sub = TupleIndex::new(dims.iter().map(|&d| index.cols()[d]).collect());
                let mut stats = ExecStats::default();
                let first = |gid| index.first(gid) as usize;
                let code = |gid| sub.gid_of_row(input, first(gid), &mut stats) as u64;
                (0..index.len()).map(code).collect()
            }
        }
    }

    /// Fold the next worker's partial into this one, by code: this side's
    /// group order is kept and the partial's unseen groups are appended in
    /// its own first-appearance order. Workers scan contiguous chunks and
    /// merge in worker order, so the result is the serial scan's order. An
    /// unseen group starts from fresh accumulators and merges like any
    /// other — a t-digest compacts on merge, so moving the partial in
    /// instead would shift its later flush points.
    fn merge_from(
        &mut self,
        other: LevelGroups,
        (input, aggs, percentile_budget): (&Table, &[AggSpec], usize),
        stats: &mut ExecStats,
    ) -> Result<()> {
        let theirs = &other.index;
        let gids: Vec<u32> = (0..theirs.len())
            .map(|gid| self.index.gid(input, theirs.code(gid), stats) as u32)
            .collect();
        let mut partials = other.accs.into_iter();
        for gid in gids {
            let base = gid as usize * aggs.len();
            if base == self.accs.len() {
                let fresh = aggs
                    .iter()
                    .map(|s| Acc::with_budget(s.func, percentile_budget));
                self.accs.extend(fresh);
            }
            for acc in &mut self.accs[base..base + aggs.len()] {
                acc.merge(partials.next().expect("partial accs cover groups × lanes"))?;
            }
        }
        Ok(())
    }
}

// ---- the plan -------------------------------------------------------------------

/// A planned scan: each level's code tier is decided here, once, and every
/// worker instantiates it.
pub(crate) struct ScanPlan<'a> {
    input: &'a Table,
    /// The rows of `input` the statement reads (all of them without one).
    selection: Option<&'a Selection>,
    config: &'a ParallelConfig,
    units: Vec<Box<dyn Unit<'a> + 'a>>,
    /// The aggregate list of each planned level, in output order.
    level_aggs: Vec<&'a [AggSpec]>,
}

impl<'a> ScanPlan<'a> {
    pub(crate) fn new(input: Selected<'a>, config: &'a ParallelConfig) -> ScanPlan<'a> {
        ScanPlan {
            input: input.table,
            selection: input.selection,
            config,
            units: Vec::new(),
            level_aggs: Vec::new(),
        }
    }

    /// Plan one code stream over `group_cols` read by `levels.len()` levels,
    /// each `(keep, aggs)`: the positions of `group_cols` it keeps (strictly
    /// increasing) and its own aggregate list. Returns the code tier the
    /// stream takes — `"dense"` or `"wide"` — or `None`, with nothing
    /// planned, when neither coder reads the key (float or unpackable
    /// dimensions, more than 64 bits of key).
    ///
    /// Building the coder also builds any lazy packed vector serially,
    /// before workers share it.
    pub(crate) fn push_stream(
        &mut self,
        group_cols: &[usize],
        levels: &[(&[usize], &'a [AggSpec])],
        stats: &mut ExecStats,
    ) -> Option<&'static str> {
        let input = self.input;
        // A strictly increasing subset of full length keeps every dimension.
        let (full, keyless) = (group_cols.len(), group_cols.is_empty());
        let dense = if keyless {
            Some(DenseKeySpace::keyless())
        } else {
            DenseKeySpace::try_build(input, group_cols, self.config.dense_budget)
        };
        // The empty key counts with the hash passes, as it always has: it
        // never went through the dense *budget*.
        let dense_pass = dense.is_some() && !keyless;
        let (tier, pack_width) = if let Some(space) = dense {
            let coder = BlockCoder::try_new(input, &space)?;
            let level = |keep: &[usize]| {
                let child = space.project(keep);
                let proj = (keep.len() < full).then(|| space.projection_table(keep, &child));
                (proj, LevelSpace::Dense(child))
            };
            ("dense", self.push_unit(Some(coder), keyless, levels, level))
        } else {
            let space = WideKeySpace::try_build(input, group_cols)?;
            let coder = WideCoder::try_new(input, &space)?;
            let level = |keep: &[usize]| {
                let child = space.project(keep);
                let proj = (keep.len() < full).then(|| space.projector(keep, &child));
                (proj, LevelSpace::Wide(child))
            };
            ("wide", self.push_unit(Some(coder), keyless, levels, level))
        };
        stats.pack_width = stats.pack_width.max(pack_width as u64);
        if dense_pass {
            stats.dense_group_ops += levels.len() as u64;
        } else {
            stats.hash_group_ops += levels.len() as u64;
        }
        Some(tier)
    }

    /// Add the stream `coder` fills (the row numbers, without one), read
    /// by `levels` through `level`'s projection and space; returns the
    /// coder's pack width.
    fn push_unit<W: StreamCode + 'a>(
        &mut self,
        coder: Option<Coder<'a, W>>,
        keyless: bool,
        levels: &[(&[usize], &'a [AggSpec])],
        level: impl Fn(&[usize]) -> (Option<W::Proj>, LevelSpace),
    ) -> u32 {
        let pack_width = coder.as_ref().map_or(0, Coder::pack_width);
        self.level_aggs.extend(levels.iter().map(|&(_, aggs)| aggs));
        let levels = levels
            .iter()
            .map(|&(keep, aggs)| {
                let (proj, space) = level(keep);
                FusedLevel { proj, space, aggs }
            })
            .collect();
        self.units.push(Box::new(Stream {
            coder,
            keyless,
            levels,
        }));
        pack_width
    }

    /// Plan one level over its own key: a coded stream of its own with no
    /// projection, or — when neither coder reads the key — a stream of row
    /// numbers grouped by tuple hash. Returns the tier it takes.
    pub(crate) fn push_level(
        &mut self,
        group_cols: &[usize],
        aggs: &'a [AggSpec],
        stats: &mut ExecStats,
    ) -> &'static str {
        let every_dim: Vec<usize> = (0..group_cols.len()).collect();
        if let Some(tier) = self.push_stream(group_cols, &[(&every_dim, aggs)], stats) {
            return tier;
        }
        stats.hash_group_ops += 1;
        let rows = |_: &[usize]| (None, LevelSpace::Rows(group_cols.to_vec()));
        self.push_unit::<u64>(None, false, &[(&[], aggs)], rows);
        "tuple"
    }

    /// Plan every level over its own key ([`Self::push_level`]); returns
    /// the tier they take, or `"mixed"`, for the span detail.
    pub(crate) fn push_levels<'l>(
        &mut self,
        levels: impl Iterator<Item = (&'l [usize], &'a [AggSpec])>,
        stats: &mut ExecStats,
    ) -> &'static str {
        let mut detail = None;
        for (cols, aggs) in levels {
            let tier = self.push_level(cols, aggs, stats);
            detail = match detail {
                Some(seen) if seen != tier => Some("mixed"),
                _ => Some(tier),
            };
        }
        detail.unwrap_or("mixed")
    }

    /// Scan the input once and return every planned level's groups, in
    /// plan order. One guard charge per morsel — the charge both meters the
    /// budget and observes cancellation, so a cancelled guard stops every
    /// worker within one morsel. A morsel is charged for the rows it reads,
    /// selected or not.
    pub(crate) fn run(
        &self,
        operator: &str,
        guard: &ResourceGuard,
        span: &mut SpanHandle,
        stats: &mut ExecStats,
    ) -> Result<Vec<LevelGroups>> {
        if let Some(selection) = self.selection {
            let (mode, selected) = selection.summary();
            span.set_selection(mode, selected);
        }
        let scan_chunk = |chunk, stats: &mut ExecStats, span: &mut SpanHandle| {
            let mut scans: Vec<_> = self.units.iter().map(|u| u.begin(self)).collect();
            for morsel in self.config.morsels(chunk) {
                guard.charge(morsel.len() as u64)?;
                span.add_morsels(1);
                span.add_rows(morsel.len() as u64);
                for scan in &mut scans {
                    scan.absorb(morsel.clone(), stats)?;
                }
            }
            let mut out = Vec::with_capacity(self.level_aggs.len());
            for scan in scans {
                scan.finish(&mut out);
            }
            Ok(out)
        };
        let budget = self.config.percentile_budget;
        let merge = |into: &mut Vec<LevelGroups>, part: Vec<LevelGroups>, stats: &mut ExecStats| {
            for ((dst, src), aggs) in into.iter_mut().zip(part).zip(&self.level_aggs) {
                dst.merge_from(src, (self.input, aggs, budget), stats)?;
            }
            Ok(())
        };
        let chunks = self.config.chunks(self.input.num_rows());
        fan_out(operator, chunks, guard, span, stats, scan_chunk, merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::aggregate::{AggFunc, PBits};
    use crate::reference;
    use pa_storage::{DataType, Schema};

    type Row = (Option<&'static str>, Option<i64>, Option<f64>);

    fn table(rows: &[Row]) -> Table {
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

    fn specs(funcs: &[AggFunc], measure: usize) -> Vec<AggSpec> {
        funcs
            .iter()
            .map(|&f| AggSpec::new(f, Expr::Col(measure), "x"))
            .collect()
    }

    fn config(dense_budget: usize, percentile_budget: usize) -> ParallelConfig {
        ParallelConfig {
            dense_budget,
            percentile_budget,
            ..ParallelConfig::serial()
        }
    }

    /// One level over `cols` of the selected rows, scanned serially, and
    /// the tier it took.
    fn fused_over(
        input: Selected<'_>,
        cols: &[usize],
        aggs: &[AggSpec],
        config: &ParallelConfig,
    ) -> (&'static str, LevelGroups, ExecStats) {
        let mut stats = ExecStats::default();
        let mut plan = ScanPlan::new(input, config);
        let tier = plan.push_level(cols, aggs, &mut stats);
        let guard = ResourceGuard::unlimited();
        let mut groups = plan
            .run("test", &guard, &mut guard.span("test"), &mut stats)
            .unwrap();
        assert_eq!(stats.scalar_kernel_rows, 0, "one scan mode");
        (tier, groups.pop().unwrap(), stats)
    }

    /// One level over `cols` of every row.
    fn fused(
        t: &Table,
        cols: &[usize],
        aggs: &[AggSpec],
        config: &ParallelConfig,
    ) -> (&'static str, LevelGroups, ExecStats) {
        fused_over(t.into(), cols, aggs, config)
    }

    /// What the naive reference holds after the rows `rows` admits of `t`:
    /// first-appearance groups over `cols`, one `Acc::update` per row per
    /// lane of `aggs`.
    fn oracle_of(
        t: &Table,
        rows: reference::Rows<'_>,
        cols: &[usize],
        aggs: &[AggSpec],
        budget: usize,
    ) -> (Vec<Vec<Value>>, Vec<Acc>) {
        let (firsts, accs) = reference::groups(t, &rows, cols, aggs, budget);
        let key = |&first: &usize| cols.iter().map(|&c| t.get(first, c)).collect();
        (firsts.iter().map(key).collect(), accs.concat())
    }

    /// [`oracle_of`] every row.
    fn oracle(
        t: &Table,
        cols: &[usize],
        funcs: &[AggFunc],
        measure: usize,
        budget: usize,
    ) -> (Vec<Vec<Value>>, Vec<Acc>) {
        let aggs = specs(funcs, measure);
        oracle_of(t, reference::Rows::all(t.num_rows()), cols, &aggs, budget)
    }

    /// The rows of an `n`-row table `selection` picks, for the reference.
    fn picked(selection: &Selection, n: usize) -> reference::Rows<'_> {
        reference::Rows::all(n).filter(move |r| selection.ones(r..r + 1).count() == 1)
    }

    fn assert_same_groups(
        t: &Table,
        fused: &LevelGroups,
        (keys, accs): &(Vec<Vec<Value>>, Vec<Acc>),
        what: &str,
    ) {
        assert_eq!(fused.len(), keys.len(), "{what}: group count");
        for (gid, key) in keys.iter().enumerate() {
            for (d, k) in key.iter().enumerate() {
                let got = fused.key_value(t, gid, d);
                let bits = |v: &Value| v.as_f64().map(f64::to_bits);
                assert!(k.key_eq(&got) && bits(k) == bits(&got), "{what}: key {gid}");
            }
        }
        assert_eq!(fused.accs.len(), accs.len(), "{what}: accumulator count");
        for (i, (f, o)) in fused.accs.iter().zip(accs).enumerate() {
            assert_eq!(f.serialize(), o.serialize(), "{what}: partial bytes at {i}");
            assert_eq!(f.spilled(), o.spilled(), "{what}: spill state at {i}");
        }
    }

    #[test]
    fn fused_float_sums_are_bit_identical_to_the_row_loop() {
        // Signed zeros, NaN NULL placeholders skipped (never
        // mask-multiplied), strict row-order addition within a run.
        let t = table(&[
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), None),
            (Some("g"), Some(1), Some(-0.0)),
            (Some("g"), Some(1), Some(0.1)),
            (Some("g"), Some(1), Some(0.2)),
            (Some("g"), Some(1), Some(-0.3)),
        ]);
        let funcs = [AggFunc::Sum];
        let (tier, groups, stats) = fused(&t, &[0, 1], &specs(&funcs, 2), &config(1 << 20, 9));
        assert_eq!(tier, "dense");
        assert_same_groups(&t, &groups, &oracle(&t, &[0, 1], &funcs, 2, 9), "one run");
        // All rows share one code: the block collapsed to one RLE run.
        assert_eq!(stats.rle_runs, 1);
        assert_eq!(stats.vectorized_kernel_rows, t.num_rows() as u64);
    }

    #[test]
    fn every_group_index_matches_the_row_loop_on_runs_and_scatters() {
        // A sorted first block takes the run path, alternating keys defeat
        // run detection; NULL keys and measures throughout.
        let rows: Vec<Row> = (0..2 * BLOCK_ROWS + 100)
            .map(|i| {
                let sorted = i < BLOCK_ROWS;
                (
                    (i % 17 != 3).then_some(if sorted || i % 2 == 0 { "a" } else { "b" }),
                    Some(if sorted { 0 } else { (i % 3) as i64 * 40 }),
                    (i % 5 != 0).then_some(i as f64 * 0.25),
                )
            })
            .collect();
        let t = table(&rows);
        let funcs = [AggFunc::Sum, AggFunc::CountStar, AggFunc::Avg];
        let aggs = specs(&funcs, 2);
        let want = oracle(&t, &[0, 1], &funcs, 2, 9);
        // 3 × 82 codes ≤ rows: direct. Budget 0: wide, hashed.
        for (budget, tier) in [(1 << 20, "dense"), (0, "wide")] {
            let (got, groups, stats) = fused(&t, &[0, 1], &aggs, &config(budget, 9));
            assert_eq!(got, tier);
            assert_same_groups(&t, &groups, &want, tier);
            assert_eq!(stats.vectorized_kernel_rows, t.num_rows() as u64);
            assert!(stats.rle_runs > 0, "{tier}: the sorted prefix ran as runs");
        }
        // A code space larger than the input is not worth zeroing: mapped.
        let few = table(&rows[BLOCK_ROWS..BLOCK_ROWS + 150]);
        let want = oracle(&few, &[0, 1], &funcs, 2, 9);
        let (_, groups, stats) = fused(&few, &[0, 1], &aggs, &config(1 << 20, 9));
        assert_same_groups(&few, &groups, &want, "mapped");
        assert_eq!(stats.rle_runs, 0, "alternating keys take the scatter path");
    }

    /// The three holistic functions, alone and beside `sum`/`count(*)`.
    fn holistic_lane_lists() -> Vec<Vec<AggFunc>> {
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

    /// Rows past two blocks: unsorted keys (scatter path) or key-sorted
    /// (RLE path), a float measure with NULLs (or all NULL), and an integer
    /// measure in column 1 whose values exceed 2^53 (so a lane that rounded
    /// them through `f64` would hash them wrong).
    fn holistic_rows(sorted: bool, all_null: bool) -> Vec<Row> {
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
    fn holistic_lanes_hold_the_row_loops_partial_bytes() {
        // Budget 300: with ~700 rows a group, every group crosses it in the
        // middle of a block, on the scatter path and on the run path.
        let budget = 300;
        for (sorted, all_null) in [(false, false), (true, false), (false, true)] {
            let t = table(&holistic_rows(sorted, all_null));
            for funcs in holistic_lane_lists() {
                for measure in [2usize, 1] {
                    let what =
                        format!("sorted={sorted} all_null={all_null} {funcs:?} col {measure}");
                    let aggs = specs(&funcs, measure);
                    let want = oracle(&t, &[0], &funcs, measure, budget);
                    for dense_budget in [1 << 20, 0] {
                        let (tier, groups, stats) =
                            fused(&t, &[0], &aggs, &config(dense_budget, budget));
                        assert_eq!(stats.rle_runs > 0, sorted, "{tier} {what}: path taken");
                        assert_same_groups(&t, &groups, &want, &format!("{tier} {what}"));
                    }
                    // Empty GROUP BY: the one-code space, every block a run.
                    let want = oracle(&t, &[], &funcs, measure, budget);
                    let (_, groups, _) = fused(&t, &[], &aggs, &config(1 << 20, budget));
                    assert_same_groups(&t, &groups, &want, &format!("keyless {what}"));
                    if !all_null && matches!(funcs[0], AggFunc::Percentile(_)) {
                        assert!(groups.accs[0].spilled(), "{what}: the global group spills");
                    }
                }
            }
        }
        let empty = table(&[]);
        let aggs = specs(&[AggFunc::Sum], 2);
        let (_, groups, _) = fused(&empty, &[], &aggs, &config(1 << 20, budget));
        assert_eq!(groups.len(), 1, "the global group exists over no rows");
        assert_eq!(groups.accs[0].finish(), Value::Null);
        let (_, groups, _) = fused(&empty, &[0], &aggs, &config(1 << 20, budget));
        assert_eq!(groups.len(), 0, "a keyed level over no rows has no group");
    }

    /// Selections that make every kind of block: all ones (the leading
    /// block), all zeros (the second), mixed at several densities, and one
    /// row in a thousand.
    fn selections(n: usize) -> Vec<(&'static str, Selection)> {
        vec![
            (
                "full, empty, then two in three",
                Selection::of_rows(n, |r| r < BLOCK_ROWS || (r >= 2 * BLOCK_ROWS && r % 3 != 0)),
            ),
            ("every other row", Selection::of_rows(n, |r| r % 2 == 0)),
            ("one row in 997", Selection::of_rows(n, |r| r % 997 == 5)),
            ("nothing", Selection::of_rows(n, |_| false)),
        ]
    }

    #[test]
    fn a_selection_keeps_unselected_rows_from_groups_and_raw_lanes() {
        // The sorted first block takes the run path, the rest scatter; a
        // group none of whose rows qualify must not exist, and group order
        // is first appearance among the qualifying rows.
        let n = 3 * BLOCK_ROWS + 65;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let sorted = i < BLOCK_ROWS;
                (
                    (i % 17 != 3).then_some(["a", "b", "c"][if sorted { 0 } else { i % 3 }]),
                    Some(if sorted { 0 } else { (i % 5) as i64 * 40 }),
                    (i % 5 != 0).then_some(i as f64 * 0.25 - 100.0),
                )
            })
            .collect();
        let t = table(&rows);
        let funcs = [AggFunc::Sum, AggFunc::CountStar, AggFunc::Avg];
        let aggs = specs(&funcs, 2);
        for (what, selection) in selections(n) {
            let input = Selected::from(&t).with(&selection);
            for cols in [&[0usize, 1][..], &[]] {
                let want = oracle_of(&t, picked(&selection, n), cols, &aggs, 9);
                for budget in [1 << 20, 0] {
                    let (tier, groups, stats) = fused_over(input, cols, &aggs, &config(budget, 9));
                    let what = format!("{what}, key {cols:?}, {tier}");
                    assert_same_groups(&t, &groups, &want, &what);
                    assert_eq!(
                        stats.vectorized_kernel_rows,
                        selection.summary().1,
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_selection_keeps_unselected_rows_from_holistic_lanes() {
        // Budget 300: groups cross it mid-block on the scatter path and on
        // the run path (key-sorted rows), with the selection thinning both.
        let budget = 300;
        for sorted in [false, true] {
            let t = table(&holistic_rows(sorted, false));
            let n = t.num_rows();
            let selection = Selection::of_rows(n, |r| r % 4 != 1 && !(700..900).contains(&r));
            let input = Selected::from(&t).with(&selection);
            for funcs in holistic_lane_lists() {
                for measure in [2usize, 1] {
                    let aggs = specs(&funcs, measure);
                    for cols in [&[0usize][..], &[]] {
                        let what = format!("sorted={sorted} {funcs:?} col {measure} key {cols:?}");
                        let rows = picked(&selection, n);
                        let want = oracle_of(&t, rows, cols, &aggs, budget);
                        for dense_budget in [1 << 20, 0] {
                            let config = config(dense_budget, budget);
                            let (tier, groups, _) = fused_over(input, cols, &aggs, &config);
                            assert_same_groups(&t, &groups, &want, &format!("{tier} {what}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn selection_boundaries_fall_anywhere_in_a_block() {
        // Tables one row either side of a word and of a block, and a
        // selection whose first and last rows sit on those edges; worker
        // chunks that start off a word boundary.
        let funcs = [AggFunc::Sum, AggFunc::CountStar];
        let aggs = specs(&funcs, 2);
        for n in [63, 64, 65, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1] {
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    (
                        Some(["a", "b"][i % 2]),
                        Some((i % 3) as i64),
                        Some(i as f64),
                    )
                })
                .collect();
            let t = table(&rows);
            for edge in [0, 1, 62, 63, 64] {
                let selection = Selection::of_rows(n, |r| r >= edge && r + edge < n && r % 7 != 0);
                let input = Selected::from(&t).with(&selection);
                let want = oracle_of(&t, picked(&selection, n), &[0, 1], &aggs, 9);
                let odd_chunks = ParallelConfig {
                    threads: 3,
                    morsel_rows: 50,
                    min_parallel_rows: 0,
                    ..config(1 << 20, 9)
                };
                for config in [config(1 << 20, 9), odd_chunks] {
                    let (_, groups, _) = fused_over(input, &[0, 1], &aggs, &config);
                    assert_same_groups(&t, &groups, &want, &format!("n={n} edge={edge}"));
                }
            }
        }
    }

    #[test]
    fn keys_no_coder_packs_and_acc_lanes_ride_the_block_loop() {
        // A float key (-0.0 before 0.0, NaNs, NULLs) and an integer key
        // spanning i64::MIN..=i64::MAX: no code space builds, the rows are
        // grouped by tuple hash. Beside typed lanes, lanes no typed kernel
        // reads: min/max, count(DISTINCT), a count of strings, a literal and
        // an expression. A sorted first block takes the run path.
        let n = 2 * BLOCK_ROWS + 300;
        let floats = [-0.0, 0.0, f64::NAN, 1.5, -f64::NAN, 2.25];
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let sorted = i < BLOCK_ROWS;
                let k = if sorted { i / 300 } else { i * 7 % 11 };
                (
                    (i % 13 != 4).then_some(["a", "b", "c"][k % 3]),
                    (k % 5 != 3).then_some([i64::MIN, i64::MAX, -1, 0, 7][k % 5]),
                    (k % 7 != 6).then_some(floats[k % 6]),
                )
            })
            .collect();
        let t = table(&rows);
        let spec = |func, input| AggSpec::new(func, input, "x");
        let aggs = [
            spec(AggFunc::Sum, Expr::Col(2)),
            spec(AggFunc::Min, Expr::Col(2)),
            spec(AggFunc::Max, Expr::Col(0)),
            spec(AggFunc::CountDistinct, Expr::Col(0)),
            spec(AggFunc::Count, Expr::Col(0)),
            spec(AggFunc::Sum, Expr::lit(0.1)),
            spec(AggFunc::Percentile(PBits::new(0.5)), Expr::lit(1)),
            spec(AggFunc::Avg, Expr::Col(1).add(Expr::Col(2))),
            spec(AggFunc::CountStar, Expr::lit(1)),
        ];
        let selection = Selection::of_rows(n, |r| r % 3 != 1 && !(900..1200).contains(&r));
        for (cols, tier) in [
            (&[2usize][..], "tuple"),
            (&[1], "tuple"),
            (&[0, 2], "tuple"),
        ] {
            for dense_budget in [1 << 20, 0] {
                let config = config(dense_budget, 300);
                let what = format!("key {cols:?} budget {dense_budget}");
                let want = oracle_of(&t, reference::Rows::all(n), cols, &aggs, 300);
                let (got, groups, stats) = fused(&t, cols, &aggs, &config);
                assert_eq!(got, tier, "{what}");
                assert_same_groups(&t, &groups, &want, &what);
                assert_eq!(stats.vectorized_kernel_rows, n as u64, "{what}");
                let want = oracle_of(&t, picked(&selection, n), cols, &aggs, 300);
                let input = Selected::from(&t).with(&selection);
                let (_, groups, _) = fused_over(input, cols, &aggs, &config);
                assert_same_groups(&t, &groups, &want, &format!("{what}, selected"));
            }
        }
        // The same lanes on coded keys: runs and scatters of both tiers.
        for dense_budget in [1 << 20, 0] {
            let want = oracle(&t, &[0], &[AggFunc::Sum], 2, 300);
            let (_, groups, _) = fused(&t, &[0], &aggs[..1], &config(dense_budget, 300));
            assert_same_groups(&t, &groups, &want, "coded");
            let want = oracle_of(&t, reference::Rows::all(n), &[0], &aggs, 300);
            let (_, groups, stats) = fused(&t, &[0], &aggs, &config(dense_budget, 300));
            assert_same_groups(&t, &groups, &want, "coded, every lane");
            assert!(stats.rle_runs > 0, "the sorted block ran as runs");
        }
    }
}
