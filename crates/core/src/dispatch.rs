//! Hash-dispatch pivot operator — the paper's "future work" optimization.
//!
//! SIGMOD §3.2 observes that the CASE strategy makes the evaluator test `N`
//! disjoint boolean conjunctions per input row because "the query optimizer
//! has no way to stop comparisons", and that a hash-based search would cut
//! the per-row cost from `O(N)` to `O(1)`. This operator is that evaluator:
//! one pass over the source, one group-key probe plus one subgroup-key probe
//! per row, accumulating straight into the `groups × cells` matrix.
//!
//! The scan is morsel-driven like the engine's scan core and fans out
//! through the same [`pa_engine::parallel::fan_out`]: each worker
//! accumulates into a thread-local `groups × cells` matrix (the combo maps
//! are built once and shared read-only), and the partials merge in worker
//! order so output is identical to the serial scan. Lanes are classified by
//! the engine's one [`LaneKind`]: numeric `sum`/`avg`/`count` lanes over
//! plain columns read typed slices instead of boxing a `Value` per cell.
//!
//! The output layout is identical to the CASE strategy's raw table
//! (`[D1..Dj][term cells × lanes][term total?][extra lanes]`), so the
//! surrounding pipeline cannot tell which evaluator produced it — only the
//! work counters differ (`case_condition_evals` stays at zero).

use crate::error::Result;
use pa_engine::parallel::fan_out;
use pa_engine::{
    raw_acc, Acc, AggFunc, BlockCoder, DenseKeySpace, ExecStats, Expr, GroupMap, HolisticLane,
    LaneKind, LaneSrc, NumSlice, ParallelConfig, RawLane, ResourceGuard, RowKeyMap, SpanHandle,
    BLOCK_ROWS,
};
use pa_storage::{Column, DataType, Field, Schema, Table, Value};

/// One horizontal term's piece of a pivot pass.
#[derive(Debug, Clone)]
pub struct PivotTask {
    /// Subgrouping columns in the source table.
    pub by_cols: Vec<usize>,
    /// Aggregations feeding each cell lane.
    pub lanes: Vec<(AggFunc, Expr)>,
    /// The distinct subgroup combinations, in result-column order.
    pub combos: Vec<Vec<Value>>,
    /// Group-total sum expression for percentage terms.
    pub total: Option<Expr>,
}

/// Per-task subgroup-combination lookup: combo tuple → cell index.
///
/// When the task's BY columns dense-encode (see [`DenseKeySpace`]), the
/// lookup is a precomputed *jump table* — `composite code → cell`, one
/// array index per row, no hashing and no key comparison. Otherwise it
/// falls back to the hash map. `u32::MAX` marks a code with no cell (the
/// row belongs to no listed combination and is skipped, exactly like a
/// failed hash probe).
enum CellMap {
    /// Jump table over the BY columns' composite-code space.
    Dense {
        space: DenseKeySpace,
        code_to_cell: Vec<u32>,
    },
    /// Hash fallback (combo tuple → cell index).
    Hash(RowKeyMap),
}

impl CellMap {
    /// Build the lookup for one task, preferring the jump table within
    /// `budget` codes. A combo whose value lies outside the encoded domain
    /// (possible when the combos were cached before the dictionary grew, or
    /// came from another snapshot) matches no row of `src`, so leaving its
    /// code unmapped is exact.
    fn build(src: &Table, task: &PivotTask, budget: usize) -> CellMap {
        if let Some(space) = DenseKeySpace::try_build(src, &task.by_cols, budget) {
            let mut code_to_cell = vec![u32::MAX; space.size()];
            for (cid, combo) in task.combos.iter().enumerate() {
                if let Some(code) = space.code_of_key(src, combo) {
                    code_to_cell[code] = cid as u32;
                }
            }
            return CellMap::Dense {
                space,
                code_to_cell,
            };
        }
        let mut m = RowKeyMap::with_capacity(task.combos.len());
        let mut discard = ExecStats::default();
        for combo in &task.combos {
            m.get_or_insert_key(combo, &mut discard);
        }
        CellMap::Hash(m)
    }

    fn is_dense(&self) -> bool {
        matches!(self, CellMap::Dense { .. })
    }

    /// Cell index for `src[row]`'s subgroup key, or `None` when the row
    /// belongs to no listed combination.
    #[inline]
    fn lookup_row(
        &self,
        src: &Table,
        by_cols: &[usize],
        row: usize,
        stats: &mut ExecStats,
    ) -> Option<usize> {
        match self {
            CellMap::Dense {
                space,
                code_to_cell,
            } => {
                let cell = code_to_cell[space.code_of_row(src, row)];
                (cell != u32::MAX).then_some(cell as usize)
            }
            CellMap::Hash(m) => m.lookup_row(src, by_cols, row, stats),
        }
    }
}

/// Everything a scan worker needs, shared read-only across threads.
struct PivotCtx<'a> {
    src: &'a Table,
    j_cols: &'a [usize],
    tasks: &'a [PivotTask],
    extra_lanes: &'a [(AggFunc, Expr)],
    group_space: &'a Option<DenseKeySpace>,
    cell_maps: &'a [CellMap],
    task_base: &'a [usize],
    extra_base: usize,
    width: usize,
    template: &'a [Acc],
    /// Aggregate function at each accumulator-matrix position, parallel to
    /// `template` (the fused path converts raw sums/counts through it).
    template_funcs: &'a [AggFunc],
    lane_kernels: &'a [Vec<LaneKind>],
    total_kernels: &'a [Option<LaneKind>],
    extra_kernels: &'a [LaneKind],
    /// Typed views of `src`'s numeric columns, resolved once so the scalar
    /// loop stops re-matching the column enum per row.
    col_slices: Vec<Option<NumSlice<'a>>>,
}

/// Per-worker state for the fused vectorized pivot scan (DESIGN.md §12):
/// every path dense, every lane typed — built by [`PivotCtx::try_fused`].
struct FusedPivot<'a> {
    /// `None` for an empty GROUP BY: every row belongs to the global group.
    group_coder: Option<BlockCoder<'a>>,
    /// Per task: cell-code coder plus its jump table.
    cell_tables: Vec<(BlockCoder<'a>, &'a [u32])>,
    lane_srcs: Vec<Vec<LaneSrc<'a>>>,
    total_srcs: Vec<Option<LaneSrc<'a>>>,
    extra_srcs: Vec<LaneSrc<'a>>,
    /// Holistic-lane slot at each accumulator-matrix position (`None`: a
    /// raw sum/count position). The cells of one task lane share a slot,
    /// indexed `gid × combos + cell`; an extra lane's slot is indexed by
    /// `gid`.
    pos_hol: Vec<Option<usize>>,
    /// Per slot: its function and how many indices one group spans.
    hol: Vec<(AggFunc, usize)>,
}

impl FusedPivot<'_> {
    /// Widest bit-packed dimension across the group and cell coders.
    fn pack_width(&self) -> u32 {
        self.cell_tables
            .iter()
            .map(|(c, _)| c.pack_width())
            .chain(self.group_coder.as_ref().map(BlockCoder::pack_width))
            .max()
            .unwrap_or(0)
    }
}

/// Scatter one lane of a block into flat accumulator indices `idx[k] + off`
/// (`usize::MAX` skips the row), one update per row in row order — the same
/// update sequence the scalar `Acc` loop performs, so float sums match bit
/// for bit.
fn scatter_lane(lane: &mut RawLane, src: &LaneSrc<'_>, start: usize, idx: &[usize], off: usize) {
    match src {
        LaneSrc::CountStar => {
            for &f in idx {
                if f != usize::MAX {
                    lane.pair_mut(f + off).1 += 1;
                }
            }
        }
        // NULL rows are skipped, never masked: the NaN placeholder must
        // never reach the sum, and adding 0.0 for NULLs would flip a -0.0.
        LaneSrc::Col(col) => col.for_each_f64(start..start + idx.len(), |k, x| {
            if idx[k] != usize::MAX {
                let pair = lane.pair_mut(idx[k] + off);
                pair.0 += x;
                pair.1 += 1;
            }
        }),
    }
}

impl<'a> PivotCtx<'a> {
    /// Build the fused scan state when every path vectorizes: dense group
    /// (or the empty GROUP BY) and cell spaces whose dimensions all read
    /// through packed/typed vectors, and only lanes with a fused kind —
    /// typed numeric, `count(*)`, holistic over a numeric column. `None`
    /// sends the scan down the (hoisted) scalar loop. Deterministic, so
    /// every worker and the planning pass agree.
    fn try_fused(&self, config: &ParallelConfig) -> Option<FusedPivot<'a>> {
        if !config.vector {
            return None;
        }
        let group_coder = if self.j_cols.is_empty() {
            None
        } else {
            Some(BlockCoder::try_new(self.src, self.group_space.as_ref()?)?)
        };
        let mut cell_tables = Vec::with_capacity(self.cell_maps.len());
        for m in self.cell_maps {
            let CellMap::Dense {
                space,
                code_to_cell,
            } = m
            else {
                return None;
            };
            cell_tables.push((
                BlockCoder::try_new(self.src, space)?,
                code_to_cell.as_slice(),
            ));
        }
        let lane_src = |k: &LaneKind| k.src(self.src);
        let lane_srcs: Option<Vec<Vec<LaneSrc<'a>>>> = self
            .lane_kernels
            .iter()
            .map(|ks| ks.iter().map(lane_src).collect())
            .collect();
        let total_srcs: Option<Vec<Option<LaneSrc<'a>>>> = self
            .total_kernels
            .iter()
            .map(|k| match k {
                None => Some(None),
                Some(k) => lane_src(k).map(Some),
            })
            .collect();
        let extra_srcs: Option<Vec<LaneSrc<'a>>> =
            self.extra_kernels.iter().map(lane_src).collect();

        // Holistic lanes get one slot each; the slot's indices must fit the
        // `u32` index blocks the lanes scatter through.
        let group_codes = self.group_space.as_ref().map_or(1, DenseKeySpace::size);
        let mut pos_hol = vec![None; self.width];
        let mut hol = Vec::new();
        for (t, task) in self.tasks.iter().enumerate() {
            let cells = task.combos.len();
            for (l, (func, _)) in task.lanes.iter().enumerate() {
                if !matches!(self.lane_kernels[t][l], LaneKind::HolisticCol(_)) {
                    continue;
                }
                if group_codes.checked_mul(cells)? > u32::MAX as usize {
                    return None;
                }
                for c in 0..cells {
                    pos_hol[self.task_base[t] + c * task.lanes.len() + l] = Some(hol.len());
                }
                hol.push((*func, cells));
            }
        }
        for (x, (func, _)) in self.extra_lanes.iter().enumerate() {
            if matches!(self.extra_kernels[x], LaneKind::HolisticCol(_)) {
                pos_hol[self.extra_base + x] = Some(hol.len());
                hol.push((*func, 1));
            }
        }
        Some(FusedPivot {
            group_coder,
            cell_tables,
            lane_srcs: lane_srcs?,
            total_srcs: total_srcs?,
            extra_srcs: extra_srcs?,
            pos_hol,
            hol,
        })
    }

    /// Vectorized scan of one chunk: block-at-a-time group codes → gids,
    /// jump-table cell dispatch over code blocks, raw sum/count pairs and
    /// holistic lanes, converted to the scalar path's `Acc` matrix at the
    /// end. Guard/span cadence matches the scalar scan (one charge per
    /// morsel plus one per fresh group), so budgets and traces are
    /// path-independent.
    #[allow(clippy::too_many_arguments)]
    fn scan_fused(
        &self,
        fused: &FusedPivot<'a>,
        chunk: std::ops::Range<usize>,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        config: &ParallelConfig,
        span: &mut SpanHandle,
    ) -> Result<(GroupMap, Vec<Acc>)> {
        let mut groups = GroupMap::for_space(self.group_space.clone());
        let width = self.width;
        let mut lanes = RawLane::default();
        let mut hol: Vec<HolisticLane> = fused
            .hol
            .iter()
            .map(|&(func, _)| {
                HolisticLane::new(func, config.percentile_budget)
                    .expect("slots hold holistic functions")
            })
            .collect();
        let mut gcodes = [0u32; BLOCK_ROWS];
        let mut gids = [0u32; BLOCK_ROWS];
        let mut ccodes = [0u32; BLOCK_ROWS];
        let mut idx = [usize::MAX; BLOCK_ROWS];
        let mut tidx = [usize::MAX; BLOCK_ROWS];
        let mut hidx = [u32::MAX; BLOCK_ROWS];
        stats.pack_width = stats.pack_width.max(fused.pack_width() as u64);
        for morsel in config.morsels(chunk) {
            guard.charge(morsel.len() as u64)?;
            span.add_morsels(1);
            span.add_rows(morsel.len() as u64);
            let mut start = morsel.start;
            while start < morsel.end {
                let blen = BLOCK_ROWS.min(morsel.end - start);
                let rows = start..start + blen;
                stats.vectorized_kernel_rows += blen as u64;

                // Group codes → gids; fresh groups charge one output row
                // each, exactly like the scalar loop's discovery charge.
                let before = groups.len();
                if let Some(coder) = &fused.group_coder {
                    let map = groups
                        .as_dense_mut()
                        .expect("a group coder implies the dense group path");
                    coder.fill(start, &mut gcodes[..blen]);
                    for k in 0..blen {
                        gids[k] = map.get_or_insert_code(gcodes[k] as usize) as u32;
                    }
                } else {
                    // Empty GROUP BY: the block is one run of the global group.
                    if groups.is_empty() {
                        groups.get_or_insert_key(&[], stats);
                    }
                    gids[..blen].fill(0);
                }
                let fresh = groups.len() - before;
                if fresh > 0 {
                    guard.charge(fresh as u64)?;
                    span.add_rows(fresh as u64);
                }
                lanes.ensure(groups.len() * width);
                for (lane, &(_, cells)) in hol.iter_mut().zip(&fused.hol) {
                    lane.ensure(groups.len() * cells);
                }

                for (t, task) in self.tasks.iter().enumerate() {
                    let ncombos = task.combos.len();
                    if ncombos == 0 {
                        continue; // no listed combination: no row matches
                    }
                    let (coder, code_to_cell) = &fused.cell_tables[t];
                    let nlanes = task.lanes.len();
                    let base_off = self.task_base[t];
                    let total_off = base_off + nlanes * ncombos;
                    let has_total = task.total.is_some();
                    let has_hol = (0..nlanes).any(|l| fused.pos_hol[base_off + l].is_some());
                    coder.fill(start, &mut ccodes[..blen]);
                    // RLE fast path: a constant cell-code block (sorted or
                    // low-cardinality BY column) resolves the jump table
                    // once for the whole block.
                    let constant = ccodes[..blen].iter().all(|&c| c == ccodes[0]);
                    if constant {
                        stats.rle_runs += 1;
                        let cell = code_to_cell[ccodes[0] as usize];
                        if cell == u32::MAX {
                            continue; // no listed combo: the whole block skips this task
                        }
                        let cell_off = base_off + cell as usize * nlanes;
                        for k in 0..blen {
                            let g = gids[k] as usize * width;
                            idx[k] = g + cell_off;
                            tidx[k] = g + total_off;
                        }
                        if has_hol {
                            for k in 0..blen {
                                hidx[k] = gids[k] * ncombos as u32 + cell;
                            }
                        }
                    } else {
                        for k in 0..blen {
                            let cell = code_to_cell[ccodes[k] as usize];
                            if cell == u32::MAX {
                                idx[k] = usize::MAX;
                                tidx[k] = usize::MAX;
                            } else {
                                let g = gids[k] as usize * width;
                                idx[k] = g + base_off + cell as usize * nlanes;
                                tidx[k] = g + total_off;
                            }
                        }
                        if has_hol {
                            for k in 0..blen {
                                let cell = code_to_cell[ccodes[k] as usize];
                                hidx[k] = if cell == u32::MAX {
                                    u32::MAX
                                } else {
                                    gids[k] * ncombos as u32 + cell
                                };
                            }
                        }
                    }
                    for (l, src) in fused.lane_srcs[t].iter().enumerate() {
                        match fused.pos_hol[base_off + l] {
                            Some(h) => hol[h].scatter(src, rows.clone(), &hidx[..blen]),
                            None => scatter_lane(&mut lanes, src, start, &idx[..blen], l),
                        }
                    }
                    if has_total {
                        let src = fused.total_srcs[t]
                            .as_ref()
                            .expect("total lane classified for fused scan");
                        scatter_lane(&mut lanes, src, start, &tidx[..blen], 0);
                    }
                }

                if !fused.extra_srcs.is_empty() {
                    for k in 0..blen {
                        idx[k] = gids[k] as usize * width + self.extra_base;
                    }
                    for (x, src) in fused.extra_srcs.iter().enumerate() {
                        match fused.pos_hol[self.extra_base + x] {
                            Some(h) if fused.group_coder.is_none() => {
                                hol[h].accumulate_run(src, rows.clone(), 0)
                            }
                            Some(h) => hol[h].scatter(src, rows.clone(), &gids[..blen]),
                            None => scatter_lane(&mut lanes, src, start, &idx[..blen], x),
                        }
                    }
                }
                start += blen;
            }
        }
        // Collapse into the Acc matrix the scalar scan produces, so the
        // merge/materialize machinery — and the output bytes — are shared.
        // A holistic slot's states come out in index order, which is the
        // order its positions are visited in.
        let n = groups.len();
        let mut hol: Vec<_> = hol.into_iter().map(HolisticLane::into_accs).collect();
        let mut accs = Vec::with_capacity(n * width);
        for gid in 0..n {
            for (w, func) in self.template_funcs.iter().enumerate() {
                accs.push(match fused.pos_hol[w] {
                    Some(h) => hol[h].next().expect("holistic lane covers every cell"),
                    None => {
                        let (sum, count) = lanes.pair(gid * width + w);
                        raw_acc(*func, sum, count)
                    }
                });
            }
        }
        Ok((groups, accs))
    }

    /// Scan one contiguous chunk morsel by morsel into a thread-local
    /// partial matrix. One guard charge per morsel meters the budget and
    /// observes cancellation; each freshly discovered group charges one
    /// output row (a group found by several workers charges once per
    /// worker — a conservative over-count that still stops `groups × cells`
    /// explosions mid-scan).
    fn scan(
        &self,
        chunk: std::ops::Range<usize>,
        guard: &ResourceGuard,
        stats: &mut ExecStats,
        config: &ParallelConfig,
        span: &mut SpanHandle,
    ) -> Result<(GroupMap, Vec<Acc>)> {
        if let Some(fused) = self.try_fused(config) {
            return self.scan_fused(&fused, chunk, guard, stats, config, span);
        }
        let mut groups = GroupMap::for_space(self.group_space.clone());
        let mut accs: Vec<Acc> = Vec::new();
        for morsel in config.morsels(chunk) {
            guard.charge(morsel.len() as u64)?;
            span.add_morsels(1);
            span.add_rows(morsel.len() as u64);
            stats.scalar_kernel_rows += morsel.len() as u64;
            for row in morsel {
                let gid = if self.j_cols.is_empty() {
                    if groups.is_empty() {
                        groups.get_or_insert_key(&[], stats);
                    }
                    0
                } else {
                    groups.get_or_insert_row(self.src, self.j_cols, row, stats)
                };
                if (gid + 1) * self.width > accs.len() {
                    // A fresh group allocates `width` accumulator cells;
                    // charge it as one output row so group explosions trip
                    // the budget mid-scan.
                    guard.charge(1)?;
                    span.add_rows(1);
                    accs.extend_from_slice(self.template);
                }
                let base = gid * self.width;
                for (t, task) in self.tasks.iter().enumerate() {
                    // O(1): one jump-table index (or hash probe) finds the
                    // cell, no CASE chain.
                    let Some(cid) =
                        self.cell_maps[t].lookup_row(self.src, &task.by_cols, row, stats)
                    else {
                        continue;
                    };
                    let cell = base + self.task_base[t] + cid * task.lanes.len();
                    for (l, (_func, input)) in task.lanes.iter().enumerate() {
                        self.absorb(
                            &mut accs[cell + l],
                            self.lane_kernels[t][l],
                            input,
                            row,
                            stats,
                        )?;
                    }
                    if let Some(total) = &task.total {
                        let tpos = base + self.task_base[t] + task.lanes.len() * task.combos.len();
                        let kernel = self.total_kernels[t].expect("total lane classified");
                        self.absorb(&mut accs[tpos], kernel, total, row, stats)?;
                    }
                }
                for (x, (_func, input)) in self.extra_lanes.iter().enumerate() {
                    self.absorb(
                        &mut accs[base + self.extra_base + x],
                        self.extra_kernels[x],
                        input,
                        row,
                        stats,
                    )?;
                }
            }
        }
        Ok((groups, accs))
    }

    fn absorb(
        &self,
        acc: &mut Acc,
        kernel: LaneKind,
        input: &Expr,
        row: usize,
        stats: &mut ExecStats,
    ) -> Result<()> {
        Ok(kernel.update_row(acc, &self.col_slices, input, self.src, row, stats)?)
    }
}

/// One-pass pivot aggregation with O(1) cell dispatch per row.
///
/// Produces the raw horizontal table: the `j_cols` key columns followed by,
/// for each task, `lanes × combos` cell columns (lane-major within a combo)
/// and the optional total column, then the flattened extra lanes.
pub fn pivot_aggregate(
    src: &Table,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    stats: &mut ExecStats,
) -> Result<Table> {
    pivot_aggregate_guarded(
        src,
        j_cols,
        tasks,
        extra_lanes,
        &ResourceGuard::unlimited(),
        stats,
    )
}

/// [`pivot_aggregate`] under a [`ResourceGuard`]: the scan is charged morsel
/// by morsel, and each new group charges as its accumulator lane is
/// allocated (the pivot's memory actually grows with `groups × cells`, so
/// group discovery is exactly where a runaway `Hpct` must be stopped).
/// Parallelism follows the environment configuration
/// ([`ParallelConfig::from_env`]).
pub fn pivot_aggregate_guarded(
    src: &Table,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<Table> {
    pivot_aggregate_with_config(
        src,
        j_cols,
        tasks,
        extra_lanes,
        guard,
        stats,
        &ParallelConfig::from_env(),
    )
}

/// [`pivot_aggregate_guarded`] with an explicit [`ParallelConfig`] (tests
/// and benches pin thread counts here instead of racing on env vars).
pub fn pivot_aggregate_with_config(
    src: &Table,
    j_cols: &[usize],
    tasks: &[PivotTask],
    extra_lanes: &[(AggFunc, Expr)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    stats.statements += 1;
    stats.holistic_lanes += tasks
        .iter()
        .flat_map(|t| &t.lanes)
        .map(|(func, _)| func)
        .chain(extra_lanes.iter().map(|(func, _)| func))
        .filter(|func| func.is_holistic())
        .count() as u64;
    guard.check()?;
    // Group-key code space and per-task cell lookups, built once before the
    // fan-out and shared read-only across scan workers (workers clone the
    // space, so every worker assigns identical composite codes and the
    // merge can fold partials by code). Each pass — the group path and each
    // task's cell path — records which side it took.
    let group_space = DenseKeySpace::try_build(src, j_cols, config.dense_budget);
    if group_space.is_some() {
        stats.dense_group_ops += 1;
    } else {
        stats.hash_group_ops += 1;
    }
    let cell_maps: Vec<CellMap> = tasks
        .iter()
        .map(|task| {
            let m = CellMap::build(src, task, config.dense_budget);
            if m.is_dense() {
                stats.dense_group_ops += 1;
            } else {
                stats.hash_group_ops += 1;
            }
            m
        })
        .collect();

    // Row width of the accumulator matrix.
    let mut task_base: Vec<usize> = Vec::with_capacity(tasks.len());
    let mut width = 0usize;
    for task in tasks {
        task_base.push(width);
        width += task.lanes.len() * task.combos.len() + usize::from(task.total.is_some());
    }
    let extra_base = width;
    width += extra_lanes.len();

    // Function at each matrix position: the fused path converts its raw
    // sums/counts through these, the scalar path starts from `template`.
    let mut template_funcs: Vec<AggFunc> = Vec::with_capacity(width);
    for task in tasks {
        for _combo in &task.combos {
            template_funcs.extend(task.lanes.iter().map(|(func, _)| *func));
        }
        template_funcs.extend(task.total.as_ref().map(|_| AggFunc::Sum));
    }
    template_funcs.extend(extra_lanes.iter().map(|(func, _)| *func));
    let template: Vec<Acc> = template_funcs
        .iter()
        .map(|&func| Acc::with_budget(func, config.percentile_budget))
        .collect();

    let lane_kernels: Vec<Vec<LaneKind>> = tasks
        .iter()
        .map(|task| {
            task.lanes
                .iter()
                .map(|(func, input)| LaneKind::classify(*func, input, src))
                .collect()
        })
        .collect();
    let total_kernels: Vec<Option<LaneKind>> = tasks
        .iter()
        .map(|task| {
            task.total
                .as_ref()
                .map(|total| LaneKind::classify(AggFunc::Sum, total, src))
        })
        .collect();
    let extra_kernels: Vec<LaneKind> = extra_lanes
        .iter()
        .map(|(func, input)| LaneKind::classify(*func, input, src))
        .collect();

    let ctx = PivotCtx {
        src,
        j_cols,
        tasks,
        extra_lanes,
        group_space: &group_space,
        cell_maps: &cell_maps,
        task_base: &task_base,
        extra_base,
        width,
        template: &template,
        template_funcs: &template_funcs,
        lane_kernels: &lane_kernels,
        total_kernels: &total_kernels,
        extra_kernels: &extra_kernels,
        col_slices: NumSlice::for_table(src),
    };

    let n = src.num_rows();
    stats.rows_scanned += n as u64;
    let chunks = config.chunks(n);
    let mut span = guard.span("pivot");
    // Probing here (a) labels the trace with the chosen kernel path and
    // (b) warms the lazy packed code vectors serially, before workers race
    // on the per-column build cell.
    span.set_detail(if ctx.try_fused(config).is_some() {
        "vectorized"
    } else {
        "scalar"
    });

    // Worker 0's partial seeds the global matrix (its group order is the
    // serial prefix order); later workers fold in, in worker order.
    let (mut groups, mut accs) = fan_out(
        "pivot_aggregate",
        chunks,
        guard,
        &mut span,
        stats,
        |chunk, stats, span| ctx.scan(chunk, guard, stats, config, span),
        |(groups, accs), (wgroups, waccs), stats| {
            let mut waccs = waccs.into_iter();
            for gid in groups.merge_ids(wgroups, stats) {
                let gid = gid as usize;
                if (gid + 1) * width > accs.len() {
                    accs.extend_from_slice(&template);
                }
                for w in 0..width {
                    let partial = waccs.next().expect("partial accs cover groups × width");
                    accs[gid * width + w].merge(partial)?;
                }
            }
            Ok(())
        },
    )?;

    // Global aggregation yields one row even over empty input.
    if j_cols.is_empty() && groups.is_empty() {
        groups.get_or_insert_key(&[], stats);
        accs.extend_from_slice(&template);
    }

    // Materialize in the CASE raw layout.
    let src_schema = src.schema();
    let mut fields: Vec<Field> = j_cols
        .iter()
        .map(|&c| src_schema.field_at(c).clone())
        .collect();
    for (t, task) in tasks.iter().enumerate() {
        for i in 0..task.combos.len() {
            for (l, (func, input)) in task.lanes.iter().enumerate() {
                fields.push(Field::new(
                    format!("__c{t}_{i}_{l}"),
                    func.output_type(input, src_schema),
                ));
            }
        }
        if task.total.is_some() {
            fields.push(Field::new(format!("__tot{t}"), DataType::Float));
        }
    }
    for (x, (func, input)) in extra_lanes.iter().enumerate() {
        fields.push(Field::new(
            format!("__x{x}_0"),
            func.output_type(input, src_schema),
        ));
    }
    // Column-direct build: key columns come straight from the group map
    // (no per-row `Vec<Value>` clone), accumulator lanes fill one typed
    // column at a time.
    let acc_dtypes: Vec<DataType> = fields[j_cols.len()..].iter().map(|f| f.dtype).collect();
    let schema = Schema::new(fields)?.into_shared();
    let n_groups = groups.len();
    let mut columns = groups.build_key_columns(src, j_cols)?;
    for (w, &dtype) in acc_dtypes.iter().enumerate() {
        let mut col = Column::new(dtype);
        for gid in 0..n_groups {
            col.push(accs[gid * width + w].finish())?;
        }
        columns.push(col);
    }
    stats.rows_materialized += n_groups as u64;
    Ok(Table::from_columns(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, d, a) in [
            (1, "Mon", 10.0),
            (1, "Tue", 30.0),
            (2, "Mon", 5.0),
            (1, "Mon", 10.0),
            (2, "Tue", 15.0),
        ] {
            t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn task(t: &Table) -> PivotTask {
        PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, Expr::col(t.schema(), "amt").unwrap())],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: Some(Expr::col(t.schema(), "amt").unwrap()),
        }
    }

    #[test]
    fn pivot_matches_manual_sums() {
        let t = sales();
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[0], &[task(&t)], &[], &mut st).unwrap();
        let raw = raw.sorted_by(&[0]);
        // store 1: Mon 20, Tue 30, total 50; store 2: Mon 5, Tue 15, total 20.
        assert_eq!(raw.get(0, 1), Value::Float(20.0));
        assert_eq!(raw.get(0, 2), Value::Float(30.0));
        assert_eq!(raw.get(0, 3), Value::Float(50.0));
        assert_eq!(raw.get(1, 1), Value::Float(5.0));
        assert_eq!(raw.get(1, 3), Value::Float(20.0));
        assert_eq!(st.case_condition_evals, 0, "no CASE chain evaluated");
    }

    #[test]
    fn global_group_and_extras() {
        let t = sales();
        let mut st = ExecStats::default();
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let raw = pivot_aggregate(&t, &[], &[task(&t)], &extras, &mut st).unwrap();
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Float(25.0)); // Mon global
        assert_eq!(raw.get(0, 1), Value::Float(45.0)); // Tue global
        assert_eq!(raw.get(0, 2), Value::Float(70.0)); // total
        assert_eq!(raw.get(0, 3), Value::Int(5)); // count(*)
    }

    #[test]
    fn empty_input_global_row() {
        let t = Table::empty(sales().schema().clone());
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[], &[task(&t)], &[], &mut st).unwrap();
        assert_eq!(raw.num_rows(), 1);
        assert_eq!(raw.get(0, 0), Value::Null);
    }

    #[test]
    fn min_max_and_avg_lanes() {
        let t = sales();
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let task = PivotTask {
            by_cols: vec![1],
            lanes: vec![
                (AggFunc::Min, amt.clone()),
                (AggFunc::Max, amt.clone()),
                (AggFunc::Avg, amt),
            ],
            combos: vec![vec![Value::str("Mon")], vec![Value::str("Tue")]],
            total: None,
        };
        let mut st = ExecStats::default();
        let raw = pivot_aggregate(&t, &[0], &[task], &[], &mut st)
            .unwrap()
            .sorted_by(&[0]);
        // store 1 Mon: amounts 10,10 → min 10, max 10, avg 10.
        assert_eq!(raw.get(0, 1), Value::Float(10.0));
        assert_eq!(raw.get(0, 2), Value::Float(10.0));
        assert_eq!(raw.get(0, 3), Value::Float(10.0));
        // store 2 Tue: 15.
        assert_eq!(raw.get(1, 4), Value::Float(15.0));
    }

    #[test]
    fn parallel_pivot_identical_to_serial() {
        // A table large enough for many small morsels: store ∈ 0..23,
        // dweek cycles over 7 names, integer-valued amounts so chunked
        // float sums are exact.
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let days = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let mut t = Table::with_capacity(schema, 9_000);
        for i in 0..9_000usize {
            t.push_row(&[
                Value::Int((i as i64 * 31) % 23),
                Value::str(days[i % 7]),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 97) as f64)
                },
            ])
            .unwrap();
        }
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let tasks = vec![PivotTask {
            by_cols: vec![1],
            lanes: vec![(AggFunc::Sum, amt.clone()), (AggFunc::Count, amt.clone())],
            combos: days.iter().map(|d| vec![Value::str(*d)]).collect(),
            total: Some(amt),
        }];
        let extras = vec![(AggFunc::CountStar, Expr::lit(1))];
        let serial = pivot_aggregate_with_config(
            &t,
            &[0],
            &tasks,
            &extras,
            &ResourceGuard::unlimited(),
            &mut ExecStats::default(),
            &ParallelConfig::serial(),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let config = ParallelConfig {
                threads,
                morsel_rows: 256,
                min_parallel_rows: 0,
                ..ParallelConfig::serial()
            };
            let parallel = pivot_aggregate_with_config(
                &t,
                &[0],
                &tasks,
                &extras,
                &ResourceGuard::unlimited(),
                &mut ExecStats::default(),
                &config,
            )
            .unwrap();
            let s_rows: Vec<Vec<Value>> = serial.rows().collect();
            let p_rows: Vec<Vec<Value>> = parallel.rows().collect();
            assert_eq!(s_rows, p_rows, "threads={threads}");
        }
    }
}
