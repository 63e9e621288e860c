//! Horizontal aggregation evaluation (SIGMOD §3.2 and DMKD §3).
//!
//! All four strategies the papers benchmark are implemented over a shared
//! pipeline:
//!
//! 1. (indirect variants) compute the vertical pre-aggregate `FV` grouped by
//!    `D1..Dk`;
//! 2. discover the `N` distinct subgroup combinations (`SELECT DISTINCT
//!    Dj+1..Dk`), which define the result columns;
//! 3. produce a *raw* table `[D1..Dj][cell lanes][totals][extras]` — for
//!    the CASE strategies via the pivot ([`crate::dispatch`]: the aggregate
//!    at `GROUP BY ∪ BY` in one scan, O(1) per row, transposed at finalize
//!    — the paper's "future work" optimization) or, as the
//!    `jump_table: false` ablation only, via `N` CASE-guarded aggregates
//!    (one scan, O(N) conditions per row); for the SPJ strategies via `N`
//!    aggregation passes, each over the selection `combination ∧ WHERE`,
//!    assembled with `N` left outer joins onto `F0`;
//! 4. post-project: percentage division (`Hpct` cells divide by the group
//!    total; missing cells count as 0, matching SIGMOD's `ELSE 0` CASE
//!    form), `DEFAULT 0` substitution, column naming, optional vertical
//!    partitioning when the column limit is exceeded.

use crate::error::{CoreError, Result};
use crate::naming::{cell_column_name, dedup_names, partition_ranges};
use crate::query::{Fact, FactRows, HorizontalQuery};
use crate::strategy::{HorizontalOptions, HorizontalStrategy};
use crate::vertical::{count_insert, extra_spec, into_shared};
use pa_engine::{
    aggregate_level, distinct, divide, lookup, AggFunc, AggSpec, ExecStats, Expr, ParallelConfig,
    ResourceGuard, Selected, Selection,
};
use pa_storage::{Catalog, Column, DataType, Field, HashIndex, Schema, SharedTable, Table, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// Result of a horizontal query: one table normally, several when the
/// column limit forces vertical partitioning (each partition repeats the
/// `D1..Dj` key — DMKD §3.6).
#[derive(Debug)]
pub struct HorizontalResult {
    /// Result partitions (`FH`, or `FH_p0..`): values this result owns.
    pub partitions: Vec<SharedTable>,
    /// Work counters for the whole plan.
    pub stats: ExecStats,
    /// Names of the generated cell columns, per term.
    pub cell_columns: Vec<Vec<String>>,
}

impl HorizontalResult {
    /// The single result table.
    ///
    /// # Panics
    ///
    /// Panics if the result was vertically partitioned (more than one
    /// partition); iterate `partitions` instead for partitioned output.
    pub fn table(&self) -> SharedTable {
        assert_eq!(self.partitions.len(), 1, "result is partitioned");
        self.partitions[0].clone()
    }

    /// Owned snapshot of the single result table.
    ///
    /// # Panics
    ///
    /// Panics if the result was vertically partitioned, like [`Self::table`].
    pub fn snapshot(&self) -> Table {
        self.table().read().clone()
    }
}

/// Per-term plan against the chosen source table (`F` or `FV`).
#[derive(Debug)]
struct TermPlan {
    by_src_cols: Vec<usize>,
    /// Aggregations computing each cell lane from source rows: one, or a
    /// sum and a count (`avg` re-aggregated from `FV`).
    lanes: Vec<(AggFunc, Expr)>,
    /// Group-total aggregation for percentage terms.
    total: Option<Expr>,
    /// The distinct `BY` combinations, sorted — read off the term's level
    /// table once, and moved into the pivot's task ([`plans_as_tasks`]).
    combos: Vec<Vec<Value>>,
    /// One result column per combination (so also their count).
    names: Vec<String>,
}

/// The count family: an absent group counts 0, and the user-facing column
/// is `Int` whatever the strategy re-aggregated it through.
fn is_count(func: AggFunc) -> bool {
    use AggFunc::{ApproxCountDistinct, Count, CountDistinct, CountStar};
    matches!(
        func,
        Count | CountDistinct | CountStar | ApproxCountDistinct
    )
}

/// Distributive re-aggregation of a partial aggregate (Gray et al.): how
/// `func` partials computed at the `D1..Dk` level combine into `D1..Dj`.
fn reagg_func(func: AggFunc) -> AggFunc {
    match func {
        AggFunc::Sum | AggFunc::Count | AggFunc::CountStar => AggFunc::Sum,
        AggFunc::Min => AggFunc::Min,
        AggFunc::Max => AggFunc::Max,
        AggFunc::Avg => unreachable!("avg is handled as a sum/count pair"),
        AggFunc::CountDistinct
        | AggFunc::Percentile(_)
        | AggFunc::ApproxPercentile(_)
        | AggFunc::ApproxCountDistinct => {
            unreachable!("holistic aggregates are rejected by FV strategies upstream")
        }
    }
}

/// The table horizontal aggregation reads from: the fact table (held for
/// reading, with the statement's selection) or the owned `FV`
/// pre-aggregate, which the selection already went into.
enum Source<'a> {
    Fact(FactRows<'a>),
    Fv(Table),
}

impl Source<'_> {
    fn selected(&self) -> Selected<'_> {
        match self {
            Source::Fact(rows) => rows.selected(),
            Source::Fv(t) => t.into(),
        }
    }

    fn schema(&self) -> &std::sync::Arc<Schema> {
        match self {
            Source::Fact(rows) => rows.schema(),
            Source::Fv(t) => t.schema(),
        }
    }
}

/// Evaluate a horizontal query under the given options. `FV`, `F0..FN`
/// (SPJ) and the `FH` partitions are values of the evaluation; no plan
/// stores a table, so `_prefix` names nothing.
pub fn eval_horizontal(
    catalog: &Catalog,
    q: &HorizontalQuery,
    opts: &HorizontalOptions,
    _prefix: &str,
) -> Result<HorizontalResult> {
    let fact = Fact::named(catalog, &q.table)?;
    eval_horizontal_on(catalog, &fact, q, opts, &ResourceGuard::unlimited())
}

/// [`eval_horizontal`] over an already resolved fact table, under a
/// [`ResourceGuard`]: every aggregation scan, pivot group and join output
/// row is charged against the guard, so a runaway `Hpct` pivot fails with
/// [`CoreError::BudgetExceeded`] instead of exhausting memory.
pub(crate) fn eval_horizontal_on(
    catalog: &Catalog,
    fact: &Fact,
    q: &HorizontalQuery,
    opts: &HorizontalOptions,
    guard: &ResourceGuard,
) -> Result<HorizontalResult> {
    q.validate()?;
    let mut stats = ExecStats::default();

    let f_guard = fact.read();
    let f_schema = f_guard.schema().clone();
    // Every aggregation pass of this evaluation runs under the statement's
    // one configuration (the engine drops small inputs like FV to the
    // serial path operator by operator).
    let par = fact.config();

    for term in &q.terms {
        for b in &term.by {
            f_schema
                .index_of(b)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown BY column {b}")))?;
        }
    }
    let j_cols_f: Vec<usize> = q
        .group_by
        .iter()
        .map(|n| {
            f_schema
                .index_of(n)
                .map_err(|_| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}")))
        })
        .collect::<Result<Vec<_>>>()?;

    // ---------- Build the source (F directly, or the FV pre-aggregate) and
    // the per-term / per-extra lane descriptions against it. ----------
    type Lanes = Vec<(AggFunc, Expr)>;
    let mut term_lanes: Vec<(Lanes, Option<Expr>)> = Vec::new();
    let mut extra_specs_src: Vec<Lanes> = Vec::new();
    let (source, j_cols): (Source<'_>, Vec<usize>) = if opts.strategy.uses_fv() {
        // Holistic aggregates cannot be re-aggregated from the FV partial
        // (Gray et al.): reject rather than silently double-count.
        for term in q.terms.iter() {
            if term.func.is_holistic() {
                return Err(CoreError::Unsupported(format!(
                    "{} is holistic and cannot use an FV-based strategy; \
                     evaluate it with CaseDirect or SpjDirect",
                    term.func.display_name()
                )));
            }
        }
        for extra in &q.extra {
            if extra.func.is_holistic() {
                return Err(CoreError::Unsupported(format!(
                    "{} is holistic and cannot use an FV-based strategy; \
                     evaluate it with CaseDirect or SpjDirect",
                    extra.func.display_name()
                )));
            }
        }
        // FV keys: group_by then each term's by columns (deduped).
        let mut key_names: Vec<String> = q.group_by.clone();
        for term in &q.terms {
            for b in &term.by {
                if !key_names.iter().any(|c| c.eq_ignore_ascii_case(b)) {
                    key_names.push(b.clone());
                }
            }
        }
        let key_cols_f: Vec<usize> = key_names
            .iter()
            .map(|n| f_schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;

        let mut specs: Vec<AggSpec> = Vec::new();
        let mut partial_pos: Vec<Vec<usize>> = Vec::new(); // per term, lane cols
        let mut term_funcs: Vec<AggFunc> = Vec::new();
        for (t, term) in q.terms.iter().enumerate() {
            let measure = term.measure.to_expr(&f_schema)?;
            let base = key_cols_f.len() + specs.len();
            term_funcs.push(term.func);
            match term.func {
                AggFunc::Avg => {
                    specs.push(AggSpec::new(
                        AggFunc::Sum,
                        measure.clone(),
                        format!("__ps{t}"),
                    ));
                    specs.push(AggSpec::new(AggFunc::Count, measure, format!("__pc{t}")));
                    partial_pos.push(vec![base, base + 1]);
                }
                func => {
                    specs.push(AggSpec::new(func, measure, format!("__p{t}")));
                    partial_pos.push(vec![base]);
                }
            }
        }
        let mut extra_partial_pos: Vec<Vec<usize>> = Vec::new();
        for (e, extra) in q.extra.iter().enumerate() {
            let base = key_cols_f.len() + specs.len();
            match extra.func {
                AggFunc::Avg => {
                    let m = extra
                        .measure
                        .as_ref()
                        .ok_or_else(|| CoreError::InvalidQuery("avg requires a measure".into()))?
                        .to_expr(&f_schema)?;
                    specs.push(AggSpec::new(AggFunc::Sum, m.clone(), format!("__es{e}")));
                    specs.push(AggSpec::new(AggFunc::Count, m, format!("__ec{e}")));
                    extra_partial_pos.push(vec![base, base + 1]);
                }
                _ => {
                    let mut spec = extra_spec(extra, &f_schema)?;
                    spec.name = format!("__e{e}");
                    specs.push(spec);
                    extra_partial_pos.push(vec![base]);
                }
            }
        }
        let fv = aggregate_level(
            f_guard.selected(),
            &key_cols_f,
            &specs,
            guard,
            &mut stats,
            &par,
        )?;
        drop(f_guard);
        count_insert(&fv, &mut stats);

        for (t, term) in q.terms.iter().enumerate() {
            let lanes: Vec<(AggFunc, Expr)> = match term.func {
                AggFunc::Avg => vec![
                    (AggFunc::Sum, Expr::Col(partial_pos[t][0])),
                    (AggFunc::Sum, Expr::Col(partial_pos[t][1])),
                ],
                func => vec![(reagg_func(func), Expr::Col(partial_pos[t][0]))],
            };
            let total = term.percentage.then(|| Expr::Col(partial_pos[t][0]));
            term_lanes.push((lanes, total));
        }
        for (e, extra) in q.extra.iter().enumerate() {
            extra_specs_src.push(match extra.func {
                AggFunc::Avg => vec![
                    (AggFunc::Sum, Expr::Col(extra_partial_pos[e][0])),
                    (AggFunc::Sum, Expr::Col(extra_partial_pos[e][1])),
                ],
                func => vec![(reagg_func(func), Expr::Col(extra_partial_pos[e][0]))],
            });
        }
        let j_cols_fv: Vec<usize> = (0..q.group_by.len()).collect();
        (Source::Fv(fv), j_cols_fv)
    } else {
        for term in &q.terms {
            let measure = term.measure.to_expr(&f_schema)?;
            let total = term.percentage.then(|| measure.clone());
            term_lanes.push((vec![(term.func, measure)], total));
        }
        for extra in &q.extra {
            let spec = extra_spec(extra, &f_schema)?;
            extra_specs_src.push(vec![(spec.func, spec.input)]);
        }
        (Source::Fact(f_guard), j_cols_f)
    };
    let src = source.selected();
    let src_schema = source.schema().clone();

    // ---------- Distinct subgroup combinations → result columns. ----------
    // The distinct BY-combination set depends only on the fact table's
    // data (FV preserves it: FV groups by `group_by ∪ by`, so the distinct
    // BY tuples are identical over F and FV): it is the level `BY` of the
    // table with no lanes, kept in the catalog's level cache under
    // `(table, BY columns)` and served by whatever level sits there — its
    // own, or one a ROLLUP left with lanes. The cache is invalidated by
    // every logged mutation of the table, so a hit is always current. A
    // hit charges the set it hands over; a miss is a keyed scan of the
    // source like the pivot beside it — `distinct` charges the rows it
    // reads morsel by morsel, then the set — so a cold statement costs one
    // more pass of the table than a warm one, in its budget and its trace
    // as on the clock, as a cold lattice level always has, and a deadline
    // or cancellation lands inside the pass. A fact without a cache key
    // (one with a `WHERE`) is scanned for its combinations every time: a BY
    // value the selection filtered out is not a result column.
    let combo_cache = fact.cache_key().map(|key| (catalog.combo_cache(), key));
    let multi_term = q.terms.len() > 1;
    let mut plans: Vec<TermPlan> = Vec::new();
    for (t, term) in q.terms.iter().enumerate() {
        let by_src_cols: Vec<usize> = term
            .by
            .iter()
            .map(|n| src_schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        let by: Vec<String> = term.by.iter().map(|c| c.to_ascii_lowercase()).collect();
        let level: Arc<Table> = {
            let mut span = guard.span("combos");
            span.add_morsels(1);
            match combo_cache.and_then(|(cache, key)| cache.get(key, &by, &[])) {
                Some(cached) => {
                    stats.combo_cache_hits += 1;
                    guard.charge(cached.num_rows() as u64)?;
                    span.add_rows(cached.num_rows() as u64);
                    cached
                }
                None => {
                    stats.combo_cache_misses += 1;
                    let found = distinct(src, &by_src_cols, guard, &mut stats, &par)?;
                    let every_col: Vec<usize> = (0..by.len()).collect();
                    let level = Arc::new(found.sorted_by(&every_col));
                    if let Some((cache, key)) = combo_cache {
                        cache.store(key, &by, &[], Arc::clone(&level));
                    }
                    level
                }
            }
        };
        let keys = &level.columns()[..by.len()];
        let combos: Vec<Vec<Value>> = (0..level.num_rows())
            .map(|r| keys.iter().map(|c| c.get(r)).collect())
            .collect();
        let prefix_name = if multi_term { term.name.as_str() } else { "" };
        let mut names: Vec<String> = combos
            .iter()
            .map(|c| cell_column_name(prefix_name, &term.by, c))
            .collect();
        dedup_names(&mut names);
        let (lanes, total) = term_lanes[t].clone();
        plans.push(TermPlan {
            by_src_cols,
            lanes,
            total,
            combos,
            names,
        });
    }

    // Column budget (DMKD §3.6).
    let n_cells: usize = plans.iter().map(|p| p.names.len()).sum();
    let total_cols = q.group_by.len() + n_cells + q.extra.len();
    let partitioned = total_cols > opts.max_columns;
    if partitioned && !opts.allow_partitioning {
        return Err(CoreError::TooManyColumns {
            needed: total_cols,
            limit: opts.max_columns,
        });
    }

    // ---------- Raw table: [j][term0 lanes×cells][term0 total?].. [extras] --
    let raw = match opts.strategy {
        HorizontalStrategy::CaseDirect | HorizontalStrategy::CaseFromFv => {
            // The CASE plan is the pivot (the aggregate at GROUP BY ∪ BY,
            // transposed). The O(N) predicate chain runs only as the
            // `jump_table: false` ablation.
            if opts.jump_table {
                let flat_extras: Vec<(AggFunc, Expr)> =
                    extra_specs_src.iter().flatten().cloned().collect();
                crate::dispatch::pivot_aggregate(
                    src,
                    &j_cols,
                    &plans_as_tasks(&mut plans),
                    &flat_extras,
                    guard,
                    &mut stats,
                    &par,
                )?
            } else {
                case_raw(
                    src,
                    &j_cols,
                    &plans,
                    &extra_specs_src,
                    guard,
                    &mut stats,
                    &par,
                )?
            }
        }
        HorizontalStrategy::SpjDirect | HorizontalStrategy::SpjFromFv => spj_raw(
            src,
            &j_cols,
            &plans,
            &extra_specs_src,
            guard,
            &mut stats,
            &par,
        )?,
    };
    drop(source);

    // ---------- Post-projection. ----------
    // `INSERT INTO FH SELECT ..` over the raw rows, walked in layout order:
    // the keys move over as they are, and every cell and extra is one typed
    // operation on its lanes ([`finish_cell`]).
    let j_len = q.group_by.len();
    let rows = raw.num_rows() as u64;
    stats.statements += 1;
    stats.rows_scanned += rows;
    stats.rows_materialized += rows;
    let mut raw = raw.into_columns().into_iter();
    let mut columns: Vec<Column> = raw.by_ref().take(j_len).collect();
    let mut fields: Vec<Field> = (q.group_by.iter().zip(&columns))
        .map(|(name, key)| Field::new(name.clone(), key.data_type()))
        .collect();
    let mut cell_columns: Vec<Vec<String>> = Vec::new();
    for (term, plan) in q.terms.iter().zip(&plans) {
        let width = plan.lanes.len();
        let cells: Vec<Column> = raw.by_ref().take(plan.names.len() * width).collect();
        let total = plan
            .total
            .as_ref()
            .map(|_| raw.next().expect("a total per term"));
        let mut cells = cells.into_iter();
        for name in &plan.names {
            let lanes = cells.by_ref().take(width).collect();
            let cell = finish_cell(
                lanes,
                total.as_ref(),
                term.func,
                term.default_zero,
                &mut stats,
            )?;
            fields.push(Field::new(name.clone(), cell.data_type()));
            columns.push(cell);
        }
        cell_columns.push(plan.names.clone());
    }
    for (extra, lanes) in q.extra.iter().zip(&extra_specs_src) {
        let lanes = raw.by_ref().take(lanes.len()).collect();
        let cell = finish_cell(lanes, None, extra.func, false, &mut stats)?;
        fields.push(Field::new(extra.name.clone(), cell.data_type()));
        columns.push(cell);
    }
    let fh = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?;

    // ---------- Partitioning. ----------
    let partitions: Vec<SharedTable> = if !partitioned {
        count_insert(&fh, &mut stats);
        vec![into_shared(fh)]
    } else {
        let n_key = j_len;
        let cells_total = fh.num_columns() - n_key;
        let ranges = partition_ranges(cells_total, n_key, opts.max_columns);
        let mut out = Vec::with_capacity(ranges.len());
        for range in ranges {
            let mut fields: Vec<pa_storage::Field> = fh.schema().fields()[..n_key].to_vec();
            let mut cols: Vec<pa_storage::Column> = fh.columns()[..n_key].to_vec();
            for c in range {
                fields.push(fh.schema().field_at(n_key + c).clone());
                cols.push(fh.column(n_key + c).clone());
            }
            let part = Table::from_columns(Schema::new(fields)?.into_shared(), cols)?;
            count_insert(&part, &mut stats);
            out.push(into_shared(part));
        }
        out
    };

    Ok(HorizontalResult {
        partitions,
        stats,
        cell_columns,
    })
}

/// One output column of the post-projection from its raw lanes, one typed
/// operation each: a percentage is its cell over the group total on the
/// cell's own row, a cell no row fed counting 0 (SIGMOD's `ELSE 0`); an
/// `avg` re-aggregated from `FV` is its sum lane over its count lane (the
/// same [`divide`]: a sum with no value beside it has a zero or NULL count,
/// so it is NULL either way); a count-family cell or one with `DEFAULT 0`
/// reads NULL as 0, and a count is an `Int` column whatever the strategy
/// re-aggregated it through. Counted as the `CASE` conditions the generated
/// `SELECT` evaluates per row: `IS NULL` and `<> 0` for a percentage, `<> 0`
/// for an `avg`, `IS NULL` for a NULL read as 0.
fn finish_cell(
    lanes: Vec<Column>,
    total: Option<&Column>,
    func: AggFunc,
    default_zero: bool,
    stats: &mut ExecStats,
) -> Result<Column> {
    let mut lanes = lanes.into_iter();
    let cell = lanes.next().expect("a lane per cell");
    let count = lanes.next();
    let rows = cell.len() as u64;
    let cell = match total.or(count.as_ref()) {
        Some(divisor) => {
            stats.case_condition_evals += rows * (1 + u64::from(total.is_some()));
            let mut quotient = Column::with_capacity(DataType::Float, cell.len());
            divide(&cell, divisor, None, &mut quotient);
            quotient
        }
        None => cell,
    };
    let dtype = match is_count(func) {
        true => DataType::Int,
        false if default_zero => cell.data_type(),
        false => return Ok(cell),
    };
    stats.case_condition_evals += rows;
    Ok(cell.zero_nulls(dtype)?)
}

/// CASE strategy: one aggregation pass with `N` CASE-guarded terms.
#[allow(clippy::too_many_arguments)]
fn case_raw(
    src: Selected<'_>,
    j_cols: &[usize],
    plans: &[TermPlan],
    extras: &[Vec<(AggFunc, Expr)>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    par: &ParallelConfig,
) -> Result<Table> {
    let mut specs: Vec<AggSpec> = Vec::new();
    for (t, plan) in plans.iter().enumerate() {
        for (i, combo) in plan.combos.iter().enumerate() {
            let pred = Expr::key_match(
                &plan
                    .by_src_cols
                    .iter()
                    .zip(combo)
                    .map(|(&c, v)| (c, v.clone()))
                    .collect::<Vec<_>>(),
            );
            for (l, (func, input)) in plan.lanes.iter().enumerate() {
                // count(*) must only count the rows matching this cell:
                // under CASE it becomes count(CASE WHEN pred THEN 1 END).
                let (func, input) = if *func == AggFunc::CountStar {
                    (AggFunc::Count, Expr::lit(1))
                } else {
                    (*func, input.clone())
                };
                let case = Expr::Case {
                    branches: vec![(pred.clone(), input)],
                    else_value: None,
                };
                specs.push(AggSpec::new(func, case, format!("__c{t}_{i}_{l}")));
            }
        }
        if let Some(total) = &plan.total {
            specs.push(AggSpec::new(
                AggFunc::Sum,
                total.clone(),
                format!("__tot{t}"),
            ));
        }
    }
    for (e, lanes) in extras.iter().enumerate() {
        for (l, (func, input)) in lanes.iter().enumerate() {
            specs.push(AggSpec::new(*func, input.clone(), format!("__x{e}_{l}")));
        }
    }
    Ok(aggregate_level(src, j_cols, &specs, guard, stats, par)?)
}

/// SPJ strategy: `F0` = distinct groups; one aggregation per combination,
/// over the selection `combination ∧ WHERE` (the paper's `N` scans of the
/// source, each reading every row and keeping its own); assemble with left
/// outer joins into the raw layout. With no `GROUP BY` there is one group,
/// the one row every `Fi` has, and nothing to join.
fn spj_raw(
    src: Selected<'_>,
    j_cols: &[usize],
    plans: &[TermPlan],
    extras: &[Vec<(AggFunc, Expr)>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    par: &ParallelConfig,
) -> Result<Table> {
    // `WHERE Dh = vh and .. and Dk = vk`, on top of the source's own
    // selection.
    let only = |plan: &TermPlan, combo: &[Value], stats: &mut ExecStats| {
        let pairs: Vec<(usize, Value)> = plan
            .by_src_cols
            .iter()
            .zip(combo)
            .map(|(&c, v)| (c, v.clone()))
            .collect();
        Selection::compile(src, &Expr::key_match(&pairs), guard, stats, par)
    };
    let j_len = j_cols.len();

    // F0: every existing group combination (defines the result rows).
    let f0 = match j_len {
        0 => None,
        _ => {
            let f0 = distinct(src, j_cols, guard, stats, par)?;
            count_insert(&f0, stats);
            Some(f0)
        }
    };

    // Per-combination aggregations F1..FN, left-outer-joined onto F0: a
    // lookup of F0's keys in a transient index on each Fi's, along which
    // the raw table gathers Fi's value columns (NULL where F0's group has
    // no row in Fi).
    let f0_keys: Vec<usize> = (0..j_len).collect();
    let mut values: Vec<(Field, Column)> = Vec::new();
    let mut join = |fi: &Table, stats: &mut ExecStats| -> Result<()> {
        let rows = match &f0 {
            Some(f0) => {
                let index = Cow::Owned(HashIndex::build(fi, &f0_keys)?);
                Some(lookup(f0, &f0_keys, index, true, guard, stats)?)
            }
            None => None,
        };
        for value in &fi.columns()[j_len..] {
            let field = Field::new(format!("__r{}", values.len()), value.data_type());
            let value = rows
                .as_ref()
                .map_or_else(|| value.clone(), |rows| value.gather(rows));
            values.push((field, value));
        }
        Ok(())
    };
    let specs = |lanes: &[(AggFunc, Expr)], prefix: &str| -> Vec<AggSpec> {
        let named = lanes.iter().enumerate();
        named
            .map(|(l, (func, input))| AggSpec::new(*func, input.clone(), format!("{prefix}{l}")))
            .collect()
    };
    for plan in plans {
        for combo in plan.combos.iter() {
            let only = only(plan, combo, stats)?;
            let specs = specs(&plan.lanes, "v");
            let fi = aggregate_level(src.with(&only), j_cols, &specs, guard, stats, par)?;
            count_insert(&fi, stats);
            join(&fi, stats)?;
        }
        if let Some(total) = &plan.total {
            let spec = AggSpec::new(AggFunc::Sum, total.clone(), "t");
            join(
                &aggregate_level(src, j_cols, &[spec], guard, stats, par)?,
                stats,
            )?;
        }
    }
    for lanes in extras {
        let specs = specs(lanes, "e");
        join(
            &aggregate_level(src, j_cols, &specs, guard, stats, par)?,
            stats,
        )?;
    }

    // The final `INSERT INTO FH SELECT F0.D1.., F1.A, F2.A, ..`.
    let (mut fields, mut columns) = match f0 {
        Some(f0) => (f0.schema().fields().to_vec(), f0.into_columns()),
        None => (Vec::new(), Vec::new()),
    };
    for (field, column) in values {
        fields.push(field);
        columns.push(column);
    }
    let raw = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?;
    stats.rows_scanned += raw.num_rows() as u64;
    count_insert(&raw, stats);
    Ok(raw)
}

/// Bridge the per-term plans into the dispatch operator's task form; each
/// plan's combinations move into its task.
fn plans_as_tasks(plans: &mut [TermPlan]) -> Vec<crate::dispatch::PivotTask> {
    plans
        .iter_mut()
        .map(|p| crate::dispatch::PivotTask {
            by_cols: p.by_src_cols.clone(),
            lanes: p.lanes.clone(),
            combos: std::mem::take(&mut p.combos),
            total: p.total.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ExtraAgg, HorizontalTerm, Measure};
    use pa_engine::AggFunc;

    /// A small version of the store/day-of-week table behind SIGMOD Table 3.
    fn store_sales_catalog() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("dweek", DataType::Str),
            ("salesAmt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        // Store 2 sells Mon+Tue, store 4 only Tue (0% Monday — the paper
        // points at exactly this cell), store 7 only Mon.
        for (s, d, a) in [
            (2, "Mon", 100.0),
            (2, "Tue", 300.0),
            (2, "Mon", 100.0),
            (4, "Tue", 500.0),
            (4, "Tue", 300.0),
            (7, "Mon", 250.0),
        ] {
            t.push_row(&[Value::Int(s), Value::str(d), Value::Float(a)])
                .unwrap();
        }
        catalog.create_table("sales", t).unwrap();
        catalog
    }

    fn hpct_query() -> HorizontalQuery {
        let mut q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["dweek"]);
        q.extra.push(ExtraAgg::sum("salesAmt", "total_sales"));
        q
    }

    /// The hash-tier ablation: every grouping level hashed, none indexed.
    const HASH_TIER: ParallelConfig = ParallelConfig {
        dense_budget: 0,
        ..ParallelConfig::serial()
    };

    /// Every strategy as deployed, and the CASE pair on the hash tier.
    fn all_option_sets() -> Vec<(HorizontalOptions, Option<ParallelConfig>)> {
        let mut out = Vec::new();
        for strategy in HorizontalStrategy::all() {
            out.push((HorizontalOptions::with_strategy(strategy), None));
        }
        for strategy in [
            HorizontalStrategy::CaseDirect,
            HorizontalStrategy::CaseFromFv,
        ] {
            out.push((HorizontalOptions::with_strategy(strategy), Some(HASH_TIER)));
        }
        out
    }

    /// [`eval_horizontal`] of a statement handed `config`.
    fn eval_under(
        catalog: &Catalog,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
        config: Option<ParallelConfig>,
    ) -> Result<HorizontalResult> {
        let fact = Fact::named(catalog, &q.table)?.configured(config);
        eval_horizontal_on(catalog, &fact, q, opts, &ResourceGuard::unlimited())
    }

    fn check_table3_shape(result: &HorizontalResult) {
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.num_rows(), 3);
        // Columns: store, dweek=Mon, dweek=Tue, total_sales.
        assert_eq!(t.num_columns(), 4);
        assert_eq!(t.schema().field_at(1).name, "dweek=Mon");
        assert_eq!(t.schema().field_at(2).name, "dweek=Tue");
        // Store 2: 40% Mon, 60% Tue, 500 total.
        assert_eq!(t.get(0, 1), Value::Float(0.4));
        assert_eq!(t.get(0, 2), Value::Float(0.6));
        assert_eq!(t.get(0, 3), Value::Float(500.0));
        // Store 4: 0% Monday — "observe the 0% for store 4 on Monday".
        assert_eq!(t.get(1, 1), Value::Float(0.0));
        assert_eq!(t.get(1, 2), Value::Float(1.0));
        // Store 7: 100% Monday, 0% Tuesday.
        assert_eq!(t.get(2, 1), Value::Float(1.0));
        assert_eq!(t.get(2, 2), Value::Float(0.0));
    }

    #[test]
    fn paper_table3_every_strategy() {
        for (i, (opts, config)) in all_option_sets().into_iter().enumerate() {
            let catalog = store_sales_catalog();
            let result = eval_under(&catalog, &hpct_query(), &opts, config)
                .unwrap_or_else(|e| panic!("options {i}: {e}"));
            check_table3_shape(&result);
        }
    }

    #[test]
    fn percentage_rows_sum_to_one() {
        let catalog = store_sales_catalog();
        let result =
            eval_horizontal(&catalog, &hpct_query(), &HorizontalOptions::default(), "s_").unwrap();
        let t = result.snapshot();
        for r in 0..t.num_rows() {
            let sum = match (t.get(r, 1), t.get(r, 2)) {
                (Value::Float(a), Value::Float(b)) => a + b,
                other => panic!("{other:?}"),
            };
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hagg_missing_cells_are_null_unless_default_zero() {
        let catalog = store_sales_catalog();
        let q = HorizontalQuery::hagg("sales", &["store"], AggFunc::Sum, "salesAmt", &["dweek"]);
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "n_").unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(1, 1), Value::Null, "store 4 Monday: NULL per DMKD");
        assert_eq!(t.get(1, 2), Value::Float(800.0));

        let mut qz = q.clone();
        qz.terms[0] = qz.terms[0].clone().with_default_zero();
        let result = eval_horizontal(&catalog, &qz, &HorizontalOptions::default(), "z_").unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(1, 1), Value::Float(0.0), "DEFAULT 0");
    }

    #[test]
    fn hagg_all_strategies_agree() {
        for func in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let mut reference: Option<Vec<Vec<Value>>> = None;
            for (opts, config) in all_option_sets() {
                let catalog = store_sales_catalog();
                let q = HorizontalQuery::hagg("sales", &["store"], func, "salesAmt", &["dweek"]);
                let result = eval_under(&catalog, &q, &opts, config)
                    .unwrap_or_else(|e| panic!("{func:?} {}: {e}", opts.strategy.label()));
                let rows: Vec<Vec<Value>> = result.snapshot().sorted_by(&[0]).rows().collect();
                match &reference {
                    None => reference = Some(rows),
                    Some(r) => assert_eq!(
                        r,
                        &rows,
                        "{func:?} under {} (hash tier: {})",
                        opts.strategy.label(),
                        config.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn binary_coding_idiom() {
        // DMKD: SELECT tid, max(1 BY dweek DEFAULT 0) FROM sales GROUP BY store.
        let catalog = store_sales_catalog();
        let q = HorizontalQuery {
            table: "sales".into(),
            group_by: vec!["store".into()],
            terms: vec![
                HorizontalTerm::hagg(AggFunc::Max, Measure::LitInt(1), &["dweek"])
                    .with_default_zero(),
            ],
            extra: vec![],
        };
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "b_").unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        // Store 2: bought both days → 1,1. Store 4: 0,1. Store 7: 1,0.
        assert_eq!(t.get(0, 1), Value::Int(1));
        assert_eq!(t.get(0, 2), Value::Int(1));
        assert_eq!(t.get(1, 1), Value::Int(0));
        assert_eq!(t.get(1, 2), Value::Int(1));
        assert_eq!(t.get(2, 1), Value::Int(1));
        assert_eq!(t.get(2, 2), Value::Int(0));
    }

    #[test]
    fn no_group_by_yields_one_global_row() {
        for (opts, config) in all_option_sets() {
            let catalog = store_sales_catalog();
            let q = HorizontalQuery::hpct("sales", &[], "salesAmt", &["dweek"]);
            let result = eval_under(&catalog, &q, &opts, config)
                .unwrap_or_else(|e| panic!("{}: {e}", opts.strategy.label()));
            let t = result.snapshot();
            assert_eq!(t.num_rows(), 1, "{}", opts.strategy.label());
            // Mon = 450/1550, Tue = 1100/1550.
            assert!((t.get(0, 0).as_f64().unwrap() - 450.0 / 1550.0).abs() < 1e-12);
            assert!((t.get(0, 1).as_f64().unwrap() - 1100.0 / 1550.0).abs() < 1e-12);
        }
    }

    #[test]
    fn multiple_terms_prefix_column_names() {
        let catalog = store_sales_catalog();
        let q = HorizontalQuery {
            table: "sales".into(),
            group_by: vec!["store".into()],
            terms: vec![
                HorizontalTerm::hpct("salesAmt", &["dweek"]),
                HorizontalTerm::hagg(AggFunc::CountStar, Measure::LitInt(1), &["dweek"]),
            ],
            extra: vec![],
        };
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "m_").unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.num_columns(), 5);
        assert!(t.schema().field_at(1).name.starts_with("hpct_salesAmt:"));
        assert!(t.schema().field_at(3).name.contains("dweek=Mon"));
        // Store 2 made 2 Monday transactions.
        assert_eq!(t.get(0, 3), Value::Int(2));
    }

    #[test]
    fn column_limit_enforced_and_partitioning_works() {
        let catalog = store_sales_catalog();
        let q = hpct_query();
        let strict = HorizontalOptions {
            max_columns: 3, // store + 2 cells + total_sales = 4 > 3
            ..HorizontalOptions::default()
        };
        assert!(matches!(
            eval_horizontal(&catalog, &q, &strict, "l_"),
            Err(CoreError::TooManyColumns {
                needed: 4,
                limit: 3
            })
        ));

        let partitioned = HorizontalOptions {
            max_columns: 3,
            allow_partitioning: true,
            ..HorizontalOptions::default()
        };
        let result = eval_horizontal(&catalog, &q, &partitioned, "p_").unwrap();
        assert_eq!(result.partitions.len(), 2);
        for part in &result.partitions {
            let t = part.read();
            assert!(t.num_columns() <= 3);
            assert_eq!(t.schema().field_at(0).name, "store", "key repeated");
            assert_eq!(t.num_rows(), 3);
        }
        assert_eq!(catalog.table_names(), ["sales"], "partitions are values");
    }

    #[test]
    fn case_direct_cost_is_n_conditions_per_row_jump_table_is_constant() {
        // Blow the example up so the per-row CASE chain dominates the small
        // fixed cost of the post-projection guards.
        let catalog = store_sales_catalog();
        let copy = catalog.table("sales").unwrap().read().clone();
        for _ in 0..9 {
            pa_engine::insert_into(&catalog, "sales", &copy, &mut ExecStats::default()).unwrap();
        }
        assert_eq!(catalog.table("sales").unwrap().read().num_rows(), 60);
        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["dweek"]);
        // Legacy chain (jump table off): 60 rows × 2 combos = 120
        // conditions in the raw phase, plus the small post-projection
        // constant (3 groups × 2 cells × 2 guards).
        let legacy = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions {
                jump_table: false,
                ..HorizontalOptions::default()
            },
            "c1_",
        )
        .unwrap();
        assert!(
            legacy.stats.case_condition_evals >= 120,
            "{}",
            legacy.stats.case_condition_evals
        );
        // (The legacy run still counts dense ops for its GROUP BY hash
        // aggregation — only the CASE evaluation itself avoids the pivot.)
        // Default: the jump table pays only the post-projection guards —
        // independent of n — and every lookup pass runs dense.
        let jump = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "c2_").unwrap();
        assert_eq!(jump.stats.case_condition_evals, 12);
        assert!(jump.stats.dense_group_ops > 0, "{}", jump.stats);
        assert_eq!(jump.stats.hash_group_ops, 0, "{}", jump.stats);
        // Hash-tier ablation: same constant CASE cost, hash lookups.
        let dispatch =
            eval_under(&catalog, &q, &HorizontalOptions::default(), Some(HASH_TIER)).unwrap();
        assert_eq!(dispatch.stats.case_condition_evals, 12);
        assert_eq!(dispatch.stats.dense_group_ops, 0, "{}", dispatch.stats);
        assert!(dispatch.stats.hash_group_ops > 0, "{}", dispatch.stats);
        assert!(dispatch.stats.case_condition_evals * 5 < legacy.stats.case_condition_evals);
    }

    #[test]
    fn combo_cache_serves_repeat_queries_and_mutations_invalidate() {
        let catalog = store_sales_catalog();
        let q = hpct_query();
        let first = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "k1_").unwrap();
        assert_eq!(first.stats.combo_cache_misses, 1, "{}", first.stats);
        assert_eq!(first.stats.combo_cache_hits, 0);
        // The set is the level `(dweek)` of the one cache, with no lanes.
        let (cache, by) = (catalog.lattice_cache(), ["dweek".to_string()]);
        let set = cache.get("sales", &by, &[]).expect("stored by the miss");
        assert_eq!((set.num_rows(), set.num_columns()), (2, 1));
        assert!(!cache.probe("sales", &by, &["sum(salesAmt)".to_string()]));
        // Same table + BY dims, different strategy: served from cache.
        let second = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseFromFv),
            "k2_",
        )
        .unwrap();
        assert_eq!(second.stats.combo_cache_hits, 1, "{}", second.stats);
        assert_eq!(second.stats.combo_cache_misses, 0);
        assert_eq!(
            first.snapshot().sorted_by(&[0]).rows().collect::<Vec<_>>(),
            second.snapshot().sorted_by(&[0]).rows().collect::<Vec<_>>(),
        );
        // A logged append invalidates: the next query re-discovers and sees
        // the new combination as a new result column.
        let extra_schema = catalog.table("sales").unwrap().read().schema().clone();
        let mut wed = Table::empty(extra_schema);
        wed.push_row(&[Value::Int(2), Value::str("Wed"), Value::Float(50.0)])
            .unwrap();
        pa_engine::insert_into(&catalog, "sales", &wed, &mut ExecStats::default()).unwrap();
        let third = eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "k3_").unwrap();
        assert_eq!(third.stats.combo_cache_misses, 1, "{}", third.stats);
        let t = third.snapshot();
        assert_eq!(t.num_columns(), 5, "Wed became a column");
        assert_eq!(t.schema().field_at(3).name, "dweek=Wed");
    }

    #[test]
    fn spj_is_more_expensive_than_case() {
        let catalog = store_sales_catalog();
        let q = hpct_query();
        let case = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect),
            "x1_",
        )
        .unwrap();
        let spj = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::SpjDirect),
            "x2_",
        )
        .unwrap();
        assert!(
            spj.stats.rows_scanned > case.stats.rows_scanned,
            "spj {} vs case {}",
            spj.stats.rows_scanned,
            case.stats.rows_scanned
        );
        // SPJ's F0..FN are counted as the script's statements and held as
        // values: nothing is registered.
        assert!(spj.stats.statements > case.stats.statements);
        assert_eq!(catalog.table_names(), ["sales"]);
    }

    #[test]
    fn statements_transcript_present() {
        // EXPLAIN renders the plan's script; running it renders none.
        let strategy = HorizontalStrategy::CaseFromFv;
        let script = crate::codegen::horizontal_statements(&hpct_query(), strategy, None, None);
        assert!(script[0].contains("INSERT INTO FV"));
        assert!(script.last().unwrap().contains("INSERT INTO FH"));
    }

    #[test]
    fn unknown_columns_rejected() {
        let catalog = store_sales_catalog();
        let q = HorizontalQuery::hpct("sales", &["store"], "nope", &["dweek"]);
        assert!(eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "e_").is_err());
        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["nope"]);
        assert!(eval_horizontal(&catalog, &q, &HorizontalOptions::default(), "e_").is_err());
    }

    #[test]
    fn null_dimension_value_is_a_column() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("d", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::str("x"), Value::Float(3.0)])
            .unwrap();
        t.push_row(&[Value::Int(1), Value::Null, Value::Float(1.0)])
            .unwrap();
        catalog.create_table("f", t).unwrap();
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        for (opts, config) in all_option_sets() {
            let result = eval_under(&catalog, &q, &opts, config)
                .unwrap_or_else(|e| panic!("{}: {e}", opts.strategy.label()));
            let t = result.snapshot();
            assert_eq!(t.num_columns(), 3, "{}", opts.strategy.label());
            assert_eq!(t.schema().field_at(1).name, "d=NULL");
            assert_eq!(t.get(0, 1), Value::Float(0.25), "{}", opts.strategy.label());
            assert_eq!(t.get(0, 2), Value::Float(0.75));
        }
    }

    #[test]
    fn zero_total_group_percentages_are_null() {
        let catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("d", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::str("x"), Value::Float(5.0)])
            .unwrap();
        t.push_row(&[Value::Int(1), Value::str("y"), Value::Float(-5.0)])
            .unwrap();
        catalog.create_table("f", t).unwrap();
        let q = HorizontalQuery::hpct("f", &["g"], "a", &["d"]);
        for (opts, config) in all_option_sets() {
            let result = eval_under(&catalog, &q, &opts, config).unwrap();
            let t = result.snapshot();
            assert_eq!(t.get(0, 1), Value::Null, "{}", opts.strategy.label());
            assert_eq!(t.get(0, 2), Value::Null);
        }
    }
}
