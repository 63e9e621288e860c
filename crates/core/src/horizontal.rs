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
//!
//! Those strategies are the named producers. A statement without strategy
//! knobs and without a `WHERE` takes steps 2–3 from the level cache instead
//! ([`eval_horizontal_request`]): the aggregate at `GROUP BY ∪ BY` is a
//! lattice level a `Vpct` may have left, and step 4 reads it in place —
//! the one post-projection ([`finish`]) has two address modes, as
//! [`divide`] has ([`Cells`]): a producer's cells on their own rows, or a
//! cell level's rows dropped into their result row and column.

use crate::dispatch::{pivot_aggregate, PivotTask};
use crate::error::{CoreError, Result};
use crate::executor::Shapes;
use crate::lattice::{combination_set, Cached, HorizontalLevels, Request};
use crate::naming::{cell_column_name, dedup_names, partition_ranges};
use crate::query::{Fact, FactRows, HorizontalQuery, HorizontalTerm};
use crate::roll;
use crate::strategy::{HorizontalOptions, HorizontalStrategy};
use crate::vertical::{count_insert, extra_spec, into_shared};
use pa_engine::{
    aggregate_level, distinct, divide, divide_transposed, lookup, AggFunc, AggSpec, ExecStats,
    Expr, ParallelConfig, ResourceGuard, Selected, Selection,
};
use pa_storage::{Catalog, Column, DataType, Field, HashIndex, Schema, SharedTable, Table, Value};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, Weak};

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
    pub cell_columns: Arc<[Vec<String>]>,
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

/// The aggregations computing one cell or extra from source rows: one, or
/// a sum and a count (`avg` re-aggregated from `FV`).
type Lanes = Vec<(AggFunc, Expr)>;

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

/// The combinations of `by` in the fact table `cached` names, rolled
/// forward from a set cached at an older version (`crate::roll`), under a
/// `roll` span; `None` when none is cached or the rule keeps it from
/// rolling. `source` is what the statement holds of `fact`.
fn roll_combos(
    (catalog, cached): (&Catalog, Cached<'_>),
    (fact, source): (&Fact, &Source<'_>),
    by: &[String],
    stats: &mut ExecStats,
    guard: &ResourceGuard,
) -> Result<Option<Table>> {
    let held;
    let rows = match source {
        Source::Fact(rows) => rows,
        Source::Fv(_) => {
            held = fact.read();
            &held
        }
    };
    let key_cols: Vec<usize> = (by.iter())
        .map(|c| rows.schema().index_of(c).map_err(CoreError::from))
        .collect::<Result<_>>()?;
    let lowered: Vec<String> = by.iter().map(|c| c.to_ascii_lowercase()).collect();
    let lane = (rows.whole(), &key_cols[..], &[][..]);
    let Some(plan) = roll::find((catalog, cached), (&lowered, &[]), lane) else {
        return Ok(None);
    };
    let level = roll::run(&plan, lane, (guard, &mut None), stats, &fact.config())?;
    Ok(Some(level))
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
/// stores a table.
pub fn eval_horizontal(
    catalog: &Catalog,
    q: &HorizontalQuery,
    opts: &HorizontalOptions,
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
    let j_cols_f = resolve(q, &f_schema)?;

    // ---------- Build the source (F directly, or the FV pre-aggregate) and
    // each term's and each extra's lanes against it. ----------
    let funcs = q
        .terms
        .iter()
        .map(|t| t.func)
        .chain(q.extra.iter().map(|e| e.func));
    // Holistic aggregates cannot be re-aggregated from the FV partial
    // (Gray et al.): reject rather than silently double-count.
    if let Some(func) = funcs
        .filter(|f| f.is_holistic())
        .find(|_| opts.strategy.uses_fv())
    {
        return Err(CoreError::Unsupported(format!(
            "{} is holistic and cannot use an FV-based strategy; \
             evaluate it with CaseDirect or SpjDirect",
            func.display_name()
        )));
    }
    let terms = q
        .terms
        .iter()
        .map(|t| Ok((t.func, t.measure.to_expr(&f_schema)?)));
    let extras = (q.extra.iter()).map(|e| extra_spec(e, &f_schema).map(|s| (s.func, s.input)));
    let on_f: Lanes = terms.chain(extras).collect::<Result<_>>()?;
    let (source, j_cols, lanes): (Source<'_>, Vec<usize>, Vec<Lanes>) = if opts.strategy.uses_fv() {
        // FV keys: group_by then each term's by columns (deduped).
        let mut key_names: Vec<String> = q.group_by.clone();
        for b in q.terms.iter().flat_map(|term| &term.by) {
            if !key_names.iter().any(|c| c.eq_ignore_ascii_case(b)) {
                key_names.push(b.clone());
            }
        }
        let key_cols_f: Vec<usize> = key_names
            .iter()
            .map(|n| f_schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        // Each lane's partial at `D1..Dk` — an `avg` as a sum and a count —
        // and how the partials re-aggregate to `D1..Dj`.
        let (mut specs, mut lanes): (Vec<AggSpec>, Vec<Lanes>) = Default::default();
        for (func, input) in on_f {
            let at = key_cols_f.len() + specs.len();
            let partials = match func {
                AggFunc::Avg => vec![(AggFunc::Sum, input.clone()), (AggFunc::Count, input)],
                func => vec![(func, input)],
            };
            let reagg =
                |(i, (func, _)): (usize, &(AggFunc, Expr))| (reagg_func(*func), Expr::Col(at + i));
            lanes.push(partials.iter().enumerate().map(reagg).collect());
            for (func, input) in partials {
                specs.push(AggSpec::new(func, input, format!("__p{}", specs.len())));
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
        (Source::Fv(fv), (0..q.group_by.len()).collect(), lanes)
    } else {
        let lanes = on_f.into_iter().map(|lane| vec![lane]).collect();
        (Source::Fact(f_guard), j_cols_f, lanes)
    };
    let (term_lanes, extra_specs_src) = lanes.split_at(q.terms.len());
    let src = source.selected();
    let src_schema = source.schema().clone();

    // ---------- Distinct subgroup combinations → result columns. ----------
    // The distinct BY-combination set depends only on the fact table's
    // data (FV preserves it: FV groups by `group_by ∪ by`, so the distinct
    // BY tuples are identical over F and FV): the cached level `BY` with no
    // lanes (`combination_set`). A miss first rolls the set of an older
    // version forward (`crate::roll`: the old set with the appended rows'
    // combinations, unless an update wrote a BY column); otherwise it is a
    // keyed scan of the source like the pivot beside it — `distinct`
    // charges the rows it reads morsel by morsel, then the set — so a cold
    // statement costs one more pass of the table than a warm one, in its
    // budget and its trace as on the clock, and a deadline or cancellation
    // lands inside the pass.
    let combo_cache = Cached::of(catalog, fact);
    // Each term's plan against the chosen source, `F` or `FV`: the pivot's
    // task, which the CASE and SPJ plans read too.
    let (mut plans, mut names): (Vec<PivotTask>, Vec<Vec<String>>) = Default::default();
    for (t, term) in q.terms.iter().enumerate() {
        let by_cols: Vec<usize> = term
            .by
            .iter()
            .map(|n| src_schema.index_of(n).map_err(CoreError::from))
            .collect::<Result<Vec<_>>>()?;
        let by: Vec<String> = term.by.iter().map(|c| c.to_ascii_lowercase()).collect();
        let mut span = guard.span("combos");
        let level = combination_set(combo_cache, &by, (guard, &mut span, &mut stats), |stats| {
            let rolled = match combo_cache {
                Some(c) => roll_combos((catalog, c), (fact, &source), &term.by, stats, guard)?,
                None => None,
            };
            match rolled {
                Some(level) => Ok(level),
                None => {
                    let found = distinct(src, &by_cols, guard, stats, &par)?;
                    Ok(found.sorted_by(&(0..by.len()).collect::<Vec<_>>()))
                }
            }
        })?;
        let (combos, term_names) = combinations(q, term, &level);
        drop(span);
        // A percentage's total is its sum lane's input, on F or on FV.
        let total = term.percentage.then(|| term_lanes[t][0].1.clone());
        plans.push(PivotTask {
            by_cols,
            lanes: term_lanes[t].clone(),
            total,
            combos,
        });
        names.push(term_names);
    }
    let partitioned = column_budget(q, names.iter().map(Vec::len).sum(), opts)?;

    // ---------- Raw table: [j][term0 lanes×cells][term0 total?].. [extras] --
    let raw = match opts.strategy {
        // The CASE plan is the pivot (the aggregate at GROUP BY ∪ BY,
        // transposed). The O(N) predicate chain runs only as the
        // `jump_table: false` ablation.
        HorizontalStrategy::CaseDirect | HorizontalStrategy::CaseFromFv if opts.jump_table => {
            let flat_extras: Lanes = extra_specs_src.iter().flatten().cloned().collect();
            pivot_aggregate(src, &j_cols, &plans, &flat_extras, guard, &mut stats, &par)?
        }
        HorizontalStrategy::CaseDirect | HorizontalStrategy::CaseFromFv => case_raw(
            (src, &j_cols, &plans, extra_specs_src),
            guard,
            &mut stats,
            &par,
        )?,
        HorizontalStrategy::SpjDirect | HorizontalStrategy::SpjFromFv => spj_raw(
            (src, &j_cols, &plans, extra_specs_src),
            guard,
            &mut stats,
            &par,
        )?,
    };
    drop(source);
    let shape = |columns: &[Column]| {
        let dtypes = columns.iter().map(Column::data_type);
        Shape::new((q, &[]), names, dtypes, (opts, partitioned))
    };
    finish(
        q,
        Inputs::own(q, raw, (&plans, extra_specs_src)),
        shape,
        stats,
    )
}

/// A knob-less horizontal statement without a `WHERE` — `fact` has a
/// cache key — as one lattice request ([`crate::lattice::Request::horizontal`]):
/// the aggregate at `GROUP BY ∪ BY` a `Vpct` reads, transposed. Its levels
/// come from the cache, a roll-forward, a finer cached level or one scan
/// (the `levels` span); its combinations are the cell levels' `BY`
/// projections, whose names and schema `shapes` keeps (the `combos` span);
/// and the post-projection reads each cell level in place (`transpose`).
pub(crate) fn eval_horizontal_request(
    (catalog, fact): (&Catalog, &Fact),
    (q, request, shapes): (&HorizontalQuery, &Request, &Shapes),
    guard: &ResourceGuard,
) -> Result<HorizontalResult> {
    let span = guard.span("levels");
    q.validate()?;
    resolve(q, fact.read().schema())?;
    let mut stats = ExecStats::default();
    let levels = HorizontalLevels::fetch((catalog, fact), request, (guard, span), &mut stats)?;
    let mut span = guard.span("combos");
    let config = fact.config();
    let sets = (q.terms.iter())
        .map(|term| levels.combos((&q.group_by, term), (guard, &mut span), &mut stats, &config))
        .collect::<Result<Vec<_>>>()?;
    let opts = HorizontalOptions::default();
    let partitioned = column_budget(q, sets.iter().map(|set| set.num_rows()).sum(), &opts)?;
    let inputs = levels.inputs(q, &sets)?;
    let shape = shapes.get(
        |shape| shape.fits(&sets, inputs.dtypes()),
        || {
            let names = q.terms.iter().zip(&sets);
            let names = names.map(|(term, set)| combinations(q, term, set).1);
            Shape::new(
                (q, &sets),
                names.collect(),
                inputs.dtypes(),
                (&opts, partitioned),
            )
        },
    )?;
    drop(span);
    let mut span = guard.span("transpose");
    for (cells, _) in &inputs.terms {
        if let Cells::Level { lane, .. } = cells {
            // The cell level's rows and the result's, term by term.
            let rows = (lane.len() + inputs.rows) as u64;
            guard.charge(rows)?;
            span.add_rows(rows);
        }
    }
    span.add_morsels(q.terms.len() as u64);
    finish(q, inputs, |_| Ok(shape), stats)
}

/// The `GROUP BY` columns of `q` in `schema`, once every `BY` column is
/// found there.
fn resolve(q: &HorizontalQuery, schema: &Schema) -> Result<Vec<usize>> {
    for b in q.terms.iter().flat_map(|term| &term.by) {
        schema
            .index_of(b)
            .map_err(|_| CoreError::InvalidQuery(format!("unknown BY column {b}")))?;
    }
    let unknown = |n: &String| CoreError::InvalidQuery(format!("unknown GROUP BY column {n}"));
    (q.group_by.iter())
        .map(|n| schema.index_of(n).map_err(|_| unknown(n)))
        .collect()
}

/// `term`'s combinations, the key columns of the level `set` (rows sorted),
/// and one result column name per combination.
fn combinations(
    q: &HorizontalQuery,
    term: &HorizontalTerm,
    set: &Table,
) -> (Vec<Vec<Value>>, Vec<String>) {
    let keys = &set.columns()[..term.by.len()];
    let combos: Vec<Vec<Value>> = (0..set.num_rows())
        .map(|r| keys.iter().map(|c| c.get(r)).collect())
        .collect();
    let prefix = if q.terms.len() > 1 {
        &term.name[..]
    } else {
        ""
    };
    let mut names: Vec<String> = (combos.iter())
        .map(|c| cell_column_name(prefix, &term.by, c))
        .collect();
    dedup_names(&mut names);
    (combos, names)
}

/// Whether a result of `n_cells` cell columns must be partitioned to stay
/// within the column budget (DMKD §3.6), or the error when it may not be.
fn column_budget(q: &HorizontalQuery, n_cells: usize, opts: &HorizontalOptions) -> Result<bool> {
    let total_cols = q.group_by.len() + n_cells + q.extra.len();
    if total_cols == 0 {
        return Err(CoreError::InvalidQuery(
            "the result has no column: no GROUP BY column, no extra aggregate, \
             and no BY combination among the rows read"
                .into(),
        ));
    }
    let partitioned = total_cols > opts.max_columns;
    if partitioned && !opts.allow_partitioning {
        return Err(CoreError::TooManyColumns {
            needed: total_cols,
            limit: opts.max_columns,
        });
    }
    Ok(partitioned)
}

/// Where the post-projection reads a term's cells: two address modes, as
/// [`divide`] has.
pub(crate) enum Cells<'a> {
    /// On the result's rows, `width` raw lanes per combination (a
    /// producer's raw table).
    Own { lanes: Vec<Column>, width: usize },
    /// On the rows of the term's cell level `GROUP BY ∪ BY` (the request):
    /// with `at` its `parent` vectors onto `GROUP BY` and onto the
    /// combinations, row `r` is the cell in result row `at.0[r]` of
    /// combination `at.1[r]`; a cell no row holds is missing.
    Level {
        lane: &'a Column,
        at: (Arc<[u32]>, Arc<[u32]>),
        combos: usize,
    },
}

/// What the post-projection reads: the `GROUP BY` keys, each term's cells
/// with its group total when it is an `Hpct`, and each extra's lanes, every
/// column but a cell level on the result's `rows`.
pub(crate) struct Inputs<'a> {
    pub(crate) rows: usize,
    pub(crate) keys: Vec<Cow<'a, Column>>,
    pub(crate) terms: Vec<(Cells<'a>, Option<Cow<'a, Column>>)>,
    pub(crate) extras: Vec<Vec<Cow<'a, Column>>>,
}

impl Inputs<'_> {
    /// A producer's raw table `[GROUP BY][per term: a lane per combination
    /// and lane of `plans`, its total when it is an `Hpct`][each extra's
    /// lanes]`.
    fn own(
        q: &HorizontalQuery,
        raw: Table,
        (plans, extras): (&[PivotTask], &[Lanes]),
    ) -> Inputs<'static> {
        let rows = raw.num_rows();
        let mut raw = raw.into_columns().into_iter();
        let mut take = |n| raw.by_ref().take(n).collect::<Vec<_>>();
        fn owned(columns: Vec<Column>) -> Vec<Cow<'static, Column>> {
            columns.into_iter().map(Cow::Owned).collect()
        }
        let keys = owned(take(q.group_by.len()));
        let terms = (plans.iter())
            .map(|plan| {
                let (width, cells) = (plan.lanes.len(), plan.combos.len());
                let lanes = take(cells * width);
                let total = take(usize::from(plan.total.is_some())).pop();
                (Cells::Own { lanes, width }, total.map(Cow::Owned))
            })
            .collect();
        let extras = extras
            .iter()
            .map(|lanes| owned(take(lanes.len())))
            .collect();
        Inputs {
            rows,
            keys,
            terms,
            extras,
        }
    }

    /// The request's column types: a cell level's cells are its lane's, or
    /// `Float` for a percentage, as each extra is its lane's.
    fn dtypes(&self) -> impl Iterator<Item = DataType> + Clone + '_ {
        let keys = self.keys.iter().map(|k| k.data_type());
        let cells = self.terms.iter().flat_map(|(cells, total)| match cells {
            Cells::Level { lane, combos, .. } => {
                let dtype = total.as_ref().map_or(lane.data_type(), |_| DataType::Float);
                std::iter::repeat_n(dtype, *combos)
            }
            Cells::Own { .. } => unreachable!("a producer's cells are typed as written"),
        });
        keys.chain(cells)
            .chain(self.extras.iter().map(|e| e[0].data_type()))
    }
}

/// A result's names and schema — its cell columns' names, per term, its
/// schema and each partition's with the cells it takes — and the
/// combination sets they were derived from, held weakly: an evicted set is
/// freed, and its still-allocated address is never taken for another's.
#[derive(Debug)]
pub(crate) struct Shape {
    sets: Vec<Weak<Table>>,
    cell_columns: Arc<[Vec<String>]>,
    schema: Arc<Schema>,
    parts: Vec<(Arc<Schema>, Range<usize>)>,
}

impl Shape {
    /// Whether this is the shape of a result over `sets` — the same cached
    /// tables, which never change — with columns of the types `dtypes`.
    pub(crate) fn fits(&self, sets: &[Arc<Table>], dtypes: impl Iterator<Item = DataType>) -> bool {
        let same = |(a, b): (&Weak<Table>, &Arc<Table>)| std::ptr::eq(a.as_ptr(), Arc::as_ptr(b));
        self.sets.len() == sets.len()
            && self.sets.iter().zip(sets).all(same)
            && self.schema.fields().iter().map(|f| f.dtype).eq(dtypes)
    }

    /// The shape of `q`'s result over `sets` with the cell names
    /// `cell_columns` and the column types `dtypes`, split into partitions
    /// when `partitioned`.
    fn new(
        (q, sets): (&HorizontalQuery, &[Arc<Table>]),
        cell_columns: Vec<Vec<String>>,
        dtypes: impl Iterator<Item = DataType>,
        (opts, partitioned): (&HorizontalOptions, bool),
    ) -> Result<Arc<Shape>> {
        let names = (q.group_by.iter())
            .chain(cell_columns.iter().flatten())
            .chain(q.extra.iter().map(|e| &e.name));
        let fields = names.zip(dtypes).map(|(n, t)| Field::new(n.clone(), t));
        let schema = Schema::new(fields.collect())?.into_shared();
        let (fields, j, mut parts) = (schema.fields(), q.group_by.len(), Vec::new());
        let ranges = partitioned.then(|| partition_ranges(fields.len() - j, j, opts.max_columns));
        for range in ranges.into_iter().flatten() {
            let cells = &fields[j + range.start..j + range.end];
            let part = Schema::new([&fields[..j], cells].concat())?;
            parts.push((part.into_shared(), range));
        }
        Ok(Arc::new(Shape {
            sets: sets.iter().map(Arc::downgrade).collect(),
            cell_columns: cell_columns.into(),
            schema,
            parts,
        }))
    }
}

/// The post-projection — `INSERT INTO FH SELECT ..`, walked in result
/// order: the keys move over as they are, a cell on its own rows and an
/// extra are one typed operation each ([`finish_cell`]), and a cell level
/// is read in one pass: every cell starts as the cell no row fed, as
/// [`finish_cell`] fills it, and then each level row with a value lands in
/// its column and row — its lane, or for an `Hpct` its lane over its
/// group's total ([`divide_transposed`]: the operands a producer divides).
/// Then the vertical partitions of `shape`.
fn finish(
    q: &HorizontalQuery,
    inputs: Inputs<'_>,
    shape: impl FnOnce(&[Column]) -> Result<Arc<Shape>>,
    mut stats: ExecStats,
) -> Result<HorizontalResult> {
    let rows = inputs.rows;
    stats.statements += 1;
    stats.rows_scanned += rows as u64;
    stats.rows_materialized += rows as u64;
    let mut columns: Vec<Column> = inputs.keys.into_iter().map(Cow::into_owned).collect();
    for (term, (cells, total)) in q.terms.iter().zip(inputs.terms) {
        let (total, func, zero) = (total.as_deref(), term.func, term.default_zero);
        match cells {
            Cells::Own { lanes, width } => {
                let mut lanes = lanes.into_iter();
                for _ in 0..lanes.len() / width {
                    let cell = lanes.by_ref().take(width).collect();
                    columns.push(finish_cell(cell, total, func, zero, &mut stats)?);
                }
            }
            Cells::Level { lane, at, combos } => {
                let (mut one, mut missing) = (ExecStats::default(), lane.gather(&[]));
                missing.push_nulls(rows);
                let missing = finish_cell(vec![missing], total, func, zero, &mut one)?;
                stats.case_condition_evals += one.case_condition_evals * combos as u64;
                let first = columns.len();
                columns.resize(first + combos, missing);
                let (out, to) = (&mut columns[first..], (&at.0[..], &at.1[..]));
                match total {
                    Some(total) => divide_transposed(lane, total, to, out),
                    None => lane.scatter(to, out)?,
                }
            }
        }
    }
    for (extra, lanes) in q.extra.iter().zip(inputs.extras) {
        let lanes = lanes.into_iter().map(Cow::into_owned).collect();
        columns.push(finish_cell(lanes, None, extra.func, false, &mut stats)?);
    }
    let shape = shape(&columns)?;
    let fh = Table::from_columns(Arc::clone(&shape.schema), columns)?;
    let (j, mut partitions) = (q.group_by.len(), Vec::new());
    for (schema, range) in &shape.parts {
        let cells = &fh.columns()[j + range.start..j + range.end];
        let part = Table::from_columns(Arc::clone(schema), [&fh.columns()[..j], cells].concat())?;
        count_insert(&part, &mut stats);
        partitions.push(into_shared(part));
    }
    if partitions.is_empty() {
        count_insert(&fh, &mut stats);
        partitions.push(into_shared(fh));
    }
    let cell_columns = Arc::clone(&shape.cell_columns);
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

/// `Dh = vh and .. and Dk = vk`: the rows of `combo` under `plan`.
fn key_match(plan: &PivotTask, combo: &[Value]) -> Expr {
    let pairs: Vec<(usize, Value)> = plan.by_cols.iter().copied().zip(combo.to_vec()).collect();
    Expr::key_match(&pairs)
}

/// The source of a raw table, its `GROUP BY` columns, its terms' plans and
/// its extras' lanes.
type RawOf<'a> = (Selected<'a>, &'a [usize], &'a [PivotTask], &'a [Lanes]);

/// CASE strategy: one aggregation pass with `N` CASE-guarded terms.
fn case_raw(
    (src, j_cols, plans, extras): RawOf<'_>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    par: &ParallelConfig,
) -> Result<Table> {
    let mut specs: Vec<AggSpec> = Vec::new();
    for (t, plan) in plans.iter().enumerate() {
        for (i, combo) in plan.combos.iter().enumerate() {
            let pred = key_match(plan, combo);
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
        let total = plan.total.iter().map(|total| (AggFunc::Sum, total.clone()));
        specs.extend(total.map(|(sum, total)| AggSpec::new(sum, total, format!("__tot{t}"))));
    }
    for (e, lanes) in extras.iter().enumerate() {
        for (l, (func, input)) in lanes.iter().enumerate() {
            specs.push(AggSpec::new(*func, input.clone(), format!("__x{e}_{l}")));
        }
    }
    if specs.is_empty() {
        // No row fed a combination and nothing else is computed: the raw
        // table is the groups alone.
        return Ok(distinct(src, j_cols, guard, stats, par)?);
    }
    Ok(aggregate_level(src, j_cols, &specs, guard, stats, par)?)
}

/// SPJ strategy: `F0` = distinct groups; one aggregation per combination,
/// over the selection `combination ∧ WHERE` (the paper's `N` scans of the
/// source, each reading every row and keeping its own); assemble with left
/// outer joins into the raw layout. With no `GROUP BY` there is one group,
/// the one row every `Fi` has, and nothing to join.
fn spj_raw(
    (src, j_cols, plans, extras): RawOf<'_>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    par: &ParallelConfig,
) -> Result<Table> {
    // `WHERE Dh = vh and .. and Dk = vk`, on top of the source's own
    // selection.
    let only = |plan: &PivotTask, combo: &[Value], stats: &mut ExecStats| {
        Selection::compile(src, &key_match(plan, combo), guard, stats, par)
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
    let f0 = f0.map(|f0| {
        (f0.schema().fields().to_vec())
            .into_iter()
            .zip(f0.into_columns())
    });
    let (fields, columns): (Vec<Field>, Vec<Column>) =
        f0.into_iter().flatten().chain(values).unzip();
    let raw = Table::from_columns(Schema::new(fields)?.into_shared(), columns)?;
    stats.rows_scanned += raw.num_rows() as u64;
    count_insert(&raw, stats);
    Ok(raw)
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
            eval_horizontal(&catalog, &hpct_query(), &HorizontalOptions::default()).unwrap();
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
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(1, 1), Value::Null, "store 4 Monday: NULL per DMKD");
        assert_eq!(t.get(1, 2), Value::Float(800.0));

        let mut qz = q.clone();
        qz.terms[0] = qz.terms[0].clone().with_default_zero();
        let result = eval_horizontal(&catalog, &qz, &HorizontalOptions::default()).unwrap();
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
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
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
        let result = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
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
            eval_horizontal(&catalog, &q, &strict),
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
        let result = eval_horizontal(&catalog, &q, &partitioned).unwrap();
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
        let jump = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
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
    fn combo_cache_serves_repeat_queries_and_an_append_rolls_it_forward() {
        let catalog = store_sales_catalog();
        let q = hpct_query();
        let first = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
        assert_eq!(first.stats.combo_cache_misses, 1, "{}", first.stats);
        assert_eq!(first.stats.combo_cache_hits, 0);
        // The set is the level `(dweek)` of the one cache, with no lanes.
        let (cache, by) = (catalog.lattice_cache(), ["dweek".to_string()]);
        let set = cache.get("sales", 1, &by, &[]).expect("stored by the miss");
        assert_eq!((set.num_rows(), set.num_columns()), (2, 1));
        assert!(!cache.probe("sales", 1, &by, &["sum(salesAmt)".to_string()]));
        // Same table + BY dims, different strategy: served from cache.
        let second = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::CaseFromFv),
        )
        .unwrap();
        assert_eq!(second.stats.combo_cache_hits, 1, "{}", second.stats);
        assert_eq!(second.stats.combo_cache_misses, 0);
        assert_eq!(
            first.snapshot().sorted_by(&[0]).rows().collect::<Vec<_>>(),
            second.snapshot().sorted_by(&[0]).rows().collect::<Vec<_>>(),
        );
        // A logged append is a new version: the next query misses, rolls
        // the set forward, and sees the new combination as a new column.
        let extra_schema = catalog.table("sales").unwrap().read().schema().clone();
        let mut wed = Table::empty(extra_schema);
        wed.push_row(&[Value::Int(2), Value::str("Wed"), Value::Float(50.0)])
            .unwrap();
        pa_engine::insert_into(&catalog, "sales", &wed, &mut ExecStats::default()).unwrap();
        let third = eval_horizontal(&catalog, &q, &HorizontalOptions::default()).unwrap();
        assert_eq!(third.stats.combo_cache_misses, 1, "{}", third.stats);
        assert_eq!(third.stats.levels_rolled, 1, "{}", third.stats);
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
        )
        .unwrap();
        let spj = eval_horizontal(
            &catalog,
            &q,
            &HorizontalOptions::with_strategy(HorizontalStrategy::SpjDirect),
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
        assert!(eval_horizontal(&catalog, &q, &HorizontalOptions::default()).is_err());
        let q = HorizontalQuery::hpct("sales", &["store"], "salesAmt", &["nope"]);
        assert!(eval_horizontal(&catalog, &q, &HorizontalOptions::default()).is_err());
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
