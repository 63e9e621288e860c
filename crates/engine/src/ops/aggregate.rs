//! Hash group-by aggregation.
//!
//! Implements the two-level aggregation at the heart of every percentage
//! query: `Fk` = fine aggregation of `F`, `Fj` = coarse aggregation of `F`
//! *or of `Fk`* (sum is distributive — [Gray et al. 1996]'s classification,
//! which the paper leans on for its "compute `Fj` from `Fk`" optimization).
//!
//! A single-pass synchronized scan computing several grouping levels at once
//! ([`multi_hash_aggregate`]) implements the paper's "these scans can be
//! synchronized to have effectively one scan".
//!
//! [`aggregate`] is an adapter over the scan core (`crate::scan`, DESIGN.md
//! "Scan core"): it validates, plans one code stream per level (identity
//! projection), runs the one morsel-parallel scan over the table *and its
//! selection*, and formats each level's groups as a table in
//! first-appearance order.
//! The other entry points are the names outside callers know it by.
//! [`lattice_aggregate`] is the same sequence over levels that are subsets
//! of one key — one shared code stream when that key codes — sorted by key.

use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::guard::ResourceGuard;
use crate::ops::acc::Acc;
use crate::parallel::ParallelConfig;
use crate::predicate::Selected;
use crate::scan::{LevelGroups, Parent, ScanPlan};
use crate::stats::ExecStats;
use pa_obs::SpanHandle;
use pa_storage::{Bitmap, Column, DataType, Field, Schema, Table, Value};

/// A percentile fraction carried as its IEEE-754 bit pattern, so
/// [`AggFunc`] stays `Copy + Eq` (f64 itself is not `Eq`). Two percentile
/// aggregates are the same function exactly when their bits agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PBits(u64);

impl PBits {
    /// Wrap a fraction (callers validate the `[0, 1]` range).
    pub fn new(p: f64) -> PBits {
        PBits(p.to_bits())
    }

    /// The fraction back as an `f64`.
    pub fn value(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// Aggregate functions. All skip NULL inputs except `CountStar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `sum(expr)` — NULL over an empty/all-NULL group (SQL semantics the
    /// paper's `Vpct` inherits).
    Sum,
    /// `count(expr)` — non-NULL count.
    Count,
    /// `count(DISTINCT expr)` — distinct non-NULL count. Holistic per
    /// Gray et al.: it cannot be re-aggregated from partials, which is why
    /// the FV-based horizontal strategies reject it. (Thread partials still
    /// merge exactly, by value-set union.)
    CountDistinct,
    /// `count(*)` — row count.
    CountStar,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `percentile(expr, p)` — exact PERCENTILE_CONT (linear
    /// interpolation). `median(expr)` is sugar for `p = 0.5`. Holistic:
    /// the partial retains its samples, spilling to a t-digest past the
    /// per-group budget (`PA_PERCENTILE_BUDGET`).
    Percentile(PBits),
    /// `approx_percentile(expr, p)` — `percentile`'s state: exact up to the
    /// per-group budget, a t-digest estimate past it.
    ApproxPercentile(PBits),
    /// `approx_count_distinct(expr)` — HyperLogLog estimate,
    /// fixed-size mergeable state.
    ApproxCountDistinct,
}

impl AggFunc {
    /// SQL name.
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count(distinct)",
            AggFunc::CountStar => "count(*)",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Percentile(_) => "percentile",
            AggFunc::ApproxPercentile(_) => "approx_percentile",
            AggFunc::ApproxCountDistinct => "approx_count_distinct",
        }
    }

    /// Display name carrying the parameter, for plans and EXPLAIN output
    /// (`percentile(0.95)` rather than just `percentile`).
    pub fn display_name(&self) -> String {
        match self {
            AggFunc::Percentile(p) => format!("percentile({})", p.value()),
            AggFunc::ApproxPercentile(p) => format!("approx_percentile({})", p.value()),
            other => other.sql_name().to_string(),
        }
    }

    /// Whether re-aggregating partial results with the same function yields
    /// the total result (distributive per Gray et al.).
    pub fn is_distributive(&self) -> bool {
        matches!(
            self,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::CountStar
        )
    }

    /// The column type of `self(input)` over a table of `schema`.
    pub fn output_type(&self, input: &Expr, schema: &Schema) -> DataType {
        match self {
            AggFunc::Sum | AggFunc::Avg | AggFunc::Percentile(_) | AggFunc::ApproxPercentile(_) => {
                DataType::Float
            }
            AggFunc::Count
            | AggFunc::CountDistinct
            | AggFunc::CountStar
            | AggFunc::ApproxCountDistinct => DataType::Int,
            AggFunc::Min | AggFunc::Max => input.output_type(schema).unwrap_or(DataType::Float),
        }
    }

    /// Holistic per Gray et al.: the *finalized* value of a sub-group
    /// cannot be re-aggregated into a coarser group, so the FV-based
    /// strategies (which re-aggregate finalized `Fk` rows) reject these.
    /// Their *partials* still merge exactly through the
    /// [`PartialState`](crate::ops::acc::PartialState) protocol — the
    /// sketch-backed ones with a fixed-size state.
    pub fn is_holistic(&self) -> bool {
        matches!(
            self,
            AggFunc::CountDistinct
                | AggFunc::Percentile(_)
                | AggFunc::ApproxPercentile(_)
                | AggFunc::ApproxCountDistinct
        )
    }
}

/// One aggregate term: function, input expression, output column name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored by `CountStar`).
    pub input: Expr,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Build a spec.
    pub fn new(func: AggFunc, input: Expr, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            input,
            name: name.into(),
        }
    }

    /// `sum(column)` by name.
    pub fn sum_col(schema: &Schema, col: &str, out: impl Into<String>) -> Result<AggSpec> {
        Ok(AggSpec::new(AggFunc::Sum, Expr::col(schema, col)?, out))
    }

    pub(crate) fn output_type(&self, schema: &Schema) -> DataType {
        self.func.output_type(&self.input, schema)
    }

    /// Whether this lane at a coarser key may be **folded** from the same
    /// lane at a finer one — each coarser group's accumulator merged from
    /// its sub-groups' — and hold the very bits a scan of `input` at the
    /// coarser key accumulates row by row. Gray et al.'s distributive
    /// functions fold to the same *value*; the same *bits* need the adds to
    /// be exact, whatever their order. Counts are integer adds. A `sum` is
    /// exact when its input is a plain column of whole numbers
    /// ([`Table::integral_bound`]) small enough that no sum of them, over
    /// any subset of the rows, reaches 2^53: then every partial sum is an
    /// integer `f64` holds exactly, and `f64` addition is associative on
    /// them. A fractional measure rounds differently in a different order,
    /// and the paper's SPJ and CASE plans compute their totals in row
    /// order, so it keeps its scan; so do `min` / `max`, `avg`, expression
    /// inputs and the holistic functions. This is the one statement of the
    /// rule: an adapter asks, it does not decide.
    pub fn folds_exactly(&self, input: &Table) -> bool {
        match (self.func, &self.input) {
            (AggFunc::Count | AggFunc::CountStar, _) => true,
            (AggFunc::Sum, &Expr::Col(c)) if c < input.num_columns() => input
                .integral_bound(c)
                .is_some_and(|whole| input.num_rows() as f64 * whole < (1u64 << 53) as f64),
            _ => false,
        }
    }
}

/// Hash-aggregate `input` grouped by `group_cols` computing `aggs`.
///
/// With an empty `group_cols`, produces exactly one global row (even for an
/// empty input — SQL global aggregates always return one row).
///
/// ```
/// use pa_engine::{hash_aggregate, AggSpec, ExecStats};
/// use pa_storage::{DataType, Schema, Table, Value};
///
/// let schema = Schema::from_pairs(&[("d", DataType::Str), ("a", DataType::Float)])
///     .unwrap()
///     .into_shared();
/// let mut f = Table::empty(schema);
/// f.push_row(&[Value::str("x"), Value::Float(2.0)]).unwrap();
/// f.push_row(&[Value::str("x"), Value::Float(3.0)]).unwrap();
/// f.push_row(&[Value::str("y"), Value::Float(5.0)]).unwrap();
///
/// let spec = AggSpec::sum_col(f.schema(), "a", "total").unwrap();
/// let mut stats = ExecStats::default();
/// let out = hash_aggregate(&f, &[0], &[spec], &mut stats).unwrap().sorted_by(&[0]);
/// assert_eq!(out.get(0, 1), Value::Float(5.0)); // x
/// assert_eq!(out.get(1, 1), Value::Float(5.0)); // y
/// assert_eq!(stats.rows_scanned, 3);
/// ```
pub fn hash_aggregate(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    stats: &mut ExecStats,
) -> Result<Table> {
    let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::from_env());
    hash_aggregate_with_config(input, group_cols, aggs, &guard, stats, &config)
}

/// [`hash_aggregate`] under a [`ResourceGuard`] and an explicit
/// [`ParallelConfig`] (tests and benches pin thread counts here instead of
/// racing on env vars): [`aggregate_level`] of a whole table.
pub fn hash_aggregate_with_config(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    aggregate_level(input.into(), group_cols, aggs, guard, stats, config)
}

/// [`aggregate`] at one grouping level.
pub fn aggregate_level(
    input: Selected<'_>,
    group_cols: &[usize],
    aggs: &[AggSpec],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    let level = [(group_cols.to_vec(), aggs.to_vec())];
    let mut tables = aggregate(input, &level, guard, stats, config)?;
    Ok(tables.pop().expect("one level in, one table out"))
}

/// [`aggregate`] of a whole table, unguarded, under the environment
/// configuration ([`ParallelConfig::from_env`]).
pub fn multi_hash_aggregate(
    input: &Table,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    stats: &mut ExecStats,
) -> Result<Vec<Table>> {
    let (guard, config) = (ResourceGuard::unlimited(), ParallelConfig::from_env());
    aggregate(input.into(), levels, &guard, stats, &config)
}

/// [`aggregate`] of a whole table.
pub fn multi_hash_aggregate_with_config(
    input: &Table,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Vec<Table>> {
    aggregate(input.into(), levels, guard, stats, config)
}

/// Validate the key every scan-core adapter takes.
pub(crate) fn check_key(input: &Table, group_cols: &[usize]) -> Result<()> {
    if let Some(c) = group_cols.iter().find(|&&c| c >= input.num_columns()) {
        return Err(EngineError::InvalidOperator(format!(
            "group column {c} out of range"
        )));
    }
    Ok(())
}

/// [`check_key`], and the rule of the adapters whose output *is* its
/// aggregates — a level without lanes is legal in the core (`distinct`, a
/// pivot's bare `GROUP BY` level) but not a result for them.
pub(crate) fn check_level(input: &Table, group_cols: &[usize], aggs: &[AggSpec]) -> Result<()> {
    check_key(input, group_cols)?;
    if aggs.is_empty() {
        return Err(EngineError::InvalidOperator(
            "aggregation requires at least one aggregate term".into(),
        ));
    }
    Ok(())
}

/// One aggregate lane of every group as a column of `dtype`. `sum`, `avg`,
/// the counts and `min` / `max` over numbers are written straight into a
/// typed vector with its validity; `min` / `max` over strings and the
/// holistic lanes finish through `Value`.
pub(crate) fn lane_column<'a>(
    dtype: DataType,
    lane: impl ExactSizeIterator<Item = &'a Acc> + Clone,
    stats: &mut ExecStats,
) -> Result<Column> {
    let typed = match dtype {
        DataType::Float => numbers(lane.clone(), f64::NAN, |acc| match acc {
            Acc::Sum { sum, any } => Some(any.then_some(*sum)),
            Acc::Avg { sum, n } => Some((*n > 0).then(|| sum / *n as f64)),
            // An integer widens, as `Column::push` widens it.
            Acc::Min(v) | Acc::Max(v) if !matches!(v, Value::Str(_)) => Some(v.as_f64()),
            _ => None,
        })
        .map(|(data, validity)| Column::Float { data, validity }),
        DataType::Int => numbers(lane.clone(), 0, |acc| match acc {
            Acc::Count(n) | Acc::CountStar(n) => Some(Some(*n)),
            Acc::Min(Value::Int(v)) | Acc::Max(Value::Int(v)) => Some(Some(*v)),
            Acc::Min(Value::Null) | Acc::Max(Value::Null) => Some(None),
            _ => None,
        })
        .map(|(data, validity)| Column::Int { data, validity }),
        DataType::Str => None,
    };
    if let Some(col) = typed {
        return Ok(col);
    }
    let mut col = Column::with_capacity(dtype, lane.len());
    for acc in lane {
        stats.sketch_spills += u64::from(acc.spilled());
        col.push(acc.finish())?;
    }
    Ok(col)
}

/// The number each accumulator of `lane` finishes as — `Some(None)` a NULL,
/// written as `null` — with the lane's validity; `None` at the first
/// accumulator that has no plain number of this type.
fn numbers<'a, T: Copy>(
    lane: impl ExactSizeIterator<Item = &'a Acc>,
    null: T,
    number: impl Fn(&Acc) -> Option<Option<T>>,
) -> Option<(Vec<T>, Bitmap)> {
    let mut data = Vec::with_capacity(lane.len());
    let mut validity = Bitmap::with_capacity(lane.len());
    for acc in lane {
        let number = number(acc)?;
        data.push(number.unwrap_or(null));
        validity.push(number.is_some());
    }
    Some((data, validity))
}

/// Materialize one level as typed columns: key columns decoded column-wise
/// from the merged groups (once, after the merge — never per worker),
/// aggregate columns from the accumulator matrix.
pub(crate) fn finish(
    groups: &LevelGroups,
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    stats: &mut ExecStats,
) -> Result<Table> {
    let input_schema = input.schema();
    let mut fields = Vec::with_capacity(group_cols.len() + aggs.len());
    let mut columns = Vec::with_capacity(group_cols.len() + aggs.len());
    for (d, &c) in group_cols.iter().enumerate() {
        fields.push(input_schema.field_at(c).clone());
        columns.push(groups.key_column(input, d, 0..groups.len()));
    }
    for (i, spec) in aggs.iter().enumerate() {
        let dtype = spec.output_type(input_schema);
        let lane = groups.accs.iter().skip(i).step_by(aggs.len());
        fields.push(Field::new(spec.name.clone(), dtype));
        columns.push(lane_column(dtype, lane, stats)?);
    }
    stats.rows_materialized += groups.len() as u64;
    Ok(Table::from_columns(
        Schema::new(fields)?.into_shared(),
        columns,
    )?)
}

/// Aggregate the selected rows of `input` at several grouping levels in
/// **one pass** — the paper's synchronized-scan optimization for computing
/// `Fk` and `Fj` together, and the general entry every other name in this
/// module forwards to. The scan is charged to `guard` morsel by morsel, for
/// the rows it reads (so cancellation and budget exhaustion land within one
/// morsel), and every output group row before materialization.
pub fn aggregate(
    input: Selected<'_>,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Vec<Table>> {
    let (tables, _) = aggregate_projecting(input, levels, &[], guard, stats, config)?;
    Ok(tables)
}

/// [`aggregate`], and the [`Parent`] of its first level onto each key subset
/// in `coarser` (positions into that level's key): for every row of the
/// first table, the row [`aggregate`] of the same rows at the coarser key
/// has for its group. This is the projection the scan already computed per
/// group, handed over instead of re-derived by a join on the shared subkey.
pub fn aggregate_projecting(
    input: Selected<'_>,
    levels: &[(Vec<usize>, Vec<AggSpec>)],
    coarser: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<(Vec<Table>, Vec<Parent>)> {
    let table = input.table;
    let keyed: Vec<Keyed<'_>> = (levels.iter())
        .map(|(cols, aggs)| (&cols[..], &aggs[..]))
        .collect();
    let names = ("aggregate", "multi_hash_aggregate");
    let (groups, tables, _span) = scan_levels(input, names, &keyed, None, guard, stats, config)?;
    let parents = coarser
        .iter()
        .map(|dims| groups[0].parent(table, dims))
        .collect();
    Ok((tables, parents))
}

/// Aggregate at **every** lattice level of `levels` in one scan of the
/// selected rows of `input` (DESIGN.md "Scan core").
///
/// `group_cols` are the finest key columns; each level is the dimensions it
/// keeps — a non-empty, strictly increasing list of positions into
/// `group_cols` — with the lanes it carries. Returns one table per level, in
/// `levels` order, in the layout the level cache keeps: the level's key
/// columns, then its lanes, rows sorted by key.
///
/// When the finest key codes, one code stream over it codes each row once
/// and every level scatters from it through a projection — a radix
/// jump-table load within the dense budget, mask-and-shift arithmetic past
/// it; the RLE fast path projects once per run per level. When it does not
/// (a key dimension no coder reads), each level is scanned over its own key
/// in the same pass, as [`aggregate`] would.
/// Malformed inputs — out-of-range columns, a level without lanes, a level
/// that is not such a subset — are errors.
pub fn lattice_aggregate(
    input: Selected<'_>,
    group_cols: &[usize],
    levels: &[(&[usize], &[AggSpec])],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Vec<Table>> {
    check_key(input.table, group_cols)?;
    for (dims, _) in levels {
        let ordered = dims.windows(2).all(|w| w[0] < w[1]);
        if dims.is_empty() || !ordered || dims.iter().any(|&d| d >= group_cols.len()) {
            return Err(EngineError::InvalidOperator(format!(
                "lattice level {dims:?} is not a non-empty ordered subset of \
                 the {} key dimensions",
                group_cols.len()
            )));
        }
    }
    let cols: Vec<Vec<usize>> = (levels.iter())
        .map(|(dims, _)| dims.iter().map(|&d| group_cols[d]).collect())
        .collect();
    let keyed: Vec<Keyed<'_>> = (cols.iter().zip(levels))
        .map(|(cols, &(_, aggs))| (&cols[..], aggs))
        .collect();
    let (names, stream) = (("lattice", "lattice_aggregate"), Some((group_cols, levels)));
    let (_, tables, _span) = scan_levels(input, names, &keyed, stream, guard, stats, config)?;
    let sorted = (tables.iter().zip(&cols))
        .map(|(t, cols)| t.sorted_by(&(0..cols.len()).collect::<Vec<_>>()));
    Ok(sorted.collect())
}

/// [`lattice_aggregate`] of a whole table, every level carrying `aggs`.
pub fn lattice_aggregate_with_config(
    input: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    levels: &[Vec<usize>],
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Vec<Table>> {
    let levels: Vec<Keyed<'_>> = levels.iter().map(|dims| (&dims[..], aggs)).collect();
    lattice_aggregate(input.into(), group_cols, &levels, guard, stats, config)
}

/// A level as the scan core plans it: its key — columns of the input, or
/// the positions of a finer key it keeps — and its lanes.
type Keyed<'a> = (&'a [usize], &'a [AggSpec]);

/// What every adapter that returns level tables does with `levels` — each
/// one's own key columns and lanes: validate → plan → run → charge →
/// finish. With `stream` — a finer key, and each level again as the
/// positions of that key it keeps — all levels read one code stream over
/// the finer key through a projection when that key codes; without one, or
/// when it does not, each level is planned over its own key: the
/// configuration and the key types decide, nothing else.
/// Returns each level's groups and table, and the open `finish` span for
/// what the caller still derives from them.
fn scan_levels<'a>(
    input: Selected<'a>,
    (label, operator): (&'static str, &str),
    levels: &[Keyed<'a>],
    stream: Option<(&[usize], &[Keyed<'a>])>,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &'a ParallelConfig,
) -> Result<(Vec<LevelGroups>, Vec<Table>, SpanHandle)> {
    let table = input.table;
    for (cols, aggs) in levels {
        check_level(table, cols, aggs)?;
    }
    stats.statements += 1;
    stats.holistic_lanes += levels
        .iter()
        .flat_map(|(_, aggs)| *aggs)
        .filter(|s| s.func.is_holistic())
        .count() as u64;
    guard.check()?;

    // Each level's code tier is decided here, once.
    let mut plan = ScanPlan::new(input, config);
    let coded = stream.and_then(|(key, kept)| plan.push_stream(key, kept, stats));
    let detail = coded.unwrap_or_else(|| plan.push_levels(levels.iter().copied(), stats));
    stats.rows_scanned += table.num_rows() as u64;
    let mut span = guard.span(label);
    span.set_detail(detail);
    let groups = plan.run(operator, guard, &mut span, stats)?;

    let out_rows: u64 = groups.iter().map(|g| g.len() as u64).sum();
    guard.charge(out_rows)?;
    span.add_rows(out_rows);
    drop(span);
    let span = guard.span("finish");
    let tables = (groups.iter().zip(levels))
        .map(|(g, (cols, aggs))| finish(g, table, cols, aggs, stats))
        .collect::<Result<_>>()?;
    Ok((groups, tables, span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use pa_storage::{Schema, Value};

    /// The paper's Table 1 fact table.
    fn sales() -> Table {
        let schema = Schema::from_pairs(&[
            ("state", DataType::Str),
            ("city", DataType::Str),
            ("salesAmt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (s, c, a) in [
            ("CA", "San Francisco", 13.0),
            ("CA", "San Francisco", 3.0),
            ("CA", "San Francisco", 67.0),
            ("CA", "Los Angeles", 23.0),
            ("TX", "Houston", 5.0),
            ("TX", "Houston", 35.0),
            ("TX", "Houston", 10.0),
            ("TX", "Houston", 14.0),
            ("TX", "Dallas", 53.0),
            ("TX", "Dallas", 32.0),
        ] {
            t.push_row(&[Value::str(s), Value::str(c), Value::Float(a)])
                .unwrap();
        }
        t
    }

    fn sum_a(t: &Table) -> AggSpec {
        AggSpec::sum_col(t.schema(), "salesAmt", "A").unwrap()
    }

    /// A table big enough to split into many small morsels, with integer
    /// values so chunked float sums are exact.
    fn big(n: usize, groups: i64) -> Table {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Int),
            ("s", DataType::Str),
            ("a", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::with_capacity(schema, n);
        for i in 0..n {
            let g = (i as i64 * 7919) % groups;
            let row = [
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int(g)
                },
                Value::str(format!("s{}", g % 5)),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 100) as f64)
                },
            ];
            t.push_row(&row).unwrap();
        }
        t
    }

    /// One level under `guard`, serially.
    fn guarded(
        input: &Table,
        group_cols: &[usize],
        aggs: &[AggSpec],
        guard: &ResourceGuard,
        stats: &mut ExecStats,
    ) -> Result<Table> {
        let serial = ParallelConfig::serial();
        hash_aggregate_with_config(input, group_cols, aggs, guard, stats, &serial)
    }

    fn par(threads: usize, morsel: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            morsel_rows: morsel,
            min_parallel_rows: 0,
            ..ParallelConfig::serial()
        }
    }

    #[test]
    fn fine_level_aggregation_matches_paper_example() {
        let f = sales();
        let mut st = ExecStats::default();
        let fk = hash_aggregate(&f, &[0, 1], &[sum_a(&f)], &mut st).unwrap();
        assert_eq!(fk.num_rows(), 4);
        let sorted = fk.sorted_by(&[0, 1]);
        let rows: Vec<Vec<Value>> = sorted.rows().collect();
        assert_eq!(
            rows[0],
            vec![
                Value::str("CA"),
                Value::str("Los Angeles"),
                Value::Float(23.0)
            ]
        );
        assert_eq!(
            rows[1],
            vec![
                Value::str("CA"),
                Value::str("San Francisco"),
                Value::Float(83.0)
            ]
        );
        assert_eq!(
            rows[2],
            vec![Value::str("TX"), Value::str("Dallas"), Value::Float(85.0)]
        );
        assert_eq!(
            rows[3],
            vec![Value::str("TX"), Value::str("Houston"), Value::Float(64.0)]
        );
        assert_eq!(st.rows_scanned, 10);
        assert_eq!(st.rows_materialized, 4);
    }

    #[test]
    fn coarse_from_fine_equals_coarse_from_fact() {
        // sum() is distributive: Fj from Fk == Fj from F.
        let f = sales();
        let mut st = ExecStats::default();
        let fk = hash_aggregate(&f, &[0, 1], &[sum_a(&f)], &mut st).unwrap();
        let fj_from_f = hash_aggregate(&f, &[0], &[sum_a(&f)], &mut st).unwrap();
        let spec = AggSpec::sum_col(fk.schema(), "A", "A").unwrap();
        let fj_from_fk = hash_aggregate(&fk, &[0], &[spec], &mut st).unwrap();
        let a: Vec<Vec<Value>> = fj_from_f.sorted_by(&[0]).rows().collect();
        let b: Vec<Vec<Value>> = fj_from_fk.sorted_by(&[0]).rows().collect();
        assert_eq!(a, b);
        assert_eq!(a[0], vec![Value::str("CA"), Value::Float(106.0)]);
        assert_eq!(a[1], vec![Value::str("TX"), Value::Float(149.0)]);
    }

    #[test]
    fn global_aggregation_no_group_by() {
        let f = sales();
        let mut st = ExecStats::default();
        let g = hash_aggregate(&f, &[], &[sum_a(&f)], &mut st).unwrap();
        assert_eq!(g.num_rows(), 1);
        assert_eq!(g.get(0, 0), Value::Float(255.0));
    }

    #[test]
    fn global_aggregation_over_empty_input_returns_one_null_row() {
        let f = Table::empty(sales().schema().clone());
        let mut st = ExecStats::default();
        let spec = AggSpec::sum_col(f.schema(), "salesAmt", "A").unwrap();
        let g = hash_aggregate(&f, &[], &[spec], &mut st).unwrap();
        assert_eq!(g.num_rows(), 1);
        assert_eq!(g.get(0, 0), Value::Null, "sum of nothing is NULL");
    }

    #[test]
    fn sum_skips_nulls_and_all_null_group_is_null() {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::Float(5.0)]).unwrap();
        t.push_row(&[Value::Int(1), Value::Null]).unwrap();
        t.push_row(&[Value::Int(2), Value::Null]).unwrap();
        let spec = AggSpec::sum_col(t.schema(), "a", "s").unwrap();
        let mut st = ExecStats::default();
        let out = hash_aggregate(&t, &[0], &[spec], &mut st)
            .unwrap()
            .sorted_by(&[0]);
        assert_eq!(out.get(0, 1), Value::Float(5.0));
        assert_eq!(out.get(1, 1), Value::Null);
    }

    #[test]
    fn parents_address_the_coarser_level_in_the_order_a_scan_returns_it() {
        // NULLs in both key columns and in the measure; 29 × 5 fine groups.
        let t = big(6_000, 29);
        // A float dimension beside them codes in no space: tuple hash.
        let spec = vec![AggSpec::sum_col(t.schema(), "a", "sum").unwrap()];
        let guard = ResourceGuard::unlimited();
        let wide = ParallelConfig {
            dense_budget: 0,
            ..ParallelConfig::serial()
        };
        let (coded, hashed) = (vec![0, 1], vec![0, 1, 2]);
        let configs = [
            ("dense", ParallelConfig::serial(), &coded),
            ("wide", wide, &coded),
            ("tuple hash", ParallelConfig::serial(), &hashed),
            ("tuple hash, four workers", par(4, 256), &hashed),
            ("four workers", par(4, 256), &coded),
        ];
        let coarser = [vec![0], vec![1], vec![]];
        for (name, config, key) in configs {
            let mut st = ExecStats::default();
            let fine = [(key.clone(), spec.clone())];
            let (tables, parents) =
                aggregate_projecting((&t).into(), &fine, &coarser, &guard, &mut st, &config)
                    .unwrap();
            let fk = &tables[0];
            assert_eq!(parents.len(), coarser.len(), "{name}");
            for (dims, parent) in coarser.iter().zip(&parents) {
                let fj =
                    aggregate_level((&t).into(), dims, &spec, &guard, &mut st, &config).unwrap();
                assert_eq!(parent.groups, fj.num_rows(), "{name} {dims:?}");
                assert_eq!(parent.rows.len(), fk.num_rows(), "{name} {dims:?}");
                for (row, &p) in parent.rows.iter().enumerate() {
                    for (j, &d) in dims.iter().enumerate() {
                        let (mine, theirs) = (fk.get(row, d), fj.get(p as usize, j));
                        assert!(mine.key_eq(&theirs), "{name} {dims:?}: row {row} → {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn count_vs_count_star() {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        t.push_row(&[Value::Int(1), Value::Float(5.0)]).unwrap();
        t.push_row(&[Value::Int(1), Value::Null]).unwrap();
        let a = Expr::col(t.schema(), "a").unwrap();
        let specs = vec![
            AggSpec::new(AggFunc::Count, a.clone(), "cnt"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "cnt_star"),
        ];
        let mut st = ExecStats::default();
        let out = hash_aggregate(&t, &[0], &specs, &mut st).unwrap();
        assert_eq!(out.get(0, 1), Value::Int(1));
        assert_eq!(out.get(0, 2), Value::Int(2));
    }

    #[test]
    fn avg_min_max() {
        let f = sales();
        let a = Expr::col(f.schema(), "salesAmt").unwrap();
        let specs = vec![
            AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
            AggSpec::new(AggFunc::Min, a.clone(), "min"),
            AggSpec::new(AggFunc::Max, a, "max"),
        ];
        let mut st = ExecStats::default();
        let out = hash_aggregate(&f, &[0], &specs, &mut st)
            .unwrap()
            .sorted_by(&[0]);
        // CA: 13,3,67,23
        assert_eq!(out.get(0, 1), Value::Float(106.0 / 4.0));
        assert_eq!(out.get(0, 2), Value::Float(3.0));
        assert_eq!(out.get(0, 3), Value::Float(67.0));
    }

    #[test]
    fn min_max_on_strings() {
        let f = sales();
        let c = Expr::col(f.schema(), "city").unwrap();
        let specs = vec![
            AggSpec::new(AggFunc::Min, c.clone(), "first_city"),
            AggSpec::new(AggFunc::Max, c, "last_city"),
        ];
        let mut st = ExecStats::default();
        let out = hash_aggregate(&f, &[0], &specs, &mut st)
            .unwrap()
            .sorted_by(&[0]);
        assert_eq!(out.get(0, 1), Value::str("Los Angeles"));
        assert_eq!(out.get(1, 2), Value::str("Houston"));
    }

    #[test]
    fn synchronized_scan_reads_input_once() {
        let f = sales();
        let mut st = ExecStats::default();
        let levels = vec![(vec![0, 1], vec![sum_a(&f)]), (vec![0], vec![sum_a(&f)])];
        let out = multi_hash_aggregate(&f, &levels, &mut st).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].num_rows(), 4);
        assert_eq!(out[1].num_rows(), 2);
        assert_eq!(st.rows_scanned, 10, "one scan for both levels");
    }

    #[test]
    fn aggregate_of_expression() {
        // sum(CASE WHEN city='Dallas' THEN A ELSE NULL END) — the horizontal
        // building block.
        let f = sales();
        let s = f.schema();
        let case = Expr::Case {
            branches: vec![(
                Expr::col(s, "city").unwrap().eq(Expr::lit("Dallas")),
                Expr::col(s, "salesAmt").unwrap(),
            )],
            else_value: None,
        };
        let spec = AggSpec::new(AggFunc::Sum, case, "dallas");
        let mut st = ExecStats::default();
        let out = hash_aggregate(&f, &[0], &[spec], &mut st)
            .unwrap()
            .sorted_by(&[0]);
        assert_eq!(out.get(0, 1), Value::Null, "CA has no Dallas rows");
        assert_eq!(out.get(1, 1), Value::Float(85.0));
        assert_eq!(st.case_condition_evals, 10, "one condition per row");
    }

    #[test]
    fn count_distinct() {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("x", DataType::Str)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (d, x) in [(1, "a"), (1, "a"), (1, "b"), (2, "c"), (2, "c")] {
            t.push_row(&[Value::Int(d), Value::str(x)]).unwrap();
        }
        t.push_row(&[Value::Int(2), Value::Null]).unwrap();
        let spec = AggSpec::new(
            AggFunc::CountDistinct,
            Expr::col(t.schema(), "x").unwrap(),
            "dx",
        );
        let mut st = ExecStats::default();
        let out = hash_aggregate(&t, &[0], &[spec], &mut st)
            .unwrap()
            .sorted_by(&[0]);
        assert_eq!(out.get(0, 1), Value::Int(2), "a, b");
        assert_eq!(out.get(1, 1), Value::Int(1), "c; NULL not counted");
        assert!(!AggFunc::CountDistinct.is_distributive(), "holistic");
    }

    #[test]
    fn percentile_and_sketch_aggregates_group_correctly() {
        let f = sales();
        let a = Expr::col(f.schema(), "salesAmt").unwrap();
        let specs = vec![
            AggSpec::new(AggFunc::Percentile(PBits::new(0.5)), a.clone(), "med"),
            AggSpec::new(
                AggFunc::ApproxPercentile(PBits::new(0.5)),
                a.clone(),
                "amed",
            ),
            AggSpec::new(AggFunc::ApproxCountDistinct, a, "adx"),
        ];
        let mut st = ExecStats::default();
        let out = hash_aggregate(&f, &[0], &specs, &mut st)
            .unwrap()
            .sorted_by(&[0]);
        // CA amounts: 3, 13, 23, 67 → median (13+23)/2 = 18.
        assert_eq!(out.get(0, 1), Value::Float(18.0));
        // TX amounts: 5, 10, 14, 32, 35, 53 → median (14+32)/2 = 23.
        assert_eq!(out.get(1, 1), Value::Float(23.0));
        // Tiny groups: the digest holds raw samples, so it is exact too.
        assert_eq!(out.get(0, 2), Value::Float(18.0));
        // All amounts are distinct; HLL is exact at these cardinalities.
        assert_eq!(out.get(0, 3), Value::Int(4));
        assert_eq!(out.get(1, 3), Value::Int(6));
        assert_eq!(st.holistic_lanes, 3, "three holistic lanes planned");
        assert_eq!(st.sketch_spills, 0, "nothing over budget");
        assert!(AggFunc::Percentile(PBits::new(0.5)).is_holistic());
        assert!(!AggFunc::Percentile(PBits::new(0.5)).is_distributive());
    }

    #[test]
    fn validates_inputs() {
        let f = sales();
        assert!(hash_aggregate(&f, &[99], &[sum_a(&f)], &mut ExecStats::default()).is_err());
        assert!(hash_aggregate(&f, &[0], &[], &mut ExecStats::default()).is_err());
    }

    #[test]
    fn guard_budget_stops_the_scan() {
        let f = sales();
        let mut st = ExecStats::default();
        // 10 input rows > 5-row budget: the whole table is one morsel, so
        // the first charge fails before absorbing.
        let guard = ResourceGuard::with_row_budget(5);
        let err = guarded(&f, &[0], &[sum_a(&f)], &guard, &mut st).unwrap_err();
        assert!(
            matches!(err, EngineError::BudgetExceeded { budget: 5, .. }),
            "{err}"
        );

        // 10 scanned + 2 groups fits a 12-row budget exactly.
        let guard = ResourceGuard::with_row_budget(12);
        let out = guarded(&f, &[0], &[sum_a(&f)], &guard, &mut st).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(guard.rows_charged(), 12);

        // 10 scanned + 4 groups does not fit 12: the failure comes from the
        // materialization charge, after the scan succeeded.
        let guard = ResourceGuard::with_row_budget(12);
        let err = guarded(&f, &[0, 1], &[sum_a(&f)], &guard, &mut st).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn guard_cancellation_stops_the_scan() {
        let f = sales();
        let guard = ResourceGuard::with_row_budget(u64::MAX);
        guard.cancel();
        let err = guarded(&f, &[0], &[sum_a(&f)], &guard, &mut ExecStats::default()).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
    }

    #[test]
    fn distributive_classification() {
        assert!(AggFunc::Sum.is_distributive());
        assert!(AggFunc::Min.is_distributive());
        assert!(AggFunc::CountStar.is_distributive());
        assert!(!AggFunc::Avg.is_distributive(), "avg is algebraic");
        assert!(
            !AggFunc::Count.is_distributive(),
            "count re-aggregates as sum"
        );
    }

    #[test]
    fn parallel_output_identical_to_serial() {
        let t = big(10_000, 37);
        let a = Expr::Col(2);
        let specs = vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "sum"),
            AggSpec::new(AggFunc::Count, a.clone(), "cnt"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
            AggSpec::new(AggFunc::Avg, a.clone(), "avg"),
            AggSpec::new(AggFunc::Min, a.clone(), "mn"),
            AggSpec::new(AggFunc::Max, a.clone(), "mx"),
            AggSpec::new(AggFunc::CountDistinct, Expr::Col(1), "dx"),
            AggSpec::new(AggFunc::Percentile(PBits::new(0.5)), a.clone(), "med"),
            AggSpec::new(AggFunc::Percentile(PBits::new(0.9)), a, "p90"),
            AggSpec::new(AggFunc::ApproxCountDistinct, Expr::Col(1), "adx"),
        ];
        let levels = vec![(vec![0, 1], specs.clone()), (vec![1], specs)];
        let mut serial_stats = ExecStats::default();
        let serial = multi_hash_aggregate_with_config(
            &t,
            &levels,
            &ResourceGuard::unlimited(),
            &mut serial_stats,
            &ParallelConfig::serial(),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let mut st = ExecStats::default();
            let parallel = multi_hash_aggregate_with_config(
                &t,
                &levels,
                &ResourceGuard::unlimited(),
                &mut st,
                &par(threads, 256),
            )
            .unwrap();
            for (s, p) in serial.iter().zip(&parallel) {
                let s_rows: Vec<Vec<Value>> = s.rows().collect();
                let p_rows: Vec<Vec<Value>> = p.rows().collect();
                assert_eq!(s_rows, p_rows, "threads={threads}");
            }
            assert_eq!(st.rows_scanned, serial_stats.rows_scanned);
        }
    }

    #[test]
    fn traced_scan_counts_every_row_exactly_once() {
        use crate::clock::SystemClock;
        use pa_obs::Tracer;
        let t = big(8_192, 13);
        let specs = vec![AggSpec::new(AggFunc::Sum, Expr::Col(2), "s")];
        for (threads, expect_workers) in [(1, 0), (4, 4)] {
            let tracer = Tracer::enabled(SystemClock::shared());
            let root = tracer.span("query");
            let guard = ResourceGuard::counting().with_tracer(tracer.clone());
            hash_aggregate_with_config(
                &t,
                &[0],
                &specs,
                &guard,
                &mut ExecStats::default(),
                &par(threads, 256),
            )
            .unwrap();
            root.finish();
            let report = tracer.take_report();
            let agg = report
                .spans()
                .iter()
                .find(|s| s.label == "aggregate")
                .expect("aggregate span recorded");
            let workers: Vec<_> = report.children(agg.id).collect();
            assert_eq!(workers.len(), expect_workers, "threads={threads}");
            // Scanned rows plus the 13 emitted groups — mirroring exactly
            // what the guard charges, so a trace ties out to rows_charged.
            assert_eq!(
                report.rows_inclusive(agg.id),
                8_192 + 13,
                "threads={threads}: every input row and output group counted once"
            );
            assert_eq!(report.morsels_inclusive(agg.id), 8_192 / 256);
            // Worker order in the report is the deterministic merge order.
            let ordinals: Vec<_> = workers.iter().map(|w| w.ordinal.unwrap()).collect();
            assert_eq!(ordinals, (0..expect_workers as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_budget_trips_mid_scan_on_the_shared_meter() {
        let t = big(20_000, 11);
        // Budget admits a few morsels, nowhere near the full scan: some
        // worker's charge must trip it mid-flight.
        let guard = ResourceGuard::with_row_budget(1_000);
        let err = hash_aggregate_with_config(
            &t,
            &[0],
            &[AggSpec::new(AggFunc::Sum, Expr::Col(2), "s")],
            &guard,
            &mut ExecStats::default(),
            &par(4, 128),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert!(
            guard.rows_charged() < 20_000,
            "scan stopped early, charged {}",
            guard.rows_charged()
        );
    }

    #[test]
    fn precancelled_guard_stops_every_parallel_worker_at_first_morsel() {
        let t = big(20_000, 11);
        let guard = ResourceGuard::with_row_budget(u64::MAX);
        guard.cancel();
        let err = hash_aggregate_with_config(
            &t,
            &[0],
            &[AggSpec::new(AggFunc::Sum, Expr::Col(2), "s")],
            &guard,
            &mut ExecStats::default(),
            &par(4, 128),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(guard.rows_charged(), 0, "no morsel was admitted");
    }

    #[test]
    fn typed_kernel_handles_int_columns_and_null_groups() {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("a", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for (g, a) in [(Some(1), Some(10)), (Some(1), None), (None, Some(7))] {
            t.push_row(&[
                g.map_or(Value::Null, Value::Int),
                a.map_or(Value::Null, Value::Int),
            ])
            .unwrap();
        }
        let a = Expr::Col(1);
        let specs = vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "s"),
            AggSpec::new(AggFunc::Avg, a.clone(), "m"),
            AggSpec::new(AggFunc::Count, a, "c"),
        ];
        let out = hash_aggregate(&t, &[0], &specs, &mut ExecStats::default())
            .unwrap()
            .sorted_by(&[0]);
        // NULL group first.
        assert_eq!(out.get(0, 1), Value::Float(7.0));
        assert_eq!(out.get(1, 1), Value::Float(10.0));
        assert_eq!(out.get(1, 2), Value::Float(10.0));
        assert_eq!(out.get(1, 3), Value::Int(1));
    }
    #[test]
    fn a_typed_lane_is_the_column_pushing_each_finished_value_builds() {
        // Every function over an integer and a float input, NULL groups
        // included: the typed arms and the `Value` arm write the same data
        // (placeholders too), validity and type.
        let pushed = |dtype, lane: &[Acc]| {
            let mut col = Column::with_capacity(dtype, lane.len());
            for acc in lane {
                col.push(acc.finish()).unwrap();
            }
            col
        };
        let inputs = [
            (
                DataType::Int,
                vec![Value::Int(4), Value::Int(-9), Value::Null],
            ),
            (
                DataType::Float,
                vec![Value::Float(0.5), Value::Float(-0.0), Value::Int(3)],
            ),
        ];
        let funcs = [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Count,
            AggFunc::CountStar,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Percentile(PBits::new(0.5)),
        ];
        for (input, values) in &inputs {
            for func in funcs {
                // One group fed every value, one fed NULLs only, one nothing.
                let mut lane = vec![Acc::new(func), Acc::new(func), Acc::new(func)];
                for v in values {
                    lane[0].update(v).unwrap();
                }
                lane[1].update(&Value::Null).unwrap();
                let dtype = func.output_type(
                    &Expr::Col(0),
                    &Schema::from_pairs(&[("x", *input)]).unwrap(),
                );
                let got = lane_column(dtype, lane.iter(), &mut ExecStats::default()).unwrap();
                let want = pushed(dtype, &lane);
                let what = format!("{} over {input:?}", func.display_name());
                assert_eq!(got.data_type(), want.data_type(), "{what}");
                assert_eq!(got.validity(), want.validity(), "{what}");
                let bits = |c: &Column| match c {
                    Column::Float { data, .. } => data.iter().map(|x| x.to_bits()).collect(),
                    Column::Int { data, .. } => {
                        data.iter().map(|&x| x as u64).collect::<Vec<u64>>()
                    }
                    Column::Str { .. } => unreachable!("numeric lanes"),
                };
                assert_eq!(bits(&got), bits(&want), "{what}");
            }
        }
        // `min` over strings keeps the `Value` arm, dictionary and all.
        let mut lane = [Acc::new(AggFunc::Min), Acc::new(AggFunc::Min)];
        lane[0].update(&Value::str("b")).unwrap();
        lane[0].update(&Value::str("a")).unwrap();
        let got = lane_column(DataType::Str, lane.iter(), &mut ExecStats::default()).unwrap();
        assert_eq!((got.get(0), got.get(1)), (Value::str("a"), Value::Null));
    }

    #[test]
    fn a_lane_folds_exactly_when_its_adds_cannot_round() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("whole", DataType::Float),
            ("cents", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for (i, whole, cents) in [(3, 40.0, 0.25), (-8, -7.0, 3.0)] {
            let row = [
                Value::Int(i),
                Value::Float(whole),
                Value::Float(cents),
                Value::Null,
            ];
            t.push_row(&row).unwrap();
        }
        let folds_in = |t: &Table, func, input| AggSpec::new(func, input, "x").folds_exactly(t);
        let folds = |func, input| folds_in(&t, func, input);
        assert!(folds(AggFunc::Sum, Expr::Col(0)), "integers from the range");
        assert!(folds(AggFunc::Sum, Expr::Col(1)), "whole-number floats");
        assert!(!folds(AggFunc::Sum, Expr::Col(2)), "a fraction rounds");
        assert!(!folds(AggFunc::Sum, Expr::Col(3)), "strings do not sum");
        assert!(
            !folds(AggFunc::Sum, Expr::Col(1).add(Expr::lit(0))),
            "not a plain column"
        );
        assert!(folds(AggFunc::Count, Expr::Col(2)) && folds(AggFunc::CountStar, Expr::lit(1)));
        for func in [
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
        ] {
            assert!(!folds(func, Expr::Col(0)), "{}", func.sql_name());
        }
        // Two rows of 2^52 can reach 2^53, where integers stop being exact.
        t.push_row(&[
            Value::Int(1 << 52),
            Value::Float((1u64 << 52) as f64),
            Value::Null,
            Value::Null,
        ])
        .unwrap();
        assert!(!folds_in(&t, AggFunc::Sum, Expr::Col(0)));
        assert!(!folds_in(&t, AggFunc::Sum, Expr::Col(1)));
    }

    // ---- lattice_aggregate ----------------------------------------------

    /// Four enumerable dimensions plus a float measure, with NULLs in the
    /// keys and the measure. Integer-valued floats keep worker-subtotal
    /// merges bit-exact, matching the repo's byte-identity discipline.
    fn fact(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("store", DataType::Str),
            ("day", DataType::Int),
            ("region", DataType::Str),
            ("month", DataType::Int),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::with_capacity(schema, n);
        for i in 0..n {
            let row = [
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", (i * 7919) % 5))
                },
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 7) as i64)
                },
                Value::str(format!("r{}", (i * 31) % 3)),
                Value::Int((i % 12) as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 100) as f64)
                },
            ];
            t.push_row(&row).unwrap();
        }
        t
    }

    fn specs(t: &Table) -> Vec<AggSpec> {
        let a = Expr::col(t.schema(), "amt").unwrap();
        vec![
            AggSpec::new(AggFunc::Sum, a.clone(), "s"),
            AggSpec::new(AggFunc::Count, a, "c"),
            AggSpec::new(AggFunc::CountStar, Expr::lit(1), "n"),
        ]
    }

    fn cfg(threads: usize, dense_budget: usize) -> ParallelConfig {
        ParallelConfig {
            dense_budget,
            ..par(threads, 256)
        }
    }

    /// All BY-prefixes of (store, day, region, month), plus one
    /// incomparable level.
    fn prefix_levels() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            vec![0, 1],
            vec![0],
            vec![1, 3],
        ]
    }

    /// `levels` of `t` over `key`, each with its own lanes, against the
    /// naive reference of each level, sorted by key.
    fn assert_lattice_matches_reference(
        t: &Table,
        key: &[usize],
        levels: &[(&[usize], &[AggSpec])],
        config: &ParallelConfig,
    ) -> ExecStats {
        let (guard, mut st) = (ResourceGuard::unlimited(), ExecStats::default());
        let fused = lattice_aggregate(t.into(), key, levels, &guard, &mut st, config).unwrap();
        let ref_levels: Vec<(Vec<usize>, Vec<AggSpec>)> = levels
            .iter()
            .map(|(dims, aggs)| (dims.iter().map(|&d| key[d]).collect(), aggs.to_vec()))
            .collect();
        let rows = || reference::Rows::all(t.num_rows());
        let reference = (ref_levels.iter()).map(|(cols, aggs)| {
            reference::aggregate(t, &rows(), cols, aggs, config.percentile_budget)
        });
        assert_eq!(fused.len(), levels.len());
        for ((fused, reference), (dims, _)) in fused.iter().zip(reference).zip(levels) {
            let sort_cols: Vec<usize> = (0..dims.len()).collect();
            let reference = reference.sorted_by(&sort_cols);
            assert_eq!(fused.schema(), reference.schema(), "level {dims:?}");
            let a: Vec<Vec<Value>> = fused.rows().collect();
            let b: Vec<Vec<Value>> = reference.rows().collect();
            assert_eq!(a, b, "level {dims:?} under {config:?}");
        }
        st
    }

    fn assert_matches_reference(threads: usize, dense_budget: usize) {
        let t = fact(10_000);
        let aggs = specs(&t);
        let dims = prefix_levels();
        let levels: Vec<(&[usize], &[AggSpec])> =
            dims.iter().map(|dims| (&dims[..], &aggs[..])).collect();
        let config = cfg(threads, dense_budget);
        let st = assert_lattice_matches_reference(&t, &[0, 1, 2, 3], &levels, &config);
        assert_eq!(st.rows_scanned, 10_000, "one scan for all levels");
        assert_eq!(st.vectorized_kernel_rows, 10_000, "one stream");
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_dense() {
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1 << 20);
        }
    }

    #[test]
    fn fused_lattice_matches_per_level_reference_wide() {
        // A one-code budget refuses the dense space; the wide path takes
        // over and must produce the same bytes.
        for threads in [1, 2, 4] {
            assert_matches_reference(threads, 1);
        }
    }

    #[test]
    fn every_lane_and_key_rides_the_one_scan() {
        let t = fact(3_000);
        let aggs = specs(&t);
        let amt = Expr::col(t.schema(), "amt").unwrap();
        let with = |func, name: &str| {
            let mut lanes = aggs.clone();
            lanes.push(AggSpec::new(func, amt.clone(), name));
            lanes
        };
        let with_min = with(AggFunc::Min, "lo");
        let with_median = with(AggFunc::Percentile(PBits::new(0.5)), "med");
        let with_distinct = with(AggFunc::CountDistinct, "d");
        // A root with every lane and a totals level with the sums alone.
        fn levels(root: &[AggSpec]) -> [(&[usize], &[AggSpec]); 2] {
            [(&[0, 1], root), (&[0], &root[..1])]
        }
        for threads in [1, 2, 4] {
            for dense_budget in [1 << 20, 1] {
                let on = cfg(threads, dense_budget);
                // A lane no typed kernel reads (min, count distinct) rides
                // the one stream as an `Acc` lane.
                for lanes in [&with_min, &with_distinct] {
                    let st = assert_lattice_matches_reference(&t, &[0, 1], &levels(lanes), &on);
                    assert_eq!(
                        (st.scalar_kernel_rows, st.vectorized_kernel_rows),
                        (0, 3_000)
                    );
                }
                // A holistic lane rides the stream, at the root only.
                let st = assert_lattice_matches_reference(&t, &[0, 1], &levels(&with_median), &on);
                assert_eq!(
                    (st.scalar_kernel_rows, st.vectorized_kernel_rows),
                    (0, 3_000)
                );
                assert_eq!(st.holistic_lanes, 1, "no median at the totals level");
                // Float key dimension: neither code space builds, the rows
                // are grouped by tuple hash in the same block loop.
                let float_key: [(&[usize], _); 1] = [(&[0], &aggs[..])];
                let st = assert_lattice_matches_reference(&t, &[4], &float_key, &on);
                assert_eq!(st.vectorized_kernel_rows, 3_000);
                assert_eq!(st.scalar_kernel_rows, 0);
            }
        }
        // Malformed levels are errors: not a subset, unordered, no lanes.
        let (guard, mut st) = (ResourceGuard::unlimited(), ExecStats::default());
        let malformed: [(&[usize], _); 3] =
            [(&[2], &aggs[..]), (&[1, 0], &aggs[..]), (&[0], &aggs[..0])];
        for level in malformed {
            let level = [level];
            let config = cfg(1, 1 << 20);
            let out = lattice_aggregate((&t).into(), &[0, 1], &level, &guard, &mut st, &config);
            assert!(
                matches!(out, Err(EngineError::InvalidOperator(_))),
                "{level:?}"
            );
        }
    }

    #[test]
    fn guard_budget_and_cancellation_stop_the_fused_scan() {
        let t = fact(20_000);
        let aggs = specs(&t);
        let guard = ResourceGuard::with_row_budget(1_000);
        let mut st = ExecStats::default();
        let err = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &prefix_levels(),
            &guard,
            &mut st,
            &cfg(4, 1 << 20),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");

        let guard = ResourceGuard::with_row_budget(u64::MAX);
        guard.cancel();
        let err = lattice_aggregate_with_config(
            &t,
            &[0, 1, 2, 3],
            &aggs,
            &prefix_levels(),
            &guard,
            &mut st,
            &cfg(4, 1 << 20),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(guard.rows_charged(), 0, "no morsel was admitted");
    }

    #[test]
    fn empty_input_yields_empty_levels() {
        let t = fact(0);
        let aggs = specs(&t);
        let mut st = ExecStats::default();
        let tables = lattice_aggregate_with_config(
            &t,
            &[0, 1],
            &aggs,
            &[vec![0], vec![0, 1]],
            &ResourceGuard::unlimited(),
            &mut st,
            &cfg(1, 1 << 20),
        )
        .unwrap();
        // Levels with zero groups still carry the declared shape.
        let shapes: Vec<(usize, usize)> = tables
            .iter()
            .map(|t| (t.num_rows(), t.num_columns()))
            .collect();
        assert_eq!(shapes, [(0, 4), (0, 5)]);
    }
}
