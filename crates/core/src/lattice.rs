//! Dimension-lattice planning — the paper's multi-term and multi-query
//! optimizations.
//!
//! SIGMOD §3.1: "If m > 1 then partial aggregations need to be computed
//! bottom-up based on the dimension lattice to speed up computation", and
//! §6 (future work): "A set of percentage queries on the same table may be
//! efficiently evaluated using shared summaries."
//!
//! Both reduce to the same idea, borrowed from cube computation
//! [Gray et al. 1996]: an aggregation level `L` (a set of grouping columns)
//! can be computed from any already-materialized level `S ⊇ L` because
//! `sum()` is distributive — and the smallest such ancestor is the cheapest
//! source. This module plans where each level of a *request* comes from —
//! one multi-term query, the grouping sets of one statement, or a batch of
//! queries — and evaluates the plan (DESIGN.md §15):
//!
//! * Every level the fact table must be scanned for — the finest level
//!   of a ROLLUP, each of several disjoint grouping sets, every set when
//!   extra aggregates ride along, holistic ones included — shares *one*
//!   scan ([`pa_engine::lattice_aggregate`]): when the plan fuses, one pass
//!   codes each row once and scatters every lane into every level's
//!   accumulators. Levels a finer one covers re-aggregate it, bottom-up.
//! * Each level is one table in a canonical layout (level columns in
//!   normalized order, then the lanes; rows sorted by key) and is
//!   kept in the catalog's [`pa_storage::LatticeCache`], so a later request
//!   at the same level is a refcount bump and one at any coarser level
//!   re-aggregates a cached table instead of rescanning `F` — storing the
//!   result back, so the request after it is exact again.
//!   [`plan_levels_cached`] arbitrates sources with per-source cost
//!   constants: an exact cached level beats a cached finer ancestor beats
//!   a freshly planned ancestor beats a fact scan, *regardless of arity*
//!   (arity only breaks ties within a source kind).
//! * One routine turns materialized levels into percentage columns for all
//!   three callers: each group's sum over its total, the total read from
//!   the totals level's own table.
//!
//! [`eval_vpct_lattice_guarded`] evaluates a multi-term `Vpct` query, the executor
//! every grouping set of a statement into one table (`eval_vpct_sets_on`),
//! and [`eval_vpct_batch`] a whole set of percentage queries.

use crate::error::{CoreError, Result};
use crate::query::{ExtraAgg, Fact, Measure, VpctQuery};
use crate::vertical::{count_insert, extra_spec, into_shared, percentage, QueryResult};
use pa_engine::{
    aggregate_level, lattice_aggregate, AggFunc, AggSpec, ExecStats, Expr, ParallelConfig,
    ResourceGuard, SpanHandle,
};
use pa_storage::{
    Catalog, Column, DataType, Field, FxHashMap, HashIndex, LatticeCache, Schema, SharedTable,
    Table,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One aggregation level: a set of grouping columns (stored sorted,
/// case-normalized, deduplicated), shared by its clones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Level(Arc<[String]>);

impl Level {
    /// Normalize a column list into a level.
    pub fn new(cols: &[String]) -> Level {
        let mut v: Vec<String> = cols.iter().map(|c| c.to_ascii_lowercase()).collect();
        v.sort();
        v.dedup();
        Level(v.into())
    }

    /// Number of grouping columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether `self` can be computed from `other` (`self ⊆ other`).
    pub fn subset_of(&self, other: &Level) -> bool {
        self.0.iter().all(|c| other.0.binary_search(c).is_ok())
    }

    /// The normalized columns.
    pub fn columns(&self) -> &[String] {
        &self.0
    }

    /// Where `name` sits among the normalized columns — its column in the
    /// level's materialized table.
    fn position(&self, name: &str) -> Option<usize> {
        let lowered = || name.bytes().map(|b| b.to_ascii_lowercase());
        self.0.binary_search_by(|c| c.bytes().cmp(lowered())).ok()
    }

    /// `(a, b)` rendering for plans and EXPLAIN output.
    fn render(&self) -> String {
        format!("({})", self.0.join(", "))
    }
}

/// Cost constant of serving a level from its exact cached table.
pub const COST_CACHED: u32 = 0;
/// Cost constant of re-aggregating a cached finer level.
pub const COST_CACHED_ANCESTOR: u32 = 1;
/// Cost constant of re-aggregating a level materialized earlier in the
/// same plan.
pub const COST_PLANNED: u32 = 2;
/// Cost constant of scanning the fact table.
pub const COST_FACT_SCAN: u32 = 3;

/// Where a level's aggregation reads from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelSource {
    /// Scan the fact table (all `FactTable` levels share one scan, and one
    /// code stream when the plan fuses).
    FactTable,
    /// Re-aggregate the previously planned level at this index.
    Planned(usize),
    /// This level's exact cached table.
    Cached,
    /// Re-aggregate the cached table of this finer level.
    CachedAncestor(Level),
}

impl LevelSource {
    /// Per-source cost constant. A cached table always beats a planned
    /// ancestor, however small the planned ancestor is — the cached one is
    /// ready, the planned one is an aggregation still to run — and any
    /// derivation beats rescanning `F`. Arity never enters the constant;
    /// it only breaks ties *within* one source kind.
    pub fn cost(&self) -> u32 {
        match self {
            LevelSource::Cached => COST_CACHED,
            LevelSource::CachedAncestor(_) => COST_CACHED_ANCESTOR,
            LevelSource::Planned(_) => COST_PLANNED,
            LevelSource::FactTable => COST_FACT_SCAN,
        }
    }
}

/// One step of a lattice plan: materialize `level` from `source`.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStep {
    /// The level to materialize.
    pub level: Level,
    /// Its cheapest available source.
    pub source: LevelSource,
}

/// The distinct levels of a request, widest first (roots ahead of equally
/// wide totals levels) so later levels can reuse earlier ones.
fn distinct_widest_first(roots: &[Level], needed: &[Level]) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    for l in roots.iter().chain(needed) {
        if !levels.contains(l) {
            levels.push(l.clone());
        }
    }
    levels.sort_by_key(|l| std::cmp::Reverse(l.arity()));
    levels
}

/// Minimal already-planned ancestor of `level`, as `(step index, arity)`.
fn min_planned_ancestor(level: &Level, steps: &[LevelStep]) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for (i, step) in steps.iter().enumerate() {
        if level.subset_of(&step.level) {
            let arity = step.level.arity();
            if best.is_none_or(|(_, a)| arity < a) {
                best = Some((i, arity));
            }
        }
    }
    best
}

/// Minimal cached *strict* superset of `level` (ties broken by column
/// names so the plan is deterministic whatever order the cache lists
/// levels in).
fn min_cached_ancestor(level: &Level, cached: &[Level]) -> Option<Level> {
    cached
        .iter()
        .filter(|c| *c != level && level.subset_of(c))
        .min_by(|a, b| a.arity().cmp(&b.arity()).then(a.columns().cmp(b.columns())))
        .cloned()
}

/// Plan the materialization order for a request — its `roots` (each GROUP
/// BY level it answers at) plus the `needed` totals levels — arbitrating
/// each level between the lattice cache, earlier plan steps, and the fact
/// table by the per-source cost constants. Steps come widest first, so a
/// level's planned ancestors precede it: the paper's bottom-up order.
///
/// * A level whose exact table is cached is served from it.
/// * Otherwise it re-aggregates the cheapest finer level by `(cost,
///   arity)`: a cached one beats one planned earlier in this request,
///   however small the planned one is. A level is a few thousand groups
///   where the fact table is millions of rows, so re-aggregating one is
///   far below even the extra scatter per row that riding the scan costs.
/// * A root may re-aggregate only when `reaggregate_roots` — false when
///   the request carries extra aggregates, whose finalized values cannot
///   be re-derived from a finer level. Totals levels always may: they
///   only need the distributive term sums.
/// * What is left scans the fact table: the levels nothing finer covers
///   (one root for a ROLLUP or CUBE, several for disjoint grouping sets)
///   and the roots that may not re-aggregate. All of them share **one**
///   fused scan.
/// * The empty (grand-total) level therefore never scans: every request
///   has a non-empty root above it.
pub fn plan_levels_cached(
    roots: &[Level],
    needed: &[Level],
    cached: &[Level],
    reaggregate_roots: bool,
) -> Vec<LevelStep> {
    // Whether a level's *values* may come from a finer level: the
    // distributive sums always, a root's extras never. The stricter
    // question — may they come with the very *bits* a scan of `F` would
    // hold — is the engine's `AggSpec::folds_exactly`, which the pivot asks
    // before it folds a total through `parent`; the lattice does not ask
    // it, a re-aggregated `Fj` being the paper's own plan.
    let may_derive = |l: &Level| reaggregate_roots || !roots.contains(l);
    let mut steps: Vec<LevelStep> = Vec::new();
    for level in distinct_widest_first(roots, needed) {
        let source = if cached.contains(&level) {
            LevelSource::Cached
        } else if !may_derive(&level) {
            LevelSource::FactTable
        } else {
            let from_cache = min_cached_ancestor(&level, cached).map(|anc| {
                (
                    COST_CACHED_ANCESTOR,
                    anc.arity(),
                    LevelSource::CachedAncestor(anc),
                )
            });
            let from_plan = min_planned_ancestor(&level, &steps)
                .map(|(i, arity)| (COST_PLANNED, arity, LevelSource::Planned(i)));
            from_cache
                .into_iter()
                .chain(from_plan)
                .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
                .map_or(LevelSource::FactTable, |(_, _, source)| source)
        };
        steps.push(LevelStep { level, source });
    }
    steps
}

/// The aggregate lanes every level of one request carries, in column
/// order: one sum per distinct term measure (columns `__m{i}`), then the
/// extra aggregates (`__x{i}`). A lane is a function and its input, by
/// position; the names a statement gives its terms are applied only when a
/// result is assembled, so differently aliased statements share levels.
struct Lanes<'q> {
    measures: Vec<&'q Measure>,
    extra: &'q [ExtraAgg],
    /// Identity of each lane: cached levels carry it, so a lookup with
    /// different aggregates never resurrects a table of the wrong shape.
    /// BY lists deliberately do not participate: they choose *which
    /// levels* a request needs, not what the lanes contain.
    signature: Vec<String>,
}

impl<'q> Lanes<'q> {
    /// The lanes of `queries` (non-empty; the extras are the first
    /// query's — callers check that every query carries the same ones).
    fn of(queries: &'q [VpctQuery]) -> Lanes<'q> {
        let mut measures: Vec<&Measure> = Vec::new();
        for term in queries.iter().flat_map(|q| &q.terms) {
            if !measures.contains(&&term.measure) {
                measures.push(&term.measure);
            }
        }
        let extra = &queries[0].extra;
        let sums = measures.iter().map(|m| format!("sum({})", m.sql()));
        let extras = extra.iter().map(|e| {
            let m = e.measure.as_ref().map_or("*".into(), Measure::sql);
            format!("{}({m})", e.func.display_name())
        });
        let signature = sums.chain(extras).collect();
        Lanes {
            measures,
            extra,
            signature,
        }
    }

    fn lane_of(&self, measure: &Measure) -> usize {
        self.measures
            .iter()
            .position(|m| *m == measure)
            .expect("every term's measure was collected")
    }

    fn specs(&self, schema: &Schema) -> Result<Vec<AggSpec>> {
        let sums = self.measures.iter().enumerate().map(|(i, m)| {
            Ok(AggSpec::new(
                AggFunc::Sum,
                m.to_expr(schema)?,
                format!("__m{i}"),
            ))
        });
        let extras = self.extra.iter().enumerate().map(|(i, e)| {
            let mut spec = extra_spec(e, schema)?;
            spec.name = format!("__x{i}");
            Ok(spec)
        });
        sums.chain(extras).collect()
    }
}

/// The levels a request answers at (each query's GROUP BY) and, query by
/// query, the totals levels its terms divide by.
fn request_levels(queries: &[VpctQuery]) -> (Vec<Level>, Vec<Vec<Level>>) {
    let roots = queries.iter().map(|q| Level::new(&q.group_by)).collect();
    let totals_of = |q: &VpctQuery| {
        q.terms
            .iter()
            .map(|t| Level::new(&q.totals_key(t)))
            .collect()
    };
    let totals = queries.iter().map(totals_of).collect();
    (roots, totals)
}

/// The levels of one request, each one table in the canonical layout
/// `[level columns, normalized order][lanes]`, rows sorted by key.
type LevelTables = FxHashMap<Level, Arc<Table>>;

/// Plan a request against the lattice cache — `cache` is the cache and the
/// name it knows the fact table by, `None` for a fact table nothing is
/// cached for. A root must be cached with every lane; a totals level, or a
/// finer level to re-aggregate, serves with the leading sums alone. With
/// `fetched`, lookups count as hits and misses and the cached tables the
/// plan may read land in the map — the wanted levels in one
/// [`LatticeCache::get_levels`] call; without, the cache is only probed
/// (EXPLAIN).
fn plan_request(
    cache: Option<(&LatticeCache, &str)>,
    lanes: &Lanes<'_>,
    (roots, needed): (&[Level], &[Level]),
    mut fetched: Option<&mut LevelTables>,
) -> Vec<LevelStep> {
    let Some((cache, table)) = cache else {
        return plan_levels_cached(roots, needed, &[], lanes.extra.is_empty());
    };
    let all = &lanes.signature[..];
    let sums = &all[..lanes.measures.len()];
    let wanted = distinct_widest_first(roots, needed);
    let lookups: Vec<(&[String], &[String])> = (wanted.iter())
        .map(|l| (l.columns(), if roots.contains(l) { all } else { sums }))
        .collect();
    let mut cached: Vec<Level> = match fetched.as_deref_mut() {
        Some(tables) => {
            let mut hits = vec![None; wanted.len()];
            cache.get_levels(table, &lookups, &mut hits);
            let hit = |(l, t): (&Level, Option<_>)| Some((l.clone(), t?));
            tables.extend(wanted.iter().zip(hits).filter_map(hit));
            wanted
                .iter()
                .filter(|l| tables.contains_key(*l))
                .cloned()
                .collect()
        }
        None => (wanted.iter().zip(&lookups))
            .filter(|(_, (cols, lanes))| cache.probe(table, cols, lanes))
            .map(|(l, _)| l.clone())
            .collect(),
    };
    let mut look = |l: &Level, lanes: &[String]| match fetched.as_deref_mut() {
        Some(tables) => cache
            .get(table, l.columns(), lanes)
            .map(|t| tables.insert(l.clone(), t))
            .is_some(),
        None => cache.probe(table, l.columns(), lanes),
    };
    // Finer cached levels only matter to a wanted level that missed (one
    // that missed as a root stays missed, whatever sums it is cached with).
    if cached.len() < wanted.len() {
        for cols in cache.levels_for(table, sums) {
            let l = Level::new(&cols);
            let covers = |w: &Level| !cached.contains(w) && w.subset_of(&l);
            if !wanted.contains(&l) && wanted.iter().any(covers) && look(&l, sums) {
                cached.push(l);
            }
        }
    }
    cached.sort_by(|a, b| a.columns().cmp(b.columns()));
    plan_levels_cached(roots, needed, &cached, lanes.extra.is_empty())
}

/// Re-aggregate the distributive measure sums of `src`, the table of level
/// `from`, down to `to ⊆ from`.
fn reaggregate_level(
    src: &Table,
    from: &Level,
    to: &Level,
    n_measures: usize,
    guard: &ResourceGuard,
    stats: &mut ExecStats,
    config: &ParallelConfig,
) -> Result<Table> {
    let group_cols: Vec<usize> = to
        .columns()
        .iter()
        .map(|c| from.position(c).expect("a level derives from a superset"))
        .collect();
    let specs: Vec<AggSpec> = (from.arity()..from.arity() + n_measures)
        .map(|pos| {
            let name = src.schema().field_at(pos).name.clone();
            AggSpec::new(AggFunc::Sum, Expr::Col(pos), name)
        })
        .collect();
    let derived = aggregate_level(src.into(), &group_cols, &specs, guard, stats, config)?;
    Ok(derived.sorted_by(&(0..to.arity()).collect::<Vec<_>>()))
}

/// Materialize the `roots` and `needed` totals levels of `queries` (one
/// table, the same extras) from the lattice cache (`cache`, with the name
/// it knows the fact table by), one fused scan of `F` for whatever nothing
/// cached covers, and re-aggregation for the rest. Every table computed
/// here is stored (back) in the cache. `span`, the request's `levels`,
/// closes with the plan: a request every level of which is cached ends
/// there, and each scan or re-aggregation after it opens its own.
fn materialize_levels(
    cache: Option<(&LatticeCache, &str)>,
    fact: &Fact,
    queries: &[VpctQuery],
    (roots, needed, lanes): (&[Level], &[Level], &Lanes<'_>),
    (guard, span): (&ResourceGuard, SpanHandle),
    stats: &mut ExecStats,
) -> Result<LevelTables> {
    let mut tables = LevelTables::default();
    let steps = plan_request(cache, lanes, (roots, needed), Some(&mut tables));
    stats.lattice_levels += steps.len() as u64;
    let cached = steps
        .iter()
        .filter(|s| s.source == LevelSource::Cached)
        .count();
    stats.levels_from_cache += cached as u64;
    drop(span);
    if cached == steps.len() {
        return Ok(tables);
    }

    let f = fact.read();
    // Resolved before anything is computed, so a bad column fails the same
    // way whatever is cached (a level is only ever cached for good ones).
    let specs = lanes.specs(f.schema())?;
    let mut fact_col: HashMap<String, usize> = HashMap::new();
    for g in queries.iter().flat_map(|q| &q.group_by) {
        let pos = f
            .schema()
            .index_of(g)
            .map_err(|_| CoreError::InvalidQuery(format!("unknown GROUP BY column {g}")))?;
        fact_col.insert(g.to_ascii_lowercase(), pos);
    }
    let keep = |level: &Level, t: Table, tables: &mut LevelTables| {
        let t = Arc::new(t);
        if let Some((cache, key)) = cache {
            let lanes = &lanes.signature[..t.num_columns() - level.arity()];
            cache.store(key, level.columns(), lanes, Arc::clone(&t));
        }
        tables.insert(level.clone(), t);
    };

    // One scan covers every FactTable step, keyed by the union of their
    // columns in normalized order — so each level comes back in the
    // canonical layout already — with the extras only where a result reads
    // them: every lane at a root, the measure sums at a totals level.
    let scanning: Vec<&Level> = steps
        .iter()
        .filter(|s| s.source == LevelSource::FactTable)
        .map(|s| &s.level)
        .collect();
    if !scanning.is_empty() {
        let all: Vec<String> = scanning.iter().flat_map(|l| l.columns()).cloned().collect();
        let key = Level::new(&all);
        let key_cols: Vec<usize> = key.columns().iter().map(|c| fact_col[c]).collect();
        let dims: Vec<Vec<usize>> = scanning
            .iter()
            .map(|l| l.columns().iter().filter_map(|c| key.position(c)).collect())
            .collect();
        let levels: Vec<(&[usize], &[AggSpec])> = (scanning.iter().zip(&dims))
            .map(|(l, dims)| match roots.contains(l) {
                true => (&dims[..], &specs[..]),
                false => (&dims[..], &specs[..lanes.measures.len()]),
            })
            .collect();
        let config = fact.config();
        let scanned = lattice_aggregate(f.selected(), &key_cols, &levels, guard, stats, &config)?;
        stats.levels_from_scan += scanned.len() as u64;
        for (level, t) in scanning.into_iter().zip(scanned) {
            keep(level, t, &mut tables);
        }
    }
    drop(f);

    for step in &steps {
        let from = match &step.source {
            LevelSource::FactTable | LevelSource::Cached => continue,
            LevelSource::Planned(i) => &steps[*i].level,
            LevelSource::CachedAncestor(anc) => {
                stats.levels_from_cache += 1;
                anc
            }
        };
        let (n, config) = (lanes.measures.len(), &fact.config());
        let derived = reaggregate_level(&tables[from], from, &step.level, n, guard, stats, config)?;
        keep(&step.level, derived, &mut tables);
    }
    Ok(tables)
}

/// The `parent` vector of `fk`, the table of level `of`, onto `totals`, the
/// table of the coarser level `by`: for each row of `fk`, the row of
/// `totals` holding its group's total, an inner lookup of `fk`'s `by`
/// columns in a [`HashIndex`] on `totals`' key. It runs once per pair of
/// levels — the lattice cache keeps what it returns beside `fk`.
fn totals_rows(
    (fk, of): (&Table, &Level),
    (totals, by): (&Table, &Level),
) -> pa_storage::Result<Vec<u32>> {
    let position = |c: &String| of.position(c).expect("totals key ⊆ GROUP BY");
    let keys: Vec<usize> = by.columns().iter().map(position).collect();
    let index = HashIndex::build(totals, &(0..keys.len()).collect::<Vec<_>>())?;
    index.lookup(fk, &keys, false)
}

/// Assemble the results of `queries` — one per grouping set, at the `roots`
/// and `totals` levels [`request_levels`] gave them — into one table,
/// shaped `[group_by][one percentage per term][extras]`, each set's rows in
/// turn. Every column is sized once and written set after set: a level's
/// key or extra column copied as it is, a dimension the set rolled away a
/// run of NULLs (the Data Cube "ALL") — the `keys` span — and one
/// [`percentage`] per term through the `parent` vector `cache` keeps beside
/// the level, divided into its place (the `divide` span). Aggregate names
/// come from the first set: generated `Vpct` names embed the BY list.
fn assemble(
    (tables, lanes): (&LevelTables, &Lanes<'_>),
    cache: Option<(&LatticeCache, &str)>,
    group_by: &[String],
    (queries, roots, totals): (&[VpctQuery], &[Level], &[Vec<Level>]),
    guard: &ResourceGuard,
    stats: &mut ExecStats,
) -> Result<SharedTable> {
    let mut span = guard.span("keys");
    let roots = &roots[..queries.len()];
    let fks: Vec<&Arc<Table>> = roots.iter().map(|level| &tables[level]).collect();
    let mut fields: Vec<Field> = Vec::new();
    for g in group_by {
        let typed = |(level, fk): (&Level, &&Arc<Table>)| {
            level.position(g).map(|p| fk.schema().field_at(p).dtype)
        };
        let dtype = roots.iter().zip(&fks).find_map(typed).ok_or_else(|| {
            let set = "appears in no evaluable grouping set";
            CoreError::InvalidQuery(format!("GROUP BY column {g} {set}"))
        })?;
        fields.push(Field::new(g.clone(), dtype));
    }
    let first = &queries[0];
    let extras_at = |level: &Level| level.arity() + lanes.measures.len();
    let pct = |t: &crate::query::VpctTerm| Field::new(t.name.clone(), DataType::Float);
    fields.extend(first.terms.iter().map(pct));
    for (e, extra) in first.extra.iter().enumerate() {
        let dtype = fks[0].schema().field_at(extras_at(&roots[0]) + e).dtype;
        fields.push(Field::new(extra.name.clone(), dtype));
    }
    let rows = fks.iter().map(|fk| fk.num_rows()).sum();
    let mut out: Vec<Column> = (fields.iter())
        .map(|f| Column::with_capacity(f.dtype, rows))
        .collect();
    let (dims, aggs) = out.split_at_mut(group_by.len());
    let (pcts, extras) = aggs.split_at_mut(first.terms.len());
    for (g, col) in group_by.iter().zip(dims) {
        for (level, fk) in roots.iter().zip(&fks) {
            match level.position(g) {
                Some(p) => col.extend_from(fk.column(p))?,
                None => col.push_nulls(fk.num_rows()),
            }
        }
    }
    for (e, col) in extras.iter_mut().enumerate() {
        for (level, fk) in roots.iter().zip(&fks) {
            col.extend_from(fk.column(extras_at(level) + e))?;
        }
    }
    span.add_morsels(queries.len() as u64);
    drop(span);

    let mut span = guard.span("divide");
    for (((q, level), totals), fk) in queries.iter().zip(roots).zip(totals).zip(&fks) {
        // The set's rows, once per term, before any of them is divided.
        let charged = (fk.num_rows() * q.terms.len()) as u64;
        guard.charge(charged)?;
        span.add_rows(charged);
        span.add_morsels(1);
        for ((term, by), col) in q.terms.iter().zip(totals).zip(pcts.iter_mut()) {
            let totals = &tables[by];
            let build = || totals_rows((fk, level), (totals, by));
            let parent = match cache {
                Some((cache, key)) => {
                    cache.parent(key, level.columns(), fk, by.columns(), build)?
                }
                None => build()?.into(),
            };
            let lane = lanes.lane_of(&term.measure);
            let sums = fk.column(level.arity() + lane);
            let total = totals.column(by.arity() + lane);
            percentage(sums, total, &parent, col, stats);
        }
    }
    drop(span);
    let fv = Table::from_columns(Schema::new(fields)?.into_shared(), out)?;
    count_insert(&fv, stats);
    Ok(into_shared(fv))
}

/// Evaluate a multi-term vertical percentage query on the dimension
/// lattice: cached levels from the lattice catalog, every other level from
/// one fused scan of `F` or a re-aggregation, then one column-wise divide
/// per term, every aggregate metered by `guard`. Produces the same rows as
/// [`crate::eval_vpct`]; identical totals levels across terms are
/// materialized once, and every level stays cached for later queries. The
/// lattice plan stores no table, so `_prefix` names nothing.
pub fn eval_vpct_lattice_guarded(
    catalog: &Catalog,
    q: &VpctQuery,
    _prefix: &str,
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    eval_vpct_lattice_on(catalog, &Fact::named(catalog, &q.table)?, q, guard)
}

/// [`eval_vpct_lattice_guarded`] over an already resolved fact table.
pub(crate) fn eval_vpct_lattice_on(
    catalog: &Catalog,
    fact: &Fact,
    q: &VpctQuery,
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    eval_vpct_sets_on(catalog, fact, &q.group_by, std::slice::from_ref(q), guard)
}

/// Evaluate every grouping set of one statement — `queries`, one per set,
/// over the same table with the same terms and extras — as **one** lattice
/// plan: each level is fetched or computed once for the whole statement,
/// and the sets' rows land in a single table (`FGS`), shaped
/// `[group_by][aggregates]` with NULL in every dimension a set rolled away.
pub(crate) fn eval_vpct_sets_on(
    catalog: &Catalog,
    fact: &Fact,
    group_by: &[String],
    queries: &[VpctQuery],
    guard: &ResourceGuard,
) -> Result<QueryResult> {
    let first = queries
        .first()
        .ok_or_else(|| CoreError::InvalidQuery("statement has no evaluable grouping set".into()))?;
    let span = guard.span("levels");
    for q in queries {
        q.validate()?;
        let same = q.table == first.table && q.extra == first.extra;
        if !same || q.terms.len() != first.terms.len() {
            return Err(CoreError::Unsupported(
                "grouping sets must share the fact table and the aggregate list".into(),
            ));
        }
    }
    let mut stats = ExecStats::default();
    let lanes = Lanes::of(queries);
    let cache = fact.cache_key().map(|key| (catalog.lattice_cache(), key));
    let (roots, totals) = request_levels(queries);
    let request = (&roots[..], &totals.concat()[..], &lanes);
    let tables = materialize_levels(cache, fact, queries, request, (guard, span), &mut stats)?;
    let sets = (queries, &roots[..], &totals[..]);
    let table = assemble((&tables, &lanes), cache, group_by, sets, guard, &mut stats)?;
    Ok(QueryResult { table, stats })
}

/// Render the lattice plan `queries` — one query, or the grouping sets of
/// one statement — would execute with right now: one line per level, naming
/// the chosen source, for EXPLAIN output. `cache_table` is the table name
/// the execution path will key the lattice cache with (the pinned snapshot
/// alias when the executor runs the query, so EXPLAIN and execution agree
/// on cache visibility) — `None` for a statement with a `WHERE`, whose
/// levels are never cached. Probing never perturbs the cache's hit/miss
/// counters.
pub fn lattice_plan_lines(
    catalog: &Catalog,
    queries: &[VpctQuery],
    cache_table: Option<&str>,
) -> Vec<String> {
    if queries.is_empty() {
        return Vec::new();
    }
    let lanes = Lanes::of(queries);
    let (roots, totals) = request_levels(queries);
    let needed = totals.concat();
    let cache = cache_table.map(|table| (catalog.lattice_cache(), table));
    let steps = plan_request(cache, &lanes, (&roots, &needed), None);
    steps
        .iter()
        .map(|step| {
            let source = match &step.source {
                LevelSource::FactTable => "scan".to_string(),
                LevelSource::Planned(i) => {
                    format!("projected-from {}", steps[*i].level.render())
                }
                LevelSource::Cached => "cache".to_string(),
                LevelSource::CachedAncestor(anc) => {
                    format!("cache (re-aggregated from {})", anc.render())
                }
            };
            format!("-- lattice: level {} <- {}", step.level.render(), source)
        })
        .collect()
}

/// Evaluate a batch of percentage queries against the same fact table with
/// one **shared summary**: the level at the union of every query's GROUP
/// BY (SIGMOD §6 future work). The
/// summary, each query's grouping level and every totals level are one
/// lattice plan — a single fused scan of `F` when cold, cached levels
/// after — so a repeat batch (or one a cached level covers) never rescans
/// the fact table. Queries must share the table and carry no extra
/// aggregate terms. Results are returned in input order; the batch stores
/// no table, so `_prefix` names nothing.
pub fn eval_vpct_batch(
    catalog: &Catalog,
    queries: &[VpctQuery],
    _prefix: &str,
) -> Result<Vec<QueryResult>> {
    let Some(first) = queries.first() else {
        return Ok(Vec::new());
    };
    let fact = Fact::named(catalog, &first.table)?;
    eval_vpct_batch_on(catalog, &fact, queries, &ResourceGuard::unlimited())
}

/// [`eval_vpct_batch`] of a non-empty batch over its already resolved fact
/// table, under a [`ResourceGuard`] shared across the whole batch: the
/// summary scan and every per-query evaluation draw from the same row
/// budget.
pub(crate) fn eval_vpct_batch_on(
    catalog: &Catalog,
    fact: &Fact,
    queries: &[VpctQuery],
    guard: &ResourceGuard,
) -> Result<Vec<QueryResult>> {
    let first = &queries[0];
    for q in queries {
        q.validate()?;
        if q.table != first.table {
            return Err(CoreError::Unsupported(
                "batched queries must target the same fact table".into(),
            ));
        }
        if !q.extra.is_empty() {
            return Err(CoreError::Unsupported(
                "batched evaluation supports percentage terms only".into(),
            ));
        }
    }
    let span = guard.span("levels");
    let all: Vec<String> = queries.iter().flat_map(|q| &q.group_by).cloned().collect();
    let union_level = Level::new(&all);
    let lanes = Lanes::of(queries);
    let mut summary = ExecStats::default();
    let cache = fact.cache_key().map(|key| (catalog.lattice_cache(), key));
    let (mut roots, totals) = request_levels(queries);
    roots.push(union_level.clone());
    let request = (&roots[..], &totals.concat()[..], &lanes);
    let tables = materialize_levels(cache, fact, queries, request, (guard, span), &mut summary)?;
    count_insert(&tables[&union_level], &mut summary);

    let mut out = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        // The shared-summary cost is folded into the first result.
        let mut stats = std::mem::take(&mut summary);
        let set = (&queries[i..=i], &roots[i..=i], &totals[i..=i]);
        let table = assemble(
            (&tables, &lanes),
            cache,
            &q.group_by,
            set,
            guard,
            &mut stats,
        )?;
        out.push(QueryResult { table, stats });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::VpctTerm;
    use crate::strategy::VpctStrategy;
    use crate::vertical::eval_vpct;
    use crate::vertical::tests::sales_catalog;
    use pa_storage::Value;

    fn level(cols: &[&str]) -> Level {
        Level::new(&cols.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn level_normalization_and_subset() {
        let a = level(&["B", "a"]);
        assert_eq!(a.columns(), &["a".to_string(), "b".to_string()]);
        assert!(level(&["a"]).subset_of(&a));
        assert!(!a.subset_of(&level(&["a"])));
        assert!(level(&[]).subset_of(&a));
        assert_eq!(level(&["a", "a"]).arity(), 1);
    }

    /// The plan with nothing cached.
    fn plan_cold(root: &Level, needed: &[Level]) -> Vec<LevelStep> {
        plan_levels_cached(std::slice::from_ref(root), needed, &[], true)
    }

    #[test]
    fn plan_chains_nested_levels() {
        // Root {a,b,c,d}; needed {a,b,c}, {a,b}, {a}: each from the previous.
        let root = level(&["a", "b", "c", "d"]);
        let needed = vec![level(&["a"]), level(&["a", "b", "c"]), level(&["a", "b"])];
        let steps = plan_cold(&root, &needed);
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].level, level(&["a", "b", "c"]));
        assert_eq!(steps[1].source, LevelSource::Planned(0));
        assert_eq!(steps[2].level, level(&["a", "b"]));
        assert_eq!(steps[2].source, LevelSource::Planned(1), "minimal ancestor");
        assert_eq!(steps[3].source, LevelSource::Planned(2));
    }

    #[test]
    fn plan_deduplicates_levels() {
        let root = level(&["a", "b"]);
        let needed = vec![level(&["a"]), level(&["a"]), root.clone()];
        let steps = plan_cold(&root, &needed);
        assert_eq!(steps.len(), 2, "duplicate + root folded away");
    }

    #[test]
    fn plan_incomparable_levels_both_read_root() {
        let root = level(&["a", "b"]);
        let needed = vec![level(&["a"]), level(&["b"])];
        let steps = plan_cold(&root, &needed);
        assert_eq!(steps[1].source, LevelSource::Planned(0));
        assert_eq!(steps[2].source, LevelSource::Planned(0));
    }

    #[test]
    fn plan_cached_prefers_cached_partial_over_smaller_planned_ancestor() {
        // Satellite: a cached finer partial must beat a smaller-but-uncached
        // materialized ancestor — the per-source cost constant decides, not
        // arity.
        let root = level(&["a", "b", "c", "d"]);
        let cached = vec![root.clone(), level(&["a", "b", "c"])];
        let needed = vec![level(&["a", "b"]), level(&["a"])];
        let steps = plan_levels_cached(std::slice::from_ref(&root), &needed, &cached, true);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(
            steps[1].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        // {a}: the freshly planned {a,b} (arity 2) is smaller than the
        // cached {a,b,c} (arity 3), yet the cached partial wins the tie.
        assert_eq!(steps[2].level, level(&["a"]));
        assert_eq!(
            steps[2].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        assert!(
            LevelSource::CachedAncestor(level(&["x"])).cost() < LevelSource::Planned(0).cost(),
            "cost constants encode the preference"
        );
    }

    #[test]
    fn plan_cached_exact_hit_beats_every_ancestor() {
        let root = level(&["a", "b"]);
        let cached = vec![root.clone(), level(&["a"])];
        let steps =
            plan_levels_cached(std::slice::from_ref(&root), &[level(&["a"])], &cached, true);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(steps[1].source, LevelSource::Cached);
    }

    #[test]
    fn plan_only_the_root_scans_and_the_rest_derive_bottom_up() {
        let root = level(&["a", "b", "c"]);
        let needed = vec![level(&["a", "b"]), level(&["a"]), level(&[])];
        let steps = plan_cold(&root, &needed);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].source, LevelSource::Planned(0));
        assert_eq!(steps[2].source, LevelSource::Planned(1));
        // The grand total re-aggregates the smallest planned level.
        assert_eq!(steps[3].level, level(&[]));
        assert_eq!(steps[3].source, LevelSource::Planned(2));
    }

    #[test]
    fn plan_exact_cached_level_serves_itself_and_what_it_covers() {
        let root = level(&["a", "b", "c"]);
        let cached = vec![level(&["a", "b"])];
        let needed = [level(&["a", "b"]), level(&["a"]), level(&["c"])];
        let steps = plan_levels_cached(std::slice::from_ref(&root), &needed, &cached, true);
        assert_eq!(steps[0].source, LevelSource::FactTable);
        assert_eq!(steps[1].level, level(&["a", "b"]));
        assert_eq!(steps[1].source, LevelSource::Cached);
        assert_eq!(
            steps[2].source,
            LevelSource::CachedAncestor(level(&["a", "b"]))
        );
        assert_eq!(
            steps[3].source,
            LevelSource::Planned(0),
            "(c) from the root"
        );
    }

    #[test]
    fn plan_root_reaggregation_gated_by_extras() {
        let root = level(&["a", "b"]);
        let cached = vec![level(&["a", "b", "c"])];
        let with = plan_levels_cached(std::slice::from_ref(&root), &[], &cached, true);
        assert_eq!(
            with[0].source,
            LevelSource::CachedAncestor(level(&["a", "b", "c"]))
        );
        // Extra aggregates (count(*), avg) cannot re-derive from a coarser
        // projection of an ancestor partial: the root must scan.
        let without = plan_levels_cached(std::slice::from_ref(&root), &[], &cached, false);
        assert_eq!(without[0].source, LevelSource::FactTable);
    }

    #[test]
    fn plan_grouping_sets_are_one_plan_with_each_level_once() {
        // ROLLUP (a, b, c) with one term BY c: roots abc, ab, a; totals ab
        // (for abc), then () for the sets the BY column rolled out of.
        let roots = [level(&["a", "b", "c"]), level(&["a", "b"]), level(&["a"])];
        let needed = [level(&["a", "b"]), level(&[]), level(&[])];
        let steps = plan_levels_cached(&roots, &needed, &[], true);
        let planned: Vec<_> = steps.iter().map(|s| s.level.clone()).collect();
        assert_eq!(planned, [roots.to_vec(), vec![level(&[])]].concat());
        let sources: Vec<_> = steps.iter().map(|s| s.source.clone()).collect();
        let bottom_up = [
            LevelSource::FactTable,
            LevelSource::Planned(0),
            LevelSource::Planned(1),
            LevelSource::Planned(2),
        ];
        assert_eq!(sources, bottom_up);
        // Under extras no root may re-aggregate: all three ride one scan.
        let steps = plan_levels_cached(&roots, &needed, &[], false);
        let riding = |s: &LevelStep| s.source == LevelSource::FactTable;
        assert!(steps[..3].iter().all(riding));
        assert_eq!(steps[3].source, LevelSource::Planned(2), "() from (a)");
        // Sets no single set covers share the scan too: nothing is a
        // planned ancestor of either, so both read the fact table.
        let disjoint = [level(&["a", "b"]), level(&["c"])];
        let steps = plan_levels_cached(&disjoint, &[], &[], true);
        assert!(steps.iter().all(riding));
    }

    #[test]
    fn plan_roots_under_extras_scan_unless_cached_exactly() {
        let roots = [level(&["a", "b"]), level(&["a"])];
        let cached = [level(&["a", "b"])];
        // Without extras (a) re-aggregates the cached (a, b)...
        let steps = plan_levels_cached(&roots, &[level(&[])], &cached, true);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(
            steps[1].source,
            LevelSource::CachedAncestor(level(&["a", "b"]))
        );
        // ...with extras it must scan, alone; the totals level () only
        // needs sums and still derives from the cached level.
        let steps = plan_levels_cached(&roots, &[level(&[])], &cached, false);
        assert_eq!(steps[0].source, LevelSource::Cached);
        assert_eq!(steps[1].source, LevelSource::FactTable);
        assert_eq!(
            steps[2].source,
            LevelSource::CachedAncestor(level(&["a", "b"]))
        );
    }

    #[test]
    fn lattice_matches_reference_on_multi_term_query() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_").unwrap();
        let lattice =
            eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lattice_shares_duplicate_totals_levels() {
        // Two terms with the same BY list: the totals level is computed once.
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![VpctTerm::new("salesAmt", &["city"]), {
                let mut t = VpctTerm::new("salesAmt", &["city"]);
                t.name = "second_copy".into();
                t
            }],
            extra: vec![],
        };
        let per_term = eval_vpct(&catalog, &q, &VpctStrategy::best(), "p_").unwrap();
        let lattice =
            eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        let a: Vec<Vec<Value>> = per_term.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
        assert!(
            lattice.stats.rows_scanned < per_term.stats.rows_scanned,
            "lattice {} vs per-term {}",
            lattice.stats.rows_scanned,
            per_term.stats.rows_scanned
        );
    }

    #[test]
    fn lattice_counters_track_scan_and_cache() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        // Totals levels: BY city → {state}; BY state,city → {} (the grand
        // total). Three levels in all: the root scans, {state} re-aggregates
        // it, {} re-aggregates {state}.
        let cold =
            eval_vpct_lattice_guarded(&catalog, &q, "c_", &ResourceGuard::unlimited()).unwrap();
        assert_eq!(cold.stats.lattice_levels, 3);
        assert_eq!(cold.stats.levels_from_scan, 1, "the root");
        assert_eq!(cold.stats.levels_from_cache, 0);
        let warm =
            eval_vpct_lattice_guarded(&catalog, &q, "w_", &ResourceGuard::unlimited()).unwrap();
        assert_eq!(warm.stats.levels_from_scan, 0, "no rescan when cached");
        assert_eq!(
            warm.stats.levels_from_cache, 3,
            "the scanned root plus the two stored-back totals levels"
        );
        let a: Vec<Vec<Value>> = cold.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = warm.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b, "cache-warm result identical to cache-cold");
    }

    #[test]
    fn coarser_query_reuses_cached_finer_partial() {
        let catalog = sales_catalog();
        // Fine query caches {state,city} and {state}. Lane names play no
        // part in the signature, so the coarse query below shares them.
        let fine_term = VpctTerm::new("salesAmt", &["city"]);
        let fine = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![fine_term],
            extra: vec![],
        };
        eval_vpct_lattice_guarded(&catalog, &fine, "f_", &ResourceGuard::unlimited()).unwrap();
        // Coarse query at {city}: not cached exactly, but {city} ⊂ the
        // cached {city,state} partial — served by re-aggregating it, never
        // rescanning the fact table.
        let mut coarse_term = VpctTerm::new("salesAmt", &[]);
        coarse_term.name = "p".into();
        let coarse = VpctQuery {
            table: "sales".into(),
            group_by: vec!["city".into()],
            terms: vec![coarse_term],
            extra: vec![],
        };
        let result =
            eval_vpct_lattice_guarded(&catalog, &coarse, "g_", &ResourceGuard::unlimited())
                .unwrap();
        assert_eq!(result.stats.levels_from_scan, 0, "no fact scan");
        assert!(result.stats.levels_from_cache > 0);
        // Against the direct reference.
        let mut ref_term = VpctTerm::new("salesAmt", &[]);
        ref_term.name = "p".into();
        let reference = eval_vpct(
            &catalog,
            &VpctQuery {
                table: "sales".into(),
                group_by: vec!["city".into()],
                terms: vec![ref_term],
                extra: vec![],
            },
            &VpctStrategy::best(),
            "r_",
        )
        .unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0]).rows().collect();
        let b: Vec<Vec<Value>> = result.snapshot().sorted_by(&[0]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn explain_lines_name_sources_and_flip_to_cache() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![
                VpctTerm::new("salesAmt", &["city"]),
                VpctTerm::new("salesAmt", &["state", "city"]),
            ],
            extra: vec![],
        };
        let cold = lattice_plan_lines(&catalog, std::slice::from_ref(&q), Some("sales"));
        assert_eq!(
            cold,
            vec![
                "-- lattice: level (city, state) <- scan",
                "-- lattice: level (state) <- projected-from (city, state)",
                "-- lattice: level () <- projected-from (state)",
            ]
        );
        let before = catalog.lattice_cache().stats();
        eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        let warm = lattice_plan_lines(&catalog, std::slice::from_ref(&q), Some("sales"));
        assert_eq!(
            warm,
            vec![
                "-- lattice: level (city, state) <- cache",
                "-- lattice: level (state) <- cache",
                "-- lattice: level () <- cache",
            ]
        );
        // EXPLAIN probes never count as hits or misses.
        let after = catalog.lattice_cache().stats();
        assert_eq!(after.hits, before.hits);
    }

    #[test]
    fn batch_shares_one_summary() {
        let catalog = sales_catalog();
        let q1 = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let q2 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let results = eval_vpct_batch(&catalog, &[q1.clone(), q2.clone()], "b_").unwrap();
        assert_eq!(results.len(), 2);
        // Batched results equal per-query evaluation.
        for (q, r) in [(q1, &results[0]), (q2, &results[1])] {
            let solo = eval_vpct(&catalog, &q, &VpctStrategy::best(), "s_").unwrap();
            let a: Vec<Vec<Value>> = solo.snapshot().sorted_by(&[0, 1]).rows().collect();
            let b: Vec<Vec<Value>> = r.snapshot().sorted_by(&[0, 1]).rows().collect();
            assert_eq!(a, b, "{}", q.terms[0].name);
        }
        // The shared summary is one counted INSERT, held as a value.
        assert!(results[0].stats.rows_materialized >= 4);
        assert_eq!(catalog.table_names(), ["sales"]);
    }

    #[test]
    fn batch_summary_served_from_cache_on_repeat() {
        let catalog = sales_catalog();
        let qs = [
            VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]),
            VpctQuery::single("sales", &["state"], "salesAmt", &[]),
        ];
        let first = eval_vpct_batch(&catalog, &qs, "b1_").unwrap();
        assert!(first[0].stats.levels_from_scan > 0);
        let second = eval_vpct_batch(&catalog, &qs, "b2_").unwrap();
        assert!(second[0].stats.levels_from_cache > 0, "summary from cache");
        assert_eq!(second[0].stats.levels_from_scan, 0);
        for (a, b) in first.iter().zip(&second) {
            let x: Vec<Vec<Value>> = a.snapshot().sorted_by(&[0]).rows().collect();
            let y: Vec<Vec<Value>> = b.snapshot().sorted_by(&[0]).rows().collect();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn batch_rejects_mixed_tables_and_extras() {
        let catalog = sales_catalog();
        let q1 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let mut q2 = q1.clone();
        q2.table = "other".into();
        assert!(matches!(
            eval_vpct_batch(&catalog, &[q1.clone(), q2], "x_"),
            Err(CoreError::Unsupported(_))
        ));
        let mut q3 = q1.clone();
        q3.extra.push(crate::query::ExtraAgg::count_star("n"));
        assert!(matches!(
            eval_vpct_batch(&catalog, &[q3], "x_"),
            Err(CoreError::Unsupported(_))
        ));
        assert!(eval_vpct_batch(&catalog, &[], "x_").unwrap().is_empty());
    }

    #[test]
    fn single_term_lattice_equals_reference() {
        let catalog = sales_catalog();
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_").unwrap();
        let lattice =
            eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn totals_are_found_by_hash_when_the_key_space_is_wide() {
        // Account ids a billion apart and a float dimension: neither fits a
        // mixed-radix table, so the totals rows are hashed by fragment —
        // NULL keys included.
        let schema = Schema::from_pairs(&[
            ("acct", DataType::Int),
            ("rate", DataType::Float),
            ("kind", DataType::Str),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..240i64 {
            let acct = match i % 4 {
                0 => Value::Null,
                k => Value::Int(k * 1_000_000_007),
            };
            let rate = Value::Float(0.25 * (i % 3) as f64);
            let kind = Value::str(["a", "b", "c", "d", "e"][(i % 5) as usize]);
            t.push_row(&[acct, rate, kind, Value::Float((i % 17) as f64)])
                .unwrap();
        }
        let catalog = Catalog::new();
        catalog.create_table("f", t).unwrap();
        let q = VpctQuery {
            table: "f".into(),
            group_by: vec!["acct".into(), "rate".into(), "kind".into()],
            terms: vec![
                VpctTerm::new("amt", &["kind"]),
                VpctTerm::new("amt", &["acct", "kind"]),
                VpctTerm::new("amt", &["rate"]),
            ],
            extra: vec![],
        };
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_").unwrap();
        let lattice =
            eval_vpct_lattice_guarded(&catalog, &q, "l_", &ResourceGuard::unlimited()).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1, 2]).rows().collect();
        let b: Vec<Vec<Value>> = lattice.snapshot().sorted_by(&[0, 1, 2]).rows().collect();
        assert_eq!(a.len(), 4 * 3 * 5);
        assert_eq!(a, b);
    }

    #[test]
    fn lattice_handles_global_totals_term() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into()],
            terms: vec![VpctTerm::new("salesAmt", &[])],
            extra: vec![],
        };
        let result =
            eval_vpct_lattice_guarded(&catalog, &q, "g_", &ResourceGuard::unlimited()).unwrap();
        let t = result.snapshot().sorted_by(&[0]);
        assert_eq!(t.get(0, 1), Value::Float(106.0 / 255.0));
        assert_eq!(t.get(1, 1), Value::Float(149.0 / 255.0));
    }

    #[test]
    fn lattice_handles_extras_and_caches_them() {
        let catalog = sales_catalog();
        let q = VpctQuery {
            table: "sales".into(),
            group_by: vec!["state".into(), "city".into()],
            terms: vec![VpctTerm::new("salesAmt", &["city"])],
            extra: vec![crate::query::ExtraAgg::count_star("n")],
        };
        let reference = eval_vpct(&catalog, &q, &VpctStrategy::best(), "r_").unwrap();
        let cold =
            eval_vpct_lattice_guarded(&catalog, &q, "c_", &ResourceGuard::unlimited()).unwrap();
        let a: Vec<Vec<Value>> = reference.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = cold.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
        // The exact root partial (terms + extras lanes) is cacheable even
        // though re-aggregating extras from an ancestor is not.
        let warm =
            eval_vpct_lattice_guarded(&catalog, &q, "w_", &ResourceGuard::unlimited()).unwrap();
        assert!(warm.stats.levels_from_cache > 0);
        assert_eq!(warm.stats.levels_from_scan, 0);
        let c: Vec<Vec<Value>> = warm.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, c);
    }
}
