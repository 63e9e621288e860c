//! High-level facade: the percentage-query engine.
//!
//! [`PercentageEngine`] ties the pieces together — plan SQL text once (or
//! take typed queries), pick a strategy (explicitly or via the heuristic
//! optimizer), resolve the fact table once, and evaluate. Every entry point
//! is an argument adapter over one boundary (`run`) and, for SQL text, one
//! statement body (`run_statement`) over the text's shared plan
//! (`prepare`).

use crate::error::{CoreError, Result};
use crate::horizontal::{eval_horizontal_on, eval_horizontal_request, HorizontalResult, Shape};
use crate::lattice::{eval_request, eval_vpct_batch_on, lattice_plan_lines, Request};
use crate::missing::{postprocess_pad, preprocess_pad, MissingRows};
use crate::olap::eval_vpct_olap_on;
use crate::optimizer::{
    choose_horizontal_strategy, choose_vpct_strategy, horizontal_strategy_over,
};
use crate::query::{from_sql, per_set_statements, Fact, HorizontalQuery, Query, VpctQuery};
use crate::strategy::{HorizontalOptions, VpctStrategy};
use crate::vertical::{eval_vpct_on, into_shared, QueryResult};
use pa_engine::{Clock, Deadline, ExecStats, ParallelConfig, ResourceGuard, TraceReport, Tracer};
use pa_sql::SelectStmt;
use pa_storage::{Catalog, Change, Column, Field, FxHashMap, FxHashSet, Rows, Schema, Table};
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Name prefix of the only table a percentage plan stores: the `Fk` an
/// `Update` plan updates in place, registered while that plan runs.
const STORED_PREFIX: &str = "tmp_";

/// Explicit strategy knobs for each family (`execute_sql_with`); a family
/// without its knob runs as `execute_sql` runs it.
type Knobs<'k> = (Option<&'k VpctStrategy>, Option<&'k HorizontalOptions>);

/// Most statement texts an engine's plan cache holds (shared by the
/// engine's clones).
pub const PLAN_CACHE_ENTRIES: usize = 1024;

/// Most bytes of statement text an engine's plan cache holds. A longer
/// text is planned on every call.
pub const PLAN_CACHE_BYTES: usize = 1 << 20;

/// A statement planned from its text alone, shared by every execution of
/// that text: the validated statement and its typed form — for a `Vpct`
/// statement its lattice request, for a horizontal one its typed query, one
/// per grouping set under `ROLLUP` / `CUBE` / `GROUPING SETS`.
/// Parsing, typing and lowering read no catalog — every name is resolved
/// against the table an execution pins — so no write, drop or re-creation
/// of a table makes a plan stale, and none is ever invalidated. What
/// depends on the data (the horizontal CASE source, the vertical strategy,
/// which levels the cache holds) is chosen per execution.
struct Prepared {
    stmt: SelectStmt,
    typed: Typed,
}

/// A statement's typed form.
enum Typed {
    /// A flat `Hpct` / `Hagg` statement.
    Horizontal(Horizontal),
    /// A horizontal grouping-set statement: one query per set, in set
    /// order.
    Sets(Vec<Horizontal>),
    /// A `Vpct` statement, flat or with grouping sets, one term or many,
    /// lowered to the request it runs without strategy knobs. The request
    /// holds its queries: the flat statement's one, or one per grouping set
    /// in set order, the empty set skipped (its grand total is 100% by
    /// definition).
    Lattice(Request),
}

/// A horizontal query, the lattice request it runs without strategy knobs
/// (none when a lane is holistic: it keeps the CASE producer), and the
/// names and schema the request last gave its result, which hold while the
/// combination sets it reads do.
struct Horizontal {
    query: HorizontalQuery,
    request: Option<Request>,
    shapes: Shapes,
}

impl Horizontal {
    fn new(query: HorizontalQuery) -> Horizontal {
        let request = Request::horizontal(&query);
        let shapes = Shapes::default();
        Horizontal {
            query,
            request,
            shapes,
        }
    }

    /// The request a knob-less run over `fact` executes: when `fact` has a
    /// cache key (no `WHERE`) and a level from any path holds a scan's bits
    /// ([`Request::holds_scan_bits`]); `None` runs the CASE producer.
    fn request_over(&self, fact: &Fact) -> Option<&Request> {
        let runs = |r: &&Request| fact.cache_key().is_some() && r.holds_scan_bits(fact);
        self.request.as_ref().filter(runs)
    }
}

/// The names and schema ([`Shape`]) a prepared horizontal statement's
/// request last gave its result: an execution they still fit — the same
/// combination sets, the same column types — takes them as they are, so a
/// warm statement names no column and builds no schema.
#[derive(Debug, Default)]
pub(crate) struct Shapes(Mutex<Option<Arc<Shape>>>);

impl Shapes {
    /// The shape held when it `fits`, else what `derive` makes, held from
    /// now on.
    pub(crate) fn get(
        &self,
        fits: impl FnOnce(&Shape) -> bool,
        derive: impl FnOnce() -> Result<Arc<Shape>>,
    ) -> Result<Arc<Shape>> {
        let mut held = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shape) = held.as_ref().filter(|shape| fits(shape)) {
            return Ok(Arc::clone(shape));
        }
        let shape = derive()?;
        *held = Some(Arc::clone(&shape));
        Ok(shape)
    }
}

impl Prepared {
    fn new(stmt: SelectStmt) -> Result<Prepared> {
        let typed = if stmt.grouping.is_flat() {
            match from_sql(&stmt)? {
                Query::Vertical(q) => Typed::Lattice(Request::new(vec![q])?),
                Query::Horizontal(q) => Typed::Horizontal(Horizontal::new(q)),
            }
        } else {
            let (mut vertical, mut horizontal) = (Vec::new(), Vec::new());
            for (_, flat) in per_set_statements(&stmt)? {
                match flat.as_ref().map(from_sql).transpose()? {
                    Some(Query::Vertical(q)) => vertical.push(q),
                    Some(Query::Horizontal(q)) => horizontal.push(Horizontal::new(q)),
                    None => {}
                }
            }
            match horizontal.is_empty() {
                true => Typed::Lattice(Request::new(vertical)?),
                false => Typed::Sets(horizontal),
            }
        };
        Ok(Prepared { stmt, typed })
    }
}

/// What an engine's plan cache has done
/// ([`PercentageEngine::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Statements that found their text's plan in the cache.
    pub hits: u64,
    /// Statements whose text was parsed and planned — those that failed
    /// to plan included.
    pub misses: u64,
    /// Plans held.
    pub entries: usize,
    /// Bytes of statement text held.
    pub bytes: usize,
}

/// The plans an engine and its clones share, by exact statement text,
/// bounded by [`PLAN_CACHE_ENTRIES`] and [`PLAN_CACHE_BYTES`]. A full cache
/// admits a text the second time it is planned, so a text that never
/// repeats costs its own planning and never another statement's plan
/// (freeing a plan that has gone cold costs about what planning does). It
/// makes room by the clock rule: the oldest plan goes, unless a statement
/// used it since it last came round, which buys it one more round.
#[derive(Default)]
struct PlanCache(Mutex<Plans>);

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PlanCache").field(&self.stats()).finish()
    }
}

#[derive(Default)]
struct Plans {
    /// Each plan, and whether a statement used it since the hand passed.
    map: FxHashMap<Arc<str>, (Arc<Prepared>, bool)>,
    /// Every key, oldest first: the clock's hand reads the front.
    ring: VecDeque<Arc<str>>,
    /// Hashes of the texts a full cache planned once and turned away (at
    /// most [`PLAN_CACHE_ENTRIES`]; emptied when full).
    seen: FxHashSet<u64>,
    stats: PlanCacheStats,
}

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, Plans> {
        // Held only for map bookkeeping, never across user code.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan of `sql`, counting the lookup as a hit or a miss.
    fn get(&self, sql: &str) -> Option<Arc<Prepared>> {
        let mut plans = self.lock();
        let plans = &mut *plans;
        match plans.map.get_mut(sql) {
            Some((plan, used)) => {
                *used = true;
                plans.stats.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                plans.stats.misses += 1;
                None
            }
        }
    }

    /// Keep `plan` as the plan of `sql` — in a full cache only if `sql`
    /// was turned away before — evicting by the clock rule until both
    /// bounds hold.
    fn insert(&self, sql: &str, plan: &Arc<Prepared>) {
        if sql.len() > PLAN_CACHE_BYTES {
            return;
        }
        let mut plans = self.lock();
        let plans = &mut *plans;
        let full = |plans: &Plans| {
            plans.map.len() >= PLAN_CACHE_ENTRIES
                || plans.stats.bytes + sql.len() > PLAN_CACHE_BYTES
        };
        if plans.map.contains_key(sql) {
            return;
        }
        if full(plans) {
            let hash = plans.map.hasher().hash_one(sql);
            if !plans.seen.remove(&hash) {
                if plans.seen.len() >= PLAN_CACHE_ENTRIES {
                    plans.seen.clear();
                }
                plans.seen.insert(hash);
                return;
            }
        }
        while full(plans) {
            let key = plans.ring.pop_front().expect("a full cache holds a key");
            let (_, used) = plans.map.get_mut(&*key).expect("every key is mapped");
            if std::mem::take(used) {
                plans.ring.push_back(key);
            } else {
                plans.stats.bytes -= key.len();
                plans.map.remove(&*key);
            }
        }
        let key: Arc<str> = Arc::from(sql);
        plans.stats.bytes += key.len();
        plans.ring.push_back(Arc::clone(&key));
        plans.map.insert(key, (Arc::clone(plan), false));
    }

    fn stats(&self) -> PlanCacheStats {
        let plans = self.lock();
        PlanCacheStats {
            entries: plans.map.len(),
            ..plans.stats
        }
    }
}

/// Per-call execution limits, layered over the engine's defaults. The
/// serving layer uses this to apply per-session budgets and deadlines
/// without rebuilding the engine: `Some` overrides the corresponding
/// engine-level limit for one query, `None` inherits it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryLimits {
    /// Row budget for this query (overrides the engine guard's budget).
    pub row_budget: Option<u64>,
    /// Wall-clock allowance for this query, measured on the engine's
    /// clock (overrides the engine-level default deadline).
    pub deadline: Option<Duration>,
}

impl QueryLimits {
    /// No per-call overrides: inherit everything from the engine.
    pub fn none() -> QueryLimits {
        QueryLimits::default()
    }
}

/// Outcome of executing a SQL statement: the family is decided by the
/// validator.
#[derive(Debug)]
pub enum SqlOutcome {
    /// A `Vpct` statement.
    Vertical(QueryResult),
    /// An `Hpct`/`Hagg` statement.
    Horizontal(HorizontalResult),
}

impl SqlOutcome {
    /// The result table regardless of family (single-partition horizontal
    /// results only).
    pub fn table(&self) -> pa_storage::SharedTable {
        match self {
            SqlOutcome::Vertical(r) => r.table.clone(),
            SqlOutcome::Horizontal(r) => r.table(),
        }
    }

    /// Work counters regardless of family.
    pub fn stats(&self) -> pa_engine::ExecStats {
        match self {
            SqlOutcome::Vertical(r) => r.stats,
            SqlOutcome::Horizontal(r) => r.stats,
        }
    }

    /// Mutable work counters — the serving layer records degradation and
    /// abort causes here.
    pub fn stats_mut(&mut self) -> &mut pa_engine::ExecStats {
        match self {
            SqlOutcome::Vertical(r) => &mut r.stats,
            SqlOutcome::Horizontal(r) => &mut r.stats,
        }
    }
}

/// The percentage-query engine over a catalog.
///
/// A query's intermediates (`Fk`, `Fj`, `FV`, `FH`) and its result are
/// values the query owns (a `WHERE` is not even that: it is the selection
/// the query's scans read `F` through): evaluating one registers no table
/// and writes no log record, so any number of engines and threads may
/// query one catalog at once. (The one exception is the paper's `Update`
/// materialization, by definition a logged in-place update of a stored
/// `Fk`; that plan registers its `Fk` while it runs.)
///
/// ```
/// use pa_core::{PercentageEngine, SqlOutcome};
/// use pa_storage::{Catalog, DataType, Schema, Table, Value};
///
/// let catalog = Catalog::new();
/// let schema = Schema::from_pairs(&[("state", DataType::Str), ("amt", DataType::Float)])
///     .unwrap()
///     .into_shared();
/// let mut f = Table::empty(schema);
/// f.push_row(&[Value::str("CA"), Value::Float(30.0)]).unwrap();
/// f.push_row(&[Value::str("TX"), Value::Float(70.0)]).unwrap();
/// catalog.create_table("sales", f).unwrap();
///
/// let engine = PercentageEngine::new(&catalog);
/// let out = engine
///     .execute_sql("SELECT state, Vpct(amt) FROM sales GROUP BY state ORDER BY state;")
///     .unwrap();
/// let table = out.table();
/// let t = table.read();
/// assert_eq!(t.get(0, 1), Value::Float(0.3));
/// assert_eq!(t.get(1, 1), Value::Float(0.7));
/// ```
///
/// What a statement is handed — the catalog, a guard (with whatever rides
/// on it: tracer, fault injector), a clock, a default deadline and a scan
/// configuration — is this value; a clone is a second engine over the same
/// ones, sharing the replica flag and the plans of the statements it ran.
#[derive(Debug, Clone)]
pub struct PercentageEngine<'a> {
    catalog: &'a Catalog,
    guard: ResourceGuard,
    clock: Arc<dyn Clock>,
    deadline: Option<Duration>,
    config: Option<ParallelConfig>,
    read_only: Arc<AtomicBool>,
    plans: Arc<PlanCache>,
}

impl<'a> PercentageEngine<'a> {
    /// Engine over `catalog` with no limits, on the system clock.
    pub fn new(catalog: &'a Catalog) -> PercentageEngine<'a> {
        PercentageEngine {
            catalog,
            guard: ResourceGuard::unlimited(),
            clock: pa_engine::SystemClock::shared(),
            deadline: None,
            config: None,
            read_only: Arc::default(),
            plans: Arc::default(),
        }
    }

    /// Attach a [`ResourceGuard`] metering every query this engine runs.
    /// The row budget applies *per top-level query* — each `execute_sql` /
    /// `vpct` / `horizontal` call runs under a fresh meter derived from this
    /// guard, so a long-lived engine never exhausts its budget across
    /// queries. The attached handle accumulates the total rows charged
    /// (for observability) and cancels all in-flight and future queries.
    /// Clone the guard before attaching to keep a handle for cancellation:
    ///
    /// ```
    /// use pa_core::{PercentageEngine, ResourceGuard};
    /// let catalog = pa_storage::Catalog::new();
    /// let guard = ResourceGuard::with_row_budget(1_000_000);
    /// let engine = PercentageEngine::new(&catalog).with_guard(guard.clone());
    /// // `guard.cancel()` from any thread stops the engine's queries.
    /// ```
    pub fn with_guard(mut self, guard: ResourceGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Default wall-clock deadline for every query this engine runs; each
    /// top-level call gets the full allowance, counted from when the call
    /// starts. Per-call [`QueryLimits`] override it.
    pub fn with_deadline(mut self, allow: Duration) -> Self {
        self.deadline = Some(allow);
        self
    }

    /// Measure deadlines on an injected clock instead of the system
    /// monotonic clock — deterministic deadline tests use
    /// [`pa_engine::TestClock`] here.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The scan configuration of every statement this engine runs, whatever
    /// its family: worker threads, morsel size, the dense-group budget
    /// (`dense_budget: 0` is the hash-tier ablation), vectorized or scalar
    /// kernels, the percentile budget. An engine handed none reads the
    /// deployment's `PA_*` settings ([`ParallelConfig::from_env`]) once per
    /// statement.
    pub fn with_config(mut self, config: ParallelConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The guard metering this engine's queries.
    pub fn guard(&self) -> &ResourceGuard {
        &self.guard
    }

    /// The engine-level default deadline, if any.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The catalog this engine runs against.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Serve as a read-only replica: every DML helper returns
    /// [`CoreError::ReadOnlyReplica`]. Read queries still run: they write
    /// nothing.
    pub fn with_read_only(self) -> Self {
        self.read_only.store(true, Ordering::Relaxed);
        self
    }

    /// Flip replica mode at runtime — failover promotes a replica's engine
    /// to primary by clearing this flag (`&self`: the serving layer shares
    /// the engine across threads).
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::Relaxed);
    }

    /// Whether DML is currently refused.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// The write gate every DML helper passes: replica mode first (typed
    /// core error), then the catalog's split-brain seal (a deposed primary
    /// surfaces [`pa_storage::StorageError::Sealed`]).
    fn ensure_primary(&self) -> Result<()> {
        if self.is_read_only() {
            return Err(CoreError::ReadOnlyReplica);
        }
        self.catalog.ensure_writable()?;
        Ok(())
    }

    /// Append `rows` to `table` through the primary write path: the write
    /// gate, then [`Catalog::write`] (validate, one bulk WAL record, apply,
    /// a checkpoint if the cut policy is due). Returns the table's new row
    /// count.
    pub fn append_rows(&self, table: &str, rows: &[Vec<pa_storage::Value>]) -> Result<u64> {
        self.ensure_primary()?;
        let change = Change::Append(Rows::Values(rows));
        Ok(self.catalog.write(table, change)?.rows)
    }

    /// Update one row's cells in place through the primary write path,
    /// logging before/after images (the expensive per-row WAL path the
    /// paper's UPDATE asymmetry measures).
    pub fn update_cells(
        &self,
        table: &str,
        row: usize,
        cols: &[usize],
        values: &[pa_storage::Value],
    ) -> Result<()> {
        self.ensure_primary()?;
        self.catalog.update_cells(table, row, cols, values)?;
        Ok(())
    }

    /// A fresh tracer on the engine's clock.
    fn tracer(&self) -> Option<Tracer> {
        Some(Tracer::enabled(Arc::clone(&self.clock)))
    }

    /// What the plan cache this engine shares with its clones has done.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The shared plan of statement text `sql`, and whether the cache held
    /// it already — the one place SQL text is parsed. With `explain`, a
    /// leading `EXPLAIN [ANALYZE]` is stripped first, so the wrapped
    /// statement shares the bare one's plan. The text is the key, exactly:
    /// a text that fails to parse or plan is never kept, and returns the
    /// same error on every call.
    fn prepare(&self, sql: &str, explain: bool) -> Result<(Arc<Prepared>, bool)> {
        let text = if explain {
            pa_sql::strip_explain(sql)
        } else {
            sql
        };
        if let Some(plan) = self.plans.get(text) {
            return Ok((plan, true));
        }
        let stmt = match pa_sql::parse(text) {
            Ok(stmt) => stmt,
            // Reported as a parse of the whole text reports it, offsets
            // counted from the wrapper.
            Err(e) if text.len() < sql.len() => {
                return Err(pa_sql::parse_statement(sql).err().unwrap_or(e).into())
            }
            Err(e) => return Err(e.into()),
        };
        let plan = Arc::new(Prepared::new(stmt)?);
        self.plans.insert(text, &plan);
        Ok((plan, false))
    }

    /// The boundary every top-level query runs inside.
    ///
    /// Resolves `table` once — pinned at the current catalog epoch, so the
    /// whole query scans one frozen version while concurrent writers keep
    /// mutating the live table, and the level cache is keyed by the
    /// snapshot's source and version — hands it the engine's scan
    /// configuration, then derives a
    /// per-query guard layering the per-call limits over the engine
    /// defaults and hands both to `eval`. A panic that
    /// escapes the plan becomes [`CoreError::WorkerPanicked`] and cancels
    /// the guard so sibling workers stop. With a `tracer`, the query runs
    /// with a root `query` span open and the tracer riding on the guard, so
    /// every operator underneath records child spans; `detail` is the
    /// root's (a SQL statement's says whether its plan was new or reused).
    /// Returns `eval`'s value, the rows the query charged against its
    /// guard, and the drained trace (a failed query drops its report with
    /// it).
    fn run<T>(
        &self,
        op: &str,
        table: &str,
        limits: QueryLimits,
        (tracer, detail): (Option<Tracer>, Option<&'static str>),
        eval: impl FnOnce(&Fact, &ResourceGuard) -> Result<T>,
    ) -> Result<(T, u64, Option<TraceReport>)> {
        // The pin must outlive the query: dropping it releases the
        // snapshot. `None` for an absent table (the typed not-found error
        // follows) or a name that already is a snapshot alias.
        let (_pin, fact) = Fact::pinned(self.catalog, table)?;
        let fact = fact.configured(self.config);
        let allow = limits.deadline.or(self.deadline);
        let deadline = allow.map(|d| Deadline::with_clock(d, Arc::clone(&self.clock)));
        // (With no limits anywhere the query is still metered, so
        // `rows_charged` reports its cost and a panic can cancel surviving
        // workers.)
        let mut qguard = self.guard.per_query_limited(limits.row_budget, deadline);
        if let Some(t) = &tracer {
            qguard = qguard.with_tracer(t.clone());
        }
        // The root span must open before any operator span and close after
        // the last one, so operator timestamps land inside it.
        let mut root = tracer.as_ref().map(|t| t.span("query"));
        if let (Some(root), Some(detail)) = (&mut root, detail) {
            root.set_detail(detail);
        }
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| eval(&fact, &qguard)))
            .unwrap_or_else(|p| {
                // A panic on the query's own thread (parallel workers catch
                // their own): contain it and stop any surviving workers.
                qguard.cancel();
                Err(CoreError::WorkerPanicked {
                    operator: op.to_string(),
                    payload: pa_engine::error::panic_payload(p),
                })
            });
        drop(root);
        let report = tracer.as_ref().map(Tracer::take_report);
        Ok((out?, qguard.rows_charged(), report))
    }

    /// Evaluate `q` over `fact`: with `strat`, the paper's plan it names,
    /// cold; without, as one lattice request whatever its term count (SIGMOD
    /// §3.1: "partial aggregations need to be computed bottom-up based on
    /// the dimension lattice"), its levels from the cache when it has them.
    fn eval_vertical(
        &self,
        fact: &Fact,
        q: &VpctQuery,
        strat: Option<&VpctStrategy>,
        guard: &ResourceGuard,
    ) -> Result<QueryResult> {
        match strat {
            Some(strat) => eval_vpct_on(self.catalog, fact, q, strat, STORED_PREFIX, guard),
            None => {
                let request = Request::new(vec![q.clone()])?;
                eval_request(self.catalog, fact, &q.group_by, &request, guard)
            }
        }
    }

    /// Evaluate `q` over `fact`: with `opts`, the producer they name, cold;
    /// without, as one lattice request, its levels from the cache when it
    /// has them ([`Horizontal::request_over`]: no `WHERE`, no holistic
    /// lane, no float key, every sum folding exactly) — else with the CASE
    /// producer the optimizer picks for the rows `fact` holds.
    fn eval_horizontal(
        &self,
        fact: &Fact,
        h: &Horizontal,
        opts: Option<&HorizontalOptions>,
        guard: &ResourceGuard,
    ) -> Result<HorizontalResult> {
        let q = &h.query;
        let chosen;
        let opts = match opts {
            Some(o) => o,
            None => match h.request_over(fact) {
                Some(request) => {
                    let statement = (q, request, &h.shapes);
                    return eval_horizontal_request((self.catalog, fact), statement, guard);
                }
                None => {
                    let strategy = horizontal_strategy_over(&fact.read(), q)?;
                    chosen = HorizontalOptions::with_strategy(strategy);
                    &chosen
                }
            },
        };
        eval_horizontal_on(self.catalog, fact, q, opts, guard)
    }

    /// The typed vertical entry points.
    fn run_vertical(
        &self,
        q: &VpctQuery,
        strat: Option<&VpctStrategy>,
        limits: QueryLimits,
        tracer: Option<Tracer>,
    ) -> Result<(QueryResult, Option<TraceReport>)> {
        let eval = |fact: &Fact, guard: &ResourceGuard| self.eval_vertical(fact, q, strat, guard);
        let (mut r, charged, report) = self.run("vpct", &q.table, limits, (tracer, None), eval)?;
        r.stats.rows_charged = charged;
        Ok((r, report))
    }

    /// The typed horizontal entry points.
    fn run_horizontal(
        &self,
        q: &HorizontalQuery,
        opts: Option<&HorizontalOptions>,
        limits: QueryLimits,
        tracer: Option<Tracer>,
    ) -> Result<(HorizontalResult, Option<TraceReport>)> {
        let h = Horizontal::new(q.clone());
        let eval = |fact: &Fact, guard: &ResourceGuard| self.eval_horizontal(fact, &h, opts, guard);
        let traced = (tracer, None);
        let (mut r, charged, report) = self.run("horizontal", &q.table, limits, traced, eval)?;
        r.stats.rows_charged = charged;
        Ok((r, report))
    }

    /// Evaluate a vertical percentage query as one lattice request.
    pub fn vpct(&self, q: &VpctQuery) -> Result<QueryResult> {
        self.vpct_limited(q, QueryLimits::none())
    }

    /// [`PercentageEngine::vpct`] with per-call limits.
    pub fn vpct_limited(&self, q: &VpctQuery, limits: QueryLimits) -> Result<QueryResult> {
        Ok(self.run_vertical(q, None, limits, None)?.0)
    }

    /// Evaluate a vertical percentage query with an explicit strategy.
    pub fn vpct_with(&self, q: &VpctQuery, strat: &VpctStrategy) -> Result<QueryResult> {
        Ok(self
            .run_vertical(q, Some(strat), QueryLimits::none(), None)?
            .0)
    }

    /// Evaluate a vertical query under a per-query tracer, returning the
    /// per-operator [`TraceReport`] alongside the result.
    pub fn vpct_traced(&self, q: &VpctQuery) -> Result<(QueryResult, TraceReport)> {
        let (r, report) = self.run_vertical(q, None, QueryLimits::none(), self.tracer())?;
        Ok((r, report.unwrap_or_default()))
    }

    /// Evaluate a batch of percentage queries with one shared summary
    /// (SIGMOD §6 future work). See [`crate::lattice::eval_vpct_batch`].
    pub fn vpct_batch(&self, queries: &[VpctQuery]) -> Result<Vec<QueryResult>> {
        let Some(first) = queries.first() else {
            return Ok(Vec::new());
        };
        let eval = |fact: &Fact, guard: &ResourceGuard| {
            eval_vpct_batch_on(self.catalog, fact, queries, guard)
        };
        let (mut results, charged, _) = self.run(
            "vpct_batch",
            &first.table,
            QueryLimits::none(),
            (None, None),
            eval,
        )?;
        // The batch meters its shared work on the first result (the one
        // whose stats carry the fused summary pass).
        results[0].stats.rows_charged = charged;
        Ok(results)
    }

    /// Evaluate with explicit strategy and missing-row handling.
    pub fn vpct_with_missing(
        &self,
        q: &VpctQuery,
        strat: &VpctStrategy,
        missing: MissingRows,
    ) -> Result<QueryResult> {
        // PreProcess pads the *live* fact table, so it runs ahead of the
        // pin: the query then reads a snapshot that holds the pad.
        let mut pad = ExecStats::default();
        if missing == MissingRows::PreProcess {
            let live = Fact::named(self.catalog, &q.table)?.configured(self.config);
            preprocess_pad(self.catalog, &live, q, &mut pad)?;
        }
        let eval = |fact: &Fact, guard: &ResourceGuard| {
            let mut result = self.eval_vertical(fact, q, Some(strat), guard)?;
            if missing == MissingRows::PostProcess {
                postprocess_pad(fact, q, &mut result, guard)?;
            }
            Ok(result)
        };
        let (mut r, charged, _) =
            self.run("vpct", &q.table, QueryLimits::none(), (None, None), eval)?;
        r.stats += pad;
        r.stats.rows_charged = charged;
        Ok(r)
    }

    /// Evaluate a vertical percentage query through the OLAP window-function
    /// baseline (the comparison of SIGMOD Table 6).
    pub fn vpct_olap(&self, q: &VpctQuery) -> Result<QueryResult> {
        let eval = |fact: &Fact, _: &ResourceGuard| eval_vpct_olap_on(fact, q);
        Ok(self
            .run(
                "vpct_olap",
                &q.table,
                QueryLimits::none(),
                (None, None),
                eval,
            )?
            .0)
    }

    /// Evaluate a horizontal query, picking the CASE source heuristically.
    pub fn horizontal(&self, q: &HorizontalQuery) -> Result<HorizontalResult> {
        Ok(self.run_horizontal(q, None, QueryLimits::none(), None)?.0)
    }

    /// Evaluate a horizontal query with explicit options.
    pub fn horizontal_with(
        &self,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
    ) -> Result<HorizontalResult> {
        self.horizontal_limited(q, opts, QueryLimits::none())
    }

    /// [`PercentageEngine::horizontal_with`] with per-call limits.
    pub fn horizontal_limited(
        &self,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
        limits: QueryLimits,
    ) -> Result<HorizontalResult> {
        Ok(self.run_horizontal(q, Some(opts), limits, None)?.0)
    }

    /// Evaluate a horizontal query with explicit options under a per-query
    /// tracer, returning the per-operator [`TraceReport`] alongside the
    /// result.
    pub fn horizontal_traced(
        &self,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
    ) -> Result<(HorizontalResult, TraceReport)> {
        let (r, report) = self.run_horizontal(q, Some(opts), QueryLimits::none(), self.tracer())?;
        Ok((r, report.unwrap_or_default()))
    }

    /// Execute a SQL statement in the percentage dialect: parsed, validated
    /// and planned the first time its exact text runs on this engine (or a
    /// clone), from the shared plan after. A `WHERE` clause selects the
    /// rows of the fact table the plan reads ("F can be a temporary table
    /// resulting from some query", SIGMOD §2 — here a selection over `F`,
    /// never a copy of it); an `ORDER BY` clause sorts the result (result
    /// rows "can be returned in the order given by GROUP BY").
    pub fn execute_sql(&self, sql: &str) -> Result<SqlOutcome> {
        self.execute_sql_limited(sql, QueryLimits::none())
    }

    /// [`PercentageEngine::execute_sql`] with per-call limits — the serving
    /// layer's entry point for session budgets and deadlines.
    pub fn execute_sql_limited(&self, sql: &str, limits: QueryLimits) -> Result<SqlOutcome> {
        let plan = self.prepare(sql, false)?;
        Ok(self.run_statement(plan, limits, (None, None), None)?.0)
    }

    /// [`PercentageEngine::execute_sql_limited`] under a per-query tracer:
    /// returns the outcome together with the drained per-operator
    /// [`TraceReport`]. This is the programmatic face of
    /// [`PercentageEngine::explain_analyze_sql`]; the bench binaries use it
    /// to attach per-operator breakdowns to their JSON artifacts. The input
    /// may be a bare SELECT or an `EXPLAIN [ANALYZE]` form — the query under
    /// the wrapper is what runs, from the plan the untraced call uses.
    pub fn execute_sql_traced(
        &self,
        sql: &str,
        limits: QueryLimits,
    ) -> Result<(SqlOutcome, TraceReport)> {
        let plan = self.prepare(sql, true)?;
        let (outcome, report) = self.run_statement(plan, limits, (None, None), self.tracer())?;
        Ok((outcome, report.unwrap_or_default()))
    }

    /// Like [`PercentageEngine::execute_sql`] but with explicit strategy
    /// knobs for each family.
    pub fn execute_sql_with(
        &self,
        sql: &str,
        vstrat: &VpctStrategy,
        hopts: &HorizontalOptions,
    ) -> Result<SqlOutcome> {
        self.execute_sql_with_limited(sql, Some(vstrat), hopts, QueryLimits::none())
    }

    /// [`PercentageEngine::execute_sql_with`] with per-call limits; with no
    /// `vstrat` a `Vpct` statement runs its lattice request, as `execute_sql` does.
    pub fn execute_sql_with_limited(
        &self,
        sql: &str,
        vstrat: Option<&VpctStrategy>,
        hopts: &HorizontalOptions,
        limits: QueryLimits,
    ) -> Result<SqlOutcome> {
        let plan = self.prepare(sql, false)?;
        Ok(self
            .run_statement(plan, limits, (vstrat, Some(hopts)), None)?
            .0)
    }

    /// The one statement body over a prepared plan: resolve the source
    /// (`WHERE` narrows it to a selection) → evaluate → `ORDER BY`, inside
    /// [`PercentageEngine::run`]. Without its knob, a `Vpct` statement runs
    /// its lattice request; under one its typed queries run the plan the
    /// knob names. A horizontal statement runs under its knob, or the CASE
    /// source the optimizer picks for the data.
    fn run_statement(
        &self,
        (plan, reused): (Arc<Prepared>, bool),
        limits: QueryLimits,
        knobs: Knobs<'_>,
        tracer: Option<Tracer>,
    ) -> Result<(SqlOutcome, Option<TraceReport>)> {
        let stmt = &plan.stmt;
        let eval = |fact: &Fact, guard: &ResourceGuard| {
            let mut select_stats = ExecStats::default();
            let selected;
            let fact = match &stmt.where_clause {
                Some(pred) => {
                    selected = fact.select(pred, guard, &mut select_stats)?;
                    &selected
                }
                None => fact,
            };
            let group_by = &stmt.group_by;
            let mut outcome = match (&plan.typed, knobs) {
                (Typed::Lattice(request), (None, _)) => SqlOutcome::Vertical(eval_request(
                    self.catalog,
                    fact,
                    group_by,
                    request,
                    guard,
                )?),
                (Typed::Horizontal(q), (_, hopts)) => {
                    SqlOutcome::Horizontal(self.eval_horizontal(fact, q, hopts, guard)?)
                }
                (Typed::Lattice(request), (Some(strat), _)) if stmt.grouping.is_flat() => {
                    let q = &request.queries()[0];
                    SqlOutcome::Vertical(self.eval_vertical(fact, q, Some(strat), guard)?)
                }
                (typed, _) => self.eval_grouping_sets(fact, group_by, typed, knobs, guard)?,
            };
            *outcome.stats_mut() += select_stats;
            apply_order(&outcome, &stmt.order_by, guard)?;
            Ok(outcome)
        };
        let detail = Some(if reused { "reused" } else { "new" });
        let (mut outcome, charged, report) =
            self.run("execute_sql", &stmt.from, limits, (tracer, detail), eval)?;
        outcome.stats_mut().rows_charged = charged;
        Ok((outcome, report))
    }

    /// Evaluate the grouping sets of one statement set by set over the
    /// same resolved source, under the statement's one guard, and union
    /// them into a single table (`FGS`) shaped `[full GROUP BY
    /// columns][aggregate columns]`, with NULL in every dimension column a
    /// set rolled away (the Data Cube "ALL" marker). This is the plan of
    /// horizontal sets, and of a `Vpct` statement's sets under explicit
    /// strategy knobs (`execute_sql_with`); without knobs, those are one
    /// lattice request for the whole statement. Each set's query groups by
    /// exactly its set.
    fn eval_grouping_sets(
        &self,
        fact: &Fact,
        group_by: &[String],
        typed: &Typed,
        knobs: Knobs<'_>,
        guard: &ResourceGuard,
    ) -> Result<SqlOutcome> {
        let mut stats = ExecStats::default();
        let mut results: Vec<(&[String], pa_storage::Table)> = Vec::new();
        let mut cell_columns: Arc<[Vec<String>]> = Arc::new([]);
        let sets = match typed {
            Typed::Lattice(request) => {
                for q in request.queries() {
                    let r = self.eval_vertical(fact, q, knobs.0, guard)?;
                    stats += r.stats;
                    results.push((&q.group_by, r.snapshot()));
                }
                let table = into_shared(union_grouping_results(group_by, &results, guard)?);
                return Ok(SqlOutcome::Vertical(QueryResult { table, stats }));
            }
            Typed::Sets(sets) => sets,
            Typed::Horizontal(_) => unreachable!("a flat statement has no grouping sets"),
        };
        for h in sets {
            let r = self.eval_horizontal(fact, h, knobs.1, guard)?;
            if r.partitions.len() != 1 {
                return Err(CoreError::Unsupported(
                    "vertically partitioned horizontal results cannot be \
                     unioned across grouping sets"
                        .into(),
                ));
            }
            stats += r.stats;
            if cell_columns.is_empty() {
                cell_columns = r.cell_columns.clone();
            }
            results.push((&h.query.group_by, r.snapshot()));
        }
        let table = into_shared(union_grouping_results(group_by, &results, guard)?);
        Ok(SqlOutcome::Horizontal(HorizontalResult {
            partitions: vec![table],
            stats,
            cell_columns,
        }))
    }

    /// Generated SQL for a statement without executing it (the paper's
    /// code-generator use case), from the plan execution uses. The
    /// transcript ends with a comment line describing the guard the
    /// statement would run under.
    pub fn explain_sql(&self, sql: &str) -> Result<Vec<String>> {
        let (plan, _) = self.prepare(sql, true)?;
        let mut stmts = self.plan_statements(&plan)?;
        stmts.push(self.guard_comment(None));
        Ok(stmts)
    }

    /// `EXPLAIN ANALYZE`: the generated plan of
    /// [`PercentageEngine::explain_sql`], *executed* under a per-query
    /// tracer, with one `-- op` line per recorded span (actual rows, morsels
    /// and nanoseconds; the `query` line says whether the statement's plan
    /// was `plan=new` or `plan=reused`) and the `-- guard:` line rendered
    /// **after** the run so `charged=` reports the rows the query actually
    /// metered — the pre-run rendering read 0 for every plan. Accepts a
    /// bare SELECT or the `EXPLAIN [ANALYZE]` forms.
    pub fn explain_analyze_sql(&self, sql: &str) -> Result<Vec<String>> {
        let plan = self.prepare(sql, true)?;
        let mut lines = self.plan_statements(&plan.0)?;
        let (outcome, report) =
            self.run_statement(plan, QueryLimits::none(), (None, None), self.tracer())?;
        let report = report.unwrap_or_default();
        if let Some(root) = report.root() {
            render_span_lines(&report, root, 0, &mut lines);
        }
        let stats = outcome.stats();
        lines.push(format!(
            "-- aggregates: holistic_lanes={} sketch_spills={} lattice_levels={} levels_from_scan={} levels_from_cache={}",
            stats.holistic_lanes,
            stats.sketch_spills,
            stats.lattice_levels,
            stats.levels_from_scan,
            stats.levels_from_cache
        ));
        lines.push(self.guard_comment(Some(stats.rows_charged)));
        Ok(lines)
    }

    /// The generated-SQL transcript for a prepared statement (shared by the
    /// explain entry points). A `Vpct` statement, which executes as one
    /// lattice request, ends with the per-level source lines of that
    /// request; so does each horizontal query that runs as one.
    fn plan_statements(&self, plan: &Prepared) -> Result<Vec<String>> {
        let stmt = &plan.stmt;
        let pred = stmt.where_clause.as_ref().map(ToString::to_string);
        let pred = pred.as_deref();
        let queries: Vec<Query> = match &plan.typed {
            Typed::Horizontal(h) => {
                let mut lines = self.codegen_lines(&Query::Horizontal(h.query.clone()), pred)?;
                lines.extend(self.horizontal_lines(&stmt.from, h, pred.is_some())?);
                return Ok(lines);
            }
            Typed::Lattice(r) => r.queries().iter().cloned().map(Query::Vertical).collect(),
            Typed::Sets(sets) => (sets.iter())
                .map(|h| Query::Horizontal(h.query.clone()))
                .collect(),
        };
        let mut lines = Vec::new();
        if stmt.grouping.is_flat() {
            lines = self.codegen_lines(&queries[0], pred)?;
        } else {
            let sets = stmt.grouping_sets();
            let over = stmt.group_by.join(", ");
            lines.push(format!("-- grouping: {} set(s) over ({over})", sets.len()));
            let vertical = matches!(plan.typed, Typed::Lattice(_));
            let mut queries = queries.iter();
            let mut horizontal = match &plan.typed {
                Typed::Sets(sets) => sets.iter(),
                _ => [].iter(),
            };
            for set in &sets {
                if vertical && set.is_empty() {
                    let skipped = "skipped (Vpct requires a non-empty GROUP BY)";
                    lines.push(format!("-- grouping set (): {skipped}"));
                    continue;
                }
                let q = queries.next().expect("one query per evaluable set");
                lines.push(format!("-- grouping set ({})", set.join(", ")));
                lines.extend(self.codegen_lines(q, pred)?);
                if let Some(h) = horizontal.next() {
                    lines.extend(self.horizontal_lines(&stmt.from, h, pred.is_some())?);
                }
            }
        }
        if let Typed::Lattice(request) = &plan.typed {
            lines.extend(self.lattice_lines(&stmt.from, request, pred.is_some())?);
        }
        Ok(lines)
    }

    /// The generated statements of one typed query, `pred` its `WHERE`.
    fn codegen_lines(&self, q: &Query, pred: Option<&str>) -> Result<Vec<String>> {
        Ok(match q {
            Query::Vertical(q) => {
                let strat = choose_vpct_strategy(self.catalog, q);
                crate::codegen::vpct_statements(q, &strat, pred)
            }
            Query::Horizontal(q) => {
                let strategy = choose_horizontal_strategy(self.catalog, q)?;
                crate::codegen::horizontal_statements(q, strategy, None, pred)
            }
        })
    }

    /// The lattice plan `request` over `table` would execute with right
    /// now. The lattice cache is keyed by the version of the table a
    /// statement pins, so plan over the same pin: EXPLAIN then reports
    /// exactly the sources execution would use, levels rolled forward
    /// included. A `selected` fact (a statement with a `WHERE`) has no
    /// cache key, so neither does its plan: every level scans or derives.
    fn lattice_lines(&self, table: &str, request: &Request, selected: bool) -> Result<Vec<String>> {
        let (_pin, fact) = Fact::pinned(self.catalog, table)?;
        lattice_plan_lines(self.catalog, request, &fact, !selected)
    }

    /// The lattice plan of `h`'s request when a knob-less run of it is that
    /// request ([`Horizontal::request_over`]), over the pin a run would
    /// take; nothing when it runs the CASE producer — `selected` (a
    /// `WHERE`) among those.
    fn horizontal_lines(&self, table: &str, h: &Horizontal, selected: bool) -> Result<Vec<String>> {
        if selected {
            return Ok(Vec::new());
        }
        let (_pin, fact) = Fact::pinned(self.catalog, table)?;
        match h.request_over(&fact) {
            Some(request) => lattice_plan_lines(self.catalog, request, &fact, true),
            None => Ok(Vec::new()),
        }
    }

    /// The `-- guard:` transcript line. `charged` is `Some` only on the
    /// post-run path (`EXPLAIN ANALYZE`), where the per-query meter has a
    /// real total; plain `EXPLAIN` never executes, so it has no `charged=`
    /// field to misreport.
    fn guard_comment(&self, charged: Option<u64>) -> String {
        let budget = self
            .guard
            .row_budget()
            .map_or_else(|| "none".to_string(), |b| b.to_string());
        let deadline = self
            .deadline
            .or_else(|| self.guard.deadline())
            .map_or_else(|| "none".to_string(), |d| format!("{}ms", d.as_millis()));
        let mut line = format!("-- guard: budget={budget} deadline={deadline}");
        if let Some(c) = charged {
            line.push_str(&format!(" charged={c}"));
        }
        line
    }
}

/// One `-- op` transcript line per span, children indented under parents.
fn render_span_lines(
    report: &TraceReport,
    span: &pa_engine::SpanRecord,
    depth: usize,
    out: &mut Vec<String>,
) {
    let mut line = format!(
        "-- op {:indent$}{}: rows={} morsels={} time={}ns",
        "",
        span.name(),
        span.rows,
        span.morsels,
        span.duration_ns(),
        indent = depth * 2,
    );
    if let Some((mode, selected)) = span.selection {
        line.push_str(&format!(" where={mode} selected={selected}"));
    }
    if let (0, Some(plan)) = (depth, span.detail) {
        line.push_str(&format!(" plan={plan}"));
    }
    out.push(line);
    for child in report.children(span.id) {
        render_span_lines(report, child, depth + 1, out);
    }
}

/// Union per-set grouping results into one table shaped
/// `[group_by columns][aggregate columns]`, padding the dimension columns a
/// set rolled away with NULL. The per-set layouts are positional — each
/// result table is `[its set's columns in set order][aggregates]` with the
/// same aggregate count per set — and the aggregate names and types of the
/// union come from the first (finest) evaluated set, since auto-generated
/// `Vpct` names embed the per-set BY list.
fn union_grouping_results(
    group_by: &[String],
    results: &[(&[String], pa_storage::Table)],
    guard: &ResourceGuard,
) -> Result<pa_storage::Table> {
    let Some((first_set, first)) = results.first() else {
        return Err(CoreError::InvalidQuery(
            "statement has no evaluable grouping set".into(),
        ));
    };
    let n_aggs = first.schema().len() - first_set.len();
    let mut fields: Vec<Field> = Vec::with_capacity(group_by.len() + n_aggs);
    for g in group_by {
        let (set, t) = results
            .iter()
            .find(|(s, _)| s.iter().any(|c| c.eq_ignore_ascii_case(g)))
            .ok_or_else(|| {
                CoreError::InvalidQuery(format!(
                    "GROUP BY column {g} appears in no evaluable grouping set"
                ))
            })?;
        let pos = set
            .iter()
            .position(|c| c.eq_ignore_ascii_case(g))
            .expect("set was found by membership");
        fields.push(Field::new(g.clone(), t.schema().field_at(pos).dtype));
    }
    for j in 0..n_aggs {
        fields.push(first.schema().field_at(first_set.len() + j).clone());
    }
    let mut out: Vec<Column> = fields.iter().map(|f| Column::new(f.dtype)).collect();
    let mut span = guard.span("union_sets");
    for (set, t) in results {
        if t.schema().len() != set.len() + n_aggs {
            return Err(CoreError::Unsupported(format!(
                "grouping set ({}) produced {} aggregate columns, expected {n_aggs}",
                set.join(", "),
                t.schema().len().saturating_sub(set.len()),
            )));
        }
        span.add_rows(t.num_rows() as u64);
        span.add_morsels(1);
        let (dims, aggs) = out.split_at_mut(group_by.len());
        for (g, col) in group_by.iter().zip(dims) {
            match set.iter().position(|c| c.eq_ignore_ascii_case(g)) {
                Some(c) => col.extend_from(t.column(c))?,
                None => col.push_nulls(t.num_rows()),
            }
        }
        for (j, col) in aggs.iter_mut().enumerate() {
            col.extend_from(t.column(set.len() + j))?;
        }
    }
    drop(span);
    let schema = Schema::new(fields)?.into_shared();
    Ok(pa_storage::Table::from_columns(schema, out)?)
}

/// Sort a finished result in place by the named columns: one permutation,
/// built from each named column in whichever partition holds it, taken by
/// every partition alike (each repeats the key columns).
fn apply_order(outcome: &SqlOutcome, order_by: &[String], guard: &ResourceGuard) -> Result<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let parts = match outcome {
        SqlOutcome::Vertical(r) => std::slice::from_ref(&r.table),
        SqlOutcome::Horizontal(r) => &r.partitions[..],
    };
    let tables: Vec<_> = parts.iter().map(|p| p.read()).collect();
    let mut span = guard.span("sort");
    span.add_rows(tables[0].num_rows() as u64);
    span.add_morsels(1);
    let (mut fields, mut keys) = (Vec::new(), Vec::new());
    for n in order_by {
        let found = tables
            .iter()
            .find_map(|t| Some(t.column(t.schema().index_of(n).ok()?)));
        let unknown = || CoreError::InvalidQuery(format!("ORDER BY column {n} not in result"));
        let col = found.ok_or_else(unknown)?;
        fields.push(Field::new(format!("k{}", keys.len()), col.data_type()));
        keys.push(col.clone());
    }
    let key = Table::from_columns(Schema::new(fields)?.into_shared(), keys)?;
    let cols: Vec<usize> = (0..order_by.len()).collect();
    let order = pa_engine::sort_permutation(&key, &cols, &mut ExecStats::default())?;
    drop(tables);
    for part in parts {
        let mut t = part.write();
        *t = t.take(&order);
    }
    Ok(())
}

// Re-exported here so `use pa_core::executor::*` is self-sufficient.
pub use crate::missing::MissingRows as Missing;

impl CoreError {
    /// Helper: whether this error is a usage-rule violation (parse-level or
    /// structural), as opposed to an execution failure.
    pub fn is_rule_violation(&self) -> bool {
        matches!(
            self,
            CoreError::Sql(pa_sql::SqlError::Rule(_)) | CoreError::InvalidQuery(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertical::tests::sales_catalog;
    use pa_storage::Value;

    #[test]
    fn sql_round_trip_vertical() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;")
            .unwrap();
        let SqlOutcome::Vertical(r) = out else {
            panic!("expected vertical")
        };
        let t = r.snapshot().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Float(23.0 / 106.0));
    }

    #[test]
    fn sql_round_trip_horizontal() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state, Hpct(salesAmt BY city), sum(salesAmt) FROM sales GROUP BY state;",
            )
            .unwrap();
        let SqlOutcome::Horizontal(r) = out else {
            panic!("expected horizontal")
        };
        let t = r.snapshot().sorted_by(&[0]);
        assert_eq!(t.num_columns(), 6, "state + 4 cities + total");
        // CA row, cities sorted: Dallas 0%, Houston 0%, LA 23/106, SF 83/106.
        assert_eq!(t.get(0, 1), Value::Float(0.0));
        assert_eq!(t.get(0, 3), Value::Float(23.0 / 106.0));
        assert_eq!(t.get(0, 4), Value::Float(83.0 / 106.0));
        assert_eq!(t.get(0, 5), Value::Float(106.0));
    }

    #[test]
    fn rule_violations_surface() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let err = engine
            .execute_sql("SELECT Vpct(salesAmt BY city) FROM sales")
            .unwrap_err();
        assert!(err.is_rule_violation(), "{err}");
    }

    #[test]
    fn explain_returns_generated_statements() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let stmts = engine
            .explain_sql("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city")
            .unwrap();
        assert!(stmts[0].starts_with("INSERT INTO Fk"));
    }

    #[test]
    fn missing_row_modes_via_engine() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let plain = engine
            .vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::Ignore)
            .unwrap();
        let n_plain = plain.snapshot().num_rows();
        let padded = engine
            .vpct_with_missing(&q, &VpctStrategy::best(), MissingRows::PostProcess)
            .unwrap();
        // 2 states × 4 cities = 8 cells; 4 exist.
        assert_eq!(n_plain, 4);
        assert_eq!(padded.snapshot().num_rows(), 8);
    }

    #[test]
    fn where_clause_filters_the_fact_table() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state,city,Vpct(salesAmt BY city) FROM sales \
                 WHERE state = 'TX' GROUP BY state,city;",
            )
            .unwrap();
        let t = out.table();
        let t = t.read().sorted_by(&[0, 1]);
        assert_eq!(t.num_rows(), 2, "only TX cities");
        assert_eq!(t.get(0, 2), Value::Float(85.0 / 149.0)); // Dallas
        assert_eq!(t.get(1, 2), Value::Float(64.0 / 149.0)); // Houston

        // Numeric predicate on the measure.
        let out = engine
            .execute_sql(
                "SELECT state, Hpct(salesAmt BY city) FROM sales \
                 WHERE salesAmt > 30 GROUP BY state;",
            )
            .unwrap();
        let t = out.table();
        assert!(t.read().num_rows() >= 1);

        // Unknown column in WHERE errors.
        assert!(engine
            .execute_sql(
                "SELECT state,city,Vpct(salesAmt BY city) FROM sales \
                 WHERE bogus = 1 GROUP BY state,city"
            )
            .is_err());
    }

    #[test]
    fn order_by_sorts_the_result() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state,city,Vpct(salesAmt BY city) AS pct FROM sales \
                 GROUP BY state,city ORDER BY pct;",
            )
            .unwrap();
        let t = out.table();
        let t = t.read();
        let mut prev = f64::NEG_INFINITY;
        for r in 0..t.num_rows() {
            let p = t.get(r, 2).as_f64().unwrap();
            assert!(p >= prev, "row {r} out of order");
            prev = p;
        }
        // Positional and plain-column ORDER BY.
        assert!(engine
            .execute_sql(
                "SELECT state,city,Vpct(salesAmt BY city) FROM sales \
                 GROUP BY state,city ORDER BY 1,2"
            )
            .is_ok());
        // Unknown ORDER BY column errors.
        assert!(engine
            .execute_sql(
                "SELECT state,city,Vpct(salesAmt BY city) FROM sales \
                 GROUP BY state,city ORDER BY bogus"
            )
            .is_err());
    }

    fn rows_of(out: &SqlOutcome) -> Vec<Vec<Value>> {
        let shared = out.table();
        let t = shared.read();
        (0..t.num_rows())
            .map(|r| (0..t.schema().len()).map(|c| t.get(r, c)).collect())
            .collect()
    }

    fn find_row(rows: &[Vec<Value>], state: Value, city: Value) -> &Vec<Value> {
        rows.iter()
            .find(|r| r[0] == state && r[1] == city)
            .unwrap_or_else(|| panic!("no row ({state:?}, {city:?}) in {rows:?}"))
    }

    #[test]
    fn rollup_unions_levels_with_null_padding() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state, city, Vpct(salesAmt BY city) AS p FROM sales \
                 GROUP BY ROLLUP (state, city);",
            )
            .unwrap();
        let rows = rows_of(&out);
        // 4 (state, city) rows + 2 state rows; the Vpct grand-total set is
        // skipped (it is definitionally 100%).
        assert_eq!(rows.len(), 6);
        // Finest set: percentage within the state.
        let r = find_row(&rows, Value::str("CA"), Value::str("San Francisco"));
        assert_eq!(r[2], Value::Float(83.0 / 106.0));
        // Rolled-up set: BY ∩ (state) is empty, so the percentage is the
        // state's share of the grand total, with city NULLed out.
        let r = find_row(&rows, Value::str("CA"), Value::Null);
        assert_eq!(r[2], Value::Float(106.0 / 255.0));
        let r = find_row(&rows, Value::str("TX"), Value::Null);
        assert_eq!(r[2], Value::Float(149.0 / 255.0));
    }

    #[test]
    fn cube_grouping_matches_rollup_sets_plus_city_level() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state, city, Vpct(salesAmt BY state, city) AS q FROM sales \
                 GROUP BY CUBE (state, city);",
            )
            .unwrap();
        let rows = rows_of(&out);
        // (state, city): 4 rows; (state): 2; (city): 4; (): skipped.
        assert_eq!(rows.len(), 10);
        // The city-only level pads state with NULL; BY ∩ (city) = (city)
        // leaves the totals at the grand total.
        let r = find_row(&rows, Value::Null, Value::str("Dallas"));
        assert_eq!(r[2], Value::Float(85.0 / 255.0));
    }

    #[test]
    fn grouping_sets_are_one_lattice_plan_and_rerun_from_the_cache() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let sql = "SELECT state, city, Vpct(salesAmt BY city) AS p, \
                   Vpct(salesAmt BY state, city) AS q FROM sales \
                   GROUP BY ROLLUP (state, city);";
        let out = engine.execute_sql(sql).unwrap();
        let stats = out.stats();
        // One plan for the statement: both sets answer from the levels
        // (city, state), (state) and () — the finest scanned, each coarser
        // one re-aggregated from the one before — and each is materialized
        // once, though both sets divide by ().
        assert_eq!(stats.lattice_levels, 3, "{stats}");
        assert_eq!(stats.levels_from_scan, 1, "{stats}");
        assert_eq!(stats.levels_from_cache, 0, "{stats}");
        assert_eq!(stats.wal_records, 0, "FGS is a value: nothing is logged");
        let rows = rows_of(&out);
        let r = find_row(&rows, Value::str("CA"), Value::str("San Francisco"));
        assert_eq!(r[2], Value::Float(83.0 / 106.0));
        assert_eq!(r[3], Value::Float(83.0 / 255.0));
        let r = find_row(&rows, Value::str("CA"), Value::Null);
        assert_eq!(r[2], Value::Float(106.0 / 255.0));
        assert_eq!(r[3], Value::Float(106.0 / 255.0));

        // Re-running the identical statement serves every level from cache,
        // the stored-back grand total included.
        let warm = engine.execute_sql(sql).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.lattice_levels, 3, "{stats}");
        assert_eq!(stats.levels_from_scan, 0, "{stats}");
        assert_eq!(stats.levels_from_cache, 3, "{stats}");
        assert_eq!(rows_of(&warm), rows, "cache-warm union must be identical");
    }

    #[test]
    fn horizontal_grouping_sets_union_with_consistent_cells() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state, Hpct(salesAmt BY city) FROM sales \
                 GROUP BY GROUPING SETS ((state), ());",
            )
            .unwrap();
        let shared = out.table();
        let t = shared.read();
        // [state][4 city cells]; 2 state rows + 1 grand-total row.
        assert_eq!(t.schema().len(), 5);
        assert_eq!(t.num_rows(), 3);
        // Every Hpct row's non-NULL cells sum to 1.
        for r in 0..t.num_rows() {
            let sum: f64 = (1..5)
                .filter_map(|c| match t.get(r, c) {
                    Value::Float(x) => Some(x),
                    _ => None,
                })
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
        }
        // The grand-total row has a NULL state and global percentages.
        let grand = (0..t.num_rows())
            .find(|&r| t.get(r, 0) == Value::Null)
            .expect("grand-total row");
        let dallas: f64 = (1..5)
            .filter_map(|c| match t.get(grand, c) {
                Value::Float(x) if (x - 85.0 / 255.0).abs() < 1e-9 => Some(x),
                _ => None,
            })
            .sum();
        assert!(dallas > 0.0, "global Dallas share missing");
    }

    #[test]
    fn explain_renders_per_set_plans() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let lines = engine
            .explain_sql(
                "SELECT state, city, Vpct(salesAmt BY city) AS p FROM sales \
                 GROUP BY ROLLUP (state, city);",
            )
            .unwrap();
        assert!(
            lines[0].starts_with("-- grouping: 3 set(s) over (state, city)"),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l == "-- grouping set (state, city)"),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("skipped (Vpct requires a non-empty GROUP BY)")),
            "{lines:?}"
        );
        // Lattice source lines appear even for a single-term query, because
        // the sets of a statement execute as one lattice plan.
        assert!(
            lines.iter().any(|l| l.starts_with("-- lattice: level")),
            "{lines:?}"
        );
    }

    #[test]
    fn multi_term_sql_goes_through_the_lattice() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let out = engine
            .execute_sql(
                "SELECT state, city, Vpct(salesAmt BY city) AS within_state, \
                 Vpct(salesAmt BY state, city) AS global_share \
                 FROM sales GROUP BY state, city;",
            )
            .unwrap();
        let t = out.table();
        let t = t.read().sorted_by(&[0, 1]);
        assert_eq!(t.get(0, 2), Value::Float(23.0 / 106.0));
        assert_eq!(t.get(0, 3), Value::Float(23.0 / 255.0));
    }

    #[test]
    fn batch_api_through_engine() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let q1 = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let q2 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let results = engine.vpct_batch(&[q1, q2]).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].snapshot().num_rows(), 2);
    }

    #[test]
    fn row_budget_stops_a_runaway_pivot_with_a_typed_error() {
        let catalog = sales_catalog();
        // Budget below even one scan of the 10-row fact table: the Hpct
        // pivot must fail fast with the typed error, not run to completion.
        let engine = PercentageEngine::new(&catalog).with_guard(ResourceGuard::with_row_budget(3));
        let err = engine
            .execute_sql(
                "SELECT state, Hpct(salesAmt BY city), sum(salesAmt) FROM sales GROUP BY state;",
            )
            .unwrap_err();
        assert!(
            matches!(err, CoreError::BudgetExceeded { budget: 3, .. }),
            "expected BudgetExceeded, got {err}"
        );
        // The same budget also protects the vertical path.
        let err = engine
            .execute_sql("SELECT state,city,Vpct(salesAmt BY city) FROM sales GROUP BY state,city;")
            .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn budget_is_per_query_not_engine_lifetime() {
        let catalog = sales_catalog();
        const SQL: &str = "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state;";
        let cold = PercentageEngine::new(&catalog).execute_sql(SQL).unwrap();
        let cold = cold.stats().rows_charged;
        assert!(cold > 0, "the query's work was metered");
        // A budget sized for one cold query: every repetition must succeed,
        // because each top-level call runs under a fresh meter derived from
        // the engine's guard.
        let guard = ResourceGuard::with_row_budget(cold);
        let engine = PercentageEngine::new(&catalog).with_guard(guard.clone());
        let mut charged = Vec::new();
        for i in 0..31 {
            // Every third call runs cold, the rest from the lattice cache.
            if i % 3 == 0 {
                catalog.invalidate_combos("sales");
            }
            let out = engine
                .execute_sql(SQL)
                .unwrap_or_else(|e| panic!("query {i} hit the engine-lifetime budget: {e}"));
            let own = out.stats().rows_charged;
            assert!(own > 0 && own <= cold, "query {i} charged {own}");
            if i % 3 == 0 {
                assert_eq!(own, cold, "query {i} ran cold");
            }
            charged.push(own);
        }
        assert_eq!(
            guard.rows_charged(),
            charged.iter().sum::<u64>(),
            "the attached handle metered cumulative work across queries"
        );
    }

    #[test]
    fn generous_budget_answers_normally_and_meters_work() {
        let catalog = sales_catalog();
        let guard = ResourceGuard::with_row_budget(1_000_000);
        let engine = PercentageEngine::new(&catalog).with_guard(guard.clone());
        let out = engine
            .execute_sql(
                "SELECT state, Hpct(salesAmt BY city), sum(salesAmt) FROM sales GROUP BY state;",
            )
            .unwrap();
        assert_eq!(out.table().read().num_columns(), 6);
        assert!(guard.rows_charged() > 0, "the query's work was metered");
    }

    #[test]
    fn cancellation_surfaces_as_core_cancelled() {
        let catalog = sales_catalog();
        let guard = ResourceGuard::with_row_budget(u64::MAX);
        let engine = PercentageEngine::new(&catalog).with_guard(guard.clone());
        engine.guard().cancel();
        let err = engine
            .execute_sql("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;")
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
    }

    #[test]
    fn budget_guards_the_lattice_and_batch_paths() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog).with_guard(ResourceGuard::with_row_budget(3));
        // Multi-term query routes through the lattice.
        let err = engine
            .execute_sql(
                "SELECT state, city, Vpct(salesAmt BY city) AS a, \
                 Vpct(salesAmt BY state, city) AS b FROM sales GROUP BY state, city;",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{err}");
        // Batch evaluation shares the same budget.
        let q1 = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let q2 = VpctQuery::single("sales", &["state"], "salesAmt", &[]);
        let err = engine.vpct_batch(&[q1, q2]).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn explain_analyze_reports_ops_and_post_run_guard_charge() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let sql = "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state;";
        // A cold statement scans the table for its levels, a warm one reads
        // them from the level cache: compare warm with warm.
        let cold = engine.execute_sql(sql).unwrap().stats().rows_charged;
        let lines = engine
            .explain_analyze_sql(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap();
        let ops: Vec<&String> = lines.iter().filter(|l| l.starts_with("-- op")).collect();
        assert!(
            ops.first().is_some_and(|l| l.contains("query:")),
            "{lines:?}"
        );
        assert!(ops.len() >= 2, "operator spans under the query: {ops:?}");
        // The plan printed is the one that ran: the request's levels, warm.
        for level in ["(city, state)", "(state)"] {
            let line = format!("-- lattice: level {level} <- cache");
            assert!(lines.contains(&line), "{lines:?}");
        }
        assert!(
            ops.iter()
                .all(|l| l.contains("rows=") && l.contains("morsels=") && l.contains("time=")),
            "{ops:?}"
        );
        // Regression (the pre-run rendering would report 0 here): the
        // `-- guard:` line is built after execution, so `charged=` is the
        // per-query meter's actual total.
        let guard_line = lines.last().unwrap();
        assert!(guard_line.starts_with("-- guard:"), "{guard_line}");
        // The aggregate-protocol summary precedes the guard line.
        let agg_line = &lines[lines.len() - 2];
        assert!(
            agg_line.starts_with("-- aggregates: holistic_lanes=")
                && agg_line.contains("sketch_spills="),
            "{agg_line}"
        );
        let charged: u64 = guard_line
            .split("charged=")
            .nth(1)
            .expect("charged= field present")
            .parse()
            .unwrap();
        let out = engine.execute_sql(sql).unwrap();
        assert_eq!(charged, out.stats().rows_charged);
        assert!(charged > 0);
        // Each pass charges the rows it reads and the groups it makes. Warm,
        // the statement is handed the cached city set and transposes the
        // cell level `(city, state)` onto the `(state)` level; cold, it
        // first scans the table for the cell level, re-aggregates that for
        // `(state)` and takes the cities as a DISTINCT over it.
        let t = catalog.table("sales").unwrap().read().clone();
        let key = |r: usize, cols: &[usize]| -> Vec<String> {
            cols.iter().map(|&c| t.get(r, c).to_string()).collect()
        };
        let count = |cols: &[usize]| {
            let keys = (0..t.num_rows()).map(|r| key(r, cols));
            keys.collect::<std::collections::BTreeSet<_>>().len() as u64
        };
        let (rows, cells, states, cities) = (
            t.num_rows() as u64,
            count(&[1, 2]),
            count(&[1]),
            count(&[2]),
        );
        let transpose = cells + states;
        assert_eq!(
            charged,
            cities + transpose,
            "the cached set, then the transposition"
        );
        let passes = (rows + cells) + (cells + states) + (cells + cities);
        assert_eq!(
            cold,
            passes + transpose,
            "the levels and the set, then the transposition"
        );
        // A bare SELECT is accepted too, and plain EXPLAIN (which never
        // executes) has no `charged=` field to misreport.
        assert!(engine
            .explain_analyze_sql(sql)
            .unwrap()
            .iter()
            .any(|l| l.starts_with("-- op")));
        let plain = engine.explain_sql(sql).unwrap();
        assert!(plain.last().unwrap().starts_with("-- guard:"));
        assert!(!plain.last().unwrap().contains("charged="));
    }

    #[test]
    fn explain_analyze_tells_the_truth_about_where() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let terms = "Vpct(salesAmt BY city) AS p, Vpct(salesAmt BY state, city) AS q";
        // Fill the table's lattice cache: a selected fact must not read it.
        let unfiltered = format!("SELECT state, city, {terms} FROM sales GROUP BY state, city");
        engine.execute_sql(&unfiltered).unwrap();
        let sql = format!(
            "SELECT state, city, {terms} FROM sales WHERE salesAmt > 10 GROUP BY state, city"
        );
        let lines = engine.explain_analyze_sql(&sql).unwrap();
        // The transcript is the query that ran: the one statement that
        // reads F carries the predicate.
        assert!(
            lines[0].contains("FROM sales WHERE (salesAmt > 10) GROUP BY state, city;"),
            "{lines:?}"
        );
        // The plan lines and the run agree on where the levels came from.
        let sources: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("-- lattice:"))
            .collect();
        assert_eq!(sources.len(), 3, "{lines:?}");
        assert!(sources[0].ends_with("(city, state) <- scan"), "{sources:?}");
        assert!(sources.iter().all(|l| !l.contains("cache")), "{sources:?}");
        let ran = lines
            .iter()
            .find(|l| l.starts_with("-- aggregates:"))
            .unwrap();
        assert!(
            ran.contains("levels_from_scan=1 levels_from_cache=0"),
            "{ran}"
        );
        // WHERE yields no table: a `select` pass that charges no row, then
        // the scan that read F through the selection, each saying how the
        // predicate ran and what it selected.
        assert!(!lines.iter().any(|l| l.contains("filter")), "{lines:?}");
        let at = |op: &str| lines.iter().position(|l| l.contains(op)).unwrap();
        let (pass, scan) = (at("select: rows=0 morsels=1 "), at("lattice: rows="));
        assert!(pass < scan, "{lines:?}");
        for line in [&lines[pass], &lines[scan]] {
            assert!(line.ends_with("where=compiled selected=7"), "{line}");
        }
        // Every row the statement charged is on some span.
        let charged = lines.last().unwrap().split("charged=").nth(1).unwrap();
        let (outcome, report) = engine
            .execute_sql_traced(&sql, QueryLimits::none())
            .unwrap();
        let root = report.root().unwrap();
        assert_eq!(report.rows_inclusive(root.id), outcome.stats().rows_charged);
        assert_eq!(
            charged.parse::<u64>().unwrap(),
            outcome.stats().rows_charged
        );

        // A predicate the compiler does not take runs the scalar mode.
        let lines = engine
            .explain_analyze_sql(
                "SELECT state, Hpct(salesAmt BY city) FROM sales \
                 WHERE salesAmt + 1 > 11 GROUP BY state",
            )
            .unwrap();
        let scan = lines.iter().find(|l| l.contains("pivot: rows=")).unwrap();
        assert!(scan.ends_with("where=scalar selected=7"), "{scan}");
    }

    /// EXPLAIN prints a horizontal statement's lattice levels exactly when
    /// it runs its lattice request: per grouping set, and never under a
    /// `WHERE` or over a fractional sum, which run the CASE producer.
    #[test]
    fn explain_analyze_tells_the_truth_about_a_horizontal_plan() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let explain = |sql: &str| {
            let lines = engine.explain_analyze_sql(sql).unwrap();
            let levels: Vec<String> = (lines.iter())
                .filter_map(|l| l.strip_prefix("-- lattice: level "))
                .map(String::from)
                .collect();
            let ran = lines.iter().any(|l| l.contains(" transpose: rows="));
            (levels, ran)
        };
        let flat = "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state";
        let (levels, ran) = explain(flat);
        assert!(ran);
        assert_eq!(
            levels,
            [
                "(city, state) <- scan",
                "(state) <- projected-from (city, state)"
            ]
        );
        let sets = "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY ROLLUP(state)";
        let (levels, ran) = explain(sets);
        assert!(ran);
        let want = [
            "(city, state) <- cache",
            "(state) <- cache",
            "(city) <- cache (re-aggregated from (city, state))",
            "() <- cache (re-aggregated from (state))",
        ];
        assert_eq!(levels, want);
        let selected =
            "SELECT state, Hpct(salesAmt BY city) FROM sales WHERE RID > 2 GROUP BY state";
        assert_eq!(explain(selected), (vec![], false));
        engine
            .update_cells("sales", 0, &[3], &[Value::Float(0.5)])
            .unwrap();
        assert_eq!(explain(flat), (vec![], false), "a fractional sum");
    }

    /// A warm knob-less `Hpct` spends its time under three spans: `levels`
    /// (the cache lookups), `combos` (the combinations, and the names and
    /// schema they give the result) and `transpose` (the one-pass writer
    /// and the partitions). They charge what the statement charged before
    /// it read its cell level in place: the combinations' rows, then the
    /// cell level's and the result's.
    #[test]
    fn a_warm_horizontal_request_lists_its_spans_with_their_charges() {
        use pa_storage::{DataType, Schema, Table};
        let schema = Schema::from_pairs(&[
            ("store", DataType::Int),
            ("day", DataType::Int),
            ("amt", DataType::Int),
        ]);
        let mut f = Table::empty(schema.unwrap().into_shared());
        for i in 0..1000 {
            let row = [Value::Int(i % 13), Value::Int(i % 7), Value::Int(i % 97)];
            f.push_row(&row).unwrap();
        }
        let catalog = Catalog::new();
        catalog.create_table("f", f).unwrap();
        let engine = PercentageEngine::new(&catalog).with_config(ParallelConfig::serial());
        let sql = "SELECT store, Hpct(amt BY day) AS h, count(*) AS n FROM f GROUP BY store";
        engine.execute_sql(sql).unwrap();
        let lines = engine.explain_analyze_sql(sql).unwrap();
        let ops: Vec<(String, String, String)> = (lines.iter())
            .filter_map(|l| l.strip_prefix("-- op "))
            .map(|l| {
                let mut words = l.split_whitespace().map(String::from);
                let mut next = || words.next().unwrap();
                (next(), next(), next())
            })
            .collect();
        let op = |label: &str, rows: u64, morsels: u64| {
            (
                format!("{label}:"),
                format!("rows={rows}"),
                format!("morsels={morsels}"),
            )
        };
        // 7 combinations; 91 cells of the level (day, store) and 13 rows.
        let want = [
            op("query", 0, 0),
            op("levels", 0, 0),
            op("combos", 7, 1),
            op("transpose", 91 + 13, 1),
        ];
        assert_eq!(ops, want, "{lines:#?}");
        let guard = lines.last().unwrap();
        assert!(guard.ends_with("charged=111"), "{guard}");
        assert!(lines.iter().any(|l| l.contains("levels_from_scan=0")));
    }

    #[test]
    fn traced_hpct_op_rows_and_times_cover_the_query_serial_and_parallel() {
        use crate::strategy::HorizontalStrategy;
        use pa_engine::SpanRecord;
        use pa_storage::{DataType, Schema, Table};

        // Large enough that four threads cross the serial threshold and
        // actually fan out (4 default-size morsels).
        let n: usize = 260_096;
        let schema = Schema::from_pairs(&[
            ("state", DataType::Int),
            ("city", DataType::Int),
            ("amt", DataType::Float),
        ])
        .unwrap()
        .into_shared();
        let mut f = Table::empty(schema);
        for i in 0..n {
            f.push_row(&[
                Value::Int((i % 7) as i64),
                Value::Int((i % 13) as i64),
                Value::Float((i % 97) as f64),
            ])
            .unwrap();
        }
        let catalog = Catalog::new();
        catalog.create_table("facts", f).unwrap();
        let q = crate::query::HorizontalQuery::hpct("facts", &["state"], "amt", &["city"]);
        let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseFromFv);

        for (mode, want_workers) in [
            (ParallelConfig::serial(), false),
            (ParallelConfig::with_threads(4), true),
        ] {
            let engine = PercentageEngine::new(&catalog).with_config(mode);
            let (r, report) = engine.horizontal_traced(&q, &opts).unwrap();
            let root = report.root().expect("root span recorded");
            assert_eq!(root.label, "query");

            // Per-operator rows fold up to exactly the rows the query's
            // guard metered.
            assert_eq!(
                report.rows_inclusive(root.id),
                r.stats.rows_charged,
                "{mode:?}: span rows must sum to the query total"
            );
            assert!(r.stats.rows_charged >= n as u64, "{mode:?}");

            // Every span's window nests inside the query's window, and the
            // top-level operators (which run sequentially) never account
            // for more than the query's wall clock. (How *much* of it they
            // cover is a wall-clock ratio a loaded host can move at will:
            // the trajectory's span-coverage metric reports it, no test
            // asserts it.)
            for s in report.spans() {
                assert!(
                    s.start_ns >= root.start_ns && s.end_ns <= root.end_ns,
                    "{mode:?}: span {} outside the query window",
                    s.name()
                );
            }
            let op_ns: u64 = report.children(root.id).map(SpanRecord::duration_ns).sum();
            assert!(op_ns <= report.total_ns(), "{mode:?}");

            let workers = report
                .spans()
                .iter()
                .filter(|s| s.label == "worker")
                .count();
            if want_workers {
                assert!(workers >= 2, "parallel run records worker spans");
            } else {
                assert_eq!(workers, 0, "serial run records no worker spans");
            }
        }
    }

    #[test]
    fn olap_via_engine_matches() {
        let catalog = sales_catalog();
        let engine = PercentageEngine::new(&catalog);
        let q = VpctQuery::single("sales", &["state", "city"], "salesAmt", &["city"]);
        let fast = engine.vpct(&q).unwrap();
        let olap = engine.vpct_olap(&q).unwrap();
        let a: Vec<Vec<Value>> = fast.snapshot().sorted_by(&[0, 1]).rows().collect();
        let b: Vec<Vec<Value>> = olap.snapshot().sorted_by(&[0, 1]).rows().collect();
        assert_eq!(a, b);
    }
}
