//! # pa-service — the fault-tolerant query service
//!
//! [`QueryService`] makes a [`PercentageEngine`] safe to expose to
//! untrusted concurrent callers. Four pillars, each delegated to the layer
//! that owns it:
//!
//! * **Admission control** (this crate): a bounded FIFO permit pool caps
//!   concurrent queries; excess callers wait in a capped queue with a
//!   timeout and are shed with [`ServiceError::Overloaded`] instead of
//!   piling onto an overloaded engine.
//! * **Deadlines and budgets** (`pa-engine`'s `ResourceGuard`): per-session
//!   defaults and per-call overrides become [`QueryLimits`], enforced at
//!   every morsel boundary.
//! * **Panic isolation** (`pa-engine`/`pa-core`): worker panics become
//!   typed `WorkerPanicked` errors; the engine and catalog stay usable.
//! * **Graceful degradation** (this crate): after a budget trip or a
//!   contained panic, the service retries down a ladder — first the same
//!   statement at one thread, whatever its family, then with the CASE
//!   strategy swapped for its SPJ counterpart — and records what it did in
//!   [`pa_engine::ExecStats`] (`degraded_to`, `abort_cause`).
//!
//! ```
//! use pa_service::{QueryService, ServiceConfig};
//! use pa_storage::{Catalog, DataType, Schema, Table, Value};
//!
//! let catalog = Catalog::new();
//! let schema = Schema::from_pairs(&[("state", DataType::Str), ("amt", DataType::Float)])
//!     .unwrap()
//!     .into_shared();
//! let mut f = Table::empty(schema);
//! f.push_row(&[Value::str("CA"), Value::Float(30.0)]).unwrap();
//! f.push_row(&[Value::str("TX"), Value::Float(70.0)]).unwrap();
//! catalog.create_table("sales", f).unwrap();
//!
//! let service = QueryService::new(&catalog, ServiceConfig::default());
//! let resp = service
//!     .execute_sql("SELECT state, Vpct(amt) FROM sales GROUP BY state ORDER BY state;")
//!     .unwrap();
//! assert_eq!(resp.table.get(0, 1), Value::Float(0.3));
//! assert_eq!(resp.table.get(1, 1), Value::Float(0.7));
//! ```

#![warn(missing_docs)]

pub mod replica;
pub mod semaphore;

pub use replica::{NodeRole, NodeStatus, ReplicaSet, ReplicaSetConfig, RoutedResponse};

use pa_core::{
    CoreError, HorizontalOptions, HorizontalQuery, HorizontalStrategy, PercentageEngine,
    QueryLimits, SqlOutcome, VpctQuery, VpctTerm,
};
use pa_engine::{AbortCause, Degradation, ExecStats, ParallelConfig};
use pa_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use pa_storage::{Catalog, Table};
use semaphore::{AcquireError, FifoSemaphore, Permit};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the service admits, limits, and degrades queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Queries allowed to execute concurrently.
    pub max_concurrent: usize,
    /// Callers allowed to wait for a slot; arrivals beyond this are shed
    /// immediately.
    pub queue_capacity: usize,
    /// How long a queued caller waits before being shed.
    pub queue_timeout: Duration,
    /// Default per-query limits for sessions that don't set their own.
    pub default_limits: QueryLimits,
    /// Whether to walk the degradation ladder (serial retry, then SPJ
    /// fallback) after a budget trip or contained panic.
    pub degradation: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 4,
            queue_capacity: 16,
            queue_timeout: Duration::from_millis(200),
            default_limits: QueryLimits::none(),
            degradation: true,
        }
    }
}

/// Per-session execution settings, layered over [`ServiceConfig`] defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionOptions {
    /// This session's limits; `None` fields inherit the service defaults.
    pub limits: QueryLimits,
    /// Replication-staleness bound for routed reads (see
    /// [`ReplicaSet::execute_sql_routed`]): the session accepts a replica
    /// only if it applied the primary's stream within this long ago;
    /// otherwise the read falls back to the primary. `None` inherits the
    /// replica set's default. Ignored by single-node [`QueryService`]
    /// calls.
    pub max_staleness: Option<Duration>,
}

impl SessionOptions {
    /// A session with an explicit row budget.
    pub fn with_row_budget(rows: u64) -> SessionOptions {
        SessionOptions {
            limits: QueryLimits {
                row_budget: Some(rows),
                deadline: None,
            },
            max_staleness: None,
        }
    }

    /// A session with an explicit wall-clock deadline per query.
    pub fn with_deadline(allow: Duration) -> SessionOptions {
        SessionOptions {
            limits: QueryLimits {
                row_budget: None,
                deadline: Some(allow),
            },
            max_staleness: None,
        }
    }

    /// A session that tolerates replica reads at most `bound` behind the
    /// primary (`Duration::ZERO` forces every read to the primary).
    pub fn with_max_staleness(bound: Duration) -> SessionOptions {
        SessionOptions {
            max_staleness: Some(bound),
            ..SessionOptions::default()
        }
    }
}

/// Errors surfaced by the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission was refused: the queue was full (`queued: false`) or the
    /// queue timeout elapsed (`queued: true`).
    Overloaded {
        /// Whether the caller got a queue slot before being shed.
        queued: bool,
        /// Concurrency cap that was saturated.
        max_concurrent: usize,
        /// Callers still waiting in the admission queue at shed time.
        queue_depth: usize,
        /// Suggested backoff before retrying: the p90 admission-queue wait
        /// of recently admitted queries, falling back to the configured
        /// queue timeout while the histogram is empty (or its tail runs
        /// past every bucket).
        retry_after: Duration,
    },
    /// The query itself failed; the typed engine error is preserved.
    Query(CoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                queued,
                max_concurrent,
                queue_depth,
                retry_after,
            } => write!(
                f,
                "service overloaded ({} with {max_concurrent} queries in flight, \
                 {queue_depth} waiting; retry after {retry_after:?})",
                if *queued {
                    "queue wait timed out"
                } else {
                    "wait queue full"
                }
            ),
            ServiceError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            ServiceError::Overloaded { .. } => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Query(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// A completed query: the result rows, owned, plus the query's stats.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The result rows.
    pub table: Table,
    /// Work counters, including `rows_charged`, `degraded_to`, and
    /// `abort_cause`.
    pub stats: ExecStats,
}

/// The fault-tolerant serving facade over one shared [`PercentageEngine`].
///
/// The service is `Sync`: one instance serves many threads. A query's
/// intermediates and result are values it owns, so concurrent requests
/// share nothing but the tables they read.
#[derive(Debug)]
pub struct QueryService<'a> {
    engine: PercentageEngine<'a>,
    /// `engine` — same catalog, guard, clock and default deadline — handed
    /// the serial configuration: where the degradation ladder's retries
    /// run.
    serial: PercentageEngine<'a>,
    sem: FifoSemaphore,
    config: ServiceConfig,
    registry: Arc<MetricsRegistry>,
    metrics: ServiceMetrics,
}

/// Handles into the service's [`MetricsRegistry`], registered once at
/// construction so the hot path touches only atomics.
#[derive(Debug)]
struct ServiceMetrics {
    queries: Arc<Counter>,
    failures: Arc<Counter>,
    rows_charged: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_timeout: Arc<Counter>,
    degraded_serial: Arc<Counter>,
    degraded_spj: Arc<Counter>,
    inflight: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
}

impl ServiceMetrics {
    fn register(r: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            queries: r.counter(
                "pa_service_queries_total",
                "Queries that passed admission control",
            ),
            failures: r.counter(
                "pa_service_failures_total",
                "Admitted queries that returned an error",
            ),
            rows_charged: r.counter(
                "pa_service_rows_charged_total",
                "Rows charged against per-query guards by successful queries",
            ),
            shed_queue_full: r.counter(
                "pa_service_shed_total{reason=\"queue_full\"}",
                "Arrivals shed by admission control",
            ),
            shed_timeout: r.counter(
                "pa_service_shed_total{reason=\"timeout\"}",
                "Arrivals shed by admission control",
            ),
            degraded_serial: r.counter(
                "pa_service_degraded_total{rung=\"serial\"}",
                "Queries answered from a degradation-ladder rung",
            ),
            degraded_spj: r.counter(
                "pa_service_degraded_total{rung=\"serial_then_spj\"}",
                "Queries answered from a degradation-ladder rung",
            ),
            inflight: r.gauge("pa_service_inflight", "Queries currently executing"),
            queue_wait: r.histogram(
                "pa_service_queue_wait_nanoseconds",
                "Admission-queue wait per admitted query",
                &[
                    1_000,
                    10_000,
                    100_000,
                    1_000_000,
                    10_000_000,
                    100_000_000,
                    1_000_000_000,
                ],
            ),
        }
    }
}

/// An admitted query's execution slot: the semaphore permit plus the
/// in-flight gauge, decremented when the slot is released (any exit path).
struct Admission<'s> {
    _permit: Permit<'s>,
    inflight: Arc<Gauge>,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.inflight.sub(1);
    }
}

impl<'a> QueryService<'a> {
    /// A service over `catalog` with a default engine.
    pub fn new(catalog: &'a Catalog, config: ServiceConfig) -> QueryService<'a> {
        QueryService::from_engine(PercentageEngine::new(catalog), config)
    }

    /// A service over a caller-built engine — tests inject a `TestClock`
    /// or an engine-level guard this way.
    pub fn from_engine(engine: PercentageEngine<'a>, config: ServiceConfig) -> QueryService<'a> {
        QueryService::from_engine_with_metrics(engine, config, MetricsRegistry::shared())
    }

    /// [`QueryService::from_engine`] registering this service's metrics in a
    /// caller-owned registry, so several services (or other subsystems, e.g.
    /// a WAL) share one scrape endpoint.
    pub fn from_engine_with_metrics(
        engine: PercentageEngine<'a>,
        config: ServiceConfig,
        registry: Arc<MetricsRegistry>,
    ) -> QueryService<'a> {
        let sem = FifoSemaphore::new(config.max_concurrent.max(1));
        let metrics = ServiceMetrics::register(&registry);
        // Surface the storage-side counters (checkpoints, snapshots, WAL,
        // level cache) through this service's scrape endpoint too.
        engine.catalog().attach_metrics(&registry);
        QueryService {
            serial: engine.clone().with_config(ParallelConfig::serial()),
            engine,
            sem,
            config,
            registry,
            metrics,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The registry holding this service's metrics.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The service's metrics in Prometheus text exposition format.
    pub fn render_metrics(&self) -> String {
        self.registry.render()
    }

    /// The shared engine (e.g. to reach its guard for cancel-all).
    pub fn engine(&self) -> &PercentageEngine<'a> {
        &self.engine
    }

    /// Execution slots currently free. Equals `max_concurrent` whenever the
    /// service is idle — if it doesn't, a permit leaked.
    pub fn available_permits(&self) -> usize {
        self.sem.available()
    }

    /// Backoff hint for shed callers: the p90 queue wait of recently
    /// admitted queries, or the configured queue timeout when the
    /// histogram cannot answer (no admissions yet, or the tail sits in
    /// the open-ended bucket).
    fn retry_after_hint(&self) -> Duration {
        self.metrics
            .queue_wait
            .quantile(0.9)
            .map(Duration::from_nanos)
            .unwrap_or(self.config.queue_timeout)
    }

    fn admit(&self) -> Result<Admission<'_>> {
        let start = Instant::now();
        match self
            .sem
            .acquire_timeout(self.config.queue_timeout, self.config.queue_capacity)
        {
            Ok(permit) => {
                self.metrics
                    .queue_wait
                    .observe(start.elapsed().as_nanos() as u64);
                self.metrics.inflight.add(1);
                Ok(Admission {
                    _permit: permit,
                    inflight: Arc::clone(&self.metrics.inflight),
                })
            }
            Err(e) => {
                let queued = e == AcquireError::TimedOut;
                if queued {
                    self.metrics.shed_timeout.inc();
                } else {
                    self.metrics.shed_queue_full.inc();
                }
                Err(ServiceError::Overloaded {
                    queued,
                    max_concurrent: self.config.max_concurrent,
                    queue_depth: self.sem.waiters(),
                    retry_after: self.retry_after_hint(),
                })
            }
        }
    }

    /// Record an admitted query's outcome in the metrics registry and pass
    /// it through.
    fn record(&self, res: Result<ServiceResponse>) -> Result<ServiceResponse> {
        self.metrics.queries.inc();
        match &res {
            Ok(r) => {
                self.metrics.rows_charged.add(r.stats.rows_charged);
                match r.stats.degraded_to {
                    Some(Degradation::Serial) => self.metrics.degraded_serial.inc(),
                    Some(Degradation::SerialThenSpj | Degradation::SpjFallback) => {
                        self.metrics.degraded_spj.inc()
                    }
                    None => {}
                }
            }
            Err(_) => self.metrics.failures.inc(),
        }
        res
    }

    fn resolve_limits(&self, session: &SessionOptions) -> QueryLimits {
        QueryLimits {
            row_budget: session
                .limits
                .row_budget
                .or(self.config.default_limits.row_budget),
            deadline: session
                .limits
                .deadline
                .or(self.config.default_limits.deadline),
        }
    }

    /// Whether the degradation ladder applies to this failure: a budget
    /// trip (a cheaper plan may fit) or a contained panic (the fault may
    /// not recur, and fewer workers means less exposure). Deadline and
    /// cancellation failures are final — retrying cannot beat a clock that
    /// already ran out or a caller that asked to stop.
    fn degradable(&self, e: &CoreError) -> bool {
        self.config.degradation
            && matches!(
                e.abort_cause(),
                Some(AbortCause::Budget | AbortCause::WorkerPanic)
            )
    }

    /// Execute SQL under the default session.
    pub fn execute_sql(&self, sql: &str) -> Result<ServiceResponse> {
        self.execute_sql_session(sql, &SessionOptions::default())
    }

    /// Execute SQL under a session's limits, walking the degradation
    /// ladder on budget trips and contained panics.
    pub fn execute_sql_session(
        &self,
        sql: &str,
        session: &SessionOptions,
    ) -> Result<ServiceResponse> {
        let _admission = self.admit()?;
        let res = self.execute_sql_degraded(sql, session);
        self.record(res)
    }

    /// The degradation-ladder body of [`QueryService::execute_sql_session`],
    /// run while holding an admission slot.
    fn execute_sql_degraded(&self, sql: &str, session: &SessionOptions) -> Result<ServiceResponse> {
        let limits = self.resolve_limits(session);
        let first = match self.engine.execute_sql_limited(sql, limits) {
            Ok(out) => return Ok(respond_owned(out)),
            Err(e) if self.degradable(&e) => e,
            Err(e) => return Err(e.into()),
        };
        let cause = first.abort_cause();
        // Rung 1: the statement as planned, at one thread.
        match self.serial.execute_sql_limited(sql, limits) {
            Ok(mut out) => {
                mark(out.stats_mut(), Degradation::Serial, cause);
                return Ok(respond_owned(out));
            }
            Err(e) if self.degradable(&e) => {}
            Err(e) => return Err(e.into()),
        }
        // Rung 2: also swap CASE evaluation for the SPJ strategy. A `Vpct`
        // statement keeps its plan, so its answer is the clean run's.
        let spj = HorizontalOptions::with_strategy(HorizontalStrategy::SpjDirect);
        match self
            .serial
            .execute_sql_with_limited(sql, None, &spj, limits)
        {
            Ok(mut out) => {
                mark(out.stats_mut(), Degradation::SerialThenSpj, cause);
                Ok(respond_owned(out))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Evaluate a typed vertical query under the default session.
    pub fn vpct(&self, q: &VpctQuery) -> Result<ServiceResponse> {
        self.vpct_session(q, &SessionOptions::default())
    }

    /// Evaluate a typed vertical query under a session's limits. The
    /// vertical path has no cheaper strategy rung, so only a contained
    /// panic earns one retry, at one thread.
    pub fn vpct_session(&self, q: &VpctQuery, session: &SessionOptions) -> Result<ServiceResponse> {
        let _admission = self.admit()?;
        let res = self.vpct_degraded(q, session);
        self.record(res)
    }

    /// The retry body of [`QueryService::vpct_session`], run while holding
    /// an admission slot.
    fn vpct_degraded(&self, q: &VpctQuery, session: &SessionOptions) -> Result<ServiceResponse> {
        let limits = self.resolve_limits(session);
        match self.engine.vpct_limited(q, limits) {
            Ok(r) => Ok(respond(r.snapshot(), r.stats)),
            Err(e)
                if self.config.degradation
                    && matches!(e.abort_cause(), Some(AbortCause::WorkerPanic)) =>
            {
                let cause = e.abort_cause();
                let mut r = self.serial.vpct_limited(q, limits)?;
                mark(&mut r.stats, Degradation::Serial, cause);
                Ok(respond(r.snapshot(), r.stats))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Answer every BY-prefix of `dims` over `table` from one admitted
    /// pass: response `j` holds `Vpct(measure BY dims[j..])` grouped by the
    /// full `dims`, i.e. percentages of each finest group against the
    /// totals at prefix `dims[..j]` (`j = 0` is the grand total). The whole
    /// batch occupies a single admission slot and runs through
    /// [`PercentageEngine::vpct_batch`], which fuses the shared
    /// summary scan and serves coarser totals from the lattice cache, so
    /// asking for all `k` prefixes costs roughly one scan rather than `k`.
    pub fn percentage_batch(
        &self,
        table: &str,
        dims: &[&str],
        measure: &str,
    ) -> Result<Vec<ServiceResponse>> {
        if dims.is_empty() {
            return Err(CoreError::InvalidQuery(
                "percentage_batch requires at least one dimension".into(),
            )
            .into());
        }
        let _admission = self.admit()?;
        let queries: Vec<VpctQuery> = (0..dims.len())
            .map(|j| VpctQuery {
                table: table.to_string(),
                group_by: dims.iter().map(|d| d.to_string()).collect(),
                terms: vec![VpctTerm::new(measure, &dims[j..])],
                extra: Vec::new(),
            })
            .collect();
        self.metrics.queries.inc();
        match self.engine.vpct_batch(&queries) {
            Ok(results) => {
                if let Some(first) = results.first() {
                    self.metrics.rows_charged.add(first.stats.rows_charged);
                }
                Ok(results
                    .into_iter()
                    .map(|r| respond(r.snapshot(), r.stats))
                    .collect())
            }
            Err(e) => {
                self.metrics.failures.inc();
                Err(e.into())
            }
        }
    }

    /// Evaluate a typed horizontal query under the default session.
    pub fn horizontal(&self, q: &HorizontalQuery) -> Result<ServiceResponse> {
        self.horizontal_session(q, &HorizontalOptions::default(), &SessionOptions::default())
    }

    /// Evaluate a typed horizontal query with explicit options under a
    /// session's limits, walking the degradation ladder on budget trips
    /// and contained panics.
    pub fn horizontal_session(
        &self,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
        session: &SessionOptions,
    ) -> Result<ServiceResponse> {
        let _admission = self.admit()?;
        let res = self.horizontal_degraded(q, opts, session);
        self.record(res)
    }

    /// The degradation-ladder body of [`QueryService::horizontal_session`],
    /// run while holding an admission slot.
    fn horizontal_degraded(
        &self,
        q: &HorizontalQuery,
        opts: &HorizontalOptions,
        session: &SessionOptions,
    ) -> Result<ServiceResponse> {
        let limits = self.resolve_limits(session);
        let first = match self.engine.horizontal_limited(q, opts, limits) {
            Ok(r) => return Ok(respond(r.snapshot(), r.stats)),
            Err(e) if self.degradable(&e) => e,
            Err(e) => return Err(e.into()),
        };
        let cause = first.abort_cause();
        match self.serial.horizontal_limited(q, opts, limits) {
            Ok(mut r) => {
                mark(&mut r.stats, Degradation::Serial, cause);
                return Ok(respond(r.snapshot(), r.stats));
            }
            Err(e) if self.degradable(&e) => {}
            Err(e) => return Err(e.into()),
        }
        let spj = HorizontalOptions {
            strategy: spj_counterpart(opts.strategy),
            ..opts.clone()
        };
        match self.serial.horizontal_limited(q, &spj, limits) {
            Ok(mut r) => {
                mark(&mut r.stats, Degradation::SerialThenSpj, cause);
                Ok(respond(r.snapshot(), r.stats))
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// The SPJ strategy reading from the same source as `s`.
fn spj_counterpart(s: HorizontalStrategy) -> HorizontalStrategy {
    match s {
        HorizontalStrategy::CaseDirect => HorizontalStrategy::SpjDirect,
        HorizontalStrategy::CaseFromFv => HorizontalStrategy::SpjFromFv,
        spj => spj,
    }
}

fn mark(stats: &mut ExecStats, degraded: Degradation, cause: Option<AbortCause>) {
    stats.degraded_to = Some(degraded);
    stats.abort_cause = cause;
}

fn respond(table: Table, stats: ExecStats) -> ServiceResponse {
    ServiceResponse { table, stats }
}

/// Respond with the outcome's rows moved out of it: the service holds the
/// only handle to a statement's result. A handle someone else still holds
/// is copied instead.
fn respond_owned(out: SqlOutcome) -> ServiceResponse {
    let (stats, shared) = (out.stats(), out.table());
    drop(out);
    let table =
        Arc::try_unwrap(shared).map_or_else(|held| held.read().clone(), |lock| lock.into_inner());
    respond(table, stats)
}
