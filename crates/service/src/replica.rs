//! Replicated serving: lag-aware read routing, heartbeat health checks,
//! and deterministic failover over WAL-shipped replica catalogs.
//!
//! A [`ReplicaSet`] owns one [`QueryService`] per node. Exactly one node
//! is the **primary**: its engine accepts DML ([`ReplicaSet::append_rows`]
//! / [`ReplicaSet::update_cells`]) and its WAL feeds every replica through
//! a [`pa_storage::ReplicationStream`]. Replicas serve reads in read-only
//! engine mode — DML against them fails with
//! [`pa_core::CoreError::ReadOnlyReplica`].
//!
//! **Routing.** [`ReplicaSet::execute_sql_routed`] sends a read to the
//! least-lagged healthy replica whose last catch-up is within the
//! session's `max_staleness` bound ([`crate::SessionOptions`]), falling
//! back to the primary when no replica qualifies. Every decision is
//! counted per node (`pa_repl_route_total{node=...}`) and the fallback
//! path separately.
//!
//! **Health.** [`ReplicaSet::tick`] is the cluster's heartbeat: responsive
//! nodes stamp the injectable [`Clock`]; a node that misses
//! `down_after_missed` heartbeat intervals is unhealthy and drops out of
//! routing. Tests drive a `TestClock` and [`ReplicaSet::set_down`] to
//! script outages deterministically.
//!
//! **Failover.** When the primary goes unhealthy, `tick` promotes the
//! most-caught-up healthy replica (ties break to the lowest index, so the
//! decision is deterministic). Promotion bumps the cluster's monotonic
//! term: the deposed primary's catalog is sealed at the new term (its
//! writes fail with [`pa_storage::StorageError::Sealed`] — no split
//! brain), the winner records the term in its WAL and starts accepting
//! DML, and surviving replicas resubscribe to the new primary's stream.

use crate::{
    QueryService, Result as ServiceResult, ServiceConfig, ServiceError, ServiceResponse,
    SessionOptions,
};
use pa_core::PercentageEngine;
use pa_obs::{Clock, Counter, Gauge, MetricsRegistry, Tracer};
use pa_storage::{Catalog, ReplicaApplier, ReplicationStream, ShipTransport, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning for a [`ReplicaSet`].
#[derive(Debug, Clone)]
pub struct ReplicaSetConfig {
    /// How often [`ReplicaSet::tick`] is expected to run; health and
    /// staleness are measured in multiples of this.
    pub heartbeat_interval: Duration,
    /// Heartbeat intervals a node may miss before it is unhealthy.
    pub down_after_missed: u32,
    /// Staleness bound for sessions that don't set their own.
    pub default_max_staleness: Duration,
    /// Catch-up round budget per replica per tick (see
    /// [`ReplicationStream::with_max_rounds`]).
    pub sync_rounds: u64,
    /// Admission/degradation settings for every node's [`QueryService`].
    pub service: ServiceConfig,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            heartbeat_interval: Duration::from_millis(100),
            down_after_missed: 3,
            default_max_staleness: Duration::from_secs(1),
            sync_rounds: 64,
            service: ServiceConfig::default(),
        }
    }
}

/// A node's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Accepts DML; feeds the replication streams.
    Primary,
    /// Read-only; applies the primary's stream.
    Replica,
}

/// One node's view in a [`ReplicaSet::status`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// Stable node name (`node0`, `node1`, ...).
    pub name: String,
    /// Role at report time.
    pub role: NodeRole,
    /// Whether the node passes the heartbeat health check.
    pub healthy: bool,
    /// LSNs the node's applier trails the primary's WAL by (0 for the
    /// primary itself).
    pub lag_lsns: u64,
    /// Wall-clock ms since the node last caught up to the primary.
    pub lag_ms: u64,
    /// Highest LSN the node's applier has applied.
    pub applied_lsn: u64,
}

/// A routed read: which node answered, and its response.
#[derive(Debug, Clone)]
pub struct RoutedResponse {
    /// Name of the node that served the query.
    pub node: String,
    /// Whether the read fell back to the primary.
    pub primary_fallback: bool,
    /// The query result.
    pub response: ServiceResponse,
}

/// Replica-side machinery serialized under one lock: the LSN watermark
/// and the transport. Queries never take this lock — they only read the
/// catalog.
struct ReplLink {
    applier: ReplicaApplier,
    stream: ReplicationStream,
}

struct Node<'a> {
    name: String,
    service: QueryService<'a>,
    link: Mutex<ReplLink>,
    /// Clock offset (ns) of the node's last heartbeat.
    heartbeat_ns: AtomicU64,
    /// Clock offset (ns) when the node last fully caught up. `u64::MAX`
    /// until the first catch-up, so an unsynced replica is never routable.
    fresh_ns: AtomicU64,
    /// Test/ops hook: a down node stops heartbeating and syncing.
    down: AtomicBool,
    lag_lsns: Arc<Gauge>,
    lag_ms: Arc<Gauge>,
    routed: Arc<Counter>,
}

/// Registry handles for the cluster-wide replication counters.
struct ReplMetrics {
    applied: Arc<Counter>,
    shipped: Arc<Counter>,
    rejected: Arc<Counter>,
    bootstraps: Arc<Counter>,
    failovers: Arc<Counter>,
    fallback: Arc<Counter>,
}

/// A primary plus read replicas behind lag-aware routing and failover.
/// See the [module docs](self) for the protocol.
pub struct ReplicaSet<'a> {
    nodes: Vec<Node<'a>>,
    primary: AtomicUsize,
    cluster_term: AtomicU64,
    config: ReplicaSetConfig,
    clock: Arc<dyn Clock>,
    registry: Arc<MetricsRegistry>,
    tracer: Tracer,
    metrics: ReplMetrics,
}

impl std::fmt::Debug for ReplicaSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("nodes", &self.nodes.len())
            .field("primary", &self.primary.load(Ordering::Relaxed))
            .field("cluster_term", &self.cluster_term.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> ReplicaSet<'a> {
    /// Build a cluster: `catalogs[0]` starts as primary, the rest as
    /// replicas, each replica fed through its own transport from
    /// `transports` (shorter `transports` pads with
    /// [`pa_storage::DirectTransport`]; the primary's slot is unused until
    /// it is demoted). Panics if `catalogs` is empty.
    pub fn new(
        catalogs: &[&'a Catalog],
        mut transports: Vec<Box<dyn ShipTransport>>,
        config: ReplicaSetConfig,
        clock: Arc<dyn Clock>,
    ) -> ReplicaSet<'a> {
        assert!(
            !catalogs.is_empty(),
            "a replica set needs at least one node"
        );
        let registry = MetricsRegistry::shared();
        let metrics = ReplMetrics {
            applied: registry.counter(
                "pa_repl_applied_records_total",
                "WAL records applied across all replicas",
            ),
            shipped: registry.counter(
                "pa_repl_shipped_frames_total",
                "WAL frames handed to replication transports",
            ),
            rejected: registry.counter(
                "pa_repl_rejected_frames_total",
                "Shipped frames rejected by CRC/decode re-verification",
            ),
            bootstraps: registry.counter(
                "pa_repl_bootstraps_total",
                "Checkpoint-image bootstraps installed on replicas",
            ),
            failovers: registry.counter(
                "pa_repl_failovers_total",
                "Promotions after a primary health failure",
            ),
            fallback: registry.counter(
                "pa_repl_route_fallback_total",
                "Routed reads sent to the primary because no replica met the staleness bound",
            ),
        };
        let now_ns = clock.now().as_nanos() as u64;
        transports.resize_with(catalogs.len(), || Box::new(pa_storage::DirectTransport));
        let nodes: Vec<Node<'a>> = catalogs
            .iter()
            .zip(transports)
            .enumerate()
            .map(|(i, (catalog, transport))| {
                let name = format!("node{i}");
                let engine = PercentageEngine::new(catalog);
                if i != 0 {
                    engine.set_read_only(true);
                }
                Node {
                    service: QueryService::from_engine_with_metrics(
                        engine,
                        config.service,
                        Arc::clone(&registry),
                    ),
                    link: Mutex::new(ReplLink {
                        applier: ReplicaApplier::new(),
                        stream: ReplicationStream::new(transport)
                            .with_max_rounds(config.sync_rounds),
                    }),
                    heartbeat_ns: AtomicU64::new(now_ns),
                    fresh_ns: AtomicU64::new(u64::MAX),
                    down: AtomicBool::new(false),
                    lag_lsns: registry.gauge(
                        &format!("pa_repl_lag_lsns{{node=\"{name}\"}}"),
                        "LSNs this node trails the primary by",
                    ),
                    lag_ms: registry.gauge(
                        &format!("pa_repl_lag_ms{{node=\"{name}\"}}"),
                        "Milliseconds since this node last caught up",
                    ),
                    routed: registry.counter(
                        &format!("pa_repl_route_total{{node=\"{name}\"}}"),
                        "Routed reads served by this node",
                    ),
                    name,
                }
            })
            .collect();
        ReplicaSet {
            nodes,
            primary: AtomicUsize::new(0),
            cluster_term: AtomicU64::new(catalogs[0].term()),
            config,
            clock,
            registry,
            tracer: Tracer::disabled(),
            metrics,
        }
    }

    /// Record routing and failover decisions as trace spans too.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The registry holding every node's service metrics plus the
    /// `pa_repl_*` family.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// All metrics in Prometheus text exposition format.
    pub fn render_metrics(&self) -> String {
        self.registry.render()
    }

    /// Name of the current primary.
    pub fn primary_name(&self) -> &str {
        &self.nodes[self.primary.load(Ordering::Acquire)].name
    }

    /// The cluster's monotonic failover term.
    pub fn cluster_term(&self) -> u64 {
        self.cluster_term.load(Ordering::Relaxed)
    }

    /// Mark a node down (it stops heartbeating and syncing) or back up.
    /// An outage becomes *observable* at the next [`ReplicaSet::tick`]
    /// after `down_after_missed` heartbeat intervals pass on the clock.
    pub fn set_down(&self, name: &str, down: bool) {
        if let Some(node) = self.nodes.iter().find(|n| n.name == name) {
            node.down.store(down, Ordering::Release);
        }
    }

    fn primary_idx(&self) -> usize {
        self.primary.load(Ordering::Acquire)
    }

    fn healthy(&self, node: &Node<'a>, now_ns: u64) -> bool {
        let deadline = self.config.heartbeat_interval.as_nanos() as u64
            * u64::from(self.config.down_after_missed);
        now_ns.saturating_sub(node.heartbeat_ns.load(Ordering::Acquire)) <= deadline
    }

    /// One heartbeat + catch-up + failover pass. Responsive nodes stamp
    /// the clock; every healthy replica syncs from the primary's WAL and
    /// updates its lag gauges; if the primary itself has missed too many
    /// heartbeats, the most-caught-up healthy replica is promoted.
    /// Returns the post-tick [`ReplicaSet::status`].
    pub fn tick(&self) -> ServiceResult<Vec<NodeStatus>> {
        let now_ns = self.clock.now().as_nanos() as u64;
        for node in &self.nodes {
            if !node.down.load(Ordering::Acquire) {
                node.heartbeat_ns.store(now_ns, Ordering::Release);
            }
        }
        let primary_idx = self.primary_idx();
        if !self.healthy(&self.nodes[primary_idx], now_ns) {
            self.promote(now_ns)?;
        }
        self.sync_replicas(now_ns)?;
        Ok(self.status())
    }

    /// Catch every healthy replica up to the current primary (also run by
    /// [`ReplicaSet::tick`]). Callers wanting a quiesced, fully-converged
    /// cluster (tests, benchmarks) call this directly.
    pub fn sync_replicas(&self, now_ns: u64) -> ServiceResult<()> {
        let primary_idx = self.primary_idx();
        let primary_catalog = self.nodes[primary_idx].service.engine().catalog();
        for (i, node) in self.nodes.iter().enumerate() {
            if i == primary_idx {
                node.lag_lsns.set(0);
                node.lag_ms.set(0);
                continue;
            }
            if node.down.load(Ordering::Acquire) {
                continue;
            }
            let mut span = self.tracer.span("repl_sync");
            let replica_catalog = node.service.engine().catalog();
            let mut link = node.link.lock().expect("replication link poisoned");
            let link = &mut *link;
            let report = link
                .stream
                .sync(primary_catalog, replica_catalog, &mut link.applier)
                .map_err(|e| ServiceError::Query(pa_core::CoreError::Storage(e)))?;
            self.metrics.shipped.add(report.shipped_frames);
            self.metrics.applied.add(report.applied_records);
            self.metrics.rejected.add(report.rejected_frames);
            self.metrics.bootstraps.add(report.bootstraps);
            let target = primary_catalog.with_wal(|w| w.next_lsn());
            let lag = target.saturating_sub(link.applier.next_lsn());
            node.lag_lsns.set(lag as i64);
            if report.caught_up {
                node.fresh_ns.store(now_ns, Ordering::Release);
            }
            let fresh = node.fresh_ns.load(Ordering::Acquire);
            let lag_ms = if fresh == u64::MAX {
                i64::MAX
            } else {
                (now_ns.saturating_sub(fresh) / 1_000_000) as i64
            };
            node.lag_ms.set(lag_ms);
            span.add_rows(report.applied_records);
            span.finish();
        }
        Ok(())
    }

    /// Promote the most-caught-up healthy replica (ties break to the
    /// lowest node index). The deposed primary is sealed at the new term;
    /// surviving replicas resubscribe to the winner's stream (its LSN
    /// space is a new timeline, so they re-bootstrap from its image).
    /// No-op error when no healthy replica exists.
    fn promote(&self, now_ns: u64) -> ServiceResult<()> {
        let old_idx = self.primary_idx();
        let winner = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, node)| i != old_idx && self.healthy(node, now_ns))
            .map(|(i, node)| {
                let applied = node.link.lock().expect("link").applier.applied_lsn();
                (applied, std::cmp::Reverse(i))
            })
            .max()
            .map(|(_, std::cmp::Reverse(i))| i);
        let Some(new_idx) = winner else {
            // Nothing to promote onto; keep serving from the sick primary
            // rather than taking the whole set down.
            return Ok(());
        };
        let mut span = self.tracer.span("repl_failover");
        let new_term = self.cluster_term.load(Ordering::Relaxed) + 1;
        let old = &self.nodes[old_idx];
        let new = &self.nodes[new_idx];
        // Fence the deposed primary first: even if promotion fails past
        // this point, two writable primaries can never coexist.
        old.service.engine().catalog().seal(new_term);
        old.service.engine().set_read_only(true);
        let new_catalog = new.service.engine().catalog();
        new_catalog
            .begin_term(new_term)
            .map_err(|e| ServiceError::Query(pa_core::CoreError::Storage(e)))?;
        // The winner's pre-promotion state arrived via *unlogged* replica
        // apply, so its WAL holds none of it. Drop the retained window:
        // resubscribed followers then find no shippable prefix and
        // bootstrap from the winner's full image instead of a WAL stream
        // that would silently miss the base state.
        new_catalog
            .with_wal(|w| {
                let head = w.next_lsn();
                w.compact(head)
            })
            .map_err(|e| ServiceError::Query(pa_core::CoreError::Storage(e)))?;
        new.service.engine().set_read_only(false);
        self.cluster_term.store(new_term, Ordering::Relaxed);
        self.primary.store(new_idx, Ordering::Release);
        for (i, node) in self.nodes.iter().enumerate() {
            if i == new_idx {
                continue;
            }
            // New primary, new LSN timeline: start the subscription over.
            node.link.lock().expect("link").applier.resubscribe();
            node.fresh_ns.store(u64::MAX, Ordering::Release);
        }
        self.metrics.failovers.inc();
        span.set_detail("promoted");
        span.finish();
        Ok(())
    }

    /// Per-node health, role, and lag.
    pub fn status(&self) -> Vec<NodeStatus> {
        let now_ns = self.clock.now().as_nanos() as u64;
        let primary_idx = self.primary_idx();
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let (applied, lag) = if i == primary_idx {
                    (0, 0)
                } else {
                    let link = node.link.lock().expect("link");
                    let target = self.nodes[primary_idx]
                        .service
                        .engine()
                        .catalog()
                        .with_wal(|w| w.next_lsn());
                    (
                        link.applier.applied_lsn(),
                        target.saturating_sub(link.applier.next_lsn()),
                    )
                };
                let fresh = node.fresh_ns.load(Ordering::Acquire);
                NodeStatus {
                    name: node.name.clone(),
                    role: if i == primary_idx {
                        NodeRole::Primary
                    } else {
                        NodeRole::Replica
                    },
                    healthy: self.healthy(node, now_ns),
                    lag_lsns: lag,
                    lag_ms: if i == primary_idx || fresh == u64::MAX {
                        0
                    } else {
                        now_ns.saturating_sub(fresh) / 1_000_000
                    },
                    applied_lsn: applied,
                }
            })
            .collect()
    }

    /// Pick the serving node for a read under `bound`: the least-lagged
    /// healthy replica whose last catch-up is within the staleness bound,
    /// else the primary.
    fn route(&self, bound: Duration) -> (usize, bool) {
        let now_ns = self.clock.now().as_nanos() as u64;
        let primary_idx = self.primary_idx();
        let budget_ns = bound.as_nanos() as u64;
        let best = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, node)| {
                i != primary_idx
                    && !node.down.load(Ordering::Acquire)
                    && self.healthy(node, now_ns)
                    && now_ns.saturating_sub(node.fresh_ns.load(Ordering::Acquire)) <= budget_ns
            })
            .min_by_key(|&(i, node)| (node.lag_lsns.get(), i));
        match best {
            Some((i, _)) => (i, false),
            None => (primary_idx, true),
        }
    }

    /// Execute a read, routed to the least-lagged healthy replica within
    /// the session's `max_staleness` (falling back to the set default,
    /// then to the primary when no replica qualifies).
    pub fn execute_sql_routed(
        &self,
        sql: &str,
        session: &SessionOptions,
    ) -> ServiceResult<RoutedResponse> {
        let bound = session
            .max_staleness
            .unwrap_or(self.config.default_max_staleness);
        let (idx, fallback) = self.route(bound);
        let node = &self.nodes[idx];
        node.routed.inc();
        if fallback {
            self.metrics.fallback.inc();
        }
        let mut span = self.tracer.span("repl_route");
        span.set_detail(if fallback {
            "primary_fallback"
        } else {
            "replica"
        });
        let response = node.service.execute_sql_session(sql, session)?;
        span.finish();
        Ok(RoutedResponse {
            node: node.name.clone(),
            primary_fallback: fallback,
            response,
        })
    }

    /// The primary's [`QueryService`] — for writes' SQL surface or direct
    /// primary reads.
    pub fn primary_service(&self) -> &QueryService<'a> {
        &self.nodes[self.primary_idx()].service
    }

    /// Service of a node by name (tests exercise replicas directly).
    pub fn service(&self, name: &str) -> Option<&QueryService<'a>> {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .map(|n| &n.service)
    }

    /// Append rows through the current primary's engine (WAL-logged, so
    /// the change ships to every replica on the next tick).
    pub fn append_rows(&self, table: &str, rows: &[Vec<Value>]) -> ServiceResult<u64> {
        self.primary_service()
            .engine()
            .append_rows(table, rows)
            .map_err(ServiceError::Query)
    }

    /// Update one row's cells through the current primary's engine.
    pub fn update_cells(
        &self,
        table: &str,
        row: usize,
        cols: &[usize],
        values: &[Value],
    ) -> ServiceResult<()> {
        self.primary_service()
            .engine()
            .update_cells(table, row, cols, values)
            .map_err(ServiceError::Query)
    }
}
