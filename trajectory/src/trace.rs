//! The traced run: replay each query class single-client and time every
//! layer from outside, by calling that layer's public entry point with the
//! request's own input.
//!
//! ```text
//! service.execute_sql            QueryService::execute_sql(text)
//! └ core.execute_sql             PercentageEngine::execute_sql_limited(text)
//!   ├ sql.parse                  pa_sql::parse
//!   ├ sql.validate               pa_sql::validate
//!   ├ core.plan                  from_sql + choose_*_strategy
//!   └ core.typed                 vpct_with / horizontal_with / lattice evaluator
//!     ├ storage.pin              Catalog::pin_table
//!     └ engine.kernel            the fact-table scan the plan runs
//! ```
//!
//! Each call is made on its own, one after the other, and recorded as a span
//! *in the place* it occupies inside its caller: a child starts where the
//! previous sibling ended and is clipped to what is left of its parent. A
//! layer's self time is its span minus its children, so the self times of a
//! request add up to the outermost span exactly; how much measured time was
//! clipped away is reported as `trace.clipped_share`. The program's own
//! tracer is not used for any of this (it is measured, as
//! `core.span_coverage` and `core.trace_overhead_ratio`).

use crate::data::to_values;
use crate::stmt::{Extra, Grouping, Stmt, Term};
use crate::workloads::{ingest_batch, Kind, Plan};
use percentage_aggregations::core::{
    choose_horizontal_strategy, choose_vpct_strategy, dispatch::pivot_aggregate_with_config,
    dispatch::PivotTask, eval_vpct_lattice_guarded, from_sql, per_set_statements,
    HorizontalOptions, Query, QueryLimits,
};
use percentage_aggregations::engine::{
    distinct_keys, filter, lattice_aggregate_with_config, multi_hash_aggregate_with_config,
    AggFunc, AggSpec, ExecStats, Expr, PBits, ParallelConfig, ResourceGuard,
};
use percentage_aggregations::service::QueryService;
use percentage_aggregations::storage::{Catalog, Table, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Requests replayed per query class.
pub const REQUESTS_PER_CLASS: usize = 30;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The call's own measured duration, before clipping to its parent.
    pub measured_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The harness's in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Per request: its class.
    pub classes: Vec<String>,
    clipped_ns: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            classes: Vec::new(),
            clipped_ns: 0,
        }
    }

    fn root(&mut self, name: &'static str, request: u32, started: Instant, ns: u64) -> usize {
        let start_ns = (started - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns,
            end_ns: start_ns + ns,
            measured_ns: ns,
        });
        self.spans.len() - 1
    }

    /// Record a call that ran for `ns` as the next child of `parent`.
    fn child(&mut self, name: &'static str, parent: usize, ns: u64) -> usize {
        let p = &self.spans[parent];
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let end_ns = (start_ns + ns).min(p.end_ns);
        self.clipped_ns += start_ns + ns - end_ns;
        let request = p.request;
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_ns,
            end_ns,
            measured_ns: ns,
        });
        self.spans.len() - 1
    }

    /// Self time per span: duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    /// Measured time that did not fit inside its parent, as a share of
    /// all outermost spans.
    pub fn clipped_share(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        if roots == 0 {
            0.0
        } else {
            self.clipped_ns as f64 / roots as f64
        }
    }

    /// Largest relative gap, over requests, between the outermost span and
    /// the sum of self times under it.
    pub fn self_sum_error_max(&self) -> f64 {
        let own = self.self_ns();
        let mut sums: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let e = sums.entry(s.request).or_insert((0, 0));
            e.1 += own;
            if s.parent.is_none() {
                e.0 = s.duration_ns();
            }
        }
        sums.values()
            .filter(|(root, _)| *root > 0)
            .map(|&(root, own)| (root as f64 - own as f64).abs() / root as f64)
            .fold(0.0, f64::max)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"requests\": ["
        );
        for (i, c) in self.classes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{{\"id\": {i}, \"class\": \"{c}\"}}");
        }
        out.push_str("], \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start\": {}, \"end\": {}, \"measured\": {}}}{sep}",
                s.name, s.request, s.start_ns, s.end_ns, s.measured_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Counts read at the request boundary, summed over a run's requests.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: u64,
    pub stats: ExecStats,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub combo_hits: u64,
    pub combo_misses: u64,
    pub lattice_hits: u64,
    pub lattice_misses: u64,
    /// Requests the lattice evaluator served, and those of them that read
    /// no fact-table row.
    pub lattice_requests: u64,
    pub lattice_scan_free: u64,
    pub pin_after_write_ns: Vec<f64>,
    pub result_clone_ns: Vec<f64>,
    pub traced_ns: Vec<f64>,
    pub span_coverage: Vec<f64>,
}

fn ns_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos() as u64, r)
}

fn col(t: &Table, name: &str) -> usize {
    t.schema()
        .index_of(name)
        .unwrap_or_else(|_| panic!("no column {name}"))
}

fn agg_specs(stmt: &Stmt, t: &Table) -> Vec<AggSpec> {
    let m = || Expr::Col(col(t, &stmt.measure));
    let mut specs: Vec<AggSpec> = stmt
        .terms
        .iter()
        .enumerate()
        .map(|(i, _)| AggSpec::new(AggFunc::Sum, m(), format!("t{i}")))
        .collect();
    for (i, e) in stmt.extras.iter().enumerate() {
        let (func, input) = extra_lane(e, t, &stmt.measure);
        specs.push(AggSpec::new(func, input, format!("x{i}")));
    }
    specs
}

fn extra_lane(e: &Extra, t: &Table, measure: &str) -> (AggFunc, Expr) {
    let m = Expr::Col(col(t, measure));
    match e {
        Extra::Sum => (AggFunc::Sum, m),
        Extra::CountStar => (AggFunc::CountStar, Expr::lit(1)),
        Extra::Median => (AggFunc::Percentile(PBits::new(0.5)), m),
        Extra::Percentile(p) => (AggFunc::Percentile(PBits::new(*p)), m),
        Extra::ApproxPercentile(p) => (AggFunc::ApproxPercentile(PBits::new(*p)), m),
        Extra::ApproxCountDistinct(c) => (AggFunc::ApproxCountDistinct, Expr::Col(col(t, c))),
    }
}

/// The fact-table scan a statement's plan runs, as a direct engine call.
enum Kernel {
    /// `multi_hash_aggregate` at the GROUP BY (single-term flat `Vpct`).
    Aggregate {
        cols: Vec<usize>,
        specs: Vec<AggSpec>,
    },
    /// `pivot_aggregate` (flat `Hpct` / `Hagg`, CASE-direct plan).
    Pivot {
        cols: Vec<usize>,
        tasks: Vec<PivotTask>,
        extras: Vec<(AggFunc, Expr)>,
    },
    /// One fused `lattice_aggregate` over the statement's levels
    /// (multi-term and ROLLUP / CUBE / GROUPING SETS `Vpct`).
    Lattice {
        cols: Vec<usize>,
        specs: Vec<AggSpec>,
        levels: Vec<Vec<usize>>,
    },
}

fn build_kernel(stmt: &Stmt, t: &Table) -> Kernel {
    let cols: Vec<usize> = stmt.group_by.iter().map(|c| col(t, c)).collect();
    if !stmt.is_vertical() {
        let tasks = stmt
            .terms
            .iter()
            .map(|term| {
                let (by, lane, total) = match term {
                    Term::Hpct { by } => (
                        by,
                        (AggFunc::Sum, Expr::Col(col(t, &stmt.measure))),
                        Some(Expr::Col(col(t, &stmt.measure))),
                    ),
                    Term::HSum { by } => {
                        (by, (AggFunc::Sum, Expr::Col(col(t, &stmt.measure))), None)
                    }
                    Term::HCount { by } => (by, (AggFunc::CountStar, Expr::lit(1)), None),
                    Term::Vpct { .. } => unreachable!("horizontal statement"),
                };
                let by_cols: Vec<usize> = by.iter().map(|c| col(t, c)).collect();
                let mut combos = distinct_keys(t, &by_cols, &mut ExecStats::default())
                    .expect("BY columns exist");
                combos.sort_by(|a: &Vec<Value>, b| {
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| x.total_cmp(y))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                PivotTask {
                    by_cols,
                    lanes: vec![lane],
                    combos,
                    total,
                }
            })
            .collect();
        let extras = stmt
            .extras
            .iter()
            .map(|e| extra_lane(e, t, &stmt.measure))
            .collect();
        return Kernel::Pivot {
            cols,
            tasks,
            extras,
        };
    }
    let specs = agg_specs(stmt, t);
    if stmt.grouping == Grouping::Flat && stmt.terms.len() == 1 {
        return Kernel::Aggregate { cols, specs };
    }
    // Levels as positions into GROUP BY: every non-empty grouping set, and
    // for a flat multi-term statement the root plus each term's totals key.
    let mut levels: Vec<Vec<usize>> = Vec::new();
    let mut add = |names: Vec<&String>| {
        let mut l: Vec<usize> = names
            .iter()
            .map(|n| stmt.group_by.iter().position(|g| g == *n).expect("subset"))
            .collect();
        l.sort_unstable();
        if !l.is_empty() && !levels.contains(&l) {
            levels.push(l);
        }
    };
    for set in stmt.grouping_sets() {
        add(set.iter().collect());
        for term in &stmt.terms {
            if let Term::Vpct { by, .. } = term {
                let by: Vec<&String> = by.iter().filter(|b| set.contains(b)).collect();
                if !by.is_empty() {
                    add(set.iter().filter(|c| !by.contains(c)).collect());
                }
            }
        }
    }
    Kernel::Lattice {
        cols,
        specs,
        levels,
    }
}

fn run_kernel(k: &Kernel, t: &Table) -> ExecStats {
    let guard = ResourceGuard::counting();
    let cfg = ParallelConfig::from_env();
    let mut stats = ExecStats::default();
    match k {
        Kernel::Aggregate { cols, specs } => {
            let out = multi_hash_aggregate_with_config(
                t,
                &[(cols.clone(), specs.clone())],
                &guard,
                &mut stats,
                &cfg,
            )
            .expect("aggregate kernel");
            black_box(out);
        }
        Kernel::Pivot {
            cols,
            tasks,
            extras,
        } => {
            let out = pivot_aggregate_with_config(t, cols, tasks, extras, &guard, &mut stats, &cfg)
                .expect("pivot kernel");
            black_box(out);
        }
        Kernel::Lattice {
            cols,
            specs,
            levels,
        } => {
            let out =
                lattice_aggregate_with_config(t, cols, specs, levels, &guard, &mut stats, &cfg)
                    .expect("lattice kernel");
            black_box(out);
        }
    }
    stats
}

/// One statement prepared for replay.
struct Prepared<'p> {
    stmt: &'p Stmt,
    sql: String,
    /// Table the typed call and the kernel read: the statement's own, or
    /// the harness-materialized WHERE result.
    source: String,
}

const WHERE_VIEW: &str = "trj_where_view";
const TYPED_PREFIX: &str = "trjt_";

pub struct Replay<'a> {
    pub svc: &'a QueryService<'a>,
    pub catalog: &'a Catalog,
    pub plan: &'a Plan,
    pub seed: u64,
    /// Next write batch (ingest: one append before every request, so each
    /// request meets cold caches like the readers beside a live writer do).
    pub next_seq: u64,
}

impl Replay<'_> {
    fn cold(&self, table: &str) {
        if self.plan.kind == Kind::Ingest {
            self.catalog.invalidate_combos(table);
        }
    }

    /// The typed call standing in for what `execute_sql` runs after
    /// planning. Returns the work counters it reported.
    fn typed(&self, p: &Prepared<'_>, ast: &percentage_aggregations::sql::SelectStmt) -> ExecStats {
        let engine = self.svc.engine();
        if ast.grouping.is_flat() {
            let mut query = from_sql(ast).expect("statement plans");
            match &mut query {
                Query::Vertical(q) => q.table = p.source.clone(),
                Query::Horizontal(q) => q.table = p.source.clone(),
            }
            return match query {
                Query::Vertical(q) if q.terms.len() == 1 => {
                    let strat = choose_vpct_strategy(self.catalog, &q);
                    engine.vpct_with(&q, &strat).expect("typed vpct").stats
                }
                Query::Vertical(q) => engine.vpct(&q).expect("typed vpct").stats,
                Query::Horizontal(q) => {
                    let strategy = choose_horizontal_strategy(self.catalog, &q).expect("strategy");
                    let opts = HorizontalOptions::with_strategy(strategy);
                    engine
                        .horizontal_with(&q, &opts)
                        .expect("typed horizontal")
                        .stats
                }
            };
        }
        // Grouping sets: every set through the lattice evaluator against
        // one pinned source, as the executor does (its union of the
        // per-set results stays in core.execute_sql's self time).
        let view = self.catalog.pin_table(&p.source).expect("source exists");
        let guard = ResourceGuard::counting();
        let mut stats = ExecStats::default();
        for (_, flat) in per_set_statements(ast).expect("sets expand") {
            let Some(flat) = flat else { continue };
            let Query::Vertical(mut q) = from_sql(&flat).expect("set plans") else {
                unreachable!("only Vpct statements carry grouping sets here");
            };
            q.table = view.alias().to_string();
            let r = eval_vpct_lattice_guarded(self.catalog, &q, TYPED_PREFIX, &guard)
                .expect("typed lattice");
            stats += r.stats;
        }
        self.catalog.drop_prefixed(TYPED_PREFIX);
        stats
    }

    /// Replay one request of `p`, recording its spans.
    fn request(&mut self, p: &Prepared<'_>, rec: &mut Recorder, counts: &mut Counts) {
        let table = &p.stmt.table;
        if self.plan.kind == Kind::Ingest {
            let rows = to_values(&ingest_batch(
                self.seed,
                self.next_seq,
                self.plan.batch_rows,
            ));
            self.next_seq += 1;
            self.svc
                .engine()
                .append_rows(table, &rows)
                .expect("replay append");
            let (ns, view) = ns_of(|| self.catalog.pin_table(table));
            counts.pin_after_write_ns.push(ns as f64);
            drop(view);
        }
        let request = rec.classes.len() as u32;
        rec.classes.push(p.stmt.class.clone());

        // Outermost: the service call, with the counts read at its boundary.
        let wal0 = self.catalog.wal_stats();
        let combo0 = self.catalog.combo_cache().stats();
        let lat0 = self.catalog.lattice_cache().stats();
        let started = Instant::now();
        let (ns, resp) = ns_of(|| {
            self.svc
                .execute_sql(&p.sql)
                .expect("replayed statement runs")
        });
        let wal1 = self.catalog.wal_stats();
        let combo1 = self.catalog.combo_cache().stats();
        let lat1 = self.catalog.lattice_cache().stats();
        let root = rec.root("service.execute_sql", request, started, ns);
        counts.requests += 1;
        counts.stats += resp.stats;
        counts.wal_records += wal1.records - wal0.records;
        counts.wal_bytes += wal1.bytes_written - wal0.bytes_written;
        counts.combo_hits += combo1.hits - combo0.hits;
        counts.combo_misses += combo1.misses - combo0.misses;
        counts.lattice_hits += lat1.hits - lat0.hits;
        counts.lattice_misses += lat1.misses - lat0.misses;
        if resp.stats.lattice_levels > 0 {
            counts.lattice_requests += 1;
            counts.lattice_scan_free += u64::from(resp.stats.levels_from_scan == 0);
        }
        let (ns, copy) = ns_of(|| resp.table.clone());
        counts.result_clone_ns.push(ns as f64);
        drop(copy);
        let scanned = resp.stats.levels_from_scan > 0 || resp.stats.lattice_levels == 0;
        drop(resp);

        self.cold(table);
        let engine = self.svc.engine();
        let (ns, out) = ns_of(|| {
            engine
                .execute_sql_limited(&p.sql, QueryLimits::none())
                .expect("core executes")
        });
        drop(out);
        let core = rec.child("core.execute_sql", root, ns);

        let (ns, ast) = ns_of(|| percentage_aggregations::sql::parse(&p.sql).expect("parses"));
        rec.child("sql.parse", core, ns);
        let (ns, kind) = ns_of(|| percentage_aggregations::sql::validate(&ast).expect("valid"));
        black_box(kind);
        rec.child("sql.validate", core, ns);
        let (ns, _) = ns_of(|| {
            if ast.grouping.is_flat() {
                match from_sql(&ast).expect("plans") {
                    Query::Vertical(q) => {
                        black_box(choose_vpct_strategy(self.catalog, &q));
                    }
                    Query::Horizontal(q) => {
                        black_box(choose_horizontal_strategy(self.catalog, &q).expect("strategy"));
                    }
                }
            } else {
                for (_, flat) in per_set_statements(&ast).expect("sets expand") {
                    if let Some(flat) = flat {
                        black_box(from_sql(&flat).expect("set plans"));
                    }
                }
            }
        });
        rec.child("core.plan", core, ns);

        self.cold(table);
        let (ns, _) = ns_of(|| black_box(self.typed(p, &ast)));
        let typed = rec.child("core.typed", core, ns);

        let (ns, view) = ns_of(|| self.catalog.pin_table(&p.source).expect("source exists"));
        rec.child("storage.pin", typed, ns);
        if scanned {
            let shared = view.table().clone();
            let t = shared.read();
            let kernel = build_kernel(p.stmt, &t);
            let (ns, _) = ns_of(|| black_box(run_kernel(&kernel, &t)));
            rec.child("engine.kernel", typed, ns);
        }

        // The program's own tracer, measured against the untraced call.
        self.cold(table);
        let (ns, traced) = ns_of(|| {
            engine
                .execute_sql_traced(&p.sql, QueryLimits::none())
                .expect("traced run")
        });
        counts.traced_ns.push(ns as f64);
        let report = traced.1;
        if let Some(root) = report.root() {
            let covered: u64 = report.children(root.id).map(|s| s.duration_ns()).sum();
            if root.duration_ns() > 0 {
                counts
                    .span_coverage
                    .push(covered as f64 / root.duration_ns() as f64);
            }
        }
    }

    /// Replay every class; the first statement of a class stands for it.
    pub fn run(&mut self, requests_per_class: usize) -> (Recorder, Counts) {
        let mut rec = Recorder::new();
        let mut counts = Counts::default();
        for class in self.plan.classes() {
            let stmt = self
                .plan
                .stmts
                .iter()
                .find(|s| s.class == class)
                .expect("class has a statement");
            let source = if stmt.where_.is_empty() {
                stmt.table.clone()
            } else {
                // The WHERE result the executor would materialize, built once
                // here so the typed call and the kernel read what it reads.
                let ast = percentage_aggregations::sql::parse(&stmt.sql()).expect("parses");
                let shared = self.catalog.table(&stmt.table).expect("table exists");
                let filtered = {
                    let f = shared.read();
                    let pred = percentage_aggregations::core::query::ast_to_expr(
                        ast.where_clause.as_ref().expect("WHERE present"),
                        f.schema(),
                    )
                    .expect("predicate resolves");
                    filter(&f, &pred, &mut ExecStats::default()).expect("filter runs")
                };
                self.catalog.create_or_replace_table(WHERE_VIEW, filtered);
                WHERE_VIEW.to_string()
            };
            let p = Prepared {
                stmt,
                sql: stmt.sql(),
                source,
            };
            // One unrecorded request first: caches fill and lazy set-up
            // finishes before anything is timed.
            self.request(&p, &mut Recorder::new(), &mut Counts::default());
            for _ in 0..requests_per_class {
                self.request(&p, &mut rec, &mut counts);
            }
        }
        if self.catalog.contains(WHERE_VIEW) {
            let _ = self.catalog.drop_table(WHERE_VIEW);
        }
        (rec, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_even_when_a_child_overruns() {
        let mut rec = Recorder::new();
        rec.classes.push("c".into());
        let root = rec.root("service.execute_sql", 0, Instant::now(), 1_000);
        let core = rec.child("core.execute_sql", root, 900);
        rec.child("sql.parse", core, 100);
        // Measured longer than what is left of its parent: clipped.
        let typed = rec.child("core.typed", core, 5_000);
        rec.child("engine.kernel", typed, 700);
        let own = rec.self_ns();
        assert_eq!(own.iter().sum::<u64>(), 1_000);
        assert_eq!(rec.spans[typed].duration_ns(), 800);
        assert_eq!(rec.spans[typed].measured_ns, 5_000);
        assert_eq!(rec.self_sum_error_max(), 0.0);
        assert!(rec.clipped_share() > 0.0);
    }
}
