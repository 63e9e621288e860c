//! Execution statistics.
//!
//! The paper's comparisons hinge on *work*: scans of `F`, CASE conditions
//! evaluated per row, rows materialized into temporaries, per-row UPDATE
//! records. Operators account their work here so tests can assert cost
//! *shape* (e.g. "direct CASE evaluates N conditions per row of F") instead
//! of only trusting wall-clock.
//!
//! Since the serving layer landed, stats also carry fault-tolerance
//! observability: total guard charges ([`ExecStats::rows_charged`]), what
//! the degradation ladder changed ([`ExecStats::degraded_to`]), and why a
//! first attempt aborted ([`ExecStats::abort_cause`]).

use std::fmt;
use std::ops::AddAssign;

/// What the serving layer's degradation ladder changed before this result
/// was produced (None in the common, undegraded case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The query was retried with the morsel-parallel layer forced serial.
    Serial,
    /// A CASE horizontal strategy was swapped for its SPJ counterpart.
    SpjFallback,
    /// Both rungs were taken: serial retry, then the SPJ strategy.
    SerialThenSpj,
}

impl Degradation {
    /// Short label for displays and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Degradation::Serial => "serial",
            Degradation::SpjFallback => "spj",
            Degradation::SerialThenSpj => "serial+spj",
        }
    }
}

/// Why an attempt at this query aborted (the cause of the *first* failure
/// when the result came from a degraded retry, or of the final failure when
/// the query never succeeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// The row budget ran out.
    Budget,
    /// The wall-clock deadline passed.
    Deadline,
    /// Cooperative cancellation.
    Cancelled,
    /// A worker thread panicked and was contained.
    WorkerPanic,
    /// The storage layer failed (WAL device, catalog).
    Storage,
}

impl AbortCause {
    /// Short label for displays and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AbortCause::Budget => "budget",
            AbortCause::Deadline => "deadline",
            AbortCause::Cancelled => "cancelled",
            AbortCause::WorkerPanic => "worker-panic",
            AbortCause::Storage => "storage",
        }
    }
}

/// Work counters accumulated while executing a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Input rows read by scans/aggregations/joins.
    pub rows_scanned: u64,
    /// Rows written into result or temporary tables.
    pub rows_materialized: u64,
    /// Hash-table probes performed (group lookup, join probe, index probe).
    pub hash_probes: u64,
    /// Rows inserted into hash tables (group-by build, join build).
    pub hash_build_rows: u64,
    /// CASE WHEN conditions evaluated.
    pub case_condition_evals: u64,
    /// Rows updated in place.
    pub rows_updated: u64,
    /// Comparisons performed by sort operators.
    pub sort_comparisons: u64,
    /// SQL-statement-equivalent steps executed (matches the paper's
    /// "overhead from at least five SQL statements" accounting).
    pub statements: u64,
    /// WAL records written while this plan ran.
    pub wal_records: u64,
    /// WAL bytes written while this plan ran.
    pub wal_bytes: u64,
    /// Rows charged against the query's [`crate::ResourceGuard`] — the
    /// metered total the budget was enforced over (scan morsels plus
    /// materialized group rows), as rolled up by the per-query guard.
    pub rows_charged: u64,
    /// Aggregation passes (group maps and dispatch tables) that took the
    /// dense direct-addressed code path (DESIGN.md §10).
    pub dense_group_ops: u64,
    /// Aggregation passes that fell back to the hash group path.
    pub hash_group_ops: u64,
    /// Combination-catalog lookups answered from cache (the `SELECT
    /// DISTINCT` discovery pass was skipped).
    pub combo_cache_hits: u64,
    /// Combination-catalog lookups that missed and ran the discovery pass.
    pub combo_cache_misses: u64,
    /// Rows scanned through the block loop (DESIGN.md §12, §16), once per
    /// code stream: block codes → group ids → lanes, no per-row dispatch.
    pub vectorized_kernel_rows: u64,
    /// Rows scanned by a per-row loop. The scan core has none, so this
    /// stays 0; the field is kept for the benchmark that reads it.
    pub scalar_kernel_rows: u64,
    /// RLE runs absorbed by the run-level fast path (one group lookup and
    /// register-resident accumulation per run).
    pub rle_runs: u64,
    /// Widest bit-packed dimension read by the vectorized kernels, in bits
    /// (0 when no packed dimension was read; max-merged, not summed).
    pub pack_width: u64,
    /// Lattice levels the most recent CUBE/ROLLUP/batch plan evaluated
    /// (one per grouping set routed through the dimension lattice).
    pub lattice_levels: u64,
    /// Lattice levels answered by scanning the fact table (through the
    /// fused one-scan kernel or a per-level fallback pass).
    pub levels_from_scan: u64,
    /// Lattice levels answered from the lattice partial cache (directly,
    /// re-aggregated from a cached finer partial, or rolled forward from an
    /// older version over the write journal — never rescanning `F`).
    pub levels_from_cache: u64,
    /// Of `levels_from_cache`, the levels rolled forward from an entry of
    /// an older table version: their delta rows were aggregated, not `F`.
    pub levels_rolled: u64,
    /// Holistic aggregate lanes planned (percentile, count(DISTINCT),
    /// sketch aggregates) — the lanes whose partials carry more than a
    /// few scalars (DESIGN.md §14).
    pub holistic_lanes: u64,
    /// Percentile group states (`percentile` or `approx_percentile`) that
    /// outgrew `PA_PERCENTILE_BUDGET` and spilled to a t-digest (the result
    /// is approximate for those groups).
    pub sketch_spills: u64,
    /// What the degradation ladder changed, when this result came from a
    /// degraded retry.
    pub degraded_to: Option<Degradation>,
    /// Why the first attempt aborted, when there was a failed attempt.
    pub abort_cause: Option<AbortCause>,
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.rows_scanned += rhs.rows_scanned;
        self.rows_materialized += rhs.rows_materialized;
        self.hash_probes += rhs.hash_probes;
        self.hash_build_rows += rhs.hash_build_rows;
        self.case_condition_evals += rhs.case_condition_evals;
        self.rows_updated += rhs.rows_updated;
        self.sort_comparisons += rhs.sort_comparisons;
        self.statements += rhs.statements;
        self.wal_records += rhs.wal_records;
        self.wal_bytes += rhs.wal_bytes;
        self.rows_charged += rhs.rows_charged;
        self.dense_group_ops += rhs.dense_group_ops;
        self.hash_group_ops += rhs.hash_group_ops;
        self.combo_cache_hits += rhs.combo_cache_hits;
        self.combo_cache_misses += rhs.combo_cache_misses;
        self.vectorized_kernel_rows += rhs.vectorized_kernel_rows;
        self.scalar_kernel_rows += rhs.scalar_kernel_rows;
        self.rle_runs += rhs.rle_runs;
        self.lattice_levels += rhs.lattice_levels;
        self.levels_from_scan += rhs.levels_from_scan;
        self.levels_from_cache += rhs.levels_from_cache;
        self.levels_rolled += rhs.levels_rolled;
        self.holistic_lanes += rhs.holistic_lanes;
        self.sketch_spills += rhs.sketch_spills;
        // Width is a property of the widest dimension read, not a volume:
        // merging worker stats keeps the max.
        self.pack_width = self.pack_width.max(rhs.pack_width);
        // Markers: first set wins, so folding partial stats into a query
        // total never erases what the service recorded.
        self.degraded_to = self.degraded_to.or(rhs.degraded_to);
        self.abort_cause = self.abort_cause.or(rhs.abort_cause);
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} materialized={} probes={} built={} case_evals={} updated={} sort_cmps={} stmts={} wal_recs={} wal_bytes={} charged={} dense_ops={} hash_ops={} combo_hits={} combo_misses={} vec_rows={} scalar_rows={} rle_runs={} pack_width={} lattice_levels={} levels_from_scan={} levels_from_cache={} levels_rolled={} holistic_lanes={} sketch_spills={} degraded={} abort={}",
            self.rows_scanned,
            self.rows_materialized,
            self.hash_probes,
            self.hash_build_rows,
            self.case_condition_evals,
            self.rows_updated,
            self.sort_comparisons,
            self.statements,
            self.wal_records,
            self.wal_bytes,
            self.rows_charged,
            self.dense_group_ops,
            self.hash_group_ops,
            self.combo_cache_hits,
            self.combo_cache_misses,
            self.vectorized_kernel_rows,
            self.scalar_kernel_rows,
            self.rle_runs,
            self.pack_width,
            self.lattice_levels,
            self.levels_from_scan,
            self.levels_from_cache,
            self.levels_rolled,
            self.holistic_lanes,
            self.sketch_spills,
            self.degraded_to.map_or("none", |d| d.label()),
            self.abort_cause.map_or("none", |c| c.label()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = ExecStats {
            rows_scanned: 1,
            rows_materialized: 2,
            hash_probes: 3,
            hash_build_rows: 4,
            case_condition_evals: 5,
            rows_updated: 6,
            sort_comparisons: 7,
            statements: 8,
            wal_records: 9,
            wal_bytes: 10,
            rows_charged: 11,
            dense_group_ops: 12,
            hash_group_ops: 13,
            combo_cache_hits: 14,
            combo_cache_misses: 15,
            vectorized_kernel_rows: 16,
            scalar_kernel_rows: 17,
            rle_runs: 18,
            pack_width: 19,
            lattice_levels: 20,
            levels_from_scan: 21,
            levels_from_cache: 22,
            levels_rolled: 25,
            holistic_lanes: 23,
            sketch_spills: 24,
            degraded_to: None,
            abort_cause: None,
        };
        a += a;
        assert_eq!(a.rows_scanned, 2);
        assert_eq!(a.wal_bytes, 20);
        assert_eq!(a.statements, 16);
        assert_eq!(a.rows_charged, 22);
        assert_eq!(a.dense_group_ops, 24);
        assert_eq!(a.hash_group_ops, 26);
        assert_eq!(a.combo_cache_hits, 28);
        assert_eq!(a.combo_cache_misses, 30);
        assert_eq!(a.vectorized_kernel_rows, 32);
        assert_eq!(a.scalar_kernel_rows, 34);
        assert_eq!(a.rle_runs, 36);
        assert_eq!(a.pack_width, 19, "width max-merges, it does not sum");
        assert_eq!(a.lattice_levels, 40);
        assert_eq!(a.levels_from_scan, 42);
        assert_eq!(a.levels_from_cache, 44);
        assert_eq!(a.holistic_lanes, 46);
        assert_eq!(a.sketch_spills, 48);
    }

    #[test]
    fn pack_width_merges_by_max() {
        let mut a = ExecStats {
            pack_width: 7,
            ..ExecStats::default()
        };
        a += ExecStats {
            pack_width: 3,
            ..ExecStats::default()
        };
        assert_eq!(a.pack_width, 7);
        a += ExecStats {
            pack_width: 12,
            ..ExecStats::default()
        };
        assert_eq!(a.pack_width, 12);
    }

    #[test]
    fn markers_stick_across_accumulation() {
        let mut total = ExecStats {
            degraded_to: Some(Degradation::Serial),
            abort_cause: Some(AbortCause::Budget),
            ..ExecStats::default()
        };
        total += ExecStats {
            degraded_to: Some(Degradation::SpjFallback),
            abort_cause: Some(AbortCause::Deadline),
            ..ExecStats::default()
        };
        assert_eq!(total.degraded_to, Some(Degradation::Serial), "first wins");
        assert_eq!(total.abort_cause, Some(AbortCause::Budget));
        let mut fresh = ExecStats::default();
        fresh += total;
        assert_eq!(fresh.degraded_to, Some(Degradation::Serial), "absorbed");
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = ExecStats::default().to_string();
        for key in [
            "scanned",
            "materialized",
            "probes",
            "case_evals",
            "updated",
            "stmts",
            "wal_recs",
            "charged",
            "dense_ops",
            "hash_ops",
            "combo_hits",
            "combo_misses",
            "vec_rows",
            "scalar_rows",
            "rle_runs",
            "pack_width",
            "lattice_levels",
            "levels_from_scan",
            "levels_from_cache",
            "holistic_lanes",
            "sketch_spills",
            "degraded",
            "abort",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        let s = ExecStats {
            degraded_to: Some(Degradation::SerialThenSpj),
            abort_cause: Some(AbortCause::WorkerPanic),
            ..ExecStats::default()
        }
        .to_string();
        assert!(s.contains("serial+spj"), "{s}");
        assert!(s.contains("worker-panic"), "{s}");
    }
}
