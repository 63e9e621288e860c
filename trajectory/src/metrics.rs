//! The metric catalogue: every name the harness prints, with its unit, and
//! for end-to-end metrics the direction and regression bound. The
//! repository's `BENCHMARK.json` is generated from these tables and a test
//! holds the two together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload, untraced.
///
/// Latency is bounded as a cost — a multiple of the calibration kernel run
/// beside each query (`host::Calibrator`) — and not in milliseconds: on the
/// shared hosts this runs on, ten runs of one commit read 2-36% apart in
/// milliseconds (interquartile distance over the median, by the hour) and
/// 1-10% apart as first-quartile costs. The milliseconds are still printed
/// (`wall.*`), unbounded, and so are the cost's median, 90th percentile and
/// mean: what is left of a neighbour's bursts after the division sits in
/// the upper half of the samples (median up to 15% apart on `ingest`, 90th
/// percentile 21%). The traced run reports all of them per layer.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "query_cost_p25",
        unit: "x",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload's traced run; a metric with no sample on a
/// workload (a checkpoint time where nothing checkpoints) reads 0.
pub const PER_LAYER: [PerLayer; 73] = [
    m("sql.parse_us", "us", "lower"),
    m("sql.validate_us", "us", "lower"),
    m("core.plan_us", "us", "lower"),
    m("core.sql_self_ms", "ms", "lower"),
    m("core.exec_self_ms", "ms", "lower"),
    m("core.pivot_ms", "ms", "lower"),
    m("core.rows_charged_per_query", "count", "lower"),
    m("core.lattice_cache_level_share", "ratio", "higher"),
    m("core.lattice_scan_free_share", "ratio", "higher"),
    m("core.span_coverage", "ratio", "higher"),
    m("core.trace_overhead_ratio", "ratio", "lower"),
    m("engine.kernel_ms", "ms", "lower"),
    m("engine.aggregate_ms", "ms", "lower"),
    m("engine.aggregate_wide_ms", "ms", "lower"),
    m("engine.lattice_ms", "ms", "lower"),
    m("engine.partial_ms", "ms", "lower"),
    m("engine.partial_serialize_us", "us", "lower"),
    m("engine.partial_merge_us", "us", "lower"),
    m("engine.filter_ms", "ms", "lower"),
    m("engine.block_fill_ns_per_row", "ns", "lower"),
    m("engine.scatter_ns_per_row", "ns", "lower"),
    m("engine.kernel_vs_sum", "ratio", "lower"),
    m("engine.thread_speedup", "ratio", "higher"),
    m("engine.vectorized_row_share", "ratio", "higher"),
    m("engine.dense_group_share", "ratio", "higher"),
    m("engine.rle_runs_per_query", "count", "higher"),
    m("engine.holistic_ns_per_row", "ns", "lower"),
    m("engine.sketch_spills_per_query", "count", "lower"),
    m("storage.pin_us", "us", "lower"),
    m("storage.pin_after_write_us", "us", "lower"),
    m("storage.combo_hit_rate", "ratio", "higher"),
    m("storage.lattice_hit_rate", "ratio", "higher"),
    m("storage.append_ms", "ms", "lower"),
    m("storage.append_after_pin_ms", "ms", "lower"),
    m("storage.wal_bytes_per_append_byte", "ratio", "lower"),
    m("storage.wal_records_per_query", "count", "lower"),
    m("storage.wal_bytes_per_query", "B", "lower"),
    m("storage.checkpoint_ms", "ms", "lower"),
    m("storage.checkpoint_bytes", "B", "lower"),
    m("storage.checkpoints", "count", "higher"),
    m("storage.checkpoint_stall_ms", "ms", "lower"),
    m("storage.recover_replay_ms", "ms", "lower"),
    m("storage.recover_image_ms", "ms", "lower"),
    m("storage.crc32_gb_per_s", "GB/s", "higher"),
    m("storage.wal_retries", "count", "lower"),
    m("storage.wal_write_errors", "count", "lower"),
    m("storage.snapshots_frozen", "count", "lower"),
    m("service.self_us", "us", "lower"),
    m("service.result_clone_us", "us", "lower"),
    m("service.queue_wait_p90_us", "us", "lower"),
    m("service.shed", "count", "lower"),
    m("service.degraded", "count", "lower"),
    m("service.failures", "count", "lower"),
    m("obs.span_ns", "ns", "lower"),
    m("host.sum_ns_per_row", "ns", "lower"),
    m("host.cal_us", "us", "lower"),
    m("workload.gen_rows_per_s", "1/s", "higher"),
    m("workload.writer_lag_ms", "ms", "lower"),
    m("ingest.write_p50_ms", "ms", "lower"),
    m("ingest.write_p95_ms", "ms", "lower"),
    m("ingest.recovery_s", "s", "lower"),
    m("trace.kernel_self_share", "ratio", "higher"),
    m("trace.self_sum_error_max", "ratio", "lower"),
    m("trace.clipped_share", "ratio", "lower"),
    m("trace.requests", "count", "higher"),
    m("bench.query_cost_p50", "x", "lower"),
    m("bench.query_cost_p90", "x", "lower"),
    m("bench.query_cost_mean", "x", "lower"),
    m("wall.query_p50_ms", "ms", "lower"),
    m("wall.query_p95_ms", "ms", "lower"),
    m("wall.queries_per_s", "1/s", "higher"),
    m("wall.sum_ratio", "ratio", "lower"),
    m("bench.trace_overhead_ratio", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    fn why(kind: Kind) -> &'static str {
        match kind {
            Kind::Scan => {
                "1 client x PA_THREADS=nproc/2 over three 1M-row tables and a sparse one: the scan \
                 kernels and the morsel layer do the work, SQL and service are noise"
            }
            Kind::Small => {
                "nproc clients x PA_THREADS=1 over 32 tables of 2k-8k rows, ~190 statements: fixed \
                 per-query cost (parse, plan, pin, temporaries, WAL, clone, admission) dominates"
            }
            Kind::Holistic => {
                "median, percentile and sketch aggregates riding Vpct/Hpct on 100k rows: the only \
                 workload where the per-row holistic lanes and partial-state merge matter"
            }
            Kind::Cube => {
                "nproc clients of ROLLUP, CUBE, GROUPING SETS and multi-term Vpct on a read-only 1M-row \
                 table: the lattice cache is warm, so this is the hit path, not the scan"
            }
            Kind::Ingest => {
                "an open-loop writer (10 batches/s x 1000 rows) beside closed-loop readers on a \
                 file-backed WAL with checkpoints: cold caches, CoW detach, crash and recovery"
            }
        }
    }

    /// The repository's `BENCHMARK.json`, from the tables above.
    fn benchmark_json(run_seconds: u64) -> String {
        let mut s = String::from("{\n");
        s.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
             \"trajectory/Cargo.toml\", \"--\"],\n",
        );
        s.push_str("  \"paths\": [\"trajectory\"],\n");
        s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
        s.push_str("  \"workloads\": [\n");
        for (i, k) in Kind::ALL.iter().enumerate() {
            let sep = if i + 1 == Kind::ALL.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
                k.name(),
                why(*k)
            ));
        }
        s.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, e) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
                e.name, e.unit, e.better, e.bound
            ));
        }
        s.push_str("  ],\n  \"per_layer\": [\n");
        for (i, p) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
                p.name, p.unit, p.better
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[test]
    fn benchmark_json_in_the_repository_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let generated = benchmark_json(crate::RUN_SECONDS);
        assert!(
            on_disk == generated,
            "BENCHMARK.json is not what src/metrics.rs generates; it should read:\n{generated}"
        );
    }

    #[test]
    fn names_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
        assert!(Kind::ALL
            .iter()
            .all(|k| why(*k).len() <= 200 && !why(*k).contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
