//! Observability-overhead smoke: tracing-off vs tracing-on on the scale
//! workload → `BENCH_obs.json`.
//!
//! ```text
//! obs_overhead [--n N] [--d D] [--iters K] [--gate-pct G]
//!              [--baseline PATH] [--out PATH]
//! ```
//!
//! Runs the `case_direct` Hpct cell of the scale bench in interleaved
//! pairs: best-of-`--iters` through the normal (observability-disabled)
//! path and best-of-`--iters` under a per-query tracer, the side that runs
//! first alternating from pair to pair. Each pair gives one on/off ratio;
//! the overhead is the median ratio over `PAIRS` (15) pairs, so
//! one pair that a noisy neighbour slowed cannot decide it. Records that
//! overhead percentage, every pair's ratio and the traced run's
//! per-operator breakdown, and — when the `--baseline` artifact is
//! readable — the throughput delta of the disabled path against the
//! recorded `case_direct` threads=1 cell.
//!
//! The hard gate is on *tracing* overhead (`--gate-pct`, default 25): wall
//! clock on shared CI is too noisy for a tight cross-run gate, so the
//! baseline comparison is recorded for inspection rather than enforced
//! here. `ci.sh` runs this as its trace-overhead smoke.

use pa_bench::{best_of, lcg_fact_table, operator_breakdown, time_ms};
use pa_core::{HorizontalOptions, HorizontalQuery, HorizontalStrategy, PercentageEngine};
use pa_storage::Catalog;
use std::fmt::Write as _;

/// Off/on pairs the median is taken over.
const PAIRS: usize = 15;

struct Args {
    n: usize,
    d: usize,
    iters: usize,
    gate_pct: f64,
    baseline: String,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 200_000,
        d: 7,
        iters: 5,
        gate_pct: 25.0,
        baseline: "target/ci/BENCH_scale_smoke.json".to_string(),
        out: "results/BENCH_obs.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_default();
        match a.as_str() {
            "--n" => args.n = next().parse().unwrap_or(args.n),
            "--d" => args.d = next().parse().unwrap_or(args.d),
            "--iters" => args.iters = next().parse().unwrap_or(args.iters),
            "--gate-pct" => args.gate_pct = next().parse().unwrap_or(args.gate_pct),
            "--baseline" => args.baseline = next(),
            "--out" => args.out = next(),
            "--help" | "-h" => {
                println!(
                    "usage: obs_overhead [--n N] [--d D] [--iters K] [--gate-pct G] \
                     [--baseline PATH] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The middle value of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The recorded `case_direct` threads=1 cell of a scale artifact, as
/// `(n, wall_ms)` — a tolerant scan, not a JSON parser: the artifact is
/// our own single-line-per-row format.
fn baseline_cell(path: &str) -> Option<(usize, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        if !(line.contains("\"strategy\": \"case_direct\"") && line.contains("\"threads\": 1,")) {
            continue;
        }
        let field = |key: &str| -> Option<f64> {
            let rest = line.split(&format!("\"{key}\": ")).nth(1)?;
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        };
        return Some((field("n")? as usize, field("wall_ms")?));
    }
    None
}

fn main() {
    let args = parse_args();
    let catalog = Catalog::new();
    let (gen_ms, _) = time_ms(|| {
        catalog
            .create_table("fact", lcg_fact_table(args.n, args.d))
            .expect("fresh")
    });
    println!(
        "obs_overhead — n={} d={} iters={} pairs={} (generated in {gen_ms:.0} ms)",
        args.n, args.d, args.iters, PAIRS
    );

    let engine = PercentageEngine::new(&catalog);
    let q = HorizontalQuery::hpct("fact", &["store"], "amt", &["day"]);
    let opts = HorizontalOptions::with_strategy(HorizontalStrategy::CaseDirect);

    // Warm both paths once, then measure interleaved pairs.
    engine.horizontal_with(&q, &opts).expect("bench query");
    engine.horizontal_traced(&q, &opts).expect("bench query");
    let off = || {
        best_of(args.iters, || {
            engine.horizontal_with(&q, &opts).expect("bench query");
        })
    };
    let on = || {
        best_of(args.iters, || {
            engine.horizontal_traced(&q, &opts).expect("bench query");
        })
    };
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (off_ms, on_ms) = if pair % 2 == 0 {
            let off_ms = off();
            (off_ms, on())
        } else {
            let on_ms = on();
            (off(), on_ms)
        };
        offs.push(off_ms);
        ons.push(on_ms);
        ratios.push(on_ms / off_ms.max(1e-9));
    }
    let (off_ms, on_ms) = (median(offs), median(ons));
    let overhead_pct = (median(ratios.clone()) - 1.0) * 100.0;
    let (_, report) = engine.horizontal_traced(&q, &opts).expect("bench query");
    let operators = operator_breakdown(&report);

    println!(
        "  tracing off {off_ms:>8.2} ms   tracing on {on_ms:>8.2} ms (medians)   \
         overhead {overhead_pct:+.2}% (median of {} pair ratios; gate {:.0}%)",
        PAIRS, args.gate_pct
    );

    // Throughput of the disabled path vs the recorded pre-PR cell, when the
    // artifact exists and its cell is comparable. Sizes differ between the
    // smoke baseline and this run, so compare rows/s, not wall ms.
    let baseline = baseline_cell(&args.baseline);
    let off_rows_per_s = args.n as f64 / (off_ms / 1e3);
    let regression_pct = baseline.map(|(bn, bms)| {
        let base_rows_per_s = bn as f64 / (bms / 1e3);
        (base_rows_per_s - off_rows_per_s) / base_rows_per_s * 100.0
    });
    match (baseline, regression_pct) {
        (Some((bn, bms)), Some(pct)) => println!(
            "  baseline case_direct t=1: n={bn} {bms:.2} ms → \
             obs-off throughput delta {pct:+.2}% vs baseline"
        ),
        _ => println!("  no readable baseline at {}", args.baseline),
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"obs_overhead\",");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"d\": {},", args.d);
    let _ = writeln!(json, "  \"iters\": {},", args.iters);
    let _ = writeln!(json, "  \"pairs\": {PAIRS},");
    let ratios: Vec<String> = ratios.iter().map(|r| format!("{r:.4}")).collect();
    let _ = writeln!(json, "  \"pair_ratios\": [{}],", ratios.join(", "));
    let _ = writeln!(json, "  \"off_ms\": {off_ms:.3},");
    let _ = writeln!(json, "  \"on_ms\": {on_ms:.3},");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "  \"gate_pct\": {:.1},", args.gate_pct);
    let _ = writeln!(json, "  \"off_rows_per_s\": {off_rows_per_s:.0},");
    match regression_pct {
        Some(pct) => {
            let _ = writeln!(json, "  \"off_vs_baseline_throughput_pct\": {pct:.3},");
        }
        None => {
            let _ = writeln!(json, "  \"off_vs_baseline_throughput_pct\": null,");
        }
    }
    let _ = writeln!(json, "  \"operators\": {operators}");
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write output file");
    println!("wrote {}", args.out);

    if overhead_pct > args.gate_pct {
        eprintln!(
            "FAIL: tracing overhead {overhead_pct:.2}% exceeds the \
             {:.0}% gate",
            args.gate_pct
        );
        std::process::exit(1);
    }
}
