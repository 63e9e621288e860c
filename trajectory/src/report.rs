//! Output: the header and metric tables a person reads, the one-line JSON
//! object the benchmark driver reads, and the keyed result file.

use crate::host::Host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RunResult;
use std::fmt::Write as _;

fn json_number(x: f64) -> String {
    // Shortest text that reads back to the same f64: every digit measured.
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"name": {"value": .., "unit": ".."}`.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_string(name),
        json_number(value),
        json_string(unit)
    )
}

pub fn print_run(r: &RunResult, host: &Host) {
    println!(
        "\n== trajectory {} — {} ==",
        r.kind.name(),
        if r.traced {
            "traced replay"
        } else {
            "timed run"
        }
    );
    println!(
        "commit {}  host {} cpu(s), {}, {} MB  seed {}  load {} client(s) x PA_THREADS={}{}  seconds {}",
        host.git_sha,
        host.nproc,
        host.cpu_model,
        host.mem_mb,
        r.seed,
        r.clients,
        r.pa_threads,
        if r.kind == crate::workloads::Kind::Ingest {
            " + 1 open-loop writer"
        } else {
            ""
        },
        r.seconds,
    );
    println!("attempted {}  failed {}", r.attempted, r.failed);
    for f in r.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    if r.failures.len() > 20 {
        println!("  ... and {} more", r.failures.len() - 20);
    }
    if !r.traced {
        println!(
            "{:<20} {:>14} {:<6} {:>7}  per round",
            "metric", "value", "unit", "bound"
        );
        for (name, unit, m) in r.end_to_end.iter().chain(&r.wall) {
            let bound = END_TO_END
                .iter()
                .find(|e| e.name == *name)
                // The direction a regression moves it in, and how far it may.
                .map_or("-".to_string(), |e| {
                    let sign = if e.better == "lower" { '+' } else { '-' };
                    format!("{sign}{:.0}%", e.bound * 100.0)
                });
            let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{name:<20} {:>14.4} {unit:<6} {bound:>7}  [{}]{}",
                m.value,
                rounds.join(" "),
                if m.resolved {
                    ""
                } else {
                    "  UNRESOLVED: too few samples"
                }
            );
        }
    } else {
        println!("{:<34} {:>16} {:<6} better", "metric", "value", "unit");
        for p in &PER_LAYER {
            println!(
                "{:<34} {:>16.4} {:<6} {}",
                p.name, r.per_layer[p.name], p.unit, p.better
            );
        }
    }
    for n in &r.notes {
        println!("note: {n}");
    }
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` — the
/// end-to-end metrics of an untraced run, the per-layer ones of a traced
/// run. The wall-clock figures of an untraced run stay out of this line.
pub fn contract_line(r: &RunResult) -> String {
    let mut metrics: Vec<String> = Vec::new();
    if r.traced {
        for p in &PER_LAYER {
            metrics.push(metric_json(p.name, r.per_layer[p.name], p.unit));
        }
    } else {
        for e in &END_TO_END {
            let m = r
                .end_to_end
                .iter()
                .find(|m| m.0 == e.name)
                .expect("every end-to-end metric is measured");
            metrics.push(metric_json(e.name, m.2.value, e.unit));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// The result file: keyed by commit, host, workload and metric name.
pub fn result_json(r: &RunResult, host: &Host) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"sha\": {},", json_string(&host.git_sha));
    let _ = writeln!(s, "  \"host\": {},", json_string(&host.fingerprint()));
    let _ = writeln!(s, "  \"workload\": {},", json_string(r.kind.name()));
    let _ = writeln!(s, "  \"seed\": {},", r.seed);
    let _ = writeln!(s, "  \"seconds\": {},", json_number(r.seconds));
    let _ = writeln!(s, "  \"traced\": {},", r.traced);
    let _ = writeln!(s, "  \"clients\": {},", r.clients);
    let _ = writeln!(s, "  \"pa_threads\": {},", r.pa_threads);
    let _ = writeln!(s, "  \"attempted\": {},", r.attempted);
    let _ = writeln!(s, "  \"failed\": {},", r.failed);
    s.push_str("  \"metrics\": {\n");
    let mut lines: Vec<String> = Vec::new();
    for (name, unit, m) in r.end_to_end.iter().chain(&r.wall) {
        let rounds: Vec<String> = m.rounds.iter().map(|v| json_number(*v)).collect();
        lines.push(format!(
            "    {}: {{\"value\": {}, \"unit\": {}, \"resolved\": {}, \"rounds\": [{}]}}",
            json_string(name),
            json_number(m.value),
            json_string(unit),
            m.resolved,
            rounds.join(", ")
        ));
    }
    if r.traced {
        for p in &PER_LAYER {
            lines.push(format!(
                "    {}",
                metric_json(p.name, r.per_layer[p.name], p.unit)
            ));
        }
    }
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  },\n  \"notes\": [");
    let notes: Vec<String> = r.notes.iter().map(|n| json_string(n)).collect();
    s.push_str(&notes.join(", "));
    s.push_str("]\n}\n");
    s
}
