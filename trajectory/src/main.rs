//! `trajectory` — one benchmark for the whole path a percentage query
//! takes: SQL text → `QueryService::execute_sql` → parse / plan → snapshot
//! pin → scan kernel → finalize, with `PercentageEngine::append_rows`, the
//! WAL and checkpoints beside it on `ingest`. See `README.md`.
//!
//! ```text
//! trajectory --workload <name>[,<name>..] --seed <u64> [--seconds <n>]
//!            [--trace [0|1]] [--repeat <n>] [--out <path>] [--check]
//! ```

mod check;
mod crash;
mod data;
mod driver;
mod host;
mod metrics;
mod probes;
mod reference;
mod report;
mod run;
mod stats;
mod stmt;
mod system;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Kind;

/// Seconds one run measures: `run_seconds` in `BENCHMARK.json`, which the
/// benchmark driver passes back as `--seconds` on every run it makes.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone)]
pub struct Args {
    pub workloads: Vec<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
    pub check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: trajectory --workload <scan|small|holistic|cube|ingest>[,..] --seed <u64> \
         [--seconds <n>] [--trace [0|1]] [--repeat <n>] [--out <path>]\n       \
         trajectory --check [--seed <u64>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => {
                for w in value("--workload").split(',') {
                    match Kind::parse(w) {
                        Some(k) => args.workloads.push(k),
                        None => {
                            eprintln!("unknown workload {w:?}");
                            usage()
                        }
                    }
                }
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    eprintln!("--seconds must be in (0, 600]");
                    usage()
                }
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                args.repeat = value("--repeat").parse().unwrap_or_else(|_| usage());
                if args.repeat == 0 {
                    usage()
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--check" => args.check = true,
            _ => {
                eprintln!("unknown argument {a:?}");
                usage()
            }
        }
    }
    if args.check {
        if args.workloads.is_empty() {
            args.workloads = Kind::ALL.to_vec();
        }
    } else if args.workloads.is_empty() {
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let code = if args.check {
        run::check_mode(&args)
    } else if args.repeat > 1 || args.workloads.len() > 1 {
        run::repeat_mode(&args)
    } else {
        run::single(&args)
    };
    std::process::exit(code);
}
