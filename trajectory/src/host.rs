//! What the run ran on: host fingerprint, commit, peak memory, and the
//! plain-sum probe every scan result is expressed against.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub mem_mb: u64,
    pub git_sha: String,
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn kb_field(path: &str, key: &str) -> Option<u64> {
    proc_field(path, key)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

impl Host {
    pub fn detect() -> Host {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            // An exported tree has no repository to ask.
            .unwrap_or_else(|| "unversioned".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            mem_mb: kb_field("/proc/meminfo", "MemTotal").unwrap_or(0) / 1024,
            git_sha,
        }
    }

    /// One token naming this host's shape, for keying result files.
    pub fn fingerprint(&self) -> String {
        let cpu: String = self
            .cpu_model
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{}x{}-{}MB", self.nproc, cpu, self.mem_mb)
    }
}

/// Restart the kernel's peak-RSS high-water mark from the current RSS, so
/// `peak_rss_mb` reports the peak of what follows (the timed rounds) and
/// not of the harness's own checking before it. Returns false where the
/// kernel refuses; the peak is then the whole process's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`) since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    kb_field("/proc/self/status", "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The unshared baseline: a plain `sum` over one f64 column. Everything a
/// query does beyond reading its rows once shows as a multiple of this.
#[derive(Debug)]
pub struct SumProbe {
    column: Vec<f64>,
}

impl SumProbe {
    pub fn new(rows: usize) -> SumProbe {
        SumProbe {
            column: (0..rows).map(|i| (i % 1000) as f64).collect(),
        }
    }

    /// Median nanoseconds per row over `reps` passes.
    pub fn ns_per_row(&self, reps: usize) -> f64 {
        let times: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                let s: f64 = black_box(&self.column).iter().sum();
                black_box(s);
                t0.elapsed().as_nanos() as f64 / self.column.len() as f64
            })
            .collect();
        crate::stats::median(&times).expect("at least one pass")
    }
}

/// The calibration kernel each query client runs between its queries: a
/// scatter-add of a cache-resident column into a small table — a dense
/// group-by in miniature — run once to load its arrays and timed on the
/// second pass.
///
/// The hosts this runs on change speed under the benchmark. For seconds to
/// minutes at a time a core sustains 30-70% less of this kind of work
/// (loads, adds and stores that hit the cache) while a chain of dependent
/// multiplies runs as fast as ever, and every workload here slows in step:
/// ten runs of one commit read 20-60% apart in milliseconds. No statistic
/// over wall-clock latencies survives that; a ratio to work of known size,
/// done on the same thread within milliseconds of the query, does. One
/// reading takes ~50 us.
#[derive(Debug)]
pub struct Calibrator {
    values: Vec<f64>,
    slots: Vec<u32>,
    table: Vec<f64>,
}

const CAL_ROWS: usize = 32_768;
const CAL_SLOTS: u64 = 4_096;

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let slots = (0..CAL_ROWS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % CAL_SLOTS) as u32
            })
            .collect();
        Calibrator {
            values: (0..CAL_ROWS).map(|i| (i % 1000) as f64).collect(),
            slots,
            table: vec![0.0; CAL_SLOTS as usize],
        }
    }

    fn scatter(&mut self) {
        for (slot, v) in self.slots.iter().zip(&self.values) {
            self.table[*slot as usize] += v;
        }
        black_box(&self.table);
    }

    /// Milliseconds one warm pass takes right now.
    pub fn read(&mut self) -> f64 {
        // The queries since the last reading may have pushed the arrays out
        // of the cache; the reading is of the core, not of that.
        self.scatter();
        let t0 = Instant::now();
        self.scatter();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // Sums stay small and exact: the table never leaves the normal range.
        self.table.iter_mut().for_each(|t| *t = 0.0);
        ms
    }
}
