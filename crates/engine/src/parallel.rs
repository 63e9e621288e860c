//! Morsel-driven parallel execution configuration.
//!
//! The aggregation operators split their input scan into fixed-size row
//! *morsels* and fan contiguous runs of morsels out over scoped worker
//! threads. Each worker accumulates into thread-local partial hash tables;
//! the partials are merged in worker order, which reproduces the serial
//! first-appearance group order exactly (see DESIGN.md §7 for the
//! determinism argument).
//!
//! [`ParallelConfig`] is the value every operator is handed: worker count
//! (`threads: 1` always selects the serial path), morsel size, the input
//! size below which the exact serial code path runs, the dense-group budget
//! (DESIGN.md §10; 0 is the hash-tier ablation) and the percentile budget.
//! A statement gets one from its engine (DESIGN.md §18);
//! [`ParallelConfig::from_env`] reads the deployment's `PA_*` settings for
//! an engine handed none.
//!
//! [`fan_out`] is the one worker fan-out every morsel-parallel operator
//! calls (the scan core behind aggregate/lattice/partial, and the pivot).

use crate::error::{panic_payload, EngineError};
use crate::guard::ResourceGuard;
use crate::stats::ExecStats;
use pa_obs::SpanHandle;
use std::ops::Range;

/// Rows per morsel: the unit of guard charging and cancellation latency.
/// Large enough to amortize the shared atomic `fetch_add`, small enough
/// that cancellation lands promptly.
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

/// Inputs smaller than this stay on the serial path: thread spawn and merge
/// overhead would dominate, and the serial path keeps exact work-counter
/// semantics for the small tables unit tests assert on.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 32 * 1024;

/// Knobs for morsel-driven parallel aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Maximum worker threads. `1` means the exact serial code path.
    pub threads: usize,
    /// Rows per morsel (guard charge / cancellation granularity).
    pub morsel_rows: usize,
    /// Inputs with fewer rows than this always run serial.
    pub min_parallel_rows: usize,
    /// Ceiling on the composite-code space for the dense group path
    /// (env `PA_DENSE_BUDGET`; `0` disables dense grouping entirely).
    /// See [`crate::keymap::DenseKeySpace`].
    pub dense_budget: usize,
    /// Samples an exact `percentile` group retains before its state spills
    /// to a t-digest (env `PA_PERCENTILE_BUDGET`, default
    /// [`DEFAULT_PERCENTILE_BUDGET`](crate::DEFAULT_PERCENTILE_BUDGET)).
    pub percentile_budget: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::serial()
    }
}

impl ParallelConfig {
    /// Single-threaded configuration (the exact serial code path).
    pub const fn serial() -> ParallelConfig {
        ParallelConfig {
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
            dense_budget: crate::keymap::DEFAULT_DENSE_BUDGET,
            percentile_budget: crate::ops::acc::DEFAULT_PERCENTILE_BUDGET,
        }
    }

    /// Configuration with an explicit worker count and default morsel
    /// sizing.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::serial()
        }
    }

    /// Read the configuration from the environment: `PA_THREADS` (default
    /// [`std::thread::available_parallelism`]), `PA_MORSEL_ROWS`,
    /// `PA_MIN_PARALLEL_ROWS`, `PA_DENSE_BUDGET` (0 disables the dense
    /// group path), `PA_PERCENTILE_BUDGET`. Invalid or zero values fall
    /// back to the defaults (except the dense budget, where 0 is
    /// meaningful).
    pub fn from_env() -> ParallelConfig {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&v| v > 0)
        };
        let threads = parse("PA_THREADS")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ParallelConfig {
            threads,
            morsel_rows: parse("PA_MORSEL_ROWS").unwrap_or(DEFAULT_MORSEL_ROWS),
            min_parallel_rows: parse("PA_MIN_PARALLEL_ROWS").unwrap_or(DEFAULT_MIN_PARALLEL_ROWS),
            dense_budget: std::env::var("PA_DENSE_BUDGET")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(crate::keymap::DEFAULT_DENSE_BUDGET),
            percentile_budget: parse("PA_PERCENTILE_BUDGET")
                .unwrap_or(crate::ops::acc::DEFAULT_PERCENTILE_BUDGET),
        }
    }

    /// Worker count actually used for an `n`-row scan: `1` when the input
    /// is below the serial threshold, otherwise at most one worker per
    /// morsel.
    pub fn effective_threads(&self, n_rows: usize) -> usize {
        if self.threads <= 1 || n_rows < self.min_parallel_rows {
            return 1;
        }
        let morsels = n_rows.div_ceil(self.morsel_rows);
        self.threads.min(morsels).max(1)
    }

    /// Statically partition `0..n_rows` into one contiguous, morsel-aligned
    /// range per worker. Contiguity in row order is what makes the ordered
    /// merge reproduce serial group order; morsel alignment keeps every
    /// charge a full morsel except each worker's last.
    ///
    /// Returns one non-empty range per effective worker (a single `0..n`
    /// range when the scan runs serial).
    pub fn chunks(&self, n_rows: usize) -> Vec<Range<usize>> {
        let workers = self.effective_threads(n_rows);
        if workers <= 1 {
            // One chunk spanning the whole table (not a range-to-vec collect).
            #[allow(clippy::single_range_in_vec_init)]
            return vec![0..n_rows];
        }
        let morsels = n_rows.div_ceil(self.morsel_rows);
        let per_worker = morsels / workers;
        let extra = morsels % workers;
        let mut out = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let take = per_worker + usize::from(w < extra);
            let start = next;
            next = (next + take * self.morsel_rows).min(n_rows);
            out.push(start..next);
        }
        debug_assert_eq!(next, n_rows);
        out
    }

    /// Morsel subranges of one worker chunk, in row order.
    pub fn morsels(&self, chunk: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        let morsel = self.morsel_rows;
        let end = chunk.end;
        chunk.step_by(morsel).map(move |start| {
            let stop = (start + morsel).min(end);
            start..stop
        })
    }
}

/// Run `work` over every chunk and fold the results in chunk order.
///
/// A single chunk runs inline, on the caller's `stats` and `span` — the
/// exact serial path. Several chunks fan out over scoped workers, one per
/// chunk, each with its own [`ExecStats`] and a `worker` child span keyed
/// by its index (so the trace orders workers deterministically whatever
/// order they finish in). The contract every caller gets:
///
/// * **Containment.** A worker panic is caught at the thread boundary,
///   cancels the siblings through the shared `guard` (they stop at their
///   next morsel charge) and surfaces as `WorkerPanicked { operator }` —
///   never an unwind into the caller.
/// * **Panic first.** The panic is the root cause; the `Cancelled` errors
///   it induced in siblings, possibly earlier in worker order, are not
///   reported in its place.
/// * **Ordered merge.** Worker 0's result seeds the fold and later workers
///   `merge` in worker order. Chunks are contiguous in row order, so a
///   merge that appends unseen groups reproduces the serial scan's
///   first-appearance order (DESIGN.md, "Scan core").
pub(crate) fn fan_out<T, E>(
    operator: &str,
    chunks: Vec<Range<usize>>,
    guard: &ResourceGuard,
    span: &mut SpanHandle,
    stats: &mut ExecStats,
    work: impl Fn(Range<usize>, &mut ExecStats, &mut SpanHandle) -> Result<T, E> + Sync,
    mut merge: impl FnMut(&mut T, T, &mut ExecStats) -> Result<(), E>,
) -> Result<T, E>
where
    T: Send,
    E: From<EngineError> + Send,
{
    if let [chunk] = chunks.as_slice() {
        return work(chunk.clone(), stats, span);
    }
    let panicked = |p| EngineError::WorkerPanicked {
        operator: operator.into(),
        payload: panic_payload(p),
    };
    // Outer `Err` is a contained panic, inner is the worker's own result.
    type Caught<T, E> = Result<Result<(T, ExecStats), E>, EngineError>;
    let results: Vec<Caught<T, E>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| {
                let (work, panicked) = (&work, &panicked);
                let mut wspan = span.child("worker", w as u32);
                s.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut wstats = ExecStats::default();
                        work(chunk, &mut wstats, &mut wspan).map(|out| (out, wstats))
                    }))
                    .map_err(|p| {
                        guard.cancel();
                        panicked(p)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| Err(panicked(p))))
            .collect()
    });
    if let Some(Err(panic)) = results.iter().find(|r| r.is_err()) {
        return Err(panic.clone().into());
    }
    let mut merged: Option<T> = None;
    for result in results {
        let (out, wstats) = result.expect("panics returned above")?;
        *stats += wstats;
        match &mut merged {
            None => merged = Some(out),
            Some(into) => merge(into, out, stats)?,
        }
    }
    Ok(merged.expect("chunks() yields at least one chunk"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_one_chunk() {
        let c = ParallelConfig::serial();
        assert_eq!(c.effective_threads(1_000_000), 1);
        assert_eq!(c.chunks(10), vec![0..10]);
    }

    #[test]
    fn small_inputs_stay_serial() {
        let c = ParallelConfig::with_threads(8);
        assert_eq!(c.effective_threads(100), 1);
        assert_eq!(c.chunks(100), vec![0..100]);
    }

    #[test]
    fn effective_threads_is_the_thread_decision() {
        assert_eq!(ParallelConfig::serial().effective_threads(10_000_000), 1);
        assert_eq!(
            ParallelConfig::with_threads(4).effective_threads(10_000_000),
            4
        );
        assert_eq!(
            ParallelConfig::with_threads(4).effective_threads(100),
            1,
            "small inputs resolve to the serial path"
        );
    }

    #[test]
    fn chunks_are_contiguous_morsel_aligned_and_cover_input() {
        let c = ParallelConfig {
            threads: 4,
            morsel_rows: 10,
            min_parallel_rows: 0,
            ..ParallelConfig::serial()
        };
        let n = 137;
        let chunks = c.chunks(n);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, n);
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous");
            assert_eq!(pair[0].end % 10, 0, "morsel aligned");
        }
        let total: usize = chunks.iter().map(|r| r.len()).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn never_more_workers_than_morsels() {
        let c = ParallelConfig {
            threads: 16,
            morsel_rows: 100,
            min_parallel_rows: 0,
            ..ParallelConfig::serial()
        };
        assert_eq!(c.effective_threads(250), 3);
        let chunks = c.chunks(250);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn morsel_iteration_covers_chunk() {
        let c = ParallelConfig {
            threads: 2,
            morsel_rows: 8,
            min_parallel_rows: 0,
            ..ParallelConfig::serial()
        };
        let morsels: Vec<_> = c.morsels(16..37).collect();
        assert_eq!(morsels, vec![16..24, 24..32, 32..37]);
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
    }
}
