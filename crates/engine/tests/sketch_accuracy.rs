//! Accuracy-bound tests for the approximate aggregates (DESIGN.md §14).
//!
//! * **t-digest** (a spilled `percentile` or `approx_percentile`): for
//!   every seeded distribution and query rank, the *rank error* of the
//!   returned quantile — the distance between the requested rank and the
//!   true rank of the returned value in the sorted data — must stay within
//!   the documented [`TDIGEST_RANK_EPSILON`]. Both functions keep exact
//!   samples up to the percentile budget, so the streams run past a small
//!   [`BUDGET`] to reach the digest.
//! * **HyperLogLog** (`approx_count_distinct`): the relative error of the
//!   estimate must stay within 3σ of the standard error `1.04/√m`
//!   ([`HLL_STD_ERROR`]) for m = [`HLL_REGISTERS`] registers.
//!
//! Each assertion message carries the observed error, the seed, and the
//! distribution name, so a failure is immediately reproducible.
//!
//! Distributions: uniform, zipf-like (heavy head), all-equal (one distinct
//! value), all-distinct (every value unique) — the degenerate shapes where
//! naive sketches break first.

use pa_engine::{Acc, AggFunc, PBits, TDIGEST_RANK_EPSILON};
use pa_engine::{HLL_REGISTERS, HLL_STD_ERROR};
use pa_storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Seeded distributions
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Dist {
    Uniform,
    Zipf,
    AllEqual,
    AllDistinct,
}

const DISTS: [Dist; 4] = [Dist::Uniform, Dist::Zipf, Dist::AllEqual, Dist::AllDistinct];

impl Dist {
    fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipf => "zipf",
            Dist::AllEqual => "all-equal",
            Dist::AllDistinct => "all-distinct",
        }
    }

    /// `n` float samples of the distribution.
    fn floats(self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match self {
                Dist::Uniform => rng.gen_range(0..1_000_000i64) as f64 / 1000.0,
                // Zipf-like heavy head: value ~ 1/u, so a few huge values
                // and a dense floor — the shape that stresses centroid
                // weight bounds at the tails.
                Dist::Zipf => {
                    let u = (rng.gen_range(1..1_000_000i64) as f64) / 1_000_000.0;
                    1.0 / u
                }
                Dist::AllEqual => 42.0,
                Dist::AllDistinct => i as f64,
            })
            .collect()
    }

    /// `n` key samples with a distribution-dependent distinct structure.
    fn keys(self, n: usize, seed: u64) -> Vec<Value> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match self {
                Dist::Uniform => Value::Int(rng.gen_range(0..(n as i64 / 2).max(1))),
                Dist::Zipf => {
                    // Heavy head over ~n/4 keys: key 0 dominates.
                    let u = (rng.gen_range(1..1_000_000i64) as f64) / 1_000_000.0;
                    Value::Int(((1.0 / u - 1.0) as i64).min(n as i64 / 4))
                }
                Dist::AllEqual => Value::str("the-one-key"),
                Dist::AllDistinct => Value::Int(i as i64),
            })
            .collect()
    }
}

fn exact_distinct(keys: &[Value]) -> usize {
    let mut seen: pa_storage::FxHashSet<Value> = Default::default();
    for k in keys {
        seen.insert(k.clone());
    }
    seen.len()
}

/// Rank error of returning `x` for requested rank `p`: a value with ties
/// occupies the whole rank *interval* [below/n, not_above/n], so the error
/// is the distance from `p` to that interval (0 when `p` falls inside it —
/// e.g. any percentile of all-equal data is exactly right).
fn rank_error(sorted: &[f64], x: f64, p: f64) -> f64 {
    let n = sorted.len().max(1) as f64;
    let lo = sorted.partition_point(|v| *v < x) as f64 / n;
    let hi = sorted.partition_point(|v| *v <= x) as f64 / n;
    if p < lo {
        lo - p
    } else if p > hi {
        p - hi
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// t-digest rank error
// ---------------------------------------------------------------------

/// Samples a percentile state keeps before it spills: far below the
/// streams here, so every state answers from its t-digest.
const BUDGET: usize = 1_024;

/// Both percentile functions at `p`: they share one state.
fn percentiles(p: f64) -> [AggFunc; 2] {
    [
        AggFunc::Percentile(PBits::new(p)),
        AggFunc::ApproxPercentile(PBits::new(p)),
    ]
}

#[test]
fn tdigest_rank_error_within_documented_epsilon() {
    const N: usize = 20_000;
    for dist in DISTS {
        for seed in [101u64, 202, 303] {
            let data = dist.floats(N, seed);
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                for func in percentiles(p) {
                    let mut acc = Acc::with_budget(func, BUDGET);
                    for &x in &data {
                        acc.update(&Value::Float(x)).unwrap();
                    }
                    assert!(acc.spilled(), "{func:?} past the budget");
                    let Value::Float(q) = acc.finish() else {
                        panic!("{func:?} produced a non-float");
                    };
                    let err = rank_error(&sorted, q, p);
                    assert!(
                        err <= TDIGEST_RANK_EPSILON,
                        "t-digest rank error {err:.4} > epsilon {TDIGEST_RANK_EPSILON} \
                         ({func:?}, dist={}, seed={seed}, got={q})",
                        dist.name()
                    );
                }
            }
        }
    }
}

/// The bound survives the merge path: shard the stream, merge the digests,
/// and hold the same epsilon.
#[test]
fn tdigest_rank_error_survives_merges() {
    const N: usize = 20_000;
    for dist in DISTS {
        for seed in [77u64, 88] {
            let data = dist.floats(N, seed);
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            for func in [0.05, 0.5, 0.95].into_iter().flat_map(percentiles) {
                let mut merged = Acc::with_budget(func, BUDGET);
                for chunk in data.chunks(N / 7) {
                    let mut part = Acc::with_budget(func, BUDGET);
                    for &x in chunk {
                        part.update(&Value::Float(x)).unwrap();
                    }
                    merged.merge(part).unwrap();
                }
                assert!(merged.spilled(), "{func:?} past the budget");
                let Value::Float(q) = merged.finish() else {
                    panic!("{func:?} produced a non-float");
                };
                let p = match func {
                    AggFunc::Percentile(p) | AggFunc::ApproxPercentile(p) => p.value(),
                    _ => unreachable!("percentiles only"),
                };
                let err = rank_error(&sorted, q, p);
                assert!(
                    err <= TDIGEST_RANK_EPSILON,
                    "merged t-digest rank error {err:.4} > epsilon {TDIGEST_RANK_EPSILON} \
                     ({func:?}, dist={}, seed={seed}, got={q})",
                    dist.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// HLL relative error
// ---------------------------------------------------------------------

#[test]
fn hll_relative_error_within_three_sigma() {
    const N: usize = 30_000;
    assert!(
        (HLL_STD_ERROR - 1.04 / (HLL_REGISTERS as f64).sqrt()).abs() < 1e-12,
        "documented standard error matches 1.04/sqrt(m)"
    );
    let bound = 3.0 * HLL_STD_ERROR;
    for dist in DISTS {
        for seed in [11u64, 22, 33] {
            let keys = dist.keys(N, seed);
            let truth = exact_distinct(&keys) as f64;
            let mut acc = Acc::new(AggFunc::ApproxCountDistinct);
            for k in &keys {
                acc.update(k).unwrap();
            }
            let Value::Int(est) = acc.finish() else {
                panic!("approx_count_distinct produced a non-int");
            };
            let rel = (est as f64 - truth) / truth;
            assert!(
                rel.abs() <= bound,
                "HLL relative error {rel:+.4} outside 3σ bound {bound:.4} \
                 (dist={}, seed={seed}, exact={truth}, estimate={est})",
                dist.name()
            );
        }
    }
}

/// Merging per-shard HLLs equals inserting the union into one sketch, so
/// the merged estimate inherits the same bound.
#[test]
fn hll_merge_is_lossless_and_bounded() {
    const N: usize = 30_000;
    let bound = 3.0 * HLL_STD_ERROR;
    for dist in DISTS {
        for seed in [44u64, 55] {
            let keys = dist.keys(N, seed);
            let truth = exact_distinct(&keys) as f64;
            let mut whole = Acc::new(AggFunc::ApproxCountDistinct);
            for k in &keys {
                whole.update(k).unwrap();
            }
            let mut merged = Acc::new(AggFunc::ApproxCountDistinct);
            for chunk in keys.chunks(N / 5) {
                let mut part = Acc::new(AggFunc::ApproxCountDistinct);
                for k in chunk {
                    part.update(k).unwrap();
                }
                merged.merge(part).unwrap();
            }
            assert_eq!(
                merged.serialize(),
                whole.serialize(),
                "HLL merge must be lossless (dist={}, seed={seed})",
                dist.name()
            );
            let Value::Int(est) = merged.finish() else {
                panic!("approx_count_distinct produced a non-int");
            };
            let rel = (est as f64 - truth) / truth;
            assert!(
                rel.abs() <= bound,
                "merged HLL relative error {rel:+.4} outside 3σ bound {bound:.4} \
                 (dist={}, seed={seed}, exact={truth}, estimate={est})",
                dist.name()
            );
        }
    }
}
