//! Mergeable sketches for holistic aggregates.
//!
//! Gray et al. classify `percentile` and `count(DISTINCT)` as *holistic*:
//! their finalized values cannot be re-aggregated from sub-group results.
//! Sketches restore mergeability by keeping a bounded summary whose merge
//! is part of the data structure ([`TDigest`] for quantiles, [`Hll`] for
//! distinct counts) — the timescaledb-toolkit idiom the partial/merge/
//! finalize protocol (DESIGN.md §14) builds on.
//!
//! Determinism contract (pinned by the merge-oracle suite):
//! - [`Hll`] merge is an elementwise register max — fully commutative and
//!   associative, so shard merges are byte-identical in *any* order.
//! - [`TDigest`] merge is deterministic for a *fixed* merge order (same
//!   inputs, same order → byte-identical state). Under a shuffled merge
//!   order the digest may differ structurally, but every quantile it
//!   reports stays within the documented rank-error bound.

use pa_storage::partial::{put_f64, put_u32, Cursor};
use pa_storage::{StorageError, Value};

/// t-digest compression factor δ: the centroid budget scale. More
/// centroids → tighter quantiles; 200 keeps the state under ~4 KiB.
pub const TDIGEST_COMPRESSION: f64 = 200.0;

/// Unmerged values buffered before a compaction pass. Fixed so that the
/// flush points — and therefore the centroid layout — are a deterministic
/// function of the update sequence.
const TDIGEST_BUFFER: usize = 512;

/// Documented worst-case *rank* error of [`TDigest::quantile`]: the value
/// returned for quantile `p` has true rank within `p ± epsilon`. The
/// interior bound for δ=200 is well under 1%; 0.05 leaves margin for
/// adversarial distributions and is what the accuracy suite asserts.
pub const TDIGEST_RANK_EPSILON: f64 = 0.05;

/// Relative half-width of the band around a fold threshold inside which
/// the compaction runs the `k₁` test itself (see [`fold_band`]). Both sides
/// of the comparison round at ~1e-14 in `k`; this band is worth ≥ 5e-10.
const FOLD_BAND: f64 = 1e-9;

/// The `q_right` interval a compaction step decides by comparison alone,
/// while the centroids before the open one weigh `cum`. With
/// `x = clamp(2·cum/total − 1)` and `b = 2π/δ`, the test
/// `k₁(q_right) − k₁(cum/total) ≤ 1` holds iff `q_right ≤ q*`, the root of
/// `k₁(q) = k₁(cum/total) + 1`: `q* = (sin(asin x + b) + 1)/2`, expanded by
/// the angle-addition identity so no transcendental runs, and `∞` once
/// `asin x + b ≥ π/2` (`x ≥ cos b`, where the clamp holds `k₁` at `δ/4`).
/// Returns `(lo, hi)`: `q_right ≤ lo` folds, `q_right > hi` closes, and what
/// lies between — within [`FOLD_BAND`] of `q*`, or any `q_right` while `x`
/// is that near `cos b` — runs the exact test. A NaN on either side closes,
/// as the test does.
fn fold_band(cum: f64, total: f64, (cos_b, sin_b): (f64, f64)) -> (f64, f64) {
    let x = (2.0 * (cum / total) - 1.0).clamp(-1.0, 1.0);
    if (x - cos_b).abs() <= FOLD_BAND {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else if x > cos_b {
        (f64::INFINITY, f64::INFINITY)
    } else {
        let q = (x * cos_b + ((1.0 - x) * (1.0 + x)).sqrt() * sin_b + 1.0) / 2.0;
        (q * (1.0 - FOLD_BAND), q * (1.0 + FOLD_BAND))
    }
}

/// Map an `f64` bit pattern to the integer whose order is
/// [`f64::total_cmp`]'s, and back: flip the magnitude bits of negative
/// values. The flip never touches the sign bit it is conditioned on, so it
/// undoes itself.
fn total_order_flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One weighted centroid.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// Merging t-digest over `f64` samples (Dunning & Ertl's design with the
/// `k₁(q) = δ/(2π)·asin(2q−1)` scale function: a neighbour pair merges only
/// if its combined k-span stays ≤ 1, which caps the centroid count at ~δ
/// regardless of input size while keeping tail centroids small).
#[derive(Debug, Clone, PartialEq)]
pub struct TDigest {
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    /// Weight held in `centroids` (the buffer's weight is its length).
    total: f64,
    min: f64,
    max: f64,
}

impl Default for TDigest {
    fn default() -> Self {
        TDigest::new()
    }
}

impl TDigest {
    /// Empty digest.
    pub fn new() -> TDigest {
        TDigest {
            centroids: Vec::new(),
            buffer: Vec::new(),
            total: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.total as u64 + self.buffer.len() as u64
    }

    /// Absorb one sample.
    pub fn update(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.buffer.push(x);
        if self.buffer.len() >= TDIGEST_BUFFER {
            self.compress();
        }
    }

    /// Fold `other` into `self`. Deterministic for a fixed merge order.
    pub fn merge(&mut self, other: &TDigest) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.buffer.extend_from_slice(&other.buffer);
        self.centroids.extend_from_slice(&other.centroids);
        self.total += other.total;
        self.compress();
    }

    /// The `k₁` scale function: monotone in `q`, spanning `[−δ/4, δ/4]`,
    /// steep at the tails so tail centroids stay light. A merged centroid
    /// may cover at most one unit of `k`. The compaction evaluates it only
    /// where [`fold_band`] cannot decide.
    fn k_scale(q: f64) -> f64 {
        (TDIGEST_COMPRESSION / (2.0 * std::f64::consts::PI))
            * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
    }

    /// Compaction: sort the buffer, merge it (as weight-1 centroids) into
    /// the centroid list in the canonical `(mean, weight)` order, and
    /// greedily fold neighbours while the folded centroid's `k₁`-span stays
    /// ≤ 1 — decided against [`fold_band`]'s threshold, recomputed once per
    /// closed centroid, so every decision is the `k₁` test's. A pure
    /// function of the centroid and buffer multisets — equal
    /// `(mean, weight)` pairs are indistinguishable, so tie order cannot
    /// show — and it bounds the centroid count at ~δ for any input size.
    fn compress(&mut self) {
        if self.buffer.is_empty() && self.centroids.is_empty() {
            return;
        }
        let canonical = |a: &Centroid, b: &Centroid| {
            a.mean
                .total_cmp(&b.mean)
                .then(a.weight.total_cmp(&b.weight))
        };
        // A compaction leaves the centroids ordered up to rounding in the
        // folded means; `merge` and decoded payloads append arbitrary ones.
        if !self.centroids.is_sorted_by(|a, b| canonical(a, b).is_le()) {
            self.centroids.sort_by(canonical);
        }
        // Sort the samples as the integers `f64::total_cmp` compares: the
        // same order, and about twice as fast as a comparator sort.
        let mut fresh: Vec<i64> = self
            .buffer
            .iter()
            .map(|&x| total_order_flip(x.to_bits() as i64))
            .collect();
        fresh.sort_unstable();
        for _ in &self.buffer {
            // One add per sample: a decoded digest may carry fractional
            // weights, where adding the length at once rounds differently.
            self.total += 1.0;
        }
        let total = self.total;
        if total <= 0.0 {
            self.buffer.clear();
            return;
        }
        let old = std::mem::take(&mut self.centroids);
        let mut merged: Vec<Centroid> = Vec::with_capacity(old.len());
        let mut cum = 0.0; // weight settled strictly before merged.last()
        let b = 2.0 * std::f64::consts::PI / TDIGEST_COMPRESSION;
        let angle = (b.cos(), b.sin());
        let (mut lo, mut hi) = fold_band(cum, total, angle); // moves only when a centroid closes
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < fresh.len() {
            let sample = fresh.get(j).map(|&key| Centroid {
                mean: f64::from_bits(total_order_flip(key) as u64),
                weight: 1.0,
            });
            let c = match (old.get(i), sample) {
                (Some(&o), Some(f)) if canonical(&o, &f).is_le() => {
                    i += 1;
                    o
                }
                (Some(&o), None) => {
                    i += 1;
                    o
                }
                (_, Some(f)) => {
                    j += 1;
                    f
                }
                (None, None) => unreachable!("loop condition"),
            };
            match merged.last_mut() {
                Some(last) => {
                    let proposed = last.weight + c.weight;
                    let q_right = (cum + proposed) / total;
                    if q_right <= lo
                        || (q_right <= hi
                            && TDigest::k_scale(q_right) - TDigest::k_scale(cum / total) <= 1.0)
                    {
                        last.mean = (last.mean * last.weight + c.mean * c.weight) / proposed;
                        last.weight = proposed;
                    } else {
                        cum += last.weight;
                        (lo, hi) = fold_band(cum, total, angle);
                        merged.push(c);
                    }
                }
                None => merged.push(c),
            }
        }
        self.buffer.clear();
        self.centroids = merged;
    }

    /// Estimate the `p`-quantile (`0 ≤ p ≤ 1`); `None` over no samples.
    /// Linear interpolation between centroid means, clamped to the exact
    /// observed min/max at the tails.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let mut flushed;
        let d = if self.buffer.is_empty() {
            self
        } else {
            flushed = self.clone();
            flushed.compress();
            &flushed
        };
        if d.total <= 0.0 {
            return None;
        }
        if p <= 0.0 {
            return Some(d.min);
        }
        if p >= 1.0 {
            return Some(d.max);
        }
        let t = p * d.total;
        let mut cum = 0.0;
        for (i, c) in d.centroids.iter().enumerate() {
            let mid = cum + c.weight / 2.0;
            if t < mid {
                let (lo_rank, lo_val) = if i == 0 {
                    (0.0, d.min)
                } else {
                    let prev = &d.centroids[i - 1];
                    (cum - prev.weight / 2.0, prev.mean)
                };
                if mid <= lo_rank {
                    return Some(c.mean);
                }
                let frac = (t - lo_rank) / (mid - lo_rank);
                return Some(lo_val + frac * (c.mean - lo_val));
            }
            cum += c.weight;
        }
        Some(d.max)
    }

    /// Serialize the flushed digest into `buf` (centroids, min, max).
    pub fn write_payload(&self, buf: &mut Vec<u8>) {
        let mut flushed;
        let d = if self.buffer.is_empty() {
            self
        } else {
            flushed = self.clone();
            flushed.compress();
            &flushed
        };
        put_u32(buf, d.centroids.len() as u32);
        for c in &d.centroids {
            put_f64(buf, c.mean);
            put_f64(buf, c.weight);
        }
        put_f64(buf, d.min);
        put_f64(buf, d.max);
    }

    /// Decode a digest payload written by [`TDigest::write_payload`].
    pub fn read_payload(cur: &mut Cursor<'_>) -> Result<TDigest, StorageError> {
        let n = cur.u32()? as usize;
        let mut centroids = Vec::with_capacity(n.min(4096));
        let mut total = 0.0;
        for _ in 0..n {
            let mean = cur.f64()?;
            let weight = cur.f64()?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(StorageError::PartialCodec(format!(
                    "t-digest centroid weight {weight} is not a finite non-negative number"
                )));
            }
            total += weight;
            centroids.push(Centroid { mean, weight });
        }
        Ok(TDigest {
            centroids,
            buffer: Vec::new(),
            total,
            min: cur.f64()?,
            max: cur.f64()?,
        })
    }
}

/// Number of HyperLogLog registers (`m = 2^10`).
pub const HLL_REGISTERS: usize = 1 << HLL_BITS;
const HLL_BITS: u32 = 10;

/// Standard error of the HLL estimate: `1.04 / √m ≈ 3.25%` for `m = 1024`.
pub const HLL_STD_ERROR: f64 = 1.04 / 32.0;

/// FNV-1a over the bytes [`Value::key_hash`] feeds, finished with a
/// splitmix64-style avalanche so the high bits (the register index) mix
/// well. Self-contained so serialized sketches never depend on the std
/// hasher's (unspecified) algorithm.
struct ValueHasher(u64);

impl std::hash::Hasher for ValueHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The deterministic 64-bit hash [`Hll`] buckets values by. Respects
/// key equality (`Int(3)` hashes like `Float(3.0)`).
pub fn value_hash64(v: &Value) -> u64 {
    let mut h = ValueHasher(0xcbf2_9ce4_8422_2325);
    v.key_hash(&mut h);
    std::hash::Hasher::finish(&h)
}

/// HyperLogLog distinct-count sketch with `m = 1024` registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hll {
    registers: Vec<u8>,
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    /// Empty sketch.
    pub fn new() -> Hll {
        Hll {
            registers: vec![0; HLL_REGISTERS],
        }
    }

    /// Absorb one value.
    pub fn insert(&mut self, v: &Value) {
        self.insert_hash(value_hash64(v));
    }

    /// Absorb one value by its [`value_hash64`].
    #[inline]
    pub(crate) fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - HLL_BITS)) as usize;
        let rest = h << HLL_BITS;
        let rho = (rest.leading_zeros() + 1).min(64 - HLL_BITS + 1) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// Elementwise register max — commutative, associative, idempotent.
    pub fn merge(&mut self, other: &Hll) {
        for (r, o) in self.registers.iter_mut().zip(&other.registers) {
            *r = (*r).max(*o);
        }
    }

    /// Cardinality estimate with the small-range linear-counting
    /// correction from the original HLL paper.
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 1.0 / (1u64 << r) as f64)
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// The register array (for serialization).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuild from a serialized register array.
    pub fn from_registers(registers: Vec<u8>) -> Result<Hll, StorageError> {
        if registers.len() != HLL_REGISTERS {
            return Err(StorageError::PartialCodec(format!(
                "HLL register array has {} entries, expected {HLL_REGISTERS}",
                registers.len()
            )));
        }
        if let Some(&bad) = registers.iter().find(|&&r| r as u32 > 64 - HLL_BITS + 1) {
            return Err(StorageError::PartialCodec(format!(
                "HLL register value {bad} exceeds the {} bit budget",
                64 - HLL_BITS + 1
            )));
        }
        Ok(Hll { registers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdigest_quantiles_of_small_sets_are_near_exact() {
        let mut d = TDigest::new();
        for x in [10.0, 20.0, 30.0, 40.0] {
            d.update(x);
        }
        assert_eq!(d.quantile(0.0), Some(10.0));
        assert_eq!(d.quantile(1.0), Some(40.0));
        let med = d.quantile(0.5).unwrap();
        assert!((med - 25.0).abs() < 5.0, "median ~25, got {med}");
        assert!(TDigest::new().quantile(0.5).is_none());
    }

    #[test]
    fn tdigest_bounds_state_size_on_large_inputs() {
        let mut d = TDigest::new();
        let mut s = 1u64;
        for _ in 0..100_000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            d.update((s >> 11) as f64 / (1u64 << 53) as f64);
        }
        let mut flushed = d.clone();
        flushed.compress();
        assert!(
            flushed.centroids.len() < 2 * TDIGEST_COMPRESSION as usize,
            "{} centroids",
            flushed.centroids.len()
        );
        assert_eq!(d.count(), 100_000);
    }

    /// The compaction this module shipped with: every sample becomes a
    /// centroid, the lot is re-sorted, and both `k₁` values are evaluated
    /// per step. Kept as the reference the merging compaction must match
    /// byte for byte.
    fn compress_by_full_sort(d: &mut TDigest) {
        for &x in &d.buffer {
            d.centroids.push(Centroid {
                mean: x,
                weight: 1.0,
            });
            d.total += 1.0;
        }
        d.buffer.clear();
        d.centroids.sort_by(|a, b| {
            a.mean
                .total_cmp(&b.mean)
                .then(a.weight.total_cmp(&b.weight))
        });
        let total = d.total;
        let mut merged: Vec<Centroid> = Vec::new();
        let mut cum = 0.0;
        for c in d.centroids.drain(..) {
            match merged.last_mut() {
                Some(last) => {
                    let proposed = last.weight + c.weight;
                    let k_left = TDigest::k_scale(cum / total);
                    if TDigest::k_scale((cum + proposed) / total) - k_left <= 1.0 {
                        last.mean = (last.mean * last.weight + c.mean * c.weight) / proposed;
                        last.weight = proposed;
                    } else {
                        cum += last.weight;
                        merged.push(c);
                    }
                }
                None => merged.push(c),
            }
        }
        d.centroids = merged;
    }

    /// Every bit a digest's state holds: centroid `(mean, weight)` pairs,
    /// `total`, `min`, `max`.
    type Bits = (Vec<(u64, u64)>, u64, u64, u64);

    fn bits(d: &TDigest) -> Bits {
        let centroids = d.centroids.iter();
        (
            centroids
                .map(|c| (c.mean.to_bits(), c.weight.to_bits()))
                .collect(),
            d.total.to_bits(),
            d.min.to_bits(),
            d.max.to_bits(),
        )
    }

    /// A digest decoded from a payload holding `centroids` as given.
    fn decoded(centroids: &[(f64, f64)]) -> TDigest {
        let mut buf = Vec::new();
        put_u32(&mut buf, centroids.len() as u32);
        for &(mean, weight) in centroids {
            put_f64(&mut buf, mean);
            put_f64(&mut buf, weight);
        }
        let means = centroids.iter().map(|c| c.0);
        put_f64(&mut buf, means.clone().fold(f64::INFINITY, f64::min));
        put_f64(&mut buf, means.fold(f64::NEG_INFINITY, f64::max));
        TDigest::read_payload(&mut Cursor::new(&buf)).unwrap()
    }

    /// `d` compacted by both implementations, which must agree to the bit.
    fn assert_compacts_like_the_reference(d: &TDigest, what: &str) {
        let (mut new, mut old) = (d.clone(), d.clone());
        new.compress();
        compress_by_full_sort(&mut old);
        assert_eq!(bits(&new), bits(&old), "{what}");
    }

    #[test]
    fn merging_compaction_matches_the_full_sort_reference() {
        let lcg = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s >> 13
        };
        // Constant (folded means drift by rounding), two-valued and few-
        // valued (ties between samples and centroids of equal mean),
        // integral 0..1000, signed zeros with NaN and −∞, 1e300 tails around
        // a narrow body, and a wide spread.
        let sample = |kind: u64, s: u64| -> f64 {
            match kind {
                0 => 0.1,
                1 => [2.5, -1.0][(s & 1) as usize],
                2 => (s % 7) as f64,
                3 => (s % 1000) as f64,
                4 => [-0.0, 0.0, 1.0, f64::NAN, f64::NEG_INFINITY][(s % 5) as usize],
                5 if s.is_multiple_of(16) => (s % 3) as f64 * 1e300 - 1e300,
                5 => (s % 4096) as f64 / 4096.0,
                _ => (s >> 11) as f64 / (1u64 << 40) as f64 - 4000.0,
            }
        };
        // `update`, with either compaction at the same flush points.
        let feed = |d: &mut TDigest, x: f64, reference: bool| {
            d.min = d.min.min(x);
            d.max = d.max.max(x);
            d.buffer.push(x);
            if d.buffer.len() >= TDIGEST_BUFFER {
                if reference {
                    compress_by_full_sort(d);
                } else {
                    d.compress();
                }
            }
        };
        for stream in 0..350u64 {
            let mut s = 0x9e37_79b9_7f4a_7c15 ^ stream;
            let kind = stream % 7;
            // Lengths 1..20k, most short: the flush points, the tail of
            // unflushed samples and the centroid budget all vary.
            let len = match lcg(&mut s) % 4 {
                0 => 1 + lcg(&mut s) % 600,
                1 | 2 => 1 + lcg(&mut s) % 4_000,
                _ => 1 + lcg(&mut s) % 20_000,
            };
            // Every third stream starts from a decoded digest of fractional
            // weights; every stream splits unevenly into two digests.
            let start = if stream % 3 == 0 {
                let n = 1 + lcg(&mut s) % 300;
                let centroids: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        let w = 0.25 + (lcg(&mut s) % 1000) as f64 / 7.0;
                        (sample(kind, lcg(&mut s)), w)
                    })
                    .collect();
                decoded(&centroids)
            } else {
                TDigest::new()
            };
            let (mut new, mut old) = (start.clone(), start);
            let (mut other_new, mut other_old) = (TDigest::new(), TDigest::new());
            let split = 2 + stream % 5;
            for step in 0..len {
                let x = sample(kind, lcg(&mut s));
                if step % split == 0 {
                    feed(&mut other_new, x, false);
                    feed(&mut other_old, x, true);
                } else {
                    feed(&mut new, x, false);
                    feed(&mut old, x, true);
                }
            }
            assert_eq!(bits(&new), bits(&old), "stream {stream}: updates");
            // `merge` appends the other digest's centroids unsorted.
            new.merge(&other_new);
            old.min = old.min.min(other_old.min);
            old.max = old.max.max(other_old.max);
            old.buffer.extend_from_slice(&other_old.buffer);
            old.centroids.extend_from_slice(&other_old.centroids);
            old.total += other_old.total;
            compress_by_full_sort(&mut old);
            assert_eq!(bits(&new), bits(&old), "stream {stream}: merge");
        }
    }

    /// The threshold's edges, where a wrong `q*` or too narrow a band would
    /// fold what the `k₁` test closes. Centroids `A, B, C, D` of total ≈ 1:
    /// `B` closes `A`, so `x = 2·w_A − 1`, and `C` then folds into `B` iff
    /// `q_right = w_A + w_B + w_C ≤ q*`. `q_right` sweeps from outside the
    /// band in, down to single ulps of `q*` (found here by `asin`/`sin`, not
    /// by the compaction's identity); and `x` sweeps across `cos b`, where
    /// `q*` reaches 1 and the clamp takes over.
    #[test]
    fn fold_threshold_decides_as_the_k_test_at_its_edges() {
        let b = 2.0 * std::f64::consts::PI / TDIGEST_COMPRESSION;
        let q_star = |x: f64| ((x.asin() + b).sin() + 1.0) / 2.0;
        let steps = (-40..=40)
            .map(|k| k as f64 * 1e-10)
            .chain((-30..=30).map(|k| k as f64 * f64::EPSILON / 4.0));
        for w_a in [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9997] {
            let target = q_star(2.0 * w_a - 1.0);
            let w_b = (target - w_a) / 4.0;
            for step in steps.clone() {
                let q = target * (1.0 + step);
                let d = decoded(&[(0.0, w_a), (1.0, w_b), (2.0, q - w_a - w_b), (3.0, 1.0 - q)]);
                assert_compacts_like_the_reference(&d, &format!("w_a {w_a}, q {q:e}"));
            }
        }
        // `x` across `cos b`, `C` the last centroid (`q_right` ≈ 1): it folds
        // above the crossing and closes below, on both sides of the band.
        let crossing = (1.0 + b.cos()) / 2.0;
        let mut counts = std::collections::BTreeSet::new();
        let by_ulp =
            (-64..=64i64).map(|k| f64::from_bits(crossing.to_bits().wrapping_add_signed(k)));
        for w_a in (-400..=400)
            .map(|k| crossing * (1.0 + k as f64 * 1e-11))
            .chain(by_ulp)
        {
            let rest = 1.0 - w_a;
            let d = decoded(&[(0.0, w_a), (1.0, rest / 2.0), (2.0, rest / 2.0)]);
            assert_compacts_like_the_reference(&d, &format!("w_a {w_a:e}"));
            let mut new = d.clone();
            new.compress();
            counts.insert(new.centroids.len());
        }
        assert_eq!(counts.len(), 2, "the sweep crosses cos b: {counts:?}");
    }

    #[test]
    fn tdigest_fixed_merge_order_is_byte_identical() {
        let build = |lo: usize, hi: usize| {
            let mut d = TDigest::new();
            for i in lo..hi {
                d.update((i * 37 % 1000) as f64);
            }
            d
        };
        let mut a = build(0, 500);
        a.merge(&build(500, 1000));
        let mut b = build(0, 500);
        b.merge(&build(500, 1000));
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        a.write_payload(&mut ab);
        b.write_payload(&mut bb);
        assert_eq!(ab, bb, "same inputs, same merge order → same bytes");
    }

    #[test]
    fn tdigest_payload_round_trips() {
        let mut d = TDigest::new();
        for i in 0..5000 {
            d.update((i % 113) as f64);
        }
        let mut buf = Vec::new();
        d.write_payload(&mut buf);
        let mut cur = Cursor::new(&buf);
        let back = TDigest::read_payload(&mut cur).unwrap();
        cur.finish().unwrap();
        for p in [0.1, 0.5, 0.9] {
            assert_eq!(back.quantile(p), d.quantile(p), "p={p}");
        }
    }

    #[test]
    fn hll_estimates_within_documented_error() {
        let mut h = Hll::new();
        for i in 0..10_000i64 {
            h.insert(&Value::Int(i));
        }
        let est = h.estimate();
        let rel = (est - 10_000.0).abs() / 10_000.0;
        assert!(rel < 3.0 * HLL_STD_ERROR, "relative error {rel}");
    }

    #[test]
    fn hll_merge_is_commutative_and_idempotent() {
        let mut a = Hll::new();
        let mut b = Hll::new();
        for i in 0..500i64 {
            a.insert(&Value::Int(i));
            b.insert(&Value::Int(i + 250));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let before = ab.clone();
        ab.merge(&b);
        assert_eq!(ab, before, "idempotent");
    }

    #[test]
    fn hll_hash_respects_key_equality() {
        assert_eq!(
            value_hash64(&Value::Int(3)),
            value_hash64(&Value::Float(3.0))
        );
        assert_ne!(value_hash64(&Value::Int(3)), value_hash64(&Value::Int(4)));
    }

    #[test]
    fn hll_register_validation() {
        assert!(Hll::from_registers(vec![0; 8]).is_err(), "wrong length");
        assert!(Hll::from_registers(vec![60; HLL_REGISTERS]).is_err());
        let h = Hll::from_registers(vec![0; HLL_REGISTERS]).unwrap();
        assert_eq!(h.estimate(), 0.0);
    }
}
