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
    /// may cover at most one unit of `k`.
    fn k_scale(q: f64) -> f64 {
        (TDIGEST_COMPRESSION / (2.0 * std::f64::consts::PI))
            * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
    }

    /// Compaction: sort the buffer, merge it (as weight-1 centroids) into
    /// the centroid list in the canonical `(mean, weight)` order, and
    /// greedily fold neighbours while the folded centroid's `k₁`-span stays
    /// ≤ 1. A pure function of the centroid and buffer multisets — equal
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
        let mut k_left = TDigest::k_scale(0.0); // k₁(cum / total), moves only when a centroid closes
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
                    if TDigest::k_scale(q_right) - k_left <= 1.0 {
                        last.mean = (last.mean * last.weight + c.mean * c.weight) / proposed;
                        last.weight = proposed;
                    } else {
                        cum += last.weight;
                        k_left = TDigest::k_scale(cum / total);
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
        let h = value_hash64(v);
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

    #[test]
    fn merging_compaction_matches_the_full_sort_reference() {
        let bits = |d: &TDigest| -> Vec<(u64, u64)> {
            d.centroids
                .iter()
                .map(|c| (c.mean.to_bits(), c.weight.to_bits()))
                .collect()
        };
        // Few distinct values (ties between samples and centroids of equal
        // mean), signed zeros with NaN and −∞, a wide spread, and a constant stream whose
        // folded means drift by rounding.
        let streams: [&dyn Fn(u64) -> f64; 4] = [
            &|s| (s % 7) as f64,
            &|s| [-0.0, 0.0, 1.0, f64::NAN, f64::NEG_INFINITY][(s % 5) as usize],
            &|s| (s >> 11) as f64 / (1u64 << 40) as f64 - 4000.0,
            &|_| 0.1,
        ];
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
        for (i, stream) in streams.iter().enumerate() {
            let (mut new, mut old) = (TDigest::new(), TDigest::new());
            let (mut other_new, mut other_old) = (TDigest::new(), TDigest::new());
            let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ i as u64;
            for step in 0..5_000 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = stream(s >> 13);
                if step % 3 == 0 {
                    feed(&mut other_new, x, false);
                    feed(&mut other_old, x, true);
                } else {
                    feed(&mut new, x, false);
                    feed(&mut old, x, true);
                }
            }
            assert_eq!(bits(&new), bits(&old), "stream {i}: updates");
            // `merge` appends the other digest's centroids unsorted.
            new.merge(&other_new);
            old.buffer.extend_from_slice(&other_old.buffer);
            old.centroids.extend_from_slice(&other_old.centroids);
            old.total += other_old.total;
            compress_by_full_sort(&mut old);
            assert_eq!(bits(&new), bits(&old), "stream {i}: merge");
            assert_eq!(new.total.to_bits(), old.total.to_bits(), "stream {i}");
        }
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
