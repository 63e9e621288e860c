//! Aggregate accumulators and the partial/merge/finalize protocol.
//!
//! One [`Acc`] holds the running state of a single aggregate over one
//! group. The state is a *partial* in Gray et al.'s Data Cube sense:
//! distributive (`sum`/`min`/`max`/`count(*)`) and algebraic (`avg`)
//! functions carry their obvious partials, while the holistic ones carry
//! either their full value set (`count(DISTINCT)`, `percentile` and
//! `approx_percentile` alike) or a mergeable sketch
//! ([t-digest](crate::sketch::TDigest) once a percentile's sample set
//! outgrows its budget, [HLL](crate::sketch::Hll) always).
//!
//! The [`PartialState`] trait names the contract every variant honors
//! (DESIGN.md §14): `update` absorbs one input, `merge` folds a disjoint
//! partial in, `finalize` produces the SQL value, and `serialize`/
//! `deserialize` move the partial across process boundaries in a
//! versioned, CRC-guarded frame ([`pa_storage::partial`]). Thread-local
//! morsel partials, shard partials, and replica partials all merge
//! through the same code path, which is what the shard-merge differential
//! oracle proves end to end.
//!
//! Determinism classes (pinned by the oracle and the property suite):
//! - **Order-insensitive** (byte-identical under any merge order): every
//!   exact variant plus HLL — a percentile of either kind included while
//!   its samples stay within the budget. Exact set-carrying states
//!   serialize in [`Value::total_cmp`] order so their bytes are canonical
//!   regardless of insertion order.
//! - **Ordered-deterministic**: a percentile spilled to its t-digest is
//!   byte-identical for a fixed merge order and rank-error-bounded under
//!   any other order.

use crate::error::{EngineError, Result};
use crate::ops::aggregate::{AggFunc, PBits};
use crate::sketch::{Hll, TDigest};
use pa_storage::partial::{frame, put_f64, put_i64, put_u32, put_u64, put_value, unframe, Cursor};
use pa_storage::{StorageError, Value};

/// Default per-group sample budget for `percentile` and
/// `approx_percentile` before the state spills to a t-digest.
/// `PA_PERCENTILE_BUDGET` overrides it through
/// [`crate::ParallelConfig::percentile_budget`].
pub const DEFAULT_PERCENTILE_BUDGET: usize = 65_536;

/// The two-step aggregation contract: accumulate partials shard-locally,
/// then merge and finalize anywhere — with a versioned byte form in
/// between so "anywhere" includes other processes (DESIGN.md §14).
pub trait PartialState: Sized {
    /// Absorb one input value.
    fn update(&mut self, v: &Value) -> Result<()>;
    /// Fold a partial computed over a disjoint input slice into this one.
    fn merge(&mut self, other: Self) -> Result<()>;
    /// Produce the final SQL value.
    fn finalize(&self) -> Value;
    /// Encode the partial as a versioned, CRC-guarded byte frame.
    fn serialize(&self) -> Vec<u8>;
    /// Decode a frame produced by [`PartialState::serialize`]. Corrupted
    /// or truncated input yields a typed error, never a panic.
    fn deserialize(bytes: &[u8]) -> Result<Self>;
}

/// Exact-vs-spilled state of a `percentile` or `approx_percentile`
/// accumulator.
#[derive(Debug, Clone)]
pub enum PctState {
    /// All samples retained; finalize sorts and interpolates exactly.
    Exact(Vec<f64>),
    /// Over budget: samples folded into a t-digest, boxed so that the
    /// rare spilled state does not widen every accumulator.
    Spilled(Box<TDigest>),
}

impl PctState {
    /// Absorb one sample; the state spills at the sample that takes it
    /// past `budget`. Every path that feeds a percentile of either kind —
    /// the per-row [`Acc::update`] and the block-fed holistic lanes — goes
    /// through here, so they spill at the same row.
    #[inline]
    pub(crate) fn push(&mut self, budget: usize, x: f64) {
        match self {
            PctState::Exact(vals) => {
                vals.push(x);
                if vals.len() > budget {
                    *self = PctState::Spilled(digest_of(vals));
                }
            }
            PctState::Spilled(d) => d.update(x),
        }
    }
}

/// Running state of one aggregate over one group.
#[derive(Debug, Clone)]
pub enum Acc {
    /// `sum(expr)`: running sum plus a flag that any non-NULL was seen.
    Sum {
        /// Running sum.
        sum: f64,
        /// Whether any non-NULL input arrived (sum of nothing is NULL).
        any: bool,
    },
    /// `count(expr)`: non-NULL count.
    Count(i64),
    /// `count(DISTINCT expr)`: set of distinct non-NULL values.
    CountDistinct(pa_storage::FxHashSet<Value>),
    /// `count(*)`: row count.
    CountStar(i64),
    /// `avg(expr)`: sum and non-NULL count.
    Avg {
        /// Running sum.
        sum: f64,
        /// Non-NULL count.
        n: i64,
    },
    /// `min(expr)` (NULL until a value arrives).
    Min(Value),
    /// `max(expr)` (NULL until a value arrives).
    Max(Value),
    /// `percentile(expr, p)` / `median(expr)` and `approx_percentile(expr,
    /// p)`: one state for both, retaining samples up to `budget`, then
    /// spilling to a t-digest. Within the budget either function answers
    /// the exact PERCENTILE_CONT, which lies within any rank bound.
    Percentile {
        /// Interpolation fraction in `[0, 1]`.
        p: f64,
        /// Whether this is `approx_percentile`: it names the function and
        /// its frame tag, and changes no answer.
        approx: bool,
        /// Sample budget before spilling.
        budget: usize,
        /// Exact samples or the spilled digest.
        state: PctState,
    },
    /// `approx_count_distinct(expr)`: HyperLogLog registers.
    ApproxCountDistinct(Hll),
}

/// PERCENTILE_CONT over a sample in any order: linear interpolation
/// between the two nearest ranks of the [`f64::total_cmp`] order (p=0 →
/// min, p=1 → max, p=0.5 of `[10,20,30,40]` → `25.0`). Selects the two
/// ranks instead of sorting; `vals` is left partially ordered.
fn percentile_cont(vals: &mut [f64], p: f64) -> Value {
    if vals.is_empty() {
        return Value::Null;
    }
    let rank = p.clamp(0.0, 1.0) * (vals.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (_, &mut at_lo, above) = vals.select_nth_unstable_by(lo, f64::total_cmp);
    // `hi` is `lo` or `lo + 1`: the next rank is the least value above.
    let at_hi = if hi == lo {
        at_lo
    } else {
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("rank hi = lo + 1 lies inside the sample")
    };
    Value::Float(at_lo + (at_hi - at_lo) * frac)
}

/// Representation tie-break for min/max: [`Value::total_cmp`] calls
/// `Int(x)` and `Float(x)` equal, so without a rule the surviving
/// representation would depend on arrival (and merge) order and leak into
/// the serialized partial. On a numeric tie the `Int` form wins,
/// deterministically, whichever side it arrives on.
fn prefer_repr(candidate: &Value, incumbent: &Value) -> bool {
    matches!((candidate, incumbent), (Value::Int(_), Value::Float(_)))
}

/// Frame tag of an `approx_percentile` state: tag 8's payload under the
/// other function's name. Tag 9 was its bare t-digest, still decoded.
const APPROX_PERCENTILE_TAG: u8 = 11;

fn digest_of(values: &[f64]) -> Box<TDigest> {
    let mut d = Box::new(TDigest::new());
    for &x in values {
        d.update(x);
    }
    d
}

impl Acc {
    /// Fresh accumulator for `func`, with the default percentile budget.
    pub fn new(func: AggFunc) -> Acc {
        Acc::with_budget(func, DEFAULT_PERCENTILE_BUDGET)
    }

    /// Fresh accumulator for `func`; a percentile state of either kind
    /// spills to its t-digest past `percentile_budget` samples (operators pass
    /// [`crate::ParallelConfig::percentile_budget`]).
    pub fn with_budget(func: AggFunc, percentile_budget: usize) -> Acc {
        match func {
            AggFunc::Sum => Acc::Sum {
                sum: 0.0,
                any: false,
            },
            AggFunc::Count => Acc::Count(0),
            AggFunc::CountDistinct => Acc::CountDistinct(Default::default()),
            AggFunc::CountStar => Acc::CountStar(0),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(Value::Null),
            AggFunc::Max => Acc::Max(Value::Null),
            AggFunc::Percentile(p) | AggFunc::ApproxPercentile(p) => Acc::Percentile {
                p: p.value(),
                approx: matches!(func, AggFunc::ApproxPercentile(_)),
                budget: percentile_budget,
                state: PctState::Exact(Vec::new()),
            },
            AggFunc::ApproxCountDistinct => Acc::ApproxCountDistinct(Hll::new()),
        }
    }

    /// The aggregate function this accumulator computes.
    pub fn func(&self) -> AggFunc {
        match self {
            Acc::Sum { .. } => AggFunc::Sum,
            Acc::Count(_) => AggFunc::Count,
            Acc::CountDistinct(_) => AggFunc::CountDistinct,
            Acc::CountStar(_) => AggFunc::CountStar,
            Acc::Avg { .. } => AggFunc::Avg,
            Acc::Min(_) => AggFunc::Min,
            Acc::Max(_) => AggFunc::Max,
            Acc::Percentile {
                p, approx: false, ..
            } => AggFunc::Percentile(PBits::new(*p)),
            Acc::Percentile {
                p, approx: true, ..
            } => AggFunc::ApproxPercentile(PBits::new(*p)),
            Acc::ApproxCountDistinct(_) => AggFunc::ApproxCountDistinct,
        }
    }

    /// Whether a percentile state has spilled to its digest
    /// (surfaced as [`crate::ExecStats::sketch_spills`]).
    pub fn spilled(&self) -> bool {
        matches!(
            self,
            Acc::Percentile {
                state: PctState::Spilled(_),
                ..
            }
        )
    }

    /// Absorb one input value. NULLs are skipped by everything except
    /// `count(*)`; non-numeric input to `sum`/`avg`/percentiles is a
    /// type error.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::CountStar(n) => *n += 1,
            _ if v.is_null() => {}
            Acc::Sum { sum, any } => match v.as_f64() {
                Some(x) => {
                    *sum += x;
                    *any = true;
                }
                None => {
                    return Err(EngineError::ExprType(format!("sum of non-numeric {v}")));
                }
            },
            Acc::Count(n) => *n += 1,
            Acc::CountDistinct(seen) => {
                seen.insert(v.clone());
            }
            Acc::Avg { sum, n } => match v.as_f64() {
                Some(x) => {
                    *sum += x;
                    *n += 1;
                }
                None => {
                    return Err(EngineError::ExprType(format!("avg of non-numeric {v}")));
                }
            },
            Acc::Min(m) => {
                if m.is_null()
                    || v.total_cmp(m) == std::cmp::Ordering::Less
                    || (v.total_cmp(m) == std::cmp::Ordering::Equal && prefer_repr(v, m))
                {
                    *m = v.clone();
                }
            }
            Acc::Max(m) => {
                if m.is_null()
                    || v.total_cmp(m) == std::cmp::Ordering::Greater
                    || (v.total_cmp(m) == std::cmp::Ordering::Equal && prefer_repr(v, m))
                {
                    *m = v.clone();
                }
            }
            Acc::Percentile { budget, state, .. } => match v.as_f64() {
                Some(x) => state.push(*budget, x),
                None => {
                    let name = self.func().sql_name();
                    return Err(EngineError::ExprType(format!("{name} of non-numeric {v}")));
                }
            },
            Acc::ApproxCountDistinct(hll) => hll.insert(v),
        }
        Ok(())
    }

    /// Fold another partial accumulator of the same function into this
    /// one. Partials merge associatively; merging worker partials in
    /// worker order after a contiguous-chunk scan reproduces the serial
    /// accumulation order.
    pub fn merge(&mut self, other: Acc) -> Result<()> {
        match (self, other) {
            (Acc::Sum { sum, any }, Acc::Sum { sum: s2, any: a2 }) => {
                *sum += s2;
                *any |= a2;
            }
            (Acc::Count(n), Acc::Count(m)) => *n += m,
            (Acc::CountStar(n), Acc::CountStar(m)) => *n += m,
            (Acc::CountDistinct(seen), Acc::CountDistinct(other_seen)) => {
                seen.extend(other_seen);
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::Min(m), Acc::Min(v)) => {
                if !v.is_null()
                    && (m.is_null()
                        || v.total_cmp(m) == std::cmp::Ordering::Less
                        || (v.total_cmp(m) == std::cmp::Ordering::Equal && prefer_repr(&v, m)))
                {
                    *m = v;
                }
            }
            (Acc::Max(m), Acc::Max(v)) => {
                if !v.is_null()
                    && (m.is_null()
                        || v.total_cmp(m) == std::cmp::Ordering::Greater
                        || (v.total_cmp(m) == std::cmp::Ordering::Equal && prefer_repr(&v, m)))
                {
                    *m = v;
                }
            }
            (
                Acc::Percentile {
                    p,
                    approx,
                    budget,
                    state,
                },
                Acc::Percentile {
                    p: p2,
                    approx: approx2,
                    state: state2,
                    ..
                },
            ) if p.to_bits() == p2.to_bits() && *approx == approx2 => match (&mut *state, state2) {
                (PctState::Exact(vals), PctState::Exact(vals2)) => {
                    vals.extend_from_slice(&vals2);
                    if vals.len() > *budget {
                        *state = PctState::Spilled(digest_of(vals));
                    }
                }
                (PctState::Exact(vals), PctState::Spilled(d2)) => {
                    let mut d = digest_of(vals);
                    d.merge(&d2);
                    *state = PctState::Spilled(d);
                }
                (PctState::Spilled(d), PctState::Exact(vals2)) => {
                    d.merge(&digest_of(&vals2));
                }
                (PctState::Spilled(d), PctState::Spilled(d2)) => d.merge(&d2),
            },
            (Acc::ApproxCountDistinct(hll), Acc::ApproxCountDistinct(h2)) => hll.merge(&h2),
            (a, b) => {
                return Err(EngineError::InvalidOperator(format!(
                    "cannot merge mismatched accumulators {a:?} and {b:?}"
                )));
            }
        }
        Ok(())
    }

    /// Final aggregate value.
    pub fn finish(&self) -> Value {
        match self {
            Acc::Sum { sum, any } => {
                if *any {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            Acc::Count(n) | Acc::CountStar(n) => Value::Int(*n),
            Acc::CountDistinct(seen) => Value::Int(seen.len() as i64),
            Acc::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float(sum / *n as f64)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone(),
            Acc::Percentile { p, state, .. } => match state {
                PctState::Exact(vals) => percentile_cont(&mut vals.clone(), *p),
                PctState::Spilled(d) => d.quantile(*p).map_or(Value::Null, Value::Float),
            },
            Acc::ApproxCountDistinct(hll) => {
                if hll.registers().iter().all(|&r| r == 0) {
                    Value::Int(0)
                } else {
                    Value::Int(hll.estimate().round() as i64)
                }
            }
        }
    }

    /// Versioned byte form of this partial (see [`PartialState`]).
    pub fn serialize(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let tag = self.write_payload(&mut payload);
        frame(tag, &payload)
    }

    /// Write the un-framed payload bytes into `payload`, returning the
    /// frame tag for this variant.
    pub(crate) fn write_payload(&self, payload: &mut Vec<u8>) -> u8 {
        match self {
            Acc::Sum { sum, any } => {
                put_f64(payload, *sum);
                payload.push(*any as u8);
                1
            }
            Acc::Count(n) => {
                put_i64(payload, *n);
                2
            }
            Acc::CountDistinct(seen) => {
                // Canonical order: a hash set's iteration order must never
                // leak into the wire bytes (the satellite-4 regression).
                let mut vals: Vec<&Value> = seen.iter().collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                put_u32(payload, vals.len() as u32);
                for v in vals {
                    put_value(payload, v);
                }
                3
            }
            Acc::CountStar(n) => {
                put_i64(payload, *n);
                4
            }
            Acc::Avg { sum, n } => {
                put_f64(payload, *sum);
                put_i64(payload, *n);
                5
            }
            Acc::Min(v) => {
                put_value(payload, v);
                6
            }
            Acc::Max(v) => {
                put_value(payload, v);
                7
            }
            Acc::Percentile {
                p,
                approx,
                budget,
                state,
            } => {
                put_f64(payload, *p);
                put_u64(payload, *budget as u64);
                match state {
                    PctState::Exact(vals) => {
                        payload.push(0);
                        // Canonical (sorted) order: exact partial bytes are
                        // insertion-order-independent, like the finalize.
                        let mut sorted = vals.clone();
                        sorted.sort_by(f64::total_cmp);
                        put_u32(payload, sorted.len() as u32);
                        for x in sorted {
                            put_f64(payload, x);
                        }
                    }
                    PctState::Spilled(d) => {
                        payload.push(1);
                        d.write_payload(payload);
                    }
                }
                if *approx {
                    APPROX_PERCENTILE_TAG
                } else {
                    8
                }
            }
            Acc::ApproxCountDistinct(hll) => {
                let regs = hll.registers();
                put_u32(payload, regs.len() as u32);
                payload.extend_from_slice(regs);
                10
            }
        }
    }

    /// Decode a frame produced by [`Acc::serialize`]; corrupted input is
    /// a typed [`StorageError::PartialCodec`], never a panic.
    pub fn deserialize(bytes: &[u8]) -> Result<Acc> {
        let (tag, payload) = unframe(bytes)?;
        let mut cur = Cursor::new(payload);
        let acc = match tag {
            1 => {
                let sum = cur.f64()?;
                let any = cur.u8()? != 0;
                Acc::Sum { sum, any }
            }
            2 => Acc::Count(cur.i64()?),
            3 => {
                let n = cur.u32()? as usize;
                let mut seen = pa_storage::FxHashSet::default();
                for _ in 0..n {
                    seen.insert(cur.value()?);
                }
                Acc::CountDistinct(seen)
            }
            4 => Acc::CountStar(cur.i64()?),
            5 => {
                let sum = cur.f64()?;
                let n = cur.i64()?;
                Acc::Avg { sum, n }
            }
            6 => Acc::Min(cur.value()?),
            7 => Acc::Max(cur.value()?),
            // Tag 9 is an `approx_percentile` frame of the format that kept
            // a bare digest: a spilled state, whose budget is never read.
            8 | 9 | APPROX_PERCENTILE_TAG => {
                let p = cur.f64()?;
                let budget = if tag == 9 { 0 } else { cur.u64()? as usize };
                let state = match if tag == 9 { 1 } else { cur.u8()? } {
                    0 => {
                        let n = cur.u32()? as usize;
                        let mut vals = Vec::with_capacity(n.min(1 << 20));
                        for _ in 0..n {
                            vals.push(cur.f64()?);
                        }
                        PctState::Exact(vals)
                    }
                    1 => PctState::Spilled(Box::new(TDigest::read_payload(&mut cur)?)),
                    t => {
                        return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                            "unknown percentile state tag {t}"
                        ))));
                    }
                };
                let approx = tag != 8;
                Acc::Percentile {
                    p,
                    approx,
                    budget,
                    state,
                }
            }
            10 => {
                let n = cur.u32()? as usize;
                if n != crate::sketch::HLL_REGISTERS {
                    return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                        "HLL register count {n} does not match this build"
                    ))));
                }
                let regs = cur.take(n)?.to_vec();
                Acc::ApproxCountDistinct(Hll::from_registers(regs)?)
            }
            t => {
                return Err(EngineError::Storage(StorageError::PartialCodec(format!(
                    "unknown accumulator tag {t}"
                ))));
            }
        };
        cur.finish()?;
        Ok(acc)
    }
}

impl PartialState for Acc {
    fn update(&mut self, v: &Value) -> Result<()> {
        Acc::update(self, v)
    }

    fn merge(&mut self, other: Acc) -> Result<()> {
        Acc::merge(self, other)
    }

    fn finalize(&self) -> Value {
        Acc::finish(self)
    }

    fn serialize(&self) -> Vec<u8> {
        Acc::serialize(self)
    }

    fn deserialize(bytes: &[u8]) -> Result<Acc> {
        Acc::deserialize(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(func: AggFunc, values: &[Value]) -> Acc {
        let mut acc = Acc::new(func);
        for v in values {
            acc.update(v).unwrap();
        }
        acc
    }

    fn all_exact_funcs() -> Vec<AggFunc> {
        vec![
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::CountStar,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Percentile(PBits::new(0.5)),
            AggFunc::Percentile(PBits::new(0.95)),
            AggFunc::ApproxCountDistinct,
        ]
    }

    #[test]
    fn merge_equals_sequential_update_for_every_func() {
        let values: Vec<Value> = vec![
            Value::Int(3),
            Value::Null,
            Value::Int(-1),
            Value::Int(3),
            Value::Int(7),
        ];
        for func in all_exact_funcs() {
            let whole = filled(func, &values);
            for split in 0..=values.len() {
                let mut left = filled(func, &values[..split]);
                let right = filled(func, &values[split..]);
                left.merge(right).unwrap();
                assert_eq!(left.finish(), whole.finish(), "{func:?} split at {split}");
            }
        }
    }

    #[test]
    fn merge_empty_partial_is_identity() {
        let mut acc = filled(AggFunc::Sum, &[Value::Float(2.5)]);
        acc.merge(Acc::new(AggFunc::Sum)).unwrap();
        assert_eq!(acc.finish(), Value::Float(2.5));
        let mut empty = Acc::new(AggFunc::Min);
        empty.merge(filled(AggFunc::Min, &[Value::Int(4)])).unwrap();
        assert_eq!(empty.finish(), Value::Int(4));
    }

    #[test]
    fn merge_rejects_mismatched_functions() {
        let mut a = Acc::new(AggFunc::Sum);
        assert!(a.merge(Acc::new(AggFunc::Count)).is_err());
        let mut p50 = Acc::new(AggFunc::Percentile(PBits::new(0.5)));
        assert!(
            p50.merge(Acc::new(AggFunc::Percentile(PBits::new(0.9))))
                .is_err(),
            "different p is a different aggregate"
        );
    }

    #[test]
    fn sum_of_string_is_a_type_error() {
        let mut acc = Acc::new(AggFunc::Sum);
        assert!(acc.update(&Value::str("x")).is_err());
        assert!(acc.update(&Value::Null).is_ok(), "NULL still skips");
        let mut acc = Acc::new(AggFunc::Percentile(PBits::new(0.5)));
        assert!(acc.update(&Value::str("x")).is_err());
    }

    #[test]
    fn percentile_matches_snippet_plan() {
        // The PERCENTILE_CONT reference points: p50 of [10,20,30,40] = 25,
        // p0 = min, p100 = max.
        let vals: Vec<Value> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect();
        let cases = [(0.5, 25.0), (0.0, 10.0), (1.0, 40.0), (0.25, 17.5)];
        for (p, want) in cases {
            let acc = filled(AggFunc::Percentile(PBits::new(p)), &vals);
            assert_eq!(acc.finish(), Value::Float(want), "p={p}");
        }
        let empty = Acc::new(AggFunc::Percentile(PBits::new(0.5)));
        assert_eq!(empty.finish(), Value::Null);
    }

    #[test]
    fn select_nth_finalize_matches_the_full_sort() {
        // Reference: PERCENTILE_CONT read off a fully sorted copy.
        let by_sort = |vals: &[f64], p: f64| {
            let mut sorted = vals.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        };
        let samples: Vec<Vec<f64>> = vec![
            vec![7.5],
            vec![2.0, -1.0],
            vec![3.0, 1.0, 2.0],
            vec![0.0, -0.0, 0.0, -0.0, -0.0],
            vec![5.0, 5.0, 1.0, 5.0, 1.0, 9.0, 9.0, 1.0],
            (0..257).map(|i| ((i * 131) % 97) as f64 - 40.5).collect(),
        ];
        for vals in &samples {
            for p in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let got = match percentile_cont(&mut vals.clone(), p) {
                    Value::Float(x) => x,
                    v => panic!("expected float, got {v}"),
                };
                assert_eq!(
                    got.to_bits(),
                    by_sort(vals, p).to_bits(),
                    "p={p} over {vals:?}"
                );
            }
        }
        assert_eq!(percentile_cont(&mut [], 0.5), Value::Null);
    }

    #[test]
    fn percentile_finalize_is_insertion_order_independent() {
        let fwd: Vec<Value> = (0..100).map(Value::Int).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let f = AggFunc::Percentile(PBits::new(0.9));
        assert_eq!(filled(f, &fwd).finish(), filled(f, &rev).finish());
        assert_eq!(filled(f, &fwd).serialize(), filled(f, &rev).serialize());
    }

    #[test]
    fn percentile_spills_to_digest_past_budget() {
        let mut acc = Acc::with_budget(AggFunc::Percentile(PBits::new(0.5)), 64);
        for i in 0..1000 {
            acc.update(&Value::Int(i)).unwrap();
        }
        assert!(acc.spilled());
        let med = match acc.finish() {
            Value::Float(x) => x,
            v => panic!("expected float, got {v}"),
        };
        assert!((med - 499.5).abs() < 50.0, "spilled median ~499.5: {med}");
    }

    #[test]
    fn count_distinct_serialization_is_iteration_order_independent() {
        // Satellite 4: the FxHashSet union's iteration order must not
        // leak into the canonical partial bytes.
        let vals: Vec<Value> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Value::str(format!("s{i}"))
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let mut shuffled = vals.clone();
        shuffled.reverse();
        shuffled.rotate_left(17);
        let a = filled(AggFunc::CountDistinct, &vals);
        let b = filled(AggFunc::CountDistinct, &shuffled);
        assert_eq!(a.serialize(), b.serialize());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn every_variant_round_trips_through_serialize() {
        let vals: Vec<Value> = vec![
            Value::Int(5),
            Value::Float(-2.5),
            Value::Null,
            Value::Int(5),
            Value::str("tx"),
        ];
        let numeric: Vec<Value> = vec![Value::Int(5), Value::Float(-2.5), Value::Null];
        for func in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::CountStar,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Percentile(PBits::new(0.75)),
            AggFunc::ApproxPercentile(PBits::new(0.75)),
            AggFunc::ApproxCountDistinct,
        ] {
            let input = match func {
                AggFunc::Sum
                | AggFunc::Avg
                | AggFunc::Percentile(_)
                | AggFunc::ApproxPercentile(_) => &numeric,
                _ => &vals,
            };
            let acc = filled(func, input);
            let bytes = acc.serialize();
            let back = Acc::deserialize(&bytes).unwrap();
            assert_eq!(back.finish(), acc.finish(), "{func:?}");
            assert_eq!(back.serialize(), bytes, "{func:?} canonical bytes");
            assert_eq!(back.func(), acc.func(), "{func:?}");
        }
        // Both percentiles spilled past a budget of 4: the frame carries the
        // digest, and its decoded state answers, re-encodes and merges as
        // the original does.
        let many: Vec<Value> = (0..40)
            .map(|i| Value::Float(f64::from(i * 7 % 23)))
            .collect();
        for func in [
            AggFunc::Percentile(PBits::new(0.75)),
            AggFunc::ApproxPercentile(PBits::new(0.75)),
        ] {
            let mut acc = Acc::with_budget(func, 4);
            many.iter().for_each(|v| acc.update(v).unwrap());
            assert!(acc.spilled(), "{func:?}");
            let bytes = acc.serialize();
            let back = Acc::deserialize(&bytes).unwrap();
            assert!(back.spilled(), "{func:?}");
            assert_eq!(back.finish(), acc.finish(), "{func:?}");
            assert_eq!(back.serialize(), bytes, "{func:?} canonical bytes");
            assert_eq!(back.func(), func, "{func:?}");
            let mut merged = back.clone();
            merged.merge(Acc::deserialize(&bytes).unwrap()).unwrap();
            let again = Acc::deserialize(&merged.serialize()).unwrap();
            assert_eq!(again.serialize(), merged.serialize(), "{func:?} merged");
            assert_eq!(again.finish(), merged.finish(), "{func:?} merged");
        }
    }

    #[test]
    fn a_spilled_digest_does_not_widen_the_accumulator() {
        // Every aggregate walks a matrix of accumulators; the t-digest
        // inline would make each one 88 bytes instead of 48.
        assert_eq!(std::mem::size_of::<PctState>(), 24);
        assert!(std::mem::size_of::<Acc>() <= 48);
    }

    #[test]
    fn deserialize_rejects_garbage_without_panicking() {
        assert!(Acc::deserialize(&[]).is_err());
        assert!(Acc::deserialize(b"not a frame at all").is_err());
        let bytes = filled(AggFunc::Avg, &[Value::Int(2)]).serialize();
        for cut in 0..bytes.len() {
            assert!(Acc::deserialize(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn partial_state_trait_is_object_usable_via_generics() {
        fn roundtrip<P: PartialState>(p: &P) -> P {
            P::deserialize(&p.serialize()).unwrap()
        }
        let acc = filled(
            AggFunc::ApproxCountDistinct,
            &[Value::Int(1), Value::Int(2)],
        );
        assert_eq!(roundtrip(&acc).finalize(), acc.finalize());
    }
}
