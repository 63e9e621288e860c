//! Order statistics for the report: per-round percentiles, the median of
//! rounds, and the quartile spread the acceptance rule is written in.

/// The `p`-th percentile (0..=1) of `sorted` by nearest rank: the smallest
/// sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the usual midpoint for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A metric with its per-round values. A wall-clock metric's value is the
/// median of the rounds, so one disturbed round moves nothing; a cost
/// metric's is taken over the whole run. `resolved` is false when the run
/// held too few samples for the number to mean anything — it is still
/// printed, but flagged, and the run fails.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetric {
    pub rounds: Vec<f64>,
    pub value: f64,
    pub resolved: bool,
}

pub fn over_rounds(rounds: Vec<f64>) -> Option<RoundMetric> {
    let value = median(&rounds)?;
    Some(RoundMetric {
        resolved: true,
        rounds,
        value,
    })
}

/// Query cost — latency as a multiple of the calibration reading taken
/// beside it — over a run. Per key (a statement, and on `ingest` whether it
/// ran cold) a quantile of the key's samples, then the mean of those over
/// the keys, so every statement weighs the same however often the loop got
/// round to it. The first quartile is the steadiest: what is left of a
/// neighbour's bursts after the division sits in the upper half.
#[derive(Debug, Clone, PartialEq)]
pub struct Costs {
    pub p25: f64,
    pub p50: f64,
    pub p90: f64,
    /// Over all samples: the reciprocal of what a closed loop completes
    /// per client.
    pub mean: f64,
    /// Samples behind the key that has fewest.
    pub thinnest: usize,
}

pub fn costs(samples: &[(usize, f64)]) -> Option<Costs> {
    let mut by_key: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (key, cost) in samples {
        by_key.entry(*key).or_default().push(*cost);
    }
    let keys = by_key.len() as f64;
    let mut out = Costs {
        p25: 0.0,
        p50: 0.0,
        p90: 0.0,
        mean: samples.iter().map(|s| s.1).sum::<f64>() / samples.len() as f64,
        thinnest: usize::MAX,
    };
    for v in by_key.into_values() {
        let v = sorted(v);
        out.p25 += percentile(&v, 0.25)? / keys;
        out.p50 += percentile(&v, 0.5)? / keys;
        out.p90 += percentile(&v, 0.9)? / keys;
        out.thinnest = out.thinnest.min(v.len());
    }
    (!samples.is_empty()).then_some(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), which is what the acceptance rule names.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How far repeated runs of one metric lie apart, as a share of their
/// median: the interquartile distance from four runs up, the full range
/// for two or three (quartiles of two points are an extrapolation).
pub fn spread_of_runs(values: &[f64]) -> Option<f64> {
    if values.len() >= 4 {
        return relative_spread(values);
    }
    let v = sorted(values.to_vec());
    let m = median(&v).filter(|m| *m != 0.0)?;
    (v.len() >= 2).then(|| (v[v.len() - 1] - v[0]) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Four samples: p95 is the largest, p50 the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), Some(4.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn one_spoiled_round_does_not_move_the_reported_value() {
        let calm = over_rounds(vec![10.0, 10.2, 9.9, 10.1, 10.0]).unwrap();
        let burst = over_rounds(vec![10.0, 10.2, 9.9, 10.1, 55.0]).unwrap();
        assert_eq!(calm.value, 10.0);
        assert_eq!(burst.value, 10.1);
        assert!(over_rounds(Vec::new()).is_none());
    }

    #[test]
    fn costs_weigh_every_key_the_same_however_many_samples_it_has() {
        // Key 0: a hundred samples at 2; key 1: ten at 10, one of them slow.
        let mut samples: Vec<(usize, f64)> = (0..100).map(|_| (0, 2.0)).collect();
        samples.extend((0..9).map(|_| (1, 10.0)));
        samples.push((1, 50.0));
        let c = costs(&samples).unwrap();
        assert_eq!((c.p25, c.p50, c.p90), (6.0, 6.0, 6.0));
        assert_eq!(c.thinnest, 10);
        assert!((c.mean - (200.0 + 90.0 + 50.0) / 110.0).abs() < 1e-12);
        assert_eq!(costs(&[]), None);
    }

    #[test]
    fn few_runs_are_compared_by_range_many_by_quartiles() {
        assert_eq!(spread_of_runs(&[10.0]), None);
        assert_eq!(spread_of_runs(&[9.0, 11.0]), Some(0.2));
        assert_eq!(spread_of_runs(&[9.0, 10.0, 11.0]), Some(0.2));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread_of_runs(&ten), relative_spread(&ten));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
