//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    v[rank(v.len(), p) - 1]
}

/// Tail percentile `p` (50 < p < 100) as the mean of the samples whose rank
/// lies within `(100 - p) / 2` points of `p`: the 85th to 95th percentile
/// for p90, the 98.5th to 99.5th for p99. Latencies come in clusters (one
/// per program and mutation target), and a plain order statistic that sits
/// on the gap between two clusters jumps across it when a few samples move;
/// the mean over the window moves by the share of samples that crossed.
pub fn tail_percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let n = v.len() as f64;
    let half = (100.0 - p) / 2.0;
    let lo = (((p - half) / 100.0 * n).floor() as usize).min(v.len() - 1);
    let hi = (((p + half) / 100.0 * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// How many samples lie beyond the nearest-rank percentile `p` of `n`
/// samples — a tail percentile is only reported as resolved with ≥ 10.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
