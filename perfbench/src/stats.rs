//! Order statistics the benchmark reports: medians, quartiles, the highest
//! percentile a sample supports, and a log–log slope.

/// Sorted copy of `xs` (NaN-free by construction: every input is a
/// measured duration, size or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`, so spreads read the same as
/// any script that re-checks them. Fewer than two values give that value
/// (or 0) for both.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's integer arithmetic, step for step: `delta` goes negative
    // (or past 4) when the clamp moves `j`, which extrapolates.
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Percentile ladder the tail is chosen from, in tenths of a percent so
/// ranks are exact integer arithmetic.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile on [`LADDER`] that has at least ten samples
/// beyond it, as `(percentile, nearest-rank value)`. Below twenty samples
/// no percentile past the median qualifies, and the median is returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let rank = |p: usize| (p * n).div_ceil(1000).clamp(1, n);
    let p = LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(500);
    (p as f64 / 10.0, v[rank(p) - 1])
}

/// Least-squares slope of `ln y` against `ln x` over the points where both
/// are positive; 0 when fewer than two distinct `x` remain.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: with two
        // values the method extrapolates past both ends.
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly ten samples beyond it; p95 only five.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (75.0, 30.0));
        // Too few samples for anything past the median.
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&xs), (50.0, 8.0));
    }

    #[test]
    fn loglog_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let x = f64::from(i) * 100.0;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-12);
        assert_eq!(loglog_slope(&[(1.0, 2.0)]), 0.0);
        assert_eq!(loglog_slope(&[(2.0, 1.0), (2.0, 5.0)]), 0.0);
    }
}
