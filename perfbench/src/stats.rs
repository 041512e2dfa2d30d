//! Order statistics: medians, quartiles, and the tail-percentile rule.

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_CANDIDATES`] that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or the median when
/// even p75 has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = n as f64;
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 when
/// empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place (NaN-free input) and returns it.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Median of an unsorted sample (mean of the middle pair when even);
/// 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spread the benchmark reports matches the one its gate computes.
/// A single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            // statistics.quantiles, method="exclusive", n=4: the cut
            // index is clamped before the (then possibly
            // extrapolating) interpolation weight is taken.
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// A latency sample summarized the way every timing is reported:
/// sample count, median, and the tail-rule percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (see [`tail_percentile`]).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes an unsorted sample.
    #[must_use]
    pub fn of(values: Vec<f64>) -> Self {
        let s = sorted(values);
        let tail_p = tail_percentile(s.len());
        Summary {
            n: s.len(),
            p50: percentile(&s, 50.0),
            tail_p,
            tail: percentile(&s, tail_p),
            max: s.last().copied().unwrap_or(0.0),
        }
    }
}

/// Samples per window of [`windowed_tail`].
pub const WINDOW: usize = 1_000;

/// The tail of a time series robust to a lone stall: the series (in
/// arrival order) is cut into consecutive windows of [`WINDOW`]
/// samples, each window's p99 (ten samples beyond it) is taken, and
/// the median of those is returned with the percentile, 99. A series
/// shorter than one window falls back to [`Summary::of`]'s tail rule.
#[must_use]
pub fn windowed_tail(series: &[f64]) -> (f64, f64) {
    if series.len() < WINDOW {
        let s = Summary::of(series.to_vec());
        return (s.tail, s.tail_p);
    }
    let tails: Vec<f64> = series
        .chunks_exact(WINDOW)
        .map(|w| percentile(&sorted(w.to_vec()), 99.0))
        .collect();
    (median(&tails), 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(99_999), 99.9);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn windowed_tail_shrugs_off_one_stall() {
        let mut series = vec![1.0; 5_000];
        // One stall: 30 consecutive slow answers inside one window.
        for v in &mut series[2_100..2_130] {
            *v = 1_000.0;
        }
        assert_eq!(windowed_tail(&series), (1.0, 99.0));
        // The plain p99.9 of the whole series sees the stall.
        assert_eq!(percentile(&sorted(series.clone()), 99.9), 1_000.0);
        // Slow answers in every window move it.
        for w in 0..5 {
            for v in &mut series[w * 1_000..w * 1_000 + 20] {
                *v = 50.0;
            }
        }
        assert_eq!(windowed_tail(&series), (50.0, 99.0));
        assert_eq!(windowed_tail(&[3.0, 1.0, 2.0]).1, 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
