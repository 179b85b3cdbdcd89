//! Percentile and summary math for the benchmark's samples.

/// Percentiles a summary may report as its tail, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of ascending `sorted` samples;
/// 0 for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps decimal percentiles such as 99.9 from rounding a whole rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` without their lowest and highest (the plain mean of
/// fewer than three); 0 for an empty set.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Summary of one latency sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// The highest of p99.9/p99/p95/p90 with at least [`MIN_BEYOND`]
    /// samples beyond it, as `(percentile, value)`; `None` when even p90
    /// has fewer.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail = TAIL_CANDIDATES
            .iter()
            .find(|&&p| beyond(n, p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&samples, p)));
        Summary {
            count: n,
            mean: samples.iter().sum::<f64>() / n as f64,
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            tail,
            max: samples[n - 1],
        }
    }

    /// One-line JSON rendering.
    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"pct\": {p}, \"value\": {v:.6}}}"),
            None => "null".into(),
        };
        format!(
            "{{\"count\": {}, \"mean\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"tail\": {tail}, \"max\": {:.6}}}",
            self.count, self.mean, self.p50, self.p90, self.max
        )
    }
}

/// Samples a time slice should hold for [`sliced`] to use it.
pub const SLICE_SAMPLES: usize = 200;

/// Median, over consecutive time slices, of each slice's percentile `p`.
///
/// `samples` are `(time, value)` pairs. Their time span is cut into at most
/// `max_slices` equal slices, and into fewer when that leaves under
/// [`SLICE_SAMPLES`] samples per slice on average; slices with fewer than
/// half that are skipped. A slowdown that covers a minority of the slices
/// (a noisy neighbour for a second) moves this median less than it moves
/// the percentile of the pooled samples.
pub fn sliced(samples: &[(u64, f64)], p: f64, max_slices: usize) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let slices = (n / SLICE_SAMPLES).clamp(1, max_slices.max(1));
    let lo = samples.iter().map(|s| s.0).min().expect("non-empty");
    let hi = samples.iter().map(|s| s.0).max().expect("non-empty");
    let width = (hi - lo) / slices as u64 + 1;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (t, v) in samples {
        buckets[(((t - lo) / width) as usize).min(slices - 1)].push(*v);
    }
    let per_slice: Vec<f64> = buckets
        .into_iter()
        .filter(|b| slices == 1 || b.len() >= SLICE_SAMPLES / 2)
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            percentile(&b, p)
        })
        .collect();
    median(&per_slice)
}

/// Ratio `num / den`, 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_one_extreme_each_side() {
        assert_eq!(trimmed_mean(&[10.0, 1.0, 2.0, 3.0, 100.0]), 5.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let s = Summary::of((1..=1000).map(f64::from).collect());
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean - 500.5).abs() < 1e-9);

        // 20_000 samples resolve p99.9.
        let s = Summary::of((1..=20_000).rev().map(f64::from).collect());
        assert_eq!(s.tail, Some((99.9, 19_980.0)));

        // 50 samples: p90 has 5 beyond, so nothing qualifies.
        let s = Summary::of((1..=50).map(f64::from).collect());
        assert_eq!(s.tail, None);

        // 100 samples: p90 has exactly 10 beyond.
        let s = Summary::of((1..=100).map(f64::from).collect());
        assert_eq!(s.tail, Some((90.0, 90.0)));
    }

    #[test]
    fn sliced_percentile_is_the_median_over_slices() {
        // Ten one-second slices of 200 samples: value = slice's base + rank.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            let base = if slice == 3 { 1000.0 } else { slice as f64 };
            for i in 0..200u64 {
                samples.push((slice * 1_000_000_000 + i * 5_000_000, base + i as f64));
            }
        }
        // Per-slice p50 is base + 99; the one slow slice is outvoted.
        let medians: Vec<f64> = (0..10)
            .map(|s| if s == 3 { 1099.0 } else { s as f64 + 99.0 })
            .collect();
        assert_eq!(sliced(&samples, 50.0, 10), median(&medians));
        // Capping the slice count pools them.
        let pooled: Vec<f64> = {
            let mut v: Vec<f64> = samples.iter().map(|s| s.1).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(sliced(&samples, 90.0, 1), percentile(&pooled, 90.0));
        // Too few samples for more than one slice.
        assert_eq!(sliced(&samples[..300], 50.0, 10), {
            let mut v: Vec<f64> = samples[..300].iter().map(|s| s.1).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, 50.0)
        });
        assert_eq!(sliced(&[], 50.0, 10), 0.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::of(Vec::new());
        assert_eq!(s, Summary::default());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
