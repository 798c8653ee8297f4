//! Sample summaries: nearest-rank percentiles, the "at least ten samples
//! beyond it" tail rule, and per-slice rates and medians, of which a run
//! reports a quantile (a stalled slice moves a mean, not a quantile).

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Nearest-rank percentile of an ascending slice (`p` in `0.0..=1.0`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even p90 does not (fewer than 100 samples).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Median, supported tail and count of one set of latency samples (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, u64)>,
}

impl Summary {
    pub fn of(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        Summary {
            n: samples.len(),
            p50_ns: percentile(samples, 0.50),
            p99_ns: percentile(samples, 0.99),
            tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        }
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// `median 41.2 us, p99.9 310.0 us, n=120000` — the form every timing
    /// is printed in.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{} {:.1} us", trim_pct(p * 100.0), v as f64 / 1e3),
            None => "tail unsupported (<100 samples)".to_string(),
        };
        format!("median {:.1} us, {tail}, n={}", self.p50_us(), self.n)
    }
}

fn trim_pct(pct: f64) -> String {
    let s = format!("{pct:.2}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Median of unsorted floats (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (`q` in `0.0..=1.0`) of unsorted floats, interpolated
/// between the two nearest ranks (0 when empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (at - lo as f64)
}

/// Work completed per second in each of `slices` equal parts of a window
/// of `window_ns`, from `(completion time, amount of work)` pairs.
pub fn slice_rates(
    done: impl Iterator<Item = (u64, u64)>,
    window_ns: u64,
    slices: usize,
) -> Vec<f64> {
    let slice_ns = (window_ns / slices as u64).max(1);
    let mut work = vec![0u64; slices];
    for (end_ns, amount) in done {
        let i = (end_ns / slice_ns) as usize;
        if i < slices {
            work[i] += amount;
        }
    }
    work.iter()
        .map(|&w| w as f64 / (slice_ns as f64 / 1e9))
        .collect()
}

/// Median latency (ns) of the requests that completed in each of `slices`
/// equal parts of a window of `window_ns`, from `(completion time, latency)`
/// pairs; a part in which nothing completed is left out.
pub fn slice_medians(
    done: impl Iterator<Item = (u64, u64)>,
    window_ns: u64,
    slices: usize,
) -> Vec<f64> {
    let slice_ns = (window_ns / slices as u64).max(1);
    let mut latencies = vec![Vec::new(); slices];
    for (end_ns, latency_ns) in done {
        let i = (end_ns / slice_ns) as usize;
        if i < slices {
            latencies[i].push(latency_ns);
        }
    }
    latencies
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| {
            v.sort_unstable();
            percentile(v, 0.50) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut v: Vec<u64> = (1..=2_000).rev().map(|x| x * 1_000).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 2_000);
        assert_eq!(s.p50_ns, 1_000_000);
        assert_eq!(s.tail, Some((0.99, 1_980_000)));
        assert_eq!(s.describe(), "median 1000.0 us, p99 1980.0 us, n=2000");
        assert!(Summary::of(&mut [5, 6]).describe().contains("unsupported"));
    }

    #[test]
    fn slice_rates_bin_by_completion_time() {
        // Two 1 s slices: 3 units in the first, 1 in the second; work
        // completing past the window is dropped.
        let done = [
            (10, 1),
            (999_999_999, 2),
            (1_000_000_000, 1),
            (2_000_000_000, 9),
        ];
        let rates = slice_rates(done.into_iter(), 2_000_000_000, 2);
        assert_eq!(rates, vec![3.0, 1.0]);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&mut v, 0.0), 10.0);
        assert_eq!(quantile(&mut v, 0.25), 20.0);
        assert_eq!(quantile(&mut v, 0.75), 40.0);
        assert_eq!(quantile(&mut v, 1.0), 50.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn slice_medians_skip_empty_slices() {
        // Three 1 s slices: latencies 5, 7, 9 complete in the first, none
        // in the second, one of 4 in the third; one past the window.
        let done = [
            (1, 9),
            (2, 5),
            (3, 7),
            (2_500_000_000, 4),
            (3_000_000_000, 1),
        ];
        let medians = slice_medians(done.into_iter(), 3_000_000_000, 3);
        assert_eq!(medians, vec![7.0, 4.0]);
    }
}
