//! Percentiles and timing summaries.

/// Samples that must lie beyond a percentile before it is reported as a
/// supported tail.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank index (0-based) of percentile `pct` in `n` sorted
/// samples.
fn rank(n: usize, pct: f64) -> usize {
    let r = ((pct / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The value at percentile `pct` (0–100) of ascending `sorted`, by
/// nearest rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct)]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, pct)
    }
}

/// The highest percentile, in steps of 0.1 and at most `cap`, that leaves
/// at least [`MIN_BEYOND`] of `n` samples beyond it; `None` when not even
/// the median does.
pub fn highest_supported(n: usize, cap: f64) -> Option<f64> {
    let mut tenths = (cap * 10.0).round() as i64;
    while tenths >= 500 {
        let pct = tenths as f64 / 10.0;
        if beyond(n, pct) >= MIN_BEYOND {
            return Some(pct);
        }
        tenths -= 1;
    }
    None
}

/// Windows a timing is split into at most; see [`Timing::of`].
pub const MAX_WINDOWS: usize = 15;

/// The fewest samples that leave [`MIN_BEYOND`] beyond percentile `pct`
/// (`pct < 100`).
pub fn min_samples(pct: f64) -> usize {
    (1..)
        .find(|&m| beyond(m, pct) >= MIN_BEYOND)
        .expect("pct below 100")
}

/// How many consecutive windows `n` samples are split into: as many as
/// each keep [`MIN_BEYOND`] samples beyond `pct`, at most `max`, and odd
/// so that their median is one of them.
pub fn windows(n: usize, pct: f64, max: usize) -> usize {
    let w = (n / min_samples(pct)).clamp(1, max.max(1));
    if w.is_multiple_of(2) {
        w - 1
    } else {
        w
    }
}

/// The median of `values` (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The mean of `values`; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A latency distribution reduced to what the benchmark reports.
///
/// The median and the tail are the run's own percentiles over every
/// sample, so a stall in any part of the run moves them. For the
/// metadata, the time-ordered samples are also split into [`windows`]
/// consecutive windows, and the medians of the windows' medians and tails
/// are kept: they show how much of a run's figure one disturbed stretch
/// decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples.
    pub n: usize,
    /// Median over the run.
    pub p50: f64,
    /// Value at [`Timing::tail_pct`] over the run.
    pub tail: f64,
    /// The fixed tail percentile of the workload.
    pub tail_pct: f64,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the tail.
    pub supported: bool,
    /// Windows the samples were split into.
    pub windows: usize,
    /// Median of the windows' medians.
    pub window_p50: f64,
    /// Median of the windows' tails.
    pub window_tail: f64,
}

impl Timing {
    /// Summarizes time-ordered `values` at the workload's tail
    /// percentile; `None` when there are no samples.
    pub fn of(values: &[f64], tail_pct: f64) -> Option<Timing> {
        if values.is_empty() {
            return None;
        }
        let w = windows(values.len(), tail_pct, MAX_WINDOWS);
        let chunk = values.len() / w;
        let (mut p50s, mut tails) = (Vec::with_capacity(w), Vec::with_capacity(w));
        for i in 0..w {
            let end = if i + 1 == w {
                values.len()
            } else {
                (i + 1) * chunk
            };
            let mut v = values[i * chunk..end].to_vec();
            v.sort_by(f64::total_cmp);
            p50s.push(percentile(&v, 50.0));
            tails.push(percentile(&v, tail_pct));
        }
        let mut all = values.to_vec();
        all.sort_by(f64::total_cmp);
        Some(Timing {
            n: values.len(),
            p50: percentile(&all, 50.0),
            tail: percentile(&all, tail_pct),
            tail_pct,
            supported: beyond(values.len(), tail_pct) >= MIN_BEYOND,
            windows: w,
            window_p50: median(&p50s),
            window_tail: median(&tails),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000, 99.0), Some(99.0));
        assert_eq!(highest_supported(1000, 90.0), Some(90.0));
        // 999 samples: p99 leaves 9, so the answer drops below it.
        assert_eq!(beyond(999, 99.0), 9);
        let p = highest_supported(999, 99.0).expect("supported");
        assert!(p < 99.0 && beyond(999, p) >= 10 && beyond(999, p + 0.1) < 10);
        // 100 samples support p90 and nothing above it.
        assert_eq!(highest_supported(100, 99.0), Some(90.0));
        // 40 samples support p75; 19 support no tail at all.
        assert_eq!(highest_supported(40, 75.0), Some(75.0));
        assert_eq!(highest_supported(19, 99.0), None);
    }

    #[test]
    fn windows_keep_ten_beyond_the_tail() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(75.0), 40);
        assert_eq!(windows(999, 99.0, 5), 1);
        assert_eq!(windows(3000, 99.0, 5), 3);
        // Two windows would have no middle one.
        assert_eq!(windows(2500, 99.0, 5), 1);
        assert_eq!(windows(1_000_000, 99.0, 5), 5);
        assert_eq!(windows(48, 75.0, 5), 1);
    }

    #[test]
    fn run_tail_sees_a_disturbed_window() {
        // 3000 samples of 1.0 with one window's tail blown up: the run's
        // own p99 sees it, the median of the window tails does not.
        let mut v = vec![1.0; 3000];
        for x in v.iter_mut().skip(100).take(50) {
            *x = 100.0;
        }
        let t = Timing::of(&v, 99.0).expect("samples");
        assert_eq!((t.p50, t.tail), (1.0, 100.0));
        assert_eq!((t.windows, t.window_p50, t.window_tail), (3, 1.0, 1.0));
        assert!(t.supported);
    }

    #[test]
    fn timing_flags_unsupported_tails() {
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        let t = Timing::of(&v, 75.0).expect("samples");
        assert!(t.supported);
        let t = Timing::of(&v[..39], 75.0).expect("samples");
        assert!(!t.supported);
        let t = Timing::of(&v[..8], 75.0).expect("samples");
        assert!(!t.supported);
        assert_eq!(t.n, 8);
        assert!(Timing::of(&[], 99.0).is_none());
    }
}
