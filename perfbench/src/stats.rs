//! Order statistics for timing samples.

/// A sample's median and its highest percentile with at least ten samples
/// beyond it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (0 when fewer than 11 samples).
    pub tail_pct: f64,
    /// The value at `tail_pct` (the maximum when fewer than 11 samples).
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

/// The value at quantile `q` in `[0, 1]` of sorted samples, by linear
/// interpolation between closest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises `samples`; an empty sample summarises to zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let max = sorted[n - 1];
    // The highest whole percentile leaving at least ten samples above it.
    let (tail_pct, tail) = if n > 10 {
        let pct = ((n - 10) as f64 / n as f64 * 100.0).floor();
        (pct, quantile(&sorted, pct / 100.0))
    } else {
        (0.0, max)
    };
    Summary {
        count: n,
        p50: quantile(&sorted, 0.5),
        tail_pct,
        tail,
        max,
    }
}

/// Median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_pct, 99.0);
        assert!(samples.iter().filter(|&&v| v > s.tail).count() >= 10);
        assert_eq!(s.p50, 500.5);
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_pct, s.tail), (2.0, 0.0, 3.0));
        assert_eq!(summarize(&[]).count, 0);
    }
}
