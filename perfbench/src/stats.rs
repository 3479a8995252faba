//! Order statistics for timing samples.

/// Median, quartiles and sample count of one timing, plus the p99 when at
/// least ten samples lie beyond it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile, present only for `n >= 1000`.
    pub p99: Option<f64>,
}

/// Quantile `q` of sorted samples, interpolating linearly between the
/// closest ranks. Zero for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarises `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        p99: (s.len() >= 1000).then(|| quantile(&s, 0.99)),
    }
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond
/// it, as `(percentile, value)`; the median when there are fewer than 20
/// samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let pct = [99.0, 90.0].into_iter().find(|p| s.len() as f64 * (1.0 - p / 100.0) >= 10.0);
    let pct = pct.unwrap_or(50.0);
    (pct, quantile(&s, pct / 100.0))
}

/// Geometric mean; zero for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of `samples` (zero for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(s.p99, None, "no p99 without ten samples beyond it");
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(summarize(&many).p99.is_some());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
