//! Moments and order statistics of a one-dimensional sample.
//!
//! [`Summary`] is the workhorse aggregate used throughout the workspace:
//! per-video `UserPerceivedPLT` responses are summarised by their mean
//! (the value compared against automatic metrics in Fig. 7) and standard
//! deviation (the agreement measure of Fig. 6b).

/// Descriptive statistics of a finite sample of `f64` values.
///
/// Construction via [`Summary::of`] filters nothing: the caller is expected
/// to have already applied whatever response filtering is appropriate
/// (see `eyeorg_core::filtering`). All fields are plain data so a
/// `Summary` can be stored, compared, and serialised by callers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance (`n-1` denominator); `0.0` when `n < 2`.
    pub variance: f64,
    /// Square root of [`Summary::variance`].
    pub stdev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// 50th percentile (linear interpolation, see [`crate::quantile`]).
    pub median: f64,
}

impl Summary {
    /// Summarise a sample. Returns `None` for an empty sample — an empty
    /// set of responses has no meaningful statistics and forcing callers
    /// to handle it keeps degenerate videos out of campaign aggregates.
    ///
    /// Non-finite values (NaN/±inf) are rejected with `None` as well:
    /// every quantity in this workspace (times, byte counts, scores) is
    /// finite by construction, so a non-finite input is a logic error
    /// upstream that must not silently poison campaign statistics.
    pub fn of(sample: &[f64]) -> Option<Summary> {
        if sample.is_empty() || sample.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = sample.len();
        // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
        let mean = sample.iter().sum::<f64>() / n as f64;
        let variance = if n < 2 {
            0.0
        } else {
            // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
            sample.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in sample {
            min = min.min(v);
            max = max.max(v);
        }
        let median = crate::quantile::percentile(sample, 50.0)
            // lint:allow(D4): sample was checked non-empty with p=50 in range, so percentile is Some
            .expect("non-empty finite sample has a median");
        Some(Summary {
            n,
            mean,
            variance,
            stdev: variance.sqrt(),
            min,
            max,
            median,
        })
    }

    /// The range `max - min` of the sample.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// Coefficient of variation (`stdev / mean`); `None` when the mean is
    /// zero, where the ratio is undefined.
    pub fn cv(&self) -> Option<f64> {
        if self.mean == 0.0 {
            None
        } else {
            Some(self.stdev / self.mean)
        }
    }
}

/// Arithmetic mean of a sample; `None` when empty.
///
/// Convenience wrapper for call sites that need only the mean and do not
/// want to pay for the full [`Summary`].
pub fn mean(sample: &[f64]) -> Option<f64> {
    if sample.is_empty() {
        None
    } else {
        // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
        Some(sample.iter().sum::<f64>() / sample.len() as f64)
    }
}

/// Unbiased sample standard deviation; `None` when `n < 2`.
pub fn stdev(sample: &[f64]) -> Option<f64> {
    if sample.len() < 2 {
        return None;
    }
    let m = mean(sample)?;
    // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
    let var = sample.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (sample.len() - 1) as f64;
    Some(var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn non_finite_rejected() {
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn singleton() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.stdev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn known_values() {
        // Sample with hand-computed statistics.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sum of squared deviations = 32; unbiased variance = 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
        assert!((s.range() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_stdev_helpers_agree_with_summary() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::of(&data).unwrap();
        assert_eq!(mean(&data).unwrap(), s.mean);
        assert!((stdev(&data).unwrap() - s.stdev).abs() < 1e-12);
    }

    #[test]
    fn stdev_requires_two_points() {
        assert!(stdev(&[1.0]).is_none());
        assert!(stdev(&[]).is_none());
    }

    #[test]
    fn cv_undefined_at_zero_mean() {
        let s = Summary::of(&[-1.0, 1.0]).unwrap();
        assert!(s.cv().is_none());
        let s2 = Summary::of(&[2.0, 4.0]).unwrap();
        assert!(s2.cv().unwrap() > 0.0);
    }
}
