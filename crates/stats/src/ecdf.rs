//! Empirical cumulative distribution functions.
//!
//! Nearly every figure in the Eyeorg paper is a CDF: time-on-site
//! (Fig. 4a), per-participant action counts (Fig. 4b), out-of-focus time
//! (Fig. 5), per-video `UserPerceivedPLT` (Fig. 6a), response standard
//! deviations (Fig. 6b), A/B agreement (Fig. 6c), metric error (Fig. 7c),
//! and per-site A/B scores (Fig. 8b, 8c). [`Ecdf`] is the shared
//! representation the bench harness serialises into those plots.

/// An empirical CDF over a finite sample.
///
/// Stored as the sorted sample; evaluation is a binary search. The CDF is
/// right-continuous: `F(x)` is the fraction of observations `<= x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample. Returns `None` if the sample is empty
    /// or contains non-finite values (which have no place on a CDF axis).
    pub fn new(sample: &[f64]) -> Option<Ecdf> {
        if sample.is_empty() || sample.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Ecdf { sorted })
    }

    /// Number of observations underlying the CDF.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Evaluate `F(x)`: the fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x when we ask for
        // the first index where the element is > x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Generalised inverse `F⁻¹(q)` for `q ∈ (0, 1]`: the smallest sample
    /// value `x` with `F(x) >= q`. `q = 0` returns the minimum. Values of
    /// `q` outside `[0, 1]` return `None`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return Some(self.sorted[0]);
        }
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// The step points of the CDF as `(x, F(x))` pairs, one per distinct
    /// observation. This is the series a plotting tool draws.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match out.last_mut() {
                // Collapse duplicate x onto the highest cumulative fraction.
                Some(last) if last.0 == x => last.1 = y,
                _ => out.push((x, y)),
            }
        }
        out
    }

    /// Sample the CDF at `k` evenly spaced x positions spanning
    /// `[min, max]`, inclusive. Useful for overlaying CDFs with different
    /// supports on a common grid. Returns an empty vector when `k == 0`.
    pub fn sampled(&self, k: usize) -> Vec<(f64, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        // lint:allow(D4): Ecdf::new rejects empty samples, so `sorted` is never empty
        let hi = *self.sorted.last().expect("non-empty");
        if k == 1 || hi == lo {
            return vec![(hi, self.eval(hi))];
        }
        (0..k)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (k - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        // lint:allow(D7): Ecdf::new rejects empty samples, so sorted[0] exists
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        // lint:allow(D4): Ecdf::new rejects empty samples, so `sorted` is never empty lint:allow(D7): same non-empty invariant
        *self.sorted.last().expect("non-empty")
    }

    /// Two-sample Kolmogorov–Smirnov statistic: the supremum of
    /// `|F_self(x) - F_other(x)|` over all x. Used by validation tests to
    /// quantify how close paid-participant distributions are to trusted
    /// ones (the paper argues they align after filtering).
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_or_nan_rejected() {
        assert!(Ecdf::new(&[]).is_none());
        assert!(Ecdf::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn eval_step_semantics() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25); // right-continuous: includes x
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn duplicates_collapse_in_points() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn quantile_inverse_roundtrip() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 10.0);
        assert_eq!(e.quantile(0.2).unwrap(), 10.0);
        assert_eq!(e.quantile(0.5).unwrap(), 30.0);
        assert_eq!(e.quantile(1.0).unwrap(), 50.0);
        assert!(e.quantile(1.5).is_none());
    }

    #[test]
    fn sampled_grid_is_monotone() {
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        let pts = e.sampled(16);
        assert_eq!(pts.len(), 16);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn ks_distance_identical_is_zero_and_disjoint_is_one() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.ks_distance(&a), 0.0);
        let b = Ecdf::new(&[10.0, 11.0]).unwrap();
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    fn degenerate_single_value() {
        let e = Ecdf::new(&[7.0]).unwrap();
        assert_eq!(e.min(), 7.0);
        assert_eq!(e.max(), 7.0);
        assert_eq!(e.sampled(5), vec![(7.0, 1.0)]);
    }
}
