//! Sampling distributions for corpus generation.
//!
//! Real-web quantities (object sizes, object counts, think times) are
//! heavy-tailed; HTTP Archive-era measurements are conventionally fit
//! with log-normals. The workspace RNG (`eyeorg_stats::rng`) ships only
//! uniform/Bernoulli/normal primitives, so the transforms live here:
//! normal and log-normal draws on top of [`Rng::standard_normal`].

use eyeorg_stats::rng::Rng;

/// Normal with the given mean and standard deviation.
pub fn normal(rng: &mut Rng, mean: f64, stdev: f64) -> f64 {
    mean + stdev * rng.standard_normal()
}

/// Log-normal parameterised by the *median* and the shape `sigma`
/// (standard deviation of the underlying normal). The median
/// parameterisation is less error-prone than (mu, sigma) when transcribing
/// "typical object is X KB" statements.
pub fn lognormal_median(rng: &mut Rng, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "log-normal median must be positive");
    median * (sigma * rng.standard_normal()).exp()
}

/// Log-normal clamped into `[lo, hi]` — corpus quantities (bytes, counts,
/// durations) all have physical bounds and unclamped heavy tails would
/// occasionally produce degenerate sites.
pub fn lognormal_clamped(rng: &mut Rng, median: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    lognormal_median(rng, median, sigma).clamp(lo, hi)
}

/// Integer draw from a clamped log-normal (rounding to nearest).
pub fn lognormal_count(rng: &mut Rng, median: f64, sigma: f64, lo: u64, hi: u64) -> u64 {
    lognormal_clamped(rng, median, sigma, lo as f64, hi as f64).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn lognormal_median_is_median() {
        let mut r = rng();
        let n = 100_001;
        let mut draws: Vec<f64> = (0..n).map(|_| lognormal_median(&mut r, 40.0, 1.0)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = draws[n / 2];
        assert!((med - 40.0).abs() / 40.0 < 0.03, "median {med}");
    }

    #[test]
    fn clamped_respects_bounds() {
        let mut r = rng();
        for _ in 0..10_000 {
            let v = lognormal_clamped(&mut r, 50.0, 2.0, 10.0, 100.0);
            assert!((10.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn count_draw_within_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let c = lognormal_count(&mut r, 75.0, 0.6, 5, 300);
            assert!((5..=300).contains(&c));
        }
    }
}
