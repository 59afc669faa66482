//! Property-style invariant tests for percentile-band selection.
//!
//! These drive the invariants with the workspace's own seeded RNG:
//! hundreds of randomized samples, fully deterministic, no external
//! dependencies.

use eyeorg_stats::quantile::percentile_sorted;
use eyeorg_stats::{percentile, percentile_band, Rng};

/// Randomized samples across sizes and duplicate densities.
fn random_samples() -> Vec<Vec<f64>> {
    let mut rng = Rng::seed_from_u64(0xe1e_0006);
    let mut samples = Vec::new();
    for n in [1usize, 2, 3, 5, 8, 13, 40, 101] {
        for _ in 0..40 {
            // Coarse quantisation produces plenty of exact duplicates,
            // the case band edges must treat inclusively.
            let sample: Vec<f64> =
                (0..n).map(|_| (rng.random_range(0..400) as f64) / 8.0).collect();
            samples.push(sample);
        }
    }
    samples
}

fn band_edges(sample: &[f64], lo_pct: f64, hi_pct: f64) -> (f64, f64) {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (percentile_sorted(&sorted, lo_pct), percentile_sorted(&sorted, hi_pct))
}

#[test]
fn band_keeps_exactly_the_values_inside_inclusive_edges() {
    let mut rng = Rng::seed_from_u64(0xe1e_0007);
    for sample in random_samples() {
        let lo_pct = rng.random_range(0..60) as f64;
        let hi_pct = lo_pct + rng.random_range(0..=(100 - lo_pct as u64)) as f64;
        let (lo, hi) = band_edges(&sample, lo_pct, hi_pct);
        let kept = percentile_band(&sample, lo_pct, hi_pct);
        let expected: Vec<f64> =
            sample.iter().copied().filter(|&v| v >= lo && v <= hi).collect();
        // Membership is exactly "within the inclusive edges" and the
        // original order (subsequence of the input) is preserved —
        // comparing the filtered input verifies both at once.
        assert_eq!(kept, expected, "band [{lo_pct}, {hi_pct}] of {sample:?}");
    }
}

#[test]
fn band_duplicates_survive_with_multiplicity() {
    for sample in random_samples() {
        let kept = percentile_band(&sample, 25.0, 75.0);
        for v in &kept {
            let in_kept = kept.iter().filter(|k| *k == v).count();
            let in_sample = sample.iter().filter(|s| *s == v).count();
            assert_eq!(
                in_kept, in_sample,
                "a retained value keeps every duplicate: {v} in {sample:?}"
            );
        }
    }
}

#[test]
fn full_band_is_identity_and_degenerate_band_keeps_edge_values() {
    for sample in random_samples() {
        assert_eq!(percentile_band(&sample, 0.0, 100.0), sample, "full band is the identity");
        // A zero-width band at the median still keeps values equal to it.
        let kept = percentile_band(&sample, 50.0, 50.0);
        let med = percentile(&sample, 50.0).expect("non-empty");
        assert!(kept.iter().all(|&v| v == med), "{kept:?} vs median {med}");
        let exact_hits = sample.iter().filter(|&&v| v == med).count();
        assert_eq!(kept.len(), exact_hits);
    }
}

#[test]
fn percentile_sorted_is_monotone_in_p_and_bounded_by_extremes() {
    for sample in random_samples() {
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let mut prev = f64::NEG_INFINITY;
        // Sweep past both ends: the clamp contract makes -20 and 120
        // legal and pins them to the extremes.
        for p in (-20..=120).map(|p| p as f64 * 1.0) {
            let v = percentile_sorted(&sorted, p);
            assert!(v >= prev, "percentile must be monotone in p ({p}: {v} < {prev})");
            assert!(v >= min && v <= max, "percentile {v} outside [{min}, {max}]");
            prev = v;
        }
        assert_eq!(percentile_sorted(&sorted, -20.0), min);
        assert_eq!(percentile_sorted(&sorted, 120.0), max);
    }
}

#[test]
fn percentile_agrees_with_percentile_sorted_inside_range() {
    for sample in random_samples() {
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            assert_eq!(percentile(&sample, p), Some(percentile_sorted(&sorted, p)));
        }
        // Outside [0, 100] the checked API rejects while the sorted API
        // clamps — both documented, and both exercised here.
        assert_eq!(percentile(&sample, -1.0), None);
        assert_eq!(percentile(&sample, 100.5), None);
    }
}
