//! Invariants of the statistics toolkit over randomized samples:
//! percentiles, ECDFs, correlation, histograms, summaries, bootstrap
//! intervals, shape classification and seed derivation.
//!
//! Each property runs over hundreds of cases drawn from the workspace's
//! own seeded RNG: randomized, fully deterministic, std-only.
//! (Percentile bands have their own file, `band_invariants.rs`.)

use eyeorg_stats::{
    bootstrap_ci, classify_shape, pearson, percentile, spearman, Ecdf, Histogram, Rng, Seed,
    ShapeParams, Summary,
};

/// Cases per property.
const CASES: usize = 256;

/// A value in `[-scale, scale)`.
fn value(rng: &mut Rng, scale: f64) -> f64 {
    (rng.random_f64() * 2.0 - 1.0) * scale
}

/// A non-empty sample of `1..max_len` values in `[-1e6, 1e6)`.
fn sample(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let n = rng.random_range(1..max_len);
    (0..n).map(|_| value(rng, 1e6)).collect()
}

#[test]
fn percentile_within_sample_bounds_and_monotone_in_p() {
    let mut rng = Rng::seed_from_u64(0x57a_0001);
    for case in 0..CASES {
        let s = sample(&mut rng, 64);
        let (a, b) = (rng.random_f64() * 100.0, rng.random_f64() * 100.0);
        let (lo_p, hi_p) = if a <= b { (a, b) } else { (b, a) };
        let lo = s.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let at_lo = percentile(&s, lo_p).expect("non-empty");
        let at_hi = percentile(&s, hi_p).expect("non-empty");
        assert!(lo <= at_lo && at_hi <= hi, "case {case}: percentile outside the sample");
        assert!(at_lo <= at_hi, "case {case}: p{lo_p} above p{hi_p}");
        for p in [0.0, 100.0] {
            let v = percentile(&s, p).expect("non-empty");
            assert!(lo <= v && v <= hi, "case {case}: p{p} outside the sample");
        }
    }
}

#[test]
fn ecdf_is_a_cdf() {
    let mut rng = Rng::seed_from_u64(0x57a_0002);
    for case in 0..CASES {
        let s = sample(&mut rng, 64);
        let e = Ecdf::new(&s).expect("non-empty");
        let y = e.eval(value(&mut rng, 1e6));
        assert!((0.0..=1.0).contains(&y), "case {case}: {y}");
        assert_eq!(e.eval(e.max()), 1.0, "case {case}");
        assert_eq!(e.eval(e.min() - 1.0), 0.0, "case {case}");
        for w in e.sampled(16).windows(2) {
            assert!(w[1].1 >= w[0].1, "case {case}: not monotone");
        }
    }
}

#[test]
fn correlations_bounded_symmetric_and_affine_invariant() {
    let mut rng = Rng::seed_from_u64(0x57a_0003);
    for case in 0..CASES {
        let n = rng.random_range(3usize..40);
        let x: Vec<f64> = (0..n).map(|_| value(&mut rng, 1e3)).collect();
        let y: Vec<f64> = (0..n).map(|_| value(&mut rng, 1e3)).collect();
        let r = pearson(&x, &y).expect("non-degenerate sample");
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "case {case}: r = {r}");
        assert!((pearson(&y, &x).expect("symmetric") - r).abs() < 1e-9, "case {case}");
        let xt: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        let rt = pearson(&xt, &y).expect("affine image");
        assert!((rt - r).abs() < 1e-6, "case {case}: {rt} vs {r}");
        let rs = spearman(&x, &y).expect("non-degenerate sample");
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rs), "case {case}: rs = {rs}");
    }
}

#[test]
fn histogram_conserves_mass() {
    let mut rng = Rng::seed_from_u64(0x57a_0004);
    for case in 0..CASES {
        let s = sample(&mut rng, 128);
        let h = Histogram::auto(&s).expect("non-empty");
        assert_eq!(h.total() as usize + h.outside() as usize, s.len(), "case {case}");
    }
}

#[test]
fn summary_is_ordered() {
    let mut rng = Rng::seed_from_u64(0x57a_0005);
    for case in 0..CASES {
        let s = Summary::of(&sample(&mut rng, 64)).expect("non-empty");
        assert!(s.min <= s.median && s.median <= s.max, "case {case}: {s:?}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}: {s:?}");
        assert!(s.stdev >= 0.0, "case {case}: {s:?}");
    }
}

#[test]
fn bootstrap_ci_brackets_its_point() {
    let mut rng = Rng::seed_from_u64(0x57a_0006);
    for case in 0..CASES {
        let s = sample(&mut rng, 40);
        let seed = Seed(rng.below(500));
        if let Some(ci) = bootstrap_ci(&s, 0.9, 100, seed, eyeorg_stats::summary::mean) {
            assert!(ci.lo <= ci.point + 1e-9 && ci.point <= ci.hi + 1e-9, "case {case}: {ci:?}");
        }
    }
}

#[test]
fn shape_classification_is_total() {
    let mut rng = Rng::seed_from_u64(0x57a_0007);
    for case in 0..CASES {
        let s = sample(&mut rng, 64);
        let shape = classify_shape(&s, &ShapeParams::default());
        assert!(s.len() < 3 || shape.is_some(), "case {case}: {} values unclassified", s.len());
    }
}

#[test]
fn seed_derivation_is_deterministic_and_distinct() {
    let mut rng = Rng::seed_from_u64(0x57a_0008);
    for case in 0..CASES {
        let root = Seed(rng.next_u64());
        let len = rng.random_range(1usize..13);
        let label: String = (0..len).map(|_| char::from(b'a' + rng.below(26) as u8)).collect();
        let idx = rng.below(1000);
        assert_eq!(root.derive(&label), root.derive(&label), "case {case}");
        assert_eq!(root.derive_index(&label, idx), root.derive_index(&label, idx), "case {case}");
        assert_ne!(root.derive(&label).value(), root.value(), "case {case}: child == parent");
        assert_ne!(
            root.derive_index(&label, idx),
            root.derive_index(&label, idx + 1),
            "case {case}: sibling indices collide"
        );
    }
}
