//! Mode (peak) detection and distribution-shape classification.
//!
//! §6 of the paper ("What Does 'Ready' Mean?") observes that per-site
//! `UserPerceivedPLT` distributions fall into three rough patterns
//! (Fig. 9): a single tight peak (fast, unambiguous loads), a single
//! spread-out peak (long gap between first and last visual change), and
//! multiple peaks (some participants wait for auxiliary content such as
//! ads). This module reproduces that classification so the bench harness
//! can regenerate Fig. 9's three columns programmatically instead of by
//! manual inspection.

use crate::hist::Histogram;

/// The three distribution shapes of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionShape {
    /// One peak, small dispersion relative to its mean ("cut-and-dry"
    /// loads; left column of Fig. 9).
    UnimodalTight,
    /// One peak but wide dispersion (long FirstVisualChange →
    /// LastVisualChange gap; centre column).
    UnimodalSpread,
    /// Two or more distinct peaks (primary- vs auxiliary-content
    /// readiness; right column).
    Multimodal,
}

/// A detected peak in a smoothed histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Bin index of the local maximum.
    pub bin: usize,
    /// Value (x position) at the bin centre.
    pub location: f64,
    /// Smoothed height at the peak.
    pub height: f64,
}

/// Find local maxima in a histogram after moving-average smoothing.
///
/// A bin is a peak when its smoothed height is at least `min_height_frac`
/// of the global maximum, strictly greater than the nearest differing
/// smoothed value on the left, and at least as high as everything until
/// the nearest differing value on the right (plateaus yield their leftmost
/// bin). Peaks closer than `min_separation_bins` to a taller accepted peak
/// are suppressed, which prevents a ragged summit from double-counting.
pub fn find_peaks(
    hist: &Histogram,
    smoothing: usize,
    min_height_frac: f64,
    min_separation_bins: usize,
) -> Vec<Peak> {
    let s = hist.smoothed(smoothing);
    let n = s.len();
    if n == 0 {
        return Vec::new();
    }
    // lint:allow(D6): a max is order-independent, so the fold has one result whatever the order
    let global_max = s.iter().cloned().fold(0.0_f64, f64::max);
    if global_max <= 0.0 {
        return Vec::new();
    }
    let threshold = global_max * min_height_frac;

    // Candidate peaks: strictly greater than previous differing value,
    // >= until next differing value.
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 0..n {
        if s[i] < threshold {
            continue;
        }
        // Walk left past any plateau; require a strict rise into it.
        let mut l = i;
        while l > 0 && s[l - 1] == s[i] {
            l -= 1;
        }
        // Leftmost of a plateau only (avoid duplicate peaks on plateaus).
        if l != i {
            continue;
        }
        if l > 0 && s[l - 1] >= s[i] {
            continue;
        }
        // Walk right past the plateau; require a fall (or edge).
        let mut r = i;
        while r + 1 < n && s[r + 1] == s[i] {
            r += 1;
        }
        if r + 1 < n && s[r + 1] > s[i] {
            continue;
        }
        candidates.push(Peak { bin: i, location: hist.bin_center(i), height: s[i] });
    }

    // Greedy suppression: keep tallest first, drop anything too close.
    candidates.sort_by(|a, b| b.height.total_cmp(&a.height));
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept.iter().all(|k| c.bin.abs_diff(k.bin) >= min_separation_bins) {
            kept.push(c);
        }
    }
    kept.sort_by_key(|p| p.bin);
    kept
}

/// Parameters of the Fig. 9 shape classifier.
#[derive(Debug, Clone, Copy)]
pub struct ShapeParams {
    /// Moving-average half-width applied before peak detection.
    pub smoothing: usize,
    /// Minimum peak height as a fraction of the tallest peak.
    pub min_height_frac: f64,
    /// Minimum separation between peaks, in bins.
    pub min_separation_bins: usize,
    /// Two neighbouring peaks only count as separate modes when the
    /// smoothed histogram dips, somewhere between them, below this
    /// fraction of the *lower* peak's height. Uniform-ish spread
    /// distributions produce several near-equal local maxima with no real
    /// valley; this test merges them.
    pub valley_frac: f64,
    /// A unimodal distribution is "tight" when its coefficient of
    /// variation (stdev/mean) is at or below this value.
    pub tight_cv: f64,
}

impl Default for ShapeParams {
    fn default() -> Self {
        // Tuned on the synthetic corpus so that the three archetypes in
        // Fig. 9 separate cleanly; see bench/src/bin/fig9_modes.rs.
        ShapeParams {
            smoothing: 1,
            min_height_frac: 0.35,
            min_separation_bins: 3,
            valley_frac: 0.5,
            tight_cv: 0.15,
        }
    }
}

/// Histogram tuned for mode detection: `2·⌈√n⌉` bins over the sample
/// range, clamped to `[8, 64]`. The Freedman–Diaconis rule used by
/// [`Histogram::auto`] deliberately widens bins when the IQR spans several
/// modes, which erases exactly the structure Fig. 9 looks for; a
/// square-root rule keeps enough resolution for valley detection.
pub fn mode_histogram(sample: &[f64]) -> Option<Histogram> {
    if sample.is_empty() {
        return None;
    }
    let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    // NaN-safe: degenerate or incomparable range collapses to one bin.
    if hi.is_nan() || lo.is_nan() || hi <= lo {
        return Histogram::with_bins(sample, lo - 0.5, lo + 0.5, 1);
    }
    let bins = ((sample.len() as f64).sqrt().ceil() as usize * 2).clamp(8, 64);
    Histogram::with_bins(sample, lo, hi, bins)
}

/// Detected modes: [`find_peaks`] candidates with valley validation.
///
/// Adjacent peaks lacking a genuine valley between them (smoothed height
/// dipping below `valley_frac` of the lower peak) are merged, keeping the
/// taller, until the set is stable.
pub fn prominent_peaks(hist: &Histogram, params: &ShapeParams) -> Vec<Peak> {
    let s = hist.smoothed(params.smoothing);
    let mut peaks = find_peaks(hist, params.smoothing, params.min_height_frac, params.min_separation_bins);
    loop {
        let mut merged = false;
        let mut i = 0;
        while i + 1 < peaks.len() {
            let (a, b) = (peaks[i], peaks[i + 1]);
            let valley = s[a.bin..=b.bin].iter().cloned().fold(f64::INFINITY, f64::min);
            if valley > params.valley_frac * a.height.min(b.height) {
                // No real dip between them: merge onto the taller peak.
                let keep = if a.height >= b.height { a } else { b };
                peaks[i] = keep;
                peaks.remove(i + 1);
                merged = true;
            } else {
                i += 1;
            }
        }
        if !merged {
            return peaks;
        }
    }
}

/// Classify a sample of responses into one of the Fig. 9 shapes.
///
/// Returns `None` when the sample is empty or all-identical in a way that
/// defeats histogramming (fewer than 3 observations).
pub fn classify_shape(sample: &[f64], params: &ShapeParams) -> Option<DistributionShape> {
    if sample.len() < 3 {
        return None;
    }
    let hist = mode_histogram(sample)?;
    let peaks = prominent_peaks(&hist, params);
    if peaks.len() >= 2 {
        return Some(DistributionShape::Multimodal);
    }
    let summary = crate::summary::Summary::of(sample)?;
    let cv = summary.cv().unwrap_or(0.0);
    if cv <= params.tight_cv {
        Some(DistributionShape::UnimodalTight)
    } else {
        Some(DistributionShape::UnimodalSpread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-0.5, 0.5) without pulling in rand:
    /// a Weyl sequence is plenty for spreading test samples across bins.
    fn jitter(i: usize) -> f64 {
        ((i as f64 * 0.754_877_666) % 1.0) - 0.5
    }

    fn tight_sample() -> Vec<f64> {
        (0..60).map(|i| 5.0 + 0.2 * jitter(i)).collect()
    }

    fn spread_sample() -> Vec<f64> {
        (0..60).map(|i| 6.0 + 8.0 * jitter(i)).collect()
    }

    fn bimodal_sample() -> Vec<f64> {
        let mut v: Vec<f64> = (0..30).map(|i| 3.0 + 0.4 * jitter(i)).collect();
        v.extend((0..30).map(|i| 9.0 + 0.4 * jitter(i)));
        v
    }

    #[test]
    fn classifies_tight_unimodal() {
        assert_eq!(
            classify_shape(&tight_sample(), &ShapeParams::default()),
            Some(DistributionShape::UnimodalTight)
        );
    }

    #[test]
    fn classifies_spread_unimodal() {
        assert_eq!(
            classify_shape(&spread_sample(), &ShapeParams::default()),
            Some(DistributionShape::UnimodalSpread)
        );
    }

    #[test]
    fn classifies_bimodal() {
        assert_eq!(
            classify_shape(&bimodal_sample(), &ShapeParams::default()),
            Some(DistributionShape::Multimodal)
        );
    }

    #[test]
    fn tiny_samples_unclassified() {
        assert!(classify_shape(&[1.0, 2.0], &ShapeParams::default()).is_none());
        assert!(classify_shape(&[], &ShapeParams::default()).is_none());
    }

    #[test]
    fn find_peaks_on_bimodal_returns_two() {
        let hist = mode_histogram(&bimodal_sample()).unwrap();
        let peaks = prominent_peaks(&hist, &ShapeParams::default());
        assert_eq!(peaks.len(), 2, "peaks: {peaks:?}");
        assert!(peaks[0].location < 5.0);
        assert!(peaks[1].location > 7.0);
    }

    #[test]
    fn uniform_spread_not_multimodal() {
        // Low-discrepancy uniform data has many equal-height local maxima
        // but no valleys; the valley test must merge them.
        assert_eq!(
            classify_shape(&spread_sample(), &ShapeParams::default()),
            Some(DistributionShape::UnimodalSpread)
        );
    }

    #[test]
    fn plateau_yields_single_peak() {
        // Histogram where three adjacent bins tie at the max.
        let sample = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let hist = Histogram::with_bins(&sample, 0.5, 3.5, 3).unwrap();
        let peaks = find_peaks(&hist, 0, 0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 0);
    }

    #[test]
    fn suppression_merges_close_peaks() {
        // Two maxima 1 bin apart must collapse to one with separation 3.
        let sample = [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
        let hist = Histogram::with_bins(&sample, 0.5, 3.5, 3).unwrap();
        let peaks = find_peaks(&hist, 0, 0.3, 3);
        assert_eq!(peaks.len(), 1);
    }
}
