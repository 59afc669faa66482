//! Histograms with fixed-width and Freedman–Diaconis binning.
//!
//! Fig. 9 of the paper shows per-site histograms of `UserPerceivedPLT`
//! responses, from which three distribution shapes are read off (tight
//! unimodal, spread unimodal, multimodal). [`Histogram`] provides the
//! binned counts; [`crate::modes`] performs the shape classification.

use serde::{DeError, Deserialize, Serialize, Value};

/// A histogram over `[lo, hi)` with equal-width bins (the final bin is
/// closed on the right so `hi` itself is counted).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u32>,
    /// Observations outside `[lo, hi]`, counted but not binned.
    outside: u32,
}

impl Histogram {
    /// Build a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    /// Returns `None` when `bins == 0` or the range is empty/invalid.
    pub fn with_bins(sample: &[f64], lo: f64, hi: f64, bins: usize) -> Option<Histogram> {
        // NaN-safe: any incomparable bound rejects the range.
        if bins == 0 || hi.is_nan() || lo.is_nan() || hi <= lo {
            return None;
        }
        let mut h = Histogram { lo, hi, counts: vec![0; bins], outside: 0 };
        for &v in sample {
            h.add(v);
        }
        Some(h)
    }

    /// Build a histogram over the sample's own range using the
    /// Freedman–Diaconis rule (`bin width = 2·IQR·n^(-1/3)`), the standard
    /// robust choice for unknown response distributions. Falls back to
    /// Sturges' rule when the IQR is zero (heavily tied data) and to a
    /// single bin for degenerate (constant) samples. Returns `None` on an
    /// empty sample.
    pub fn auto(sample: &[f64]) -> Option<Histogram> {
        if sample.is_empty() {
            return None;
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let lo = sorted[0];
        // lint:allow(D4): guarded by the is_empty early return above
        let hi = *sorted.last().expect("non-empty");
        if hi == lo {
            // All values identical: one bin around the value.
            return Histogram::with_bins(sample, lo - 0.5, lo + 0.5, 1);
        }
        let n = sample.len() as f64;
        let iqr = crate::quantile::percentile_sorted(&sorted, 75.0)
            - crate::quantile::percentile_sorted(&sorted, 25.0);
        let bins = if iqr > 0.0 {
            let width = 2.0 * iqr / n.cbrt();
            (((hi - lo) / width).ceil() as usize).clamp(1, 512)
        } else {
            (n.log2().ceil() as usize + 1).clamp(1, 512)
        };
        Histogram::with_bins(sample, lo, hi, bins)
    }

    /// An empty histogram over `[lo, hi]` with `bins` equal-width bins —
    /// the streaming-accumulator constructor ([`Histogram::with_bins`]
    /// minus the eager fill). Returns `None` under the same conditions.
    pub fn empty(lo: f64, hi: f64, bins: usize) -> Option<Histogram> {
        Histogram::with_bins(&[], lo, hi, bins)
    }

    /// Record one observation (out-of-range and non-finite values count
    /// toward [`Histogram::outside`], exactly as batch construction does).
    pub fn record(&mut self, v: f64) {
        self.add(v);
    }

    /// Fold another histogram's counts into this one. Integer bin adds
    /// are exact and associative, so any merge tree over the same
    /// observations yields identical counts — the property the sharded
    /// campaign engine's order-pinned merge relies on. Returns `false`
    /// (leaving `self` untouched) when the binning configurations differ.
    #[must_use]
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.outside += other.outside;
        true
    }

    fn add(&mut self, v: f64) {
        if !v.is_finite() || v < self.lo || v > self.hi {
            self.outside += 1;
            return;
        }
        let bins = self.counts.len();
        // lint:allow(D7): float division never panics (bins >= 1 by construction)
        let width = (self.hi - self.lo) / bins as f64;
        // lint:allow(D7): float division never panics; width is finite for a valid config
        let idx = (((v - self.lo) / width) as usize).min(bins - 1);
        // lint:allow(D7): idx is clamped by .min(bins - 1)
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of observations that fell outside `[lo, hi]` (or were
    /// non-finite) and are therefore not represented in any bin.
    pub fn outside(&self) -> u32 {
        self.outside
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Lower edge of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Total binned observations.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// The raw histogram state, bit-exact — the checkpoint layer's
    /// serialization substrate (bounds as `to_bits()`).
    pub fn state(&self) -> HistogramState {
        HistogramState {
            lo_bits: self.lo.to_bits(),
            hi_bits: self.hi.to_bits(),
            counts: self.counts.clone(),
            outside: self.outside,
        }
    }

    /// Rebuild a histogram from raw state; `from_state(state())` is
    /// bit-identical to the original. Untrusted states are validated
    /// against the [`Histogram::with_bins`] constructor rule (at least
    /// one bin, `hi > lo` with neither bound NaN) and come back as a typed
    /// error, never a panic.
    pub fn from_state(s: &HistogramState) -> Result<Histogram, crate::stream::StateError> {
        let lo = f64::from_bits(s.lo_bits);
        let hi = f64::from_bits(s.hi_bits);
        if s.counts.is_empty() || hi.is_nan() || lo.is_nan() || hi <= lo {
            return Err(crate::stream::StateError("histogram range/bins invalid"));
        }
        Ok(Histogram { lo, hi, counts: s.counts.clone(), outside: s.outside })
    }

    /// Bin counts smoothed with a centred moving average of half-width `w`
    /// (window `2w+1`, truncated at the edges). Smoothing before peak
    /// detection suppresses single-response jitter in sparse per-video
    /// histograms.
    pub fn smoothed(&self, w: usize) -> Vec<f64> {
        let n = self.counts.len();
        (0..n)
            .map(|i| {
                let a = i.saturating_sub(w);
                let b = (i + w).min(n - 1);
                let sum: u32 = self.counts[a..=b].iter().sum();
                sum as f64 / (b - a + 1) as f64
            })
            .collect()
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        self.state().to_value()
    }
}

impl Deserialize for Histogram {
    // lint:entrypoint(untrusted)
    fn from_value(v: &Value) -> Result<Histogram, DeError> {
        let state = HistogramState::from_value(v)?;
        Histogram::from_state(&state).map_err(|e| DeError(e.to_string()))
    }
}

/// Raw [`Histogram`] state — every private field, bounds as
/// `to_bits()`. Produced by [`Histogram::state`], consumed by
/// [`Histogram::from_state`]. Checkpoint files serialize it as-is, so
/// its field names (after the renames) are part of checkpoint format
/// v1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramState {
    /// `lo.to_bits()`.
    #[serde(rename = "lo")]
    pub lo_bits: u64,
    /// `hi.to_bits()`.
    #[serde(rename = "hi")]
    pub hi_bits: u64,
    /// Per-bin counts (length = bin count).
    pub counts: Vec<u32>,
    /// Out-of-range / non-finite observations.
    pub outside: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trip_is_bit_exact() {
        let h = Histogram::with_bins(&[0.1, 0.5, 1.0, f64::NAN, 3.0], 0.0, 2.0, 4).unwrap();
        let back = Histogram::from_state(&h.state()).unwrap();
        assert_eq!(back, h);
        assert_eq!(format!("{back:?}"), format!("{h:?}"));
        // Corrupt states surface as typed errors, never panics.
        let mut s = h.state();
        s.counts.clear();
        assert!(Histogram::from_state(&s).is_err());
        let mut s = h.state();
        s.hi_bits = f64::NAN.to_bits();
        assert!(Histogram::from_state(&s).is_err());
        let mut s = h.state();
        s.hi_bits = s.lo_bits;
        assert!(Histogram::from_state(&s).is_err());
    }

    #[test]
    fn state_serializes_to_its_checkpoint_json() {
        let h = Histogram::with_bins(&[0.5, 1.5, 9.0], 0.0, 2.0, 2).unwrap();
        let json = "{\"lo\":0,\"hi\":4611686018427387904,\"counts\":[1,1],\"outside\":1}";
        assert_eq!(serde_json::to_string(&h).unwrap(), json);
        assert_eq!(serde_json::from_str::<Histogram>(json).unwrap(), h);
        // A corrupt state is an error, not a panic.
        let err = serde_json::from_str::<Histogram>(&json.replace("[1,1]", "[]")).unwrap_err();
        assert!(err.to_string().contains("histogram range/bins invalid"), "{err}");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Histogram::with_bins(&[1.0], 0.0, 1.0, 0).is_none());
        assert!(Histogram::with_bins(&[1.0], 1.0, 1.0, 4).is_none());
        assert!(Histogram::with_bins(&[1.0], 2.0, 1.0, 4).is_none());
        assert!(Histogram::auto(&[]).is_none());
    }

    #[test]
    fn binning_boundaries() {
        let h = Histogram::with_bins(&[0.0, 0.9, 1.0, 1.1, 2.0], 0.0, 2.0, 2).unwrap();
        // [0,1): {0.0, 0.9}; [1,2]: {1.0, 1.1, 2.0}
        assert_eq!(h.counts(), &[2, 3]);
        assert_eq!(h.outside(), 0);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn out_of_range_counted_separately() {
        let h = Histogram::with_bins(&[-1.0, 0.5, 3.0, f64::NAN], 0.0, 2.0, 2).unwrap();
        assert_eq!(h.total(), 1);
        assert_eq!(h.outside(), 3);
    }

    #[test]
    fn bin_centers_and_width() {
        let h = Histogram::with_bins(&[], 0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn auto_handles_constant_sample() {
        let h = Histogram::auto(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().len(), 1);
    }

    #[test]
    fn auto_bin_count_reasonable() {
        // 1000 uniform-ish points: FD rule should give O(10) bins, not 1 or 512.
        let sample: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let h = Histogram::auto(&sample).unwrap();
        assert!(h.counts().len() >= 4 && h.counts().len() <= 64, "{}", h.counts().len());
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn merge_matches_batch_construction() {
        let all = [0.1, 0.5, 1.0, 1.5, 1.9, -0.5, 2.5];
        let batch = Histogram::with_bins(&all, 0.0, 2.0, 4).unwrap();
        let mut left = Histogram::empty(0.0, 2.0, 4).unwrap();
        let mut right = Histogram::empty(0.0, 2.0, 4).unwrap();
        for &v in &all[..3] {
            left.record(v);
        }
        for &v in &all[3..] {
            right.record(v);
        }
        assert!(left.merge(&right));
        assert_eq!(left, batch);
    }

    #[test]
    fn merge_rejects_mismatched_binning() {
        let mut a = Histogram::empty(0.0, 2.0, 4).unwrap();
        let b = Histogram::empty(0.0, 2.0, 8).unwrap();
        let c = Histogram::empty(0.0, 3.0, 4).unwrap();
        assert!(!a.merge(&b));
        assert!(!a.merge(&c));
        assert_eq!(a, Histogram::empty(0.0, 2.0, 4).unwrap());
    }

    #[test]
    fn smoothing_preserves_mass_location() {
        let h = Histogram::with_bins(&[5.0, 5.0, 5.0, 5.1], 0.0, 10.0, 10).unwrap();
        let s = h.smoothed(1);
        // Peak must remain at/adjacent to bin 5.
        let max_i = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((4..=6).contains(&max_i));
    }
}
