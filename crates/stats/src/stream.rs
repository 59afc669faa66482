//! Streaming, mergeable accumulators for the sharded campaign engine.
//!
//! The materializing campaign pipeline retains every showing before
//! analysis, so memory grows with the crowd. The streaming engine
//! (`eyeorg-core`'s `stream` module) instead folds each participant
//! shard into the accumulators here and merges shards; for that to keep
//! the workspace's determinism contract — byte-identical results at any
//! thread count *and any shard size* — every accumulator's final state
//! must be a pure function of the multiset of observations, independent
//! of push order and merge-tree shape.
//!
//! * [`Moments`] carries **exact fixed-point integer sums** rather than
//!   floating Welford state: integer addition is associative, so Chan's
//!   pairwise combine is exact and the mean/variance read-outs (computed
//!   once, at query time, from the integer state) cannot depend on how
//!   the sample was sharded. Classic floating Welford/Chan merging would
//!   drift by rounding order and break the byte-identical contract.
//! * [`QuantileSketch`] is exact below a construction-time cap (small
//!   campaigns keep today's figure outputs unchanged) and degrades to
//!   fixed-bin counts over a known value range beyond it, with the error
//!   bounded by one bin width. Spilling depends only on the total count,
//!   so the final state is again multiset-determined.
//! * Mergeable fixed-bin histograms live in [`crate::hist`]
//!   ([`crate::Histogram::merge`]).

use serde::{DeError, Deserialize, Serialize, Value};

use crate::quantile::percentile_sorted;

/// Fixed-point scale for [`Moments`]: values are quantized to `2⁻³²`
/// before summation (sub-nanosecond resolution for second-valued
/// inputs), squares likewise.
const SCALE: f64 = 4_294_967_296.0; // 2^32

/// Largest representable magnitude for [`Moments::push`]: `2²⁰` (≈ 1.05
/// million — about 12 days in seconds, far beyond any campaign
/// quantity). The bound keeps the per-item quantized square below
/// `2⁷²`, so the `i128` running sum cannot overflow before `2⁵⁵` items.
pub const MOMENTS_MAX_ABS: f64 = 1_048_576.0; // 2^20

/// Streaming sample moments with an exact, associative merge.
///
/// Internally the accumulator holds `Σ round(v·2³²)` and
/// `Σ round(v²·2³²)` as `i128` plus exact `min`/`max`; mean, variance,
/// and standard deviation are derived at query time. Two `Moments` over
/// disjoint sub-samples merge into exactly the state a single pass over
/// the union would produce — the property the sharded campaign engine's
/// byte-identical contract is built on.
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    n: u64,
    qsum: i128,
    qsumsq: i128,
    min: f64,
    max: f64,
    /// Non-finite or out-of-magnitude observations, counted but not
    /// folded (campaign quantities never hit this; it exists so a bug
    /// upstream surfaces as a visible count, not silent NaN poisoning).
    rejected: u64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments {
            n: 0,
            qsum: 0,
            qsumsq: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        }
    }

    /// Fold one observation.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() || v.abs() > MOMENTS_MAX_ABS {
            self.rejected += 1;
            return;
        }
        self.n += 1;
        self.qsum += (v * SCALE).round() as i128;
        self.qsumsq += (v * v * SCALE).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another accumulator's state into this one (Chan-style
    /// combine, exact because the carried sums are integers).
    pub fn merge(&mut self, other: &Moments) {
        self.n += other.n;
        self.qsum += other.qsum;
        self.qsumsq += other.qsumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rejected += other.rejected;
    }

    /// Accepted observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Observations rejected as non-finite or out of magnitude.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Sample mean (`None` when empty). Accurate to the `2⁻³²`
    /// quantization — far below anything the reports print.
    pub fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some(self.qsum as f64 / SCALE / self.n as f64)
    }

    /// Unbiased (n−1) sample variance; `None` with fewer than two
    /// observations.
    pub fn variance(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let sum = self.qsum as f64 / SCALE;
        let sumsq = self.qsumsq as f64 / SCALE;
        Some(((sumsq - sum * sum / n) / (n - 1.0)).max(0.0))
    }

    /// Sample standard deviation.
    pub fn stdev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest accepted observation.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest accepted observation.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Normal-approximation confidence interval for the mean at critical
    /// value `z` (e.g. 1.96 for ~95%): `mean ± |z|·s/√n`. The sign of
    /// `z` is ignored — [`QuantileSketch::quantile_ci`] normalizes the
    /// same way, so a negative critical value can never produce an
    /// inverted (`lo > hi`) interval from either accumulator. `None`
    /// with fewer than two observations (no variance estimate). Like
    /// every read-out here it is a pure function of the integer state,
    /// so the adaptive engine's stopping decisions inherit the multiset
    /// determinism of the accumulator itself.
    pub fn mean_ci(&self, z: f64) -> Option<(f64, f64)> {
        let mean = self.mean()?;
        let sd = self.stdev()?;
        let half = z.abs() * sd / (self.n as f64).sqrt();
        Some((mean - half, mean + half))
    }

    /// The raw accumulator state, bit-exact: the checkpoint layer's
    /// serialization substrate. `min`/`max` are carried as `to_bits()`
    /// so the empty accumulator's `±inf` sentinels (and every other
    /// float) round-trip without touching a decimal formatter.
    pub fn state(&self) -> MomentsState {
        MomentsState {
            n: self.n,
            qsum: DecimalI128(self.qsum),
            qsumsq: DecimalI128(self.qsumsq),
            min_bits: self.min.to_bits(),
            max_bits: self.max.to_bits(),
            rejected: self.rejected,
        }
    }

    /// Rebuild an accumulator from raw state. Total: every state is
    /// representable, and `from_state(state())` is bit-identical to the
    /// original (`Debug`-equal, hence fingerprint-equal). Cross-field
    /// consistency (e.g. a `min` with `n = 0`) is the serializer's
    /// responsibility; an inconsistent state can skew read-outs but can
    /// never panic.
    pub fn from_state(s: &MomentsState) -> Moments {
        Moments {
            n: s.n,
            qsum: s.qsum.0,
            qsumsq: s.qsumsq.0,
            min: f64::from_bits(s.min_bits),
            max: f64::from_bits(s.max_bits),
            rejected: s.rejected,
        }
    }
}

impl Serialize for Moments {
    fn to_value(&self) -> Value {
        self.state().to_value()
    }
}

impl Deserialize for Moments {
    // lint:entrypoint(untrusted)
    fn from_value(v: &Value) -> Result<Moments, DeError> {
        Ok(Moments::from_state(&MomentsState::from_value(v)?))
    }
}

/// Raw [`Moments`] state — every private field, floats as `to_bits()`.
/// Produced by [`Moments::state`], consumed by [`Moments::from_state`].
/// Checkpoint files serialize it as-is, so its field names (after the
/// renames) are part of checkpoint format v1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MomentsState {
    /// Accepted observations.
    pub n: u64,
    /// `Σ round(v·2³²)` over accepted observations.
    pub qsum: DecimalI128,
    /// `Σ round(v²·2³²)` over accepted observations.
    pub qsumsq: DecimalI128,
    /// `min.to_bits()` (`+inf` when empty).
    #[serde(rename = "min")]
    pub min_bits: u64,
    /// `max.to_bits()` (`-inf` when empty).
    #[serde(rename = "max")]
    pub max_bits: u64,
    /// Rejected (non-finite / out-of-magnitude) observations.
    pub rejected: u64,
}

/// An `i128` serialized as a decimal string: JSON numbers in the
/// vendored serde stop at 64 bits, and [`Moments`]' fixed-point sums
/// need all 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecimalI128(pub i128);

impl Serialize for DecimalI128 {
    fn to_value(&self) -> Value {
        Value::Str(self.0.to_string())
    }
}

impl Deserialize for DecimalI128 {
    // lint:entrypoint(untrusted)
    fn from_value(v: &Value) -> Result<DecimalI128, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::expected("decimal i128 string", v))?;
        s.parse().map(DecimalI128).map_err(|_| DeError(format!("not a decimal i128: {s:?}")))
    }
}

/// Why a raw accumulator state was rejected by a `from_state`
/// constructor. Untrusted bytes (checkpoint files) must surface as
/// typed errors, never as panics, so the validations behind this type
/// are the accumulators' whole defensive surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateError(pub &'static str);

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid accumulator state: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Raw [`QuantileSketch`] state — every private field, floats as
/// `to_bits()`. Produced by [`QuantileSketch::state`], consumed by
/// [`QuantileSketch::from_state`]. Checkpoint files serialize it as-is,
/// so its field names (after the renames) are part of checkpoint
/// format v1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileSketchState {
    /// `lo.to_bits()` (construction-time range start).
    #[serde(rename = "lo")]
    pub lo_bits: u64,
    /// `hi.to_bits()` (construction-time range end).
    #[serde(rename = "hi")]
    pub hi_bits: u64,
    /// Bin count once spilled.
    pub bins: usize,
    /// Exact-mode capacity.
    #[serde(rename = "cap")]
    pub exact_cap: usize,
    /// Sorted exact sample as `to_bits()` values (exact mode only).
    #[serde(rename = "exact")]
    pub exact_bits: Vec<u64>,
    /// Bin counts (spilled mode only; empty in exact mode).
    pub counts: Vec<u64>,
    /// Whether the sketch has spilled to bins.
    pub spilled: bool,
    /// `min.to_bits()` (`+inf` when empty).
    #[serde(rename = "min")]
    pub min_bits: u64,
    /// `max.to_bits()` (`-inf` when empty).
    #[serde(rename = "max")]
    pub max_bits: u64,
    /// Folded observations.
    pub n: u64,
    /// Rejected (non-finite) observations.
    pub rejected: u64,
}

/// A bounded, deterministic quantile sketch.
///
/// Below `exact_cap` total observations the sketch keeps the sorted
/// sample itself and [`QuantileSketch::quantile`] is **exact** — the
/// same linear-interpolation percentile the figure pipeline computes
/// today, so small-campaign outputs are unchanged. Past the cap it
/// spills to fixed-width bin counts over the construction-time value
/// range; quantile queries then interpolate within a bin and the error
/// is bounded by one bin width ([`QuantileSketch::max_error`]).
///
/// Both representations, and the spill decision itself, depend only on
/// the multiset of observations and the construction parameters — never
/// on push order or merge-tree shape — so shard-size and thread-count
/// sweeps produce byte-identical sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    bins: usize,
    exact_cap: usize,
    /// Sorted sample while in exact mode; drained on spill.
    exact: Vec<f64>,
    /// Bin counts once spilled; empty in exact mode.
    counts: Vec<u64>,
    spilled: bool,
    min: f64,
    max: f64,
    n: u64,
    /// Non-finite observations, counted but not folded.
    rejected: u64,
}

impl QuantileSketch {
    /// A sketch over the value range `[lo, hi]` with `bins` equal-width
    /// bins once spilled, exact up to `exact_cap` observations. Returns
    /// `None` when `bins == 0` or the range is empty or non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize, exact_cap: usize) -> Option<QuantileSketch> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return None;
        }
        Some(QuantileSketch {
            lo,
            hi,
            bins,
            exact_cap,
            exact: Vec::new(),
            counts: Vec::new(),
            spilled: false,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            n: 0,
            rejected: 0,
        })
    }

    /// An empty sketch with this one's construction parameters, in this
    /// one's regime: once `self` has spilled, the new sketch bins from
    /// its first push, since merging it back into `self` would bin its
    /// exact sample anyway. That makes it a partial of `self` only:
    /// merging it into `self` equals pushing its values into `self`
    /// directly, but while it holds no more than `exact_cap` values it
    /// breaks the rule that the regime follows the count, so it must
    /// not be merged into an exact sketch, serialized, or read out.
    pub fn empty_like(&self) -> QuantileSketch {
        let mut s = QuantileSketch {
            exact: Vec::new(),
            counts: Vec::new(),
            spilled: false,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            n: 0,
            rejected: 0,
            ..*self
        };
        if self.spilled {
            s.spill();
        }
        s
    }

    /// Fold one observation. Out-of-range values clamp to the nearest
    /// bin once spilled (their exact value still drives `min`/`max`).
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.spilled {
            self.bin_record(v);
            return;
        }
        let at = self.exact.partition_point(|x| x.total_cmp(&v).is_lt());
        self.exact.insert(at, v);
        if self.exact.len() > self.exact_cap {
            self.spill();
        }
    }

    fn spill(&mut self) {
        self.counts = vec![0; self.bins];
        self.spilled = true;
        let exact = std::mem::take(&mut self.exact);
        for v in exact {
            self.bin_record(v);
        }
    }

    fn bin_record(&mut self, v: f64) {
        // lint:allow(D7): float division never panics (bins >= 1 by construction)
        let width = (self.hi - self.lo) / self.bins as f64;
        let clamped = v.clamp(self.lo, self.hi);
        // lint:allow(D7): float division never panics; width is finite for a valid config
        let idx = (((clamped - self.lo) / width) as usize).min(self.bins - 1);
        // lint:allow(D7): idx is clamped by .min(self.bins - 1)
        self.counts[idx] += 1;
    }

    /// Fold another sketch into this one. Returns `false` (leaving
    /// `self` untouched) when the construction parameters differ.
    #[must_use]
    pub fn merge(&mut self, other: &QuantileSketch) -> bool {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.bins != other.bins
            || self.exact_cap != other.exact_cap
        {
            return false;
        }
        debug_assert!(
            self.spilled || !other.spilled || other.n > self.exact_cap as u64,
            "a spilled partial holding at most exact_cap values merges only into a spilled sketch"
        );
        self.n += other.n;
        self.rejected += other.rejected;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !self.spilled && !other.spilled && self.exact.len() + other.exact.len() <= self.exact_cap
        {
            self.exact.extend_from_slice(&other.exact);
            self.exact.sort_by(f64::total_cmp);
            return true;
        }
        if !self.spilled {
            self.spill();
        }
        if other.spilled {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
        } else {
            for &v in &other.exact {
                self.bin_record(v);
            }
        }
        true
    }

    /// Folded observations (rejected non-finite values excluded).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Non-finite observations, counted but not folded.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Whether the sketch still holds the exact sample.
    pub fn is_exact(&self) -> bool {
        !self.spilled
    }

    /// The sorted sample, while in exact mode.
    pub fn exact_values(&self) -> Option<&[f64]> {
        (!self.spilled).then_some(self.exact.as_slice())
    }

    /// Worst-case absolute error of [`QuantileSketch::quantile`]: zero
    /// in exact mode, one bin width once spilled.
    pub fn max_error(&self) -> f64 {
        if self.spilled {
            (self.hi - self.lo) / self.bins as f64
        } else {
            0.0
        }
    }

    /// Smallest folded observation.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest folded observation.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The `p`-th percentile (0–100, clamped). Exact below the cap
    /// (same interpolation as [`crate::quantile::percentile_sorted`]);
    /// within one bin width of the true value once spilled. `None` when
    /// empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        if !self.spilled {
            return Some(percentile_sorted(&self.exact, p));
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        // The extrema are tracked exactly even once binned.
        if p == 0.0 {
            return Some(self.min);
        }
        if p == 100.0 {
            return Some(self.max);
        }
        let rank = (self.n - 1) as f64 * p / 100.0;
        let width = (self.hi - self.lo) / self.bins as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (cum + c) as f64 {
                // Spread the bin's mass evenly across its width; the
                // half-count offset centres a lone observation.
                let frac = ((rank - cum as f64 + 0.5) / c as f64).clamp(0.0, 1.0);
                let v = self.lo + width * (i as f64 + frac);
                return Some(v.clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Sketch-resolution-aware confidence interval for the `p`-th
    /// percentile at critical value `z`.
    ///
    /// The interval is the classic distribution-free order-statistic
    /// band: the rank of the `p`-th percentile is binomially distributed
    /// with standard deviation `√(n·q·(1−q))` (`q = p/100`), so the
    /// bounds are the quantiles at ranks `rank ± z·√(n·q·(1−q))`,
    /// clamped to the sample. Once the sketch has spilled, each bound is
    /// additionally widened by [`QuantileSketch::max_error`] (one bin
    /// width) so the interval stays conservative at sketch resolution;
    /// both bounds are clamped to the exactly-tracked `[min, max]`.
    /// `None` when empty. Deterministic: a pure function of the
    /// multiset-determined sketch state.
    pub fn quantile_ci(&self, p: f64, z: f64) -> Option<(f64, f64)> {
        if self.n == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let q = p / 100.0;
        let n = self.n as f64;
        let spread = z.abs() * (n * q * (1.0 - q)).sqrt();
        let rank = (n - 1.0) * q;
        let lo_rank = (rank - spread).max(0.0);
        let hi_rank = (rank + spread).min(n - 1.0);
        let (lo_p, hi_p) = if self.n > 1 {
            (100.0 * lo_rank / (n - 1.0), 100.0 * hi_rank / (n - 1.0))
        } else {
            (0.0, 100.0)
        };
        let err = self.max_error();
        let lo = self.quantile(lo_p)? - err;
        let hi = self.quantile(hi_p)? + err;
        Some((lo.max(self.min), hi.min(self.max)))
    }

    /// Construction-time value range `(lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Construction-time bin count.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Construction-time exact-mode capacity.
    pub fn exact_cap(&self) -> usize {
        self.exact_cap
    }

    /// The raw sketch state, bit-exact (see [`Moments::state`]).
    pub fn state(&self) -> QuantileSketchState {
        QuantileSketchState {
            lo_bits: self.lo.to_bits(),
            hi_bits: self.hi.to_bits(),
            bins: self.bins,
            exact_cap: self.exact_cap,
            exact_bits: self.exact.iter().map(|v| v.to_bits()).collect(),
            counts: self.counts.clone(),
            spilled: self.spilled,
            min_bits: self.min.to_bits(),
            max_bits: self.max.to_bits(),
            n: self.n,
            rejected: self.rejected,
        }
    }

    /// Rebuild a sketch from raw state, validating every invariant a
    /// `push`/`merge` history would have maintained; `from_state(state())`
    /// of any live sketch is bit-identical to the original. Untrusted
    /// (checkpoint-file) states that violate an invariant come back as
    /// a typed [`StateError`], never a panic — the spilled/exact regime
    /// split, bin-count arity, sample ordering, and the `n` bookkeeping
    /// are all checked because later `push`/`merge`/`quantile` calls
    /// index into the state they establish.
    pub fn from_state(s: &QuantileSketchState) -> Result<QuantileSketch, StateError> {
        let lo = f64::from_bits(s.lo_bits);
        let hi = f64::from_bits(s.hi_bits);
        if s.bins == 0 || !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StateError("sketch construction range/bins invalid"));
        }
        let exact: Vec<f64> = s.exact_bits.iter().map(|&b| f64::from_bits(b)).collect();
        if exact.iter().any(|v| !v.is_finite()) {
            return Err(StateError("non-finite value in exact sample"));
        }
        if exact.iter().zip(exact.iter().skip(1)).any(|(a, b)| a.total_cmp(b).is_gt()) {
            return Err(StateError("exact sample not sorted"));
        }
        if s.spilled {
            if !exact.is_empty() {
                return Err(StateError("spilled sketch carries an exact sample"));
            }
            if s.counts.len() != s.bins {
                return Err(StateError("spilled bin-count arity mismatch"));
            }
            let binned: u64 = s.counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
            if binned != s.n {
                return Err(StateError("spilled bin counts disagree with n"));
            }
            if s.n <= s.exact_cap as u64 {
                return Err(StateError("spilled sketch holds no more than its cap"));
            }
        } else {
            if !s.counts.is_empty() {
                return Err(StateError("exact-mode sketch carries bin counts"));
            }
            if exact.len() > s.exact_cap {
                return Err(StateError("exact sample exceeds its cap"));
            }
            if exact.len() as u64 != s.n {
                return Err(StateError("exact sample length disagrees with n"));
            }
        }
        Ok(QuantileSketch {
            lo,
            hi,
            bins: s.bins,
            exact_cap: s.exact_cap,
            exact,
            counts: s.counts.clone(),
            spilled: s.spilled,
            min: f64::from_bits(s.min_bits),
            max: f64::from_bits(s.max_bits),
            n: s.n,
            rejected: s.rejected,
        })
    }

    /// Bytes retained by this sketch (the peak-RSS proxy the scale
    /// bench reports): heap buffers plus the struct itself.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<QuantileSketch>()
            + self.exact.capacity() * std::mem::size_of::<f64>()
            + self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

impl Serialize for QuantileSketch {
    fn to_value(&self) -> Value {
        self.state().to_value()
    }
}

impl Deserialize for QuantileSketch {
    // lint:entrypoint(untrusted)
    fn from_value(v: &Value) -> Result<QuantileSketch, DeError> {
        let state = QuantileSketchState::from_value(v)?;
        QuantileSketch::from_state(&state).map_err(|e| DeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic, irregular, includes ties and near-boundary
        // values.
        (0..n).map(|i| ((i * 7919) % 1000) as f64 / 100.0).collect()
    }

    #[test]
    fn moments_match_summary() {
        let data = sample(500);
        let mut m = Moments::new();
        for &v in &data {
            m.push(v);
        }
        let s = Summary::of(&data).unwrap();
        assert_eq!(m.count(), 500);
        assert!((m.mean().unwrap() - s.mean).abs() < 1e-6);
        assert!((m.stdev().unwrap() - s.stdev).abs() < 1e-6);
        assert_eq!(m.min().unwrap(), s.min);
        assert_eq!(m.max().unwrap(), s.max);
    }

    #[test]
    fn moments_merge_is_exact_for_any_split() {
        let data = sample(1000);
        let mut whole = Moments::new();
        for &v in &data {
            whole.push(v);
        }
        for split in [1, 7, 250, 999] {
            let (a, b) = data.split_at(split);
            let mut left = Moments::new();
            let mut right = Moments::new();
            for &v in a {
                left.push(v);
            }
            for &v in b {
                right.push(v);
            }
            left.merge(&right);
            // Bit-exact state equality, not approximate agreement: the
            // digest fingerprint depends on it.
            assert_eq!(format!("{left:?}"), format!("{whole:?}"), "split {split}");
        }
    }

    #[test]
    fn moments_reject_pathological_values() {
        let mut m = Moments::new();
        m.push(f64::NAN);
        m.push(f64::INFINITY);
        m.push(MOMENTS_MAX_ABS * 2.0);
        m.push(1.0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.rejected(), 3);
        assert_eq!(m.mean(), Some(1.0));
    }

    #[test]
    fn moments_degenerate_cases() {
        let m = Moments::new();
        assert_eq!(m.mean(), None);
        assert_eq!(m.variance(), None);
        assert_eq!(m.min(), None);
        let mut one = Moments::new();
        one.push(3.0);
        assert_eq!(one.mean(), Some(3.0));
        assert_eq!(one.variance(), None);
    }

    #[test]
    fn moments_mean_ci_matches_summary_formula() {
        let data = sample(400);
        let mut m = Moments::new();
        for &v in &data {
            m.push(v);
        }
        let s = Summary::of(&data).unwrap();
        let (lo, hi) = m.mean_ci(1.96).unwrap();
        let half = 1.96 * s.stdev / (data.len() as f64).sqrt();
        assert!((lo - (s.mean - half)).abs() < 1e-6);
        assert!((hi - (s.mean + half)).abs() < 1e-6);
        // Quadrupling n halves the half-width (same population).
        let mut m4 = Moments::new();
        for _ in 0..4 {
            for &v in &data {
                m4.push(v);
            }
        }
        let (lo4, hi4) = m4.mean_ci(1.96).unwrap();
        assert!((hi4 - lo4) < 0.6 * (hi - lo));
        // Under two observations there is no variance estimate.
        let mut one = Moments::new();
        one.push(3.0);
        assert_eq!(one.mean_ci(1.96), None);
    }

    #[test]
    fn mean_ci_and_quantile_ci_agree_on_negative_z() {
        // Regression: mean_ci used the signed z, so a negative critical
        // value produced an inverted (lo > hi) interval while
        // quantile_ci — which normalizes with z.abs() — did not. Both
        // must treat ±z identically.
        let data = sample(400);
        let mut m = Moments::new();
        let mut sk = QuantileSketch::new(0.0, 10.0, 64, 512).unwrap();
        for &v in &data {
            m.push(v);
            sk.push(v);
        }
        for z in [1.96, 1.0, 2.58] {
            let pos = m.mean_ci(z).unwrap();
            let neg = m.mean_ci(-z).unwrap();
            assert_eq!(pos, neg, "mean_ci must ignore the sign of z={z}");
            assert!(pos.0 <= pos.1, "z={z}");
            let qpos = sk.quantile_ci(50.0, z).unwrap();
            let qneg = sk.quantile_ci(50.0, -z).unwrap();
            assert_eq!(qpos, qneg, "quantile_ci must ignore the sign of z={z}");
            assert!(qneg.0 <= qneg.1, "z={z}");
        }
        // z = 0 degenerates both to a point interval around the estimate.
        let (lo, hi) = m.mean_ci(0.0).unwrap();
        assert_eq!(lo, hi);
    }

    #[test]
    fn moments_state_round_trip_is_bit_exact() {
        // Live accumulator with rejected counts.
        let mut m = Moments::new();
        for &v in &sample(333) {
            m.push(v);
        }
        m.push(f64::NAN);
        m.push(-MOMENTS_MAX_ABS * 4.0);
        let back = Moments::from_state(&m.state());
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
        // Empty accumulator: the ±inf min/max sentinels must survive.
        let empty = Moments::new();
        let s = empty.state();
        assert_eq!(f64::from_bits(s.min_bits), f64::INFINITY);
        assert_eq!(f64::from_bits(s.max_bits), f64::NEG_INFINITY);
        let back = Moments::from_state(&s);
        assert_eq!(format!("{back:?}"), format!("{empty:?}"));
        // Negative sums round-trip through the signed i128 carriers.
        let mut neg = Moments::new();
        neg.push(-3.25);
        neg.push(-0.5);
        let back = Moments::from_state(&neg.state());
        assert_eq!(format!("{back:?}"), format!("{neg:?}"));
    }

    #[test]
    fn sketch_state_round_trip_both_regimes() {
        for (n, cap) in [(0usize, 512usize), (300, 512), (5000, 256)] {
            let mut sk = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
            for &v in &sample(n) {
                sk.push(v);
            }
            sk.push(f64::INFINITY); // rejected, counted
            let back = QuantileSketch::from_state(&sk.state()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{sk:?}"), "n={n} cap={cap}");
        }
    }

    #[test]
    fn sketch_from_state_rejects_corrupt_states() {
        let mut sk = QuantileSketch::new(0.0, 10.0, 8, 4).unwrap();
        for v in [3.0, 1.0, 2.0] {
            sk.push(v);
        }
        let good = sk.state();
        assert!(QuantileSketch::from_state(&good).is_ok());
        let corrupt = |f: &dyn Fn(&mut QuantileSketchState)| {
            let mut s = good.clone();
            f(&mut s);
            QuantileSketch::from_state(&s)
        };
        assert!(corrupt(&|s| s.bins = 0).is_err());
        assert!(corrupt(&|s| s.hi_bits = s.lo_bits).is_err());
        assert!(corrupt(&|s| s.hi_bits = f64::NAN.to_bits()).is_err());
        assert!(corrupt(&|s| s.exact_bits[0] = f64::NAN.to_bits()).is_err());
        assert!(corrupt(&|s| s.exact_bits.swap(0, 2)).is_err()); // unsorted
        assert!(corrupt(&|s| s.counts = vec![1, 2]).is_err()); // counts in exact mode
        assert!(corrupt(&|s| s.n = 99).is_err()); // n disagrees with sample
        assert!(corrupt(&|s| s.exact_bits.push(20.0f64.to_bits())).is_err()); // beyond cap (4)
        // Spilled-regime corruption.
        let mut big = QuantileSketch::new(0.0, 10.0, 8, 4).unwrap();
        for &v in &sample(50) {
            big.push(v);
        }
        assert!(!big.is_exact());
        let good = big.state();
        assert!(QuantileSketch::from_state(&good).is_ok());
        let corrupt = |f: &dyn Fn(&mut QuantileSketchState)| {
            let mut s = good.clone();
            f(&mut s);
            QuantileSketch::from_state(&s)
        };
        assert!(corrupt(&|s| s.counts.pop().map(|_| ()).unwrap_or(())).is_err()); // arity
        assert!(corrupt(&|s| s.n += 1).is_err()); // bin sum disagrees
        assert!(corrupt(&|s| s.exact_bits = vec![1.0f64.to_bits()]).is_err()); // sample while spilled
        assert!(corrupt(&|s| {
            s.counts = vec![0; 8];
            s.counts[3] = 4;
            s.n = 4;
        })
        .is_err()); // spilled at or below its cap (4)
    }

    /// Serialize `v` and check the exact JSON, then read it back.
    fn pin_json<T: Serialize + Deserialize + std::fmt::Debug>(v: &T, json: &str) {
        assert_eq!(serde_json::to_string(v).unwrap(), json);
        let back: T = serde_json::from_str(json).unwrap();
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }

    #[test]
    fn states_serialize_to_their_checkpoint_json() {
        // Empty moments: the ±inf sentinels as bits, the sums as strings.
        pin_json(
            &Moments::new(),
            "{\"n\":0,\"qsum\":\"0\",\"qsumsq\":\"0\",\"min\":9218868437227405312,\
             \"max\":18442240474082181120,\"rejected\":0}",
        );
        let mut neg = Moments::new();
        neg.push(-0.5);
        pin_json(
            &neg,
            "{\"n\":1,\"qsum\":\"-2147483648\",\"qsumsq\":\"1073741824\",\
             \"min\":13826050856027422720,\"max\":13826050856027422720,\"rejected\":0}",
        );
        // An exact sketch holding 1.0 and 2.0 over [0, 10].
        let mut exact = QuantileSketch::new(0.0, 10.0, 4, 8).unwrap();
        exact.push(2.0);
        exact.push(1.0);
        pin_json(
            &exact,
            "{\"lo\":0,\"hi\":4621819117588971520,\"bins\":4,\"cap\":8,\
             \"exact\":[4607182418800017408,4611686018427387904],\"counts\":[],\
             \"spilled\":false,\"min\":4607182418800017408,\"max\":4611686018427387904,\
             \"n\":2,\"rejected\":0}",
        );
        // The same sample past a cap of 1: two bins over [0, 4], one each.
        let mut spilled = QuantileSketch::new(0.0, 4.0, 2, 1).unwrap();
        spilled.push(3.0);
        spilled.push(1.0);
        spilled.push(f64::NAN);
        pin_json(
            &spilled,
            "{\"lo\":0,\"hi\":4616189618054758400,\"bins\":2,\"cap\":1,\"exact\":[],\
             \"counts\":[1,1],\"spilled\":true,\"min\":4607182418800017408,\
             \"max\":4613937818241073152,\"n\":2,\"rejected\":1}",
        );
    }

    #[test]
    fn decimal_i128_rejects_what_is_not_a_decimal_i128() {
        let parse = |json: &str| DecimalI128::from_value(&serde_json::from_str(json).unwrap());
        let (min, max) = (i128::MIN, i128::MAX);
        assert_eq!(parse(&format!("\"{min}\"")), Ok(DecimalI128(min)));
        assert_eq!(parse(&format!("\"{max}\"")), Ok(DecimalI128(max)));
        let beyond = "\"170141183460469231731687303715884105728\""; // i128::MAX + 1
        for bad in ["5", "\"12x\"", "\"\"", "\"1.5\"", "null", beyond] {
            let err: DeError = parse(bad).unwrap_err();
            assert!(err.0.contains("decimal i128"), "{bad}: {err}");
        }
    }

    #[test]
    fn corrupt_sketch_json_is_an_error_not_a_panic() {
        let mut sk = QuantileSketch::new(0.0, 10.0, 8, 4).unwrap();
        for v in [3.0, 1.0, 2.0] {
            sk.push(v);
        }
        let good = serde_json::to_string(&sk).unwrap();
        // Each edit breaks one invariant: `n` against the sample, no
        // bins, a regime flip, counts in exact mode, a sample beyond its
        // cap, and a dropped sample value.
        let corrupt = [
            ("\"n\":3", "\"n\":4"),
            ("\"bins\":8", "\"bins\":0"),
            ("\"spilled\":false", "\"spilled\":true"),
            ("\"counts\":[]", "\"counts\":[1]"),
            ("\"cap\":4", "\"cap\":2"),
            ("[4607182418800017408,", "["),
        ];
        for (from, to) in corrupt {
            let doc = good.replace(from, to);
            assert_ne!(doc, good);
            let err = QuantileSketch::from_value(&serde_json::from_str(&doc).unwrap()).unwrap_err();
            assert!(err.0.contains("invalid accumulator state"), "{doc}: {err}");
        }
        // Unsorted sample: swap the first two exact values.
        let st = sk.state();
        let (a, b) = (st.exact_bits[0], st.exact_bits[1]);
        let doc = good.replace(&format!("[{a},{b},"), &format!("[{b},{a},"));
        let err = QuantileSketch::from_value(&serde_json::from_str(&doc).unwrap()).unwrap_err();
        assert_eq!(err.0, "invalid accumulator state: exact sample not sorted");
        assert!(serde_json::from_str::<QuantileSketch>(&good).is_ok());
    }

    #[test]
    fn sketch_quantile_ci_exact_small_n_agreement() {
        // In exact mode the CI endpoints must be the order-statistic
        // band computed directly on the sorted sample: quantiles at
        // ranks rank ± z·√(n·q·(1−q)), with zero sketch widening.
        let data = sample(300);
        let mut sk = QuantileSketch::new(0.0, 10.0, 64, 512).unwrap();
        for &v in &data {
            sk.push(v);
        }
        assert!(sk.is_exact());
        for (p, z) in [(50.0, 1.96), (25.0, 1.96), (75.0, 1.0), (90.0, 2.58)] {
            let (lo, hi) = sk.quantile_ci(p, z).unwrap();
            let n = data.len() as f64;
            let q = p / 100.0;
            let spread = z * (n * q * (1.0 - q)).sqrt();
            let rank = (n - 1.0) * q;
            let lo_p = 100.0 * (rank - spread).max(0.0) / (n - 1.0);
            let hi_p = 100.0 * (rank + spread).min(n - 1.0) / (n - 1.0);
            assert_eq!(lo, crate::quantile::percentile(&data, lo_p).unwrap(), "p={p} z={z}");
            assert_eq!(hi, crate::quantile::percentile(&data, hi_p).unwrap(), "p={p} z={z}");
            // The point estimate sits inside its own interval.
            let mid = sk.quantile(p).unwrap();
            assert!(lo <= mid && mid <= hi, "p={p} z={z}");
        }
        // n = 1: the only honest interval is the whole (degenerate)
        // sample; width zero, so an epsilon rule must be guarded by
        // min_n, not by the interval alone.
        let mut one = QuantileSketch::new(0.0, 10.0, 64, 512).unwrap();
        one.push(4.0);
        assert_eq!(one.quantile_ci(50.0, 1.96), Some((4.0, 4.0)));
        let empty = QuantileSketch::new(0.0, 10.0, 64, 512).unwrap();
        assert_eq!(empty.quantile_ci(50.0, 1.96), None);
    }

    #[test]
    fn sketch_quantile_ci_shrinks_with_n_and_widens_when_spilled() {
        let grow = |n: usize, cap: usize| {
            let mut sk = QuantileSketch::new(0.0, 10.0, 128, cap).unwrap();
            for &v in &sample(n) {
                sk.push(v);
            }
            let (lo, hi) = sk.quantile_ci(50.0, 1.96).unwrap();
            (sk, hi - lo)
        };
        let (_, w200) = grow(200, 100_000);
        let (_, w5000) = grow(5000, 100_000);
        assert!(w5000 < w200, "median CI must tighten with n: {w5000} vs {w200}");
        // Spilling the same sample can only widen the interval, and
        // boundedly so: each endpoint moves by at most one bin width of
        // interpolation error plus the explicit max_error widening.
        let (exact_sk, w_exact) = grow(5000, 100_000);
        let (spilled_sk, w_spilled) = grow(5000, 256);
        assert!(exact_sk.is_exact() && !spilled_sk.is_exact());
        assert!(w_spilled + 1e-12 >= w_exact);
        assert!(w_spilled <= w_exact + 4.0 * spilled_sk.max_error() + 1e-12);
    }

    #[test]
    fn sketch_quantile_ci_is_merge_invariant() {
        // Sharding must not move the interval by a single bit: the CI is
        // a pure read-out of the multiset-determined state.
        for (n, cap) in [(300usize, 512usize), (5000, 256)] {
            let data = sample(n);
            let mut whole = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
            for &v in &data {
                whole.push(v);
            }
            let want = whole.quantile_ci(50.0, 1.96).unwrap();
            for chunk in [1usize, 16, 64, n + 1] {
                let mut merged = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
                for part in data.chunks(chunk) {
                    let mut shard = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
                    for &v in part {
                        shard.push(v);
                    }
                    assert!(merged.merge(&shard));
                }
                let got = merged.quantile_ci(50.0, 1.96).unwrap();
                assert_eq!(want.0.to_bits(), got.0.to_bits(), "n={n} chunk={chunk}");
                assert_eq!(want.1.to_bits(), got.1.to_bits(), "n={n} chunk={chunk}");
            }
        }
    }

    #[test]
    fn sketch_exact_mode_matches_percentile() {
        let data = sample(100);
        let mut sk = QuantileSketch::new(0.0, 10.0, 64, 512).unwrap();
        for &v in &data {
            sk.push(v);
        }
        assert!(sk.is_exact());
        assert_eq!(sk.max_error(), 0.0);
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            assert_eq!(sk.quantile(p), crate::quantile::percentile(&data, p), "p={p}");
        }
    }

    #[test]
    fn sketch_spills_past_cap_with_bounded_error() {
        let data = sample(5000);
        let mut sk = QuantileSketch::new(0.0, 10.0, 128, 256).unwrap();
        for &v in &data {
            sk.push(v);
        }
        assert!(!sk.is_exact());
        let err = sk.max_error();
        assert!(err > 0.0);
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            let exact = crate::quantile::percentile(&data, p).unwrap();
            let approx = sk.quantile(p).unwrap();
            assert!((approx - exact).abs() <= err, "p={p}: {approx} vs {exact} (±{err})");
        }
        // Extrema are tracked exactly even once binned.
        assert_eq!(sk.quantile(0.0), Some(0.0));
        assert_eq!(sk.min(), crate::quantile::percentile(&data, 0.0));
        assert_eq!(sk.max(), crate::quantile::percentile(&data, 100.0));
    }

    #[test]
    fn sketch_state_is_multiset_determined() {
        // Same observations through different shardings and merge
        // orders → byte-identical sketch state, in both regimes.
        for (n, cap) in [(200usize, 512usize), (5000, 256)] {
            let data = sample(n);
            let mut whole = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
            for &v in &data {
                whole.push(v);
            }
            for chunk in [1usize, 16, 64, n + 1] {
                let mut merged = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
                for part in data.chunks(chunk) {
                    let mut shard = QuantileSketch::new(0.0, 10.0, 64, cap).unwrap();
                    for &v in part {
                        shard.push(v);
                    }
                    assert!(merged.merge(&shard));
                }
                assert_eq!(
                    format!("{merged:?}"),
                    format!("{whole:?}"),
                    "n={n} cap={cap} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn empty_like_of_a_spilled_sketch_merges_like_direct_pushes() {
        let mut spilled = QuantileSketch::new(0.0, 10.0, 64, 32).unwrap();
        for &v in &sample(100) {
            spilled.push(v);
        }
        assert!(!spilled.is_exact());
        // k below, at and above exact_cap, plus a rejected value.
        for k in [0usize, 1, 5, 32, 33, 400] {
            let values: Vec<f64> = sample(k + 17).split_off(17);
            let mut partial = spilled.empty_like();
            let mut direct = spilled.clone();
            for &v in values.iter().chain([f64::NAN].iter()) {
                partial.push(v);
                direct.push(v);
            }
            let mut merged = spilled.clone();
            assert!(merged.merge(&partial));
            assert_eq!(merged.state(), direct.state(), "k={k}");
        }
    }

    #[test]
    fn empty_like_of_an_exact_sketch_is_new() {
        let fresh = QuantileSketch::new(0.0, 10.0, 64, 32).unwrap();
        let mut some = fresh.clone();
        for &v in &sample(20) {
            some.push(v);
        }
        assert!(some.is_exact());
        for sk in [&fresh, &some] {
            assert_eq!(sk.empty_like().state(), fresh.state());
        }
    }

    #[test]
    fn sketch_merge_rejects_mismatched_configs() {
        let mut a = QuantileSketch::new(0.0, 10.0, 64, 256).unwrap();
        let b = QuantileSketch::new(0.0, 10.0, 32, 256).unwrap();
        let c = QuantileSketch::new(0.0, 9.0, 64, 256).unwrap();
        let d = QuantileSketch::new(0.0, 10.0, 64, 128).unwrap();
        assert!(!a.merge(&b));
        assert!(!a.merge(&c));
        assert!(!a.merge(&d));
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn sketch_rejects_bad_configs_and_nan() {
        assert!(QuantileSketch::new(0.0, 10.0, 0, 16).is_none());
        assert!(QuantileSketch::new(1.0, 1.0, 4, 16).is_none());
        assert!(QuantileSketch::new(0.0, f64::NAN, 4, 16).is_none());
        let mut sk = QuantileSketch::new(0.0, 1.0, 4, 16).unwrap();
        sk.push(f64::NAN);
        assert_eq!(sk.count(), 0);
        assert_eq!(sk.rejected(), 1);
        assert_eq!(sk.quantile(50.0), None);
    }

    #[test]
    fn sketch_retained_bytes_bounded_by_cap_and_bins() {
        let mut sk = QuantileSketch::new(0.0, 10.0, 128, 256).unwrap();
        for &v in &sample(100_000) {
            sk.push(v);
        }
        // Once spilled the footprint is bins-bound, not n-bound.
        let bound = std::mem::size_of::<QuantileSketch>()
            + (256 + 1) * std::mem::size_of::<f64>()
            + 2 * 128 * std::mem::size_of::<u64>();
        assert!(sk.retained_bytes() <= bound, "{}", sk.retained_bytes());
    }
}
