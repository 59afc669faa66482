//! Campaign digests: bounded-memory summaries of a campaign's results.
//!
//! A digest is everything the analysis/report layer reads from a
//! campaign, folded into the mergeable accumulators of
//! `eyeorg_stats::stream` instead of retained rows: per-stimulus
//! `UserPerceivedPLT` moments + fixed-bin histogram + quantile sketch,
//! behaviour moments over every admitted participant, filter/control
//! tallies, and the recruitment economics. Two construction paths exist
//! and are pinned byte-identical by the `streaming_equivalence` tests:
//!
//! * [`digest_timeline`] / [`digest_ab`] fold a **materialized**
//!   campaign plus its filter report — the small-campaign path, exact
//!   by construction;
//! * the flat kernel (`flat::flat_timeline_campaign` /
//!   `flat::flat_ab_campaign`) builds the same digest shard by shard
//!   without ever materializing the rows; the timeline reference
//!   (`stream::stream_timeline_campaign`) applies [`digest_timeline`]'s
//!   fold to one shard's rows at a time and merges the shard folds.
//!
//! Equality of digests is compared through [`TimelineDigest::fingerprint`]
//! (the canonical `Debug` rendering of the full accumulator state), so
//! "equal" means bit-equal accumulators, not approximately equal
//! statistics.
//!
//! ## Merge errors
//!
//! Digest merges are only meaningful between accumulators built from
//! the same stimulus under the same [`DigestParams`]; anything else is
//! either a programming error (partial folds of one campaign always
//! agree by construction) or **untrusted input** (a checkpoint file
//! from disk, see `crate::checkpoint`). The fallible merges therefore
//! return [`MergeError`] — carrying both sides' identity/configuration
//! so a mismatch names exactly what disagreed — instead of panicking.
//! The one internal merge (`stream::Fold::merge_all`), which folds the
//! kernel's per-worker folds (and the reference's shard folds) into
//! one campaign fold, relies on exact multiset-determinism rather than
//! merge order; its inputs are all built from the campaign's stimuli
//! and params, so it discharges the `Result` with a documented
//! `expect` waiver. The checkpoint layer propagates it as a typed error
//! to its caller.

use eyeorg_stats::{Histogram, Moments, QuantileSketch};

use crate::analysis::AbTally;
use crate::campaign::{AbCampaign, Campaign, TimelineCampaign};
use crate::checkpoint::ShardKind;
use crate::filtering::{FilterReport, FilterTally};
use crate::stream::Fold;

/// Accumulator sizing shared by both digest construction paths. The
/// parameters are part of the digest's identity: comparing digests
/// built with different params is meaningless (the sketch merge would
/// reject it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestParams {
    /// Bins of the per-stimulus UPLT histogram (over `[0, duration]`).
    pub hist_bins: usize,
    /// Bins of the quantile sketch once spilled.
    pub sketch_bins: usize,
    /// Observations per stimulus below which the sketch stays exact
    /// (small campaigns keep today's figure outputs unchanged).
    pub exact_cap: usize,
}

impl Default for DigestParams {
    fn default() -> Self {
        DigestParams { hist_bins: 64, sketch_bins: 512, exact_cap: 2048 }
    }
}

/// One side's accumulator configuration, as reported in a
/// [`MergeError`]: the value range, the bin count, and (for sketches)
/// the exact-mode cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinConfig {
    /// Range start.
    pub lo: f64,
    /// Range end.
    pub hi: f64,
    /// Bin count.
    pub bins: usize,
    /// Exact-mode cap (`None` for histograms).
    pub exact_cap: Option<usize>,
}

impl BinConfig {
    fn of_hist(h: &Histogram) -> BinConfig {
        BinConfig { lo: h.lo(), hi: h.hi(), bins: h.counts().len(), exact_cap: None }
    }

    fn of_sketch(s: &QuantileSketch) -> BinConfig {
        let (lo, hi) = s.range();
        BinConfig { lo, hi, bins: s.bins(), exact_cap: Some(s.exact_cap()) }
    }

    /// Bit-exact equality — the same comparison the accumulator merges
    /// use internally (`to_bits`), so this pre-check accepts exactly
    /// the pairs those merges will (value equality would wrongly admit
    /// `-0.0` vs `0.0`).
    fn bits_eq(&self, other: &BinConfig) -> bool {
        self.lo.to_bits() == other.lo.to_bits()
            && self.hi.to_bits() == other.hi.to_bits()
            && self.bins == other.bins
            && self.exact_cap == other.exact_cap
    }
}

/// Why two digests refused to merge. Reachable from untrusted
/// checkpoint bytes, so every variant names the offending
/// configuration instead of panicking (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The two sides accumulate different stimuli.
    StimulusName {
        /// Receiving side's stimulus name.
        left: String,
        /// Incoming side's stimulus name.
        right: String,
    },
    /// The two sides carry different numbers of stimuli.
    StimulusCount {
        /// Receiving side's stimulus count.
        left: usize,
        /// Incoming side's stimulus count.
        right: usize,
    },
    /// The histograms were built with different binning configurations.
    HistogramConfig {
        /// Stimulus whose histograms disagreed.
        stimulus: String,
        /// Receiving side's configuration.
        left: BinConfig,
        /// Incoming side's configuration.
        right: BinConfig,
    },
    /// The quantile sketches were built with different construction
    /// parameters.
    SketchConfig {
        /// Stimulus whose sketches disagreed.
        stimulus: String,
        /// Receiving side's configuration.
        left: BinConfig,
        /// Incoming side's configuration.
        right: BinConfig,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::StimulusName { left, right } => {
                write!(f, "digest merge across stimuli: {left:?} vs {right:?}")
            }
            MergeError::StimulusCount { left, right } => {
                write!(f, "digest merge across stimulus sets: {left} vs {right} stimuli")
            }
            MergeError::HistogramConfig { stimulus, left, right } => {
                write!(f, "histogram config mismatch on {stimulus:?}: {left:?} vs {right:?}")
            }
            MergeError::SketchConfig { stimulus, left, right } => {
                write!(f, "sketch config mismatch on {stimulus:?}: {left:?} vs {right:?}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Per-stimulus UPLT accumulators (kept participants only). Checkpoint
/// stimulus lines serialize it as-is, so its field names are part of
/// checkpoint format v1.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StimulusDigest {
    /// Stimulus name.
    pub name: String,
    /// Moments of the submitted `UserPerceivedPLT` (seconds).
    pub uplt: Moments,
    /// Fixed-bin response histogram over `[0, video duration]`.
    pub hist: Histogram,
    /// Quantile sketch over the same range (exact below the cap).
    pub sketch: QuantileSketch,
}

/// A positive, finite value span for a stimulus's accumulators; videos
/// always have positive duration, but a degenerate capture must not be
/// able to panic the digest.
fn value_span(duration_secs: f64) -> f64 {
    if duration_secs.is_finite() && duration_secs > 0.0 {
        duration_secs
    } else {
        1.0
    }
}

fn fixed_hist(hi: f64, bins: usize) -> Histogram {
    match Histogram::empty(0.0, value_span(hi), bins.max(1)) {
        Some(h) => h,
        // Unreachable by construction (positive finite span, ≥1 bin);
        // the unit fallback keeps this total without panicking.
        None => fixed_hist(1.0, 1),
    }
}

fn fixed_sketch(hi: f64, bins: usize, cap: usize) -> QuantileSketch {
    match QuantileSketch::new(0.0, value_span(hi), bins.max(1), cap) {
        Some(s) => s,
        None => fixed_sketch(1.0, 1, cap),
    }
}

impl StimulusDigest {
    /// Empty accumulators for one stimulus of the given duration.
    pub fn new(name: &str, duration_secs: f64, params: &DigestParams) -> StimulusDigest {
        StimulusDigest {
            name: name.to_owned(),
            uplt: Moments::new(),
            hist: fixed_hist(duration_secs, params.hist_bins),
            sketch: fixed_sketch(duration_secs, params.sketch_bins, params.exact_cap),
        }
    }

    /// Empty accumulators with this digest's identity and binning, the
    /// sketch in this digest's regime
    /// ([`QuantileSketch::empty_like`]): a partial to fold responses
    /// into and merge back into `self`, and nowhere else.
    pub fn empty_like(&self) -> StimulusDigest {
        StimulusDigest {
            name: self.name.clone(),
            uplt: Moments::new(),
            hist: self.hist.empty_like(),
            sketch: self.sketch.empty_like(),
        }
    }

    /// Fold one kept response (submitted UPLT, seconds).
    pub fn push(&mut self, uplt_secs: f64) {
        self.uplt.push(uplt_secs);
        self.hist.record(uplt_secs);
        self.sketch.push(uplt_secs);
    }

    /// Kept responses folded so far.
    pub fn retained(&self) -> u64 {
        self.sketch.count()
    }

    /// Fold another shard's accumulators for the *same* stimulus in.
    ///
    /// Errors (leaving the moments untouched too — the checks run
    /// before any state changes) when the stimulus names or the
    /// histogram/sketch construction parameters disagree; see
    /// [`MergeError`] and the module docs for who may `expect` this.
    pub fn merge(&mut self, other: &StimulusDigest) -> Result<(), MergeError> {
        if self.name != other.name {
            return Err(MergeError::StimulusName {
                left: self.name.clone(),
                right: other.name.clone(),
            });
        }
        // Validate both fallible merges up front so a failed merge
        // never leaves a half-merged digest behind.
        if !BinConfig::of_hist(&self.hist).bits_eq(&BinConfig::of_hist(&other.hist)) {
            return Err(MergeError::HistogramConfig {
                stimulus: self.name.clone(),
                left: BinConfig::of_hist(&self.hist),
                right: BinConfig::of_hist(&other.hist),
            });
        }
        if !BinConfig::of_sketch(&self.sketch).bits_eq(&BinConfig::of_sketch(&other.sketch)) {
            return Err(MergeError::SketchConfig {
                stimulus: self.name.clone(),
                left: BinConfig::of_sketch(&self.sketch),
                right: BinConfig::of_sketch(&other.sketch),
            });
        }
        self.uplt.merge(&other.uplt);
        // `bits_eq` above is the exact comparison these merges gate on,
        // so a refusal here is impossible; the asserts are a belt over
        // the `#[must_use]` bools, not a reachable panic path.
        // lint:allow(D7): bits_eq above makes a merge refusal unreachable
        assert!(self.hist.merge(&other.hist), "histogram merge after equal-config check");
        // lint:allow(D7): see above - merge cannot refuse after bits_eq
        assert!(self.sketch.merge(&other.sketch), "sketch merge after equal-config check");
        Ok(())
    }

    /// Bytes retained by this stimulus's accumulators (the scale
    /// bench's peak-RSS proxy). Bounded by the construction parameters,
    /// never by the response count.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<StimulusDigest>()
            + self.name.capacity()
            + std::mem::size_of_val(self.hist.counts())
            + self.sketch.retained_bytes()
    }

    /// Mean UPLT within a percentile band of this stimulus's responses
    /// (`None` band = plain mean). Exact — identical to
    /// `analysis::mean_uplt` — while the sketch holds the sample;
    /// beyond the cap the band edges come from the sketch (±1 bin
    /// width) and the mean is a bin-mass-weighted approximation.
    pub fn banded_mean(&self, band: Option<(f64, f64)>) -> Option<f64> {
        let Some((lo_pct, hi_pct)) = band else { return self.uplt.mean() };
        if let Some(values) = self.sketch.exact_values() {
            let kept = eyeorg_stats::percentile_band(values, lo_pct, hi_pct);
            if kept.is_empty() {
                return None;
            }
            let mut m = Moments::new();
            for v in kept {
                m.push(v);
            }
            return m.mean();
        }
        let lo = self.sketch.quantile(lo_pct)?;
        let hi = self.sketch.quantile(hi_pct)?;
        let (mut mass, mut weighted) = (0.0f64, 0.0f64);
        let width = self.hist.bin_width();
        for (i, &c) in self.hist.counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let center = self.hist.bin_center(i);
            if center + width / 2.0 < lo || center - width / 2.0 > hi {
                continue;
            }
            mass += f64::from(c);
            weighted += f64::from(c) * center;
        }
        (mass > 0.0).then(|| weighted / mass)
    }
}

/// Behaviour moments over every admitted participant (the unfiltered
/// view §4.2 analyses — the streaming counterpart of
/// `analysis::behavior_points`). Checkpoint behaviour lines serialize
/// it as-is, so its field names are part of checkpoint format v1.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct BehaviorDigest {
    /// Minutes on site (videos + instructions).
    pub minutes_on_site: Moments,
    /// Total play/pause/seek actions.
    pub actions: Moments,
    /// Total seconds out of focus.
    pub out_of_focus_secs: Moments,
    /// Largest single-video load time, seconds.
    pub max_video_load_secs: Moments,
}

impl BehaviorDigest {
    /// Fold one participant's aggregates in.
    pub fn push(&mut self, point: &crate::analysis::BehaviorPoint) {
        self.minutes_on_site.push(point.minutes_on_site);
        self.actions.push(f64::from(point.actions));
        self.out_of_focus_secs.push(point.out_of_focus_secs);
        self.max_video_load_secs.push(point.max_video_load_secs);
    }

    /// Fold another shard's moments in.
    pub fn merge(&mut self, other: &BehaviorDigest) {
        self.minutes_on_site.merge(&other.minutes_on_site);
        self.actions.merge(&other.actions);
        self.out_of_focus_secs.merge(&other.out_of_focus_secs);
        self.max_video_load_secs.merge(&other.max_video_load_secs);
    }
}

/// Control-question outcomes. Checkpoint totals lines serialize it
/// as-is, so its field names are part of checkpoint format v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ControlTally {
    /// Controls answered correctly.
    pub passed: u64,
    /// Controls failed.
    pub failed: u64,
}

impl ControlTally {
    /// Fold one outcome in.
    pub fn record(&mut self, passed: bool) {
        if passed {
            self.passed += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Fold another shard's tally in.
    pub fn merge(&mut self, other: &ControlTally) {
        self.passed += other.passed;
        self.failed += other.failed;
    }
}

/// Bounded-memory summary of a timeline campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDigest {
    /// Per-stimulus accumulators, in stimulus order.
    pub stimuli: Vec<StimulusDigest>,
    /// Participants the recruitment drive targeted.
    pub recruited: u64,
    /// Participants past the humanness gate.
    pub admitted: u64,
    /// Participants turned away at the gate.
    pub rejected: u64,
    /// Recruitment economics.
    pub recruitment_cost_usd: f64,
    /// Wall time to hit the recruitment target, seconds.
    pub recruitment_duration_secs: f64,
    /// Responses collected (non-skipped showings, kept or not).
    pub responses_collected: u64,
    /// Showings the participant skipped.
    pub responses_skipped: u64,
    /// Behaviour moments over every admitted participant.
    pub behavior: BehaviorDigest,
    /// §4.3 filter outcomes.
    pub filters: FilterTally,
    /// Control-question outcomes.
    pub controls: ControlTally,
}

impl TimelineDigest {
    /// Canonical rendering of the full accumulator state. Equal strings
    /// ⇔ bit-equal digests; this is what the equivalence tests and the
    /// scale bench's divergence gate compare.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// Crowd UPLT per stimulus (optionally band-filtered), the Fig. 7
    /// quantity. See [`StimulusDigest::banded_mean`] for exactness.
    pub fn mean_uplt(&self, band: Option<(f64, f64)>) -> Vec<Option<f64>> {
        self.stimuli.iter().map(|s| s.banded_mean(band)).collect()
    }

    /// Bytes retained by the whole digest — what one shard (and the
    /// final merge) holds instead of the materialized row set.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<TimelineDigest>()
            + self.stimuli.iter().map(StimulusDigest::retained_bytes).sum::<usize>()
    }
}

/// Bounded-memory summary of an A/B campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AbDigest {
    /// Per-stimulus vote tallies (kept participants only) plus
    /// presentation counts over all admitted participants.
    pub stimuli: Vec<AbStimulusDigest>,
    /// Participants the recruitment drive targeted.
    pub recruited: u64,
    /// Participants past the humanness gate.
    pub admitted: u64,
    /// Participants turned away at the gate.
    pub rejected: u64,
    /// Recruitment economics.
    pub recruitment_cost_usd: f64,
    /// Wall time to hit the recruitment target, seconds.
    pub recruitment_duration_secs: f64,
    /// Votes cast (non-skipped showings, kept or not).
    pub votes_cast: u64,
    /// Showings skipped.
    pub votes_skipped: u64,
    /// Behaviour moments over every admitted participant.
    pub behavior: BehaviorDigest,
    /// §4.3 filter outcomes.
    pub filters: FilterTally,
    /// Control-question outcomes.
    pub controls: ControlTally,
}

/// Per-stimulus A/B accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbStimulusDigest {
    /// Stimulus name.
    pub name: String,
    /// Vote tally over kept participants.
    pub tally: AbTally,
    /// Showings to admitted participants (kept or not).
    pub shows: u64,
    /// Of those, showings with A on the left.
    pub a_left_shows: u64,
}

impl AbStimulusDigest {
    /// Empty accumulators for one stimulus.
    pub fn new(name: &str) -> AbStimulusDigest {
        AbStimulusDigest { name: name.to_owned(), tally: AbTally::default(), shows: 0, a_left_shows: 0 }
    }

    /// Fold another shard's accumulators for the same stimulus in.
    ///
    /// Errors when the stimulus names disagree; see [`MergeError`] and
    /// the module docs for who may `expect` this.
    pub fn merge(&mut self, other: &AbStimulusDigest) -> Result<(), MergeError> {
        if self.name != other.name {
            return Err(MergeError::StimulusName {
                left: self.name.clone(),
                right: other.name.clone(),
            });
        }
        self.tally.merge(&other.tally);
        self.shows += other.shows;
        self.a_left_shows += other.a_left_shows;
        Ok(())
    }
}

impl AbDigest {
    /// Canonical rendering of the full accumulator state (see
    /// [`TimelineDigest::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// Vote tallies in stimulus order (the `analysis::ab_tallies`
    /// quantity).
    pub fn tallies(&self) -> Vec<AbTally> {
        self.stimuli.iter().map(|s| s.tally).collect()
    }
}

/// Fold a materialized timeline campaign (plus its filter report) into
/// a digest.
///
/// `recruited` is the original drive target (the campaign only retains
/// admitted participants). The caller must have produced `report` with
/// exactly one `filter_timeline` run over this campaign — the digest
/// does not re-run the filters, so the obs counter totals line up with
/// one streaming run of the same configuration.
pub fn digest_timeline(
    campaign: &TimelineCampaign,
    report: &FilterReport,
    recruited: usize,
    params: &DigestParams,
) -> TimelineDigest {
    let fold = fold_timeline(campaign, report, recruited, params);
    let (cost, secs) = (campaign.recruitment_cost_usd, campaign.recruitment_duration_secs);
    StimulusDigest::digest(fold, recruited as u64, cost, secs)
}

/// [`digest_timeline`] as the fold the digest is made of: what the
/// streaming reference merges shard by shard.
pub(crate) fn fold_timeline(
    campaign: &TimelineCampaign,
    report: &FilterReport,
    recruited: usize,
    params: &DigestParams,
) -> Fold<StimulusDigest> {
    let stimuli = campaign.stimuli_names.iter().zip(&campaign.videos);
    let stimuli =
        stimuli.map(|(name, v)| StimulusDigest::new(name, v.duration().as_secs_f64(), params));
    let mut fold = row_fold(stimuli.collect(), campaign, report, recruited);
    for row in &campaign.rows {
        match row.response {
            Some(resp) => {
                fold.answered += 1;
                if report.kept.contains(&row.participant) {
                    fold.stimuli[row.stimulus].push(resp.submitted.as_secs_f64());
                }
            }
            None => fold.skipped += 1,
        }
    }
    if eyeorg_obs::enabled() {
        // Mirror of `analysis::uplt_samples`: zero-adds still
        // materialise the label, so fully-filtered sites stay visible.
        for s in &fold.stimuli {
            eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(&s.name, s.retained());
        }
    }
    fold
}

/// Fold a materialized A/B campaign (plus its filter report) into a
/// digest. Same contract as [`digest_timeline`].
pub fn digest_ab(campaign: &AbCampaign, report: &FilterReport, recruited: usize) -> AbDigest {
    let stimuli = campaign.stimuli_names.iter().map(|n| AbStimulusDigest::new(n)).collect();
    let mut fold = row_fold(stimuli, campaign, report, recruited);
    for row in &campaign.rows {
        let s = &mut fold.stimuli[row.stimulus];
        s.shows += 1;
        if row.a_left {
            s.a_left_shows += 1;
        }
        match row.verdict {
            Some(v) => {
                fold.answered += 1;
                if report.kept.contains(&row.participant) {
                    s.tally.record(v);
                }
            }
            None => fold.skipped += 1,
        }
    }
    let (cost, secs) = (campaign.recruitment_cost_usd, campaign.recruitment_duration_secs);
    AbStimulusDigest::digest(fold, recruited as u64, cost, secs)
}

/// A fold of `stimuli` holding what both kinds' row digests fold
/// besides the answers: behaviour over every participant, the filter
/// and control outcomes, and the gate totals.
fn row_fold<A: ShardKind>(
    stimuli: Vec<A>,
    campaign: &impl Campaign,
    report: &FilterReport,
    recruited: usize,
) -> Fold<A> {
    let mut fold = Fold::empty(stimuli);
    for point in crate::analysis::behavior_points(campaign) {
        fold.behavior.push(&point);
    }
    for c in campaign.controls() {
        fold.controls.record(c.passed);
    }
    fold.filters = FilterTally::of_report(report);
    fold.admitted = campaign.participants().len() as u64;
    fold.rejected = recruited as u64 - fold.admitted;
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(k: usize) -> impl Iterator<Item = f64> {
        (0..k).map(|i| ((i * 7919) % 1000) as f64 / 100.0)
    }

    #[test]
    fn empty_like_partials_merge_like_direct_pushes() {
        let params = DigestParams { hist_bins: 16, sketch_bins: 32, exact_cap: 8 };
        let mut spilled = StimulusDigest::new("s", 10.0, &params);
        values(50).for_each(|v| spilled.push(v));
        assert!(!spilled.sketch.is_exact());
        for k in [0usize, 3, 8, 9, 200] {
            let mut partial = spilled.empty_like();
            let mut direct = spilled.clone();
            for v in values(k + 5).skip(5) {
                partial.push(v);
                direct.push(v);
            }
            let mut merged = spilled.clone();
            merged.merge(&partial).unwrap();
            assert_eq!(format!("{merged:?}"), format!("{direct:?}"), "k={k}");
        }
        // An exact digest's partial is a fresh digest.
        let mut exact = StimulusDigest::new("s", 10.0, &params);
        values(5).for_each(|v| exact.push(v));
        assert_eq!(exact.empty_like(), StimulusDigest::new("s", 10.0, &params));
    }
}
