//! Checkpoint/resume and multi-process merge for the sharded engines.
//!
//! A checkpoint is the full accumulator state of a campaign over a
//! participant index range `[range_lo, range_hi)` — every per-stimulus
//! digest, the behaviour moments, the filter/control tallies, the shard
//! totals, the adaptive driver's mask/decision state (timeline driver
//! checkpoints only), and the obs counter totals at the barrier —
//! serialized as versioned JSONL through the vendored serde shim, so
//! the format is hermetic and byte-stable. The contract is strict
//! **byte-identity**: `load(save(state))` reproduces the same digest
//! fingerprint and counter fingerprint as the uninterrupted run, at any
//! shard size and thread count (pinned by the `checkpoint_roundtrip`
//! tests and the `resume` and `merge3` cells of `campaign_golden`).
//!
//! One codec serves both test kinds. [`Checkpoint<A>`] holds the one
//! fold type (`stream::Fold`) over the kind's per-stimulus accumulator
//! `A` ([`StimulusDigest`] or [`AbStimulusDigest`]), and a small
//! crate-private trait on `A` supplies only what differs: the kind tag
//! and drive-line flag, the per-stimulus constructors and checked merge,
//! the totals and stimulus line shapes, the digest struct and the
//! answer counters. `save`, `load`, `merge`, `finalize`, the resume
//! state, the driver checkpoint and the worker body are written once;
//! [`TimelineCheckpoint`] and [`AbCheckpoint`] are the two instances.
//!
//! Three workflows build on that, all run by the one epoch driver
//! (`crate::adaptive`), whose loop state a driver checkpoint records:
//!
//! * **Resume** — [`checkpointed_timeline_campaign`] /
//!   [`checkpointed_ab_campaign`] consult an observer at every epoch
//!   barrier; a `false` return interrupts the run and hands back a
//!   checkpoint, and a later call with `resume` replays only the
//!   remaining index range, byte-identical to never stopping.
//! * **Multi-process merge** — [`timeline_worker_checkpoint`] /
//!   [`ab_worker_checkpoint`] fold a disjoint index range in an
//!   independent process; [`Checkpoint::merge`] stitches the written
//!   files back together (range-adjacency and admitted-index
//!   continuity checked), and `finalize` yields the single-run digest.
//! * **Live mode** — the timeline driver emits an incremental JSONL
//!   line per barrier ([`CheckpointEvent::Live`]) with per-stimulus
//!   UPLT percentile/CI read-outs; the final line equals the end-of-run
//!   digest's read-outs ([`live_line_from_digest`]).
//!
//! ## Format (version 1)
//!
//! One JSON object per line: header, totals, behaviour, `S` stimulus
//! lines, drive (timeline only), counters, end — `S + 6` lines for
//! timeline files, `S + 5` for A/B. The generic codec keeps version 1
//! byte for byte (golden files in `tests/fixtures/` pin it).
//!
//! The line schema is the in-memory types: the behaviour, stimulus and
//! counters lines serialize [`crate::digest::BehaviorDigest`],
//! [`StimulusDigest`] and [`CounterState`] as they are, and their
//! accumulators serialize as the `eyeorg_stats` state types
//! ([`eyeorg_stats::MomentsState`], [`eyeorg_stats::HistogramState`],
//! [`eyeorg_stats::QuantileSketchState`]). Floats are carried as
//! `f64::to_bits()` integers (canonical — `±inf` sentinels and `-0.0`
//! round-trip exactly), the `Moments` fixed-point sums as decimal
//! strings ([`eyeorg_stats::DecimalI128`]). Only the header, the two
//! totals lines, the A/B stimulus line, the drive line and the end line
//! have shapes of their own.
//!
//! The header pins the [`DigestParams`] the accumulators were built
//! with (all zero for A/B, which has no histogram or sketch); loading
//! validates every per-stimulus state against it. The totals line must
//! satisfy `admitted + rejected + pruned == range_hi - range_lo` (A/B
//! files have no `pruned`: 0), since every participant index in the
//! range is exactly one of the three, and a drive line may count at
//! most `range_hi` epochs, since each advances at least one index.
//! See DESIGN.md §3i.
//!
//! ## Error discipline
//!
//! Checkpoint bytes are **untrusted input**: every malformed,
//! truncated, or inconsistent file surfaces as a typed
//! [`CheckpointError`] — never a panic. The loader walks the lines with
//! an iterator (no indexing), checks the totals invariant in checked
//! arithmetic, rebuilds accumulators through the validating
//! `from_state` constructors of `eyeorg_stats` (their `Deserialize`
//! impls go through nothing else), and cross-checkpoint
//! merges go through the fallible [`MergeError`]-returning digest
//! merges. Resume additionally **probe-merges** the loaded state
//! against a freshly constructed accumulator before the run starts, so
//! the engine-internal infallible shard merges stay unreachable from
//! disk.
//!
//! ## Obs counter contract
//!
//! Checkpoints record the **absolute** registry totals at the barrier
//! ([`CounterState`]). A resuming (or merging) process must
//! `eyeorg_obs::reset()` before the run; the driver then restores the
//! recorded totals, the continuation adds its own, and the final
//! snapshot's `counter_fingerprint` equals the uninterrupted run's.
//! Worker processes likewise reset first, so a worker checkpoint's
//! counters are exactly its range's contribution (counter totals are
//! sums over folds, hence partition-independent).

use std::collections::BTreeMap;

use eyeorg_crowd::RecruitmentService;
use eyeorg_obs::HistogramSnapshot;
use eyeorg_stats::Seed;
use serde::{Deserialize, Serialize};

use crate::adaptive::{
    self, drive_resumable, stop_at_barrier, AdaptiveBackend, AdaptiveOutcome, DriveState,
    StopCause, StopDecision, StopState, ADAPTIVE_Z,
};
use crate::analysis::AbTally;
use crate::digest::{
    AbDigest, AbStimulusDigest, ControlTally, DigestParams, MergeError, StimulusDigest,
    TimelineDigest,
};
use crate::experiment::{
    campaign_defect, AbStimulus, AdaptiveConfig, ExperimentConfig, TimelineStimulus,
};
use crate::filtering::{FilterTally, ParticipantFilter};
use crate::flat::{AbKernel, AbPlane, Kernel, Plane, TlKernel, TlPlane};
use crate::stream::{Fold, StreamConfig};

/// Checkpoint format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u64 = 1;

const FORMAT_TAG: &str = "eyeorg-checkpoint";

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why checkpoint bytes were rejected, or why two checkpoints refused
/// to combine. Every variant is reachable from untrusted input, so the
/// loader returns these instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// A line was not the JSON object the format expects.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parser/deserializer message.
        detail: String,
    },
    /// The document structure disagrees with the format contract.
    Format {
        /// 1-based line number.
        line: usize,
        /// What disagreed.
        detail: String,
    },
    /// The file was written by an unsupported format version.
    Version {
        /// Version in the file.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The file ends before the header's announced line count.
    Truncated {
        /// Lines the header announced.
        expected: usize,
        /// Lines actually present.
        found: usize,
    },
    /// A stimulus's accumulators were built under other parameters
    /// than the header pins. (A state that fails its `from_state`
    /// validation is a [`CheckpointError::Parse`].)
    State {
        /// 1-based line number.
        line: usize,
        /// The validator's message.
        detail: String,
    },
    /// Two accumulators refused to merge (identity/config mismatch).
    Merge(MergeError),
    /// The checkpoint was built under different [`DigestParams`] than
    /// the run (or the sibling checkpoint) it is combined with.
    ParamsMismatch {
        /// Both sides' parameters.
        detail: String,
    },
    /// Merged ranges are not adjacent: the right side does not start
    /// where the left side ends.
    RangeGap {
        /// Left side's `range_hi`.
        left_hi: u64,
        /// Right side's `range_lo`.
        right_lo: u64,
    },
    /// The right side's admitted-index base disagrees with the left
    /// side's admission count — the pieces come from different
    /// campaigns (seed/config) or a worker lied about its base.
    AdmittedGap {
        /// Admitted base the left side implies.
        expected: u64,
        /// Admitted base the right side recorded.
        found: u64,
    },
    /// A finalize/resume was attempted on a checkpoint that does not
    /// start at participant index 0.
    PartialRange {
        /// The checkpoint's `range_lo`.
        lo: u64,
    },
    /// The checkpoint is structurally valid but unusable in this role.
    Config {
        /// What disqualified it.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse { line, detail } => {
                write!(f, "checkpoint line {line}: parse error: {detail}")
            }
            CheckpointError::Format { line, detail } => {
                write!(f, "checkpoint line {line}: {detail}")
            }
            CheckpointError::Version { found, supported } => {
                write!(f, "checkpoint version {found} unsupported (this build reads {supported})")
            }
            CheckpointError::Truncated { expected, found } => {
                write!(f, "checkpoint truncated: header announces {expected} lines, found {found}")
            }
            CheckpointError::State { line, detail } => {
                write!(f, "checkpoint line {line}: invalid accumulator state: {detail}")
            }
            CheckpointError::Merge(e) => write!(f, "checkpoint merge: {e}"),
            CheckpointError::ParamsMismatch { detail } => {
                write!(f, "checkpoint digest-params mismatch: {detail}")
            }
            CheckpointError::RangeGap { left_hi, right_lo } => {
                write!(f, "checkpoint ranges not adjacent: [..{left_hi}) then [{right_lo}..)")
            }
            CheckpointError::AdmittedGap { expected, found } => write!(
                f,
                "admitted-index discontinuity: left side implies base {expected}, right side \
                 recorded {found}"
            ),
            CheckpointError::PartialRange { lo } => {
                write!(f, "checkpoint starts at participant {lo}, not 0; merge the earlier ranges first")
            }
            CheckpointError::Config { detail } => write!(f, "checkpoint unusable: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<MergeError> for CheckpointError {
    fn from(e: MergeError) -> CheckpointError {
        CheckpointError::Merge(e)
    }
}

// ---------------------------------------------------------------------
// Line structs (the on-disk schema, version 1)
// ---------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct HeaderLine {
    format: String,
    version: u64,
    kind: String,
    hist_bins: usize,
    sketch_bins: usize,
    exact_cap: usize,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    stimuli: usize,
    lines: usize,
}

/// The timeline totals line; the A/B line converts to and from it.
#[derive(Serialize, Deserialize)]
struct TotalsLine {
    admitted: u64,
    rejected: u64,
    #[serde(rename = "collected")]
    answered: u64,
    skipped: u64,
    pruned: u64,
    filters: FilterTally,
    controls: ControlTally,
}

/// The A/B totals line: no `pruned` (A/B runs are all-live).
#[derive(Serialize, Deserialize)]
struct AbTotalsLine {
    admitted: u64,
    rejected: u64,
    #[serde(rename = "cast")]
    answered: u64,
    skipped: u64,
    filters: FilterTally,
    controls: ControlTally,
}

#[derive(Serialize, Deserialize)]
struct AbStimulusLine {
    name: String,
    a: u32,
    b: u32,
    nd: u32,
    shows: u64,
    a_left_shows: u64,
}

#[derive(Serialize, Deserialize)]
struct DecisionLine {
    epoch: u64,
    stimulus: usize,
    name: String,
    retained: u64,
    half_width: u64,
    cause: StopCause,
}

#[derive(Serialize, Deserialize)]
struct AdaptiveLine {
    live: Vec<bool>,
    epochs: u64,
    stopped_at: Vec<Option<u64>>,
    decisions: Vec<DecisionLine>,
}

#[derive(Serialize, Deserialize)]
struct DriveLine {
    adaptive: Option<AdaptiveLine>,
}

#[derive(Serialize, Deserialize)]
struct EndLine {
    end: String,
}

/// Compact one-line JSON of a line struct. The vendored writer is
/// total (non-finite floats never occur here: every float is carried
/// as `to_bits()` integers), so the `Result` is vacuous.
fn json_line<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

/// Append `v` as one JSONL line.
fn put<T: Serialize>(out: &mut String, v: &T) {
    out.push_str(&json_line(v));
    out.push('\n');
}

fn parse_line<T: Deserialize>(s: &str, line: usize) -> Result<T, CheckpointError> {
    serde_json::from_str::<T>(s)
        .map_err(|e| CheckpointError::Parse { line, detail: e.to_string() })
}

/// `f`'s counts as a totals line.
fn totals_of<A>(f: &Fold<A>) -> TotalsLine {
    let (admitted, rejected, answered) = (f.admitted, f.rejected, f.answered);
    let (skipped, pruned, filters, controls) = (f.skipped, f.pruned, f.filters, f.controls);
    TotalsLine { admitted, rejected, answered, skipped, pruned, filters, controls }
}

/// A fold of `t`'s counts and behaviour line 3, with room for `n`
/// stimuli and none pushed yet. A literal, not `Fold::fresh`: the loader
/// must not reach the constructors, which the D7 call graph resolves by
/// name.
fn fold_of<A>(t: TotalsLine, behavior: &str, n: usize) -> Result<Fold<A>, CheckpointError> {
    let TotalsLine { admitted, rejected, answered, skipped, pruned, filters, controls } = t;
    let (stimuli, behavior) = (Vec::with_capacity(n), parse_line(behavior, 3)?);
    Ok(Fold { stimuli, behavior, filters, controls, admitted, rejected, answered, skipped, pruned })
}

// ---------------------------------------------------------------------
// Counter state
// ---------------------------------------------------------------------

/// The deterministic sections of an obs snapshot (counters, labeled
/// counters, histograms) as plain maps — what a checkpoint records and
/// what `eyeorg_obs::restore` re-applies on resume. See the module
/// docs for the reset/restore contract. Checkpoint counters lines
/// serialize it as-is, so its field names are part of checkpoint format
/// v1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterState {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Labeled-counter totals by name then label.
    pub labeled: BTreeMap<String, BTreeMap<String, u64>>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl CounterState {
    /// Snapshot the live registry's deterministic sections.
    pub fn capture(threads: usize) -> CounterState {
        let r = eyeorg_obs::snapshot("checkpoint", threads);
        CounterState { counters: r.counters, labeled: r.labeled, histograms: r.histograms }
    }

    /// Re-apply these totals onto the live registry (additive; no-op
    /// when obs is disabled).
    pub fn restore(&self) {
        eyeorg_obs::restore(&self.counters, &self.labeled, &self.histograms);
    }

    /// Sum another process's totals in. Saturating: the inputs are
    /// untrusted file contents, and a forged near-`u64::MAX` total must
    /// not abort a debug build.
    fn merge_from(&mut self, other: &CounterState) {
        for (k, &v) in &other.counters {
            let e = self.counters.entry(k.clone()).or_insert(0);
            *e = e.saturating_add(v);
        }
        for (k, cells) in &other.labeled {
            let mine = self.labeled.entry(k.clone()).or_default();
            for (label, &v) in cells {
                let e = mine.entry(label.clone()).or_insert(0);
                *e = e.saturating_add(v);
            }
        }
        for (k, snap) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), snap.clone());
                }
                Some(mine) => {
                    mine.count = mine.count.saturating_add(snap.count);
                    mine.sum = mine.sum.saturating_add(snap.sum);
                    let mut buckets: BTreeMap<usize, u64> = mine.buckets.iter().copied().collect();
                    for &(k, n) in &snap.buckets {
                        let e = buckets.entry(k).or_insert(0);
                        *e = e.saturating_add(n);
                    }
                    mine.buckets = buckets.into_iter().collect();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The kind trait
// ---------------------------------------------------------------------

pub(crate) use kind::ShardKind;

/// The trait lives in a private module, nominally `pub`, so the public
/// [`Checkpoint`] methods can be bounded by it without it becoming
/// reachable from outside the crate.
mod kind {
    use super::*;

    /// What a test kind's per-stimulus accumulator supplies to the one
    /// fold type ([`Fold`]) and the one checkpoint codec: only what
    /// differs between the kinds.
    pub trait ShardKind: Clone + std::fmt::Debug + Send + Sync + Sized {
        /// The header's `kind` tag.
        const TAG: &'static str;
        /// Whether files carry a drive line (adaptive driver state).
        const DRIVE_LINE: bool;
        /// What a campaign of this kind shows.
        type Stimulus;
        /// The finished campaign's digest.
        type Digest;
        /// The [`DigestParams`] a checkpoint records for accumulators
        /// built under `p`.
        fn params(p: DigestParams) -> DigestParams;
        /// An empty accumulator for stimulus `st`.
        fn new(st: &Self::Stimulus, params: &DigestParams) -> Self;
        /// An empty partial of this accumulator, in its regime, to fold
        /// into and merge back into it.
        fn empty_like(&self) -> Self;
        /// Fold another shard's accumulator for the same stimulus in,
        /// checking identity and configuration first.
        fn merge(&mut self, other: &Self) -> Result<(), MergeError>;
        /// Append `fold`'s totals line.
        fn put_totals(fold: &Fold<Self>, out: &mut String);
        /// Decode totals line 2 and behaviour line 3 into a fold with
        /// room for `n` stimuli and none pushed yet.
        fn of_head(totals: &str, behavior: &str, n: usize) -> Result<Fold<Self>, CheckpointError>;
        /// Append this accumulator's stimulus line.
        fn put_line(&self, out: &mut String);
        /// Decode stimulus line `ln`, built under the header's `params`.
        fn of_line(line: &str, ln: usize, params: &DigestParams) -> Result<Self, CheckpointError>;
        /// The digest of `fold` as a run of `recruited` participants that
        /// cost `cost_usd` and took `secs` seconds to recruit.
        fn digest(fold: Fold<Self>, recruited: u64, cost_usd: f64, secs: f64) -> Self::Digest;
        /// Bump this kind's answer counters from `fold`'s totals.
        fn bump_counters(fold: &Fold<Self>);
    }
}

impl ShardKind for StimulusDigest {
    const TAG: &'static str = "timeline";
    const DRIVE_LINE: bool = true;
    type Stimulus = TimelineStimulus;
    type Digest = TimelineDigest;

    fn params(p: DigestParams) -> DigestParams {
        p
    }

    fn new(st: &TimelineStimulus, params: &DigestParams) -> StimulusDigest {
        StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params)
    }

    fn empty_like(&self) -> StimulusDigest {
        StimulusDigest::empty_like(self)
    }

    fn merge(&mut self, other: &StimulusDigest) -> Result<(), MergeError> {
        StimulusDigest::merge(self, other)
    }

    fn put_totals(f: &Fold<StimulusDigest>, out: &mut String) {
        put(out, &totals_of(f));
    }

    fn of_head(totals: &str, behavior: &str, n: usize) -> Result<Fold<Self>, CheckpointError> {
        fold_of(parse_line(totals, 2)?, behavior, n)
    }

    fn put_line(&self, out: &mut String) {
        put(out, self);
    }

    fn of_line(line: &str, ln: usize, params: &DigestParams) -> Result<Self, CheckpointError> {
        let s: StimulusDigest = parse_line(line, ln)?;
        let built = DigestParams {
            hist_bins: s.hist.counts().len(),
            sketch_bins: s.sketch.bins(),
            exact_cap: s.sketch.exact_cap(),
        };
        if built != *params {
            let detail = format!("accumulators built under {built:?}, header pins {params:?}");
            return Err(CheckpointError::State { line: ln, detail });
        }
        Ok(s)
    }

    fn digest(f: Fold<StimulusDigest>, recruited: u64, cost: f64, secs: f64) -> TimelineDigest {
        TimelineDigest {
            stimuli: f.stimuli,
            recruited,
            admitted: f.admitted,
            rejected: f.rejected,
            recruitment_cost_usd: cost,
            recruitment_duration_secs: secs,
            responses_collected: f.answered,
            responses_skipped: f.skipped,
            behavior: f.behavior,
            filters: f.filters,
            controls: f.controls,
        }
    }

    fn bump_counters(f: &Fold<StimulusDigest>) {
        eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(f.answered);
        eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(f.skipped);
        if eyeorg_obs::enabled() {
            // Zero-adds materialise the per-site label, mirroring the
            // materializing path (`digest_timeline`).
            for s in &f.stimuli {
                eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(&s.name, s.retained());
            }
        }
    }
}

impl ShardKind for AbStimulusDigest {
    const TAG: &'static str = "ab";
    const DRIVE_LINE: bool = false;
    type Stimulus = AbStimulus;
    type Digest = AbDigest;

    /// A/B digests carry no histogram/sketch accumulators.
    fn params(_: DigestParams) -> DigestParams {
        DigestParams { hist_bins: 0, sketch_bins: 0, exact_cap: 0 }
    }

    fn new(st: &AbStimulus, _: &DigestParams) -> AbStimulusDigest {
        AbStimulusDigest::new(&st.name)
    }

    fn empty_like(&self) -> AbStimulusDigest {
        AbStimulusDigest::new(&self.name)
    }

    fn merge(&mut self, other: &AbStimulusDigest) -> Result<(), MergeError> {
        AbStimulusDigest::merge(self, other)
    }

    fn put_totals(f: &Fold<AbStimulusDigest>, out: &mut String) {
        let TotalsLine { admitted, rejected, answered, skipped, filters, controls, .. } =
            totals_of(f);
        put(out, &AbTotalsLine { admitted, rejected, answered, skipped, filters, controls });
    }

    fn of_head(totals: &str, behavior: &str, n: usize) -> Result<Fold<Self>, CheckpointError> {
        let AbTotalsLine { admitted, rejected, answered, skipped, filters, controls } =
            parse_line(totals, 2)?;
        let t = TotalsLine { admitted, rejected, answered, skipped, pruned: 0, filters, controls };
        fold_of(t, behavior, n)
    }

    fn put_line(&self, out: &mut String) {
        let (a, b, nd) = (self.tally.a, self.tally.b, self.tally.nd);
        let (shows, a_left_shows) = (self.shows, self.a_left_shows);
        put(out, &AbStimulusLine { name: self.name.clone(), a, b, nd, shows, a_left_shows });
    }

    fn of_line(line: &str, ln: usize, _: &DigestParams) -> Result<Self, CheckpointError> {
        let AbStimulusLine { name, a, b, nd, shows, a_left_shows } = parse_line(line, ln)?;
        Ok(AbStimulusDigest { name, tally: AbTally { a, b, nd }, shows, a_left_shows })
    }

    fn digest(f: Fold<AbStimulusDigest>, recruited: u64, cost: f64, secs: f64) -> AbDigest {
        AbDigest {
            stimuli: f.stimuli,
            recruited,
            admitted: f.admitted,
            rejected: f.rejected,
            recruitment_cost_usd: cost,
            recruitment_duration_secs: secs,
            votes_cast: f.answered,
            votes_skipped: f.skipped,
            behavior: f.behavior,
            filters: f.filters,
            controls: f.controls,
        }
    }

    fn bump_counters(f: &Fold<AbStimulusDigest>) {
        eyeorg_obs::metrics::CORE_AB_VOTES.add(f.answered);
        eyeorg_obs::metrics::CORE_AB_SKIPS.add(f.skipped);
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// A campaign's accumulator state over `[range_lo, range_hi)`, for
/// either test kind ([`TimelineCheckpoint`], [`AbCheckpoint`]).
///
/// Two flavours share the type: **driver** checkpoints (`range_lo = 0`
/// — what the checkpointed drivers emit and resume from; timeline ones
/// carry the adaptive drive state) and **worker** checkpoints (any
/// range — what the worker entry points emit and
/// [`merge`](Checkpoint::merge) stitches together). A/B runs have no
/// adaptive driver, so every A/B checkpoint is both resumable and
/// mergeable; timeline driver checkpoints only resume.
#[derive(Debug)]
pub struct Checkpoint<A> {
    params: DigestParams,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    acc: Fold<A>,
    drive: Option<StopState>,
    counters: CounterState,
}

/// A timeline campaign's checkpoint.
pub type TimelineCheckpoint = Checkpoint<StimulusDigest>;

/// An A/B campaign's checkpoint.
pub type AbCheckpoint = Checkpoint<AbStimulusDigest>;

fn adaptive_line(d: &StopState) -> AdaptiveLine {
    AdaptiveLine {
        live: d.live.clone(),
        epochs: d.epochs,
        stopped_at: d.stopped_at.clone(),
        decisions: d
            .decisions
            .iter()
            .map(|dec| DecisionLine {
                epoch: dec.epoch,
                stimulus: dec.stimulus,
                name: dec.name.clone(),
                retained: dec.retained,
                half_width: dec.half_width.to_bits(),
                cause: dec.cause,
            })
            .collect(),
    }
}

fn drive_of(
    a: AdaptiveLine,
    n_stimuli: usize,
    range_hi: u64,
    line: usize,
) -> Result<StopState, CheckpointError> {
    // Every epoch advances at least one participant index, so a real
    // drive never counts more barriers than the range holds (and a
    // forged count cannot overflow the resumed loop's epoch counter).
    if a.epochs > range_hi {
        return Err(CheckpointError::Format {
            line,
            detail: format!("drive state counts {} epochs over {range_hi} participants", a.epochs),
        });
    }
    if a.live.len() != n_stimuli || a.stopped_at.len() != n_stimuli {
        return Err(CheckpointError::Format {
            line,
            detail: format!(
                "drive state sized for {} stimuli, header has {n_stimuli}",
                a.live.len().max(a.stopped_at.len())
            ),
        });
    }
    let mut decisions = Vec::with_capacity(a.decisions.len());
    for d in a.decisions {
        if d.stimulus >= n_stimuli {
            return Err(CheckpointError::Format {
                line,
                detail: format!("decision names stimulus {} of {n_stimuli}", d.stimulus),
            });
        }
        decisions.push(StopDecision {
            epoch: d.epoch,
            stimulus: d.stimulus,
            name: d.name,
            retained: d.retained,
            half_width: f64::from_bits(d.half_width),
            cause: d.cause,
        });
    }
    Ok(StopState { live: a.live, epochs: a.epochs, stopped_at: a.stopped_at, decisions })
}

impl<A: ShardKind> Checkpoint<A> {
    /// Lines besides the stimulus lines: header, totals, behaviour,
    /// (drive,) counters, end.
    const FIXED_LINES: usize = 5 + A::DRIVE_LINE as usize;

    /// The index range `[lo, hi)` this checkpoint covers.
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_hi)
    }

    /// The [`DigestParams`] the accumulators were built under (all zero
    /// for A/B checkpoints).
    pub fn params(&self) -> DigestParams {
        self.params
    }

    /// Gate admissions in `[0, range_lo)` — the admitted-index base a
    /// worker range folded under (0 for driver checkpoints).
    pub fn admitted_before(&self) -> u64 {
        self.admitted_before
    }

    /// Whether this checkpoint can seed a resume: timeline ones need
    /// the drive state only driver checkpoints carry; every A/B one can.
    pub fn is_resumable(&self) -> bool {
        !A::DRIVE_LINE || self.drive.is_some()
    }

    /// Re-apply the recorded obs totals (see the module-docs contract).
    pub fn restore_counters(&self) {
        self.counters.restore();
    }

    /// Serialize to the versioned JSONL format (ends with a newline).
    pub fn save(&self) -> String {
        let mut body = String::new();
        A::put_totals(&self.acc, &mut body);
        put(&mut body, &self.acc.behavior);
        for s in &self.acc.stimuli {
            s.put_line(&mut body);
        }
        let n_stim = self.acc.stimuli.len();
        if A::DRIVE_LINE {
            put(&mut body, &DriveLine { adaptive: self.drive.as_ref().map(adaptive_line) });
        }
        put(&mut body, &self.counters);
        put(&mut body, &EndLine { end: FORMAT_TAG.to_string() });
        let mut out = String::new();
        put(
            &mut out,
            &HeaderLine {
                format: FORMAT_TAG.to_string(),
                version: CHECKPOINT_VERSION,
                kind: A::TAG.to_string(),
                hist_bins: self.params.hist_bins,
                sketch_bins: self.params.sketch_bins,
                exact_cap: self.params.exact_cap,
                range_lo: self.range_lo,
                range_hi: self.range_hi,
                admitted_before: self.admitted_before,
                stimuli: n_stim,
                lines: n_stim + Self::FIXED_LINES,
            },
        );
        out.push_str(&body);
        out
    }

    /// Parse and validate a serialized checkpoint of this kind.
    /// `load(save(state))` is bit-identical to `state`; any malformed
    /// input comes back as a typed [`CheckpointError`], never a panic.
    // lint:entrypoint(untrusted)
    pub fn load(text: &str) -> Result<Checkpoint<A>, CheckpointError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let found = lines.clone().count();
        let h: HeaderLine =
            parse_line(lines.next().ok_or(CheckpointError::Truncated { expected: 1, found })?, 1)?;
        let header_err = |detail: String| CheckpointError::Format { line: 1, detail };
        if h.format != FORMAT_TAG {
            return Err(header_err(format!("not a checkpoint file (format {:?})", h.format)));
        }
        if h.version != CHECKPOINT_VERSION {
            let supported = CHECKPOINT_VERSION;
            return Err(CheckpointError::Version { found: h.version, supported });
        }
        if h.kind != A::TAG {
            let found = &h.kind;
            return Err(header_err(format!("expected a {:?} checkpoint, found {found:?}", A::TAG)));
        }
        let expected = h.stimuli.saturating_add(Self::FIXED_LINES);
        if h.lines != expected {
            return Err(header_err(format!(
                "header announces {} lines but {} stimuli imply {expected}",
                h.lines, h.stimuli
            )));
        }
        if found < expected {
            return Err(CheckpointError::Truncated { expected, found });
        }
        if found > expected {
            return Err(CheckpointError::Format {
                line: expected + 1,
                detail: "trailing data after the end line".to_string(),
            });
        }
        if h.range_lo > h.range_hi {
            return Err(header_err(format!("inverted range [{}, {})", h.range_lo, h.range_hi)));
        }
        let params = DigestParams {
            hist_bins: h.hist_bins,
            sketch_bins: h.sketch_bins,
            exact_cap: h.exact_cap,
        };

        // Every remaining line, numbered from 2. The count check above
        // bounds `h.stimuli` (and the allocations it sizes) by the
        // lines present and means `next` cannot run dry; it stays a
        // typed error all the same.
        let mut rest = lines.zip(2usize..);
        let mut next = || rest.next().ok_or(CheckpointError::Truncated { expected, found });
        let (totals, _) = next()?;
        let (behavior, _) = next()?;
        let mut acc = A::of_head(totals, behavior, h.stimuli)?;
        let (admitted, rejected, pruned) = (acc.admitted, acc.rejected, acc.pruned);
        let span = h.range_hi - h.range_lo;
        if admitted.checked_add(rejected).and_then(|n| n.checked_add(pruned)) != Some(span) {
            return Err(CheckpointError::Format {
                line: 2,
                detail: format!(
                    "totals admit {admitted}, reject {rejected}, and prune {pruned} participants; \
                     the range holds {span}"
                ),
            });
        }
        for _ in 0..h.stimuli {
            let (line, ln) = next()?;
            acc.stimuli.push(A::of_line(line, ln, &params)?);
        }
        let mut drive = None;
        if A::DRIVE_LINE {
            let (line, ln) = next()?;
            let dl: DriveLine = parse_line(line, ln)?;
            drive = dl.adaptive.map(|a| drive_of(a, h.stimuli, h.range_hi, ln)).transpose()?;
        }
        let (line, ln) = next()?;
        let counters: CounterState = parse_line(line, ln)?;
        let (line, ln) = next()?;
        if parse_line::<EndLine>(line, ln)?.end != FORMAT_TAG {
            return Err(CheckpointError::Format { line: ln, detail: "bad end marker".to_string() });
        }
        Ok(Checkpoint {
            params,
            range_lo: h.range_lo,
            range_hi: h.range_hi,
            admitted_before: h.admitted_before,
            acc,
            drive,
            counters,
        })
    }

    /// Append an adjacent worker checkpoint's range. Checks digest
    /// params, range adjacency, admitted-index continuity, and every
    /// per-stimulus identity/config before mutating, so a failed merge
    /// leaves `self` unchanged. Timeline driver checkpoints refuse to
    /// merge (their drive state is not rangewise-composable).
    // lint:entrypoint(untrusted)
    pub fn merge(&mut self, other: &Checkpoint<A>) -> Result<(), CheckpointError> {
        if self.drive.is_some() || other.drive.is_some() {
            return Err(CheckpointError::Config {
                detail: "driver checkpoints cannot be merged; merge worker checkpoints and \
                         resume drivers"
                    .to_string(),
            });
        }
        if self.params != other.params {
            return Err(CheckpointError::ParamsMismatch {
                detail: format!("{:?} vs {:?}", self.params, other.params),
            });
        }
        if other.range_lo != self.range_hi {
            return Err(CheckpointError::RangeGap {
                left_hi: self.range_hi,
                right_lo: other.range_lo,
            });
        }
        // Pruned participants consumed an admitted index unserved.
        let (admitted, pruned) = (self.acc.admitted, self.acc.pruned);
        let expected = self.admitted_before.saturating_add(admitted).saturating_add(pruned);
        if other.admitted_before != expected {
            return Err(CheckpointError::AdmittedGap { expected, found: other.admitted_before });
        }
        // Merge into a clone and commit only on full success, so a
        // mid-way config mismatch cannot leave a half-merged state.
        let mut acc = self.acc.clone();
        acc.merge_checked(&other.acc)?;
        self.acc = acc;
        self.counters.merge_from(&other.counters);
        self.range_hi = other.range_hi;
        Ok(())
    }

    /// Produce the final digest of a complete (`range_lo = 0`)
    /// checkpoint — byte-identical to the digest the uninterrupted
    /// single-process run of `range_hi` participants returns. The
    /// accumulator is merged into a fresh fold for `stimuli` first,
    /// which checks the untrusted bytes against the run's stimuli.
    pub fn finalize(
        &self,
        stimuli: &[A::Stimulus],
        service: &dyn RecruitmentService,
    ) -> Result<A::Digest, CheckpointError> {
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        let mut acc = Fold::fresh(stimuli, &self.params);
        acc.merge_checked(&self.acc)?;
        Ok(acc.into_digest(service, self.range_hi as usize))
    }

    /// The drive state a resumed run of `budget` participants continues
    /// from, after restoring the recorded obs totals. Probe-merging the
    /// untrusted accumulator into a fresh one runs the full fallible
    /// identity/config checks, after which the run's infallible shard
    /// merges are unreachable from disk. (A loaded drive state is sized
    /// to the file's stimuli, which the probe pins to the run's.)
    fn resume(
        &self,
        stimuli: &[A::Stimulus],
        budget: usize,
        params: &DigestParams,
    ) -> Result<DriveState<A>, CheckpointError> {
        let params = A::params(*params);
        if self.params != params {
            return Err(CheckpointError::ParamsMismatch {
                detail: format!("checkpoint {:?} vs run {params:?}", self.params),
            });
        }
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        if self.range_hi > budget as u64 {
            return Err(CheckpointError::Config {
                detail: format!(
                    "checkpoint covers {} participants, budget is {budget}",
                    self.range_hi
                ),
            });
        }
        Fold::fresh(stimuli, &params).merge_checked(&self.acc)?;
        if !self.is_resumable() {
            return Err(CheckpointError::Config {
                detail: "a worker checkpoint cannot seed a resume (no drive state)".to_string(),
            });
        }
        self.restore_counters();
        // Gate admissions over [0, processed): pruned participants
        // consumed an admitted index without being served.
        Ok(DriveState {
            acc: self.acc.clone(),
            admitted: self.acc.admitted + self.acc.pruned,
            processed: self.range_hi as usize,
            stop: self.drive.clone().unwrap_or_else(|| StopState::fresh(stimuli.len())),
        })
    }

    /// A driver checkpoint of the epoch loop's state, with the live obs
    /// totals (and, for timeline ones, the stop state).
    fn of_drive(params: DigestParams, st: &DriveState<A>, threads: usize) -> Checkpoint<A> {
        Checkpoint {
            params: A::params(params),
            range_lo: 0,
            range_hi: st.processed as u64,
            admitted_before: 0,
            acc: st.acc.clone(),
            drive: A::DRIVE_LINE.then(|| st.stop.clone()),
            counters: CounterState::capture(threads),
        }
    }
}

/// The campaign preconditions the one-shot engines assert, as the
/// typed error every `Result`-returning entry point reports.
fn check_campaign(n_stimuli: usize, cfg: &ExperimentConfig) -> Result<(), CheckpointError> {
    match campaign_defect(n_stimuli, cfg) {
        Some(why) => Err(CheckpointError::Config { detail: why.to_string() }),
        None => Ok(()),
    }
}

/// The shared body of both worker entry points: validate the range,
/// recompute its admitted-index base from the seed (the same pre-pass
/// every epoch runs), drive one all-live epoch over `[lo, hi)`, and
/// wrap the fold with this process's counter totals.
#[allow(clippy::too_many_arguments)] // the worker entry points' shared arguments
fn worker_checkpoint<P: Plane>(
    stimuli: &[P::Stimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<Checkpoint<P::Acc>, CheckpointError> {
    check_campaign(stimuli.len(), cfg)?;
    if lo > hi {
        return Err(CheckpointError::Config {
            detail: format!("inverted worker range [{lo}, {hi})"),
        });
    }
    let _t = eyeorg_obs::phase_timer("core.worker_checkpoint");
    let kernel = Kernel::<P>::new(stimuli, service, cfg, filters, seed, sc);
    let admitted_before = kernel.admitted_before(lo);
    let params = P::Acc::params(sc.params);
    let fresh = DriveState::fresh(stimuli, &params);
    let start = DriveState { processed: lo, admitted: admitted_before, ..fresh };
    let (st, _) = drive_resumable(&kernel, hi, hi - lo, start, &mut |_| true);
    Ok(Checkpoint {
        params,
        range_lo: lo as u64,
        range_hi: hi as u64,
        admitted_before,
        acc: st.acc,
        drive: None,
        counters: CounterState::capture(kernel.threads),
    })
}

// ---------------------------------------------------------------------
// Live mode
// ---------------------------------------------------------------------

/// One live-mode JSONL line.
#[derive(Serialize)]
struct LiveLine {
    processed: u64,
    budget: u64,
    #[serde(rename = "final")]
    is_final: bool,
    admitted: u64,
    collected: u64,
    skipped: u64,
    kept: u64,
    stimuli: Vec<LiveStimulus>,
}

/// One stimulus's read-outs on a [`LiveLine`].
#[derive(Serialize)]
struct LiveStimulus {
    name: String,
    retained: u64,
    mean: Option<f64>,
    p25: Option<f64>,
    p50: Option<f64>,
    p75: Option<f64>,
    ci_lo: Option<f64>,
    ci_hi: Option<f64>,
}

/// The live-mode JSONL line a finished digest implies — what the
/// driver emits as its last [`CheckpointEvent::Live`] event, exposed so
/// readers can cross-check a live stream's final line against the
/// end-of-run digest read-outs.
pub fn live_line_from_digest(d: &TimelineDigest, budget: u64, is_final: bool) -> String {
    let stimuli = d
        .stimuli
        .iter()
        .map(|s| {
            let ci = s.sketch.quantile_ci(50.0, ADAPTIVE_Z);
            LiveStimulus {
                name: s.name.clone(),
                retained: s.retained(),
                mean: s.uplt.mean(),
                p25: s.sketch.quantile(25.0),
                p50: s.sketch.quantile(50.0),
                p75: s.sketch.quantile(75.0),
                ci_lo: ci.map(|c| c.0),
                ci_hi: ci.map(|c| c.1),
            }
        })
        .collect();
    json_line(&LiveLine {
        processed: d.recruited,
        budget,
        is_final,
        admitted: d.admitted,
        collected: d.responses_collected,
        skipped: d.responses_skipped,
        kept: d.filters.kept,
        stimuli,
    })
}

// ---------------------------------------------------------------------
// The checkpointed drivers
// ---------------------------------------------------------------------

/// Driver knobs for checkpoint emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Barrier spacing for non-adaptive runs, in shards: a checkpoint
    /// (and a live line) is emitted every `every_shards` shards.
    /// Adaptive runs already have barriers every `AdaptiveConfig::epoch`
    /// participants and checkpoint at those instead. Values `< 1` are
    /// treated as 1.
    pub every_shards: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every_shards: 8 }
    }
}

/// What the driver hands its observer at each barrier.
pub enum CheckpointEvent<'a> {
    /// The barrier's checkpoint. Return `false` from the observer to
    /// interrupt the run and receive it as [`RunOutcome::Interrupted`].
    Checkpoint(&'a TimelineCheckpoint),
    /// One live-mode JSONL line (no trailing newline). The observer's
    /// return value is ignored for live events.
    Live(&'a str),
}

/// How a checkpointed timeline run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Ran to its natural end.
    Complete(Box<AdaptiveOutcome>),
    /// The observer interrupted at a barrier; resume by passing this
    /// checkpoint back via `resume` (same stimuli, seed, and config).
    Interrupted(Box<TimelineCheckpoint>),
}

/// Run a timeline campaign (adaptive or plain) with checkpoint/resume
/// and live incremental analytics.
///
/// At every epoch barrier the driver emits a [`CheckpointEvent::Live`]
/// line and a [`CheckpointEvent::Checkpoint`]; returning `false` for
/// the checkpoint interrupts the run. Passing the interrupted
/// checkpoint back as `resume` (with identical stimuli, seed, and
/// configs — validated where possible, [`CheckpointError`] otherwise)
/// replays only the remaining participant range: the composition is
/// byte-identical, digest and counter fingerprint, to the
/// uninterrupted run. With an inactive `ac` the run equals
/// `flat_timeline_campaign`/`stream_timeline_campaign`; barriers then
/// fall every [`CheckpointConfig::every_shards`] shards. Epochs run
/// through the flat kernel (the only [`AdaptiveBackend`]).
///
/// Obs contract: the caller resets (and optionally enables) the obs
/// registry before calling; on resume the driver restores the
/// checkpoint's recorded totals itself.
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn checkpointed_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    budget: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    ac: &AdaptiveConfig,
    _backend: AdaptiveBackend,
    resume: Option<&TimelineCheckpoint>,
    ck: &CheckpointConfig,
    observer: &mut dyn FnMut(CheckpointEvent<'_>) -> bool,
) -> Result<RunOutcome, CheckpointError> {
    check_campaign(stimuli.len(), cfg)?;
    let _t = eyeorg_obs::phase_timer("core.checkpointed_timeline");
    // Barrier spacing: adaptive runs keep their decision epoch (the
    // decision sequence must not depend on checkpointing); plain runs
    // get a barrier every `every_shards` shards.
    let epoch = if ac.is_active() {
        ac.epoch
    } else {
        ck.every_shards.max(1).saturating_mul(sc.shard_size.max(1))
    };
    let start = match resume {
        None => DriveState::fresh(stimuli, &sc.params),
        Some(c) => c.resume(stimuli, budget, &sc.params)?,
    };
    let kernel = TlKernel::new(stimuli, service, cfg, filters, seed, sc);
    let threads = kernel.threads;
    let mut barrier = |st: &mut DriveState<StimulusDigest>| {
        stop_at_barrier(st, ac);
        let so_far = st.acc.clone().into_digest(service, st.processed);
        observer(CheckpointEvent::Live(&live_line_from_digest(&so_far, budget as u64, false)));
        observer(CheckpointEvent::Checkpoint(&Checkpoint::of_drive(sc.params, st, threads)))
    };
    let (st, complete) = drive_resumable(&kernel, budget, epoch, start, &mut barrier);
    if !complete {
        // Nothing bumps the registry between the barrier and the
        // return, so this capture equals the one the observer saw.
        let ckpt = Checkpoint::of_drive(sc.params, &st, threads);
        return Ok(RunOutcome::Interrupted(Box::new(ckpt)));
    }
    let outcome = adaptive::outcome(st, service, budget);
    observer(CheckpointEvent::Live(&live_line_from_digest(&outcome.digest, budget as u64, true)));
    Ok(RunOutcome::Complete(Box::new(outcome)))
}

/// Fold the participant index range `[lo, hi)` of a timeline campaign
/// and return it as a mergeable worker checkpoint — the unit of
/// multi-process splitting. Independently launched workers over
/// adjacent ranges merge into exactly the single-process run's state.
///
/// Obs contract: reset the registry first; the checkpoint's counters
/// are then this range's contribution.
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn timeline_worker_checkpoint(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<TimelineCheckpoint, CheckpointError> {
    worker_checkpoint::<TlPlane>(stimuli, service, lo, hi, cfg, filters, seed, sc)
}

/// Fold the participant index range `[lo, hi)` of an A/B campaign into
/// a mergeable worker checkpoint — the A/B counterpart of
/// [`timeline_worker_checkpoint`].
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn ab_worker_checkpoint(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    lo: usize,
    hi: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> Result<AbCheckpoint, CheckpointError> {
    worker_checkpoint::<AbPlane>(stimuli, service, lo, hi, cfg, filters, seed, sc)
}

/// How a checkpointed A/B run ended.
#[derive(Debug)]
pub enum AbRunOutcome {
    /// Ran to its natural end.
    Complete(Box<AbDigest>),
    /// The observer interrupted at a barrier.
    Interrupted(Box<AbCheckpoint>),
}

/// Run an A/B campaign (flat kernel) with checkpoint/resume: the
/// observer sees a checkpoint every [`CheckpointConfig::every_shards`]
/// shards and can interrupt by returning `false`; resuming replays only
/// the remaining range, byte-identical to never stopping. Same obs
/// contract as [`checkpointed_timeline_campaign`].
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn checkpointed_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    resume: Option<&AbCheckpoint>,
    ck: &CheckpointConfig,
    observer: &mut dyn FnMut(&AbCheckpoint) -> bool,
) -> Result<AbRunOutcome, CheckpointError> {
    check_campaign(stimuli.len(), cfg)?;
    let _t = eyeorg_obs::phase_timer("core.checkpointed_ab");
    let chunk = ck.every_shards.max(1).saturating_mul(sc.shard_size.max(1));
    let start = match resume {
        None => DriveState::fresh(stimuli, &sc.params),
        Some(c) => c.resume(stimuli, n_participants, &sc.params)?,
    };
    let kernel = AbKernel::new(stimuli, service, cfg, filters, seed, sc);
    let threads = kernel.threads;
    let mut barrier = |st: &mut DriveState<AbStimulusDigest>| {
        observer(&Checkpoint::of_drive(sc.params, st, threads))
    };
    let (st, complete) = drive_resumable(&kernel, n_participants, chunk, start, &mut barrier);
    if !complete {
        let ckpt = Checkpoint::of_drive(sc.params, &st, threads);
        return Ok(AbRunOutcome::Interrupted(Box::new(ckpt)));
    }
    Ok(AbRunOutcome::Complete(Box::new(st.acc.into_digest(service, n_participants))))
}
