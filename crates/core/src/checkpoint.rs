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
//! One codec serves both test kinds. [`Checkpoint<K>`] is generic over
//! the shard accumulator `K` (`TlShard` for timeline campaigns,
//! `AbShard` for A/B), driven by a small crate-private trait that
//! supplies the kind tag, a fresh accumulator, the totals and stimulus
//! line codec, an all-or-nothing checked merge, and the fallible digest
//! assembly (which the engines' shard merges reuse). `save`, `load`,
//! `merge`, `finalize`, the resume state, the driver checkpoint and the
//! worker body are written once; [`TimelineCheckpoint`] and
//! [`AbCheckpoint`] are aliases of the two instances.
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
//! range is exactly one of the three. See DESIGN.md §3i.
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
//! per-shard sums, hence partition-independent).

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
use crate::stream::{merge_shards, AbShard, StreamConfig, TlShard};

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

#[derive(Serialize, Deserialize)]
struct TotalsLine {
    admitted: u64,
    rejected: u64,
    collected: u64,
    skipped: u64,
    pruned: u64,
    filters: FilterTally,
    controls: ControlTally,
}

#[derive(Serialize, Deserialize)]
struct AbTotalsLine {
    admitted: u64,
    rejected: u64,
    cast: u64,
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

    /// What the generic checkpoint codec needs from a shard accumulator.
    pub trait ShardKind: Clone + std::fmt::Debug {
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
        /// An empty accumulator sized for `stimuli`.
        fn fresh(stimuli: &[Self::Stimulus], params: &DigestParams) -> Self;
        /// Participant indices folded: `(admitted, rejected, pruned)`.
        fn gate(&self) -> (u64, u64, u64);
        /// Append lines 2 and 3: the totals and the behaviour moments.
        fn write_head(&self, out: &mut String);
        /// Append one line per stimulus; returns how many.
        fn write_stimuli(&self, out: &mut String) -> usize;
        /// Decode lines 2 and 3 into an accumulator with room for
        /// `n_stimuli` stimuli and none pushed yet.
        fn of_head(totals: &str, behavior: &str, n_stimuli: usize) -> Result<Self, CheckpointError>;
        /// Decode stimulus line `ln` and append it.
        fn push_stimulus(
            &mut self,
            line: &str,
            ln: usize,
            params: &DigestParams,
        ) -> Result<(), CheckpointError>;
        /// Fold `other` in, checking every stimulus's identity and
        /// configuration. On error `self` may be part-merged; callers
        /// that keep it merge into a clone ([`Checkpoint::merge`]).
        fn merge_checked(&mut self, other: &Self) -> Result<(), MergeError>;
        /// The digest of this fold as a run of `n_participants` from
        /// `service`.
        fn into_digest(self, service: &dyn RecruitmentService, n_participants: usize)
            -> Self::Digest;
    }
}

/// The final digest of `folds`, merged in order into a fresh
/// accumulator: the one digest assembly, behind both
/// [`Checkpoint::finalize`] and the engines' `stream::merge_shards`.
pub(crate) fn digest_of<K: ShardKind>(
    stimuli: &[K::Stimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    params: &DigestParams,
    folds: &[K],
) -> Result<K::Digest, MergeError> {
    let mut acc = K::fresh(stimuli, params);
    for fold in folds {
        acc.merge_checked(fold)?;
    }
    Ok(acc.into_digest(service, n_participants))
}

/// Merge `from` into `into` stimulus by stimulus; the counts must agree.
fn merge_stimuli<S>(
    into: &mut [S],
    from: &[S],
    merge: impl Fn(&mut S, &S) -> Result<(), MergeError>,
) -> Result<(), MergeError> {
    if into.len() != from.len() {
        return Err(MergeError::StimulusCount { left: into.len(), right: from.len() });
    }
    for (a, b) in into.iter_mut().zip(from) {
        merge(a, b)?;
    }
    Ok(())
}

/// Recruitment economics of a run of `n` participants from `service`:
/// (cost in USD, drive duration in seconds).
fn recruitment(service: &dyn RecruitmentService, n: usize) -> (f64, f64) {
    let duration = if n == 0 { 0.0 } else { service.arrival(n - 1).as_secs_f64() };
    (service.cost_per_participant() * n as f64, duration)
}

impl ShardKind for TlShard {
    const TAG: &'static str = "timeline";
    const DRIVE_LINE: bool = true;
    type Stimulus = TimelineStimulus;
    type Digest = TimelineDigest;

    fn params(p: DigestParams) -> DigestParams {
        p
    }

    fn fresh(stimuli: &[TimelineStimulus], params: &DigestParams) -> TlShard {
        TlShard::new(stimuli, params)
    }

    fn gate(&self) -> (u64, u64, u64) {
        (self.admitted, self.rejected, self.pruned)
    }

    fn write_head(&self, out: &mut String) {
        put(
            out,
            &TotalsLine {
                admitted: self.admitted,
                rejected: self.rejected,
                collected: self.collected,
                skipped: self.skipped,
                pruned: self.pruned,
                filters: self.filters,
                controls: self.controls,
            },
        );
        put(out, &self.behavior);
    }

    fn write_stimuli(&self, out: &mut String) -> usize {
        for s in &self.stimuli {
            put(out, s);
        }
        self.stimuli.len()
    }

    fn of_head(totals: &str, behavior: &str, n: usize) -> Result<TlShard, CheckpointError> {
        let t: TotalsLine = parse_line(totals, 2)?;
        Ok(TlShard {
            stimuli: Vec::with_capacity(n),
            behavior: parse_line(behavior, 3)?,
            filters: t.filters,
            controls: t.controls,
            admitted: t.admitted,
            rejected: t.rejected,
            collected: t.collected,
            skipped: t.skipped,
            pruned: t.pruned,
        })
    }

    fn push_stimulus(
        &mut self,
        line: &str,
        ln: usize,
        params: &DigestParams,
    ) -> Result<(), CheckpointError> {
        let s: StimulusDigest = parse_line(line, ln)?;
        let (hist, sketch) = (&s.hist, &s.sketch);
        if hist.counts().len() != params.hist_bins {
            return Err(CheckpointError::State {
                line: ln,
                detail: format!(
                    "histogram has {} bins, header pins {}",
                    hist.counts().len(),
                    params.hist_bins
                ),
            });
        }
        if sketch.bins() != params.sketch_bins || sketch.exact_cap() != params.exact_cap {
            return Err(CheckpointError::State {
                line: ln,
                detail: format!(
                    "sketch built with bins={}/cap={}, header pins bins={}/cap={}",
                    sketch.bins(),
                    sketch.exact_cap(),
                    params.sketch_bins,
                    params.exact_cap
                ),
            });
        }
        self.stimuli.push(s);
        Ok(())
    }

    fn merge_checked(&mut self, other: &TlShard) -> Result<(), MergeError> {
        merge_stimuli(&mut self.stimuli, &other.stimuli, StimulusDigest::merge)?;
        self.behavior.merge(&other.behavior);
        self.filters.merge(&other.filters);
        self.controls.merge(&other.controls);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.collected = self.collected.saturating_add(other.collected);
        self.skipped = self.skipped.saturating_add(other.skipped);
        self.pruned = self.pruned.saturating_add(other.pruned);
        Ok(())
    }

    fn into_digest(self, service: &dyn RecruitmentService, n: usize) -> TimelineDigest {
        let (recruitment_cost_usd, recruitment_duration_secs) = recruitment(service, n);
        TimelineDigest {
            stimuli: self.stimuli,
            recruited: n as u64,
            admitted: self.admitted,
            rejected: self.rejected,
            recruitment_cost_usd,
            recruitment_duration_secs,
            responses_collected: self.collected,
            responses_skipped: self.skipped,
            behavior: self.behavior,
            filters: self.filters,
            controls: self.controls,
        }
    }
}

impl ShardKind for AbShard {
    const TAG: &'static str = "ab";
    const DRIVE_LINE: bool = false;
    type Stimulus = AbStimulus;
    type Digest = AbDigest;

    /// A/B digests carry no histogram/sketch accumulators.
    fn params(_: DigestParams) -> DigestParams {
        DigestParams { hist_bins: 0, sketch_bins: 0, exact_cap: 0 }
    }

    fn fresh(stimuli: &[AbStimulus], _: &DigestParams) -> AbShard {
        AbShard::new(stimuli)
    }

    fn gate(&self) -> (u64, u64, u64) {
        (self.admitted, self.rejected, 0)
    }

    fn write_head(&self, out: &mut String) {
        put(
            out,
            &AbTotalsLine {
                admitted: self.admitted,
                rejected: self.rejected,
                cast: self.cast,
                skipped: self.skipped,
                filters: self.filters,
                controls: self.controls,
            },
        );
        put(out, &self.behavior);
    }

    fn write_stimuli(&self, out: &mut String) -> usize {
        for s in &self.stimuli {
            put(
                out,
                &AbStimulusLine {
                    name: s.name.clone(),
                    a: s.tally.a,
                    b: s.tally.b,
                    nd: s.tally.nd,
                    shows: s.shows,
                    a_left_shows: s.a_left_shows,
                },
            );
        }
        self.stimuli.len()
    }

    fn of_head(totals: &str, behavior: &str, n: usize) -> Result<AbShard, CheckpointError> {
        let t: AbTotalsLine = parse_line(totals, 2)?;
        Ok(AbShard {
            stimuli: Vec::with_capacity(n),
            behavior: parse_line(behavior, 3)?,
            filters: t.filters,
            controls: t.controls,
            admitted: t.admitted,
            rejected: t.rejected,
            cast: t.cast,
            skipped: t.skipped,
        })
    }

    fn push_stimulus(
        &mut self,
        line: &str,
        ln: usize,
        _: &DigestParams,
    ) -> Result<(), CheckpointError> {
        let sl: AbStimulusLine = parse_line(line, ln)?;
        self.stimuli.push(AbStimulusDigest {
            name: sl.name,
            tally: AbTally { a: sl.a, b: sl.b, nd: sl.nd },
            shows: sl.shows,
            a_left_shows: sl.a_left_shows,
        });
        Ok(())
    }

    fn merge_checked(&mut self, other: &AbShard) -> Result<(), MergeError> {
        merge_stimuli(&mut self.stimuli, &other.stimuli, AbStimulusDigest::merge)?;
        self.behavior.merge(&other.behavior);
        self.filters.merge(&other.filters);
        self.controls.merge(&other.controls);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.cast = self.cast.saturating_add(other.cast);
        self.skipped = self.skipped.saturating_add(other.skipped);
        Ok(())
    }

    fn into_digest(self, service: &dyn RecruitmentService, n: usize) -> AbDigest {
        let (recruitment_cost_usd, recruitment_duration_secs) = recruitment(service, n);
        AbDigest {
            stimuli: self.stimuli,
            recruited: n as u64,
            admitted: self.admitted,
            rejected: self.rejected,
            recruitment_cost_usd,
            recruitment_duration_secs,
            votes_cast: self.cast,
            votes_skipped: self.skipped,
            behavior: self.behavior,
            filters: self.filters,
            controls: self.controls,
        }
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
pub struct Checkpoint<K> {
    params: DigestParams,
    range_lo: u64,
    range_hi: u64,
    admitted_before: u64,
    acc: K,
    drive: Option<StopState>,
    counters: CounterState,
}

/// A timeline campaign's checkpoint.
pub type TimelineCheckpoint = Checkpoint<TlShard>;

/// An A/B campaign's checkpoint.
pub type AbCheckpoint = Checkpoint<AbShard>;

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

fn drive_of(a: AdaptiveLine, n_stimuli: usize, line: usize) -> Result<StopState, CheckpointError> {
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

impl<K: ShardKind> Checkpoint<K> {
    /// Lines besides the stimulus lines: header, totals, behaviour,
    /// (drive,) counters, end.
    const FIXED_LINES: usize = 5 + K::DRIVE_LINE as usize;

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
        !K::DRIVE_LINE || self.drive.is_some()
    }

    /// Re-apply the recorded obs totals (see the module-docs contract).
    pub fn restore_counters(&self) {
        self.counters.restore();
    }

    /// Serialize to the versioned JSONL format (ends with a newline).
    pub fn save(&self) -> String {
        let mut body = String::new();
        self.acc.write_head(&mut body);
        let n_stim = self.acc.write_stimuli(&mut body);
        if K::DRIVE_LINE {
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
                kind: K::TAG.to_string(),
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
    pub fn load(text: &str) -> Result<Checkpoint<K>, CheckpointError> {
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
        if h.kind != K::TAG {
            let found = &h.kind;
            return Err(header_err(format!("expected a {:?} checkpoint, found {found:?}", K::TAG)));
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
        let mut acc = K::of_head(totals, behavior, h.stimuli)?;
        let (admitted, rejected, pruned) = acc.gate();
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
            acc.push_stimulus(line, ln, &params)?;
        }
        let mut drive = None;
        if K::DRIVE_LINE {
            let (line, ln) = next()?;
            let dl: DriveLine = parse_line(line, ln)?;
            drive = dl.adaptive.map(|a| drive_of(a, h.stimuli, ln)).transpose()?;
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
    pub fn merge(&mut self, other: &Checkpoint<K>) -> Result<(), CheckpointError> {
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
        let (admitted, _, pruned) = self.acc.gate();
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
    /// single-process run of `range_hi` participants returns.
    pub fn finalize(
        &self,
        stimuli: &[K::Stimulus],
        service: &dyn RecruitmentService,
    ) -> Result<K::Digest, CheckpointError> {
        if self.range_lo != 0 {
            return Err(CheckpointError::PartialRange { lo: self.range_lo });
        }
        let n = self.range_hi as usize;
        Ok(digest_of(stimuli, service, n, &self.params, std::slice::from_ref(&self.acc))?)
    }

    /// The drive state a resumed run of `budget` participants continues
    /// from, after restoring the recorded obs totals. Probe-merging the
    /// untrusted accumulator into a fresh one runs the full fallible
    /// identity/config checks, after which the run's infallible shard
    /// merges are unreachable from disk. (A loaded drive state is sized
    /// to the file's stimuli, which the probe pins to the run's.)
    fn resume(
        &self,
        stimuli: &[K::Stimulus],
        budget: usize,
        params: &DigestParams,
    ) -> Result<DriveState<K>, CheckpointError> {
        let params = K::params(*params);
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
        K::fresh(stimuli, &params).merge_checked(&self.acc)?;
        if !self.is_resumable() {
            return Err(CheckpointError::Config {
                detail: "a worker checkpoint cannot seed a resume (no drive state)".to_string(),
            });
        }
        self.restore_counters();
        // Gate admissions over [0, processed): pruned participants
        // consumed an admitted index without being served.
        let (admitted, _, pruned) = self.acc.gate();
        Ok(DriveState {
            acc: self.acc.clone(),
            admitted: admitted + pruned,
            processed: self.range_hi as usize,
            stop: self.drive.clone().unwrap_or_else(|| StopState::fresh(stimuli.len())),
        })
    }

    /// A driver checkpoint of the epoch loop's state, with the live obs
    /// totals (and, for timeline ones, the stop state).
    fn of_drive(params: DigestParams, st: &DriveState<K>, threads: usize) -> Checkpoint<K> {
        Checkpoint {
            params: K::params(params),
            range_lo: 0,
            range_hi: st.processed as u64,
            admitted_before: 0,
            acc: st.acc.clone(),
            drive: K::DRIVE_LINE.then(|| st.stop.clone()),
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
) -> Result<Checkpoint<P::Shard>, CheckpointError> {
    check_campaign(stimuli.len(), cfg)?;
    if lo > hi {
        return Err(CheckpointError::Config {
            detail: format!("inverted worker range [{lo}, {hi})"),
        });
    }
    let _t = eyeorg_obs::phase_timer("core.worker_checkpoint");
    let kernel = Kernel::<P>::new(stimuli, service, cfg, filters, seed, sc);
    let admitted_before = kernel.admitted_before(lo);
    let params = P::Shard::params(sc.params);
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
    let mut barrier = |st: &mut DriveState<TlShard>| {
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
    let outcome = adaptive::outcome(st, stimuli, service, budget, &sc.params);
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
    let mut barrier =
        |st: &mut DriveState<AbShard>| observer(&Checkpoint::of_drive(sc.params, st, threads));
    let (st, complete) = drive_resumable(&kernel, n_participants, chunk, start, &mut barrier);
    if !complete {
        let ckpt = Checkpoint::of_drive(sc.params, &st, threads);
        return Ok(AbRunOutcome::Interrupted(Box::new(ckpt)));
    }
    let folds = std::slice::from_ref(&st.acc);
    let digest = merge_shards(stimuli, service, n_participants, &sc.params, folds);
    Ok(AbRunOutcome::Complete(Box::new(digest)))
}
