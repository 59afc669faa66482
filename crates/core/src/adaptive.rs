//! The one epoch driver, and adaptive early stopping (VidPlat-style
//! pruning) as the timeline callers' barrier step.
//!
//! `drive_resumable`, the only caller of `Kernel::epoch`, serves every
//! folding entry point of both kinds and never branches on the kind:
//! one epoch over `[0, n)` for the one-shot engines, over `[lo, hi)` for
//! the workers, a checkpoint at every barrier for the checkpointed
//! drivers.
//!
//! DESIGN.md §3g measured the per-participant cost floor: ~70% of
//! campaign time is the seeded behavioural model both engines must run
//! draw-for-draw, so the next order-of-magnitude win is doing *fewer
//! participants*. VidPlat's headline idea does exactly that for
//! crowdsourced QoE: stop recruiting for a stimulus once its estimate
//! has converged. The mergeable accumulators of [`crate::digest`] are
//! the substrate — a stimulus's confidence half-width is a pure
//! read-out of its multiset-determined digest state.
//!
//! ## How recruitment proceeds
//!
//! Participants are processed in index order in fixed-size **epochs**
//! ([`AdaptiveConfig::epoch`]). Each epoch is one [`crate::flat`]
//! kernel epoch over the next index range, sharded and parallelised
//! like any other flat run, whose per-worker folds the kernel merges
//! into the driver's cumulative fold — which at the end becomes the
//! digest as it is, with no second merge. At the epoch **barrier** the
//! stopping rule runs on that merged state:
//! a live stimulus stops when its UPLT confidence half-width — the max
//! of the [`Moments`](eyeorg_stats::stream::Moments) mean-CI half-width
//! and the sketch-resolution-aware median interval from
//! [`QuantileSketch::quantile_ci`](eyeorg_stats::stream::QuantileSketch::quantile_ci)
//! — is at most `epsilon` (subject to `min_n`), or unconditionally at
//! `max_n`. The campaign ends when every stimulus has stopped or the
//! participant budget is exhausted.
//!
//! ## Why the output is byte-identical across executions
//!
//! Decisions are taken **only at barriers**, on state that is a pure
//! function of (seed, config, processed index range, mask): every
//! accumulator is exactly multiset-determined, so the kernel's
//! per-worker folds merge to the same state whichever worker folded
//! which shard, and the mask consumed by an epoch is fixed before the
//! epoch starts. So
//! the decision sequence — and with it every digest and counter
//! fingerprint — is invariant under shard size, thread count, and the
//! PR 4 chaos-seed exerciser (pinned by the `adaptive_stopping` tests
//! and the `adaptive` cell of `campaign_golden`).
//!
//! ## Why live digests equal the truncated full run
//!
//! Mask semantics (the flat kernel's column passes):
//!
//! * a served participant runs **all** assigned sessions, the control,
//!   the filters, and the behaviour push exactly as the full run —
//!   stopped stimuli are still *served*, their responses are just not
//!   *pushed* — so no participant-level outcome ever depends on another
//!   stimulus's stop decision;
//! * pushes go only to live stimuli, so a live stimulus's digest equals
//!   the full run's digest truncated at its own stop epoch;
//! * a participant is **pruned** (never trait-generated or served —
//!   that is the saving) only when *every* assigned stimulus has
//!   stopped, and still consumes their admitted index so later
//!   assignments match the full run.
//!
//! A consequence worth naming: each stimulus's stop decision depends
//! only on its own truncated-full-run digest, so decisions are
//! monotone in `epsilon` and independent of the rest of the mask.
//! With `epsilon = 0` and `max_n = 0` no rule can fire, nothing is
//! pruned, and the driver is byte-identical — digest *and* counter
//! fingerprint — to the plain flat and streaming engines.

use eyeorg_crowd::RecruitmentService;
use eyeorg_stats::Seed;

use crate::checkpoint::ShardKind;
use crate::digest::{DigestParams, StimulusDigest, TimelineDigest};
use crate::experiment::{assert_runnable, AdaptiveConfig, ExperimentConfig, TimelineStimulus};
use crate::filtering::ParticipantFilter;
use crate::flat::{Kernel, Plane, TlKernel};
use crate::stream::{Fold, StreamConfig};

/// Critical value for the stopping rule's confidence intervals (~95%
/// two-sided normal). A fixed constant, not a knob: epsilon is the
/// tuning surface, and a fixed z keeps decision fingerprints
/// comparable across runs.
pub const ADAPTIVE_Z: f64 = 1.96;

/// Which engine executes the epochs: always the flat kernel. The
/// single-variant type exists so existing callers of
/// [`adaptive_timeline_campaign`] and
/// [`crate::checkpoint::checkpointed_timeline_campaign`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveBackend {
    /// Structure-of-arrays column passes ([`crate::flat`]).
    Flat,
}

/// Why a stimulus stopped recruiting. Driver checkpoints record it by
/// its serialized name, so the names are part of checkpoint format v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StopCause {
    /// Confidence half-width dropped to `epsilon` or below.
    #[serde(rename = "converged")]
    Converged,
    /// Hit the `max_n` kept-response cap.
    #[serde(rename = "max_n")]
    MaxN,
}

/// One stopping decision, in the order taken. The `Debug` rendering of
/// the decision list is the run's decision fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct StopDecision {
    /// 1-based epoch barrier at which the decision fired.
    pub epoch: u64,
    /// Stimulus index.
    pub stimulus: usize,
    /// Stimulus name (for reports).
    pub name: String,
    /// Kept responses at the barrier.
    pub retained: u64,
    /// Confidence half-width at the barrier (infinite when `max_n`
    /// fired before a half-width was computable).
    pub half_width: f64,
    /// Which rule fired.
    pub cause: StopCause,
}

/// The result of an adaptive campaign.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The final digest over every pushed response. `recruited`, cost,
    /// and duration reflect the participants actually processed (the
    /// point of stopping early), not the offered budget.
    pub digest: TimelineDigest,
    /// The offered participant budget.
    pub budget: u64,
    /// Participant indices actually processed (recruitment stops at the
    /// epoch barrier after the last stimulus stops).
    pub recruited: u64,
    /// Gate-admitted participants pruned mid-run because every assigned
    /// stimulus had stopped.
    pub pruned: u64,
    /// Epoch barriers evaluated.
    pub epochs: u64,
    /// Stopping decisions, in the order taken.
    pub decisions: Vec<StopDecision>,
    /// Per stimulus: the epoch barrier it stopped at (`None` = ran to
    /// budget exhaustion).
    pub stopped_at: Vec<Option<u64>>,
}

impl AdaptiveOutcome {
    /// Participants never simulated: the unrecruited budget tail plus
    /// mid-run pruned participants.
    pub fn participants_saved(&self) -> u64 {
        self.budget - self.recruited + self.pruned
    }

    /// Canonical rendering of the decision sequence; byte-identical
    /// across shard sizes, thread counts, and chaos seeds.
    pub fn decision_fingerprint(&self) -> String {
        format!("{:?}", self.decisions)
    }
}

/// The stopping rule's half-width for one stimulus: the max of the
/// mean-CI half-width and half the sketch-resolution-aware median
/// interval, both at [`ADAPTIVE_Z`]. `None` until two responses are
/// kept (no variance estimate).
pub fn stop_half_width(d: &StimulusDigest) -> Option<f64> {
    let (mlo, mhi) = d.uplt.mean_ci(ADAPTIVE_Z)?;
    let (qlo, qhi) = d.sketch.quantile_ci(50.0, ADAPTIVE_Z)?;
    Some(((mhi - mlo) / 2.0).max((qhi - qlo) / 2.0))
}

/// Evaluate the stopping rule for one live stimulus at a barrier.
fn should_stop(d: &StimulusDigest, ac: &AdaptiveConfig) -> Option<(StopCause, f64)> {
    let n = d.retained();
    if ac.max_n > 0 && n >= ac.max_n {
        return Some((StopCause::MaxN, stop_half_width(d).unwrap_or(f64::INFINITY)));
    }
    if ac.epsilon > 0.0 && n >= ac.min_n {
        if let Some(hw) = stop_half_width(d) {
            if hw <= ac.epsilon {
                return Some((StopCause::Converged, hw));
            }
        }
    }
    None
}

/// The timeline callers' barrier step: under an active `ac`, count the
/// barrier and stop each live stimulus that [`should_stop`], in order.
pub(crate) fn stop_at_barrier(st: &mut DriveState<StimulusDigest>, ac: &AdaptiveConfig) {
    if !ac.is_active() {
        return;
    }
    eyeorg_obs::metrics::ADAPTIVE_EPOCHS.incr();
    let stop = &mut st.stop;
    for (si, d) in st.acc.stimuli.iter().enumerate() {
        if !stop.live[si] {
            continue;
        }
        if let Some((cause, half_width)) = should_stop(d, ac) {
            stop.live[si] = false;
            stop.stopped_at[si] = Some(stop.epochs);
            eyeorg_obs::metrics::ADAPTIVE_STIMULI_STOPPED.incr();
            stop.decisions.push(StopDecision {
                epoch: stop.epochs,
                stimulus: si,
                name: d.name.clone(),
                retained: d.retained(),
                half_width,
                cause,
            });
        }
    }
}

/// Run a timeline campaign adaptively: up to `budget` participants from
/// `service`, in `ac.epoch`-sized epochs, stopping each stimulus as its
/// confidence half-width reaches `ac.epsilon` (see the module docs for
/// the exact semantics and the determinism argument).
///
/// With an inactive config (`epsilon = 0`, `max_n = 0`) this is
/// byte-identical to [`crate::flat::flat_timeline_campaign`] and to the
/// row path digested shard by shard
/// ([`crate::stream::stream_timeline_campaign`]) on the same inputs,
/// digest and counter fingerprint alike.
#[allow(clippy::too_many_arguments)] // mirrors the engine entry points it wraps
pub fn adaptive_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    budget: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
    ac: &AdaptiveConfig,
    _backend: AdaptiveBackend,
) -> AdaptiveOutcome {
    assert_runnable(stimuli.len(), cfg);
    let _t = eyeorg_obs::phase_timer("core.adaptive_timeline");
    let kernel = TlKernel::new(stimuli, service, cfg, filters, seed, sc);
    let start = DriveState::fresh(stimuli, &sc.params);
    let (st, _) = drive_resumable(&kernel, budget, ac.epoch, start, &mut |st| {
        stop_at_barrier(st, ac);
        true
    });
    outcome(st, service, budget)
}

/// The outcome of a timeline drive run to its natural end: the driver's
/// cumulative fold is already the merged campaign, so it becomes the
/// digest as it is. Only here is the never-recruited budget tail
/// counted as saved (mid-run pruning was counted shard by shard), so an
/// interrupted run's counters equal the uninterrupted run's at that
/// barrier.
pub(crate) fn outcome(
    st: DriveState<StimulusDigest>,
    service: &dyn RecruitmentService,
    budget: usize,
) -> AdaptiveOutcome {
    eyeorg_obs::metrics::ADAPTIVE_PARTICIPANTS_SAVED.add((budget - st.processed) as u64);
    let pruned = st.acc.pruned;
    AdaptiveOutcome {
        digest: st.acc.into_digest(service, st.processed),
        budget: budget as u64,
        recruited: st.processed as u64,
        pruned,
        epochs: st.stop.epochs,
        decisions: st.stop.decisions,
        stopped_at: st.stop.stopped_at,
    }
}

/// The per-stimulus recruitment mask and the record of the barriers
/// taken: what a timeline driver checkpoint carries besides the fold.
#[derive(Debug, Clone)]
pub(crate) struct StopState {
    /// Per-stimulus recruitment mask.
    pub(crate) live: Vec<bool>,
    /// Epoch barriers taken so far.
    pub(crate) epochs: u64,
    /// Per stimulus: the epoch barrier it stopped at.
    pub(crate) stopped_at: Vec<Option<u64>>,
    /// Stopping decisions, in the order taken.
    pub(crate) decisions: Vec<StopDecision>,
}

impl StopState {
    /// All `n_stimuli` stimuli live, no barrier taken.
    pub(crate) fn fresh(n_stimuli: usize) -> StopState {
        let (live, stopped_at) = (vec![true; n_stimuli], vec![None; n_stimuli]);
        StopState { live, epochs: 0, stopped_at, decisions: Vec::new() }
    }
}

/// The epoch loop's whole mutable state between barriers, for either
/// kind (`A` is its per-stimulus accumulator): a pure function of
/// (seed, config, processed index range), which a driver checkpoint
/// serializes and a resume continues. Its fold is the merged campaign,
/// so a finished run turns it into the digest directly.
#[derive(Debug, Clone)]
pub(crate) struct DriveState<A> {
    /// Cumulative fold over every processed epoch.
    pub(crate) acc: Fold<A>,
    /// Gate admissions over `[0, processed)`.
    pub(crate) admitted: u64,
    /// Participant indices processed so far.
    pub(crate) processed: usize,
    pub(crate) stop: StopState,
}

impl<A: ShardKind> DriveState<A> {
    /// The loop's starting state for `stimuli`.
    pub(crate) fn fresh(stimuli: &[A::Stimulus], params: &DigestParams) -> DriveState<A> {
        let stop = StopState::fresh(stimuli.len());
        DriveState { acc: Fold::fresh(stimuli, params), admitted: 0, processed: 0, stop }
    }
}

/// The epoch loop: from `st`, fold the next `epoch` indices through
/// `kernel` under the mask into the state's fold, and hand the state to
/// `barrier`, which may change the mask and returns `false` to
/// interrupt. Runs until `budget` indices are processed or nothing is
/// live; returns the state and whether it got there. Epochs are pure
/// functions of [`DriveState`], so interrupting and resuming is
/// byte-identical to never stopping.
pub(crate) fn drive_resumable<P: Plane>(
    kernel: &Kernel<'_, P>,
    budget: usize,
    epoch: usize,
    mut st: DriveState<P::Acc>,
    barrier: &mut dyn FnMut(&mut DriveState<P::Acc>) -> bool,
) -> (DriveState<P::Acc>, bool) {
    while st.processed < budget && st.stop.live.iter().any(|&l| l) {
        let lo = st.processed;
        let hi = lo.saturating_add(epoch.max(1)).min(budget);
        let range_admitted = kernel.epoch(lo, hi, st.admitted, &st.stop.live, &mut st.acc);
        st.admitted += range_admitted;
        st.processed = hi;
        st.stop.epochs += 1;
        if !barrier(&mut st) {
            return (st, false);
        }
    }
    (st, true)
}

#[cfg(test)]
mod tests {
    use super::StopCause;

    #[test]
    fn stop_cause_round_trips_under_its_checkpoint_names() {
        let names = [(StopCause::Converged, "\"converged\""), (StopCause::MaxN, "\"max_n\"")];
        for (cause, json) in names {
            assert_eq!(serde_json::to_string(&cause).unwrap(), json);
            assert_eq!(serde_json::from_str::<StopCause>(json).unwrap(), cause);
        }
        for bad in ["\"MaxN\"", "\"stalled\"", "3", "null"] {
            assert!(serde_json::from_str::<StopCause>(bad).is_err(), "{bad}");
        }
    }
}
