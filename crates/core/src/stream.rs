//! The sharded engines' shared types, and the streaming timeline
//! reference.
//!
//! `campaign::run_timeline_campaign` materializes every showing before
//! the filter/analysis layers touch it, so memory grows with the crowd.
//! The sharded engines run the same seeded per-participant generation
//! **shard by shard** instead: the participant range is split into
//! fixed-size shards, each shard worker regenerates its participants
//! from the campaign seed (participant generation is index-addressed,
//! so no participant list is ever materialized), runs the gate →
//! assignment → behaviour → perception → filter pipeline, and folds the
//! results into the mergeable accumulators of [`crate::digest`]. The
//! flat kernel's epoch folds every shard a worker claims into that
//! worker's one fold and merges the per-worker folds; since every
//! accumulator's state is exactly multiset-determined, the merged
//! digest — and the obs `counter_fingerprint` — is byte-identical
//! whichever worker folded which shard, at any thread count and any
//! shard size, and equal to the materializing path's digest (pinned by
//! the `streaming_equivalence` tests).
//!
//! This module holds what every sharded entry point shares: the
//! [`StreamConfig`], the admitted-index pre-pass, and the one fold
//! type of both test kinds, `Fold`, generic over the kind's
//! per-stimulus accumulator, with its checked merge, counters and
//! digest written once. Production runs go through the flat kernel
//! ([`crate::flat`]) and the driver of [`crate::adaptive`], whose
//! cumulative fold becomes the digest as it is.
//! [`stream_timeline_campaign`] is the timeline reference the kernel is
//! checked against at crowd sizes whose rows do not fit in memory at
//! once (perfbench's 1M-participant `--record`): the materializing path
//! itself — gate, `flat::serve`, `filter_timeline`, `digest_timeline`'s
//! fold — run one shard at a time, its shard folds merged in shard
//! order. It
//! shares the planes and the response model with the kernel, but not
//! the column passes, the gate pre-pass or the schedule-grouped merge.
//!
//! ## The admitted-index pre-pass
//!
//! Stimulus assignment is keyed by the participant's *admitted* index
//! (the count of gate-admitted participants before them), which depends
//! on every earlier gate decision. A shard can't know its base offset
//! locally, so the kernel runs two passes: pass 1 counts gate
//! admissions per shard (pure — `validation::captcha_admits_gate` draws
//! only from the participant's own seed stream and bumps nothing), a
//! sequential prefix sum turns the counts into per-shard bases, and
//! pass 2 generates, serves, filters, and folds with those bases. The
//! regeneration cost is two cheap participant draws per index — far
//! below one video session. The reference runs its shards in order
//! instead and carries the base from each shard's gate to the next.

use eyeorg_crowd::RecruitmentService;
use eyeorg_stats::{par_map_range, resolve_threads, Seed};

use crate::campaign::timeline_campaign;
use crate::checkpoint::ShardKind;
use crate::digest::{fold_timeline, DigestParams, MergeError, TimelineDigest};
use crate::experiment::{assert_runnable, ExperimentConfig, TimelineStimulus};
use crate::filtering::{filter_timeline, ParticipantFilter};
use crate::flat::{planes, TlPlane};

/// Sharding configuration for the sharded engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Participants per shard. Memory is proportional to this (plus
    /// the fixed accumulator footprint), never to the crowd size.
    pub shard_size: usize,
    /// Accumulator sizing (must match the digest it is compared with).
    pub params: DigestParams,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { shard_size: 4096, params: DigestParams::default() }
    }
}

pub(crate) use fold::Fold;

/// Nominally `pub` inside this private module: the public checkpoint
/// type's private field can hold it, nothing outside the crate can.
mod fold {
    use crate::digest::{BehaviorDigest, ControlTally};
    use crate::filtering::FilterTally;

    /// A fold of (part of) a campaign of either kind, generic over the
    /// kind's per-stimulus accumulator `A`
    /// ([`crate::digest::StimulusDigest`] for timeline campaigns,
    /// [`crate::digest::AbStimulusDigest`] for A/B). Filled by the flat
    /// kernel ([`crate::flat`]) and the streaming reference, accumulated
    /// epoch by epoch by the driver ([`crate::adaptive`]), and
    /// snapshotted at barriers by the checkpoint layer
    /// ([`crate::checkpoint`]).
    #[derive(Debug, Clone)]
    pub struct Fold<A> {
        pub(crate) stimuli: Vec<A>,
        pub(crate) behavior: BehaviorDigest,
        pub(crate) filters: FilterTally,
        pub(crate) controls: ControlTally,
        pub(crate) admitted: u64,
        pub(crate) rejected: u64,
        /// Showings answered (timeline responses collected, A/B votes
        /// cast), kept or not.
        pub(crate) answered: u64,
        pub(crate) skipped: u64,
        /// Gate-admitted participants never served because every
        /// stimulus they were assigned had already stopped recruiting
        /// (adaptive runs only; always 0 under an all-live mask, so
        /// always 0 for A/B). They still consume an admitted index so
        /// later assignments match the full run.
        pub(crate) pruned: u64,
    }
}

impl<A: ShardKind> Fold<A> {
    /// An empty fold sized for `stimuli`.
    pub(crate) fn fresh(stimuli: &[A::Stimulus], params: &DigestParams) -> Fold<A> {
        Fold::empty(stimuli.iter().map(|st| A::new(st, params)).collect())
    }

    /// An empty partial of this fold ([`ShardKind::empty_like`] per
    /// stimulus), to fold into and merge back into it.
    pub(crate) fn empty_like(&self) -> Fold<A> {
        Fold::empty(self.stimuli.iter().map(A::empty_like).collect())
    }

    pub(crate) fn empty(stimuli: Vec<A>) -> Fold<A> {
        let (behavior, filters, controls) = Default::default();
        let [admitted, rejected, answered, skipped, pruned] = [0; 5];
        Fold { stimuli, behavior, filters, controls, admitted, rejected, answered, skipped, pruned }
    }

    /// Fold `other` in, checking the stimulus count and every
    /// stimulus's identity and configuration. On error `self` may be
    /// part-merged; callers that keep it merge into a clone
    /// (`Checkpoint::merge`).
    pub(crate) fn merge_checked(&mut self, other: &Fold<A>) -> Result<(), MergeError> {
        if self.stimuli.len() != other.stimuli.len() {
            let (left, right) = (self.stimuli.len(), other.stimuli.len());
            return Err(MergeError::StimulusCount { left, right });
        }
        for (a, b) in self.stimuli.iter_mut().zip(&other.stimuli) {
            a.merge(b)?;
        }
        self.behavior.merge(&other.behavior);
        self.filters.merge(&other.filters);
        self.controls.merge(&other.controls);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.answered = self.answered.saturating_add(other.answered);
        self.skipped = self.skipped.saturating_add(other.skipped);
        self.pruned = self.pruned.saturating_add(other.pruned);
        Ok(())
    }

    /// Fold partial folds of this campaign in: the kernel's per-worker
    /// folds, or the reference's shard folds. Every accumulator is
    /// multiset-determined and merges exactly, so neither the order nor
    /// the grouping of the partials reaches the result.
    pub(crate) fn merge_all<'f>(&mut self, folds: impl IntoIterator<Item = &'f Fold<A>>)
    where
        A: 'f,
    {
        for fold in folds {
            // lint:allow(D4): partials of one campaign are built from its stimuli and params (Fold::fresh, empty_like or fold_timeline)
            self.merge_checked(fold).expect("partial folds of one campaign agree by construction");
        }
    }

    /// Bump the obs counters from this shard's totals.
    pub(crate) fn bump_counters(&self) {
        eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(self.admitted);
        eyeorg_obs::metrics::CORE_GATE_REJECTED.add(self.rejected);
        // Zero under an all-live mask, so non-adaptive runs (and
        // ε = 0 adaptive runs) leave the counter untouched.
        eyeorg_obs::metrics::ADAPTIVE_PARTICIPANTS_SAVED.add(self.pruned);
        A::bump_counters(self);
    }

    /// The digest of this fold as a run of `n` participants from
    /// `service`.
    pub(crate) fn into_digest(self, service: &dyn RecruitmentService, n: usize) -> A::Digest {
        let duration_secs = if n == 0 { 0.0 } else { service.arrival(n - 1).as_secs_f64() };
        A::digest(self, n as u64, service.cost_per_participant() * n as f64, duration_secs)
    }
}

/// Run a timeline campaign through the streaming reference: `n`
/// participants from `service`, gated, served, filtered by `filters`,
/// and digested shard by shard into a [`TimelineDigest`], in memory
/// proportional to a shard.
///
/// Each shard is the materializing path on participant indices
/// `[lo, hi)`: the participants are generated by index, gated by
/// `validation::captcha_gate` and served as rows at the shard's
/// admitted-index base (the admissions of every earlier shard), then
/// `filter_timeline` and `digest_timeline`'s fold digest them, and the
/// shard folds merge in shard order. The result is byte-identical to
/// `run_timeline_campaign` + `filter_timeline` + `digest_timeline` over
/// the whole crowd and to [`crate::flat::flat_timeline_campaign`] on the
/// same inputs (digest *and* counter fingerprint), at any thread count
/// and shard size. Production runs use the flat kernel; this is the
/// reference it is checked against at crowd sizes whose rows do not fit
/// in memory at once.
pub fn stream_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> TimelineDigest {
    assert_runnable(stimuli.len(), cfg);
    let _t = eyeorg_obs::phase_timer("core.stream_timeline");
    let planes = planes::<TlPlane>(stimuli, seed, resolve_threads(cfg.threads));
    let (pop, recruit_seed) = (service.population(), seed.derive("recruit"));
    let shard = sc.shard_size.max(1);
    let mut acc = Fold::fresh(stimuli, &sc.params);
    for lo in (0..n_participants).step_by(shard) {
        let hi = (lo + shard).min(n_participants);
        let recruited = (lo..hi).map(|i| pop.generate_one(recruit_seed, i as u64)).collect();
        // The admissions merged so far are this shard's admitted base.
        let campaign = timeline_campaign(stimuli, &planes, recruited, acc.admitted, cfg, seed);
        let report = filter_timeline(&campaign, filters);
        acc.merge_all([&fold_timeline(&campaign, &report, hi - lo, &sc.params)]);
    }
    acc.into_digest(service, n_participants)
}

/// Pass 1 of the kernel: gate admissions per shard over the index
/// range `[lo, hi)`, prefix-summed into each shard's base admitted
/// index, continuing the sequence from `base` (the admissions in
/// `[0, lo)`).
/// Returns the per-shard bases and the range's total admission count —
/// what the adaptive driver carries from epoch to epoch.
pub(crate) fn admitted_bases_range(
    lo: usize,
    hi: usize,
    shard: usize,
    threads: usize,
    pop: &eyeorg_crowd::PopulationProfile,
    recruit_seed: Seed,
    base: u64,
) -> (Vec<u64>, u64) {
    let shards = (hi - lo).div_ceil(shard);
    let per_shard: Vec<u64> = par_map_range(shards, threads, |s| {
        let slo = lo + s * shard;
        let shi = (slo + shard).min(hi);
        (slo..shi)
            .filter(|&i| {
                let (pseed, class) = pop.generate_gate(recruit_seed, i as u64);
                crate::validation::captcha_admits_gate(pseed, class)
            })
            .count() as u64
    });
    let mut bases = Vec::with_capacity(shards);
    let mut acc = base;
    for &a in &per_shard {
        bases.push(acc);
        acc += a;
    }
    (bases, acc - base)
}
