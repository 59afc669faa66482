//! The streaming, sharded campaign engine.
//!
//! `campaign::run_timeline_campaign` materializes every showing before
//! the filter/analysis layers touch it, so memory grows with the crowd
//! and the row-scanning filters go quadratic. This module runs the same
//! seeded per-participant generation **shard by shard**: the participant
//! range is split into fixed-size shards, each shard worker regenerates
//! its participants from the campaign seed (`generate_one` is
//! index-addressed, so no participant list is ever materialized), runs
//! the gate → assignment → behaviour → perception → filter pipeline
//! inline, and folds the results into the mergeable accumulators of
//! [`crate::digest`]. Shards execute via `par_map_range` and merge in
//! shard-index order; since every accumulator's state is
//! multiset-determined, the digest — and the obs `counter_fingerprint` —
//! is byte-identical at any thread count and any shard size, and equal
//! to the materializing path's digest (pinned by the
//! `streaming_equivalence` tests).
//!
//! ## The admitted-index pre-pass
//!
//! Stimulus assignment is keyed by the participant's *admitted* index
//! (the count of gate-admitted participants before them), which depends
//! on every earlier gate decision. A shard can't know its base offset
//! locally, so the engine runs two passes: pass 1 counts gate
//! admissions per shard (pure — `validation::captcha_admits` draws only
//! from the participant's own seed stream and bumps nothing), a
//! sequential prefix sum turns the counts into per-shard bases, and
//! pass 2 generates, serves, filters, and folds with those bases. The
//! regeneration cost is two cheap participant draws per index — far
//! below one video session.

use eyeorg_crowd::fastpath::{
    self, timeline_control_seeded, timeline_response_shared_seeded, video_session_seeded,
};
use eyeorg_crowd::{AbAnswer, ModelSeeds, Persona, RecruitmentService, SessionProfile, TestKind};
use eyeorg_stats::{par_map_range, resolve_threads, Seed};
use eyeorg_video::FrameTimeline;

use crate::analysis::BehaviorPoint;
use crate::campaign::{AbVerdict, ControlRow};
use crate::checkpoint::{digest_of, ShardKind};
use crate::digest::{AbDigest, DigestParams, TimelineDigest};
use crate::experiment::{a_on_left, assign, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::filtering::{decide, FilterDecision, ParticipantFilter};

/// Sharding configuration for the streaming engine.
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

pub(crate) use shard::{AbShard, TlShard};

/// The shard accumulators, nominally `pub` inside this private module:
/// the public checkpoint aliases (`checkpoint::TimelineCheckpoint` is
/// `Checkpoint<TlShard>`) can name them, nothing outside the crate can
/// reach them.
mod shard {
    use crate::digest::{
        AbStimulusDigest, BehaviorDigest, ControlTally, DigestParams, StimulusDigest,
    };
    use crate::experiment::{AbStimulus, TimelineStimulus};
    use crate::filtering::FilterTally;

    /// One shard's fold of a timeline campaign. Shared with the flat
    /// engine (`crate::flat`), which fills the same accumulators from its
    /// column passes, with the adaptive driver (`crate::adaptive`), which
    /// additionally accumulates epochs of folds into one, and with the
    /// checkpoint layer (`crate::checkpoint`), which snapshots a clone of
    /// the running accumulator at shard barriers.
    #[derive(Debug, Clone)]
    pub struct TlShard {
        pub(crate) stimuli: Vec<StimulusDigest>,
        pub(crate) behavior: BehaviorDigest,
        pub(crate) filters: FilterTally,
        pub(crate) controls: ControlTally,
        pub(crate) admitted: u64,
        pub(crate) rejected: u64,
        pub(crate) collected: u64,
        pub(crate) skipped: u64,
        /// Gate-admitted participants never served because every stimulus
        /// they were assigned had already stopped recruiting (adaptive runs
        /// only; always 0 under an all-live mask). They still consume an
        /// admitted index so later assignments match the full run.
        pub(crate) pruned: u64,
    }

    impl TlShard {
        /// An empty shard fold sized for `stimuli`.
        pub(crate) fn new(stimuli: &[TimelineStimulus], params: &DigestParams) -> TlShard {
            TlShard {
                stimuli: stimuli
                    .iter()
                    .map(|st| {
                        StimulusDigest::new(&st.name, st.video.duration().as_secs_f64(), params)
                    })
                    .collect(),
                behavior: BehaviorDigest::default(),
                filters: FilterTally::default(),
                controls: ControlTally::default(),
                admitted: 0,
                rejected: 0,
                collected: 0,
                skipped: 0,
                pruned: 0,
            }
        }
    }

    /// One shard's fold of an A/B campaign. Shared with the flat engine
    /// and the checkpoint layer.
    #[derive(Debug, Clone)]
    pub struct AbShard {
        pub(crate) stimuli: Vec<AbStimulusDigest>,
        pub(crate) behavior: BehaviorDigest,
        pub(crate) filters: FilterTally,
        pub(crate) controls: ControlTally,
        pub(crate) admitted: u64,
        pub(crate) rejected: u64,
        pub(crate) cast: u64,
        pub(crate) skipped: u64,
    }

    impl AbShard {
        /// An empty shard fold sized for `stimuli`.
        pub(crate) fn new(stimuli: &[AbStimulus]) -> AbShard {
            AbShard {
                stimuli: stimuli.iter().map(|st| AbStimulusDigest::new(&st.name)).collect(),
                behavior: BehaviorDigest::default(),
                filters: FilterTally::default(),
                controls: ControlTally::default(),
                admitted: 0,
                rejected: 0,
                cast: 0,
                skipped: 0,
            }
        }

        /// Bump the A/B engine's obs counters from this shard's totals.
        pub(crate) fn bump_counters(&self) {
            eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(self.admitted);
            eyeorg_obs::metrics::CORE_GATE_REJECTED.add(self.rejected);
            eyeorg_obs::metrics::CORE_AB_VOTES.add(self.cast);
            eyeorg_obs::metrics::CORE_AB_SKIPS.add(self.skipped);
        }
    }
}

/// Everything a timeline shard fold reads: the shared read-only
/// campaign state, bundled so the streaming engine and the adaptive
/// epoch driver run the *same* inner loop.
pub(crate) struct TlCtx<'a> {
    pub(crate) stimuli: &'a [TimelineStimulus],
    pub(crate) frames: &'a [FrameTimeline],
    pub(crate) pop: &'a eyeorg_crowd::PopulationProfile,
    pub(crate) cfg: &'a ExperimentConfig,
    pub(crate) filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    pub(crate) recruit_seed: Seed,
    pub(crate) assign_seed: Seed,
    pub(crate) params: DigestParams,
    /// Per-stimulus `"tl-{si}"` labels, formatted once per campaign
    /// instead of once per (participant, stimulus) cell.
    pub(crate) labels: Vec<String>,
    /// Per-stimulus `"ctrl-tl-{si}"` control labels.
    pub(crate) ctrl_labels: Vec<String>,
    /// Per-stimulus behaviour-model constants.
    pub(crate) profiles: Vec<SessionProfile>,
}

impl<'a> TlCtx<'a> {
    /// Bundle the shared read-only campaign state, precomputing the
    /// per-stimulus label and session-profile caches the inner loops
    /// used to rebuild per cell.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stimuli: &'a [TimelineStimulus],
        frames: &'a [FrameTimeline],
        pop: &'a eyeorg_crowd::PopulationProfile,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        params: DigestParams,
    ) -> TlCtx<'a> {
        let labels = (0..stimuli.len()).map(|si| format!("tl-{si}")).collect();
        let ctrl_labels = (0..stimuli.len()).map(|si| format!("ctrl-tl-{si}")).collect();
        let profiles =
            stimuli.iter().map(|st| SessionProfile::of(&st.video, TestKind::Timeline)).collect();
        TlCtx {
            stimuli,
            frames,
            pop,
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive("timeline"),
            params,
            labels,
            ctrl_labels,
            profiles,
        }
    }
}

/// The timeline engine's inner loop over participant indices
/// `[lo, hi)` with admitted-index base `base`, folding into one
/// [`TlShard`] under a per-stimulus `live` mask.
///
/// Mask semantics (the determinism backbone of `crate::adaptive`):
///
/// * **Serve all picks** — a served participant runs every assigned
///   session, control, filter, and behaviour draw exactly as the full
///   run would, even for stopped stimuli, so filter outcomes never
///   depend on *other* stimuli's masks.
/// * **Push only live** — kept responses are folded only into live
///   stimuli, so a live stimulus's digest is the full run's digest
///   truncated at its own stop point.
/// * **Prune whole participants** — when *no* assigned stimulus is
///   live, the participant is never trait-generated or served (that is
///   the saving), but still consumes their admitted index.
///
/// Under an all-live mask this is byte-identical (draws, pushes, and
/// counter totals) to the pre-adaptive streaming loop.
pub(crate) fn tl_fold_range(
    ctx: &TlCtx<'_>,
    lo: usize,
    hi: usize,
    base: u64,
    live: &[bool],
) -> TlShard {
    let all_live = live.iter().all(|&l| l);
    let mut fold = TlShard::new(ctx.stimuli, &ctx.params);
    let mut pi = base;
    for i in lo..hi {
        // Demand-driven generation: pause the trait stream at the class
        // draw, gate on the (independent) captcha stream, and pay for
        // the remaining trait draws only when the participant is
        // actually served. Gate-rejected and adaptive-pruned
        // participants skip the model work their outputs never reach.
        let cur = ctx.pop.start_traits(ctx.recruit_seed, i as u64);
        if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
            fold.rejected += 1;
            continue;
        }
        let my_pi = pi;
        pi += 1;
        let picks =
            assign(ctx.assign_seed, my_pi, ctx.stimuli.len(), ctx.cfg.videos_per_participant);
        if !all_live && !picks.iter().any(|&si| live[si]) {
            fold.pruned += 1;
            continue;
        }
        let p = cur.finish(ctx.pop);
        let mseeds = ModelSeeds::of(p.seed);
        fold.admitted += 1;
        let mut sessions = Vec::with_capacity(picks.len());
        let mut responses: Vec<(usize, f64)> = Vec::with_capacity(picks.len());
        for &si in &picks {
            let label = &ctx.labels[si];
            let session =
                video_session_seeded(&ctx.profiles[si], &p, TestKind::Timeline, &mseeds, label);
            if session.skipped {
                fold.skipped += 1;
            } else {
                let resp = timeline_response_shared_seeded(
                    &ctx.stimuli[si].video,
                    &ctx.frames[si],
                    &p,
                    &mseeds,
                    label,
                );
                fold.collected += 1;
                responses.push((si, resp.submitted.as_secs_f64()));
            }
            sessions.push(session);
        }
        let control = ctx.cfg.with_controls.then(|| {
            let passed = timeline_control_seeded(&p, &mseeds, &ctx.ctrl_labels[picks[0]]);
            ControlRow { participant: my_pi as usize, passed }
        });
        if let Some(c) = &control {
            fold.controls.record(c.passed);
        }
        let ctrl_refs: Vec<&ControlRow> = control.iter().collect();
        let d = decide(ctx.filters, &sessions, &ctrl_refs);
        fold.filters.record(d);
        if d == FilterDecision::Kept {
            for &(si, secs) in &responses {
                if live[si] {
                    fold.stimuli[si].push(secs);
                }
            }
        }
        fold.behavior.push(&behavior_point_persona(my_pi as usize, &sessions, &p, &mseeds));
    }
    fold
}

/// Precompute the shared read-only frame timelines for a stimulus set.
pub(crate) fn tl_frames(stimuli: &[TimelineStimulus], threads: usize) -> Vec<FrameTimeline> {
    par_map_range(stimuli.len(), threads, |si| {
        let mut tl = FrameTimeline::of(&stimuli[si].video);
        tl.precompute_rewinds();
        tl
    })
}

/// One adaptive epoch through the streaming engine: shard the index
/// range `[lo, hi)`, fold each shard under `live` (pass 1 computes the
/// range's admitted bases, continuing from `base_admitted`), and return
/// the folds in shard order plus the range's gate-admission count.
pub(crate) fn stream_tl_epoch(
    ctx: &TlCtx<'_>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
    live: &[bool],
) -> (Vec<TlShard>, u64) {
    let shards = (hi - lo).div_ceil(shard);
    let (bases, range_admitted) =
        admitted_bases_range(lo, hi, shard, threads, ctx.pop, ctx.recruit_seed, base_admitted);
    let folds: Vec<TlShard> = par_map_range(shards, threads, |s| {
        let slo = lo + s * shard;
        let shi = (slo + shard).min(hi);
        let fold = tl_fold_range(ctx, slo, shi, bases[s], live);
        bump_shard_counters(&fold);
        fold
    });
    (folds, range_admitted)
}

/// Run a timeline campaign through the streaming engine: `n`
/// participants from `service`, gated, served, filtered by `filters`,
/// and folded into a [`TimelineDigest`] — without materializing rows.
///
/// Byte-identical to `run_timeline_campaign` + `filter_timeline` +
/// `digest_timeline` on the same inputs (digest *and* counter
/// fingerprint), at any thread count and shard size.
pub fn stream_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> TimelineDigest {
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.stream_timeline");
    let threads = resolve_threads(cfg.threads);
    let pop = service.population();
    // Shared read-only frame timelines, as in the parallel engine.
    let frames = tl_frames(stimuli, threads);
    let ctx = TlCtx::new(stimuli, &frames, &pop, cfg, filters, seed, sc.params);
    let live = vec![true; stimuli.len()];
    let (folds, _) =
        stream_tl_epoch(&ctx, 0, n_participants, threads, sc.shard_size.max(1), 0, &live);
    merge_shards(stimuli, service, n_participants, &sc.params, &folds)
}

/// Order-pinned merge of shard folds into the final digest (the
/// accumulators are multiset-determined, so the pinning is
/// belt-and-braces on top of exact associativity). Shared by every
/// engine; the same assembly as `Checkpoint::finalize`, whose error
/// path same-campaign folds cannot reach.
pub(crate) fn merge_shards<K: ShardKind>(
    stimuli: &[K::Stimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    params: &DigestParams,
    folds: &[K],
) -> K::Digest {
    let digest = digest_of(stimuli, service, n_participants, params, folds);
    // lint:allow(D4): same-campaign shard folds share one construction site
    digest.expect("same-campaign shard folds agree by construction")
}

pub(crate) fn bump_shard_counters(fold: &TlShard) {
    eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(fold.admitted);
    eyeorg_obs::metrics::CORE_GATE_REJECTED.add(fold.rejected);
    eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(fold.collected);
    eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(fold.skipped);
    // Zero under an all-live mask, so non-adaptive runs (and ε = 0
    // adaptive runs) leave the counter untouched.
    eyeorg_obs::metrics::ADAPTIVE_PARTICIPANTS_SAVED.add(fold.pruned);
    if eyeorg_obs::enabled() {
        // Zero-adds materialise the per-site label, mirroring the
        // materializing path (`digest_timeline`).
        for s in &fold.stimuli {
            eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(&s.name, s.retained());
        }
    }
}

/// Everything an A/B shard fold reads — the A/B counterpart of
/// [`TlCtx`], shared by the streaming engine and the checkpoint
/// workers so both run the *same* inner loop.
pub(crate) struct AbCtx<'a> {
    pub(crate) stimuli: &'a [AbStimulus],
    pub(crate) pop: &'a eyeorg_crowd::PopulationProfile,
    pub(crate) cfg: &'a ExperimentConfig,
    pub(crate) filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    pub(crate) recruit_seed: Seed,
    pub(crate) assign_seed: Seed,
    pub(crate) side_seed: Seed,
    /// Per-stimulus `"ab-{si}"` labels, formatted once per campaign.
    pub(crate) labels: Vec<String>,
    /// Per-stimulus behaviour profile of the longer capture (what the
    /// participant must sit through).
    pub(crate) profiles: Vec<SessionProfile>,
}

impl<'a> AbCtx<'a> {
    /// Bundle the shared read-only campaign state, precomputing the
    /// per-stimulus label and session-profile caches.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stimuli: &'a [AbStimulus],
        pop: &'a eyeorg_crowd::PopulationProfile,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
    ) -> AbCtx<'a> {
        let labels = (0..stimuli.len()).map(|si| format!("ab-{si}")).collect();
        let profiles = stimuli
            .iter()
            .map(|st| {
                let longer = if st.a.duration() >= st.b.duration() { &st.a } else { &st.b };
                SessionProfile::of(longer, TestKind::Ab)
            })
            .collect();
        AbCtx {
            stimuli,
            pop,
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive("ab-assign"),
            side_seed: seed.derive("ab-side"),
            labels,
            profiles,
        }
    }
}

/// The A/B engine's inner loop over participant indices `[lo, hi)`
/// with admitted-index base `base`, folding into one [`AbShard`].
pub(crate) fn ab_fold_range(ctx: &AbCtx<'_>, lo: usize, hi: usize, base: u64) -> AbShard {
    let mut fold = AbShard::new(ctx.stimuli);
    let mut pi = base;
    for i in lo..hi {
        // Demand-driven generation, as in the timeline loop: gate on
        // the class-only trait prefix; rejected participants never pay
        // for the rest of their trait draws.
        let cur = ctx.pop.start_traits(ctx.recruit_seed, i as u64);
        if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
            fold.rejected += 1;
            continue;
        }
        let my_pi = pi;
        pi += 1;
        fold.admitted += 1;
        let p = cur.finish(ctx.pop);
        let mseeds = ModelSeeds::of(p.seed);
        let picks =
            assign(ctx.assign_seed, my_pi, ctx.stimuli.len(), ctx.cfg.videos_per_participant);
        let mut sessions = Vec::with_capacity(picks.len());
        let mut verdicts: Vec<(usize, AbVerdict)> = Vec::with_capacity(picks.len());
        for &si in &picks {
            let label = &ctx.labels[si];
            let a_left = a_on_left(ctx.side_seed, my_pi, si);
            let st = &ctx.stimuli[si];
            let session =
                video_session_seeded(&ctx.profiles[si], &p, TestKind::Ab, &mseeds, label);
            let acc = &mut fold.stimuli[si];
            acc.shows += 1;
            if a_left {
                acc.a_left_shows += 1;
            }
            if session.skipped {
                fold.skipped += 1;
            } else {
                let (left, right) = if a_left { (&st.a, &st.b) } else { (&st.b, &st.a) };
                let answer = fastpath::ab_response_seeded(left, right, &p, &mseeds, label);
                fold.cast += 1;
                verdicts.push((
                    si,
                    match (answer, a_left) {
                        (AbAnswer::NoDifference, _) => AbVerdict::NoDifference,
                        (AbAnswer::Left, true) | (AbAnswer::Right, false) => AbVerdict::AFaster,
                        (AbAnswer::Left, false) | (AbAnswer::Right, true) => AbVerdict::BFaster,
                    },
                ));
            }
            sessions.push(session);
        }
        let control = ctx.cfg.with_controls.then(|| {
            let ctrl = picks[0];
            let ready = eyeorg_crowd::true_ready_time(&ctx.stimuli[ctrl].a, p.readiness);
            let (_, passed) = fastpath::ab_control_seeded(ready, &p, &mseeds, &ctx.labels[ctrl]);
            ControlRow { participant: my_pi as usize, passed }
        });
        if let Some(c) = &control {
            fold.controls.record(c.passed);
        }
        let ctrl_refs: Vec<&ControlRow> = control.iter().collect();
        let d = decide(ctx.filters, &sessions, &ctrl_refs);
        fold.filters.record(d);
        if d == FilterDecision::Kept {
            for &(si, v) in &verdicts {
                fold.stimuli[si].tally.record(v);
            }
        }
        fold.behavior.push(&behavior_point_persona(my_pi as usize, &sessions, &p, &mseeds));
    }
    fold
}

/// One epoch through the A/B streaming engine: shard the index range
/// `[lo, hi)`, fold each shard (pass 1 computes the range's admitted
/// bases, continuing from `base_admitted`), and return the folds in
/// shard order plus the range's gate-admission count — the A/B
/// counterpart of [`stream_tl_epoch`].
pub(crate) fn stream_ab_epoch(
    ctx: &AbCtx<'_>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
) -> (Vec<AbShard>, u64) {
    let shards = (hi - lo).div_ceil(shard);
    let (bases, range_admitted) =
        admitted_bases_range(lo, hi, shard, threads, ctx.pop, ctx.recruit_seed, base_admitted);
    let folds: Vec<AbShard> = par_map_range(shards, threads, |s| {
        let slo = lo + s * shard;
        let shi = (slo + shard).min(hi);
        let fold = ab_fold_range(ctx, slo, shi, bases[s]);
        fold.bump_counters();
        fold
    });
    (folds, range_admitted)
}

/// Run an A/B campaign through the streaming engine. Byte-identical to
/// `run_ab_campaign` + `filter_ab` + `digest_ab` on the same inputs.
pub fn stream_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> AbDigest {
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.stream_ab");
    let threads = resolve_threads(cfg.threads);
    let pop = service.population();
    let ctx = AbCtx::new(stimuli, &pop, cfg, filters, seed);
    let shard = sc.shard_size.max(1);
    let (folds, _) = stream_ab_epoch(&ctx, 0, n_participants, threads, shard, 0);

    merge_shards(stimuli, service, n_participants, &sc.params, &folds)
}

/// Pass 1 of every engine: gate admissions per shard over the index
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

/// The behaviour-scatter point for one served participant, with the
/// instruction-time draw taken from the hoisted `"behavior"` parent.
/// Shared by the streaming and flat engines.
pub(crate) fn behavior_point_persona(
    participant: usize,
    sessions: &[eyeorg_crowd::VideoSession],
    p: &Persona,
    seeds: &ModelSeeds,
) -> BehaviorPoint {
    let total = fastpath::total_time_on_site_seeded(sessions, p, seeds);
    BehaviorPoint {
        participant,
        minutes_on_site: total.as_secs_f64() / 60.0,
        actions: sessions.iter().map(|s| s.actions()).sum(),
        out_of_focus_secs: sessions.iter().map(|s| s.out_of_focus.as_secs_f64()).sum(),
        max_video_load_secs: sessions
            .iter()
            .map(|s| s.video_load.as_secs_f64())
            .fold(0.0, f64::max),
    }
}
