//! Campaign execution: recruit, serve, collect.
//!
//! A *campaign* is one recruitment drive against one experiment: the
//! validation campaigns pair 100 paid + 100 trusted participants with 20
//! videos; the final campaigns serve 100 videos to 1,000 paid
//! participants each (Table 1). This module runs a campaign end to end —
//! recruitment, stimulus assignment, per-video behaviour instrumentation,
//! response generation, and control questions — producing the raw data
//! the validation (§4) and analysis (§5) layers consume.
//!
//! This is the **materializing** engine: every showing is retained as a
//! row, which row-level consumers (viz, dataset export, ablations) need
//! but which makes memory grow with the crowd. Campaigns that only need
//! the aggregate digest should use the sharded flat kernel
//! ([`crate::flat`]) — byte-identical results (pinned by the
//! `streaming_equivalence` tests) in memory proportional to a shard.

use std::sync::Arc;

use eyeorg_crowd::{
    ab_control, behavior, timeline_control_passes, timeline_response_shared, AbAnswer,
    Participant, Recruitment, RecruitmentService, TestKind, TimelineResponse, VideoSession,
};
use eyeorg_net::SimTime;
use eyeorg_stats::{effective_pool, par_map_range, resolve_threads, Seed};
use eyeorg_video::{FrameTimeline, Video};

use crate::experiment::{
    a_on_left, assert_runnable, assign, AbStimulus, ExperimentConfig, TimelineStimulus,
};

/// One timeline showing: participant × video with the full
/// instrumentation.
#[derive(Debug, Clone)]
pub struct TimelineRow {
    /// Index into the campaign's participant list.
    pub participant: usize,
    /// Index into the stimulus list.
    pub stimulus: usize,
    /// Behaviour instrumentation for this showing.
    pub session: VideoSession,
    /// The response; `None` when the participant skipped the video.
    pub response: Option<TimelineResponse>,
}

/// Answer in stimulus space (independent of left/right presentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbVerdict {
    /// Baseline (A) felt faster.
    AFaster,
    /// Treatment (B) felt faster.
    BFaster,
    /// No perceivable difference.
    NoDifference,
}

/// One A/B showing.
#[derive(Debug, Clone)]
pub struct AbRow {
    /// Index into the campaign's participant list.
    pub participant: usize,
    /// Index into the stimulus list.
    pub stimulus: usize,
    /// Whether A was shown on the left for this participant.
    pub a_left: bool,
    /// Behaviour instrumentation.
    pub session: VideoSession,
    /// The verdict; `None` when skipped.
    pub verdict: Option<AbVerdict>,
}

/// A control-question outcome for one participant.
#[derive(Debug, Clone, Copy)]
pub struct ControlRow {
    /// Index into the participant list.
    pub participant: usize,
    /// Whether they answered the control correctly.
    pub passed: bool,
}

/// Raw data of a timeline campaign.
#[derive(Debug, Clone)]
pub struct TimelineCampaign {
    /// Stimulus names, aligned with row indices.
    pub stimuli_names: Vec<String>,
    /// Stimulus durations and onloads are still available through the
    /// retained videos (shared with the capture cache — an `Arc` each,
    /// not a copy).
    pub videos: Vec<Arc<Video>>,
    /// Recruited participants (arrival order).
    pub participants: Vec<Participant>,
    /// Recruitment economics.
    pub recruitment_cost_usd: f64,
    /// Wall time to hit the recruitment target.
    pub recruitment_duration_secs: f64,
    /// All showings.
    pub rows: Vec<TimelineRow>,
    /// Per-participant control outcomes.
    pub controls: Vec<ControlRow>,
}

/// Raw data of an A/B campaign.
#[derive(Debug, Clone)]
pub struct AbCampaign {
    /// Stimulus names.
    pub stimuli_names: Vec<String>,
    /// The A-side videos (kept for Δ analysis; shared, not copied).
    pub a_videos: Vec<Arc<Video>>,
    /// The B-side videos.
    pub b_videos: Vec<Arc<Video>>,
    /// Participants.
    pub participants: Vec<Participant>,
    /// Recruitment economics.
    pub recruitment_cost_usd: f64,
    /// Wall time to hit the recruitment target.
    pub recruitment_duration_secs: f64,
    /// All showings.
    pub rows: Vec<AbRow>,
    /// Per-participant control outcomes.
    pub controls: Vec<ControlRow>,
}

/// Run a timeline campaign: `n` participants from `service` against the
/// given stimuli.
pub fn run_timeline_campaign(
    stimuli: Vec<TimelineStimulus>,
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    seed: Seed,
) -> TimelineCampaign {
    assert_runnable(stimuli.len(), cfg);
    let _t = eyeorg_obs::phase_timer("core.timeline_campaign");
    let threads = resolve_threads(cfg.threads);
    let recruitment: Recruitment = service.recruit(seed.derive("recruit"), n_participants);
    // Hard rules first: the humanness gate turns scripts away before any
    // response is collected (§3.3).
    let gate = crate::validation::captcha_gate(recruitment.participants);
    let mut rows = Vec::new();
    let mut controls = Vec::new();
    // Branch on the pool that will actually run (an oversubscribed
    // request degrades to 1 worker on small machines): the sequential
    // engine computes rewinds lazily, so taking it when no real
    // parallelism is available avoids the parallel engine's eager
    // precompute. Output is byte-identical either way.
    if effective_pool(threads) <= 1 {
        // The sequential engine: one memoising timeline per stimulus,
        // rewinds computed lazily as participants touch frames.
        let mut frames: Vec<FrameTimeline> =
            stimuli.iter().map(|s| FrameTimeline::of(&s.video)).collect();
        for (pi, participant) in gate.admitted.iter().enumerate() {
            let picks = assign(
                seed.derive("timeline"),
                pi as u64,
                stimuli.len(),
                cfg.videos_per_participant,
            );
            for &si in &picks {
                let label = format!("tl-{si}");
                let video = &stimuli[si].video;
                let session =
                    behavior::video_session(video, participant, TestKind::Timeline, &label);
                let response = if session.skipped {
                    None
                } else {
                    Some(eyeorg_crowd::timeline_response_cached(
                        video,
                        &mut frames[si],
                        participant,
                        &label,
                    ))
                };
                rows.push(TimelineRow { participant: pi, stimulus: si, session, response });
            }
            if cfg.with_controls {
                // The control reuses one of the participant's videos with
                // a nearly-blank rewind suggestion (Fig. 3b).
                let ctrl_video = picks[0];
                let passed = timeline_control_passes(participant, &format!("tl-{ctrl_video}"));
                controls.push(ControlRow { participant: pi, passed });
            }
        }
    } else {
        // The parallel engine. Materialise one immutable timeline per
        // stimulus with the rewind table filled up front, so participant
        // workers share them read-only; the rewind scan is pure, so the
        // table holds exactly the values the lazy path would compute.
        let frames: Vec<FrameTimeline> = par_map_range(stimuli.len(), threads, |si| {
            let mut tl = FrameTimeline::of(&stimuli[si].video);
            tl.precompute_rewinds();
            tl
        });
        // Every response draws only from the participant's own derived
        // seed streams, so participants are independent work items;
        // merging in participant index order makes the row list
        // byte-identical to the sequential engine.
        let per_participant = par_map_range(gate.admitted.len(), threads, |pi| {
            let participant = &gate.admitted[pi];
            let picks = assign(
                seed.derive("timeline"),
                pi as u64,
                stimuli.len(),
                cfg.videos_per_participant,
            );
            let mut p_rows = Vec::with_capacity(picks.len());
            for &si in &picks {
                let label = format!("tl-{si}");
                let video = &stimuli[si].video;
                let session =
                    behavior::video_session(video, participant, TestKind::Timeline, &label);
                let response = if session.skipped {
                    None
                } else {
                    Some(timeline_response_shared(video, &frames[si], participant, &label))
                };
                p_rows.push(TimelineRow { participant: pi, stimulus: si, session, response });
            }
            let control = cfg.with_controls.then(|| {
                let ctrl_video = picks[0];
                let passed = timeline_control_passes(participant, &format!("tl-{ctrl_video}"));
                ControlRow { participant: pi, passed }
            });
            (p_rows, control)
        });
        for (p_rows, control) in per_participant {
            rows.extend(p_rows);
            controls.extend(control);
        }
    }
    if eyeorg_obs::enabled() {
        // Row assembly is engine-independent (the parallel merge is
        // order-pinned), so these totals are too.
        let collected = rows.iter().filter(|r| r.response.is_some()).count() as u64;
        eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(collected);
        eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(rows.len() as u64 - collected);
    }
    TimelineCampaign {
        stimuli_names: stimuli.iter().map(|s| s.name.clone()).collect(),
        videos: stimuli.into_iter().map(|s| s.video).collect(),
        participants: gate.admitted,
        recruitment_cost_usd: recruitment.cost_usd,
        recruitment_duration_secs: recruitment
            .arrivals
            .last()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
        rows,
        controls,
    }
}

/// Run an A/B campaign.
pub fn run_ab_campaign(
    stimuli: Vec<AbStimulus>,
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    seed: Seed,
) -> AbCampaign {
    assert_runnable(stimuli.len(), cfg);
    let _t = eyeorg_obs::phase_timer("core.ab_campaign");
    let threads = resolve_threads(cfg.threads);
    let recruitment: Recruitment = service.recruit(seed.derive("recruit"), n_participants);
    let gate = crate::validation::captcha_gate(recruitment.participants);

    // Participants are independent work items (see the timeline
    // campaign); merge order pins the sequential row layout. The
    // assignment and presentation-order draws use distinct seed labels —
    // "ab-assign" vs "ab-side" — so the two streams never collide.
    let per_participant = par_map_range(gate.admitted.len(), threads, |pi| {
        let participant = &gate.admitted[pi];
        let picks = assign(
            seed.derive("ab-assign"),
            pi as u64,
            stimuli.len(),
            cfg.videos_per_participant,
        );
        let mut p_rows = Vec::with_capacity(picks.len());
        for &si in &picks {
            let label = format!("ab-{si}");
            let a_left = a_on_left(seed.derive("ab-side"), pi as u64, si);
            let s = &stimuli[si];
            // The spliced video the participant downloads covers both
            // sides; behaviour is driven by the longer capture.
            let longer =
                if s.a.duration() >= s.b.duration() { &s.a } else { &s.b };
            let session = behavior::video_session(longer, participant, TestKind::Ab, &label);
            let verdict = if session.skipped {
                None
            } else {
                let (left, right) =
                    if a_left { (&s.a, &s.b) } else { (&s.b, &s.a) };
                let answer = eyeorg_crowd::ab_response(left, right, participant, &label);
                Some(match (answer, a_left) {
                    (AbAnswer::NoDifference, _) => AbVerdict::NoDifference,
                    (AbAnswer::Left, true) | (AbAnswer::Right, false) => AbVerdict::AFaster,
                    (AbAnswer::Left, false) | (AbAnswer::Right, true) => AbVerdict::BFaster,
                })
            };
            p_rows.push(AbRow { participant: pi, stimulus: si, a_left, session, verdict });
        }
        let control = cfg.with_controls.then(|| {
            let ctrl = picks[0];
            let (_, passed) = ab_control(&stimuli[ctrl].a, participant, &format!("ab-{ctrl}"));
            ControlRow { participant: pi, passed }
        });
        (p_rows, control)
    });
    let mut rows = Vec::new();
    let mut controls = Vec::new();
    for (p_rows, control) in per_participant {
        rows.extend(p_rows);
        controls.extend(control);
    }
    if eyeorg_obs::enabled() {
        let votes = rows.iter().filter(|r| r.verdict.is_some()).count() as u64;
        eyeorg_obs::metrics::CORE_AB_VOTES.add(votes);
        eyeorg_obs::metrics::CORE_AB_SKIPS.add(rows.len() as u64 - votes);
    }
    AbCampaign {
        stimuli_names: stimuli.iter().map(|s| s.name.clone()).collect(),
        a_videos: stimuli.iter().map(|s| s.a.clone()).collect(),
        b_videos: stimuli.into_iter().map(|s| s.b).collect(),
        participants: gate.admitted,
        recruitment_cost_usd: recruitment.cost_usd,
        recruitment_duration_secs: recruitment
            .arrivals
            .last()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0),
        rows,
        controls,
    }
}

/// Sessions of one participant within a campaign, in presentation order.
pub fn sessions_of(rows: &[TimelineRow], participant: usize) -> Vec<VideoSession> {
    rows.iter().filter(|r| r.participant == participant).map(|r| r.session).collect()
}

/// Same for A/B rows.
pub fn ab_sessions_of(rows: &[AbRow], participant: usize) -> Vec<VideoSession> {
    rows.iter().filter(|r| r.participant == participant).map(|r| r.session).collect()
}

/// Convenience: when a timeline row carries a response, its submitted
/// `UserPerceivedPLT` in seconds.
pub fn submitted_uplt(row: &TimelineRow) -> Option<f64> {
    row.response.map(|r| r.submitted.as_secs_f64())
}

/// A stable wall-clock anchor for a campaign (campaigns start at t = 0 of
/// their own clock; arrival offsets come from the recruitment model).
pub const CAMPAIGN_START: SimTime = SimTime::ZERO;
