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
//! This module keeps the **rows**: every showing is retained, which
//! row-level consumers (viz, dataset export, ablations) need but which
//! makes memory grow with the crowd. It owns recruitment, the
//! humanness gate and the row types; the serving itself is the flat
//! kernel's one per-participant pipeline ([`crate::flat`]), which
//! either keeps rows (here) or folds them shard by shard into a digest
//! in memory proportional to a shard. The digest of these rows equals
//! the kernel's fold (pinned by the `campaign_golden` tests).

use std::sync::Arc;

use eyeorg_crowd::{Participant, Recruitment, RecruitmentService, TimelineResponse, VideoSession};
use eyeorg_stats::Seed;
use eyeorg_video::Video;

use crate::experiment::{assert_runnable, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::flat::{serve, AbPlane, TlPlane};

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
    let recruitment: Recruitment = service.recruit(seed.derive("recruit"), n_participants);
    // Hard rules first: the humanness gate turns scripts away before any
    // response is collected (§3.3).
    let gate = crate::validation::captcha_gate(recruitment.participants);
    let (rows, controls) = serve::<TlPlane>(&stimuli, &gate.admitted, cfg, seed);
    if eyeorg_obs::enabled() {
        // Rows come in participant order at any thread count, so these
        // totals are thread-count independent too.
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
    let recruitment: Recruitment = service.recruit(seed.derive("recruit"), n_participants);
    let gate = crate::validation::captcha_gate(recruitment.participants);
    let (rows, controls) = serve::<AbPlane>(&stimuli, &gate.admitted, cfg, seed);
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
