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
//! the kernel's fold (pinned by the `campaign_golden` tests). Row
//! consumers judge each participant once: `ByParticipant` groups the
//! rows and controls of either kind ([`Campaign`]) in one pass.

use std::sync::Arc;

use eyeorg_crowd::{Participant, Recruitment, RecruitmentService, TimelineResponse, VideoSession};
use eyeorg_stats::{resolve_threads, Seed};
use eyeorg_video::Video;

use crate::experiment::{assert_runnable, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::flat::{planes, serve, AbPlane, TlPlane};

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
    let planes = planes(&stimuli, seed, resolve_threads(cfg.threads));
    TimelineCampaign {
        recruitment_cost_usd: recruitment.cost_usd,
        recruitment_duration_secs: recruitment.arrivals.last().map_or(0.0, |d| d.as_secs_f64()),
        ..timeline_campaign(&stimuli, &planes, recruitment.participants, 0, cfg, seed)
    }
}

/// Gate the `recruited` participants and serve the admitted ones, whose
/// admitted indices run from `base`: the timeline campaign body, run
/// over a whole drive by [`run_timeline_campaign`] and shard by shard by
/// the streaming reference. Recruitment economics are left at zero.
pub(crate) fn timeline_campaign(
    stimuli: &[TimelineStimulus],
    planes: &[TlPlane],
    recruited: Vec<Participant>,
    base: u64,
    cfg: &ExperimentConfig,
    seed: Seed,
) -> TimelineCampaign {
    // Hard rules first: the humanness gate turns scripts away before any
    // response is collected (§3.3).
    let gate = crate::validation::captcha_gate(recruited);
    let (rows, controls) = serve(planes, &gate.admitted, base, cfg, seed);
    if eyeorg_obs::enabled() {
        // Rows come in participant order at any thread count, so these
        // totals are thread-count independent too.
        let collected = rows.iter().filter(|r| r.response.is_some()).count() as u64;
        eyeorg_obs::metrics::CORE_RESPONSES_COLLECTED.add(collected);
        eyeorg_obs::metrics::CORE_RESPONSES_SKIPPED.add(rows.len() as u64 - collected);
    }
    TimelineCampaign {
        stimuli_names: stimuli.iter().map(|s| s.name.clone()).collect(),
        videos: stimuli.iter().map(|s| s.video.clone()).collect(),
        participants: gate.admitted,
        recruitment_cost_usd: 0.0,
        recruitment_duration_secs: 0.0,
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
    let planes = planes::<AbPlane>(&stimuli, seed, resolve_threads(cfg.threads));
    let (rows, controls) = serve(&planes, &gate.admitted, 0, cfg, seed);
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
        recruitment_duration_secs: recruitment.arrivals.last().map_or(0.0, |d| d.as_secs_f64()),
        rows,
        controls,
    }
}

/// A materialized campaign of either test kind, as the per-participant
/// consumers (filters, behaviour points, digests) read it.
pub trait Campaign {
    /// Gate-admitted participants, in arrival order.
    fn participants(&self) -> &[Participant];
    /// Every showing's participant index and session, in row order.
    fn sessions(&self) -> impl Iterator<Item = (usize, VideoSession)>;
    /// Per-participant control outcomes.
    fn controls(&self) -> &[ControlRow];
}

impl Campaign for TimelineCampaign {
    fn participants(&self) -> &[Participant] {
        &self.participants
    }

    fn sessions(&self) -> impl Iterator<Item = (usize, VideoSession)> {
        self.rows.iter().map(|r| (r.participant, r.session))
    }

    fn controls(&self) -> &[ControlRow] {
        &self.controls
    }
}

impl Campaign for AbCampaign {
    fn participants(&self) -> &[Participant] {
        &self.participants
    }

    fn sessions(&self) -> impl Iterator<Item = (usize, VideoSession)> {
        self.rows.iter().map(|r| (r.participant, r.session))
    }

    fn controls(&self) -> &[ControlRow] {
        &self.controls
    }
}

/// A campaign's rows and control rows grouped by participant in one
/// O(rows + participants) pass, presentation order kept. A participant
/// with no rows has an empty group; a row naming none is in none.
pub(crate) struct ByParticipant<'a> {
    /// Row indices and their sessions, participant by participant.
    rows: Vec<usize>,
    sessions: Vec<VideoSession>,
    row_start: Vec<usize>,
    controls: Vec<&'a ControlRow>,
    control_start: Vec<usize>,
}

impl<'a> ByParticipant<'a> {
    /// Group `campaign`'s rows and control rows.
    pub(crate) fn of(campaign: &'a impl Campaign) -> ByParticipant<'a> {
        let (n, controls) = (campaign.participants().len(), campaign.controls());
        let sessions: Vec<_> = campaign.sessions().collect();
        let (row_start, rows) = group(n, &sessions, |s| s.0);
        let (control_start, order) = group(n, controls, |c| c.participant);
        ByParticipant {
            sessions: rows.iter().map(|&i| sessions[i].1).collect(),
            rows,
            row_start,
            controls: order.into_iter().map(|i| &controls[i]).collect(),
            control_start,
        }
    }

    /// Participant `pi`'s row indices, in presentation order.
    pub(crate) fn rows(&self, pi: usize) -> &[usize] {
        &self.rows[self.row_start[pi]..self.row_start[pi + 1]]
    }

    /// Participant `pi`'s sessions, in presentation order.
    pub(crate) fn sessions(&self, pi: usize) -> &[VideoSession] {
        &self.sessions[self.row_start[pi]..self.row_start[pi + 1]]
    }

    /// Participant `pi`'s control outcomes.
    pub(crate) fn controls(&self, pi: usize) -> &[&'a ControlRow] {
        &self.controls[self.control_start[pi]..self.control_start[pi + 1]]
    }
}

/// Stable counting sort of `items` into groups `0..n` by `key`: the
/// `n + 1` offsets and the item indices; keys `n` and up are dropped.
fn group<T>(n: usize, items: &[T], key: impl Fn(&T) -> usize) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; n + 1];
    for k in items.iter().map(&key).filter(|&k| k < n) {
        start[k + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut order = vec![0; start[n]];
    for (i, k) in items.iter().map(key).enumerate().filter(|&(_, k)| k < n) {
        order[next[k]] = i;
        next[k] += 1;
    }
    (start, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_crowd::PopulationProfile;
    use eyeorg_net::SimDuration;

    /// A showing to `participant` whose video took `load` seconds.
    fn row(participant: usize, load: u64) -> TimelineRow {
        let session = VideoSession {
            video_load: SimDuration::from_secs(load),
            time_spent: SimDuration::from_secs(60),
            seeks: 0,
            plays: 0,
            pauses: 0,
            out_of_focus: SimDuration::ZERO,
            skipped: false,
        };
        TimelineRow { participant, stimulus: 0, session, response: None }
    }

    #[test]
    fn groups_keep_presentation_order_and_empty_participants() {
        let pop = PopulationProfile::paid();
        let campaign = TimelineCampaign {
            stimuli_names: Vec::new(),
            videos: Vec::new(),
            participants: (0..3).map(|i| pop.generate_one(Seed(0), i)).collect(),
            recruitment_cost_usd: 0.0,
            recruitment_duration_secs: 0.0,
            // Interleaved, with one row naming no participant.
            rows: vec![row(1, 1), row(0, 2), row(1, 3), row(5, 4), row(0, 5)],
            controls: vec![
                ControlRow { participant: 1, passed: false },
                ControlRow { participant: 0, passed: true },
            ],
        };
        let groups = ByParticipant::of(&campaign);
        let loads = |pi| -> Vec<u64> {
            groups.sessions(pi).iter().map(|s| s.video_load.as_micros() / 1_000_000).collect()
        };
        assert_eq!((groups.rows(0), loads(0)), (&[1, 4][..], vec![2, 5]));
        assert_eq!((groups.rows(1), loads(1)), (&[0, 2][..], vec![1, 3]));
        assert!(groups.rows(2).is_empty() && groups.sessions(2).is_empty());
        let passed = |pi| groups.controls(pi).iter().map(|c| c.passed).collect::<Vec<_>>();
        assert_eq!((passed(0), passed(1), passed(2)), (vec![true], vec![false], vec![]));
    }
}
