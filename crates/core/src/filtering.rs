//! The §4.3 filtering strategy.
//!
//! The paper settles on four techniques, applied in this order:
//!
//! 1. **Engagement / actions** — drop participants with 50 % more video
//!    interactions than the most active trusted participant (369 seeks →
//!    threshold 553). Catches the frenetic outliers.
//! 2. **Engagement / focus** — drop participants who switched away from
//!    the Eyeorg tab for more than 10 s, *provided* the video itself was
//!    delivered within those 10 s (long transfers excuse distraction).
//! 3. **Soft rules** — drop participants who skipped (never played or
//!    scrubbed) even one video.
//! 4. **Control questions** — drop participants who failed any control.
//!
//! Finally, **wisdom of the crowd**: for timeline campaigns, keep only
//! responses between the 25th and 75th percentile of each video's
//! `UserPerceivedPLT` distribution.
//!
//! Each technique is a [`ParticipantFilter`] so experimenters can ablate
//! them individually (the `filtering` bench does exactly that).

use std::collections::BTreeSet;

use eyeorg_crowd::VideoSession;
use eyeorg_stats::percentile_band;

use crate::campaign::{AbCampaign, ByParticipant, Campaign, ControlRow, TimelineCampaign};

/// The paper's action threshold: the most active trusted participant
/// performed 369 seek actions; paid participants 50 % above that are
/// dropped.
pub const TRUSTED_MAX_SEEKS: u32 = 369;

/// Default focus filter threshold (seconds out of focus).
pub const MAX_OUT_OF_FOCUS_SECS: f64 = 10.0;

/// A participant-level filter.
pub trait ParticipantFilter {
    /// Name used in Table-1-style reports.
    fn name(&self) -> &'static str;
    /// Whether this participant should be dropped, given their sessions
    /// and control outcomes.
    fn drops(&self, sessions: &[VideoSession], controls: &[&ControlRow]) -> bool;
}

/// Filter 1: excessive interaction counts.
#[derive(Debug, Clone, Copy)]
pub struct ActionsFilter {
    /// Drop when total actions exceed this.
    pub max_actions: u32,
}

impl Default for ActionsFilter {
    fn default() -> Self {
        ActionsFilter { max_actions: TRUSTED_MAX_SEEKS + TRUSTED_MAX_SEEKS / 2 }
    }
}

impl ParticipantFilter for ActionsFilter {
    fn name(&self) -> &'static str {
        "engagement"
    }

    fn drops(&self, sessions: &[VideoSession], _controls: &[&ControlRow]) -> bool {
        sessions.iter().any(|s| s.actions() > self.max_actions)
    }
}

/// Filter 2: distraction, excused while the video is still transferring.
#[derive(Debug, Clone, Copy)]
pub struct FocusFilter {
    /// Out-of-focus seconds beyond which a participant is dropped.
    pub max_secs: f64,
}

impl Default for FocusFilter {
    fn default() -> Self {
        FocusFilter { max_secs: MAX_OUT_OF_FOCUS_SECS }
    }
}

impl ParticipantFilter for FocusFilter {
    fn name(&self) -> &'static str {
        "engagement"
    }

    fn drops(&self, sessions: &[VideoSession], _controls: &[&ControlRow]) -> bool {
        sessions.iter().any(|s| {
            s.out_of_focus.as_secs_f64() > self.max_secs
                // "...so long as the video was delivered within those 10
                // seconds": a slow transfer excuses the distraction.
                && s.video_load.as_secs_f64() <= self.max_secs
        })
    }
}

/// Filter 3: the soft rule — every video must be interacted with.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftRuleFilter;

impl ParticipantFilter for SoftRuleFilter {
    fn name(&self) -> &'static str {
        "soft"
    }

    fn drops(&self, sessions: &[VideoSession], _controls: &[&ControlRow]) -> bool {
        sessions.iter().any(|s| s.skipped)
    }
}

/// Filter 4: control questions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlFilter;

impl ParticipantFilter for ControlFilter {
    fn name(&self) -> &'static str {
        "control"
    }

    fn drops(&self, _sessions: &[VideoSession], controls: &[&ControlRow]) -> bool {
        controls.iter().any(|c| !c.passed)
    }
}

/// Outcome of running the pipeline over a campaign: Table 1's last three
/// columns plus the surviving participant set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterReport {
    /// Participants dropped by the engagement filters (actions + focus).
    pub engagement: usize,
    /// Participants dropped by the soft rule.
    pub soft: usize,
    /// Participants dropped by control questions.
    pub control: usize,
    /// Indices of participants whose responses are kept.
    pub kept: BTreeSet<usize>,
}

impl FilterReport {
    /// Total dropped.
    pub fn dropped(&self) -> usize {
        self.engagement + self.soft + self.control
    }
}

/// A filter pipeline: boxed filters applied in order. The `Send + Sync`
/// bounds let the sharded engines evaluate the same pipeline from
/// shard workers (every filter here is a plain `Copy` struct).
pub type FilterPipeline = Vec<Box<dyn ParticipantFilter + Send + Sync>>;

/// Bucket a participant lands in after the §4.3 pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// Dropped by an engagement filter (actions or focus).
    Engagement,
    /// Dropped by the soft rule.
    Soft,
    /// Dropped by a failed control question.
    Control,
    /// Responses kept.
    Kept,
}

/// Streaming-friendly filter outcome counts: [`FilterReport`] minus the
/// materialized kept-index set, so a shard can carry it in O(1) memory
/// and merge by integer addition. Checkpoint totals lines serialize it
/// as-is, so its field names are part of checkpoint format v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FilterTally {
    /// Participants dropped by the engagement filters (actions + focus).
    pub engagement: u64,
    /// Participants dropped by the soft rule.
    pub soft: u64,
    /// Participants dropped by control questions.
    pub control: u64,
    /// Participants whose responses are kept.
    pub kept: u64,
}

impl FilterTally {
    /// Fold one decision in.
    pub fn record(&mut self, d: FilterDecision) {
        match d {
            FilterDecision::Engagement => self.engagement += 1,
            FilterDecision::Soft => self.soft += 1,
            FilterDecision::Control => self.control += 1,
            FilterDecision::Kept => self.kept += 1,
        }
    }

    /// Fold another shard's tally in (exact integer adds).
    pub fn merge(&mut self, other: &FilterTally) {
        self.engagement += other.engagement;
        self.soft += other.soft;
        self.control += other.control;
        self.kept += other.kept;
    }

    /// Total dropped.
    pub fn dropped(&self) -> u64 {
        self.engagement + self.soft + self.control
    }

    /// The counts a materializing [`FilterReport`] reduces to — the
    /// overlap the streaming-equivalence tests compare.
    pub fn of_report(report: &FilterReport) -> FilterTally {
        FilterTally {
            engagement: report.engagement as u64,
            soft: report.soft as u64,
            control: report.control as u64,
            kept: report.kept.len() as u64,
        }
    }
}

/// The paper's default pipeline, in its order. A participant is
/// attributed to the *first* filter that catches them.
pub fn paper_pipeline() -> FilterPipeline {
    vec![
        Box::new(ActionsFilter::default()),
        Box::new(FocusFilter::default()),
        Box::new(SoftRuleFilter),
        Box::new(ControlFilter),
    ]
}

/// Run the pipeline over one participant and bump the filter counters.
///
/// Both engines funnel through this: the materializing [`filter_timeline`]
/// per retained participant, the sharded engines inline per shard — which
/// is what keeps their `counter_fingerprint`s byte-identical.
pub fn decide(
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    sessions: &[VideoSession],
    controls: &[&ControlRow],
) -> FilterDecision {
    let caught = filters.iter().find(|f| f.drops(sessions, controls));
    let decision = match caught.map(|f| f.name()) {
        Some("engagement") => FilterDecision::Engagement,
        Some("soft") => FilterDecision::Soft,
        Some("control") => FilterDecision::Control,
        Some(other) => unreachable!("unknown filter bucket {other}"),
        None => FilterDecision::Kept,
    };
    if let Some(name) = caught.map(|f| f.name()) {
        eyeorg_obs::metrics::CORE_FILTER_DROPS.add(name, 1);
    } else {
        eyeorg_obs::metrics::CORE_PARTICIPANTS_KEPT.incr();
    }
    decision
}

/// Judge each participant once, on their own sessions and controls.
fn run_pipeline(
    campaign: &impl Campaign,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
) -> FilterReport {
    let groups = ByParticipant::of(campaign);
    let mut report = FilterReport { engagement: 0, soft: 0, control: 0, kept: BTreeSet::new() };
    for pi in 0..campaign.participants().len() {
        match decide(filters, groups.sessions(pi), groups.controls(pi)) {
            FilterDecision::Engagement => report.engagement += 1,
            FilterDecision::Soft => report.soft += 1,
            FilterDecision::Control => report.control += 1,
            FilterDecision::Kept => {
                report.kept.insert(pi);
            }
        }
    }
    report
}

/// Apply the filter pipeline to a timeline campaign.
pub fn filter_timeline(
    campaign: &TimelineCampaign,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
) -> FilterReport {
    run_pipeline(campaign, filters)
}

/// Apply the filter pipeline to an A/B campaign.
pub fn filter_ab(
    campaign: &AbCampaign,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
) -> FilterReport {
    run_pipeline(campaign, filters)
}

/// The wisdom-of-the-crowd response filter: per-video UPLT values kept
/// within the `[lo_pct, hi_pct]` percentile band (the paper's final
/// strategy uses 25–75).
pub fn wisdom_band(responses: &[f64], lo_pct: f64, hi_pct: f64) -> Vec<f64> {
    percentile_band(responses, lo_pct, hi_pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TimelineRow;
    use eyeorg_crowd::PopulationProfile;
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;

    fn session(actions: u32, oof_secs: f64, load_secs: f64, skipped: bool) -> VideoSession {
        VideoSession {
            video_load: SimDuration::from_secs_f64(load_secs),
            time_spent: SimDuration::from_secs(60),
            seeks: actions,
            plays: 0,
            pauses: 0,
            out_of_focus: SimDuration::from_secs_f64(oof_secs),
            skipped,
        }
    }

    /// A one-participant campaign: `sessions` in order, one control.
    fn campaign(sessions: Vec<VideoSession>, passed: bool) -> TimelineCampaign {
        let rows = sessions.into_iter().enumerate();
        TimelineCampaign {
            stimuli_names: Vec::new(),
            videos: Vec::new(),
            participants: vec![PopulationProfile::paid().generate_one(Seed(0), 0)],
            recruitment_cost_usd: 0.0,
            recruitment_duration_secs: 0.0,
            rows: rows
                .map(|(stimulus, session)| TimelineRow {
                    participant: 0,
                    stimulus,
                    session,
                    response: None,
                })
                .collect(),
            controls: vec![ControlRow { participant: 0, passed }],
        }
    }

    #[test]
    fn actions_filter_threshold() {
        let f = ActionsFilter::default();
        assert_eq!(f.max_actions, 553);
        assert!(!f.drops(&[session(553, 0.0, 0.0, false)], &[]));
        assert!(f.drops(&[session(554, 0.0, 0.0, false)], &[]));
    }

    #[test]
    fn focus_filter_excuses_slow_transfers() {
        let f = FocusFilter::default();
        // 15s distracted with a fast video: dropped.
        assert!(f.drops(&[session(5, 15.0, 2.0, false)], &[]));
        // 15s distracted while the video itself took 30s to arrive: kept.
        assert!(!f.drops(&[session(5, 15.0, 30.0, false)], &[]));
        // Mild distraction: kept.
        assert!(!f.drops(&[session(5, 8.0, 2.0, false)], &[]));
    }

    #[test]
    fn soft_rule_drops_any_skip() {
        let f = SoftRuleFilter;
        assert!(!f.drops(&[session(5, 0.0, 1.0, false); 6], &[]));
        let mut sessions = vec![session(5, 0.0, 1.0, false); 5];
        sessions.push(session(0, 0.0, 1.0, true));
        assert!(f.drops(&sessions, &[]));
    }

    #[test]
    fn control_filter() {
        let f = ControlFilter;
        let pass = ControlRow { participant: 0, passed: true };
        let fail = ControlRow { participant: 0, passed: false };
        assert!(!f.drops(&[], &[&pass]));
        assert!(f.drops(&[], &[&pass, &fail]));
    }

    #[test]
    fn pipeline_attributes_to_first_matching_filter() {
        // A participant who both skipped a video and failed the control
        // counts under "soft" (the earlier filter).
        let filters = paper_pipeline();
        let report = filter_timeline(&campaign(vec![session(3, 0.0, 1.0, true)], false), &filters);
        assert_eq!(report.soft, 1);
        assert_eq!(report.control, 0);
        assert!(report.kept.is_empty());
    }

    #[test]
    fn clean_participants_kept() {
        let filters = paper_pipeline();
        let report =
            filter_timeline(&campaign(vec![session(30, 2.0, 1.0, false); 6], true), &filters);
        assert_eq!(report.dropped(), 0);
        assert!(report.kept.contains(&0));
    }

    #[test]
    fn wisdom_band_trims_tails() {
        let mut responses: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        responses.push(100.0); // wild outlier
        let kept = wisdom_band(&responses, 25.0, 75.0);
        assert!(kept.iter().all(|&v| (6.0..=16.0).contains(&v)), "{kept:?}");
        assert!(!kept.contains(&100.0));
    }
}
