//! Campaign analysis: from raw rows to the paper's quantities.
//!
//! * per-video `UserPerceivedPLT` samples and their crowd aggregates
//!   (means for Fig. 7, standard deviations for Fig. 6b, distributions
//!   for Fig. 6a/9);
//! * A/B tallies, *agreement* (the fraction matching the most popular
//!   answer — Fig. 6c, Fig. 8a) and *score* ("the average score per
//!   website; 0 means the A version was faster, 1 means the B version
//!   was faster", No-Difference responses excluded — Fig. 8b/8c);
//! * Δ-bucketed agreement per PLT metric (Fig. 8a).

use eyeorg_crowd::{total_time_on_site, ModelSeeds, VideoSession};
use eyeorg_net::SimDuration;
use eyeorg_stats::{percentile_band, Summary};

use crate::campaign::{AbCampaign, AbVerdict, ByParticipant, Campaign, TimelineCampaign};
use crate::filtering::FilterReport;

/// Per-video UPLT samples (seconds) from kept participants, optionally
/// wisdom-filtered to a percentile band.
pub fn uplt_samples(
    campaign: &TimelineCampaign,
    report: &FilterReport,
    band: Option<(f64, f64)>,
) -> Vec<Vec<f64>> {
    let mut per_video: Vec<Vec<f64>> = vec![Vec::new(); campaign.stimuli_names.len()];
    for row in &campaign.rows {
        if !report.kept.contains(&row.participant) {
            continue;
        }
        if let Some(resp) = row.response {
            per_video[row.stimulus].push(resp.submitted.as_secs_f64());
        }
    }
    if let Some((lo, hi)) = band {
        for v in &mut per_video {
            *v = percentile_band(v, lo, hi);
        }
    }
    if eyeorg_obs::enabled() {
        // Zero-adds still materialise the label, so sites whose responses
        // were all filtered out appear in the report with a 0 — the
        // "silently vanished site" failure mode stays visible.
        for (name, v) in campaign.stimuli_names.iter().zip(&per_video) {
            eyeorg_obs::metrics::CORE_RETAINED_PER_SITE.add(name, v.len() as u64);
        }
    }
    per_video
}

/// The same selection, but for the *pre-helper* slider choices and the
/// helper suggestions (Fig. 7a compares submitted/slider/helper).
pub fn uplt_components(
    campaign: &TimelineCampaign,
    report: &FilterReport,
) -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> {
    let mut out: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new(), Vec::new()); campaign.stimuli_names.len()];
    for row in &campaign.rows {
        if !report.kept.contains(&row.participant) {
            continue;
        }
        if let Some(resp) = row.response {
            out[row.stimulus].0.push(resp.submitted.as_secs_f64());
            out[row.stimulus].1.push(resp.slider.as_secs_f64());
            out[row.stimulus].2.push(resp.helper.as_secs_f64());
        }
    }
    out
}

/// Crowd UPLT per video: the mean of the (band-filtered) responses, as
/// the paper computes for Fig. 7. Videos with no surviving responses get
/// `None`.
pub fn mean_uplt(
    campaign: &TimelineCampaign,
    report: &FilterReport,
    band: Option<(f64, f64)>,
) -> Vec<Option<f64>> {
    uplt_samples(campaign, report, band)
        .into_iter()
        .map(|v| Summary::of(&v).map(|s| s.mean))
        .collect()
}

/// Per-video standard deviation of UPLT (the Fig. 6b agreement measure).
pub fn uplt_stdev(
    campaign: &TimelineCampaign,
    report: &FilterReport,
    band: Option<(f64, f64)>,
) -> Vec<Option<f64>> {
    uplt_samples(campaign, report, band)
        .into_iter()
        .map(|v| Summary::of(&v).map(|s| s.stdev))
        .collect()
}

/// A/B vote tally for one stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbTally {
    /// Votes for "A felt faster".
    pub a: u32,
    /// Votes for "B felt faster".
    pub b: u32,
    /// "No Difference" votes.
    pub nd: u32,
}

impl AbTally {
    /// Total votes.
    pub fn total(&self) -> u32 {
        self.a + self.b + self.nd
    }

    /// Fold one verdict in.
    pub fn record(&mut self, v: AbVerdict) {
        match v {
            AbVerdict::AFaster => self.a += 1,
            AbVerdict::BFaster => self.b += 1,
            AbVerdict::NoDifference => self.nd += 1,
        }
    }

    /// Fold another shard's tally for the same stimulus in. Integer
    /// adds are exact and associative, so the sharded engines' merge
    /// reproduces the materializing tally byte for byte.
    pub fn merge(&mut self, other: &AbTally) {
        self.a += other.a;
        self.b += other.b;
        self.nd += other.nd;
    }

    /// Agreement: the fraction of votes matching the most popular answer
    /// (§4.2: "independent of what that answer is").
    pub fn agreement(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        Some(f64::from(self.a.max(self.b).max(self.nd)) / f64::from(total))
    }

    /// Score in `[0, 1]`: 1 means B (the treatment) felt faster, 0 means
    /// A did. No-Difference responses are excluded, matching §5.3
    /// ("the score here does not take into account the 'No Difference'
    /// responses"). `None` when every vote was No Difference.
    pub fn score(&self) -> Option<f64> {
        let decided = self.a + self.b;
        if decided == 0 {
            return None;
        }
        Some(f64::from(self.b) / f64::from(decided))
    }

    /// Fraction of No-Difference responses.
    pub fn nd_rate(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(f64::from(self.nd) / f64::from(total))
        }
    }
}

/// Tally each A/B stimulus over kept participants.
pub fn ab_tallies(campaign: &AbCampaign, report: &FilterReport) -> Vec<AbTally> {
    let mut tallies = vec![AbTally::default(); campaign.stimuli_names.len()];
    for row in &campaign.rows {
        if !report.kept.contains(&row.participant) {
            continue;
        }
        let Some(v) = row.verdict else { continue };
        tallies[row.stimulus].record(v);
    }
    tallies
}

/// Median agreement per Δ bucket (Fig. 8a): `deltas[i]` is the per-metric
/// |Δ| (seconds) of stimulus `i`; buckets are
/// `[edges[k], edges[k+1])`. Returns one `Option<f64>` per bucket (None
/// when the bucket is empty).
pub fn agreement_by_delta(
    tallies: &[AbTally],
    deltas: &[f64],
    edges: &[f64],
) -> Vec<Option<f64>> {
    assert_eq!(tallies.len(), deltas.len(), "one delta per stimulus");
    assert!(edges.len() >= 2, "need at least one bucket");
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); edges.len() - 1];
    for (t, &d) in tallies.iter().zip(deltas) {
        let Some(agree) = t.agreement() else { continue };
        for k in 0..edges.len() - 1 {
            if d >= edges[k] && d < edges[k + 1] {
                buckets[k].push(agree);
                break;
            }
        }
    }
    buckets
        .into_iter()
        .map(|b| Summary::of(&b).map(|s| s.median))
        .collect()
}

/// Behavioural aggregates for Fig. 4/5: total time on site and total
/// action count per kept-or-not participant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorPoint {
    /// Participant index.
    pub participant: usize,
    /// Total minutes spent across their videos (incl. instructions).
    pub minutes_on_site: f64,
    /// Total play/pause/seek actions.
    pub actions: u32,
    /// Total seconds out of focus.
    pub out_of_focus_secs: f64,
    /// Largest single-video load time, seconds (Fig. 5's `L`).
    pub max_video_load_secs: f64,
}

impl BehaviorPoint {
    /// The point of a participant who sat through `sessions` and spent
    /// `total` on site. The max load is taken on integer durations:
    /// `as_secs_f64` is monotone, so the bits are the same.
    pub(crate) fn of(participant: usize, sessions: &[VideoSession], total: SimDuration) -> Self {
        BehaviorPoint {
            participant,
            minutes_on_site: total.as_secs_f64() / 60.0,
            actions: sessions.iter().map(|s| s.actions()).sum(),
            out_of_focus_secs: sessions.iter().map(|s| s.out_of_focus.as_secs_f64()).sum(),
            max_video_load_secs: sessions
                .iter()
                .map(|s| s.video_load)
                .max()
                .unwrap_or_default()
                .as_secs_f64(),
        }
    }
}

/// Compute behaviour aggregates for every participant of a campaign of
/// either kind (the unfiltered view §4.2 analyses).
pub fn behavior_points(campaign: &impl Campaign) -> Vec<BehaviorPoint> {
    let groups = ByParticipant::of(campaign);
    campaign
        .participants()
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let sessions = groups.sessions(pi);
            let instructions = ModelSeeds::of(p.seed).instructions();
            let total = total_time_on_site(sessions, &p.persona(), instructions);
            BehaviorPoint::of(pi, sessions, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_agreement_and_score() {
        let t = AbTally { a: 2, b: 6, nd: 2 };
        assert_eq!(t.total(), 10);
        assert_eq!(t.agreement(), Some(0.6));
        assert_eq!(t.score(), Some(0.75));
        assert_eq!(t.nd_rate(), Some(0.2));
    }

    #[test]
    fn tally_degenerate_cases() {
        assert_eq!(AbTally::default().agreement(), None);
        let all_nd = AbTally { a: 0, b: 0, nd: 5 };
        assert_eq!(all_nd.score(), None);
        assert_eq!(all_nd.agreement(), Some(1.0));
    }

    #[test]
    fn agreement_by_delta_buckets() {
        let tallies = vec![
            AbTally { a: 9, b: 1, nd: 0 },  // high agreement, small delta
            AbTally { a: 5, b: 5, nd: 0 },  // low agreement, small delta
            AbTally { a: 10, b: 0, nd: 0 }, // full agreement, big delta
        ];
        let deltas = vec![0.1, 0.2, 1.0];
        let edges = vec![0.0, 0.5, 2.0];
        let med = agreement_by_delta(&tallies, &deltas, &edges);
        assert_eq!(med.len(), 2);
        assert!((med[0].unwrap() - 0.7).abs() < 1e-9); // median of 0.9, 0.5
        assert!((med[1].unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one delta per stimulus")]
    fn agreement_by_delta_length_mismatch() {
        agreement_by_delta(&[AbTally::default()], &[0.1, 0.2], &[0.0, 1.0]);
    }
}

/// Sensitivity of one demographic slice in an A/B campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DemographicSensitivity {
    /// Slice label, e.g. "tech 4-5" or "female".
    pub label: String,
    /// Kept participants in the slice.
    pub participants: usize,
    /// Votes cast by the slice (excluding skips).
    pub votes: usize,
    /// Fraction of votes that were decided (not "No Difference") — the
    /// direct read-out of how sensitive the slice is to load-time deltas.
    pub decided_rate: f64,
    /// Of the decided votes, the fraction agreeing with each stimulus's
    /// majority decision (a proxy for discrimination accuracy without
    /// ground truth, per the paper's wisdom-of-the-crowd argument).
    pub majority_agreement: f64,
}

/// Break an A/B campaign's sensitivity down by demographic slices —
/// the paper's "which demographics are more sensitive to PLT speedup?"
/// (§3) — over the kept participants.
pub fn ab_demographics(
    campaign: &AbCampaign,
    report: &FilterReport,
) -> Vec<DemographicSensitivity> {
    use eyeorg_crowd::Gender;
    let tallies = ab_tallies(campaign, report);
    let majority: Vec<Option<AbVerdict>> = tallies
        .iter()
        .map(|t| {
            if t.total() == 0 {
                None
            } else if t.a >= t.b && t.a >= t.nd {
                Some(AbVerdict::AFaster)
            } else if t.b >= t.a && t.b >= t.nd {
                Some(AbVerdict::BFaster)
            } else {
                Some(AbVerdict::NoDifference)
            }
        })
        .collect();

    let groups = ByParticipant::of(campaign);
    let slice = |label: &str, member: &dyn Fn(&eyeorg_crowd::Participant) -> bool| {
        let mut participants = 0usize;
        let mut votes = 0usize;
        let mut decided = 0usize;
        let mut agree = 0usize;
        for (pi, p) in campaign.participants.iter().enumerate() {
            if !report.kept.contains(&pi) || !member(p) {
                continue;
            }
            participants += 1;
            for row in groups.rows(pi).iter().map(|&i| &campaign.rows[i]) {
                let Some(v) = row.verdict else { continue };
                votes += 1;
                if v != AbVerdict::NoDifference {
                    decided += 1;
                    if majority[row.stimulus] == Some(v) {
                        agree += 1;
                    }
                }
            }
        }
        DemographicSensitivity {
            label: label.to_owned(),
            participants,
            votes,
            decided_rate: decided as f64 / votes.max(1) as f64,
            majority_agreement: agree as f64 / decided.max(1) as f64,
        }
    };

    vec![
        slice("tech 1-2", &|p| p.tech_savvy <= 2),
        slice("tech 3", &|p| p.tech_savvy == 3),
        slice("tech 4-5", &|p| p.tech_savvy >= 4),
        slice("male", &|p| p.gender == Gender::Male),
        slice("female", &|p| p.gender == Gender::Female),
    ]
}
