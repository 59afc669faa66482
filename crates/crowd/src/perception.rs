//! Human perception of "ready to use".
//!
//! This is the generative counterpart of everything the platform
//! measures: a participant watches a capture, forms an internal "the page
//! is ready" moment according to their own criterion (§6 shows
//! participants genuinely differ — main-content people, wait-for-
//! everything people, first-impression people), perceives it with noise,
//! overshoots with the slider (§3.2 observed both trusted and paid
//! participants overshooting), and then negotiates with the frame-
//! selection helper (Fig. 3).
//!
//! `UserPerceivedPLT` in the reproduction is therefore *generated* here
//! and *measured back* by `eyeorg-core`'s pipeline; the gap between the
//! two is precisely what Fig. 7 quantifies.

use eyeorg_net::SimTime;
use eyeorg_video::Video;
use eyeorg_stats::rng::Rng;

use crate::participant::{ParticipantClass, Persona, ReadinessCriterion};

/// The moment a page becomes "ready" under a given criterion, extracted
/// from the capture's viewport-visible paint stream.
///
/// * `FirstImpression` — the document has painted its first viewport
///   bands and 60 % of the viewport's eventually-painted primary area is
///   in place.
/// * `MainContent` — the last *primary* (document/image) initial paint.
/// * `AllContent` — the last initial paint of any kind (ads and widgets
///   included; creative rotations do not count — §6's "I know the page
///   isn't totally done … I just don't care" refers to content, not ad
///   churn).
pub fn true_ready_time(video: &Video, criterion: ReadinessCriterion) -> SimTime {
    let fold = video.trace().fold_y;
    let viewport_initial = || {
        video
            .trace()
            .paints
            .iter()
            .filter(move |p| p.generation == 0)
            .filter_map(move |p| p.rect.above_fold(fold).map(|r| (p, r)))
    };
    match criterion {
        ReadinessCriterion::MainContent => viewport_initial()
            // Everything except ads counts as "main" content: §6's
            // comments single out ads as the thing people don't wait
            // for, while social widgets read as page content.
            .filter(|(p, _)| p.kind != eyeorg_browser::PaintKind::Ad)
            .map(|(p, _)| p.time)
            .next_back()
            .unwrap_or(SimTime::ZERO),
        ReadinessCriterion::AllContent => {
            viewport_initial().map(|(p, _)| p.time).next_back().unwrap_or(SimTime::ZERO)
        }
        ReadinessCriterion::FirstImpression => {
            let total: u64 = viewport_initial()
                .filter(|(p, _)| p.kind.is_primary())
                .map(|(_, r)| r.area())
                .sum();
            if total == 0 {
                return SimTime::ZERO;
            }
            let target = (total as f64 * 0.6) as u64;
            let mut acc = 0u64;
            for (p, r) in viewport_initial().filter(|(p, _)| p.kind.is_primary()) {
                acc += r.area();
                if acc >= target {
                    return p.time;
                }
            }
            SimTime::ZERO
        }
    }
}

/// The ready moment under each of the three criteria, extracted once per
/// video so batch engines index by criterion instead of rescanning the
/// paint stream per response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTimes {
    /// [`ReadinessCriterion::MainContent`].
    pub main_content: SimTime,
    /// [`ReadinessCriterion::AllContent`].
    pub all_content: SimTime,
    /// [`ReadinessCriterion::FirstImpression`].
    pub first_impression: SimTime,
}

impl ReadyTimes {
    /// Extract all three ready moments from one capture.
    pub fn of(video: &Video) -> ReadyTimes {
        ReadyTimes {
            main_content: true_ready_time(video, ReadinessCriterion::MainContent),
            all_content: true_ready_time(video, ReadinessCriterion::AllContent),
            first_impression: true_ready_time(video, ReadinessCriterion::FirstImpression),
        }
    }

    /// The ready moment for one criterion.
    pub fn get(&self, criterion: ReadinessCriterion) -> SimTime {
        match criterion {
            ReadinessCriterion::MainContent => self.main_content,
            ReadinessCriterion::AllContent => self.all_content,
            ReadinessCriterion::FirstImpression => self.first_impression,
        }
    }
}

/// Frame clock of a capture: everything the slider math needs, without
/// the capture itself. Mirrors `Video::frame_time`/`frame_index_at`
/// exactly (same integer arithmetic, same clamping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameClock {
    dur_us: u64,
    step_us: u64,
    frame_count: usize,
}

impl FrameClock {
    fn of(video: &Video) -> FrameClock {
        FrameClock {
            dur_us: video.duration().as_micros().max(1),
            step_us: 1_000_000 / u64::from(video.fps()),
            frame_count: video.frame_count(),
        }
    }

    fn frame_index_at(&self, t: SimTime) -> usize {
        ((t.as_micros() / self.step_us) as usize).min(self.frame_count - 1)
    }

    fn frame_time(&self, i: usize) -> SimTime {
        SimTime::from_micros(i.min(self.frame_count - 1) as u64 * self.step_us)
    }
}

/// Per-stimulus constants of the timeline response model — the ready
/// moments, the first-visible floor, and the frame clock — extracted
/// once so the flat campaign engine's inner loop touches no `Video`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineStimulusProfile {
    clock: FrameClock,
    ready: ReadyTimes,
    first_visible_us: f64,
}

impl TimelineStimulusProfile {
    /// Extract the response-model constants for one capture.
    pub fn of(video: &Video) -> TimelineStimulusProfile {
        TimelineStimulusProfile {
            clock: FrameClock::of(video),
            ready: ReadyTimes::of(video),
            first_visible_us: first_visible_us(video),
        }
    }
}

/// Time of the first viewport-visible paint, in µs (the floor below
/// which no coherent participant reports "ready").
fn first_visible_us(video: &Video) -> f64 {
    let fold = video.trace().fold_y;
    video
        .trace()
        .paints
        .iter()
        .find(|p| p.rect.above_fold(fold).is_some())
        .map(|p| p.time.as_micros() as f64)
        .unwrap_or(0.0)
}

/// One timeline-test interaction, end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineResponse {
    /// The participant's internal (noisy) ready moment.
    pub perceived: SimTime,
    /// Where they initially left the slider (frame-quantised; includes
    /// overshoot).
    pub slider: SimTime,
    /// The frame helper's rewind suggestion for that slider position.
    pub helper: SimTime,
    /// What they submitted.
    pub submitted: SimTime,
    /// Whether they accepted the helper's suggestion.
    pub accepted_helper: bool,
}

/// Simulate one participant answering one timeline test, against the
/// stimulus's precomputed constants and flat rewind table — the
/// kernel's inner-loop entry: no `Video`, no timeline, no allocation.
///
/// `rewinds[i]` must be the rewind suggestion for frame `i`
/// (`FrameTimeline::rewind_table`); `rng` is the participant's
/// perception stream for the stimulus's label
/// ([`ModelSeeds::perception`](crate::ModelSeeds::perception)), so the
/// same participant answers their videos independently but reproducibly.
pub fn timeline_response(
    profile: &TimelineStimulusProfile,
    rewinds: &[usize],
    participant: &Persona,
    mut rng: Rng,
) -> TimelineResponse {
    let clock = &profile.clock;
    let dur_us = clock.dur_us;

    if matches!(participant.class, ParticipantClass::RandomClicker | ParticipantClass::Bot)
        && rng.random_bool(if participant.class == ParticipantClass::Bot { 1.0 } else { 0.6 })
    {
        // Pays no attention: drags the slider somewhere — often all the
        // way to an end, the head/tail pattern of Fig. 6a.
        let t = if rng.random_bool(0.5) {
            let edge = if rng.random_bool(0.5) { 0.02 } else { 0.98 };
            SimTime::from_micros((dur_us as f64 * edge) as u64)
        } else {
            SimTime::from_micros(rng.random_range(0..dur_us))
        };
        // Quantising returns the frame's own time, so the slider's frame
        // index is the one just computed — no second division.
        let slider_frame = clock.frame_index_at(t);
        let slider = clock.frame_time(slider_frame);
        // Blindly accepts whatever the helper proposes.
        let helper = clock.frame_time(rewinds[slider_frame]);
        return TimelineResponse {
            perceived: t,
            slider,
            helper,
            submitted: helper,
            accepted_helper: true,
        };
    }

    let ready = profile.ready.get(participant.readiness);
    // Multiplicative perception noise (Weber-like: error scales with the
    // magnitude being judged).
    let z = rng.standard_normal();
    // Participants are *watching* the video: no one coherent reports
    // "ready" on a frame where nothing has appeared yet, so perception
    // is floored at the first viewport-visible paint.
    let perceived_us = (ready.as_micros() as f64 * (participant.perception_noise * z).exp())
        .max(profile.first_visible_us);
    let perceived = SimTime::from_micros(perceived_us.min(dur_us as f64) as u64);
    // Scrubbing overshoot: participants settle late, then (maybe) let
    // the helper pull them back.
    let overshoot_frac = participant.overshoot * rng.random_range(0.3..1.0);
    let slider_us = (perceived_us * (1.0 + overshoot_frac)).min(dur_us as f64);
    // As above: the quantised slider time maps back to the same frame
    // index, so compute it once and reuse it for the helper lookup.
    let slider_frame = clock.frame_index_at(SimTime::from_micros(slider_us as u64));
    let slider = clock.frame_time(slider_frame);

    let helper = clock.frame_time(rewinds[slider_frame]);

    // Acceptance: participants accept the rewind when it does not
    // contradict their internal ready moment by much.
    let disagreement =
        (perceived_us - helper.as_micros() as f64).abs() / perceived_us.max(500_000.0);
    let accept_p = match participant.class {
        ParticipantClass::Diligent | ParticipantClass::Average => {
            if disagreement < 0.25 {
                0.92
            } else {
                0.25
            }
        }
        ParticipantClass::Sloppy => 0.75,
        ParticipantClass::Frenetic => 0.6,
        ParticipantClass::RandomClicker | ParticipantClass::Bot => 0.85,
    };
    let accepted_helper = rng.random_bool(accept_p);
    let submitted = if accepted_helper { helper } else { slider };
    TimelineResponse { perceived, slider, helper, submitted, accepted_helper }
}

/// Outcome of the timeline control question (a nearly-blank frame is
/// proposed as the rewind; §3.3): `true` = the participant correctly
/// kept their own choice. `rng` is the participant's perception stream
/// for the `"ctrl-"`-prefixed label of the control video.
pub fn timeline_control_passes(participant: &Persona, mut rng: Rng) -> bool {
    let reject_p = match participant.class {
        ParticipantClass::Diligent => 0.995,
        ParticipantClass::Average => 0.98,
        ParticipantClass::Sloppy => 0.90,
        ParticipantClass::Frenetic => 0.92,
        ParticipantClass::RandomClicker => 0.40,
        ParticipantClass::Bot => 0.25,
    };
    rng.random_bool(reject_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::{Participant, PopulationProfile};
    use crate::ModelSeeds;
    use eyeorg_stats::Seed;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_video::FrameTimeline;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(30), 0, SiteClass::News);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(30));
        Video::capture(trace, 10, SimDuration::from_secs(5))
    }

    /// One participant's answer on `v` under `label`.
    fn timeline_response(v: &Video, p: &Participant, label: &str) -> TimelineResponse {
        let mut tl = FrameTimeline::of(v);
        tl.precompute_rewinds();
        let (profile, rewinds) = (TimelineStimulusProfile::of(v), tl.rewind_table());
        let rng = ModelSeeds::of(p.seed).perception(label);
        super::timeline_response(&profile, &rewinds, &p.persona(), rng)
    }

    /// One participant's control answer on the video labelled `label`.
    fn timeline_control_passes(p: &Participant, label: &str) -> bool {
        let rng = ModelSeeds::of(p.seed).perception(&format!("ctrl-{label}"));
        super::timeline_control_passes(&p.persona(), rng)
    }

    #[test]
    fn criteria_are_ordered() {
        let v = video();
        let fi = true_ready_time(&v, ReadinessCriterion::FirstImpression);
        let mc = true_ready_time(&v, ReadinessCriterion::MainContent);
        let ac = true_ready_time(&v, ReadinessCriterion::AllContent);
        assert!(fi <= mc, "first impression before main content");
        assert!(mc <= ac, "main content before everything");
        assert!(fi > SimTime::ZERO);
    }

    #[test]
    fn responses_deterministic_per_label() {
        let v = video();
        let p = &PopulationProfile::paid().generate(Seed(1), 1)[0];
        assert_eq!(timeline_response(&v, p, "v1"), timeline_response(&v, p, "v1"));
        assert_ne!(
            timeline_response(&v, p, "v1").submitted,
            timeline_response(&v, p, "v2").submitted
        );
    }

    #[test]
    fn slider_overshoots_then_helper_rewinds() {
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(2), 60);
        let mut slid_late = 0;
        let mut helper_not_after_slider = true;
        for p in pop.iter().filter(|p| p.class != ParticipantClass::RandomClicker) {
            let r = timeline_response(&v, p, "v1");
            if r.slider >= r.perceived {
                slid_late += 1;
            }
            if r.helper > r.slider {
                helper_not_after_slider = false;
            }
        }
        assert!(slid_late > 40, "overshoot should dominate: {slid_late}");
        assert!(helper_not_after_slider, "helper only ever rewinds");
    }

    #[test]
    fn submissions_cluster_near_ready_for_good_participants() {
        let v = video();
        let pop = PopulationProfile::trusted().generate(Seed(3), 40);
        for p in &pop {
            let r = timeline_response(&v, p, "v1");
            let ready = true_ready_time(&v, p.readiness).as_secs_f64();
            let sub = r.submitted.as_secs_f64();
            assert!(
                (sub - ready).abs() < ready.max(1.0) * 0.8 + 1.0,
                "submission {sub} wildly off ready {ready} for {:?}",
                p.class
            );
        }
    }

    #[test]
    fn control_pass_rates_by_class() {
        let pop = PopulationProfile::paid().generate(Seed(4), 3000);
        let rate = |class: ParticipantClass| {
            let subset: Vec<_> = pop.iter().filter(|p| p.class == class).collect();
            let passed = subset
                .iter()
                .filter(|p| timeline_control_passes(p, "c1"))
                .count();
            passed as f64 / subset.len().max(1) as f64
        };
        assert!(rate(ParticipantClass::Diligent) > 0.97);
        assert!(rate(ParticipantClass::RandomClicker) < 0.6);
    }

    #[test]
    fn random_clickers_spread_over_video() {
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(5), 400);
        let clickers: Vec<_> =
            pop.iter().filter(|p| p.class == ParticipantClass::RandomClicker).collect();
        assert!(clickers.len() > 10);
        let subs: Vec<f64> = clickers
            .iter()
            .map(|p| timeline_response(&v, p, "v1").submitted.as_secs_f64())
            .collect();
        let spread = eyeorg_stats::Summary::of(&subs).unwrap();
        // Their answers spread across a large chunk of the video, unlike
        // coherent participants.
        assert!(spread.stdev > 0.15 * v.duration().as_secs_f64(), "stdev {}", spread.stdev);
    }
}
