//! Session behaviour: what participants *do*, beyond what they answer.
//!
//! Eyeorg instruments everything (§3.3): time on each video, play/pause/
//! seek actions, out-of-focus episodes, and whether a video was skipped.
//! §4.2 then mines these signals — Fig. 4a (time on site), Fig. 4b
//! (action counts, including the 714/724-seek anomalies), Fig. 5
//! (out-of-focus time growing with video load time L) — and §4.3 turns
//! them into filters. This module generates those signals per
//! participant/video with the couplings the paper observed:
//!
//! * paid participants take slightly *longer* than trusted ones, driven
//!   by out-of-focus time and video transfer time, not by fewer actions;
//! * distraction probability grows with how long the video took to load;
//! * timeline tests require the full preload before interaction, A/B
//!   tests can start playing immediately;
//! * 1–2 % of paid participants skip interacting with some video;
//! * frenetic participants produce hundreds of seeks in minutes.

use eyeorg_net::SimDuration;
use eyeorg_stats::rng::Rng;
use eyeorg_video::Video;

use crate::participant::{ParticipantClass, ParticipantType, Persona};

/// The experiment type the behaviour differs across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// Scrub-the-slider timeline test (full preload required).
    Timeline,
    /// Side-by-side A/B test (progressive playback).
    Ab,
}

/// Instrumentation record for one participant on one video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoSession {
    /// How long the video took to arrive (download/preload time).
    pub video_load: SimDuration,
    /// Total time spent on this video's test, *including* load and
    /// out-of-focus time.
    pub time_spent: SimDuration,
    /// Seek actions (timeline scrubbing).
    pub seeks: u32,
    /// Play actions.
    pub plays: u32,
    /// Pause actions.
    pub pauses: u32,
    /// Total time the Eyeorg tab was out of focus.
    pub out_of_focus: SimDuration,
    /// The participant never interacted with the video (soft-rule
    /// violation).
    pub skipped: bool,
}

impl VideoSession {
    /// All interactions combined.
    pub fn actions(&self) -> u32 {
        self.seeks + self.plays + self.pauses
    }
}

/// Per-`(video, kind)` constants of the behaviour model, precomputed so
/// the campaign engines pay the frame-count arithmetic once per stimulus
/// instead of once per response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProfile {
    /// Wall duration of the capture, seconds.
    pub dur_secs: f64,
    /// Download size of what the participant must fetch for this test.
    pub bytes: u64,
}

impl SessionProfile {
    /// Extract the behaviour constants for one stimulus.
    pub fn of(video: &Video, kind: TestKind) -> SessionProfile {
        SessionProfile {
            dur_secs: video.duration().as_secs_f64(),
            bytes: video_bytes_estimate(video, kind),
        }
    }
}

/// Simulate the behaviour of one participant on one stimulus. `rng` is
/// the participant's behaviour stream for the stimulus's label
/// ([`ModelSeeds::behavior`](crate::ModelSeeds::behavior), or one cell
/// of a [`ModelSeeds::session_seed`](crate::ModelSeeds::session_seed)
/// plane expanded with `Rng::seed_block`).
pub fn video_session(
    profile: &SessionProfile,
    participant: &Persona,
    kind: TestKind,
    mut rng: Rng,
) -> VideoSession {
    let video_load = preload_time(profile.bytes, participant.bandwidth_bps);

    // --- skipping (soft-rule violation) --------------------------------
    let skip_p = match (participant.ptype, participant.class) {
        (ParticipantType::Trusted, _) => 0.002,
        (_, ParticipantClass::RandomClicker) => 0.08,
        (_, ParticipantClass::Bot) => 0.30,
        (_, ParticipantClass::Sloppy) => 0.025,
        _ => 0.005,
    };
    if rng.random_bool(skip_p) {
        return VideoSession {
            video_load,
            time_spent: video_load + SimDuration::from_millis(rng.random_range(800..3_000)),
            seeks: 0,
            plays: 0,
            pauses: 0,
            out_of_focus: SimDuration::ZERO,
            skipped: true,
        };
    }

    // --- interaction counts --------------------------------------------
    let (seeks, plays, pauses) = match kind {
        TestKind::Timeline => {
            let seeks = match participant.class {
                ParticipantClass::Frenetic => rng.random_range(250..700u32),
                ParticipantClass::Diligent => rng.random_range(15..60u32),
                ParticipantClass::Average => rng.random_range(10..45u32),
                ParticipantClass::Sloppy => rng.random_range(4..15u32),
                ParticipantClass::RandomClicker => rng.random_range(1..6u32),
                ParticipantClass::Bot => rng.random_range(0..3u32),
            };
            (seeks, 0, 0)
        }
        TestKind::Ab => {
            let plays = match participant.class {
                ParticipantClass::Diligent | ParticipantClass::Average => rng.random_range(1..4u32),
                ParticipantClass::Frenetic => rng.random_range(5..20u32),
                _ => 1,
            };
            let pauses = plays.saturating_sub(1);
            (rng.random_range(0..3u32), plays, pauses)
        }
    };

    // --- out-of-focus episodes (Fig. 5) ---------------------------------
    // Distraction probability grows with the log of the load time;
    // trusted A/B participants essentially never switch away.
    let load_secs = video_load.as_secs_f64();
    let base = match (participant.ptype, kind) {
        (ParticipantType::Trusted, TestKind::Ab) => 0.002,
        (ParticipantType::Trusted, TestKind::Timeline) => 0.018,
        (ParticipantType::Paid, TestKind::Ab) => 0.035,
        (ParticipantType::Paid, TestKind::Timeline) => 0.045,
    };
    let class_mult = match participant.class {
        ParticipantClass::Diligent => 0.5,
        ParticipantClass::Average => 1.0,
        ParticipantClass::Sloppy => 2.0,
        ParticipantClass::RandomClicker => 2.5,
        ParticipantClass::Frenetic => 1.0,
        ParticipantClass::Bot => 0.0, // scripts do not get distracted
    };
    let p_distract = (base * class_mult * (1.0 + 1.6 * (1.0 + load_secs).ln())).min(0.9);
    let out_of_focus = if rng.random_bool(p_distract) {
        // Lognormal-ish episode: median ~4 s, occasionally much longer;
        // waits on slow transfers breed longer absences.
        let z = rng.standard_normal();
        let scale = 4.0 * (1.0 + load_secs / 25.0);
        SimDuration::from_secs_f64((scale * (0.9 * z).exp()).clamp(0.3, 120.0))
    } else {
        SimDuration::ZERO
    };

    // --- time accounting --------------------------------------------------
    let dur = profile.dur_secs;
    let interaction_time = match kind {
        TestKind::Timeline => {
            // Scrubbing: repeated passes over the video plus a per-seek
            // cost and the helper-decision pause.
            dur * rng.random_range(1.1..2.2)
                + f64::from(seeks) * rng.random_range(0.2..0.5)
                + rng.random_range(2.0..6.0)
        }
        TestKind::Ab => {
            // Mostly a single synchronized viewing plus a quick decision;
            // replays add fractional passes.
            dur * (1.0 + 0.25 * f64::from(plays.saturating_sub(1))) * rng.random_range(0.9..1.15)
                + rng.random_range(1.0..4.0)
        }
    };
    // Timeline requires the preload to finish before interaction; A/B
    // overlaps playback with the (progressive) download.
    let load_component = match kind {
        TestKind::Timeline => load_secs,
        TestKind::Ab => (load_secs - dur).max(0.0), // only stall overhang
    };
    let time_spent = SimDuration::from_secs_f64(
        load_component + interaction_time + out_of_focus.as_secs_f64(),
    );

    VideoSession { video_load, time_spent, seeks, plays, pauses, out_of_focus, skipped: false }
}

/// Size of what this participant must download for the test: the capture
/// itself for a timeline test; for A/B, both captures spliced side by side
/// into one file (§3.2, "if playback stalls, both sides are affected
/// equally"), so twice the bytes. This closed form in the frame count is
/// the model of the download: no frames are encoded or spliced.
fn video_bytes_estimate(video: &Video, kind: TestKind) -> u64 {
    let frames = video.frame_count() as u64;
    // The analysis grid is 64×36, but what participants download is the
    // 1280×720 webm webpeg produced: a delta codec at that resolution,
    // ≈33 kB keyframes every 50 frames and ≈4 kB per frame, giving the
    // 0.5–5 MB files whose transfer times drive Fig. 5.
    let per_frame = 4_000u64;
    let keyframes = frames / 50 + 1;
    let base = frames * per_frame + keyframes * 33_000;
    match kind {
        TestKind::Timeline => base,
        TestKind::Ab => base * 2,
    }
}

/// Time to download `bytes` at `bandwidth_bps` (bits per second).
///
/// # Panics
/// Panics when the bandwidth is zero.
fn preload_time(bytes: u64, bandwidth_bps: u64) -> SimDuration {
    assert!(bandwidth_bps > 0, "bandwidth must be positive");
    SimDuration::from_micros((bytes * 8).saturating_mul(1_000_000) / bandwidth_bps)
}

/// A participant's total time across their assigned videos (the Fig. 4a
/// "time spent on site" statistic): the instruction-reading time, drawn
/// from `rng` ([`ModelSeeds::instructions`](crate::ModelSeeds::instructions)),
/// plus each session's time, summed left to right.
pub fn total_time_on_site(
    sessions: &[VideoSession],
    participant: &Persona,
    mut rng: Rng,
) -> SimDuration {
    let secs = match participant.class {
        ParticipantClass::Diligent => rng.random_range(20.0..60.0),
        ParticipantClass::Average => rng.random_range(12.0..40.0),
        ParticipantClass::Sloppy => rng.random_range(5.0..20.0),
        ParticipantClass::RandomClicker => rng.random_range(2.0..8.0),
        ParticipantClass::Frenetic => rng.random_range(3.0..15.0),
        ParticipantClass::Bot => rng.random_range(0.1..1.0),
    };
    let mut total = SimDuration::from_secs_f64(secs);
    for s in sessions {
        total = total + s.time_spent;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::{Participant, PopulationProfile};
    use crate::ModelSeeds;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(40), 0, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(40));
        Video::capture(trace, 10, SimDuration::from_secs(4))
    }

    fn video_session(v: &Video, p: &Participant, kind: TestKind, label: &str) -> VideoSession {
        let profile = SessionProfile::of(v, kind);
        super::video_session(&profile, &p.persona(), kind, ModelSeeds::of(p.seed).behavior(label))
    }

    #[test]
    fn preload_scales_with_size_and_bandwidth() {
        assert_eq!(preload_time(1_000_000, 8_000_000), SimDuration::from_secs(1));
        assert_eq!(preload_time(1_000_000, 4_000_000), SimDuration::from_secs(2));
        assert_eq!(preload_time(0, 1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn ab_preload_is_the_splice_of_both_sides() {
        // An A/B pair is one file holding both captures, so its preload
        // is twice the timeline preload of the same capture, up to
        // `preload_time`'s rounding down to whole microseconds.
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(48), 400);
        let (mut skipped, mut served) = (0, 0);
        for p in &pop {
            let tl = video_session(&v, p, TestKind::Timeline, "v1");
            let ab = video_session(&v, p, TestKind::Ab, "v1");
            assert_eq!(tl.skipped, ab.skipped, "the skip draw does not depend on the kind");
            let (tl_us, ab_us) = (tl.video_load.as_micros(), ab.video_load.as_micros());
            assert!(
                (2 * tl_us..=2 * tl_us + 1).contains(&ab_us),
                "A/B {ab_us} µs vs timeline {tl_us} µs"
            );
            if ab.skipped {
                skipped += 1;
            } else {
                served += 1;
            }
        }
        assert!(skipped > 0 && served > 0, "{skipped} skipped, {served} served");
    }

    #[test]
    fn frenetic_participants_dominate_action_counts() {
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(41), 800);
        let mut frenetic_max = 0;
        let mut normal_max = 0;
        for p in &pop {
            let s = video_session(&v, p, TestKind::Timeline, "v1");
            if p.class == ParticipantClass::Frenetic {
                frenetic_max = frenetic_max.max(s.actions());
            } else {
                normal_max = normal_max.max(s.actions());
            }
        }
        assert!(frenetic_max > 200, "frenetic max {frenetic_max}");
        assert!(frenetic_max > 3 * normal_max / 2, "{frenetic_max} vs {normal_max}");
    }

    #[test]
    fn some_paid_participants_skip_videos() {
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(42), 1000);
        let skips: usize = pop
            .iter()
            .map(|p| {
                (0..6)
                    .filter(|i| {
                        video_session(&v, p, TestKind::Timeline, &format!("v{i}")).skipped
                    })
                    .count()
            })
            .sum();
        let rate = skips as f64 / (1000.0 * 6.0);
        assert!((0.005..0.06).contains(&rate), "skip rate {rate}");
    }

    #[test]
    fn trusted_almost_never_skip() {
        let v = video();
        let pop = PopulationProfile::trusted().generate(Seed(43), 500);
        let skips: usize = pop
            .iter()
            .filter(|p| video_session(&v, p, TestKind::Timeline, "v1").skipped)
            .count();
        assert!(skips <= 3, "trusted skips {skips}");
    }

    #[test]
    fn timeline_takes_longer_than_ab() {
        // Fig. 4a: the timeline test takes ~3x longer on average.
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(44), 300);
        let avg = |kind| {
            pop.iter()
                .map(|p| video_session(&v, p, kind, "v1").time_spent.as_secs_f64())
                .sum::<f64>()
                / 300.0
        };
        let tl = avg(TestKind::Timeline);
        let ab = avg(TestKind::Ab);
        assert!(tl > 1.5 * ab, "timeline {tl:.1}s vs A/B {ab:.1}s");
    }

    #[test]
    fn distraction_grows_with_load_time() {
        // Same population, same videos, but slower connections → longer
        // loads → more out-of-focus time (Fig. 5).
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(45), 2000);
        let focus_loss = |bw: u64| {
            pop.iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.bandwidth_bps = bw;
                    video_session(&v, &p, TestKind::Timeline, "v1")
                        .out_of_focus
                        .as_secs_f64()
                })
                .sum::<f64>()
        };
        let fast = focus_loss(50_000_000);
        let slow = focus_loss(300_000);
        assert!(slow > fast * 1.2, "slow {slow:.0}s vs fast {fast:.0}s");
    }

    #[test]
    fn sessions_deterministic() {
        let v = video();
        let p = &PopulationProfile::paid().generate(Seed(46), 1)[0];
        assert_eq!(
            video_session(&v, p, TestKind::Timeline, "v1"),
            video_session(&v, p, TestKind::Timeline, "v1")
        );
    }

    #[test]
    fn time_accounting_consistent() {
        let v = video();
        let pop = PopulationProfile::paid().generate(Seed(47), 50);
        for p in &pop {
            let sessions: Vec<VideoSession> = (0..6)
                .map(|i| video_session(&v, p, TestKind::Timeline, &format!("v{i}")))
                .collect();
            let total =
                total_time_on_site(&sessions, &p.persona(), ModelSeeds::of(p.seed).instructions());
            let sum: f64 = sessions.iter().map(|s| s.time_spent.as_secs_f64()).sum();
            assert!(total.as_secs_f64() >= sum, "total includes instruction time");
        }
    }
}
