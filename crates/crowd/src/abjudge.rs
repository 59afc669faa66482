//! A/B judgment: "which loaded faster, Left, Right, or No Difference?"
//!
//! §3.2's second experiment type. The model is a just-noticeable-
//! difference (JND) comparison: the participant forms a noisy ready
//! moment for each side (per their own readiness criterion), and answers
//! "No Difference" when the perceived gap falls below their
//! discrimination threshold — which scales with the absolute load times
//! (Weber's law), producing exactly the Δ-dependent agreement of
//! Fig. 8a.

use eyeorg_net::SimTime;
use eyeorg_stats::rng::Rng;

use crate::participant::{ParticipantClass, Persona};

/// The three allowed answers (a hard rule: participants must pick one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbAnswer {
    /// The left video loaded faster.
    Left,
    /// The right video loaded faster.
    Right,
    /// No perceivable difference.
    NoDifference,
}

/// Base discrimination threshold per phenotype, in seconds.
fn base_jnd(class: ParticipantClass) -> f64 {
    match class {
        ParticipantClass::Diligent => 0.18,
        ParticipantClass::Average => 0.28,
        ParticipantClass::Sloppy => 0.55,
        ParticipantClass::Frenetic => 0.40,
        // Rarely consulted for these two: see lapse rates.
        ParticipantClass::RandomClicker | ParticipantClass::Bot => 1.0,
    }
}

/// Probability the participant answers at random regardless of stimulus.
fn lapse_rate(class: ParticipantClass) -> f64 {
    match class {
        ParticipantClass::Diligent => 0.01,
        ParticipantClass::Average => 0.03,
        ParticipantClass::Sloppy => 0.10,
        ParticipantClass::Frenetic => 0.08,
        ParticipantClass::RandomClicker => 0.85,
        ParticipantClass::Bot => 1.0,
    }
}

/// Judge a pair of ready moments (already extracted for this
/// participant's criterion). `rng` is the participant's judgment stream
/// for the stimulus's label
/// ([`ModelSeeds::abjudge`](crate::ModelSeeds::abjudge)).
pub fn judge_pair(
    left_ready: SimTime,
    right_ready: SimTime,
    participant: &Persona,
    mut rng: Rng,
) -> AbAnswer {
    if rng.random_bool(lapse_rate(participant.class)) {
        return match rng.random_range(0..3u8) {
            0 => AbAnswer::Left,
            1 => AbAnswer::Right,
            _ => AbAnswer::NoDifference,
        };
    }
    let zl = rng.standard_normal();
    let zr = rng.standard_normal();
    let l = left_ready.as_secs_f64() * (participant.perception_noise * zl).exp();
    let r = right_ready.as_secs_f64() * (participant.perception_noise * zr).exp();
    // Weber scaling: harder to tell 10.0 s from 10.4 s than 1.0 s from
    // 1.4 s — and technically savvy participants discriminate finer
    // differences (the demographic-sensitivity question the paper's §3
    // poses as a target experiment).
    let tech = f64::from(participant.tech_savvy); // 1..=5
    let tech_factor = 1.25 - 0.10 * tech; // 1.15 (novice) .. 0.75 (expert)
    let jnd = base_jnd(participant.class) * tech_factor * (1.0 + 0.10 * ((l + r) / 2.0));
    let delta = r - l;
    if delta.abs() < jnd {
        AbAnswer::NoDifference
    } else if delta > 0.0 {
        AbAnswer::Left // right side took longer → left felt faster
    } else {
        AbAnswer::Right
    }
}

/// The §3.3 A/B control: both sides show the same capture (ready at
/// `ready` under this participant's criterion), the right one delayed
/// three seconds. Returns `(answer, passed)`; the correct answer is
/// [`AbAnswer::Left`]. `rng` is the judgment stream of the control's
/// label, as for [`judge_pair`].
pub fn ab_control(ready: SimTime, participant: &Persona, rng: Rng) -> (AbAnswer, bool) {
    let delayed = ready + eyeorg_net::SimDuration::from_secs(3);
    let answer = judge_pair(ready, delayed, participant, rng);
    (answer, answer == AbAnswer::Left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::{Participant, PopulationProfile};
    use crate::perception::true_ready_time;
    use crate::ModelSeeds;
    use eyeorg_stats::Seed;

    fn pop() -> Vec<Participant> {
        PopulationProfile::paid().generate(Seed(10), 600)
    }

    fn judge_pair(l: SimTime, r: SimTime, p: &Participant, label: &str) -> AbAnswer {
        super::judge_pair(l, r, &p.persona(), ModelSeeds::of(p.seed).abjudge(label))
    }

    fn ab_control(v: &eyeorg_video::Video, p: &Participant, label: &str) -> (AbAnswer, bool) {
        let ready = true_ready_time(v, p.readiness);
        super::ab_control(ready, &p.persona(), ModelSeeds::of(p.seed).abjudge(label))
    }

    fn vote_share(
        pop: &[Participant],
        l: f64,
        r: f64,
    ) -> (f64, f64, f64) {
        let (mut left, mut right, mut nd) = (0.0, 0.0, 0.0);
        for p in pop {
            match judge_pair(
                SimTime::from_micros((l * 1e6) as u64),
                SimTime::from_micros((r * 1e6) as u64),
                p,
                "t",
            ) {
                AbAnswer::Left => left += 1.0,
                AbAnswer::Right => right += 1.0,
                AbAnswer::NoDifference => nd += 1.0,
            }
        }
        let n = pop.len() as f64;
        (left / n, right / n, nd / n)
    }

    #[test]
    fn large_delta_yields_strong_agreement() {
        let (l, _r, _nd) = vote_share(&pop(), 2.0, 5.0);
        assert!(l > 0.75, "left share {l}");
    }

    #[test]
    fn tiny_delta_yields_no_difference_or_splits() {
        let (l, r, nd) = vote_share(&pop(), 4.0, 4.05);
        assert!(nd > 0.5, "ND share {nd}");
        assert!((l - r).abs() < 0.15, "split should be near-even: {l} vs {r}");
    }

    #[test]
    fn agreement_grows_with_delta() {
        let pop = pop();
        let agreement = |delta: f64| {
            let (l, r, nd) = vote_share(&pop, 3.0, 3.0 + delta);
            l.max(r).max(nd)
        };
        let deltas = [0.1, 0.5, 0.9, 1.3, 1.7];
        let a: Vec<f64> = deltas.iter().map(|&d| agreement(d)).collect();
        // Median agreement at the top of the sweep must clearly exceed
        // the bottom (Fig. 8a's rising trend).
        assert!(a[4] > a[0], "agreement must rise with Δ: {a:?}");
        assert!(a[4] > 0.7);
    }

    #[test]
    fn weber_scaling_makes_same_delta_harder_on_slow_pages() {
        let pop = pop();
        let correct_share = |base: f64| {
            let (l, _, _) = vote_share(&pop, base, base + 0.8);
            l
        };
        let fast = correct_share(1.0);
        let slow = correct_share(12.0);
        assert!(
            fast > slow + 0.1,
            "0.8s gap should be clearer on fast pages: {fast} vs {slow}"
        );
    }

    #[test]
    fn control_pass_rate_by_class() {
        let pop = PopulationProfile::paid().generate(Seed(11), 2000);
        let rate = |class: ParticipantClass| {
            let subset: Vec<_> = pop.iter().filter(|p| p.class == class).collect();
            let v = {
                // Build a tiny real video once for control checks.
                use eyeorg_browser::{load_page, BrowserConfig};
                use eyeorg_workload::{generate_site, SiteClass};
                let site = generate_site(Seed(12), 0, SiteClass::Landing);
                let trace = load_page(&site, &BrowserConfig::new(), Seed(12));
                eyeorg_video::Video::capture(trace, 10, eyeorg_net::SimDuration::from_secs(2))
            };
            let passed = subset.iter().filter(|p| ab_control(&v, p, "c").1).count();
            passed as f64 / subset.len().max(1) as f64
        };
        assert!(rate(ParticipantClass::Diligent) > 0.95);
        assert!(rate(ParticipantClass::RandomClicker) < 0.55);
    }

    #[test]
    fn judgments_deterministic() {
        let pop = pop();
        let p = &pop[0];
        let a = judge_pair(SimTime::from_millis(2000), SimTime::from_millis(2600), p, "x");
        let b = judge_pair(SimTime::from_millis(2000), SimTime::from_millis(2600), p, "x");
        assert_eq!(a, b);
    }
}
