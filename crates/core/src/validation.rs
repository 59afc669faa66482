//! Hard rules: the gates participants pass *before* any response counts.
//!
//! §3.3's first validation layer. Two of the hard rules are structural in
//! this codebase (every A/B answer is one of Left/Right/NoDifference by
//! type; a timeline response is always a frame on the slider), so what
//! remains to model is the **humanness gate**: "we also use Google's
//! 'I'm not a robot' service to verify 'humanness' before participants
//! take tests." Human participants pass it essentially always; the
//! payment-farming scripts in the paid pool almost never do — which is
//! why the *after-the-fact* filters of §4.3 only ever see human
//! pathologies (sloppiness, distraction), not automation.

use eyeorg_crowd::{Participant, ParticipantClass};
use eyeorg_stats::rng::Rng;

/// Pass probability of the humanness check for a real person (misfires
/// are rare but exist: broken challenges, accessibility issues).
pub const HUMAN_PASS_RATE: f64 = 0.995;

/// Pass probability for a script (2016-era CAPTCHA-solving services made
/// this non-zero but small).
pub const BOT_PASS_RATE: f64 = 0.08;

/// Outcome of gating a recruited cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Participants admitted to the experiment, in arrival order.
    pub admitted: Vec<Participant>,
    /// Count turned away at the gate (not part of any campaign table —
    /// the paper's Table 1 only ever counts admitted participants).
    pub rejected: usize,
}

/// Whether one participant passes the "I'm not a robot" gate.
///
/// Pure and side-effect free: the decision draws only from the
/// participant's own derived seed stream and bumps no obs counter;
/// [`captcha_gate`] applies it to a whole cohort and reports totals.
pub fn captcha_admits(p: &Participant) -> bool {
    captcha_admits_gate(p.seed, p.class)
}

/// [`captcha_admits`] from just the gate-relevant traits — the derived
/// participant seed and the class, i.e. what
/// `PopulationProfile::generate_gate` draws. The counting pre-passes of
/// the sharded engines evaluate this without generating a persona (or
/// the materializing path's per-participant country `String`).
pub fn captcha_admits_gate(seed: eyeorg_stats::Seed, class: ParticipantClass) -> bool {
    let mut rng = Rng::seed_from_u64(seed.derive("captcha").value());
    let pass_rate = if class == ParticipantClass::Bot {
        BOT_PASS_RATE
    } else {
        HUMAN_PASS_RATE
    };
    rng.random_bool(pass_rate)
}

/// Apply the "I'm not a robot" gate to a recruited cohort.
pub fn captcha_gate(participants: Vec<Participant>) -> GateReport {
    let mut admitted = Vec::with_capacity(participants.len());
    let mut rejected = 0;
    for p in participants {
        if captcha_admits(&p) {
            admitted.push(p);
        } else {
            rejected += 1;
        }
    }
    eyeorg_obs::metrics::CORE_GATE_ADMITTED.add(admitted.len() as u64);
    eyeorg_obs::metrics::CORE_GATE_REJECTED.add(rejected as u64);
    GateReport { admitted, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_crowd::PopulationProfile;
    use eyeorg_stats::Seed;

    #[test]
    fn gate_blocks_bots_not_humans() {
        let pop = PopulationProfile::paid().generate(Seed(1), 2000);
        let bots_before =
            pop.iter().filter(|p| p.class == ParticipantClass::Bot).count();
        let humans_before = pop.len() - bots_before;
        let report = captcha_gate(pop);
        let bots_after = report
            .admitted
            .iter()
            .filter(|p| p.class == ParticipantClass::Bot)
            .count();
        let humans_after = report.admitted.len() - bots_after;
        assert!(bots_before > 20, "population contains bots: {bots_before}");
        assert!(
            (bots_after as f64) < 0.25 * bots_before as f64,
            "gate must stop most bots: {bots_after}/{bots_before}"
        );
        assert!(
            (humans_after as f64) > 0.98 * humans_before as f64,
            "gate must not harm humans: {humans_after}/{humans_before}"
        );
        assert_eq!(report.admitted.len() + report.rejected, 2000);
    }

    #[test]
    fn trusted_cohort_passes_untouched_modulo_misfires() {
        let pop = PopulationProfile::trusted().generate(Seed(2), 500);
        let report = captcha_gate(pop);
        assert!(report.rejected <= 8, "rejected {}", report.rejected);
    }

    #[test]
    fn gate_only_draw_matches_full_generation() {
        // The pre-pass shortcut (class-only draw) must agree with the
        // full participant path for every index, on both pools.
        for pop in [PopulationProfile::paid(), PopulationProfile::trusted()] {
            for i in 0..2000u64 {
                let full = captcha_admits(&pop.generate_one(Seed(9), i));
                let (pseed, class) = pop.generate_gate(Seed(9), i);
                assert_eq!(captcha_admits_gate(pseed, class), full, "i={i}");
            }
        }
    }

    #[test]
    fn gate_deterministic() {
        let pop = PopulationProfile::paid().generate(Seed(3), 300);
        assert_eq!(captcha_gate(pop.clone()), captcha_gate(pop));
    }
}
