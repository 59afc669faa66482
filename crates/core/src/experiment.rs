//! Experiment definitions: what participants are shown and asked.
//!
//! Eyeorg's two initial experiment types (§3.2):
//!
//! * **Timeline** — one page-load video with a scrubber; "drag the slider
//!   to the point where you consider the site 'ready to use'".
//! * **A/B** — two captures spliced side by side; "which loaded faster,
//!   Left, Right, or No Difference?", with the pair order randomised per
//!   showing.
//!
//! Videos are assigned so that every video collects roughly the same
//! number of responses (600 showings over 20 validation videos ≈ 30 each;
//! 6,000 over 100 final videos ≈ 60 each), and each participant receives
//! one control question (§3.3).

use std::sync::Arc;

use eyeorg_video::Video;
use eyeorg_stats::rng::Rng;

use eyeorg_stats::Seed;

/// One timeline stimulus.
///
/// Captures are held by [`Arc`]: the capture cache, the stimulus list,
/// and the finished campaign all share one allocation per distinct
/// capture instead of cloning whole paint traces around.
#[derive(Debug, Clone)]
pub struct TimelineStimulus {
    /// Site name (for reports and per-site analysis).
    pub name: String,
    /// The capture shown.
    pub video: Arc<Video>,
}

/// One A/B stimulus: the two captures of the same site under the two
/// configurations being compared ("A" = baseline, "B" = treatment).
#[derive(Debug, Clone)]
pub struct AbStimulus {
    /// Site name.
    pub name: String,
    /// Baseline capture (e.g. HTTP/1.1, or with-ads).
    pub a: Arc<Video>,
    /// Treatment capture (e.g. HTTP/2, or ad-blocked).
    pub b: Arc<Video>,
}

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Videos shown per participant (the paper uses 6).
    pub videos_per_participant: usize,
    /// Whether each participant additionally receives one control
    /// question.
    pub with_controls: bool,
    /// Worker threads for campaign execution: `0` = automatic
    /// (`EYEORG_THREADS`, else the machine's available parallelism),
    /// `1` = the sequential path, `n` = exactly `n` workers. Campaign
    /// output is byte-identical for every value — responses draw only
    /// from per-participant seed streams and merge in participant order.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig { videos_per_participant: 6, with_controls: true, threads: 0 }
    }
}

/// Why a campaign over `n_stimuli` stimuli cannot run under `cfg`, or
/// `None` when it can: the precondition every engine shares. The
/// one-shot engines assert it ([`assert_runnable`]); the checkpoint
/// entry points return it as `CheckpointError::Config`.
pub(crate) fn campaign_defect(n_stimuli: usize, cfg: &ExperimentConfig) -> Option<&'static str> {
    if n_stimuli == 0 {
        Some("campaign needs stimuli")
    } else if cfg.with_controls && cfg.videos_per_participant == 0 {
        // The control question reuses one of the participant's videos.
        Some("control questions need at least one video per participant")
    } else {
        None
    }
}

/// Panic with the [`campaign_defect`] of `n_stimuli` stimuli under
/// `cfg`, if there is one.
pub(crate) fn assert_runnable(n_stimuli: usize, cfg: &ExperimentConfig) {
    let defect = campaign_defect(n_stimuli, cfg);
    assert!(defect.is_none(), "{}", defect.unwrap_or_default());
}

/// Knobs for the adaptive early-stopping campaign driver
/// (`crate::adaptive`, DESIGN.md §3h): recruitment proceeds in
/// fixed-size epochs, and at each epoch barrier a stimulus whose UPLT
/// confidence half-width has dropped below `epsilon` stops recruiting.
///
/// Every decision is taken on order-pinned merged state at a barrier, so
/// the decision sequence — and everything downstream of it — is
/// byte-identical across shard sizes, thread counts, and chaos seeds.
/// With `epsilon = 0` and `max_n = 0` no rule can ever fire and the
/// adaptive engine is byte-identical to the plain flat kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Participants recruited between stopping evaluations. Values `< 1`
    /// are treated as 1. Smaller epochs stop closer to the ideal
    /// sequential boundary but evaluate (cheap) barriers more often.
    pub epoch: usize,
    /// Target confidence half-width, in seconds, on each stimulus's
    /// user-perceived load time; `<= 0` disables convergence stopping.
    pub epsilon: f64,
    /// Kept responses a stimulus must have before convergence stopping
    /// may fire (guards the early-n regime where intervals are
    /// untrustworthy — a 1-sample interval has width zero).
    pub min_n: u64,
    /// Hard cap on kept responses per stimulus; `0` = unbounded. A
    /// stimulus stops at the first barrier where it has at least this
    /// many kept responses even if `epsilon` is unmet.
    pub max_n: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { epoch: 8192, epsilon: 0.0, min_n: 256, max_n: 0 }
    }
}

impl AdaptiveConfig {
    /// Whether any stopping rule is in force. When `false` the adaptive
    /// driver degenerates to the plain flat kernel (and records none of
    /// the `adaptive.*` counters, keeping fingerprints identical).
    pub fn is_active(&self) -> bool {
        self.epsilon > 0.0 || self.max_n > 0
    }
}

/// Assign stimuli to a participant: a seeded draw of
/// `videos_per_participant` distinct indices, load-balanced so every
/// stimulus collects a near-equal number of showings across the campaign.
///
/// The balancing works by rotating a base window through the stimulus
/// list per participant and then shuffling the window order (what a
/// participant sees is random *order*, while coverage stays uniform).
pub fn assign(
    seed: Seed,
    participant_idx: u64,
    n_stimuli: usize,
    per_participant: usize,
) -> Vec<usize> {
    let mut picks = Vec::new();
    assign_into(seed, participant_idx, n_stimuli, per_participant, &mut picks);
    picks
}

/// [`assign`] into a caller-owned buffer (cleared first) — the flat
/// engine reuses one buffer per shard worker, so assignment allocates
/// nothing after warm-up. Contents are identical to [`assign`].
///
/// # Panics
/// Panics when `n_stimuli` is zero.
pub fn assign_into(
    seed: Seed,
    participant_idx: u64,
    n_stimuli: usize,
    per_participant: usize,
    picks: &mut Vec<usize>,
) {
    assert!(n_stimuli > 0, "no stimuli to assign");
    let k = per_participant.min(n_stimuli);
    let start = (participant_idx as usize * k) % n_stimuli;
    picks.clear();
    picks.extend((0..k).map(|j| (start + j) % n_stimuli));
    // Shuffle the presentation order deterministically.
    let mut rng =
        Rng::seed_from_u64(seed.derive_index("assign", participant_idx).value());
    for i in (1..picks.len()).rev() {
        let j = rng.random_range(0..=i);
        picks.swap(i, j);
    }
}

/// For A/B tests: whether stimulus `pair_idx` is shown to this
/// participant with A on the left (§3.2: "'A' is not always on the
/// left").
pub fn a_on_left(seed: Seed, participant_idx: u64, pair_idx: usize) -> bool {
    let mut rng = Rng::seed_from_u64(
        seed.derive_index("ab-order", participant_idx)
            .derive_index("pair", pair_idx as u64)
            .value(),
    );
    rng.random_bool(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_covers_stimuli_evenly() {
        let n_stimuli = 20;
        let per = 6;
        let mut counts = vec![0u32; n_stimuli];
        for p in 0..100 {
            for idx in assign(Seed(1), p, n_stimuli, per) {
                counts[idx] += 1;
            }
        }
        // 600 showings over 20 videos = 30 each.
        assert!(counts.iter().all(|&c| c == 30), "{counts:?}");
    }

    #[test]
    fn assignment_has_no_duplicates() {
        for p in 0..50 {
            let a = assign(Seed(2), p, 100, 6);
            let mut b = a.clone();
            b.sort_unstable();
            b.dedup();
            assert_eq!(a.len(), 6);
            assert_eq!(b.len(), 6, "participant {p} got duplicates");
        }
    }

    #[test]
    fn assignment_order_varies_but_set_is_balanced() {
        // Two participants with the same window should usually see
        // different orders.
        let n = 6; // window == whole set
        let a = assign(Seed(3), 0, n, 6);
        let b = assign(Seed(3), 1, n, 6);
        let mut sa = a.clone();
        let mut sb = b.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "same set");
        assert_ne!(a, b, "different order");
    }

    #[test]
    fn fewer_stimuli_than_requested_caps_assignment() {
        let a = assign(Seed(4), 0, 3, 6);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn ab_order_is_balanced() {
        let lefts = (0..1000)
            .filter(|&p| a_on_left(Seed(5), p, 0))
            .count();
        assert!((400..600).contains(&lefts), "{lefts}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(assign(Seed(6), 7, 50, 6), assign(Seed(6), 7, 50, 6));
        assert_eq!(a_on_left(Seed(6), 7, 3), a_on_left(Seed(6), 7, 3));
    }
}
