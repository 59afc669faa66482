//! Packet-loss processes.
//!
//! webpeg (the paper's capture tool) records loads over real networks whose
//! loss behaviour shapes the HTTP/1.1-vs-HTTP/2 comparison: H2's single
//! connection is more sensitive to a loss event than H1's six parallel
//! ones, and the paper's A/B campaign inherits whatever the live path did.
//! The reproduction makes loss an explicit, seeded process so the protocol
//! comparison explores the same regime reproducibly.
//!
//! Two models are provided:
//!
//! * [`LossModel::Bernoulli`] — i.i.d. loss with a fixed probability.
//! * [`LossModel::GilbertElliott`] — the classic two-state bursty model:
//!   a Good state with negligible loss and a Bad state with heavy loss,
//!   with geometric sojourn times. Bursty loss is what real access links
//!   exhibit and what punishes a single congestion window the most.

use eyeorg_stats::rng::Rng;

use eyeorg_stats::Seed;

/// Configuration of a loss process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss at all (useful for controlled experiments and tests).
    None,
    /// Independent loss with probability `p` per packet.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) loss.
    GilbertElliott {
        /// Probability of moving Good → Bad at each packet.
        p_good_to_bad: f64,
        /// Probability of moving Bad → Good at each packet.
        p_bad_to_good: f64,
        /// Drop probability while in the Good state.
        loss_good: f64,
        /// Drop probability while in the Bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Average long-run loss rate implied by the model.
    pub fn mean_loss_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    return loss_good; // chain never leaves its initial (Good) state
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// A running, seeded instance of a [`LossModel`].
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    rng: Rng,
    in_bad_state: bool,
    observed_drops: u64,
    observed_packets: u64,
}

impl LossProcess {
    /// Instantiate the process with its own derived RNG stream.
    pub fn new(model: LossModel, seed: Seed) -> LossProcess {
        LossProcess {
            model,
            rng: Rng::seed_from_u64(seed.derive("loss").value()),
            in_bad_state: false,
            observed_drops: 0,
            observed_packets: 0,
        }
    }

    /// Decide the fate of the next packet: `true` means *dropped*.
    pub fn drops_next(&mut self) -> bool {
        self.observed_packets += 1;
        let dropped = match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && self.rng.random_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                // Transition first, then draw loss from the new state.
                if self.in_bad_state {
                    if p_bad_to_good > 0.0 && self.rng.random_bool(p_bad_to_good.clamp(0.0, 1.0)) {
                        self.in_bad_state = false;
                    }
                } else if p_good_to_bad > 0.0
                    && self.rng.random_bool(p_good_to_bad.clamp(0.0, 1.0))
                {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state { loss_bad } else { loss_good };
                p > 0.0 && self.rng.random_bool(p.clamp(0.0, 1.0))
            }
        };
        if dropped {
            self.observed_drops += 1;
        }
        dropped
    }

    /// Packets decided so far: the number of [`LossProcess::drops_next`]
    /// calls.
    pub(crate) fn draws(&self) -> u64 {
        self.observed_packets
    }

    /// Fraction of packets dropped so far (0 when none observed).
    pub fn observed_loss_rate(&self) -> f64 {
        if self.observed_packets == 0 {
            0.0
        } else {
            self.observed_drops as f64 / self.observed_packets as f64
        }
    }

    /// The configured model.
    pub fn model(&self) -> LossModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut p = LossProcess::new(LossModel::None, Seed(1));
        assert!((0..10_000).all(|_| !p.drops_next()));
        assert_eq!(p.observed_loss_rate(), 0.0);
    }

    #[test]
    fn bernoulli_rate_converges() {
        let mut p = LossProcess::new(LossModel::Bernoulli { p: 0.02 }, Seed(7));
        for _ in 0..100_000 {
            p.drops_next();
        }
        let r = p.observed_loss_rate();
        assert!((r - 0.02).abs() < 0.004, "observed {r}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = LossProcess::new(LossModel::Bernoulli { p: 0.1 }, seed);
            (0..100).map(|_| p.drops_next()).collect::<Vec<_>>()
        };
        assert_eq!(run(Seed(3)), run(Seed(3)));
        assert_ne!(run(Seed(3)), run(Seed(4)));
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.005,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        let mut p = LossProcess::new(model, Seed(11));
        let fates: Vec<bool> = (0..200_000).map(|_| p.drops_next()).collect();
        // Burstiness: the probability a drop follows a drop should far
        // exceed the marginal loss rate.
        let marginal = p.observed_loss_rate();
        let mut after_drop = 0u64;
        let mut drops_followed = 0u64;
        for w in fates.windows(2) {
            if w[0] {
                after_drop += 1;
                if w[1] {
                    drops_followed += 1;
                }
            }
        }
        let conditional = drops_followed as f64 / after_drop as f64;
        assert!(conditional > 2.0 * marginal, "cond {conditional} vs marg {marginal}");
        // Mean rate matches the stationary analysis (π_bad ≈ 0.0244, ×0.5).
        let expected = model.mean_loss_rate();
        assert!((marginal - expected).abs() < 0.01, "marg {marginal} vs exp {expected}");
    }

    #[test]
    fn mean_loss_rate_formulas() {
        assert_eq!(LossModel::None.mean_loss_rate(), 0.0);
        assert_eq!(LossModel::Bernoulli { p: 0.3 }.mean_loss_rate(), 0.3);
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.4,
        };
        // π_bad = 0.1/0.4 = 0.25 → mean = 0.25*0.4 = 0.1
        assert!((ge.mean_loss_rate() - 0.1).abs() < 1e-12);
    }
}
