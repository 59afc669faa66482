//! Participants: who takes Eyeorg's tests.
//!
//! §4 of the paper contrasts two pools — 100 **trusted** participants
//! (friends/colleagues who "promised full commitment") and paid
//! crowdworkers from CrowdFlower's "historically trustworthy" tier — and
//! finds ~20 % of the paid pool must be filtered: distracted workers,
//! video skippers, control-question failures, and two spectacular
//! outliers performing 714/724 seek actions ("we conjecture a browser
//! extension might have been used"). The population model here generates
//! exactly those phenotypes, with mixing weights chosen so the *paper's
//! own filter statistics* (Table 1) are reproducible.

use eyeorg_stats::rng::Rng;
use serde::{Deserialize, Serialize};

use eyeorg_stats::Seed;

/// Reported gender (the paper reports a binary split: 75/25 in the
/// validation pools, 70/30 in the final campaigns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Gender {
    /// Male.
    Male,
    /// Female.
    Female,
}

/// Trusted (recruited via email/social media) vs paid crowdworker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParticipantType {
    /// Friends/colleagues with promised commitment.
    Trusted,
    /// Paid crowdsourcing worker.
    Paid,
}

/// Behavioural phenotype, the latent variable the validation pipeline
/// tries to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParticipantClass {
    /// Careful, engaged, follows instructions.
    Diligent,
    /// Normal worker: mostly careful, occasionally imprecise.
    Average,
    /// Rushes, overshoots, sometimes skips interactions.
    Sloppy,
    /// Clicks through for the payment; answers carry little signal.
    RandomClicker,
    /// The 700-seek anomaly: enormous action counts in little time.
    Frenetic,
    /// Not a person at all: a script farming task payments. Mostly
    /// stopped at the door by the "I'm not a robot" gate (§3.3's hard
    /// rules); the survivors answer instantly and randomly.
    Bot,
}

/// What a participant means by "ready to use" (§6: left deliberately
/// open; three interpretations emerge from the response distributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadinessCriterion {
    /// Ready once the *main* content is in place ("I selected the one
    /// where the main content loaded first").
    MainContent,
    /// Waits for everything, ads and widgets included ("when I don't
    /// know what is on the site … I want to wait for everything").
    AllContent,
    /// Satisfied by the first substantial impression (text + hero).
    FirstImpression,
}

/// A generated participant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Participant {
    /// Unique id within a campaign.
    pub id: u64,
    /// Pool.
    pub ptype: ParticipantType,
    /// Latent phenotype.
    pub class: ParticipantClass,
    /// Reported gender.
    pub gender: Gender,
    /// Reported country (ISO-ish short label).
    pub country: String,
    /// Self-assessed technical ability, 1–5.
    pub tech_savvy: u8,
    /// The participant's own downlink (their videos must be downloaded).
    pub bandwidth_bps: u64,
    /// Interpretation of "ready to use".
    pub readiness: ReadinessCriterion,
    /// Multiplicative perception noise (lognormal sigma).
    pub perception_noise: f64,
    /// Tendency to overshoot with the slider before the helper corrects.
    pub overshoot: f64,
    /// Private RNG stream seed.
    pub seed: Seed,
}

impl Participant {
    /// The allocation-free trait view of this participant (everything the
    /// behaviour/perception/judgment models consume). The flat campaign
    /// engine generates [`Persona`]s directly; this accessor lets the
    /// row-materialising paths share the exact same model entry points.
    pub fn persona(&self) -> Persona {
        Persona {
            id: self.id,
            ptype: self.ptype,
            class: self.class,
            tech_savvy: self.tech_savvy,
            bandwidth_bps: self.bandwidth_bps,
            readiness: self.readiness,
            perception_noise: self.perception_noise,
            overshoot: self.overshoot,
            seed: self.seed,
        }
    }
}

/// The `Copy` trait-core of a [`Participant`]: every field the response
/// models draw on, none of the reporting-only ones (gender, country).
///
/// The flat campaign engine regenerates shards of these into plain
/// arrays; keeping the struct `Copy` (no `String` country) is what lets
/// a shard's persona column live in reusable scratch without per-row
/// allocation. Draw-compatible with [`Participant`]: for the same pool,
/// seed and index, `generate_persona(..)` and `generate_one(..).persona()`
/// are identical, field for field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Persona {
    /// Unique id within a campaign.
    pub id: u64,
    /// Pool.
    pub ptype: ParticipantType,
    /// Latent phenotype.
    pub class: ParticipantClass,
    /// Self-assessed technical ability, 1–5.
    pub tech_savvy: u8,
    /// The participant's own downlink.
    pub bandwidth_bps: u64,
    /// Interpretation of "ready to use".
    pub readiness: ReadinessCriterion,
    /// Multiplicative perception noise (lognormal sigma).
    pub perception_noise: f64,
    /// Tendency to overshoot with the slider before the helper corrects.
    pub overshoot: f64,
    /// Private RNG stream seed.
    pub seed: Seed,
}

/// The seed policy of the response models: every draw a participant
/// makes comes from the leaf stream `seed → activity → label`, with
/// activity `"behavior"` (sessions, instructions), `"perception"`
/// (timeline responses and controls) or `"abjudge"` (A/B judgments and
/// controls), and no stream shared between activities or labels. This
/// is the only code that writes that derivation down.
///
/// Two consequences the campaign kernel relies on:
///
/// 1. **Hoisting.** The activity parent depends only on the
///    participant, so it is derived once per participant and each
///    per-cell leaf costs a single label hash.
/// 2. **Elision.** A draw whose value is never consumed can be skipped
///    (whole streams) or advanced value-free (draws feeding later ones
///    on the same stream) without perturbing any consumed draw — see
///    [`TraitCursor`] and `Rng::skip_u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSeeds {
    behavior: Seed,
    perception: Seed,
    abjudge: Seed,
}

impl ModelSeeds {
    /// Derive all three activity parents from a participant seed.
    #[inline]
    pub fn of(seed: Seed) -> ModelSeeds {
        ModelSeeds {
            behavior: seed.derive("behavior"),
            perception: seed.derive("perception"),
            abjudge: seed.derive("abjudge"),
        }
    }

    /// The raw leaf seed of a behaviour stream — what the flat kernel's
    /// per-stimulus seed plane stores before bulk-expanding generator
    /// states with `Rng::seed_block`.
    #[inline]
    pub fn session_seed(&self, label: &str) -> u64 {
        self.behavior.derive(label).value()
    }

    /// The behaviour stream for one stimulus label (a video session).
    #[inline]
    pub fn behavior(&self, label: &str) -> Rng {
        Rng::seed_from_u64(self.session_seed(label))
    }

    /// The behaviour stream of the instruction-reading time.
    #[inline]
    pub fn instructions(&self) -> Rng {
        self.behavior("instructions")
    }

    /// The perception stream for one stimulus label (a timeline
    /// response), or a `"ctrl-"`-prefixed label (a timeline control).
    #[inline]
    pub fn perception(&self, label: &str) -> Rng {
        Rng::seed_from_u64(self.perception.derive(label).value())
    }

    /// The judgment stream for one A/B stimulus label (a vote or an A/B
    /// control).
    #[inline]
    pub fn abjudge(&self, label: &str) -> Rng {
        Rng::seed_from_u64(self.abjudge.derive(label).value())
    }
}

/// A weighted mixture compiled into a cumulative-threshold prefix table.
///
/// The reference selection, the test-only `pick_weighted_ref`, re-sums
/// the weights and walks them subtractively on *every* draw; with three
/// mixture picks per participant that linear re-summation is pure
/// per-draw overhead in `draw_traits`. `WeightTable` hoists the work to
/// construction: one `total` (the same left-to-right weight sum, so the
/// `random_range(0.0..total)` draw consumes identical RNG bits) and one
/// cumulative threshold per item, after which a draw is a single scan
/// against precomputed bounds.
///
/// Determinism is bit-exact, not approximate: naive prefix sums can
/// disagree with the subtractive loop by an ulp at band boundaries
/// (`x < cum[i]` vs `x ⊖ w₀ ⊖ … < wᵢ` round differently), so each
/// threshold is *refined at construction* by a bit-level binary search
/// over `f64::to_bits` against the reference classifier. Both selectors
/// are monotone step functions of the draw, so threshold agreement makes
/// them provably identical for every representable `x` — the
/// draw-identity regression test probes the boundaries ulp by ulp.
#[derive(Debug, Clone)]
pub struct WeightTable<T> {
    items: Vec<T>,
    /// Exclusive upper threshold per item: item `i` is selected by the
    /// first `i` with `x < cum[i]`. `cum[last]` is `total`.
    cum: Vec<f64>,
    total: f64,
}

impl<T: Copy> WeightTable<T> {
    /// Compile a `(item, weight)` mixture. Weights need not sum to 1.
    pub fn new(mix: &[(T, f64)]) -> WeightTable<T> {
        assert!(!mix.is_empty(), "empty mixture");
        let weights: Vec<f64> = mix.iter().map(|&(_, w)| w).collect();
        let total: f64 = weights.iter().sum();
        let mut cum = Vec::with_capacity(mix.len());
        for i in 1..mix.len() {
            cum.push(boundary(&weights, i, total));
        }
        cum.push(total);
        WeightTable { items: mix.iter().map(|&(v, _)| v).collect(), cum, total }
    }

    /// Draw one item: the same single `random_range(0.0..total)` draw as
    /// the subtractive reference, the same selection for every
    /// representable draw value.
    pub fn pick(&self, rng: &mut Rng) -> T {
        let x: f64 = rng.random_range(0.0..self.total);
        for (i, &c) in self.cum.iter().enumerate() {
            if x < c {
                return self.items[i];
            }
        }
        // lint:allow(D4): tables are built from non-empty mixtures; rounding can leave x past the last band
        *self.items.last().expect("non-empty mixture")
    }

    /// The compiled thresholds (exposed for the identity regression
    /// test).
    pub fn thresholds(&self) -> &[f64] {
        &self.cum
    }

    /// The weight total the draw is scaled by.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Which band the subtractive reference loop assigns `x` to.
fn subtractive_band(weights: &[f64], x: f64) -> usize {
    let mut x = x;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The smallest non-negative `x` (by bit-level binary search — `to_bits`
/// is monotone on non-negative floats) that the subtractive reference
/// classifies into band `>= i`. Draws land in `[0, total)`, so the
/// search range `[0, total]` covers every reachable value.
fn boundary(weights: &[f64], i: usize, total: f64) -> f64 {
    if subtractive_band(weights, total) < i {
        return total;
    }
    let (mut lo, mut hi) = (0u64, total.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if subtractive_band(weights, f64::from_bits(mid)) >= i {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    f64::from_bits(lo)
}

/// The readiness mixture is pool-independent; compile it once.
fn readiness_table() -> &'static WeightTable<ReadinessCriterion> {
    static TABLE: std::sync::OnceLock<WeightTable<ReadinessCriterion>> =
        std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        WeightTable::new(&[
            // Participants see *unfamiliar* sites (§6: "when I don't
            // know what is on the site ... I want to wait for
            // everything"), so the wait-for-everything cohort is
            // nearly as large as the main-content one.
            (ReadinessCriterion::MainContent, 0.40),
            (ReadinessCriterion::AllContent, 0.42),
            (ReadinessCriterion::FirstImpression, 0.18),
        ])
    })
}

/// Mixing weights and trait ranges for a pool.
#[derive(Debug, Clone)]
pub struct PopulationProfile {
    /// Pool type to stamp on the generated participants.
    pub ptype: ParticipantType,
    /// Compiled `(class, weight)` mixture.
    class_mix: WeightTable<ParticipantClass>,
    /// Fraction reporting male (paper: 0.75 validation, 0.70 final).
    pub male_fraction: f64,
    /// Compiled `(country, weight)` mixture.
    countries: WeightTable<&'static str>,
}

impl PopulationProfile {
    /// The paid pool (CrowdFlower "historically trustworthy" tier):
    /// mostly fine, with the §4 pathologies mixed in at the rates the
    /// paper's filters caught. Venezuela tops the 30-country paid pool.
    pub fn paid() -> PopulationProfile {
        PopulationProfile {
            ptype: ParticipantType::Paid,
            class_mix: WeightTable::new(&[
                (ParticipantClass::Diligent, 0.42),
                (ParticipantClass::Average, 0.36),
                (ParticipantClass::Sloppy, 0.13),
                (ParticipantClass::RandomClicker, 0.07),
                (ParticipantClass::Frenetic, 0.02),
                (ParticipantClass::Bot, 0.03),
            ]),
            male_fraction: 0.72,
            countries: WeightTable::new(&[
                ("VE", 0.22),
                ("IN", 0.12),
                ("ID", 0.08),
                ("PH", 0.07),
                ("EG", 0.06),
                ("RS", 0.05),
                ("BR", 0.05),
                ("US", 0.04),
                ("PK", 0.04),
                ("RO", 0.04),
                ("other", 0.23),
            ]),
        }
    }

    /// The trusted pool: overwhelmingly diligent (the paper still caught
    /// one control failure and a few seconds of distraction per
    /// campaign). US tops the 12-country trusted pool.
    pub fn trusted() -> PopulationProfile {
        PopulationProfile {
            ptype: ParticipantType::Trusted,
            class_mix: WeightTable::new(&[
                (ParticipantClass::Diligent, 0.78),
                (ParticipantClass::Average, 0.19),
                (ParticipantClass::Sloppy, 0.03),
            ]),
            male_fraction: 0.79,
            countries: WeightTable::new(&[
                ("US", 0.38),
                ("ES", 0.16),
                ("UK", 0.12),
                ("IT", 0.08),
                ("GR", 0.07),
                ("DE", 0.06),
                ("other", 0.13),
            ]),
        }
    }

    /// Generate `n` participants with ids `0..n`.
    pub fn generate(&self, seed: Seed, n: usize) -> Vec<Participant> {
        (0..n as u64).map(|i| self.generate_one(seed, i)).collect()
    }

    /// Generate the `i`-th participant of this pool.
    pub fn generate_one(&self, seed: Seed, i: u64) -> Participant {
        let (persona, gender, country) = self.draw_traits(seed, i);
        Participant {
            id: i,
            ptype: self.ptype,
            class: persona.class,
            gender,
            country: country.to_owned(),
            tech_savvy: persona.tech_savvy,
            bandwidth_bps: persona.bandwidth_bps,
            readiness: persona.readiness,
            perception_noise: persona.perception_noise,
            overshoot: persona.overshoot,
            seed: persona.seed,
        }
    }

    /// Generate only the trait-core of the `i`-th participant — the
    /// allocation-free path the flat campaign engine regenerates shards
    /// through. Identical draws to [`generate_one`](Self::generate_one)
    /// (the reporting-only gender/country draws still happen, their
    /// results are just not materialised), so the two stay in lockstep
    /// on every downstream RNG stream.
    pub fn generate_persona(&self, seed: Seed, i: u64) -> Persona {
        self.draw_traits(seed, i).0
    }

    /// The gate-relevant slice of participant `i`: the derived seed and
    /// the class (the trait stream's *first* draw). The humanness gate
    /// reads nothing else, so the sharded engines' counting pre-passes
    /// can skip the remaining trait draws entirely — every skipped draw
    /// lives on the participant's isolated `"traits"` stream, so a later
    /// full regeneration via [`generate_one`](Self::generate_one) or
    /// [`generate_persona`](Self::generate_persona) replays the
    /// identical sequence.
    pub fn generate_gate(&self, seed: Seed, i: u64) -> (Seed, ParticipantClass) {
        let cur = self.start_traits(seed, i);
        (cur.pseed, cur.class)
    }

    /// Begin drawing participant `i` and pause right after the class
    /// pick — the demand-driven generalisation of
    /// [`generate_gate`](Self::generate_gate). The returned cursor
    /// exposes everything the admission gate needs ([`TraitCursor::seed`]
    /// and [`TraitCursor::class`]; the captcha check draws from its own
    /// `"captcha"` stream, so it can run while the cursor is paused), and
    /// only participants that survive pay for the remaining trait draws
    /// via [`TraitCursor::finish`]. A rejected participant's cursor is
    /// simply dropped: every unfinished draw lives on the participant's
    /// isolated `"traits"` stream, which nothing downstream reads.
    pub fn start_traits(&self, seed: Seed, i: u64) -> TraitCursor {
        let pseed = seed.derive_index("participant", i);
        let mut rng = Rng::seed_from_u64(pseed.derive("traits").value());
        let class = self.class_mix.pick(&mut rng);
        TraitCursor { id: i, pseed, class, rng }
    }

    /// The single draw sequence behind both generation paths.
    fn draw_traits(&self, seed: Seed, i: u64) -> (Persona, Gender, &'static str) {
        let mut cur = self.start_traits(seed, i);
        let gender =
            if cur.rng.random_bool(self.male_fraction) { Gender::Male } else { Gender::Female };
        let country = self.countries.pick(&mut cur.rng);
        (cur.finish_tail(self), gender, country)
    }
}

/// A participant paused mid-generation: class drawn, everything else
/// pending. See [`PopulationProfile::start_traits`].
#[derive(Debug, Clone)]
pub struct TraitCursor {
    id: u64,
    pseed: Seed,
    class: ParticipantClass,
    rng: Rng,
}

impl TraitCursor {
    /// The participant's derived private seed.
    pub fn seed(&self) -> Seed {
        self.pseed
    }

    /// The class drawn so far (all the admission gate consumes).
    pub fn class(&self) -> ParticipantClass {
        self.class
    }

    /// Complete the trait draws and yield the persona — identical, field
    /// for field, to [`PopulationProfile::generate_persona`] on the same
    /// pool/seed/index. The reporting-only gender and country draws
    /// (one raw output each: a Bernoulli and a compiled-table pick) are
    /// elided value-free — the stream is advanced by exactly two outputs
    /// so every consumed draw after them is untouched.
    pub fn finish(mut self, profile: &PopulationProfile) -> Persona {
        self.rng.skip_u64(2);
        self.finish_tail(profile)
    }

    /// The draws both full and demand-driven generation share, starting
    /// after gender/country.
    fn finish_tail(mut self, profile: &PopulationProfile) -> Persona {
        let rng = &mut self.rng;
        let tech_savvy = rng.random_range(1..=5u8);
        // Worker downlinks: log-uniform 0.5–30 Mbit/s — 2016 crowd
        // workers cluster in regions where sub-2 Mbit/s lines were
        // common, which is what stretches video load times to the tens
        // of seconds Fig. 5 conditions on.
        let bw_exp: f64 = rng.random_range(5.7..7.5);
        let bandwidth_bps = 10f64.powf(bw_exp) as u64;
        let readiness = readiness_table().pick(rng);
        let (perception_noise, overshoot) = match self.class {
            ParticipantClass::Diligent => (rng.random_range(0.03..0.08), rng.random_range(0.02..0.08)),
            ParticipantClass::Average => (rng.random_range(0.06..0.14), rng.random_range(0.05..0.15)),
            ParticipantClass::Sloppy => (rng.random_range(0.12..0.25), rng.random_range(0.15..0.40)),
            ParticipantClass::RandomClicker | ParticipantClass::Bot => {
                (rng.random_range(0.3..0.6), rng.random_range(0.2..0.6))
            }
            ParticipantClass::Frenetic => (rng.random_range(0.10..0.2), rng.random_range(0.05..0.2)),
        };
        Persona {
            id: self.id,
            ptype: profile.ptype,
            class: self.class,
            tech_savvy,
            bandwidth_bps,
            readiness,
            perception_noise,
            overshoot,
            seed: self.pseed,
        }
    }
}

/// The pre-table selection this module shipped with, kept as the
/// reference classifier for [`WeightTable`]'s draw-identity regression
/// test: per-draw weight re-summation plus a subtractive walk.
#[cfg(test)]
fn pick_weighted_ref<T: Copy>(rng: &mut Rng, mix: &[(T, f64)]) -> T {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut x: f64 = rng.random_range(0.0..total);
    for &(v, w) in mix {
        if x < w {
            return v;
        }
        x -= w;
    }
    mix.last().expect("non-empty mixture").0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every leaf stream [`ModelSeeds`] hands out is
    /// `seed → activity → label`, for both pools.
    #[test]
    fn model_seeds_follow_the_seed_policy() {
        let draws = |mut rng: Rng| -> [u64; 4] { std::array::from_fn(|_| rng.next_u64()) };
        for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
            for i in 0..150 {
                let seed = pool.generate_persona(Seed(91), i).seed;
                let seeds = ModelSeeds::of(seed);
                let leaf_seed =
                    |activity: &str, label: &str| seed.derive(activity).derive(label).value();
                let leaf = |activity: &str, label: &str| {
                    draws(Rng::seed_from_u64(leaf_seed(activity, label)))
                };
                for label in ["tl-0", "tl-5", "ab-3", "ctrl-tl-0"] {
                    assert_eq!(seeds.session_seed(label), leaf_seed("behavior", label), "{label}");
                    assert_eq!(draws(seeds.behavior(label)), leaf("behavior", label), "{label}");
                    assert_eq!(
                        draws(seeds.perception(label)),
                        leaf("perception", label),
                        "{label}"
                    );
                    assert_eq!(draws(seeds.abjudge(label)), leaf("abjudge", label), "{label}");
                }
                assert_eq!(draws(seeds.instructions()), leaf("behavior", "instructions"));
            }
        }
    }

    /// Every mixture the population model draws from, as raw
    /// `(item, weight)` lists — the input both selectors classify.
    fn live_mixtures() -> Vec<(&'static str, Vec<(u8, f64)>)> {
        // Items are reduced to indices: selection identity is about
        // which *band* a draw lands in, not the payload type.
        let idx = |ws: &[f64]| ws.iter().copied().enumerate().map(|(i, w)| (i as u8, w)).collect();
        vec![
            ("paid.class", idx(&[0.42, 0.36, 0.13, 0.07, 0.02, 0.03])),
            ("trusted.class", idx(&[0.78, 0.19, 0.03])),
            (
                "paid.country",
                idx(&[0.22, 0.12, 0.08, 0.07, 0.06, 0.05, 0.05, 0.04, 0.04, 0.04, 0.23]),
            ),
            ("trusted.country", idx(&[0.38, 0.16, 0.12, 0.08, 0.07, 0.06, 0.13])),
            ("readiness", idx(&[0.40, 0.42, 0.18])),
            // Adversarial shapes: ties, zero weights, tiny bands, and a
            // sum (0.1+0.2) that famously does not round-trip in binary.
            ("zeros", idx(&[0.0, 0.5, 0.0, 0.5])),
            ("tiny", idx(&[1e-12, 1.0, 1e-12])),
            ("binary-sour", idx(&[0.1, 0.2, 0.3, 0.4])),
        ]
    }

    /// Which band the compiled table assigns `x` to (the scan inside
    /// `pick`, exposed on the raw draw value for boundary probing).
    fn table_band(table: &WeightTable<u8>, x: f64) -> u8 {
        for (i, &c) in table.thresholds().iter().enumerate() {
            if x < c {
                return i as u8;
            }
        }
        table.thresholds().len() as u8 - 1
    }

    #[test]
    fn weight_table_draw_identity_with_subtractive_reference() {
        // The satellite contract: same single draw, same selection. Two
        // RNG clones must stay in bit-for-bit lockstep through many
        // picks, for every live mixture.
        for (name, mix) in live_mixtures() {
            let table = WeightTable::new(&mix);
            let mut a = Rng::seed_from_u64(0x5eed_0000 ^ mix.len() as u64);
            let mut b = a.clone();
            for round in 0..20_000 {
                let want = pick_weighted_ref(&mut a, &mix);
                let got = table.pick(&mut b);
                assert_eq!(want, got, "{name} round {round}");
            }
            // Identical residual RNG state: both consumed exactly one
            // random_range(0.0..total) per pick.
            assert_eq!(a.next_u64(), b.next_u64(), "{name} rng state");
        }
    }

    #[test]
    fn weight_table_thresholds_are_exact_band_boundaries() {
        // Probe each compiled threshold ulp-by-ulp: the band must flip
        // at exactly the same representable value under both selectors.
        for (name, mix) in live_mixtures() {
            let table = WeightTable::new(&mix);
            let weights: Vec<f64> = mix.iter().map(|&(_, w)| w).collect();
            let probe = |x: f64| {
                assert_eq!(
                    subtractive_band(&weights, x) as u8,
                    table_band(&table, x),
                    "{name} x={x:e} (bits {:#x})",
                    x.to_bits()
                );
            };
            for &t in table.thresholds() {
                let mut lo = t;
                let mut hi = t;
                for _ in 0..4 {
                    probe(lo);
                    probe(hi);
                    lo = f64::from_bits(lo.to_bits().saturating_sub(1)).max(0.0);
                    hi = f64::from_bits(hi.to_bits() + 1).min(table.total());
                }
            }
            probe(0.0);
            // A uniform sweep across the whole range for good measure.
            for k in 0..=10_000 {
                probe(table.total() * k as f64 / 10_000.0);
            }
        }
    }

    #[test]
    fn persona_generation_matches_full_generation() {
        for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
            for i in 0..200 {
                let full = pool.generate_one(Seed(77), i);
                let persona = pool.generate_persona(Seed(77), i);
                assert_eq!(full.persona(), persona, "pool {:?} index {i}", pool.ptype);
            }
        }
    }

    #[test]
    fn trait_cursor_finish_matches_full_generation() {
        // Draw-elision identity: pausing at the gate and finishing with
        // the gender/country values elided must reproduce the full
        // path's persona exactly — fields, seed, and (via the noise and
        // overshoot draws that come *after* the elided ones) the whole
        // downstream draw alignment.
        for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
            for seed in [Seed(77), Seed(0), Seed(u64::MAX)] {
                for i in 0..300 {
                    let cur = pool.start_traits(seed, i);
                    let (gate_seed, gate_class) = pool.generate_gate(seed, i);
                    assert_eq!(cur.seed(), gate_seed, "index {i}");
                    assert_eq!(cur.class(), gate_class, "index {i}");
                    let fast = cur.finish(&pool);
                    let full = pool.generate_persona(seed, i);
                    assert_eq!(fast, full, "pool {:?} seed {seed:?} index {i}", pool.ptype);
                }
            }
        }
    }

    #[test]
    fn generation_deterministic() {
        let a = PopulationProfile::paid().generate(Seed(1), 50);
        let b = PopulationProfile::paid().generate(Seed(1), 50);
        assert_eq!(a, b);
        assert_ne!(a, PopulationProfile::paid().generate(Seed(2), 50));
    }

    #[test]
    fn class_mix_realised() {
        let pop = PopulationProfile::paid().generate(Seed(3), 4000);
        let frac = |c: ParticipantClass| {
            pop.iter().filter(|p| p.class == c).count() as f64 / pop.len() as f64
        };
        assert!((frac(ParticipantClass::Diligent) - 0.42).abs() < 0.03);
        assert!((frac(ParticipantClass::RandomClicker) - 0.07).abs() < 0.02);
        assert!(frac(ParticipantClass::Frenetic) > 0.005);
    }

    #[test]
    fn trusted_pool_has_no_random_clickers() {
        let pop = PopulationProfile::trusted().generate(Seed(4), 1000);
        assert!(pop.iter().all(|p| !matches!(
            p.class,
            ParticipantClass::RandomClicker | ParticipantClass::Frenetic | ParticipantClass::Bot
        )));
    }

    #[test]
    fn paid_pool_contains_some_bots() {
        let pop = PopulationProfile::paid().generate(Seed(9), 2000);
        let bots = pop.iter().filter(|p| p.class == ParticipantClass::Bot).count();
        assert!((20..120).contains(&bots), "bots: {bots}");
    }

    #[test]
    fn gender_split_matches_paper() {
        let pop = PopulationProfile::paid().generate(Seed(5), 4000);
        let male =
            pop.iter().filter(|p| p.gender == Gender::Male).count() as f64 / pop.len() as f64;
        assert!((male - 0.72).abs() < 0.03, "male fraction {male}");
    }

    #[test]
    fn country_tops_match_paper() {
        let paid = PopulationProfile::paid().generate(Seed(6), 3000);
        // "other" aggregates the long tail of countries; the paper's
        // "most popular country" claim concerns named countries.
        let top = |pop: &[Participant]| -> String {
            let mut counts = std::collections::BTreeMap::new();
            for p in pop {
                if p.country != "other" {
                    *counts.entry(p.country.clone()).or_insert(0u32) += 1;
                }
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        assert_eq!(top(&paid), "VE", "Venezuela tops the paid pool");
        let trusted = PopulationProfile::trusted().generate(Seed(6), 3000);
        assert_eq!(top(&trusted), "US", "US tops the trusted pool");
    }

    #[test]
    fn traits_in_declared_ranges() {
        for p in PopulationProfile::paid().generate(Seed(7), 500) {
            assert!((1..=5).contains(&p.tech_savvy));
            assert!(p.bandwidth_bps >= 450_000 && p.bandwidth_bps <= 33_000_000);
            assert!(p.perception_noise > 0.0 && p.perception_noise < 0.7);
            assert!(p.overshoot >= 0.0 && p.overshoot < 0.7);
        }
    }

    #[test]
    fn readiness_criteria_all_present() {
        let pop = PopulationProfile::paid().generate(Seed(8), 1000);
        for c in [
            ReadinessCriterion::MainContent,
            ReadinessCriterion::AllContent,
            ReadinessCriterion::FirstImpression,
        ] {
            assert!(pop.iter().any(|p| p.readiness == c), "{c:?} missing");
        }
    }
}
