//! The `paper` workload: the paper's seven campaigns at `Scale::paper()`
//! (four validation campaigns of §4.1, the three final campaigns of §5),
//! then Table 1 and the figures.
//!
//! The campaigns are built with the same calls, seeds and
//! configurations as `eyeorg_bench::campaigns::build_*`, split so that
//! each call into a layer (`core::builders`, `core::campaign`,
//! `core::filtering`, the report functions) gets its own span. The site
//! corpus is the one `run_all` uses at paper scale; the benchmark seed
//! picks the capture and crowd seeds, which leave the amount of work
//! unchanged (the corpus alone moves it by ±10%).

use eyeorg_bench::campaigns::{
    self, capture_browser, protocol_capture_browser, validation_sites, Filtered, ValidationSet,
};
use eyeorg_bench::{
    fig1_viz, fig4_behavior, fig5_focus, fig6_wisdom, fig7_timeline, fig8_ab, fig9_modes, table1,
    Scale,
};
use eyeorg_browser::AdBlocker;
use eyeorg_core::prelude::*;
use eyeorg_crowd::{CrowdFlower, RecruitmentService, TrustedChannel};
use eyeorg_stats::Seed;
use eyeorg_video::shared_capture_cache;
use eyeorg_workload::{ad_heavy, alexa_like, Website};

use crate::check::{debug_hash, hash, Fp};
use crate::harness::{Obs, Stats, Workload};
use crate::trace::span;
use crate::Size;

/// The paper workload at one size and input variant.
pub struct Paper {
    scale: Scale,
    corpus_seed: Seed,
    run_seed: Seed,
    pool: usize,
}

/// The site samples of the seven campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    validation: Vec<Website>,
    fin: Vec<Website>,
    ads: Vec<Website>,
}

/// The seven filtered campaigns.
pub struct Campaigns {
    validation: ValidationSet,
    tl: Filtered<TimelineCampaign>,
    h1h2: Filtered<AbCampaign>,
    ads: Vec<(AdBlocker, Filtered<AbCampaign>)>,
}

/// One timed repetition: the campaigns, the rendered table and figures,
/// and the simulated page loads they took.
pub struct Output {
    campaigns: Campaigns,
    reports: Vec<String>,
    page_loads: u64,
}

impl Paper {
    /// The workload at `size` for input variant `variant`.
    pub fn of(size: Size, variant: u64, pool: usize) -> Paper {
        let scale = match size {
            Size::Full => Scale::paper(),
            Size::Smoke => Scale {
                sites: 6,
                participants: 60,
                validation_participants: 30,
                repeats: 2,
                ..Scale::paper()
            },
        };
        // Variant 0 runs with `scale.seed` throughout, which is exactly
        // what `eyeorg_bench::campaigns` builds.
        Paper {
            scale,
            corpus_seed: scale.seed,
            run_seed: Seed(scale.seed.0 + variant),
            pool,
        }
    }

    fn cfg(&self) -> ExperimentConfig {
        ExperimentConfig {
            threads: self.pool,
            ..ExperimentConfig::default()
        }
    }

    fn timeline(
        &self,
        stimuli: Vec<TimelineStimulus>,
        service: &dyn RecruitmentService,
        n: usize,
        seed: Seed,
    ) -> Filtered<TimelineCampaign> {
        let campaign = {
            let _s = span("campaign.run_timeline");
            run_timeline_campaign(stimuli, service, n, &self.cfg(), seed)
        };
        let report = {
            let _s = span("filter.timeline");
            filter_timeline(&campaign, &paper_pipeline())
        };
        Filtered { campaign, report }
    }

    fn ab(
        &self,
        stimuli: Vec<AbStimulus>,
        service: &dyn RecruitmentService,
        n: usize,
        seed: Seed,
    ) -> Filtered<AbCampaign> {
        let campaign = {
            let _s = span("campaign.run_ab");
            run_ab_campaign(stimuli, service, n, &self.cfg(), seed)
        };
        let report = {
            let _s = span("filter.ab");
            filter_ab(&campaign, &paper_pipeline())
        };
        Filtered { campaign, report }
    }

    fn timeline_stimuli(&self, sites: &[Website], seed: Seed) -> Vec<TimelineStimulus> {
        let _s = span("capture.timeline_stimuli");
        timeline_stimuli_threads(
            sites,
            &capture_browser(),
            &self.scale.capture(),
            seed,
            self.pool,
        )
    }

    fn protocol_stimuli(&self, sites: &[Website], seed: Seed) -> Vec<AbStimulus> {
        let _s = span("capture.protocol_ab_stimuli");
        protocol_ab_stimuli(
            sites,
            &protocol_capture_browser(),
            &self.scale.capture(),
            seed,
        )
    }

    /// `build_validation`.
    fn validation(&self, sites: &[Website]) -> ValidationSet {
        let seed = self.run_seed.derive("validation");
        let n = self.scale.validation_participants;
        let tl = self.timeline_stimuli(sites, seed.derive("tl"));
        let ab = self.protocol_stimuli(sites, seed.derive("ab"));
        ValidationSet {
            tl_paid: self.timeline(tl.clone(), &CrowdFlower, n, seed.derive("tlp")),
            tl_trusted: self.timeline(tl, &TrustedChannel, n, seed.derive("tlt")),
            ab_paid: self.ab(ab.clone(), &CrowdFlower, n, seed.derive("abp")),
            ab_trusted: self.ab(ab, &TrustedChannel, n, seed.derive("abt")),
        }
    }

    /// `build_final_ads`: one capture seed for every blocker, so the
    /// with-ads side is captured once and served from the cache after.
    fn ads(&self, sites: &[Website]) -> Vec<(AdBlocker, Filtered<AbCampaign>)> {
        let root = self.run_seed.derive("final-ads");
        let cap_seed = root.derive("cap");
        AdBlocker::ALL
            .iter()
            .map(|&blocker| {
                let stimuli = {
                    let _s = span("capture.adblock_ab_stimuli");
                    adblock_ab_stimuli(
                        sites,
                        &capture_browser(),
                        blocker,
                        &self.scale.capture(),
                        cap_seed,
                    )
                };
                let n = self.scale.participants / AdBlocker::ALL.len();
                let run = root.derive(blocker.name()).derive("run");
                (blocker, self.ab(stimuli, &CrowdFlower, n, run))
            })
            .collect()
    }

    /// The seven campaigns, as `run_all` builds them.
    pub fn campaigns(&self, corpus: &Corpus) -> Campaigns {
        let validation = self.validation(&corpus.validation);
        let seed = self.run_seed.derive("final-tl");
        let stimuli = self.timeline_stimuli(&corpus.fin, seed.derive("cap"));
        let tl = self.timeline(
            stimuli,
            &CrowdFlower,
            self.scale.participants,
            seed.derive("run"),
        );
        let seed = self.run_seed.derive("final-h1h2");
        let stimuli = self.protocol_stimuli(&corpus.fin, seed.derive("cap"));
        let h1h2 = self.ab(
            stimuli,
            &CrowdFlower,
            self.scale.participants,
            seed.derive("run"),
        );
        let ads = self.ads(&corpus.ads);
        Campaigns {
            validation,
            tl,
            h1h2,
            ads,
        }
    }

    /// Table 1, the figures, the demographic breakdown and the CSVs —
    /// everything `run_all` renders.
    pub fn reports(&self, k: &Campaigns) -> Vec<String> {
        let _s = span("analysis.reports");
        let v = &k.validation;
        vec![
            table1::run(&self.scale, v, &k.tl, &k.h1h2, &k.ads),
            fig1_viz::run(&k.tl),
            fig4_behavior::run(v),
            fig5_focus::run(v),
            fig6_wisdom::run(v),
            fig7_timeline::run(&k.tl),
            fig8_ab::run_h1h2(&k.h1h2),
            fig8_ab::run_ads(&k.ads),
            fig9_modes::run(&k.tl),
            format!("{:?}", ab_demographics(&k.h1h2.campaign, &k.h1h2.report)),
            fig4_behavior::csv(v),
            fig5_focus::csv(v),
            fig6_wisdom::csv(v),
            fig7_timeline::csv(&k.tl),
            fig8_ab::csv(&k.h1h2, &k.ads),
        ]
    }

    fn participants(&self) -> u64 {
        let s = &self.scale;
        let per_blocker = s.participants / AdBlocker::ALL.len();
        (4 * s.validation_participants + 2 * s.participants + AdBlocker::ALL.len() * per_blocker)
            as u64
    }
}

/// Digest fingerprints of the seven campaigns.
fn digests(p: &Paper, k: &Campaigns) -> String {
    let params = DigestParams::default();
    let tl = |f: &Filtered<TimelineCampaign>, n| {
        digest_timeline(&f.campaign, &f.report, n, &params).fingerprint()
    };
    let ab = |f: &Filtered<AbCampaign>, n| digest_ab(&f.campaign, &f.report, n).fingerprint();
    let s = &p.scale;
    let v = &k.validation;
    let mut all = vec![
        tl(&v.tl_paid, s.validation_participants),
        tl(&v.tl_trusted, s.validation_participants),
        ab(&v.ab_paid, s.validation_participants),
        ab(&v.ab_trusted, s.validation_participants),
        tl(&k.tl, s.participants),
        ab(&k.h1h2, s.participants),
    ];
    for (_, f) in &k.ads {
        all.push(ab(f, s.participants / AdBlocker::ALL.len()));
    }
    hash(all.join("\n").as_bytes())
}

impl Workload for Paper {
    type Setup = Corpus;
    type Out = Output;

    /// Corpus generation for the seven campaigns.
    fn setup(&self) -> Corpus {
        let _s = span("workload.corpus");
        let root = self.corpus_seed;
        Corpus {
            validation: alexa_like(
                root.derive("validation").derive("sites"),
                validation_sites(&self.scale),
            ),
            fin: alexa_like(root.derive("final-tl").derive("sites"), self.scale.sites),
            ads: ad_heavy(
                root.derive("final-ads").derive("sites"),
                (self.scale.sites / AdBlocker::ALL.len()).max(2),
                1,
            ),
        }
    }

    fn setup_check(&self, corpus: &Corpus) -> Result<Vec<Fp>, String> {
        Ok(vec![("corpus", debug_hash(corpus))])
    }

    fn setup_page_loads(&self, _: &Corpus) -> u64 {
        0
    }

    fn run(&self, corpus: &Corpus, _: &mut Obs) -> Output {
        let campaigns = self.campaigns(corpus);
        let reports = self.reports(&campaigns);
        let page_loads = (shared_capture_cache().len() * self.scale.repeats) as u64;
        Output {
            campaigns,
            reports,
            page_loads,
        }
    }

    fn check(&self, out: &Output) -> Result<Vec<Fp>, String> {
        Ok(vec![
            ("digest", digests(self, &out.campaigns)),
            ("reports", hash(out.reports.join("\n").as_bytes())),
        ])
    }

    fn stats(&self, out: &Output) -> Stats {
        Stats {
            page_loads: out.page_loads,
            participants: self.participants(),
            ..Stats::default()
        }
    }

    /// The campaigns as `eyeorg_bench::campaigns` builds them, when this
    /// variant's seeds are the ones it uses.
    fn reference(&self, _: &Corpus) -> Option<Result<Vec<Fp>, String>> {
        if self.run_seed != self.scale.seed || self.corpus_seed != self.scale.seed {
            return None;
        }
        let campaigns = Campaigns {
            validation: campaigns::build_validation(&self.scale),
            tl: campaigns::build_final_timeline(&self.scale),
            h1h2: campaigns::build_final_h1h2(&self.scale),
            ads: campaigns::build_final_ads(&self.scale),
        };
        let reports = self.reports(&campaigns);
        Some(self.check(&Output {
            campaigns,
            reports,
            page_loads: 0,
        }))
    }
}
