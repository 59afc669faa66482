//! The measurement loop shared by every workload.
//!
//! Untraced: iterations of cold set-ups and one timed repetition until
//! the time budget is spent (at least [`MIN_REPS`]); the end-to-end
//! metrics are medians over the set-ups and over the repetitions.
//! Traced: passes of one cold set-up plus one repetition with spans and
//! the `eyeorg-obs` counters on; the per-layer metrics are medians over
//! passes. Before every set-up and repetition the capture cache is
//! emptied (outside the timed interval), because a user pays for the
//! captures on every run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use eyeorg_video::shared_capture_cache;

use crate::check::{hash, Checker, Fp};
use crate::trace;

/// Seconds of cold set-ups before each timed repetition: a few
/// milliseconds of corpus generation is repeated until it can be timed
/// against host noise.
pub const SETUP_SECONDS_PER_REP: f64 = 0.4;
/// Fewest cold set-ups before each timed repetition.
pub const MIN_SETUPS_PER_REP: usize = 2;
/// Fewest timed repetitions in a run.
pub const MIN_REPS: usize = 3;

/// Counts of the work one repetition did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Simulated page loads in the timed phase.
    pub page_loads: u64,
    /// Participants simulated in the timed phase.
    pub participants: u64,
    /// Checkpoints saved.
    pub checkpoints: u64,
    /// Bytes of saved checkpoints.
    pub checkpoint_bytes: u64,
    /// Participants simulated by split workers.
    pub worker_participants: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// What the set-up produces for the timed phase.
    type Setup: PartialEq + Clone;
    /// What one timed repetition produces.
    type Out;
    /// The set-up a user pays before the timed phase.
    fn setup(&self) -> Self::Setup;
    /// Fingerprints of a set-up's output.
    fn setup_check(&self, s: &Self::Setup) -> Result<Vec<Fp>, String>;
    /// Simulated page loads during set-up.
    fn setup_page_loads(&self, s: &Self::Setup) -> u64;
    /// One timed repetition.
    fn run(&self, s: &Self::Setup, obs: &mut Obs) -> Self::Out;
    /// Fingerprints of a repetition's output, or the error it met.
    fn check(&self, out: &Self::Out) -> Result<Vec<Fp>, String>;
    /// Work counts of a repetition.
    fn stats(&self, out: &Self::Out) -> Stats;
    /// Fingerprints of the same outputs produced another way (the
    /// harness's own campaign builders, an uninterrupted single-process
    /// run), for `--record` to compare with the timed path's.
    fn reference(&self, _s: &Self::Setup) -> Option<Result<Vec<Fp>, String>> {
        None
    }
}

/// The `eyeorg-obs` registry as one traced pass sees it. The registry
/// is process-global, so a workload that models several processes
/// (resume, split workers) resets it where a new process would start.
pub struct Obs {
    on: bool,
    totals: BTreeMap<String, u64>,
    fingerprints: Vec<String>,
}

impl Obs {
    fn new(on: bool) -> Obs {
        if on {
            eyeorg_obs::reset();
        }
        Obs {
            on,
            totals: BTreeMap::new(),
            fingerprints: Vec::new(),
        }
    }

    /// Add the registry's totals to the pass and reset it.
    pub fn take(&mut self) {
        if !self.on {
            return;
        }
        let report = eyeorg_obs::snapshot("perfbench", 0);
        for (name, v) in &report.counters {
            *self.totals.entry(name.clone()).or_default() += v;
        }
        self.fingerprints.push(report.counter_fingerprint());
        eyeorg_obs::reset();
    }

    /// Reset the registry without keeping its totals.
    pub fn discard(&mut self) {
        if self.on {
            eyeorg_obs::reset();
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0) as f64
    }
}

/// What an untraced phase measured.
pub struct Untraced {
    /// Seconds of each cold set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed repetition.
    pub wall_s: Vec<f64>,
    /// Page loads of one set-up.
    pub setup_page_loads: u64,
    /// Work counts of one repetition.
    pub stats: Stats,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Cold set-ups until this batch has taken [`SETUP_SECONDS_PER_REP`]
/// (at least [`MIN_SETUPS_PER_REP`]); returns the last one's output.
/// The first set-up of a run is checked against its recorded
/// fingerprints, every later one against the first.
fn cold_setups<W: Workload>(
    w: &W,
    first: &mut Option<W::Setup>,
    times: &mut Vec<f64>,
    checker: &mut Checker,
) -> W::Setup {
    let mut spent = 0.0;
    let mut n = 0;
    loop {
        shared_capture_cache().clear();
        let (s, secs) = timed(|| w.setup());
        times.push(secs);
        spent += secs;
        n += 1;
        match first {
            None => {
                checker.verify("set-up", w.setup_check(&s));
                *first = Some(s.clone());
            }
            Some(f) if *f == s => {
                checker.verify("set-up", Ok(Vec::new()));
            }
            Some(_) => {
                checker.verify(
                    "set-up",
                    Err("differs from the run's first set-up".to_string()),
                );
            }
        }
        if n >= MIN_SETUPS_PER_REP && spent >= SETUP_SECONDS_PER_REP {
            return s;
        }
    }
}

/// Untraced iterations of cold set-ups plus one timed repetition, as
/// many as fit in `seconds` judging by the last one (at least
/// [`MIN_REPS`]). Spreading the set-ups over the whole run exposes them
/// to the same host noise as the repetitions.
pub fn untraced<W: Workload>(w: &W, seconds: f64, checker: &mut Checker) -> Untraced {
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut stats = Stats::default();
    let mut setup_page_loads = 0;
    let mut first = None;
    let started = Instant::now();
    let mut last = 0.0;
    while wall_s.len() < MIN_REPS || started.elapsed().as_secs_f64() + last <= seconds {
        let begun = Instant::now();
        let setup = cold_setups(w, &mut first, &mut setup_s, checker);
        setup_page_loads = w.setup_page_loads(&setup);
        shared_capture_cache().clear();
        let (out, secs) = timed(|| w.run(&setup, &mut Obs::new(false)));
        wall_s.push(secs);
        checker.verify("repetition", w.check(&out));
        stats = w.stats(&out);
        last = begun.elapsed().as_secs_f64();
    }
    Untraced {
        setup_s,
        wall_s,
        setup_page_loads,
        stats,
    }
}

/// One traced pass: a cold set-up and a repetition with spans and obs
/// counters on. Returns the pass's per-layer metrics and the wall
/// seconds of its repetition.
pub fn traced_pass<W: Workload>(
    w: &W,
    pool: usize,
    checker: &mut Checker,
) -> (BTreeMap<&'static str, f64>, f64) {
    shared_capture_cache().clear();
    eyeorg_obs::enable();
    trace::set_enabled(true);
    let pass = trace::begin_pass();
    let mut obs = Obs::new(true);
    let setup = {
        let _s = trace::span("pass.setup");
        w.setup()
    };
    obs.take();
    shared_capture_cache().clear();
    let (out, wall) = timed(|| {
        let _s = trace::span("pass.run");
        w.run(&setup, &mut obs)
    });
    obs.take();
    trace::set_enabled(false);
    eyeorg_obs::disable();

    let stats = w.stats(&out);
    let page_loads = w.setup_page_loads(&setup) + stats.page_loads;
    let outcome = w.setup_check(&setup).and_then(|mut fps| {
        fps.extend(w.check(&out)?);
        fps.push(("counters", hash(obs.fingerprints.join("\n").as_bytes())));
        let counted = obs.counter("browser.page_loads") as u64;
        if counted != page_loads {
            return Err(format!(
                "{counted} page loads counted, {page_loads} expected"
            ));
        }
        Ok(fps)
    });
    checker.verify("traced pass", outcome);
    (
        layer_metrics(&trace::summary(pass), &obs, &stats, pool),
        wall,
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one pass (without `obs.trace_overhead_s`,
/// which compares passes with untraced repetitions).
fn layer_metrics(
    spans: &BTreeMap<&'static str, trace::SpanTotals>,
    obs: &Obs,
    stats: &Stats,
    pool: usize,
) -> BTreeMap<&'static str, f64> {
    let layer = |prefix: &str| {
        spans
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(prefix))
            .fold((0.0, 0.0), |(w, c), (_, t)| {
                (w + t.self_wall, c + t.self_cpu)
            })
    };
    let named = |name: &str| spans.get(name).map_or(0.0, |t| t.self_wall);
    let c = |name: &str| obs.counter(name);
    let pool = pool as f64;
    let (capture_s, capture_cpu) = layer("capture");
    let (campaign_s, campaign_cpu) = layer("campaign");
    let admitted = c("core.gate_admitted");
    let recruited = admitted + c("core.gate_rejected");
    let worker_s = spans.get("campaign.ab_worker").map_or(0.0, |t| t.wall);
    let mut m = BTreeMap::new();
    m.insert("workload.corpus_s", layer("workload").0);
    m.insert("capture.busy_s", capture_s);
    m.insert("capture.cpu_s", capture_cpu);
    m.insert(
        "capture.par_efficiency",
        ratio(capture_cpu, capture_s * pool),
    );
    m.insert("browser.page_loads", c("browser.page_loads"));
    m.insert("browser.resources_fetched", c("browser.resources_fetched"));
    m.insert("browser.paint_events", c("browser.paint_events"));
    m.insert(
        "browser.loads_per_s",
        ratio(c("browser.page_loads"), capture_s),
    );
    m.insert("net.events_processed", c("net.events_processed"));
    m.insert("net.segments_sent", c("net.segments_sent"));
    m.insert("net.retransmissions", c("net.retransmissions"));
    m.insert(
        "net.events_per_cpu_s",
        ratio(c("net.events_processed"), capture_cpu),
    );
    let batched = c("net.bursts_batched");
    m.insert(
        "net.burst_batch_kept_ratio",
        if batched > 0.0 {
            1.0 - c("net.burst_flushes") / batched
        } else {
            0.0
        },
    );
    m.insert("http.conns_opened", c("http.conns_opened"));
    m.insert("http.h2_streams", c("http.h2_streams"));
    m.insert("http.h1_conns_reused", c("http.h1_conns_reused"));
    m.insert("video.captures", c("video.captures"));
    m.insert("video.frames_encoded", c("video.frames_encoded"));
    m.insert("video.cache_misses", c("video.capture_cache_misses"));
    m.insert(
        "video.cache_hit_ratio",
        ratio(
            c("video.capture_cache_hits"),
            c("video.capture_cache_requests"),
        ),
    );
    m.insert("campaign.busy_s", campaign_s);
    m.insert("campaign.cpu_s", campaign_cpu);
    m.insert(
        "campaign.par_efficiency",
        ratio(campaign_cpu, campaign_s * pool),
    );
    m.insert("crowd.recruited", recruited);
    m.insert("crowd.gate_admit_ratio", ratio(admitted, recruited));
    m.insert("core.participants_kept", c("core.participants_kept"));
    m.insert(
        "core.filter_keep_ratio",
        ratio(c("core.participants_kept"), admitted),
    );
    m.insert("core.responses_collected", c("core.responses_collected"));
    m.insert("core.ab_votes", c("core.ab_votes"));
    m.insert("filter.busy_s", layer("filter").0);
    m.insert("analysis.busy_s", layer("analysis").0);
    m.insert("adaptive.epochs", c("adaptive.epochs"));
    m.insert("adaptive.stimuli_stopped", c("adaptive.stimuli_stopped"));
    m.insert(
        "adaptive.participants_saved",
        c("adaptive.participants_saved"),
    );
    m.insert("checkpoint.count", stats.checkpoints as f64);
    m.insert("checkpoint.bytes", stats.checkpoint_bytes as f64);
    m.insert("checkpoint.save_s", named("checkpoint.save"));
    m.insert("checkpoint.load_s", named("checkpoint.load"));
    m.insert("checkpoint.merge_s", named("checkpoint.merge"));
    m.insert(
        "split.participants_per_s",
        ratio(stats.worker_participants as f64, worker_s),
    );
    m
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
