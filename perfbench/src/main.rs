//! Benchmark of the Eyeorg workspace: three workloads, end-to-end
//! metrics measured untraced, per-layer metrics from a traced run.
//! See `NOTES.md` for what each workload loads and why.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|crowd-1m|split-resume --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record [--size smoke]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod crowd;
mod harness;
mod paper;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use check::Checker;
use harness::{median, traced_pass, untraced, Workload};

/// Input variants: the seed picks one of them, and each has recorded
/// fingerprints.
pub const VARIANTS: u64 = 8;

/// Fewest traced passes in a traced run.
const MIN_PASSES: usize = 2;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("page_loads_per_s", "1/s"),
    ("participants_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workload.corpus_s", "s"),
    ("capture.busy_s", "s"),
    ("capture.cpu_s", "s"),
    ("capture.par_efficiency", "ratio"),
    ("browser.page_loads", "count"),
    ("browser.resources_fetched", "count"),
    ("browser.paint_events", "count"),
    ("browser.loads_per_s", "1/s"),
    ("net.events_processed", "count"),
    ("net.segments_sent", "count"),
    ("net.retransmissions", "count"),
    ("net.events_per_cpu_s", "1/s"),
    ("net.burst_batch_kept_ratio", "ratio"),
    ("http.conns_opened", "count"),
    ("http.h2_streams", "count"),
    ("http.h1_conns_reused", "count"),
    ("video.captures", "count"),
    ("video.frames_encoded", "count"),
    ("video.cache_misses", "count"),
    ("video.cache_hit_ratio", "ratio"),
    ("campaign.busy_s", "s"),
    ("campaign.cpu_s", "s"),
    ("campaign.par_efficiency", "ratio"),
    ("crowd.recruited", "count"),
    ("crowd.gate_admit_ratio", "ratio"),
    ("core.participants_kept", "count"),
    ("core.filter_keep_ratio", "ratio"),
    ("core.responses_collected", "count"),
    ("core.ab_votes", "count"),
    ("filter.busy_s", "s"),
    ("analysis.busy_s", "s"),
    ("adaptive.epochs", "count"),
    ("adaptive.stimuli_stopped", "count"),
    ("adaptive.participants_saved", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.merge_s", "s"),
    ("split.participants_per_s", "1/s"),
    ("obs.trace_overhead_s", "s"),
    ("env.pool", "count"),
    ("env.nproc", "count"),
    ("env.available_parallelism", "count"),
];

/// Workload size: the benchmark's, or a smoke size for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` promises.
    Full,
    /// A few seconds in a debug build.
    Smoke,
}

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["paper", "crowd-1m", "split-resume"];

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Also compare with the workload's reference path (`--record`).
    pub reference: bool,
}

/// The machine and the pool the workloads are pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Online CPUs this process may run on, as `nproc` prints them.
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Worker pool every workload uses (= `nproc`).
    pub pool: usize,
}

impl Env {
    /// Read the machine and pin the pool. `EYEORG_THREADS` reaches the
    /// builders that only read the automatic pool; it must be set before
    /// the workspace first reads it.
    pub fn pin() -> Env {
        let available_parallelism = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(available_parallelism);
        let pool = nproc.max(1);
        std::env::set_var("EYEORG_THREADS", pool.to_string());
        Env {
            nproc,
            available_parallelism,
            pool,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"pool\": {}, \
             \"effective_pool\": {}}}",
            self.nproc,
            self.available_parallelism,
            self.pool,
            eyeorg_stats::effective_pool(eyeorg_stats::resolve_threads(0)),
        )
    }
}

/// A run's result: metric values by name plus the operation counts.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

fn end_to_end<W: Workload>(
    w: &W,
    opts: &Opts,
    checker: &mut Checker,
) -> BTreeMap<&'static str, f64> {
    let u = untraced(w, opts.seconds, checker);
    let wall = median(&u.wall_s);
    let setup = median(&u.setup_s);
    eprintln!("set-up seconds: {:?}", u.setup_s);
    eprintln!("repetition seconds: {:?}", u.wall_s);
    // Page loads of one whole run (a set-up, then a repetition) per
    // second of it: `paper` loads in its timed phase, the crowd
    // workloads only while setting up.
    let page_loads = (u.setup_page_loads + u.stats.page_loads) as f64;
    let page_loads_per_s = page_loads / (setup + wall);
    BTreeMap::from([
        ("wall_s", wall),
        ("setup_s", setup),
        ("peak_rss_mb", trace::peak_rss_mb().unwrap_or(0.0)),
        ("page_loads_per_s", page_loads_per_s),
        ("participants_per_s", u.stats.participants as f64 / wall),
    ])
}

fn per_layer<W: Workload>(
    w: &W,
    opts: &Opts,
    env: &Env,
    checker: &mut Checker,
) -> BTreeMap<&'static str, f64> {
    let half = opts.seconds / 2.0;
    let plain = untraced(w, half, checker);
    let mut passes = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    let mut last = 0.0;
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() + last <= half {
        let begun = Instant::now();
        let (m, wall) = traced_pass(w, env.pool, checker);
        passes.push(m);
        walls.push(wall);
        last = begun.elapsed().as_secs_f64();
    }
    eprintln!("untraced repetition seconds: {:?}", plain.wall_s);
    eprintln!("traced repetition seconds: {:?}", walls);
    let mut out = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = passes.iter().filter_map(|m| m.get(name).copied()).collect();
        if !values.is_empty() {
            out.insert(name, median(&values));
        }
    }
    out.insert(
        "obs.trace_overhead_s",
        median(&walls) - median(&plain.wall_s),
    );
    out.insert("env.pool", env.pool as f64);
    out.insert("env.nproc", env.nproc as f64);
    out.insert(
        "env.available_parallelism",
        env.available_parallelism as f64,
    );
    out
}

fn measure<W: Workload>(w: &W, opts: &Opts, env: &Env, checker: &mut Checker) -> Outcome {
    let metrics = if opts.trace {
        per_layer(w, opts, env, checker)
    } else {
        end_to_end(w, opts, checker)
    };
    if opts.reference {
        if let Some(fps) = w.reference(&w.setup()) {
            checker.verify("reference", fps);
        }
    }
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}

/// Fingerprint key of a workload at a size.
fn key(workload: &str, size: Size) -> String {
    match size {
        Size::Full => workload.to_string(),
        Size::Smoke => format!("{workload}:smoke"),
    }
}

/// Run `opts` against the fingerprints in `checker`.
pub fn run(opts: &Opts, env: &Env, checker: &mut Checker) -> Result<Outcome, String> {
    let variant = opts.seed % VARIANTS;
    Ok(match opts.workload.as_str() {
        "paper" => measure(
            &paper::Paper::of(opts.size, variant, env.pool),
            opts,
            env,
            checker,
        ),
        "crowd-1m" => measure(
            &crowd::Crowd1m::of(opts.size, variant, env.pool),
            opts,
            env,
            checker,
        ),
        "split-resume" => measure(
            &crowd::SplitResume::of(opts.size, variant, env.pool),
            opts,
            env,
            checker,
        ),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The result object printed as the last line of standard output.
pub fn result_json(o: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Record the fingerprints of every variant of every workload: the
/// repetitions and set-ups of an untraced and a traced run must agree
/// with each other and with the workload's reference path.
fn record(size: Size, env: &Env) -> Result<String, String> {
    let mut lines = String::new();
    for workload in WORKLOADS {
        for variant in 0..VARIANTS {
            let mut checker = Checker::recording(&key(workload, size), variant);
            let opts = Opts {
                workload: workload.to_string(),
                seed: variant,
                seconds: 0.0,
                trace: false,
                size,
                reference: false,
            };
            run(&opts, env, &mut checker)?;
            let traced = Opts {
                trace: true,
                reference: true,
                ..opts
            };
            run(&traced, env, &mut checker)?;
            if checker.failed > 0 {
                return Err(format!("{workload} variant {variant}: outputs disagree"));
            }
            eprintln!("recorded {workload} variant {variant}");
            lines.push_str(&checker.record_lines());
        }
    }
    Ok(lines)
}

fn write_trace(opts: &Opts, env: &Env, outcome: &Outcome) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"environment\": {},\n\"result\": {},\n\"spans\": {}}}\n",
        opts.workload,
        opts.seed,
        env.json(),
        result_json(outcome, true),
        trace::spans_json()
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn parse_args(args: &[String]) -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        reference: false,
    };
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--size" => {
                opts.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("unknown size {other:?}")),
                }
            }
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !record && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok((opts, record))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, record_mode) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let env = Env::pin();
    if record_mode {
        match record(opts.size, &env) {
            Ok(lines) => print!("{lines}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut checker = Checker::new(
        check::RECORDED,
        &key(&opts.workload, opts.size),
        opts.seed % VARIANTS,
    );
    trace::set_enabled(false);
    let outcome = match run(&opts, &env, &mut checker) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"environment\": {}, \"workload\": \"{}\", \"seed\": {}, \"variant\": {}}}",
        env.json(),
        opts.workload,
        opts.seed,
        opts.seed % VARIANTS
    );
    if opts.trace {
        match write_trace(&opts, &env, &outcome) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    println!("{}", result_json(&outcome, opts.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The capture cache and the obs registry are process-global, so the
    /// tests run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(workload: &str, trace: bool) -> Opts {
        Opts {
            workload: workload.to_string(),
            seed: 0,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
            reference: false,
        }
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        json[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn emitted(line: &str) -> (serde_json::Value, Vec<(String, String)>) {
        let json: serde_json::Value = serde_json::from_str(line).expect("result line parses");
        let metrics = json["metrics"]
            .as_object()
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                assert!(
                    m["value"].as_f64().expect("numeric value").is_finite(),
                    "{name}"
                );
                (name.clone(), m["unit"].as_str().expect("unit").to_string())
            })
            .collect();
        (json, metrics)
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let env = Env::pin();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = declared(section);
            want.sort();
            for workload in WORKLOADS {
                let opts = smoke(workload, trace);
                let mut checker = Checker::new(check::RECORDED, &key(workload, Size::Smoke), 0);
                let outcome = run(&opts, &env, &mut checker).expect("known workload");
                let (json, mut got) = emitted(&result_json(&outcome, trace));
                got.sort();
                assert_eq!(got, want, "{workload} trace={trace}");
                assert_eq!(
                    json["correct"],
                    serde_json::Value::Bool(true),
                    "{workload} {json:?}"
                );
                assert_eq!(json["failed"].as_u64(), Some(0));
                assert!(json["attempted"].as_u64() > Some(0));
                if !trace {
                    for (name, v) in &outcome.metrics {
                        assert!(*v > 0.0, "{workload} {name} = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_recorded_fingerprint_is_a_failed_operation() {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let env = Env::pin();
        for (workload, kind) in [
            ("paper", "reports"),
            ("crowd-1m", "digest"),
            ("split-resume", "merged"),
        ] {
            let mut checker = Checker::new(check::RECORDED, &key(workload, Size::Smoke), 0);
            checker.expect(kind, "0000000000000000");
            let outcome = run(&smoke(workload, false), &env, &mut checker).expect("known workload");
            assert!(
                outcome.failed >= 3,
                "{workload}: every repetition fails, got {outcome:?}"
            );
            assert!(
                outcome.attempted > outcome.failed,
                "{workload}: set-ups still pass"
            );
            let (json, _) = emitted(&result_json(&outcome, false));
            assert_eq!(json["correct"], serde_json::Value::Bool(false));
        }
    }
}
