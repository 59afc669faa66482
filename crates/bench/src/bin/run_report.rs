//! Deterministic run-report harness.
//!
//! Runs a small end-to-end campaign — corpus → webpeg captures →
//! timeline + A/B campaigns → filtering → analysis — with the
//! observability layer enabled, then writes the aggregated
//! [`eyeorg_obs::RunReport`] to `results/RUN_report.json`.
//!
//! The counter section of the report is a pure function of the workload
//! and seeds (wall-clock timings live in a separate section and are
//! excluded from the fingerprint). The `run_report_golden` test of this
//! crate runs this binary at 1, 2 and 4 threads and pins it.
//!
//! `--out PATH` sets where to write the report (default
//! `results/RUN_report.json`).

use eyeorg_bench::campaigns::{capture_browser, protocol_capture_browser};
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::{resolve_threads, Seed};
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const SITES: usize = 8;
const REPEATS: usize = 2;
const PARTICIPANTS: usize = 60;

fn main() {
    let mut out_path = String::from("results/RUN_report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    eyeorg_obs::enable();
    // 0 = auto: the EYEORG_THREADS override (or the hardware count)
    // decides whether the campaign engine runs sequential or parallel —
    // exactly the knob the determinism check exercises.
    let threads = resolve_threads(0);
    let seed = Seed(2016).derive("run-report");
    let capture = CaptureConfig { repeats: REPEATS, ..CaptureConfig::default() };

    let sites = eyeorg_obs::time_phase("report.corpus", || alexa_like(seed.derive("sites"), SITES));

    let tl_stimuli = eyeorg_obs::time_phase("report.capture_timeline", || {
        timeline_stimuli(&sites, &capture_browser(), &capture, seed.derive("tl-cap"))
    });
    let ab_stimuli = eyeorg_obs::time_phase("report.capture_ab", || {
        protocol_ab_stimuli(&sites, &protocol_capture_browser(), &capture, seed.derive("ab-cap"))
    });

    let cfg = ExperimentConfig::default();
    let tl = run_timeline_campaign(
        tl_stimuli,
        &CrowdFlower,
        PARTICIPANTS,
        &cfg,
        seed.derive("tl-run"),
    );
    let ab = run_ab_campaign(ab_stimuli, &CrowdFlower, PARTICIPANTS, &cfg, seed.derive("ab-run"));

    let (tl_report, ab_report) = eyeorg_obs::time_phase("report.filtering", || {
        let pipeline = paper_pipeline();
        (filter_timeline(&tl, &pipeline), filter_ab(&ab, &pipeline))
    });
    eyeorg_obs::time_phase("report.analysis", || {
        let banded = uplt_samples(&tl, &tl_report, Some((25.0, 75.0)));
        let tallies = ab_tallies(&ab, &ab_report);
        // Consume the aggregates so the analysis stage cannot be
        // optimised away; the counts also serve as a smoke check.
        let retained: usize = banded.iter().map(Vec::len).sum();
        let votes: u32 = tallies.iter().map(AbTally::total).sum();
        assert!(retained > 0, "a healthy campaign retains responses");
        assert!(votes > 0, "a healthy campaign collects votes");
    });

    let report = eyeorg_obs::snapshot("run-report", threads);
    std::fs::create_dir_all(
        std::path::Path::new(&out_path).parent().unwrap_or(std::path::Path::new(".")),
    )
    .expect("create output dir");
    std::fs::write(&out_path, report.to_json_pretty()).expect("write run report");
    println!("wrote {out_path} (threads={threads})");
}
