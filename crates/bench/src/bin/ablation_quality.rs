//! Quality ablations for DESIGN.md's design decisions: what the paper's
//! mechanisms buy in *result quality* (the wall-time side is
//! perfbench's).
//!
//! 1. The §4.3 filter pipeline, one filter removed at a time.
//! 2. The wisdom-of-the-crowd band: none / 10–90 / 25–75.
//! 3. The frame-selection helper: submitted answers vs raw slider answers.

use eyeorg_core::analysis::{uplt_components, uplt_stdev};
use eyeorg_core::filtering::{
    filter_timeline, paper_pipeline, ActionsFilter, ControlFilter, FilterPipeline, FocusFilter,
    SoftRuleFilter,
};
use eyeorg_stats::Summary;

fn main() {
    let scale = eyeorg_bench::Scale::from_env();
    let validation = eyeorg_bench::campaigns::build_validation(&scale);
    let paid = &validation.tl_paid.campaign;
    let trusted = &validation.tl_trusted.campaign;
    let mut out = String::new();

    // ---- 1. filter-pipeline ablation -----------------------------------
    out.push_str("=== Ablation 1: drop one §4.3 filter at a time ===\n");
    out.push_str("pipeline                  kept  mean-stdev(s)\n");
    let variants: Vec<(&str, FilterPipeline)> = vec![
        ("full pipeline", paper_pipeline()),
        ("no actions filter", vec![
            Box::new(FocusFilter::default()),
            Box::new(SoftRuleFilter),
            Box::new(ControlFilter),
        ]),
        ("no focus filter", vec![
            Box::new(ActionsFilter::default()),
            Box::new(SoftRuleFilter),
            Box::new(ControlFilter),
        ]),
        ("no soft rule", vec![
            Box::new(ActionsFilter::default()),
            Box::new(FocusFilter::default()),
            Box::new(ControlFilter),
        ]),
        ("no control questions", vec![
            Box::new(ActionsFilter::default()),
            Box::new(FocusFilter::default()),
            Box::new(SoftRuleFilter),
        ]),
        ("no filtering at all", vec![]),
    ];
    for (name, pipeline) in &variants {
        let report = filter_timeline(paid, pipeline);
        let stdevs: Vec<f64> =
            uplt_stdev(paid, &report, None).into_iter().flatten().collect();
        let s = Summary::of(&stdevs).expect("non-empty");
        out.push_str(&format!("{name:<25} {:>4}  {:>8.2}\n", report.kept.len(), s.mean));
    }

    // ---- 2. wisdom band -------------------------------------------------
    out.push_str("\n=== Ablation 2: wisdom-of-the-crowd band ===\n");
    out.push_str("band     paid-stdev  trusted-stdev  gap\n");
    let rp = filter_timeline(paid, &paper_pipeline());
    let rt = filter_timeline(trusted, &paper_pipeline());
    for (name, band) in [("none", None), ("10-90", Some((10.0, 90.0))), ("25-75", Some((25.0, 75.0)))]
    {
        let sp: Vec<f64> = uplt_stdev(paid, &rp, band).into_iter().flatten().collect();
        let st: Vec<f64> = uplt_stdev(trusted, &rt, band).into_iter().flatten().collect();
        let mp = Summary::of(&sp).expect("non-empty").median;
        let mt = Summary::of(&st).expect("non-empty").median;
        out.push_str(&format!(
            "{name:<8} {mp:>9.2}s {mt:>13.2}s {:>5.2}s\n",
            (mp - mt).abs()
        ));
    }

    // ---- 3. frame helper --------------------------------------------------
    out.push_str("\n=== Ablation 3: frame-selection helper ===\n");
    let comps = uplt_components(paid, &rp);
    let mut with_helper = Vec::new();
    let mut without = Vec::new();
    for (submitted, slider, _) in &comps {
        let (Some(ms), Some(msl)) = (Summary::of(submitted), Summary::of(slider)) else {
            continue;
        };
        with_helper.push(ms.stdev);
        without.push(msl.stdev);
    }
    let sw = Summary::of(&with_helper).expect("non-empty").mean;
    let so = Summary::of(&without).expect("non-empty").mean;
    out.push_str(&format!(
        "per-video response stdev: submitted (helper on) {sw:.2}s vs raw slider {so:.2}s\n"
    ));
    out.push_str("(the helper pulls sloppy overshoot back to the true change point)\n");

    println!("{out}");
    let path = eyeorg_bench::write_result("ablation_quality.txt", &out);
    eprintln!("wrote {}", path.display());
}
