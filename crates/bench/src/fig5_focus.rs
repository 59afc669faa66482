//! Figure 5: out-of-focus time, conditioned on video load time L.
//!
//! Paper findings: ~10 % more distracted participants when the video
//! takes up to 100 s to load than when it arrives within 2 s; A/B
//! participants (who can play immediately) are about as distracted as
//! fast-loading timeline participants; trusted timeline participants are
//! barely distracted at all.

use eyeorg_core::analysis::{behavior_points, BehaviorPoint};
use eyeorg_stats::Ecdf;

use crate::campaigns::ValidationSet;
use crate::series_csv;

fn focus_series(points: &[BehaviorPoint], l_max: f64) -> (f64, Vec<f64>) {
    let eligible: Vec<&BehaviorPoint> =
        points.iter().filter(|p| p.max_video_load_secs <= l_max).collect();
    let distracted: Vec<f64> = eligible
        .iter()
        .filter(|p| p.out_of_focus_secs > 0.0)
        .map(|p| p.out_of_focus_secs)
        .collect();
    let frac_distracted = if eligible.is_empty() {
        0.0
    } else {
        distracted.len() as f64 / eligible.len() as f64
    };
    (frac_distracted, distracted)
}

/// Build the Fig. 5 report.
pub fn run(v: &ValidationSet) -> String {
    let tl_paid = behavior_points(&v.tl_paid.campaign);
    let tl_trusted = behavior_points(&v.tl_trusted.campaign);
    let ab_paid = behavior_points(&v.ab_paid.campaign);

    let mut out = String::new();
    out.push_str("=== Figure 5: out-of-focus time by video load time L ===\n");
    out.push_str("series                      distracted  median-oof(s)\n");
    for (label, points, l) in [
        ("timeline paid, L<=2s", &tl_paid, 2.0),
        ("timeline paid, L<=10s", &tl_paid, 10.0),
        ("timeline paid, L<=100s", &tl_paid, 100.0),
        ("A/B paid", &ab_paid, f64::INFINITY),
        ("timeline trusted", &tl_trusted, f64::INFINITY),
    ] {
        let (frac, oof) = focus_series(points, l);
        let median = eyeorg_stats::percentile(&oof, 50.0).unwrap_or(0.0);
        out.push_str(&format!("{label:<27} {:>6.1}%      {median:>6.1}\n", frac * 100.0));
    }
    // The paper's headline comparison: distraction grows with L.
    let (f2, _) = focus_series(&tl_paid, 2.0);
    let (f100, _) = focus_series(&tl_paid, 100.0);
    out.push_str(&format!(
        "\ndistraction growth L<=2s -> L<=100s: {:+.1} percentage points (paper: ~ +10)\n",
        (f100 - f2) * 100.0
    ));
    out
}

/// CSV artefact: CDF of out-of-focus seconds for each series.
pub fn csv(v: &ValidationSet) -> String {
    let tl_paid = behavior_points(&v.tl_paid.campaign);
    let ab_paid = behavior_points(&v.ab_paid.campaign);
    let mut out = String::new();
    for (label, points, l) in [
        ("tl_paid_l2", &tl_paid, 2.0),
        ("tl_paid_l10", &tl_paid, 10.0),
        ("tl_paid_l100", &tl_paid, 100.0),
        ("ab_paid", &ab_paid, f64::INFINITY),
    ] {
        let (_, oof) = focus_series(points, l);
        if let Some(e) = Ecdf::new(&oof) {
            out.push_str(&series_csv(&format!("oof_{label},cdf"), &e.points()));
        }
    }
    out
}
