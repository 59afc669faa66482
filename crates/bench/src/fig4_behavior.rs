//! Figure 4: participant behaviour, paid vs trusted.
//!
//! (a) CDF of total time on site, (b) CDF of total video actions, (c)
//! percentage of correct control responses — each split by participant
//! pool and experiment type. Paper findings to reproduce: paid and
//! trusted distributions are broadly similar, paid slightly *slower*
//! (not faster) on site, the timeline test takes ~3× the A/B test, and
//! paid participants fail controls at a modestly higher rate.

use eyeorg_core::analysis::behavior_points;
use eyeorg_core::viz::ascii_cdfs;
use eyeorg_stats::{Ecdf, Summary};

use crate::campaigns::ValidationSet;
use crate::series_csv;

/// Build the Fig. 4 report from the validation campaigns.
pub fn run(v: &ValidationSet) -> String {
    let tl_paid = behavior_points(&v.tl_paid.campaign);
    let tl_trusted = behavior_points(&v.tl_trusted.campaign);
    let ab_paid = behavior_points(&v.ab_paid.campaign);
    let ab_trusted = behavior_points(&v.ab_trusted.campaign);

    let minutes = |pts: &[eyeorg_core::analysis::BehaviorPoint]| -> Vec<f64> {
        pts.iter().map(|p| p.minutes_on_site).collect()
    };
    let actions = |pts: &[eyeorg_core::analysis::BehaviorPoint]| -> Vec<f64> {
        pts.iter().map(|p| f64::from(p.actions)).collect()
    };

    let mut out = String::new();
    out.push_str("=== Figure 4(a): time spent on site (minutes) ===\n");
    let m_tp = minutes(&tl_paid);
    let m_tt = minutes(&tl_trusted);
    let m_ap = minutes(&ab_paid);
    let m_at = minutes(&ab_trusted);
    for (label, m) in [
        ("timeline/paid", &m_tp),
        ("timeline/trusted", &m_tt),
        ("A/B/paid", &m_ap),
        ("A/B/trusted", &m_at),
    ] {
        let s = Summary::of(m).expect("non-empty campaign");
        out.push_str(&format!(
            "{label:<18} median {:.1} min, mean {:.1} min\n",
            s.median, s.mean
        ));
    }
    let e_tp = Ecdf::new(&m_tp).expect("non-empty");
    let e_tt = Ecdf::new(&m_tt).expect("non-empty");
    out.push_str(&ascii_cdfs(&[("paid", &e_tp), ("trusted", &e_tt)], 10, 48));

    out.push_str("\n=== Figure 4(b): total video actions ===\n");
    let a_tp = actions(&tl_paid);
    let a_tt = actions(&tl_trusted);
    for (label, a) in [("timeline/paid", &a_tp), ("timeline/trusted", &a_tt)] {
        let s = Summary::of(a).expect("non-empty");
        out.push_str(&format!(
            "{label:<18} median {:.0}, max {:.0} actions\n",
            s.median, s.max
        ));
    }

    out.push_str("\n=== Figure 4(c): correct control responses (%) ===\n");
    let pct = |controls: &[eyeorg_core::campaign::ControlRow]| -> f64 {
        let passed = controls.iter().filter(|c| c.passed).count();
        100.0 * passed as f64 / controls.len().max(1) as f64
    };
    out.push_str(&format!(
        "timeline: trusted {:.1}%  paid {:.1}%\n",
        pct(&v.tl_trusted.campaign.controls),
        pct(&v.tl_paid.campaign.controls),
    ));
    out.push_str(&format!(
        "A/B:      trusted {:.1}%  paid {:.1}%\n",
        pct(&v.ab_trusted.campaign.controls),
        pct(&v.ab_paid.campaign.controls),
    ));
    out
}

/// CSV artefacts for external plotting: four CDFs of minutes on site.
pub fn csv(v: &ValidationSet) -> String {
    let mut out = String::new();
    for (label, pts) in [
        ("timeline_paid", behavior_points(&v.tl_paid.campaign)),
        ("timeline_trusted", behavior_points(&v.tl_trusted.campaign)),
        ("ab_paid", behavior_points(&v.ab_paid.campaign)),
        ("ab_trusted", behavior_points(&v.ab_trusted.campaign)),
    ] {
        let minutes: Vec<f64> = pts.iter().map(|p| p.minutes_on_site).collect();
        if let Some(ecdf) = Ecdf::new(&minutes) {
            out.push_str(&series_csv(
                &format!("minutes_{label},cdf"),
                &ecdf.points(),
            ));
        }
    }
    out
}
