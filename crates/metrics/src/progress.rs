//! Visual progress: the completeness-over-time curve.
//!
//! SpeedIndex is defined over the "percentage of pixels that are visually
//! complete (i.e., match their final state) over time" (§5.2). The curve
//! here is computed exactly as a WebPageTest-style pipeline would: render
//! the video frame at each change point and compare it pixel-by-pixel
//! against the final state of the viewport.

use eyeorg_net::SimTime;
use eyeorg_video::Video;

/// The visual completeness curve of a capture: `(time, fraction)` points
/// at `t = 0` and after each viewport-visible change, where `fraction` is
/// the share of viewport cells already in their final state. The final
/// point has fraction 1.0 by construction.
///
/// The "final state" is the frame at the last viewport-visible paint
/// (matching WebPageTest, which ends its analysis at the last visual
/// change rather than at an arbitrary capture end).
pub fn visual_progress_curve(video: &Video) -> Vec<(SimTime, f64)> {
    let fold = video.trace().fold_y;
    let end = SimTime::from_micros(video.duration().as_micros());
    // Times at which the viewport visibly changes within the recording.
    let mut change_times: Vec<SimTime> = video
        .trace()
        .paints
        .iter()
        .filter(|p| p.time <= end)
        .filter(|p| p.rect.above_fold(fold).is_some())
        .map(|p| p.time)
        .collect();
    change_times.dedup();
    let Some(&last) = change_times.last() else {
        return vec![(SimTime::ZERO, 1.0)];
    };
    // One incremental pass over the paint stream instead of a full
    // render + full-grid diff per change point; the values are
    // bit-identical to the per-frame comparison (see
    // `Video::completeness_at_times`).
    let mut times = Vec::with_capacity(change_times.len() + 1);
    times.push(SimTime::ZERO);
    times.extend(change_times);
    let completeness = video.completeness_at_times(&times, last);
    times.into_iter().zip(completeness).collect()
}

/// First time the curve reaches `target` completeness (e.g. 0.85 for the
/// "visually ready" threshold some tools report). `None` if never.
pub fn time_to_completeness(curve: &[(SimTime, f64)], target: f64) -> Option<SimTime> {
    curve.iter().find(|(_, c)| *c >= target).map(|(t, _)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(1), 0, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(1));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn curve_ends_at_one() {
        let curve = visual_progress_curve(&video());
        let last = curve.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn curve_times_nondecreasing_and_bounded() {
        let curve = visual_progress_curve(&video());
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        for (_, c) in &curve {
            assert!((0.0..=1.0).contains(c));
        }
    }

    #[test]
    fn starts_incomplete() {
        let curve = visual_progress_curve(&video());
        assert!(curve[0].1 < 0.5, "blank page far from final state: {}", curve[0].1);
    }

    #[test]
    fn incremental_curve_matches_per_frame_reference() {
        // The shipped curve uses `Video::completeness_at_times`; the
        // definitional implementation renders every change point and
        // diffs full grids. They must agree bit-for-bit, on this file's
        // capture and on a longer one of a different site.
        let site = &eyeorg_workload::alexa_like(Seed(2016), 1)[0];
        let trace = load_page(site, &BrowserConfig::new(), Seed(2));
        let longer = Video::capture(trace, 10, SimDuration::from_secs(5));
        for v in [video(), longer] {
            let curve = visual_progress_curve(&v);
            let last = curve.last().unwrap().0;
            let final_frame = v.render_at(last);
            for &(t, c) in &curve {
                let reference = 1.0 - v.render_at(t).diff_fraction(&final_frame);
                assert_eq!(c, reference, "completeness at {t:?}");
            }
        }
    }

    #[test]
    fn time_to_completeness_finds_threshold() {
        let curve = visual_progress_curve(&video());
        let t50 = time_to_completeness(&curve, 0.5).unwrap();
        let t99 = time_to_completeness(&curve, 0.99).unwrap();
        assert!(t50 <= t99);
        assert!(time_to_completeness(&curve, 1.5).is_none());
    }
}
