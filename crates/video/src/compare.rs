//! Frame comparison: the rewind-frame helper.
//!
//! §3.2 of the paper: after a participant picks a frame on the timeline,
//! Eyeorg shows them "the earliest similar frame (no more than 1 %
//! different in a pixel-by-pixel comparison)" and lets them accept the
//! rewind or keep their choice (Fig. 3a). The §3.3 control, "a
//! nearly-blank rewind frame" the participant must reject (Fig. 3b), is
//! a participant-side draw: `eyeorg_crowd::perception::timeline_control_passes`.

use crate::capture::Video;

/// The similarity threshold of the paper's helper: frames differing in at
/// most this fraction of pixels count as "similar".
pub const SIMILARITY_THRESHOLD: f64 = 0.01;

/// Earliest frame similar to frame `chosen` — the helper's suggestion.
/// Scans from the start and returns the first index whose diff fraction
/// against the chosen frame is at or below `threshold`. Always at most
/// `chosen` (the chosen frame is similar to itself).
///
/// This is the *reference* implementation: it renders and diffs every
/// frame up to `chosen` on each call, so a loop over all frames is
/// quadratic in renders. Callers that query the same video repeatedly
/// should index [`FrameTimeline::rewind_table`](crate::timeline::FrameTimeline::rewind_table)
/// instead.
pub fn earliest_similar_frame(video: &Video, chosen: usize, threshold: f64) -> usize {
    let target = video.frame(chosen);
    for i in 0..=chosen {
        if video.frame(i).diff_fraction(&target) <= threshold {
            return i;
        }
    }
    chosen
}

/// The standard rewind suggestion at the paper's 1 % threshold.
pub fn rewind_suggestion(video: &Video, chosen: usize) -> usize {
    earliest_similar_frame(video, chosen, SIMILARITY_THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(4), 3, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(4));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn rewind_never_later_than_choice() {
        let v = video();
        for chosen in [0, 5, v.frame_count() / 2, v.frame_count() - 1] {
            let r = rewind_suggestion(&v, chosen);
            assert!(r <= chosen);
        }
    }

    #[test]
    fn rewind_from_late_frame_rewinds_past_static_tail() {
        // After the page is fully painted, frames are identical; choosing
        // the final frame must rewind to the first fully-painted one.
        let v = video();
        let last = v.frame_count() - 1;
        let r = rewind_suggestion(&v, last);
        assert!(r < last, "static tail should rewind ({r} vs {last})");
        // And the suggested frame really is similar.
        assert!(v.frame(r).diff_fraction(&v.frame(last)) <= SIMILARITY_THRESHOLD);
    }

    #[test]
    fn rewind_of_blank_start_is_frame_zero() {
        let v = video();
        assert_eq!(rewind_suggestion(&v, 0), 0);
    }

    #[test]
    fn threshold_monotonicity() {
        let v = video();
        let chosen = v.frame_count() - 1;
        let strict = earliest_similar_frame(&v, chosen, 0.0);
        let loose = earliest_similar_frame(&v, chosen, 0.10);
        assert!(loose <= strict, "looser threshold rewinds at least as far");
    }
}
