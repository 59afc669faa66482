//! Video capture: turning a load trace into frames.
//!
//! This is webpeg's core loop. The experimenter supplies how many seconds
//! to record after onload ("since there is no automatic way for webpeg to
//! know when the page has finished loading — if there were, Eyeorg would
//! be unnecessary!", §3.1). Frames are rendered lazily from the paint
//! stream, so a campaign's 6,000 served videos cost memory proportional
//! to their traces, not their pixels.

use eyeorg_browser::{LoadTrace, PaintEvent, PaintKind};
use eyeorg_net::{SimDuration, SimTime};
use eyeorg_workload::Rect;

use crate::frame::{appearance, Frame};

/// Appearance salt of a paint event: the paint kind plus the ad-creative
/// generation (each rotation renders different pixels).
pub(crate) fn paint_salt(p: &PaintEvent) -> u8 {
    let kind = match p.kind {
        PaintKind::DocumentBand => 1u8,
        PaintKind::Image => 2,
        PaintKind::Ad => 3,
        PaintKind::Widget => 4,
    };
    kind + p.generation.wrapping_mul(16)
}

/// Default grid width (cells) for captured videos.
pub const GRID_WIDTH: u32 = 64;

/// A captured page-load video: the paint timeline plus capture
/// parameters. Frames render on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    trace: LoadTrace,
    fps: u32,
    /// Wall end of the recording.
    end: SimTime,
    grid_w: u32,
    grid_h: u32,
}

impl Video {
    /// Record `trace` at `fps`, ending `record_after` after onload (or
    /// after the last paint when onload never fired).
    ///
    /// # Panics
    /// Panics if `fps` is zero or above 1,000,000 (the frame step is a
    /// whole number of simulated microseconds).
    pub fn capture(trace: LoadTrace, fps: u32, record_after: SimDuration) -> Video {
        assert!(fps > 0, "fps must be positive");
        assert!(fps <= 1_000_000, "fps must be at most 1000000 (one frame per microsecond)");
        let anchor = trace
            .onload
            .or(trace.last_visual_change())
            .unwrap_or(SimTime::ZERO);
        let end = anchor + record_after;
        // Preserve the viewport aspect ratio on the fixed-width grid.
        let grid_h = ((u64::from(GRID_WIDTH) * u64::from(trace.fold_y))
            / u64::from(trace.canvas_width.max(1)))
        .max(1) as u32;
        let video = Video { trace, fps, end, grid_w: GRID_WIDTH, grid_h };
        eyeorg_obs::metrics::VIDEO_CAPTURES.incr();
        eyeorg_obs::metrics::VIDEO_FRAMES_PER_CAPTURE.record(video.frame_count() as u64);
        video
    }

    /// The underlying trace.
    pub fn trace(&self) -> &LoadTrace {
        &self.trace
    }

    /// Frames per second.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Total number of frames (frame 0 at t=0, last at or after `end`).
    pub fn frame_count(&self) -> usize {
        let step = 1_000_000u64 / u64::from(self.fps);
        (self.end.as_micros() / step + 1) as usize
    }

    /// Wall duration of the video.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_micros(self.end.as_micros())
    }

    /// The capture time of frame `i` (clamped to the last frame).
    pub fn frame_time(&self, i: usize) -> SimTime {
        let step = 1_000_000u64 / u64::from(self.fps);
        let i = i.min(self.frame_count() - 1) as u64;
        SimTime::from_micros(i * step)
    }

    /// Index of the frame covering time `t` (the latest frame at or
    /// before `t`, clamped to the video).
    pub fn frame_index_at(&self, t: SimTime) -> usize {
        let step = 1_000_000u64 / u64::from(self.fps);
        ((t.as_micros() / step) as usize).min(self.frame_count() - 1)
    }

    /// Render the viewport as of frame `i`.
    pub fn frame(&self, i: usize) -> Frame {
        self.render_at(self.frame_time(i))
    }

    /// Render the viewport at an arbitrary time.
    pub fn render_at(&self, t: SimTime) -> Frame {
        let mut f = Frame::blank(self.grid_w, self.grid_h);
        let (sx, sy) = self.scale();
        for p in self.trace.paints_until(t) {
            // Clip to the viewport.
            let Some(visible) = clip_to_fold(&p.rect, self.trace.fold_y) else { continue };
            f.fill_rect_scaled(&visible, sx, sy, appearance(p.resource.0, paint_salt(p)));
        }
        f
    }

    /// Cells-per-pixel scale factors of the capture grid.
    fn scale(&self) -> (f64, f64) {
        (
            f64::from(self.grid_w) / f64::from(self.trace.canvas_width.max(1)),
            f64::from(self.grid_h) / f64::from(self.trace.fold_y.max(1)),
        )
    }

    /// Visual completeness (`1 − diff_fraction` against the frame at
    /// `final_t`) at each of the given nondecreasing instants, computed
    /// in one incremental pass over the paint stream.
    ///
    /// Equivalent to `1.0 - self.render_at(t).diff_fraction(&self.
    /// render_at(final_t))` per instant — a bitpacked "differs from the
    /// final frame" plane ([`crate::bitplane::BitGrid`]) is maintained
    /// across cell writes and popcounted at each sample instant, so each
    /// value is bit-identical to the full-grid comparison — but total
    /// cost is one render plus the painted area, not `times.len()`
    /// renders.
    ///
    /// # Panics
    /// Panics (debug only) when `times` is not sorted.
    pub fn completeness_at_times(&self, times: &[SimTime], final_t: SimTime) -> Vec<f64> {
        debug_assert!(times.windows(2).all(|w| w[0] <= w[1]), "times must be sorted");
        let final_frame = self.render_at(final_t);
        let fin = final_frame.cells();
        let len = fin.len() as f64;
        // Start from the blank frame: the cells differing from the final
        // state are exactly its painted cells.
        let mut diff_plane = final_frame.painted_plane();
        let mut cur = Frame::blank(self.grid_w, self.grid_h);
        let (sx, sy) = self.scale();
        let paints = &self.trace.paints;
        let mut paint_idx = 0;
        let mut out = Vec::with_capacity(times.len());
        for &t in times {
            while paint_idx < paints.len() && paints[paint_idx].time <= t {
                let p = &paints[paint_idx];
                paint_idx += 1;
                let Some(visible) = clip_to_fold(&p.rect, self.trace.fold_y) else { continue };
                cur.fill_rect_scaled_traced(
                    &visible,
                    sx,
                    sy,
                    appearance(p.resource.0, paint_salt(p)),
                    &mut |idx, _old, new| {
                        diff_plane.set(idx as usize, new != fin[idx as usize]);
                    },
                );
            }
            out.push(1.0 - diff_plane.count_ones() as f64 / len);
        }
        out
    }

    /// The last frame (final appearance of the capture window).
    pub fn final_frame(&self) -> Frame {
        self.frame(self.frame_count() - 1)
    }

    /// Visual progress of frame `i` relative to the final frame: the
    /// fraction of cells already in their final state. This is the
    /// "visual completeness" signal a WebPageTest-style pipeline extracts
    /// from the video.
    pub fn completeness(&self, i: usize) -> f64 {
        1.0 - self.frame(i).diff_fraction(&self.final_frame())
    }
}

fn clip_to_fold(rect: &Rect, fold_y: u32) -> Option<Rect> {
    rect.above_fold(fold_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(1), 0, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(1));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn frame_count_and_times() {
        let v = video();
        assert!(v.frame_count() > 10);
        assert_eq!(v.frame_time(0), SimTime::ZERO);
        assert_eq!(v.frame_time(5).as_micros(), 500_000);
        // frame_index_at inverts frame_time.
        assert_eq!(v.frame_index_at(v.frame_time(7)), 7);
    }

    #[test]
    fn video_extends_past_onload() {
        let v = video();
        let onload = v.trace().onload.unwrap();
        assert!(v.duration().as_micros() >= onload.as_micros() + 3_000_000);
    }

    #[test]
    fn first_frame_blank_last_frame_painted() {
        let v = video();
        assert_eq!(v.frame(0).painted_fraction(), 0.0);
        assert!(v.final_frame().painted_fraction() > 0.5, "page mostly painted at end");
    }

    #[test]
    fn completeness_reaches_one_at_end() {
        // Ad rotations churn pixels after onload, so completeness against
        // the final frame is *not* monotone in general (this is exactly
        // why LastVisualChange correlates poorly with perception). It
        // must still end at 1.0 and stay within [0, 1].
        let v = video();
        let n = v.frame_count();
        assert!((v.completeness(n - 1) - 1.0).abs() < 1e-9);
        for i in 0..n {
            let c = v.completeness(i);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn grid_preserves_aspect_ratio() {
        let v = video();
        // 1280x720 viewport → 64x36 grid.
        assert_eq!(v.frame(0).width(), 64);
        assert_eq!(v.frame(0).height(), 36);
    }

    #[test]
    fn one_frame_per_microsecond_is_the_finest_rate() {
        let trace = video().trace().clone();
        let v = Video::capture(trace, 1_000_000, SimDuration::from_secs(3));
        assert_eq!(v.frame_count() as u64, v.duration().as_micros() + 1);
        assert_eq!(v.frame_time(7).as_micros(), 7);
    }

    #[test]
    #[should_panic(expected = "fps must be at most 1000000")]
    fn fps_above_one_per_microsecond_rejected() {
        let trace = video().trace().clone();
        Video::capture(trace, 1_000_001, SimDuration::from_secs(3));
    }

    #[test]
    fn render_is_deterministic() {
        let v = video();
        assert_eq!(v.frame(10), v.frame(10));
    }
}
