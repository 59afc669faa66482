//! Materialised frame timelines with memoised rewind lookups.
//!
//! A campaign serves each video to dozens of participants, and every
//! timeline response consults the rewind helper, which compares frames
//! pairwise. Rendering each frame from the paint stream on every lookup
//! would make campaigns quadratic in practice; [`FrameTimeline`]
//! materialises the frame sequence once per video (incrementally — total
//! work proportional to painted area, not frames × paints) and memoises
//! rewind queries, so a whole campaign touches each distinct scan at most
//! once.

use std::collections::BTreeMap;

use eyeorg_net::SimTime;

use crate::capture::{paint_salt, Video};
use crate::compare::SIMILARITY_THRESHOLD;
use crate::frame::{appearance, Frame};

/// All frames of a capture, materialised, plus memoised helper queries.
///
/// Frames are copy-on-write ([`Frame`] shares cell buffers via `Arc`),
/// so intervals without paints cost a pointer clone, and the recorded
/// per-interval *deltas* — each cell write as `(index, old, new)` — let
/// rewind scans maintain a running differing-cell count instead of
/// re-diffing full grids (see [`FrameTimeline::of`]).
#[derive(Debug, Clone)]
pub struct FrameTimeline {
    frames: Vec<Frame>,
    /// `deltas[i]` is the sequence of cell writes transforming frame
    /// `i - 1` into frame `i` (`deltas[0]`: blank into frame 0). Writes
    /// chain per cell, so summing `(new != t) - (old != t)` over an
    /// interval telescopes to the exact change in "cells differing from
    /// `t`" across that interval.
    deltas: Vec<Vec<(u32, u8, u8)>>,
    rewind_memo: BTreeMap<usize, usize>,
}

impl FrameTimeline {
    /// Materialise every frame of `video` by applying paints
    /// incrementally between frame instants. Total work is proportional
    /// to painted area (cells actually written), not frames × grid.
    pub fn of(video: &Video) -> FrameTimeline {
        let n = video.frame_count();
        let trace = video.trace();
        let probe = video.render_at(SimTime::ZERO);
        let (w, h) = (probe.width(), probe.height());
        let sx = f64::from(w) / f64::from(trace.canvas_width.max(1));
        let sy = f64::from(h) / f64::from(trace.fold_y.max(1));

        let mut frames = Vec::with_capacity(n);
        let mut deltas = Vec::with_capacity(n);
        let mut cur = Frame::blank(w, h);
        let mut paint_idx = 0;
        for i in 0..n {
            let t = video.frame_time(i);
            let mut interval: Vec<(u32, u8, u8)> = Vec::new();
            while paint_idx < trace.paints.len() && trace.paints[paint_idx].time <= t {
                let p = &trace.paints[paint_idx];
                paint_idx += 1;
                let Some(visible) = p.rect.above_fold(trace.fold_y) else { continue };
                cur.fill_rect_scaled_traced(
                    &visible,
                    sx,
                    sy,
                    appearance(p.resource.0, paint_salt(p)),
                    &mut |idx, old, new| interval.push((idx, old, new)),
                );
            }
            frames.push(cur.clone());
            deltas.push(interval);
        }
        FrameTimeline { frames, deltas, rewind_memo: BTreeMap::new() }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the timeline is empty (never true for a real capture).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame `i`.
    ///
    /// # Panics
    /// Panics out of range.
    pub fn frame(&self, i: usize) -> &Frame {
        &self.frames[i]
    }

    /// Earliest frame within [`SIMILARITY_THRESHOLD`] of frame `chosen`
    /// (the rewind helper), memoised per chosen index.
    pub fn rewind(&mut self, chosen: usize) -> usize {
        let chosen = chosen.min(self.frames.len().saturating_sub(1));
        if let Some(&r) = self.rewind_memo.get(&chosen) {
            return r;
        }
        let result = self.compute_rewind(chosen);
        self.rewind_memo.insert(chosen, result);
        result
    }

    /// [`rewind`](Self::rewind) through a shared reference: answers from
    /// the memo when present, otherwise recomputes without storing (the
    /// scan is pure, so the answer is identical either way). Combine with
    /// [`precompute_rewinds`](Self::precompute_rewinds) to serve many
    /// concurrent readers with memo-hit cost.
    pub fn rewind_at(&self, chosen: usize) -> usize {
        let chosen = chosen.min(self.frames.len().saturating_sub(1));
        if let Some(&r) = self.rewind_memo.get(&chosen) {
            return r;
        }
        self.compute_rewind(chosen)
    }

    /// Fill the rewind memo for every frame, so subsequent
    /// [`rewind_at`](Self::rewind_at) calls are pure lookups. The scans
    /// for distinct chosen indices are independent, so this is where a
    /// campaign pays the whole per-video rewind cost up front — once —
    /// before fanning participants out across threads.
    pub fn precompute_rewinds(&mut self) {
        for chosen in 0..self.frames.len() {
            if !self.rewind_memo.contains_key(&chosen) {
                let r = self.compute_rewind(chosen);
                self.rewind_memo.insert(chosen, r);
            }
        }
    }

    /// The whole rewind memo as a flat `table[chosen] -> rewind` vector
    /// (answers from the memo when present, recomputed otherwise). The
    /// batch campaign engine carries this table instead of the timeline:
    /// a rewind lookup becomes one bounds-checked index, with no
    /// `BTreeMap` walk on the per-response path.
    pub fn rewind_table(&self) -> Vec<usize> {
        (0..self.frames.len()).map(|chosen| self.rewind_at(chosen)).collect()
    }

    /// The rewind scan, incrementally: the reference semantics are "the
    /// first `i` in `0..=chosen` with `diff_fraction(frame i, frame
    /// chosen) <= threshold`". Rather than diffing each pair (O(chosen ×
    /// grid)), walk *backwards* from `chosen` maintaining the exact count
    /// of cells differing from the target — undoing one interval's
    /// recorded writes adjusts the count by `(old != t) - (new != t)` per
    /// write — and keep the earliest qualifying index. The counts are
    /// integers, so `count / len` is bit-identical to what
    /// `diff_fraction` computes on the full grids.
    fn compute_rewind(&self, chosen: usize) -> usize {
        let target = self.frames[chosen].cells();
        let len = target.len() as f64;
        let mut differing: i64 = 0; // frame `chosen` vs itself
        let mut result = chosen;
        for i in (0..=chosen).rev() {
            // `differing` is now the count for frame `i` vs the target.
            debug_assert!(differing >= 0);
            if differing as f64 / len <= SIMILARITY_THRESHOLD {
                result = i; // keep walking: earlier qualifying i wins
            }
            if i > 0 {
                for &(idx, old, new) in &self.deltas[i] {
                    let t = target[idx as usize];
                    differing += i64::from(old != t) - i64::from(new != t);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::rewind_suggestion;
    use eyeorg_browser::{load_page, BrowserConfig};
    use eyeorg_net::SimDuration;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    fn video() -> Video {
        let site = generate_site(Seed(60), 2, SiteClass::Blog);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(61));
        Video::capture(trace, 10, SimDuration::from_secs(3))
    }

    #[test]
    fn materialised_frames_match_lazy_rendering() {
        let v = video();
        let tl = FrameTimeline::of(&v);
        assert_eq!(tl.len(), v.frame_count());
        for i in [0, 1, v.frame_count() / 3, v.frame_count() - 1] {
            assert_eq!(*tl.frame(i), v.frame(i), "frame {i}");
        }
    }

    #[test]
    fn rewind_matches_reference_implementation() {
        let v = video();
        let mut tl = FrameTimeline::of(&v);
        for chosen in [0, 3, v.frame_count() / 2, v.frame_count() - 1] {
            assert_eq!(tl.rewind(chosen), rewind_suggestion(&v, chosen), "chosen {chosen}");
        }
        // Every frame of a longer capture, through the precomputed table.
        let site = &eyeorg_workload::alexa_like(Seed(2016), 1)[0];
        let trace = load_page(site, &BrowserConfig::new(), Seed(62));
        let v = Video::capture(trace, 10, SimDuration::from_secs(5));
        let mut tl = FrameTimeline::of(&v);
        tl.precompute_rewinds();
        for chosen in 0..v.frame_count() {
            assert_eq!(tl.rewind_at(chosen), rewind_suggestion(&v, chosen), "chosen {chosen}");
        }
    }

    #[test]
    fn shared_lookup_matches_memoising_path() {
        let v = video();
        let mut memoising = FrameTimeline::of(&v);
        let shared = FrameTimeline::of(&v);
        let mut precomputed = FrameTimeline::of(&v);
        precomputed.precompute_rewinds();
        for chosen in 0..v.frame_count() {
            let reference = memoising.rewind(chosen);
            assert_eq!(shared.rewind_at(chosen), reference, "cold &self lookup, frame {chosen}");
            assert_eq!(precomputed.rewind_at(chosen), reference, "precomputed, frame {chosen}");
        }
    }

    #[test]
    fn rewind_table_matches_per_frame_lookups() {
        let v = video();
        let mut tl = FrameTimeline::of(&v);
        tl.precompute_rewinds();
        let table = tl.rewind_table();
        assert_eq!(table.len(), tl.len());
        for (chosen, &entry) in table.iter().enumerate() {
            assert_eq!(entry, tl.rewind_at(chosen), "frame {chosen}");
        }
        // Cold (un-memoised) tables answer identically.
        assert_eq!(FrameTimeline::of(&v).rewind_table(), table);
    }

    #[test]
    fn rewind_memoised_and_clamped() {
        let v = video();
        let mut tl = FrameTimeline::of(&v);
        let last = tl.len() - 1;
        let a = tl.rewind(last);
        let b = tl.rewind(last); // memo hit
        assert_eq!(a, b);
        // Out-of-range chosen clamps to the final frame.
        assert_eq!(tl.rewind(usize::MAX), a);
    }
}
