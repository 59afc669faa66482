//! Video frames.
//!
//! webpeg captures the browser viewport with ffmpeg; participants only
//! ever see those pixels. A [`Frame`] is the simulated equivalent: a
//! downscaled grid over the viewport (the above-the-fold region) where
//! each cell holds an 8-bit "appearance" value. Appearance values are
//! content hashes, not colours — two cells are "the same pixels" iff
//! their values match, which is all that frame comparison (the 1 %
//! rewind-frame helper, Fig. 3) needs.

use std::sync::Arc;

use eyeorg_workload::Rect;

use crate::bitplane::{count_diff_bytes, count_ne_bytes, packed_diff, packed_ne, BitGrid};

/// Appearance value of unpainted page background (blank white page).
pub const BLANK: u8 = 245;

/// A downscaled viewport frame.
///
/// Cell storage is copy-on-write: `Clone` shares the underlying buffer
/// via [`Arc`], and mutators detach it only when the frame is actually
/// written while shared. A materialised timeline of `n` frames where
/// only `k` intervals repaint therefore holds `k + 1` buffers, not `n`.
/// `Arc`'s `Debug`/`PartialEq`/`Hash` all delegate to the inner vector,
/// so fingerprints and comparisons are unchanged from a plain `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    width: u32,
    height: u32,
    cells: Arc<Vec<u8>>,
}

impl Frame {
    /// A blank frame of the given grid size.
    ///
    /// # Panics
    /// Panics on a zero-sized grid.
    pub fn blank(width: u32, height: u32) -> Frame {
        assert!(width > 0 && height > 0, "frame grid must be non-empty");
        Frame { width, height, cells: Arc::new(vec![BLANK; (width * height) as usize]) }
    }

    /// Whether two frames share the same cell buffer (their contents are
    /// then trivially equal).
    pub fn shares_cells(&self, other: &Frame) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Grid width in cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw cells, row-major.
    pub fn cells(&self) -> &[u8] {
        &self.cells
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    /// Panics out of bounds.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height);
        self.cells[(y * self.width + x) as usize]
    }

    /// Fill the grid cells covered by `rect` (given in page coordinates
    /// scaled by `sx`, `sy` cells-per-pixel) with `value`. Regions outside
    /// the grid are clipped.
    pub fn fill_rect_scaled(&mut self, rect: &Rect, sx: f64, sy: f64, value: u8) {
        let (x0, y0, x1, y1) = self.scaled_cell_bounds(rect, sx, sy);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let width = self.width;
        let cells = Arc::make_mut(&mut self.cells);
        for y in y0..y1 {
            for x in x0..x1 {
                cells[(y * width + x) as usize] = value;
            }
        }
    }

    /// [`Frame::fill_rect_scaled`], reporting every cell whose value
    /// actually changes as `(index, old, new)`. The resulting frame is
    /// identical to the untraced fill (writing a cell its current value
    /// is a no-op either way); the reported changes are exactly the
    /// delta between the frame before and after this write, in row-major
    /// order. This is what lets `FrameTimeline` maintain diff counts
    /// incrementally instead of re-scanning full grids.
    pub fn fill_rect_scaled_traced(
        &mut self,
        rect: &Rect,
        sx: f64,
        sy: f64,
        value: u8,
        on_change: &mut dyn FnMut(u32, u8, u8),
    ) {
        let (x0, y0, x1, y1) = self.scaled_cell_bounds(rect, sx, sy);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let width = self.width;
        let cells = Arc::make_mut(&mut self.cells);
        for y in y0..y1 {
            for x in x0..x1 {
                let idx = y * width + x;
                let old = cells[idx as usize];
                if old != value {
                    cells[idx as usize] = value;
                    on_change(idx, old, value);
                }
            }
        }
    }

    /// Clipped cell-coordinate bounds of `rect` scaled by `(sx, sy)`.
    fn scaled_cell_bounds(&self, rect: &Rect, sx: f64, sy: f64) -> (u32, u32, u32, u32) {
        let x0 = (f64::from(rect.x) * sx).floor() as i64;
        let y0 = (f64::from(rect.y) * sy).floor() as i64;
        let x1 = (f64::from(rect.x + rect.w) * sx).ceil() as i64;
        let y1 = (f64::from(rect.y + rect.h) * sy).ceil() as i64;
        (
            x0.clamp(0, i64::from(self.width)) as u32,
            y0.clamp(0, i64::from(self.height)) as u32,
            x1.clamp(0, i64::from(self.width)) as u32,
            y1.clamp(0, i64::from(self.height)) as u32,
        )
    }

    /// Fraction of cells that differ between two frames of equal size
    /// (the paper's "pixel-by-pixel comparison"). The count runs eight
    /// cells per step (SWAR byte comparison + popcount); the integer
    /// result — and therefore the fraction — is identical to a per-cell
    /// scan.
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn diff_fraction(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width, "frame widths differ");
        assert_eq!(self.height, other.height, "frame heights differ");
        if Arc::ptr_eq(&self.cells, &other.cells) {
            return 0.0; // shared buffer: zero differing cells, exactly
        }
        count_diff_bytes(&self.cells, &other.cells) as f64 / self.cells.len() as f64
    }

    /// Fraction of cells that are not blank. Word-parallel like
    /// [`diff_fraction`](Self::diff_fraction).
    pub fn painted_fraction(&self) -> f64 {
        count_ne_bytes(&self.cells, BLANK) as f64 / self.cells.len() as f64
    }

    /// The bitpacked "differs from `other`" plane: bit `i` set iff cell
    /// `i` differs. Popcount of the plane equals the differing-cell
    /// count behind [`diff_fraction`](Self::diff_fraction).
    ///
    /// # Panics
    /// Panics when the dimensions differ.
    pub fn diff_plane(&self, other: &Frame) -> BitGrid {
        assert_eq!(self.width, other.width, "frame widths differ");
        assert_eq!(self.height, other.height, "frame heights differ");
        packed_diff(&self.cells, &other.cells)
    }

    /// The bitpacked "painted" plane: bit `i` set iff cell `i` is not
    /// [`BLANK`].
    pub fn painted_plane(&self) -> BitGrid {
        packed_ne(&self.cells, BLANK)
    }
}

/// Stable appearance value for a resource's content: maps a resource id
/// and a kind salt into `[20, 220]`, avoiding [`BLANK`].
pub fn appearance(resource_id: u32, kind_salt: u8) -> u8 {
    let mut h = u64::from(resource_id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= u64::from(kind_salt) << 32;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    20 + (h % 200) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_frame_is_blank() {
        let f = Frame::blank(8, 4);
        assert_eq!(f.painted_fraction(), 0.0);
        assert_eq!(f.get(7, 3), BLANK);
    }

    #[test]
    fn fill_and_diff() {
        let mut a = Frame::blank(10, 10);
        let b = Frame::blank(10, 10);
        assert_eq!(a.diff_fraction(&b), 0.0);
        // Fill a 5x10 half at 1:1 scale.
        a.fill_rect_scaled(&Rect { x: 0, y: 0, w: 5, h: 10 }, 1.0, 1.0, 7);
        assert_eq!(a.diff_fraction(&b), 0.5);
        assert_eq!(a.painted_fraction(), 0.5);
    }

    #[test]
    fn fill_clips_out_of_bounds() {
        let mut f = Frame::blank(4, 4);
        f.fill_rect_scaled(&Rect { x: 2, y: 2, w: 100, h: 100 }, 1.0, 1.0, 9);
        assert_eq!(f.painted_fraction(), 0.25); // bottom-right 2x2
    }

    #[test]
    fn scaling_maps_page_to_grid() {
        // 1280x720 page viewport onto a 64x36 grid: scale 1/20.
        let mut f = Frame::blank(64, 36);
        f.fill_rect_scaled(&Rect { x: 0, y: 0, w: 640, h: 360 }, 64.0 / 1280.0, 36.0 / 720.0, 3);
        // Top-left quadrant covered.
        assert_eq!(f.get(0, 0), 3);
        assert_eq!(f.get(31, 17), 3);
        assert_eq!(f.get(32, 18), BLANK);
    }

    #[test]
    fn appearance_stable_and_nonblank() {
        for id in 0..500 {
            for salt in [1u8, 2, 3] {
                let v = appearance(id, salt);
                assert_ne!(v, BLANK);
                assert_eq!(v, appearance(id, salt));
            }
        }
        assert_ne!(appearance(1, 1), appearance(2, 1));
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn diff_requires_same_size() {
        let _ = Frame::blank(2, 2).diff_fraction(&Frame::blank(3, 2));
    }

    #[test]
    fn clones_share_cells_until_written() {
        let mut a = Frame::blank(8, 8);
        a.fill_rect_scaled(&Rect { x: 0, y: 0, w: 4, h: 4 }, 1.0, 1.0, 9);
        let b = a.clone();
        assert!(a.shares_cells(&b), "clone shares storage");
        assert_eq!(a.diff_fraction(&b), 0.0);
        // Writing the clone detaches it without touching the original.
        let mut c = b.clone();
        c.fill_rect_scaled(&Rect { x: 4, y: 4, w: 4, h: 4 }, 1.0, 1.0, 7);
        assert!(!c.shares_cells(&b), "write detaches the buffer");
        assert_eq!(b.get(4, 4), BLANK);
        assert_eq!(c.get(4, 4), 7);
    }

    #[test]
    fn traced_fill_reports_exact_changes() {
        let mut plain = Frame::blank(6, 6);
        let mut traced = Frame::blank(6, 6);
        let rect = Rect { x: 1, y: 1, w: 3, h: 2 };
        plain.fill_rect_scaled(&rect, 1.0, 1.0, 42);
        let mut changes = Vec::new();
        traced.fill_rect_scaled_traced(&rect, 1.0, 1.0, 42, &mut |i, o, n| {
            changes.push((i, o, n));
        });
        assert_eq!(plain, traced, "traced fill produces the same frame");
        assert_eq!(changes.len(), 6, "3x2 cells changed");
        assert!(changes.iter().all(|&(_, o, n)| o == BLANK && n == 42));
        // Re-filling with the same value changes nothing and reports nothing.
        let mut again = Vec::new();
        traced.fill_rect_scaled_traced(&rect, 1.0, 1.0, 42, &mut |i, o, n| {
            again.push((i, o, n));
        });
        assert!(again.is_empty());
        assert_eq!(plain, traced);
    }
}
