//! The window grid: every window loop of this crate — the sieve windows
//! of independent access, the IOP windows of both two-phase schedules and
//! the staging chunks of the contiguous paths — cuts its byte range along
//! absolute multiples of the window size.
//!
//! Absolute, not relative to where the data starts: the boundaries then
//! fall on page and lock-stripe boundaries of the storage whatever the
//! displacement of the view, two ranks cutting overlapping ranges agree on
//! every boundary, and only the first and the last window of a range can
//! be short or start off the grid.

/// The grid cell `[k·size, (k+1)·size)` that holds `abs`.
pub(crate) fn cell(abs: u64, size: u64) -> (u64, u64) {
    let start = abs - abs % size;
    (start, start.saturating_add(size))
}

/// `[lo, hi)` cut along the grid: yields `(start, end)` with
/// `start = max(lo, k·size)` and `end = min(hi, (k+1)·size)` for every
/// cell the range touches, in ascending order.
pub(crate) struct Windows {
    at: u64,
    hi: u64,
    size: u64,
}

impl Windows {
    /// A zero `size` is treated as one byte.
    pub fn new(lo: u64, hi: u64, size: u64) -> Windows {
        Windows {
            at: lo,
            hi,
            size: size.max(1),
        }
    }

    /// The longest window this walk yields; window buffers are this size.
    pub fn max_len(&self) -> usize {
        self.size.min(self.hi.saturating_sub(self.at)) as usize
    }
}

impl Iterator for Windows {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.at >= self.hi {
            return None;
        }
        let start = self.at;
        self.at = cell(start, self.size).1.min(self.hi);
        Some((start, self.at))
    }
}

/// `abs` moved to the nearest grid line, but never out of `[lo, hi]`.
pub(crate) fn snap(abs: u64, size: u64, lo: u64, hi: u64) -> u64 {
    let (down, up) = cell(abs, size);
    let nearest = if abs - down < up - abs { down } else { up };
    nearest.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_the_range_on_the_absolute_grid() {
        let w: Vec<_> = Windows::new(5, 27, 10).collect();
        assert_eq!(w, [(5, 10), (10, 20), (20, 27)]);
        // aligned ends: no short windows
        let w: Vec<_> = Windows::new(20, 40, 10).collect();
        assert_eq!(w, [(20, 30), (30, 40)]);
        // a range inside one cell
        let w: Vec<_> = Windows::new(13, 17, 10).collect();
        assert_eq!(w, [(13, 17)]);
        assert_eq!(Windows::new(7, 7, 10).count(), 0);
        assert_eq!(Windows::new(9, 3, 10).count(), 0);
    }

    #[test]
    fn max_len_bounds_every_window() {
        for (lo, hi, size) in [(5u64, 27u64, 10u64), (0, 3, 10), (99, 100, 1), (3, 50, 7)] {
            let max = Windows::new(lo, hi, size).max_len() as u64;
            for (a, b) in Windows::new(lo, hi, size) {
                assert!(b - a <= max && b > a);
            }
        }
    }

    #[test]
    fn the_top_cell_does_not_overflow() {
        let top = u64::MAX - 3;
        assert_eq!(Windows::new(top, u64::MAX, 1 << 20).count(), 1);
        assert_eq!(cell(top, 1 << 20).1, u64::MAX);
    }

    #[test]
    fn snap_picks_the_nearest_line_inside_the_range() {
        assert_eq!(snap(14, 10, 0, 100), 10);
        assert_eq!(snap(15, 10, 0, 100), 20);
        assert_eq!(snap(20, 10, 0, 100), 20);
        assert_eq!(snap(14, 10, 12, 100), 12);
        assert_eq!(snap(96, 10, 0, 97), 97);
    }
}
