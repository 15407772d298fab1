//! The window grid: every window loop of this crate — the sieve windows
//! of independent access and the IOP windows of the two-phase schedule —
//! cuts its byte range along absolute multiples of the window size.
//!
//! Absolute, not relative to where the data starts: the boundaries then
//! fall on page and lock-stripe boundaries of the storage whatever the
//! displacement of the view, two ranks cutting overlapping ranges agree on
//! every boundary, and only the first and the last window of a range can
//! be short or start off the grid.
//!
//! What a loop does with a window goes through [`WindowIo`]: the body is a
//! closure over *pieces* of the window, and the storage decides whether
//! those are its own bytes or a staging buffer's. A loop that is the only
//! writer of its range gets one more thing from it: staged windows on slow
//! storage are written back *behind* the loop (the write-behind lane).

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;
use std::time::{Duration, Instant};

use lio_datatype::kernels::Store;
use lio_obs::trace::span_ab;
use lio_obs::LazyCounter;
use lio_pfs::StorageFile;

use crate::error::Result;
use crate::scratch::Scratch;
use crate::sieve::{read_window, write_window};

/// Window bytes the storage lent in place: no request, no staging copy.
static OBS_IN_PLACE_BYTES: LazyCounter = LazyCounter::new("io.in_place_bytes");
/// Bytes moved between a staging buffer and the storage by `read_at` and
/// `write_at` — the copies the in-place path does not make. Together with
/// the pack and place copies this is the byte-move table of DESIGN.md §3.4.
static OBS_STAGED_BYTES: LazyCounter = LazyCounter::new("io.staged_bytes");
/// Window bytes the write-behind lane wrote (a part of `io.staged_bytes`).
static OBS_BEHIND_BYTES: LazyCounter = LazyCounter::new("io.behind_bytes");

/// What handing a window to the lane costs: a channel send, a thread
/// wake-up and the way back. Two consecutive inline staged writes that
/// each take longer arm the lane for the rest of the loop. A decorator
/// over `MemFile` or a real file's page cache stays under it; it is wall
/// time, so the host may preempt one such write past it, but one write
/// is not a slow storage, and the lane stays unarmed until the next write
/// is slow as well. It is the `Throttle`'s boundary between a delay it
/// spins through and one it sleeps through — below it the waiting thread
/// keeps its core and a second thread has nothing to overlap with.
pub(crate) const LANE_HOP: Duration = Duration::from_micros(100);

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

    /// How many windows the walk yields.
    pub fn cells(&self) -> u64 {
        let n = (self.hi > self.at).then(|| (self.hi - 1) / self.size - self.at / self.size);
        n.map_or(0, |last| last + 1)
    }

    /// Where `rank` of `ranks` starts its walk: the start of window
    /// `k = ⌊rank·n/ranks⌋` of the `n`, a grid line, so that ranks sieving
    /// interleaved views of one range start `n/ranks` windows apart
    /// instead of queueing on one window's lock. `None` when `k = 0`:
    /// rank 0, and every walk of one window, starts at the bottom.
    pub fn stagger(&self, rank: usize, ranks: usize) -> Option<u64> {
        let k = (rank as u128 * self.cells() as u128 / ranks.max(1) as u128) as u64;
        (k > 0).then(|| (self.at / self.size + k) * self.size)
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

/// The storage side of one window loop. [`WindowIo::update`] and
/// [`WindowIo::view`] hand the loop body the bytes of a window as
/// `f(abs_offset, bytes)` over ascending pieces: the storage's own when it
/// lends them ([`StorageFile::with_range_mut`] — `MemFile` does, a piece
/// per lock stripe), else one piece, a buffer from the arena that is read
/// before and written back after as the window requires. Which of the two
/// is the storage's answer, per window; nothing selects it.
///
/// In place there is no pre-read, dense window or not: bytes the body
/// does not write are not touched. And an operation that never stages
/// takes no window buffer at all.
///
/// **Write-behind.** A loop made by [`WindowIo::sole_writer`] has declared
/// that nobody else writes its range until it has called
/// [`WindowIo::finish`]. Once two consecutive inline staged writes of it
/// have each taken longer than [`LANE_HOP`], its later windows are
/// written back by one
/// lane thread while the loop pre-reads and fills the next window in a
/// second buffer. At most one write is in flight; its result is taken
/// before the next write is issued and by `finish`, so a failed write
/// stops the loop with no later window written. Storage that lends never
/// stages, so it never sees the thread. A loop whose writes must land
/// before it lets go of something — sieving's window lock — does not
/// declare and stays inline.
pub(crate) struct WindowIo<'a, 'env> {
    storage: &'a dyn StorageFile,
    scratch: &'a Scratch,
    /// The staging buffer, taken at `max_len` by the first window staged.
    buf: Vec<u8>,
    max_len: usize,
    /// Where the lane thread may run: the declaration of `sole_writer`.
    owner: Option<&'a Scope<'a, 'env>>,
    lane: Option<Lane>,
    /// The last inline staged write took longer than [`LANE_HOP`].
    slow: bool,
}

/// The write-behind lane of one window loop. Buffers cross to the lane
/// thread and come back through the channels, so the arena stays on the
/// rank's thread.
struct Lane {
    /// `(offset, buffer, length)` of the window to write.
    jobs: Sender<(u64, Vec<u8>, usize)>,
    /// The buffer and what the write returned.
    done: Receiver<(Vec<u8>, Result<()>)>,
    in_flight: bool,
    /// The buffer that is not being filled: the last one to come back.
    spare: Vec<u8>,
}

impl Lane {
    fn spawn<'s>(scope: &'s Scope<'s, '_>, storage: &'s dyn StorageFile) -> Lane {
        let (jobs, todo) = mpsc::channel::<(u64, Vec<u8>, usize)>();
        let (tx, done) = mpsc::channel();
        let rank = lio_obs::trace::thread_handle();
        scope.spawn(move || {
            lio_obs::trace::adopt(rank);
            for (win, buf, len) in todo {
                let sp = span_ab("io.write", win, len as u64);
                let res = write_window(storage, win, &buf[..len]);
                drop(sp);
                if tx.send((buf, res)).is_err() {
                    break;
                }
            }
        });
        Lane {
            jobs,
            done,
            in_flight: false,
            spare: Vec::new(),
        }
    }
}

impl<'a, 'env> WindowIo<'a, 'env> {
    /// `max_len` is the longest window the loop will ask for; a longer
    /// one (the direct paths' runs have no bound) trades the buffer in.
    pub fn new(storage: &'a dyn StorageFile, scratch: &'a Scratch, max_len: usize) -> Self {
        WindowIo {
            storage,
            scratch,
            buf: Vec::new(),
            max_len,
            owner: None,
            lane: None,
            slow: false,
        }
    }

    /// [`WindowIo::new`] for a loop that is the only writer of the windows
    /// it updates from now until its [`WindowIo::finish`] has returned —
    /// nobody reads them expecting its data before that either. `lane` is
    /// where the write-behind thread runs if the storage turns out slow.
    pub fn sole_writer(
        storage: &'a dyn StorageFile,
        scratch: &'a Scratch,
        max_len: usize,
        lane: &'a Scope<'a, 'env>,
    ) -> Self {
        let mut io = WindowIo::new(storage, scratch, max_len);
        io.owner = Some(lane);
        io
    }

    fn stage(&mut self, len: usize) -> &mut [u8] {
        if self.buf.len() < len {
            self.scratch.give(std::mem::take(&mut self.buf));
            self.buf = self.scratch.take(len.max(self.max_len));
        }
        &mut self.buf[..len]
    }

    /// Let `f` write its bytes of `[win, win_end)`. `dense` says whether
    /// it writes all of them and is asked only when staging: a window that
    /// is not dense is read first. The third argument of `f` is how to
    /// store into the piece: [`Store::Stream`] into the storage's own
    /// bytes, which the op does not read again, [`Store::Cached`] into a
    /// staging buffer, which is written back right away.
    pub fn update(
        &mut self,
        win: u64,
        win_end: u64,
        dense: impl FnOnce() -> bool,
        f: &mut dyn FnMut(u64, &mut [u8], Store),
    ) -> Result<()> {
        let storage = self.storage;
        let len = win_end - win;
        let lent = storage.with_range_mut(win, win_end, &mut |at, piece| {
            let _sp = span_ab("pack.place", at, piece.len() as u64);
            f(at, piece, Store::Stream)
        });
        if lent? {
            OBS_IN_PLACE_BYTES.add(len);
            return Ok(());
        }
        let (owner, behind) = (self.owner, self.lane.is_some());
        let fb = self.stage(len as usize);
        let dense = dense();
        if !dense {
            let _sp = span_ab("io.read", win, len);
            read_window(storage, win, fb)?;
        }
        let sp = span_ab("pack.place", win, 0);
        f(win, fb, Store::Cached);
        drop(sp);
        let mut slow = false;
        if !behind {
            // only a loop that could arm the lane pays for the clock
            let clock = owner.map(|_| Instant::now());
            let _sp = span_ab("io.write", win, len);
            write_window(storage, win, fb)?;
            slow = clock.is_some_and(|t| t.elapsed() > LANE_HOP);
        }
        OBS_STAGED_BYTES.add(len * (2 - dense as u64));
        if behind {
            return self.write_behind(win, len as usize);
        }
        if let (Some(scope), true, true) = (owner, slow, self.slow) {
            self.lane = Some(Lane::spawn(scope, storage));
        }
        self.slow = slow;
        Ok(())
    }

    /// Hand the filled staging buffer to the lane and go on in the other
    /// one — once the write before this one is known to have landed.
    fn write_behind(&mut self, win: u64, len: usize) -> Result<()> {
        self.harvest()?;
        let lane = self.lane.as_mut().expect("called with a lane");
        let full = std::mem::replace(&mut self.buf, std::mem::take(&mut lane.spare));
        lane.jobs
            .send((win, full, len))
            .expect("the lane runs until its job channel closes");
        lane.in_flight = true;
        OBS_BEHIND_BYTES.add(len as u64);
        Ok(())
    }

    /// The result of the write in flight, if there is one.
    fn harvest(&mut self) -> Result<()> {
        let Some(lane) = self.lane.as_mut().filter(|l| l.in_flight) else {
            return Ok(());
        };
        let (buf, res) = lane
            .done
            .recv()
            .expect("the lane answers every job it was sent");
        lane.in_flight = false;
        lane.spare = buf;
        res
    }

    /// Close a [`WindowIo::sole_writer`] loop: every window it updated is
    /// in the storage, or this is the error of the one that is not. Call it
    /// before telling anyone the range is written.
    pub fn finish(&mut self) -> Result<()> {
        self.harvest()
    }

    /// Let `f` read the bytes of `[win, win_end)`; past end-of-file they
    /// are zeros (always staged: the storage lends what it has).
    pub fn view(&mut self, win: u64, win_end: u64, f: &mut dyn FnMut(u64, &[u8])) -> Result<()> {
        let storage = self.storage;
        let len = win_end - win;
        let lent = storage.with_range(win, win_end, &mut |at, piece| {
            let _sp = span_ab("pack.place", at, piece.len() as u64);
            f(at, piece)
        });
        if lent? {
            OBS_IN_PLACE_BYTES.add(len);
            return Ok(());
        }
        let fb = self.stage(len as usize);
        let sp = span_ab("io.read", win, len);
        read_window(storage, win, fb)?;
        drop(sp);
        let _sp = span_ab("pack.place", win, 0);
        f(win, fb);
        OBS_STAGED_BYTES.add(len);
        Ok(())
    }
}

impl Drop for WindowIo<'_, '_> {
    fn drop(&mut self) {
        // A loop that stopped on an error leaves its last write in flight:
        // let it land (its own result is the later error and is dropped),
        // then close the job channel, which ends the lane thread.
        if let Some(lane) = self.lane.take() {
            if lane.in_flight {
                if let Ok((buf, ..)) = lane.done.recv() {
                    self.scratch.give(buf);
                }
            }
            self.scratch.give(lane.spare);
        }
        self.scratch.give(std::mem::take(&mut self.buf));
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
    use lio_pfs::{Counter, Decorated, Go, MemFile, Op, Policy, Throttle};
    use std::sync::atomic::Ordering;

    #[test]
    fn lent_windows_take_no_buffer_and_need_no_pre_read() {
        let scratch = Scratch::default();
        scratch.begin_op();
        let file = MemFile::with_data(vec![7; 100]);
        let mut io = WindowIo::new(&file, &scratch, 64);
        let dense = || -> bool { unreachable!("only staging asks") };
        io.update(10, 20, dense, &mut |at, piece, store| {
            assert_eq!((at, piece.len(), store), (10, 10, Store::Stream));
            piece[0] = 1;
        })
        .unwrap();
        let mut seen = Vec::new();
        io.view(8, 12, &mut |_, piece| seen.extend_from_slice(piece))
            .unwrap();
        assert_eq!(seen, [7, 7, 1, 7], "what was not written is untouched");
        // past EOF the storage declines and the window is staged
        io.view(95, 105, &mut |_, piece| seen = piece.to_vec())
            .unwrap();
        assert_eq!(seen, [7, 7, 7, 7, 7, 0, 0, 0, 0, 0]);
        drop(io);
        assert_eq!(scratch.held(), 64, "one buffer, taken by the staged window");
    }

    #[test]
    fn declined_windows_are_staged_through_one_buffer() {
        let scratch = Scratch::default();
        scratch.begin_op();
        let file = Decorated::new(MemFile::with_data(vec![7; 100]), Counter::default());
        let mut io = WindowIo::new(&file, &scratch, 16);
        // not dense: read, modified, written back
        io.update(10, 20, || false, &mut |at, piece, store| {
            assert_eq!((at, piece.len(), store), (10, 10, Store::Cached));
            piece[0] = 1;
        })
        .unwrap();
        // dense: written without a read
        io.update(20, 30, || true, &mut |_, piece, _| piece.fill(2))
            .unwrap();
        let stats = file.policy().stats();
        assert_eq!((stats.reads, stats.writes), (1, 2));
        // a window longer than announced trades the buffer in
        let mut seen = Vec::new();
        io.view(0, 40, &mut |_, piece| seen = piece.to_vec())
            .unwrap();
        let mut want = vec![7u8; 40];
        want[10] = 1;
        want[20..30].fill(2);
        assert_eq!(seen, want);
        drop(io);
        // the first went back; the second would carry the arena past the
        // 40 B it had out at most
        assert_eq!(scratch.held(), 16, "one buffer went back");
    }

    /// Staging storage whose requests take twice the lane hop.
    fn slow() -> Decorated<MemFile, Throttle> {
        let mut throttle = Throttle::sx6_local_fs();
        throttle.latency = 2 * LANE_HOP;
        Decorated::new(MemFile::with_data(vec![7; 64]), throttle)
    }

    #[test]
    fn only_a_sole_writer_writes_behind_and_through_two_buffers() {
        let mut want = vec![7u8; 64];
        for w in 0..4 {
            want[w * 16] = w as u8;
        }
        let run = |io: &mut WindowIo| {
            for w in 0..4u64 {
                io.update(w * 16, w * 16 + 16, || false, &mut |_, piece, _| {
                    piece[0] = w as u8
                })
                .unwrap();
            }
            io.finish().unwrap();
            io.lane.is_some()
        };
        // declared: the second slow write arms the lane, the other two
        // windows alternate between two buffers
        let (scratch, file) = (Scratch::default(), slow());
        scratch.begin_op();
        let armed =
            std::thread::scope(|lane| run(&mut WindowIo::sole_writer(&file, &scratch, 16, lane)));
        assert!(armed);
        assert_eq!(file.inner().snapshot(), want);
        assert_eq!(scratch.held(), 32, "both buffers came home");
        // not declared: every write is made before `update` returns
        let (scratch, file) = (Scratch::default(), slow());
        scratch.begin_op();
        assert!(!run(&mut WindowIo::new(&file, &scratch, 16)));
        assert_eq!(file.inner().snapshot(), want);
        assert_eq!(scratch.held(), 16);
    }

    /// Staging storage whose first write alone takes twice the lane hop:
    /// one write the host preempted.
    #[derive(Default)]
    struct FirstWriteSlow(std::sync::atomic::AtomicBool);

    impl Policy for FirstWriteSlow {
        fn request(&self, op: Op, _: u64, len: usize, go: impl Go) -> std::io::Result<usize> {
            let first = op == Op::Write && !self.0.swap(true, Ordering::Relaxed);
            if first {
                std::thread::sleep(2 * LANE_HOP);
            }
            go(len)
        }
    }

    /// The rule is checked against the write times the loop itself
    /// recorded (`slow` after each inline write), not against the clock:
    /// the host may preempt a later write past the hop too, and then two
    /// consecutive slow writes arm the lane rightly.
    #[test]
    fn one_slow_write_does_not_arm_the_lane() {
        let scratch = Scratch::default();
        let file = Decorated::new(MemFile::with_data(vec![7; 64]), FirstWriteSlow::default());
        scratch.begin_op();
        let (armed, slow) = std::thread::scope(|lane| {
            let mut io = WindowIo::sole_writer(&file, &scratch, 16, lane);
            let mut slow = Vec::new();
            for w in 0..4u64 {
                let inline = io.lane.is_none();
                io.update(w * 16, w * 16 + 16, || true, &mut |_, piece, _| {
                    piece.fill(w as u8)
                })
                .unwrap();
                if inline {
                    slow.push(io.slow);
                }
            }
            io.finish().unwrap();
            (io.lane.is_some(), slow)
        });
        assert!(slow[0], "the first write sleeps past the hop");
        let twice = slow.windows(2).any(|p| p[0] && p[1]);
        assert_eq!(armed, twice, "armed on the inline writes' times {slow:?}");
        let want: Vec<u8> = (0..64).map(|i| (i / 16) as u8).collect();
        assert_eq!(file.inner().snapshot(), want);
        if !armed {
            assert_eq!(scratch.held(), 16, "one buffer, inline");
        }
    }

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
    fn a_staggered_walk_visits_every_window_once_from_its_rank_s_window() {
        // on the grid and off it, one window and many
        for (lo, hi, size) in [(0u64, 80u64, 10u64), (5, 27, 10), (13, 17, 10), (3, 200, 7)] {
            let grid = Windows::new(lo, hi, size);
            let in_order: Vec<_> = Windows::new(lo, hi, size).collect();
            let n = in_order.len() as u64;
            assert_eq!(grid.cells(), n, "[{lo}, {hi}) by {size}");
            for ranks in 1..=5usize {
                for rank in 0..ranks {
                    let k = rank as u64 * n / ranks as u64;
                    // rank 0 and a walk of one window keep file order
                    let Some(line) = grid.stagger(rank, ranks) else {
                        assert_eq!(k, 0, "rank {rank} of {ranks}");
                        continue;
                    };
                    assert_eq!(line % size, 0, "the split is a grid line");
                    let mut walk: Vec<_> = Windows::new(line, hi, size)
                        .chain(Windows::new(lo, line, size))
                        .collect();
                    assert_eq!(walk[0], in_order[k as usize], "rank {rank} of {ranks}");
                    walk.sort();
                    assert_eq!(walk, in_order, "every window once");
                }
            }
        }
        assert_eq!(Windows::new(7, 7, 10).stagger(1, 2), None);
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
