//! The window grid: every window loop of this crate — the sieve windows
//! of independent access, the IOP windows of the two-phase schedule and
//! the staging chunks of the contiguous paths — cuts its byte range along
//! absolute multiples of the window size.
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

use lio_obs::health;
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
/// wake-up and the way back. An inline staged write that took longer arms
/// the lane; one that did not (a decorator over `MemFile`, a real file's
/// page cache) is cheaper done in line. It is `ThrottledFile`'s boundary
/// between a delay it spins through and one it sleeps through — below it
/// the waiting thread keeps its core and a second thread has nothing to
/// overlap with.
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
/// [`WindowIo::finish`]. Once one of its inline staged writes has taken
/// longer than [`LANE_HOP`], its later windows are written back by one
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
    /// Time in `read_at`/`write_at` (the `io.read`/`io.write` spans), the
    /// lane's included; stays 0 while the storage lends.
    pub io_ns: u64,
    /// Time in the loop body (the `pack.place` spans).
    pub pack_ns: u64,
}

/// The write-behind lane of one window loop. Buffers cross to the lane
/// thread and come back through the channels, so the arena stays on the
/// rank's thread.
struct Lane {
    /// `(offset, buffer, length)` of the window to write.
    jobs: Sender<(u64, Vec<u8>, usize)>,
    /// The buffer, what the write returned and the nanoseconds it took.
    done: Receiver<(Vec<u8>, Result<()>, u64)>,
    in_flight: bool,
    /// The buffer that is not being filled: the last one to come back.
    spare: Vec<u8>,
}

impl Lane {
    fn spawn<'s>(scope: &'s Scope<'s, '_>, storage: &'s dyn StorageFile) -> Lane {
        let (jobs, todo) = mpsc::channel::<(u64, Vec<u8>, usize)>();
        let (tx, done) = mpsc::channel();
        let (th, hh) = (lio_obs::trace::thread_handle(), health::thread_handle());
        scope.spawn(move || {
            lio_obs::trace::adopt(th);
            health::adopt(hh);
            for (win, buf, len) in todo {
                let (res, ns) = timed(Some(("io.write", win, len as u64)), || {
                    write_window(storage, win, &buf[..len])
                });
                // the throttle's busy-wait tail is this thread's CPU, not
                // device time another thread could have overlapped with
                let ns = ns.saturating_sub(lio_pfs::take_spin_ns());
                if tx.send((buf, res, ns)).is_err() {
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
            io_ns: 0,
            pack_ns: 0,
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
    /// is not dense is read first.
    pub fn update(
        &mut self,
        win: u64,
        win_end: u64,
        dense: impl FnOnce() -> bool,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> Result<()> {
        let storage = self.storage;
        let len = win_end - win;
        let (lent, ns) = timed(None, || {
            storage.with_range_mut(win, win_end, &mut |at, piece| {
                let _sp = lio_obs::trace::span_ab("pack.place", at, piece.len() as u64);
                f(at, piece)
            })
        });
        if lent? {
            self.pack_ns += ns;
            OBS_IN_PLACE_BYTES.add(len);
            return Ok(());
        }
        let (owner, behind) = (self.owner, self.lane.is_some());
        let fb = self.stage(len as usize);
        let dense = dense();
        let mut io_ns = 0;
        if !dense {
            let (read, ns) = timed(Some(("io.read", win, len)), || {
                read_window(storage, win, fb)
            });
            read?;
            io_ns = ns;
        }
        let ((), pack_ns) = timed(Some(("pack.place", win, 0)), || f(win, fb));
        let mut slow = false;
        if !behind {
            // only a loop that could arm the lane pays for the clock
            let clock = owner.map(|_| Instant::now());
            let (written, ns) = timed(Some(("io.write", win, len)), || {
                write_window(storage, win, fb)
            });
            written?;
            io_ns += ns;
            slow = clock.is_some_and(|t| t.elapsed() > LANE_HOP);
        }
        self.io_ns += io_ns;
        self.pack_ns += pack_ns;
        OBS_STAGED_BYTES.add(len * (2 - dense as u64));
        if behind {
            return self.write_behind(win, len as usize);
        }
        if let (Some(scope), true) = (owner, slow) {
            self.lane = Some(Lane::spawn(scope, storage));
        }
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
        let (buf, res, ns) = lane
            .done
            .recv()
            .expect("the lane answers every job it was sent");
        lane.in_flight = false;
        lane.spare = buf;
        self.io_ns += ns;
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
        let (lent, ns) = timed(None, || {
            storage.with_range(win, win_end, &mut |at, piece| {
                let _sp = lio_obs::trace::span_ab("pack.place", at, piece.len() as u64);
                f(at, piece)
            })
        });
        if lent? {
            self.pack_ns += ns;
            OBS_IN_PLACE_BYTES.add(len);
            return Ok(());
        }
        let fb = self.stage(len as usize);
        let (read, io_ns) = timed(Some(("io.read", win, len)), || {
            read_window(storage, win, fb)
        });
        read?;
        let ((), pack_ns) = timed(Some(("pack.place", win, 0)), || f(win, fb));
        self.io_ns += io_ns;
        self.pack_ns += pack_ns;
        OBS_STAGED_BYTES.add(len);
        Ok(())
    }
}

/// Run `work` — under the trace span `(tag, a, b)`, if any — and return
/// what it returned and the nanoseconds it took (0 with obs off).
pub(crate) fn timed<R>(
    span: Option<(&'static str, u64, u64)>,
    work: impl FnOnce() -> R,
) -> (R, u64) {
    let t = lio_obs::now();
    let _sp = span.map(|(tag, a, b)| lio_obs::trace::span_ab(tag, a, b));
    let r = work();
    (r, lio_obs::elapsed_ns(t))
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
    use lio_pfs::{CountingFile, MemFile};

    #[test]
    fn lent_windows_take_no_buffer_and_need_no_pre_read() {
        let scratch = Scratch::default();
        scratch.begin_op();
        let file = MemFile::with_data(vec![7; 100]);
        let mut io = WindowIo::new(&file, &scratch, 64);
        let dense = || -> bool { unreachable!("only staging asks") };
        io.update(10, 20, dense, &mut |at, piece| {
            assert_eq!((at, piece.len()), (10, 10));
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
        assert_eq!(io.io_ns, 0, "obs is off");
        drop(io);
        assert_eq!(scratch.held(), 64, "one buffer, taken by the staged window");
    }

    #[test]
    fn declined_windows_are_staged_through_one_buffer() {
        let scratch = Scratch::default();
        scratch.begin_op();
        let file = CountingFile::new(MemFile::with_data(vec![7; 100]));
        let mut io = WindowIo::new(&file, &scratch, 16);
        // not dense: read, modified, written back
        io.update(10, 20, || false, &mut |at, piece| {
            assert_eq!((at, piece.len()), (10, 10));
            piece[0] = 1;
        })
        .unwrap();
        // dense: written without a read
        io.update(20, 30, || true, &mut |_, piece| piece.fill(2))
            .unwrap();
        let stats = file.stats();
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
        assert_eq!(scratch.held(), 16 + 40, "both buffers went back");
    }

    /// Staging storage whose writes take twice the lane hop.
    struct Slow(MemFile);

    impl StorageFile for Slow {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(2 * LANE_HOP);
            self.0.write_at(offset, buf)
        }
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.0.set_len(len)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.0.sync()
        }
    }

    #[test]
    fn only_a_sole_writer_writes_behind_and_through_two_buffers() {
        let mut want = vec![7u8; 64];
        for w in 0..4 {
            want[w * 16] = w as u8;
        }
        let run = |io: &mut WindowIo| {
            for w in 0..4u64 {
                io.update(w * 16, w * 16 + 16, || false, &mut |_, piece| {
                    piece[0] = w as u8
                })
                .unwrap();
            }
            io.finish().unwrap();
            io.lane.is_some()
        };
        // declared: the first slow write arms the lane, the other three
        // windows alternate between two buffers
        let (scratch, file) = (Scratch::default(), Slow(MemFile::with_data(vec![7; 64])));
        scratch.begin_op();
        let armed =
            std::thread::scope(|lane| run(&mut WindowIo::sole_writer(&file, &scratch, 16, lane)));
        assert!(armed);
        assert_eq!(file.0.snapshot(), want);
        assert_eq!(scratch.held(), 32, "both buffers came home");
        // not declared: every write is made before `update` returns
        let (scratch, file) = (Scratch::default(), Slow(MemFile::with_data(vec![7; 64])));
        scratch.begin_op();
        assert!(!run(&mut WindowIo::new(&file, &scratch, 16)));
        assert_eq!(file.0.snapshot(), want);
        assert_eq!(scratch.held(), 16);
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
