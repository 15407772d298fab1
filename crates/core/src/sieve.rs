//! Independent non-contiguous file access: data sieving and direct access.
//!
//! This is the independent path of both engines (paper Section 2.2 /
//! 3.2.3). The window loop, locking, and read-modify-write structure are
//! shared; everything datatype-related goes through the crate-internal
//! `ViewNav` and `MemPacker`, which is where the engines differ.

use lio_pfs::{RangeLock, StorageFile};

use crate::error::{IoError, Result};
use crate::hints::{Hints, SievingMode};
use crate::packer::{MemPacker, UserSide};
use crate::scratch::Scratch;
use crate::view::{RunTally, ViewNav};
use crate::window::{WindowIo, Windows};

/// Read `storage[offset..]` into `buf`, zero-filling anything past EOF.
/// Short reads are resumed and transient errors retried with bounded
/// backoff ([`lio_pfs::retry`]), so the result is short only at EOF.
pub(crate) fn read_window(storage: &dyn StorageFile, offset: u64, buf: &mut [u8]) -> Result<()> {
    let n = lio_pfs::retry::read_full_at(storage, offset, buf)?;
    if n < buf.len() {
        buf[n..].fill(0);
    }
    Ok(())
}

/// Write all of `buf` at `offset`, resuming short writes and retrying
/// transient errors with bounded backoff.
pub(crate) fn write_window(storage: &dyn StorageFile, offset: u64, buf: &[u8]) -> Result<()> {
    lio_pfs::retry::write_full_at(storage, offset, buf)?;
    Ok(())
}

/// Independent write of `total` stream bytes starting at stream position
/// `stream_start`. Returns bytes written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_independent(
    storage: &dyn StorageFile,
    lock: &RangeLock,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &[u8],
    stream_start: u64,
    total: u64,
    hints: &Hints,
    whole_range_locked: bool,
    scratch: &Scratch,
) -> Result<u64> {
    if total == 0 {
        return Ok(0);
    }

    // c-c / nc-c: the file region is contiguous — one pack, one write.
    if nav.view().is_contiguous() {
        let abs = nav.stream_to_abs(stream_start);
        lio_obs::profile::record_run(total, 0, true);
        return write_contiguous_region(storage, packer, user, abs, total, scratch);
    }

    match resolve_mode(hints.sieving, nav, stream_start, total) {
        SievingMode::Direct => {
            write_direct(storage, nav, packer, user, stream_start, total, scratch)
        }
        _ => write_sieved(
            storage,
            lock,
            nav,
            packer,
            user,
            stream_start,
            total,
            hints,
            whole_range_locked,
            scratch,
        ),
    }
}

/// The sieving-vs-direct decision of the paper's outlook: data sieving
/// amortizes per-access latency but reads/writes gap bytes and pays a
/// read-modify-write for writes; per-block access touches exactly the
/// data but costs one storage call per block.
///
/// Heuristic: take the view's *density* over the accessed extent
/// (`data bytes / extent bytes`) and its mean block length. Dense views
/// (≥ ½) always sieve — the window is mostly useful. Sparse views with
/// large blocks (≥ 8 KiB mean) go direct — per-access cost is amortized
/// by the block itself and sieving would move mostly gaps.
pub fn choose_mode(density: f64, mean_block: f64) -> SievingMode {
    if density >= 0.5 || mean_block < 8192.0 {
        SievingMode::Sieve
    } else {
        SievingMode::Direct
    }
}

/// Resolve `Auto` against the actual access; pass through explicit modes.
fn resolve_mode(mode: SievingMode, nav: &ViewNav, stream_start: u64, total: u64) -> SievingMode {
    if mode != SievingMode::Auto {
        return mode;
    }
    let lo = nav.stream_to_abs(stream_start);
    let hi = nav.stream_to_abs(stream_start + total - 1) + 1;
    let density = total as f64 / (hi - lo).max(1) as f64;
    // estimate the mean block length from the filetype
    let ft = &nav.view().filetype;
    let mean_block = ft.size() as f64 / ft.leaf_runs().max(1) as f64;
    choose_mode(density, mean_block)
}

/// Transfer size of the contiguous-file paths' intermediate buffer: the
/// same cache-sized window as everywhere else, on the same grid.
const CONTIG_CHUNK: u64 = crate::hints::DEFAULT_WINDOW as u64;

/// Contiguous-file write path (the `c-c`/`nc-c` cases of Figure 1):
/// pack (if needed) and write in large chunks.
fn write_contiguous_region(
    storage: &dyn StorageFile,
    packer: &MemPacker,
    user: &[u8],
    abs: u64,
    total: u64,
    scratch: &Scratch,
) -> Result<u64> {
    if let Some(slice) = packer.contig_slice(user, 0, total) {
        // c-c: a single zero-copy write
        write_window(storage, abs, slice)?;
        return Ok(total);
    }
    // nc-c: pack into the file's bytes, or through an intermediate buffer
    let grid = Windows::new(abs, abs + total, CONTIG_CHUNK);
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    for (win, win_end) in grid {
        io.update(win, win_end, || true, &mut |at, piece, _| {
            let got = packer.pack(user, at - abs, piece);
            debug_assert_eq!(got, piece.len());
        })?;
    }
    Ok(total)
}

/// Direct mode: one file access per contiguous block of the view.
fn write_direct(
    storage: &dyn StorageFile,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &[u8],
    stream_start: u64,
    total: u64,
    scratch: &Scratch,
) -> Result<u64> {
    // every run of the view is a window of its own, written whole
    let mut io = WindowIo::new(storage, scratch, 0);
    let mut runs = DirectRuns::new(nav, stream_start, total);
    while let Some((abs, run_len, done)) = runs.next_run() {
        io.update(abs, abs + run_len, || true, &mut |at, piece, _| {
            let got = packer.pack(user, done + (at - abs), piece);
            debug_assert_eq!(got, piece.len());
        })?;
    }
    Ok(total)
}

/// The contiguous runs of an access, one at a time, for the direct paths;
/// feeds the access-pattern profiler as it goes.
struct DirectRuns<'a> {
    nav: &'a ViewNav,
    stream: u64,
    done: u64,
    total: u64,
    prev_end: u64,
}

impl<'a> DirectRuns<'a> {
    fn new(nav: &'a ViewNav, stream_start: u64, total: u64) -> Self {
        DirectRuns {
            nav,
            stream: stream_start,
            done: 0,
            total,
            prev_end: u64::MAX,
        }
    }

    /// `(absolute offset, length, stream bytes before it)` of the next run.
    fn next_run(&mut self) -> Option<(u64, u64, u64)> {
        if self.done >= self.total {
            return None;
        }
        let abs = self.nav.stream_to_abs(self.stream);
        // the run containing `stream` extends to the next gap
        let run_len = contiguous_span(self.nav, abs, self.total - self.done);
        if lio_obs::profile::enabled() {
            let gap = if self.prev_end == u64::MAX {
                0
            } else {
                abs - self.prev_end
            };
            lio_obs::profile::record_run(run_len, gap, abs == self.prev_end);
            self.prev_end = abs + run_len;
        }
        let before = self.done;
        self.done += run_len;
        self.stream += run_len;
        Some((abs, run_len, before))
    }
}

/// Length of the contiguous view run starting at the data byte at `abs`,
/// capped at `cap`. Uses doubling + navigation probes, so the cost stays
/// `O(depth · log cap)` for the listless nav.
fn contiguous_span(nav: &ViewNav, abs: u64, cap: u64) -> u64 {
    // `abs` is the position of a data byte, so the run holds at least one
    // byte; it continues while bytes_in(abs, abs+k) == k.
    let mut lo = 1u64;
    let mut hi = cap;
    if hi <= lo {
        return cap; // a cap of 0 or 1 byte is the answer itself
    }
    if nav.bytes_in(abs, abs + hi) == hi {
        return hi;
    }
    // binary search the largest k with bytes_in == k
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if nav.bytes_in(abs, abs + mid) == mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Data sieving write: lock, read, merge, write back, per window.
#[allow(clippy::too_many_arguments)]
fn write_sieved(
    storage: &dyn StorageFile,
    lock: &RangeLock,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &[u8],
    stream_start: u64,
    total: u64,
    hints: &Hints,
    whole_range_locked: bool,
    scratch: &Scratch,
) -> Result<u64> {
    let grid = Windows::new(
        nav.stream_to_abs(stream_start),
        nav.stream_to_abs(stream_start + total - 1) + 1,
        hints.ind_buffer_size as u64,
    );
    // no larger than the loop can address: a window spans at most the
    // access range
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    let src = UserSide::new(packer, user, stream_start);

    let mut stream = stream_start;
    let end = stream_start + total;
    for (win_start, win_end) in grid {
        // view bytes inside the window, capped to what we still have
        let n = nav.bytes_in(win_start, win_end).min(end - stream);
        if n == 0 {
            continue; // a cell that lies in a gap of the view
        }
        // in atomic mode the caller already holds the whole access range;
        // taking the window lock again would self-deadlock
        let _guard = (!whole_range_locked).then(|| lock.lock(win_start..win_end));
        // staged, a window our data does not fill is read first
        let mut seen = RunTally::until(win_end);
        let mut placed = 0u64;
        io.update(
            win_start,
            win_end,
            || n == win_end - win_start,
            &mut |at, piece, store| {
                let rest = (n - placed) as usize;
                let from = stream + placed;
                placed +=
                    nav.place_into_window(&src, from, rest, piece, at, &mut seen, store) as u64;
            },
        )?;
        drop(_guard);
        short_transfer(win_start, win_end, placed, n)?;
        stream += n;
    }
    Ok(total)
}

/// The copy of a window moved `moved` bytes where navigation counted `n`:
/// an error, not a debug assertion — no pack step cross-checks the count
/// any more, and a short window is file or user bytes left stale.
fn short_transfer(win_start: u64, win_end: u64, moved: u64, n: u64) -> Result<()> {
    if moved == n {
        return Ok(());
    }
    Err(IoError::Storage(std::io::Error::other(format!(
        "window [{win_start}, {win_end}) moved {moved} of the view's {n} bytes"
    ))))
}

/// Independent read of `total` stream bytes starting at stream position
/// `stream_start`. Returns bytes read (holes/EOF read as zeros).
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_independent(
    storage: &dyn StorageFile,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &mut [u8],
    stream_start: u64,
    total: u64,
    hints: &Hints,
    scratch: &Scratch,
) -> Result<u64> {
    if total == 0 {
        return Ok(0);
    }

    if nav.view().is_contiguous() {
        let abs = nav.stream_to_abs(stream_start);
        lio_obs::profile::record_run(total, 0, true);
        let grid = Windows::new(abs, abs + total, CONTIG_CHUNK);
        let mut io = WindowIo::new(storage, scratch, grid.max_len());
        for (win, win_end) in grid {
            io.view(win, win_end, &mut |at, piece| {
                let put = packer.unpack(piece, user, at - abs);
                debug_assert_eq!(put, piece.len());
            })?;
        }
        return Ok(total);
    }

    match resolve_mode(hints.sieving, nav, stream_start, total) {
        SievingMode::Direct => {
            let mut io = WindowIo::new(storage, scratch, 0);
            let mut runs = DirectRuns::new(nav, stream_start, total);
            while let Some((abs, run_len, done)) = runs.next_run() {
                io.view(abs, abs + run_len, &mut |at, piece| {
                    let put = packer.unpack(piece, user, done + (at - abs));
                    debug_assert_eq!(put, piece.len());
                })?;
            }
            Ok(total)
        }
        _ => {
            let grid = Windows::new(
                nav.stream_to_abs(stream_start),
                nav.stream_to_abs(stream_start + total - 1) + 1,
                hints.ind_buffer_size as u64,
            );
            let mut io = WindowIo::new(storage, scratch, grid.max_len());
            let mut dst = UserSide::new(packer, user, stream_start);
            let mut stream = stream_start;
            let end = stream_start + total;
            for (win_start, win_end) in grid {
                let n = nav.bytes_in(win_start, win_end).min(end - stream);
                if n == 0 {
                    continue; // a cell that lies in a gap of the view
                }
                let mut seen = RunTally::until(win_end);
                let mut got = 0u64;
                io.view(win_start, win_end, &mut |at, piece| {
                    let rest = (n - got) as usize;
                    let from = stream + got;
                    got +=
                        nav.extract_from_window(piece, at, from, rest, &mut dst, &mut seen) as u64;
                })?;
                short_transfer(win_start, win_end, got, n)?;
                stream += n;
            }
            Ok(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{FfNav, FileView, ListNav};
    use lio_datatype::Datatype;

    #[test]
    fn contiguous_span_of_a_tiny_cap_is_the_cap() {
        // blocks of 8 bytes at 0, 16, 32
        let ft = Datatype::vector(3, 1, 2, &Datatype::double()).unwrap();
        let view = FileView::new(0, Datatype::byte(), ft).unwrap();
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            // nothing asked for, nothing there; one byte is the data byte
            // `abs` points at
            assert_eq!(contiguous_span(&nav, 16, 0), 0);
            assert_eq!(contiguous_span(&nav, 16, 1), 1);
            assert_eq!(contiguous_span(&nav, 16, 2), 2);
            assert_eq!(contiguous_span(&nav, 19, 100), 5, "to the end of the block");
        }
    }

    #[test]
    fn a_short_window_is_an_error_in_every_build() {
        assert!(short_transfer(0, 64, 40, 40).is_ok());
        let err = short_transfer(0, 64, 39, 40).unwrap_err();
        assert!(matches!(err, IoError::Storage(_)), "{err}");
        assert!(err.to_string().contains("moved 39 of the view's 40 bytes"));
    }
}
