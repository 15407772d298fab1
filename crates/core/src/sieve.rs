//! Independent non-contiguous file access: data sieving.
//!
//! This is the independent path of both engines (paper Section 2.2 /
//! 3.2.3). The window loop, locking, and read-modify-write structure are
//! shared; everything datatype-related goes through the crate-internal
//! `ViewNav` and `MemPacker`, which is where the engines differ.

use lio_pfs::{RangeLock, StorageFile};

use crate::error::{IoError, Result};
use crate::hints::Hints;
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

    // data sieving: lock, read, merge, write back, per window
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
            got += nav.extract_from_window(piece, at, from, rest, &mut dst, &mut seen) as u64;
        })?;
        short_transfer(win_start, win_end, got, n)?;
        stream += n;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_is_an_error_in_every_build() {
        assert!(short_transfer(0, 64, 40, 40).is_ok());
        let err = short_transfer(0, 64, 39, 40).unwrap_err();
        assert!(matches!(err, IoError::Storage(_)), "{err}");
        assert!(err.to_string().contains("moved 39 of the view's 40 bytes"));
    }
}
