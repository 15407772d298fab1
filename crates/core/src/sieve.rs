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
use crate::view::{Share, ViewNav};
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
/// `stream_start`, by `rank` of the `ranks` that open the file. Returns
/// bytes written.
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
    (rank, ranks): (usize, usize),
) -> Result<u64> {
    if total == 0 {
        return Ok(0);
    }
    let src = UserSide::new(packer, user, stream_start);
    let stream_end = stream_start + total;
    let share = nav.share(&src, (stream_start, stream_end));
    let (lo, hi) = share.reach().expect("an access of bytes reaches the file");
    // in atomic mode the caller already holds the whole access range;
    // taking a lock in it again would self-deadlock
    let guard = |range| (!whole_range_locked).then(|| lock.lock(range));

    // c-c: bytes that are one run in the file and in the buffer are one
    // write, straight from the buffer
    let slice = packer.contig_slice(user, 0, total);
    if let Some(slice) = slice.filter(|_| hi - lo == total) {
        let _guard = guard(lo..hi);
        write_window(storage, lo, slice)?;
        return Ok(total);
    }

    // data sieving: lock, read, merge, write back, per window
    let size = hints.ind_buffer_size as u64;
    let grid = Windows::new(lo, hi, size);
    // no larger than the loop can address: a window spans at most the
    // access range
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    // rank-staggered (DESIGN.md §3.4): the windows from this rank's grid
    // line up, with a share from there on, then those below it, with the
    // whole access's share, which stops at the line
    let line = grid.stagger(rank, ranks).unwrap_or(hi);
    let upper = (line < hi).then(|| {
        let share = nav.share(&src, (nav.abs_to_stream(line), stream_end));
        (Windows::new(line, hi, size), share)
    });
    for (grid, mut share) in upper
        .into_iter()
        .chain([(Windows::new(lo, line, size), share)])
    {
        for (win_start, win_end) in grid {
            let (stream, end) = share.rest();
            if !share.wants(win_end) {
                continue; // a cell that lies in a gap of the view
            }
            // view bytes inside the window, capped to what we still have
            let n = nav.bytes_in(win_start, win_end).min(end - stream);
            let _guard = guard(win_start..win_end);
            // staged, a window our data does not fill is read first
            let mut placed = 0u64;
            io.update(
                win_start,
                win_end,
                || n == win_end - win_start,
                &mut |at, piece, store| placed += share.place(&src, piece, at, store) as u64,
            )?;
            drop(_guard);
            short_transfer((win_start, win_end), placed, n)?;
        }
    }
    Ok(total)
}

/// The copy of a window — or of a collective share, over the file range
/// `[lo, hi)` it reaches — moved `moved` bytes where navigation counted
/// `n`: an error, not a debug assertion — no pack step cross-checks the
/// count any more, and a short window is file or user bytes left stale.
pub(crate) fn short_transfer((lo, hi): (u64, u64), moved: u64, n: u64) -> Result<()> {
    if moved == n {
        return Ok(());
    }
    Err(IoError::Storage(std::io::Error::other(format!(
        "[{lo}, {hi}) moved {moved} of the view's {n} bytes"
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
    let mut dst = UserSide::new(packer, user, stream_start);
    let mut share = nav.share(&dst, (stream_start, stream_start + total));
    let (lo, hi) = share.reach().expect("an access of bytes reaches the file");
    let grid = Windows::new(lo, hi, hints.ind_buffer_size as u64);
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    for (win_start, win_end) in grid {
        let (stream, end) = share.rest();
        if !share.wants(win_end) {
            continue; // a cell that lies in a gap of the view
        }
        let n = nav.bytes_in(win_start, win_end).min(end - stream);
        let mut got = 0u64;
        io.view(win_start, win_end, &mut |at, piece| {
            got += share.extract(piece, at, &mut dst) as u64;
        })?;
        short_transfer((win_start, win_end), got, n)?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_is_an_error_in_every_build() {
        assert!(short_transfer((0, 64), 40, 40).is_ok());
        let err = short_transfer((0, 64), 39, 40).unwrap_err();
        assert!(matches!(err, IoError::Storage(_)), "{err}");
        assert!(err.to_string().contains("moved 39 of the view's 40 bytes"));
    }
}
