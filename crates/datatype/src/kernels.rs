//! The stores under every placement, whatever the frame executor's block
//! size.
//!
//! The block copy itself is one safe fixed-width loop
//! ([`crate::strided::strided_copy`]); this module holds what a copy into a
//! window needs beyond it. [`Stores`] copies each run of
//! 256 B or more into a window the storage lent with non-temporal stores
//! for the run's whole cache lines, and fences once per placement call, so
//! that a write's lines go to memory without first being read for
//! ownership. An extraction into a user buffer, which the user reads
//! next, is a plain copy.

use lio_obs::LazyCounter;

// ---------------------------------------------------------------------------
// Streaming a placement's whole lines past the cache
// ---------------------------------------------------------------------------

/// Bytes placed into windows with non-temporal stores.
static OBS_STREAM_BYTES: LazyCounter = LazyCounter::new("dt.stream.bytes");

/// The shortest run whose whole lines a placement into a lent window
/// streams. The 8 B blocks of the Figure-4 rows never do: a run that short
/// holds at most one whole line.
pub const STREAM_RUN: usize = 256;

/// Where the stores of a placement into a window go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// Into the cache, as ordinary stores: a staged window, which is
    /// written back right after the placement, or any other buffer that is
    /// read again at once.
    Cached,
    /// Past the cache for the whole 64-byte lines of every run of
    /// [`STREAM_RUN`] bytes or more: a window the storage lent, which the
    /// op does not read again. An ordinary store into a line that is not in
    /// cache first reads the line for ownership and later writes it back,
    /// two memory transfers where a streamed line costs one.
    Stream,
}

/// The stores of one placement call into its window. [`Stores::copy`]
/// streams where its [`Store`] allows. Dropping it fences once (`sfence`)
/// if anything streamed: non-temporal stores are weakly ordered, and the
/// fence puts them ahead of whatever follows the placement call — a stripe
/// unlock, a sieve's window lock, a collective's closing barrier — so that
/// every core that is told the bytes are written sees them.
pub struct Stores {
    stream: bool,
    /// Bytes streamed and not yet fenced.
    streamed: u64,
}

impl Stores {
    pub fn new(store: Store) -> Stores {
        Stores {
            stream: store == Store::Stream,
            streamed: 0,
        }
    }

    /// Whether [`Stores::copy`] streams the whole lines of a run of `len`
    /// bytes.
    #[inline]
    pub fn streams(&self, len: usize) -> bool {
        self.stream && len >= STREAM_RUN
    }

    /// `dst.copy_from_slice(src)`, with the whole lines of `dst` streamed
    /// when [`Stores::streams`] says so.
    #[inline]
    pub fn copy(&mut self, dst: &mut [u8], src: &[u8]) {
        if self.streams(dst.len()) {
            self.streamed += stream_copy(dst, src) as u64;
        } else {
            dst.copy_from_slice(src);
        }
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        if self.streamed > 0 {
            fence();
            OBS_STREAM_BYTES.add(self.streamed);
        }
    }
}

/// Order every non-temporal store this thread made before every store and
/// load after it. Off x86_64 nothing streams and this does nothing.
fn fence() {
    // SAFETY: `sfence` only orders stores; SSE is baseline x86_64.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_sfence()
    };
}

/// `dst.copy_from_slice(src)` that stores the whole 64-byte lines of `dst`
/// with non-temporal stores and its partial first and last lines with
/// ordinary ones: a partial line holds bytes that are not the run's.
/// Returns the bytes streamed; the caller fences before anyone else reads
/// `dst`. Out of line, as [`claim`] is: the short-run paths of its callers
/// stay as small as they were. Off x86_64 it streams nothing.
#[cold]
#[inline(never)]
fn stream_copy(dst: &mut [u8], src: &[u8]) -> usize {
    assert_eq!(dst.len(), src.len(), "a copy moves equal lengths");
    if !cfg!(target_arch = "x86_64") {
        dst.copy_from_slice(src);
        return 0;
    }
    let head = dst.as_ptr().align_offset(64).min(dst.len());
    let body = (dst.len() - head) / 64 * 64;
    let (d_head, rest) = dst.split_at_mut(head);
    let (d_body, d_tail) = rest.split_at_mut(body);
    let (s_head, rest) = src.split_at(head);
    let (s_body, s_tail) = rest.split_at(body);
    d_head.copy_from_slice(s_head);
    stream_lines(d_body, s_body);
    d_tail.copy_from_slice(s_tail);
    body
}

/// Stream `src` into `dst`: equal lengths, whole lines, `dst` 64-byte
/// aligned.
#[cfg(target_arch = "x86_64")]
fn stream_lines(dst: &mut [u8], src: &[u8]) {
    use core::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
    let aligned = dst.is_empty() || dst.as_ptr().align_offset(64) == 0;
    assert!(dst.len() == src.len() && dst.len().is_multiple_of(64) && aligned);
    for (d, s) in dst.chunks_exact_mut(64).zip(src.chunks_exact(64)) {
        let (d, s) = (
            d.as_mut_ptr().cast::<__m128i>(),
            s.as_ptr().cast::<__m128i>(),
        );
        // SAFETY: `d` and `s` each address 64 bytes of their slices, moved
        // as four 16-byte words; `d` is 64-byte aligned (the assert, and
        // every chunk is 64 bytes), more than `_mm_stream_si128`'s 16, and
        // `_mm_loadu_si128` takes any address; SSE2 is baseline x86_64.
        unsafe {
            let v = [0, 1, 2, 3].map(|i| _mm_loadu_si128(s.add(i)));
            for (i, v) in v.into_iter().enumerate() {
                _mm_stream_si128(d.add(i), v);
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn stream_lines(_: &mut [u8], _: &[u8]) {
    unreachable!("only x86_64 streams")
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn streamed_copies_match_copy_from_slice_and_leave_the_guards() {
        const GUARD: u8 = 0xEE;
        let lens = (0..=320).chain([1280, 4096, 16384]);
        for len in lens {
            // room to put the destination at every offset from a 64-byte
            // boundary, with a line of guard bytes on either side
            let mut dst = vec![GUARD; len + 3 * 64];
            let src_buf: Vec<u8> = (0..len + 16).map(|i| (i * 7 % 251) as u8).collect();
            let base = dst.as_ptr().align_offset(64);
            for d_off in 0..64 {
                let at = base + 64 + d_off;
                for s_off in 0..16 {
                    let src = &src_buf[s_off..s_off + len];
                    let streamed = stream_copy(&mut dst[at..at + len], src);
                    fence();
                    let ctx = format!("len {len} dst offset {d_off} src offset {s_off}");
                    assert!(dst[at..at + len] == *src, "{ctx}: bytes");
                    assert!(dst[..at].iter().all(|&b| b == GUARD), "{ctx}: guard before");
                    assert!(
                        dst[at + len..].iter().all(|&b| b == GUARD),
                        "{ctx}: guard after"
                    );
                    // the whole lines inside the run, and nothing else
                    let whole = ((d_off + len) / 64).saturating_sub(d_off.div_ceil(64)) * 64;
                    let want = if cfg!(target_arch = "x86_64") {
                        whole
                    } else {
                        0
                    };
                    assert_eq!(streamed, want, "{ctx}: bytes streamed");
                    dst[at..at + len].fill(GUARD);
                }
            }
        }
    }

    #[test]
    fn stores_stream_only_long_runs_and_only_when_told() {
        let src = vec![3u8; 4096];
        let mut dst = vec![0u8; 4096 + 64];
        let at = dst.as_ptr().align_offset(64);
        let dst = &mut dst[at..at + 4096];
        let mut stores = Stores::new(Store::Cached);
        assert!(!stores.streams(4096));
        stores.copy(dst, &src);
        assert_eq!(stores.streamed, 0);
        let mut stores = Stores::new(Store::Stream);
        assert!(!stores.streams(STREAM_RUN - 1) && stores.streams(STREAM_RUN));
        stores.copy(&mut dst[..STREAM_RUN - 1], &src[..STREAM_RUN - 1]);
        assert_eq!(stores.streamed, 0);
        stores.copy(dst, &src);
        let want = if cfg!(target_arch = "x86_64") {
            4096
        } else {
            0
        };
        assert_eq!(stores.streamed, want);
        drop(stores);
        assert!(dst.iter().all(|&b| b == 3));
    }
}
