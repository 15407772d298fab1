//! The per-file scratch arena: recycled byte buffers for one rank's
//! operations on one open file.
//!
//! Every access needs a few large transient buffers — sieve and IOP
//! window buffers, the staging buffer a list-based collective packs its
//! shares into — of sizes that repeat from one operation to the next.
//! Allocating them per operation costs a zero-fill of bytes that are
//! overwritten straight away. [`Scratch`] keeps the buffers of the
//! previous operation and hands them out again:
//!
//! * **Owner.** One arena per [`File`](crate::File), i.e. per rank and
//!   open file; nothing global, nothing thread-local. It is only ever
//!   touched from the rank's own thread — a window buffer that the
//!   write-behind lane (`crate::window`) writes back comes home through a
//!   channel first — and is freed with the `File`. Every buffer goes back
//!   to the arena it came from: another rank may read or fill one it is
//!   lent, but never keeps it.
//! * **Contents contract.** [`Scratch::take`] returns a `Vec<u8>` of
//!   exactly the requested length whose bytes are initialized but
//!   *unspecified* — whatever an earlier user left there. A site that
//!   needs zeros writes them. Debug builds fill every buffer handed out
//!   with `0xA5`, so a site that silently relied on zeros fails the
//!   differential test corpora.
//! * **Bound.** Within an operation the arena tracks how many bytes (of
//!   capacity) are taken and not yet given back; it is *full* once it
//!   holds the high-water mark of that number over the previous and the
//!   current operation, and drops a buffer given to it that would carry it
//!   past that mark. So it retains no more than the previous operation
//!   took from it. Buffers
//!   that sat unused through a whole operation are freed at the start of
//!   the next, so a change of access pattern does not clog the arena.

use std::cell::RefCell;

/// A pool of recycled byte buffers; see the module docs for the contract.
#[derive(Default)]
pub(crate) struct Scratch {
    pool: RefCell<Pool>,
}

#[derive(Default)]
struct Pool {
    /// Retained buffers, oldest first.
    free: Vec<Vec<u8>>,
    /// How many buffers at the front of `free` nobody has taken since the
    /// current operation began.
    idle: usize,
    /// Sum of the capacities in `free`.
    held: usize,
    /// Capacity taken and not yet given back in the current operation.
    out: usize,
    /// High-water mark of `out` in the current operation...
    peak: usize,
    /// ...and in the previous one.
    limit: usize,
}

impl Scratch {
    /// Mark the start of an operation. What the last one had out at once
    /// becomes the retention limit; buffers it never asked for (sizes of
    /// an earlier access pattern) and whole buffers beyond the limit are
    /// freed.
    pub fn begin_op(&self) {
        let p = &mut *self.pool.borrow_mut();
        p.limit = std::mem::take(&mut p.peak);
        p.out = 0;
        p.held -= p.free.drain(..p.idle).map(|b| b.capacity()).sum::<usize>();
        while let Some(newest) = p.free.last() {
            if p.held - newest.capacity() < p.limit {
                break;
            }
            p.held -= newest.capacity();
            p.free.pop();
        }
        p.idle = p.free.len();
    }

    /// A buffer of exactly `len` initialized bytes of unspecified value.
    pub fn take(&self, len: usize) -> Vec<u8> {
        if len == 0 {
            return Vec::new(); // an empty message must not use up a buffer
        }
        let p = &mut *self.pool.borrow_mut();
        // The tightest allocation that holds `len`: request sizes repeat
        // from op to op, so each keeps meeting the buffer it used last
        // time and `resize` has nothing to fill.
        let fit = (0..p.free.len())
            .filter(|&i| p.free[i].capacity() >= len)
            .min_by_key(|&i| p.free[i].capacity());
        let mut buf = match fit {
            Some(i) => {
                if i < p.idle {
                    p.idle -= 1;
                }
                let mut buf = p.free.remove(i);
                p.held -= buf.capacity();
                buf.resize(len, 0);
                buf
            }
            None => vec![0u8; len],
        };
        p.out += buf.capacity();
        p.peak = p.peak.max(p.out);
        if cfg!(debug_assertions) {
            buf.fill(0xA5);
        }
        buf
    }

    /// Return a buffer taken here for reuse. Dropped if it does not fit
    /// in the arena.
    pub fn give(&self, buf: Vec<u8>) {
        let p = &mut *self.pool.borrow_mut();
        let cap = buf.capacity();
        p.out = p.out.saturating_sub(cap);
        if cap > 0 && p.held + cap <= p.limit.max(p.peak) {
            p.held += cap;
            p.free.push(buf);
        }
    }

    /// Bytes (of capacity) currently retained for reuse.
    #[cfg(test)]
    pub fn held(&self) -> usize {
        self.pool.borrow().held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_exact_and_recycles_without_reallocating() {
        let s = Scratch::default();
        s.begin_op();
        let a = s.take(1000);
        assert_eq!(a.len(), 1000);
        let ptr = a.as_ptr();
        s.give(a);
        assert_eq!(s.held(), 1000);
        // shorter and longer-within-capacity requests reuse the allocation
        let b = s.take(600);
        assert_eq!((b.len(), b.as_ptr()), (600, ptr));
        s.give(b);
        let c = s.take(1000);
        assert_eq!((c.len(), c.as_ptr()), (1000, ptr));
        s.give(c);
        // a request nothing held can serve is a fresh buffer
        let d = s.take(4000);
        assert_eq!(d.len(), 4000);
        assert_ne!(d.as_ptr(), ptr);
    }

    #[test]
    fn take_prefers_the_tightest_fit() {
        let s = Scratch::default();
        s.begin_op();
        let (big, small) = (s.take(4096), s.take(512));
        let small_ptr = small.as_ptr();
        s.give(big);
        s.give(small);
        let again = s.take(500);
        assert_eq!(again.as_ptr(), small_ptr);
    }

    #[test]
    fn debug_builds_poison_what_they_hand_out() {
        let s = Scratch::default();
        s.begin_op();
        let mut a = s.take(64);
        if cfg!(debug_assertions) {
            assert!(a.iter().all(|&b| b == 0xA5));
        }
        a.fill(1);
        s.give(a);
        let b = s.take(64);
        if cfg!(debug_assertions) {
            assert!(b.iter().all(|&b| b == 0xA5), "recycled bytes leaked");
        }
    }

    #[test]
    fn retention_is_bounded_by_the_peak_outstanding() {
        let s = Scratch::default();
        s.begin_op();
        // a streaming op: many takes, never more than two outstanding
        for _ in 0..50 {
            let (a, b) = (s.take(100), s.take(100));
            s.give(a);
            s.give(b);
        }
        assert_eq!(s.held(), 200, "a 200 B peak");
        // a buffer that would carry the arena past the mark is dropped
        let big = s.take(300);
        s.give(big);
        assert_eq!(s.held(), 200, "500 B would pass the 300 B peak");
        s.begin_op();
        assert_eq!(s.held(), 200, "under the 300 B the last op had out");
        // an op that needs less shrinks the arena at the next op's start
        let a = s.take(50);
        s.give(a);
        s.begin_op();
        assert_eq!(s.held(), 100, "the buffer the 50 B op used");
        // and buffers nobody asks for any more are gone one op later
        s.begin_op();
        assert_eq!(s.held(), 0);
    }
}
