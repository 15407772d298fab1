//! Lending: one scope in which every rank reads the bytes every rank lent.
//!
//! Ranks are threads of one address space, so a rank that needs another's
//! bytes can read them where they lie instead of receiving a copy — if
//! nothing can free or change them while it reads. [`Comm::lend`] makes
//! that a scope: each rank lends one byte slice for the duration of a
//! closure, [`Lent::get`] hands out any rank's slice inside it, and the
//! scope ends in a barrier on every path, unwinding included. The borrow
//! checker keeps every slice inside the closure (its lifetime is the
//! closure's own, see [`Lent`]); the barrier keeps every lender in its
//! scope until no rank is inside one any more. That is the whole argument
//! for the one `unsafe` block below, and neither half is a convention a
//! caller must keep.
//!
//! ```
//! use lio_mpi::World;
//!
//! // rank r lends r + 1 bytes of value r; every rank adds up all of them
//! let sums = World::run(4, |comm| {
//!     let mine = vec![comm.rank() as u8; comm.rank() + 1];
//!     comm.lend(&mine, |lent| {
//!         let all = (0..comm.size()).flat_map(|r| lent.get(r));
//!         all.map(|&b| u64::from(b)).sum::<u64>()
//!     })
//! });
//! assert_eq!(sums, vec![2 + 2 * 3 + 3 * 4; 4]);
//! ```
//!
//! A slice cannot be kept past its scope:
//!
//! ```compile_fail
//! use lio_mpi::World;
//!
//! World::run(2, |comm| {
//!     let mine = [comm.rank() as u8];
//!     let mut kept: &[u8] = &[];
//!     comm.lend(&mine, |lent| kept = lent.get(0));
//!     kept.len()
//! });
//! ```

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::comm::Comm;

/// One rank's entry in its world's lending table.
pub(crate) struct LendSlot {
    /// `(scope, address, length)` of what the rank lends in its latest
    /// scope; scopes are numbered from 1 on every rank alike, because every
    /// rank opens them in the same order (they are collective).
    lent: Mutex<(u64, usize, usize)>,
    /// The latest scope the rank has left: from here on it holds no slice
    /// of it. `u64::MAX` once its `Comm` is gone, which ends every scope.
    closed: AtomicU64,
}

impl LendSlot {
    pub(crate) fn new() -> LendSlot {
        LendSlot {
            lent: Mutex::new((0, 0, 0)),
            closed: AtomicU64::new(0),
        }
    }

    /// Say that the rank's `Comm` is gone (it can hold no slice then).
    pub(crate) fn close_all(&self) {
        self.closed.store(u64::MAX, Ordering::Release);
    }
}

/// The slices every rank lent in one scope of [`Comm::lend`]. `'p` is the
/// scope: the closure must accept any `'p`, so no slice [`Lent::get`]
/// returns can reach anything that outlives the closure.
pub struct Lent<'p> {
    comm: &'p Comm,
    scope: u64,
    /// Invariant in `'p`, so the scope can be neither widened nor narrowed.
    _scope: PhantomData<fn(&'p ()) -> &'p ()>,
}

impl<'p> Lent<'p> {
    /// The slice `rank` lent in this scope; waits until it has lent one.
    /// Panics if `rank` is gone without lending.
    pub fn get(&self, rank: usize) -> &'p [u8] {
        let slot = &self.comm.lending()[rank];
        loop {
            let (scope, addr, len) = *slot.lent.lock().unwrap_or_else(PoisonError::into_inner);
            if scope == self.scope {
                let ptr = std::ptr::with_exposed_provenance::<u8>(addr);
                // SAFETY: `rank` stored `(addr, len)` from the `&[u8]` it
                // passed to `lend` for this scope, and that borrow lasts until
                // its `lend` returns — which is only after the closing barrier
                // (`close`) saw every rank, this one included, leave the
                // scope. This rank leaves it when the closure returns or
                // unwinds, and the returned slice is bound to the scope's
                // borrow `'p`, which the closure cannot outlive. Until then
                // the lender holds a shared borrow: nobody writes the bytes.
                return unsafe { std::slice::from_raw_parts(ptr, len) };
            }
            assert!(
                slot.closed.load(Ordering::Acquire) != u64::MAX,
                "lending rank {rank} terminated before it lent"
            );
            std::thread::yield_now();
        }
    }
}

impl Comm {
    /// Lend `mine` to every rank while `f` runs, and run `f` with what every
    /// rank lent. Collective: every rank calls it, in the same order as its
    /// other collectives, and scopes do not nest.
    ///
    /// The scope ends in [`Comm::barrier`] — on return and on unwinding
    /// alike — so a rank whose `f` panics keeps its bytes readable until
    /// every peer has left its own `f`, and then goes on unwinding. Only
    /// then does `lend` return: `mine` is borrowed until nobody can read it.
    pub fn lend<R>(&self, mine: &[u8], f: impl for<'p> FnOnce(&Lent<'p>) -> R) -> R {
        let scope = self.open_lend_scope();
        // (a poisoned slot is still whole: its one update is an assignment)
        *self.lending()[self.rank()]
            .lent
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            (scope, mine.as_ptr().expose_provenance(), mine.len());
        let unwinding = Close { comm: self, scope };
        let out = f(&Lent {
            comm: self,
            scope,
            _scope: PhantomData,
        });
        std::mem::forget(unwinding);
        if let Err(cause) = self.close(scope) {
            resume_unwind(cause);
        }
        out
    }

    /// Leave `scope`: say so, then wait until every rank has. Returns what
    /// broke the barrier, if a vanished peer did.
    fn close(&self, scope: u64) -> std::thread::Result<()> {
        let table = self.lending();
        // Release, paired with the Acquire loads below and in `Lent::get`:
        // a rank that sees this number sees every read of this scope done.
        table[self.rank()].closed.store(scope, Ordering::Release);
        // The barrier is the scope's end; a peer that vanished breaks it,
        // and then it proves nothing about the others, so the table is
        // asked either way (after a barrier that held, every rank has
        // already said so).
        let sync = catch_unwind(AssertUnwindSafe(|| self.barrier()));
        while table
            .iter()
            .any(|slot| slot.closed.load(Ordering::Acquire) < scope)
        {
            std::thread::yield_now();
        }
        self.end_lend_scope();
        sync
    }
}

/// Ends a lending scope whose closure unwinds (a returning one is closed
/// by `lend` itself, which can pass on what broke the barrier).
struct Close<'c> {
    comm: &'c Comm,
    scope: u64,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // already unwinding: the closure's panic is the one to propagate
        let _ = self.comm.close(self.scope);
    }
}
