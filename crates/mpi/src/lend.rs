//! Lending: scopes in which ranks reach the bytes other ranks lent.
//!
//! Ranks are threads of one address space, so a rank that needs another's
//! bytes can read them — or write them — where they lie instead of
//! receiving or sending a copy, if nothing else can touch them meanwhile.
//! Two scopes make that a rule the compiler keeps:
//!
//! * [`Comm::lend`]: each rank lends one byte slice for the duration of a
//!   closure, and [`Lent::get`] hands out any rank's slice, shared, inside
//!   it;
//! * [`Comm::lend_mut`]: each rank lends one mutable piece per rank —
//!   disjoint, as `split_at_mut` makes them — and [`LentMut::take`] hands
//!   piece `i` of every lender to rank `i` alone, at most once.
//!
//! Either scope ends in a barrier on every path, unwinding included. The
//! borrow checker keeps every slice inside the closure (its lifetime is the
//! closure's own, see [`Lent`]); the barrier keeps every lender in its
//! scope until no rank is inside one any more. That is the whole argument
//! for the two `unsafe` blocks below, and neither half is a convention a
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

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::comm::Comm;

/// One rank's entry in its world's lending table.
pub(crate) struct LendSlot {
    /// What the rank lends in its latest scope.
    lent: Mutex<Loan>,
    /// The latest scope the rank has left: from here on it holds no slice
    /// of it. `u64::MAX` once its `Comm` is gone, which ends every scope.
    closed: AtomicU64,
}

/// What one rank lends in one scope.
#[derive(Default)]
struct Loan {
    /// Scopes are numbered from 1 on every rank alike, because every rank
    /// opens them in the same order (they are collective).
    scope: u64,
    /// Lent to be written ([`Comm::lend_mut`]) or only read ([`Comm::lend`]).
    mutable: bool,
    /// `(address, length)` of each piece: the one slice every rank reads,
    /// or piece `i` for rank `i`.
    pieces: Vec<(usize, usize)>,
}

impl LendSlot {
    pub(crate) fn new() -> LendSlot {
        LendSlot {
            lent: Mutex::default(),
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
        let (addr, len) = piece(self.comm, rank, self.scope, false, 0);
        let ptr = std::ptr::with_exposed_provenance::<u8>(addr);
        // SAFETY: `rank` stored `(addr, len)` from the `&[u8]` it passed to
        // `lend` for this scope, and that borrow lasts until its `lend`
        // returns — which is only after the closing barrier (`close`) saw
        // every rank, this one included, leave the scope. This rank leaves it
        // when the closure returns or unwinds, and the returned slice is bound
        // to the scope's borrow `'p`, which the closure cannot outlive. Until
        // then the lender holds a shared borrow: nobody writes the bytes.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }
}

/// The pieces lent to this rank in one scope of [`Comm::lend_mut`]; `'p`
/// is the scope, as for [`Lent`].
pub struct LentMut<'p> {
    comm: &'p Comm,
    scope: u64,
    /// Which lenders' pieces this rank has taken. (A `Cell`: the handle
    /// cannot be shared with another thread, which could take twice.)
    taken: Vec<Cell<bool>>,
    _scope: PhantomData<fn(&'p ()) -> &'p ()>,
}

impl<'p> LentMut<'p> {
    /// The piece `rank` lent to this rank — its piece number
    /// [`Comm::rank`] — in this scope; waits until it has lent. Empty where
    /// `rank` lent fewer pieces. Panics if this rank took it before, or if
    /// `rank` is gone without lending.
    pub fn take(&self, rank: usize) -> &'p mut [u8] {
        assert!(
            !self.taken[rank].replace(true),
            "the piece rank {rank} lent was taken before"
        );
        let (addr, len) = piece(self.comm, rank, self.scope, true, self.comm.rank());
        if len == 0 {
            return &mut [];
        }
        let ptr = std::ptr::with_exposed_provenance_mut::<u8>(addr);
        // SAFETY: `rank` stored `(addr, len)` from one of the `&mut [u8]`
        // pieces it passed to `lend_mut` for this scope, and:
        // - the pieces are disjoint: they were alive together as `&mut`s
        //   (cut by `split_at_mut`, or any other way the borrow checker
        //   accepts), so no two of them share a byte;
        // - each piece has one taker: piece `i` goes to rank `i` only (this
        //   rank asks for its own number), and `taken` above lets it do so
        //   once per lender and scope;
        // - the scope ends in a barrier: the lender's `lend_mut` holds every
        //   piece until its closing barrier (`close`) saw every rank, this
        //   one included, leave the scope, and leaves no piece to its own
        //   closure meanwhile (they were moved into `lend_mut`);
        // - the scope's borrow holds every piece: the returned slice is bound
        //   to `'p`, which the closure this rank is in cannot outlive.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }
}

/// Piece `i` of what `rank` lent in `scope`, as `(address, length)` —
/// `(0, 0)` where it lent fewer — once it has lent. Panics if `rank` is
/// gone without lending, or lent in a scope of the other kind.
fn piece(comm: &Comm, rank: usize, scope: u64, mutable: bool, i: usize) -> (usize, usize) {
    let slot = &comm.lending()[rank];
    loop {
        {
            let loan = slot.lent.lock().unwrap_or_else(PoisonError::into_inner);
            if loan.scope == scope {
                assert_eq!(
                    loan.mutable, mutable,
                    "rank {rank} lends in a scope of the other kind"
                );
                return loan.pieces.get(i).copied().unwrap_or((0, 0));
            }
        }
        assert!(
            slot.closed.load(Ordering::Acquire) != u64::MAX,
            "lending rank {rank} terminated before it lent"
        );
        std::thread::yield_now();
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
        let addr = mine.as_ptr().expose_provenance();
        self.scope(false, [(addr, mine.len())], |comm, scope| {
            f(&Lent {
                comm,
                scope,
                _scope: PhantomData,
            })
        })
    }

    /// Lend piece `i` of `pieces` to rank `i` while `f` runs, and run `f`
    /// with the pieces every rank lent this one ([`LentMut::take`]); a rank
    /// beyond the last piece is lent an empty one. Collective, and it ends
    /// like [`Comm::lend`]: `pieces` stay borrowed until nobody can write
    /// them.
    ///
    /// ```
    /// use lio_mpi::World;
    ///
    /// // every rank lends one byte to each rank, who writes its number there
    /// let got = World::run(3, |comm| {
    ///     let mut mine = vec![0u8; comm.size()];
    ///     comm.lend_mut(mine.chunks_mut(1).collect(), |lent| {
    ///         for r in 0..comm.size() {
    ///             lent.take(r)[0] = comm.rank() as u8 + 1;
    ///         }
    ///     });
    ///     mine
    /// });
    /// assert_eq!(got, vec![vec![1, 2, 3]; 3]);
    /// ```
    ///
    /// A piece cannot be kept past its scope:
    ///
    /// ```compile_fail
    /// use lio_mpi::World;
    ///
    /// World::run(2, |comm| {
    ///     let mut mine = [0u8; 2];
    ///     let mut kept: &mut [u8] = &mut [];
    ///     comm.lend_mut(mine.chunks_mut(1).collect(), |lent| kept = lent.take(0));
    ///     kept.len()
    /// });
    /// ```
    pub fn lend_mut<R>(
        &self,
        mut pieces: Vec<&mut [u8]>,
        f: impl for<'p> FnOnce(&LentMut<'p>) -> R,
    ) -> R {
        let loan = pieces
            .iter_mut()
            .map(|p| (p.as_mut_ptr().expose_provenance(), p.len()));
        let taken = (0..self.size()).map(|_| Cell::new(false)).collect();
        self.scope(true, loan, |comm, scope| {
            f(&LentMut {
                comm,
                scope,
                taken,
                _scope: PhantomData,
            })
        })
    }

    /// Open a lending scope, publish this rank's `pieces` for it, run `f`
    /// in it and close it — on unwinding too.
    fn scope<R>(
        &self,
        mutable: bool,
        pieces: impl IntoIterator<Item = (usize, usize)>,
        f: impl FnOnce(&Comm, u64) -> R,
    ) -> R {
        let scope = self.open_lend_scope();
        {
            let mut loan = self.lending()[self.rank()]
                .lent
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loan.mutable = mutable;
            loan.pieces.clear();
            loan.pieces.extend(pieces);
            // last: a loan is current only once it is whole
            loan.scope = scope;
        }
        let unwinding = Close { comm: self, scope };
        let out = f(self, scope);
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
        // Release, paired with the Acquire loads below and in `piece`: a
        // rank that sees this number sees every access of this scope done.
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
/// by `scope` itself, which can pass on what broke the barrier).
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
