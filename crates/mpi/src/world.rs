//! Spawning a world of ranks.

use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use crate::comm::{Comm, Message, WorldState};
use crate::lend::LendSlot;

/// Factory for rank worlds.
pub struct World;

impl World {
    /// Run `f` on `nprocs` ranks (one thread each) and collect the return
    /// values in rank order. Panics in any rank propagate.
    ///
    /// # Example
    ///
    /// ```
    /// use lio_mpi::World;
    ///
    /// let sums = World::run(4, |comm| {
    ///     comm.allreduce_u64(comm.rank() as u64 + 1, |a, b| a + b)
    /// });
    /// assert_eq!(sums, vec![10, 10, 10, 10]);
    /// ```
    pub fn run<F, R>(nprocs: usize, f: F) -> Vec<R>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        assert!(nprocs > 0, "a world needs at least one rank");
        let comms = Self::make_comms(nprocs);
        let f = &f;
        let mut results: Vec<Option<R>> = (0..nprocs).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    s.spawn(move || {
                        // claim this thread's trace buffer and heartbeat
                        // slot before user code can open spans or send
                        // messages
                        lio_obs::trace::set_thread_rank(comm.rank() as u32);
                        f(&comm)
                    })
                })
                .collect();
            for (slot, h) in results.iter_mut().zip(handles) {
                match h.join() {
                    Ok(r) => *slot = Some(r),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("all ranks joined"))
            .collect()
    }

    /// Build the communicator endpoints without spawning threads (for
    /// callers that manage their own threads).
    pub fn make_comms(nprocs: usize) -> Vec<Comm> {
        let counters = Arc::new(WorldState {
            msgs: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            lent: (0..nprocs).map(|_| LendSlot::new()).collect(),
        });
        // channel[p][q]: p -> q
        let mut txs: Vec<Vec<Option<Sender<Message>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Message>>>> = (0..nprocs)
            .map(|_| (0..nprocs).map(|_| None).collect())
            .collect();
        for p in 0..nprocs {
            for q in 0..nprocs {
                let (tx, rx) = channel();
                txs[p][q] = Some(tx);
                rxs[p][q] = Some(rx);
            }
        }
        (0..nprocs)
            .map(|p| {
                let senders = (0..nprocs)
                    .map(|q| txs[p][q].take().expect("sender taken once"))
                    .collect();
                let receivers = (0..nprocs)
                    .map(|q| rxs[q][p].take().expect("receiver taken once"))
                    .collect();
                Comm::new(p, nprocs, senders, receivers, Arc::clone(&counters))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let r = World::run(1, |comm| comm.rank() + comm.size());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn results_in_rank_order() {
        let r = World::run(8, |comm| comm.rank() * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        World::run(0, |_| ());
    }
}
