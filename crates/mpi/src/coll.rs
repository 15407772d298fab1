//! Collective operations, built on point-to-point messaging so that their
//! communication volume is physically realized.

use crate::comm::Comm;

impl Comm {
    /// Block until every rank has entered the barrier (dissemination
    /// algorithm, `⌈log₂ P⌉` rounds).
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        let p = self.size();
        if p == 1 {
            return;
        }
        // A rank parked here is waiting on peers, not stuck itself —
        // the watchdog treats `barrier` as a wait phase.
        let _sp = lio_obs::trace::span("mpi.barrier");
        let me = self.rank();
        let mut dist = 1;
        let mut round = 0;
        while dist < p {
            let dst = (me + dist) % p;
            let src = (me + p - dist % p) % p;
            self.send_coll(dst, tag + round, Vec::new());
            self.recv_raw(src, tag + round);
            dist *= 2;
            round += 1;
        }
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// all ranks (binomial tree).
    pub fn bcast(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        let tag = self.next_coll_tag();
        let p = self.size();
        let me = self.rank();
        let vrank = (me + p - root) % p; // root becomes virtual rank 0
        let payload = if me == root {
            data.expect("root must supply the broadcast payload")
        } else {
            // receive from the virtual parent
            let mask = {
                let mut m = 1;
                while m <= vrank {
                    m <<= 1;
                }
                m >> 1
            };
            let vparent = vrank - mask;
            let parent = (vparent + root) % p;
            self.recv_raw(parent, tag)
        };
        // forward to virtual children
        let mut mask = 1;
        while mask <= vrank {
            mask <<= 1;
        }
        while mask < p {
            let vchild = vrank + mask;
            if vchild < p {
                let child = (vchild + root) % p;
                self.send_coll(child, tag, payload.clone());
            }
            mask <<= 1;
        }
        payload
    }

    /// Gather each rank's `data` at `root`; returns `Some(vec-by-rank)` at
    /// the root, `None` elsewhere.
    pub fn gather(&self, root: usize, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let tag = self.next_coll_tag();
        let me = self.rank();
        if me == root {
            let mut out: Vec<Vec<u8>> = (0..self.size()).map(|_| Vec::new()).collect();
            out[root] = data;
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv_raw(src, tag);
                }
            }
            Some(out)
        } else {
            self.send_coll(root, tag, data);
            None
        }
    }

    /// Gather every rank's `data` everywhere (gather at 0, then bcast of
    /// the concatenation with a length prefix).
    pub fn allgather(&self, data: Vec<u8>) -> Vec<Vec<u8>> {
        let gathered = self.gather(0, data);
        let packed = if self.rank() == 0 {
            let parts = gathered.expect("rank 0 gathers");
            let mut buf = Vec::new();
            buf.extend_from_slice(&(parts.len() as u64).to_le_bytes());
            for p in &parts {
                buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
            }
            for p in &parts {
                buf.extend_from_slice(p);
            }
            Some(buf)
        } else {
            None
        };
        let buf = self.bcast(0, packed);
        let n = u64::from_le_bytes(buf[0..8].try_into().expect("length prefix")) as usize;
        let mut lens = Vec::with_capacity(n);
        for i in 0..n {
            let o = 8 + i * 8;
            lens.push(u64::from_le_bytes(buf[o..o + 8].try_into().expect("length")) as usize);
        }
        let mut out = Vec::with_capacity(n);
        let mut pos = 8 + n * 8;
        for len in lens {
            out.push(buf[pos..pos + len].to_vec());
            pos += len;
        }
        out
    }

    /// Personalized all-to-all: `send[q]` goes to rank q; returns the
    /// vector received from each rank. `send.len()` must equal the world
    /// size; `send[rank]` is returned unchanged in place.
    pub fn alltoall(&self, mut send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(send.len(), self.size(), "one payload per destination");
        let tag = self.next_coll_tag();
        let me = self.rank();
        let p = self.size();
        let mut out: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = std::mem::take(&mut send[me]);
        // send in a rank-rotated order to avoid hot spots
        for k in 1..p {
            let dst = (me + k) % p;
            self.send_coll(dst, tag, std::mem::take(&mut send[dst]));
        }
        for k in 1..p {
            let src = (me + p - k) % p;
            out[src] = self.recv_raw(src, tag);
        }
        out
    }

    /// All-reduce a `u64` with an associative, commutative operator.
    pub fn allreduce_u64(&self, value: u64, op: fn(u64, u64) -> u64) -> u64 {
        let gathered = self.gather(0, value.to_le_bytes().to_vec());
        let reduced = if self.rank() == 0 {
            let parts = gathered.expect("rank 0 gathers");
            let acc = parts
                .iter()
                .map(|b| u64::from_le_bytes(b[..8].try_into().expect("u64")))
                .reduce(op)
                .expect("at least one rank");
            Some(acc.to_le_bytes().to_vec())
        } else {
            None
        };
        let buf = self.bcast(0, reduced);
        u64::from_le_bytes(buf[..8].try_into().expect("u64"))
    }

    /// All-reduce an `f64` with an associative, commutative operator.
    pub fn allreduce_f64(&self, value: f64, op: fn(f64, f64) -> f64) -> f64 {
        let gathered = self.gather(0, value.to_le_bytes().to_vec());
        let reduced = if self.rank() == 0 {
            let parts = gathered.expect("rank 0 gathers");
            let acc = parts
                .iter()
                .map(|b| f64::from_le_bytes(b[..8].try_into().expect("f64")))
                .reduce(op)
                .expect("at least one rank");
            Some(acc.to_le_bytes().to_vec())
        } else {
            None
        };
        let buf = self.bcast(0, reduced);
        f64::from_le_bytes(buf[..8].try_into().expect("f64"))
    }

    /// Maximum over all ranks (convenience).
    pub fn allmax_f64(&self, value: f64) -> f64 {
        self.allreduce_f64(value, f64::max)
    }

    /// Sum over all ranks (convenience).
    pub fn allsum_u64(&self, value: u64) -> u64 {
        self.allreduce_u64(value, |a, b| a.wrapping_add(b))
    }
}

#[cfg(test)]
mod tests {
    use crate::World;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes() {
        // Every rank increments before the barrier; after it, all must see
        // the full count.
        let before = AtomicUsize::new(0);
        World::run(8, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(before.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn barrier_many_rounds() {
        World::run(16, |comm| {
            for _ in 0..50 {
                comm.barrier();
            }
        });
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            World::run(5, move |comm| {
                let data = if comm.rank() == root {
                    Some(vec![root as u8; 17])
                } else {
                    None
                };
                let got = comm.bcast(root, data);
                assert_eq!(got, vec![root as u8; 17]);
            });
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        World::run(6, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            let gathered = comm.gather(2, mine);
            if comm.rank() == 2 {
                let parts = gathered.unwrap();
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![r as u8; r + 1]);
                }
            } else {
                assert!(gathered.is_none());
            }
        });
    }

    #[test]
    fn allgather_everywhere() {
        World::run(4, |comm| {
            let parts = comm.allgather(vec![comm.rank() as u8 * 3]);
            assert_eq!(parts.len(), 4);
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as u8 * 3]);
            }
        });
    }

    #[test]
    fn alltoall_personalized() {
        World::run(4, |comm| {
            let me = comm.rank();
            let send: Vec<Vec<u8>> = (0..4).map(|q| vec![me as u8, q as u8]).collect();
            let recv = comm.alltoall(send);
            for (src, m) in recv.iter().enumerate() {
                assert_eq!(m, &vec![src as u8, me as u8]);
            }
        });
    }

    #[test]
    fn alltoall_empty_payloads() {
        World::run(3, |comm| {
            let send: Vec<Vec<u8>> = (0..3).map(|_| Vec::new()).collect();
            let recv = comm.alltoall(send);
            assert!(recv.iter().all(|m| m.is_empty()));
        });
    }

    #[test]
    fn allreduce_sum_and_max() {
        World::run(7, |comm| {
            let sum = comm.allsum_u64(comm.rank() as u64);
            assert_eq!(sum, 21);
            let max = comm.allmax_f64(comm.rank() as f64 * 1.5);
            assert_eq!(max, 9.0);
        });
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        World::run(4, |comm| {
            let me = comm.rank();
            if me == 0 {
                comm.send(1, 9, b"x");
            }
            comm.barrier();
            if me == 1 {
                assert_eq!(comm.recv(0, 9), b"x");
            }
            let s = comm.allsum_u64(1);
            assert_eq!(s, 4);
        });
    }

    #[test]
    fn single_rank_collectives() {
        World::run(1, |comm| {
            comm.barrier();
            assert_eq!(comm.bcast(0, Some(vec![1, 2])), vec![1, 2]);
            assert_eq!(comm.allsum_u64(5), 5);
            let a2a = comm.alltoall(vec![vec![9]]);
            assert_eq!(a2a, vec![vec![9]]);
        });
    }
}
