//! `Comm::lend`: every rank reads the slice every rank lent, the scope
//! ends in a barrier on every path, and a rank that dies does not leave
//! its peers waiting. `Comm::lend_mut`: rank `i` writes piece `i` of every
//! lender, once, and the same holds. (That a lent slice or a taken piece
//! cannot leave its scope are the `compile_fail` examples in `lend.rs`'s
//! docs.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::Duration;

use lio_mpi::World;

/// What rank `r` lends in scope `s`: `r` bytes — rank 0 lends an empty
/// slice — that name both.
fn lent_by(r: usize, s: usize) -> Vec<u8> {
    (0..r).map(|i| (r * 31 + s * 7 + i) as u8).collect()
}

#[test]
fn every_rank_reads_what_every_rank_lent() {
    for p in [1, 2, 4] {
        World::run(p, |comm| {
            // scopes follow each other, and a message between them is
            // unaffected by what they lend
            for s in 0..3 {
                let mine = lent_by(comm.rank(), s);
                comm.lend(&mine, |lent| {
                    for r in 0..p {
                        assert_eq!(lent.get(r), lent_by(r, s), "p={p} scope {s} rank {r}");
                    }
                });
                let sum = comm.allsum_u64(mine.len() as u64);
                assert_eq!(sum, (p * (p - 1) / 2) as u64);
            }
        });
    }
}

#[test]
fn a_scope_ends_in_a_barrier() {
    // nobody leaves the scope before the slowest rank has left its closure
    let left = std::sync::atomic::AtomicUsize::new(0);
    World::run(3, |comm| {
        comm.lend(&[], |_| {
            if comm.rank() == 2 {
                std::thread::sleep(Duration::from_millis(20));
            }
            left.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(left.load(Ordering::SeqCst), 3);
    });
}

/// Run `body` as a world of its own on a thread of its own, so that a rank
/// left waiting fails the test instead of hanging the suite; returns what
/// `World::run` panicked with.
fn panic_of(p: usize, body: impl Fn(&lio_mpi::Comm) + Send + Sync + 'static) -> String {
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::run(p, |comm| body(comm));
        }));
        done_tx.send(out).unwrap();
    });
    let out = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a rank is still waiting");
    let cause = out.expect_err("the panic propagates out of World::run");
    match cause.downcast::<String>() {
        Ok(s) => *s,
        Err(c) => c
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

/// Sets its flag when dropped.
struct Flag(&'static AtomicBool);

impl Drop for Flag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_rank_that_panics_in_the_scope_lends_until_its_peers_are_done() {
    static UNWOUND: AtomicBool = AtomicBool::new(false);
    static FREED: AtomicBool = AtomicBool::new(false);
    let said = panic_of(2, |comm| {
        let mine = (lent_by(comm.rank() + 5, 0), Flag(&FREED));
        comm.lend(&mine.0, |lent| {
            if comm.rank() == 1 {
                let _left = Flag(&UNWOUND);
                panic!("rank 1 fails inside the scope");
            }
            // rank 1 has unwound out of its closure; its bytes stay
            while !UNWOUND.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert_eq!(lent.get(1), lent_by(6, 0));
            assert!(!FREED.load(Ordering::SeqCst), "the lender freed its bytes");
        });
    });
    assert!(said.contains("rank 1 fails"), "{said}");
    assert!(FREED.load(Ordering::SeqCst));
}

#[test]
fn a_rank_gone_before_it_lends_is_no_lender_to_wait_for() {
    let said = panic_of(3, |comm| {
        assert!(comm.rank() != 1, "rank 1 dies before the scope");
        comm.lend(&[comm.rank() as u8], |lent| lent.get(1).len());
    });
    // rank 0's own failure is what World::run reports first
    assert!(said.contains("terminated"), "{said}");
}

#[test]
#[should_panic(expected = "do not nest")]
fn scopes_do_not_nest() {
    World::run(1, |comm| {
        comm.lend(&[1], |_| comm.lend(&[2], |_| ()));
    });
}

/// The length of piece `i` that rank `r` lends: 0, 1 or 2 bytes, so that
/// every P has empty pieces.
fn piece_len(r: usize, i: usize) -> usize {
    (r + 2 * i) % 3
}

/// What rank `taker` writes into the piece rank `lender` lent it.
fn written(lender: usize, taker: usize) -> u8 {
    (16 * lender + taker + 1) as u8
}

#[test]
fn every_rank_writes_the_piece_every_rank_lent_it() {
    for p in [1, 2, 4] {
        World::run(p, |comm| {
            let me = comm.rank();
            for s in 0..3 {
                // a gap byte before every piece, which nobody may touch
                let lens: Vec<usize> = (0..p).map(|i| piece_len(me + s, i)).collect();
                let mut mine = vec![0xEEu8; lens.iter().map(|n| n + 1).sum()];
                let mut pieces = Vec::new();
                let mut rest = mine.as_mut_slice();
                for &n in &lens {
                    let (piece, tail) = rest[1..].split_at_mut(n);
                    pieces.push(piece);
                    rest = tail;
                }
                comm.lend_mut(pieces, |lent| {
                    for r in 0..p {
                        let piece = lent.take(r);
                        assert_eq!(piece.len(), piece_len(r + s, me), "p={p} scope {s}");
                        piece.fill(written(r, me));
                    }
                });
                let mut want = Vec::new();
                for (i, &n) in lens.iter().enumerate() {
                    want.push(0xEE);
                    want.extend(std::iter::repeat_n(written(me, i), n));
                }
                assert_eq!(mine, want, "p={p} scope {s} rank {me}");
            }
        });
    }
}

#[test]
fn a_rank_beyond_the_last_piece_takes_an_empty_one() {
    World::run(3, |comm| {
        let me = comm.rank();
        // rank 0 lends one piece, rank 1 none, rank 2 one for each rank
        let mut mine = [0u8; 3];
        let pieces = match me {
            0 => vec![&mut mine[..2]],
            1 => Vec::new(),
            _ => mine.chunks_mut(1).collect(),
        };
        comm.lend_mut(pieces, |lent| {
            let lens: Vec<usize> = (0..3).map(|r| lent.take(r).len()).collect();
            let from_0 = if me == 0 { 2 } else { 0 };
            assert_eq!(lens, [from_0, 0, 1], "rank {me}");
        });
    });
}

#[test]
#[should_panic(expected = "was taken before")]
fn a_piece_is_taken_once() {
    World::run(1, |comm| {
        let mut mine = [0u8; 4];
        comm.lend_mut(vec![&mut mine[..]], |lent| {
            let first = lent.take(0);
            let second = lent.take(0);
            first[0] = second[0];
        });
    });
}

/// A buffer that says what it held when it is freed.
struct Keep(Vec<u8>, &'static Mutex<Vec<u8>>);

impl Drop for Keep {
    fn drop(&mut self) {
        *self.1.lock().unwrap() = self.0.clone();
    }
}

#[test]
fn a_rank_that_panics_in_the_scope_lends_until_its_peer_has_written() {
    static UNWOUND: AtomicBool = AtomicBool::new(false);
    static HELD: Mutex<Vec<u8>> = Mutex::new(Vec::new());
    let said = panic_of(2, |comm| {
        let mut mine = Keep(vec![0; 4], &HELD);
        let pieces = mine.0.chunks_mut(2).collect();
        comm.lend_mut(pieces, |lent| {
            if comm.rank() == 1 {
                let _left = Flag(&UNWOUND);
                panic!("rank 1 fails inside the scope");
            }
            // rank 1 has unwound out of its closure; its pieces stay lent
            while !UNWOUND.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            lent.take(1).copy_from_slice(&[7, 8]);
        });
        if comm.rank() == 0 {
            std::mem::forget(mine);
        }
    });
    assert!(said.contains("rank 1 fails"), "{said}");
    assert_eq!(
        *HELD.lock().unwrap(),
        [7, 8, 0, 0],
        "rank 1 freed its bytes"
    );
}

#[test]
#[should_panic(expected = "other kind")]
fn both_kinds_of_scope_do_not_mix() {
    World::run(2, |comm| {
        if comm.rank() == 0 {
            comm.lend(&[1], |lent| lent.get(1).len());
        } else {
            comm.lend_mut(vec![&mut [0u8][..]], |lent| lent.take(0).len());
        }
    });
}
