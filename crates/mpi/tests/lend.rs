//! `Comm::lend`: every rank reads the slice every rank lent, the scope
//! ends in a barrier on every path, and a rank that dies does not leave
//! its peers waiting. (That a lent slice cannot leave its scope is the
//! `compile_fail` example in `lend.rs`'s module docs.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
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
