//! The waiting rule of `Comm::recv_raw`: a blocking receive polls its
//! channel (yielding between attempts) for a bounded time and only then
//! parks. Both ways of waiting must deliver, both must notice a sender
//! that is gone, and a ping-pong must stay on the polling side.
//! `Comm::wait_any` only ever polls; it must notice a vanished sender too,
//! but not before it has taken everything that sender left behind.
//!
//! The tests take turns: they read process-wide counters, and a test that
//! spins next to another's ping-pong would push it into the parked path.

use std::sync::mpsc::channel;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use lio_mpi::World;

/// Longer than the polling bound (500 µs) by an order of magnitude.
const PAST_THE_BOUND: Duration = Duration::from_millis(5);

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `world` with the counters on; returns `(polled, parked)`.
fn receives_counted(world: impl FnOnce()) -> (u64, u64) {
    lio_obs::reset();
    lio_obs::set_enabled(true);
    world();
    lio_obs::set_enabled(false);
    let snap = lio_obs::snapshot();
    (
        snap.counter("mpi.recv.polled"),
        snap.counter("mpi.recv.parked"),
    )
}

#[test]
fn a_receive_posted_long_before_its_send_completes_parked() {
    let _t = turn();
    let (polled, parked) = receives_counted(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                assert_eq!(comm.recv(1, 1), b"posted"); // rank 1 is in its receive
                std::thread::sleep(PAST_THE_BOUND);
                comm.send(1, 2, b"late");
            } else {
                comm.send(0, 1, b"posted");
                assert_eq!(comm.recv(0, 2), b"late");
            }
        });
    });
    assert!(
        parked >= 1,
        "the late message was waited for in the channel"
    );
    assert_eq!(polled + parked, 2, "every receive is counted once");
}

/// Rank 1 receives from a rank 0 that terminates `after` rank 1 said it
/// is about to block, without ever sending.
fn sender_leaves(after: Duration) {
    let _t = turn();
    let (tx, rx) = channel();
    let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
    World::run(2, |comm| {
        if comm.rank() == 0 {
            rx.lock().unwrap().recv().unwrap();
            std::thread::sleep(after);
        } else {
            tx.lock().unwrap().send(()).unwrap();
            comm.recv(0, 1);
        }
    });
}

#[test]
#[should_panic(expected = "sender rank terminated while a receive was posted")]
fn a_sender_that_terminates_while_the_receiver_polls_is_noticed() {
    sender_leaves(Duration::ZERO);
}

#[test]
#[should_panic(expected = "sender rank terminated while a receive was posted")]
fn a_sender_that_terminates_while_the_receiver_is_parked_is_noticed() {
    sender_leaves(PAST_THE_BOUND);
}

#[test]
fn a_ping_pong_stays_on_the_polling_side() {
    let _t = turn();
    const ROUNDS: u64 = 1000;
    let (polled, parked) = receives_counted(|| {
        World::run(2, |comm| {
            let peer = 1 - comm.rank();
            for _ in 0..ROUNDS {
                if comm.rank() == 0 {
                    comm.send(peer, 1, &[0; 8]);
                    comm.recv(peer, 1);
                } else {
                    comm.recv(peer, 1);
                    comm.send(peer, 1, &[0; 8]);
                }
            }
        });
    });
    assert_eq!(polled + parked, 2 * ROUNDS, "every receive is counted once");
    // a count, not a timing gate: a reply is microseconds away, so only a
    // rank that lost its core for longer than the bound parks
    assert!(
        parked * 10 <= 2 * ROUNDS,
        "{parked} of {} receives parked",
        2 * ROUNDS
    );
}

/// What a caught panic said.
fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

#[test]
fn wait_any_notices_a_rank_that_died_before_sending() {
    let _t = turn();
    // Ranks 0 and 1 wait for one message from each of the others; rank 2
    // dies first. The world runs on threads of its own so that a survivor
    // left spinning fails this test instead of hanging the suite.
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let ranks: Vec<_> = World::make_comms(3)
            .into_iter()
            .map(|comm| {
                std::thread::spawn(move || {
                    let me = comm.rank();
                    assert!(me != 2, "rank 2 dies inside the collective");
                    comm.send(1 - me, 5, b"from the living");
                    let mut reqs = [comm.irecv(1 - me, 5), comm.irecv(2, 5)];
                    let (_, src, payload) = comm.wait_any(&mut reqs);
                    assert_eq!((src, &payload[..]), (1 - me, &b"from the living"[..]));
                    comm.wait_any(&mut reqs);
                })
            })
            .collect();
        let outcomes: Vec<_> = ranks.into_iter().map(|h| h.join()).collect();
        done_tx.send(outcomes).unwrap();
    });
    let outcomes = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a survivor is still spinning in wait_any");
    let said: Vec<String> = outcomes
        .into_iter()
        .map(|o| message(o.expect_err("every rank goes down")))
        .collect();
    assert!(said[2].contains("rank 2 dies"), "{said:?}");
    for s in &said[..2] {
        assert!(s.contains("sender rank terminated"), "{said:?}");
    }
}

#[test]
fn wait_any_takes_what_a_finished_sender_left_behind() {
    let _t = turn();
    World::run(2, |comm| {
        if comm.rank() == 1 {
            // more than one sweep's drain budget, the wanted ones last
            for i in 0..100u8 {
                comm.send(0, 9, &[i]);
            }
            comm.send(0, 1, b"one");
            comm.send(0, 2, b"two");
        } else {
            std::thread::sleep(PAST_THE_BOUND); // rank 1 is gone by now
            let mut reqs = [comm.irecv(1, 2), comm.irecv(1, 1)];
            let mut got = [comm.wait_any(&mut reqs).2, comm.wait_any(&mut reqs).2];
            got.sort();
            assert_eq!(got, [b"one".to_vec(), b"two".to_vec()]);
            for i in 0..100u8 {
                assert_eq!(comm.recv(1, 9), [i]);
            }
        }
    });
}
