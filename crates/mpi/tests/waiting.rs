//! The waiting rule of `Comm::recv_raw`: a blocking receive polls its
//! channel (yielding between attempts) for a bounded time and only then
//! parks. Both ways of waiting must deliver, both must notice a sender
//! that is gone, and a ping-pong must stay on the polling side.
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
