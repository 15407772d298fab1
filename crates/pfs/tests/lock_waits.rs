//! A `RangeLock` that waits for an overlapping range counts the wait
//! (`pfs.lock.waits`) and times it (`pfs.lock.wait_ns`); one on a disjoint
//! range, and any lock while the metrics are disarmed, records nothing.
//! The registry is process-global, so the whole check is one test.

use std::thread;
use std::time::{Duration, Instant};

use lio_obs::Layers;
use lio_pfs::RangeLock;

fn waits() -> (u64, u64) {
    let s = lio_obs::snapshot();
    let timed = s.histogram("pfs.lock.wait_ns").map_or(0, |h| h.count);
    (s.counter("pfs.lock.waits"), timed)
}

/// Hold `held`, lock `wanted` from a second thread, and release once that
/// thread has been counted waiting — or, when nothing counts, after
/// `patience`.
fn contend(held: std::ops::Range<u64>, wanted: std::ops::Range<u64>, patience: Duration) {
    let lock = RangeLock::new();
    let guard = lock.lock(held);
    let other = lock.clone();
    let taker = thread::spawn(move || drop(other.lock(wanted)));
    let start = Instant::now();
    while waits().0 == 0 && !taker.is_finished() && start.elapsed() < patience {
        thread::sleep(Duration::from_millis(1));
    }
    drop(guard);
    taker.join().unwrap();
}

#[test]
fn only_a_lock_that_waits_records() {
    lio_obs::init_from_env();
    let patience = Duration::from_secs(10);

    Layers::METRICS.arm();
    lio_obs::reset();
    contend(0..100, 50..60, patience);
    let (counted, timed) = waits();
    assert!(counted >= 1, "an overlapping lock waited unseen");
    assert_eq!(timed, counted, "every counted wait is timed");

    lio_obs::reset();
    contend(0..10, 10..20, patience);
    assert_eq!(waits(), (0, 0), "a disjoint lock counted a wait");

    Layers::NONE.arm();
    contend(0..100, 50..60, Duration::from_millis(20));
    assert_eq!(waits(), (0, 0), "a disarmed registry counted a wait");
}
