//! Runtime health layer, end to end:
//!
//! 1. **Seeded hang detection** — a `lio_testkit::stall_plan` wedges one
//!    rank inside one heartbeat phase; the watchdog must name that rank
//!    and phase, surface `IoError::Stalled` on the culprit only, and
//!    leave no peer stranded (every rank returns from the collective).
//! 2. **Non-aborted stalls are invisible** — a short hold that expires
//!    before the watchdog deadline must leave all ranks `Ok` and the
//!    file byte-identical to the naive reference.
//! 3. **Slow is not stuck** — the throttled bandwidth model and the real
//!    `os` backend run with a tight watchdog deadline and must register
//!    progress (the window loops' heartbeats), never a false positive.
//! 4. **Straggler attribution** — a fabricated last-arrival streak of
//!    `exch.arrive` marks must surface through `health::straggler`, the
//!    per-rank skew table and the health report.
//! 5. **A lent read is an op like any other** — the IOPs fill the pieces
//!    of their user buffers the ranks lend them, with no unpack: every
//!    rank still begins, beats with its domain's bytes and
//!    ends in the lending scope's barrier, and nothing trips.
//!
//! Health state (the trace rings, the watchdog's verdicts) is
//! process-global, so every test serializes through one gate and resets
//! it on entry and exit.

mod common;

use common::{
    interleaved_ft, pattern, reference_write, slow_staged, storage_for_backend, test_storage,
    SnapHandle,
};
use lio_core::{BackendKind, File, Hints, IoError, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_obs::health::{self, StallSpec};
use lio_obs::trace::{self, Phase};
use lio_testkit as tk;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serialize the suite: the trace rings the heartbeats are read from,
/// the watchdog config, and the stall plan are process-global. Arms the
/// trace and resets on entry and exit so a failing test cannot poison
/// its neighbours.
fn with_health<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Consume `LIO_OBS` now so a later `File::open` inside the test
    // cannot re-arm the layers below.
    lio_obs::init_from_env();
    health::reset();
    trace::set_enabled(true);
    let r = f();
    trace::set_enabled(false);
    health::reset();
    r
}

/// One-line replay command for a failing seed.
fn replay(seed: u64) -> String {
    format!("replay with: LIO_FAULT_SEED={seed} cargo test -q -p lio-core --test health")
}

fn hb_phase(p: tk::StallPhase) -> Phase {
    match p {
        tk::StallPhase::Exchange => Phase::Exchange,
        tk::StallPhase::Io => Phase::Io,
    }
}

/// Per-rank collective results: `(rank, write result)`.
type RankResults = Vec<(u64, Result<u64, IoError>)>;

/// Run one collective write across `nprocs` ranks and collect each
/// rank's result. The closure never unwraps the write, so a stalled
/// culprit still reaches the closing sync with its peers.
fn collective_write_results(
    hints: Hints,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
) -> (RankResults, Vec<u8>, Vec<u8>) {
    collective_write_results_on(test_storage(), hints, nprocs, sblock, nblock)
}

/// [`collective_write_results`] on the given file and its snapshot handle.
fn collective_write_results_on(
    (shared, snap): (SharedFile, SnapHandle),
    hints: Hints,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
) -> (RankResults, Vec<u8>, Vec<u8>) {
    let sh = shared.clone();
    let results: Arc<Mutex<RankResults>> = Arc::new(Mutex::new(Vec::new()));
    let res2 = Arc::clone(&results);
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let ft = interleaved_ft(sblock, nblock, nprocs as u64);
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let step = nblock * sblock;
        let data = pattern(step as usize, me + 1);
        let r = f.write_at_all(0, &data, step, &Datatype::byte());
        res2.lock().unwrap().push((me, r));
    });
    // the naive reference for the same pattern
    let mut want = Vec::new();
    for me in 0..nprocs as u64 {
        let ft = interleaved_ft(sblock, nblock, nprocs as u64);
        let data = pattern((nblock * sblock) as usize, me + 1);
        reference_write(&mut want, me * sblock, &ft, 0, &data);
    }
    let mut got = snap.snapshot();
    let n = want.len().max(got.len());
    want.resize(n, 0);
    got.resize(n, 0);
    let r = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
    (r, got, want)
}

// ---------------------------------------------------------------------
// 1. Seeded hang detection: watchdog names the wedged rank and phase
// ---------------------------------------------------------------------

#[test]
fn seeded_stall_is_named_and_aborted_without_stranding_peers() {
    let nprocs = 4usize;
    for &seed in &tk::corpus_seeds() {
        let plan = tk::stall_plan(seed, nprocs);
        // alternate engines across the corpus; both must detect the hang
        let hints = if seed % 2 == 0 {
            Hints::list_based()
        } else {
            Hints::listless()
        };
        with_health(|| {
            health::set_watchdog(200, true);
            health::set_stall_plan(Some(StallSpec {
                rank: plan.rank,
                phase: hb_phase(plan.phase),
                hold: Duration::from_millis(plan.hold_ms),
            }));
            let (results, _got, _want) = collective_write_results(hints, nprocs, 32, 16);
            // World::run returned: every rank reached the closing sync.
            assert_eq!(results.len(), nprocs, "{}", replay(seed));
            let mut stalled = 0;
            for (rank, r) in &results {
                match r {
                    Err(IoError::Stalled(info)) => {
                        stalled += 1;
                        assert_eq!(
                            info.rank,
                            plan.rank,
                            "watchdog must name the wedged rank ({plan:?}); {}",
                            replay(seed)
                        );
                        assert_eq!(
                            info.phase,
                            hb_phase(plan.phase).name(),
                            "watchdog must name the wedged phase ({plan:?}); {}",
                            replay(seed)
                        );
                        assert_eq!(*rank, plan.rank as u64, "{}", replay(seed));
                        assert!(info.stalled_ms >= 200, "{info:?}; {}", replay(seed));
                    }
                    Err(e) => panic!("unexpected error on rank {rank}: {e}; {}", replay(seed)),
                    Ok(_) => {}
                }
            }
            assert_eq!(
                stalled,
                1,
                "exactly the culprit rank gets IoError::Stalled ({plan:?}); {}",
                replay(seed)
            );
            let rep = health::report();
            assert!(rep.watchdog_fired >= 1, "{}", replay(seed));
            assert!(rep.stalls_aborted >= 1, "{}", replay(seed));
        });
    }
}

/// The same with the windows written behind the loop: on slow staging
/// storage every IOP's lane arms (32 windows of 1 KiB each), its
/// `io.write` spans beat under the rank's identity, and a wedged rank is
/// still the one rank that is named.
#[test]
fn seeded_stall_detected_in_pipelined_engine() {
    let nprocs = 4usize;
    let seed = tk::FIXED_SEEDS[0];
    let plan = tk::stall_plan(seed, nprocs);
    with_health(|| {
        health::set_watchdog(200, true);
        health::set_stall_plan(Some(StallSpec {
            rank: plan.rank,
            phase: hb_phase(plan.phase),
            hold: Duration::from_millis(plan.hold_ms),
        }));
        let hints = Hints::listless().cb_buffer(1024);
        let (results, _got, _want) =
            collective_write_results_on(slow_staged(Vec::new()), hints, nprocs, 512, 64);
        assert_eq!(results.len(), nprocs, "{}", replay(seed));
        let stalled: Vec<_> = results
            .iter()
            .filter_map(|(rank, r)| match r {
                Err(IoError::Stalled(info)) => Some((*rank, info.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            stalled.len(),
            1,
            "write-behind lanes armed: exactly one stalled rank ({plan:?}): {results:?}; {}",
            replay(seed)
        );
        assert_eq!(stalled[0].1.rank, plan.rank, "{}", replay(seed));
    });
}

/// The heartbeat outlives the events it was read from: with each rank's
/// trace ring far smaller than one op's events, the ring has dropped the
/// second op's `coll.write` root long before the rank wedges, and the
/// watchdog still names the rank, its phase and that op's id.
#[test]
fn a_wrapped_ring_still_names_the_stalled_op() {
    let nprocs = 4usize;
    let seed = tk::FIXED_SEEDS[0];
    let plan = tk::stall_plan(seed, nprocs);
    let stall = StallSpec {
        rank: plan.rank,
        phase: hb_phase(plan.phase),
        hold: Duration::from_millis(plan.hold_ms),
    };
    with_health(|| {
        trace::set_capacity(4);
        health::set_watchdog(200, true);
        let (shared, _snap) = test_storage();
        let results: Arc<Mutex<RankResults>> = Arc::new(Mutex::new(Vec::new()));
        let res2 = Arc::clone(&results);
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(32, 16, nprocs as u64);
            let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
            f.set_view(me * 32, Datatype::byte(), ft).unwrap();
            let data = pattern(32 * 16, me + 1);
            f.write_at_all(0, &data, 32 * 16, &Datatype::byte())
                .unwrap();
            // arm the wedge for the second op only
            comm.barrier();
            if me == 0 {
                health::set_stall_plan(Some(stall));
            }
            comm.barrier();
            let r = f.write_at_all(0, &data, 32 * 16, &Datatype::byte());
            res2.lock().unwrap().push((me, r));
        });
        trace::set_capacity(trace::DEFAULT_CAPACITY);
        let results = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
        let stalled: Vec<_> = results
            .iter()
            .filter_map(|(_, r)| match r {
                Err(IoError::Stalled(info)) => Some(info.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(stalled.len(), 1, "{results:?}; {}", replay(seed));
        let info = &stalled[0];
        assert_eq!(info.rank, plan.rank, "{info:?}; {}", replay(seed));
        assert_eq!(info.phase, stall.phase.name(), "{info:?}; {}", replay(seed));
        assert_eq!(info.op, 2, "the second op's id: {info:?}; {}", replay(seed));
    });
}

// ---------------------------------------------------------------------
// 2. A stall that resolves before the deadline stays invisible
// ---------------------------------------------------------------------

#[test]
fn short_hold_run_is_clean_and_byte_identical() {
    let nprocs = 4usize;
    let seed = tk::FIXED_SEEDS[1];
    let plan = tk::stall_plan(seed, nprocs);
    for hints in [Hints::list_based(), Hints::listless()] {
        with_health(|| {
            // deadline far beyond the hold: the hang resolves on its own
            health::set_watchdog(10_000, true);
            health::set_stall_plan(Some(StallSpec {
                rank: plan.rank,
                phase: hb_phase(plan.phase),
                hold: Duration::from_millis(40),
            }));
            let (results, got, want) = collective_write_results(hints, nprocs, 32, 16);
            assert_eq!(results.len(), nprocs, "{}", replay(seed));
            for (rank, r) in &results {
                assert!(
                    r.is_ok(),
                    "rank {rank} failed on a sub-deadline stall: {r:?}; {}",
                    replay(seed)
                );
            }
            assert_eq!(
                got,
                want,
                "non-aborted run must be byte-identical to the reference; {}",
                replay(seed)
            );
            assert_eq!(
                health::report().watchdog_fired,
                0,
                "watchdog must not fire on a sub-deadline stall; {}",
                replay(seed)
            );
        });
    }
}

// ---------------------------------------------------------------------
// 3. Slow backends register progress: no false positives
// ---------------------------------------------------------------------

#[test]
fn slow_backends_heartbeat_instead_of_tripping_the_watchdog() {
    let nprocs = 4usize;
    for backend in [BackendKind::Throttled, BackendKind::Os] {
        for hints in [
            Hints::list_based().cb_buffer(8192),
            Hints::listless().cb_buffer(8192),
        ] {
            with_health(|| {
                // tight deadline: only the per-window heartbeats of the
                // window loops (and of a write-behind lane) keep this from
                // firing
                health::set_watchdog(300, true);
                let (shared, _snap) = storage_for_backend(backend);
                let sh = shared.clone();
                World::run(nprocs, move |comm| {
                    let me = comm.rank() as u64;
                    let ft = interleaved_ft(64, 32, nprocs as u64);
                    let mut f = File::open(comm, sh.clone(), hints).unwrap();
                    f.set_view(me * 64, Datatype::byte(), ft).unwrap();
                    let step = 64 * 32u64;
                    for s in 0..3u64 {
                        let data = pattern(step as usize, me * 100 + s);
                        let n = f
                            .write_at_all(s * step, &data, step, &Datatype::byte())
                            .unwrap_or_else(|e| {
                                panic!("rank {me} step {s}: slow backend errored: {e}")
                            });
                        assert_eq!(n, step);
                    }
                });
                let rep = health::report();
                assert_eq!(
                    rep.watchdog_fired,
                    0,
                    "slow {} backend must read as slow, not stuck: {}",
                    backend.name(),
                    rep.render()
                );
                assert!(rep.watchdog_checks > 0 || !rep.ranks.is_empty());
            });
        }
    }
}

// ---------------------------------------------------------------------
// 4. Straggler attribution reaches the report
// ---------------------------------------------------------------------

#[test]
fn straggler_streak_feeds_report() {
    with_health(|| {
        // fabricate a last-arrival streak on an IOP: rank 3 closes every
        // exchange with a spread comfortably above STRAGGLER_MIN_SKEW_NS
        trace::set_thread_rank(0);
        for _ in 0..6 {
            let _wait = trace::span("exch.wait");
            trace::mark("exch.arrive", 0, 0);
            trace::mark("exch.arrive", 1, 0);
            std::thread::sleep(Duration::from_micros(120));
            trace::mark("exch.arrive", 3, 0);
        }
        trace::set_thread_rank(lio_obs::NO_RANK);
        let timeline = trace::merge(&trace::collect());

        let s = health::straggler(&timeline).expect("a 6-exchange streak must flag a straggler");
        assert_eq!(s.rank, 3);
        assert!(s.exchanges >= health::STRAGGLER_K);
        assert!(s.skew_ns >= health::STRAGGLER_MIN_SKEW_NS);

        // per-rank skew attribution (the critical-path report column)
        let skews = health::rank_skews(&timeline);
        let r3 = skews
            .iter()
            .find(|r| r.rank == 3)
            .expect("rank 3 must appear in the per-rank skew table");
        assert!(r3.exchanges_last >= 4, "{skews:?}");
        assert!(r3.skew_ns >= 4 * health::STRAGGLER_MIN_SKEW_NS, "{skews:?}");
        assert!(
            !skews.iter().any(|r| r.rank == 0),
            "first arrivals must not be charged: {skews:?}"
        );

        // the health report carries the same straggler
        let rep = health::report();
        assert_eq!(rep.straggler, Some(s));
        assert!(rep.straggler_flags >= 1);
    });
}

// ---------------------------------------------------------------------
// Introspection surfaces
// ---------------------------------------------------------------------

#[test]
fn health_report_renders_and_serializes_after_a_run() {
    let nprocs = 2usize;
    with_health(|| {
        health::set_watchdog(5_000, false);
        let (shared, _snap) = test_storage();
        let sh = shared.clone();
        let rendered: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
        let rendered2 = Arc::clone(&rendered);
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(16, 8, nprocs as u64);
            let mut f = File::open(comm, sh.clone(), Hints::list_based()).unwrap();
            f.set_view(me * 16, Datatype::byte(), ft).unwrap();
            let step = 16 * 8u64;
            let data = pattern(step as usize, me + 1);
            f.write_at_all(0, &data, step, &Datatype::byte()).unwrap();
            if me == 0 {
                // live introspection from inside the world
                *rendered2.lock().unwrap() = f.shared().health_report().render();
            }
        });
        let txt = rendered.lock().unwrap().clone();
        assert!(txt.contains("rank"), "render must tabulate ranks: {txt}");
        assert!(txt.contains("watchdog:"), "{txt}");
        // the JSON twin round-trips through the obs parser
        let rep = health::report();
        assert!(!rep.ranks.is_empty(), "both ranks heartbeat during the op");
        for r in &rep.ranks {
            assert!(r.beats > 0, "{r:?}");
            assert!(r.bytes > 0, "every rank moved bytes: {r:?}");
        }
        let json = rep.to_json();
        lio_obs::json::validate(&json).expect("health JSON must parse");
        assert!(json.contains(health::REPORT_SCHEMA));
    });
}

// ---------------------------------------------------------------------
// 5. A lent collective read: an op like any other
// ---------------------------------------------------------------------

#[test]
fn a_lent_read_beats_and_ends_like_any_op() {
    let nprocs = 2usize;
    let (sblock, nblock) = (64u64, 512u64);
    let step = sblock * nblock;
    with_health(|| {
        health::set_watchdog(300, true);
        // every byte lent to the IOPs, and every rank's buffer to them
        let shared = SharedFile::new(lio_pfs::MemFile::with_data(pattern(2 * step as usize, 3)));
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(sblock, nblock, nprocs as u64);
            let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
            f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
            let mut back = vec![0u8; step as usize];
            for _ in 0..3 {
                let n = f.read_at_all(0, &mut back, step, &Datatype::byte());
                assert_eq!(n.unwrap(), step);
            }
        });
        let rep = health::report();
        assert_eq!(rep.watchdog_fired, 0, "{}", rep.render());
        assert_eq!(rep.ranks.len(), nprocs, "{}", rep.render());
        for r in &rep.ranks {
            assert_eq!(r.phase, "idle", "the op ended: {r:?}");
            // each IOP's domain is half the file: the last op's windows
            assert_eq!(r.bytes, step, "the last op's bytes: {r:?}");
        }
    });
}
