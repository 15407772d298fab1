//! Differential fault-schedule corpus: collective writes and read-backs
//! under seeded storage + communication fault injection must produce
//! byte-for-byte the same file as the naive fault-free reference, for
//! both engines, with the windows the fault plan lends worked on in place
//! and the rest staged inline, and with every window staged and written
//! behind the loop (slow storage), across rank counts — the retry/backoff
//! and short-I/O resumption layers must make injected faults invisible to
//! correct programs.
//!
//! Every assertion message carries the seed's repro command
//! ([`lio_testkit::repro_hint`]); setting `LIO_FAULT_SEED` narrows the
//! corpus to that one seed for replay.
//!
//! Then crash-consistency: a fail-stop torn write mid-collective must
//! surface as an error on at least one rank, and the file must never
//! contain a byte that no serial schedule of the old and new contents
//! could produce; a write that fails *behind* the window loop stops the
//! loop before the next write and strands no rank.

mod common;

use common::{
    figure4_filetype, interleaved_ft, lost_from, pattern, reference_write, slow, Recording,
};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::{Decorated, FaultPlan, Faults, MemFile};
use lio_testkit as tk;
use std::sync::Arc;

/// One collective write + sync + full read-back with the seed's storage
/// and communication fault schedules armed; every rank asserts its
/// read-back in-world. Returns the injection-free file snapshot. The plan
/// lends all but a seeded share of the windows, and those staged meet its
/// faults; `slow` storage declines every lend, and the faults hit the
/// lane's writes and the loop's pre-reads at the same time.
#[allow(clippy::too_many_arguments)]
fn run_faulty_case(
    hints: Hints,
    slow_storage: bool,
    seed: u64,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
    holey: bool,
    steps: u64,
) -> Vec<u8> {
    let mem = Arc::new(MemFile::new());
    let faulty = Decorated::new(Arc::clone(&mem), Faults::new(tk::fault_plan(seed)));
    let shared = if slow_storage {
        SharedFile::new(slow(faulty))
    } else {
        SharedFile::new(faulty)
    };
    World::run(nprocs, move |comm| {
        comm.set_fault_plan(Some(tk::comm_fault_plan(seed, comm.rank())));
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + holey as u64;
        let ft = interleaved_ft(sblock, nblock, slots);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let step = nblock * sblock;
        for s in 0..steps {
            let data = pattern(step as usize, me * 1000 + s);
            f.write_at_all(s * step, &data, step, &Datatype::byte())
                .unwrap_or_else(|e| {
                    panic!("write under faults failed: {e}; {}", tk::repro_hint(seed))
                });
        }
        f.sync()
            .unwrap_or_else(|e| panic!("sync under faults failed: {e}; {}", tk::repro_hint(seed)));
        let total = steps * step;
        let mut back = vec![0u8; total as usize];
        f.read_at_all(0, &mut back, total, &Datatype::byte())
            .unwrap_or_else(|e| panic!("read under faults failed: {e}; {}", tk::repro_hint(seed)));
        for s in 0..steps {
            assert_eq!(
                &back[(s * step) as usize..((s + 1) * step) as usize],
                &pattern(step as usize, me * 1000 + s)[..],
                "rank {me} read back wrong bytes in step {s}; {}",
                tk::repro_hint(seed)
            );
        }
    });
    mem.snapshot()
}

/// The file every variant must produce, per the naive reference.
fn reference_file(nprocs: usize, sblock: u64, nblock: u64, holey: bool, steps: u64) -> Vec<u8> {
    let slots = nprocs as u64 + holey as u64;
    let ft = interleaved_ft(sblock, nblock, slots);
    let step = (nblock * sblock) as usize;
    let mut want = Vec::new();
    for me in 0..nprocs as u64 {
        let mut stream = Vec::with_capacity(step * steps as usize);
        for s in 0..steps {
            stream.extend_from_slice(&pattern(step, me * 1000 + s));
        }
        reference_write(&mut want, me * sblock, &ft, 0, &stream);
    }
    want
}

#[test]
fn fault_corpus_matches_reference() {
    let seeds = tk::corpus_seeds();
    let mut case = 0u64;
    for &nprocs in &[1usize, 2, 4, 7] {
        for &seed in &seeds {
            // 64 B: windows smaller than one block (every window is a
            // read-modify-write under faults); 4096 B: a few blocks per
            // window.
            for &cb in &[64usize, 4096] {
                case += 1;
                let mut rng = tk::Rng::new(seed ^ (case << 16));
                let sblock = 1 + rng.below(95);
                let nblock = 1 + rng.below(11);
                let holey = rng.below(2) == 1;
                let steps = 1 + rng.below(2);

                let variants = [
                    (Hints::list_based().cb_buffer(cb), false),
                    (Hints::list_based().cb_buffer(cb), true),
                    (Hints::listless().cb_buffer(cb), false),
                    (Hints::listless().cb_buffer(cb), true),
                ];
                let mut want = reference_file(nprocs, sblock, nblock, holey, steps);
                for (i, &(h, slow)) in variants.iter().enumerate() {
                    let mut got =
                        run_faulty_case(h, slow, seed, nprocs, sblock, nblock, holey, steps);
                    let n = want.len().max(got.len());
                    want.resize(n, 0);
                    got.resize(n, 0);
                    assert_eq!(
                        got,
                        want,
                        "case {case} (p={nprocs} cb={cb} sblock={sblock} nblock={nblock} \
                         holey={holey} steps={steps}): variant {i} differs from the fault-free \
                         reference; {}",
                        tk::repro_hint(seed)
                    );
                }
            }
        }
    }
}

/// Crash consistency: a fail-stop torn write mid-collective surfaces as
/// `IoError::Storage` on at least one rank, every rank still reaches the
/// closing synchronization (no deadlock, no stranded peer), and the file
/// holds only bytes from the old contents or the would-be-complete new
/// contents — never garbage from a schedule no serial execution allows.
#[test]
fn torn_write_leaves_serially_explainable_bytes() {
    let nprocs = 4usize;
    let (sblock, nblock, steps) = (32u64, 6u64, 2u64);
    let want = reference_file(nprocs, sblock, nblock, false, steps);
    let old: Vec<u8> = (0..want.len()).map(|i| 0xC0 | (i as u8 & 0x0F)).collect();

    for (v, &(hints, slow_storage)) in [
        (Hints::list_based().cb_buffer(256), false),
        (Hints::list_based().cb_buffer(256), true),
        (Hints::listless().cb_buffer(256), false),
        (Hints::listless().cb_buffer(256), true),
    ]
    .iter()
    .enumerate()
    {
        let mem = Arc::new(MemFile::with_data(old.clone()));
        // Pure fail-stop: no probabilistic faults, the device dies after
        // half the payload volume has been submitted for writing. The plan
        // lends no window for writing (its point counts requested bytes),
        // so the tear falls on a staged write.
        let plan = FaultPlan {
            torn_after: Some(want.len() as u64 / 2),
            ..FaultPlan::disabled()
        };
        let faulty = Decorated::new(Arc::clone(&mem), Faults::new(plan));
        let shared = if slow_storage {
            SharedFile::new(slow(faulty))
        } else {
            SharedFile::new(faulty)
        };
        let results = World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(sblock, nblock, nprocs as u64);
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
            let step = nblock * sblock;
            let mut out: Result<(), String> = Ok(());
            for s in 0..steps {
                let data = pattern(step as usize, me * 1000 + s);
                if let Err(e) = f.write_at_all(s * step, &data, step, &Datatype::byte()) {
                    out = Err(e.to_string());
                }
            }
            out
        });
        let errs = results.iter().filter(|r| r.is_err()).count();
        assert!(
            errs >= 1,
            "variant {v}: a torn write at half volume must fail at least one rank"
        );
        for e in results.iter().filter_map(|r| r.as_ref().err()) {
            assert!(
                e.contains("storage"),
                "variant {v}: torn write must surface as a storage error, got: {e}"
            );
        }
        let snap = mem.snapshot();
        for (i, &b) in snap.iter().enumerate() {
            let was = if i < old.len() { old[i] } else { 0 };
            let new = if i < want.len() { want[i] } else { 0 };
            assert!(
                b == was || b == new,
                "variant {v}: byte {i} is {b:#04x}, which is neither the old contents \
                 ({was:#04x}) nor the completed write ({new:#04x}) — no serial schedule \
                 produces it"
            );
        }
    }
}

/// A permanent fault in a write that the lane makes *behind* the window
/// loop is that IOP's typed error, found before the next write is issued:
/// the log shows no write past the failed window. Every rank returns (the
/// closing barrier is reached) with nothing left in flight, and only the
/// IOP reports the fault.
#[test]
fn a_failed_write_behind_stops_the_loop_and_strands_nobody() {
    const CB: u64 = 256;
    const FAILS: u64 = 3; // the window whose write fails; 0 is inline
    let nprocs = 3usize;
    let (sblock, nblock) = (32u64, 24u64);
    // one hole per stride: every window is read, modified and written whole
    let slots = nprocs as u64 + 1;
    let span = nblock * slots * sblock;
    assert!(
        span >= (FAILS + 3) * CB,
        "windows left after the failed one"
    );
    for engine in [Hints::list_based(), Hints::listless()] {
        // one IOP, so one loop makes every write, in window order
        let hints = engine.cb_buffer(CB as usize).io_nodes(1);
        let plan = FaultPlan {
            torn_after: Some(FAILS * CB + CB / 2),
            ..FaultPlan::disabled()
        };
        let device = Decorated::new(
            MemFile::with_data(vec![0xEE; span as usize]),
            Faults::new(plan),
        );
        // every write the device is asked for, before it gets to fail it;
        // the subject is the write-behind lane, and `slow` storage declines
        // every lend, so every window is staged
        let rec = Recording::default();
        let shared = SharedFile::new(slow(Decorated::new(device, rec.clone())));
        let outcomes = World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(
                me * sblock,
                Datatype::byte(),
                interleaved_ft(sblock, nblock, slots),
            )
            .unwrap();
            let data = pattern((nblock * sblock) as usize, me + 1);
            let res = f.write_at_all(0, &data, data.len() as u64, &Datatype::byte());
            comm.barrier();
            assert_eq!(comm.stashed_msgs(), 0, "a message of the failed op is left");
            (res.map_err(|e| e.to_string()), std::thread::current().id())
        });
        let what = format!("{:?}", hints.engine);
        let err = outcomes[0]
            .0
            .as_ref()
            .expect_err("the IOP must report the fault");
        assert!(
            err.contains("storage"),
            "{what}: a typed storage error, got {err}"
        );
        for (rank, (res, _)) in outcomes.iter().enumerate().skip(1) {
            assert!(
                res.is_ok(),
                "{what}: rank {rank} has no storage to fail: {res:?}"
            );
        }
        let log: Vec<_> = rec.take().into_iter().filter(|r| r.write).collect();
        let failed: Vec<_> = log.iter().filter(|w| w.offset / CB == FAILS).collect();
        assert!(
            !failed.is_empty(),
            "{what}: window {FAILS} was never written"
        );
        let iop = outcomes[0].1;
        assert!(
            failed.iter().all(|w| w.thread != iop),
            "{what}: window {FAILS} was written inline, not behind the loop"
        );
        assert!(
            log.iter().all(|w| w.offset / CB <= FAILS),
            "{what}: a window past the failed one was written: {log:?}"
        );
    }
}

#[test]
fn failed_collective_read_zero_fills_every_lent_piece() {
    // A permanent read fault in the last IOP's domain: that rank's call
    // fails, every other rank's succeeds, and what each gets from the
    // failed domain — in the piece of its user buffer or of its staging
    // buffer that it lent the failed IOP, or, the failed IOP's own rank,
    // in its user buffer — is the promised number of bytes: file bytes up
    // to the failed window, zeros from there on, never recycled buffer
    // contents or bytes left as they were. Every rank returns with nothing
    // in flight — whether the failed IOP's lend of the window fails or,
    // staged, its read.
    const NBLOCK: u64 = 64;
    const SBLOCK: u64 = 8;
    const CB: usize = 96;
    let n = NBLOCK * SBLOCK;
    // strided user memory takes the own share through its chunk; the
    // descending one holds the second half of the stream first, so a
    // listless rank stages its read too
    let strided = Datatype::vector(n, 1, 2, &Datatype::byte()).unwrap();
    let descending =
        Datatype::hindexed(&[n / 2, n / 2], &[n as i64 / 2 + 8, 0], &Datatype::byte()).unwrap();
    let cases = [
        (Hints::list_based(), None, 2),
        (Hints::list_based(), Some(&strided), 2),
        (Hints::listless(), None, 2),
        (Hints::listless(), Some(&strided), 2),
        (Hints::list_based(), Some(&strided), 3),
        (Hints::listless(), Some(&descending), 3),
    ];
    for ((engine, memtype, p), lending) in cases.into_iter().flat_map(|c| [(c, true), (c, false)]) {
        let len = p * n;
        let image: Vec<u8> = (0..len).map(|i| 1 + (i % 100) as u8).collect();
        let from = len * 3 / 4;
        let hints = engine.cb_buffer(CB);
        let shared = lost_from(image.clone(), from, lending);
        let outcomes = World::run(p as usize, |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(0, Datatype::byte(), figure4_filetype(me, p, NBLOCK, SBLOCK))
                .unwrap();
            // warm the arena, so the failing op runs on recycled buffers
            let junk = vec![0x5Au8; (n / 4) as usize];
            f.write_at_all(0, &junk, junk.len() as u64, &Datatype::byte())
                .unwrap();
            let (res, back) = match memtype {
                Some(memtype) => {
                    let mut back = vec![0x77u8; memtype.data_ub() as usize];
                    let res = f.read_at_all(0, &mut back, 1, memtype);
                    (res, common::reference_stream(&back, memtype, 1))
                }
                None => {
                    let mut back = vec![0x77u8; n as usize];
                    let res = f.read_at_all(0, &mut back, n, &Datatype::byte());
                    (res, back)
                }
            };
            comm.barrier();
            assert_eq!(comm.stashed_msgs(), 0, "a message of the failed op is left");
            (res.is_ok(), back)
        });
        let what = format!(
            "{:?}, p={p}, memtype {memtype:?}, lending {lending}",
            hints.engine
        );
        for (rank, (ok, back)) in outcomes.iter().enumerate() {
            let failed = rank as u64 == p - 1;
            assert_eq!(!ok, failed, "only the last IOP reports the fault ({what})");
            let mut zeros = 0;
            for (i, &got) in back.iter().enumerate() {
                let i = i as u64;
                let at = (i / SBLOCK) * p * SBLOCK + rank as u64 * SBLOCK + i % SBLOCK;
                let want = if i < n / 4 { 0x5A } else { image[at as usize] };
                if at + (CB as u64) <= from {
                    assert_eq!(
                        got, want,
                        "rank {rank} byte {i} (file {at}) precedes the fault ({what})"
                    );
                } else {
                    assert!(
                        got == want || got == 0,
                        "rank {rank} byte {i} is {got:#x} ({what})"
                    );
                    zeros += (got == 0) as usize;
                }
            }
            assert!(zeros > 0, "the fault left no trace on rank {rank} ({what})");
        }
    }
}

/// A sieved write and a sieved read whose last window reaches lost bytes
/// return the device's error — the lend of the window fails, or, staged,
/// its read — and the write releases that window's lock: a second write
/// into the same window, below the lost bytes, completes (within a
/// deadline, so that a lock left held fails the test instead of hanging
/// it) and lands.
#[test]
fn a_failed_sieve_window_surfaces_its_error_and_releases_its_lock() {
    const IND: u64 = 64;
    let (len, byte) = (8 * IND, Datatype::byte());
    // 8 bytes of every 16: every window is sieved, none is dense
    let view = Datatype::vector(len / 16, 8, 16, &byte).unwrap();
    for (engine, lending) in [(Hints::list_based(), true), (Hints::listless(), true)]
        .into_iter()
        .chain([(Hints::list_based(), false), (Hints::listless(), false)])
    {
        let (what, hints) = (
            format!("{:?}, lending {lending}", engine.engine),
            engine.ind_buffer(IND as usize),
        );
        let shared = lost_from(vec![0xEE; len as usize], len - IND / 2, lending);
        let (view, byte, probe) = (view.clone(), byte.clone(), shared.clone());
        let (done, finished) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let errors = World::run(1, |comm| {
                let mut f = File::open(comm, probe.clone(), hints).unwrap();
                f.set_view(0, byte.clone(), view.clone()).unwrap();
                let mut half = pattern(len as usize / 2, 3);
                let wrote = f.write_at(0, &half, len / 2, &byte).unwrap_err();
                let read = f.read_at(0, &mut half, len / 2, &byte).unwrap_err();
                // the last window starts at stream byte 7·IND/2
                f.write_at(7 * IND / 2, &[0x11; 8], 8, &byte).unwrap();
                [wrote.to_string(), read.to_string()]
            });
            let _ = done.send(());
            errors
        });
        // a held lock leaves the thread waiting, and it cannot be joined
        let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
        if waited == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            panic!("{what}: the second write never got the window's lock");
        }
        let errors = run.join().expect("the run's panic is printed above");
        for e in &errors[0] {
            assert!(e.contains("storage error: device lost"), "{what}: {e}");
        }
        let mut landed = [0u8; 8];
        shared.storage().read_at(7 * IND, &mut landed).unwrap();
        assert_eq!(landed, [0x11; 8], "{what}");
    }
}
