//! Differential fault-schedule corpus: collective writes and read-backs
//! under seeded storage + communication fault injection must produce
//! byte-for-byte the same file as the naive fault-free reference, for
//! both engines, with every window written inline and with the windows
//! written behind the loop (slow storage), across rank counts — the
//! retry/backoff and short-I/O resumption layers must make injected
//! faults invisible to correct programs.
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

use common::{figure4_filetype, pattern, reference_write, slow};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::decorate::{FaultPlan, FaultyFile};
use lio_pfs::{MemFile, StorageFile};
use lio_testkit as tk;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// The cyclically interleaved filetype used throughout: `nblock` blocks
/// of `sblock` bytes, one block per stride of `slots` block slots.
fn interleaved_ft(sblock: u64, nblock: u64, slots: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, slots as i64, &block).unwrap();
    let extent = nblock * slots * sblock;
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: 0,
            count: 1,
            child: v,
        },
        Field {
            disp: extent as i64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap()
}

/// One collective write + sync + full read-back with the seed's storage
/// and communication fault schedules armed; every rank asserts its
/// read-back in-world. Returns the injection-free file snapshot. On `slow`
/// storage the faults hit the lane's writes and the loop's pre-reads at
/// the same time.
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
    let faulty = FaultyFile::new(Arc::clone(&mem), tk::fault_plan(seed));
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
        // half the payload volume has been submitted for writing.
        let plan = FaultPlan {
            torn_after: Some(want.len() as u64 / 2),
            ..FaultPlan::disabled()
        };
        let faulty = FaultyFile::new(Arc::clone(&mem), plan);
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

/// Logs the offset and the calling thread of every `write_at` it is asked
/// for, before the device beneath gets to fail it.
struct WriteLog<F> {
    inner: F,
    log: Mutex<Vec<(u64, ThreadId)>>,
}

impl<F: StorageFile> StorageFile for WriteLog<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<usize> {
        let who = std::thread::current().id();
        self.log.lock().unwrap().push((offset, who));
        self.inner.write_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
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
        let device = FaultyFile::new(MemFile::with_data(vec![0xEE; span as usize]), plan);
        let log = Arc::new(WriteLog {
            inner: device,
            log: Mutex::new(Vec::new()),
        });
        let shared = SharedFile::new(slow(Arc::clone(&log)));
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
        let log = log.log.lock().unwrap();
        let failed: Vec<_> = log.iter().filter(|w| w.0 / CB == FAILS).collect();
        assert!(
            !failed.is_empty(),
            "{what}: window {FAILS} was never written"
        );
        let iop = outcomes[0].1;
        assert!(
            failed.iter().all(|w| w.1 != iop),
            "{what}: window {FAILS} was written inline, not behind the loop"
        );
        assert!(
            log.iter().all(|w| w.0 / CB <= FAILS),
            "{what}: a window past the failed one was written: {:?}",
            log.iter().map(|w| w.0).collect::<Vec<_>>()
        );
    }
}

/// A device that loses everything from byte `from` on: reads reaching
/// past it fail permanently.
struct DeadFrom {
    inner: MemFile,
    from: u64,
}

impl StorageFile for DeadFrom {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        if offset + buf.len() as u64 > self.from {
            return Err(std::io::Error::other("device lost"));
        }
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
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
    // in flight.
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
    for (engine, memtype, p) in cases {
        let len = p * n;
        let image: Vec<u8> = (0..len).map(|i| 1 + (i % 100) as u8).collect();
        let from = len * 3 / 4;
        let hints = engine.cb_buffer(CB);
        let shared = SharedFile::new(DeadFrom {
            inner: MemFile::with_data(image.clone()),
            from,
        });
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
        let what = format!("{:?}, p={p}, memtype {memtype:?}", hints.engine);
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
