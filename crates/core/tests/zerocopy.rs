//! Zero-copy audit: a *contiguous* memtype must never go through the
//! datatype pack machinery. The two-phase exchange lifts the bytes
//! straight out of the user buffer, so `dt.pack.calls` / `dt.unpack.calls`
//! stay at zero for the whole collective — any regression that
//! reintroduces a pack on this path trips the counters. The audit runs
//! on a `MemFile` (whose windows the IOPs work on in place) and on staging
//! storage.
//!
//! Runs as its own test binary so the process-global counters reflect
//! exactly the collectives issued here.

mod common;

use common::pattern;
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;
use std::sync::Mutex;

const NPROCS: usize = 4;
const PER_RANK: u64 = 64 * 1024;

/// Interleaved noncontig *fileview* with a contiguous byte memtype: the
/// file side is gappy (so two-phase really exchanges data) but the
/// memory side is one run.
fn run_collective(hints: Hints, shared: SharedFile) {
    let sh = shared.clone();
    World::run(NPROCS, move |comm| {
        let me = comm.rank() as u64;
        let p = comm.size() as u64;
        let sblock = 512u64;
        let nblock = PER_RANK / sblock;
        let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
        let v = Datatype::vector(nblock, 1, p as i64, &block).unwrap();
        let extent = nblock * p * sblock;
        let ft = Datatype::struct_type(vec![
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
        .unwrap();
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let data = pattern(PER_RANK as usize, me + 1);
        f.write_at_all(0, &data, PER_RANK, &Datatype::byte())
            .unwrap();
        let mut back = vec![0u8; PER_RANK as usize];
        f.read_at_all(0, &mut back, PER_RANK, &Datatype::byte())
            .unwrap();
        assert_eq!(back, data, "rank {me} read back foreign bytes");
    });
    assert_eq!(shared.len(), NPROCS as u64 * PER_RANK);
}

/// Serialize the tests and run `f` with the counters armed from zero: the
/// `lio_obs` registry is process-global, so a pack counted by one test
/// would show up in another's snapshot.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    lio_obs::reset();
    lio_obs::set_enabled(true);
    let out = f();
    lio_obs::set_enabled(false);
    out
}

#[test]
fn contiguous_memtype_never_packs() {
    let snap = counted(|| {
        let hints = Hints::listless().cb_buffer(8192);
        run_collective(hints, SharedFile::new(MemFile::new()));
        run_collective(hints, SharedFile::new(common::staged(MemFile::new())));
        lio_obs::snapshot()
    });
    assert_eq!(
        snap.counter("core.coll.read.calls"),
        2 * NPROCS as u64,
        "one read-back on each storage"
    );
    assert_eq!(
        snap.counter("dt.pack.calls"),
        0,
        "contiguous memtype went through ff_pack instead of contig_slice"
    );
    assert_eq!(
        snap.counter("dt.unpack.calls"),
        0,
        "contiguous memtype went through ff_unpack instead of a direct copy"
    );
}

/// A genuinely non-contiguous memtype, each rank writing into the other's
/// file domain and reading it back: the list-based AP packs what changes
/// ranks into the staging buffer it lends (through its memtype's ol-list,
/// so `dt.pack.calls` counts it) and unpacks it from there; the listless
/// one never packs or unpacks — every IOP moves the bytes between the
/// window and the user buffer the AP lends, whole to be read or in pieces
/// to be written, in one transfer. The audit has teeth: a memtype whose
/// blocks descend cannot be cut into pieces, so its listless read-back is
/// staged too, and unpacked through the memtype: `dt.unpack.calls` sees it.
#[test]
fn noncontig_memtype_does_pack() {
    let strided = Datatype::vector(64, 8, 16, &Datatype::byte()).unwrap();
    let descending = Datatype::hindexed(&[256, 256], &[300, 0], &Datatype::byte()).unwrap();
    for (hints, mem) in [
        (Hints::list_based(), &strided),
        (Hints::listless(), &strided),
        (Hints::listless(), &descending),
    ] {
        let shared = SharedFile::new(common::staged(MemFile::new()));
        let snap = counted(|| {
            World::run(2, |comm| {
                let me = comm.rank() as u64;
                let span = mem.extent() as usize;
                let user = pattern(span, me + 1);
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), Datatype::byte()).unwrap();
                f.write_at_all((1 - me) * 512, &user, 1, mem).unwrap();
                let mut back = vec![0u8; span];
                f.read_at_all((1 - me) * 512, &mut back, 1, mem).unwrap();
            });
            lio_obs::snapshot()
        });
        let in_order = mem.is_monotone();
        let what = format!("{:?}, in order: {in_order}", hints.engine);
        let (packed, unpacked) = match hints.engine {
            Engine::ListBased => (true, true),
            Engine::Listless => (false, !in_order),
        };
        let got = |name| snap.counter(name) > 0;
        assert_eq!(got("dt.pack.calls"), packed, "{what}: a write packed");
        assert_eq!(got("dt.unpack.calls"), unpacked, "{what}: a read unpacked");
    }
}

/// A layout an IOP decoded is kept: the memtype a rank lends in every
/// write and every read is decoded, and its run program compiled, by the
/// file's first write and first read and never again.
#[test]
fn a_lent_memtype_compiles_once() {
    let shared = SharedFile::new(MemFile::new());
    let compiled = counted(|| {
        World::run(2, move |comm| {
            let me = comm.rank() as u64;
            let mem = Datatype::vector(64, 8, 16, &Datatype::byte()).unwrap();
            let user = pattern(mem.extent() as usize, me + 1);
            let mut back = vec![0u8; user.len()];
            let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
            f.set_view(0, Datatype::byte(), Datatype::byte()).unwrap();
            let mut programs = Vec::new();
            for op in 0..4 {
                let at = (1 - me) * 512 + op * 1024;
                f.write_at_all(at, &user, 1, &mem).unwrap();
                f.read_at_all(at, &mut back, 1, &mem).unwrap();
                comm.barrier();
                programs.push(lio_obs::snapshot().counter("dt.compile.programs"));
                comm.barrier();
            }
            programs
        })
    });
    assert!(compiled[0][0] > 0, "the first ops compile");
    assert!(
        compiled.iter().all(|p| p.iter().all(|&n| n == p[0])),
        "a later write or read compiled: {compiled:?}"
    );
}
