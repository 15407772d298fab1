//! Zero-copy audit: a *contiguous* memtype must never route through the
//! datatype pack machinery. The two-phase exchange lifts the bytes
//! straight out of the user buffer, so `dt.pack.calls` / `dt.unpack.calls`
//! stay at zero for the whole collective — any regression that
//! reintroduces a pack on this path trips the counters. The audit runs
//! on a `MemFile` (whose listless read-back is routed: each rank's own
//! placement) and on staging storage (two-phase both ways).
//!
//! Runs as its own test binary so the process-global counters reflect
//! exactly the collectives issued here.

mod common;

use common::pattern;
use lio_core::{File, Hints, SharedFile};
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

/// Serialize the two tests and hand back what `f` counted: the `lio_obs`
/// registry is process-global, so a pack counted by one test would show
/// up in the other's snapshot.
fn counted(f: impl FnOnce()) -> lio_obs::Snapshot {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    lio_obs::reset();
    lio_obs::set_enabled(true);
    f();
    lio_obs::set_enabled(false);
    lio_obs::snapshot()
}

#[test]
fn contiguous_memtype_never_packs() {
    let snap = counted(|| {
        let hints = Hints::listless().cb_buffer(8192);
        run_collective(hints, SharedFile::new(MemFile::new()));
        run_collective(hints, SharedFile::new(common::Staged(MemFile::new())));
    });
    assert_eq!(
        (
            snap.counter("core.coll.read.calls"),
            snap.counter("core.coll.read.routed")
        ),
        (2 * NPROCS as u64, NPROCS as u64),
        "one read-back of each kind"
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

/// Sanity check the audit has teeth: a genuinely non-contiguous memtype
/// on the same collective *does* drive the pack counters — for the bytes
/// that change ranks, so each rank writes into the other's file domain
/// (what stays on its rank goes from the user buffer to the window in one
/// transfer, which is no pack).
#[test]
fn noncontig_memtype_does_pack() {
    let shared = SharedFile::new(MemFile::new());
    let snap = counted(|| {
        World::run(2, move |comm| {
            let me = comm.rank() as u64;
            let mem = Datatype::vector(64, 8, 16, &Datatype::byte()).unwrap();
            let span = mem.extent() as usize;
            let user = pattern(span, me + 1);
            let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
            f.set_view(0, Datatype::byte(), Datatype::byte()).unwrap();
            f.write_at_all((1 - me) * 512, &user, 1, &mem).unwrap();
        });
    });
    assert!(
        snap.counter("dt.pack.calls") > 0,
        "non-contiguous memtype should exercise the pack path"
    );
}
