//! The list-based engine's list costs (paper §2.4), counted exactly: on
//! the Figure-4 view with a strided memtype, what an independent and a
//! collective write and read-back of the list-based engine flatten
//! (`dt.flatten.{calls,entries,bytes}`), ship between ranks as per-IOP
//! access lists (`core.coll.exchange.list_bytes`), merge to find the
//! windows a collective write covers (`dt.merge.tuples`) and copy in
//! batches of equal short blocks (`dt.cowalk.batched_bytes`) — none on a
//! view of 1280 B tile rows.
//!
//! The numbers are fixed by the shapes: setting the view flattens one
//! filetype instance per rank; every access flattens one instance of its
//! memtype, whatever its count, as ROMIO does; every
//! collective ships the runs each rank has in each other rank's file
//! domain; a collective write merges every list of its domains when a
//! window is staged, and only then. How a list is built may change; these
//! counts may not.
//!
//! Its own test binary with a single test: the counters are process-wide.

mod common;

use common::{figure4_filetype, pattern, staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Order};
use lio_mpi::World;
use lio_pfs::MemFile;

const NBLOCK: u64 = 256;
const SBLOCK: u64 = 8;
/// Memtype instances per access. The strided vector's instances abut, but
/// its list is one instance, tiled: no run spans a seam.
const COUNT: u64 = 3;
/// The tuples of every access list of a collective write: two ranks' 384
/// runs in each of two domains.
const MERGED: u64 = 1_536;

#[derive(Debug, PartialEq)]
struct Lists {
    calls: u64,
    entries: u64,
    bytes: u64,
    /// Access-list bytes that left their rank.
    exchanged: u64,
    /// Tuples the IOPs' coverage merge consumed.
    merged: u64,
    /// Bytes the co-walks copied in batches of equal short blocks.
    batched: u64,
}

/// What one phase of both ranks recorded.
fn lists(before: &lio_obs::Snapshot, after: &lio_obs::Snapshot) -> Lists {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    Lists {
        calls: delta("dt.flatten.calls"),
        entries: delta("dt.flatten.entries"),
        bytes: delta("dt.flatten.bytes"),
        exchanged: delta("core.coll.exchange.list_bytes"),
        merged: delta("dt.merge.tuples"),
        batched: delta("dt.cowalk.batched_bytes"),
    }
}

/// What each rank accesses.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The Figure-4 view with `count` instances of the strided memtype.
    Strided(u64),
    /// 4 × 4 rows of 1280 B of a subarray on both sides, as the
    /// `coll-tile` benchmark's.
    Tile,
}

/// Rank `me`'s filetype, memtype and memtype count.
fn shape(me: u64, shape: Shape) -> (Datatype, Datatype, u64) {
    if let Shape::Strided(count) = shape {
        let memtype = Datatype::vector(NBLOCK, 1, 2, &Datatype::basic(SBLOCK as u32)).unwrap();
        return (figure4_filetype(me, 2, NBLOCK, SBLOCK), memtype, count);
    }
    let point = Datatype::basic(40);
    let sub = |sizes: &[u64], starts: &[u64]| {
        Datatype::subarray(sizes, &[4, 4, 32], starts, Order::C, &point).unwrap()
    };
    (
        sub(&[4, 4, 64], &[0, 0, 32 * me]),
        sub(&[6, 6, 34], &[1, 1, 1]),
        1,
    )
}

/// Set the view, write and read back on `shared`, armed; the counts of
/// each phase.
fn phases(shared: SharedFile, collective: bool, of: Shape) -> Vec<(&'static str, Lists)> {
    let snaps = World::run(2, |comm| {
        let me = comm.rank() as u64;
        let (filetype, memtype, count) = shape(me, of);
        let len = ((count - 1) * memtype.extent()) as usize + memtype.data_ub() as usize;
        let user = pattern(len, me + 1);
        let mut back = vec![0u8; len];
        let mut f = File::open(comm, shared.clone(), Hints::list_based()).unwrap();
        let mut snaps = Vec::new();
        let mut mark = |comm: &lio_mpi::Comm| {
            comm.barrier();
            if me == 0 {
                snaps.push(lio_obs::snapshot());
            }
            comm.barrier();
        };
        comm.barrier();
        if me == 0 {
            lio_obs::reset();
            lio_obs::set_enabled(true);
        }
        mark(comm);
        f.set_view(0, Datatype::byte(), filetype).unwrap();
        mark(comm);
        if collective {
            f.write_at_all(0, &user, count, &memtype).unwrap();
        } else {
            f.write_at(0, &user, count, &memtype).unwrap();
        }
        mark(comm);
        if collective {
            f.read_at_all(0, &mut back, count, &memtype).unwrap();
        } else {
            f.read_at(0, &mut back, count, &memtype).unwrap();
        }
        mark(comm);
        if me == 0 {
            lio_obs::set_enabled(false);
        }
        assert_eq!(
            common::reference_stream(&back, &memtype, count),
            common::reference_stream(&user, &memtype, count),
            "rank {me} reads back what it wrote"
        );
        snaps
    });
    let s = &snaps[0];
    ["set_view", "write", "read"]
        .into_iter()
        .zip(s.windows(2).map(|w| lists(&w[0], &w[1])))
        .collect()
}

/// Exact counts, one per phase: how a list is built must not change what
/// is built, shipped, walked and merged, nor which bytes a batch copies.
#[test]
fn list_based_ops_build_and_ship_the_same_lists() {
    let counts = |calls, entries, bytes, exchanged, merged, batched| Lists {
        calls,
        entries,
        bytes,
        exchanged,
        merged,
        batched,
    };
    let lending = || SharedFile::new(MemFile::new());
    let staged = || SharedFile::new(staged(MemFile::new()));
    // a view: one filetype instance of NBLOCK = 256 blocks per rank, two
    // ranks, 16 B a tuple
    let view = || ("set_view", counts(2, 512, 8_192, 0, 0, 0));
    // an access: one memtype instance of 256 tuples per rank, though each
    // moves COUNT = 3. Its 8 B blocks are copied in batches but for a
    // call's first block, where both cursors stand inside a run; a batch
    // goes on across the memtype's seams, where its tiled list wraps
    let access = |what, exchanged, merged, batched| {
        (what, counts(2, 512, 8_192, exchanged, merged, batched))
    };
    // a sieve: one call a rank, of 2 · COUNT · NBLOCK · SBLOCK = 12 288
    // bytes all but each call's first block: 12 288 − 2·8
    const SIEVED: u64 = 12_272;
    for (storage, shared) in [("lending", lending()), ("staged", staged())] {
        assert_eq!(
            phases(shared, false, Shape::Strided(COUNT)),
            vec![
                view(),
                access("write", 0, 0, SIEVED),
                access("read", 0, 0, SIEVED)
            ],
            "independent, {storage}"
        );
    }
    // a collective copies 1.5 bytes a user byte; a rank's pack (unpack)
    // starts inside a run on both sides and its own walk on the user side,
    // the walk of a message on neither: 18 432 − 2·(8 + 8)
    const COLL: u64 = 18_400;
    // a collective ships each rank's 384 runs in the other rank's domain;
    // on storage that lends every window, nothing is merged
    assert_eq!(
        phases(lending(), true, Shape::Strided(COUNT)),
        vec![
            view(),
            access("write", 12_288, 0, COLL),
            access("read", 12_288, 0, COLL)
        ],
        "collective, lending"
    );
    // staged, each IOP merges the lists of its domain once, its own and
    // the one it received: Σ_p N(p) over both domains, as before the
    // merge waited for a staged window
    assert_eq!(
        phases(staged(), true, Shape::Strided(COUNT)),
        vec![
            view(),
            access("write", 12_288, MERGED, COLL),
            access("read", 12_288, 0, COLL)
        ],
        "collective, staged"
    );
    // one instance is flattened per access, whatever the count: the same
    // entries at COUNT 1 as at COUNT 3, independent and collective
    for collective in [false, true] {
        let entries = |count| {
            let phases = phases(staged(), collective, Shape::Strided(count));
            phases[1..]
                .iter()
                .map(|(_, l)| l.entries)
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(1), [512, 512], "COUNT 1, collective {collective}");
        assert_eq!(entries(1), entries(COUNT), "collective {collective}");
    }
    // tile rows of 1280 B take the piece loop: nothing is batched
    for collective in [false, true] {
        for (what, lists) in phases(staged(), collective, Shape::Tile) {
            assert_eq!(
                lists.batched, 0,
                "tile rows, collective {collective}: {what}"
            );
            assert!(
                lists.calls > 0,
                "tile rows, collective {collective}: {what}"
            );
        }
    }
}
