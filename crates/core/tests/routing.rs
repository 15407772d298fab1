//! Routing of a collective read: where every rank is on the listless
//! engine, not in atomic mode, and was lent the first byte of its access by
//! the storage, `read_at_all` is each rank's own sieved read — no IOP, no
//! message after the opening allgather. Anything else is the two-phase
//! read. The decision is a function of the allgathered answers only, so
//! the world cannot split on it: the cases here make the ranks *answer*
//! differently (a storage that lends only below some offset, one rank in
//! atomic mode) and run under a hard timeout — a split world would hang in
//! a receive. Every read is compared with the naive typemap reference, on
//! the lending file and on the same bytes behind `Staged`.
//!
//! Which way a read went is counted by `core.coll.read.routed` beside
//! `core.coll.read.calls`; the counters are process-wide, so the tests of
//! this binary serialize.

mod common;

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use common::{figure4_of_blocks, pattern, reference_read, Staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::{MemFile, StorageFile};

/// A file that lends its bytes only below `limit`: a range that reaches
/// past it is declined, like one past end-of-file, and staged.
struct LendsBelow {
    inner: MemFile,
    limit: u64,
}

impl StorageFile for LendsBelow {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
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
    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> std::io::Result<bool> {
        if hi > self.limit {
            return Ok(false);
        }
        self.inner.with_range(lo, hi, f)
    }
}

/// What one rank reads: `total` stream bytes from stream byte `skip` of the
/// view `(disp, filetype)`; `atomic` is its handle's mode.
#[derive(Clone)]
struct Access {
    disp: u64,
    filetype: Datatype,
    skip: u64,
    total: u64,
    atomic: bool,
}

impl Access {
    fn new(disp: u64, filetype: Datatype, total: u64) -> Access {
        Access {
            disp,
            filetype,
            skip: 0,
            total,
            atomic: false,
        }
    }
}

/// `(core.coll.read.calls, core.coll.read.routed)` of one collective read
/// of `accesses` (one per rank) on `shared`, whose bytes are `image`; what
/// every rank got is checked against the reference. Panics if the world
/// has not come back after 20 s.
fn read_all(
    what: &str,
    hints: Hints,
    shared: SharedFile,
    image: &[u8],
    accesses: &[Access],
) -> (u64, u64) {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    lio_obs::reset();
    lio_obs::set_enabled(true);
    let (done, world) = mpsc::channel();
    let acc: Arc<[Access]> = accesses.into();
    let nprocs = acc.len();
    std::thread::spawn(move || {
        let backs = World::run(nprocs, |comm| {
            let a = &acc[comm.rank()];
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(a.disp, Datatype::byte(), a.filetype.clone())
                .unwrap();
            f.set_atomicity(a.atomic);
            let mut back = vec![0x5Au8; a.total as usize];
            let n = f
                .read_at_all(a.skip, &mut back, a.total, &Datatype::byte())
                .unwrap();
            assert_eq!(n, a.total);
            back
        });
        let _ = done.send(backs);
    });
    let backs = world
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what}: the world did not come back (split decision?)"));
    lio_obs::set_enabled(false);
    for (rank, (back, a)) in backs.iter().zip(accesses).enumerate() {
        let want = reference_read(image, a.disp, &a.filetype, a.skip, a.total);
        assert!(
            *back == want,
            "{what}: rank {rank} differs from the reference"
        );
    }
    let snap = lio_obs::snapshot();
    (
        snap.counter("core.coll.read.calls"),
        snap.counter("core.coll.read.routed"),
    )
}

/// The same read on a `MemFile` holding `image` and on those bytes behind
/// `Staged`: `(calls, routed)` of each.
fn on_both(what: &str, hints: Hints, image: &[u8], accesses: &[Access]) -> [(u64, u64); 2] {
    let lending = SharedFile::new(MemFile::with_data(image.to_vec()));
    let staged = SharedFile::new(Staged(MemFile::with_data(image.to_vec())));
    [
        read_all(&format!("{what}, lending"), hints, lending, image, accesses),
        read_all(&format!("{what}, staged"), hints, staged, image, accesses),
    ]
}

const NBLOCK: u64 = 96;
const SBLOCK: u64 = 1000;

/// Rank `r` of `p` reads a Figure-4 view of its own over the region
/// `[r·region, (r + 1)·region)`: every rank's range is non-contiguous, and
/// they lie one behind the other.
fn regions(p: u64) -> (u64, Vec<Access>) {
    let region = 2 * NBLOCK * SBLOCK;
    let accesses = (0..p)
        .map(|r| {
            let view = figure4_of_blocks(r % 2, 2, NBLOCK, SBLOCK);
            Access::new(r * region + 7, view, NBLOCK * SBLOCK)
        })
        .collect();
    (region, accesses)
}

/// Some probes say yes and some no: the op completes, two-phase, and every
/// rank gets the reference's bytes.
#[test]
fn a_storage_that_lends_to_some_ranks_only_routes_nobody() {
    for p in [2u64, 4] {
        let (region, accesses) = regions(p);
        let image = pattern((p * region + 7) as usize, 40 + p);
        // the limit cuts the last region (P = 2), the third one (P = 4), or
        // lies inside rank 0's own range: rank 0 is lent its first byte and
        // not its last
        for limit in [(p - 1) * region + region / 3, 2 * region + 9, region / 2] {
            for hints in [
                Hints::listless(),
                Hints::listless().cb_buffer(4096).ind_buffer(4096),
            ] {
                let what = format!("P={p} limit={limit} cb={}", hints.cb_buffer_size);
                let file = LendsBelow {
                    inner: MemFile::with_data(image.clone()),
                    limit,
                };
                let lent = |a: &Access| a.disp < limit;
                let yes = accesses.iter().filter(|a| lent(a)).count() as u64;
                assert!(yes >= 1, "{what}: somebody is lent its first byte");
                let got = read_all(&what, hints, SharedFile::new(file), &image, &accesses);
                let routed = if yes == p { p } else { 0 };
                assert_eq!(got, (p, routed), "{what}: (calls, routed)");
            }
        }
    }
}

/// Interleaved views at different displacements, so that the ranks' ranges
/// overlap and still straddle the limit differently.
#[test]
fn interleaved_ranges_that_straddle_the_limit() {
    let p = 4u64;
    let accesses: Vec<Access> = (0..p)
        .map(|r| {
            let view = figure4_of_blocks(r, p, NBLOCK, SBLOCK);
            Access::new(r * 3000, view, NBLOCK * SBLOCK)
        })
        .collect();
    let image = pattern((p * NBLOCK * SBLOCK + 9000) as usize, 77);
    // rank 3's first byte lies at 9000 + 3000: lent to ranks 0–2 only
    let file = LendsBelow {
        inner: MemFile::with_data(image.clone()),
        limit: 10_000,
    };
    let got = read_all(
        "interleaved",
        Hints::listless(),
        SharedFile::new(file),
        &image,
        &accesses,
    );
    assert_eq!(got, (4, 0));
    let [lending, staged] = on_both("interleaved", Hints::listless(), &image, &accesses);
    assert_eq!((lending, staged), ((4, 4), (4, 0)));
}

/// A rank with nothing to read, every rank with nothing to read, one rank
/// alone, views that differ in everything, a contiguous view, an access
/// that starts inside the view and ends past end-of-file.
#[test]
fn degenerate_accesses_route_like_any_other() {
    let image = pattern(3 * 2 * (NBLOCK * SBLOCK) as usize, 5);
    let fig4 = |r, p| figure4_of_blocks(r, p, NBLOCK, SBLOCK);
    let full = NBLOCK * SBLOCK;
    let cases: Vec<(&str, Vec<Access>)> = vec![
        (
            "one rank reads nothing",
            vec![
                Access::new(0, fig4(0, 3), full),
                Access::new(0, fig4(1, 3), 0),
                Access::new(0, fig4(2, 3), full),
            ],
        ),
        (
            "nobody reads anything",
            vec![Access::new(0, fig4(0, 2), 0), Access::new(0, fig4(1, 2), 0)],
        ),
        ("one rank alone", vec![Access::new(11, fig4(1, 2), full)]),
        (
            "different views and displacements",
            vec![
                Access::new(3, fig4(0, 2), full),
                Access::new(
                    100_001,
                    Datatype::vector(50, 3, 7, &Datatype::basic(16)).unwrap(),
                    2400,
                ),
                Access::new(0, Datatype::byte(), 70_000),
            ],
        ),
        (
            "a contiguous view",
            (0..3)
                .map(|r| Access {
                    skip: r * 150_000 + 5,
                    ..Access::new(9, Datatype::byte(), 150_000)
                })
                .collect(),
        ),
        (
            "from inside the view to past end-of-file",
            (0..2)
                .map(|r| Access {
                    skip: full / 2 + 13,
                    ..Access::new(image.len() as u64 - 3 * full, fig4(r, 2), full)
                })
                .collect(),
        ),
    ];
    for (what, accesses) in &cases {
        let p = accesses.len() as u64;
        let [lending, staged] = on_both(what, Hints::listless(), &image, accesses);
        assert_eq!(lending, (p, p), "{what}: lent to every rank, routed");
        // (ranks that read nothing have nothing to be refused)
        let nobody_reads = accesses.iter().all(|a| a.total == 0);
        let routed = if nobody_reads { p } else { 0 };
        assert_eq!(staged, (p, routed), "{what}: staged, two-phase");
    }
}

/// The list-based engine keeps its file domains, and so does a world in
/// which one rank's handle is in atomic mode — the others are told by the
/// allgather, not by a hint they might not share.
#[test]
fn list_based_and_atomic_reads_stay_two_phase() {
    let (region, accesses) = regions(2);
    let image = pattern((2 * region + 7) as usize, 9);
    let [lending, staged] = on_both("list-based", Hints::list_based(), &image, &accesses);
    assert_eq!((lending, staged), ((2, 0), (2, 0)));
    for who in [0, 1] {
        let mut accesses = accesses.clone();
        accesses[who].atomic = true;
        let what = format!("rank {who} atomic");
        let [lending, _] = on_both(&what, Hints::listless(), &image, &accesses);
        assert_eq!(lending, (2, 0), "{what}");
    }
}
