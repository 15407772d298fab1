//! The lent collective read, differentially. A listless `read_at_all` has
//! every access-process (AP) cut its user buffer into one piece per file
//! domain — the bytes its share of that domain occupies — and lend piece
//! `i` to io-process (IOP) `i` alone (`lio_mpi::Comm::lend_mut`); the IOP
//! reads each file byte of its domain once and fills every AP's piece
//! through that AP's memtype, found through the layout its header carries.
//! So every AP's memory layout meets every IOP's window loop: each case
//! gives the ranks different memtypes (contiguous, strided, a ghost-padded
//! subarray, and blocks in descending order — which cannot be cut into
//! pieces, so that AP lends the pieces of a staging buffer and unpacks
//! them once the scope has closed) and different
//! counts, one rank often none and one handle often in atomic mode, over a
//! file that ends in the middle of a window. Every rank's buffer must be
//! what the naive typemap reference leaves, its gap bytes untouched — the
//! same on a lending `MemFile`, the mapped `UnixFile`, `staged(MemFile)`,
//! the `LIO_BACKEND`/`LIO_FAULT_SEED` stack (`on_each_storage`,
//! communication faults armed) and a throttled `MemFile`. Both engines run
//! every case; the list-based one, whose every AP stages, is the control.
//!
//! Then the degenerate accesses, and the failure path: an IOP whose storage
//! fails zero-fills the rest of every AP's piece, staged or not, and still
//! reaches the closing barrier — the end of the lending scope — and so does
//! everyone else, with nothing left in flight.

mod common;

use common::{
    apply_comm_faults, figure4_of_blocks, lost_from, on_each_storage, pattern, reference_read,
    slow_staged, staged,
};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::typemap::reference_unpack;
use lio_datatype::{Datatype, Order};
use lio_mpi::World;
use lio_pfs::MemFile;

/// Bytes of every run of every memtype: the naive reference walks runs.
const POINT: u32 = 8;
/// Data bytes of one instance of every memtype.
const INSTANCE: u64 = 12 * POINT as u64;
/// The views' block: not a multiple of `POINT`, so the memtypes' runs and
/// the file's blocks cut each other.
const SBLOCK: u64 = 20;
const NBLOCK: u64 = 6;
/// The collective window: not a multiple of a view's extent either.
const CB: usize = 1000;
/// Where the views start: off every grid.
const DISP: u64 = 13;

/// How a rank holds its stream.
#[derive(Clone, Copy, Debug)]
enum Mem {
    /// One run per instance: the IOP gets a base offset, no memtype.
    Contiguous,
    /// Points at stride two.
    Strided,
    /// The interior of a 3-D block with a ghost layer all round, as BTIO's.
    Ghosted,
    /// Three blocks of four points, last block first, with gaps between:
    /// not in stream order, so it lends no pieces.
    Descending,
}

const MEMS: [Mem; 4] = [Mem::Contiguous, Mem::Strided, Mem::Ghosted, Mem::Descending];

impl Mem {
    fn memtype(self) -> Datatype {
        let point = Datatype::basic(POINT);
        match self {
            Mem::Contiguous => Datatype::contiguous(12, &point).unwrap(),
            Mem::Strided => Datatype::vector(12, 1, 2, &point).unwrap(),
            Mem::Ghosted => {
                Datatype::subarray(&[4, 4, 5], &[2, 2, 3], &[1, 1, 1], Order::C, &point).unwrap()
            }
            Mem::Descending => Datatype::hindexed(&[4, 4, 4], &[80, 40, 0], &point).unwrap(),
        }
    }
}

/// What one rank reads: its memtype, its count, its user buffer as it is
/// before the read (gaps included), and whether its handle is atomic.
struct Access {
    memtype: Datatype,
    count: u64,
    user: Vec<u8>,
    atomic: bool,
}

impl Access {
    fn bytes(&self) -> u64 {
        self.count * INSTANCE
    }

    /// What the naive reference leaves in the user buffer after a read of
    /// the view `view` of `image`.
    fn expected(&self, image: &[u8], view: &Datatype) -> Vec<u8> {
        let stream = reference_read(image, DISP, view, 0, self.bytes());
        let mut want = self.user.clone();
        reference_unpack(&stream, &mut want, &self.memtype, self.count);
        want
    }
}

/// One case: `p` ranks, rank `r` holding its stream as `mems[r]`, reading
/// `counts[r]` instances through the Figure-4 view of rank `r`; the handle
/// of rank `atomic`, if any, is in atomic mode.
struct Case {
    p: usize,
    mems: Vec<Mem>,
    counts: Vec<u64>,
    atomic: Option<usize>,
}

impl Case {
    fn what(&self, hints: &Hints) -> String {
        format!(
            "{:?} p={} iops={} {:?} counts={:?} atomic={:?}",
            hints.engine,
            self.p,
            hints.effective_io_nodes(self.p),
            self.mems,
            self.counts,
            self.atomic
        )
    }

    fn access(&self, rank: usize) -> Access {
        let memtype = self.mems[rank].memtype();
        let count = self.counts[rank];
        let user = pattern((memtype.extent() * count.max(1)) as usize, rank as u64 + 1);
        Access {
            memtype,
            count,
            user,
            atomic: self.atomic == Some(rank),
        }
    }

    fn view(&self, rank: usize) -> Datatype {
        figure4_of_blocks(rank as u64, self.p as u64, NBLOCK, SBLOCK)
    }

    /// A file that ends halfway through the data, inside a window.
    fn image(&self) -> Vec<u8> {
        let most = self.counts.iter().max().copied().unwrap_or(0) * INSTANCE;
        let end = DISP + most * self.p as u64 / 2 + 333;
        assert!(
            !(end as usize).is_multiple_of(CB),
            "the file ends inside a window"
        );
        pattern(end as usize, 99)
    }

    /// What the naive reference leaves in every rank's buffer.
    fn expected(&self, image: &[u8]) -> Vec<Vec<u8>> {
        (0..self.p)
            .map(|r| self.access(r).expected(image, &self.view(r)))
            .collect()
    }

    /// Every rank reads its access collectively from `shared`; returns
    /// whether the read succeeded, and the user buffer.
    fn try_read(&self, comm: &lio_mpi::Comm, shared: &SharedFile, hints: Hints) -> (bool, Vec<u8>) {
        let me = comm.rank();
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(DISP, Datatype::byte(), self.view(me)).unwrap();
        let mut a = self.access(me);
        f.set_atomicity(a.atomic);
        let res = f.read_at_all(0, &mut a.user, a.count, &a.memtype);
        if let Ok(n) = res {
            assert_eq!(n, a.bytes());
        }
        (res.is_ok(), a.user)
    }

    /// [`Case::try_read`], which must succeed.
    fn read(&self, comm: &lio_mpi::Comm, shared: &SharedFile, hints: Hints) -> Vec<u8> {
        let (ok, user) = self.try_read(comm, shared, hints);
        assert!(ok, "{}: the read failed", self.what(&hints));
        user
    }
}

/// P ∈ {2, 3, 4}, every rotation of the four memory layouts over the
/// ranks, counts that differ from rank to rank (so the ranks' data ends in
/// different windows and some windows hold only part of the views), in
/// three of the four rotations one rank that reads nothing, and in two one
/// handle in atomic mode.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for p in 2..=4usize {
        for shift in 0..4 {
            let mems = (0..p).map(|r| MEMS[(r + shift) % 4]).collect();
            let mut counts: Vec<u64> = (0..p)
                .map(|r| 20 + 9 * ((r * 5 + shift * 3) % 7) as u64)
                .collect();
            if shift > 0 {
                counts[shift % p] = 0;
            }
            let atomic = (shift % 2 == 1).then_some((shift + 1) % p);
            cases.push(Case {
                p,
                mems,
                counts,
                atomic,
            });
        }
    }
    cases
}

fn engines() -> [Hints; 3] {
    [
        Hints::listless().cb_buffer(CB),
        Hints::listless().cb_buffer(CB).io_nodes(1),
        Hints::list_based().cb_buffer(CB),
    ]
}

#[test]
fn every_memory_layout_meets_every_window_on_every_storage() {
    for case in cases() {
        let image = case.image();
        let want = case.expected(&image);
        for hints in engines() {
            let what = case.what(&hints);
            let (after, got) = on_each_storage(&what, &image, case.p as u64, |comm, shared| {
                case.read(comm, &shared, hints)
            });
            assert!(after == image, "{what}: a read changed the file");
            for (rank, (got, want)) in got.iter().zip(&want).enumerate() {
                assert!(
                    got == want,
                    "{what}: rank {rank} differs from the reference"
                );
            }
        }
    }
}

/// The same cases on a throttled `MemFile`: every window is a timed request.
#[test]
fn a_throttled_file_reads_the_same() {
    for case in cases() {
        let image = case.image();
        let want = case.expected(&image);
        for hints in engines() {
            let what = case.what(&hints);
            let (shared, _) = slow_staged(image.clone());
            let got = World::run(case.p, |comm| {
                apply_comm_faults(comm);
                case.read(comm, &shared, hints)
            });
            assert!(got == want, "{what}: a rank differs from the reference");
        }
    }
}

/// What one rank reads in the degenerate cases: `total` bytes from stream
/// byte `skip` of the view `(disp, filetype)`, into a buffer that is the
/// stream.
struct Raw {
    disp: u64,
    filetype: Datatype,
    skip: u64,
    total: u64,
}

impl Raw {
    fn new(disp: u64, filetype: Datatype, total: u64) -> Raw {
        Raw {
            disp,
            filetype,
            skip: 0,
            total,
        }
    }
}

/// A rank with nothing to read, every rank with nothing to read, one rank
/// alone, views that differ in everything, a contiguous view, an access
/// that starts inside the view and ends past end-of-file: on the lending
/// file and on the same bytes behind `Staged`, each rank gets the
/// reference's bytes.
#[test]
fn degenerate_accesses_read_like_any_other() {
    const NBLOCK: u64 = 96;
    const SBLOCK: u64 = 1000;
    let image = pattern(3 * 2 * (NBLOCK * SBLOCK) as usize, 5);
    let fig4 = |r, p| figure4_of_blocks(r, p, NBLOCK, SBLOCK);
    let full = NBLOCK * SBLOCK;
    let cases: Vec<(&str, Vec<Raw>)> = vec![
        (
            "one rank reads nothing",
            vec![
                Raw::new(0, fig4(0, 3), full),
                Raw::new(0, fig4(1, 3), 0),
                Raw::new(0, fig4(2, 3), full),
            ],
        ),
        (
            "nobody reads anything",
            vec![Raw::new(0, fig4(0, 2), 0), Raw::new(0, fig4(1, 2), 0)],
        ),
        ("one rank alone", vec![Raw::new(11, fig4(1, 2), full)]),
        (
            "different views and displacements",
            vec![
                Raw::new(3, fig4(0, 2), full),
                Raw::new(
                    100_001,
                    Datatype::vector(50, 3, 7, &Datatype::basic(16)).unwrap(),
                    2400,
                ),
                Raw::new(0, Datatype::byte(), 70_000),
            ],
        ),
        (
            "a contiguous view",
            (0..3)
                .map(|r| Raw {
                    skip: r * 150_000 + 5,
                    ..Raw::new(9, Datatype::byte(), 150_000)
                })
                .collect(),
        ),
        (
            "from inside the view to past end-of-file",
            (0..2)
                .map(|r| Raw {
                    skip: full / 2 + 13,
                    ..Raw::new(image.len() as u64 - 3 * full, fig4(r, 2), full)
                })
                .collect(),
        ),
    ];
    for (what, accesses) in &cases {
        for hints in [Hints::listless(), Hints::list_based()] {
            let lending = SharedFile::new(MemFile::with_data(image.clone()));
            let staged = SharedFile::new(staged(MemFile::with_data(image.clone())));
            for shared in [lending, staged] {
                let got = World::run(accesses.len(), |comm| {
                    let a = &accesses[comm.rank()];
                    let mut f = File::open(comm, shared.clone(), hints).unwrap();
                    f.set_view(a.disp, Datatype::byte(), a.filetype.clone())
                        .unwrap();
                    let mut back = vec![0x5Au8; a.total as usize];
                    let n = f
                        .read_at_all(a.skip, &mut back, a.total, &Datatype::byte())
                        .unwrap();
                    assert_eq!(n, a.total);
                    back
                });
                for (rank, (back, a)) in got.iter().zip(accesses).enumerate() {
                    let want = reference_read(&image, a.disp, &a.filetype, a.skip, a.total);
                    assert!(
                        *back == want,
                        "{what} {:?}: rank {rank} differs from the reference",
                        hints.engine
                    );
                }
            }
        }
    }
}

/// The last IOP's storage fails in its last window: it reports the fault,
/// every other rank returns normally, all of them from the closing barrier
/// with nothing in flight. Every rank's buffer holds the reference's bytes
/// up to that window and zeros from there — in the pieces of their user
/// buffers the ranks lend and in the staging pieces of the one that
/// cannot lend them — and its gap bytes untouched, whether the IOP's lend
/// of the window fails or, staged, its read. The world goes on: a second
/// read, on storage that works, lands exactly.
#[test]
fn a_failed_iop_zero_fills_every_piece_and_reaches_the_barrier() {
    let case = Case {
        p: 3,
        mems: vec![Mem::Strided, Mem::Descending, Mem::Ghosted],
        counts: vec![60, 35, 60],
        atomic: None,
    };
    // a file past the data, so that a zero is no end-of-file
    let hi = DISP + 3 * 60 * INSTANCE;
    let image = pattern(hi as usize + 333, 7);
    let from = hi - 100;
    let mut dead = image.clone();
    dead[(from as usize / CB) * CB..].fill(0);
    let (want, want_dead) = (case.expected(&image), case.expected(&dead));
    assert!(want != want_dead, "the failure loses some rank's bytes");
    for (hints, lending) in [Hints::listless(), Hints::list_based()]
        .into_iter()
        .flat_map(|h| [(h.cb_buffer(CB), true), (h.cb_buffer(CB), false)])
    {
        let what = format!("{}, lending {lending}", case.what(&hints));
        let failing = lost_from(image.clone(), from, lending);
        let healthy = SharedFile::new(MemFile::with_data(image.clone()));
        let outcomes = World::run(case.p, |comm| {
            let (ok, got) = case.try_read(comm, &failing, hints);
            comm.barrier();
            assert_eq!(
                comm.stashed_msgs(),
                0,
                "{what}: a message of the failed op is left"
            );
            (ok, got, case.read(comm, &healthy, hints))
        });
        let ok: Vec<bool> = outcomes.iter().map(|o| o.0).collect();
        assert_eq!(ok, [true, true, false], "{what}: only the last IOP fails");
        for (rank, (_, got, again)) in outcomes.iter().enumerate() {
            assert!(
                *got == want_dead[rank],
                "{what}: rank {rank} differs from the zero-filled reference"
            );
            assert!(
                *again == want[rank],
                "{what}: rank {rank}'s next read differs"
            );
        }
    }
}
