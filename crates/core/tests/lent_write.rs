//! The lent collective write, differentially. A listless `write_at_all`
//! sends each io-process (IOP) only where an access-process's (AP's) bytes
//! lie — its stream interval, `stream_start` and memtype — and the IOP
//! reads them from the user buffer the AP lends for the op
//! (`lio_mpi::Comm::lend`), through that memtype, straight into the window.
//! So every AP's memory layout meets every IOP's window loop: each case
//! gives the ranks different memtypes (contiguous, strided, a ghost-padded
//! subarray) and different counts, one rank often none, over a file that
//! ends in the middle of a window, and must leave exactly the file the
//! naive reference writes — the same on a lending `MemFile`, the mapped
//! `UnixFile`, `staged(MemFile)`, the `LIO_BACKEND`/`LIO_FAULT_SEED` stack
//! (`on_each_storage`, communication faults armed) and slow staging
//! storage whose IOPs write behind their loops. Both engines run every case;
//! the list-based one ships its bytes in messages and is the control.
//!
//! Then the failure path: an IOP whose storage fails still reaches the
//! closing barrier — the end of the lending scope — and so does everyone
//! else, with nothing left in flight.

mod common;

use common::{
    apply_comm_faults, figure4_of_blocks, image_of, lost_from, on_each_storage, pattern,
    reference_stream, reference_write, slow_staged,
};
use lio_core::{File, Hints, SharedFile};
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
}

const MEMS: [Mem; 3] = [Mem::Contiguous, Mem::Strided, Mem::Ghosted];

impl Mem {
    fn memtype(self) -> Datatype {
        let point = Datatype::basic(POINT);
        match self {
            Mem::Contiguous => Datatype::contiguous(12, &point).unwrap(),
            Mem::Strided => Datatype::vector(12, 1, 2, &point).unwrap(),
            Mem::Ghosted => {
                Datatype::subarray(&[4, 4, 5], &[2, 2, 3], &[1, 1, 1], Order::C, &point).unwrap()
            }
        }
    }
}

/// What one rank writes: its memtype, its count and its user buffer.
struct Access {
    memtype: Datatype,
    count: u64,
    user: Vec<u8>,
}

impl Access {
    fn new(mem: Mem, count: u64, seed: u64) -> Access {
        let memtype = mem.memtype();
        let user = pattern((memtype.extent() * count.max(1)) as usize, seed);
        Access {
            memtype,
            count,
            user,
        }
    }

    fn bytes(&self) -> u64 {
        self.count * INSTANCE
    }
}

/// One case: `p` ranks, rank `r` holding its stream as `mems[r]`, writing
/// `counts[r]` instances through the Figure-4 view of rank `r`.
struct Case {
    p: usize,
    mems: Vec<Mem>,
    counts: Vec<u64>,
}

impl Case {
    fn what(&self, hints: &Hints) -> String {
        format!(
            "{:?} p={} iops={} {:?} counts={:?}",
            hints.engine,
            self.p,
            hints.effective_io_nodes(self.p),
            self.mems,
            self.counts
        )
    }

    fn access(&self, rank: usize) -> Access {
        Access::new(self.mems[rank], self.counts[rank], rank as u64 + 1)
    }

    fn view(&self, rank: usize) -> Datatype {
        figure4_of_blocks(rank as u64, self.p as u64, NBLOCK, SBLOCK)
    }

    /// A file that ends halfway through the data, inside a window.
    fn initial(&self) -> Vec<u8> {
        let most = self.counts.iter().max().copied().unwrap_or(0) * INSTANCE;
        let end = DISP + most * self.p as u64 / 2 + 333;
        assert!(
            !(end as usize).is_multiple_of(CB),
            "the file ends inside a window"
        );
        vec![0xEE; end as usize]
    }

    /// What the naive reference leaves.
    fn reference(&self) -> Vec<u8> {
        let mut want = self.initial();
        for rank in 0..self.p {
            let a = self.access(rank);
            if a.count > 0 {
                let stream = reference_stream(&a.user, &a.memtype, a.count);
                reference_write(&mut want, DISP, &self.view(rank), 0, &stream);
            }
        }
        want
    }

    /// Every rank writes its access collectively over `shared`.
    fn write(&self, comm: &lio_mpi::Comm, shared: &SharedFile, hints: Hints) {
        let me = comm.rank();
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(DISP, Datatype::byte(), self.view(me)).unwrap();
        let a = self.access(me);
        let n = f.write_at_all(0, &a.user, a.count, &a.memtype).unwrap();
        assert_eq!(n, a.bytes());
    }
}

/// P ∈ {2, 3, 4}, every rotation of the three memory layouts over the
/// ranks, counts that differ from rank to rank (so the ranks' data ends in
/// different windows and some windows are only partly written), and in
/// two of the three rotations one rank that writes nothing.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for p in 2..=4usize {
        for shift in 0..3 {
            let mems = (0..p).map(|r| MEMS[(r + shift) % 3]).collect();
            let mut counts: Vec<u64> = (0..p)
                .map(|r| 20 + 9 * ((r * 5 + shift * 3) % 7) as u64)
                .collect();
            if shift > 0 {
                counts[shift % p] = 0;
            }
            cases.push(Case { p, mems, counts });
        }
    }
    cases
}

fn engines(p: usize) -> [Hints; 3] {
    [
        Hints::listless().cb_buffer(CB),
        Hints::listless().cb_buffer(CB).io_nodes(p - 1),
        Hints::list_based().cb_buffer(CB),
    ]
}

#[test]
fn every_memory_layout_meets_every_window_on_every_storage() {
    for case in cases() {
        let want = case.reference();
        for hints in engines(case.p) {
            let what = case.what(&hints);
            let (image, _) =
                on_each_storage(&what, &case.initial(), case.p as u64, |comm, shared| {
                    case.write(comm, &shared, hints)
                });
            assert!(image == want, "{what}: file differs from the reference");
        }
    }
}

/// The same cases on slow staging storage: each IOP's first window is
/// written inline and arms its write-behind lane, the rest are written
/// behind the loop — while the loop reads from the buffers the APs lent.
#[test]
fn the_write_behind_lane_places_from_lent_buffers() {
    lio_obs::set_enabled(true);
    let behind = || lio_obs::snapshot().counter("io.behind_bytes");
    let before = behind();
    for case in cases() {
        let want = case.reference();
        for hints in engines(case.p) {
            let what = case.what(&hints);
            let (shared, raw) = slow_staged(case.initial());
            World::run(case.p, |comm| {
                apply_comm_faults(comm);
                case.write(comm, &shared, hints)
            });
            assert!(
                raw.snapshot() == want,
                "{what}: file differs from the reference"
            );
        }
    }
    assert!(behind() > before, "no lane wrote behind its loop");
}

/// The last IOP's storage fails: it reports the fault, every other rank
/// returns normally, all of them from the closing barrier with nothing in
/// flight, and the domains before the failed one hold the reference's
/// bytes — whether the IOP's lend of the failed window fails or, staged,
/// its requests. The world goes on: a second write, on storage that works,
/// lands exactly.
#[test]
fn a_failed_iop_still_reaches_the_closing_barrier() {
    let case = Case {
        p: 3,
        mems: MEMS.to_vec(),
        counts: vec![60, 35, 60],
    };
    let want = case.reference();
    let from = want.len() as u64 * 3 / 4;
    for (hints, lending) in [Hints::listless(), Hints::list_based()]
        .into_iter()
        .flat_map(|h| [(h.cb_buffer(CB), true), (h.cb_buffer(CB), false)])
    {
        let what = format!("{}, lending {lending}", case.what(&hints));
        let failing = lost_from(case.initial(), from, lending);
        let healthy = SharedFile::new(MemFile::with_data(case.initial()));
        let outcomes = World::run(case.p, |comm| {
            let me = comm.rank();
            let mut f = File::open(comm, failing.clone(), hints).unwrap();
            f.set_view(DISP, Datatype::byte(), case.view(me)).unwrap();
            let a = case.access(me);
            let res = f.write_at_all(0, &a.user, a.count, &a.memtype);
            comm.barrier();
            assert_eq!(
                comm.stashed_msgs(),
                0,
                "{what}: a message of the failed op is left"
            );
            case.write(comm, &healthy, hints);
            res.is_ok()
        });
        assert_eq!(
            outcomes,
            [true, true, false],
            "{what}: only the last IOP fails"
        );
        let got = image_of(&failing);
        let upto = (from as usize / CB) * CB;
        assert!(
            got[..upto] == want[..upto],
            "{what}: the healthy domains differ from the reference"
        );
        assert!(image_of(&healthy) == want, "{what}: the next write differs");
    }
}
