//! In place ≡ staged: a storage that lends its bytes (`MemFile`) and one
//! that does not must leave the same file and return the same data, and
//! both must match the naive typemap reference.
//!
//! Every scenario runs four times — on an `Arc<MemFile>` behind
//! `SharedFile` (in place: the window loops work on the stripes), on
//! [`Staged`]`(MemFile)` (every window through a scratch buffer and
//! `read_at`/`write_at`), on `OsFile::temp()` (a real file: the windows
//! inside it are lent through its mapping, those past its end staged),
//! and on the stack `LIO_BACKEND`/`LIO_FAULT_SEED` select — across both
//! engines, window sizes on either side of the 256 KiB stripe,
//! displacements that put the data anywhere relative to the window grid
//! and the stripe seams, files that end before, inside and after the
//! access, partial participation, and atomic mode.

mod common;

use common::{
    figure4_of_blocks, image_of, on_each_storage, pattern, reference_read, reference_stream,
    reference_write,
};
use lio_core::hints::DEFAULT_WINDOW;
use lio_core::{File, Hints, SievingMode};
use lio_datatype::Datatype;

/// The stripe of `MemFile` and of a real file's mapping: where a lent
/// window is cut into pieces.
const STRIPE: u64 = 256 * 1024;

/// Where the data lies: `p` ranks share the Figure-4 view at `disp`,
/// `nblock` blocks of `sblock` bytes each.
#[derive(Clone, Copy, Debug)]
struct Geo {
    p: u64,
    disp: u64,
    nblock: u64,
    sblock: u64,
    window: usize,
}

impl Geo {
    fn filetype(&self, rank: u64) -> Datatype {
        figure4_of_blocks(rank, self.p, self.nblock, self.sblock)
    }
    /// Bytes in one rank's view instance.
    fn total(&self) -> u64 {
        self.nblock * self.sblock
    }
    fn end(&self) -> u64 {
        self.disp + self.p * self.total()
    }
    /// What each rank writes (generated once per geometry: in a debug
    /// build the generator is the slowest thing in this file).
    fn data(&self) -> Vec<Vec<u8>> {
        (0..self.p)
            .map(|rank| pattern(self.total() as usize, 31 * self.disp + rank + 1))
            .collect()
    }
    fn hints(&self, engine: Hints) -> Hints {
        engine.cb_buffer(self.window).ind_buffer(self.window)
    }
}

/// Window sizes × displacements. The large windows get 640 kB of data
/// (two and a half stripes); the 96 B window gets 8 kB laid across the
/// first stripe seam, well past the end of an empty file.
fn geometries(p: u64) -> Vec<Geo> {
    let mut out = Vec::new();
    for window in [
        DEFAULT_WINDOW,
        DEFAULT_WINDOW + 1,
        DEFAULT_WINDOW - 1,
        96,
        384 * 1024,
    ] {
        for disp in [0, 1, 4095, 4097, window as u64 - 1] {
            out.push(if window == 96 {
                Geo {
                    p,
                    disp: STRIPE - 4000 + disp,
                    nblock: 80 / p,
                    sblock: 100,
                    window,
                }
            } else {
                Geo {
                    p,
                    disp,
                    nblock: 640 / p,
                    sblock: 1000,
                    window,
                }
            });
        }
    }
    out
}

fn engines() -> [Hints; 2] {
    [Hints::list_based(), Hints::listless()]
}

/// How the ranks of one scenario access the file.
#[derive(Clone, Copy, Debug)]
enum Access {
    Collective,
    /// All at the same time, each on its own; with atomic mode on or off.
    Independent {
        atomic: bool,
    },
}

/// Every rank writes `counts[rank]` bytes of its view over a file holding
/// `initial`, reads its whole view back, and — after the file is cut to
/// `cut` bytes — reads it again across the new end.
#[allow(clippy::too_many_arguments)]
fn check_access(
    what: &str,
    geo: Geo,
    hints: Hints,
    access: Access,
    data: &[Vec<u8>],
    initial: &[u8],
    counts: &[u64],
    cut: u64,
) {
    let byte = Datatype::byte();
    let read = |f: &File, buf: &mut [u8]| match access {
        Access::Collective => f.read_at_all(0, buf, geo.total(), &byte),
        Access::Independent { .. } => f.read_at(0, buf, geo.total(), &byte),
    };
    let (image, backs) = on_each_storage(what, initial, geo.p, |comm, shared| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(geo.disp, Datatype::byte(), geo.filetype(me))
            .unwrap();
        let count = counts[me as usize];
        let mine = &data[me as usize][..count as usize];
        let n = match access {
            Access::Collective => f.write_at_all(0, mine, count, &byte),
            Access::Independent { atomic } => {
                f.set_atomicity(atomic);
                f.write_at(0, mine, count, &byte)
            }
        };
        assert_eq!(n.unwrap(), count);
        comm.barrier();
        let mut back = vec![0x5Au8; geo.total() as usize];
        read(&f, &mut back).unwrap();
        let full = (me == 0).then(|| image_of(&shared));
        comm.barrier(); // reads do not end in one: nobody is still reading
        f.preallocate(cut).unwrap();
        let mut short = vec![0x5Au8; geo.total() as usize];
        read(&f, &mut short).unwrap();
        (full, back, short)
    });

    let mut want = initial.to_vec();
    for rank in 0..geo.p {
        let count = counts[rank as usize] as usize;
        if count > 0 {
            let placed = &data[rank as usize][..count];
            reference_write(&mut want, geo.disp, &geo.filetype(rank), 0, placed);
        }
    }
    let full = backs[0].0.as_ref().expect("rank 0 took the image");
    assert!(*full == want, "{what}: file differs from the reference");
    want.truncate(cut as usize);
    want.resize(cut as usize, 0);
    assert!(image == want, "{what}: cut file differs from the reference");
    for (rank, (_, back, short)) in backs.iter().enumerate() {
        let ft = geo.filetype(rank as u64);
        let whole = reference_read(full, geo.disp, &ft, 0, geo.total());
        assert!(*back == whole, "{what}: rank {rank} read-back");
        let across = reference_read(&want, geo.disp, &ft, 0, geo.total());
        assert!(*short == across, "{what}: rank {rank} read across EOF");
    }
}

/// A cut inside a block, a window and a stripe of `geo`'s data.
fn cut_inside(geo: Geo) -> u64 {
    geo.disp + (geo.end() - geo.disp) * 3 / 5 + 7
}

fn collective_corpus(p: u64) {
    for engine in engines() {
        for geo in geometries(p) {
            let hints = geo.hints(engine);
            let what = format!("{:?} {geo:?}", hints.engine);
            let data = geo.data();
            let all = vec![geo.total(); p as usize];
            let check = |what: String, initial: &[u8], counts: &[u64]| {
                let cut = cut_inside(geo);
                check_access(
                    &what,
                    geo,
                    hints,
                    Access::Collective,
                    &data,
                    initial,
                    counts,
                    cut,
                );
            };
            // into an empty file: every window dense, the file grows under it
            check(format!("{what} empty"), &[], &all);
            // over a file that ends mid-access; rank 1 writes nothing, or
            // stops half a window in: what it leaves alone must survive
            let short = vec![0xFFu8; (geo.disp + geo.p * geo.total() / 2 + 13) as usize];
            for r1 in [0, (geo.window as u64 / 2).min(geo.total() - 1)] {
                let mut counts = all.clone();
                counts[1] = r1;
                check(format!("{what} r1={r1}"), &short, &counts);
            }
        }
    }
}

#[test]
fn collective_two_ranks() {
    collective_corpus(2);
}

#[test]
fn collective_four_ranks() {
    collective_corpus(4);
}

/// Two ranks write their interleaved views independently and at the same
/// time — staged, every sieve window is a read-modify-write next to the
/// other rank's bytes — then read them back, whole and across a new EOF.
#[test]
fn independent_sieved_direct_and_auto() {
    for engine in engines() {
        for geo in geometries(2) {
            let data = geo.data();
            // the window size is nothing to the direct path, and `Auto`
            // sieves a half-dense view: the default window does for both
            let mut modes = vec![(SievingMode::Sieve, false)];
            if geo.window == DEFAULT_WINDOW || geo.window == 96 {
                modes.push((SievingMode::Sieve, true));
            }
            if geo.window == DEFAULT_WINDOW {
                modes.extend([(SievingMode::Direct, false), (SievingMode::Auto, true)]);
            }
            for (mode, atomic) in modes {
                let hints = geo.hints(engine).sieving_mode(mode);
                let what = format!("{:?} {mode:?} atomic={atomic} {geo:?}", hints.engine);
                // the file ends inside the access
                let initial = vec![0xFFu8; (geo.disp + geo.total() + 13) as usize];
                check_access(
                    &what,
                    geo,
                    hints,
                    Access::Independent { atomic },
                    &data,
                    &initial,
                    &[geo.total(); 2],
                    cut_inside(geo),
                );
            }
        }
    }
}

/// The contiguous-file paths (nc-c write, c-nc read): a strided user
/// buffer packed straight into, and unpacked straight out of, the file.
#[test]
fn contiguous_file_with_strided_memory() {
    const BLOCK: u64 = 1000;
    const NBLOCK: u64 = 330; // 330 kB per rank: across a stripe seam
    let memtype = Datatype::vector(NBLOCK, 1, 2, &Datatype::basic(BLOCK as u32)).unwrap();
    let total = NBLOCK * BLOCK;
    for engine in engines() {
        for disp in [0, 1, 4095, 4097, DEFAULT_WINDOW as u64 - 1] {
            let what = format!("{:?} disp={disp}", engine.engine);
            // the file ends inside rank 0's range: rank 1 starts past EOF
            let initial = vec![0xFFu8; (disp + total / 2) as usize];
            let cut = disp + total + total / 3;
            let user = [0, 1].map(|rank| pattern(memtype.extent() as usize, disp + rank + 7));
            let (image, backs) = on_each_storage(&what, &initial, 2, |comm, shared| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), engine).unwrap();
                f.set_view(disp, Datatype::byte(), Datatype::byte())
                    .unwrap();
                let n = f
                    .write_at(me * total, &user[me as usize], 1, &memtype)
                    .unwrap();
                assert_eq!(n, total);
                comm.barrier();
                let full = (me == 0).then(|| image_of(&shared));
                f.preallocate(cut).unwrap();
                let mut back = vec![0x5Au8; memtype.extent() as usize];
                f.read_at(me * total, &mut back, 1, &memtype).unwrap();
                (full, reference_stream(&back, &memtype, 1))
            });
            let mut want = initial.clone();
            want.resize((disp + 2 * total) as usize, 0);
            for (rank, user) in user.iter().enumerate() {
                let at = disp as usize + rank * total as usize;
                let stream = reference_stream(user, &memtype, 1);
                want[at..at + total as usize].copy_from_slice(&stream);
            }
            let full = backs[0].0.as_ref().expect("rank 0 took the image");
            assert!(*full == want, "{what}: file differs from the reference");
            want.truncate(cut as usize);
            assert!(image == want, "{what}: cut file differs from the reference");
            want.resize((disp + 2 * total) as usize, 0);
            for (rank, (_, back)) in backs.iter().enumerate() {
                let at = disp as usize + rank * total as usize;
                assert!(
                    back[..] == want[at..at + total as usize],
                    "{what}: rank {rank} read across EOF"
                );
            }
        }
    }
}
