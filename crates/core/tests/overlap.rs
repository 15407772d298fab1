//! Overlapping fileviews in a collective write: the bytes that no rank's
//! view holds keep the file's content, for both engines, whatever the
//! window size. Two ranks share displacement and extent, so the listless
//! engine builds a mergeview; where their views overlap, its count of view
//! bytes in a window can reach the window's length while the window still
//! has holes, and only a pre-read keeps them. Every rank writes the same
//! byte to each file offset, so the overlap's outcome is defined.
//!
//! The file is a `MemFile` filled with `0xEE` behind `Staged`, which
//! stages every window — the storage that asks the dense-window test —
//! and the environment's storage (`LIO_BACKEND`, `LIO_FAULT_SEED`). A
//! third shape, views that partition the file, must still skip every
//! pre-read on staged storage.

mod common;

use common::{staged_with, test_storage_with, MakeStorage};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::typemap::expand;
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::{Counter, Decorated, MemFile};

const HOLE: u8 = 0xEE;
const RANKS: usize = 2;
const CB_BUFFERS: [usize; 6] = [16, 32, 48, 64, 96, 256];

/// The byte every rank writes at file offset `at`.
fn byte_at(at: u64) -> u8 {
    (at % 251) as u8 + 1
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `vector(n, 8, 16)` of bytes on both ranks.
    Identical,
    /// Rank `r` holds `[4r, 4r + 8)` of every 16 B: `[4, 8)` is both
    /// ranks', `[12, 16)` nobody's.
    Halo,
    /// Rank `r` holds `[8r, 8r + 8)` of every 16 B: disjoint, and together
    /// the whole file.
    Partition,
}

impl Shape {
    /// Rank `r`'s filetype and how many instances of it `n` blocks are.
    fn filetype(self, r: usize, n: u64) -> (Datatype, u64) {
        let cell = |at: i64| {
            let block = Datatype::hindexed(&[8], &[at], &Datatype::byte()).unwrap();
            Datatype::resized(&block, 0, 16).unwrap()
        };
        match self {
            Shape::Identical => (Datatype::vector(n, 8, 16, &Datatype::byte()).unwrap(), 1),
            Shape::Halo => (cell(4 * r as i64), n),
            Shape::Partition => (cell(8 * r as i64), n),
        }
    }
}

/// One collective write of `n` blocks per rank on a file of `0xEE` made by
/// `make`; the file, and which of its bytes some rank's view holds.
fn write_once(make: MakeStorage, shape: Shape, hints: Hints, n: u64) -> (Vec<u8>, Vec<bool>) {
    let len = 16 * n as usize + 32;
    let (shared, snap) = make(vec![HOLE; len]);
    let mut viewed = vec![false; len];
    for r in 0..RANKS {
        let (ft, count) = shape.filetype(r, n);
        for run in expand(&ft, count) {
            let at = run.disp as usize;
            viewed[at..at + run.len as usize].fill(true);
        }
    }
    run_write(&shared, shape, hints, n);
    (snap.snapshot(), viewed)
}

/// Every rank writes its view's bytes, `byte_at` of their offsets.
fn run_write(shared: &SharedFile, shape: Shape, hints: Hints, n: u64) {
    World::run(RANKS, |comm| {
        common::apply_comm_faults(comm);
        let (ft, count) = shape.filetype(comm.rank(), n);
        let user: Vec<u8> = (expand(&ft, count).into_iter())
            .flat_map(|run| (0..run.len).map(move |i| byte_at(run.disp as u64 + i)))
            .collect();
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(0, Datatype::byte(), ft).unwrap();
        let bytes = Datatype::contiguous(user.len() as u64, &Datatype::byte()).unwrap();
        f.write_at_all(0, &user, 1, &bytes).unwrap();
    });
}

fn hints(list_based: bool, cb: usize) -> Hints {
    let mut h = match list_based {
        true => Hints::list_based(),
        false => Hints::listless(),
    };
    h.cb_buffer_size = cb;
    h
}

/// Both probe shapes, both engines, every window size and 1..80 blocks:
/// no byte outside every view is written, and every viewed byte is.
#[test]
fn bytes_in_no_view_keep_the_file() {
    for shape in [Shape::Identical, Shape::Halo] {
        for list_based in [false, true] {
            for cb in CB_BUFFERS {
                for n in 1..80 {
                    let h = hints(list_based, cb);
                    for make in [staged_with, test_storage_with] {
                        let (file, viewed) = write_once(make, shape, h, n);
                        let ctx = format!("{shape:?} list_based={list_based} cb={cb} n={n}");
                        for (at, (&got, &mine)) in file.iter().zip(&viewed).enumerate() {
                            let want = if mine { byte_at(at as u64) } else { HOLE };
                            assert_eq!(got, want, "{ctx}: byte {at}");
                        }
                    }
                }
            }
        }
    }
}

/// Views that partition the file fill every window of a collective write
/// that every rank joins: staged storage reads nothing, for both engines.
#[test]
fn disjoint_views_still_skip_the_pre_read() {
    for list_based in [false, true] {
        for cb in CB_BUFFERS {
            for n in [1, 7, 64] {
                let len = 16 * n as usize;
                let counting = std::sync::Arc::new(Decorated::new(
                    MemFile::with_data(vec![HOLE; len]),
                    Counter::default(),
                ));
                let shared = SharedFile::from_arc(counting.clone());
                run_write(&shared, Shape::Partition, hints(list_based, cb), n);
                let ctx = format!("list_based={list_based} cb={cb} n={n}");
                assert_eq!(
                    counting.policy().stats().reads,
                    0,
                    "{ctx}: windows pre-read"
                );
                let file = counting.inner().snapshot();
                let want: Vec<u8> = (0..len as u64).map(byte_at).collect();
                assert_eq!(file, want, "{ctx}");
            }
        }
    }
}
