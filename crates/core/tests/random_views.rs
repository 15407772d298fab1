//! The random-view corpus: collective writes and read-backs through views
//! that are drawn, not picked. Two or three ranks each get a filetype
//! that is disjoint from the others', identical to another rank's, that
//! rank's shifted so that the two partially overlap, or one of another
//! extent at another displacement; each writes through a random memtype,
//! some resized so that gaps lie between its instances, and one case has a
//! rank that writes nothing.
//!
//! Both engines run every case on a `MemFile` of `0xEE` behind `Staged`,
//! which stages every window, behind the calibrated request-cost model
//! (`Throttle::sx6_local_fs`), which stages them as timed requests, and on
//! the environment's storage (`LIO_BACKEND`, `LIO_FAULT_SEED`). Where views may overlap, every rank
//! writes the same byte to a file offset, so the outcome is defined: each
//! byte some rank wrote holds it, each byte no rank wrote still reads
//! `0xEE`, and a read-back returns what each rank wrote. Where all views
//! are disjoint, the ranks write random bytes and the file must be the
//! naive reference's.

mod common;

use common::{
    apply_comm_faults, pattern, reference_write, staged_with, test_storage_with, throttled_with,
    MakeStorage,
};
use lio_core::{File, Hints};
use lio_datatype::typemap::expand;
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_testkit::Rng;

const HOLE: u8 = 0xEE;
/// A user buffer's bytes that hold no data: a read must leave them.
const PAD: u8 = 0x5A;

/// The byte every rank writes at file offset `at` where views may overlap.
fn byte_at(at: u64) -> u8 {
    (at % 251) as u8 + 1
}

/// How a rank's view stands to the others'.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Relation {
    /// Its own slot of a grid the ranks share.
    Disjoint,
    /// Rank `0`'s view.
    Identical,
    /// Rank `0`'s view, its displacement moved by less than a block.
    Shifted,
    /// A vector of another block, stride and extent, at another
    /// displacement.
    Other,
}

/// One rank's part of a case.
#[derive(Debug, Clone)]
struct Rank {
    relation: Relation,
    disp: u64,
    filetype: Datatype,
    memtype: Datatype,
    count: u64,
}

impl Rank {
    /// The stream bytes this rank writes.
    fn total(&self) -> u64 {
        self.memtype.size() * self.count
    }

    /// The file offset of each stream byte.
    fn file_offsets(&self) -> Vec<u64> {
        let inst = self.total().div_ceil(self.filetype.size());
        offsets(&self.filetype, inst, self.disp)
            .into_iter()
            .take(self.total() as usize)
            .collect()
    }

    /// The user buffer's length and the position of each stream byte in it.
    fn user_positions(&self) -> (usize, Vec<u64>) {
        let pos = offsets(&self.memtype, self.count, 0);
        (pos.iter().max().map_or(0, |&p| p as usize + 1), pos)
    }
}

/// Where the data bytes of `count` instances of `d` lie, from `base`.
fn offsets(d: &Datatype, count: u64, base: u64) -> Vec<u64> {
    expand(d, count)
        .into_iter()
        .flat_map(|r| (0..r.len).map(move |i| (base as i64 + r.disp) as u64 + i))
        .collect()
}

/// A random memtype of `size` data bytes: contiguous, strided, ragged or
/// ragged and descending from byte 0 on, or one of those resized so that
/// its instances lie apart, with a gap after each or its data past a
/// leading hole — the seams a list-based walk crosses where its one
/// flattened instance wraps.
fn arb_memtype(rng: &mut Rng, size: u64) -> Datatype {
    let byte = Datatype::byte();
    match rng.below(6) {
        0 => Datatype::contiguous(size, &byte).unwrap(),
        1 => {
            let block = divisor(rng, size);
            let stride = block + rng.below(9);
            Datatype::vector(size / block, block, stride as i64, &byte).unwrap()
        }
        kind @ (2 | 3) => {
            let (mut lens, mut disps, mut at, mut left) = (vec![], vec![], 0i64, size);
            while left > 0 {
                let len = 1 + rng.below(left.min(20));
                lens.push(len);
                disps.push(at);
                at += (len + rng.below(8)) as i64;
                left -= len;
            }
            if kind == 3 {
                lens.reverse();
                disps.reverse();
            }
            Datatype::hindexed(&lens, &disps, &byte).unwrap()
        }
        4 => {
            let inner = arb_memtype(rng, size);
            Datatype::resized(&inner, 0, inner.extent() + 1 + rng.below(8)).unwrap()
        }
        _ => {
            let (inner, lead) = (arb_memtype(rng, size), 1 + rng.below(8));
            let placed = Datatype::hindexed(&[1], &[lead as i64], &inner).unwrap();
            Datatype::resized(&placed, 0, lead + inner.extent() + rng.below(4)).unwrap()
        }
    }
}

/// A random divisor of `n`.
fn divisor(rng: &mut Rng, n: u64) -> u64 {
    let all: Vec<u64> = (1..=n).filter(|&d| n.is_multiple_of(d)).collect();
    all[rng.below(all.len() as u64) as usize]
}

/// `blocks` blocks of `len` bytes, one every `stride`, from `at`, in an
/// extent of `extent`.
fn strided(blocks: u64, len: u64, stride: u64, at: u64, extent: u64) -> Datatype {
    let v = Datatype::vector(blocks, len, stride as i64, &Datatype::byte()).unwrap();
    let placed = Datatype::hindexed(&[1], &[at as i64], &v).unwrap();
    Datatype::resized(&placed, 0, extent).unwrap()
}

/// Case `case`'s ranks: rank 0 takes its grid slot; every other rank's
/// relation is drawn, or, in every fourth case, disjoint too.
fn arb_case(rng: &mut Rng, case: u64) -> Vec<Rank> {
    let nprocs = 2 + rng.below(2);
    // the grid: `blocks` slots of `len` bytes per rank in an extent of
    // nprocs · blocks · len plus a tail
    let (len, blocks) = (1 + rng.below(24), 1 + rng.below(4));
    let stride = nprocs * len;
    let extent = blocks * stride + rng.below(9);
    let disp = rng.below(16);
    // every rank that writes writes as many bytes as a grid slot holds in
    // 1–3 instances, so that views that overlap can fill a window
    let total = blocks * len * (1 + rng.below(3));
    let idle = (case % 5 == 4).then(|| rng.below(nprocs));
    (0..nprocs)
        .map(|r| {
            let relation = match (r, case % 4) {
                (0, _) | (_, 0) => Relation::Disjoint,
                _ => {
                    [Relation::Identical, Relation::Shifted, Relation::Other][rng.below(3) as usize]
                }
            };
            let (disp, filetype) = match relation {
                Relation::Disjoint => (disp, strided(blocks, len, stride, r * len, extent)),
                Relation::Identical => (disp, strided(blocks, len, stride, 0, extent)),
                Relation::Shifted => (
                    disp + 1 + rng.below(len.max(2) - 1),
                    strided(blocks, len, stride, 0, extent),
                ),
                Relation::Other => {
                    let (l, b) = (1 + rng.below(16), 1 + rng.below(4));
                    let s = l + rng.below(24);
                    (
                        rng.below(40),
                        strided(b, l, s, rng.below(8), b * s + rng.below(12)),
                    )
                }
            };
            let size = divisor(rng, total);
            let memtype = arb_memtype(rng, size);
            let count = match idle == Some(r) {
                true => 0,
                false => total / memtype.size(),
            };
            Rank {
                relation,
                disp,
                filetype,
                memtype,
                count,
            }
        })
        .collect()
}

/// Each rank's user buffer: `stream` placed at its memtype's positions,
/// `PAD` elsewhere.
fn user_buffer(rank: &Rank, stream: &[u8]) -> Vec<u8> {
    let (len, pos) = rank.user_positions();
    let mut user = vec![PAD; len];
    for (&p, &b) in pos.iter().zip(stream) {
        user[p as usize] = b;
    }
    user
}

/// Write every rank's stream collectively on a file of `len` bytes of
/// `HOLE` made by `make`, read it back collectively; the file, and what
/// each rank read into a buffer of `PAD`.
fn write_and_read(
    make: MakeStorage,
    hints: Hints,
    ranks: &[Rank],
    streams: &[Vec<u8>],
    len: usize,
) -> (Vec<u8>, Vec<Vec<u8>>) {
    let (shared, snap) = make(vec![HOLE; len]);
    let back = World::run(ranks.len(), |comm| {
        apply_comm_faults(comm);
        let me = &ranks[comm.rank()];
        let user = user_buffer(me, &streams[comm.rank()]);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(me.disp, Datatype::byte(), me.filetype.clone())
            .unwrap();
        f.write_at_all(0, &user, me.count, &me.memtype).unwrap();
        let mut back = vec![PAD; user.len()];
        f.read_at_all(0, &mut back, me.count, &me.memtype).unwrap();
        back
    });
    (snap.snapshot(), back)
}

/// Every case, both engines, staged, throttled and the environment's
/// storage, three window sizes.
#[test]
fn random_views_write_what_the_views_hold() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0x11B ^ (case << 8));
        let ranks = arb_case(&mut rng, case);
        let disjoint = ranks.iter().all(|r| r.relation == Relation::Disjoint);
        let offsets: Vec<Vec<u64>> = ranks.iter().map(Rank::file_offsets).collect();
        let end = offsets
            .iter()
            .flatten()
            .max()
            .map_or(0, |&o| o as usize + 1);
        let len = end + rng.below(24) as usize;
        // disjoint views write random bytes, others each offset's own byte
        let streams: Vec<Vec<u8>> = (ranks.iter().zip(&offsets).enumerate())
            .map(|(r, (rank, offs))| match disjoint {
                true => pattern(rank.total() as usize, case << 4 | r as u64),
                false => offs.iter().map(|&o| byte_at(o)).collect(),
            })
            .collect();
        let mut want = vec![HOLE; len];
        for (rank, stream) in ranks.iter().zip(&streams) {
            if disjoint && !stream.is_empty() {
                reference_write(&mut want, rank.disp, &rank.filetype, 0, stream);
            }
        }
        for &o in offsets.iter().flatten().filter(|_| !disjoint) {
            want[o as usize] = byte_at(o);
        }
        let want_back: Vec<Vec<u8>> = (ranks.iter().zip(&streams))
            .map(|(rank, stream)| user_buffer(rank, stream))
            .collect();
        for list_based in [false, true] {
            for cb in [16, 40 + rng.below(100) as usize, 4096] {
                let hints = match list_based {
                    true => Hints::list_based(),
                    false => Hints::listless(),
                }
                .cb_buffer(cb);
                for (storage, make) in [
                    ("staged", staged_with as MakeStorage),
                    ("throttled", throttled_with),
                    ("env", test_storage_with),
                ] {
                    let ctx = format!(
                        "case {case} list_based={list_based} cb={cb} {storage}: {:?}",
                        ranks
                            .iter()
                            .map(|r| (r.relation, r.disp, r.count))
                            .collect::<Vec<_>>()
                    );
                    let (file, back) = write_and_read(make, hints, &ranks, &streams, len);
                    assert_eq!(file.len(), len, "{ctx}: the file grew");
                    for (at, (&got, &w)) in file.iter().zip(&want).enumerate() {
                        assert_eq!(got, w, "{ctx}: file byte {at}");
                    }
                    for (r, (got, w)) in back.iter().zip(&want_back).enumerate() {
                        assert_eq!(got, w, "{ctx}: rank {r} read back");
                    }
                }
            }
        }
    }
}
