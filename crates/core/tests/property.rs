//! Randomized tests: for random fileviews, memtypes, offsets, and buffer
//! sizes, the list-based and listless engines must produce bit-identical
//! files and read-backs — independently and collectively.
//!
//! Cases come from a deterministic xorshift PRNG, so every run exercises
//! the same corpus and failures reproduce from the case number.

mod common;

use common::{pattern, reference_write};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// A random monotone filetype suitable as a fileview, with modest sizes.
fn arb_filetype(rng: &mut Rng) -> Datatype {
    loop {
        let d = match rng.range(0, 3) {
            // plain strided vector of byte blocks
            0 => {
                let (n, len, gap) = (rng.range(1, 24), rng.range(1, 16), rng.range(0, 16));
                let block = Datatype::contiguous(len, &Datatype::byte()).unwrap();
                Datatype::vector(n, 1, (len + gap) as i64 / len.max(1) as i64 + 1, &block)
                    .unwrap_or(block)
            }
            // indexed with increasing gaps
            1 => {
                let (n, len) = (rng.range(1, 6), rng.range(1, 8));
                let disps: Vec<i64> = (0..n as i64).map(|i| i * (len as i64 + i)).collect();
                let lens: Vec<u64> = (0..n).map(|_| len).collect();
                let block = Datatype::contiguous(1, &Datatype::byte()).unwrap();
                let child = Datatype::contiguous(1, &block).unwrap();
                Datatype::indexed(&lens, &disps, &child).unwrap()
            }
            // struct with an UB marker creating a trailing gap
            _ => {
                let (n, len, pad) = (rng.range(1, 8), rng.range(1, 8), rng.range(0, 32));
                let v = Datatype::vector(n, len, (len + 1) as i64, &Datatype::byte()).unwrap();
                let ub = v.data_ub() + pad as i64;
                Datatype::struct_type(vec![
                    Field {
                        disp: 0,
                        count: 1,
                        child: v,
                    },
                    Field {
                        disp: ub,
                        count: 1,
                        child: Datatype::ub_marker(),
                    },
                ])
                .unwrap()
            }
        };
        if d.is_monotone() && d.size() > 0 {
            return d;
        }
    }
}

/// A random memtype (not necessarily monotone).
fn arb_memtype(rng: &mut Rng) -> Datatype {
    loop {
        let d = match rng.range(0, 2) {
            0 => Datatype::contiguous(rng.range(1, 64), &Datatype::byte()).unwrap(),
            _ => {
                let (c, b, extra) = (rng.range(1, 8), rng.range(1, 8), rng.range(0, 4) as i64);
                Datatype::vector(c, b, b as i64 + extra, &Datatype::byte()).unwrap()
            }
        };
        if d.size() > 0 && d.data_lb() >= 0 {
            return d;
        }
    }
}

fn write_with_engine(
    hints: Hints,
    disp: u64,
    ft: &Datatype,
    mt: &Datatype,
    count: u64,
    offset: u64,
    user: &[u8],
) -> (Vec<u8>, Vec<u8>) {
    let shared = SharedFile::new(MemFile::new());
    let shared2 = shared.clone();
    let (ft, mt, user) = (ft.clone(), mt.clone(), user.to_vec());
    let back = World::run(1, move |comm| {
        let mut f = File::open(comm, shared2.clone(), hints).unwrap();
        f.set_view(disp, Datatype::byte(), ft.clone()).unwrap();
        f.write_at(offset, &user, count, &mt).unwrap();
        let mut back = vec![0u8; user.len()];
        f.read_at(offset, &mut back, count, &mt).unwrap();
        back
    })
    .pop()
    .unwrap();
    let mut snap = vec![0u8; shared.len() as usize];
    shared.storage().read_at(0, &mut snap).unwrap();
    (snap, back)
}

#[test]
fn engines_agree_independent() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xD1 ^ case);
        let ft = arb_filetype(&mut rng);
        let mt = arb_memtype(&mut rng);
        let count = rng.range(1, 4);
        let offset = rng.range(0, 64);
        let disp = rng.range(0, 32);
        let small_buf = if rng.range(0, 2) == 0 { 64usize } else { 4096 };

        let span = ((count as i64 - 1) * mt.extent() as i64 + mt.data_ub()) as usize;
        let user = pattern(span.max(1), offset + disp);
        let (fa, ba) = write_with_engine(
            Hints::list_based().ind_buffer(small_buf),
            disp,
            &ft,
            &mt,
            count,
            offset,
            &user,
        );
        let (fb, bb) = write_with_engine(
            Hints::listless().ind_buffer(small_buf),
            disp,
            &ft,
            &mt,
            count,
            offset,
            &user,
        );
        assert_eq!(
            &fa, &fb,
            "case {case}: file contents differ between engines"
        );
        assert_eq!(&ba, &bb, "case {case}: read-backs differ between engines");

        // and both match the reference
        let stream = lio_datatype::typemap::reference_pack(&user, &mt, count);
        let mut want = Vec::new();
        reference_write(&mut want, disp, &ft, offset, &stream);
        let n = want.len().max(fa.len());
        let mut fa2 = fa.clone();
        let mut want2 = want.clone();
        fa2.resize(n, 0);
        want2.resize(n, 0);
        assert_eq!(fa2, want2, "case {case}: engines differ from reference");
    }
}

#[test]
fn engines_agree_collective() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xD2 ^ case);
        let nblock = rng.range(1, 24);
        let sblock = rng.range(1, 24);
        let nprocs = rng.range(1, 5) as usize;
        let cb = if rng.range(0, 2) == 0 {
            64usize
        } else {
            1 << 20
        };
        let steps = rng.range(1, 3);

        // (on the lending file the listless read-back is routed, on the
        // staging one it is two-phase)
        let mut snaps = Vec::new();
        for (hints, staged) in [
            (Hints::list_based().cb_buffer(cb), false),
            (Hints::listless().cb_buffer(cb), false),
            (Hints::listless().cb_buffer(cb), true),
        ] {
            let shared = if staged {
                SharedFile::new(common::Staged(MemFile::new()))
            } else {
                SharedFile::new(MemFile::new())
            };
            let shared2 = shared.clone();
            World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let p = comm.size() as u64;
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
                let mut f = File::open(comm, shared2.clone(), hints).unwrap();
                f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
                let step_bytes = nblock * sblock;
                for s in 0..steps {
                    let data = pattern(step_bytes as usize, me * 1000 + s);
                    f.write_at_all(s * step_bytes, &data, step_bytes, &Datatype::byte())
                        .unwrap();
                }
                // read back the first step collectively and verify
                let mut back = vec![0u8; step_bytes as usize];
                f.read_at_all(0, &mut back, step_bytes, &Datatype::byte())
                    .unwrap();
                assert_eq!(back, pattern(step_bytes as usize, me * 1000));
            });
            let mut snap = vec![0u8; shared.len() as usize];
            shared.storage().read_at(0, &mut snap).unwrap();
            snaps.push(snap);
        }
        assert!(
            snaps[0] == snaps[1] && snaps[1] == snaps[2],
            "case {case}: collective file contents differ"
        );
    }
}
