//! Differential tests for the pipelined two-phase schedule: for a corpus
//! of interleaved collective accesses, the pipelined and monolithic
//! schedules must produce bit-identical files and read-backs, for both
//! engines, across rank counts and window sizes — including windows
//! smaller than one filetype block, where a single contiguous block
//! spans several exchange windows.
//!
//! Every variant is also compared against the naive reference
//! implementation, so the test keeps its teeth when `LIO_PIPELINE` in the
//! environment forces both "on" and "off" variants onto the same
//! schedule (as CI does).

mod common;

use common::{check_partial_participation, pattern, reference_write};
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

/// The cyclically interleaved filetype used throughout: `nblock` blocks
/// of `sblock` bytes, one block per stride of `slots` block slots. With
/// `slots > nprocs` one slot per stride stays unwritten, forcing
/// read-modify-write windows.
fn interleaved_ft(sblock: u64, nblock: u64, slots: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, slots as i64, &block).unwrap();
    let extent = nblock * slots * sblock;
    Datatype::struct_type(vec![
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
    .unwrap()
}

/// Run a multi-step collective write + full read-back under `hints`;
/// every rank asserts its read-back in-world. Returns the file snapshot.
fn run_case(
    hints: Hints,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
    holey: bool,
    steps: u64,
) -> Vec<u8> {
    let shared = SharedFile::new(MemFile::new());
    let sh = shared.clone();
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + holey as u64;
        let ft = interleaved_ft(sblock, nblock, slots);
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let step = nblock * sblock;
        for s in 0..steps {
            let data = pattern(step as usize, me * 1000 + s);
            f.write_at_all(s * step, &data, step, &Datatype::byte())
                .unwrap();
        }
        let total = steps * step;
        let mut back = vec![0u8; total as usize];
        f.read_at_all(0, &mut back, total, &Datatype::byte())
            .unwrap();
        for s in 0..steps {
            assert_eq!(
                &back[(s * step) as usize..((s + 1) * step) as usize],
                &pattern(step as usize, me * 1000 + s)[..],
                "rank {me} read back foreign bytes in step {s}"
            );
        }
    });
    let mut snap = vec![0u8; shared.len() as usize];
    shared.storage().read_at(0, &mut snap).unwrap();
    snap
}

/// The file every variant must produce, per the naive reference.
fn reference_file(nprocs: usize, sblock: u64, nblock: u64, holey: bool, steps: u64) -> Vec<u8> {
    let slots = nprocs as u64 + holey as u64;
    let ft = interleaved_ft(sblock, nblock, slots);
    let step = (nblock * sblock) as usize;
    let mut want = Vec::new();
    for me in 0..nprocs as u64 {
        let mut stream = Vec::with_capacity(step * steps as usize);
        for s in 0..steps {
            stream.extend_from_slice(&pattern(step, me * 1000 + s));
        }
        reference_write(&mut want, me * sblock, &ft, 0, &stream);
    }
    want
}

#[test]
fn pipelined_matches_monolithic_and_reference() {
    let mut case = 0u64;
    for &nprocs in &[1usize, 2, 4, 7] {
        // 64 B: windows much smaller than one filetype block;
        // 4096 B: a few blocks per window; 100 B: windows off every
        // power-of-two boundary; the default: one window swallowing the
        // whole domain (single-window pipeline).
        for &cb in &[64usize, 100, 4096, Hints::default().cb_buffer_size] {
            for &depth in &[1usize, 2, 4] {
                case += 1;
                let mut rng = Rng::new(0x11FE ^ (case << 8));
                // sblock up to 96 so cb=64 splits single blocks
                let sblock = rng.range(1, 96);
                let nblock = rng.range(1, 12);
                let holey = rng.range(0, 2) == 1;
                let steps = rng.range(1, 3);

                let variants = [
                    Hints::list_based().cb_buffer(cb),
                    Hints::list_based()
                        .cb_buffer(cb)
                        .pipelined(true)
                        .pipeline_depth(depth),
                    Hints::listless().cb_buffer(cb),
                    Hints::listless()
                        .cb_buffer(cb)
                        .pipelined(true)
                        .pipeline_depth(depth),
                ];
                let snaps: Vec<Vec<u8>> = variants
                    .iter()
                    .map(|&h| run_case(h, nprocs, sblock, nblock, holey, steps))
                    .collect();
                for (i, snap) in snaps.iter().enumerate().skip(1) {
                    assert_eq!(
                        &snaps[0], snap,
                        "case {case} (p={nprocs} cb={cb} depth={depth} sblock={sblock} \
                         nblock={nblock} holey={holey}): variant {i} file differs"
                    );
                }
                let mut want = reference_file(nprocs, sblock, nblock, holey, steps);
                let mut got = snaps[0].clone();
                let n = want.len().max(got.len());
                want.resize(n, 0);
                got.resize(n, 0);
                assert_eq!(
                    got, want,
                    "case {case} (p={nprocs} cb={cb} depth={depth}): file differs from reference"
                );
            }
        }
    }
}

#[test]
fn pipelined_partial_participation_keeps_untouched_bytes() {
    for h in [Hints::list_based(), Hints::listless()] {
        for (cb, depth) in [(Hints::default().cb_buffer_size, 2), (96, 1), (96, 4)] {
            for r1_bytes in [0, 8, 256] {
                check_partial_participation(
                    h.cb_buffer(cb).pipelined(true).pipeline_depth(depth),
                    r1_bytes,
                );
            }
        }
    }
}
