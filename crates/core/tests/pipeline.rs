//! Differential tests for the two ways a collective write gets a staged
//! window back into the file: inline, and behind the window loop through
//! its write-behind lane (`lio-core`'s `window.rs`). For a corpus of
//! interleaved collective accesses, both engines must produce the file of
//! the naive reference and read their own data back, across rank counts
//! and window sizes — including windows smaller than one filetype block,
//! where a single contiguous block spans several windows — on the
//! environment's storage (`LIO_BACKEND`, `LIO_FAULT_SEED`) and once more
//! on storage that stages and is slow enough to arm the lane, which the
//! `io.behind_bytes` counter must show it did.

mod common;

use common::{
    apply_comm_faults, check_partial_participation, interleaved_ft, pattern, reference_write,
    slow_staged, test_storage_with, SnapHandle,
};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;

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

/// Run a multi-step collective write + full read-back under `hints` on
/// the file `storage` makes; every rank asserts its read-back in-world.
/// Returns the file snapshot.
fn run_case(
    storage: fn(Vec<u8>) -> (SharedFile, SnapHandle),
    hints: Hints,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
    holey: bool,
    steps: u64,
) -> Vec<u8> {
    let (shared, raw) = storage(Vec::new());
    World::run(nprocs, move |comm| {
        apply_comm_faults(comm);
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + holey as u64;
        let ft = interleaved_ft(sblock, nblock, slots);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
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
    raw.snapshot()
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

/// "Pipelined": on slow staged storage, where window `k` is written back
/// behind the loop while window `k + 1` is read and filled. "Monolithic":
/// on the environment's storage, every window written where it is filled
/// (in place on a lending `MemFile`, the default).
#[test]
fn pipelined_matches_monolithic_and_reference() {
    lio_obs::set_enabled(true);
    let mut case = 0u64;
    for &nprocs in &[1usize, 2, 4, 7] {
        // 64 B: windows much smaller than one filetype block;
        // 4096 B: a few blocks per window; 100 B: windows off every
        // power-of-two boundary; the default: one window swallowing the
        // whole domain (the lane never arms: there is no second window).
        for &cb in &[64usize, 100, 4096, Hints::default().cb_buffer_size] {
            case += 1;
            let mut rng = Rng::new(0x11FE ^ (case << 8));
            // sblock up to 96 so cb=64 splits single blocks
            let sblock = rng.range(1, 96);
            let nblock = rng.range(1, 12);
            let holey = rng.range(0, 2) == 1;
            let steps = rng.range(1, 3);

            let mut want = reference_file(nprocs, sblock, nblock, holey, steps);
            for engine in [Hints::list_based(), Hints::listless()] {
                let hints = engine.cb_buffer(cb);
                for (on, storage) in [
                    ("the environment's storage", test_storage_with as fn(_) -> _),
                    ("slow staged storage", slow_staged),
                ] {
                    let mut got = run_case(storage, hints, nprocs, sblock, nblock, holey, steps);
                    let n = want.len().max(got.len());
                    want.resize(n, 0);
                    got.resize(n, 0);
                    assert!(
                        got == want,
                        "case {case} (p={nprocs} cb={cb} sblock={sblock} nblock={nblock} \
                         holey={holey} {:?}) on {on}: file differs from reference",
                        hints.engine
                    );
                }
            }
        }
    }
    // Only a write-behind lane feeds this counter, and a lane arms only on
    // storage that stages and is slow: here, the slow staged runs.
    let behind = lio_obs::snapshot().counter("io.behind_bytes");
    assert!(behind > 0, "no lane armed on slow staged storage");
}

#[test]
fn pipelined_partial_participation_keeps_untouched_bytes() {
    for h in [Hints::list_based(), Hints::listless()] {
        for cb in [Hints::default().cb_buffer_size, 96] {
            for r1_bytes in [0, 8, 256] {
                check_partial_participation(slow_staged, h.cb_buffer(cb), r1_bytes);
            }
        }
    }
}
