//! Cross-backend differential corpus: the in-memory backend and the
//! mapped real-file backend must be *byte-identical* — same
//! final file contents, same collective read-backs — across engines and
//! world sizes, and each once more behind `Staged`: both backends lend
//! their bytes, so the listless read-back is routed on them as they are
//! and two-phase behind the wrapper.
//!
//! Every assertion carries a replay line (environment + command) so a
//! failing configuration reproduces from the message alone, the same
//! convention the fault corpus uses with `LIO_FAULT_SEED`.

mod common;

use common::{pattern, reference_write, storage_for_backend, Staged};
use lio_core::{BackendKind, Engine, File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use std::sync::{Arc, Mutex};

/// The noncontig benchmark's fileview for rank p: an LB/vector/UB struct
/// with disp = p·blocklen, stride = slots·blocklen. With more slots than
/// ranks one slot per stride stays unwritten.
fn noncontig_view(p: u64, slots: u64, nblock: u64, sblock: u64) -> (u64, Datatype) {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, slots as i64, &block).unwrap();
    let extent = nblock * slots * sblock;
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
    (p * sblock, ft)
}

#[derive(Clone, Copy)]
struct Config {
    engine: Engine,
    nprocs: u64,
    nblock: u64,
    sblock: u64,
    cb: usize,
    /// One block slot per stride that no rank writes.
    holey: bool,
    /// Collective writes per rank, one view instance each; the read-back
    /// is one call over all of them.
    steps: u64,
}

impl Config {
    fn view(&self, p: u64) -> (u64, Datatype) {
        let slots = self.nprocs + self.holey as u64;
        noncontig_view(p, slots, self.nblock, self.sblock)
    }

    /// What rank `p` writes, all steps on end.
    fn data(&self, p: u64) -> Vec<u8> {
        pattern((self.steps * self.nblock * self.sblock) as usize, p + 1)
    }

    /// One line that reproduces this configuration from a shell.
    fn replay(&self, test: &str) -> String {
        format!(
            "replay: cargo test -q -p lio-core --test backend -- {test} \
             [engine={:?} ranks={} nblock={} sblock={} cb={} holey={} steps={}]",
            self.engine, self.nprocs, self.nblock, self.sblock, self.cb, self.holey, self.steps
        )
    }
}

/// Run the interleaved collective write + read-back on one backend, as it
/// is or lending nothing. Returns the final raw file bytes and each rank's
/// read-back.
fn run_on(kind: BackendKind, staged: bool, cfg: Config) -> (Vec<u8>, Vec<Vec<u8>>) {
    let (shared, snap) = storage_for_backend(kind);
    let shared2 = if staged {
        SharedFile::new(Staged(Arc::clone(shared.storage())))
    } else {
        shared.clone()
    };
    let reads: Arc<Mutex<Vec<Vec<u8>>>> =
        Arc::new(Mutex::new(vec![Vec::new(); cfg.nprocs as usize]));
    let reads2 = Arc::clone(&reads);
    World::run(cfg.nprocs as usize, move |comm| {
        let me = comm.rank() as u64;
        let hints = Hints::with_engine(cfg.engine)
            .cb_buffer(cfg.cb)
            .backend(kind);
        let (disp, ft) = cfg.view(me);
        let mut f = File::open(comm, shared2.clone(), hints).unwrap();
        f.set_view(disp, Datatype::byte(), ft).unwrap();
        let data = cfg.data(me);
        let step = cfg.nblock * cfg.sblock;
        for (s, chunk) in data.chunks(step as usize).enumerate() {
            let n = f
                .write_at_all(s as u64 * step, chunk, step, &Datatype::byte())
                .unwrap();
            assert_eq!(n, step);
        }
        let mut back = vec![0u8; data.len()];
        let blen = back.len() as u64;
        let n = f
            .read_at_all(0, &mut back, blen, &Datatype::byte())
            .unwrap();
        assert_eq!(n, blen);
        reads2.lock().unwrap()[me as usize] = back;
    });
    let contents = snap.snapshot();
    let reads = Arc::try_unwrap(reads).unwrap().into_inner().unwrap();
    (contents, reads)
}

/// The ground truth the reference implementation predicts.
fn reference(cfg: Config) -> Vec<u8> {
    let mut want = Vec::new();
    for p in 0..cfg.nprocs {
        let (disp, ft) = cfg.view(p);
        reference_write(&mut want, disp, &ft, 0, &cfg.data(p));
    }
    want
}

/// The differential assertion: mem and os agree with each other *and*
/// with the reference, and every rank reads its own data back on both.
fn assert_equivalent(cfg: Config, test: &str) {
    for staged in [false, true] {
        let replay = format!("{} staged={staged}", cfg.replay(test));
        let (mem_file, mem_reads) = run_on(BackendKind::Mem, staged, cfg);
        let (os_file, os_reads) = run_on(BackendKind::Os, staged, cfg);
        let mut want = reference(cfg);
        let n = mem_file.len().max(os_file.len()).max(want.len());
        let pad = |mut v: Vec<u8>| {
            v.resize(n, 0);
            v
        };
        let (mem_file, os_file) = (pad(mem_file), pad(os_file));
        want = pad(want);
        assert_eq!(
            mem_file, want,
            "mem backend diverges from reference\n{replay}"
        );
        assert_eq!(
            os_file, want,
            "os backend diverges from reference\n{replay}"
        );
        assert_eq!(mem_file, os_file, "backends diverge\n{replay}");
        for p in 0..cfg.nprocs as usize {
            let data = cfg.data(p as u64);
            assert_eq!(mem_reads[p], data, "mem read-back, rank {p}\n{replay}");
            assert_eq!(os_reads[p], data, "os read-back, rank {p}\n{replay}");
        }
    }
}

/// `shape` under each engine.
fn both_engines(shape: Config, test: &str) {
    for engine in [Engine::ListBased, Engine::Listless] {
        assert_equivalent(Config { engine, ..shape }, test);
    }
}

fn corpus(nprocs: u64, nblock: u64, sblock: u64, cb: usize, test: &str) {
    let shape = Config {
        engine: Engine::Listless,
        nprocs,
        nblock,
        sblock,
        cb,
        holey: false,
        steps: 1,
    };
    both_engines(shape, test);
}

#[test]
fn backends_agree_1_rank() {
    corpus(1, 16, 32, 1024, "backends_agree_1_rank");
}

#[test]
fn backends_agree_2_ranks() {
    corpus(2, 16, 16, 512, "backends_agree_2_ranks");
}

#[test]
fn backends_agree_4_ranks() {
    corpus(4, 24, 8, 512, "backends_agree_4_ranks");
}

#[test]
fn backends_agree_7_ranks() {
    corpus(7, 12, 16, 768, "backends_agree_7_ranks");
}

#[test]
fn backends_agree_unaligned_blocks() {
    // Odd block size and displacement: no window starts or ends on a
    // page, and behind `Staged` every one is an unaligned `pread`/`pwrite`.
    corpus(4, 20, 7, 256, "backends_agree_unaligned_blocks");
}

#[test]
fn backends_agree_window_smaller_than_block() {
    // cb below one interleave stripe forces many tiny windows per IOP.
    corpus(2, 32, 24, 96, "backends_agree_window_smaller_than_block");
}

#[test]
fn backends_agree_on_holey_views_written_in_steps() {
    // Block sizes off every power of two, a slot per stride nobody writes
    // (every window is a read-modify-write), several writes that each
    // append a view instance, one read-back across all of them.
    for (nprocs, nblock, sblock, steps) in
        [(1, 11, 95, 4), (2, 5, 37, 6), (4, 11, 7, 5), (7, 3, 61, 4)]
    {
        let shape = Config {
            engine: Engine::Listless,
            nprocs,
            nblock,
            sblock,
            cb: 4096,
            holey: true,
            steps,
        };
        both_engines(shape, "backends_agree_on_holey_views_written_in_steps");
    }
}
