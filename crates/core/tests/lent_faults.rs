//! The fault corpus runs the path that ships: under a seeded fault plan a
//! collective write and its read-back each move bytes in place (the
//! windows the plan lends) and staged (those it declines), and the staged
//! requests meet injected faults — for both engines and every corpus seed
//! (`LIO_FAULT_SEED` narrows it to one). The file and the read-back are the
//! naive reference's. Its own test binary with a single test: the counters
//! are process-wide.

mod common;

use common::{figure4_filetype, pattern, reference_write};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::{Decorated, Faults, MemFile};
use lio_testkit as tk;
use std::sync::Arc;

#[test]
fn a_faulty_collective_moves_bytes_in_place_and_staged() {
    const P: u64 = 2;
    let n = 4096u64;
    let view = |me: u64| figure4_filetype(me, P, n / 8, 8);
    let data = |me: u64| pattern(n as usize, me + 1);
    let mut want = Vec::new();
    for me in 0..P {
        reference_write(&mut want, 0, &view(me), 0, &data(me));
    }
    let counts = || {
        let snap = lio_obs::snapshot();
        [
            "io.in_place_bytes",
            "io.staged_bytes",
            "pfs.faults.injected",
        ]
        .map(|c| snap.counter(c))
    };
    lio_obs::set_enabled(true);
    for seed in tk::corpus_seeds() {
        for engine in [Hints::list_based(), Hints::listless()] {
            let replay = format!("LIO_FAULT_SEED={seed} cargo test -p lio-core --test lent_faults");
            let what = format!("{:?}; replay with: {replay}", engine.engine);
            let mem = Arc::new(MemFile::new());
            let faults = Faults::new(tk::fault_plan(seed));
            let shared = SharedFile::new(Decorated::new(Arc::clone(&mem), faults));
            // 64 windows an op: about a third of them staged
            let hints = engine.cb_buffer(2 * n as usize / 64);
            let moved = |op: &(dyn Fn(&mut File, u64) + Sync)| {
                let before = counts();
                World::run(P as usize, |comm| {
                    comm.set_fault_plan(Some(tk::comm_fault_plan(seed, comm.rank())));
                    let me = comm.rank() as u64;
                    let mut f = File::open(comm, shared.clone(), hints).unwrap();
                    f.set_view(0, Datatype::byte(), view(me)).unwrap();
                    op(&mut f, me)
                });
                let after = counts();
                [0, 1, 2].map(|i| after[i] - before[i])
            };
            let byte = Datatype::byte();
            let wrote = moved(&|f, me| {
                f.write_at_all(0, &data(me), n, &byte).unwrap();
            });
            let read = moved(&|f, me| {
                let mut back = vec![0u8; n as usize];
                f.read_at_all(0, &mut back, n, &byte).unwrap();
                assert!(back == data(me), "{what}: rank {me}'s read-back");
            });
            for (op, [in_place, staged, _]) in [("write", wrote), ("read", read)] {
                assert!(in_place > 0, "{what}: the {op} lent no window");
                assert!(staged > 0, "{what}: the {op} staged no window");
            }
            let injected = wrote[2] + read[2];
            assert!(injected > 0, "{what}: the write and the read met no fault");
            assert!(mem.snapshot() == want, "{what}: the file differs");
        }
    }
    lio_obs::set_enabled(false);
}
