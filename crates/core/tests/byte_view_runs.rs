//! A byte view moves its bytes in the fewest runs its typemap allows: the
//! view's instances abut, so a collective over it copies no run shorter
//! than a block of the memtype on the other side. This is the shape of
//! `repro profile`'s `btio_nested_pack` — a byte view, a memtype of 64 B
//! blocks, four ranks — whose copies would otherwise be one run per byte.
//!
//! The runs are the executor's `dt.run.len`, recorded by every listless
//! copy; the list-based co-walk records none, so for it the bound holds
//! without a run to check.
//!
//! Its own test binary with a single test: the counters are process-wide.

mod common;

use common::{pattern, staged};
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::typemap::expand;
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::MemFile;

const BLOCK: u64 = 64;

#[test]
fn a_byte_view_moves_no_run_shorter_than_a_memtype_block() {
    let inner = Datatype::vector(16, 1, 2, &Datatype::basic(BLOCK as u32)).unwrap();
    let mem = Datatype::vector(8, 1, 2, &inner).unwrap();
    let (size, span) = (mem.size(), mem.extent() as usize);
    for hints in [Hints::list_based(), Hints::listless()] {
        for (name, shared) in [
            ("MemFile", SharedFile::new(MemFile::new())),
            ("staged(MemFile)", SharedFile::new(staged(MemFile::new()))),
        ] {
            let what = format!("{:?} on {name}", hints.engine);
            World::run(4, |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), Datatype::byte()).unwrap();
                comm.barrier();
                if me == 0 {
                    lio_obs::reset();
                    lio_obs::set_enabled(true);
                }
                comm.barrier();
                let user = pattern(span, me + 1);
                f.write_at_all(me * size, &user, 1, &mem).unwrap();
                let mut back = vec![0u8; span];
                f.read_at_all(me * size, &mut back, 1, &mem).unwrap();
                comm.barrier();
                if me == 0 {
                    lio_obs::set_enabled(false);
                }
                for r in expand(&mem, 1) {
                    let run = r.disp as usize..(r.disp + r.len as i64) as usize;
                    assert_eq!(back[run.clone()], user[run], "{what}: rank {me}");
                }
            });
            let snap = lio_obs::snapshot();
            let runs = snap.histogram("dt.run.len").filter(|h| h.count > 0);
            match (hints.engine, runs) {
                (Engine::Listless, None) => panic!("{what}: no run recorded"),
                (_, Some(h)) => assert!(h.min >= BLOCK, "{what}: a run of {} B", h.min),
                (Engine::ListBased, None) => {}
            }
        }
    }
}
