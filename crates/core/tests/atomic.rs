//! Atomic-mode semantics: conflicting independent accesses serialize.

mod common;

use common::{slow_staged, test_storage};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::MemFile;

fn engines() -> Vec<Hints> {
    vec![Hints::list_based(), Hints::listless()]
}

/// With atomicity on, two ranks writing the *same* strided region with
/// tiny sieving windows must not interleave: the final file holds one
/// rank's pattern in every block (whichever wrote last), never a mix
/// within one access. Slow staging storage (every other round) widens the
/// windows in time: a write that landed after its access had let go of
/// the lock would show.
#[test]
fn atomic_conflicting_writes_do_not_tear() {
    for h in engines() {
        // tiny windows maximize interleaving opportunities when not atomic
        let h = h.ind_buffer(64);
        for round in 0..6 {
            let (shared2, raw) = if round % 2 == 1 {
                slow_staged(Vec::new())
            } else {
                test_storage()
            };
            World::run(2, move |comm| {
                let me = comm.rank() as u64;
                let ft = Datatype::vector(64, 1, 2, &Datatype::double()).unwrap();
                let mut f = File::open(comm, shared2.clone(), h).unwrap();
                f.set_view(0, Datatype::double(), ft).unwrap();
                f.set_atomicity(true);
                assert!(f.atomicity());
                // both ranks write the SAME region
                let data = vec![me as u8 + 1; 64 * 8];
                f.write_at(0, &data, 64 * 8, &Datatype::byte()).unwrap();
            });
            let snap = raw.snapshot();
            // every data block must carry a single writer's value, and all
            // blocks the same writer (the whole access serialized)
            let mut writers = std::collections::HashSet::new();
            for blk in 0..64usize {
                let b = &snap[blk * 16..blk * 16 + 8];
                assert!(
                    b.iter().all(|&x| x == b[0]),
                    "torn block {blk} in round {round}: {b:?}"
                );
                writers.insert(b[0]);
            }
            assert_eq!(
                writers.len(),
                1,
                "interleaved writers in round {round}: {writers:?}"
            );
        }
    }
}

/// Atomic reads of a stable file return correct data (the lock must not
/// deadlock against the sieving windows).
#[test]
fn atomic_reads_work() {
    for h in engines() {
        let h = h.ind_buffer(32);
        let content: Vec<u8> = (0..=255).collect();
        let shared = SharedFile::new(MemFile::with_data(content.clone()));
        let shared2 = shared.clone();
        World::run(2, move |comm| {
            let ft = Datatype::vector(16, 1, 2, &Datatype::double()).unwrap();
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(0, Datatype::double(), ft).unwrap();
            f.set_atomicity(true);
            let mut buf = vec![0u8; 16 * 8];
            f.read_at(0, &mut buf, 16 * 8, &Datatype::byte()).unwrap();
            for blk in 0..16usize {
                let want = &content[blk * 16..blk * 16 + 8];
                assert_eq!(&buf[blk * 8..blk * 8 + 8], want, "block {blk}");
            }
        });
    }
}

/// Atomic writes with zero length are no-ops (no 0..0 lock trouble).
#[test]
fn atomic_zero_length() {
    let shared = SharedFile::new(MemFile::new());
    World::run(1, |comm| {
        let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
        f.set_atomicity(true);
        assert_eq!(f.write_bytes_at(0, &[]).unwrap(), 0);
    });
}

/// Non-overlapping atomic writes still run concurrently (lock ranges are
/// disjoint) and produce correct data.
#[test]
fn atomic_disjoint_writes() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(4, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_atomicity(true);
            let data = vec![me as u8 + 1; 128];
            f.write_bytes_at(me * 128, &data).unwrap();
        });
        let mut snap = vec![0u8; shared.len() as usize];
        shared.storage().read_at(0, &mut snap).unwrap();
        assert_eq!(snap.len(), 512);
        for (i, b) in snap.iter().enumerate() {
            assert_eq!(*b as usize, i / 128 + 1);
        }
    }
}
