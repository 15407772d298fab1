//! Elementary-type (etype) semantics: offsets count in etype units, and
//! accesses may start anywhere inside the filetype — the "datatype
//! navigation" requirement of paper Section 3.2.1.

mod common;

use common::{engines, pattern, reference_write};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::MemFile;

/// With etype = 40-byte "points" (5 doubles, as BTIO uses), offsets are
/// point-granular.
#[test]
fn point_etype_offsets() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(1, move |comm| {
            let point = Datatype::basic(40);
            let ft = Datatype::vector(8, 1, 2, &point).unwrap();
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(0, point.clone(), ft).unwrap();
            // write points 3..6 (offset three etypes in)
            let data = pattern(3 * 40, 99);
            f.write_at(3, &data, data.len() as u64, &Datatype::byte())
                .unwrap();
            let mut back = vec![0u8; data.len()];
            let blen = back.len() as u64;
            f.read_at(3, &mut back, blen, &Datatype::byte()).unwrap();
            assert_eq!(back, data);
        });
        // point k lives at file offset k*80 (stride 2 points)
        let mut snap = vec![0u8; shared.len() as usize];
        shared.storage().read_at(0, &mut snap).unwrap();
        let data = pattern(3 * 40, 99);
        for k in 0..3usize {
            let off = (3 + k) * 80;
            assert_eq!(
                &snap[off..off + 40],
                &data[k * 40..(k + 1) * 40],
                "point {k}"
            );
        }
    }
}

/// A write that is not a whole number of etypes leaves the file pointer
/// API unusable (error), but explicit-offset access still works at byte
/// granularity of the etype stream.
#[test]
fn non_integral_etype_advance_rejected() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(1, move |comm| {
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(0, Datatype::double(), Datatype::double())
                .unwrap();
            // 5 bytes is not a whole double: write() must error on advance
            assert!(f.write(&[1, 2, 3, 4, 5], 5, &Datatype::byte()).is_err());
        });
    }
}

/// Offsets beyond the first filetype instance wrap into later instances
/// with the correct extent arithmetic — checked against the reference.
#[test]
fn deep_offsets_into_tiled_view() {
    for h in engines() {
        let ft = Datatype::vector(4, 1, 3, &Datatype::double()).unwrap();
        for offset_etypes in [0u64, 4, 5, 11, 100] {
            let shared = SharedFile::new(MemFile::new());
            let shared2 = shared.clone();
            let ft2 = ft.clone();
            let data = pattern(64, offset_etypes);
            let data2 = data.clone();
            World::run(1, move |comm| {
                let mut f = File::open(comm, shared2.clone(), h).unwrap();
                f.set_view(16, Datatype::double(), ft2.clone()).unwrap();
                f.write_at(offset_etypes, &data2, data2.len() as u64, &Datatype::byte())
                    .unwrap();
            });
            let mut want = Vec::new();
            reference_write(&mut want, 16, &ft, offset_etypes * 8, &data);
            let mut snap = vec![0u8; shared.len() as usize];
            shared.storage().read_at(0, &mut snap).unwrap();
            let m = snap.len().max(want.len());
            snap.resize(m, 0);
            want.resize(m, 0);
            assert_eq!(snap, want, "offset {offset_etypes}");
        }
    }
}

/// Re-establishing a view resets the file pointer, as MPI requires.
#[test]
fn set_view_resets_pointer() {
    let shared = SharedFile::new(MemFile::new());
    World::run(1, |comm| {
        let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
        f.write(&[1u8; 16], 16, &Datatype::byte()).unwrap();
        assert_eq!(f.tell(), 16);
        f.set_view(0, Datatype::double(), Datatype::double())
            .unwrap();
        assert_eq!(f.tell(), 0);
    });
}

/// Different ranks may use different etypes for the same file.
#[test]
fn heterogeneous_etypes_across_ranks() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(2, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            if me == 0 {
                // doubles at even slots
                let ft = Datatype::vector(8, 1, 2, &Datatype::double()).unwrap();
                f.set_view(0, Datatype::double(), ft).unwrap();
            } else {
                // ints at odd double-slots (two ints per slot)
                let ft = Datatype::vector(16, 2, 4, &Datatype::int()).unwrap();
                f.set_view(8, Datatype::int(), ft).unwrap();
            }
            let data = vec![me as u8 + 1; 64];
            f.write_at_all(0, &data, 64, &Datatype::byte()).unwrap();
        });
        let mut snap = vec![0u8; shared.len() as usize];
        shared.storage().read_at(0, &mut snap).unwrap();
        for (i, b) in snap.iter().enumerate() {
            let owner = (i / 8) % 2;
            assert_eq!(*b as usize, owner + 1, "byte {i}");
        }
    }
}
