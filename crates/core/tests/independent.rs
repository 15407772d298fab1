//! Independent (non-collective) I/O: both engines vs the naive reference,
//! across the paper's four access patterns (Figure 1), sieve buffer
//! sizes, and etype-granular offsets.

mod common;

use common::{
    engines, pattern, reference_read, reference_stream, reference_write, slow_staged, test_storage,
};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field, Order};
use lio_mpi::World;
use lio_pfs::MemFile;

/// Run one write+readback scenario on a single rank and check against the
/// reference.
fn check_independent(
    hints: Hints,
    disp: u64,
    ftype: &Datatype,
    memtype: &Datatype,
    count: u64,
    offset_etypes: u64,
    etype: &Datatype,
) {
    let span = if count == 0 {
        0
    } else {
        ((count as i64 - 1) * memtype.extent() as i64 + memtype.data_ub()) as usize
    };
    let user = pattern(span.max(1), disp + count + offset_etypes);
    let stream = reference_stream(&user, memtype, count);
    let stream_start = offset_etypes * etype.size();

    // expected file contents
    let mut want = Vec::new();
    reference_write(&mut want, disp, ftype, stream_start, &stream);

    let shared = SharedFile::new(MemFile::new());
    let ftype2 = ftype.clone();
    let etype2 = etype.clone();
    let memtype2 = memtype.clone();
    let user2 = user.clone();
    let got_back = World::run(1, move |comm| {
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(disp, etype2.clone(), ftype2.clone()).unwrap();
        let n = f.write_at(offset_etypes, &user2, count, &memtype2).unwrap();
        assert_eq!(n, count * memtype2.size());

        // snapshot and compare inside (storage reachable via shared)
        let mut back = vec![0u8; user2.len()];
        let n = f
            .read_at(offset_etypes, &mut back, count, &memtype2)
            .unwrap();
        assert_eq!(n, count * memtype2.size());
        (shared.clone(), back)
    })
    .pop()
    .unwrap();

    let (shared, back) = got_back;
    // file contents match the reference
    let mut snap = vec![0u8; shared.len() as usize];
    shared.storage().read_at(0, &mut snap).unwrap();
    // compare padded to the longer
    let n = snap.len().max(want.len());
    snap.resize(n, 0);
    want.resize(n, 0);
    assert_eq!(snap, want, "file contents differ from reference");

    // read-back returns the stream, re-placed into the user layout
    let want_read = reference_read(&snap, disp, ftype, stream_start, stream.len() as u64);
    assert_eq!(want_read, stream, "reference read is self-consistent");
    // the read data must land at the memtype's positions
    let mut expect_user = vec![0u8; user.len()];
    lio_datatype::typemap::reference_unpack(&stream, &mut expect_user, memtype, count);
    for r in lio_datatype::typemap::expand(memtype, count) {
        let o = r.disp as usize;
        assert_eq!(
            &back[o..o + r.len as usize],
            &expect_user[o..o + r.len as usize],
            "read-back mismatch at run {r:?}"
        );
    }
}

fn noncontig_filetype(nblock: u64, sblock: u64, stride_blocks: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    Datatype::vector(nblock, 1, stride_blocks as i64, &block).unwrap()
}

#[test]
fn cc_contiguous_both() {
    for h in engines() {
        check_independent(
            h,
            0,
            &Datatype::contiguous(64, &Datatype::byte()).unwrap(),
            &Datatype::contiguous(128, &Datatype::byte()).unwrap(),
            1,
            0,
            &Datatype::byte(),
        );
    }
}

#[test]
fn c_nc_vector_view() {
    for h in engines() {
        let ft = noncontig_filetype(8, 8, 3);
        check_independent(
            h,
            0,
            &ft,
            &Datatype::contiguous(160, &Datatype::byte()).unwrap(),
            1,
            0,
            &Datatype::byte(),
        );
    }
}

#[test]
fn nc_c_memtype_only() {
    for h in engines() {
        let mt = Datatype::vector(10, 2, 5, &Datatype::int()).unwrap();
        check_independent(
            h,
            16,
            &Datatype::contiguous(256, &Datatype::byte()).unwrap(),
            &mt,
            2,
            3,
            &Datatype::byte(),
        );
    }
}

#[test]
fn nc_nc_both_sides() {
    for h in engines() {
        let ft = noncontig_filetype(6, 16, 2);
        let mt = Datatype::vector(12, 1, 2, &Datatype::double()).unwrap();
        check_independent(h, 8, &ft, &mt, 2, 0, &Datatype::byte());
    }
}

#[test]
fn offsets_inside_filetype() {
    // etype = double; offsets land in the middle of the filetype
    for h in engines() {
        let block = Datatype::contiguous(2, &Datatype::double()).unwrap();
        let ft = Datatype::vector(4, 1, 3, &block).unwrap(); // 8 doubles data, 24 extent
        for offset in [0u64, 1, 3, 7, 8, 13] {
            check_independent(
                h,
                0,
                &ft,
                &Datatype::contiguous(40, &Datatype::byte()).unwrap(),
                1,
                offset,
                &Datatype::double(),
            );
        }
    }
}

#[test]
fn tiny_sieve_buffer_forces_many_windows() {
    for h in engines() {
        let h = h.ind_buffer(32);
        let ft = noncontig_filetype(16, 4, 5);
        check_independent(
            h,
            4,
            &ft,
            &Datatype::contiguous(200, &Datatype::byte()).unwrap(),
            1,
            0,
            &Datatype::byte(),
        );
    }
}

#[test]
fn sieve_from_an_etype_offset() {
    for h in engines() {
        let ft = noncontig_filetype(10, 8, 3);
        check_independent(
            h,
            0,
            &ft,
            &Datatype::contiguous(80, &Datatype::byte()).unwrap(),
            1,
            2,
            &Datatype::byte(),
        );
    }
}

#[test]
fn subarray_fileview() {
    for h in engines() {
        let ft =
            Datatype::subarray(&[8, 10], &[4, 5], &[2, 3], Order::C, &Datatype::double()).unwrap();
        check_independent(
            h,
            0,
            &ft,
            &Datatype::contiguous(4 * 5 * 8 * 2, &Datatype::byte()).unwrap(),
            1,
            0,
            &Datatype::double(),
        );
    }
}

#[test]
fn struct_filetype_with_markers() {
    for h in engines() {
        let v = Datatype::vector(4, 2, 4, &Datatype::double()).unwrap();
        let ft = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 16,
                count: 1,
                child: v,
            },
            Field {
                disp: 160,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        check_independent(
            h,
            0,
            &ft,
            &Datatype::contiguous(128, &Datatype::byte()).unwrap(),
            1,
            1,
            &Datatype::double(),
        );
    }
}

#[test]
fn two_ranks_disjoint_independent_writes() {
    // concurrent sieving writes to interleaved views must not clobber each
    // other (the range lock at work) — on storage that lends, and on slow
    // staging storage, where every window is a read-modify-write of 300 µs
    // under the lock and a write made *behind* the loop, after the lock is
    // gone, would lose the other rank's blocks. Sieving never declares
    // itself sole writer, so no lane may arm. Each access spans 4P
    // windows, so rank r starts its walk at window ⌊r·n/P⌋ and wraps
    // round: the ranks begin in different windows of a file that grows
    // from empty, and the upper windows of most ranks are written before
    // their lower ones.
    lio_obs::set_enabled(true);
    let (sblock, nblock) = (8u64, 32u64);
    for nprocs in [2u64, 3, 4] {
        let filetype = move |me: u64| {
            let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
            (
                me * sblock,
                Datatype::vector(nblock, 1, nprocs as i64, &block).unwrap(),
            )
        };
        let data = move |me: u64| pattern((nblock * sblock) as usize, me + 1);
        let mut want = Vec::new();
        for me in 0..nprocs {
            let (disp, ft) = filetype(me);
            reference_write(&mut want, disp, &ft, 0, &data(me));
        }
        for h in engines() {
            for slow in [false, true] {
                let h = h.ind_buffer(64);
                let (shared, raw) = if slow {
                    slow_staged(Vec::new())
                } else {
                    test_storage()
                };
                World::run(nprocs as usize, move |comm| {
                    let me = comm.rank() as u64;
                    let (disp, ft) = filetype(me);
                    let mut f = File::open(comm, shared.clone(), h).unwrap();
                    f.set_view(disp, Datatype::byte(), ft).unwrap();
                    let data = data(me);
                    f.write_at(0, &data, data.len() as u64, &Datatype::byte())
                        .unwrap();
                });
                let what = format!("P={nprocs}, {:?}, slow={slow}", h.engine);
                assert!(want.len() as u64 > 2 * nprocs * 64, "{what}: 2P windows");
                assert_eq!(raw.snapshot(), want, "{what}");
            }
        }
    }
    // (this binary makes no collective call: nothing else could feed it)
    assert_eq!(lio_obs::snapshot().counter("io.behind_bytes"), 0);
}

#[test]
fn read_past_eof_zero_fills() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::with_data(vec![7u8; 10]));
        let shared2 = shared.clone();
        World::run(1, move |comm| {
            let f = File::open(comm, shared2.clone(), h).unwrap();
            let mut buf = vec![0xFFu8; 20];
            let n = f.read_bytes_at(0, &mut buf).unwrap();
            assert_eq!(n, 20);
            assert_eq!(&buf[..10], &[7u8; 10]);
            assert_eq!(&buf[10..], &[0u8; 10]);
        });
    }
}

#[test]
fn zero_length_access_is_noop() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(1, move |comm| {
            let f = File::open(comm, shared2.clone(), h).unwrap();
            assert_eq!(f.write_bytes_at(5, &[]).unwrap(), 0);
            let mut empty: Vec<u8> = Vec::new();
            assert_eq!(f.read_bytes_at(5, &mut empty).unwrap(), 0);
        });
        assert_eq!(shared.len(), 0);
    }
}

#[test]
fn file_pointer_read_write() {
    for h in engines() {
        let shared = SharedFile::new(MemFile::new());
        let shared2 = shared.clone();
        World::run(1, move |comm| {
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.write(&[1, 2, 3, 4], 4, &Datatype::byte()).unwrap();
            assert_eq!(f.tell(), 4);
            f.write(&[5, 6], 2, &Datatype::byte()).unwrap();
            assert_eq!(f.tell(), 6);
            f.seek(2);
            let mut buf = [0u8; 4];
            f.read(&mut buf, 4, &Datatype::byte()).unwrap();
            assert_eq!(buf, [3, 4, 5, 6]);
            assert_eq!(f.tell(), 6);
        });
    }
}

#[test]
fn large_block_counts_both_engines() {
    // a filetype with many blocks (the regime where list-based costs blow
    // up; here we only check correctness)
    for h in engines() {
        let ft = noncontig_filetype(512, 8, 2);
        check_independent(
            h.ind_buffer(1024),
            0,
            &ft,
            &Datatype::contiguous(4096, &Datatype::byte()).unwrap(),
            1,
            0,
            &Datatype::byte(),
        );
    }
}
