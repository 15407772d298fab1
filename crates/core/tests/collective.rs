//! Collective I/O: both engines vs the reference, across process counts,
//! IOP counts, buffer sizes, and view shapes — including the noncontig
//! benchmark's interleaved pattern and BTIO-style subarrays. Every case
//! that reads back collectively runs on the environment's storage (a bare
//! `MemFile` by default, whose windows the IOPs work on in place) and on
//! staging storage: `LENDING_AND_STAGED`.

mod common;

use common::{
    apply_comm_faults, check_partial_participation, pattern, reference_write, test_storage,
    LENDING_AND_STAGED,
};
use common::{MakeStorage, SnapHandle};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field, Order};
use lio_mpi::World;

fn engines() -> Vec<Hints> {
    vec![Hints::list_based(), Hints::listless()]
}

/// Every engine on the environment's storage and on staging storage: the
/// cases of a test that reads back collectively.
fn engines_on_both_storages() -> Vec<(Hints, MakeStorage)> {
    let on_both = |h| LENDING_AND_STAGED.map(|storage| (h, storage));
    engines().into_iter().flat_map(on_both).collect()
}

/// The noncontig benchmark's fileview for rank p of P (Figure 4): an
/// LB/vector/UB struct with disp = p·blocklen, stride = P·blocklen.
fn noncontig_view(p: u64, nprocs: u64, nblock: u64, sblock: u64) -> (u64, Datatype) {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, nprocs as i64, &block).unwrap();
    let extent = nblock * nprocs * sblock;
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

/// Every rank writes its interleaved stripe collectively; the file must
/// contain the perfectly interleaved pattern, and collective read-back
/// must return each rank its own data.
fn run_noncontig_collective(hints: Hints, nprocs: u64, nblock: u64, sblock: u64) {
    let want = noncontig_reference(nprocs, nblock, sblock, 0);
    run_noncontig_collective_at(hints, nprocs, nblock, sblock, 0, want);
}

/// The file [`run_noncontig_collective_at`] must produce, per the naive
/// reference.
fn noncontig_reference(nprocs: u64, nblock: u64, sblock: u64, base: u64) -> Vec<u8> {
    let mut want: Vec<u8> = Vec::new();
    for p in 0..nprocs {
        let (disp, ft) = noncontig_view(p, nprocs, nblock, sblock);
        let data = pattern((nblock * sblock) as usize, p + 1);
        reference_write(&mut want, base + disp, &ft, 0, &data);
    }
    want
}

/// [`run_noncontig_collective`] with the whole pattern moved `base` bytes
/// into the file; `want` is [`noncontig_reference`] of the same numbers.
fn run_noncontig_collective_at(
    hints: Hints,
    nprocs: u64,
    nblock: u64,
    sblock: u64,
    base: u64,
    want: Vec<u8>,
) {
    for storage in LENDING_AND_STAGED {
        run_noncontig_collective_on(
            storage(Vec::new()),
            hints,
            nprocs,
            nblock,
            sblock,
            base,
            &want,
        );
    }
}

fn run_noncontig_collective_on(
    (shared, mem): (SharedFile, SnapHandle),
    hints: Hints,
    nprocs: u64,
    nblock: u64,
    sblock: u64,
    base: u64,
    want: &[u8],
) {
    let mut want = want.to_vec();
    let shared2 = shared.clone();
    World::run(nprocs as usize, move |comm| {
        apply_comm_faults(comm);
        let me = comm.rank() as u64;
        let (disp, ft) = noncontig_view(me, nprocs, nblock, sblock);
        let mut f = File::open(comm, shared2.clone(), hints).unwrap();
        f.set_view(base + disp, Datatype::byte(), ft).unwrap();
        let data = pattern((nblock * sblock) as usize, me + 1);
        let n = f
            .write_at_all(0, &data, data.len() as u64, &Datatype::byte())
            .unwrap();
        assert_eq!(n, nblock * sblock);

        // collective read-back
        let mut back = vec![0u8; data.len()];
        let blen = back.len() as u64;
        let n = f
            .read_at_all(0, &mut back, blen, &Datatype::byte())
            .unwrap();
        assert_eq!(n, nblock * sblock);
        assert_eq!(back, data, "rank {me} read back wrong data");
    });

    // verify the interleaving against the reference
    let mut snap = mem.snapshot();
    let n = snap.len().max(want.len());
    snap.resize(n, 0);
    want.resize(n, 0);
    assert!(
        snap == want,
        "collective file contents differ from reference \
         (P={nprocs} base={base} cb={} {:?})",
        hints.cb_buffer_size,
        hints.engine
    );
}

#[test]
fn collective_interleaved_2_ranks() {
    for h in engines() {
        run_noncontig_collective(h, 2, 16, 8);
    }
}

#[test]
fn collective_interleaved_4_ranks() {
    for h in engines() {
        run_noncontig_collective(h, 4, 32, 8);
    }
}

#[test]
fn collective_interleaved_odd_ranks() {
    for h in engines() {
        run_noncontig_collective(h, 3, 10, 24);
    }
}

#[test]
fn collective_single_rank() {
    for h in engines() {
        run_noncontig_collective(h, 1, 8, 16);
    }
}

#[test]
fn collective_tiny_cb_buffer() {
    // force many IOP windows
    for h in engines() {
        run_noncontig_collective(h.cb_buffer(64), 4, 16, 8);
    }
}

#[test]
fn collective_windows_around_the_default_at_displaced_views() {
    // 1.8 MB over three ranks in 1000 B blocks: several windows per file
    // domain whose edges cut blocks, at the default window, one byte either
    // side of it and a size off the page grid; the pattern starts on, just
    // off and a whole window short of a grid line.
    let w = Hints::default().cb_buffer_size;
    for base in [0, 1, 4095, 4097, w as u64 - 1] {
        let want = noncontig_reference(3, 600, 1000, base);
        for h in engines() {
            for cb in [w, w - 1, w + 1, 100_000] {
                run_noncontig_collective_at(h.cb_buffer(cb), 3, 600, 1000, base, want.clone());
            }
        }
    }
}

#[test]
fn collective_single_iop() {
    for h in engines() {
        run_noncontig_collective(h.io_nodes(1), 4, 16, 8);
    }
}

#[test]
fn collective_two_iops_of_four() {
    for h in engines() {
        run_noncontig_collective(h.io_nodes(2), 4, 16, 8);
    }
}

#[test]
fn collective_tiny_blocks() {
    // Sblock = 1: metadata dwarfs data in the list-based engine
    for h in engines() {
        run_noncontig_collective(h, 4, 64, 1);
    }
}

#[test]
fn both_engines_produce_identical_files() {
    let mut snaps = Vec::new();
    for h in engines() {
        let (shared, mem) = test_storage();
        let shared2 = shared.clone();
        World::run(4, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let (disp, ft) = noncontig_view(me, 4, 24, 8);
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(disp, Datatype::byte(), ft).unwrap();
            let data = pattern(24 * 8, me * 31 + 7);
            f.write_at_all(0, &data, data.len() as u64, &Datatype::byte())
                .unwrap();
        });
        snaps.push(mem.snapshot());
    }
    assert_eq!(snaps[0], snaps[1], "engines disagree on file contents");
}

#[test]
fn collective_subarray_2d_tiles() {
    // a 2D array partitioned into quadrant tiles, BTIO-style
    let rows = 16u64;
    let cols = 16u64;
    let esz = 8u64;
    for (h, storage) in engines_on_both_storages() {
        let (shared, mem) = storage(Vec::new());
        let shared2 = shared.clone();
        World::run(4, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let (r0, c0) = ((me / 2) * rows / 2, (me % 2) * cols / 2);
            let ft = Datatype::subarray(
                &[rows, cols],
                &[rows / 2, cols / 2],
                &[r0, c0],
                Order::C,
                &Datatype::double(),
            )
            .unwrap();
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(0, Datatype::double(), ft).unwrap();
            let tile_bytes = (rows / 2) * (cols / 2) * esz;
            let data = pattern(tile_bytes as usize, me + 11);
            f.write_at_all(0, &data, tile_bytes, &Datatype::byte())
                .unwrap();
            let mut back = vec![0u8; tile_bytes as usize];
            f.read_at_all(0, &mut back, tile_bytes, &Datatype::byte())
                .unwrap();
            assert_eq!(back, data);
        });
        // whole file must be written (tiles partition the array)
        assert_eq!(shared.len(), rows * cols * esz);
        // spot-check the placement of rank 3's tile (bottom-right)
        let snap = mem.snapshot();
        let d3 = pattern((rows / 2 * cols / 2 * esz) as usize, 3 + 11);
        let row = rows / 2; // first row of the tile
        let off = ((row * cols + cols / 2) * esz) as usize;
        assert_eq!(
            &snap[off..off + (cols / 2 * esz) as usize],
            &d3[..(cols / 2 * esz) as usize]
        );
    }
}

#[test]
fn collective_with_noncontig_memtype() {
    // nc-nc collectively: memtype is a strided vector
    for (h, storage) in engines_on_both_storages() {
        let (shared, _mem) = storage(Vec::new());
        let shared2 = shared.clone();
        World::run(2, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let (disp, ft) = noncontig_view(me, 2, 8, 16);
            let mt = Datatype::vector(16, 1, 2, &Datatype::double()).unwrap();
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(disp, Datatype::byte(), ft).unwrap();
            let user = pattern(mt.extent() as usize, me + 5);
            f.write_at_all(0, &user, 1, &mt).unwrap();
            let mut back = vec![0u8; user.len()];
            f.read_at_all(0, &mut back, 1, &mt).unwrap();
            // only the memtype's data positions are defined
            for r in lio_datatype::typemap::expand(&mt, 1) {
                let o = r.disp as usize;
                assert_eq!(&back[o..o + r.len as usize], &user[o..o + r.len as usize]);
            }
        });
    }
}

#[test]
fn collective_ranks_at_different_offsets() {
    // each rank writes a different offset of the same shared byte view
    for h in engines() {
        let (shared, mem) = test_storage();
        let shared2 = shared.clone();
        World::run(4, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let f = File::open(comm, shared2.clone(), h).unwrap();
            let data = vec![me as u8 + 1; 100];
            f.write_at_all(me * 100, &data, 100, &Datatype::byte())
                .unwrap();
        });
        let snap = mem.snapshot();
        assert_eq!(snap.len(), 400);
        for (i, b) in snap.iter().enumerate() {
            assert_eq!(*b as usize, i / 100 + 1);
        }
    }
}

#[test]
fn collective_some_ranks_empty() {
    // ranks 2 and 3 contribute nothing but still participate
    for h in engines() {
        let (shared, _mem) = test_storage();
        let shared2 = shared.clone();
        World::run(4, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let f = File::open(comm, shared2.clone(), h).unwrap();
            if me < 2 {
                let data = vec![me as u8 + 1; 64];
                f.write_at_all(me * 64, &data, 64, &Datatype::byte())
                    .unwrap();
            } else {
                f.write_at_all(0, &[], 0, &Datatype::byte()).unwrap();
            }
        });
        assert_eq!(shared.len(), 128);
    }
}

#[test]
fn collective_partial_participation_keeps_untouched_bytes() {
    // rank 1 writes nothing, one block, half of its view; one window per
    // domain and many
    for h in engines() {
        for cb in [Hints::default().cb_buffer_size, 4 << 20, 96] {
            for r1_bytes in [0, 8, 256] {
                for storage in LENDING_AND_STAGED {
                    check_partial_participation(storage, h.cb_buffer(cb), r1_bytes);
                }
            }
        }
    }
}

#[test]
fn collective_all_ranks_empty() {
    for (h, storage) in engines_on_both_storages() {
        let (shared, _mem) = storage(Vec::new());
        let shared2 = shared.clone();
        World::run(3, move |comm| {
            apply_comm_faults(comm);
            let f = File::open(comm, shared2.clone(), h).unwrap();
            f.write_at_all(0, &[], 0, &Datatype::byte()).unwrap();
            let mut nothing: Vec<u8> = Vec::new();
            f.read_at_all(0, &mut nothing, 0, &Datatype::byte())
                .unwrap();
        });
        assert_eq!(shared.len(), 0);
    }
}

#[test]
fn repeated_collectives_on_same_view() {
    // BTIO writes the array every step: many collectives on one view
    for (h, storage) in engines_on_both_storages() {
        let (shared2, _mem) = storage(Vec::new());
        World::run(2, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let (disp, ft) = noncontig_view(me, 2, 8, 8);
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(disp, Datatype::byte(), ft).unwrap();
            let step_bytes = 8 * 8;
            for step in 0..5u64 {
                let data = pattern(step_bytes, me * 100 + step);
                f.write_at_all(
                    step * step_bytes as u64,
                    &data,
                    step_bytes as u64,
                    &Datatype::byte(),
                )
                .unwrap();
            }
            // read back step 3
            let mut back = vec![0u8; step_bytes];
            f.read_at_all(
                3 * step_bytes as u64,
                &mut back,
                step_bytes as u64,
                &Datatype::byte(),
            )
            .unwrap();
            assert_eq!(back, pattern(step_bytes, me * 100 + 3));
        });
    }
}

#[test]
fn collective_read_of_preexisting_file() {
    // reads from a file written externally
    for (h, storage) in engines_on_both_storages() {
        let content = pattern(1024, 42);
        let (shared2, _mem) = storage(content.clone());
        let content2 = content.clone();
        World::run(4, move |comm| {
            apply_comm_faults(comm);
            let me = comm.rank() as u64;
            let (disp, ft) = noncontig_view(me, 4, 16, 8);
            let mut f = File::open(comm, shared2.clone(), h).unwrap();
            f.set_view(disp, Datatype::byte(), ft).unwrap();
            let mut back = vec![0u8; 16 * 8];
            f.read_at_all(0, &mut back, 16 * 8, &Datatype::byte())
                .unwrap();
            // rank me owns bytes disp + k*32 .. +8 of the file
            for blk in 0..16usize {
                let fo = me as usize * 8 + blk * 32;
                assert_eq!(
                    &back[blk * 8..blk * 8 + 8],
                    &content2[fo..fo + 8],
                    "rank {me} block {blk}"
                );
            }
        });
    }
}

#[test]
fn mixed_engines_independent_of_each_other() {
    // two separate files, one per engine, interleaved in the same world
    let (shared_a, mem_a) = test_storage();
    let (shared_b, mem_b) = test_storage();
    let (sa, sb) = (shared_a.clone(), shared_b.clone());
    World::run(2, move |comm| {
        apply_comm_faults(comm);
        let me = comm.rank() as u64;
        let (disp, ft) = noncontig_view(me, 2, 4, 8);
        let mut fa = File::open(comm, sa.clone(), Hints::list_based()).unwrap();
        let mut fb = File::open(comm, sb.clone(), Hints::listless()).unwrap();
        fa.set_view(disp, Datatype::byte(), ft.clone()).unwrap();
        fb.set_view(disp, Datatype::byte(), ft).unwrap();
        let data = pattern(32, me);
        fa.write_at_all(0, &data, 32, &Datatype::byte()).unwrap();
        fb.write_at_all(0, &data, 32, &Datatype::byte()).unwrap();
    });
    assert_eq!(mem_a.snapshot(), mem_b.snapshot());
}
