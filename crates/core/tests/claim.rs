//! Every placement that streams its whole lines into a window the storage
//! lent (`lio_datatype::kernels::Stores`) leaves the bytes the naive
//! reference leaves: the listless transfer and unpack, the list-based
//! walk of a sieved write, and the list-based IOP's walk of a collective
//! one. Two ranks share a three-slot Figure-4 view, so a third of every
//! window is a gap no rank writes; blocks are 255, 256, 257, 1280, 4095,
//! 4096 and 16384 B, the view starts on a cache line or 13 bytes past one,
//! windows are shorter than 2 KiB (and not a whole number of lines), end
//! within 1 KiB of a block, or are the default; the 16384 B blocks
//! reach past the first `MemFile` stripe, and at displacement 13 one of
//! them is cut by it. The user buffer is contiguous or holds its blocks
//! apart. Each case runs on every storage `on_each_storage` knows — lending
//! and staging `MemFile`s, and a mapped real file — for both engines.

mod common;

use common::{figure4_of_blocks, on_each_storage, pattern, reference_stream, reference_write};
use lio_core::hints::DEFAULT_WINDOW;
use lio_core::{File, Hints};
use lio_datatype::Datatype;

const RUNS: [u64; 7] = [255, 256, 257, 1280, 4095, 4096, 16384];
/// View displacements: on the cache-line grid, and off it.
const DISPS: [u64; 2] = [0, 13];
const RANKS: u64 = 2;
/// Figure-4 slots per view instance: one more than there are ranks.
const SLOTS: u64 = 3;
const NBLOCK: u64 = 6;
const UNTOUCHED: u8 = 0xEE;

/// Each rank's memtype and the user buffer it lays out: one run of bytes,
/// or the blocks 24 B apart.
fn memtypes(sblock: u64) -> [(Datatype, usize); 2] {
    let total = NBLOCK * sblock;
    let apart = Datatype::hvector(
        NBLOCK,
        1,
        sblock as i64 + 24,
        &Datatype::basic(sblock as u32),
    )
    .unwrap();
    let span = apart.data_ub() as usize;
    [
        (
            Datatype::contiguous(total, &Datatype::byte()).unwrap(),
            total as usize,
        ),
        (apart, span),
    ]
}

#[test]
fn streamed_placements_leave_the_reference_file() {
    for sblock in RUNS {
        let windows = [1500, (SLOTS * sblock) as usize + 1024, DEFAULT_WINDOW];
        for disp in DISPS {
            for (memtype, span) in memtypes(sblock) {
                let len = (disp + SLOTS * NBLOCK * sblock) as usize + 500;
                let initial = vec![UNTOUCHED; len];
                let users: Vec<Vec<u8>> =
                    (0..RANKS).map(|r| pattern(span, 7 * sblock + r)).collect();
                let mut want = initial.clone();
                for (rank, user) in users.iter().enumerate() {
                    let stream = reference_stream(user, &memtype, 1);
                    let ft = figure4_of_blocks(rank as u64, SLOTS, NBLOCK, sblock);
                    reference_write(&mut want, disp, &ft, 0, &stream);
                }
                for engine in [Hints::list_based(), Hints::listless()] {
                    for window in windows {
                        let hints = engine.cb_buffer(window).ind_buffer(window);
                        for collective in [false, true] {
                            let what = format!(
                                "block {sblock}, displacement {disp}, memtype span {span}, {:?}, \
                             window {window}, collective {collective}",
                                hints.engine
                            );
                            let (image, _) =
                                on_each_storage(&what, &initial, RANKS, |comm, shared| {
                                    let me = comm.rank();
                                    let mut f = File::open(comm, shared, hints).unwrap();
                                    let ft = figure4_of_blocks(me as u64, SLOTS, NBLOCK, sblock);
                                    f.set_view(disp, Datatype::byte(), ft).unwrap();
                                    let user = &users[me];
                                    let n = if collective {
                                        f.write_at_all(0, user, 1, &memtype)
                                    } else {
                                        f.write_at(0, user, 1, &memtype)
                                    };
                                    assert_eq!(n.unwrap(), NBLOCK * sblock, "{what}");
                                    f.sync().unwrap();
                                });
                            assert!(image == want, "{what}: the file differs from the reference");
                        }
                    }
                }
            }
        }
    }
}
