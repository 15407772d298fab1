//! Every placement that claims the window lines after a run
//! (`lio_datatype::kernels::claim_ahead`) leaves the bytes the naive
//! reference leaves: the listless transfer and unpack, the list-based
//! walk of a sieved write, and the list-based IOP's walk of a collective
//! one. Two ranks share a three-slot Figure-4 view, so a third of every
//! window is a gap no rank writes; blocks are 255, 256, 1280, 4095 and
//! 4096 B, windows are shorter than the claim distance, end within it of a
//! block, or are the default; the user buffer is contiguous or holds its
//! blocks apart. Each case runs on every storage `on_each_storage` knows.

mod common;

use common::{figure4_of_blocks, on_each_storage, pattern, reference_stream, reference_write};
use lio_core::hints::DEFAULT_WINDOW;
use lio_core::{File, Hints};
use lio_datatype::kernels::CLAIM_AHEAD;
use lio_datatype::Datatype;

const RUNS: [u64; 5] = [255, 256, 1280, 4095, 4096];
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
fn claimed_placements_leave_the_reference_file() {
    for sblock in RUNS {
        let windows = [
            CLAIM_AHEAD - 548,
            (SLOTS * sblock) as usize + CLAIM_AHEAD / 2,
            DEFAULT_WINDOW,
        ];
        let len = (SLOTS * NBLOCK * sblock) as usize + 500;
        let initial = vec![UNTOUCHED; len];
        for (memtype, span) in memtypes(sblock) {
            let users: Vec<Vec<u8>> = (0..RANKS).map(|r| pattern(span, 7 * sblock + r)).collect();
            let mut want = initial.clone();
            for (rank, user) in users.iter().enumerate() {
                let stream = reference_stream(user, &memtype, 1);
                let ft = figure4_of_blocks(rank as u64, SLOTS, NBLOCK, sblock);
                reference_write(&mut want, 0, &ft, 0, &stream);
            }
            for engine in [Hints::list_based(), Hints::listless()] {
                for window in windows {
                    let hints = engine.cb_buffer(window).ind_buffer(window);
                    for collective in [false, true] {
                        let what = format!(
                            "block {sblock}, memtype span {span}, {:?}, window {window}, \
                             collective {collective}",
                            hints.engine
                        );
                        let (image, _) = on_each_storage(&what, &initial, RANKS, |comm, shared| {
                            let me = comm.rank();
                            let mut f = File::open(comm, shared, hints).unwrap();
                            let ft = figure4_of_blocks(me as u64, SLOTS, NBLOCK, sblock);
                            f.set_view(0, Datatype::byte(), ft).unwrap();
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
