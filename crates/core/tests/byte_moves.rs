//! The byte-move table (DESIGN.md §3.4), counted: how often a user byte is
//! copied on its way between the user buffer and the file, with and
//! without a storage that lends its bytes.
//!
//! The library's own copies are counted by `dt.copy.bytes`, fed by every
//! copy loop the library has (the run-program executor, the ol-list loops,
//! the list-based engine's walks); what the storage adds is counted by
//! `io.staged_bytes` (bytes through `read_at`/`write_at` from a scratch
//! buffer) and is exactly zero where `io.in_place_bytes` counts the
//! windows instead. Per user byte, at P = 2 on the Figure-4 view, for both
//! engines:
//!
//! | path                              | library | staged | in place |
//! |-----------------------------------|---------|--------|----------|
//! | sieved write, stream memory       | 1       | 5      | 1        |
//! | sieved write, strided memory      | 1       | 5      | 1        |
//! | sieved read, either memory        | 1       | 3      | 1        |
//! | collective write, either memory   | 1.5     | 2.5    | 1.5      |
//! | collective read, list-based       | 1.5     | 2.5    | 1.5      |
//! | collective read, listless         | 1.5     | 2.5    | **1**    |
//! | nc-c write                        | 1       | 2      | 1        |
//! | c-nc read                         | 1       | 2      | 1        |
//!
//! (`staged` and `in place` are the library's column plus the storage's;
//! the staged sieved rows are `5 − 2/n` and `3 − 1/n` for `n` blocks per
//! rank: a rank's access range holds `n` blocks and `n − 1` gaps.)
//!
//! One copy takes a byte between a user buffer and a window whatever the
//! two layouts are: a typed user buffer meets the typed window in a
//! transfer, with no pack buffer in between. So a sieved access copies
//! each byte once, and so does the part of a collective that stays on its
//! rank (the rank's own share is no message); the half of a collective's
//! bytes that changes ranks is copied twice (user buffer → message,
//! message → window): `(1 + 2)/2` at P = 2.
//! `core.coll.exchange.data_bytes` counts the half that travels, exactly.
//!
//! A listless collective read on storage that lends its bytes to every
//! rank is *routed*: each rank's own sieved read, so it is the sieved-read
//! row — one copy, nothing exchanged, the rank's access range lent —
//! and `core.coll.read.routed` counts it beside `core.coll.read.calls`.
//! Staged, and list-based on any storage, it stays two-phase.
//!
//! Its own test binary with a single test: the counters are process-wide.

mod common;

use common::{figure4_filetype, pattern, real_file_with, Staged};
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::{Datatype, Order};
use lio_mpi::World;
use lio_pfs::{MemFile, Throttle, ThrottledFile, UnixFile};

const NBLOCK: u64 = 512;
const SBLOCK: u64 = 1024;
/// User bytes per rank and operation; a whole number of default windows,
/// so that a collective window is exactly full.
const BYTES: u64 = NBLOCK * SBLOCK;
/// A rank's sieved access range: its blocks and the gaps between them.
const RANGE: u64 = (2 * NBLOCK - 1) * SBLOCK;

#[derive(Debug, PartialEq)]
struct Moved {
    /// Bytes the library's copy loops moved (`dt.copy.bytes`).
    copied: u64,
    staged: u64,
    in_place: u64,
    /// Payload that left its rank (`core.coll.exchange.data_bytes`).
    exchanged: u64,
    /// `core.coll.read.calls`, and how many of them were routed.
    coll_reads: u64,
    routed: u64,
}

/// What the counters read after both ranks ran `op` once.
fn count(shared: &SharedFile, hints: Hints, op: impl Fn(&mut File, u64) + Sync) -> Moved {
    World::run(2, |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        comm.barrier();
        if me == 0 {
            lio_obs::reset();
            lio_obs::set_enabled(true);
        }
        comm.barrier();
        op(&mut f, me);
        comm.barrier();
        if me == 0 {
            lio_obs::set_enabled(false);
        }
    });
    let snap = lio_obs::snapshot();
    Moved {
        copied: snap.counter("dt.copy.bytes"),
        staged: snap.counter("io.staged_bytes"),
        in_place: snap.counter("io.in_place_bytes"),
        exchanged: snap.counter("core.coll.exchange.data_bytes"),
        coll_reads: snap.counter("core.coll.read.calls"),
        routed: snap.counter("core.coll.read.routed"),
    }
}

/// A real file that already holds every byte the table's accesses touch.
fn real_file() -> UnixFile {
    real_file_with(&vec![0u8; 2 * BYTES as usize])
}

#[test]
fn copies_per_user_byte_with_and_without_lent_bytes() {
    // (name, whether it lends its bytes, a fresh file)
    let fast = Throttle {
        read_bw: 1e12,
        write_bw: 1e12,
        latency: std::time::Duration::ZERO,
    };
    let storages = [
        ("MemFile", true, SharedFile::new(MemFile::new())),
        (
            "Staged(MemFile)",
            false,
            SharedFile::new(Staged(MemFile::new())),
        ),
        (
            "ThrottledFile",
            false,
            SharedFile::new(ThrottledFile::new(MemFile::new(), fast)),
        ),
        // a real file lends what lies inside it (its mapping never grows
        // the file), so it starts at full size; staged, it is the same
        // file through `pread`/`pwrite`
        ("UnixFile", true, SharedFile::new(real_file())),
        (
            "Staged(UnixFile)",
            false,
            SharedFile::new(Staged(real_file())),
        ),
    ];
    let byte = Datatype::byte();
    let view = |f: &mut File, me: u64| {
        f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
            .unwrap();
    };
    let mut table = Vec::new();
    for hints in [Hints::list_based(), Hints::listless()] {
        for (name, lends, shared) in &storages {
            // `lib_copies`: what the library's copy loops move; `staged`:
            // bytes through read_at/write_at; `touched`: window bytes the
            // op works on — each per op, both ranks together. Of a
            // collective's bytes exactly one rank's worth changes ranks.
            let mut check = |path: &str, lib_copies: u64, staged: u64, touched: u64, got: Moved| {
                let exchanged = if path.starts_with("collective") {
                    BYTES
                } else {
                    0
                };
                let coll_reads = if path.starts_with("collective read") {
                    2
                } else {
                    0
                };
                let mut want = Moved {
                    copied: lib_copies,
                    staged,
                    in_place: 0,
                    exchanged,
                    coll_reads,
                    routed: 0,
                };
                if *lends {
                    (want.staged, want.in_place) = (0, touched);
                }
                // every rank was lent its bytes and navigates without a
                // list: the collective read is the sieved read of each
                if *lends && coll_reads > 0 && hints.engine == Engine::Listless {
                    want = Moved {
                        copied: 2 * BYTES,
                        in_place: 2 * RANGE,
                        exchanged: 0,
                        routed: coll_reads,
                        ..want
                    };
                }
                assert_eq!(got, want, "{:?} {name} {path}", hints.engine);
                let per_byte = (got.copied + got.staged) as f64 / (2 * BYTES) as f64;
                table.push(format!("{:?} {name} {path}: {per_byte:.3}", hints.engine));
            };
            let data = |me: u64| pattern(BYTES as usize, me + 1);
            // strided memory, for the collective rows and the contiguous file
            let block = Datatype::contiguous(SBLOCK, &byte).unwrap();
            let memtype = Datatype::vector(NBLOCK, 1, 2, &block).unwrap();
            let user = |me: u64| pattern(memtype.extent() as usize, me + 9);

            // every window is half ours: read, merged, written back; one
            // copy takes a byte from the user buffer to the window,
            // whether that buffer is the stream or holds it in blocks
            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at(0, &data(me), BYTES, &byte).unwrap();
            });
            let (staged, touched) = (2 * 2 * RANGE, 2 * RANGE);
            check(
                "sieved write, stream memory",
                2 * BYTES,
                staged,
                touched,
                got,
            );
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; BYTES as usize];
                f.read_at(0, &mut back, BYTES, &byte).unwrap();
                assert_eq!(back, data(me));
            });
            check(
                "sieved read, stream memory",
                2 * BYTES,
                touched,
                touched,
                got,
            );
            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at(0, &user(me), 1, &memtype).unwrap();
            });
            check(
                "sieved write, strided memory",
                2 * BYTES,
                staged,
                touched,
                got,
            );
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; memtype.extent() as usize];
                f.read_at(0, &mut back, 1, &memtype).unwrap();
            });
            check(
                "sieved read, strided memory",
                2 * BYTES,
                touched,
                touched,
                got,
            );

            // the ranks' data fills every window: no pre-read; the half that
            // changes ranks is moved twice, the own half once — from a
            // strided user buffer as from one that is the stream
            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at_all(0, &data(me), BYTES, &byte).unwrap();
            });
            let (staged, touched) = (2 * BYTES, 2 * BYTES);
            let path = "collective write, stream memory";
            check(path, 3 * BYTES, staged, touched, got);
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; BYTES as usize];
                f.read_at_all(0, &mut back, BYTES, &byte).unwrap();
                assert_eq!(back, data(me));
            });
            let path = "collective read, stream memory";
            check(path, 3 * BYTES, staged, touched, got);
            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at_all(0, &user(me), 1, &memtype).unwrap();
            });
            let path = "collective write, strided memory";
            check(path, 3 * BYTES, staged, touched, got);
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; memtype.extent() as usize];
                f.read_at_all(0, &mut back, 1, &memtype).unwrap();
            });
            let path = "collective read, strided memory";
            check(path, 3 * BYTES, staged, touched, got);

            // strided memory, contiguous file: rank `me` owns its half
            let got = count(shared, hints, |f, me| {
                f.write_at(me * BYTES, &user(me), 1, &memtype).unwrap();
            });
            check("nc-c write", 2 * BYTES, 2 * BYTES, 2 * BYTES, got);
            let got = count(shared, hints, |f, me| {
                let mut back = vec![0u8; memtype.extent() as usize];
                f.read_at(me * BYTES, &mut back, 1, &memtype).unwrap();
            });
            check("c-nc read", 2 * BYTES, 2 * BYTES, 2 * BYTES, got);
        }
    }
    println!("copies per user byte:\n  {}", table.join("\n  "));

    // The tile shape — a 3-D array of 40-byte points split in two along
    // the fastest axis, the memory tile padded with ghost points all round
    // — has half of every rank's rows in either domain too: of the two
    // ranks' bytes exactly one rank's worth travels, either way — but for
    // the listless read, which on a `MemFile` is routed.
    const N: u64 = 16;
    let point = Datatype::basic(40);
    let tile_bytes = N * N * (N / 2) * 40;
    let padded = [N + 2, N + 2, N / 2 + 2];
    let mem_tile =
        Datatype::subarray(&padded, &[N, N, N / 2], &[1, 1, 1], Order::C, &point).unwrap();
    for hints in [Hints::list_based(), Hints::listless()] {
        let shared = SharedFile::new(MemFile::new());
        let file_tile = |f: &mut File, me: u64| {
            let starts = [0, 0, me * N / 2];
            let tile =
                Datatype::subarray(&[N, N, N], &[N, N, N / 2], &starts, Order::C, &point).unwrap();
            f.set_view(0, Datatype::byte(), tile).unwrap();
        };
        let got = count(&shared, hints, |f, me| {
            file_tile(f, me);
            let user = pattern(mem_tile.extent() as usize, me + 3);
            f.write_at_all(0, &user, 1, &mem_tile).unwrap();
        });
        assert_eq!(got.exchanged, tile_bytes, "{:?} tile write", hints.engine);
        let got = count(&shared, hints, |f, me| {
            file_tile(f, me);
            let mut back = vec![0u8; mem_tile.extent() as usize];
            f.read_at_all(0, &mut back, 1, &mem_tile).unwrap();
        });
        let routed = hints.engine == Engine::Listless;
        let travels = if routed { 0 } else { tile_bytes };
        assert_eq!(got.exchanged, travels, "{:?} tile read", hints.engine);
        assert_eq!(
            got.routed,
            2 * routed as u64,
            "{:?} tile read",
            hints.engine
        );
    }
}
