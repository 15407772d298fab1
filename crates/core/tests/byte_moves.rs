//! The byte-move table (DESIGN.md §3.4), counted: how often a user byte is
//! copied on its way between the user buffer and the file, with and
//! without a storage that lends its bytes.
//!
//! The library's own copies are counted by `dt.copy.bytes`, fed by every
//! copy loop the library has (the run-program executor, the ol-list loops,
//! the list-based engine's walks); what the storage adds is counted by
//! `io.staged_bytes` (bytes through `read_at`/`write_at` from a scratch
//! buffer) and is exactly zero where `io.in_place_bytes` counts the
//! windows instead. Per user byte, at P = 2 on the Figure-4 view:
//!
//! | path                                | library | staged | in place |
//! |-------------------------------------|---------|--------|----------|
//! | sieved write, stream memory         | 1       | 5      | 1        |
//! | sieved write, strided memory        | 1       | 5      | 1        |
//! | sieved read, either memory          | 1       | 3      | 1        |
//! | collective write, list-based        | 1.5     | 2.5    | 1.5      |
//! | collective write, listless          | **1**   | **2**  | **1**    |
//! | collective read, list-based         | 1.5     | 2.5    | 1.5      |
//! | collective read, listless           | **1**   | **2**  | **1**    |
//! | nc-c write                          | 1       | 2      | 1        |
//! | c-nc read                           | 1       | 2      | 1        |
//! | c-c write                           | **0**   | 0      | 0        |
//! | c-c read                            | 1       | 2      | 1        |
//!
//! (`staged` and `in place` are the library's column plus the storage's;
//! the staged sieved rows are `5 − 2/n` and `3 − 1/n` for `n` blocks per
//! rank: a rank's access range holds `n` blocks and `n − 1` gaps. The c-c
//! write is one request straight from the user's buffer, the storage's own
//! copy, which no counter of the table sees.)
//!
//! One copy takes a byte between a user buffer and a window whatever the
//! two layouts are: a typed user buffer meets the typed window in a
//! transfer, with no pack buffer in between. So a sieved access copies
//! each byte once, and so does the part of a collective that stays on its
//! rank (the rank's own share never leaves it). No collective moves a byte
//! through a message: every rank lends the buffer its bytes lie in, and
//! each IOP moves every AP's bytes from or into it where they lie, as it
//! does its own. List-based, that buffer is a staging buffer the half of a
//! collective's bytes that changes ranks is packed into, or unpacked from,
//! as ROMIO packs it: those bytes are copied twice (user buffer → staging
//! buffer → window, or back), `(1 + 2)/2` at P = 2. Listless, it is the
//! user buffer itself: writing, every rank lends it whole for the op
//! (`lio_mpi::Comm::lend`); reading, every rank lends each IOP the piece
//! of it that its share of the IOP's domain occupies
//! (`lio_mpi::Comm::lend_mut`), and the IOP fills it — one copy on every
//! storage, and each file byte of the touched range read once.
//!
//! A write that stores a run of 256 B or more into a window the storage
//! lent streams the run's whole cache lines past the cache
//! (`dt.stream.bytes`): every byte of every write here on lending storage,
//! whose blocks are whole lines — but the c-c write, which places
//! nothing — and nothing on storage that stages, nothing of any read.
//! Of the Figure-4 8 B blocks, too short to stream one by one, only the
//! listless collective write streams: it fills every whole row of a dense
//! lent window in one pass, every rank's block of a row after the other
//! (the row zip), and streams the whole lines of those rows.
//!
//! Its own test binary with a single test: the counters are process-wide.

mod common;

use common::{figure4_filetype, pattern, real_file_with, staged};
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::{Datatype, Order};
use lio_mpi::World;
use lio_pfs::{Decorated, MemFile, Throttle, UnixFile};

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
    /// Bytes stored past the cache (`dt.stream.bytes`).
    streamed: u64,
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
        streamed: snap.counter("dt.stream.bytes"),
    }
}

/// What a write that streams every byte of its whole lines streams: the
/// bytes of `runs` (file offsets and lengths) that lie in whole 64-byte
/// lines, where x86_64 streams at all.
fn whole_lines(runs: impl Iterator<Item = (u64, u64)>) -> u64 {
    if !cfg!(target_arch = "x86_64") {
        return 0;
    }
    runs.map(|(at, len)| ((at + len) / 64).saturating_sub(at.div_ceil(64)) * 64)
        .sum()
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
            "staged(MemFile)",
            false,
            SharedFile::new(staged(MemFile::new())),
        ),
        (
            "Throttled(MemFile)",
            false,
            SharedFile::new(Decorated::new(MemFile::new(), fast)),
        ),
        // a real file lends what lies inside it (its mapping never grows
        // the file), so it starts at full size; staged, it is the same
        // file through `pread`/`pwrite`
        ("UnixFile", true, SharedFile::new(real_file())),
        (
            "staged(UnixFile)",
            false,
            SharedFile::new(staged(real_file())),
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
                // a listless collective's IOPs move each AP's bytes where
                // they lie
                let collective = path.starts_with("collective");
                let lent = hints.engine == Engine::Listless && collective;
                let lib_copies = if lent { 2 * BYTES } else { lib_copies };
                let mut want = Moved {
                    copied: lib_copies,
                    staged,
                    in_place: 0,
                    streamed: 0,
                };
                if *lends {
                    (want.staged, want.in_place) = (0, touched);
                    // the blocks are whole lines: every byte placed streams
                    if path.contains("write") && path != "c-c write" {
                        want.streamed = whole_lines([(0, 2 * BYTES)].into_iter());
                    }
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
            // changes ranks is moved twice (but listless, where the IOP moves
            // it between the window and the user buffer it was lent), the own half
            // once — from a strided user buffer as from one that is the
            // stream; the IOPs together touch the file range once
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

            // contiguous memory, contiguous file: the write is one request
            // from the user's buffer and copies nothing of the library's;
            // the read is sieved, one copy out of each window
            let got = count(shared, hints, |f, me| {
                f.write_at(me * BYTES, &data(me), BYTES, &byte).unwrap();
            });
            check("c-c write", 0, 0, 0, got);
            let got = count(shared, hints, |f, me| {
                let mut back = vec![0u8; BYTES as usize];
                f.read_at(me * BYTES, &mut back, BYTES, &byte).unwrap();
                assert_eq!(back, data(me));
            });
            check("c-c read", 2 * BYTES, 2 * BYTES, 2 * BYTES, got);
        }
    }
    println!("copies per user byte:\n  {}", table.join("\n  "));

    // The tile shape — a 3-D array of 40-byte points split in two along
    // the fastest axis, the memory tile padded with ghost points all round
    // — has half of every rank's rows in either domain too: of the two
    // ranks' bytes exactly one rank's worth goes through a staging buffer,
    // list-based, either way; listless, nothing — the write's user buffers
    // are lent whole, the read's in pieces.
    const N: u64 = 16;
    let point = Datatype::basic(40);
    let tile_bytes = N * N * (N / 2) * 40;
    let padded = [N + 2, N + 2, N / 2 + 2];
    let mem_tile =
        Datatype::subarray(&padded, &[N, N, N / 2], &[1, 1, 1], Order::C, &point).unwrap();
    // Its rows of 8 points (320 B) are runs that stream: on lending storage
    // the write of either engine streams every byte of their whole lines,
    // the rows placed from a lent user or staging buffer or the IOP's own
    // user buffer alike; on storage that stages, and reading, nothing.
    let file_tile = |me: u64, disp: u64| {
        let starts = [0, 0, me * N / 2];
        let tile =
            Datatype::subarray(&[N, N, N], &[N, N, N / 2], &starts, Order::C, &point).unwrap();
        let runs = lio_datatype::typemap::expand_merged(&tile, 1);
        let lines = whole_lines(runs.iter().map(|r| (disp + r.disp as u64, r.len)));
        (tile, lines)
    };
    for hints in [Hints::list_based(), Hints::listless()] {
        // 0: every row starts a line; 24: no row does
        for disp in [0, 24] {
            let what = format!("{:?} tile, displacement {disp}", hints.engine);
            let streams: u64 = (0..2).map(|me| file_tile(me, disp).1).sum();
            for (lends, shared) in [
                (true, SharedFile::new(MemFile::new())),
                (false, SharedFile::new(staged(MemFile::new()))),
            ] {
                let view = |f: &mut File, me: u64| {
                    f.set_view(disp, Datatype::byte(), file_tile(me, disp).0)
                        .unwrap()
                };
                let got = count(&shared, hints, |f, me| {
                    view(f, me);
                    let user = pattern(mem_tile.extent() as usize, me + 3);
                    f.write_at_all(0, &user, 1, &mem_tile).unwrap();
                });
                let listless = hints.engine == Engine::Listless;
                let copies = if listless { 2 } else { 3 } * tile_bytes;
                assert_eq!(got.copied, copies, "{what} write");
                let want = if lends { streams } else { 0 };
                assert_eq!(got.streamed, want, "{what} write, lending {lends}");
                let got = count(&shared, hints, |f, me| {
                    view(f, me);
                    let mut back = vec![0u8; mem_tile.extent() as usize];
                    f.read_at_all(0, &mut back, 1, &mem_tile).unwrap();
                });
                assert_eq!(got.copied, copies, "{what} read");
                let in_place = if lends { 2 * tile_bytes } else { 0 };
                assert_eq!(got.in_place, in_place, "{what} read");
                assert_eq!(got.streamed, 0, "{what} read");
            }
        }
    }
    if cfg!(target_arch = "x86_64") {
        assert_eq!(file_tile(0, 0).1 + file_tile(1, 0).1, 2 * tile_bytes);
    }

    // The Figure-4 shapes of the small benchmark rows, 8 B blocks, on
    // storage that lends. A sieved write streams nothing, nor does the
    // list-based engine or any read; the listless collective write fills
    // every whole row of its dense windows in one pass (the row zip) and
    // streams their whole lines — all of the file here, whose windows lie
    // on the line grid. The copies per user byte stay those of the table.
    const FIG4: u64 = 4096 * 8;
    let shared = SharedFile::new(MemFile::new());
    for hints in [Hints::list_based(), Hints::listless()] {
        let what = format!("{:?} 8 B blocks", hints.engine);
        let view = |f: &mut File, me: u64| {
            f.set_view(0, byte.clone(), figure4_filetype(me, 2, 4096, 8))
                .unwrap();
        };
        let data = |me: u64| pattern(FIG4 as usize, me + 5);
        let got = count(&shared, hints, |f, me| {
            view(f, me);
            f.write_at(0, &data(me), FIG4, &byte).unwrap();
        });
        assert!(got.in_place > 0, "{what}");
        assert_eq!((got.copied, got.streamed), (2 * FIG4, 0), "{what}, sieved");
        let got = count(&shared, hints, |f, me| {
            view(f, me);
            f.write_at_all(0, &data(me), FIG4, &byte).unwrap();
        });
        let listless = hints.engine == Engine::Listless;
        let copies = if listless { 2 * FIG4 } else { 3 * FIG4 };
        let streams = if listless {
            whole_lines([(0, 2 * FIG4)].into_iter())
        } else {
            0
        };
        assert_eq!((got.in_place, got.copied), (2 * FIG4, copies), "{what}");
        assert_eq!(got.streamed, streams, "{what}, collective write");
        let got = count(&shared, hints, |f, me| {
            view(f, me);
            let mut back = vec![0u8; FIG4 as usize];
            f.read_at_all(0, &mut back, FIG4, &byte).unwrap();
            assert_eq!(back, data(me));
        });
        assert_eq!(
            (got.copied, got.streamed),
            (copies, 0),
            "{what}, collective read"
        );
    }
}
