//! The byte-move table (DESIGN.md §3.4), counted: how often a user byte is
//! copied on its way between the user buffer and the file, with and
//! without a storage that lends its bytes.
//!
//! The library-side copies are fixed by the path — pack and place (two)
//! on the sieved and collective paths, one pack or unpack on the
//! contiguous-file paths. What the storage adds is counted by
//! `io.staged_bytes` (bytes through `read_at`/`write_at` from a scratch
//! buffer) and is exactly zero where `io.in_place_bytes` counts the
//! windows instead. Per user byte, at P = 2 on the Figure-4 view:
//!
//! | path             | staged | in place |
//! |------------------|--------|----------|
//! | sieved write     | 6      | 2        |
//! | sieved read      | 4      | 2        |
//! | collective write | 3      | 2        |
//! | collective read  | 3      | 2        |
//! | nc-c write       | 2      | 1        |
//! | c-nc read        | 2      | 1        |
//!
//! (The sieved rows are `6 − 2/n` and `4 − 1/n` for `n` blocks per rank:
//! a rank's access range holds `n` blocks and `n − 1` gaps.)
//!
//! Its own test binary with a single test: the counters are process-wide.
//! Like `pipeline_mem` it relies on the `two_phase_pipeline` *hint* (the
//! pipelined schedule stages on every storage and bypasses the counters)
//! and is not meaningful under a forcing `LIO_PIPELINE`.

mod common;

use common::{figure4_filetype, pattern, Staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::{MemFile, OsFile, Throttle, ThrottledFile};

const NBLOCK: u64 = 512;
const SBLOCK: u64 = 1024;
/// User bytes per rank and operation; a whole number of default windows,
/// so that a collective window is exactly full.
const BYTES: u64 = NBLOCK * SBLOCK;
/// A rank's sieved access range: its blocks and the gaps between them.
const RANGE: u64 = (2 * NBLOCK - 1) * SBLOCK;

#[derive(Debug, PartialEq)]
struct Moved {
    staged: u64,
    in_place: u64,
}

/// What the two counters read after both ranks ran `op` once.
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
        staged: snap.counter("io.staged_bytes"),
        in_place: snap.counter("io.in_place_bytes"),
    }
}

#[test]
fn copies_per_user_byte_with_and_without_lent_bytes() {
    if Hints::default().pipelined(false).pipeline_enabled() {
        return; // see the module docs
    }
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
        (
            "OsFile",
            false,
            SharedFile::new(OsFile::temp().expect("temp file for the os backend")),
        ),
    ];
    let byte = Datatype::byte();
    let view = |f: &mut File, me: u64| {
        f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
            .unwrap();
    };
    let mut table = Vec::new();
    for engine in [Hints::list_based(), Hints::listless()] {
        let hints = engine.pipelined(false);
        for (name, lends, shared) in &storages {
            // `staged`: bytes through read_at/write_at per op, both ranks;
            // `touched`: window bytes the op works on
            let mut check = |path: &str, lib_copies: u64, staged: u64, touched: u64, got: Moved| {
                let want = if *lends {
                    Moved {
                        staged: 0,
                        in_place: touched,
                    }
                } else {
                    Moved {
                        staged,
                        in_place: 0,
                    }
                };
                assert_eq!(got, want, "{:?} {name} {path}", hints.engine);
                let per_byte = (lib_copies * 2 * BYTES + got.staged) as f64 / (2 * BYTES) as f64;
                table.push(format!("{:?} {name} {path}: {per_byte:.3}", hints.engine));
            };
            let data = |me: u64| pattern(BYTES as usize, me + 1);

            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at(0, &data(me), BYTES, &byte).unwrap();
            });
            // every window is half ours: read, merged, written back
            check("sieved write", 2, 2 * 2 * RANGE, 2 * RANGE, got);
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; BYTES as usize];
                f.read_at(0, &mut back, BYTES, &byte).unwrap();
                assert_eq!(back, data(me));
            });
            check("sieved read", 2, 2 * RANGE, 2 * RANGE, got);

            let got = count(shared, hints, |f, me| {
                view(f, me);
                f.write_at_all(0, &data(me), BYTES, &byte).unwrap();
            });
            // the ranks' data fills every window: no pre-read
            check("collective write", 2, 2 * BYTES, 2 * BYTES, got);
            let got = count(shared, hints, |f, me| {
                view(f, me);
                let mut back = vec![0u8; BYTES as usize];
                f.read_at_all(0, &mut back, BYTES, &byte).unwrap();
                assert_eq!(back, data(me));
            });
            check("collective read", 2, 2 * BYTES, 2 * BYTES, got);

            // strided memory, contiguous file: rank `me` owns its half
            let block = Datatype::contiguous(SBLOCK, &byte).unwrap();
            let memtype = Datatype::vector(NBLOCK, 1, 2, &block).unwrap();
            let user = |me: u64| pattern(memtype.extent() as usize, me + 9);
            let got = count(shared, hints, |f, me| {
                f.write_at(me * BYTES, &user(me), 1, &memtype).unwrap();
            });
            check("nc-c write", 1, 2 * BYTES, 2 * BYTES, got);
            let got = count(shared, hints, |f, me| {
                let mut back = vec![0u8; memtype.extent() as usize];
                f.read_at(me * BYTES, &mut back, 1, &memtype).unwrap();
            });
            check("c-nc read", 1, 2 * BYTES, 2 * BYTES, got);
        }
    }
    println!("copies per user byte:\n  {}", table.join("\n  "));
}
