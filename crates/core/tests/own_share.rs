//! Own share ≡ message: what a rank has in the file domain it is itself
//! the io-process of never becomes a message — the window loop moves it
//! between the user buffer and the window directly — and that must be
//! invisible: same file, same data as the naive typemap reference, on both
//! engines, whatever the number of ranks and io-processes, the window,
//! where the view starts and how the user buffer holds the stream.
//!
//! Every scenario runs on a lending `MemFile`, on `Staged(MemFile)`, on a
//! real file that lends through its mapping (`OsFile::temp()`) and on the
//! stack `LIO_BACKEND`/`LIO_FAULT_SEED` select (`on_each_storage`).
//! The last test pins what does cross a channel, as exact counts.

mod common;

use common::{
    figure4_of_blocks, image_of, on_each_storage, pattern, reference_read, reference_stream,
    reference_write, Staged,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

use lio_core::hints::DEFAULT_WINDOW;
use lio_core::{File, Hints, SharedFile};
use lio_datatype::typemap::reference_unpack;
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::{MemFile, OsFile};

/// How a rank's user buffer holds its stream.
#[derive(Clone, Copy, Debug)]
enum Mem {
    /// It is the stream (`MemPacker::Contig`): no chunk on either side.
    Stream,
    /// Blocks at stride two, the benchmark's shape: through the chunk.
    Strided,
    /// One instance of one run behind a 24-byte gap: `Contig` with a base.
    Gapped,
}

const MEMS: [Mem; 3] = [Mem::Stream, Mem::Strided, Mem::Gapped];

impl Mem {
    /// `(memtype, count)` whose stream is `bytes` long. (A run is one
    /// elementary type wherever it can be, here and in the views: the naive
    /// reference then walks runs, not bytes.)
    fn memtype(self, bytes: u64) -> (Datatype, u64) {
        let run = Datatype::basic(bytes as u32);
        match self {
            _ if bytes == 0 => (Datatype::byte(), 0),
            Mem::Stream => (run, 1),
            Mem::Strided => {
                let block = 1 << bytes.trailing_zeros().min(3);
                let blocks = bytes / block;
                let block = Datatype::basic(block as u32);
                (Datatype::vector(blocks, 1, 2, &block).unwrap(), 1)
            }
            Mem::Gapped => (Datatype::hindexed(&[1], &[24], &run).unwrap(), 1),
        }
    }
}

/// A user buffer holding `bytes` of stream (`seed` says which) and the
/// memtype it is to be read through.
fn user_buffer(mem: Mem, bytes: u64, seed: u64) -> (Vec<u8>, Datatype, u64) {
    // `pattern` is the slowest thing in this file in a debug build, and a
    // shorter one is a prefix of a longer: keep the longest per seed
    static MADE: Mutex<BTreeMap<u64, Vec<u8>>> = Mutex::new(BTreeMap::new());
    let (memtype, count) = mem.memtype(bytes);
    let span = (memtype.extent() * count).max(memtype.data_ub().max(0) as u64) as usize;
    let mut made = MADE.lock().unwrap_or_else(|e| e.into_inner());
    let longest = made.entry(seed).or_default();
    if longest.len() < span {
        *longest = pattern(span, seed);
    }
    (longest[..span].to_vec(), memtype, count)
}

/// A filetype of `extent` bytes whose data is `data`, at `at`.
fn view_of(at: u64, data: Datatype, extent: u64) -> Datatype {
    let field = |disp: u64, child: Datatype| Field {
        disp: disp as i64,
        count: 1,
        child,
    };
    Datatype::struct_type(vec![
        field(0, Datatype::lb_marker()),
        field(at, data),
        field(extent, Datatype::ub_marker()),
    ])
    .unwrap()
}

/// Where the data lies: rank `r` sees the file through `views[r]` at
/// `disp`, `totals[r]` bytes per instance.
struct Layout {
    disp: u64,
    window: usize,
    views: Vec<Datatype>,
    totals: Vec<u64>,
}

impl Layout {
    fn p(&self) -> u64 {
        self.views.len() as u64
    }

    /// The Figure-4 view: every window holds a block of every rank.
    fn interleaved(p: u64, disp: u64, window: usize) -> Layout {
        // several windows per domain: 640 kB under the large windows, 8 kB
        // (across a stripe seam of `MemFile`) under the 96 B one
        let (bytes, sblock, disp) = if window == 96 {
            (8_000, 100, 256 * 1024 - 4000 + disp)
        } else {
            (640_000, 1000, disp)
        };
        let nblock = bytes / sblock / p;
        Layout {
            disp,
            window,
            views: (0..p)
                .map(|r| figure4_of_blocks(r, p, nblock, sblock))
                .collect(),
            totals: vec![nblock * sblock; p as usize],
        }
    }

    /// Every rank owns one run of the instance, of `weights[r]` parts: an
    /// io-process finds windows that are all its own and windows that hold
    /// nothing of it, and its domain is not where its own data lies.
    fn partitioned(weights: &[u64], disp: u64, window: usize) -> Layout {
        let part = if window == 96 { 520 } else { 52_000 };
        let extent = part * weights.iter().sum::<u64>();
        let mut at = 0;
        let mut views = Vec::new();
        for w in weights {
            views.push(view_of(at, Datatype::basic((w * part) as u32), extent));
            at += w * part;
        }
        Layout {
            disp,
            window,
            views,
            totals: weights.iter().map(|w| w * part).collect(),
        }
    }

    fn end(&self) -> u64 {
        self.disp + self.totals.iter().sum::<u64>()
    }
}

/// Every rank writes the first `counts[rank]` bytes of its view over a
/// file holding `initial`, collectively, reads its whole view back, and —
/// after the file is cut to `cut` bytes — reads those `counts[rank]` bytes
/// again across the new end (so one rank's access may end inside a window
/// that another's goes on in). File and user buffers must be what the
/// naive reference says, gaps of the user buffers included.
fn check(what: &str, lay: &Layout, hints: Hints, mem: Mem, initial: &[u8], counts: &[u64]) {
    // a cut inside a block, a window and a stripe of the data
    let cut = lay.disp + (lay.end() - lay.disp) * 3 / 5 + 7;
    let hints = hints.cb_buffer(lay.window);
    let (image, backs) = on_each_storage(what, initial, lay.p(), |comm, shared| {
        let me = comm.rank();
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(lay.disp, Datatype::byte(), lay.views[me].clone())
            .unwrap();
        let (user, memtype, count) = user_buffer(mem, counts[me], me as u64 + 1);
        let n = f.write_at_all(0, &user, count, &memtype).unwrap();
        assert_eq!(n, counts[me]);
        comm.barrier();
        let read = |bytes: u64| {
            let (mut back, memtype, count) = user_buffer(mem, bytes, 77);
            let n = f.read_at_all(0, &mut back, count, &memtype).unwrap();
            assert_eq!(n, bytes);
            back
        };
        let back = read(lay.totals[me]);
        let full = (me == 0).then(|| image_of(&shared));
        comm.barrier(); // reads do not end in one: nobody is still reading
        f.preallocate(cut).unwrap();
        (full, back, read(counts[me]))
    });

    let mut want = initial.to_vec();
    for (rank, &count) in counts.iter().enumerate() {
        if count > 0 {
            let (user, memtype, n) = user_buffer(mem, count, rank as u64 + 1);
            let stream = reference_stream(&user, &memtype, n);
            reference_write(&mut want, lay.disp, &lay.views[rank], 0, &stream);
        }
    }
    let full = backs[0].0.as_ref().expect("rank 0 took the image");
    assert!(*full == want, "{what}: file differs from the reference");
    want.truncate(cut as usize);
    want.resize(cut as usize, 0);
    assert!(image == want, "{what}: cut file differs from the reference");
    for (rank, (_, back, short)) in backs.iter().enumerate() {
        let reads = [
            (back, full, lay.totals[rank], "read-back"),
            (short, &want, counts[rank], "read across EOF"),
        ];
        for (got, file, total, which) in reads {
            let stream = reference_read(file, lay.disp, &lay.views[rank], 0, total);
            let (mut expect, memtype, count) = user_buffer(mem, total, 77);
            reference_unpack(&stream, &mut expect, &memtype, count);
            assert!(*got == expect, "{what}: rank {rank} {which}");
        }
    }
}

fn engines() -> [Hints; 2] {
    [Hints::list_based(), Hints::listless()]
}

const WINDOWS: [usize; 3] = [DEFAULT_WINDOW, 96, 384 * 1024];

fn disps(window: usize) -> [u64; 5] {
    [0, 1, 4095, 4097, window as u64 - 1]
}

/// A file that ends inside the access, so that the read-back's last
/// windows lie across the end of what was there before.
fn short_file(lay: &Layout) -> Vec<u8> {
    vec![0xFF; ((lay.disp + lay.end()) / 2 + 13) as usize]
}

/// P ∈ {1, 2, 3, 4} with as many io-processes as ranks, one fewer and one:
/// a rank that is no IOP has no own share, the only IOP of four has a
/// quarter. Window, displacement and memory layout rotate through the
/// cases.
#[test]
fn any_number_of_ranks_and_io_processes() {
    let mut case = 0;
    for p in 1..=4u64 {
        let mut iops = vec![p, p - 1, 1];
        iops.retain(|&n| n > 0);
        iops.dedup();
        for io_nodes in iops {
            for window in WINDOWS {
                case += 1;
                let disp = disps(window)[case % 5];
                let mem = MEMS[case % 3];
                let lay = Layout::interleaved(p, disp, window);
                for engine in engines() {
                    let hints = engine.io_nodes(io_nodes as usize);
                    let what = format!(
                        "{:?} p={p} iops={io_nodes} w={window} disp={disp} {mem:?}",
                        hints.engine
                    );
                    check(&what, &lay, hints, mem, &short_file(&lay), &lay.totals);
                }
            }
        }
    }
}

/// Two ranks, every displacement against every memory layout, under the
/// default and the 96 B window.
#[test]
fn every_displacement_and_memory_layout() {
    for window in [DEFAULT_WINDOW, 96] {
        for disp in disps(window) {
            let lay = Layout::interleaved(2, disp, window);
            for mem in MEMS {
                for engine in engines() {
                    let what = format!("{:?} w={window} disp={disp} {mem:?}", engine.engine);
                    check(&what, &lay, engine, mem, &[], &lay.totals);
                }
            }
        }
    }
}

/// One rank's access is empty, another stops half a window in: their
/// bytes of the file must survive, on the ranks' own domains too.
#[test]
fn empty_and_partial_accesses() {
    for window in [DEFAULT_WINDOW, 96] {
        let lay = Layout::interleaved(3, 4097, window);
        for io_nodes in [3, 2] {
            // each of the three is in turn the one that writes nothing
            for idle in 0..3 {
                let mut counts = lay.totals.clone();
                counts[idle] = 0;
                counts[(idle + 1) % 3] = (window as u64 / 2).min(lay.totals[0] - 1);
                let mem = MEMS[idle];
                for engine in engines() {
                    let hints = engine.io_nodes(io_nodes);
                    let what = format!(
                        "{:?} w={window} iops={io_nodes} idle={idle} {mem:?}",
                        hints.engine
                    );
                    check(&what, &lay, hints, mem, &short_file(&lay), &counts);
                }
            }
        }
    }
}

/// Partitioned views of unequal size: an IOP's windows are all its own or
/// hold nothing of it, and a rank's data lies mostly in another's domain.
#[test]
fn windows_that_are_all_own_or_not_at_all() {
    for window in [DEFAULT_WINDOW, 96] {
        for weights in [&[1u64, 3][..], &[3, 1], &[5, 1, 2]] {
            let lay = Layout::partitioned(weights, 1, window);
            for mem in MEMS {
                for engine in engines() {
                    let what = format!("{:?} w={window} {weights:?} {mem:?}", engine.engine);
                    check(&what, &lay, engine, mem, &short_file(&lay), &lay.totals);
                }
            }
        }
    }
}

/// What crosses a channel in one collective write and one collective read
/// at P = 2, as exact counts: the half of the user bytes that changes
/// ranks, the fixed headers, the ol-lists of the other rank's domain
/// (list-based), the allgather of the access ranges and the write's
/// closing barrier. The own share — the other half — is in none of them.
/// A listless read on storage that lends is routed: its allgather is all
/// that crosses.
#[test]
fn the_own_share_never_crosses_a_channel() {
    const NBLOCK: u64 = 512;
    const SBLOCK: u64 = 64;
    const BYTES: u64 = NBLOCK * SBLOCK; // per rank
                                        // gather of two 17-byte answers (range and routing vote) at rank 0 (one
                                        // message), broadcast of count + two lengths + the answers (one message)
    let allgather = (2, 17 + (8 + 2 * 8 + 2 * 17));
    // a 16-byte header to each IOP, the rank's own included
    let headers = (4, 4 * 16);
    // the half of each rank's bytes that changes ranks: a write's rides
    // behind the header, a read's comes back in a reply of its own
    let payload = (0, BYTES);
    let replies = (2, BYTES);
    let barrier = (2, 0);
    // half of a rank's blocks lie in the other's domain, 16 bytes a tuple
    let lists = (2, 2 * 16 * (NBLOCK / 2));
    let sum = |parts: &[(u64, u64)]| parts.iter().fold((0, 0), |a, p| (a.0 + p.0, a.1 + p.1));
    let storage = |name: &str| match name {
        "MemFile" => SharedFile::new(MemFile::new()),
        "Staged(MemFile)" => SharedFile::new(Staged(MemFile::new())),
        _ => SharedFile::new(OsFile::temp().expect("temp file for the os backend")),
    };
    for engine in engines() {
        for name in ["MemFile", "Staged(MemFile)", "OsFile"] {
            let shared = storage(name);
            let hints = engine;
            // (std's barrier: the world's own would count)
            let quiet = std::sync::Barrier::new(2);
            let sent = |comm: &lio_mpi::Comm, op: &mut dyn FnMut()| {
                quiet.wait();
                let before = comm.world_stats();
                quiet.wait();
                op();
                quiet.wait();
                let after = comm.world_stats();
                quiet.wait();
                (
                    after.msgs_sent - before.msgs_sent,
                    after.bytes_sent - before.bytes_sent,
                )
            };
            let counted = World::run(2, |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(
                    0,
                    Datatype::byte(),
                    figure4_of_blocks(me, 2, NBLOCK, SBLOCK),
                )
                .unwrap();
                let (user, memtype, count) = user_buffer(Mem::Strided, BYTES, me + 1);
                let mut back = vec![0u8; user.len()];
                let wrote = sent(comm, &mut || {
                    f.write_at_all(0, &user, count, &memtype).unwrap();
                });
                let read = sent(comm, &mut || {
                    f.read_at_all(0, &mut back, count, &memtype).unwrap();
                });
                assert_eq!(
                    reference_stream(&back, &memtype, count),
                    reference_stream(&user, &memtype, count)
                );
                (wrote, read)
            })[0];
            let mut write = vec![allgather, headers, payload, barrier];
            let mut read = vec![allgather, headers, replies];
            if hints.engine == lio_core::Engine::ListBased {
                write.push(lists);
                read.push(lists);
            } else if name != "Staged(MemFile)" {
                read = vec![allgather];
            }
            let what = format!("{:?} on {name}", hints.engine);
            assert_eq!(
                counted.0,
                sum(&write),
                "{what}: (messages, bytes) of a write"
            );
            assert_eq!(counted.1, sum(&read), "{what}: (messages, bytes) of a read");
        }
    }
}
