//! Own share ≡ message: what a rank has in the file domain it is itself
//! the io-process of never becomes a message — the window loop moves it
//! between the user buffer and the window directly — and that must be
//! invisible: same file, same data as the naive typemap reference, on both
//! engines, whatever the number of ranks and io-processes, the window,
//! where the view starts and how the user buffer holds the stream.
//!
//! Every scenario runs on a lending `MemFile`, on `staged(MemFile)`, on a
//! real file that lends through its mapping (`UnixFile::temp()`) and on the
//! stack `LIO_BACKEND`/`LIO_FAULT_SEED` select (`on_each_storage`).
//! The last test pins what does cross a channel, as exact counts: headers
//! and lists, never data.

mod common;

use common::{
    engines, figure4_of_blocks, image_of, on_each_storage, pattern, reference_read,
    reference_stream, reference_write, staged,
};
use std::collections::BTreeMap;
use std::sync::{Mutex, RwLock};

use lio_core::hints::DEFAULT_WINDOW;
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::typemap::reference_unpack;
use lio_datatype::{serialize, Datatype, Field, Order};
use lio_mpi::World;
use lio_pfs::{MemFile, UnixFile};

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
    let _shared = OBS.read().unwrap_or_else(|e| e.into_inner());
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

/// Held shared by every other test here, and alone by the one that reads
/// `core.coll.exchange.list_bytes`: the telemetry registry is
/// process-global, so a collective of another test would count there too.
static OBS: RwLock<()> = RwLock::new(());

/// The views the message counts are pinned on.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Figure 4, 512 blocks of 64 B per rank; the user buffer holds them
    /// at stride two.
    Figure4,
    /// An 8 × 8 × 12 array of 40 B points cut into `p` slabs along its
    /// fastest axis; the user buffer is the slab with a ghost point all
    /// round.
    Tile,
}

impl Shape {
    /// Rank `me`'s filetype of `p` ranks, and its user buffer (`seed`
    /// says which bytes), memtype and count.
    fn access(self, me: u64, p: u64, seed: u64) -> (Datatype, (Vec<u8>, Datatype, u64)) {
        match self {
            Shape::Figure4 => (
                figure4_of_blocks(me, p, 512, 64),
                user_buffer(Mem::Strided, 512 * 64, seed),
            ),
            Shape::Tile => {
                let (point, f) = (Datatype::basic(40), 12 / p);
                let slab = |sizes: &[u64], starts: &[u64]| {
                    Datatype::subarray(sizes, &[8, 8, f], starts, Order::C, &point).unwrap()
                };
                let mem = slab(&[10, 10, f + 2], &[1, 1, 1]);
                let user = pattern(mem.extent() as usize, seed);
                (slab(&[8, 8, 12], &[0, 0, me * f]), (user, mem, 1))
            }
        }
    }
}

/// What crosses a channel in one collective write and one collective read,
/// as exact counts, at P ∈ {2, 3, 4} on the Figure-4 and the tile view:
/// the allgather of the access ranges, a header from every rank to every
/// IOP, the ol-lists of the other ranks' domains (list-based; exactly the
/// bytes `core.coll.exchange.list_bytes` counts) and the lending scope's
/// closing barrier — nothing else. No byte of data is a message: every rank
/// lends the buffer its bytes lie in, whole for a write and in pieces for a
/// read — listless its user buffer, list-based the staging buffer it packs
/// its shares of the other domains into — and the header to another rank's
/// IOP side says where they lie in it. The own share is in none of them.
#[test]
fn the_own_share_never_crosses_a_channel() {
    let _alone = OBS.write().unwrap_or_else(|e| e.into_inner());
    let storage = |name: &str| match name {
        "MemFile" => SharedFile::new(MemFile::new()),
        "staged(MemFile)" => SharedFile::new(staged(MemFile::new())),
        _ => SharedFile::new(UnixFile::temp().expect("temp file for the os backend")),
    };
    lio_obs::set_enabled(true);
    // the IOP windows each engine's write and read of one P, shape and
    // storage walked: the one window loop runs the same windows for both
    let mut walked = std::collections::BTreeMap::<String, Vec<u64>>::new();
    for p in 2..=4u64 {
        for shape in [Shape::Figure4, Shape::Tile] {
            for hints in engines() {
                let listless = hints.engine == Engine::Listless;
                let p1 = p - 1;
                // gather of 16-byte access ranges at rank 0, then a
                // broadcast down a binomial tree of their count, their
                // lengths and the ranges
                let allgather = (2 * p1, 16 * p1 + p1 * (8 + 8 * p + 16 * p));
                // the header to another rank's IOP side goes on with where
                // the bytes lie in the lent buffer: the `stream_start`, a
                // tag, and a base (a staging buffer) or the count and the
                // memtype as fileview caching encodes it
                let (_, (_, memtype, _)) = shape.access(0, p, 1);
                let layout = match listless {
                    true => 8 + 1 + 8 + serialize::encode(&memtype).len() as u64,
                    false => 8 + 1 + 8,
                };
                let headers = (p * p, 16 * p * p + p * p1 * layout);
                // a dissemination barrier: one empty message per rank and
                // round
                let barrier = (p * u64::from(u64::BITS - p1.leading_zeros()), 0);
                for name in ["MemFile", "staged(MemFile)", "UnixFile"] {
                    let shared = storage(name);
                    // (std's barrier: the world's own would count)
                    let quiet = std::sync::Barrier::new(p as usize);
                    let sent = |comm: &lio_mpi::Comm, op: &mut dyn FnMut()| {
                        let counts = || {
                            let snap = lio_obs::snapshot();
                            let list_bytes = snap.counter("core.coll.exchange.list_bytes");
                            (list_bytes, snap.counter("core.coll.windows"))
                        };
                        quiet.wait();
                        let (before, (lists, windows)) = (comm.world_stats(), counts());
                        quiet.wait();
                        op();
                        quiet.wait();
                        let (after, (lists_after, windows_after)) = (comm.world_stats(), counts());
                        quiet.wait();
                        let msgs = after.msgs_sent - before.msgs_sent;
                        let bytes = after.bytes_sent - before.bytes_sent;
                        (msgs, bytes, lists_after - lists, windows_after - windows)
                    };
                    let counted = World::run(p as usize, |comm| {
                        let me = comm.rank() as u64;
                        let mut f = File::open(comm, shared.clone(), hints).unwrap();
                        let (view, (user, memtype, count)) = shape.access(me, p, me + 1);
                        f.set_view(0, Datatype::byte(), view).unwrap();
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
                        [wrote, read]
                    })[0];
                    for ((msgs, bytes, list_bytes, windows), op) in
                        counted.into_iter().zip(["write", "read"])
                    {
                        let op_on = format!("{shape:?} p={p} on {name}: a {op}");
                        walked.entry(op_on).or_default().push(windows);
                        let what = format!("{:?} {shape:?} p={p} on {name}: a {op}", hints.engine);
                        // one list to each other rank's IOP side, 16 B a tuple
                        let lists = match listless {
                            true => (0, 0),
                            false => (p * p1, list_bytes),
                        };
                        assert_eq!(list_bytes % 16, 0, "{what}: whole tuples");
                        assert_eq!(list_bytes > 0, !listless, "{what}: list bytes");
                        let sum = [allgather, headers, lists, barrier]
                            .iter()
                            .fold((0, 0), |a, m| (a.0 + m.0, a.1 + m.1));
                        assert_eq!((msgs, bytes), sum, "{what}: (messages, bytes)");
                    }
                }
            }
        }
    }
    lio_obs::set_enabled(false);
    for (what, windows) in &walked {
        assert_eq!(windows.len(), 2, "{what}: one count per engine");
        assert!(windows[0] > 0, "{what}: windows were walked");
        assert_eq!(
            windows[0], windows[1],
            "{what}: list-based and listless windows"
        );
    }
}

/// On a contiguous view — the default one — a list-based collective ships
/// one 16 B tuple per (AP, other IOP) pair with a non-empty share, per
/// op, not one per data byte: the view is one endless run, as ROMIO
/// treats a contiguous filetype. Rank `r` writes `(r + 1)·U` bytes right
/// after rank `r − 1`'s, so every rank but 0 reaches into the domain
/// below its own: `P − 1` pairs at P ∈ {2, 3}. Listless ships no list.
#[test]
fn a_contiguous_view_ships_one_tuple_per_share() {
    let _alone = OBS.write().unwrap_or_else(|e| e.into_inner());
    const CB: u64 = 1024;
    const U: u64 = 4 * CB;
    let list_bytes = || lio_obs::snapshot().counter("core.coll.exchange.list_bytes");
    let at = |r: u64| U * r * (r + 1) / 2;
    let data = |r: u64| pattern(((r + 1) * U) as usize, r + 1);
    lio_obs::set_enabled(true);
    for p in [2u64, 3] {
        let want: Vec<u8> = (0..p).flat_map(data).collect();
        for hints in engines() {
            let what = format!("{:?} p={p}", hints.engine);
            let shared = SharedFile::new(MemFile::new());
            let hints = hints.cb_buffer(CB as usize);
            let shipped = |op: &(dyn Fn(&mut File, u64) + Sync)| {
                let before = list_bytes();
                World::run(p as usize, |comm| {
                    let mut f = File::open(comm, shared.clone(), hints).unwrap();
                    op(&mut f, comm.rank() as u64)
                });
                list_bytes() - before
            };
            let byte = Datatype::byte();
            let wrote = shipped(&|f, r| {
                f.write_at_all(at(r), &data(r), (r + 1) * U, &byte).unwrap();
            });
            assert!(image_of(&shared) == want, "{what}: the file");
            let read = shipped(&|f, r| {
                let mut back = vec![0u8; ((r + 1) * U) as usize];
                f.read_at_all(at(r), &mut back, (r + 1) * U, &byte).unwrap();
                assert!(back == data(r), "{what}: rank {r}'s read-back");
            });
            let tuples = match hints.engine {
                Engine::Listless => 0,
                Engine::ListBased => 16 * (p - 1),
            };
            assert_eq!((wrote, read), (tuples, tuples), "{what}: list bytes");
        }
    }
    lio_obs::set_enabled(false);
}
