//! Replays: each layer's public functions called directly with the
//! workload's exact types and byte counts, next to the contiguous-copy,
//! ping-pong and sequential-storage ceilings they are compared with.

use std::hint::black_box;
use std::time::Instant;

use lio_datatype::{ff_extent, ff_offset, ff_pack, ff_size, ff_unpack, serialize, OlList};
use lio_mpi::World;

use crate::round::make_storage;
use crate::stats::median;
use crate::workload::{user_buffer, Rng, Workload, RANKS};

const MB: f64 = 1.0e6;
/// Window of an `ff_size` probe: the default independent sieving buffer.
const NAV_WINDOW: u64 = 512 << 10;
const NAV_BATCH: usize = 1024;
const SEQ_CHUNK: usize = 4 << 20;
const SEQ_CHUNKS: usize = 16;

pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    /// Median seconds to pack / unpack / exchange one operation's
    /// per-rank volume, with all ranks doing so at once.
    pub pack_s: f64,
    pub unpack_s: f64,
    pub exchange_s: f64,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median over repetitions of the slowest rank's time, per column.
fn slowest_rank_medians<const N: usize>(per_rank: &[Vec<[f64; N]>]) -> [f64; N] {
    std::array::from_fn(|col| {
        let reps = per_rank[0].len();
        let slowest: Vec<f64> = (0..reps)
            .map(|i| per_rank.iter().map(|r| r[i][col]).fold(0.0, f64::max))
            .collect();
        median(&slowest)
    })
}

pub fn replay(w: &Workload, seed: u64, smoke: bool) -> std::io::Result<Replay> {
    let reps: usize = if smoke { 3 } else { 30 };
    let bpp = w.bytes_per_proc();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // --- lio-datatype: pack and unpack against a plain copy ------------
    let (mt, count) = w.memtype();
    let per_rank = World::run(RANKS, |comm| {
        let user = user_buffer(seed, comm.rank(), w.buf_len());
        let mut back = vec![0u8; user.len()];
        let mut packed = vec![0u8; bpp as usize];
        let mut flat = vec![0u8; bpp as usize];
        (0..reps)
            .map(|_| {
                comm.barrier();
                let (pack, n) = time(|| ff_pack(black_box(&user), count, &mt, 0, &mut packed));
                assert_eq!(n as u64, bpp, "ff_pack moved the whole operation");
                comm.barrier();
                let (copy_a, ()) = time(|| flat.copy_from_slice(black_box(&packed)));
                comm.barrier();
                let (unpack, n) = time(|| ff_unpack(black_box(&packed), &mut back, count, &mt, 0));
                assert_eq!(n as u64, bpp, "ff_unpack moved the whole operation");
                comm.barrier();
                let (copy_b, ()) = time(|| packed.copy_from_slice(black_box(&flat)));
                black_box(&back);
                [pack, unpack, (copy_a + copy_b) / 2.0]
            })
            .collect::<Vec<_>>()
    });
    let [pack_s, unpack_s, copy_s] = slowest_rank_medians(&per_rank);
    m.push(("datatype.pack_mbps", bpp as f64 / pack_s / MB));
    m.push(("datatype.unpack_mbps", bpp as f64 / unpack_s / MB));
    m.push(("datatype.pack_over_memcpy", copy_s / pack_s));
    m.push(("datatype.unpack_over_memcpy", copy_s / unpack_s));
    m.push(("bench.memcpy_mbps", bpp as f64 / copy_s / MB));

    // --- lio-datatype: navigation at seeded skips on the filetype -------
    let ft = w.filetype(0);
    let stream = bpp * w.steps();
    let mut rng = Rng::new(seed ^ 0x6e61_7669_6761_7465);
    let skips: Vec<u64> = (0..NAV_BATCH)
        .map(|_| rng.next_u64() % (stream - NAV_WINDOW))
        .collect();
    let per_call_ns = |f: &dyn Fn(u64) -> u64| {
        let batches: Vec<f64> = (0..reps)
            .map(|_| {
                let (s, sum) = time(|| skips.iter().map(|&k| f(black_box(k))).sum::<u64>());
                black_box(sum);
                s * 1e9 / NAV_BATCH as f64
            })
            .collect();
        median(&batches)
    };
    m.push((
        "datatype.ff_size_ns",
        per_call_ns(&|k| ff_size(&ft, k, NAV_WINDOW)),
    ));
    m.push((
        "datatype.ff_extent_ns",
        per_call_ns(&|k| ff_extent(&ft, k, NAV_WINDOW / 8)),
    ));
    m.push((
        "datatype.ff_offset_ns",
        per_call_ns(&|k| ff_offset(&ft, k) as u64),
    ));

    // --- lio-datatype: what the list-based engine builds and ships ------
    let instances = bpp / ft.size();
    let flatten: Vec<f64> = (0..reps.min(15))
        .map(|_| time(|| black_box(OlList::flatten(&ft, instances))).0)
        .collect();
    let ol = OlList::flatten(&ft, instances);
    m.push(("datatype.flatten_ms", median(&flatten) * 1e3));
    m.push(("datatype.ollist_bytes", ol.memory_bytes() as f64));
    m.push(("datatype.blocks_per_op", ol.num_blocks() as f64));

    // --- lio-datatype: the fileview exchanged at set_view ---------------
    let encoded = serialize::encode(&ft);
    let codec = |f: &dyn Fn()| {
        let batches: Vec<f64> = (0..reps)
            .map(|_| time(|| (0..100).for_each(|_| f())).0 * 1e6 / 100.0)
            .collect();
        median(&batches)
    };
    m.push((
        "datatype.encode_us",
        codec(&|| {
            black_box(serialize::encode(black_box(&ft)));
        }),
    ));
    m.push((
        "datatype.decode_us",
        codec(&|| {
            black_box(serialize::decode(black_box(&encoded)).expect("decode own encoding"));
        }),
    ));
    m.push(("datatype.encoded_bytes", encoded.len() as f64));

    // --- lio-mpi: latency, barrier, and one op's volume all-to-all ------
    let small = reps * 50;
    let per_rank = World::run(RANKS, |comm| {
        let (me, peer) = (comm.rank(), (comm.rank() + 1) % RANKS);
        let pingpong: Vec<f64> = (0..small)
            .map(|_| {
                time(|| {
                    if me == 0 {
                        comm.send(peer, 1, &[0u8; 8]);
                        black_box(comm.recv(peer, 1));
                    } else if me == 1 {
                        black_box(comm.recv(0, 1));
                        comm.send(0, 1, &[0u8; 8]);
                    }
                })
                .0
            })
            .collect();
        let barrier: Vec<f64> = (0..small).map(|_| time(|| comm.barrier()).0).collect();
        let exchange: Vec<[f64; 1]> = (0..reps)
            .map(|_| {
                let send = vec![vec![me as u8; bpp as usize / RANKS]; RANKS];
                comm.barrier();
                let (s, got) = time(|| comm.alltoall(send));
                black_box(got);
                [s]
            })
            .collect();
        (median(&pingpong), median(&barrier), exchange)
    });
    let exchanges: Vec<_> = per_rank.iter().map(|r| r.2.clone()).collect();
    let [exchange_s] = slowest_rank_medians(&exchanges);
    m.push(("mpi.pingpong_us", per_rank[0].0 * 1e6));
    m.push(("mpi.barrier_us", per_rank[0].1 * 1e6));
    m.push(("mpi.exchange_mbps", bpp as f64 / exchange_s / MB));

    // --- lio-pfs: sequential 4 MiB requests on the workload's backend ---
    let len = (SEQ_CHUNK * SEQ_CHUNKS) as u64;
    let shared = make_storage(w.backend, len)?;
    let mut buf = user_buffer(seed, 0, SEQ_CHUNK);
    let mut seq_write = Vec::new();
    let mut seq_read = Vec::new();
    for _ in 0..reps.div_ceil(10) {
        for c in 0..SEQ_CHUNKS {
            let at = (c * SEQ_CHUNK) as u64;
            let (s, n) = time(|| shared.storage().write_at(at, black_box(&buf)));
            assert_eq!(n?, SEQ_CHUNK);
            seq_write.push(s);
        }
        for c in 0..SEQ_CHUNKS {
            let at = (c * SEQ_CHUNK) as u64;
            let (s, n) = time(|| shared.storage().read_at(at, &mut buf));
            assert_eq!(n?, SEQ_CHUNK);
            seq_read.push(s);
        }
        black_box(&buf);
    }
    m.push((
        "pfs.seq_write_mbps",
        SEQ_CHUNK as f64 / median(&seq_write) / MB,
    ));
    m.push((
        "pfs.seq_read_mbps",
        SEQ_CHUNK as f64 / median(&seq_read) / MB,
    ));

    Ok(Replay {
        metrics: m,
        pack_s,
        unpack_s,
        exchange_s,
    })
}
