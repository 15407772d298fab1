//! One round: a fresh file and a fresh world for one engine, warm-up and
//! `k` timed writes, warm-up and `k` timed reads, and the checks.

use std::time::Instant;

use lio_core::{BackendKind, Engine, File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::{Comm, World};
use lio_pfs::MemFile;

use crate::stats::median;
use crate::trace::{self, Span, TimedFile};
use crate::workload::{expected_readback, user_buffer, Access, Workload, RANKS, WARMUP};

/// Read buffers start out filled with this, so a read that scribbles
/// outside the memtype's data positions is caught.
const READ_FILL: u8 = 0xA5;
const PREFAULT_CHUNK: usize = 4 << 20;

/// What [`Gauge::run`] takes on the benchmark box while its host is
/// quiet. Every time a run reports is scaled by `GAUGE_REF_S / gauge`, so
/// the numbers read as those of the quiet box whatever the host does.
pub const GAUGE_REF_S: f64 = 20.0e-6;

/// A fixed piece of work that tells how fast the core runs right now: 8
/// passes of a strided copy (8-byte blocks, stride 16, 64 KiB moved per
/// pass) over buffers that stay in L2. Each rank runs it before every
/// sample, outside the timed part.
///
/// The host of the benchmark box is shared. When its other guests are busy
/// the cores leave their turbo bins and share execution units with a busy
/// sibling thread, for seconds or for hours, and nothing in the guest
/// shows it (no steal). The gauge then takes 25-30 us instead of 20, and
/// an operation on small blocks takes longer by the same factor (slope
/// 0.95-1.1 in log-log over 3 000 rounds), so the quotient stays put where
/// the plain time moves by 30-50 %.
struct Gauge {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Gauge {
    const BLOCK: usize = 8;
    const PASSES: usize = 8;

    fn new() -> Gauge {
        Gauge {
            src: vec![1; 128 << 10],
            dst: vec![0; 64 << 10],
        }
    }

    /// Seconds one measurement took.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..Self::PASSES {
            for (d, s) in self
                .dst
                .chunks_exact_mut(Self::BLOCK)
                .zip(self.src.chunks_exact(2 * Self::BLOCK))
            {
                d.copy_from_slice(&s[..Self::BLOCK]);
            }
            std::hint::black_box(&mut self.dst);
        }
        t.elapsed().as_secs_f64()
    }
}

pub struct RoundCfg {
    pub seed: u64,
    /// Timed samples per direction, each `Workload::batch` operations.
    pub k: usize,
    /// Record spans and message counts.
    pub traced: bool,
    /// Distinguishes this round's operation ids from other rounds'.
    pub op_base: u64,
}

/// What one rank measured.
struct RankOut {
    setup_s: f64,
    open_s: f64,
    set_view_s: f64,
    /// Per direction (write, read) and timed sample: (own calls, calls
    /// plus closing barrier), seconds per operation.
    ops: [Vec<(f64, f64)>; 2],
    /// One gauge reading per sample, warm-ups included, seconds.
    gauge: Vec<f64>,
    failed_ops: u64,
    readback_ok: bool,
    msgs: u64,
    msg_bytes: u64,
    spans: Vec<Span>,
}

/// One round of one engine, ranks combined.
pub struct Round {
    pub engine: Engine,
    /// `World` spawn through the first barrier; slowest rank.
    pub setup_s: f64,
    pub open_s: f64,
    pub set_view_s: f64,
    /// Per timed sample, barrier to barrier on the slowest rank, seconds
    /// per operation.
    pub write_s: Vec<f64>,
    pub read_s: Vec<f64>,
    /// Per timed sample, (slowest − fastest own calls) / slowest.
    pub skew: Vec<f64>,
    /// Median gauge reading of the round, all ranks: how fast the cores
    /// ran while the round did.
    pub gauge_s: f64,
    /// Operations issued per world (warm-ups included) and how many
    /// returned an error or a short count on some rank.
    pub ops: u64,
    pub failed_ops: u64,
    /// Read-back check per rank, after the last read.
    pub readback_ok: bool,
    /// Messages and payload bytes the ranks sent inside timed `File`
    /// calls (traced rounds only).
    pub msgs: u64,
    pub msg_bytes: u64,
    pub spans: Vec<Span>,
    /// The whole file after the round, when asked for.
    pub image: Option<Vec<u8>>,
}

impl Round {
    /// `seconds` measured in this round, as the quiet box would have
    /// measured them.
    pub fn at_ref_speed(&self, seconds: f64) -> f64 {
        seconds * GAUGE_REF_S / self.gauge_s
    }
}

/// Create the backend's file and touch every page of it, so that no timed
/// operation pays for first-touch allocation.
pub fn make_storage(backend: BackendKind, len: u64) -> std::io::Result<SharedFile> {
    let shared = match backend {
        BackendKind::Mem => SharedFile::new(MemFile::with_capacity(len as usize)),
        other => SharedFile::for_backend(other)?,
    };
    let zeros = vec![0u8; PREFAULT_CHUNK.min(len as usize)];
    let mut at = 0;
    while at < len {
        let n = zeros.len().min((len - at) as usize);
        shared.storage().write_at(at, &zeros[..n])?;
        at += n as u64;
    }
    Ok(shared)
}

fn read_image(shared: &SharedFile) -> std::io::Result<Vec<u8>> {
    let mut img = vec![0u8; shared.len() as usize];
    let mut at = 0;
    while at < img.len() {
        let n = PREFAULT_CHUNK.min(img.len() - at);
        let got = shared.storage().read_at(at as u64, &mut img[at..at + n])?;
        if got == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        at += got;
    }
    Ok(img)
}

pub fn run_round(
    w: &Workload,
    engine: Engine,
    cfg: &RoundCfg,
    want_image: bool,
) -> std::io::Result<Round> {
    // Creating and pre-faulting the file is this program's scaffolding,
    // not the library's set-up: it is page faults for the most part (94 %
    // of the time to the first barrier on `coll-tile`), and on the `Os`
    // backend it runs into the kernel's dirty-page throttling every few
    // rounds (a 4 MiB write takes 1 ms or 20 ms).
    let bare = make_storage(w.backend, w.file_len())?;
    let t_setup = Instant::now();
    let shared = if cfg.traced {
        SharedFile::new(TimedFile::new(bare.storage().clone()))
    } else {
        bare
    };
    let outs = World::run(RANKS, |comm| {
        rank_body(comm, w, &shared, engine, cfg, t_setup)
    });

    let max = |f: fn(&RankOut) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    let per_op = |dir: usize| -> Vec<f64> {
        (0..cfg.k)
            .map(|i| outs.iter().map(|o| o.ops[dir][i].1).fold(0.0, f64::max))
            .collect()
    };
    let skew = (0..cfg.k)
        .flat_map(|i| [0, 1].map(|dir| (dir, i)))
        .map(|(dir, i)| {
            let calls = outs.iter().map(|o| o.ops[dir][i].0);
            let hi = calls.clone().fold(0.0, f64::max);
            let lo = calls.fold(f64::INFINITY, f64::min);
            (hi - lo) / hi
        })
        .collect();
    let mut round = Round {
        engine,
        setup_s: max(|o| o.setup_s),
        open_s: max(|o| o.open_s),
        set_view_s: max(|o| o.set_view_s),
        write_s: per_op(0),
        read_s: per_op(1),
        skew,
        gauge_s: median(
            &outs
                .iter()
                .flat_map(|o| o.gauge.iter().copied())
                .collect::<Vec<_>>(),
        ),
        ops: (2 * (WARMUP + cfg.k) * w.batch) as u64,
        // a collective op fails on every rank at once; count it once
        failed_ops: outs.iter().map(|o| o.failed_ops).max().unwrap_or(0),
        readback_ok: outs.iter().all(|o| o.readback_ok),
        msgs: outs.iter().map(|o| o.msgs).sum(),
        msg_bytes: outs.iter().map(|o| o.msg_bytes).sum(),
        spans: Vec::new(),
        image: None,
    };
    for o in outs {
        trace::merge(&mut round.spans, o.spans);
    }
    if want_image {
        round.image = Some(read_image(&shared)?);
    }
    Ok(round)
}

fn rank_body(
    comm: &Comm,
    w: &Workload,
    shared: &SharedFile,
    engine: Engine,
    cfg: &RoundCfg,
    t_setup: Instant,
) -> RankOut {
    let rank = comm.rank();
    if cfg.traced {
        trace::arm(rank as u32);
        trace::set_op(cfg.op_base);
    }
    // The types and sizes are fixed, so a failure to open or to set the
    // view is a bug in this program or the library, not a measured event.
    let t = Instant::now();
    let mut f = trace::span("core.open", 0, || {
        File::open(comm, shared.clone(), Hints::with_engine(engine))
    })
    .expect("open");
    let open_s = t.elapsed().as_secs_f64();
    let ft = w.filetype(rank);
    let t = Instant::now();
    trace::span("core.set_view", 0, || f.set_view(0, Datatype::byte(), ft)).expect("set_view");
    let set_view_s = t.elapsed().as_secs_f64();
    let (mt, count) = w.memtype();
    let user = user_buffer(cfg.seed, rank, w.buf_len());
    let mut back = vec![READ_FILL; user.len()];
    comm.barrier();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let bpp = w.bytes_per_proc();
    let mut gauge = Gauge::new();
    let mut out = RankOut {
        setup_s,
        open_s,
        set_view_s,
        ops: [Vec::with_capacity(cfg.k), Vec::with_capacity(cfg.k)],
        gauge: Vec::with_capacity(2 * (WARMUP + cfg.k)),
        failed_ops: 0,
        readback_ok: false,
        msgs: 0,
        msg_bytes: 0,
        spans: Vec::new(),
    };
    let batch = w.batch as f64;
    for write in [true, false] {
        for i in 0..WARMUP + cfg.k {
            out.gauge.push(gauge.run());
            comm.barrier();
            let t0 = Instant::now();
            let sent = cfg.traced.then(|| comm.stats());
            for n in i * w.batch..(i + 1) * w.batch {
                let off = w.offset(n);
                trace::set_op(cfg.op_base + 1 + (u64::from(!write) << 16) + n as u64);
                let res = match (write, w.access) {
                    (true, Access::Independent) => {
                        trace::span("core.write_at", bpp, || f.write_at(off, &user, count, &mt))
                    }
                    (true, Access::Collective) => trace::span("core.write_at_all", bpp, || {
                        f.write_at_all(off, &user, count, &mt)
                    }),
                    (false, Access::Independent) => trace::span("core.read_at", bpp, || {
                        f.read_at(off, &mut back, count, &mt)
                    }),
                    (false, Access::Collective) => trace::span("core.read_at_all", bpp, || {
                        f.read_at_all(off, &mut back, count, &mt)
                    }),
                };
                if !matches!(res, Ok(n) if n == bpp) {
                    out.failed_ops += 1;
                }
            }
            let call_s = t0.elapsed().as_secs_f64() / batch;
            let timed = i >= WARMUP;
            if let (Some(before), true) = (sent, timed) {
                let after = comm.stats();
                out.msgs += after.msgs_sent - before.msgs_sent;
                out.msg_bytes += after.bytes_sent - before.bytes_sent;
            }
            comm.barrier();
            let op_s = t0.elapsed().as_secs_f64() / batch;
            if timed {
                out.ops[usize::from(!write)].push((call_s, op_s));
            }
        }
    }
    out.readback_ok = back == expected_readback(w, &user, READ_FILL);
    out.spans = trace::disarm();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn times_scale_with_the_rounds_gauge() {
        let w = by_name("ind-small").unwrap();
        let cfg = RoundCfg {
            seed: 1,
            k: 2,
            traced: false,
            op_base: 0,
        };
        let mut round = run_round(w, Engine::Listless, &cfg, false).unwrap();
        assert!(round.gauge_s > 0.0 && round.readback_ok);
        assert_eq!((round.ops, round.write_s.len()), (80, 2));
        // a round on cores half as fast as the reference took twice the
        // seconds the quiet box would have
        round.gauge_s = 2.0 * GAUGE_REF_S;
        assert_eq!(round.at_ref_speed(3.0), 1.5);
    }
}
