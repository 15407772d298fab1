//! One run of one workload: rounds until the run's seconds are spent, the
//! correctness checks, and the metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use lio_core::Engine;

use crate::layers::replay;
use crate::round::{run_round, Round, RoundCfg};
use crate::stats::{iqr_frac, median, percentile};
use crate::trace::{self, Span};
use crate::workload::{reference_image, Access, Workload, RANKS, WARMUP};

const MB: f64 = 1.0e6;
const TRACED_ROUNDS: usize = 3;

/// Name and unit of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("write_mbps", "MB/s"),
    ("read_mbps", "MB/s"),
    ("lb_write_mbps", "MB/s"),
    ("lb_read_mbps", "MB/s"),
];

/// The per-layer names of the spread between rounds, in [`END_TO_END`]
/// order.
const ROUND_IQR_KEYS: [&str; 5] = [
    "bench.round_iqr_frac.setup_s",
    "bench.round_iqr_frac.write_mbps",
    "bench.round_iqr_frac.read_mbps",
    "bench.round_iqr_frac.lb_write_mbps",
    "bench.round_iqr_frac.lb_read_mbps",
];

/// Name and unit of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("datatype.pack_mbps", "MB/s"),
    ("datatype.unpack_mbps", "MB/s"),
    ("datatype.pack_over_memcpy", "ratio"),
    ("datatype.unpack_over_memcpy", "ratio"),
    ("datatype.ff_size_ns", "ns"),
    ("datatype.ff_extent_ns", "ns"),
    ("datatype.ff_offset_ns", "ns"),
    ("datatype.flatten_ms", "ms"),
    ("datatype.ollist_bytes", "bytes"),
    ("datatype.blocks_per_op", "count"),
    ("datatype.encode_us", "us"),
    ("datatype.decode_us", "us"),
    ("datatype.encoded_bytes", "bytes"),
    ("mpi.pingpong_us", "us"),
    ("mpi.barrier_us", "us"),
    ("mpi.exchange_mbps", "MB/s"),
    ("mpi.msgs_per_op", "count"),
    ("mpi.bytes_per_user_byte", "ratio"),
    ("mpi.lb_msgs_per_op", "count"),
    ("mpi.lb_bytes_per_user_byte", "ratio"),
    ("pfs.reads_per_op", "count"),
    ("pfs.writes_per_op", "count"),
    ("pfs.write_amp", "ratio"),
    ("pfs.rmw_read_frac", "ratio"),
    ("pfs.read_amp", "ratio"),
    ("pfs.max_request_bytes", "bytes"),
    ("pfs.busy_frac_write", "ratio"),
    ("pfs.busy_frac_read", "ratio"),
    ("pfs.seq_write_mbps", "MB/s"),
    ("pfs.seq_read_mbps", "MB/s"),
    ("core.open_us", "us"),
    ("core.set_view_us", "us"),
    ("core.lb_set_view_us", "us"),
    ("core.write_op_ms_p50", "ms"),
    ("core.write_op_ms_p98", "ms"),
    ("core.read_op_ms_p50", "ms"),
    ("core.read_op_ms_p98", "ms"),
    ("core.rank_skew_frac", "ratio"),
    ("core.write_unaccounted_frac", "ratio"),
    ("core.read_unaccounted_frac", "ratio"),
    ("core.r_write", "ratio"),
    ("core.r_read", "ratio"),
    ("bench.memcpy_mbps", "MB/s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.gauge_us", "us"),
    ("bench.raw_write_mbps", "MB/s"),
    ("bench.raw_read_mbps", "MB/s"),
    ("bench.raw_lb_write_mbps", "MB/s"),
    ("bench.raw_lb_read_mbps", "MB/s"),
    ("bench.round_iqr_frac.setup_s", "ratio"),
    ("bench.round_iqr_frac.write_mbps", "ratio"),
    ("bench.round_iqr_frac.read_mbps", "ratio"),
    ("bench.round_iqr_frac.lb_write_mbps", "ratio"),
    ("bench.round_iqr_frac.lb_read_mbps", "ratio"),
];

pub struct RunOpts {
    pub seed: u64,
    /// How long the run measures: the harness passes `run_seconds` of
    /// `BENCHMARK.json`.
    pub seconds: f64,
    pub traced: bool,
    /// One round of two timed samples, every check on.
    pub smoke: bool,
}

pub struct Outcome {
    pub traced: bool,
    pub k: usize,
    /// Untraced rounds behind the metrics.
    pub rounds: usize,
    /// Share of the machine's CPU time during the untraced rounds that the
    /// hypervisor gave to someone else while this guest wanted it: context
    /// for whoever reads the numbers, no sample is left out because of it.
    pub steal_frac: f64,
    /// Operations issued plus verification checks made, and how many of
    /// either failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// IQR / median of the per-round values behind each end-to-end
    /// metric: the noise floor `compare` judges a change against.
    pub round_iqr_frac: Vec<(&'static str, f64)>,
    /// Timed samples (of `Workload::batch` operations each) behind each of
    /// the four bandwidths.
    pub samples_per_metric: usize,
    pub seconds_measured: f64,
    pub spans: Vec<Span>,
}

/// Running totals of the correctness checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    fn ops(&mut self, r: &Round) {
        self.attempted += r.ops;
        self.failed += r.failed_ops;
        if r.failed_ops > 0 {
            eprintln!("OPS FAILED: {} of {} ({:?})", r.failed_ops, r.ops, r.engine);
        }
    }
}

/// (steal, total) CPU ticks of the machine so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Timed samples per direction, engine and round.
fn timed_samples(w: &Workload, opts: &RunOpts) -> usize {
    if opts.smoke {
        2
    } else {
        w.k
    }
}

/// Rounds of both engines, the engine that starts alternating from a
/// seeded first choice: `at_most` rounds, and no round that would end
/// after `seconds`. The first untraced round of each engine also compares
/// the whole file with the reference and with the other engine's file.
fn run_rounds(
    w: &Workload,
    opts: &RunOpts,
    traced: bool,
    at_most: usize,
    seconds: f64,
    reference: &[u8],
    checks: &mut Checks,
) -> std::io::Result<Vec<Round>> {
    let k = timed_samples(w, opts);
    let mut rounds = Vec::new();
    let start = Instant::now();
    for r in 0..at_most {
        let t_round = Instant::now();
        let mut order = [Engine::Listless, Engine::ListBased];
        if (opts.seed as usize + r) % 2 == 1 {
            order.reverse();
        }
        let mut first_image: Option<Vec<u8>> = None;
        for (e, engine) in order.into_iter().enumerate() {
            let cfg = RoundCfg {
                seed: opts.seed,
                k,
                traced,
                op_base: ((r * 2 + e) as u64) << 20,
            };
            let mut round = run_round(w, engine, &cfg, r == 0 && !traced)?;
            checks.ops(&round);
            checks.check("read-back equals what was written", round.readback_ok);
            if let Some(image) = round.image.take() {
                checks.check("file image equals the naive reference", image == reference);
                match first_image.take() {
                    None => first_image = Some(image),
                    Some(other) => checks.check("both engines leave the same file", image == other),
                }
            }
            rounds.push(round);
        }
        if (start.elapsed() + t_round.elapsed()).as_secs_f64() > seconds {
            break;
        }
    }
    Ok(rounds)
}

fn of_engine(rounds: &[Round], engine: Engine) -> impl Iterator<Item = &Round> {
    rounds.iter().filter(move |r| r.engine == engine)
}

/// Per-round values behind the five end-to-end metrics, in
/// [`END_TO_END`] order, all in seconds: set-up time, then the round's
/// median op time per direction and engine. `at_ref_speed` scales each by
/// the round's gauge (see [`crate::round::GAUGE_REF_S`]); without it they
/// are the times the clock showed.
fn per_round_values(rounds: &[Round], at_ref_speed: bool) -> [Vec<f64>; 5] {
    let col = |engine, f: &dyn Fn(&Round) -> f64| {
        of_engine(rounds, engine)
            .map(|r| {
                if at_ref_speed {
                    r.at_ref_speed(f(r))
                } else {
                    f(r)
                }
            })
            .collect()
    };
    [
        col(Engine::Listless, &|r| r.setup_s),
        col(Engine::Listless, &|r| median(&r.write_s)),
        col(Engine::Listless, &|r| median(&r.read_s)),
        col(Engine::ListBased, &|r| median(&r.write_s)),
        col(Engine::ListBased, &|r| median(&r.read_s)),
    ]
}

/// Set-up seconds and the four bandwidths: a bandwidth is
/// `bytes_per_proc` over the median over rounds of the round's median op
/// time.
fn end_to_end(w: &Workload, rounds: &[Round], at_ref_speed: bool) -> [f64; 5] {
    let secs = per_round_values(rounds, at_ref_speed).map(|v| median(&v));
    let bw = |s: f64| w.bytes_per_proc() as f64 / s / MB;
    [secs[0], bw(secs[1]), bw(secs[2]), bw(secs[3]), bw(secs[4])]
}

pub fn run_workload(w: &'static Workload, opts: &RunOpts) -> std::io::Result<Outcome> {
    let t_run = Instant::now();
    let k = timed_samples(w, opts);
    let reference = reference_image(w, opts.seed, (WARMUP + k) * w.batch);
    let mut checks = Checks::default();

    // A traced run spends half its time on untraced rounds: the reference
    // for the tracing overhead and the noise floor.
    let (at_most, seconds) = match (opts.smoke, opts.traced) {
        (true, _) => (1, f64::INFINITY),
        (false, false) => (usize::MAX, opts.seconds),
        (false, true) => (usize::MAX, opts.seconds / 2.0),
    };
    let ticks_before = cpu_ticks();
    let rounds = run_rounds(w, opts, false, at_most, seconds, &reference, &mut checks)?;
    let steal_frac = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let n_rounds = of_engine(&rounds, Engine::Listless).count();
    let e2e = end_to_end(w, &rounds, true);
    let iqr = per_round_values(&rounds, true).map(|v| iqr_frac(&v));
    let round_iqr_frac: Vec<_> = END_TO_END.iter().map(|(n, _)| *n).zip(iqr).collect();

    let mut out = Outcome {
        traced: opts.traced,
        k,
        rounds: n_rounds,
        steal_frac,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        round_iqr_frac,
        samples_per_metric: n_rounds * k,
        seconds_measured: 0.0,
        spans: Vec::new(),
    };

    if !opts.traced {
        out.metrics = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    } else {
        let at_most = if opts.smoke { 1 } else { TRACED_ROUNDS };
        let traced = run_rounds(
            w,
            opts,
            true,
            at_most,
            f64::INFINITY,
            &reference,
            &mut checks,
        )?;
        let rep = replay(w, opts.seed, opts.smoke)?;
        let mut values = rep.metrics.clone();
        values.extend(traced_metrics(w, &rounds, &traced, &rep, e2e));
        values.extend(ROUND_IQR_KEYS.into_iter().zip(iqr));
        out.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                (name, v, unit)
            })
            .collect();
        for r in traced {
            trace::merge(&mut out.spans, r.spans);
        }
    }
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out.seconds_measured = t_run.elapsed().as_secs_f64();
    Ok(out)
}

/// Per-op sums over the spans of one engine's traced rounds.
#[derive(Default)]
struct SpanSums {
    ops: [u64; 2],             // timed world-ops: [write, read]
    calls: [[u64; 2]; 2],      // [op direction][storage read, write] requests
    bytes: [[u64; 2]; 2],      // same, payload bytes
    busy_ns: [u64; 2],         // storage time on the slowest rank
    op_samples: [Vec<f64>; 2], // slowest rank's File call per op, seconds
    max_request: u64,
}

fn span_sums(w: &Workload, rounds: &[Round], engine: Engine) -> SpanSums {
    // op spans are the roots named core.{write,read}_at[_all]
    let dir_of = |name: &str| match name {
        "core.write_at" | "core.write_at_all" => Some(0),
        "core.read_at" | "core.read_at_all" => Some(1),
        _ => None,
    };
    // the low bits count a direction's operations from 1, warm-ups first
    let timed = |sp: &Span| (sp.op_id & 0xffff) > (WARMUP * w.batch) as u64;
    let mut s = SpanSums::default();
    for round in of_engine(rounds, engine) {
        let spans = &round.spans;
        let selfs = trace::self_times(spans);
        // per op, the rank whose File call took longest
        let mut slowest: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, sp) in spans.iter().enumerate().filter(|(_, sp)| timed(sp)) {
            if let Some(p) = sp.parent {
                let Some(dir) = dir_of(spans[p].name) else {
                    continue;
                };
                let kind = match sp.name {
                    "pfs.read_at" => 0,
                    "pfs.write_at" => 1,
                    _ => continue,
                };
                s.calls[dir][kind] += 1;
                s.bytes[dir][kind] += sp.bytes;
                s.max_request = s.max_request.max(sp.bytes);
            } else if dir_of(sp.name).is_some() {
                let j = slowest.entry(sp.op_id).or_insert(i);
                if spans[*j].dur_ns() < sp.dur_ns() {
                    *j = i;
                }
            }
        }
        for &j in slowest.values() {
            let dir = dir_of(spans[j].name).expect("only op spans were kept");
            s.ops[dir] += 1;
            s.busy_ns[dir] += spans[j].dur_ns() - selfs[j];
            s.op_samples[dir].push(spans[j].dur_ns() as f64 / 1e9);
        }
    }
    s
}

fn traced_metrics(
    w: &Workload,
    untraced: &[Round],
    traced: &[Round],
    rep: &crate::layers::Replay,
    e2e: [f64; 5],
) -> Vec<(&'static str, f64)> {
    let user_bytes = (w.bytes_per_proc() * RANKS as u64) as f64;
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // --- lio-mpi: exact message counts inside File calls -----------------
    for (engine, msgs, bytes) in [
        (
            Engine::Listless,
            "mpi.msgs_per_op",
            "mpi.bytes_per_user_byte",
        ),
        (
            Engine::ListBased,
            "mpi.lb_msgs_per_op",
            "mpi.lb_bytes_per_user_byte",
        ),
    ] {
        let ops: f64 = of_engine(traced, engine)
            .map(|r| ((r.write_s.len() + r.read_s.len()) * w.batch) as f64)
            .sum();
        let sent: u64 = of_engine(traced, engine).map(|r| r.msgs).sum();
        let sent_bytes: u64 = of_engine(traced, engine).map(|r| r.msg_bytes).sum();
        m.push((msgs, sent as f64 / ops));
        m.push((bytes, sent_bytes as f64 / (ops * user_bytes)));
    }

    // --- lio-pfs: exact request counts and time, listless engine ---------
    let s = span_sums(w, traced, Engine::Listless);
    let [wr, rd] = [0, 1];
    let per = |n: u64, ops: u64| n as f64 / ops as f64;
    m.push(("pfs.reads_per_op", per(s.calls[rd][0], s.ops[rd])));
    m.push(("pfs.writes_per_op", per(s.calls[wr][1], s.ops[wr])));
    m.push(("pfs.write_amp", per(s.bytes[wr][1], s.ops[wr]) / user_bytes));
    m.push((
        "pfs.rmw_read_frac",
        per(s.bytes[wr][0], s.ops[wr]) / user_bytes,
    ));
    m.push(("pfs.read_amp", per(s.bytes[rd][0], s.ops[rd]) / user_bytes));
    m.push(("pfs.max_request_bytes", s.max_request as f64));
    let busy = [wr, rd].map(|d| s.busy_ns[d] as f64 / 1e9 / s.op_samples[d].iter().sum::<f64>());
    m.push(("pfs.busy_frac_write", busy[wr]));
    m.push(("pfs.busy_frac_read", busy[rd]));

    // --- lio-core: set-up pieces, op-time distribution, self time --------
    let med = |rounds: &[Round], engine, f: fn(&Round) -> f64| {
        median(&of_engine(rounds, engine).map(f).collect::<Vec<_>>())
    };
    m.push((
        "core.open_us",
        med(untraced, Engine::Listless, |r| r.open_s) * 1e6,
    ));
    m.push((
        "core.set_view_us",
        med(untraced, Engine::Listless, |r| r.set_view_s) * 1e6,
    ));
    m.push((
        "core.lb_set_view_us",
        med(untraced, Engine::ListBased, |r| r.set_view_s) * 1e6,
    ));
    let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        of_engine(untraced, Engine::Listless)
            .flat_map(|r| f(r).iter().copied())
            .collect()
    };
    let (writes, reads) = (pooled(|r| &r.write_s), pooled(|r| &r.read_s));
    m.push(("core.write_op_ms_p50", percentile(&writes, 50.0) * 1e3));
    m.push(("core.write_op_ms_p98", percentile(&writes, 98.0) * 1e3));
    m.push(("core.read_op_ms_p50", percentile(&reads, 50.0) * 1e3));
    m.push(("core.read_op_ms_p98", percentile(&reads, 98.0) * 1e3));
    m.push(("core.rank_skew_frac", median(&pooled(|r| &r.skew))));
    // self time of lio-core: what is left of the File call once storage
    // time and the replayed pack and exchange of one op are taken out
    let exchange_s = match w.access {
        Access::Collective => rep.exchange_s,
        Access::Independent => 0.0,
    };
    let call_s = [wr, rd].map(|d| median(&s.op_samples[d]));
    m.push((
        "core.write_unaccounted_frac",
        1.0 - busy[wr] - (rep.pack_s + exchange_s) / call_s[wr],
    ));
    m.push((
        "core.read_unaccounted_frac",
        1.0 - busy[rd] - (rep.unpack_s + exchange_s) / call_s[rd],
    ));
    m.push(("core.r_write", e2e[1] / e2e[3]));
    m.push(("core.r_read", e2e[2] / e2e[4]));

    // --- the benchmark itself ---------------------------------------------
    let op_medians = |rounds: &[Round]| {
        med(rounds, Engine::Listless, |r| {
            r.at_ref_speed(median(&r.write_s))
        }) + med(rounds, Engine::Listless, |r| {
            r.at_ref_speed(median(&r.read_s))
        })
    };
    m.push((
        "bench.trace_overhead_frac",
        op_medians(traced) / op_medians(untraced) - 1.0,
    ));
    // what the clock showed, before scaling to the reference core speed
    let gauges: Vec<f64> = untraced.iter().map(|r| r.gauge_s).collect();
    m.push(("bench.gauge_us", median(&gauges) * 1e6));
    let raw = end_to_end(w, untraced, false);
    m.push(("bench.raw_write_mbps", raw[1]));
    m.push(("bench.raw_read_mbps", raw[2]));
    m.push(("bench.raw_lb_write_mbps", raw[3]));
    m.push(("bench.raw_lb_read_mbps", raw[4]));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn smoke_runs_give_every_metric_and_no_failure() {
        let w = by_name("coll-small").unwrap();
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let opts = RunOpts {
                seed: 3,
                seconds: 1.0,
                traced,
                smoke: true,
            };
            let out = run_workload(w, &opts).unwrap();
            assert_eq!((out.failed, out.rounds, out.k), (0, 1, 2));
            // ops of both engines, a read-back check each, two image
            // checks and the identity check; the traced round adds ops
            // and read-back checks only
            let per_round = 2 * (2 * ((WARMUP + 2) * w.batch) as u64 + 1);
            assert_eq!(
                out.attempted,
                per_round + 3 + if traced { per_round } else { 0 }
            );
            let names: Vec<_> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(names, table);
            assert!(
                out.metrics.iter().all(|m| m.1.is_finite()),
                "{:?}",
                out.metrics
            );
            assert_eq!(out.spans.is_empty(), !traced);
        }
    }

    #[test]
    fn traced_counts_are_exact() {
        let w = by_name("ind-small").unwrap();
        let opts = RunOpts {
            seed: 5,
            seconds: 1.0,
            traced: true,
            smoke: true,
        };
        let out = run_workload(w, &opts).unwrap();
        let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
        // 256 KiB of file per op, less the gap after rank 1's last block,
        // in one sieve window, read-modify-write, by two ranks; no messages
        // on the independent path
        assert_eq!(get("pfs.writes_per_op"), 2.0);
        assert_eq!(get("pfs.reads_per_op"), 2.0);
        assert_eq!(get("pfs.max_request_bytes"), ((256 << 10) - 8) as f64);
        assert_eq!(get("mpi.msgs_per_op"), 0.0);
        assert_eq!(get("datatype.blocks_per_op"), 16384.0);
        assert!(get("pfs.rmw_read_frac") > 1.9 && get("pfs.write_amp") < 2.0);
    }
}
