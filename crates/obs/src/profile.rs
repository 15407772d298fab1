//! `lio-profile`: per-open, per-op access-pattern characterization. Its
//! consumer is `repro profile`, which prints each workload's
//! [`ProfileSnapshot::characterize`] line and writes the snapshots to
//! `results/profile.json`.
//!
//! The profiler aggregates, with zero allocation on the hot path and the
//! same enable discipline as [`crate::trace`] (one relaxed atomic load
//! when disabled, `profile` in the one [`crate::Layers`] switch to arm):
//!
//! * per-op-class request counts and bytes (independent/collective ×
//!   read/write);
//! * flattened-run size and stride-gap log2 histograms with a contiguity
//!   ratio (fed by the shared run chokepoints in `lio-core::view`, the
//!   sieving paths, and the two-phase access lists);
//! * fileview shape (size, extent, leaf runs → density and mean block);
//! * compiled run-program shape from `lio-datatype` (frame kinds, block
//!   size range, normalization status);
//! * file-domain span/coverage/overlap and per-rank access-byte skew
//!   from the two-phase engine, plus per-rank exchange-byte skew from
//!   `lio-mpi`;
//! * storage-level request-size histograms from `lio-pfs`;
//! * the existing `core.coll.critical.*`-style phase breakdown, read
//!   from the metric registry at snapshot time.
//!
//! [`snapshot`] freezes everything into a [`ProfileSnapshot`] (plain
//! data, JSON-serializable).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use crate::{Histogram, HistogramSnapshot, Layers, MAX_RANKS};

// ---------------------------------------------------------------------------
// Enable flag (same discipline as trace)
// ---------------------------------------------------------------------------

/// Is profiling currently recording? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    crate::armed().contains(Layers::PROFILE)
}

/// Turn profiling on or off globally.
pub fn set_enabled(on: bool) {
    crate::arm_layers(Layers::PROFILE, on);
}

// ---------------------------------------------------------------------------
// Aggregation state
// ---------------------------------------------------------------------------

/// The four op classes a request can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    IndWrite,
    IndRead,
    CollWrite,
    CollRead,
}

impl OpClass {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            OpClass::IndWrite => 0,
            OpClass::IndRead => 1,
            OpClass::CollWrite => 2,
            OpClass::CollRead => 3,
        }
    }

    /// Stable snake_case name used in JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::IndWrite => "ind_write",
            OpClass::IndRead => "ind_read",
            OpClass::CollWrite => "coll_write",
            OpClass::CollRead => "coll_read",
        }
    }

    fn all() -> [OpClass; Self::COUNT] {
        [
            OpClass::IndWrite,
            OpClass::IndRead,
            OpClass::CollWrite,
            OpClass::CollRead,
        ]
    }
}

#[derive(Default)]
struct PerClass {
    requests: AtomicU64,
    bytes: AtomicU64,
}

struct State {
    classes: [PerClass; OpClass::COUNT],
    // flattened-run shape (all classes; per-workload via reset())
    runs: AtomicU64,
    contig_runs: AtomicU64,
    run_sizes: Histogram,
    run_gaps: Histogram,
    // last-established fileview shape
    views_set: AtomicU64,
    view_size: AtomicU64,
    view_extent: AtomicU64,
    view_leaf_runs: AtomicU64,
    view_contiguous: AtomicU64,
    // compiled run-program shape
    programs: AtomicU64,
    programs_normalized: AtomicU64,
    programs_rewritten: AtomicU64,
    programs_born_strided: AtomicU64,
    frames: AtomicU64,
    loop_frames: AtomicU64,
    tail_frames: AtomicU64,
    min_block: AtomicU64,
    max_block: AtomicU64,
    program_blocks: Histogram,
    // file domains (recorded by rank 0 of each collective)
    domain_ops: AtomicU64,
    domain_span: AtomicU64,
    domain_covered: AtomicU64,
    domain_overlap: AtomicU64,
    rank_access_bytes: [AtomicU64; MAX_RANKS],
    // exchange skew (recorded at each send site)
    rank_exchange_bytes: [AtomicU64; MAX_RANKS],
    // storage-level request shapes
    pfs_read_sizes: Histogram,
    pfs_write_sizes: Histogram,
}

impl State {
    fn new() -> State {
        State {
            classes: Default::default(),
            runs: AtomicU64::new(0),
            contig_runs: AtomicU64::new(0),
            run_sizes: Histogram::new(),
            run_gaps: Histogram::new(),
            views_set: AtomicU64::new(0),
            view_size: AtomicU64::new(0),
            view_extent: AtomicU64::new(0),
            view_leaf_runs: AtomicU64::new(0),
            view_contiguous: AtomicU64::new(0),
            programs: AtomicU64::new(0),
            programs_normalized: AtomicU64::new(0),
            programs_rewritten: AtomicU64::new(0),
            programs_born_strided: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            loop_frames: AtomicU64::new(0),
            tail_frames: AtomicU64::new(0),
            min_block: AtomicU64::new(u64::MAX),
            max_block: AtomicU64::new(0),
            program_blocks: Histogram::new(),
            domain_ops: AtomicU64::new(0),
            domain_span: AtomicU64::new(0),
            domain_covered: AtomicU64::new(0),
            domain_overlap: AtomicU64::new(0),
            rank_access_bytes: std::array::from_fn(|_| AtomicU64::new(0)),
            rank_exchange_bytes: std::array::from_fn(|_| AtomicU64::new(0)),
            pfs_read_sizes: Histogram::new(),
            pfs_write_sizes: Histogram::new(),
        }
    }
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(State::new)
}

/// Zero all profile aggregates (the enable flag is left alone).
pub fn reset() {
    let s = state();
    for c in &s.classes {
        c.requests.store(0, Relaxed);
        c.bytes.store(0, Relaxed);
    }
    s.runs.store(0, Relaxed);
    s.contig_runs.store(0, Relaxed);
    s.run_sizes.reset();
    s.run_gaps.reset();
    s.views_set.store(0, Relaxed);
    s.view_size.store(0, Relaxed);
    s.view_extent.store(0, Relaxed);
    s.view_leaf_runs.store(0, Relaxed);
    s.view_contiguous.store(0, Relaxed);
    s.programs.store(0, Relaxed);
    s.programs_normalized.store(0, Relaxed);
    s.programs_rewritten.store(0, Relaxed);
    s.programs_born_strided.store(0, Relaxed);
    s.frames.store(0, Relaxed);
    s.loop_frames.store(0, Relaxed);
    s.tail_frames.store(0, Relaxed);
    s.min_block.store(u64::MAX, Relaxed);
    s.max_block.store(0, Relaxed);
    s.program_blocks.reset();
    s.domain_ops.store(0, Relaxed);
    s.domain_span.store(0, Relaxed);
    s.domain_covered.store(0, Relaxed);
    s.domain_overlap.store(0, Relaxed);
    for a in &s.rank_access_bytes {
        a.store(0, Relaxed);
    }
    for a in &s.rank_exchange_bytes {
        a.store(0, Relaxed);
    }
    s.pfs_read_sizes.reset();
    s.pfs_write_sizes.reset();
}

// ---------------------------------------------------------------------------
// Recording API (every fn early-returns on one relaxed load when disabled)
// ---------------------------------------------------------------------------

/// One user-level request of `bytes` entering class `class`.
#[inline(always)]
pub fn record_op(class: OpClass, bytes: u64) {
    if !enabled() {
        return;
    }
    let c = &state().classes[class.index()];
    c.requests.fetch_add(1, Relaxed);
    c.bytes.fetch_add(bytes, Relaxed);
}

/// One flattened file run of `len` bytes, `gap` bytes after the previous
/// run's end (`contiguous` when it directly extends the previous run).
#[inline(always)]
pub fn record_run(len: u64, gap: u64, contiguous: bool) {
    if !enabled() {
        return;
    }
    let s = state();
    s.runs.fetch_add(1, Relaxed);
    if contiguous {
        s.contig_runs.fetch_add(1, Relaxed);
    } else if gap > 0 {
        s.run_gaps.record(gap);
    }
    s.run_sizes.record(len);
}

/// `count` identical runs of `block` bytes separated by `stride` bytes —
/// the batch form for a copy that never materializes individual runs
/// (the listless window placement, from the program's run count).
#[inline(always)]
pub fn record_strided(block: u64, stride: u64, count: u64) {
    if !enabled() || count == 0 {
        return;
    }
    let s = state();
    s.runs.fetch_add(count, Relaxed);
    s.run_sizes.record_n(block, count);
    if stride > block {
        s.run_gaps.record_n(stride - block, count.saturating_sub(1));
    } else {
        s.contig_runs.fetch_add(count, Relaxed);
    }
}

/// A fileview was established: filetype `size`/`extent`/`leaf_runs` and
/// whether the view is contiguous. Last writer wins (one view per open
/// in the repro workloads).
#[inline(always)]
pub fn record_view(size: u64, extent: u64, leaf_runs: u64, contiguous: bool) {
    if !enabled() {
        return;
    }
    let s = state();
    s.views_set.fetch_add(1, Relaxed);
    s.view_size.store(size, Relaxed);
    s.view_extent.store(extent, Relaxed);
    s.view_leaf_runs.store(leaf_runs, Relaxed);
    s.view_contiguous.store(contiguous as u64, Relaxed);
}

/// A datatype run-program was compiled: its frame mix, block-size range,
/// whether it reached the fully strided single-`Blocks` form
/// (`normalized`), how many rewrites the normalization pass applied to
/// get there (`rewrites` — 0 means the program was *born* strided), and
/// the block size of every `Blocks` frame (feeds the block-size
/// histogram of the access-pattern summary).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn record_program(
    frames: u32,
    loops: u32,
    tails: u32,
    min_block: u64,
    max_block: u64,
    normalized: bool,
    rewrites: u32,
    block_sizes: &[u64],
) {
    if !enabled() {
        return;
    }
    let s = state();
    s.programs.fetch_add(1, Relaxed);
    if normalized {
        s.programs_normalized.fetch_add(1, Relaxed);
    }
    if rewrites > 0 {
        s.programs_rewritten.fetch_add(1, Relaxed);
    } else if normalized {
        s.programs_born_strided.fetch_add(1, Relaxed);
    }
    s.frames.fetch_add(frames as u64, Relaxed);
    s.loop_frames.fetch_add(loops as u64, Relaxed);
    s.tail_frames.fetch_add(tails as u64, Relaxed);
    if min_block != u64::MAX {
        s.min_block.fetch_min(min_block, Relaxed);
    }
    s.max_block.fetch_max(max_block, Relaxed);
    for &b in block_sizes {
        s.program_blocks.record(b);
    }
}

/// File-domain geometry of one collective op (record on one rank only):
/// overall `span` (hi − lo), `covered` union bytes, pairwise `overlap`.
#[inline(always)]
pub fn record_domains(span: u64, covered: u64, overlap: u64) {
    if !enabled() {
        return;
    }
    let s = state();
    s.domain_ops.fetch_add(1, Relaxed);
    s.domain_span.fetch_add(span, Relaxed);
    s.domain_covered.fetch_add(covered, Relaxed);
    s.domain_overlap.fetch_add(overlap, Relaxed);
}

/// `rank` accessed `bytes` within its span this collective op.
#[inline(always)]
pub fn record_rank_access(rank: u32, bytes: u64) {
    if !enabled() {
        return;
    }
    let i = rank as usize;
    if i < MAX_RANKS {
        state().rank_access_bytes[i].fetch_add(bytes, Relaxed);
    }
}

/// `rank` sent `bytes` point-to-point (exchange skew).
#[inline(always)]
pub fn record_rank_exchange(rank: u32, bytes: u64) {
    if !enabled() {
        return;
    }
    let i = rank as usize;
    if i < MAX_RANKS {
        state().rank_exchange_bytes[i].fetch_add(bytes, Relaxed);
    }
}

/// One storage-level request of `bytes` (after sieving/two-phase
/// coalescing — the access granularity the file system actually sees).
#[inline(always)]
pub fn record_pfs(write: bool, bytes: u64) {
    if !enabled() {
        return;
    }
    let s = state();
    if write {
        s.pfs_write_sizes.record(bytes);
    } else {
        s.pfs_read_sizes.record(bytes);
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Per-op-class request totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpStats {
    pub requests: u64,
    pub bytes: u64,
}

/// Flattened-run shape over the whole profile window.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    pub total: u64,
    pub contiguous: u64,
    pub sizes: HistogramSnapshot,
    pub gaps: HistogramSnapshot,
}

impl RunStats {
    /// Fraction of runs that directly extend their predecessor.
    pub fn contiguity(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.contiguous as f64 / self.total as f64
        }
    }
}

/// Shape of the last-established fileview.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewStats {
    pub views_set: u64,
    pub size: u64,
    pub extent: u64,
    pub leaf_runs: u64,
    pub contiguous: bool,
}

impl ViewStats {
    /// Data density within the filetype extent (1.0 = fully dense).
    pub fn density(&self) -> f64 {
        if self.extent == 0 {
            0.0
        } else {
            self.size as f64 / self.extent as f64
        }
    }

    /// Mean contiguous block size of the filetype, bytes.
    pub fn mean_block(&self) -> f64 {
        if self.leaf_runs == 0 {
            0.0
        } else {
            self.size as f64 / self.leaf_runs as f64
        }
    }
}

/// Compiled run-program shape totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShapeStats {
    pub programs: u64,
    /// Programs that reached the fully strided single-`Blocks` form.
    pub normalized: u64,
    /// Programs the normalization pass actually rewrote (≥ 1 rewrite);
    /// `normalized` programs with no rewrites were *born* strided.
    pub rewritten: u64,
    /// Programs already canonical before the pass (strided with zero
    /// rewrites).
    pub born_strided: u64,
    pub frames: u64,
    pub loop_frames: u64,
    pub tail_frames: u64,
    /// Smallest contiguous block any program moves; 0 when none compiled.
    pub min_block: u64,
    pub max_block: u64,
    /// Block size of every compiled `Blocks` frame — what the frame
    /// executor's block copies move.
    pub block_sizes: HistogramSnapshot,
}

/// File-domain geometry and per-rank skew.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DomainStats {
    pub ops: u64,
    pub span_bytes: u64,
    pub covered_bytes: u64,
    pub overlap_bytes: u64,
    /// Access bytes per rank (trailing all-zero ranks trimmed).
    pub rank_access_bytes: Vec<u64>,
    /// Exchange bytes sent per rank (trailing all-zero ranks trimmed).
    pub rank_exchange_bytes: Vec<u64>,
}

impl DomainStats {
    /// Fraction of the overall span actually covered by data (1.0 =
    /// dense — the covered-window write optimization applies).
    pub fn coverage(&self) -> f64 {
        if self.span_bytes == 0 {
            0.0
        } else {
            self.covered_bytes as f64 / self.span_bytes as f64
        }
    }

    /// max/mean ratio over participating ranks (1.0 = perfectly
    /// balanced); 0 when nothing was recorded.
    pub fn access_skew(&self) -> f64 {
        skew(&self.rank_access_bytes)
    }

    /// max/mean exchange-byte ratio over participating ranks.
    pub fn exchange_skew(&self) -> f64 {
        skew(&self.rank_exchange_bytes)
    }
}

fn skew(per_rank: &[u64]) -> f64 {
    let active: Vec<u64> = per_rank.iter().copied().filter(|&b| b > 0).collect();
    if active.is_empty() {
        return 0.0;
    }
    let max = *active.iter().max().unwrap() as f64;
    let mean = active.iter().sum::<u64>() as f64 / active.len() as f64;
    max / mean
}

/// Storage-level request-size distributions.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageStats {
    pub read_sizes: HistogramSnapshot,
    pub write_sizes: HistogramSnapshot,
}

/// Critical-phase nanoseconds from the `core.coll.*` metric counters,
/// read from the registry at snapshot time (requires `lio_obs` enabled
/// during the run; zeros otherwise).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    pub exchange_ns: u64,
    pub io_ns: u64,
    pub pack_ns: u64,
}

impl PhaseNs {
    pub fn total(&self) -> u64 {
        self.exchange_ns + self.io_ns + self.pack_ns
    }

    /// The dominant phase name and its fraction of the total.
    pub fn bounding(&self) -> (&'static str, f64) {
        let t = self.total();
        if t == 0 {
            return ("none", 0.0);
        }
        let (name, v) = [
            ("exchange", self.exchange_ns),
            ("io", self.io_ns),
            ("pack", self.pack_ns),
        ]
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .unwrap();
        (name, v as f64 / t as f64)
    }
}

/// Everything the profiler knows, frozen at one point in time.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSnapshot {
    /// Per-class totals, indexed like [`OpClass::all`]; use
    /// [`Self::op`] for lookup by class.
    pub ops: Vec<(&'static str, OpStats)>,
    pub runs: RunStats,
    pub view: ViewStats,
    pub shape: ShapeStats,
    pub domains: DomainStats,
    pub storage: StorageStats,
    pub coll_write: PhaseNs,
    pub coll_read: PhaseNs,
}

fn hist_snapshot(h: &Histogram) -> HistogramSnapshot {
    let counts = h.bucket_counts();
    let buckets = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            let (lo, hi) = crate::bucket_bounds(i);
            (lo, hi, c)
        })
        .collect();
    HistogramSnapshot {
        count: h.count(),
        sum: h.sum(),
        min: h.min().unwrap_or(0),
        max: h.max(),
        buckets,
    }
}

fn trim_ranks(slots: &[AtomicU64]) -> Vec<u64> {
    let mut v: Vec<u64> = slots.iter().map(|a| a.load(Relaxed)).collect();
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Freeze the profiler state into a [`ProfileSnapshot`].
pub fn snapshot() -> ProfileSnapshot {
    let s = state();
    let metrics = crate::snapshot();
    let phase = |op: &str| PhaseNs {
        exchange_ns: metrics.counter(&format!("core.coll.{op}.exchange_ns")),
        io_ns: metrics.counter(&format!("core.coll.{op}.io_ns")),
        pack_ns: metrics.counter(&format!("core.coll.{op}.pack_ns")),
    };
    let min_block = s.min_block.load(Relaxed);
    ProfileSnapshot {
        ops: OpClass::all()
            .iter()
            .map(|c| {
                let pc = &s.classes[c.index()];
                (
                    c.name(),
                    OpStats {
                        requests: pc.requests.load(Relaxed),
                        bytes: pc.bytes.load(Relaxed),
                    },
                )
            })
            .collect(),
        runs: RunStats {
            total: s.runs.load(Relaxed),
            contiguous: s.contig_runs.load(Relaxed),
            sizes: hist_snapshot(&s.run_sizes),
            gaps: hist_snapshot(&s.run_gaps),
        },
        view: ViewStats {
            views_set: s.views_set.load(Relaxed),
            size: s.view_size.load(Relaxed),
            extent: s.view_extent.load(Relaxed),
            leaf_runs: s.view_leaf_runs.load(Relaxed),
            contiguous: s.view_contiguous.load(Relaxed) != 0,
        },
        shape: ShapeStats {
            programs: s.programs.load(Relaxed),
            normalized: s.programs_normalized.load(Relaxed),
            rewritten: s.programs_rewritten.load(Relaxed),
            born_strided: s.programs_born_strided.load(Relaxed),
            frames: s.frames.load(Relaxed),
            loop_frames: s.loop_frames.load(Relaxed),
            tail_frames: s.tail_frames.load(Relaxed),
            min_block: if min_block == u64::MAX { 0 } else { min_block },
            max_block: s.max_block.load(Relaxed),
            block_sizes: hist_snapshot(&s.program_blocks),
        },
        domains: DomainStats {
            ops: s.domain_ops.load(Relaxed),
            span_bytes: s.domain_span.load(Relaxed),
            covered_bytes: s.domain_covered.load(Relaxed),
            overlap_bytes: s.domain_overlap.load(Relaxed),
            rank_access_bytes: trim_ranks(&s.rank_access_bytes),
            rank_exchange_bytes: trim_ranks(&s.rank_exchange_bytes),
        },
        storage: StorageStats {
            read_sizes: hist_snapshot(&s.pfs_read_sizes),
            write_sizes: hist_snapshot(&s.pfs_write_sizes),
        },
        coll_write: phase("write"),
        coll_read: phase("read"),
    }
}

impl ProfileSnapshot {
    /// Totals for one op class.
    pub fn op(&self, class: OpClass) -> &OpStats {
        &self.ops[class.index()].1
    }

    /// Combined collective phase breakdown (write + read).
    pub fn coll_phases(&self) -> PhaseNs {
        PhaseNs {
            exchange_ns: self.coll_write.exchange_ns + self.coll_read.exchange_ns,
            io_ns: self.coll_write.io_ns + self.coll_read.io_ns,
            pack_ns: self.coll_write.pack_ns + self.coll_read.pack_ns,
        }
    }

    /// One-line characterization for the report table, e.g.
    /// `"write-heavy, 87% contiguous, 4096 B median run, io-bound"`.
    pub fn characterize(&self) -> String {
        let wr = self.op(OpClass::IndWrite).bytes + self.op(OpClass::CollWrite).bytes;
        let rd = self.op(OpClass::IndRead).bytes + self.op(OpClass::CollRead).bytes;
        let dir = if wr > rd * 2 {
            "write-heavy"
        } else if rd > wr * 2 {
            "read-heavy"
        } else {
            "mixed r/w"
        };
        let contig = format!("{:.0}% contiguous", self.runs.contiguity() * 100.0);
        let median = format!("{} B median run", self.runs.sizes.p50());
        let (phase, frac) = self.coll_phases().bounding();
        let bound = if phase == "none" {
            "no phase breakdown".to_string()
        } else {
            format!("{phase}-bound ({:.0}%)", frac * 100.0)
        };
        let progs = if self.shape.programs == 0 {
            String::new()
        } else {
            // distinguish programs the normalization pass rewrote into
            // strided form from those that compiled strided to begin with
            format!(
                ", {} programs ({} rewritten, {} born strided)",
                self.shape.programs, self.shape.rewritten, self.shape.born_strided
            )
        };
        format!("{dir}, {contig}, {median}, {bound}{progs}")
    }

    /// Serialize to a JSON object string. Field order is fixed and all
    /// timing-dependent values (`*_ns`) sit in the trailing `"critical"`
    /// object, so everything before it is deterministic for a
    /// deterministic workload — the determinism test keys on that.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"ops\": {");
        for (i, (name, st)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"requests\": {}, \"bytes\": {}}}",
                st.requests, st.bytes
            ));
        }
        out.push_str("},\n  \"runs\": {");
        out.push_str(&format!(
            "\"total\": {}, \"contiguous\": {}, \"contiguity\": {:.4}, \"sizes\": ",
            self.runs.total,
            self.runs.contiguous,
            self.runs.contiguity()
        ));
        write_hist(&mut out, &self.runs.sizes);
        out.push_str(", \"gaps\": ");
        write_hist(&mut out, &self.runs.gaps);
        out.push_str("},\n  \"view\": {");
        out.push_str(&format!(
            "\"views_set\": {}, \"size\": {}, \"extent\": {}, \"leaf_runs\": {}, \
             \"contiguous\": {}, \"density\": {:.4}, \"mean_block\": {:.1}",
            self.view.views_set,
            self.view.size,
            self.view.extent,
            self.view.leaf_runs,
            self.view.contiguous,
            self.view.density(),
            self.view.mean_block()
        ));
        out.push_str("},\n  \"datatype\": {");
        out.push_str(&format!(
            "\"programs\": {}, \"normalized\": {}, \"rewritten\": {}, \"born_strided\": {}, \
             \"frames\": {}, \"loop_frames\": {}, \
             \"tail_frames\": {}, \"min_block\": {}, \"max_block\": {}, \"block_sizes\": ",
            self.shape.programs,
            self.shape.normalized,
            self.shape.rewritten,
            self.shape.born_strided,
            self.shape.frames,
            self.shape.loop_frames,
            self.shape.tail_frames,
            self.shape.min_block,
            self.shape.max_block
        ));
        write_hist(&mut out, &self.shape.block_sizes);
        out.push_str("},\n  \"domains\": {");
        out.push_str(&format!(
            "\"ops\": {}, \"span_bytes\": {}, \"covered_bytes\": {}, \"overlap_bytes\": {}, \
             \"coverage\": {:.4}, \"access_skew\": {:.4}, \"exchange_skew\": {:.4}, \
             \"rank_access_bytes\": ",
            self.domains.ops,
            self.domains.span_bytes,
            self.domains.covered_bytes,
            self.domains.overlap_bytes,
            self.domains.coverage(),
            self.domains.access_skew(),
            self.domains.exchange_skew()
        ));
        write_u64_array(&mut out, &self.domains.rank_access_bytes);
        out.push_str(", \"rank_exchange_bytes\": ");
        write_u64_array(&mut out, &self.domains.rank_exchange_bytes);
        out.push_str("},\n  \"storage\": {\"read_sizes\": ");
        write_hist(&mut out, &self.storage.read_sizes);
        out.push_str(", \"write_sizes\": ");
        write_hist(&mut out, &self.storage.write_sizes);
        out.push_str("},\n  \"critical\": {");
        for (i, (name, p)) in [("write", self.coll_write), ("read", self.coll_read)]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"exchange_ns\": {}, \"io_ns\": {}, \"pack_ns\": {}}}",
                p.exchange_ns, p.io_ns, p.pack_ns
            ));
        }
        out.push_str("}\n}");
        out
    }
}

fn write_hist(out: &mut String, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.count,
        h.sum,
        h.min,
        h.max,
        h.p50(),
        h.p95(),
        h.p99()
    ));
    for (i, (lo, hi, c)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{lo}, {hi}, {c}]"));
    }
    out.push_str("]}");
}

fn write_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialize tests touching the global profile state.
    fn with_profile<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        with_profile(|| {
            record_op(OpClass::CollWrite, 1 << 20);
            record_op(OpClass::CollWrite, 1 << 20);
            record_run(512, 0, false);
            record_run(512, 1536, false);
            record_run(512, 0, true);
            record_strided(256, 1024, 8);
            record_view(1 << 16, 1 << 18, 128, false);
            record_program(1, 0, 0, 256, 256, true, 0, &[256]);
            record_program(2, 1, 0, 8, 8, true, 3, &[8]);
            record_domains(1 << 20, 1 << 19, 0);
            record_rank_access(0, 1000);
            record_rank_access(1, 3000);
            record_rank_exchange(0, 500);
            record_pfs(true, 4096);

            let p = snapshot();
            assert_eq!(p.op(OpClass::CollWrite).requests, 2);
            assert_eq!(p.op(OpClass::CollWrite).bytes, 2 << 20);
            assert_eq!(p.runs.total, 3 + 8);
            // only the explicit contiguous run counts: the strided batch
            // has stride > block, so its runs all carry gaps
            assert_eq!(p.runs.contiguous, 1);
            assert_eq!(p.view.leaf_runs, 128);
            assert!((p.view.density() - 0.25).abs() < 1e-9);
            assert_eq!(p.shape.normalized, 2);
            assert_eq!(p.shape.rewritten, 1);
            assert_eq!(p.shape.born_strided, 1);
            assert_eq!(p.shape.min_block, 8);
            assert_eq!(p.shape.block_sizes.count, 2);
            assert!((p.domains.coverage() - 0.5).abs() < 1e-9);
            assert_eq!(p.domains.rank_access_bytes, vec![1000, 3000]);
            assert!((p.domains.access_skew() - 1.5).abs() < 1e-9);
            assert_eq!(p.storage.write_sizes.count, 1);

            let json = p.to_json();
            crate::json::validate(&json).expect("profile JSON parses");
        });
    }

    #[test]
    fn strided_contiguity_accounting() {
        with_profile(|| {
            // stride == block: one contiguous sweep
            record_strided(1024, 1024, 16);
            // stride > block: gaps
            record_strided(256, 4096, 8);
            let p = snapshot();
            assert_eq!(p.runs.total, 24);
            assert_eq!(p.runs.contiguous, 16);
            assert_eq!(p.runs.gaps.count, 7); // count-1 gaps for the strided batch
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_profile(|| {
            set_enabled(false);
            record_op(OpClass::IndWrite, 999);
            record_run(999, 0, false);
            record_view(9, 9, 9, true);
            let p = snapshot();
            assert_eq!(p.op(OpClass::IndWrite).requests, 0);
            assert_eq!(p.runs.total, 0);
            assert_eq!(p.view.views_set, 0);
        });
    }

    fn empty_hist() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    fn hist_of(v: u64, n: u64) -> HistogramSnapshot {
        let (lo, hi) = crate::bucket_bounds(crate::bucket_index(v));
        HistogramSnapshot {
            count: n,
            sum: v * n,
            min: v,
            max: v,
            buckets: vec![(lo, hi, n)],
        }
    }

    /// Fig6 shape: exchange-bound collective write through a
    /// non-contiguous interleaved view with small runs.
    fn fixture_collective_small_runs() -> ProfileSnapshot {
        ProfileSnapshot {
            ops: vec![
                ("ind_write", OpStats::default()),
                ("ind_read", OpStats::default()),
                (
                    "coll_write",
                    OpStats {
                        requests: 4,
                        bytes: 4 << 20,
                    },
                ),
                ("coll_read", OpStats::default()),
            ],
            runs: RunStats {
                total: 4096,
                contiguous: 512,
                sizes: hist_of(1024, 4096),
                gaps: hist_of(3072, 3584),
            },
            view: ViewStats {
                views_set: 4,
                size: 1 << 20,
                extent: 4 << 20,
                leaf_runs: 1024,
                contiguous: false,
            },
            shape: ShapeStats {
                programs: 4,
                normalized: 4,
                rewritten: 0,
                born_strided: 4,
                frames: 4,
                loop_frames: 0,
                tail_frames: 0,
                min_block: 1024,
                max_block: 1024,
                block_sizes: hist_of(1024, 4),
            },
            domains: DomainStats {
                ops: 1,
                span_bytes: 4 << 20,
                covered_bytes: 4 << 20,
                overlap_bytes: 0,
                rank_access_bytes: vec![1 << 20; 4],
                rank_exchange_bytes: vec![1 << 20; 4],
            },
            storage: StorageStats {
                read_sizes: empty_hist(),
                write_sizes: hist_of(1 << 20, 4),
            },
            coll_write: PhaseNs {
                exchange_ns: 6_000_000,
                io_ns: 3_000_000,
                pack_ns: 1_000_000,
            },
            coll_read: PhaseNs::default(),
        }
    }

    #[test]
    fn characterize_names_direction_and_bound() {
        let p = fixture_collective_small_runs();
        let line = p.characterize();
        assert!(line.contains("write-heavy"), "{line}");
        assert!(line.contains("exchange-bound"), "{line}");
    }
}
