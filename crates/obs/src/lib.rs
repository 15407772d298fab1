//! `lio-obs`: zero-dependency observability for the listless-io stack.
//!
//! A process-global metrics registry with three instrument kinds:
//!
//! * [`Counter`] — monotonically increasing, sharded across cache lines so
//!   concurrent ranks (threads) never contend on one atomic;
//! * [`Gauge`] — a single last-written / maximum value;
//! * [`Histogram`] — log2-bucketed distribution (sizes in bytes, latencies
//!   in nanoseconds) with count/sum/min/max.
//!
//! Instrumentation sites declare a `static` handle ([`LazyCounter`],
//! [`LazyGauge`], [`LazyHistogram`]) naming the metric; the handle registers
//! itself in the global [`Registry`] on first use. Every recording method is
//! gated on the global [`enabled`] flag, so the **disabled cost is one
//! relaxed atomic load and a predictable branch**; `lio-core`'s `obs_off`
//! test counts that nothing at all is recorded while it is off.
//!
//! Three layers record: these metrics, [`trace`] and [`health`]. One
//! switch arms any set of them, a [`Layers`]: the `LIO_OBS` environment
//! variable (`all`, or a comma list such as `metrics,trace`; read once
//! by [`init_from_env`]), the `lio_obs` info
//! key and `Hints::observe` in `lio-core`, or [`Layers::arm`]. The armed
//! set is one word, and each layer's `enabled` one relaxed load of it;
//! each layer's own `set_enabled` flips its bit. [`snapshot`]
//! serializes every registered metric to JSON (hand-rolled; no serde).
//!
//! Metric name convention: `layer.object.what`, e.g. `pfs.read.bytes`,
//! `mpi.p2p.msgs`, `dt.pack.blocks`, `core.coll.write.exchange_ns`.
//! Time is measured by guards, never by a hand-held clock: a latency by
//! [`LazyHistogram::span`], and the two-phase breakdown
//! (`core.coll.{write,read}.{exchange,io,pack}_ns`) by the [`trace`]
//! layer's spans, which charge the phase the one tag table names.
//! [`profile`] records nothing of its own: the access-pattern profile is
//! a view of a registry [`snapshot`].
//!
//! The [`trace`] module adds per-rank *events* on top of the aggregate
//! metrics (spans, message edges, Perfetto export, critical-path
//! analysis) and owns what the event layers share: the thread's rank
//! ([`trace::set_thread_rank`]) and the one tag table
//! ([`trace::phase_of`]). [`health`] is built from those events: a span
//! or mark opened while it is armed publishes the rank's heartbeat, which
//! its hang watchdog and live status reports read, next to its straggler
//! attribution. [`json`] is the tiny parser the tooling uses to check
//! emitted artifacts.

pub mod health;
pub mod json;
pub mod profile;
pub mod trace;

use std::collections::BTreeMap;
use std::ops::BitOr;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The arming word and the rank ceiling
// ---------------------------------------------------------------------------

/// Ranks at or above this index record nothing in the per-rank layers
/// (worlds in this repo top out at 25 ranks).
pub const MAX_RANKS: usize = 64;

/// The rank of a thread that belongs to no rank: it records nothing.
pub const NO_RANK: u32 = u32::MAX;

/// The bits of the armed [`Layers`].
static ARMED: AtomicU8 = AtomicU8::new(0);

/// The armed layers: one relaxed load.
#[inline(always)]
pub(crate) fn armed() -> Layers {
    Layers(ARMED.load(Relaxed))
}

/// Arm or disarm the layers of `set`, the others as they are.
pub(crate) fn arm_layers(set: Layers, on: bool) {
    if on {
        ARMED.fetch_or(set.0, Relaxed);
    } else {
        ARMED.fetch_and(!set.0, Relaxed);
    }
}

/// Is instrumentation currently recording? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    armed().contains(Layers::METRICS)
}

/// Turn recording on or off globally.
pub fn set_enabled(on: bool) {
    arm_layers(Layers::METRICS, on);
}

// ---------------------------------------------------------------------------
// The one switch: a set of layers
// ---------------------------------------------------------------------------

/// A set of the three recording layers: these metrics, [`trace`] and
/// [`health`]. Combine with `|`; [`Layers::arm`] turns exactly the set's
/// layers on and the others off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Layers(u8);

impl Layers {
    pub const NONE: Layers = Layers(0);
    pub const METRICS: Layers = Layers(1);
    pub const TRACE: Layers = Layers(2);
    pub const HEALTH: Layers = Layers(4);
    pub const ALL: Layers = Layers(7);

    /// The names a switch value may list, one row per layer, then
    /// `profile`: what the [`profile`] view reads, the metrics, under the
    /// name that once armed a layer of its own. `Display` never prints it.
    const NAMED: [(&'static str, Layers); 4] = [
        ("metrics", Layers::METRICS),
        ("trace", Layers::TRACE),
        ("health", Layers::HEALTH),
        ("profile", Layers::METRICS),
    ];

    /// Does this set hold every layer of `other`?
    pub fn contains(self, other: Layers) -> bool {
        self.0 & other.0 == other.0
    }

    /// Parse a switch value, case and spaces ignored: `all`; `0`, `off`,
    /// `false`, `disable` or empty for no layer; `1`, `on`, `true` or
    /// `enable` for metrics alone; else a comma list of
    /// `metrics`, `trace`, `health` and `profile` (the metrics again).
    /// An unknown name is the `Err`.
    pub fn parse(s: &str) -> Result<Layers, String> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "all" => return Ok(Layers::ALL),
            "" | "0" | "off" | "false" | "disable" => return Ok(Layers::NONE),
            "1" | "on" | "true" | "enable" => return Ok(Layers::METRICS),
            _ => {}
        }
        let mut set = Layers::NONE;
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match Layers::NAMED.iter().find(|(n, _)| *n == name) {
                Some(&(_, layer)) => set = set | layer,
                None => return Err(name.to_string()),
            }
        }
        Ok(set)
    }

    /// Turn this set's layers on and every other layer off: one store of
    /// the arming word.
    pub fn arm(self) {
        ARMED.store(self.0, Relaxed);
    }
}

impl BitOr for Layers {
    type Output = Layers;
    fn bitor(self, rhs: Layers) -> Layers {
        Layers(self.0 | rhs.0)
    }
}

/// The value [`Layers::parse`] reads back: `off`, `all`, or the comma
/// list of the set's layers.
impl std::fmt::Display for Layers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Layers::NONE => f.write_str("off"),
            Layers::ALL => f.write_str("all"),
            set => {
                let names: Vec<&str> = Layers::NAMED[..3]
                    .iter()
                    .filter(|(_, layer)| set.contains(*layer))
                    .map(|(n, _)| *n)
                    .collect();
                f.write_str(&names.join(","))
            }
        }
    }
}

/// Read the environment once per process: `LIO_OBS` arms exactly the
/// layers it names (absent or unparseable leaves every layer as it is).
/// Call sites that open files or run benchmarks invoke this; repeated
/// calls are free. The health watchdog is configured in code only
/// ([`health::set_watchdog`]).
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Some(set) = std::env::var("LIO_OBS")
            .ok()
            .and_then(|v| Layers::parse(&v).ok())
        {
            set.arm();
        }
    });
}

/// What a file open does with its telemetry hint: read the environment
/// ([`init_from_env`]), arm exactly `forced` when it is given, and start
/// the health watchdog when that layer is armed.
pub fn arm_at_open(forced: Option<Layers>) {
    init_from_env();
    if let Some(set) = forced {
        set.arm();
    }
    if health::enabled() {
        health::ensure_watchdog();
    }
}

// ---------------------------------------------------------------------------
// Counter: sharded, cache-line padded
// ---------------------------------------------------------------------------

const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Assign each thread a shard slot round-robin so ranks spawned by
/// `World::run` land on distinct cache lines.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A monotonically increasing counter, sharded across cache lines.
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| PaddedU64::default()),
        }
    }

    /// Add `n`. Not gated: callers go through [`LazyCounter::add`].
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    /// Sum over all shards. Concurrent adds may or may not be included.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A single value: last set, or running maximum.
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
    }

    /// Keep the maximum of the current value and `v`.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histogram: log2 buckets
// ---------------------------------------------------------------------------

/// Number of buckets: index 0 holds the value 0, index `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`. u64::MAX lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a value: `0 -> 0`, else `64 - leading_zeros(v)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A log2-bucketed distribution with count, sum, min, and max.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Not gated: callers go through
    /// [`LazyHistogram::record`].
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value with one set of atomic
    /// ops (e.g. "this strided pack copied 4096 runs of 64 bytes").
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Relaxed);
        self.count.fetch_add(n, Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    pub fn min(&self) -> Option<u64> {
        let m = self.min.load(Relaxed);
        (m != u64::MAX || self.count() > 0).then_some(m)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Raw bucket counts, index as per [`bucket_index`].
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Instrument {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The process-global metric registry. Instruments are registered by name
/// on first use and live for the rest of the process (leaked), so hot
/// paths hold plain `&'static` references and never lock.
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Instrument>>,
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(BTreeMap::new()),
    })
}

impl Registry {
    fn counter(&self, name: &'static str) -> &'static Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Instrument::Counter(Box::leak(Box::new(Counter::new()))))
        {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Instrument::Gauge(Box::leak(Box::new(Gauge::new()))))
        {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name)
            .or_insert_with(|| Instrument::Histogram(Box::leak(Box::new(Histogram::new()))))
        {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }
}

/// Zero every registered metric. Registered names stay registered.
pub fn reset() {
    let m = global().metrics.lock().unwrap();
    for inst in m.values() {
        match inst {
            Instrument::Counter(c) => c.reset(),
            Instrument::Gauge(g) => g.reset(),
            Instrument::Histogram(h) => h.reset(),
        }
    }
}

// ---------------------------------------------------------------------------
// Static instrumentation-site handles
// ---------------------------------------------------------------------------

/// A `static`-friendly counter handle: registers in the global registry on
/// first use, and gates every `add` on [`enabled`].
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn force(&self) -> &'static Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// Add `n` if recording is enabled; otherwise a relaxed load + branch.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.force().add(n);
        }
    }

    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (registers the metric if it never fired).
    pub fn get(&self) -> u64 {
        self.force().get()
    }
}

/// A `static`-friendly gauge handle; see [`LazyCounter`].
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn force(&self) -> &'static Gauge {
        self.cell.get_or_init(|| global().gauge(self.name))
    }

    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.force().set(v);
        }
    }

    #[inline(always)]
    pub fn record_max(&self, v: u64) {
        if enabled() {
            self.force().record_max(v);
        }
    }

    pub fn get(&self) -> u64 {
        self.force().get()
    }
}

/// A `static`-friendly histogram handle; see [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn force(&self) -> &'static Histogram {
        self.cell.get_or_init(|| global().histogram(self.name))
    }

    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.force().record(v);
        }
    }

    /// Record `n` observations of `v`; see [`Histogram::record_n`].
    #[inline(always)]
    pub fn record_n(&self, v: u64, n: u64) {
        if enabled() {
            self.force().record_n(v, n);
        }
    }

    /// Start a span whose elapsed nanoseconds are recorded into this
    /// histogram when the guard drops. Costs nothing when disabled.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            inner: enabled().then(|| (Instant::now(), self)),
        }
    }

    pub fn histogram(&self) -> &'static Histogram {
        self.force()
    }
}

/// RAII timer: records elapsed ns into its histogram on drop.
pub struct Span {
    inner: Option<(Instant, &'static LazyHistogram)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.inner.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + JSON export
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Non-empty buckets only: `(lo, hi, count)` with inclusive bounds.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the log2 bucket holding the target rank. Exact for
    /// single-value buckets; within a factor of two otherwise — the same
    /// resolution the buckets themselves offer. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for &(lo, hi, c) in &self.buckets {
            let next = cum + c;
            if (next as f64) >= target {
                let frac = (target - cum as f64) / c as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }

    /// Median estimate (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Self::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Self::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Take a snapshot of the global registry. Safe to call while other
/// threads are recording; values are relaxed reads.
pub fn snapshot() -> Snapshot {
    let m = global().metrics.lock().unwrap();
    let mut snap = Snapshot::default();
    for (name, inst) in m.iter() {
        match inst {
            Instrument::Counter(c) => snap.counters.push((name.to_string(), c.get())),
            Instrument::Gauge(g) => snap.gauges.push((name.to_string(), g.get())),
            Instrument::Histogram(h) => {
                let counts = h.bucket_counts();
                let buckets = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        let (lo, hi) = bucket_bounds(i);
                        (lo, hi, c)
                    })
                    .collect();
                snap.histograms.push((
                    name.to_string(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min().unwrap_or(0),
                        max: h.max(),
                        buckets,
                    },
                ));
            }
        }
    }
    snap
}

impl Snapshot {
    /// Look up a counter by name; 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a gauge by name; 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialize to a JSON object string (pretty, two-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        write_map(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, &self.gauges, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, &self.histograms, |out, h| {
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
        });
        out.push_str("}\n}\n");
        out
    }
}

fn write_map<T>(out: &mut String, entries: &[(String, T)], mut val: impl FnMut(&mut String, &T)) {
    for (i, (name, v)) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        json_string(out, name);
        out.push_str(": ");
        val(out, v);
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// Append `s` as a JSON string literal (quotes + escapes).
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize access to the global enabled flag + registry across tests
    /// (cargo runs tests in one process, many threads).
    pub(crate) fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi bound of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(bucket_index(hi + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_quantiles() {
        with_enabled(|| {
            static H: LazyHistogram = LazyHistogram::new("test.hist.quant");
            for _ in 0..90 {
                H.record(100);
            }
            for _ in 0..10 {
                H.record(1 << 20);
            }
            let snap = snapshot();
            let h = snap.histogram("test.hist.quant").unwrap();
            // 90% of mass at 100: the median interpolates inside the
            // 64..127 bucket and clamps up to the observed min
            assert_eq!(h.p50(), 100);
            // the tail bucket holds the top 10%: p95/p99 land there and
            // clamp down to the observed max
            assert_eq!(h.p95(), 1 << 20);
            assert_eq!(h.p99(), 1 << 20);
            let empty = HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            };
            assert_eq!(empty.quantile(0.5), 0);
            let json = snap.to_json();
            assert!(json.contains("\"p50\""), "quantiles missing from JSON");
        });
    }

    #[test]
    fn counter_disabled_is_noop() {
        with_enabled(|| {
            static C: LazyCounter = LazyCounter::new("test.noop.counter");
            set_enabled(false);
            C.add(41);
            C.incr();
            assert_eq!(C.get(), 0);
            set_enabled(true);
            C.add(41);
            C.incr();
            assert_eq!(C.get(), 42);
        });
    }

    #[test]
    fn histogram_stats() {
        with_enabled(|| {
            static H: LazyHistogram = LazyHistogram::new("test.hist.stats");
            for v in [0u64, 1, 3, 8, 1024] {
                H.record(v);
            }
            let h = H.histogram();
            assert_eq!(h.count(), 5);
            assert_eq!(h.sum(), 1036);
            assert_eq!(h.min(), Some(0));
            assert_eq!(h.max(), 1024);
            let counts = h.bucket_counts();
            assert_eq!(counts[0], 1); // 0
            assert_eq!(counts[1], 1); // 1
            assert_eq!(counts[2], 1); // 3
            assert_eq!(counts[4], 1); // 8
            assert_eq!(counts[11], 1); // 1024
        });
    }

    #[test]
    fn snapshot_and_json() {
        with_enabled(|| {
            static C: LazyCounter = LazyCounter::new("test.snap.counter");
            static G: LazyGauge = LazyGauge::new("test.snap.gauge");
            static H: LazyHistogram = LazyHistogram::new("test.snap.hist");
            C.add(7);
            G.record_max(3);
            G.record_max(2);
            H.record(100);
            let s = snapshot();
            assert_eq!(s.counter("test.snap.counter"), 7);
            assert!(s.gauges.contains(&("test.snap.gauge".into(), 3)));
            let h = s.histogram("test.snap.hist").unwrap();
            assert_eq!((h.count, h.sum, h.min, h.max), (1, 100, 100, 100));
            assert_eq!(h.buckets, vec![(64, 127, 1)]);
            let json = s.to_json();
            assert!(json.contains("\"test.snap.counter\": 7"));
            assert!(json.contains("\"buckets\": [[64, 127, 1]]"));
        });
    }

    #[test]
    fn concurrent_counter_adds() {
        with_enabled(|| {
            static C: LazyCounter = LazyCounter::new("test.concurrent.counter");
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..10_000 {
                            C.incr();
                        }
                    });
                }
            });
            assert_eq!(C.get(), 80_000);
        });
    }

    #[test]
    fn snapshot_while_writing_races() {
        with_enabled(|| {
            static C: LazyCounter = LazyCounter::new("test.race.counter");
            static H: LazyHistogram = LazyHistogram::new("test.race.hist");
            std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    for i in 0..20_000u64 {
                        C.incr();
                        H.record(i);
                    }
                });
                // Snapshots taken mid-write must be internally sane:
                // monotone counters, histogram count never exceeds what
                // the writer could have recorded so far.
                let mut last = 0;
                while !writer.is_finished() {
                    let s = snapshot();
                    let c = s.counter("test.race.counter");
                    assert!(c >= last, "counter went backwards: {last} -> {c}");
                    last = c;
                    if let Some(h) = s.histogram("test.race.hist") {
                        assert!(h.count <= 20_000);
                        let bucket_total: u64 = h.buckets.iter().map(|(_, _, c)| *c).sum();
                        assert!(bucket_total <= 20_000);
                    }
                }
                writer.join().unwrap();
            });
            assert_eq!(C.get(), 20_000);
        });
    }

    #[test]
    fn reset_zeroes_everything() {
        with_enabled(|| {
            static C: LazyCounter = LazyCounter::new("test.reset.counter");
            static H: LazyHistogram = LazyHistogram::new("test.reset.hist");
            C.add(5);
            H.record(9);
            reset();
            assert_eq!(C.get(), 0);
            assert_eq!(H.histogram().count(), 0);
            assert_eq!(H.histogram().min(), None);
        });
    }

    #[test]
    fn layers_parse() {
        let m = Layers::METRICS;
        for (v, want) in [
            ("all", Layers::ALL),
            ("ALL", Layers::ALL),
            ("1", m),
            ("on", m),
            ("enable", m),
            ("0", Layers::NONE),
            ("off", Layers::NONE),
            ("disable", Layers::NONE),
            ("", Layers::NONE),
            (" Trace , HEALTH ", Layers::TRACE | Layers::HEALTH),
            ("metrics,health,", m | Layers::HEALTH),
        ] {
            assert_eq!(Layers::parse(v), Ok(want), "{v:?}");
            assert_eq!(Layers::parse(&want.to_string()), Ok(want), "{want}");
        }
        // `profile` is the metrics, and never printed
        for v in ["profile", "metrics,profile", "Profile,metrics"] {
            assert_eq!(Layers::parse(v), Ok(m), "{v:?}");
        }
        assert_eq!(Layers::parse("trace,profile"), Ok(Layers::TRACE | m));
        assert_eq!((m | Layers::HEALTH).to_string(), "metrics,health");
        assert_eq!(Layers::parse("trace,loud"), Err("loud".to_string()));
        assert!(Layers::ALL.contains(Layers::TRACE | Layers::HEALTH));
        assert!(!Layers::TRACE.contains(Layers::METRICS));
    }

    #[test]
    fn span_records_elapsed() {
        with_enabled(|| {
            static H: LazyHistogram = LazyHistogram::new("test.span.hist");
            {
                let _s = H.span();
                std::hint::black_box(0u64);
            }
            assert_eq!(H.histogram().count(), 1);
        });
    }
}
