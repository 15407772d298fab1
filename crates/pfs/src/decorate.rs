//! Storage-file decorators: throttling, statistics, and fault injection.
//!
//! Each decorator counts, throttles, or perturbs exactly the call that
//! passes through it, attributing the effect to the calling thread. None
//! forwards [`StorageFile::with_range_mut`]/[`StorageFile::with_range`]:
//! bytes lent in place are not a request, so there would be nothing to
//! count, delay, tear or fail. A decorated file answers `false`, the
//! caller stages the range in its own buffer, and the decorator sees the
//! `read_at`/`write_at` it always saw.

use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lio_obs::{LazyCounter, LazyGauge, LazyHistogram};

use crate::file::StorageFile;

/// Storage-layer metrics, fed by [`CountingFile`] (and the other
/// decorators) into the global `lio-obs` registry. The request-size
/// histograms are what make the paper's access-granularity arguments
/// visible: data sieving should shift mass from tiny buckets to
/// buffer-sized ones.
static OBS_READ_CALLS: LazyCounter = LazyCounter::new("pfs.read.calls");
static OBS_READ_BYTES: LazyCounter = LazyCounter::new("pfs.read.bytes");
static OBS_WRITE_CALLS: LazyCounter = LazyCounter::new("pfs.write.calls");
static OBS_WRITE_BYTES: LazyCounter = LazyCounter::new("pfs.write.bytes");
static OBS_READ_SIZE: LazyHistogram = LazyHistogram::new("pfs.read.size");
static OBS_WRITE_SIZE: LazyHistogram = LazyHistogram::new("pfs.write.size");
static OBS_THROTTLE_NS: LazyCounter = LazyCounter::new("pfs.throttle.delay_ns");
/// Wall time burnt in the busy-wait tail of [`throttle_delay`]. This is
/// CPU time, not modelled device time: consumers that account "storage
/// time" from wall clocks (the write-behind lane's accounting in
/// `lio-core`) subtract it so overlap numbers aren't inflated by the spin.
static OBS_SPIN_NS: LazyCounter = LazyCounter::new("pfs.throttle.spin_ns");
static OBS_FAULTS_INJECTED: LazyCounter = LazyCounter::new("pfs.faults.injected");
/// High-water mark of concurrently in-flight throttled storage ops,
/// process-wide. > 1 proves that storage accesses genuinely overlapped
/// (an IOP's pre-read against its write-behind lane, or two ranks).
static OBS_OPS_INFLIGHT_MAX: LazyGauge = LazyGauge::new("pfs.ops.inflight_max");

/// Current in-flight throttled ops across all [`ThrottledFile`]s.
static THROTTLE_INFLIGHT: AtomicU64 = AtomicU64::new(0);

/// A bandwidth/latency model emulating a particular storage system.
///
/// The paper's SX-6 testbed sustains ~6.5 GB/s writes and ~8 GB/s reads
/// ([`Throttle::sx6_local_fs`]). Each access costs `latency` plus
/// `bytes / bandwidth`. Short delays are realized with a calibrated
/// spin-wait so that sub-microsecond costs are representable (OS sleep
/// granularity is far too coarse at these rates); long delays sleep for
/// the bulk and spin only the tail, so a modelled slow device genuinely
/// yields the CPU — required for the collective engine's write-behind
/// overlap to be real rather than an artifact of busy-waiting threads
/// contending for cores.
#[derive(Debug, Clone, Copy)]
pub struct Throttle {
    /// Sustained read bandwidth in bytes/second.
    pub read_bw: f64,
    /// Sustained write bandwidth in bytes/second.
    pub write_bw: f64,
    /// Fixed per-access latency.
    pub latency: Duration,
}

impl Throttle {
    /// The local file system of the paper's SX-6/SX-7 nodes: 6.5 GB/s
    /// write, 8 GB/s read, negligible access latency.
    pub fn sx6_local_fs() -> Throttle {
        Throttle {
            read_bw: 8.0e9,
            write_bw: 6.5e9,
            latency: Duration::from_micros(10),
        }
    }

    /// A commodity NFS-class file system: ~100 MB/s with high per-access
    /// latency — the regime where file access time hides CPU overheads
    /// (useful as the ablation contrast).
    pub fn commodity_nfs() -> Throttle {
        Throttle {
            read_bw: 1.0e8,
            write_bw: 1.0e8,
            latency: Duration::from_micros(500),
        }
    }

    fn delay_for(&self, bytes: usize, write: bool) -> Duration {
        let bw = if write { self.write_bw } else { self.read_bw };
        self.latency + Duration::from_secs_f64(bytes as f64 / bw)
    }
}

/// Wraps a [`StorageFile`] to emulate a given bandwidth/latency profile.
pub struct ThrottledFile<F> {
    inner: F,
    throttle: Throttle,
}

impl<F: StorageFile> ThrottledFile<F> {
    /// Throttle `inner` to the given profile.
    pub fn new(inner: F, throttle: Throttle) -> ThrottledFile<F> {
        ThrottledFile { inner, throttle }
    }

    /// The wrapped file.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

/// Spin-only tail of a hybrid delay: delays at most this long (and the
/// final stretch of longer ones) busy-wait for precision; everything
/// above sleeps first so the waiting thread yields its core.
const SPIN_TAIL: Duration = Duration::from_micros(100);

// Per-thread accumulator of spin-tail nanoseconds, so a caller timing a
// storage op with a wall clock can subtract the CPU busy-wait share of
// the throttle from "device time" (see `take_spin_ns`).
thread_local! {
    static SPIN_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Drain the calling thread's accumulated throttle spin-tail time (ns).
/// The collective engine's write-behind lane calls this after each
/// write: the spin is CPU burn, not modelled device time, and must not be
/// credited to `core.coll.*.io_ns`.
pub fn take_spin_ns() -> u64 {
    SPIN_NS.with(|c| c.replace(0))
}

fn throttle_delay(d: Duration) -> Duration {
    let start = Instant::now();
    if d > SPIN_TAIL {
        std::thread::sleep(d - SPIN_TAIL);
    }
    // Clamp the busy-wait to SPIN_TAIL past the sleep: under heavy
    // oversubscription the sleep overshoots, and an unbounded spin on
    // `start.elapsed()` would then burn a core well past the deadline.
    let spin_start = Instant::now();
    let spin_deadline = spin_start + SPIN_TAIL;
    while start.elapsed() < d && Instant::now() < spin_deadline {
        std::hint::spin_loop();
    }
    let spun = spin_start.elapsed();
    let ns = spun.as_nanos() as u64;
    SPIN_NS.with(|c| c.set(c.get().saturating_add(ns)));
    OBS_SPIN_NS.add(ns);
    spun
}

/// RAII guard maintaining the in-flight-ops high-water mark.
struct InflightOp;

impl InflightOp {
    fn enter() -> InflightOp {
        let cur = THROTTLE_INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
        OBS_OPS_INFLIGHT_MAX.record_max(cur);
        InflightOp
    }
}

impl Drop for InflightOp {
    fn drop(&mut self) {
        THROTTLE_INFLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<F: StorageFile> StorageFile for ThrottledFile<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let _op = InflightOp::enter();
        let mut sp = lio_obs::trace::span("pfs.read");
        let n = self.inner.read_at(offset, buf)?;
        let d = self.throttle.delay_for(n, false);
        OBS_THROTTLE_NS.add(d.as_nanos() as u64);
        let spun = throttle_delay(d);
        // the span's wall time includes the spin tail; the payload keeps
        // modelled device time and CPU spin separable downstream
        sp.set_payload(n as u64, d.as_nanos() as u64, spun.as_nanos() as u64);
        Ok(n)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        let _op = InflightOp::enter();
        let mut sp = lio_obs::trace::span("pfs.write");
        let n = self.inner.write_at(offset, buf)?;
        let d = self.throttle.delay_for(n, true);
        OBS_THROTTLE_NS.add(d.as_nanos() as u64);
        let spun = throttle_delay(d);
        sp.set_payload(n as u64, d.as_nanos() as u64, spun.as_nanos() as u64);
        Ok(n)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// Access statistics collected by [`CountingFile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of read calls.
    pub reads: u64,
    /// Number of write calls.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Largest single read request, in bytes.
    pub max_read: u64,
    /// Largest single write request, in bytes.
    pub max_write: u64,
}

impl IoStats {
    /// Fold `other` into `self`: totals add, maxima take the larger value.
    /// Useful for aggregating per-rank or per-file stats.
    pub fn merge(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.max_read = self.max_read.max(other.max_read);
        self.max_write = self.max_write.max(other.max_write);
    }
}

/// Wraps a [`StorageFile`] and counts accesses and bytes — used by the
/// overhead ablation benches to show, e.g., how data sieving trades access
/// count against transferred volume.
pub struct CountingFile<F> {
    inner: F,
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    max_read: AtomicU64,
    max_write: AtomicU64,
}

impl<F: StorageFile> CountingFile<F> {
    /// Wrap `inner` with fresh counters.
    pub fn new(inner: F) -> CountingFile<F> {
        CountingFile {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            max_read: AtomicU64::new(0),
            max_write: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            max_read: self.max_read.load(Ordering::Relaxed),
            max_write: self.max_write.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.max_read.store(0, Ordering::Relaxed);
        self.max_write.store(0, Ordering::Relaxed);
    }

    /// The wrapped file.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: StorageFile> StorageFile for CountingFile<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read_at(offset, buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        self.max_read.fetch_max(buf.len() as u64, Ordering::Relaxed);
        OBS_READ_CALLS.incr();
        OBS_READ_BYTES.add(n as u64);
        OBS_READ_SIZE.record(buf.len() as u64);
        Ok(n)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write_at(offset, buf)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
        self.max_write
            .fetch_max(buf.len() as u64, Ordering::Relaxed);
        OBS_WRITE_CALLS.incr();
        OBS_WRITE_BYTES.add(n as u64);
        OBS_WRITE_SIZE.record(buf.len() as u64);
        Ok(n)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// Deterministic fault-injection plan for [`FaultyFile`], driven by a
/// seeded xorshift64* stream — the same generator family as the
/// differential test corpora, so any failing schedule is replayed by its
/// seed alone.
///
/// Plans without `torn_after` are *survivable by construction*: short
/// transfers always move at least one byte, transient errors stop after
/// `max_consecutive_transient` in a row, and flush failures stop after
/// `flush_fail_first` calls — so a bounded retry/resume loop (see
/// [`crate::retry`]) always completes. `torn_after` is the deliberate
/// exception: it models a crash mid-write and is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the injection decision stream.
    pub seed: u64,
    /// Probability (out of 256) that a read or write is truncated to a
    /// random non-empty prefix.
    pub short_per_256: u8,
    /// Probability (out of 256) that a read or write fails with a
    /// transient error (`WouldBlock`/`Interrupted`/`TimedOut` class).
    pub transient_per_256: u8,
    /// Hard cap on consecutively injected transient errors across the
    /// whole file. Must stay below the retry budget of
    /// [`crate::retry::RetryPolicy`] for faults to be survivable.
    pub max_consecutive_transient: u32,
    /// Fail-stop after this many payload bytes have been submitted for
    /// writing: the crossing write persists only the prefix up to the
    /// limit, then it and every later write fail permanently (a torn
    /// write followed by device loss).
    pub torn_after: Option<u64>,
    /// The first k `sync()` calls fail with a transient error.
    pub flush_fail_first: u32,
}

impl FaultPlan {
    /// No faults at all; [`FaultyFile`] degenerates to a passthrough.
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            short_per_256: 0,
            transient_per_256: 0,
            max_consecutive_transient: 0,
            torn_after: None,
            flush_fail_first: 0,
        }
    }

    /// Moderate survivable defaults: roughly one access in five is
    /// shortened, one in eight fails transiently (at most three in a
    /// row), and the first two flushes fail.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            short_per_256: 48,
            transient_per_256: 32,
            max_consecutive_transient: 3,
            torn_after: None,
            flush_fail_first: 2,
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.short_per_256 > 0
            || self.transient_per_256 > 0
            || self.torn_after.is_some()
            || self.flush_fail_first > 0
    }
}

/// Wraps a [`StorageFile`] and injects faults per a seeded [`FaultPlan`],
/// for exercising the I/O layers' retry/backoff and short-I/O resumption.
/// Composes with [`ThrottledFile`]/[`CountingFile`] like any decorator;
/// wrap an `Arc<MemFile>` to keep an injection-free handle for snapshots.
///
/// An inactive plan takes a single-branch fast path, so a `FaultyFile`
/// left in place costs one predictable branch per request.
pub struct FaultyFile<F> {
    inner: F,
    plan: FaultPlan,
    active: bool,
    rng: Mutex<u64>,
    consec_transient: AtomicU32,
    bytes_written: AtomicU64,
    syncs: AtomicU32,
    injected: AtomicU64,
}

impl<F: StorageFile> FaultyFile<F> {
    /// Wrap `inner` under the given fault plan.
    pub fn new(inner: F, plan: FaultPlan) -> FaultyFile<F> {
        FaultyFile {
            inner,
            active: plan.is_active(),
            rng: Mutex::new(plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            plan,
            consec_transient: AtomicU32::new(0),
            bytes_written: AtomicU64::new(0),
            syncs: AtomicU32::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The wrapped file (bypasses injection — tests snapshot through it).
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The plan this file injects under.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One xorshift64* step of the shared decision stream.
    fn roll(&self) -> u64 {
        let mut g = self.rng.lock().expect("fault rng poisoned");
        let mut x = *g;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *g = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn record_injection(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        OBS_FAULTS_INJECTED.incr();
    }

    /// Claim a transient-error slot unless the consecutive cap is hit.
    fn claim_transient(&self) -> bool {
        let max = self.plan.max_consecutive_transient;
        self.consec_transient
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < max).then_some(c + 1)
            })
            .is_ok()
    }

    fn transient_error(&self, r: u64, op: &str) -> io::Error {
        let kind = match (r >> 8) % 3 {
            0 => io::ErrorKind::WouldBlock,
            1 => io::ErrorKind::Interrupted,
            _ => io::ErrorKind::TimedOut,
        };
        io::Error::new(kind, format!("injected transient {op} fault"))
    }

    /// Decide the fate of one access of `len` bytes: `Err` injects a
    /// transient failure, `Ok(Some(keep))` truncates to a non-empty
    /// prefix, `Ok(None)` passes through untouched.
    fn fate(&self, len: usize, op: &str) -> io::Result<Option<usize>> {
        let r = self.roll();
        if (r & 0xFF) < self.plan.transient_per_256 as u64 && self.claim_transient() {
            self.record_injection();
            return Err(self.transient_error(r, op));
        }
        self.consec_transient.store(0, Ordering::Relaxed);
        if ((r >> 16) & 0xFF) < self.plan.short_per_256 as u64 && len > 1 {
            self.record_injection();
            return Ok(Some(1 + ((r >> 24) as usize) % (len - 1)));
        }
        Ok(None)
    }
}

impl<F: StorageFile> StorageFile for FaultyFile<F> {
    // The inactive paths must cost a single predictable branch, so keep
    // them inlinable.
    #[inline]
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if !self.active {
            return self.inner.read_at(offset, buf);
        }
        match self.fate(buf.len(), "read")? {
            Some(keep) => self.inner.read_at(offset, &mut buf[..keep]),
            None => self.inner.read_at(offset, buf),
        }
    }

    #[inline]
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        if !self.active {
            return self.inner.write_at(offset, buf);
        }
        if let Some(limit) = self.plan.torn_after {
            // `bytes_written` counts *attempted* payload bytes, so the
            // fail-stop point is deterministic even under concurrency.
            let start = self
                .bytes_written
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            if start >= limit {
                self.record_injection();
                return Err(io::Error::other("injected fail-stop: device lost"));
            }
            if start + buf.len() as u64 > limit {
                let keep = (limit - start) as usize;
                self.inner.write_at(offset, &buf[..keep])?;
                self.record_injection();
                return Err(io::Error::other(
                    "injected torn write: only a prefix was persisted",
                ));
            }
        }
        match self.fate(buf.len(), "write")? {
            Some(keep) => self.inner.write_at(offset, &buf[..keep]),
            None => self.inner.write_at(offset, buf),
        }
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        if self.active && self.plan.flush_fail_first > 0 {
            let k = self.syncs.fetch_add(1, Ordering::Relaxed);
            if k < self.plan.flush_fail_first {
                self.record_injection();
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected flush fault",
                ));
            }
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemFile;

    #[test]
    fn counting_tracks_ops() {
        let f = CountingFile::new(MemFile::new());
        f.write_at(0, &[1; 100]).unwrap();
        let mut buf = [0u8; 40];
        f.read_at(0, &mut buf).unwrap();
        f.read_at(60, &mut buf).unwrap();
        let s = f.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_read, 80);
        f.reset();
        assert_eq!(f.stats(), IoStats::default());
    }

    #[test]
    fn counting_tracks_max_request_and_merge() {
        let f = CountingFile::new(MemFile::new());
        f.write_at(0, &[1; 100]).unwrap();
        f.write_at(0, &[1; 10]).unwrap();
        let mut buf = [0u8; 40];
        f.read_at(0, &mut buf).unwrap();
        let s = f.stats();
        assert_eq!(s.max_write, 100);
        assert_eq!(s.max_read, 40);

        let mut total = IoStats::default();
        total.merge(&s);
        let other = IoStats {
            reads: 1,
            bytes_read: 5,
            max_read: 512,
            ..IoStats::default()
        };
        total.merge(&other);
        assert_eq!(total.reads, s.reads + 1);
        assert_eq!(total.writes, 2);
        assert_eq!(total.bytes_read, s.bytes_read + 5);
        assert_eq!(total.max_read, 512);
        assert_eq!(total.max_write, 100);
    }

    #[test]
    fn counting_is_concurrency_safe() {
        let f = CountingFile::new(MemFile::new());
        let (threads, ops) = (8usize, 16usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move || {
                    for i in 0..ops {
                        f.write_at((t * ops + i) as u64 * 777, &[t as u8 + 1; 777])
                            .unwrap();
                    }
                });
            }
        });
        let s = f.stats();
        assert_eq!(s.writes, (threads * ops) as u64);
        assert_eq!(s.bytes_written, (threads * ops * 777) as u64);
        assert_eq!(s.max_write, 777);
    }

    #[test]
    fn throttled_delays_scale_with_bytes() {
        let slow = Throttle {
            read_bw: 1.0e6, // 1 MB/s
            write_bw: 1.0e6,
            latency: Duration::ZERO,
        };
        let f = ThrottledFile::new(MemFile::new(), slow);
        let t0 = Instant::now();
        f.write_at(0, &[0u8; 10_000]).unwrap(); // should cost ~10ms
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(9), "{elapsed:?}");
    }

    #[test]
    fn throttled_preserves_data() {
        let f = ThrottledFile::new(MemFile::new(), Throttle::sx6_local_fs());
        f.write_at(5, b"data").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(5, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"data");
    }

    #[test]
    fn throttle_delay_reaches_deadline_in_tail_regime() {
        // Regression: delays in (SPIN_TAIL, 2·SPIN_TAIL] used to skip the
        // sleep and busy-spin the whole duration; and the post-sleep spin
        // was unbounded. The clamped version must still not return early,
        // in both the tail-only and sleep+tail regimes.
        for d in [Duration::from_micros(150), Duration::from_millis(5)] {
            let t0 = Instant::now();
            throttle_delay(d);
            let elapsed = t0.elapsed();
            assert!(elapsed >= d, "delay {d:?} returned after only {elapsed:?}");
        }
    }

    /// Outcome signature of an access, for determinism comparisons.
    fn sig(r: io::Result<usize>) -> String {
        match r {
            Ok(n) => format!("ok{n}"),
            Err(e) => format!("err{:?}", e.kind()),
        }
    }

    #[test]
    fn faulty_same_seed_same_schedule() {
        let run = || {
            let f = FaultyFile::new(MemFile::with_data(vec![7; 256]), FaultPlan::seeded(0xFA11));
            let mut out = Vec::new();
            let mut buf = [0u8; 32];
            for i in 0..64u64 {
                out.push(sig(f.read_at(i % 200, &mut buf)));
                out.push(sig(f.write_at(i % 200, &buf)));
            }
            out.push(sig(f.sync().map(|()| 0)));
            out
        };
        assert_eq!(run(), run(), "same seed must replay the same schedule");
    }

    #[test]
    fn faulty_short_transfers_move_at_least_one_byte() {
        let plan = FaultPlan {
            short_per_256: 255,
            transient_per_256: 0,
            ..FaultPlan::seeded(7)
        };
        let f = FaultyFile::new(MemFile::with_data(vec![7; 256]), plan);
        let mut buf = [0u8; 64];
        let mut shortened = 0;
        for _ in 0..50 {
            let n = f.read_at(0, &mut buf).unwrap();
            assert!((1..=64).contains(&n), "short read moved {n} bytes");
            if n < 64 {
                shortened += 1;
            }
            let n = f.write_at(0, &buf).unwrap();
            assert!((1..=64).contains(&n), "short write moved {n} bytes");
        }
        assert!(shortened > 0, "a 255/256 plan never shortened anything");
    }

    #[test]
    fn faulty_transient_runs_bounded_by_cap() {
        let plan = FaultPlan {
            short_per_256: 0,
            transient_per_256: 255,
            max_consecutive_transient: 3,
            ..FaultPlan::seeded(11)
        };
        let f = FaultyFile::new(MemFile::with_data(vec![7; 64]), plan);
        let mut buf = [0u8; 8];
        let (mut run, mut max_run, mut errs) = (0u32, 0u32, 0u32);
        for _ in 0..200 {
            match f.read_at(0, &mut buf) {
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock
                                | io::ErrorKind::Interrupted
                                | io::ErrorKind::TimedOut
                        ),
                        "unexpected kind {:?}",
                        e.kind()
                    );
                    run += 1;
                    errs += 1;
                }
                Ok(_) => run = 0,
            }
            max_run = max_run.max(run);
        }
        assert!(errs > 0);
        assert!(
            max_run <= 3,
            "cap violated: {max_run} consecutive transients"
        );
    }

    #[test]
    fn faulty_torn_write_persists_prefix_then_fails_permanently() {
        let plan = FaultPlan {
            seed: 1,
            short_per_256: 0,
            transient_per_256: 0,
            max_consecutive_transient: 0,
            torn_after: Some(10),
            flush_fail_first: 0,
        };
        let f = FaultyFile::new(MemFile::new(), plan);
        assert_eq!(f.write_at(0, &[1u8; 8]).unwrap(), 8);
        let e = f.write_at(8, &[2u8; 8]).unwrap_err();
        assert_eq!(
            e.kind(),
            io::ErrorKind::Other,
            "torn write must be permanent"
        );
        let snap = f.inner().snapshot();
        assert_eq!(
            snap,
            [1, 1, 1, 1, 1, 1, 1, 1, 2, 2],
            "prefix up to the limit persists"
        );
        assert!(
            f.write_at(20, &[3u8; 4]).is_err(),
            "writes after fail-stop all fail"
        );
        assert_eq!(
            f.inner().snapshot().len(),
            10,
            "no bytes persisted after fail-stop"
        );
    }

    #[test]
    fn faulty_flush_fails_first_k_then_recovers() {
        let plan = FaultPlan {
            flush_fail_first: 2,
            ..FaultPlan::disabled()
        };
        let f = FaultyFile::new(MemFile::new(), FaultPlan { seed: 3, ..plan });
        assert!(f.sync().is_err());
        assert!(f.sync().is_err());
        assert!(f.sync().is_ok());
        assert_eq!(f.injected(), 2);
    }

    #[test]
    fn faulty_disabled_plan_is_passthrough() {
        let f = FaultyFile::new(MemFile::with_data(vec![9; 128]), FaultPlan::disabled());
        let mut buf = [0u8; 64];
        for _ in 0..50 {
            assert_eq!(f.read_at(0, &mut buf).unwrap(), 64);
            assert_eq!(f.write_at(0, &buf).unwrap(), 64);
        }
        f.sync().unwrap();
        assert_eq!(f.injected(), 0);
    }
}
