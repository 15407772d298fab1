//! Storage-file decorators: one [`Decorated`] file, and the policies that
//! make it throttle, count or inject faults.
//!
//! [`Decorated`] implements [`StorageFile`] once, over whatever file lies
//! beneath it, and asks its [`Policy`] what to do with each call:
//! - a `read_at`/`write_at` may pass, be delayed, shortened (a prefix is
//!   passed on), torn (a prefix is passed on, then the call fails) or
//!   failed;
//! - a `sync` may fail;
//! - a lend ([`StorageFile::with_range_mut`], [`StorageFile::with_range`])
//!   may be passed to the file beneath, declined — the caller then stages
//!   that range through requests, as on storage with no bytes to lend — or
//!   failed with a typed error before any byte is lent.
//!
//! Declining is the default. [`Throttle`] and [`Counter`] keep it on
//! purpose: what they charge or count is the request, and a lent window
//! would be none, so on them every window is staged. [`Faults`] lends: a
//! lend is whole or nothing, so a range its plan would have shortened or
//! failed as a request is declined, and its staged requests draw faults of
//! their own; under a fail-stop point every range for updating is
//! declined. One operation thus moves bytes both ways. Each policy
//! attributes its effect to the calling thread.

use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lio_obs::{LazyCounter, LazyGauge, LazyHistogram};

use crate::file::StorageFile;

/// Storage-layer metrics, fed by [`Counter`] (and the other policies) into
/// the global `lio-obs` registry, reads first and writes second. The
/// request-size histograms are what make the paper's access-granularity
/// arguments visible: data sieving should shift mass from tiny buckets to
/// buffer-sized ones.
static OBS_CALLS: [LazyCounter; 2] = [
    LazyCounter::new("pfs.read.calls"),
    LazyCounter::new("pfs.write.calls"),
];
static OBS_BYTES: [LazyCounter; 2] = [
    LazyCounter::new("pfs.read.bytes"),
    LazyCounter::new("pfs.write.bytes"),
];
static OBS_SIZE: [LazyHistogram; 2] = [
    LazyHistogram::new("pfs.read.size"),
    LazyHistogram::new("pfs.write.size"),
];
static OBS_THROTTLE_NS: LazyCounter = LazyCounter::new("pfs.throttle.delay_ns");
/// Wall time burnt in the busy-wait tail of [`throttle_delay`]. This is
/// CPU time, not modelled device time; the `pfs.*` spans' wall time, and
/// so `core.coll.*.io_ns`, includes it.
static OBS_SPIN_NS: LazyCounter = LazyCounter::new("pfs.throttle.spin_ns");
static OBS_FAULTS_INJECTED: LazyCounter = LazyCounter::new("pfs.faults.injected");
/// High-water mark of concurrently in-flight throttled storage ops,
/// process-wide. > 1 proves that storage accesses genuinely overlapped
/// (an IOP's pre-read against its write-behind lane, or two ranks).
static OBS_OPS_INFLIGHT_MAX: LazyGauge = LazyGauge::new("pfs.ops.inflight_max");

/// Current in-flight throttled ops across all throttled files.
static THROTTLE_INFLIGHT: AtomicU64 = AtomicU64::new(0);

/// Which way a request or a lend moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
}

/// The call on the file beneath that a policy is handed with a request:
/// `go(keep)` passes on the first `keep` bytes and returns how many the
/// file moved.
pub trait Go: FnOnce(usize) -> io::Result<usize> {}

impl<G: FnOnce(usize) -> io::Result<usize>> Go for G {}

/// What a [`Decorated`] file does with the calls it gets; the defaults
/// pass every request and `sync` and decline every lend.
pub trait Policy: Send + Sync {
    /// A `read_at`/`write_at` of `len` bytes at `offset`.
    fn request(&self, _op: Op, _offset: u64, len: usize, go: impl Go) -> io::Result<usize> {
        go(len)
    }

    /// A lend of `[lo, hi)` for updating (`Write`) or reading, before any
    /// byte is lent: `true` passes it to the file beneath (which may
    /// decline in turn), `false` declines it, and the caller stages it.
    fn lend(&self, _op: Op, _lo: u64, _hi: u64) -> io::Result<bool> {
        Ok(false)
    }

    /// A `sync`, before the file beneath is synced.
    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`StorageFile`] over `inner` that makes each call as its policy `P`
/// says; see the module docs.
pub struct Decorated<F, P> {
    inner: F,
    policy: P,
}

impl<F, P> Decorated<F, P> {
    /// Decorate `inner` with `policy`.
    pub fn new(inner: F, policy: P) -> Decorated<F, P> {
        Decorated { inner, policy }
    }

    /// The file beneath (bypasses the policy: tests snapshot through it).
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The policy, and what it counted.
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

impl<F: StorageFile, P: Policy> StorageFile for Decorated<F, P> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let len = buf.len();
        (self.policy).request(Op::Read, offset, len, |keep| {
            self.inner.read_at(offset, &mut buf[..keep])
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        (self.policy).request(Op::Write, offset, buf.len(), |keep| {
            self.inner.write_at(offset, &buf[..keep])
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.policy.sync()?;
        self.inner.sync()
    }

    fn with_range_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        Ok(self.policy.lend(Op::Write, lo, hi)? && self.inner.with_range_mut(lo, hi, f)?)
    }

    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        Ok(self.policy.lend(Op::Read, lo, hi)? && self.inner.with_range(lo, hi, f)?)
    }
}

/// A bandwidth/latency model emulating a particular storage system, and
/// the policy that charges it per request.
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

    fn delay_for(&self, bytes: usize, op: Op) -> Duration {
        let bw = match op {
            Op::Read => self.read_bw,
            Op::Write => self.write_bw,
        };
        self.latency + Duration::from_secs_f64(bytes as f64 / bw)
    }
}

/// Spin-only tail of a hybrid delay: delays at most this long (and the
/// final stretch of longer ones) busy-wait for precision; everything
/// above sleeps first so the waiting thread yields its core.
const SPIN_TAIL: Duration = Duration::from_micros(100);

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
    OBS_SPIN_NS.add(spun.as_nanos() as u64);
    spun
}

impl Policy for Throttle {
    fn request(&self, op: Op, _offset: u64, len: usize, go: impl Go) -> io::Result<usize> {
        let inflight = THROTTLE_INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
        OBS_OPS_INFLIGHT_MAX.record_max(inflight);
        let mut sp = lio_obs::trace::span(match op {
            Op::Read => "pfs.read",
            Op::Write => "pfs.write",
        });
        let moved = go(len).inspect(|&n| {
            let d = self.delay_for(n, op);
            OBS_THROTTLE_NS.add(d.as_nanos() as u64);
            let spun = throttle_delay(d);
            // the span's wall time includes the spin tail; the payload
            // keeps modelled device time and CPU spin separable downstream
            sp.set_payload(n as u64, d.as_nanos() as u64, spun.as_nanos() as u64);
        });
        THROTTLE_INFLIGHT.fetch_sub(1, Ordering::Relaxed);
        moved
    }
}

/// Access statistics collected by [`Counter`].
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

/// The policy that counts requests and bytes — used by the overhead
/// ablations to show, e.g., how data sieving trades access count against
/// transferred volume. Each counter is a pair, reads first.
#[derive(Default)]
pub struct Counter {
    calls: [AtomicU64; 2],
    bytes: [AtomicU64; 2],
    max: [AtomicU64; 2],
}

impl Counter {
    /// Snapshot the counters.
    pub fn stats(&self) -> IoStats {
        let get = |pair: &[AtomicU64; 2], op: Op| pair[op as usize].load(Ordering::Relaxed);
        IoStats {
            reads: get(&self.calls, Op::Read),
            writes: get(&self.calls, Op::Write),
            bytes_read: get(&self.bytes, Op::Read),
            bytes_written: get(&self.bytes, Op::Write),
            max_read: get(&self.max, Op::Read),
            max_write: get(&self.max, Op::Write),
        }
    }
}

impl Policy for Counter {
    fn request(&self, op: Op, _offset: u64, len: usize, go: impl Go) -> io::Result<usize> {
        let n = go(len)?;
        let i = op as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(n as u64, Ordering::Relaxed);
        self.max[i].fetch_max(len as u64, Ordering::Relaxed);
        OBS_CALLS[i].incr();
        OBS_BYTES[i].add(n as u64);
        OBS_SIZE[i].record(len as u64);
        Ok(n)
    }
}

/// Deterministic fault-injection plan for [`Faults`], driven by a seeded
/// xorshift64* stream — the same generator family as the differential
/// test corpora, so any failing schedule is replayed by its seed alone.
///
/// Plans without `torn_after` are *survivable by construction*: short
/// transfers always move at least one byte, transient errors stop after
/// `max_consecutive_transient` in a row, and flush failures stop after
/// `flush_fail_first` calls — so a bounded retry/resume loop (see
/// [`crate::retry`]) always completes. `torn_after` is the deliberate
/// exception: it models a crash mid-write and is permanent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// writing: the crossing write
    /// persists only the prefix up to the limit, then it and every later
    /// write fail permanently (a torn write followed by device loss).
    pub torn_after: Option<u64>,
    /// The first k `sync()` calls fail with a transient error.
    pub flush_fail_first: u32,
}

impl FaultPlan {
    /// No faults at all; [`Faults`] degenerates to a passthrough.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
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

/// The policy that injects faults per a seeded [`FaultPlan`], for
/// exercising the I/O layers' retry/backoff and short-I/O resumption.
/// Decorate an `Arc<MemFile>` to keep an injection-free handle for
/// snapshots.
///
/// It lends, except for the ranges its decision stream would have
/// shortened or failed as requests, and, under `torn_after`, the ranges
/// for updating: those are declined, so their staged requests meet the
/// fault, and the fail-stop point falls on a request, where it falls on
/// storage that stages everything. An inactive plan takes a single-branch
/// fast path, so it costs one predictable branch per call.
pub struct Faults {
    plan: FaultPlan,
    active: bool,
    rng: Mutex<u64>,
    consec_transient: AtomicU32,
    bytes_written: AtomicU64,
    syncs: AtomicU32,
    injected: AtomicU64,
}

impl Faults {
    /// Inject under the given plan.
    pub fn new(plan: FaultPlan) -> Faults {
        Faults {
            active: plan.is_active(),
            rng: Mutex::new(plan.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            plan,
            consec_transient: AtomicU32::new(0),
            bytes_written: AtomicU64::new(0),
            syncs: AtomicU32::new(0),
            injected: AtomicU64::new(0),
        }
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

    /// Whether roll `r` draws a transient failure, and whether it draws a
    /// short transfer.
    fn draws(&self, r: u64) -> (bool, bool) {
        (
            (r & 0xFF) < self.plan.transient_per_256 as u64,
            ((r >> 16) & 0xFF) < self.plan.short_per_256 as u64,
        )
    }

    /// Decide the fate of one access of `len` bytes: `Err` injects a
    /// transient failure, `Ok(keep)` passes on a prefix — all of it, or a
    /// non-empty part.
    fn fate(&self, len: usize, op: Op) -> io::Result<usize> {
        let r = self.roll();
        let (transient, short) = self.draws(r);
        if transient && self.claim_transient() {
            self.record_injection();
            let kind = match (r >> 8) % 3 {
                0 => io::ErrorKind::WouldBlock,
                1 => io::ErrorKind::Interrupted,
                _ => io::ErrorKind::TimedOut,
            };
            return Err(io::Error::new(
                kind,
                format!("injected transient {op:?} fault"),
            ));
        }
        self.consec_transient.store(0, Ordering::Relaxed);
        if short && len > 1 {
            self.record_injection();
            return Ok(1 + ((r >> 24) as usize) % (len - 1));
        }
        Ok(len)
    }
}

impl Policy for Faults {
    // The inactive path must cost a single predictable branch, so keep it
    // inlinable.
    #[inline]
    fn request(&self, op: Op, _offset: u64, len: usize, go: impl Go) -> io::Result<usize> {
        if !self.active {
            return go(len);
        }
        if let Some(limit) = self.plan.torn_after.filter(|_| op == Op::Write) {
            // `bytes_written` counts *attempted* payload bytes, so the
            // fail-stop point is deterministic even under concurrency.
            let start = self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
            if start >= limit {
                self.record_injection();
                return Err(io::Error::other("injected fail-stop: device lost"));
            }
            if start + len as u64 > limit {
                go((limit - start) as usize)?;
                self.record_injection();
                return Err(io::Error::other(
                    "injected torn write: only a prefix was persisted",
                ));
            }
        }
        go(self.fate(len, op)?)
    }

    /// A lend is whole or nothing: a range the plan would have shortened
    /// or failed as a request is declined, and so is every range for
    /// updating under a fail-stop point, which counts requested bytes.
    fn lend(&self, op: Op, _lo: u64, _hi: u64) -> io::Result<bool> {
        let lendable = op == Op::Read || self.plan.torn_after.is_none();
        Ok(!self.active || (lendable && self.draws(self.roll()) == (false, false)))
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemFile;

    #[test]
    fn counting_tracks_ops() {
        let f = Decorated::new(MemFile::new(), Counter::default());
        f.write_at(0, &[1; 100]).unwrap();
        let mut buf = [0u8; 40];
        f.read_at(0, &mut buf).unwrap();
        f.read_at(60, &mut buf).unwrap();
        let s = f.policy().stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes_read, 80);
    }

    #[test]
    fn counting_tracks_max_request() {
        let f = Decorated::new(MemFile::new(), Counter::default());
        f.write_at(0, &[1; 100]).unwrap();
        f.write_at(0, &[1; 10]).unwrap();
        let mut buf = [0u8; 40];
        f.read_at(0, &mut buf).unwrap();
        let s = f.policy().stats();
        assert_eq!(s.max_write, 100);
        assert_eq!(s.max_read, 40);
        assert_eq!((s.reads, s.writes), (1, 2));
    }

    #[test]
    fn counting_is_concurrency_safe() {
        let f = Decorated::new(MemFile::new(), Counter::default());
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
        let s = f.policy().stats();
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
        let f = Decorated::new(MemFile::new(), slow);
        let t0 = Instant::now();
        f.write_at(0, &[0u8; 10_000]).unwrap(); // should cost ~10ms
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(9), "{elapsed:?}");
    }

    #[test]
    fn throttled_preserves_data() {
        let f = Decorated::new(MemFile::new(), Throttle::sx6_local_fs());
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
            let f = Decorated::new(
                MemFile::with_data(vec![7; 256]),
                Faults::new(FaultPlan::seeded(0xFA11)),
            );
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
        let f = Decorated::new(MemFile::with_data(vec![7; 256]), Faults::new(plan));
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
        let f = Decorated::new(MemFile::with_data(vec![7; 64]), Faults::new(plan));
        let mut buf = [0u8; 8];
        let (mut run, mut max_run, mut errs) = (0u32, 0u32, 0u32);
        for _ in 0..200 {
            match f.read_at(0, &mut buf) {
                Err(e) => {
                    let kind = e.kind();
                    assert!(crate::retry::is_transient(&e), "unexpected kind {kind:?}");
                    run += 1;
                    errs += 1;
                }
                Ok(_) => run = 0,
            }
            max_run = max_run.max(run);
        }
        assert!(errs > 0);
        assert!(max_run <= 3, "{max_run} consecutive transients");
    }

    #[test]
    fn faulty_torn_write_persists_prefix_then_fails_permanently() {
        let plan = FaultPlan {
            seed: 1,
            torn_after: Some(10),
            ..FaultPlan::disabled()
        };
        let f = Decorated::new(MemFile::new(), Faults::new(plan));
        assert_eq!(f.write_at(0, &[1u8; 8]).unwrap(), 8);
        let e = f.write_at(8, &[2u8; 8]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Other, "a torn write is permanent");
        let snap = f.inner().snapshot();
        assert_eq!(snap, [1, 1, 1, 1, 1, 1, 1, 1, 2, 2], "the prefix persists");
        let after = f.write_at(20, &[3u8; 4]);
        assert!(after.is_err(), "writes after fail-stop all fail");
        let len = f.inner().snapshot().len();
        assert_eq!(len, 10, "no bytes persisted after fail-stop");
    }

    #[test]
    fn faulty_flush_fails_first_k_then_recovers() {
        let plan = FaultPlan {
            flush_fail_first: 2,
            ..FaultPlan::disabled()
        };
        let f = Decorated::new(MemFile::new(), Faults::new(FaultPlan { seed: 3, ..plan }));
        assert!(f.sync().is_err());
        assert!(f.sync().is_err());
        assert!(f.sync().is_ok());
        assert_eq!(f.policy().injected(), 2);
    }

    #[test]
    fn faulty_disabled_plan_is_passthrough() {
        let f = Decorated::new(
            MemFile::with_data(vec![9; 128]),
            Faults::new(FaultPlan::disabled()),
        );
        let mut buf = [0u8; 64];
        for _ in 0..50 {
            assert_eq!(f.read_at(0, &mut buf).unwrap(), 64);
            assert_eq!(f.write_at(0, &buf).unwrap(), 64);
        }
        f.sync().unwrap();
        assert_eq!(f.policy().injected(), 0);
    }

    #[test]
    fn faulty_lends_all_but_a_seeded_share() {
        let f = Decorated::new(MemFile::new(), Faults::new(FaultPlan::seeded(5)));
        let place = |f: &dyn StorageFile| f.with_range_mut(0, 8, &mut |_, p| p.fill(1));
        let lent = (0..200).filter(|_| place(&f).unwrap()).count();
        // the seeded plan draws a fault for about 80 of 256 requests
        assert!((100..190).contains(&lent), "{lent} of 200 ranges lent");
        assert_eq!(f.policy().injected(), 0, "a declined range is no fault");
        assert_eq!(f.inner().snapshot(), [1; 8]);
        // a fail-stop point counts requested bytes: no write is lent
        let plan = FaultPlan {
            torn_after: Some(10),
            ..FaultPlan::disabled()
        };
        let f = Decorated::new(MemFile::with_data(vec![0; 16]), Faults::new(plan));
        assert!(!place(&f).unwrap());
        assert!(f.with_range(0, 16, &mut |_, _| {}).unwrap(), "reads are");
    }
}
