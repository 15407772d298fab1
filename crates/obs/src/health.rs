//! `lio-health`: runtime liveness, hang detection, and straggler
//! attribution for the listless-io stack.
//!
//! Two-phase collective I/O is synchronization-heavy by construction:
//! one wedged or slow rank stalls the whole world, and until now the
//! obs stack could only explain an op *after* it finished. This module
//! names the failure while it is happening:
//!
//! * **Heartbeats** — every rank publishes its progress (op id, phase,
//!   window index, bytes moved, monotonic timestamp) into a per-rank
//!   slot of plain atomics. Publishing is zero-alloc and lock-free; a
//!   reader (the watchdog, `SharedFile::health_report()`, `repro top`)
//!   scans the slots with relaxed loads and never blocks a writer.
//! * **Watchdog** — a lazily-spawned thread scans the slots and flags
//!   any in-flight op whose heartbeat is older than a deadline. It
//!   picks the *culprit* (a rank stuck in a non-wait phase beats a
//!   rank merely waiting on one), prints a diagnosis with the replay
//!   line, asks the flight recorder ([`crate::trace::flight_dump`])
//!   for the recent event history, and — when abort is configured —
//!   parks a typed [`StallInfo`] for the culprit rank that `lio-core`
//!   surfaces as `IoError::Stalled` once the closing sync is reached.
//! * **Straggler attribution** — IOPs mark each per-window
//!   contribution arrival; the spread between first and last arrival
//!   is recorded into the `core.health.skew_ns` histogram and the
//!   last-arriving rank feeds a persistence streak. A rank that
//!   arrives last [`STRAGGLER_K`] windows in a row with non-trivial
//!   skew is flagged as a straggler and named in the health report.
//! * **Live introspection** — [`live_snapshot`] and [`report`] render
//!   the slots as structs / text / schema-versioned JSON, and the
//!   watchdog can periodically emit the JSON to `LIO_HEALTH_STATUS`
//!   for an external admission/fairness loop.
//!
//! Enablement follows the obs convention: `LIO_HEALTH` env (see
//! [`init_from_env`]), `Hints::health` / the `lio_health` info key in
//! `lio-core`, or [`set_enabled`]. Disabled cost is one relaxed atomic
//! load and a branch per heartbeat site (gated by the `health_overhead`
//! bench in `lio-bench`).
//!
//! Hang injection for tests goes through [`set_stall_plan`]: a seeded
//! `Stall` fault (see `lio-testkit`) wedges a chosen rank inside its
//! heartbeat in a chosen phase until the hold elapses *or* the watchdog
//! flags it — after release the rank completes the collective protocol
//! normally, so no peer is ever stranded before the closing sync.

use crate::{LazyCounter, LazyHistogram};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// Maximum ranks with health slots (matches `trace::MAX_RANKS`).
pub const MAX_RANKS: usize = 64;

/// Rank value meaning "this thread has no health identity".
pub const NO_RANK: u32 = u32::MAX;

/// Consecutive last-arrival windows before a rank is flagged a straggler.
pub const STRAGGLER_K: u32 = 4;

/// Minimum first-to-last arrival spread for a window to count toward a
/// straggler streak — spreads below this are scheduler noise.
pub const STRAGGLER_MIN_SKEW_NS: u64 = 20_000;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the health layer recording heartbeats? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turn the health layer on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Read `LIO_HEALTH` once per process and enable the layer unless the
/// value is `0`, `false`, or `off`. Absent leaves the current setting
/// alone. Also reads the watchdog knobs: `LIO_HEALTH_DEADLINE_MS`
/// (no-progress deadline, default 5000), `LIO_HEALTH_ABORT`
/// (`1`/`on`/`true` parks a typed stall for the culprit rank instead of
/// diagnosing only), and `LIO_HEALTH_STATUS` (a path that receives a
/// periodic schema-versioned JSON status report).
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Ok(v) = std::env::var("LIO_HEALTH") {
            let v = v.to_ascii_lowercase();
            set_enabled(!matches!(v.as_str(), "0" | "false" | "off" | ""));
        }
        if let Ok(v) = std::env::var("LIO_HEALTH_DEADLINE_MS") {
            if let Ok(ms) = v.trim().parse::<u64>() {
                set_watchdog(ms.max(1), abort_configured());
            }
        }
        if let Ok(v) = std::env::var("LIO_HEALTH_ABORT") {
            let on = matches!(
                v.to_ascii_lowercase().as_str(),
                "1" | "on" | "true" | "enable"
            );
            WD_ABORT.store(on, Relaxed);
        }
    });
}

// ---------------------------------------------------------------------------
// Monotonic clock (own epoch: the trace clock is feature-gated away in
// `trace_off` builds, health is always present)
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local health epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// The phase a rank last made progress in. `ExchangeWait` and `Barrier`
/// are *wait* phases: a rank parked there is a victim of someone else's
/// stall, not the culprit — the watchdog uses this to attribute hangs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum HbPhase {
    /// No collective in flight.
    Idle = 0,
    /// Building the access plan / flattening the view.
    Plan = 1,
    /// Actively sending or receiving exchange data.
    Exchange = 2,
    /// Blocked waiting for exchange messages to arrive.
    ExchangeWait = 3,
    /// Storage access (read/write/flush), including squeue service.
    Io = 4,
    /// Datatype pack/unpack.
    Pack = 5,
    /// Closing synchronization.
    Barrier = 6,
}

impl HbPhase {
    /// Stable lower-case name, used in diagnoses and JSON.
    pub fn name(self) -> &'static str {
        match self {
            HbPhase::Idle => "idle",
            HbPhase::Plan => "plan",
            HbPhase::Exchange => "exchange",
            HbPhase::ExchangeWait => "exchange.wait",
            HbPhase::Io => "io",
            HbPhase::Pack => "pack",
            HbPhase::Barrier => "barrier",
        }
    }

    /// Is a rank parked in this phase waiting on *other* ranks?
    pub fn is_wait(self) -> bool {
        matches!(self, HbPhase::ExchangeWait | HbPhase::Barrier)
    }

    fn from_u32(v: u32) -> HbPhase {
        match v {
            1 => HbPhase::Plan,
            2 => HbPhase::Exchange,
            3 => HbPhase::ExchangeWait,
            4 => HbPhase::Io,
            5 => HbPhase::Pack,
            6 => HbPhase::Barrier,
            _ => HbPhase::Idle,
        }
    }
}

// ---------------------------------------------------------------------------
// Heartbeat slots: one cache-line-ish struct of atomics per rank,
// single-writer (the rank), many lock-free readers
// ---------------------------------------------------------------------------

struct Slot {
    /// In-flight collective op id; 0 = idle.
    op: AtomicU64,
    /// 1 when the in-flight op is a write.
    write: AtomicU32,
    /// Last progress phase (`HbPhase` as u32).
    phase: AtomicU32,
    /// Last window index the rank contributed to / placed.
    window: AtomicU64,
    /// Bytes moved so far in this op.
    bytes: AtomicU64,
    /// Heartbeats published in this op.
    beats: AtomicU64,
    /// `now_ns()` of the last heartbeat.
    ts: AtomicU64,
    /// Last published submission-queue depth observed by this rank.
    qdepth: AtomicU64,
    /// Op id the watchdog already flagged (dedup: one diagnosis per op).
    flagged: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            op: AtomicU64::new(0),
            write: AtomicU32::new(0),
            phase: AtomicU32::new(0),
            window: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            beats: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            qdepth: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const SLOT_INIT: Slot = Slot::new();
static SLOTS: [Slot; MAX_RANKS] = [SLOT_INIT; MAX_RANKS];

// ---------------------------------------------------------------------------
// Thread identity (health keeps its own: trace's is feature-gated)
// ---------------------------------------------------------------------------

thread_local! {
    static RANK: Cell<u32> = const { Cell::new(NO_RANK) };
}

/// Bind the calling thread to `rank` for heartbeat publication.
/// `World::run` calls this for every rank thread.
pub fn set_thread_rank(rank: u32) {
    RANK.with(|r| r.set(rank));
}

/// The rank bound to the calling thread, or [`NO_RANK`].
#[inline]
pub fn current_rank() -> u32 {
    RANK.with(|r| r.get())
}

/// A capturable copy of the calling thread's health identity, for
/// worker threads (squeue pool, the write-behind lane) that service a rank's
/// I/O: capture on the submitting thread, [`adopt`] on the worker.
#[derive(Clone, Copy, Debug)]
pub struct Handle(u32);

/// Capture the calling thread's health identity.
pub fn thread_handle() -> Handle {
    Handle(current_rank())
}

/// Adopt a captured identity on the calling thread.
pub fn adopt(h: Handle) {
    RANK.with(|r| r.set(h.0));
}

// ---------------------------------------------------------------------------
// Instruments (aggregate surface; the raw atomics below stay readable
// even when the main obs registry is disabled)
// ---------------------------------------------------------------------------

static OBS_BEATS: LazyCounter = LazyCounter::new("core.health.beats");
static OBS_WD_FIRED: LazyCounter = LazyCounter::new("core.health.watchdog.fired");
static OBS_STALL_ABORTS: LazyCounter = LazyCounter::new("core.health.stalls.aborted");
static OBS_STRAGGLER_FLAGS: LazyCounter = LazyCounter::new("core.health.straggler.flags");
static OBS_SKEW: LazyHistogram = LazyHistogram::new("core.health.skew_ns");

static WD_CHECKS_RAW: AtomicU64 = AtomicU64::new(0);
static WD_FIRED_RAW: AtomicU64 = AtomicU64::new(0);
static STALL_ABORTS_RAW: AtomicU64 = AtomicU64::new(0);
static STRAGGLER_FLAGS_RAW: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Heartbeat publication
// ---------------------------------------------------------------------------

/// Mark the calling rank as entering collective op `op` (non-zero;
/// `lio-core` threads a per-file sequence number through so ids align
/// across ranks). Resets the per-op progress fields.
pub fn op_begin(op: u64, write: bool) {
    if !enabled() {
        return;
    }
    let rank = current_rank();
    if rank as usize >= MAX_RANKS {
        return;
    }
    let s = &SLOTS[rank as usize];
    s.write.store(write as u32, Relaxed);
    s.phase.store(HbPhase::Plan as u32, Relaxed);
    s.window.store(0, Relaxed);
    s.bytes.store(0, Relaxed);
    s.beats.store(1, Relaxed);
    s.ts.store(now_ns(), Relaxed);
    s.op.store(op, Relaxed);
}

/// Mark the calling rank's collective op as finished (the closing sync
/// was reached). Flushes any pending skew window.
pub fn op_end() {
    if !enabled() {
        return;
    }
    window_flush();
    let rank = current_rank();
    if rank as usize >= MAX_RANKS {
        return;
    }
    let s = &SLOTS[rank as usize];
    s.op.store(0, Relaxed);
    s.phase.store(HbPhase::Idle as u32, Relaxed);
    s.ts.store(now_ns(), Relaxed);
}

/// Publish a heartbeat: the calling rank made progress in `phase`.
#[inline(always)]
pub fn beat(phase: HbPhase) {
    if enabled() {
        beat_slow(phase, None, 0);
    }
}

/// Heartbeat plus bytes moved (storage service, exchange payloads).
#[inline(always)]
pub fn beat_bytes(phase: HbPhase, bytes: u64) {
    if enabled() {
        beat_slow(phase, None, bytes);
    }
}

/// Heartbeat plus the window index the rank just advanced to.
#[inline(always)]
pub fn beat_window(phase: HbPhase, window: u64) {
    if enabled() {
        beat_slow(phase, Some(window), 0);
    }
}

#[inline(never)]
fn beat_slow(phase: HbPhase, window: Option<u64>, bytes: u64) {
    let rank = current_rank();
    if rank as usize >= MAX_RANKS {
        return;
    }
    let s = &SLOTS[rank as usize];
    s.phase.store(phase as u32, Relaxed);
    if let Some(w) = window {
        s.window.store(w, Relaxed);
    }
    if bytes > 0 {
        s.bytes.fetch_add(bytes, Relaxed);
    }
    s.beats.fetch_add(1, Relaxed);
    s.ts.store(now_ns(), Relaxed);
    OBS_BEATS.incr();
    if STALL_ARMED.load(Relaxed) {
        maybe_wedge(rank, phase, s);
    }
}

/// Publish the submission-queue depth observed by the calling rank.
#[inline(always)]
pub fn queue_depth(depth: u64) {
    if !enabled() {
        return;
    }
    let rank = current_rank();
    if rank as usize >= MAX_RANKS {
        return;
    }
    SLOTS[rank as usize].qdepth.store(depth, Relaxed);
}

// ---------------------------------------------------------------------------
// Seeded stall injection (the testkit `Stall` fault kind lands here)
// ---------------------------------------------------------------------------

/// A deterministic hang: `rank` wedges inside its next heartbeat in
/// `phase` and stays wedged for `hold` — or until the watchdog flags
/// it, whichever comes first. After release the rank resumes the
/// protocol normally, so peers always reach the closing sync.
#[derive(Clone, Copy, Debug)]
pub struct StallSpec {
    pub rank: u32,
    pub phase: HbPhase,
    pub hold: Duration,
}

struct StallState {
    spec: StallSpec,
    fired: bool,
}

static STALL_ARMED: AtomicBool = AtomicBool::new(false);
static STALL: Mutex<Option<StallState>> = Mutex::new(None);

/// Arm (or clear) the one-shot stall plan. Each armed plan fires at
/// most once.
pub fn set_stall_plan(spec: Option<StallSpec>) {
    let mut st = STALL.lock().unwrap();
    STALL_ARMED.store(spec.is_some(), Relaxed);
    *st = spec.map(|spec| StallState { spec, fired: false });
}

fn maybe_wedge(rank: u32, phase: HbPhase, slot: &Slot) {
    let hold = {
        let mut st = STALL.lock().unwrap();
        match st.as_mut() {
            Some(state) if !state.fired && state.spec.rank == rank && state.spec.phase == phase => {
                state.fired = true;
                STALL_ARMED.store(false, Relaxed);
                state.spec.hold
            }
            _ => return,
        }
    };
    let op = slot.op.load(Relaxed);
    let released_at = Instant::now() + hold;
    // Wedge: no heartbeats, no progress. Release on hold expiry or on
    // the watchdog flagging this op (so aborts never wait out the hold).
    while Instant::now() < released_at {
        if op != 0 && slot.flagged.load(Relaxed) == op {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

static WD_DEADLINE_MS: AtomicU64 = AtomicU64::new(5000);
static WD_ABORT: AtomicBool = AtomicBool::new(false);
static WD_DIAGNOSES: AtomicU32 = AtomicU32::new(0);

fn abort_configured() -> bool {
    WD_ABORT.load(Relaxed)
}

/// Configure the watchdog: `deadline_ms` of no progress flags an op;
/// `abort` parks a [`StallInfo`] for the culprit rank (surfaced by
/// `lio-core` as `IoError::Stalled`) instead of diagnosing only.
/// Programmatic twin of `LIO_HEALTH_DEADLINE_MS` / `LIO_HEALTH_ABORT`
/// — tests use this because process env is racy under the parallel
/// test runner.
pub fn set_watchdog(deadline_ms: u64, abort: bool) {
    WD_DEADLINE_MS.store(deadline_ms.max(1), Relaxed);
    WD_ABORT.store(abort, Relaxed);
}

/// Spawn the watchdog thread if it is not already running. Called by
/// `File::open` when the health layer is armed; repeated calls are
/// free. The thread idles (cheaply) while the layer is disabled.
pub fn ensure_watchdog() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        std::thread::Builder::new()
            .name("lio-health-watchdog".into())
            .spawn(watchdog_loop)
            .expect("spawn health watchdog");
    });
}

fn status_path() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| {
        std::env::var("LIO_HEALTH_STATUS")
            .ok()
            .filter(|p| !p.is_empty())
    })
    .as_deref()
}

fn watchdog_loop() {
    loop {
        let deadline_ms = WD_DEADLINE_MS.load(Relaxed);
        // Poll a few times per deadline so detection latency stays a
        // fraction of the deadline itself.
        let poll = Duration::from_millis((deadline_ms / 4).clamp(5, 1000));
        std::thread::sleep(poll);
        if !enabled() {
            continue;
        }
        WD_CHECKS_RAW.fetch_add(1, Relaxed);
        check_once(deadline_ms);
        if let Some(path) = status_path() {
            let _ = std::fs::write(path, report().to_json());
        }
    }
}

/// One watchdog scan: flag the culprit among overdue ranks, if any.
/// Factored out of the loop so tests can drive it synchronously.
fn check_once(deadline_ms: u64) {
    let now = now_ns();
    let deadline_ns = deadline_ms.saturating_mul(1_000_000);
    // Collect overdue in-flight ops not yet flagged.
    let mut culprit: Option<(usize, u64, HbPhase, u64)> = None; // (rank, age, phase, op)
    for (rank, s) in SLOTS.iter().enumerate() {
        let op = s.op.load(Relaxed);
        if op == 0 || s.flagged.load(Relaxed) == op {
            continue;
        }
        let age = now.saturating_sub(s.ts.load(Relaxed));
        if age < deadline_ns {
            continue;
        }
        let phase = HbPhase::from_u32(s.phase.load(Relaxed));
        // A rank stuck in a non-wait phase outranks any waiter (the
        // waiters are its victims); among equals the oldest beat wins.
        let better = match culprit {
            None => true,
            Some((_, best_age, best_phase, _)) => {
                (!phase.is_wait() && best_phase.is_wait())
                    || (phase.is_wait() == best_phase.is_wait() && age > best_age)
            }
        };
        if better {
            culprit = Some((rank, age, phase, op));
        }
    }
    let Some((rank, age, phase, op)) = culprit else {
        return;
    };
    let s = &SLOTS[rank];
    let info = StallInfo {
        rank: rank as u32,
        phase: phase.name(),
        op,
        window: s.window.load(Relaxed),
        bytes: s.bytes.load(Relaxed),
        stalled_ms: age / 1_000_000,
    };
    s.flagged.store(op, Relaxed);
    WD_FIRED_RAW.fetch_add(1, Relaxed);
    OBS_WD_FIRED.incr();
    let abort = abort_configured();
    // Diagnose loudly the first couple of times, then stay quiet (the
    // same suppression discipline as the trace flight recorder).
    let n = WD_DIAGNOSES.fetch_add(1, Relaxed);
    if n < 2 {
        eprintln!(
            "lio-health watchdog: rank {} made no progress for {} ms — stuck in {} \
             (op {}, window {}, {} bytes moved); {}",
            info.rank,
            info.stalled_ms,
            info.phase,
            info.op,
            info.window,
            info.bytes,
            if abort {
                "aborting op with IoError::Stalled"
            } else {
                "diagnosing only (set LIO_HEALTH_ABORT=1 to abort)"
            }
        );
        eprintln!(
            "  replay: LIO_HEALTH=1 LIO_HEALTH_DEADLINE_MS={} cargo test -q -p lio-core --test health",
            deadline_ms
        );
        crate::trace::flight_dump(&format!(
            "health watchdog: rank {} stalled in {}",
            info.rank, info.phase
        ));
    }
    if abort {
        STALL_ABORTS_RAW.fetch_add(1, Relaxed);
        OBS_STALL_ABORTS.incr();
        *PENDING[rank].lock().unwrap() = Some(info);
    }
}

// ---------------------------------------------------------------------------
// Stall surfacing
// ---------------------------------------------------------------------------

/// What the watchdog knows about a flagged stall; carried by
/// `IoError::Stalled`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallInfo {
    /// The culprit rank.
    pub rank: u32,
    /// Phase name the rank was stuck in (see [`HbPhase::name`]).
    pub phase: &'static str,
    /// Collective op id.
    pub op: u64,
    /// Last window index the rank reached.
    pub window: u64,
    /// Bytes it had moved before stalling.
    pub bytes: u64,
    /// How long it had made no progress when flagged.
    pub stalled_ms: u64,
}

impl std::fmt::Display for StallInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} stuck in {} (op {}, window {}, {} bytes moved, {} ms without progress)",
            self.rank, self.phase, self.op, self.window, self.bytes, self.stalled_ms
        )
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const PENDING_INIT: Mutex<Option<StallInfo>> = Mutex::new(None);
static PENDING: [Mutex<Option<StallInfo>>; MAX_RANKS] = [PENDING_INIT; MAX_RANKS];

/// Take the parked stall for `rank`, if the watchdog aborted its op.
/// `lio-core` calls this after the engine returns (i.e. after the
/// closing sync — no peer is stranded) and converts it to
/// `IoError::Stalled`.
pub fn take_stall(rank: u32) -> Option<StallInfo> {
    if rank as usize >= MAX_RANKS {
        return None;
    }
    PENDING[rank as usize].lock().unwrap().take()
}

// ---------------------------------------------------------------------------
// Per-window rank-skew tracking and straggler attribution
// ---------------------------------------------------------------------------

/// Thread-local accumulator for the window the calling IOP is
/// currently collecting. Plain `Copy` state in a `Cell`: zero alloc,
/// zero contention.
#[derive(Clone, Copy, Default)]
struct WindowAcc {
    window: u64,
    t_first: u64,
    t_last: u64,
    last_rank: u32,
    count: u32,
}

thread_local! {
    static ACC: Cell<Option<WindowAcc>> = const { Cell::new(None) };
}

static SLOW_RANK: AtomicU32 = AtomicU32::new(NO_RANK);
static SLOW_STREAK: AtomicU32 = AtomicU32::new(0);
static SLOW_SKEW_NS: AtomicU64 = AtomicU64::new(0);

// Per-rank last-arrival attribution: how many finished windows each rank
// closed and the total spread charged to it. Feeds the per-rank skew
// column of the critical-path report.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
static LAST_COUNT: [AtomicU64; MAX_RANKS] = [ZERO_U64; MAX_RANKS];
static LAST_SKEW_SUM_NS: [AtomicU64; MAX_RANKS] = [ZERO_U64; MAX_RANKS];

/// An IOP received a per-window contribution from `src_rank` for
/// `window`. On window rollover the previous window's first-to-last
/// arrival spread is recorded (`core.health.skew_ns`) and attributed
/// to the last-arriving rank.
#[inline(always)]
pub fn window_mark(window: u64, src_rank: u32) {
    if !enabled() {
        return;
    }
    window_mark_slow(window, src_rank);
}

#[inline(never)]
fn window_mark_slow(window: u64, src_rank: u32) {
    let now = now_ns();
    ACC.with(|cell| {
        let acc = match cell.get() {
            Some(mut acc) if acc.window == window => {
                acc.t_last = now;
                acc.last_rank = src_rank;
                acc.count += 1;
                acc
            }
            prev => {
                if let Some(done) = prev {
                    finish_window(done);
                }
                WindowAcc {
                    window,
                    t_first: now,
                    t_last: now,
                    last_rank: src_rank,
                    count: 1,
                }
            }
        };
        cell.set(Some(acc));
    });
}

/// Flush the calling thread's in-progress skew window (end of the IOP
/// loop / end of op).
pub fn window_flush() {
    ACC.with(|cell| {
        if let Some(acc) = cell.take() {
            finish_window(acc);
        }
    });
}

fn finish_window(acc: WindowAcc) {
    if acc.count < 2 {
        return;
    }
    let skew = acc.t_last.saturating_sub(acc.t_first);
    OBS_SKEW.record(skew);
    SLOW_SKEW_NS.store(skew, Relaxed);
    if (acc.last_rank as usize) < MAX_RANKS {
        LAST_COUNT[acc.last_rank as usize].fetch_add(1, Relaxed);
        LAST_SKEW_SUM_NS[acc.last_rank as usize].fetch_add(skew, Relaxed);
    }
    if skew < STRAGGLER_MIN_SKEW_NS {
        // A tight window breaks any streak: the last arrival was noise.
        SLOW_STREAK.store(0, Relaxed);
        return;
    }
    if SLOW_RANK.swap(acc.last_rank, Relaxed) == acc.last_rank {
        let streak = SLOW_STREAK.fetch_add(1, Relaxed) + 1;
        if streak == STRAGGLER_K {
            STRAGGLER_FLAGS_RAW.fetch_add(1, Relaxed);
            OBS_STRAGGLER_FLAGS.incr();
        }
    } else {
        SLOW_STREAK.store(1, Relaxed);
    }
}

/// A rank persistently arriving last with non-trivial skew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerInfo {
    /// The under-performing rank.
    pub rank: u32,
    /// Consecutive windows it arrived last.
    pub windows: u32,
    /// The most recent window's first-to-last arrival spread.
    pub skew_ns: u64,
}

/// The current straggler, if any rank has arrived last for
/// [`STRAGGLER_K`] consecutive windows with skew above
/// [`STRAGGLER_MIN_SKEW_NS`]. Named in [`HealthReport::straggler`].
pub fn straggler() -> Option<StragglerInfo> {
    let streak = SLOW_STREAK.load(Relaxed);
    if streak < STRAGGLER_K {
        return None;
    }
    let rank = SLOW_RANK.load(Relaxed);
    (rank != NO_RANK).then_some(StragglerInfo {
        rank,
        windows: streak,
        skew_ns: SLOW_SKEW_NS.load(Relaxed),
    })
}

/// One rank's cumulative last-arrival attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSkew {
    pub rank: u32,
    /// Finished windows this rank closed (arrived last in).
    pub windows_last: u64,
    /// Total first-to-last spread across those windows.
    pub skew_ns: u64,
}

/// Per-rank last-arrival totals for every rank charged with at least one
/// finished window. Rendered as the per-rank skew column of the
/// critical-path report.
pub fn rank_skews() -> Vec<RankSkew> {
    (0..MAX_RANKS)
        .filter_map(|r| {
            let windows_last = LAST_COUNT[r].load(Relaxed);
            (windows_last > 0).then(|| RankSkew {
                rank: r as u32,
                windows_last,
                skew_ns: LAST_SKEW_SUM_NS[r].load(Relaxed),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Introspection: snapshots, reports, JSON
// ---------------------------------------------------------------------------

/// Point-in-time copy of one rank's heartbeat slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankHealth {
    pub rank: u32,
    /// In-flight op id; 0 = idle.
    pub op: u64,
    /// Is the in-flight op a write?
    pub write: bool,
    /// Last progress phase name.
    pub phase: &'static str,
    pub window: u64,
    pub bytes: u64,
    pub beats: u64,
    pub queue_depth: u64,
    /// Milliseconds since the last heartbeat.
    pub age_ms: u64,
}

/// Scan the heartbeat slots. Ranks that never published are skipped.
pub fn live_snapshot() -> Vec<RankHealth> {
    let now = now_ns();
    SLOTS
        .iter()
        .enumerate()
        .filter(|(_, s)| s.beats.load(Relaxed) > 0 || s.op.load(Relaxed) != 0)
        .map(|(rank, s)| RankHealth {
            rank: rank as u32,
            op: s.op.load(Relaxed),
            write: s.write.load(Relaxed) != 0,
            phase: HbPhase::from_u32(s.phase.load(Relaxed)).name(),
            window: s.window.load(Relaxed),
            bytes: s.bytes.load(Relaxed),
            beats: s.beats.load(Relaxed),
            queue_depth: s.qdepth.load(Relaxed),
            age_ms: now.saturating_sub(s.ts.load(Relaxed)) / 1_000_000,
        })
        .collect()
}

/// Schema version of [`HealthReport::to_json`] output.
pub const REPORT_SCHEMA: &str = "lio-health-v1";

/// A schema-versioned health status report: the live slots plus the
/// watchdog and straggler aggregates.
#[derive(Clone, Debug, Default)]
pub struct HealthReport {
    pub ranks: Vec<RankHealth>,
    pub watchdog_checks: u64,
    pub watchdog_fired: u64,
    pub stalls_aborted: u64,
    pub straggler_flags: u64,
    pub straggler: Option<StragglerInfo>,
}

/// Build a [`HealthReport`] from the current slots and aggregates.
pub fn report() -> HealthReport {
    HealthReport {
        ranks: live_snapshot(),
        watchdog_checks: WD_CHECKS_RAW.load(Relaxed),
        watchdog_fired: WD_FIRED_RAW.load(Relaxed),
        stalls_aborted: STALL_ABORTS_RAW.load(Relaxed),
        straggler_flags: STRAGGLER_FLAGS_RAW.load(Relaxed),
        straggler: straggler(),
    }
}

impl HealthReport {
    /// Serialize to a schema-versioned JSON object (hand-rolled, like
    /// the rest of lio-obs; parseable by [`crate::json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(REPORT_SCHEMA);
        out.push_str("\",\n  \"watchdog\": {\"checks\": ");
        out.push_str(&self.watchdog_checks.to_string());
        out.push_str(", \"fired\": ");
        out.push_str(&self.watchdog_fired.to_string());
        out.push_str(", \"stalls_aborted\": ");
        out.push_str(&self.stalls_aborted.to_string());
        out.push_str("},\n  \"straggler\": ");
        match &self.straggler {
            Some(s) => out.push_str(&format!(
                "{{\"rank\": {}, \"windows\": {}, \"skew_ns\": {}}}",
                s.rank, s.windows, s.skew_ns
            )),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"straggler_flags\": ");
        out.push_str(&self.straggler_flags.to_string());
        out.push_str(",\n  \"ranks\": [");
        for (i, r) in self.ranks.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"rank\": {}, \"op\": {}, \"write\": {}, \"phase\": \"{}\", \
                 \"window\": {}, \"bytes\": {}, \"beats\": {}, \"queue_depth\": {}, \
                 \"age_ms\": {}}}",
                r.rank, r.op, r.write, r.phase, r.window, r.bytes, r.beats, r.queue_depth, r.age_ms
            ));
        }
        if !self.ranks.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Render as a fixed-width text table (`repro top`,
    /// `SharedFile::health_report`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>4}  {:>4}  {:<2}  {:<13}  {:>7}  {:>12}  {:>8}  {:>6}  {:>7}\n",
            "rank", "op", "rw", "phase", "window", "bytes", "beats", "qdep", "age_ms"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>4}  {:>4}  {:<2}  {:<13}  {:>7}  {:>12}  {:>8}  {:>6}  {:>7}\n",
                r.rank,
                r.op,
                if r.op == 0 {
                    "-"
                } else if r.write {
                    "w"
                } else {
                    "r"
                },
                r.phase,
                r.window,
                r.bytes,
                r.beats,
                r.queue_depth,
                r.age_ms
            ));
        }
        out.push_str(&format!(
            "watchdog: {} checks, {} fired, {} aborted",
            self.watchdog_checks, self.watchdog_fired, self.stalls_aborted
        ));
        match &self.straggler {
            Some(s) => out.push_str(&format!(
                "; straggler: rank {} ({} windows, last skew {} ns)\n",
                s.rank, s.windows, s.skew_ns
            )),
            None => out.push_str("; straggler: none\n"),
        }
        out
    }
}

/// Clear every slot and aggregate (tests share one process).
pub fn reset() {
    for s in SLOTS.iter() {
        s.op.store(0, Relaxed);
        s.write.store(0, Relaxed);
        s.phase.store(0, Relaxed);
        s.window.store(0, Relaxed);
        s.bytes.store(0, Relaxed);
        s.beats.store(0, Relaxed);
        s.ts.store(0, Relaxed);
        s.qdepth.store(0, Relaxed);
        s.flagged.store(0, Relaxed);
    }
    for p in PENDING.iter() {
        *p.lock().unwrap() = None;
    }
    set_stall_plan(None);
    SLOW_RANK.store(NO_RANK, Relaxed);
    SLOW_STREAK.store(0, Relaxed);
    SLOW_SKEW_NS.store(0, Relaxed);
    for r in 0..MAX_RANKS {
        LAST_COUNT[r].store(0, Relaxed);
        LAST_SKEW_SUM_NS[r].store(0, Relaxed);
    }
    WD_CHECKS_RAW.store(0, Relaxed);
    WD_FIRED_RAW.store(0, Relaxed);
    STALL_ABORTS_RAW.store(0, Relaxed);
    STRAGGLER_FLAGS_RAW.store(0, Relaxed);
    WD_DIAGNOSES.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize access to the global health state across tests.
    fn with_health<R>(f: impl FnOnce() -> R) -> R {
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
    fn beats_publish_to_slots() {
        with_health(|| {
            set_thread_rank(3);
            op_begin(7, true);
            beat_bytes(HbPhase::Io, 4096);
            beat_window(HbPhase::Exchange, 5);
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 3).unwrap();
            assert_eq!(r.op, 7);
            assert!(r.write);
            assert_eq!(r.phase, "exchange");
            assert_eq!(r.window, 5);
            assert_eq!(r.bytes, 4096);
            assert!(r.beats >= 3);
            op_end();
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 3).unwrap();
            assert_eq!(r.op, 0);
            assert_eq!(r.phase, "idle");
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn disabled_beats_are_noops() {
        with_health(|| {
            set_enabled(false);
            set_thread_rank(9);
            op_begin(1, false);
            beat(HbPhase::Io);
            assert!(live_snapshot().iter().all(|r| r.rank != 9));
            set_enabled(true);
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn watchdog_names_nonwait_culprit() {
        with_health(|| {
            set_watchdog(1, true);
            // Rank 0: wedged in io. Rank 1: waiting on it. Both overdue.
            set_thread_rank(0);
            op_begin(42, true);
            beat(HbPhase::Io);
            set_thread_rank(1);
            op_begin(42, true);
            beat(HbPhase::ExchangeWait);
            set_thread_rank(NO_RANK);
            std::thread::sleep(Duration::from_millis(5));
            check_once(1);
            let stall = take_stall(0).expect("culprit rank flagged");
            assert_eq!(stall.rank, 0);
            assert_eq!(stall.phase, "io");
            assert_eq!(stall.op, 42);
            assert!(take_stall(1).is_none(), "waiter is a victim, not flagged");
            // Dedup: a second scan of the same op flags nothing new
            // for rank 0, and names the waiting rank 1 next.
            check_once(1);
            assert!(take_stall(0).is_none());
            assert!(take_stall(1).is_some());
        });
    }

    #[test]
    fn fresh_beats_hold_off_watchdog() {
        with_health(|| {
            set_watchdog(10_000, true);
            set_thread_rank(2);
            op_begin(5, false);
            beat(HbPhase::Io);
            set_thread_rank(NO_RANK);
            check_once(10_000);
            assert!(take_stall(2).is_none(), "recent beat must not be flagged");
            assert_eq!(WD_FIRED_RAW.load(Relaxed), 0);
        });
    }

    #[test]
    fn stall_plan_wedges_until_hold() {
        with_health(|| {
            set_stall_plan(Some(StallSpec {
                rank: 4,
                phase: HbPhase::Exchange,
                hold: Duration::from_millis(30),
            }));
            set_thread_rank(4);
            op_begin(1, true);
            let t0 = Instant::now();
            beat(HbPhase::Io); // wrong phase: no wedge
            assert!(t0.elapsed() < Duration::from_millis(20));
            beat(HbPhase::Exchange); // wedges ~30ms
            assert!(t0.elapsed() >= Duration::from_millis(30));
            let t1 = Instant::now();
            beat(HbPhase::Exchange); // one-shot: no second wedge
            assert!(t1.elapsed() < Duration::from_millis(20));
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn skew_streak_flags_straggler() {
        with_health(|| {
            assert!(straggler().is_none());
            for w in 0..STRAGGLER_K as u64 {
                // rank 1 always arrives last, with a forced gap.
                window_mark(w, 0);
                std::thread::sleep(Duration::from_micros(60));
                window_mark(w, 1);
            }
            window_flush();
            let s = straggler().expect("persistent last-arriver flagged");
            assert_eq!(s.rank, 1);
            assert!(s.windows >= STRAGGLER_K);
            assert!(s.skew_ns >= STRAGGLER_MIN_SKEW_NS);
            assert_eq!(STRAGGLER_FLAGS_RAW.load(Relaxed), 1);
        });
    }

    #[test]
    fn alternating_last_arrivers_never_flag() {
        with_health(|| {
            for w in 0..(3 * STRAGGLER_K as u64) {
                window_mark(w, 0);
                std::thread::sleep(Duration::from_micros(40));
                window_mark(w, (1 + w % 2) as u32); // alternate 1, 2
            }
            window_flush();
            assert!(straggler().is_none());
        });
    }

    #[test]
    fn report_json_is_valid() {
        with_health(|| {
            set_thread_rank(0);
            op_begin(9, true);
            beat_bytes(HbPhase::Pack, 128);
            let rep = report();
            let json = rep.to_json();
            crate::json::validate(&json).expect("health report JSON parses");
            assert!(json.contains(REPORT_SCHEMA));
            assert!(json.contains("\"phase\": \"pack\""));
            let text = rep.render();
            assert!(text.contains("pack"));
            assert!(text.contains("watchdog:"));
            op_end();
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn worker_adoption_carries_rank() {
        with_health(|| {
            set_thread_rank(6);
            op_begin(3, false);
            let h = thread_handle();
            std::thread::scope(|s| {
                s.spawn(move || {
                    adopt(h);
                    assert_eq!(current_rank(), 6);
                    beat_bytes(HbPhase::Io, 512);
                });
            });
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 6).unwrap();
            assert_eq!(r.bytes, 512);
            op_end();
            set_thread_rank(NO_RANK);
        });
    }
}
