//! `lio-health`: runtime liveness, hang detection, and straggler
//! attribution for the listless-io stack.
//!
//! Two-phase collective I/O is synchronization-heavy by construction:
//! one wedged or slow rank stalls the whole world, and until now the
//! obs stack could only explain an op *after* it finished. This module
//! names the failure while it is happening:
//!
//! * **Heartbeats** — every rank's progress (op id, phase, window index,
//!   bytes moved, monotonic timestamp) lives in a per-rank slot of plain
//!   atomics, written by the trace layer's span and mark opens while this
//!   layer is armed, tracing on or off (see `publish`). Publishing is
//!   zero-alloc and lock-free; a reader (the watchdog,
//!   `SharedFile::health_report()`, `repro top`) scans the slots with
//!   relaxed loads and never blocks a writer.
//! * **Watchdog** — a lazily-spawned thread scans the slots and flags
//!   any in-flight op whose heartbeat is older than a deadline. It
//!   picks the *culprit* (a rank stuck in a non-wait phase beats a
//!   rank merely waiting on one), prints a diagnosis with the replay
//!   line, asks the flight recorder ([`crate::trace::flight_dump`])
//!   for the recent event history, and — when abort is configured —
//!   parks a typed [`StallInfo`] for the culprit rank that `lio-core`
//!   surfaces as `IoError::Stalled` once the closing sync is reached.
//!   It is configured in code only, by [`set_watchdog`].
//! * **Straggler attribution** — IOPs mark each AP's header as it
//!   arrives in a collective's exchange; the spread between first and
//!   last arrival is recorded into the `core.health.skew_ns` histogram
//!   and the last-arriving rank feeds a persistence streak. A rank that
//!   arrives last [`STRAGGLER_K`] exchanges in a row with non-trivial
//!   skew is flagged as a straggler and named in the health report.
//! * **Live introspection** — [`live_snapshot`] and [`report`] render
//!   the slots as structs / text / schema-versioned JSON.
//!
//! The layer is armed like the others, as `health` in the one
//! [`crate::Layers`] switch (`LIO_OBS=health`, `Hints::observe`), or by
//! [`set_enabled`]. Disarmed, a span costs the one load of the arming
//! word it costs the trace layer, and `lio-core`'s `obs_off` test counts
//! that a disarmed op publishes no heartbeat.
//!
//! Hang injection for tests goes through [`set_stall_plan`]: a seeded
//! `Stall` fault (see `lio-testkit`) wedges a chosen rank inside its
//! heartbeat in a chosen phase until the hold elapses *or* the watchdog
//! flags it — after release the rank completes the collective protocol
//! normally, so no peer is ever stranded before the closing sync.

use crate::trace::{current_rank, now_ns, phase_of, Phase};
use crate::{Layers, LazyCounter, LazyHistogram, MAX_RANKS, NO_RANK};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Consecutive last-arrival windows before a rank is flagged a straggler.
pub const STRAGGLER_K: u32 = 4;

/// Minimum first-to-last arrival spread for a window to count toward a
/// straggler streak — spreads below this are scheduler noise.
pub const STRAGGLER_MIN_SKEW_NS: u64 = 20_000;

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// Is the health layer recording heartbeats? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    crate::armed().contains(Layers::HEALTH)
}

/// Turn the health layer on or off globally.
pub fn set_enabled(on: bool) {
    crate::arm_layers(Layers::HEALTH, on);
}

// ---------------------------------------------------------------------------
// Heartbeat slots: one cache-line-ish struct of atomics per rank,
// written by the rank's threads (its own and its write-behind lane),
// many lock-free readers
// ---------------------------------------------------------------------------

struct Slot {
    /// In-flight collective op id; 0 = idle.
    op: AtomicU64,
    /// 1 when the in-flight op is a write.
    write: AtomicU32,
    /// Last progress phase (`Phase` as u32).
    phase: AtomicU32,
    /// Last window index the rank contributed to / placed.
    window: AtomicU64,
    /// Bytes moved so far in this op.
    bytes: AtomicU64,
    /// Heartbeats published in this op.
    beats: AtomicU64,
    /// `now_ns()` of the last heartbeat.
    ts: AtomicU64,
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
            flagged: AtomicU64::new(0),
        }
    }
}

static SLOTS: [Slot; MAX_RANKS] = [const { Slot::new() }; MAX_RANKS];

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
    let Some(s) = SLOTS.get(current_rank() as usize).filter(|_| enabled()) else {
        return;
    };
    s.write.store(write as u32, Relaxed);
    s.phase.store(Phase::Plan as u32, Relaxed);
    s.window.store(0, Relaxed);
    s.bytes.store(0, Relaxed);
    s.beats.store(1, Relaxed);
    s.ts.store(now_ns(), Relaxed);
    s.op.store(op, Relaxed);
}

/// Mark the calling rank's collective op as finished (the closing sync
/// was reached).
pub fn op_end() {
    if !enabled() {
        return;
    }
    let Some(s) = SLOTS.get(current_rank() as usize) else {
        return;
    };
    s.op.store(0, Relaxed);
    s.phase.store(Phase::Idle as u32, Relaxed);
    s.ts.store(now_ns(), Relaxed);
}

/// Publish `rank`'s heartbeat for the span or mark `tag` it opened with
/// payload `(a, b)`; the trace layer's gate calls this for every event
/// while the layer is armed. The phase is the tag's in the one table
/// ([`phase_of`]; none, nothing is published); a `win` span adds its
/// window index and bytes, an `exch.send` its bytes. A message receipt
/// publishes only out of an exchange wait: in a barrier's rounds or a
/// plan's allgather the rank is still waiting on whoever is late.
#[inline(never)]
pub(crate) fn publish(rank: u32, tag: &str, a: u64, b: u64) {
    let phase = phase_of(tag).0;
    let Some(s) = SLOTS.get(rank as usize) else {
        return;
    };
    if phase == Phase::Idle
        || (tag == "msg.recv" && s.phase.load(Relaxed) != Phase::ExchangeWait as u32)
    {
        return;
    }
    s.phase.store(phase as u32, Relaxed);
    if tag == "win" {
        s.window.store(a, Relaxed);
    }
    if tag == "win" || tag == "exch.send" {
        s.bytes.fetch_add(b, Relaxed);
    }
    s.beats.fetch_add(1, Relaxed);
    s.ts.store(now_ns(), Relaxed);
    OBS_BEATS.incr();
    if STALL_ARMED.load(Relaxed) {
        maybe_wedge(rank, phase, s);
    }
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
    pub phase: Phase,
    pub hold: Duration,
}

static STALL_ARMED: AtomicBool = AtomicBool::new(false);
static STALL: Mutex<Option<StallSpec>> = Mutex::new(None);

/// Arm (or clear) the one-shot stall plan. Each armed plan fires at
/// most once.
pub fn set_stall_plan(spec: Option<StallSpec>) {
    let mut st = STALL.lock().unwrap();
    STALL_ARMED.store(spec.is_some(), Relaxed);
    *st = spec;
}

fn maybe_wedge(rank: u32, phase: Phase, slot: &Slot) {
    let hold = {
        let mut st = STALL.lock().unwrap();
        match *st {
            Some(spec) if spec.rank == rank && spec.phase == phase => {
                *st = None;
                STALL_ARMED.store(false, Relaxed);
                spec.hold
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

/// Configure the watchdog, the one way to: `deadline_ms` of no progress
/// (default 5000) flags an op; `abort` parks a [`StallInfo`] for the
/// culprit rank (surfaced by `lio-core` as `IoError::Stalled`) instead of
/// diagnosing only (the default).
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
    }
}

/// One watchdog scan: flag the culprit among overdue ranks, if any.
/// Factored out of the loop so tests can drive it synchronously.
fn check_once(deadline_ms: u64) {
    let now = now_ns();
    let deadline_ns = deadline_ms.saturating_mul(1_000_000);
    // Collect overdue in-flight ops not yet flagged.
    let mut culprit: Option<(usize, u64, Phase, u64)> = None; // (rank, age, phase, op)
    for (rank, s) in SLOTS.iter().enumerate() {
        let op = s.op.load(Relaxed);
        if op == 0 || s.flagged.load(Relaxed) == op {
            continue;
        }
        let age = now.saturating_sub(s.ts.load(Relaxed));
        if age < deadline_ns {
            continue;
        }
        let phase = Phase::from_u32(s.phase.load(Relaxed));
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
    let abort = WD_ABORT.load(Relaxed);
    // Diagnose loudly the first couple of times, then stay quiet (the
    // same suppression discipline as the trace flight recorder).
    let n = WD_DIAGNOSES.fetch_add(1, Relaxed);
    if n < 2 {
        let verdict = match abort {
            true => "aborting op with IoError::Stalled",
            false => "diagnosing only (health::set_watchdog(_, true) aborts)",
        };
        eprintln!("lio-health watchdog: {info}; {verdict}");
        eprintln!("  replay: LIO_OBS=health cargo test -q -p lio-core --test health");
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
    /// Phase name the rank was stuck in (see [`Phase::name`]).
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

static PENDING: [Mutex<Option<StallInfo>>; MAX_RANKS] = [const { Mutex::new(None) }; MAX_RANKS];

/// Take the parked stall for `rank`, if the watchdog aborted its op.
/// `lio-core` calls this after the engine returns (i.e. after the
/// closing sync — no peer is stranded) and converts it to
/// `IoError::Stalled`.
pub fn take_stall(rank: u32) -> Option<StallInfo> {
    PENDING.get(rank as usize)?.lock().unwrap().take()
}

// ---------------------------------------------------------------------------
// Per-window rank-skew tracking and straggler attribution
// ---------------------------------------------------------------------------

/// Thread-local accumulator for the exchange the calling IOP is
/// currently collecting. Plain `Copy` state in a `Cell`: zero alloc,
/// zero contention.
#[derive(Clone, Copy, Default)]
struct WindowAcc {
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
static LAST_COUNT: [AtomicU64; MAX_RANKS] = [const { AtomicU64::new(0) }; MAX_RANKS];
static LAST_SKEW_SUM_NS: [AtomicU64; MAX_RANKS] = [const { AtomicU64::new(0) }; MAX_RANKS];

/// An IOP received the contribution of `src_rank` to the exchange it is
/// collecting: the first stamps the exchange's start, every later one its
/// last arrival. [`window_flush`] closes the exchange.
pub fn window_mark(src_rank: u32) {
    if !enabled() {
        return;
    }
    let now = now_ns();
    ACC.with(|cell| {
        let first = WindowAcc {
            t_first: now,
            ..WindowAcc::default()
        };
        let acc = cell.get().unwrap_or(first);
        cell.set(Some(WindowAcc {
            t_last: now,
            last_rank: src_rank,
            count: acc.count + 1,
            ..acc
        }));
    });
}

/// Close the calling thread's exchange: its first-to-last arrival
/// spread is recorded (`core.health.skew_ns`) and charged to the
/// last-arriving rank (the end of the IOP's receives).
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
            phase: Phase::from_u32(s.phase.load(Relaxed)).name(),
            window: s.window.load(Relaxed),
            bytes: s.bytes.load(Relaxed),
            beats: s.beats.load(Relaxed),
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
                 \"window\": {}, \"bytes\": {}, \"beats\": {}, \"age_ms\": {}}}",
                r.rank, r.op, r.write, r.phase, r.window, r.bytes, r.beats, r.age_ms
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
            "{:>4}  {:>4}  {:<2}  {:<13}  {:>7}  {:>12}  {:>8}  {:>7}\n",
            "rank", "op", "rw", "phase", "window", "bytes", "beats", "age_ms"
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>4}  {:>4}  {:<2}  {:<13}  {:>7}  {:>12}  {:>8}  {:>7}\n",
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
    use crate::trace::{adopt, mark, msg_recv, set_thread_rank, span, span_ab, thread_handle};

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
            drop(span_ab("win", 5, 4096));
            drop(span_ab("exch.send", 1, 0));
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 3).unwrap();
            assert_eq!(r.op, 7);
            assert!(r.write);
            assert_eq!(r.phase, "exchange");
            assert_eq!(r.window, 5);
            assert_eq!(r.bytes, 4096);
            assert_eq!(r.beats, 3);
            // a tag with no phase publishes nothing
            mark("test.mark", 9, 9);
            let beats = || live_snapshot().iter().find(|r| r.rank == 3).unwrap().beats;
            assert_eq!(beats(), 3);
            op_end();
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 3).unwrap();
            assert_eq!(r.op, 0);
            assert_eq!(r.phase, "idle");
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn a_receipt_ends_only_an_exchange_wait() {
        with_health(|| {
            set_thread_rank(5);
            op_begin(2, false);
            let phase = || live_snapshot().iter().find(|r| r.rank == 5).unwrap().phase;
            msg_recv(1, 1, 64); // the plan's allgather
            assert_eq!(phase(), "plan");
            drop(span("mpi.wait"));
            assert_eq!(phase(), "exchange.wait");
            msg_recv(1, 2, 64);
            assert_eq!(phase(), "exchange");
            drop(span("mpi.barrier"));
            msg_recv(1, 3, 0); // a barrier's round
            assert_eq!(phase(), "barrier");
            op_end();
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn disabled_beats_are_noops() {
        with_health(|| {
            set_enabled(false);
            set_thread_rank(9);
            op_begin(1, false);
            drop(span("io.write"));
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
            drop(span("io.write"));
            set_thread_rank(1);
            op_begin(42, true);
            drop(span("mpi.wait"));
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
            drop(span("io.read"));
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
                phase: Phase::Exchange,
                hold: Duration::from_millis(30),
            }));
            set_thread_rank(4);
            op_begin(1, true);
            let t0 = Instant::now();
            drop(span("io.read")); // wrong phase: no wedge
            assert!(t0.elapsed() < Duration::from_millis(20));
            drop(span("exch.send")); // wedges ~30ms
            assert!(t0.elapsed() >= Duration::from_millis(30));
            let t1 = Instant::now();
            drop(span("exch.send")); // one-shot: no second wedge
            assert!(t1.elapsed() < Duration::from_millis(20));
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn skew_streak_flags_straggler() {
        with_health(|| {
            assert!(straggler().is_none());
            for _ in 0..STRAGGLER_K {
                // rank 1 always arrives last, with a forced gap.
                window_mark(0);
                std::thread::sleep(Duration::from_micros(60));
                window_mark(1);
                window_flush();
            }
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
            for w in 0..(3 * STRAGGLER_K) {
                window_mark(0);
                std::thread::sleep(Duration::from_micros(40));
                window_mark(1 + w % 2); // alternate 1, 2
                window_flush();
            }
            assert!(straggler().is_none());
        });
    }

    #[test]
    fn report_json_is_valid() {
        with_health(|| {
            set_thread_rank(0);
            op_begin(9, true);
            drop(span_ab("pack", 128, 0));
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

    /// A write-behind lane adopts its rank's identity, so its `io.write`
    /// spans beat on the rank's slot.
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
                    drop(span_ab("io.write", 0, 512));
                });
            });
            let snap = live_snapshot();
            let r = snap.iter().find(|r| r.rank == 6).unwrap();
            assert_eq!((r.phase, r.beats), ("io", 2));
            op_end();
            set_thread_rank(NO_RANK);
        });
    }
}
