//! `lio-health`: runtime liveness, hang detection, and straggler
//! attribution for the listless-io stack.
//!
//! Two-phase collective I/O is synchronization-heavy by construction:
//! one wedged or slow rank stalls the whole world, and until now the
//! obs stack could only explain an op *after* it finished. This module
//! names the failure while it is happening. It records nothing of its
//! own: it is a view of each rank's [`crate::trace`] ring.
//!
//! * **Heartbeats** — a rank's heartbeat is the newest event of its ring
//!   that beats: a span begin, mark or message whose tag has a phase in
//!   the one tag table ([`phase_of`]), a message receipt only right after
//!   an exchange wait. A collective's `coll.write`/`coll.read` root,
//!   whose payload carries the op id `lio-core` numbers, beats as `plan`
//!   when it opens and as `idle` when it closes. The ring keeps its
//!   heartbeat (the open root's op id and direction, the newest beat's
//!   phase and time) as it pushes each event, so a reader (the watchdog,
//!   `SharedFile::health_report()`, `repro top`) takes one ring lock per
//!   rank, and the heartbeat survives the ring's wraparound. Window,
//!   bytes and beats are read from the events of the op the ring holds.
//! * **Watchdog** — a lazily-spawned thread reads the heartbeats and
//!   flags any in-flight op whose heartbeat is older than a deadline. It
//!   picks the *culprit* (a rank stuck in a non-wait phase beats a
//!   rank merely waiting on one), prints a diagnosis with the replay
//!   line, asks the flight recorder ([`crate::trace::flight_dump`])
//!   for the recent event history, and — when abort is configured —
//!   parks a typed [`StallInfo`] for the culprit rank that `lio-core`
//!   surfaces as `IoError::Stalled` once the closing sync is reached.
//!   It is configured in code only, by [`set_watchdog`].
//! * **Straggler attribution** — an IOP marks each AP's header as it
//!   arrives in a collective's exchange (`exch.arrive`, inside the
//!   `exch.wait` span). From the merged [`Timeline`], each exchange's
//!   first-to-last spread is charged to its last arriver
//!   ([`rank_skews`]), and a rank that arrives last [`STRAGGLER_K`]
//!   exchanges in a row with non-trivial skew is a straggler
//!   ([`straggler`]), named in the health report.
//! * **Live introspection** — [`live_snapshot`] and [`report`] render
//!   the heartbeats as structs / text / schema-versioned JSON.
//!
//! There is no layer of its own to arm: `health` in the one
//! [`crate::Layers`] switch (`LIO_OBS=health`, `Hints::observe`) names
//! the trace, which records the events, and a file opened with the trace
//! armed starts the watchdog.
//!
//! Hang injection for tests goes through [`set_stall_plan`]: a seeded
//! `Stall` fault (see `lio-testkit`) wedges a chosen rank right after it
//! records a heartbeat in a chosen phase, until the hold elapses *or* the
//! watchdog flags it — after release the rank completes the collective
//! protocol normally, so no peer is ever stranded before the closing sync.

use crate::trace::{self, now_ns, phase_of, Event, Kind, Phase, Timeline};
use crate::{LazyCounter, MAX_RANKS, NO_RANK};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// Consecutive last arrivals before a rank is flagged a straggler.
pub const STRAGGLER_K: u32 = 4;

/// Minimum first-to-last arrival spread for an exchange to count toward
/// a straggler streak — spreads below this are scheduler noise.
pub const STRAGGLER_MIN_SKEW_NS: u64 = 20_000;

// ---------------------------------------------------------------------------
// The heartbeat a ring keeps
// ---------------------------------------------------------------------------

/// A rank's heartbeat, which its trace ring updates as it pushes each
/// event ([`Beat::after`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Beat {
    /// The open root's op id; 0 = idle.
    op: u64,
    /// Is the open (or last) root a write?
    write: bool,
    /// Phase and time of the newest beat.
    phase: Phase,
    ts: u64,
    /// The push count of the last root's begin event.
    pub(crate) root_at: u64,
}

impl Beat {
    /// The heartbeat once `ev`, the ring's `at`-th event, is pushed after
    /// `prev`; `None` when `ev` does not beat.
    pub(crate) fn after(prev: Option<Beat>, ev: &Event, at: u64) -> Option<Beat> {
        let prev = prev.unwrap_or_default();
        let mut beat = Beat { ts: ev.ts, ..prev };
        match (ev.kind, ev.tag) {
            (Kind::SpanBegin, "coll.write" | "coll.read") => {
                let write = ev.tag == "coll.write";
                (beat.op, beat.write, beat.phase, beat.root_at) = (ev.b, write, Phase::Plan, at);
            }
            (Kind::SpanEnd, "coll.write" | "coll.read") => (beat.op, beat.phase) = (0, Phase::Idle),
            (Kind::SpanEnd, _) => return None,
            _ => beat.phase = beat_phase(prev.phase, ev.tag)?,
        }
        Some(beat)
    }
}

/// The phase an event of `tag` beats as after a beat in `prev`, if it
/// beats: its phase in the one table ([`phase_of`]). A message receipt
/// beats only out of an exchange wait: in a barrier's rounds or a plan's
/// allgather the rank is still waiting on whoever is late.
fn beat_phase(prev: Phase, tag: &str) -> Option<Phase> {
    let phase = phase_of(tag).0;
    let stray_receipt = tag == "msg.recv" && prev != Phase::ExchangeWait;
    (phase != Phase::Idle && !stray_receipt).then_some(phase)
}

/// The last window index, the bytes moved and the beats of the op whose
/// events since its root are `events`: a `win` span's window index and
/// bytes, an `exch.send`'s bytes.
fn progress(events: &[Event]) -> (u64, u64, u64) {
    let (mut beat, mut window, mut bytes, mut beats) = (None, 0, 0, 0);
    for ev in events {
        let Some(next) = Beat::after(beat, ev, 0) else {
            continue;
        };
        if ev.kind == Kind::SpanEnd {
            break;
        }
        beat = Some(next);
        beats += 1;
        if ev.tag == "win" {
            window = ev.a;
        }
        if ev.tag == "win" || ev.tag == "exch.send" {
            bytes += ev.b;
        }
    }
    (window, bytes, beats)
}

// ---------------------------------------------------------------------------
// Instruments (the watchdog's own aggregates; the raw atomics stay
// readable even when the metrics are disarmed)
// ---------------------------------------------------------------------------

static OBS_WD_FIRED: LazyCounter = LazyCounter::new("core.health.watchdog.fired");
static OBS_STALL_ABORTS: LazyCounter = LazyCounter::new("core.health.stalls.aborted");

static WD_CHECKS_RAW: AtomicU64 = AtomicU64::new(0);
static WD_FIRED_RAW: AtomicU64 = AtomicU64::new(0);
static STALL_ABORTS_RAW: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Seeded stall injection (the testkit `Stall` fault kind lands here)
// ---------------------------------------------------------------------------

/// A deterministic hang: `rank` wedges right after its next heartbeat in
/// `phase` and stays wedged for `hold` — or until the watchdog flags it,
/// whichever comes first. After release the rank resumes the protocol
/// normally, so peers always reach the closing sync.
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

/// `rank`'s ring holds its new heartbeat `beat`; the trace calls this
/// with no ring lock held. One relaxed load unless a stall plan is armed.
pub(crate) fn beaten(rank: u32, beat: Beat) {
    if !STALL_ARMED.load(Relaxed) {
        return;
    }
    let hold = {
        let mut st = STALL.lock().unwrap();
        match *st {
            Some(spec) if spec.rank == rank && spec.phase == beat.phase => {
                *st = None;
                STALL_ARMED.store(false, Relaxed);
                spec.hold
            }
            _ => return,
        }
    };
    let released_at = Instant::now() + hold;
    // Wedge: no heartbeats, no progress. Release on hold expiry or on
    // the watchdog flagging this op (so aborts never wait out the hold).
    while Instant::now() < released_at {
        if beat.op != 0 && flagged(rank, beat.op) {
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
/// `File::open` when the trace is armed; repeated calls are free. The
/// thread idles (cheaply) while the trace is disarmed.
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
        if !trace::enabled() {
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
    // Collect overdue in-flight ops not yet flagged, and whether a rank
    // not yet flagged is at work (in a non-wait phase), overdue or not.
    let mut culprit: Option<(u32, u64, Phase, u64)> = None; // (rank, age, phase, op)
    let mut working = false;
    for rank in 0..MAX_RANKS as u32 {
        let Some((b, _)) = trace::heartbeat(rank, false) else {
            continue;
        };
        if b.op == 0 || flagged(rank, b.op) {
            continue;
        }
        working |= !b.phase.is_wait();
        let age = now.saturating_sub(b.ts);
        if age < deadline_ns {
            continue;
        }
        // A rank stuck in a non-wait phase outranks any waiter (the
        // waiters are its victims); among equals the oldest beat wins.
        let better = match culprit {
            None => true,
            Some((_, best_age, best_phase, _)) => {
                (!b.phase.is_wait() && best_phase.is_wait())
                    || (b.phase.is_wait() == best_phase.is_wait() && age > best_age)
            }
        };
        if better {
            culprit = Some((rank, age, b.phase, b.op));
        }
    }
    // Nor is a waiter named while a rank is still at work: it may have
    // begun to wait before that rank's last beat, and so be overdue first.
    let named = culprit.filter(|&(_, _, phase, _)| !phase.is_wait() || !working);
    let Some((rank, age, phase, op)) = named else {
        return;
    };
    let events = trace::heartbeat(rank, true).map(|(_, events)| events);
    let (window, bytes, _) = progress(&events.unwrap_or_default());
    let info = StallInfo {
        rank,
        phase: phase.name(),
        op,
        window,
        bytes,
        stalled_ms: age / 1_000_000,
    };
    let abort = WD_ABORT.load(Relaxed);
    {
        let mut stalls = STALLS.lock().unwrap();
        stalls.retain(|(s, _)| s.rank != rank);
        stalls.push((info.clone(), abort));
    }
    WD_FIRED_RAW.fetch_add(1, Relaxed);
    OBS_WD_FIRED.incr();
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

/// The watchdog's verdicts, the latest per rank (one diagnosis per op),
/// each with whether it is parked for the rank's [`take_stall`].
static STALLS: Mutex<Vec<(StallInfo, bool)>> = Mutex::new(Vec::new());

/// Has the watchdog flagged `rank`'s op `op`?
fn flagged(rank: u32, op: u64) -> bool {
    let stalls = STALLS.lock().unwrap();
    stalls.iter().any(|(s, _)| s.rank == rank && s.op == op)
}

/// Take the parked stall for `rank`, if the watchdog aborted its op.
/// `lio-core` calls this after the engine returns (i.e. after the
/// closing sync — no peer is stranded) and converts it to
/// `IoError::Stalled`. One relaxed load while the trace is disarmed.
pub fn take_stall(rank: u32) -> Option<StallInfo> {
    if !trace::enabled() {
        return None;
    }
    let mut stalls = STALLS.lock().unwrap();
    let (info, parked) = stalls
        .iter_mut()
        .find(|(s, parked)| s.rank == rank && *parked)?;
    *parked = false;
    Some(info.clone())
}

// ---------------------------------------------------------------------------
// Rank skew and straggler attribution, read from the merged timeline
// ---------------------------------------------------------------------------

/// Every exchange of `t` that collected two or more arrivals, in the
/// order the exchanges ended: its last arriver and its first-to-last
/// arrival spread. An exchange is an `exch.wait` span, its arrivals the
/// `exch.arrive` marks inside it (payload: the arriving rank).
fn exchanges(t: &Timeline) -> Vec<(u32, u64)> {
    // per open `exch.wait`: (first arrival, last arrival, last rank, count)
    let mut open: HashMap<u64, (u64, u64, u32, u32)> = HashMap::new();
    let mut out = Vec::new();
    for ev in &t.events {
        match (ev.kind, ev.tag) {
            (Kind::SpanBegin, "exch.wait") => {
                open.insert(ev.span_id, (0, 0, NO_RANK, 0));
            }
            (Kind::Mark, "exch.arrive") => {
                if let Some((first, last, rank, n)) = open.get_mut(&ev.parent) {
                    if *n == 0 {
                        *first = ev.ts;
                    }
                    (*last, *rank, *n) = (ev.ts, ev.a as u32, *n + 1);
                }
            }
            (Kind::SpanEnd, "exch.wait") => match open.remove(&ev.span_id) {
                Some((first, last, rank, n)) if n >= 2 => out.push((rank, last - first)),
                _ => {}
            },
            _ => {}
        }
    }
    out
}

/// A rank persistently arriving last with non-trivial skew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerInfo {
    /// The under-performing rank.
    pub rank: u32,
    /// Consecutive exchanges it arrived last in.
    pub exchanges: u32,
    /// The most recent exchange's first-to-last arrival spread.
    pub skew_ns: u64,
}

/// The straggler streak over `t`'s exchanges, in the order they ended:
/// the rank that arrived last in the newest run of exchanges whose spread
/// was at least [`STRAGGLER_MIN_SKEW_NS`] (a tighter one breaks the run),
/// named once the run is [`STRAGGLER_K`] long; and how many runs reached
/// that length.
fn streak(t: &Timeline) -> (Option<StragglerInfo>, u64) {
    let (mut rank, mut run, mut last_skew, mut flags) = (NO_RANK, 0, 0, 0);
    for (last, skew) in exchanges(t) {
        last_skew = skew;
        if skew < STRAGGLER_MIN_SKEW_NS {
            run = 0;
            continue;
        }
        run = if last == rank { run + 1 } else { 1 };
        rank = last;
        if run == STRAGGLER_K {
            flags += 1;
        }
    }
    let info = StragglerInfo {
        rank,
        exchanges: run,
        skew_ns: last_skew,
    };
    ((run >= STRAGGLER_K).then_some(info), flags)
}

/// The straggler of `t`, if a rank arrived last in the newest
/// [`STRAGGLER_K`] or more exchanges with skew above
/// [`STRAGGLER_MIN_SKEW_NS`]. Named in [`HealthReport::straggler`].
pub fn straggler(t: &Timeline) -> Option<StragglerInfo> {
    streak(t).0
}

/// One rank's cumulative last-arrival attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSkew {
    pub rank: u32,
    /// Exchanges this rank closed (arrived last in).
    pub exchanges_last: u64,
    /// Total first-to-last spread across those exchanges.
    pub skew_ns: u64,
}

/// Per-rank last-arrival totals over `t`'s exchanges, for every rank
/// that arrived last in at least one, in rank order. Rendered as the
/// per-rank skew column of the critical-path report.
pub fn rank_skews(t: &Timeline) -> Vec<RankSkew> {
    let mut per: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (rank, skew) in exchanges(t) {
        let (n, sum) = per.entry(rank).or_default();
        (*n, *sum) = (*n + 1, *sum + skew);
    }
    per.into_iter()
        .map(|(rank, (exchanges_last, skew_ns))| RankSkew {
            rank,
            exchanges_last,
            skew_ns,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Introspection: snapshots, reports, JSON
// ---------------------------------------------------------------------------

/// Point-in-time copy of one rank's heartbeat.
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

/// Read every rank's heartbeat. Ranks that never beat are skipped.
pub fn live_snapshot() -> Vec<RankHealth> {
    let now = now_ns();
    (0..MAX_RANKS as u32)
        .filter_map(|rank| Some((rank, trace::heartbeat(rank, true)?)))
        .map(|(rank, (b, events))| {
            let (window, bytes, beats) = progress(&events);
            RankHealth {
                rank,
                op: b.op,
                write: b.write,
                phase: b.phase.name(),
                window,
                bytes,
                beats,
                age_ms: now.saturating_sub(b.ts) / 1_000_000,
            }
        })
        .collect()
}

/// Schema version of [`HealthReport::to_json`] output.
pub const REPORT_SCHEMA: &str = "lio-health-v2";

/// A schema-versioned health status report: the live heartbeats plus the
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

/// Build a [`HealthReport`] from the heartbeats, the watchdog's
/// aggregates and the merged timeline of every rank's ring.
pub fn report() -> HealthReport {
    let (straggler, straggler_flags) = streak(&trace::merge(&trace::collect()));
    HealthReport {
        ranks: live_snapshot(),
        watchdog_checks: WD_CHECKS_RAW.load(Relaxed),
        watchdog_fired: WD_FIRED_RAW.load(Relaxed),
        stalls_aborted: STALL_ABORTS_RAW.load(Relaxed),
        straggler_flags,
        straggler,
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
                "{{\"rank\": {}, \"exchanges\": {}, \"skew_ns\": {}}}",
                s.rank, s.exchanges, s.skew_ns
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
            let rw = match (r.op, r.write) {
                (0, _) => "-",
                (_, true) => "w",
                (_, false) => "r",
            };
            out.push_str(&format!(
                "{:>4}  {:>4}  {:<2}  {:<13}  {:>7}  {:>12}  {:>8}  {:>7}\n",
                r.rank, r.op, rw, r.phase, r.window, r.bytes, r.beats, r.age_ms
            ));
        }
        out.push_str(&format!(
            "watchdog: {} checks, {} fired, {} aborted",
            self.watchdog_checks, self.watchdog_fired, self.stalls_aborted
        ));
        match &self.straggler {
            Some(s) => out.push_str(&format!(
                "; straggler: rank {} ({} exchanges, last skew {} ns)\n",
                s.rank, s.exchanges, s.skew_ns
            )),
            None => out.push_str("; straggler: none\n"),
        }
        out
    }
}

/// Clear the heartbeats (every trace ring: they are its events), the
/// watchdog's verdicts and aggregates and the stall plan (tests share
/// one process).
pub fn reset() {
    trace::reset();
    STALLS.lock().unwrap().clear();
    set_stall_plan(None);
    WD_CHECKS_RAW.store(0, Relaxed);
    WD_FIRED_RAW.store(0, Relaxed);
    STALL_ABORTS_RAW.store(0, Relaxed);
    WD_DIAGNOSES.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        adopt, current_rank, mark, msg_recv, set_thread_rank, span, span_ab, thread_handle,
    };

    /// Serialize access to the global trace and health state across
    /// tests (the trace's own unit tests record no rank's events).
    fn with_health<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap();
        reset();
        trace::set_enabled(true);
        let r = f();
        trace::set_enabled(false);
        reset();
        r
    }

    fn rank(r: u32) -> RankHealth {
        live_snapshot().into_iter().find(|h| h.rank == r).unwrap()
    }

    #[test]
    fn beats_publish_to_slots() {
        with_health(|| {
            set_thread_rank(3);
            let root = span_ab("coll.write", 0, 7);
            drop(span_ab("win", 5, 4096));
            drop(span_ab("exch.send", 1, 0));
            let r = rank(3);
            assert_eq!(r.op, 7);
            assert!(r.write);
            assert_eq!(r.phase, "exchange");
            assert_eq!(r.window, 5);
            assert_eq!(r.bytes, 4096);
            assert_eq!(r.beats, 3);
            // a tag with no phase publishes nothing
            mark("test.mark", 9, 9);
            assert_eq!(rank(3).beats, 3);
            drop(root);
            let r = rank(3);
            assert_eq!(r.op, 0);
            assert_eq!(r.phase, "idle");
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn a_receipt_ends_only_an_exchange_wait() {
        with_health(|| {
            set_thread_rank(5);
            let _root = span_ab("coll.read", 0, 2);
            let phase = || rank(5).phase;
            msg_recv(1, 1, 64); // the plan's allgather
            assert_eq!(phase(), "plan");
            drop(span("mpi.wait"));
            assert_eq!(phase(), "exchange.wait");
            msg_recv(1, 2, 64);
            assert_eq!(phase(), "exchange");
            drop(span("mpi.barrier"));
            msg_recv(1, 3, 0); // a barrier's round
            assert_eq!(phase(), "barrier");
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn disabled_beats_are_noops() {
        with_health(|| {
            trace::set_enabled(false);
            set_thread_rank(9);
            let _root = span_ab("coll.read", 0, 1);
            drop(span("io.write"));
            assert!(live_snapshot().iter().all(|r| r.rank != 9));
            trace::set_enabled(true);
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn watchdog_names_nonwait_culprit() {
        with_health(|| {
            set_watchdog(1, true);
            // Rank 0: wedged in io. Rank 1: waiting on it. Both overdue.
            set_thread_rank(0);
            let _r0 = span_ab("coll.write", 0, 42);
            drop(span("io.write"));
            set_thread_rank(1);
            let _r1 = span_ab("coll.write", 0, 42);
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

    /// A rank that began to wait before the culprit's last beat is overdue
    /// first, and is still not named while the culprit is at work.
    #[test]
    fn an_early_waiter_is_not_named_while_a_rank_works() {
        with_health(|| {
            set_watchdog(20, true);
            set_thread_rank(1);
            let _r1 = span_ab("coll.write", 0, 8);
            drop(span("mpi.barrier"));
            std::thread::sleep(Duration::from_millis(40));
            set_thread_rank(0);
            let _r0 = span_ab("coll.write", 0, 8);
            drop(span("io.write"));
            set_thread_rank(NO_RANK);
            check_once(20);
            assert!(take_stall(1).is_none(), "rank 0 is still at work");
            std::thread::sleep(Duration::from_millis(25));
            check_once(20);
            assert_eq!(take_stall(0).map(|s| s.phase), Some("io"));
        });
    }

    #[test]
    fn fresh_beats_hold_off_watchdog() {
        with_health(|| {
            set_watchdog(10_000, true);
            set_thread_rank(2);
            let _root = span_ab("coll.read", 0, 5);
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
            let _root = span_ab("coll.write", 0, 1);
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

    /// One exchange on the calling rank: `first` arrives, then, `gap`
    /// later, `last`.
    fn exchange(first: u32, gap: Duration, last: u32) {
        let _wait = span("exch.wait");
        mark("exch.arrive", first as u64, 0);
        std::thread::sleep(gap);
        mark("exch.arrive", last as u64, 0);
    }

    fn timeline() -> Timeline {
        trace::merge(&trace::collect())
    }

    #[test]
    fn skew_streak_flags_straggler() {
        with_health(|| {
            set_thread_rank(0);
            assert!(straggler(&timeline()).is_none());
            for _ in 0..STRAGGLER_K {
                // rank 1 always arrives last, with a forced gap.
                exchange(0, Duration::from_micros(60), 1);
            }
            let s = straggler(&timeline()).expect("persistent last-arriver flagged");
            assert_eq!(s.rank, 1);
            assert!(s.exchanges >= STRAGGLER_K);
            assert!(s.skew_ns >= STRAGGLER_MIN_SKEW_NS);
            assert_eq!(report().straggler_flags, 1);
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn alternating_last_arrivers_never_flag() {
        with_health(|| {
            set_thread_rank(0);
            for w in 0..(3 * STRAGGLER_K) {
                exchange(0, Duration::from_micros(40), 1 + w % 2); // alternate 1, 2
            }
            assert!(straggler(&timeline()).is_none());
            set_thread_rank(NO_RANK);
        });
    }

    #[test]
    fn report_json_is_valid() {
        with_health(|| {
            set_thread_rank(0);
            let _root = span_ab("coll.write", 0, 9);
            drop(span_ab("pack", 128, 0));
            let rep = report();
            let json = rep.to_json();
            crate::json::validate(&json).expect("health report JSON parses");
            assert!(json.contains(REPORT_SCHEMA));
            assert!(json.contains("\"phase\": \"pack\""));
            let text = rep.render();
            assert!(text.contains("pack"));
            assert!(text.contains("watchdog:"));
            set_thread_rank(NO_RANK);
        });
    }

    /// A write-behind lane adopts its rank's identity, so its `io.write`
    /// spans beat in the rank's ring.
    #[test]
    fn worker_adoption_carries_rank() {
        with_health(|| {
            set_thread_rank(6);
            let _root = span_ab("coll.read", 0, 3);
            let h = thread_handle();
            std::thread::scope(|s| {
                s.spawn(move || {
                    adopt(h);
                    assert_eq!(current_rank(), 6);
                    drop(span_ab("io.write", 0, 512));
                });
            });
            let r = rank(6);
            assert_eq!((r.phase, r.beats), ("io", 2));
            set_thread_rank(NO_RANK);
        });
    }
}
