//! `lio-trace`: lock-light per-rank event tracing with causal merging,
//! Chrome/Perfetto export, and collective critical-path analysis.
//!
//! Each rank owns a fixed-capacity ring buffer of [`Event`]s guarded by
//! its own mutex — ranks never contend with each other, and within a
//! rank the only contenders are its own short-lived worker threads
//! (storage lanes), so the lock is effectively uncontended.
//! The disabled hot path is one relaxed atomic load ([`enabled`]), the
//! enabled hot path is clock read + ring store: no allocation after the
//! buffer's one-time reservation.
//!
//! Cross-rank causality rides on the per-channel message sequence
//! numbers `lio-mpi` already maintains for duplicate suppression: every
//! send and every accepted receive records `(peer, seq, bytes)`, and
//! [`merge`] stitches the per-rank streams into one timeline whose
//! send→recv edges are checked (and exported as Perfetto flow events).
//!
//! This module is the event source of the layers that read events: it
//! keeps the thread's rank ([`set_thread_rank`], [`adopt`]) and the one
//! tag table ([`phase_of`]). Each rank's ring also keeps the rank's
//! heartbeat as it pushes an event ([`crate::health`] reads it): the open
//! collective root's op id and direction, and the phase and time of the
//! newest event that beats. With the metrics armed, a span is also what
//! charges the two-phase breakdown (`PHASE_NS`).
//!
//! Enable with [`set_enabled`], or as `trace` (or `health`, its other
//! name) in the one [`crate::Layers`] switch (`LIO_OBS=trace`,
//! `Hints::observe`).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::health::{self, Beat};
use crate::{Layers, LazyCounter, MAX_RANKS, NO_RANK};

/// Default per-rank ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Events shown per rank by the flight recorder.
pub const FLIGHT_EVENTS: usize = 32;

// ---------------------------------------------------------------------------
// Enable flag + clock
// ---------------------------------------------------------------------------

/// Is tracing currently recording? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    crate::armed().contains(Layers::TRACE)
}

/// Turn tracing on or off globally.
pub fn set_enabled(on: bool) {
    crate::arm_layers(Layers::TRACE, on);
}

/// Nanoseconds since the process-wide trace epoch, its first reading.
/// All ranks are threads of one process, so one monotonic clock is
/// globally comparable.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A span opened; `span_id` identifies it, `parent` its enclosing span.
    SpanBegin,
    /// The matching close; carries the span's final payload.
    SpanEnd,
    /// A message left this rank: `a` = destination, `b` = channel seq,
    /// `c` = bytes.
    Send,
    /// A message was accepted: `a` = source, `b` = channel seq, `c` = bytes.
    Recv,
    /// An instant annotation (e.g. a retry).
    Mark,
}

/// One fixed-size trace record. `a`/`b`/`c` are tag-specific payload
/// words (see [`arg_names`] for how the exporter labels them).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub ts: u64,
    pub span_id: u64,
    pub parent: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
    pub kind: Kind,
    pub rank: u32,
    /// Export track: the rank's main thread uses `tid == rank`; adopted
    /// worker threads (lanes) get unique tids past [`MAX_RANKS`].
    pub tid: u32,
    pub tag: &'static str,
}

// ---------------------------------------------------------------------------
// Per-rank ring buffers
// ---------------------------------------------------------------------------

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

struct Ring {
    /// Total events ever pushed; `next - buf.len()` were dropped.
    next: u64,
    buf: Vec<Event>,
    /// The rank's heartbeat, once an event beat; it outlives the events.
    beat: Option<Beat>,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            next: 0,
            buf: Vec::new(),
            beat: None,
        }
    }

    /// Push `ev`; the new heartbeat when it beats.
    fn push(&mut self, ev: Event) -> Option<Beat> {
        let cap = CAPACITY.load(Relaxed).max(1);
        if self.buf.len() < cap {
            if self.buf.is_empty() {
                self.buf.reserve_exact(cap);
            }
            self.buf.push(ev);
        } else {
            // full: overwrite the oldest slot
            self.buf[(self.next % cap as u64) as usize] = ev;
        }
        let beat = Beat::after(self.beat, &ev, self.next);
        self.beat = beat.or(self.beat);
        self.next += 1;
        beat
    }
}

static BUFS: [Mutex<Ring>; MAX_RANKS] = [const { Mutex::new(Ring::new()) }; MAX_RANKS];

/// Push `ev` into its rank's ring, and hand a heartbeat it makes to the
/// stall plan once the ring's lock is released.
#[inline]
fn push(ev: Event) {
    let Some(ring) = BUFS.get(ev.rank as usize) else {
        return;
    };
    let beat = ring.lock().unwrap().push(ev);
    if let Some(beat) = beat {
        health::beaten(ev.rank, beat);
    }
}

/// `rank`'s heartbeat, if one of its events ever beat, and, when
/// `with_events`, a copy of the events its ring still holds from its last
/// root's begin on, oldest first (else none).
pub(crate) fn heartbeat(rank: u32, with_events: bool) -> Option<(Beat, Vec<Event>)> {
    let ring = BUFS.get(rank as usize)?.lock().unwrap();
    let beat = ring.beat?;
    let len = ring.buf.len() as u64;
    let from = match with_events {
        true => beat.root_at.max(ring.next - len),
        false => ring.next,
    };
    let held = (from..ring.next).map(|i| ring.buf[(i % len) as usize]);
    Some((beat, held.collect()))
}

/// Set the per-rank ring capacity (in events) and clear all buffers.
/// Intended for tests exercising wraparound; the default is
/// [`DEFAULT_CAPACITY`].
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Relaxed);
    reset();
}

/// Clear every ring buffer and restart span-id allocation.
pub fn reset() {
    for b in BUFS.iter() {
        let mut ring = b.lock().unwrap();
        ring.buf.clear();
        ring.next = 0;
        ring.beat = None;
    }
    NEXT_SPAN.store(1, Relaxed);
}

// ---------------------------------------------------------------------------
// Thread identity: rank, current parent span, export track
// ---------------------------------------------------------------------------

thread_local! {
    static RANK: Cell<u32> = const { Cell::new(NO_RANK) };
    static PARENT: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(NO_RANK) };
    static CHARGE: Cell<Charge> = const { Cell::new(None) };
}

/// A thread's place in a collective for the phase counters: the counters
/// of the root it lies in (`None` outside one), and whether one of its
/// spans charges a phase now — so that only the outermost one does.
type Charge = Option<(&'static [LazyCounter; 3], bool)>;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(MAX_RANKS as u32);

/// Declare the current thread to be rank `rank`'s main thread: its
/// events and heartbeats are that rank's. `World::run` calls this before
/// entering the rank closure.
pub fn set_thread_rank(rank: u32) {
    RANK.with(|r| r.set(rank));
    TID.with(|t| t.set(rank));
    PARENT.with(|p| p.set(0));
}

/// The rank the current thread records into, or [`NO_RANK`].
pub fn current_rank() -> u32 {
    RANK.with(|r| r.get())
}

/// A copyable capture of the current thread's rank, open span and
/// collective, for handing to spawned worker threads (storage lanes).
#[derive(Clone, Copy)]
pub struct ThreadHandle {
    rank: u32,
    parent: u64,
    root: Option<&'static [LazyCounter; 3]>,
}

/// Capture the current thread's rank, open span and collective for
/// [`adopt`] by a worker thread.
pub fn thread_handle() -> ThreadHandle {
    ThreadHandle {
        rank: current_rank(),
        parent: parent(),
        root: CHARGE.get().map(|(root, _)| root),
    }
}

/// Join the rank of the captured handle from a freshly spawned worker
/// thread: its heartbeats are that rank's, its events parent under the
/// span that was open at capture time, on a worker track of their own,
/// and its outermost phase spans charge the captured collective's
/// counters.
pub fn adopt(h: ThreadHandle) {
    RANK.with(|r| r.set(h.rank));
    PARENT.with(|p| p.set(h.parent));
    CHARGE.set(h.root.map(|root| (root, false)));
    if h.rank != NO_RANK {
        TID.with(|t| t.set(NEXT_TID.fetch_add(1, Relaxed)));
    }
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records a `SpanBegin` now and the matching `SpanEnd` on
/// drop, and charges its phase counter on drop when it is the outermost
/// span of a phase in a collective. Inert (zero further cost) when no
/// layer is armed.
pub struct Span {
    /// `(rank, id, enclosing span)` of a recording span; `None` inert.
    open: Option<(u32, u64, u64)>,
    /// The thread's [`Charge`] to put back, if this span changed it, and
    /// the counter it charges with its opening time.
    meter: Option<(Charge, Option<(&'static LazyCounter, u64)>)>,
    payload: (u64, u64, u64),
    tag: &'static str,
}

impl Span {
    /// Attach payload words to the closing event (e.g. bytes moved, the
    /// modelled device time of a throttled storage op).
    pub fn set_payload(&mut self, a: u64, b: u64, c: u64) {
        self.payload = (a, b, c);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let charges = self.meter.and_then(|(_, charges)| charges);
        let ts = (self.open.is_some() || charges.is_some()).then(now_ns);
        let ts = ts.unwrap_or(0);
        if let Some((rank, id, parent)) = self.open {
            PARENT.with(|p| p.set(parent));
            let at = (ts, id, parent);
            record(rank, Kind::SpanEnd, self.tag, at, self.payload);
        }
        if let Some((was, _)) = self.meter {
            CHARGE.set(was);
        }
        if let Some((counter, begin)) = charges {
            counter.add(ts - begin);
        }
    }
}

/// The one gate of every span, mark and message event, for the armed
/// layers `on`: the calling thread's rank when tracing records.
#[inline]
fn gate(on: Layers) -> Option<u32> {
    if !on.contains(Layers::TRACE) {
        return None;
    }
    Some(current_rank()).filter(|&rank| rank != NO_RANK)
}

/// Open `tag` in the thread's [`Charge`], the metrics armed: a root enters
/// its direction's counters, the outermost span of a phase in one
/// charges that phase's. Returns the charge before and the counter, or
/// `None` when the span changes nothing.
fn meter(tag: &str) -> Option<(Charge, Option<&'static LazyCounter>)> {
    let was = CHARGE.get();
    let (root, counter) = match (tag, was) {
        ("coll.write", _) => (&PHASE_NS[0], None),
        ("coll.read", _) => (&PHASE_NS[1], None),
        (_, Some((root, false))) => (root, Some(&root[charged(phase_of(tag).1?)])),
        _ => return None,
    };
    CHARGE.set(Some((root, counter.is_some())));
    Some((was, counter))
}

/// Push an event of the calling thread, stamped `at = (ts, span id,
/// enclosing span)`.
fn record(rank: u32, kind: Kind, tag: &'static str, at: (u64, u64, u64), abc: (u64, u64, u64)) {
    let ((ts, span_id, parent), (a, b, c)) = (at, abc);
    let tid = TID.with(|t| t.get());
    push(Event {
        ts,
        span_id,
        parent,
        a,
        b,
        c,
        kind,
        rank,
        tid,
        tag,
    });
}

/// The span the calling thread has open (0 for none).
fn parent() -> u64 {
    PARENT.with(|p| p.get())
}

/// Open a span named `tag` on the current thread.
#[inline]
pub fn span(tag: &'static str) -> Span {
    span_ab(tag, 0, 0)
}

/// Open a span with payload words on the opening event (e.g. a window
/// index and its byte count).
#[inline]
pub fn span_ab(tag: &'static str, a: u64, b: u64) -> Span {
    let mut span = Span {
        open: None,
        meter: None,
        payload: (0, 0, 0),
        tag,
    };
    let on = crate::armed();
    if on == Layers::NONE {
        return span;
    }
    // one clock reading serves the trace's `SpanBegin` and the charge
    let meter = on.contains(Layers::METRICS).then(|| meter(tag)).flatten();
    let rank = gate(on);
    let charges = meter.and_then(|(_, counter)| counter);
    let ts = (rank.is_some() || charges.is_some()).then(now_ns);
    let ts = ts.unwrap_or(0);
    span.open = rank.map(|rank| {
        let id = NEXT_SPAN.fetch_add(1, Relaxed);
        let parent = PARENT.with(|p| p.replace(id));
        record(rank, Kind::SpanBegin, tag, (ts, id, parent), (a, b, 0));
        (rank, id, parent)
    });
    span.meter = meter.map(|(was, counter)| (was, counter.map(|c| (c, ts))));
    span
}

/// Record an instant event.
#[inline]
pub fn mark(tag: &'static str, a: u64, b: u64) {
    if let Some(rank) = gate(crate::armed()) {
        record(rank, Kind::Mark, tag, (now_ns(), 0, parent()), (a, b, 0));
    }
}

/// Record a message leaving this rank for `peer` with the channel
/// sequence number `seq` (the dup-suppression counter `lio-mpi` already
/// maintains — it is the causal edge key).
#[inline]
pub fn msg_send(peer: u32, seq: u64, bytes: u64) {
    msg_event(Kind::Send, "msg.send", peer, seq, bytes);
}

/// Record a message from `peer` being accepted on this rank.
#[inline]
pub fn msg_recv(peer: u32, seq: u64, bytes: u64) {
    msg_event(Kind::Recv, "msg.recv", peer, seq, bytes);
}

#[inline]
fn msg_event(kind: Kind, tag: &'static str, peer: u32, seq: u64, bytes: u64) {
    if let Some(rank) = gate(crate::armed()) {
        let abc = (peer as u64, seq, bytes);
        record(rank, kind, tag, (now_ns(), 0, parent()), abc);
    }
}

// ---------------------------------------------------------------------------
// Collection + causal merge
// ---------------------------------------------------------------------------

/// One rank's drained ring, oldest event first.
#[derive(Clone, Debug)]
pub struct RankStream {
    pub rank: u32,
    /// Events lost to wraparound (oldest-first).
    pub dropped: u64,
    pub events: Vec<Event>,
}

/// Drain a copy of every non-empty rank buffer, oldest event first.
/// The buffers themselves are left intact (call [`reset`] to clear).
pub fn collect() -> Vec<RankStream> {
    let mut out = Vec::new();
    for (r, b) in BUFS.iter().enumerate() {
        let ring = b.lock().unwrap();
        if ring.next == 0 {
            continue;
        }
        let n = ring.buf.len();
        let mut events = Vec::with_capacity(n);
        if ring.next as usize <= n {
            events.extend_from_slice(&ring.buf[..ring.next as usize]);
        } else {
            // wrapped: oldest surviving event sits at next % len
            let start = (ring.next % n as u64) as usize;
            events.extend_from_slice(&ring.buf[start..]);
            events.extend_from_slice(&ring.buf[..start]);
        }
        out.push(RankStream {
            rank: r as u32,
            dropped: ring.next.saturating_sub(n as u64),
            events,
        });
    }
    out
}

/// A matched send→recv pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct Edge {
    pub src_rank: u32,
    pub dst_rank: u32,
    pub src_tid: u32,
    pub dst_tid: u32,
    pub seq: u64,
    pub bytes: u64,
    pub send_ts: u64,
    pub recv_ts: u64,
}

/// All ranks' events stitched into one timeline.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Every event, sorted by timestamp (stable: per-rank order kept).
    pub events: Vec<Event>,
    /// Matched cross-rank send→recv edges.
    pub edges: Vec<Edge>,
    /// Total events lost to ring wraparound across all ranks.
    pub dropped: u64,
    /// Sends whose matching receive never appeared (in flight at
    /// collection, or its record was dropped).
    pub unmatched_sends: u64,
    /// Receives whose matching send record was dropped.
    pub unmatched_recvs: u64,
    /// Matched edges where the receive timestamp precedes the send —
    /// impossible under one monotonic clock, so nonzero means a
    /// corrupted stream.
    pub causal_violations: u64,
}

/// Merge per-rank streams into one causally-ordered timeline: sort by
/// the shared monotonic clock, then match sends to receives on the
/// `(src, dst, seq)` channel key and verify each edge points forward
/// in time.
pub fn merge(streams: &[RankStream]) -> Timeline {
    let mut events: Vec<Event> = streams
        .iter()
        .flat_map(|s| s.events.iter().copied())
        .collect();
    events.sort_by_key(|e| e.ts);
    let mut sends: HashMap<(u32, u32, u64), (u64, u32)> = HashMap::new();
    let mut t = Timeline {
        dropped: streams.iter().map(|s| s.dropped).sum(),
        ..Timeline::default()
    };
    for ev in &events {
        match ev.kind {
            Kind::Send => {
                sends.insert((ev.rank, ev.a as u32, ev.b), (ev.ts, ev.tid));
            }
            Kind::Recv => {
                let key = (ev.a as u32, ev.rank, ev.b);
                if let Some((send_ts, src_tid)) = sends.remove(&key) {
                    if ev.ts < send_ts {
                        t.causal_violations += 1;
                    }
                    t.edges.push(Edge {
                        src_rank: ev.a as u32,
                        dst_rank: ev.rank,
                        src_tid,
                        dst_tid: ev.tid,
                        seq: ev.b,
                        bytes: ev.c,
                        send_ts,
                        recv_ts: ev.ts,
                    });
                } else {
                    t.unmatched_recvs += 1;
                }
            }
            _ => {}
        }
    }
    t.unmatched_sends = sends.len() as u64;
    t.events = events;
    t
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto export
// ---------------------------------------------------------------------------

/// Human-meaningful names for the `a`/`b`/`c` payload words of a tag.
fn arg_names(tag: &str) -> (&'static str, &'static str, &'static str) {
    match tag {
        "msg.send" | "msg.recv" => ("peer", "seq", "bytes"),
        "pfs.read" | "pfs.write" => ("bytes", "modelled_ns", "spin_ns"),
        "pfs.retry" => ("attempt", "backoff_ns", "c"),
        "win" => ("window", "bytes", "c"),
        "coll.read" | "coll.write" => ("bytes", "op", "c"),
        "exch.arrive" => ("src", "b", "c"),
        "io.read" | "io.write" | "pack.place" => ("window", "bytes", "c"),
        _ => ("a", "b", "c"),
    }
}

fn push_args(out: &mut String, tag: &str, a: u64, b: u64, c: u64, span_id: u64) {
    let (an, bn, cn) = arg_names(tag);
    out.push_str("\"args\":{");
    let mut first = true;
    let mut field = |out: &mut String, name: &str, v: u64| {
        if v != 0 {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{v}"));
        }
    };
    field(out, an, a);
    field(out, bn, b);
    field(out, cn, c);
    field(out, "span", span_id);
    out.push('}');
}

fn ts_us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Serialize a merged timeline to Chrome Trace Event JSON — loadable in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`. Spans become
/// `B`/`E` pairs on one track per thread, matched messages become flow
/// arrows from the sending to the receiving rank.
pub fn to_chrome_json(t: &Timeline) -> String {
    let mut out = String::with_capacity(t.events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"listless-io\"}}",
    );
    // name every track that appears
    let mut tids: Vec<(u32, u32)> = t.events.iter().map(|e| (e.tid, e.rank)).collect();
    tids.sort_unstable();
    tids.dedup();
    for (tid, rank) in &tids {
        let name = if tid == rank {
            format!("rank {rank}")
        } else {
            format!("rank {rank} worker t{tid}")
        };
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"
        ));
    }
    for ev in &t.events {
        let ph = match ev.kind {
            Kind::SpanBegin => "B",
            Kind::SpanEnd => "E",
            Kind::Send | Kind::Recv | Kind::Mark => "i",
        };
        out.push_str(",\n{");
        out.push_str(&format!(
            "\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{}",
            ev.tag,
            ev.tid,
            ts_us(ev.ts)
        ));
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push(',');
        push_args(&mut out, ev.tag, ev.a, ev.b, ev.c, ev.span_id);
        out.push('}');
    }
    for (i, e) in t.edges.iter().enumerate() {
        out.push_str(&format!(
            ",\n{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{i},\"pid\":0,\"tid\":{},\"ts\":{}}}",
            e.src_tid,
            ts_us(e.send_ts)
        ));
        out.push_str(&format!(
            ",\n{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{i},\"pid\":0,\"tid\":{},\"ts\":{}}}",
            e.dst_tid,
            ts_us(e.recv_ts)
        ));
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Critical-path analysis
// ---------------------------------------------------------------------------

/// The phases of a two-phase collective (exchange, file access, pack)
/// and the waits and plan around them. A heartbeat names the phase its
/// rank last made progress in; the critical path charges time to three
/// of them. `ExchangeWait` and `Barrier` are *wait* phases: a rank parked
/// there is a victim of someone else's stall, not the culprit — the
/// health watchdog attributes hangs with this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// No collective in flight.
    #[default]
    Idle,
    /// Building the access plan / flattening the view.
    Plan,
    /// Actively sending or receiving exchange data.
    Exchange,
    /// Blocked waiting for exchange messages to arrive.
    ExchangeWait,
    /// Storage access (read/write/flush), including the write-behind lane.
    Io,
    /// Datatype pack/unpack.
    Pack,
    /// Closing synchronization.
    Barrier,
}

impl Phase {
    /// Stable lower-case name, used in diagnoses, reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Plan => "plan",
            Phase::Exchange => "exchange",
            Phase::ExchangeWait => "exchange.wait",
            Phase::Io => "io",
            Phase::Pack => "pack",
            Phase::Barrier => "barrier",
        }
    }

    /// Is a rank parked in this phase waiting on *other* ranks?
    pub fn is_wait(self) -> bool {
        matches!(self, Phase::ExchangeWait | Phase::Barrier)
    }
}

/// The one tag table: for each tag the library opens (spans, marks,
/// message events), the phase an event of it beats as (`Idle`: none) and
/// the phase its time goes to, on the critical path and in the phase
/// counters. They differ where the time is another span's: `win` wraps
/// its `io.*` and `pack.place` children, so it beats as `Io` but adds
/// nothing to `io_ns`; a collective's closing `mpi.barrier` lies inside
/// `exch.barrier`. The allgather of the file domains, `exch.domains`,
/// beats as the plan it builds and is charged to the exchange.
pub fn phase_of(tag: &str) -> (Phase, Option<Phase>) {
    use Phase::*;
    match tag {
        "exch.domains" => (Plan, Some(Exchange)),
        "exch.send" => (Exchange, Some(Exchange)),
        "msg.recv" => (Exchange, None),
        "exch.wait" | "mpi.wait" => (ExchangeWait, Some(Exchange)),
        "exch.barrier" => (Barrier, Some(Exchange)),
        "mpi.barrier" => (Barrier, None),
        "win" => (Io, None),
        "io.read" | "io.write" | "pfs.read" | "pfs.write" | "pfs.retry" => (Io, Some(Io)),
        "pack" | "unpack" | "pack.place" => (Pack, Some(Pack)),
        _ => (Idle, None),
    }
}

/// Per-collective-op verdict from [`critical_path`].
#[derive(Clone, Debug)]
pub struct OpReport {
    pub index: usize,
    /// `coll.write` or `coll.read`.
    pub tag: &'static str,
    /// Slowest rank's wall time for this op.
    pub wall_ns: u64,
    /// The rank that bounded the op.
    pub bound_rank: u32,
    /// Interval-union time the bounding rank spent in each phase.
    pub exchange_ns: u64,
    pub io_ns: u64,
    pub pack_ns: u64,
    /// The phase with the largest share on the bounding rank.
    pub bounding: Phase,
}

static CRITICAL_NS: [LazyCounter; 3] = [
    LazyCounter::new("core.coll.critical.exchange_ns"),
    LazyCounter::new("core.coll.critical.io_ns"),
    LazyCounter::new("core.coll.critical.pack_ns"),
];

/// The two-phase breakdown, writes first: the wall time of the outermost
/// span of each phase ([`charged`]) under a `coll.write`/`coll.read` root,
/// on every thread of the op, lanes included. Only a [`Span`] adds to it.
static PHASE_NS: [[LazyCounter; 3]; 2] = [
    [
        LazyCounter::new("core.coll.write.exchange_ns"),
        LazyCounter::new("core.coll.write.io_ns"),
        LazyCounter::new("core.coll.write.pack_ns"),
    ],
    [
        LazyCounter::new("core.coll.read.exchange_ns"),
        LazyCounter::new("core.coll.read.io_ns"),
        LazyCounter::new("core.coll.read.pack_ns"),
    ],
];

/// Where a phase's counter lies in a row of `PHASE_NS` and in
/// `CRITICAL_NS`.
fn charged(phase: Phase) -> usize {
    match phase {
        Phase::Exchange => 0,
        Phase::Io => 1,
        _ => 2,
    }
}

/// Sum of a set of possibly-overlapping intervals, clipped to a window:
/// nested same-phase spans (a `pfs.write` inside an `io.write` lane op)
/// must not double-count.
fn union_ns(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Walk the merged timeline and report, per collective op, which rank
/// bounded the wall time and how that rank's time divides into
/// exchange / storage / pack. Root spans are the `coll.write` /
/// `coll.read` spans every collective opens; the k-th root on each rank
/// is the k-th collective (collectives are, by construction, entered by
/// all ranks in the same order). Also accumulates the bounding rank's
/// phase times into `core.coll.critical.{exchange,io,pack}_ns`.
pub fn critical_path(t: &Timeline) -> Vec<OpReport> {
    // pair spans: id -> (begin event index, end ts)
    let mut begin: HashMap<u64, usize> = HashMap::new();
    let mut spans: Vec<(usize, u64)> = Vec::new(); // (begin idx, end ts)
    for (i, ev) in t.events.iter().enumerate() {
        match ev.kind {
            Kind::SpanBegin => {
                begin.insert(ev.span_id, i);
            }
            Kind::SpanEnd => {
                if let Some(b) = begin.remove(&ev.span_id) {
                    spans.push((b, ev.ts));
                }
            }
            _ => {}
        }
    }
    // per-rank root spans, in time order (events are ts-sorted already)
    let mut roots: HashMap<u32, Vec<(usize, u64)>> = HashMap::new();
    for &(b, end) in &spans {
        let ev = &t.events[b];
        if ev.tag == "coll.write" || ev.tag == "coll.read" {
            roots.entry(ev.rank).or_default().push((b, end));
        }
    }
    let nops = roots.values().map(|v| v.len()).max().unwrap_or(0);
    let mut reports = Vec::with_capacity(nops);
    for k in 0..nops {
        // slowest rank bounds the op
        let mut bound: Option<(u32, usize, u64, u64)> = None; // rank, begin idx, end, dur
        for (&rank, list) in &roots {
            if let Some(&(b, end)) = list.get(k) {
                let dur = end.saturating_sub(t.events[b].ts);
                if bound.is_none() || dur > bound.unwrap().3 {
                    bound = Some((rank, b, end, dur));
                }
            }
        }
        let Some((rank, b, end, dur)) = bound else {
            continue;
        };
        let (lo, hi) = (t.events[b].ts, end);
        let mut phases: [Vec<(u64, u64)>; 3] = Default::default();
        for &(sb, send) in &spans {
            let ev = &t.events[sb];
            if ev.rank != rank || sb == b {
                continue;
            }
            if ev.ts >= hi || send <= lo {
                continue;
            }
            if let Some(phase) = phase_of(ev.tag).1 {
                phases[charged(phase)].push((ev.ts, send));
            }
        }
        let [exch, io, pack] = phases.map(|iv| union_ns(iv, lo, hi));
        let bounding = if exch >= io && exch >= pack {
            Phase::Exchange
        } else if io >= pack {
            Phase::Io
        } else {
            Phase::Pack
        };
        for (counter, ns) in CRITICAL_NS.iter().zip([exch, io, pack]) {
            counter.add(ns);
        }
        reports.push(OpReport {
            index: k,
            tag: t.events[b].tag,
            wall_ns: dur,
            bound_rank: rank,
            exchange_ns: exch,
            io_ns: io,
            pack_ns: pack,
            bounding,
        });
    }
    reports
}

/// Render [`critical_path`] output as a human-readable table.
pub fn render_report(reports: &[OpReport], tl: &Timeline) -> String {
    let mut out = String::new();
    out.push_str("critical path (slowest rank per collective op):\n");
    out.push_str(&format!(
        "{:>4} {:<11} {:>10} {:>5} {:>10} {:>10} {:>10}  {}\n",
        "op", "kind", "wall ms", "rank", "exch ms", "io ms", "pack ms", "bounding"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:>4} {:<11} {:>10.3} {:>5} {:>10.3} {:>10.3} {:>10.3}  {}\n",
            r.index,
            r.tag,
            r.wall_ns as f64 / 1e6,
            r.bound_rank,
            r.exchange_ns as f64 / 1e6,
            r.io_ns as f64 / 1e6,
            r.pack_ns as f64 / 1e6,
            r.bounding.name()
        ));
    }
    if reports.is_empty() {
        out.push_str("  (no collective root spans in trace)\n");
    }
    out.push_str(&format!(
        "trace health: dropped={} unmatched_sends={} unmatched_recvs={} causal_violations={}\n",
        tl.dropped, tl.unmatched_sends, tl.unmatched_recvs, tl.causal_violations
    ));
    if tl.dropped > 0 || tl.unmatched_sends > 0 || tl.unmatched_recvs > 0 {
        out.push_str(
            "  WARNING: trace is truncated or has unmatched messages — \
             phase attributions above may be incomplete\n",
        );
    }
    // Per-rank skew column, read from the exchanges' arrival marks: which
    // ranks closed collective exchanges (arrived last) and how much spread
    // they cost. Only present when the timeline holds such exchanges.
    let skews = health::rank_skews(tl);
    if !skews.is_empty() {
        out.push_str("rank skew (health): exchanges each rank arrived last in\n");
        out.push_str(&format!(
            "{:>4} {:>12} {:>14} {:>14}\n",
            "rank", "exch last", "total skew ms", "avg skew ms"
        ));
        for s in &skews {
            out.push_str(&format!(
                "{:>4} {:>12} {:>14.3} {:>14.3}\n",
                s.rank,
                s.exchanges_last,
                s.skew_ns as f64 / 1e6,
                s.skew_ns as f64 / s.exchanges_last as f64 / 1e6,
            ));
        }
        match health::straggler(tl) {
            Some(st) => out.push_str(&format!(
                "  straggler: rank {} ({} consecutive exchanges, last skew {:.3} ms)\n",
                st.rank,
                st.exchanges,
                st.skew_ns as f64 / 1e6
            )),
            None => out.push_str("  straggler: none flagged\n"),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

fn format_event(ev: &Event) -> String {
    format!(
        "[{:>14.3}us] t{:<3} {:<9} {:<16} id={} parent={} a={} b={} c={}",
        ev.ts as f64 / 1000.0,
        ev.tid,
        format!("{:?}", ev.kind),
        ev.tag,
        ev.span_id,
        ev.parent,
        ev.a,
        ev.b,
        ev.c
    )
}

/// Dump the last [`FLIGHT_EVENTS`] events of every rank to stderr,
/// with the fault-seed replay line when `LIO_FAULT_SEED` is set. Called
/// at collective abort sites; a no-op when tracing is disabled, and
/// suppressed after the first two dumps per process so a fault-corpus
/// run cannot flood the log.
pub fn flight_dump(reason: &str) {
    if !enabled() {
        return;
    }
    static DUMPS: AtomicU32 = AtomicU32::new(0);
    let n = DUMPS.fetch_add(1, Relaxed);
    if n >= 2 {
        if n == 2 {
            eprintln!("lio-trace: further flight-recorder dumps suppressed");
        }
        return;
    }
    let streams = collect();
    eprintln!("=== lio-trace flight recorder: {reason} ===");
    if let Ok(seed) = std::env::var("LIO_FAULT_SEED") {
        eprintln!(
            "replay: LIO_FAULT_SEED={seed} \
             cargo test -p lio-core --test collective --test pipeline --test faults"
        );
    }
    for s in &streams {
        let shown = s.events.len().min(FLIGHT_EVENTS);
        eprintln!(
            "-- rank {}: last {shown} of {} recorded events ({} dropped)",
            s.rank,
            s.events.len(),
            s.dropped
        );
        for ev in s.events.iter().skip(s.events.len() - shown) {
            eprintln!("   {}", format_event(ev));
        }
    }
    eprintln!("=== end flight recorder ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tag the library opens, with the phase its heartbeat names.
    const OPENED: [(&str, Phase); 19] = [
        ("coll.write", Phase::Idle),
        ("coll.read", Phase::Idle),
        ("exch.domains", Phase::Plan),
        ("exch.send", Phase::Exchange),
        ("msg.recv", Phase::Exchange),
        ("msg.send", Phase::Idle),
        ("exch.wait", Phase::ExchangeWait),
        ("mpi.wait", Phase::ExchangeWait),
        ("exch.barrier", Phase::Barrier),
        ("mpi.barrier", Phase::Barrier),
        ("win", Phase::Io),
        ("io.read", Phase::Io),
        ("io.write", Phase::Io),
        ("pfs.read", Phase::Io),
        ("pfs.write", Phase::Io),
        ("pfs.retry", Phase::Io),
        ("pack", Phase::Pack),
        ("unpack", Phase::Pack),
        ("pack.place", Phase::Pack),
    ];

    /// The critical path's categories as they stood before heartbeats
    /// shared its table: by tag prefix.
    fn category_by_prefix(tag: &str) -> Option<Phase> {
        if tag.starts_with("exch") || tag == "mpi.wait" {
            Some(Phase::Exchange)
        } else if tag.starts_with("io.") || tag.starts_with("pfs.") {
            Some(Phase::Io)
        } else if tag.starts_with("pack") || tag.starts_with("unpack") || tag.starts_with("dt.") {
            Some(Phase::Pack)
        } else {
            None
        }
    }

    #[test]
    fn one_tag_table() {
        for (tag, beat) in OPENED {
            let (phase, critical) = phase_of(tag);
            assert_eq!(phase, beat, "{tag} heartbeats as the beat it replaced");
            assert_eq!(
                critical,
                category_by_prefix(tag),
                "{tag} on the critical path"
            );
        }
        // a window heartbeats as io but its time is its children's
        assert_eq!(phase_of("win"), (Phase::Io, None));
        assert_eq!(phase_of("test.mark"), (Phase::Idle, None));
    }
}
