//! No-op stand-in for [`crate::trace`] when `lio-obs` is built without
//! the default `trace` feature: the same public surface, every call a
//! compile-time no-op, so instrumentation sites need no cfg of their own.

pub const MAX_RANKS: usize = 64;
pub const NO_RANK: u32 = u32::MAX;
pub const DEFAULT_CAPACITY: usize = 1 << 16;
pub const FLIGHT_EVENTS: usize = 32;

#[inline(always)]
pub fn enabled() -> bool {
    false
}

pub fn set_enabled(_on: bool) {}

pub fn init_from_env() {}

#[inline]
pub fn now_ns() -> u64 {
    0
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SpanBegin,
    SpanEnd,
    Send,
    Recv,
    Mark,
}

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
    pub tid: u32,
    pub tag: &'static str,
}

pub fn set_capacity(_cap: usize) {}

pub fn reset() {}

pub fn set_thread_rank(_rank: u32) {}

pub fn current_rank() -> u32 {
    NO_RANK
}

#[derive(Clone, Copy, Debug)]
pub struct ThreadHandle;

pub fn thread_handle() -> ThreadHandle {
    ThreadHandle
}

pub fn adopt(_h: ThreadHandle) {}

pub struct Span;

impl Span {
    pub fn id(&self) -> u64 {
        0
    }

    pub fn is_active(&self) -> bool {
        false
    }

    pub fn set_payload(&mut self, _a: u64, _b: u64, _c: u64) {}
}

#[inline(always)]
pub fn span(_tag: &'static str) -> Span {
    Span
}

#[inline(always)]
pub fn span_ab(_tag: &'static str, _a: u64, _b: u64) -> Span {
    Span
}

#[inline(always)]
pub fn mark(_tag: &'static str, _a: u64, _b: u64) {}

#[inline(always)]
pub fn msg_send(_peer: u32, _seq: u64, _bytes: u64) {}

#[inline(always)]
pub fn msg_recv(_peer: u32, _seq: u64, _bytes: u64) {}

#[derive(Clone, Debug)]
pub struct RankStream {
    pub rank: u32,
    pub dropped: u64,
    pub events: Vec<Event>,
}

pub fn collect() -> Vec<RankStream> {
    Vec::new()
}

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

#[derive(Clone, Debug, Default)]
pub struct Timeline {
    pub events: Vec<Event>,
    pub edges: Vec<Edge>,
    pub dropped: u64,
    pub unmatched_sends: u64,
    pub unmatched_recvs: u64,
    pub causal_violations: u64,
}

pub fn merge(_streams: &[RankStream]) -> Timeline {
    Timeline::default()
}

pub fn to_chrome_json(_t: &Timeline) -> String {
    "{\"traceEvents\":[]}\n".to_string()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Exchange,
    Io,
    Pack,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Exchange => "exchange",
            Phase::Io => "io",
            Phase::Pack => "pack",
        }
    }
}

pub fn phase_of(_tag: &str) -> Option<Phase> {
    None
}

#[derive(Clone, Debug)]
pub struct OpReport {
    pub index: usize,
    pub tag: &'static str,
    pub routed: bool,
    pub wall_ns: u64,
    pub bound_rank: u32,
    pub exchange_ns: u64,
    pub io_ns: u64,
    pub pack_ns: u64,
    pub bounding: Phase,
}

pub fn critical_path(_t: &Timeline) -> Vec<OpReport> {
    Vec::new()
}

pub fn render_report(_reports: &[OpReport], _tl: &Timeline) -> String {
    "critical path: tracing compiled out (lio-obs feature \"trace\")\n".to_string()
}

pub fn flight_dump(_reason: &str) {}
