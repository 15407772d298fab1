//! Communicators and point-to-point messaging.
//!
//! Ranks are threads; transport is an mpsc channel per ordered rank
//! pair. Messages physically move through the channels (the ol-lists of
//! the list-based engine are really serialized and sent), so communication
//! *volume* — the quantity the paper's two-phase analysis hinges on — is
//! faithfully represented, with shared-memory transport standing in for
//! the SX's internode crossbar.
//!
//! Besides blocking `send`/`recv`, the communicator offers nonblocking
//! operations ([`Comm::isend`], [`Comm::irecv`]) returning [`Request`]
//! handles completed by [`Comm::wait`], [`Comm::test`] or
//! [`Comm::wait_any`] — the primitives the two-phase engine uses to
//! complete receives in arrival order instead of rank order.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lio_obs::{LazyCounter, LazyHistogram};

use crate::fault::{CommFaultPlan, CommFaultStats, FaultState};

/// Point-to-point traffic (user sends), distinguished from collective
/// traffic so the ol-list metadata exchanged inside two-phase collectives
/// is directly observable against the data it moves.
static OBS_P2P_MSGS: LazyCounter = LazyCounter::new("mpi.p2p.msgs");
static OBS_P2P_BYTES: LazyCounter = LazyCounter::new("mpi.p2p.bytes");
static OBS_COLL_MSGS: LazyCounter = LazyCounter::new("mpi.coll.msgs");
static OBS_COLL_BYTES: LazyCounter = LazyCounter::new("mpi.coll.bytes");
static OBS_MSG_SIZE: LazyHistogram = LazyHistogram::new("mpi.msg.size");
/// Blocking receives satisfied while polling / that had to park.
static OBS_RECV_POLLED: LazyCounter = LazyCounter::new("mpi.recv.polled");
static OBS_RECV_PARKED: LazyCounter = LazyCounter::new("mpi.recv.parked");

/// Wildcard source for [`Comm::recv_any`].
pub const ANY_SOURCE: usize = usize::MAX;

/// Tag space reserved for collective operations; user tags must be below.
const COLL_TAG_BASE: u64 = 1 << 32;

/// How many mismatched messages one probing sweep will drain from a
/// single source's channel before moving on. This bounds how much a
/// peer flooding one tag can grow the pending stash (and starve other
/// sources) per receive call; without a budget, a probe would drain an
/// entire flood into `pending` before even looking at the next source.
const DRAIN_BUDGET: usize = 32;

/// How long a blocking receive polls its channel before it parks (see
/// [`Comm::recv_raw`]). Waking a parked thread costs both sides a futex
/// round trip — 17–20 µs on the sender, 20–45 µs on the receiver of the
/// 2-vCPU box — and one collective op blocks three times. Measured on the
/// benchmark (`write_mbps` at 20 µs / 100 µs / 500 µs / 5 ms): `coll-small`
/// 5668 / 5529 / 5685 / 5645, one spread; `ind-small` (a barrier per 8 ops
/// of 0.2 ms) 2834 / 2919 / 3111 / 3095. Past the bound the wait is a
/// straggler or the user's compute phase, and the core is worth more than
/// the wake-up.
const POLL_BOUND: Duration = Duration::from_micros(500);

/// What a receive panics with when its sender's thread is gone: a rank
/// that died inside a collective takes the world down instead of leaving
/// the others waiting for it.
const GONE: &str = "sender rank terminated while a receive was posted";

/// A message in flight.
///
/// `seq` numbers each (src → dst) channel's messages from 1, always on:
/// it is what lets a receiver discard injected duplicate deliveries (see
/// [`crate::fault`]) without any protocol cooperation — exactly-once
/// delivery is a property of the endpoint, not of the fault plan.
#[derive(Debug)]
pub(crate) struct Message {
    pub src: usize,
    pub tag: u64,
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Communication statistics for one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommStats {
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Payload bytes sent by this rank.
    pub bytes_sent: u64,
}

/// Shared per-world counters, indexed by rank.
pub(crate) struct WorldCounters {
    pub msgs: Vec<AtomicU64>,
    pub bytes: Vec<AtomicU64>,
}

/// A nonblocking operation handle, MPI-request style. Created by
/// [`Comm::isend`]/[`Comm::irecv`]; completed (and consumed) by exactly
/// one of [`Comm::wait`], [`Comm::test`] or [`Comm::wait_any`].
#[derive(Debug)]
pub struct Request {
    state: ReqState,
}

#[derive(Debug)]
enum ReqState {
    /// An eager send: transport buffers unboundedly, so the send
    /// completed at post time; the handle exists for MPI-shaped call
    /// sites.
    SendDone,
    /// A posted receive, not yet matched.
    Recv { src: usize, tag: u64 },
    /// Completed and consumed.
    Done,
}

impl Request {
    /// Whether the request has been consumed by `wait`/`test`/`wait_any`.
    pub fn is_done(&self) -> bool {
        matches!(self.state, ReqState::Done)
    }
}

/// One rank's endpoint of the communicator.
///
/// A `Comm` is owned by exactly one thread (it is `Send` but not `Sync`);
/// [`crate::World::run`] hands each spawned rank its own.
pub struct Comm {
    rank: usize,
    size: usize,
    /// senders[q] transmits to rank q.
    senders: Vec<Sender<Message>>,
    /// receivers[q] yields messages sent by rank q.
    receivers: Vec<Receiver<Message>>,
    /// Out-of-order messages already drained from a channel, stashed per
    /// (source, tag) so matching is a map lookup instead of a linear
    /// scan over everything a flooding peer has queued.
    pending: RefCell<Vec<BTreeMap<u64, VecDeque<Vec<u8>>>>>,
    /// Where the next `recv_any`/`try_recv_any` sweep starts, rotated on
    /// every match so one source cannot be favored structurally.
    rr_next: Cell<usize>,
    /// Sequence number disambiguating successive collective operations.
    coll_seq: RefCell<u64>,
    /// Next sequence number per destination channel (this rank → dst).
    send_seq: RefCell<Vec<u64>>,
    /// Highest sequence accepted per source channel (src → this rank);
    /// anything at or below it is a duplicate delivery and is dropped.
    recv_seq: RefCell<Vec<u64>>,
    /// Optional fault injector for this endpoint.
    fault: RefCell<Option<FaultState>>,
    counters: Arc<WorldCounters>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Message>>,
        receivers: Vec<Receiver<Message>>,
        counters: Arc<WorldCounters>,
    ) -> Comm {
        Comm {
            rank,
            size,
            senders,
            receivers,
            pending: RefCell::new((0..size).map(|_| BTreeMap::new()).collect()),
            rr_next: Cell::new(0),
            coll_seq: RefCell::new(0),
            send_seq: RefCell::new(vec![0; size]),
            recv_seq: RefCell::new(vec![0; size]),
            fault: RefCell::new(None),
            counters,
        }
    }

    /// Install (or clear) a deterministic fault plan on this endpoint.
    /// Affects only this rank's sends and any-source polls; correctness
    /// of a well-formed program must not depend on the plan.
    pub fn set_fault_plan(&self, plan: Option<CommFaultPlan>) {
        *self.fault.borrow_mut() = plan
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(p, self.size));
    }

    /// What this endpoint's injector has done so far (zeroes if no plan
    /// is installed).
    pub fn fault_stats(&self) -> CommFaultStats {
        self.fault
            .borrow()
            .as_ref()
            .map(|f| f.stats)
            .unwrap_or_default()
    }

    /// This rank's index in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's communication statistics so far.
    pub fn stats(&self) -> CommStats {
        CommStats {
            msgs_sent: self.counters.msgs[self.rank].load(Ordering::Relaxed),
            bytes_sent: self.counters.bytes[self.rank].load(Ordering::Relaxed),
        }
    }

    /// Aggregate statistics across all ranks.
    pub fn world_stats(&self) -> CommStats {
        let mut s = CommStats::default();
        for r in 0..self.size {
            s.msgs_sent += self.counters.msgs[r].load(Ordering::Relaxed);
            s.bytes_sent += self.counters.bytes[r].load(Ordering::Relaxed);
        }
        s
    }

    /// Messages currently parked in the out-of-order stash (receives
    /// posted for other (source, tag) pairs drained them from the
    /// channels). Exposed so tests can assert the stash stays bounded.
    pub fn stashed_msgs(&self) -> usize {
        self.pending
            .borrow()
            .iter()
            .map(|m| m.values().map(|q| q.len()).sum::<usize>())
            .sum()
    }

    // ----- point-to-point -------------------------------------------------

    /// Send `payload` to rank `dst` with a user `tag` (must be `< 2^32`).
    pub fn send(&self, dst: usize, tag: u64, payload: &[u8]) {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        self.send_vec(dst, tag, payload.to_vec());
    }

    /// Send an owned buffer, avoiding a copy.
    pub fn send_vec(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must be below 2^32");
        OBS_P2P_MSGS.incr();
        OBS_P2P_BYTES.add(payload.len() as u64);
        self.send_raw(dst, tag, payload);
    }

    fn send_raw(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        assert!(dst < self.size, "destination rank {dst} out of range");
        OBS_MSG_SIZE.record(payload.len() as u64);
        self.counters.msgs[self.rank].fetch_add(1, Ordering::Relaxed);
        self.counters.bytes[self.rank].fetch_add(payload.len() as u64, Ordering::Relaxed);
        let seq = {
            let mut s = self.send_seq.borrow_mut();
            s[dst] += 1;
            s[dst]
        };
        // The per-channel sequence number doubles as the causal-edge key
        // for cross-rank trace merging (a duplicate delivery is one
        // logical message: one send event, and `accept` records the
        // receive only for the copy it keeps).
        lio_obs::trace::msg_send(dst as u32, seq, payload.len() as u64);
        lio_obs::profile::record_rank_exchange(self.rank as u32, payload.len() as u64);
        let dup = match self.fault.borrow_mut().as_mut() {
            Some(f) => f.dup_send(),
            None => false,
        };
        let mut delivered = false;
        if dup {
            // Duplicate delivery: transmit an identical copy first; the
            // receiver's sequence check discards whichever arrives second.
            delivered = self.senders[dst]
                .send(Message {
                    src: self.rank,
                    tag,
                    seq,
                    payload: payload.clone(),
                })
                .is_ok();
        }
        let sent = self.senders[dst].send(Message {
            src: self.rank,
            tag,
            seq,
            payload,
        });
        // A receiver that consumed the duplicate copy of its final message
        // may legitimately terminate before the original is transmitted;
        // the message was still delivered exactly once. Anything else is a
        // protocol violation by the program under test.
        assert!(
            sent.is_ok() || delivered,
            "receiver rank terminated with messages in flight"
        );
    }

    /// Sequence-check an incoming message: `true` to deliver, `false` if
    /// it is a duplicate delivery to discard.
    fn accept(&self, msg: &Message) -> bool {
        let mut seen = self.recv_seq.borrow_mut();
        if msg.seq <= seen[msg.src] {
            if let Some(f) = self.fault.borrow_mut().as_mut() {
                f.note_dup_dropped();
            }
            return false;
        }
        seen[msg.src] = msg.seq;
        lio_obs::trace::msg_recv(msg.src as u32, msg.seq, msg.payload.len() as u64);
        true
    }

    /// Whether an any-source poll should skip `src` this sweep (injected
    /// delivery delay; bounded, see [`crate::fault`]).
    fn poll_deferred(&self, src: usize) -> bool {
        match self.fault.borrow_mut().as_mut() {
            Some(f) => f.defer_poll(src),
            None => false,
        }
    }

    fn stash(&self, src: usize, tag: u64, payload: Vec<u8>) {
        self.pending.borrow_mut()[src]
            .entry(tag)
            .or_default()
            .push_back(payload);
    }

    fn unstash(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        let mut pending = self.pending.borrow_mut();
        let map = &mut pending[src];
        let q = map.get_mut(&tag)?;
        let p = q.pop_front()?;
        if q.is_empty() {
            map.remove(&tag);
        }
        Some(p)
    }

    /// Receive the next message from `src` carrying `tag` (blocking,
    /// in-order per (src, tag) as in MPI).
    pub fn recv(&self, src: usize, tag: u64) -> Vec<u8> {
        self.recv_raw(src, tag)
    }

    /// The one blocking receive, under `recv`, `wait` and every
    /// collective. It waits as [`Comm::wait_any`] and [`Comm::recv_any`]
    /// do — `try_recv`, `yield_now` between attempts, so an oversubscribed
    /// world or a storage lane gets the core the moment it can use it —
    /// but only for [`POLL_BOUND`]; then it parks in the channel.
    pub(crate) fn recv_raw(&self, src: usize, tag: u64) -> Vec<u8> {
        assert!(src < self.size, "source rank {src} out of range");
        if let Some(p) = self.unstash(src, tag) {
            return p;
        }
        let rx = &self.receivers[src];
        let mut polling_since: Option<Instant> = None;
        let mut parked = false;
        // drain the channel until the tag appears
        loop {
            let msg = match rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Disconnected) => panic!("{GONE}"),
                Err(TryRecvError::Empty) if parked => rx.recv().expect(GONE),
                Err(TryRecvError::Empty) => {
                    parked = polling_since.get_or_insert_with(Instant::now).elapsed() >= POLL_BOUND;
                    std::thread::yield_now();
                    continue;
                }
            };
            debug_assert_eq!(msg.src, src, "message arrived on the wrong channel");
            if !self.accept(&msg) {
                continue;
            }
            if msg.tag == tag {
                if parked {
                    &OBS_RECV_PARKED
                } else {
                    &OBS_RECV_POLLED
                }
                .incr();
                return msg.payload;
            }
            self.stash(src, msg.tag, msg.payload);
        }
    }

    /// Nonblocking receive attempt from a specific source.
    fn try_recv_from(&self, src: usize, tag: u64) -> Option<Vec<u8>> {
        if let Some(p) = self.unstash(src, tag) {
            return Some(p);
        }
        for _ in 0..DRAIN_BUDGET {
            match self.receivers[src].try_recv() {
                Ok(msg) => {
                    if !self.accept(&msg) {
                        continue;
                    }
                    if msg.tag == tag {
                        return Some(msg.payload);
                    }
                    self.stash(src, msg.tag, msg.payload);
                }
                Err(_) => break,
            }
        }
        None
    }

    /// Receive the next message with `tag` from any source; returns
    /// `(src, payload)`. Sources are polled fairly: sweeps start at a
    /// rotating offset and drain at most [`DRAIN_BUDGET`] mismatched
    /// messages per source before moving on, so a peer flooding another
    /// tag can neither starve the others nor balloon the stash.
    pub fn recv_any(&self, tag: u64) -> (usize, Vec<u8>) {
        loop {
            if let Some(r) = self.try_recv_any(tag) {
                return r;
            }
            std::thread::yield_now();
        }
    }

    /// Nonblocking [`Comm::recv_any`]: one fair sweep over stash and
    /// channels; `None` when no matching message has arrived yet.
    pub fn try_recv_any(&self, tag: u64) -> Option<(usize, Vec<u8>)> {
        let start = self.rr_next.get();
        for k in 0..self.size {
            let src = (start + k) % self.size;
            if let Some(p) = self.unstash(src, tag) {
                self.rr_next.set((src + 1) % self.size);
                return Some((src, p));
            }
        }
        for k in 0..self.size {
            let src = (start + k) % self.size;
            if self.poll_deferred(src) {
                continue;
            }
            for _ in 0..DRAIN_BUDGET {
                match self.receivers[src].try_recv() {
                    Ok(msg) => {
                        if !self.accept(&msg) {
                            continue;
                        }
                        if msg.tag == tag {
                            self.rr_next.set((src + 1) % self.size);
                            return Some((src, msg.payload));
                        }
                        self.stash(src, msg.tag, msg.payload);
                    }
                    Err(_) => break,
                }
            }
        }
        None
    }

    // ----- nonblocking requests ------------------------------------------

    /// Nonblocking send. Transport is buffered, so the send completes
    /// eagerly; the returned request must still be completed with
    /// `wait`/`test`/`wait_any` (MPI shape).
    pub fn isend(&self, dst: usize, tag: u64, payload: Vec<u8>) -> Request {
        self.send_vec(dst, tag, payload);
        Request {
            state: ReqState::SendDone,
        }
    }

    /// Post a nonblocking receive for `(src, tag)`.
    pub fn irecv(&self, src: usize, tag: u64) -> Request {
        assert!(src < self.size, "source rank {src} out of range");
        Request {
            state: ReqState::Recv { src, tag },
        }
    }

    /// Block until `req` completes; returns `(src, payload)` (for a send
    /// request: `(self.rank(), empty)`). Panics on a consumed request.
    pub fn wait(&self, req: &mut Request) -> (usize, Vec<u8>) {
        match std::mem::replace(&mut req.state, ReqState::Done) {
            ReqState::SendDone => (self.rank, Vec::new()),
            ReqState::Recv { src, tag } => {
                let _sp = lio_obs::trace::span("mpi.wait");
                // One beat on entering the wait: a rank parked here is
                // a victim of whoever it waits on, and the aging
                // timestamp lets the watchdog see exactly that.
                lio_obs::health::beat(lio_obs::health::HbPhase::ExchangeWait);
                (src, self.recv_raw(src, tag))
            }
            ReqState::Done => panic!("wait on a completed request"),
        }
    }

    /// Complete `req` without blocking, if possible. Panics on a
    /// consumed request.
    pub fn test(&self, req: &mut Request) -> Option<(usize, Vec<u8>)> {
        match req.state {
            ReqState::SendDone => {
                req.state = ReqState::Done;
                Some((self.rank, Vec::new()))
            }
            ReqState::Recv { src, tag } => {
                let p = self.try_recv_from(src, tag)?;
                req.state = ReqState::Done;
                Some((src, p))
            }
            ReqState::Done => panic!("test on a completed request"),
        }
    }

    /// Block until *some* active request in `reqs` completes; returns
    /// `(index, src, payload)`. Completion follows arrival order across
    /// sources — no head-of-line blocking on low ranks. Consumed
    /// requests are skipped; panics if every request is consumed.
    pub fn wait_any(&self, reqs: &mut [Request]) -> (usize, usize, Vec<u8>) {
        assert!(
            reqs.iter().any(|r| !r.is_done()),
            "wait_any on no active requests"
        );
        let _sp = lio_obs::trace::span("mpi.wait");
        lio_obs::health::beat(lio_obs::health::HbPhase::ExchangeWait);
        loop {
            // An installed fault plan may rotate the scan start, so which
            // of several satisfiable requests completes first is
            // adversarially (but reproducibly) permuted.
            let start = match self.fault.borrow_mut().as_mut() {
                Some(f) => f.scan_start(reqs.len()),
                None => 0,
            };
            for k in 0..reqs.len() {
                let i = (start + k) % reqs.len();
                match reqs[i].state {
                    ReqState::SendDone => {
                        reqs[i].state = ReqState::Done;
                        return (i, self.rank, Vec::new());
                    }
                    ReqState::Recv { src, tag } => {
                        if let Some(p) = self.unstash(src, tag) {
                            reqs[i].state = ReqState::Done;
                            return (i, src, p);
                        }
                    }
                    ReqState::Done => {}
                }
            }
            // Nothing stashed matches: pull whatever has arrived into the
            // stash (budgeted per source), then rescan.
            let mut progressed = false;
            let mut gone = false;
            for src in 0..self.size {
                if self.poll_deferred(src) {
                    continue;
                }
                for _ in 0..DRAIN_BUDGET {
                    match self.receivers[src].try_recv() {
                        Ok(msg) => {
                            if !self.accept(&msg) {
                                continue;
                            }
                            progressed = true;
                            self.stash(src, msg.tag, msg.payload);
                        }
                        Err(TryRecvError::Empty) => break,
                        // reported only once the channel is drained
                        Err(TryRecvError::Disconnected) => {
                            gone |= reqs.iter().any(
                                |r| matches!(r.state, ReqState::Recv { src: s, .. } if s == src),
                            );
                            break;
                        }
                    }
                }
            }
            if !progressed {
                // The scan above found no stashed match and this sweep
                // stashed nothing: a request posted on a vanished sender's
                // drained channel can never complete.
                assert!(!gone, "{GONE}");
                std::thread::yield_now();
            } else {
                // Messages arrived: real progress, refresh the heartbeat.
                lio_obs::health::beat(lio_obs::health::HbPhase::Exchange);
            }
        }
    }

    /// Next collective-operation tag; all ranks call collectives in the
    /// same order (an MPI requirement), so sequence numbers align.
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let mut seq = self.coll_seq.borrow_mut();
        *seq += 1;
        COLL_TAG_BASE + *seq * 16
    }

    pub(crate) fn send_coll(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        OBS_COLL_MSGS.incr();
        OBS_COLL_BYTES.add(payload.len() as u64);
        self.send_raw(dst, tag, payload);
    }
}

#[cfg(test)]
mod tests {
    use crate::World;

    #[test]
    fn rank_and_size() {
        let ranks = World::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ping_pong() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping");
                assert_eq!(comm.recv(1, 8), b"pong");
            } else {
                assert_eq!(comm.recv(0, 7), b"ping");
                comm.send(0, 8, b"pong");
            }
        });
    }

    #[test]
    fn tag_matching_out_of_order() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"first");
                comm.send(1, 2, b"second");
            } else {
                // receive in reverse tag order
                assert_eq!(comm.recv(0, 2), b"second");
                assert_eq!(comm.recv(0, 1), b"first");
            }
        });
    }

    #[test]
    fn same_tag_preserves_order() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, 3, &[i]);
                }
            } else {
                for i in 0..10u8 {
                    assert_eq!(comm.recv(0, 3), vec![i]);
                }
            }
        });
    }

    #[test]
    fn recv_any_collects_all() {
        World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let (src, payload) = comm.recv_any(5);
                    assert_eq!(payload, vec![src as u8]);
                    seen[src] = true;
                }
                assert_eq!(&seen[1..], &[true, true, true]);
            } else {
                comm.send(0, 5, &[comm.rank() as u8]);
            }
        });
    }

    #[test]
    fn stats_count_bytes() {
        let stats = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]);
            } else {
                comm.recv(0, 1);
            }
            comm.stats()
        });
        assert_eq!(stats[0].msgs_sent, 1);
        assert_eq!(stats[0].bytes_sent, 100);
        assert_eq!(stats[1].msgs_sent, 0);
    }

    #[test]
    fn many_to_many_stress() {
        // eight ranks per core: a polling receive must hand its core on
        World::run(16, |comm| {
            let me = comm.rank();
            for round in 0..50u64 {
                for dst in 0..comm.size() {
                    if dst != me {
                        comm.send(dst, round, &[me as u8, round as u8]);
                    }
                }
                for src in 0..comm.size() {
                    if src != me {
                        let m = comm.recv(src, round);
                        assert_eq!(m, vec![src as u8, round as u8]);
                    }
                }
            }
        });
    }

    #[test]
    fn isend_irecv_wait() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                let mut s = comm.isend(1, 9, b"hello".to_vec());
                let (src, p) = comm.wait(&mut s);
                assert_eq!((src, p), (0, vec![]));
                assert!(s.is_done());
            } else {
                let mut r = comm.irecv(0, 9);
                let (src, p) = comm.wait(&mut r);
                assert_eq!(src, 0);
                assert_eq!(p, b"hello");
            }
        });
    }

    #[test]
    fn test_completes_without_blocking() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 2); // sync: rank 1's data msg already sent
                let mut r = comm.irecv(1, 1);
                let (src, p) = comm.test(&mut r).expect("message already arrived");
                assert_eq!((src, p.as_slice()), (1, &b"x"[..]));
            } else {
                comm.send(0, 1, b"x");
                comm.send(0, 2, b"go");
            }
        });
    }

    #[test]
    fn wait_any_completes_in_arrival_order() {
        World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut reqs: Vec<_> = (1..4).map(|p| comm.irecv(p, 11)).collect();
                let mut got = Vec::new();
                for _ in 0..3 {
                    let (i, src, p) = comm.wait_any(&mut reqs);
                    assert_eq!(src, i + 1);
                    assert_eq!(p, vec![src as u8]);
                    got.push(src);
                }
                got.sort_unstable();
                assert_eq!(got, vec![1, 2, 3]);
                assert!(reqs.iter().all(|r| r.is_done()));
            } else {
                comm.send(0, 11, &[comm.rank() as u8]);
            }
        });
    }
}
