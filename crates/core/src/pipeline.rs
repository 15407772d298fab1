//! Pipelined two-phase collective I/O.
//!
//! The monolithic schedule in [`crate::twophase`] ships each AP's whole
//! per-domain contribution in one message, then lets the IOP walk its
//! domain window by window — exchange and storage strictly in sequence,
//! with transient IOP memory proportional to the collective access. This
//! module replaces the schedule (not the data placement, which is shared
//! with `twophase`) with a **windowed, credit-controlled pipeline**:
//!
//! * APs chop their contribution along the absolute window grid
//!   (`crate::window`: cell `k` is `[k·cb_buffer_size,
//!   (k+1)·cb_buffer_size)`, the grid every other window loop uses) and
//!   ship one message per non-empty window, at most `pipeline_depth`
//!   un-credited messages in flight per (AP, IOP) pair;
//! * the IOP owns `pipeline_depth` window buffers and runs storage I/O on
//!   two small worker lanes (read and write), so the read-modify-write of
//!   window `k` overlaps receiving and placing window `k+1` — and, with
//!   depth ≥ 2, the pre-read of `k+1` overlaps the write-back of `k`;
//! * the IOP grants one credit per consumed message, which bounds its
//!   buffering at `O(pipeline_depth · cb_buffer_size · nprocs)` no matter
//!   how large the collective access is.
//!
//! Deadlock freedom: the IOP consumes windows strictly in domain order
//! and APs send them in the same order, so every message the *front*
//! window still needs comes from an AP whose earlier messages have all
//! been credited — such an AP always holds a free credit, hence the front
//! window can always complete.
//!
//! Both engines ride the same pipeline. The ol-list (list-based) or the
//! cached fileview (listless) is used to *predict*, on both sides
//! independently, how many bytes each AP contributes to each window, so
//! no per-window metadata is exchanged — window messages are pure data.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use lio_mpi::Comm;
use lio_obs::health::{self, HbPhase};
use lio_obs::{LazyCounter, LazyGauge};
use lio_pfs::{SqBuf, Sqe, StorageFile, SubmissionQueue};

use crate::autotune::{FileTuner, OpOutcome};
use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::MemPacker;
use crate::scratch::Scratch;
use crate::sieve::{read_window, write_window};
use crate::twophase::{
    access_range, build_access_list, file_domains, parse_ol_list, recv_announcements,
    stream_intersection, CollState, Coverage, MergeView, OBS_EXCH_DATA_BYTES, OBS_EXCH_LIST_BYTES,
    OBS_FAULT_ABORTS, OBS_R_CALLS, OBS_R_EXCH_NS, OBS_R_IO_NS, OBS_R_PACK_NS, OBS_WINDOWS,
    OBS_W_CALLS, OBS_W_EXCH_NS, OBS_W_IO_NS, OBS_W_PACK_NS, TAG_TP_CREDIT, TAG_TP_DATA,
    TAG_TP_LIST, TAG_TP_RDATA, TAG_TP_WIN,
};
use crate::view::{FfNav, ViewNav};
use crate::window::{cell, Windows};

// Pipeline-specific metrics, alongside the shared two-phase breakdown.
// `overlap_ns` is the portion of storage-lane time hidden behind the
// exchange: `(exchange_ns + pack_ns + io_ns) − wall`, i.e. how much
// longer the phases would have taken run back to back. The gauges track
// high-water marks: concurrently in-flight windows on the IOP, and total
// bytes the IOP holds (window buffers + queued messages + what its
// scratch arena retains for reuse) — the quantity the credit protocol
// bounds.
static OBS_W_OVERLAP_NS: LazyCounter = LazyCounter::new("core.coll.write.overlap_ns");
static OBS_R_OVERLAP_NS: LazyCounter = LazyCounter::new("core.coll.read.overlap_ns");
static OBS_INFLIGHT_WINDOWS: LazyGauge = LazyGauge::new("core.coll.pipeline.inflight_windows");
static OBS_PEAK_BUFFERED: LazyGauge = LazyGauge::new("core.coll.pipeline.peak_buffered_bytes");

/// How long the event loop blocks on the storage-done channel when it has
/// nothing else to do. Only a latency bound on reacting to newly arrived
/// messages; completions wake it immediately.
const IO_WAIT_SLICE: Duration = Duration::from_micros(500);

// ---------------------------------------------------------------------
// Incremental ol-list cursors (list-based engine)
// ---------------------------------------------------------------------

/// Position inside a parsed ol-list: segment index + byte offset into it.
#[derive(Clone, Copy, Default)]
struct ListPos {
    seg: usize,
    off: u64,
}

/// Absolute offset of the next unconsumed byte, `None` when exhausted.
fn segs_next_abs(segs: &[(u64, u64)], pos: ListPos) -> Option<u64> {
    segs.get(pos.seg).map(|&(off, _)| off + pos.off)
}

/// Advance `pos` past every byte below `abs_end`; returns the byte count.
fn segs_advance(segs: &[(u64, u64)], pos: &mut ListPos, abs_end: u64) -> u64 {
    let mut n = 0u64;
    while let Some(&(off, len)) = segs.get(pos.seg) {
        let cur = off + pos.off;
        if cur >= abs_end {
            break;
        }
        let take = (len - pos.off).min(abs_end - cur);
        n += take;
        pos.off += take;
        if pos.off == len {
            pos.seg += 1;
            pos.off = 0;
        }
    }
    n
}

/// Scatter `data` into the window buffer `fb` (covering file range
/// `[fb_lo, fb_lo + fb.len())`) at the offsets the list dictates.
fn segs_place(segs: &[(u64, u64)], pos: &mut ListPos, data: &[u8], fb: &mut [u8], fb_lo: u64) {
    let mut d = 0usize;
    while d < data.len() {
        let (off, len) = segs[pos.seg];
        let cur = off + pos.off;
        let take = (len - pos.off).min((data.len() - d) as u64) as usize;
        let o = (cur - fb_lo) as usize;
        fb[o..o + take].copy_from_slice(&data[d..d + take]);
        d += take;
        pos.off += take as u64;
        if pos.off == len {
            pos.seg += 1;
            pos.off = 0;
        }
    }
}

/// Fill `out` from the window buffer, list order.
fn segs_extract(segs: &[(u64, u64)], pos: &mut ListPos, fb: &[u8], fb_lo: u64, out: &mut [u8]) {
    let mut d = 0usize;
    while d < out.len() {
        let (off, len) = segs[pos.seg];
        let cur = off + pos.off;
        let take = (len - pos.off).min((out.len() - d) as u64);
        let o = (cur - fb_lo) as usize;
        out[d..d + take as usize].copy_from_slice(&fb[o..o + take as usize]);
        d += take as usize;
        pos.off += take;
        if pos.off == len {
            pos.seg += 1;
            pos.off = 0;
        }
    }
}

/// Advance `pos` by `n` bytes without touching any buffer (error paths).
fn segs_skip(segs: &[(u64, u64)], pos: &mut ListPos, mut n: u64) {
    while n > 0 {
        let (_, len) = segs[pos.seg];
        let take = (len - pos.off).min(n);
        n -= take;
        pos.off += take;
        if pos.off == len {
            pos.seg += 1;
            pos.off = 0;
        }
    }
}

// ---------------------------------------------------------------------
// AP side: windowed producers
// ---------------------------------------------------------------------

/// One AP→IOP data stream, produced window by window under credit
/// control. The window grid is recomputed from the navigator each time,
/// so `ff_size`-style cursor state is just the stream position.
struct ApSend {
    iop: usize,
    s_hi: u64,
    s_cursor: u64,
    /// Sent but not yet credited window messages.
    in_flight: usize,
}

impl ApSend {
    /// The next window's stream interval `(lo, len)`, advancing the
    /// cursor; `None` when this stream is fully produced.
    fn next_window(&mut self, nav: &ViewNav, cb: u64) -> Option<(u64, u64)> {
        if self.s_cursor >= self.s_hi {
            return None;
        }
        // the same cell the IOP's planner cuts; `s_hi` already ends the
        // stream at the domain boundary
        let (_, win_end) = cell(nav.stream_to_abs(self.s_cursor), cb);
        let take = nav
            .abs_to_stream(win_end)
            .min(self.s_hi)
            .saturating_sub(self.s_cursor);
        debug_assert!(take > 0, "window grid skipped the cursor");
        let lo = self.s_cursor;
        self.s_cursor += take;
        Some((lo, take))
    }

    fn finished(&self) -> bool {
        self.s_cursor >= self.s_hi && self.in_flight == 0
    }
}

/// Pack and send window messages for every stream with spare credit.
#[allow(clippy::too_many_arguments)]
fn ap_pump(
    aps: &mut [Option<ApSend>],
    nav: &ViewNav,
    comm: &Comm,
    packer: &MemPacker,
    user: &[u8],
    stream_start: u64,
    depth: usize,
    cb: u64,
    obs: bool,
    pack_ns: &mut u64,
    scratch: &Scratch,
) -> bool {
    let mut progressed = false;
    for ap in aps.iter_mut().flatten() {
        while ap.in_flight < depth {
            let Some((lo, take)) = ap.next_window(nav, cb) else {
                break;
            };
            health::beat(HbPhase::Pack);
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("pack", take, lo);
            let mut msg = scratch.take(take as usize);
            let got = packer.pack(user, lo - stream_start, &mut msg);
            debug_assert_eq!(got as u64, take);
            drop(sp);
            *pack_ns += lio_obs::elapsed_ns(t);
            if obs {
                OBS_EXCH_DATA_BYTES.add(take);
            }
            health::beat_bytes(HbPhase::Exchange, take);
            let sp = lio_obs::trace::span_ab("exch.send", ap.iop as u64, take);
            comm.send_vec(ap.iop, TAG_TP_WIN, msg);
            drop(sp);
            ap.in_flight += 1;
            progressed = true;
        }
    }
    progressed
}

// ---------------------------------------------------------------------
// IOP side: window planner shared by the write and read pipelines
// ---------------------------------------------------------------------

/// Covered-window test for the write pipeline (either engine's flavour).
enum Cover<'a> {
    List(Coverage),
    Merge(&'a MergeView),
    None,
}

/// One AP as seen by the IOP: its announced stream interval, its access
/// description (ol-list or cached fileview), and two cursors — `expect`
/// predicts per-window byte counts ahead of arrival, `consume` walks the
/// same description again when data is actually placed or extracted.
struct Peer {
    s_lo: u64,
    s_hi: u64,
    /// List-based: the parsed ol-list. Listless peers use `navs` instead.
    segs: Option<Vec<(u64, u64)>>,
    expect_stream: u64,
    expect_pos: ListPos,
    consume_stream: u64,
    consume_pos: ListPos,
    /// Received, not yet consumed window messages (≤ depth by credits).
    msgq: VecDeque<Vec<u8>>,
}

impl Peer {
    fn new(s_lo: u64, s_hi: u64, segs: Option<Vec<(u64, u64)>>) -> Peer {
        Peer {
            s_lo,
            s_hi,
            segs,
            expect_stream: s_lo,
            expect_pos: ListPos::default(),
            consume_stream: s_lo,
            consume_pos: ListPos::default(),
            msgq: VecDeque::new(),
        }
    }

    /// Absolute offset of this peer's next unplanned byte.
    fn next_abs(&self, nav: Option<&FfNav>) -> Option<u64> {
        if self.expect_stream >= self.s_hi {
            return None;
        }
        match &self.segs {
            Some(segs) => segs_next_abs(segs, self.expect_pos),
            None => Some(
                nav.expect("listless peer has a cached view")
                    .stream_to_abs(self.expect_stream),
            ),
        }
    }

    /// Bytes this peer contributes below `abs_end`; advances `expect`.
    fn expect_advance(&mut self, nav: Option<&FfNav>, abs_end: u64) -> u64 {
        if self.expect_stream >= self.s_hi {
            return 0;
        }
        let take = match &self.segs {
            Some(segs) => segs_advance(segs, &mut self.expect_pos, abs_end),
            None => nav
                .expect("listless peer has a cached view")
                .abs_to_stream(abs_end)
                .min(self.s_hi)
                .saturating_sub(self.expect_stream),
        };
        self.expect_stream += take;
        take
    }

    /// Place one window message into the buffer; advances `consume`.
    fn place(&mut self, nav: Option<&FfNav>, data: &[u8], fb: &mut [u8], fb_lo: u64) {
        match &self.segs {
            Some(segs) => segs_place(segs, &mut self.consume_pos, data, fb, fb_lo),
            None => {
                let placed = nav.expect("listless peer has a cached view").place_window(
                    data,
                    self.consume_stream,
                    fb,
                    fb_lo,
                );
                debug_assert_eq!(placed, data.len());
            }
        }
        self.consume_stream += data.len() as u64;
    }

    /// Gather this peer's window share, `out.len()` bytes; advances
    /// `consume`.
    fn extract(&mut self, nav: Option<&FfNav>, fb: &[u8], fb_lo: u64, out: &mut [u8]) {
        match &self.segs {
            Some(segs) => segs_extract(segs, &mut self.consume_pos, fb, fb_lo, out),
            None => {
                let got = nav
                    .expect("listless peer has a cached view")
                    .extract_window(fb, fb_lo, self.consume_stream, out);
                debug_assert_eq!(got, out.len());
            }
        }
        self.consume_stream += out.len() as u64;
    }

    /// Advance `consume` without touching buffers (after a fatal error).
    fn skip(&mut self, take: u64) {
        if let Some(segs) = &self.segs {
            segs_skip(segs, &mut self.consume_pos, take);
        }
        self.consume_stream += take;
    }
}

/// One planned window: the clipped storage range and each peer's share.
struct WindowPlan {
    io_lo: u64,
    io_hi: u64,
    takes: Vec<u64>,
    /// Fully covered by incoming data — the RMW pre-read can be skipped.
    dense: bool,
}

/// IOP-side window planner. Both the AP and the IOP cut the same
/// absolute window grid ([`cell`]) over the same access descriptions, so
/// the k-th non-empty window of a peer is exactly its k-th message.
struct Planner<'a> {
    cb: u64,
    data_lo: u64,
    data_hi: u64,
    peers: Vec<Peer>,
    navs: Option<&'a [FfNav]>,
    cover: Cover<'a>,
    /// The `takes` vectors of consumed plans, for the next ones.
    spare_takes: Vec<Vec<u64>>,
}

impl<'a> Planner<'a> {
    /// Blocking header collection: every rank has already sent its
    /// announcement (and ol-list) before any rank enters its pipeline
    /// loop, so waiting here cannot deadlock. Completes receives in
    /// arrival order. Returns `None` when no peer contributes data.
    fn collect(
        comm: &Comm,
        dom: (u64, u64),
        cb: u64,
        engine: Engine,
        state: &'a CollState,
        detect_dense: bool,
    ) -> Result<Option<Planner<'a>>> {
        let (hdrs, lists) = recv_announcements(comm, engine == Engine::ListBased);
        let navs = match engine {
            Engine::ListBased => None,
            Engine::Listless => Some(
                state
                    .remote_navs
                    .as_deref()
                    .expect("listless collective requires cached fileviews"),
            ),
        };
        let mut peers = Vec::with_capacity(hdrs.len());
        for (p, &(s_lo, s_hi)) in hdrs.iter().enumerate() {
            let segs = match engine {
                Engine::ListBased => Some(parse_ol_list(&lists[p])?),
                Engine::Listless => None,
            };
            peers.push(Peer::new(s_lo, s_hi, segs));
        }
        // Clip the domain to where data actually lands (as the monolithic
        // schedule does), so pipelined and monolithic collectives produce
        // byte-identical files.
        let mut data_lo: Option<u64> = None;
        let mut data_hi: Option<u64> = None;
        for (p, peer) in peers.iter().enumerate() {
            if peer.s_hi <= peer.s_lo {
                continue;
            }
            let (lo, hi) = match &peer.segs {
                Some(segs) => {
                    if segs.is_empty() {
                        continue;
                    }
                    let first = segs[0].0;
                    let last = segs[segs.len() - 1];
                    (first, last.0 + last.1)
                }
                None => {
                    let nav = &navs.expect("listless views")[p];
                    (
                        nav.stream_to_abs(peer.s_lo),
                        nav.stream_to_abs(peer.s_hi - 1) + 1,
                    )
                }
            };
            data_lo = Some(data_lo.map_or(lo, |v| v.min(lo)));
            data_hi = Some(data_hi.map_or(hi, |v| v.max(hi)));
        }
        let (Some(data_lo), Some(data_hi)) = (data_lo, data_hi) else {
            return Ok(None);
        };
        let cover = if detect_dense {
            match engine {
                Engine::ListBased => {
                    let refs: Vec<&[(u64, u64)]> =
                        peers.iter().filter_map(|p| p.segs.as_deref()).collect();
                    Cover::List(Coverage::merge_segs(&refs))
                }
                Engine::Listless => state.merge.as_ref().map_or(Cover::None, Cover::Merge),
            }
        } else {
            Cover::None
        };
        Ok(Some(Planner {
            cb,
            data_lo: data_lo.max(dom.0),
            data_hi: data_hi.min(dom.1),
            peers,
            navs,
            cover,
            spare_takes: Vec::new(),
        }))
    }

    /// The longest window [`Planner::next_plan`] can return: windows lie
    /// on the `cb` grid clipped to `[data_lo, data_hi)`. Window buffers
    /// are this size.
    fn max_window(&self) -> usize {
        Windows::new(self.data_lo, self.data_hi, self.cb).max_len()
    }

    /// Plan the next non-empty window in domain order, advancing every
    /// peer's `expect` cursor past it. `None` when all data is planned.
    fn next_plan(&mut self) -> Option<WindowPlan> {
        let navs = self.navs;
        let mut min_abs: Option<u64> = None;
        for (p, peer) in self.peers.iter().enumerate() {
            if let Some(a) = peer.next_abs(navs.map(|n| &n[p])) {
                min_abs = Some(min_abs.map_or(a, |m| m.min(a)));
            }
        }
        let (win, grid_end) = cell(min_abs?, self.cb);
        let mut takes = self.spare_takes.pop().unwrap_or_default();
        takes.resize(self.peers.len(), 0);
        for (p, take) in takes.iter_mut().enumerate() {
            *take = self.peers[p].expect_advance(navs.map(|n| &n[p]), grid_end);
        }
        let io_lo = win.max(self.data_lo);
        let io_hi = grid_end.min(self.data_hi);
        debug_assert!(io_lo < io_hi, "planned window holds no data");
        let dense = match &mut self.cover {
            Cover::List(c) => c.covered(io_lo, io_hi),
            Cover::Merge(m) => m.filled_by(
                navs.expect("a mergeview implies cached views"),
                &takes,
                io_lo,
                io_hi,
            ),
            Cover::None => false,
        };
        Some(WindowPlan {
            io_lo,
            io_hi,
            takes,
            dense,
        })
    }

    /// Hand a consumed plan's `takes` vector back for the next plan.
    fn recycle(&mut self, plan: WindowPlan) {
        self.spare_takes.push(plan.takes);
    }
}

// ---------------------------------------------------------------------
// Storage lanes
// ---------------------------------------------------------------------

/// A window-buffer job for a storage lane.
struct Job {
    seq: u64,
    off: u64,
    len: usize,
    buf: Vec<u8>,
}

/// A completed storage-lane job, returning buffer ownership.
enum LaneDone {
    Read {
        seq: u64,
        buf: Vec<u8>,
        res: Result<()>,
    },
    Write {
        buf: Vec<u8>,
        res: Result<()>,
    },
}

/// Spawn the pre-read lane inside `scope`.
///
/// Backends that expose a [`SubmissionQueue`] get the ring variant:
/// every job is submitted the moment it arrives (whole-window batch
/// submission — the queue's depth bound is the only backpressure) and a
/// harvester forwards completions *in device order*. Consumers
/// seq-match, so reordering is fine. Synchronous backends get the
/// classic one-thread lane, whose completions are FIFO.
fn spawn_read_lane<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    storage: &'scope dyn StorageFile,
    rx: Receiver<Job>,
    done: Sender<LaneDone>,
    io_ns: &'scope AtomicU64,
) {
    if let Some(queue) = storage.submission() {
        spawn_ring_lane(scope, queue, rx, done, io_ns, false);
        return;
    }
    let th = lio_obs::trace::thread_handle();
    let hh = health::thread_handle();
    scope.spawn(move || {
        lio_obs::trace::adopt(th);
        health::adopt(hh);
        lio_pfs::take_spin_ns();
        for job in rx.iter() {
            let Job {
                seq,
                off,
                len,
                mut buf,
            } = job;
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("io.read", off, len as u64);
            let res = read_window(storage, off, &mut buf[..len]);
            drop(sp);
            // a slow device still completes jobs: each one refreshes the
            // owning rank's heartbeat, so slow never reads as stuck
            health::beat_bytes(HbPhase::Io, len as u64);
            // book modelled device time only: the throttle's busy-wait
            // tail is CPU burn and would inflate io_ns / overlap_ns
            let spin = lio_pfs::take_spin_ns();
            io_ns.fetch_add(
                lio_obs::elapsed_ns(t).saturating_sub(spin),
                Ordering::Relaxed,
            );
            if done.send(LaneDone::Read { seq, buf, res }).is_err() {
                break;
            }
        }
    });
}

/// Spawn the write-back lane inside `scope` (ring variant when the
/// backend exposes a [`SubmissionQueue`]; see [`spawn_read_lane`]).
fn spawn_write_lane<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    storage: &'scope dyn StorageFile,
    rx: Receiver<Job>,
    done: Sender<LaneDone>,
    io_ns: &'scope AtomicU64,
) {
    if let Some(queue) = storage.submission() {
        spawn_ring_lane(scope, queue, rx, done, io_ns, true);
        return;
    }
    let th = lio_obs::trace::thread_handle();
    let hh = health::thread_handle();
    scope.spawn(move || {
        lio_obs::trace::adopt(th);
        health::adopt(hh);
        lio_pfs::take_spin_ns();
        for job in rx.iter() {
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("io.write", job.off, job.len as u64);
            let res = write_window(storage, job.off, &job.buf[..job.len]);
            drop(sp);
            health::beat_bytes(HbPhase::Io, job.len as u64);
            let spin = lio_pfs::take_spin_ns();
            io_ns.fetch_add(
                lio_obs::elapsed_ns(t).saturating_sub(spin),
                Ordering::Relaxed,
            );
            if done.send(LaneDone::Write { buf: job.buf, res }).is_err() {
                break;
            }
        }
    });
}

/// The submission-queue storage lane: a submitter thread pushes every
/// arriving job straight onto the backend's ring (the window seq is the
/// submission token), and a harvester thread turns completions — in
/// whatever order the device produces them — back into [`LaneDone`]s.
///
/// Window buffers travel through the ring as [`SqBuf::Owned`] and come
/// back at full capacity (the queue never truncates), which the engines'
/// buffer recycling depends on. Short reads are EOF by the queue's
/// contract, so the harvester zero-fills the tail exactly like the
/// synchronous lane's `read_window`. `io_ns` books the device service
/// time reported per completion, keeping the overlap accounting
/// comparable with the synchronous lanes.
fn spawn_ring_lane<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    queue: &'scope SubmissionQueue,
    rx: Receiver<Job>,
    done: Sender<LaneDone>,
    io_ns: &'scope AtomicU64,
    write: bool,
) {
    let (cq_tx, cq_rx) = mpsc::channel();
    let th = lio_obs::trace::thread_handle();
    let hh = health::thread_handle();
    scope.spawn(move || {
        lio_obs::trace::adopt(th);
        health::adopt(hh);
        for job in rx.iter() {
            let name = if write {
                "io.submit.write"
            } else {
                "io.submit.read"
            };
            let _sp = lio_obs::trace::span_ab(name, job.off, job.len as u64);
            let sqe = if write {
                Sqe::write(job.seq, job.off, SqBuf::Owned(job.buf), job.len)
            } else {
                Sqe::read(job.seq, job.off, SqBuf::Owned(job.buf), job.len)
            };
            queue.submit(sqe, &cq_tx);
        }
        // cq_tx drops here; the harvester exits once in-flight entries
        // have all completed.
    });
    let th = lio_obs::trace::thread_handle();
    let hh = health::thread_handle();
    scope.spawn(move || {
        lio_obs::trace::adopt(th);
        health::adopt(hh);
        for cqe in cq_rx.iter() {
            health::beat_bytes(HbPhase::Io, cqe.len as u64);
            io_ns.fetch_add(cqe.service_ns, Ordering::Relaxed);
            let mut buf = cqe
                .buf
                .expect("ring completions return their buffer")
                .into_owned()
                .expect("the lane submits owned buffers");
            let d = if write {
                LaneDone::Write {
                    buf,
                    res: cqe.result.map(|_| ()).map_err(IoError::from),
                }
            } else {
                let res = match cqe.result {
                    Ok(n) => {
                        buf[n..cqe.len].fill(0); // past EOF reads as zeros
                        Ok(())
                    }
                    Err(e) => Err(IoError::from(e)),
                };
                LaneDone::Read {
                    seq: cqe.token,
                    buf,
                    res,
                }
            };
            if done.send(d).is_err() {
                break;
            }
        }
    });
}

// ---------------------------------------------------------------------
// IOP write pipeline
// ---------------------------------------------------------------------

/// The double-buffered IOP write loop's state machine. Windows move
/// through: planned → (pre-read on the read lane | dense) → front
/// placement once every contributor's message arrived → write lane.
struct IopWrite<'a> {
    planner: Planner<'a>,
    depth: usize,
    queue: VecDeque<ScheduledWin>,
    free_bufs: Vec<Vec<u8>>,
    bufs_allocated: usize,
    next_seq: u64,
    planner_done: bool,
    reads_outstanding: usize,
    writes_outstanding: usize,
    msgq_bytes: usize,
    fatal: Option<IoError>,
}

struct ScheduledWin {
    seq: u64,
    plan: WindowPlan,
    /// Present (and `ready`) once the pre-read returned, or immediately
    /// for dense windows.
    buf: Option<Vec<u8>>,
    ready: bool,
}

impl<'a> IopWrite<'a> {
    fn new(planner: Planner<'a>, depth: usize) -> IopWrite<'a> {
        IopWrite {
            planner,
            depth,
            queue: VecDeque::new(),
            free_bufs: Vec::new(),
            bufs_allocated: 0,
            next_seq: 0,
            planner_done: false,
            reads_outstanding: 0,
            writes_outstanding: 0,
            msgq_bytes: 0,
            fatal: None,
        }
    }

    fn done(&self) -> bool {
        self.planner_done
            && self.queue.is_empty()
            && self.reads_outstanding == 0
            && self.writes_outstanding == 0
    }

    fn storage_pending(&self) -> bool {
        self.reads_outstanding + self.writes_outstanding > 0
    }

    /// Everything this IOP holds: queued messages, its window buffers
    /// and what its arena keeps for reuse.
    fn buffered_bytes(&self, scratch: &Scratch) -> u64 {
        (self.msgq_bytes + self.bufs_allocated * self.planner.max_window() + scratch.held()) as u64
    }

    fn on_done(&mut self, d: LaneDone) {
        match d {
            LaneDone::Read { seq, buf, res } => {
                self.reads_outstanding -= 1;
                if let Err(e) = res {
                    self.fatal.get_or_insert(e);
                }
                match self.queue.iter_mut().find(|s| s.seq == seq) {
                    Some(s) => {
                        s.buf = Some(buf);
                        s.ready = true;
                    }
                    None => self.free_bufs.push(buf),
                }
            }
            LaneDone::Write { buf, res } => {
                self.writes_outstanding -= 1;
                if let Err(e) = res {
                    self.fatal.get_or_insert(e);
                }
                self.free_bufs.push(buf);
            }
        }
    }

    /// One scheduling round: absorb completions and messages, keep up to
    /// `depth` windows in flight, place + write-back the front window as
    /// soon as its pre-read and all its messages are in.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &mut self,
        comm: &Comm,
        rjob_tx: &Sender<Job>,
        wjob_tx: &Sender<Job>,
        done_rx: &Receiver<LaneDone>,
        obs: bool,
        pack_ns: &mut u64,
        scratch: &Scratch,
    ) -> bool {
        let mut progressed = false;
        while let Ok(d) = done_rx.try_recv() {
            self.on_done(d);
            progressed = true;
        }
        while let Some((src, msg)) = comm.try_recv_any(TAG_TP_WIN) {
            // attribute the arrival to the window the consumer is waiting
            // on (+1 keeps it distinct from the header round's window 0):
            // whoever delivers last for the front window is the straggler
            // holding the pipeline back
            let front = self.queue.front().map_or(self.next_seq, |s| s.seq);
            health::window_mark(front + 1, src as u32);
            self.msgq_bytes += msg.len();
            self.planner.peers[src].msgq.push_back(msg);
            if obs {
                OBS_PEAK_BUFFERED.record_max(self.buffered_bytes(scratch));
            }
            progressed = true;
        }
        // Schedule while a window buffer is free (≤ depth exist, ever).
        while !self.planner_done {
            let buf = if let Some(b) = self.free_bufs.pop() {
                b
            } else if self.bufs_allocated < self.depth {
                self.bufs_allocated += 1;
                let buf = scratch.take(self.planner.max_window());
                if obs {
                    OBS_PEAK_BUFFERED.record_max(self.buffered_bytes(scratch));
                }
                buf
            } else {
                break;
            };
            match self.planner.next_plan() {
                Some(plan) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if obs {
                        OBS_WINDOWS.incr();
                    }
                    let len = (plan.io_hi - plan.io_lo) as usize;
                    if plan.dense || self.fatal.is_some() {
                        // no pre-read needed (or storage already failed)
                        self.queue.push_back(ScheduledWin {
                            seq,
                            plan,
                            buf: Some(buf),
                            ready: true,
                        });
                    } else {
                        let ok = rjob_tx
                            .send(Job {
                                seq,
                                off: plan.io_lo,
                                len,
                                buf,
                            })
                            .is_ok();
                        debug_assert!(ok, "read lane outlives the event loop");
                        self.reads_outstanding += 1;
                        self.queue.push_back(ScheduledWin {
                            seq,
                            plan,
                            buf: None,
                            ready: false,
                        });
                    }
                    if obs {
                        OBS_INFLIGHT_WINDOWS
                            .record_max((self.queue.len() + self.writes_outstanding) as u64);
                    }
                    progressed = true;
                }
                None => {
                    self.planner_done = true;
                    self.free_bufs.push(buf);
                }
            }
        }
        // Consume the front window when complete.
        while let Some(front) = self.queue.front() {
            if !front.ready {
                break;
            }
            let all_in = front
                .plan
                .takes
                .iter()
                .enumerate()
                .all(|(p, &t)| t == 0 || !self.planner.peers[p].msgq.is_empty());
            if !all_in {
                break;
            }
            let mut sched = self.queue.pop_front().expect("front exists");
            let buf = sched.buf.take().expect("ready window owns its buffer");
            self.consume_front(sched.seq, &sched.plan, buf, comm, wjob_tx, pack_ns, scratch);
            self.planner.recycle(sched.plan);
            progressed = true;
        }
        progressed
    }

    #[allow(clippy::too_many_arguments)]
    fn consume_front(
        &mut self,
        seq: u64,
        plan: &WindowPlan,
        mut buf: Vec<u8>,
        comm: &Comm,
        wjob_tx: &Sender<Job>,
        pack_ns: &mut u64,
        scratch: &Scratch,
    ) {
        let len = (plan.io_hi - plan.io_lo) as usize;
        let navs = self.planner.navs;
        health::beat_window(HbPhase::Pack, seq);
        let _w = lio_obs::trace::span_ab("win", seq, plan.io_lo);
        lio_obs::profile::record_pipeline_window(len as u64);
        let t = lio_obs::now();
        let sp = lio_obs::trace::span_ab("pack.place", plan.io_lo, 0);
        for (p, &take) in plan.takes.iter().enumerate() {
            if take == 0 {
                continue;
            }
            let msg = self.planner.peers[p]
                .msgq
                .pop_front()
                .expect("front window message present");
            debug_assert_eq!(msg.len() as u64, take);
            self.msgq_bytes -= msg.len();
            if self.fatal.is_none() {
                self.planner.peers[p].place(navs.map(|n| &n[p]), &msg, &mut buf[..len], plan.io_lo);
            } else {
                self.planner.peers[p].skip(take);
            }
            // placed: the message now belongs to this rank's arena
            scratch.give(msg);
            // one credit per consumed message keeps the AP producing
            comm.send(p, TAG_TP_CREDIT, &[]);
        }
        drop(sp);
        *pack_ns += lio_obs::elapsed_ns(t);
        if self.fatal.is_none() {
            let ok = wjob_tx
                .send(Job {
                    seq,
                    off: plan.io_lo,
                    len,
                    buf,
                })
                .is_ok();
            debug_assert!(ok, "write lane outlives the event loop");
            self.writes_outstanding += 1;
        } else {
            self.free_bufs.push(buf);
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Pipelined collective write (see module docs for the schedule).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_at_all(
    storage: &dyn StorageFile,
    comm: &Comm,
    state: &CollState,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &[u8],
    stream_start: u64,
    total: u64,
    hints: &Hints,
    tuner: Option<&FileTuner>,
    scratch: &Scratch,
) -> Result<u64> {
    let engine = match nav {
        ViewNav::List(_) => Engine::ListBased,
        ViewNav::Ff(_) => Engine::Listless,
    };
    let obs = lio_obs::enabled();
    if obs {
        OBS_W_CALLS.incr();
    }
    let t_all = lio_obs::now();
    let mut pack_ns = 0u64;
    let mut io_wait_ns = 0u64;
    let my_range = access_range(nav, stream_start, total);
    let (domains, _ranges) = file_domains(comm, my_range, hints);
    let stream_end = stream_start + total;
    let naggr = domains.len();
    let me = comm.rank();
    let cb = hints.cb_buffer_size as u64;
    let depth = hints.effective_pipeline_depth();

    // ----- announcement phase: headers (and ol-lists) to every IOP -----
    // Every send is nonblocking, so all ranks finish this phase before
    // anyone blocks — the pipeline loops below can then never starve.
    let mut aps: Vec<Option<ApSend>> = (0..naggr).map(|_| None).collect();
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        let (s_lo, s_hi) = if my_range.is_some() {
            stream_intersection(nav, stream_start, stream_end, dom)
        } else {
            (stream_start, stream_start)
        };
        if engine == Engine::ListBased {
            let list = build_access_list(nav, s_lo, s_hi, dom);
            if obs {
                OBS_EXCH_LIST_BYTES.add(list.len() as u64);
            }
            comm.send_vec(i, TAG_TP_LIST, list);
        }
        let mut hdr = Vec::with_capacity(16);
        hdr.extend_from_slice(&s_lo.to_le_bytes());
        hdr.extend_from_slice(&s_hi.to_le_bytes());
        comm.send_vec(i, TAG_TP_DATA, hdr);
        if s_hi > s_lo {
            aps[i] = Some(ApSend {
                iop: i,
                s_hi,
                s_cursor: s_lo,
                in_flight: 0,
            });
        }
    }

    let planner = if me < naggr && domains[me].1 > domains[me].0 {
        Planner::collect(
            comm,
            domains[me],
            cb,
            engine,
            state,
            hints.detect_dense_writes,
        )?
    } else {
        None
    };
    let mut iop = planner.map(|p| IopWrite::new(p, depth));

    // ----- pipeline loop: AP production, credits, IOP consumption ------
    let io_lane_ns = AtomicU64::new(0);
    let mut fatal: Option<IoError> = None;
    std::thread::scope(|scope| {
        let (rjob_tx, rjob_rx) = mpsc::channel::<Job>();
        let (wjob_tx, wjob_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<LaneDone>();
        if iop.is_some() {
            spawn_read_lane(scope, storage, rjob_rx, done_tx.clone(), &io_lane_ns);
            spawn_write_lane(scope, storage, wjob_rx, done_tx.clone(), &io_lane_ns);
        }
        drop(done_tx);
        loop {
            let mut progressed = ap_pump(
                &mut aps,
                nav,
                comm,
                packer,
                user,
                stream_start,
                depth,
                cb,
                obs,
                &mut pack_ns,
                scratch,
            );
            while let Some((src, _)) = comm.try_recv_any(TAG_TP_CREDIT) {
                aps[src]
                    .as_mut()
                    .expect("credit from an IOP we sent to")
                    .in_flight -= 1;
                progressed = true;
            }
            if let Some(st) = iop.as_mut() {
                progressed |= st.pump(
                    comm,
                    &rjob_tx,
                    &wjob_tx,
                    &done_rx,
                    obs,
                    &mut pack_ns,
                    scratch,
                );
            }
            let aps_done = aps.iter().flatten().all(|a| a.finished());
            if aps_done && iop.as_ref().is_none_or(|s| s.done()) {
                break;
            }
            if progressed {
                continue;
            }
            if iop.as_ref().is_some_and(|s| s.storage_pending()) {
                // Blocked solely on storage: wait on the done channel (a
                // completion wakes us immediately) and book the stall as
                // I/O wait, not exchange. The storage lanes heartbeat per
                // completed job, so no beat is needed here.
                let t = lio_obs::now();
                let sp = lio_obs::trace::span("io.wait");
                let got = done_rx.recv_timeout(IO_WAIT_SLICE);
                drop(sp);
                io_wait_ns += lio_obs::elapsed_ns(t);
                if let Ok(d) = got {
                    iop.as_mut()
                        .expect("storage pending implies IOP")
                        .on_done(d);
                }
            } else {
                // Waiting on peers (credits or window messages): a wait
                // phase, so the watchdog blames whoever we wait for.
                health::beat(HbPhase::ExchangeWait);
                std::thread::yield_now();
            }
        }
        if let Some(st) = iop.take() {
            // every lane job has completed: all window buffers are home
            for buf in st.free_bufs {
                scratch.give(buf);
            }
            fatal = st.fatal;
        }
    });
    health::window_flush();

    // Tuner outcome: before the closing barrier, so every rank's report
    // is merged before the next op's decision runs.
    if let Some(tu) = tuner {
        match &fatal {
            Some(_) => tu.abort_op(),
            None => {
                let wall = lio_obs::elapsed_ns(t_all);
                let io_ns = io_lane_ns.load(Ordering::Relaxed);
                let exch_ns = wall.saturating_sub(pack_ns + io_wait_ns);
                tu.finish_op(OpOutcome {
                    write: true,
                    wall_ns: wall,
                    exchange_ns: exch_ns,
                    io_ns,
                    pack_ns,
                    overlap_ns: (exch_ns + pack_ns + io_ns).saturating_sub(wall),
                    bytes: total,
                    span: domains.iter().map(|d| d.1.saturating_sub(d.0)).sum(),
                });
            }
        }
    }
    comm.barrier();
    if obs {
        let wall = lio_obs::elapsed_ns(t_all);
        let io_ns = io_lane_ns.load(Ordering::Relaxed);
        let exch_ns = wall.saturating_sub(pack_ns + io_wait_ns);
        OBS_W_EXCH_NS.add(exch_ns);
        OBS_W_PACK_NS.add(pack_ns);
        OBS_W_IO_NS.add(io_ns);
        OBS_W_OVERLAP_NS.add((exch_ns + pack_ns + io_ns).saturating_sub(wall));
    }
    match fatal {
        Some(e) => {
            OBS_FAULT_ABORTS.incr();
            lio_obs::trace::flight_dump("pipelined collective write aborted on a storage fault");
            Err(e)
        }
        None => Ok(total),
    }
}

/// Pipelined collective read. The flow is one-directional (storage →
/// IOP → AP), so no credits are needed: the IOP keeps `pipeline_depth`
/// window pre-reads in flight and ships each AP its share of a window as
/// soon as the pre-read lands, while later pre-reads are already queued.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_at_all(
    storage: &dyn StorageFile,
    comm: &Comm,
    state: &CollState,
    nav: &ViewNav,
    packer: &MemPacker,
    user: &mut [u8],
    stream_start: u64,
    total: u64,
    hints: &Hints,
    tuner: Option<&FileTuner>,
    scratch: &Scratch,
) -> Result<u64> {
    let engine = match nav {
        ViewNav::List(_) => Engine::ListBased,
        ViewNav::Ff(_) => Engine::Listless,
    };
    let obs = lio_obs::enabled();
    if obs {
        OBS_R_CALLS.incr();
    }
    let t_all = lio_obs::now();
    let mut pack_ns = 0u64;
    let mut io_wait_ns = 0u64;
    let my_range = access_range(nav, stream_start, total);
    let (domains, _ranges) = file_domains(comm, my_range, hints);
    let stream_end = stream_start + total;
    let naggr = domains.len();
    let me = comm.rank();
    let cb = hints.cb_buffer_size as u64;
    let depth = hints.effective_pipeline_depth();

    // ----- announcement phase ------------------------------------------
    let mut my_intersections = vec![(stream_start, stream_start); naggr];
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        let (s_lo, s_hi) = if my_range.is_some() {
            stream_intersection(nav, stream_start, stream_end, dom)
        } else {
            (stream_start, stream_start)
        };
        my_intersections[i] = (s_lo, s_hi);
        if engine == Engine::ListBased {
            let list = build_access_list(nav, s_lo, s_hi, dom);
            if obs {
                OBS_EXCH_LIST_BYTES.add(list.len() as u64);
            }
            comm.send_vec(i, TAG_TP_LIST, list);
        }
        let mut hdr = Vec::with_capacity(16);
        hdr.extend_from_slice(&s_lo.to_le_bytes());
        hdr.extend_from_slice(&s_hi.to_le_bytes());
        comm.send_vec(i, TAG_TP_DATA, hdr);
    }

    // ----- IOP pipeline: pre-read depth windows ahead, ship shares -----
    let io_lane_ns = AtomicU64::new(0);
    let mut fatal: Option<IoError> = None;
    if me < naggr && domains[me].1 > domains[me].0 {
        if let Some(mut planner) = Planner::collect(comm, domains[me], cb, engine, state, false)? {
            std::thread::scope(|scope| {
                let (rjob_tx, rjob_rx) = mpsc::channel::<Job>();
                let (done_tx, done_rx) = mpsc::channel::<LaneDone>();
                spawn_read_lane(scope, storage, rjob_rx, done_tx, &io_lane_ns);
                let mut queue: VecDeque<WindowPlan> = VecDeque::new();
                let mut free_bufs: Vec<Vec<u8>> = Vec::new();
                let mut bufs_allocated = 0usize;
                let mut next_seq = 0u64;
                let mut front_seq = 0u64;
                let mut pending: HashMap<u64, (Vec<u8>, Result<()>)> = HashMap::new();
                let mut planner_done = false;
                loop {
                    while !planner_done && queue.len() < depth {
                        let buf = if let Some(b) = free_bufs.pop() {
                            b
                        } else if bufs_allocated < depth {
                            bufs_allocated += 1;
                            let buf = scratch.take(planner.max_window());
                            if obs {
                                OBS_PEAK_BUFFERED.record_max(
                                    (bufs_allocated * planner.max_window() + scratch.held()) as u64,
                                );
                            }
                            buf
                        } else {
                            break;
                        };
                        match planner.next_plan() {
                            Some(plan) => {
                                if obs {
                                    OBS_WINDOWS.incr();
                                }
                                let ok = rjob_tx
                                    .send(Job {
                                        seq: next_seq,
                                        off: plan.io_lo,
                                        len: (plan.io_hi - plan.io_lo) as usize,
                                        buf,
                                    })
                                    .is_ok();
                                debug_assert!(ok, "read lane outlives the loop");
                                next_seq += 1;
                                queue.push_back(plan);
                                if obs {
                                    OBS_INFLIGHT_WINDOWS.record_max(queue.len() as u64);
                                }
                            }
                            None => {
                                planner_done = true;
                                free_bufs.push(buf);
                            }
                        }
                    }
                    let Some(plan) = queue.pop_front() else {
                        break;
                    };
                    // Plans were submitted in seq order, but the lane may
                    // complete them out of order (the submission-queue
                    // backend harvests in device order): buffer strays
                    // until the front window's own completion lands.
                    let seq = front_seq;
                    front_seq += 1;
                    let (buf, res) = loop {
                        if let Some(hit) = pending.remove(&seq) {
                            break hit;
                        }
                        let t = lio_obs::now();
                        let sp = lio_obs::trace::span("io.wait");
                        let done = done_rx.recv().expect("read lane alive");
                        drop(sp);
                        io_wait_ns += lio_obs::elapsed_ns(t);
                        let LaneDone::Read { seq: got, buf, res } = done else {
                            unreachable!("read pipeline has no write lane");
                        };
                        pending.insert(got, (buf, res));
                    };
                    if let Err(e) = res {
                        fatal.get_or_insert(e);
                    }
                    let len = (plan.io_hi - plan.io_lo) as usize;
                    let navs = planner.navs;
                    health::beat_window(HbPhase::Pack, seq);
                    let _w = lio_obs::trace::span_ab("win", plan.io_lo, plan.io_hi - plan.io_lo);
                    lio_obs::profile::record_pipeline_window(len as u64);
                    let t = lio_obs::now();
                    let sp = lio_obs::trace::span_ab("pack.place", plan.io_lo, 0);
                    for (p, &take) in plan.takes.iter().enumerate() {
                        if take == 0 {
                            continue;
                        }
                        let mut out = scratch.take(take as usize);
                        if fatal.is_none() {
                            planner.peers[p].extract(
                                navs.map(|n| &n[p]),
                                &buf[..len],
                                plan.io_lo,
                                &mut out,
                            );
                        } else {
                            // unblock the AP with zeros; the error is
                            // reported from this rank's return value
                            out.fill(0);
                            planner.peers[p].skip(take);
                        }
                        if obs {
                            OBS_EXCH_DATA_BYTES.add(take);
                        }
                        health::beat_bytes(HbPhase::Exchange, take);
                        comm.send_vec(p, TAG_TP_RDATA, out);
                    }
                    drop(sp);
                    pack_ns += lio_obs::elapsed_ns(t);
                    free_bufs.push(buf);
                    planner.recycle(plan);
                }
                // every pre-read was consumed: all window buffers are home
                for buf in free_bufs {
                    scratch.give(buf);
                }
            });
        }
    }

    // ----- AP phase: receive window shares in arrival order ------------
    let mut pend: Vec<(usize, u64, u64)> = Vec::new();
    for (i, &(s_lo, s_hi)) in my_intersections.iter().enumerate() {
        if s_hi > s_lo {
            pend.push((i, s_lo, s_hi));
        }
    }
    let mut reqs: Vec<lio_mpi::Request> = pend
        .iter()
        .map(|&(i, _, _)| comm.irecv(i, TAG_TP_RDATA))
        .collect();
    let mut remaining = pend.len();
    while remaining > 0 {
        let sp = lio_obs::trace::span("exch.wait");
        let (idx, src, chunk) = comm.wait_any(&mut reqs);
        drop(sp);
        debug_assert_eq!(src, pend[idx].0);
        health::beat(HbPhase::Pack);
        let t = lio_obs::now();
        let sp = lio_obs::trace::span_ab("unpack", chunk.len() as u64, 0);
        let put = packer.unpack(&chunk, user, pend[idx].1 - stream_start);
        drop(sp);
        pack_ns += lio_obs::elapsed_ns(t);
        debug_assert_eq!(put, chunk.len());
        pend[idx].1 += chunk.len() as u64;
        scratch.give(chunk);
        if pend[idx].1 < pend[idx].2 {
            reqs[idx] = comm.irecv(src, TAG_TP_RDATA);
        } else {
            remaining -= 1;
        }
    }
    if obs {
        let wall = lio_obs::elapsed_ns(t_all);
        let io_ns = io_lane_ns.load(Ordering::Relaxed);
        let exch_ns = wall.saturating_sub(pack_ns + io_wait_ns);
        OBS_R_EXCH_NS.add(exch_ns);
        OBS_R_PACK_NS.add(pack_ns);
        OBS_R_IO_NS.add(io_ns);
        OBS_R_OVERLAP_NS.add((exch_ns + pack_ns + io_ns).saturating_sub(wall));
    }
    // Tuner outcome (reads have no closing barrier: straggler reports
    // are dropped as stale by the tuner).
    if let Some(tu) = tuner {
        match &fatal {
            Some(_) => tu.abort_op(),
            None => {
                let wall = lio_obs::elapsed_ns(t_all);
                let io_ns = io_lane_ns.load(Ordering::Relaxed);
                let exch_ns = wall.saturating_sub(pack_ns + io_wait_ns);
                tu.finish_op(OpOutcome {
                    write: false,
                    wall_ns: wall,
                    exchange_ns: exch_ns,
                    io_ns,
                    pack_ns,
                    overlap_ns: (exch_ns + pack_ns + io_ns).saturating_sub(wall),
                    bytes: total,
                    span: domains.iter().map(|d| d.1.saturating_sub(d.0)).sum(),
                });
            }
        }
    }
    match fatal {
        Some(e) => {
            OBS_FAULT_ABORTS.incr();
            lio_obs::trace::flight_dump("pipelined collective read aborted on a storage fault");
            Err(e)
        }
        None => Ok(total),
    }
}
