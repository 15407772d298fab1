//! Collective file access: the two-phase method.
//!
//! Collective reads/writes are performed by **io-processes** (IOPs) that
//! touch the file, on behalf of all **access-processes** (APs) — paper
//! Section 2.3. The file range touched by the collective call is split
//! evenly among the IOPs (*file domains*); each AP ships the part of its
//! access falling into each IOP's domain; each IOP loops over its domain
//! in `cb_buffer_size` windows, sieving data in or out of a window buffer.
//! Windows lie on the absolute grid of `crate::window`, and interior
//! domain boundaries are rounded to it ([`file_domains`]).
//!
//! The two engines share this skeleton and differ in exactly the ways the
//! paper describes:
//!
//! * **list-based**: every AP builds an **ol-list of absolute
//!   `⟨offset, length⟩` tuples covering each IOP's domain** — size
//!   `O(Saccess/Sextent · Nblock)`, i.e. proportional to the access, not
//!   the filetype — and sends it with the data (16 bytes of metadata per
//!   tuple). For writes, the IOP merges all received lists
//!   (`O(Σ_p Nblock(p))`) to detect fully-covered windows.
//! * **listless**: fileview caching means the IOP already has every AP's
//!   `(disp, filetype)` (exchanged compactly at `set_view`), so messages
//!   carry *only data*; placement uses flattening-on-the-fly, and the
//!   covered-window test is one `O(depth)` mergeview evaluation.
//!
//! Two exchange schedules share this file's skeleton. The default
//! (monolithic) schedule ships data for a whole file domain in one
//! message per (AP, IOP) pair — communication volume and list-handling
//! costs (the quantities the paper measures) are preserved at the price
//! of a larger transient memory footprint and strictly additive
//! exchange/storage phases. The **pipelined** schedule
//! ([`crate::pipeline`], selected by the `two_phase_pipeline` hint or
//! the `LIO_PIPELINE` environment variable, which `File::open` folds into
//! the hint) ships the same bytes window by window with credit-based flow
//! control, bounding IOP memory at
//! `O(pipeline_depth · cb_buffer_size · nprocs)` and overlapping storage
//! I/O with the exchange.

use lio_datatype::{bytes_below_tiled, serialize, Datatype, Field};
use lio_mpi::Comm;
use lio_obs::LazyCounter;
use lio_pfs::StorageFile;

use crate::autotune::{FileTuner, OpOutcome};
use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::MemPacker;
use crate::scratch::Scratch;
use crate::view::{FfNav, FileView, RunTally, ViewNav};
use crate::window::{snap, WindowIo, Windows};
use lio_obs::health::{self, HbPhase};

// Two-phase breakdown metrics. The `_ns` counters accumulate wall time per
// phase across all rounds on this process: `exchange_ns` covers AP↔IOP
// message traffic (sends, receives, the closing barrier), `io_ns` covers
// storage reads/writes of window buffers, and `pack_ns` covers all
// pack/unpack/place/extract memory movement. `exchange.list_bytes` counts
// ol-list metadata shipped (list-based engine only; always 0 for listless —
// the paper's "16 bytes per tuple" overhead), `exchange.data_bytes` the
// payload proper.
pub(crate) static OBS_W_CALLS: LazyCounter = LazyCounter::new("core.coll.write.calls");
pub(crate) static OBS_W_EXCH_NS: LazyCounter = LazyCounter::new("core.coll.write.exchange_ns");
pub(crate) static OBS_W_IO_NS: LazyCounter = LazyCounter::new("core.coll.write.io_ns");
pub(crate) static OBS_W_PACK_NS: LazyCounter = LazyCounter::new("core.coll.write.pack_ns");
pub(crate) static OBS_R_CALLS: LazyCounter = LazyCounter::new("core.coll.read.calls");
pub(crate) static OBS_R_EXCH_NS: LazyCounter = LazyCounter::new("core.coll.read.exchange_ns");
pub(crate) static OBS_R_IO_NS: LazyCounter = LazyCounter::new("core.coll.read.io_ns");
pub(crate) static OBS_R_PACK_NS: LazyCounter = LazyCounter::new("core.coll.read.pack_ns");
pub(crate) static OBS_EXCH_LIST_BYTES: LazyCounter =
    LazyCounter::new("core.coll.exchange.list_bytes");
pub(crate) static OBS_EXCH_DATA_BYTES: LazyCounter =
    LazyCounter::new("core.coll.exchange.data_bytes");
pub(crate) static OBS_WINDOWS: LazyCounter = LazyCounter::new("core.coll.windows");
/// Collective calls that aborted on a permanent storage fault — counted
/// after the closing rank-sync, so an abort is always a clean abort.
pub(crate) static OBS_FAULT_ABORTS: LazyCounter = LazyCounter::new("core.coll.fault_aborts");

/// Tag for the ol-list message (list-based engine only).
pub(crate) const TAG_TP_LIST: u64 = 101;
/// Tag for AP→IOP write data / access headers.
pub(crate) const TAG_TP_DATA: u64 = 102;
/// Tag for IOP→AP read data.
pub(crate) const TAG_TP_RDATA: u64 = 103;
/// Tag for one window's worth of AP→IOP write data (pipelined path).
pub(crate) const TAG_TP_WIN: u64 = 104;
/// Tag for IOP→AP flow-control credits (pipelined path).
pub(crate) const TAG_TP_CREDIT: u64 = 105;

/// Collective state established at `set_view` time.
pub(crate) struct CollState {
    /// Listless: every rank's cached fileview (fileview caching).
    pub remote_navs: Option<Vec<FfNav>>,
    /// Listless: the mergeview, when all ranks share disp and extent.
    pub merge: Option<MergeView>,
}

/// The overlay of all ranks' filetypes (Section 3.2.3): a struct type
/// whose coverage test answers "does this collective write cover the
/// window completely?" in `O(depth)`.
pub(crate) struct MergeView {
    dtype: Datatype,
    disp: u64,
}

impl MergeView {
    /// Whether the data of one collective write fills `[lo, hi)`, so that
    /// the window needs no pre-read: the union of the fileviews covers
    /// the range, **and** every AP supplies all of its view's bytes in it
    /// (`takes[k]` is what AP `k` ships for the range). The mergeview
    /// alone only knows what the views *could* cover; an AP that writes
    /// fewer bytes than its view holds there leaves file bytes that must
    /// survive. `O(depth)` per AP, still no list.
    pub fn filled_by(&self, navs: &[FfNav], takes: &[u64], lo: u64, hi: u64) -> bool {
        self.covered(lo, hi)
            && navs
                .iter()
                .zip(takes)
                .all(|(nav, &take)| take == nav.bytes_in(lo, hi))
    }

    /// Whether file range `[lo, hi)` is fully covered by the union of all
    /// fileviews.
    fn covered(&self, lo: u64, hi: u64) -> bool {
        if hi <= lo {
            return true;
        }
        if lo < self.disp {
            return false;
        }
        let a = (lo - self.disp) as i64;
        let b = (hi - self.disp) as i64;
        bytes_below_tiled(&self.dtype, b) - bytes_below_tiled(&self.dtype, a) == hi - lo
    }
}

/// Establish the collective state for a new fileview. Collective: every
/// rank calls this with its own view.
pub(crate) fn establish_view(comm: &Comm, view: &FileView, engine: Engine) -> Result<CollState> {
    match engine {
        Engine::ListBased => {
            // ROMIO exchanges nothing at view time; ol-lists travel with
            // every collective access instead.
            Ok(CollState {
                remote_navs: None,
                merge: None,
            })
        }
        Engine::Listless => {
            // fileview caching: one compact exchange per set_view
            let mut msg = Vec::with_capacity(64);
            msg.extend_from_slice(&view.disp.to_le_bytes());
            serialize::encode_into(&view.filetype, &mut msg);
            let all = comm.allgather(msg);
            let mut views = Vec::with_capacity(all.len());
            for buf in &all {
                let disp = u64::from_le_bytes(buf[0..8].try_into().expect("disp"));
                let ftype = serialize::decode(&buf[8..])?;
                views.push(FileView {
                    disp,
                    etype: Datatype::byte(),
                    filetype: ftype,
                });
            }
            let merge = build_mergeview(&views)?;
            let remote_navs = Some(views.into_iter().map(FfNav::new).collect());
            Ok(CollState { remote_navs, merge })
        }
    }
}

/// Build the mergeview when all ranks share the displacement and filetype
/// extent (the paper's stated applicability condition).
fn build_mergeview(views: &[FileView]) -> Result<Option<MergeView>> {
    let disp = views[0].disp;
    let ext = views[0].filetype.extent();
    if !views
        .iter()
        .all(|v| v.disp == disp && v.filetype.extent() == ext)
    {
        return Ok(None);
    }
    let fields: Vec<Field> = views
        .iter()
        .map(|v| Field {
            disp: 0,
            count: 1,
            child: v.filetype.clone(),
        })
        .collect();
    let merged = Datatype::struct_type(fields)?;
    let merged = Datatype::resized(&merged, 0, ext)?;
    // tiled counting requires instance-confined data
    if merged.data_ub() - merged.data_lb() > merged.extent() as i64 || merged.data_lb() < 0 {
        return Ok(None);
    }
    Ok(Some(MergeView {
        dtype: merged,
        disp,
    }))
}

/// This rank's absolute access range for `total` stream bytes from
/// `stream_start`; `None` when empty.
pub(crate) fn access_range(nav: &ViewNav, stream_start: u64, total: u64) -> Option<(u64, u64)> {
    if total == 0 {
        return None;
    }
    let lo = nav.stream_to_abs(stream_start);
    let hi = nav.stream_to_abs(stream_start + total - 1) + 1;
    Some((lo, hi))
}

/// Per-IOP file domains plus each rank's access range.
pub(crate) type Domains = (Vec<(u64, u64)>, Vec<Option<(u64, u64)>>);

/// Exchange access ranges and compute the per-IOP file domains.
pub(crate) fn file_domains(comm: &Comm, range: Option<(u64, u64)>, hints: &Hints) -> Domains {
    let mut msg = [0u8; 16];
    let (lo, hi) = range.unwrap_or((u64::MAX, 0));
    msg[0..8].copy_from_slice(&lo.to_le_bytes());
    msg[8..16].copy_from_slice(&hi.to_le_bytes());
    let all = comm.allgather(msg.to_vec());
    let ranges: Vec<Option<(u64, u64)>> = all
        .iter()
        .map(|b| {
            let lo = u64::from_le_bytes(b[0..8].try_into().expect("lo"));
            let hi = u64::from_le_bytes(b[8..16].try_into().expect("hi"));
            (hi > lo && lo != u64::MAX).then_some((lo, hi))
        })
        .collect();
    let min_st = ranges.iter().flatten().map(|r| r.0).min();
    let max_end = ranges.iter().flatten().map(|r| r.1).max();
    let naggr = hints.effective_io_nodes(comm.size());
    let mut domains = vec![(0u64, 0u64); naggr];
    if let (Some(lo), Some(hi)) = (min_st, max_end) {
        let span = hi - lo;
        let chunk = span.div_ceil(naggr as u64).max(1);
        // ROMIO's striping-unit rule: when every IOP can have a whole
        // window, interior boundaries move to the nearest grid line, so no
        // two IOPs share a window cell and only the requests at the
        // collective's own `lo` and `hi` are off the grid. A shorter span
        // keeps the even split: balance matters more than alignment there.
        let cb = hints.cb_buffer_size.max(1) as u64;
        let on_grid = span / cb >= naggr as u64;
        let mut a = lo;
        for (i, d) in domains.iter_mut().enumerate() {
            let mut b = lo + ((i as u64 + 1) * chunk).min(span);
            if on_grid && i + 1 < naggr {
                b = snap(b, cb, a, hi);
            }
            *d = (a, b);
            a = b;
        }
    }
    // Every rank sees the same allgathered ranges; rank 0 records the
    // collective's domain geometry once per op so the profile is not
    // multiplied by the communicator size.
    if lio_obs::profile::enabled() && comm.rank() == 0 {
        profile_domains(&ranges, min_st, max_end);
    }
    (domains, ranges)
}

/// Profile the file-domain geometry of one collective op: overall span,
/// union coverage of the per-rank access envelopes, and how much those
/// envelopes overlap each other (interleaved views overlap heavily; the
/// paper's Figure 4 pattern is the extreme case).
fn profile_domains(ranges: &[Option<(u64, u64)>], min_st: Option<u64>, max_end: Option<u64>) {
    let (Some(lo), Some(hi)) = (min_st, max_end) else {
        return;
    };
    let mut sorted: Vec<(u64, u64)> = ranges.iter().flatten().copied().collect();
    sorted.sort_unstable();
    let mut union = 0u64;
    let mut sum = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in &sorted {
        sum += b - a;
        cur = Some(match cur {
            Some((cs, ce)) if a <= ce => (cs, ce.max(b)),
            Some((cs, ce)) => {
                union += ce - cs;
                (a, b)
            }
            None => (a, b),
        });
    }
    if let Some((cs, ce)) = cur {
        union += ce - cs;
    }
    lio_obs::profile::record_domains(hi - lo, union, sum - union);
    for (r, span) in ranges.iter().enumerate() {
        if let Some((a, b)) = span {
            lio_obs::profile::record_rank_access(r as u32, b - a);
        }
    }
}

/// The intersection of this rank's stream interval with an IOP domain,
/// expressed in stream positions.
pub(crate) fn stream_intersection(
    nav: &ViewNav,
    stream_start: u64,
    stream_end: u64,
    dom: (u64, u64),
) -> (u64, u64) {
    let a = nav.abs_to_stream(dom.0).clamp(stream_start, stream_end);
    let b = nav.abs_to_stream(dom.1).clamp(stream_start, stream_end);
    (a, b)
}

/// Serialize this rank's access runs within `dom` as an absolute ol-list
/// (the list the list-based AP must build and ship for every collective
/// access).
pub(crate) fn build_access_list(nav: &ViewNav, s_lo: u64, s_hi: u64, dom: (u64, u64)) -> Vec<u8> {
    let mut out = Vec::new();
    if s_hi <= s_lo {
        return out;
    }
    let ViewNav::List(list_nav) = nav else {
        unreachable!("access lists are a list-based concept");
    };
    let mut remaining = s_hi - s_lo;
    for run in list_nav.runs_from(s_lo) {
        if remaining == 0 {
            break;
        }
        let take = run.len.min(remaining);
        let abs = run.disp as u64;
        debug_assert!(
            abs >= dom.0 && abs + take <= dom.1,
            "run escapes the domain"
        );
        out.extend_from_slice(&abs.to_le_bytes());
        out.extend_from_slice(&take.to_le_bytes());
        remaining -= take;
    }
    out
}

/// An ol-list received from an AP, with its data, consumed window by
/// window through a cursor (the IOP-side list walking of Section 2.3).
struct RecvList {
    /// Absolute `(offset, len)` pairs.
    segs: Vec<(u64, u64)>,
    /// Writes: the AP's data message. Reads: the reply being assembled.
    data: Vec<u8>,
    seg_i: usize,
    seg_off: u64,
    /// How far `data` has been consumed (writes) or filled (reads).
    data_pos: usize,
}

/// Decode serialized `(offset, len)` pairs (the wire form of
/// [`build_access_list`]).
pub(crate) fn parse_ol_list(list_bytes: &[u8]) -> Result<Vec<(u64, u64)>> {
    if !list_bytes.len().is_multiple_of(16) {
        return Err(IoError::Usage("malformed access list".into()));
    }
    Ok(list_bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().expect("offset")),
                u64::from_le_bytes(c[8..16].try_into().expect("len")),
            )
        })
        .collect())
}

impl RecvList {
    /// Parse a received list and adopt the data message as-is; `base` is
    /// where the payload starts inside `data` (the 16-byte header is
    /// skipped by offset rather than copied out — zero-copy receive).
    fn parse(list_bytes: &[u8], data: Vec<u8>, base: usize) -> Result<RecvList> {
        Ok(RecvList::new(parse_ol_list(list_bytes)?, data, base))
    }

    /// A cursor at the start of `segs`, with `data` at position `base`.
    fn new(segs: Vec<(u64, u64)>, data: Vec<u8>, base: usize) -> RecvList {
        RecvList {
            segs,
            data,
            seg_i: 0,
            seg_off: 0,
            data_pos: base,
        }
    }

    /// Copy this AP's bytes falling inside `[win_start, win_end)` from its
    /// data buffer into the window.
    fn place_into(&mut self, fb: &mut [u8], win_start: u64, win_end: u64) {
        while self.seg_i < self.segs.len() {
            let (off, len) = self.segs[self.seg_i];
            let cur = off + self.seg_off;
            if cur >= win_end {
                break;
            }
            debug_assert!(cur >= win_start, "cursor fell behind the window");
            let avail = len - self.seg_off;
            let take = avail.min(win_end - cur);
            let o = (cur - win_start) as usize;
            fb[o..o + take as usize]
                .copy_from_slice(&self.data[self.data_pos..self.data_pos + take as usize]);
            self.data_pos += take as usize;
            if take == avail {
                self.seg_i += 1;
                self.seg_off = 0;
            } else {
                self.seg_off += take;
                break;
            }
        }
    }

    /// Copy this AP's bytes falling inside `[win_start, win_end)` out of
    /// the window into the next unfilled bytes of `data`.
    fn extract_from(&mut self, fb: &[u8], win_start: u64, win_end: u64) {
        while self.seg_i < self.segs.len() {
            let (off, len) = self.segs[self.seg_i];
            let cur = off + self.seg_off;
            if cur >= win_end {
                break;
            }
            debug_assert!(cur >= win_start);
            let avail = len - self.seg_off;
            let take = avail.min(win_end - cur);
            let o = (cur - win_start) as usize;
            self.data[self.data_pos..self.data_pos + take as usize]
                .copy_from_slice(&fb[o..o + take as usize]);
            self.data_pos += take as usize;
            if take == avail {
                self.seg_i += 1;
                self.seg_off = 0;
            } else {
                self.seg_off += take;
                break;
            }
        }
    }

    /// First uncopied absolute offset, if any.
    fn next_offset(&self) -> Option<u64> {
        self.segs.get(self.seg_i).map(|(o, _)| o + self.seg_off)
    }

    /// Last absolute offset + 1 across all segments.
    fn end_offset(&self) -> Option<u64> {
        self.segs.last().map(|(o, l)| o + l)
    }
}

/// Cursor over a merged ol-list for covered-window tests (the list-based
/// collective-write optimization).
pub(crate) struct Coverage {
    segs: Vec<(u64, u64)>,
    i: usize,
}

impl Coverage {
    /// Merge per-AP lists (`O(Σ_p N(p))` as the paper notes).
    pub(crate) fn merge_segs(lists: &[&[(u64, u64)]]) -> Coverage {
        let mut all: Vec<(u64, u64)> = Vec::new();
        let mut cursors = vec![0usize; lists.len()];
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (li, l) in lists.iter().enumerate() {
                if let Some(&(off, _)) = l.get(cursors[li]) {
                    if best.is_none_or(|(_, o)| off < o) {
                        best = Some((li, off));
                    }
                }
            }
            let Some((li, _)) = best else { break };
            let (off, len) = lists[li][cursors[li]];
            cursors[li] += 1;
            if let Some(last) = all.last_mut() {
                if off <= last.0 + last.1 {
                    let end = (off + len).max(last.0 + last.1);
                    last.1 = end - last.0;
                    continue;
                }
            }
            all.push((off, len));
        }
        Coverage { segs: all, i: 0 }
    }

    fn merge(lists: &[&RecvList]) -> Coverage {
        let segs: Vec<&[(u64, u64)]> = lists.iter().map(|l| l.segs.as_slice()).collect();
        Coverage::merge_segs(&segs)
    }

    /// Whether `[lo, hi)` is fully inside one merged segment. Windows are
    /// probed in increasing order, so a cursor suffices.
    pub(crate) fn covered(&mut self, lo: u64, hi: u64) -> bool {
        // skip segments that end at or before the window: they can never
        // cover this or any later window
        while self.i < self.segs.len() && self.segs[self.i].0 + self.segs[self.i].1 <= lo {
            self.i += 1;
        }
        match self.segs.get(self.i) {
            Some(&(o, l)) => o <= lo && o + l >= hi,
            None => false,
        }
    }
}

/// Listless placement bookkeeping for one AP at one IOP. Adopts the
/// received message wholesale; `base` marks where the payload starts
/// (past the 16-byte header) so no re-allocating copy is made.
struct FfPlacement<'a> {
    nav: &'a FfNav,
    msg: Vec<u8>,
    base: usize,
    s_lo: u64,
    s_hi: u64,
}

impl FfPlacement<'_> {
    fn data(&self) -> &[u8] {
        &self.msg[self.base..]
    }
}

/// Collective write. Every rank calls this; returns bytes written by this
/// rank's access.
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
    // the root trace span delimiting this collective op (both schedules):
    // the critical-path analyzer keys on its tag
    let _root = lio_obs::trace::span_ab("coll.write", total, 0);
    if hints.two_phase_pipeline {
        return crate::pipeline::write_at_all(
            storage,
            comm,
            state,
            nav,
            packer,
            user,
            stream_start,
            total,
            hints,
            tuner,
            scratch,
        );
    }
    let t_op = lio_obs::now();
    let engine = match nav {
        ViewNav::List(_) => Engine::ListBased,
        ViewNav::Ff(_) => Engine::Listless,
    };
    let obs = lio_obs::enabled();
    if obs {
        OBS_W_CALLS.incr();
    }
    let mut exch_ns = 0u64;
    let mut pack_ns = 0u64;
    let my_range = access_range(nav, stream_start, total);
    let t = lio_obs::now();
    let (domains, _ranges) = file_domains(comm, my_range, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    let stream_end = stream_start + total;
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: ship lists (list-based) and data ------------------
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        let (s_lo, s_hi) = if my_range.is_some() {
            stream_intersection(nav, stream_start, stream_end, dom)
        } else {
            (stream_start, stream_start)
        };
        let n = s_hi - s_lo;
        if engine == Engine::ListBased {
            let list = build_access_list(nav, s_lo, s_hi, dom);
            if obs {
                OBS_EXCH_LIST_BYTES.add(list.len() as u64);
            }
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("exch.send", i as u64, 0);
            comm.send_vec(i, TAG_TP_LIST, list);
            drop(sp);
            exch_ns += lio_obs::elapsed_ns(t);
        }
        let mut msg = scratch.take(16 + n as usize);
        msg[0..8].copy_from_slice(&s_lo.to_le_bytes());
        msg[8..16].copy_from_slice(&s_hi.to_le_bytes());
        if n > 0 {
            health::beat(HbPhase::Pack);
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("pack", n, 0);
            let got = packer.pack(user, s_lo - stream_start, &mut msg[16..]);
            debug_assert_eq!(got as u64, n);
            drop(sp);
            pack_ns += lio_obs::elapsed_ns(t);
        }
        if obs {
            OBS_EXCH_DATA_BYTES.add(n);
        }
        health::beat_bytes(HbPhase::Exchange, n);
        let t = lio_obs::now();
        let sp = lio_obs::trace::span_ab("exch.send", i as u64, n);
        comm.send_vec(i, TAG_TP_DATA, msg);
        drop(sp);
        exch_ns += lio_obs::elapsed_ns(t);
    }

    // ----- IOP phase ----------------------------------------------------
    // A storage fault on an IOP must not strand the other ranks at the
    // closing barrier, so IOP errors are captured, every rank reaches the
    // barrier, and the error surfaces only after the world is in sync.
    // (All AP→IOP messages were received above the window loop, so an
    // aborted IOP leaves nothing in flight.)
    let mut fatal: Option<IoError> = None;
    let mut iop_io = 0u64;
    let mut iop_pack = 0u64;
    if me < naggr && domains[me].1 > domains[me].0 {
        let dom = domains[me];
        let res: Result<(u64, u64)> = (|| {
            match engine {
                Engine::ListBased => {
                    // Complete receives in arrival order (no head-of-line
                    // blocking on rank 0), then assemble in rank order.
                    let p_n = comm.size();
                    let mut lists: Vec<Option<Vec<u8>>> = (0..p_n).map(|_| None).collect();
                    let mut datas: Vec<Option<Vec<u8>>> = (0..p_n).map(|_| None).collect();
                    let t = lio_obs::now();
                    let sp = lio_obs::trace::span("exch.wait");
                    let mut reqs: Vec<lio_mpi::Request> = Vec::with_capacity(2 * p_n);
                    for p in 0..p_n {
                        reqs.push(comm.irecv(p, TAG_TP_LIST));
                        reqs.push(comm.irecv(p, TAG_TP_DATA));
                    }
                    for _ in 0..2 * p_n {
                        let (i, src, payload) = comm.wait_any(&mut reqs);
                        if i % 2 == 0 {
                            lists[src] = Some(payload);
                        } else {
                            // one contribution per AP: its arrival time
                            // feeds the per-op rank-skew histogram
                            health::window_mark(0, src as u32);
                            datas[src] = Some(payload);
                        }
                    }
                    drop(sp);
                    health::window_flush();
                    exch_ns += lio_obs::elapsed_ns(t);
                    let mut recv: Vec<RecvList> = Vec::with_capacity(p_n);
                    for (list_bytes, msg) in lists.iter().zip(datas) {
                        let list_bytes = list_bytes.as_ref().expect("all lists received");
                        let msg = msg.expect("all data messages received");
                        recv.push(RecvList::parse(list_bytes, msg, 16)?);
                    }
                    let done = iop_write_listbased(storage, dom, &mut recv, hints, scratch);
                    // placed: the messages now belong to this rank's arena
                    for r in recv {
                        scratch.give(r.data);
                    }
                    done
                }
                Engine::Listless => {
                    let navs = state
                        .remote_navs
                        .as_ref()
                        .expect("listless collective requires cached fileviews");
                    let p_n = comm.size();
                    let mut msgs: Vec<Option<Vec<u8>>> = (0..p_n).map(|_| None).collect();
                    let t = lio_obs::now();
                    let sp = lio_obs::trace::span("exch.wait");
                    let mut reqs: Vec<lio_mpi::Request> =
                        (0..p_n).map(|p| comm.irecv(p, TAG_TP_DATA)).collect();
                    for _ in 0..p_n {
                        let (_, src, payload) = comm.wait_any(&mut reqs);
                        health::window_mark(0, src as u32);
                        msgs[src] = Some(payload);
                    }
                    drop(sp);
                    health::window_flush();
                    exch_ns += lio_obs::elapsed_ns(t);
                    let mut placements: Vec<FfPlacement> = Vec::with_capacity(p_n);
                    for (nav_p, msg) in navs.iter().zip(msgs) {
                        let msg = msg.expect("all data messages received");
                        let s_lo = u64::from_le_bytes(msg[0..8].try_into().expect("s_lo"));
                        let s_hi = u64::from_le_bytes(msg[8..16].try_into().expect("s_hi"));
                        placements.push(FfPlacement {
                            nav: nav_p,
                            msg,
                            base: 16,
                            s_lo,
                            s_hi,
                        });
                    }
                    let done = iop_write_listless(
                        storage,
                        dom,
                        &placements,
                        navs,
                        state.merge.as_ref(),
                        hints,
                        scratch,
                    );
                    for p in placements {
                        scratch.give(p.msg);
                    }
                    done
                }
            }
        })();
        match res {
            Ok((io, p)) => {
                iop_io = io;
                iop_pack = p;
            }
            Err(e) => fatal = Some(e),
        }
    }

    // Tuner outcome: reported *before* the closing barrier, so when the
    // decision for the next op runs, every rank's report for this op has
    // already been merged (writes always aggregate completely).
    if let Some(tu) = tuner {
        match &fatal {
            Some(_) => tu.abort_op(),
            None => tu.finish_op(OpOutcome {
                write: true,
                wall_ns: lio_obs::elapsed_ns(t_op),
                exchange_ns: exch_ns,
                io_ns: iop_io,
                pack_ns: pack_ns + iop_pack,
                overlap_ns: 0,
                bytes: total,
                span: domains.iter().map(|d| d.1.saturating_sub(d.0)).sum(),
            }),
        }
    }

    let t = lio_obs::now();
    let sp = lio_obs::trace::span("exch.barrier");
    comm.barrier();
    drop(sp);
    exch_ns += lio_obs::elapsed_ns(t);
    if obs {
        OBS_W_EXCH_NS.add(exch_ns);
        OBS_W_PACK_NS.add(pack_ns);
    }
    match fatal {
        Some(e) => {
            OBS_FAULT_ABORTS.incr();
            lio_obs::trace::flight_dump("collective write aborted on a storage fault");
            Err(e)
        }
        None => Ok(total),
    }
}

/// IOP write loop, list-based placement.
fn iop_write_listbased(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    recv: &mut [RecvList],
    hints: &Hints,
    scratch: &Scratch,
) -> Result<(u64, u64)> {
    // clip the domain to where data actually lands
    let lo = recv.iter().filter_map(|r| r.next_offset()).min();
    let hi = recv.iter().filter_map(|r| r.end_offset()).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Ok((0, 0));
    };
    let lo = lo.max(dom.0);
    let hi = hi.min(dom.1);

    // the merge of all lists, for the covered-window optimization
    let mut coverage = hints.detect_dense_writes.then(|| {
        let refs: Vec<&RecvList> = recv.iter().collect();
        Coverage::merge(&refs)
    });

    let mut windows = 0u64;
    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
    // a window never exceeds the clipped domain, so neither need the buffer
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    for (win, win_end) in grid {
        let has_data = recv
            .iter()
            .any(|r| r.next_offset().is_some_and(|o| o < win_end));
        if has_data {
            windows += 1;
            health::beat_window(HbPhase::Io, windows - 1);
            let _w = lio_obs::trace::span_ab("win", windows - 1, win);
            io.update(
                win,
                win_end,
                || coverage.as_mut().is_some_and(|c| c.covered(win, win_end)),
                &mut |at, piece| {
                    health::beat(HbPhase::Pack);
                    for r in recv.iter_mut() {
                        r.place_into(piece, at, at + piece.len() as u64);
                    }
                },
            )?;
            health::beat_bytes(HbPhase::Io, win_end - win);
        }
    }
    Ok(iop_write_done(&io, windows))
}

/// Close an IOP write loop: its phase times go to the metrics and, as
/// `(io_ns, pack_ns)`, to the tuner.
fn iop_write_done(io: &WindowIo, windows: u64) -> (u64, u64) {
    if lio_obs::enabled() {
        OBS_W_IO_NS.add(io.io_ns);
        OBS_W_PACK_NS.add(io.pack_ns);
        OBS_WINDOWS.add(windows);
    }
    (io.io_ns, io.pack_ns)
}

/// IOP write loop, listless placement via cached fileviews. Returns the
/// `(io_ns, pack_ns)` phase breakdown for the tuner.
fn iop_write_listless(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    placements: &[FfPlacement],
    navs: &[FfNav],
    merge: Option<&MergeView>,
    hints: &Hints,
    scratch: &Scratch,
) -> Result<(u64, u64)> {
    // clip the domain to where data actually lands
    let lo = placements
        .iter()
        .filter(|p| p.s_hi > p.s_lo)
        .map(|p| p.nav.stream_to_abs(p.s_lo))
        .min();
    let hi = placements
        .iter()
        .filter(|p| p.s_hi > p.s_lo)
        .map(|p| p.nav.stream_to_abs(p.s_hi - 1) + 1)
        .max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Ok((0, 0));
    };
    let lo = lo.max(dom.0);
    let hi = hi.min(dom.1);

    let mut windows = 0u64;
    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    // per-AP stream cursor (how far each AP's data has been consumed)
    let mut cursors: Vec<u64> = placements.iter().map(|p| p.s_lo).collect();
    let mut takes = vec![0u64; placements.len()];
    let mut seen = vec![RunTally::until(0); placements.len()];
    for (win, win_end) in grid {
        // per-AP byte counts in this window (cheap: O(depth) each)
        let mut any = false;
        takes.fill(0);
        for (k, p) in placements.iter().enumerate() {
            if p.s_hi <= p.s_lo || cursors[k] >= p.s_hi {
                continue;
            }
            let b = p.nav.abs_to_stream(win_end).min(p.s_hi);
            if b > cursors[k] {
                takes[k] = b - cursors[k];
                any = true;
            }
        }
        if any {
            windows += 1;
            health::beat_window(HbPhase::Io, windows - 1);
            let _w = lio_obs::trace::span_ab("win", windows - 1, win);
            seen.fill(RunTally::until(win_end));
            io.update(
                win,
                win_end,
                || {
                    hints.detect_dense_writes
                        && merge.is_some_and(|m| m.filled_by(navs, &takes, win, win_end))
                },
                // each AP's data goes on from its cursor and stops at the
                // end of the piece by itself
                &mut |at, piece| {
                    health::beat(HbPhase::Pack);
                    for (k, p) in placements.iter().enumerate() {
                        if takes[k] > 0 {
                            let rest = &p.data()[(cursors[k] - p.s_lo) as usize..];
                            cursors[k] +=
                                p.nav.place_piece(rest, cursors[k], piece, at, &mut seen[k]) as u64;
                        }
                    }
                },
            )?;
            health::beat_bytes(HbPhase::Io, win_end - win);
        }
    }
    debug_assert!(
        placements.iter().zip(&cursors).all(|(p, &c)| c >= p.s_hi),
        "an AP's data was not placed completely"
    );
    Ok(iop_write_done(&io, windows))
}

/// IOP side of an announce round (the monolithic collective read and both
/// pipelined schedules): every rank's `(s_lo, s_hi)` header and,
/// `with_lists`, its ol-list (empty otherwise), both in rank order.
/// Receives complete in
/// arrival order, as the monolithic write's data messages do, so a late
/// rank 0 delays nobody else's header.
pub(crate) fn recv_announcements(comm: &Comm, with_lists: bool) -> (Vec<(u64, u64)>, Vec<Vec<u8>>) {
    let p_n = comm.size();
    let per = 1 + with_lists as usize;
    let mut hdrs = vec![(0u64, 0u64); p_n];
    let mut lists: Vec<Vec<u8>> = vec![Vec::new(); p_n];
    let sp = lio_obs::trace::span("exch.wait");
    let mut reqs: Vec<lio_mpi::Request> = Vec::with_capacity(per * p_n);
    for p in 0..p_n {
        reqs.push(comm.irecv(p, TAG_TP_DATA));
        if with_lists {
            reqs.push(comm.irecv(p, TAG_TP_LIST));
        }
    }
    for _ in 0..per * p_n {
        let (i, src, payload) = comm.wait_any(&mut reqs);
        if i % per == 0 {
            // header arrival order = rank entry order into the collective
            health::window_mark(0, src as u32);
            let s_lo = u64::from_le_bytes(payload[0..8].try_into().expect("s_lo"));
            let s_hi = u64::from_le_bytes(payload[8..16].try_into().expect("s_hi"));
            hdrs[src] = (s_lo, s_hi);
        } else {
            lists[src] = payload;
        }
    }
    drop(sp);
    health::window_flush();
    (hdrs, lists)
}

/// Collective read. Every rank calls this; fills `user` and returns bytes
/// read by this rank's access.
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
    // root trace span delimiting this collective op (both schedules)
    let _root = lio_obs::trace::span_ab("coll.read", total, 0);
    if hints.two_phase_pipeline {
        return crate::pipeline::read_at_all(
            storage,
            comm,
            state,
            nav,
            packer,
            user,
            stream_start,
            total,
            hints,
            tuner,
            scratch,
        );
    }
    let t_op = lio_obs::now();
    let engine = match nav {
        ViewNav::List(_) => Engine::ListBased,
        ViewNav::Ff(_) => Engine::Listless,
    };
    let obs = lio_obs::enabled();
    if obs {
        OBS_R_CALLS.incr();
    }
    let mut exch_ns = 0u64;
    let mut io_ns = 0u64;
    let mut pack_ns = 0u64;
    let my_range = access_range(nav, stream_start, total);
    let t = lio_obs::now();
    let (domains, _ranges) = file_domains(comm, my_range, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    let stream_end = stream_start + total;
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: announce (and, list-based, ship the lists) --------
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
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("exch.send", i as u64, 0);
            comm.send_vec(i, TAG_TP_LIST, list);
            drop(sp);
            exch_ns += lio_obs::elapsed_ns(t);
        }
        let mut msg = Vec::with_capacity(16);
        msg.extend_from_slice(&s_lo.to_le_bytes());
        msg.extend_from_slice(&s_hi.to_le_bytes());
        health::beat(HbPhase::Exchange);
        let t = lio_obs::now();
        let sp = lio_obs::trace::span_ab("exch.send", i as u64, 0);
        comm.send_vec(i, TAG_TP_DATA, msg);
        drop(sp);
        exch_ns += lio_obs::elapsed_ns(t);
    }

    // ----- IOP phase: read windows and ship each AP its bytes ----------
    // A storage fault on an IOP must not strand APs waiting for their
    // reply: errors are captured, every AP still receives a buffer of the
    // exact promised length (zero-padded past the failure point), and the
    // error surfaces on this rank after the exchange completes.
    let mut fatal: Option<IoError> = None;
    if me < naggr && domains[me].1 > domains[me].0 {
        let dom = domains[me];
        match engine {
            Engine::ListBased => {
                // each list carries its AP's reply: a buffer of the length
                // the announce header promised, filled window by window
                let t = lio_obs::now();
                let (hdrs, lists) = recv_announcements(comm, true);
                exch_ns += lio_obs::elapsed_ns(t);
                let mut recv: Vec<RecvList> = Vec::with_capacity(comm.size());
                for (&(s_lo, s_hi), list_bytes) in hdrs.iter().zip(&lists) {
                    let reply = scratch.take((s_hi - s_lo) as usize);
                    let segs = parse_ol_list(list_bytes).unwrap_or_else(|e| {
                        fatal.get_or_insert(e);
                        Vec::new()
                    });
                    recv.push(RecvList::new(segs, reply, 0));
                }
                let lo = recv.iter().filter_map(|r| r.next_offset()).min();
                let hi = recv.iter().filter_map(|r| r.end_offset()).max();
                // (a malformed list already failed the op: nothing to read)
                if let (Some(lo), Some(hi), true) = (lo, hi, fatal.is_none()) {
                    let lo = lo.max(dom.0);
                    let hi = hi.min(dom.1);
                    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
                    let mut io = WindowIo::new(storage, scratch, grid.max_len());
                    for (win, win_end) in grid {
                        let wanted = recv
                            .iter()
                            .any(|r| r.next_offset().is_some_and(|o| o < win_end));
                        if wanted {
                            if obs {
                                OBS_WINDOWS.incr();
                            }
                            health::beat_bytes(HbPhase::Io, win_end - win);
                            let _w = lio_obs::trace::span_ab("win", win, win_end - win);
                            let res = io.view(win, win_end, &mut |at, piece| {
                                health::beat(HbPhase::Pack);
                                for r in recv.iter_mut() {
                                    r.extract_from(piece, at, at + piece.len() as u64);
                                }
                            });
                            if let Err(e) = res {
                                fatal = Some(e);
                                break;
                            }
                        }
                    }
                    io_ns += io.io_ns;
                    pack_ns += io.pack_ns;
                }
                let t = lio_obs::now();
                for (p, r) in recv.into_iter().enumerate() {
                    let mut out = r.data;
                    if fatal.is_some() {
                        // the promised length, zeros past the failure point
                        out[r.data_pos..].fill(0);
                    }
                    if obs {
                        OBS_EXCH_DATA_BYTES.add(out.len() as u64);
                    }
                    health::beat_bytes(HbPhase::Exchange, out.len() as u64);
                    comm.send_vec(p, TAG_TP_RDATA, out);
                }
                exch_ns += lio_obs::elapsed_ns(t);
            }
            Engine::Listless => {
                let navs = state
                    .remote_navs
                    .as_ref()
                    .expect("listless collective requires cached fileviews");
                let t = lio_obs::now();
                let (spans, _) = recv_announcements(comm, false);
                exch_ns += lio_obs::elapsed_ns(t);
                let lo = spans
                    .iter()
                    .zip(navs)
                    .filter(|(s, _)| s.1 > s.0)
                    .map(|(s, n)| n.stream_to_abs(s.0))
                    .min();
                let hi = spans
                    .iter()
                    .zip(navs)
                    .filter(|(s, _)| s.1 > s.0)
                    .map(|(s, n)| n.stream_to_abs(s.1 - 1) + 1)
                    .max();
                // the replies, of the promised length, filled window by
                // window up to `cursors[k] - spans[k].0`
                let mut outs: Vec<Vec<u8>> = spans
                    .iter()
                    .map(|s| scratch.take((s.1 - s.0) as usize))
                    .collect();
                let mut cursors: Vec<u64> = spans.iter().map(|s| s.0).collect();
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    let lo = lo.max(dom.0);
                    let hi = hi.min(dom.1);
                    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
                    let mut io = WindowIo::new(storage, scratch, grid.max_len());
                    let mut seen = vec![RunTally::until(0); spans.len()];
                    for (win, win_end) in grid {
                        let wanted = navs.iter().enumerate().any(|(k, nav_p)| {
                            cursors[k] < spans[k].1
                                && nav_p.abs_to_stream(win_end).min(spans[k].1) > cursors[k]
                        });
                        if wanted {
                            if obs {
                                OBS_WINDOWS.incr();
                            }
                            health::beat_bytes(HbPhase::Io, win_end - win);
                            let _w = lio_obs::trace::span_ab("win", win, win_end - win);
                            seen.fill(RunTally::until(win_end));
                            // each reply goes on from its cursor and stops
                            // at the end of the piece by itself
                            let res = io.view(win, win_end, &mut |at, piece| {
                                health::beat(HbPhase::Pack);
                                for (k, nav_p) in navs.iter().enumerate() {
                                    let rest = &mut outs[k][(cursors[k] - spans[k].0) as usize..];
                                    if !rest.is_empty() {
                                        cursors[k] += nav_p.extract_piece(
                                            piece,
                                            at,
                                            cursors[k],
                                            rest,
                                            &mut seen[k],
                                        )
                                            as u64;
                                    }
                                }
                            });
                            if let Err(e) = res {
                                fatal = Some(e);
                                break;
                            }
                        }
                    }
                    io_ns += io.io_ns;
                    pack_ns += io.pack_ns;
                }
                let t = lio_obs::now();
                for (p, mut out) in outs.into_iter().enumerate() {
                    if fatal.is_some() {
                        // the promised length, zeros past the failure point
                        out[(cursors[p] - spans[p].0) as usize..].fill(0);
                    }
                    if obs {
                        OBS_EXCH_DATA_BYTES.add(out.len() as u64);
                    }
                    health::beat_bytes(HbPhase::Exchange, out.len() as u64);
                    comm.send_vec(p, TAG_TP_RDATA, out);
                }
                exch_ns += lio_obs::elapsed_ns(t);
            }
        }
    }

    // ----- AP phase 2: receive and unpack -------------------------------
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        health::beat(HbPhase::ExchangeWait);
        let t = lio_obs::now();
        let sp = lio_obs::trace::span_ab("exch.wait", i as u64, 0);
        let data = comm.recv(i, TAG_TP_RDATA);
        drop(sp);
        exch_ns += lio_obs::elapsed_ns(t);
        let (s_lo, s_hi) = my_intersections[i];
        debug_assert_eq!(data.len() as u64, s_hi - s_lo);
        if s_hi > s_lo {
            health::beat(HbPhase::Pack);
            let t = lio_obs::now();
            let sp = lio_obs::trace::span_ab("unpack", data.len() as u64, 0);
            let put = packer.unpack(&data, user, s_lo - stream_start);
            drop(sp);
            pack_ns += lio_obs::elapsed_ns(t);
            debug_assert_eq!(put, data.len());
        }
        scratch.give(data);
    }
    if obs {
        OBS_R_EXCH_NS.add(exch_ns);
        OBS_R_IO_NS.add(io_ns);
        OBS_R_PACK_NS.add(pack_ns);
    }
    // Tuner outcome. Reads have no closing barrier, so a rank may report
    // after the next op's decision already ran — such stragglers are
    // dropped as stale by the tuner (partial aggregation by design).
    if let Some(tu) = tuner {
        match &fatal {
            Some(_) => tu.abort_op(),
            None => tu.finish_op(OpOutcome {
                write: false,
                wall_ns: lio_obs::elapsed_ns(t_op),
                exchange_ns: exch_ns,
                io_ns,
                pack_ns,
                overlap_ns: 0,
                bytes: total,
                span: domains.iter().map(|d| d.1.saturating_sub(d.0)).sum(),
            }),
        }
    }
    match fatal {
        Some(e) => {
            OBS_FAULT_ABORTS.incr();
            lio_obs::trace::flight_dump("collective read aborted on a storage fault");
            Err(e)
        }
        None => Ok(total),
    }
}
