//! Collective file access: the two-phase method, and when a read skips it.
//!
//! Collective reads/writes are performed by **io-processes** (IOPs) that
//! touch the file, on behalf of all **access-processes** (APs) — paper
//! Section 2.3. The file range touched by the collective call is split
//! evenly among the IOPs (*file domains*); each AP ships the part of its
//! access falling into each IOP's domain; each IOP loops over its domain
//! in `cb_buffer_size` windows, sieving data in or out of a window buffer.
//! Windows lie on the absolute grid of `crate::window`, and interior
//! domain boundaries are rounded to it ([`file_domains`]). What an AP has in
//! the domain of its own IOP side — its *own share* — is never a message:
//! every AP has an end in the IOP's window loop ([`UserSide`]), a message
//! for most, the user buffer itself for the IOP's own rank, and the loop
//! moves each window's worth of it between that end and the window in one
//! copy, whatever the memtype.
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
//! Not every collective exchanges. Two-phase exists to turn many small
//! file requests into few large ones, and ROMIO skips it where it buys
//! nothing; on storage that lends its bytes there are no requests at all.
//! So `read_at_all` asks, inside the allgather of access ranges it opens
//! with (one more byte per rank: no new message, and no way for two ranks
//! to disagree), whether **every** rank is listless, not in atomic mode,
//! and was just lent the first byte of its own range — and if so each rank
//! runs `sieve::read_independent` on its own view and buffer: one copy
//! per user byte instead of one and a half, no message. That is one more
//! *placement* of the schedule below, not a second schedule: the window
//! loop is the sieve's. The list-based engine is left out (`ListNav` would
//! pay its linear locate per sieve window — the paper's own point), and
//! so are writes: there, file domains keep two ranks from storing into the
//! same cache lines (DESIGN.md §3.4, *Routing*).
//!
//! There is one schedule, the monolithic two-phase of Thakur, Gropp & Lusk:
//! data for a whole file domain travels in one message per (AP, IOP) pair,
//! which preserves the communication volume and list-handling costs the
//! paper measures; then each IOP walks its domain. An IOP is the only
//! writer of its domain until the closing rank-sync, and says so
//! ([`WindowIo::sole_writer`]): on storage that stages and is slow, the
//! write-back of window `k` runs beside the pre-read and placement of
//! window `k + 1` — the only overlap that ever paid (EXPERIMENTS.md).

use std::thread::Scope;

use lio_datatype::ff::OBS_COPY_BYTES;
use lio_datatype::{bytes_below_tiled, serialize, Datatype, Field};
use lio_mpi::Comm;
use lio_obs::LazyCounter;
use lio_pfs::StorageFile;

use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::{MemPacker, UserRuns, UserSide, MESSAGE, MSG_HEADER, STREAM};
use crate::scratch::Scratch;
use crate::sieve;
use crate::view::{FfNav, FileView, RunTally, ViewNav};
use crate::window::{snap, timed, WindowIo, Windows};
use lio_obs::health::{self, HbPhase};

// Two-phase breakdown metrics. The `_ns` counters accumulate wall time per
// phase across all rounds on this process: `exchange_ns` covers AP↔IOP
// message traffic (sends, receives, the closing barrier), `io_ns` covers
// storage reads/writes of window buffers, and `pack_ns` covers all
// pack/unpack/place/extract memory movement. `exchange.list_bytes` counts
// ol-list metadata shipped (list-based engine only; always 0 for listless —
// the paper's "16 bytes per tuple" overhead), `exchange.data_bytes` the
// payload proper.
static OBS_W_CALLS: LazyCounter = LazyCounter::new("core.coll.write.calls");
static OBS_W_EXCH_NS: LazyCounter = LazyCounter::new("core.coll.write.exchange_ns");
static OBS_W_IO_NS: LazyCounter = LazyCounter::new("core.coll.write.io_ns");
static OBS_W_PACK_NS: LazyCounter = LazyCounter::new("core.coll.write.pack_ns");
static OBS_R_CALLS: LazyCounter = LazyCounter::new("core.coll.read.calls");
/// Collective reads that were each rank's own placement (a part of
/// `core.coll.read.calls`): no exchange, no IOP, none of the `_ns` below.
static OBS_R_ROUTED: LazyCounter = LazyCounter::new("core.coll.read.routed");
static OBS_R_EXCH_NS: LazyCounter = LazyCounter::new("core.coll.read.exchange_ns");
static OBS_R_IO_NS: LazyCounter = LazyCounter::new("core.coll.read.io_ns");
static OBS_R_PACK_NS: LazyCounter = LazyCounter::new("core.coll.read.pack_ns");
static OBS_EXCH_LIST_BYTES: LazyCounter = LazyCounter::new("core.coll.exchange.list_bytes");
static OBS_EXCH_DATA_BYTES: LazyCounter = LazyCounter::new("core.coll.exchange.data_bytes");
static OBS_WINDOWS: LazyCounter = LazyCounter::new("core.coll.windows");
/// Collective calls that aborted on a permanent storage fault — counted
/// after the closing rank-sync, so an abort is always a clean abort.
static OBS_FAULT_ABORTS: LazyCounter = LazyCounter::new("core.coll.fault_aborts");

/// Tag for the ol-list message (list-based engine only).
const TAG_TP_LIST: u64 = 101;
/// Tag for AP→IOP write data / access headers.
const TAG_TP_DATA: u64 = 102;
/// Tag for IOP→AP read data.
const TAG_TP_RDATA: u64 = 103;

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
fn access_range(nav: &ViewNav, stream_start: u64, total: u64) -> Option<(u64, u64)> {
    if total == 0 {
        return None;
    }
    let lo = nav.stream_to_abs(stream_start);
    let hi = nav.stream_to_abs(stream_start + total - 1) + 1;
    Some((lo, hi))
}

/// Per-IOP file domains, and whether every rank said `alone`.
type Domains = (Vec<(u64, u64)>, bool);

/// Whether the storage lends this rank the first byte of its access range
/// right now — the lending interface itself is the probe. An empty access
/// has nothing to be refused; a probe that fails is a refusal (the staged
/// path meets the error where it is typed).
fn lent_first_byte(storage: &dyn StorageFile, range: Option<(u64, u64)>) -> bool {
    range.is_none_or(|(lo, _)| {
        storage
            .with_range(lo, lo + 1, &mut |_, _| {})
            .unwrap_or(false)
    })
}

/// Exchange access ranges and compute the per-IOP file domains. `alone` is
/// this rank's answer to "could you place your access by yourself"; the
/// second value is whether every rank's was yes — a function of the
/// allgathered bytes only, so no two ranks can disagree on it.
fn file_domains(comm: &Comm, range: Option<(u64, u64)>, alone: bool, hints: &Hints) -> Domains {
    let mut msg = [0u8; 17];
    let (lo, hi) = range.unwrap_or((u64::MAX, 0));
    msg[0..8].copy_from_slice(&lo.to_le_bytes());
    msg[8..16].copy_from_slice(&hi.to_le_bytes());
    msg[16] = alone as u8;
    let all = comm.allgather(msg.to_vec());
    let all_alone = all.iter().all(|b| b[16] != 0);
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
    (domains, all_alone)
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
fn stream_intersection(
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
fn build_access_list(nav: &ViewNav, s_lo: u64, s_hi: u64, dom: (u64, u64)) -> Vec<u8> {
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

/// An ol-list received from an AP, consumed window by window through a
/// cursor (the IOP-side list walking of Section 2.3), side by side with
/// the runs of the AP's end of the loop: a write's message, a read's reply
/// being filled, or, for the IOP's own list, its user buffer.
struct RecvList<'a> {
    /// Absolute `(offset, len)` pairs.
    segs: Vec<(u64, u64)>,
    seg_i: usize,
    seg_off: u64,
    /// Where the AP's next stream byte lies in its end's buffer.
    runs: UserRuns<'a>,
    /// Stream bytes consumed (writes) or filled (reads) so far.
    moved: usize,
}

/// Decode serialized `(offset, len)` pairs (the wire form of
/// [`build_access_list`]).
fn parse_ol_list(list_bytes: &[u8]) -> Result<Vec<(u64, u64)>> {
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

impl<'a> RecvList<'a> {
    /// A cursor at the start of `segs`, over an end whose stream goes on
    /// at `runs`.
    fn new(segs: Vec<(u64, u64)>, runs: UserRuns<'a>) -> Self {
        RecvList {
            segs,
            seg_i: 0,
            seg_off: 0,
            runs,
            moved: 0,
        }
    }

    /// Move this AP's bytes falling inside `[win_start, win_end)`: `mv`
    /// copies each segment's part of the window, given as a range of
    /// window positions, from or to the next bytes of the end's `runs`.
    fn walk(
        &mut self,
        win_start: u64,
        win_end: u64,
        mut mv: impl FnMut(&mut UserRuns, std::ops::Range<usize>) -> usize,
    ) {
        let before = self.moved;
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
            let got = mv(&mut self.runs, o..o + take as usize);
            debug_assert_eq!(got as u64, take, "the list outran its data");
            self.moved += take as usize;
            if take == avail {
                self.seg_i += 1;
                self.seg_off = 0;
            } else {
                self.seg_off += take;
                break;
            }
        }
        OBS_COPY_BYTES.add((self.moved - before) as u64);
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
struct Coverage {
    segs: Vec<(u64, u64)>,
    i: usize,
}

impl Coverage {
    /// Merge per-AP lists (`O(Σ_p N(p))` as the paper notes).
    fn merge_segs(lists: &[&[(u64, u64)]]) -> Coverage {
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

    fn merge(lists: &[&RecvList<'_>]) -> Coverage {
        let segs: Vec<&[(u64, u64)]> = lists.iter().map(|l| l.segs.as_slice()).collect();
        Coverage::merge_segs(&segs)
    }

    /// Whether `[lo, hi)` is fully inside one merged segment. Windows are
    /// probed in increasing order, so a cursor suffices.
    fn covered(&mut self, lo: u64, hi: u64) -> bool {
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

/// The file range `[lo, hi)` that the stream intervals `spans` of the
/// views `navs` reach; `None` when all are empty.
fn touched(spans: &[(u64, u64)], navs: &[FfNav]) -> Option<(u64, u64)> {
    let used = || spans.iter().zip(navs).filter(|(s, _)| s.1 > s.0);
    let lo = used().map(|(s, n)| n.stream_to_abs(s.0)).min()?;
    let hi = used().map(|(s, n)| n.stream_to_abs(s.1 - 1) + 1).max()?;
    Some((lo, hi))
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
    scratch: &Scratch,
) -> Result<u64> {
    // the root trace span delimiting this collective op: the
    // critical-path analyzer keys on its tag
    let _root = lio_obs::trace::span_ab("coll.write", total, 0);
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
    // a write keeps its file domains on every storage (DESIGN.md §3.4,
    // *Routing*)
    let (domains, _) = file_domains(comm, my_range, false, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: ship lists (list-based) and data ------------------
    let span = (stream_start, stream_start + total);
    let times = (&mut exch_ns, &mut pack_ns);
    let (_, own_list) = announce(
        comm,
        nav,
        &domains,
        span,
        Some((packer, user, scratch)),
        times,
    );

    // ----- IOP phase ----------------------------------------------------
    // A storage fault on an IOP must not strand the other ranks at the
    // closing barrier, so IOP errors are captured, every rank reaches the
    // barrier, and the error surfaces only after the world is in sync.
    // (All AP→IOP messages were received above the window loop, so an
    // aborted IOP leaves nothing in flight.)
    let mut fatal: Option<IoError> = None;
    if me < naggr && domains[me].1 > domains[me].0 {
        let dom = domains[me];
        let t = lio_obs::now();
        let (msgs, lists) = recv_exchange(comm, engine == Engine::ListBased, own_list);
        exch_ns += lio_obs::elapsed_ns(t);
        let spans: Vec<(u64, u64)> = msgs.iter().map(|m| header(m)).collect();
        // every AP's end of the window loop: its message, or — the own
        // share — the user buffer itself
        let mut ends: Vec<UserSide<&[u8]>> = (msgs.iter().zip(&spans))
            .map(|(msg, span)| UserSide::new(&MESSAGE, msg.as_slice(), span.0))
            .collect();
        ends[me] = UserSide::new(packer, user, stream_start);
        // Domains are disjoint and nobody is told the write is done
        // before the closing barrier below: this IOP is the only writer
        // of its windows, so its loop may write behind (`lane`).
        let res: Result<()> = std::thread::scope(|lane| match engine {
            Engine::ListBased => {
                let mut recv: Vec<RecvList> = Vec::with_capacity(msgs.len());
                for ((list_bytes, end), span) in lists.iter().zip(&ends).zip(&spans) {
                    let runs = end.packer.runs_from(span.0 - end.stream_start);
                    recv.push(RecvList::new(parse_ol_list(list_bytes)?, runs));
                }
                iop_write_listbased(storage, dom, &mut recv, &ends, hints, scratch, lane)
            }
            Engine::Listless => {
                let navs = state
                    .remote_navs
                    .as_ref()
                    .expect("listless collective requires cached fileviews");
                let merge = state.merge.as_ref();
                iop_write_listless(
                    storage, dom, &spans, &ends, navs, merge, hints, scratch, lane,
                )
            }
        });
        // placed: the messages now belong to this rank's arena
        for msg in msgs {
            scratch.give(msg);
        }
        fatal = res.err();
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

/// IOP write loop, list-based placement: list `recv[k]` says where the
/// stream of `ends[k]` goes.
fn iop_write_listbased<'s>(
    storage: &'s dyn StorageFile,
    dom: (u64, u64),
    recv: &mut [RecvList],
    ends: &[UserSide<&[u8]>],
    hints: &Hints,
    scratch: &'s Scratch,
    lane: &'s Scope<'s, '_>,
) -> Result<()> {
    // clip the domain to where data actually lands
    let lo = recv.iter().filter_map(|r| r.next_offset()).min();
    let hi = recv.iter().filter_map(|r| r.end_offset()).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Ok(());
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
    let mut io = WindowIo::sole_writer(storage, scratch, grid.max_len(), lane);
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
                    for (r, end) in recv.iter_mut().zip(ends) {
                        r.walk(at, at + piece.len() as u64, |runs, o| {
                            runs.read(end.user, &mut piece[o])
                        });
                    }
                },
            )?;
            health::beat_bytes(HbPhase::Io, win_end - win);
        }
    }
    iop_write_done(io, windows)
}

/// Close an IOP write loop: the last write has landed, and the loop's
/// phase times go to the metrics.
fn iop_write_done(mut io: WindowIo, windows: u64) -> Result<()> {
    io.finish()?;
    if lio_obs::enabled() {
        OBS_W_IO_NS.add(io.io_ns);
        OBS_W_PACK_NS.add(io.pack_ns);
        OBS_WINDOWS.add(windows);
    }
    Ok(())
}

/// IOP write loop, listless placement via cached fileviews: AP `k`'s
/// stream bytes `spans[k]` go from `ends[k]` — its message as received
/// (no re-allocating copy), or the user buffer — to where `navs[k]` says.
#[allow(clippy::too_many_arguments)]
fn iop_write_listless<'s>(
    storage: &'s dyn StorageFile,
    dom: (u64, u64),
    spans: &[(u64, u64)],
    ends: &[UserSide<&[u8]>],
    navs: &[FfNav],
    merge: Option<&MergeView>,
    hints: &Hints,
    scratch: &'s Scratch,
    lane: &'s Scope<'s, '_>,
) -> Result<()> {
    // clip the domain to where data actually lands
    let Some((lo, hi)) = touched(spans, navs) else {
        return Ok(());
    };
    let lo = lo.max(dom.0);
    let hi = hi.min(dom.1);

    let mut windows = 0u64;
    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
    let mut io = WindowIo::sole_writer(storage, scratch, grid.max_len(), lane);
    // per-AP stream cursor (how far each AP's data has been consumed)
    let mut cursors: Vec<u64> = spans.iter().map(|s| s.0).collect();
    let mut takes = vec![0u64; spans.len()];
    let mut seen = vec![RunTally::until(0); spans.len()];
    for (win, win_end) in grid {
        // per-AP byte counts in this window (cheap: O(depth) each)
        let mut any = false;
        takes.fill(0);
        for (k, &(_, s_hi)) in spans.iter().enumerate() {
            if cursors[k] >= s_hi {
                continue;
            }
            let b = navs[k].abs_to_stream(win_end).min(s_hi);
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
                    for (k, nav_p) in navs.iter().enumerate() {
                        if takes[k] > 0 {
                            let (from, rest) = (cursors[k], (spans[k].1 - cursors[k]) as usize);
                            cursors[k] +=
                                nav_p.place_piece(&ends[k], from, rest, piece, at, &mut seen[k])
                                    as u64;
                        }
                    }
                },
            )?;
            health::beat_bytes(HbPhase::Io, win_end - win);
        }
    }
    debug_assert!(
        spans.iter().zip(&cursors).all(|(s, &c)| c >= s.1),
        "an AP's data was not placed completely"
    );
    iop_write_done(io, windows)
}

/// AP side of the exchange, both directions. Every IOP with a domain gets
/// the `(s_lo, s_hi)` of this rank's access `[stream_start, stream_end)`
/// in it, followed — writing, so with `data` — by those stream bytes,
/// packed; list-based, the ol-list goes ahead in a message of its own.
/// Except to the rank's own IOP side: that gets the header alone, its list
/// is returned instead of sent (second value), and its data stays in the
/// user buffer for the window loop (its [`UserSide`]). Returns the intervals
/// per domain; time goes to `(exch_ns, pack_ns)`.
fn announce(
    comm: &Comm,
    nav: &ViewNav,
    domains: &[(u64, u64)],
    (stream_start, stream_end): (u64, u64),
    data: Option<(&MemPacker, &[u8], &Scratch)>,
    (exch_ns, pack_ns): (&mut u64, &mut u64),
) -> (Vec<(u64, u64)>, Option<Vec<u8>>) {
    let me = comm.rank();
    let mut own_list = None;
    let mut shares = vec![(stream_start, stream_start); domains.len()];
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        if stream_end > stream_start {
            shares[i] = stream_intersection(nav, stream_start, stream_end, dom);
        }
        let (s_lo, s_hi) = shares[i];
        if let ViewNav::List(_) = nav {
            let list = build_access_list(nav, s_lo, s_hi, dom);
            if i == me {
                own_list = Some(list);
            } else {
                OBS_EXCH_LIST_BYTES.add(list.len() as u64);
                let t = lio_obs::now();
                let _sp = lio_obs::trace::span_ab("exch.send", i as u64, 0);
                comm.send_vec(i, TAG_TP_LIST, list);
                *exch_ns += lio_obs::elapsed_ns(t);
            }
        }
        let payload = data.filter(|_| i != me && s_hi > s_lo);
        let n = payload.map_or(0, |_| s_hi - s_lo);
        let mut msg = match payload {
            Some((packer, user, scratch)) => {
                let mut msg = scratch.take(MSG_HEADER + n as usize);
                health::beat(HbPhase::Pack);
                let (got, ns) = timed(Some(("pack", n, 0)), || {
                    packer.pack(user, s_lo - stream_start, &mut msg[MSG_HEADER..])
                });
                debug_assert_eq!(got as u64, n);
                *pack_ns += ns;
                msg
            }
            None => vec![0; MSG_HEADER],
        };
        msg[0..8].copy_from_slice(&s_lo.to_le_bytes());
        msg[8..16].copy_from_slice(&s_hi.to_le_bytes());
        OBS_EXCH_DATA_BYTES.add(n);
        health::beat_bytes(HbPhase::Exchange, n);
        let t = lio_obs::now();
        let _sp = lio_obs::trace::span_ab("exch.send", i as u64, n);
        comm.send_vec(i, TAG_TP_DATA, msg);
        *exch_ns += lio_obs::elapsed_ns(t);
    }
    (shares, own_list)
}

/// The `(s_lo, s_hi)` stream interval a `TAG_TP_DATA` message starts with.
fn header(msg: &[u8]) -> (u64, u64) {
    let s_lo = u64::from_le_bytes(msg[0..8].try_into().expect("s_lo"));
    let s_hi = u64::from_le_bytes(msg[8..16].try_into().expect("s_hi"));
    (s_lo, s_hi)
}

/// IOP side of the exchange: every rank's `TAG_TP_DATA` message and,
/// `with_lists`, its ol-list (empty otherwise), both in rank order. A rank
/// that kept the list of its own domain hands it in as `own_list`; that
/// one is not waited for. Receives complete in arrival order, so a late
/// rank 0 delays nobody else's message.
fn recv_exchange(
    comm: &Comm,
    with_lists: bool,
    own_list: Option<Vec<u8>>,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let p_n = comm.size();
    let mut msgs: Vec<Vec<u8>> = vec![Vec::new(); p_n];
    let mut lists: Vec<Vec<u8>> = vec![Vec::new(); p_n];
    let sp = lio_obs::trace::span("exch.wait");
    let mut reqs: Vec<lio_mpi::Request> = (0..p_n).map(|p| comm.irecv(p, TAG_TP_DATA)).collect();
    if with_lists {
        let kept = own_list.is_some().then_some(comm.rank());
        reqs.extend(
            (0..p_n)
                .filter(|&p| Some(p) != kept)
                .map(|p| comm.irecv(p, TAG_TP_LIST)),
        );
    }
    for _ in 0..reqs.len() {
        let (i, src, payload) = comm.wait_any(&mut reqs);
        if i < p_n {
            // one per AP: arrival order = rank entry order into the
            // collective, and feeds the per-op rank-skew histogram
            health::window_mark(0, src as u32);
            msgs[src] = payload;
        } else {
            lists[src] = payload;
        }
    }
    if let Some(list) = own_list {
        lists[comm.rank()] = list;
    }
    drop(sp);
    health::window_flush();
    (msgs, lists)
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
    atomic: bool,
    scratch: &Scratch,
) -> Result<u64> {
    // root trace span delimiting this collective op
    let mut root = lio_obs::trace::span_ab("coll.read", total, 0);
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
    // this rank's answer to the routing question of the module docs
    let alone = engine == Engine::Listless && !atomic && lent_first_byte(storage, my_range);
    let t = lio_obs::now();
    let (domains, routed) = file_domains(comm, my_range, alone, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    if routed {
        // every rank decided the same from the same allgathered bytes, so
        // nobody waits for a message from here on; a preceding collective
        // write has passed its closing barrier on every rank
        root.set_payload(total, 1, 0);
        if obs {
            OBS_R_ROUTED.incr();
            OBS_R_EXCH_NS.add(exch_ns);
        }
        health::beat_bytes(HbPhase::Pack, total);
        return sieve::read_independent(
            storage,
            nav,
            packer,
            user,
            stream_start,
            total,
            hints,
            scratch,
        );
    }
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: announce (and, list-based, ship the lists) --------
    let span = (stream_start, stream_start + total);
    let times = (&mut exch_ns, &mut pack_ns);
    let (my_intersections, own_list) = announce(comm, nav, &domains, span, None, times);

    // ----- IOP phase: read windows and ship each AP its bytes ----------
    // A storage fault on an IOP must not strand APs waiting for their
    // reply: errors are captured, every AP still receives a buffer of the
    // exact promised length (zero-padded past the failure point), and the
    // error surfaces on this rank after the exchange completes. The IOP's
    // own share goes to its user buffer window by window, zero-padded
    // likewise.
    let mut fatal: Option<IoError> = None;
    if me < naggr && domains[me].1 > domains[me].0 {
        let dom = domains[me];
        let t = lio_obs::now();
        let (msgs, lists) = recv_exchange(comm, engine == Engine::ListBased, own_list);
        exch_ns += lio_obs::elapsed_ns(t);
        let spans: Vec<(u64, u64)> = msgs.iter().map(|m| header(m)).collect();
        // the replies, of the promised length (none for the own share),
        // filled window by window up to `filled`
        let reply_len = |k: usize| {
            if k == me {
                0
            } else {
                (spans[k].1 - spans[k].0) as usize
            }
        };
        let mut outs: Vec<Vec<u8>> = (0..spans.len())
            .map(|k| scratch.take(reply_len(k)))
            .collect();
        // every AP's end of the window loop: the reply being filled, or —
        // the own share — the user buffer itself
        let mut ends: Vec<UserSide<&mut [u8]>> = (outs.iter_mut().zip(&spans))
            .map(|(out, span)| UserSide::new(&STREAM, out.as_mut_slice(), span.0))
            .collect();
        ends[me] = UserSide::new(packer, &mut *user, stream_start);
        let mut filled = vec![0u64; spans.len()];
        match engine {
            Engine::ListBased => {
                let mut recv: Vec<RecvList> = Vec::with_capacity(spans.len());
                for ((list_bytes, end), span) in lists.iter().zip(&ends).zip(&spans) {
                    let segs = parse_ol_list(list_bytes).unwrap_or_else(|e| {
                        fatal.get_or_insert(e);
                        Vec::new()
                    });
                    let runs = end.packer.runs_from(span.0 - end.stream_start);
                    recv.push(RecvList::new(segs, runs));
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
                                for (r, end) in recv.iter_mut().zip(&mut ends) {
                                    r.walk(at, at + piece.len() as u64, |runs, o| {
                                        runs.write(end.user, &piece[o])
                                    });
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
                for (k, r) in recv.iter().enumerate() {
                    filled[k] = r.moved as u64;
                }
            }
            Engine::Listless => {
                let navs = state
                    .remote_navs
                    .as_ref()
                    .expect("listless collective requires cached fileviews");
                let mut cursors: Vec<u64> = spans.iter().map(|s| s.0).collect();
                if let Some((lo, hi)) = touched(&spans, navs) {
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
                            // each AP's bytes go on from its cursor and stop
                            // at the end of the piece by themselves
                            let res = io.view(win, win_end, &mut |at, piece| {
                                health::beat(HbPhase::Pack);
                                for (k, nav_p) in navs.iter().enumerate() {
                                    let rest = (spans[k].1 - cursors[k]) as usize;
                                    if rest > 0 {
                                        let (from, end) = (cursors[k], &mut ends[k]);
                                        cursors[k] += nav_p.extract_piece(
                                            piece,
                                            at,
                                            from,
                                            rest,
                                            end,
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
                for (k, c) in cursors.iter().enumerate() {
                    filled[k] = c - spans[k].0;
                }
            }
        }
        if fatal.is_some() {
            // every AP gets the promised length, zeros past the failure
            // point — in its reply or, the own share, in the user buffer
            for ((end, span), done) in ends.iter_mut().zip(&spans).zip(&filled) {
                let zeros = vec![0u8; (span.1 - span.0 - done) as usize];
                let skip = span.0 + done - end.stream_start;
                end.packer.unpack(&zeros, end.user, skip);
            }
        }
        drop(ends);
        let t = lio_obs::now();
        for (p, out) in outs.into_iter().enumerate() {
            if p == me {
                continue;
            }
            if obs {
                OBS_EXCH_DATA_BYTES.add(out.len() as u64);
            }
            health::beat_bytes(HbPhase::Exchange, out.len() as u64);
            comm.send_vec(p, TAG_TP_RDATA, out);
        }
        exch_ns += lio_obs::elapsed_ns(t);
    }

    // ----- AP phase 2: receive and unpack, in arrival order -------------
    // (nothing comes from this rank's own IOP side)
    let mut reqs: Vec<lio_mpi::Request> = (0..naggr)
        .filter(|&i| i != me && domains[i].1 > domains[i].0)
        .map(|i| comm.irecv(i, TAG_TP_RDATA))
        .collect();
    for _ in 0..reqs.len() {
        let t = lio_obs::now();
        let sp = lio_obs::trace::span("exch.wait");
        let (_, i, data) = comm.wait_any(&mut reqs);
        drop(sp);
        exch_ns += lio_obs::elapsed_ns(t);
        let (s_lo, s_hi) = my_intersections[i];
        debug_assert_eq!(data.len() as u64, s_hi - s_lo);
        if s_hi > s_lo {
            health::beat(HbPhase::Pack);
            let span = Some(("unpack", data.len() as u64, 0));
            let (put, ns) = timed(span, || packer.unpack(&data, user, s_lo - stream_start));
            debug_assert_eq!(put, data.len());
            pack_ns += ns;
        }
        scratch.give(data);
    }
    if obs {
        OBS_R_EXCH_NS.add(exch_ns);
        OBS_R_IO_NS.add(io_ns);
        OBS_R_PACK_NS.add(pack_ns);
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
