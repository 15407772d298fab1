//! Collective file access: the two-phase method.
//!
//! Collective reads/writes are performed by **io-processes** (IOPs) that
//! touch the file, on behalf of all **access-processes** (APs) — paper
//! Section 2.3. The file range touched by the collective call is split
//! evenly among the IOPs (*file domains*); each AP ships the part of its
//! access falling into each IOP's domain; each IOP loops over its domain
//! in `cb_buffer_size` windows, sieving data in or out of a window buffer.
//! Windows lie on the absolute grid of `crate::window`, and interior
//! domain boundaries are rounded to it ([`file_domains`]). Every AP has an
//! *end* in the IOP's window loop ([`UserSide`]): a buffer and how its
//! stream lies there. The loop moves each window's worth of it between that
//! end and the window in one copy, whatever the memtype. What an AP has in
//! the domain of its own IOP side — its *own share* — is never a message:
//! its end is the user buffer itself.
//!
//! The two engines share this skeleton and differ in exactly the ways the
//! paper describes:
//!
//! * **list-based**: every AP builds an **ol-list of absolute
//!   `⟨offset, length⟩` tuples covering each IOP's domain** — size
//!   `O(Saccess/Sextent · Nblock)`, i.e. proportional to the access, not
//!   the filetype — and sends it with the data (16 bytes of metadata per
//!   tuple); an AP's end is its message. For writes, the IOP merges all
//!   received lists (`O(Σ_p Nblock(p))`) to detect fully-covered windows,
//!   once it stages a window: only a staged window asks.
//! * **listless**: fileview caching means the IOP already has every AP's
//!   `(disp, filetype)` (exchanged compactly at `set_view`), so the paper's
//!   messages carry *only data*; placement uses flattening-on-the-fly, and
//!   the covered-window test is one `O(depth)` mergeview evaluation.
//!
//! Ranks here are threads of one address space, so a listless collective
//! sends not even the data. An AP's header tells each IOP its stream
//! interval there, its `stream_start` and its memtype (encoded as fileview
//! caching encodes filetypes, and decoded once per memtype, [`CollState`]),
//! and the IOP's end for that AP is the AP's user buffer — the shape the
//! own share has always had. Writing, every rank lends its whole buffer to
//! be read ([`Comm::lend`]). Reading, every rank cuts its buffer into one
//! piece per file domain — the bytes its share of that domain occupies —
//! and lends piece `i` to IOP `i` alone to be written ([`Comm::lend_mut`]):
//! each IOP reads each file byte of its domain once and fills every rank's
//! typed memory from there. One copy per user byte, no data message, and
//! the lending scope's closing barrier is the rank-sync the op ends in. (A
//! memtype whose bytes do not lie in stream order cannot be cut so; such
//! an AP lends nothing and gets its shares back as replies, as the
//! list-based engine does.)
//!
//! There is one schedule, the monolithic two-phase of Thakur, Gropp & Lusk:
//! data for a whole file domain travels in one message per (AP, IOP) pair
//! (or, listless, is moved where it lies), which preserves the
//! communication volume and list-handling costs the paper measures; then
//! each IOP walks its domain. An IOP is the only writer of its domain
//! until the closing rank-sync, and says so ([`WindowIo::sole_writer`]): on
//! storage that stages and is slow, the write-back of window `k` runs
//! beside the pre-read and placement of window `k + 1` — the only overlap
//! that ever paid (EXPERIMENTS.md).

use std::cell::{OnceCell, RefCell, RefMut};
use std::thread::Scope;

use lio_datatype::kernels::Stores;
use lio_datatype::{
    bytes_below_tiled, disjoint_tilings, serialize, CoWalk, Datatype, Field, OlList, OlWire,
    RunCursor,
};
use lio_mpi::{Comm, Lent, LentMut};
use lio_obs::LazyCounter;
use lio_pfs::StorageFile;

use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::{MemPacker, UserSide, MESSAGE, MSG_HEADER, STREAM};
use crate::scratch::Scratch;
use crate::view::{FfNav, FileView, RunTally, ViewNav};
use crate::window::{snap, timed, WindowIo, Windows};
use lio_obs::health;

// Two-phase breakdown metrics. The `_ns` counters accumulate wall time per
// phase across all rounds on this process: `exchange_ns` covers AP↔IOP
// message traffic (sends, receives, the closing barrier), `io_ns` covers
// storage reads/writes of window buffers, and `pack_ns` covers all
// pack/unpack/place/extract memory movement. `exchange.list_bytes` counts
// ol-list metadata shipped (list-based engine only; always 0 for listless —
// the paper's "16 bytes per tuple" overhead), `exchange.data_bytes` the
// payload proper (0 for a listless collective, which lends it).
static OBS_W_CALLS: LazyCounter = LazyCounter::new("core.coll.write.calls");
static OBS_W_EXCH_NS: LazyCounter = LazyCounter::new("core.coll.write.exchange_ns");
static OBS_W_IO_NS: LazyCounter = LazyCounter::new("core.coll.write.io_ns");
static OBS_W_PACK_NS: LazyCounter = LazyCounter::new("core.coll.write.pack_ns");
static OBS_R_CALLS: LazyCounter = LazyCounter::new("core.coll.read.calls");
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
/// Tag for AP→IOP access headers, with write data or its layout behind.
const TAG_TP_DATA: u64 = 102;
/// Tag for IOP→AP read data (list-based, or an AP that lends no pieces).
const TAG_TP_RDATA: u64 = 103;
/// Where the layout of a listless header starts: behind the `(s_lo, s_hi)`
/// header and the AP's `stream_start`.
const LAYOUT_AT: usize = MSG_HEADER + 8;

/// Collective state established at `set_view` time.
pub(crate) struct CollState {
    /// Listless: every rank's cached fileview (fileview caching).
    pub remote_navs: Option<Vec<FfNav>>,
    /// Listless: the mergeview, when all ranks share disp and extent.
    pub merge: Option<MergeView>,
    /// Listless: how each AP's stream lies in the user buffer it lends, as
    /// this rank's IOP side last decoded it.
    lenders: RefCell<Vec<Option<Lender>>>,
}

/// An AP's layout as it came in a header, and its packer.
type Lender = (Vec<u8>, MemPacker);

impl CollState {
    fn new(remote_navs: Option<Vec<FfNav>>, merge: Option<MergeView>) -> CollState {
        CollState {
            remote_navs,
            merge,
            lenders: RefCell::default(),
        }
    }

    /// The packer of every AP whose header `msgs[k]` carries a layout
    /// (`Behind::Layout`). A layout is decoded when it differs from the one
    /// that AP sent last, so a memtype that stays the same from op to op is
    /// decoded — and its program compiled — once.
    fn lenders(&self, msgs: &[Vec<u8>]) -> Result<RefMut<'_, Vec<Option<Lender>>>> {
        let mut lenders = self.lenders.borrow_mut();
        lenders.resize_with(msgs.len(), || None);
        for (msg, lender) in msgs.iter().zip(lenders.iter_mut()) {
            let Some(layout) = msg.get(LAYOUT_AT..).filter(|l| !l.is_empty()) else {
                continue;
            };
            if lender.as_ref().is_none_or(|(known, _)| known != layout) {
                *lender = Some((layout.to_vec(), MemPacker::decode(layout)?));
            }
        }
        Ok(lenders)
    }
}

/// The overlay of all ranks' filetypes (Section 3.2.3): a struct type
/// whose coverage test answers "does this collective write cover the
/// window completely?" in `O(depth)`.
pub(crate) struct MergeView {
    dtype: Datatype,
    disp: u64,
    /// Every rank's filetype, for [`MergeView::disjoint`].
    parts: Vec<Datatype>,
    /// Whether no file byte lies in two views, once a window asked.
    disjoint: OnceCell<bool>,
}

impl MergeView {
    /// Whether the data of one collective write fills `[lo, hi)`, so that
    /// the window needs no pre-read: the union of the fileviews covers
    /// the range, **and** the views are disjoint, **and** every AP supplies
    /// all of its view's bytes in it (`takes[k]` is what AP `k` ships for
    /// the range). The mergeview alone only knows what the views *could*
    /// cover, and counts a byte two views hold twice; an AP that writes
    /// fewer bytes than its view holds there leaves file bytes that must
    /// survive. `O(depth)` per AP, still no list.
    pub fn filled_by(&self, navs: &[FfNav], takes: &[u64], lo: u64, hi: u64) -> bool {
        self.covered(lo, hi)
            && self.disjoint()
            && navs
                .iter()
                .zip(takes)
                .all(|(nav, &take)| take == nav.bytes_in(lo, hi))
    }

    /// Whether file range `[lo, hi)` is fully covered by the union of all
    /// fileviews — a count, which only disjoint views make a union.
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

    /// Whether no file byte lies in two views: proved once, by the first
    /// window that asks — only a staged one does — with one merge of an
    /// extent of each filetype ([`disjoint_tilings`]).
    fn disjoint(&self) -> bool {
        *(self.disjoint).get_or_init(|| disjoint_tilings(&self.parts, self.dtype.extent()))
    }
}

/// Establish the collective state for a new fileview. Collective: every
/// rank calls this with its own view.
pub(crate) fn establish_view(comm: &Comm, view: &FileView, engine: Engine) -> Result<CollState> {
    match engine {
        Engine::ListBased => {
            // ROMIO exchanges nothing at view time; ol-lists travel with
            // every collective access instead.
            Ok(CollState::new(None, None))
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
            Ok(CollState::new(remote_navs, merge))
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
        parts: views.iter().map(|v| v.filetype.clone()).collect(),
        disjoint: OnceCell::new(),
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

/// Exchange access ranges and compute the per-IOP file domains.
fn file_domains(comm: &Comm, range: Option<(u64, u64)>, hints: &Hints) -> Vec<(u64, u64)> {
    let (lo, hi) = range.unwrap_or((u64::MAX, 0));
    let mut msg = lo.to_le_bytes().to_vec();
    msg.extend_from_slice(&hi.to_le_bytes());
    let all = comm.allgather(msg);
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
    domains
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

/// The tuples of a received access list, its length checked once.
fn wire(list_bytes: &[u8]) -> Result<OlWire<'_>> {
    OlWire::new(list_bytes).ok_or_else(|| IoError::Usage("malformed access list".into()))
}

/// The IOP-side list walking of Section 2.3: AP `k`'s list, read where it
/// landed, beside the stream of its end — a write's message, a read's
/// reply, or, for the IOP's own list, its user buffer.
fn recv_walks<'a, U>(
    lists: &[OlWire<'a>],
    ends: &[UserSide<'a, U>],
    spans: &[(u64, u64)],
) -> Vec<CoWalk<'a>> {
    (lists.iter().zip(ends).zip(spans))
        .map(|((&list, end), span)| {
            let user = end.packer.cursor(span.0 - end.stream_start);
            CoWalk::new(RunCursor::wire(list), user)
        })
        .collect()
}

/// The file range `[lo, hi)` the received lists reach; `None` when all
/// are empty.
fn reached(lists: &[OlWire]) -> Option<(u64, u64)> {
    let lo = lists.iter().filter_map(|l| l.get(0)).map(|t| t.0).min()?;
    let hi = lists.iter().filter_map(OlWire::last).map(|t| t.0 + t.1);
    Some((lo, hi.max()?))
}

/// Cursor over the merge of every AP's list for covered-window tests (the
/// list-based collective-write optimization).
struct Coverage {
    merged: OlList,
    i: usize,
}

impl Coverage {
    /// Merge the received lists (`O(Σ_p N(p))` as the paper notes).
    fn merge(lists: &[OlWire]) -> Coverage {
        let merged = OlList::merge_lists(lists.iter().map(OlWire::segs));
        Coverage { merged, i: 0 }
    }

    /// Whether `[lo, hi)` is fully inside one merged segment. Windows are
    /// probed in increasing order, so a cursor suffices.
    fn covered(&mut self, lo: u64, hi: u64) -> bool {
        let segs = &self.merged.segs;
        let (lo, hi) = (lo as i64, hi as i64);
        // skip segments that end at or before the window: they can never
        // cover this or any later window
        while self.i < segs.len() && segs[self.i].offset + segs[self.i].len as i64 <= lo {
            self.i += 1;
        }
        segs.get(self.i)
            .is_some_and(|s| s.offset <= lo && s.offset + s.len as i64 >= hi)
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
    let domains = file_domains(comm, my_range, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: ship lists and data (list-based), or where the data
    // lies (listless) ---------------------------------------------------
    let span = (stream_start, stream_start + total);
    let behind = match engine {
        Engine::ListBased => Behind::Data(packer, user, scratch),
        Engine::Listless => Behind::layout(packer, stream_start),
    };
    let times = (&mut exch_ns, &mut pack_ns);
    let (_, own_list) = announce(comm, nav, &domains, span, &behind, times);

    // ----- IOP phase, in a lending scope --------------------------------
    // Every rank lends its user buffer: a listless IOP places each AP's
    // bytes from where they lie (the list-based one from its messages). The
    // scope ends in the barrier this write ends in. A storage fault on an
    // IOP must not strand the other ranks there, so IOP errors are
    // captured, every rank reaches the barrier, and the error surfaces only
    // after the world is in sync. (All AP→IOP messages are received above
    // the window loop, so an aborted IOP leaves nothing in flight.)
    let own = UserSide::new(packer, user, stream_start);
    let (fatal, t, sp) = comm.lend(user, |lent| {
        let mut fatal = None;
        if me < naggr && domains[me].1 > domains[me].0 {
            let t = lio_obs::now();
            let (msgs, lists) = recv_exchange(comm, engine == Engine::ListBased, own_list);
            exch_ns += lio_obs::elapsed_ns(t);
            fatal = iop_write(
                storage,
                domains[me],
                state,
                engine,
                &msgs,
                &lists,
                own,
                lent,
                me,
                hints,
                scratch,
            )
            .err();
            // placed: the messages now belong to this rank's arena
            for msg in msgs {
                scratch.give(msg);
            }
        }
        (fatal, lio_obs::now(), lio_obs::trace::span("exch.barrier"))
    });
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

/// An IOP's part of a collective write over its domain `dom`, once every
/// AP's message `msgs[k]` (and, list-based, its list `lists[k]`) is in:
/// every AP's end of the window loop, then the loop. An AP's end is its
/// message as received (list-based) or the user buffer it lent (listless,
/// through the layout its header carries); the IOP's own rank's is `own`
/// either way.
#[allow(clippy::too_many_arguments)]
fn iop_write(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    state: &CollState,
    engine: Engine,
    msgs: &[Vec<u8>],
    lists: &[Vec<u8>],
    own: UserSide<&[u8]>,
    lent: &Lent,
    me: usize,
    hints: &Hints,
    scratch: &Scratch,
) -> Result<()> {
    let spans: Vec<(u64, u64)> = msgs.iter().map(|m| header(m)).collect();
    // Domains are disjoint and nobody is told the write is done before
    // the closing barrier: this IOP is the only writer of its windows, so
    // its loop may write behind (`lane`).
    match engine {
        Engine::ListBased => {
            let mut ends: Vec<UserSide<&[u8]>> = (msgs.iter().zip(&spans))
                .map(|(msg, span)| UserSide::new(&MESSAGE, msg.as_slice(), span.0))
                .collect();
            ends[me] = own;
            let lists = lists.iter().map(|l| wire(l)).collect::<Result<Vec<_>>>()?;
            let users = ends.iter().map(|e| e.user);
            let mut walks: Vec<_> = recv_walks(&lists, &ends, &spans)
                .into_iter()
                .zip(users)
                .collect();
            std::thread::scope(|lane| {
                iop_write_listbased(storage, dom, &lists, &mut walks, hints, scratch, lane)
            })
        }
        Engine::Listless => {
            let lenders = state.lenders(msgs)?;
            let mut ends: Vec<UserSide<&[u8]>> = (msgs.iter().zip(&spans).zip(lenders.iter()))
                .enumerate()
                .map(
                    |(k, ((msg, span), lender))| match (lender, lent_from(msg)) {
                        (Some((_, packer)), Some(start)) => {
                            UserSide::new(packer, lent.get(k), start)
                        }
                        // nothing of this AP's in the domain
                        _ => UserSide::new(&STREAM, &[][..], span.0),
                    },
                )
                .collect();
            ends[me] = own;
            let navs = state
                .remote_navs
                .as_ref()
                .expect("listless collective requires cached fileviews");
            let merge = state.merge.as_ref();
            std::thread::scope(|lane| {
                iop_write_listless(
                    storage, dom, &spans, &ends, navs, merge, hints, scratch, lane,
                )
            })
        }
    }
}

/// IOP write loop, list-based placement: `walks[k]` walks the list
/// `lists[k]` and takes the stream of the bytes beside it to where that
/// list says.
fn iop_write_listbased<'s>(
    storage: &'s dyn StorageFile,
    dom: (u64, u64),
    lists: &[OlWire],
    walks: &mut [(CoWalk, &[u8])],
    hints: &Hints,
    scratch: &'s Scratch,
    lane: &'s Scope<'s, '_>,
) -> Result<()> {
    // clip the domain to where data actually lands
    let Some((lo, hi)) = reached(lists) else {
        return Ok(());
    };
    let lo = lo.max(dom.0);
    let hi = hi.min(dom.1);

    // the merge of all lists, for the covered-window optimization: made by
    // the first window that is staged, as only a staged window asks
    let mut coverage = None;

    let mut windows = 0u64;
    let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
    // a window never exceeds the clipped domain, so neither need the buffer
    let mut io = WindowIo::sole_writer(storage, scratch, grid.max_len(), lane);
    for (win, win_end) in grid {
        if walks
            .iter()
            .any(|w| w.0.file.next_at().is_some_and(|o| o < win_end))
        {
            windows += 1;
            let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
            io.update(
                win,
                win_end,
                || {
                    coverage
                        .get_or_insert_with(|| Coverage::merge(lists))
                        .covered(win, win_end)
                },
                &mut |at, piece, store| {
                    let stores = &mut Stores::new(store);
                    for (walk, user) in walks.iter_mut() {
                        walk.place(piece, at, user, usize::MAX, stores, false);
                    }
                },
            )?;
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
/// stream bytes `spans[k]` go from `ends[k]` — the user buffer it lent, or
/// this rank's own — to where `navs[k]` says.
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
            let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
            seen.fill(RunTally::until(win_end));
            io.update(
                win,
                win_end,
                || merge.is_some_and(|m| m.filled_by(navs, &takes, win, win_end)),
                // each AP's data goes on from its cursor and stops at the
                // end of the piece by itself
                &mut |at, piece, store| {
                    for (k, nav_p) in navs.iter().enumerate() {
                        if takes[k] > 0 {
                            let (from, rest) = (cursors[k], (spans[k].1 - cursors[k]) as usize);
                            let seen = &mut seen[k];
                            cursors[k] += nav_p
                                .place_piece(&ends[k], from, rest, piece, at, seen, store)
                                as u64;
                        }
                    }
                },
            )?;
        }
    }
    debug_assert!(
        spans.iter().zip(&cursors).all(|(s, &c)| c >= s.1),
        "an AP's data was not placed completely"
    );
    iop_write_done(io, windows)
}

/// What an AP's `TAG_TP_DATA` message carries behind its header.
enum Behind<'a> {
    /// Nothing: a read's announcement that is answered in replies.
    Nothing,
    /// The stream bytes, packed from the user buffer (the list-based write).
    Data(&'a MemPacker, &'a [u8], &'a Scratch),
    /// Where they lie in the user buffer the AP lends (listless): its
    /// `stream_start`, then its packer's [`MemPacker::encode_into`].
    Layout(Vec<u8>),
}

impl Behind<'_> {
    /// The layout of a stream from `stream_start` in a buffer as `packer`.
    fn layout(packer: &MemPacker, stream_start: u64) -> Self {
        let mut layout = stream_start.to_le_bytes().to_vec();
        packer.encode_into(&mut layout);
        Behind::Layout(layout)
    }
}

/// AP side of the exchange, both directions. Every IOP with a domain gets
/// the `(s_lo, s_hi)` of this rank's access `[stream_start, stream_end)`
/// in it, followed — writing, so with something `behind` — by those
/// stream bytes, packed (list-based, whose ol-list goes ahead in a message
/// of its own), or by where they lie (listless). Except to the rank's own
/// IOP side: that gets the header alone, its list is returned instead of
/// sent (second value), and its data stays in the user buffer for the
/// window loop (its [`UserSide`]). Returns the intervals per domain; time
/// goes to `(exch_ns, pack_ns)`.
fn announce(
    comm: &Comm,
    nav: &ViewNav,
    domains: &[(u64, u64)],
    (stream_start, stream_end): (u64, u64),
    behind: &Behind,
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
        if let ViewNav::List(list_nav) = nav {
            let list = list_nav.access_list(s_lo..s_hi);
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
        let crosses = i != me && s_hi > s_lo;
        let mut n = 0;
        let mut msg = match behind {
            Behind::Data(packer, user, scratch) if crosses => {
                n = s_hi - s_lo;
                let mut msg = scratch.take(MSG_HEADER + n as usize);
                let (got, ns) = timed(Some(("pack", n, 0)), || {
                    packer.pack(user, s_lo - stream_start, &mut msg[MSG_HEADER..])
                });
                debug_assert_eq!(got as u64, n);
                *pack_ns += ns;
                msg
            }
            Behind::Layout(layout) if crosses => {
                let mut msg = vec![0; MSG_HEADER];
                msg.extend_from_slice(layout);
                msg
            }
            _ => vec![0; MSG_HEADER],
        };
        msg[0..8].copy_from_slice(&s_lo.to_le_bytes());
        msg[8..16].copy_from_slice(&s_hi.to_le_bytes());
        OBS_EXCH_DATA_BYTES.add(n);
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

/// The `stream_start` of an AP that lends this IOP its bytes, which its
/// header carries ahead of its layout; `None` for a header alone.
fn lent_from(msg: &[u8]) -> Option<u64> {
    let at = msg
        .get(MSG_HEADER..LAYOUT_AT)
        .filter(|_| msg.len() > LAYOUT_AT)?;
    Some(u64::from_le_bytes(at.try_into().expect("8 bytes")))
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
    scratch: &Scratch,
) -> Result<u64> {
    // root trace span delimiting this collective op
    let _root = lio_obs::trace::span_ab("coll.read", total, 0);
    let engine = match nav {
        ViewNav::List(_) => Engine::ListBased,
        ViewNav::Ff(_) => Engine::Listless,
    };
    let obs = lio_obs::enabled();
    if obs {
        OBS_R_CALLS.incr();
    }
    let mut exch_ns = 0u64;
    let mut pack_ns = 0u64;
    let my_range = access_range(nav, stream_start, total);
    let t = lio_obs::now();
    let domains = file_domains(comm, my_range, hints);
    exch_ns += lio_obs::elapsed_ns(t);
    let me = comm.rank();
    let iop = domains.get(me).is_some_and(|d| d.1 > d.0);

    // ----- AP phase: announce (and, list-based, ship the lists) --------
    // A listless AP whose stream lies in its buffer in order lends each IOP
    // the piece of the buffer its share of that IOP's domain occupies, and
    // says how the stream lies there; any other AP gets its shares back in
    // replies.
    let lends = engine == Engine::Listless && packer.in_order();
    let behind = match lends {
        true => Behind::layout(packer, stream_start),
        false => Behind::Nothing,
    };
    let span = (stream_start, stream_start + total);
    let times = (&mut exch_ns, &mut pack_ns);
    let (shares, own_list) = announce(comm, nav, &domains, span, &behind, times);
    // the IOPs this rank gets a reply from: list-based, every other one
    let replied = |i: usize| {
        i != me
            && domains[i].1 > domains[i].0
            && !lends
            && (engine == Engine::ListBased || shares[i].1 > shares[i].0)
    };

    // ----- IOP phase, then the replies ------------------------------------
    // A storage fault on an IOP must not strand its APs: it is captured,
    // every AP still gets the promised bytes (zeros past the failure point)
    // and every rank the end of the op, and it surfaces on this rank only
    // then. The IOP side's own end is the user buffer this rank `kept`, or
    // the piece of it this rank lent itself.
    let rest = |mut kept: Option<&mut [u8]>, lent: Option<&LentMut>| {
        let mut fatal = None;
        if iop {
            let own = match kept.as_deref_mut() {
                Some(user) => UserSide::new(packer, user, stream_start),
                None => {
                    let lent = lent.expect("a rank that keeps no buffer lent it");
                    lent_end(packer, lent.take(me), stream_start, shares[me])
                }
            };
            fatal = iop_read(
                storage,
                comm,
                domains[me],
                state,
                engine,
                own_list,
                own,
                lent,
                hints,
                scratch,
                &mut exch_ns,
            );
        }
        if let Some(user) = kept {
            let mine = UserSide::new(packer, user, stream_start);
            let times = (&mut exch_ns, &mut pack_ns);
            recv_replies(comm, &shares, replied, mine, scratch, times);
        }
        fatal
    };
    let fatal = match engine {
        Engine::ListBased => rest(Some(user), None),
        // Every rank lends its pieces (an AP that cannot cut its buffer
        // none) in a scope that ends in the barrier this read ends in: no
        // rank writes a piece once its lender is told the read is done.
        Engine::Listless => {
            let (pieces, kept) = match lends {
                true => (cut(packer, user, stream_start, &shares), None),
                false => (Vec::new(), Some(user)),
            };
            let (fatal, t, sp) = comm.lend_mut(pieces, |lent| {
                let fatal = rest(kept, Some(lent));
                (fatal, lio_obs::now(), lio_obs::trace::span("exch.barrier"))
            });
            drop(sp);
            exch_ns += lio_obs::elapsed_ns(t);
            fatal
        }
    };
    if obs {
        OBS_R_EXCH_NS.add(exch_ns);
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

/// `user`, a buffer that holds a stream from view-stream position
/// `stream_start` on as `packer` says (in order), cut into one piece per
/// file domain: the bytes that hold this rank's share `shares[i]` of domain
/// `i`, empty where the share is.
fn cut<'u>(
    packer: &MemPacker,
    mut user: &'u mut [u8],
    stream_start: u64,
    shares: &[(u64, u64)],
) -> Vec<&'u mut [u8]> {
    let mut at = 0;
    (shares.iter())
        .map(|&(s_lo, s_hi)| {
            if s_hi <= s_lo {
                return &mut [][..];
            }
            let range = packer.buffer_range(s_lo - stream_start, s_hi - stream_start);
            let (_, rest) = std::mem::take(&mut user).split_at_mut(range.start - at);
            let (piece, rest) = rest.split_at_mut(range.len());
            (user, at) = (rest, range.end);
            piece
        })
        .collect()
}

/// The end of a window loop over `piece`: the bytes of a buffer, laid out
/// as `packer` says from view-stream position `stream_start` on, that hold
/// the stream interval `span` ([`cut`]).
fn lent_end<'a, 'p>(
    packer: &'a MemPacker,
    piece: &'p mut [u8],
    stream_start: u64,
    (s_lo, s_hi): (u64, u64),
) -> UserSide<'a, &'p mut [u8]> {
    let mut at = 0;
    if s_hi > s_lo {
        let range = packer.buffer_range(s_lo - stream_start, s_hi - stream_start);
        debug_assert_eq!(piece.len(), range.len(), "a piece is its share's bytes");
        at = range.start;
    }
    UserSide::piece(packer, piece, stream_start, at)
}

/// An IOP's part of a collective read over its domain `dom`: every AP's
/// header (and, list-based, its list) in, every AP's end of the window
/// loop, the loop, then the replies out. An AP's end is the piece of its
/// user buffer it lent this IOP (listless, through the layout its header
/// carries) or else a reply of the promised length; the IOP's own rank's is
/// `own`. A storage fault ends the loop, and every end is filled up with
/// zeros past the failure point before the replies go: returns the fault.
#[allow(clippy::too_many_arguments)]
fn iop_read(
    storage: &dyn StorageFile,
    comm: &Comm,
    dom: (u64, u64),
    state: &CollState,
    engine: Engine,
    own_list: Option<Vec<u8>>,
    own: UserSide<&mut [u8]>,
    lent: Option<&LentMut>,
    hints: &Hints,
    scratch: &Scratch,
    exch_ns: &mut u64,
) -> Option<IoError> {
    let me = comm.rank();
    let t = lio_obs::now();
    let (msgs, lists) = recv_exchange(comm, engine == Engine::ListBased, own_list);
    *exch_ns += lio_obs::elapsed_ns(t);
    let spans: Vec<(u64, u64)> = msgs.iter().map(|m| header(m)).collect();
    let mut fatal: Option<IoError> = None;
    let lenders = match lent.map(|_| state.lenders(&msgs)).transpose() {
        Ok(lenders) => lenders,
        // nothing is read then, but the replies still go
        Err(e) => {
            fatal = Some(e);
            None
        }
    };
    // whether AP `k` gets a reply: list-based, every other AP does
    let replies = |k: usize| {
        k != me
            && (engine == Engine::ListBased
                || (spans[k].1 > spans[k].0 && lent_from(&msgs[k]).is_none()))
    };
    let mut outs: Vec<Vec<u8>> = (0..spans.len())
        .map(|k| match replies(k) {
            true => scratch.take((spans[k].1 - spans[k].0) as usize),
            false => Vec::new(),
        })
        .collect();
    let mut own = Some(own);
    let mut ends: Vec<UserSide<&mut [u8]>> = Vec::with_capacity(spans.len());
    for (k, (out, &span)) in outs.iter_mut().zip(&spans).enumerate() {
        let lender = || {
            let packer = &lenders.as_ref()?[k].as_ref()?.1;
            Some((lent?, packer, lent_from(&msgs[k])?))
        };
        ends.push(match lender() {
            _ if k == me => own.take().expect("one own end"),
            Some((lent, packer, start)) => lent_end(packer, lent.take(k), start, span),
            None => UserSide::new(&STREAM, out.as_mut_slice(), span.0),
        });
    }
    let mut filled = vec![0u64; spans.len()];
    let obs = lio_obs::enabled();
    let mut io_ns = 0;
    let mut pack_ns = 0;
    let mut windows = 0u64;
    match engine {
        Engine::ListBased => {
            // (a malformed list fails the op: nothing is read, no list walked)
            let lists = lists.iter().map(|l| wire(l)).collect::<Result<Vec<_>>>();
            let lists = lists.unwrap_or_else(|e| {
                fatal.get_or_insert(e);
                Vec::new()
            });
            let mut walks = recv_walks(&lists, &ends, &spans);
            if let (Some((lo, hi)), true) = (reached(&lists), fatal.is_none()) {
                let lo = lo.max(dom.0);
                let hi = hi.min(dom.1);
                let grid = Windows::new(lo, hi, hints.cb_buffer_size as u64);
                let mut io = WindowIo::new(storage, scratch, grid.max_len());
                for (win, win_end) in grid {
                    if walks
                        .iter()
                        .any(|w| w.file.next_at().is_some_and(|o| o < win_end))
                    {
                        windows += 1;
                        let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
                        let res = io.view(win, win_end, &mut |at, piece| {
                            let each = walks.iter_mut().zip(&mut ends).zip(&mut filled);
                            for ((walk, end), filled) in each {
                                *filled +=
                                    walk.extract(piece, at, end.user, usize::MAX, false) as u64;
                            }
                        });
                        if let Err(e) = res {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                (io_ns, pack_ns) = (io.io_ns, io.pack_ns);
            }
        }
        Engine::Listless => {
            let navs = state
                .remote_navs
                .as_ref()
                .expect("listless collective requires cached fileviews");
            let mut cursors: Vec<u64> = spans.iter().map(|s| s.0).collect();
            // (an undecodable layout already failed the op: nothing to read)
            if let (Some((lo, hi)), true) = (touched(&spans, navs), fatal.is_none()) {
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
                        windows += 1;
                        let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
                        seen.fill(RunTally::until(win_end));
                        // each AP's bytes go on from its cursor and stop at
                        // the end of the piece by themselves
                        let res = io.view(win, win_end, &mut |at, piece| {
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
                                    ) as u64;
                                }
                            }
                        });
                        if let Err(e) = res {
                            fatal = Some(e);
                            break;
                        }
                    }
                }
                (io_ns, pack_ns) = (io.io_ns, io.pack_ns);
            }
            for (k, c) in cursors.iter().enumerate() {
                filled[k] = c - spans[k].0;
            }
        }
    }
    if obs {
        OBS_R_IO_NS.add(io_ns);
        OBS_R_PACK_NS.add(pack_ns);
        OBS_WINDOWS.add(windows);
    }
    if fatal.is_some() {
        // every AP gets the promised length, zeros past the failure point:
        // in its reply, in the piece it lent or, the own share, in the user
        // buffer
        for ((end, span), done) in ends.iter_mut().zip(&spans).zip(&filled) {
            let zeros = vec![0u8; (span.1 - span.0 - done) as usize];
            let skip = span.0 + done - end.stream_start;
            end.packer.unpack_at(&zeros, end.user, end.buf_at, skip);
        }
    }
    drop(ends);
    let t = lio_obs::now();
    for (k, out) in outs.into_iter().enumerate() {
        if replies(k) {
            if obs {
                OBS_EXCH_DATA_BYTES.add(out.len() as u64);
            }
            let _sp = lio_obs::trace::span_ab("exch.send", k as u64, out.len() as u64);
            comm.send_vec(k, TAG_TP_RDATA, out);
        }
    }
    *exch_ns += lio_obs::elapsed_ns(t);
    fatal
}

/// AP side of a read's replies: from every IOP `i` that `replied(i)`, the
/// bytes of this rank's share `shares[i]` of its domain, unpacked into
/// `mine` in arrival order. Time goes to `(exch_ns, pack_ns)`.
fn recv_replies(
    comm: &Comm,
    shares: &[(u64, u64)],
    replied: impl Fn(usize) -> bool,
    mine: UserSide<&mut [u8]>,
    scratch: &Scratch,
    (exch_ns, pack_ns): (&mut u64, &mut u64),
) {
    let mut reqs: Vec<lio_mpi::Request> = (0..shares.len())
        .filter(|&i| replied(i))
        .map(|i| comm.irecv(i, TAG_TP_RDATA))
        .collect();
    for _ in 0..reqs.len() {
        let t = lio_obs::now();
        let sp = lio_obs::trace::span("exch.wait");
        let (_, i, data) = comm.wait_any(&mut reqs);
        drop(sp);
        *exch_ns += lio_obs::elapsed_ns(t);
        let (s_lo, s_hi) = shares[i];
        debug_assert_eq!(data.len() as u64, s_hi - s_lo);
        if s_hi > s_lo {
            let skip = s_lo - mine.stream_start;
            let span = Some(("unpack", data.len() as u64, 0));
            let (put, ns) = timed(span, || mine.packer.unpack(&data, mine.user, skip));
            debug_assert_eq!(put, data.len());
            *pack_ns += ns;
        }
        scratch.give(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lio_datatype::TUPLE_BYTES;
    use lio_mpi::World;
    use lio_pfs::MemFile;

    /// A `TAG_TP_DATA` header for the stream interval `[s_lo, s_hi)`.
    fn header_of(s_lo: u64, s_hi: u64) -> Vec<u8> {
        [s_lo.to_le_bytes(), s_hi.to_le_bytes()].concat()
    }

    /// An access list one byte short of whole tuples fails an IOP's write
    /// with `Usage`, before anything is placed.
    #[test]
    fn a_torn_access_list_fails_the_write() {
        let storage = MemFile::new();
        let results = World::run(2, |comm| {
            comm.lend(&[], |lent| {
                if comm.rank() == 1 {
                    return None;
                }
                // rank 1 announces 8 bytes in rank 0's domain
                let msgs = [header_of(0, 0), [header_of(0, 8), vec![1; 8]].concat()];
                let lists = [Vec::new(), vec![0; TUPLE_BYTES - 1]];
                let (state, scratch) = (CollState::new(None, None), Scratch::default());
                let own = UserSide::new(&STREAM, &[][..], 0);
                let hints = Hints::list_based();
                let (dom, engine) = ((0, 64), Engine::ListBased);
                let res = iop_write(
                    &storage, dom, &state, engine, &msgs, &lists, own, lent, 0, &hints, &scratch,
                );
                Some(res)
            })
        });
        assert!(
            matches!(results[0], Some(Err(IoError::Usage(_)))),
            "{:?}",
            results[0]
        );
        assert_eq!(storage.len(), 0, "nothing was written");
    }

    /// The same list fails an IOP's read with `Usage`, and the AP that sent
    /// it still gets its reply, the promised length of zeros.
    #[test]
    fn a_torn_access_list_fails_the_read_and_the_replies_still_go() {
        let storage = MemFile::new();
        let results = World::run(2, |comm| {
            if comm.rank() == 1 {
                comm.send_vec(0, TAG_TP_DATA, header_of(0, 8));
                comm.send_vec(0, TAG_TP_LIST, vec![0; TUPLE_BYTES + 1]);
                let reply = comm.recv(0, TAG_TP_RDATA);
                assert_eq!(reply, [0; 8], "the promised bytes, zeros");
                return None;
            }
            comm.send_vec(0, TAG_TP_DATA, header_of(0, 0));
            let (state, scratch) = (CollState::new(None, None), Scratch::default());
            let own = UserSide::new(&STREAM, &mut [][..], 0);
            let hints = Hints::list_based();
            let (dom, engine, own_list) = ((0, 64), Engine::ListBased, Some(Vec::new()));
            let exch_ns = &mut 0;
            iop_read(
                &storage, comm, dom, &state, engine, own_list, own, None, &hints, &scratch, exch_ns,
            )
        });
        assert!(
            matches!(results[0], Some(IoError::Usage(_))),
            "{:?}",
            results[0]
        );
    }
}
