//! Collective file access: the two-phase method.
//!
//! Collective reads/writes are performed by **io-processes** (IOPs) that
//! touch the file, on behalf of all **access-processes** (APs) — paper
//! Section 2.3. The file range touched by the collective call is split
//! evenly among the IOPs (*file domains*, interior boundaries rounded to
//! the window grid of `crate::window`, [`file_domains`]); each AP announces
//! the part of its access in each IOP's domain — its *share* of it — and
//! each IOP loops over its domain in `cb_buffer_size` windows, moving every
//! share between a window and the AP's *end* of the loop ([`UserSide`]: a
//! buffer and how the stream lies there) in one copy, whatever the
//! memtype. That loop is written once per direction ([`write_windows`],
//! [`read_windows`]), generic over [`Share`]: the engines differ only in
//! what a share is and in their dense-window test, as the paper describes.
//!
//! * **list-based** ([`ListShare`]): every AP builds an **ol-list of
//!   absolute `⟨offset, length⟩` tuples covering each IOP's domain** — size
//!   `O(Saccess/Sextent · Nblock)`, proportional to the access, not the
//!   filetype — and sends it to that IOP (16 bytes of metadata per tuple),
//!   which walks it beside the AP's end. For writes, the IOP merges all
//!   received lists (`O(Σ_p Nblock(p))`) to detect fully-covered windows,
//!   once it stages a window: only a staged window asks.
//! * **listless** ([`FfShare`]): fileview caching means the IOP already has
//!   every AP's `(disp, filetype)` (exchanged compactly at `set_view`), so
//!   the messages carry no list; placement runs the filetype's program from
//!   a stream cursor on, and the covered-window test is one `O(depth)`
//!   mergeview evaluation.
//!
//! Ranks here are threads of one address space, so in neither engine does
//! the data itself travel in a message: an AP *lends* the buffer its bytes
//! lie in, as a shared-memory MPI moves a large message with one copy, and
//! its header tells each IOP its stream interval there and how the stream
//! lies in the lent buffer (its layout: a memtype encoded as fileview
//! caching encodes filetypes, decoded once per layout, [`CollState`]). A
//! listless AP lends its user buffer. A list-based AP packs its shares of
//! the other domains into a staging buffer and lends that (ROMIO's pack);
//! so does a listless AP whose memtype does not hold its stream in order,
//! reading. The own share is never packed or lent: its end is the user
//! buffer itself. Writing, every rank lends its buffer whole, to be read
//! ([`Comm::lend`]); reading, it cuts it into one piece per file domain and
//! lends piece `i` to IOP `i` alone, to be written ([`Comm::lend_mut`]).
//! Messages carry headers and ol-lists, nothing else, and the lending
//! scope's closing barrier is the rank-sync the op ends in.
//!
//! There is one schedule, the monolithic two-phase of Thakur, Gropp & Lusk:
//! every AP announces its whole share of each domain at once (list-based,
//! with its whole list), which preserves the list-handling costs the paper
//! measures; then each IOP walks its domain, its only writer until the
//! closing rank-sync ([`WindowIo::sole_writer`]): on storage that stages
//! and is slow, the write-back of window `k` runs beside window `k + 1` —
//! the only overlap that ever paid (EXPERIMENTS.md).

use std::cell::{OnceCell, RefCell, RefMut};
use std::ops::Range;

use lio_datatype::{
    bytes_below_tiled, disjoint_tilings, serialize, Datatype, Field, OlList, OlWire,
};
use lio_mpi::{Comm, Lent, LentMut};
use lio_obs::LazyCounter;
use lio_pfs::StorageFile;

use crate::error::{IoError, Result};
use crate::hints::{Engine, Hints};
use crate::packer::{MemPacker, UserSide, MSG_HEADER, STREAM};
use crate::scratch::Scratch;
use crate::view::{FfNav, FileView, ListShare, Share, ViewNav};
use crate::window::{snap, WindowIo, Windows};
use lio_obs::health;

// Collective metrics. The two-phase breakdown,
// `core.coll.{write,read}.{exchange,io,pack}_ns`, is not kept here: the
// spans below name the phases (`exch.*` the AP↔IOP messages, the domains'
// allgather and the closing barrier; `io.*` the window requests; `pack`,
// `unpack` and `pack.place` every copy), and each outermost one charges
// its phase's counter when it closes (`lio_obs::trace::phase_of`).
// `exchange.list_bytes` counts ol-list metadata shipped (list-based engine
// only; always 0 for listless — the paper's "16 bytes per tuple"
// overhead). No payload is ever shipped: both engines lend it.
static OBS_W_CALLS: LazyCounter = LazyCounter::new("core.coll.write.calls");
static OBS_R_CALLS: LazyCounter = LazyCounter::new("core.coll.read.calls");
static OBS_EXCH_LIST_BYTES: LazyCounter = LazyCounter::new("core.coll.exchange.list_bytes");
static OBS_WINDOWS: LazyCounter = LazyCounter::new("core.coll.windows");
/// Collective calls that aborted on a permanent storage fault — counted
/// after the closing rank-sync, so an abort is always a clean abort.
static OBS_FAULT_ABORTS: LazyCounter = LazyCounter::new("core.coll.fault_aborts");

/// Tag for the ol-list message (list-based engine only).
const TAG_TP_LIST: u64 = 101;
/// Tag for AP→IOP access headers, with the layout of the lent bytes behind.
const TAG_TP_HEADER: u64 = 102;
/// Where the layout in a header starts: behind the `(s_lo, s_hi)` and the
/// `stream_start` of the buffer the AP lends.
const LAYOUT_AT: usize = MSG_HEADER + 8;

/// Collective state established at `set_view` time.
pub(crate) struct CollState {
    /// Listless: every rank's cached fileview (fileview caching).
    pub remote_navs: Option<Vec<FfNav>>,
    /// Listless: the mergeview, when all ranks share disp and extent.
    pub merge: Option<MergeView>,
    /// How each AP's stream lies in the buffer it lends, as this rank's IOP
    /// side last decoded it.
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

    /// The packer of every AP whose header `heads[k]` carries a layout. A
    /// layout is decoded when it differs from the one that AP sent last, so
    /// a memtype that stays the same from op to op is decoded — and its
    /// program compiled — once.
    fn lenders(&self, heads: &[Vec<u8>]) -> Result<RefMut<'_, Vec<Option<Lender>>>> {
        let mut lenders = self.lenders.borrow_mut();
        lenders.resize_with(heads.len(), || None);
        for (head, lender) in heads.iter().zip(lenders.iter_mut()) {
            let Some(layout) = head.get(LAYOUT_AT..).filter(|l| !l.is_empty()) else {
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
    /// all of its view's bytes in it (its stream interval `spans[k]` holds
    /// them). The mergeview alone only knows what the views *could* cover,
    /// and counts a byte two views hold twice; an AP that writes fewer
    /// bytes than its view holds there leaves file bytes that must
    /// survive. `O(depth)` per AP, still no list.
    pub fn filled_by(&self, navs: &[FfNav], spans: &[(u64, u64)], lo: u64, hi: u64) -> bool {
        let supplies = |nav: &FfNav, &(s_lo, s_hi): &(u64, u64)| {
            let (a, b) = (nav.abs_to_stream(lo), nav.abs_to_stream(hi));
            a >= b || (s_lo <= a && b <= s_hi)
        };
        self.covered(lo, hi)
            && self.disjoint()
            && navs.iter().zip(spans).all(|(n, s)| supplies(n, s))
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

/// Exchange every rank's access range — the file bytes its stream
/// interval `[s_lo, s_hi)` reaches — and compute the per-IOP file domains
/// (the `exch.domains` span).
fn file_domains(
    comm: &Comm,
    nav: &ViewNav,
    (s_lo, s_hi): (u64, u64),
    hints: &Hints,
) -> Vec<(u64, u64)> {
    let _sp = lio_obs::trace::span("exch.domains");
    let (lo, hi) = nav.reach((s_lo, s_hi)).unwrap_or((u64::MAX, 0));
    let all = comm.allgather([lo.to_le_bytes(), hi.to_le_bytes()].concat());
    let ranges: Vec<(u64, u64)> = (all.iter().map(|b| header(b)))
        .filter(|&(lo, hi)| hi > lo && lo != u64::MAX)
        .collect();
    let min_st = ranges.iter().map(|r| r.0).min();
    let max_end = ranges.iter().map(|r| r.1).max();
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
    domains
}

/// The tuples of every received access list, each length checked once.
fn wires(lists: &[Vec<u8>]) -> Result<Vec<OlWire<'_>>> {
    let malformed = || IoError::Usage("malformed access list".into());
    lists
        .iter()
        .map(|l| OlWire::new(l).ok_or_else(malformed))
        .collect()
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
    OBS_W_CALLS.incr();
    let span = (stream_start, stream_start + total);
    let domains = file_domains(comm, nav, span, hints);
    let naggr = domains.len();
    let me = comm.rank();

    // ----- AP phase: announce (and, list-based, ship the lists and pack)
    // A listless AP lends its user buffer; a list-based one packs its
    // shares of the other domains into a staging buffer and lends that.
    let stages = matches!(nav, ViewNav::List(_));
    let layout = layout(if stages { &STREAM } else { packer }, stream_start);
    let (shares, own_list) = announce(comm, nav, &domains, span, &layout);
    let mut staging = Vec::new();
    if stages {
        staging = stage(&shares, me, total, scratch);
        for (skip, at) in staged(&shares, me, stream_start) {
            let n = at.len() as u64;
            let _sp = lio_obs::trace::span_ab("pack", n, 0);
            let got = packer.pack(user, skip, &mut staging[at]);
            debug_assert_eq!(got as u64, n);
        }
    }

    // ----- IOP phase, in a lending scope --------------------------------
    // An IOP places each AP's bytes from where they lie. The scope ends in
    // the barrier this write ends in. A storage fault on an IOP must not
    // strand the other ranks there, so IOP errors are captured, every rank
    // reaches the barrier, and the error surfaces only after the world is
    // in sync. (All AP→IOP messages are received above the window loop, so
    // an aborted IOP leaves nothing in flight.)
    let own = UserSide::new(packer, user, stream_start);
    let lends = if stages { &staging[..] } else { user };
    let (fatal, sp) = comm.lend(lends, |lent| {
        let mut fatal = None;
        if me < naggr && domains[me].1 > domains[me].0 {
            let (heads, lists) = recv_exchange(comm, own_list);
            let (dom, heads) = (domains[me], &heads[..]);
            fatal = iop_write(
                storage, dom, state, heads, &lists, own, lent, me, hints, scratch,
            )
            .err();
        }
        (fatal, lio_obs::trace::span("exch.barrier"))
    });
    drop(sp);
    scratch.give(staging);
    ended(fatal, total, "write")
}

/// How a collective op ends on this rank, once every rank is in sync: its
/// `total` bytes, or the fault an IOP met, counted and dumped.
fn ended(fatal: Option<IoError>, total: u64, op: &str) -> Result<u64> {
    let Some(e) = fatal else {
        return Ok(total);
    };
    OBS_FAULT_ABORTS.incr();
    lio_obs::trace::flight_dump(&format!("collective {op} aborted on a storage fault"));
    Err(e)
}

/// An IOP's part of a collective write over its domain `dom`, once every
/// AP's header `heads[k]` (and, list-based, its list `lists[k]`) is in:
/// every AP's end of the window loop — the buffer it lent, found through
/// the layout its header carries, or for the IOP's own rank `own` — and its
/// share, then the loop with the engine's dense-window test.
#[allow(clippy::too_many_arguments)]
fn iop_write(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    state: &CollState,
    heads: &[Vec<u8>],
    lists: &[Vec<u8>],
    own: UserSide<&[u8]>,
    lent: &Lent,
    me: usize,
    hints: &Hints,
    scratch: &Scratch,
) -> Result<()> {
    let spans: Vec<(u64, u64)> = heads.iter().map(|m| header(m)).collect();
    let lenders = state.lenders(heads)?;
    let mut ends: Vec<UserSide<&[u8]>> = (heads.iter().zip(&spans).zip(lenders.iter()))
        .enumerate()
        .map(
            |(k, ((head, span), lender))| match (lender, lent_from(head)) {
                (Some((_, packer)), Some(start)) => UserSide::new(packer, lent.get(k), start),
                // nothing of this AP's in the domain
                _ => UserSide::new(&STREAM, &[][..], span.0),
            },
        )
        .collect();
    ends[me] = own;
    let (lists, cb) = (wires(lists)?, hints.cb_buffer_size as u64);
    match &state.remote_navs {
        Some(navs) => {
            let mut shares: Vec<_> = navs.iter().zip(&spans).map(|(n, &s)| n.share(s)).collect();
            let merge = state.merge.as_ref();
            let dense =
                |win, win_end| merge.is_some_and(|m| m.filled_by(navs, &spans, win, win_end));
            write_windows(storage, dom, &mut shares, &ends, dense, cb, scratch)
        }
        None => {
            let mut shares = listed(&lists, &ends, &spans);
            // the merge of all lists, made by the first window that is
            // staged, as only a staged window asks
            let mut coverage = None;
            let dense = |win, win_end| {
                let merged = coverage.get_or_insert_with(|| Coverage::merge(&lists));
                merged.covered(win, win_end)
            };
            write_windows(storage, dom, &mut shares, &ends, dense, cb, scratch)
        }
    }
}

/// The list-based shares: AP `k`'s list, read where it landed, walked
/// beside the stream `spans[k]` of its end — the buffer it lent, or, for
/// the IOP's own list, its user buffer (Section 2.3).
fn listed<'a, U>(
    lists: &[OlWire<'a>],
    ends: &[UserSide<'a, U>],
    spans: &[(u64, u64)],
) -> Vec<ListShare<'a>> {
    (lists.iter().zip(ends).zip(spans))
        .map(|((&list, end), &span)| ListShare::wire(list, end, span))
        .collect()
}

/// The file range `[lo, hi)` the `shares` reach; `None` when all are
/// empty. A share that reaches outside the IOP's domain `dom` cannot be
/// moved in full: its error.
fn reach<S: Share>(shares: &[S], dom: (u64, u64)) -> Result<Option<(u64, u64)>> {
    let mut all: Option<(u64, u64)> = None;
    for share in shares {
        let Some((lo, hi)) = share.reach() else {
            continue;
        };
        if lo < dom.0 || hi > dom.1 {
            share.done()?;
        }
        all = Some(all.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
    }
    Ok(all)
}

/// Whether any share has bytes below `win_end`: `active` becomes the
/// indices of those that have.
fn begin<S: Share>(shares: &[S], win_end: u64, active: &mut Vec<usize>) -> bool {
    active.clear();
    let wanting = shares.iter().enumerate();
    active.extend(wanting.filter_map(|(k, s)| s.wants(win_end).then_some(k)));
    !active.is_empty()
}

/// The IOP write loop: each window of `cb` bytes the shares reach takes
/// the bytes of share `k` from `ends[k]`, read first only where it is
/// staged and not `dense`. Domains are disjoint and nobody is told the
/// write is done before the closing barrier: this IOP is the only writer
/// of its windows, so its loop may write behind.
fn write_windows<S: Share>(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    shares: &mut [S],
    ends: &[UserSide<&[u8]>],
    mut dense: impl FnMut(u64, u64) -> bool,
    cb: u64,
    scratch: &Scratch,
) -> Result<()> {
    let Some((lo, hi)) = reach(shares, dom)? else {
        return Ok(());
    };
    let (mut windows, mut active) = (0u64, Vec::with_capacity(shares.len()));
    let grid = Windows::new(lo, hi, cb);
    std::thread::scope(|lane| {
        let mut io = WindowIo::sole_writer(storage, scratch, grid.max_len(), lane);
        for (win, win_end) in grid {
            if !begin(shares, win_end, &mut active) {
                continue;
            }
            windows += 1;
            let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
            // each share goes on from where it stopped and stops at the
            // end of the piece by itself
            io.update(
                win,
                win_end,
                || dense(win, win_end),
                &mut |at, piece, store| {
                    for &k in &active {
                        shares[k].place(&ends[k], piece, at, store);
                    }
                },
            )?;
        }
        io.finish()?;
        OBS_WINDOWS.add(windows);
        shares.iter().try_for_each(Share::done)
    })
}

/// The layout an AP whose stream lies in the buffer it lends as `packer`
/// says, from view-stream position `stream_start` on, puts behind its
/// headers: its `stream_start`, then [`MemPacker::encode_into`].
fn layout(packer: &MemPacker, stream_start: u64) -> Vec<u8> {
    let mut layout = stream_start.to_le_bytes().to_vec();
    packer.encode_into(&mut layout);
    layout
}

/// A staging AP's buffer, from `scratch`: stream byte `s` of the access
/// `[stream_start, stream_start + total)` at byte `s - stream_start`, laid
/// out as [`STREAM`] — or none, when no share `shares[i]` of the access
/// lies in another rank's domain.
fn stage(shares: &[(u64, u64)], me: usize, total: u64, scratch: &Scratch) -> Vec<u8> {
    let crosses = (shares.iter().enumerate()).any(|(i, s)| i != me && s.1 > s.0);
    scratch.take(if crosses { total as usize } else { 0 })
}

/// Where a staging AP's shares of the other ranks' domains lie in its
/// staging buffer ([`stage`]): each share's stream position relative to
/// `stream_start`, and its bytes there. The own share is left out: it goes
/// between the user buffer and the windows.
fn staged(
    shares: &[(u64, u64)],
    me: usize,
    stream_start: u64,
) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    (shares.iter().enumerate())
        .filter(move |&(i, s)| i != me && s.1 > s.0)
        .map(move |(_, &(s_lo, s_hi))| {
            let skip = s_lo - stream_start;
            (skip, skip as usize..(s_hi - stream_start) as usize)
        })
}

/// AP side of the exchange, both directions. Every IOP with a domain gets
/// the `(s_lo, s_hi)` of this rank's access `[stream_start, stream_end)`
/// in it and, where that is not empty, the `layout` of the buffer the
/// bytes are lent in; list-based, this rank's ol-list for that domain goes
/// ahead in a message of its own. Except to the rank's own IOP side: that
/// gets the header alone, and its list is returned instead of sent (second
/// value), as its bytes stay in the user buffer for the window loop (its
/// [`UserSide`]). Returns the intervals per domain.
fn announce(
    comm: &Comm,
    nav: &ViewNav,
    domains: &[(u64, u64)],
    (stream_start, stream_end): (u64, u64),
    layout: &[u8],
) -> (Vec<(u64, u64)>, Option<Vec<u8>>) {
    let me = comm.rank();
    let send = |i: usize, tag, msg| {
        let _sp = lio_obs::trace::span_ab("exch.send", i as u64, 0);
        comm.send_vec(i, tag, msg);
    };
    let mut own_list = None;
    let mut shares = vec![(stream_start, stream_start); domains.len()];
    for (i, &dom) in domains.iter().enumerate() {
        if dom.1 <= dom.0 {
            continue;
        }
        // the intersection of the access with the domain, in stream
        // positions
        let at = |abs| nav.abs_to_stream(abs).clamp(stream_start, stream_end);
        if stream_end > stream_start {
            shares[i] = (at(dom.0), at(dom.1));
        }
        let (s_lo, s_hi) = shares[i];
        if let ViewNav::List(list_nav) = nav {
            let list = list_nav.access_list(s_lo..s_hi);
            if i == me {
                own_list = Some(list);
            } else {
                OBS_EXCH_LIST_BYTES.add(list.len() as u64);
                send(i, TAG_TP_LIST, list);
            }
        }
        let mut head = [s_lo.to_le_bytes(), s_hi.to_le_bytes()].concat();
        if i != me && s_hi > s_lo {
            head.extend_from_slice(layout);
        }
        send(i, TAG_TP_HEADER, head);
    }
    (shares, own_list)
}

/// The two words a header starts with: an access header's `(s_lo, s_hi)`
/// stream interval, an access range's `(lo, hi)`.
fn header(head: &[u8]) -> (u64, u64) {
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    (word(0), word(8))
}

/// The `stream_start` of an AP that lends this IOP its bytes, which its
/// header carries ahead of its layout; `None` for a header alone.
fn lent_from(head: &[u8]) -> Option<u64> {
    let at = head
        .get(MSG_HEADER..LAYOUT_AT)
        .filter(|_| head.len() > LAYOUT_AT)?;
    Some(u64::from_le_bytes(at.try_into().expect("8 bytes")))
}

/// IOP side of the exchange: every rank's header and, list-based, its
/// ol-list (empty otherwise), both in rank order. A list-based rank kept
/// the list of its own domain and hands it in as `own_list`; that one is
/// not waited for. Receives complete in arrival order, so a late rank 0
/// delays nobody else's message.
fn recv_exchange(comm: &Comm, own_list: Option<Vec<u8>>) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let p_n = comm.size();
    let mut heads: Vec<Vec<u8>> = vec![Vec::new(); p_n];
    let mut lists: Vec<Vec<u8>> = vec![Vec::new(); p_n];
    let sp = lio_obs::trace::span("exch.wait");
    let mut reqs: Vec<lio_mpi::Request> = (0..p_n).map(|p| comm.irecv(p, TAG_TP_HEADER)).collect();
    if own_list.is_some() {
        let others = (0..p_n).filter(|&p| p != comm.rank());
        reqs.extend(others.map(|p| comm.irecv(p, TAG_TP_LIST)));
    }
    for _ in 0..reqs.len() {
        let (i, src, payload) = comm.wait_any(&mut reqs);
        if i < p_n {
            // one per AP: arrival order = rank entry order into the
            // collective, and feeds the per-op rank-skew histogram
            health::window_mark(src as u32);
            heads[src] = payload;
        } else {
            lists[src] = payload;
        }
    }
    if let Some(list) = own_list {
        lists[comm.rank()] = list;
    }
    drop(sp);
    health::window_flush();
    (heads, lists)
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
    OBS_R_CALLS.incr();
    let span = (stream_start, stream_start + total);
    let domains = file_domains(comm, nav, span, hints);
    let me = comm.rank();
    let iop = domains.get(me).is_some_and(|d| d.1 > d.0);

    // ----- AP phase: announce (and, list-based, ship the lists) --------
    // A listless AP whose stream lies in its buffer in order lends each IOP
    // the piece of the buffer its share of that IOP's domain occupies, and
    // says how the stream lies there; any other AP lends the pieces of a
    // staging buffer, and keeps its user buffer for the own share and for
    // unpacking the others once the scope has closed.
    let stages = matches!(nav, ViewNav::List(_)) || !packer.in_order();
    let layout = layout(if stages { &STREAM } else { packer }, stream_start);
    let (shares, own_list) = announce(comm, nav, &domains, span, &layout);
    let mut staging = match stages {
        true => stage(&shares, me, total, scratch),
        false => Vec::new(),
    };
    let (pieces, mut kept) = match (stages, staging.is_empty()) {
        (false, _) => (cut(packer, user, stream_start, &shares), None),
        (true, true) => (Vec::new(), Some(user)),
        (true, false) => (
            cut(&STREAM, &mut staging, stream_start, &shares),
            Some(user),
        ),
    };

    // ----- IOP phase, in a lending scope --------------------------------
    // Every rank lends its pieces in a scope that ends in the barrier this
    // read ends in: no rank writes a piece once its lender is told the read
    // is done. A storage fault on an IOP must not strand its APs: it is
    // captured, every AP still gets the promised bytes (zeros past the
    // failure point) and every rank the end of the op, and it surfaces on
    // this rank only then. The IOP side's own end is the user buffer this
    // rank kept, or the piece of it this rank lent itself.
    let (fatal, sp) = comm.lend_mut(pieces, |lent| {
        let mut fatal = None;
        if iop {
            let own = match kept.as_deref_mut() {
                Some(user) => UserSide::new(packer, user, stream_start),
                None => lent_end(packer, lent.take(me), stream_start, shares[me]),
            };
            let (heads, lists) = recv_exchange(comm, own_list);
            let (dom, heads) = (domains[me], &heads[..]);
            fatal = iop_read(
                storage, dom, state, heads, &lists, own, lent, me, hints, scratch,
            );
        }
        (fatal, lio_obs::trace::span("exch.barrier"))
    });
    drop(sp);
    if let Some(user) = kept {
        for (skip, at) in staged(&shares, me, stream_start) {
            let n = at.len() as u64;
            let _sp = lio_obs::trace::span_ab("unpack", n, 0);
            let put = packer.unpack(&staging[at], user, skip);
            debug_assert_eq!(put as u64, n);
        }
    }
    scratch.give(staging);
    ended(fatal, total, "read")
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

/// An IOP's part of a collective read over its domain `dom`, once every
/// AP's header `heads[k]` (and, list-based, its list `lists[k]`) is in:
/// every AP's end of the window loop — the piece of a buffer it lent this
/// IOP, found through the layout its header carries, or for the IOP's own
/// rank `own` — and its share, then the loop. A fault ends the loop, and
/// every end is filled up with zeros past what its share moved: returns
/// the fault.
#[allow(clippy::too_many_arguments)]
fn iop_read(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    state: &CollState,
    heads: &[Vec<u8>],
    lists: &[Vec<u8>],
    own: UserSide<&mut [u8]>,
    lent: &LentMut,
    me: usize,
    hints: &Hints,
    scratch: &Scratch,
) -> Option<IoError> {
    let spans: Vec<(u64, u64)> = heads.iter().map(|m| header(m)).collect();
    let (lenders, fail) = match state.lenders(heads) {
        Ok(lenders) => (Some(lenders), None),
        Err(e) => (None, Some(e)),
    };
    let mut own = Some(own);
    let mut ends: Vec<UserSide<&mut [u8]>> = Vec::with_capacity(spans.len());
    for (k, &span) in spans.iter().enumerate() {
        let lender = || {
            let packer = &lenders.as_ref()?[k].as_ref()?.1;
            Some((packer, lent_from(&heads[k])?))
        };
        ends.push(match lender() {
            _ if k == me => own.take().expect("one own end"),
            Some((packer, start)) => lent_end(packer, lent.take(k), start, span),
            // nothing of this AP's in the domain
            None => UserSide::new(&STREAM, &mut [][..], span.0),
        });
    }
    // where each AP's bytes go on: an undecodable layout or a malformed
    // list fails the op with nothing read, no list walked
    let (mut rests, cb) = (spans.clone(), hints.cb_buffer_size as u64);
    let res = match (fail.map_or_else(|| wires(lists), Err), &state.remote_navs) {
        (Err(e), _) => Err(e),
        (Ok(_), Some(navs)) => {
            let mut shares: Vec<_> = navs.iter().zip(&spans).map(|(n, &s)| n.share(s)).collect();
            read_windows(
                storage,
                dom,
                &mut shares,
                &mut ends,
                &mut rests,
                cb,
                scratch,
            )
        }
        (Ok(lists), None) => {
            let mut shares = listed(&lists, &ends, &spans);
            read_windows(
                storage,
                dom,
                &mut shares,
                &mut ends,
                &mut rests,
                cb,
                scratch,
            )
        }
    };
    let fatal = res.err()?;
    // every AP gets the promised length, zeros past what was moved
    for (end, &(from, to)) in ends.iter_mut().zip(&rests) {
        let zeros = vec![0u8; (to - from) as usize];
        end.packer
            .unpack_at(&zeros, end.user, end.buf_at, from - end.stream_start);
    }
    Some(fatal)
}

/// The IOP read loop: each window of `cb` bytes the shares reach gives the
/// bytes of share `k` to `ends[k]`. `rests[k]` is left the stream interval
/// share `k` did not move.
fn read_windows<S: Share>(
    storage: &dyn StorageFile,
    dom: (u64, u64),
    shares: &mut [S],
    ends: &mut [UserSide<&mut [u8]>],
    rests: &mut [(u64, u64)],
    cb: u64,
    scratch: &Scratch,
) -> Result<()> {
    let Some((lo, hi)) = reach(shares, dom)? else {
        return Ok(());
    };
    let (mut windows, mut active) = (0u64, Vec::with_capacity(shares.len()));
    let grid = Windows::new(lo, hi, cb);
    let mut io = WindowIo::new(storage, scratch, grid.max_len());
    let mut res = Ok(());
    for (win, win_end) in grid {
        if !begin(shares, win_end, &mut active) {
            continue;
        }
        windows += 1;
        let _w = lio_obs::trace::span_ab("win", windows - 1, win_end - win);
        res = io.view(win, win_end, &mut |at, piece| {
            for &k in &active {
                shares[k].extract(piece, at, &mut ends[k]);
            }
        });
        if res.is_err() {
            break;
        }
    }
    OBS_WINDOWS.add(windows);
    for (rest, share) in rests.iter_mut().zip(&*shares) {
        *rest = share.rest();
    }
    res.and_then(|()| shares.iter().try_for_each(Share::done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lio_datatype::TUPLE_BYTES;
    use lio_mpi::World;
    use lio_pfs::MemFile;

    /// The header of an AP that lends its stream interval `[s_lo, s_hi)`
    /// staged from stream position 0 on; an empty interval's alone.
    fn header_of(s_lo: u64, s_hi: u64) -> Vec<u8> {
        let mut head = [s_lo.to_le_bytes(), s_hi.to_le_bytes()].concat();
        if s_hi > s_lo {
            head.extend(layout(&STREAM, 0));
        }
        head
    }

    /// One tuple: the bytes `[0, len)` of the file.
    fn tuple(len: u64) -> Vec<u8> {
        [0u64.to_le_bytes(), len.to_le_bytes()].concat()
    }

    /// An access list one byte short of whole tuples fails an IOP's write
    /// with `Usage`, before anything is placed, and so does one whose
    /// tuples hold fewer bytes than its header's span, once the loop has
    /// placed what they hold; the AP that lent its bytes leaves the lending
    /// scope.
    #[test]
    fn a_torn_access_list_fails_the_write() {
        for (list, placed) in [(vec![0; TUPLE_BYTES - 1], 0), (tuple(4), 4)] {
            let storage = MemFile::new();
            let results = World::run(2, |comm| {
                // rank 1 lends 8 bytes in rank 0's domain
                let staged = vec![1; 8 * comm.rank()];
                comm.lend(&staged, |lent| {
                    if comm.rank() == 1 {
                        return None;
                    }
                    let heads = [header_of(0, 0), header_of(0, 8)];
                    let lists = [Vec::new(), list.clone()];
                    let (state, scratch) = (CollState::new(None, None), Scratch::default());
                    let own = UserSide::new(&STREAM, &[][..], 0);
                    let (dom, hints) = ((0, 64), Hints::list_based());
                    let res = iop_write(
                        &storage, dom, &state, &heads, &lists, own, lent, 0, &hints, &scratch,
                    );
                    Some(res)
                })
            });
            assert!(
                matches!(results[0], Some(Err(IoError::Usage(_)))),
                "{:?}",
                results[0]
            );
            assert!(results[1].is_none(), "rank 1 left the scope");
            assert_eq!(storage.len(), placed, "what the list held was written");
        }
    }

    /// The same lists fail an IOP's read with `Usage`, and the AP that sent
    /// one finds the promised length in the piece it lent: what its list
    /// held, then zeros.
    #[test]
    fn a_torn_access_list_fails_the_read_and_zero_fills_the_lent_piece() {
        let want = [[0; 8], [7, 7, 7, 7, 0, 0, 0, 0]];
        for (list, want) in [(vec![0; TUPLE_BYTES + 1], want[0]), (tuple(4), want[1])] {
            let storage = MemFile::with_data(vec![7; 64]);
            let results = World::run(2, |comm| {
                // rank 1 lends rank 0 the 8 bytes of its staging buffer that
                // rank 0's domain is to fill
                let mut staging = vec![0xA5; 8 * comm.rank()];
                let pieces = vec![&mut staging[..]];
                let fatal = comm.lend_mut(pieces, |lent| {
                    if comm.rank() == 1 {
                        return None;
                    }
                    let heads = [header_of(0, 0), header_of(0, 8)];
                    let lists = [Vec::new(), list.clone()];
                    let (state, scratch) = (CollState::new(None, None), Scratch::default());
                    let own = UserSide::new(&STREAM, &mut [][..], 0);
                    let (dom, hints) = ((0, 64), Hints::list_based());
                    iop_read(
                        &storage, dom, &state, &heads, &lists, own, lent, 0, &hints, &scratch,
                    )
                });
                (fatal, staging)
            });
            assert!(
                matches!(results[0].0, Some(IoError::Usage(_))),
                "{:?}",
                results[0].0
            );
            assert_eq!(results[1].1, want, "the promised bytes");
        }
    }
}
