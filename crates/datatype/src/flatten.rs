//! Explicit datatype flattening into ol-lists — the list-based baseline.
//!
//! This module reproduces the representation the paper attributes to ROMIO
//! (Section 2.1): a datatype is expanded into a linear list of
//! `⟨offset, length⟩` tuples, one per contiguous block. All three drawbacks
//! the paper identifies are faithfully present and measurable:
//!
//! * **memory consumption** — [`OlList::memory_bytes`] reports the
//!   `Nblock · (sizeof(offset) + sizeof(length))` footprint;
//! * **traversal time** — [`OlList::locate`] performs the linear scan that
//!   list-based navigation requires (`Nblock/2` entries on average);
//! * **copy time** — every list-based copy (pack, unpack, and placement into
//!   and extraction out of a window) is one [`CoWalk`] of two lists that
//!   reads one tuple per block per list.
//!
//! Building the list costs `O(Nblock)` too, at the constant of a competent
//! baseline: [`OlList::flatten`] fills it as ROMIO does, one tight loop per
//! strided frame of the type's compiled [`crate::RunProgram`], not one
//! tree walk per run.
//!
//! The lists a collective ships are in this module too: an AP writes the
//! runs of its view in an IOP's domain as absolute tuples in one pass
//! ([`OlList::encode_tiled`]), the IOP reads them where the message landed
//! ([`OlWire`]), and merges them all ([`OlList::merge_lists`]) when it
//! needs to know whether a window is covered.

use std::ops::Range;

use crate::kernels::{Store, Stores};
use crate::types::Datatype;
use lio_obs::LazyCounter;

static OBS_FLATTEN_CALLS: LazyCounter = LazyCounter::new("dt.flatten.calls");
static OBS_FLATTEN_ENTRIES: LazyCounter = LazyCounter::new("dt.flatten.entries");
static OBS_FLATTEN_BYTES: LazyCounter = LazyCounter::new("dt.flatten.bytes");
static OBS_MERGE_TUPLES: LazyCounter = LazyCounter::new("dt.merge.tuples");
static OBS_BATCHED_BYTES: LazyCounter = LazyCounter::new("dt.cowalk.batched_bytes");

/// The bytes one `⟨offset, length⟩` tuple takes in a message: two
/// little-endian 64-bit words.
pub const TUPLE_BYTES: usize = 16;

/// One ol-list entry: a contiguous block of `len` bytes at byte `offset`.
///
/// Offsets and lengths are stored at the width the paper assumes
/// (`MPI_Aint`/`MPI_Offset`, 64 bits each — 16 bytes per tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlSeg {
    /// Byte offset of the block relative to the buffer origin.
    pub offset: i64,
    /// Length of the block in bytes.
    pub len: u64,
}

/// A flattened datatype: the explicit `⟨offset, length⟩` list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OlList {
    /// The blocks, in typemap (monotone for filetypes) order.
    pub segs: Vec<OlSeg>,
}

/// A position within an [`OlList`], as returned by navigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlPos {
    /// Index of the segment containing the position.
    pub seg: usize,
    /// Byte offset into that segment.
    pub within: u64,
}

/// A forward-only cursor over flat runs: one side of a [`CoWalk`]. Its
/// state is the tuples it reads, the index of the next one, the position
/// of the next byte and the bytes left in the run that holds it.
#[derive(Debug, Clone)]
pub struct RunCursor<'a>(Kind<'a>);

/// A [`RunCursor`] of each source, so that a co-walk is compiled for the
/// pair it walks.
#[derive(Debug, Clone)]
enum Kind<'a> {
    Segs(Cursor<Segs<'a>>),
    Wire(Cursor<Wired<'a>>),
}

/// A cursor over `runs`: the position of the next byte (a file offset or
/// a buffer position) and the bytes left in its run.
#[derive(Debug, Clone, Copy)]
struct Cursor<S> {
    runs: S,
    at: u64,
    left: u64,
}

/// Where a cursor's runs come from: the next run's position and length,
/// `None` where they end.
trait Runs: Copy + Lane {
    fn next(&mut self) -> Option<(u64, u64)>;

    /// The next run's length, the runs left as they are.
    fn peek(mut self) -> Option<u64> {
        self.next().map(|(_, len)| len)
    }
}

/// A list tiled every `extent` bytes, the current instance at `base` — a
/// fileview's runs at file offsets, a memtype's in its buffer — or, no
/// `extent`, read once. A contiguous buffer is an empty list whose one run
/// never ends.
#[derive(Debug, Clone, Copy)]
struct Segs<'a> {
    segs: &'a [OlSeg],
    i: usize,
    base: u64,
    extent: Option<u64>,
}

/// The tuples a collective ships, at file offsets.
#[derive(Debug, Clone, Copy)]
struct Wired<'a> {
    list: OlWire<'a>,
    i: usize,
}

impl Runs for Segs<'_> {
    #[inline(always)]
    fn next(&mut self) -> Option<(u64, u64)> {
        let s = match (self.segs.get(self.i), self.extent) {
            (Some(s), _) => s,
            (None, None) => return None,
            (None, Some(extent)) => {
                (self.i, self.base) = (0, self.base + extent);
                self.segs.first()?
            }
        };
        self.i += 1;
        Some((self.base.wrapping_add_signed(s.offset), s.len))
    }
}

impl Runs for Wired<'_> {
    #[inline(always)]
    fn next(&mut self) -> Option<(u64, u64)> {
        let tuple = self.list.get(self.i)?;
        self.i += 1;
        Some(tuple)
    }
}

impl<S: Runs> Cursor<S> {
    /// Load the next run; `false` where the runs end.
    #[inline(always)]
    fn refill(&mut self) -> bool {
        let next = self.runs.next();
        if let Some((at, left)) = next {
            (self.at, self.left) = (at, left);
        }
        next.is_some()
    }

    fn next_at(mut self) -> Option<u64> {
        (self.left > 0 || self.refill()).then_some(self.at)
    }
}

impl<'a> RunCursor<'a> {
    /// One endless run from position `at` on: a contiguous buffer.
    pub fn contig(at: usize) -> RunCursor<'a> {
        static NONE: OlList = OlList { segs: Vec::new() };
        let mut c = NONE.enter(0, None, 0);
        (c.at, c.left) = (at as u64, u64::MAX);
        RunCursor(Kind::Segs(c))
    }

    /// The runs of a received access list, from its first tuple.
    pub fn wire(list: OlWire<'a>) -> RunCursor<'a> {
        let (runs, at, left) = (Wired { list, i: 0 }, 0, 0);
        RunCursor(Kind::Wire(Cursor { runs, at, left }))
    }

    /// Where the next byte lies, if there is one.
    pub fn next_at(&self) -> Option<u64> {
        match &self.0 {
            Kind::Segs(c) => c.next_at(),
            Kind::Wire(c) => c.next_at(),
        }
    }
}

/// The list-based engine's one copy loop: two [`RunCursor`]s walked side
/// by side, one copy per piece the two have in common, each tuple of
/// either read once. The `file` side's positions are file offsets (or a
/// contiguous buffer's, when packing); the `user` side's are positions in
/// a user buffer (or a message). A piece of 1–32 B whose length is a power
/// of two is one load and one store, and a run of such blocks of one width
/// on both sides one batch; a longer piece streams into a lent window
/// ([`Stores`]), as the listless engine's placements do.
#[derive(Debug, Clone)]
pub struct CoWalk<'a> {
    pub file: RunCursor<'a>,
    pub user: RunCursor<'a>,
}

impl<'a> CoWalk<'a> {
    pub fn new(file: RunCursor<'a>, user: RunCursor<'a>) -> CoWalk<'a> {
        CoWalk { file, user }
    }

    /// Copy up to `n` stream bytes out of `src` (the user side) into `win`,
    /// which holds file bytes `[lo, lo + win.len())`, until the file side
    /// leaves the window; each piece stored as `stores` says. Returns the
    /// bytes copied.
    pub fn place(
        &mut self,
        win: &mut [u8],
        lo: u64,
        src: &[u8],
        n: usize,
        stores: &mut Stores,
    ) -> usize {
        let hi = lo + win.len() as u64;
        self.walk((lo, hi, n), &mut (win, src, stores))
    }

    /// [`CoWalk::place`] the other way: up to `n` stream bytes out of `win`
    /// into `dst`.
    pub fn extract(&mut self, win: &[u8], lo: u64, dst: &mut [u8], n: usize) -> usize {
        let hi = lo + win.len() as u64;
        self.walk((lo, hi, n), &mut (win, dst))
    }

    /// The co-walk compiled for the two cursors' sources; the bytes moved.
    fn walk(&mut self, bounds: (u64, u64, usize), copy: &mut impl Piece) -> usize {
        let (moved, batched) = match (&mut self.file.0, &mut self.user.0) {
            (Kind::Segs(f), Kind::Segs(u)) => co_walk(f, u, bounds, copy),
            (Kind::Segs(f), Kind::Wire(u)) => co_walk(f, u, bounds, copy),
            (Kind::Wire(f), Kind::Segs(u)) => co_walk(f, u, bounds, copy),
            (Kind::Wire(f), Kind::Wire(u)) => co_walk(f, u, bounds, copy),
        };
        crate::ff::OBS_COPY_BYTES.add(moved as u64);
        OBS_BATCHED_BYTES.add(batched as u64);
        moved
    }
}

/// The co-walk: `copy` every common piece of `file` and `user`, given as
/// (window position, user position, length), until `n` bytes are moved,
/// the file side reaches `hi` or either side ends; the bytes moved, and of
/// those the bytes [`batch`]ed. It batches only if a list's next run is at
/// most 32 B: chosen per call, as a batch test slows a loop of long runs.
#[inline(always)]
fn co_walk<F: Runs, U: Runs>(
    file: &mut Cursor<F>,
    user: &mut Cursor<U>,
    bounds: (u64, u64, usize),
    copy: &mut impl Piece,
) -> (usize, usize) {
    let short = |len: Option<u64>| len.is_some_and(|len| len <= 32);
    if short(file.runs.peek()) || short(user.runs.peek()) {
        pieces::<true, _, _>(file, user, bounds, copy)
    } else {
        pieces::<false, _, _>(file, user, bounds, copy)
    }
}

/// [`co_walk`]'s loop, a piece at a time, with `BATCH` a [`batch`] first.
#[inline(always)]
fn pieces<const BATCH: bool, F: Runs, U: Runs>(
    file: &mut Cursor<F>,
    user: &mut Cursor<U>,
    (lo, hi, n): (u64, u64, usize),
    copy: &mut impl Piece,
) -> (usize, usize) {
    // the cursors as locals, so that they live in registers
    let (mut f, mut u) = (*file, *user);
    let (mut moved, mut batched) = (0usize, 0usize);
    while moved < n {
        if BATCH {
            let b = batch(&mut f, &mut u, (lo, hi, n - moved), copy);
            (moved, batched) = (moved + b, batched + b);
            if moved == n {
                break;
            }
        }
        if f.left == 0 && !f.refill() {
            break;
        }
        if f.at >= hi {
            break;
        }
        debug_assert!(f.at >= lo, "a run starts before the window");
        let run = f.left.min(hi - f.at).min((n - moved) as u64);
        if u.left == 0 && !u.refill() {
            break;
        }
        let len = run.min(u.left);
        copy.copy((f.at - lo) as usize, u.at as usize, len as usize);
        (f.at, f.left) = (f.at + len, f.left - len);
        (u.at, u.left) = (u.at + len, u.left - len);
        moved += len as usize;
    }
    (*file, *user) = (f, u);
    (moved, batched)
}

/// Copy blocks of one width of 1–32 B while both sides have one next —
/// the rest of a run, or at a run start a run of that width — the file
/// side's ends inside the window and the budget `n` holds; the bytes
/// moved. The width is the shorter of the two sides' next runs.
#[inline(always)]
fn batch<F: Runs, U: Runs>(
    f: &mut Cursor<F>,
    u: &mut Cursor<U>,
    bounds: (u64, u64, usize),
    copy: &mut impl Piece,
) -> usize {
    // 0 where a side has no run left
    let width = |left: u64, next: Option<u64>| if left > 0 { left } else { next.unwrap_or(0) };
    let w = width(f.left, f.runs.peek()).min(width(u.left, u.runs.peek()));
    match (f.left > 0, u.left > 0) {
        (true, true) => 0,
        (true, false) => sized(w, f, &mut u.runs, bounds, copy),
        (false, true) => sized(w, &mut f.runs, u, bounds, copy),
        (false, false) => sized(w, &mut f.runs, &mut u.runs, bounds, copy),
    }
}

/// [`blocks`] compiled for the width `w`.
#[inline(always)]
fn sized(
    w: u64,
    f: &mut impl Lane,
    u: &mut impl Lane,
    bounds: (u64, u64, usize),
    copy: &mut impl Piece,
) -> usize {
    match w {
        1 => blocks::<1>(f, u, bounds, copy),
        2 => blocks::<2>(f, u, bounds, copy),
        4 => blocks::<4>(f, u, bounds, copy),
        8 => blocks::<8>(f, u, bounds, copy),
        16 => blocks::<16>(f, u, bounds, copy),
        32 => blocks::<32>(f, u, bounds, copy),
        _ => 0,
    }
}

/// A side of a batch: its runs to the end of the slice they are read
/// from, as `(position, length)`, for blocks of `w` bytes; `skip` moves
/// past `k` of them and, at the slice's end, on to the next slice if any.
trait Lane {
    fn chunk(&self, w: u64) -> impl Iterator<Item = (u64, u64)>;
    fn skip(&mut self, k: usize, w: u64) -> bool;
}

/// A cursor in a run: the rest of the run, cut into blocks.
impl<S: Runs> Lane for Cursor<S> {
    fn chunk(&self, w: u64) -> impl Iterator<Item = (u64, u64)> {
        let at = self.at;
        (0..self.left / w).map(move |k| (at + k * w, w))
    }

    fn skip(&mut self, k: usize, w: u64) -> bool {
        (self.at, self.left) = (self.at + k as u64 * w, self.left - k as u64 * w);
        false
    }
}

/// The list's instance from the next run on, then the next instance.
impl Lane for Segs<'_> {
    fn chunk(&self, _: u64) -> impl Iterator<Item = (u64, u64)> {
        (self.segs[self.i..].iter()).map(|s| (self.base.wrapping_add_signed(s.offset), s.len))
    }

    fn skip(&mut self, k: usize, _: u64) -> bool {
        self.i += k;
        match self.extent {
            Some(extent) if self.i == self.segs.len() => {
                (self.i, self.base) = (0, self.base + extent);
                true
            }
            _ => false,
        }
    }
}

/// The received tuples from the next one on.
impl Lane for Wired<'_> {
    fn chunk(&self, _: u64) -> impl Iterator<Item = (u64, u64)> {
        self.list.tuples[self.i..].iter().map(decode)
    }

    fn skip(&mut self, k: usize, _: u64) -> bool {
        self.i += k;
        false
    }
}

/// The batch loop: both sides' next runs read, checked to be `W` bytes
/// long, the file side's to end inside the window, and copied, until a
/// check fails, the budget `n` is spent or a side's runs end.
#[inline(always)]
fn blocks<const W: usize>(
    f: &mut impl Lane,
    u: &mut impl Lane,
    (lo, hi, n): (u64, u64, usize),
    copy: &mut impl Piece,
) -> usize {
    let (w, mut moved) = (W as u64, 0);
    loop {
        let (budget, mut k) = ((n - moved) / W, 0);
        for ((at, flen), (from, ulen)) in f.chunk(w).zip(u.chunk(w)).take(budget) {
            if flen != w || ulen != w || at + w > hi {
                break;
            }
            copy.copy((at - lo) as usize, from as usize, W);
            k += 1;
        }
        moved += k * W;
        // `|`: both sides skip; one whose slice ended may go on to the next
        if !(f.skip(k, w) | u.skip(k, w)) || k == budget {
            return moved;
        }
    }
}

/// How a co-walk copies a piece: `len` bytes between window position `w`
/// and user position `u`.
trait Piece {
    fn copy(&mut self, w: usize, u: usize, len: usize);
}

/// A placement: user bytes into the window, stored as the `Stores` say.
impl Piece for (&mut [u8], &[u8], &mut Stores) {
    #[inline(always)]
    fn copy(&mut self, w: usize, u: usize, len: usize) {
        let (dst, src) = (&mut self.0[w..w + len], &self.1[u..u + len]);
        if !copy_short(dst, src) {
            self.2.copy(dst, src);
        }
    }
}

/// An extraction: window bytes into the user buffer.
impl Piece for (&[u8], &mut [u8]) {
    #[inline(always)]
    fn copy(&mut self, w: usize, u: usize, len: usize) {
        let (dst, src) = (&mut self.1[u..u + len], &self.0[w..w + len]);
        if !copy_short(dst, src) {
            dst.copy_from_slice(src);
        }
    }
}

/// Copy a piece of 1–32 B whose length is a power of two as one load and
/// one store (the lengths `strided::strided_copy`'s fixed-width blocks
/// cover); `false`, copying nothing, for any other length.
#[inline(always)]
fn copy_short(dst: &mut [u8], src: &[u8]) -> bool {
    fn fixed<const B: usize>(dst: &mut [u8], src: &[u8]) {
        dst[..B].copy_from_slice(&src[..B]);
    }
    match dst.len() {
        1 => fixed::<1>(dst, src),
        2 => fixed::<2>(dst, src),
        4 => fixed::<4>(dst, src),
        8 => fixed::<8>(dst, src),
        16 => fixed::<16>(dst, src),
        32 => fixed::<32>(dst, src),
        _ => return false,
    }
    true
}

impl OlList {
    /// Explicitly flatten `count` instances of `d` — the `O(Nblock)`
    /// operation ROMIO performs when a fileview is first established. The
    /// type's compiled [`crate::RunProgram`] is expanded, each strided
    /// frame's tuples in one loop, into a list reserved once from the
    /// program's block count; its runs come merged, as a copy moves them
    /// and as ROMIO's flattening merges them.
    pub fn flatten(d: &Datatype, count: u64) -> OlList {
        let prog = d.program();
        let mut segs: Vec<OlSeg> = Vec::new();
        // merging only shortens the list, so the count is an upper bound;
        // one too large to allocate leaves the list to grow as it fills
        let blocks = prog.blocks.saturating_mul(count);
        let _ = segs.try_reserve_exact(usize::try_from(blocks).unwrap_or(usize::MAX));
        prog.expand(count, &mut |offset, len| segs.push(OlSeg { offset, len }));
        let list = OlList { segs };
        if lio_obs::enabled() {
            OBS_FLATTEN_CALLS.incr();
            OBS_FLATTEN_ENTRIES.add(list.segs.len() as u64);
            OBS_FLATTEN_BYTES.add(list.memory_bytes() as u64);
        }
        list
    }

    /// Number of blocks — the paper's `Nblock` after merging.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.segs.len()
    }

    /// Total data bytes described by the list.
    pub fn total_data(&self) -> u64 {
        self.segs.iter().map(|s| s.len).sum()
    }

    /// The memory footprint of the representation itself:
    /// `Nblock · (sizeof(MPI_Aint) + sizeof(MPI_Offset))` = 16·Nblock bytes.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.segs.len() * 16
    }

    /// Locate the block containing the `databytes`-th data byte by **linear
    /// traversal from the start** — exactly the list-based navigation cost
    /// the paper criticizes (Section 2.2). Returns `None` when the offset
    /// lies at or beyond the end of the data.
    pub fn locate(&self, databytes: u64) -> Option<OlPos> {
        self.walk_to(databytes).ok()
    }

    /// [`OlList::locate`]'s traversal; where the list runs out first, the
    /// `Err` holds how many data bytes were left to walk.
    fn walk_to(&self, databytes: u64) -> Result<OlPos, u64> {
        let mut remaining = databytes;
        for (i, s) in self.segs.iter().enumerate() {
            if remaining < s.len {
                return Ok(OlPos {
                    seg: i,
                    within: remaining,
                });
            }
            remaining -= s.len;
        }
        Err(remaining)
    }

    /// The absolute byte offset of the `databytes`-th data byte (linear
    /// traversal up to it; the list-based counterpart of `ff_offset`). For
    /// `databytes` equal to the total data size, returns one past the last
    /// block.
    pub fn offset_of(&self, databytes: u64) -> Option<i64> {
        match self.walk_to(databytes) {
            Ok(p) => Some(self.segs[p.seg].offset + p.within as i64),
            Err(0) => self.segs.last().map(|s| s.offset + s.len as i64),
            Err(_) => None,
        }
    }

    /// Count the data bytes with offsets in `[lo, hi)` by linear traversal
    /// up to the first block at or past `hi` (the list-based counterpart
    /// of `ff_size`). Requires a monotone list.
    pub fn size_in_window(&self, lo: i64, hi: i64) -> u64 {
        let mut total = 0;
        for s in self.segs.iter().take_while(|s| s.offset < hi) {
            let a = s.offset.max(lo);
            let b = (s.offset + s.len as i64).min(hi);
            if b > a {
                total += (b - a) as u64;
            }
        }
        total
    }

    /// A cursor at the `skipbytes`-th data byte, found by [`OlList::locate`]'s
    /// linear traversal; past the end of the data it yields nothing.
    pub fn cursor(&self, skipbytes: u64) -> RunCursor<'_> {
        RunCursor(Kind::Segs(self.enter(0, None, skipbytes)))
    }

    /// A cursor at byte `stream` of this list tiled from byte `base` every
    /// `extent` bytes, `size` data bytes per instance — a fileview's stream
    /// at file offsets, or a memtype's in its buffer, ROMIO's
    /// `n_buftypes · buftype_extent` — found by the linear
    /// [`OlList::locate`] of its place in the instance. It never ends: its
    /// walk is bounded by the bytes asked for. An `extent` of 0 tiles
    /// every instance onto the first; an empty list (`size` 0) has no runs.
    pub fn tiled_cursor(&self, base: u64, extent: u64, size: u64, stream: u64) -> RunCursor<'_> {
        let (inst, within) = match size {
            0 => (0, 0),
            _ => (stream / size, stream % size),
        };
        RunCursor(Kind::Segs(self.enter(
            base + inst * extent,
            Some(extent),
            within,
        )))
    }

    /// The cursor of this list tiled from `base` every `extent` bytes (read
    /// once, no `extent`) at the `skipbytes`-th byte of its first instance.
    fn enter(&self, base: u64, extent: Option<u64>, skipbytes: u64) -> Cursor<Segs<'_>> {
        let (i, at, left) = match self.locate(skipbytes) {
            Some(OlPos { seg, within }) => {
                let s = self.segs[seg];
                (seg + 1, s.offset + within as i64, s.len - within)
            }
            None => (self.segs.len(), 0, 0),
        };
        let (segs, at) = (&self.segs[..], base.wrapping_add_signed(at));
        let runs = Segs {
            segs,
            i,
            base,
            extent,
        };
        Cursor { runs, at, left }
    }

    /// Pack typed data into `packbuf`, skipping the first `skipbytes` data
    /// bytes, copying at most `packbuf.len()` bytes: the list-based copy
    /// loop with its per-block tuple read. Returns bytes copied.
    pub fn pack(&self, src: &[u8], skipbytes: u64, packbuf: &mut [u8]) -> usize {
        let stores = &mut Stores::new(Store::Cached);
        let n = packbuf.len();
        CoWalk::new(RunCursor::contig(0), self.cursor(skipbytes)).place(packbuf, 0, src, n, stores)
    }

    /// Unpack packed data into a typed buffer, skipping the first
    /// `skipbytes` data bytes. Returns bytes copied.
    pub fn unpack(&self, packbuf: &[u8], dst: &mut [u8], skipbytes: u64) -> usize {
        let n = packbuf.len();
        CoWalk::new(RunCursor::contig(0), self.cursor(skipbytes)).extract(packbuf, 0, dst, n)
    }

    /// The wire form ([`OlWire`]) of the stream bytes `stream` of this list
    /// tiled from byte `base` every `extent` bytes, `size` data bytes per
    /// instance — a fileview's stream, when the list is its filetype's
    /// flattening: one tuple of absolute offset and length per run, the
    /// runs at either end cut to the interval. One pass: the linear
    /// [`OlList::locate`] of the first byte (§2.2), then the list walked
    /// from there, instance after instance, into bytes reserved once for
    /// every tuple of the instances the interval spans.
    pub fn encode_tiled(&self, base: u64, extent: u64, size: u64, stream: Range<u64>) -> Vec<u8> {
        debug_assert_eq!(size, self.total_data(), "size is the list's data");
        let mut out = Vec::new();
        if stream.is_empty() || size == 0 {
            return out;
        }
        let Some(OlPos { mut seg, within }) = self.locate(stream.start % size) else {
            return out;
        };
        let first = stream.start / size;
        let spanned = (stream.end - 1) / size - first + 1;
        let tuples = spanned.saturating_mul(self.segs.len() as u64);
        let bytes = tuples.saturating_mul(TUPLE_BYTES as u64);
        // one too large to allocate leaves the list to grow as it fills
        let _ = out.try_reserve_exact(usize::try_from(bytes).unwrap_or(usize::MAX));
        let mut left = stream.end - stream.start;
        let mut skip = within;
        let mut at = base + first * extent;
        loop {
            for s in &self.segs[seg..] {
                let take = (s.len - skip).min(left);
                let abs = at.wrapping_add_signed(s.offset) + skip;
                let mut tuple = [0u8; TUPLE_BYTES];
                tuple[..8].copy_from_slice(&abs.to_le_bytes());
                tuple[8..].copy_from_slice(&take.to_le_bytes());
                out.extend_from_slice(&tuple);
                left -= take;
                if left == 0 {
                    return out;
                }
                skip = 0;
            }
            seg = 0;
            at += extent;
        }
    }

    /// Merge monotone ol-lists into one, combining adjacent and overlapping
    /// blocks — ROMIO's collective-write optimization, with the paper's
    /// `O(Σ_p Nblock(p))` cost (a k-way merge). `dt.merge.tuples` counts
    /// the tuples it consumes.
    pub fn merge_lists<I: Iterator<Item = OlSeg>>(lists: impl IntoIterator<Item = I>) -> OlList {
        let mut lists: Vec<I> = lists.into_iter().collect();
        let mut heads: Vec<Option<OlSeg>> = lists.iter_mut().map(Iterator::next).collect();
        let mut segs: Vec<OlSeg> = Vec::new();
        let mut consumed = 0u64;
        loop {
            // pick the list whose next segment starts earliest
            let mut best: Option<(usize, i64)> = None;
            for (li, head) in heads.iter().enumerate() {
                if let Some(s) = head {
                    if best.is_none_or(|(_, o)| s.offset < o) {
                        best = Some((li, s.offset));
                    }
                }
            }
            let Some((li, _)) = best else { break };
            let s = std::mem::replace(&mut heads[li], lists[li].next()).expect("a head");
            consumed += 1;
            if let Some(last) = segs.last_mut() {
                let last_end = last.offset + last.len as i64;
                if s.offset <= last_end {
                    let new_end = last_end.max(s.offset + s.len as i64);
                    last.len = (new_end - last.offset) as u64;
                    continue;
                }
            }
            segs.push(s);
        }
        OBS_MERGE_TUPLES.add(consumed);
        OlList { segs }
    }
}

/// Whether the tilings of `types`, all of period `extent`, are disjoint:
/// one instance of each, folded onto `[0, extent)` (a byte past an
/// instance's extent lands where the next instance's would), merged
/// ([`OlList::merge_lists`], counted in `dt.merge.tuples`) — no byte lies
/// in two of them iff the union holds all their bytes.
pub fn disjoint_tilings(types: &[Datatype], extent: u64) -> bool {
    if extent == 0 {
        return false;
    }
    let mut total = 0u64;
    let folded: Vec<Vec<OlSeg>> = (types.iter())
        .map(|d| {
            let mut segs = Vec::new();
            d.program().expand(1, &mut |offset, len| {
                let (mut at, mut left) = (offset.rem_euclid(extent as i64), len);
                while left > 0 {
                    let take = left.min(extent - at as u64);
                    segs.push(OlSeg {
                        offset: at,
                        len: take,
                    });
                    (at, left) = (0, left - take);
                }
            });
            segs.sort_unstable_by_key(|s| s.offset);
            total += d.size();
            segs
        })
        .collect();
    let merged = OlList::merge_lists(folded.iter().map(|l| l.iter().copied()));
    merged.total_data() == total
}

/// An ol-list as a collective ships it ([`OlList::encode_tiled`]), read
/// where the message landed: a view of [`TUPLE_BYTES`]-byte tuples, no
/// second copy of the list.
#[derive(Debug, Clone, Copy, Default)]
pub struct OlWire<'a> {
    tuples: &'a [[u8; TUPLE_BYTES]],
}

impl<'a> OlWire<'a> {
    /// The tuples of `bytes`; `None` when they are not a whole number.
    pub fn new(bytes: &'a [u8]) -> Option<OlWire<'a>> {
        let (tuples, rest) = bytes.as_chunks();
        rest.is_empty().then_some(OlWire { tuples })
    }

    /// Tuple `i` as `(offset, length)`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<(u64, u64)> {
        self.tuples.get(i).map(decode)
    }

    /// The last tuple.
    pub fn last(&self) -> Option<(u64, u64)> {
        self.tuples.last().map(decode)
    }

    /// The tuples as blocks, for [`OlList::merge_lists`].
    pub fn segs(&self) -> impl Iterator<Item = OlSeg> + 'a {
        self.tuples.iter().map(|t| {
            let (offset, len) = decode(t);
            OlSeg {
                offset: offset as i64,
                len,
            }
        })
    }
}

#[inline]
fn decode(tuple: &[u8; TUPLE_BYTES]) -> (u64, u64) {
    let (offset, len) = tuple.split_at(8);
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    (word(offset), word(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typemap::{expand_merged, reference_pack};
    use crate::types::{Datatype, Field};

    #[test]
    fn flatten_matches_reference() {
        let d = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 2);
        let want = expand_merged(&d, 2);
        assert_eq!(l.segs.len(), want.len());
        for (s, r) in l.segs.iter().zip(&want) {
            assert_eq!(s.offset, r.disp);
            assert_eq!(s.len, r.len);
        }
    }

    #[test]
    fn memory_blowup_for_small_blocks() {
        // the paper's extreme example: blocklen < 16 bytes means the list
        // outweighs the data
        let d = Datatype::vector(1000, 1, 2, &Datatype::double()).unwrap();
        let l = OlList::flatten(&d, 1);
        assert_eq!(l.num_blocks(), 1000);
        assert_eq!(l.memory_bytes(), 16_000);
        assert!(l.memory_bytes() as u64 > d.size()); // 16k > 8k
    }

    #[test]
    fn locate_linear() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 1);
        // blocks of 8 bytes at 0, 16, 32
        assert_eq!(l.locate(0), Some(OlPos { seg: 0, within: 0 }));
        assert_eq!(l.locate(7), Some(OlPos { seg: 0, within: 7 }));
        assert_eq!(l.locate(8), Some(OlPos { seg: 1, within: 0 }));
        assert_eq!(l.locate(23), Some(OlPos { seg: 2, within: 7 }));
        assert_eq!(l.locate(24), None);
    }

    #[test]
    fn offset_of_navigation() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 1);
        assert_eq!(l.offset_of(0), Some(0));
        assert_eq!(l.offset_of(8), Some(16));
        assert_eq!(l.offset_of(24), Some(40)); // one past the end
        assert_eq!(l.offset_of(25), None); // past that, nothing
        assert_eq!(OlList::default().offset_of(0), None);
    }

    #[test]
    fn size_in_window() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 1);
        assert_eq!(l.size_in_window(0, 40), 24);
        assert_eq!(l.size_in_window(0, 8), 8);
        assert_eq!(l.size_in_window(4, 20), 8); // half of block 0, half of 1
        assert_eq!(l.size_in_window(8, 16), 0); // the gap
    }

    #[test]
    fn pack_matches_reference() {
        let d = Datatype::vector(4, 3, 5, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8 * 2).collect();
        let l = OlList::flatten(&d, 2);
        let mut got = vec![0u8; (d.size() * 2) as usize];
        let n = l.pack(&src, 0, &mut got);
        assert_eq!(n, got.len());
        assert_eq!(got, reference_pack(&src, &d, 2));
    }

    #[test]
    fn pack_with_skip_and_limit() {
        let d = Datatype::vector(4, 3, 5, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8).collect();
        let l = OlList::flatten(&d, 1);
        let full = reference_pack(&src, &d, 1);
        for skip in 0..d.size() {
            for cap in 0..=(d.size() - skip) {
                let mut buf = vec![0u8; cap as usize];
                let n = l.pack(&src, skip, &mut buf);
                assert_eq!(n as u64, cap);
                assert_eq!(&buf[..], &full[skip as usize..(skip + cap) as usize]);
            }
        }
    }

    #[test]
    fn cursor_reads_in_pieces_and_stops_at_the_end() {
        let d = Datatype::vector(4, 3, 5, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8).collect();
        let l = OlList::flatten(&d, 1);
        let full = reference_pack(&src, &d, 1);
        for skip in 0..=full.len() {
            // pieces that cut blocks and span several, one walk across both
            let mut walk = CoWalk::new(RunCursor::contig(0), l.cursor(skip as u64));
            let stores = &mut Stores::new(Store::Cached);
            let mut got = vec![0u8; full.len() - skip];
            let (head, tail) = got.split_at_mut(5.min(full.len() - skip));
            let (cut, rest) = (head.len(), tail.len());
            assert_eq!(walk.place(head, 0, &src, 99, stores), cut);
            let placed = walk.place(tail, cut as u64, &src, rest, stores);
            assert_eq!(placed, rest);
            assert_eq!(got, full[skip..], "skip {skip}");
            // past the end of the list nothing moves, either way
            let end = (full.len() - skip) as u64;
            let place = walk.place(&mut [0u8; 4], end, &src, 4, stores);
            let extract = walk.extract(&[1u8; 4], end, &mut src.clone(), 4);
            assert_eq!((place, extract), (0, 0));
        }
    }

    #[test]
    fn unpack_roundtrip() {
        let d = Datatype::indexed(&[2, 1, 2], &[0, 4, 7], &Datatype::int()).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8).collect();
        let l = OlList::flatten(&d, 1);
        let mut packed = vec![0u8; d.size() as usize];
        l.pack(&src, 0, &mut packed);
        let mut dst = vec![0xEEu8; d.extent() as usize];
        let n = l.unpack(&packed, &mut dst, 0);
        assert_eq!(n as u64, d.size());
        for s in &l.segs {
            let o = s.offset as usize;
            assert_eq!(&dst[o..o + s.len as usize], &src[o..o + s.len as usize]);
        }
    }

    fn merged(lists: &[&OlList]) -> OlList {
        OlList::merge_lists(lists.iter().map(|l| l.segs.iter().copied()))
    }

    #[test]
    fn merge_two_interleaved_lists() {
        let a = OlList {
            segs: vec![OlSeg { offset: 0, len: 8 }, OlSeg { offset: 16, len: 8 }],
        };
        let b = OlList {
            segs: vec![OlSeg { offset: 8, len: 8 }, OlSeg { offset: 24, len: 8 }],
        };
        let m = merged(&[&a, &b]);
        assert_eq!(m.segs, vec![OlSeg { offset: 0, len: 32 }]);
    }

    #[test]
    fn merge_detects_gap() {
        let a = OlList {
            segs: vec![OlSeg { offset: 0, len: 8 }],
        };
        let b = OlList {
            segs: vec![OlSeg { offset: 12, len: 8 }],
        };
        let m = merged(&[&a, &b]);
        assert_eq!(m.segs.len(), 2);
    }

    #[test]
    fn merge_with_overlap() {
        let a = OlList {
            segs: vec![OlSeg { offset: 0, len: 10 }],
        };
        let b = OlList {
            segs: vec![OlSeg { offset: 5, len: 10 }],
        };
        let m = merged(&[&a, &b]);
        assert_eq!(m.segs, vec![OlSeg { offset: 0, len: 15 }]);
    }

    #[test]
    fn tiled_lists_travel_as_tuples_and_merge_from_where_they_landed() {
        // blocks of 8 bytes at 0, 16, 32 in an extent of 40, tiled from 100
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 1);
        let tiled = |a, b| l.encode_tiled(100, 40, 24, a..b);
        let tuples = |bytes: &[u8]| {
            let wire = OlWire::new(bytes).expect("whole tuples");
            (0..).map_while(|i| wire.get(i)).collect::<Vec<_>>()
        };
        // from mid-block 0 of instance 0 to mid-block 1 of instance 1
        let even = tiled(4, 36);
        assert!(
            even.capacity() >= 2 * 3 * TUPLE_BYTES,
            "two instances reserved"
        );
        assert_eq!(
            tuples(&even),
            [(104, 4), (116, 8), (132, 8), (140, 8), (156, 4)]
        );
        assert!(tiled(7, 7).is_empty());
        assert_eq!(tuples(&tiled(48, 49)), [(180, 1)], "a third instance");

        // the other half of the stream: the two merge into one run
        let odd = tiled(0, 4);
        let rest = tiled(36, 48);
        let lists = [&odd, &even, &rest].map(|b| OlWire::new(b).unwrap());
        let m = OlList::merge_lists(lists.iter().map(OlWire::segs));
        let want = [(100, 8), (116, 8), (132, 16), (156, 8), (172, 8)];
        let got: Vec<_> = m.segs.iter().map(|s| (s.offset as u64, s.len)).collect();
        assert_eq!(got, want);
        assert_eq!(lists[1].last(), Some((156, 4)));
        assert!(OlWire::new(&even[1..]).is_none(), "not whole tuples");
        assert!(OlWire::new(&[]).is_some_and(|w| w.last().is_none()));
    }

    #[test]
    fn flatten_struct_with_struct_child() {
        let inner = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 2,
                child: Datatype::int(),
            },
            Field {
                disp: 12,
                count: 1,
                child: Datatype::int(),
            },
        ])
        .unwrap();
        let l = OlList::flatten(&inner, 1);
        assert_eq!(
            l.segs,
            vec![OlSeg { offset: 0, len: 8 }, OlSeg { offset: 12, len: 4 }]
        );
    }

    #[test]
    fn empty_flatten() {
        let d = Datatype::contiguous(0, &Datatype::int()).unwrap();
        let l = OlList::flatten(&d, 3);
        assert!(l.segs.is_empty());
        assert_eq!(l.locate(0), None);
        assert_eq!(l.total_data(), 0);
    }
}
