//! Fileviews and the two navigation/copy engines that interpret them.
//!
//! A [`FileView`] is the MPI-IO triple `(disp, etype, filetype)`: the
//! filetype tiles the file from byte `disp` onwards, and the bytes covered
//! by its data form the view's *stream* — the sequence of data bytes a
//! process reads or writes. Offsets passed to the access routines are in
//! etype units and may land anywhere inside the filetype, which is why
//! navigation (stream position ↔ absolute file offset) is needed at all.
//!
//! The crate-internal `ViewNav` encapsulates the part the paper is
//! about: *how* that navigation and the associated copying is done.
//!
//! * `ListNav` — the list-based baseline: an explicitly flattened
//!   ol-list, searched **linearly from the start** on every navigation
//!   (the `O(Nblock/2)`-per-access cost of Section 2.2).
//! * `FfNav` — listless: flattening-on-the-fly navigation in
//!   `O(depth · log k)`, and window copies through the filetype's
//!   compiled run program (Section 3).

use std::ops::Range;
use std::sync::Arc;

use lio_datatype::kernels::{Store, Stores};
use lio_datatype::{
    bytes_below_tiled, ff_offset, CoWalk, Datatype, OlList, OlSeg, OlWire, RunCursor,
};

use crate::error::{IoError, Result};
use crate::packer::{MemPacker, UserSide};
use crate::sieve::short_transfer;

/// An MPI-IO fileview: displacement, elementary type, filetype.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Absolute byte displacement where the tiled filetype begins
    /// (skips headers etc.).
    pub disp: u64,
    /// The elementary type; access offsets count in units of its size.
    pub etype: Datatype,
    /// The filetype tiling the file from `disp`.
    pub filetype: Datatype,
}

impl FileView {
    /// Validate and build a fileview. Enforces the MPI-IO restrictions:
    /// monotone non-negative filetype displacements, etype dividing the
    /// filetype size.
    pub fn new(disp: u64, etype: Datatype, filetype: Datatype) -> Result<FileView> {
        filetype.valid_as_filetype()?;
        if etype.size() == 0 {
            return Err(IoError::Usage("etype must have nonzero size".into()));
        }
        if filetype.size() == 0 {
            return Err(IoError::Usage("filetype must have nonzero size".into()));
        }
        if !filetype.size().is_multiple_of(etype.size()) {
            return Err(IoError::Usage(format!(
                "filetype size {} is not a multiple of etype size {}",
                filetype.size(),
                etype.size()
            )));
        }
        Ok(FileView {
            disp,
            etype,
            filetype,
        })
    }

    /// The default "flat" view: etype and filetype are bytes.
    pub fn bytes() -> FileView {
        FileView {
            disp: 0,
            etype: Datatype::byte(),
            filetype: Datatype::byte(),
        }
    }

    /// Convert an access offset in etype units to a stream byte position.
    #[inline]
    pub fn etype_offset_to_stream(&self, offset: u64) -> u64 {
        offset * self.etype.size()
    }
}

/// Engine-specific navigation over one rank's fileview.
pub(crate) enum ViewNav {
    List(ListNav),
    Ff(FfNav),
}

impl ViewNav {
    /// Absolute file offset of stream byte `stream`.
    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        match self {
            ViewNav::List(n) => n.stream_to_abs(stream),
            ViewNav::Ff(n) => n.stream_to_abs(stream),
        }
    }

    /// Stream bytes with absolute offsets `< abs`.
    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        match self {
            ViewNav::List(n) => n.abs_to_stream(abs),
            ViewNav::Ff(n) => n.abs_to_stream(abs),
        }
    }

    /// The file range `[lo, hi)` that stream bytes `[s_lo, s_hi)` reach;
    /// `None` when there are none.
    pub fn reach(&self, (s_lo, s_hi): (u64, u64)) -> Option<(u64, u64)> {
        (s_hi > s_lo).then(|| (self.stream_to_abs(s_lo), self.stream_to_abs(s_hi - 1) + 1))
    }

    /// Stream bytes with absolute offsets in `[lo, hi)`.
    pub fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return 0;
        }
        self.abs_to_stream(hi) - self.abs_to_stream(lo)
    }

    /// This view's [`Share`] of stream bytes `span` of `end`, for a loop
    /// that holds one of either engine — the sieve's. A collective loop,
    /// which asks one share per AP and piece, holds its engine's.
    pub fn share<'a, U>(&'a self, end: &UserSide<'a, U>, span: (u64, u64)) -> ViewShare<'a> {
        match self {
            ViewNav::List(n) => ViewShare::List(n.share(end, span)),
            ViewNav::Ff(n) => ViewShare::Ff(n.share(span)),
        }
    }

    /// The underlying view.
    pub fn view(&self) -> &FileView {
        match self {
            ViewNav::List(n) => &n.view,
            ViewNav::Ff(n) => &n.view,
        }
    }
}

/// One AP's bytes in a range of the file — an IOP's domain, or the range
/// of an independent access — as a window loop moves them: a stream
/// interval of the AP's end of the loop ([`UserSide`]), where in the file
/// those bytes go, and how far the loop has come. A loop asks each share,
/// per window, whether bytes of it are left below the window's end, and
/// then, piece by piece, to place or extract them. Both engines implement
/// it, so each window loop is written once, generic over it: list-based a
/// [`ListShare`] (an access list walked beside the end), listless an
/// [`FfShare`] (the filetype's program from a stream cursor on).
pub(crate) trait Share {
    /// The file range `[lo, hi)` that the bytes not moved yet reach;
    /// `None` when none are left.
    fn reach(&self) -> Option<(u64, u64)>;

    /// Whether bytes not moved yet lie below `win_end`.
    fn wants(&self, win_end: u64) -> bool;

    /// Place the next bytes from `src` into `piece`, up to its end: file
    /// bytes `[at, at + piece.len())` — a window, or one of the pieces the
    /// storage lends of one — or a buffer that mirrors them. `store` says
    /// how runs are stored into it ([`Stores`]); a call that streamed has
    /// fenced before it returns. Returns the bytes placed.
    fn place(&mut self, src: &UserSide<&[u8]>, piece: &mut [u8], at: u64, store: Store) -> usize;

    /// [`Share::place`] the other way: the next bytes out of `piece` into
    /// `dst` — a whole buffer, or the piece of one that holds them.
    fn extract(&mut self, piece: &[u8], at: u64, dst: &mut UserSide<&mut [u8]>) -> usize;

    /// The stream interval not moved yet.
    fn rest(&self) -> (u64, u64);

    /// `Ok` once every byte has moved; the engine's error for a share
    /// that was left short.
    fn done(&self) -> Result<()>;
}

/// The [`Share`] of either engine, as [`ViewNav::share`] hands it out:
/// held in place, not on the heap.
pub(crate) enum ViewShare<'a> {
    List(ListShare<'a>),
    Ff(FfShare<'a>),
}

/// `$body` with `$s` bound to the share of either engine in `$share`.
macro_rules! either {
    ($share:expr, $s:ident => $body:expr) => {
        match $share {
            ViewShare::List($s) => $body,
            ViewShare::Ff($s) => $body,
        }
    };
}

/// `place` and `extract` are kept out of line: inlined into the sieve's
/// window loop, the list-based co-walk runs 4–6 % slower (`ind-small`
/// `lb_write_mbps`, EXPERIMENTS.md).
impl Share for ViewShare<'_> {
    fn reach(&self) -> Option<(u64, u64)> {
        either!(self, s => s.reach())
    }

    fn wants(&self, win_end: u64) -> bool {
        either!(self, s => s.wants(win_end))
    }

    #[inline(never)]
    fn place(&mut self, src: &UserSide<&[u8]>, piece: &mut [u8], at: u64, store: Store) -> usize {
        either!(self, s => s.place(src, piece, at, store))
    }

    #[inline(never)]
    fn extract(&mut self, piece: &[u8], at: u64, dst: &mut UserSide<&mut [u8]>) -> usize {
        either!(self, s => s.extract(piece, at, dst))
    }

    fn rest(&self) -> (u64, u64) {
        either!(self, s => s.rest())
    }

    fn done(&self) -> Result<()> {
        either!(self, s => s.done())
    }
}

// ---------------------------------------------------------------------
// List-based navigation
// ---------------------------------------------------------------------

/// List-based navigator: explicit ol-list, linear traversal per access.
pub(crate) struct ListNav {
    pub view: FileView,
    /// Flattened single filetype instance (offsets relative to `disp`).
    /// Created once when the view is established, as ROMIO does.
    pub list: Arc<OlList>,
}

impl ListNav {
    pub fn new(view: FileView) -> ListNav {
        // the paper's "explicit flattening" — O(Nblock) time and memory
        let list = Arc::new(OlList::flatten(&view.filetype, 1));
        ListNav { view, list }
    }

    fn fsize(&self) -> u64 {
        self.view.filetype.size()
    }

    fn fext(&self) -> u64 {
        self.view.filetype.extent()
    }

    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        let inst = stream / self.fsize();
        let within = stream % self.fsize();
        // deliberate linear traversal from the start of the list — the
        // list-based navigation cost of paper Section 2.2
        let rel = self.list.offset_of(within).expect("within < filetype size");
        self.view.disp + inst * self.fext() + rel as u64
    }

    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        if abs <= self.view.disp {
            return 0;
        }
        let rel = abs - self.view.disp;
        let inst = rel / self.fext();
        let within = rel % self.fext();
        // linear scan for the partial instance
        inst * self.fsize() + self.list.size_in_window(0, within as i64)
    }

    /// Where stream byte 0 lies if the view's one run fills its extent:
    /// then it is one endless run, as ROMIO treats a contiguous filetype.
    fn contiguous(&self) -> Option<u64> {
        let [OlSeg { offset, len }] = self.list.segs[..] else {
            return None;
        };
        (len == self.fext()).then(|| self.view.disp.wrapping_add_signed(offset))
    }

    /// The access list of stream bytes `stream`: its runs as absolute
    /// tuples, in the form a collective ships them
    /// ([`OlList::encode_tiled`]: one linear locate, then one pass), one
    /// tuple if the view is contiguous.
    pub fn access_list(&self, stream: Range<u64>) -> Vec<u8> {
        match self.contiguous().filter(|_| !stream.is_empty()) {
            Some(at) => [at + stream.start, stream.end - stream.start]
                .map(u64::to_le_bytes)
                .concat(),
            None => (self.list).encode_tiled(self.view.disp, self.fext(), self.fsize(), stream),
        }
    }

    /// A cursor over the view's runs, at file offsets, from stream
    /// position `stream0` on. Construction performs the linear locate; a
    /// contiguous view is one endless run.
    pub fn cursor(&self, stream0: u64) -> RunCursor<'_> {
        match self.contiguous() {
            Some(at) => RunCursor::contig((at + stream0) as usize),
            None => (self.list).tiled_cursor(self.view.disp, self.fext(), self.fsize(), stream0),
        }
    }

    /// The list-based [`Share`] of stream bytes `span` of `end`: the view's
    /// runs from the linear locate of `span.0` on.
    pub fn share<'a, U>(&'a self, end: &UserSide<'a, U>, (lo, hi): (u64, u64)) -> ListShare<'a> {
        let walk = CoWalk::new(self.cursor(lo), end.cursor(lo));
        let reach = (hi > lo).then(|| (self.stream_to_abs(lo), self.stream_to_abs(hi - 1) + 1));
        ListShare::new(walk, reach, (lo, hi))
    }
}

/// The list-based [`Share`]: a [`CoWalk`] of where the bytes go — a
/// received access list, or the view's ol-list tiled — beside where they
/// lie in the AP's end.
pub(crate) struct ListShare<'a> {
    walk: CoWalk<'a>,
    /// The file range the list reaches.
    reach: Option<(u64, u64)>,
    /// The stream bytes not moved yet.
    next: u64,
    end: u64,
}

impl<'a> ListShare<'a> {
    /// The stream bytes `span` of `end`, where the access list `list`
    /// says. A list that holds fewer bytes than `span` leaves the share
    /// short; one that holds more is not walked past `span`.
    pub fn wire<U>(list: OlWire<'a>, end: &UserSide<'a, U>, span: (u64, u64)) -> ListShare<'a> {
        let walk = CoWalk::new(RunCursor::wire(list), end.cursor(span.0));
        let reach = list.get(0).zip(list.last()).map(|(a, z)| (a.0, z.0 + z.1));
        ListShare::new(walk, reach, span)
    }

    fn new(walk: CoWalk<'a>, reach: Option<(u64, u64)>, (next, end): (u64, u64)) -> Self {
        ListShare {
            walk,
            reach,
            next,
            end,
        }
    }
}

impl Share for ListShare<'_> {
    fn reach(&self) -> Option<(u64, u64)> {
        self.reach.filter(|_| self.next < self.end)
    }

    fn wants(&self, win_end: u64) -> bool {
        self.next < self.end && self.walk.file.next_at().is_some_and(|o| o < win_end)
    }

    fn place(&mut self, src: &UserSide<&[u8]>, piece: &mut [u8], at: u64, store: Store) -> usize {
        let (n, stores) = ((self.end - self.next) as usize, &mut Stores::new(store));
        let moved = self.walk.place(piece, at, src.user, n, stores);
        self.next += moved as u64;
        moved
    }

    fn extract(&mut self, piece: &[u8], at: u64, dst: &mut UserSide<&mut [u8]>) -> usize {
        let n = (self.end - self.next) as usize;
        let moved = self.walk.extract(piece, at, dst.user, n);
        self.next += moved as u64;
        moved
    }

    fn rest(&self) -> (u64, u64) {
        (self.next, self.end)
    }

    /// A shortfall is a malformed list: `Usage`, as a torn one is.
    fn done(&self) -> Result<()> {
        match self.end - self.next {
            0 => Ok(()),
            short => Err(IoError::Usage(format!(
                "access list short by {short} of its header's bytes"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Listless (flattening-on-the-fly) navigation
// ---------------------------------------------------------------------

/// Listless navigator: no materialized representation beyond the
/// filetype's compiled run program, cached on the datatype.
pub(crate) struct FfNav {
    pub view: FileView,
}

impl FfNav {
    pub fn new(view: FileView) -> FfNav {
        FfNav { view }
    }

    /// The listless [`Share`] of stream bytes `span`, from `span.0` on.
    pub fn share(&self, span: (u64, u64)) -> FfShare<'_> {
        FfShare {
            nav: self,
            span,
            next: span.0,
        }
    }

    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        self.view.disp + ff_offset(&self.view.filetype, stream) as u64
    }

    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        if abs <= self.view.disp {
            return 0;
        }
        bytes_below_tiled(&self.view.filetype, (abs - self.view.disp) as i64)
    }
}

/// The listless [`Share`]: the filetype's run program over each piece,
/// from a stream cursor on.
pub(crate) struct FfShare<'a> {
    nav: &'a FfNav,
    /// The stream bytes of the share.
    span: (u64, u64),
    /// The first of them not moved yet.
    next: u64,
}

impl Share for FfShare<'_> {
    fn reach(&self) -> Option<(u64, u64)> {
        let (lo, hi) = (self.next, self.span.1);
        let nav = self.nav;
        (hi > lo).then(|| (nav.stream_to_abs(lo), nav.stream_to_abs(hi - 1) + 1))
    }

    fn wants(&self, win_end: u64) -> bool {
        self.next < self.span.1 && self.nav.abs_to_stream(win_end) > self.next
    }

    /// The piece's byte 0 sits at typemap displacement `at − disp`; the
    /// program's other side is the stream as `src` holds it — contiguous
    /// bytes (unpack), or a typed user buffer under its own program
    /// (transfer).
    fn place(&mut self, src: &UserSide<&[u8]>, piece: &mut [u8], at: u64, store: Store) -> usize {
        debug_assert_eq!(src.buf_at, 0, "a write's end is a whole buffer");
        // the view's instances, endlessly tiled, from the piece's on
        let (view, tiles, n) = (&self.nav.view, u64::MAX, (self.span.1 - self.next) as usize);
        let (disp, s0) = (at as i64 - view.disp as i64, self.next);
        let skip = s0 - src.stream_start;
        let prog = view.filetype.program();
        let (moved, _) = match src.packer {
            MemPacker::Contig { base } => {
                let data = &src.user[base + skip as usize..][..n];
                prog.unpack_into(data, piece, disp, tiles, s0, store)
            }
            MemPacker::Ff { memtype, count } => {
                let (from, user, count) = (memtype.program(), src.user, *count);
                prog.transfer_into(piece, disp, tiles, s0, from, user, count, skip, n, store)
            }
            MemPacker::List { .. } => unreachable!("a flattened memtype meets a listless view"),
        };
        self.next += moved as u64;
        moved
    }

    /// `dst.buf_at` offsets a piece of a buffer as `at` offsets the
    /// window's.
    fn extract(&mut self, piece: &[u8], at: u64, dst: &mut UserSide<&mut [u8]>) -> usize {
        let (view, tiles, n) = (&self.nav.view, u64::MAX, (self.span.1 - self.next) as usize);
        let (disp, s0) = (at as i64 - view.disp as i64, self.next);
        let skip = s0 - dst.stream_start;
        let prog = view.filetype.program();
        let (moved, _) = match dst.packer {
            MemPacker::Contig { base } => {
                let out = &mut dst.user[base + skip as usize - dst.buf_at..][..n];
                prog.pack_into(piece, disp, tiles, s0, out)
            }
            MemPacker::Ff { memtype, count } => {
                let (to, user, count) = (memtype.program(), &mut *dst.user, *count);
                prog.transfer_out_of(piece, disp, tiles, s0, to, user, dst.buf_at, count, skip, n)
            }
            MemPacker::List { .. } => unreachable!("a flattened memtype meets a listless view"),
        };
        self.next += moved as u64;
        moved
    }

    fn rest(&self) -> (u64, u64) {
        (self.next, self.span.1)
    }

    /// A shortfall is [`short_transfer`]'s error over the file range of
    /// the whole share.
    fn done(&self) -> Result<()> {
        let (lo, hi) = self.span;
        if self.next == hi {
            return Ok(());
        }
        let range = (
            self.nav.stream_to_abs(lo),
            self.nav.stream_to_abs(hi - 1) + 1,
        );
        short_transfer(range, self.next - lo, hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packer::STREAM;
    use lio_datatype::Datatype;

    fn sample_view(disp: u64) -> FileView {
        // blocks of 8 bytes at 0, 16, 32 within a 40-byte extent
        let ft = Datatype::vector(3, 1, 2, &Datatype::double()).unwrap();
        FileView::new(disp, Datatype::double(), ft).unwrap()
    }

    fn both_navs(view: FileView) -> (ListNav, FfNav) {
        (ListNav::new(view.clone()), FfNav::new(view))
    }

    /// Place `data`, the stream from position `stream0` on.
    fn place(nav: &ViewNav, data: &[u8], stream0: u64, filebuf: &mut [u8], at: u64) -> usize {
        let src = UserSide::new(&STREAM, data, stream0);
        let mut share = nav.share(&src, (stream0, stream0 + data.len() as u64));
        share.place(&src, filebuf, at, Store::Stream)
    }

    /// Extract into `out`, the stream from position `stream0` on.
    fn extract(nav: &ViewNav, filebuf: &[u8], at: u64, stream0: u64, out: &mut [u8]) -> usize {
        let n = out.len() as u64;
        let mut dst = UserSide::new(&STREAM, out, stream0);
        let mut share = nav.share(&dst, (stream0, stream0 + n));
        share.extract(filebuf, at, &mut dst)
    }

    #[test]
    fn view_validation() {
        assert!(FileView::new(0, Datatype::double(), Datatype::double()).is_ok());
        // non-monotone filetype rejected
        let bad = Datatype::indexed(&[1, 1], &[4, 0], &Datatype::int()).unwrap();
        assert!(FileView::new(0, Datatype::int(), bad).is_err());
        // etype not dividing filetype size
        let ft = Datatype::contiguous(3, &Datatype::byte()).unwrap();
        assert!(FileView::new(0, Datatype::int(), ft).is_err());
    }

    #[test]
    fn navs_agree_on_stream_to_abs() {
        let (ln, fn_) = both_navs(sample_view(100));
        for stream in 0..96 {
            assert_eq!(
                ln.stream_to_abs(stream),
                fn_.stream_to_abs(stream),
                "stream {stream}"
            );
        }
    }

    #[test]
    fn navs_agree_on_abs_to_stream() {
        let (ln, fn_) = both_navs(sample_view(100));
        for abs in 0..300 {
            assert_eq!(ln.abs_to_stream(abs), fn_.abs_to_stream(abs), "abs {abs}");
        }
    }

    #[test]
    fn stream_to_abs_values() {
        let (ln, _) = both_navs(sample_view(100));
        assert_eq!(ln.stream_to_abs(0), 100);
        assert_eq!(ln.stream_to_abs(8), 116);
        assert_eq!(ln.stream_to_abs(16), 132);
        assert_eq!(ln.stream_to_abs(24), 140); // next instance
    }

    /// A filetype that is not one strided frame — ragged blocks, then a
    /// vector of two-element blocks, then a trailing gap — walked window
    /// by window the way the engines do: both navigators must place and
    /// extract exactly what the typemap says, from and into a user buffer
    /// that is the stream and one that holds it in 3-byte blocks.
    #[test]
    fn non_strided_view_window_walk_matches_typemap() {
        use lio_datatype::typemap::expand;
        use lio_datatype::Field;
        let ragged = Datatype::hindexed(&[3, 5, 1], &[2, 9, 20], &Datatype::byte()).unwrap();
        let vv = Datatype::vector(3, 2, 4, &Datatype::basic(2)).unwrap();
        let fields = vec![
            Field {
                disp: 0,
                count: 1,
                child: ragged,
            },
            Field {
                disp: 32,
                count: 1,
                child: vv,
            },
        ];
        let ft = Datatype::resized(&Datatype::struct_type(fields).unwrap(), 0, 60).unwrap();
        assert!(ft.program().frames() > 1, "{}", ft.program().describe());
        const NINST: u64 = 3;
        let total = (ft.size() * NINST) as usize;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8 + 1).collect();
        // the same stream behind a memtype whose blocks line up with
        // nothing in the filetype
        let memtype = Datatype::vector(total as u64 / 3, 3, 5, &Datatype::byte()).unwrap();
        let mut strided = vec![0u8; memtype.extent() as usize];
        lio_datatype::typemap::reference_unpack(&data, &mut strided, &memtype, 1);
        for disp in [0u64, 13] {
            let view = FileView::new(disp, Datatype::byte(), ft.clone()).unwrap();
            let file_len = (disp + ft.extent() * NINST) as usize;
            let mut image = vec![0u8; file_len];
            let mut s = 0;
            for r in expand(&ft, NINST) {
                let (o, n) = (disp as usize + r.disp as usize, r.len as usize);
                image[o..o + n].copy_from_slice(&data[s..s + n]);
                s += n;
            }
            for (nav, list_based) in [
                (ViewNav::List(ListNav::new(view.clone())), true),
                (ViewNav::Ff(FfNav::new(view.clone())), false),
            ] {
                let typed = MemPacker::new(&memtype, 1, strided.len(), list_based).unwrap();
                for (packer, user) in [(&STREAM, &data), (&typed, &strided)] {
                    // 1 and 2 are shorter than most blocks; 7 and 19 start
                    // in gaps, before `disp` and mid-block, and cut blocks;
                    // 64 spans more than an instance
                    for w in [1usize, 2, 7, 19, 64] {
                        let mut file = vec![0u8; file_len];
                        let mut out = vec![0u8; user.len()];
                        let ctx = format!("disp={disp} w={w} typed={}", user.len() > total);
                        let span = (0, total as u64);
                        let src = UserSide::new(packer, user.as_slice(), 0);
                        let mut dst = UserSide::new(packer, out.as_mut_slice(), 0);
                        let (mut placing, mut taking) =
                            (nav.share(&src, span), nav.share(&dst, span));
                        for lo in (0..file_len).step_by(w) {
                            let hi = (lo + w).min(file_len);
                            let want = nav.bytes_in(lo as u64, hi as u64) as usize;
                            let store = [Store::Cached, Store::Stream][lo % 2];
                            assert_eq!(placing.wants(hi as u64), want > 0, "{ctx} lo={lo}");
                            let placed = placing.place(&src, &mut file[lo..hi], lo as u64, store);
                            assert_eq!(placed, want, "place {ctx} lo={lo}");
                            let got = taking.extract(&image[lo..hi], lo as u64, &mut dst);
                            assert_eq!(got, want, "extract {ctx} lo={lo}");
                        }
                        assert!(placing.done().is_ok() && taking.done().is_ok(), "{ctx}");
                        assert_eq!(file, image, "{ctx}");
                        assert_eq!(out, *user, "{ctx}");
                    }
                }
            }
        }
    }

    /// The access list spelled out: every run of the view's instances
    /// from the interval's first byte on, the first and last cut to it —
    /// one run on a contiguous view.
    fn walked_access_list(nav: &ListNav, s_lo: u64, s_hi: u64) -> Vec<u8> {
        let (disp, ext, segs) = (nav.view.disp, nav.fext(), &nav.list.segs);
        if let Some(at) = nav.contiguous().filter(|_| s_hi > s_lo) {
            return [at + s_lo, s_hi - s_lo].map(u64::to_le_bytes).concat();
        }
        let runs = (0..).flat_map(|i| segs.iter().map(move |s| (disp + i * ext, s)));
        let (mut skip, mut left, mut out) = (s_lo, s_hi.saturating_sub(s_lo), Vec::new());
        for (base, seg) in runs {
            if left == 0 {
                break;
            }
            if skip >= seg.len {
                skip -= seg.len;
                continue;
            }
            let take = (seg.len - skip).min(left);
            out.extend_from_slice(&(base + seg.offset as u64 + skip).to_le_bytes());
            out.extend_from_slice(&take.to_le_bytes());
            (skip, left) = (0, left - take);
        }
        out
    }

    /// The one-pass access list is the runs spelled out, byte for byte:
    /// filetypes with one and several frames, ragged and gapped blocks, a
    /// leading gap; displacements 0 and off any block; intervals empty,
    /// inside one block, starting and ending mid-block, and spanning
    /// several instances.
    #[test]
    fn access_list_is_the_runs_walk() {
        use lio_datatype::Field;
        let ragged = Datatype::hindexed(&[3, 5, 1], &[2, 9, 20], &Datatype::byte()).unwrap();
        let vv = Datatype::vector(3, 2, 4, &Datatype::basic(2)).unwrap();
        let fields = vec![
            Field {
                disp: 0,
                count: 1,
                child: ragged.clone(),
            },
            Field {
                disp: 32,
                count: 1,
                child: vv,
            },
        ];
        let two_frames = Datatype::resized(&Datatype::struct_type(fields).unwrap(), 0, 60).unwrap();
        let filetypes = [
            Datatype::vector(3, 1, 2, &Datatype::double()).unwrap(),
            Datatype::resized(&ragged, 0, 24).unwrap(),
            two_frames,
            Datatype::contiguous(5, &Datatype::byte()).unwrap(),
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for (t, ft) in filetypes.iter().enumerate() {
            for disp in [0u64, 7, 4099] {
                let nav = ListNav::new(FileView::new(disp, Datatype::byte(), ft.clone()).unwrap());
                let size = ft.size();
                let mut intervals = vec![(0, 0), (size, size), (1, size - 1), (0, 5 * size)];
                intervals.extend((0..64).map(|_| {
                    let a = next(4 * size);
                    (a, a + next(3 * size))
                }));
                for (a, b) in intervals {
                    let want = walked_access_list(&nav, a, b);
                    let got = nav.access_list(a..b);
                    assert_eq!(got, want, "filetype {t}, disp {disp}, [{a}, {b})");
                }
            }
        }
    }

    #[test]
    fn place_and_extract_roundtrip() {
        let view = sample_view(0);
        let nav = ViewNav::Ff(FfNav::new(view));
        let data: Vec<u8> = (1..=24).collect();
        // window covering the whole first instance
        let mut filebuf = vec![0u8; 40];
        let placed = place(&nav, &data, 0, &mut filebuf, 0);
        assert_eq!(placed, 24);
        assert_eq!(&filebuf[0..8], &data[0..8]);
        assert_eq!(&filebuf[16..24], &data[8..16]);
        assert_eq!(&filebuf[32..40], &data[16..24]);
        // gaps untouched
        assert_eq!(&filebuf[8..16], &[0; 8]);

        let mut out = vec![0u8; 24];
        let got = extract(&nav, &filebuf, 0, 0, &mut out);
        assert_eq!(got, 24);
        assert_eq!(out, data);
    }

    #[test]
    fn place_clips_at_window_end() {
        let view = sample_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            let data: Vec<u8> = (1..=24).collect();
            // window covers only the first 20 bytes of the file
            let mut filebuf = vec![0u8; 20];
            let placed = place(&nav, &data, 0, &mut filebuf, 0);
            assert_eq!(placed, 12); // block 0 (8) + half of block 1 (4)
            assert_eq!(&filebuf[0..8], &data[0..8]);
            assert_eq!(&filebuf[16..20], &data[8..12]);
            // continue in the next window
            let mut filebuf2 = vec![0u8; 20];
            let placed2 = place(&nav, &data[12..], 12, &mut filebuf2, 20);
            assert_eq!(placed2, 12);
            assert_eq!(&filebuf2[0..4], &data[12..16]); // rest of block 1
            assert_eq!(&filebuf2[12..20], &data[16..24]); // block 2
        }
    }

    #[test]
    fn windows_starting_inside_gaps() {
        let view = sample_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            // window [10, 30): contains only block 1 (16..24)
            assert_eq!(nav.bytes_in(10, 30), 8);
            let mut filebuf = vec![9u8; 20];
            let stream0 = nav.abs_to_stream(10);
            assert_eq!(stream0, 8);
            let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
            let placed = place(&nav, &data, stream0, &mut filebuf, 10);
            assert_eq!(placed, 8);
            assert_eq!(&filebuf[6..14], &data);
        }
    }

    #[test]
    fn disp_offsets_everything() {
        let view = sample_view(1000);
        let nav = ViewNav::Ff(FfNav::new(view));
        assert_eq!(nav.stream_to_abs(0), 1000);
        assert_eq!(nav.abs_to_stream(999), 0);
        assert_eq!(nav.abs_to_stream(1008), 8);
        assert_eq!(nav.bytes_in(0, 1000), 0);
    }
}
