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
use lio_datatype::{bytes_below_tiled, ff_offset, CoWalk, Datatype, OlList, RunCursor};

use crate::error::{IoError, Result};
use crate::packer::{MemPacker, UserSide};

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

    /// Whether the view exposes the file contiguously (no holes), so
    /// accesses can bypass sieving entirely.
    pub fn is_contiguous(&self) -> bool {
        self.filetype.size() == self.filetype.extent()
            && self.filetype.single_run() == Some(self.filetype.data_lb())
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

    /// Stream bytes with absolute offsets in `[lo, hi)`.
    pub fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return 0;
        }
        self.abs_to_stream(hi) - self.abs_to_stream(lo)
    }

    /// Copy up to `n` stream bytes from stream position `stream0` on out
    /// of `src` into `filebuf`, which mirrors — or is — file bytes
    /// `[win_start, win_start + filebuf.len())`: a whole window, or one of
    /// the pieces the storage lends of it. One copy, whatever `src`'s
    /// layout: listless, the filetype's program runs against the memtype's;
    /// list-based, the two ol-lists are walked side by side. `store` says
    /// how runs are stored into `filebuf` ([`Stores`]); a call that
    /// streamed has fenced before it returns. Returns bytes placed; `seen`
    /// is the profiler's tally for the window.
    #[allow(clippy::too_many_arguments)]
    pub fn place_into_window(
        &self,
        src: &UserSide<&[u8]>,
        stream0: u64,
        n: usize,
        filebuf: &mut [u8],
        win_start: u64,
        seen: &mut RunTally,
        store: Store,
    ) -> usize {
        match self {
            ViewNav::List(nav) => {
                let user = src.cursor(stream0);
                let (stores, profile) = (&mut Stores::new(store), lio_obs::profile::enabled());
                CoWalk::new(nav.cursor(stream0), user)
                    .place(filebuf, win_start, src.user, n, stores, profile)
            }
            ViewNav::Ff(nav) => nav.place_piece(src, stream0, n, filebuf, win_start, seen, store),
        }
    }

    /// Copy this view's bytes out of `filebuf` (as for
    /// [`ViewNav::place_into_window`]) into `dst`: up to `n` stream bytes
    /// from stream position `stream0` on. Returns bytes extracted.
    pub fn extract_from_window(
        &self,
        filebuf: &[u8],
        win_start: u64,
        stream0: u64,
        n: usize,
        dst: &mut UserSide<&mut [u8]>,
        seen: &mut RunTally,
    ) -> usize {
        match self {
            ViewNav::List(nav) => {
                let user = dst.cursor(stream0);
                CoWalk::new(nav.cursor(stream0), user).extract(
                    filebuf,
                    win_start,
                    dst.user,
                    n,
                    lio_obs::profile::enabled(),
                )
            }
            ViewNav::Ff(nav) => nav.extract_piece(filebuf, win_start, stream0, n, dst, seen),
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

    /// The access list of stream bytes `stream`: its runs as absolute
    /// tuples, in the form a collective ships them
    /// ([`OlList::encode_tiled`]: one linear locate, then one pass).
    pub fn access_list(&self, stream: Range<u64>) -> Vec<u8> {
        self.list
            .encode_tiled(self.view.disp, self.fext(), self.fsize(), stream)
    }

    /// A cursor over the view's runs, at file offsets, from stream
    /// position `stream0` on. Construction performs the linear locate.
    pub fn cursor(&self, stream0: u64) -> RunCursor<'_> {
        (self.list).tiled_cursor(self.view.disp, self.fext(), self.fsize(), stream0)
    }
}

// ---------------------------------------------------------------------
// Listless (flattening-on-the-fly) navigation
// ---------------------------------------------------------------------

/// What one view moved so far in the window being placed or extracted:
/// the listless profiler record of a window the storage lends in several
/// pieces is gathered here and fed once, by the piece that reaches the
/// window's end (`FfNav::profile_piece`).
#[derive(Clone)]
pub(crate) struct RunTally {
    win_end: u64,
    bytes: usize,
    runs: u64,
}

impl RunTally {
    /// An empty tally for the window that ends at `win_end`.
    pub fn until(win_end: u64) -> RunTally {
        RunTally {
            win_end,
            bytes: 0,
            runs: 0,
        }
    }
}

/// Listless navigator: no materialized representation beyond the
/// filetype's compiled run program, cached on the datatype.
pub(crate) struct FfNav {
    pub view: FileView,
}

impl FfNav {
    pub fn new(view: FileView) -> FfNav {
        FfNav { view }
    }

    /// Place up to `n` bytes of `src`'s stream, from view-stream position
    /// `stream0` on, into `piece`: a window, or one of the pieces (this
    /// one starting at `lo`) that the storage lends of one; `seen` is that
    /// window's tally for the profiler. The filetype's program runs over
    /// the piece, whose byte 0 sits at typemap displacement `lo − disp`,
    /// and stops where the piece or the bytes end; its other side is the
    /// stream as `src` holds it — contiguous bytes (unpack), or a typed
    /// user buffer under its own program (transfer); `store` as for
    /// [`ViewNav::place_into_window`].
    #[allow(clippy::too_many_arguments)]
    pub fn place_piece(
        &self,
        src: &UserSide<&[u8]>,
        stream0: u64,
        n: usize,
        piece: &mut [u8],
        lo: u64,
        seen: &mut RunTally,
        store: Store,
    ) -> usize {
        debug_assert_eq!(src.buf_at, 0, "a write's end is a whole buffer");
        let buf_disp = lo as i64 - self.view.disp as i64;
        let skip = stream0 - src.stream_start;
        let prog = self.view.filetype.program();
        let moved = match src.packer {
            MemPacker::Contig { base } => {
                let data = &src.user[base + skip as usize..][..n];
                prog.unpack_into(data, piece, buf_disp, u64::MAX, stream0, store)
            }
            MemPacker::Ff { memtype, count } => {
                let from = memtype.program();
                let (user, count) = (src.user, *count);
                prog.transfer_into(
                    piece,
                    buf_disp,
                    u64::MAX,
                    stream0,
                    from,
                    user,
                    count,
                    skip,
                    n,
                    store,
                )
            }
            MemPacker::List { .. } => unreachable!("a flattened memtype meets a listless view"),
        };
        self.profile_piece(seen, moved, lo, piece.len())
    }

    /// [`FfNav::place_piece`] the other way: up to `n` stream bytes out of
    /// `piece` into `dst` — a whole buffer, or the piece of one that holds
    /// those bytes (`dst.buf_at` offsets it as `lo` offsets the window).
    pub fn extract_piece(
        &self,
        piece: &[u8],
        lo: u64,
        stream0: u64,
        n: usize,
        dst: &mut UserSide<&mut [u8]>,
        seen: &mut RunTally,
    ) -> usize {
        let buf_disp = lo as i64 - self.view.disp as i64;
        let skip = stream0 - dst.stream_start;
        let prog = self.view.filetype.program();
        let moved = match dst.packer {
            MemPacker::Contig { base } => {
                let out = &mut dst.user[base + skip as usize - dst.buf_at..][..n];
                prog.pack_into(piece, buf_disp, u64::MAX, stream0, out)
            }
            MemPacker::Ff { memtype, count } => {
                let to = memtype.program();
                let (user, at, count) = (&mut *dst.user, dst.buf_at, *count);
                prog.transfer_out_of(
                    piece,
                    buf_disp,
                    u64::MAX,
                    stream0,
                    to,
                    user,
                    at,
                    count,
                    skip,
                    n,
                )
            }
            MemPacker::List { .. } => unreachable!("a flattened memtype meets a listless view"),
        };
        self.profile_piece(seen, moved, lo, piece.len())
    }

    /// Tally the `(bytes, runs)` the program moved in the piece
    /// `[lo, lo + len)` and, with the piece that reaches the window's end,
    /// tell the profiler of the whole window — once, however many pieces
    /// the storage cut it into, and without counting a run twice because
    /// a piece boundary fell inside it. Returns the bytes.
    fn profile_piece(
        &self,
        seen: &mut RunTally,
        (bytes, runs): (usize, u64),
        lo: u64,
        len: usize,
    ) -> usize {
        if lio_obs::profile::enabled() {
            // both sides of the boundary hold data of this access: one run
            let cut = seen.bytes > 0 && bytes > 0 && self.bytes_in(lo - 1, lo + 1) == 2;
            seen.bytes += bytes;
            seen.runs += runs - cut as u64;
            if lo + len as u64 >= seen.win_end {
                self.profile_runs(seen.bytes, seen.runs);
            }
        }
        bytes
    }

    /// Feed the access-pattern profiler from what the program reports.
    /// It never materializes runs, so they are accounted for as a batch:
    /// one run for a contiguous view, whatever its instance size;
    /// otherwise `runs` runs of the mean length, spaced by the filetype's
    /// density (exact for a filetype that is one strided frame).
    fn profile_runs(&self, bytes: usize, runs: u64) {
        if runs == 0 {
            return;
        }
        if self.view.is_contiguous() {
            lio_obs::profile::record_run(bytes as u64, 0, true);
            return;
        }
        let ft = &self.view.filetype;
        let block = (bytes as u64).div_ceil(runs);
        let stride = (block as u128 * ft.extent() as u128 / ft.size() as u128) as u64;
        lio_obs::profile::record_strided(block, stride, runs);
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

    /// Stream bytes with absolute offsets in `[lo, hi)`.
    pub fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        self.abs_to_stream(hi)
            .saturating_sub(self.abs_to_stream(lo))
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
        let seen = &mut RunTally::until(u64::MAX);
        nav.place_into_window(&src, stream0, data.len(), filebuf, at, seen, Store::Stream)
    }

    /// Extract into `out`, the stream from position `stream0` on.
    fn extract(nav: &ViewNav, filebuf: &[u8], at: u64, stream0: u64, out: &mut [u8]) -> usize {
        let n = out.len();
        let mut dst = UserSide::new(&STREAM, out, stream0);
        let seen = &mut RunTally::until(u64::MAX);
        nav.extract_from_window(filebuf, at, stream0, n, &mut dst, seen)
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
    fn contiguous_detection() {
        assert!(FileView::bytes().is_contiguous());
        let dense = FileView::new(
            8,
            Datatype::double(),
            Datatype::contiguous(4, &Datatype::double()).unwrap(),
        )
        .unwrap();
        assert!(dense.is_contiguous());
        assert!(!sample_view(0).is_contiguous());
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
                        for lo in (0..file_len).step_by(w) {
                            let hi = (lo + w).min(file_len);
                            let s0 = nav.abs_to_stream(lo as u64);
                            let want = nav.bytes_in(lo as u64, hi as u64) as usize;
                            let rest = total - s0 as usize;
                            let seen = &mut RunTally::until(hi as u64);
                            let src = UserSide::new(packer, user.as_slice(), 0);
                            let piece = &mut file[lo..hi];
                            let store = [Store::Cached, Store::Stream][lo % 2];
                            let placed = nav
                                .place_into_window(&src, s0, rest, piece, lo as u64, seen, store);
                            assert_eq!(placed, want, "place {ctx} lo={lo}");
                            let mut dst = UserSide::new(packer, out.as_mut_slice(), 0);
                            let piece = &image[lo..hi];
                            let got =
                                nav.extract_from_window(piece, lo as u64, s0, rest, &mut dst, seen);
                            assert_eq!(got, want, "extract {ctx} lo={lo}");
                        }
                        assert_eq!(file, image, "{ctx}");
                        assert_eq!(out, *user, "{ctx}");
                    }
                }
            }
        }
    }

    /// The access list spelled out: every run of the view's instances
    /// from the interval's first byte on, the first and last cut to it.
    fn walked_access_list(nav: &ListNav, s_lo: u64, s_hi: u64) -> Vec<u8> {
        let (disp, ext, segs) = (nav.view.disp, nav.fext(), &nav.list.segs);
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
