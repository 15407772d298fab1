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
//! * **copy time** — [`OlList::pack`]/[`OlList::unpack`] read one tuple per
//!   copied block.
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

use crate::kernels::{claim_ahead, Store, Stores, CLAIM_RUNS};
use crate::typemap::Run;
use crate::types::Datatype;
use lio_obs::LazyCounter;

static OBS_FLATTEN_CALLS: LazyCounter = LazyCounter::new("dt.flatten.calls");
static OBS_FLATTEN_ENTRIES: LazyCounter = LazyCounter::new("dt.flatten.entries");
static OBS_FLATTEN_BYTES: LazyCounter = LazyCounter::new("dt.flatten.bytes");
static OBS_MERGE_TUPLES: LazyCounter = LazyCounter::new("dt.merge.tuples");

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

/// A forward-only cursor over the data stream of an [`OlList`]: the
/// list-based engine's way through a typed buffer, one tuple read per
/// block, whether the other end of the copy is a pack buffer
/// ([`OlList::pack`]) or the runs of a second list walked side by side.
#[derive(Debug, Clone)]
pub struct OlCursor<'a> {
    /// The list from the current block on.
    segs: &'a [OlSeg],
    /// Buffer offset of the next data byte.
    at: i64,
}

impl OlCursor<'_> {
    /// The buffer range of the next run of the stream, cut to `want`
    /// bytes; the cursor moves past it. Empty past the end of the list.
    #[inline]
    fn next_run(&mut self, want: usize) -> std::ops::Range<usize> {
        let Some((seg, rest)) = self.segs.split_first() else {
            return 0..0;
        };
        let seg_end = seg.offset + seg.len as i64;
        let end = seg_end.min(self.at.saturating_add(want as i64));
        let run = self.at as usize..end as usize;
        if end == seg_end {
            self.segs = rest;
            self.at = rest.first().map_or(seg_end, |s| s.offset);
        } else {
            self.at = end;
        }
        run
    }

    /// Hand `mv` the next `n` stream bytes run by run, as `(stream bytes
    /// before the run, its buffer range)`; returns the bytes handed out,
    /// fewer than `n` only where the list ends.
    #[inline]
    fn each_run(&mut self, n: usize, mut mv: impl FnMut(usize, std::ops::Range<usize>)) -> usize {
        let mut done = 0;
        while done < n {
            let run = self.next_run(n - done);
            if run.is_empty() {
                break;
            }
            let len = run.len();
            mv(done, run);
            done += len;
        }
        done
    }

    /// Copy the next `out.len()` stream bytes out of the typed buffer
    /// `src`, each run of them stored into `out` as `stores` says; returns
    /// the bytes copied, fewer only where the list ends.
    #[inline]
    pub fn read(&mut self, src: &[u8], out: &mut [u8], stores: &mut Stores) -> usize {
        if stores.streams(out.len()) {
            return self.read_streaming(src, out, stores);
        }
        self.each_run(out.len(), |done, run| {
            out[done..done + run.len()].copy_from_slice(&src[run]);
        })
    }

    /// [`OlCursor::read`] into bytes long enough to hold a run that
    /// streams, out of line as [`OlCursor::write_claiming`] is.
    #[inline(never)]
    fn read_streaming(&mut self, src: &[u8], out: &mut [u8], stores: &mut Stores) -> usize {
        self.each_run(out.len(), |done, run| {
            stores.copy(&mut out[done..done + run.len()], &src[run]);
        })
    }

    /// Copy `data` to where the next `data.len()` stream bytes lie in the
    /// typed buffer `dst`, claiming the lines after each run first
    /// ([`claim_ahead`]); returns the bytes copied, as [`OlCursor::read`].
    #[inline]
    pub fn write(&mut self, data: &[u8], dst: &mut [u8]) -> usize {
        if data.len() >= *CLAIM_RUNS.start() {
            return self.write_claiming(data, dst);
        }
        self.each_run(data.len(), |done, run| {
            let len = run.len();
            dst[run].copy_from_slice(&data[done..done + len]);
        })
    }

    /// [`OlCursor::write`] of data long enough to hold a run that claims,
    /// out of line: the loop of short writes stays as small as it was.
    #[inline(never)]
    fn write_claiming(&mut self, data: &[u8], dst: &mut [u8]) -> usize {
        self.each_run(data.len(), |done, run| {
            let len = run.len();
            claim_ahead(dst, run.clone());
            dst[run].copy_from_slice(&data[done..done + len]);
        })
    }
}

impl OlList {
    /// Explicitly flatten `count` instances of `d` — the `O(Nblock)`
    /// operation ROMIO performs when a fileview is first established. The
    /// type's compiled [`crate::RunProgram`] is expanded, each strided
    /// frame's tuples in one loop, into a list reserved once from the
    /// program's block count; adjacent runs are merged, as ROMIO's
    /// flattening does.
    pub fn flatten(d: &Datatype, count: u64) -> OlList {
        let prog = d.program();
        let mut segs: Vec<OlSeg> = Vec::new();
        // merging only shortens the list, so the count is an upper bound;
        // one too large to allocate leaves the list to grow as it fills
        let blocks = prog.blocks().saturating_mul(count);
        let _ = segs.try_reserve_exact(usize::try_from(blocks).unwrap_or(usize::MAX));
        prog.expand(count, &mut |disp, len| push_merged(&mut segs, disp, len));
        let list = OlList { segs };
        if lio_obs::enabled() {
            OBS_FLATTEN_CALLS.incr();
            OBS_FLATTEN_ENTRIES.add(list.segs.len() as u64);
            OBS_FLATTEN_BYTES.add(list.memory_bytes() as u64);
        }
        list
    }

    /// Build directly from runs, dropping empty ones and merging the rest
    /// as [`OlList::flatten`] does.
    pub fn from_runs(runs: impl IntoIterator<Item = Run>) -> OlList {
        let mut segs: Vec<OlSeg> = Vec::new();
        for run in runs {
            if run.len > 0 {
                push_merged(&mut segs, run.disp, run.len);
            }
        }
        OlList { segs }
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
    pub fn cursor(&self, skipbytes: u64) -> OlCursor<'_> {
        let (seg, within) = match self.locate(skipbytes) {
            Some(p) => (p.seg, p.within as i64),
            None => (self.segs.len(), 0),
        };
        let segs = &self.segs[seg..];
        OlCursor {
            segs,
            at: segs.first().map_or(0, |s| s.offset + within),
        }
    }

    /// Pack typed data into `packbuf`, skipping the first `skipbytes` data
    /// bytes, copying at most `packbuf.len()` bytes: the list-based copy
    /// loop with its per-block tuple read. Returns bytes copied.
    pub fn pack(&self, src: &[u8], skipbytes: u64, packbuf: &mut [u8]) -> usize {
        let stores = &mut Stores::new(Store::Cached);
        let out = self.cursor(skipbytes).read(src, packbuf, stores);
        crate::ff::OBS_COPY_BYTES.add(out as u64);
        out
    }

    /// Unpack packed data into a typed buffer, skipping the first
    /// `skipbytes` data bytes. Returns bytes copied.
    pub fn unpack(&self, packbuf: &[u8], dst: &mut [u8], skipbytes: u64) -> usize {
        let consumed = self.cursor(skipbytes).write(packbuf, dst);
        crate::ff::OBS_COPY_BYTES.add(consumed as u64);
        consumed
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

/// Append the block `len` bytes at `offset`, folding it into the last
/// block when that one ends where it starts.
#[inline]
fn push_merged(segs: &mut Vec<OlSeg>, offset: i64, len: u64) {
    if let Some(last) = segs.last_mut() {
        if last.offset + last.len as i64 == offset {
            last.len += len;
            return;
        }
    }
    segs.push(OlSeg { offset, len });
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
            // pieces that cut blocks and span several
            let mut cur = l.cursor(skip as u64);
            let stores = &mut Stores::new(Store::Cached);
            let mut got = vec![0u8; full.len() - skip];
            let (head, tail) = got.split_at_mut(5.min(full.len() - skip));
            assert_eq!(cur.read(&src, head, stores), head.len());
            assert_eq!(cur.read(&src, tail, stores), tail.len());
            assert_eq!(got, full[skip..], "skip {skip}");
            // past the end of the list nothing moves, either way
            assert_eq!(cur.read(&src, &mut [0u8; 4], stores), 0);
            assert_eq!(cur.write(&[1u8; 4], &mut src.clone()), 0);
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
