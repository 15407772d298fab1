//! Flattening-on-the-fly: pack, unpack, and datatype navigation without
//! ol-lists.
//!
//! These functions mirror the internal MPI/SX interface described in
//! Sections 3.1–3.2 of the paper:
//!
//! * [`ff_pack`] / [`ff_unpack`] — `MPIR_ff_pack` / `MPIR_ff_unpack`:
//!   move data between a typed (possibly non-contiguous) buffer and a
//!   contiguous pack buffer, starting after `skipbytes` bytes of data and
//!   copying at most the pack buffer's length. Cost is proportional to the
//!   bytes moved plus `O(depth)` for the initial seek — independent of the
//!   datatype's block count and of `skipbytes`.
//! * [`ff_offset`], [`ff_size`], [`ff_extent`] — `MPIR_Type_ff_size` /
//!   `MPIR_Type_ff_extent` (Figure 2): convert between "bytes of data" and
//!   "extent spanned" in `O(depth · log k)`, replacing the list-based
//!   linear traversal for file-pointer positioning. They navigate the
//!   type's compiled run program ([`crate::RunProgram::offset_of`],
//!   [`crate::RunProgram::bytes_below`]), the program every copy runs, so
//!   one interpreter serves copies and navigation.
//!
//! Navigation functions treat the datatype as tiling an unbounded buffer
//! (instance `i` at displacement `i · extent`), which is exactly how a
//! fileview tiles a file. They require a *monotone* type
//! ([`Datatype::is_monotone`]), the MPI-IO restriction on etypes and
//! filetypes; this is debug-asserted.

use lio_obs::{LazyCounter, LazyHistogram};

use crate::kernels::Store;
use crate::types::Datatype;

/// Copy-engine metrics. Blocks-copied and the contiguous-run-length
/// distribution quantify the paper's Section 2.1 copy overhead: small
/// runs mean the pack loop is bookkeeping-bound, large runs mean it runs
/// at memcpy speed.
/// Typed packs: these functions', and a list-based pack's in `lio-core`.
pub static OBS_PACK_CALLS: LazyCounter = LazyCounter::new("dt.pack.calls");
static OBS_PACK_BLOCKS: LazyCounter = LazyCounter::new("dt.pack.blocks");
static OBS_PACK_BYTES: LazyCounter = LazyCounter::new("dt.pack.bytes");
/// Typed unpacks, counted as [`OBS_PACK_CALLS`] is.
pub static OBS_UNPACK_CALLS: LazyCounter = LazyCounter::new("dt.unpack.calls");
static OBS_UNPACK_BLOCKS: LazyCounter = LazyCounter::new("dt.unpack.blocks");
static OBS_UNPACK_BYTES: LazyCounter = LazyCounter::new("dt.unpack.bytes");
pub(crate) static OBS_RUN_LEN: LazyHistogram = LazyHistogram::new("dt.run.len");
/// Every byte a copy loop of the library moves: the run-program executor
/// under pack, unpack, window placement and transfer, the ol-list loops of
/// [`crate::OlList`], and the list-based engine's walks in `lio-core`,
/// which feed it too. Divided by the user bytes of an access it is the
/// library's column of the byte-move table (DESIGN.md §3.4).
pub static OBS_COPY_BYTES: LazyCounter = LazyCounter::new("dt.copy.bytes");

/// Byte position, within the tiled layout of `d`, where the data byte with
/// index `databytes` lives (0-based). `databytes` may be any multiple of or
/// position within instances; `databytes == k · size` returns the first
/// data byte of instance `k`.
///
/// This is the primitive from which `ff_size` and `ff_extent` are built:
/// [`crate::RunProgram::offset_of`] on the type's compiled program, whose
/// instance frame is entered as any other frame, `O(depth)`.
pub fn ff_offset(d: &Datatype, databytes: u64) -> i64 {
    debug_assert!(d.is_monotone(), "navigation requires a monotone type");
    d.compiled().offset_of(databytes)
}

/// The number of data bytes contained in a window of `extent` bytes
/// starting at the position of data byte `skipbytes` — the paper's
/// `MPIR_Type_ff_size(dtype, skipbytes, extent)`.
pub fn ff_size(d: &Datatype, skipbytes: u64, extent: u64) -> u64 {
    let lo = ff_offset(d, skipbytes);
    bytes_below_tiled(d, lo + extent as i64) - skipbytes
}

/// The extent spanned when `size` bytes of data are unpacked after first
/// skipping `skipbytes` bytes — the paper's
/// `MPIR_Type_ff_extent(dtype, skipbytes, size)`.
///
/// The returned extent runs from the position of data byte `skipbytes` to
/// the position of data byte `skipbytes + size` (the start of the *next*
/// byte), which is the quantity needed for the virtual-file-buffer
/// adjustment of Section 3.2.2.
pub fn ff_extent(d: &Datatype, skipbytes: u64, size: u64) -> u64 {
    (ff_offset(d, skipbytes + size) - ff_offset(d, skipbytes)) as u64
}

/// Count the data bytes of the tiled layout of `d` with positions in
/// `[0, x)`. The inverse of [`ff_offset`]:
/// [`crate::RunProgram::bytes_below`], where the instances wholly below
/// `x` are one division of the instance frame.
///
/// Unlike [`ff_offset`], this does not require full monotonicity: it is
/// also correct for types whose *top-level* fields interleave (such as the
/// mergeview of Section 3.2.3, a struct overlaying the disjoint filetypes
/// of all ranks), as long as each instance's data fits within one extent
/// and data positions do not self-overlap.
pub fn bytes_below_tiled(d: &Datatype, x: i64) -> u64 {
    debug_assert!(
        d.data_ub() - d.data_lb() <= d.extent() as i64 && d.data_lb() >= 0,
        "tiled counting requires instance-confined, non-negative data"
    );
    d.compiled().bytes_below(x)
}

/// Pack non-contiguous data from the typed buffer `src` into the
/// contiguous `packbuf`, skipping the first `skipbytes` data bytes of the
/// `count`-instance buffer. Copies at most `packbuf.len()` bytes and
/// returns the number of bytes copied — the paper's `MPIR_ff_pack`.
///
/// `src[i]` holds the byte at typemap displacement `i`; use [`ff_pack_at`]
/// when the slice is a window at a nonzero displacement.
pub fn ff_pack(src: &[u8], count: u64, d: &Datatype, skipbytes: u64, packbuf: &mut [u8]) -> usize {
    ff_pack_at(src, 0, count, d, skipbytes, packbuf)
}

/// Like [`ff_pack`], but `src[0]` corresponds to typemap displacement
/// `buf_disp` — the "virtual buffer" adjustment of Section 3.2.2 that lets
/// a small window buffer stand in for the full typed extent.
pub fn ff_pack_at(
    src: &[u8],
    buf_disp: i64,
    count: u64,
    d: &Datatype,
    skipbytes: u64,
    packbuf: &mut [u8],
) -> usize {
    let (n, runs) = d
        .program()
        .pack_into(src, buf_disp, count, skipbytes, packbuf);
    if lio_obs::enabled() {
        OBS_PACK_CALLS.incr();
        OBS_PACK_BLOCKS.add(runs);
        OBS_PACK_BYTES.add(n as u64);
    }
    n
}

/// Unpack contiguous data from `packbuf` into the typed buffer `dst`,
/// skipping the first `skipbytes` data bytes. Copies at most
/// `packbuf.len()` bytes and returns the number copied — the paper's
/// `MPIR_ff_unpack`.
pub fn ff_unpack(
    packbuf: &[u8],
    dst: &mut [u8],
    count: u64,
    d: &Datatype,
    skipbytes: u64,
) -> usize {
    ff_unpack_at(packbuf, dst, 0, count, d, skipbytes)
}

/// Like [`ff_unpack`], but `dst[0]` corresponds to typemap displacement
/// `buf_disp` (the virtual-buffer adjustment).
pub fn ff_unpack_at(
    packbuf: &[u8],
    dst: &mut [u8],
    buf_disp: i64,
    count: u64,
    d: &Datatype,
    skipbytes: u64,
) -> usize {
    let (n, runs) =
        d.program()
            .unpack_into(packbuf, dst, buf_disp, count, skipbytes, Store::Cached);
    if lio_obs::enabled() {
        OBS_UNPACK_CALLS.incr();
        OBS_UNPACK_BLOCKS.add(runs);
        OBS_UNPACK_BYTES.add(n as u64);
    }
    n
}

/// Move up to `n` data bytes from a typed user buffer straight into the
/// typed buffer `dst` — the typed-to-typed member of the family:
/// [`ff_unpack_at`] of what [`ff_pack`] would produce, without the pack
/// buffer and its second copy.
///
/// The source is `ucount` instances of `utype` over `user` (`user[0]` at
/// typemap displacement 0, which its data must not precede), read from
/// its data byte `uskip` on; the destination is as for [`ff_unpack_at`]:
/// `count` instances of `d`, `dst[0]` at typemap displacement `buf_disp`,
/// written from data byte `skipbytes` on. Stops where `n`, either stream
/// or the window `dst` ends; returns the bytes copied.
#[allow(clippy::too_many_arguments)]
pub fn ff_transfer_to(
    user: &[u8],
    ucount: u64,
    utype: &Datatype,
    uskip: u64,
    dst: &mut [u8],
    buf_disp: i64,
    count: u64,
    d: &Datatype,
    skipbytes: u64,
    n: usize,
) -> usize {
    let from = utype.program();
    let (moved, _) = d.program().transfer_into(
        dst,
        buf_disp,
        count,
        skipbytes,
        from,
        user,
        ucount,
        uskip,
        n,
        Store::Cached,
    );
    moved
}

/// The inverse of [`ff_transfer_to`]: move up to `n` data bytes of the
/// typed buffer `src` (as for [`ff_pack_at`]) straight into the typed
/// user buffer — [`ff_unpack`] of what [`ff_pack_at`] would produce.
#[allow(clippy::too_many_arguments)]
pub fn ff_transfer_from(
    src: &[u8],
    buf_disp: i64,
    count: u64,
    d: &Datatype,
    skipbytes: u64,
    user: &mut [u8],
    ucount: u64,
    utype: &Datatype,
    uskip: u64,
    n: usize,
) -> usize {
    let to = utype.program();
    let (moved, _) = d.program().transfer_out_of(
        src, buf_disp, count, skipbytes, to, user, 0, ucount, uskip, n,
    );
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typemap::{expand, reference_pack};
    use crate::types::{Field, Order};

    fn vec_type() -> Datatype {
        Datatype::vector(3, 2, 4, &Datatype::int()).unwrap()
    }

    #[test]
    fn offset_of_each_byte_matches_typemap() {
        let d = vec_type();
        // enumerate the position of every data byte from the typemap
        let mut positions = Vec::new();
        for r in expand(&d, 2) {
            for k in 0..r.len {
                positions.push(r.disp + k as i64);
            }
        }
        for (n, &p) in positions.iter().enumerate() {
            assert_eq!(ff_offset(&d, n as u64), p, "byte {n}");
        }
        // one past the end of instance 0 = first byte of instance 2
        assert_eq!(
            ff_offset(&d, d.size() * 2),
            2 * d.extent() as i64 + positions[0]
        );
    }

    #[test]
    fn bytes_below_is_inverse_of_offset() {
        let d = vec_type();
        for n in 0..(d.size() * 3) {
            let p = ff_offset(&d, n);
            // all bytes before byte n have positions < p (monotone)
            assert_eq!(bytes_below_tiled(&d, p), n, "byte {n} at pos {p}");
            assert_eq!(bytes_below_tiled(&d, p + 1), n + 1);
        }
    }

    #[test]
    fn bytes_below_every_position() {
        let d = Datatype::indexed(&[2, 1, 3], &[0, 4, 8], &Datatype::int()).unwrap();
        // brute force against the typemap over 2 tiled instances; positions
        // beyond 2*extent would include instance-2 data (tiling is
        // unbounded), so stop there
        let ext = d.extent() as i64;
        let mut cover = vec![false; (ext * 2) as usize];
        for r in expand(&d, 2) {
            for k in 0..r.len {
                cover[(r.disp + k as i64) as usize] = true;
            }
        }
        let mut below = 0u64;
        for x in 0..=cover.len() {
            assert_eq!(bytes_below_tiled(&d, x as i64), below, "position {x}");
            if x < cover.len() && cover[x] {
                below += 1;
            }
        }
    }

    #[test]
    fn ff_size_window() {
        // vector(3,2,4) of int: 8-byte data blocks at 0, 16, 32; extent 40
        let d = vec_type();
        assert_eq!(ff_size(&d, 0, 40), 24);
        assert_eq!(ff_size(&d, 0, 8), 8);
        assert_eq!(ff_size(&d, 0, 16), 8); // block 0 + gap
        assert_eq!(ff_size(&d, 0, 17), 9);
        assert_eq!(ff_size(&d, 8, 16), 8); // starts at block 1
                                           // skip 4: start mid-block-0 at position 4
        assert_eq!(ff_size(&d, 4, 4), 4);
        assert_eq!(ff_size(&d, 4, 13), 5);
    }

    #[test]
    fn ff_extent_spans() {
        let d = vec_type();
        // first 8 bytes are block 0; the 9th byte is at 16
        assert_eq!(ff_extent(&d, 0, 8), 16);
        assert_eq!(ff_extent(&d, 0, 24), 40); // a full instance
        assert_eq!(ff_extent(&d, 0, 4), 4);
        assert_eq!(ff_extent(&d, 4, 8), 16 - 4 + 4);
        // spanning instances: 24 bytes from byte 12
        assert_eq!(
            ff_extent(&d, 12, 24),
            (ff_offset(&d, 36) - ff_offset(&d, 12)) as u64
        );
    }

    #[test]
    fn ff_size_extent_are_inverse() {
        let d =
            Datatype::subarray(&[6, 8], &[3, 4], &[2, 1], Order::C, &Datatype::double()).unwrap();
        for skip in (0..d.size() * 2).step_by(8) {
            for size in (8..=d.size()).step_by(16) {
                // data-byte positions are strictly increasing for monotone
                // types, so a window of extent ff_extent(size) holds
                // exactly `size` bytes
                let e = ff_extent(&d, skip, size);
                assert_eq!(ff_size(&d, skip, e), size, "skip={skip} size={size}");
            }
            for extent in (0..d.extent() * 2).step_by(24) {
                // and the extent spanned by what a window holds ends at or
                // past the window's end (the next byte lies outside)
                let s = ff_size(&d, skip, extent);
                assert!(ff_extent(&d, skip, s) >= extent || s == 0);
            }
        }
    }

    #[test]
    fn pack_matches_reference_full() {
        let d = Datatype::subarray(&[5, 7], &[3, 4], &[1, 2], Order::C, &Datatype::int()).unwrap();
        let src: Vec<u8> = (0..(d.extent() * 2) as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        let want = reference_pack(&src, &d, 2);
        let mut got = vec![0u8; want.len()];
        let n = ff_pack(&src, 2, &d, 0, &mut got);
        assert_eq!(n, want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn pack_every_skip_and_cap() {
        let d = Datatype::vector(3, 2, 4, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..(d.extent() * 2) as u8).collect();
        let full = reference_pack(&src, &d, 2);
        let total = d.size() * 2;
        for skip in 0..total {
            for cap in [0, 1, 2, 5, total - skip] {
                let mut buf = vec![0u8; cap as usize];
                let n = ff_pack(&src, 2, &d, skip, &mut buf);
                assert_eq!(n as u64, cap.min(total - skip));
                assert_eq!(
                    &buf[..n],
                    &full[skip as usize..skip as usize + n],
                    "skip={skip} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn unpack_reassembles() {
        let d = Datatype::indexed(&[1, 3, 2], &[0, 3, 9], &Datatype::int()).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8).collect();
        let packed = reference_pack(&src, &d, 1);
        let mut dst = vec![0u8; d.extent() as usize];
        let n = ff_unpack(&packed, &mut dst, 1, &d, 0);
        assert_eq!(n as u64, d.size());
        for r in expand(&d, 1) {
            let o = r.disp as usize;
            assert_eq!(&dst[o..o + r.len as usize], &src[o..o + r.len as usize]);
        }
    }

    #[test]
    fn unpack_in_chunks_equals_unpack_whole() {
        let d = Datatype::vector(5, 3, 5, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..d.extent() as u8).collect();
        let packed = reference_pack(&src, &d, 1);
        let mut whole = vec![0u8; d.extent() as usize];
        ff_unpack(&packed, &mut whole, 1, &d, 0);
        // unpack in chunks of 7 bytes using skipbytes, as the sieving loop
        // of the listless engine does
        let mut chunked = vec![0u8; d.extent() as usize];
        let mut skip = 0u64;
        while skip < d.size() {
            let n = (d.size() - skip).min(7) as usize;
            let m = ff_unpack(
                &packed[skip as usize..skip as usize + n],
                &mut chunked,
                1,
                &d,
                skip,
            );
            assert_eq!(m, n);
            skip += n as u64;
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn pack_at_virtual_window() {
        // pack from a window that only covers part of the extent
        // blocks of 4 bytes at 0, 8, 16, 24; extent 28
        let d = Datatype::vector(4, 1, 2, &Datatype::int()).unwrap();
        let full: Vec<u8> = (0..d.extent() as u8).collect();
        // window covering positions 16..28 (blocks 2 and 3)
        let window = full[16..28].to_vec();
        let mut buf = vec![0u8; 8];
        // blocks 2,3 are data bytes 8..16
        let n = ff_pack_at(&window, 16, 1, &d, 8, &mut buf);
        assert_eq!(n, 8);
        assert_eq!(&buf[..4], &full[16..20]);
        assert_eq!(&buf[4..], &full[24..28]);
    }

    #[test]
    fn struct_with_markers_navigation() {
        // Figure 4-style type: LB at 0, data at disp 8, UB at 48
        let v = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 8,
                count: 1,
                child: v,
            },
            Field {
                disp: 48,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        assert_eq!(d.extent(), 48);
        assert_eq!(ff_offset(&d, 0), 8);
        assert_eq!(ff_offset(&d, 8), 24); // second block of the vector
        assert_eq!(ff_offset(&d, 16), 48 + 8); // next instance
        assert_eq!(ff_size(&d, 0, 48), 16);
        assert_eq!(bytes_below_tiled(&d, 48), 16);
    }

    #[test]
    fn navigation_scales_with_depth_not_blocks() {
        // a vector with a million blocks: navigation must still be instant
        // (this is a correctness test; the bench suite quantifies it)
        let d = Datatype::vector(1_000_000, 1, 2, &Datatype::double()).unwrap();
        assert_eq!(ff_offset(&d, 0), 0);
        assert_eq!(ff_offset(&d, 8 * 999_999), 16 * 999_999);
        assert_eq!(ff_size(&d, 0, d.extent()), d.size());
        assert_eq!(bytes_below_tiled(&d, 16 * 500_000), 8 * 500_000);
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn navigate_empty_type_panics() {
        let d = Datatype::contiguous(0, &Datatype::int()).unwrap();
        ff_offset(&d, 0);
    }
}
