//! Canonical strided decomposition and the frame executor — the
//! flattening-on-the-fly copy batching.
//!
//! The defining trick of flattening-on-the-fly (paper Section 3.1) is to
//! "identify and copy large chunks of evenly spaced, non-contiguous data"
//! and perform the actual copying "in a non-recursive loop" *outside* the
//! datatype traversal. On the SX that feeds hardware gather/scatter; on a
//! scalar machine (the companion paper's setting) it becomes a tight
//! loop with precomputed base/stride/blocklen — no per-run tree walking,
//! no per-run representation reads, and no per-block arithmetic beyond
//! two pointer bumps.
//!
//! [`StridedSpec`] is that canonical form: a datatype whose single
//! instance is `count` dense blocks of `block` bytes, block `j` starting
//! at byte `base + j·stride`. Most datatypes used for fileviews in
//! practice (vectors, subarray rows, the Figure 4 struct) reduce to it.
//!
//! [`StridedSpec::copy_instance`] is the one loop that walks such a
//! frame. Its only caller is the compiled run program
//! ([`crate::program`]), whose `Blocks` frames are exactly these specs: a
//! type whose instance compiles to one ([`Datatype::as_strided`]) is a
//! program of a single frame below its instance frame. Where its
//! divisions live: one on entry, to turn the data offset into (block
//! index, offset within the block); one per run of whole blocks, only
//! when the caller's window cuts the run short; none per block. A run of
//! whole blocks is copied by [`strided_copy`], the safe fixed-width loop
//! that every pack, unpack, placement and extraction shares.

use crate::kernels::Stores;

/// A datatype instance as evenly spaced dense blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedSpec {
    /// Byte offset of block 0 relative to the instance origin.
    pub base: i64,
    /// Byte distance between consecutive block starts.
    pub stride: i64,
    /// Bytes per block.
    pub block: u64,
    /// Number of blocks per instance.
    pub count: u64,
}

impl StridedSpec {
    /// Total data bytes per instance.
    #[inline]
    pub fn size(&self) -> u64 {
        self.block * self.count
    }
}

/// The two sides of a frame copy: a window onto the typed layout and the
/// stream its data bytes form. For [`Gather`] (pack, extract) and
/// [`Scatter`] (unpack, place) the stream is a contiguous pack buffer; for
/// a [`crate::transfer::Transfer`] it is a second typed buffer, walked by a
/// cursor. The executor consumes the stream front to back: each call's `c`
/// is where the one before it ended.
pub(crate) trait Xfer {
    /// `(window, stream)` lengths.
    fn lens(&self) -> (usize, usize);
    /// Move `n` bytes between window position `t` and stream position `c`.
    fn copy(&mut self, t: usize, c: usize, n: usize);
    /// Move `n > 0` whole blocks of `block` bytes, `stride` apart from
    /// window position `t` and dense from stream position `c`. Panics
    /// unless every block lies inside both sides.
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize);
}

pub(crate) struct Gather<'a> {
    pub typed: &'a [u8],
    pub contig: &'a mut [u8],
}

impl Xfer for Gather<'_> {
    fn lens(&self) -> (usize, usize) {
        (self.typed.len(), self.contig.len())
    }

    #[inline]
    fn copy(&mut self, t: usize, c: usize, n: usize) {
        self.contig[c..c + n].copy_from_slice(&self.typed[t..t + n]);
    }

    #[inline]
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize) {
        strided_copy(
            &self.typed[t..],
            stride,
            &mut self.contig[c..],
            block,
            block,
            n,
        );
    }
}

pub(crate) struct Scatter<'a> {
    pub contig: &'a [u8],
    pub typed: &'a mut [u8],
    /// How the runs are stored into `typed`: streamed where it is a window
    /// the storage lent.
    pub stores: Stores,
}

impl Xfer for Scatter<'_> {
    fn lens(&self) -> (usize, usize) {
        (self.typed.len(), self.contig.len())
    }

    #[inline]
    fn copy(&mut self, t: usize, c: usize, n: usize) {
        self.stores
            .copy(&mut self.typed[t..t + n], &self.contig[c..c + n]);
    }

    /// Blocks long enough to stream are stored one at a time, each
    /// streaming its whole lines, as a transfer's placement stores them.
    #[inline]
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize) {
        if !self.stores.streams(block) {
            strided_copy(
                &self.contig[c..],
                block,
                &mut self.typed[t..],
                stride,
                block,
                n,
            );
            return;
        }
        for k in 0..n {
            self.copy(t + k * stride, c + k * block, block);
        }
    }
}

/// Copy `n` blocks of `block` bytes, block `i` from `src[i·ss..]` to
/// `dst[i·ds..]` — the one block-copy loop under every pack, unpack,
/// placement and extraction. Blocks of 1–32 B, a power of two, that lie
/// apart on both sides take [`zip_fixed`]; overlapping blocks go one after
/// the other, as a `copy_from_slice` each would.
#[inline]
pub(crate) fn strided_copy(
    src: &[u8],
    ss: usize,
    dst: &mut [u8],
    ds: usize,
    block: usize,
    n: usize,
) {
    if n == 1 {
        dst[..block].copy_from_slice(&src[..block]);
        return;
    }
    let zip = n > 1 && ss >= block && ds >= block;
    match block {
        1 if zip => zip_fixed::<1>(src, ss, dst, ds, n),
        2 if zip => zip_fixed::<2>(src, ss, dst, ds, n),
        4 if zip => zip_fixed::<4>(src, ss, dst, ds, n),
        8 if zip => zip_fixed::<8>(src, ss, dst, ds, n),
        16 if zip => zip_fixed::<16>(src, ss, dst, ds, n),
        32 if zip => zip_fixed::<32>(src, ss, dst, ds, n),
        _ => {
            for i in 0..n {
                dst[i * ds..][..block].copy_from_slice(&src[i * ss..][..block]);
            }
        }
    }
}

/// [`strided_copy`] of `n > 1` blocks whose size is a compile-time
/// constant, so that a block is a load and a store rather than a `memcpy`
/// call. All but the last block have a whole stride after them on both
/// sides: they zip as exact chunks.
fn zip_fixed<const B: usize>(src: &[u8], ss: usize, dst: &mut [u8], ds: usize, n: usize) {
    assert!(ss >= B && ds >= B);
    let head = n - 1;
    let pairs = dst[..head * ds]
        .chunks_exact_mut(ds)
        .zip(src[..head * ss].chunks_exact(ss));
    for (d, s) in pairs {
        d[..B].copy_from_slice(&s[..B]);
    }
    dst[head * ds..][..B].copy_from_slice(&src[head * ss..][..B]);
}

impl StridedSpec {
    /// The frame executor. Copies up to `todo` data bytes of the instance
    /// whose origin sits at window position `origin`, entering after
    /// `skip < size()` data bytes, to or from contiguous position `c`.
    /// Returns the bytes; fewer than `todo.min(size() - skip)` means the
    /// window ended first.
    ///
    /// `(block index, within)` is resolved once on entry. A positive
    /// stride then gets one *run*: the most whole blocks that fit both
    /// `todo` and the window — one division, and only when the window
    /// clips the run — moved by one [`Xfer::blocks`] call. The single-block
    /// step does the rest: a partial head or tail block, the block the
    /// window cuts, and every block of a non-positive stride.
    pub(crate) fn copy_instance<X: Xfer>(
        &self,
        x: &mut X,
        origin: i64,
        skip: u64,
        c: usize,
        todo: usize,
    ) -> usize {
        let block = self.block as usize;
        let wlen = x.lens().0 as i64;
        let (mut j, mut within) = if skip == 0 {
            (0, 0)
        } else {
            (skip / self.block, (skip % self.block) as usize)
        };
        let mut pos = origin + self.base + j as i64 * self.stride;
        let mut done = 0usize;
        let mut batch = self.stride > 0;
        while j < self.count && done < todo {
            if batch && within == 0 {
                batch = false;
                let mut n = (self.count - j).min(((todo - done) / block) as u64);
                if n == 0 || pos < 0 || pos + block as i64 > wlen {
                    continue;
                }
                let room = (wlen - block as i64 - pos) as u64;
                if (n - 1)
                    .checked_mul(self.stride as u64)
                    .is_none_or(|span| span > room)
                {
                    n = room / self.stride as u64 + 1;
                }
                let nblk = n as usize;
                x.blocks(pos as usize, self.stride as usize, c + done, block, nblk);
                j += n;
                pos += n as i64 * self.stride;
                done += nblk * block;
                continue;
            }
            let t = pos + within as i64;
            if t < 0 || t >= wlen {
                break; // window exhausted
            }
            let rest = block - within;
            let n = rest.min(todo - done).min((wlen - t) as usize);
            x.copy(t as usize, c + done, n);
            done += n;
            if n < rest {
                break; // the bytes or the window ended mid-block
            }
            within = 0;
            j += 1;
            pos += self.stride;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Datatype, Field, Order};

    #[test]
    fn basic_is_one_block() {
        let s = Datatype::double().as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 8,
                block: 8,
                count: 1
            }
        );
    }

    #[test]
    fn contiguous_merges() {
        let d = Datatype::contiguous(10, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(s.block, 40);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn vector_is_strided() {
        let d = Datatype::vector(8, 1, 2, &Datatype::double()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 16,
                block: 8,
                count: 8
            }
        );
    }

    #[test]
    fn vector_with_blocklen_merges_blocks() {
        let d = Datatype::vector(4, 3, 5, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 20,
                block: 12,
                count: 4
            }
        );
    }

    #[test]
    fn figure4_struct_is_strided() {
        // LB / vector / UB, as the noncontig benchmark builds it
        let v = Datatype::vector(16, 1, 4, &Datatype::basic(8)).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 0,
                count: 1,
                child: v,
            },
            Field {
                disp: 512,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 32,
                block: 8,
                count: 16
            }
        );
    }

    #[test]
    fn subarray_2d_reduces_rows() {
        // a 2D subarray: rows of 3 ints, row stride 6 ints
        let d = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], Order::C, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 32,
                stride: 24,
                block: 12,
                count: 2
            }
        );
    }

    #[test]
    fn subarray_3d_does_not_reduce() {
        // two-level strides cannot be expressed
        let d = Datatype::subarray(
            &[4, 4, 4],
            &[2, 2, 2],
            &[0, 0, 0],
            Order::C,
            &Datatype::int(),
        )
        .unwrap();
        assert!(d.as_strided().is_none());
    }

    #[test]
    fn full_subarray_is_dense() {
        let d = Datatype::subarray(&[4, 4], &[4, 4], &[0, 0], Order::C, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.block, 64);
    }

    #[test]
    fn indexed_strided_detection() {
        // evenly spaced equal blocks reduce (the indexed_block shape)
        let d = Datatype::indexed(&[2, 2, 2], &[0, 5, 10], &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 20,
                block: 8,
                count: 3
            }
        );
        // unevenly spaced blocks do not
        let odd = Datatype::indexed(&[1, 1, 1], &[0, 3, 5], &Datatype::int()).unwrap();
        assert!(odd.as_strided().is_none());
        // unequal block lengths do not
        let ragged = Datatype::indexed(&[1, 2], &[0, 3], &Datatype::int()).unwrap();
        assert!(ragged.as_strided().is_none());
        // a single block always does
        let single = Datatype::indexed(&[3], &[2], &Datatype::int()).unwrap();
        let s = single.as_strided().unwrap();
        assert_eq!(s.base, 8);
        assert_eq!(s.block, 12);
    }

    #[test]
    fn multi_field_struct_does_not_reduce() {
        let field = |disp| Field {
            disp,
            count: 1,
            child: Datatype::int(),
        };
        // fields at uneven steps stay a tail
        let d = Datatype::struct_type(vec![field(0), field(16), field(20)]).unwrap();
        assert!(d.as_strided().is_none());
        // equal fields at one step are one strided frame, as the program
        // folds them
        let d = Datatype::struct_type(vec![field(0), field(16)]).unwrap();
        let want = StridedSpec {
            base: 0,
            stride: 16,
            block: 4,
            count: 2,
        };
        assert_eq!(d.as_strided(), Some(want));
    }

    #[test]
    fn strided_matches_typemap() {
        use crate::typemap::{expand_merged, merge, Run};
        let cases = vec![
            Datatype::vector(8, 1, 2, &Datatype::double()).unwrap(),
            Datatype::vector(4, 3, 5, &Datatype::int()).unwrap(),
            Datatype::contiguous(7, &Datatype::basic(3)).unwrap(),
        ];
        for d in cases {
            let s = d.as_strided().unwrap();
            let ext = d.extent() as i64;
            let blocks = (0..2i64).flat_map(|inst| {
                (0..s.count as i64).map(move |j| Run {
                    disp: inst * ext + s.base + j * s.stride,
                    len: s.block,
                })
            });
            assert_eq!(merge(blocks.collect()), expand_merged(&d, 2), "{d:?}");
        }
    }

    #[test]
    fn strided_pack_roundtrip() {
        use crate::ff::{ff_pack_at, ff_unpack_at};
        use crate::typemap::reference_pack;
        let d = Datatype::vector(8, 1, 2, &Datatype::basic(4)).unwrap();
        assert!(d.as_strided().is_some());
        let src: Vec<u8> = (0..128).collect();
        let full = reference_pack(&src, &d, 2);
        for skip in [0u64, 1, 4, 17, 31] {
            let limit = d.size() * 2;
            let mut packed = vec![0u8; (limit - skip) as usize];
            let n = ff_pack_at(&src, 0, 2, &d, skip, &mut packed);
            assert_eq!(n as u64, limit - skip);
            assert_eq!(packed, &full[skip as usize..], "skip {skip}");

            // unpack back
            let mut dst = vec![0u8; 128];
            let k = ff_unpack_at(&packed, &mut dst, 0, 2, &d, skip);
            assert_eq!(k, n);
            assert_eq!(&reference_pack(&dst, &d, 2)[skip as usize..], &packed[..]);
        }
    }

    /// Every fixed-width class, each at the strides {dense, odd, twice the
    /// block, a cache line} and at counts around the zip's edges.
    fn grid() -> impl Iterator<Item = (usize, usize, usize)> {
        [1, 2, 4, 8, 16, 32].into_iter().flat_map(|b| {
            [b, b + 3, 2 * b, 64].into_iter().flat_map(move |stride| {
                [0, 1, 2, 3, 7, 8, 9, 31, 64].map(move |count| (b, stride, count))
            })
        })
    }

    /// The destination offsets from a 32-byte boundary that a block
    /// boundary can have.
    const PADS: [usize; 4] = [0, 8, 16, 24];

    #[test]
    fn gather_matches_reference_for_every_class() {
        for (b, stride, count) in grid() {
            let span = count.saturating_sub(1) * stride + b;
            let src: Vec<u8> = (0..span + 5).map(|i| (i % 251) as u8).collect();
            let mut want = vec![0u8; count * b];
            for j in 0..count {
                want[j * b..][..b].copy_from_slice(&src[j * stride..][..b]);
            }
            for pad in PADS {
                let mut got = vec![0u8; pad + count * b];
                strided_copy(&src, stride, &mut got[pad..], b, b, count);
                assert_eq!(
                    &got[pad..],
                    &want[..],
                    "gather class={b} stride={stride} count={count} pad={pad}"
                );
            }
        }
    }

    #[test]
    fn scatter_matches_reference_for_every_class() {
        for (b, stride, count) in grid() {
            let span = count.saturating_sub(1) * stride + b;
            let src: Vec<u8> = (0..count * b).map(|i| (i % 249) as u8).collect();
            for pad in PADS {
                let mut want = vec![0xEEu8; pad + span + 5];
                for j in 0..count {
                    want[pad + j * stride..][..b].copy_from_slice(&src[j * b..][..b]);
                }
                let mut got = vec![0xEEu8; pad + span + 5];
                strided_copy(&src, b, &mut got[pad..], stride, b, count);
                assert_eq!(
                    got, want,
                    "scatter class={b} stride={stride} count={count} pad={pad}"
                );
            }
        }
    }
}
