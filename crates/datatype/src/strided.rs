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
//! [`StridedSpec::copy_instance`] is the one loop that copies such a
//! frame. Its only caller is the compiled run program
//! ([`crate::program`]), whose `Blocks` frames are exactly these specs: a
//! whole type that reduces to one ([`Datatype::as_strided`], the
//! compile-time fold) is a program with a single root frame. Where its
//! divisions live: one on entry, to turn the data offset into (block
//! index, offset within the block); one per run of whole blocks, only
//! when the caller's window cuts the run short; none per block.

use crate::kernels::{self, Kind};
use crate::types::{Datatype, TypeKind};

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

    /// Fold `n` repetitions of this spec placed `step` bytes apart into a
    /// single spec, when the placement keeps blocks evenly spaced.
    fn tile(self, n: u64, step: i64) -> Option<StridedSpec> {
        if n == 0 || self.count == 0 {
            return None;
        }
        if n == 1 {
            return Some(self);
        }
        if self.count == 1 {
            // single block per repetition: blocks land at base + i*step
            if step == self.block as i64 {
                // dense: merge into one big block
                return Some(StridedSpec {
                    base: self.base,
                    stride: self.block as i64 * n as i64,
                    block: self.block * n,
                    count: 1,
                });
            }
            return Some(StridedSpec {
                base: self.base,
                stride: step,
                block: self.block,
                count: n,
            });
        }
        // multi-block repetitions stay evenly spaced only if the next
        // repetition continues the same arithmetic progression
        if step == self.stride * self.count as i64 {
            return Some(StridedSpec {
                base: self.base,
                stride: self.stride,
                block: self.block,
                count: self.count * n,
            });
        }
        None
    }

    /// Shift the whole spec by `disp` bytes.
    fn shifted(self, disp: i64) -> StridedSpec {
        StridedSpec {
            base: self.base + disp,
            ..self
        }
    }
}

impl Datatype {
    /// The canonical strided decomposition of one instance's data, if the
    /// type reduces to evenly spaced dense blocks.
    pub fn as_strided(&self) -> Option<StridedSpec> {
        if self.size() == 0 {
            return None;
        }
        match self.kind() {
            TypeKind::Basic { size } => Some(StridedSpec {
                base: 0,
                stride: *size as i64,
                block: *size as u64,
                count: 1,
            }),
            TypeKind::LbMark | TypeKind::UbMark => None,
            TypeKind::Contiguous { count, child } => {
                child.as_strided()?.tile(*count, child.extent() as i64)
            }
            TypeKind::Hvector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let inner = child.as_strided()?.tile(*blocklen, child.extent() as i64)?;
                inner.tile(*count, *stride)
            }
            TypeKind::Hindexed { blocks, child } => {
                // a single explicit block reduces directly; several blocks
                // reduce iff they are equal-length and evenly spaced (the
                // `indexed_block` shape with an arithmetic displacement
                // progression)
                let first = blocks.first()?;
                let inner = child
                    .as_strided()?
                    .tile(first.blocklen, child.extent() as i64)?
                    .shifted(first.disp);
                if blocks.len() == 1 {
                    return Some(inner);
                }
                let step = blocks.get(1)?.disp - first.disp;
                let even = blocks.iter().enumerate().all(|(i, b)| {
                    b.blocklen == first.blocklen && b.disp == first.disp + i as i64 * step
                });
                if !even {
                    return None;
                }
                inner.tile(blocks.len() as u64, step)
            }
            TypeKind::Struct { fields } => {
                // exactly one data-bearing field (markers are free)
                let mut data_field = None;
                for f in fields.iter() {
                    if f.child.size() > 0 && f.count > 0 {
                        if data_field.is_some() {
                            return None;
                        }
                        data_field = Some(f);
                    }
                }
                let f = data_field?;
                f.child
                    .as_strided()?
                    .tile(f.count, f.child.extent() as i64)
                    .map(|s| s.shifted(f.disp))
            }
            TypeKind::Resized { child, .. } => child.as_strided(),
        }
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
    /// Move `n` whole blocks of `block` bytes, `stride` apart from window
    /// position `t` and dense from stream position `c`, a `copy` each.
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize) {
        for k in 0..n {
            self.copy(t + k * stride, c + k * block, block);
        }
    }
    /// Move `n > 0` whole blocks of `class` bytes, `stride` apart from
    /// window position `t` and dense from stream position `c`, through
    /// the fixed-width kernel family `k`. Panics unless every block lies
    /// inside both sides.
    fn kernel(&mut self, k: Kind, class: u8, t: usize, stride: usize, c: usize, n: usize);
}

/// Whether `n > 0` blocks of `block` bytes, `stride` apart from `t`, lie
/// inside a window of `window` bytes and, dense from `c`, inside `contig`
/// bytes — the first and the last block bound every block — and `k` runs
/// on this CPU: what the raw kernels require of their caller.
fn kernel_fits(
    k: Kind,
    (window, contig): (usize, usize),
    block: usize,
    t: usize,
    stride: usize,
    c: usize,
    n: usize,
) -> bool {
    let end = |first: usize, step: usize| {
        (n.checked_sub(1)?.checked_mul(step)?)
            .checked_add(first)?
            .checked_add(block)
    };
    end(t, stride).is_some_and(|e| e <= window)
        && end(c, block).is_some_and(|e| e <= contig)
        && kernels::have(k)
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

    fn kernel(&mut self, k: Kind, class: u8, t: usize, stride: usize, c: usize, n: usize) {
        assert!(kernel_fits(k, self.lens(), class as usize, t, stride, c, n));
        // SAFETY: the assert bounds every block on both sides and finds
        // `k` supported; a `class` that is no kernel's panics inside.
        unsafe {
            let (src, dst) = (self.typed.as_ptr().add(t), self.contig.as_mut_ptr().add(c));
            kernels::gather(k, class, src, stride as isize, n, dst);
        }
    }
}

pub(crate) struct Scatter<'a> {
    pub contig: &'a [u8],
    pub typed: &'a mut [u8],
}

impl Xfer for Scatter<'_> {
    fn lens(&self) -> (usize, usize) {
        (self.typed.len(), self.contig.len())
    }

    #[inline]
    fn copy(&mut self, t: usize, c: usize, n: usize) {
        self.typed[t..t + n].copy_from_slice(&self.contig[c..c + n]);
    }

    fn kernel(&mut self, k: Kind, class: u8, t: usize, stride: usize, c: usize, n: usize) {
        assert!(kernel_fits(k, self.lens(), class as usize, t, stride, c, n));
        // SAFETY: as for `Gather::kernel`, the sides' roles swapped.
        unsafe {
            let (src, dst) = (self.contig.as_ptr().add(c), self.typed.as_mut_ptr().add(t));
            kernels::scatter(k, class, src, dst, stride as isize, n);
        }
    }
}

impl StridedSpec {
    /// The frame executor — the one block-copy loop under every pack,
    /// unpack and window placement. Copies up to `todo` data bytes of the
    /// instance whose origin sits at window position `origin`, entering
    /// after `skip < size()` data bytes, to or from contiguous position
    /// `c`. Returns `(bytes, runs)`; fewer bytes than
    /// `todo.min(size() - skip)` means the window ended first.
    ///
    /// `(block index, within)` is resolved once on entry. A positive
    /// stride then gets one *run*: the most whole blocks that fit both
    /// `todo` and the window — one division, and only when the window
    /// clips the run — moved by `kind`'s fixed-width kernel, or by one
    /// `copy_from_slice` per block when `kind` is scalar. The single-block
    /// step does the rest: a partial head or tail block, the block the
    /// window cuts, and every block of a non-positive stride.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn copy_instance<X: Xfer>(
        &self,
        x: &mut X,
        kind: Kind,
        origin: i64,
        skip: u64,
        c: usize,
        todo: usize,
        obs: bool,
    ) -> (usize, u64) {
        let block = self.block as usize;
        let wlen = x.lens().0 as i64;
        let (mut j, mut within) = if skip == 0 {
            (0, 0)
        } else {
            (skip / self.block, (skip % self.block) as usize)
        };
        let mut pos = origin + self.base + j as i64 * self.stride;
        let (mut done, mut runs) = (0usize, 0u64);
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
                let (t, nblk, stride) = (pos as usize, n as usize, self.stride as usize);
                if kind == Kind::Scalar {
                    x.blocks(t, stride, c + done, block, nblk);
                } else {
                    x.kernel(kind, block as u8, t, stride, c + done, nblk);
                }
                if obs {
                    crate::ff::OBS_RUN_LEN.record_n(self.block, n);
                    if kind != Kind::Scalar {
                        kernels::OBS_KERNEL_BLOCKS.add(n);
                        kernels::OBS_KERNEL_BYTES.add(n * self.block);
                    }
                }
                j += n;
                pos += n as i64 * self.stride;
                done += nblk * block;
                runs += n;
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
            runs += 1;
            if obs {
                crate::ff::OBS_RUN_LEN.record(n as u64);
            }
            if n < rest {
                break; // the bytes or the window ended mid-block
            }
            within = 0;
            j += 1;
            pos += self.stride;
        }
        (done, runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Field, Order};

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
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::int(),
            },
            Field {
                disp: 16,
                count: 1,
                child: Datatype::int(),
            },
        ])
        .unwrap();
        assert!(d.as_strided().is_none());
    }

    #[test]
    fn strided_matches_flatiter() {
        use crate::FlatIter;
        let cases = vec![
            Datatype::vector(8, 1, 2, &Datatype::double()).unwrap(),
            Datatype::vector(4, 3, 5, &Datatype::int()).unwrap(),
            Datatype::contiguous(7, &Datatype::basic(3)).unwrap(),
        ];
        for d in cases {
            let s = d.as_strided().unwrap();
            let runs: Vec<_> = FlatIter::new(&d, 2).collect();
            let mut expect = Vec::new();
            let ext = d.extent() as i64;
            for inst in 0..2i64 {
                for j in 0..s.count as i64 {
                    expect.push((inst * ext + s.base + j * s.stride, s.block));
                }
            }
            // FlatIter may merge adjacent blocks; compare total coverage
            let mut a: Vec<(i64, u64)> = runs.iter().map(|r| (r.disp, r.len)).collect();
            // normalize both to per-byte sets
            let bytes = |v: &[(i64, u64)]| {
                let mut out = Vec::new();
                for &(o, l) in v {
                    for k in 0..l as i64 {
                        out.push(o + k);
                    }
                }
                out
            };
            a.sort_unstable();
            expect.sort_unstable();
            assert_eq!(bytes(&a), bytes(&expect), "{d:?}");
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
}
