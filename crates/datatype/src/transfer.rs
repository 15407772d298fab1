//! Typed-to-typed transfer: the frame executor with a second typed buffer
//! where pack and unpack have a contiguous one.
//!
//! `ff_pack` and `ff_unpack` move data between a typed buffer and a pack
//! buffer; an access whose memory *and* file side are both typed (the
//! nc-nc case of Figure 1) composed the two and copied every byte twice.
//! [`Transfer`] is the third [`Xfer`](crate::strided::Xfer): the window
//! side stays the executor's — `skipbytes` entry, window clipping, the run
//! of whole blocks — and the stream side is a [`Stretches`] cursor over
//! the *other* type's run program, which hands out that type's blocks in
//! stream order as `(position, stride, block, blocks left)` stretches. A
//! run of the window's blocks then meets a stretch of the user's: equal
//! block sizes become one strided→strided loop over both, a block of one
//! side that holds several of the other's becomes a strided↔dense loop,
//! and only a block boundary that falls inside the other side's block
//! costs a copy of its own.
//!
//! The cursor seeks once per transfer in `O(depth)` (a division per loop
//! frame, a binary search per tail — what the executor's own entry costs)
//! and never looks back. It never materializes a run list either: its
//! state is one stretch and a stack of at most `depth` frames.

use crate::kernels::{self, Kind, Mode, Stores};
use crate::program::{PNode, Part, RunProgram};
use crate::strided::Xfer;

/// Blocks of the user's type that lie evenly spaced and are next in its
/// stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stretch {
    /// Buffer position of the first block.
    pos: i64,
    stride: i64,
    block: usize,
    /// Blocks not yet fully consumed, the first one included.
    left: u64,
    /// Bytes of the first block already consumed.
    within: usize,
}

/// Where the walk goes on once the current subtree is exhausted.
enum Frame<'p> {
    /// `left` more repetitions of `body`, the next one at `next`.
    Loop {
        body: &'p PNode,
        left: u64,
        next: i64,
        stride: i64,
    },
    /// The parts after the current one, displaced from `origin`.
    Tail { rest: &'p [Part], origin: i64 },
}

/// A forward-only cursor over the blocks of `count` tiled instances of a
/// run program, in stream order.
pub(crate) struct Stretches<'p> {
    prog: &'p RunProgram,
    /// The instance being walked, and how many there are.
    inst: u64,
    count: u64,
    /// Data bytes from where the cursor started to the end of the stream.
    len: u64,
    stack: Vec<Frame<'p>>,
    cur: Stretch,
}

impl<'p> Stretches<'p> {
    /// A cursor at data byte `skip` of `count` instances of `prog`.
    pub fn new(prog: &'p RunProgram, count: u64, skip: u64) -> Self {
        let mut s = Stretches {
            prog,
            inst: 0,
            count,
            len: prog.size.saturating_mul(count).saturating_sub(skip),
            stack: Vec::new(),
            cur: Stretch::default(),
        };
        if let Some(root) = &prog.root {
            s.inst = skip / prog.size;
            if s.inst < count {
                s.descend(root, s.inst as i64 * prog.extent, skip % prog.size);
            }
        }
        s
    }

    /// Enter the instance of `node` at `origin` after `skip` of its data
    /// bytes: its first `Blocks` frame from there becomes the current
    /// stretch, the way back up goes on the stack.
    fn descend(&mut self, mut node: &'p PNode, mut origin: i64, mut skip: u64) {
        loop {
            match node {
                PNode::Blocks {
                    base,
                    stride,
                    block,
                    count,
                    ..
                } => {
                    let j = skip / block;
                    self.cur = Stretch {
                        pos: origin + base + j as i64 * stride,
                        stride: *stride,
                        block: *block as usize,
                        left: count - j,
                        within: (skip % block) as usize,
                    };
                    return;
                }
                PNode::Loop {
                    base,
                    count,
                    stride,
                    size,
                    body,
                } => {
                    let i = skip / size;
                    origin += base + i as i64 * stride;
                    self.stack.push(Frame::Loop {
                        body,
                        left: count - i - 1,
                        next: origin + stride,
                        stride: *stride,
                    });
                    node = body;
                    skip %= size;
                }
                PNode::Tail { parts, prefix } => {
                    // prefix[0] == 0 <= skip, so the partition point is >= 1
                    let p = prefix.partition_point(|&v| v <= skip) - 1;
                    self.stack.push(Frame::Tail {
                        rest: &parts[p + 1..],
                        origin,
                    });
                    node = &parts[p].node;
                    origin += parts[p].disp;
                    skip -= prefix[p];
                }
            }
        }
    }

    /// The stretch the stream continues with; `None` past the last
    /// instance.
    fn stretch(&mut self) -> Option<&mut Stretch> {
        while self.cur.left == 0 {
            let (node, origin) = match self.stack.last_mut() {
                Some(Frame::Loop { left: 0, .. }) | Some(Frame::Tail { rest: [], .. }) => {
                    self.stack.pop();
                    continue;
                }
                Some(Frame::Loop {
                    body,
                    left,
                    next,
                    stride,
                }) => {
                    *left -= 1;
                    *next += *stride;
                    (*body, *next - *stride)
                }
                Some(Frame::Tail { rest, origin }) => {
                    let (part, tail) = rest.split_first().expect("matched non-empty");
                    *rest = tail;
                    (&part.node, *origin + part.disp)
                }
                None => {
                    self.inst += 1;
                    if self.inst >= self.count {
                        return None;
                    }
                    let root = self.prog.root.as_ref()?;
                    (root, self.inst as i64 * self.prog.extent)
                }
            };
            self.descend(node, origin, 0);
        }
        Some(&mut self.cur)
    }

    /// Pair `wn` window blocks of `wb` bytes, `ws` apart from window
    /// position `t`, with the next `wn · wb` bytes of the stream, and have
    /// `ends` carry out the pairing in as few [`Move`]s as the two layouts
    /// allow (`fixed` as for [`Ends::mv`]).
    fn pair<E: Ends>(
        &mut self,
        mut t: usize,
        ws: usize,
        wb: usize,
        mut wn: usize,
        ends: &mut E,
        fixed: bool,
    ) {
        // bytes of the window block at `t` already paired
        let mut w_within = 0;
        while wn > 0 {
            let s = self
                .stretch()
                .expect("a transfer is cut to the user's stream");
            let (a, b) = (wb - w_within, s.block - s.within);
            let block = a.min(b);
            // How often each side repeats a piece of `block` bytes, and how
            // far apart: a longer block holds them densely, a block that is
            // one piece repeats with its stretch, a started block is alone.
            let (w_rep, w_stride) = match (a > block, w_within) {
                (true, _) => (a / block, block),
                (false, 0) => (wn, ws),
                (false, _) => (1, 0),
            };
            let (u_rep, u_stride) = match (b > block, s.within) {
                (true, _) => ((b / block) as u64, block as i64),
                (false, 0) => (s.left, s.stride),
                (false, _) => (1, 0),
            };
            let mut n = (w_rep as u64).min(u_rep) as usize;
            if w_stride < block || u_stride < block as i64 {
                n = 1; // overlapping or descending blocks go one at a time
            }
            let m = Move {
                w: t + w_within,
                ws: w_stride,
                u: usize::try_from(s.pos).expect("user data lies at or after byte 0") + s.within,
                us: u_stride.max(0) as usize,
                block,
                n,
            };
            ends.mv(m, fixed);
            if b > block {
                s.within += n * block;
            }
            if b == block || s.within == s.block {
                let done = if b > block { 1 } else { n };
                s.within = 0;
                s.pos += done as i64 * s.stride;
                s.left -= done as u64;
            }
            if a > block {
                w_within += n * block;
            }
            if a == block || w_within == wb {
                let done = if a > block { 1 } else { n };
                w_within = 0;
                t += done * ws;
                wn -= done;
            }
        }
    }
}

/// `n` pieces of `block` bytes: piece `i` at window position `w + i·ws`
/// and user position `u + i·us` (`n == 1` ignores the strides).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    w: usize,
    ws: usize,
    u: usize,
    us: usize,
    block: usize,
    n: usize,
}

/// The two buffers of a transfer and the direction between them.
pub(crate) trait Ends {
    fn window_len(&self) -> usize;
    /// Carry out `m`; `fixed` allows the fixed-width loops.
    fn mv(&mut self, m: Move, fixed: bool);
}

/// User buffer → window (place).
pub(crate) struct ToWindow<'a> {
    pub user: &'a [u8],
    pub window: &'a mut [u8],
    /// How the blocks are stored into `window`.
    pub stores: Stores,
}

impl Ends for ToWindow<'_> {
    fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Blocks long enough to stream are stored one at a time, each
    /// streaming its whole lines.
    #[inline]
    fn mv(&mut self, m: Move, fixed: bool) {
        if !self.stores.streams(m.block) {
            let (src, dst) = (&self.user[m.u..], &mut self.window[m.w..]);
            strided_copy(src, m.us, dst, m.ws, m.block, m.n, fixed);
            return;
        }
        for i in 0..m.n {
            let (w, u) = (m.w + i * m.ws, m.u + i * m.us);
            self.stores
                .copy(&mut self.window[w..w + m.block], &self.user[u..u + m.block]);
        }
    }
}

/// Window → user buffer (extract).
pub(crate) struct ToUser<'a> {
    pub window: &'a [u8],
    pub user: &'a mut [u8],
    /// The user type's buffer position of `user[0]`: `user` may be a piece.
    pub at: usize,
}

impl Ends for ToUser<'_> {
    fn window_len(&self) -> usize {
        self.window.len()
    }

    /// A block long enough to claim the user lines after it is stored one
    /// at a time, each behind its claim.
    #[inline]
    fn mv(&mut self, m: Move, fixed: bool) {
        let (src, dst) = (&self.window[m.w..], &mut self.user[m.u - self.at..]);
        if m.block < *kernels::CLAIM_RUNS.start() {
            strided_copy(src, m.ws, dst, m.us, m.block, m.n, fixed);
            return;
        }
        for i in 0..m.n {
            let (w, u) = (i * m.ws, i * m.us);
            kernels::claim_ahead(dst, u..u + m.block);
            dst[u..u + m.block].copy_from_slice(&src[w..w + m.block]);
        }
    }
}

/// The [`Xfer`] of a typed-to-typed transfer: the executor's stream side
/// is the user's typed buffer, under the cursor `cur`.
pub(crate) struct Transfer<'p, E> {
    cur: Stretches<'p>,
    /// Stream bytes the transfer may move.
    cap: usize,
    /// Stream bytes moved so far.
    done: usize,
    /// Whether runs of small equal blocks take the fixed-width loops; the
    /// `scalar` kernel mode keeps one `copy_from_slice` per block.
    fixed: bool,
    ends: E,
}

impl<'p, E: Ends> Transfer<'p, E> {
    /// A transfer of at most `n` bytes from where `cur` stands.
    pub fn new(cur: Stretches<'p>, n: usize, ends: E) -> Self {
        Transfer {
            cap: (n as u64).min(cur.len) as usize,
            cur,
            done: 0,
            fixed: kernels::mode() != Mode::Scalar,
            ends,
        }
    }

    fn run(&mut self, t: usize, ws: usize, wb: usize, wn: usize) {
        self.cur.pair(t, ws, wb, wn, &mut self.ends, self.fixed);
        self.done += wb * wn;
    }
}

impl<E: Ends> Xfer for Transfer<'_, E> {
    fn lens(&self) -> (usize, usize) {
        (self.ends.window_len(), self.cap)
    }

    fn copy(&mut self, t: usize, c: usize, n: usize) {
        debug_assert_eq!(c, self.done, "the executor consumes the stream in order");
        if n > 0 {
            self.run(t, 0, n, 1);
        }
    }

    /// One pairing for the whole run, whatever the block size.
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize) {
        debug_assert_eq!(c, self.done, "the executor consumes the stream in order");
        self.run(t, stride, block, n);
    }

    /// No kernel family: the pairing picks the loop by block size itself.
    fn kernel(&mut self, _k: Kind, class: u8, t: usize, stride: usize, c: usize, n: usize) {
        self.blocks(t, stride, c, class as usize, n);
    }
}

/// Copy `n` blocks of `block` bytes, block `i` from `src[i·ss..]` to
/// `dst[i·ds..]`; for `n > 1` both strides are at least `block`.
#[inline]
fn strided_copy(
    src: &[u8],
    ss: usize,
    dst: &mut [u8],
    ds: usize,
    block: usize,
    n: usize,
    fixed: bool,
) {
    if n == 1 {
        dst[..block].copy_from_slice(&src[..block]);
        return;
    }
    match block {
        1 if fixed => zip_fixed::<1>(src, ss, dst, ds, n),
        2 if fixed => zip_fixed::<2>(src, ss, dst, ds, n),
        4 if fixed => zip_fixed::<4>(src, ss, dst, ds, n),
        8 if fixed => zip_fixed::<8>(src, ss, dst, ds, n),
        16 if fixed => zip_fixed::<16>(src, ss, dst, ds, n),
        32 if fixed => zip_fixed::<32>(src, ss, dst, ds, n),
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
