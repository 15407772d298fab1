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
//! state is one stretch and a stack of at most `depth` frames, held in the
//! cursor itself up to [`INLINE`] of them, so a transfer allocates nothing.
//!
//! The same cursors feed the **row zip** ([`zip_rows`]): a dense
//! collective window whose views are two interleaved columns of 8-byte
//! blocks is filled in one pass, in file order, each row taking the next
//! block of both columns' streams (DESIGN.md §3.1).

use crate::ff::{OBS_COPY_BYTES, OBS_RUN_LEN};
use crate::kernels::{Store, Stores, Word};
use crate::program::{PNode, Part, RunProgram};
use crate::strided::{strided_copy, Xfer};

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
#[derive(Clone, Copy)]
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

/// Frames a cursor holds in place; a deeper program spills the rest to
/// the heap. The benchmark shapes' programs are two frames deep.
const INLINE: usize = 8;

/// The cursor's way back up: a stack of frames, the first [`INLINE`] of
/// them in place.
struct Stack<'p> {
    inline: [Frame<'p>; INLINE],
    len: usize,
    spill: Vec<Frame<'p>>,
}

impl<'p> Stack<'p> {
    fn new() -> Self {
        let none = Frame::Tail {
            rest: &[],
            origin: 0,
        };
        Stack {
            inline: [none; INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, f: Frame<'p>) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = f,
            None => self.spill.push(f),
        }
        self.len += 1;
    }

    fn last_mut(&mut self) -> Option<&mut Frame<'p>> {
        match self.len {
            0 => None,
            n if n <= INLINE => Some(&mut self.inline[n - 1]),
            _ => self.spill.last_mut(),
        }
    }

    fn pop(&mut self) {
        if self.len > INLINE {
            self.spill.pop();
        }
        self.len -= 1;
    }
}

/// A forward-only cursor over the blocks of `count` tiled instances of a
/// run program, in stream order: a walk of its instance frame.
pub(crate) struct Stretches<'p> {
    /// Data bytes from where the cursor started to the end of the stream.
    len: u64,
    stack: Stack<'p>,
    cur: Stretch,
}

impl<'p> Stretches<'p> {
    /// A cursor at data byte `skip` of `count` instances of `prog`.
    pub fn new(prog: &'p RunProgram, count: u64, skip: u64) -> Self {
        let mut s = Stretches {
            len: prog.total(count).saturating_sub(skip),
            stack: Stack::new(),
            cur: Stretch::default(),
        };
        if let Some(root) = prog.root.as_ref().filter(|_| s.len > 0) {
            s.descend(root, 0, skip);
        }
        s
    }

    /// A cursor over a stream that is `len` bytes of a buffer from byte 0
    /// on: one block.
    fn contig(len: usize) -> Self {
        Stretches {
            len: len as u64,
            stack: Stack::new(),
            cur: Stretch {
                pos: 0,
                stride: len as i64,
                block: len,
                left: (len > 0) as u64,
                within: 0,
            },
        }
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
                PNode::Tail { parts, prefix, .. } => {
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

    /// The stretch the stream continues with; `None` past the instance
    /// frame.
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
                None => return None,
            };
            self.descend(node, origin, 0);
        }
        Some(&mut self.cur)
    }

    /// Pair `wn` window blocks of `wb` bytes, `ws` apart from window
    /// position `t`, with the next `wn · wb` bytes of the stream, and have
    /// `ends` carry out the pairing in as few [`Move`]s as the two layouts
    /// allow.
    fn pair<E: Ends>(&mut self, mut t: usize, ws: usize, wb: usize, mut wn: usize, ends: &mut E) {
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
            ends.mv(m);
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
    /// Carry out `m`.
    fn mv(&mut self, m: Move);
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
    fn mv(&mut self, m: Move) {
        if !self.stores.streams(m.block) {
            let (src, dst) = (&self.user[m.u..], &mut self.window[m.w..]);
            strided_copy(src, m.us, dst, m.ws, m.block, m.n);
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

    #[inline]
    fn mv(&mut self, m: Move) {
        let (src, dst) = (&self.window[m.w..], &mut self.user[m.u - self.at..]);
        strided_copy(src, m.ws, dst, m.us, m.block, m.n);
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
    ends: E,
}

impl<'p, E: Ends> Transfer<'p, E> {
    /// A transfer of at most `n` bytes from where `cur` stands.
    pub fn new(cur: Stretches<'p>, n: usize, ends: E) -> Self {
        Transfer {
            cap: (n as u64).min(cur.len) as usize,
            cur,
            done: 0,
            ends,
        }
    }

    fn run(&mut self, t: usize, ws: usize, wb: usize, wn: usize) {
        self.cur.pair(t, ws, wb, wn, &mut self.ends);
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
}

// ---------------------------------------------------------------------------
// The row zip
// ---------------------------------------------------------------------------

/// Where a column's blocks lie while they lie evenly spaced: the block of
/// row `i` is `user[at + i·step..]`.
#[derive(Clone, Copy, Default)]
struct Lane {
    at: usize,
    step: usize,
}

/// The block a row of the zip takes from each of its two columns: a row
/// is one 16-byte store, the shape the zip was measured on (`coll-small`'s
/// 8 B blocks over two ranks). Rows of other blocks or more columns are
/// placed share by share.
pub const ZIP_BLOCK: usize = 8;

/// One column of a [`zip_rows`]: an AP's stream, in the buffer it lies in,
/// from the first byte the zip takes on.
pub struct Column<'a> {
    user: &'a [u8],
    cur: Stretches<'a>,
    lane: Lane,
}

impl<'a> Column<'a> {
    /// The stream of `count` instances of `prog` laid over `user` (byte 0
    /// at typemap displacement 0), from its data byte `skip` on.
    pub fn typed(prog: &'a RunProgram, user: &'a [u8], count: u64, skip: u64) -> Self {
        Column::new(user, Stretches::new(prog, count, skip))
    }

    /// A stream that is `stream` itself.
    pub fn contig(stream: &'a [u8]) -> Self {
        Column::new(stream, Stretches::contig(stream.len()))
    }

    fn new(user: &'a [u8], cur: Stretches<'a>) -> Self {
        let lane = Lane::default();
        Column { user, cur, lane }
    }

    /// How many rows from here on take [`ZIP_BLOCK`] bytes each from one
    /// place of the buffer, evenly spaced: their lane becomes
    /// `self.lane`. 0 when the next block is not one piece of the buffer.
    fn set_lane(&mut self) -> u64 {
        let Some(s) = self.cur.stretch() else {
            return 0;
        };
        let at = usize::try_from(s.pos).expect("user data lies at or after byte 0") + s.within;
        let (step, rows) = if s.block == ZIP_BLOCK && s.within == 0 {
            // a descending stretch gives one row at a time
            usize::try_from(s.stride).map_or((0, 1), |step| (step, s.left))
        } else {
            (ZIP_BLOCK, ((s.block - s.within) / ZIP_BLOCK) as u64)
        };
        self.lane = Lane { at, step };
        rows
    }

    /// Pass the next `n` stream bytes.
    fn skip(&mut self, mut n: usize) {
        while n > 0 {
            let s = self.cur.stretch().expect("a zip is cut to its columns");
            if s.within == 0 && n >= s.block {
                let k = ((n / s.block) as u64).min(s.left);
                s.pos += k as i64 * s.stride;
                s.left -= k;
                n -= k as usize * s.block;
            } else {
                let k = (s.block - s.within).min(n);
                s.consume(k);
                n -= k;
            }
        }
    }
}

impl Stretch {
    /// `n` more bytes of the first block are consumed, at most its rest.
    fn consume(&mut self, n: usize) {
        self.within += n;
        if self.within == self.block {
            self.within = 0;
            self.pos += self.stride;
            self.left -= 1;
        }
    }
}

/// Whether [`zip_rows`] can fill `dst`: its rows are whole 8-byte words
/// there, on x86_64.
pub fn zips(dst: &[u8]) -> bool {
    cfg!(target_arch = "x86_64") && dst.as_ptr().align_offset(8) == 0
}

/// Fill `dst`, a window the storage lent, with rows of two
/// [`ZIP_BLOCK`]-byte blocks, each the next block of its column's
/// stream, for as long as every column's next block is one piece of its
/// buffer. One pass in file order, every whole line of `dst` stored from
/// registers past the cache, so that no line is read for ownership
/// first; one fence when it returns. Only where [`zips`]. Returns the
/// bytes placed, whole rows from the start of `dst`: all of it unless a
/// column's block straddles two pieces of its buffer, where the zip
/// stops and leaves the rest to the caller.
pub fn zip_rows(dst: &mut [u8], cols: &mut [Column; 2]) -> usize {
    const ROW: usize = 2 * ZIP_BLOCK;
    assert!(dst.len().is_multiple_of(ROW) && zips(dst));
    let mut stores = Stores::new(Store::Stream);
    let mut done = 0;
    while done < dst.len() {
        let free = ((dst.len() - done) / ROW) as u64;
        let n = cols.iter_mut().fold(free, |n, c| n.min(c.set_lane())) as usize;
        if n == 0 {
            break;
        }
        zip_lanes(&mut dst[done..done + n * ROW], cols, &mut stores);
        cols.iter_mut().for_each(|c| c.skip(n * ZIP_BLOCK));
        done += n * ROW;
    }
    if lio_obs::enabled() {
        OBS_COPY_BYTES.add(done as u64);
        OBS_RUN_LEN.record_n(ZIP_BLOCK as u64, (done / ZIP_BLOCK) as u64);
    }
    done
}

/// [`zip_rows`] over rows whose every block lies in its column's lane:
/// ordinary stores up to the first line boundary and after the last,
/// whole lines streamed between, a row a 16-byte store.
fn zip_lanes(dst: &mut [u8], cols: &[Column; 2], stores: &mut Stores) {
    let head = dst.as_ptr().align_offset(64).min(dst.len());
    let body = (dst.len() - head) / 64 * 64;
    let (head, rest) = dst.split_at_mut(head);
    let (lines, tail) = rest.split_at_mut(body);
    let mut w = Words {
        cols,
        slot: 0,
        row: 0,
    };
    for d in head.chunks_exact_mut(8) {
        d.copy_from_slice(w.next().bytes());
    }
    if !lines.is_empty() {
        // every 16-byte store takes the same two words a row on
        stores.lines(lines, [w.next(), w.next()]);
        w.row += lines.len() / 16 - 1;
    }
    for d in tail.chunks_exact_mut(8) {
        d.copy_from_slice(w.next().bytes());
    }
}

/// The 8-byte words of a run of [`zip_lanes`] rows, in file order: a
/// block each.
struct Words<'c, 'a> {
    cols: &'c [Column<'a>; 2],
    /// The slot and the row of the next word.
    slot: usize,
    row: usize,
}

impl<'a> Words<'_, 'a> {
    /// The next word, and where the same word of the next row lies from
    /// it.
    fn next(&mut self) -> Word<'a> {
        let Column { user, lane, .. } = self.cols[self.slot];
        let at = lane.at + self.row * lane.step;
        self.row += self.slot;
        self.slot ^= 1;
        Word {
            src: user,
            at,
            adv: lane.step,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typemap::{expand_merged, reference_pack};
    use crate::types::Datatype;

    /// Twelve nested vectors of two, each gap a word longer than the one
    /// below so that no level folds into the next: a program whose cursor
    /// holds more than [`INLINE`] frames.
    fn deep() -> Datatype {
        let mut t = Datatype::basic(8);
        for level in 1..=12 {
            let stride = (t.extent() + 8 * level) as i64;
            t = Datatype::hvector(2, 1, stride, &t).unwrap();
        }
        t
    }

    #[test]
    fn a_cursor_deeper_than_its_inline_frames_moves_every_byte() {
        let d = deep();
        let prog = d.program();
        let cur = Stretches::new(prog, 1, 0);
        assert!(
            cur.stack.len > INLINE,
            "{} frames: {}",
            cur.stack.len,
            prog.describe()
        );
        let user: Vec<u8> = (0..d.extent()).map(|i| (i * 7 % 251) as u8).collect();
        let stream = reference_pack(&user, &d, 1);
        let size = stream.len();
        let flat = Datatype::contiguous(size as u64, &Datatype::byte()).unwrap();
        let skips = (0..size).step_by(8 * 101).chain([size - 8]);
        for skip in skips {
            let n = size - skip;
            let (from, uskip) = (prog, skip as u64);
            // into a window: the stream from `skip` on
            let mut win = vec![0u8; n];
            let (moved, _) = (flat.program()).transfer_into(
                &mut win,
                0,
                1,
                0,
                from,
                &user,
                1,
                uskip,
                n,
                Store::Cached,
            );
            assert_eq!(moved, n, "skip {skip}");
            assert!(win == stream[skip..], "transfer_into from {skip}");
            // and back: the user's bytes at the data it holds from `skip` on
            let mut back = vec![0u8; user.len()];
            let (moved, _) =
                (flat.program()).transfer_out_of(&win, 0, 1, 0, from, &mut back, 0, 1, uskip, n);
            assert_eq!(moved, n, "skip {skip}");
            let mut want = vec![0u8; user.len()];
            let mut w = 0;
            for run in expand_merged(&d, 1) {
                for x in run.disp as usize..run.disp as usize + run.len as usize {
                    if w >= skip {
                        want[x] = user[x];
                    }
                    w += 1;
                }
            }
            assert!(back == want, "transfer_out_of from {skip}");
            // and as a column of the zip, beside a contiguous one
            let other: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
            let mut dst = vec![0u8; 2 * n + 64];
            let at = dst.as_ptr().align_offset(64);
            let dst = &mut dst[at..at + 2 * n];
            if !zips(dst) {
                continue;
            }
            let mut cols = [Column::typed(prog, &user, 1, uskip), Column::contig(&other)];
            assert_eq!(zip_rows(dst, &mut cols), 2 * n, "zip from {skip}");
            for (r, row) in dst.chunks_exact(16).enumerate() {
                let want = [&stream[skip + 8 * r..][..8], &other[8 * r..][..8]].concat();
                assert_eq!(row, want, "zip from {skip}, row {r}");
            }
        }
    }
}
