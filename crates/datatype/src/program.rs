//! Compiled datatype run programs.
//!
//! Both engines interpret a datatype through one of these programs: every
//! listless copy — [`crate::ff_pack`]/[`crate::ff_unpack`] and the
//! fileview window placement of `lio-core` — runs it, every navigation
//! ([`crate::ff_offset`], [`crate::bytes_below_tiled`] and all built on
//! them) descends it, and the list-based engine's explicit flattening
//! ([`crate::OlList::flatten`]) expands it (`RunProgram::expand`). Walking
//! the [`Datatype`] tree per run (what the naive oracle
//! [`crate::typemap::expand`] does) pays a descent and per-node dispatch
//! for every emitted run, which is exactly why derived-datatype copies miss
//! memcpy speed on small blocks. This module *compiles* the tree once into
//! a compact run program — normalized nested loop descriptors (`{count,
//! block, stride}` frames) plus literal run tails for irregular shapes —
//! and interprets that program with tight block-copy loops and no per-run
//! tree re-descent.
//!
//! Normalization happens at compile time, in two stages:
//!
//! * **construction folding** — repetition that keeps blocks evenly
//!   spaced becomes a single [`PNode::Blocks`] frame ([`tile`] at *every*
//!   level: contiguous children, unit-count wrappers, dense vectors);
//!   regular repetition that cannot fold becomes a [`PNode::Loop`] frame
//!   storing the body's data size so a `skipbytes` entry point divides
//!   instead of iterating; displacement lists (hindexed, multi-field
//!   structs) become a [`PNode::Tail`] with a size-prefix table, entered
//!   by binary search;
//! * **a normalization pass** ([`normalize`]) that rewrites the raw tree
//!   into canonical strided form wherever the type map permits: it merges
//!   adjacent blocks whose spacing equals the block size, hoists
//!   unit-count and single-child loops, splices nested tails, folds
//!   maximal runs of identical equally-spaced tail parts (the
//!   equal-displacement struct-field shape) back into `Blocks`/`Loop`
//!   frames — splitting a ragged tail into a strided prefix plus a short
//!   literal tail — and collapses single-part tails. The
//!   `dt.normalize.{rewrites,frames_before,frames_after}` counters record
//!   what the pass accomplished. [`Datatype::as_strided`] is an instance
//!   that folds and normalizes to one `Blocks` frame.
//!
//! The root is the **instance frame**: the type's instances tiled at its
//! extent through the same folds, once per type, so instances that abut
//! merge (a byte view is one block) and `count` only bounds the bytes.
//! Every `Blocks` frame is copied by the frame executor
//! ([`StridedSpec::copy_instance`]): one call of the safe fixed-width loop
//! ([`crate::strided::strided_copy`]) per run of whole blocks, and runs
//! that abut across frames reach it as one — a copy makes the fewest runs
//! its typemap allows.
//!
//! The interpreter therefore preserves the paper's navigation contract:
//! entry at an arbitrary `skipbytes` costs `O(depth)` (one division per
//! loop frame, one binary search per tail), after which cost is
//! proportional only to the bytes moved. Navigation is that entry alone:
//! [`RunProgram::offset_of`] descends by the same divisions and searches,
//! and [`RunProgram::bytes_below`], its inverse, divides by a frame's
//! stride and searches a tail by its parts' positions — except where
//! repetitions or parts overlap in position (the mergeview's interleaving
//! filetypes), which it sums one by one.
//!
//! Programs are cached per datatype node behind a `OnceLock`, so repeated
//! I/O on the same fileview or memtype pays compilation once; the
//! `dt.compile.*` counters expose build-vs-hit behavior.

use std::sync::Arc;

use lio_obs::LazyCounter;

use crate::kernels::{Store, Stores};
use crate::strided::{Gather, Scatter, StridedSpec, Xfer};
use crate::transfer::{Stretches, ToUser, ToWindow, Transfer};
use crate::types::{Datatype, TypeKind};

static OBS_COMPILE_PROGRAMS: LazyCounter = LazyCounter::new("dt.compile.programs");
static OBS_COMPILE_FRAMES: LazyCounter = LazyCounter::new("dt.compile.frames");
static OBS_COMPILE_CACHE_HITS: LazyCounter = LazyCounter::new("dt.compile.cache_hits");

/// Rewrites applied by the normalization pass, and the frame counts it
/// saw before/after — `frames_before == frames_after` with
/// `rewrites == 0` means programs were already canonical ("born strided").
static OBS_NORM_REWRITES: LazyCounter = LazyCounter::new("dt.normalize.rewrites");
static OBS_NORM_FRAMES_BEFORE: LazyCounter = LazyCounter::new("dt.normalize.frames_before");
static OBS_NORM_FRAMES_AFTER: LazyCounter = LazyCounter::new("dt.normalize.frames_after");

/// One node of a compiled run program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PNode {
    /// `count` dense blocks of `block` bytes, block `j` starting at
    /// `base + j·stride` — the `{count, block, stride}` frame. This is
    /// the canonical strided form and the only node that copies bytes.
    Blocks {
        base: i64,
        stride: i64,
        block: u64,
        count: u64,
    },
    /// `count` repetitions of `body` (holding `size` data bytes each),
    /// repetition `i` originating at `base + i·stride`.
    Loop {
        base: i64,
        count: u64,
        stride: i64,
        size: u64,
        body: Box<PNode>,
    },
    /// Literal tail: heterogeneous parts at explicit displacements.
    /// `prefix[i]` is the data size strictly before part `i`
    /// (`len = parts.len() + 1`, strictly increasing), so a `skipbytes`
    /// entry finds its part by binary search. `ordered`: each part's data
    /// lies below the next one's, so a position finds its part by binary
    /// search too; `span`: the positions the parts' data spans. Built by
    /// [`tail`].
    Tail {
        parts: Box<[Part]>,
        prefix: Arc<[u64]>,
        ordered: bool,
        span: (i64, i64),
    },
}

/// One literal-tail entry: `node` displaced by `disp` bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Part {
    pub(crate) disp: i64,
    pub(crate) node: PNode,
}

/// A `Blocks` frame.
fn blocks(base: i64, stride: i64, block: u64, count: u64) -> PNode {
    PNode::Blocks {
        base,
        stride,
        block,
        count,
    }
}

/// A `Tail` frame over `parts`, none of them empty: its size-prefix table,
/// whether its parts lie in position order, and its span.
fn tail(parts: Vec<Part>) -> PNode {
    let mut prefix = vec![0];
    let (mut ordered, mut span) = (true, (i64::MAX, i64::MIN));
    for p in &parts {
        prefix.push(prefix[prefix.len() - 1] + node_size(&p.node));
        let (lo, hi) = p.node.span();
        // every part before this one ends at or below where it starts
        ordered &= span.1 <= p.disp + lo;
        span = (span.0.min(p.disp + lo), span.1.max(p.disp + hi));
    }
    PNode::Tail {
        parts: parts.into(),
        prefix: prefix.into(),
        ordered,
        span,
    }
}

/// A datatype compiled to a run program. Obtain via
/// [`Datatype::program`]. Its root is the instance frame, instance `i` at
/// `i · extent`: a copy or navigation of `count` instances enters it like
/// any frame.
#[derive(Debug)]
pub struct RunProgram {
    pub(crate) root: Option<PNode>,
    pub(crate) size: u64,
    /// Instances the root tiles.
    instances: u64,
    /// Blocks one instance emits before adjacent ones merge (saturating):
    /// the count ROMIO takes before it fills an ol-list.
    pub(crate) blocks: u64,
    frames: u32,
    rewrites: u32,
}

impl Datatype {
    /// The compiled run program for this type, built on first use and
    /// cached on the node (`OnceLock`), so every subsequent pack on the
    /// same fileview or memtype reuses it.
    pub fn program(&self) -> &RunProgram {
        if self.0.program.get().is_some() {
            OBS_COMPILE_CACHE_HITS.incr();
        }
        self.compiled()
    }

    /// [`Datatype::program`] without counting a cache hit: navigation's
    /// way in, whose calls take nanoseconds and would each pay a shared
    /// counter's atomic add.
    pub(crate) fn compiled(&self) -> &RunProgram {
        self.0
            .program
            .get_or_init(|| {
                let p = RunProgram::compile(self);
                OBS_COMPILE_PROGRAMS.incr();
                OBS_COMPILE_FRAMES.add(p.frames as u64);
                Arc::new(p)
            })
            .as_ref()
    }
}

impl RunProgram {
    /// Compile `d` into a run program (no caching; prefer
    /// [`Datatype::program`]).
    pub fn compile(d: &Datatype) -> RunProgram {
        let raw = compile_node(d);
        let before = raw.as_ref().map_or(0, frames_of);
        let mut rewrites = 0u32;
        let one = raw.map(|n| normalize(n, &mut rewrites));
        let frames = one.as_ref().map_or(0, frames_of);
        OBS_NORM_FRAMES_BEFORE.add(before as u64);
        OBS_NORM_FRAMES_AFTER.add(frames as u64);
        if rewrites > 0 {
            OBS_NORM_REWRITES.add(rewrites as u64);
        }
        // as many instances as keep the frame's positions and bytes below
        // 2^62, so that no frame arithmetic overflows
        let (size, extent) = (d.size(), d.extent());
        let instances = (1 << 62) / size.max(extent).max(1);
        RunProgram {
            frames,
            rewrites,
            blocks: one.as_ref().map_or(0, node_blocks),
            root: one.map(|n| tile(n, instances, extent as i64, size)),
            size,
            instances,
        }
    }

    /// Number of program nodes (loop/tail/block frames) of one instance,
    /// the instance frame not counted.
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Rewrites applied by the normalization pass; 0 means the raw
    /// compile was already canonical.
    pub fn rewrites(&self) -> u32 {
        self.rewrites
    }

    /// A compact structural description, for tests:
    /// `B(base,stride,block,count)`, `L(base,count,stride,size)[body]`,
    /// `T[@disp part; ...]`, or `-` for an empty program; `k` times the
    /// instance count reads `kn`, as in `L(0,n,extent,size)[B(…)]`.
    pub fn describe(&self) -> String {
        let n = self.instances;
        self.root
            .as_ref()
            .map_or_else(|| "-".into(), |r| describe_node(r, n))
    }

    /// The data bytes of `count` instances, at most the instance frame's.
    pub(crate) fn total(&self, count: u64) -> u64 {
        self.size * count.min(self.instances)
    }

    /// Pack `count` tiled instances into `packbuf`, skipping the first
    /// `skip` data bytes; `src[0]` corresponds to typemap displacement
    /// `buf_disp`. Returns `(bytes copied, runs copied)`.
    pub fn pack_into(
        &self,
        src: &[u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
        packbuf: &mut [u8],
    ) -> (usize, u64) {
        let x = Gather {
            typed: src,
            contig: packbuf,
        };
        self.run(x, buf_disp, count, skip, lio_obs::enabled())
    }

    /// Unpack `packbuf` into `count` tiled instances of `dst`, skipping
    /// the first `skip` data bytes; `dst[0]` corresponds to typemap
    /// displacement `buf_disp`. `store` says how runs are stored into `dst`
    /// ([`Stores`]); a call that streamed has fenced before it returns.
    /// Returns `(bytes copied, runs copied)`.
    pub fn unpack_into(
        &self,
        packbuf: &[u8],
        dst: &mut [u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
        store: Store,
    ) -> (usize, u64) {
        let x = Scatter {
            contig: packbuf,
            typed: dst,
            stores: Stores::new(store),
        };
        self.run(x, buf_disp, count, skip, lio_obs::enabled())
    }

    /// Move up to `n` stream bytes from a typed user buffer straight into
    /// `count` tiled instances of `dst` — [`RunProgram::unpack_into`]
    /// without the pack buffer in between, `store` as there. The user side
    /// is `ucount` instances of `from` laid over `user` (byte 0 at typemap
    /// displacement 0), read from its data byte `uskip` on. Returns
    /// `(bytes copied, runs copied)`, runs counted on the `dst` side.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_into(
        &self,
        dst: &mut [u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
        from: &RunProgram,
        user: &[u8],
        ucount: u64,
        uskip: u64,
        n: usize,
        store: Store,
    ) -> (usize, u64) {
        let ends = ToWindow {
            user,
            window: dst,
            stores: Stores::new(store),
        };
        let x = Transfer::new(Stretches::new(from, ucount, uskip), n, ends);
        self.run(x, buf_disp, count, skip, lio_obs::enabled())
    }

    /// The inverse of [`RunProgram::transfer_into`]: move up to `n` stream
    /// bytes of `count` tiled instances in `src` straight into the typed
    /// user buffer — [`RunProgram::pack_into`] without the pack buffer.
    /// `user[0]` is byte `user_at` of the buffer the user type lays out, as
    /// `src[0]` lies at `buf_disp` of this one: `user` may be the piece of
    /// that buffer which holds the bytes moved.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_out_of(
        &self,
        src: &[u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
        to: &RunProgram,
        user: &mut [u8],
        user_at: usize,
        ucount: u64,
        uskip: u64,
        n: usize,
    ) -> (usize, u64) {
        let ends = ToUser {
            window: src,
            user,
            at: user_at,
        };
        let x = Transfer::new(Stretches::new(to, ucount, uskip), n, ends);
        self.run(x, buf_disp, count, skip, lio_obs::enabled())
    }

    /// Where data byte `w` of the tiled instances lies: one division per
    /// `Blocks` or `Loop` frame, one binary search of a `Tail`'s size
    /// prefixes, down one path — `O(depth)`.
    pub fn offset_of(&self, w: u64) -> i64 {
        let root = self.root.as_ref().expect("a zero-size type holds no data");
        debug_assert!(w < self.total(u64::MAX), "byte {w} past the frame");
        root.offset_of(w)
    }

    /// Data bytes of the tiled instances at positions below `x`, the
    /// inverse of [`RunProgram::offset_of`]: `O(depth)` on a monotone
    /// type, and right on any type whose data positions do not overlap,
    /// such as the mergeview, whose filetypes interleave: overlapping
    /// repetitions or tail parts are summed one by one.
    pub fn bytes_below(&self, x: i64) -> u64 {
        self.root.as_ref().map_or(0, |r| r.bytes_below(x))
    }

    /// Hand `emit` every run of `count` tiled instances as `(disp, len)`,
    /// in typemap order, the runs a copy moves: the executor's, over a
    /// window from the lowest data position on that never ends. The
    /// list-based engine's explicit flattening ([`crate::OlList::flatten`])
    /// is this expansion.
    pub(crate) fn expand(&self, count: u64, emit: &mut impl FnMut(i64, u64)) {
        let lb = self.root.as_ref().map_or(0, |r| r.span().0);
        self.run(Emit { lb, emit }, lb, count, 0, false);
    }

    /// Interpret the program over `count` tiled instances, in the
    /// direction `x` fixes; `obs`: record the runs and bytes it copies.
    fn run<X: Xfer>(&self, x: X, buf_disp: i64, count: u64, skip: u64, obs: bool) -> (usize, u64) {
        let Some(root) = &self.root else {
            return (0, 0);
        };
        let total = self.total(count);
        let (_, contig) = x.lens();
        if skip >= total || contig == 0 {
            return (0, 0);
        }
        let mut sink = Sink {
            cap: (total - skip).min(contig as u64) as usize,
            x,
            cursor: 0,
            clipped: false,
            run: (0, 0, 0),
            runs: 0,
            obs,
        };
        root.walk(-buf_disp, skip, &mut sink);
        sink.flush();
        if sink.obs {
            crate::ff::OBS_COPY_BYTES.add(sink.cursor as u64);
        }
        (sink.cursor, sink.runs)
    }
}

impl Datatype {
    /// The canonical strided decomposition of one instance's data, if the
    /// type reduces to evenly spaced dense blocks: its instance's program,
    /// normalized, when that is one `Blocks` frame.
    pub fn as_strided(&self) -> Option<StridedSpec> {
        match normalize(compile_node(self)?, &mut 0) {
            PNode::Blocks {
                base,
                stride,
                block,
                count,
            } => Some(StridedSpec {
                base,
                stride,
                block,
                count,
            }),
            _ => None,
        }
    }
}

/// Compile one node; `None` when the subtree holds no data.
fn compile_node(d: &Datatype) -> Option<PNode> {
    if d.size() == 0 {
        return None;
    }
    match d.kind() {
        TypeKind::Basic { size } => Some(blocks(0, *size as i64, *size as u64, 1)),
        TypeKind::LbMark | TypeKind::UbMark => unreachable!("markers hold no data"),
        TypeKind::Contiguous { count, child } => {
            let body = compile_node(child)?;
            Some(tile(body, *count, child.extent() as i64, child.size()))
        }
        TypeKind::Hvector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let inner = tile(
                compile_node(child)?,
                *blocklen,
                child.extent() as i64,
                child.size(),
            );
            Some(tile(inner, *count, *stride, child.size() * blocklen))
        }
        TypeKind::Hindexed { blocks, child } => {
            let cext = child.extent() as i64;
            let csize = child.size();
            let childp = compile_node(child)?;
            // zero-length blocks are dropped at construction; equal ones at
            // one step (the `indexed_block` shape) fold in `normalize`
            let parts = blocks
                .iter()
                .map(|b| Part {
                    disp: b.disp,
                    node: tile(childp.clone(), b.blocklen, cext, csize),
                })
                .collect();
            Some(tail(parts))
        }
        TypeKind::Struct { fields } => {
            let mut parts = Vec::new();
            for f in fields.iter() {
                if f.child.size() * f.count == 0 {
                    continue; // markers and empty fields hold no data
                }
                let node = tile(
                    compile_node(&f.child)?,
                    f.count,
                    f.child.extent() as i64,
                    f.child.size(),
                );
                parts.push(Part { disp: f.disp, node });
            }
            if parts.len() == 1 {
                // single data field: fold its displacement into the body
                // (the subarray placement shape)
                let Part { disp, node } = parts.pop().unwrap();
                match node {
                    t @ PNode::Tail { .. } => parts.push(Part { disp, node: t }),
                    other => return Some(shift(other, disp)),
                }
            }
            Some(tail(parts))
        }
        TypeKind::Resized { child, .. } => compile_node(child),
    }
}

/// `n` repetitions of `body` (holding `body_size` data bytes) placed
/// `step` bytes apart: fold into the body's Blocks frame when the
/// repetitions keep blocks evenly spaced, into the body's Loop frame when
/// they continue its repetitions, collapse unit counts, loop otherwise.
fn tile(mut body: PNode, n: u64, step: i64, body_size: u64) -> PNode {
    debug_assert!(n >= 1, "zero-count subtrees hold no data");
    if n == 1 {
        return body;
    }
    if let PNode::Loop { count, stride, .. } = &mut body {
        if step == *stride * *count as i64 {
            *count *= n;
            return body;
        }
    }
    if let PNode::Blocks {
        base,
        stride,
        block,
        count,
    } = body
    {
        if count == 1 {
            if step == block as i64 {
                // dense: merge into one big block
                return blocks(base, (block * n) as i64, block * n, 1);
            }
            return blocks(base, step, block, n);
        }
        if step == stride * count as i64 {
            return blocks(base, stride, block, count * n);
        }
        return PNode::Loop {
            base: 0,
            count: n,
            stride: step,
            size: body_size,
            body: Box::new(blocks(base, stride, block, count)),
        };
    }
    PNode::Loop {
        base: 0,
        count: n,
        stride: step,
        size: body_size,
        body: Box::new(body),
    }
}

/// Displace `node` by `d` bytes (folding the displacement into the node
/// instead of wrapping it in a unit tail).
fn shift(node: PNode, d: i64) -> PNode {
    if d == 0 {
        return node;
    }
    match node {
        PNode::Blocks {
            base,
            stride,
            block,
            count,
        } => blocks(base + d, stride, block, count),
        PNode::Loop {
            base,
            count,
            stride,
            size,
            body,
        } => PNode::Loop {
            base: base + d,
            count,
            stride,
            size,
            body,
        },
        PNode::Tail { parts, .. } => tail(
            parts
                .iter()
                .map(|p| Part {
                    disp: p.disp + d,
                    node: p.node.clone(),
                })
                .collect(),
        ),
    }
}

/// Data bytes held by one instance of `node`.
fn node_size(node: &PNode) -> u64 {
    match node {
        PNode::Blocks { block, count, .. } => block * count,
        PNode::Loop { count, size, .. } => count * size,
        PNode::Tail { prefix, .. } => *prefix.last().unwrap_or(&0),
    }
}

/// Blocks one instance of `node` emits, saturating.
fn node_blocks(node: &PNode) -> u64 {
    match node {
        PNode::Blocks { count, .. } => *count,
        PNode::Loop { count, body, .. } => count.saturating_mul(node_blocks(body)),
        PNode::Tail { parts, .. } => parts
            .iter()
            .fold(0u64, |n, p| n.saturating_add(node_blocks(&p.node))),
    }
}

/// The normalization pass: rewrite the raw compile into canonical
/// strided form wherever the type map permits, counting rewrites.
/// Preserves data order and per-node data size exactly, so skip-entry
/// arithmetic is unaffected.
fn normalize(node: PNode, rw: &mut u32) -> PNode {
    match node {
        PNode::Blocks {
            base,
            stride,
            block,
            count,
        } => {
            if count > 1 && stride == block as i64 {
                // stride == block: the blocks are dense — one big block
                *rw += 1;
                blocks(base, (block * count) as i64, block * count, 1)
            } else {
                blocks(base, stride, block, count)
            }
        }
        PNode::Loop {
            base,
            count,
            stride,
            size,
            body,
        } => {
            let body = normalize(*body, rw);
            if count == 1 {
                // unit-count loop: hoist the body
                *rw += 1;
                return shift(body, base);
            }
            // re-run the tiling fold: a normalized body may now collapse
            // (e.g. a dense inner vector that became a single block)
            match tile(body, count, stride, size) {
                PNode::Loop {
                    base: b,
                    count,
                    stride,
                    size,
                    body,
                } => PNode::Loop {
                    base: base + b,
                    count,
                    stride,
                    size,
                    body,
                },
                folded => {
                    *rw += 1;
                    shift(folded, base)
                }
            }
        }
        PNode::Tail { parts, .. } => {
            // normalize parts, splicing nested tails into this one so
            // adjacency is visible across the former nesting boundary
            let mut flat: Vec<Part> = Vec::with_capacity(parts.len());
            for part in parts.iter() {
                match normalize(part.node.clone(), rw) {
                    PNode::Tail { parts: inner, .. } => {
                        *rw += 1;
                        for ip in inner.iter() {
                            flat.push(Part {
                                disp: part.disp + ip.disp,
                                node: ip.node.clone(),
                            });
                        }
                    }
                    n => flat.push(Part {
                        disp: part.disp,
                        node: n,
                    }),
                }
            }
            let merged = merge_adjacent(flat, rw);
            let mut folded = fold_runs(merged, rw);
            if folded.len() == 1 {
                // single-part tail: fold the displacement away
                *rw += 1;
                let Part { disp, node } = folded.pop().unwrap();
                return shift(node, disp);
            }
            tail(folded)
        }
    }
}

/// Merge neighboring `Blocks` parts that continue each other: two
/// touching blocks become one bigger block, and blocks that keep a
/// common stride extend the run. One linear sweep.
fn merge_adjacent(parts: Vec<Part>, rw: &mut u32) -> Vec<Part> {
    let mut out: Vec<Part> = Vec::with_capacity(parts.len());
    for part in parts {
        let Some(prev) = out.last_mut() else {
            out.push(part);
            continue;
        };
        if let Some(merged) = try_merge(prev, &part) {
            *prev = merged;
            *rw += 1;
        } else {
            out.push(part);
        }
    }
    out
}

fn try_merge(a: &Part, b: &Part) -> Option<Part> {
    let PNode::Blocks {
        base: ab,
        stride: astride,
        block: ablock,
        count: ac,
    } = a.node
    else {
        return None;
    };
    let PNode::Blocks {
        base: bb,
        stride: bstride,
        block: bblock,
        count: bc,
    } = b.node
    else {
        return None;
    };
    let a_start = a.disp + ab;
    let b_start = b.disp + bb;
    // touching single blocks (any sizes): one bigger block
    if ac == 1 && bc == 1 && b_start == a_start + ablock as i64 {
        let blk = ablock + bblock;
        return Some(Part {
            disp: 0,
            node: blocks(a_start, blk as i64, blk, 1),
        });
    }
    if ablock != bblock {
        return None;
    }
    // same block size: extend the strided run when the spacing continues.
    // A unit-count side imposes no stride constraint of its own.
    let a_last = a_start + (ac as i64 - 1) * if ac > 1 { astride } else { 0 };
    let step = b_start - a_last;
    if step <= 0 {
        return None;
    }
    let stride_ok = |c: u64, s: i64| c <= 1 || s == step;
    if stride_ok(ac, astride) && stride_ok(bc, bstride) {
        return Some(Part {
            disp: 0,
            node: blocks(a_start, step, ablock, ac + bc),
        });
    }
    None
}

/// Fold maximal runs (length ≥ 2) of structurally identical parts at
/// equally spaced displacements back through [`tile`] — the
/// equal-displacement struct-field / ragged-hindexed shape. A run that
/// tiles to `Blocks` yields a strided prefix; otherwise a `Loop` part.
fn fold_runs(parts: Vec<Part>, rw: &mut u32) -> Vec<Part> {
    let mut out: Vec<Part> = Vec::with_capacity(parts.len());
    let mut i = 0;
    while i < parts.len() {
        if i + 1 < parts.len() && parts[i + 1].node == parts[i].node {
            let step = parts[i + 1].disp - parts[i].disp;
            if step != 0 {
                let mut j = i + 1;
                while j + 1 < parts.len()
                    && parts[j + 1].node == parts[i].node
                    && parts[j + 1].disp - parts[j].disp == step
                {
                    j += 1;
                }
                let n = (j - i + 1) as u64;
                let body = parts[i].node.clone();
                let size = node_size(&body);
                *rw += 1;
                out.push(Part {
                    disp: parts[i].disp,
                    node: tile(body, n, step, size),
                });
                i = j + 1;
                continue;
            }
        }
        out.push(parts[i].clone());
        i += 1;
    }
    out
}

/// [`RunProgram::describe`] of `node` in a program of `n` instances.
fn describe_node(node: &PNode, n: u64) -> String {
    let num = |v: u64| match (v / n, v % n) {
        (1, 0) if n > 1 => "n".to_string(),
        (k @ 2.., 0) if n > 1 => format!("{k}n"),
        _ => v.to_string(),
    };
    let signed = |v: i64| if v > 0 { num(v as u64) } else { v.to_string() };
    match node {
        PNode::Blocks {
            base,
            stride,
            block,
            count,
        } => format!(
            "B({base},{},{},{})",
            signed(*stride),
            num(*block),
            num(*count)
        ),
        PNode::Loop {
            base,
            count,
            stride,
            size,
            body,
        } => format!(
            "L({base},{},{},{})[{}]",
            num(*count),
            signed(*stride),
            num(*size),
            describe_node(body, n)
        ),
        PNode::Tail { parts, .. } => {
            let inner: Vec<String> = parts
                .iter()
                .map(|p| format!("@{} {}", p.disp, describe_node(&p.node, n)))
                .collect();
            format!("T[{}]", inner.join("; "))
        }
    }
}

/// The frames of a program tree: its `Blocks`, `Loop` and `Tail` nodes.
fn frames_of(node: &PNode) -> u32 {
    1 + match node {
        PNode::Blocks { .. } => 0,
        PNode::Loop { body, .. } => frames_of(body),
        PNode::Tail { parts, .. } => parts.iter().map(|p| frames_of(&p.node)).sum(),
    }
}

/// The span of `count` repetitions, `stride` apart from `base`, of a body
/// whose data spans `[lo, hi)`.
fn reps_span(base: i64, count: u64, stride: i64, (lo, hi): (i64, i64)) -> (i64, i64) {
    let last = (count as i64 - 1) * stride;
    (base + lo + last.min(0), base + hi + last.max(0))
}

/// Data bytes below `x` of `count` repetitions, `stride` apart, of a body
/// holding `size` data bytes over `[lo, hi)`, `below` counting one: one
/// division for those wholly below `x`, then a count of each after them
/// that starts below `x` — a single one unless the repetitions overlap.
fn reps_below(
    x: i64,
    count: u64,
    stride: i64,
    size: u64,
    (lo, hi): (i64, i64),
    below: impl Fn(i64) -> u64,
) -> u64 {
    // a count does not depend on order: walk a negative stride backwards
    let (x, stride) = if stride < 0 {
        (x - (count as i64 - 1) * stride, -stride)
    } else {
        (x, stride)
    };
    let mut i = if stride > 0 {
        ((x - hi).div_euclid(stride) + 1).clamp(0, count as i64) as u64
    } else {
        0
    };
    let mut n = i * size;
    while i < count && x - i as i64 * stride > lo {
        n += below(x - i as i64 * stride);
        i += 1;
    }
    n
}

/// Where the interpreter's runs go: `x` fixes the direction (pack gathers
/// out of the typed buffer, unpack scatters into it), `cursor..cap` is the
/// contiguous side still to move. A run waits until the next one shows
/// whether it continues it in the typed layout; then the two are one.
struct Sink<X> {
    x: X,
    cursor: usize,
    cap: usize,
    /// The typed-side window ended before the capacity did.
    clipped: bool,
    /// The waiting run: window position, stream position, bytes.
    run: (usize, usize, usize),
    /// Runs moved, each recorded in `dt.run.len` when `obs`.
    runs: u64,
    obs: bool,
}

impl<X: Xfer> Sink<X> {
    #[inline]
    fn full(&self) -> bool {
        self.cursor == self.cap || self.clipped
    }

    /// One instance of a `Blocks` frame at `origin`, entered after `skip`
    /// data bytes, through the shared frame executor.
    fn frame(&mut self, spec: &StridedSpec, origin: i64, skip: u64) {
        let want = (spec.size() - skip).min((self.cap - self.cursor) as u64) as usize;
        let n = spec.copy_instance(self, origin, skip, self.cursor, want);
        self.cursor += n;
        self.clipped = n < want;
    }

    /// Move the waiting run.
    fn flush(&mut self) {
        let (t, c, n) = std::mem::take(&mut self.run);
        if n > 0 {
            self.x.copy(t, c, n);
            self.runs += 1;
            if self.obs {
                crate::ff::OBS_RUN_LEN.record(n as u64);
            }
        }
    }
}

/// The executor's side of a [`Sink`]: its stream positions follow each
/// other, so a run continues the waiting one where its window position does.
impl<X: Xfer> Xfer for Sink<X> {
    fn lens(&self) -> (usize, usize) {
        self.x.lens()
    }

    #[inline]
    fn copy(&mut self, t: usize, c: usize, n: usize) {
        let (wt, wc, wn) = self.run;
        debug_assert!(
            wn == 0 || c == wc + wn,
            "the executor moves the stream in order"
        );
        if wn > 0 && t == wt + wn {
            self.run.2 += n;
            return;
        }
        self.flush();
        self.run = (t, c, n);
    }

    /// The first block may continue the waiting run and the last one
    /// waits; the blocks between them are one batch.
    #[inline]
    fn blocks(&mut self, t: usize, stride: usize, c: usize, block: usize, n: usize) {
        self.copy(t, c, block);
        if n == 1 {
            return;
        }
        self.flush();
        if n > 2 {
            self.x.blocks(t + stride, stride, c + block, block, n - 2);
            self.runs += n as u64 - 2;
            if self.obs {
                crate::ff::OBS_RUN_LEN.record_n(block as u64, n as u64 - 2);
            }
        }
        self.run = (t + (n - 1) * stride, c + (n - 1) * block, block);
    }
}

/// The [`Xfer`] of [`RunProgram::expand`]: each run's position, `lb`
/// past its window position, and length go to `emit`; nothing is copied.
struct Emit<F> {
    lb: i64,
    emit: F,
}

impl<F: FnMut(i64, u64)> Xfer for Emit<F> {
    fn lens(&self) -> (usize, usize) {
        (i64::MAX as usize, usize::MAX)
    }

    fn copy(&mut self, t: usize, _: usize, n: usize) {
        (self.emit)(self.lb + t as i64, n as u64);
    }

    fn blocks(&mut self, t: usize, stride: usize, _: usize, block: usize, n: usize) {
        (0..n).for_each(|i| self.copy(t + i * stride, 0, block));
    }
}

impl PNode {
    /// The positions one instance's data spans, `[lo, hi)` from its origin.
    fn span(&self) -> (i64, i64) {
        match self {
            PNode::Blocks {
                base,
                stride,
                block,
                count,
            } => reps_span(*base, *count, *stride, (0, *block as i64)),
            PNode::Loop {
                base,
                count,
                stride,
                body,
                ..
            } => reps_span(*base, *count, *stride, body.span()),
            PNode::Tail { span, .. } => *span,
        }
    }

    /// Where data byte `w` of one instance lies, from its origin
    /// ([`RunProgram::offset_of`]); `w` < the node's data size.
    fn offset_of(&self, w: u64) -> i64 {
        match self {
            PNode::Blocks {
                base,
                stride,
                block,
                ..
            } => base + (w / block) as i64 * stride + (w % block) as i64,
            PNode::Loop {
                base,
                stride,
                size,
                body,
                ..
            } => base + (w / size) as i64 * stride + body.offset_of(w % size),
            PNode::Tail { parts, prefix, .. } => {
                // prefix[0] == 0 <= w, so the partition point is >= 1
                let p = prefix.partition_point(|&v| v <= w) - 1;
                parts[p].disp + parts[p].node.offset_of(w - prefix[p])
            }
        }
    }

    /// Data bytes of one instance with positions below `x`, from its
    /// origin ([`RunProgram::bytes_below`]).
    fn bytes_below(&self, x: i64) -> u64 {
        match self {
            PNode::Blocks {
                base,
                stride,
                block,
                count,
            } => {
                let b = *block as i64;
                reps_below(x - base, *count, *stride, *block, (0, b), |y| {
                    y.clamp(0, b) as u64
                })
            }
            PNode::Loop {
                base,
                count,
                stride,
                size,
                body,
            } => reps_below(x - base, *count, *stride, *size, body.span(), |y| {
                body.bytes_below(y)
            }),
            PNode::Tail {
                parts,
                prefix,
                ordered: true,
                ..
            } => {
                // parts before the last one that starts below x lie wholly
                // below it, parts after it wholly above
                let p = parts.partition_point(|p| p.disp + p.node.span().0 < x);
                match p.checked_sub(1) {
                    Some(p) => prefix[p] + parts[p].node.bytes_below(x - parts[p].disp),
                    None => 0,
                }
            }
            PNode::Tail { parts, .. } => parts.iter().map(|p| p.node.bytes_below(x - p.disp)).sum(),
        }
    }

    /// Execute one instance of this node at `origin`, entering after
    /// `skip` data bytes (`skip` < the node's data size). The `O(depth)`
    /// entry divides/searches per frame; thereafter every iteration is a
    /// block copy.
    fn walk<X: Xfer>(&self, origin: i64, skip: u64, sink: &mut Sink<X>) {
        match self {
            PNode::Blocks {
                base,
                stride,
                block,
                count,
            } => {
                let spec = StridedSpec {
                    base: *base,
                    stride: *stride,
                    block: *block,
                    count: *count,
                };
                if skip < spec.size() {
                    sink.frame(&spec, origin, skip);
                }
            }
            PNode::Loop {
                base,
                count,
                stride,
                size,
                body,
            } => {
                let mut i = skip / size;
                let mut s = skip % size;
                let mut org = origin + base + i as i64 * stride;
                while i < *count {
                    body.walk(org, s, sink);
                    if sink.full() {
                        return;
                    }
                    i += 1;
                    s = 0;
                    org += stride;
                }
            }
            PNode::Tail { parts, prefix, .. } => {
                // prefix[0] == 0 <= skip, so the partition point is >= 1
                let mut p = prefix.partition_point(|&v| v <= skip) - 1;
                let mut s = skip - prefix[p];
                while p < parts.len() {
                    let part = &parts[p];
                    part.node.walk(origin + part.disp, s, sink);
                    if sink.full() {
                        return;
                    }
                    p += 1;
                    s = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typemap::reference_pack;
    use crate::types::{Field, Order};

    /// Compile + pack + compare against the typemap oracle for every
    /// skip position.
    fn check_all_skips(d: &Datatype, count: u64) {
        let span = (count as i64 - 1).max(0) * d.extent() as i64 + d.data_ub();
        let src: Vec<u8> = (0..span.max(1) as usize).map(|i| (i % 251) as u8).collect();
        let full = reference_pack(&src, d, count);
        let total = d.size() * count;
        assert_eq!(full.len() as u64, total);
        let prog = d.program();
        for skip in 0..total {
            let mut buf = vec![0u8; (total - skip) as usize];
            let (n, _) = prog.pack_into(&src, 0, count, skip, &mut buf);
            assert_eq!(n as u64, total - skip, "skip {skip}");
            assert_eq!(&buf[..], &full[skip as usize..], "skip {skip}");
            // and unpack back into a fresh buffer, streaming every other
            // time
            let mut dst = vec![0u8; src.len()];
            let store = [Store::Cached, Store::Stream][skip as usize % 2];
            let (m, _) = prog.unpack_into(&buf, &mut dst, 0, count, skip, store);
            assert_eq!(m, n);
            let check = reference_pack(&dst, d, count);
            assert_eq!(&check[skip as usize..], &full[skip as usize..]);
        }
    }

    #[test]
    fn nested_vector_compiles_to_loop_over_blocks() {
        // 3D subarray: cannot reduce to one strided frame
        let d = Datatype::subarray(
            &[4, 4, 4],
            &[2, 2, 2],
            &[1, 1, 1],
            Order::C,
            &Datatype::int(),
        )
        .unwrap();
        assert!(d.as_strided().is_none());
        let prog = d.program();
        assert!(prog.frames() >= 2);
        check_all_skips(&d, 2);
    }

    #[test]
    fn strided_types_compile_to_single_frame() {
        for d in [
            Datatype::vector(8, 1, 2, &Datatype::double()).unwrap(),
            Datatype::contiguous(10, &Datatype::int()).unwrap(),
            Datatype::vector(4, 3, 5, &Datatype::int()).unwrap(),
        ] {
            assert_eq!(d.program().frames(), 1, "{d:?}");
            check_all_skips(&d, 3);
        }
    }

    #[test]
    fn ragged_indexed_compiles_to_tail() {
        let d = Datatype::indexed(&[2, 1, 3], &[0, 4, 8], &Datatype::int()).unwrap();
        assert!(d.as_strided().is_none());
        check_all_skips(&d, 2);
    }

    #[test]
    fn multi_field_struct_with_markers() {
        let v = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 8,
                count: 2,
                child: v,
            },
            Field {
                disp: 100,
                count: 3,
                child: Datatype::int(),
            },
            Field {
                disp: 160,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        check_all_skips(&d, 2);
    }

    #[test]
    fn single_field_struct_folds_displacement() {
        // the subarray placement shape: one field at a nonzero disp
        let d = Datatype::subarray(&[6, 8], &[3, 4], &[2, 1], Order::C, &Datatype::int()).unwrap();
        check_all_skips(&d, 2);
    }

    #[test]
    fn empty_type_has_no_program_body() {
        let d = Datatype::contiguous(0, &Datatype::int()).unwrap();
        let prog = d.program();
        assert_eq!(prog.frames(), 0);
        let mut buf = [0u8; 8];
        assert_eq!(prog.pack_into(&[], 0, 4, 0, &mut buf), (0, 0));
    }

    #[test]
    fn program_is_cached_per_node() {
        let d = Datatype::vector(3, 1, 2, &Datatype::int()).unwrap();
        let a = d.program() as *const RunProgram;
        let b = d.clone().program() as *const RunProgram;
        assert_eq!(a, b, "clones share the cached program");
    }

    #[test]
    fn capped_output_truncates_like_ff_pack() {
        let d = Datatype::vector(3, 2, 4, &Datatype::basic(2)).unwrap();
        let src: Vec<u8> = (0..(d.extent() * 2) as u8).collect();
        let full = reference_pack(&src, &d, 2);
        let total = d.size() * 2;
        let prog = d.program();
        for skip in 0..total {
            for cap in [0u64, 1, 2, 5, total - skip] {
                let mut buf = vec![0u8; cap as usize];
                let (n, _) = prog.pack_into(&src, 0, 2, skip, &mut buf);
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
    fn virtual_buffer_displacement() {
        // window covering positions 16..28 of a 4-block vector
        let d = Datatype::vector(4, 1, 2, &Datatype::int()).unwrap();
        let full: Vec<u8> = (0..d.extent() as u8).collect();
        let window = full[16..28].to_vec();
        let mut buf = vec![0u8; 8];
        let (n, _) = d.program().pack_into(&window, 16, 1, 8, &mut buf);
        assert_eq!(n, 8);
        assert_eq!(&buf[..4], &full[16..20]);
        assert_eq!(&buf[4..], &full[24..28]);
    }
}
