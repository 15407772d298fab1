//! Compiled datatype run programs.
//!
//! Every listless copy — [`crate::ff_pack`]/[`crate::ff_unpack`] and the
//! fileview window placement of `lio-core` — runs one of these programs.
//! Walking the [`Datatype`] tree per run (what [`crate::FlatIter`] does
//! for the list-based engine's explicit flattening) pays a frame-stack
//! descent and per-node dispatch for every emitted run, which is exactly
//! why derived-datatype copies miss memcpy speed on small blocks. This
//! module *compiles* the tree once into a compact run program —
//! normalized nested loop descriptors (`{count, block, stride}` frames)
//! plus literal run tails for irregular shapes — and interprets that
//! program with tight block-copy loops and no per-run tree re-descent.
//!
//! Normalization happens at compile time, in two stages:
//!
//! * **construction folding** — any subtree that reduces to the canonical
//!   strided form becomes a single [`PNode::Blocks`] frame (this subsumes
//!   contiguous children, unit-count wrappers, dense vectors, and evenly
//!   spaced indexed blocks — the same folding as [`Datatype::as_strided`],
//!   applied at *every* level, not just the root); regular repetition that
//!   cannot fold becomes a [`PNode::Loop`] frame storing the body's data
//!   size so a `skipbytes` entry point divides instead of iterating;
//!   irregular displacement lists (ragged hindexed, multi-field structs)
//!   become a [`PNode::Tail`] with a size-prefix table, entered by binary
//!   search;
//! * **a normalization pass** ([`normalize`]) that rewrites the raw tree
//!   into canonical strided form wherever the type map permits: it merges
//!   adjacent blocks whose spacing equals the block size, hoists
//!   unit-count and single-child loops, splices nested tails, folds
//!   maximal runs of identical equally-spaced tail parts (the
//!   equal-displacement struct-field shape) back into `Blocks`/`Loop`
//!   frames — splitting a ragged tail into a strided prefix plus a short
//!   literal tail — and collapses single-part tails. The
//!   `dt.normalize.{rewrites,frames_before,frames_after}` counters record
//!   what the pass accomplished.
//!
//! After normalization every `Blocks` frame records its kernel selection
//! ([`crate::kernels::Sel`]): block-size class, alignment class, and the
//! fixed-width/SIMD copy kernel that `auto` mode resolves to. The frame
//! itself is copied by the frame executor
//! ([`StridedSpec::copy_instance`]): one direct gather/scatter call per
//! run of whole blocks, no per-block dispatch or division (see
//! [`crate::kernels`]).
//!
//! The interpreter therefore preserves the paper's navigation contract:
//! entry at an arbitrary `skipbytes` costs `O(depth)` (one division per
//! loop frame, one binary search per tail), after which cost is
//! proportional only to the bytes moved.
//!
//! Programs are cached per datatype node behind a `OnceLock`, so repeated
//! I/O on the same fileview or memtype pays compilation once; the
//! `dt.compile.*` counters expose build-vs-hit behavior.

use std::sync::Arc;

use lio_obs::LazyCounter;

use crate::kernels::{self, Mode, Sel};
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
    /// the canonical strided form and the only node that copies bytes;
    /// `kern` records its compile-time kernel selection.
    Blocks {
        base: i64,
        stride: i64,
        block: u64,
        count: u64,
        kern: Sel,
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
    /// entry finds its part by binary search.
    Tail {
        parts: Box<[Part]>,
        prefix: Arc<[u64]>,
    },
}

/// One literal-tail entry: `node` displaced by `disp` bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Part {
    pub(crate) disp: i64,
    pub(crate) node: PNode,
}

/// The canonical `Blocks` constructor: kernel selection happens here,
/// once, at compile time.
fn blocks(base: i64, stride: i64, block: u64, count: u64) -> PNode {
    PNode::Blocks {
        base,
        stride,
        block,
        count,
        kern: Sel::select(block, stride),
    }
}

/// A datatype compiled to a run program. Obtain via
/// [`Datatype::program`]; the instance layout (`size`/`extent`) is
/// duplicated here so the interpreter never touches the tree.
#[derive(Debug)]
pub struct RunProgram {
    pub(crate) root: Option<PNode>,
    pub(crate) size: u64,
    pub(crate) extent: i64,
    frames: u32,
    rewrites: u32,
}

impl Datatype {
    /// The compiled run program for this type, built on first use and
    /// cached on the node (`OnceLock`), so every subsequent pack on the
    /// same fileview or memtype reuses it.
    pub fn program(&self) -> &RunProgram {
        if let Some(p) = self.0.program.get() {
            OBS_COMPILE_CACHE_HITS.incr();
            return p.as_ref();
        }
        self.0
            .program
            .get_or_init(|| {
                let p = RunProgram::compile(self);
                OBS_COMPILE_PROGRAMS.incr();
                OBS_COMPILE_FRAMES.add(p.frames as u64);
                if lio_obs::profile::enabled() {
                    let (loops, tails, mn, mx) =
                        p.root.as_ref().map_or((0, 0, u64::MAX, 0), shape_of);
                    // a single Blocks frame is the fully normalized form:
                    // one strided memcpy loop, no interpreter recursion
                    let normalized = p.frames == 1 && matches!(p.root, Some(PNode::Blocks { .. }));
                    let mut block_sizes = Vec::new();
                    if let Some(root) = &p.root {
                        collect_blocks(root, &mut block_sizes);
                    }
                    lio_obs::profile::record_program(
                        p.frames,
                        loops,
                        tails,
                        mn,
                        mx,
                        normalized,
                        p.rewrites,
                        &block_sizes,
                    );
                }
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
        let before = raw.as_ref().map_or(0, count_frames);
        let mut rewrites = 0u32;
        let root = raw.map(|n| normalize(n, &mut rewrites));
        let frames = root.as_ref().map_or(0, count_frames);
        OBS_NORM_FRAMES_BEFORE.add(before as u64);
        OBS_NORM_FRAMES_AFTER.add(frames as u64);
        if rewrites > 0 {
            OBS_NORM_REWRITES.add(rewrites as u64);
        }
        if let Some(root) = &root {
            // count frames that selected a vector-eligible kernel
            let selected = count_selected(root);
            if selected > 0 {
                kernels::OBS_KERNEL_SELECTED.add(selected);
            }
        }
        RunProgram {
            frames,
            rewrites,
            root,
            size: d.size(),
            extent: d.extent() as i64,
        }
    }

    /// Number of program nodes (loop/tail/block frames).
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Rewrites applied by the normalization pass; 0 means the raw
    /// compile was already canonical.
    pub fn rewrites(&self) -> u32 {
        self.rewrites
    }

    /// A compact structural description, for tests and the profiler:
    /// `B(base,stride,block,count)`, `L(base,count,stride,size)[body]`,
    /// `T[@disp part; ...]`, or `-` for an empty program.
    pub fn describe(&self) -> String {
        self.root.as_ref().map_or_else(|| "-".into(), describe_node)
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
        self.run(x, buf_disp, count, skip)
    }

    /// Unpack `packbuf` into `count` tiled instances of `dst`, skipping
    /// the first `skip` data bytes; `dst[0]` corresponds to typemap
    /// displacement `buf_disp`. Returns `(bytes copied, runs copied)`.
    pub fn unpack_into(
        &self,
        packbuf: &[u8],
        dst: &mut [u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
    ) -> (usize, u64) {
        let x = Scatter {
            contig: packbuf,
            typed: dst,
        };
        self.run(x, buf_disp, count, skip)
    }

    /// Move up to `n` stream bytes from a typed user buffer straight into
    /// `count` tiled instances of `dst` — [`RunProgram::unpack_into`]
    /// without the pack buffer in between. The user side is `ucount`
    /// instances of `from` laid over `user` (byte 0 at typemap
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
    ) -> (usize, u64) {
        let ends = ToWindow { user, window: dst };
        let x = Transfer::new(Stretches::new(from, ucount, uskip), n, ends);
        self.run(x, buf_disp, count, skip)
    }

    /// The inverse of [`RunProgram::transfer_into`]: move up to `n` stream
    /// bytes of `count` tiled instances in `src` straight into the typed
    /// user buffer — [`RunProgram::pack_into`] without the pack buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_out_of(
        &self,
        src: &[u8],
        buf_disp: i64,
        count: u64,
        skip: u64,
        to: &RunProgram,
        user: &mut [u8],
        ucount: u64,
        uskip: u64,
        n: usize,
    ) -> (usize, u64) {
        let ends = ToUser { window: src, user };
        let x = Transfer::new(Stretches::new(to, ucount, uskip), n, ends);
        self.run(x, buf_disp, count, skip)
    }

    /// Interpret the program over `count` tiled instances, in the
    /// direction `x` fixes.
    fn run<X: Xfer>(&self, x: X, buf_disp: i64, count: u64, skip: u64) -> (usize, u64) {
        let Some(root) = &self.root else {
            return (0, 0);
        };
        let total = self.size.saturating_mul(count);
        let (_, contig) = x.lens();
        if skip >= total || contig == 0 {
            return (0, 0);
        }
        let mut sink = Sink {
            cap: (total - skip).min(contig as u64) as usize,
            x,
            cursor: 0,
            runs: 0,
            clipped: false,
            obs: lio_obs::enabled(),
            mode: kernels::mode(),
        };
        let mut inst = skip / self.size;
        let mut s = skip % self.size;
        let mut origin = inst as i64 * self.extent - buf_disp;
        while inst < count && !sink.full() {
            root.walk(origin, s, &mut sink);
            inst += 1;
            s = 0;
            origin += self.extent;
        }
        if sink.obs {
            crate::ff::OBS_COPY_BYTES.add(sink.cursor as u64);
        }
        (sink.cursor, sink.runs)
    }
}

/// Compile one node; `None` when the subtree holds no data.
fn compile_node(d: &Datatype) -> Option<PNode> {
    if d.size() == 0 {
        return None;
    }
    // Any strided-reducible subtree collapses to one Blocks frame.
    if let Some(s) = d.as_strided() {
        return Some(blocks(s.base, s.stride, s.block, s.count));
    }
    match d.kind() {
        // Basic always reduces to strided; markers hold no data.
        TypeKind::Basic { .. } | TypeKind::LbMark | TypeKind::UbMark => {
            unreachable!("leaf types reduce to a Blocks frame or hold no data")
        }
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
            let parts: Vec<Part> = blocks
                .iter()
                .map(|b| Part {
                    disp: b.disp,
                    node: tile(childp.clone(), b.blocklen, cext, csize),
                })
                .collect();
            let prefix =
                d.0.meta
                    .size_prefix
                    .clone()
                    .expect("hindexed nodes carry size prefix sums");
            Some(PNode::Tail {
                parts: parts.into(),
                prefix,
            })
        }
        TypeKind::Struct { fields } => {
            let mut parts = Vec::new();
            let mut prefix = vec![0u64];
            let mut cum = 0u64;
            for f in fields.iter() {
                let fsize = f.child.size() * f.count;
                if fsize == 0 {
                    continue; // markers and empty fields hold no data
                }
                let node = tile(
                    compile_node(&f.child)?,
                    f.count,
                    f.child.extent() as i64,
                    f.child.size(),
                );
                parts.push(Part { disp: f.disp, node });
                cum += fsize;
                prefix.push(cum);
            }
            if parts.len() == 1 {
                // single data field: fold its displacement into the body
                // (the subarray placement shape)
                let Part { disp, node } = parts.pop().unwrap();
                match node {
                    tail @ PNode::Tail { .. } => parts.push(Part { disp, node: tail }),
                    other => return Some(shift(other, disp)),
                }
            }
            Some(PNode::Tail {
                parts: parts.into(),
                prefix: prefix.into(),
            })
        }
        TypeKind::Resized { child, .. } => compile_node(child),
    }
}

/// `n` repetitions of `body` (holding `body_size` data bytes) placed
/// `step` bytes apart: fold into the body's Blocks frame when the
/// repetitions keep blocks evenly spaced (mirroring
/// `StridedSpec::tile`), collapse unit counts, loop otherwise.
fn tile(body: PNode, n: u64, step: i64, body_size: u64) -> PNode {
    debug_assert!(n >= 1, "zero-count subtrees hold no data");
    if n == 1 {
        return body;
    }
    if let PNode::Blocks {
        base,
        stride,
        block,
        count,
        ..
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
            kern,
        } => PNode::Blocks {
            base: base + d,
            stride,
            block,
            count,
            kern,
        },
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
        PNode::Tail { parts, prefix } => {
            let parts: Vec<Part> = parts
                .iter()
                .map(|p| Part {
                    disp: p.disp + d,
                    node: p.node.clone(),
                })
                .collect();
            PNode::Tail {
                parts: parts.into(),
                prefix,
            }
        }
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
            ..
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
            let mut prefix = Vec::with_capacity(folded.len() + 1);
            let mut cum = 0u64;
            prefix.push(0);
            for p in &folded {
                cum += node_size(&p.node);
                prefix.push(cum);
            }
            PNode::Tail {
                parts: folded.into(),
                prefix: prefix.into(),
            }
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
        ..
    } = a.node
    else {
        return None;
    };
    let PNode::Blocks {
        base: bb,
        stride: bstride,
        block: bblock,
        count: bc,
        ..
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

/// Append every `Blocks` frame's block size (for the profiler's
/// block-size histogram).
fn collect_blocks(node: &PNode, sizes: &mut Vec<u64>) {
    match node {
        PNode::Blocks { block, .. } => sizes.push(*block),
        PNode::Loop { body, .. } => collect_blocks(body, sizes),
        PNode::Tail { parts, .. } => {
            for p in parts.iter() {
                collect_blocks(&p.node, sizes);
            }
        }
    }
}

/// `Blocks` frames whose compile-time selection is kernel-eligible.
fn count_selected(node: &PNode) -> u64 {
    match node {
        PNode::Blocks { kern, .. } => u64::from(kern.eligible()),
        PNode::Loop { body, .. } => count_selected(body),
        PNode::Tail { parts, .. } => parts.iter().map(|p| count_selected(&p.node)).sum(),
    }
}

fn describe_node(node: &PNode) -> String {
    match node {
        PNode::Blocks {
            base,
            stride,
            block,
            count,
            ..
        } => format!("B({base},{stride},{block},{count})"),
        PNode::Loop {
            base,
            count,
            stride,
            size,
            body,
        } => format!("L({base},{count},{stride},{size})[{}]", describe_node(body)),
        PNode::Tail { parts, .. } => {
            let inner: Vec<String> = parts
                .iter()
                .map(|p| format!("@{} {}", p.disp, describe_node(&p.node)))
                .collect();
            format!("T[{}]", inner.join("; "))
        }
    }
}

fn count_frames(node: &PNode) -> u32 {
    match node {
        PNode::Blocks { .. } => 1,
        PNode::Loop { body, .. } => 1 + count_frames(body),
        PNode::Tail { parts, .. } => 1 + parts.iter().map(|p| count_frames(&p.node)).sum::<u32>(),
    }
}

/// `(loop_frames, tail_frames, min_block, max_block)` over the tree;
/// `min_block` is `u64::MAX` when no Blocks frame exists.
fn shape_of(node: &PNode) -> (u32, u32, u64, u64) {
    match node {
        PNode::Blocks { block, .. } => (0, 0, *block, *block),
        PNode::Loop { body, .. } => {
            let (l, t, mn, mx) = shape_of(body);
            (l + 1, t, mn, mx)
        }
        PNode::Tail { parts, .. } => {
            let mut acc = (0u32, 1u32, u64::MAX, 0u64);
            for p in parts.iter() {
                let (l, t, mn, mx) = shape_of(&p.node);
                acc = (acc.0 + l, acc.1 + t, acc.2.min(mn), acc.3.max(mx));
            }
            acc
        }
    }
}

/// Where the interpreter's runs go: `x` fixes the direction (pack gathers
/// out of the typed buffer, unpack scatters into it), `cursor..cap` is the
/// contiguous side still to move.
struct Sink<X> {
    x: X,
    cursor: usize,
    cap: usize,
    runs: u64,
    /// The typed-side window ended before the capacity did.
    clipped: bool,
    obs: bool,
    mode: Mode,
}

impl<X: Xfer> Sink<X> {
    #[inline]
    fn full(&self) -> bool {
        self.cursor == self.cap || self.clipped
    }

    /// One instance of a `Blocks` frame at `origin`, entered after `skip`
    /// data bytes, through the shared frame executor.
    fn blocks(&mut self, spec: &StridedSpec, sel: Sel, origin: i64, skip: u64) {
        let want = (spec.size() - skip).min((self.cap - self.cursor) as u64) as usize;
        let kind = kernels::resolve(sel, self.mode);
        let (n, runs) =
            spec.copy_instance(&mut self.x, kind, origin, skip, self.cursor, want, self.obs);
        self.cursor += n;
        self.runs += runs;
        self.clipped = n < want;
    }
}

impl PNode {
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
                kern,
            } => {
                let spec = StridedSpec {
                    base: *base,
                    stride: *stride,
                    block: *block,
                    count: *count,
                };
                if skip < spec.size() {
                    sink.blocks(&spec, *kern, origin, skip);
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
                if i >= *count {
                    return;
                }
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
            PNode::Tail { parts, prefix } => {
                // prefix[0] == 0 <= skip, so the partition point is >= 1
                let mut p = prefix.partition_point(|&v| v <= skip) - 1;
                if p >= parts.len() {
                    return;
                }
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
            // and unpack back into a fresh buffer
            let mut dst = vec![0u8; src.len()];
            let (m, _) = prog.unpack_into(&buf, &mut dst, 0, count, skip);
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
