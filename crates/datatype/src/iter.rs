//! `FlatIter`: a lazy, seekable iterator over the contiguous runs of a
//! typed buffer.
//!
//! This is the engine room of flattening-on-the-fly. Instead of
//! materializing an ol-list of `⟨offset, length⟩` tuples (the list-based
//! approach of Section 2 of the paper), `FlatIter` walks the datatype tree
//! with an explicit frame stack:
//!
//! * construction and [`FlatIter::with_skip`] seeking cost
//!   `O(depth · log k)` where `k` bounds the fan-out of indexed/struct
//!   nodes — **independent of the block count** `Nblock`;
//! * each [`FlatIter::next_run`] call emits one maximal-granularity run in
//!   amortized `O(1)`, consolidating whole sub-trees whose data is a single
//!   run (the stand-in for the SX gather/scatter batching);
//! * no allocation is performed after construction beyond the frame stack,
//!   whose size is the tree depth.
//!
//! No production path walks the tree this way: both engines interpret
//! the compiled [`crate::RunProgram`] (the list-based one through
//! [`crate::OlList::flatten`]). `FlatIter` is the tests' tree-walk oracle
//! and the benches' tree-walk baseline.

use crate::typemap::Run;
use crate::types::{Datatype, Node, TypeKind};

/// One stack frame: a position inside `node`'s instance based at `base`.
///
/// `idx`/`idx2` decode per kind:
/// * `Contiguous`: `idx` = next child instance;
/// * `Hvector`: `idx` = next flat element index in `0..count*blocklen`;
/// * `Hindexed`: `idx` = block, `idx2` = element within block;
/// * `Struct`: `idx` = field, `idx2` = element within field;
/// * `Resized`: `idx` = 0 before descending, 1 after.
struct Frame<'a> {
    node: &'a Node,
    base: i64,
    idx: u64,
    idx2: u64,
}

/// Lazy iterator over the contiguous runs of `count` instances of a
/// datatype, in typemap order.
///
/// # Example
///
/// ```
/// use lio_datatype::{Datatype, FlatIter};
///
/// let d = Datatype::vector(2, 2, 3, &Datatype::int()).unwrap();
/// let runs: Vec<_> = FlatIter::new(&d, 1).collect();
/// assert_eq!(runs.len(), 2); // blocks of 8 bytes at 0 and 12
/// assert_eq!(runs[0].disp, 0);
/// assert_eq!(runs[0].len, 8);
/// ```
pub struct FlatIter<'a> {
    root: &'a Node,
    root_ext: i64,
    count: u64,
    /// Next root instance to start.
    inst: u64,
    frames: Vec<Frame<'a>>,
    /// A partial run produced by seeking into the middle of a leaf.
    pending: Option<Run>,
}

impl<'a> FlatIter<'a> {
    /// Iterate over all runs of `count` instances of `d`.
    pub fn new(d: &'a Datatype, count: u64) -> Self {
        FlatIter {
            root: &d.0,
            root_ext: d.extent() as i64,
            count,
            inst: 0,
            frames: Vec::with_capacity(d.depth() as usize + 1),
            pending: None,
        }
    }

    /// Iterate starting after `skipbytes` bytes of data, in
    /// `O(depth · log k)` — the flattening-on-the-fly seek that replaces
    /// the list-based `O(Nblock)` traversal.
    pub fn with_skip(d: &'a Datatype, count: u64, skipbytes: u64) -> Self {
        let mut it = FlatIter::new(d, count);
        let tsize = d.size();
        if tsize == 0 || skipbytes >= tsize.saturating_mul(count) {
            it.inst = count; // exhausted (or empty type)
            return it;
        }
        let inst = skipbytes / tsize;
        let r = skipbytes % tsize;
        if r == 0 {
            it.inst = inst;
        } else {
            it.inst = inst + 1;
            let base = inst as i64 * it.root_ext;
            it.descend(it.root, base, r);
        }
        it
    }

    /// Build the frame stack for a position `r` data bytes into the
    /// instance of `node` based at `base`; `0 < r < node.size`.
    fn descend(&mut self, node: &'a Node, base: i64, r: u64) {
        debug_assert!(r > 0 && r < node.meta.size);
        match &node.kind {
            TypeKind::Basic { size } => {
                self.pending = Some(Run {
                    disp: base + r as i64,
                    len: *size as u64 - r,
                });
            }
            TypeKind::LbMark | TypeKind::UbMark => unreachable!("markers hold no data"),
            TypeKind::Contiguous { child, .. } => {
                let csize = child.size();
                let cext = child.extent() as i64;
                let i = r / csize;
                let rr = r % csize;
                self.frames.push(Frame {
                    node,
                    base,
                    idx: if rr == 0 { i } else { i + 1 },
                    idx2: 0,
                });
                if rr != 0 {
                    self.descend(&child.0, base + i as i64 * cext, rr);
                }
            }
            TypeKind::Hvector {
                blocklen,
                stride,
                child,
                ..
            } => {
                let csize = child.size();
                let cext = child.extent() as i64;
                let k = r / csize;
                let rr = r % csize;
                self.frames.push(Frame {
                    node,
                    base,
                    idx: if rr == 0 { k } else { k + 1 },
                    idx2: 0,
                });
                if rr != 0 {
                    let i = k / blocklen;
                    let j = k % blocklen;
                    self.descend(&child.0, base + i as i64 * stride + j as i64 * cext, rr);
                }
            }
            TypeKind::Hindexed { blocks, child } => {
                let prefix = node
                    .meta
                    .size_prefix
                    .as_ref()
                    .expect("hindexed nodes carry size prefix sums");
                // Last block whose prefix is <= r.
                let b = match prefix.binary_search(&r) {
                    Ok(mut i) => {
                        // skip empty blocks that share the prefix value
                        while i < blocks.len() && prefix[i + 1] == r {
                            i += 1;
                        }
                        i
                    }
                    Err(i) => i - 1,
                };
                let csize = child.size();
                let cext = child.extent() as i64;
                let rb = r - prefix[b];
                let j = rb / csize;
                let rr = rb % csize;
                self.frames.push(Frame {
                    node,
                    base,
                    idx: b as u64,
                    idx2: if rr == 0 { j } else { j + 1 },
                });
                if rr != 0 {
                    self.descend(&child.0, base + blocks[b].disp + j as i64 * cext, rr);
                }
            }
            TypeKind::Struct { fields } => {
                let mut cum = 0u64;
                for (fi, f) in fields.iter().enumerate() {
                    let fsize = f.child.size() * f.count;
                    if fsize == 0 {
                        continue;
                    }
                    if r < cum + fsize {
                        let rf = r - cum;
                        let csize = f.child.size();
                        let cext = f.child.extent() as i64;
                        let j = rf / csize;
                        let rr = rf % csize;
                        self.frames.push(Frame {
                            node,
                            base,
                            idx: fi as u64,
                            idx2: if rr == 0 { j } else { j + 1 },
                        });
                        if rr != 0 {
                            self.descend(&f.child.0, base + f.disp + j as i64 * cext, rr);
                        }
                        return;
                    }
                    cum += fsize;
                }
                unreachable!("r < node.size implies a containing field");
            }
            TypeKind::Resized { child, .. } => {
                self.frames.push(Frame {
                    node,
                    base,
                    idx: 1,
                    idx2: 0,
                });
                self.descend(&child.0, base, r);
            }
        }
    }

    /// Emit the child instance at `base` as a single run if its data is
    /// contiguous, otherwise push a frame to walk it.
    #[inline]
    fn emit_or_push(&mut self, child: &'a Datatype, base: i64) -> Option<Run> {
        let m = &child.0.meta;
        if m.size == 0 {
            return None;
        }
        if let Some(s) = m.single_run {
            return Some(Run {
                disp: base + s,
                len: m.size,
            });
        }
        self.frames.push(Frame {
            node: &child.0,
            base,
            idx: 0,
            idx2: 0,
        });
        None
    }

    /// Produce the next contiguous run, or `None` when exhausted.
    pub fn next_run(&mut self) -> Option<Run> {
        loop {
            if let Some(run) = self.pending.take() {
                return Some(run);
            }
            if self.frames.is_empty() {
                // Start the next root instance.
                if self.inst >= self.count || self.root.meta.size == 0 {
                    return None;
                }
                let base = self.inst as i64 * self.root_ext;
                self.inst += 1;
                if let Some(s) = self.root.meta.single_run {
                    return Some(Run {
                        disp: base + s,
                        len: self.root.meta.size,
                    });
                }
                self.frames.push(Frame {
                    node: self.root,
                    base,
                    idx: 0,
                    idx2: 0,
                });
                continue;
            }

            // Phase 1: advance the top frame, computing the next step while
            // holding the only mutable borrow.
            let step = {
                let top = self.frames.last_mut().expect("checked non-empty");
                let node: &'a Node = top.node;
                let base = top.base;
                match &node.kind {
                    TypeKind::Basic { size } => {
                        // Only reachable when a Basic node ends up on the
                        // stack without consolidation; emit once and pop.
                        if top.idx >= 1 || *size == 0 {
                            Step::Pop
                        } else {
                            top.idx = 1;
                            Step::Emit(Run {
                                disp: base,
                                len: *size as u64,
                            })
                        }
                    }
                    TypeKind::LbMark | TypeKind::UbMark => Step::Pop,
                    TypeKind::Contiguous { count, child } => {
                        if top.idx >= *count {
                            Step::Pop
                        } else {
                            let i = top.idx;
                            top.idx += 1;
                            Step::Visit(child, base + i as i64 * child.extent() as i64)
                        }
                    }
                    TypeKind::Hvector {
                        count,
                        blocklen,
                        stride,
                        child,
                    } => {
                        let total = *count * *blocklen;
                        if top.idx >= total {
                            Step::Pop
                        } else {
                            let k = top.idx;
                            let i = k / *blocklen;
                            let j = k % *blocklen;
                            let m = &child.0.meta;
                            let cext = child.extent() as i64;
                            let pos = base + i as i64 * *stride + j as i64 * cext;
                            // Dense child: the rest of this block is one run.
                            match m.single_run {
                                Some(s) if m.size == cext as u64 && cext > 0 => {
                                    let remaining = *blocklen - j;
                                    top.idx += remaining;
                                    Step::Emit(Run {
                                        disp: pos + s,
                                        len: remaining * m.size,
                                    })
                                }
                                _ => {
                                    top.idx += 1;
                                    Step::Visit(child, pos)
                                }
                            }
                        }
                    }
                    TypeKind::Hindexed { blocks, child } => {
                        if top.idx as usize >= blocks.len() {
                            Step::Pop
                        } else {
                            let b = blocks[top.idx as usize];
                            if top.idx2 >= b.blocklen {
                                top.idx += 1;
                                top.idx2 = 0;
                                Step::Retry
                            } else {
                                let j = top.idx2;
                                let m = &child.0.meta;
                                let cext = child.extent() as i64;
                                let pos = base + b.disp + j as i64 * cext;
                                match m.single_run {
                                    Some(s) if m.size == cext as u64 && cext > 0 => {
                                        let remaining = b.blocklen - j;
                                        top.idx += 1;
                                        top.idx2 = 0;
                                        Step::Emit(Run {
                                            disp: pos + s,
                                            len: remaining * m.size,
                                        })
                                    }
                                    _ => {
                                        top.idx2 += 1;
                                        Step::Visit(child, pos)
                                    }
                                }
                            }
                        }
                    }
                    TypeKind::Struct { fields } => {
                        if top.idx as usize >= fields.len() {
                            Step::Pop
                        } else {
                            let f = &fields[top.idx as usize];
                            if top.idx2 >= f.count {
                                top.idx += 1;
                                top.idx2 = 0;
                                Step::Retry
                            } else {
                                let j = top.idx2;
                                let m = &f.child.0.meta;
                                let cext = f.child.extent() as i64;
                                let pos = base + f.disp + j as i64 * cext;
                                match m.single_run {
                                    Some(s) if m.size == cext as u64 && cext > 0 => {
                                        let remaining = f.count - j;
                                        top.idx += 1;
                                        top.idx2 = 0;
                                        Step::Emit(Run {
                                            disp: pos + s,
                                            len: remaining * m.size,
                                        })
                                    }
                                    _ => {
                                        top.idx2 += 1;
                                        Step::Visit(&f.child, pos)
                                    }
                                }
                            }
                        }
                    }
                    TypeKind::Resized { child, .. } => {
                        if top.idx >= 1 {
                            Step::Pop
                        } else {
                            top.idx += 1;
                            Step::Visit(child, base)
                        }
                    }
                }
            };

            // Phase 2: act on the step without an outstanding frame borrow.
            match step {
                Step::Pop => {
                    self.frames.pop();
                }
                Step::Retry => {}
                Step::Emit(run) => return Some(run),
                Step::Visit(child, pos) => {
                    if let Some(run) = self.emit_or_push(child, pos) {
                        return Some(run);
                    }
                }
            }
        }
    }
}

/// The action computed while the top frame is mutably borrowed.
enum Step<'a> {
    /// The frame is exhausted; pop it.
    Pop,
    /// Internal bookkeeping advanced; look again.
    Retry,
    /// A consolidated run is ready.
    Emit(Run),
    /// Visit a child instance at the given base (emit it whole if its data
    /// is one run, otherwise push a frame).
    Visit(&'a Datatype, i64),
}

impl<'a> Iterator for FlatIter<'a> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        self.next_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typemap::{expand, expand_merged, merge};
    use crate::types::{Field, Order};

    fn collect(d: &Datatype, count: u64) -> Vec<Run> {
        FlatIter::new(d, count).collect()
    }

    /// FlatIter output, merged, must equal the merged reference typemap.
    fn assert_matches_reference(d: &Datatype, count: u64) {
        let got = merge(collect(d, count));
        let want = expand_merged(d, count);
        assert_eq!(got, want, "type {:?} count {}", d, count);
    }

    #[test]
    fn basic_runs() {
        assert_matches_reference(&Datatype::int(), 5);
    }

    #[test]
    fn vector_runs() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        assert_matches_reference(&d, 1);
        assert_matches_reference(&d, 3);
    }

    #[test]
    fn vector_block_consolidation() {
        // dense double child: one run per block, not per element
        let d = Datatype::vector(4, 8, 10, &Datatype::double()).unwrap();
        let runs = collect(&d, 1);
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].len, 64);
    }

    #[test]
    fn nested_vector_runs() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let outer = Datatype::vector(3, 2, 5, &inner).unwrap();
        assert_matches_reference(&outer, 2);
    }

    #[test]
    fn indexed_runs() {
        let d = Datatype::indexed(&[2, 3, 1], &[0, 4, 9], &Datatype::int()).unwrap();
        assert_matches_reference(&d, 2);
    }

    #[test]
    fn struct_runs_with_markers() {
        let v = Datatype::vector(2, 1, 3, &Datatype::int()).unwrap();
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
                disp: 64,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        assert_matches_reference(&d, 3);
    }

    #[test]
    fn subarray_runs() {
        let d =
            Datatype::subarray(&[5, 7], &[3, 4], &[1, 2], Order::C, &Datatype::double()).unwrap();
        assert_matches_reference(&d, 2);
    }

    #[test]
    fn resized_runs() {
        let r = Datatype::resized(&Datatype::int(), 0, 12).unwrap();
        assert_matches_reference(&r, 4);
    }

    #[test]
    fn skip_zero_equals_new() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let a: Vec<Run> = FlatIter::new(&d, 2).collect();
        let b: Vec<Run> = FlatIter::with_skip(&d, 2, 0).collect();
        assert_eq!(a, b);
    }

    /// Seeking to `skip` must yield exactly the reference runs with the
    /// first `skip` data bytes removed.
    fn assert_skip_correct(d: &Datatype, count: u64, skip: u64) {
        let reference = expand(d, count);
        // drop the first `skip` bytes from the reference
        let mut want = Vec::new();
        let mut remaining = skip;
        for r in reference {
            if remaining >= r.len {
                remaining -= r.len;
            } else {
                want.push(Run {
                    disp: r.disp + remaining as i64,
                    len: r.len - remaining,
                });
                remaining = 0;
            }
        }
        let want = merge(want);
        let got = merge(FlatIter::with_skip(d, count, skip).collect());
        assert_eq!(got, want, "type {:?} count {} skip {}", d, count, skip);
    }

    #[test]
    fn skip_every_position_vector() {
        let d = Datatype::vector(3, 2, 4, &Datatype::int()).unwrap();
        let total = d.size() * 2;
        for skip in 0..=total {
            assert_skip_correct(&d, 2, skip);
        }
    }

    #[test]
    fn skip_every_position_indexed() {
        let d = Datatype::indexed(&[2, 1, 3], &[0, 5, 8], &Datatype::int()).unwrap();
        let total = d.size() * 2;
        for skip in 0..=total {
            assert_skip_correct(&d, 2, skip);
        }
    }

    #[test]
    fn skip_every_position_struct() {
        let d = Datatype::struct_type(vec![
            Field {
                disp: 2,
                count: 3,
                child: Datatype::basic(2),
            },
            Field {
                disp: 20,
                count: 1,
                child: Datatype::vector(2, 1, 2, &Datatype::int()).unwrap(),
            },
        ])
        .unwrap();
        let total = d.size() * 2;
        for skip in 0..=total {
            assert_skip_correct(&d, 2, skip);
        }
    }

    #[test]
    fn skip_every_position_nested() {
        let inner = Datatype::vector(2, 3, 4, &Datatype::basic(2)).unwrap();
        let outer = Datatype::indexed(&[1, 2], &[0, 2], &inner).unwrap();
        let total = outer.size() * 2;
        for skip in 0..=total {
            assert_skip_correct(&outer, 2, skip);
        }
    }

    #[test]
    fn skip_past_end_is_empty() {
        let d = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let runs: Vec<Run> = FlatIter::with_skip(&d, 1, d.size()).collect();
        assert!(runs.is_empty());
        let runs: Vec<Run> = FlatIter::with_skip(&d, 1, d.size() + 100).collect();
        assert!(runs.is_empty());
    }

    #[test]
    fn empty_type_yields_nothing() {
        let d = Datatype::contiguous(0, &Datatype::int()).unwrap();
        assert!(collect(&d, 5).is_empty());
        let runs: Vec<Run> = FlatIter::with_skip(&d, 5, 0).collect();
        assert!(runs.is_empty());
    }

    #[test]
    fn zero_count_yields_nothing() {
        let d = Datatype::int();
        assert!(collect(&d, 0).is_empty());
    }

    #[test]
    fn total_bytes_always_match_size() {
        let cases: Vec<Datatype> = vec![
            Datatype::vector(7, 3, 5, &Datatype::double()).unwrap(),
            Datatype::indexed(&[1, 4, 2], &[3, 6, 20], &Datatype::basic(2)).unwrap(),
            Datatype::subarray(
                &[4, 4, 4],
                &[2, 2, 2],
                &[1, 1, 1],
                Order::C,
                &Datatype::int(),
            )
            .unwrap(),
        ];
        for d in &cases {
            let total: u64 = collect(d, 3).iter().map(|r| r.len).sum();
            assert_eq!(total, d.size() * 3);
        }
    }
}
