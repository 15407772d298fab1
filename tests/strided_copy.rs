//! Differential test of the compiled run program and its frame executor
//! through the public `ff_pack_at` / `ff_unpack_at` entry points against
//! the naive typemap reference: every block-size class the executor
//! distinguishes as a single `Blocks` frame, then shapes that compile to
//! more than one frame (the BTIO filetype, a ragged `hindexed`, a
//! vector of vectors) — entry at every offset of the first two blocks,
//! capacities that end mid-block, and windows onto the layout
//! (`buf_disp != 0`) that start in a gap, end mid-block, or are shorter
//! than one block. Unpack targets are pre-filled with a sentinel, so a
//! byte written into a gap fails the comparison.
//!
//! Every run of whole blocks goes through the one fixed-width block copy
//! (`strided_copy`), so the block sizes around its zipped classes
//! (1/2/4/8/16/32 B) are where a slip would show.

use lio_testkit::{corpus_seeds, Rng};
use listless_io::btio::{io::filetype, Decomp};
use listless_io::datatype::typemap::{expand, reference_pack, reference_unpack};
use listless_io::datatype::{ff_pack_at, ff_unpack_at, Datatype};

const SENTINEL: u8 = 0xA5;

fn replay(seed: u64) -> String {
    format!("replay with: LIO_FAULT_SEED={seed} cargo test --test strided_copy")
}

/// One shape under test: the type, its instance count, and the reference
/// view of it — the layout position of every data byte in typemap order,
/// a patterned source buffer, and that buffer packed by the reference.
struct Shape {
    d: Datatype,
    instances: u64,
    pos: Vec<usize>,
    src: Vec<u8>,
    packed: Vec<u8>,
}

impl Shape {
    fn new(d: Datatype, instances: u64) -> Shape {
        let pos: Vec<usize> = expand(&d, instances)
            .iter()
            .flat_map(|r| (0..r.len).map(move |k| (r.disp + k as i64) as usize))
            .collect();
        let span = pos.iter().max().map_or(0, |p| p + 1);
        let src: Vec<u8> = (0..span).map(|i| (i * 7 + 3) as u8).collect();
        let packed = reference_pack(&src, &d, instances);
        Shape {
            d,
            instances,
            pos,
            src,
            packed,
        }
    }

    /// `count` blocks of `block` bytes, `stride` apart, with a 3-byte gap
    /// between instances so tiling is never accidentally dense.
    fn strided(block: u32, stride: i64, count: u64, instances: u64) -> Shape {
        let v = Datatype::hvector(count, 1, stride, &Datatype::basic(block)).unwrap();
        let d = Datatype::resized(&v, 0, v.extent() + 3).unwrap();
        assert!(one_blocks_frame(&d), "{d:?}");
        Shape::new(d, instances)
    }

    fn total(&self) -> usize {
        self.packed.len()
    }

    /// Pack and unpack `cap` bytes from data offset `skip` through the
    /// window `[lo, hi)` of the layout and compare with what the reference
    /// says: the copy covers the data bytes from `skip` on whose positions
    /// lie inside the window, stops at the first one that does not, and
    /// touches nothing else.
    fn check(&self, skip: usize, cap: usize, lo: usize, hi: usize, ctx: &str) {
        let want = self.pos[skip..]
            .iter()
            .take(cap)
            .take_while(|&&p| lo <= p && p < hi)
            .count();
        let ctx = format!(
            "{:?} x{} skip {skip} cap {cap} window {lo}..{hi}; {ctx}",
            self.d, self.instances
        );

        let mut buf = vec![SENTINEL; cap];
        let n = ff_pack_at(
            &self.src[lo..hi],
            lo as i64,
            self.instances,
            &self.d,
            skip as u64,
            &mut buf,
        );
        assert_eq!(n, want, "pack length; {ctx}");
        assert_eq!(&buf[..n], &self.packed[skip..skip + n], "pack bytes; {ctx}");
        assert!(
            buf[n..].iter().all(|&b| b == SENTINEL),
            "pack wrote past its count; {ctx}"
        );

        let mut dst = vec![SENTINEL; hi - lo];
        let m = ff_unpack_at(
            &self.packed[skip..skip + cap],
            &mut dst,
            lo as i64,
            self.instances,
            &self.d,
            skip as u64,
        );
        assert_eq!(m, want, "unpack length; {ctx}");
        let mut expect = vec![SENTINEL; hi - lo];
        for k in skip..skip + want {
            expect[self.pos[k] - lo] = self.packed[k];
        }
        assert_eq!(dst, expect, "unpack bytes; {ctx}");
    }

    /// The whole layout as the window.
    fn check_full(&self, skip: usize, cap: usize, ctx: &str) {
        self.check(skip, cap, 0, self.src.len(), ctx);
    }

    /// A window just around the bytes the copy should touch, widened or
    /// narrowed by `before`/`after` bytes at either end.
    fn check_tight(&self, skip: usize, cap: usize, before: i64, after: i64, ctx: &str) {
        let first = self.pos[skip] as i64;
        let last = self.pos[skip + cap - 1] as i64;
        let span = self.src.len() as i64;
        let lo = (first - before).clamp(0, span);
        let hi = (last + 1 + after).clamp(lo, span);
        self.check(skip, cap, lo as usize, hi as usize, ctx);
    }
}

/// Whether `d` compiles to a program that is one `Blocks` frame (loops
/// and tails have at least one frame below them).
fn one_blocks_frame(d: &Datatype) -> bool {
    d.program().frames() == 1
}

/// The skip × capacity × window matrix for one shape whose blocks are
/// (or start with) `blk` bytes; `salt` separates the seeded draws of
/// different shapes.
fn window_matrix(sh: &Shape, blk: usize, salt: u64, seeds: &[u64]) {
    let total = sh.total();
    let small = blk <= 40;

    // entry at every offset of the first two blocks: small blocks against
    // the whole layout and to the end, large ones a few bytes at a time
    // through a tight window
    for skip in 0..total.min(2 * blk) {
        if small {
            sh.check_full(skip, total - skip, "to the end");
        } else {
            let cap = (1 + skip % 97).min(total - skip);
            sh.check_tight(skip, cap, 2, 2, "tight");
        }
    }
    // capacities that end mid-block, entered on and off a block boundary
    for skip in [0, 1, blk - 1, blk, blk + 1] {
        if skip >= total {
            continue;
        }
        for cap in [1, blk / 2 + 1, blk + blk / 2 + 1, total - skip] {
            sh.check_full(skip, cap.min(total - skip), "cap");
        }
    }
    // windows: starting in the gap before the first byte, starting after
    // it (nothing may move), ending mid-block, ending in a gap, shorter
    // than one block
    let mid = total / 2;
    for skip in [0, mid] {
        let rest = total - skip;
        sh.check_tight(skip, rest, 1, 0, "starts in a gap");
        sh.check_tight(skip, rest, -1, 0, "starts late");
        sh.check_tight(skip, rest, 0, -1, "ends mid-block");
        sh.check_tight(skip, rest, 0, -(blk as i64 / 2 + 1), "ends mid-block");
        sh.check_tight(skip, rest, 2, 1, "ends in a gap");
        let part = (blk / 2).max(1).min(rest);
        sh.check_tight(skip, part, 0, 0, "shorter than a block");
        sh.check_tight(skip, rest.min(blk), 0, -1, "shorter than a block");
    }
    // seeded entries, capacities and windows
    for &seed in seeds {
        let mut rng = Rng::new(seed ^ salt);
        let rounds = if small { 8 } else { 2 };
        for _ in 0..rounds {
            let skip = rng.below(total as u64) as usize;
            let cap = 1 + rng.below((total - skip) as u64) as usize;
            let ctx = replay(seed);
            sh.check_full(skip, cap, &ctx);
            let before = rng.below(2 * blk as u64 + 2) as i64 - blk as i64;
            let after = rng.below(2 * blk as u64 + 2) as i64 - blk as i64;
            sh.check_tight(skip, cap, before, after, &ctx);
        }
    }
}

/// Monotone shapes that do not compile to one `Blocks` frame, each with
/// the size of its first block.
fn multi_frame_shapes() -> Vec<(Datatype, usize)> {
    // the Table 3 filetype: rank 1 of 4 on a 12³ grid, a struct of two
    // cell subarrays with rows of six 40-byte points
    let btio = filetype(&Decomp::new(12, 4).unwrap(), 1);
    // unequal blocks at uneven displacements: a literal tail
    let ragged = Datatype::hindexed(&[3, 1, 2, 5], &[0, 40, 56, 100], &Datatype::basic(8)).unwrap();
    // rows of four 8-byte blocks, rows not continuing the block stride:
    // a loop over one blocks frame
    let row = Datatype::vector(4, 1, 2, &Datatype::basic(8)).unwrap();
    let vv = Datatype::vector(5, 1, 3, &row).unwrap();
    vec![(btio, 240), (ragged, 24), (vv, 8)]
}

#[test]
fn every_class_skip_cap_and_window_matches_reference() {
    let seeds = corpus_seeds();
    for &block in &[1u32, 2, 3, 4, 7, 8, 16, 24, 32, 40, 1280, 16384] {
        let b = block as i64;
        for stride in [b, b + 1, 2 * b, 3 * b + 5] {
            for count in [1u64, 2, 5] {
                for instances in [1u64, 3] {
                    let sh = Shape::strided(block, stride, count, instances);
                    let salt = ((block as u64) << 32) ^ stride as u64;
                    window_matrix(&sh, block as usize, salt, &seeds);
                }
            }
        }
    }
    for (i, (d, blk)) in multi_frame_shapes().into_iter().enumerate() {
        assert!(!one_blocks_frame(&d), "{}", d.program().describe());
        for instances in [1u64, 3] {
            let sh = Shape::new(d.clone(), instances);
            assert_eq!(
                sh.pos[blk - 1],
                sh.pos[0] + blk - 1,
                "first block is {blk} B"
            );
            window_matrix(&sh, blk, 0x5EED ^ i as u64, &seeds);
        }
    }
}

/// Non-positive and overlapping strides go through the single-block step;
/// pin them to the reference, which copies block by block in typemap
/// order (so on unpack a later overlapping block overwrites an earlier
/// one).
#[test]
fn negative_and_overlapping_strides_match_reference() {
    // blocks at 36, 24, 12, 0: the hindexed shift keeps positions >= 0
    let back = Datatype::hvector(4, 1, -12, &Datatype::basic(8)).unwrap();
    let negative = Datatype::hindexed(&[1], &[36], &back).unwrap();
    // 8-byte blocks every 5 bytes: each overlaps the next by 3
    let overlapping = Datatype::hvector(4, 1, 5, &Datatype::basic(8)).unwrap();
    for d in [negative, overlapping] {
        assert!(
            one_blocks_frame(&d),
            "{d:?} must compile to one Blocks frame"
        );
        let count = 2u64;
        let span = ((count as i64 - 1) * d.extent() as i64 + d.data_ub()) as usize;
        let src: Vec<u8> = (0..span).map(|i| (i * 5 + 1) as u8).collect();
        let full = reference_pack(&src, &d, count);
        for skip in 0..full.len() {
            for cap in [1, 5, 8, 13, full.len() - skip] {
                let cap = cap.min(full.len() - skip);
                let mut buf = vec![SENTINEL; cap];
                let n = ff_pack_at(&src, 0, count, &d, skip as u64, &mut buf);
                assert_eq!(n, cap, "{d:?} skip {skip} cap {cap}");
                assert_eq!(buf, &full[skip..skip + cap], "{d:?} skip {skip} cap {cap}");
            }
        }
        // unpack of the whole stream, in one call and in 7-byte pieces
        let stream: Vec<u8> = (0..full.len()).map(|i| (i * 3 + 2) as u8).collect();
        let mut want = vec![SENTINEL; span];
        reference_unpack(&stream, &mut want, &d, count);
        let mut whole = vec![SENTINEL; span];
        assert_eq!(
            ff_unpack_at(&stream, &mut whole, 0, count, &d, 0),
            stream.len()
        );
        assert_eq!(whole, want, "{d:?} whole unpack");
        let mut pieces = vec![SENTINEL; span];
        for (i, piece) in stream.chunks(7).enumerate() {
            let n = ff_unpack_at(piece, &mut pieces, 0, count, &d, i as u64 * 7);
            assert_eq!(n, piece.len());
        }
        assert_eq!(pieces, want, "{d:?} piecewise unpack");
    }
}
