//! Randomized differential tests: random datatype trees are checked
//! against the naive reference typemap expansion, and the listless
//! (flattening-on-the-fly) machinery is checked against the list-based
//! (ol-list) machinery. If these two ever disagree, one of the paper's two
//! I/O engines is wrong.
//!
//! Cases are generated by a deterministic xorshift PRNG (seeded per test),
//! so every run exercises the same corpus and failures are reproducible
//! from the reported case number alone.

use lio_datatype::kernels::Store;
use lio_datatype::typemap::{expand, expand_merged, reference_pack};
use lio_datatype::{
    bytes_below_tiled, ff_extent, ff_offset, ff_pack, ff_pack_at, ff_size, ff_transfer_from,
    ff_transfer_to, ff_unpack, ff_unpack_at, serialize, Datatype, Field, OlList, Run,
};

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An arbitrary (possibly non-monotone) datatype tree with a bounded
/// number of leaf runs. Mirrors the weights of the original strategy:
/// leaf 4, contiguous 2, vector 3, indexed 2, struct 2, resized 1.
fn arb_type(rng: &mut Rng, depth: u32) -> Datatype {
    if depth == 0 {
        return Datatype::basic(rng.range(1, 17) as u32);
    }
    match rng.range(0, 14) {
        0..=3 => Datatype::basic(rng.range(1, 17) as u32),
        4..=5 => {
            let t = arb_type(rng, depth - 1);
            Datatype::contiguous(rng.range(1, 5), &t).unwrap()
        }
        6..=8 => {
            let t = arb_type(rng, depth - 1);
            Datatype::vector(rng.range(1, 5), rng.range(1, 4), rng.range_i64(0, 7), &t).unwrap()
        }
        9..=10 => {
            let t = arb_type(rng, depth - 1);
            let n = rng.range(1, 4) as usize;
            let lens: Vec<u64> = (0..n).map(|_| rng.range(1, 4)).collect();
            let disps: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 13)).collect();
            Datatype::indexed(&lens, &disps, &t).unwrap()
        }
        11..=12 => {
            let t = arb_type(rng, depth - 1);
            let n = rng.range(1, 4) as usize;
            let fields = (0..n)
                .map(|_| Field {
                    disp: rng.range_i64(0, 65),
                    count: rng.range(1, 4),
                    child: t.clone(),
                })
                .collect();
            Datatype::struct_type(fields).unwrap()
        }
        _ => {
            let t = arb_type(rng, depth - 1);
            let pad = rng.range(0, 17);
            let ext = (t.data_ub() - t.data_lb().min(0)).max(0) as u64 + pad;
            Datatype::resized(&t, 0, ext.max(1)).unwrap()
        }
    }
}

/// A monotone filetype-like datatype: strictly forward-moving layout.
fn arb_monotone(rng: &mut Rng, depth: u32) -> Datatype {
    loop {
        let d = arb_type(rng, depth);
        if d.is_monotone() && d.size() > 0 {
            return d;
        }
    }
}

/// Shift a type so that all its data displacements are non-negative, and
/// report a buffer size covering it for `count` instances.
fn buffer_span(d: &Datatype, count: u64) -> (i64, usize) {
    let ext = d.extent() as i64;
    let mut lo = i64::MAX;
    let mut hi = 0i64;
    for i in 0..count as i64 {
        lo = lo.min(i * ext + d.data_lb());
        hi = hi.max(i * ext + d.data_ub());
    }
    if lo == i64::MAX {
        (0, 0)
    } else {
        (lo.min(0), (hi - lo.min(0)).max(0) as usize)
    }
}

const CASES: u64 = 256;

/// OlList::flatten must equal the reference typemap (merged).
#[test]
fn flatten_matches_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x22 ^ case);
        let d = arb_type(&mut rng, 3);
        let count = rng.range(1, 4);
        let l = OlList::flatten(&d, count);
        let want = expand_merged(&d, count);
        assert_eq!(l.segs.len(), want.len(), "case {case}: {d:?}");
        for (s, r) in l.segs.iter().zip(&want) {
            assert_eq!(s.offset, r.disp, "case {case}");
            assert_eq!(s.len, r.len, "case {case}");
        }
    }
}

/// Shapes the random corpus does not reach: negative strides, resized
/// LB/UB extents (and markers), ragged `hindexed`, multi-field structs,
/// `darray` pieces and types that hold no data.
fn picked_shapes() -> Vec<Datatype> {
    use lio_datatype::{darray, Distrib, Order};
    let int = Datatype::int();
    let v = Datatype::vector(3, 2, 4, &int).unwrap();
    let field = |disp: i64, count: u64, child: &Datatype| Field {
        disp,
        count,
        child: child.clone(),
    };
    vec![
        Datatype::vector(5, 1, -2, &int).unwrap(),
        Datatype::hvector(3, 2, -40, &v).unwrap(),
        Datatype::vector(4, 1, 3, &Datatype::vector(2, 1, -1, &int).unwrap()).unwrap(),
        Datatype::resized(&v, -8, 64).unwrap(),
        Datatype::resized(&v, 4, 12).unwrap(),
        Datatype::resized(&Datatype::vector(3, 1, -2, &int).unwrap(), -16, 40).unwrap(),
        Datatype::struct_type(vec![
            field(-4, 1, &Datatype::lb_marker()),
            field(0, 2, &v),
            field(100, 1, &Datatype::ub_marker()),
        ])
        .unwrap(),
        Datatype::hindexed(&[3, 1, 2, 1], &[0, 20, 24, 60], &int).unwrap(),
        Datatype::hindexed(&[2, 1, 3], &[48, 8, -16], &int).unwrap(),
        Datatype::struct_type(vec![
            field(0, 2, &int),
            field(8, 1, &Datatype::double()),
            field(24, 3, &v),
            field(-32, 1, &Datatype::basic(3)),
        ])
        .unwrap(),
        darray(
            4,
            3,
            &[10, 9],
            &[Distrib::Cyclic(2), Distrib::Block],
            &[2, 2],
            Order::C,
            &int,
        )
        .unwrap(),
        darray(
            2,
            0,
            &[6, 5, 4],
            &[Distrib::Block, Distrib::None, Distrib::Cyclic(1)],
            &[2, 1, 1],
            Order::Fortran,
            &Datatype::double(),
        )
        .unwrap(),
        Datatype::contiguous(0, &int).unwrap(),
        Datatype::struct_type(vec![
            field(0, 1, &Datatype::lb_marker()),
            field(16, 1, &Datatype::ub_marker()),
        ])
        .unwrap(),
        Datatype::hindexed(&[0, 0], &[4, 12], &int).unwrap(),
    ]
}

/// `OlList::flatten` expands the compiled run program; the reference
/// typemap's tree walk, merged, yields the same list segment for segment.
#[test]
fn flatten_is_the_tree_walk_merged() {
    let mut corpus = picked_shapes();
    for case in 0..CASES {
        let mut rng = Rng::new(0x2B ^ case);
        corpus.push(arb_type(&mut rng, 3));
    }
    for (case, d) in corpus.iter().enumerate() {
        for count in [1u64, 2, 3, 5] {
            let got: Vec<Run> = OlList::flatten(d, count)
                .segs
                .iter()
                .map(|s| Run {
                    disp: s.offset,
                    len: s.len,
                })
                .collect();
            let want = expand_merged(d, count);
            assert_eq!(got, want, "case {case}, count {count}: {d:?}");
        }
    }
}

/// The runs of a stream from its data byte `skip` on, as few as its
/// typemap allows: those of the merged typemap `merged` that end past
/// `skip`.
fn fewest_runs(merged: &[Run], skip: u64) -> u64 {
    let mut end = 0;
    merged
        .iter()
        .filter(|r| (end += r.len, end > skip).1)
        .count() as u64
}

/// A copy emits the fewest runs its typemap allows: from every data byte
/// of one and of three instances, pack, unpack and both transfers (the
/// other side a contiguous stream) report as many runs as the merged
/// typemap holds from there, on the corpus and on typemap-equivalent
/// constructions, which also compile to one program:
/// `contiguous(n·k, T)`, `contiguous(n, contiguous(k, T))` and a vector
/// whose stride is its block; and the byte, whose instances are one run.
#[test]
fn copies_emit_the_fewest_runs_their_typemap_allows() {
    let int = Datatype::int();
    let mut corpus = vec![Datatype::byte()];
    for t in [Datatype::basic(3), Datatype::vector(2, 1, 3, &int).unwrap()] {
        let twins = [
            Datatype::contiguous(12, &t).unwrap(),
            Datatype::contiguous(3, &Datatype::contiguous(4, &t).unwrap()).unwrap(),
            Datatype::vector(3, 4, 4, &t).unwrap(),
        ];
        for twin in &twins[1..] {
            let (a, b) = (twins[0].program(), twin.program());
            assert_eq!(a.describe(), b.describe(), "{twin:?}");
        }
        corpus.extend(twins);
    }
    corpus.extend(picked_shapes());
    for case in 0..CASES {
        let mut rng = Rng::new(0x3C ^ case);
        corpus.push(arb_type(&mut rng, 3));
    }
    let stream = Datatype::byte();
    let stream = stream.program();
    for (case, d) in corpus.iter().enumerate() {
        for count in [1u64, 3] {
            let (origin, span) = buffer_span(d, count);
            let total = d.size() * count;
            let merged = expand_merged(d, count);
            let prog = d.program();
            let typed: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
            let (mut out, mut whole) = (typed.clone(), vec![0u8; total as usize]);
            // every byte of a short stream; of a long one, each run's first
            // two and last
            let starts: Vec<u64> = (merged.iter())
                .scan(0, |end, r| Some((*end, *end += r.len).0))
                .chain([total])
                .collect();
            let near = |s: u64| total <= 256 || starts.iter().any(|&e| s + 1 >= e && s <= e + 1);
            for skip in (0..total).filter(|&s| near(s)) {
                let n = (total - skip) as usize;
                let packed = &mut whole[..n];
                let (o, c) = (origin, count);
                let got = [
                    prog.pack_into(&typed, o, c, skip, packed),
                    prog.unpack_into(packed, &mut out, o, c, skip, Store::Cached),
                    prog.transfer_into(
                        &mut out,
                        o,
                        c,
                        skip,
                        stream,
                        packed,
                        n as u64,
                        0,
                        n,
                        Store::Cached,
                    ),
                    prog.transfer_out_of(&typed, o, c, skip, stream, packed, 0, n as u64, 0, n),
                ];
                let want = (n, fewest_runs(&merged, skip));
                for (what, got) in ["pack", "unpack", "transfer to", "transfer from"]
                    .iter()
                    .zip(got)
                {
                    assert_eq!(
                        got, want,
                        "{what}, case {case} × {count} from {skip}: {d:?}"
                    );
                }
            }
        }
    }
}

/// The benchmark's types flatten to the lists their shapes predict: one
/// entry per block, less one per seam where instances abut.
#[test]
fn benchmark_shapes_flatten_to_their_block_counts() {
    use lio_datatype::Order;
    let fig4_memtype = |sblock: u32, nblock: u64| {
        Datatype::vector(nblock, 1, 2, &Datatype::basic(sblock)).unwrap()
    };
    let fig4_filetype = |p: i64| {
        let v = Datatype::vector(4096, 1, 2, &Datatype::basic(8)).unwrap();
        Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: p * 8,
                count: 1,
                child: v,
            },
            Field {
                disp: 2 * 4096 * 8,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap()
    };
    let point = Datatype::basic(40);
    let tile_file = |r: u64| {
        Datatype::subarray(
            &[64, 64, 64],
            &[64, 64, 32],
            &[0, 0, 32 * r],
            Order::C,
            &point,
        )
    };
    let tile_mem = Datatype::subarray(&[66, 66, 34], &[64, 64, 32], &[1, 1, 1], Order::C, &point);
    let small = fig4_memtype(8, 4096);
    assert_eq!(small.extent(), 65_528, "instances abut");
    let cases = [
        ("figure-4 memtype x4", small.clone(), 4, 16_381),
        ("figure-4 memtype x32", small, 32, 131_041),
        ("figure-4 filetype, rank 0", fig4_filetype(0), 1, 4_096),
        ("figure-4 filetype, rank 1", fig4_filetype(1), 1, 4_096),
        ("tile filetype, rank 0", tile_file(0).unwrap(), 1, 4_096),
        ("tile filetype, rank 1", tile_file(1).unwrap(), 1, 4_096),
        ("tile memtype", tile_mem.unwrap(), 1, 4_096),
        ("large memtype x64", fig4_memtype(16_384, 8), 64, 449),
    ];
    for (what, d, count, entries) in cases {
        let l = OlList::flatten(&d, count);
        assert_eq!(l.num_blocks(), entries, "{what}");
        assert_eq!(l.total_data(), d.size() * count, "{what}");
        let want = expand_merged(&d, count);
        assert_eq!(l.num_blocks(), want.len(), "{what}");
    }
}

/// ff_pack must equal the reference pack for every skip/cap split, and
/// the ol-list pack must agree with both.
#[test]
fn pack_engines_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x44 ^ case);
        let d = arb_type(&mut rng, 3);
        let count = rng.range(1, 3);
        let frac = rng.f64();
        let (origin, span) = buffer_span(&d, count);
        // negative displacements need windowed packing
        if origin != 0 || span == 0 || span >= 1 << 20 {
            continue;
        }
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let want = reference_pack(&src, &d, count);
        let total = d.size() * count;
        let skip = ((total as f64) * frac) as u64;

        let mut ff = vec![0u8; (total - skip) as usize];
        let n = ff_pack(&src, count, &d, skip, &mut ff);
        assert_eq!(n as u64, total - skip, "case {case}");
        assert_eq!(&ff[..], &want[skip as usize..], "case {case}: {d:?}");

        let ol = OlList::flatten(&d, count);
        let mut lb = vec![0u8; (total - skip) as usize];
        let m = ol.pack(&src, skip, &mut lb);
        assert_eq!(m as u64, total - skip, "case {case}");
        assert_eq!(lb, ff, "case {case}: {d:?}");
    }
}

/// Unpacking what was packed restores the original data runs,
/// through both engines.
#[test]
fn unpack_roundtrip_engines() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x55 ^ case);
        let d = arb_type(&mut rng, 3);
        let count = rng.range(1, 3);
        let (origin, span) = buffer_span(&d, count);
        if origin != 0 || span == 0 || span >= 1 << 20 {
            continue;
        }
        let src: Vec<u8> = (0..span).map(|i| (i % 241) as u8).collect();
        let packed = reference_pack(&src, &d, count);

        let mut ff_dst = vec![0u8; span];
        ff_unpack(&packed, &mut ff_dst, count, &d, 0);
        let ol = OlList::flatten(&d, count);
        let mut ol_dst = vec![0u8; span];
        ol.unpack(&packed, &mut ol_dst, 0);
        assert_eq!(&ff_dst, &ol_dst, "case {case}: {d:?}");
        // data positions hold source data (non-overlapping types only:
        // merged reference runs must not overlap for this check)
        let runs = expand_merged(&d, count);
        let non_overlapping = runs
            .windows(2)
            .all(|w| w[0].disp + w[0].len as i64 <= w[1].disp);
        if non_overlapping {
            for r in &runs {
                let o = r.disp as usize;
                assert_eq!(
                    &ff_dst[o..o + r.len as usize],
                    &src[o..o + r.len as usize],
                    "case {case}"
                );
            }
        }
    }
}

/// ff navigation must agree with linear ol-list navigation on monotone
/// types: offset_of, size_in_window.
#[test]
fn navigation_engines_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x66 ^ case);
        let d = arb_monotone(&mut rng, 3);
        let frac = rng.f64();
        let extent = rng.range(0, 256);
        // ff navigation works on the unbounded tiled layout; flatten enough
        // instances to cover the probed window
        let insts = extent / d.extent().max(1) + 2;
        let ol = OlList::flatten(&d, insts);
        let total = d.size() * insts;
        let skip = ((total as f64) * frac) as u64;
        if skip < total {
            assert_eq!(
                Some(ff_offset(&d, skip)),
                ol.offset_of(skip),
                "case {case}: {d:?}"
            );
        }
        // window starting at the data start
        let lo = ff_offset(&d, 0);
        assert_eq!(
            ff_size(&d, 0, extent),
            ol.size_in_window(lo, lo + extent as i64),
            "case {case}: {d:?}"
        );
    }
}

/// bytes_below_tiled is the exact inverse of ff_offset.
#[test]
fn offset_inverse() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x77 ^ case);
        let d = arb_monotone(&mut rng, 3);
        let n = rng.range(0, 512);
        let p = ff_offset(&d, n);
        assert_eq!(bytes_below_tiled(&d, p), n, "case {case}: {d:?}");
        assert_eq!(bytes_below_tiled(&d, p + 1), n + 1, "case {case}: {d:?}");
    }
}

/// ff_extent and ff_size compose exactly on monotone types.
#[test]
fn size_extent_compose() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x88 ^ case);
        let d = arb_monotone(&mut rng, 3);
        let skip = rng.range(0, 128);
        let size = rng.range(1, 256);
        let e = ff_extent(&d, skip, size);
        assert_eq!(ff_size(&d, skip, e), size, "case {case}: {d:?}");
    }
}

/// Navigation against the reference typemap alone: the positions of the
/// data bytes of enough tiled instances, sorted, answer every question.
/// `bytes_below_tiled` at every position of the first two extents (the
/// one question the mergeview asks, so the only one for a type that is not
/// monotone); on a monotone type also `ff_offset` of every data byte of two
/// instances, and from each, `ff_size` of five windows and `ff_extent` of
/// four spans.
fn check_navigation(d: &Datatype, what: &str) {
    let (size, ext) = (d.size(), d.extent() as i64);
    // instance k's data starts at or past k·ext, so these instances hold
    // every data byte below x_max, past the end of the widest window
    let x_max = 4 * ext + d.data_ub() + 8;
    let count = (x_max / ext + 1) as u64;
    let mut pos: Vec<i64> = expand(d, count)
        .iter()
        .flat_map(|r| (0..r.len as i64).map(move |k| r.disp + k))
        .collect();
    pos.sort_unstable();
    let below = |x: i64| pos.partition_point(|&p| p < x) as u64;
    for x in -1..=2 * ext {
        assert_eq!(bytes_below_tiled(d, x), below(x), "{what}: below {x}");
    }
    if !d.is_monotone() {
        return;
    }
    for n in 0..2 * size {
        let at = pos[n as usize];
        assert_eq!(ff_offset(d, n), at, "{what}: byte {n}");
        for window in [0, 1, 7, ext / 2 + 1, ext] {
            let want = below(at + window) - n;
            assert_eq!(
                ff_size(d, n, window as u64),
                want,
                "{what}: {window} B from byte {n}"
            );
        }
        for span in [0, 1, 5, size] {
            let want = pos[(n + span) as usize] - at;
            assert_eq!(
                ff_extent(d, n, span) as i64,
                want,
                "{what}: {span} B from byte {n}"
            );
        }
    }
}

/// `ff_offset`, `bytes_below_tiled`, `ff_size` and `ff_extent`, which
/// navigate the compiled program, against the typemap: the monotone
/// corpus, then three pinned shapes that reach the program's searches and
/// sums —
/// - the Figure-4 mergeview at P ∈ {2, 3, 4}, both as the collective
///   builds it (a struct of the ranks' marker-bounded filetypes at one
///   displacement, which compiles to a tail whose parts interleave) and as
///   the paper draws it (one vector per rank at the rank's displacement,
///   which compiles to a loop whose repetitions overlap);
/// - a ragged `hindexed` that compiles to one long tail;
/// - a `resized` memtype with `lb` = −8, navigated as
///   `MemPacker::buffer_range` navigates a lent user buffer.
#[test]
fn navigation_matches_the_typemap() {
    let field = |disp: i64, count: u64, child: &Datatype| Field {
        disp,
        count,
        child: child.clone(),
    };
    for case in 0..CASES {
        let mut rng = Rng::new(0xAA ^ case);
        // tiled navigation needs each instance's data inside one extent
        let d = loop {
            let d = arb_monotone(&mut rng, 3);
            if d.data_ub() - d.data_lb() <= d.extent() as i64 {
                break d;
            }
        };
        check_navigation(&d, &format!("case {case}: {d:?}"));
    }
    for p in 2..=4i64 {
        for (sblock, nblock) in [(8u32, 5u64), (3, 16)] {
            let s = sblock as i64;
            let v = Datatype::vector(nblock, 1, p, &Datatype::basic(sblock)).unwrap();
            let ext = p * s * nblock as i64;
            let filetype = |r: i64| {
                Datatype::struct_type(vec![
                    field(0, 1, &Datatype::lb_marker()),
                    field(r * s, 1, &v),
                    field(ext, 1, &Datatype::ub_marker()),
                ])
                .unwrap()
            };
            let views = (0..p).map(|r| field(0, 1, &filetype(r))).collect();
            let drawn = (0..p).map(|r| field(r * s, 1, &v)).collect();
            for (form, fields) in [("collective", views), ("drawn", drawn)] {
                let merged = Datatype::struct_type(fields).unwrap();
                let merged = Datatype::resized(&merged, 0, ext as u64).unwrap();
                assert_eq!(merged.size() as i64, ext, "the views fill the extent");
                check_navigation(
                    &merged,
                    &format!("{form} mergeview P={p} {sblock}x{nblock}"),
                );
            }
        }
    }
    let lens: Vec<u64> = (0..200).map(|i| 1 + i * 7 % 5).collect();
    let disps: Vec<i64> = (0..200)
        .scan(0i64, |at, i| {
            let d = *at;
            *at += (1 + i * 7 % 5 + 1 + i * 3 % 4) as i64;
            Some(d)
        })
        .collect();
    let ragged = Datatype::indexed(&lens, &disps, &Datatype::int()).unwrap();
    let prog = ragged.program().describe();
    assert!(prog.matches('@').count() >= 100, "a long tail: {prog}");
    check_navigation(&ragged, "ragged hindexed");
    let v = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
    let memtype = Datatype::resized(&v, -8, 48).unwrap();
    assert_eq!((memtype.lb(), memtype.data_lb()), (-8, 0));
    check_navigation(&memtype, "resized memtype, lb -8");
}

/// Serialization round-trips structurally.
#[test]
fn serialize_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x99 ^ case);
        let d = arb_type(&mut rng, 4);
        let bytes = serialize::encode(&d);
        let back = serialize::decode(&bytes).unwrap();
        assert!(d.structurally_equal(&back), "case {case}: {d:?}");
        assert_eq!(d.size(), back.size(), "case {case}");
        assert_eq!(d.extent(), back.extent(), "case {case}");
        assert_eq!(d.lb(), back.lb(), "case {case}");
        assert_eq!(d.ub(), back.ub(), "case {case}");
        assert_eq!(d.leaf_runs(), back.leaf_runs(), "case {case}");
    }
}

/// Cached metadata is consistent with the reference expansion.
#[test]
fn metadata_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xAA ^ case);
        let d = arb_type(&mut rng, 3);
        let runs = expand(&d, 1);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, d.size(), "case {case}: {d:?}");
        assert_eq!(runs.len() as u64, d.leaf_runs(), "case {case}: {d:?}");
        if !runs.is_empty() {
            let lo = runs.iter().map(|r| r.disp).min().unwrap();
            let hi = runs.iter().map(|r| r.disp + r.len as i64).max().unwrap();
            assert_eq!(lo, d.data_lb(), "case {case}");
            assert_eq!(hi, d.data_ub(), "case {case}");
        }
        // single_run claim must be accurate
        if let Some(s) = d.single_run() {
            let merged = expand_merged(&d, 1);
            assert_eq!(merged.len(), 1, "case {case}");
            assert_eq!(merged[0].disp, s, "case {case}");
            assert_eq!(merged[0].len, d.size(), "case {case}");
        }
        // monotone claim must never be a false positive
        if d.is_monotone() {
            let mut prev = i64::MIN;
            let mut sorted = true;
            for r in &runs {
                if r.disp < prev || r.disp < 0 {
                    sorted = false;
                    break;
                }
                prev = r.disp + r.len as i64;
            }
            assert!(
                sorted,
                "case {case}: monotone type with unsorted runs: {runs:?}"
            );
        }
    }
}

/// darray types of all ranks partition the global array: every element
/// owned exactly once, regardless of distribution mix.
#[test]
fn darray_partitions() {
    use lio_datatype::Order;
    use lio_datatype::{darray, Distrib};
    for case in 0..64u64 {
        let mut rng = Rng::new(0xBB ^ case);
        let (g0, g1) = (rng.range(1, 12), rng.range(1, 12));
        let (p0, p1) = (rng.range(1, 3), rng.range(1, 3));
        let (d0, d1) = (rng.range(0, 3) as usize, rng.range(0, 3) as usize);
        let (b0, b1) = (rng.range(1, 4), rng.range(1, 4));
        let pick = |d: usize, b: u64, p: u64| match d {
            0 if p == 1 => Distrib::None,
            0 => Distrib::Block,
            1 => Distrib::Block,
            _ => Distrib::Cyclic(b),
        };
        let distribs = [pick(d0, b0, p0), pick(d1, b1, p1)];
        let psizes = [p0, p1];
        let gsizes = [g0, g1];
        let nprocs = p0 * p1;
        let total = (g0 * g1) as usize;
        let mut covered = vec![false; total];
        for rank in 0..nprocs {
            let t = darray(
                nprocs,
                rank,
                &gsizes,
                &distribs,
                &psizes,
                Order::C,
                &Datatype::byte(),
            )
            .unwrap();
            assert_eq!(t.extent() as usize, total, "case {case}");
            assert!(t.is_monotone(), "case {case}");
            for r in expand(&t, 1) {
                for k in 0..r.len as i64 {
                    let el = (r.disp + k) as usize;
                    assert!(!covered[el], "case {case}: element {el} owned twice");
                    covered[el] = true;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "case {case}: array not fully covered"
        );
    }
}

/// as_strided, when present, describes exactly the same bytes as the
/// reference typemap.
#[test]
fn strided_spec_matches_typemap() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xCC ^ case);
        let d = arb_type(&mut rng, 3);
        if let Some(spec) = d.as_strided() {
            let mut from_spec: Vec<(i64, i64)> = Vec::new();
            for j in 0..spec.count as i64 {
                from_spec.push((spec.base + j * spec.stride, spec.block as i64));
            }
            let mut spec_bytes: Vec<i64> = from_spec.iter().flat_map(|&(o, l)| o..o + l).collect();
            spec_bytes.sort_unstable();
            let mut map_bytes: Vec<i64> = expand(&d, 1)
                .iter()
                .flat_map(|r| r.disp..r.disp + r.len as i64)
                .collect();
            map_bytes.sort_unstable();
            assert_eq!(spec_bytes, map_bytes, "case {case}: {d:?}");
        }
    }
}

/// ff navigation with degenerate arguments: empty windows hold no data,
/// empty spans cover no extent, and counting over a data-free (marker
/// only) type is well-defined and zero everywhere.
#[test]
fn ff_edge_empty_windows_and_zero_size_types() {
    let d = Datatype::vector(4, 3, 8, &Datatype::byte()).unwrap();
    for skip in [0u64, 1, 3, 7, 12] {
        assert_eq!(ff_size(&d, skip, 0), 0, "empty window at skip {skip}");
        assert_eq!(ff_extent(&d, skip, 0), 0, "empty span at skip {skip}");
        // composing the two degenerate forms stays degenerate
        assert_eq!(ff_size(&d, skip, ff_extent(&d, skip, 0)), 0);
    }
    // a type holding only LB/UB markers has size 0: tiled counting must
    // report no data at any position instead of dividing by zero
    let markers = Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: 16,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap();
    assert_eq!(markers.size(), 0);
    assert_eq!(markers.extent(), 16);
    for x in [0i64, 1, 15, 16, 17, 1000] {
        assert_eq!(bytes_below_tiled(&markers, x), 0, "marker type at {x}");
    }
}

/// skipbytes landing exactly on block boundaries: the position is the
/// block start, a window of one block holds exactly that block, and the
/// extent to the next data byte jumps the stride gap — including across
/// the instance boundary, where the gap after the last block vanishes.
#[test]
fn ff_skip_on_block_boundaries() {
    // 6 blocks of 8 bytes at stride 20; extent (6-1)*20 + 8 = 108
    let d = Datatype::vector(6, 8, 20, &Datatype::byte()).unwrap();
    assert_eq!(d.extent(), 108);
    for k in 0..12u64 {
        let skip = k * 8; // first data byte of block k
        let (inst, blk) = (k / 6, k % 6);
        assert_eq!(
            ff_offset(&d, skip),
            (inst * 108 + blk * 20) as i64,
            "block {k} start"
        );
        // one block's extent holds exactly one block of data
        assert_eq!(ff_size(&d, skip, 8), 8, "block {k}");
        // a full stride holds the block and stops before the next one —
        // except after the final block, where the next instance's first
        // block starts only 8 bytes later and the stride spans both
        let in_stride = ff_size(&d, skip, 20);
        assert_eq!(in_stride, if blk == 5 { 16 } else { 8 }, "block {k}");
        // extent to the next data byte: the stride gap inside an
        // instance, the bare block at the instance seam
        assert_eq!(
            ff_extent(&d, skip, 8),
            if blk == 5 { 8 } else { 20 },
            "block {k}"
        );
        // exact composition at the boundary, spanning multiple blocks
        for size in [1u64, 7, 8, 9, 16, 47] {
            let e = ff_extent(&d, skip, size);
            assert_eq!(ff_size(&d, skip, e), size, "block {k} size {size}");
        }
    }
}

/// LB/UB markers widen the extent without adding data: navigation must
/// tile instances at the marker extent and count no data in the padding.
#[test]
fn ff_honors_lb_ub_markers() {
    // 3 blocks of 4 bytes at stride 10, shifted to disp 2, UB pushing
    // the extent from 26 out to 64
    let v = Datatype::vector(3, 4, 10, &Datatype::byte()).unwrap();
    let d = Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: 2,
            count: 1,
            child: v,
        },
        Field {
            disp: 64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap();
    assert_eq!(d.size(), 12);
    assert_eq!(d.extent(), 64);
    // instance 1's first data byte sits one marker-widened extent later
    assert_eq!(ff_offset(&d, 0), 2);
    assert_eq!(ff_offset(&d, 12), 64 + 2);
    // one full extent from the data start holds exactly one instance's
    // data; the UB padding contributes nothing
    assert_eq!(ff_size(&d, 0, 64), 12);
    assert_eq!(bytes_below_tiled(&d, 26), 12, "all data below data_ub");
    assert_eq!(bytes_below_tiled(&d, 64), 12, "padding holds no data");
    // exact composition across the padding and the instance seam
    for skip in [0u64, 4, 8, 11, 12, 17] {
        for size in [1u64, 3, 12, 25] {
            let e = ff_extent(&d, skip, size);
            assert_eq!(ff_size(&d, skip, e), size, "skip {skip} size {size}");
        }
    }
    // the ol-list agrees with ff on the marker-widened layout
    let ol = OlList::flatten(&d, 3);
    for skip in [0u64, 5, 12, 20] {
        assert_eq!(Some(ff_offset(&d, skip)), ol.offset_of(skip), "skip {skip}");
    }
}

/// One side of a transfer under test: `count` instances of `dtype` over a
/// buffer of `span` bytes.
struct Side {
    dtype: Datatype,
    count: u64,
    span: usize,
    /// `span` bytes that tell positions apart.
    bytes: Vec<u8>,
}

impl Side {
    /// `None` where the data starts before byte 0 or the buffer is empty.
    fn new(dtype: &Datatype, count: u64) -> Option<Side> {
        let (origin, span) = buffer_span(dtype, count);
        (origin == 0 && span > 0).then(|| Side::over(dtype, count, span))
    }

    fn over(dtype: &Datatype, count: u64, span: usize) -> Side {
        Side {
            dtype: dtype.clone(),
            count,
            span,
            bytes: (0..span).map(|i| (i * 7 % 251) as u8).collect(),
        }
    }

    fn total(&self) -> u64 {
        self.dtype.size() * self.count
    }

    /// The buffer, its bytes told apart from another `salt`'s.
    fn fill(&self, salt: u8) -> Vec<u8> {
        self.bytes.iter().map(|b| b ^ salt).collect()
    }
}

/// Both directions of one transfer against the composition they replace:
/// `n` bytes between the user stream from `uskip` and the window stream
/// from `wskip`, the window being bytes `[lo, hi)` of its side's buffer.
fn transfer_is_pack_then_unpack(
    user: &Side,
    uskip: u64,
    win: &Side,
    wskip: u64,
    (lo, hi): (usize, usize),
    n: usize,
    ctx: impl Fn() -> String,
) {
    let (ut, wt) = (&user.dtype, &win.dtype);
    let disp = lo as i64;
    let mut packed = vec![0u8; n];

    // user -> window
    let src = user.fill(1);
    let k = ff_pack(&src, user.count, ut, uskip, &mut packed);
    let mut want = win.fill(2);
    let placed = ff_unpack_at(&packed[..k], &mut want[lo..hi], disp, win.count, wt, wskip);
    let mut got = win.fill(2);
    let moved = ff_transfer_to(
        &src,
        user.count,
        ut,
        uskip,
        &mut got[lo..hi],
        disp,
        win.count,
        wt,
        wskip,
        n,
    );
    assert_eq!(moved, placed, "bytes to the window; {}", ctx());
    assert_eq!(got, want, "window bytes; {}", ctx());

    // window -> user
    let src = win.fill(3);
    let k = ff_pack_at(&src[lo..hi], disp, win.count, wt, wskip, &mut packed);
    let mut want = user.fill(4);
    let put = ff_unpack(&packed[..k], &mut want, user.count, ut, uskip);
    let mut got = user.fill(4);
    let moved = ff_transfer_from(
        &src[lo..hi],
        disp,
        win.count,
        wt,
        wskip,
        &mut got,
        user.count,
        ut,
        uskip,
        n,
    );
    assert_eq!(moved, put, "bytes to the user buffer; {}", ctx());
    assert_eq!(got, want, "user bytes; {}", ctx());
}

/// A window -> user transfer into the piece of the user buffer that the
/// bytes it moves occupy — `user[0]` at that piece's displacement — leaves
/// there what the transfer into the whole buffer does.
fn a_user_piece_is_the_whole_buffer_there(
    user: &Side,
    uskip: u64,
    win: &Side,
    wskip: u64,
    n: usize,
    ctx: impl Fn() -> String,
) {
    let (ut, wt) = (&user.dtype, &win.dtype);
    let src = win.fill(3);
    let mut whole = user.fill(4);
    let moved = ff_transfer_from(
        &src, 0, win.count, wt, wskip, &mut whole, user.count, ut, uskip, n,
    );
    if moved == 0 {
        return;
    }
    let lo = ff_offset(ut, uskip) as usize;
    let hi = ff_offset(ut, uskip + moved as u64 - 1) as usize + 1;
    let mut piece = user.fill(4)[lo..hi].to_vec();
    let (put, _) = wt.program().transfer_out_of(
        &src,
        0,
        win.count,
        wskip,
        ut.program(),
        &mut piece,
        lo,
        user.count,
        uskip,
        moved,
    );
    assert_eq!(put, moved, "bytes to the piece; {}", ctx());
    assert_eq!(piece, whole[lo..hi], "piece bytes; {}", ctx());
}

/// Every skip on both sides and every cut length, over the whole window;
/// where the user's bytes lie in stream order, into pieces of its buffer
/// too.
fn all_skips_and_cuts(user: &Side, win: &Side, ctx: &str) {
    let ut = &user.dtype;
    let in_order =
        ut.is_monotone() && (user.count <= 1 || ut.data_ub() - ut.data_lb() <= ut.extent() as i64);
    for uskip in 0..=user.total() {
        for wskip in 0..=win.total() {
            // one past what either stream holds: the transfer must stop
            let most = (user.total() - uskip).min(win.total() - wskip) as usize + 1;
            for n in 0..=most {
                let ctx = || format!("{ctx} uskip={uskip} wskip={wskip} n={n}");
                transfer_is_pack_then_unpack(user, uskip, win, wskip, (0, win.span), n, ctx);
                if in_order {
                    a_user_piece_is_the_whole_buffer_there(user, uskip, win, wskip, n, ctx);
                }
            }
        }
    }
}

/// Every window piece `[lo, hi)`, entered where a window loop enters it:
/// at the first data byte at or after `lo` (monotone window types).
fn all_pieces(user: &Side, win: &Side, ctx: &str) {
    for lo in 0..win.span {
        let wskip = bytes_below_tiled(&win.dtype, lo as i64);
        for hi in lo..=win.span {
            for uskip in [0, 5] {
                let ctx = || format!("{ctx} piece=[{lo},{hi}) uskip={uskip}");
                let n = win.total() as usize;
                transfer_is_pack_then_unpack(user, uskip, win, wskip, (lo, hi), n, ctx);
            }
        }
    }
}

/// The typed-to-typed transfer is pack + unpack minus the pack buffer:
/// shapes picked for what the pairing of two layouts has to get right.
#[test]
fn transfer_equals_pack_then_unpack_on_picked_shapes() {
    let b = Datatype::basic;
    let vector = |n, len, stride, t: &Datatype| Datatype::vector(n, len, stride, t).unwrap();
    let gappy = |t: &Datatype, pad: u64| Datatype::resized(t, 0, t.extent() + pad).unwrap();
    // (user type, user count, window type, window count)
    let pairs = [
        // equal small blocks: the strided->strided loop, both strides
        (vector(3, 1, 2, &b(8)), 1, vector(3, 1, 3, &b(8)), 1),
        (vector(3, 1, 2, &b(4)), 2, vector(6, 1, 2, &b(4)), 1),
        // mismatched blocks, 8 against 24, either way round
        (vector(3, 1, 2, &b(8)), 1, vector(2, 1, 2, &b(24)), 1),
        (vector(2, 1, 2, &b(24)), 1, vector(3, 1, 2, &b(8)), 1),
        // blocks that never line up
        (vector(4, 1, 2, &b(6)), 1, vector(3, 1, 2, &b(8)), 1),
        // count > 1 with extent != size, on either side
        (
            gappy(&vector(2, 1, 2, &b(4)), 5),
            3,
            vector(6, 1, 2, &b(4)),
            1,
        ),
        (
            vector(6, 1, 2, &b(4)),
            1,
            gappy(&vector(2, 1, 2, &b(4)), 5),
            3,
        ),
        // typemap order that is not address order: descending blocks
        (
            Datatype::indexed(&[1, 1, 1], &[4, 2, 0], &b(8)).unwrap(),
            1,
            vector(3, 1, 2, &b(8)),
            1,
        ),
        // a multi-frame user type against one frame
        (
            Datatype::struct_type(vec![
                Field {
                    disp: 0,
                    count: 1,
                    child: Datatype::hindexed(&[3, 1], &[1, 9], &b(1)).unwrap(),
                },
                Field {
                    disp: 16,
                    count: 1,
                    child: vector(2, 2, 4, &b(2)),
                },
            ])
            .unwrap(),
            2,
            vector(3, 1, 2, &b(8)),
            1,
        ),
        // an empty type moves nothing, either side
        (
            Datatype::contiguous(0, &b(4)).unwrap(),
            3,
            vector(2, 1, 2, &b(8)),
            1,
        ),
    ];
    for (i, (ut, ucount, wt, wcount)) in pairs.iter().enumerate() {
        let win = Side::new(wt, *wcount).unwrap();
        // an empty user type has no buffer: one byte stands in
        let user = Side::new(ut, *ucount).unwrap_or(Side::over(ut, *ucount, 1));
        let ctx = format!("pair {i}");
        all_skips_and_cuts(&user, &win, &ctx);
        if wt.is_monotone() {
            all_pieces(&user, &win, &ctx);
        }
    }
    // an empty window type: nothing to enter
    let empty = Datatype::contiguous(0, &b(4)).unwrap();
    let src = [7u8; 16];
    let mut dst = [0u8; 16];
    let vt = vector(2, 1, 2, &b(4));
    assert_eq!(
        ff_transfer_to(&src, 1, &vt, 0, &mut dst, 0, 2, &empty, 0, 8),
        0
    );
    assert_eq!(
        ff_transfer_from(&src, 0, 2, &empty, 0, &mut dst, 1, &vt, 0, 8),
        0
    );
    assert_eq!(dst, [0u8; 16]);
}

/// The same identity over random pairs of trees (not necessarily
/// monotone: a transfer follows typemap order like pack and unpack do),
/// at sampled skips, cuts and window pieces.
#[test]
fn transfer_equals_pack_then_unpack_on_random_pairs() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x77 ^ case);
        let (ut, wt) = (arb_type(&mut rng, 2), arb_type(&mut rng, 2));
        let (ucount, wcount) = (rng.range(1, 4), rng.range(1, 4));
        let (Some(user), Some(win)) = (Side::new(&ut, ucount), Side::new(&wt, wcount)) else {
            continue;
        };
        if user.span >= 1 << 16 || win.span >= 1 << 16 {
            continue;
        }
        for _ in 0..24 {
            let uskip = rng.range(0, user.total() + 1);
            let wskip = rng.range(0, win.total() + 1);
            let n = rng.range(0, user.total().max(win.total()) + 2) as usize;
            let lo = rng.range(0, win.span as u64 / 2 + 1) as usize;
            let hi = rng.range(lo as u64, win.span as u64 + 1) as usize;
            for piece in [(0, win.span), (lo, hi)] {
                let ctx = || {
                    format!(
                        "case {case} {ut:?} x{ucount} -> {wt:?} x{wcount} \
                         uskip={uskip} wskip={wskip} n={n} piece={piece:?}"
                    )
                };
                transfer_is_pack_then_unpack(&user, uskip, &win, wskip, piece, n, ctx);
            }
        }
    }
}

/// A random monotone list of 1–8 runs for the co-walk: blocks of 1–32 B
/// that are a power of two, odd ones, and runs of 256 B or more that
/// stream and claim, with gaps of 0–23 B (a zero gap merges two blocks).
fn arb_runs(rng: &mut Rng) -> Datatype {
    let (mut lens, mut disps, mut at) = (Vec::new(), Vec::new(), 0i64);
    for _ in 0..rng.range(1, 9) {
        let len = match rng.range(0, 4) {
            0 | 1 => 1 << rng.range(0, 6),
            2 => 2 * rng.range(0, 20) + 1,
            _ => rng.range(256, 700),
        };
        at += rng.range(0, 24) as i64;
        lens.push(len);
        disps.push(at);
        at += len as i64;
    }
    let d = Datatype::hindexed(&lens, &disps, &Datatype::byte()).unwrap();
    Datatype::resized(&d, 0, at as u64 + rng.range(0, 24)).unwrap()
}

/// The positions of stream bytes `0..total` of `count` instances of `d`
/// shifted by `base`, from the reference expansion.
fn positions(d: &Datatype, count: u64, base: u64) -> Vec<usize> {
    expand(d, count)
        .into_iter()
        .flat_map(|r| (0..r.len).map(move |i| (base as i64 + r.disp) as usize + i as usize))
        .collect()
}

/// The list-based co-walk against the reference expansion: a view's list
/// tiled from a displacement (or the access list it ships) walked beside a
/// memtype's list (or a contiguous buffer), from a random stream byte on,
/// through windows that cut runs, placing under both stores and
/// extracting; and the memtype's pack and unpack at every skip.
#[test]
fn co_walk_matches_the_typemap() {
    use lio_datatype::kernels::{Store, Stores};
    use lio_datatype::{CoWalk, OlWire, RunCursor};
    for case in 0..48 {
        let mut rng = Rng::new(0xC0 ^ case);
        let (ft, mt) = (arb_runs(&mut rng), arb_runs(&mut rng));
        let (disp, mcount) = (rng.range(0, 50), rng.range(1, 4));
        let user_pos = positions(&mt, mcount, 0);
        let total = user_pos.len() as u64;
        let finst = total.div_ceil(ft.size());
        let file_pos = positions(&ft, finst, disp);
        let file_len = disp as usize + (ft.extent() * finst) as usize;
        let user_len = (mt.extent() * mcount) as usize;
        let flist = OlList::flatten(&ft, 1);
        let mlist = OlList::flatten(&mt, mcount);
        let image: Vec<u8> = (0..file_len).map(|i| (i * 7 % 253) as u8 + 1).collect();
        let user: Vec<u8> = (0..user_len).map(|i| (i * 11 % 251) as u8 + 1).collect();
        for round in 0..8 {
            let skip = rng.range(0, total + 1);
            let contig = round % 3 == 2;
            let wired = round % 2 == 1;
            let ctx =
                format!("case {case} round {round} skip {skip} contig {contig} wired {wired}");
            // where stream byte s lies on the user side
            let upos = |s: u64| match contig {
                true => s as usize,
                false => user_pos[s as usize],
            };
            let user_cursor = || match contig {
                true => RunCursor::contig(skip as usize),
                false => mlist.cursor(skip),
            };
            let list = flist.encode_tiled(disp, ft.extent(), ft.size(), skip..total);
            let file_cursor = || match wired {
                true => RunCursor::wire(OlWire::new(&list).unwrap()),
                false => flist.tiled_cursor(disp, ft.extent(), ft.size(), skip),
            };
            // windows from the first byte on, 1–299 B each
            let mut cuts = vec![file_pos.get(skip as usize).copied().unwrap_or(file_len)];
            while *cuts.last().unwrap() < file_len {
                let next = cuts.last().unwrap() + rng.range(1, 300) as usize;
                cuts.push(next.min(file_len));
            }
            for store in [Store::Cached, Store::Stream] {
                let mut walk = CoWalk::new(file_cursor(), user_cursor());
                let mut file = vec![0u8; file_len];
                let (mut want, mut moved) = (vec![0u8; file_len], 0);
                for s in skip..total {
                    want[file_pos[s as usize]] = user[upos(s)];
                }
                for w in cuts.windows(2) {
                    let stores = &mut Stores::new(store);
                    let (win, rest) = (&mut file[w[0]..w[1]], (total - skip) as usize - moved);
                    moved += walk.place(win, w[0] as u64, &user, rest, stores);
                }
                assert_eq!(moved as u64, total - skip, "{ctx} {store:?}: placed");
                assert_eq!(file, want, "{ctx} {store:?}: the file");
            }
            let mut walk = CoWalk::new(file_cursor(), user_cursor());
            let mut out = vec![0u8; user_len.max(total as usize)];
            let mut want = out.clone();
            for s in skip..total {
                want[upos(s)] = image[file_pos[s as usize]];
            }
            let mut moved = 0;
            for w in cuts.windows(2) {
                let (win, rest) = (&image[w[0]..w[1]], (total - skip) as usize - moved);
                let n = (rng.range(0, 400) as usize).min(rest);
                let got = walk.extract(win, w[0] as u64, &mut out, n);
                assert!(got <= n, "{ctx}: extracted past n");
                moved += got;
                // what n held back is left for the rest of the window
                moved += walk.extract(win, w[0] as u64, &mut out, rest - got);
            }
            assert_eq!(moved as u64, total - skip, "{ctx}: extracted");
            assert_eq!(out, want, "{ctx}: the user buffer");
        }
        // pack and unpack at every skip, some short of the end
        let full = reference_pack(&user, &mt, mcount);
        for skip in 0..=total as usize {
            let cap = rng.range(0, 80) as usize;
            let end = (skip + cap).min(full.len());
            let mut packed = vec![0u8; cap];
            let got = mlist.pack(&user, skip as u64, &mut packed);
            assert_eq!(
                &packed[..got],
                &full[skip..end],
                "case {case} pack skip {skip}"
            );
            let mut back = user.clone();
            let data: Vec<u8> = (0..cap).map(|i| i as u8 ^ 0x5A).collect();
            let put = mlist.unpack(&data, &mut back, skip as u64);
            assert_eq!(put, end - skip, "case {case} unpack skip {skip}");
            let mut want = user.clone();
            for (s, &b) in (skip..end).zip(&data) {
                want[user_pos[s]] = b;
            }
            assert_eq!(back, want, "case {case} unpack skip {skip}");
        }
    }
}

/// `count` runs of `w` bytes with gaps of 1–8 B, the run at `odd` of
/// another width of 1–40 B, in an extent 0–7 B past the last.
fn uniform_runs(rng: &mut Rng, w: u64, count: usize, odd: usize) -> Datatype {
    let (mut lens, mut disps, mut at) = (Vec::new(), Vec::new(), 0i64);
    for i in 0..count {
        let len = match i == odd {
            true => (1..).map(|_| rng.range(1, 41)).find(|&l| l != w).unwrap(),
            false => w,
        };
        lens.push(len);
        disps.push(at);
        at += (len + rng.range(1, 9)) as i64;
    }
    let d = Datatype::hindexed(&lens, &disps, &Datatype::byte()).unwrap();
    Datatype::resized(&d, 0, at as u64 + rng.range(0, 8)).unwrap()
}

/// One side of a co-walk under test: the cursor at a stream byte, and
/// where each stream byte lies on that side.
struct Walked<'a> {
    cursor: Box<dyn Fn() -> lio_datatype::RunCursor<'a> + 'a>,
    pos: Vec<usize>,
}

/// Place the user side's stream bytes `skip..` into the file side through
/// windows of 1–`cut` B, each call with a budget that may end inside a
/// batch and then the rest; extract them back the same way. Both must be
/// the typemap's placement, byte for byte.
fn co_walk_through_windows(
    ctx: &str,
    rng: &mut Rng,
    (file, user): (&Walked, &Walked),
    skip: usize,
    cut: u64,
) {
    use lio_datatype::kernels::{Store, Stores};
    use lio_datatype::CoWalk;
    let total = file.pos.len().min(user.pos.len());
    let file_len = file.pos.iter().max().map_or(0, |&p| p + 1);
    let user_len = user.pos.iter().max().map_or(0, |&p| p + 1);
    let image: Vec<u8> = (0..file_len).map(|i| (i * 7 % 253) as u8 + 1).collect();
    let src: Vec<u8> = (0..user_len).map(|i| (i * 11 % 251) as u8 + 1).collect();
    let first = file.pos.get(skip).copied().unwrap_or(file_len);
    let mut cuts = vec![first];
    while *cuts.last().unwrap() < file_len {
        let next = cuts.last().unwrap() + rng.range(1, cut) as usize;
        cuts.push(next.min(file_len));
    }
    let budgets: Vec<usize> = cuts
        .iter()
        .map(|_| rng.range(0, 3 * cut) as usize)
        .collect();
    // both directions: what one call with budget `n` moves, then the rest
    let split = |moved: usize, got: usize, n: usize, w: &[usize]| {
        assert!(
            got <= n,
            "{ctx}: window {w:?} moved {got} of a budget of {n}"
        );
        moved + got
    };
    for store in [Store::Cached, Store::Stream] {
        let mut walk = CoWalk::new((file.cursor)(), (user.cursor)());
        let (mut out, mut want) = (vec![0u8; file_len], vec![0u8; file_len]);
        for s in skip..total {
            want[file.pos[s]] = src[user.pos[s]];
        }
        let mut moved = 0;
        for (w, &n) in cuts.windows(2).zip(&budgets) {
            let (win, lo, rest) = (&mut out[w[0]..w[1]], w[0] as u64, total - skip - moved);
            let stores = &mut Stores::new(store);
            let got = walk.place(win, lo, &src, n.min(rest), stores);
            moved = split(moved, got, n.min(rest), w);
            moved += walk.place(win, lo, &src, rest - got, stores);
        }
        assert_eq!(moved, total - skip, "{ctx} {store:?}: placed");
        assert_eq!(out, want, "{ctx} {store:?}: the file side");
    }
    let mut walk = CoWalk::new((file.cursor)(), (user.cursor)());
    let (mut out, mut want) = (vec![0u8; user_len], vec![0u8; user_len]);
    for s in skip..total {
        want[user.pos[s]] = image[file.pos[s]];
    }
    let mut moved = 0;
    for (w, &n) in cuts.windows(2).zip(&budgets) {
        let (win, lo, rest) = (&image[w[0]..w[1]], w[0] as u64, total - skip - moved);
        let got = walk.extract(win, lo, &mut out, n.min(rest));
        moved = split(moved, got, n.min(rest), w);
        moved += walk.extract(win, lo, &mut out, rest - got);
    }
    assert_eq!(moved, total - skip, "{ctx}: extracted");
    assert_eq!(out, want, "{ctx}: the user side");
}

/// The co-walk's batches of equal short blocks against the typemap: lists
/// of 1, 2, 4, 8, 16 or 32 B runs with one run of another width, a file
/// list of few runs tiled many times (so it wraps inside a batch) or of
/// many runs, through windows and budgets that end inside a batch, in
/// every pairing the engine walks — a tiled view's list or the access list
/// it ships beside a memtype's list or a contiguous buffer, and a
/// contiguous buffer beside a memtype's list (pack and unpack) — placing
/// and extracting.
#[test]
fn co_walk_batches_match_the_typemap() {
    use lio_datatype::{OlWire, RunCursor};
    for case in 0..72u64 {
        let mut rng = Rng::new(0xBA7C ^ case);
        let w = 1 << (case % 6);
        let fcount = [1, 3, 40][(case / 6 % 3) as usize];
        // an odd run at an index past the end is none
        let odd = rng.range(0, 2 * fcount as u64) as usize;
        let ft = uniform_runs(&mut rng, w, fcount, odd);
        let mcount = rng.range(20, 60) as usize;
        let odd = rng.range(0, 2 * mcount as u64) as usize;
        let mt = uniform_runs(&mut rng, w, mcount, odd);
        let (disp, minst) = (rng.range(0, 40), rng.range(1, 4));
        let user_pos = positions(&mt, minst, 0);
        let total = user_pos.len() as u64;
        let file_pos = positions(&ft, total.div_ceil(ft.size()), disp);
        let (flist, mlist) = (OlList::flatten(&ft, 1), OlList::flatten(&mt, minst));
        let (ext, size) = (ft.extent(), ft.size());
        for round in 0..6 {
            let skip = match round {
                0 => 0,
                _ => rng.range(0, total + 1),
            };
            let wire = flist.encode_tiled(disp, ext, size, skip..total);
            let tiled = Walked {
                cursor: Box::new(|| flist.tiled_cursor(disp, ext, size, skip)),
                pos: file_pos.clone(),
            };
            let wired = Walked {
                cursor: Box::new(|| RunCursor::wire(OlWire::new(&wire).unwrap())),
                pos: file_pos.clone(),
            };
            let listed = Walked {
                cursor: Box::new(|| mlist.cursor(skip)),
                pos: user_pos.clone(),
            };
            let contig = Walked {
                cursor: Box::new(|| RunCursor::contig(skip as usize)),
                pos: (0..total as usize).collect(),
            };
            let pairs = [
                ("tiled/list", &tiled, &listed),
                ("tiled/contig", &tiled, &contig),
                ("wired/list", &wired, &listed),
                ("wired/contig", &wired, &contig),
                ("contig/list", &contig, &listed),
            ];
            for (pair, file, user) in pairs {
                let cut = [4 * w, 300][round % 2];
                let ctx = format!("case {case} w {w} {pair} skip {skip} cut {cut}");
                co_walk_through_windows(&ctx, &mut rng, (file, user), skip as usize, cut);
            }
        }
    }
}
