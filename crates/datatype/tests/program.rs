//! Differential corpus for the compiled run programs: for random
//! monotone datatype trees × random skips, the compiled program and the
//! naive tree walk of the reference typemap must produce byte-identical
//! streams.
//!
//! Seeding follows the fault-corpus convention from `lio-testkit`:
//! `LIO_FAULT_SEED` replays one seed exactly, otherwise the fixed
//! corpus runs, and every assertion message carries a one-line replay
//! command so a CI failure is reproducible from the log alone.

use lio_datatype::kernels::Store;
use lio_datatype::typemap::{expand, Run};
use lio_datatype::{ff_pack, Datatype, Field, RunProgram};
use lio_testkit::{corpus_seeds, Rng};

const CASES_PER_SEED: u64 = 48;

fn replay(seed: u64, case: u64) -> String {
    format!(
        "replay with: LIO_FAULT_SEED={seed} cargo test -p lio-datatype --test program (case {case})"
    )
}

/// A random monotone datatype with non-negative data displacements —
/// the shape fileviews and memtypes have. Rejection-samples from a generator
/// biased toward nesting (the case the compiled program exists for).
fn arb_monotone(rng: &mut Rng, depth: u32) -> Datatype {
    loop {
        let d = gen_type(rng, depth);
        if d.is_monotone() && d.size() > 0 && d.data_lb() >= 0 {
            return d;
        }
    }
}

fn gen_type(rng: &mut Rng, depth: u32) -> Datatype {
    if depth == 0 {
        return Datatype::basic((1 + rng.below(16)) as u32);
    }
    match rng.below(12) {
        0..=2 => Datatype::basic((1 + rng.below(16)) as u32),
        3..=4 => {
            let t = gen_type(rng, depth - 1);
            Datatype::contiguous(1 + rng.below(4), &t).unwrap()
        }
        5..=7 => {
            let t = gen_type(rng, depth - 1);
            // stride ≥ blocklen keeps vectors monotone-friendly
            let blocklen = 1 + rng.below(3);
            let stride = blocklen + rng.below(4);
            Datatype::vector(1 + rng.below(4), blocklen, stride as i64, &t).unwrap()
        }
        8..=9 => {
            let t = gen_type(rng, depth - 1);
            let n = (1 + rng.below(3)) as usize;
            let mut disp = 0i64;
            let mut lens = Vec::with_capacity(n);
            let mut disps = Vec::with_capacity(n);
            for _ in 0..n {
                let len = 1 + rng.below(3);
                disps.push(disp);
                lens.push(len);
                // next block starts after this one, plus a random gap
                disp += (len * t.extent().max(1) + rng.below(9)) as i64;
            }
            Datatype::indexed(&lens, &disps, &t).unwrap()
        }
        10 => {
            let t = gen_type(rng, depth - 1);
            let n = (1 + rng.below(3)) as usize;
            let mut disp = 0i64;
            let fields = (0..n)
                .map(|_| {
                    let count = 1 + rng.below(3);
                    let f = Field {
                        disp,
                        count,
                        child: t.clone(),
                    };
                    disp += (count * t.extent().max(1) + rng.below(9)) as i64;
                    f
                })
                .collect();
            Datatype::struct_type(fields).unwrap()
        }
        _ => {
            let t = gen_type(rng, depth - 1);
            let ext = t.data_ub().max(1) as u64 + rng.below(17);
            Datatype::resized(&t, 0, ext).unwrap()
        }
    }
}

/// The typemap's leaf runs of `count` instances from data byte `skip` on.
fn runs_from(d: &Datatype, count: u64, mut skip: u64) -> impl Iterator<Item = Run> {
    expand(d, count).into_iter().filter_map(move |r| {
        let cut = skip.min(r.len);
        skip -= cut;
        (cut < r.len).then(|| Run {
            disp: r.disp + cut as i64,
            len: r.len - cut,
        })
    })
}

/// The tree-walk baseline: pack by iterating the typemap's leaf runs.
fn treewalk_pack(src: &[u8], count: u64, d: &Datatype, skip: u64, out: &mut [u8]) -> usize {
    let mut cursor = 0;
    for run in runs_from(d, count, skip) {
        if cursor == out.len() {
            break;
        }
        let n = (run.len as usize).min(out.len() - cursor);
        let s = run.disp as usize;
        out[cursor..cursor + n].copy_from_slice(&src[s..s + n]);
        cursor += n;
    }
    cursor
}

/// Buffer size covering `count` instances of a non-negative-data type.
fn span_of(d: &Datatype, count: u64) -> usize {
    ((count as i64 - 1) * d.extent() as i64 + d.data_ub()).max(0) as usize
}

/// compiled ≡ tree walk, byte-for-byte, on the pack side.
#[test]
fn pack_compiled_treewalk_agree() {
    for seed in corpus_seeds() {
        for case in 0..CASES_PER_SEED {
            let mut rng = Rng::new(seed.rotate_left(17) ^ (case.wrapping_mul(0xD1B5)));
            let d = arb_monotone(&mut rng, 1 + (case % 3) as u32);
            let count = 1 + rng.below(3);
            let total = d.size() * count;
            let span = span_of(&d, count);
            if span == 0 || span >= 1 << 22 {
                continue;
            }
            let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
            let skip = rng.below(total + 1);
            let want_len = (total - skip) as usize;

            // tree-walk baseline
            let mut walk = vec![0u8; want_len];
            let n = treewalk_pack(&src, count, &d, skip, &mut walk);
            assert_eq!(n, want_len, "tree walk short; {}", replay(seed, case));

            // compiled program, invoked directly
            let mut prog = vec![0u8; want_len];
            let (n, _) = d.program().pack_into(&src, 0, count, skip, &mut prog);
            assert_eq!(n, want_len, "compiled short; {}", replay(seed, case));
            assert_eq!(
                prog,
                walk,
                "compiled ≠ tree walk for {d:?} skip {skip}; {}",
                replay(seed, case)
            );

            // the public entry
            let mut public = vec![0u8; want_len];
            ff_pack(&src, count, &d, skip, &mut public);
            assert_eq!(
                public,
                walk,
                "ff_pack ≠ tree walk for {d:?} skip {skip}; {}",
                replay(seed, case)
            );
        }
    }
}

/// The tree-walk reference of unpack: scatter `packed` over the typemap's
/// leaf runs from data byte `skip` on.
fn treewalk_unpack(packed: &[u8], count: u64, d: &Datatype, skip: u64, dst: &mut [u8]) {
    let mut cursor = 0;
    for run in runs_from(d, count, skip) {
        if cursor == packed.len() {
            break;
        }
        let n = (run.len as usize).min(packed.len() - cursor);
        let s = run.disp as usize;
        dst[s..s + n].copy_from_slice(&packed[cursor..cursor + n]);
        cursor += n;
    }
}

/// Pack and unpack, the unpack streaming its long runs, must produce
/// byte-for-byte what the tree walk produces, across random monotone trees
/// × every skip 0..16: every entry into a frame's first blocks.
#[test]
fn program_matches_tree_walk_at_small_skips() {
    for seed in corpus_seeds() {
        for case in 0..12u64 {
            let mut rng = Rng::new(seed.rotate_left(43) ^ (case.wrapping_mul(0x9E37)));
            let d = arb_monotone(&mut rng, 1 + (case % 3) as u32);
            let count = 1 + rng.below(3);
            let total = d.size() * count;
            let span = span_of(&d, count);
            if span == 0 || span >= 1 << 22 {
                continue;
            }
            let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
            let prog = d.program();
            for skip in (0..16u64).filter(|s| *s < total) {
                let want_len = (total - skip) as usize;
                let mut walk = vec![0u8; want_len];
                treewalk_pack(&src, count, &d, skip, &mut walk);
                let mut packed = vec![0u8; want_len];
                let (n, _) = prog.pack_into(&src, 0, count, skip, &mut packed);
                assert_eq!(
                    n,
                    want_len,
                    "pack short for {d:?} skip {skip}; {}",
                    replay(seed, case)
                );
                assert_eq!(
                    packed,
                    walk,
                    "pack ≠ tree walk for {d:?} skip {skip}; {}",
                    replay(seed, case)
                );

                let mut want = vec![0xAAu8; span];
                treewalk_unpack(&walk, count, &d, skip, &mut want);
                let mut dst = vec![0xAAu8; span];
                let (n, _) = prog.unpack_into(&walk, &mut dst, 0, count, skip, Store::Stream);
                assert_eq!(
                    n,
                    want_len,
                    "unpack short for {d:?} skip {skip}; {}",
                    replay(seed, case)
                );
                assert_eq!(
                    dst,
                    want,
                    "unpack ≠ tree walk for {d:?} skip {skip}; {}",
                    replay(seed, case)
                );
            }
        }
    }
}

/// The normalization pass, pinned to exact frame shapes via
/// [`RunProgram::describe`]. Each case is a layout the raw compiler
/// cannot reduce (`as_strided` gives up on the irregularity) but the
/// pass rewrites into canonical strided form.
#[test]
fn normalization_pinned_shapes() {
    // exact-shape pin + correctness: the normalized program must still
    // pack exactly what the tree walk packs
    let check = |name: &str, d: &Datatype, want: &str, min_rw: u32| {
        let p = RunProgram::compile(d);
        assert_eq!(p.describe(), want, "{name}: frame shape");
        assert!(
            p.rewrites() >= min_rw,
            "{name}: expected ≥{min_rw} rewrites, got {}",
            p.rewrites()
        );
        let span = span_of(d, 1);
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let mut walk = vec![0u8; d.size() as usize];
        treewalk_pack(&src, 1, d, 0, &mut walk);
        let mut prog = vec![0u8; d.size() as usize];
        p.pack_into(&src, 0, 1, 0, &mut prog);
        assert_eq!(prog, walk, "{name}: normalized program corrupts data");
    };

    // ragged tail split: three identical strided rows at a regular step
    // fold into one maximal Blocks prefix, the short trailing field
    // stays as the literal tail
    let row = Datatype::vector(4, 1, 2, &Datatype::basic(8)).unwrap();
    let ragged = Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: row.clone(),
        },
        Field {
            disp: 64,
            count: 1,
            child: row.clone(),
        },
        Field {
            disp: 128,
            count: 1,
            child: row.clone(),
        },
        Field {
            disp: 200,
            count: 1,
            child: Datatype::basic(8),
        },
    ])
    .unwrap();
    check(
        "ragged_tail",
        &ragged,
        "L(0,n,208,104)[T[@0 B(0,16,8,12); @200 B(0,8,8,1)]]",
        2,
    );

    // adjacent-block merge: two touching 8-byte blocks become one
    // 16-byte block; the outlier at 32 keeps the tail alive
    let touching = Datatype::hindexed(&[1, 1, 1], &[0, 8, 32], &Datatype::basic(8)).unwrap();
    check(
        "adjacent_merge",
        &touching,
        "L(0,n,40,24)[T[@0 B(0,16,16,1); @32 B(0,8,8,1)]]",
        1,
    );

    // stride == block collapse: a dense run of four 8-byte blocks
    // merges into a single 32-byte block
    let dense_run =
        Datatype::hindexed(&[1, 1, 1, 1, 1], &[0, 8, 16, 24, 100], &Datatype::basic(8)).unwrap();
    check(
        "dense_run_collapse",
        &dense_run,
        "L(0,n,108,40)[T[@0 B(0,32,32,1); @100 B(0,8,8,1)]]",
        3,
    );

    // equal-displacement struct fields: four identical strided fields at
    // a 32-byte step refold into a Loop over one Blocks frame
    let elem = Datatype::vector(2, 1, 3, &Datatype::basic(4)).unwrap();
    let fields = Datatype::struct_type(
        (0..4)
            .map(|i| Field {
                disp: i * 32,
                count: 1,
                child: elem.clone(),
            })
            .collect(),
    )
    .unwrap();
    let want = "L(0,n,112,32)[L(0,4,32,8)[B(0,12,4,2)]]";
    check("equal_disp_struct", &fields, want, 2);

    // vector-of-vector built raggedly (hindexed rows at a step that
    // breaks cross-row stride regularity): the pass folds the 8 equal
    // parts into Loop{Blocks}
    let lens = [1u64; 8];
    let disps: Vec<i64> = (0..8).map(|i| i * 100).collect();
    let vv = Datatype::hindexed(&lens, &disps, &row).unwrap();
    let want = "L(0,n,756,256)[L(0,8,100,32)[B(0,16,8,4)]]";
    check("vv_ragged", &vv, want, 2);

    // BTIO-style tile as a struct of explicit planes: plane = 4 rows of
    // 16 B at 64-byte pitch, planes 512 B apart
    let plane_lens = [1u64; 4];
    let plane_disps: Vec<i64> = (0..4).map(|i| i * 64).collect();
    let plane = Datatype::hindexed(&plane_lens, &plane_disps, &Datatype::basic(16)).unwrap();
    let tile = Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: plane.clone(),
        },
        Field {
            disp: 512,
            count: 1,
            child: plane,
        },
    ])
    .unwrap();
    let want = "L(0,n,720,128)[L(0,2,512,64)[B(0,64,16,4)]]";
    check("btio_struct_tile", &tile, want, 2);

    // already-canonical shapes pass through untouched, and dense
    // instances are one block
    let v = Datatype::vector(4, 2, 2, &Datatype::basic(8)).unwrap();
    let p = RunProgram::compile(&v);
    assert_eq!(p.describe(), "B(0,64n,64n,1)");
    assert_eq!(p.rewrites(), 0, "dense vector is canonical at compile");
}

/// What a pack costs, as counts: the frames a type compiles to and the
/// runs its pack of three instances copies. A flat contiguous type is one
/// `Blocks` frame, its instances one block, packed in one run, so the
/// program adds nothing to the copy a tree walk makes; the Figure 4
/// filetype (16 384 blocks of 8 bytes at a 16-byte pitch) is one `Blocks`
/// frame in the instance frame, packed in one run per block but one per
/// seam, where the last block of an instance abuts the first of the next —
/// the shape and the trip count of the loop a user would write for it.
#[test]
fn pack_frames_and_runs() {
    const COUNT: u64 = 3;
    let check = |name: &str, d: &Datatype, want: &str, runs: u64| {
        let p = RunProgram::compile(d);
        assert_eq!(p.frames(), 1, "{name}: frames");
        assert_eq!(p.describe(), want, "{name}: frame shape");
        let span = span_of(d, COUNT);
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let total = (d.size() * COUNT) as usize;
        let mut walk = vec![0u8; total];
        treewalk_pack(&src, COUNT, d, 0, &mut walk);
        let mut prog = vec![0u8; total];
        assert_eq!(
            p.pack_into(&src, 0, COUNT, 0, &mut prog),
            (total, runs),
            "{name}: (bytes, runs) packed"
        );
        assert_eq!(prog, walk, "{name}: program corrupts data");
    };

    let flat = Datatype::contiguous(4 << 20, &Datatype::byte()).unwrap();
    check("flat_contiguous", &flat, "B(0,4194304n,4194304n,1)", 1);

    let fig4 = Datatype::vector(16384, 1, 2, &Datatype::basic(8)).unwrap();
    let want = "L(0,n,262136,131072)[B(0,16,8,16384)]";
    check("figure4", &fig4, want, COUNT * 16384 - (COUNT - 1));
}
