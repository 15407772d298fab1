//! Pack/unpack micro-benchmarks: flattening-on-the-fly vs ol-list walking
//! vs the raw memcpy ceiling (the paper's copy-time overhead, Section 2.1),
//! plus the compiled run-program interpreter vs the naive tree walk.
//!
//! Emits `BENCH_pack.json` at the workspace root in the versioned
//! [`lio_bench::schema`] format: the measured medians, the
//! tree-walk/compiled ratios, and the machine's core count.

use lio_bench::harness::Group;
use lio_bench::schema;
use lio_datatype::{darray, ff_pack, ff_unpack, Datatype, Distrib, Field, FlatIter, OlList, Order};
use std::hint::black_box;

/// The naive tree-walk baseline the compiled program replaces: descend
/// the type tree for every leaf run via `FlatIter`.
fn treewalk_pack(src: &[u8], count: u64, d: &Datatype, skip: u64, out: &mut [u8]) -> usize {
    let mut cursor = 0;
    for run in FlatIter::with_skip(d, count, skip) {
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

/// One emitted measurement: group/id plus median ns and bytes moved.
struct Entry {
    group: &'static str,
    id: String,
    median_ns: f64,
    bytes: u64,
}

/// Pack 1 MiB of data through vectors of varying block size.
fn bench_pack() {
    let mut g = Group::new("pack");
    g.sample_size(20);
    for sblock in [8u64, 64, 512, 4096] {
        let nblock = (1 << 20) / sblock;
        let d = Datatype::vector(nblock, 1, 2, &Datatype::basic(sblock as u32)).unwrap();
        let src = vec![0xA5u8; d.extent() as usize];
        let total = d.size() as usize;
        let mut out = vec![0u8; total];
        g.throughput_bytes(total as u64);

        g.bench(format!("listless_ff/{sblock}"), || {
            ff_pack(black_box(&src), 1, &d, 0, black_box(&mut out));
        });

        let ol = OlList::flatten(&d, 1);
        g.bench(format!("list_based_ol/{sblock}"), || {
            ol.pack(black_box(&src), 0, black_box(&mut out));
        });

        // the per-access flattening the list-based engine performs for
        // memtypes (list creation + pack + drop)
        g.bench(format!("list_based_flatten_and_pack/{sblock}"), || {
            let ol = OlList::flatten(black_box(&d), 1);
            ol.pack(black_box(&src), 0, black_box(&mut out));
        });

        g.bench(format!("memcpy_ceiling/{sblock}"), || {
            out.copy_from_slice(black_box(&src[..total]));
        });
    }
}

/// Unpack mirror of the pack benchmark.
fn bench_unpack() {
    let mut g = Group::new("unpack");
    g.sample_size(20);
    for sblock in [8u64, 512] {
        let nblock = (1 << 20) / sblock;
        let d = Datatype::vector(nblock, 1, 2, &Datatype::basic(sblock as u32)).unwrap();
        let total = d.size() as usize;
        let packed = vec![0x5Au8; total];
        let mut dst = vec![0u8; d.extent() as usize];
        g.throughput_bytes(total as u64);

        g.bench(format!("listless_ff/{sblock}"), || {
            ff_unpack(black_box(&packed), black_box(&mut dst), 1, &d, 0);
        });

        let ol = OlList::flatten(&d, 1);
        g.bench(format!("list_based_ol/{sblock}"), || {
            ol.unpack(black_box(&packed), black_box(&mut dst), 0);
        });
    }
}

/// Pack through a deep nested type (a multi-frame program) vs the
/// ol-list.
fn bench_pack_nested() {
    let mut g = Group::new("pack_nested");
    g.sample_size(20);
    // 3D subarray: does not reduce to a single strided level
    let d = Datatype::subarray(
        &[64, 64, 64],
        &[32, 32, 32],
        &[16, 16, 16],
        Order::C,
        &Datatype::double(),
    )
    .unwrap();
    let src = vec![1u8; d.extent() as usize];
    let total = d.size() as usize;
    let mut out = vec![0u8; total];
    g.throughput_bytes(total as u64);
    g.bench("listless_ff", || {
        ff_pack(black_box(&src), 1, &d, 0, black_box(&mut out));
    });
    let ol = OlList::flatten(&d, 1);
    g.bench("list_based_ol", || {
        ol.pack(black_box(&src), 0, black_box(&mut out));
    });
}

/// The benchmark shapes for the compiled-vs-treewalk matrix: a count
/// scaling each shape's data volume to ≥ 4 MiB, and the datatype itself.
fn shapes() -> Vec<(&'static str, u64, Datatype)> {
    // flat strided: 8 KiB blocks at 2× stride (reduces to one frame)
    let flat = Datatype::vector(512, 1, 2, &Datatype::basic(8192)).unwrap();
    // nested vector-of-vector, small inner blocks: the case the
    // compiled program exists for (tree walk re-descends per 64 B run)
    let inner = Datatype::vector(16, 1, 2, &Datatype::basic(64)).unwrap();
    let nested = Datatype::vector(64, 1, 2, &inner).unwrap();
    // block-cyclic darray over a 2D grid
    let da = darray(
        4,
        1,
        &[1024, 1024],
        &[Distrib::Cyclic(8), Distrib::Block],
        &[2, 2],
        Order::C,
        &Datatype::byte(),
    )
    .unwrap();
    // BTIO-style 3D tile of doubles
    let btio = Datatype::subarray(
        &[128, 64, 64],
        &[64, 32, 32],
        &[32, 16, 16],
        Order::C,
        &Datatype::double(),
    )
    .unwrap();
    let target = 4u64 << 20;
    [
        ("flat_strided", flat),
        ("nested_vv", nested),
        ("darray_cyclic", da),
        ("btio_tile", btio),
    ]
    .into_iter()
    .map(|(name, d)| {
        let count = (target / d.size()).max(1);
        (name, count, d)
    })
    .collect()
}

/// A hand-rolled packer: the loop a scientist writes when they give up
/// on the datatype engine — every layout constant baked in, nothing but
/// nested loops and fixed-width copies. The honest baseline the
/// compiled interpreter has to stay within ~10% of (Hunold et al.).
type ManualFn = Box<dyn Fn(&[u8], u64, &mut [u8])>;

/// Copy `B` bytes with a fixed-width load/store (what a typed manual
/// loop compiles to for 2/4/8-byte elements).
#[inline(always)]
fn copy_fixed<const B: usize>(src: &[u8], s: usize, out: &mut [u8], o: usize) {
    out[o..o + B].copy_from_slice(&src[s..s + B]);
}

/// The manual packer for a benchmark shape, if one is written.
fn manual_for(name: &str) -> Option<ManualFn> {
    match name {
        // vector(512, 1, 2, basic(8192)): 8 KiB blocks at 16 KiB pitch
        "flat_strided" => Some(Box::new(|src, count, out| {
            const EXT: usize = 1023 * 8192;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for b in 0..512 {
                    let s = base + b * 16384;
                    out[cur..cur + 8192].copy_from_slice(&src[s..s + 8192]);
                    cur += 8192;
                }
            }
        })),
        // vector(64, 1, 2, vector(16, 1, 2, basic(64))): 64 rows at
        // 3968-byte pitch, each 16 blocks of 64 B at 128-byte pitch
        "nested_vv" | "vv_ragged" => Some(Box::new(|src, count, out| {
            const EXT: usize = 127 * 1984;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for o in 0..64 {
                    let row = base + o * 3968;
                    for i in 0..16 {
                        let s = row + i * 128;
                        out[cur..cur + 64].copy_from_slice(&src[s..s + 64]);
                        cur += 64;
                    }
                }
            }
        })),
        // darray rank 1 of a 2×2 C grid over 1024×1024 bytes,
        // [Cyclic(8), Block]: row bands c*16..c*16+8, columns 512..1024
        "darray_cyclic" => Some(Box::new(|src, count, out| {
            const EXT: usize = 1024 * 1024;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for c in 0..64 {
                    for r in 0..8 {
                        let s = base + (c * 16 + r) * 1024 + 512;
                        out[cur..cur + 512].copy_from_slice(&src[s..s + 512]);
                        cur += 512;
                    }
                }
            }
        })),
        // subarray [64,32,32] of [128,64,64] doubles starting [32,16,16]:
        // 64×32 rows of 32 doubles (256 B) in the big C-order array
        "btio_tile" | "btio_ragged" => Some(Box::new(|src, count, out| {
            const EXT: usize = 128 * 64 * 64 * 8;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for i in 0..64 {
                    for j in 0..32 {
                        let s = base + ((32 + i) * 4096 + (16 + j) * 64 + 16) * 8;
                        out[cur..cur + 256].copy_from_slice(&src[s..s + 256]);
                        cur += 256;
                    }
                }
            }
        })),
        // fine strided shapes: N small blocks at 2× pitch
        "fine2" => Some(Box::new(|src, count, out| {
            const EXT: usize = (2 * (1 << 19) - 1) * 2;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for b in 0..1 << 19 {
                    copy_fixed::<2>(src, base + b * 4, out, cur);
                    cur += 2;
                }
            }
        })),
        "fine4" => Some(Box::new(|src, count, out| {
            const EXT: usize = (2 * (1 << 18) - 1) * 4;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for b in 0..1 << 18 {
                    copy_fixed::<4>(src, base + b * 8, out, cur);
                    cur += 4;
                }
            }
        })),
        "fine8" => Some(Box::new(|src, count, out| {
            const EXT: usize = (2 * (1 << 17) - 1) * 8;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for b in 0..1 << 17 {
                    copy_fixed::<8>(src, base + b * 16, out, cur);
                    cur += 8;
                }
            }
        })),
        // the Figure 4 fileview of rank 0 of 2: 16384 blocks of 8 B at
        // 16-byte pitch in a 256 KiB instance
        "fig4_8" => Some(Box::new(|src, count, out| {
            const EXT: usize = 16384 * 16;
            let mut cur = 0;
            for inst in 0..count as usize {
                let base = inst * EXT;
                for b in 0..16384 {
                    copy_fixed::<8>(src, base + b * 16, out, cur);
                    cur += 8;
                }
            }
        })),
        _ => None,
    }
}

/// Shapes for the manual-pack matrix: the four base shapes, fine-grained
/// 2/4/8-byte-block vectors (the regime where a datatype engine loses to
/// manual packing), the L2-resident Figure 4 fileview, and ragged-built
/// vector-of-vector / BTIO variants whose raw compile is a literal tail —
/// the normalization pass must rewrite them into the same strided form the
/// canonical constructors produce.
fn manual_shapes() -> Vec<(&'static str, u64, Datatype)> {
    let fine2 = Datatype::vector(1 << 19, 1, 2, &Datatype::basic(2)).unwrap();
    let fine4 = Datatype::vector(1 << 18, 1, 2, &Datatype::basic(4)).unwrap();
    let fine8 = Datatype::vector(1 << 17, 1, 2, &Datatype::basic(8)).unwrap();
    // nested_vv built as hindexed rows: cross-row spacing breaks the
    // strided reduction, so only the normalization pass recovers
    // Loop{Blocks}
    let row = Datatype::vector(16, 1, 2, &Datatype::basic(64)).unwrap();
    let lens = [1u64; 64];
    let disps: Vec<i64> = (0..64).map(|i| i * 3968).collect();
    let vv_ragged = Datatype::hindexed(&lens, &disps, &row).unwrap();
    // btio_tile built as a struct of explicit planes of explicit rows
    let plane_lens = [1u64; 32];
    let plane_disps: Vec<i64> = (0..32).map(|j| (16 + j) * 64 * 8).collect();
    let plane = Datatype::hindexed(&plane_lens, &plane_disps, &Datatype::basic(256)).unwrap();
    let btio_struct = Datatype::struct_type(
        (0..64)
            .map(|i| Field {
                disp: ((32 + i) * 64 * 64 + 16) * 8,
                count: 1,
                child: plane.clone(),
            })
            .collect(),
    )
    .unwrap();
    // restore the full-array extent the subarray form carries, so count
    // instances tile exactly like btio_tile
    let btio_ragged = Datatype::resized(&btio_struct, 0, 128 * 64 * 64 * 8).unwrap();
    let target = 4u64 << 20;
    let mut all: Vec<(&'static str, u64, Datatype)> = shapes();
    // the Figure 5/6 regime: one 128 KiB instance of the Figure 4 struct,
    // small enough to stay in L2 (the typed-vs-manual pack guideline)
    all.push(("fig4_8", 1, lio_noncontig::figure4_filetype(0, 2, 16384, 8)));
    for (name, d) in [
        ("fine2", fine2),
        ("fine4", fine4),
        ("fine8", fine8),
        ("vv_ragged", vv_ragged),
        ("btio_ragged", btio_ragged),
    ] {
        let count = (target / d.size()).max(1);
        all.push((name, count, d));
    }
    all
}

/// Compiled vs manual, across the small-block shapes (Adefemi's
/// manual-pack column). The manual packer is verified byte-identical to
/// `ff_pack` before it is timed, and the ragged shapes assert the
/// normalization pass actually rewrote them.
fn bench_pack_manual(entries: &mut Vec<Entry>) {
    let mut g = Group::new("pack_manual");
    g.sample_size(20);
    for (name, count, d) in manual_shapes() {
        let span = ((count as i64 - 1) * d.extent() as i64 + d.data_ub()) as usize;
        let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
        let total = (d.size() * count) as usize;
        let mut out = vec![0u8; total];
        g.throughput_bytes(total as u64);

        let prog = d.program();
        if name.ends_with("_ragged") {
            assert!(
                prog.rewrites() > 0,
                "{name}: normalization pass did not engage ({})",
                prog.describe()
            );
            entries.push(Entry {
                group: "pack_manual",
                id: format!("normalize_rewrites/{name}"),
                median_ns: prog.rewrites() as f64,
                bytes: 0,
            });
        }

        let s = g.bench(format!("compiled/{name}"), || {
            prog.pack_into(black_box(&src), 0, count, 0, black_box(&mut out));
        });
        entries.push(Entry {
            group: "pack_manual",
            id: format!("compiled/{name}"),
            median_ns: s.median_ns,
            bytes: total as u64,
        });

        if let Some(manual) = manual_for(name) {
            // correctness first: a wrong manual packer is not a baseline
            let mut want = vec![0u8; total];
            ff_pack(&src, count, &d, 0, &mut want);
            let mut got = vec![0u8; total];
            manual(&src, count, &mut got);
            assert_eq!(got, want, "manual packer for {name} diverges from ff_pack");

            let s = g.bench(format!("manual/{name}"), || {
                manual(black_box(&src), count, black_box(&mut out));
            });
            entries.push(Entry {
                group: "pack_manual",
                id: format!("manual/{name}"),
                median_ns: s.median_ns,
                bytes: total as u64,
            });
        }
    }
}

/// Tree walk vs compiled program (what `ff_pack` runs), across the four
/// shapes, on ≥ 4 MiB of data each.
fn bench_pack_compiled(entries: &mut Vec<Entry>) {
    let mut g = Group::new("pack_compiled");
    g.sample_size(20);
    for (name, count, d) in shapes() {
        let span = ((count as i64 - 1) * d.extent() as i64 + d.data_ub()) as usize;
        let src = vec![0xC3u8; span];
        let total = (d.size() * count) as usize;
        let mut out = vec![0u8; total];
        g.throughput_bytes(total as u64);

        let s = g.bench(format!("treewalk/{name}"), || {
            treewalk_pack(black_box(&src), count, &d, 0, black_box(&mut out));
        });
        entries.push(Entry {
            group: "pack_compiled",
            id: format!("treewalk/{name}"),
            median_ns: s.median_ns,
            bytes: total as u64,
        });

        let prog = d.program();
        let s = g.bench(format!("compiled/{name}"), || {
            prog.pack_into(black_box(&src), 0, count, 0, black_box(&mut out));
        });
        entries.push(Entry {
            group: "pack_compiled",
            id: format!("compiled/{name}"),
            median_ns: s.median_ns,
            bytes: total as u64,
        });
    }
}

/// Render the measurements (plus derived ratios) as `BENCH_pack.json`
/// at the workspace root, in the versioned schema.
fn write_json(entries: &[Entry]) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<schema::Entry> = Vec::new();
    for e in entries {
        if e.bytes == 0 {
            // not a timing: a recorded count (e.g. normalize_rewrites)
            rows.push(schema::Entry::new(
                e.group,
                e.id.clone(),
                "count",
                e.median_ns,
                "1",
            ));
            continue;
        }
        rows.push(schema::Entry::new(
            e.group,
            e.id.clone(),
            "median_ns",
            e.median_ns,
            "ns",
        ));
        rows.push(schema::Entry::new(
            e.group,
            e.id.clone(),
            "gbps",
            e.bytes as f64 / e.median_ns,
            "GB/s",
        ));
    }
    // derived ratio per shape: treewalk/compiled (>1 means the program
    // is faster)
    let med = |group: &str, id: &str| {
        entries
            .iter()
            .find(|e| e.group == group && e.id == id)
            .map(|e| e.median_ns)
            .unwrap_or(f64::NAN)
    };
    for name in ["flat_strided", "nested_vv", "darray_cyclic", "btio_tile"] {
        rows.push(schema::Entry::new(
            "pack_compiled_ratio",
            name,
            "compiled_speedup",
            med("pack_compiled", &format!("treewalk/{name}"))
                / med("pack_compiled", &format!("compiled/{name}")),
            "x",
        ));
    }
    // vs_manual per shape: manual over compiled (≥ ~0.9 means within
    // ~10% of the hand-rolled packer)
    for name in [
        "flat_strided",
        "nested_vv",
        "darray_cyclic",
        "btio_tile",
        "fine2",
        "fine4",
        "fine8",
        "fig4_8",
        "vv_ragged",
        "btio_ragged",
    ] {
        let manual = med("pack_manual", &format!("manual/{name}"));
        if manual.is_finite() {
            rows.push(schema::Entry::new(
                "pack_manual_ratio",
                name,
                "vs_manual",
                manual / med("pack_manual", &format!("compiled/{name}")),
                "x",
            ));
        }
    }
    schema::write_bench_json("BENCH_pack.json", &rows, &[("cores", cores.to_string())]);
}

fn main() {
    bench_pack();
    bench_unpack();
    bench_pack_nested();
    let mut entries = Vec::new();
    bench_pack_compiled(&mut entries);
    bench_pack_manual(&mut entries);
    write_json(&entries);
}
