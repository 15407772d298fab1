//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro fig5 [--quick] [--data BYTES]
//! repro fig6 | fig7 | fig8 | table1 | table2 | table3 | overheads | all
//! repro metrics | top | trace | profile [--quick]
//! repro validate-json <file>
//! ```
//!
//! Each experiment prints the paper's rows/series and writes a CSV under
//! `results/`. Absolute numbers differ from the paper's SX-6/SX-7 testbed
//! (see DESIGN.md); the *shape* — who wins, by what factor, where the
//! crossovers fall — is the reproduction target recorded in
//! EXPERIMENTS.md.
//!
//! `repro metrics` runs one collective write + read per engine with the
//! `lio-obs` registry recording and dumps the full cross-layer metric
//! snapshots as JSON (`results/metrics.json`): file accesses, bytes
//! moved, exchange-phase bytes (list metadata vs data), and the
//! per-phase two-phase timing breakdown. Performance is judged by the
//! `benchmark/` package, not by this runner.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use lio_btio::{volume_stats, Class};
use lio_core::{Engine, Layers};
use lio_noncontig::{Access, Config, Pattern};

struct Opts {
    quick: bool,
    data: Option<u64>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    // the subcommand taking a positional path, not figure options
    if cmd == "validate-json" {
        let path = args.next().unwrap_or_else(|| usage());
        validate_json(&path);
        return;
    }
    let mut opts = Opts {
        quick: false,
        data: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--data" => {
                opts.data = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    fs::create_dir_all("results").expect("create results dir");
    match cmd.as_str() {
        "fig5" => fig5(&opts),
        "fig6" => fig6(&opts),
        "fig7" => fig7(&opts),
        "fig8" => fig8(&opts),
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(&opts),
        "overheads" => overheads(),
        "multidim" => multidim(&opts),
        "ablation" => ablation(&opts),
        "throttle" => throttle(&opts),
        "tileio" => tileio(&opts),
        "metrics" => metrics(&opts),
        "top" => top_cmd(&opts),
        "trace" => trace_cmd(&opts),
        "profile" => profile_cmd(&opts),
        "all" => {
            fig5(&opts);
            fig6(&opts);
            fig7(&opts);
            fig8(&opts);
            table1();
            table2();
            table3(&opts);
            overheads();
            multidim(&opts);
            ablation(&opts);
            throttle(&opts);
            tileio(&opts);
            metrics(&opts);
            trace_cmd(&opts);
            profile_cmd(&opts);
        }
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro fig5|fig6|fig7|fig8|table1|table2|table3|overheads|multidim|ablation|throttle|tileio|metrics|top|trace|profile|all \
         [--quick] [--data BYTES]\n       repro validate-json <file>"
    );
    std::process::exit(2);
}

const ENGINES: [(Engine, &str); 2] = [
    (Engine::ListBased, "list-based"),
    (Engine::Listless, "listless"),
];
const PATTERNS: [Pattern; 3] = [Pattern::NcNc, Pattern::NcC, Pattern::CNc];

fn save(path: &str, csv: &str) {
    fs::write(Path::new(path), csv).expect("write csv");
    println!("  -> {path}");
}

/// Run one noncontig config and return (write Bpp, read Bpp) in MB/s.
fn point(cfg: &Config) -> (f64, f64) {
    // one warmup at reduced volume, then the measured run
    let mut warm = cfg.clone();
    warm.bytes_per_proc = (cfg.bytes_per_proc / 4).max(cfg.nblock * cfg.sblock);
    lio_noncontig::run(&warm);
    let r = lio_noncontig::run(cfg);
    (r.write_bpp, r.read_bpp)
}

/// The figure-5/6 sweep skeleton: Bpp vs Nblock for six series.
fn nblock_sweep(name: &str, access: Access, nprocs: usize, sblock: u64, opts: &Opts) {
    let nblocks: &[u64] = if opts.quick {
        &[16, 256, 4096]
    } else {
        &[16, 64, 256, 1024, 4096, 16384]
    };
    let data = opts
        .data
        .unwrap_or(if opts.quick { 256 << 10 } else { 1 << 20 });
    println!(
        "# {name}: Bpp [MB/s] vs Nblock ({access:?}, P={nprocs}, Sblock={sblock} B, {data} B/proc)"
    );
    let mut csv = String::from("nblock,engine,pattern,write_bpp,read_bpp\n");
    println!(
        "{:>8} {:<11} {:<6} {:>12} {:>12}",
        "Nblock", "engine", "pat", "write Bpp", "read Bpp"
    );
    for &nblock in nblocks {
        for (engine, ename) in ENGINES {
            for pattern in PATTERNS {
                let cfg = Config {
                    nprocs,
                    nblock,
                    sblock,
                    pattern,
                    access,
                    engine,
                    bytes_per_proc: data,
                    verify: false,
                    cb_buffer: None,
                    ind_buffer: None,
                    reps: 3,
                };
                let (w, r) = point(&cfg);
                println!(
                    "{:>8} {:<11} {:<6} {:>12.2} {:>12.2}",
                    nblock,
                    ename,
                    pattern.label(),
                    w,
                    r
                );
                writeln!(csv, "{nblock},{ename},{},{w:.3},{r:.3}", pattern.label()).unwrap();
            }
        }
    }
    save(&format!("results/{name}.csv"), &csv);
}

/// Figure 5: independent write/read, Sblock = 8 B, P = 2.
fn fig5(opts: &Opts) {
    nblock_sweep("fig5", Access::Independent, 2, 8, opts);
}

/// Figure 6: collective write/read, Sblock = 8 B, P = 8.
fn fig6(opts: &Opts) {
    nblock_sweep("fig6", Access::Collective, 8, 8, opts);
}

/// Figure 7: Bpp vs Sblock, independent, Nblock = 8, P = 2.
fn fig7(opts: &Opts) {
    let sblocks: &[u64] = if opts.quick {
        &[4, 64, 2048, 16384]
    } else {
        &[4, 16, 64, 256, 1024, 4096, 16384]
    };
    let data = opts
        .data
        .unwrap_or(if opts.quick { 256 << 10 } else { 1 << 20 });
    println!("# fig7: Bpp [MB/s] vs Sblock (independent, P=2, Nblock=8, {data} B/proc)");
    let mut csv = String::from("sblock,engine,pattern,write_bpp,read_bpp\n");
    println!(
        "{:>8} {:<11} {:<6} {:>12} {:>12}",
        "Sblock", "engine", "pat", "write Bpp", "read Bpp"
    );
    for &sblock in sblocks {
        for (engine, ename) in ENGINES {
            for pattern in PATTERNS {
                let cfg = Config {
                    nprocs: 2,
                    nblock: 8,
                    sblock,
                    pattern,
                    access: Access::Independent,
                    engine,
                    bytes_per_proc: data,
                    verify: false,
                    cb_buffer: None,
                    ind_buffer: None,
                    reps: 3,
                };
                let (w, r) = point(&cfg);
                println!(
                    "{:>8} {:<11} {:<6} {:>12.2} {:>12.2}",
                    sblock,
                    ename,
                    pattern.label(),
                    w,
                    r
                );
                writeln!(csv, "{sblock},{ename},{},{w:.3},{r:.3}", pattern.label()).unwrap();
            }
        }
    }
    save("results/fig7.csv", &csv);
}

/// Figure 8: Bpp vs P, collective, Nblock = 64, Sblock = 2048 B.
fn fig8(opts: &Opts) {
    let procs: &[usize] = if opts.quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let data = opts
        .data
        .unwrap_or(if opts.quick { 256 << 10 } else { 1 << 20 });
    println!("# fig8: Bpp [MB/s] vs P (collective, Nblock=64, Sblock=2048 B, {data} B/proc)");
    let mut csv = String::from("procs,engine,pattern,write_bpp,read_bpp\n");
    println!(
        "{:>6} {:<11} {:<6} {:>12} {:>12}",
        "P", "engine", "pat", "write Bpp", "read Bpp"
    );
    for &p in procs {
        for (engine, ename) in ENGINES {
            for pattern in PATTERNS {
                let cfg = Config {
                    nprocs: p,
                    nblock: 64,
                    sblock: 2048,
                    pattern,
                    access: Access::Collective,
                    engine,
                    bytes_per_proc: data,
                    verify: false,
                    cb_buffer: None,
                    ind_buffer: None,
                    reps: 3,
                };
                let (w, r) = point(&cfg);
                println!(
                    "{:>6} {:<11} {:<6} {:>12.2} {:>12.2}",
                    p,
                    ename,
                    pattern.label(),
                    w,
                    r
                );
                writeln!(csv, "{p},{ename},{},{w:.3},{r:.3}", pattern.label()).unwrap();
            }
        }
    }
    save("results/fig8.csv", &csv);
}

/// Table 1: BTIO data volumes.
fn table1() {
    println!("# table1: BTIO data volume (paper: B = 42 MB / 1.7 GB, C = 170 MB / 6.8 GB)");
    let mut csv = String::from("class,grid,dstep_mb,drun_gb\n");
    println!(
        "{:>6} {:>14} {:>12} {:>10}",
        "Class", "Grid", "Dstep", "Drun"
    );
    for class in [Class::B, Class::C] {
        let v = volume_stats(class, 40);
        let n = class.n();
        println!(
            "{:>6} {:>14} {:>9.0} MB {:>7.1} GB",
            class.name(),
            format!("{n}x{n}x{n}"),
            v.dstep as f64 / 1e6,
            v.drun as f64 / 1e9
        );
        writeln!(
            csv,
            "{},{n}x{n}x{n},{:.1},{:.2}",
            class.name(),
            v.dstep as f64 / 1e6,
            v.drun as f64 / 1e9
        )
        .unwrap();
    }
    save("results/table1.csv", &csv);
}

/// Table 2: BTIO access pattern (Nblock, Sblock).
fn table2() {
    println!("# table2: BTIO non-contiguous access pattern (Sblock in bytes)");
    let mut csv = String::from("class,procs,nblock,sblock\n");
    println!("{:>6} {:>4} {:>8} {:>8}", "Class", "P", "Nblock", "Sblock");
    for class in [Class::B, Class::C] {
        for p in [4usize, 9, 16, 25] {
            let d = lio_btio::Decomp::new(class.n(), p).expect("square P");
            let (nblock, sblock) = d.access_pattern(0);
            println!("{:>6} {:>4} {:>8} {:>8.0}", class.name(), p, nblock, sblock);
            writeln!(csv, "{},{p},{nblock},{sblock:.0}", class.name()).unwrap();
        }
    }
    save("results/table2.csv", &csv);
}

/// Table 3: BTIO timings for both engines.
fn table3(opts: &Opts) {
    // full Table 3 runs classes B and C; --quick uses S and A with fewer
    // steps so it finishes in seconds
    let (classes, steps): (&[Class], usize) = if opts.quick {
        (&[Class::S, Class::A], 5)
    } else {
        (&[Class::B, Class::C], 40)
    };
    let procs: &[usize] = if opts.quick { &[4, 9] } else { &[4, 9, 16, 25] };
    println!("# table3: BTIO timings, {steps} steps (t in s, B in MB/s); paper r_io = 1.1-2.1");
    let mut csv = String::from(
        "class,procs,t_no_io,dt_list_based,dt_listless,r_io,b_list_based,b_listless\n",
    );
    println!(
        "{:>6} {:>4} {:>9} {:>12} {:>12} {:>6} {:>10} {:>10}",
        "Class", "P", "t_no-io", "dt_io(list)", "dt_io(ll)", "r_io", "B(list)", "B(ll)"
    );
    // single-run timings with many ranks timesharing one core are too
    // noisy; take the fastest of `reps` runs per configuration, and reuse
    // one pre-faulted output file for every run of a configuration so no
    // engine pays allocation/page-reclaim costs the other skipped
    let reps = if opts.quick { 1 } else { 2 };
    let best = |cfg: &lio_btio::Config, shared: &lio_core::SharedFile| -> lio_btio::RunResult {
        let mut best = lio_btio::run_on(cfg, shared.clone());
        for _ in 1..reps {
            let r = lio_btio::run_on(cfg, shared.clone());
            if r.total_secs < best.total_secs {
                best = r;
            }
        }
        best
    };
    for &class in classes {
        for &p in procs {
            let shared = lio_core::SharedFile::new(lio_pfs::MemFile::new());
            let mut cfg = lio_btio::Config::new(class, p);
            cfg.nsteps = steps;
            cfg.io_enabled = false;
            let base = best(&cfg, &shared);

            cfg.io_enabled = true;
            cfg.engine = Engine::ListBased;
            let list = best(&cfg, &shared);
            cfg.engine = Engine::Listless;
            let ll = best(&cfg, &shared);

            // Δt as the paper defines it, with the measured in-write time
            // as a fallback floor for noisy small runs
            let dt_list = (list.total_secs - base.total_secs).max(list.io_secs * 0.5);
            let dt_ll = (ll.total_secs - base.total_secs).max(ll.io_secs * 0.5);
            let r_io = dt_list / dt_ll;
            let vol = volume_stats(class, steps as u64).drun as f64;
            let b_list = vol / dt_list / 1e6;
            let b_ll = vol / dt_ll / 1e6;
            println!(
                "{:>6} {:>4} {:>9.2} {:>12.3} {:>12.3} {:>6.2} {:>10.0} {:>10.0}",
                class.name(),
                p,
                base.total_secs,
                dt_list,
                dt_ll,
                r_io,
                b_list,
                b_ll
            );
            writeln!(
                csv,
                "{},{p},{:.3},{:.4},{:.4},{:.3},{:.0},{:.0}",
                class.name(),
                base.total_secs,
                dt_list,
                dt_ll,
                r_io,
                b_list,
                b_ll
            )
            .unwrap();
        }
    }
    save("results/table3.csv", &csv);
}

/// The Section 2.4 / 3.3 overhead inventory, quantified: representation
/// memory, creation time, navigation time for list-based vs listless
/// handling. Flattening, the one-pass build of a collective's access list,
/// the coverage merge of two interleaved received lists and the co-walk
/// that copies a view's blocks out of a strided buffer are each timed as
/// the median of several runs and also given per tuple (per block, the
/// co-walk, of two lists and of one list beside a contiguous buffer): the
/// unit costs a list-based model composes. Navigation and the fileview's
/// encoding take well under a microsecond per call, below what one clock
/// reading resolves, so they are timed the same way over a batch of
/// `CALLS` calls — navigation to `CALLS` skips spread over the instance —
/// and given per call.
fn overheads() {
    use lio_datatype::kernels::{Store, Stores};
    use lio_datatype::{ff_offset, serialize, CoWalk, Datatype, OlList, OlWire};
    use std::time::Instant;

    const REPS: usize = 9;
    const CALLS: u64 = 64;
    /// Median microseconds of `REPS` runs of `f`.
    fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
        let mut times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[REPS / 2]
    }
    println!("# overheads: the paper's Section 2.4 inventory, measured");
    let mut csv = String::from(
        "nblock,ol_bytes,compact_bytes,flatten_us,flatten_ns_per_tuple,build_ns_per_tuple,merge_ns_per_tuple,cowalk_ns_per_block,cowalk1_ns_per_block,encode_us,nav_linear_us,nav_ff_us\n",
    );
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "Nblock",
        "ol-list B",
        "compact B",
        "flatten us",
        "ns/tuple",
        "build ns",
        "merge ns",
        "copy ns",
        "copy1 ns",
        "encode us",
        "nav-lin us",
        "nav-ff us"
    );
    for nblock in [64u64, 1024, 16384, 262144] {
        let d = Datatype::vector(nblock, 1, 2, &Datatype::double()).expect("vector");

        let flatten_us = median_us(|| OlList::flatten(&d, 1));
        let ol = OlList::flatten(&d, 1);
        let ol_bytes = ol.memory_bytes();
        let tuples = ol.num_blocks() as f64;
        let ns_per_tuple = flatten_us * 1e3 / tuples;

        // an AP's access list of one instance, and the same view's at an
        // 8-byte offset — the other rank of the Figure-4 pattern — merged
        // from the bytes they travel as, as an IOP merges them
        let (ext, size) = (d.extent(), d.size());
        let build_us = median_us(|| ol.encode_tiled(0, ext, size, 0..size));
        let build_ns = build_us * 1e3 / tuples;
        let lists = [
            ol.encode_tiled(0, ext, size, 0..size),
            ol.encode_tiled(8, ext, size, 0..size),
        ];
        let wires = lists
            .each_ref()
            .map(|l| OlWire::new(l).expect("whole tuples"));
        let merge_us = median_us(|| OlList::merge_lists(wires.iter().map(OlWire::segs)));
        let merge_ns = merge_us * 1e3 / (2.0 * tuples);

        // the list-based placement of one instance's blocks into a window
        // of the view, out of a user buffer of the same strided shape: the
        // view's tiled list and the memtype's list walked side by side
        let user: Vec<u8> = (0..ext).map(|i| i as u8).collect();
        let mut win = vec![0u8; ext as usize];
        let copy_us = median_us(|| {
            let walk = CoWalk::new(ol.tiled_cursor(0, ext, size, 0), ol.cursor(0));
            let stores = &mut Stores::new(Store::Cached);
            walk.clone()
                .place(&mut win, 0, &user, size as usize, stores)
        });
        let copy_ns = copy_us * 1e3 / tuples;
        // one list: the same blocks packed from the user buffer, the
        // memtype's list walked beside a contiguous buffer
        let mut packed = vec![0u8; size as usize];
        let copy1_us = median_us(|| ol.pack(&user, 0, &mut packed));
        let copy1_ns = copy1_us * 1e3 / tuples;

        let compact = serialize::encode(&d);
        let per_call = |us: f64| us / CALLS as f64;
        let encode_us = per_call(median_us(|| {
            (0..CALLS)
                .map(|_| serialize::encode(&d).len())
                .sum::<usize>()
        }));

        // navigate to the middles of CALLS equal slices of the instance:
        // list-based (linear) vs ff (O(depth))
        let skips: Vec<u64> = (0..CALLS)
            .map(|k| (2 * k + 1) * size / (2 * CALLS))
            .collect();
        let nav_linear_us = per_call(median_us(|| {
            skips
                .iter()
                .map(|&s| ol.offset_of(std::hint::black_box(s)).expect("inside"))
                .sum::<i64>()
        }));
        let nav_ff_us = per_call(median_us(|| {
            skips
                .iter()
                .map(|&s| ff_offset(&d, std::hint::black_box(s)))
                .sum::<i64>()
        }));
        for &s in &skips {
            assert_eq!(ol.offset_of(s), Some(ff_offset(&d, s)), "skip {s}");
        }

        println!(
            "{:>8} {:>12} {:>10} {:>12.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.3} {:>12.2} {:>10.4}",
            nblock,
            ol_bytes,
            compact.len(),
            flatten_us,
            ns_per_tuple,
            build_ns,
            merge_ns,
            copy_ns,
            copy1_ns,
            encode_us,
            nav_linear_us,
            nav_ff_us
        );
        writeln!(
            csv,
            "{nblock},{ol_bytes},{},{flatten_us:.1},{ns_per_tuple:.2},{build_ns:.2},{merge_ns:.2},{copy_ns:.2},{copy1_ns:.2},{encode_us:.3},{nav_linear_us:.2},{nav_ff_us:.4}",
            compact.len()
        )
        .unwrap();
    }
    save("results/overheads.csv", &csv);
}

/// Extension (the paper's outlook, Section 5): "applications sometimes
/// use more complex filetypes like multi-dimensional arrays, which are
/// accessed in different manners" — collective tile writes of a global
/// 3D array through subarray fileviews, both engines, by slab thickness.
fn multidim(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::{Datatype, Order};
    use lio_mpi::World;
    use lio_pfs::MemFile;
    use std::time::Instant;

    let n: u64 = if opts.quick { 48 } else { 96 };
    let procs = 4usize;
    println!("# multidim: collective 3D subarray writes, N={n}, P={procs} (outlook experiment)");
    let mut csv = String::from("split,engine,write_mbs\n");
    println!(
        "{:<18} {:<11} {:>12}",
        "decomposition", "engine", "write MB/s"
    );
    // three ways to cut the same cube among 4 ranks: z-slabs (large
    // contiguous rows), y-slabs (strided rows), x-columns (tiny blocks)
    let splits: [(&str, [u64; 3]); 3] = [
        ("z-slabs", [n / 4, n, n]),
        ("y-slabs", [n, n / 4, n]),
        ("x-columns", [n, n, n / 4]),
    ];
    for (name, sub) in splits {
        for (engine, ename) in ENGINES {
            let shared = SharedFile::new(MemFile::new());
            shared.storage().set_len(n * n * n * 8).expect("prefault");
            let total_bytes = sub.iter().product::<u64>() * 8;
            let mut best = f64::INFINITY;
            let reps = if opts.quick { 3 } else { 5 };
            for _ in 0..reps {
                let shared2 = shared.clone();
                let secs = World::run(procs, move |comm| {
                    let me = comm.rank() as u64;
                    let starts = match name {
                        "z-slabs" => [me * sub[0], 0, 0],
                        "y-slabs" => [0, me * sub[1], 0],
                        _ => [0, 0, me * sub[2]],
                    };
                    let ft = Datatype::subarray(
                        &[n, n, n],
                        &sub,
                        &starts,
                        Order::C,
                        &Datatype::double(),
                    )
                    .expect("subarray");
                    let mut f = File::open(comm, shared2.clone(), Hints::with_engine(engine))
                        .expect("open");
                    f.set_view(0, Datatype::double(), ft).expect("set_view");
                    let data = vec![me as u8 + 1; total_bytes as usize];
                    comm.barrier();
                    let t = Instant::now();
                    f.write_at_all(0, &data, total_bytes, &Datatype::byte())
                        .expect("write");
                    comm.barrier();
                    comm.allmax_f64(t.elapsed().as_secs_f64())
                })[0];
                best = best.min(secs);
            }
            let mbs = total_bytes as f64 / best / 1e6;
            println!("{:<18} {:<11} {:>12.1}", name, ename, mbs);
            writeln!(csv, "{name},{ename},{mbs:.2}").unwrap();
        }
    }
    save("results/multidim.csv", &csv);
}

/// Ablations of the two-phase design choices DESIGN.md calls out: the
/// collective buffer size and the number of io-processes, at the
/// figure-6 operating point (collective nc-nc, small blocks).
fn ablation(opts: &Opts) {
    use lio_datatype::{Datatype, Order};

    let data = opts
        .data
        .unwrap_or(if opts.quick { 256 << 10 } else { 1 << 20 });
    let base = Config {
        nprocs: 4,
        nblock: 1024,
        sblock: 8,
        pattern: Pattern::NcNc,
        access: Access::Collective,
        engine: Engine::Listless,
        bytes_per_proc: data,
        verify: false,
        cb_buffer: None,
        ind_buffer: None,
        reps: 3,
    };
    println!("# ablation: collective buffer size and IOP count (P=4, Nblock=1024, Sblock=8)");
    let mut csv = String::from("knob,value,engine,write_bpp,read_bpp\n");
    println!(
        "{:<10} {:>10} {:<11} {:>12} {:>12}",
        "knob", "value", "engine", "write Bpp", "read Bpp"
    );
    const WINDOWS: [usize; 5] = [64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20];
    for cb in WINDOWS {
        for (engine, ename) in ENGINES {
            let mut cfg = base.clone();
            cfg.engine = engine;
            cfg.cb_buffer = Some(cb);
            let (w, r) = point(&cfg);
            println!(
                "{:<10} {:>10} {:<11} {:>12.2} {:>12.2}",
                "cb_buffer", cb, ename, w, r
            );
            writeln!(csv, "cb_buffer,{cb},{ename},{w:.3},{r:.3}").unwrap();
        }
    }
    // The benchmark's coll-tile shape (P = 2, a 64³ grid of 40-byte points
    // split along the fastest axis, 5.2 MB per rank and op) on both
    // backends: the point the default window was chosen at.
    let n = if opts.quick { 32 } else { 64 };
    let tile = |rank: u64| {
        Datatype::subarray(
            &[n, n, n],
            &[n, n, n / 2],
            &[0, 0, rank * n / 2],
            Order::C,
            &Datatype::basic(40),
        )
        .expect("tile subarray")
    };
    for (backend, knob) in [
        (lio_core::BackendKind::Mem, "tile_cb_mem"),
        (lio_core::BackendKind::Os, "tile_cb_os"),
    ] {
        for cb in WINDOWS {
            for (engine, ename) in ENGINES {
                let hints = lio_core::Hints::with_engine(engine).cb_buffer(cb);
                let (w, r) = coll_point(2, hints, backend, n * n * n / 2 * 40, tile);
                println!("{knob:<10} {cb:>10} {ename:<11} {w:>12.2} {r:>12.2}");
                writeln!(csv, "{knob},{cb},{ename},{w:.3},{r:.3}").unwrap();
            }
        }
    }
    // IOP count is a Hints knob the noncontig Config does not expose;
    // sweep it through a direct run
    let (nblock, sblock) = (1024u64, 8u64);
    let total = (data / (nblock * sblock)).max(1) * nblock * sblock;
    for nodes in [1usize, 2, 4] {
        for (engine, ename) in ENGINES {
            let hints = lio_core::Hints::with_engine(engine).io_nodes(nodes);
            let (w, r) = coll_point(4, hints, lio_core::BackendKind::Mem, total, |rank| {
                lio_noncontig::figure4_filetype(rank, 4, nblock, sblock)
            });
            println!(
                "{:<10} {:>10} {:<11} {:>12.2} {:>12.2}",
                "cb_nodes", nodes, ename, w, r
            );
            writeln!(csv, "cb_nodes,{nodes},{ename},{w:.3},{r:.3}").unwrap();
        }
    }
    save("results/ablation.csv", &csv);
}

/// Collective writes and read-backs of `total` bytes per rank through the
/// byte view `view(rank)` on a fresh pre-sized file of `backend`, on one
/// open file: a warm-up pair (page faults, the scratch arena's first
/// allocations), then the best of five timed pairs, slowest rank.
/// `(write, read)` MB/s per process.
fn coll_point(
    nprocs: usize,
    hints: lio_core::Hints,
    backend: lio_core::BackendKind,
    total: u64,
    view: impl Fn(u64) -> lio_datatype::Datatype + Sync,
) -> (f64, f64) {
    use lio_core::{File, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use std::time::Instant;

    let shared = SharedFile::for_backend(backend).expect("storage for the ablation point");
    shared
        .storage()
        .set_len(total * nprocs as u64)
        .expect("prefault");
    let (w, r) = World::run(nprocs, |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), hints).expect("open");
        f.set_view(0, Datatype::byte(), view(me)).expect("set_view");
        let data_buf = vec![me as u8; total as usize];
        let mut back = vec![0u8; total as usize];
        let mut best = (f64::INFINITY, f64::INFINITY);
        for i in 0..6 {
            comm.barrier();
            let t = Instant::now();
            f.write_at_all(0, &data_buf, total, &Datatype::byte())
                .expect("write");
            comm.barrier();
            let w = comm.allmax_f64(t.elapsed().as_secs_f64());
            let t = Instant::now();
            f.read_at_all(0, &mut back, total, &Datatype::byte())
                .expect("read");
            comm.barrier();
            let r = comm.allmax_f64(t.elapsed().as_secs_f64());
            if i > 0 {
                best = (best.0.min(w), best.1.min(r));
            }
        }
        best
    })[0];
    (total as f64 / w / 1e6, total as f64 / r / 1e6)
}

/// Storage-speed ablation (the paper's closing observation: "the higher
/// the bandwidth of the used file system ... the more important listless
/// I/O is"): the same collective nc-nc point over stores of different
/// speeds. The listless advantage should shrink as storage slows down.
fn throttle(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use lio_pfs::{Decorated, MemFile, Throttle};
    use std::time::Instant;

    let data = opts
        .data
        .unwrap_or(if opts.quick { 128 << 10 } else { 512 << 10 });
    let nprocs = 4usize;
    let nblock = 1024u64;
    let sblock = 8u64;
    let count = (data / (nblock * sblock)).max(1);
    let total = count * nblock * sblock;

    println!("# throttle: engine advantage vs storage speed (collective nc-nc)");
    let mut csv = String::from("storage,engine,write_bpp\n");
    println!("{:<14} {:<11} {:>12}", "storage", "engine", "write Bpp");
    let profiles: [(&str, Option<Throttle>); 3] = [
        ("memcpy", None),
        ("sx6-like", Some(Throttle::sx6_local_fs())),
        ("nfs-like", Some(Throttle::commodity_nfs())),
    ];
    for (sname, profile) in profiles {
        for (engine, ename) in ENGINES {
            let shared = match profile {
                None => SharedFile::new(MemFile::new()),
                Some(t) => SharedFile::new(Decorated::new(MemFile::new(), t)),
            };
            shared
                .storage()
                .set_len(total * nprocs as u64)
                .expect("prefault");
            let hints = Hints::with_engine(engine);
            let mut best = f64::INFINITY;
            let reps = if sname == "nfs-like" { 1 } else { 2 };
            for _ in 0..reps {
                let shared2 = shared.clone();
                let secs = World::run(nprocs, move |comm| {
                    let me = comm.rank() as u64;
                    let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
                    let mut f = File::open(comm, shared2.clone(), hints).expect("open");
                    f.set_view(0, Datatype::byte(), ft).expect("set_view");
                    let data_buf = vec![me as u8; total as usize];
                    comm.barrier();
                    let t = Instant::now();
                    f.write_at_all(0, &data_buf, total, &Datatype::byte())
                        .expect("write");
                    comm.barrier();
                    comm.allmax_f64(t.elapsed().as_secs_f64())
                })[0];
                best = best.min(secs);
            }
            let mbs = total as f64 / best / 1e6;
            println!("{:<14} {:<11} {:>12.2}", sname, ename, mbs);
            writeln!(csv, "{sname},{ename},{mbs:.3}").unwrap();
        }
    }
    save("results/throttle.csv", &csv);
}

/// One instrumented collective write + read per engine and storage, with
/// a full `lio-obs` snapshot each. The JSON answers,
/// per configuration: how many file accesses and bytes the storage
/// layer saw (`pfs.*`, through a `lio_pfs::Counter` policy), how many bytes
/// crossed the exchange phase and how much of that was ol-list metadata
/// (`core.coll.exchange.*`, `mpi.*`), how many blocks the pack/unpack
/// machinery copied (`dt.*`), and how the wall time of the collective
/// split into exchange / file I/O / pack phases (`core.coll.*_ns`).
/// The `*_throttled` entries run on throttled (1 ms/op) storage with
/// small windows, so the IOPs' write-behind lanes arm (`io.behind_bytes`).
fn metrics(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use lio_pfs::{Counter, Decorated, MemFile, Throttle};
    use std::time::Duration;

    let nprocs = 4usize;
    let nblock: u64 = if opts.quick { 256 } else { 1024 };
    let sblock: u64 = 8;
    let count = 16u64;
    let total = count * nblock * sblock;
    println!(
        "# metrics: instrumented collective write+read (P={nprocs}, Nblock={nblock}, Sblock={sblock})"
    );

    // Consume the one-shot LIO_OBS env check up front: this subcommand is
    // meaningless without recording, so the layers it arms below must win
    // over the env var that File::open would otherwise apply mid-run.
    lio_obs::init_from_env();

    /// What a column's file is made of. Every kind but `Bare` sits under
    /// a `Counter`, which declines to lend: a lent window is no request to
    /// count, so every window of those columns is staged.
    #[derive(PartialEq)]
    enum Store {
        Counted,
        Throttled,
        Bare,
    }
    let mut configs = Vec::new();
    for (engine, ename) in ENGINES.iter() {
        configs.push((
            ename.replace('-', "_"),
            Hints::with_engine(*engine),
            Store::Counted,
        ));
    }
    for (engine, ename) in ENGINES.iter() {
        configs.push((
            format!("{}_throttled", ename.replace('-', "_")),
            Hints::with_engine(*engine).cb_buffer(4 << 10),
            Store::Throttled,
        ));
    }
    // the real-disk column: the same collective on the mapped real file
    // (`UnixFile::temp()`), counted like the rest
    for (engine, ename) in ENGINES.iter() {
        configs.push((
            format!("{}_os", ename.replace('-', "_")),
            Hints::with_engine(*engine).backend(lio_core::BackendKind::Os),
            Store::Counted,
        ));
    }
    // the health column: the same collective with the runtime health
    // layer armed (heartbeats, skew tracking, watchdog in diagnose-only
    // mode) — a small window size so every op closes several skew windows
    for (engine, ename) in ENGINES.iter() {
        configs.push((
            format!("{}_health", ename.replace('-', "_")),
            Hints::with_engine(*engine)
                .cb_buffer(4 << 10)
                .observe(Layers::METRICS | Layers::HEALTH),
            Store::Counted,
        ));
    }
    // the in-place column: the same collective on a bare `MemFile`, which
    // lends its bytes, so nothing is staged (and no request counted)
    for (engine, ename) in ENGINES.iter() {
        configs.push((
            format!("{}_in_place", ename.replace('-', "_")),
            Hints::with_engine(*engine),
            Store::Bare,
        ));
    }
    let mut json = String::from("{\n");
    for (i, (key, hints, store)) in configs.iter().enumerate() {
        let layers = hints.obs.unwrap_or(Layers::METRICS);
        let health_on = layers.contains(Layers::HEALTH);
        lio_obs::reset();
        lio_obs::health::reset();
        layers.arm();
        if health_on {
            // diagnose-only with a deadline this workload cannot trip
            lio_obs::health::set_watchdog(30_000, false);
        }
        let slow = Throttle {
            read_bw: 2e9,
            write_bw: 2e9,
            latency: Duration::from_millis(1),
        };
        let throttled = *store == Store::Throttled;
        let shared = if throttled {
            SharedFile::new(Decorated::new(
                Decorated::new(MemFile::new(), slow),
                Counter::default(),
            ))
        } else if hints.backend == lio_core::BackendKind::Os {
            SharedFile::new(Decorated::new(
                lio_pfs::UnixFile::temp().expect("os backend temp file"),
                Counter::default(),
            ))
        } else if *store == Store::Bare {
            SharedFile::new(MemFile::new())
        } else {
            SharedFile::new(Decorated::new(MemFile::new(), Counter::default()))
        };
        let hints = *hints;
        let shared2 = shared.clone();
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared2.clone(), hints).expect("open");
            let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
            f.set_view(0, Datatype::byte(), ft).expect("set_view");
            let data = vec![me as u8 + 1; total as usize];
            f.write_at_all(0, &data, total, &Datatype::byte())
                .expect("write");
            let mut back = vec![0u8; total as usize];
            f.read_at_all(0, &mut back, total, &Datatype::byte())
                .expect("read");
            assert_eq!(back, data, "read-back mismatch");
        });
        Layers::NONE.arm();
        let snap = lio_obs::snapshot();
        println!(
            "  {key}: {} file accesses, {} B written, {} B list metadata",
            snap.counter("pfs.read.calls") + snap.counter("pfs.write.calls"),
            snap.counter("pfs.write.bytes"),
            snap.counter("core.coll.exchange.list_bytes"),
        );
        // Copies per user byte of the write and the read together: what
        // the library's copy loops moved plus what went through a staged
        // window.
        let user = (2 * nprocs as u64 * total) as f64;
        let moved = snap.counter("dt.copy.bytes") + snap.counter("io.staged_bytes");
        let copies = moved as f64 / user;
        println!(
            "  {key}: copies_per_user_byte {copies:.3} ({} B staged, {} B of them written \
             behind, {} B in place)",
            snap.counter("io.staged_bytes"),
            snap.counter("io.behind_bytes"),
            snap.counter("io.in_place_bytes"),
        );
        // satellite: request-size quantiles straight from the log2
        // histograms — the shape data sieving / two-phase is supposed
        // to move (tiny accesses -> buffer-sized ones)
        // (none on the `*_in_place` columns: they make no storage request)
        if let Some(h) = snap.histogram("pfs.write.size").filter(|h| h.count > 0) {
            println!(
                "  {key}: pfs write sizes p50/p95/p99 = {}/{}/{} B ({} calls)",
                h.p50(),
                h.p95(),
                h.p99(),
                h.count,
            );
        }
        if health_on {
            let hr = lio_obs::health::report();
            println!(
                "  {key}: health {} beats, watchdog {} checks / {} fired, {} straggler flags",
                snap.counter("core.health.beats"),
                hr.watchdog_checks,
                hr.watchdog_fired,
                hr.straggler_flags,
            );
            if let Some(h) = snap.histogram("core.health.skew_ns") {
                println!(
                    "  {key}: window rank-skew p50/p95/p99 = {}/{}/{} ns ({} windows)",
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.count,
                );
            }
        }
        let sep = if i + 1 < configs.len() { "," } else { "" };
        writeln!(json, "  \"{key}\": {}{sep}", snap.to_json()).unwrap();
    }
    json.push_str("}\n");
    fs::write("results/metrics.json", &json).expect("write metrics json");
    println!("  -> results/metrics.json");
}

/// `repro top`: live per-rank health introspection. Runs a 4-rank
/// collective write + read on throttled storage with the
/// runtime health layer armed, samples the lock-free heartbeat slots
/// while the collective is in flight (phase, window, bytes, heartbeat age
/// per rank — the batch rendering of a `top`-style view),
/// and writes the final schema-versioned health report to
/// `results/health.json`.
fn top_cmd(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use lio_obs::health;
    use lio_pfs::{Decorated, MemFile, Throttle};
    use std::time::Duration;

    let nprocs = 4usize;
    let nblock: u64 = if opts.quick { 128 } else { 512 };
    let sblock: u64 = 64;
    let steps: u64 = if opts.quick { 2 } else { 4 };
    let total = 16 * nblock * sblock;
    println!("# top: per-rank health snapshots over a 4-rank throttled collective run");

    // consume the one-shot env check, then arm the layer: this
    // subcommand exists to show heartbeats
    lio_obs::init_from_env();
    health::reset();
    Layers::HEALTH.arm();
    health::set_watchdog(30_000, false);

    let slow = Throttle {
        read_bw: 1e9,
        write_bw: 1e9,
        latency: Duration::from_millis(1),
    };
    let shared = SharedFile::new(Decorated::new(MemFile::new(), slow));
    let hints = Hints::listless().cb_buffer(4 << 10).observe(Layers::HEALTH);
    let worker = std::thread::spawn(move || {
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared.clone(), hints).expect("open");
            let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
            f.set_view(0, Datatype::byte(), ft).expect("set_view");
            for s in 0..steps {
                let data = vec![(me + s) as u8 + 1; total as usize];
                f.write_at_all(s * total, &data, total, &Datatype::byte())
                    .expect("write");
            }
            let mut back = vec![0u8; total as usize];
            f.read_at_all(0, &mut back, total, &Datatype::byte())
                .expect("read");
        });
    });

    // sample the slots while the collective runs: each frame is a
    // consistent-enough relaxed read of every rank's heartbeat slot
    let mut frames = 0u32;
    let t0 = std::time::Instant::now();
    while !worker.is_finished() && frames < 40 {
        std::thread::sleep(Duration::from_millis(50));
        let rep = health::report();
        if rep.ranks.is_empty() {
            continue;
        }
        frames += 1;
        println!("-- frame {frames} (t+{} ms)", t0.elapsed().as_millis());
        print!("{}", rep.render());
    }
    worker.join().expect("collective worker");

    let rep = health::report();
    println!("-- final ({frames} in-flight frames sampled)");
    print!("{}", rep.render());
    let json = rep.to_json();
    lio_obs::json::validate(&json).expect("health export must be well-formed JSON");
    fs::write("results/health.json", &json).expect("write health json");
    println!("  -> results/health.json");
    Layers::NONE.arm();
    health::reset();
}

/// `repro trace`: a 4-rank collective write + read on
/// throttled storage with event tracing armed, exported as a
/// Chrome/Perfetto timeline (`results/trace.json`, load it at
/// `ui.perfetto.dev`) together with the per-op critical-path report
/// naming the rank and phase that bounded each collective's wall time.
fn trace_cmd(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use lio_obs::trace;
    use lio_pfs::{Decorated, MemFile, Throttle};
    use std::time::Duration;

    let nprocs = 4usize;
    let nblock: u64 = if opts.quick { 128 } else { 512 };
    let sblock: u64 = 64;
    let total = 16 * nblock * sblock;
    println!("# trace: 4-rank collective write+read, 1 ms/op storage, tracing on");

    // consume the one-shot env check, then arm recording: this
    // subcommand exists to produce a timeline. Health is armed too: the
    // critical-path report then carries the per-rank window-skew
    // attribution alongside the bounding phases
    lio_obs::init_from_env();
    lio_obs::reset();
    trace::reset();
    lio_obs::health::reset();
    (Layers::METRICS | Layers::TRACE | Layers::HEALTH).arm();
    lio_obs::health::set_watchdog(30_000, false);

    let slow = Throttle {
        read_bw: 2e9,
        write_bw: 2e9,
        latency: Duration::from_millis(1),
    };
    let shared = SharedFile::new(Decorated::new(MemFile::new(), slow));
    let hints = Hints::listless().cb_buffer(4 << 10);
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), hints).expect("open");
        let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
        f.set_view(0, Datatype::byte(), ft).expect("set_view");
        let data = vec![me as u8 + 1; total as usize];
        f.write_at_all(0, &data, total, &Datatype::byte())
            .expect("write");
        let mut back = vec![0u8; total as usize];
        f.read_at_all(0, &mut back, total, &Datatype::byte())
            .expect("read");
        assert_eq!(back, data, "read-back mismatch");
    });

    let streams = trace::collect();
    let timeline = trace::merge(&streams);
    let reports = trace::critical_path(&timeline);

    let dropped: u64 = streams.iter().map(|s| s.dropped).sum();
    println!(
        "  {} events on {} ranks, {} message edges, {} dropped, {} unmatched, {} causal violations",
        timeline.events.len(),
        streams.len(),
        timeline.edges.len(),
        dropped,
        timeline.unmatched_sends + timeline.unmatched_recvs,
        timeline.causal_violations,
    );
    print!("{}", trace::render_report(&reports, &timeline));
    Layers::NONE.arm();
    lio_obs::health::reset();

    let json = trace::to_chrome_json(&timeline);
    lio_obs::json::validate(&json).expect("trace export must be well-formed JSON");
    fs::write("results/trace.json", &json).expect("write trace json");
    println!("  -> results/trace.json (open at https://ui.perfetto.dev)");
}

/// `repro profile`: run structurally different workloads — the Figure 5
/// independent pattern, the Figure 6 collective on throttled storage,
/// and a BTIO-style nested-datatype pack — with the metrics armed, print
/// each workload's characterization (the access-pattern profile, a view
/// of the registry), and write each workload's registry snapshot,
/// schema-versioned and stamped with the commit, to
/// `results/profile.json`.
fn profile_cmd(opts: &Opts) {
    use lio_core::{File, Hints, SharedFile};
    use lio_datatype::Datatype;
    use lio_mpi::World;
    use lio_obs::profile::Profile;
    use lio_pfs::{Counter, Decorated, MemFile, Throttle};
    use std::time::Duration;

    const PROFILE_SCHEMA_VERSION: u64 = 3;
    let nblock: u64 = if opts.quick { 128 } else { 512 };
    println!("# profile: access-pattern profile of the metric registry, 4 workloads");

    // consume the one-shot env check, then drive recording explicitly
    lio_obs::init_from_env();

    // run `body` with the metrics armed; returns the registry's JSON
    let profiled = |name: &str, body: &mut dyn FnMut()| -> String {
        lio_obs::reset();
        Layers::METRICS.arm();
        body();
        Layers::NONE.arm();
        let snap = lio_obs::snapshot();
        println!("  {name}: {}", Profile::of(&snap).characterize());
        snap.to_json()
    };

    let mut sections: Vec<(&str, String)> = Vec::new();

    // 1. Figure 5: independent access, 2 procs, 8 B blocks — the dense
    // small-block regime where data sieving wins
    sections.push((
        "fig5_independent",
        profiled("fig5_independent", &mut || {
            let nprocs = 2usize;
            let sblock = 8u64;
            let total = 16 * nblock * sblock;
            let shared = SharedFile::new(Decorated::new(MemFile::new(), Counter::default()));
            World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), Hints::listless()).expect("open");
                let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
                f.set_view(0, Datatype::byte(), ft).expect("set_view");
                let data = vec![me as u8 + 1; total as usize];
                f.write_at(0, &data, total, &Datatype::byte())
                    .expect("write");
                let mut back = vec![0u8; total as usize];
                f.read_at(0, &mut back, total, &Datatype::byte())
                    .expect("read");
                assert_eq!(back, data, "read-back mismatch");
            });
        }),
    ));

    // 2. Figure 6: collective access, 4 procs, slow storage — the profile
    // should reveal the io-bound phase breakdown
    sections.push((
        "fig6_collective_throttled",
        profiled("fig6_collective_throttled", &mut || {
            let nprocs = 4usize;
            let sblock = 64u64;
            let total = 16 * nblock * sblock;
            let slow = Throttle {
                read_bw: 2e9,
                write_bw: 2e9,
                latency: Duration::from_millis(1),
            };
            let shared = SharedFile::new(Decorated::new(
                Decorated::new(MemFile::new(), slow),
                Counter::default(),
            ));
            let hints = Hints::listless().cb_buffer(4 << 10);
            World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), hints).expect("open");
                let ft = lio_noncontig::figure4_filetype(me, nprocs as u64, nblock, sblock);
                f.set_view(0, Datatype::byte(), ft).expect("set_view");
                let data = vec![me as u8 + 1; total as usize];
                f.write_at_all(0, &data, total, &Datatype::byte())
                    .expect("write");
                let mut back = vec![0u8; total as usize];
                f.read_at_all(0, &mut back, total, &Datatype::byte())
                    .expect("read");
                assert_eq!(back, data, "read-back mismatch");
            });
        }),
    ));

    // 3. BTIO-style nested memtype: vector-of-vector elements into a
    // contiguous file region — pack-dominated, exercising the compiled
    // run-program shape stats
    let shard_n: u64 = if opts.quick { 512 } else { 2048 };
    sections.push((
        "btio_nested_pack",
        profiled("btio_nested_pack", &mut || {
            let nprocs = 4usize;
            let shared = SharedFile::new(Decorated::new(MemFile::new(), Counter::default()));
            World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), Hints::listless()).expect("open");
                let inner = Datatype::vector(16, 1, 2, &Datatype::basic(64)).unwrap();
                let mem = Datatype::vector(shard_n, 1, 2, &inner).unwrap();
                let size = mem.size();
                let span = mem.extent() as usize;
                let src: Vec<u8> = (0..span)
                    .map(|i| (i as u8).wrapping_add(me as u8))
                    .collect();
                f.set_view(0, Datatype::byte(), Datatype::byte())
                    .expect("set_view");
                f.write_at_all(me * size, &src, 1, &mem).expect("write");
                let mut back = vec![0u8; span];
                f.read_at_all(me * size, &mut back, 1, &mem).expect("read");
            });
        }),
    ));

    // 4. the same nested pack built raggedly (hindexed rows instead of
    // an outer vector): the raw compile is a literal tail and only the
    // normalization pass recovers the strided form — the profile must
    // report its rewrites (`dt.normalize.rewrites`)
    sections.push((
        "ragged_hindexed_pack",
        profiled("ragged_hindexed_pack", &mut || {
            let nprocs = 2usize;
            let rows: u64 = if opts.quick { 256 } else { 1024 };
            let shared = SharedFile::new(Decorated::new(MemFile::new(), Counter::default()));
            World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), Hints::listless()).expect("open");
                let row = Datatype::vector(16, 1, 2, &Datatype::basic(64)).unwrap();
                let step = 2 * row.extent() as i64;
                let lens = vec![1u64; rows as usize];
                let disps: Vec<i64> = (0..rows as i64).map(|i| i * step).collect();
                let mem = Datatype::hindexed(&lens, &disps, &row).unwrap();
                let size = mem.size();
                let span = mem.extent() as usize;
                let src: Vec<u8> = (0..span)
                    .map(|i| (i as u8).wrapping_add(me as u8))
                    .collect();
                f.set_view(0, Datatype::byte(), Datatype::byte())
                    .expect("set_view");
                f.write_at_all(me * size, &src, 1, &mem).expect("write");
                let mut back = vec![0u8; span];
                f.read_at_all(me * size, &mut back, 1, &mem).expect("read");
            });
        }),
    ));

    let mut json = String::from("{\n");
    writeln!(json, "  \"schema_version\": {PROFILE_SCHEMA_VERSION},").unwrap();
    writeln!(json, "  \"commit\": \"{}\",", commit()).unwrap();
    json.push_str("  \"workloads\": {\n");
    for (i, (name, metrics)) in sections.iter().enumerate() {
        let sep = if i + 1 < sections.len() { "," } else { "" };
        let metrics = metrics.trim_end().replace('\n', "\n  ");
        writeln!(json, "  \"{name}\": {metrics}{sep}").unwrap();
    }
    json.push_str("  }\n}\n");
    lio_obs::json::validate(&json).expect("profile export must be well-formed JSON");
    fs::write("results/profile.json", &json).expect("write profile json");
    println!("  -> results/profile.json");
}

/// The current git commit (short hash), or `"unknown"` outside a
/// repository, so a profile stays writable from an exported tarball.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `repro validate-json <file>`: the tiny well-formedness checker CI
/// points at the `results/*.json` files this runner writes.
fn validate_json(path: &str) {
    let s = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("validate-json: cannot read {path}: {e}");
        std::process::exit(2);
    });
    match lio_obs::json::validate(&s) {
        Ok(()) => println!("{path}: well-formed JSON ({} bytes)", s.len()),
        Err(e) => {
            eprintln!("{path}: INVALID JSON: {e}");
            std::process::exit(1);
        }
    }
}

/// The tile-I/O kernel of the paper's related work \[1\] (Ching et al.):
/// ghost-bordered 2D tiles, both engines, by element size.
fn tileio(opts: &Opts) {
    use lio_noncontig::tile::{run_tileio, TileConfig};

    let tile: u64 = if opts.quick { 64 } else { 128 };
    println!("# tileio: 2D ghost-tile access (4 ranks, {tile}x{tile} tiles, overlap 2)");
    let mut csv = String::from("elem_size,engine,write_bpp,read_bpp\n");
    println!(
        "{:>10} {:<11} {:>12} {:>12}",
        "elem B", "engine", "write Bpp", "read Bpp"
    );
    for elem_size in [8u32, 64, 1024] {
        for (engine, ename) in ENGINES {
            let mut cfg = TileConfig::new(2, 2);
            cfg.tile = (tile, tile);
            cfg.elem_size = elem_size;
            cfg.overlap = 2;
            cfg.engine = engine;
            cfg.reps = 3;
            let r = run_tileio(&cfg);
            println!(
                "{:>10} {:<11} {:>12.2} {:>12.2}",
                elem_size, ename, r.write_bpp, r.read_bpp
            );
            writeln!(
                csv,
                "{elem_size},{ename},{:.3},{:.3}",
                r.write_bpp, r.read_bpp
            )
            .unwrap();
        }
    }
    save("results/tileio.csv", &csv);
}
