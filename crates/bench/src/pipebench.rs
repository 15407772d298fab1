//! The overlap gate of the collective schedule, shared between the
//! `pipeline` cargo bench and `repro bench` so both produce the same
//! schema-versioned `BENCH_pipeline.json`. Three sections:
//!
//! * timed runs of one collective write and one collective read
//!   on throttled in-memory storage (1 ms per file access — the regime in
//!   which an IOP's write-behind lane arms), both engines;
//! * the same write on the `os` backend — the mapped real file
//!   (`UnixFile::temp()` under `LIO_OS_DIR`), which lends the windows of
//!   this prefaulted file, so no lane arms — recorded as the
//!   `{engine}/os` real-disk column;
//! * the overlap proof, which gates: with one rank the exchange is free,
//!   so `exchange_ns + io_ns > wall` can only hold if the write-back of a
//!   window ran beside the pre-read of the next. [`run`] exits non-zero
//!   when it does not.
//!
//! The access pattern is cyclically interleaved with one block slot per
//! stride left unwritten, so every window is read-modify-write: the
//! pre-read is what there is to overlap the write-back with.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::harness;
use crate::schema::{self, Entry};
use lio_core::{BackendKind, File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::{MemFile, Throttle, ThrottledFile};

const SBLOCK: u64 = 4096;
const NBLOCK: u64 = 64;
const LAT_US: u64 = 1000;

/// High per-access latency, high bandwidth: op cost is dominated by
/// latency, as on NFS-class storage. Must sit well above the throttle's
/// spin-only regime (2× its 100 µs spin tail) so waiting genuinely
/// yields the CPU and the lane can overlap on few-core hosts.
fn slow_store() -> Throttle {
    Throttle {
        read_bw: 2e9,
        write_bw: 2e9,
        latency: Duration::from_micros(LAT_US),
    }
}

/// Interleaved filetype over `slots` block slots per stride; with
/// `slots = nprocs + 1` one slot per stride stays unwritten (RMW).
fn interleaved_ft(slots: u64) -> Datatype {
    let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
    let v = Datatype::vector(NBLOCK, 1, slots as i64, &block).unwrap();
    let extent = NBLOCK * slots * SBLOCK;
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: 0,
            count: 1,
            child: v,
        },
        Field {
            disp: extent as i64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap()
}

/// One collective write of `NBLOCK * SBLOCK` bytes per rank on the given
/// storage — or, `read`ing, that write and then one collective read of the
/// same bytes; returns the across-ranks wall time of the timed collective.
fn collective_on(shared: SharedFile, hints: Hints, nprocs: usize, read: bool) -> f64 {
    let span = (NBLOCK * (nprocs as u64 + 1) + 1) * SBLOCK;
    shared.storage().set_len(span).expect("prefault");
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + 1; // one hole per stride -> RMW
        let mut f = File::open(comm, shared.clone(), hints).expect("open");
        f.set_view(me * SBLOCK, Datatype::byte(), interleaved_ft(slots))
            .expect("set_view");
        let total = NBLOCK * SBLOCK;
        let mut data = vec![me as u8 + 1; total as usize];
        if read {
            f.write_at_all(0, &data, total, &Datatype::byte())
                .expect("write");
        }
        comm.barrier();
        let t = Instant::now();
        if read {
            f.read_at_all(0, &mut data, total, &Datatype::byte())
                .expect("read");
        } else {
            f.write_at_all(0, &data, total, &Datatype::byte())
                .expect("write");
        }
        comm.barrier();
        comm.allmax_f64(t.elapsed().as_secs_f64())
    })[0]
}

/// The latency-bound configuration the write-behind lane targets:
/// throttled in-memory storage.
fn throttled() -> SharedFile {
    SharedFile::new(ThrottledFile::new(MemFile::new(), slow_store()))
}

/// A fresh real-file backend (an unlinked, mapped temp file in
/// `LIO_OS_DIR`), one per run so every iteration starts cold.
fn os_storage() -> SharedFile {
    SharedFile::for_backend(BackendKind::Os).expect("os backend storage")
}

const NPROCS: usize = 4;
const CB: usize = 32 << 10;

fn engines() -> [(Hints, &'static str); 2] {
    [
        (Hints::list_based().cb_buffer(CB), "list_based"),
        (Hints::listless().cb_buffer(CB), "listless"),
    ]
}

/// Median and minimum of `run`'s wall times, in ns, after one warm-up.
fn sampled(mut run: impl FnMut() -> f64) -> (f64, f64) {
    let samples = if harness::fast_mode() { 5 } else { 15 };
    run();
    let mut walls: Vec<f64> = (0..samples).map(|_| run() * 1e9).collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    (walls[samples / 2], walls[0])
}

/// The timed collectives: what is measured is the collective call alone,
/// barrier to barrier, slowest rank — not the world's set-up, and for a
/// read not the write that made the file.
fn bench_collectives(entries: &mut Vec<Entry>) {
    let mut timed = |bench: &'static str, config: String, run: &mut dyn FnMut() -> f64| {
        let (median, min) = sampled(run);
        println!(
            "{bench}/{config:<24} median {:>8.3} ms  (min {:.3} ms)",
            median / 1e6,
            min / 1e6
        );
        entries.push(Entry::new(bench, config, "wall_ns", median, "ns"));
    };
    for (bench, read) in [("pipeline_write", false), ("pipeline_read", true)] {
        for (hints, ename) in engines() {
            timed(bench, format!("{ename}/throttled"), &mut || {
                collective_on(throttled(), hints, NPROCS, read)
            });
        }
    }
    // The real-disk column: the same write through the `os` backend's
    // worker threadpool, against a real kernel-backed file.
    for (hints, ename) in engines() {
        let hints = hints.backend(BackendKind::Os);
        timed("pipeline_write", format!("{ename}/os"), &mut || {
            collective_on(os_storage(), hints, NPROCS, false)
        });
    }
}

/// Instrumented single runs: the phase breakdown of the P = 4 write per
/// engine, and the P = 1 overlap proof, written to `results/pipeline.csv`.
/// Returns whether the proof held for both engines.
fn overlap_proof(entries: &mut Vec<Entry>) -> bool {
    println!(
        "# pipeline: instrumented collective write, P={NPROCS}, cb={CB} B, {LAT_US} us/op storage"
    );
    println!(
        "{:<11} {:>2} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "engine", "P", "wall ms", "exch ms", "io ms", "pack ms", "behind KB"
    );
    let mut csv =
        String::from("engine,nprocs,wall_ms,exchange_ms,io_ms,pack_ms,behind_bytes,overlapped\n");
    let mut held = true;
    for (hints, ename) in engines() {
        for nprocs in [NPROCS, 1] {
            lio_obs::reset();
            lio_obs::set_enabled(true);
            let wall = collective_on(throttled(), hints, nprocs, false);
            lio_obs::set_enabled(false);
            let snap = lio_obs::snapshot();
            let ms = |c: &str| snap.counter(c) as f64 / 1e6;
            let (exch, io, pack) = (
                ms("core.coll.write.exchange_ns"),
                ms("core.coll.write.io_ns"),
                ms("core.coll.write.pack_ns"),
            );
            let behind = snap.counter("io.behind_bytes");
            let wall_ms = wall * 1e3;
            println!(
                "{ename:<11} {nprocs:>2} {wall_ms:>9.2} {exch:>9.2} {io:>9.2} {pack:>9.2} {:>9}",
                behind / 1024
            );
            // With one rank the exchange is free, so phases-sum > wall
            // isolates exactly the storage overlap.
            let overlapped = exch + io > wall_ms;
            if nprocs == 1 {
                println!(
                    "  {ename}: overlap proof (P=1): exchange_ns + io_ns = {:.2} ms {} \
                     wall = {wall_ms:.2} ms",
                    exch + io,
                    if overlapped { ">" } else { "<= (NO OVERLAP)" }
                );
                held &= overlapped;
            }
            writeln!(
                csv,
                "{ename},{nprocs},{wall_ms:.3},{exch:.3},{io:.3},{pack:.3},{behind},{overlapped}"
            )
            .unwrap();
            let cfg = format!("{ename}/p{nprocs}");
            for (metric, v) in [
                ("wall_ns", wall * 1e9),
                ("exchange_ns", exch * 1e6),
                ("io_ns", io * 1e6),
                ("pack_ns", pack * 1e6),
            ] {
                entries.push(Entry::new("overlap_proof", cfg.clone(), metric, v, "ns"));
            }
        }
    }

    // cargo runs benches from the package dir; put the CSV in the
    // workspace-root results/ next to the repro outputs.
    let dir = schema::workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("results dir");
    std::fs::write(dir.join("pipeline.csv"), &csv).expect("write csv");
    println!("  -> results/pipeline.csv");
    held
}

/// Run every section and write the schema-versioned artifact. Called by
/// both `cargo bench --bench pipeline` and `repro bench`. Exits non-zero
/// if the overlap proof fails.
pub fn run() {
    let mut entries = Vec::new();
    bench_collectives(&mut entries);
    let held = overlap_proof(&mut entries);
    schema::write_bench_json(
        "BENCH_pipeline.json",
        &entries,
        &[(
            "cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        )],
    );
    if !held {
        eprintln!("pipeline: the write-behind lane overlapped nothing at P=1");
        std::process::exit(1);
    }
}
