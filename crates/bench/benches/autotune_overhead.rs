//! Cost of leaving the self-tuner armed on a workload it cannot improve.
//!
//! The ci gate behind `Hints::autotune`: a collective whose knobs are
//! already optimal (listless, cb matching the file span on
//! memory-speed storage) pays for per-op planning, outcome aggregation
//! and signal classification but must get nothing wrong — wall overhead
//! within 2% of the tuner-off baseline, and zero *net* knob movement
//! once settled (transient trial/revert probes are the hill-climb doing
//! its job; a committed drift away from the optimum is a bug).
//!
//! Both arms run with the obs registry enabled (arming the tuner
//! auto-enables it, so the fair baseline carries the same phase-clock
//! cost) and with profiling off. Two tuner-off runs bound the host noise
//! floor, `obs_overhead`-style; the enabled arm reuses ONE shared file
//! across samples so the tuner settles during warmup and the measured
//! ops see the steady state.

use lio_bench::harness::Group;
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;

const NPROCS: usize = 4;
const SBLOCK: u64 = 2048;
const NBLOCK: u64 = 512;

/// Interleaved across exactly `NPROCS` slots: span = 4 MiB, whose
/// `cb_target` is capped at the default window, i.e. the default cb —
/// no geometry signal fires.
fn interleaved_ft() -> Datatype {
    let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
    let v = Datatype::vector(NBLOCK, 1, NPROCS as i64, &block).unwrap();
    let extent = NBLOCK * NPROCS as u64 * SBLOCK;
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

/// One 4-rank collective write against a persistent shared file. The
/// file (and with it the tuner state) survives across calls, so op
/// indices keep counting and settled knobs stay settled.
fn op(shared: &SharedFile, hints: Hints) {
    let sh = shared.clone();
    World::run(NPROCS, move |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, sh.clone(), hints).expect("open");
        f.set_view(me * SBLOCK, Datatype::byte(), interleaved_ft())
            .expect("set_view");
        let total = NBLOCK * SBLOCK;
        let data = vec![me as u8 + 1; total as usize];
        f.write_at_all(0, &data, total, &Datatype::byte())
            .expect("write");
    });
}

fn main() {
    lio_obs::set_enabled(true);
    lio_obs::profile::set_enabled(false);
    let total = NBLOCK * SBLOCK * NPROCS as u64;

    let mut g = Group::new("autotune_overhead");
    g.sample_size(10).throughput_bytes(total);

    let off = SharedFile::new(MemFile::new());
    // untimed process warmup (thread pools, allocator) so run-to-run
    // delta measures the host, not first-touch costs
    for _ in 0..4 {
        op(&off, Hints::default());
    }
    let base_a = g.bench("coll_write_tuner_off_a", || op(&off, Hints::default()));
    let base_b = g.bench("coll_write_tuner_off_b", || op(&off, Hints::default()));

    let tuned = SharedFile::new(MemFile::new());
    let hints = Hints::default().autotune(true);
    // settle before measuring: enough ops for any probe to trial, revert
    // and for the quiet counter to declare the knobs stable
    for _ in 0..16 {
        op(&tuned, hints);
    }
    let enabled = g.bench("coll_write_tuner_on", || op(&tuned, hints));

    let report = tuned.tune_report().expect("tuner was armed");
    let base = base_a.median_ns.min(base_b.median_ns);
    let noise_pct = (base_a.median_ns - base_b.median_ns).abs() / base * 100.0;
    let enabled_pct = (enabled.median_ns - base) / base * 100.0;
    println!("tuner-off run-to-run delta: {noise_pct:.2}% (noise floor)");
    println!("tuner-on vs tuner-off:      {enabled_pct:+.2}%");
    println!(
        "tuner: settled={} decisions={} initial={} current={}",
        report.settled,
        report.decisions.len(),
        report.initial,
        report.current
    );

    let mut fail = false;
    if !report.settled {
        println!("FAIL: tuner never settled on an already-optimal workload");
        fail = true;
    }
    if report.current != report.initial {
        println!(
            "FAIL: net knob movement on an already-optimal workload: {} -> {}",
            report.initial, report.current
        );
        fail = true;
    }
    let verdict = if enabled_pct <= 2.0 {
        "PASS"
    } else if noise_pct >= 2.0 {
        "CHECK (noisy host)"
    } else {
        fail = true;
        "FAIL"
    };
    println!("tuner-on-overhead (<=2%): {verdict}");
    if fail {
        std::process::exit(1);
    }
}
