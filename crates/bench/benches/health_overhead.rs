//! Cost of the runtime health layer on the collective-write path.
//!
//! The acceptance bar mirrors `trace_overhead`: with the layer
//! *disabled* every heartbeat site is one relaxed atomic load, so the
//! instrumented binary must be within noise (< 2%) of itself measured
//! twice. The enabled run shows what heartbeating (a handful of relaxed
//! stores per window) and skew tracking cost on top.
//!
//! The workload is a 4-rank collective write with a small
//! window size on in-memory storage: minimal real work per window, so
//! the per-beat cost is maximally visible.

use lio_bench::harness::Group;
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;

const SBLOCK: u64 = 256;
const NBLOCK: u64 = 32;

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

/// One 4-rank collective write on memory storage with a small
/// window, maximizing heartbeat-site executions per byte moved.
fn collective_write() {
    let nprocs = 4;
    let hints = Hints::default().cb_buffer(2 << 10);
    let shared = SharedFile::new(MemFile::new());
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + 1;
        let mut f = File::open(comm, shared.clone(), hints).expect("open");
        f.set_view(me * SBLOCK, Datatype::byte(), interleaved_ft(slots))
            .expect("set_view");
        let total = NBLOCK * SBLOCK;
        let data = vec![me as u8 + 1; total as usize];
        f.write_at_all(0, &data, total, &Datatype::byte())
            .expect("write");
    });
}

fn main() {
    lio_obs::set_enabled(false);
    lio_obs::trace::set_enabled(false);
    lio_obs::health::set_enabled(false);
    // a generous deadline so the watchdog (if some earlier arm spawned
    // it) never interferes with the measured runs
    lio_obs::health::set_watchdog(60_000, false);
    let total = NBLOCK * SBLOCK * 4;

    let mut g = Group::new("health_overhead");
    g.sample_size(10).throughput_bytes(total);

    let base_a = g.bench("coll_write_disabled_a", collective_write);
    let base_b = g.bench("coll_write_disabled_b", collective_write);

    lio_obs::health::set_enabled(true);
    lio_obs::health::reset();
    let enabled = g.bench("coll_write_enabled", collective_write);
    lio_obs::health::set_enabled(false);
    lio_obs::health::reset();

    let base = base_a.median_ns.min(base_b.median_ns);
    let noise_pct = (base_a.median_ns - base_b.median_ns).abs() / base * 100.0;
    let enabled_pct = (enabled.median_ns - base) / base * 100.0;
    println!("disabled run-to-run delta: {noise_pct:.2}% (noise floor)");
    println!("enabled vs disabled:       {enabled_pct:+.2}%");
    let verdict = if noise_pct < 2.0 {
        "PASS"
    } else {
        "CHECK (noisy host)"
    };
    println!("disabled-cost-within-noise (<2%): {verdict}");
}
