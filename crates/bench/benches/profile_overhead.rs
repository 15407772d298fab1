//! Cost of access-pattern-profiler instrumentation on the collective
//! write path.
//!
//! Same acceptance bar as `trace_overhead`: with
//! profiling *disabled* the hooks (one relaxed atomic load per record
//! site) must be within noise (< 2%) of the uninstrumented baseline.
//! The hooks are compiled in, so the closest measurable baseline is the
//! same collective measured twice with profiling off — the run-to-run
//! delta bounds the noise floor, and the enabled run shows what
//! recording (a handful of relaxed atomic adds per run) costs.
//!
//! The workload is a 4-rank collective write with a small window size on
//! in-memory storage: minimal real work per run, so the per-record cost
//! is maximally visible.

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
/// window, maximizing profile-site executions per byte moved.
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
    lio_obs::profile::set_enabled(false);
    let total = NBLOCK * SBLOCK * 4;

    let mut g = Group::new("profile_overhead");
    g.sample_size(10).throughput_bytes(total);

    let base_a = g.bench("coll_write_disabled_a", collective_write);
    let base_b = g.bench("coll_write_disabled_b", collective_write);

    lio_obs::profile::set_enabled(true);
    lio_obs::profile::reset();
    let enabled = g.bench("coll_write_enabled", collective_write);
    lio_obs::profile::set_enabled(false);
    lio_obs::profile::reset();

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
