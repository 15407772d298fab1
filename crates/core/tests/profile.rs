//! The access-pattern profile, a view of the metric registry: the same
//! deterministic workload reads the same profile (its phase times
//! aside), the `lio_obs` hint's `profile` arms what it reads, nothing
//! armed reads an empty one, and the registry export it sits beside in
//! `repro profile` is well-formed JSON.

mod common;

use std::sync::Mutex;

use lio_core::{File, Hints, Layers, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::profile::{self, PhaseNs, Profile};
use lio_pfs::{Counter, Decorated, MemFile};

/// The Figure 4 interleaved filetype: rank `r` owns block slot `r` of
/// each `nprocs`-slot stride of `sblock`-byte blocks.
fn interleaved_ft(me: u64, nprocs: u64, nblock: u64, sblock: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, nprocs as i64, &block).unwrap();
    let extent = nblock * nprocs * sblock;
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: (me * sblock) as i64,
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

/// Serialize tests touching the global registry and restore the
/// disarmed default afterwards.
fn with_metrics<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap();
    lio_obs::reset();
    Layers::METRICS.arm();
    let r = f();
    Layers::NONE.arm();
    r
}

/// A 4-rank collective write + read-back through the Figure 4
/// interleaved filetype — fully deterministic (threads-as-ranks, MemFile).
fn run_workload() {
    let nprocs = 4usize;
    let (nblock, sblock) = (64u64, 16u64);
    let total = nblock * sblock;
    let shared = SharedFile::new(Decorated::new(MemFile::new(), Counter::default()));
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), Hints::listless()).expect("open");
        let ft = interleaved_ft(me, nprocs as u64, nblock, sblock);
        f.set_view(0, Datatype::byte(), ft).expect("set_view");
        let data = vec![me as u8 + 1; total as usize];
        f.write_at_all(0, &data, total, &Datatype::byte())
            .expect("write");
        let mut back = vec![0u8; total as usize];
        f.read_at_all(0, &mut back, total, &Datatype::byte())
            .expect("read");
        assert_eq!(back, data, "read-back mismatch");
    });
}

/// The profile without its phase times, the one run-to-run variation
/// allowed.
fn untimed(p: Profile) -> Profile {
    let none = PhaseNs::default();
    Profile {
        coll_write: none,
        coll_read: none,
        ..p
    }
}

#[test]
fn same_workload_same_profile() {
    let (a, b) = with_metrics(|| {
        run_workload();
        let a = profile::snapshot();
        lio_obs::reset();
        run_workload();
        (a, profile::snapshot())
    });
    assert!(a.coll_write.total() > 0, "profile must carry phase times");
    assert!(a.runs.count > 0 && a.view.size > 0, "{a:?}");
    assert_eq!(
        untimed(a),
        untimed(b),
        "identical workloads must produce identical profiles"
    );
}

#[test]
fn profile_json_is_well_formed() {
    let json = with_metrics(|| {
        run_workload();
        lio_obs::snapshot().to_json()
    });
    lio_obs::json::validate(&json).expect("profile export must be well-formed JSON");
}

#[test]
fn profile_hint_controls_recording() {
    // the gate must serialize against the other profile tests even
    // though this one arms the metrics through the hint path
    with_metrics(|| {
        Layers::NONE.arm();
        let shared = SharedFile::new(MemFile::new());
        let set = Layers::parse("metrics,profile").unwrap();
        let hints = Hints::listless().observe(set);
        World::run(2, move |comm| {
            let mut f = File::open(comm, shared.clone(), hints).expect("open");
            f.set_view(0, Datatype::byte(), Datatype::byte())
                .expect("set_view");
            let data = [7u8; 256];
            f.write_at_all(comm.rank() as u64 * 256, &data, 256, &Datatype::byte())
                .expect("write");
        });
        let w = profile::snapshot().op("write_at_all");
        assert!(
            w.requests >= 2,
            "lio_obs=metrics,profile must arm the profile"
        );
        assert_eq!(w.bytes, 512);
    });
}

#[test]
fn disabled_profiler_records_nothing_across_layers() {
    with_metrics(|| {
        Layers::NONE.arm();
        run_workload();
        assert_eq!(profile::snapshot(), Profile::default());
    });
}
