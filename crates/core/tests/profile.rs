//! Access-pattern profiler integration tests: the same deterministic
//! workload produces a byte-identical profile (modulo the trailing
//! timing block), the `lio_profile` hint drives the global enable, the
//! export is well-formed JSON, the advisor fires the expected rules on a
//! real collective run, and every setting it prints is an info pair
//! `Hints::apply_info` takes.

mod common;

use std::sync::Mutex;

use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::profile;
use lio_pfs::{CountingFile, MemFile};

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

/// Serialize tests touching the global profile state and restore the
/// disabled default afterwards.
fn with_profile<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap();
    lio_obs::reset();
    lio_obs::set_enabled(true);
    profile::reset();
    profile::set_enabled(true);
    let r = f();
    profile::set_enabled(false);
    lio_obs::set_enabled(false);
    r
}

/// A 4-rank collective write + read-back through the Figure 4
/// interleaved filetype — fully deterministic (threads-as-ranks, MemFile).
fn run_workload() {
    let nprocs = 4usize;
    let (nblock, sblock) = (64u64, 16u64);
    let total = nblock * sblock;
    let shared = SharedFile::new(CountingFile::new(MemFile::new()));
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

/// Everything before the trailing `"critical"` object is deterministic
/// by construction (see `ProfileSnapshot::to_json`); the timing block
/// after it is the only run-to-run variation allowed.
fn deterministic_prefix(json: &str) -> &str {
    json.split("\"critical\"").next().unwrap()
}

#[test]
fn same_workload_same_profile() {
    let (a, b) = with_profile(|| {
        run_workload();
        let a = profile::snapshot().to_json();
        lio_obs::reset();
        profile::reset();
        run_workload();
        let b = profile::snapshot().to_json();
        (a, b)
    });
    assert!(a.contains("\"critical\""), "profile must carry phase times");
    assert_eq!(
        deterministic_prefix(&a),
        deterministic_prefix(&b),
        "identical workloads must produce identical profiles"
    );
}

/// A window that the storage lends in pieces (`MemFile`: one per 256 KiB
/// stripe, and 1000 B blocks do not end on the seams) is profiled as the
/// one window it is: the same runs as when it is staged in one buffer.
#[test]
fn lent_pieces_profile_like_the_staged_window() {
    let run = |shared: SharedFile| {
        let (nblock, sblock) = (320u64, 1000u64);
        let total = nblock * sblock;
        World::run(2, move |comm| {
            let me = comm.rank() as u64;
            let mut f = File::open(comm, shared.clone(), Hints::listless()).expect("open");
            f.set_view(0, Datatype::byte(), interleaved_ft(me, 2, nblock, sblock))
                .expect("set_view");
            let data = vec![me as u8 + 1; total as usize];
            let mut back = vec![0u8; total as usize];
            let byte = Datatype::byte();
            f.write_at_all(0, &data, total, &byte)
                .expect("write_at_all");
            f.read_at_all(0, &mut back, total, &byte)
                .expect("read_at_all");
            f.write_at(0, &data, total, &byte).expect("write_at");
            comm.barrier();
            f.read_at(0, &mut back, total, &byte).expect("read_at");
            assert_eq!(back, data, "read-back mismatch");
        });
        profile::snapshot()
    };
    let (lent, staged) = with_profile(|| {
        let lent = run(SharedFile::new(MemFile::new()));
        lio_obs::reset();
        profile::reset();
        (
            lent,
            run(SharedFile::new(CountingFile::new(MemFile::new()))),
        )
    });
    assert!(
        lent.runs.total > 4 * 320,
        "every block of every op is a run"
    );
    // ops, runs, view, datatype and domains; what follows is the storage's
    // own request histogram, which only the counting decorator feeds
    let (lent, staged) = (lent.to_json(), staged.to_json());
    let until_storage = |json: &str| json.split("\"storage\"").next().unwrap().to_string();
    assert_eq!(until_storage(&lent), until_storage(&staged));
}

#[test]
fn profile_json_is_well_formed_and_advice_grounded() {
    let (json, recs) = with_profile(|| {
        run_workload();
        let p = profile::snapshot();
        (p.to_json(), profile::advise(&p))
    });
    lio_obs::json::validate(&json).expect("profile export must be well-formed JSON");
    let recs_json = profile::recommendations_json(&recs);
    lio_obs::json::validate(&recs_json).expect("advice export must be well-formed JSON");
    // a non-contiguous collective workload must at least decide the
    // engine and window-size questions, with reasons
    for rule in ["engine", "cb_buffer_size"] {
        let r = recs
            .iter()
            .find(|r| r.rule == rule)
            .unwrap_or_else(|| panic!("missing recommendation from rule {rule}"));
        assert!(!r.reason.is_empty(), "{rule} must explain itself");
    }
    assert!(recs.iter().any(|r| r.setting.contains("engine=listless")));
}

/// The advisor's output is meant to be passed to `Hints::apply_info` as it
/// is printed. An unknown key is silently ignored there, so `Ok` alone
/// proves nothing: the hints that come back must carry the pair.
#[test]
fn advice_is_info_pairs_apply_info_takes() {
    let mut rules = Vec::new();
    for p in [
        profile::fixtures::fig5_independent_sparse_large(),
        profile::fixtures::fig6_collective_small_runs(),
    ] {
        for rec in profile::advise(&p) {
            let (k, v) = rec
                .setting
                .split_once('=')
                .unwrap_or_else(|| panic!("{}: not key=value", rec.setting));
            let h = Hints::default()
                .apply_info([(k, v)])
                .unwrap_or_else(|e| panic!("{}: {e}", rec.setting));
            assert!(
                h.to_info().iter().any(|(hk, hv)| hk == k && hv == v),
                "{}: apply_info dropped the pair",
                rec.setting
            );
            rules.push(rec.rule);
        }
    }
    // between them the two fixtures make every rule of the table speak
    for rule in profile::RULES {
        assert!(rules.contains(&rule.name), "rule {} never fired", rule.name);
    }
}

#[test]
fn profile_hint_controls_recording() {
    // the gate must serialize against the other profile tests even
    // though this one toggles the enable through the hint path
    with_profile(|| {
        profile::set_enabled(false);
        let shared = SharedFile::new(MemFile::new());
        let hints = Hints::listless().profiling(true);
        World::run(2, move |comm| {
            let mut f = File::open(comm, shared.clone(), hints).expect("open");
            f.set_view(0, Datatype::byte(), Datatype::byte())
                .expect("set_view");
            let data = [7u8; 256];
            f.write_at_all(comm.rank() as u64 * 256, &data, 256, &Datatype::byte())
                .expect("write");
        });
        let p = profile::snapshot();
        assert!(
            p.op(profile::OpClass::CollWrite).requests >= 2,
            "lio_profile=enable must arm the profiler"
        );
        assert_eq!(p.op(profile::OpClass::CollWrite).bytes, 512);
    });
}

#[test]
fn disabled_profiler_records_nothing_across_layers() {
    with_profile(|| {
        profile::set_enabled(false);
        run_workload();
        let p = profile::snapshot();
        assert_eq!(p.op(profile::OpClass::CollWrite).requests, 0);
        assert_eq!(p.runs.total, 0);
        assert_eq!(p.view.views_set, 0);
        assert_eq!(p.domains.ops, 0);
    });
}
