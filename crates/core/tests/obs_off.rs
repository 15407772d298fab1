//! The telemetry's disabled cost, counted: with no layer armed, the
//! independent and collective writes and reads of both engines record
//! nothing at all — no trace event, no profiled op, no heartbeat, no
//! metric. The same ops armed through the one switch (`Hints::observe`)
//! must then record in every layer, so a count of zero above is a count
//! the recording sites could have broken.
//!
//! Every layer is process-global, so the whole check is one test.

use lio_core::{Engine, File, Hints, Layers, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::{health, profile, trace};
use lio_pfs::{CountingFile, MemFile};

const NPROCS: usize = 4;
const SBLOCK: u64 = 16;
const NBLOCK: u64 = 64;

/// Rank `me` owns block slot `me` of each `NPROCS`-slot stride.
fn interleaved_ft(me: u64) -> Datatype {
    let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
    let v = Datatype::vector(NBLOCK, 1, NPROCS as i64, &block).unwrap();
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: (me * SBLOCK) as i64,
            count: 1,
            child: v,
        },
        Field {
            disp: (NBLOCK * NPROCS as u64 * SBLOCK) as i64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap()
}

/// Independent then collective write and read-back, on both engines,
/// on a file that lends its bytes and on one that stages every window.
fn run_ops(obs: Option<Layers>) {
    let total = NBLOCK * SBLOCK;
    for engine in [Engine::ListBased, Engine::Listless] {
        for lends in [true, false] {
            let shared = if lends {
                SharedFile::new(MemFile::new())
            } else {
                SharedFile::new(CountingFile::new(MemFile::new()))
            };
            let hints = Hints {
                obs,
                ..Hints::with_engine(engine).cb_buffer(4 << 10)
            };
            World::run(NPROCS, move |comm| {
                let me = comm.rank() as u64;
                let byte = Datatype::byte();
                let mut f = File::open(comm, shared.clone(), hints).expect("open");
                f.set_view(0, byte.clone(), interleaved_ft(me))
                    .expect("set_view");
                let data = vec![me as u8 + 1; total as usize];
                let mut back = vec![0u8; total as usize];
                f.write_at(0, &data, total, &byte).expect("write_at");
                f.read_at(0, &mut back, total, &byte).expect("read_at");
                assert_eq!(back, data, "independent read-back");
                let data = vec![me as u8 + 11; total as usize];
                f.write_at_all(0, &data, total, &byte)
                    .expect("write_at_all");
                f.read_at_all(0, &mut back, total, &byte)
                    .expect("read_at_all");
                assert_eq!(back, data, "collective read-back");
            });
        }
    }
}

fn trace_events() -> usize {
    trace::collect().iter().map(|s| s.events.len()).sum()
}

fn profiled_ops() -> u64 {
    let p = profile::snapshot();
    [
        profile::OpClass::IndWrite,
        profile::OpClass::IndRead,
        profile::OpClass::CollWrite,
        profile::OpClass::CollRead,
    ]
    .iter()
    .map(|&c| p.op(c).requests)
    .sum()
}

/// Every metric in the registry that holds a non-zero value.
fn recorded_metrics() -> Vec<String> {
    let s = lio_obs::snapshot();
    let hist = s.histograms.iter().map(|(n, h)| (n, h.count));
    s.counters
        .iter()
        .chain(&s.gauges)
        .map(|(n, v)| (n, *v))
        .chain(hist)
        .filter(|(_, v)| *v > 0)
        .map(|(n, _)| n.clone())
        .collect()
}

#[test]
fn nothing_armed_records_nothing() {
    // consume the environment first, so nothing it says can arm a layer
    // under the ops below
    lio_obs::init_from_env();
    Layers::NONE.arm();
    lio_obs::reset();
    trace::reset();
    profile::reset();
    health::reset();

    run_ops(None);
    assert_eq!(trace_events(), 0, "trace events recorded while disarmed");
    assert_eq!(profiled_ops(), 0, "profiled ops while disarmed");
    let p = profile::snapshot();
    assert_eq!(
        (p.runs.total, p.view.views_set, p.domains.ops),
        (0, 0, 0),
        "profile shapes recorded while disarmed"
    );
    assert!(
        health::live_snapshot().is_empty(),
        "heartbeats while disarmed: {:?}",
        health::live_snapshot()
    );
    assert_eq!(
        recorded_metrics(),
        Vec::<String>::new(),
        "metrics recorded while disarmed"
    );

    // the same ops, armed through the one switch, record in every layer
    run_ops(Some(Layers::ALL));
    Layers::NONE.arm();
    assert!(trace_events() > 0, "armed trace recorded nothing");
    assert!(profiled_ops() > 0, "armed profile recorded nothing");
    assert!(
        !health::live_snapshot().is_empty(),
        "armed health published no heartbeat"
    );
    let metrics = recorded_metrics();
    for name in ["pfs.write.bytes", "core.health.beats", "dt.copy.bytes"] {
        assert!(
            metrics.iter().any(|n| n == name),
            "armed metrics left {name} at zero"
        );
    }
    health::reset();
}
