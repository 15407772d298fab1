//! The telemetry's disabled cost, counted: with no layer armed, the
//! independent and collective writes and reads of both engines record
//! nothing at all — no trace event, no heartbeat, no metric, so the
//! access-pattern profile, a view of the metrics, reads empty. The same
//! ops armed through the one switch (`Hints::observe`) must then record
//! in every layer, so a count of zero above is a count the recording
//! sites could have broken. Heartbeats are published from
//! the trace layer's span opens, so each of the two is then armed alone:
//! health alone records no trace event, trace alone publishes no
//! heartbeat. The same span opens charge the collective phase counters,
//! so the metrics are armed alone too: the counters fill, and no trace
//! event or heartbeat is recorded.
//!
//! Every layer is process-global, so the whole check is one test.

use lio_core::{Engine, File, Hints, Layers, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::{health, profile, trace};
use lio_pfs::{Counter, Decorated, MemFile};

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
                SharedFile::new(Decorated::new(MemFile::new(), Counter::default()))
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
    profile::snapshot().ops.iter().map(|op| op.requests).sum()
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
    health::reset();

    run_ops(None);
    assert_eq!(trace_events(), 0, "trace events recorded while disarmed");
    assert_eq!(
        profile::snapshot(),
        profile::Profile::default(),
        "profile recorded while disarmed"
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
    let op_bytes = profile::OPS.map(|op| format!("core.{op}.bytes"));
    let named = [
        "pfs.write.bytes",
        "core.health.beats",
        "dt.copy.bytes",
        "core.view.size",
    ];
    for name in op_bytes.iter().map(String::as_str).chain(named) {
        assert!(
            metrics.iter().any(|n| n == name),
            "armed metrics left {name} at zero"
        );
    }

    // one layer of the two that share the span opens, then the other
    for (alone, name) in [(Layers::HEALTH, "health"), (Layers::TRACE, "trace")] {
        lio_obs::reset();
        trace::reset();
        health::reset();
        run_ops(Some(alone));
        Layers::NONE.arm();
        let (events, beats) = (trace_events(), health::live_snapshot());
        if alone == Layers::HEALTH {
            assert!(!beats.is_empty(), "health alone published no heartbeat");
            assert_eq!(events, 0, "health alone recorded trace events");
        } else {
            assert!(events > 0, "trace alone recorded nothing");
            assert!(
                beats.is_empty(),
                "trace alone published heartbeats: {beats:?}"
            );
        }
        let metrics = recorded_metrics();
        assert_eq!(
            metrics,
            Vec::<String>::new(),
            "{name} alone recorded metrics"
        );
    }

    // the metrics alone: the spans charge the phase counters, and record
    // and publish nothing
    lio_obs::reset();
    trace::reset();
    health::reset();
    run_ops(Some(Layers::METRICS));
    Layers::NONE.arm();
    assert_eq!(trace_events(), 0, "metrics alone recorded trace events");
    assert!(
        health::live_snapshot().is_empty(),
        "metrics alone published heartbeats"
    );
    // (the storage that stages makes the requests `io_ns` times)
    let metrics = recorded_metrics();
    for dir in ["write", "read"] {
        for phase in ["exchange", "io", "pack"] {
            let name = format!("core.coll.{dir}.{phase}_ns");
            assert!(metrics.contains(&name), "metrics alone left {name} at zero");
        }
    }
    trace::reset();
    health::reset();
}
