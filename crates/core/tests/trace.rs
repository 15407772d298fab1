//! Trace-correctness tests (deterministic, 4 ranks): every span closes,
//! cross-rank send→recv edges are causally ordered after the merge, the
//! ring buffer drops oldest-first on wraparound without corrupting the
//! export, and the critical-path analyzer names a bounding phase for a
//! collective write whose windows are written behind the loop.

mod common;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::trace;
use lio_pfs::{MemFile, Throttle, ThrottledFile};

/// Serialize tests touching the global trace state (cargo runs tests in
/// one process, many threads) and restore defaults afterwards.
fn with_trace<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap();
    trace::set_capacity(trace::DEFAULT_CAPACITY);
    trace::set_enabled(true);
    let r = f();
    trace::set_enabled(false);
    trace::set_capacity(trace::DEFAULT_CAPACITY);
    r
}

/// The interleaved filetype every collective test writes through: rank r
/// owns block slot r of each stride.
fn interleaved_ft(sblock: u64, nblock: u64, slots: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, slots as i64, &block).unwrap();
    let extent = nblock * slots * sblock;
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

/// A file that lends its bytes — its listless collective read is routed,
/// each rank's own placement — and one that stages every window, whose read
/// is two-phase: the span and edge rules hold on both.
fn both_storages() -> [SharedFile; 2] {
    [
        SharedFile::new(MemFile::new()),
        SharedFile::new(common::Staged(MemFile::new())),
    ]
}

/// Run one 4-rank collective write + read-back under `hints` against the
/// given storage, with tracing armed, and return the collected streams.
fn traced_collective(hints: Hints, shared: SharedFile) -> Vec<trace::RankStream> {
    trace::reset();
    let sh = shared;
    World::run(4, move |comm| {
        let me = comm.rank() as u64;
        let ft = interleaved_ft(32, 8, comm.size() as u64 + 1);
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * 32, Datatype::byte(), ft).unwrap();
        let n = 8 * 32u64;
        let data: Vec<u8> = (0..n).map(|i| (me * 31 + i) as u8).collect();
        f.write_at_all(0, &data, n, &Datatype::byte()).unwrap();
        let mut back = vec![0u8; n as usize];
        f.read_at_all(0, &mut back, n, &Datatype::byte()).unwrap();
        assert_eq!(back, data, "rank {me} read back foreign bytes");
    });
    trace::collect()
}

#[test]
fn every_span_closes() {
    let check = |shared: SharedFile| {
        let streams = traced_collective(Hints::default(), shared);
        assert!(!streams.is_empty(), "no events recorded");
        for s in &streams {
            assert_eq!(s.dropped, 0, "rank {} overflowed its ring", s.rank);
            // per export track, Begin/End must pair up like brackets
            let mut open: HashMap<u32, Vec<u64>> = HashMap::new();
            for ev in &s.events {
                match ev.kind {
                    trace::Kind::SpanBegin => {
                        open.entry(ev.tid).or_default().push(ev.span_id);
                    }
                    trace::Kind::SpanEnd => {
                        let stack = open.get_mut(&ev.tid).unwrap_or_else(|| {
                            panic!("rank {} tid {}: end without begin", s.rank, ev.tid)
                        });
                        let top = stack.pop().expect("end without matching begin");
                        assert_eq!(
                            top, ev.span_id,
                            "rank {} tid {}: spans closed out of order",
                            s.rank, ev.tid
                        );
                    }
                    _ => {}
                }
            }
            for (tid, stack) in open {
                assert!(
                    stack.is_empty(),
                    "rank {} tid {tid}: {} spans never closed: {stack:?}",
                    s.rank,
                    stack.len()
                );
            }
        }
        // exporting must yield well-formed JSON
        let tl = trace::merge(&streams);
        lio_obs::json::validate(&trace::to_chrome_json(&tl)).expect("chrome export parses");
    };
    with_trace(|| both_storages().map(check));
}

#[test]
fn send_recv_edges_are_causal() {
    let check = |shared: SharedFile| {
        let streams = traced_collective(Hints::default(), shared);
        let tl = trace::merge(&streams);
        assert!(!tl.edges.is_empty(), "collective produced no message edges");
        assert_eq!(tl.unmatched_sends, 0, "sends without a matching recv");
        assert_eq!(tl.unmatched_recvs, 0, "recvs without a matching send");
        assert_eq!(tl.causal_violations, 0, "recv timestamped before send");
        for e in &tl.edges {
            assert!(
                e.send_ts <= e.recv_ts,
                "edge {}→{} seq {} travels backwards in time",
                e.src_rank,
                e.dst_rank,
                e.seq
            );
        }
        // the merged event list is time-sorted
        assert!(
            tl.events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "merged timeline is not time-ordered"
        );
    };
    with_trace(|| both_storages().map(check));
}

#[test]
fn ring_wraparound_drops_oldest_first() {
    with_trace(|| {
        trace::set_capacity(64);
        trace::set_thread_rank(0);
        let pushed = 200u64;
        for i in 0..pushed {
            trace::mark("test.mark", i, 0);
        }
        let streams = trace::collect();
        let s = streams.iter().find(|s| s.rank == 0).expect("rank 0 stream");
        assert_eq!(s.events.len(), 64, "export must hold exactly one ring");
        assert_eq!(s.dropped, pushed - 64, "drop count disagrees");
        // oldest-first: the survivors are the newest 64 marks, in order
        for (k, ev) in s.events.iter().enumerate() {
            assert_eq!(
                ev.a,
                pushed - 64 + k as u64,
                "slot {k} holds the wrong event after wraparound"
            );
        }
        assert!(
            s.events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "wrapped export is not time-ordered"
        );
        // and it still exports cleanly
        let tl = trace::merge(&streams);
        assert_eq!(tl.dropped, pushed - 64);
        lio_obs::json::validate(&trace::to_chrome_json(&tl)).expect("wrapped export parses");
        // a truncated trace must announce itself in the report footer
        let report = trace::render_report(&trace::critical_path(&tl), &tl);
        assert!(report.contains("dropped=136"), "{report}");
        assert!(report.contains("WARNING"), "{report}");
    });
}

/// On storage that lends its bytes a collective places and extracts in
/// place: `pack.place` spans carry the piece's byte count,
/// there is no `io.read`/`io.write` span at all, and the critical-path
/// analyzer reports such an op with zero io time. The same op on storage
/// that declines still shows its requests.
#[test]
fn in_place_ops_trace_places_and_no_requests() {
    let hints = Hints::default();
    with_trace(|| {
        let spans = |shared: SharedFile| {
            let tl = trace::merge(&traced_collective(hints, shared));
            let begun = |tag: &str| {
                let of_tag = move |ev: &&trace::Event| {
                    matches!(ev.kind, trace::Kind::SpanBegin) && ev.tag == tag
                };
                tl.events.iter().filter(of_tag).cloned().collect::<Vec<_>>()
            };
            let requests = begun("io.read").len() + begun("io.write").len();
            let io_ns: u64 = trace::critical_path(&tl).iter().map(|r| r.io_ns).sum();
            assert_eq!(trace::critical_path(&tl).len(), 2, "a write and a read");
            (begun("pack.place"), requests, io_ns)
        };
        let (places, requests, io_ns) = spans(SharedFile::new(MemFile::new()));
        assert!(!places.is_empty(), "no placement recorded");
        assert!(places.iter().all(|ev| ev.b > 0), "a piece has bytes");
        assert_eq!((requests, io_ns), (0, 0), "in place there is no request");
        let (places, requests, _) = spans(SharedFile::new(common::Staged(MemFile::new())));
        assert!(!places.is_empty() && requests > 0, "staging makes requests");
    });
}

/// A rank's own share of a collective is no message: the only
/// edges from a rank to itself are the 16-byte headers to its own IOP
/// side, and the critical-path analysis takes such an op like any other.
/// A routed read has no IOP side: no header, no `exch.*` or `win` span
/// under its root, and the analysis says which read it was.
#[test]
fn the_own_share_makes_no_edge() {
    let hints = Hints::default();
    with_trace(|| {
        for (shared, routed) in both_storages().into_iter().zip([true, false]) {
            let tl = trace::merge(&traced_collective(hints, shared));
            let to_self = |e: &&trace::Edge| e.src_rank == e.dst_rank;
            let own: Vec<u64> = tl.edges.iter().filter(to_self).map(|e| e.bytes).collect();
            let headers = if routed { 4 } else { 8 };
            assert_eq!(
                own,
                vec![16; headers],
                "one header per rank and two-phase op"
            );
            assert_eq!((tl.unmatched_sends, tl.unmatched_recvs), (0, 0));
            let reports = trace::critical_path(&tl);
            assert_eq!(reports.len(), 2, "a write and a read");
            assert!(reports.iter().all(|r| r.wall_ns > 0 && r.pack_ns > 0));
            assert_eq!((reports[0].routed, reports[1].routed), (false, routed));
            // what lies under the read's root spans
            let roots: Vec<u64> = (tl.events.iter())
                .filter(|ev| ev.tag == "coll.read" && matches!(ev.kind, trace::Kind::SpanBegin))
                .map(|ev| ev.span_id)
                .collect();
            assert_eq!(roots.len(), 4, "one root per rank");
            let two_phase_children = (tl.events.iter())
                .filter(|ev| roots.contains(&ev.parent))
                .filter(|ev| ev.tag.starts_with("exch.") || ev.tag == "win")
                .count();
            assert_eq!(two_phase_children == 0, routed);
            let table = trace::render_report(&reports, &tl);
            assert_eq!(table.contains("read.routed"), routed, "{table}");
        }
    });
}

#[test]
fn critical_path_names_a_bounding_phase() {
    with_trace(|| {
        // a modelled-slow device makes the phase attribution non-trivial,
        // and arms the IOPs' write-behind lanes (a worker track each)
        let slow = Throttle {
            read_bw: 500e6,
            write_bw: 500e6,
            latency: std::time::Duration::from_micros(200),
        };
        let shared = SharedFile::new(ThrottledFile::new(Arc::new(MemFile::new()), slow));
        let hints = Hints::default().cb_buffer(1 << 10);
        let streams = traced_collective(hints, shared);
        let tl = trace::merge(&streams);
        let reports = trace::critical_path(&tl);
        // one write + one read collective
        assert_eq!(reports.len(), 2, "expected two collective ops");
        assert_eq!(reports[0].tag, "coll.write");
        assert_eq!(reports[1].tag, "coll.read");
        for r in &reports {
            assert!(r.wall_ns > 0, "op {} has zero wall time", r.index);
            assert!((r.bound_rank as usize) < 4, "bounding rank out of range");
            let phase_total = r.exchange_ns + r.io_ns + r.pack_ns;
            assert!(phase_total > 0, "op {} attributed no phase time", r.index);
        }
        let table = trace::render_report(&reports, &tl);
        assert!(table.contains("coll.write"), "report table lacks the op");
        for r in &reports {
            assert!(
                table.contains(r.bounding.name()),
                "report table lacks the bounding phase"
            );
        }
        // the health footer must always state the truncation counters
        assert!(
            table.contains("trace health: dropped=0"),
            "report lacks the trace-health footer: {table}"
        );
        assert!(
            !table.contains("WARNING"),
            "clean trace must not warn: {table}"
        );
    });
}
