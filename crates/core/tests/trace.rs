//! Trace-correctness tests (deterministic, 4 ranks): every span closes,
//! cross-rank send→recv edges are causally ordered after the merge, the
//! ring buffer drops oldest-first on wraparound without corrupting the
//! export, the critical-path analyzer names a bounding phase for a
//! collective write whose windows are written behind the loop, and the
//! two-phase breakdown counters are the sums of the traced phase spans.

mod common;

use common::interleaved_ft;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_obs::trace;
use lio_pfs::{Decorated, MemFile, Throttle};

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

/// A file that lends its bytes — the IOPs work on its windows in place —
/// and one that stages every window: the span and edge rules hold on both.
fn both_storages() -> [SharedFile; 2] {
    [
        SharedFile::new(MemFile::new()),
        SharedFile::new(common::staged(MemFile::new())),
    ]
}

/// Run one 4-rank collective write + read-back under `hints` against the
/// given storage, with tracing armed, and return the collected streams.
fn traced_collective(hints: Hints, shared: SharedFile) -> Vec<trace::RankStream> {
    traced(hints, shared, 8)
}

/// [`traced_collective`] with `nblock` blocks of 32 bytes per rank.
fn traced(hints: Hints, shared: SharedFile, nblock: u64) -> Vec<trace::RankStream> {
    trace::reset();
    let sh = shared;
    World::run(4, move |comm| {
        let me = comm.rank() as u64;
        let ft = interleaved_ft(32, nblock, comm.size() as u64 + 1);
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * 32, Datatype::byte(), ft).unwrap();
        let n = nblock * 32;
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
        let (places, requests, _) = spans(SharedFile::new(common::staged(MemFile::new())));
        assert!(!places.is_empty() && requests > 0, "staging makes requests");
    });
}

/// A rank's own share of a collective is no message: the only edges from
/// a rank to itself are the 16-byte headers to its own IOP side, one per
/// rank and op on either storage, and the critical-path analysis takes
/// such an op like any other. The read is the write's mirror: an exchange
/// and a window loop under every root, and one lending scope whose barrier
/// ends it.
#[test]
fn the_own_share_makes_no_edge() {
    let hints = Hints::default();
    with_trace(|| {
        for shared in both_storages() {
            let tl = trace::merge(&traced_collective(hints, shared));
            let to_self = |e: &&trace::Edge| e.src_rank == e.dst_rank;
            let own: Vec<u64> = tl.edges.iter().filter(to_self).map(|e| e.bytes).collect();
            assert_eq!(own, vec![16; 8], "one header per rank and op");
            assert_eq!((tl.unmatched_sends, tl.unmatched_recvs), (0, 0));
            let reports = trace::critical_path(&tl);
            assert_eq!(reports.len(), 2, "a write and a read");
            assert!(reports.iter().all(|r| r.wall_ns > 0 && r.pack_ns > 0));
            assert_eq!(
                (reports[0].tag, reports[1].tag),
                ("coll.write", "coll.read")
            );
            // what lies under the read's root spans
            let roots: Vec<u64> = (tl.events.iter())
                .filter(|ev| ev.tag == "coll.read" && matches!(ev.kind, trace::Kind::SpanBegin))
                .map(|ev| ev.span_id)
                .collect();
            assert_eq!(roots.len(), 4, "one root per rank");
            let children = |tag: &str| {
                (tl.events.iter())
                    .filter(|ev| matches!(ev.kind, trace::Kind::SpanBegin))
                    .filter(|ev| roots.contains(&ev.parent) && ev.tag == tag)
                    .count()
            };
            assert!(children("exch.send") > 0 && children("win") > 0);
            assert_eq!(children("exch.barrier"), 4, "one scope's end per rank");
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
        let shared = SharedFile::new(Decorated::new(Arc::new(MemFile::new()), slow));
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

/// Every `win` span carries `(window index, window bytes)`. On each IOP
/// and op its indices count from 0 and its `b` words sum to the bytes its
/// windows cover: the pieces placed in place (`pack.place`) on storage
/// that lends, the requests (`io.write` in a write, `io.read` in a read)
/// on storage that stages — for both engines, writes and reads.
#[test]
fn win_spans_carry_index_and_bytes() {
    with_trace(|| {
        for hints in [Hints::list_based(), Hints::listless()] {
            for (lends, shared) in [true, false].into_iter().zip(both_storages()) {
                let streams = traced_collective(hints, shared);
                let mut windows = 0;
                for s in &streams {
                    // per root: (tag, win bytes, win indices, covered bytes)
                    let mut ops: Vec<(&str, u64, Vec<u64>, u64)> = Vec::new();
                    let begins = s
                        .events
                        .iter()
                        .filter(|ev| ev.kind == trace::Kind::SpanBegin);
                    for ev in begins {
                        if ev.tag.starts_with("coll.") {
                            ops.push((ev.tag, 0, Vec::new(), 0));
                            continue;
                        }
                        let op = ops.last_mut().expect("every span lies under a root");
                        let covers = match (lends, op.0, ev.tag) {
                            (_, _, "win") => {
                                op.1 += ev.b;
                                op.2.push(ev.a);
                                false
                            }
                            (true, _, "pack.place") => true,
                            (false, "coll.write", "io.write") => true,
                            (false, "coll.read", "io.read") => true,
                            _ => false,
                        };
                        if covers {
                            op.3 += ev.b;
                        }
                    }
                    assert_eq!(ops.len(), 2, "rank {}: a write and a read", s.rank);
                    for (root, win_bytes, indices, covered) in ops {
                        let what = format!("rank {} {root} {hints:?} lends={lends}", s.rank);
                        assert_eq!(win_bytes, covered, "{what}: window bytes");
                        let count: Vec<u64> = (0..indices.len() as u64).collect();
                        assert_eq!(indices, count, "{what}: window indices");
                        windows += count.len();
                    }
                }
                assert!(windows > 0, "no IOP opened a window");
            }
        }
    });
}

/// Per direction (writes first) and phase (exchange, io, pack): the summed
/// durations of the spans the phase counters charge — those with a phase
/// in the one tag table under a `coll.write`/`coll.read` root, no span of
/// a phase between them and the root — on every track, lanes included.
fn phase_spans(streams: &[trace::RankStream]) -> [[u64; 3]; 2] {
    // every span: its tag, its parent and when it opened
    let mut spans: HashMap<u64, (&str, u64, u64)> = HashMap::new();
    let events = || streams.iter().flat_map(|s| &s.events);
    for ev in events().filter(|ev| ev.kind == trace::Kind::SpanBegin) {
        spans.insert(ev.span_id, (ev.tag, ev.parent, ev.ts));
    }
    let column = |phase| match phase {
        trace::Phase::Exchange => 0,
        trace::Phase::Io => 1,
        _ => 2,
    };
    let mut sums = [[0u64; 3]; 2];
    for ev in events().filter(|ev| ev.kind == trace::Kind::SpanEnd) {
        let (tag, mut up, begin) = spans[&ev.span_id];
        let Some(phase) = trace::phase_of(tag).1 else {
            continue;
        };
        let dir = loop {
            let Some(&(above, next, _)) = spans.get(&up) else {
                break None; // no root above
            };
            match above {
                "coll.write" => break Some(0),
                "coll.read" => break Some(1),
                _ if trace::phase_of(above).1.is_some() => break None, // not outermost
                _ => up = next,
            }
        };
        if let Some(dir) = dir {
            sums[dir][column(phase)] += ev.ts - begin;
        }
    }
    sums
}

/// The two-phase breakdown has one source: armed with the metrics and the
/// trace, each of `core.coll.{write,read}.{exchange,io,pack}_ns` is
/// exactly the summed durations of that direction's outermost spans of
/// that phase in the trace, for both engines, on a file that lends its
/// windows (no `io.*` span at all) and on slow storage that stages them
/// through small windows, where the IOPs' write-behind lanes arm and their
/// `io.write` spans on worker tracks charge the write's `io_ns`.
#[test]
fn phase_counters_are_the_traced_spans() {
    with_trace(|| {
        lio_obs::set_enabled(true);
        for hints in [Hints::list_based(), Hints::listless()].map(|h| h.cb_buffer(256)) {
            let slow = Throttle {
                latency: std::time::Duration::from_micros(200),
                ..Throttle::sx6_local_fs()
            };
            let storages = [
                (false, SharedFile::new(MemFile::new())),
                (true, SharedFile::new(Decorated::new(MemFile::new(), slow))),
            ];
            for (staged, shared) in storages {
                lio_obs::reset();
                let streams = traced(hints, shared, 64);
                assert!(streams.iter().all(|s| s.dropped == 0), "a ring overflowed");
                let snap = lio_obs::snapshot();
                let what = format!("{hints:?} staged={staged}");
                let lanes = streams.iter().flat_map(|s| &s.events);
                let lanes = lanes.filter(|ev| ev.tid as usize >= lio_obs::MAX_RANKS);
                assert_eq!(
                    (snap.counter("io.behind_bytes") > 0, lanes.count() > 0),
                    (staged, staged),
                    "{what}: the lanes arm on slow staging storage alone"
                );
                let sums = phase_spans(&streams);
                for (d, dir) in ["write", "read"].into_iter().enumerate() {
                    for (p, phase) in ["exchange", "io", "pack"].into_iter().enumerate() {
                        let name = format!("core.coll.{dir}.{phase}_ns");
                        assert_eq!(snap.counter(&name), sums[d][p], "{what}: {name}");
                    }
                    assert!(sums[d][0] > 0 && sums[d][2] > 0, "{what}: {dir}");
                    assert_eq!(sums[d][1] > 0, staged, "{what}: {dir} io");
                }
            }
        }
        lio_obs::set_enabled(false);
    });
}
