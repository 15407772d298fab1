//! Self-tuning collective engine, end to end:
//!
//! 1. **Determinism** — the tuner is a pure function of its outcome
//!    sequence: replaying the same seeded synthetic workload twice must
//!    produce byte-identical decision logs (assert messages carry the
//!    seed's repro command).
//! 2. **Fault safety** — a file whose every collective aborts (fail-stop
//!    torn device) must leave the tuner untouched: every decision is a
//!    discard, no knob moves, and the `core.tune.discarded` counter
//!    accounts for the discarded ops.
//! 3. **Cold start == advisor** — the tuner's cold-start jump and the
//!    PR 6 advisor derive from one rule table: on the canned fig5/fig6
//!    profiles the derived knobs must match the advisor's settings
//!    exactly.
//! 4. **Differential corpus** — `Hints::autotune(true)` across ranks
//!    {1, 2, 4, 7} × backends {mem, os} is byte-for-byte the naive
//!    reference: the tuner changes performance knobs only. Every other
//!    case runs behind `Staged`, so that the read-back is two-phase there
//!    and (while the tuner holds the listless engine) routed elsewhere.
//! 5. **A routed read is a discard** — neither knob reached it, so it
//!    moves none, and the op numbering stays aligned on every rank.

mod common;

use common::{pattern, reference_read, reference_write, storage_for_backend, Staged};
use lio_core::autotune::{apply_settings, cold_start_knobs, Knobs, OpOutcome};
use lio_core::{BackendKind, File, Hints, SharedFile, Tuner};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_obs::profile::{advise, cb_target, fixtures};
use lio_pfs::decorate::{FaultPlan, FaultyFile};
use lio_pfs::MemFile;
use lio_testkit as tk;

/// Cyclically interleaved filetype: `nblock` blocks of `sblock` bytes,
/// one block per stride of `slots` block slots.
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

// ---------------------------------------------------------------------
// 1. Determinism
// ---------------------------------------------------------------------

/// A seeded synthetic outcome: plausible phase breakdowns with enough
/// variance to trip every signal class over a long enough run.
fn synthetic_outcome(rng: &mut tk::Rng, op: u64) -> OpOutcome {
    let span = 1u64 << (18 + rng.below(8)); // 256 KiB .. 32 MiB
    let wall = 200_000 + rng.below(2_000_000);
    // rotate which phase dominates, seed-dependently
    let hot = rng.below(3);
    let (exch, io, pk) = match hot {
        0 => (wall * 7 / 10, wall * 2 / 10, wall / 10),
        1 => (wall * 2 / 10, wall * 7 / 10, wall / 10),
        _ => (wall / 10, wall * 2 / 10, wall * 7 / 10),
    };
    OpOutcome {
        write: op % 3 != 2,
        wall_ns: wall,
        exchange_ns: exch,
        io_ns: io,
        pack_ns: pk,
        bytes: span / 4,
        span,
    }
}

/// Render a decision log to one comparable string.
fn render_decisions(t: &Tuner) -> String {
    t.report()
        .decisions
        .iter()
        .map(|d| format!("op {}: {} {} [{}]\n", d.op, d.action, d.knob, d.signal))
        .collect()
}

#[test]
fn decision_sequence_is_deterministic() {
    if std::env::var("LIO_PROFILE").is_ok() {
        // a live global profile feeds the cold-start jump: decision
        // sequences then depend on what other tests record concurrently
        return;
    }
    for &seed in &tk::corpus_seeds() {
        let run = |seed: u64| {
            // list-based, so that an exchange-bound streak has a move
            let mut t = Tuner::new(&Hints::list_based());
            let mut rng = tk::Rng::new(seed);
            for op in 0..24u64 {
                let h = t.plan_hints(op);
                // no span, however long, grows the window past the default
                assert!(h.cb_buffer_size <= Hints::default().cb_buffer_size);
                t.record(op, synthetic_outcome(&mut rng, op));
            }
            t.plan_hints(24); // flush the last decision
            t
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(
            render_decisions(&a),
            render_decisions(&b),
            "same seed must replay the same decision sequence; {}",
            tk::repro_hint(seed)
        );
        // and the sequence is non-trivial: the synthetic load rotates
        // dominance, so at least one decision fires
        assert!(
            !a.report().decisions.is_empty(),
            "synthetic workload produced no decisions; {}",
            tk::repro_hint(seed)
        );
    }
}

// ---------------------------------------------------------------------
// 2. Fault safety
// ---------------------------------------------------------------------

#[test]
fn aborted_ops_never_move_knobs() {
    let nprocs = 2usize;
    let (sblock, nblock) = (32u64, 8u64);
    // fail-stop immediately: every collective write aborts permanently
    let plan = FaultPlan {
        torn_after: Some(0),
        ..FaultPlan::disabled()
    };
    let shared = SharedFile::new(FaultyFile::new(MemFile::new(), plan));
    let sh = shared.clone();
    World::run(nprocs, move |comm| {
        let me = comm.rank() as u64;
        let ft = interleaved_ft(sblock, nblock, nprocs as u64);
        let mut f = File::open(comm, sh.clone(), Hints::listless().autotune(true)).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let step = nblock * sblock;
        for s in 0..4u64 {
            let data = pattern(step as usize, me * 1000 + s);
            // every op fails on the IOP rank; the collective itself
            // stays deadlock-free
            let _ = f.write_at_all(s * step, &data, step, &Datatype::byte());
        }
    });
    let report = shared.tune_report().expect("tuner was armed");
    assert!(
        report.discarded >= 1,
        "aborted ops must be discarded: {report:?}"
    );
    for d in &report.decisions {
        assert_eq!(
            d.action, "discard",
            "a fault-poisoned op may only produce discards: {report:?}"
        );
    }
    assert_eq!(
        report.current, report.initial,
        "knobs must not move on discarded measurements: {report:?}"
    );
    // the obs gauge accounts for (at least) this file's discards
    assert!(
        lio_obs::snapshot().counter("core.tune.discarded") >= report.discarded,
        "core.tune.discarded must cover the report's discards"
    );
}

// ---------------------------------------------------------------------
// 3. Cold start == advisor (shared rule table)
// ---------------------------------------------------------------------

#[test]
fn cold_start_matches_advisor_on_canned_profiles() {
    let base = Hints::default();

    // fig6: exchange-bound collective with small non-contiguous runs —
    // the advisor recommends, and the tuner's cold start must adopt,
    // the same knob set via the one shared `apply_settings` path.
    let p = fixtures::fig6_collective_small_runs();
    let recs = advise(&p);
    assert!(
        !recs.is_empty(),
        "fig6 profile must trigger advisor rules (rule table regressed?)"
    );
    let k = cold_start_knobs(&base, &p);
    assert_eq!(
        k,
        Knobs::from_hints(&apply_settings(base, &recs)),
        "cold start must be exactly the advisor settings applied to base"
    );
    // pin the fig6 knob values so a silent rule-table change is caught:
    // a non-contiguous view => listless; the fixture's domain span => the
    // shared cb_target geometry rule, never past the default window
    assert_eq!(k.engine, lio_core::Engine::Listless);
    let span_per_op = p.domains.span_bytes / p.domains.ops;
    assert_eq!(
        k.cb as u64,
        cb_target(span_per_op),
        "cb from shared cb_target"
    );
    assert!(k.cb <= Hints::default().cb_buffer_size);

    // fig5: independent-only profile — no collective evidence, so the
    // collective knobs must stay at base (the tuner additionally gates
    // its jump on `has_collective`).
    let p5 = fixtures::fig5_independent_sparse_large();
    assert!(!p5.has_collective());
    let k5 = cold_start_knobs(&base, &p5);
    let b = Knobs::from_hints(&base);
    assert_eq!(
        k5, b,
        "independent-only profile must not retune collective knobs"
    );
}

// ---------------------------------------------------------------------
// 4. Differential corpus: bytes identical under autotune
// ---------------------------------------------------------------------

#[test]
fn autotuned_corpus_matches_reference() {
    let mut case = 0u64;
    for &backend in &[BackendKind::Mem, BackendKind::Os] {
        for &nprocs in &[1usize, 2, 4, 7] {
            for &seed in &tk::corpus_seeds() {
                case += 1;
                let mut rng = tk::Rng::new(seed ^ (case << 24));
                let sblock = 1 + rng.below(95);
                let nblock = 1 + rng.below(11);
                let holey = rng.below(2) == 1;
                let steps = 4 + rng.below(3); // enough ops to let knobs move
                let slots = nprocs as u64 + holey as u64;
                let step = nblock * sblock;

                // reference file from the naive model
                let ft_ref = interleaved_ft(sblock, nblock, slots);
                let mut want = Vec::new();
                for me in 0..nprocs as u64 {
                    let mut stream = Vec::with_capacity((step * steps) as usize);
                    for s in 0..steps {
                        stream.extend_from_slice(&pattern(step as usize, me * 1000 + s));
                    }
                    reference_write(&mut want, me * sblock, &ft_ref, 0, &stream);
                }

                let engine_hints = if rng.below(2) == 0 {
                    Hints::list_based()
                } else {
                    Hints::listless()
                };
                let hints = engine_hints.cb_buffer(4096).autotune(true);
                let (shared, snap) = storage_for_backend(backend);
                let sh = if case.is_multiple_of(2) {
                    SharedFile::new(Staged(std::sync::Arc::clone(shared.storage())))
                } else {
                    shared.clone()
                };
                let want_ro = want.clone();
                World::run(nprocs, move |comm| {
                    let me = comm.rank() as u64;
                    let ft = interleaved_ft(sblock, nblock, slots);
                    let mut f = File::open(comm, sh.clone(), hints).unwrap();
                    f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
                    for s in 0..steps {
                        let data = pattern(step as usize, me * 1000 + s);
                        f.write_at_all(s * step, &data, step, &Datatype::byte())
                            .unwrap();
                    }
                    f.sync().unwrap();
                    // collective read-back must match the reference view
                    let total = steps * step;
                    let mut back = vec![0u8; total as usize];
                    f.read_at_all(0, &mut back, total, &Datatype::byte())
                        .unwrap();
                    let ft2 = interleaved_ft(sblock, nblock, slots);
                    let expect = reference_read(&want_ro, me * sblock, &ft2, 0, total);
                    assert_eq!(
                        back,
                        expect,
                        "case {case} rank {me}: autotuned read-back differs; {}",
                        tk::repro_hint(seed)
                    );
                });
                let mut got = snap.snapshot();
                let n = want.len().max(got.len());
                want.resize(n, 0);
                got.resize(n, 0);
                assert_eq!(
                    got,
                    want,
                    "case {case} ({} p={nprocs} sblock={sblock} nblock={nblock} holey={holey} \
                     steps={steps}): autotuned file differs from the naive reference; {}",
                    backend.name(),
                    tk::repro_hint(seed)
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 5. A routed read is a discard
// ---------------------------------------------------------------------

#[test]
fn routed_reads_are_discards_and_keep_the_ops_aligned() {
    const OPS: u64 = 6;
    let (nprocs, sblock, nblock) = (2usize, 64u64, 32u64);
    let step = nblock * sblock;
    let image = pattern((2 * step) as usize, 5);
    let run = |shared: SharedFile| {
        let sh = shared.clone();
        World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(sblock, nblock, nprocs as u64);
            let mut f = File::open(comm, sh.clone(), Hints::listless().autotune(true)).unwrap();
            f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
            let mut back = vec![0u8; step as usize];
            for _ in 0..OPS {
                f.read_at_all(0, &mut back, step, &Datatype::byte())
                    .unwrap();
                // reads end in no sync: let every report land before the
                // next op's decision is taken
                comm.barrier();
            }
        });
        shared.tune_report().expect("tuner was armed")
    };
    // lent to every rank: each read is routed, each decision a discard
    let report = run(SharedFile::new(MemFile::with_data(image.clone())));
    assert_eq!(report.ops.len() as u64, OPS, "{report:?}");
    assert_eq!(report.discarded, OPS - 1, "the last op's decision is due");
    assert_eq!(report.stale_reports, 0, "{report:?}");
    for d in &report.decisions {
        assert_eq!(d.action, "discard", "{report:?}");
        assert!(d.signal.contains("routed"), "{report:?}");
    }
    assert_eq!(report.current, report.initial, "{report:?}");
    // staged, the same reads are two-phase ops the tuner measures
    let report = run(SharedFile::new(Staged(MemFile::with_data(image))));
    assert_eq!(report.ops.len() as u64, OPS, "{report:?}");
    assert_eq!(report.discarded, 0, "{report:?}");
}
