//! Assertion-backed verification of the pipeline's memory bound: with
//! credit-based flow control, the IOP buffers at most
//! `O(pipeline_depth · cb_buffer_size · nprocs)` bytes (window buffers,
//! queued messages and the buffers its scratch arena keeps for reuse —
//! the gauge counts all three) regardless of the collective access size —
//! unlike the monolithic schedule, which holds every AP's whole
//! per-domain contribution at once.
//!
//! Runs as its own test binary so the process-global high-water gauge
//! reflects exactly the collectives issued here.
//!
//! Note: this binary intentionally relies on the `two_phase_pipeline`
//! *hint* and is not meaningful under a forcing `LIO_PIPELINE`
//! environment override; CI's pipeline matrix therefore targets the
//! `collective` and `pipeline` suites, not this one.

mod common;

use common::pattern;
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;

const NPROCS: usize = 4;
const CB: usize = 4096;
const DEPTH: usize = 2;
/// Per-rank bytes: 64 windows' worth of collective access per rank, so
/// the monolithic schedule would buffer ~1 MiB on the single IOP.
const PER_RANK: u64 = 256 * 1024;

fn run_write(hints: Hints) {
    let shared = SharedFile::new(MemFile::new());
    let sh = shared.clone();
    World::run(NPROCS, move |comm| {
        let me = comm.rank() as u64;
        let p = comm.size() as u64;
        let sblock = 256u64;
        let nblock = PER_RANK / sblock;
        let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
        let v = Datatype::vector(nblock, 1, p as i64, &block).unwrap();
        let extent = nblock * p * sblock;
        let ft = Datatype::struct_type(vec![
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
        .unwrap();
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let data = pattern(PER_RANK as usize, me);
        f.write_at_all(0, &data, PER_RANK, &Datatype::byte())
            .unwrap();
        let mut back = vec![0u8; PER_RANK as usize];
        f.read_at_all(0, &mut back, PER_RANK, &Datatype::byte())
            .unwrap();
        assert_eq!(back, data, "rank {me} read back foreign bytes");
    });
    assert_eq!(shared.len(), NPROCS as u64 * PER_RANK);
}

#[test]
fn iop_peak_buffering_is_bounded_by_depth_windows() {
    lio_obs::reset();
    lio_obs::set_enabled(true);
    for hints in [Hints::list_based(), Hints::listless()] {
        run_write(
            hints
                .cb_buffer(CB)
                .io_nodes(1) // one IOP owns the whole 1 MiB domain
                .pipelined(true)
                .pipeline_depth(DEPTH),
        );
    }
    lio_obs::set_enabled(false);
    let snap = lio_obs::snapshot();
    let peak = snap.gauge("core.coll.pipeline.peak_buffered_bytes");
    let inflight = snap.gauge("core.coll.pipeline.inflight_windows");
    let total = NPROCS as u64 * PER_RANK;
    // ≤ depth un-credited messages per AP + depth window buffers; the
    // arena retains at most what was out at once (the rank's own
    // un-credited messages and its window buffers), which the messages'
    // share of the bound — they are a quarter window each — leaves room for
    let bound = (DEPTH * CB * (NPROCS + 1)) as u64;
    assert!(peak > 0, "pipeline never recorded its buffering high-water");
    assert!(
        peak <= bound,
        "IOP buffered {peak} B, above the O(depth·cb·nprocs) bound {bound} B"
    );
    assert!(
        peak <= total / 8,
        "IOP buffered {peak} B of a {total} B access — not streaming"
    );
    assert!(
        (1..=(DEPTH as u64) * 2).contains(&inflight),
        "implausible in-flight window high-water {inflight}"
    );
}
