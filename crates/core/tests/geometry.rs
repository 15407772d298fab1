//! Request geometry: where the storage requests of an access fall, not
//! what they carry (the differential corpora check that).
//!
//! With default hints every window loop — the two-phase schedule of both
//! engines, and data sieving — cuts its range along the absolute grid of
//! multiples of the default window, and the file domains of a collective
//! meet on grid lines. So, whatever the displacement of the view:
//!
//! * every request lies inside one grid cell;
//! * per collective operation at most two requests have an end off the
//!   grid (the one at the operation's first byte, the one at its last);
//! * no cell sees two requests of a kind in one collective operation, i.e.
//!   no two io-processes work on the same cell;
//! * on `OsFile`, page-aligned accesses are single aligned segments, which
//!   it serves inline: nothing reaches its worker pool.

mod common;

use std::collections::HashSet;
use std::sync::Mutex;

use common::{apply_comm_faults, figure4_filetype, pattern, recording_storage, Request, Staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Order};
use lio_mpi::World;
use lio_pfs::{MemFile, OsConfig, OsFile};

/// Tests of this binary share the process-global `lio-obs` registry with
/// the one test that reads it.
static GATE: Mutex<()> = Mutex::new(());

const PAGE: u64 = 4096;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// The paper's Figure 4: `PAGE`-byte blocks, rank-interleaved.
    Figure4,
    /// BTIO-like: a 2-D array of `PAGE`-byte rows split into column slabs,
    /// one per rank, with an odd row count so that an even split of the
    /// span falls off every page boundary.
    Tile,
}

impl Shape {
    /// Bytes each rank moves per operation: 0.75 MiB and a bit, so that
    /// the span holds at least one default window per io-process.
    fn bytes_per_rank(self, nprocs: u64) -> u64 {
        match self {
            Shape::Figure4 => 192 * PAGE,
            Shape::Tile => self.rows(nprocs) * PAGE / nprocs,
        }
    }

    fn rows(self, nprocs: u64) -> u64 {
        192 * nprocs + 1
    }

    fn filetype(self, rank: u64, nprocs: u64) -> Datatype {
        match self {
            Shape::Figure4 => figure4_filetype(rank, nprocs, 192, PAGE),
            Shape::Tile => {
                let cols = PAGE / nprocs;
                Datatype::subarray(
                    &[self.rows(nprocs), PAGE],
                    &[self.rows(nprocs), cols],
                    &[0, rank * cols],
                    Order::C,
                    &Datatype::byte(),
                )
                .unwrap()
            }
        }
    }

    fn span(self, nprocs: u64) -> u64 {
        self.bytes_per_rank(nprocs) * nprocs
    }
}

fn window() -> u64 {
    let h = Hints::default();
    assert_eq!(h.cb_buffer_size, h.ind_buffer_size, "one default window");
    h.cb_buffer_size as u64
}

fn in_one_cell(r: &Request, what: &str) {
    let w = window();
    assert!(r.len > 0, "{what}: empty request {r:?}");
    assert_eq!(
        r.offset / w,
        (r.offset + r.len - 1) / w,
        "{what}: {r:?} crosses a window boundary"
    );
}

fn off_grid_ends(reqs: &[Request]) -> usize {
    let w = window();
    reqs.iter()
        .filter(|r| r.offset % w != 0 || (r.offset + r.len) % w != 0)
        .count()
}

/// The assertions on the requests of one collective write or read.
fn check_collective(reqs: &[Request], write: bool, lo: u64, hi: u64, what: &str) {
    let w = window();
    assert!(!reqs.is_empty(), "{what}: no request recorded");
    let mut cells = HashSet::new();
    for r in reqs {
        in_one_cell(r, what);
        assert!(
            r.offset >= lo && r.offset + r.len <= hi,
            "{what}: {r:?} outside the accessed range [{lo}, {hi})"
        );
        assert!(
            cells.insert((r.write, r.offset / w)),
            "{what}: two requests of a kind into the cell of {r:?}"
        );
    }
    let off = off_grid_ends(reqs);
    assert!(
        off <= 2,
        "{what}: {off} requests end off the grid: {reqs:?}"
    );
    // the views are dense: the operation's own requests tile the range
    let bytes: u64 = reqs
        .iter()
        .filter(|r| r.write == write)
        .map(|r| r.len)
        .sum();
    assert_eq!(bytes, hi - lo, "{what}: requested bytes vs range");
}

/// Run one world over `shared`: a collective write and read-back, then an
/// independent write and read-back, each followed by `after(op)` on rank 0
/// while the other ranks wait.
fn drive(
    shared: &SharedFile,
    hints: Hints,
    shape: Shape,
    nprocs: u64,
    disp: u64,
    after: impl Fn(&str) + Sync,
) {
    World::run(nprocs as usize, |comm| {
        apply_comm_faults(comm);
        let me = comm.rank() as u64;
        let n = shape.bytes_per_rank(nprocs);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(disp, Datatype::byte(), shape.filetype(me, nprocs))
            .unwrap();
        let data = pattern(n as usize, me + 1);
        let mut back = vec![0u8; n as usize];
        let checkpoint = |op: &str| {
            comm.barrier();
            if me == 0 {
                after(op);
            }
            comm.barrier();
        };
        checkpoint("open");
        assert_eq!(f.write_at_all(0, &data, n, &Datatype::byte()).unwrap(), n);
        checkpoint("write_at_all");
        assert_eq!(
            f.read_at_all(0, &mut back, n, &Datatype::byte()).unwrap(),
            n
        );
        assert_eq!(back, data, "rank {me}: collective read-back");
        checkpoint("read_at_all");
        assert_eq!(f.write_at(0, &data, n, &Datatype::byte()).unwrap(), n);
        checkpoint("write_at");
        back.fill(0);
        assert_eq!(f.read_at(0, &mut back, n, &Datatype::byte()).unwrap(), n);
        assert_eq!(back, data, "rank {me}: independent read-back");
        checkpoint("read_at");
    });
}

#[test]
fn requests_stay_on_the_window_grid() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let w = window();
    for shape in [Shape::Figure4, Shape::Tile] {
        for nprocs in [2u64, 4] {
            for disp in [0, 1, PAGE - 1, PAGE + 1, w - 1] {
                for hints in [Hints::list_based(), Hints::listless()] {
                    let (lo, hi) = (disp, disp + shape.span(nprocs));
                    // the file exists beyond the access, so no read meets
                    // EOF and comes back for the rest
                    let (shared, rec) = recording_storage(vec![0x5A; (hi + w) as usize]);
                    let what = |op: &str| {
                        format!(
                            "{op}, {shape:?}, P={nprocs}, disp={disp}, {:?}",
                            hints.engine
                        )
                    };
                    drive(&shared, hints, shape, nprocs, disp, |op| {
                        let reqs = rec.take();
                        match op {
                            "open" => {}
                            "write_at_all" | "read_at_all" => {
                                check_collective(&reqs, op == "write_at_all", lo, hi, &what(op))
                            }
                            // every rank sieves its own range: the cells
                            // are shared, the grid is not negotiable
                            _ => {
                                assert!(!reqs.is_empty(), "{}: no request", what(op));
                                for r in &reqs {
                                    in_one_cell(r, &what(op));
                                }
                                let off = off_grid_ends(&reqs);
                                assert!(
                                    off <= 4 * nprocs as usize,
                                    "{}: {off} requests end off the grid",
                                    what(op)
                                );
                            }
                        }
                    });
                }
            }
        }
    }
}

#[test]
fn aligned_windows_stay_off_the_os_worker_pool() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for shape in [Shape::Figure4, Shape::Tile] {
        for nprocs in [2u64, 4] {
            for hints in [Hints::list_based(), Hints::listless()] {
                // a device that lends nothing (a bare `MemFile` would, and
                // `OsFile` forwards the question): every window is a request
                let device = Staged(MemFile::new());
                let shared = SharedFile::new(OsFile::over(device, OsConfig::default()));
                lio_obs::reset();
                lio_obs::set_enabled(true);
                drive(&shared, hints, shape, nprocs, 0, |op| {
                    let snap = lio_obs::snapshot();
                    // the Tile shape's column slabs start mid-page, so a
                    // rank's own sieve range is not page-aligned
                    let aligned = op.ends_with("_all") || matches!(shape, Shape::Figure4);
                    if op != "open" && aligned {
                        assert!(
                            snap.counter("pfs.os.sqe.submitted") > 0,
                            "{op}: OsFile served nothing"
                        );
                        assert_eq!(
                            snap.gauge("pfs.os.queue_depth_max"),
                            0,
                            "{op}, {shape:?}, P={nprocs}, {:?}: a page-aligned access \
                             reached the worker pool",
                            hints.engine
                        );
                    }
                    lio_obs::reset();
                });
                lio_obs::set_enabled(false);
            }
        }
    }
}
