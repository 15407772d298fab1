//! Allocations per operation do not grow with the number of windows: a
//! steady-state listless collective write and read of the Figure-4 shape
//! allocate as often in 16 KiB windows as in the default 512 KiB ones, to
//! within the few allocations the message queues make as their timing goes.
//! Every cursor of a placement — the memtype's stretch cursor of each
//! share and piece, the row zip's columns — keeps its frame stack in
//! itself, and the window loop's buffers come from the rank's arena.
//!
//! Its own test binary, with a counting allocator that counts every
//! allocation of the process (both ranks, their messages and any storage
//! lane); one test, so nothing else runs beside it.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{figure4_filetype, pattern, staged};
use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::World;
use lio_pfs::MemFile;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and the counter touches no
// allocation. `alloc_zeroed` and `realloc` keep the trait's defaults,
// which go through `alloc` and are counted there.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NBLOCK: u64 = 4096;
const SBLOCK: u64 = 8;
/// Instances of the strided memtype per rank and operation: 256 KiB, so
/// that 16 KiB windows are 32 of them, the default one.
const COUNT: u64 = 8;
/// Timed operations per direction, after as many untimed ones.
const OPS: u64 = 8;

/// Allocations of `OPS` steady-state writes and of `OPS` reads, in windows
/// of `cb` bytes, over a file that `make` builds.
fn allocations(cb: usize, make: fn(Vec<u8>) -> SharedFile) -> (u64, u64) {
    let memtype = Datatype::vector(NBLOCK, 1, 2, &Datatype::basic(SBLOCK as u32)).unwrap();
    let bytes = COUNT * NBLOCK * SBLOCK;
    let shared = make(vec![0; 2 * bytes as usize]);
    let counts = World::run(2, |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), Hints::listless().cb_buffer(cb)).unwrap();
        f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
            .unwrap();
        let len = (COUNT - 1) * memtype.extent() + memtype.data_ub() as u64;
        let user = pattern(len as usize, me + 1);
        let mut back = vec![0u8; len as usize];
        let mut count = |op: &mut dyn FnMut(&mut File)| {
            for _ in 0..OPS {
                op(&mut f);
            }
            comm.barrier();
            let before = ALLOCS.load(Ordering::Relaxed);
            comm.barrier();
            for _ in 0..OPS {
                op(&mut f);
            }
            comm.barrier();
            let after = ALLOCS.load(Ordering::Relaxed);
            comm.barrier();
            after - before
        };
        let w = count(&mut |f| {
            f.write_at_all(0, &user, COUNT, &memtype).unwrap();
        });
        let r = count(&mut |f| {
            f.read_at_all(0, &mut back, COUNT, &memtype).unwrap();
        });
        (w, r)
    });
    counts[0]
}

#[test]
fn allocations_do_not_grow_with_the_windows() {
    let lending: fn(Vec<u8>) -> SharedFile = |d| SharedFile::new(MemFile::with_data(d));
    let staging: fn(Vec<u8>) -> SharedFile = |d| SharedFile::new(staged(MemFile::with_data(d)));
    for (name, make) in [("MemFile", lending), ("staged(MemFile)", staging)] {
        let (big, small) = (allocations(512 << 10, make), allocations(16 << 10, make));
        println!("{name}: (write, read) allocations of {OPS} ops: {big:?} at 512 KiB, {small:?} at 16 KiB");
        // One allocation per window would be 31 more per operation and
        // IOP in the small windows. The messages' queues allocate a block
        // now and then as their receivers' timing goes: 0–3 apart on an
        // idle host, up to 9 beside another test binary; a quarter of the
        // per-window growth stays clear of both.
        let per_window = OPS * ((512 << 10) / (16 << 10) - 1);
        for (b, s, op) in [(big.0, small.0, "write"), (big.1, small.1, "read")] {
            assert!(
                b.abs_diff(s) < per_window / 4,
                "{name} {op}: {b} allocations, {s} in small windows"
            );
        }
    }
}
