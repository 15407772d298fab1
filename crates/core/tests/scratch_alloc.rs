//! The scratch arena's promise, counted: once an access pattern has run
//! twice, repeating it allocates no large block — every window and staging
//! buffer comes out of the rank's arena.
//!
//! Its own test binary, so the process-wide counting allocator sees these
//! operations only; the tests take turns at it ([`TURN`]).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use common::{figure4_filetype, pattern, slow_staged, staged};
use lio_core::{Engine, File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::{Comm, World};
use lio_pfs::MemFile;

/// Allocations of at least this many bytes count.
const LARGE: usize = 64 * 1024;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Held by the test whose operations the counter is to see.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Counting;

fn note(size: usize) {
    if size >= LARGE && ARMED.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and the counter touches no
// allocation. `alloc_zeroed` and `realloc` keep the trait's defaults,
// which go through `alloc` and are counted there.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NBLOCK: u64 = 64;
const SBLOCK: u64 = 4096;
/// Bytes per rank and operation: 256 KiB, in 128 KiB collective windows
/// that hold 64 KiB of each rank.
const BYTES: u64 = NBLOCK * SBLOCK;

/// Run `op` twice to warm the arena, then once more with the counter
/// armed on every rank at once; returns the large allocations of the
/// armed run (whole process: both ranks and any storage lane).
fn large_allocs_in_third(comm: &Comm, mut op: impl FnMut()) -> usize {
    op();
    op();
    large_allocs_in(comm, op)
}

/// The large allocations of one `op`, counter armed on every rank at once.
fn large_allocs_in(comm: &Comm, mut op: impl FnMut()) -> usize {
    comm.barrier();
    if comm.rank() == 0 {
        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
    }
    comm.barrier();
    op();
    comm.barrier();
    let n = LARGE_ALLOCS.load(Ordering::Relaxed);
    comm.barrier();
    if comm.rank() == 0 {
        ARMED.store(false, Ordering::Relaxed);
    }
    comm.barrier();
    n
}

/// The large blocks the first collective write — or, `read`, the first
/// collective read — on a fresh file takes: nothing is recycled yet, so
/// every buffer of the op is an allocation. The user buffer is half-dense
/// (`strided`) or the stream itself.
fn large_allocs_of_cold_op(shared: SharedFile, hints: Hints, strided: bool, read: bool) -> usize {
    World::run(2, |comm| {
        let me = comm.rank() as u64;
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
            .unwrap();
        let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
        let (memtype, count) = if strided {
            (Datatype::vector(NBLOCK, 1, 2, &block).unwrap(), 1)
        } else {
            (Datatype::byte(), BYTES)
        };
        let mut data = pattern(memtype.extent() as usize * count as usize, me + 1);
        large_allocs_in(comm, || {
            if read {
                f.read_at_all(0, &mut data, count, &memtype).unwrap();
            } else {
                f.write_at_all(0, &data, count, &memtype).unwrap();
            }
        })
    })[0]
}

/// What the first collective write and read allocate, in words. No data
/// travels in a message, so no message buffer is large. List-based, each
/// rank takes one staging buffer — the half of its data that changes ranks
/// is packed into it, or unpacked from it, and it is lent in place of the
/// user buffer; listless, none at all — every rank lends its user buffer,
/// whole to be read or in pieces to be written, and each IOP moves every
/// AP's bytes there. Either way the own half goes between the user buffer and the
/// windows in one copy, strided user buffer or not; storage that lends its
/// bytes needs no window buffer, a staging IOP takes its 128 KiB window on
/// top — and, once slow storage has armed a write's write-behind lane, a
/// second one and never a third.
#[test]
fn an_in_place_collective_takes_only_message_buffers() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for engine in [Hints::list_based(), Hints::listless()] {
        let hints = engine.cb_buffer(128 * 1024);
        let staging = match hints.engine {
            Engine::ListBased => 2,
            Engine::Listless => 0,
        };
        // (a file of the final size: growing it allocates stripes)
        let file = || MemFile::with_data(vec![0; 2 * BYTES as usize]);
        for strided in [false, true] {
            for read in [false, true] {
                let what = format!("{:?}, strided={strided}, read={read}", hints.engine);
                let cold = |shared, hints| large_allocs_of_cold_op(shared, hints, strided, read);
                let lent = cold(SharedFile::new(file()), hints);
                assert_eq!(
                    lent, staging,
                    "{what}: the staging buffers, nothing for the own share"
                );
                let staged = cold(SharedFile::new(staged(file())), hints);
                assert_eq!(staged, staging + 2, "{what}: and a window per IOP");
                // four 64 KiB windows per IOP: the first write is inline and
                // arms the lane, the other three alternate between two
                // buffers; a read has no lane
                let (slow, _) = slow_staged(vec![0; 2 * BYTES as usize]);
                let windows = if read { 2 } else { 4 };
                assert_eq!(
                    cold(slow, hints.cb_buffer(LARGE)),
                    staging + windows,
                    "{what}: and two windows per armed lane"
                );
            }
        }
    }
}

/// A sieved operation moves every byte straight between the user buffer —
/// half-dense here — and the window: on storage that lends its bytes the
/// first write and the first read on a fresh `File` take no large block at
/// all, on staging storage one window buffer per rank (256 KiB of blocks
/// and gaps, in one 512 KiB sieve window) and no pack buffer beside it.
#[test]
fn an_in_place_sieved_op_takes_no_buffer() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for hints in [Hints::list_based(), Hints::listless()] {
        let file = || MemFile::with_data(vec![0; 2 * BYTES as usize]);
        let lent = SharedFile::new(file());
        let staged = SharedFile::new(staged(file()));
        for (shared, windows) in [(lent, 0), (staged, 2)] {
            World::run(2, |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
                    .unwrap();
                let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
                let memtype = Datatype::vector(NBLOCK, 1, 2, &block).unwrap();
                let data = pattern(memtype.extent() as usize, me + 1);
                let mut back = vec![0u8; data.len()];
                let what = format!("{:?}, {windows} windows", hints.engine);
                let n = large_allocs_in(comm, || {
                    f.write_at(0, &data, 1, &memtype).unwrap();
                });
                assert_eq!(n, windows, "write_at, {what}");
                // (a fresh arena again: the write's window went back to it)
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
                    .unwrap();
                let n = large_allocs_in(comm, || {
                    f.read_at(0, &mut back, 1, &memtype).unwrap();
                });
                assert_eq!(n, windows, "read_at, {what}");
            });
        }
    }
}

#[test]
fn steady_state_operations_allocate_no_large_block() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for engine in [Hints::list_based(), Hints::listless()] {
        // lending storage, and slow staging storage whose collective writes
        // run their write-behind lanes (four windows per IOP): the lane's
        // buffers come home to the arena too
        for (slow, shared) in [
            (false, SharedFile::new(MemFile::new())),
            (true, slow_staged(Vec::new()).0),
        ] {
            let hints = engine.cb_buffer(LARGE);
            World::run(2, |comm| {
                let me = comm.rank() as u64;
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), figure4_filetype(me, 2, NBLOCK, SBLOCK))
                    .unwrap();
                // half-dense memory: what changes ranks goes through a
                // staging buffer, list-based
                let block = Datatype::contiguous(SBLOCK, &Datatype::byte()).unwrap();
                let memtype = Datatype::vector(NBLOCK, 1, 2, &block).unwrap();
                let data = pattern(2 * BYTES as usize, me + 1);
                let mut back = vec![0u8; data.len()];
                let what = |op: &str| format!("{op}, {:?}, slow={slow}", hints.engine);

                let n = large_allocs_in_third(comm, || {
                    f.write_at_all(0, &data, 1, &memtype).unwrap();
                });
                assert_eq!(n, 0, "{}", what("write_at_all"));
                let n = large_allocs_in_third(comm, || {
                    f.read_at_all(0, &mut back, 1, &memtype).unwrap();
                });
                assert_eq!(n, 0, "{}", what("read_at_all"));
                let n = large_allocs_in_third(comm, || {
                    f.write_at(0, &data, 1, &memtype).unwrap();
                });
                assert_eq!(n, 0, "{}", what("write_at"));
                let n = large_allocs_in_third(comm, || {
                    f.read_at(0, &mut back, 1, &memtype).unwrap();
                });
                assert_eq!(n, 0, "{}", what("read_at"));
            });
        }
    }
}
