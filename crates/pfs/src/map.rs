//! A real file and the one shared mapping through which it lends its bytes.
//!
//! [`MappedFile`] owns the `std::fs::File` of a [`crate::UnixFile`] and,
//! from the first lend on, a `MAP_SHARED` mapping of it: the page cache
//! itself, so a window placed into a lent piece is in the file with no
//! `pwrite` behind it, and a window read out of one took no `pread`. The
//! handle is private to this module because the mapping's soundness hangs
//! on who may change the file's length; four invariants, each held by the
//! outer lock (shared while lending or writing, exclusive to map, unmap or
//! truncate):
//!
//! 1. **The mapping is never longer than the file.** Touching a mapped
//!    page past end-of-file raises `SIGBUS`. This handle shrinks the file
//!    only in [`MappedFile::set_len`], which drops a longer mapping
//!    *before* the `ftruncate`, and a mapping is made at the length an
//!    `fstat` under the exclusive lock returned.
//! 2. **A range past end-of-file is declined, in both directions.** Growth
//!    stays in the staged `pwrite`, so extension and `ENOSPC` keep their
//!    `io::Error`, and lending never makes an `ftruncate` hole whose pages
//!    a full file system could refuse at the first store.
//! 3. **A file that grew through `write_at` is remapped** by the first
//!    request that needs the new bytes. Whether it does is answered from
//!    the mapping's own length: an in-bounds window costs no `fstat`.
//! 4. **No remap while a `pwrite` is in flight.** [`MappedFile::write_all_at`]
//!    holds the outer lock shared for its whole `pwrite`, and a remap needs
//!    it exclusively. An extending `pwrite` shows its new length to `fstat`
//!    before it returns; a mapping made at that length while the write was
//!    still in flight lost the bytes stored through it between the old
//!    end-of-file and the write's start — the file held zeros there, a
//!    lost write of either engine (DESIGN.md §3.2). Lends inside the
//!    current mapping do not wait for writes. No caller may hold the outer
//!    lock across `write_all_at`; none does, as a lender's closure gets
//!    bytes, not the file.
//!
//! What no lock of this process can hold: another process (or another
//! handle on a named file) truncating it under the mapping, and a sparse
//! hole that was there before on a file system that is full — both
//! surface as `SIGBUS` (DESIGN.md §3.2).
//!
//! Pieces are lent as [`crate::MemFile`] lends them: ascending, cut at
//! fixed 256 KiB stripes, each alive only under its stripe's lock, so two
//! lenders never hold overlapping `&mut [u8]`. The positional calls on the
//! same file do not take the stripe locks — they go through the kernel,
//! which copies to and from the same page-cache pages; the linux page
//! cache is unified, so a `pwrite` is visible through the mapping and a
//! store through it to the next `pread`, and where such a call overlaps a
//! lent piece at the same time the bytes are those of one or the other
//! writer, byte by byte: the overlap the [`crate::StorageFile`] contract
//! already leaves to the caller.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::ptr::NonNull;
use std::sync::RwLock;

use crate::file::{pieces, STRIPE};

const POISONED: &str = "a mapping lock is only poisoned by a panic inside a copy";

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! `mmap`/`munmap` as 64-bit unix declares them (`off_t` is `i64`
    //! there); the constants have these values on linux, macOS and the BSDs.
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// `len` bytes of a file, mapped shared and writable, and one lock per
/// [`STRIPE`] of them.
struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
    stripes: Box<[RwLock<()>]>,
}

// SAFETY: `ptr` is not thread-bound — the mapping belongs to the process
// and lives until `drop` — and is dereferenced only in `lend`/`lend_mut`,
// under the stripe lock that makes each `&mut [u8]` exclusive; `len` and
// `stripes` are `Send + Sync` themselves.
unsafe impl Send for Mapping {}
// SAFETY: as above: sharing `&Mapping` shares the locks, never the bytes.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map the first `len` bytes of `file`; `None` when there is nothing
    /// to map or the kernel refuses (the caller then stages).
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn new(file: &File, len: u64) -> Option<Mapping> {
        use std::os::fd::AsRawFd;
        let len = usize::try_from(len).ok().filter(|&n| n > 0)?;
        // SAFETY: a fresh mapping at an address of the kernel's choosing
        // aliases no memory of this process; `file` is open read/write.
        // The caller holds the outer lock exclusively and read `len` from
        // `fstat` under it, so the file is at least `len` long and this
        // handle cannot shrink it while the mapping lives (invariant 1).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return None;
        }
        Some(Mapping {
            ptr: NonNull::new(ptr.cast())?,
            len,
            stripes: (0..len.div_ceil(STRIPE)).map(|_| RwLock::new(())).collect(),
        })
    }

    /// Only 64-bit unix is declared above; elsewhere nothing is lent.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn new(_file: &File, _len: u64) -> Option<Mapping> {
        None
    }

    /// Where the piece `(stripe, inside, n)` of [`pieces`] starts, checked
    /// to lie inside the mapping.
    fn piece(&self, stripe: usize, inside: usize, n: usize) -> *mut u8 {
        let start = stripe * STRIPE + inside;
        assert!(start + n <= self.len, "a lent piece is inside the mapping");
        self.ptr.as_ptr().wrapping_add(start)
    }

    /// Run `f(abs_offset, bytes)` over `[offset, offset + n)`, one stripe
    /// — and its read lock — at a time.
    fn lend(&self, offset: u64, n: usize, f: &mut dyn FnMut(u64, &[u8])) {
        let mut at = offset;
        for (s, inside, n) in pieces(offset, n) {
            let ptr = self.piece(s, inside, n);
            let _stripe = self.stripes[s].read().expect(POISONED);
            // SAFETY: `piece` checked the range against the mapping, which
            // the caller's shared hold on the outer lock keeps mapped and
            // no longer than the file; under this stripe's read lock no
            // `lend_mut` holds a `&mut` to any of these bytes.
            f(at, unsafe { std::slice::from_raw_parts(ptr, n) });
            at += n as u64;
        }
    }

    /// [`Mapping::lend`] for updating, under the stripes' write locks.
    fn lend_mut(&self, offset: u64, n: usize, f: &mut dyn FnMut(u64, &mut [u8])) {
        let mut at = offset;
        for (s, inside, n) in pieces(offset, n) {
            let ptr = self.piece(s, inside, n);
            let _stripe = self.stripes[s].write().expect(POISONED);
            // SAFETY: as in `lend`; this stripe's write lock makes the
            // slice the only reference to these bytes in the process.
            f(at, unsafe { std::slice::from_raw_parts_mut(ptr, n) });
            at += n as u64;
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        // SAFETY: `ptr`/`len` are exactly what `mmap` returned; `&mut self`
        // proves no lender is left (each borrows the mapping through the
        // outer lock's guard), so no slice into these pages survives.
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

/// See the module docs.
pub(crate) struct MappedFile {
    file: File,
    /// The outer lock: shared while lending, exclusive to map, unmap and
    /// change the length.
    map: RwLock<Option<Mapping>>,
}

impl MappedFile {
    pub fn new(file: File) -> MappedFile {
        MappedFile {
            file,
            map: RwLock::new(None),
        }
    }

    /// `pread`: one attempt, possibly short.
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.file.read_at(buf, offset)
    }

    /// `pwrite` until all of `buf` is written; extends the file. Under the
    /// outer lock, shared: no remap while it runs (invariant 4).
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let _no_remap = self.map.read().expect(POISONED);
        self.file.write_all_at(buf, offset)
    }

    /// The file's length by `fstat`.
    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// `fdatasync`. It covers stores through the mapping too: they dirty
    /// the same page-cache pages a `pwrite` does, so no `msync` is issued.
    pub fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// `ftruncate`, after dropping a mapping the new length would leave
    /// reaching past end-of-file (invariant 1); the lock is held across
    /// both so nobody maps the old length in between.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        let mut map = self.map.write().expect(POISONED);
        if map.as_ref().is_some_and(|m| len < m.len as u64) {
            *map = None;
        }
        self.file.set_len(len)
    }

    /// Run `lend(mapping, lo, hi - lo)` on a mapping that covers `[0, hi)`,
    /// the outer lock held shared, and answer `true` — or `false`: `hi` is
    /// past end-of-file, or the file cannot be mapped. An empty range is
    /// `true` without a call.
    fn on_mapping(
        &self,
        lo: u64,
        hi: u64,
        lend: impl FnOnce(&Mapping, u64, usize),
    ) -> io::Result<bool> {
        if hi <= lo {
            return Ok(true);
        }
        loop {
            {
                let map = self.map.read().expect(POISONED);
                if let Some(mapping) = map.as_ref().filter(|m| hi <= m.len as u64) {
                    lend(mapping, lo, (hi - lo) as usize);
                    return Ok(true);
                }
            }
            // the mapping is missing or short: only now ask the file, and
            // decline (invariant 2) without disturbing the other lenders
            if hi > self.len()? {
                return Ok(false);
            }
            let mut map = self.map.write().expect(POISONED);
            // under the exclusive lock the length cannot shrink (invariant
            // 1); another requester may have remapped in the meantime
            let len = self.len()?;
            if map.as_ref().map_or(0, |m| m.len as u64) < len {
                *map = None; // unmap before mapping again
                *map = Mapping::new(&self.file, len);
                if map.is_none() {
                    return Ok(false);
                }
            }
            // lend under the shared lock: go round (a `set_len` may cut in
            // between, then the file is asked again)
        }
    }

    /// [`crate::StorageFile::with_range`] on the mapping.
    pub fn lend(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        self.on_mapping(lo, hi, |m, lo, n| m.lend(lo, n, f))
    }

    /// [`crate::StorageFile::with_range_mut`] on the mapping; unlike
    /// [`crate::MemFile`] it does not grow the file (invariant 2).
    pub fn lend_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        self.on_mapping(lo, hi, |m, lo, n| m.lend_mut(lo, n, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unlinked real file of `len` bytes.
    fn temp(len: usize) -> MappedFile {
        let dir = crate::os_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("lio-map-{}-{len}.bin", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        file.write_all_at(&vec![7u8; len], 0).unwrap();
        MappedFile::new(file)
    }

    /// How many bytes are mapped right now.
    fn mapped(f: &MappedFile) -> Option<usize> {
        f.map.read().unwrap().as_ref().map(|m| m.len)
    }

    #[test]
    fn the_mapping_is_made_by_the_first_lend_and_never_outgrows_the_file() {
        let f = temp(STRIPE + 10);
        let mut buf = [0u8; 4];
        f.read_at(&mut buf, 0).unwrap();
        f.write_all_at(&buf, 4).unwrap();
        assert_eq!(mapped(&f), None, "positional calls map nothing");
        // past EOF: declined, and still nothing mapped
        assert!(!f.lend(0, STRIPE as u64 + 11, &mut |_, _| {}).unwrap());
        assert!(!f
            .lend_mut(STRIPE as u64, STRIPE as u64 + 11, &mut |_, _| {})
            .unwrap());
        assert_eq!(mapped(&f), None);
        assert!(f
            .lend(STRIPE as u64, STRIPE as u64 + 10, &mut |_, _| {})
            .unwrap());
        assert_eq!(mapped(&f), Some(STRIPE + 10), "the whole file, once");

        // growth: the mapping stays as it is while requests fit into it,
        // and is replaced by the first one that needs the new bytes
        f.write_all_at(&[1u8; 100], STRIPE as u64 + 10).unwrap();
        assert!(f.lend_mut(0, 64, &mut |_, p| p.fill(2)).unwrap());
        assert_eq!(mapped(&f), Some(STRIPE + 10));
        assert!(!f.lend(0, STRIPE as u64 + 111, &mut |_, _| {}).unwrap());
        assert_eq!(mapped(&f), Some(STRIPE + 10), "a decline remaps nothing");
        assert!(f.lend(0, STRIPE as u64 + 110, &mut |_, _| {}).unwrap());
        assert_eq!(mapped(&f), Some(STRIPE + 110));

        // set_len: growing leaves the mapping, cutting into it drops it
        f.set_len(2 * STRIPE as u64).unwrap();
        assert_eq!(mapped(&f), Some(STRIPE + 110));
        f.set_len(STRIPE as u64 + 110).unwrap();
        assert_eq!(mapped(&f), Some(STRIPE + 110), "cut exactly at its end");
        f.set_len(STRIPE as u64).unwrap();
        assert_eq!(mapped(&f), None, "dropped before the ftruncate");
        assert!(!f.lend(0, STRIPE as u64 + 1, &mut |_, _| {}).unwrap());
        let mut seen = 0;
        assert!(f
            .lend(0, STRIPE as u64, &mut |_, p| seen += p.len())
            .unwrap());
        assert_eq!((seen, mapped(&f)), (STRIPE, Some(STRIPE)));
    }

    /// Invariant 4: a `pwrite` does not run while the outer lock is held
    /// exclusively, as a remap holds it, and runs once it is released.
    #[test]
    fn a_write_waits_for_a_remap() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let f = temp(96);
        let written = AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let remap = f.map.write().unwrap();
            let writer = s.spawn(|| {
                started.wait();
                f.write_all_at(&[3u8; 32], 96).unwrap();
                written.store(true, Ordering::SeqCst);
            });
            // the writer is at its call; give it time to go past the lock
            started.wait();
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!written.load(Ordering::SeqCst), "a write ran under a remap");
            drop(remap);
            writer.join().unwrap();
        });
        assert!(written.load(Ordering::SeqCst));
        assert_eq!(f.len().unwrap(), 128);
    }

    #[test]
    fn an_empty_file_maps_nothing_and_lends_only_the_empty_range() {
        let f = temp(0);
        assert!(f.lend(0, 0, &mut |_, _| unreachable!()).unwrap());
        assert!(f.lend_mut(9, 9, &mut |_, _| unreachable!()).unwrap());
        assert!(!f.lend_mut(0, 1, &mut |_, _| unreachable!()).unwrap());
        assert_eq!(mapped(&f), None);
        assert_eq!(f.len().unwrap(), 0);
    }
}
