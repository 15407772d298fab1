//! The storage-file abstraction and its in-memory and on-disk backends.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::map::MappedFile;

/// A byte-addressable storage file supporting positional I/O — the
/// substrate beneath the MPI-IO layer, standing in for the SX local file
/// system of the paper's testbed.
///
/// Semantics follow POSIX `pread`/`pwrite`:
/// * `read_at` returns the number of bytes read, which is short only when
///   the read extends past end-of-file;
/// * `write_at` extends the file as needed and returns the bytes written;
/// * both may be called concurrently from many threads (interior
///   synchronization is the implementation's responsibility).
///
/// Concurrency contract: a call is **not** atomic as a whole. A backend
/// may serve it in pieces ([`MemFile`]: one 256 KiB stripe at a time), and
/// only each piece is atomic. Concurrent calls on disjoint ranges do not
/// disturb each other; where concurrent writes overlap, every byte ends up
/// holding what *one* of the writers put there, but different bytes may
/// come from different writers, and a read that overlaps a concurrent
/// write may see part of it. Callers that need more serialize themselves
/// ([`crate::RangeLock`]); see DESIGN.md for why `lio-core` never needs to.
pub trait StorageFile: Send + Sync {
    /// Read into `buf` starting at byte `offset`; returns bytes read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Write `buf` starting at byte `offset`, extending the file if
    /// needed; returns bytes written.
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize>;

    /// Current file length in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Truncate or extend (zero-filled) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Flush any caches to stable storage.
    fn sync(&self) -> io::Result<()>;

    /// Always `None`: [`SubmissionQueue`] has no values. The method exists
    /// only because the benchmark package (`benchmark/`, which a library
    /// change may not edit) overrides it in its storage decorator.
    fn submission(&self) -> Option<&SubmissionQueue> {
        None
    }

    /// Lend the file's own bytes of `[lo, hi)` for updating: run
    /// `f(abs_offset, bytes)` over them in ascending contiguous pieces
    /// (together exactly the range) and return `Ok(true)` — or do nothing
    /// and return `Ok(false)`, the default: this storage has no bytes to
    /// lend, the caller stages the range in a buffer of its own and goes
    /// through `read_at`/`write_at`. A range past end-of-file is either
    /// lent after extending the file to `hi` as `write_at` would
    /// ([`MemFile`]) or declined, so that growth — and its errors — stay in
    /// `write_at` ([`UnixFile`]); an empty range is `Ok(true)` with no call.
    ///
    /// A piece is lent under whatever lock makes one `write_at` piece
    /// atomic ([`MemFile`]: one stripe's), so the concurrency contract
    /// above holds unchanged, `f` must not call back into the storage,
    /// and a panic in `f` poisons the file like a panic inside a copy.
    /// Bytes `f` leaves alone keep their value: an update in place needs
    /// no read-modify-write. Decorators deliberately do *not* forward
    /// this (see [`crate::decorate`]): what they count, delay, fail or
    /// record is the request, and lent bytes are not one.
    fn with_range_mut(
        &self,
        _lo: u64,
        _hi: u64,
        _f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        Ok(false)
    }

    /// The read-only twin of [`StorageFile::with_range_mut`]. Also
    /// answers `false` when `hi` is past end-of-file, so that zero-filling
    /// a short read stays in one place: the caller's staged path.
    fn with_range(&self, _lo: u64, _hi: u64, _f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        Ok(false)
    }
}

/// An uninhabited type, so [`StorageFile::submission`] can only answer
/// `None`. It exists only because the benchmark package (`benchmark/`,
/// which a library change may not edit) names it.
pub enum SubmissionQueue {}

impl<F: StorageFile + ?Sized> StorageFile for Arc<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        (**self).write_at(offset, buf)
    }
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        (**self).set_len(len)
    }
    fn sync(&self) -> io::Result<()> {
        (**self).sync()
    }
    fn with_range_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        (**self).with_range_mut(lo, hi, f)
    }
    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        (**self).with_range(lo, hi, f)
    }
}

/// Bytes per stripe of a [`MemFile`] and of a [`UnixFile`]'s mapping: the
/// unit of locking, and so of the atomicity the [`StorageFile`] contract
/// promises. Large enough that a window-sized transfer takes a handful of
/// locks, small enough that two IOP file domains or two staggered sieve
/// windows rarely meet in one.
pub(crate) const STRIPE: usize = 256 * 1024;

const POISONED: &str = "a MemFile lock is only poisoned by a panic inside a copy";

/// A growable, thread-safe in-memory file.
///
/// `MemFile` plays the role of a *fast* parallel file system: its transfer
/// rate is the machine's memcpy bandwidth, which is exactly the regime the
/// paper identifies as the one where listless I/O matters most ("the
/// higher the bandwidth of the used file system in relation to the
/// bandwidth of the memory system..., the more important listless I/O
/// is"). Use [`crate::ThrottledFile`] to emulate slower storage.
///
/// It is *parallel* the way such a file system is: the bytes live in
/// fixed-size stripes, each behind its own lock, so transfers to disjoint
/// stripes — two IOPs writing their file domains — run at the same time.
/// The outer lock is taken exclusively only to change the length (a write
/// past EOF, [`StorageFile::set_len`]); an in-bounds transfer holds it
/// shared and takes one stripe lock at a time, in ascending order.
#[derive(Default)]
pub struct MemFile {
    inner: RwLock<Stripes>,
}

/// `len` bytes in `len.div_ceil(STRIPE)` full-size stripes. The bytes of
/// the last stripe past `len` are zero, so growing into them needs no fill.
#[derive(Default)]
struct Stripes {
    len: u64,
    stripes: Vec<RwLock<Box<[u8]>>>,
}

fn zeroed_stripe() -> RwLock<Box<[u8]>> {
    RwLock::new(vec![0u8; STRIPE].into_boxed_slice())
}

/// The stripes under `[offset, offset + n)`, in ascending order, as
/// `(stripe index, first byte inside it, byte count)`.
pub(crate) fn pieces(offset: u64, n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut at = offset;
    let end = offset + n as u64;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let inside = (at % STRIPE as u64) as usize;
            let take = (STRIPE - inside).min((end - at) as usize);
            let piece = ((at / STRIPE as u64) as usize, inside, take);
            at += take as u64;
            piece
        })
    })
}

impl Stripes {
    /// Extend to `len` bytes; the new bytes read as zeros.
    fn grow(&mut self, len: u64) {
        let need = len.div_ceil(STRIPE as u64) as usize;
        self.stripes.resize_with(need, zeroed_stripe);
        self.len = len;
    }

    /// Cut down to `len` bytes, restoring the zero tail of the last stripe.
    fn shrink(&mut self, len: u64) {
        let need = len.div_ceil(STRIPE as u64) as usize;
        self.stripes.truncate(need);
        let inside = (len % STRIPE as u64) as usize;
        if inside > 0 {
            let last = self.stripes[need - 1].get_mut().expect(POISONED);
            let dirty = (self.len - (len - inside as u64)).min(STRIPE as u64) as usize;
            last[inside..dirty].fill(0);
        }
        self.len = len;
    }

    /// Run `f(abs_offset, bytes)` over the (existing) bytes of
    /// `[offset, offset + n)`, one stripe — and its read lock — at a time.
    fn lend(&self, offset: u64, n: usize, f: &mut dyn FnMut(u64, &[u8])) {
        let mut at = offset;
        for (s, inside, n) in pieces(offset, n) {
            let stripe = self.stripes[s].read().expect(POISONED);
            f(at, &stripe[inside..inside + n]);
            at += n as u64;
        }
    }

    /// [`Stripes::lend`] for updating, under the stripes' write locks.
    fn lend_mut(&self, offset: u64, n: usize, f: &mut dyn FnMut(u64, &mut [u8])) {
        let mut at = offset;
        for (s, inside, n) in pieces(offset, n) {
            let mut stripe = self.stripes[s].write().expect(POISONED);
            f(at, &mut stripe[inside..inside + n]);
            at += n as u64;
        }
    }

    /// Fill `buf` with the (existing) bytes from `offset` on.
    fn load(&self, offset: u64, buf: &mut [u8]) {
        self.lend(offset, buf.len(), &mut |at, piece| {
            let o = (at - offset) as usize;
            buf[o..o + piece.len()].copy_from_slice(piece);
        });
    }

    /// Copy `buf` over the (existing) bytes from `offset` on.
    fn store(&self, offset: u64, buf: &[u8]) {
        self.lend_mut(offset, buf.len(), &mut |at, piece| {
            let o = (at - offset) as usize;
            piece.copy_from_slice(&buf[o..o + piece.len()]);
        });
    }
}

impl MemFile {
    /// An empty in-memory file.
    pub fn new() -> MemFile {
        MemFile::default()
    }

    /// An in-memory file prefilled with `data`.
    pub fn with_data(data: Vec<u8>) -> MemFile {
        let mut inner = Stripes::default();
        inner.grow(data.len() as u64);
        inner.store(0, &data);
        MemFile {
            inner: RwLock::new(inner),
        }
    }

    /// An empty file with room reserved for `cap` bytes' worth of stripes
    /// (avoids reallocating the stripe table in benchmarks). The stripes
    /// themselves are allocated, zeroed, by the writes that first reach
    /// them.
    pub fn with_capacity(cap: usize) -> MemFile {
        MemFile {
            inner: RwLock::new(Stripes {
                len: 0,
                stripes: Vec::with_capacity(cap.div_ceil(STRIPE)),
            }),
        }
    }

    /// Snapshot the entire contents (test helper).
    pub fn snapshot(&self) -> Vec<u8> {
        let inner = self.inner.read().expect(POISONED);
        let mut out = vec![0u8; inner.len as usize];
        inner.load(0, &mut out);
        out
    }
}

impl StorageFile for MemFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let inner = self.inner.read().expect(POISONED);
        if offset >= inner.len {
            return Ok(0);
        }
        let n = buf.len().min((inner.len - offset) as usize);
        inner.load(offset, &mut buf[..n]);
        Ok(n)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or(io::ErrorKind::InvalidInput)?;
        {
            let inner = self.inner.read().expect(POISONED);
            if end <= inner.len {
                inner.store(offset, buf);
                return Ok(buf.len());
            }
        }
        let mut inner = self.inner.write().expect(POISONED);
        // another writer may have grown the file between the two locks
        if end > inner.len {
            inner.grow(end);
        }
        inner.store(offset, buf);
        Ok(buf.len())
    }

    fn len(&self) -> u64 {
        self.inner.read().expect(POISONED).len
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut inner = self.inner.write().expect(POISONED);
        if len >= inner.len {
            inner.grow(len);
        } else {
            inner.shrink(len);
        }
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn with_range_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        if hi <= lo {
            return Ok(true);
        }
        loop {
            let inner = self.inner.read().expect(POISONED);
            if hi <= inner.len {
                inner.lend_mut(lo, (hi - lo) as usize, f);
                return Ok(true);
            }
            drop(inner);
            // grow exclusively, lend shared: `f` must not run under the
            // outer write lock, and a `set_len` may cut the file again
            // between the two locks — hence the loop
            let mut inner = self.inner.write().expect(POISONED);
            if hi > inner.len {
                inner.grow(hi);
            }
        }
    }

    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        let inner = self.inner.read().expect(POISONED);
        if hi > inner.len {
            return Ok(false);
        }
        if lo < hi {
            inner.lend(lo, (hi - lo) as usize, f);
        }
        Ok(true)
    }
}

/// The directory for the backing files of [`UnixFile::temp`]:
/// `LIO_OS_DIR` if set (CI points it at tmpfs and at a real disk), the
/// system temp directory otherwise.
pub fn os_dir() -> PathBuf {
    std::env::var_os("LIO_OS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A [`StorageFile`] backed by a real file — the real-storage backend
/// (`BackendKind::Os` in `lio-core`), and durable output for examples.
///
/// Staged requests are plain `pread`/`pwrite` calls (no `O_DIRECT`, so no
/// alignment rule). It lends its bytes through one shared mapping of the
/// file, made by the first lend (`map.rs`): in-bounds ranges only — a
/// range past end-of-file is declined by both methods, so the file grows
/// through `write_at` alone and a full disk stays an `io::Error`.
pub struct UnixFile {
    file: MappedFile,
}

impl UnixFile {
    /// An anonymous file in [`os_dir`]: the path is unlinked right after
    /// opening, so the storage disappears with the handle, panics included.
    pub fn temp() -> io::Result<UnixFile> {
        let dir = os_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "lio-os-{}-{}.bin",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let f = UnixFile::create(&path)?;
        std::fs::remove_file(&path)?;
        Ok(f)
    }

    /// Create (or truncate) a file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<UnixFile> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(UnixFile {
            file: MappedFile::new(file),
        })
    }

    /// Open an existing file at `path` for read/write.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<UnixFile> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        Ok(UnixFile {
            file: MappedFile::new(file),
        })
    }
}

impl StorageFile for UnixFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        // loop over partial reads so callers see POSIX-short reads only at EOF
        let mut total = 0;
        while total < buf.len() {
            match self.file.read_at(&mut buf[total..], offset + total as u64) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        self.file.write_all_at(buf, offset)?;
        Ok(buf.len())
    }

    /// The length by `fstat`; 0 if that fails (the signature has no room
    /// for the error). Nothing that decides on the length relies on this:
    /// the lending methods and `read_at` make their own call and return
    /// its `io::Error`.
    fn len(&self) -> u64 {
        self.file.len().unwrap_or(0)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn with_range_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        self.file.lend_mut(lo, hi, f)
    }

    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        self.file.lend(lo, hi, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfile_read_write() {
        let f = MemFile::new();
        assert_eq!(f.write_at(0, b"hello").unwrap(), 5);
        let mut buf = [0u8; 5];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn memfile_sparse_write_zero_fills() {
        let f = MemFile::new();
        f.write_at(10, b"xy").unwrap();
        assert_eq!(f.len(), 12);
        let mut buf = [9u8; 12];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 12);
        assert_eq!(&buf[..10], &[0u8; 10]);
        assert_eq!(&buf[10..], b"xy");
    }

    #[test]
    fn memfile_short_read_at_eof() {
        let f = MemFile::with_data(vec![1, 2, 3]);
        let mut buf = [0u8; 8];
        assert_eq!(f.read_at(1, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[2, 3]);
        assert_eq!(f.read_at(3, &mut buf).unwrap(), 0);
        assert_eq!(f.read_at(100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn memfile_set_len() {
        let f = MemFile::with_data(vec![7; 8]);
        f.set_len(4).unwrap();
        assert_eq!(f.len(), 4);
        f.set_len(6).unwrap();
        let mut buf = [0u8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, &[7, 7, 7, 7, 0, 0]);
    }

    #[test]
    fn memfile_concurrent_disjoint_writes() {
        let f = Arc::new(MemFile::new());
        f.set_len(8 * 64).unwrap();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let f = Arc::clone(&f);
                s.spawn(move || {
                    let buf = vec![t as u8 + 1; 64];
                    f.write_at(t as u64 * 64, &buf).unwrap();
                });
            }
        });
        let snap = f.snapshot();
        for t in 0..8usize {
            assert!(snap[t * 64..(t + 1) * 64].iter().all(|&b| b == t as u8 + 1));
        }
    }

    /// A deterministic pseudorandom stream (xorshift64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| (self.next() >> 32) as u8).collect()
        }
    }

    /// Offsets one below, at and one above the `k`-th stripe boundary.
    fn around(k: usize) -> [u64; 3] {
        let b = (k * STRIPE) as u64;
        [b - 1, b, b + 1]
    }

    #[test]
    fn memfile_roundtrip_across_stripes() {
        // every start × end around a boundary, spanning 0, 1 and 3 of them
        let mut rng = Rng(0x5EED);
        let image = rng.bytes(5 * STRIPE + 7);
        for span in [0usize, 1, 3] {
            for start in around(1) {
                for end in around(1 + span) {
                    if end <= start {
                        continue;
                    }
                    let f = MemFile::with_data(image.clone());
                    let data = rng.bytes((end - start) as usize);
                    assert_eq!(f.write_at(start, &data).unwrap(), data.len());
                    let mut want = image.clone();
                    want[start as usize..end as usize].copy_from_slice(&data);
                    assert_eq!(f.snapshot(), want, "write [{start}, {end})");
                    let mut back = vec![0u8; data.len()];
                    assert_eq!(f.read_at(start, &mut back).unwrap(), back.len());
                    assert_eq!(back, data, "read [{start}, {end})");
                }
            }
        }
    }

    #[test]
    fn memfile_unaligned_reads_and_writes() {
        // growth that starts and ends around a boundary, and short reads
        // that hit EOF around one
        for end in around(2) {
            for start in around(1) {
                let f = MemFile::new();
                let data = vec![0xC3u8; (end - start) as usize];
                f.write_at(start, &data).unwrap();
                assert_eq!(f.len(), end);
                let mut all = vec![9u8; end as usize + 5];
                assert_eq!(f.read_at(0, &mut all).unwrap(), end as usize);
                assert!(all[..start as usize].iter().all(|&b| b == 0));
                assert!(all[start as usize..end as usize].iter().all(|&b| b == 0xC3));
                assert_eq!(&all[end as usize..], &[9u8; 5], "read past EOF");
                assert_eq!(f.read_at(end, &mut all).unwrap(), 0);
            }
        }
    }

    #[test]
    fn memfile_large_unaligned_transfer() {
        let mut rng = Rng(77);
        let data = rng.bytes(3 * STRIPE + 12345);
        let f = MemFile::new();
        f.write_at(STRIPE as u64 - 100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(
            f.read_at(STRIPE as u64 - 100, &mut back).unwrap(),
            back.len()
        );
        assert_eq!(back, data);
    }

    #[test]
    fn memfile_set_len_across_stripes() {
        // shrink to around a boundary, regrow past the next one: the bytes
        // cut off read back as zeros, the bytes kept are untouched
        for keep in around(1) {
            let f = MemFile::with_data(vec![7u8; 2 * STRIPE + 500]);
            f.set_len(keep).unwrap();
            assert_eq!(f.len(), keep);
            f.set_len(2 * STRIPE as u64 + 100).unwrap();
            let snap = f.snapshot();
            assert_eq!(snap.len(), 2 * STRIPE + 100);
            assert!(snap[..keep as usize].iter().all(|&b| b == 7));
            assert!(snap[keep as usize..].iter().all(|&b| b == 0), "keep {keep}");
            // regrowing by a write leaves the gap zero as well
            f.set_len(keep).unwrap();
            f.write_at(2 * STRIPE as u64, b"tail").unwrap();
            let snap = f.snapshot();
            assert!(snap[keep as usize..2 * STRIPE].iter().all(|&b| b == 0));
            assert_eq!(&snap[2 * STRIPE..], b"tail");
        }
    }

    #[test]
    fn memfile_with_capacity_sparse_write_zero_fills() {
        let f = MemFile::with_capacity(4 * STRIPE);
        assert_eq!(f.len(), 0);
        f.write_at(2 * STRIPE as u64 + 3, b"xy").unwrap();
        let snap = f.snapshot();
        assert_eq!(snap.len(), 2 * STRIPE + 5);
        assert!(snap[..2 * STRIPE + 3].iter().all(|&b| b == 0));
        assert_eq!(&snap[2 * STRIPE + 3..], b"xy");
    }

    #[test]
    fn memfile_concurrent_disjoint_stripe_writes() {
        // Two in-bounds writers own the alternating CHUNK-byte pieces of
        // the first BASE bytes (CHUNK does not divide STRIPE, so pieces
        // straddle boundaries) and check their own pieces as they go; a
        // growing writer appends behind BASE and, between its two phases,
        // a fourth thread cuts the file back. Barriers fix the order of
        // the three length changes; everything else commutes, so a plain
        // Vec<u8> taking the operations in that order is the model.
        const CHUNK: usize = 100_000;
        const BASE: usize = 12 * CHUNK;
        const OPS: usize = 300;
        let cut = (BASE + STRIPE + 17) as u64;
        let f = MemFile::with_data(vec![0x11; BASE]);
        let before_cut = std::sync::Barrier::new(2);
        let after_cut = std::sync::Barrier::new(2);

        let in_bounds = |who: usize| {
            let f = &f;
            move || {
                let mut rng = Rng(0xABCD + who as u64);
                let mut mine = vec![0x11u8; BASE];
                for _ in 0..OPS {
                    let piece = 2 * rng.below(BASE as u64 / (2 * CHUNK as u64)) as usize + who;
                    let a = rng.below(CHUNK as u64) as usize;
                    let n = 1 + rng.below((CHUNK - a) as u64) as usize;
                    let at = piece * CHUNK + a;
                    if rng.below(3) == 0 {
                        let mut got = vec![0u8; n];
                        assert_eq!(f.read_at(at as u64, &mut got).unwrap(), n);
                        assert_eq!(got, &mine[at..at + n], "writer {who} read foreign bytes");
                    } else {
                        let data = rng.bytes(n);
                        f.write_at(at as u64, &data).unwrap();
                        mine[at..at + n].copy_from_slice(&data);
                    }
                }
                mine
            }
        };
        let appends = |rng: &mut Rng, model: &mut Vec<u8>| {
            for _ in 0..OPS / 10 {
                // sometimes leave a hole behind the current end
                let at = model.len() + rng.below(2) as usize * rng.below(3000) as usize;
                let n = 1 + rng.below(STRIPE as u64 / 2) as usize;
                let data = rng.bytes(n);
                f.write_at(at as u64, &data).unwrap();
                model.resize(at, 0);
                model.extend_from_slice(&data);
            }
        };

        let (even, odd, tail) = std::thread::scope(|s| {
            let even = s.spawn(in_bounds(0));
            let odd = s.spawn(in_bounds(1));
            let grower = s.spawn(|| {
                let mut rng = Rng(0x6A0);
                let mut model = vec![0u8; BASE];
                appends(&mut rng, &mut model);
                before_cut.wait();
                after_cut.wait();
                assert!(model.len() as u64 > cut, "the cut must shrink the file");
                model.truncate(cut as usize);
                appends(&mut rng, &mut model);
                model
            });
            s.spawn(|| {
                before_cut.wait();
                f.set_len(cut).unwrap();
                after_cut.wait();
            });
            (
                even.join().unwrap(),
                odd.join().unwrap(),
                grower.join().unwrap(),
            )
        });

        let mut want = tail;
        for piece in 0..BASE / CHUNK {
            let owner = if piece % 2 == 0 { &even } else { &odd };
            let r = piece * CHUNK..(piece + 1) * CHUNK;
            want[r.clone()].copy_from_slice(&owner[r]);
        }
        assert_eq!(f.len(), want.len() as u64);
        assert!(f.snapshot() == want, "file differs from the model");
    }

    /// Whether `f` lends `[lo, hi)` for reading, running `on` over the pieces.
    fn lent(f: &dyn StorageFile, lo: u64, hi: u64, on: &mut dyn FnMut(u64, &[u8])) -> bool {
        f.with_range(lo, hi, on).unwrap()
    }

    /// The pieces `with_range_mut` lends for `[lo, hi)`, as `(offset, len)`.
    fn lent_mut(f: &dyn StorageFile, lo: u64, hi: u64) -> Option<Vec<(u64, usize)>> {
        let mut got = Vec::new();
        f.with_range_mut(lo, hi, &mut |at, piece| got.push((at, piece.len())))
            .unwrap()
            .then_some(got)
    }

    /// An unlinked real file holding `data`.
    fn unix_with(data: &[u8]) -> UnixFile {
        let f = UnixFile::temp().expect("temp file");
        f.write_at(0, data).unwrap();
        f
    }

    /// The whole file through `read_at`.
    fn contents(f: &dyn StorageFile) -> Vec<u8> {
        let mut out = vec![0u8; f.len() as usize];
        assert_eq!(f.read_at(0, &mut out).unwrap(), out.len());
        out
    }

    /// Both lending methods hand out exactly `[lo, hi)`, ascending, cut at
    /// the stripe seams, on a file `make` builds over the given bytes.
    fn lends_ascending_pieces_cut_at_stripe_seams<F: StorageFile>(make: impl Fn(&[u8]) -> F) {
        let mut rng = Rng(0x1E0D);
        let image = rng.bytes(4 * STRIPE);
        let s = STRIPE as u64;
        for (lo, hi) in [
            (0, s),
            (5, s - 5),
            (s - 1, s + 1),
            (s - 7, 3 * s + 9),
            (s, 2 * s),
            (3 * s + 1, 4 * s), // up to the last byte of the file
        ] {
            let f = make(&image);
            // the read-only side sees exactly the file's bytes, in order
            let mut seen = Vec::new();
            let mut next = lo;
            assert!(lent(&f, lo, hi, &mut |at, piece| {
                assert_eq!(at, next, "pieces are ascending and contiguous");
                assert!(!piece.is_empty());
                next += piece.len() as u64;
                seen.extend_from_slice(piece);
                // a piece never crosses a stripe seam
                assert_eq!(at / s, (next - 1) / s);
            }));
            assert_eq!(next, hi);
            assert_eq!(seen, &image[lo as usize..hi as usize]);
            // the updating side lends the same pieces, and what it does
            // not touch keeps its value
            let pieces = lent_mut(&f, lo, hi).unwrap();
            assert_eq!(pieces.iter().map(|p| p.1 as u64).sum::<u64>(), hi - lo);
            assert_eq!(pieces.len() as u64, (hi - 1) / s - lo / s + 1);
            assert_eq!(contents(&f), image);
            f.with_range_mut(lo, hi, &mut |at, piece| {
                for (i, b) in piece.iter_mut().enumerate() {
                    *b = (at + i as u64) as u8;
                }
            })
            .unwrap();
            let mut want = image.clone();
            for at in lo..hi {
                want[at as usize] = at as u8;
            }
            assert_eq!(contents(&f), want, "[{lo}, {hi})");
        }
    }

    #[test]
    fn memfile_lends_ascending_pieces_cut_at_stripe_seams() {
        lends_ascending_pieces_cut_at_stripe_seams(|data| MemFile::with_data(data.to_vec()));
    }

    #[test]
    fn unixfile_lends_ascending_pieces_cut_at_stripe_seams() {
        lends_ascending_pieces_cut_at_stripe_seams(unix_with);
    }

    #[test]
    fn memfile_lending_grows_like_write_at_and_keeps_the_zero_tail() {
        for end in around(2) {
            let f = MemFile::with_data(vec![7u8; 2 * STRIPE + 500]);
            f.set_len(STRIPE as u64 / 2).unwrap();
            // regrow by an update that starts past EOF and touches nothing
            assert_eq!(
                lent_mut(&f, end - 3, end).unwrap().len(),
                1 + (end % STRIPE as u64 == 1) as usize
            );
            assert_eq!(f.len(), end);
            let snap = f.snapshot();
            assert!(snap[..STRIPE / 2].iter().all(|&b| b == 7));
            assert!(snap[STRIPE / 2..].iter().all(|&b| b == 0), "end {end}");
        }
        // an empty range lends nothing and grows nothing
        let f = MemFile::new();
        assert_eq!(lent_mut(&f, 100, 100), Some(Vec::new()));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn memfile_with_range_declines_past_eof() {
        let f = MemFile::with_data(vec![1u8; 100]);
        let mut calls = 0;
        assert!(!lent(&f, 50, 101, &mut |_, _| calls += 1));
        assert!(!lent(&f, 200, 300, &mut |_, _| calls += 1));
        // an empty range is served, without a call, wherever EOF is
        assert!(lent(&f, 100, 100, &mut |_, _| calls += 1));
        assert!(lent(&f, 40, 40, &mut |_, _| calls += 1));
        assert_eq!(calls, 0);
        assert!(lent(&f, 50, 100, &mut |_, _| calls += 1));
        assert_eq!(calls, 1);
    }

    /// Two threads update and check their own half of `f` in place, over
    /// and over; the halves meet inside a stripe, so both take its lock.
    fn concurrent_in_place_updates_of_disjoint_halves(f: &dyn StorageFile) {
        let len = 3 * STRIPE as u64;
        let mid = len / 2;
        f.write_at(0, &vec![0u8; len as usize]).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (who, lo, hi) in [(1u8, 0, mid), (2u8, mid, len)] {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        assert!(f.with_range_mut(lo, hi, &mut |_, p| p.fill(who)).unwrap());
                        assert!(lent(f, lo, hi, &mut |_, p| {
                            assert!(p.iter().all(|&b| b == who), "foreign bytes")
                        }));
                    }
                });
            }
        });
        let snap = contents(f);
        assert!(snap[..mid as usize].iter().all(|&b| b == 1));
        assert!(snap[mid as usize..].iter().all(|&b| b == 2));
    }

    #[test]
    fn memfile_concurrent_in_place_updates_of_disjoint_halves() {
        concurrent_in_place_updates_of_disjoint_halves(&MemFile::new());
    }

    #[test]
    fn unixfile_concurrent_in_place_updates_of_disjoint_halves() {
        // both threads also race to make the mapping
        concurrent_in_place_updates_of_disjoint_halves(&unix_with(&[]));
    }

    #[test]
    fn arcs_forward_lending_and_decorators_decline() {
        use crate::decorate::{CountingFile, FaultPlan, FaultyFile, Throttle, ThrottledFile};
        let lends = |f: &dyn StorageFile| {
            f.write_at(0, &[9u8; 64]).unwrap();
            let a = lent_mut(f, 8, 16).is_some();
            let b = lent(f, 8, 16, &mut |_, _| {});
            assert_eq!(a, b);
            a
        };
        assert!(lends(&MemFile::new()));
        assert!(lends(&Arc::new(MemFile::new())));
        let dynamic: Arc<dyn StorageFile> = Arc::new(MemFile::new());
        assert!(lends(&dynamic));
        assert!(lends(&Arc::new(dynamic)));

        // a real file lends through its mapping, behind an `Arc` too
        assert!(lends(&unix_with(&[])));
        assert!(lends(&Arc::new(UnixFile::temp().unwrap())));
        assert!(!lends(&FaultyFile::new(
            unix_with(&[]),
            FaultPlan::disabled()
        )));
        assert!(!lends(&CountingFile::new(MemFile::new())));
        assert!(!lends(&ThrottledFile::new(
            MemFile::new(),
            Throttle::sx6_local_fs()
        )));
        assert!(!lends(&FaultyFile::new(
            MemFile::new(),
            FaultPlan::disabled()
        )));
    }

    #[test]
    fn unixfile_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lio-pfs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unixfile_roundtrip.bin");
        let f = UnixFile::create(&path).unwrap();
        f.write_at(3, b"abc").unwrap();
        assert_eq!(f.len(), 6);
        let mut buf = [0u8; 6];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"\0\0\0abc");
        drop(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arc_passthrough() {
        let f: Arc<dyn StorageFile> = Arc::new(MemFile::new());
        f.write_at(0, b"zz").unwrap();
        assert_eq!(f.len(), 2);
    }
}
