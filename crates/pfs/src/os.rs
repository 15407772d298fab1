//! `OsFile` — the real-OS-file backend: a synchronous [`StorageFile`]
//! facade over an asynchronous [`SubmissionQueue`].
//!
//! Every `read_at`/`write_at` is planned by
//! [`crate::aligned::split_for_alignment`] into alignment-friendly
//! segments, submitted to the queue as a batch, and harvested
//! out-of-order before the call returns:
//!
//! * aligned body segments are submitted **zero-copy** — raw pointers
//!   into the caller's buffer ([`SqBuf::Raw`]/[`SqBuf::RawMut`]), sound
//!   because the facade drains every completion before returning;
//! * unaligned head/tail fragments are staged through pooled
//!   [`AlignedBuf`]s, so the device only ever sees aligned memory (the
//!   invariant an `O_DIRECT`/io_uring drop-in will require).
//!
//! The device beneath the queue is any [`StorageFile`]: a
//! [`crate::UnixFile`] for real kernel I/O (the normal configuration), a
//! [`crate::MemFile`] for deterministic queue tests, or a
//! [`crate::FaultyFile`]-wrapped file so the seeded fault schedules
//! exercise the worker threadpool's retry path. The facade is the only
//! client the queue has; [`StorageFile::submission`] still exposes it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use crate::aligned::{split_for_alignment, AlignedPool, Segment};
use crate::file::{StorageFile, UnixFile};
use crate::squeue::{Cqe, QueueConfig, RawSlice, RawSliceMut, SqBuf, SqOp, Sqe, SubmissionQueue};

/// Tuning for an [`OsFile`].
#[derive(Debug, Clone, Copy)]
pub struct OsConfig {
    /// The submission queue (workers, depth, scheduling).
    pub queue: QueueConfig,
    /// Alignment for segment planning and staged buffers (power of two;
    /// typically the page size).
    pub align: usize,
    /// Largest single aligned segment; bigger transfers are split so
    /// they spread across workers.
    pub max_seg: usize,
}

impl Default for OsConfig {
    fn default() -> OsConfig {
        OsConfig {
            queue: QueueConfig::default(),
            align: 4096,
            max_seg: 4 << 20,
        }
    }
}

impl OsConfig {
    /// Defaults with `LIO_OS_WORKERS` / `LIO_OS_DEPTH` environment
    /// overrides applied (unparseable values are ignored).
    pub fn from_env() -> OsConfig {
        let mut cfg = OsConfig::default();
        if let Some(n) = env_usize("LIO_OS_WORKERS") {
            cfg.queue.workers = n.max(1);
        }
        if let Some(n) = env_usize("LIO_OS_DEPTH") {
            cfg.queue.depth = n.max(1);
        }
        cfg
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// The directory for backing files of unnamed ([`OsFile::temp`])
/// instances: `LIO_OS_DIR` if set (CI points it at tmpfs or a real
/// disk), the system temp directory otherwise.
pub fn os_dir() -> PathBuf {
    std::env::var_os("LIO_OS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create an anonymous [`UnixFile`] in [`os_dir`]: the path is unlinked
/// immediately after opening, so the backing storage disappears when the
/// handle drops — no cleanup needed even on panic.
pub fn temp_unix() -> io::Result<UnixFile> {
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

/// A real-OS-file storage backend: batched, alignment-aware submission
/// over a worker threadpool, presented as a synchronous [`StorageFile`].
/// See the module docs. Whether it lends its bytes is the device's answer
/// ([`StorageFile::with_range_mut`] and its twin are forwarded): a plain
/// [`UnixFile`] does, through its mapping; a decorated device declines
/// and every window is staged through the queue.
pub struct OsFile {
    device: Arc<dyn StorageFile>,
    queue: SubmissionQueue,
    align: usize,
    max_seg: usize,
    pool: AlignedPool,
}

impl OsFile {
    /// Run the queue over an already-shared device.
    pub fn over_arc(device: Arc<dyn StorageFile>, cfg: OsConfig) -> OsFile {
        let queue = SubmissionQueue::new(Arc::clone(&device), cfg.queue);
        OsFile {
            device,
            queue,
            align: cfg.align.max(1).next_power_of_two(),
            max_seg: cfg.max_seg.max(cfg.align),
            pool: AlignedPool::new(cfg.align.max(1).next_power_of_two()),
        }
    }

    /// Run the queue over any device (in-memory, faulty, throttled, or a
    /// real [`UnixFile`]).
    pub fn over(device: impl StorageFile + 'static, cfg: OsConfig) -> OsFile {
        OsFile::over_arc(Arc::new(device), cfg)
    }

    /// Create (or truncate) a real file at `path` under [`OsConfig::from_env`].
    pub fn create(path: impl AsRef<Path>) -> io::Result<OsFile> {
        Ok(OsFile::over(UnixFile::create(path)?, OsConfig::from_env()))
    }

    /// Open an existing file at `path` under [`OsConfig::from_env`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<OsFile> {
        Ok(OsFile::over(UnixFile::open(path)?, OsConfig::from_env()))
    }

    /// An anonymous real file in [`os_dir`] (unlinked at creation, so it
    /// cleans itself up) under [`OsConfig::from_env`].
    pub fn temp() -> io::Result<OsFile> {
        Ok(OsFile::over(temp_unix()?, OsConfig::from_env()))
    }

    /// The device beneath the queue.
    pub fn device(&self) -> &Arc<dyn StorageFile> {
        &self.device
    }

    /// The submission queue (also exposed via [`StorageFile::submission`]).
    pub fn queue(&self) -> &SubmissionQueue {
        &self.queue
    }

    /// Submit one transfer as planned segments and drain all
    /// completions. Returns per-segment results in segment order.
    ///
    /// Draining everything before returning is what makes the raw
    /// (zero-copy) segments sound: no worker can touch the caller's
    /// buffer after this function returns.
    fn run_batch(
        &self,
        segs: &[Segment],
        write: bool,
        mut make: impl FnMut(&Segment) -> SqBuf,
    ) -> io::Result<Vec<(io::Result<usize>, Option<SqBuf>)>> {
        // A batch of one gains nothing from the worker handoff — there
        // is no parallelism to unlock and the queue's fixed cost (two
        // scheduler wakes per op, worst on few-core hosts) is pure
        // overhead. Execute it inline with identical semantics.
        if let [seg] = segs {
            let buf = make(seg);
            let op = if write {
                SqOp::Write {
                    off: seg.off,
                    buf,
                    len: seg.len,
                }
            } else {
                SqOp::Read {
                    off: seg.off,
                    buf,
                    len: seg.len,
                }
            };
            let (res, buf) = crate::squeue::execute_inline(&self.device, op);
            return Ok(vec![(res, buf)]);
        }
        let (tx, rx) = mpsc::channel::<Cqe>();
        for (i, seg) in segs.iter().enumerate() {
            let buf = make(seg);
            let sqe = if write {
                Sqe::write(i as u64, seg.off, buf, seg.len)
            } else {
                Sqe::read(i as u64, seg.off, buf, seg.len)
            };
            self.queue.submit(sqe, &tx);
        }
        drop(tx);
        let mut out: Vec<Option<(io::Result<usize>, Option<SqBuf>)>> =
            (0..segs.len()).map(|_| None).collect();
        for _ in 0..segs.len() {
            match rx.recv() {
                Ok(cqe) => out[cqe.token as usize] = Some((cqe.result, cqe.buf)),
                // All reply senders died: every worker holding one of our
                // submissions has dropped it, so no borrowed memory is
                // referenced anymore and bailing out is sound.
                Err(_) => return Err(io::Error::other("submission queue workers died mid-batch")),
            }
        }
        Ok(out
            .into_iter()
            .map(|c| c.expect("every segment completed"))
            .collect())
    }
}

impl StorageFile for OsFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let segs = split_for_alignment(offset, buf.len(), self.align, self.max_seg);
        let base = buf.as_mut_ptr();
        let done = self.run_batch(&segs, false, |seg| {
            if seg.aligned {
                // SAFETY: disjoint segment ranges of `buf`; drained
                // before this call returns (see `run_batch`).
                SqBuf::RawMut(unsafe { RawSliceMut::new(base.add(seg.buf_off), seg.len) })
            } else {
                SqBuf::Aligned(self.pool.get(seg.len))
            }
        })?;
        // Assemble POSIX semantics: bytes are contiguous from the start,
        // short only at EOF — sum segment results in order and stop at
        // the first short one. The first in-order error wins.
        let mut total = 0usize;
        for (seg, (res, sqbuf)) in segs.iter().zip(done) {
            let n = res?;
            if let Some(SqBuf::Aligned(staged)) = sqbuf {
                buf[seg.buf_off..seg.buf_off + n].copy_from_slice(&staged.as_slice()[..n]);
                self.pool.put(staged);
            }
            total += n;
            if n < seg.len {
                break; // EOF inside this segment
            }
        }
        Ok(total)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let segs = split_for_alignment(offset, buf.len(), self.align, self.max_seg);
        let done = self.run_batch(&segs, true, |seg| {
            if seg.aligned {
                // SAFETY: shared borrow of `buf` held across the batch;
                // drained before this call returns.
                SqBuf::Raw(unsafe { RawSlice::new(buf[seg.buf_off..].as_ptr(), seg.len) })
            } else {
                let mut staged = self.pool.get(seg.len);
                staged.as_mut_slice()[..seg.len]
                    .copy_from_slice(&buf[seg.buf_off..seg.buf_off + seg.len]);
                SqBuf::Aligned(staged)
            }
        })?;
        // Workers write fully or fail; the first in-order error wins.
        for (res, sqbuf) in done {
            res?;
            if let Some(SqBuf::Aligned(staged)) = sqbuf {
                self.pool.put(staged);
            }
        }
        Ok(buf.len())
    }

    fn len(&self) -> u64 {
        // The blocking facade completes each caller's submissions before
        // returning, so a caller's own writes are always visible here.
        self.device.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.device.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        // Always a batch of one: the facade completed every prior
        // submission before returning, so an inline flush sees them all.
        let (res, _) = crate::squeue::execute_inline(&self.device, SqOp::Sync);
        res.map(|_| ())
    }

    fn submission(&self) -> Option<&SubmissionQueue> {
        Some(&self.queue)
    }

    // Lent bytes bypass the queue. Nothing of this caller's is in flight
    // there: the facade drains every batch before it returns.
    fn with_range_mut(
        &self,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &mut [u8]),
    ) -> io::Result<bool> {
        self.device.with_range_mut(lo, hi, f)
    }

    fn with_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, &[u8])) -> io::Result<bool> {
        self.device.with_range(lo, hi, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemFile;

    fn os_over_mem(data: Vec<u8>) -> (OsFile, Arc<MemFile>) {
        let mem = Arc::new(MemFile::with_data(data));
        let f = OsFile::over_arc(
            Arc::clone(&mem) as Arc<dyn StorageFile>,
            OsConfig::default(),
        );
        (f, mem)
    }

    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn unaligned_roundtrip_over_memory() {
        // Head fragment + multi-segment body + tail fragment, checked
        // byte-exactly against the device.
        let (f, mem) = os_over_mem(Vec::new());
        let data = pattern(3 * 4096 + 777, 42);
        assert_eq!(f.write_at(1234, &data).unwrap(), data.len());
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(1234, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        let snap = mem.snapshot();
        assert_eq!(&snap[1234..1234 + data.len()], &data[..]);
        assert!(snap[..1234].iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_length_ops() {
        let (f, _mem) = os_over_mem(vec![1u8; 64]);
        assert_eq!(f.read_at(10, &mut []).unwrap(), 0);
        assert_eq!(f.write_at(10, &[]).unwrap(), 0);
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn read_spanning_eof_is_short_and_zero_extends_nothing() {
        let (f, _mem) = os_over_mem(pattern(5000, 7));
        // Segments past EOF must collapse to a single short total, even
        // though the EOF lands mid-batch.
        let mut buf = vec![0xAAu8; 12000];
        assert_eq!(f.read_at(100, &mut buf).unwrap(), 4900);
        assert_eq!(&buf[..4900], &pattern(5000, 7)[100..]);
        // entirely past EOF
        assert_eq!(f.read_at(1 << 20, &mut buf).unwrap(), 0);
    }

    #[test]
    fn write_extends_the_file() {
        let (f, mem) = os_over_mem(Vec::new());
        assert_eq!(f.len(), 0);
        f.write_at(10_000, b"tail").unwrap();
        assert_eq!(f.len(), 10_004);
        let snap = mem.snapshot();
        assert_eq!(&snap[10_000..], b"tail");
        assert!(snap[..10_000].iter().all(|&b| b == 0));
    }

    #[test]
    fn large_transfer_spreads_across_segments() {
        let (f, _mem) = os_over_mem(Vec::new());
        let data = pattern((4 << 20) + 4096 + 123, 9);
        f.write_at(0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn completion_reorder_under_shuffle_is_invisible_to_the_facade() {
        // A single shuffled worker completes the batch out of order; the
        // facade must still assemble the POSIX result.
        let mem = Arc::new(MemFile::with_data(pattern(1 << 16, 3)));
        let f = OsFile::over_arc(
            Arc::clone(&mem) as Arc<dyn StorageFile>,
            OsConfig {
                queue: QueueConfig {
                    workers: 1,
                    depth: 64,
                    shuffle_seed: Some(0x5C03_2003),
                },
                align: 4096,
                max_seg: 8192, // many segments per call
            },
        );
        let mut buf = vec![0u8; 40_000];
        assert_eq!(f.read_at(123, &mut buf).unwrap(), 40_000);
        assert_eq!(&buf[..], &pattern(1 << 16, 3)[123..123 + 40_000]);
        let data = pattern(40_000, 11);
        f.write_at(321, &data).unwrap();
        let snap = mem.snapshot();
        assert_eq!(&snap[321..321 + 40_000], &data[..]);
    }

    #[test]
    fn real_file_roundtrip_and_sync() {
        let f = OsFile::temp().expect("temp file");
        let data = pattern(100_000, 77);
        assert_eq!(f.write_at(4095, &data).unwrap(), data.len());
        f.sync().unwrap();
        assert_eq!(f.len(), 4095 + data.len() as u64);
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(4095, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        f.set_len(10).unwrap();
        assert_eq!(f.len(), 10);
    }

    #[test]
    fn submission_seam_is_exposed() {
        let (f, _mem) = os_over_mem(Vec::new());
        assert!(f.submission().is_some());
        let as_dyn: Arc<dyn StorageFile> = Arc::new(f);
        assert!(as_dyn.submission().is_some(), "Arc must forward the seam");
        // ...and plain files must not claim one
        assert!(MemFile::new().submission().is_none());
    }
}
