//! A submission-queue / completion-queue abstraction over a storage
//! device, served by a worker threadpool.
//!
//! This is the asynchronous spine of the real-storage backend
//! ([`crate::os::OsFile`]): callers enqueue [`Sqe`]s (read / write /
//! sync, each carrying a user token and a buffer) and harvest [`Cqe`]s
//! from a per-caller reply channel **in whatever order the device
//! completes them**. The API is deliberately shaped like io_uring's ring
//! pair — bounded submission depth with backpressure, opaque user tokens
//! echoed on completion, out-of-order harvest — so an io_uring (or
//! `O_DIRECT` + AIO) implementation can replace the threadpool behind the
//! same types without touching any caller.
//!
//! Worker semantics: each dequeued entry is executed as a *full* I/O
//! against the device via [`crate::retry`] — short transfers are resumed
//! and transient `EINTR`/`EAGAIN`-class errors retried with bounded
//! backoff inside the worker, so a completion is short only at
//! end-of-file and errors surfacing in a [`Cqe`] are permanent. This is
//! exactly the contract the collective layer already relies on for
//! synchronous backends.
//!
//! Scheduling is FIFO by default. A seeded shuffle
//! ([`QueueConfig::shuffle_seed`]) makes workers pick queued entries
//! pseudo-randomly — with a single worker this yields a fully
//! deterministic out-of-order completion schedule, which the reordering
//! tests use to prove harvest-side correctness without real device
//! nondeterminism.

use std::collections::VecDeque;
use std::io;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use lio_obs::{LazyCounter, LazyGauge};

use crate::file::StorageFile;
use crate::retry;

static OBS_SUBMITTED: LazyCounter = LazyCounter::new("pfs.os.sqe.submitted");
static OBS_COMPLETED: LazyCounter = LazyCounter::new("pfs.os.cqe.completed");
static OBS_READ_BYTES: LazyCounter = LazyCounter::new("pfs.os.read.bytes");
static OBS_WRITE_BYTES: LazyCounter = LazyCounter::new("pfs.os.write.bytes");
static OBS_SYNCS: LazyCounter = LazyCounter::new("pfs.os.sync.calls");
static OBS_FULL_WAITS: LazyCounter = LazyCounter::new("pfs.os.queue_full_waits");
static OBS_DEPTH_MAX: LazyGauge = LazyGauge::new("pfs.os.queue_depth_max");

/// A borrowed byte range submitted for writing. Constructed only by
/// callers that guarantee the memory outlives the submission (see
/// [`RawSlice::new`]).
pub struct RawSlice {
    ptr: *const u8,
    len: usize,
}

/// A borrowed mutable byte range submitted for reading into.
pub struct RawSliceMut {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: these are plain pointers into caller-owned memory; the unsafe
// constructors place the lifetime obligation on the caller, after which
// shipping the pointer to a worker thread is sound.
unsafe impl Send for RawSlice {}
unsafe impl Send for RawSliceMut {}

impl RawSlice {
    /// Wrap caller-owned memory for a write submission.
    ///
    /// # Safety
    /// The memory `[ptr, ptr + len)` must stay valid and unmodified until
    /// the submission's [`Cqe`] has been received (or the reply channel's
    /// disconnection observed). [`crate::os::OsFile`] satisfies this by
    /// draining every reply before its blocking facade returns.
    pub unsafe fn new(ptr: *const u8, len: usize) -> RawSlice {
        RawSlice { ptr, len }
    }
}

impl RawSliceMut {
    /// Wrap caller-owned memory for a read submission.
    ///
    /// # Safety
    /// As [`RawSlice::new`], and additionally the range must not be
    /// aliased by any other live reference while the submission is in
    /// flight.
    pub unsafe fn new(ptr: *mut u8, len: usize) -> RawSliceMut {
        RawSliceMut { ptr, len }
    }
}

/// The buffer attached to a submission, returned to the caller inside
/// the matching [`Cqe`].
pub enum SqBuf {
    /// An aligned staging buffer (unaligned head/tail fragments).
    Aligned(crate::aligned::AlignedBuf),
    /// Borrowed caller memory, write submissions (zero-copy body).
    Raw(RawSlice),
    /// Borrowed caller memory, read submissions (zero-copy body).
    RawMut(RawSliceMut),
}

impl SqBuf {
    /// The readable bytes (write submissions).
    pub fn as_io(&self) -> &[u8] {
        match self {
            SqBuf::Aligned(b) => b.as_slice(),
            // SAFETY: validity guaranteed by the RawSlice constructor's
            // contract.
            SqBuf::Raw(r) => unsafe { std::slice::from_raw_parts(r.ptr, r.len) },
            SqBuf::RawMut(r) => unsafe { std::slice::from_raw_parts(r.ptr, r.len) },
        }
    }

    /// The writable bytes (read submissions). Panics on [`SqBuf::Raw`],
    /// which is read-only by construction.
    pub fn as_io_mut(&mut self) -> &mut [u8] {
        match self {
            SqBuf::Aligned(b) => b.as_mut_slice(),
            SqBuf::Raw(_) => panic!("read submission carries a read-only buffer"),
            // SAFETY: validity and exclusivity guaranteed by the
            // RawSliceMut constructor's contract.
            SqBuf::RawMut(r) => unsafe { std::slice::from_raw_parts_mut(r.ptr, r.len) },
        }
    }
}

/// The operation a submission requests.
pub enum SqOp {
    /// Read `len` bytes at `off` into the front of `buf`.
    Read { off: u64, buf: SqBuf, len: usize },
    /// Write the front `len` bytes of `buf` at `off`.
    Write { off: u64, buf: SqBuf, len: usize },
    /// Flush the device.
    Sync,
}

/// A submission-queue entry: an opaque caller token plus the operation.
pub struct Sqe {
    /// Echoed verbatim in the matching [`Cqe`]; the caller's correlation
    /// key for out-of-order harvest.
    pub token: u64,
    /// The requested operation.
    pub op: SqOp,
}

impl Sqe {
    /// A read of `len` bytes at `off` into `buf`.
    pub fn read(token: u64, off: u64, buf: SqBuf, len: usize) -> Sqe {
        Sqe {
            token,
            op: SqOp::Read { off, buf, len },
        }
    }

    /// A write of `buf`'s front `len` bytes at `off`.
    pub fn write(token: u64, off: u64, buf: SqBuf, len: usize) -> Sqe {
        Sqe {
            token,
            op: SqOp::Write { off, buf, len },
        }
    }

    /// A flush.
    pub fn sync(token: u64) -> Sqe {
        Sqe {
            token,
            op: SqOp::Sync,
        }
    }
}

/// A completion-queue entry.
pub struct Cqe {
    /// The submission's token.
    pub token: u64,
    /// Bytes transferred. Reads are short only at end-of-file; writes
    /// and syncs report the full requested length on success. Errors are
    /// permanent (transients were already retried by the worker).
    pub result: io::Result<usize>,
    /// The submission's buffer, returned to the caller (absent for
    /// syncs).
    pub buf: Option<SqBuf>,
    /// The requested transfer length, echoed for the caller's
    /// zero-fill/short-read bookkeeping.
    pub len: usize,
    /// Device service time for this entry in nanoseconds, excluding any
    /// modelled-throttle spin tail (see [`crate::take_spin_ns`]).
    pub service_ns: u64,
}

/// Tuning for a [`SubmissionQueue`].
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Worker threads servicing the queue.
    pub workers: usize,
    /// Maximum queued (not yet dequeued) submissions before
    /// [`SubmissionQueue::submit`] blocks.
    pub depth: usize,
    /// `Some(seed)`: workers pick queued entries pseudo-randomly
    /// (xorshift64*-seeded) instead of FIFO. With one worker this gives a
    /// deterministic out-of-order completion schedule for tests.
    pub shuffle_seed: Option<u64>,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            workers: 4,
            depth: 64,
            shuffle_seed: None,
        }
    }
}

struct Entry {
    sqe: Sqe,
    reply: Sender<Cqe>,
    /// The submitting rank's health identity: the servicing worker
    /// adopts it so its heartbeats attribute storage progress to the
    /// rank that asked for the I/O.
    health: lio_obs::health::Handle,
}

struct QState {
    entries: VecDeque<Entry>,
    shutdown: bool,
    rng: u64,
}

struct Shared {
    state: Mutex<QState>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The submission/completion queue: a bounded ring of pending [`Sqe`]s
/// drained by a worker threadpool over an `Arc<dyn StorageFile>` device.
/// See the module docs for semantics and the io_uring drop-in seam.
pub struct SubmissionQueue {
    shared: Arc<Shared>,
    depth: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SubmissionQueue {
    /// Spin up `cfg.workers` threads over `device`.
    pub fn new(device: Arc<dyn StorageFile>, cfg: QueueConfig) -> SubmissionQueue {
        let shared = Arc::new(Shared {
            state: Mutex::new(QState {
                entries: VecDeque::new(),
                shutdown: false,
                rng: cfg.shuffle_seed.unwrap_or(0),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let shuffle = cfg.shuffle_seed.is_some();
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let device = Arc::clone(&device);
                let th = lio_obs::trace::thread_handle();
                std::thread::spawn(move || {
                    lio_obs::trace::adopt(th);
                    worker_loop(&shared, &device, shuffle)
                })
            })
            .collect();
        SubmissionQueue {
            shared,
            depth: cfg.depth.max(1),
            workers,
        }
    }

    /// The queue's submission depth bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Worker threads servicing this queue.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one submission, blocking while the queue is full. The
    /// matching [`Cqe`] is delivered on `reply`; completions across
    /// submissions arrive in device order, not submission order.
    pub fn submit(&self, sqe: Sqe, reply: &Sender<Cqe>) {
        let mut st = self.shared.state.lock().unwrap();
        while st.entries.len() >= self.depth {
            OBS_FULL_WAITS.incr();
            st = self.shared.not_full.wait(st).unwrap();
        }
        self.push(&mut st, sqe, reply);
        drop(st);
        self.shared.not_empty.notify_one();
    }

    /// Enqueue without blocking: returns the submission back when the
    /// queue is full.
    pub fn try_submit(&self, sqe: Sqe, reply: &Sender<Cqe>) -> Result<(), Sqe> {
        let mut st = self.shared.state.lock().unwrap();
        if st.entries.len() >= self.depth {
            return Err(sqe);
        }
        self.push(&mut st, sqe, reply);
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    fn push(&self, st: &mut QState, sqe: Sqe, reply: &Sender<Cqe>) {
        st.entries.push_back(Entry {
            sqe,
            reply: reply.clone(),
            health: lio_obs::health::thread_handle(),
        });
        OBS_SUBMITTED.incr();
        OBS_DEPTH_MAX.record_max(st.entries.len() as u64);
        lio_obs::health::queue_depth(st.entries.len() as u64);
    }
}

impl Drop for SubmissionQueue {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn xorshift_star(x: &mut u64) -> u64 {
    let mut v = x.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    *x = v;
    v.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn worker_loop(shared: &Shared, device: &Arc<dyn StorageFile>, shuffle: bool) {
    loop {
        let entry = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if !st.entries.is_empty() {
                    let idx = if shuffle {
                        (xorshift_star(&mut st.rng) % st.entries.len() as u64) as usize
                    } else {
                        0
                    };
                    break st.entries.remove(idx).expect("index in range");
                }
                if st.shutdown {
                    return; // drained: every pending entry was serviced
                }
                st = shared.not_empty.wait(st).unwrap();
            }
        };
        shared.not_full.notify_one();
        service(device, entry);
    }
}

/// Execute one operation against the device with full-I/O retry
/// semantics, counters, and trace spans — the core shared by the worker
/// path ([`service`]) and the facade's single-segment inline fast path.
fn execute(device: &Arc<dyn StorageFile>, op: SqOp) -> (io::Result<usize>, Option<SqBuf>, usize) {
    match op {
        SqOp::Read { off, mut buf, len } => {
            let _sp = lio_obs::trace::span_ab("os.sqe.read", off, len as u64);
            let r = retry::read_full_at(&**device, off, &mut buf.as_io_mut()[..len]);
            if let Ok(n) = r {
                OBS_READ_BYTES.add(n as u64);
            }
            (r, Some(buf), len)
        }
        SqOp::Write { off, buf, len } => {
            let _sp = lio_obs::trace::span_ab("os.sqe.write", off, len as u64);
            let r = retry::write_full_at(&**device, off, &buf.as_io()[..len]).map(|()| len);
            if r.is_ok() {
                OBS_WRITE_BYTES.add(len as u64);
            }
            (r, Some(buf), len)
        }
        SqOp::Sync => {
            let _sp = lio_obs::trace::span("os.sqe.sync");
            OBS_SYNCS.incr();
            (retry::sync_with_retry(&**device).map(|()| 0), None, 0)
        }
    }
}

/// Execute one operation on the caller's thread with the exact worker
/// semantics. Used by the facade for batches of one, where a worker
/// handoff buys no parallelism and its scheduler wakes are pure
/// overhead. No throttle-spin bookkeeping: on the caller's thread any
/// modelled spin stays in the caller's ledger, the ordinary
/// synchronous-backend contract.
pub(crate) fn execute_inline(
    device: &Arc<dyn StorageFile>,
    op: SqOp,
) -> (io::Result<usize>, Option<SqBuf>) {
    OBS_SUBMITTED.incr();
    let (result, buf, _len) = execute(device, op);
    OBS_COMPLETED.incr();
    // Inline service runs on the submitting rank's own thread: the
    // heartbeat needs no adoption.
    lio_obs::health::beat_bytes(
        lio_obs::health::HbPhase::Io,
        result.as_ref().map(|&n| n as u64).unwrap_or(0),
    );
    (result, buf)
}

/// Execute one entry against the device with full-I/O retry semantics
/// and send its completion. A dropped reply receiver is fine — the
/// caller abandoned the harvest and the buffer dies with the Cqe.
fn service(device: &Arc<dyn StorageFile>, entry: Entry) {
    let Entry { sqe, reply, health } = entry;
    let Sqe { token, op } = sqe;
    lio_obs::health::adopt(health);
    crate::take_spin_ns(); // reset this thread's throttle-spin ledger
    let t0 = Instant::now();
    let (result, buf, len) = execute(device, op);
    let spin = crate::take_spin_ns();
    let service_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(spin);
    OBS_COMPLETED.incr();
    // Every serviced entry is progress for the submitting rank — a slow
    // device still beats once per completion, so slow ≠ stuck.
    lio_obs::health::beat_bytes(
        lio_obs::health::HbPhase::Io,
        result.as_ref().map(|&n| n as u64).unwrap_or(0),
    );
    let _ = reply.send(Cqe {
        token,
        result,
        buf,
        len,
        service_ns,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemFile;
    use std::sync::mpsc;

    /// A submission buffer of `len` bytes that starts with `data`.
    fn staged(data: &[u8], len: usize) -> SqBuf {
        let mut buf = crate::aligned::AlignedBuf::new(len.max(1), 1);
        buf.as_mut_slice()[..data.len()].copy_from_slice(data);
        SqBuf::Aligned(buf)
    }

    fn queue_over(data: Vec<u8>, cfg: QueueConfig) -> (SubmissionQueue, Arc<MemFile>) {
        let mem = Arc::new(MemFile::with_data(data));
        let q = SubmissionQueue::new(Arc::clone(&mem) as Arc<dyn StorageFile>, cfg);
        (q, mem)
    }

    #[test]
    fn roundtrip_read_write() {
        let (q, mem) = queue_over(Vec::new(), QueueConfig::default());
        let (tx, rx) = mpsc::channel();
        q.submit(Sqe::write(1, 0, staged(b"hello world", 11), 11), &tx);
        let cqe = rx.recv().unwrap();
        assert_eq!(cqe.token, 1);
        assert_eq!(cqe.result.unwrap(), 11);
        assert_eq!(mem.snapshot(), b"hello world");
        q.submit(Sqe::read(2, 6, staged(&[], 5), 5), &tx);
        let cqe = rx.recv().unwrap();
        assert_eq!(cqe.result.unwrap(), 5);
        assert_eq!(cqe.buf.unwrap().as_io(), b"world");
    }

    #[test]
    fn zero_length_submissions_complete() {
        let (q, _mem) = queue_over(vec![9u8; 16], QueueConfig::default());
        let (tx, rx) = mpsc::channel();
        q.submit(Sqe::read(0, 4, staged(&[], 0), 0), &tx);
        q.submit(Sqe::write(1, 4, staged(&[], 0), 0), &tx);
        q.submit(Sqe::sync(2), &tx);
        let mut tokens: Vec<u64> = (0..3)
            .map(|_| rx.recv().unwrap())
            .map(|c| c.token)
            .collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2]);
    }

    #[test]
    fn read_past_eof_completes_short() {
        let (q, _mem) = queue_over(vec![7u8; 10], QueueConfig::default());
        let (tx, rx) = mpsc::channel();
        q.submit(Sqe::read(0, 4, staged(&[], 32), 32), &tx);
        let cqe = rx.recv().unwrap();
        assert_eq!(cqe.result.unwrap(), 6, "short only at EOF");
        assert_eq!(cqe.len, 32);
        assert_eq!(&cqe.buf.unwrap().as_io()[..6], &[7u8; 6]);
    }

    #[test]
    fn seeded_shuffle_reorders_deterministically() {
        // One worker + shuffle: the completion order is a deterministic
        // function of the seed — and must differ from FIFO.
        let run = |seed: Option<u64>| -> Vec<u64> {
            let mem = Arc::new(MemFile::with_data(vec![1u8; 1 << 16]));
            let (tx, rx) = mpsc::channel();
            // Hold the single worker on its first op while the rest queue
            // up, so the shuffle has a full, deterministic queue to pick
            // from. The gate reports when it is entered, so submissions
            // racing the first dequeue cannot perturb the schedule.
            let (gate_tx, gate_rx) = mpsc::channel();
            let (entered_tx, entered_rx) = mpsc::channel();
            struct Gate(
                std::sync::Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
                Arc<MemFile>,
            );
            impl StorageFile for Gate {
                fn read_at(&self, o: u64, b: &mut [u8]) -> io::Result<usize> {
                    if let Some((entered, rx)) = self.0.lock().unwrap().take() {
                        let _ = entered.send(());
                        let _ = rx.recv();
                    }
                    self.1.read_at(o, b)
                }
                fn write_at(&self, o: u64, b: &[u8]) -> io::Result<usize> {
                    self.1.write_at(o, b)
                }
                fn len(&self) -> u64 {
                    self.1.len()
                }
                fn set_len(&self, l: u64) -> io::Result<()> {
                    self.1.set_len(l)
                }
                fn sync(&self) -> io::Result<()> {
                    self.1.sync()
                }
            }
            let gate = Gate(
                std::sync::Mutex::new(Some((entered_tx, gate_rx))),
                Arc::clone(&mem),
            );
            let q = SubmissionQueue::new(
                Arc::new(gate) as Arc<dyn StorageFile>,
                QueueConfig {
                    workers: 1,
                    depth: 64,
                    shuffle_seed: seed,
                },
            );
            q.submit(Sqe::read(1000, 0, staged(&[], 8), 8), &tx);
            entered_rx.recv().unwrap(); // worker holds the gate entry
            for i in 0..16u64 {
                q.submit(Sqe::read(i, i * 8, staged(&[], 8), 8), &tx);
            }
            gate_tx.send(()).unwrap();
            let mut order = Vec::new();
            for _ in 0..17 {
                order.push(rx.recv().unwrap().token);
            }
            order
        };
        let fifo = run(None);
        assert_eq!(fifo[1..], (0..16u64).collect::<Vec<_>>()[..]);
        let a = run(Some(0xBAD5EED));
        let b = run(Some(0xBAD5EED));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, fifo, "shuffle must actually reorder");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut expect: Vec<u64> = (0..16).collect();
        expect.push(1000);
        assert_eq!(sorted, expect, "every submission completes exactly once");
    }

    #[test]
    fn queue_full_backpressure() {
        // A gated device stalls the lone worker; depth 2 then refuses a
        // third queued entry until the gate opens.
        struct Block(std::sync::Mutex<mpsc::Receiver<()>>);
        impl StorageFile for Block {
            fn read_at(&self, _o: u64, _b: &mut [u8]) -> io::Result<usize> {
                let _ = self.0.lock().unwrap().recv();
                Ok(0)
            }
            fn write_at(&self, _o: u64, b: &[u8]) -> io::Result<usize> {
                Ok(b.len())
            }
            fn len(&self) -> u64 {
                0
            }
            fn set_len(&self, _l: u64) -> io::Result<()> {
                Ok(())
            }
            fn sync(&self) -> io::Result<()> {
                Ok(())
            }
        }
        let (gate_tx, gate_rx) = mpsc::channel();
        let q = SubmissionQueue::new(
            Arc::new(Block(std::sync::Mutex::new(gate_rx))) as Arc<dyn StorageFile>,
            QueueConfig {
                workers: 1,
                depth: 2,
                shuffle_seed: None,
            },
        );
        let (tx, rx) = mpsc::channel();
        // First read is dequeued by the worker and blocks on the gate;
        // two more fill the queue to its depth.
        q.submit(Sqe::read(0, 0, staged(&[], 4), 4), &tx);
        // Wait for the worker to have dequeued the first entry.
        loop {
            if q.try_submit(Sqe::read(1, 0, staged(&[], 4), 4), &tx)
                .is_ok()
            {
                break;
            }
            std::thread::yield_now();
        }
        while q
            .try_submit(Sqe::read(2, 0, staged(&[], 4), 4), &tx)
            .is_err()
        {
            std::thread::yield_now();
        }
        // Now 2 are queued (depth reached) while the first is in service.
        let refused = q.try_submit(Sqe::read(3, 0, staged(&[], 4), 4), &tx);
        assert!(refused.is_err(), "queue at depth must refuse try_submit");
        let sqe = refused.err().unwrap();
        assert_eq!(sqe.token, 3, "the refused submission comes back intact");
        // Open the gate: everything drains and a blocking submit succeeds.
        for _ in 0..4 {
            let _ = gate_tx.send(());
        }
        q.submit(sqe, &tx);
        let mut tokens: Vec<u64> = (0..4).map(|_| rx.recv().unwrap().token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_drains_pending_work() {
        let (q, mem) = queue_over(
            Vec::new(),
            QueueConfig {
                workers: 2,
                depth: 64,
                shuffle_seed: None,
            },
        );
        let (tx, rx) = mpsc::channel();
        for i in 0..32u64 {
            q.submit(Sqe::write(i, i * 4, staged(&[i as u8 + 1; 4], 4), 4), &tx);
        }
        drop(q); // must join only after servicing all 32
        drop(tx);
        assert_eq!(rx.iter().count(), 32);
        assert_eq!(mem.len(), 128);
    }
}
