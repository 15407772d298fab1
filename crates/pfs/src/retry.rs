//! Bounded retry and short-I/O resumption over [`StorageFile`].
//!
//! Real parallel file systems return short reads/writes and transient
//! errors under load; ROMIO-class implementations bury the recovery
//! loops inside the transport. Here the loop is explicit, bounded, and
//! observable: `pfs.retries` counts backoff retries and
//! `pfs.short_io_resumed` counts resumed short transfers, so the
//! collective layer's recovery work shows up in metrics snapshots
//! instead of hiding in latency.
//!
//! Transient errors (`WouldBlock`/`Interrupted`/`TimedOut`) are retried
//! with exponential backoff up to [`RetryPolicy::max_attempts`]; when the
//! budget runs out the last error is wrapped in [`RetryExhausted`] and
//! surfaced as a *permanent* `io::Error`, so callers never loop forever.
//! All other errors propagate immediately.

use std::error::Error;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use lio_obs::LazyCounter;

use crate::file::StorageFile;

static OBS_RETRIES: LazyCounter = LazyCounter::new("pfs.retries");
static OBS_SHORT_RESUMED: LazyCounter = LazyCounter::new("pfs.short_io_resumed");

/// Whether `e` is transient: the same call may succeed if repeated.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
    )
}

/// The retry budget ran out; wraps the last transient error observed.
///
/// Carried inside an `io::Error` of kind `Other`, so downstream retry
/// loops treat it as permanent. Recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<RetryExhausted>())`.
#[derive(Debug)]
pub struct RetryExhausted {
    /// Which operation gave up ("read", "write", or "sync").
    pub op: &'static str,
    /// Attempts made, including the first.
    pub attempts: u32,
    /// The last transient error observed.
    pub last: io::Error,
}

impl fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage {} still failing after {} attempts: {}",
            self.op, self.attempts, self.last
        )
    }
}

impl Error for RetryExhausted {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.last)
    }
}

fn exhausted(op: &'static str, attempts: u32, last: io::Error) -> io::Error {
    io::Error::other(RetryExhausted { op, attempts, last })
}

/// Bounded exponential backoff for transient storage faults.
///
/// The defaults are tuned for the in-memory/emulated backends: backoffs
/// are microsecond-scale (well under OS sleep granularity, so short
/// waits yield rather than sleep), and the 24-attempt budget is far
/// above any survivable [`crate::FaultPlan`]'s consecutive-transient cap
/// while still bounding a genuinely stuck device to sub-millisecond
/// latency before the typed failure surfaces.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts per storage position, including the first.
    pub max_attempts: u32,
    /// First backoff; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 24,
            base_backoff: Duration::from_micros(2),
            max_backoff: Duration::from_micros(500),
        }
    }
}

/// Wait out one backoff. Microsecond-scale waits are far below OS sleep
/// granularity, so yield-spin them; only millisecond-class waits sleep.
fn backoff_wait(d: Duration) {
    if d >= Duration::from_millis(2) {
        std::thread::sleep(d);
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::thread::yield_now();
    }
}

impl RetryPolicy {
    fn backoff(&self, retry: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff)
    }

    /// Read `buf.len()` bytes at `offset`, resuming short reads and
    /// retrying transient errors. The result is short only at
    /// end-of-file — POSIX `pread` semantics, preserved so the sieving
    /// layer's zero-fill-past-EOF path keeps working.
    pub fn read_full_at(
        &self,
        f: &dyn StorageFile,
        offset: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        let mut done = 0usize;
        let mut attempt = 1u32;
        while done < buf.len() {
            match f.read_at(offset + done as u64, &mut buf[done..]) {
                Ok(0) => break, // end of file
                Ok(n) => {
                    if done > 0 {
                        OBS_SHORT_RESUMED.incr();
                    }
                    done += n;
                    attempt = 1;
                }
                Err(e) if is_transient(&e) => {
                    OBS_RETRIES.incr();
                    if attempt >= self.max_attempts {
                        return Err(exhausted("read", attempt, e));
                    }
                    let bo = self.backoff(attempt);
                    lio_obs::trace::mark("pfs.retry", attempt as u64, bo.as_nanos() as u64);
                    backoff_wait(bo);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    /// Write all of `buf` at `offset`, resuming short writes and
    /// retrying transient errors.
    pub fn write_full_at(&self, f: &dyn StorageFile, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut done = 0usize;
        let mut attempt = 1u32;
        while done < buf.len() {
            match f.write_at(offset + done as u64, &buf[done..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "storage accepted no bytes",
                    ));
                }
                Ok(n) => {
                    if done > 0 {
                        OBS_SHORT_RESUMED.incr();
                    }
                    done += n;
                    attempt = 1;
                }
                Err(e) if is_transient(&e) => {
                    OBS_RETRIES.incr();
                    if attempt >= self.max_attempts {
                        return Err(exhausted("write", attempt, e));
                    }
                    let bo = self.backoff(attempt);
                    lio_obs::trace::mark("pfs.retry", attempt as u64, bo.as_nanos() as u64);
                    backoff_wait(bo);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Flush, retrying transient failures.
    pub fn sync(&self, f: &dyn StorageFile) -> io::Result<()> {
        let mut attempt = 1u32;
        loop {
            match f.sync() {
                Ok(()) => return Ok(()),
                Err(e) if is_transient(&e) => {
                    OBS_RETRIES.incr();
                    if attempt >= self.max_attempts {
                        return Err(exhausted("sync", attempt, e));
                    }
                    let bo = self.backoff(attempt);
                    lio_obs::trace::mark("pfs.retry", attempt as u64, bo.as_nanos() as u64);
                    backoff_wait(bo);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// [`RetryPolicy::read_full_at`] under the default policy.
pub fn read_full_at(f: &dyn StorageFile, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
    RetryPolicy::default().read_full_at(f, offset, buf)
}

/// [`RetryPolicy::write_full_at`] under the default policy.
pub fn write_full_at(f: &dyn StorageFile, offset: u64, buf: &[u8]) -> io::Result<()> {
    RetryPolicy::default().write_full_at(f, offset, buf)
}

/// [`RetryPolicy::sync`] under the default policy.
pub fn sync_with_retry(f: &dyn StorageFile) -> io::Result<()> {
    RetryPolicy::default().sync(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decorate::{Decorated, FaultPlan, Faults, Go, Op, Policy};
    use crate::file::MemFile;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn resumes_short_reads_to_completion() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let plan = FaultPlan {
            short_per_256: 255,
            transient_per_256: 0,
            ..FaultPlan::seeded(21)
        };
        let f = Decorated::new(MemFile::with_data(data.clone()), Faults::new(plan));
        let mut buf = vec![0u8; 4096];
        assert_eq!(read_full_at(&f, 0, &mut buf).unwrap(), 4096);
        assert_eq!(buf, data);
    }

    #[test]
    fn resumes_short_writes_and_retries_transients() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let f = Decorated::new(MemFile::new(), Faults::new(FaultPlan::seeded(22)));
        write_full_at(&f, 0, &data).unwrap();
        assert_eq!(f.inner().snapshot(), data);
        let mut buf = vec![0u8; 4096];
        assert_eq!(read_full_at(&f, 0, &mut buf).unwrap(), 4096);
        assert_eq!(buf, data);
    }

    #[test]
    fn read_past_eof_stays_short() {
        let f = MemFile::with_data(vec![5u8; 10]);
        let mut buf = [0u8; 20];
        assert_eq!(read_full_at(&f, 0, &mut buf).unwrap(), 10);
        assert_eq!(&buf[..10], &[5u8; 10]);
    }

    #[test]
    fn permanent_errors_propagate_immediately() {
        let plan = FaultPlan {
            seed: 9,
            torn_after: Some(0),
            ..FaultPlan::disabled()
        };
        let f = Decorated::new(MemFile::new(), Faults::new(plan));
        let e = write_full_at(&f, 0, &[1u8; 16]).unwrap_err();
        assert!(!is_transient(&e));
        assert!(
            e.get_ref()
                .and_then(|s| s.downcast_ref::<RetryExhausted>())
                .is_none(),
            "a permanent fault must not be reported as retry exhaustion"
        );
    }

    /// Every access fails transiently — forever.
    struct AlwaysBlocked(AtomicU32);

    impl Policy for AlwaysBlocked {
        fn request(&self, _op: Op, _offset: u64, _len: usize, _go: impl Go) -> io::Result<usize> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"))
        }
        fn sync(&self) -> io::Result<()> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::TimedOut, "stuck"))
        }
    }

    #[test]
    fn exhaustion_surfaces_typed_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_nanos(1),
            max_backoff: Duration::from_nanos(10),
        };
        let f = Decorated::new(MemFile::new(), AlwaysBlocked(AtomicU32::new(0)));
        let e = policy.write_full_at(&f, 0, &[0u8; 8]).unwrap_err();
        assert_eq!(
            f.policy().0.load(Ordering::Relaxed),
            5,
            "budget must bound the attempts"
        );
        let inner = e
            .get_ref()
            .and_then(|s| s.downcast_ref::<RetryExhausted>())
            .expect("exhaustion must carry RetryExhausted");
        assert_eq!(inner.op, "write");
        assert_eq!(inner.attempts, 5);
        assert!(!is_transient(&e), "exhaustion must be permanent");

        f.policy().0.store(0, Ordering::Relaxed);
        let e = policy.sync(&f).unwrap_err();
        assert!(e.to_string().contains("sync"));
    }
}
