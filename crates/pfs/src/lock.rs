//! Byte-range locks.
//!
//! Data-sieving **writes** are read-modify-write cycles: a region of the
//! file is read into the file buffer, user data is merged into it, and the
//! buffer is written back. The paper (Section 2.2) notes that "the related
//! region of the file is locked to prevent non-related data from being
//! overwritten by now obsolete data in the gaps in the file buffer". This
//! module provides that lock: an advisory byte-range lock manager shared
//! by all processes accessing a file. A lock that has to wait for an
//! overlapping range counts the wait in `pfs.lock.waits` and its time in
//! `pfs.lock.wait_ns`; one that does not records nothing.

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

use lio_obs::{LazyCounter, LazyHistogram};

static OBS_LOCK_WAITS: LazyCounter = LazyCounter::new("pfs.lock.waits");
static OBS_LOCK_WAIT_NS: LazyHistogram = LazyHistogram::new("pfs.lock.wait_ns");

#[derive(Default)]
struct LockState {
    /// Currently held exclusive ranges.
    held: Vec<Range<u64>>,
}

/// An advisory byte-range lock manager.
///
/// Ranges are exclusive; acquiring a range blocks while any overlapping
/// range is held. Guards release on drop.
#[derive(Clone, Default)]
pub struct RangeLock {
    inner: Arc<(Mutex<LockState>, Condvar)>,
}

/// RAII guard for a held range; releases on drop.
pub struct RangeGuard {
    lock: RangeLock,
    range: Range<u64>,
}

impl RangeLock {
    /// A new, unheld lock manager.
    pub fn new() -> RangeLock {
        RangeLock::default()
    }

    /// Acquire an exclusive lock on `range`, blocking until no overlapping
    /// range is held. Empty ranges succeed immediately and hold nothing.
    pub fn lock(&self, range: Range<u64>) -> RangeGuard {
        if range.start >= range.end {
            return RangeGuard {
                lock: self.clone(),
                range: 0..0,
            };
        }
        let (mutex, cond) = &*self.inner;
        let mut state = mutex.lock().unwrap();
        let busy = |s: &LockState| s.held.iter().any(|h| overlap(h, &range));
        if busy(&state) {
            // counted before it waits, so a wait in progress is seen
            OBS_LOCK_WAITS.incr();
            let _waiting = OBS_LOCK_WAIT_NS.span();
            while busy(&state) {
                state = cond.wait(state).unwrap();
            }
        }
        state.held.push(range.clone());
        RangeGuard {
            lock: self.clone(),
            range,
        }
    }

    /// Try to acquire `range` without blocking.
    pub fn try_lock(&self, range: Range<u64>) -> Option<RangeGuard> {
        if range.start >= range.end {
            return Some(RangeGuard {
                lock: self.clone(),
                range: 0..0,
            });
        }
        let (mutex, _) = &*self.inner;
        let mut state = mutex.lock().unwrap();
        if state.held.iter().any(|h| overlap(h, &range)) {
            return None;
        }
        state.held.push(range.clone());
        Some(RangeGuard {
            lock: self.clone(),
            range,
        })
    }

    /// Number of ranges currently held (diagnostics).
    pub fn held_count(&self) -> usize {
        self.inner.0.lock().unwrap().held.len()
    }
}

impl Drop for RangeGuard {
    fn drop(&mut self) {
        if self.range.start >= self.range.end {
            return;
        }
        let (mutex, cond) = &*self.lock.inner;
        let mut state = mutex.lock().unwrap();
        if let Some(i) = state
            .held
            .iter()
            .position(|h| h.start == self.range.start && h.end == self.range.end)
        {
            state.held.swap_remove(i);
        }
        cond.notify_all();
    }
}

fn overlap(a: &Range<u64>, b: &Range<u64>) -> bool {
    a.start < b.end && b.start < a.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn disjoint_ranges_coexist() {
        let l = RangeLock::new();
        let _a = l.lock(0..10);
        let _b = l.lock(10..20);
        assert_eq!(l.held_count(), 2);
    }

    #[test]
    fn overlap_blocks_try_lock() {
        let l = RangeLock::new();
        let _a = l.lock(0..10);
        assert!(l.try_lock(5..15).is_none());
        assert!(l.try_lock(10..15).is_some());
    }

    #[test]
    fn release_unblocks() {
        let l = RangeLock::new();
        let a = l.lock(0..10);
        assert!(l.try_lock(0..5).is_none());
        drop(a);
        assert!(l.try_lock(0..5).is_some());
    }

    #[test]
    fn empty_range_is_free() {
        let l = RangeLock::new();
        let _a = l.lock(5..5);
        assert_eq!(l.held_count(), 0);
        assert!(l.try_lock(0..100).is_some());
    }

    #[test]
    fn blocking_lock_waits_for_release() {
        let l = RangeLock::new();
        let guard = l.lock(0..100);
        let l2 = l.clone();
        let handle = std::thread::spawn(move || {
            let _g = l2.lock(50..60);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(guard);
        handle.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // Many threads lock the same range and increment a non-atomic
        // counter; the lock must serialize them.
        let l = RangeLock::new();
        let in_section = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _g = l.lock(10..20);
                        let now = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }
}
