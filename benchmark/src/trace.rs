//! Spans recorded from the benchmark's own files: around each `File`
//! call, and around every storage request by way of [`TimedFile`].
//!
//! Each rank thread records into its own buffer, armed only in a traced
//! round; spans stay in memory until the run ends. A disarmed thread
//! pays one thread-local check per [`span`] call, and an untraced round
//! does not wrap its storage at all.

use std::cell::RefCell;
use std::io;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use lio_pfs::{StorageFile, SubmissionQueue};

/// One timed interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// The operation this span belongs to; equal on every rank.
    pub op_id: u64,
    /// Index of the span that caused this one, in the same vector.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes of the call.
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    rank: u32,
    op_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording on this thread.
pub fn arm(rank: u32) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            op_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording on this thread and hand over what was recorded.
pub fn disarm() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

/// Spans opened from now on belong to operation `op_id`.
pub fn set_op(op_id: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op_id = op_id;
        }
    });
}

/// Run `f` inside a span; the span open on this thread is its parent.
pub fn span<T>(name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
    let id = REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            rec.spans.push(Span {
                name,
                rank: rec.rank,
                op_id: rec.op_id,
                parent: rec.open.last().copied(),
                start_ns: now_ns(),
                end_ns: 0,
                bytes,
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        let end = now_ns();
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = end;
                rec.open.pop();
            }
        });
    }
    out
}

/// Append one rank's spans to `all`, keeping parent links valid.
pub fn merge(all: &mut Vec<Span>, mut spans: Vec<Span>) {
    let base = all.len();
    for s in &mut spans {
        s.parent = s.parent.map(|p| p + base);
    }
    all.append(&mut spans);
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// A storage decorator that records a span per request. Unlike the
/// decorators in `lio_pfs`, it forwards the submission queue, so the
/// engine drives the wrapped backend exactly as it drives the bare one.
pub struct TimedFile {
    inner: Arc<dyn StorageFile>,
}

impl TimedFile {
    pub fn new(inner: Arc<dyn StorageFile>) -> TimedFile {
        TimedFile { inner }
    }
}

impl StorageFile for TimedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        span("pfs.read_at", buf.len() as u64, || {
            self.inner.read_at(offset, buf)
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        span("pfs.write_at", buf.len() as u64, || {
            self.inner.write_at(offset, buf)
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        span("pfs.sync", 0, || self.inner.sync())
    }

    fn submission(&self) -> Option<&SubmissionQueue> {
        self.inner.submission()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            rank: 0,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(None, 0, 100),     // parent
            sp(Some(0), 10, 30),  // child
            sp(Some(0), 20, 50),  // overlaps the first child
            sp(Some(0), 70, 120), // clipped to the parent's end
            sp(Some(2), 25, 35),  // grandchild: only its own parent pays
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 30, 20, 30 - 10, 50, 10]);
    }

    #[test]
    fn spans_nest_and_disarmed_threads_record_nothing() {
        assert_eq!(span("off", 1, || 7), 7);
        assert!(disarm().is_empty());

        arm(3);
        set_op(42);
        span("outer", 8, || span("inner", 4, || ()));
        span("next", 0, || ());
        let spans = disarm();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].bytes),
            ("outer", None, 8)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("next", None));
        assert!(spans.iter().all(|s| s.rank == 3 && s.op_id == 42));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut all = vec![sp(None, 0, 1)];
        merge(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
    }

    #[test]
    fn timed_file_records_requests_and_forwards_the_rest() {
        let f = TimedFile::new(Arc::new(lio_pfs::MemFile::new()));
        arm(0);
        f.write_at(0, &[1, 2, 3, 4]).unwrap();
        let mut back = [0u8; 4];
        f.read_at(0, &mut back).unwrap();
        let spans = disarm();
        assert_eq!(back, [1, 2, 3, 4]);
        assert_eq!(f.len(), 4);
        assert!(f.submission().is_none());
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.bytes)).collect();
        assert_eq!(names, vec![("pfs.write_at", 4), ("pfs.read_at", 4)]);
    }
}
