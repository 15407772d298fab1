//! The access-pattern profile: a view of the metric registry. It records
//! nothing of its own; [`Profile::of`] reads a registry [`Snapshot`] by
//! name, and `repro profile` prints each workload's
//! [`Profile::characterize`] line beside that snapshot in
//! `results/profile.json`. Arming `metrics` (or its other name in the
//! switch, `profile`) arms everything it reads:
//!
//! * requests per op class: the count of each `core.<op>.ns` span, and
//!   bytes per op class: its `core.<op>.bytes` counter, for the four entry
//!   points of [`OPS`];
//! * the last fileview's shape: the `core.view.{size,extent,leaf_runs}`
//!   gauges (density and mean block);
//! * run lengths: the copy loops' `dt.run.len`;
//! * compiled programs and the normalization pass's rewrites:
//!   `dt.compile.programs`, `dt.normalize.rewrites`;
//! * storage request sizes: `pfs.{read,write}.size`;
//! * the collective phases: `core.coll.{write,read}.*_ns`, which the
//!   trace layer's spans charge (the outermost span of each phase of the
//!   one tag table, [`crate::trace::phase_of`]), tracing on or off.

use crate::{HistogramSnapshot, Snapshot};

/// The op classes, each named by its entry point in `lio-core`.
pub const OPS: [&str; 4] = ["write_at", "read_at", "write_at_all", "read_at_all"];

/// Requests and bytes of one op class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    pub requests: u64,
    pub bytes: u64,
}

/// Shape of the last-established fileview's filetype.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    pub size: u64,
    pub extent: u64,
    pub leaf_runs: u64,
}

impl ViewStats {
    /// Data density within the filetype extent (1.0 = fully dense).
    pub fn density(&self) -> f64 {
        ratio(self.size, self.extent)
    }

    /// Mean contiguous block size of the filetype, bytes.
    pub fn mean_block(&self) -> f64 {
        ratio(self.size, self.leaf_runs)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Nanoseconds of one collective direction's phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNs {
    pub exchange_ns: u64,
    pub io_ns: u64,
    pub pack_ns: u64,
}

impl PhaseNs {
    pub fn total(&self) -> u64 {
        self.exchange_ns + self.io_ns + self.pack_ns
    }

    /// The dominant phase name and its fraction of the total.
    pub fn bounding(&self) -> (&'static str, f64) {
        let t = self.total();
        if t == 0 {
            return ("none", 0.0);
        }
        let (name, v) = [
            ("exchange", self.exchange_ns),
            ("io", self.io_ns),
            ("pack", self.pack_ns),
        ]
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .unwrap();
        (name, v as f64 / t as f64)
    }
}

/// The profile read off one registry snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Per op class, in the order of [`OPS`].
    pub ops: [OpStats; 4],
    pub view: ViewStats,
    pub runs: HistogramSnapshot,
    pub programs: u64,
    pub rewrites: u64,
    pub storage_reads: HistogramSnapshot,
    pub storage_writes: HistogramSnapshot,
    pub coll_write: PhaseNs,
    pub coll_read: PhaseNs,
}

/// The profile of the registry as it stands.
pub fn snapshot() -> Profile {
    Profile::of(&crate::snapshot())
}

impl Profile {
    /// Read the profile's names out of `s`; a name never registered reads
    /// as zero.
    pub fn of(s: &Snapshot) -> Profile {
        let hist = |name: &str| s.histogram(name).cloned().unwrap_or_default();
        let phase = |dir: &str| PhaseNs {
            exchange_ns: s.counter(&format!("core.coll.{dir}.exchange_ns")),
            io_ns: s.counter(&format!("core.coll.{dir}.io_ns")),
            pack_ns: s.counter(&format!("core.coll.{dir}.pack_ns")),
        };
        Profile {
            ops: OPS.map(|op| OpStats {
                requests: hist(&format!("core.{op}.ns")).count,
                bytes: s.counter(&format!("core.{op}.bytes")),
            }),
            view: ViewStats {
                size: s.gauge("core.view.size"),
                extent: s.gauge("core.view.extent"),
                leaf_runs: s.gauge("core.view.leaf_runs"),
            },
            runs: hist("dt.run.len"),
            programs: s.counter("dt.compile.programs"),
            rewrites: s.counter("dt.normalize.rewrites"),
            storage_reads: hist("pfs.read.size"),
            storage_writes: hist("pfs.write.size"),
            coll_write: phase("write"),
            coll_read: phase("read"),
        }
    }

    /// Totals of the op class named `op` (one of [`OPS`]).
    pub fn op(&self, op: &str) -> OpStats {
        let i = OPS.iter().position(|&o| o == op);
        self.ops[i.unwrap_or_else(|| panic!("no op class {op:?}"))]
    }

    /// Combined collective phase breakdown (write + read).
    pub fn coll_phases(&self) -> PhaseNs {
        let (w, r) = (self.coll_write, self.coll_read);
        PhaseNs {
            exchange_ns: w.exchange_ns + r.exchange_ns,
            io_ns: w.io_ns + r.io_ns,
            pack_ns: w.pack_ns + r.pack_ns,
        }
    }

    /// One-line characterization for the report table, e.g. `"write-heavy,
    /// 25% dense view, 64 B mean block, 64 B median run, io-bound (93%)"`.
    pub fn characterize(&self) -> String {
        let bytes = |ops: [&str; 2]| ops.map(|op| self.op(op).bytes).iter().sum::<u64>();
        let (wr, rd) = (
            bytes(["write_at", "write_at_all"]),
            bytes(["read_at", "read_at_all"]),
        );
        let dir = if wr > rd * 2 {
            "write-heavy"
        } else if rd > wr * 2 {
            "read-heavy"
        } else {
            "mixed r/w"
        };
        let view = format!(
            "{:.0}% dense view, {:.0} B mean block",
            self.view.density() * 100.0,
            self.view.mean_block()
        );
        let median = format!("{} B median run", self.runs.p50());
        let (phase, frac) = self.coll_phases().bounding();
        let bound = if phase == "none" {
            "no phase breakdown".to_string()
        } else {
            format!("{phase}-bound ({:.0}%)", frac * 100.0)
        };
        let progs = if self.programs == 0 {
            String::new()
        } else {
            format!(
                ", {} programs, {} rewritten by normalization",
                self.programs, self.rewrites
            )
        };
        format!("{dir}, {view}, {median}, {bound}{progs}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_enabled;
    use crate::{LazyCounter, LazyGauge, LazyHistogram};

    static WRITE_ALL_NS: LazyHistogram = LazyHistogram::new("core.write_at_all.ns");
    static WRITE_ALL_BYTES: LazyCounter = LazyCounter::new("core.write_at_all.bytes");
    static VIEW_SIZE: LazyGauge = LazyGauge::new("core.view.size");
    static VIEW_EXTENT: LazyGauge = LazyGauge::new("core.view.extent");
    static VIEW_RUNS: LazyGauge = LazyGauge::new("core.view.leaf_runs");
    static RUN_LEN: LazyHistogram = LazyHistogram::new("dt.run.len");
    static PROGRAMS: LazyCounter = LazyCounter::new("dt.compile.programs");
    static REWRITES: LazyCounter = LazyCounter::new("dt.normalize.rewrites");
    static PFS_WRITE: LazyHistogram = LazyHistogram::new("pfs.write.size");
    static EXCHANGE: LazyCounter = LazyCounter::new("core.coll.write.exchange_ns");

    /// What the entry points, the copy loops, the compiler and the
    /// storage record under the profile's names, for one collective write.
    fn record_a_write() {
        for _ in 0..2 {
            WRITE_ALL_NS.record(1_000);
            WRITE_ALL_BYTES.add(1 << 20);
        }
        VIEW_SIZE.set(1 << 16);
        VIEW_EXTENT.set(1 << 18);
        VIEW_RUNS.set(128);
        RUN_LEN.record_n(512, 3);
        PROGRAMS.add(2);
        REWRITES.add(3);
        PFS_WRITE.record(4096);
        EXCHANGE.add(6_000);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        with_enabled(|| {
            record_a_write();
            let p = snapshot();
            let w = p.op("write_at_all");
            assert_eq!((w.requests, w.bytes), (2, 2 << 20));
            assert_eq!(p.op("read_at"), OpStats::default());
            assert_eq!(p.view.leaf_runs, 128);
            assert!((p.view.density() - 0.25).abs() < 1e-9);
            assert_eq!(p.view.mean_block(), 512.0);
            assert_eq!((p.runs.count, p.runs.p50()), (3, 512));
            assert_eq!((p.programs, p.rewrites), (2, 3));
            assert_eq!(p.storage_writes.count, 1);
            assert_eq!(p.coll_write.bounding(), ("exchange", 1.0));
        });
    }

    #[test]
    fn disabled_records_nothing() {
        with_enabled(|| {
            crate::set_enabled(false);
            record_a_write();
            assert_eq!(snapshot(), Profile::default());
        });
    }

    #[test]
    fn characterize_names_direction_and_bound() {
        let mut p = Profile::default();
        p.ops[2] = OpStats {
            requests: 4,
            bytes: 4 << 20,
        };
        p.view = ViewStats {
            size: 1 << 20,
            extent: 4 << 20,
            leaf_runs: 1024,
        };
        p.coll_write = PhaseNs {
            exchange_ns: 6_000_000,
            io_ns: 3_000_000,
            pack_ns: 1_000_000,
        };
        let line = p.characterize();
        assert!(line.contains("write-heavy"), "{line}");
        assert!(line.contains("25% dense view, 1024 B mean block"), "{line}");
        assert!(line.contains("exchange-bound (60%)"), "{line}");
        p.programs = 4;
        assert!(p
            .characterize()
            .ends_with("4 programs, 0 rewritten by normalization"));
    }
}
