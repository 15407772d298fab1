//! # lio-pfs — the storage substrate
//!
//! The paper's testbed is the local file system of NEC SX-6/SX-7 nodes
//! (6.5 GB/s writes, 8 GB/s reads). This crate provides the stand-in:
//!
//! * [`StorageFile`] — the positional-I/O trait the MPI-IO layer is
//!   written against;
//! * [`MemFile`] — a thread-safe, lock-striped in-memory file whose
//!   transfer rate is memcpy bandwidth and whose writers to disjoint
//!   stripes run in parallel (the "fast parallel file system" regime
//!   where listless I/O matters most);
//! * [`UnixFile`] — the real-storage backend: a kernel file reached with
//!   `pread`/`pwrite`, lending what lies inside it through one shared
//!   mapping ([`UnixFile::temp`] makes an unlinked one in [`os_dir`]);
//! * [`Decorated`] — one decorator over any of them, which does what its
//!   [`Policy`] says with each request, `sync` and lend:
//!   [`Throttle`], a calibrated bandwidth/latency model for emulating
//!   slower storage ([`Throttle::sx6_local_fs`],
//!   [`Throttle::commodity_nfs`]); [`Counter`], access/byte counters for
//!   the overhead ablations; [`Faults`], seeded deterministic fault
//!   injection (short transfers, transient errors, torn writes, flush
//!   failures), with the bounded recovery loops in [`retry`];
//! * [`RangeLock`] — the byte-range lock that data-sieving writes need for
//!   their read-modify-write cycle.

pub mod decorate;
pub mod file;
pub mod lock;
mod map;
pub mod retry;

pub use decorate::{Counter, Decorated, FaultPlan, Faults, Go, IoStats, Op, Policy, Throttle};
pub use file::{os_dir, MemFile, StorageFile, SubmissionQueue, UnixFile};
pub use lock::{RangeGuard, RangeLock};
pub use retry::{RetryExhausted, RetryPolicy};
