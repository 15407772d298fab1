//! # lio-mpi — an in-process message-passing substrate
//!
//! The paper's two-phase collective I/O moves data *and metadata* between
//! MPI processes; the list-based engine's defining cost is the ol-list
//! exchange. To reproduce those effects without an MPI installation (Rust
//! MPI bindings expose neither datatype internals nor an MPI-IO layer),
//! this crate provides a small, faithful message-passing world:
//!
//! * ranks are threads ([`World::run`]); each owns a [`Comm`] endpoint;
//! * point-to-point messages carry real payloads through per-pair
//!   channels with MPI-style `(source, tag)` matching, so communication
//!   volume is physically realized and counted ([`Comm::stats`]);
//! * collectives (barrier, bcast, gather, allgather, alltoall, allreduce)
//!   are built on point-to-point, as in an MPI library;
//! * lending scopes let every rank read the bytes every rank lent
//!   ([`Comm::lend`]), or write the piece each rank lent it alone
//!   ([`Comm::lend_mut`]), where they lie — the one thing threads of one
//!   address space can do that processes cannot, made sound by a closing
//!   barrier and a borrow the scope cannot outlive;
//! * a deterministic fault injector ([`CommFaultPlan`]) perturbs delivery
//!   (duplicates, delays, `wait_any` completion order) without violating
//!   the semantics correct programs rely on.
//!
//! Shared-memory transport stands in for the SX crossbar; see DESIGN.md
//! for the substitution argument.

pub mod coll;
pub mod comm;
pub mod fault;
pub mod lend;
pub mod world;

pub use comm::{Comm, CommStats, Request, ANY_SOURCE};
pub use fault::{CommFaultPlan, CommFaultStats};
pub use lend::{Lent, LentMut};
pub use world::World;
