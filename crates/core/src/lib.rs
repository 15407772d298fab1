//! # lio-core — MPI-IO-style non-contiguous file access
//!
//! The reproduction of the SC'03 paper's MPI-IO layer (MPI/SX's
//! ROMIO-derived implementation), with both datatype-handling engines:
//!
//! * **list-based** ([`Hints::list_based`]) — the conventional technique
//!   of paper Section 2: explicit flattening into ol-lists, linear-list
//!   navigation, per-access memtype flattening, ol-list exchange for
//!   two-phase collective access, and the `O(Σ Nblock)` list merge for
//!   the collective-write optimization;
//! * **listless** ([`Hints::listless`]) — the paper's contribution
//!   (Section 3): flattening-on-the-fly pack/unpack and navigation,
//!   fileview caching (compact datatype exchange once per `set_view`),
//!   and the mergeview covered-window test.
//!
//! Both engines share the same data sieving and two-phase skeletons, so
//! measured differences isolate exactly the non-contiguous datatype
//! handling — the paper's experimental design. Every collective is
//! two-phase; a listless one exchanges no data, because its io-processes
//! move every rank's bytes where they lie in the user buffer the rank lends
//! ([`File::write_at_all`], [`File::read_at_all`]).
//!
//! ## Quick example
//!
//! ```
//! use lio_core::{File, Hints, SharedFile};
//! use lio_datatype::Datatype;
//! use lio_mpi::World;
//! use lio_pfs::MemFile;
//!
//! let shared = SharedFile::new(MemFile::new());
//! World::run(2, |comm| {
//!     let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
//!     // each rank views every second double, interleaved
//!     let ft = Datatype::vector(4, 1, 2, &Datatype::double()).unwrap();
//!     let disp = comm.rank() as u64 * 8;
//!     f.set_view(disp, Datatype::double(), ft).unwrap();
//!     let data = vec![comm.rank() as u8; 32];
//!     f.write_at_all(0, &data, 32, &Datatype::byte()).unwrap();
//! });
//! assert_eq!(shared.len(), 64);
//! ```

pub mod error;
pub mod file;
pub mod hints;
pub mod packer;
mod scratch;
pub mod sieve;
pub mod twophase;
pub mod view;
mod window;

pub use error::{IoError, Result};
pub use file::{File, SharedFile};
pub use hints::{BackendKind, Engine, HintError, Hints, SievingMode};
pub use view::FileView;
