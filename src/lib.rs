//! # listless-io
//!
//! A comprehensive Rust reproduction of *Fast Parallel Non-Contiguous
//! File Access* (Worringen, Träff, Ritzdorf; SC'03) — the **listless
//! I/O** technique for MPI-IO-style non-contiguous file access, together
//! with the list-based baseline it replaces, the substrates both need
//! (derived datatypes, an in-process message-passing world, a storage
//! layer), and the paper's two benchmarks.
//!
//! This facade crate re-exports the workspace members under friendly
//! names; see each crate for details:
//!
//! * [`datatype`] — derived datatypes; ol-list flattening vs
//!   flattening-on-the-fly,
//! * [`obs`] — telemetry: metrics (counters, histograms, span timers,
//!   JSON snapshots), event trace, profiler and health layer, armed as
//!   one set (`LIO_OBS=metrics,trace`, `LIO_OBS=all`, or the `lio_obs`
//!   hint),
//! * [`pfs`] — storage substrate (mem/disk/throttled/counting files),
//! * [`mpi`] — threads-as-ranks message passing,
//! * [`core`] — fileviews, data sieving, two-phase collective I/O,
//! * [`noncontig`] — the synthetic benchmark of the paper's Section 4.1,
//! * [`btio`] — the BTIO application kernel of Section 4.2.
//!
//! ```
//! use listless_io::prelude::*;
//!
//! let shared = SharedFile::new(MemFile::new());
//! World::run(2, |comm| {
//!     let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
//!     let ft = Datatype::vector(8, 1, 2, &Datatype::double()).unwrap();
//!     f.set_view(comm.rank() as u64 * 8, Datatype::double(), ft).unwrap();
//!     let mine = vec![comm.rank() as u8; 64];
//!     f.write_at_all(0, &mine, 64, &Datatype::byte()).unwrap();
//! });
//! assert_eq!(shared.len(), 128);
//! ```

pub use lio_btio as btio;
pub use lio_core as core;
pub use lio_datatype as datatype;
pub use lio_mpi as mpi;
pub use lio_noncontig as noncontig;
pub use lio_obs as obs;
pub use lio_pfs as pfs;

/// The most common imports in one place.
pub mod prelude {
    pub use lio_core::{Engine, File, FileView, Hints, SharedFile};
    pub use lio_datatype::{Datatype, Field, Order};
    pub use lio_mpi::{Comm, World};
    pub use lio_pfs::{MemFile, StorageFile, Throttle, ThrottledFile, UnixFile};
}
