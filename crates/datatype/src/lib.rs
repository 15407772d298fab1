//! # lio-datatype — MPI-style derived datatypes with listless handling
//!
//! This crate implements the datatype machinery underlying the SC'03 paper
//! *Fast Parallel Non-Contiguous File Access* (Worringen, Träff, Ritzdorf):
//!
//! * [`Datatype`] — immutable derived-datatype trees mirroring the MPI
//!   constructors (contiguous, vector, hvector, indexed, hindexed,
//!   indexed_block, struct, subarray, resized, LB/UB markers), with MPI
//!   size/extent/bound semantics;
//! * [`OlList`] — **explicit flattening** into `⟨offset, length⟩` lists,
//!   the list-based baseline the paper attributes to ROMIO, complete with
//!   its `O(Nblock)` costs in time and memory and its linear-traversal
//!   navigation; [`OlList::flatten`] expands the type's compiled
//!   [`RunProgram`], the one interpreter both engines share; a
//!   collective's access lists travel as [`OlWire`] tuples
//!   ([`OlList::encode_tiled`]) and merge through [`OlList::merge_lists`];
//!   every list-based copy is one [`CoWalk`] of two lists' [`RunCursor`]s;
//! * [`ff_pack`], [`ff_unpack`], [`ff_size`], [`ff_extent`] —
//!   **flattening-on-the-fly**, the paper's listless alternative:
//!   `O(depth)` seek, `O(depth · log k)` navigation, and pack/unpack whose
//!   cost is proportional only to the bytes moved. Every listless copy
//!   runs the type's compiled [`RunProgram`] ([`Datatype::program`]), and
//!   every navigation descends it ([`RunProgram::offset_of`],
//!   [`RunProgram::bytes_below`]);
//!   [`ff_transfer_to`]/[`ff_transfer_from`] move data between two typed
//!   buffers in one copy where pack + unpack make two, and [`zip_rows`]
//!   fills rows of two interleaved 8-byte blocks from two typed buffers in
//!   one pass;
//! * [`serialize`] — the compact tree encoding exchanged once per fileview
//!   by the fileview-caching optimization.
//!
//! The [`typemap`] module provides a deliberately naive reference
//! expansion, the one differential-testing oracle of copies, flattening
//! and navigation alike.
//!
//! ## Quick example
//!
//! ```
//! use lio_datatype::{Datatype, ff_pack, ff_size, OlList};
//!
//! // 8 blocks of one double, stride two doubles (the noncontig pattern):
//! let d = Datatype::vector(8, 1, 2, &Datatype::double()).unwrap();
//! let src: Vec<u8> = (0..d.extent() as u8).collect();
//!
//! // listless: pack without ever materializing a block list
//! let mut packed = vec![0u8; d.size() as usize];
//! assert_eq!(ff_pack(&src, 1, &d, 0, &mut packed), packed.len());
//!
//! // list-based: the same result via an explicit ol-list
//! let ol = OlList::flatten(&d, 1);
//! let mut packed2 = vec![0u8; d.size() as usize];
//! ol.pack(&src, 0, &mut packed2);
//! assert_eq!(packed, packed2);
//!
//! // navigation in O(depth): bytes of data in the first 48 bytes of file
//! assert_eq!(ff_size(&d, 0, 48), 24);
//! ```

pub mod darray;
pub mod ff;
pub mod flatten;
pub mod kernels;
pub mod program;
pub mod serialize;
pub mod strided;
mod transfer;
pub mod typemap;
pub mod types;

pub use darray::{darray, Distrib};
pub use ff::{
    bytes_below_tiled, ff_extent, ff_offset, ff_pack, ff_pack_at, ff_size, ff_transfer_from,
    ff_transfer_to, ff_unpack, ff_unpack_at,
};
pub use flatten::{disjoint_tilings, CoWalk, OlList, OlPos, OlSeg, OlWire, RunCursor, TUPLE_BYTES};
pub use program::RunProgram;
pub use strided::StridedSpec;
pub use transfer::{zip_rows, zips, Column, ZIP_BLOCK};
pub use typemap::Run;
pub use types::{Datatype, Field, HBlock, Order, TypeError, TypeKind};
