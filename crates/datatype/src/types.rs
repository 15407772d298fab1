//! The derived-datatype tree: constructors and cached per-node metadata.
//!
//! A [`Datatype`] is an immutable, reference-counted tree mirroring the MPI
//! derived-datatype constructors (`MPI_Type_contiguous`, `MPI_Type_vector`,
//! `MPI_Type_create_hvector`, `MPI_Type_indexed`, `MPI_Type_create_hindexed`,
//! `MPI_Type_create_struct`, `MPI_Type_create_subarray`,
//! `MPI_Type_create_resized`, and the MPI-1 `MPI_LB`/`MPI_UB` markers).
//!
//! Every node caches the quantities both I/O engines need in `O(1)`:
//! `size` (true data bytes per instance), `lb`/`ub` (extent bounds, marker
//! aware), `depth` (tree depth — the paper's low-order cost term for
//! flattening-on-the-fly), and block statistics. Seeking to a data offset
//! and counting the data below a position run on the compiled program
//! ([`crate::RunProgram`]), whose tails carry the prefix sums of their
//! parts' sizes.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::program::RunProgram;

/// Errors arising from datatype construction or use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A count, blocklength, or size parameter was negative in spirit
    /// (we use unsigned types, so this reports impossible combinations).
    InvalidCount(String),
    /// Mismatched argument lengths (e.g. displacements vs blocklengths).
    LengthMismatch { left: usize, right: usize },
    /// A subarray specification was inconsistent.
    InvalidSubarray(String),
    /// The type is not usable in the requested role (e.g. as a filetype).
    InvalidUsage(String),
    /// Deserialization of a compact type representation failed.
    Corrupt(String),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::InvalidCount(s) => write!(f, "invalid count: {s}"),
            TypeError::LengthMismatch { left, right } => {
                write!(f, "argument length mismatch: {left} vs {right}")
            }
            TypeError::InvalidSubarray(s) => write!(f, "invalid subarray: {s}"),
            TypeError::InvalidUsage(s) => write!(f, "invalid usage: {s}"),
            TypeError::Corrupt(s) => write!(f, "corrupt type encoding: {s}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Array storage order for [`Datatype::subarray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Row-major (last dimension contiguous), like C and `MPI_ORDER_C`.
    C,
    /// Column-major (first dimension contiguous), like Fortran and
    /// `MPI_ORDER_FORTRAN`.
    Fortran,
}

/// One block of an `hindexed`-style node: `blocklen` child instances placed
/// at byte displacement `disp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HBlock {
    /// Byte displacement of the block relative to the node origin.
    pub disp: i64,
    /// Number of consecutive child instances in this block.
    pub blocklen: u64,
}

/// One field of a struct node: `count` instances of `child` at byte
/// displacement `disp`.
#[derive(Debug, Clone)]
pub struct Field {
    /// Byte displacement of the field relative to the node origin.
    pub disp: i64,
    /// Repetition count of the child type.
    pub count: u64,
    /// The field's datatype.
    pub child: Datatype,
}

/// The constructor variants of a datatype node.
#[derive(Debug, Clone)]
pub enum TypeKind {
    /// An elementary type of `size` bytes (e.g. 1 = `MPI_BYTE`,
    /// 8 = `MPI_DOUBLE`). The typemap is a single run at displacement 0.
    Basic { size: u32 },
    /// MPI-1 `MPI_LB`: a zero-size marker pinning the lower bound.
    LbMark,
    /// MPI-1 `MPI_UB`: a zero-size marker pinning the upper bound.
    UbMark,
    /// `count` child instances tiled at multiples of the child extent.
    Contiguous { count: u64, child: Datatype },
    /// `count` blocks of `blocklen` child instances; block `i` starts at
    /// byte `i * stride` (`stride` is in **bytes**; the element-stride
    /// constructor converts). Covers both `vector` and `hvector`.
    Hvector {
        count: u64,
        blocklen: u64,
        stride: i64,
        child: Datatype,
    },
    /// Blocks of child instances at explicit byte displacements. Covers
    /// `indexed`, `hindexed`, and `indexed_block`.
    Hindexed {
        blocks: Arc<[HBlock]>,
        child: Datatype,
    },
    /// Heterogeneous fields at explicit byte displacements.
    Struct { fields: Arc<[Field]> },
    /// The child with overridden lower bound and extent
    /// (`MPI_Type_create_resized`).
    Resized {
        lb: i64,
        extent: u64,
        child: Datatype,
    },
}

/// Cached metadata for one node; computed once at construction.
#[derive(Debug)]
pub(crate) struct Meta {
    /// True data bytes in one instance of the type.
    pub size: u64,
    /// Effective lower bound in bytes (marker/resize aware).
    pub lb: i64,
    /// Effective upper bound in bytes (marker/resize aware); extent = ub-lb.
    pub ub: i64,
    /// Lowest byte touched by actual data (ignoring markers), or 0 if empty.
    pub data_lb: i64,
    /// One past the highest byte touched by actual data, or 0 if empty.
    pub data_ub: i64,
    /// Sticky explicit lower bound from an `MPI_LB` marker in the typemap.
    pub explicit_lb: Option<i64>,
    /// Sticky explicit upper bound from an `MPI_UB` marker in the typemap.
    pub explicit_ub: Option<i64>,
    /// Depth of the tree (a Basic leaf has depth 1).
    pub depth: u32,
    /// If the instance's data forms a single contiguous run, its start
    /// displacement.
    pub single_run: Option<i64>,
    /// Number of leaf runs per instance **before** adjacent-run merging:
    /// the ol-list length a naive flattener produces (the paper's Nblock
    /// upper bound).
    pub leaf_runs: u64,
    /// Whether all data displacements within one instance are monotone
    /// non-decreasing in typemap order, and non-negative — the MPI-IO
    /// precondition for filetypes and etypes.
    pub monotone: bool,
}

/// An immutable MPI-style derived datatype.
///
/// Cloning is cheap (`Arc`). All constructors validate their arguments and
/// return [`TypeError`] on inconsistent input.
///
/// # Example
///
/// ```
/// use lio_datatype::Datatype;
///
/// // A vector of 4 blocks of 2 doubles, stride 3 doubles:
/// let d = Datatype::vector(4, 2, 3, &Datatype::double()).unwrap();
/// assert_eq!(d.size(), 4 * 2 * 8);
/// assert_eq!(d.extent(), ((3 * 3) + 2) as u64 * 8);
/// ```
#[derive(Clone)]
pub struct Datatype(pub(crate) Arc<Node>);

#[derive(Debug)]
pub(crate) struct Node {
    pub kind: TypeKind,
    pub meta: Meta,
    /// Compiled run program, built lazily on first pack/unpack and shared
    /// by every clone of this node (see [`Datatype::program`]).
    pub program: OnceLock<Arc<RunProgram>>,
}

impl fmt::Debug for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datatype({:?}, size={}, lb={}, ub={})",
            self.kind_name(),
            self.size(),
            self.lb(),
            self.ub()
        )
    }
}

impl Datatype {
    // ----- elementary types ---------------------------------------------

    /// An elementary type of `size` bytes.
    pub fn basic(size: u32) -> Datatype {
        let size64 = size as u64;
        Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Basic { size },
            meta: Meta {
                size: size64,
                lb: 0,
                ub: size as i64,
                data_lb: 0,
                data_ub: size as i64,
                explicit_lb: None,
                explicit_ub: None,
                depth: 1,
                single_run: if size > 0 { Some(0) } else { None },
                leaf_runs: if size > 0 { 1 } else { 0 },
                monotone: true,
            },
        }))
    }

    /// `MPI_BYTE`: one byte.
    pub fn byte() -> Datatype {
        Datatype::basic(1)
    }

    /// `MPI_INT`: four bytes.
    pub fn int() -> Datatype {
        Datatype::basic(4)
    }

    /// `MPI_FLOAT`: four bytes.
    pub fn float() -> Datatype {
        Datatype::basic(4)
    }

    /// `MPI_DOUBLE`: eight bytes.
    pub fn double() -> Datatype {
        Datatype::basic(8)
    }

    /// The `MPI_LB` marker: zero-size, pins the lower bound of a struct.
    pub fn lb_marker() -> Datatype {
        Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::LbMark,
            meta: Meta {
                size: 0,
                lb: 0,
                ub: 0,
                data_lb: 0,
                data_ub: 0,
                explicit_lb: Some(0),
                explicit_ub: None,
                depth: 1,
                single_run: None,
                leaf_runs: 0,
                monotone: true,
            },
        }))
    }

    /// The `MPI_UB` marker: zero-size, pins the upper bound of a struct.
    pub fn ub_marker() -> Datatype {
        Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::UbMark,
            meta: Meta {
                size: 0,
                lb: 0,
                ub: 0,
                data_lb: 0,
                data_ub: 0,
                explicit_lb: None,
                explicit_ub: Some(0),
                depth: 1,
                single_run: None,
                leaf_runs: 0,
                monotone: true,
            },
        }))
    }

    // ----- derived constructors -----------------------------------------

    /// `MPI_Type_contiguous`: `count` child instances back to back.
    pub fn contiguous(count: u64, child: &Datatype) -> Result<Datatype, TypeError> {
        let ext = child.extent() as i64;
        let m = &child.0.meta;
        let size = m
            .size
            .checked_mul(count)
            .ok_or_else(|| TypeError::InvalidCount("contiguous size overflow".into()))?;
        let (data_lb, data_ub) = if count == 0 || m.size == 0 {
            (0, 0)
        } else {
            (m.data_lb, (count as i64 - 1) * ext + m.data_ub)
        };
        let explicit_lb = m.explicit_lb.map(|l| {
            // markers repeat with each instance; the minimum is at the first
            // or last instance depending on the sign of the extent
            if count == 0 {
                l
            } else {
                l.min((count as i64 - 1) * ext + l)
            }
        });
        let explicit_ub = m.explicit_ub.map(|u| {
            if count == 0 {
                u
            } else {
                u.max((count as i64 - 1) * ext + u)
            }
        });
        let lb = explicit_lb.unwrap_or(data_lb);
        let ub = explicit_ub.unwrap_or(data_ub);
        let single_run = match (count, m.single_run) {
            (0, _) => None,
            (1, s) => s,
            (_, Some(s)) if m.size == ext as u64 && ext >= 0 => Some(s),
            _ => None,
        };
        let leaf_runs = m.leaf_runs.saturating_mul(count);
        // Tiling a monotone child at non-negative multiples of a
        // non-negative extent stays monotone iff successive instances do
        // not interleave: instance i's data ends before instance i+1's
        // data begins.
        let monotone = m.monotone
            && data_lb >= 0
            && (count <= 1 || (ext >= 0 && m.data_ub <= ext + m.data_lb));
        Ok(Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Contiguous {
                count,
                child: child.clone(),
            },
            meta: Meta {
                size,
                lb,
                ub,
                data_lb,
                data_ub,
                explicit_lb,
                explicit_ub,
                depth: m.depth + 1,
                single_run,
                leaf_runs,
                monotone,
            },
        })))
    }

    /// `MPI_Type_vector`: `count` blocks of `blocklen` child instances,
    /// block starts `stride` child **extents** apart.
    pub fn vector(
        count: u64,
        blocklen: u64,
        stride: i64,
        child: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let ext = child.extent() as i64;
        Datatype::hvector(count, blocklen, stride * ext, child)
    }

    /// `MPI_Type_create_hvector`: like [`Datatype::vector`] but the stride
    /// is in **bytes**.
    pub fn hvector(
        count: u64,
        blocklen: u64,
        stride: i64,
        child: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let m = &child.0.meta;
        let ext = child.extent() as i64;
        let block_size = m
            .size
            .checked_mul(blocklen)
            .ok_or_else(|| TypeError::InvalidCount("hvector block size overflow".into()))?;
        let size = block_size
            .checked_mul(count)
            .ok_or_else(|| TypeError::InvalidCount("hvector size overflow".into()))?;

        // Displacements of the child instances: i*stride + j*ext for
        // i in 0..count, j in 0..blocklen.
        let empty = count == 0 || blocklen == 0;
        let span = |per_inst_lo: i64, per_inst_hi: i64| -> (i64, i64) {
            if empty {
                return (0, 0);
            }
            let last_block = (count as i64 - 1) * stride;
            let last_in_block = (blocklen as i64 - 1) * ext;
            let lo = per_inst_lo + 0i64.min(last_block) + 0i64.min(last_in_block);
            let hi = per_inst_hi + 0i64.max(last_block) + 0i64.max(last_in_block);
            (lo, hi)
        };
        let (data_lb, data_ub) = if empty || m.size == 0 {
            (0, 0)
        } else {
            span(m.data_lb, m.data_ub)
        };
        let explicit_lb = m.explicit_lb.map(|l| if empty { l } else { span(l, l).0 });
        let explicit_ub = m.explicit_ub.map(|u| if empty { u } else { span(u, u).1 });
        let lb = explicit_lb.unwrap_or(data_lb);
        let ub = explicit_ub.unwrap_or(data_ub);

        let dense_child = m.single_run.is_some() && m.size == ext as u64 && ext >= 0;
        let single_run = if empty {
            None
        } else if count == 1 && blocklen == 1 {
            m.single_run
        } else if dense_child && (count == 1 || stride == blocklen as i64 * ext) {
            // child instances tile seamlessly within and across blocks
            m.single_run
        } else {
            None
        };
        let leaf_runs = m.leaf_runs.saturating_mul(blocklen).saturating_mul(count);
        let block_extent = if blocklen == 0 {
            0
        } else {
            (blocklen as i64 - 1) * ext + m.data_ub - m.data_lb
        };
        let monotone = m.monotone
            && data_lb >= 0
            && ext >= 0
            && (blocklen <= 1 || m.data_ub <= ext + m.data_lb)
            && (count <= 1 || stride >= block_extent);
        Ok(Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Hvector {
                count,
                blocklen,
                stride,
                child: child.clone(),
            },
            meta: Meta {
                size,
                lb,
                ub,
                data_lb,
                data_ub,
                explicit_lb,
                explicit_ub,
                depth: m.depth + 1,
                single_run,
                leaf_runs,
                monotone,
            },
        })))
    }

    /// `MPI_Type_indexed`: blocks with displacements in child **extents**.
    pub fn indexed(
        blocklens: &[u64],
        disps: &[i64],
        child: &Datatype,
    ) -> Result<Datatype, TypeError> {
        if blocklens.len() != disps.len() {
            return Err(TypeError::LengthMismatch {
                left: blocklens.len(),
                right: disps.len(),
            });
        }
        let ext = child.extent() as i64;
        let blocks: Vec<HBlock> = blocklens
            .iter()
            .zip(disps)
            .map(|(&blocklen, &d)| HBlock {
                disp: d * ext,
                blocklen,
            })
            .collect();
        Datatype::hindexed_blocks(blocks, child)
    }

    /// `MPI_Type_create_hindexed`: blocks with displacements in **bytes**.
    pub fn hindexed(
        blocklens: &[u64],
        byte_disps: &[i64],
        child: &Datatype,
    ) -> Result<Datatype, TypeError> {
        if blocklens.len() != byte_disps.len() {
            return Err(TypeError::LengthMismatch {
                left: blocklens.len(),
                right: byte_disps.len(),
            });
        }
        let blocks: Vec<HBlock> = blocklens
            .iter()
            .zip(byte_disps)
            .map(|(&blocklen, &disp)| HBlock { disp, blocklen })
            .collect();
        Datatype::hindexed_blocks(blocks, child)
    }

    /// `MPI_Type_create_indexed_block`: equal-size blocks, displacements in
    /// child extents.
    pub fn indexed_block(
        blocklen: u64,
        disps: &[i64],
        child: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let ext = child.extent() as i64;
        let blocks: Vec<HBlock> = disps
            .iter()
            .map(|&d| HBlock {
                disp: d * ext,
                blocklen,
            })
            .collect();
        Datatype::hindexed_blocks(blocks, child)
    }

    fn hindexed_blocks(mut blocks: Vec<HBlock>, child: &Datatype) -> Result<Datatype, TypeError> {
        // Zero-length blocks contribute no typemap entries (not even
        // markers), so dropping them is semantically transparent and keeps
        // the block list's displacement order consistent with its data.
        blocks.retain(|b| b.blocklen > 0);
        let m = &child.0.meta;
        let ext = child.extent() as i64;

        let mut size: u64 = 0;
        let mut data_lb = i64::MAX;
        let mut data_ub = i64::MIN;
        let mut explicit_lb: Option<i64> = None;
        let mut explicit_ub: Option<i64> = None;
        let mut leaf_runs: u64 = 0;
        let needs_tiling = blocks.iter().any(|b| b.blocklen > 1);
        let mut monotone =
            m.monotone && ext >= 0 && (!needs_tiling || m.data_ub <= ext + m.data_lb);
        let mut prev_end: i64 = i64::MIN;

        for b in &blocks {
            let bsize = m.size.saturating_mul(b.blocklen);
            size = size
                .checked_add(bsize)
                .ok_or_else(|| TypeError::InvalidCount("hindexed size overflow".into()))?;
            leaf_runs = leaf_runs.saturating_add(m.leaf_runs.saturating_mul(b.blocklen));
            if b.blocklen > 0 {
                if m.size > 0 {
                    let lo = b.disp + m.data_lb;
                    let hi = b.disp + (b.blocklen as i64 - 1) * ext + m.data_ub;
                    data_lb = data_lb.min(lo);
                    data_ub = data_ub.max(hi);
                    if lo < prev_end || lo < 0 {
                        monotone = false;
                    }
                    prev_end = prev_end.max(hi);
                }
                if let Some(l) = m.explicit_lb {
                    let cand = b.disp + l;
                    explicit_lb = Some(explicit_lb.map_or(cand, |e| e.min(cand)));
                }
                if let Some(u) = m.explicit_ub {
                    let cand = b.disp + (b.blocklen as i64 - 1) * ext + u;
                    explicit_ub = Some(explicit_ub.map_or(cand, |e| e.max(cand)));
                }
            }
        }
        if data_lb == i64::MAX {
            data_lb = 0;
            data_ub = 0;
        }
        let lb = explicit_lb.unwrap_or(data_lb);
        let ub = explicit_ub.unwrap_or(data_ub);
        let single_run = single_run_of_blocks(&blocks, m, ext, size);
        Ok(Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Hindexed {
                blocks: blocks.into(),
                child: child.clone(),
            },
            meta: Meta {
                size,
                lb,
                ub,
                data_lb,
                data_ub,
                explicit_lb,
                explicit_ub,
                depth: m.depth + 1,
                single_run,
                leaf_runs,
                monotone,
            },
        })))
    }

    /// `MPI_Type_create_struct`: heterogeneous fields at byte displacements.
    ///
    /// `MPI_LB`/`MPI_UB` markers among the fields pin the bounds, exactly as
    /// in MPI-1 (this is how the paper's Figure 4 datatype sets its extent).
    pub fn struct_type(fields: Vec<Field>) -> Result<Datatype, TypeError> {
        let mut size: u64 = 0;
        let mut data_lb = i64::MAX;
        let mut data_ub = i64::MIN;
        let mut explicit_lb: Option<i64> = None;
        let mut explicit_ub: Option<i64> = None;
        let mut depth = 1;
        let mut leaf_runs: u64 = 0;
        let mut monotone = true;
        let mut prev_end: i64 = i64::MIN;

        for f in &fields {
            let m = &f.child.0.meta;
            let ext = f.child.extent() as i64;
            let fsize = m.size.saturating_mul(f.count);
            size = size
                .checked_add(fsize)
                .ok_or_else(|| TypeError::InvalidCount("struct size overflow".into()))?;
            depth = depth.max(m.depth + 1);
            leaf_runs = leaf_runs.saturating_add(m.leaf_runs.saturating_mul(f.count));
            if f.count > 0 {
                if m.size > 0 {
                    let lo = f.disp + m.data_lb;
                    let hi = f.disp + (f.count as i64 - 1) * ext + m.data_ub;
                    data_lb = data_lb.min(lo);
                    data_ub = data_ub.max(hi);
                    let tile_monotone =
                        m.monotone && ext >= 0 && (f.count <= 1 || m.data_ub <= ext + m.data_lb);
                    if !tile_monotone || lo < prev_end || lo < 0 {
                        monotone = false;
                    }
                    prev_end = prev_end.max(hi);
                }
                if let Some(l) = m.explicit_lb {
                    let cand = f.disp + l.min((f.count as i64 - 1) * ext + l);
                    explicit_lb = Some(explicit_lb.map_or(cand, |e| e.min(cand)));
                }
                if let Some(u) = m.explicit_ub {
                    let cand = f.disp + u.max((f.count as i64 - 1) * ext + u);
                    explicit_ub = Some(explicit_ub.map_or(cand, |e| e.max(cand)));
                }
            }
        }
        if data_lb == i64::MAX {
            data_lb = 0;
            data_ub = 0;
        }
        let lb = explicit_lb.unwrap_or(data_lb);
        let ub = explicit_ub.unwrap_or(data_ub);
        let single_run = single_run_of_fields(&fields, size);
        Ok(Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Struct {
                fields: fields.into(),
            },
            meta: Meta {
                size,
                lb,
                ub,
                data_lb,
                data_ub,
                explicit_lb,
                explicit_ub,
                depth,
                single_run,
                leaf_runs,
                monotone,
            },
        })))
    }

    /// `MPI_Type_create_resized`: override the child's lower bound and
    /// extent.
    pub fn resized(child: &Datatype, lb: i64, extent: u64) -> Result<Datatype, TypeError> {
        let m = &child.0.meta;
        Ok(Datatype(Arc::new(Node {
            program: OnceLock::new(),
            kind: TypeKind::Resized {
                lb,
                extent,
                child: child.clone(),
            },
            meta: Meta {
                size: m.size,
                lb,
                ub: lb + extent as i64,
                data_lb: m.data_lb,
                data_ub: m.data_ub,
                explicit_lb: Some(lb),
                explicit_ub: Some(lb + extent as i64),
                depth: m.depth + 1,
                single_run: m.single_run,
                leaf_runs: m.leaf_runs,
                monotone: m.monotone && m.data_lb >= 0,
            },
        })))
    }

    /// `MPI_Type_create_subarray`: an `ndims`-dimensional subarray of
    /// `subsizes` starting at `starts` within a global array of `sizes`,
    /// over elements of type `elem`.
    ///
    /// The resulting type has the extent of the **full** array (like MPI),
    /// so tiling it as a filetype walks successive full arrays.
    pub fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        order: Order,
        elem: &Datatype,
    ) -> Result<Datatype, TypeError> {
        let nd = sizes.len();
        if subsizes.len() != nd || starts.len() != nd {
            return Err(TypeError::LengthMismatch {
                left: nd,
                right: subsizes.len().min(starts.len()),
            });
        }
        if nd == 0 {
            return Err(TypeError::InvalidSubarray("zero dimensions".into()));
        }
        for i in 0..nd {
            if subsizes[i] == 0 || sizes[i] == 0 {
                return Err(TypeError::InvalidSubarray(format!(
                    "dimension {i} has zero size"
                )));
            }
            if starts[i] + subsizes[i] > sizes[i] {
                return Err(TypeError::InvalidSubarray(format!(
                    "dimension {i}: start {} + subsize {} exceeds size {}",
                    starts[i], subsizes[i], sizes[i]
                )));
            }
        }

        // Normalize to row-major processing: dims[0] is the slowest.
        let idx: Vec<usize> = match order {
            Order::C => (0..nd).collect(),
            Order::Fortran => (0..nd).rev().collect(),
        };

        let esize = elem.extent();
        // Build from the innermost (contiguous) dimension outwards.
        let mut t = Datatype::contiguous(subsizes[idx[nd - 1]], elem)?;
        let mut row_extent = sizes[idx[nd - 1]] * esize; // bytes per full row
        let mut offset = starts[idx[nd - 1]] as i64 * esize as i64;
        for d in (0..nd - 1).rev() {
            let dim = idx[d];
            t = Datatype::hvector(subsizes[dim], 1, row_extent as i64, &t)?;
            offset += starts[dim] as i64 * row_extent as i64;
            row_extent *= sizes[dim];
        }
        // Place at the absolute offset and give it the full-array extent.
        let placed = Datatype::struct_type(vec![Field {
            disp: offset,
            count: 1,
            child: t,
        }])?;
        Datatype::resized(&placed, 0, row_extent)
    }

    // ----- accessors ------------------------------------------------------

    /// True data bytes in one instance.
    #[inline]
    pub fn size(&self) -> u64 {
        self.0.meta.size
    }

    /// Effective lower bound (bytes).
    #[inline]
    pub fn lb(&self) -> i64 {
        self.0.meta.lb
    }

    /// Effective upper bound (bytes).
    #[inline]
    pub fn ub(&self) -> i64 {
        self.0.meta.ub
    }

    /// Extent in bytes: `ub - lb`. When used with a repetition count,
    /// instance `i` is displaced by `i * extent`.
    #[inline]
    pub fn extent(&self) -> u64 {
        (self.0.meta.ub - self.0.meta.lb).max(0) as u64
    }

    /// Lowest byte offset touched by actual data.
    #[inline]
    pub fn data_lb(&self) -> i64 {
        self.0.meta.data_lb
    }

    /// One past the highest byte offset touched by actual data.
    #[inline]
    pub fn data_ub(&self) -> i64 {
        self.0.meta.data_ub
    }

    /// Tree depth (a leaf has depth 1). Flattening-on-the-fly costs are
    /// proportional to this, not to the number of blocks.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.0.meta.depth
    }

    /// Number of leaf runs per instance before adjacent-run merging — the
    /// length of the ol-list a naive flattener builds (`Nblock`).
    #[inline]
    pub fn leaf_runs(&self) -> u64 {
        self.0.meta.leaf_runs
    }

    /// If one instance's data is a single contiguous run, the displacement
    /// of that run.
    #[inline]
    pub fn single_run(&self) -> Option<i64> {
        self.0.meta.single_run
    }

    /// Whether the instance's data forms one contiguous run (gaps in the
    /// extent are still allowed).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.0.meta.single_run.is_some() || self.0.meta.size == 0
    }

    /// Whether data displacements are monotone non-decreasing and
    /// non-negative — required of etypes and filetypes by MPI-IO.
    #[inline]
    pub fn is_monotone(&self) -> bool {
        self.0.meta.monotone
    }

    /// The node kind (for inspection and serialization).
    #[inline]
    pub fn kind(&self) -> &TypeKind {
        &self.0.kind
    }

    pub(crate) fn kind_name(&self) -> &'static str {
        match self.0.kind {
            TypeKind::Basic { .. } => "Basic",
            TypeKind::LbMark => "LbMark",
            TypeKind::UbMark => "UbMark",
            TypeKind::Contiguous { .. } => "Contiguous",
            TypeKind::Hvector { .. } => "Hvector",
            TypeKind::Hindexed { .. } => "Hindexed",
            TypeKind::Struct { .. } => "Struct",
            TypeKind::Resized { .. } => "Resized",
        }
    }

    /// Validate the MPI-IO restrictions on filetypes (and etypes):
    /// monotonically non-decreasing, non-negative data displacements
    /// ([MPI-2, §9.1.1]). The paper's mergeview correctness argument
    /// depends on this.
    pub fn valid_as_filetype(&self) -> Result<(), TypeError> {
        if !self.0.meta.monotone {
            return Err(TypeError::InvalidUsage(
                "filetypes require monotone non-negative displacements".into(),
            ));
        }
        if self.0.meta.lb < 0 {
            return Err(TypeError::InvalidUsage(
                "filetypes require a non-negative lower bound".into(),
            ));
        }
        Ok(())
    }

    /// Pointer-identity equality (same `Arc`). Structural equality is
    /// provided by [`Datatype::structurally_equal`].
    #[inline]
    pub fn same(&self, other: &Datatype) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Deep structural equality of two type trees.
    pub fn structurally_equal(&self, other: &Datatype) -> bool {
        if self.same(other) {
            return true;
        }
        match (&self.0.kind, &other.0.kind) {
            (TypeKind::Basic { size: a }, TypeKind::Basic { size: b }) => a == b,
            (TypeKind::LbMark, TypeKind::LbMark) | (TypeKind::UbMark, TypeKind::UbMark) => true,
            (
                TypeKind::Contiguous {
                    count: c1,
                    child: t1,
                },
                TypeKind::Contiguous {
                    count: c2,
                    child: t2,
                },
            ) => c1 == c2 && t1.structurally_equal(t2),
            (
                TypeKind::Hvector {
                    count: c1,
                    blocklen: b1,
                    stride: s1,
                    child: t1,
                },
                TypeKind::Hvector {
                    count: c2,
                    blocklen: b2,
                    stride: s2,
                    child: t2,
                },
            ) => c1 == c2 && b1 == b2 && s1 == s2 && t1.structurally_equal(t2),
            (
                TypeKind::Hindexed {
                    blocks: b1,
                    child: t1,
                },
                TypeKind::Hindexed {
                    blocks: b2,
                    child: t2,
                },
            ) => b1 == b2 && t1.structurally_equal(t2),
            (TypeKind::Struct { fields: f1 }, TypeKind::Struct { fields: f2 }) => {
                f1.len() == f2.len()
                    && f1.iter().zip(f2.iter()).all(|(a, b)| {
                        a.disp == b.disp
                            && a.count == b.count
                            && a.child.structurally_equal(&b.child)
                    })
            }
            (
                TypeKind::Resized {
                    lb: l1,
                    extent: e1,
                    child: t1,
                },
                TypeKind::Resized {
                    lb: l2,
                    extent: e2,
                    child: t2,
                },
            ) => l1 == l2 && e1 == e2 && t1.structurally_equal(t2),
            _ => false,
        }
    }
}

/// Determine whether a set of hindexed blocks forms a single contiguous run.
fn single_run_of_blocks(blocks: &[HBlock], m: &Meta, ext: i64, total_size: u64) -> Option<i64> {
    if total_size == 0 {
        return None;
    }
    let dense_child = m.single_run == Some(m.data_lb) && m.size == ext.max(0) as u64;
    let mut start: Option<i64> = None;
    let mut end: i64 = 0;
    for b in blocks {
        if b.blocklen == 0 || m.size == 0 {
            continue;
        }
        let run_start;
        let run_end;
        if b.blocklen == 1 {
            let s = m.single_run?;
            run_start = b.disp + s;
            run_end = run_start + m.size as i64;
        } else if dense_child {
            run_start = b.disp + m.data_lb;
            run_end = run_start + (b.blocklen * m.size) as i64;
        } else {
            return None;
        }
        match start {
            None => {
                start = Some(run_start);
                end = run_end;
            }
            Some(_) => {
                if run_start != end {
                    return None;
                }
                end = run_end;
            }
        }
    }
    start
}

/// Determine whether struct fields form a single contiguous run.
fn single_run_of_fields(fields: &[Field], total_size: u64) -> Option<i64> {
    if total_size == 0 {
        return None;
    }
    let mut start: Option<i64> = None;
    let mut end: i64 = 0;
    for f in fields {
        let m = &f.child.0.meta;
        if f.count == 0 || m.size == 0 {
            continue;
        }
        let ext = f.child.extent() as i64;
        let run_start;
        let run_end;
        if f.count == 1 {
            let s = m.single_run?;
            run_start = f.disp + s;
            run_end = run_start + m.size as i64;
        } else if m.single_run == Some(m.data_lb) && m.size == ext.max(0) as u64 {
            run_start = f.disp + m.data_lb;
            run_end = run_start + (f.count * m.size) as i64;
        } else {
            return None;
        }
        match start {
            None => {
                start = Some(run_start);
                end = run_end;
            }
            Some(_) => {
                if run_start != end {
                    return None;
                }
                end = run_end;
            }
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let d = Datatype::double();
        assert_eq!(d.size(), 8);
        assert_eq!(d.extent(), 8);
        assert_eq!(d.lb(), 0);
        assert_eq!(d.ub(), 8);
        assert_eq!(d.depth(), 1);
        assert!(d.is_contiguous());
        assert!(d.is_monotone());
        assert_eq!(d.leaf_runs(), 1);
    }

    #[test]
    fn zero_size_basic() {
        let d = Datatype::basic(0);
        assert_eq!(d.size(), 0);
        assert_eq!(d.leaf_runs(), 0);
        assert!(d.is_contiguous()); // vacuously
    }

    #[test]
    fn contiguous_merges_runs() {
        let d = Datatype::contiguous(10, &Datatype::int()).unwrap();
        assert_eq!(d.size(), 40);
        assert_eq!(d.extent(), 40);
        assert_eq!(d.single_run(), Some(0));
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn contiguous_zero_count() {
        let d = Datatype::contiguous(0, &Datatype::int()).unwrap();
        assert_eq!(d.size(), 0);
        assert_eq!(d.extent(), 0);
        assert_eq!(d.leaf_runs(), 0);
    }

    #[test]
    fn vector_extent_matches_mpi() {
        // MPI example: vector(count=2, blocklen=3, stride=4) of MPI_INT
        // typemap spans [0, (4*(2-1)+3)*4) = [0, 28)
        let d = Datatype::vector(2, 3, 4, &Datatype::int()).unwrap();
        assert_eq!(d.size(), 24);
        assert_eq!(d.extent(), 28);
        assert!(!d.is_contiguous());
        assert!(d.is_monotone());
        assert_eq!(d.leaf_runs(), 6);
    }

    #[test]
    fn vector_dense_when_stride_equals_blocklen() {
        let d = Datatype::vector(4, 2, 2, &Datatype::double()).unwrap();
        assert_eq!(d.single_run(), Some(0));
        assert_eq!(d.size(), 64);
        assert_eq!(d.extent(), 64);
    }

    #[test]
    fn vector_negative_stride_not_monotone() {
        let d = Datatype::vector(3, 1, -2, &Datatype::int()).unwrap();
        assert!(!d.is_monotone());
        assert!(d.valid_as_filetype().is_err());
        // data spans from -2*2*4 to 4
        assert_eq!(d.data_lb(), -16);
        assert_eq!(d.data_ub(), 4);
    }

    #[test]
    fn hvector_byte_stride() {
        let d = Datatype::hvector(3, 1, 10, &Datatype::int()).unwrap();
        assert_eq!(d.size(), 12);
        assert_eq!(d.extent(), 24);
        assert!(d.is_monotone());
    }

    #[test]
    fn indexed_bounds() {
        let d = Datatype::indexed(&[2, 1], &[0, 5], &Datatype::int()).unwrap();
        assert_eq!(d.size(), 12);
        assert_eq!(d.lb(), 0);
        assert_eq!(d.ub(), 24);
        assert!(d.is_monotone());
    }

    #[test]
    fn indexed_non_monotone_detected() {
        let d = Datatype::indexed(&[1, 1], &[5, 0], &Datatype::int()).unwrap();
        assert!(!d.is_monotone());
        assert!(d.valid_as_filetype().is_err());
    }

    #[test]
    fn indexed_overlapping_blocks_not_monotone() {
        // block 0 covers elements 0..3, block 1 starts at element 2
        let d = Datatype::indexed(&[3, 2], &[0, 2], &Datatype::int()).unwrap();
        assert!(!d.is_monotone());
    }

    #[test]
    fn indexed_block_equal_sizes() {
        let d = Datatype::indexed_block(2, &[0, 4, 8], &Datatype::double()).unwrap();
        assert_eq!(d.size(), 48);
        assert_eq!(d.single_run(), None);
        assert!(d.is_monotone());
    }

    #[test]
    fn indexed_block_adjacent_is_single_run() {
        let d = Datatype::indexed_block(2, &[0, 2, 4], &Datatype::double()).unwrap();
        assert_eq!(d.single_run(), Some(0));
    }

    #[test]
    fn struct_with_lb_ub_markers() {
        // The paper's Figure 4: struct(LB@0, vector@disp, UB@extent).
        let v = Datatype::vector(4, 2, 6, &Datatype::double()).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 16,
                count: 1,
                child: v,
            },
            Field {
                disp: 400,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        assert_eq!(d.lb(), 0);
        assert_eq!(d.ub(), 400);
        assert_eq!(d.extent(), 400);
        assert_eq!(d.size(), 64);
        assert!(d.is_monotone());
    }

    #[test]
    fn markers_are_sticky_through_constructors() {
        let inner = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::int(),
            },
            Field {
                disp: 100,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        assert_eq!(inner.extent(), 100);
        let outer = Datatype::contiguous(3, &inner).unwrap();
        // instances at 0, 100, 200; ub marker of last at 300
        assert_eq!(outer.ub(), 300);
        assert_eq!(outer.extent(), 300);
    }

    #[test]
    fn resized_overrides_bounds() {
        let d = Datatype::resized(&Datatype::int(), -4, 16).unwrap();
        assert_eq!(d.lb(), -4);
        assert_eq!(d.ub(), 12);
        assert_eq!(d.extent(), 16);
        assert_eq!(d.size(), 4);
        // negative lb makes it unusable as filetype
        assert!(d.valid_as_filetype().is_err());
    }

    #[test]
    fn resized_tiling_respects_new_extent() {
        let r = Datatype::resized(&Datatype::int(), 0, 12).unwrap();
        let c = Datatype::contiguous(3, &r).unwrap();
        assert_eq!(c.size(), 12);
        assert_eq!(c.extent(), 36);
        assert!(!c.is_contiguous());
    }

    #[test]
    fn subarray_2d_c_order() {
        // 4x6 array of ints, take rows 1..3, cols 2..5
        let d = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], Order::C, &Datatype::int()).unwrap();
        assert_eq!(d.size(), 2 * 3 * 4);
        assert_eq!(d.extent(), 4 * 6 * 4);
        assert!(d.is_monotone());
        assert!(d.valid_as_filetype().is_ok());
        // first data byte at (1*6+2)*4 = 32
        assert_eq!(d.data_lb(), 32);
    }

    #[test]
    fn subarray_fortran_order_matches_transposed_c() {
        let f = Datatype::subarray(&[6, 4], &[3, 2], &[2, 1], Order::Fortran, &Datatype::int())
            .unwrap();
        let c = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], Order::C, &Datatype::int()).unwrap();
        assert_eq!(f.size(), c.size());
        assert_eq!(f.extent(), c.extent());
        assert_eq!(f.data_lb(), c.data_lb());
    }

    #[test]
    fn subarray_full_extent_is_contiguous_data() {
        let d =
            Datatype::subarray(&[4, 4], &[4, 4], &[0, 0], Order::C, &Datatype::double()).unwrap();
        assert_eq!(d.size(), d.extent());
        assert!(d.is_contiguous());
    }

    #[test]
    fn subarray_rejects_out_of_range() {
        assert!(Datatype::subarray(&[4, 4], &[2, 3], &[3, 0], Order::C, &Datatype::int()).is_err());
        assert!(Datatype::subarray(&[4], &[0], &[0], Order::C, &Datatype::int()).is_err());
    }

    #[test]
    fn nested_vector_depth() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let outer = Datatype::vector(3, 1, 4, &inner).unwrap();
        assert_eq!(outer.depth(), 3);
        assert_eq!(outer.size(), 24);
        assert_eq!(outer.leaf_runs(), 6);
    }

    #[test]
    fn structural_equality() {
        let a = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let b = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let c = Datatype::vector(4, 2, 4, &Datatype::int()).unwrap();
        assert!(a.structurally_equal(&b));
        assert!(!a.structurally_equal(&c));
        assert!(a.structurally_equal(&a.clone()));
    }

    #[test]
    fn length_mismatch_errors() {
        assert!(matches!(
            Datatype::indexed(&[1, 2], &[0], &Datatype::int()),
            Err(TypeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn contiguous_of_gappy_child_not_monotone_check() {
        // child with a gap: vector(2,1,2) of int => elements at 0 and 8,
        // extent 12; tiling stays monotone since data fits the extent
        let child = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let d = Datatype::contiguous(3, &child).unwrap();
        assert!(d.is_monotone());
        assert_eq!(d.leaf_runs(), 6);
    }
}

impl fmt::Display for Datatype {
    /// A readable multi-line rendering of the type tree, e.g.
    ///
    /// ```text
    /// struct (size 64, extent 400)
    /// ├─ [+0] LB
    /// ├─ [+16] vector 4 x 2 stride 48B of
    /// │        basic 8B
    /// └─ [+400] UB
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "   ")?;
            }
            Ok(())
        }
        fn walk(d: &Datatype, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            indent(f, depth)?;
            match d.kind() {
                TypeKind::Basic { size } => writeln!(f, "basic {size}B"),
                TypeKind::LbMark => writeln!(f, "LB"),
                TypeKind::UbMark => writeln!(f, "UB"),
                TypeKind::Contiguous { count, child } => {
                    writeln!(f, "contiguous {count} of")?;
                    walk(child, f, depth + 1)
                }
                TypeKind::Hvector {
                    count,
                    blocklen,
                    stride,
                    child,
                } => {
                    writeln!(f, "vector {count} x {blocklen} stride {stride}B of")?;
                    walk(child, f, depth + 1)
                }
                TypeKind::Hindexed { blocks, child } => {
                    write!(f, "indexed [")?;
                    for (i, b) in blocks.iter().take(6).enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}@{}", b.blocklen, b.disp)?;
                    }
                    if blocks.len() > 6 {
                        write!(f, ", …{} more", blocks.len() - 6)?;
                    }
                    writeln!(f, "] of")?;
                    walk(child, f, depth + 1)
                }
                TypeKind::Struct { fields } => {
                    writeln!(f, "struct (size {}, extent {})", d.size(), d.extent())?;
                    for fld in fields.iter() {
                        indent(f, depth + 1)?;
                        writeln!(f, "[+{}] x{}:", fld.disp, fld.count)?;
                        walk(&fld.child, f, depth + 2)?;
                    }
                    Ok(())
                }
                TypeKind::Resized { lb, extent, child } => {
                    writeln!(f, "resized lb {lb} extent {extent} of")?;
                    walk(child, f, depth + 1)
                }
            }
        }
        walk(self, f, 0)
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_renders_tree() {
        let v = Datatype::vector(4, 2, 6, &Datatype::double()).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 16,
                count: 1,
                child: v,
            },
        ])
        .unwrap();
        let s = format!("{d}");
        assert!(s.contains("struct"), "{s}");
        assert!(s.contains("LB"), "{s}");
        assert!(s.contains("vector 4 x 2"), "{s}");
        assert!(s.contains("basic 8B"), "{s}");
    }

    #[test]
    fn display_truncates_long_indexed() {
        let disps: Vec<i64> = (0..20).map(|i| i * 3).collect();
        let lens = vec![1u64; 20];
        let d = Datatype::indexed(&lens, &disps, &Datatype::int()).unwrap();
        let s = format!("{d}");
        assert!(s.contains("…14 more"), "{s}");
    }
}
