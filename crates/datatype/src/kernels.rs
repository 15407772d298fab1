//! Fixed-block gather/scatter kernels under the run-program interpreter.
//!
//! The compiled interpreter ([`crate::program`]) reduces every datatype to
//! nested `{count, block, stride}` frames, but until this layer existed the
//! innermost loop still paid a dynamic-length `copy_from_slice` per block —
//! a full `memcpy` call to move 2 or 8 bytes. That is exactly the regime
//! where derived-datatype engines lose to manual packing (Hunold et al.,
//! PAPERS.md): the copy loop is bookkeeping-bound, not bandwidth-bound.
//!
//! This module provides monomorphized kernels for the small fixed block
//! sizes (1/2/4/8/16/32 bytes) that dominate non-contiguous scientific
//! layouts:
//!
//! * **fixed** — portable unrolled loops whose per-block copy width is a
//!   compile-time constant (`ptr::copy_nonoverlapping::<B>`), so the
//!   compiler emits single loads/stores instead of `memcpy` calls;
//! * **sse2 / avx2** — `core::arch::x86_64` paths that batch several small
//!   blocks per 16/32-byte store on gather, and use wide unaligned
//!   loads/stores for 16/32-byte blocks. Selected by one-time runtime
//!   feature detection (`is_x86_feature_detected!`), never assumed.
//!
//! Selection happens **once at compile time per `Blocks` frame**
//! ([`Sel::select`] records block-size class, stride regularity, and
//! alignment class in the frame), so the frame executor
//! ([`crate::strided`]) performs a single direct dispatch per run of whole
//! blocks — no per-block branching — after clipping the run to the
//! caller's window, which is the bounds proof the kernels need. A
//! bit-identical scalar path always remains: the `LIO_PACK_KERNEL`
//! environment variable (or the `pack_kernel` hint / info key) can force
//! `scalar`, `fixed`, `sse2`, or `avx2`.
//!
//! One more helper serves every placement, whatever its kernel:
//! [`claim_ahead`] asks for the window lines after a run of 256 B–4 KiB
//! before the run is stored, so that a write's stores into lines it has
//! not touched yet do not each wait for a read-for-ownership.

use std::ops::{Range, RangeInclusive};
use std::ptr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use lio_obs::LazyCounter;

/// Frames that selected a vector-eligible kernel at compile time.
pub(crate) static OBS_KERNEL_SELECTED: LazyCounter = LazyCounter::new("dt.kernel.selected");
/// Whole blocks copied through a non-scalar kernel.
pub(crate) static OBS_KERNEL_BLOCKS: LazyCounter = LazyCounter::new("dt.kernel.blocks");
/// Bytes copied through a non-scalar kernel.
pub(crate) static OBS_KERNEL_BYTES: LazyCounter = LazyCounter::new("dt.kernel.bytes");

/// Kernel family actually used for a frame region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Per-block `copy_from_slice` through the sink — the reference path.
    Scalar,
    /// Portable monomorphized fixed-width copy loop.
    Fixed,
    /// SSE2 wide/batched unaligned copies (x86_64 baseline).
    Sse2,
    /// AVX2 32-byte copies and 4×8-byte batched gathers.
    Avx2,
}

impl Kind {
    pub const fn name(self) -> &'static str {
        match self {
            Kind::Scalar => "scalar",
            Kind::Fixed => "fixed",
            Kind::Sse2 => "sse2",
            Kind::Avx2 => "avx2",
        }
    }
}

/// Kernel override mode: `auto` (per-frame compile-time selection),
/// `scalar` (disable kernels), or a forced family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Auto,
    Scalar,
    Fixed,
    Sse2,
    Avx2,
}

impl Mode {
    /// Every mode, for exhaustive differential testing.
    pub const ALL: [Mode; 5] = [
        Mode::Auto,
        Mode::Scalar,
        Mode::Fixed,
        Mode::Sse2,
        Mode::Avx2,
    ];

    pub fn parse(s: &str) -> Option<Mode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(Mode::Auto),
            "scalar" => Some(Mode::Scalar),
            "fixed" => Some(Mode::Fixed),
            "sse2" => Some(Mode::Sse2),
            "avx2" => Some(Mode::Avx2),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Mode::Auto => "auto",
            Mode::Scalar => "scalar",
            Mode::Fixed => "fixed",
            Mode::Sse2 => "sse2",
            Mode::Avx2 => "avx2",
        }
    }
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn mode_to_u8(m: Mode) -> u8 {
    match m {
        Mode::Auto => 0,
        Mode::Scalar => 1,
        Mode::Fixed => 2,
        Mode::Sse2 => 3,
        Mode::Avx2 => 4,
    }
}

fn mode_from_u8(v: u8) -> Mode {
    match v {
        1 => Mode::Scalar,
        2 => Mode::Fixed,
        3 => Mode::Sse2,
        4 => Mode::Avx2,
        _ => Mode::Auto,
    }
}

/// The process-wide kernel mode. Initialized from `LIO_PACK_KERNEL` on
/// first use (unset or unparsable → `auto`); [`force`] overrides it.
/// Programs are cached per datatype node, so the override is applied at
/// interpretation time (one atomic load per pack/unpack call), never
/// baked into a cached program.
pub fn mode() -> Mode {
    let v = MODE.load(Ordering::Relaxed);
    if v != MODE_UNSET {
        return mode_from_u8(v);
    }
    let m = std::env::var("LIO_PACK_KERNEL")
        .ok()
        .and_then(|s| Mode::parse(&s))
        .unwrap_or(Mode::Auto);
    // racing initializers agree (env is fixed), so a plain store is fine
    MODE.store(mode_to_u8(m), Ordering::Relaxed);
    m
}

/// Force the kernel mode for this process (the `pack_kernel` hint and the
/// differential tests use this; `LIO_PACK_KERNEL` seeds the default).
pub fn force(m: Mode) {
    MODE.store(mode_to_u8(m), Ordering::Relaxed);
}

/// `(sse2, avx2)` availability, detected once.
fn feats() -> (bool, bool) {
    static FEATS: OnceLock<(bool, bool)> = OnceLock::new();
    *FEATS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            (
                is_x86_feature_detected!("sse2"),
                is_x86_feature_detected!("avx2"),
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (false, false)
        }
    })
}

/// Is `kind` executable on this CPU?
pub fn have(kind: Kind) -> bool {
    let (sse2, avx2) = feats();
    match kind {
        Kind::Scalar | Kind::Fixed => true,
        Kind::Sse2 => sse2,
        Kind::Avx2 => avx2,
    }
}

/// Per-frame kernel selection, recorded in the `Blocks` frame at program
/// compile time.
///
/// * `class` — the fixed block-size class (1/2/4/8/16/32), or 0 when the
///   frame is kernel-ineligible (other sizes, or non-positive stride);
/// * `align` — alignment class: trailing zero bits common to stride and
///   block, capped at 6 (all copies use unaligned loads/stores; the class
///   is recorded for observability and future aligned paths);
/// * `kind` — the family `auto` mode resolves to on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sel {
    pub class: u8,
    pub align: u8,
    pub kind: Kind,
}

impl Sel {
    /// The kernel-ineligible selection (scalar loop).
    pub const NONE: Sel = Sel {
        class: 0,
        align: 0,
        kind: Kind::Scalar,
    };

    pub fn select(block: u64, stride: i64) -> Sel {
        let class = match block {
            1 | 2 | 4 | 8 | 16 | 32 if stride > 0 => block as u8,
            _ => 0,
        };
        if class == 0 {
            return Sel::NONE;
        }
        let align = (stride as u64 | block).trailing_zeros().min(6) as u8;
        let (sse2, avx2) = feats();
        let kind = if avx2 && matches!(class, 8 | 16 | 32) {
            Kind::Avx2
        } else if sse2 {
            Kind::Sse2
        } else {
            Kind::Fixed
        };
        Sel { class, align, kind }
    }

    /// Whether a non-scalar kernel can engage for this frame.
    pub fn eligible(&self) -> bool {
        self.class != 0
    }
}

/// Resolve the effective kernel for one frame region: the frame's
/// compile-time selection filtered through the process mode, degraded to
/// what the CPU supports. `Scalar` means "one `copy_from_slice` per block".
pub(crate) fn resolve(sel: Sel, mode: Mode) -> Kind {
    if sel.class == 0 {
        return Kind::Scalar;
    }
    match mode {
        Mode::Auto => sel.kind,
        Mode::Scalar => Kind::Scalar,
        Mode::Fixed => Kind::Fixed,
        Mode::Sse2 => {
            if have(Kind::Sse2) {
                Kind::Sse2
            } else {
                Kind::Fixed
            }
        }
        Mode::Avx2 => {
            if have(Kind::Avx2) && matches!(sel.class, 8 | 16 | 32) {
                Kind::Avx2
            } else if have(Kind::Sse2) {
                Kind::Sse2
            } else {
                Kind::Fixed
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Portable fixed-width kernels
// ---------------------------------------------------------------------------

/// Gather `count` blocks of `B` bytes, `stride` apart, into contiguous
/// `dst`. Unrolled 4× so the constant-width copies pipeline.
///
/// # Safety
/// `src` must be readable for every block `[j*stride, j*stride + B)`,
/// `j < count`, and `dst` writable for `count * B` bytes.
unsafe fn gather_fixed<const B: usize>(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
    let mut s = src;
    let mut d = dst;
    let mut i = 0;
    while i + 4 <= count {
        ptr::copy_nonoverlapping(s, d, B);
        ptr::copy_nonoverlapping(s.offset(stride), d.add(B), B);
        ptr::copy_nonoverlapping(s.offset(2 * stride), d.add(2 * B), B);
        ptr::copy_nonoverlapping(s.offset(3 * stride), d.add(3 * B), B);
        s = s.offset(4 * stride);
        d = d.add(4 * B);
        i += 4;
    }
    while i < count {
        ptr::copy_nonoverlapping(s, d, B);
        s = s.offset(stride);
        d = d.add(B);
        i += 1;
    }
}

/// Scatter `count` contiguous blocks of `B` bytes from `src` to `dst`,
/// `stride` apart. Safety mirrors [`gather_fixed`] with roles swapped.
unsafe fn scatter_fixed<const B: usize>(src: *const u8, dst: *mut u8, stride: isize, count: usize) {
    let mut s = src;
    let mut d = dst;
    let mut i = 0;
    while i + 4 <= count {
        ptr::copy_nonoverlapping(s, d, B);
        ptr::copy_nonoverlapping(s.add(B), d.offset(stride), B);
        ptr::copy_nonoverlapping(s.add(2 * B), d.offset(2 * stride), B);
        ptr::copy_nonoverlapping(s.add(3 * B), d.offset(3 * stride), B);
        s = s.add(4 * B);
        d = d.offset(4 * stride);
        i += 4;
    }
    while i < count {
        ptr::copy_nonoverlapping(s, d, B);
        s = s.add(B);
        d = d.offset(stride);
        i += 1;
    }
}

unsafe fn gather_fixed_class(class: u8, src: *const u8, stride: isize, count: usize, dst: *mut u8) {
    match class {
        1 => gather_fixed::<1>(src, stride, count, dst),
        2 => gather_fixed::<2>(src, stride, count, dst),
        4 => gather_fixed::<4>(src, stride, count, dst),
        8 => gather_fixed::<8>(src, stride, count, dst),
        16 => gather_fixed::<16>(src, stride, count, dst),
        32 => gather_fixed::<32>(src, stride, count, dst),
        _ => unreachable!("kernel call on ineligible frame"),
    }
}

unsafe fn scatter_fixed_class(
    class: u8,
    src: *const u8,
    dst: *mut u8,
    stride: isize,
    count: usize,
) {
    match class {
        1 => scatter_fixed::<1>(src, dst, stride, count),
        2 => scatter_fixed::<2>(src, dst, stride, count),
        4 => scatter_fixed::<4>(src, dst, stride, count),
        8 => scatter_fixed::<8>(src, dst, stride, count),
        16 => scatter_fixed::<16>(src, dst, stride, count),
        32 => scatter_fixed::<32>(src, dst, stride, count),
        _ => unreachable!("kernel call on ineligible frame"),
    }
}

// ---------------------------------------------------------------------------
// x86_64 SIMD kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::gather_fixed;
    use core::arch::x86_64::*;
    use std::ptr;

    /// 8 two-byte blocks per 16-byte store; tail via the fixed kernel.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires SSE2 (x86_64 baseline).
    pub unsafe fn gather2_sse2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        let rd = |p: *const u8| ptr::read_unaligned(p as *const u16) as i16;
        while i + 8 <= count {
            let v = _mm_set_epi16(
                rd(s.offset(7 * stride)),
                rd(s.offset(6 * stride)),
                rd(s.offset(5 * stride)),
                rd(s.offset(4 * stride)),
                rd(s.offset(3 * stride)),
                rd(s.offset(2 * stride)),
                rd(s.offset(stride)),
                rd(s),
            );
            _mm_storeu_si128(d as *mut __m128i, v);
            s = s.offset(8 * stride);
            d = d.add(16);
            i += 8;
        }
        gather_fixed::<2>(s, stride, count - i, d);
    }

    /// 4 four-byte blocks per 16-byte store.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires SSE2.
    pub unsafe fn gather4_sse2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        let rd = |p: *const u8| ptr::read_unaligned(p as *const u32) as i32;
        while i + 4 <= count {
            let v = _mm_set_epi32(
                rd(s.offset(3 * stride)),
                rd(s.offset(2 * stride)),
                rd(s.offset(stride)),
                rd(s),
            );
            _mm_storeu_si128(d as *mut __m128i, v);
            s = s.offset(4 * stride);
            d = d.add(16);
            i += 4;
        }
        gather_fixed::<4>(s, stride, count - i, d);
    }

    /// 2 eight-byte blocks per 16-byte store.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires SSE2.
    pub unsafe fn gather8_sse2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        let rd = |p: *const u8| ptr::read_unaligned(p as *const u64) as i64;
        while i + 2 <= count {
            let v = _mm_set_epi64x(rd(s.offset(stride)), rd(s));
            _mm_storeu_si128(d as *mut __m128i, v);
            s = s.offset(2 * stride);
            d = d.add(16);
            i += 2;
        }
        gather_fixed::<8>(s, stride, count - i, d);
    }

    /// One 16-byte unaligned load/store per block, unrolled 4×.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires SSE2.
    pub unsafe fn gather16_sse2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i + 4 <= count {
            let a = _mm_loadu_si128(s as *const __m128i);
            let b = _mm_loadu_si128(s.offset(stride) as *const __m128i);
            let c = _mm_loadu_si128(s.offset(2 * stride) as *const __m128i);
            let e = _mm_loadu_si128(s.offset(3 * stride) as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            _mm_storeu_si128(d.add(16) as *mut __m128i, b);
            _mm_storeu_si128(d.add(32) as *mut __m128i, c);
            _mm_storeu_si128(d.add(48) as *mut __m128i, e);
            s = s.offset(4 * stride);
            d = d.add(64);
            i += 4;
        }
        while i < count {
            let a = _mm_loadu_si128(s as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            s = s.offset(stride);
            d = d.add(16);
            i += 1;
        }
    }

    /// Two 16-byte loads/stores per 32-byte block.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires SSE2.
    pub unsafe fn gather32_sse2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i < count {
            let a = _mm_loadu_si128(s as *const __m128i);
            let b = _mm_loadu_si128(s.add(16) as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            _mm_storeu_si128(d.add(16) as *mut __m128i, b);
            s = s.offset(stride);
            d = d.add(32);
            i += 1;
        }
    }

    /// 16-byte strided stores from a contiguous source.
    ///
    /// # Safety
    /// Bounds as in [`scatter_fixed`]; requires SSE2.
    pub unsafe fn scatter16_sse2(src: *const u8, dst: *mut u8, stride: isize, count: usize) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i + 4 <= count {
            let a = _mm_loadu_si128(s as *const __m128i);
            let b = _mm_loadu_si128(s.add(16) as *const __m128i);
            let c = _mm_loadu_si128(s.add(32) as *const __m128i);
            let e = _mm_loadu_si128(s.add(48) as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            _mm_storeu_si128(d.offset(stride) as *mut __m128i, b);
            _mm_storeu_si128(d.offset(2 * stride) as *mut __m128i, c);
            _mm_storeu_si128(d.offset(3 * stride) as *mut __m128i, e);
            s = s.add(64);
            d = d.offset(4 * stride);
            i += 4;
        }
        while i < count {
            let a = _mm_loadu_si128(s as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            s = s.add(16);
            d = d.offset(stride);
            i += 1;
        }
    }

    /// 32-byte strided stores via two 16-byte ops per block.
    ///
    /// # Safety
    /// Bounds as in [`scatter_fixed`]; requires SSE2.
    pub unsafe fn scatter32_sse2(src: *const u8, dst: *mut u8, stride: isize, count: usize) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i < count {
            let a = _mm_loadu_si128(s as *const __m128i);
            let b = _mm_loadu_si128(s.add(16) as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
            _mm_storeu_si128(d.add(16) as *mut __m128i, b);
            s = s.add(32);
            d = d.offset(stride);
            i += 1;
        }
    }

    /// 4 eight-byte blocks per 32-byte store.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather8_avx2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        let rd = |p: *const u8| ptr::read_unaligned(p as *const u64) as i64;
        while i + 4 <= count {
            let v = _mm256_set_epi64x(
                rd(s.offset(3 * stride)),
                rd(s.offset(2 * stride)),
                rd(s.offset(stride)),
                rd(s),
            );
            _mm256_storeu_si256(d as *mut __m256i, v);
            s = s.offset(4 * stride);
            d = d.add(32);
            i += 4;
        }
        gather_fixed::<8>(s, stride, count - i, d);
    }

    /// 2 sixteen-byte blocks per 32-byte store.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather16_avx2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i + 2 <= count {
            let lo = _mm_loadu_si128(s as *const __m128i);
            let hi = _mm_loadu_si128(s.offset(stride) as *const __m128i);
            let v = _mm256_set_m128i(hi, lo);
            _mm256_storeu_si256(d as *mut __m256i, v);
            s = s.offset(2 * stride);
            d = d.add(32);
            i += 2;
        }
        if i < count {
            let a = _mm_loadu_si128(s as *const __m128i);
            _mm_storeu_si128(d as *mut __m128i, a);
        }
    }

    /// One 32-byte unaligned load/store per block, unrolled 2×.
    ///
    /// # Safety
    /// Bounds as in [`gather_fixed`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather32_avx2(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i + 2 <= count {
            let a = _mm256_loadu_si256(s as *const __m256i);
            let b = _mm256_loadu_si256(s.offset(stride) as *const __m256i);
            _mm256_storeu_si256(d as *mut __m256i, a);
            _mm256_storeu_si256(d.add(32) as *mut __m256i, b);
            s = s.offset(2 * stride);
            d = d.add(64);
            i += 2;
        }
        if i < count {
            let a = _mm256_loadu_si256(s as *const __m256i);
            _mm256_storeu_si256(d as *mut __m256i, a);
        }
    }

    /// 32-byte strided stores from a contiguous source.
    ///
    /// # Safety
    /// Bounds as in [`scatter_fixed`]; requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter32_avx2(src: *const u8, dst: *mut u8, stride: isize, count: usize) {
        let mut s = src;
        let mut d = dst;
        let mut i = 0;
        while i < count {
            let a = _mm256_loadu_si256(s as *const __m256i);
            _mm256_storeu_si256(d as *mut __m256i, a);
            s = s.add(32);
            d = d.offset(stride);
            i += 1;
        }
    }
}

/// Gather `count` whole blocks of `class` bytes, `stride` apart starting
/// at `src`, into contiguous `dst`, using kernel family `kind`. One
/// dispatch per frame region.
///
/// # Safety
/// The caller proves bounds for the whole region: every block
/// `[j*stride, j*stride + class)` readable at `src`, `count * class`
/// bytes writable at `dst`. `kind` must be CPU-supported ([`resolve`]).
pub(crate) unsafe fn gather(
    kind: Kind,
    class: u8,
    src: *const u8,
    stride: isize,
    count: usize,
    dst: *mut u8,
) {
    match kind {
        Kind::Scalar | Kind::Fixed => gather_fixed_class(class, src, stride, count, dst),
        #[cfg(target_arch = "x86_64")]
        Kind::Sse2 => match class {
            1 => gather_fixed::<1>(src, stride, count, dst),
            2 => x86::gather2_sse2(src, stride, count, dst),
            4 => x86::gather4_sse2(src, stride, count, dst),
            8 => x86::gather8_sse2(src, stride, count, dst),
            16 => x86::gather16_sse2(src, stride, count, dst),
            32 => x86::gather32_sse2(src, stride, count, dst),
            _ => unreachable!("kernel call on ineligible frame"),
        },
        #[cfg(target_arch = "x86_64")]
        Kind::Avx2 => {
            // A 32-byte store that straddles a cache line on every other
            // iteration halves the 8-byte gather (18 vs 39 GB/s in L2), and
            // a heap buffer is 16- but rarely 32-byte aligned: peel whole
            // blocks up to the next 32-byte boundary when there is one.
            let off = dst.align_offset(32);
            let peel = if off.is_multiple_of(class as usize) {
                (off / class as usize).min(count)
            } else {
                0
            };
            gather_fixed_class(class, src, stride, peel, dst);
            let src = src.offset(peel as isize * stride);
            let dst = dst.add(peel * class as usize);
            let count = count - peel;
            match class {
                8 => x86::gather8_avx2(src, stride, count, dst),
                16 => x86::gather16_avx2(src, stride, count, dst),
                32 => x86::gather32_avx2(src, stride, count, dst),
                // no AVX2 batching below 8 bytes beyond SSE2's
                _ => gather(Kind::Sse2, class, src, stride, count, dst),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kind::Sse2 | Kind::Avx2 => gather_fixed_class(class, src, stride, count, dst),
    }
}

/// Scatter `count` contiguous blocks of `class` bytes from `src` to
/// strided `dst`. Small-block scatters have no profitable SIMD batching
/// (the stores are strided), so classes 2/4/8 use the fixed kernels
/// under every family; 16/32 use wide stores.
///
/// # Safety
/// Mirror of [`gather`] with roles swapped.
pub(crate) unsafe fn scatter(
    kind: Kind,
    class: u8,
    src: *const u8,
    dst: *mut u8,
    stride: isize,
    count: usize,
) {
    match kind {
        Kind::Scalar | Kind::Fixed => scatter_fixed_class(class, src, dst, stride, count),
        #[cfg(target_arch = "x86_64")]
        Kind::Sse2 | Kind::Avx2 => match class {
            1 | 2 | 4 | 8 => scatter_fixed_class(class, src, dst, stride, count),
            16 => x86::scatter16_sse2(src, dst, stride, count),
            32 => {
                if kind == Kind::Avx2 {
                    x86::scatter32_avx2(src, dst, stride, count)
                } else {
                    x86::scatter32_sse2(src, dst, stride, count)
                }
            }
            _ => unreachable!("kernel call on ineligible frame"),
        },
        #[cfg(not(target_arch = "x86_64"))]
        Kind::Sse2 | Kind::Avx2 => scatter_fixed_class(class, src, dst, stride, count),
    }
}

// ---------------------------------------------------------------------------
// Claiming window lines ahead of a placement's stores
// ---------------------------------------------------------------------------

/// Window bytes past a placed run whose cache lines [`claim_ahead`] asks
/// for: far enough that a line arrives before the stores reach it, near
/// enough that it is still in cache when they do (1, 4, 8 and 32 KiB all
/// measured slower on the benchmark's tile rows, 2-vCPU x86_64 box).
pub const CLAIM_AHEAD: usize = 2048;

/// Run lengths that claim. Below 256 B the runs are too short for a
/// store to wait on its line longer than the claim costs; above 4 KiB the
/// hardware prefetcher already follows the store stream.
pub const CLAIM_RUNS: RangeInclusive<usize> = 256..=4096;

/// The window positions [`claim_ahead`] claims for `run` in a window of
/// `window_len` bytes: the [`CLAIM_AHEAD`] bytes after the run, clipped to
/// the window, or nothing for a run length outside [`CLAIM_RUNS`].
pub fn claim_lines(window_len: usize, run: Range<usize>) -> Range<usize> {
    if !CLAIM_RUNS.contains(&run.len()) {
        return 0..0;
    }
    run.end.min(window_len)..run.end.saturating_add(CLAIM_AHEAD).min(window_len)
}

/// Before `run` of `window` is stored to, prefetch the lines of
/// [`claim_lines`] for writing, so that a store into a line the op has not
/// touched yet does not wait for its read-for-ownership. The hint is
/// `prefetchw` where the target has `prfchw`, `prefetcht0` on the default
/// `x86-64` target; both measured the same. The stores stay ordinary
/// cached stores: what a write leaves in cache is there for the reads
/// after it. Off x86_64 this does nothing.
#[inline]
pub fn claim_ahead(window: &[u8], run: Range<usize>) {
    if CLAIM_RUNS.contains(&run.len()) {
        claim(window, run);
    }
}

/// [`claim_ahead`]'s prefetches, out of line: inlined, the loop slowed
/// the list-based walk of 8 B runs that never claim (`ind-small`
/// `lb_write_mbps` ×0.89), and a call costs nothing next to the copy of
/// the 256 B or more behind it.
#[inline(never)]
fn claim(window: &[u8], run: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    for at in claim_lines(window.len(), run).step_by(64) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
        // SAFETY: a prefetch never faults, and `at < window.len()`.
        unsafe { _mm_prefetch::<_MM_HINT_ET0>(window.as_ptr().add(at).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (window, run);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_to_test() -> Vec<Kind> {
        let mut v = vec![Kind::Fixed];
        if have(Kind::Sse2) {
            v.push(Kind::Sse2);
        }
        if have(Kind::Avx2) {
            v.push(Kind::Avx2);
        }
        v
    }

    #[test]
    fn gather_matches_reference_for_every_class_and_kind() {
        for &class in &[1u8, 2, 4, 8, 16, 32] {
            let b = class as usize;
            for stride in [b as isize, b as isize + 3, 2 * b as isize, 64] {
                for count in [0usize, 1, 2, 3, 7, 8, 9, 31, 64] {
                    let span = (count.max(1) - 1) as isize * stride + b as isize;
                    let src: Vec<u8> = (0..span as usize + 5).map(|i| (i % 251) as u8).collect();
                    let mut want = vec![0u8; count * b];
                    for j in 0..count {
                        let s = j as isize * stride;
                        want[j * b..(j + 1) * b].copy_from_slice(&src[s as usize..s as usize + b]);
                    }
                    for kind in kinds_to_test() {
                        // every destination alignment mod 32 a block
                        // boundary can have (the AVX2 path peels to 32)
                        for pad in [0usize, 8, 16, 24] {
                            let mut got = vec![0u8; pad + count * b];
                            unsafe {
                                let dst = got.as_mut_ptr().add(pad);
                                gather(kind, class, src.as_ptr(), stride, count, dst);
                            }
                            assert_eq!(
                                &got[pad..],
                                &want[..],
                                "gather class={class} stride={stride} count={count} \
                                 kind={kind:?} pad={pad}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_matches_reference_for_every_class_and_kind() {
        for &class in &[1u8, 2, 4, 8, 16, 32] {
            let b = class as usize;
            for stride in [b as isize, b as isize + 3, 2 * b as isize, 64] {
                for count in [0usize, 1, 2, 3, 7, 8, 9, 31, 64] {
                    let span = (count.max(1) - 1) as isize * stride + b as isize;
                    let src: Vec<u8> = (0..count * b).map(|i| (i % 249) as u8).collect();
                    let mut want = vec![0u8; span as usize + 5];
                    for j in 0..count {
                        let s = j as isize * stride;
                        want[s as usize..s as usize + b].copy_from_slice(&src[j * b..(j + 1) * b]);
                    }
                    for kind in kinds_to_test() {
                        let mut got = vec![0u8; span as usize + 5];
                        unsafe {
                            scatter(kind, class, src.as_ptr(), got.as_mut_ptr(), stride, count);
                        }
                        assert_eq!(
                            got, want,
                            "scatter class={class} stride={stride} count={count} kind={kind:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selection_records_class_and_alignment() {
        let s = Sel::select(8, 64);
        assert_eq!(s.class, 8);
        assert_eq!(s.align, 3);
        assert!(s.eligible());
        // kernel-ineligible shapes
        assert_eq!(Sel::select(8192, 16384), Sel::NONE);
        assert_eq!(Sel::select(8, -16), Sel::NONE);
        assert_eq!(Sel::select(3, 7), Sel::NONE);
        // dense 32B blocks are eligible
        assert!(Sel::select(32, 32).eligible());
    }

    #[test]
    fn resolve_degrades_to_supported_kinds() {
        let sel = Sel::select(4, 16);
        assert_eq!(resolve(sel, Mode::Scalar), Kind::Scalar);
        assert_eq!(resolve(Sel::NONE, Mode::Avx2), Kind::Scalar);
        assert_eq!(resolve(sel, Mode::Fixed), Kind::Fixed);
        let k = resolve(sel, Mode::Auto);
        assert!(have(k), "auto selection must be CPU-supported");
        // avx2 has no 4-byte gather batching beyond sse2's
        let k = resolve(sel, Mode::Avx2);
        assert!(matches!(k, Kind::Sse2 | Kind::Fixed));
    }

    #[test]
    fn claim_covers_the_bytes_after_a_run_inside_the_window() {
        let win = 64 << 10;
        // run lengths around both ends of the claimed range
        assert_eq!(claim_lines(win, 100..355), 0..0);
        assert_eq!(claim_lines(win, 100..356), 356..356 + CLAIM_AHEAD);
        assert_eq!(claim_lines(win, 100..4195), 4195..4195 + CLAIM_AHEAD);
        assert_eq!(claim_lines(win, 100..4196), 4196..4196 + CLAIM_AHEAD);
        assert_eq!(claim_lines(win, 100..4197), 0..0);
        // a run ending within CLAIM_AHEAD of the window end, and at it
        assert_eq!(claim_lines(win, win - 1500..win - 1000), win - 1000..win);
        assert_eq!(claim_lines(win, win - 500..win), win..win);
        // a window shorter than CLAIM_AHEAD
        assert_eq!(claim_lines(1500, 0..300), 300..1500);
        assert_eq!(claim_lines(1500, 1200..1500), 1500..1500);
        // claiming touches nothing, whatever the run and the window
        let window = vec![7u8; 1500];
        for run in [0..300, 1000..1300, 1200..1500, 0..1500] {
            claim_ahead(&window, run);
        }
        claim_ahead(&[], 0..0);
        assert!(window.iter().all(|&b| b == 7));
    }

    #[test]
    fn mode_parse_round_trips() {
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        assert_eq!(Mode::parse("AVX2"), Some(Mode::Avx2));
        assert_eq!(Mode::parse("bogus"), None);
    }
}
