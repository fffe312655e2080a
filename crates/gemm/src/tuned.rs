//! The measured vendor-BLAS stand-in: a packed, register-tiled,
//! cache-blocked GEMM.
//!
//! The paper's Table III divides each portable model's throughput by a
//! *vendor* library curve. The naive kernels in [`crate::serial`] and
//! [`crate::variants`] deliberately stop at loop ordering, so dividing by
//! them is naive-vs-naive. This module provides the honest denominator:
//! the standard BLAS decomposition (Goto/BLIS; see also "Flexible
//! Performant GEMM Kernels on GPUs", arXiv:2009.12263) of `C += A·B`
//! into
//!
//! 1. **Packing** — `Mc×Kc` blocks of `A` and `Kc×Nc` panels of `B` are
//!    copied once into contiguous, 64-byte-aligned buffers laid out in
//!    micropanel order, so the inner loop streams unit-stride regardless
//!    of the source [`Layout`] and never suffers a TLB/conflict miss;
//! 2. **Register tiling** — an `MR×NR` accumulator tile lives entirely
//!    in registers across the `Kc` contraction ([`TileShape`]); the
//!    microkernel is written so LLVM autovectorizes it (const-generic
//!    tile extents, unit-stride panel reads, no `fma` libcall);
//! 3. **Cache blocking** — `Kc` sizes the `B` micropanel to half of L1d,
//!    `Mc×Kc` sizes the `A` block to half of L2, and `Kc×Nc` sizes the
//!    `B` panel to an L3 share ([`BlockSizes::for_cache`], fed from
//!    [`CacheInfo`]).
//!
//! Parallelisation follows the paper's CPU strategy: macro-row-blocks of
//! `C` (`MR`-aligned, at most `Mc` rows, balanced across the team) are
//! the work-sharing index space on the existing [`ThreadPool`],
//! and every worker packs into a thread-local [`PackArena`] that is
//! reused across calls, so sweep loops do not reallocate per size point.
//!
//! The microkernel itself is dispatched **once per process** through
//! [`crate::simd`]: explicit AVX2+FMA / AVX-512 / NEON register tiles
//! when the CPU supports them (`PERFPORT_SIMD` overrides for A/B runs),
//! the autovectorized const-generic tile otherwise. See the `simd`
//! module docs for the dispatch contract and the FMA-contraction caveat.
//!
//! The result is generic over [`Scalar`]; `f32`/`f64` get their fast
//! paths through monomorphisation (the accumulator tile and panel loads
//! vectorise per element width), while the software [`F16`] packs
//! *widened*: the pack routines convert `f16 → f32` once per panel and
//! the contraction runs the native `f32` microkernel, so the O(n³) inner
//! loop never executes a software-half operation (each `C` element is
//! re-rounded to `f16` once per `Kc` panel). Accumulation order per
//! element of `C` is a fixed function of the `Kc` blocking alone, so
//! serial and parallel execution are bit-identical per dispatched
//! kernel.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use crate::simd::{self, Isa};
use perfport_half::F16;
use perfport_pool::{CacheInfo, DisjointSlice, RegionStats, Schedule, ThreadPool};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The supported register tiles as `(MR, NR)` pairs, in ablation order.
/// [`TileShape::ALL`] and every monomorphised dispatch (`tile_fn!`)
/// expand from this one list, so supporting a new tile is one entry here.
/// Invokes `$then!` with the caller's arguments followed by the pairs.
macro_rules! with_supported_tiles {
    ($then:ident!($($args:tt)*)) => {
        $then! { ($($args)*) (4, 4) (8, 4) (4, 8) (8, 8) (12, 16) (12, 32) }
    };
}

/// Emits a `[TileShape; N]` constant holding every supported tile.
macro_rules! tile_array {
    (($(#[$attr:meta])* $vis:vis const $name:ident) $(($mr:literal, $nr:literal))*) => {
        $(#[$attr])*
        $vis const $name: [TileShape; [$($mr),*].len()] = [$(TileShape { mr: $mr, nr: $nr }),*];
    };
}

/// `$f::<$g, MR, NR>` for the runtime tile `$tile`, as a function
/// pointer: the dispatch table from `with_supported_tiles!`. Panics
/// with `unsupported tile shape` for any other tile.
macro_rules! tile_fn {
    ($tile:expr, $f:ident::<$g:ty>) => {
        with_supported_tiles!(tile_match!($tile, $f::<$g>))
    };
}

/// The `match` behind `tile_fn!`.
macro_rules! tile_match {
    (($tile:expr, $f:ident::<$g:ty>) $(($mr:literal, $nr:literal))*) => {
        match ($tile.mr, $tile.nr) {
            $(($mr, $nr) => $f::<$g, $mr, $nr>,)*
            _ => panic!("unsupported tile shape {}", $tile),
        }
    };
}

/// Register-tile extents of the microkernel: `MR` rows × `NR` columns of
/// `C` accumulated in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Accumulator rows.
    pub mr: usize,
    /// Accumulator columns.
    pub nr: usize,
}

impl TileShape {
    with_supported_tiles!(tile_array!(
        /// The shapes the ablation sweeps (every combination the dispatch
        /// supports).
        pub const ALL
    ));

    /// Default tile for an element width: wide elements get the small
    /// square tile (the accumulator must fit the 16 SIMD registers of a
    /// baseline x86-64 target), narrow elements can afford a wider tile.
    pub fn default_for(elem_bytes: usize) -> TileShape {
        if elem_bytes >= 8 {
            TileShape { mr: 4, nr: 4 }
        } else {
            TileShape { mr: 4, nr: 8 }
        }
    }

    /// Default tile for an element width under a dispatched ISA.
    ///
    /// The portable fallback keeps the conservative [`default_for`]
    /// choice (the autovectorized accumulator must fit a baseline
    /// x86-64's 16 xmm registers). Native kernels hold one accumulator
    /// row in `NR·BYTES/width` registers, so they afford taller tiles:
    /// 256-bit ISAs (AVX2, and NEON with four 128-bit accumulators per
    /// row) take `8×4` for 8-byte elements and `8×8` for narrower ones.
    /// AVX-512 takes `12×16` for 8-byte elements and `12×32` for
    /// narrower ones (`f32` and the widened `F16` path): two zmm
    /// registers per row, so 24 accumulators plus 2 `B` vectors and one
    /// broadcast fill the 32-register file, and each `p` step issues 24
    /// FMAs per 14 loads.
    ///
    /// [`default_for`]: TileShape::default_for
    pub fn for_isa(isa: Isa, elem_bytes: usize) -> TileShape {
        match isa {
            Isa::Portable => Self::default_for(elem_bytes),
            Isa::Avx2 | Isa::Neon => {
                if elem_bytes >= 8 {
                    TileShape { mr: 8, nr: 4 }
                } else {
                    TileShape { mr: 8, nr: 8 }
                }
            }
            Isa::Avx512 => {
                if elem_bytes >= 8 {
                    TileShape { mr: 12, nr: 16 }
                } else {
                    TileShape { mr: 12, nr: 32 }
                }
            }
        }
    }

    /// `"4x8"`-style identifier used in ablation tables.
    pub fn name(&self) -> String {
        format!("{}x{}", self.mr, self.nr)
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.mr, self.nr)
    }
}

/// Cache-blocking extents: the loop structure is
/// `jc (Nc) → p (Kc) → ic (Mc) → jr (NR) → ir (MR)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Rows of `A` packed per L2-resident block.
    pub mc: usize,
    /// Contraction depth per packed panel (L1-resident `B` micropanel).
    pub kc: usize,
    /// Columns of `B` packed per L3-resident panel.
    pub nc: usize,
}

impl BlockSizes {
    /// Sizes the blocks from cache capacities for `elem_bytes`-wide
    /// elements and `tile`:
    ///
    /// * `kc` so the `Kc×NR` `B` micropanel fills about half of L1d,
    /// * `mc` so the `Mc×Kc` packed `A` block fills about half of L2,
    /// * `nc` so the `Kc×Nc` packed `B` panel fills an eighth of the
    ///   shared L3 (its nominal per-thread share on a server core).
    pub fn for_cache(cache: CacheInfo, tile: TileShape, elem_bytes: usize) -> Self {
        let kc = (cache.l1d_bytes / 2 / (tile.nr * elem_bytes)).clamp(64, 512) & !3;
        let mc_raw = (cache.l2_bytes / 2 / (kc * elem_bytes)).clamp(tile.mr, 1024);
        let mc = mc_raw / tile.mr * tile.mr;
        let nc_raw = (cache.l3_bytes / 8 / (kc * elem_bytes)).clamp(tile.nr, 4096);
        let nc = nc_raw / tile.nr * tile.nr;
        BlockSizes { mc, kc, nc }
    }
}

/// A full tuned-kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Microkernel register tile.
    pub tile: TileShape,
    /// Cache-blocking extents derived from the cache description.
    pub blocks: BlockSizes,
}

impl TunedParams {
    /// Parameters for `T` on caches `cache` with the portable default
    /// tile. Blocks are sized by [`Scalar::PACK_BYTES`] — the width of
    /// the elements that actually occupy the packed panels (`f32` for
    /// the widened `F16` path).
    pub fn for_cache<T: Scalar>(cache: CacheInfo) -> Self {
        Self::for_cache_isa::<T>(cache, Isa::Portable)
    }

    /// Parameters for `T` on caches `cache` with the tile the dispatched
    /// `isa`'s microkernel prefers ([`TileShape::for_isa`]).
    pub fn for_cache_isa<T: Scalar>(cache: CacheInfo, isa: Isa) -> Self {
        Self::with_tile(cache, TileShape::for_isa(isa, T::PACK_BYTES), T::PACK_BYTES)
    }

    /// Parameters for an explicit tile shape (ablation entry point).
    pub fn with_tile(cache: CacheInfo, tile: TileShape, elem_bytes: usize) -> Self {
        TunedParams {
            tile,
            blocks: BlockSizes::for_cache(cache, tile, elem_bytes),
        }
    }

    /// Parameters for `T` on the build host's detected caches and the
    /// process-wide dispatched ISA ([`simd::active`]).
    pub fn host<T: Scalar>() -> Self {
        Self::for_cache_isa::<T>(CacheInfo::host(), simd::active())
    }
}

// ------------------------------------------------------------ arena --

/// Alignment of packing buffers: one x86 cache line / typical maximal
/// SIMD register width.
const PACK_ALIGN: usize = 64;

/// A 64-byte-aligned, grow-only buffer of scalars.
///
/// Capacity only ever grows, so a sweep loop reusing one buffer across
/// size points allocates O(log sizes) times, not once per GEMM. Freshly
/// grown memory is zero-initialised (scalars are valid all-zeroes), and
/// the packing routines overwrite every element they later read.
struct AlignedBuf<T> {
    ptr: *mut T,
    cap: usize,
}

// SAFETY: the buffer exclusively owns its allocation; scalars are
// plain-old-data, so moving the handle across threads is fine.
unsafe impl<T: Send> Send for AlignedBuf<T> {}

impl<T: Scalar> AlignedBuf<T> {
    fn new() -> Self {
        AlignedBuf {
            ptr: std::ptr::null_mut(),
            cap: 0,
        }
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(cap * std::mem::size_of::<T>(), PACK_ALIGN)
            .expect("packing buffer layout")
    }

    /// Grows capacity to at least `len` and returns the first `len`
    /// elements as a mutable slice.
    fn slice_for(&mut self, len: usize) -> &mut [T] {
        if len > self.cap {
            let new_cap = len.next_power_of_two();
            // SAFETY: layout has non-zero size (len > cap >= 0 and
            // scalars are non-zero-sized); old pointer/capacity came
            // from the same allocator.
            unsafe {
                if self.cap > 0 {
                    std::alloc::dealloc(self.ptr as *mut u8, Self::layout(self.cap));
                }
                let raw = std::alloc::alloc_zeroed(Self::layout(new_cap));
                if raw.is_null() {
                    std::alloc::handle_alloc_error(Self::layout(new_cap));
                }
                self.ptr = raw as *mut T;
            }
            self.cap = new_cap;
        }
        if len == 0 {
            return &mut [];
        }
        // SAFETY: `ptr` covers `cap >= len` zero-initialised (hence
        // valid) scalars and is exclusively owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, len) }
    }

    /// The first `len` elements, read-only. `len` must not exceed the
    /// capacity a prior [`AlignedBuf::slice_for`] established.
    fn as_slice(&self, len: usize) -> &[T] {
        assert!(len <= self.cap, "reading past the packed region");
        if len == 0 {
            return &[];
        }
        // SAFETY: `ptr` covers `cap >= len` valid scalars.
        unsafe { std::slice::from_raw_parts(self.ptr, len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated in `slice_for` with this exact layout.
            unsafe {
                let layout = std::alloc::Layout::from_size_align_unchecked(
                    self.cap * std::mem::size_of::<T>(),
                    PACK_ALIGN,
                );
                std::alloc::dealloc(self.ptr as *mut u8, layout);
            }
        }
    }
}

/// Reusable packing buffers for one worker thread.
///
/// Holding one of these across a sweep (or using the implicit
/// thread-local arena via [`gemm`]/the `Vendor` variant) means the hot
/// loop never calls the allocator after warm-up.
pub struct PackArena<T> {
    a: AlignedBuf<T>,
    b: AlignedBuf<T>,
    // Widened panels for the F16 path: packs convert f16 → f32 so the
    // contraction runs the native f32 microkernel. Empty for other T.
    aw: AlignedBuf<f32>,
    bw: AlignedBuf<f32>,
}

impl<T: Scalar> PackArena<T> {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        PackArena {
            a: AlignedBuf::new(),
            b: AlignedBuf::new(),
            aw: AlignedBuf::new(),
            bw: AlignedBuf::new(),
        }
    }

    /// Typed access to the widened `f32` packing buffers (`A`, `B`).
    ///
    /// The `F16` path packs into these — they exist on every arena
    /// regardless of `T`, so the dispatcher never has to reinterpret a
    /// `PackArena<T>` as a `PackArena<F16>`; an arena checked out for one
    /// scalar type can therefore never alias buffers of another.
    fn widened(&mut self) -> (&mut AlignedBuf<f32>, &mut AlignedBuf<f32>) {
        (&mut self.aw, &mut self.bw)
    }
}

impl<T: Scalar> Default for PackArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread arenas keyed by scalar type, reused across every tuned
    /// GEMM this thread ever runs (pool workers are persistent, so a
    /// size sweep packs into the same two buffers throughout).
    static THREAD_ARENAS: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Runs `f` with this thread's reusable arena for `T`.
pub fn with_thread_arena<T: Scalar, R>(f: impl FnOnce(&mut PackArena<T>) -> R) -> R {
    THREAD_ARENAS.with(|map| {
        let mut map = map.borrow_mut();
        let entry = map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(PackArena::<T>::new()));
        f(entry
            .downcast_mut::<PackArena<T>>()
            .expect("arena type keyed by TypeId"))
    })
}

// ---------------------------------------------------------- counters --

/// Instrumentation of one tuned-GEMM invocation, exported through
/// `perfport-trace` by the public entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunedStats {
    /// Bytes copied into packed `A` blocks.
    pub pack_a_bytes: u64,
    /// Bytes copied into packed `B` panels.
    pub pack_b_bytes: u64,
    /// Microkernel invocations (full `MR×NR` tiles, edges included).
    pub microkernel_calls: u64,
}

impl TunedStats {
    fn emit(&self, tile: TileShape, isa: Isa) {
        perfport_telemetry::counter_add("gemm/invocations", 1);
        perfport_telemetry::counter_add("gemm/pack_a_bytes", self.pack_a_bytes);
        perfport_telemetry::counter_add("gemm/pack_b_bytes", self.pack_b_bytes);
        perfport_telemetry::counter_add("gemm/microkernel_calls", self.microkernel_calls);
        if perfport_trace::enabled() {
            perfport_trace::counter("gemm", "tuned_pack_a_bytes", self.pack_a_bytes as f64);
            perfport_trace::counter("gemm", "tuned_pack_b_bytes", self.pack_b_bytes as f64);
            perfport_trace::counter(
                "gemm",
                "tuned_microkernel_calls",
                self.microkernel_calls as f64,
            );
            perfport_trace::instant(
                "gemm",
                "tuned_tile",
                vec![
                    ("mr".to_string(), (tile.mr as u64).into()),
                    ("nr".to_string(), (tile.nr as u64).into()),
                    ("isa".to_string(), isa.name().into()),
                ],
            );
        }
    }
}

// ----------------------------------------------------------- packing --

/// Row/column strides of a matrix's storage under its layout.
#[inline]
fn strides<T: Scalar>(m: &Matrix<T>) -> (usize, usize) {
    match m.layout() {
        Layout::RowMajor => (m.cols(), 1),
        Layout::ColMajor => (1, m.rows()),
    }
}

/// Packs the `A` block `rows i0..i0+mb × k p0..p0+kb` into `MR`-row
/// micropanels: micropanel `ir` stores element `(i0 + ir*MR + r, p0 + p)`
/// at `ir*kb*MR + p*MR + r`, zero-padding rows past the block edge so
/// the microkernel never needs a row bound check.
fn pack_a<T: Scalar>(
    a: &Matrix<T>,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    mr: usize,
    buf: &mut AlignedBuf<T>,
) -> u64 {
    let panels = mb.div_ceil(mr);
    let dst = buf.slice_for(panels * kb * mr);
    let (rs, cs) = strides(a);
    let ad = a.as_slice();
    let mut off = 0;
    for ir in 0..panels {
        let base_row = i0 + ir * mr;
        let live = mr.min(i0 + mb - base_row);
        for p in 0..kb {
            let col_off = (p0 + p) * cs;
            for r in 0..live {
                dst[off + r] = ad[(base_row + r) * rs + col_off];
            }
            for r in live..mr {
                dst[off + r] = T::zero();
            }
            off += mr;
        }
    }
    (panels * kb * mr * std::mem::size_of::<T>()) as u64
}

/// Packs the `B` panel `k p0..p0+kb × cols j0..j0+nb` into `NR`-column
/// micropanels: micropanel `jr` stores element `(p0 + p, j0 + jr*NR + c)`
/// at `jr*kb*NR + p*NR + c`, zero-padded past the panel edge.
fn pack_b<T: Scalar>(
    b: &Matrix<T>,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
    buf: &mut AlignedBuf<T>,
) -> u64 {
    let panels = nb.div_ceil(nr);
    let dst = buf.slice_for(panels * kb * nr);
    let (rs, cs) = strides(b);
    let bd = b.as_slice();
    let mut off = 0;
    for jr in 0..panels {
        let base_col = j0 + jr * nr;
        let live = nr.min(j0 + nb - base_col);
        for p in 0..kb {
            let row_off = (p0 + p) * rs;
            let row = &mut dst[off..off + nr];
            if cs == 1 {
                // Row-major B: a micropanel row is contiguous in the source.
                let src = row_off + base_col;
                row[..live].copy_from_slice(&bd[src..src + live]);
            } else {
                for (c, d) in row[..live].iter_mut().enumerate() {
                    *d = bd[row_off + (base_col + c) * cs];
                }
            }
            row[live..].fill(T::zero());
            off += nr;
        }
    }
    (panels * kb * nr * std::mem::size_of::<T>()) as u64
}

/// Packs the `A` block like [`pack_a`] but *widened*: source elements
/// are `f16`, the packed micropanels hold their exact `f32` values
/// ([`F16::widen_slice`] for the contiguous column-major case). Reported
/// bytes are the widened bytes actually copied.
fn pack_a_f16(
    a: &Matrix<F16>,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    mr: usize,
    buf: &mut AlignedBuf<f32>,
) -> u64 {
    let panels = mb.div_ceil(mr);
    let dst = buf.slice_for(panels * kb * mr);
    let (rs, cs) = strides(a);
    let ad = a.as_slice();
    let mut off = 0;
    for ir in 0..panels {
        let base_row = i0 + ir * mr;
        let live = mr.min(i0 + mb - base_row);
        for p in 0..kb {
            let col_off = (p0 + p) * cs;
            if rs == 1 {
                let src = &ad[base_row + col_off..base_row + col_off + live];
                F16::widen_slice(src, &mut dst[off..off + live]);
            } else {
                for r in 0..live {
                    dst[off + r] = ad[(base_row + r) * rs + col_off].to_f32();
                }
            }
            for r in live..mr {
                dst[off + r] = 0.0;
            }
            off += mr;
        }
    }
    (panels * kb * mr * std::mem::size_of::<f32>()) as u64
}

/// Packs the `B` panel like [`pack_b`] but widened to `f32` (see
/// [`pack_a_f16`]).
fn pack_b_f16(
    b: &Matrix<F16>,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
    buf: &mut AlignedBuf<f32>,
) -> u64 {
    let panels = nb.div_ceil(nr);
    let dst = buf.slice_for(panels * kb * nr);
    let (rs, cs) = strides(b);
    let bd = b.as_slice();
    let mut off = 0;
    for jr in 0..panels {
        let base_col = j0 + jr * nr;
        let live = nr.min(j0 + nb - base_col);
        for p in 0..kb {
            let row_off = (p0 + p) * rs;
            if cs == 1 {
                let src = &bd[row_off + base_col..row_off + base_col + live];
                F16::widen_slice(src, &mut dst[off..off + live]);
            } else {
                for c in 0..live {
                    dst[off + c] = bd[row_off + (base_col + c) * cs].to_f32();
                }
            }
            for c in live..nr {
                dst[off + c] = 0.0;
            }
            off += nr;
        }
    }
    (panels * kb * nr * std::mem::size_of::<f32>()) as u64
}

// ------------------------------------------------------------- driver --

/// The scalar-flavour hooks of the blocked loop nest: how `A`/`B` panels
/// are packed (possibly widened) and how an accumulator value lands in
/// `C`. The loop nest itself is written exactly once ([`run_blocked`],
/// [`compute_block`]) and parameterized over an implementation:
///
/// * [`PlainOps`] — `f64`/`f32` (and any hardware float): packs copy,
///   the accumulator adds in place.
/// * [`WidenedF16Ops`] — the software-half path: packs convert
///   `f16 → f32`, the contraction runs the native `f32` microkernel, and
///   each `C` element is re-rounded to `f16` once per `Kc` panel. One
///   rounding per panel (instead of one per multiply-accumulate) makes
///   this path *more* accurate than the naive software-half kernels, and
///   the rounding points are a fixed function of the `Kc` blocking, so
///   serial ≡ parallel still holds bitwise per dispatched kernel.
trait PackOps {
    /// Element type of `A`, `B`, and `C`.
    type Src: Scalar;
    /// Element type inside packed panels and the microkernel.
    type Pack: Scalar;

    /// Packs one `A` block (see [`pack_a`]); returns bytes copied.
    fn pack_a(
        a: &Matrix<Self::Src>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<Self::Pack>,
    ) -> u64;

    /// Packs one `B` panel (see [`pack_b`]); returns bytes copied.
    fn pack_b(
        b: &Matrix<Self::Src>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<Self::Pack>,
    ) -> u64;

    /// Accumulates one microkernel output element into `C`.
    fn accumulate(c: &mut Self::Src, v: Self::Pack);
}

/// [`PackOps`] for scalars whose packed panels hold the scalar itself.
struct PlainOps<T>(std::marker::PhantomData<T>);

impl<T: Scalar> PackOps for PlainOps<T> {
    type Src = T;
    type Pack = T;

    fn pack_a(
        a: &Matrix<T>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<T>,
    ) -> u64 {
        pack_a(a, i0, mb, p0, kb, mr, buf)
    }

    fn pack_b(
        b: &Matrix<T>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<T>,
    ) -> u64 {
        pack_b(b, p0, kb, j0, nb, nr, buf)
    }

    #[inline(always)]
    fn accumulate(c: &mut T, v: T) {
        *c += v;
    }
}

/// [`PackOps`] for the widened software-half path (`F16` source, `f32`
/// panels and microkernel).
struct WidenedF16Ops;

impl PackOps for WidenedF16Ops {
    type Src = F16;
    type Pack = f32;

    fn pack_a(
        a: &Matrix<F16>,
        i0: usize,
        mb: usize,
        p0: usize,
        kb: usize,
        mr: usize,
        buf: &mut AlignedBuf<f32>,
    ) -> u64 {
        pack_a_f16(a, i0, mb, p0, kb, mr, buf)
    }

    fn pack_b(
        b: &Matrix<F16>,
        p0: usize,
        kb: usize,
        j0: usize,
        nb: usize,
        nr: usize,
        buf: &mut AlignedBuf<f32>,
    ) -> u64 {
        pack_b_f16(b, p0, kb, j0, nb, nr, buf)
    }

    #[inline(always)]
    fn accumulate(c: &mut F16, v: f32) {
        *c = F16::from_f32(c.to_f32() + v);
    }
}

/// One `(jc, p0)` cache panel of the blocked loop nest: column offset and
/// width, contraction offset and depth.
#[derive(Debug, Clone, Copy)]
struct Panel {
    jc: usize,
    nb: usize,
    p0: usize,
    kb: usize,
}

/// The `(jc, p0)` panels of an `n×k` iteration space in the serial loop
/// order (`jc` outer, `p0` inner) — the accumulation order per `C`
/// element is a fixed function of this enumeration, whichever worker
/// owns the row.
fn panels(n: usize, k: usize, blocks: &BlockSizes) -> Vec<Panel> {
    let mut out = Vec::new();
    for jc in (0..n).step_by(blocks.nc) {
        let nb = blocks.nc.min(n - jc);
        for p0 in (0..k).step_by(blocks.kc) {
            let kb = blocks.kc.min(k - p0);
            out.push(Panel { jc, nb, p0, kb });
        }
    }
    out
}

/// Packs `A` and runs the register-tiled contraction of one `Mc` row
/// block against an already-packed `B` panel, accumulating into `C`.
/// Per `C` element the accumulation order is fixed by the panel
/// enumeration and this function alone, which is what keeps serial and
/// parallel runs bitwise-identical.
///
/// Kept out of line: inlined into its one caller, [`run_blocked`], the
/// n = 1024 tuned GEMM measured about 10% slower on an AVX-512 host.
///
/// SAFETY requirement: the caller must own rows `i0..i0+mb` of `C`
/// exclusively per the [`DisjointSlice`] contract.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn compute_block<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    c_shape: (usize, usize),
    c_layout: Layout,
    panel: Panel,
    i0: usize,
    mb: usize,
    bp_all: &[P::Pack],
    a_buf: &mut AlignedBuf<P::Pack>,
    microkernel: simd::Microkernel<P::Pack, MR, NR>,
) -> TunedStats {
    let (m, n) = c_shape;
    let Panel { jc, nb, p0, kb } = panel;
    let mut stats = TunedStats {
        pack_a_bytes: P::pack_a(a, i0, mb, p0, kb, MR, a_buf),
        ..TunedStats::default()
    };
    let ap_all = a_buf.as_slice(mb.div_ceil(MR) * kb * MR);
    for jr in 0..nb.div_ceil(NR) {
        let j_base = jc + jr * NR;
        let jlim = NR.min(jc + nb - j_base);
        let bp = &bp_all[jr * kb * NR..(jr + 1) * kb * NR];
        for ir in 0..mb.div_ceil(MR) {
            let i_base = i0 + ir * MR;
            let ilim = MR.min(i0 + mb - i_base);
            let ap = &ap_all[ir * kb * MR..(ir + 1) * kb * MR];
            let acc = microkernel(kb, ap, bp);
            stats.microkernel_calls += 1;
            match c_layout {
                Layout::RowMajor => {
                    for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                        // SAFETY: row ownership (see above).
                        let crow = unsafe { c.row(i_base + r, n) };
                        for (cj, &v) in crow[j_base..j_base + jlim].iter_mut().zip(acc_row) {
                            P::accumulate(cj, v);
                        }
                    }
                }
                Layout::ColMajor => {
                    for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                        for (cix, &v) in acc_row.iter().enumerate().take(jlim) {
                            let idx = c_layout.index(m, n, i_base + r, j_base + cix);
                            // SAFETY: row ownership (see above); each
                            // element belongs to exactly one owned row.
                            unsafe {
                                P::accumulate(c.at(idx), v);
                            }
                        }
                    }
                }
            }
        }
    }
    stats
}

/// The blocked loop nest over one contiguous row range of `C`, written
/// once for every scalar flavour (see [`PackOps`]).
#[allow(clippy::too_many_arguments)]
fn run_blocked<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &DisjointSlice<'_, P::Src>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    blocks: &BlockSizes,
    a_buf: &mut AlignedBuf<P::Pack>,
    b_buf: &mut AlignedBuf<P::Pack>,
    isa: Isa,
) -> TunedStats {
    let (_, n) = c_shape;
    let k = a.cols();
    let mc = blocks.mc;
    let microkernel = simd::select::<P::Pack, MR, NR>(isa);
    let mut stats = TunedStats::default();

    for panel in panels(n, k, blocks) {
        let t0 = Instant::now();
        stats.pack_b_bytes += P::pack_b(b, panel.p0, panel.kb, panel.jc, panel.nb, NR, b_buf);
        perfport_telemetry::observe("gemm/pack_ns", elapsed_ns(t0));
        let bp_len = panel.nb.div_ceil(NR) * panel.kb * NR;
        for i0 in (rows.start..rows.end).step_by(mc) {
            let mb = mc.min(rows.end - i0);
            let t0 = Instant::now();
            let s = compute_block::<P, MR, NR>(
                a,
                c,
                c_shape,
                c_layout,
                panel,
                i0,
                mb,
                b_buf.as_slice(bp_len),
                a_buf,
                microkernel,
            );
            perfport_telemetry::observe("gemm/compute_ns", elapsed_ns(t0));
            stats.pack_a_bytes += s.pack_a_bytes;
            stats.microkernel_calls += s.microkernel_calls;
        }
    }
    stats
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The operands re-typed as `F16` when `T` is `F16` (the widened path),
/// `None` for every other scalar. `T` is exactly `F16` when `A`
/// downcasts, so the owned matrices go through `Any`; `C` is only
/// borrowed, so it cannot meet `Any`'s `'static` bound and is cast.
#[allow(clippy::type_complexity)]
fn as_f16<'a, 'c, T: Scalar>(
    a: &'a Matrix<T>,
    b: &'a Matrix<T>,
    c: &'a DisjointSlice<'c, T>,
) -> Option<(&'a Matrix<F16>, &'a Matrix<F16>, &'a DisjointSlice<'c, F16>)> {
    let a16 = (a as &dyn Any).downcast_ref::<Matrix<F16>>()?;
    let b16 = (b as &dyn Any).downcast_ref::<Matrix<F16>>()?;
    // SAFETY: `T` is exactly `F16` (the downcast above succeeded), so the
    // cast is the identity and the reborrow keeps the slice's lifetimes.
    let c16 = unsafe { &*(c as *const DisjointSlice<'c, T>).cast::<DisjointSlice<'c, F16>>() };
    Some((a16, b16, c16))
}

/// Splits rows `0..m` of `C` into the blocks parallel workers own: at
/// most `mc` rows each (the L2 cap from [`BlockSizes`]), starting on `mr`
/// boundaries, and balanced to within one `mr`-row micropanel. The block
/// count is the smallest multiple of `threads` the cap allows (or one
/// block per micropanel, if fewer), so a static split hands every worker
/// the same number of rows to within a micropanel. Which worker owns a
/// row never changes its accumulation order, so the split cannot affect
/// results.
fn row_blocks(m: usize, mr: usize, mc: usize, threads: usize) -> Vec<Range<usize>> {
    let micropanels = m.div_ceil(mr);
    if micropanels == 0 {
        return Vec::new();
    }
    let threads = threads.max(1);
    let cap = (mc / mr).max(1);
    let parts = (threads * micropanels.div_ceil(threads * cap)).min(micropanels);
    let (base, extra) = (micropanels / parts, micropanels % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let end = (start + (base + usize::from(i < extra)) * mr).min(m);
            let rows = start..end;
            start = end;
            rows
        })
        .collect()
}

fn check_shapes<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, m: usize, n: usize) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), m, "A rows must match C rows");
    assert_eq!(b.cols(), n, "B cols must match C cols");
}

/// Runs the tuned kernel over one contiguous row range of `C`, packing
/// through `arena`, with the process-wide dispatched microkernel
/// ([`simd::active`]). This is the chunk-level entry the `Vendor` host
/// variant and the parallel driver share.
///
/// `c` wraps `C`'s backing storage (`m*n` elements, `c_layout` order);
/// the caller must own `rows` exclusively.
///
/// # Panics
///
/// Panics on shape mismatch or an unsupported tile shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &DisjointSlice<'_, T>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
) -> TunedStats {
    gemm_rows_with_isa(
        a,
        b,
        c,
        c_shape,
        c_layout,
        rows,
        params,
        arena,
        simd::active(),
    )
}

/// [`gemm_rows`] with an explicit ISA verdict instead of the process-wide
/// one — the A/B entry point tests and ablations use to compare
/// microkernels without touching `PERFPORT_SIMD`.
///
/// `isa` must be available on this CPU (callers obtain it from
/// [`Isa::detect`], [`simd::active`], or an [`Isa::available`] check);
/// [`simd::select`] falls back to the portable kernel for tile shapes the
/// ISA cannot serve.
///
/// # Panics
///
/// Panics on shape mismatch or an unsupported tile shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows_with_isa<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &DisjointSlice<'_, T>,
    c_shape: (usize, usize),
    c_layout: Layout,
    rows: Range<usize>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
) -> TunedStats {
    let (m, n) = c_shape;
    check_shapes(a, b, m, n);
    assert_eq!(c.len(), m * n, "C storage size mismatch");
    assert!(rows.end <= m, "row range out of bounds");
    if let Some((a16, b16, c16)) = as_f16(a, b, c) {
        // The widened pack buffers come from the typed accessor, so no
        // `PackArena` is ever reinterpreted across scalar types.
        let (aw, bw) = arena.widened();
        let run = tile_fn!(params.tile, run_blocked::<WidenedF16Ops>);
        return run(
            a16,
            b16,
            c16,
            c_shape,
            c_layout,
            rows,
            &params.blocks,
            aw,
            bw,
            isa,
        );
    }
    let run = tile_fn!(params.tile, run_blocked::<PlainOps<T>>);
    run(
        a,
        b,
        c,
        c_shape,
        c_layout,
        rows,
        &params.blocks,
        &mut arena.a,
        &mut arena.b,
        isa,
    )
}

/// Serial tuned GEMM: `C += A · B` with explicit parameters and arena,
/// using the process-wide dispatched microkernel.
pub fn gemm_serial<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
) -> TunedStats {
    gemm_serial_with_isa(a, b, c, params, arena, simd::active())
}

/// [`gemm_serial`] with an explicit ISA verdict (see
/// [`gemm_rows_with_isa`] for the availability contract).
pub fn gemm_serial_with_isa<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
) -> TunedStats {
    let shape = (c.rows(), c.cols());
    let layout = c.layout();
    let rows = 0..shape.0;
    let ds = DisjointSlice::new(c.as_mut_slice());
    let stats = gemm_rows_with_isa(a, b, &ds, shape, layout, rows, params, arena, isa);
    stats.emit(params.tile, isa);
    stats
}

/// Parallel tuned GEMM: one fork-join `parallel_for` with
/// [`Schedule::StaticBlock`] over balanced, `MR`-aligned row blocks of
/// `C`, each worker running the blocked loop nest over its merged row
/// range with its own thread-local [`PackArena`]. Returns the region
/// instrumentation; the packing/microkernel counters go to
/// `perfport-telemetry` and `perfport-trace`. Results are
/// bitwise-identical across team sizes and to [`gemm_serial`].
pub fn gemm<T: Scalar>(
    pool: &ThreadPool,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
) -> RegionStats {
    let (m, n) = (c.rows(), c.cols());
    check_shapes(a, b, m, n);
    let isa = simd::active();
    let mut sp = perfport_trace::span("gemm", "tuned");
    if sp.is_recording() {
        sp.arg("m", m);
        sp.arg("n", n);
        sp.arg("k", a.cols());
        sp.arg("tile", params.tile.name());
        sp.arg("isa", isa.name());
        sp.arg("mc", params.blocks.mc);
        sp.arg("kc", params.blocks.kc);
        sp.arg("nc", params.blocks.nc);
        // FLOP/byte annotation: pairs the analytic work and compulsory
        // traffic with whatever hardware counters the run records, so a
        // trace alone is enough to place this kernel on a roofline.
        sp.arg("flops", crate::serial::gemm_flops(m, n, a.cols()));
        sp.arg(
            "min_bytes",
            crate::serial::gemm_min_bytes(m, n, a.cols(), std::mem::size_of::<T>()),
        );
    }
    let layout = c.layout();
    let ds = DisjointSlice::new(c.as_mut_slice());
    let blocks = row_blocks(m, params.tile.mr, params.blocks.mc, pool.num_threads());
    let pack_a_total = AtomicU64::new(0);
    let pack_b_total = AtomicU64::new(0);
    let micro_total = AtomicU64::new(0);
    let region = pool.parallel_for(blocks.len(), Schedule::StaticBlock, |_ctx, chunk| {
        if chunk.is_empty() {
            return;
        }
        let rows = blocks[chunk.start].start..blocks[chunk.end - 1].end;
        let stats =
            with_thread_arena(|arena| gemm_rows(a, b, &ds, (m, n), layout, rows, params, arena));
        pack_a_total.fetch_add(stats.pack_a_bytes, Ordering::Relaxed);
        pack_b_total.fetch_add(stats.pack_b_bytes, Ordering::Relaxed);
        micro_total.fetch_add(stats.microkernel_calls, Ordering::Relaxed);
    });
    let totals = TunedStats {
        pack_a_bytes: pack_a_total.into_inner(),
        pack_b_bytes: pack_b_total.into_inner(),
        microkernel_calls: micro_total.into_inner(),
    };
    totals.emit(params.tile, isa);
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::gemm_reference_f64;
    use perfport_half::F16;

    fn tuned_vs_reference<T: Scalar>(m: usize, k: usize, n: usize, layout: Layout, tol: f64) {
        let a = Matrix::<T>::random(m, k, layout, 31);
        let b = Matrix::<T>::random(k, n, layout, 32);
        let reference = gemm_reference_f64(&a, &b);
        let params = TunedParams::for_cache::<T>(CacheInfo::DEFAULT);
        let mut arena = PackArena::new();
        let mut c = Matrix::<T>::zeros(m, n, layout);
        gemm_serial(&a, &b, &mut c, &params, &mut arena);
        let cast: Matrix<f64> = c.cast();
        let err = cast.max_abs_diff(&reference);
        assert!(err < tol, "{m}x{k}x{n} {layout}: error {err}");
    }

    #[test]
    fn serial_matches_reference_all_precisions() {
        tuned_vs_reference::<f64>(65, 33, 47, Layout::RowMajor, 1e-12);
        tuned_vs_reference::<f32>(65, 33, 47, Layout::RowMajor, 1e-3);
        tuned_vs_reference::<F16>(17, 9, 13, Layout::RowMajor, 0.2);
        tuned_vs_reference::<f64>(65, 33, 47, Layout::ColMajor, 1e-12);
    }

    #[test]
    fn every_tile_shape_matches_reference() {
        let (m, k, n) = (37, 29, 41);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 2);
        let reference = gemm_reference_f64(&a, &b);
        for tile in TileShape::ALL {
            let params = TunedParams::with_tile(CacheInfo::DEFAULT, tile, 8);
            let mut arena = PackArena::new();
            let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
            gemm_serial(&a, &b, &mut c, &params, &mut arena);
            assert!(c.max_abs_diff(&reference) < 1e-12, "tile {tile}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Accumulation order per element depends only on the Kc
        // blocking, never on which worker owns a row block.
        let pool = ThreadPool::new(5);
        let (m, k, n) = (83, 57, 43);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::<f64>::random(m, k, layout, 3);
            let b = Matrix::<f64>::random(k, n, layout, 4);
            let params = TunedParams {
                tile: TileShape { mr: 4, nr: 4 },
                // Tiny blocks force many chunks and k-panels.
                blocks: BlockSizes {
                    mc: 8,
                    kc: 12,
                    nc: 16,
                },
            };
            let mut arena = PackArena::new();
            let mut c_serial = Matrix::<f64>::zeros(m, n, layout);
            gemm_serial(&a, &b, &mut c_serial, &params, &mut arena);
            let mut c_par = Matrix::<f64>::zeros(m, n, layout);
            gemm(&pool, &a, &b, &mut c_par, &params);
            assert_eq!(c_serial, c_par, "{layout}");
        }
    }

    /// Serial reference vs the parallel driver on `jobs` workers, bitwise.
    fn parallel_vs_serial<T: Scalar>(m: usize, k: usize, n: usize, jobs: usize) {
        let pool = ThreadPool::new(jobs);
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            // Tiny blocks force many row blocks and (jc, p0) panels, so
            // every worker's B buffer is repacked repeatedly.
            blocks: BlockSizes {
                mc: 8,
                kc: 12,
                nc: 16,
            },
        };
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = Matrix::<T>::random(m, k, layout, 7);
            let b = Matrix::<T>::random(k, n, layout, 8);
            let mut c_serial = Matrix::<T>::zeros(m, n, layout);
            gemm_serial(&a, &b, &mut c_serial, &params, &mut PackArena::new());
            let mut c_par = Matrix::<T>::zeros(m, n, layout);
            gemm(&pool, &a, &b, &mut c_par, &params);
            assert_eq!(c_serial, c_par, "{} {layout} jobs={jobs}", T::NAME);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_all_precisions() {
        for jobs in [1, 2, 7] {
            parallel_vs_serial::<f64>(83, 57, 43, jobs);
            parallel_vs_serial::<f32>(61, 45, 39, jobs);
            parallel_vs_serial::<F16>(33, 29, 21, jobs);
        }
    }

    #[test]
    fn pack_buffer_reuse_survives_many_panels() {
        // k and n large relative to kc/nc: 8 k-panels × 4 jc panels = 32
        // B-panel packs through each worker's one buffer, while 7 workers
        // run side by side. Any reuse-before-drained bug corrupts C.
        let pool = ThreadPool::new(7);
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            blocks: BlockSizes {
                mc: 8,
                kc: 8,
                nc: 8,
            },
        };
        let (m, k, n) = (40, 64, 31);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 11);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 12);
        let mut c_serial = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
        gemm_serial(&a, &b, &mut c_serial, &params, &mut PackArena::new());
        for _ in 0..16 {
            let mut c_par = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
            gemm(&pool, &a, &b, &mut c_par, &params);
            assert_eq!(c_serial, c_par);
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = Matrix::<f64>::ones(5, 5, Layout::RowMajor);
        let b = Matrix::<f64>::ones(5, 5, Layout::RowMajor);
        let mut c = Matrix::<f64>::from_fn(5, 5, Layout::RowMajor, |_, _| 2.0);
        let params = TunedParams::for_cache::<f64>(CacheInfo::DEFAULT);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        assert!(c.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn degenerate_shapes() {
        // 1×1, empty k, empty m/n.
        tuned_vs_reference::<f64>(1, 1, 1, Layout::RowMajor, 1e-15);
        let a = Matrix::<f64>::zeros(4, 0, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(0, 3, Layout::RowMajor);
        let mut c = Matrix::<f64>::from_fn(4, 3, Layout::RowMajor, |_, _| 9.0);
        let params = TunedParams::for_cache::<f64>(CacheInfo::DEFAULT);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        assert!(c.as_slice().iter().all(|&x| x == 9.0), "empty k adds zero");
        let a = Matrix::<f64>::zeros(0, 5, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(5, 0, Layout::RowMajor);
        let mut c = Matrix::<f64>::zeros(0, 0, Layout::RowMajor);
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
    }

    #[test]
    fn block_sizes_respect_caches_and_tiles() {
        for tile in TileShape::ALL {
            for bytes in [2usize, 4, 8] {
                let b = BlockSizes::for_cache(CacheInfo::DEFAULT, tile, bytes);
                assert!(b.kc >= 64 && b.kc <= 512 && b.kc.is_multiple_of(4));
                assert_eq!(b.mc % tile.mr, 0);
                assert_eq!(b.nc % tile.nr, 0);
                // Kc×NR B micropanel really fits L1d.
                assert!(b.kc * tile.nr * bytes <= CacheInfo::DEFAULT.l1d_bytes);
                // Mc×Kc A block really fits L2.
                assert!(b.mc * b.kc * bytes <= CacheInfo::DEFAULT.l2_bytes);
            }
        }
        // A tiny cache still yields runnable (clamped) blocks.
        let tiny = CacheInfo {
            l1d_bytes: 1024,
            l2_bytes: 4096,
            l3_bytes: 65536,
            ..CacheInfo::DEFAULT
        };
        let b = BlockSizes::for_cache(tiny, TileShape { mr: 8, nr: 8 }, 8);
        assert!(b.kc >= 64 && b.mc >= 8 && b.nc >= 8);
    }

    #[test]
    fn stats_count_packing_and_microkernels() {
        let (m, k, n) = (16, 8, 16);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 6);
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            blocks: BlockSizes {
                mc: 16,
                kc: 8,
                nc: 16,
            },
        };
        let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
        let stats = gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
        // One k-panel, one row block: A packed once (16×8), B once (8×16),
        // and (16/4)·(16/4) microkernel tiles.
        assert_eq!(stats.pack_a_bytes, 16 * 8 * 8);
        assert_eq!(stats.pack_b_bytes, 8 * 16 * 8);
        assert_eq!(stats.microkernel_calls, 16);
    }

    #[test]
    fn default_tiles_per_width() {
        assert_eq!(TileShape::default_for(8), TileShape { mr: 4, nr: 4 });
        assert_eq!(TileShape::default_for(4), TileShape { mr: 4, nr: 8 });
        assert_eq!(TileShape::default_for(2), TileShape { mr: 4, nr: 8 });
        assert_eq!(TileShape { mr: 4, nr: 8 }.name(), "4x8");
        let avx512 = |bytes| TileShape::for_isa(Isa::Avx512, bytes);
        assert_eq!(avx512(8), TileShape { mr: 12, nr: 16 });
        assert_eq!(avx512(4), TileShape { mr: 12, nr: 32 });
        assert_eq!(avx512(2), TileShape { mr: 12, nr: 32 });
        for isa in Isa::ALL {
            for bytes in [2, 4, 8] {
                assert!(TileShape::ALL.contains(&TileShape::for_isa(isa, bytes)));
            }
        }
    }

    /// Whether `tile` dispatches a native microkernel for flavour `P`'s
    /// packed element type under `isa`.
    fn tile_is_native<P: PackOps>(tile: TileShape, isa: Isa) -> bool {
        use crate::simd::is_native;
        tile_fn!(tile, is_native::<P::Pack>)(isa)
    }

    #[test]
    fn default_tiles_never_fall_back_to_portable() {
        // A default tile that silently misses its ISA's lane rules would
        // time the portable (or a half-width) kernel under a SIMD label.
        fn check<P: PackOps>(isa: Isa) {
            let tile = TunedParams::for_cache_isa::<P::Src>(CacheInfo::DEFAULT, isa).tile;
            assert!(
                tile_is_native::<P>(tile, isa),
                "{} {tile} under {isa}",
                P::Src::NAME
            );
        }
        for isa in Isa::ALL
            .into_iter()
            .filter(|&i| i.available() && i != Isa::Portable)
        {
            check::<PlainOps<f64>>(isa);
            check::<PlainOps<f32>>(isa);
            check::<WidenedF16Ops>(isa);
        }
        // The process-wide parameters every default entry point uses.
        let active = simd::active();
        if active != Isa::Portable {
            assert!(tile_is_native::<PlainOps<f64>>(
                TunedParams::host::<f64>().tile,
                active
            ));
            assert!(tile_is_native::<PlainOps<f32>>(
                TunedParams::host::<f32>().tile,
                active
            ));
            assert!(tile_is_native::<WidenedF16Ops>(
                TunedParams::host::<F16>().tile,
                active
            ));
        }
        #[cfg(target_arch = "x86_64")]
        if Isa::Avx512.available() {
            // f32 gets 16-lane zmm rows, not the 8-lane ymm kernel.
            let tile = TileShape::for_isa(Isa::Avx512, 4);
            assert!(
                tile.nr.is_multiple_of(16) && tile_is_native::<PlainOps<f32>>(tile, Isa::Avx512)
            );
        }
    }

    #[test]
    fn row_blocks_are_balanced_aligned_and_capped() {
        for m in [0, 1, 13, 100, 1000, 1024] {
            for mr in [4, 8, 12] {
                for mc in [mr, 3 * mr, 672, 1020] {
                    for threads in 1..=5 {
                        let blocks = row_blocks(m, mr, mc, threads);
                        let ctx = format!("m={m} mr={mr} mc={mc} threads={threads}");
                        // A contiguous, ordered cover of 0..m.
                        assert_eq!(blocks.first().map_or(0, |b| b.start), 0, "{ctx}");
                        assert_eq!(blocks.last().map_or(0, |b| b.end), m, "{ctx}");
                        assert!(blocks.windows(2).all(|w| w[0].end == w[1].start), "{ctx}");
                        for b in &blocks {
                            assert!(b.start.is_multiple_of(mr) && !b.is_empty(), "{ctx}");
                            assert!(b.len() <= mc.max(mr), "{ctx}");
                        }
                        // Full blocks differ by at most one micropanel.
                        let full = blocks.iter().filter(|b| b.end < m || m.is_multiple_of(mr));
                        let lens: Vec<usize> = full.map(|b| b.len()).collect();
                        if let (Some(lo), Some(hi)) = (lens.iter().min(), lens.iter().max()) {
                            assert!(hi - lo <= mr, "{ctx}: {lens:?}");
                        }
                        // The count is a multiple of the team size unless
                        // every block is already a single micropanel, and
                        // every worker has a block once there is a
                        // micropanel for each of them.
                        let one_each = blocks.len() == m.div_ceil(mr);
                        assert!(one_each || blocks.len().is_multiple_of(threads), "{ctx}");
                        if m >= threads * mr {
                            assert!(blocks.len() >= threads, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn balanced_split_keeps_parallel_bitwise_serial() {
        // Ragged m against the host's default tile, ragged k/n, and real
        // cache blocking: the split changes who owns a row, never the
        // accumulation order.
        let params = TunedParams::host::<f64>();
        let mr = params.tile.mr;
        let (k, n) = (37, 29);
        for m in [13, 100, 1000] {
            let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 21);
            let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 22);
            let mut c_serial = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
            gemm_serial(&a, &b, &mut c_serial, &params, &mut PackArena::new());
            for threads in 2..=5 {
                let pool = ThreadPool::new(threads);
                let mut c = Matrix::<f64>::zeros(m, n, Layout::RowMajor);
                let region = gemm(&pool, &a, &b, &mut c, &params);
                assert_eq!(c_serial, c, "m={m} threads={threads}");
                if m >= threads * mr {
                    let items = &region.items_per_thread;
                    assert_eq!(items.len(), threads);
                    assert!(
                        items.iter().all(|&i| i > 0),
                        "m={m} threads={threads}: {items:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported tile shape")]
    fn unsupported_tile_panics() {
        let a = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let b = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let mut c = Matrix::<f64>::zeros(2, 2, Layout::RowMajor);
        let params = TunedParams {
            tile: TileShape { mr: 3, nr: 5 },
            blocks: BlockSizes {
                mc: 8,
                kc: 8,
                nc: 8,
            },
        };
        gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
    }
}
