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
//! Parallelisation follows the paper's CPU strategy on the existing
//! [`ThreadPool`]: one `parallel_for` in which every worker owns a static
//! share of the macro-row-blocks of `C` (`MR`-aligned, at most `Mc` rows,
//! balanced across the team) and packs its `A` blocks into a thread-local
//! [`PackArena`]. As in BLIS, each `Kc×Nc` panel of `B` is packed once
//! per region: the workers pack disjoint micropanel slices of one shared
//! panel, meet at a [`SenseBarrier`], and then all read the whole panel.
//! Arenas and the shared panel are reused across calls, so sweep loops do
//! not reallocate per size point.
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
use perfport_pool::{
    static_block, CacheInfo, Chunk, RegionStats, Schedule, SenseBarrier, ThreadPool,
};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
/// grown memory is zero-initialised (`vec!` of zero, which the allocator
/// serves as untouched zero pages), and the packing routines overwrite
/// every element they later read. The store carries one line of slack and
/// the buffer starts at the first 64-byte boundary inside it, so
/// micropanel starts are aligned without any raw allocation.
struct AlignedBuf<T> {
    store: Vec<T>,
    /// Elements skipped at the front of `store` to reach the boundary.
    off: usize,
}

impl<T: Scalar> AlignedBuf<T> {
    fn new() -> Self {
        AlignedBuf {
            store: Vec::new(),
            off: 0,
        }
    }

    /// Grows capacity to at least `len` and returns the first `len`
    /// elements as a mutable slice.
    fn slice_for(&mut self, len: usize) -> &mut [T] {
        if self.off + len > self.store.len() {
            let slack = PACK_ALIGN / std::mem::size_of::<T>();
            self.store = vec![T::zero(); len.next_power_of_two() + slack];
            // `align_offset` may decline (`usize::MAX`); the buffer is
            // then merely unaligned, which the `loadu` kernels tolerate.
            self.off = match self.store.as_ptr().align_offset(PACK_ALIGN) {
                off if off <= slack => off,
                _ => 0,
            };
        }
        &mut self.store[self.off..self.off + len]
    }

    /// The first `len` elements, read-only. `len` must not exceed the
    /// capacity a prior [`AlignedBuf::slice_for`] established.
    fn as_slice(&self, len: usize) -> &[T] {
        assert!(
            self.off + len <= self.store.len(),
            "reading past the packed region"
        );
        &self.store[self.off..self.off + len]
    }
}

/// A packed `B` panel shared by a region's team: one grow-only segment
/// per member, split at micropanel boundaries ([`static_block`] over the
/// panel's `NR`-column micropanels).
///
/// Member `t` packs segment `t` under its write lock; after the panel
/// barrier every member reads all segments under read locks, and a second
/// barrier separates those reads from the next repack. The barriers
/// order the phases, so no lock ever waits: the locks only make the
/// hand-off between threads safe code. A pack that panicked leaves a
/// valid buffer of stale values, and every panel is repacked before it is
/// read, so a poisoned lock is taken over as is.
struct SharedPanel<T> {
    segments: Vec<RwLock<AlignedBuf<T>>>,
}

impl<T: Scalar> SharedPanel<T> {
    fn new() -> Self {
        SharedPanel {
            segments: Vec::new(),
        }
    }

    /// Grows to at least one segment per member of a `team` (never
    /// shrinks, so a pool reused across calls allocates this once).
    fn reserve_team(&mut self, team: usize) {
        while self.segments.len() < team {
            self.segments.push(RwLock::new(AlignedBuf::new()));
        }
    }

    /// Member `tid`'s segment, for packing.
    fn write(&self, tid: usize) -> RwLockWriteGuard<'_, AlignedBuf<T>> {
        self.segments[tid]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Segment `s`, for the compute phase.
    fn read(&self, s: usize) -> RwLockReadGuard<'_, AlignedBuf<T>> {
        self.segments[s]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reusable packing buffers for one thread.
///
/// Every thread that runs the blocked loop nest packs its `A` blocks into
/// its own arena. The `B` panels belong to whichever thread starts the
/// call: [`gemm_serial`] packs all of `B` into the arena it is given (a
/// team of one), while [`gemm`] lends the calling thread's arena to the
/// whole region as its one shared panel, so the workers' arenas hold only
/// `A`. Holding one of these across a sweep (or using the implicit
/// thread-local arena via [`gemm`]) means the hot loop never calls the
/// allocator after warm-up.
///
/// The `F16` path packs into widened `f32` buffers. They exist on every
/// arena regardless of `T`, and each flavour of the loop nest picks its
/// own pair (`PackOps::buffers`), so an arena never has to be
/// reinterpreted as one of another scalar type.
pub struct PackArena<T> {
    a: AlignedBuf<T>,
    b: SharedPanel<T>,
    // Widened buffers for the F16 path: packs convert f16 → f32 so the
    // contraction runs the native f32 microkernel. Empty for other T.
    aw: AlignedBuf<f32>,
    bw: SharedPanel<f32>,
}

impl<T: Scalar> PackArena<T> {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        PackArena {
            a: AlignedBuf::new(),
            b: SharedPanel::new(),
            aw: AlignedBuf::new(),
            bw: SharedPanel::new(),
        }
    }
}

impl<T: Scalar> Default for PackArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread arenas keyed by scalar type, reused across every tuned
    /// GEMM this thread ever runs. Pool workers are persistent, so a size
    /// sweep packs its `A` blocks into the same buffers throughout, and
    /// the thread that starts each [`gemm`] region reuses one shared `B`
    /// panel.
    static THREAD_ARENAS: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Runs `f` with this thread's reusable arena for `T`.
///
/// [`gemm`] holds the calling thread's arena for the whole region (its
/// `B` panel is the team's), so `f` must not start a [`gemm`] on the same
/// thread: the nested borrow panics.
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

/// Instrumentation of one tuned-GEMM invocation, recorded as the
/// `gemm/*` telemetry counters by the public entry points.
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
    fn absorb(&mut self, other: TunedStats) {
        self.pack_a_bytes += other.pack_a_bytes;
        self.pack_b_bytes += other.pack_b_bytes;
        self.microkernel_calls += other.microkernel_calls;
    }

    fn emit(&self) {
        perfport_telemetry::counter_add("gemm/invocations", 1);
        perfport_telemetry::counter_add("gemm/pack_a_bytes", self.pack_a_bytes);
        perfport_telemetry::counter_add("gemm/pack_b_bytes", self.pack_b_bytes);
        perfport_telemetry::counter_add("gemm/microkernel_calls", self.microkernel_calls);
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

    /// The buffers of `arena` this flavour packs into: the thread's `A`
    /// buffer and the `B` panel a team shares.
    fn buffers(
        arena: &mut PackArena<Self::Src>,
    ) -> (&mut AlignedBuf<Self::Pack>, &mut SharedPanel<Self::Pack>);
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

    fn buffers(arena: &mut PackArena<T>) -> (&mut AlignedBuf<T>, &mut SharedPanel<T>) {
        (&mut arena.a, &mut arena.b)
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

    fn buffers(arena: &mut PackArena<F16>) -> (&mut AlignedBuf<f32>, &mut SharedPanel<f32>) {
        (&mut arena.aw, &mut arena.bw)
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

/// One member's place in the team that runs a blocked loop nest: its
/// index and the panel barrier it shares with its teammates (`None` for a
/// team of one, which has no one to wait for).
#[derive(Clone, Copy)]
struct Team<'r> {
    tid: usize,
    barrier: Option<&'r SenseBarrier>,
}

impl Team<'_> {
    /// The team of one behind [`gemm_serial`].
    const SOLO: Team<'static> = Team {
        tid: 0,
        barrier: None,
    };

    fn size(&self) -> usize {
        self.barrier.map_or(1, SenseBarrier::team)
    }

    /// Waits for the whole team at the panel barrier, recording the wait
    /// as `gemm/barrier_ns`.
    fn sync(&self) {
        if let Some(barrier) = self.barrier {
            let t0 = Instant::now();
            barrier.wait();
            perfport_telemetry::observe("gemm/barrier_ns", elapsed_ns(t0));
        }
    }
}

/// Rows `rows` of `C`, the only part of it one member of a team writes.
struct CRows<'c, T> {
    rows: Range<usize>,
    storage: RowStorage<'c, T>,
}

/// How a [`CRows`] holds its rows.
enum RowStorage<'c, T> {
    /// Row-major `C`: the rows back to back, `n` elements each.
    Rows { n: usize, data: &'c mut [T] },
    /// Column-major `C`: entry `j` is column `j` cut to the rows.
    Cols(Vec<&'c mut [T]>),
}

/// Splits `C` into one [`CRows`] per member, member `t` getting rows
/// `bounds[t]`. The bounds must tile `0..m` in order, so every element
/// of `C` lands in exactly one view: a row-major `C` is cut into runs of
/// whole rows, and every column of a column-major `C` is cut at the same
/// row bounds.
fn split_rows<'c, T: Scalar>(c: &'c mut Matrix<T>, bounds: &[Range<usize>]) -> Vec<CRows<'c, T>> {
    let (m, n) = (c.rows(), c.cols());
    let layout = c.layout();
    let data = c.as_mut_slice();
    let storages: Vec<RowStorage<'c, T>> = match layout {
        Layout::RowMajor => {
            let mut rest = data;
            bounds
                .iter()
                .map(|rows| {
                    let (data, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * n);
                    rest = tail;
                    RowStorage::Rows { n, data }
                })
                .collect()
        }
        Layout::ColMajor => {
            let mut cols: Vec<Vec<&'c mut [T]>> =
                bounds.iter().map(|_| Vec::with_capacity(n)).collect();
            // An empty `C` has no columns to cut, whatever `n` is.
            for mut col in data.chunks_exact_mut(m.max(1)) {
                for (rows, member) in bounds.iter().zip(&mut cols) {
                    let (segment, tail) = std::mem::take(&mut col).split_at_mut(rows.len());
                    member.push(segment);
                    col = tail;
                }
            }
            cols.into_iter().map(RowStorage::Cols).collect()
        }
    };
    bounds
        .iter()
        .zip(storages)
        .map(|(rows, storage)| CRows {
            rows: rows.clone(),
            storage,
        })
        .collect()
}

/// Packs `A` and runs the register-tiled contraction of one `Mc` row
/// block against the whole packed `B` panel, every member's segment in
/// order, accumulating into `C`. Per `C` element the accumulation order is
/// fixed by the panel enumeration and this function alone (which member
/// packed a micropanel does not change its bytes), which is what keeps
/// serial and parallel runs bitwise-identical.
///
/// Kept out of line: inlined into its one caller, [`run_blocked`], the
/// n = 1024 tuned GEMM measured about 10% slower on an AVX-512 host.
///
/// Rows `i0..i0+mb` must lie inside `c.rows`.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn compute_block<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    c: &mut CRows<'_, P::Src>,
    panel: Panel,
    i0: usize,
    mb: usize,
    b_panel: &SharedPanel<P::Pack>,
    team_size: usize,
    a_buf: &mut AlignedBuf<P::Pack>,
    microkernel: simd::Microkernel<P::Pack, MR, NR>,
) -> TunedStats {
    let Panel { jc, nb, p0, kb } = panel;
    let r0 = c.rows.start;
    let mut stats = TunedStats {
        pack_a_bytes: P::pack_a(a, i0, mb, p0, kb, MR, a_buf),
        ..TunedStats::default()
    };
    let ap_all = a_buf.as_slice(mb.div_ceil(MR) * kb * MR);
    let micropanels = nb.div_ceil(NR);
    for seg in 0..team_size {
        let owned = static_block(micropanels, team_size, seg);
        let segment = b_panel.read(seg);
        let bp_seg = segment.as_slice(owned.len() * kb * NR);
        for (bp, jr) in bp_seg.chunks_exact(kb * NR).zip(owned.range()) {
            let j_base = jc + jr * NR;
            let jlim = NR.min(jc + nb - j_base);
            for ir in 0..mb.div_ceil(MR) {
                let i_base = i0 + ir * MR;
                let ilim = MR.min(i0 + mb - i_base);
                let ap = &ap_all[ir * kb * MR..(ir + 1) * kb * MR];
                let acc = microkernel(kb, ap, bp);
                stats.microkernel_calls += 1;
                match &mut c.storage {
                    RowStorage::Rows { n, data } => {
                        for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                            let at = (i_base + r - r0) * *n + j_base;
                            for (cj, &v) in data[at..at + jlim].iter_mut().zip(acc_row) {
                                P::accumulate(cj, v);
                            }
                        }
                    }
                    RowStorage::Cols(cols) => {
                        for (r, acc_row) in acc.iter().enumerate().take(ilim) {
                            let i = i_base + r - r0;
                            for (col, &v) in cols[j_base..j_base + jlim].iter_mut().zip(acc_row) {
                                P::accumulate(&mut col[i], v);
                            }
                        }
                    }
                }
            }
        }
    }
    stats
}

/// The blocked loop nest, written once for every scalar flavour (see
/// [`PackOps`]) and every team size: member `team.tid` owns `c.rows`.
///
/// Per `(jc, p0)` panel every member packs its [`static_block`] share of
/// the panel's `NR`-column micropanels into its segment of `b_panel`,
/// waits at the panel barrier, runs [`compute_block`] for each of its
/// row blocks against the whole panel, and waits again before the panel
/// is repacked (the last panel needs no second wait: the region's join
/// follows). A team of one packs the whole panel and never waits, so
/// `B` is packed exactly once per call at any team size.
#[allow(clippy::too_many_arguments)]
fn run_blocked<P: PackOps, const MR: usize, const NR: usize>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &mut CRows<'_, P::Src>,
    blocks: &BlockSizes,
    a_buf: &mut AlignedBuf<P::Pack>,
    b_panel: &SharedPanel<P::Pack>,
    team: Team<'_>,
    isa: Isa,
) -> TunedStats {
    let (n, k) = (b.cols(), a.cols());
    let rows = c.rows.clone();
    let mc = blocks.mc;
    let team_size = team.size();
    let microkernel = simd::select::<P::Pack, MR, NR>(isa);
    let mut stats = TunedStats::default();

    let all = panels(n, k, blocks);
    for (ix, &panel) in all.iter().enumerate() {
        let mine = static_block(panel.nb.div_ceil(NR), team_size, team.tid);
        // This member's columns of the panel; none when it owns no
        // micropanel (`mine` then starts at the panel's end).
        let cols = panel.nb.min(mine.end * NR).saturating_sub(mine.start * NR);
        let t0 = Instant::now();
        stats.pack_b_bytes += P::pack_b(
            b,
            panel.p0,
            panel.kb,
            panel.jc + mine.start * NR,
            cols,
            NR,
            &mut b_panel.write(team.tid),
        );
        perfport_telemetry::observe("gemm/pack_ns", elapsed_ns(t0));
        team.sync();
        for i0 in (rows.start..rows.end).step_by(mc) {
            let mb = mc.min(rows.end - i0);
            let t0 = Instant::now();
            let s = compute_block::<P, MR, NR>(
                a,
                c,
                panel,
                i0,
                mb,
                b_panel,
                team_size,
                a_buf,
                microkernel,
            );
            perfport_telemetry::observe("gemm/compute_ns", elapsed_ns(t0));
            stats.absorb(s);
        }
        if ix + 1 < all.len() {
            team.sync();
        }
    }
    stats
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Why a downcast of `C` or the arena to its `F16` type cannot fail once
/// `A`'s and `B`'s succeeded. The entry points pick the widened flavour
/// once per call this way, when `T` is `F16`.
const SAME_SCALAR: &str = "A, B, C and the arena share one scalar type";

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

/// The serial tuned GEMM for one flavour: a team of one that owns all of
/// `C` and packs `A` and all of `B` through `arena`.
fn solo<P: PackOps>(
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &mut Matrix<P::Src>,
    params: &TunedParams,
    arena: &mut PackArena<P::Src>,
    isa: Isa,
) -> TunedStats {
    let whole = 0..c.rows();
    let mut all = split_rows(c, std::slice::from_ref(&whole))
        .pop()
        .expect("one view per bound");
    let (a_buf, b_panel) = P::buffers(arena);
    b_panel.reserve_team(1);
    let run = tile_fn!(params.tile, run_blocked::<P>);
    run(
        a,
        b,
        &mut all,
        &params.blocks,
        a_buf,
        b_panel,
        Team::SOLO,
        isa,
    )
}

/// One member of a [`gemm`] region: its rows of `C`, and the counters of
/// the work it did.
struct Member<'c, T> {
    c: CRows<'c, T>,
    stats: TunedStats,
}

/// The parallel tuned GEMM for one flavour (see [`gemm`]).
fn team_gemm<P: PackOps>(
    pool: &ThreadPool,
    a: &Matrix<P::Src>,
    b: &Matrix<P::Src>,
    c: &mut Matrix<P::Src>,
    params: &TunedParams,
    isa: Isa,
) -> RegionStats {
    let m = c.rows();
    let team = pool.num_threads();
    let blocks = row_blocks(m, params.tile.mr, params.blocks.mc, team);
    let shares: Vec<Chunk> = (0..team)
        .map(|t| static_block(blocks.len(), team, t))
        .collect();
    let bounds: Vec<Range<usize>> = shares
        .iter()
        .map(|share| {
            if share.is_empty() {
                m..m
            } else {
                blocks[share.start].start..blocks[share.end - 1].end
            }
        })
        .collect();
    let mut members: Vec<Member<'_, P::Src>> = split_rows(c, &bounds)
        .into_iter()
        .map(|c| Member {
            c,
            stats: TunedStats::default(),
        })
        .collect();
    let barrier = SenseBarrier::new(team);
    let run = tile_fn!(params.tile, run_blocked::<P>);
    let mut region = with_thread_arena(|arena: &mut PackArena<P::Src>| {
        let (_, b_panel) = P::buffers(arena);
        b_panel.reserve_team(team);
        let b_panel = &*b_panel;
        // One item per member, so under `StaticBlock` worker `t` is
        // member `t`, and every member meets the panel barrier.
        pool.parallel_for_mut(&mut members, 1, Schedule::StaticBlock, |_, chunk, mine| {
            let _poison = barrier.poison_on_unwind();
            let member = &mut mine[0];
            let seat = Team {
                tid: chunk.start,
                barrier: (team > 1).then_some(&barrier),
            };
            member.stats = with_thread_arena(|own: &mut PackArena<P::Src>| {
                let (a_buf, _) = P::buffers(own);
                run(
                    a,
                    b,
                    &mut member.c,
                    &params.blocks,
                    a_buf,
                    b_panel,
                    seat,
                    isa,
                )
            });
        })
    });
    // The region's one item per member says nothing about the split:
    // report each member's row blocks, one chunk per non-empty share, as
    // a `parallel_for` over the blocks would.
    region.items_per_thread = shares.iter().map(Chunk::len).collect();
    region.chunks_per_thread = shares
        .iter()
        .map(|share| usize::from(!share.is_empty()))
        .collect();
    let mut totals = TunedStats::default();
    for member in &members {
        totals.absorb(member.stats);
    }
    totals.emit();
    region
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

/// [`gemm_serial`] with an explicit ISA verdict instead of the
/// process-wide one — the A/B entry point tests and ablations use to
/// compare microkernels without touching `PERFPORT_SIMD`.
///
/// `isa` must be available on this CPU (callers obtain it from
/// [`Isa::detect`], [`simd::active`], or an [`Isa::available`] check);
/// [`simd::select`] falls back to the portable kernel for tile shapes the
/// ISA cannot serve.
///
/// # Panics
///
/// Panics on shape mismatch or an unsupported tile shape.
pub fn gemm_serial_with_isa<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    params: &TunedParams,
    arena: &mut PackArena<T>,
    isa: Isa,
) -> TunedStats {
    check_shapes(a, b, c.rows(), c.cols());
    let f16 = (a as &dyn Any)
        .downcast_ref()
        .zip((b as &dyn Any).downcast_ref());
    let stats = match f16 {
        Some((a16, b16)) => solo::<WidenedF16Ops>(
            a16,
            b16,
            (c as &mut dyn Any).downcast_mut().expect(SAME_SCALAR),
            params,
            (arena as &mut dyn Any).downcast_mut().expect(SAME_SCALAR),
            isa,
        ),
        None => solo::<PlainOps<T>>(a, b, c, params, arena, isa),
    };
    stats.emit();
    stats
}

/// Parallel tuned GEMM: one fork-join `parallel_for` in which every
/// worker of `pool` runs the blocked loop nest once, as one member of a
/// team.
///
/// Each member owns a [`Schedule::StaticBlock`] share of the balanced,
/// `MR`-aligned row blocks of `C` and packs its `A` blocks into its own
/// thread-local [`PackArena`]. `B` is packed once per region: the calling
/// thread's thread-local arena lends its panel to the team, every member
/// packs a disjoint slice of each `(jc, p0)` panel, and a
/// [`SenseBarrier`] separates packing a panel from reading it, and
/// reading it from repacking it. A member that panics poisons the
/// barrier, so the region re-raises instead of hanging. Returns the region
/// instrumentation, whose `items_per_thread` counts each member's row
/// blocks; the packing/microkernel counters go to
/// `perfport-telemetry`, and `gemm/pack_b_bytes` equals
/// [`gemm_serial`]'s at any team size. Results are bitwise-identical
/// across team sizes and to [`gemm_serial`].
///
/// The calling thread's arena stays borrowed for the whole region, so
/// `gemm` must not be called from inside [`with_thread_arena`].
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
    let f16 = (a as &dyn Any)
        .downcast_ref()
        .zip((b as &dyn Any).downcast_ref());
    match f16 {
        Some((a16, b16)) => team_gemm::<WidenedF16Ops>(
            pool,
            a16,
            b16,
            (c as &mut dyn Any).downcast_mut().expect(SAME_SCALAR),
            params,
            isa,
        ),
        None => team_gemm::<PlainOps<T>>(pool, a, b, c, params, isa),
    }
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
            // the team's shared B panel is repacked repeatedly.
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
        // packs of the one shared B panel, while 7 workers read it side by
        // side. A repack before every member has drained the panel
        // corrupts C.
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
                let blocks = row_blocks(m, mr, params.blocks.mc, threads);
                assert_eq!(
                    region.total_items(),
                    blocks.len(),
                    "m={m} threads={threads}"
                );
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
