//! The launch engine: grid iteration, counter aggregation, and optional
//! data-race detection.
//!
//! One block engine serves both launch kinds. It hands the grid's blocks
//! out one at a time to the device's `perfport-pool` workers, stops
//! handing them out after the first fault, and merges the per-block
//! [`LaunchStats`]. Only the block bodies differ: the plain warp loop
//! here, and the barrier-phase loop in [`crate::cooperative`].

use crate::buffer::{DeviceBuffer, DeviceCopy};
use crate::ctx::{Access, ThreadCtx};
use crate::device::DeviceClass;
use crate::dim::Dim3;
use crate::stats::LaunchStats;
use parking_lot::Mutex;
use perfport_pool::{Schedule, ThreadPool};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Grid and block shape of a launch — the `<<<grid, block>>>` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
}

impl LaunchConfig {
    /// A 1-D launch covering `n` threads with `block`-sized blocks.
    pub fn cover1d(n: u32, block: u32) -> Self {
        LaunchConfig {
            grid: Dim3::cover(Dim3::d1(n.max(1)), Dim3::d1(block)),
            block: Dim3::d1(block),
        }
    }

    /// A 2-D launch covering an `nx × ny` problem — the paper's GEMM grid
    /// with 32×32 thread blocks.
    pub fn cover2d(nx: u32, ny: u32, block: Dim3) -> Self {
        LaunchConfig {
            grid: Dim3::cover(Dim3::d2(nx.max(1), ny.max(1)), block),
            block,
        }
    }

    /// Checks the configuration against device limits.
    pub fn validate(&self, class: DeviceClass) -> Result<(), LaunchError> {
        if self.grid.count() == 0 || self.block.count() == 0 {
            return Err(LaunchError::InvalidConfig(
                "grid and block extents must be non-zero".into(),
            ));
        }
        let per_block = self.block.count();
        if per_block > class.max_threads_per_block() as u64 {
            return Err(LaunchError::InvalidConfig(format!(
                "block has {per_block} threads, device limit is {}",
                class.max_threads_per_block()
            )));
        }
        Ok(())
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

/// Knobs for one launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchOptions {
    /// Record every thread's accesses and report write-write or
    /// cross-thread read-write sharing. Runs the blocks serially on the
    /// calling thread instead of the device's workers; intended for kernel
    /// debugging at small sizes (compare `compute-sanitizer --tool
    /// racecheck`).
    pub detect_races: bool,
}

/// Launch failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The grid/block shape violates a device limit.
    InvalidConfig(String),
    /// Two simulated threads raced on a global address (race detector
    /// enabled).
    DataRace {
        /// Conflicting simulated address.
        addr: u64,
        /// Global linear id of the first thread involved.
        thread_a: u64,
        /// Global linear id of the second thread involved.
        thread_b: u64,
    },
    /// Threads of one block disagreed about continuing at a barrier
    /// (cooperative launches) — undefined behaviour on real hardware.
    BarrierDivergence {
        /// The offending block.
        block: Dim3,
        /// The phase at which lanes disagreed.
        phase: usize,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(msg) => write!(f, "invalid launch config: {msg}"),
            LaunchError::DataRace {
                addr,
                thread_a,
                thread_b,
            } => write!(
                f,
                "data race on device address {addr:#x} between threads {thread_a} and {thread_b}"
            ),
            LaunchError::BarrierDivergence { block, phase } => {
                write!(f, "barrier divergence in block {block} at phase {phase}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// A simulated GPU: an address space for buffers plus the launch engine.
///
/// Each device owns a `perfport-pool` team, one worker per available
/// core, that simulates the grid's blocks; the workers are joined when the
/// device drops. A kernel must not launch on its own device.
///
/// ```
/// use perfport_gpusim::{DeviceClass, Gpu, LaunchConfig};
///
/// let gpu = Gpu::new(DeviceClass::NvidiaLike);
/// let xs = gpu.alloc_from_slice(&[1.0f32, 2.0, 3.0, 4.0]);
/// let ys = gpu.alloc_filled(4, 0.0f32);
/// let stats = gpu
///     .launch(LaunchConfig::cover1d(4, 32), |t| {
///         let i = t.global_x();
///         if i < 4 {
///             ys.write(t, i, xs.read(t, i) * 10.0);
///             t.tally_flops(1);
///         }
///     })
///     .unwrap();
/// assert_eq!(ys.to_host(), vec![10.0, 20.0, 30.0, 40.0]);
/// assert_eq!(stats.flops, 4);
/// ```
pub struct Gpu {
    class: DeviceClass,
    next_base: AtomicU64,
    next_id: AtomicU32,
    pool: ThreadPool,
}

/// Alignment of simulated allocations (matches `cudaMalloc`'s 256-byte
/// guarantee, and keeps buffers from sharing cache lines).
const ALLOC_ALIGN: u64 = 256;

impl Gpu {
    /// Creates a device of the given class.
    pub fn new(class: DeviceClass) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        Gpu {
            class,
            next_base: AtomicU64::new(ALLOC_ALIGN),
            next_id: AtomicU32::new(0),
            pool: ThreadPool::new(workers),
        }
    }

    /// The device's execution class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    fn bump(&self, bytes: u64) -> (u32, u64) {
        let size = bytes.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let base = self.next_base.fetch_add(size, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        (id, base)
    }

    /// Copies a host slice into a fresh device buffer (`cudaMemcpy` H2D).
    pub fn alloc_from_slice<T: DeviceCopy>(&self, host: &[T]) -> DeviceBuffer<T> {
        let (id, base) = self.bump(std::mem::size_of_val(host) as u64);
        DeviceBuffer::new(id, base, host.iter().copied())
    }

    /// Allocates `len` elements initialised to `value`.
    pub fn alloc_filled<T: DeviceCopy>(&self, len: usize, value: T) -> DeviceBuffer<T> {
        let (id, base) = self.bump((len * std::mem::size_of::<T>()) as u64);
        DeviceBuffer::new(id, base, vec![value; len])
    }

    /// Launches `kernel` over `cfg` with default options.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::InvalidConfig`] for illegal shapes.
    ///
    /// # Panics
    ///
    /// Propagates kernel panics (e.g. out-of-bounds buffer access — the
    /// simulator's illegal-address fault).
    pub fn launch<F>(&self, cfg: LaunchConfig, kernel: F) -> Result<LaunchStats, LaunchError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.launch_with(cfg, LaunchOptions::default(), kernel)
    }

    /// Launches with explicit [`LaunchOptions`].
    pub fn launch_with<F>(
        &self,
        cfg: LaunchConfig,
        opts: LaunchOptions,
        kernel: F,
    ) -> Result<LaunchStats, LaunchError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        cfg.validate(self.class)?;
        let mut sp = perfport_trace::span("gpu", "launch");
        let geom = BlockGeometry::new(self.class, cfg);
        let race_log: Mutex<Vec<(u64, Vec<Access>)>> = Mutex::new(Vec::new());

        let stats = self.run_blocks(cfg.grid, opts.detect_races, |block_idx| {
            let mut local = geom.block_stats();
            let mut lanes: Vec<Vec<Access>> = Vec::with_capacity(geom.warp as usize);
            for w in 0..geom.warps_per_block {
                lanes.clear();
                for lin in geom.warp_lanes(w) {
                    let ctx = geom.thread(block_idx, lin);
                    kernel(&ctx);
                    let global_id = ctx.global_linear();
                    let log = local.absorb_thread(ctx);
                    if opts.detect_races {
                        race_log.lock().push((global_id, log.clone()));
                    }
                    lanes.push(log);
                }
                local.threads += lanes.len() as u64;
                local.absorb_warp(&lanes);
            }
            Ok(local)
        })?;

        if opts.detect_races {
            check_races(&race_log.into_inner())?;
        }

        if sp.is_recording() {
            let class = self.class;
            let occ = crate::occupancy::occupancy(class, geom.threads_per_block as u32, 0);
            sp.arg("class", format!("{class:?}"));
            sp.arg("grid", cfg.grid.to_string());
            sp.arg("block", cfg.block.to_string());
            sp.arg("blocks", stats.blocks);
            sp.arg("threads", stats.threads);
            sp.arg("flops", stats.flops);
            sp.arg("load_transactions", stats.load_transactions);
            sp.arg("store_transactions", stats.store_transactions);
            sp.arg("divergent_warps", stats.divergent_warps);
            sp.arg("occupancy", occ.fraction);
            sp.arg("occupancy_limiter", format!("{:?}", occ.limiter));
            perfport_trace::counter(
                "gpu",
                "coalescing_efficiency",
                stats.coalescing_efficiency(),
            );
            perfport_trace::counter("gpu", "occupancy", occ.fraction);
        }
        Ok(stats)
    }

    /// The block engine behind every launch: runs `block` once per block
    /// of `grid` and merges the per-block stats.
    ///
    /// Blocks are handed out one at a time (`Schedule::Dynamic { chunk: 1 }`)
    /// to the device's workers, or run in order on the calling thread when
    /// `serial`. After the first fault no further block starts. A kernel
    /// panic is caught inside the block — the pool never sees a poisoned
    /// region — and re-raised here with its original payload (e.g. the
    /// illegal-address message); an `Err` from a block is returned.
    pub(crate) fn run_blocks<B>(
        &self,
        grid: Dim3,
        serial: bool,
        block: B,
    ) -> Result<LaunchStats, LaunchError>
    where
        B: Fn(Dim3) -> Result<LaunchStats, LaunchError> + Sync,
    {
        let start = Instant::now();
        let fault: Mutex<Option<Fault>> = Mutex::new(None);
        let run = |b: usize| {
            if fault.lock().is_some() {
                return None;
            }
            let failure = match catch_unwind(AssertUnwindSafe(|| block(grid.delinearize(b as u64))))
            {
                Ok(Ok(stats)) => return Some(stats),
                Ok(Err(err)) => Fault::Error(err),
                Err(payload) => Fault::Panic(payload),
            };
            fault.lock().get_or_insert(failure);
            None
        };
        let n_blocks = grid.count() as usize;
        let per_block: Vec<Option<LaunchStats>> = if serial {
            (0..n_blocks).map(run).collect()
        } else {
            self.pool
                .parallel_map(n_blocks, Schedule::Dynamic { chunk: 1 }, run)
        };
        match fault.into_inner() {
            Some(Fault::Panic(payload)) => resume_unwind(payload),
            Some(Fault::Error(err)) => return Err(err),
            None => {}
        }

        let mut stats = LaunchStats {
            line_bytes: self.class.transaction_bytes(),
            ..Default::default()
        };
        for local in per_block.iter().flatten() {
            stats.merge(local);
        }
        stats.sim_time = start.elapsed();
        for (name, value) in [
            ("gpusim/launches", 1),
            ("gpusim/blocks", stats.blocks),
            ("gpusim/warps", stats.warps),
            ("gpusim/divergent_warps", stats.divergent_warps),
            ("gpusim/load_transactions", stats.load_transactions),
            ("gpusim/store_transactions", stats.store_transactions),
        ] {
            perfport_telemetry::counter_add(name, value);
        }
        Ok(stats)
    }
}

/// The first failure of a launch.
enum Fault {
    /// A kernel thread panicked; the payload is re-raised on the caller.
    Panic(Box<dyn Any + Send>),
    /// A block body reported an error.
    Error(LaunchError),
}

/// What both block bodies need to know about a launch's shape.
pub(crate) struct BlockGeometry {
    class: DeviceClass,
    cfg: LaunchConfig,
    /// Lanes per warp (wavefront).
    pub(crate) warp: u64,
    pub(crate) threads_per_block: u64,
    pub(crate) warps_per_block: u64,
}

impl BlockGeometry {
    pub(crate) fn new(class: DeviceClass, cfg: LaunchConfig) -> Self {
        let warp = class.warp_size() as u64;
        let threads_per_block = cfg.block.count();
        BlockGeometry {
            class,
            cfg,
            warp,
            threads_per_block,
            warps_per_block: threads_per_block.div_ceil(warp),
        }
    }

    /// Fresh stats for one block, at the device's transaction size.
    pub(crate) fn block_stats(&self) -> LaunchStats {
        LaunchStats {
            blocks: 1,
            line_bytes: self.class.transaction_bytes(),
            ..Default::default()
        }
    }

    /// In-block linear ids of warp `w`'s lanes.
    pub(crate) fn warp_lanes(&self, w: u64) -> Range<u64> {
        w * self.warp..self.threads_per_block.min((w + 1) * self.warp)
    }

    /// The context of in-block thread `lin` of block `block_idx`.
    pub(crate) fn thread(&self, block_idx: Dim3, lin: u64) -> ThreadCtx {
        let thread_idx = self.cfg.block.delinearize(lin);
        ThreadCtx::new(
            self.class,
            self.cfg.grid,
            self.cfg.block,
            block_idx,
            thread_idx,
        )
    }
}

/// Scans the full access trace for unsynchronised sharing: two distinct
/// threads writing one address, or one thread reading an address another
/// thread wrote. In a data-parallel launch (no cross-block or cross-warp
/// ordering), any such sharing is a race.
fn check_races(trace: &[(u64, Vec<Access>)]) -> Result<(), LaunchError> {
    let mut writers: HashMap<u64, u64> = HashMap::new();
    for (tid, log) in trace {
        for a in log.iter().filter(|a| a.store && !a.atomic) {
            if let Some(&other) = writers.get(&a.addr) {
                if other != *tid {
                    return Err(LaunchError::DataRace {
                        addr: a.addr,
                        thread_a: other,
                        thread_b: *tid,
                    });
                }
            } else {
                writers.insert(a.addr, *tid);
            }
        }
    }
    for (tid, log) in trace {
        for a in log.iter().filter(|a| !a.store && !a.atomic) {
            if let Some(&w) = writers.get(&a.addr) {
                if w != *tid {
                    return Err(LaunchError::DataRace {
                        addr: a.addr,
                        thread_a: w,
                        thread_b: *tid,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_add_runs_and_counts() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1000u32;
        let a = gpu.alloc_from_slice(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let b = gpu.alloc_from_slice(&vec![2.0f32; n as usize]);
        let c = gpu.alloc_filled(n as usize, 0.0f32);
        let cfg = LaunchConfig::cover1d(n, 128);
        let stats = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                if i < n as usize {
                    let v = a.read(t, i) + b.read(t, i);
                    c.write(t, i, v);
                    t.tally_flops(1);
                }
            })
            .unwrap();
        for i in 0..n as usize {
            assert_eq!(c.get(i), i as f32 + 2.0);
        }
        assert_eq!(stats.flops, n as u64);
        assert_eq!(stats.loads, 2 * n as u64);
        assert_eq!(stats.stores, n as u64);
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.threads, 8 * 128);
        // 1000 of 1024 threads active: the tail warp is divergent.
        assert_eq!(stats.divergent_warps, 1);
    }

    #[test]
    fn coalesced_vs_strided_transactions() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1024usize;
        let src = gpu.alloc_filled(n * 32, 1.0f32);
        let dst = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, 256);

        let coalesced = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                dst.write(t, i, src.read(t, i));
            })
            .unwrap();
        let strided = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                dst.write(t, i, src.read(t, i * 32));
            })
            .unwrap();
        // 32 f32 per 128-byte line: coalesced warp = 1 transaction, stride
        // 32 puts every lane in its own line.
        assert_eq!(coalesced.load_transactions, (n / 32) as u64);
        assert_eq!(strided.load_transactions, n as u64);
        assert!(strided.coalescing_efficiency() < coalesced.coalescing_efficiency());
    }

    #[test]
    fn grid2_semantics_match_cuda() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let out = gpu.alloc_filled(16 * 8, 0u32);
        let cfg = LaunchConfig::cover2d(16, 8, Dim3::d2(4, 4));
        gpu.launch(cfg, |t| {
            let (x, y) = t.grid2();
            if x < 16 && y < 8 {
                out.write(t, y * 16 + x, (1000 * y + x) as u32);
            }
        })
        .unwrap();
        for y in 0..8 {
            for x in 0..16 {
                assert_eq!(out.get(y * 16 + x), (1000 * y + x) as u32);
            }
        }
    }

    #[test]
    fn amd_wavefronts_change_warp_count() {
        let na = Gpu::new(DeviceClass::NvidiaLike);
        let aa = Gpu::new(DeviceClass::AmdLike);
        let cfg = LaunchConfig::cover1d(512, 256);
        let sn = na.launch(cfg, |_t| {}).unwrap();
        let sa = aa.launch(cfg, |_t| {}).unwrap();
        assert_eq!(sn.warps, 2 * 8); // 256/32 per block × 2 blocks
        assert_eq!(sa.warps, 2 * 4); // 256/64 per block × 2 blocks
    }

    #[test]
    fn invalid_configs_rejected() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let too_big = LaunchConfig {
            grid: Dim3::d1(1),
            block: Dim3::d2(64, 32),
        };
        assert!(matches!(
            gpu.launch(too_big, |_t| {}),
            Err(LaunchError::InvalidConfig(_))
        ));
        let empty = LaunchConfig {
            grid: Dim3::d1(1),
            block: Dim3 { x: 0, y: 1, z: 1 },
        };
        assert!(gpu.launch(empty, |_t| {}).is_err());
    }

    #[test]
    #[should_panic(expected = "illegal device address")]
    fn out_of_bounds_access_faults() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(8, 0.0f32);
        let cfg = LaunchConfig::cover1d(32, 32);
        let _ = gpu.launch(cfg, |t| {
            // No bounds guard: threads 8..32 fault.
            buf.write(t, t.global_x(), 1.0);
        });
    }

    #[test]
    fn race_detector_catches_write_write() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(1, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions { detect_races: true };
        let err = gpu
            .launch_with(cfg, opts, |t| {
                buf.write(t, 0, t.global_x() as u32);
            })
            .unwrap_err();
        assert!(matches!(err, LaunchError::DataRace { .. }));
    }

    #[test]
    fn race_detector_catches_read_write_sharing() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(64, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions { detect_races: true };
        let err = gpu
            .launch_with(cfg, opts, |t| {
                let i = t.global_x();
                // Neighbour read of a written cell: racy.
                let v = buf.read(t, (i + 1) % 64);
                buf.write(t, i, v + 1);
            })
            .unwrap_err();
        assert!(matches!(err, LaunchError::DataRace { .. }));
    }

    #[test]
    fn race_free_kernel_passes_detector() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let a = gpu.alloc_filled(64, 1u32);
        let b = gpu.alloc_filled(64, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions { detect_races: true };
        let stats = gpu
            .launch_with(cfg, opts, |t| {
                let i = t.global_x();
                b.write(t, i, a.read(t, i) * 2);
            })
            .unwrap();
        assert_eq!(stats.threads, 64);
        assert!(b.to_host().iter().all(|&x| x == 2));
    }

    #[test]
    fn serial_and_pooled_launches_agree() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 4096;
        let src = gpu.alloc_from_slice(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let d1 = gpu.alloc_filled(n, 0.0f32);
        let d2 = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, 128);
        let serial = gpu
            .launch_with(cfg, LaunchOptions { detect_races: true }, |t| {
                let i = t.global_x();
                d1.write(t, i, src.read(t, i) * 3.0);
            })
            .unwrap();
        let pooled = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                d2.write(t, i, src.read(t, i) * 3.0);
            })
            .unwrap();
        assert_eq!(d1.to_host(), d2.to_host());
        assert_eq!(serial.loads, pooled.loads);
        assert_eq!(serial.load_transactions, pooled.load_transactions);
        assert_eq!(serial.divergent_warps, pooled.divergent_warps);
    }

    #[test]
    fn a_fault_stops_the_launch_and_keeps_its_message() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(64, 0u32);
        let started = AtomicU64::new(0);
        let cfg = LaunchConfig::cover1d(64 * 256, 64);
        let fault = std::panic::catch_unwind(AssertUnwindSafe(|| {
            gpu.launch(cfg, |t| {
                if t.linear_in_block() == 0 {
                    started.fetch_add(1, Ordering::Relaxed);
                }
                // Block 0 is in bounds; every later block faults at once.
                let i = if t.block_idx.x == 0 { t.global_x() } else { 64 };
                buf.read(t, i);
            })
        }))
        .unwrap_err();
        assert_eq!(
            perfport_telemetry::panic_message(&*fault),
            "illegal device address: load at index 64 of buffer 0 (len 64)"
        );
        // Besides block 0, each worker starts at most one (faulting) block.
        let team = gpu.pool.num_threads() as u64;
        assert!(started.into_inner() <= 1 + team, "blocks kept running");
    }

    #[test]
    fn allocations_do_not_share_lines() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let a = gpu.alloc_filled(3, 0u8);
        let b = gpu.alloc_filled(3, 0u8);
        assert!(b.base_addr() >= a.base_addr() + 256 || a.base_addr() >= b.base_addr() + 256);
        assert_ne!(a.id(), b.id());
    }
}
