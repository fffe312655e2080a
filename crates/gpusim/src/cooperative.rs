//! Phase-stepped cooperative kernels: `__syncthreads` and shared memory.
//!
//! Barrier semantics are realised by *phase stepping*: a cooperative
//! kernel is a sequence of phases, and the engine runs phase `p` for every
//! thread of a block before any thread enters phase `p + 1` — precisely
//! the guarantee `__syncthreads()` provides, realised deterministically
//! without one OS thread per GPU thread. Per-thread locals that must
//! survive a barrier live in the kernel's `State` type.
//!
//! Blocks run on the same block engine as plain launches (see
//! [`crate::launch`]); only the per-block body — this phase loop with its
//! [`SharedMem`] — is specific to cooperative kernels.
//!
//! Real GPUs make barrier divergence (some lanes skipping the barrier)
//! undefined behaviour; the engine turns it into
//! [`LaunchError::BarrierDivergence`].

use crate::buffer::DeviceCopy;
use crate::ctx::{Access, ThreadCtx};
use crate::launch::{BlockGeometry, Gpu, LaunchConfig, LaunchError};
use crate::stats::LaunchStats;
use std::cell::{Cell, RefCell};

/// Block-local shared memory (`__shared__` / LDS).
///
/// A block's threads run serially within one host worker, so interior
/// mutability with `RefCell` is sound; accesses are counted for the
/// statistics.
pub struct SharedMem<T> {
    data: RefCell<Vec<T>>,
    loads: Cell<u64>,
    stores: Cell<u64>,
    /// Lane currently executing (set by the engine) and that lane's
    /// access-ordinal streams, for the bank-conflict analysis.
    lane: Cell<usize>,
    lane_streams: RefCell<Vec<Vec<u32>>>,
}

/// Number of shared-memory banks (NVIDIA and CDNA both use 32).
pub const SMEM_BANKS: usize = 32;

impl<T: DeviceCopy> SharedMem<T> {
    fn new(len: usize, init: T, warp: usize) -> Self {
        SharedMem {
            data: RefCell::new(vec![init; len]),
            loads: Cell::new(0),
            stores: Cell::new(0),
            lane: Cell::new(0),
            lane_streams: RefCell::new(vec![Vec::new(); warp]),
        }
    }

    fn set_lane(&self, lane: usize) {
        self.lane.set(lane);
    }

    #[inline]
    fn record(&self, idx: usize) {
        let mut streams = self.lane_streams.borrow_mut();
        let lane = self.lane.get();
        if lane < streams.len() {
            streams[lane].push(idx as u32);
        }
    }

    /// Analyses the recorded lane streams for bank conflicts and clears
    /// them. Returns the number of *extra* serialised passes (degree − 1
    /// summed over warp instructions): 0 means conflict-free.
    fn drain_conflicts(&self) -> u64 {
        let mut streams = self.lane_streams.borrow_mut();
        let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut conflicts = 0u64;
        let mut per_bank: [Vec<u32>; SMEM_BANKS] = std::array::from_fn(|_| Vec::new());
        for ordinal in 0..max_len {
            for bank in per_bank.iter_mut() {
                bank.clear();
            }
            for stream in streams.iter() {
                if let Some(&idx) = stream.get(ordinal) {
                    per_bank[idx as usize % SMEM_BANKS].push(idx);
                }
            }
            // A bank replays once per *distinct address* it must serve;
            // lanes reading the same address are a free broadcast. The
            // instruction's cost is the worst bank's replay count.
            let worst = per_bank
                .iter_mut()
                .map(|bank| {
                    bank.sort_unstable();
                    bank.dedup();
                    bank.len() as u64
                })
                .max()
                .unwrap_or(0);
            conflicts += worst.saturating_sub(1);
        }
        for stream in streams.iter_mut() {
            stream.clear();
        }
        conflicts
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// `true` when no shared memory was requested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `idx`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn read(&self, idx: usize) -> T {
        self.loads.set(self.loads.get() + 1);
        self.record(idx);
        self.data.borrow()[idx]
    }

    /// Writes element `idx`.
    ///
    /// # Panics
    ///
    /// Panics out of bounds.
    pub fn write(&self, idx: usize, value: T) {
        self.stores.set(self.stores.get() + 1);
        self.record(idx);
        self.data.borrow_mut()[idx] = value;
    }
}

/// A kernel whose execution is split into barrier-separated phases.
pub trait CooperativeKernel<T: DeviceCopy>: Sync {
    /// Per-thread state that survives barriers (registers/locals).
    type State: Default + Send;

    /// Runs one phase for one thread. Returning `true` requests another
    /// phase after the implicit barrier; all threads of a block must
    /// agree.
    fn phase(
        &self,
        phase: usize,
        ctx: &ThreadCtx,
        state: &mut Self::State,
        shared: &SharedMem<T>,
    ) -> bool;
}

impl Gpu {
    /// Launches a cooperative kernel with `smem_len` elements of
    /// shared memory per block, initialised to `smem_init` (real shared
    /// memory is uninitialised; deterministic initialisation is a
    /// simulator nicety).
    ///
    /// # Errors
    ///
    /// [`LaunchError::InvalidConfig`] for illegal shapes or shared-memory
    /// requests over the device limit, [`LaunchError::BarrierDivergence`]
    /// when a block's threads disagree about continuing.
    ///
    /// # Panics
    ///
    /// Propagates kernel panics with their original message, as
    /// [`Gpu::launch`] does.
    pub fn launch_cooperative<T, K>(
        &self,
        cfg: LaunchConfig,
        smem_len: usize,
        smem_init: T,
        kernel: &K,
    ) -> Result<LaunchStats, LaunchError>
    where
        T: DeviceCopy,
        K: CooperativeKernel<T>,
    {
        cfg.validate(self.class())?;
        let smem_bytes = (smem_len * std::mem::size_of::<T>()) as u64;
        if smem_bytes > self.class().max_shared_mem_per_block() {
            return Err(LaunchError::InvalidConfig(format!(
                "{smem_bytes} bytes of shared memory exceed the {} byte limit",
                self.class().max_shared_mem_per_block()
            )));
        }
        let geom = BlockGeometry::new(self.class(), cfg);

        self.run_blocks(cfg.grid, false, |block_idx| {
            let mut local = geom.block_stats();
            let shared = SharedMem::new(smem_len, smem_init, geom.warp as usize);
            let mut states: Vec<K::State> = (0..geom.threads_per_block)
                .map(|_| K::State::default())
                .collect();
            let mut lanes: Vec<Vec<Access>> = Vec::with_capacity(geom.warp as usize);
            let mut phase = 0usize;
            loop {
                let mut want_more = None;
                for w in 0..geom.warps_per_block {
                    lanes.clear();
                    for lin in geom.warp_lanes(w) {
                        let ctx = geom.thread(block_idx, lin);
                        shared.set_lane((lin % geom.warp) as usize);
                        let more = kernel.phase(phase, &ctx, &mut states[lin as usize], &shared);
                        if *want_more.get_or_insert(more) != more {
                            return Err(LaunchError::BarrierDivergence {
                                block: block_idx,
                                phase,
                            });
                        }
                        lanes.push(local.absorb_thread(ctx));
                    }
                    if phase == 0 {
                        local.threads += lanes.len() as u64;
                    }
                    local.absorb_warp(&lanes);
                    local.bank_conflicts += shared.drain_conflicts();
                }
                phase += 1;
                if want_more != Some(true) {
                    break;
                }
            }
            local.phases = phase as u64;
            local.shared_loads = shared.loads.get();
            local.shared_stores = shared.stores.get();
            Ok(local)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use crate::device::DeviceClass;

    /// A block-wide sum via shared memory: phase 0 loads one element per
    /// thread into shared memory; phase 1 has thread 0 reduce and store.
    struct BlockSum<'a> {
        input: &'a DeviceBuffer<f32>,
        output: &'a DeviceBuffer<f32>,
        n: usize,
    }

    impl CooperativeKernel<f32> for BlockSum<'_> {
        type State = ();

        fn phase(
            &self,
            phase: usize,
            ctx: &ThreadCtx,
            _state: &mut (),
            shared: &SharedMem<f32>,
        ) -> bool {
            let tid = ctx.linear_in_block() as usize;
            match phase {
                0 => {
                    let i = ctx.global_x();
                    let v = if i < self.n {
                        self.input.read(ctx, i)
                    } else {
                        0.0
                    };
                    shared.write(tid, v);
                    true
                }
                _ => {
                    if tid == 0 {
                        let mut acc = 0.0;
                        for s in 0..shared.len() {
                            acc += shared.read(s);
                            ctx.tally_flops(1);
                        }
                        self.output.write(ctx, ctx.block_idx.x as usize, acc);
                    }
                    false
                }
            }
        }
    }

    #[test]
    fn block_sum_reduces_correctly() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1000usize;
        let host: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let expected: f32 = host.iter().sum();
        let input = gpu.alloc_from_slice(&host);
        let cfg = LaunchConfig::cover1d(n as u32, 128);
        let output = gpu.alloc_filled(cfg.grid.count() as usize, 0.0f32);
        let kernel = BlockSum {
            input: &input,
            output: &output,
            n,
        };
        let stats = gpu.launch_cooperative(cfg, 128, 0.0f32, &kernel).unwrap();
        let total: f32 = output.to_host().iter().sum();
        assert_eq!(total, expected);
        assert_eq!(stats.phases, 2);
        assert_eq!(stats.shared_stores, cfg.total_threads());
        assert_eq!(stats.shared_loads, 128 * cfg.grid.count());
        assert_eq!(stats.threads, cfg.total_threads());
    }

    /// A kernel that keeps per-thread state across barriers.
    struct Accumulate {
        rounds: usize,
    }

    impl CooperativeKernel<f32> for Accumulate {
        type State = f32;

        fn phase(
            &self,
            phase: usize,
            _ctx: &ThreadCtx,
            state: &mut f32,
            _shared: &SharedMem<f32>,
        ) -> bool {
            *state += 1.0;
            assert_eq!(*state, (phase + 1) as f32, "state must persist");
            phase + 1 < self.rounds
        }
    }

    #[test]
    fn state_persists_across_phases() {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        let cfg = LaunchConfig::cover1d(256, 64);
        let stats = gpu
            .launch_cooperative(cfg, 0, 0.0f32, &Accumulate { rounds: 5 })
            .unwrap();
        assert_eq!(stats.phases, 5);
    }

    /// Threads disagree about continuing: barrier divergence.
    struct Diverge;

    impl CooperativeKernel<f32> for Diverge {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem<f32>) -> bool {
            ctx.linear_in_block() == 0
        }
    }

    #[test]
    fn barrier_divergence_is_reported() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let err = gpu
            .launch_cooperative(cfg, 0, 0.0f32, &Diverge)
            .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::BarrierDivergence { phase: 0, .. }
        ));
    }

    /// Every thread reads far past the end of a 64-element buffer.
    struct OutOfBounds<'a> {
        buf: &'a DeviceBuffer<f32>,
    }

    impl CooperativeKernel<f32> for OutOfBounds<'_> {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), _sh: &SharedMem<f32>) -> bool {
            self.buf.read(ctx, 1_000_000);
            false
        }
    }

    #[test]
    #[should_panic(expected = "illegal device address")]
    fn out_of_bounds_access_keeps_its_message() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(64, 0.0f32);
        let cfg = LaunchConfig::cover1d(256, 64);
        let _ = gpu.launch_cooperative(cfg, 0, 0.0f32, &OutOfBounds { buf: &buf });
    }

    #[test]
    fn oversized_shared_memory_rejected() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let err = gpu
            .launch_cooperative(cfg, 100_000, 0.0f32, &Accumulate { rounds: 1 })
            .unwrap_err();
        assert!(matches!(err, LaunchError::InvalidConfig(_)));
    }
}

#[cfg(test)]
mod bank_conflict_tests {
    use super::*;
    use crate::device::DeviceClass;
    use crate::launch::{Gpu, LaunchConfig};

    /// Each lane touches shared slot `lane * stride`.
    struct StridedSmem {
        stride: usize,
    }

    impl CooperativeKernel<f32> for StridedSmem {
        type State = ();

        fn phase(&self, _p: usize, ctx: &ThreadCtx, _s: &mut (), shared: &SharedMem<f32>) -> bool {
            let lane = (ctx.linear_in_block() as usize % 32) * self.stride;
            shared.write(lane % shared.len(), 1.0);
            false
        }
    }

    fn conflicts_for(stride: usize) -> u64 {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(32, 32);
        let stats = gpu
            .launch_cooperative(cfg, 1024, 0.0f32, &StridedSmem { stride })
            .unwrap();
        stats.bank_conflicts
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(conflicts_for(1), 0);
    }

    #[test]
    fn stride_two_halves_the_banks() {
        // 32 lanes over 16 banks: every bank double-booked -> one extra
        // pass charged for the worst bank.
        assert!(conflicts_for(2) >= 1);
    }

    #[test]
    fn stride_32_serialises_the_warp() {
        // All lanes hit bank 0 with distinct addresses: worst case,
        // 31 extra passes.
        assert_eq!(conflicts_for(32), 31);
    }

    #[test]
    fn odd_strides_stay_conflict_free() {
        // Classic padding trick: odd strides permute the banks.
        assert_eq!(conflicts_for(33), 0);
        assert_eq!(conflicts_for(17), 0);
    }

    #[test]
    fn tiled_gemm_pattern_reports_no_conflicts_in_stats_merge() {
        // The tiled GEMM's row-major shared tiles use unit-stride lane
        // access; merged stats must carry the (zero) counter through.
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let cfg = LaunchConfig::cover1d(64, 64);
        let stats = gpu
            .launch_cooperative(cfg, 64, 0.0f32, &StridedSmem { stride: 1 })
            .unwrap();
        assert_eq!(stats.bank_conflicts, 0);
        assert!(stats.shared_stores > 0);
    }
}
