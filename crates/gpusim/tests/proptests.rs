//! Property-based tests for the SIMT simulator: counter invariants that
//! must hold for any launch geometry.

use perfport_gpusim::{DeviceClass, Dim3, Gpu, LaunchConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every thread of the grid executes exactly once: a per-thread
    /// counter kernel sums to grid × block.
    #[test]
    fn every_thread_runs_once(
        gx in 1u32..5, gy in 1u32..4, bx in 1u32..17, by in 1u32..9,
        amd in proptest::bool::ANY,
    ) {
        let class = if amd { DeviceClass::AmdLike } else { DeviceClass::NvidiaLike };
        let gpu = Gpu::new(class);
        let cfg = LaunchConfig { grid: Dim3::d2(gx, gy), block: Dim3::d2(bx, by) };
        let total = cfg.total_threads() as usize;
        let marks = gpu.alloc_filled(total, 0u32);
        let stats = gpu.launch(cfg, |t| {
            let id = t.global_linear() as usize;
            marks.write(t, id, marks.read(t, id) + 1);
        }).unwrap();
        prop_assert_eq!(stats.threads, total as u64);
        prop_assert!(marks.to_host().iter().all(|&m| m == 1));
    }

    /// Transactions are bounded: at least the bytes-determined minimum,
    /// at most one per element access.
    #[test]
    fn transaction_bounds(n in 1usize..2000, block in 1u32..257, stride in 1usize..5) {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let src = gpu.alloc_filled(n * stride, 1.0f32);
        let dst = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, block);
        let stats = gpu.launch(cfg, |t| {
            let i = t.global_x();
            if i < n {
                dst.write(t, i, src.read(t, i * stride));
            }
        }).unwrap();
        prop_assert_eq!(stats.loads, n as u64);
        prop_assert!(stats.load_transactions <= stats.loads);
        // Lower bound: total requested bytes / line size, rounded up.
        let min = (stats.load_bytes).div_ceil(stats.line_bytes);
        prop_assert!(stats.load_transactions >= min,
            "{} transactions < floor {}", stats.load_transactions, min);
        prop_assert!(stats.coalescing_efficiency() <= 1.0 + 1e-9);
    }

    /// Warp accounting: warps = blocks × ceil(block_threads / warp).
    #[test]
    fn warp_count_formula(gx in 1u32..8, bx in 1u32..513, amd in proptest::bool::ANY) {
        let class = if amd { DeviceClass::AmdLike } else { DeviceClass::NvidiaLike };
        let gpu = Gpu::new(class);
        let cfg = LaunchConfig { grid: Dim3::d1(gx), block: Dim3::d1(bx) };
        let stats = gpu.launch(cfg, |_t| {}).unwrap();
        let expect = u64::from(gx) * u64::from(bx).div_ceil(u64::from(class.warp_size()));
        prop_assert_eq!(stats.warps, expect);
    }

    /// Determinism: any race-free kernel produces identical results and
    /// counters whether its blocks run serially on the calling thread (the
    /// race detector's path) or on the device's worker pool.
    #[test]
    fn host_parallelism_invariance(n in 1usize..1500, block in 1u32..129) {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let src = gpu.alloc_filled(n, 2.0f32);
        let d1 = gpu.alloc_filled(n, 0.0f32);
        let d2 = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, block);
        let serial = gpu.launch_with(cfg,
            perfport_gpusim::LaunchOptions { detect_races: true },
            |t| { let i = t.global_x(); if i < n { d1.write(t, i, src.read(t, i) + i as f32); } },
        ).unwrap();
        let pooled = gpu.launch(cfg,
            |t| { let i = t.global_x(); if i < n { d2.write(t, i, src.read(t, i) + i as f32); } },
        ).unwrap();
        prop_assert_eq!(d1.to_host(), d2.to_host());
        prop_assert_eq!(serial.load_transactions, pooled.load_transactions);
        prop_assert_eq!(serial.divergent_warps, pooled.divergent_warps);
        prop_assert_eq!(serial.flops, pooled.flops);
    }

    /// The race detector never fires on an embarrassingly parallel
    /// kernel, for any geometry.
    #[test]
    fn no_false_race_positives(n in 1usize..800, block in 1u32..129) {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        let buf = gpu.alloc_filled(n, 0u64);
        let cfg = LaunchConfig::cover1d(n as u32, block);
        let result = gpu.launch_with(cfg,
            perfport_gpusim::LaunchOptions { detect_races: true },
            |t| { let i = t.global_x(); if i < n { buf.write(t, i, i as u64); } },
        );
        prop_assert!(result.is_ok(), "{result:?}");
    }

    /// Divergence detection: a guard that masks out a suffix of threads
    /// flags a warp iff the cut falls strictly inside it.
    #[test]
    fn divergence_localised_to_boundary_warp(active in 1usize..256) {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(active, 0u32);
        let cfg = LaunchConfig::cover1d(256, 256);
        let stats = gpu.launch(cfg, |t| {
            let i = t.global_x();
            if i < active {
                buf.write(t, i, 1);
            }
        }).unwrap();
        let divergent = if active % 32 == 0 { 0 } else { 1 };
        prop_assert_eq!(stats.divergent_warps, divergent);
    }
}
