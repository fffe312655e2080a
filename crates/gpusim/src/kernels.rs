//! Small built-in kernels: sanity workloads for the simulator itself and
//! teaching examples for the kernel API. The paper's GEMM kernels live in
//! `perfport-gemm::gpu`, written against this API.

use crate::buffer::DeviceBuffer;
use crate::launch::{Gpu, LaunchConfig, LaunchError};
use crate::stats::LaunchStats;

/// `c[i] = a[i] + b[i]` — the canonical first kernel.
pub fn vector_add(
    gpu: &Gpu,
    a: &DeviceBuffer<f32>,
    b: &DeviceBuffer<f32>,
    c: &DeviceBuffer<f32>,
    block: u32,
) -> Result<LaunchStats, LaunchError> {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    let n = a.len();
    let cfg = LaunchConfig::cover1d(n as u32, block);
    gpu.launch(cfg, |t| {
        let i = t.global_x();
        if i < n {
            let v = a.read(t, i) + b.read(t, i);
            c.write(t, i, v);
            t.tally_flops(1);
        }
    })
}

/// `y[i] = alpha * x[i] + y[i]` — BLAS saxpy.
pub fn saxpy(
    gpu: &Gpu,
    alpha: f32,
    x: &DeviceBuffer<f32>,
    y: &DeviceBuffer<f32>,
    block: u32,
) -> Result<LaunchStats, LaunchError> {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let cfg = LaunchConfig::cover1d(n as u32, block);
    gpu.launch(cfg, |t| {
        let i = t.global_x();
        if i < n {
            let v = alpha.mul_add(x.read(t, i), y.read(t, i));
            y.write(t, i, v);
            t.tally_flops(2);
        }
    })
}

/// Naive out-of-place matrix transpose, `dst[j * rows + i] = src[i * cols
/// + j]` — a classic uncoalesced-store workload.
pub fn transpose_naive(
    gpu: &Gpu,
    src: &DeviceBuffer<f32>,
    dst: &DeviceBuffer<f32>,
    rows: usize,
    cols: usize,
    block: u32,
) -> Result<LaunchStats, LaunchError> {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    let cfg = LaunchConfig::cover2d(cols as u32, rows as u32, crate::dim::Dim3::d2(block, block));
    gpu.launch(cfg, |t| {
        let (j, i) = t.grid2();
        if i < rows && j < cols {
            dst.write(t, j * rows + i, src.read(t, i * cols + j));
        }
    })
}

/// Grid-wide sum via `atomicAdd` into a single accumulator — the classic
/// (naive) atomic reduction.
pub fn atomic_reduce_sum(
    gpu: &Gpu,
    input: &DeviceBuffer<f64>,
    out: &DeviceBuffer<f64>,
    block: u32,
) -> Result<LaunchStats, LaunchError> {
    assert_eq!(out.len(), 1);
    let n = input.len();
    let cfg = LaunchConfig::cover1d(n as u32, block);
    gpu.launch(cfg, |t| {
        let i = t.global_x();
        if i < n {
            out.atomic_add(t, 0, input.read(t, i));
            t.tally_flops(1);
        }
    })
}

/// Histogram with atomic increments — a data-dependent atomic workload.
pub fn histogram(
    gpu: &Gpu,
    input: &DeviceBuffer<u32>,
    bins: &DeviceBuffer<u32>,
    block: u32,
) -> Result<LaunchStats, LaunchError> {
    let n = input.len();
    let n_bins = bins.len() as u32;
    assert!(n_bins > 0);
    let cfg = LaunchConfig::cover1d(n as u32, block);
    gpu.launch(cfg, |t| {
        let i = t.global_x();
        if i < n {
            let bin = input.read(t, i) % n_bins;
            bins.atomic_add(t, bin as usize, 1);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceClass;

    #[test]
    fn vector_add_is_correct() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let a = gpu.alloc_from_slice(&[1.0f32, 2.0, 3.0]);
        let b = gpu.alloc_from_slice(&[10.0f32, 20.0, 30.0]);
        let c = gpu.alloc_filled(3, 0.0f32);
        vector_add(&gpu, &a, &b, &c, 128).unwrap();
        assert_eq!(c.to_host(), vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn saxpy_is_correct_and_counts_fma() {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        let x = gpu.alloc_from_slice(&vec![2.0f32; 100]);
        let y = gpu.alloc_from_slice(&vec![1.0f32; 100]);
        let stats = saxpy(&gpu, 3.0, &x, &y, 64).unwrap();
        assert!(y.to_host().iter().all(|&v| v == 7.0));
        assert_eq!(stats.flops, 200);
    }

    #[test]
    fn atomic_reduction_sums_correctly() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 5000;
        let host: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let input = gpu.alloc_from_slice(&host);
        let out = gpu.alloc_filled(1, 0.0f64);
        let stats = atomic_reduce_sum(&gpu, &input, &out, 256).unwrap();
        let expect: f64 = host.iter().sum();
        // f64 atomic adds of non-negative values: exact here because all
        // intermediate sums are exactly representable integers < 2^53.
        assert_eq!(out.get(0), expect);
        assert_eq!(stats.atomic_ops, n as u64);
    }

    #[test]
    fn atomics_pass_the_race_detector() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let input = gpu.alloc_filled(256, 1.0f64);
        let out = gpu.alloc_filled(1, 0.0f64);
        let cfg = LaunchConfig::cover1d(256, 64);
        let opts = crate::launch::LaunchOptions { detect_races: true };
        let stats = gpu
            .launch_with(cfg, opts, |t| {
                out.atomic_add(t, 0, input.read(t, t.global_x()));
            })
            .unwrap();
        assert_eq!(out.get(0), 256.0);
        assert_eq!(stats.atomic_ops, 256);
    }

    #[test]
    fn histogram_counts_every_element() {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        let n = 10_000u32;
        let host: Vec<u32> = (0..n).map(|i| i * 7 + 3).collect();
        let input = gpu.alloc_from_slice(&host);
        let bins = gpu.alloc_filled(16, 0u32);
        histogram(&gpu, &input, &bins, 128).unwrap();
        let counts = bins.to_host();
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), n as u64);
        // Deterministic per-bin counts regardless of execution order.
        let mut expect = vec![0u32; 16];
        for v in &host {
            expect[(*v % 16) as usize] += 1;
        }
        assert_eq!(counts, expect);
    }

    #[test]
    fn transpose_is_correct_and_badly_coalesced() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let (r, c) = (64usize, 64usize);
        let host: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
        let src = gpu.alloc_from_slice(&host);
        let dst = gpu.alloc_filled(r * c, 0.0f32);
        let stats = transpose_naive(&gpu, &src, &dst, r, c, 32).unwrap();
        for i in 0..r {
            for j in 0..c {
                assert_eq!(dst.get(j * r + i), host[i * c + j]);
            }
        }
        // Loads coalesce along rows; stores scatter across lines, so store
        // transactions far exceed load transactions.
        assert!(stats.store_transactions > 4 * stats.load_transactions);
    }
}
