//! A KernelAbstractions.jl-style single-source kernel layer.
//!
//! The paper (§III.B) notes that Julia offers KernelAbstractions.jl "for
//! writing portable kernels while still maintaining dependence on either
//! CUArray or ROCArray": one kernel body, multiple execution backends.
//! This module is that idea in Rust: the GEMM *element computation* is
//! written exactly once ([`gemm_element`]) against an abstract
//! memory-access trait, and executes unchanged on
//!
//! * the CPU work-sharing pool (coarse-grained over rows), and
//! * the SIMT simulator (fine-grained, one thread per element) for
//!   either device class.
//!
//! Because both backends run the same accumulation order, their results
//! are **bit-identical** — the property tests assert it.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use perfport_gpusim::{Dim3, Gpu, LaunchConfig, LaunchError, LaunchStats, ThreadCtx};
use perfport_pool::{RegionStats, Schedule, ThreadPool};

/// Abstract read access to the `A` and `B` operands — the single-source
/// seam between host memory and device buffers.
pub trait GemmAccess<T: Scalar> {
    /// `A[i, l]`.
    fn a(&self, i: usize, l: usize) -> T;
    /// `B[l, j]`.
    fn b(&self, l: usize, j: usize) -> T;
}

/// The one and only kernel body: a `k`-term dot product with FMA
/// accumulation. Every backend calls exactly this function.
#[inline]
pub fn gemm_element<T: Scalar, M: GemmAccess<T>>(mem: &M, i: usize, j: usize, k: usize) -> T {
    let mut sum = T::zero();
    for l in 0..k {
        sum = mem.a(i, l).mul_add(mem.b(l, j), sum);
    }
    sum
}

/// Host-memory backend access.
struct HostAccess<'m, T: Scalar> {
    a: &'m Matrix<T>,
    b: &'m Matrix<T>,
}

impl<T: Scalar> GemmAccess<T> for HostAccess<'_, T> {
    #[inline]
    fn a(&self, i: usize, l: usize) -> T {
        self.a[(i, l)]
    }
    #[inline]
    fn b(&self, l: usize, j: usize) -> T {
        self.b[(l, j)]
    }
}

/// Device-buffer backend access (row-major staging, reads recorded by
/// the simulator).
struct DeviceAccess<'c, T: Scalar> {
    ctx: &'c ThreadCtx,
    a: &'c perfport_gpusim::DeviceBuffer<T>,
    b: &'c perfport_gpusim::DeviceBuffer<T>,
    k: usize,
    n: usize,
}

impl<T: Scalar> GemmAccess<T> for DeviceAccess<'_, T> {
    #[inline]
    fn a(&self, i: usize, l: usize) -> T {
        self.a.read(self.ctx, i * self.k + l)
    }
    #[inline]
    fn b(&self, l: usize, j: usize) -> T {
        self.b.read(self.ctx, l * self.n + j)
    }
}

/// Where a portable kernel runs.
pub enum Backend<'r> {
    /// Coarse-grained rows on the CPU work-sharing pool.
    Cpu(&'r ThreadPool),
    /// Fine-grained element grid on the SIMT simulator with the given
    /// thread-block shape.
    Gpu(&'r Gpu, Dim3),
}

/// Execution record of a portable launch.
pub enum BackendStats {
    /// Pool region statistics.
    Cpu(RegionStats),
    /// Simulator launch counters.
    Gpu(LaunchStats),
}

impl BackendStats {
    /// Work items processed (rows on CPU, threads on GPU).
    pub fn items(&self) -> u64 {
        match self {
            BackendStats::Cpu(s) => s.total_items() as u64,
            BackendStats::Gpu(s) => s.threads,
        }
    }
}

/// Runs `C = A · B` with the single-source kernel on the chosen backend.
/// Inputs may be any layout; they are staged row-major (the layer's
/// canonical layout, as KernelAbstractions kernels are written against
/// the array abstraction, not a layout).
///
/// ```
/// use perfport_gemm::{portable_gemm, Backend, Layout, Matrix};
/// use perfport_gpusim::{DeviceClass, Dim3, Gpu};
/// use perfport_pool::ThreadPool;
///
/// let a = Matrix::<f64>::random(8, 8, Layout::RowMajor, 1);
/// let b = Matrix::<f64>::random(8, 8, Layout::RowMajor, 2);
/// let pool = ThreadPool::new(2);
/// let gpu = Gpu::new(DeviceClass::AmdLike);
/// let (on_cpu, _) = portable_gemm(Backend::Cpu(&pool), &a, &b).unwrap();
/// let (on_gpu, _) = portable_gemm(Backend::Gpu(&gpu, Dim3::d2(4, 4)), &a, &b).unwrap();
/// // One kernel body, bit-identical results on every backend.
/// assert_eq!(on_cpu, on_gpu);
/// ```
///
/// # Errors
///
/// Propagates simulator launch errors; CPU execution is infallible.
pub fn portable_gemm<T: Scalar>(
    backend: Backend<'_>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<(Matrix<T>, BackendStats), LaunchError> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let a_row = a.to_layout(Layout::RowMajor);
    let b_row = b.to_layout(Layout::RowMajor);

    match backend {
        Backend::Cpu(pool) => {
            let mut c = Matrix::<T>::zeros(m, n, Layout::RowMajor);
            let mem = HostAccess {
                a: &a_row,
                b: &b_row,
            };
            // An empty `C` has no rows to hand out, whatever its width.
            let width = n.max(1);
            let stats = pool.parallel_for_mut(
                c.as_mut_slice(),
                width,
                Schedule::StaticBlock,
                |_, chunk, rows| {
                    for (i, row) in chunk.range().zip(rows.chunks_exact_mut(width)) {
                        for (j, out) in row.iter_mut().enumerate() {
                            *out = gemm_element(&mem, i, j, k);
                        }
                    }
                },
            );
            Ok((c, BackendStats::Cpu(stats)))
        }
        Backend::Gpu(gpu, block) => {
            let da = gpu.alloc_from_slice(a_row.as_slice());
            let db = gpu.alloc_from_slice(b_row.as_slice());
            let dc = gpu.alloc_filled(m * n, T::zero());
            let cfg = LaunchConfig::cover2d(n as u32, m as u32, block);
            let stats = gpu.launch(cfg, |t| {
                let (j, i) = t.grid2();
                if i < m && j < n {
                    let mem = DeviceAccess {
                        ctx: t,
                        a: &da,
                        b: &db,
                        k,
                        n,
                    };
                    let v = gemm_element(&mem, i, j, k);
                    dc.write(t, i * n + j, v);
                    t.tally_flops(2 * k as u64);
                }
            })?;
            let mut c = Matrix::<T>::zeros(m, n, Layout::RowMajor);
            c.as_mut_slice().copy_from_slice(&dc.to_host());
            Ok((c, BackendStats::Gpu(stats)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::gemm_reference_f64;
    use perfport_gpusim::DeviceClass;
    use perfport_half::F16;

    fn inputs(m: usize, k: usize, n: usize) -> (Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random(m, k, Layout::RowMajor, 61),
            Matrix::random(k, n, Layout::RowMajor, 62),
        )
    }

    #[test]
    fn cpu_backend_matches_reference() {
        let (a, b) = inputs(23, 17, 29);
        let pool = ThreadPool::new(3);
        let (c, stats) = portable_gemm(Backend::Cpu(&pool), &a, &b).unwrap();
        assert!(c.max_abs_diff(&gemm_reference_f64(&a, &b)) < 1e-12);
        assert_eq!(stats.items(), 23);
    }

    #[test]
    fn gpu_backends_match_reference() {
        let (a, b) = inputs(23, 17, 29);
        for class in [DeviceClass::NvidiaLike, DeviceClass::AmdLike] {
            let gpu = Gpu::new(class);
            let (c, stats) = portable_gemm(Backend::Gpu(&gpu, Dim3::d2(8, 8)), &a, &b).unwrap();
            assert!(
                c.max_abs_diff(&gemm_reference_f64(&a, &b)) < 1e-12,
                "{class}"
            );
            assert_eq!(stats.items() % 64, 0, "whole blocks launched");
        }
    }

    #[test]
    fn single_source_is_bit_identical_across_backends() {
        // The KernelAbstractions promise, made checkable: same body, same
        // accumulation order, identical bits on every backend.
        let (a, b) = inputs(31, 21, 19);
        let pool = ThreadPool::new(4);
        let (cpu, _) = portable_gemm(Backend::Cpu(&pool), &a, &b).unwrap();
        let nv = Gpu::new(DeviceClass::NvidiaLike);
        let (gpu_nv, _) = portable_gemm(Backend::Gpu(&nv, Dim3::d2(16, 16)), &a, &b).unwrap();
        let amd = Gpu::new(DeviceClass::AmdLike);
        let (gpu_amd, _) = portable_gemm(Backend::Gpu(&amd, Dim3::d2(32, 4)), &a, &b).unwrap();
        assert_eq!(cpu, gpu_nv);
        assert_eq!(cpu, gpu_amd);
    }

    #[test]
    fn works_at_half_precision() {
        let a = Matrix::<F16>::random(16, 16, Layout::RowMajor, 63);
        let b = Matrix::<F16>::random(16, 16, Layout::RowMajor, 64);
        let pool = ThreadPool::new(2);
        let (cpu, _) = portable_gemm(Backend::Cpu(&pool), &a, &b).unwrap();
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let (dev, _) = portable_gemm(Backend::Gpu(&gpu, Dim3::d2(8, 8)), &a, &b).unwrap();
        assert_eq!(cpu, dev);
        let cast: Matrix<f64> = cpu.cast();
        assert!(cast.max_abs_diff(&gemm_reference_f64(&a, &b)) < 0.2);
    }

    #[test]
    fn column_major_inputs_are_staged() {
        let a = Matrix::<f64>::random(12, 8, Layout::ColMajor, 65);
        let b = Matrix::<f64>::random(8, 10, Layout::ColMajor, 66);
        let pool = ThreadPool::new(2);
        let (c, _) = portable_gemm(Backend::Cpu(&pool), &a, &b).unwrap();
        assert!(c.max_abs_diff(&gemm_reference_f64(&a, &b)) < 1e-12);
    }
}
