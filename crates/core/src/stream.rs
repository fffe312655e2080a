//! A BabelStream-style bandwidth workload (extension A6).
//!
//! BabelStream is the community's standard portability benchmark — the
//! same related work the paper positions against (Lin & McIntosh-Smith's
//! Julia comparison uses it). Adding its kernels shows the laboratory
//! generalises beyond GEMM: the same machines, model profiles, and
//! support matrix drive a purely bandwidth-bound workload.
//!
//! Kernels (per BabelStream): `copy: c = a`, `mul: b = κ·c`,
//! `add: c = a + b`, `triad: a = b + κ·c`, `dot: Σ a·b`. Each is executed
//! functionally (CPU pool or SIMT simulator) for verification, and its
//! sustained bandwidth is estimated from the machine's memory system and
//! the model's profile.

use crate::experiment::RunError;
use perfport_machines::numa_locality;
use perfport_models::{
    codegen_efficiency, cpu_profile, gpu_profile, support, Arch, ProgModel, Support,
};
use perfport_pool::{PinPolicy, Schedule, ThreadPool};
use std::fmt;

/// One BabelStream kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]`.
    Copy,
    /// `b[i] = κ · c[i]`.
    Mul,
    /// `c[i] = a[i] + b[i]`.
    Add,
    /// `a[i] = b[i] + κ · c[i]`.
    Triad,
    /// `Σ a[i]·b[i]`.
    Dot,
}

impl StreamKernel {
    /// The five kernels in BabelStream's reporting order.
    pub const ALL: [StreamKernel; 5] = [
        StreamKernel::Copy,
        StreamKernel::Mul,
        StreamKernel::Add,
        StreamKernel::Triad,
        StreamKernel::Dot,
    ];

    /// Bytes moved per element (reads + writes of f64).
    pub fn bytes_per_element(&self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Mul => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
            StreamKernel::Dot => 16,
        }
    }

    /// Kernel name as BabelStream prints it.
    pub fn name(&self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Mul => "Mul",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
            StreamKernel::Dot => "Dot",
        }
    }
}

impl fmt::Display for StreamKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Writes `out[i] = value(i)` for every index on the host pool, each
/// worker filling its own static block of `out`.
fn fill(pool: &ThreadPool, out: &mut [f64], value: impl Fn(usize) -> f64 + Sync) {
    pool.parallel_for_mut(out, 1, Schedule::StaticBlock, |_, chunk, mine| {
        for (i, x) in chunk.range().zip(mine) {
            *x = value(i);
        }
    });
}

/// The BabelStream scaling constant.
pub const KAPPA: f64 = 0.4;

/// Executes one kernel functionally over `n` elements on the host pool
/// and verifies the result. Returns the verified checksum (sum of the
/// output array, or the dot value).
pub fn run_stream_kernel(pool: &ThreadPool, kernel: StreamKernel, n: usize) -> f64 {
    let a0: Vec<f64> = (0..n).map(|i| 0.1 + (i % 7) as f64).collect();
    let b0: Vec<f64> = (0..n).map(|i| 0.2 + (i % 5) as f64).collect();
    let c0: Vec<f64> = (0..n).map(|i| 0.3 + (i % 3) as f64).collect();

    match kernel {
        StreamKernel::Copy => {
            let mut c = vec![0.0; n];
            fill(pool, &mut c, |i| a0[i]);
            assert_eq!(c, a0, "copy verification");
            c.iter().sum()
        }
        StreamKernel::Mul => {
            let mut b = vec![0.0; n];
            fill(pool, &mut b, |i| KAPPA * c0[i]);
            for i in 0..n {
                assert_eq!(b[i], KAPPA * c0[i], "mul verification at {i}");
            }
            b.iter().sum()
        }
        StreamKernel::Add => {
            let mut c = vec![0.0; n];
            fill(pool, &mut c, |i| a0[i] + b0[i]);
            for i in 0..n {
                assert_eq!(c[i], a0[i] + b0[i], "add verification at {i}");
            }
            c.iter().sum()
        }
        StreamKernel::Triad => {
            let mut a = vec![0.0; n];
            fill(pool, &mut a, |i| b0[i] + KAPPA * c0[i]);
            for i in 0..n {
                assert_eq!(a[i], b0[i] + KAPPA * c0[i], "triad verification at {i}");
            }
            a.iter().sum()
        }
        StreamKernel::Dot => {
            let (dot, _) = pool.parallel_sum(n, Schedule::StaticBlock, |i| a0[i] * b0[i]);
            let expect: f64 = (0..n).map(|i| a0[i] * b0[i]).sum();
            assert!(
                (dot - expect).abs() < expect.abs() * 1e-12,
                "dot verification"
            );
            dot
        }
    }
}

/// Modelled sustained bandwidth (GB/s) for one model running the kernel
/// on one architecture. Bandwidth-bound by construction: peak memory
/// bandwidth × NUMA locality × codegen residual (bounds checks slow even
/// a streaming loop).
///
/// # Errors
///
/// [`RunError::Unsupported`] for excluded combinations.
pub fn estimate_stream_bandwidth(
    arch: Arch,
    model: ProgModel,
    kernel: StreamKernel,
) -> Result<f64, RunError> {
    if let Support::Unsupported(reason) = support(model, arch, perfport_machines::Precision::Double)
    {
        return Err(RunError::Unsupported {
            model,
            arch,
            reason: reason.to_string(),
        });
    }
    let q = codegen_efficiency(model, arch, perfport_machines::Precision::Double).value;
    let bw = if let Some(cpu) = arch.cpu_machine() {
        let pinned = cpu_profile(model).pin_policy != PinPolicy::Unpinned;
        cpu.total_bw_gbs() * numa_locality(&cpu, pinned)
    } else {
        let gpu = arch.gpu_machine().expect("gpu arch");
        // Launch overheads are negligible for a saturating stream; the
        // profile is consulted so unsupported models error out above.
        let _ = gpu_profile(model);
        gpu.mem_bw_gbs
    };
    // Dot reduces instead of storing: the read streams still dominate.
    let kernel_factor = match kernel {
        StreamKernel::Dot => 0.95,
        _ => 1.0,
    };
    Ok(bw * q.min(1.0) * kernel_factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_verify_on_the_pool() {
        let pool = ThreadPool::new(4);
        for kernel in StreamKernel::ALL {
            let sum = run_stream_kernel(&pool, kernel, 10_000);
            assert!(sum.is_finite() && sum > 0.0, "{kernel}");
        }
    }

    #[test]
    fn kernel_metadata() {
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Dot.to_string(), "Dot");
        assert_eq!(StreamKernel::ALL.len(), 5);
    }

    #[test]
    fn stream_is_bandwidth_bound_everywhere() {
        // Unlike GEMM, a pure stream hides codegen differences: every
        // pinned model lands near the machine's bandwidth.
        for arch in Arch::ALL {
            let vendor = ProgModel::vendor_reference(arch);
            let peak = estimate_stream_bandwidth(arch, vendor, StreamKernel::Triad).unwrap();
            assert!(peak > 100.0, "{arch}");
        }
    }

    #[test]
    fn numba_pays_numa_on_crusher_but_not_wombat_for_streams_too() {
        let crusher = estimate_stream_bandwidth(
            Arch::Epyc7A53,
            ProgModel::NumbaParallel,
            StreamKernel::Triad,
        )
        .unwrap()
            / estimate_stream_bandwidth(Arch::Epyc7A53, ProgModel::COpenMp, StreamKernel::Triad)
                .unwrap();
        let wombat = estimate_stream_bandwidth(
            Arch::AmpereAltra,
            ProgModel::NumbaParallel,
            StreamKernel::Triad,
        )
        .unwrap()
            / estimate_stream_bandwidth(Arch::AmpereAltra, ProgModel::COpenMp, StreamKernel::Triad)
                .unwrap();
        assert!(crusher < wombat, "crusher {crusher} vs wombat {wombat}");
    }

    #[test]
    fn unsupported_combinations_error() {
        assert!(
            estimate_stream_bandwidth(Arch::Mi250x, ProgModel::NumbaCuda, StreamKernel::Copy)
                .is_err()
        );
        assert!(
            estimate_stream_bandwidth(Arch::A100, ProgModel::COpenMp, StreamKernel::Copy).is_err()
        );
    }

    #[test]
    fn gpu_streams_reach_hbm_class_bandwidth() {
        let bw =
            estimate_stream_bandwidth(Arch::A100, ProgModel::Cuda, StreamKernel::Triad).unwrap();
        assert!(bw > 1_000.0, "{bw}");
    }
}
