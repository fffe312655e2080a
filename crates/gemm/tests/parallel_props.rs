//! Property tests for the parallel ≡ serial bitwise contract of the
//! tuned GEMM, under ragged proptest-generated shapes (degenerate 0/1
//! extents included) across all three precisions and worker counts 1,
//! 2, and 7.
//!
//! The parallel driver must reproduce the serial panel accumulation
//! order exactly, so any divergence is a work-splitting bug, not
//! round-off.

use perfport_gemm::{tuned, BlockSizes, Layout, Matrix, PackArena, Scalar, TileShape, TunedParams};
use perfport_half::F16;
use perfport_pool::ThreadPool;
use proptest::prelude::*;

/// Tiny blocks so even small generated shapes produce several row blocks
/// and several (jc, p0) panels, so each worker repacks its buffers.
fn tiny_params() -> TunedParams {
    TunedParams {
        tile: TileShape { mr: 4, nr: 4 },
        blocks: BlockSizes {
            mc: 8,
            kc: 12,
            nc: 16,
        },
    }
}

fn check<T: Scalar>(m: usize, k: usize, n: usize, seed: u64, col: bool, jobs: usize) {
    let layout = if col {
        Layout::ColMajor
    } else {
        Layout::RowMajor
    };
    let params = tiny_params();
    let a = Matrix::<T>::random(m, k, layout, seed);
    let b = Matrix::<T>::random(k, n, layout, seed + 1);
    let mut c_serial = Matrix::<T>::zeros(m, n, layout);
    tuned::gemm_serial(&a, &b, &mut c_serial, &params, &mut PackArena::new());
    let pool = ThreadPool::new(jobs);
    let mut c = Matrix::<T>::zeros(m, n, layout);
    tuned::gemm(&pool, &a, &b, &mut c, &params);
    assert_eq!(
        c,
        c_serial,
        "{} {m}x{k}x{n} {layout} jobs={jobs} diverged from serial",
        T::NAME
    );
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    // 0 included: empty operands must leave C untouched.
    (0usize..40, 0usize..40, 0usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_matches_serial_bitwise_f64(
        (m, k, n) in dims(), seed in 0u64..1000, col in proptest::bool::ANY
    ) {
        for jobs in [1usize, 2, 7] {
            check::<f64>(m, k, n, seed, col, jobs);
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_f32(
        (m, k, n) in dims(), seed in 0u64..1000, col in proptest::bool::ANY
    ) {
        for jobs in [1usize, 2, 7] {
            check::<f32>(m, k, n, seed, col, jobs);
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_f16(
        (m, k, n) in dims(), seed in 0u64..1000, col in proptest::bool::ANY
    ) {
        for jobs in [1usize, 2, 7] {
            check::<F16>(m, k, n, seed, col, jobs);
        }
    }
}
