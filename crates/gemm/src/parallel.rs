//! Parallel execution of the per-model kernels on the work-sharing
//! runtime.
//!
//! Coarse granularity (the paper's CPU strategy): the outer dimension of
//! `C` — rows for the row-major models, columns for Julia — is the
//! work-sharing index space, so each thread owns whole contiguous output
//! rows/columns. Fine granularity (the paper's GPU strategy) is also
//! provided for CPU execution as [`par_gemm_element_grid`]: one logical
//! task per element of `C`, mirroring the 2-D thread grid. Both hand each
//! chunk its own slice of `C` through
//! [`ThreadPool::parallel_for_mut`].

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use crate::variants::CpuVariant;
use perfport_pool::{RegionStats, Schedule, ThreadPool};

/// Runs `C += A · B` in parallel using `variant`'s kernel and layout over
/// `pool` with the given loop `schedule`. Returns the region
/// instrumentation (imbalance, fork-join overhead).
///
/// # Panics
///
/// Panics on shape or layout mismatch (see
/// [`CpuVariant::run_chunk`]).
pub fn par_gemm<T: Scalar>(
    pool: &ThreadPool,
    variant: CpuVariant,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    schedule: Schedule,
) -> RegionStats {
    assert_eq!(c.layout(), variant.layout(), "C layout mismatch");
    let shape = (c.rows(), c.cols());
    let mut sp = perfport_trace::span("gemm", "par_gemm");
    if sp.is_recording() {
        sp.arg("variant", variant.name());
        sp.arg("m", shape.0);
        sp.arg("n", shape.1);
        sp.arg("k", a.cols());
        sp.arg(
            "flops",
            crate::serial::gemm_flops(shape.0, shape.1, a.cols()),
        );
        sp.arg(
            "min_bytes",
            crate::serial::gemm_min_bytes(shape.0, shape.1, a.cols(), std::mem::size_of::<T>()),
        );
    }
    // An empty `C` has no rows (columns) to hand out, whatever the width.
    let width = variant.parallel_width(shape.0, shape.1).max(1);
    pool.parallel_for_mut(c.as_mut_slice(), width, schedule, |_ctx, chunk, lines| {
        variant.run_chunk(a, b, lines, shape, chunk);
    })
}

/// Fine-granularity parallel GEMM: the flattened `m×n` element grid is the
/// index space and every element of `C` is one dot product, exactly like a
/// GPU thread in the paper's Fig. 3 kernels. Used to contrast coarse vs.
/// fine granularity on CPUs in the ablation benches.
///
/// The grid is numbered in `C`'s storage order, so every chunk is one
/// contiguous run of `C`; each element's dot product is the same whatever
/// the layout or schedule.
pub fn par_gemm_element_grid<T: Scalar>(
    pool: &ThreadPool,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut Matrix<T>,
    schedule: Schedule,
) -> RegionStats {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(a.rows(), c.rows(), "C rows must match A rows");
    assert_eq!(b.cols(), c.cols(), "C cols must match B cols");
    assert_eq!(a.layout(), c.layout(), "A/C layout mismatch");
    assert_eq!(b.layout(), c.layout(), "B/C layout mismatch");
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    let layout = c.layout();
    pool.parallel_for_mut(c.as_mut_slice(), 1, schedule, |_ctx, chunk, out| {
        for (idx, cij) in chunk.range().zip(out) {
            let (i, j) = match layout {
                Layout::RowMajor => (idx / n, idx % n),
                Layout::ColMajor => (idx % m, idx / m),
            };
            let mut acc = T::zero();
            for l in 0..k {
                acc += a[(i, l)] * b[(l, j)];
            }
            *cij += acc;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Layout;
    use crate::serial::gemm_reference_f64;
    use perfport_half::F16;

    fn check_parallel<T: Scalar>(variant: CpuVariant, schedule: Schedule, tol: f64) {
        let pool = ThreadPool::new(4);
        let layout = variant.layout();
        let (m, k, n) = (33, 21, 29);
        let a = Matrix::<T>::random(m, k, layout, 5);
        let b = Matrix::<T>::random(k, n, layout, 6);
        let reference = gemm_reference_f64(&a, &b);
        let mut c = Matrix::<T>::zeros(m, n, layout);
        let stats = par_gemm(&pool, variant, &a, &b, &mut c, schedule);
        let cast: Matrix<f64> = c.cast();
        let err = cast.max_abs_diff(&reference);
        assert!(err < tol, "{variant} {schedule:?}: error {err}");
        assert_eq!(stats.total_items(), variant.parallel_extent(m, n));
    }

    #[test]
    fn parallel_matches_reference_all_variants_f64() {
        for v in CpuVariant::ALL {
            check_parallel::<f64>(v, Schedule::StaticBlock, 1e-12);
        }
    }

    #[test]
    fn parallel_matches_reference_all_schedules() {
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 2 },
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            check_parallel::<f64>(CpuVariant::OpenMpC, schedule, 1e-12);
            check_parallel::<f64>(CpuVariant::JuliaThreads, schedule, 1e-12);
        }
    }

    #[test]
    fn parallel_matches_reference_f32_and_f16() {
        check_parallel::<f32>(CpuVariant::KokkosLambda, Schedule::StaticBlock, 1e-3);
        check_parallel::<F16>(CpuVariant::NumbaPrange, Schedule::StaticBlock, 0.5);
    }

    #[test]
    fn parallel_equals_serial_bitwise_f64() {
        // The parallel decomposition must not change the per-element
        // summation order for the row/column-parallel variants, so results
        // are bit-identical to serial execution.
        let pool = ThreadPool::new(7);
        for v in CpuVariant::ALL {
            let layout = v.layout();
            let (m, k, n) = (24, 16, 18);
            let a = Matrix::<f64>::random(m, k, layout, 7);
            let b = Matrix::<f64>::random(k, n, layout, 8);
            let mut c_serial = Matrix::<f64>::zeros(m, n, layout);
            v.run_serial(&a, &b, &mut c_serial);
            let mut c_par = Matrix::<f64>::zeros(m, n, layout);
            par_gemm(&pool, v, &a, &b, &mut c_par, Schedule::Dynamic { chunk: 1 });
            assert_eq!(c_serial, c_par, "{v} parallel result differs bitwise");
        }
    }

    #[test]
    fn element_grid_matches_reference() {
        let pool = ThreadPool::new(4);
        let (m, k, n) = (19, 11, 23);
        let row_a = Matrix::<f64>::random(m, k, Layout::RowMajor, 9);
        let row_b = Matrix::<f64>::random(k, n, Layout::RowMajor, 10);
        let reference = gemm_reference_f64(&row_a, &row_b);
        let mut first: Option<Matrix<f64>> = None;
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 5 },
            Schedule::Dynamic { chunk: 16 },
            Schedule::Guided { min_chunk: 3 },
        ] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let (a, b) = (row_a.to_layout(layout), row_b.to_layout(layout));
                let mut c = Matrix::<f64>::zeros(m, n, layout);
                let stats = par_gemm_element_grid(&pool, &a, &b, &mut c, schedule);
                assert!(c.max_abs_diff(&reference) < 1e-12, "{schedule:?} {layout}");
                assert_eq!(stats.total_items(), m * n);
                // Same values in either storage order, under every
                // schedule, bit for bit.
                let c = c.to_layout(Layout::RowMajor);
                match &first {
                    Some(first) => assert_eq!(&c, first, "{schedule:?} {layout}"),
                    None => first = Some(c),
                }
            }
        }
    }

    #[test]
    fn stats_reflect_balanced_static_schedule() {
        let pool = ThreadPool::new(4);
        let v = CpuVariant::OpenMpC;
        let a = Matrix::<f64>::random(64, 8, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random(8, 8, Layout::RowMajor, 2);
        let mut c = Matrix::<f64>::zeros(64, 8, Layout::RowMajor);
        let stats = par_gemm(&pool, v, &a, &b, &mut c, Schedule::StaticBlock);
        assert_eq!(stats.items_per_thread, vec![16; 4]);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_by_one_matrix() {
        let pool = ThreadPool::new(2);
        let a = Matrix::<f64>::from_fn(1, 1, Layout::RowMajor, |_, _| 3.0);
        let b = Matrix::<f64>::from_fn(1, 1, Layout::RowMajor, |_, _| 4.0);
        let mut c = Matrix::<f64>::zeros(1, 1, Layout::RowMajor);
        par_gemm(
            &pool,
            CpuVariant::OpenMpC,
            &a,
            &b,
            &mut c,
            Schedule::StaticBlock,
        );
        assert_eq!(c[(0, 0)], 12.0);
    }
}
