//! Property-based tests for the GEMM kernels: algebraic identities that
//! must hold for any shape, layout, loop order, and programming-model
//! variant.

use perfport_gemm::{
    gemm_reference_f64, matrix::Layout, par_gemm, serial::gemm_loop_order, serial::LoopOrder, simd,
    tuned, verify_gemm, BlockSizes, CpuVariant, Isa, Matrix, PackArena, TileShape, TunedParams,
};
use perfport_half::F16;
use perfport_pool::{CacheInfo, Schedule, ThreadPool};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 1usize..24, 1usize..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every loop order computes the same product (to f64 round-off).
    #[test]
    fn loop_orders_agree((m, k, n) in dims(), seed in 0u64..1000, col in proptest::bool::ANY) {
        let layout = if col { Layout::ColMajor } else { Layout::RowMajor };
        let a = Matrix::<f64>::random(m, k, layout, seed);
        let b = Matrix::<f64>::random(k, n, layout, seed + 1);
        let reference = gemm_reference_f64(&a, &b);
        for order in LoopOrder::ALL {
            let mut c = Matrix::<f64>::zeros(m, n, layout);
            gemm_loop_order(order, &a, &b, &mut c);
            prop_assert!(c.max_abs_diff(&reference) < 1e-10, "{}", order.name());
        }
    }

    /// A · I == A for every model variant.
    #[test]
    fn identity_is_neutral((m, k, _) in dims(), seed in 0u64..1000) {
        for v in CpuVariant::ALL {
            let layout = v.layout();
            let a = Matrix::<f64>::random(m, k, layout, seed);
            let eye = Matrix::<f64>::from_fn(k, k, layout, |i, j| {
                if i == j { 1.0 } else { 0.0 }
            });
            let mut c = Matrix::<f64>::zeros(m, k, layout);
            v.run_serial(&a, &eye, &mut c);
            prop_assert!(c.max_abs_diff(&a) < 1e-12, "{v}");
        }
    }

    /// Multiplying by zero leaves C unchanged (accumulate semantics).
    #[test]
    fn zero_product_preserves_c((m, k, n) in dims(), seed in 0u64..1000) {
        let a = Matrix::<f64>::zeros(m, k, Layout::RowMajor);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed);
        let mut c = Matrix::<f64>::random(m, n, Layout::RowMajor, seed + 2);
        let before = c.clone();
        CpuVariant::OpenMpC.run_serial(&a, &b, &mut c);
        prop_assert_eq!(c, before);
    }

    /// All four model variants compute the same product.
    #[test]
    fn variants_agree((m, k, n) in dims(), seed in 0u64..1000) {
        let mut results = Vec::new();
        for v in CpuVariant::ALL {
            let layout = v.layout();
            let a = Matrix::<f64>::random(m, k, Layout::RowMajor, seed).to_layout(layout);
            let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed + 1).to_layout(layout);
            let mut c = Matrix::<f64>::zeros(m, n, layout);
            v.run_serial(&a, &b, &mut c);
            results.push(c.to_layout(Layout::RowMajor));
        }
        for r in &results[1..] {
            prop_assert!(results[0].max_abs_diff(r) < 1e-10);
        }
    }

    /// Parallel execution equals serial execution bit-for-bit, regardless
    /// of team size and schedule.
    #[test]
    fn parallel_equals_serial(
        (m, k, n) in dims(),
        seed in 0u64..1000,
        threads in 1usize..6,
        dynamic in proptest::bool::ANY,
    ) {
        let pool = ThreadPool::new(threads);
        let schedule = if dynamic {
            Schedule::Dynamic { chunk: 2 }
        } else {
            Schedule::StaticBlock
        };
        for v in [CpuVariant::OpenMpC, CpuVariant::JuliaThreads] {
            let layout = v.layout();
            let a = Matrix::<f64>::random(m, k, layout, seed);
            let b = Matrix::<f64>::random(k, n, layout, seed + 1);
            let mut serial = Matrix::<f64>::zeros(m, n, layout);
            v.run_serial(&a, &b, &mut serial);
            let mut par = Matrix::<f64>::zeros(m, n, layout);
            par_gemm(&pool, v, &a, &b, &mut par, schedule);
            prop_assert_eq!(&serial, &par, "{} not deterministic", v);
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ — transpose identity through the reference kernel.
    #[test]
    fn transpose_identity((m, k, n) in dims(), seed in 0u64..1000) {
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, seed);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed + 1);
        let ab_t = gemm_reference_f64(&a, &b).transposed();
        let bt_at = gemm_reference_f64(&b.transposed(), &a.transposed());
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-10);
    }
}

/// Shapes for the tuned packed kernel: deliberately not multiples of any
/// tile or block size, down to 1×1 and the empty inner dimension.
fn tuned_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 0usize..40, 1usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tuned packed kernel matches the f64 reference for any shape
    /// (including empty k) and either layout, in both precisions.
    #[test]
    fn tuned_matches_reference((m, k, n) in tuned_dims(), seed in 0u64..1000, col in proptest::bool::ANY) {
        let layout = if col { Layout::ColMajor } else { Layout::RowMajor };
        let a64 = Matrix::<f64>::random(m, k, layout, seed);
        let b64 = Matrix::<f64>::random(k, n, layout, seed + 1);
        let reference = gemm_reference_f64(&a64, &b64);

        let mut c64 = Matrix::<f64>::zeros(m, n, layout);
        tuned::gemm_serial(
            &a64, &b64, &mut c64,
            &TunedParams::for_cache::<f64>(CacheInfo::DEFAULT),
            &mut PackArena::new(),
        );
        prop_assert!(c64.max_abs_diff(&reference) < 1e-12);

        let a32: Matrix<f32> = a64.cast();
        let b32: Matrix<f32> = b64.cast();
        let mut c32 = Matrix::<f32>::zeros(m, n, layout);
        tuned::gemm_serial(
            &a32, &b32, &mut c32,
            &TunedParams::for_cache::<f32>(CacheInfo::DEFAULT),
            &mut PackArena::new(),
        );
        let c32_as_64: Matrix<f64> = c32.cast();
        prop_assert!(c32_as_64.max_abs_diff(&reference) < 1e-3);
    }

    /// Every supported register-tile shape computes the same product.
    #[test]
    fn tuned_tile_shapes_agree((m, k, n) in tuned_dims(), seed in 0u64..1000, col in proptest::bool::ANY) {
        let layout = if col { Layout::ColMajor } else { Layout::RowMajor };
        let a = Matrix::<f64>::random(m, k, layout, seed);
        let b = Matrix::<f64>::random(k, n, layout, seed + 1);
        let reference = gemm_reference_f64(&a, &b);
        for tile in TileShape::ALL {
            let params = TunedParams::with_tile(CacheInfo::DEFAULT, tile, 8);
            let mut c = Matrix::<f64>::zeros(m, n, layout);
            tuned::gemm_serial(&a, &b, &mut c, &params, &mut PackArena::new());
            prop_assert!(c.max_abs_diff(&reference) < 1e-12, "tile {tile}");
        }
    }

    /// Parallel tuned execution is bit-identical to serial for any team
    /// size and (deliberately tiny) blocking, so results never depend on
    /// which worker owns a row block.
    #[test]
    fn tuned_parallel_is_bitwise_serial(
        (m, k, n) in tuned_dims(),
        seed in 0u64..1000,
        threads in 1usize..6,
        mc in 1usize..5,
        kc in 1usize..20,
        col in proptest::bool::ANY,
    ) {
        let layout = if col { Layout::ColMajor } else { Layout::RowMajor };
        let params = TunedParams {
            tile: TileShape { mr: 4, nr: 4 },
            blocks: BlockSizes { mc: mc * 4, kc, nc: 16 },
        };
        let a = Matrix::<f64>::random(m, k, layout, seed);
        let b = Matrix::<f64>::random(k, n, layout, seed + 1);
        let mut serial = Matrix::<f64>::zeros(m, n, layout);
        tuned::gemm_serial(&a, &b, &mut serial, &params, &mut PackArena::new());
        let pool = ThreadPool::new(threads);
        let mut par = Matrix::<f64>::zeros(m, n, layout);
        tuned::gemm(&pool, &a, &b, &mut par, &params);
        prop_assert_eq!(serial, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every natively dispatched microkernel agrees with the portable
    /// fallback within the FMA-contraction bound for every supported
    /// MR×NR shape and any panel depth (including kb = 0). The portable
    /// kernel rounds multiply and add separately; a native kernel fuses
    /// them, so each of the `kb` accumulation steps differs by at most
    /// one rounding — comfortably inside the `verify` tolerance
    /// `k·u·4` that the tuned GEMM is held to.
    #[test]
    fn simd_microkernels_match_portable(kb in 0usize..35, seed in 0u64..1000) {
        for isa in Isa::ALL {
            if !isa.available() {
                continue;
            }
            for tile in TileShape::ALL {
                simd_vs_portable(isa, tile, kb, seed);
            }
        }
    }

    /// The full tuned GEMM run under every available ISA stays within the
    /// `verify` tolerance of the f64 reference for ragged shapes, both
    /// layouts, and all three precisions (FP16 exercises the widened-pack
    /// path).
    #[test]
    fn tuned_gemm_verifies_under_every_isa(
        (m, k, n) in tuned_dims(),
        seed in 0u64..1000,
        col in proptest::bool::ANY,
    ) {
        let layout = if col { Layout::ColMajor } else { Layout::RowMajor };
        for isa in Isa::ALL {
            if !isa.available() {
                continue;
            }
            let a = Matrix::<f64>::random(m, k, layout, seed);
            let b = Matrix::<f64>::random(k, n, layout, seed + 1);
            for tile in TileShape::ALL {
                let params = TunedParams::with_tile(CacheInfo::DEFAULT, tile, 8);
                let mut c = Matrix::<f64>::zeros(m, n, layout);
                tuned::gemm_serial_with_isa(&a, &b, &mut c, &params, &mut PackArena::new(), isa);
                prop_assert!(verify_gemm(&a, &b, &c).is_ok(), "{isa} f64 tile {tile}");
            }
            let a32: Matrix<f32> = a.cast();
            let b32: Matrix<f32> = b.cast();
            let mut c32 = Matrix::<f32>::zeros(m, n, layout);
            let params32 = TunedParams::for_cache_isa::<f32>(CacheInfo::DEFAULT, isa);
            tuned::gemm_serial_with_isa(&a32, &b32, &mut c32, &params32, &mut PackArena::new(), isa);
            prop_assert!(verify_gemm(&a32, &b32, &c32).is_ok(), "{isa} f32");

            let a16: Matrix<F16> = a.cast();
            let b16: Matrix<F16> = b.cast();
            let mut c16 = Matrix::<F16>::zeros(m, n, layout);
            let params16 = TunedParams::for_cache_isa::<F16>(CacheInfo::DEFAULT, isa);
            tuned::gemm_serial_with_isa(&a16, &b16, &mut c16, &params16, &mut PackArena::new(), isa);
            prop_assert!(verify_gemm(&a16, &b16, &c16).is_ok(), "{isa} f16 widened");
        }
    }

    /// The parallel≡serial bitwise guarantee holds per dispatched kernel:
    /// whatever `PERFPORT_SIMD` resolves to in this process, tuned
    /// parallel runs reproduce tuned serial runs exactly (here under the
    /// ISA-preferred default tiles rather than the forced 4×4 above).
    #[test]
    fn tuned_parallel_bitwise_serial_under_dispatched_isa(
        (m, k, n) in tuned_dims(),
        seed in 0u64..1000,
        threads in 1usize..6,
    ) {
        let params = TunedParams {
            blocks: BlockSizes { mc: 8, kc: 12, nc: 16 },
            ..TunedParams::host::<f32>()
        };
        let a = Matrix::<f32>::random(m, k, Layout::RowMajor, seed);
        let b = Matrix::<f32>::random(k, n, Layout::RowMajor, seed + 1);
        let mut serial = Matrix::<f32>::zeros(m, n, Layout::RowMajor);
        tuned::gemm_serial(&a, &b, &mut serial, &params, &mut PackArena::new());
        let pool = ThreadPool::new(threads);
        let mut par = Matrix::<f32>::zeros(m, n, Layout::RowMajor);
        tuned::gemm(&pool, &a, &b, &mut par, &params);
        prop_assert_eq!(serial, par);
    }
}

/// GPU shapes: ragged around the 16-wide shared-memory tile, down to
/// 1×1×1, so partial tiles and zero-padded edge threads are exercised.
fn gpu_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tiled shared-memory kernel agrees with the naive GPU kernel
    /// within the `verify` tolerance for ragged shapes on both device
    /// classes; the mixed F16-in/F32-accumulate variant (the functional
    /// execution behind the modelled tensor-core path) stays within the
    /// f32 re-association budget of its naive counterpart.
    #[test]
    fn gpu_tiled_matches_naive((m, k, n) in gpu_dims(), seed in 0u64..1000) {
        use perfport_gemm::{gpu_gemm, gpu_gemm_mixed, gpu_gemm_tiled, gpu_gemm_tiled_mixed, GpuVariant};
        use perfport_gpusim::{DeviceClass, Dim3, Gpu};
        for (class, variant) in [
            (DeviceClass::NvidiaLike, GpuVariant::Cuda),
            (DeviceClass::AmdLike, GpuVariant::Hip),
        ] {
            let gpu = Gpu::new(class);
            let a = Matrix::<f64>::random(m, k, Layout::RowMajor, seed);
            let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed + 1);
            let (naive, _) = gpu_gemm(&gpu, variant, &a, &b, Dim3::d2(32, 32)).unwrap();
            let (tiled, _) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
            prop_assert!(verify_gemm(&a, &b, &tiled).is_ok(), "{variant} tiled f64");
            prop_assert!(
                naive.to_layout(Layout::RowMajor).max_abs_diff(&tiled) < 1e-10,
                "{variant} tiled vs naive f64"
            );

            let a16: Matrix<F16> = a.cast();
            let b16: Matrix<F16> = b.cast();
            let (naive16, _) =
                gpu_gemm_mixed::<F16, f32>(&gpu, variant, &a16, &b16, Dim3::d2(32, 32)).unwrap();
            let (tiled16, _) = gpu_gemm_tiled_mixed::<F16, f32>(&gpu, &a16, &b16).unwrap();
            // Same widened products, different summation order: the gap
            // is bounded by f32 re-association over k terms.
            prop_assert!(
                naive16.to_layout(Layout::RowMajor).max_abs_diff(&tiled16) < 1e-3,
                "{variant} tiled vs naive f16/f32"
            );
        }
    }
}

/// Native vs portable microkernels for one tile: build pseudo-random
/// panels, run the `isa`-selected kernel and the portable one at both
/// hardware precisions, bound the difference by the per-step FMA
/// rounding budget.
fn simd_vs_portable(isa: Isa, tile: TileShape, kb: usize, seed: u64) {
    match (tile.mr, tile.nr) {
        (4, 4) => simd_vs_portable_tile::<4, 4>(isa, kb, seed),
        (8, 4) => simd_vs_portable_tile::<8, 4>(isa, kb, seed),
        (4, 8) => simd_vs_portable_tile::<4, 8>(isa, kb, seed),
        (8, 8) => simd_vs_portable_tile::<8, 8>(isa, kb, seed),
        (12, 16) => simd_vs_portable_tile::<12, 16>(isa, kb, seed),
        (12, 32) => simd_vs_portable_tile::<12, 32>(isa, kb, seed),
        _ => panic!("no microkernel comparison for tile {tile}"),
    }
}

fn simd_vs_portable_tile<const MR: usize, const NR: usize>(isa: Isa, kb: usize, seed: u64) {
    let (ap, bp) = panels_f64::<MR, NR>(kb, seed);
    let tol = (kb as f64).max(1.0) * f64::EPSILON * 8.0;
    let native = simd::select::<f64, MR, NR>(isa)(kb, &ap, &bp);
    let portable = simd::portable::<f64, MR, NR>(kb, &ap, &bp);
    for (nr_row, pr_row) in native.iter().zip(&portable) {
        for (nv, pv) in nr_row.iter().zip(pr_row) {
            prop_assert!(
                (nv - pv).abs() <= tol * pv.abs().max(1.0),
                "{isa} f64 {MR}x{NR} kb={kb}: {nv} vs {pv}"
            );
        }
    }

    let ap: Vec<f32> = ap.iter().map(|&x| x as f32).collect();
    let bp: Vec<f32> = bp.iter().map(|&x| x as f32).collect();
    let tol = (kb as f32).max(1.0) * f32::EPSILON * 8.0;
    let native = simd::select::<f32, MR, NR>(isa)(kb, &ap, &bp);
    let portable = simd::portable::<f32, MR, NR>(kb, &ap, &bp);
    for (nr_row, pr_row) in native.iter().zip(&portable) {
        for (nv, pv) in nr_row.iter().zip(pr_row) {
            prop_assert!(
                (nv - pv).abs() <= tol * pv.abs().max(1.0),
                "{isa} f32 {MR}x{NR} kb={kb}: {nv} vs {pv}"
            );
        }
    }
}

/// Deterministic pseudo-random packed panels for an `MR×NR` tile of
/// depth `kb` (values in roughly `[-1, 1]` so products stay well scaled).
fn panels_f64<const MR: usize, const NR: usize>(kb: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let gen = |i: usize, salt: u64| ((i as u64 + 1).wrapping_mul(seed + salt) as f64 * 0.37).sin();
    let ap = (0..kb * MR).map(|i| gen(i, 17)).collect();
    let bp = (0..kb * NR).map(|i| gen(i, 71)).collect();
    (ap, bp)
}
