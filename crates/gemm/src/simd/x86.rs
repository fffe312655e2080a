//! x86-64 microkernels: AVX2+FMA (256-bit) and AVX-512F (512-bit), each
//! for `f64` and `f32`.
//!
//! Each kernel is const-generic over the register tile so LLVM fully
//! unrolls the per-`p` body: the `MR×NR` accumulator tile lives in `MR ×
//! NR/W` vector registers (`W` lanes each) across the whole `kb`
//! contraction, each step broadcasting one `A` value per row and issuing
//! one fused multiply-add per accumulator register. All loads are
//! unaligned-tolerant (`loadu`): micropanel starts are 64-byte aligned,
//! but interior `p·MR`/`p·NR` offsets need not be a vector multiple.
//!
//! The wrappers at the bottom are the only public surface; they check
//! the CPU feature and the panel bounds and confine the `unsafe` needed
//! to call a `#[target_feature]` function. [`crate::simd::select`] hands
//! them out only after the matching feature was detected, so the check
//! never fails on the dispatch path.

use crate::simd::Isa;
use std::arch::x86_64::*;

/// Most vector registers one accumulator row may span (`NR/W`), sizing
/// the fixed per-row vector arrays below. Two covers the AVX-512 default
/// tiles (`12×16` `f64`, `12×32` `f32`: 24 zmm accumulators, 2 `B`
/// vectors and 1 broadcast in the 32-register file); wider rows would
/// spill, so [`crate::simd::select`] sends them to the portable tile.
/// Unused high slots are dead code the unroller deletes.
pub(super) const MAX_VECS: usize = 2;

/// `f64` tile on 256-bit AVX2 lanes with FMA accumulation. `NR` must be
/// a multiple of 4 (checked by the caller via `debug_assert`; the public
/// wrapper's dispatch conditions guarantee it).
///
/// # Safety
///
/// Requires AVX2 and FMA at runtime; `ap`/`bp` must hold at least
/// `kb*MR` / `kb*NR` elements (the wrapper asserts this).
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_f64_avx2<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    const W: usize = 4;
    debug_assert!(NR.is_multiple_of(W) && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[_mm256_setzero_pd(); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [_mm256_setzero_pd(); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = _mm256_loadu_pd(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*a.add(p * MR + r));
            for j in 0..nv {
                row[j] = _mm256_fmadd_pd(av, bv[j], row[j]);
            }
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (row, accr) in out.iter_mut().zip(&acc) {
        for (j, &v) in accr.iter().enumerate().take(nv) {
            _mm256_storeu_pd(row.as_mut_ptr().add(j * W), v);
        }
    }
    out
}

/// `f32` tile on 256-bit AVX2 lanes with FMA accumulation; `NR` must be
/// a multiple of 8. Under an AVX-512 verdict it serves only the `f32`
/// tiles whose `NR` is not a multiple of 16 (e.g. the `8×8` ablation
/// tile); the `12×32` default runs [`kernel_f32_avx512`].
///
/// # Safety
///
/// Requires AVX2 and FMA at runtime; `ap`/`bp` must hold at least
/// `kb*MR` / `kb*NR` elements.
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_f32_avx2<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    const W: usize = 8;
    debug_assert!(NR.is_multiple_of(W) && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[_mm256_setzero_ps(); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [_mm256_setzero_ps(); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = _mm256_loadu_ps(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(p * MR + r));
            for j in 0..nv {
                row[j] = _mm256_fmadd_ps(av, bv[j], row[j]);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, accr) in out.iter_mut().zip(&acc) {
        for (j, &v) in accr.iter().enumerate().take(nv) {
            _mm256_storeu_ps(row.as_mut_ptr().add(j * W), v);
        }
    }
    out
}

/// `f64` tile on 512-bit AVX-512F lanes; `NR` must be a multiple of 8,
/// so each accumulator row of the `12×16` default tile is two zmm
/// registers.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `ap`/`bp` must hold at least `kb*MR` /
/// `kb*NR` elements.
#[target_feature(enable = "avx512f")]
unsafe fn kernel_f64_avx512<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    const W: usize = 8;
    debug_assert!(NR.is_multiple_of(W) && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[_mm512_setzero_pd(); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [_mm512_setzero_pd(); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = _mm512_loadu_pd(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*a.add(p * MR + r));
            for j in 0..nv {
                row[j] = _mm512_fmadd_pd(av, bv[j], row[j]);
            }
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (row, accr) in out.iter_mut().zip(&acc) {
        for (j, &v) in accr.iter().enumerate().take(nv) {
            _mm512_storeu_pd(row.as_mut_ptr().add(j * W), v);
        }
    }
    out
}

/// `f32` tile on 512-bit AVX-512F lanes; `NR` must be a multiple of 16,
/// so each accumulator row of the `12×32` default tile (also the widened
/// `F16` tile) is two zmm registers.
///
/// # Safety
///
/// Requires AVX-512F at runtime; `ap`/`bp` must hold at least `kb*MR` /
/// `kb*NR` elements.
#[target_feature(enable = "avx512f")]
unsafe fn kernel_f32_avx512<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    const W: usize = 16;
    debug_assert!(NR.is_multiple_of(W) && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[_mm512_setzero_ps(); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [_mm512_setzero_ps(); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = _mm512_loadu_ps(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(p * MR + r));
            for j in 0..nv {
                row[j] = _mm512_fmadd_ps(av, bv[j], row[j]);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (row, accr) in out.iter_mut().zip(&acc) {
        for (j, &v) in accr.iter().enumerate().take(nv) {
            _mm512_storeu_ps(row.as_mut_ptr().add(j * W), v);
        }
    }
    out
}

/// Panics unless this CPU executes `isa`. The wrappers below are public,
/// so their soundness cannot rest on [`crate::simd::select`] alone; the
/// feature probe is a cached load, negligible against one tile's FMAs.
fn require(isa: Isa) {
    assert!(
        isa.available(),
        "{isa} microkernel called on a CPU without {isa}"
    );
}

/// Safe entry for the AVX2+FMA `f64` kernel (see [`crate::simd::select`]
/// for when it is handed out).
pub fn f64_avx2<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    require(Isa::Avx2);
    // SAFETY: AVX2+FMA was detected and the panel bounds were asserted
    // just above.
    unsafe { kernel_f64_avx2::<MR, NR>(kb, ap, bp) }
}

/// Safe entry for the AVX2+FMA `f32` kernel.
pub fn f32_avx2<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    require(Isa::Avx2);
    // SAFETY: as for `f64_avx2`.
    unsafe { kernel_f32_avx2::<MR, NR>(kb, ap, bp) }
}

/// Safe entry for the AVX-512F `f64` kernel.
pub fn f64_avx512<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    require(Isa::Avx512);
    // SAFETY: AVX-512F was detected and the panel bounds were asserted
    // just above.
    unsafe { kernel_f64_avx512::<MR, NR>(kb, ap, bp) }
}

/// Safe entry for the AVX-512F `f32` kernel.
pub fn f32_avx512<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    require(Isa::Avx512);
    // SAFETY: as for `f64_avx512`.
    unsafe { kernel_f32_avx512::<MR, NR>(kb, ap, bp) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::portable;

    fn panels(kb: usize, mr: usize, nr: usize) -> (Vec<f64>, Vec<f64>) {
        let ap = (0..kb * mr)
            .map(|i| (i as f64 * 0.37).sin())
            .collect::<Vec<_>>();
        let bp = (0..kb * nr)
            .map(|i| (i as f64 * 0.73).cos())
            .collect::<Vec<_>>();
        (ap, bp)
    }

    #[test]
    fn avx2_f64_matches_portable_within_fma_tolerance() {
        if !Isa::Avx2.available() {
            return;
        }
        let kb = 33;
        let (ap, bp) = panels(kb, 8, 8);
        let simd = f64_avx2::<8, 8>(kb, &ap, &bp);
        let scalar = portable::<f64, 8, 8>(kb, &ap, &bp);
        for (sr, pr) in simd.iter().zip(&scalar) {
            for (s, p) in sr.iter().zip(pr) {
                assert!((s - p).abs() < 1e-13, "{s} vs {p}");
            }
        }
    }

    #[test]
    fn avx512_f64_matches_avx2() {
        if !Isa::Avx512.available() {
            return;
        }
        let kb = 17;
        let (ap, bp) = panels(kb, 4, 8);
        let z = f64_avx512::<4, 8>(kb, &ap, &bp);
        let y = f64_avx2::<4, 8>(kb, &ap, &bp);
        for (zr, yr) in z.iter().zip(&y) {
            for (a, b) in zr.iter().zip(yr) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn avx512_f64_default_tile_matches_avx2() {
        if !Isa::Avx512.available() {
            return;
        }
        for kb in [0, 1, 29, 256] {
            let (ap, bp) = panels(kb, 12, 16);
            let z = f64_avx512::<12, 16>(kb, &ap, &bp);
            // A 16-wide row is four ymm vectors, past `MAX_VECS`, so the
            // 256-bit kernel runs the two 8-column halves of the panel.
            let half = |lo: usize| -> Vec<f64> {
                bp.chunks(16)
                    .flat_map(|row| row[lo..lo + 8].to_vec())
                    .collect()
            };
            let y_lo = f64_avx2::<12, 8>(kb, &ap, &half(0));
            let y_hi = f64_avx2::<12, 8>(kb, &ap, &half(8));
            for (r, zr) in z.iter().enumerate() {
                // Same FMA sequence per element at either width: bitwise.
                assert_eq!(zr[..8], y_lo[r], "kb={kb} row {r}");
                assert_eq!(zr[8..], y_hi[r], "kb={kb} row {r}");
            }
        }
    }

    #[test]
    fn avx512_f32_matches_portable_within_fma_tolerance() {
        if !Isa::Avx512.available() {
            return;
        }
        for kb in [0, 1, 33, 256] {
            let (ap64, bp64) = panels(kb, 12, 32);
            let ap: Vec<f32> = ap64.iter().map(|&x| x as f32).collect();
            let bp: Vec<f32> = bp64.iter().map(|&x| x as f32).collect();
            let simd = f32_avx512::<12, 32>(kb, &ap, &bp);
            let scalar = portable::<f32, 12, 32>(kb, &ap, &bp);
            let tol = (kb as f32).max(1.0) * f32::EPSILON * 8.0;
            for (sr, pr) in simd.iter().zip(&scalar) {
                for (s, p) in sr.iter().zip(pr) {
                    assert!(
                        (s - p).abs() <= tol * p.abs().max(1.0),
                        "kb={kb}: {s} vs {p}"
                    );
                }
            }
        }
        assert_eq!(f32_avx512::<12, 32>(0, &[], &[]), [[0.0f32; 32]; 12]);
    }

    #[test]
    fn f32_kernel_handles_zero_depth() {
        if !Isa::Avx2.available() {
            return;
        }
        assert_eq!(f32_avx2::<4, 8>(0, &[], &[]), [[0.0f32; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "panel too short")]
    fn bounds_are_checked() {
        if !Isa::Avx2.available() {
            panic!("panel too short"); // keep the expectation on non-AVX2 hosts
        }
        let _ = f64_avx2::<4, 4>(9, &[0.0; 8], &[0.0; 64]);
    }
}
