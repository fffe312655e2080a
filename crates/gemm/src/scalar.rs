//! The element-type abstraction for GEMM kernels.
//!
//! The paper sweeps three precisions (double, single, half where
//! supported); [`Scalar`] lets every kernel be written once and
//! instantiated per precision, including the software half type.

use perfport_half::F16;
use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A floating-point element type usable in GEMM kernels, on the host and
/// in simulated device memory.
pub trait Scalar:
    perfport_gpusim::buffer::DeviceCopy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + 'static
{
    /// Human-readable precision name as the paper reports it.
    const NAME: &'static str;
    /// Bytes per element (drives the bandwidth side of the roofline).
    const BYTES: usize;
    /// Bytes per element *inside packed GEMM panels*. Equal to
    /// [`Scalar::BYTES`] for hardware floats; the software [`F16`] packs
    /// widened to `f32` (4 bytes) so the contraction runs a native
    /// microkernel — see `perfport_gemm::tuned` for the scheme.
    const PACK_BYTES: usize = Self::BYTES;
    /// Significand bits including the implicit bit.
    const MANTISSA_DIGITS: u32;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Conversion from `f64`, rounding to the element precision.
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (exact for all three precisions).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b` rounded once.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Draws a uniform sample from `[0, 1)` — the input distribution the
    /// paper fills matrices with (except Numba FP16, which cannot, see
    /// [`Scalar::SUPPORTS_RANDOM_FILL`]).
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self;
    /// Whether the surrounding ecosystem can fill matrices with random
    /// values at this precision. `false` only for the NumPy/Numba FP16
    /// case, where the paper resorts to matrices of ones.
    const SUPPORTS_RANDOM_FILL: bool = true;
}

impl Scalar for f64 {
    const NAME: &'static str = "FP64";
    const BYTES: usize = 8;
    const MANTISSA_DIGITS: u32 = 53;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.gen::<f64>()
    }
}

impl Scalar for f32 {
    const NAME: &'static str = "FP32";
    const BYTES: usize = 4;
    const MANTISSA_DIGITS: u32 = 24;

    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.gen::<f32>()
    }
}

impl Scalar for F16 {
    const NAME: &'static str = "FP16";
    const BYTES: usize = 2;
    // Packed panels hold the f32 widening of each half value.
    const PACK_BYTES: usize = 4;
    const MANTISSA_DIGITS: u32 = 11;

    #[inline]
    fn zero() -> Self {
        F16::ZERO
    }
    #[inline]
    fn one() -> Self {
        F16::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        F16::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        F16::to_f64(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        F16::mul_add(self, a, b)
    }
    #[inline]
    fn sample_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.gen::<F16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exercise<T: Scalar>() {
        assert_eq!(T::zero() + T::one(), T::one());
        assert_eq!(T::one() * T::one(), T::one());
        assert_eq!(T::from_f64(2.0).to_f64(), 2.0);
        assert_eq!(
            T::from_f64(2.0)
                .mul_add(T::from_f64(3.0), T::one())
                .to_f64(),
            7.0
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let x = T::sample_uniform(&mut rng).to_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_impl() {
        exercise::<f64>();
        assert_eq!(f64::NAME, "FP64");
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn f32_impl() {
        exercise::<f32>();
        assert_eq!(f32::NAME, "FP32");
        assert_eq!(f32::BYTES, 4);
    }

    #[test]
    fn f16_impl() {
        exercise::<F16>();
        assert_eq!(F16::NAME, "FP16");
        assert_eq!(F16::BYTES, 2);
        const { assert!(F16::SUPPORTS_RANDOM_FILL) };
    }

    #[test]
    fn pack_bytes_widen_only_for_f16() {
        assert_eq!(f64::PACK_BYTES, 8);
        assert_eq!(f32::PACK_BYTES, 4);
        assert_eq!(F16::PACK_BYTES, 4);
    }

    #[test]
    fn widening_is_exact_for_all_precisions() {
        // Values exactly representable at each precision must survive the
        // f64 round trip bit-for-bit.
        for v in [0.0, 0.5, 1.0, 1.5, 2048.0, -3.25] {
            assert_eq!(f64::from_f64(v).to_f64(), v);
            assert_eq!(f32::from_f64(v).to_f64(), v);
            assert_eq!(F16::from_f64(v).to_f64(), v);
        }
    }
}
