//! The precision axis of the tensor layer.
//!
//! [`Scalar`] is the sealed element trait of [`Matrix`](crate::Matrix) and
//! [`Var`](crate::Var): exactly `f64` and `f32` implement it. It provides the
//! arithmetic and transcendental hooks (`exp`/`tanh`/`sqrt`/`ln`)
//! that the dense kernels and the `rm-nn` activations need, so every kernel
//! is written once and monomorphised per precision:
//!
//! * `f64` — the default, and the precision of the determinism contract: the
//!   whole pipeline is bit-identical across thread counts *and* across PRs at
//!   this precision.
//! * `f32` — half the memory traffic and twice the SIMD lanes per vector op;
//!   the 4-wide unrolled kernels auto-vectorise to full width. The f32
//!   pipeline is bit-identical across thread counts too (same ordered
//!   reductions), it just rounds differently from f64.
//!
//! The activation helpers ([`Scalar::sigmoid`], [`Scalar::relu`]) live here —
//! as provided trait methods — precisely so the autodiff graph forward pass
//! and the graph-free snapshot forward pass in `rm-nn` share one definition
//! and stay bit-identical to each other.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod private {
    /// Seals [`super::Scalar`]: the kernels are only audited (and the
    /// determinism contract only holds) for IEEE-754 binary32/binary64.
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// Element type of the dense tensor kernels: `f64` (default) or `f32`.
///
/// Methods mirror the inherent `std` float methods of the same name, so
/// generic code reads exactly like concrete `f64` code and monomorphises to
/// the identical instruction sequence at `T = f64`.
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Default
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Send
    + Sync
    + 'static
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lowercase type name (`"f64"` / `"f32"`), for labels and reports.
    const NAME: &'static str;

    /// Converts from `f64`, rounding to the nearest representable value.
    fn from_f64(v: f64) -> Self;
    /// Widens (losslessly for both implementors) to `f64`.
    fn to_f64(self) -> f64;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `self^exponent`.
    fn powf(self, exponent: Self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;
    /// Clamps into `[lo, hi]`.
    fn clamp(self, lo: Self, hi: Self) -> Self;
    /// `true` for neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// Raw IEEE bits, widened to `u64` — the equality behind
    /// [`Matrix::bits_eq`](crate::Matrix::bits_eq), which the bit-identity
    /// tests use at either precision.
    fn to_bits_u64(self) -> u64;

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    ///
    /// This is the **single** definition shared by the autodiff graph
    /// ([`Var::sigmoid`](crate::Var::sigmoid)) and the graph-free snapshot
    /// forward passes in `rm-nn`; keeping one formula is what makes snapshot
    /// inference bit-identical to graph inference.
    #[inline]
    fn sigmoid(self) -> Self {
        Self::ONE / (Self::ONE + (-self).exp())
    }

    /// Rectified linear unit `max(x, 0)`, with `f64::max` NaN semantics.
    #[inline]
    fn relu(self) -> Self {
        self.max(Self::ZERO)
    }

    /// Explicit-width AVX2 `y[j] += a * x[j]` row kernel for this precision
    /// (bit-identical to the scalar reference). The dispatch point the
    /// `#[target_feature]` consumer loops in `crate::matrix` inline through;
    /// not part of the stable API.
    ///
    /// # Safety
    /// Only call after runtime AVX2 detection succeeded — i.e. only when
    /// [`crate::simd`]'s resolved kernel is the AVX2 family. (On non-x86_64
    /// targets the hook is a safe scalar delegation and is never dispatched.)
    // SAFETY: declaration only — the contract above binds the implementors.
    #[doc(hidden)]
    #[allow(unsafe_code)]
    unsafe fn axpy_row_avx2(a: Self, x: &[Self], y: &mut [Self]);

    /// Fused four-row AVX2 update `y[j] += Σ_r a[r] * x[r][j]` — the
    /// k-unrolled panel kernel of `matmul_into`, bit-identical to four
    /// sequential [`Scalar::axpy_row_avx2`] calls.
    ///
    /// # Safety
    /// Same contract as [`Scalar::axpy_row_avx2`].
    // SAFETY: declaration only — the contract above binds the implementors.
    #[doc(hidden)]
    #[allow(unsafe_code)]
    unsafe fn axpy_row4_avx2(a: [Self; 4], x: [&[Self]; 4], y: &mut [Self]);

    /// Explicit-width AVX2 batch-1 product `out += W · x` (row-major `W` of
    /// `out.len()` rows `ld` entries apart, `x.len()` columns from the start
    /// of `w`) — the column-vector kernel of `matmul_into` and
    /// `Matrix::matvec_acc`, bit-identical to the scalar dot products
    /// continued from `out`.
    ///
    /// # Safety
    /// Same contract as [`Scalar::axpy_row_avx2`].
    // SAFETY: declaration only — the contract above binds the implementors.
    #[doc(hidden)]
    #[allow(unsafe_code)]
    unsafe fn matvec_avx2(w: &[Self], ld: usize, x: &[Self], out: &mut [Self]);

    /// One Adam update of a parameter tensor's flat slices — the dispatch
    /// point of [`AdamStep::update`](crate::simd::AdamStep::update). `f64`
    /// runs the explicit-width kernel the host supports (bit-identical to
    /// the reference); `f32` runs the reference loop. Not part of the stable
    /// API.
    #[doc(hidden)]
    fn adam_update(
        step: &crate::simd::AdamStep<Self>,
        w: &mut [Self],
        g: &[Self],
        m: &mut [Self],
        v: &mut [Self],
    );

    /// Runs `f` with this thread's raw-buffer pool for `Self` elements.
    ///
    /// Internal plumbing of the arena layer (`crate::workspace`): the pools
    /// are declared per implementor so each thread — in particular each
    /// `rm-runtime` pool worker — owns a private arena per precision and no
    /// synchronisation is ever needed. Public only because the sealed trait
    /// is the dispatch point; not part of the stable API.
    #[doc(hidden)]
    fn with_buffer_pool<R, F: FnOnce(&mut crate::workspace::BufferPool<Self>) -> R>(f: F) -> R;

    /// Runs `f` with this thread's autodiff node pool for `Self` graphs.
    ///
    /// Same internal-plumbing caveats as [`Scalar::with_buffer_pool`].
    #[doc(hidden)]
    fn with_node_pool<R, F: FnOnce(&mut crate::autodiff::NodePool<Self>) -> R>(f: F) -> R;
}

macro_rules! impl_scalar {
    (
        $t:ty, $name:literal, $axpy_avx2:path, $axpy4_avx2:path,
        $matvec_avx2:path, $adam_update:path
    ) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NAME: &'static str = $name;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn powf(self, exponent: Self) -> Self {
                <$t>::powf(self, exponent)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn clamp(self, lo: Self, hi: Self) -> Self {
                <$t>::clamp(self, lo, hi)
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn to_bits_u64(self) -> u64 {
                self.to_bits() as u64
            }

            // SAFETY: thin forwarder — the caller upholds the CPU-feature
            // contract of the trait declaration; the arch kernel itself
            // stays within the slice bounds.
            #[inline(always)]
            #[allow(unsafe_code)]
            unsafe fn axpy_row_avx2(a: Self, x: &[Self], y: &mut [Self]) {
                // SAFETY: forwarded contract, argued at the declaration.
                unsafe { $axpy_avx2(a, x, y) }
            }

            // SAFETY: thin forwarder — the caller upholds the CPU-feature
            // contract of the trait declaration; the arch kernel itself
            // stays within the slice bounds.
            #[inline(always)]
            #[allow(unsafe_code)]
            unsafe fn axpy_row4_avx2(a: [Self; 4], x: [&[Self]; 4], y: &mut [Self]) {
                // SAFETY: forwarded contract, argued at the declaration.
                unsafe { $axpy4_avx2(a, x, y) }
            }

            // SAFETY: thin forwarder — the caller upholds the CPU-feature
            // contract of the trait declaration; the arch kernel checks the
            // slice lengths itself.
            #[inline(always)]
            #[allow(unsafe_code)]
            unsafe fn matvec_avx2(w: &[Self], ld: usize, x: &[Self], out: &mut [Self]) {
                // SAFETY: forwarded contract, argued at the declaration.
                unsafe { $matvec_avx2(w, ld, x, out) }
            }

            #[inline]
            fn adam_update(
                step: &crate::simd::AdamStep<Self>,
                w: &mut [Self],
                g: &[Self],
                m: &mut [Self],
                v: &mut [Self],
            ) {
                $adam_update(step, w, g, m, v)
            }

            fn with_buffer_pool<R, F: FnOnce(&mut crate::workspace::BufferPool<Self>) -> R>(
                f: F,
            ) -> R {
                std::thread_local! {
                    static POOL: std::cell::RefCell<crate::workspace::BufferPool<$t>> =
                        std::cell::RefCell::new(crate::workspace::BufferPool::default());
                }
                POOL.with(|pool| f(&mut pool.borrow_mut()))
            }

            fn with_node_pool<R, F: FnOnce(&mut crate::autodiff::NodePool<Self>) -> R>(f: F) -> R {
                std::thread_local! {
                    static POOL: std::cell::RefCell<crate::autodiff::NodePool<$t>> =
                        std::cell::RefCell::new(crate::autodiff::NodePool::default());
                }
                POOL.with(|pool| f(&mut pool.borrow_mut()))
            }
        }
    };
}

impl_scalar!(
    f64,
    "f64",
    crate::simd::axpy_row_f64_avx2,
    crate::simd::axpy_row4_f64_avx2,
    crate::simd::matvec_f64_avx2,
    crate::simd::adam_update_f64
);
impl_scalar!(
    f32,
    "f32",
    crate::simd::axpy_row_f32_avx2,
    crate::simd::axpy_row4_f32_avx2,
    crate::simd::matvec_f32_avx2,
    crate::simd::AdamStep::update_reference
);

/// The numeric precision a pipeline stage runs at — the user-facing knob
/// that selects the [`Scalar`] instantiation of the inference kernels.
///
/// Training always runs at `f64` (the autodiff graph and optimizer state are
/// `f64`; that is what the cross-PR determinism contract covers). `F32`
/// switches the *inference* passes of the neural imputers to the f32 kernels:
/// trained weights are rounded once to f32 and every sequence is evaluated
/// with twice the SIMD lanes and half the memory traffic. At either setting
/// the output is bit-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision end to end (the default; bit-compatible with the
    /// pre-precision-axis pipeline).
    #[default]
    F64,
    /// Single-precision inference kernels, f64 training.
    F32,
}

impl Precision {
    /// Lowercase name (`"f64"` / `"f32"`), for reports and env parsing.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Parses `"f32"` / `"f64"` (ASCII case-insensitive); `None` otherwise.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("f32") {
            Some(Precision::F32)
        } else if s.eq_ignore_ascii_case("f64") {
            Some(Precision::F64)
        } else {
            None
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_conversions_roundtrip() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f32::ONE, 1.0);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f64(-2.25), -2.25);
        assert_eq!(1.0f64.to_bits_u64(), 1.0f64.to_bits());
        assert_eq!(1.0f32.to_bits_u64(), 1.0f32.to_bits() as u64);
    }

    #[test]
    fn sigmoid_matches_the_inline_formula_at_both_precisions() {
        for x in [-3.0f64, -0.5, 0.0, 0.5, 3.0] {
            let expected = 1.0 / (1.0 + (-x).exp());
            assert_eq!(Scalar::sigmoid(x).to_bits(), expected.to_bits());
            let x32 = x as f32;
            let expected32 = 1.0f32 / (1.0 + (-x32).exp());
            assert_eq!(Scalar::sigmoid(x32).to_bits(), expected32.to_bits());
        }
        assert_eq!(Scalar::sigmoid(0.0f64), 0.5);
    }

    #[test]
    fn relu_follows_ieee_max_semantics() {
        assert_eq!(Scalar::relu(2.5f64), 2.5);
        assert_eq!(Scalar::relu(-2.5f64), 0.0);
        assert_eq!(Scalar::relu(f64::NAN), 0.0); // f64::max(NaN, 0.0) == 0.0
        assert_eq!(Scalar::relu(-1.0f32), 0.0);
    }

    #[test]
    fn precision_parses_and_displays() {
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("F64"), Some(Precision::F64));
        assert_eq!(Precision::parse("half"), None);
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::F64.name(), "f64");
    }
}
