//! `exp`, `tanh` and the logistic `sigmoid`, defined once as this crate's
//! own code: the activations of every recurrent step (the LSTM gates, the
//! time-lag decay, the attention MLP and its softmax) do not come from the
//! host's libm, so their bits are the same on every host.
//!
//! # The reference
//!
//! [`exp`], [`tanh`] and [`sigmoid`] use IEEE-754 `+ − × ÷` only: no fused
//! multiply-add and no libm call.
//!
//! * `exp(x)`. The argument is clamped to `[−746, 710]`; outside that range
//!   the result is `0` or `+∞` anyway. A Cody–Waite reduction (Cody & Waite,
//!   *Software Manual for the Elementary Functions*, 1980) writes
//!   `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`. Adding and subtracting
//!   `1.5·2⁵²` rounds `x / ln 2` to the integer `k`, whose bits the sum's
//!   low mantissa holds. `ln 2` is split into a 32-bit head, whose products
//!   with `k` are exact, and a tail. `e^r − 1` is the degree-13 Taylor
//!   polynomial `r + r²·Q(r)`, with `Q` evaluated by Horner. Then
//!   `e^x = (1 + (e^r − 1))·2^⌊k/2⌋·2^(k−⌊k/2⌋)`, both powers built from
//!   exponent bits. Splitting `2^k` in two keeps each factor normal, so a
//!   subnormal result is rounded once and a result near overflow does not
//!   overflow early.
//! * `tanh(x)`, for `a = |x|`. Below `2⁻²⁸`, `a` itself: `tanh` rounds to
//!   its argument there, signed zeros and subnormals included. Below 1,
//!   `e = e^{−2a} − 1` from the same reduction, as
//!   `2^k·(e^r − 1) + (2^k − 1)`, which keeps the relative accuracy of
//!   `a`, and `tanh = e / (−2 − e)`. Below 22, `1 − 2 / (e^{2a} + 1)`.
//!   From 22 on, `1`. The sign of `x` is copied onto the result; NaN stays
//!   NaN.
//! * `sigmoid(x) = 1 / (1 + exp(−x))`.
//!
//! Against `std` (glibc) this module's tests measure at most 1 ulp for
//! `exp`, 3 ulp for `tanh` and 4 ulp for `sigmoid` (the latter against
//! `1 / (1 + e^{−x})` evaluated with `std`'s `exp`).
//!
//! # The legs
//!
//! The slice kernels ([`Scalar::exp_slice`](crate::Scalar::exp_slice) and
//! its siblings) run 8 lanes of AVX-512F or 4 lanes of AVX2, chosen once
//! per process like the Adam and panel legs; `RM_SIMD=0` selects the
//! reference. Each leg performs the reference's operations in its order on
//! every lane and blends the branches of `tanh`, so every leg is bitwise
//! equal to the reference. The shift trick gives the integer part, so no
//! leg needs a float-to-int conversion, which AVX-512F lacks for 64-bit
//! lanes. `f32` evaluates the `f64` definition and rounds once.

// rm-lint: hot-path

use crate::simd::{leg, Leg};

/// Arguments below this give `exp(x) = 0`; the reduction clamps to it.
const EXP_MIN_ARG: f64 = -746.0;
/// Arguments above this give `exp(x) = +∞`; the reduction clamps to it.
const EXP_MAX_ARG: f64 = 710.0;
/// `1 / ln 2`.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `ln 2` to 32 significant bits: `k·LN2_HI` is exact for `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`, rounded.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding it rounds a value below `2⁵¹` in magnitude to an
/// integer `k`, and the sum's bits are `SHIFTER`'s plus `k`.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// `SHIFTER`'s bits less `2048`: subtracted from the sum's bits it leaves
/// `k + 2048`, non-negative for every clamped argument.
const K_BIAS_BITS: u64 = SHIFTER.to_bits() - 2048;
/// `1/2!, 1/3!, …, 1/13!`: the Horner coefficients of `Q` in
/// `e^r − 1 = r + r²·Q(r)`.
const Q: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];
/// `2⁻²⁸`: below it `tanh(x)` rounds to `x`.
const TANH_TINY: f64 = f64::from_bits((1023 - 28) << 52);
/// From here on `tanh(x)` rounds to `±1`.
const TANH_SATURATION: f64 = 22.0;
/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// `x` clamped into `[EXP_MIN_ARG, EXP_MAX_ARG]`, NaN kept: the vector
/// `max(lo, x)` (`lo > x ? lo : x`), then `min(hi, ·)`.
#[inline(always)]
fn clamp_arg(x: f64) -> f64 {
    let x = if EXP_MIN_ARG > x { EXP_MIN_ARG } else { x };
    if EXP_MAX_ARG < x {
        EXP_MAX_ARG
    } else {
        x
    }
}

/// `x = k·ln 2 + r`: returns `r` and the shifted sum that holds `k`.
#[inline(always)]
fn reduce(x: f64) -> (f64, f64) {
    let t = x * INV_LN2 + SHIFTER;
    let k = t - SHIFTER;
    ((x - k * LN2_HI) - k * LN2_LO, t)
}

/// `e^r − 1 = r + r²·Q(r)` for a reduced `r`, `Q` by Estrin's scheme:
/// pairs `Q[2i] + Q[2i+1]·r`, joined by `r²`, then by `r⁴` and `r⁸`. Its
/// dependency chain is a third of Horner's, which is what bounds a slice
/// kernel's throughput.
#[inline(always)]
fn expm1_reduced(r: f64) -> f64 {
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p = |i: usize| Q[2 * i] + Q[2 * i + 1] * r;
    let q0 = p(0) + p(1) * r2;
    let q1 = p(2) + p(3) * r2;
    let q2 = p(4) + p(5) * r2;
    r + r2 * ((q0 + q1 * r4) + q2 * r8)
}

/// `2^⌊k/2⌋` and `2^(k−⌊k/2⌋)` from the shifted sum `t` of [`reduce`].
#[inline(always)]
fn pow2_halves(t: f64) -> (f64, f64) {
    let u = t.to_bits().wrapping_sub(K_BIAS_BITS);
    let half = u >> 1;
    (
        f64::from_bits(half.wrapping_sub(1) << 52),
        f64::from_bits((u - half).wrapping_sub(1) << 52),
    )
}

/// `e^x`, the reference every leg equals bit for bit (see the module doc).
#[inline]
pub fn exp(x: f64) -> f64 {
    let (r, t) = reduce(clamp_arg(x));
    let (s1, s2) = pow2_halves(t);
    (1.0 + expm1_reduced(r)) * s1 * s2
}

/// `tanh(x)`, the reference every leg equals bit for bit (see the module
/// doc).
#[inline]
pub fn tanh(x: f64) -> f64 {
    let a = x.abs();
    let z = if a < TANH_TINY {
        a
    } else if a < 1.0 {
        let (r, t) = reduce(-2.0 * a);
        let (s1, s2) = pow2_halves(t);
        let two_k = s1 * s2;
        let e = two_k * expm1_reduced(r) + (two_k - 1.0);
        e / (-2.0 - e)
    } else if a < TANH_SATURATION {
        1.0 - 2.0 / (exp(2.0 * a) + 1.0)
    } else if a.is_nan() {
        a
    } else {
        1.0
    };
    f64::from_bits(z.to_bits() | (x.to_bits() & SIGN))
}

/// The logistic sigmoid `1 / (1 + exp(−x))`, the reference every leg
/// equals bit for bit.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp(-x))
}

/// One of the functions the slice kernels apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// [`exp`].
    Exp,
    /// [`tanh`].
    Tanh,
    /// [`sigmoid`].
    Sigmoid,
}

impl Function {
    /// The reference at one value.
    #[inline]
    pub fn reference(self, x: f64) -> f64 {
        match self {
            Function::Exp => exp(x),
            Function::Tanh => tanh(x),
            Function::Sigmoid => sigmoid(x),
        }
    }
}

/// Name of the activation leg the current process runs: `"avx512f"`,
/// `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn activation_kernel_name() -> &'static str {
    leg().name()
}

/// The `f64` instance of the `Scalar::activate` hook: `xs[i] = f(xs[i])`.
pub(crate) fn map_f64(f: Function, xs: &mut [f64]) {
    map_f64_on(leg(), f, xs);
}

/// `xs[i] = f(xs[i])` on `leg`.
///
/// # Panics
/// Panics if the host cannot run `leg`.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
fn map_f64_on(leg: Leg, f: Function, xs: &mut [f64]) {
    assert!(
        leg.available(),
        "activation leg {leg:?} is not available on this host"
    );
    match leg {
        // SAFETY: `leg.available()` asserted the CPU feature above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx512 => unsafe { avx512::map(f, xs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx2 => unsafe { avx2::map(f, xs) },
        _ => xs.iter_mut().for_each(|x| *x = f.reference(*x)),
    }
}

/// The `f32` instance of the `Scalar::activate` hook: each value widened,
/// mapped by the `f64` leg and rounded once.
pub(crate) fn map_f32(f: Function, xs: &mut [f32]) {
    let mut wide = [0.0f64; 64];
    for chunk in xs.chunks_mut(wide.len()) {
        let wide = &mut wide[..chunk.len()];
        for (w, &x) in wide.iter_mut().zip(chunk.iter()) {
            *w = f64::from(x);
        }
        map_f64(f, wide);
        for (x, &w) in chunk.iter_mut().zip(wide.iter()) {
            *x = w as f32;
        }
    }
}

/// The vector legs' shared body, written once over the primitives each leg
/// module defines (`V`, `LANES`, `splat`, `add`, `sub`, `mul`, `div`,
/// `max`, `min`, `lt`, `is_nan`, `select`, `abs`, `neg`, `or_sign`,
/// `pow2_halves`, `load`, `store`). Every function performs the reference's
/// operations in its order; `tanh` evaluates both of its formulas on every
/// lane and blends.
#[cfg(target_arch = "x86_64")]
macro_rules! activation_leg {
    ($features:literal) => {
        /// [`super::clamp_arg`] on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn clamp_arg(x: V) -> V {
            min(splat(EXP_MAX_ARG), max(splat(EXP_MIN_ARG), x))
        }

        /// [`super::reduce`] on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn reduce(x: V) -> (V, V) {
            let t = add(mul(x, splat(INV_LN2)), splat(SHIFTER));
            let k = sub(t, splat(SHIFTER));
            let r = sub(sub(x, mul(k, splat(LN2_HI))), mul(k, splat(LN2_LO)));
            (r, t)
        }

        /// [`super::expm1_reduced`] on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn expm1_reduced(r: V) -> V {
            let r2 = mul(r, r);
            let r4 = mul(r2, r2);
            let r8 = mul(r4, r4);
            let p = |i: usize| add(splat(Q[2 * i]), mul(splat(Q[2 * i + 1]), r));
            let q0 = add(p(0), mul(p(1), r2));
            let q1 = add(p(2), mul(p(3), r2));
            let q2 = add(p(4), mul(p(5), r2));
            add(r, mul(r2, add(add(q0, mul(q1, r4)), mul(q2, r8))))
        }

        /// [`super::exp`] on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn exp(x: V) -> V {
            let (r, t) = reduce(clamp_arg(x));
            let (s1, s2) = pow2_halves(t);
            mul(mul(add(splat(1.0), expm1_reduced(r)), s1), s2)
        }

        /// [`super::tanh`] on every lane: one reduction of `∓2a`, one
        /// division whose operands each lane picks for its branch, then the
        /// branch each lane takes.
        #[target_feature(enable = $features)]
        #[inline]
        fn tanh(x: V) -> V {
            let one = splat(1.0);
            let a = abs(x);
            let small = lt(a, one);
            let y = mul(select(small, splat(-2.0), splat(2.0)), a);
            let (r, t) = reduce(clamp_arg(y));
            let p = expm1_reduced(r);
            let (s1, s2) = pow2_halves(t);
            // Below 1: `e / (−2 − e)`; below saturation: `1 − 2 / (e^{2a} + 1)`.
            let two_k = mul(s1, s2);
            let e = add(mul(two_k, p), sub(two_k, one));
            let big = mul(mul(add(one, p), s1), s2);
            let quotient = div(
                select(small, e, splat(2.0)),
                select(small, sub(splat(-2.0), e), add(big, one)),
            );
            let z = select(lt(a, splat(TANH_SATURATION)), sub(one, quotient), one);
            let z = select(small, quotient, z);
            let z = select(lt(a, splat(TANH_TINY)), a, z);
            or_sign(select(is_nan(a), a, z), x)
        }

        /// [`super::sigmoid`] on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn sigmoid(x: V) -> V {
            let one = splat(1.0);
            div(one, add(one, exp(neg(x))))
        }

        /// `f` on every lane.
        #[target_feature(enable = $features)]
        #[inline]
        fn apply(f: Function, x: V) -> V {
            match f {
                Function::Exp => exp(x),
                Function::Tanh => tanh(x),
                Function::Sigmoid => sigmoid(x),
            }
        }

        /// `xs[i] = f(xs[i])`, full vectors first, then the `< LANES` tail
        /// through a padded vector.
        #[target_feature(enable = $features)]
        pub(super) fn map(f: Function, xs: &mut [f64]) {
            let mut chunks = xs.chunks_exact_mut(LANES);
            for chunk in &mut chunks {
                let v = apply(f, load(chunk));
                store(chunk, v);
            }
            let rest = chunks.into_remainder();
            if !rest.is_empty() {
                let mut lanes = [0.0; LANES];
                lanes[..rest.len()].copy_from_slice(rest);
                let v = apply(f, load(&lanes));
                store(&mut lanes, v);
                rest.copy_from_slice(&lanes[..rest.len()]);
            }
        }
    };
}

/// The AVX2 leg: 4 lanes, masks as all-ones lanes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    type V = __m256d;
    const LANES: usize = 4;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(v: f64) -> V {
        _mm256_set1_pd(v)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn add(a: V, b: V) -> V {
        _mm256_add_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sub(a: V, b: V) -> V {
        _mm256_sub_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul(a: V, b: V) -> V {
        _mm256_mul_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn div(a: V, b: V) -> V {
        _mm256_div_pd(a, b)
    }
    /// `a > b ? a : b` per lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn max(a: V, b: V) -> V {
        _mm256_max_pd(a, b)
    }
    /// `a < b ? a : b` per lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn min(a: V, b: V) -> V {
        _mm256_min_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lt(a: V, b: V) -> V {
        _mm256_cmp_pd::<_CMP_LT_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn is_nan(a: V) -> V {
        _mm256_cmp_pd::<_CMP_UNORD_Q>(a, a)
    }
    /// `yes` where `mask` is set, `no` elsewhere.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn select(mask: V, yes: V, no: V) -> V {
        _mm256_blendv_pd(no, yes, mask)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn abs(a: V) -> V {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), a)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    fn neg(a: V) -> V {
        _mm256_xor_pd(a, _mm256_set1_pd(-0.0))
    }
    /// `z` with the sign bit of `x` or-ed in.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn or_sign(z: V, x: V) -> V {
        _mm256_or_pd(z, _mm256_and_pd(x, _mm256_set1_pd(-0.0)))
    }
    /// [`super::pow2_halves`] on every lane, in 64-bit integer lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pow2_halves(t: V) -> (V, V) {
        let u = _mm256_sub_epi64(
            _mm256_castpd_si256(t),
            _mm256_set1_epi64x(K_BIAS_BITS as i64),
        );
        let half = _mm256_srli_epi64::<1>(u);
        let one = _mm256_set1_epi64x(1);
        let lo = _mm256_slli_epi64::<52>(_mm256_sub_epi64(half, one));
        let hi = _mm256_slli_epi64::<52>(_mm256_sub_epi64(_mm256_sub_epi64(u, half), one));
        (_mm256_castsi256_pd(lo), _mm256_castsi256_pd(hi))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    fn load(xs: &[f64]) -> V {
        assert!(xs.len() >= LANES);
        // SAFETY: `xs` holds at least `LANES` values; unaligned load.
        unsafe { _mm256_loadu_pd(xs.as_ptr()) }
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    fn store(xs: &mut [f64], v: V) {
        assert!(xs.len() >= LANES);
        // SAFETY: `xs` holds at least `LANES` values; unaligned store.
        unsafe { _mm256_storeu_pd(xs.as_mut_ptr(), v) }
    }

    activation_leg!("avx2");
}

/// The AVX-512F leg: 8 lanes, masks as `__mmask8`. Sign-bit logic runs in
/// integer lanes, since the `pd` logic ops need AVX-512DQ.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    type V = __m512d;
    const LANES: usize = 8;

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(v: f64) -> V {
        _mm512_set1_pd(v)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn add(a: V, b: V) -> V {
        _mm512_add_pd(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn sub(a: V, b: V) -> V {
        _mm512_sub_pd(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn mul(a: V, b: V) -> V {
        _mm512_mul_pd(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn div(a: V, b: V) -> V {
        _mm512_div_pd(a, b)
    }
    /// `a > b ? a : b` per lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn max(a: V, b: V) -> V {
        _mm512_max_pd(a, b)
    }
    /// `a < b ? a : b` per lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn min(a: V, b: V) -> V {
        _mm512_min_pd(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lt(a: V, b: V) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn is_nan(a: V) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(a, a)
    }
    /// `yes` where `mask` is set, `no` elsewhere.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn select(mask: __mmask8, yes: V, no: V) -> V {
        _mm512_mask_blend_pd(mask, no, yes)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn abs(a: V) -> V {
        _mm512_abs_pd(a)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn neg(a: V) -> V {
        let sign = _mm512_set1_epi64(SIGN as i64);
        _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(a), sign))
    }
    /// `z` with the sign bit of `x` or-ed in.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn or_sign(z: V, x: V) -> V {
        let sign = _mm512_and_si512(_mm512_castpd_si512(x), _mm512_set1_epi64(SIGN as i64));
        _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(z), sign))
    }
    /// [`super::pow2_halves`] on every lane, in 64-bit integer lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn pow2_halves(t: V) -> (V, V) {
        let u = _mm512_sub_epi64(
            _mm512_castpd_si512(t),
            _mm512_set1_epi64(K_BIAS_BITS as i64),
        );
        let half = _mm512_srli_epi64::<1>(u);
        let one = _mm512_set1_epi64(1);
        let lo = _mm512_slli_epi64::<52>(_mm512_sub_epi64(half, one));
        let hi = _mm512_slli_epi64::<52>(_mm512_sub_epi64(_mm512_sub_epi64(u, half), one));
        (_mm512_castsi512_pd(lo), _mm512_castsi512_pd(hi))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(unsafe_code)]
    fn load(xs: &[f64]) -> V {
        assert!(xs.len() >= LANES);
        // SAFETY: `xs` holds at least `LANES` values; unaligned load.
        unsafe { _mm512_loadu_pd(xs.as_ptr()) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(unsafe_code)]
    fn store(xs: &mut [f64], v: V) {
        assert!(xs.len() >= LANES);
        // SAFETY: `xs` holds at least `LANES` values; unaligned store.
        unsafe { _mm512_storeu_pd(xs.as_mut_ptr(), v) }
    }

    activation_leg!("avx512f");
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNCTIONS: [Function; 3] = [Function::Exp, Function::Tanh, Function::Sigmoid];

    /// A splitmix-style hash of `i`.
    fn hash(i: u64) -> u64 {
        let mut z = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x243f_6a88_85a3_08d3);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z.wrapping_mul(0x94d0_49bb_1331_11eb) ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn uniform(i: u64, lo: f64, hi: f64) -> f64 {
        lo + (hash(i) >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// `±10^e` with `e` uniform in `[lo, hi]`: every magnitude alike.
    fn log_uniform(i: u64, lo: f64, hi: f64) -> f64 {
        let sign = if hash(!i) & 1 == 0 { 1.0 } else { -1.0 };
        sign * 10f64.powf(uniform(i, lo, hi))
    }

    /// `v` and its neighbours one ulp either side.
    fn around(v: f64) -> [f64; 3] {
        [v.next_down(), v, v.next_up()]
    }

    /// Every branch switch and threshold of the three functions, one ulp
    /// either side and negated, plus `±0`, subnormals, `±∞` and NaN.
    fn edge_set() -> Vec<f64> {
        let ln2 = std::f64::consts::LN_2;
        let mut v = vec![
            0.0,
            5e-324,
            2.5e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for edge in [
            // The clamp, the last finite and first non-zero results, the
            // onset of subnormal results.
            EXP_MIN_ARG,
            EXP_MAX_ARG,
            709.782_712_893_384,
            745.133_219_101_941_1,
            708.396_418_532_264_1,
            // Where `k` switches.
            0.5 * ln2,
            1.5 * ln2,
            2.5 * ln2,
            // `tanh`'s branches.
            TANH_TINY,
            0.5,
            1.0,
            TANH_SATURATION,
            // Where `1 + e^{−x}` starts to round to 1 in `sigmoid`.
            53.0 * ln2,
        ] {
            v.extend(around(edge));
        }
        let negated: Vec<f64> = v.iter().map(|x| -x).collect();
        v.extend(negated);
        v
    }

    /// Random arguments over every range the functions branch on.
    fn random_set(n: u64) -> Vec<f64> {
        (0..n)
            .flat_map(|i| {
                [
                    uniform(i, -750.0, 750.0),
                    uniform(i + n, -25.0, 25.0),
                    uniform(i + 2 * n, -1.0, 1.0),
                    log_uniform(i + 3 * n, -320.0, 3.0),
                ]
            })
            .collect()
    }

    /// Bit-identical, except that NaN only has to meet NaN.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The distance in ulps between `a` and `b` (0 for two NaNs).
    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_nan() && b.is_nan() {
            return 0;
        }
        if a.is_nan() || b.is_nan() {
            return u64::MAX;
        }
        let ordered = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    fn host_legs() -> Vec<Leg> {
        [Leg::Avx512, Leg::Avx2, Leg::Scalar]
            .into_iter()
            .filter(|leg| leg.available())
            .collect()
    }

    /// Every leg the host runs, forced one by one, equals the reference bit
    /// for bit on the edge set and on random arguments, at every tail
    /// length of both vector widths.
    #[test]
    fn every_leg_equals_the_reference() {
        let mut inputs = edge_set();
        inputs.extend(random_set(2_000));
        for leg in host_legs() {
            for f in FUNCTIONS {
                for len in [inputs.len(), 1, 3, 5, 7, 9, 13] {
                    for window in inputs.chunks(len) {
                        let mut got = window.to_vec();
                        map_f64_on(leg, f, &mut got);
                        for (&x, &g) in window.iter().zip(&got) {
                            let want = f.reference(x);
                            assert!(
                                same_bits(g, want),
                                "{leg:?} {f:?}({x:e}) = {g:e}, reference {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The largest ulp distance between `ours` and `theirs` over `inputs`,
    /// with the argument it happens at.
    fn worst(inputs: &[f64], ours: fn(f64) -> f64, theirs: fn(f64) -> f64) -> (u64, f64) {
        inputs
            .iter()
            .map(|&x| (ulps(ours(x), theirs(x)), x))
            .fold((0, 0.0), |acc, e| if e.0 > acc.0 { e } else { acc })
    }

    /// The measured accuracy against `std`, pinned: `exp` within 1 ulp of
    /// glibc's, `tanh` within 3, `sigmoid` within 4 of `1 / (1 + e^{−x})`
    /// through `std`'s `exp`, tiny arguments and subnormal results
    /// included. (A sweep of 8 million arguments measured the same worst
    /// cases: `exp` 1 ulp, `tanh` 3 at `|x| < 1`, `sigmoid` 4 near
    /// `x = −36.8`, where both sides round `1 + e^{−x}`.)
    #[test]
    fn accuracy_against_std_is_pinned() {
        let mut inputs = edge_set();
        inputs.extend(random_set(50_000));
        let (e, at) = worst(&inputs, exp, f64::exp);
        assert!(e <= 1, "exp is {e} ulp off at {at:e}");
        let (t, at) = worst(&inputs, tanh, f64::tanh);
        assert!(t <= 3, "tanh is {t} ulp off at {at:e}");
        let (s, at) = worst(&inputs, sigmoid, |x| 1.0 / (1.0 + (-x).exp()));
        assert!(s <= 4, "sigmoid is {s} ulp off at {at:e}");
    }

    /// `tanh` keeps the relative accuracy of tiny arguments: it returns
    /// them below `2⁻²⁸` and stays within 3 ulp of glibc above.
    #[test]
    fn tanh_of_tiny_arguments_keeps_their_relative_accuracy() {
        for x in [
            5e-324,
            2.5e-310,
            f64::MIN_POSITIVE,
            1e-200,
            1e-20,
            TANH_TINY.next_down(),
        ] {
            assert_eq!(tanh(x), x);
            assert_eq!(tanh(-x), -x);
        }
        for i in 0..10_000 {
            let x = log_uniform(i, -8.5, -1.0);
            assert!(ulps(tanh(x), x.tanh()) <= 3, "tanh({x:e})");
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert_eq!(exp(-1000.0), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY), 0.0);
        for f in FUNCTIONS {
            assert!(f.reference(f64::NAN).is_nan(), "{f:?}(NaN)");
            assert!(f.reference(-f64::NAN).is_nan(), "{f:?}(−NaN)");
        }
    }

    /// `f32` evaluates the `f64` definition and rounds once, through the
    /// scalar hooks and the slice hooks alike.
    #[test]
    fn f32_rounds_the_f64_definition_once() {
        use crate::Scalar;
        let inputs: Vec<f32> = random_set(500)
            .into_iter()
            .chain(edge_set())
            .map(|x| x as f32)
            .collect();
        for f in FUNCTIONS {
            let mut got = inputs.clone();
            map_f32(f, &mut got);
            for (&x, &g) in inputs.iter().zip(&got) {
                let want = f.reference(f64::from(x)) as f32;
                let one = match f {
                    Function::Exp => Scalar::exp(x),
                    Function::Tanh => Scalar::tanh(x),
                    Function::Sigmoid => Scalar::sigmoid(x),
                };
                assert!(same_bits(f64::from(g), f64::from(want)), "{f:?}({x:e})");
                assert!(same_bits(f64::from(one), f64::from(want)), "{f:?}({x:e})");
            }
        }
    }

    #[test]
    fn kernel_name_follows_the_knob() {
        let name = activation_kernel_name();
        if crate::simd_enabled() {
            assert!(["scalar", "avx2", "avx512f"].contains(&name));
        } else {
            assert_eq!(name, "scalar");
        }
    }
}
