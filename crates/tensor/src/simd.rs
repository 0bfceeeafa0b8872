//! Explicit-width SIMD kernels: the vector width as a guarantee, not a hope.
//!
//! The blocked kernels of [`Matrix`](crate::Matrix) funnel their inner loop
//! through one primitive — `axpy_row`, the in-place `y[j] += a * x[j]` rank-1
//! row update. Until this module existed, that loop was a 4-wide unrolled
//! scalar loop the backend *usually* auto-vectorises; here it is rewritten
//! with `core::arch::x86_64` AVX2 intrinsics behind runtime feature
//! detection, so the width (4 lanes of `f64`, 8 of `f32`) is guaranteed on
//! any AVX2-capable host and inference latency stops depending on the
//! optimiser's mood.
//!
//! Dispatch is hoisted out of the row loop: each consumer
//! (`matmul_into`/`matmul_at_b`/`axpy`) reads the process-wide `kernel()`
//! choice **once per call** and then runs its entire blocked loop inside a
//! `#[target_feature]` context, so the row kernel inlines and no per-row
//! call or detection cost remains. Rows narrower than `SIMD_MIN_COLS`
//! keep the inlined scalar reference outright — bit-identical anyway, and
//! faster when there is no vector body to amortise the dispatch.
//!
//! Column-vector products (`n = 1`: every batch-1 layer of the recurrent
//! imputers, in training and in snapshot inference) are shaped for their
//! operands instead of running a length-1 row kernel per reduction step:
//!
//! * `matmul_into` computes `W·x` as row dot products, and
//!   `Matrix::matvec_acc` continues them over a block of columns from
//!   given accumulators. The AVX2 kernel (`matvec_f64_avx2`/
//!   `matvec_f32_avx2`, dispatched through `Scalar::matvec_avx2`) loads
//!   four rows' next four entries, transposes them in registers (4×4) and
//!   runs one row per vector lane, each lane from its accumulator (`+0.0`
//!   for `matmul_into`) in increasing `k`; up to sixteen rows share each
//!   `x[k]` broadcast. The scalar reference (`RM_SIMD=0`) runs the same dot
//!   products in blocks of 16, 4 and 1 rows.
//! * `matmul_at_b` runs one dispatched axpy per row of the left operand over
//!   the whole output.
//! * The autodiff rank-1 gradient `dW += g·xᵀ` (`Matrix::add_outer`) runs
//!   one dispatched axpy per gradient row.
//!
//! All three keep one multiply and one add per term in the reference order,
//! so the contract below covers them unchanged.
//!
//! One contract for every kernel: **bit-compat**. The AVX2 kernels perform
//! exactly one multiply and one add per element, in index order, on
//! independent elements. IEEE-754 arithmetic is deterministic per element, so
//! the SIMD result is **bit-identical** to the scalar reference at both
//! precisions (`RM_SIMD=0` forces that reference; parity proptests in this
//! module and the determinism suite check the equivalence).
//!
//! The `f64` Adam update (`adam_f64_avx512`, 8 lanes, or `adam_f64_avx2`, 4
//! lanes with FMA; dispatched through `Scalar::adam_update` from
//! [`AdamStep::update`]) is bit-identical to the reference loop
//! (`AdamStep::update_reference`) although it fuses: its only fused
//! operations compute the bias-correction quotients `m/b₁` and `v/b₂` from
//! one reciprocal per call, and two FMA corrections make each quotient
//! exactly `a / b` (Markstein's theorem; the argument and the fallback rule
//! are at `corrected_f64x4`). [`adam_kernel_name`] reports the leg: AVX-512F
//! if the host has it, else AVX2+FMA, else (and under `RM_SIMD=0`, and at
//! `f32`) the reference.
//!
//! `RM_SIMD` is resolved once per process through a cached accessor, the
//! same pattern as `RM_POOL`/`RM_ARENA`.

// rm-lint: hot-path

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

static SIMD_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the explicit-width SIMD kernels are active (default) or disabled
/// via `RM_SIMD=0` (or `off`), which forces the 4-wide unrolled scalar
/// reference path the SIMD kernels are bitwise-checked against. Resolved
/// once per process, like `RM_POOL` and `RM_ARENA`.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn simd_enabled() -> bool {
    *SIMD_ENABLED.get_or_init(|| {
        !matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_SIMD
            std::env::var("RM_SIMD").as_deref(),
            Ok("0") | Ok("off")
        )
    })
}

/// Runtime AVX2 support, detected once per process.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Runtime FMA support, detected once per process.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| is_x86_feature_detected!("fma"))
}

/// Minimum row length for which the consumers dispatch to the arch kernels.
/// Below this there is no vector body to amortise the dispatch, and the
/// 4-wide unrolled scalar reference — which the AVX2 kernels are
/// bit-identical to anyway — inlines into the consumer loop and wins
/// outright. The row length is that of the axpy actually run (for the
/// column-vector `matmul_at_b`, the left operand's width). The choice
/// depends only on the operand shape, so it is deterministic.
pub(crate) const SIMD_MIN_COLS: usize = 16;

/// The row-kernel family the process resolved to, read once per consumer
/// call (not once per row). `Avx2` is only ever produced after the runtime
/// CPU detection succeeded, which is what makes the `unsafe` dispatch into
/// the `#[target_feature]` consumers sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The 4-wide unrolled scalar reference (`RM_SIMD=0`, non-x86_64, or no
    /// AVX2 at runtime).
    Scalar,
    /// Explicit-width AVX2, bit-identical to `Scalar`.
    Avx2,
}

/// The process-wide kernel choice: knobs and CPU detection folded into one
/// cached value, so the hot consumers pay a single atomic load per call.
#[inline]
pub(crate) fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if simd_enabled() && avx2_available() {
                return Kernel::Avx2;
            }
        }
        Kernel::Scalar
    })
}

/// Name of the `axpy_row` kernel the current process dispatches to:
/// `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn simd_kernel_name() -> &'static str {
    match kernel() {
        Kernel::Avx2 => "avx2",
        Kernel::Scalar => "scalar",
    }
}

/// AVX2 `y[j] += a * x[j]` over `f64` slices, 4 lanes per vector, two
/// vectors per main-loop iteration. Each element sees exactly one
/// `_mm256_mul_pd` and one `_mm256_add_pd` — separate roundings, index
/// order — so the result is bit-identical to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f64_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_pd(a);
        let mut i = 0usize;
        while i + 8 <= n {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i + 4))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        if i + 4 <= n {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) += a * *xp.add(i);
            i += 1;
        }
    }
}

/// AVX2 `y[j] += a * x[j]` over `f32` slices, 8 lanes per vector, two
/// vectors per main-loop iteration. Same bit-compat argument as the `f64`
/// kernel: one multiply, one add, index order, independent elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f32_avx2(a: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 16 <= n {
            let y0 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            );
            let y1 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i + 8)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i + 8))),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        if i + 8 <= n {
            let y0 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            *yp.add(i) += a * *xp.add(i);
            i += 1;
        }
    }
}

/// Generates the fused four-row rank-1 update kernels
/// `y[j] += Σ_r a[r] * x[r][j]`: the k-unrolled panel primitive of
/// `matmul_into`. Each element is evaluated as four sequential multiply-adds
/// in `r` order — exactly the arithmetic of four consecutive single-row
/// updates — so the AVX2 instances stay bit-identical to the scalar
/// reference; the win is that each `y` vector is loaded and stored once per
/// four reduction steps instead of once per step.
#[cfg(target_arch = "x86_64")]
macro_rules! axpy_row4_kernels {
    (
        $t:ty, $lanes:expr,
        $set1:ident, $loadu:ident, $storeu:ident, $mul:ident, $add:ident,
        $avx2_name:ident
    ) => {
        /// Fused four-row AVX2 update; bit-identical to four sequential
        /// single-row updates (see the macro doc).
        // SAFETY: the `unsafe fn` contract is AVX2 availability (upheld by
        // the `Kernel::Avx2` dispatch); every pointer is derived from the
        // input slices and offset strictly below `n`, the minimum length.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        #[inline]
        pub(crate) unsafe fn $avx2_name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            use std::arch::x86_64::{$add, $loadu, $mul, $set1, $storeu};
            let n = y
                .len()
                .min(x[0].len())
                .min(x[1].len())
                .min(x[2].len())
                .min(x[3].len());
            let yp = y.as_mut_ptr();
            let xp = [x[0].as_ptr(), x[1].as_ptr(), x[2].as_ptr(), x[3].as_ptr()];
            // SAFETY: all offsets are < n ≤ every slice length; unaligned
            // loads/stores are used throughout, so no alignment precondition.
            unsafe {
                let av = [$set1(a[0]), $set1(a[1]), $set1(a[2]), $set1(a[3])];
                let mut i = 0usize;
                while i + 2 * $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    let mut y1 = $loadu(yp.add(i + $lanes));
                    y0 = $add(y0, $mul(av[0], $loadu(xp[0].add(i))));
                    y1 = $add(y1, $mul(av[0], $loadu(xp[0].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[1], $loadu(xp[1].add(i))));
                    y1 = $add(y1, $mul(av[1], $loadu(xp[1].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[2], $loadu(xp[2].add(i))));
                    y1 = $add(y1, $mul(av[2], $loadu(xp[2].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[3], $loadu(xp[3].add(i))));
                    y1 = $add(y1, $mul(av[3], $loadu(xp[3].add(i + $lanes))));
                    $storeu(yp.add(i), y0);
                    $storeu(yp.add(i + $lanes), y1);
                    i += 2 * $lanes;
                }
                if i + $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    y0 = $add(y0, $mul(av[0], $loadu(xp[0].add(i))));
                    y0 = $add(y0, $mul(av[1], $loadu(xp[1].add(i))));
                    y0 = $add(y0, $mul(av[2], $loadu(xp[2].add(i))));
                    y0 = $add(y0, $mul(av[3], $loadu(xp[3].add(i))));
                    $storeu(yp.add(i), y0);
                    i += $lanes;
                }
                while i < n {
                    let mut v = *yp.add(i);
                    v += a[0] * *xp[0].add(i);
                    v += a[1] * *xp[1].add(i);
                    v += a[2] * *xp[2].add(i);
                    v += a[3] * *xp[3].add(i);
                    *yp.add(i) = v;
                    i += 1;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
axpy_row4_kernels!(
    f64,
    4,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_mul_pd,
    _mm256_add_pd,
    axpy_row4_f64_avx2
);
#[cfg(target_arch = "x86_64")]
axpy_row4_kernels!(
    f32,
    8,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    axpy_row4_f32_avx2
);

/// Generates the AVX2 batch-1 product `out[r] += W[r, ..] · x` for a
/// row-major `W` whose rows start `ld` entries apart (`out.len()` rows of
/// `x.len()` entries from the start of `w`): the column-vector kernel of
/// `matmul_into` and `Matrix::matvec_acc`.
///
/// Rows run in groups of four, one row per vector lane: four rows' next
/// four entries are loaded and transposed in registers (a 4×4 transpose),
/// so lane `r` of the `k`-th transposed vector holds `W[r, k]`, and the
/// group's accumulator — loaded from `out` — gets `acc += col_k · x[k]` for
/// `k` in increasing order. Each lane therefore runs exactly its row's
/// scalar dot product — start at `out[r]`, one multiply and one add per
/// term, increasing `k` — and the result is bit-identical to the scalar
/// blocks of `matvec_acc_into`. Up to four groups (16 rows) share each
/// broadcast of `x[k]` and keep four independent add chains in flight; the
/// last `< 4` rows run the scalar dot product, and the last `< 4` entries
/// of each row a lane-gathered step.
#[cfg(target_arch = "x86_64")]
macro_rules! matvec_kernel {
    (
        $t:ty, $vec:ty, $name:ident, $group:ident,
        $setzero:ident, $set1:ident, $set:ident, $loadu:ident, $storeu:ident,
        $mul:ident, $add:ident, $transpose:path
    ) => {
        /// AVX2 `out += W · x`, bit-identical to the scalar reference (see
        /// the macro doc).
        // SAFETY: the `unsafe fn` contract is AVX2 availability (upheld by
        // the `Kernel::Avx2` dispatch); the length checks below
        // keep every pointer offset inside `w`, `x` and `out`.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(w: &[$t], ld: usize, x: &[$t], out: &mut [$t]) {
            let (k, rows) = (x.len(), out.len());
            if rows == 0 {
                return;
            }
            assert!(k <= ld, "matvec row wider than its stride");
            assert!(w.len() >= (rows - 1) * ld + k, "matvec shape mismatch");
            let (wp, xp, op) = (w.as_ptr(), x.as_ptr(), out.as_mut_ptr());
            let mut r = 0;
            // SAFETY: each call covers rows `r..r + 4·G ≤ rows` of `w` and
            // `out`, every entry index stays below `k ≤ ld`, and AVX2 is the
            // caller's contract.
            unsafe {
                while r + 16 <= rows {
                    $group::<4>(wp.add(r * ld), ld, xp, k, op.add(r));
                    r += 16;
                }
                if r + 8 <= rows {
                    $group::<2>(wp.add(r * ld), ld, xp, k, op.add(r));
                    r += 8;
                }
                if r + 4 <= rows {
                    $group::<1>(wp.add(r * ld), ld, xp, k, op.add(r));
                    r += 4;
                }
            }
            for (i, o) in out.iter_mut().enumerate().skip(r) {
                let row = &w[i * ld..i * ld + k];
                *o = row.iter().zip(x).fold(*o, |acc, (&a, &b)| acc + a * b);
            }
        }

        /// `G` groups of four rows starting at `w` (row stride `ld`, `k`
        /// entries each) added into `out[..4·G]`.
        // SAFETY: the contract is AVX2 plus `w` holding `4·G` rows of
        // `k ≤ ld` entries `ld` apart, `x` `k` entries and `out` `4·G`,
        // all upheld by the caller above.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        #[inline]
        unsafe fn $group<const G: usize>(
            w: *const $t,
            ld: usize,
            x: *const $t,
            k: usize,
            out: *mut $t,
        ) {
            use std::arch::x86_64::{$add, $loadu, $mul, $set, $set1, $setzero, $storeu};
            // SAFETY: every offset is `< (4·G − 1)·ld + k` into `w`, `< k`
            // into `x` and `< 4·G` into `out`, inside the caller's contract;
            // unaligned loads and stores throughout.
            unsafe {
                let mut acc: [$vec; G] = [$setzero(); G];
                for (g, acc) in acc.iter_mut().enumerate() {
                    *acc = $loadu(out.add(4 * g));
                }
                let mut j = 0;
                while j + 4 <= k {
                    let xs = [
                        $set1(*x.add(j)),
                        $set1(*x.add(j + 1)),
                        $set1(*x.add(j + 2)),
                        $set1(*x.add(j + 3)),
                    ];
                    for (g, acc) in acc.iter_mut().enumerate() {
                        let base = w.add(4 * g * ld + j);
                        let cols = $transpose([
                            $loadu(base),
                            $loadu(base.add(ld)),
                            $loadu(base.add(2 * ld)),
                            $loadu(base.add(3 * ld)),
                        ]);
                        for (col, xv) in cols.iter().zip(&xs) {
                            *acc = $add(*acc, $mul(*col, *xv));
                        }
                    }
                    j += 4;
                }
                while j < k {
                    let xv = $set1(*x.add(j));
                    for (g, acc) in acc.iter_mut().enumerate() {
                        let base = w.add(4 * g * ld + j);
                        let col = $set(*base.add(3 * ld), *base.add(2 * ld), *base.add(ld), *base);
                        *acc = $add(*acc, $mul(col, xv));
                    }
                    j += 1;
                }
                for (g, acc) in acc.iter().enumerate() {
                    $storeu(out.add(4 * g), *acc);
                }
            }
        }
    };
}

/// In-register transpose of four rows of four `f64` (`__m256d` each):
/// output `c` holds entry `c` of every row, row 0 in the lowest lane.
// SAFETY: the `unsafe fn` contract is AVX2 availability; register-only
// shuffles, no memory access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn transpose4_f64(r: [std::arch::x86_64::__m256d; 4]) -> [std::arch::x86_64::__m256d; 4] {
    use std::arch::x86_64::{_mm256_permute2f128_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd};
    // [r0₀ r1₀ r0₂ r1₂], [r0₁ r1₁ r0₃ r1₃], and the same for rows 2 and 3.
    let t0 = _mm256_unpacklo_pd(r[0], r[1]);
    let t1 = _mm256_unpackhi_pd(r[0], r[1]);
    let t2 = _mm256_unpacklo_pd(r[2], r[3]);
    let t3 = _mm256_unpackhi_pd(r[2], r[3]);
    [
        _mm256_permute2f128_pd(t0, t2, 0x20),
        _mm256_permute2f128_pd(t1, t3, 0x20),
        _mm256_permute2f128_pd(t0, t2, 0x31),
        _mm256_permute2f128_pd(t1, t3, 0x31),
    ]
}

/// In-register transpose of four rows of four `f32` (`__m128` each), the
/// `f32` counterpart of [`transpose4_f64`].
// SAFETY: the `unsafe fn` contract is AVX2 availability; register-only
// shuffles, no memory access.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn transpose4_f32(r: [std::arch::x86_64::__m128; 4]) -> [std::arch::x86_64::__m128; 4] {
    use std::arch::x86_64::{_mm_movehl_ps, _mm_movelh_ps, _mm_unpackhi_ps, _mm_unpacklo_ps};
    // [r0₀ r1₀ r0₁ r1₁], [r2₀ r3₀ r2₁ r3₁], [r0₂ r1₂ r0₃ r1₃], [r2₂ r3₂ r2₃ r3₃].
    let t0 = _mm_unpacklo_ps(r[0], r[1]);
    let t1 = _mm_unpacklo_ps(r[2], r[3]);
    let t2 = _mm_unpackhi_ps(r[0], r[1]);
    let t3 = _mm_unpackhi_ps(r[2], r[3]);
    [
        _mm_movelh_ps(t0, t1),
        _mm_movehl_ps(t1, t0),
        _mm_movelh_ps(t2, t3),
        _mm_movehl_ps(t3, t2),
    ]
}

#[cfg(target_arch = "x86_64")]
matvec_kernel!(
    f64,
    std::arch::x86_64::__m256d,
    matvec_f64_avx2,
    matvec_group_f64,
    _mm256_setzero_pd,
    _mm256_set1_pd,
    _mm256_set_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_mul_pd,
    _mm256_add_pd,
    transpose4_f64
);
#[cfg(target_arch = "x86_64")]
matvec_kernel!(
    f32,
    std::arch::x86_64::__m128,
    matvec_f32_avx2,
    matvec_group_f32,
    _mm_setzero_ps,
    _mm_set1_ps,
    _mm_set_ps,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_mul_ps,
    _mm_add_ps,
    transpose4_f32
);

/// Non-x86_64 stand-ins for the arch kernels, so the [`Scalar`]
/// (`crate::Scalar`) dispatch hooks link on every target. Off x86_64,
/// [`kernel()`] never resolves past [`Kernel::Scalar`], so these are never
/// reached through dispatch; the bodies just delegate to the scalar
/// reference and the `unsafe` only mirrors the x86_64 signatures.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (delegates to the safe scalar
        // reference); `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(a: $t, x: &[$t], y: &mut [$t]) {
            crate::matrix::axpy_row_scalar(a, x, y)
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f32_avx2, f32);

/// Four-row counterpart of [`scalar_fallback!`]: four sequential scalar row
/// updates, the definitionally bit-identical expansion of the fused kernel.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback4 {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (sequential safe scalar updates);
        // `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            for (ar, xr) in a.iter().zip(x.iter()) {
                crate::matrix::axpy_row_scalar(*ar, xr, y);
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f32_avx2, f32);

/// Batch-1 product counterpart of [`scalar_fallback!`]: the scalar
/// `matvec_acc_into` blocks the AVX2 kernel is bit-identical to.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback_matvec {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (delegates to the safe scalar
        // reference); `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(w: &[$t], ld: usize, x: &[$t], out: &mut [$t]) {
            crate::matrix::matvec_acc_into(w, ld, x, out)
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback_matvec!(matvec_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback_matvec!(matvec_f32_avx2, f32);

/// The per-step constants of one Adam update (Kingma & Ba): what the
/// reference loop and the explicit-width kernel both read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep<T> {
    /// First-moment decay `β₁`.
    pub(crate) beta1: T,
    /// Second-moment decay `β₂`.
    pub(crate) beta2: T,
    /// `1 − β₁`.
    pub(crate) decay1: T,
    /// `1 − β₂`.
    pub(crate) decay2: T,
    /// First-moment bias correction `b₁ = 1 − β₁ᵗ`.
    pub(crate) bias1: T,
    /// Second-moment bias correction `b₂ = 1 − β₂ᵗ`.
    pub(crate) bias2: T,
    /// Learning rate.
    pub(crate) lr: T,
    /// Denominator guard `ε`.
    pub(crate) eps: T,
    /// Gradient clip bound; `+∞` without a clip.
    pub(crate) clip: T,
}

impl<T: crate::Scalar> AdamStep<T> {
    /// The constants of step `t` (1-based).
    pub fn new(beta1: T, beta2: T, eps: T, lr: T, clip: Option<T>, t: u64) -> Self {
        let t = T::from_f64(t as f64);
        Self {
            beta1,
            beta2,
            decay1: T::ONE - beta1,
            decay2: T::ONE - beta2,
            bias1: T::ONE - beta1.powf(t),
            bias2: T::ONE - beta2.powf(t),
            lr,
            eps,
            clip: clip.unwrap_or(T::from_f64(f64::INFINITY)),
        }
    }

    /// Updates one parameter tensor's flat slices `w`, its gradient `g` and
    /// its moments `m`, `v` in place: the explicit-width kernel the host
    /// supports for `f64`, the reference loop otherwise. Bit-identical to
    /// the reference loop either way.
    ///
    /// # Panics
    /// Panics if the four slices differ in length.
    pub fn update(&self, w: &mut [T], g: &[T], m: &mut [T], v: &mut [T]) {
        T::adam_update(self, w, g, m, v);
    }

    /// The reference update, one pass over zipped slices. Per element this
    /// is the textbook update, each operation rounded on its own —
    /// `m = β₁m + (1−β₁)g`, `v = β₂v + ((1−β₂)g)g`,
    /// `w −= (lr·m̂) / (√v̂ + ε)` with `m̂ = m/b₁`, `v̂ = v/b₂` — after the
    /// gradient is clamped to `[−clip, clip]` (a clamp to `[−∞, ∞]` returns
    /// every value, `-0.0` and NaN included, unchanged).
    ///
    /// # Panics
    /// Panics if the four slices differ in length.
    pub(crate) fn update_reference(&self, w: &mut [T], g: &[T], m: &mut [T], v: &mut [T]) {
        check_adam_lengths(w.len(), g.len(), m.len(), v.len());
        let Self {
            beta1,
            beta2,
            decay1,
            decay2,
            bias1,
            bias2,
            lr,
            eps,
            clip,
        } = *self;
        let params = w.iter_mut().zip(g);
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((w, &g), (m, v)) in params.zip(moments) {
            let g = g.clamp(-clip, clip);
            *m = beta1 * *m + decay1 * g;
            *v = beta2 * *v + decay2 * g * g;
            *w -= lr * (*m / bias1) / ((*v / bias2).sqrt() + eps);
        }
    }
}

fn check_adam_lengths(w: usize, g: usize, m: usize, v: usize) {
    assert!(
        w == g && w == m && w == v,
        "Adam slices differ in length: w {w}, g {g}, m {m}, v {v}"
    );
}

/// The Adam update leg the process resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdamLeg {
    /// The reference loop (`RM_SIMD=0`, no AVX2+FMA at runtime, non-x86_64).
    Scalar,
    /// 4 lanes of AVX2 with FMA.
    Avx2Fma,
    /// 8 lanes of AVX-512F.
    Avx512,
}

impl AdamLeg {
    /// Whether this host can run the leg.
    fn available(self) -> bool {
        match self {
            AdamLeg::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            AdamLeg::Avx2Fma => avx2_available() && fma_available(),
            #[cfg(target_arch = "x86_64")]
            AdamLeg::Avx512 => avx512f_available(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Runtime AVX-512F support, detected once per process.
#[cfg(target_arch = "x86_64")]
fn avx512f_available() -> bool {
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

/// The widest Adam leg the host runs, unless `RM_SIMD=0`. The kernel's fused
/// operations leave every result bit unchanged.
pub(crate) fn adam_leg() -> AdamLeg {
    static LEG: OnceLock<AdamLeg> = OnceLock::new();
    *LEG.get_or_init(|| {
        if !simd_enabled() {
            return AdamLeg::Scalar;
        }
        [AdamLeg::Avx512, AdamLeg::Avx2Fma]
            .into_iter()
            .find(|leg| leg.available())
            .unwrap_or(AdamLeg::Scalar)
    })
}

/// Name of the Adam update leg the current process runs for `f64`:
/// `"avx512f"`, `"avx2+fma"` or `"scalar"`. For bench labels and reports.
pub fn adam_kernel_name() -> &'static str {
    match adam_leg() {
        AdamLeg::Avx512 => "avx512f",
        AdamLeg::Avx2Fma => "avx2+fma",
        AdamLeg::Scalar => "scalar",
    }
}

/// Smallest divisor the corrected quotients accept, `2⁻²⁰`.
const ADAM_MIN_BIAS: f64 = 1.0 / (1u64 << 20) as f64;
/// Numerator magnitudes the corrected quotients accept (zero aside):
/// `[2⁻⁹⁰⁰, 2⁹⁰⁰]`, far from underflow and overflow in every step.
#[cfg(target_arch = "x86_64")]
const ADAM_NUM_RANGE: (f64, f64) = (
    f64::from_bits((1023 - 900) << 52),
    f64::from_bits((1023 + 900) << 52),
);

/// The `f64` instance of the `Scalar::adam_update` hook.
pub(crate) fn adam_update_f64(
    step: &AdamStep<f64>,
    w: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    adam_update_f64_on(adam_leg(), step, w, g, m, v);
}

/// One `f64` Adam update on `leg`. A step whose bias corrections leave
/// `[2⁻²⁰, 1]`, or whose clip is no valid range, runs the reference.
///
/// # Panics
/// Panics if the host cannot run `leg` or the slices differ in length.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
fn adam_update_f64_on(
    leg: AdamLeg,
    step: &AdamStep<f64>,
    w: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    assert!(
        leg.available(),
        "Adam leg {leg:?} is not available on this host"
    );
    check_adam_lengths(w.len(), g.len(), m.len(), v.len());
    let divisors = ADAM_MIN_BIAS..=1.0;
    // A clip below zero (or NaN) is no range: the reference's `clamp` panics.
    let in_domain =
        divisors.contains(&step.bias1) && divisors.contains(&step.bias2) && step.clip >= 0.0;
    if !in_domain {
        return step.update_reference(w, g, m, v);
    }
    match leg {
        // SAFETY: `leg.available()` asserted the CPU features above, and the
        // four slices have one length.
        #[cfg(target_arch = "x86_64")]
        AdamLeg::Avx512 => unsafe { adam_f64_avx512(step, w, g, m, v) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        AdamLeg::Avx2Fma => unsafe { adam_f64_avx2(step, w, g, m, v) },
        _ => step.update_reference(w, g, m, v),
    }
}

// The explicit-width legs of the `f64` Adam update.
//
// The update runs the reference's operations in its order, each rounded on
// its own, except the bias-correction quotients `m/b₁` and `v/b₂`. Those use
// one reciprocal `y = RN(1/b)` per call and, per element, `q = a·y` followed
// by two corrections `q ← q + (a − b·q)·y`, each one fused `fnmadd`/`fmadd`
// pair. After the first correction `q` is within one ulp of `a/b`, so the
// second residual `a − b·q` is exact, and Markstein's theorem (P. Markstein,
// "Computation of elementary functions on the IBM RISC System/6000
// processor", IBM J. Res. Dev. 34(1), 1990) makes `RN(q + r·y)` equal
// `RN(a/b)`: the bits of `a / b`. That needs `b` in `[2⁻²⁰, 1]` (checked per
// call) and `a` far from underflow and overflow: a lane with `a = ±0` takes
// `a`, which is exact, and a vector holding a non-finite lane or a lane with
// `|a|` outside `[2⁻⁹⁰⁰, 2⁹⁰⁰]` is divided by the hardware instead. The
// square root and `(lr·m̂)/(√v̂ + ε)` stay on the divider.

/// `q = a·y`, then `q ← RN(q + (a − b·q)·y)` twice: the corrected quotient,
/// 4 lanes.
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
unsafe fn corrected_f64x4(a: __m256d, b: __m256d, y: __m256d) -> __m256d {
    let q = _mm256_mul_pd(a, y);
    let q = _mm256_fmadd_pd(_mm256_fnmadd_pd(b, q, a), y, q);
    _mm256_fmadd_pd(_mm256_fnmadd_pd(b, q, a), y, q)
}

/// `a / b`, bit for bit, 4 lanes: the corrected quotient, `a` in zero
/// lanes, the hardware division if any other lane is out of range.
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
unsafe fn quotient_f64x4(a: __m256d, b: __m256d, y: __m256d) -> __m256d {
    let (lo, hi) = ADAM_NUM_RANGE;
    let zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(a, _mm256_setzero_pd());
    let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    let in_range = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(abs, _mm256_set1_pd(lo)),
        _mm256_cmp_pd::<_CMP_LE_OQ>(abs, _mm256_set1_pd(hi)),
    );
    if _mm256_movemask_pd(_mm256_or_pd(zero, in_range)) != 0b1111 {
        return _mm256_div_pd(a, b);
    }
    // SAFETY: AVX2+FMA is this function's own contract.
    _mm256_blendv_pd(unsafe { corrected_f64x4(a, b, y) }, a, zero)
}

/// [`corrected_f64x4`] at 8 lanes.
// SAFETY: the `unsafe fn` contract is AVX-512F availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
#[inline]
unsafe fn corrected_f64x8(a: __m512d, b: __m512d, y: __m512d) -> __m512d {
    let q = _mm512_mul_pd(a, y);
    let q = _mm512_fmadd_pd(_mm512_fnmadd_pd(b, q, a), y, q);
    _mm512_fmadd_pd(_mm512_fnmadd_pd(b, q, a), y, q)
}

/// [`quotient_f64x4`] at 8 lanes.
// SAFETY: the `unsafe fn` contract is AVX-512F availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
#[inline]
unsafe fn quotient_f64x8(a: __m512d, b: __m512d, y: __m512d) -> __m512d {
    let (lo, hi) = ADAM_NUM_RANGE;
    let zero = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(a, _mm512_setzero_pd());
    let abs = _mm512_abs_pd(a);
    let in_range = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(abs, _mm512_set1_pd(lo))
        & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(abs, _mm512_set1_pd(hi));
    if zero | in_range != 0xff {
        return _mm512_div_pd(a, b);
    }
    // SAFETY: AVX-512F is this function's own contract.
    _mm512_mask_blend_pd(zero, unsafe { corrected_f64x8(a, b, y) }, a)
}

/// Generates one leg's `f64` Adam update loop over full vectors; the
/// `< lanes` tail runs the reference.
#[cfg(target_arch = "x86_64")]
macro_rules! adam_kernel {
    (
        $features:literal, $lanes:expr, $name:ident, $quotient:ident,
        $set1:ident, $loadu:ident, $storeu:ident, $add:ident, $sub:ident, $mul:ident,
        $div:ident, $sqrt:ident, $min:ident, $max:ident
    ) => {
        /// One `f64` Adam update, bit-identical to the reference (see the
        /// comment above [`corrected_f64x4`]).
        // SAFETY: the `unsafe fn` contract is the target features and four
        // slices of one length (asserted by `adam_update_f64_on`); every
        // pointer offset stays below that length.
        #[target_feature(enable = $features)]
        #[allow(unsafe_code)]
        unsafe fn $name(s: &AdamStep<f64>, w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
            let n = w.len();
            let (wp, gp, mp, vp) = (w.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
            let (beta1, beta2) = ($set1(s.beta1), $set1(s.beta2));
            let (decay1, decay2) = ($set1(s.decay1), $set1(s.decay2));
            let (bias1, bias2) = ($set1(s.bias1), $set1(s.bias2));
            let (recip1, recip2) = ($set1(1.0 / s.bias1), $set1(1.0 / s.bias2));
            let (lr, eps) = ($set1(s.lr), $set1(s.eps));
            let (lo, hi) = ($set1(-s.clip), $set1(s.clip));
            let mut i = 0;
            // SAFETY: `i + $lanes ≤ n`, the length of all four slices;
            // unaligned loads and stores throughout; the target features are
            // this function's own contract.
            unsafe {
                while i + $lanes <= n {
                    // `max(lo, x)` is `x < lo ? lo : x` and `min(hi, x)` is
                    // `x > hi ? hi : x`, NaN kept: `f64::clamp`.
                    let g = $min(hi, $max(lo, $loadu(gp.add(i))));
                    let m = $add($mul(beta1, $loadu(mp.add(i))), $mul(decay1, g));
                    let v = $add($mul(beta2, $loadu(vp.add(i))), $mul($mul(decay2, g), g));
                    $storeu(mp.add(i), m);
                    $storeu(vp.add(i), v);
                    let m_hat = $quotient(m, bias1, recip1);
                    let v_hat = $quotient(v, bias2, recip2);
                    let delta = $div($mul(lr, m_hat), $add($sqrt(v_hat), eps));
                    $storeu(wp.add(i), $sub($loadu(wp.add(i)), delta));
                    i += $lanes;
                }
            }
            s.update_reference(&mut w[i..], &g[i..], &mut m[i..], &mut v[i..]);
        }
    };
}

#[cfg(target_arch = "x86_64")]
adam_kernel!(
    "avx2,fma",
    4,
    adam_f64_avx2,
    quotient_f64x4,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd,
    _mm256_div_pd,
    _mm256_sqrt_pd,
    _mm256_min_pd,
    _mm256_max_pd
);
#[cfg(target_arch = "x86_64")]
adam_kernel!(
    "avx512f",
    8,
    adam_f64_avx512,
    quotient_f64x8,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_add_pd,
    _mm512_sub_pd,
    _mm512_mul_pd,
    _mm512_div_pd,
    _mm512_sqrt_pd,
    _mm512_min_pd,
    _mm512_max_pd
);

#[cfg(test)]
mod tests {
    #![allow(unsafe_code)] // tests call the kernels directly, guarded by the same detection

    use super::*;
    use crate::matrix::axpy_row_scalar;

    /// Deterministic pseudo-random values without consuming an RNG stream:
    /// a splitmix-style hash of the index, mapped into `[-1, 1]`.
    fn val(i: u64) -> f64 {
        let mut z = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x243f_6a88_85a3_08d3);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    #[test]
    fn kernel_name_is_consistent_with_the_knobs() {
        let name = simd_kernel_name();
        if !simd_enabled() {
            assert_eq!(name, "scalar");
        } else {
            assert!(["scalar", "avx2"].contains(&name));
        }
        let adam = adam_kernel_name();
        if !simd_enabled() {
            assert_eq!(adam, "scalar");
        } else {
            assert!(["scalar", "avx2+fma", "avx512f"].contains(&adam));
        }
    }

    /// The AVX2 kernels are bit-identical to the scalar reference at every
    /// length (vector body, single-vector tail and scalar remainder) and at
    /// both precisions — the contract `matmul_into`/`matmul_at_b`/`axpy`
    /// inherit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_are_bit_identical_to_the_scalar_reference() {
        if !avx2_available() {
            return;
        }
        for n in 0..70usize {
            let a64 = val(9_000 + n as u64);
            let x64: Vec<f64> = (0..n).map(|j| val(j as u64)).collect();
            let base64: Vec<f64> = (0..n).map(|j| val(1_000 + j as u64)).collect();
            let mut simd_y = base64.clone();
            let mut scalar_y = base64.clone();
            // SAFETY: avx2_available() was checked at the top of the test.
            unsafe { axpy_row_f64_avx2(a64, &x64, &mut simd_y) };
            axpy_row_scalar(a64, &x64, &mut scalar_y);
            for (s, r) in simd_y.iter().zip(&scalar_y) {
                assert_eq!(s.to_bits(), r.to_bits(), "f64 mismatch at n={n}");
            }

            let a32 = a64 as f32;
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            let base32: Vec<f32> = base64.iter().map(|&v| v as f32).collect();
            let mut simd_y = base32.clone();
            let mut scalar_y = base32;
            // SAFETY: avx2_available() was checked at the top of the test.
            unsafe { axpy_row_f32_avx2(a32, &x32, &mut simd_y) };
            axpy_row_scalar(a32, &x32, &mut scalar_y);
            for (s, r) in simd_y.iter().zip(&scalar_y) {
                assert_eq!(s.to_bits(), r.to_bits(), "f32 mismatch at n={n}");
            }
        }
    }

    /// Entry `i` of a matvec operand: smooth values, with `±0.0`,
    /// subnormals, `±∞` and NaN mixed in at a rate of about `7 / special`
    /// (none for `special == 0`).
    fn edge_value(i: u64, special: u64) -> f64 {
        let h = val(i.wrapping_mul(7919) ^ special);
        if special == 0 {
            return h * 3.0;
        }
        match ((h + 1.0) * 1e6) as u64 % special {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324 * (h * 1e3).round(),
            3 => -2.5e-310,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::NAN,
            _ => h * 3.0,
        }
    }

    /// Bit-identical, except that NaN only has to meet NaN: IEEE-754 does
    /// not fix which operand's payload a NaN result carries.
    fn same_bits<T: crate::Scalar>(a: &[T], b: &[T]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(&x, &y)| {
                x.to_bits_u64() == y.to_bits_u64() || (x.to_f64().is_nan() && y.to_f64().is_nan())
            })
    }

    mod matvec_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The AVX2 `W·x` ≡ the scalar `matvec_acc_into` reference at both
            /// precisions, on ragged shapes (rows below 4 and off the 4- and
            /// 16-row blocks, columns below 4 and off the 4-wide transpose)
            /// and with `±0.0`, subnormal, `±∞` and NaN entries.
            #[cfg(target_arch = "x86_64")]
            #[test]
            fn avx2_matvec_is_bit_identical_to_the_scalar_reference(
                rows in 0usize..40,
                cols in 0usize..40,
                seed in any::<u64>(),
                rate in 0usize..4,
            ) {
                if !avx2_available() {
                    return Ok(());
                }
                let special = [0, 8, 16, 64][rate];
                let w: Vec<f64> = (0..rows * cols)
                    .map(|i| edge_value(seed ^ i as u64, special))
                    .collect();
                let x: Vec<f64> = (0..cols)
                    .map(|i| edge_value(!seed ^ i as u64, special))
                    .collect();
                // Continue from signed-zero or smooth accumulators over a
                // column block `start..start + k` of the rows.
                let start = if rows == 0 { 0 } else { cols.min(seed as usize % 3) };
                let k = cols - start;
                let acc: Vec<f64> = (0..rows)
                    .map(|i| edge_value(seed.rotate_left(7) ^ i as u64, special.min(4)))
                    .collect();
                let mut simd = acc.clone();
                let mut scalar = acc.clone();
                // SAFETY: avx2_available() was checked above.
                unsafe { matvec_f64_avx2(&w[start..], cols, &x[..k], &mut simd) };
                crate::matrix::matvec_acc_into(&w[start..], cols, &x[..k], &mut scalar);
                prop_assert!(same_bits(&simd, &scalar), "f64 {rows}x{cols} from {start}");

                let w32: Vec<f32> = w.iter().map(|&v| v as f32).collect();
                let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                let mut simd: Vec<f32> = acc.iter().map(|&v| v as f32).collect();
                let mut scalar = simd.clone();
                // SAFETY: avx2_available() was checked above.
                unsafe { matvec_f32_avx2(&w32[start..], cols, &x32[..k], &mut simd) };
                crate::matrix::matvec_acc_into(&w32[start..], cols, &x32[..k], &mut scalar);
                prop_assert!(same_bits(&simd, &scalar), "f32 {rows}x{cols} from {start}");
            }
        }
    }

    /// The Adam legs this host runs, widest first.
    fn host_adam_legs() -> Vec<AdamLeg> {
        [AdamLeg::Avx512, AdamLeg::Avx2Fma]
            .into_iter()
            .filter(|leg| leg.available())
            .collect()
    }

    /// `a[i] / b` through `leg`'s guarded quotient, or its bare corrected
    /// quotient if `raw`, one full vector at a time (a ragged end is padded
    /// with `1.0`).
    #[cfg(target_arch = "x86_64")]
    fn leg_quotients(leg: AdamLeg, a: &[f64], b: f64, raw: bool) -> Vec<f64> {
        assert!(leg.available());
        let lanes = if leg == AdamLeg::Avx512 { 8 } else { 4 };
        let y = 1.0 / b;
        let mut out = Vec::with_capacity(a.len());
        for chunk in a.chunks(lanes) {
            let mut lane = [1.0f64; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            let mut q = [0.0f64; 8];
            // SAFETY: the leg's CPU features were checked above; both arrays
            // hold 8 lanes.
            unsafe {
                if leg == AdamLeg::Avx512 {
                    let (a, b, y) = (
                        _mm512_loadu_pd(lane.as_ptr()),
                        _mm512_set1_pd(b),
                        _mm512_set1_pd(y),
                    );
                    let r = if raw {
                        corrected_f64x8(a, b, y)
                    } else {
                        quotient_f64x8(a, b, y)
                    };
                    _mm512_storeu_pd(q.as_mut_ptr(), r);
                } else {
                    let (a, b, y) = (
                        _mm256_loadu_pd(lane.as_ptr()),
                        _mm256_set1_pd(b),
                        _mm256_set1_pd(y),
                    );
                    let r = if raw {
                        corrected_f64x4(a, b, y)
                    } else {
                        quotient_f64x4(a, b, y)
                    };
                    _mm256_storeu_pd(q.as_mut_ptr(), r);
                }
            }
            out.extend_from_slice(&q[..chunk.len()]);
        }
        out
    }

    /// Checks `leg_quotients` against `a / b` for every divisor: the bare
    /// corrected quotient on the numerators inside the kernel's range, the
    /// guarded one on all of them.
    #[cfg(target_arch = "x86_64")]
    fn assert_exact_quotients(leg: AdamLeg, numerators: &[f64], divisors: &[f64]) {
        let (lo, hi) = ADAM_NUM_RANGE;
        let in_range: Vec<f64> = numerators
            .iter()
            .copied()
            .filter(|a| (lo..=hi).contains(&a.abs()))
            .collect();
        for &b in divisors {
            for (set, raw) in [(&in_range[..], true), (numerators, false)] {
                let want: Vec<f64> = set.iter().map(|&a| a / b).collect();
                let got = leg_quotients(leg, set, b, raw);
                for ((a, g), w) in set.iter().zip(&got).zip(&want) {
                    assert!(
                        same_bits(&[*g], &[*w]),
                        "{leg:?} raw={raw}: {a:e} / {b:e} gave {g:e}, want {w:e}"
                    );
                }
            }
        }
    }

    /// `2^e`, and the largest value of that binade (mantissa all ones).
    fn binade_ends(e: i32) -> [f64; 2] {
        let bits = ((e + 1023) as u64) << 52;
        [f64::from_bits(bits), f64::from_bits(bits | ((1 << 52) - 1))]
    }

    /// The corrected quotients equal `a / b` bit for bit on each leg the
    /// host runs: every bias correction `Adam::step` divides by in its first
    /// 20 000 steps, random divisors in `[2⁻²⁰, 1]`, numerators at both
    /// ends of every binade, and zeros, subnormals, the range edges `2^±900`
    /// one ulp either side, `±∞` and NaN (NaN only has to meet NaN).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn corrected_quotients_equal_the_hardware_division() {
        let legs = host_adam_legs();
        if legs.is_empty() {
            return;
        }
        let mut step_divisors: Vec<f64> = (1..=20_000u64)
            .flat_map(|t| {
                let step = AdamStep::new(0.9, 0.999, 1e-8, 1e-3, None, t);
                [step.bias1, step.bias2]
            })
            .collect();
        step_divisors.sort_by(f64::total_cmp);
        step_divisors.dedup();
        assert!((ADAM_MIN_BIAS..=1.0).contains(&step_divisors[0]));
        // Random divisors, one binade at a time, plus each binade's ends:
        // `2^e` and the all-ones mantissa.
        let mut divisors: Vec<f64> = (-20..0).flat_map(binade_ends).collect();
        divisors.push(1.0);
        divisors.extend((0..2_000u64).map(|i| {
            let e = -20 + (i % 20) as i32;
            let mantissa = (val(31 * i).to_bits() ^ val(i + 7).to_bits()) & ((1 << 52) - 1);
            f64::from_bits(binade_ends(e)[0].to_bits() | mantissa)
        }));
        assert!(divisors.iter().all(|b| (ADAM_MIN_BIAS..=1.0).contains(b)));

        // Moment-like numerators: values of magnitude 1e-12..1e2, both signs.
        let moments: Vec<f64> = (0..32u64)
            .map(|i| val(i + 40) * 10f64.powi(2 - (i % 15) as i32))
            .collect();
        let binades: Vec<f64> = (-1022..=1023)
            .flat_map(binade_ends)
            .flat_map(|a| [a, -a])
            .collect();
        let two = |e: i32| binade_ends(e)[0];
        let mut specials = vec![0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310];
        specials.push(f64::MIN_POSITIVE.next_down());
        for edge in [two(900), two(-900)] {
            specials.extend([edge.next_down(), edge, edge.next_up()]);
        }
        specials.extend([f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let negated: Vec<f64> = specials.iter().map(|a| -a).collect();
        specials.extend(negated);
        // Specials alone, and mixed into vectors of in-range values.
        let mixed: Vec<f64> = specials
            .iter()
            .zip(&moments)
            .flat_map(|(&s, &m)| [m, s, m])
            .collect();

        for leg in legs {
            assert_exact_quotients(leg, &moments, &step_divisors);
            assert_exact_quotients(leg, &moments, &divisors);
            assert_exact_quotients(leg, &binades, &step_divisors[..40]);
            assert_exact_quotients(leg, &binades, &divisors[..60]);
            for set in [&specials, &mixed] {
                assert_exact_quotients(leg, set, &step_divisors[..40]);
                assert_exact_quotients(leg, set, &divisors);
            }
        }
    }

    mod adam_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Each Adam leg the host runs ≡ the reference loop, bit for bit
            /// on `w`, `m` and `v`: every tail length, with and without a
            /// clip, gradients holding `±0`, subnormals, `±∞` and NaN, and
            /// step counts from the first to one where `b₁` and `b₂` are
            /// exactly `1.0`.
            #[test]
            fn adam_legs_are_bit_identical_to_the_reference(
                len in 0usize..=40,
                seed in any::<u64>(),
                rate in 0usize..4,
                clip in any::<bool>(),
                t in 0usize..6,
            ) {
                let t = [1, 2, 3, 10, 400, 100_000][t];
                let step = AdamStep::new(0.9, 0.999, 1e-8, 1e-3, clip.then_some(5.0), t);
                let special = [0, 8, 16, 64][rate];
                let values = |salt: u64, special: u64, scale: f64| -> Vec<f64> {
                    (0..len as u64)
                        .map(|i| scale * edge_value(seed.rotate_left(salt as u32) ^ i, special))
                        .collect()
                };
                let g = values(0, special, 3.0);
                let w = values(17, 0, 1.0);
                // Fresh moments at the first step, as `Adam` starts them.
                let (m, v) = if t == 1 {
                    (vec![0.0; len], vec![0.0; len])
                } else {
                    let v = values(43, special, 0.01).iter().map(|x| x.abs()).collect();
                    (values(29, special, 0.1), v)
                };
                let (mut want_w, mut want_m, mut want_v) = (w.clone(), m.clone(), v.clone());
                step.update_reference(&mut want_w, &g, &mut want_m, &mut want_v);
                for leg in host_adam_legs() {
                    let (mut got_w, mut got_m, mut got_v) = (w.clone(), m.clone(), v.clone());
                    adam_update_f64_on(leg, &step, &mut got_w, &g, &mut got_m, &mut got_v);
                    prop_assert!(same_bits(&got_w, &want_w), "{leg:?} w, len {len}, t {t}");
                    prop_assert!(same_bits(&got_m, &want_m), "{leg:?} m, len {len}, t {t}");
                    prop_assert!(same_bits(&got_v, &want_v), "{leg:?} v, len {len}, t {t}");
                }
            }
        }
    }
}
