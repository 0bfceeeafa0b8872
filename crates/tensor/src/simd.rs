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
//! (`matmul_into`/`matmul_at_b`/`axpy`) reads the process-wide [`kernel()`]
//! choice **once per call** and then runs its entire blocked loop inside a
//! `#[target_feature]` context, so the row kernel inlines and no per-row
//! call or detection cost remains. Rows narrower than [`SIMD_MIN_COLS`]
//! keep the inlined scalar reference outright — bit-identical anyway, and
//! faster when there is no vector body to amortise the dispatch.
//!
//! Column-vector products (`n = 1`: every batch-1 layer of the recurrent
//! imputers, in training and in snapshot inference) are shaped for their
//! operands instead of running a length-1 row kernel per reduction step:
//!
//! * `matmul_into` computes `W·x` as row dot products. The AVX2 kernel
//!   (`matvec_f64_avx2`/`matvec_f32_avx2`, dispatched through
//!   `Scalar::matvec_avx2`) loads four rows' next four entries, transposes
//!   them in registers (4×4) and runs one row per vector lane, each lane
//!   from `+0.0` in increasing `k`; up to sixteen rows share each `x[k]`
//!   broadcast. The scalar reference (`RM_SIMD=0`) runs the same dot
//!   products in blocks of 16, 4 and 1 rows.
//! * `matmul_at_b` runs one dispatched axpy per row of the left operand over
//!   the whole output.
//! * The autodiff rank-1 gradient `dW += g·xᵀ` (`Matrix::add_outer`) runs
//!   one dispatched axpy per gradient row.
//!
//! All three keep one multiply and one add per term in the reference order,
//! so the contracts below cover them unchanged; the dot kernel never fuses,
//! so it is bit-identical even under `RM_FMA=1`.
//!
//! Two contracts, one per kernel family:
//!
//! * **Bit-compat (default)** — the AVX2 kernels perform exactly one
//!   multiply and one add per element, in index order, on independent
//!   elements. IEEE-754 arithmetic is deterministic per element, so the SIMD
//!   result is **bit-identical** to the scalar reference at both precisions
//!   (`RM_SIMD=0` forces that reference; parity proptests in this module and
//!   the determinism suite check the equivalence).
//! * **Epsilon (opt-in)** — `RM_FMA=1` swaps in fused-multiply-add variants
//!   for the serving path. Fusing drops the intermediate rounding, so FMA
//!   results are *not* bit-compatible with the reference — only
//!   epsilon-close (proptest-bounded below). Never enable it where the
//!   cross-PR bitwise contract matters.
//!
//! `RM_SIMD` / `RM_FMA` are resolved once per process through cached
//! accessors, the same pattern as `RM_POOL`/`RM_ARENA`.

// rm-lint: hot-path

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

static FMA_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the fused-multiply-add kernel variants are active (`RM_FMA=1` or
/// `on`; **default off**). FMA fuses the multiply and add into one rounding,
/// so it is faster but *not* bit-compatible with the scalar reference — only
/// epsilon-close. Reserve it for the serving path, where the determinism
/// contract is per-process, not cross-configuration. Resolved once per
/// process.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn fma_enabled() -> bool {
    *FMA_ENABLED.get_or_init(|| {
        matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_FMA
            std::env::var("RM_FMA").as_deref(),
            Ok("1") | Ok("on")
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
/// call (not once per row). `Avx2`/`Fma` are only ever produced after the
/// matching runtime CPU detection succeeded, which is what makes the
/// `unsafe` dispatch into the `#[target_feature]` consumers sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The 4-wide unrolled scalar reference (`RM_SIMD=0`, non-x86_64, or no
    /// AVX2 at runtime).
    Scalar,
    /// Explicit-width AVX2, bit-identical to `Scalar`.
    Avx2,
    /// AVX2 + fused multiply-add (`RM_FMA=1` opt-in), epsilon-checked only.
    Fma,
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
                if fma_enabled() && fma_available() {
                    return Kernel::Fma;
                }
                return Kernel::Avx2;
            }
        }
        Kernel::Scalar
    })
}

/// Name of the `axpy_row` kernel the current process dispatches to:
/// `"avx2+fma"`, `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn simd_kernel_name() -> &'static str {
    match kernel() {
        Kernel::Fma => "avx2+fma",
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

/// AVX2+FMA `y[j] = fma(a, x[j], y[j])` over `f64` slices. One fused
/// rounding per element — **not** bit-compatible with the scalar reference;
/// epsilon-checked only (`RM_FMA=1` opt-in).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f64_fma(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd};
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
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                av,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        if i + 4 <= n {
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) = a.mul_add(*xp.add(i), *yp.add(i));
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

/// AVX2+FMA `y[j] = fma(a, x[j], y[j])` over `f32` slices. Epsilon-checked
/// only, like the `f64` FMA variant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f32_fma(a: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps};
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
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        if i + 8 <= n {
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            *yp.add(i) = a.mul_add(*xp.add(i), *yp.add(i));
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
/// four reduction steps instead of once per step. The FMA instances fuse
/// each step's rounding (`RM_FMA=1` opt-in, epsilon contract).
#[cfg(target_arch = "x86_64")]
macro_rules! axpy_row4_kernels {
    (
        $t:ty, $lanes:expr,
        $set1:ident, $loadu:ident, $storeu:ident, $mul:ident, $add:ident, $fmadd:ident,
        $avx2_name:ident, $fma_name:ident
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

        /// Fused four-row AVX2+FMA update (`RM_FMA=1` opt-in; one rounding
        /// per step, epsilon contract).
        // SAFETY: the `unsafe fn` contract is AVX2+FMA availability (upheld
        // by the `Kernel::Fma` dispatch); same in-bounds pointer argument as
        // the AVX2 instance.
        #[target_feature(enable = "avx2,fma")]
        #[allow(unsafe_code)]
        #[inline]
        pub(crate) unsafe fn $fma_name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            use std::arch::x86_64::{$fmadd, $loadu, $set1, $storeu};
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
                    y0 = $fmadd(av[0], $loadu(xp[0].add(i)), y0);
                    y1 = $fmadd(av[0], $loadu(xp[0].add(i + $lanes)), y1);
                    y0 = $fmadd(av[1], $loadu(xp[1].add(i)), y0);
                    y1 = $fmadd(av[1], $loadu(xp[1].add(i + $lanes)), y1);
                    y0 = $fmadd(av[2], $loadu(xp[2].add(i)), y0);
                    y1 = $fmadd(av[2], $loadu(xp[2].add(i + $lanes)), y1);
                    y0 = $fmadd(av[3], $loadu(xp[3].add(i)), y0);
                    y1 = $fmadd(av[3], $loadu(xp[3].add(i + $lanes)), y1);
                    $storeu(yp.add(i), y0);
                    $storeu(yp.add(i + $lanes), y1);
                    i += 2 * $lanes;
                }
                if i + $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    y0 = $fmadd(av[0], $loadu(xp[0].add(i)), y0);
                    y0 = $fmadd(av[1], $loadu(xp[1].add(i)), y0);
                    y0 = $fmadd(av[2], $loadu(xp[2].add(i)), y0);
                    y0 = $fmadd(av[3], $loadu(xp[3].add(i)), y0);
                    $storeu(yp.add(i), y0);
                    i += $lanes;
                }
                while i < n {
                    let mut v = *yp.add(i);
                    v = a[0].mul_add(*xp[0].add(i), v);
                    v = a[1].mul_add(*xp[1].add(i), v);
                    v = a[2].mul_add(*xp[2].add(i), v);
                    v = a[3].mul_add(*xp[3].add(i), v);
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
    _mm256_fmadd_pd,
    axpy_row4_f64_avx2,
    axpy_row4_f64_fma
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
    _mm256_fmadd_ps,
    axpy_row4_f32_avx2,
    axpy_row4_f32_fma
);

/// Generates the AVX2 batch-1 product `out = W · x` for a row-major `W`
/// (`out.len()` rows of `x.len()` entries): the column-vector kernel of
/// `matmul_into`.
///
/// Rows run in groups of four, one row per vector lane: four rows' next
/// four entries are loaded and transposed in registers (a 4×4 transpose),
/// so lane `r` of the `k`-th transposed vector holds `W[r, k]`, and the
/// group's accumulator gets `acc += col_k · x[k]` for `k` in increasing
/// order. Each lane therefore runs exactly its row's scalar dot product —
/// start at `+0.0`, one multiply and one add per term, increasing `k` — and
/// the result is bit-identical to the scalar blocks of `matvec_into`. Up to
/// four groups (16 rows) share each broadcast of `x[k]` and keep four
/// independent add chains in flight; the last `< 4` rows run the scalar dot
/// product, and the last `< 4` entries of each row a lane-gathered step.
#[cfg(target_arch = "x86_64")]
macro_rules! matvec_kernel {
    (
        $t:ty, $vec:ty, $name:ident, $group:ident,
        $setzero:ident, $set1:ident, $set:ident, $loadu:ident, $storeu:ident,
        $mul:ident, $add:ident, $transpose:path
    ) => {
        /// AVX2 `out = W · x`, bit-identical to the scalar reference (see the
        /// macro doc).
        // SAFETY: the `unsafe fn` contract is AVX2 availability (upheld by
        // the `Kernel::Avx2`/`Kernel::Fma` dispatch); the length check below
        // keeps every pointer offset inside `w`, `x` and `out`.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(w: &[$t], x: &[$t], out: &mut [$t]) {
            let (k, rows) = (x.len(), out.len());
            assert_eq!(w.len(), rows * k, "matvec shape mismatch");
            let (wp, xp, op) = (w.as_ptr(), x.as_ptr(), out.as_mut_ptr());
            let mut r = 0;
            // SAFETY: each call covers rows `r..r + 4·G ≤ rows` of `w` and
            // `out`, every entry index stays below `k`, and AVX2 is the
            // caller's contract.
            unsafe {
                while r + 16 <= rows {
                    $group::<4>(wp.add(r * k), xp, k, op.add(r));
                    r += 16;
                }
                if r + 8 <= rows {
                    $group::<2>(wp.add(r * k), xp, k, op.add(r));
                    r += 8;
                }
                if r + 4 <= rows {
                    $group::<1>(wp.add(r * k), xp, k, op.add(r));
                    r += 4;
                }
            }
            for (i, o) in out.iter_mut().enumerate().skip(r) {
                let row = &w[i * k..(i + 1) * k];
                *o = row.iter().zip(x).fold(0.0, |acc, (&a, &b)| acc + a * b);
            }
        }

        /// `G` groups of four rows starting at `w` (row stride `k`) into
        /// `out[..4·G]`.
        // SAFETY: the `unsafe fn` contract is AVX2 availability plus
        // `w` holding `4·G` rows of `k` entries, `x` holding `k` entries and
        // `out` holding `4·G` entries, all upheld by the caller above.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        #[inline]
        unsafe fn $group<const G: usize>(w: *const $t, x: *const $t, k: usize, out: *mut $t) {
            use std::arch::x86_64::{$add, $loadu, $mul, $set, $set1, $setzero, $storeu};
            // SAFETY: every offset is `< 4·G·k` into `w`, `< k` into `x` and
            // `< 4·G` into `out`, inside the caller's contract; unaligned
            // loads and stores throughout.
            unsafe {
                let mut acc: [$vec; G] = [$setzero(); G];
                let mut j = 0;
                while j + 4 <= k {
                    let xs = [
                        $set1(*x.add(j)),
                        $set1(*x.add(j + 1)),
                        $set1(*x.add(j + 2)),
                        $set1(*x.add(j + 3)),
                    ];
                    for (g, acc) in acc.iter_mut().enumerate() {
                        let base = w.add(4 * g * k + j);
                        let cols = $transpose([
                            $loadu(base),
                            $loadu(base.add(k)),
                            $loadu(base.add(2 * k)),
                            $loadu(base.add(3 * k)),
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
                        let base = w.add(4 * g * k + j);
                        let col = $set(*base.add(3 * k), *base.add(2 * k), *base.add(k), *base);
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
scalar_fallback!(axpy_row_f64_fma, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f32_avx2, f32);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f32_fma, f32);

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
scalar_fallback4!(axpy_row4_f64_fma, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f32_avx2, f32);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f32_fma, f32);

/// Batch-1 product counterpart of [`scalar_fallback!`]: the scalar
/// `matvec_into` blocks the AVX2 kernel is bit-identical to.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback_matvec {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (delegates to the safe scalar
        // reference); `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(w: &[$t], x: &[$t], out: &mut [$t]) {
            crate::matrix::matvec_into(w, x, out)
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback_matvec!(matvec_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback_matvec!(matvec_f32_avx2, f32);

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
            assert!(["scalar", "avx2", "avx2+fma"].contains(&name));
        }
        // fma_enabled is cached; calling it twice must agree.
        assert_eq!(fma_enabled(), fma_enabled());
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

            /// The AVX2 `W·x` ≡ the scalar `matvec_into` reference at both
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
                let mut simd = vec![f64::NAN; rows];
                let mut scalar = vec![f64::NAN; rows];
                // SAFETY: avx2_available() was checked above.
                unsafe { matvec_f64_avx2(&w, &x, &mut simd) };
                crate::matrix::matvec_into(&w, &x, &mut scalar);
                prop_assert!(same_bits(&simd, &scalar), "f64 {rows}x{cols}");

                let w32: Vec<f32> = w.iter().map(|&v| v as f32).collect();
                let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                let mut simd = vec![f32::NAN; rows];
                let mut scalar = vec![f32::NAN; rows];
                // SAFETY: avx2_available() was checked above.
                unsafe { matvec_f32_avx2(&w32, &x32, &mut simd) };
                crate::matrix::matvec_into(&w32, &x32, &mut scalar);
                prop_assert!(same_bits(&simd, &scalar), "f32 {rows}x{cols}");
            }
        }
    }

    /// The FMA variants are epsilon-close to (but, in general, not bitwise
    /// equal to) the non-FMA kernels: fusing removes one rounding per
    /// element, so the difference is bounded by an ulp-scale epsilon.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_kernels_are_epsilon_close_to_the_non_fma_reference() {
        if !avx2_available() || !fma_available() {
            return;
        }
        for n in [1usize, 3, 4, 7, 8, 16, 33, 64, 129] {
            let a64 = val(5_000 + n as u64);
            let x64: Vec<f64> = (0..n).map(|j| val(100 + j as u64)).collect();
            let base64: Vec<f64> = (0..n).map(|j| val(2_000 + j as u64)).collect();
            let mut fma_y = base64.clone();
            let mut ref_y = base64.clone();
            // SAFETY: fma_available() was checked at the top of the test.
            unsafe { axpy_row_f64_fma(a64, &x64, &mut fma_y) };
            axpy_row_scalar(a64, &x64, &mut ref_y);
            for (f, r) in fma_y.iter().zip(&ref_y) {
                assert!((f - r).abs() <= 1e-15, "f64 fma drifted: {f} vs {r}");
            }

            let a32 = a64 as f32;
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            let base32: Vec<f32> = base64.iter().map(|&v| v as f32).collect();
            let mut fma_y = base32.clone();
            let mut ref_y = base32;
            // SAFETY: fma_available() was checked at the top of the test.
            unsafe { axpy_row_f32_fma(a32, &x32, &mut fma_y) };
            axpy_row_scalar(a32, &x32, &mut ref_y);
            for (f, r) in fma_y.iter().zip(&ref_y) {
                assert!((f - r).abs() <= 1e-6, "f32 fma drifted: {f} vs {r}");
            }
        }
    }
}
