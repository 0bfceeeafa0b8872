//! Explicit-width SIMD kernels: the vector width as a guarantee, not a hope.
//!
//! The blocked kernels of [`Matrix`] funnel their inner loop
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
//! One contract for every kernel: **bit-compat**. Each leg performs exactly
//! the reference's operations, in the reference's order, each rounded on its
//! own unless a theorem makes the fused form give the same bits. IEEE-754
//! arithmetic is deterministic per operation, so every leg is
//! **bit-identical** to the scalar reference at both precisions (`RM_SIMD=0`
//! forces that reference; parity tests in this module and the determinism
//! suite check the equivalence).
//!
//! Single-column products `W·x` — every LSTM gate, affine layer and
//! attention energy of the recurrent imputers, in training and in snapshot
//! inference, and the `n = 1` path of `Matrix::matmul_into` — have their own
//! definition, shaped for row-contiguous loads ([`matvec_reference`]):
//!
//! * each row is eight interleaved partial sums: lane `l` adds
//!   `W[r, k]·x[k]` for `k ≡ l (mod 8)`, in increasing `k`, one multiply and
//!   one add each, from `−0.0` (the exact additive identity, so a lane whose
//!   products are all `−0` stays `−0`);
//! * the lanes then reduce in a fixed tree: `(l0+l4, l1+l5, l2+l6, l3+l7)`,
//!   then `(s0+s2, s1+s3)`, then one value.
//!
//! Three legs run it, chosen once per process ([`matvec_kernel_name`]) and
//! bitwise equal to each other: AVX-512F with one zmm per row, AVX2 with two
//! ymm per row (`f32` takes one ymm on both vector legs), and the scalar
//! reference. A masked tail leaves its lanes untouched. A product split into
//! column blocks rounds differently from the whole one, so every caller
//! computes whole rows ([`Matrix::matvec_into`]). `matmul_at_b` runs one
//! dispatched axpy per row of the left operand over the whole output, and the
//! rank-1 weight gradients `dW += Σ_t g_t·x_tᵀ` have their own pass
//! ([`crate::panel`]).
//!
//! The `f64` Adam update ([`AdamStep`]) is Kingma & Ba's efficient form
//! ("Adam", ICLR 2015, §2): `w −= (α_t·m) / (√v + ε̂)`, with
//! `α_t = α·√(1−β₂ᵗ)/(1−β₁ᵗ)` and `ε̂ = ε·√(1−β₂ᵗ)` computed once per step.
//! Its legs (`adam_f64_avx512`, 8 lanes; `adam_f64_avx2`, 4 lanes; chosen
//! like the products, dispatched through `Scalar::adam_update` from
//! [`AdamStep::update`]) run the reference's operations in its order. The
//! AVX-512F leg takes `√v` off the divider: `rsqrt14`, two coupled Newton
//! steps, then one Markstein correction `g + (v − g²)·h`, which is `RN(√v)`
//! inside a checked domain (Markstein, IBM J. Res. Dev. 34(1), 1990; the
//! argument and the fallback rule are at `sqrt_f64x8`). The AVX2 leg keeps
//! the hardware `sqrt`. [`adam_kernel_name`] reports the leg; `f32` runs the
//! reference.
//!
//! `RM_SIMD` is resolved once per process through a cached accessor, the
//! same pattern as `RM_POOL`.
//!
//! [`Matrix`]: crate::Matrix
//! [`Matrix::matvec_into`]: crate::Matrix::matvec_into

// rm-lint: hot-path

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

static SIMD_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the explicit-width SIMD kernels are active (default) or disabled
/// via `RM_SIMD=0` (or `off`), which forces the 4-wide unrolled scalar
/// reference path the SIMD kernels are bitwise-checked against. Resolved
/// once per process, like `RM_POOL`.
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
pub(crate) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
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

/// The explicit-width leg a kernel family runs on: the single-column
/// products, the `f64` Adam update, the weight-gradient panels
/// ([`crate::panel`]) and the activation slices ([`crate::activation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    /// The reference (`RM_SIMD=0`, no AVX2 at runtime, non-x86_64).
    Scalar,
    /// AVX2: 4 `f64` lanes, 8 `f32` lanes.
    Avx2,
    /// AVX-512F: 8 `f64` lanes (`f32` products take the AVX2 kernel).
    Avx512,
}

impl Leg {
    /// Whether this host can run the leg.
    pub(crate) fn available(self) -> bool {
        match self {
            Leg::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Leg::Avx2 => avx2_available(),
            #[cfg(target_arch = "x86_64")]
            Leg::Avx512 => avx512f_available() && avx2_available(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// `"avx512f"`, `"avx2"` or `"scalar"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Leg::Avx512 => "avx512f",
            Leg::Avx2 => "avx2",
            Leg::Scalar => "scalar",
        }
    }
}

/// Runtime AVX-512F support, detected once per process.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512f_available() -> bool {
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

/// The widest leg the host runs, unless `RM_SIMD=0`. Resolved once per
/// process.
pub(crate) fn leg() -> Leg {
    static LEG: OnceLock<Leg> = OnceLock::new();
    *LEG.get_or_init(|| {
        if !simd_enabled() {
            return Leg::Scalar;
        }
        [Leg::Avx512, Leg::Avx2]
            .into_iter()
            .find(|leg| leg.available())
            .unwrap_or(Leg::Scalar)
    })
}

/// Name of the leg the current process runs single-column products on:
/// `"avx512f"`, `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn matvec_kernel_name() -> &'static str {
    leg().name()
}

/// Name of the Adam update leg the current process runs for `f64`:
/// `"avx512f"`, `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn adam_kernel_name() -> &'static str {
    leg().name()
}

/// One row's product `Σ_k row[k]·x[k]` under the blocked definition (see
/// [`matvec_reference`]).
#[inline]
fn blocked_dot<T: crate::Scalar>(row: &[T], x: &[T]) -> T {
    let mut lanes = [-T::ZERO; 8];
    let mut row_chunks = row.chunks_exact(8);
    let mut x_chunks = x.chunks_exact(8);
    for (r, xc) in (&mut row_chunks).zip(&mut x_chunks) {
        for l in 0..8 {
            lanes[l] += r[l] * xc[l];
        }
    }
    let tail = row_chunks.remainder().iter().zip(x_chunks.remainder());
    for (lane, (&a, &b)) in lanes.iter_mut().zip(tail) {
        *lane += a * b;
    }
    let s = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    (s[0] + s[2]) + (s[1] + s[3])
}

/// `out[r] = W[r, ..] · x` for a row-major `W` whose rows start `ld`
/// entries apart and hold `x.len()` columns: the definition every leg of
/// the single-column product computes, and the `RM_SIMD=0` leg itself.
///
/// Each row is eight partial sums. Lane `l` starts at `−0.0` and adds
/// `W[r, k]·x[k]` for every `k ≡ l (mod 8)` in increasing `k`, one multiply
/// and one add per term; `−0.0` is the exact additive identity, so a lane
/// with no terms, or only `−0` products, stays `−0`. The lanes reduce as
/// `s_j = l_j + l_{j+4}` (`j < 4`), then `(s_0 + s_2) + (s_1 + s_3)`.
/// Against one sequential sum the error bound shrinks from `γ_k` to
/// `γ_{⌈k/8⌉+3}` times `Σ|W[r, k]·x[k]|`.
///
/// # Panics
/// Panics if `x` is wider than `ld` or `w` holds fewer than `out.len()`
/// such rows.
pub fn matvec_reference<T: crate::Scalar>(w: &[T], ld: usize, x: &[T], out: &mut [T]) {
    check_matvec_shape(w.len(), ld, x.len(), out.len());
    let k = x.len();
    for (r, o) in out.iter_mut().enumerate() {
        *o = blocked_dot(&w[r * ld..r * ld + k], x);
    }
}

fn check_matvec_shape(w: usize, ld: usize, k: usize, rows: usize) {
    assert!(
        k <= ld,
        "matvec row of {k} entries wider than its stride {ld}"
    );
    assert!(
        rows == 0 || w >= (rows - 1) * ld + k,
        "matvec needs {rows} rows of {k} entries {ld} apart, got {w} entries"
    );
}

/// The `f64` instance of the `Scalar::matvec` hook.
pub(crate) fn matvec_f64(w: &[f64], ld: usize, x: &[f64], out: &mut [f64]) {
    matvec_f64_on(leg(), w, ld, x, out);
}

/// The `f32` instance of the `Scalar::matvec` hook.
pub(crate) fn matvec_f32(w: &[f32], ld: usize, x: &[f32], out: &mut [f32]) {
    matvec_f32_on(leg(), w, ld, x, out);
}

/// One `f64` single-column product on `leg`.
///
/// # Panics
/// Panics if the host cannot run `leg` or the shapes disagree.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
fn matvec_f64_on(leg: Leg, w: &[f64], ld: usize, x: &[f64], out: &mut [f64]) {
    assert!(leg.available(), "matvec leg {leg:?} is not available");
    check_matvec_shape(w.len(), ld, x.len(), out.len());
    match leg {
        // SAFETY: `leg.available()` asserted the CPU features above, and the
        // shapes were checked above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx512 => unsafe { matvec_f64_avx512(w, ld, x, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx2 => unsafe { matvec_f64_avx2(w, ld, x, out) },
        _ => matvec_reference(w, ld, x, out),
    }
}

/// One `f32` single-column product on `leg`: both vector legs run the
/// one-ymm kernel.
///
/// # Panics
/// Panics if the host cannot run `leg` or the shapes disagree.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernel
fn matvec_f32_on(leg: Leg, w: &[f32], ld: usize, x: &[f32], out: &mut [f32]) {
    assert!(leg.available(), "matvec leg {leg:?} is not available");
    check_matvec_shape(w.len(), ld, x.len(), out.len());
    match leg {
        // SAFETY: `leg.available()` asserted the CPU features above (both
        // vector legs include AVX2), and the shapes were checked above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx512 | Leg::Avx2 => unsafe { matvec_f32_avx2(w, ld, x, out) },
        _ => matvec_reference(w, ld, x, out),
    }
}

// The explicit-width legs of the single-column product. Each runs rows in
// blocks of four (four independent add chains per `x` load), then one at a
// time, and keeps every lane of a row in its own register lane, so lane `l`
// of a row sees exactly the reference's terms in its order. The callers
// above checked `k ≤ ld` and `w.len() ≥ (rows − 1)·ld + k`; every pointer
// offset below stays inside those bounds (a masked tail loads only its
// first `k mod 8` entries).

/// `(s_0 + s_2) + (s_1 + s_3)` for the four sums `s_j = l_j + l_{j+4}` of a
/// row's eight `f64` lanes: the rest of the reference's tree.
// SAFETY: the `unsafe fn` contract is AVX2 availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn reduce_f64x4(s: __m256d) -> f64 {
    let t = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
    _mm_cvtsd_f64(_mm_add_sd(t, _mm_unpackhi_pd(t, t)))
}

/// The AVX-512F `f64` product: one zmm of eight lanes per row.
// SAFETY: the `unsafe fn` contract is AVX-512F and AVX2 availability plus
// the shape checked by `check_matvec_shape`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
#[allow(unsafe_code)]
unsafe fn matvec_f64_avx512(w: &[f64], ld: usize, x: &[f64], out: &mut [f64]) {
    let (k, rows) = (x.len(), out.len());
    let full = k - k % 8;
    let tail: __mmask8 = (1u8 << (k % 8)) - 1;
    let (wp, xp) = (w.as_ptr(), x.as_ptr());
    let mut r = 0;
    // SAFETY: each call covers rows `r..r + R ≤ rows`; the CPU features are
    // this function's own contract.
    unsafe {
        while r + 4 <= rows {
            rows_f64_avx512::<4>(wp.add(r * ld), ld, xp, full, tail, &mut out[r..r + 4]);
            r += 4;
        }
        while r < rows {
            rows_f64_avx512::<1>(wp.add(r * ld), ld, xp, full, tail, &mut out[r..r + 1]);
            r += 1;
        }
    }
}

/// `R` rows of the AVX-512F product, starting at `w`.
// SAFETY: the contract is AVX-512F and AVX2 plus `w` holding `R` rows of
// `full + popcount(tail)` entries `ld` apart and `x` that many entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn rows_f64_avx512<const R: usize>(
    w: *const f64,
    ld: usize,
    x: *const f64,
    full: usize,
    tail: __mmask8,
    out: &mut [f64],
) {
    // SAFETY: every full load reads entries `j..j + 8 ≤ full` of a row or
    // of `x`; the masked loads read only the tail's entries, below `k`.
    unsafe {
        let mut acc = [_mm512_set1_pd(-0.0); R];
        let mut j = 0;
        while j < full {
            let xv = _mm512_loadu_pd(x.add(j));
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm512_add_pd(*a, _mm512_mul_pd(_mm512_loadu_pd(w.add(r * ld + j)), xv));
            }
            j += 8;
        }
        if tail != 0 {
            let xv = _mm512_maskz_loadu_pd(tail, x.add(full));
            for (r, a) in acc.iter_mut().enumerate() {
                let wv = _mm512_maskz_loadu_pd(tail, w.add(r * ld + full));
                *a = _mm512_mask_add_pd(*a, tail, *a, _mm512_mul_pd(wv, xv));
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            let lo = _mm512_castpd512_pd256(a);
            *o = reduce_f64x4(_mm256_add_pd(lo, _mm512_extractf64x4_pd::<1>(a)));
        }
    }
}

/// The AVX2 `f64` product: two ymm per row, lanes `0..4` and `4..8`.
// SAFETY: the `unsafe fn` contract is AVX2 availability plus the shape
// checked by `check_matvec_shape`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn matvec_f64_avx2(w: &[f64], ld: usize, x: &[f64], out: &mut [f64]) {
    let (k, rows) = (x.len(), out.len());
    let full = k - k % 8;
    let lanes = _mm256_set_epi64x(3, 2, 1, 0);
    let rem = (k % 8) as i64;
    // Lane `l` of the low (high) half is in the tail if `l < rem`
    // (`l + 4 < rem`).
    let masks = [
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(rem), lanes),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(rem - 4), lanes),
    ];
    let (wp, xp) = (w.as_ptr(), x.as_ptr());
    let mut r = 0;
    // SAFETY: each call covers rows `r..r + R ≤ rows`; AVX2 is this
    // function's own contract.
    unsafe {
        while r + 4 <= rows {
            rows_f64_avx2::<4>(wp.add(r * ld), ld, xp, full, masks, &mut out[r..r + 4]);
            r += 4;
        }
        while r < rows {
            rows_f64_avx2::<1>(wp.add(r * ld), ld, xp, full, masks, &mut out[r..r + 1]);
            r += 1;
        }
    }
}

/// `R` rows of the AVX2 `f64` product, starting at `w`; `masks` select
/// the tail's lanes of each half.
// SAFETY: the contract is AVX2 plus `w` holding `R` rows of `full + rem`
// entries `ld` apart and `x` that many entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn rows_f64_avx2<const R: usize>(
    w: *const f64,
    ld: usize,
    x: *const f64,
    full: usize,
    masks: [__m256i; 2],
    out: &mut [f64],
) {
    // SAFETY: every full load reads entries `j..j + 8 ≤ full` of a row or
    // of `x`; a masked load reads only tail entries, below `k`, and the high
    // half is touched only when the tail reaches past its first four.
    unsafe {
        let mut lo = [_mm256_set1_pd(-0.0); R];
        let mut hi = lo;
        let mut j = 0;
        while j < full {
            let (x0, x1) = (_mm256_loadu_pd(x.add(j)), _mm256_loadu_pd(x.add(j + 4)));
            for r in 0..R {
                let row = w.add(r * ld + j);
                lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(_mm256_loadu_pd(row), x0));
                hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(_mm256_loadu_pd(row.add(4)), x1));
            }
            j += 8;
        }
        for (half, acc) in [&mut lo, &mut hi].into_iter().enumerate() {
            let mask = masks[half];
            if _mm256_movemask_pd(_mm256_castsi256_pd(mask)) == 0 {
                break;
            }
            let xv = _mm256_maskload_pd(x.add(full + 4 * half), mask);
            for (r, a) in acc.iter_mut().enumerate() {
                let wv = _mm256_maskload_pd(w.add(r * ld + full + 4 * half), mask);
                let sum = _mm256_add_pd(*a, _mm256_mul_pd(wv, xv));
                *a = _mm256_blendv_pd(*a, sum, _mm256_castsi256_pd(mask));
            }
        }
        for (o, (l, h)) in out.iter_mut().zip(lo.into_iter().zip(hi)) {
            *o = reduce_f64x4(_mm256_add_pd(l, h));
        }
    }
}

/// The AVX2 `f32` product: one ymm of eight lanes per row.
// SAFETY: the `unsafe fn` contract is AVX2 availability plus the shape
// checked by `check_matvec_shape`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn matvec_f32_avx2(w: &[f32], ld: usize, x: &[f32], out: &mut [f32]) {
    let (k, rows) = (x.len(), out.len());
    let full = k - k % 8;
    let lanes = _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((k % 8) as i32), lanes);
    let (wp, xp) = (w.as_ptr(), x.as_ptr());
    let mut r = 0;
    // SAFETY: each call covers rows `r..r + R ≤ rows`; AVX2 is this
    // function's own contract.
    unsafe {
        while r + 4 <= rows {
            rows_f32_avx2::<4>(wp.add(r * ld), ld, xp, full, mask, &mut out[r..r + 4]);
            r += 4;
        }
        while r < rows {
            rows_f32_avx2::<1>(wp.add(r * ld), ld, xp, full, mask, &mut out[r..r + 1]);
            r += 1;
        }
    }
}

/// `R` rows of the AVX2 `f32` product, starting at `w`; `mask` selects
/// the tail's lanes.
// SAFETY: the contract is AVX2 plus `w` holding `R` rows of `full + rem`
// entries `ld` apart and `x` that many entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
unsafe fn rows_f32_avx2<const R: usize>(
    w: *const f32,
    ld: usize,
    x: *const f32,
    full: usize,
    mask: __m256i,
    out: &mut [f32],
) {
    // SAFETY: every full load reads entries `j..j + 8 ≤ full` of a row or
    // of `x`; the masked loads read only tail entries, below `k`.
    unsafe {
        let mut acc = [_mm256_set1_ps(-0.0); R];
        let mut j = 0;
        while j < full {
            let xv = _mm256_loadu_ps(x.add(j));
            for (r, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_loadu_ps(w.add(r * ld + j)), xv));
            }
            j += 8;
        }
        if _mm256_movemask_ps(_mm256_castsi256_ps(mask)) != 0 {
            let xv = _mm256_maskload_ps(x.add(full), mask);
            for (r, a) in acc.iter_mut().enumerate() {
                let sum = _mm256_add_ps(
                    *a,
                    _mm256_mul_ps(_mm256_maskload_ps(w.add(r * ld + full), mask), xv),
                );
                *a = _mm256_blendv_ps(*a, sum, _mm256_castsi256_ps(mask));
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            let s = _mm_add_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps::<1>(a));
            let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
            *o = _mm_cvtss_f32(_mm_add_ss(t, _mm_shuffle_ps::<0b01>(t, t)));
        }
    }
}

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

/// `base^t` by exponentiation by squaring, from the lowest bit of `t` up:
/// `O(log t)` multiplies, each rounded on its own, and no libm.
fn powi<T: crate::Scalar>(base: T, mut t: u64) -> T {
    let (mut power, mut square) = (T::ONE, base);
    while t > 0 {
        if t & 1 == 1 {
            power *= square;
        }
        t >>= 1;
        if t > 0 {
            square *= square;
        }
    }
    power
}

/// The per-step constants of one Adam update in Kingma & Ba's efficient
/// form: what the reference loop and the explicit-width kernels both read.
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
    /// Step size `α_t = (α·√(1 − β₂ᵗ)) / (1 − β₁ᵗ)`.
    pub(crate) alpha: T,
    /// Denominator guard `ε̂ = ε·√(1 − β₂ᵗ)`.
    pub(crate) eps: T,
    /// Gradient clip bound; `+∞` without a clip.
    pub(crate) clip: T,
}

impl<T: crate::Scalar> AdamStep<T> {
    /// The constants of step `t` (1-based), for learning rate `lr` (`α`).
    /// `β₁ᵗ` and `β₂ᵗ` come from exponentiation by squaring.
    pub fn new(beta1: T, beta2: T, eps: T, lr: T, clip: Option<T>, t: u64) -> Self {
        let root = (T::ONE - powi(beta2, t)).sqrt();
        Self {
            beta1,
            beta2,
            decay1: T::ONE - beta1,
            decay2: T::ONE - beta2,
            alpha: lr * root / (T::ONE - powi(beta1, t)),
            eps: eps * root,
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
    /// is the efficient form, each operation rounded on its own —
    /// `m = β₁m + (1−β₁)g`, `v = β₂v + ((1−β₂)g)g`,
    /// `w −= (α_t·m) / (√v + ε̂)` — after the gradient is clamped to
    /// `[−clip, clip]` (a clamp to `[−∞, ∞]` returns every value, `-0.0` and
    /// NaN included, unchanged).
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
            alpha,
            eps,
            clip,
        } = *self;
        let params = w.iter_mut().zip(g);
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((w, &g), (m, v)) in params.zip(moments) {
            let g = g.clamp(-clip, clip);
            *m = beta1 * *m + decay1 * g;
            *v = beta2 * *v + decay2 * g * g;
            *w -= (alpha * *m) / (v.sqrt() + eps);
        }
    }
}

fn check_adam_lengths(w: usize, g: usize, m: usize, v: usize) {
    assert!(
        w == g && w == m && w == v,
        "Adam slices differ in length: w {w}, g {g}, m {m}, v {v}"
    );
}

/// The `f64` instance of the `Scalar::adam_update` hook.
pub(crate) fn adam_update_f64(
    step: &AdamStep<f64>,
    w: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    adam_update_f64_on(leg(), step, w, g, m, v);
}

/// One `f64` Adam update on `leg`. A step whose clip is no valid range runs
/// the reference.
///
/// # Panics
/// Panics if the host cannot run `leg` or the slices differ in length.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
fn adam_update_f64_on(
    leg: Leg,
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
    // A clip below zero (or NaN) is no range: the reference's `clamp` panics.
    if step.clip.is_nan() || step.clip < 0.0 {
        return step.update_reference(w, g, m, v);
    }
    match leg {
        // SAFETY: `leg.available()` asserted the CPU features above, and the
        // four slices have one length.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx512 => unsafe { adam_f64_avx512(step, w, g, m, v) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx2 => unsafe { adam_f64_avx2(step, w, g, m, v) },
        _ => step.update_reference(w, g, m, v),
    }
}

// The AVX-512F leg's square root.
//
// `y = rsqrt14(v)` approximates `1/√v` to a relative 2⁻¹⁴. From `g = v·y ≈
// √v` and `h = y/2 ≈ 1/(2√v)`, two coupled Newton steps — `r = ½ − g·h`,
// `g ← g + g·r`, `h ← h + h·r`, each a fused multiply-add — square the
// relative error twice, to the order of 2⁻⁵³, so `g` is within an ulp of
// `√v`. Then the residual `d = v − g²` is exact in one `fnmadd`, and
// Markstein's theorem (P. Markstein, "Computation of elementary functions on
// the IBM RISC System/6000 processor", IBM J. Res. Dev. 34(1), 1990) makes
// `RN(g + d·h)` equal `RN(√v)`: the bits of `v.sqrt()`. That needs `v` far
// from underflow and overflow: a lane with `v = ±0` takes `v`, its own
// root, and a vector holding a lane outside `[2⁻⁹⁰⁰, 2⁹⁰⁰]` (a negative
// value, subnormal, ±∞ or NaN among them) takes the hardware `sqrt`
// instead. The tests check the result against `f64::sqrt` on the squares
// nearest a rounding midpoint, where a looser `h` would show first.

/// Values the FMA square root accepts (zero aside): `[2⁻⁹⁰⁰, 2⁹⁰⁰]`.
#[cfg(target_arch = "x86_64")]
const SQRT_DOMAIN: (f64, f64) = (
    f64::from_bits((1023 - 900) << 52),
    f64::from_bits((1023 + 900) << 52),
);

/// `RN(√v)` for eight lanes inside [`SQRT_DOMAIN`], through `rsqrt14`, two
/// coupled Newton steps and one Markstein correction.
// SAFETY: the `unsafe fn` contract is AVX-512F availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
#[inline]
unsafe fn fma_sqrt_f64x8(v: __m512d) -> __m512d {
    let half = _mm512_set1_pd(0.5);
    let y = _mm512_rsqrt14_pd(v);
    let (mut g, mut h) = (_mm512_mul_pd(v, y), _mm512_mul_pd(half, y));
    for _ in 0..2 {
        let r = _mm512_fnmadd_pd(g, h, half);
        g = _mm512_fmadd_pd(g, r, g);
        h = _mm512_fmadd_pd(h, r, h);
    }
    _mm512_fmadd_pd(_mm512_fnmadd_pd(g, g, v), h, g)
}

/// `v.sqrt()`, bit for bit, 8 lanes: the FMA root, `v` in zero lanes, the
/// hardware `sqrt` if any other lane is outside [`SQRT_DOMAIN`].
// SAFETY: the `unsafe fn` contract is AVX-512F availability; register
// arithmetic only.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
#[inline]
unsafe fn sqrt_f64x8(v: __m512d) -> __m512d {
    let (lo, hi) = SQRT_DOMAIN;
    let zero = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(v, _mm512_setzero_pd());
    let in_domain = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v, _mm512_set1_pd(lo))
        & _mm512_cmp_pd_mask::<_CMP_LE_OQ>(v, _mm512_set1_pd(hi));
    if zero | in_domain != 0xff {
        return _mm512_sqrt_pd(v);
    }
    // SAFETY: AVX-512F is this function's own contract.
    _mm512_mask_blend_pd(zero, unsafe { fma_sqrt_f64x8(v) }, v)
}

/// Generates one leg's `f64` Adam update loop over full vectors; the
/// `< lanes` tail runs the reference.
#[cfg(target_arch = "x86_64")]
macro_rules! adam_kernel {
    (
        $features:literal, $lanes:expr, $name:ident, $sqrt:ident,
        $set1:ident, $loadu:ident, $storeu:ident, $add:ident, $sub:ident, $mul:ident,
        $div:ident, $min:ident, $max:ident
    ) => {
        /// One `f64` Adam update, bit-identical to the reference (see the
        /// comment above [`SQRT_DOMAIN`]).
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
            let (alpha, eps) = ($set1(s.alpha), $set1(s.eps));
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
                    let delta = $div($mul(alpha, m), $add($sqrt(v), eps));
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
    "avx2",
    4,
    adam_f64_avx2,
    _mm256_sqrt_pd,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_add_pd,
    _mm256_sub_pd,
    _mm256_mul_pd,
    _mm256_div_pd,
    _mm256_min_pd,
    _mm256_max_pd
);
#[cfg(target_arch = "x86_64")]
adam_kernel!(
    "avx512f",
    8,
    adam_f64_avx512,
    sqrt_f64x8,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_add_pd,
    _mm512_sub_pd,
    _mm512_mul_pd,
    _mm512_div_pd,
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
        for leg in [matvec_kernel_name(), adam_kernel_name()] {
            if !simd_enabled() {
                assert_eq!(leg, "scalar");
            } else {
                assert!(["scalar", "avx2", "avx512f"].contains(&leg));
            }
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

    /// Entry `i` of a kernel operand: smooth values, with `±0.0`,
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

    /// Every leg this host runs, the reference included.
    fn host_legs() -> Vec<Leg> {
        [Leg::Scalar, Leg::Avx2, Leg::Avx512]
            .into_iter()
            .filter(|leg| leg.available())
            .collect()
    }

    mod matvec_parity {
        use super::*;

        /// A `rows × ld` operand and a `k`-entry column for one parity
        /// case. With no specials, row 0 (when `k > 0`) gets only `−0`
        /// products: `+0` against every negative `x[k]`, `−0` against every
        /// positive one.
        fn operands(rows: usize, k: usize, ld: usize, special: u64) -> (Vec<f64>, Vec<f64>) {
            let salt = (rows * 1_000 + k * 10 + ld) as u64;
            let x: Vec<f64> = (0..k)
                .map(|i| edge_value(salt ^ (i as u64) << 20, special))
                .collect();
            let mut w: Vec<f64> = (0..rows * ld)
                .map(|i| edge_value(salt.rotate_left(9) ^ i as u64, special))
                .collect();
            if special == 0 && rows > 0 {
                for (e, &xk) in w.iter_mut().zip(&x) {
                    *e = if xk < 0.0 { 0.0 } else { -0.0 };
                }
            }
            (w, x)
        }

        /// Each leg the host runs, forced one by one, ≡ the reference at both
        /// precisions: rows 0..=19 (below, on and off the four-row block),
        /// `k` 0..=33 (below and across the eight lanes and the masked
        /// tail), rows packed (`ld = k`) and strided (`ld > k`), with `±0`,
        /// subnormal, `±∞` and NaN entries, into a poisoned output. A row of
        /// `−0` products sums to `−0`.
        #[test]
        fn every_matvec_leg_is_bit_identical_to_the_reference() {
            for rows in 0..=19usize {
                for k in 0..=33usize {
                    for ld in [k, k + 3] {
                        for special in [0, 8, 16] {
                            let (w, x) = operands(rows, k, ld, special);
                            let mut want = vec![f64::NAN; rows];
                            matvec_reference(&w, ld, &x, &mut want);
                            if special == 0 && rows > 0 {
                                assert_eq!(want[0].to_bits(), (-0.0f64).to_bits(), "k {k}");
                            }
                            let w32: Vec<f32> = w.iter().map(|&v| v as f32).collect();
                            let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                            let mut want32 = vec![f32::NAN; rows];
                            matvec_reference(&w32, ld, &x32, &mut want32);
                            for leg in host_legs() {
                                let mut got = vec![f64::NAN; rows];
                                matvec_f64_on(leg, &w, ld, &x, &mut got);
                                assert!(same_bits(&got, &want), "{leg:?} f64 {rows}x{k}/{ld}");
                                let mut got32 = vec![f32::NAN; rows];
                                matvec_f32_on(leg, &w32, ld, &x32, &mut got32);
                                assert!(same_bits(&got32, &want32), "{leg:?} f32 {rows}x{k}/{ld}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `a·b` exactly, as `p + e`: Dekker's split into 26-bit halves, no
    /// FMA and no libm.
    fn two_product(a: f64, b: f64) -> (f64, f64) {
        let split = |v: f64| {
            let c = 134_217_729.0 * v; // 2²⁷ + 1
            let hi = c - (c - v);
            (hi, v - hi)
        };
        let p = a * b;
        let ((ah, al), (bh, bl)) = (split(a), split(b));
        (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    }

    /// `a + b` exactly, as `s + e` (Knuth's TwoSum).
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    /// `Σ a_i·b_i` in double-double arithmetic: within a few `u²` of the
    /// exact sum, relative to `Σ|a_i·b_i|`.
    fn dot_double_double(a: &[f64], b: &[f64]) -> f64 {
        let (mut hi, mut lo) = (0.0, 0.0);
        for (&x, &y) in a.iter().zip(b) {
            let (p, e) = two_product(x, y);
            let (s, f) = two_sum(hi, p);
            hi = s;
            lo += e + f;
        }
        hi + lo
    }

    /// The blocked sum's error against a double-double reference stays
    /// within its bound `γ_m·Σ|W[r, k]·x[k]|`, `m = ⌈k/8⌉ + 3` (one product,
    /// `⌈k/8⌉ − 1` lane additions, three tree levels; `γ_m = m·u/(1 − m·u)`),
    /// on smooth rows, rows spanning twelve orders of magnitude and rows
    /// built to cancel.
    #[test]
    fn blocked_sum_error_stays_within_its_bound() {
        let u = f64::EPSILON / 2.0;
        let mut worst: f64 = 0.0;
        for k in 1..=300usize {
            for kind in 0..3u64 {
                let salt = (k as u64) << 8 | kind;
                let x: Vec<f64> = (0..k as u64).map(|i| val(salt ^ i << 32)).collect();
                let w: Vec<f64> = (0..k as u64)
                    .map(|i| {
                        let v = val(salt.rotate_left(17) ^ i);
                        match kind {
                            0 => v,
                            1 => v * 2f64.powi((i % 40) as i32 - 20),
                            // Pairs that cancel up to a small residue.
                            _ if i % 2 == 1 => {
                                -(val(salt.rotate_left(17) ^ (i - 1)) * x[i as usize - 1])
                                    / x[i as usize]
                                    * (1.0 + v * 1e-9)
                            }
                            _ => v,
                        }
                    })
                    .collect();
                let mut got = [0.0];
                matvec_reference(&w, k, &x, &mut got);
                let exact = dot_double_double(&w, &x);
                let magnitude: f64 = w.iter().zip(&x).map(|(a, b)| (a * b).abs()).sum();
                let m = (k.div_ceil(8) + 3) as f64;
                let bound = m * u / (1.0 - m * u) * magnitude;
                let error = (got[0] - exact).abs();
                assert!(
                    error <= bound + 4.0 * u * u * magnitude,
                    "k {k} kind {kind}: error {error:e} over bound {bound:e}"
                );
                worst = worst.max(error / bound.max(f64::MIN_POSITIVE));
            }
        }
        assert!(worst > 0.0, "the check never saw a rounding error");
    }

    /// An eight-lane AVX-512F square root.
    // SAFETY: a function-pointer type only; `map_f64x8` checks AVX-512F
    // before it calls one.
    #[cfg(target_arch = "x86_64")]
    type Lanes = unsafe fn(__m512d) -> __m512d;

    /// `f(v)` eight lanes at a time through `lanes`, a ragged end padded
    /// with `1.0`.
    #[cfg(target_arch = "x86_64")]
    fn map_f64x8(vs: &[f64], lanes: Lanes) -> Vec<f64> {
        assert!(Leg::Avx512.available());
        let mut out = Vec::with_capacity(vs.len());
        for chunk in vs.chunks(8) {
            let mut lane = [1.0f64; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: AVX-512F was checked above; both arrays hold 8 lanes.
            unsafe {
                let r = lanes(_mm512_loadu_pd(lane.as_ptr()));
                _mm512_storeu_pd(lane.as_mut_ptr(), r);
            }
            out.extend_from_slice(&lane[..chunk.len()]);
        }
        out
    }

    /// Checks the bare FMA root on the values inside the domain and the
    /// guarded one on all of them against `f64::sqrt`.
    #[cfg(target_arch = "x86_64")]
    fn assert_exact_roots(vs: &[f64]) {
        let (lo, hi) = SQRT_DOMAIN;
        let inside: Vec<f64> = vs
            .iter()
            .copied()
            .filter(|v| (lo..=hi).contains(v))
            .collect();
        let kernels: [(&[f64], Lanes); 2] = [(&inside, fma_sqrt_f64x8), (vs, sqrt_f64x8)];
        for (set, kernel) in kernels {
            let got = map_f64x8(set, kernel);
            for (v, g) in set.iter().zip(&got) {
                assert!(
                    same_bits(&[*g], &[v.sqrt()]),
                    "√{v:e} ({:#x}) gave {g:e}, want {:e}",
                    v.to_bits(),
                    v.sqrt()
                );
            }
        }
    }

    /// `v` and its neighbours up to `ulps` ulps either side.
    fn with_neighbours(v: f64, ulps: usize, out: &mut Vec<f64>) {
        let (mut down, mut up) = (v, v);
        out.push(v);
        for _ in 0..ulps {
            down = down.next_down();
            up = up.next_up();
            out.extend([down, up]);
        }
    }

    /// `4^e` as an exact power of two.
    fn four_to(e: i32) -> f64 {
        f64::from_bits(((1023 + 2 * e) as u64) << 52)
    }

    /// The squares nearest a rounding midpoint in `[1, 4)`: `v ≈ m²` for a
    /// midpoint `m = X·2⁻⁵³` (`X` odd, 54 bits) with `X² ≡ ±r (mod 2⁵⁴)`
    /// for small `r`, so `√v` lies within about `r·2⁻¹⁰⁸` of `m`. Each `X`
    /// is a square root of `±r` modulo 2⁵⁴ by Hensel lifting.
    fn hardest_squares() -> Vec<f64> {
        let mut out = Vec::new();
        for r in (1..4_000u128).filter(|r| r % 8 == 1 || r % 8 == 7) {
            let target = if r % 8 == 1 { r } else { (1u128 << 54) - r };
            // x² ≡ target (mod 8) at x = 1; lift one bit at a time.
            let mut x: u128 = 1;
            for i in 3..54 {
                if (x * x).wrapping_sub(target) >> i & 1 == 1 {
                    x += 1 << (i - 1);
                }
            }
            for root in [x, (1u128 << 54) - x] {
                let root = root % (1u128 << 54);
                let big = if root < 1 << 53 {
                    root + (1 << 53)
                } else {
                    root
                };
                // `big² ∓ r` is a multiple of 2⁵⁴: `v = (big² ∓ r)·2⁻¹⁰⁶`,
                // rounded once if it needs 54 bits.
                let square = if r % 8 == 1 {
                    big * big - r
                } else {
                    big * big + r
                };
                out.push((square >> 54) as f64 * 2f64.powi(-52));
            }
        }
        out
    }

    /// The FMA square root equals `f64::sqrt` bit for bit: near-midpoint
    /// squares `RN((m+½ulp)²)·4ᵉ ± 0..2 ulp` across the domain, the squares
    /// nearest a midpoint, a random sweep of the domain, and `±0`, both
    /// domain edges and their neighbours, subnormals, `±∞`, NaN and
    /// negative values, alone and mixed into in-domain vectors.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_sqrt_equals_the_hardware_sqrt() {
        if !Leg::Avx512.available() {
            return;
        }
        // RN(m²) for midpoints m = X·2⁻⁵³ with random odd 54-bit X; the cast
        // from u128 rounds to nearest.
        let mut base = Vec::new();
        for i in 0..4_000u64 {
            let x = (1u128 << 53) | u128::from(val(i).to_bits() & ((1 << 52) - 1)) << 1 | 1;
            with_neighbours((x * x) as f64 * 2f64.powi(-106), 2, &mut base);
        }
        let hardest = hardest_squares();
        let mut near = Vec::new();
        for &v in &hardest {
            with_neighbours(v, 2, &mut near);
        }
        for e in (-449..449).step_by(7) {
            let scale = four_to(e);
            let scaled: Vec<f64> = base.iter().chain(&near).map(|v| v * scale).collect();
            assert_exact_roots(&scaled);
        }
        assert_exact_roots(&near);

        // Random sweep: every exponent of the domain, random mantissas.
        let sweep: Vec<f64> = (0..400_000u64)
            .map(|i| {
                let e = i % 1801 + 1023 - 900;
                f64::from_bits(
                    e << 52 | (val(i * 3 + 1).to_bits() ^ val(i).to_bits()) & ((1 << 52) - 1),
                )
            })
            .collect();
        assert_exact_roots(&sweep);

        let (lo, hi) = SQRT_DOMAIN;
        let mut specials = vec![0.0, -0.0, 5e-324, 2.5e-310, f64::MIN_POSITIVE];
        for edge in [lo, hi] {
            specials.extend([edge.next_down(), edge, edge.next_up()]);
        }
        specials.extend([
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.0,
            -lo,
        ]);
        let mixed: Vec<f64> = specials
            .iter()
            .zip(&sweep)
            .flat_map(|(&s, &v)| [v, s, v, v])
            .collect();
        assert_exact_roots(&specials);
        assert_exact_roots(&mixed);
    }

    /// Exponentiation by squaring is exact where every power is, and
    /// elsewhere within its error bound of `powf`, the host's libm as a
    /// loose oracle: each rounding error is raised to at most the power it
    /// multiplies into, `t − 1` roundings in all, so `γ_{t−1}` — about
    /// `(t − 1)/2` ulps — plus one ulp for `powf` itself.
    #[test]
    fn powers_by_squaring_stay_close_to_powf() {
        assert_eq!(powi(0.9f64, 0), 1.0);
        assert_eq!(powi(0.9f64, 1), 0.9);
        for t in 0..1_074u64 {
            assert_eq!(powi(0.5f64, t), 0.5f64.powi(t as i32), "2^-{t}");
        }
        for beta in [0.9f64, 0.999] {
            for t in (1..200_000u64).step_by(97) {
                let (got, want) = (powi(beta, t), beta.powf(t as f64));
                if want < 1e-300 {
                    continue;
                }
                let ulps = (got - want).abs() / (want * f64::EPSILON);
                assert!(
                    ulps <= (t - 1) as f64 / 2.0 + 1.0,
                    "{beta}^{t}: {ulps} ulps"
                );
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
            /// clip, gradients and moments holding `±0`, subnormals, `±∞`
            /// and NaN (second moments outside the FMA root's domain among
            /// them), and step counts from the first to one where both bias
            /// corrections are exactly `1.0`.
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
                for leg in host_legs() {
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
