//! Rank-1 weight-gradient panels: every `u·vᵀ` term one weight tensor
//! receives during one backward, applied in one pass.
//!
//! A matmul against a column `x` hands its weight the gradient term
//! `dW += g·xᵀ`, and a recurrent backward hands each weight one such term
//! per step. Applied one at a time, every term loads and stores the whole
//! gradient. An [`OuterPanel`] collects a tensor's terms `(u₁, v₁), (u₂,
//! v₂), …` instead, and [`OuterPanel::flush`] applies them in one pass that
//! keeps each gradient entry in a register across all of its terms, so the
//! gradient is loaded and stored once per flush (register blocking: Goto &
//! van de Geijn, "Anatomy of high-performance matrix multiplication", ACM
//! TOMS 34(3), 2008).
//!
//! The contract is the sequential one, bit for bit. Entry `(i, j)` becomes
//! `(((d + u₁ᵢ·v₁ⱼ) + u₂ᵢ·v₂ⱼ) + …)` in push order, each term one multiply
//! and one add (no FMA), and a term whose `u_tᵢ` is an exact zero adds
//! nothing to row `i`, whatever `v_t` holds. [`Matrix::add_outer`] is the
//! one-term case, so adding the terms one by one with it gives the bits of
//! one flush.
//!
//! Three legs run the pass, chosen once per process like the Adam update's:
//! the scalar reference (`RM_SIMD=0`, `f32`, hosts without AVX2), AVX2 (4
//! lanes, one row at a time in column blocks of 16) and AVX-512F (8 lanes,
//! two rows at a time in column blocks of 32, the last vector masked).
//! Every leg runs each entry's operations in the reference's order, so the
//! legs agree bit for bit.

// rm-lint: hot-path
// Every BiSIM, BRITS and SSGAN training step applies its weight gradients
// through this pass; the panels keep their buffers from flush to flush.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::matrix::axpy_row_scalar;
use crate::simd::{leg, Leg};
use crate::{Matrix, Scalar};

/// The rank-1 terms one weight tensor has received and not yet applied
/// (see the module doc). Its buffers are kept across flushes, so a warm
/// panel allocates nothing.
#[derive(Debug, Default)]
pub struct OuterPanel<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    terms: usize,
    /// `terms × rows`: the left factors `u_t`, term-major.
    us: Vec<T>,
    /// `terms × cols`: the right factors `v_t`, term-major.
    vs: Vec<T>,
}

impl<T: Scalar> OuterPanel<T> {
    /// An empty panel; the first term sets its shape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no term is pending.
    pub fn is_empty(&self) -> bool {
        self.terms == 0
    }

    /// Queues the term `u·vᵀ` after the pending ones. The first term after
    /// a flush sets the panel's shape to `u.len() × v.len()`.
    ///
    /// # Panics
    /// Panics if the term's shape differs from the pending terms'.
    pub fn push(&mut self, u: &[T], v: &[T]) {
        if self.terms == 0 {
            (self.rows, self.cols) = (u.len(), v.len());
        }
        assert_eq!(
            (u.len(), v.len()),
            (self.rows, self.cols),
            "outer panel term shape mismatch"
        );
        self.us.extend_from_slice(u);
        self.vs.extend_from_slice(v);
        self.terms += 1;
    }

    /// Adds every pending term into `d`, in push order, and empties the
    /// panel.
    ///
    /// # Panics
    /// Panics if terms are pending and `d`'s shape differs from theirs.
    pub fn flush(&mut self, d: &mut Matrix<T>) {
        if self.terms == 0 {
            return;
        }
        assert_eq!(
            d.shape(),
            (self.rows, self.cols),
            "outer panel flushed into a matrix of another shape"
        );
        add_outer_terms(d.data_mut(), self.rows, self.cols, &self.us, &self.vs);
        self.us.clear();
        self.vs.clear();
        self.terms = 0;
    }
}

/// `d += Σ_t u_t·v_tᵀ` over term-major factors (`us`: `terms × rows`, `vs`:
/// `terms × cols`) on the process's leg: the pass behind
/// [`OuterPanel::flush`] and [`Matrix::add_outer`].
///
/// # Panics
/// Panics if a length disagrees with the shape.
pub(crate) fn add_outer_terms<T: Scalar>(
    d: &mut [T],
    rows: usize,
    cols: usize,
    us: &[T],
    vs: &[T],
) {
    check_lengths(d.len(), rows, cols, us.len(), vs.len());
    if rows > 0 && cols > 0 {
        T::outer_terms(d, rows, cols, us, vs);
    }
}

fn check_lengths(d: usize, rows: usize, cols: usize, us: usize, vs: usize) {
    let terms = us.checked_div(rows).or(vs.checked_div(cols)).unwrap_or(0);
    assert!(
        d == rows * cols && us == terms * rows && vs == terms * cols,
        "outer terms shape mismatch: {rows}x{cols} gradient of {d}, factors of {us} and {vs}"
    );
}

/// The reference pass: row by row, each term in push order one
/// `y += u·v` row update, skipped when `u` is an exact zero.
pub(crate) fn outer_terms_reference<T: Scalar>(
    d: &mut [T],
    rows: usize,
    cols: usize,
    us: &[T],
    vs: &[T],
) {
    for (i, row) in d.chunks_exact_mut(cols).enumerate() {
        let factors = us.iter().skip(i).step_by(rows);
        for (&u, v) in factors.zip(vs.chunks_exact(cols)) {
            if u != T::ZERO {
                axpy_row_scalar(u, v, row);
            }
        }
    }
}

/// Name of the panel leg the current process runs for `f64`: `"avx512f"`,
/// `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn panel_kernel_name() -> &'static str {
    leg().name()
}

/// The `f64` instance of the `Scalar::outer_terms` hook.
pub(crate) fn outer_terms_f64(d: &mut [f64], rows: usize, cols: usize, us: &[f64], vs: &[f64]) {
    outer_terms_f64_on(leg(), d, rows, cols, us, vs);
}

/// The `f64` pass on `leg`.
///
/// # Panics
/// Panics if the host cannot run `leg`, or a length disagrees with the
/// shape.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
fn outer_terms_f64_on(leg: Leg, d: &mut [f64], rows: usize, cols: usize, us: &[f64], vs: &[f64]) {
    assert!(
        leg.available(),
        "panel leg {leg:?} is not available on this host"
    );
    check_lengths(d.len(), rows, cols, us.len(), vs.len());
    if rows == 0 || cols == 0 {
        return;
    }
    match leg {
        // SAFETY: `leg.available()` asserted the CPU feature above, and
        // `check_lengths` the slice lengths the kernel's offsets rely on.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx512 => unsafe { outer_terms_avx512(d, rows, cols, us, vs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Leg::Avx2 => unsafe { outer_terms_avx2(d, rows, cols, us, vs) },
        _ => outer_terms_reference(d, rows, cols, us, vs),
    }
}

// The explicit-width legs. Both read the gradient through raw pointers:
// `d` holds `rows × cols` entries, `us` `terms × rows` and `vs` `terms ×
// cols` (checked by `check_lengths` before dispatch), and every offset below
// stays inside those bounds.

/// The AVX2 pass: each row in column blocks of 16, then of 4, then a scalar
/// tail of fewer than 4 columns.
// SAFETY: the `unsafe fn` contract is AVX2 availability, `rows, cols > 0`
// and the slice lengths of `check_lengths`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn outer_terms_avx2(d: &mut [f64], rows: usize, cols: usize, us: &[f64], vs: &[f64]) {
    let terms = us.len() / rows;
    let (dp, up, vp) = (d.as_mut_ptr(), us.as_ptr(), vs.as_ptr());
    for i in 0..rows {
        // SAFETY: `i < rows`, so row `i` and the factors `us[t·rows + i]`
        // are in bounds; each block covers columns below `cols`; the CPU
        // feature is this function's own contract.
        unsafe {
            let (row, u) = (dp.add(i * cols), up.add(i));
            let mut j = 0;
            while j + 16 <= cols {
                block_avx2::<4>(row.add(j), u, rows, vp.add(j), cols, terms);
                j += 16;
            }
            let rest = (cols - j) / 4;
            let (dj, vj) = (row.add(j), vp.add(j));
            match rest {
                3 => block_avx2::<3>(dj, u, rows, vj, cols, terms),
                2 => block_avx2::<2>(dj, u, rows, vj, cols, terms),
                1 => block_avx2::<1>(dj, u, rows, vj, cols, terms),
                _ => {}
            }
            for j in j + 4 * rest..cols {
                let mut acc = *row.add(j);
                for t in 0..terms {
                    let ut = *u.add(t * rows);
                    if ut != 0.0 {
                        acc += ut * *vp.add(t * cols + j);
                    }
                }
                *row.add(j) = acc;
            }
        }
    }
}

/// `V` vectors of one row (`d`, its `4·V` entries) through every term: the
/// accumulators stay in registers from the load to the store. `u` points at
/// the row's factor of term 0 (term `t`'s is `t·u_stride` further), `v` at
/// the block's first column of term 0's right factor.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2 availability and pointers valid
// for the `4·V` entries of `d` and of each term's `v` row, and the `terms`
// strided factors of `u`.
unsafe fn block_avx2<const V: usize>(
    d: *mut f64,
    u: *const f64,
    u_stride: usize,
    v: *const f64,
    v_stride: usize,
    terms: usize,
) {
    // SAFETY: every offset is within the bounds of this function's contract.
    unsafe {
        let mut acc: [__m256d; V] = std::array::from_fn(|k| _mm256_loadu_pd(d.add(4 * k)));
        for t in 0..terms {
            let ut = *u.add(t * u_stride);
            if ut != 0.0 {
                let (ub, vt) = (_mm256_set1_pd(ut), v.add(t * v_stride));
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(ub, _mm256_loadu_pd(vt.add(4 * k))));
                }
            }
        }
        for (k, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(d.add(4 * k), *a);
        }
    }
}

/// The AVX-512F pass: rows in pairs (a last odd row alone), each pair in
/// column blocks of up to 32, the block's last vector masked to the
/// columns that remain.
// SAFETY: the `unsafe fn` contract is AVX-512F availability, `rows, cols >
// 0` and the slice lengths of `check_lengths`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn outer_terms_avx512(d: &mut [f64], rows: usize, cols: usize, us: &[f64], vs: &[f64]) {
    let terms = us.len() / rows;
    let (dp, up, vp) = (d.as_mut_ptr(), us.as_ptr(), vs.as_ptr());
    let mut i = 0;
    while i < rows {
        let pair = i + 2 <= rows;
        let mut j = 0;
        while j < cols {
            let width = (cols - j).min(32);
            let tail: __mmask8 = match width % 8 {
                0 => 0xff,
                w => (1u8 << w) - 1,
            };
            // SAFETY: rows `i` (and `i + 1` for a pair) are below `rows`,
            // and the block's vectors start below `cols`, their lanes past
            // `cols` masked off; the CPU feature is this function's own
            // contract.
            unsafe {
                let (dij, u, vj) = (dp.add(i * cols + j), up.add(i), vp.add(j));
                let shape = (cols, rows, terms, tail);
                match (pair, width.div_ceil(8)) {
                    (true, 4) => block_avx512::<2, 4>(dij, u, vj, shape),
                    (true, 3) => block_avx512::<2, 3>(dij, u, vj, shape),
                    (true, 2) => block_avx512::<2, 2>(dij, u, vj, shape),
                    (true, _) => block_avx512::<2, 1>(dij, u, vj, shape),
                    (false, 4) => block_avx512::<1, 4>(dij, u, vj, shape),
                    (false, 3) => block_avx512::<1, 3>(dij, u, vj, shape),
                    (false, 2) => block_avx512::<1, 2>(dij, u, vj, shape),
                    (false, _) => block_avx512::<1, 1>(dij, u, vj, shape),
                }
            }
            j += width;
        }
        i += if pair { 2 } else { 1 };
    }
}

/// `R` rows × `V` vectors of the gradient (`d` at the block's first entry,
/// rows `cols` apart) through every term: each term's `v` block is loaded
/// once for both rows, and the accumulators stay in registers from the
/// load to the store. The block's last vector is masked by `tail`; masked
/// lanes are neither loaded nor stored. `shape` is `(cols, rows, terms,
/// tail)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX-512F availability, pointers valid
// for the block's unmasked lanes of `R` rows of `d` and of each term's `v`
// row, and the `terms` strided factors of `u`'s `R` rows.
unsafe fn block_avx512<const R: usize, const V: usize>(
    d: *mut f64,
    u: *const f64,
    v: *const f64,
    (cols, rows, terms, tail): (usize, usize, usize, __mmask8),
) {
    let mask = |k: usize| if k + 1 == V { tail } else { 0xff };
    // SAFETY: every unmasked lane is within the bounds of this function's
    // contract.
    unsafe {
        let mut acc: [[__m512d; V]; R] = std::array::from_fn(|r| {
            std::array::from_fn(|k| _mm512_maskz_loadu_pd(mask(k), d.add(r * cols + 8 * k)))
        });
        for t in 0..terms {
            let vt = v.add(t * cols);
            let x: [__m512d; V] =
                std::array::from_fn(|k| _mm512_maskz_loadu_pd(mask(k), vt.add(8 * k)));
            for (r, row) in acc.iter_mut().enumerate() {
                let ut = *u.add(t * rows + r);
                if ut != 0.0 {
                    let ub = _mm512_set1_pd(ut);
                    for (a, &xk) in row.iter_mut().zip(&x) {
                        *a = _mm512_add_pd(*a, _mm512_mul_pd(ub, xk));
                    }
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (k, a) in row.iter().enumerate() {
                _mm512_mask_storeu_pd(d.add(r * cols + 8 * k), mask(k), *a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The legs this host can run, the reference first.
    fn host_legs() -> Vec<Leg> {
        [Leg::Scalar, Leg::Avx2, Leg::Avx512]
            .into_iter()
            .filter(|leg| leg.available())
            .collect()
    }

    /// A value in `[-1, 1]`, or an exact `±0.0`, from a salt.
    fn value(salt: usize) -> f64 {
        match salt % 9 {
            0 => 0.0,
            1 => -0.0,
            k => ((k * 29 + salt * 13) as f64 * 0.37).sin(),
        }
    }

    /// `terms` term-major factors for a `rows × cols` gradient. Row `i`'s
    /// factor is zero in every term with `(t + i) % 4 == 0`, and in those
    /// terms the right factor holds NaN and `±∞`, which a zero factor must
    /// not let through.
    fn factors(rows: usize, cols: usize, terms: usize, salt: usize) -> (Vec<f64>, Vec<f64>) {
        let mut us = Vec::new();
        let mut vs = Vec::new();
        for t in 0..terms {
            for i in 0..rows {
                let zero = (t + i) % 4 == 0;
                us.push(if zero {
                    [0.0, -0.0][t % 2]
                } else {
                    value(salt + t * rows + i)
                });
            }
            for j in 0..cols {
                let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let spike = t % 4 == 0 && j % 5 == 2;
                vs.push(if spike {
                    special[j % 3]
                } else {
                    value(salt + 7 * t + j + 3)
                });
            }
        }
        (us, vs)
    }

    /// The specification, entry by entry: `d` plus each term in order, a
    /// term with a zero factor skipped.
    fn spec(d: &[f64], rows: usize, cols: usize, us: &[f64], vs: &[f64]) -> Vec<f64> {
        let terms = us.len().checked_div(rows).unwrap_or(0);
        let mut out = d.to_vec();
        for i in 0..rows {
            for j in 0..cols {
                for t in 0..terms {
                    let u = us[t * rows + i];
                    if u != 0.0 {
                        out[i * cols + j] += u * vs[t * cols + j];
                    }
                }
            }
        }
        out
    }

    /// The bits of `v`, every NaN as one pattern: NaN payloads are not
    /// part of the contract (the row factor of a spike term that is not
    /// zero carries the spike into its row on every leg).
    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter()
            .map(|&x| match x.partial_cmp(&x) {
                Some(_) => x.to_bits_u64(),
                None => u64::MAX,
            })
            .collect()
    }

    /// Every leg this host runs against the entry-by-entry specification
    /// and against the terms applied one by one with `add_outer`, bit for
    /// bit: odd and even row counts, every width from 1 to 20 and the
    /// training shapes' 85, 87 and 138, 0 to 25 terms, `±0.0` in every
    /// operand, and zero factors against NaN and `±∞`.
    #[test]
    fn every_leg_matches_the_specification_and_add_outer() {
        let widths = (1..=20).chain([32, 53, 85, 87, 138]);
        let legs = host_legs();
        for (case, (rows, cols)) in [1, 2, 3, 5, 32, 33]
            .into_iter()
            .flat_map(|r| widths.clone().map(move |c| (r, c)))
            .enumerate()
        {
            for terms in (0..=25).filter(|t| t % 3 == 0 || *t <= 5 || *t == 25) {
                let salt = case * 31 + terms;
                let (us, vs) = factors(rows, cols, terms, salt);
                let d: Vec<f64> = (0..rows * cols).map(|k| value(salt + 5 * k)).collect();
                let want = bits(&spec(&d, rows, cols, &us, &vs));
                let what = format!("{rows}x{cols}, {terms} terms");
                for &leg in &legs {
                    let mut got = d.clone();
                    outer_terms_f64_on(leg, &mut got, rows, cols, &us, &vs);
                    assert_eq!(bits(&got), want, "{leg:?} leg, {what}");
                }
                let mut one_by_one = Matrix::from_vec(rows, cols, d.clone());
                for t in 0..terms {
                    let u = &us[t * rows..(t + 1) * rows];
                    one_by_one.add_outer(u, &vs[t * cols..(t + 1) * cols]);
                }
                assert_eq!(bits(one_by_one.data()), want, "add_outer, {what}");
            }
        }
    }

    /// A zero factor leaves its row as it was, `-0.0` entries included,
    /// whatever the right factor holds.
    #[test]
    fn a_zero_factor_adds_nothing() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0, -0.0];
        let v: Vec<f64> = (0..19).map(|j| specials[j % 5]).collect();
        for leg in host_legs() {
            let mut d = vec![-0.0; 3 * 19];
            let us = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0];
            let vs: Vec<f64> = v.iter().chain(&v).copied().collect();
            outer_terms_f64_on(leg, &mut d, 3, 19, &us, &vs);
            assert!(
                d.iter().all(|x| x.to_bits() == (-0.0f64).to_bits()),
                "{leg:?}"
            );
        }
    }

    /// One panel serves tensors of several shapes in turn, each flush
    /// applying only its own terms, and matches the terms applied one by one.
    #[test]
    fn a_panel_is_reused_across_shapes() {
        let mut panel = OuterPanel::new();
        for (k, (rows, cols, terms)) in
            [(3, 17, 4), (32, 138, 5), (1, 3, 0), (53, 32, 2), (3, 17, 9)]
                .into_iter()
                .enumerate()
        {
            let (us, vs) = factors(rows, cols, terms, k * 101);
            let d = Matrix::from_fn(rows, cols, |i, j| value(k + 3 * i + j));
            let mut want = d.clone();
            for t in 0..terms {
                panel.push(&us[t * rows..(t + 1) * rows], &vs[t * cols..(t + 1) * cols]);
                want.add_outer(&us[t * rows..(t + 1) * rows], &vs[t * cols..(t + 1) * cols]);
            }
            assert_eq!(panel.is_empty(), terms == 0);
            let mut got = d;
            panel.flush(&mut got);
            assert!(panel.is_empty());
            assert_eq!(bits(got.data()), bits(want.data()), "shape {rows}x{cols}");
        }
    }

    /// `f32` runs the reference, which is the terms applied one by one.
    #[test]
    fn f32_panels_match_add_outer() {
        let (us, vs) = factors(5, 21, 6, 3);
        let (us, vs): (Vec<f32>, Vec<f32>) = (
            us.iter().map(|&x| x as f32).collect(),
            vs.iter().map(|&x| x as f32).collect(),
        );
        let d = Matrix::<f32>::from_fn(5, 21, |i, j| value(i * 21 + j) as f32);
        let (mut want, mut got) = (d.clone(), d);
        let mut panel = OuterPanel::new();
        for t in 0..6 {
            want.add_outer(&us[t * 5..(t + 1) * 5], &vs[t * 21..(t + 1) * 21]);
            panel.push(&us[t * 5..(t + 1) * 5], &vs[t * 21..(t + 1) * 21]);
        }
        panel.flush(&mut got);
        assert_eq!(bits(got.data()), bits(want.data()));
    }

    #[test]
    #[should_panic(expected = "term shape mismatch")]
    fn a_term_of_another_shape_panics() {
        let mut panel = OuterPanel::new();
        panel.push(&[1.0, 2.0], &[3.0]);
        panel.push(&[1.0], &[3.0]);
    }

    #[test]
    fn kernel_name_is_consistent_with_the_knobs() {
        let name = panel_kernel_name();
        if !crate::simd_enabled() {
            assert_eq!(name, "scalar");
        }
        assert!(["scalar", "avx2", "avx512f"].contains(&name));
    }
}
