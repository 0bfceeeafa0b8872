//! Dense row-major matrices, generic over the [`Scalar`] precision.
//!
//! The matrix type is intentionally small and self-contained: the neural
//! models in this workspace (BiSIM, BRITS, SSGAN) use hidden sizes of at most
//! a few hundred, so a straightforward row-major `Vec<T>` representation
//! with cache-friendly inner loops is sufficient and keeps the autodiff layer
//! easy to reason about. `T` defaults to `f64` (the determinism-contract
//! precision); `Matrix<f32>` shares every kernel through monomorphisation and
//! gets twice the SIMD lanes out of the 4-wide unrolled inner loops.

use std::fmt;
use std::ops::{Add, Mul, Neg, Range, Sub};

use rand::Rng;

use crate::workspace::{self, Workspace};
use crate::Scalar;

/// Panel width of the blocked matmul kernel: [`Matrix::matmul_into`]
/// processes the reduction dimension in panels of this many `rhs` rows so the
/// panel fits in L1/L2 cache. 64 rows × up-to-a-few-hundred columns of `f64`
/// is ≤ ~200 KiB, comfortably within L2 for the hidden sizes this workspace
/// uses (an `f32` panel is half that).
pub const MATMUL_BLOCK: usize = 64;

/// The scalar reference formulation of the `y[j] += a * x[j]` row kernel
/// shared by [`Matrix::matmul_into`], [`Matrix::matmul_at_b`],
/// [`Matrix::add_outer`] and [`Matrix::axpy`].
///
/// Those consumers resolve [`crate::simd::kernel`] **once per call** and run
/// their whole loop either against this reference or inside a
/// `#[target_feature]` context where the explicit-width AVX2 kernels of
/// [`crate::simd`] inline (`RM_SIMD=0` forces this reference instead).
/// Because the update is element-wise independent and both paths perform one
/// multiply and one add per element in index order, the SIMD path is
/// **bit-identical** to this function at either precision — the parity
/// proptests below and `crate::simd`'s own tests check exactly that.
///
/// The loop is manually unrolled
/// 4-wide so the backend reliably auto-vectorises it at both precisions.
/// Each output element is touched exactly once, in index order, with a plain
/// multiply-then-add — so the result is bit-identical to the rolled
/// `for (o, &b) in y.iter_mut().zip(x)` loop at any precision. This is the
/// `RM_SIMD=0` bitwise-checked baseline the AVX2 kernels are compared
/// against.
#[inline]
pub(crate) fn axpy_row_scalar<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    let mut y_chunks = y.chunks_exact_mut(4);
    let mut x_chunks = x.chunks_exact(4);
    for (yc, xc) in (&mut y_chunks).zip(&mut x_chunks) {
        yc[0] += a * xc[0];
        yc[1] += a * xc[1];
        yc[2] += a * xc[2];
        yc[3] += a * xc[3];
    }
    for (o, &b) in y_chunks
        .into_remainder()
        .iter_mut()
        .zip(x_chunks.remainder())
    {
        *o += a * b;
    }
}

/// `y += alpha * x` over equal-length slices: the body of [`Matrix::axpy`],
/// also the in-place gradient accumulation of the autodiff backward pass.
#[allow(unsafe_code)] // audited dispatch into the detected arch kernels
pub(crate) fn axpy_slice<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if y.len() < crate::simd::SIMD_MIN_COLS {
        // Same narrow-operand reasoning as `matmul_into`.
        return axpy_row_scalar(alpha, x, y);
    }
    match crate::simd::kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
        // detection succeeded on this CPU.
        crate::simd::Kernel::Avx2 => unsafe { T::axpy_row_avx2(alpha, x, y) },
        _ => axpy_row_scalar(alpha, x, y),
    }
}

/// `out[r] += W[r, ..] · x` for a row-major `W` whose rows start `ld`
/// entries apart and hold `x.len()` columns from the start of `w` on: the
/// scalar column-vector kernel of [`Matrix::matmul_into`] and
/// [`Matrix::matvec_acc`] (the `RM_SIMD=0` reference of the AVX2
/// `Scalar::matvec_avx2`). Each row's accumulator starts at its `out[r]`
/// and adds `W[r, k] · x[k]` — one multiply, one add — in increasing `k`,
/// so a dot product split at any column and continued from the first
/// part's sums is bitwise the unsplit one. Rows go through [`matvec_rows`]
/// in blocks of 16, then 4, then 1, so up to 16 independent dot-product
/// chains are in flight: consecutive multiply-adds of one row no longer
/// wait on each other's latency, and each `x[k]` load is shared by the
/// whole block. Blocking changes which rows run together, never the
/// arithmetic of a row.
#[inline]
pub(crate) fn matvec_acc_into<T: Scalar>(w: &[T], ld: usize, x: &[T], out: &mut [T]) {
    debug_assert!(out.is_empty() || w.len() >= (out.len() - 1) * ld + x.len());
    let done = matvec_blocks::<T, 16>(w, ld, x, out, 0);
    let done = matvec_blocks::<T, 4>(w, ld, x, out, done);
    matvec_blocks::<T, 1>(w, ld, x, out, done);
}

/// Computes as many whole blocks of `R` output rows as fit from row `start`
/// on; returns the first row left over.
#[inline(always)]
fn matvec_blocks<T: Scalar, const R: usize>(
    w: &[T],
    ld: usize,
    x: &[T],
    out: &mut [T],
    start: usize,
) -> usize {
    let end = start + (out.len() - start) / R * R;
    for (b, o) in out[start..end].chunks_exact_mut(R).enumerate() {
        let first = start + b * R;
        let acc: &mut [T; R] = o.try_into().expect("block of R rows");
        matvec_rows::<T, R>(&w[first * ld..], ld, x, acc);
    }
    end
}

/// Continues the dot products of `R` rows (`ld` entries apart from the
/// start of `rows`) with `x` from the accumulators in `acc`. Each adds
/// `row[k] * x[k]` — one multiply, one add — in increasing `k`, the order of
/// [`Matrix::matmul_naive`]; the `R` chains are independent, so the block
/// changes throughput, not arithmetic.
#[inline(always)]
fn matvec_rows<T: Scalar, const R: usize>(rows: &[T], ld: usize, x: &[T], acc: &mut [T; R]) {
    let k = x.len();
    let rows: [&[T]; R] = std::array::from_fn(|r| &rows[r * ld..r * ld + k]);
    let mut a = *acc;
    for (j, &xj) in x.iter().enumerate() {
        for r in 0..R {
            a[r] += rows[r][j] * xj;
        }
    }
    *acc = a;
}

/// A dense row-major matrix of [`Scalar`] values (`f64` by default).
///
/// Backing buffers are checked out of this thread's
/// [`workspace`] buffer pool and returned to it on drop
/// (capacity-only reuse — every constructor initialises all entries, so
/// values are bitwise independent of where the buffer came from).
/// `RM_ARENA=0` bypasses the pool entirely.
#[derive(PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        let mut data = workspace::take_buffer(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl<T: Scalar> Drop for Matrix<T> {
    fn drop(&mut self) {
        workspace::give_buffer(std::mem::take(&mut self.data));
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> Matrix<T> {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::ZERO)
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::ONE)
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        let n = rows * cols;
        let mut data = workspace::take_buffer(n);
        data.resize(n, value);
        Self { rows, cols, data }
    }

    /// Reshapes `self` into a zero-filled `rows × cols` matrix in place,
    /// reusing the existing buffer capacity — bitwise identical to assigning
    /// a fresh [`Matrix::zeros`]. This is the reuse primitive behind
    /// [`Workspace::take`](crate::Workspace::take).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if self.data.capacity() < len {
            // Growing would reallocate through the global allocator; swap the
            // too-small buffer for a pooled one of the right class instead.
            crate::workspace::give_buffer(std::mem::replace(
                &mut self.data,
                crate::workspace::take_buffer(len),
            ));
        }
        self.data.clear();
        self.data.resize(len, T::ZERO);
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = workspace::take_buffer(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a column vector from a slice.
    pub fn column(values: &[T]) -> Self {
        let mut data = workspace::take_buffer(values.len());
        data.extend_from_slice(values);
        Self {
            rows: values.len(),
            cols: 1,
            data,
        }
    }

    /// Creates a column vector from an `f64` slice, rounding each entry to
    /// `T` — the bridge from the `f64` data-preparation layer into an
    /// `f32` inference kernel.
    pub fn column_from_f64(values: &[f64]) -> Self {
        let mut data = workspace::take_buffer(values.len());
        data.extend(values.iter().map(|&v| T::from_f64(v)));
        Self {
            rows: values.len(),
            cols: 1,
            data,
        }
    }

    /// Creates a row vector from a slice.
    pub fn row_vector(values: &[T]) -> Self {
        let mut data = workspace::take_buffer(values.len());
        data.extend_from_slice(values);
        Self {
            rows: 1,
            cols: values.len(),
            data,
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { T::ONE } else { T::ZERO })
    }

    /// Creates a matrix with entries sampled uniformly from `[-limit, limit]`.
    ///
    /// Sampling always consumes the RNG stream in `f64` (one draw per entry,
    /// rounded to `T` afterwards), so an `f32` matrix is the rounding of the
    /// `f64` matrix drawn from the same seed — not a different random draw.
    pub fn random_uniform(rows: usize, cols: usize, limit: f64, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| {
            T::from_f64(rng.gen_range(-limit..=limit))
        })
    }

    /// Xavier/Glorot uniform initialization for a layer mapping `cols` inputs
    /// to `rows` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Self::random_uniform(rows, cols, limit, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Entry accessor with bounds checking in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry mutator with bounds checking in debug builds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<T> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Rounds every entry to another [`Scalar`] precision. `f64 → f32` is the
    /// one-time weight-snapshot rounding of the f32 inference path;
    /// `f32 → f64` is lossless.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        let mut data = workspace::take_buffer(self.data.len());
        data.extend(self.data.iter().map(|&v| U::from_f64(v.to_f64())));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Matrix product `self * rhs`.
    ///
    /// Allocates the output and delegates to the blocked kernel
    /// [`Matrix::matmul_into`]; hot loops that can recycle an output buffer
    /// should call `matmul_into` directly.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` into a matrix checked out of `ws` — the
    /// workspace-backed variant of [`Matrix::matmul`] for snapshot-inference
    /// loops that return the product to the workspace each step. Bitwise
    /// identical to `matmul` (same [`Matrix::matmul_into`] kernel into a
    /// zeroed output).
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_ws(&self, rhs: &Matrix<T>, ws: &mut Workspace<T>) -> Matrix<T> {
        let mut out = ws.take(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into an existing output buffer
    /// (every entry is overwritten), using a kernel shaped for the operands.
    ///
    /// * **Column vector** (`rhs.cols == 1`, every batch-1 layer of the
    ///   recurrent imputers): row-blocked dot products, up to sixteen
    ///   independent accumulators at a time, each summing its row's terms
    ///   in increasing `k` — on AVX2 hosts in vector lanes, one row per lane
    ///   ([`crate::simd`]), bit-identical to the scalar blocks.
    /// * **Otherwise**: a cache-blocked i-k-j kernel. The reduction dimension
    ///   is processed in panels of [`MATMUL_BLOCK`] rows of `rhs`, so each
    ///   panel stays cache-hot while the kernel streams over the rows of
    ///   `self` and `out`; the inner loop is the [`crate::simd`]-dispatched
    ///   row kernel (scalar reference under `RM_SIMD=0`, and for rows
    ///   narrower than `SIMD_MIN_COLS`), contiguous over both
    ///   `rhs` and `out`.
    ///
    /// Either way every output entry starts at `+0.0` and accumulates one
    /// multiply and one add per term in increasing `k` order — exactly the
    /// order of the naive kernel — so for **finite inputs** the result is
    /// bit-identical to [`Matrix::matmul_naive`] at either precision. The
    /// blocked kernel skips exact-zero multiplicands of `self`; the dot
    /// kernel does not, and on finite inputs the two agree because a skipped
    /// term is a `±0.0` product and an accumulator that starts at `+0.0` is
    /// never `-0.0` (round-to-nearest turns an exact-zero sum into `+0.0`),
    /// so adding `±0.0` leaves it unchanged. (With NaN or ±∞ in `rhs` against
    /// a zero in `self`, the naive and dot kernels propagate the NaN while
    /// the blocked one does not.)
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or `out` has the wrong
    /// shape.
    #[allow(unsafe_code)] // audited dispatch into the target_feature loops below
    pub fn matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch: got {:?}, need {:?}",
            out.shape(),
            (self.rows, rhs.cols)
        );
        if rhs.cols == 1 {
            out.data.fill(T::ZERO);
            return self.matvec_acc(0, &rhs.data, &mut out.data);
        }
        out.data.iter_mut().for_each(|v| *v = T::ZERO);
        if rhs.cols < crate::simd::SIMD_MIN_COLS {
            // Narrow panels have no vector body to amortise the arch-kernel
            // dispatch; the bit-identical scalar reference inlines here.
            return self.matmul_into_body(rhs, out, axpy_row_scalar::<T>);
        }
        match crate::simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
            // detection succeeded on this CPU.
            crate::simd::Kernel::Avx2 => unsafe { self.matmul_into_avx2(rhs, out) },
            _ => self.matmul_into_body(rhs, out, axpy_row_scalar::<T>),
        }
    }

    /// The blocked i-k-j loop of [`Matrix::matmul_into`], generic over the
    /// row kernel so one definition serves the scalar reference and the
    /// `#[target_feature]` instantiation (where the closure inherits the
    /// caller's features and the intrinsics inline).
    #[inline(always)]
    fn matmul_into_body(
        &self,
        rhs: &Matrix<T>,
        out: &mut Matrix<T>,
        axpy: impl Fn(T, &[T], &mut [T]),
    ) {
        let n = rhs.cols;
        for kb in (0..self.cols).step_by(MATMUL_BLOCK) {
            let kend = (kb + MATMUL_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for k in kb..kend {
                    let a = a_row[k];
                    if a == T::ZERO {
                        continue;
                    }
                    let rhs_row = &rhs.data[k * n..(k + 1) * n];
                    axpy(a, rhs_row, out_row);
                }
            }
        }
    }

    /// The k-unrolled variant of [`Matrix::matmul_into_body`] the
    /// `#[target_feature]` wrappers run: panels advance four `rhs` rows at a
    /// time through the fused four-row kernel, which loads and stores each
    /// `out` vector once per four reduction steps instead of once per step.
    /// Per-element contributions keep the exact increasing-`k` order (the
    /// fused kernel is bit-identical to four sequential row updates), and
    /// exact zeros are still skipped one row at a time on the fallback arm,
    /// so the bit-compat contract with the scalar reference is untouched.
    #[inline(always)]
    fn matmul_into_body_x4(
        &self,
        rhs: &Matrix<T>,
        out: &mut Matrix<T>,
        axpy: impl Fn(T, &[T], &mut [T]),
        axpy4: impl Fn([T; 4], [&[T]; 4], &mut [T]),
    ) {
        let n = rhs.cols;
        for kb in (0..self.cols).step_by(MATMUL_BLOCK) {
            let kend = (kb + MATMUL_BLOCK).min(self.cols);
            for i in 0..self.rows {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                let mut k = kb;
                while k + 4 <= kend {
                    let a = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
                    if a[0] != T::ZERO && a[1] != T::ZERO && a[2] != T::ZERO && a[3] != T::ZERO {
                        let x = [
                            &rhs.data[k * n..(k + 1) * n],
                            &rhs.data[(k + 1) * n..(k + 2) * n],
                            &rhs.data[(k + 2) * n..(k + 3) * n],
                            &rhs.data[(k + 3) * n..(k + 4) * n],
                        ];
                        axpy4(a, x, out_row);
                    } else {
                        for (r, &ar) in a.iter().enumerate() {
                            if ar != T::ZERO {
                                axpy(ar, &rhs.data[(k + r) * n..(k + r + 1) * n], out_row);
                            }
                        }
                    }
                    k += 4;
                }
                for k in k..kend {
                    let a = a_row[k];
                    if a == T::ZERO {
                        continue;
                    }
                    axpy(a, &rhs.data[k * n..(k + 1) * n], out_row);
                }
            }
        }
    }

    /// [`Matrix::matmul_into_body_x4`] compiled in an AVX2 context so the
    /// explicit-width row kernels inline into the blocked loop.
    // SAFETY: `unsafe fn` contract is runtime AVX2 availability, upheld by
    // the `Kernel::Avx2` dispatch arm; the row kernels stay within the
    // equal-length row slices they are handed.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn matmul_into_avx2(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        // SAFETY: forwards this fn's own AVX2 contract to the row kernels.
        self.matmul_into_body_x4(
            rhs,
            out,
            |a, x, y| unsafe { T::axpy_row_avx2(a, x, y) },
            |a, x, y| unsafe { T::axpy_row4_avx2(a, x, y) },
        );
    }

    /// Continues each row's dot product with a column block of `self`:
    /// `acc[r] += self[r, start + k] · x[k]`, one multiply and one add per
    /// term, in increasing `k`, from the accumulator's current value. The
    /// column-vector product of [`Matrix::matmul_into`] is this from `+0.0`
    /// over every column, so a product split into column blocks and
    /// continued block by block is bitwise the whole one — which lets a
    /// caller compute a shared prefix (`W[:, ..h] · s`) once and continue
    /// it against several suffixes. On AVX2 hosts the rows run one per
    /// vector lane ([`crate::simd`]), bit-identical to the scalar blocks.
    ///
    /// # Panics
    /// Panics if `acc` does not have one entry per row or the block runs
    /// past the last column.
    #[allow(unsafe_code)] // audited dispatch into the detected arch kernel
    pub fn matvec_acc(&self, start: usize, x: &[T], acc: &mut [T]) {
        assert_eq!(
            acc.len(),
            self.rows,
            "matvec_acc accumulator length mismatch"
        );
        assert!(
            start + x.len() <= self.cols,
            "matvec_acc columns {start}..{} out of {}",
            start + x.len(),
            self.cols
        );
        if self.rows == 0 {
            return;
        }
        let w = &self.data[start..];
        match crate::simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
            // detection succeeded on this CPU, and the shapes were checked
            // above.
            crate::simd::Kernel::Avx2 => unsafe { T::matvec_avx2(w, self.cols, x, acc) },
            _ => matvec_acc_into(w, self.cols, x, acc),
        }
    }

    /// Reference matrix product: the textbook triple loop, kept as the ground
    /// truth the blocked kernel is property-tested against.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_naive(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
                }
            }
        }
        out
    }

    /// Computes `selfᵀ * rhs` without materialising the transpose: the kernel
    /// walks both operands row by row and accumulates rank-1 updates, keeping
    /// the inner loop the [`crate::simd`]-dispatched row kernel. This is the
    /// gradient kernel for the right operand of a matmul (`dB = Aᵀ · dC`);
    /// the left-operand gradient (`dA = dC · Bᵀ`) stays on the blocked kernel
    /// with an explicit transpose, or is the in-place [`Matrix::add_outer`]
    /// when `B` is a column.
    ///
    /// For a column `rhs` (`Wᵀ · g` in batch-1 training) each row `k` of
    /// `self` is one dispatched axpy `out += rhs[k] · self[k, :]` over the
    /// whole output; wider `rhs` scatters `self[k][i] · rhs[k, :]` into
    /// output row `i`. Both accumulate every output entry from `+0.0` in
    /// increasing `k` with one multiply and one add per term, so they are
    /// bit-identical to `selfᵀ` through [`Matrix::matmul_naive`] on finite
    /// inputs. The column path skips rows whose `rhs[k]` is an exact zero and
    /// the wide path skips exact-zero entries of `self`; either way a skipped
    /// term is a `±0.0` product, which leaves an accumulator that started at
    /// `+0.0` unchanged (see [`Matrix::matmul_into`]), so NaN/±∞ are the only
    /// inputs where the skip shows.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    #[allow(unsafe_code)] // audited dispatch into the target_feature loops below
    pub fn matmul_at_b(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        if rhs.cols == 1 {
            self.matmul_at_b_col_into(&rhs.data, 0..self.cols, &mut out.data);
            return out;
        }
        if rhs.cols < crate::simd::SIMD_MIN_COLS {
            // Narrow rows have no vector body to amortise the dispatch.
            self.matmul_at_b_body(rhs, &mut out, axpy_row_scalar::<T>);
            return out;
        }
        match crate::simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
            // detection succeeded on this CPU.
            crate::simd::Kernel::Avx2 => unsafe { self.matmul_at_b_avx2(rhs, &mut out) },
            _ => self.matmul_at_b_body(rhs, &mut out, axpy_row_scalar::<T>),
        }
        out
    }

    /// The loop of [`Matrix::matmul_at_b`], generic over the row kernel
    /// (same single-definition reasoning as [`Matrix::matmul_into_body`]).
    #[inline(always)]
    fn matmul_at_b_body(
        &self,
        rhs: &Matrix<T>,
        out: &mut Matrix<T>,
        axpy: impl Fn(T, &[T], &mut [T]),
    ) {
        let n = rhs.cols;
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let rhs_row = &rhs.data[k * n..(k + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == T::ZERO {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                axpy(a, rhs_row, out_row);
            }
        }
    }

    /// The column case of [`Matrix::matmul_at_b`] over a block of `self`'s
    /// columns: `out = self[:, cols]ᵀ · g` for a column `g` of `self.rows`
    /// entries, each row `k` one dispatched axpy `out += g[k] · self[k, cols]`
    /// (skipped when `g[k]` is an exact zero) from `+0.0`. Every output entry
    /// is its own sum, so the block is bitwise the same entries of the whole
    /// product: a fused backward computes only the columns whose parent
    /// keeps a gradient.
    #[allow(unsafe_code)] // audited dispatch into the target_feature loops below
    pub(crate) fn matmul_at_b_col_into(&self, g: &[T], cols: Range<usize>, out: &mut [T]) {
        assert_eq!(g.len(), self.rows, "matmul_at_b gradient length mismatch");
        assert!(
            cols.end <= self.cols,
            "matmul_at_b column block out of range"
        );
        assert_eq!(out.len(), cols.len(), "matmul_at_b output length mismatch");
        out.fill(T::ZERO);
        // The axpys run over rows of `self`, so the vector width is the
        // block's.
        if cols.len() < crate::simd::SIMD_MIN_COLS {
            // Narrow rows have no vector body to amortise the dispatch.
            return self.at_col_body(g, cols, out, axpy_row_scalar::<T>);
        }
        match crate::simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
            // detection succeeded on this CPU.
            crate::simd::Kernel::Avx2 => unsafe { self.at_col_avx2(g, cols, out) },
            _ => self.at_col_body(g, cols, out, axpy_row_scalar::<T>),
        }
    }

    /// The row loop of [`Matrix::matmul_at_b_col_into`], generic over the
    /// row kernel.
    #[inline(always)]
    fn at_col_body(
        &self,
        g: &[T],
        cols: Range<usize>,
        out: &mut [T],
        axpy: impl Fn(T, &[T], &mut [T]),
    ) {
        let c = self.cols;
        for (k, &gk) in g.iter().enumerate() {
            if gk != T::ZERO {
                axpy(gk, &self.data[k * c + cols.start..k * c + cols.end], out);
            }
        }
    }

    /// [`Matrix::at_col_body`] compiled in an AVX2 context.
    // SAFETY: `unsafe fn` contract is runtime AVX2 availability, upheld by
    // the `Kernel::Avx2` dispatch arm; the row kernel stays within the
    // equal-length row slices it is handed.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn at_col_avx2(&self, g: &[T], cols: Range<usize>, out: &mut [T]) {
        // SAFETY: forwards this fn's own AVX2 contract to the row kernel.
        self.at_col_body(g, cols, out, |a, x, y| unsafe { T::axpy_row_avx2(a, x, y) });
    }

    /// [`Matrix::matmul_at_b_body`] compiled in an AVX2 context.
    // SAFETY: `unsafe fn` contract is runtime AVX2 availability, upheld by
    // the `Kernel::Avx2` dispatch arm; the row kernel stays within the
    // equal-length row slices it is handed.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn matmul_at_b_avx2(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        // SAFETY: forwards this fn's own AVX2 contract to the row kernel.
        self.matmul_at_b_body(rhs, out, |a, x, y| unsafe { T::axpy_row_avx2(a, x, y) });
    }

    /// In-place rank-1 update `self += u · vᵀ` (`u.len() == rows`,
    /// `v.len() == cols`): row `i` gets one [`crate::simd`]-dispatched axpy
    /// `self[i, :] += u[i] · v`, skipped when `u[i]` is an exact zero. This is
    /// the left-operand gradient `dW += g · xᵀ` of a matmul against a column
    /// `x`, written straight into the gradient buffer.
    ///
    /// It is bit-identical, on finite inputs, to building the outer product
    /// with [`Matrix::matmul_into`] (`g` as an `m × 1` matrix times `xᵀ`)
    /// and adding it through [`Matrix::axpy`] with `alpha = 1`, provided no
    /// entry of `self` is `-0.0` — which holds for gradient buffers, since
    /// they start at `+0.0` and only ever have values added to them. Each
    /// product entry is a single term, so the temporary held `+0.0 + u[i]·v[j]`,
    /// which differs from `u[i]·v[j]` only when the product is `-0.0`; and
    /// adding `±0.0` to an entry that is not `-0.0` leaves it unchanged
    /// either way. A skipped row is the same `±0.0` argument.
    ///
    /// # Panics
    /// Panics if the lengths do not match the shape.
    #[allow(unsafe_code)] // audited dispatch into the detected arch kernels
    pub fn add_outer(&mut self, u: &[T], v: &[T]) {
        assert_eq!(
            (u.len(), v.len()),
            self.shape(),
            "add_outer shape mismatch: {}x{} += ({}x1)·(1x{})",
            self.rows,
            self.cols,
            u.len(),
            v.len()
        );
        if self.cols < crate::simd::SIMD_MIN_COLS {
            // Same narrow-row reasoning as `matmul_into`.
            return self.add_outer_body(u, v, axpy_row_scalar::<T>);
        }
        match crate::simd::kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only resolved after runtime AVX2
            // detection succeeded on this CPU.
            crate::simd::Kernel::Avx2 => unsafe { self.add_outer_avx2(u, v) },
            _ => self.add_outer_body(u, v, axpy_row_scalar::<T>),
        }
    }

    /// The row loop of [`Matrix::add_outer`], generic over the row kernel.
    #[inline(always)]
    fn add_outer_body(&mut self, u: &[T], v: &[T], axpy: impl Fn(T, &[T], &mut [T])) {
        let n = self.cols;
        for (i, &ui) in u.iter().enumerate() {
            if ui != T::ZERO {
                axpy(ui, v, &mut self.data[i * n..(i + 1) * n]);
            }
        }
    }

    /// [`Matrix::add_outer_body`] compiled in an AVX2 context.
    // SAFETY: `unsafe fn` contract is runtime AVX2 availability, upheld by
    // the `Kernel::Avx2` dispatch arm; the row kernel stays within the
    // equal-length row slices it is handed.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn add_outer_avx2(&mut self, u: &[T], v: &[T]) {
        // SAFETY: forwards this fn's own AVX2 contract to the row kernel.
        self.add_outer_body(u, v, |a, x, y| unsafe { T::axpy_row_avx2(a, x, y) });
    }

    /// Adds the column vector `col` (shape `(rows, 1)`) to every column of
    /// `self` — the broadcast used by bias additions.
    ///
    /// # Panics
    /// Panics if `col` is not a column vector with matching row count.
    pub fn add_broadcast_col(&self, col: &Matrix<T>) -> Matrix<T> {
        let mut out = self.clone();
        out.add_broadcast_col_assign(col);
        out
    }

    /// In-place [`Matrix::add_broadcast_col`]: `self[r, c] += col[r]`.
    ///
    /// # Panics
    /// Panics if `col` is not a column vector with matching row count.
    pub fn add_broadcast_col_assign(&mut self, col: &Matrix<T>) {
        assert_eq!(self.rows, col.rows, "broadcast add row mismatch");
        assert_eq!(col.cols, 1, "broadcast operand must be a column vector");
        if self.cols == 0 {
            return;
        }
        for (row, &b) in self.data.chunks_exact_mut(self.cols).zip(&col.data) {
            row.iter_mut().for_each(|v| *v += b);
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Applies `f` to every entry, producing a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T) -> Matrix<T> {
        let mut data = workspace::take_buffer(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` entry-wise to the pair `(self, rhs)`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_with(&self, rhs: &Matrix<T>, f: impl Fn(T, T) -> T) -> Matrix<T> {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut data = workspace::take_buffer(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * rhs`, through the [`crate::simd`]-dispatched
    /// row kernel (`axpy_row_scalar` under `RM_SIMD=0`; bit-identical
    /// either way).
    pub fn axpy(&mut self, alpha: T, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        axpy_slice(alpha, &rhs.data, &mut self.data);
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        self.map(|v| v * s)
    }

    /// Sum of all entries, accumulated in index order.
    pub fn sum(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &v| acc + v)
    }

    /// Mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> T {
        if self.data.is_empty() {
            T::ZERO
        } else {
            self.sum() / T::from_f64(self.data.len() as f64)
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &v| acc + v * v).sqrt()
    }

    /// Maximum entry, or `None` when empty.
    pub fn max(&self) -> Option<T> {
        self.data.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Minimum entry, or `None` when empty.
    pub fn min(&self) -> Option<T> {
        self.data.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.min(v),
            })
        })
    }

    /// Vertically stacks `self` above `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = workspace::take_buffer(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Horizontally stacks `self` to the left of `other`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        Matrix::from_fn(self.rows, self.cols + other.cols, |r, c| {
            if c < self.cols {
                self.get(r, c)
            } else {
                other.get(r, c - self.cols)
            }
        })
    }

    /// Extracts rows `[start, start + count)` into a new matrix.
    pub fn slice_rows(&self, start: usize, count: usize) -> Matrix<T> {
        assert!(start + count <= self.rows, "slice_rows out of range");
        let mut data = workspace::take_buffer(count * self.cols);
        data.extend_from_slice(&self.data[start * self.cols..(start + count) * self.cols]);
        Matrix::from_vec(count, self.cols, data)
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns `true` if the two matrices have the same shape and every
    /// entry is **bit-identical** (via [`Scalar::to_bits_u64`]) — the
    /// equality the determinism contract is stated in. Unlike `==` or
    /// [`Matrix::approx_eq`] this distinguishes `-0.0` from `0.0` and is
    /// reflexive on NaN payloads.
    pub fn bits_eq(&self, other: &Matrix<T>) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.to_bits_u64() == b.to_bits_u64())
    }

    /// Returns `true` if the two matrices have the same shape and all entries
    /// differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix<T>, tol: T) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl<T: Scalar> Mul<T> for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: T) -> Matrix<T> {
        self.scale(rhs)
    }
}

impl<T: Scalar> Neg for &Matrix<T> {
    type Output = Matrix<T>;
    fn neg(self) -> Matrix<T> {
        self.scale(-T::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert_eq!(m[(0, 2)], 3.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert!(m.matmul(&i).approx_eq(&m, 1e-12));
        assert!(i.matmul(&m).approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert!(c.approx_eq(
            &Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[track_caller]
    fn assert_kernel_parity<T: Scalar>(got: &Matrix<T>, want: &Matrix<T>) {
        assert!(got.bits_eq(want), "kernel not bit-identical to reference");
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        let mut rng = StdRng::seed_from_u64(99);
        // Shapes straddling the block boundary exercise full and ragged panels.
        for (m, k, n) in [(1, 1, 1), (3, 64, 5), (7, 65, 9), (20, 130, 17)] {
            let a = Matrix::<f64>::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::<f64>::random_uniform(k, n, 1.0, &mut rng);
            assert_kernel_parity(&a.matmul(&b), &a.matmul_naive(&b));
        }
    }

    #[test]
    fn f32_blocked_matmul_is_bit_identical_to_f32_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        for (m, k, n) in [(1, 1, 1), (3, 64, 5), (7, 65, 9), (20, 130, 17)] {
            let a = Matrix::<f32>::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::<f32>::random_uniform(k, n, 1.0, &mut rng);
            assert_kernel_parity(&a.matmul(&b), &a.matmul_naive(&b));
        }
    }

    #[test]
    fn bits_eq_distinguishes_signed_zero_and_shapes() {
        let pos = Matrix::from_vec(1, 1, vec![0.0f64]);
        let neg = Matrix::from_vec(1, 1, vec![-0.0f64]);
        assert!(pos == neg, "PartialEq treats -0.0 == 0.0");
        assert!(!pos.bits_eq(&neg), "bits_eq must not");
        assert!(pos.bits_eq(&pos.clone()));
        assert!(!pos.bits_eq(&Matrix::<f64>::zeros(1, 2)));
    }

    #[test]
    fn matmul_into_reuses_the_output_buffer() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Pre-filled garbage must be overwritten, not accumulated into.
        let mut out = Matrix::filled(2, 2, 123.0);
        a.matmul_into(&b, &mut out);
        assert!(out.approx_eq(&a.matmul(&b), 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul_into output shape mismatch")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(3, 2);
        let mut out = Matrix::<f64>::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transposed_kernel_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(123);
        let a = Matrix::<f64>::random_uniform(5, 7, 1.0, &mut rng);
        let c = Matrix::<f64>::random_uniform(5, 3, 1.0, &mut rng);
        assert!(a
            .matmul_at_b(&c)
            .approx_eq(&a.transpose().matmul(&c), 1e-12));
    }

    #[test]
    fn add_broadcast_col_adds_to_every_column() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let col = Matrix::column(&[10.0, 20.0]);
        let out = m.add_broadcast_col(&col);
        assert!(out.approx_eq(
            &Matrix::from_vec(2, 3, vec![11.0, 12.0, 13.0, 24.0, 25.0, 26.0]),
            0.0
        ));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Matrix::<f64>::random_uniform(3, 5, 1.0, &mut rng);
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert!((&a + &b).approx_eq(&Matrix::from_vec(2, 2, vec![6.0, 8.0, 10.0, 12.0]), 1e-12));
        assert!((&b - &a).approx_eq(&Matrix::filled(2, 2, 4.0), 1e-12));
        assert!(a
            .hadamard(&b)
            .approx_eq(&Matrix::from_vec(2, 2, vec![5.0, 12.0, 21.0, 32.0]), 1e-12));
        assert!((&a * 2.0).approx_eq(&Matrix::from_vec(2, 2, vec![2.0, 4.0, 6.0, 8.0]), 1e-12));
        assert!((-&a).approx_eq(&a.scale(-1.0), 1e-12));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.max(), Some(4.0));
        assert_eq!(m.min(), Some(1.0));
        assert!((m.frobenius_norm() - 30.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(Matrix::<f64>::zeros(0, 0).mean(), 0.0);
        assert_eq!(Matrix::<f64>::zeros(0, 0).max(), None);
    }

    #[test]
    fn stacking_and_slicing() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        let sliced = v.slice_rows(1, 2);
        assert!(sliced.approx_eq(&b, 1e-12));

        let c = Matrix::column(&[1.0, 2.0]);
        let d = Matrix::column(&[3.0, 4.0]);
        let h = c.hstack(&d);
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.get(1, 1), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert!(a.approx_eq(&Matrix::filled(2, 2, 7.0), 1e-12));
    }

    #[test]
    fn axpy_matches_rolled_loop_past_the_unroll_boundary() {
        // 11 entries: two full 4-wide chunks plus a 3-entry remainder.
        let mut rng = StdRng::seed_from_u64(17);
        let x = Matrix::<f64>::random_uniform(1, 11, 1.0, &mut rng);
        let y0 = Matrix::<f64>::random_uniform(1, 11, 1.0, &mut rng);
        let mut unrolled = y0.clone();
        unrolled.axpy(0.75, &x);
        let rolled = Matrix::from_vec(
            1,
            11,
            y0.data()
                .iter()
                .zip(x.data().iter())
                .map(|(&y, &xv)| y + 0.75 * xv)
                .collect(),
        );
        assert_kernel_parity(&unrolled, &rolled);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::<f64>::xavier(16, 16, &mut rng);
        let limit = (6.0 / 32.0f64).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= limit));
        assert!(m.is_finite());
    }

    #[test]
    fn column_and_row_vectors() {
        let c = Matrix::column(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        assert!(c.transpose().approx_eq(&r, 1e-12));
    }

    #[test]
    fn cast_rounds_and_widens() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 0.1, -2.5]);
        let m32: Matrix<f32> = m.cast();
        assert_eq!(m32.get(0, 0), 1.0f32);
        assert_eq!(m32.get(0, 1), 0.1f64 as f32);
        // f32 -> f64 is lossless.
        let back: Matrix<f64> = m32.cast();
        assert_eq!(back.get(0, 2), -2.5);
        assert_eq!(back.get(0, 1), (0.1f64 as f32) as f64);
        // Same-precision cast is the identity.
        assert!(m.cast::<f64>().approx_eq(&m, 0.0));
    }

    #[test]
    fn reset_zeros_is_bitwise_fresh_zeros() {
        let mut m = Matrix::filled(4, 4, f64::NAN);
        m.reset_zeros(3, 5);
        assert!(m.bits_eq(&Matrix::zeros(3, 5)));
        // Growing past the old capacity also stays exact.
        m.reset_zeros(9, 9);
        assert!(m.bits_eq(&Matrix::zeros(9, 9)));
    }

    #[test]
    fn matmul_ws_matches_matmul_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut ws = Workspace::new();
        for (m, k, n) in [(1, 1, 1), (3, 64, 5), (7, 65, 9)] {
            let a = Matrix::<f64>::random_uniform(m, k, 1.0, &mut rng);
            let b = Matrix::<f64>::random_uniform(k, n, 1.0, &mut rng);
            let via_ws = a.matmul_ws(&b, &mut ws);
            assert!(via_ws.bits_eq(&a.matmul(&b)));
            ws.give(via_ws);
        }
    }

    #[test]
    fn clone_of_pooled_matrix_is_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(57);
        let m = Matrix::<f64>::random_uniform(6, 7, 1.0, &mut rng);
        let c = m.clone();
        assert!(c.bits_eq(&m));
        drop(m);
        // The clone owns its buffer: dropping the original and building new
        // matrices over the reclaimed capacity must not disturb it.
        let _noise = Matrix::<f64>::filled(6, 7, f64::NAN);
        assert_eq!(c.shape(), (6, 7));
        assert!(c.is_finite());
    }

    #[test]
    fn column_from_f64_rounds_per_entry() {
        let c = Matrix::<f32>::column_from_f64(&[0.1, 0.2]);
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c.get(0, 0), 0.1f64 as f32);
        assert_eq!(c.get(1, 0), 0.2f64 as f32);
        let c64 = Matrix::<f64>::column_from_f64(&[0.1]);
        assert_eq!(c64.get(0, 0), 0.1);
    }

    /// Runs every `axpy_row` consumer at one random shape and asserts the
    /// dispatched kernel (AVX2 under the default `RM_SIMD=1`, the scalar
    /// reference under `RM_SIMD=0` or off-x86 hosts) is bit-identical to
    /// formulations that never touch `axpy_row`: `matmul_naive`, explicit
    /// transpose + naive, and the rolled axpy loop. Output buffers are
    /// pre-dirtied through the pool so capacity reuse cannot mask a stale
    /// read. The CI `test-no-simd` leg runs this same property against the
    /// forced scalar path, closing the parity check from both sides.
    fn axpy_consumers_match_reference<T: Scalar>(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix<T> = Matrix::<f64>::random_uniform(m, k, 1.0, &mut rng).cast();
        let b: Matrix<T> = Matrix::<f64>::random_uniform(k, n, 1.0, &mut rng).cast();
        let grad: Matrix<T> = Matrix::<f64>::random_uniform(m, n, 1.0, &mut rng).cast();

        // Dirty the output through the pool: fill with NaN, then overwrite.
        let mut out = Matrix::<T>::filled(m, n, T::from_f64(f64::NAN));
        a.matmul_into(&b, &mut out);
        assert_kernel_parity(&out, &a.matmul_naive(&b));

        let at_b = a.matmul_at_b(&grad);
        assert_kernel_parity(&at_b, &a.transpose().matmul_naive(&grad));

        let alpha = T::from_f64(0.375);
        let x: Matrix<T> = Matrix::<f64>::random_uniform(m, n, 1.0, &mut rng).cast();
        let mut acc = grad.clone();
        acc.axpy(alpha, &x);
        let rolled = Matrix::from_vec(
            m,
            n,
            grad.data()
                .iter()
                .zip(x.data().iter())
                .map(|(&y, &xv)| y + alpha * xv)
                .collect(),
        );
        assert_kernel_parity(&acc, &rolled);
    }

    /// Entries uniform in `[-1, 1]` with exact `+0.0` and `-0.0` mixed in
    /// (a sixth each), so the zero-skip and signed-zero arguments of the
    /// narrow kernels are exercised, not just their arithmetic.
    fn signed_zero_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<T> {
        use rand::Rng;
        Matrix::<f64>::from_fn(rows, cols, |_, _| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..=1.0),
        })
        .cast()
    }

    /// The batch-1 training kernels against formulations that never touch
    /// them: `W·x` and `Wᵀ·g` against `matmul_naive` (on an explicit
    /// transpose), and the in-place `dW += g·xᵀ` against the route it
    /// replaced — the outer product materialised from `+0.0` and added with
    /// a rolled loop. The gradient buffer gets `+0.0` but never `-0.0`
    /// entries, the invariant `add_outer` documents.
    fn narrow_kernels_match_reference<T: Scalar>(m: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = signed_zero_matrix::<T>(m, k, &mut rng);
        let x = signed_zero_matrix::<T>(k, 1, &mut rng);
        let g = signed_zero_matrix::<T>(m, 1, &mut rng);

        let mut out = Matrix::<T>::filled(m, 1, T::from_f64(f64::NAN));
        w.matmul_into(&x, &mut out);
        assert!(out.bits_eq(&w.matmul_naive(&x)), "W·x not bit-identical");

        assert_kernel_parity(&w.matmul_at_b(&g), &w.transpose().matmul_naive(&g));

        let grad = signed_zero_matrix::<T>(m, k, &mut rng).map(|v| v + T::ZERO);
        let outer = g.matmul_naive(&x.transpose());
        let old_route = &grad + &outer;
        let mut in_place = grad;
        in_place.add_outer(g.data(), x.data());
        assert_kernel_parity(&in_place, &old_route);
    }

    #[test]
    fn narrow_kernels_cover_empty_and_unit_inner_dimensions() {
        for m in [0, 1, 3, 7, 8, 9, 17] {
            for k in [0, 1, 2, 16, 17] {
                narrow_kernels_match_reference::<f64>(m, k, (m * 31 + k) as u64);
                narrow_kernels_match_reference::<f32>(m, k, (m * 37 + k) as u64);
            }
        }
    }

    mod simd_parity {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// SIMD ≡ scalar, bit for bit, at random shapes straddling the
            /// vector width and the matmul block, for both dtypes, with
            /// dirty pooled output buffers.
            #[test]
            fn dispatched_kernels_are_bit_identical_to_references(
                m in 1usize..20,
                k in 1usize..90,
                n in 1usize..20,
                seed in any::<u64>(),
            ) {
                axpy_consumers_match_reference::<f64>(m, k, n, seed);
                axpy_consumers_match_reference::<f32>(m, k, n, seed);
            }

            /// The column-vector kernels ≡ their references, bit for bit, at
            /// random heights straddling the eight-row block and inner
            /// dimensions straddling the vector width, with `±0.0` entries.
            #[test]
            fn narrow_kernels_are_bit_identical_to_references(
                m in 0usize..40,
                k in 0usize..150,
                seed in any::<u64>(),
            ) {
                narrow_kernels_match_reference::<f64>(m, k, seed);
                narrow_kernels_match_reference::<f32>(m, k, seed);
            }
        }
    }
}
