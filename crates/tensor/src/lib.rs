//! Dense matrices and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the neural imputation models in
//! the workspace (BiSIM, BRITS, SSGAN). It deliberately implements only what
//! those models need:
//!
//! * [`Scalar`] — the sealed precision trait (`f64`, `f32`) every kernel is
//!   generic over, and [`Precision`], the runtime knob that selects between
//!   them,
//! * [`Matrix`] — a dense row-major matrix (default `Matrix<f64>`) with the
//!   usual linear-algebra and element-wise operations; the blocked kernels
//!   dispatch to explicit-width AVX2 intrinsics ([`simd`]) when the CPU has
//!   them and fall back to the bitwise-identical scalar reference otherwise
//!   (`RM_SIMD=0` forces the reference),
//! * [`Var`] — a node in a dynamically-built reverse-mode autodiff graph
//!   (default `Var<f64>`), supporting matrix products, the fused affine map
//!   of a linear layer, element-wise arithmetic, activations, masking,
//!   scalar reductions, and one-node LSTM and attention steps whose forward
//!   and backward math ([`recurrent`]) the graph-free paths share,
//! * the per-thread buffer pools behind every [`Matrix`] constructor — the
//!   arena layer ([`workspace`]) that keeps the graph's hot loops
//!   allocation-free; `RM_ARENA=0` restores the fresh-allocation reference
//!   path.
//!
//! # Example
//!
//! ```
//! use rm_tensor::{Matrix, Var};
//!
//! // Fit y = w * x with one gradient step. `Var` defaults to `Var<f64>`;
//! // swap in `Var<f32>` for the single-precision instantiation.
//! let w: Var = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
//! let x = Var::constant(Matrix::from_vec(1, 1, vec![2.0]));
//! let y = Var::constant(Matrix::from_vec(1, 1, vec![6.0]));
//!
//! let loss = w.matmul(&x).sub(&y).square().sum();
//! loss.backward();
//!
//! // d/dw (w*2 - 6)^2 = 2*(w*2-6)*2 = -24 at w = 0.
//! assert!((w.grad().get(0, 0) + 24.0).abs() < 1e-9);
//! ```

pub mod autodiff;
pub mod export;
pub mod matrix;
pub mod recurrent;
pub mod scalar;
pub mod simd;
pub mod workspace;

pub use autodiff::{InputPart, Var};
pub use export::{IntoTensorPayload, NamedTensor, TensorPayload};
pub use matrix::{Matrix, MATMUL_BLOCK};
pub use scalar::{Precision, Scalar};
pub use simd::{adam_kernel_name, simd_enabled, simd_kernel_name, AdamStep};
pub use workspace::{arena_enabled, buffer_pool_stats, BufferPoolStats};
