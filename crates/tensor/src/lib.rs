//! Dense matrices and the fused recurrent steps of the neural imputers.
//!
//! This crate is the numerical substrate for the neural imputation models in
//! the workspace (BiSIM, BRITS, SSGAN). It deliberately implements only what
//! those models need:
//!
//! * [`Scalar`] — the sealed precision trait (`f64`, `f32`) every kernel is
//!   generic over, and [`Precision`], the runtime knob that selects between
//!   them,
//! * [`activation`] — `exp`, `tanh` and `sigmoid` as this crate's own code
//!   (IEEE `+ − × ÷` only, no libm), with AVX-512F and AVX2 slice kernels
//!   bitwise equal to the scalar reference,
//! * [`Matrix`] — a dense row-major matrix (default `Matrix<f64>`) with the
//!   usual linear-algebra and element-wise operations; the blocked kernels
//!   dispatch to explicit-width AVX2 intrinsics ([`simd`]) when the CPU has
//!   them and fall back to the bitwise-identical scalar reference otherwise
//!   (`RM_SIMD=0` forces the reference),
//! * [`OuterPanel`] — the rank-1 weight-gradient terms one tensor receives
//!   during a backward, applied in one register-blocked pass ([`panel`]),
//! * [`recurrent`] — the forward and backward math of one LSTM step and one
//!   attention step on plain slices, which the training tapes call step by
//!   step,
//! * [`AdamStep`] — one Adam update of a parameter tensor's flat slices,
//! * [`NamedTensor`] — the export format of trained weights.
//!
//! The training tapes own their buffers, so nothing here pools or recycles
//! memory. The autodiff graph that is the tapes' test oracle lives in the
//! dev-only `rm-autodiff` crate.
//!
//! # Example
//!
//! ```
//! use rm_tensor::Matrix;
//!
//! // `Matrix` defaults to `Matrix<f64>`; `Matrix<f32>` is the
//! // single-precision instantiation.
//! let w: Matrix = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let x = Matrix::column(&[1.0, -1.0]);
//! let y = w.matmul(&x);
//! assert_eq!(y.data(), &[-1.0, -1.0]);
//!
//! // The transposed product `Wᵀ·g` of a backward pass, without a transpose.
//! let g = Matrix::column(&[1.0, 1.0]);
//! assert_eq!(w.matmul_at_b(&g).data(), &[4.0, 6.0]);
//! ```

pub mod activation;
pub mod export;
pub mod matrix;
pub mod panel;
pub mod recurrent;
pub mod scalar;
pub mod simd;

pub use activation::activation_kernel_name;
pub use export::{IntoTensorPayload, NamedTensor, TensorPayload};
pub use matrix::{Matrix, MATMUL_BLOCK};
pub use panel::{panel_kernel_name, OuterPanel};
pub use scalar::{Precision, Scalar};
pub use simd::{adam_kernel_name, matvec_kernel_name, simd_enabled, simd_kernel_name, AdamStep};
