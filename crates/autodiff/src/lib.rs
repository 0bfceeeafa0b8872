//! The reverse-mode autodiff graph, kept as the test oracle of the
//! workspace's training tapes.
//!
//! BiSIM, BRITS and SSGAN train on hand-written tapes over plain weights;
//! no shipped crate builds a graph. Their tests build the same models from
//! the graph types below and hold each tape to the graph bit for bit (the
//! loss and every gradient tensor), so this crate is only ever a
//! dev-dependency:
//!
//! * [`Var`] — a node in a dynamically-built reverse-mode autodiff graph,
//!   with fused one-node LSTM and attention steps whose forward and backward
//!   math ([`rm_tensor::recurrent`]) the tapes share,
//! * [`Linear`], [`LstmCell`] / [`LstmState`] and [`Mlp`] — the `rm-nn`
//!   layers as graph nodes, built from and copied back into their plain
//!   weights,
//! * masked losses in [`loss`] and the [`Adam`] optimizer over graph
//!   parameters.
//!
//! # Example
//!
//! ```
//! use rm_autodiff::Var;
//! use rm_tensor::Matrix;
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
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod optim;

pub use autodiff::{InputPart, Var};
pub use linear::Linear;
pub use lstm::{LstmCell, LstmState};
pub use mlp::Mlp;
pub use optim::Adam;
