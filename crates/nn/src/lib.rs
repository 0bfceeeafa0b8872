//! Neural-network building blocks on top of [`rm_tensor`]: the plain
//! weights the neural imputation models train and infer with.
//!
//! * [`LinearWeights`] — a fully-connected layer, whose
//!   [`LinearWeights::affine`] is its one forward,
//! * [`LstmCellWeights`] — the recurrent cell, run by
//!   [`rm_tensor::recurrent::lstm_cell_forward`] and
//!   [`rm_tensor::recurrent::lstm_cell_backward`],
//! * [`MlpWeights`] — a feed-forward network's layers (BiSIM's attention
//!   alignment, SSGAN's discriminator), with [`Activation`] naming the
//!   activations a model fixes.
//!
//! Every type is plain matrices, generic over the [`rm_tensor::Scalar`]
//! precision, `Send + Sync`, and rounded once to `f32` by its `cast` for
//! the f32 inference path. The training tapes in `rm-imputers` and
//! `rm-bisim` update the matrices in place; the autodiff graph that is
//! their test oracle lives in the dev-only `rm-autodiff` crate.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use rm_nn::LinearWeights;
//!
//! // One Xavier-initialised layer mapping 3 inputs to 2 outputs.
//! // `LinearWeights` defaults to `LinearWeights<f64>`.
//! let mut rng = StdRng::seed_from_u64(42);
//! let layer: LinearWeights = LinearWeights::new(3, 2, &mut rng);
//! let mut y = [0.0; 2];
//! layer.affine(&[1.0, 0.0, -1.0], &mut y);
//! // The bias starts at zero, so y = W·x: column 0 minus column 2.
//! let w = layer.weight();
//! assert!((y[1] - (w.get(1, 0) - w.get(1, 2))).abs() < 1e-12);
//!
//! // The f32 inference path rounds the weights once.
//! let rounded: LinearWeights<f32> = layer.cast();
//! assert_eq!(rounded.weight().shape(), (2, 3));
//! ```

pub mod linear;
pub mod lstm;
pub mod mlp;

pub use linear::LinearWeights;
pub use lstm::LstmCellWeights;
pub use mlp::{Activation, MlpWeights};
