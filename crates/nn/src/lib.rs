//! Neural-network building blocks on top of [`rm_tensor`].
//!
//! Provides the layers, cells, losses and optimizers shared by the neural
//! imputation models in the workspace:
//!
//! * [`Linear`] — fully-connected layer,
//! * [`LstmCell`] / [`SimpleRecurrentCell`] — recurrent cells,
//! * [`Mlp`] — feed-forward network (used by BiSIM's attention alignment),
//! * [`Adam`] / [`Sgd`] — optimizers,
//! * masked losses in [`loss`] for reconstruction-based training on sparse
//!   radio maps.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use rm_nn::{loss, Adam, Linear, Optimizer};
//! use rm_tensor::{Matrix, Var};
//!
//! // Learn y = 2x with a single linear unit. `Linear` defaults to
//! // `Linear<f64>`; every layer is generic over `rm_tensor::Scalar`.
//! let mut rng = StdRng::seed_from_u64(42);
//! let layer: Linear = Linear::new(1, 1, &mut rng);
//! let mut opt = Adam::new(layer.parameters(), 0.05);
//! for _ in 0..300 {
//!     opt.zero_grad();
//!     let x = Var::constant(Matrix::from_vec(1, 1, vec![1.5]));
//!     let target = Matrix::from_vec(1, 1, vec![3.0]);
//!     let l = loss::mse(&layer.forward(&x), &target);
//!     l.backward();
//!     opt.step();
//! }
//! let y = layer.forward(&Var::constant(Matrix::from_vec(1, 1, vec![1.5])));
//! assert!((y.scalar_value() - 3.0).abs() < 0.05);
//! ```

pub mod linear;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod optim;

pub use linear::{Linear, LinearWeights};
pub use lstm::{LstmCell, LstmCellWeights, LstmState, LstmStateMatrix, SimpleRecurrentCell};
pub use mlp::{Activation, Mlp, MlpWeights};
pub use optim::{Adam, GradientBatch, Optimizer, Sgd};
