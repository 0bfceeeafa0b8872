//! Multilayer perceptrons' weights.

use rand::Rng;
use rm_tensor::Scalar;

use crate::LinearWeights;

/// Activation function applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// No activation (identity).
    Identity,
}

/// The layers of a feed-forward network, input to output: plain matrices,
/// so they are `Send + Sync` and shared across the deterministic thread
/// pool. The activations are part of the architecture the owning model
/// fixes — BiSIM's attention alignment (`e_ji = MLP(s_{j-1}, h''_i)`,
/// Eq. 10: tanh, then identity) and SSGAN's discriminator (ReLU, then
/// sigmoid) — so they are not stored here.
#[derive(Debug, Clone)]
pub struct MlpWeights<T: Scalar = f64> {
    layers: Vec<LinearWeights<T>>,
}

impl<T: Scalar> MlpWeights<T> {
    /// Freshly initialised layers, input to output, each drawn from `rng` by
    /// [`LinearWeights::new`]: `&[8, 16, 1]` maps 8 inputs through one
    /// 16-unit hidden layer to 1 output.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        Self {
            layers: sizes
                .windows(2)
                .map(|w| LinearWeights::new(w[0], w[1], rng))
                .collect(),
        }
    }

    /// The per-layer weights, mutably (see [`LinearWeights::parts_mut`]).
    pub fn layers_mut(&mut self) -> &mut [LinearWeights<T>] {
        &mut self.layers
    }

    /// Assembles the network from per-layer weights — the import
    /// constructor for weights rebuilt from exported tensors (the inverse of
    /// [`MlpWeights::layers`], as [`LinearWeights::from_parts`] is for one
    /// layer).
    ///
    /// # Panics
    /// Panics if `layers` is empty or consecutive layer shapes disagree.
    pub fn from_layers(layers: Vec<LinearWeights<T>>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].weight().rows(),
                pair[1].weight().cols(),
                "consecutive MLP layer shapes disagree"
            );
        }
        Self { layers }
    }

    /// The per-layer weights, input to output.
    pub fn layers(&self) -> &[LinearWeights<T>] {
        &self.layers
    }

    /// Rounds the weights to another precision.
    pub fn cast<U: Scalar>(&self) -> MlpWeights<U> {
        MlpWeights {
            layers: self.layers.iter().map(LinearWeights::cast).collect(),
        }
    }
}
