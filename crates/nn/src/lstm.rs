//! The LSTM cell's weights, generic over the [`Scalar`] precision.
//!
//! [`rm_tensor::recurrent::lstm_cell_forward`] over
//! [`LstmCellWeights::gate_weights`] is the cell's one forward, which the
//! training tapes and inference run; [`rm_tensor::recurrent::lstm_cell_backward`]
//! is its gradient.

use rand::Rng;
use rm_tensor::recurrent::LstmGates;
use rm_tensor::Scalar;

/// The weights of a standard LSTM cell with input, forget, output and
/// candidate gates: plain matrices, so they are `Send + Sync` and shared
/// across the deterministic thread pool.
///
/// The BiSIM encoder and decoder units (Section IV-C of the paper) pass
/// their complemented feature vectors through this cell; the time-decay
/// factor is applied to the incoming hidden state *before* the cell, so the
/// cell itself stays a textbook LSTM.
#[derive(Debug, Clone)]
pub struct LstmCellWeights<T: Scalar = f64> {
    input_gate: crate::linear::LinearWeights<T>,
    forget_gate: crate::linear::LinearWeights<T>,
    output_gate: crate::linear::LinearWeights<T>,
    candidate: crate::linear::LinearWeights<T>,
    input_size: usize,
    hidden_size: usize,
}

impl<T: Scalar> LstmCellWeights<T> {
    /// Freshly initialised gates in step order, each drawn from `rng` by
    /// [`crate::LinearWeights::new`].
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        let concat = input_size + hidden_size;
        Self {
            input_gate: crate::LinearWeights::new(concat, hidden_size, rng),
            forget_gate: crate::LinearWeights::new(concat, hidden_size, rng),
            output_gate: crate::LinearWeights::new(concat, hidden_size, rng),
            candidate: crate::LinearWeights::new(concat, hidden_size, rng),
            input_size,
            hidden_size,
        }
    }

    /// The four gate layers in step order, mutably (see
    /// [`crate::LinearWeights::parts_mut`]).
    pub fn gates_mut(&mut self) -> [&mut crate::linear::LinearWeights<T>; 4] {
        [
            &mut self.input_gate,
            &mut self.forget_gate,
            &mut self.output_gate,
            &mut self.candidate,
        ]
    }

    /// Input feature size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden state size.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Rounds the snapshot to another precision.
    pub fn cast<U: Scalar>(&self) -> LstmCellWeights<U> {
        LstmCellWeights {
            input_gate: self.input_gate.cast(),
            forget_gate: self.forget_gate.cast(),
            output_gate: self.output_gate.cast(),
            candidate: self.candidate.cast(),
            input_size: self.input_size,
            hidden_size: self.hidden_size,
        }
    }

    /// The `(W, b)` pairs of the gates in step order, as
    /// [`rm_tensor::recurrent::lstm_cell_forward`] takes them.
    pub fn gate_weights(&self) -> LstmGates<'_, T> {
        self.gates().map(|layer| (layer.weight(), layer.bias()))
    }

    /// Bytes this snapshot keeps resident (the four gate layers at `T`).
    pub fn resident_bytes(&self) -> usize {
        self.input_gate.resident_bytes()
            + self.forget_gate.resident_bytes()
            + self.output_gate.resident_bytes()
            + self.candidate.resident_bytes()
    }

    /// The four gate snapshots in step order `(input, forget, output,
    /// candidate)` — read access for snapshot export.
    pub fn gates(&self) -> [&crate::linear::LinearWeights<T>; 4] {
        [
            &self.input_gate,
            &self.forget_gate,
            &self.output_gate,
            &self.candidate,
        ]
    }

    /// Rebuilds a snapshot from its four gate layers (in
    /// [`LstmCellWeights::gates`] order). The cell's sizes are recovered
    /// from the gate shapes: each gate maps `input_size + hidden_size`
    /// concatenated features to `hidden_size` outputs.
    ///
    /// # Panics
    /// Panics if the gate shapes disagree, or imply a non-positive input
    /// size.
    pub fn from_gates(
        input_gate: crate::linear::LinearWeights<T>,
        forget_gate: crate::linear::LinearWeights<T>,
        output_gate: crate::linear::LinearWeights<T>,
        candidate: crate::linear::LinearWeights<T>,
    ) -> Self {
        let hidden_size = input_gate.weight().rows();
        let concat = input_gate.weight().cols();
        for gate in [&forget_gate, &output_gate, &candidate] {
            assert_eq!(
                gate.weight().shape(),
                (hidden_size, concat),
                "LSTM gate shapes disagree"
            );
        }
        assert!(concat > hidden_size, "LSTM gate implies empty input");
        Self {
            input_gate,
            forget_gate,
            output_gate,
            candidate,
            input_size: concat - hidden_size,
            hidden_size,
        }
    }
}
