//! The LSTM cell as graph nodes, generic over the [`Scalar`] precision.
//!
//! One LSTM step is one graph node ([`Var::lstm_cell`]): the four gate
//! affine maps, their activations and the state update run inside it, and
//! its backward hands out bitwise the gradients of the 14-node chain it
//! replaced. The cell state `c` lives inside the node, not in a node of its
//! own: an [`LstmState`] carries the hidden vector and the previous step's
//! node, which the next step reads `c` from and hands `∂c` back to.
//!
//! The graph node and the plain weights ([`LstmCellWeights::gate_weights`]
//! fed to [`rm_tensor::recurrent::lstm_cell_forward`]) run the same
//! forward, so the two are bit-identical at the same precision by
//! construction (see the parity tests below).

use rand::Rng;
use rm_nn::LstmCellWeights;
use rm_tensor::{Matrix, Scalar};

use crate::{InputPart, Linear, Var};

/// The state carried between recurrent steps: the hidden vector `h` and
/// the step node that carries the cell state `c`.
#[derive(Clone)]
pub struct LstmState<T: Scalar = f64> {
    /// Hidden vector, shape `(hidden_size, 1)`.
    pub h: Var<T>,
    /// The step that produced `c` ([`Var::lstm_cell`]); `None` is a zero
    /// cell state, which takes no node.
    cell: Option<Var<T>>,
}

impl<T: Scalar> LstmState<T> {
    /// A zero-initialised state.
    pub fn zeros(hidden_size: usize) -> Self {
        Self {
            h: Var::constant(Matrix::zeros(hidden_size, 1)),
            cell: None,
        }
    }

    /// A state with the given hidden vector and zero cell state.
    pub fn from_hidden(h: Var<T>) -> Self {
        Self { h, cell: None }
    }

    /// The same cell state under another hidden vector — the time-decayed
    /// `h` BRITS and BiSIM feed their next step.
    pub fn with_hidden(&self, h: Var<T>) -> Self {
        Self {
            h,
            cell: self.cell.clone(),
        }
    }
}

/// A standard LSTM cell with input, forget, output and candidate gates.
///
/// The BiSIM encoder and decoder units (Section IV-C of the paper) pass their
/// complemented feature vectors through this cell; the time-decay factor is
/// applied to the incoming hidden state *before* the cell, so the cell itself
/// stays a textbook LSTM.
#[derive(Clone)]
pub struct LstmCell<T: Scalar = f64> {
    input_gate: Linear<T>,
    forget_gate: Linear<T>,
    output_gate: Linear<T>,
    candidate: Linear<T>,
    input_size: usize,
    hidden_size: usize,
}

impl<T: Scalar> LstmCell<T> {
    /// The cell of [`LstmCellWeights::new`]'s weights for inputs of size
    /// `input_size` and hidden state of size `hidden_size`, drawn from `rng`.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        Self::from_weights(&LstmCellWeights::new(input_size, hidden_size, rng))
    }

    /// A cell of fresh parameter leaves holding copies of `weights`.
    pub fn from_weights(weights: &LstmCellWeights<T>) -> Self {
        let [input_gate, forget_gate, output_gate, candidate] =
            weights.gates().map(Linear::from_weights);
        Self {
            input_gate,
            forget_gate,
            output_gate,
            candidate,
            input_size: weights.input_size(),
            hidden_size: weights.hidden_size(),
        }
    }

    /// Input feature size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden state size.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Performs one recurrent step as one graph node ([`Var::lstm_cell`]).
    ///
    /// `input` is the step's input column in parts (`input_size` rows in
    /// all): graph nodes, and constants such as a mask, which get no node
    /// and no gradient. The returned state carries the new hidden vector
    /// and the node holding the new cell state.
    pub fn step(&self, input: &[InputPart<'_, T>], state: &LstmState<T>) -> LstmState<T> {
        debug_assert_eq!(
            input.iter().map(InputPart::rows).sum::<usize>(),
            self.input_size,
            "LSTM input size mismatch"
        );
        let h = Var::lstm_cell(
            input,
            &state.h,
            state.cell.as_ref(),
            [
                &self.input_gate,
                &self.forget_gate,
                &self.output_gate,
                &self.candidate,
            ]
            .map(|layer| (layer.weight(), layer.bias())),
        );
        LstmState {
            h: h.clone(),
            cell: Some(h),
        }
    }

    /// All trainable parameters of the cell.
    pub fn parameters(&self) -> Vec<Var<T>> {
        let mut params = self.input_gate.parameters();
        params.extend(self.forget_gate.parameters());
        params.extend(self.output_gate.parameters());
        params.extend(self.candidate.parameters());
        params
    }

    /// Copies the current gate parameters into plain [`LstmCellWeights`].
    pub fn snapshot(&self) -> LstmCellWeights<T> {
        LstmCellWeights::from_gates(
            self.input_gate.snapshot(),
            self.forget_gate.snapshot(),
            self.output_gate.snapshot(),
            self.candidate.snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lstm_step_produces_bounded_hidden_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell: LstmCell = LstmCell::new(4, 8, &mut rng);
        let mut state = LstmState::zeros(8);
        for t in 0..10 {
            let input = Var::constant(Matrix::filled(4, 1, (t as f64).sin()));
            state = cell.step(&[InputPart::Node(&input)], &state);
            let h = state.h.value();
            assert_eq!(h.shape(), (8, 1));
            assert!(
                h.data().iter().all(|v| v.abs() <= 1.0 + 1e-9),
                "tanh-bounded"
            );
            assert!(h.is_finite());
        }
    }

    #[test]
    fn lstm_parameters_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let cell: LstmCell = LstmCell::new(3, 5, &mut rng);
        // 4 gates, each with weight + bias.
        assert_eq!(cell.parameters().len(), 8);
        assert_eq!(cell.input_size(), 3);
        assert_eq!(cell.hidden_size(), 5);
    }

    #[test]
    fn lstm_gradients_flow_to_all_gates() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell: LstmCell = LstmCell::new(2, 3, &mut rng);
        let state = LstmState::zeros(3);
        let input = Var::constant(Matrix::column(&[1.0, -1.0]));
        let next = cell.step(&[InputPart::Node(&input)], &state);
        let loss = next.h.square().sum();
        loss.backward();
        let with_grad = cell
            .parameters()
            .iter()
            .filter(|p| p.grad().frobenius_norm() > 0.0)
            .count();
        // The forget gate's gradient can be zero because c_0 = 0, but the other
        // three gates (6 parameter tensors) must receive gradient.
        assert!(
            with_grad >= 6,
            "only {with_grad} parameters received gradient"
        );
    }

    #[test]
    fn lstm_state_from_hidden_has_zero_cell() {
        let h = Var::constant(Matrix::column(&[0.1, 0.2]));
        let s = LstmState::from_hidden(h);
        assert!(s.cell.is_none(), "a zero cell state takes no node");
        assert_eq!(s.h.shape(), (2, 1));
    }

    /// Runs `inputs` through the weights with
    /// [`rm_tensor::recurrent::lstm_cell_forward`] on plain slices, carrying
    /// `h` and `c`, and returns each step's `h`.
    fn snapshot_steps<T: Scalar>(
        weights: &LstmCellWeights<T>,
        inputs: &[Matrix<T>],
    ) -> Vec<Vec<T>> {
        let (n, hidden) = (weights.input_size(), weights.hidden_size());
        let mut x = vec![T::ZERO; n + hidden];
        let mut c = vec![T::ZERO; hidden];
        let (mut gates, mut next_c, mut tanh_c) = (
            vec![T::ZERO; 4 * hidden],
            vec![T::ZERO; hidden],
            vec![T::ZERO; hidden],
        );
        let mut out = Vec::new();
        for input in inputs {
            x[..n].copy_from_slice(input.data());
            let mut h = vec![T::ZERO; hidden];
            rm_tensor::recurrent::lstm_cell_forward(
                &weights.gate_weights(),
                &x,
                &c,
                &mut gates,
                &mut next_c,
                &mut tanh_c,
                &mut h,
            );
            c.copy_from_slice(&next_c);
            x[n..].copy_from_slice(&h);
            out.push(h);
        }
        out
    }

    /// Whether a graph value holds exactly the bits of `h`.
    fn same_bits<T: Scalar>(graph: &Var<T>, h: &[T]) -> bool {
        graph
            .value()
            .bits_eq(&Matrix::from_vec(h.len(), 1, h.to_vec()))
    }

    #[test]
    fn snapshot_inference_is_bit_identical_to_graph_inference() {
        let mut rng = StdRng::seed_from_u64(8);
        let cell: LstmCell = LstmCell::new(3, 5, &mut rng);
        let weights = cell.snapshot();
        let inputs: Vec<Matrix> = (0..6)
            .map(|t| Matrix::filled(3, 1, (t as f64 * 0.7).cos()))
            .collect();
        let mut graph_state = LstmState::zeros(5);
        for (x, h) in inputs.iter().zip(snapshot_steps(&weights, &inputs)) {
            graph_state = cell.step(&[InputPart::Node(&Var::constant(x.clone()))], &graph_state);
            assert!(same_bits(&graph_state.h, &h));
        }
        assert_eq!(weights.input_size(), 3);
        assert_eq!(weights.hidden_size(), 5);
    }

    /// Graph-vs-snapshot parity after the activation dedup, at f32: an
    /// `LstmCell<f32>` built from the rounded weights and the
    /// `LstmCellWeights<f32>` cast of the f64 snapshot walk through the same
    /// [`Scalar::sigmoid`]/[`Scalar::tanh`] and must agree bitwise.
    #[test]
    fn f32_snapshot_inference_is_bit_identical_to_f32_graph_inference() {
        let mut rng = StdRng::seed_from_u64(12);
        let cell64: LstmCell = LstmCell::new(3, 5, &mut rng);
        let weights32 = cell64.snapshot().cast::<f32>();
        // An f32 cell seeded identically: Linear::new consumes the RNG in f64
        // and rounds, so re-running the constructor reproduces the cast.
        let mut rng2 = StdRng::seed_from_u64(12);
        let cell32: LstmCell<f32> = LstmCell::new(3, 5, &mut rng2);
        let inputs: Vec<Matrix<f32>> = (0..6)
            .map(|t| Matrix::filled(3, 1, ((t as f64 * 0.7).cos()) as f32))
            .collect();
        let mut graph_state: LstmState<f32> = LstmState::zeros(5);
        for (x, h) in inputs.iter().zip(snapshot_steps(&weights32, &inputs)) {
            graph_state = cell32.step(&[InputPart::Node(&Var::constant(x.clone()))], &graph_state);
            assert!(same_bits(&graph_state.h, &h));
        }
    }

    #[test]
    fn identical_inputs_give_identical_outputs() {
        let mut rng = StdRng::seed_from_u64(7);
        let cell: LstmCell = LstmCell::new(2, 4, &mut rng);
        let state = LstmState::zeros(4);
        let input = Var::constant(Matrix::column(&[0.3, -0.7]));
        let a = cell.step(&[InputPart::Node(&input)], &state).h.value();
        let b = cell.step(&[InputPart::Node(&input)], &state).h.value();
        assert!(a.approx_eq(&b, 0.0));
    }
}
