//! Recurrent cells: a full LSTM cell and a simple gated recurrent cell,
//! generic over the [`Scalar`] precision.
//!
//! One LSTM step is one graph node ([`Var::lstm_cell`]): the four gate
//! affine maps, their activations and the state update run inside it, and
//! its backward hands out bitwise the gradients of the 14-node chain it
//! replaced. The cell state `c` lives inside the node, not in a node of its
//! own: an [`LstmState`] carries the hidden vector and the previous step's
//! node, which the next step reads `c` from and hands `∂c` back to.
//!
//! The graph node and the graph-free snapshot ([`LstmCellWeights::step_ws`])
//! run the same forward, [`rm_tensor::recurrent::lstm_cell_forward`], so
//! the two are bit-identical at the same precision by construction (see
//! the parity tests below).

// rm-lint: hot-path
// The per-step recurrence of every imputer runs through this cell; the gate
// products go through `matvec_acc`, and `step_ws` keeps snapshot inference
// allocation-free with a caller-owned workspace.

use rand::Rng;
use rm_tensor::recurrent::{lstm_cell_forward, LstmGates};
use rm_tensor::{InputPart, Matrix, Scalar, Var, Workspace};

use crate::Linear;

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

    /// The state's graph handles, for [`Var::recycle_all`].
    pub fn into_vars(self) -> impl Iterator<Item = Var<T>> {
        std::iter::once(self.h).chain(self.cell)
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
    /// Creates an LSTM cell for inputs of size `input_size` and hidden state
    /// of size `hidden_size`.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        let concat = input_size + hidden_size;
        Self {
            input_gate: Linear::new(concat, hidden_size, rng),
            forget_gate: Linear::new(concat, hidden_size, rng),
            output_gate: Linear::new(concat, hidden_size, rng),
            candidate: Linear::new(concat, hidden_size, rng),
            input_size,
            hidden_size,
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

    /// Copies the current gate parameters into a graph-free
    /// [`LstmCellWeights`] for inference on worker threads.
    pub fn snapshot(&self) -> LstmCellWeights<T> {
        LstmCellWeights {
            input_gate: self.input_gate.snapshot(),
            forget_gate: self.forget_gate.snapshot(),
            output_gate: self.output_gate.snapshot(),
            candidate: self.candidate.snapshot(),
            input_size: self.input_size,
            hidden_size: self.hidden_size,
        }
    }
}

/// The matrix-valued hidden state used by [`LstmCellWeights`] inference.
#[derive(Debug, Clone)]
pub struct LstmStateMatrix<T: Scalar = f64> {
    /// Hidden vector, shape `(hidden_size, 1)`.
    pub h: Matrix<T>,
    /// Cell state, shape `(hidden_size, 1)`.
    pub c: Matrix<T>,
}

impl<T: Scalar> LstmStateMatrix<T> {
    /// A zero-initialised state.
    pub fn zeros(hidden_size: usize) -> Self {
        Self {
            h: Matrix::zeros(hidden_size, 1),
            c: Matrix::zeros(hidden_size, 1),
        }
    }
}

/// A graph-free snapshot of an [`LstmCell`]: plain matrices, so it is
/// `Send + Sync` and shareable across the deterministic thread pool.
///
/// [`LstmCellWeights::step`] runs the forward of the node [`LstmCell::step`]
/// builds, so inference through a snapshot is bit-identical to running the
/// autodiff graph forward at the same precision.
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

    /// Rebuilds a trainable [`LstmCell`] from this snapshot (the inverse of
    /// [`LstmCell::snapshot`]; see [`crate::LinearWeights::to_linear`] for
    /// the role this plays in mini-batch training).
    pub fn to_cell(&self) -> LstmCell<T> {
        LstmCell {
            input_gate: self.input_gate.to_linear(),
            forget_gate: self.forget_gate.to_linear(),
            output_gate: self.output_gate.to_linear(),
            candidate: self.candidate.to_linear(),
            input_size: self.input_size,
            hidden_size: self.hidden_size,
        }
    }

    /// Performs one recurrent step on plain matrices:
    /// [`LstmCellWeights::step_ws`] on a fresh workspace.
    pub fn step(&self, input: &Matrix<T>, state: &LstmStateMatrix<T>) -> LstmStateMatrix<T> {
        self.step_ws(input, state, &mut Workspace::new())
    }

    /// One recurrent step on a column `input` with every buffer drawn from
    /// `ws`: [`rm_tensor::recurrent::lstm_cell_forward`], the forward of
    /// the graph node [`LstmCell::step`] builds, so snapshot inference is
    /// bit-identical to the graph forward. The caller owns the returned
    /// state and typically gives the previous step's state back to `ws`.
    ///
    /// # Panics
    /// Panics if `input` is not a column of `input_size` rows.
    pub fn step_ws(
        &self,
        input: &Matrix<T>,
        state: &LstmStateMatrix<T>,
        ws: &mut Workspace<T>,
    ) -> LstmStateMatrix<T> {
        assert_eq!(
            input.shape(),
            (self.input_size, 1),
            "LSTM input shape mismatch"
        );
        let hidden = self.hidden_size;
        let mut x = ws.take(self.input_size + hidden, 1);
        let (head, tail) = x.data_mut().split_at_mut(self.input_size);
        head.copy_from_slice(input.data());
        tail.copy_from_slice(state.h.data());
        let mut gates = ws.take(4 * hidden, 1);
        let mut tanh_c = ws.take(hidden, 1);
        let mut c = ws.take(hidden, 1);
        let mut h = ws.take(hidden, 1);
        let weights: LstmGates<'_, T> = self.gates().map(|layer| (layer.weight(), layer.bias()));
        lstm_cell_forward(
            &weights,
            x.data(),
            state.c.data(),
            gates.data_mut(),
            c.data_mut(),
            tanh_c.data_mut(),
            h.data_mut(),
        );
        ws.give(x);
        ws.give(gates);
        ws.give(tanh_c);
        LstmStateMatrix { h, c }
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

/// A lightweight sigmoid-gated recurrent cell:
/// `h' = tanh(W_h h + U_x x + b)` followed by a sigmoid update gate.
///
/// BRITS-style baselines use this cheaper cell; BiSIM uses [`LstmCell`].
#[derive(Clone)]
pub struct SimpleRecurrentCell<T: Scalar = f64> {
    hidden_map: Linear<T>,
    input_map: Linear<T>,
    input_size: usize,
    hidden_size: usize,
}

impl<T: Scalar> SimpleRecurrentCell<T> {
    /// Creates a simple recurrent cell.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        Self {
            hidden_map: Linear::new(hidden_size, hidden_size, rng),
            input_map: Linear::new(input_size, hidden_size, rng),
            input_size,
            hidden_size,
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

    /// One recurrent step: `h' = tanh(W_h h + W_x x + b)`.
    pub fn step(&self, input: &Var<T>, hidden: &Var<T>) -> Var<T> {
        debug_assert_eq!(input.shape().0, self.input_size);
        debug_assert_eq!(hidden.shape().0, self.hidden_size);
        self.hidden_map
            .forward(hidden)
            .add(&self.input_map.forward(input))
            .tanh()
    }

    /// All trainable parameters of the cell.
    pub fn parameters(&self) -> Vec<Var<T>> {
        let mut params = self.hidden_map.parameters();
        params.extend(self.input_map.parameters());
        params
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

    #[test]
    fn simple_cell_step_and_params() {
        let mut rng = StdRng::seed_from_u64(6);
        let cell: SimpleRecurrentCell = SimpleRecurrentCell::new(4, 6, &mut rng);
        let h0 = Var::constant(Matrix::zeros(6, 1));
        let x = Var::constant(Matrix::column(&[1.0, 2.0, 3.0, 4.0]));
        let h1 = cell.step(&x, &h0);
        assert_eq!(h1.shape(), (6, 1));
        assert!(h1.value().data().iter().all(|v| v.abs() <= 1.0));
        assert_eq!(cell.parameters().len(), 4);
    }

    #[test]
    fn snapshot_inference_is_bit_identical_to_graph_inference() {
        let mut rng = StdRng::seed_from_u64(8);
        let cell: LstmCell = LstmCell::new(3, 5, &mut rng);
        let weights = cell.snapshot();
        let mut graph_state = LstmState::zeros(5);
        let mut matrix_state = LstmStateMatrix::zeros(5);
        for t in 0..6 {
            let x = Matrix::filled(3, 1, (t as f64 * 0.7).cos());
            graph_state = cell.step(&[InputPart::Node(&Var::constant(x.clone()))], &graph_state);
            matrix_state = weights.step(&x, &matrix_state);
            assert!(graph_state.h.value().bits_eq(&matrix_state.h));
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
        let mut graph_state: LstmState<f32> = LstmState::zeros(5);
        let mut matrix_state: LstmStateMatrix<f32> = LstmStateMatrix::zeros(5);
        for t in 0..6 {
            let x: Matrix<f32> = Matrix::filled(3, 1, ((t as f64 * 0.7).cos()) as f32);
            graph_state = cell32.step(&[InputPart::Node(&Var::constant(x.clone()))], &graph_state);
            matrix_state = weights32.step(&x, &matrix_state);
            assert!(graph_state.h.value().bits_eq(&matrix_state.h));
        }
    }

    #[test]
    fn workspace_step_is_bit_identical_to_plain_step() {
        let mut rng = StdRng::seed_from_u64(14);
        let cell: LstmCell = LstmCell::new(3, 5, &mut rng);
        let weights = cell.snapshot();
        let mut plain_state = LstmStateMatrix::zeros(5);
        let mut ws_state = LstmStateMatrix::zeros(5);
        let mut ws = Workspace::new();
        // Poison the workspace so checkouts must reinitialise their buffers.
        ws.give(Matrix::filled(8, 1, f64::NAN));
        for t in 0..6 {
            let x = Matrix::filled(3, 1, (t as f64 * 0.9).sin());
            plain_state = weights.step(&x, &plain_state);
            let next = weights.step_ws(&x, &ws_state, &mut ws);
            ws.give(ws_state.h);
            ws.give(ws_state.c);
            ws_state = next;
            assert!(plain_state.h.bits_eq(&ws_state.h));
            assert!(plain_state.c.bits_eq(&ws_state.c));
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
