//! Named-tensor snapshot helpers shared by the model-based imputers — and by
//! BiSIM in `rm-bisim`, which depends on this crate.
//!
//! The export half serializes trained layers as [`NamedTensor`]s at the
//! dtype the inference path keeps resident; the import half reassembles them
//! for warm-started re-imputation ([`crate::Imputer::impute_warm`]). Every
//! helper is shape-checked on import and returns `None` instead of panicking
//! on a missing or foreign tensor, so warm-starting is always safe to
//! attempt.

use rm_nn::{Activation, LinearWeights, LstmCellWeights, MlpWeights};
use rm_tensor::{Matrix, NamedTensor, Precision};

/// Exports one linear layer as `{name}.weight` / `{name}.bias` at the
/// precision the inference path keeps resident: `F64` exports the f64
/// training snapshot, `F32` its one-time f32 rounding — the same
/// `LinearWeights::cast` the resident f32 snapshots apply, so the exported
/// bits equal the serving bits at either precision.
pub fn export_linear(
    name: &str,
    lin: &LinearWeights<f64>,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    let wname = format!("{name}.weight");
    let bname = format!("{name}.bias");
    match precision {
        Precision::F64 => {
            tensors.push(NamedTensor::new(wname, lin.weight().clone()));
            tensors.push(NamedTensor::new(bname, lin.bias().clone()));
        }
        Precision::F32 => {
            let rounded: LinearWeights<f32> = lin.cast();
            tensors.push(NamedTensor::new(wname, rounded.weight().clone()));
            tensors.push(NamedTensor::new(bname, rounded.bias().clone()));
        }
    }
}

/// Exports the four LSTM gate layers under `{prefix}.cell.{gate}` (in
/// [`LstmCellWeights::gates`] order: `input_gate`, `forget_gate`,
/// `output_gate`, `candidate`).
pub fn export_lstm_cell(
    prefix: &str,
    cell: &LstmCellWeights<f64>,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    let [input_gate, forget_gate, output_gate, candidate] = cell.gates();
    for (gate, lin) in [
        ("input_gate", input_gate),
        ("forget_gate", forget_gate),
        ("output_gate", output_gate),
        ("candidate", candidate),
    ] {
        export_linear(&format!("{prefix}.cell.{gate}"), lin, precision, tensors);
    }
}

/// Exports an MLP's layers under `{prefix}.0`, `{prefix}.1`, … (input to
/// output order). The activations are not serialized — they are part of the
/// architecture the importing model fixes — so [`import_mlp`] takes them as
/// arguments.
pub fn export_mlp(
    prefix: &str,
    mlp: &MlpWeights<f64>,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    for (i, lin) in mlp.layers().iter().enumerate() {
        export_linear(&format!("{prefix}.{i}"), lin, precision, tensors);
    }
}

/// Looks up one tensor by name and widens it to the `f64` training
/// precision (lossless for every storage dtype — see
/// [`rm_tensor::TensorPayload::to_f64_matrix`]).
pub fn find_tensor(tensors: &[NamedTensor], name: &str) -> Option<Matrix<f64>> {
    tensors
        .iter()
        .find(|t| t.name == name)
        .map(|t| t.payload.to_f64_matrix())
}

/// Reassembles one `{prefix}.{layer}.{weight, bias}` pair exported by
/// [`export_linear`]; `None` when either tensor is missing or the bias is
/// not the weight's output column.
pub fn import_linear(
    tensors: &[NamedTensor],
    prefix: &str,
    layer: &str,
) -> Option<LinearWeights<f64>> {
    let weight = find_tensor(tensors, &format!("{prefix}.{layer}.weight"))?;
    let bias = find_tensor(tensors, &format!("{prefix}.{layer}.bias"))?;
    if (bias.rows(), bias.cols()) != (weight.rows(), 1) {
        return None;
    }
    Some(LinearWeights::from_parts(weight, bias))
}

/// Reassembles the four LSTM gate layers exported under `{prefix}.cell.*`;
/// `None` when any gate is missing or the gate shapes disagree.
pub fn import_lstm_cell(tensors: &[NamedTensor], prefix: &str) -> Option<LstmCellWeights<f64>> {
    let input_gate = import_linear(tensors, prefix, "cell.input_gate")?;
    let forget_gate = import_linear(tensors, prefix, "cell.forget_gate")?;
    let output_gate = import_linear(tensors, prefix, "cell.output_gate")?;
    let candidate = import_linear(tensors, prefix, "cell.candidate")?;
    let shape = input_gate.weight().shape();
    for gate in [&forget_gate, &output_gate, &candidate] {
        if gate.weight().shape() != shape {
            return None;
        }
    }
    Some(LstmCellWeights::from_gates(
        input_gate,
        forget_gate,
        output_gate,
        candidate,
    ))
}

/// Reassembles an MLP exported by [`export_mlp`]: consecutive numbered
/// layers starting at `{prefix}.0`, with the caller supplying the
/// architecture's activations. `None` when no layer is present or the layer
/// shapes do not chain.
pub fn import_mlp(
    tensors: &[NamedTensor],
    prefix: &str,
    hidden_activation: Activation,
    output_activation: Activation,
) -> Option<MlpWeights<f64>> {
    let mut layers: Vec<LinearWeights<f64>> = Vec::new();
    while let Some(layer) = import_linear(tensors, prefix, &layers.len().to_string()) {
        layers.push(layer);
    }
    if layers.is_empty() {
        return None;
    }
    for pair in layers.windows(2) {
        if pair[0].weight().rows() != pair[1].weight().cols() {
            return None;
        }
    }
    Some(MlpWeights::from_layers(
        layers,
        hidden_activation,
        output_activation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rm_nn::{LstmCell, Mlp};

    #[test]
    fn linear_round_trips_bitwise_at_every_dtype() {
        let mut rng = StdRng::seed_from_u64(7);
        let lin = rm_nn::Linear::new(3, 4, &mut rng).snapshot();
        for precision in [Precision::F64, Precision::F32] {
            let mut tensors = Vec::new();
            export_linear("m.layer", &lin, precision, &mut tensors);
            assert_eq!(tensors.len(), 2);
            let imported = import_linear(&tensors, "m", "layer").expect("import");
            // Re-exporting the imported weights reproduces the same bits:
            // widening to f64 is lossless and the rounding is deterministic.
            let mut again = Vec::new();
            export_linear("m.layer", &imported, precision, &mut again);
            for (a, b) in tensors.iter().zip(again.iter()) {
                assert!(a.bits_eq(b), "{} drifted through the round trip", a.name);
            }
        }
    }

    #[test]
    fn lstm_cell_round_trips_and_rejects_mismatched_gates() {
        let mut rng = StdRng::seed_from_u64(8);
        let cell = LstmCell::new(6, 4, &mut rng).snapshot();
        let mut tensors = Vec::new();
        export_lstm_cell("d", &cell, Precision::F64, &mut tensors);
        assert_eq!(tensors.len(), 8);
        let imported = import_lstm_cell(&tensors, "d").expect("import");
        assert_eq!(imported.gates()[0].weight().shape(), (4, 10));
        // Drop one gate: the import refuses rather than panicking.
        tensors.retain(|t| !t.name.contains("candidate"));
        assert!(import_lstm_cell(&tensors, "d").is_none());
    }

    #[test]
    fn mlp_round_trips_with_numbered_layers() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&[3, 5, 3], Activation::Relu, Activation::Sigmoid, &mut rng).snapshot();
        let mut tensors = Vec::new();
        export_mlp("m.disc", &mlp, Precision::F64, &mut tensors);
        assert_eq!(tensors.len(), 4);
        let imported =
            import_mlp(&tensors, "m.disc", Activation::Relu, Activation::Sigmoid).expect("import");
        assert_eq!(imported.layers().len(), 2);
        for (a, b) in mlp.layers().iter().zip(imported.layers().iter()) {
            assert!(a.weight().bits_eq(b.weight()));
            assert!(a.bias().bits_eq(b.bias()));
        }
        assert!(import_mlp(&tensors, "absent", Activation::Relu, Activation::Sigmoid).is_none());
    }
}
