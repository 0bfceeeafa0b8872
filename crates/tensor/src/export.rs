//! Named-tensor export: the plain-data interchange form of trained weight
//! snapshots.
//!
//! Imputers export trained models as a flat list of [`NamedTensor`]s — one
//! dense matrix per parameter, tagged with a name and a storage dtype — so
//! the pipeline's snapshots never have to know the shape of any particular
//! model, and warm start rebuilds a model from them. The dtype axis mirrors
//! the resident snapshot axis ([`SnapshotDtype`] × [`Precision`](crate::Precision)):
//! a snapshot trained at f64, rounded to f32, or truncated to bfloat16
//! exports exactly the bits it keeps resident, so an imported model
//! reproduces the exported one bit for bit.

use crate::half::Bf16Matrix;
use crate::matrix::Matrix;

/// The payload of one exported tensor, at its resident storage dtype.
#[derive(Debug, Clone)]
pub enum TensorPayload {
    /// Double-precision payload (8 bytes per element).
    F64(Matrix<f64>),
    /// Single-precision payload (4 bytes per element).
    F32(Matrix<f32>),
    /// Truncated-bfloat16 payload (2 bytes per element).
    Bf16(Bf16Matrix),
}

impl TensorPayload {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            TensorPayload::F64(m) => m.rows(),
            TensorPayload::F32(m) => m.rows(),
            TensorPayload::Bf16(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            TensorPayload::F64(m) => m.cols(),
            TensorPayload::F32(m) => m.cols(),
            TensorPayload::Bf16(m) => m.cols(),
        }
    }

    /// Lowercase dtype name (`"f64"` / `"f32"` / `"bf16"`), for reports.
    pub fn dtype_name(&self) -> &'static str {
        match self {
            TensorPayload::F64(_) => "f64",
            TensorPayload::F32(_) => "f32",
            TensorPayload::Bf16(_) => "bf16",
        }
    }

    /// Serialized payload bytes (elements × element width; headers excluded).
    pub fn payload_bytes(&self) -> usize {
        let elements = self.rows() * self.cols();
        match self {
            TensorPayload::F64(_) => elements * 8,
            TensorPayload::F32(_) => elements * 4,
            TensorPayload::Bf16(_) => elements * 2,
        }
    }

    /// Widens the payload to a double-precision matrix — the import
    /// direction of the export axis, used to warm-start training from a
    /// persisted snapshot. Training always runs at f64, so an f32 or bf16
    /// payload widens losslessly (every f32/bf16 value is exactly
    /// representable in f64); the round trip back through a same-dtype
    /// export reproduces the original bits.
    pub fn to_f64_matrix(&self) -> Matrix<f64> {
        match self {
            TensorPayload::F64(m) => m.clone(),
            TensorPayload::F32(m) => {
                Matrix::from_fn(m.rows(), m.cols(), |r, c| f64::from(m.get(r, c)))
            }
            TensorPayload::Bf16(m) => {
                Matrix::from_fn(m.rows(), m.cols(), |r, c| f64::from(m.get(r, c)))
            }
        }
    }

    /// Bitwise equality: same dtype, same shape, same raw bits everywhere.
    /// (IEEE `==` would declare `-0.0 == 0.0` and `NaN != NaN`; the artifact
    /// round-trip contract is about *bits*, not values.)
    pub fn bits_eq(&self, other: &TensorPayload) -> bool {
        match (self, other) {
            (TensorPayload::F64(a), TensorPayload::F64(b)) => {
                a.shape() == b.shape()
                    && a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (TensorPayload::F32(a), TensorPayload::F32(b)) => {
                a.shape() == b.shape()
                    && a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (TensorPayload::Bf16(a), TensorPayload::Bf16(b)) => {
                a.rows() == b.rows() && a.cols() == b.cols() && a.bits() == b.bits()
            }
            _ => false,
        }
    }
}

/// Conversion of a concrete matrix into its [`TensorPayload`] variant —
/// the hook that lets weight-export code stay generic over the snapshot
/// precision.
pub trait IntoTensorPayload {
    /// Wraps `self` in the matching payload variant.
    fn into_payload(self) -> TensorPayload;
}

impl IntoTensorPayload for Matrix<f64> {
    fn into_payload(self) -> TensorPayload {
        TensorPayload::F64(self)
    }
}

impl IntoTensorPayload for Matrix<f32> {
    fn into_payload(self) -> TensorPayload {
        TensorPayload::F32(self)
    }
}

impl IntoTensorPayload for Bf16Matrix {
    fn into_payload(self) -> TensorPayload {
        TensorPayload::Bf16(self)
    }
}

/// One exported tensor: a stable dotted-path name (e.g.
/// `"brits.forward.cell.input_gate.weight"`) plus its payload.
#[derive(Debug, Clone)]
pub struct NamedTensor {
    /// Stable dotted-path identifier, unique within one export.
    pub name: String,
    /// The matrix payload at its storage dtype.
    pub payload: TensorPayload,
}

impl NamedTensor {
    /// Creates a named tensor from any supported matrix type.
    pub fn new(name: impl Into<String>, matrix: impl IntoTensorPayload) -> Self {
        Self {
            name: name.into(),
            payload: matrix.into_payload(),
        }
    }

    /// Bitwise equality of name and payload (see [`TensorPayload::bits_eq`]).
    pub fn bits_eq(&self, other: &NamedTensor) -> bool {
        self.name == other.name && self.payload.bits_eq(&other.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_reports_shape_dtype_and_bytes() {
        let t64 = NamedTensor::new("a", Matrix::<f64>::filled(2, 3, 1.5));
        let t32 = NamedTensor::new("a", Matrix::<f32>::filled(2, 3, 1.5));
        let tbf = NamedTensor::new(
            "a",
            Bf16Matrix::from_matrix(&Matrix::<f32>::filled(2, 3, 1.5)),
        );
        assert_eq!(t64.payload.rows(), 2);
        assert_eq!(t64.payload.cols(), 3);
        assert_eq!(t64.payload.dtype_name(), "f64");
        assert_eq!(t32.payload.dtype_name(), "f32");
        assert_eq!(tbf.payload.dtype_name(), "bf16");
        // The 4× resident-bytes axis: 8 → 4 → 2 bytes per element.
        assert_eq!(t64.payload.payload_bytes(), 48);
        assert_eq!(t32.payload.payload_bytes(), 24);
        assert_eq!(tbf.payload.payload_bytes(), 12);
    }

    #[test]
    fn bits_eq_is_bitwise_not_ieee() {
        let nan = NamedTensor::new("n", Matrix::<f64>::filled(1, 1, f64::NAN));
        let nan2 = NamedTensor::new("n", Matrix::<f64>::filled(1, 1, f64::NAN));
        assert!(nan.bits_eq(&nan2));
        let pos = NamedTensor::new("z", Matrix::<f64>::filled(1, 1, 0.0));
        let neg = NamedTensor::new("z", Matrix::<f64>::filled(1, 1, -0.0));
        assert!(!pos.bits_eq(&neg));
        // Dtype mismatch is never equal, even for equal values.
        let a32 = NamedTensor::new("a", Matrix::<f32>::filled(1, 1, 1.0));
        let a64 = NamedTensor::new("a", Matrix::<f64>::filled(1, 1, 1.0));
        assert!(!a32.bits_eq(&a64));
    }
}
