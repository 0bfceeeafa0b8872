//! Sub-f32 *storage*: a software `bf16` snapshot format.
//!
//! `bf16` (bfloat16) is the upper half of an IEEE-754 binary32: 1 sign bit,
//! the same 8 exponent bits as `f32`, and 7 mantissa bits. Encoding is pure
//! bit truncation of the `f32` representation — deterministic, branch-free
//! and exactly invertible on the decode side (`bits << 16`), so a
//! round-tripped value is always the input with its low 16 mantissa bits
//! zeroed. The relative error of one encode is bounded by `2^-7` (one ulp of
//! the 7-bit mantissa).
//!
//! This is a **storage** type, not a compute type: [`Scalar`] stays sealed
//! to `f64`/`f32`, and every kernel still runs at full register width. A
//! [`Bf16Matrix`] is the resident form of a trained snapshot (half the bytes
//! of `f32`, a quarter of `f64`); at inference time it decodes row-blocks
//! into pooled [`Workspace`] `f32` scratch and the existing `f32` kernels
//! take over. Accuracy is therefore epsilon-checked, not bit-compatible —
//! the same contract as the `RM_FMA=1` kernels, and the opposite of the
//! `RM_SIMD` default path.

use std::fmt;

use crate::matrix::Matrix;
use crate::workspace::Workspace;

/// Rows decoded per block when expanding a [`Bf16Matrix`] into `f32`
/// scratch: 64 rows of a few-hundred-column snapshot matrix stay well inside
/// L1/L2, matching the `MATMUL_BLOCK` panel reasoning.
const DECODE_ROW_BLOCK: usize = 64;

/// Encodes an `f32` as bfloat16 bits by truncating the low 16 mantissa bits.
#[inline]
pub fn f32_to_bf16(v: f32) -> u16 {
    (v.to_bits() >> 16) as u16
}

/// Decodes bfloat16 bits back into the exactly-representable `f32`.
#[inline]
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// The resident storage format of a trained snapshot — the serving-path
/// memory knob (`RM_SNAPSHOT_DTYPE` in the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotDtype {
    /// Store snapshots at the compute precision (the default; resident bytes
    /// are `size_of::<T>()` per weight and inference is bit-compatible with
    /// the pre-dtype pipeline).
    #[default]
    Native,
    /// Store snapshots as truncated bfloat16 (`u16`) and decode row-blocks
    /// into pooled `f32` scratch at inference time: half the resident bytes
    /// of an `f32` snapshot, with an epsilon-bounded accuracy cost. Only
    /// meaningful for `f32` inference (`Precision::F32`); the `f64` path
    /// ignores it.
    Bf16,
}

impl SnapshotDtype {
    /// Lowercase name (`"native"` / `"bf16"`), for reports and env parsing.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotDtype::Native => "native",
            SnapshotDtype::Bf16 => "bf16",
        }
    }

    /// Parses `"native"` / `"bf16"` (ASCII case-insensitive); `None`
    /// otherwise.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("native") {
            Some(SnapshotDtype::Native)
        } else if s.eq_ignore_ascii_case("bf16") {
            Some(SnapshotDtype::Bf16)
        } else {
            None
        }
    }
}

impl fmt::Display for SnapshotDtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense row-major matrix stored as truncated bfloat16 bits — the
/// half-size resident form of an `f32` snapshot matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bf16Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl Bf16Matrix {
    /// Encodes an `f32` matrix by truncating every entry to bfloat16.
    pub fn from_matrix(m: &Matrix<f32>) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.data().iter().map(|&v| f32_to_bf16(v)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Decoded entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        bf16_to_f32(self.data[row * self.cols + col])
    }

    /// Bytes this matrix keeps resident (the `u16` payload).
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u16>()
    }

    /// The raw truncated-bfloat16 bits, row-major — the exact resident
    /// payload, so a tensor rebuilt with [`Bf16Matrix::from_bits`]
    /// round-trips bit for bit.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// Rebuilds a matrix from raw bfloat16 bits (the deserialization inverse
    /// of [`Bf16Matrix::bits`]).
    ///
    /// # Panics
    /// Panics if `bits.len() != rows * cols`.
    pub fn from_bits(rows: usize, cols: usize, bits: Vec<u16>) -> Self {
        assert_eq!(bits.len(), rows * cols, "bf16 payload length mismatch");
        Self {
            rows,
            cols,
            data: bits,
        }
    }

    /// Decodes into `f32` scratch checked out of `ws`, expanding
    /// [`DECODE_ROW_BLOCK`] rows at a time so the working set of one block
    /// stays cache-resident while the kernels stream the previous one.
    pub fn decode_ws(&self, ws: &mut Workspace<f32>) -> Matrix<f32> {
        let mut out = ws.take(self.rows, self.cols);
        let dst = out.data_mut();
        for block_start in (0..self.rows).step_by(DECODE_ROW_BLOCK.max(1)) {
            let start = block_start * self.cols;
            let end = (block_start + DECODE_ROW_BLOCK).min(self.rows) * self.cols;
            for (d, &bits) in dst[start..end].iter_mut().zip(&self.data[start..end]) {
                *d = bf16_to_f32(bits);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_zeroes_the_low_mantissa_bits() {
        let pi = std::f32::consts::PI;
        for v in [0.0f32, -0.0, 1.0, -1.5, 0.15625, pi, -65504.0, 1e-20, 1e20] {
            let decoded = bf16_to_f32(f32_to_bf16(v));
            assert_eq!(decoded.to_bits(), v.to_bits() & 0xffff_0000);
            // Values already representable in bf16 survive exactly.
            assert_eq!(f32_to_bf16(decoded), f32_to_bf16(v));
        }
        // Powers of two and small integers are exact in bf16.
        assert_eq!(bf16_to_f32(f32_to_bf16(2.0)), 2.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-0.25)), -0.25);
        assert_eq!(bf16_to_f32(f32_to_bf16(100.0)), 100.0);
    }

    #[test]
    fn truncation_error_is_bounded_by_2_pow_minus_7() {
        for i in 0..4096u32 {
            let v = (i as f32 - 2048.0) * 0.037 + 0.001;
            let err = (bf16_to_f32(f32_to_bf16(v)) - v).abs();
            assert!(
                err <= v.abs() / 128.0,
                "bf16 truncation error {err} exceeds 2^-7 relative at {v}"
            );
        }
    }

    #[test]
    fn matrix_encode_decode_round_trips_through_workspace_scratch() {
        let src = Matrix::<f32>::from_vec(
            130,
            3,
            (0..390).map(|i| (i as f32 - 195.0) * 0.173).collect(),
        );
        let packed = Bf16Matrix::from_matrix(&src);
        assert_eq!((packed.rows(), packed.cols()), (130, 3));
        assert_eq!(packed.resident_bytes(), 390 * 2);

        let mut ws = Workspace::new();
        // Dirty the workspace first: decode must fully overwrite its scratch.
        let dirty = Matrix::<f32>::filled(130, 3, f32::NAN);
        ws.give(dirty);
        let decoded = packed.decode_ws(&mut ws);
        for r in 0..130 {
            for c in 0..3 {
                assert_eq!(decoded.get(r, c).to_bits(), packed.get(r, c).to_bits());
                let err = (decoded.get(r, c) - src.get(r, c)).abs();
                assert!(err <= src.get(r, c).abs() / 128.0 + f32::EPSILON);
            }
        }
    }

    #[test]
    fn snapshot_dtype_parses_and_displays() {
        assert_eq!(SnapshotDtype::default(), SnapshotDtype::Native);
        assert_eq!(SnapshotDtype::parse("bf16"), Some(SnapshotDtype::Bf16));
        assert_eq!(SnapshotDtype::parse("NATIVE"), Some(SnapshotDtype::Native));
        assert_eq!(SnapshotDtype::parse("f16"), None);
        assert_eq!(SnapshotDtype::Bf16.to_string(), "bf16");
        assert_eq!(SnapshotDtype::Native.name(), "native");
    }
}
