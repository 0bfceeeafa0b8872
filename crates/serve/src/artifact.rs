//! The on-disk venue-model artifact: a stable, checksummed, dependency-free
//! binary encoding of what a server reads from a [`VenueSnapshot`].
//!
//! # Format (version 3, all integers little-endian)
//!
//! ```text
//! header   magic        4 B   b"RMVM"
//!          version      u32   3
//!          payload_len  u64   bytes of payload that follow the header
//!          checksum     u64   FNV-1a 64 over the payload bytes
//! payload  venue        string (u32 length + UTF-8 bytes)
//!          estimator    u8    0 = KNN, 1 = WKNN, 2 = RandomForest
//!          knn_k        u32
//!          seed         u64
//!          precision    u8    0 = f64, 1 = f32
//!          num_aps      u32
//!          map          n: u32; n × num_aps f64 bit patterns (fingerprints,
//!                       row-major); n × 2 f64 bit patterns (locations x, y)
//!          mask         rows: u32; cols: u32; rows × cols i8 entries
//!                       (1 observed, 0 MAR, −1 MNAR; anything else rejects)
//! ```
//!
//! The snapshot's imputer weights (`tensors`) are not part of the format:
//! serving ranks from the imputed map alone, and warm start reads the
//! weights from the live venue's in-memory snapshots. [`decode`] therefore
//! returns an empty `tensors`, and sets `snapshot_dtype` to its one value,
//! [`SnapshotDtype::Native`]. Version 1, which carried the weights, and
//! version 2, which carried a snapshot-dtype byte after `precision`, are
//! rejected with [`ArtifactError::UnsupportedVersion`].
//!
//! Floats are serialized as their IEEE-754 bit patterns (`to_bits`), never
//! re-parsed through text, so encode → decode is the identity on every
//! serialized value including NaNs and signed zeros — the bitwise
//! round-trip guarantee the serving tests pin. Decoding is fully validated:
//! malformed, truncated or corrupted input of any kind returns a typed
//! [`ArtifactError`], never panics, and no length field is trusted before
//! checking it against the bytes actually present (a forged multi-terabyte
//! count fails fast instead of allocating).

use std::fmt;

use radiomap_core::{ShardedVenueSnapshot, SnapshotDtype, VenueSnapshot};
use rm_geometry::Point;
use rm_positioning::EstimatorKind;
use rm_radiomap::{DenseRadioMap, EntryKind, MaskMatrix, VenueShards};
use rm_tensor::Precision;

/// The artifact magic: "RMVM" (Radio-Map Venue Model).
pub const MAGIC: [u8; 4] = *b"RMVM";

/// The sharded-container magic: "RMVS" (Radio-Map Venue Shards). A sharded
/// artifact is a checksummed container of the venue's partition plus one
/// complete inner [`MAGIC`] artifact per shard — each shard blob is exactly
/// the bytes [`encode`] produces, so a shard can be extracted and republished
/// without re-encoding.
pub const SHARDED_MAGIC: [u8; 4] = *b"RMVS";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 3;

/// Bytes of the fixed-size artifact header (magic + version + payload length
/// + checksum).
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why an artifact failed to decode. Every malformed input maps to one of
/// these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Fewer bytes than a field (or the header) requires. `field` names the
    /// first field that could not be read.
    Truncated {
        /// The field being read when the input ran out.
        field: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The first four bytes are not the expected magic ([`MAGIC`] for a
    /// venue artifact, [`SHARDED_MAGIC`] for a sharded container).
    BadMagic([u8; 4]),
    /// A version this build does not read.
    UnsupportedVersion(u32),
    /// The header's payload length disagrees with the bytes present.
    PayloadLengthMismatch {
        /// Length stored in the header.
        stored: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The stored checksum does not match the payload (bit rot, torn write,
    /// or tampering).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// FNV-1a 64 of the payload as read.
        computed: u64,
    },
    /// An enum tag outside its domain (estimator / precision / mask entry).
    InvalidTag {
        /// The field holding the tag.
        field: &'static str,
        /// The out-of-domain value (sign-extended for i8 tags).
        value: i64,
    },
    /// A string field holding invalid UTF-8.
    InvalidUtf8 {
        /// The offending field.
        field: &'static str,
    },
    /// Payload bytes remain after the last field — the artifact was written
    /// by something this format does not describe.
    TrailingBytes {
        /// Number of unconsumed payload bytes.
        extra: usize,
    },
    /// A sharded container whose partition fields are inconsistent: an
    /// assignment or routing pair referencing a nonexistent shard, or a
    /// shard-snapshot count that disagrees with the partition.
    InconsistentShards,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated {
                field,
                needed,
                available,
            } => write!(
                f,
                "artifact truncated reading `{field}`: needed {needed} bytes, {available} available"
            ),
            ArtifactError::BadMagic(m) => write!(f, "bad artifact magic {m:02x?}"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            ArtifactError::PayloadLengthMismatch { stored, actual } => write!(
                f,
                "header claims {stored} payload bytes but {actual} are present"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            ArtifactError::InvalidTag { field, value } => {
                write!(f, "invalid `{field}` tag {value}")
            }
            ArtifactError::InvalidUtf8 { field } => write!(f, "`{field}` is not valid UTF-8"),
            ArtifactError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected trailing payload bytes")
            }
            ArtifactError::InconsistentShards => {
                write!(f, "sharded container's partition fields are inconsistent")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a 64 over `bytes` — a dependency-free integrity check. Not
/// cryptographic: it detects bit rot and truncation, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn estimator_tag(kind: EstimatorKind) -> u8 {
    match kind {
        EstimatorKind::Knn => 0,
        EstimatorKind::Wknn => 1,
        EstimatorKind::RandomForest => 2,
    }
}

fn precision_tag(precision: Precision) -> u8 {
    match precision {
        Precision::F64 => 0,
        Precision::F32 => 1,
    }
}

/// Serializes a snapshot into a self-contained artifact byte buffer. The
/// snapshot's `tensors` are not written (see the module docs).
pub fn encode(snapshot: &VenueSnapshot) -> Vec<u8> {
    let mut payload = Vec::new();
    write_string(&mut payload, &snapshot.venue);
    payload.push(estimator_tag(snapshot.estimator));
    payload.extend_from_slice(&(snapshot.knn_k as u32).to_le_bytes());
    payload.extend_from_slice(&snapshot.seed.to_le_bytes());
    payload.push(precision_tag(snapshot.precision));
    payload.extend_from_slice(&(snapshot.map.num_aps() as u32).to_le_bytes());

    // Dense radio map.
    payload.extend_from_slice(&(snapshot.map.len() as u32).to_le_bytes());
    for fingerprint in snapshot.map.fingerprints() {
        for &v in fingerprint {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for location in snapshot.map.locations() {
        payload.extend_from_slice(&location.x.to_bits().to_le_bytes());
        payload.extend_from_slice(&location.y.to_bits().to_le_bytes());
    }

    // Mask matrix.
    payload.extend_from_slice(&(snapshot.mask.rows() as u32).to_le_bytes());
    payload.extend_from_slice(&(snapshot.mask.cols() as u32).to_le_bytes());
    for r in 0..snapshot.mask.rows() {
        for c in 0..snapshot.mask.cols() {
            payload.push(snapshot.mask.get(r, c).as_i8() as u8);
        }
    }

    seal(MAGIC, payload)
}

/// Prepends the checksummed artifact header to `payload`.
fn seal(magic: [u8; 4], payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Serializes a sharded snapshot into a self-contained [`SHARDED_MAGIC`]
/// container: the venue's partition (assignments, centroids, path routing)
/// followed by one complete inner artifact per shard.
pub fn encode_sharded(snapshot: &ShardedVenueSnapshot) -> Vec<u8> {
    let mut payload = Vec::new();
    write_string(&mut payload, &snapshot.venue);
    let shards = &snapshot.shards;
    payload.extend_from_slice(&(shards.assignments().len() as u32).to_le_bytes());
    for &shard in shards.assignments() {
        payload.extend_from_slice(&(shard as u32).to_le_bytes());
    }
    payload.extend_from_slice(&(shards.num_shards() as u32).to_le_bytes());
    for centroid in shards.centroids() {
        payload.extend_from_slice(&centroid.x.to_bits().to_le_bytes());
        payload.extend_from_slice(&centroid.y.to_bits().to_le_bytes());
    }
    payload.extend_from_slice(&(shards.path_shards().len() as u32).to_le_bytes());
    for &(path_id, shard) in shards.path_shards() {
        payload.extend_from_slice(&(path_id as u32).to_le_bytes());
        payload.extend_from_slice(&(shard as u32).to_le_bytes());
    }
    payload.extend_from_slice(&(snapshot.snapshots.len() as u32).to_le_bytes());
    for shard_snapshot in &snapshot.snapshots {
        let inner = encode(shard_snapshot);
        payload.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        payload.extend_from_slice(&inner);
    }
    seal(SHARDED_MAGIC, payload)
}

/// Deserializes a sharded container produced by [`encode_sharded`], with the
/// same guarantees as [`decode`]: bitwise round-trip, typed errors, no
/// panics, and no length field trusted before the bytes are present.
pub fn decode_sharded(bytes: &[u8]) -> Result<ShardedVenueSnapshot, ArtifactError> {
    let payload = validated_payload(bytes, SHARDED_MAGIC)?;
    let mut r = Reader::new(payload);
    let venue = r.string("venue")?;
    let num_records = r.u32("shards.records")? as usize;
    let mut assignments =
        Vec::with_capacity(r.bounded_count("shards.assignments", num_records, 4)?);
    for _ in 0..num_records {
        assignments.push(r.u32("shards.assignments")? as usize);
    }
    let num_shards = r.u32("shards.len")? as usize;
    let mut centroids = Vec::with_capacity(r.bounded_count("shards.centroids", num_shards, 16)?);
    for _ in 0..num_shards {
        let x = f64::from_bits(r.u64("shards.centroids")?);
        let y = f64::from_bits(r.u64("shards.centroids")?);
        centroids.push(Point::new(x, y));
    }
    let num_paths = r.u32("shards.paths")? as usize;
    let mut path_shards = Vec::with_capacity(r.bounded_count("shards.paths", num_paths, 8)?);
    for _ in 0..num_paths {
        let path_id = r.u32("shards.paths")? as usize;
        let shard = r.u32("shards.paths")? as usize;
        path_shards.push((path_id, shard));
    }
    let shards = VenueShards::from_parts(assignments, centroids, path_shards)
        .ok_or(ArtifactError::InconsistentShards)?;

    let snapshot_count = r.u32("snapshots.len")? as usize;
    if snapshot_count != shards.num_shards() {
        return Err(ArtifactError::InconsistentShards);
    }
    let mut snapshots = Vec::with_capacity(r.bounded_count("snapshots", snapshot_count, 8)?);
    for _ in 0..snapshot_count {
        let len = r.u64("shard.artifact.len")? as usize;
        let inner = r.take("shard.artifact", len)?;
        snapshots.push(decode(inner)?);
    }
    if r.remaining() > 0 {
        return Err(ArtifactError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(ShardedVenueSnapshot {
        venue,
        snapshots,
        shards,
    })
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Deserializes an artifact produced by [`encode`]. Returns the snapshot with
/// every serialized float bit-identical to the encoded one and empty
/// `tensors`, or a typed error for any malformed input.
pub fn decode(bytes: &[u8]) -> Result<VenueSnapshot, ArtifactError> {
    let payload = validated_payload(bytes, MAGIC)?;
    let mut r = Reader::new(payload);
    let venue = r.string("venue")?;
    let estimator = match r.u8("estimator")? {
        0 => EstimatorKind::Knn,
        1 => EstimatorKind::Wknn,
        2 => EstimatorKind::RandomForest,
        value => {
            return Err(ArtifactError::InvalidTag {
                field: "estimator",
                value: i64::from(value),
            })
        }
    };
    let knn_k = r.u32("knn_k")? as usize;
    let seed = r.u64("seed")?;
    let precision = match r.u8("precision")? {
        0 => Precision::F64,
        1 => Precision::F32,
        value => {
            return Err(ArtifactError::InvalidTag {
                field: "precision",
                value: i64::from(value),
            })
        }
    };
    let num_aps = r.u32("num_aps")? as usize;

    let n = r.u32("map.len")? as usize;
    let mut fingerprints =
        Vec::with_capacity(r.bounded_count("map.fingerprints", n, num_aps * 8)?);
    for _ in 0..n {
        let mut row = Vec::with_capacity(num_aps);
        for _ in 0..num_aps {
            row.push(f64::from_bits(r.u64("map.fingerprints")?));
        }
        fingerprints.push(row);
    }
    let mut locations = Vec::with_capacity(n);
    for _ in 0..n {
        let x = f64::from_bits(r.u64("map.locations")?);
        let y = f64::from_bits(r.u64("map.locations")?);
        locations.push(Point::new(x, y));
    }
    let map = DenseRadioMap::new(fingerprints, locations, num_aps);

    let mask_rows = r.u32("mask.rows")? as usize;
    let mask_cols = r.u32("mask.cols")? as usize;
    r.bounded_count("mask.entries", mask_rows.saturating_mul(mask_cols), 1)?;
    let mut mask = MaskMatrix::all_observed(mask_rows, mask_cols);
    for row in 0..mask_rows {
        for col in 0..mask_cols {
            let raw = r.u8("mask.entries")? as i8;
            // `EntryKind::from_i8` panics outside {-1, 0, 1}; reject first.
            let kind = match raw {
                1 => EntryKind::Observed,
                0 => EntryKind::Mar,
                -1 => EntryKind::Mnar,
                value => {
                    return Err(ArtifactError::InvalidTag {
                        field: "mask.entries",
                        value: i64::from(value),
                    })
                }
            };
            mask.set(row, col, kind);
        }
    }

    if r.remaining() > 0 {
        return Err(ArtifactError::TrailingBytes {
            extra: r.remaining(),
        });
    }

    Ok(VenueSnapshot {
        venue,
        map,
        mask,
        estimator,
        knn_k,
        seed,
        precision,
        snapshot_dtype: SnapshotDtype::Native,
        tensors: Vec::new(),
    })
}

/// Validates an artifact header (expected magic, version, payload length,
/// checksum) and returns the payload slice that follows it.
fn validated_payload(bytes: &[u8], magic: [u8; 4]) -> Result<&[u8], ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated {
            field: "header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let found: [u8; 4] = bytes[0..4].try_into().expect("sliced 4 bytes");
    if found != magic {
        return Err(ArtifactError::BadMagic(found));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced 4 bytes"));
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let stored_len = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced 8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if stored_len != payload.len() as u64 {
        return Err(ArtifactError::PayloadLengthMismatch {
            stored: stored_len,
            actual: payload.len() as u64,
        });
    }
    let stored_checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("sliced 8 bytes"));
    let computed = fnv1a64(payload);
    if stored_checksum != computed {
        return Err(ArtifactError::ChecksumMismatch {
            stored: stored_checksum,
            computed,
        });
    }
    Ok(payload)
}

/// A bounds-checked little-endian payload reader: every read either yields
/// the value or a [`ArtifactError::Truncated`] naming the field.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, field: &'static str, len: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < len {
            return Err(ArtifactError::Truncated {
                field,
                needed: len,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ArtifactError> {
        Ok(self.take(field, 1)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.take(field, 4)?.try_into().expect("sliced 4 bytes"),
        ))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.take(field, 8)?.try_into().expect("sliced 8 bytes"),
        ))
    }

    fn string(&mut self, field: &'static str) -> Result<String, ArtifactError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(field, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::InvalidUtf8 { field })
    }

    /// Validates that `count` items of at least `min_item_bytes` each can
    /// still be read, returning `count` — the guard that keeps a forged
    /// count field from driving a huge allocation before the truncation
    /// would be noticed element by element.
    fn bounded_count(
        &self,
        field: &'static str,
        count: usize,
        min_item_bytes: usize,
    ) -> Result<usize, ArtifactError> {
        let needed = count.saturating_mul(min_item_bytes.max(1));
        if needed > self.remaining() {
            return Err(ArtifactError::Truncated {
                field,
                needed,
                available: self.remaining(),
            });
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_tensor::{Matrix, NamedTensor};

    fn tiny_snapshot() -> VenueSnapshot {
        let map = DenseRadioMap::new(
            vec![vec![-50.0, f64::NAN], vec![-0.0, -70.5]],
            vec![Point::new(0.0, 1.0), Point::new(2.5, -3.5)],
            2,
        );
        let mut mask = MaskMatrix::all_observed(2, 2);
        mask.set(0, 1, EntryKind::Mar);
        mask.set(1, 0, EntryKind::Mnar);
        VenueSnapshot {
            venue: "hall-α".to_string(),
            map,
            mask,
            estimator: EstimatorKind::Wknn,
            knn_k: 3,
            seed: 2023,
            precision: Precision::F32,
            snapshot_dtype: SnapshotDtype::Native,
            tensors: vec![
                NamedTensor::new("w.f64", Matrix::<f64>::from_vec(1, 2, vec![1.5, f64::NAN])),
                NamedTensor::new("w.f32", Matrix::<f32>::from_vec(2, 1, vec![-0.0, 7.25])),
            ],
        }
    }

    /// Every serialized field of `decoded` is bitwise `original`'s; the
    /// weights are not serialized, so `decoded` holds none.
    fn assert_snapshots_bits_eq(original: &VenueSnapshot, decoded: &VenueSnapshot) {
        let (a, b) = (original, decoded);
        assert_eq!(a.venue, b.venue);
        assert_eq!(a.estimator, b.estimator);
        assert_eq!(a.knn_k, b.knn_k);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.precision, b.precision);
        assert_eq!(a.snapshot_dtype, b.snapshot_dtype);
        assert_eq!(a.map.num_aps(), b.map.num_aps());
        assert_eq!(a.map.len(), b.map.len());
        for (fa, fb) in a.map.fingerprints().iter().zip(b.map.fingerprints()) {
            for (x, y) in fa.iter().zip(fb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (pa, pb) in a.map.locations().iter().zip(b.map.locations()) {
            assert_eq!(pa.x.to_bits(), pb.x.to_bits());
            assert_eq!(pa.y.to_bits(), pb.y.to_bits());
        }
        assert_eq!(a.mask, b.mask);
        assert!(decoded.tensors.is_empty(), "weights were deserialized");
    }

    #[test]
    fn round_trip_is_bitwise_identity() {
        let snapshot = tiny_snapshot();
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).expect("decode");
        assert_snapshots_bits_eq(&snapshot, &decoded);
        // Re-encoding the decoded, weightless snapshot reproduces the byte
        // stream: the weights never reach the bytes.
        assert_eq!(bytes, encode(&decoded));
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut bytes = encode(&tiny_snapshot());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(decode(&wrong), Err(ArtifactError::BadMagic(_))));
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_is_a_typed_error_never_a_panic() {
        let bytes = encode(&tiny_snapshot());
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).expect_err("truncated artifact must not decode");
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::PayloadLengthMismatch { .. }
                ),
                "unexpected error at length {len}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let bytes = encode(&tiny_snapshot());
        for flip in [HEADER_LEN, HEADER_LEN + 7, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0x40;
            assert!(
                matches!(
                    decode(&corrupt),
                    Err(ArtifactError::ChecksumMismatch { .. })
                ),
                "flip at {flip} not caught"
            );
        }
        // A corrupted checksum itself is also caught.
        let mut corrupt = bytes.clone();
        corrupt[16] ^= 1;
        assert!(matches!(
            decode(&corrupt),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn invalid_tags_are_rejected_before_construction() {
        // Re-encode with each enum tag forged (fixing up the checksum so the
        // tag check, not the checksum, is what rejects).
        let snapshot = tiny_snapshot();
        let bytes = encode(&snapshot);
        let venue_len = 4 + snapshot.venue.len();
        let estimator_off = HEADER_LEN + venue_len;
        let precision_off = estimator_off + 1 + 4 + 8;
        for (offset, field) in [(estimator_off, "estimator"), (precision_off, "precision")] {
            let mut forged = bytes.clone();
            forged[offset] = 0xEE;
            let payload = forged[HEADER_LEN..].to_vec();
            forged[16..24].copy_from_slice(&fnv1a64(&payload).to_le_bytes());
            match decode(&forged) {
                Err(ArtifactError::InvalidTag { field: got, .. }) => assert_eq!(got, field),
                other => panic!("forged {field} tag: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&tiny_snapshot());
        bytes.push(0);
        // Appending without touching the header breaks the length check...
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::PayloadLengthMismatch { .. })
        ));
        // ...and fixing up length + checksum exposes the trailing-byte check.
        let new_len = (bytes.len() - HEADER_LEN) as u64;
        bytes[8..16].copy_from_slice(&new_len.to_le_bytes());
        let checksum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn forged_giant_counts_fail_fast_without_allocating() {
        // Forge the mask's rows and cols to u32::MAX with a valid checksum:
        // the bounded-count guard must reject the u64::MAX-entry mask
        // instead of reserving it.
        let snapshot = tiny_snapshot();
        let bytes = encode(&snapshot);
        let mask_bytes = 8 + snapshot.mask.rows() * snapshot.mask.cols();
        let dims_off = bytes.len() - mask_bytes; // the mask is the last field
        let mut forged = bytes.clone();
        forged[dims_off..dims_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        forged[dims_off + 4..dims_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let payload = forged[HEADER_LEN..].to_vec();
        forged[16..24].copy_from_slice(&fnv1a64(&payload).to_le_bytes());
        assert!(matches!(
            decode(&forged),
            Err(ArtifactError::Truncated {
                field: "mask.entries",
                ..
            })
        ));
    }

    /// Version 1 carried the imputer weights and version 2 a snapshot-dtype
    /// byte; this build rejects both through both entry points with the
    /// typed error.
    #[test]
    fn older_artifact_versions_are_unsupported() {
        for version in [1u32, 2] {
            let mut plain = encode(&tiny_snapshot());
            let mut sharded = encode_sharded(&tiny_sharded_snapshot());
            for bytes in [&mut plain, &mut sharded] {
                bytes[4..8].copy_from_slice(&version.to_le_bytes());
            }
            let unsupported = Some(ArtifactError::UnsupportedVersion(version));
            assert_eq!(decode(&plain).err(), unsupported);
            assert_eq!(decode_sharded(&sharded).err(), unsupported);
        }
    }

    fn tiny_sharded_snapshot() -> ShardedVenueSnapshot {
        let shards = VenueShards::from_parts(
            vec![0, 1, 0],
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![(0, 0), (1, 1)],
        )
        .expect("consistent partition");
        let snapshots = vec![
            VenueSnapshot {
                venue: "hall-α/shard0".to_string(),
                ..tiny_snapshot()
            },
            VenueSnapshot {
                venue: "hall-α/shard1".to_string(),
                tensors: Vec::new(),
                ..tiny_snapshot()
            },
        ];
        ShardedVenueSnapshot {
            venue: "hall-α".to_string(),
            snapshots,
            shards,
        }
    }

    #[test]
    fn sharded_round_trip_is_bitwise_identity() {
        let snapshot = tiny_sharded_snapshot();
        let bytes = encode_sharded(&snapshot);
        let decoded = decode_sharded(&bytes).expect("decode sharded");
        assert_eq!(decoded.venue, snapshot.venue);
        assert_eq!(decoded.shards.assignments(), snapshot.shards.assignments());
        assert_eq!(decoded.shards.num_shards(), snapshot.shards.num_shards());
        for (a, b) in decoded
            .shards
            .centroids()
            .iter()
            .zip(snapshot.shards.centroids())
        {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
        assert_eq!(decoded.shards.path_shards(), snapshot.shards.path_shards());
        assert_eq!(decoded.snapshots.len(), snapshot.snapshots.len());
        for (original, decoded) in snapshot.snapshots.iter().zip(&decoded.snapshots) {
            assert_snapshots_bits_eq(original, decoded);
        }
        // Re-encoding the decoded container reproduces the byte stream.
        assert_eq!(bytes, encode_sharded(&decoded));
    }

    /// A bare venue converted to one shard is a valid container: it
    /// round-trips, and its one shard holds every record.
    #[test]
    fn a_bare_snapshot_as_one_shard_round_trips_bitwise() {
        let snapshot = ShardedVenueSnapshot::from(tiny_snapshot());
        let bytes = encode_sharded(&snapshot);
        let decoded = decode_sharded(&bytes).expect("decode sharded");
        assert_eq!(decoded.num_shards(), 1);
        assert_eq!(decoded.shards.members_of(0), [0, 1]);
        assert_snapshots_bits_eq(&tiny_snapshot(), &decoded.snapshots[0]);
        assert_eq!(bytes, encode_sharded(&decoded));
    }

    #[test]
    fn sharded_magic_is_distinct_and_checked_both_ways() {
        let sharded = encode_sharded(&tiny_sharded_snapshot());
        let plain = encode(&tiny_snapshot());
        // A plain artifact is not a sharded container and vice versa.
        assert!(matches!(
            decode_sharded(&plain),
            Err(ArtifactError::BadMagic(m)) if m == MAGIC
        ));
        assert!(matches!(
            decode(&sharded),
            Err(ArtifactError::BadMagic(m)) if m == SHARDED_MAGIC
        ));
    }

    #[test]
    fn every_sharded_truncation_point_is_a_typed_error_never_a_panic() {
        let bytes = encode_sharded(&tiny_sharded_snapshot());
        for len in 0..bytes.len() {
            let err =
                decode_sharded(&bytes[..len]).expect_err("truncated container must not decode");
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::PayloadLengthMismatch { .. }
                ),
                "unexpected error at length {len}: {err}"
            );
        }
    }

    #[test]
    fn inconsistent_partitions_are_rejected() {
        // An assignment referencing a nonexistent shard must fail decoding
        // even though the bytes themselves are well-formed. Forge the first
        // assignment (right after the venue string) and fix up the checksum.
        let snapshot = tiny_sharded_snapshot();
        let bytes = encode_sharded(&snapshot);
        let assignment_off = HEADER_LEN + 4 + snapshot.venue.len() + 4;
        let mut forged = bytes.clone();
        forged[assignment_off..assignment_off + 4].copy_from_slice(&99u32.to_le_bytes());
        let payload = forged[HEADER_LEN..].to_vec();
        forged[16..24].copy_from_slice(&fnv1a64(&payload).to_le_bytes());
        assert!(matches!(
            decode_sharded(&forged),
            Err(ArtifactError::InconsistentShards)
        ));

        // A snapshot count that disagrees with the partition is also
        // inconsistent: encode with one shard snapshot missing.
        let mut short = snapshot;
        short.snapshots.pop();
        assert!(matches!(
            decode_sharded(&encode_sharded(&short)),
            Err(ArtifactError::InconsistentShards)
        ));
    }

    #[test]
    fn errors_display_their_diagnosis() {
        let e = ArtifactError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(ArtifactError::BadMagic(*b"nope")
            .to_string()
            .contains("magic"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("checksum"));
    }
}
