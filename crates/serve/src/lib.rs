//! # rm-serve — versioned venue-model artifacts and snapshot-swap serving
//!
//! The online half of the pipeline: the offline side trains imputers and
//! exports a [`VenueSnapshot`] (or a [`ShardedVenueSnapshot`] with one
//! snapshot per spatial shard); this crate persists it, loads it, and
//! answers location queries against it. A bare venue is served as a venue
//! with one shard (`ShardedVenueSnapshot::from`), so there is one serving
//! path.
//!
//! * [`artifact`] — a stable, checksummed, dependency-free on-disk format
//!   for `VenueSnapshot`s ([`encode`] / [`decode`]) and for sharded
//!   containers of them ([`encode_sharded`] / [`decode_sharded`]), with a
//!   bitwise round-trip guarantee. Only what serving reads is written: the
//!   imputer weights stay in memory, for warm start.
//! * [`model`] — [`ShardedVenueModel`]: one immutable [`ShardModel`] per
//!   shard, each tagged with the generation that published it. KNN queries
//!   are answered by an exact best-first search over per-shard bounding
//!   boxes, so answers equal the whole-venue estimator's while most shards
//!   go unscanned.
//! * [`registry`] — [`ModelRegistry`]: one atomically hot-swappable
//!   `Arc<ShardedVenueModel>` per venue with monotonic generation counters;
//!   no query ever observes a torn model, and
//!   [`ModelRegistry::publish_shard`] republishes one shard without
//!   rebuilding the clean ones.
//! * [`engine`] — [`ShardedQueryEngine`]: a request-batching front end that
//!   fans micro-batches of at most [`MAX_MICRO_BATCH`] queries over the
//!   deterministic worker pool. A fixed query log yields bit-identical
//!   responses at any thread count. A malformed query (wrong arity, NaN or
//!   ±∞) or a query for an unpublished venue is rejected with a typed
//!   [`QueryError`] on its response, and the rest of its batch is answered.
//!
//! ```no_run
//! use radiomap_core::ShardedVenueSnapshot;
//! use rm_serve::{load_artifact, ModelRegistry, ShardedQueryEngine};
//!
//! let snapshot = load_artifact("venue.rmvm").unwrap();
//! let registry = ModelRegistry::new();
//! registry.publish_sharded(ShardedVenueSnapshot::from(snapshot), 0);
//! let mut engine = ShardedQueryEngine::new(&registry, "venue", 0);
//! let responses = engine.run_log(&[vec![-52.0, -71.0]]);
//! # let _ = responses;
//! ```

pub mod artifact;
pub mod engine;
pub mod model;
pub mod registry;

pub use artifact::{
    decode, decode_sharded, encode, encode_sharded, ArtifactError, FORMAT_VERSION, SHARDED_MAGIC,
};
pub use engine::{QueryError, ShardedQueryEngine, ShardedQueryResponse, MAX_MICRO_BATCH};
pub use model::{ShardModel, ShardedAnswer, ShardedVenueModel};
pub use registry::ModelRegistry;

use std::path::Path;

use radiomap_core::{ShardedVenueSnapshot, VenueSnapshot};

/// Why [`load_artifact`] failed: the file couldn't be read, or it could but
/// its bytes are not a valid artifact.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file's bytes failed artifact validation.
    Format(ArtifactError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "reading artifact: {e}"),
            LoadError::Format(e) => write!(f, "decoding artifact: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<ArtifactError> for LoadError {
    fn from(e: ArtifactError) -> Self {
        LoadError::Format(e)
    }
}

/// Encodes `snapshot` and writes it to `path` ([`encode`] + `fs::write`).
pub fn save_artifact(path: impl AsRef<Path>, snapshot: &VenueSnapshot) -> std::io::Result<()> {
    std::fs::write(path, encode(snapshot))
}

/// Reads `path` and decodes it ([`decode`] + `fs::read`), distinguishing
/// I/O failures from malformed artifacts.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<VenueSnapshot, LoadError> {
    Ok(decode(&std::fs::read(path)?)?)
}

/// Encodes a sharded snapshot and writes it to `path`
/// ([`encode_sharded`] + `fs::write`).
pub fn save_sharded_artifact(
    path: impl AsRef<Path>,
    snapshot: &ShardedVenueSnapshot,
) -> std::io::Result<()> {
    std::fs::write(path, encode_sharded(snapshot))
}

/// Reads `path` and decodes it as a sharded container
/// ([`decode_sharded`] + `fs::read`).
pub fn load_sharded_artifact(path: impl AsRef<Path>) -> Result<ShardedVenueSnapshot, LoadError> {
    Ok(decode_sharded(&std::fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use radiomap_core::{Precision, SnapshotDtype};
    use rm_geometry::Point;
    use rm_radiomap::{DenseRadioMap, MaskMatrix};

    fn snapshot() -> VenueSnapshot {
        VenueSnapshot {
            venue: "disk".into(),
            map: DenseRadioMap::new(vec![vec![-61.5]], vec![Point::new(3.0, 4.0)], 1),
            mask: MaskMatrix::all_observed(1, 1),
            estimator: EstimatorKind::Wknn,
            knn_k: 3,
            seed: 11,
            precision: Precision::F32,
            snapshot_dtype: SnapshotDtype::Native,
            tensors: Vec::new(),
        }
    }

    #[test]
    fn save_then_load_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("rm-serve-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("venue.rmvm");
        let original = snapshot();
        save_artifact(&path, &original).unwrap();
        let loaded = load_artifact(&path).unwrap();
        assert_eq!(encode(&loaded), encode(&original));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_distinguishes_io_from_format_errors() {
        let missing = load_artifact("/nonexistent/venue.rmvm").unwrap_err();
        assert!(matches!(missing, LoadError::Io(_)), "{missing}");

        let dir = std::env::temp_dir().join(format!("rm-serve-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.rmvm");
        std::fs::write(&path, b"not an artifact").unwrap();
        let garbage = load_artifact(&path).unwrap_err();
        assert!(matches!(garbage, LoadError::Format(_)), "{garbage}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
