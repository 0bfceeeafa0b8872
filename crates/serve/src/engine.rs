//! The request-batching query front end.

use rm_geometry::Point;

use crate::registry::ModelRegistry;

/// Upper bound on one micro-batch: requests are fanned over the worker pool
/// in groups of at most this many, so a flush's latency is bounded no matter
/// how fast requests arrive.
pub const MAX_MICRO_BATCH: usize = 64;

/// Why a query was rejected at the engine boundary instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The fingerprint's length differs from the venue's AP count.
    Arity {
        /// The venue's AP count.
        expected: usize,
        /// The fingerprint's length.
        got: usize,
    },
    /// The fingerprint holds a NaN or infinite RSSI.
    NonFinite,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Arity { expected, got } => {
                write!(
                    f,
                    "query has {got} RSSI values, the venue has {expected} APs"
                )
            }
            QueryError::NonFinite => write!(f, "query holds a non-finite RSSI value"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Checks one query against a venue with `num_aps` APs: the right arity and
/// finite values only. Both engines run it before estimating, so a
/// malformed query is rejected on its own and the rest of its micro-batch
/// is still answered.
fn check_query(fingerprint: &[f64], num_aps: usize) -> Result<(), QueryError> {
    if fingerprint.len() != num_aps {
        return Err(QueryError::Arity {
            expected: num_aps,
            got: fingerprint.len(),
        });
    }
    if fingerprint.iter().any(|v| !v.is_finite()) {
        return Err(QueryError::NonFinite);
    }
    Ok(())
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Position of the query in this engine's submission order (0-based).
    pub index: u64,
    /// The estimated location, or `None` when the model declined the query
    /// or the engine rejected it.
    pub position: Option<Point>,
    /// The registry generation of the model that answered — every response
    /// is attributable to exactly one published model.
    pub generation: u64,
    /// Why the query was rejected (`position` is then `None`), or `None`
    /// when it was answered.
    pub error: Option<QueryError>,
}

/// A batching query engine for one venue.
///
/// Requests accumulate in submission order and are flushed in micro-batches
/// of at most [`MAX_MICRO_BATCH`]: each flush clones the venue's current
/// `Arc<VenueModel>` from the registry **once** and fans the whole batch
/// over the deterministic worker pool against that one immutable model — so
/// a batch can never straddle a hot swap, and every response carries the
/// generation that actually answered it.
///
/// # Determinism
///
/// Batch boundaries depend only on the submission order and the batch
/// capacity — never on the thread count — and the fan-out is
/// `rm_runtime::par_map`, which is order-preserving and bit-identical at
/// any width. A fixed query log against a fixed model therefore yields
/// bit-identical responses at `RM_THREADS=1`, `2` or `N`, and each response
/// equals the offline `evaluate_estimator` path's per-query estimate on the
/// same model (both are exactly `estimator.estimate(fingerprint)`).
pub struct QueryEngine<'a> {
    registry: &'a ModelRegistry,
    venue: String,
    threads: usize,
    max_batch: usize,
    next_index: u64,
    pending: Vec<(u64, Vec<f64>)>,
    answered: Vec<QueryResponse>,
}

impl<'a> QueryEngine<'a> {
    /// An engine serving `venue` from `registry`, flushing at
    /// [`MAX_MICRO_BATCH`] pending requests. `threads` is the fan-out width
    /// per micro-batch (`0` = auto, `1` = serial; responses are
    /// bit-identical at any value).
    pub fn new(registry: &'a ModelRegistry, venue: impl Into<String>, threads: usize) -> Self {
        Self::with_max_batch(registry, venue, threads, MAX_MICRO_BATCH)
    }

    /// [`QueryEngine::new`] with an explicit micro-batch capacity, clamped
    /// to `1..=MAX_MICRO_BATCH`. The capacity changes scheduling (how many
    /// requests share one model acquisition), never results.
    pub fn with_max_batch(
        registry: &'a ModelRegistry,
        venue: impl Into<String>,
        threads: usize,
        max_batch: usize,
    ) -> Self {
        Self {
            registry,
            venue: venue.into(),
            threads,
            max_batch: max_batch.clamp(1, MAX_MICRO_BATCH),
            next_index: 0,
            pending: Vec::new(),
            answered: Vec::new(),
        }
    }

    /// The venue this engine serves.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// Enqueues one query; flushes automatically when the micro-batch is
    /// full. Returns the query's submission index.
    pub fn submit(&mut self, fingerprint: Vec<f64>) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        self.pending.push((index, fingerprint));
        if self.pending.len() >= self.max_batch {
            self.flush();
        }
        index
    }

    /// Flushes the pending (possibly partial) micro-batch. A no-op when
    /// nothing is pending. Panics if no model was ever published for this
    /// venue — serving without a model is a deployment error, not a query
    /// error.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let model = self
            .registry
            .model(&self.venue)
            .unwrap_or_else(|| panic!("no model published for venue `{}`", self.venue));
        let batch = std::mem::take(&mut self.pending);
        // One Arc acquisition for the whole batch: every response below is
        // computed by — and attributed to — this one immutable model, no
        // matter what the registry publishes meanwhile.
        let generation = model.generation();
        let answers = rm_runtime::par_map(self.threads, &batch, |_, (_, fingerprint)| {
            check_query(fingerprint, model.num_aps()).map(|()| model.estimate(fingerprint))
        });
        self.answered
            .extend(
                batch
                    .iter()
                    .zip(answers)
                    .map(|(&(index, _), answer)| QueryResponse {
                        index,
                        position: answer.ok().flatten(),
                        generation,
                        error: answer.err(),
                    }),
            );
    }

    /// Flushes any partial batch and returns every response answered since
    /// the last drain, in submission order.
    pub fn drain(&mut self) -> Vec<QueryResponse> {
        self.flush();
        std::mem::take(&mut self.answered)
    }

    /// Convenience for replaying a fixed query log: submits every
    /// fingerprint, flushes, and returns all responses in submission order.
    pub fn run_log(&mut self, log: &[Vec<f64>]) -> Vec<QueryResponse> {
        for fingerprint in log {
            self.submit(fingerprint.clone());
        }
        self.drain()
    }
}

/// One answered query against a sharded venue.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryResponse {
    /// Position of the query in this engine's submission order (0-based).
    pub index: u64,
    /// The estimated location (best-first cross-shard search; see
    /// [`ShardedVenueModel`](crate::model::ShardedVenueModel)), or `None`
    /// when the engine rejected the query.
    pub position: Option<Point>,
    /// The primary shard the query routed to (AP overlap, ties by nearest
    /// signal centroid); 0 for a rejected query.
    pub shard: usize,
    /// The generation of the primary shard's model — after an incremental
    /// republish, queries routing to clean shards keep reporting those
    /// shards' old generations. A rejected query reports the venue's
    /// newest generation.
    pub generation: u64,
    /// Why the query was rejected, or `None` when it was answered.
    pub error: Option<QueryError>,
}

/// The sharded counterpart of [`QueryEngine`]: batching, flush rules, and
/// determinism contract are identical, but each flush acquires the venue's
/// composed [`ShardedVenueModel`](crate::model::ShardedVenueModel) once, and
/// every response carries the primary shard it routed to plus that shard's
/// generation. A batch can therefore never straddle a per-shard republish:
/// all its answers come from one consistent set of shard models.
pub struct ShardedQueryEngine<'a> {
    registry: &'a ModelRegistry,
    venue: String,
    threads: usize,
    max_batch: usize,
    next_index: u64,
    pending: Vec<(u64, Vec<f64>)>,
    answered: Vec<ShardedQueryResponse>,
}

impl<'a> ShardedQueryEngine<'a> {
    /// An engine serving the sharded venue `venue` from `registry`, flushing
    /// at [`MAX_MICRO_BATCH`] pending requests (`threads` as in
    /// [`QueryEngine::new`]).
    pub fn new(registry: &'a ModelRegistry, venue: impl Into<String>, threads: usize) -> Self {
        Self::with_max_batch(registry, venue, threads, MAX_MICRO_BATCH)
    }

    /// [`ShardedQueryEngine::new`] with an explicit micro-batch capacity,
    /// clamped to `1..=MAX_MICRO_BATCH`. Capacity changes scheduling, never
    /// results.
    pub fn with_max_batch(
        registry: &'a ModelRegistry,
        venue: impl Into<String>,
        threads: usize,
        max_batch: usize,
    ) -> Self {
        Self {
            registry,
            venue: venue.into(),
            threads,
            max_batch: max_batch.clamp(1, MAX_MICRO_BATCH),
            next_index: 0,
            pending: Vec::new(),
            answered: Vec::new(),
        }
    }

    /// The venue this engine serves.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// Enqueues one query; flushes automatically when the micro-batch is
    /// full. Returns the query's submission index.
    pub fn submit(&mut self, fingerprint: Vec<f64>) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        self.pending.push((index, fingerprint));
        if self.pending.len() >= self.max_batch {
            self.flush();
        }
        index
    }

    /// Flushes the pending (possibly partial) micro-batch. Panics if no
    /// sharded model was ever published for this venue.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let model = self
            .registry
            .sharded_model(&self.venue)
            .unwrap_or_else(|| panic!("no sharded model published for venue `{}`", self.venue));
        let batch = std::mem::take(&mut self.pending);
        let answers = rm_runtime::par_map(self.threads, &batch, |_, (_, fingerprint)| {
            check_query(fingerprint, model.num_aps()).map(|()| model.query(fingerprint))
        });
        self.answered.extend(
            batch
                .iter()
                .zip(answers)
                .map(|(&(index, _), answer)| match answer {
                    Ok(answer) => ShardedQueryResponse {
                        index,
                        position: answer.position,
                        shard: answer.shard,
                        generation: model.models()[answer.shard].generation(),
                        error: None,
                    },
                    Err(error) => ShardedQueryResponse {
                        index,
                        position: None,
                        shard: 0,
                        generation: model.generation(),
                        error: Some(error),
                    },
                }),
        );
    }

    /// Flushes any partial batch and returns every response answered since
    /// the last drain, in submission order.
    pub fn drain(&mut self) -> Vec<ShardedQueryResponse> {
        self.flush();
        std::mem::take(&mut self.answered)
    }

    /// Submits every fingerprint of a fixed query log, flushes, and returns
    /// all responses in submission order.
    pub fn run_log(&mut self, log: &[Vec<f64>]) -> Vec<ShardedQueryResponse> {
        for fingerprint in log {
            self.submit(fingerprint.clone());
        }
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use radiomap_core::VenueSnapshot;
    use rm_radiomap::{DenseRadioMap, MaskMatrix};
    use rm_tensor::{Precision, SnapshotDtype};

    fn registry_with_grid() -> ModelRegistry {
        // 4 reference points on a line; 1-NN is exact on its fingerprints.
        let fingerprints: Vec<Vec<f64>> = (0..4).map(|i| vec![-50.0 - 10.0 * i as f64]).collect();
        let locations = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let registry = ModelRegistry::new();
        registry.publish(
            VenueSnapshot {
                venue: "v".into(),
                map: DenseRadioMap::new(fingerprints, locations, 1),
                mask: MaskMatrix::all_observed(4, 1),
                estimator: EstimatorKind::Knn,
                knn_k: 1,
                seed: 0,
                precision: Precision::F64,
                snapshot_dtype: SnapshotDtype::Native,
                tensors: Vec::new(),
            },
            1,
        );
        registry
    }

    #[test]
    fn responses_arrive_in_submission_order_with_generations() {
        let registry = registry_with_grid();
        let mut engine = QueryEngine::with_max_batch(&registry, "v", 1, 2);
        let log: Vec<Vec<f64>> = vec![vec![-50.0], vec![-70.0], vec![-60.0]];
        let responses = engine.run_log(&log);
        assert_eq!(responses.len(), 3);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.index, i as u64);
            assert_eq!(r.generation, 1);
        }
        assert_eq!(responses[0].position.unwrap().x, 0.0);
        assert_eq!(responses[1].position.unwrap().x, 2.0);
        assert_eq!(responses[2].position.unwrap().x, 1.0);
    }

    #[test]
    fn submit_autoflushes_at_capacity_and_drain_flushes_the_rest() {
        let registry = registry_with_grid();
        let mut engine = QueryEngine::with_max_batch(&registry, "v", 1, 2);
        engine.submit(vec![-50.0]);
        assert!(engine.answered.is_empty());
        engine.submit(vec![-60.0]); // fills the batch → autoflush
        assert_eq!(engine.answered.len(), 2);
        engine.submit(vec![-70.0]); // partial
        let responses = engine.drain();
        assert_eq!(responses.len(), 3);
        assert!(engine.drain().is_empty());
        // Indices keep counting across drains.
        assert_eq!(engine.submit(vec![-50.0]), 3);
    }

    #[test]
    fn capacity_is_clamped_to_the_micro_batch_bound() {
        let registry = registry_with_grid();
        let engine = QueryEngine::with_max_batch(&registry, "v", 1, 10_000);
        assert_eq!(engine.max_batch, MAX_MICRO_BATCH);
        let engine = QueryEngine::with_max_batch(&registry, "v", 1, 0);
        assert_eq!(engine.max_batch, 1);
    }

    #[test]
    #[should_panic(expected = "no model published for venue")]
    fn flushing_against_an_unpublished_venue_panics() {
        let registry = ModelRegistry::new();
        let mut engine = QueryEngine::new(&registry, "ghost", 1);
        engine.submit(vec![-50.0]);
        engine.flush();
    }

    #[test]
    fn batch_capacity_changes_scheduling_never_results() {
        let registry = registry_with_grid();
        let log: Vec<Vec<f64>> = (0..37).map(|i| vec![-45.0 - (i as f64) * 1.3]).collect();
        let reference = QueryEngine::with_max_batch(&registry, "v", 1, 1).run_log(&log);
        for capacity in [2, 7, MAX_MICRO_BATCH] {
            let got = QueryEngine::with_max_batch(&registry, "v", 1, capacity).run_log(&log);
            assert_eq!(got, reference, "capacity {capacity} changed responses");
        }
    }
}
