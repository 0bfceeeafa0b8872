//! The end-to-end imputation pipeline and the evaluation protocol of
//! Section V-A.
//!
//! # Parallelism and determinism
//!
//! The pipeline fans independent work out over the deterministic
//! [`rm_runtime`] pool: grid evaluations run cell by cell through an ordered
//! `par_map` ([`ImputationPipeline::evaluate_grid`]), positioning queries are
//! evaluated in parallel, and the imputers parallelise their column/sequence
//! loops internally. [`PipelineConfig::threads`] controls the fan-out width
//! (`0` = auto: the `RM_THREADS` environment variable, else available
//! parallelism). Results are **bit-identical at any thread count** — see the
//! determinism contract in `rm_runtime`.

use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rm_bisim::{AttentionMode, Bisim, BisimConfig, TimeLagMode};
use rm_differentiator::{
    ClusteringDifferentiator, DasaKm, Differentiator, ElbowKm, MarOnly, MnarOnly, TopoAc,
};
use rm_geometry::MultiPolygon;
use rm_geometry::Point;
use rm_imputers::{
    Brits, BritsConfig, CaseDeletion, ImputedRadioMap, Imputer, LinearInterpolation,
    MatrixFactorization, Mice, SemiSupervised, Ssgan, SsganConfig,
};
use rm_positioning::{evaluate_estimator_threads, EstimatorKind, TestQuery};
use rm_radiomap::{DenseRadioMap, MaskMatrix, RadioMap, RemovedRp, RemovedRssi, VenueShards};
use rm_tensor::{NamedTensor, Precision};

/// Default shard count for the sharded pipeline mode: the `RM_SHARDS`
/// environment variable if set to a positive integer, else `1` (unsharded).
/// Resolved once per process and cached, so every stage agrees and
/// concurrent tests never observe a mid-run environment change.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn default_shards() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_SHARDS
        std::env::var("RM_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(1)
    })
}

/// Which missing-RSSI differentiator the pipeline uses (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifferentiatorKind {
    /// Topology-aware agglomerative clustering (the paper's best).
    TopoAc,
    /// Differentiation-accuracy-aware sampled K-means.
    DasaKm,
    /// K-means with the elbow method (baseline).
    ElbowKm,
    /// Treat every missing RSSI as MAR (no differentiation).
    MarOnly,
    /// Treat every missing RSSI as MNAR (no differentiation).
    MnarOnly,
}

impl DifferentiatorKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            DifferentiatorKind::TopoAc => "TopoAC",
            DifferentiatorKind::DasaKm => "DasaKM",
            DifferentiatorKind::ElbowKm => "ElbowKM",
            DifferentiatorKind::MarOnly => "MAR-only",
            DifferentiatorKind::MnarOnly => "MNAR-only",
        }
    }

    /// Builds the differentiator. `topology` is the venue's obstacle
    /// multipolygon (used by `TopoAC` only) and `eta` the fraction threshold.
    pub fn build(self, topology: &MultiPolygon, eta: f64, seed: u64) -> Box<dyn Differentiator> {
        match self {
            DifferentiatorKind::TopoAc => {
                Box::new(ClusteringDifferentiator::new(TopoAc::new(topology.clone())).with_eta(eta))
            }
            DifferentiatorKind::DasaKm => {
                Box::new(ClusteringDifferentiator::new(DasaKm::new(seed)).with_eta(eta))
            }
            DifferentiatorKind::ElbowKm => {
                Box::new(ClusteringDifferentiator::new(ElbowKm::new(seed)).with_eta(eta))
            }
            DifferentiatorKind::MarOnly => Box::new(MarOnly),
            DifferentiatorKind::MnarOnly => Box::new(MnarOnly),
        }
    }
}

/// Which data imputer the pipeline uses (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputerKind {
    /// The paper's BiSIM model.
    Bisim,
    /// Case deletion.
    CaseDeletion,
    /// Linear interpolation of RPs.
    LinearInterpolation,
    /// Semi-supervised RP inference.
    SemiSupervised,
    /// Multiple imputation by chained equations.
    Mice,
    /// Matrix factorization.
    MatrixFactorization,
    /// Bidirectional recurrent imputation (BRITS).
    Brits,
    /// GAN-based time-series imputation (SSGAN).
    Ssgan,
}

impl ImputerKind {
    /// All imputer kinds in the order of Table VI (BiSIM last).
    pub fn all() -> [ImputerKind; 8] {
        [
            ImputerKind::CaseDeletion,
            ImputerKind::LinearInterpolation,
            ImputerKind::SemiSupervised,
            ImputerKind::Mice,
            ImputerKind::MatrixFactorization,
            ImputerKind::Brits,
            ImputerKind::Ssgan,
            ImputerKind::Bisim,
        ]
    }

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ImputerKind::Bisim => "BiSIM",
            ImputerKind::CaseDeletion => "CD",
            ImputerKind::LinearInterpolation => "LI",
            ImputerKind::SemiSupervised => "SL",
            ImputerKind::Mice => "MICE",
            ImputerKind::MatrixFactorization => "MF",
            ImputerKind::Brits => "BRITS",
            ImputerKind::Ssgan => "SSGAN",
        }
    }

    /// Builds the imputer from a [`BuildOptions`] bundle.
    ///
    /// The BiSIM ablation settings are ignored by the other imputers.
    /// `epochs` overrides the training epoch count of the neural imputers;
    /// `None` keeps their default (which honours the `RM_EPOCHS`/`RM_QUICK`
    /// environment variables). `threads` is forwarded to the imputers with
    /// internal fan-outs (`0` = auto); results are bit-identical at any
    /// thread count. `batch_size` overrides the training mini-batch size of
    /// the recurrent imputers (BiSIM, BRITS, SSGAN); `None` keeps their
    /// default (the `RM_BATCH` environment variable, else 1 — the classic
    /// per-sequence SGD trajectory). Unlike `threads`, the batch size *does*
    /// change which model a fixed seed yields (fewer, summed-gradient
    /// steps), but any fixed value stays bit-identical across thread counts.
    /// `precision` selects the inference precision of the neural imputers:
    /// training always runs at `f64`, and [`Precision::F32`] rounds the
    /// trained weights once and runs inference through the f32 SIMD kernels.
    /// The deterministic (non-neural) imputers ignore it.
    pub fn build_with(self, options: &BuildOptions) -> Box<dyn Imputer> {
        let &BuildOptions {
            seed,
            attention,
            time_lag,
            epochs,
            threads,
            batch_size,
            precision,
        } = options;
        match self {
            ImputerKind::Bisim => {
                let mut config = BisimConfig {
                    seed,
                    attention,
                    time_lag,
                    threads,
                    precision,
                    ..BisimConfig::default()
                };
                if let Some(epochs) = epochs {
                    config.epochs = epochs;
                }
                if let Some(batch_size) = batch_size {
                    config.batch_size = batch_size;
                }
                Box::new(Bisim::new(config))
            }
            ImputerKind::CaseDeletion => Box::new(CaseDeletion),
            ImputerKind::LinearInterpolation => Box::new(LinearInterpolation),
            ImputerKind::SemiSupervised => Box::new(SemiSupervised::default()),
            ImputerKind::Mice => Box::new(Mice::new(rm_imputers::MiceConfig {
                threads,
                ..Default::default()
            })),
            ImputerKind::MatrixFactorization => Box::new(MatrixFactorization::new(
                rm_imputers::MatrixFactorizationConfig {
                    threads,
                    ..Default::default()
                },
            )),
            ImputerKind::Brits => {
                let mut config = BritsConfig {
                    seed,
                    threads,
                    precision,
                    ..BritsConfig::default()
                };
                if let Some(epochs) = epochs {
                    config.epochs = epochs;
                }
                if let Some(batch_size) = batch_size {
                    config.batch_size = batch_size;
                }
                Box::new(Brits::new(config))
            }
            ImputerKind::Ssgan => {
                let mut config = SsganConfig {
                    seed,
                    threads,
                    precision,
                    ..SsganConfig::default()
                };
                if let Some(epochs) = epochs {
                    config.epochs = epochs;
                }
                if let Some(batch_size) = batch_size {
                    config.batch_size = batch_size;
                }
                Box::new(Ssgan::new(config))
            }
        }
    }
}

/// Options for [`ImputerKind::build_with`]: everything an imputer's
/// construction depends on, with the same defaults as [`PipelineConfig`].
/// See [`ImputerKind::build_with`] for the meaning of each field.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// RNG seed for model initialisation and training.
    pub seed: u64,
    /// BiSIM attention variant (ablations; ignored by other imputers).
    pub attention: AttentionMode,
    /// BiSIM time-lag variant (ablations; ignored by other imputers).
    pub time_lag: TimeLagMode,
    /// Training epochs of the neural imputers; `None` = built-in default.
    pub epochs: Option<usize>,
    /// Worker threads for internal fan-outs (`0` = auto).
    pub threads: usize,
    /// Training mini-batch size; `None` = built-in default.
    pub batch_size: Option<usize>,
    /// Inference precision of the neural imputers.
    pub precision: Precision,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            seed: 2023,
            attention: AttentionMode::SparsityFriendly,
            time_lag: TimeLagMode::Encoder,
            epochs: None,
            threads: 0,
            batch_size: None,
            precision: Precision::F64,
        }
    }
}

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The missing-RSSI differentiator.
    pub differentiator: DifferentiatorKind,
    /// The data imputer.
    pub imputer: ImputerKind,
    /// Fraction threshold η of the differentiator (0.1 by default).
    pub eta: f64,
    /// The online location-estimation algorithm.
    pub estimator: EstimatorKind,
    /// Neighbour count `k` for the KNN-style estimators.
    pub knn_k: usize,
    /// Fraction of RP-observed records held out as online test queries (10 %
    /// in the paper).
    pub test_fraction: f64,
    /// BiSIM attention variant (ablations).
    pub attention: AttentionMode,
    /// BiSIM time-lag variant (ablations).
    pub time_lag: TimeLagMode,
    /// Training epochs of the neural imputers (BiSIM, BRITS, SSGAN). `None`
    /// uses their built-in default, which honours the `RM_EPOCHS` and
    /// `RM_QUICK` environment variables; tests should set an explicit value so
    /// they stay deterministic under the parallel test runner.
    pub epochs: Option<usize>,
    /// Worker threads for every fan-out along the pipeline (grid cells,
    /// imputer column/sequence loops, training batches, positioning
    /// queries). `0` means auto: the `RM_THREADS` environment variable if
    /// set, else the machine's available parallelism; `1` forces the serial
    /// fallback path. The pipeline output is bit-identical at any value —
    /// parallelism is purely a wall-clock knob.
    pub threads: usize,
    /// Training mini-batch size of the recurrent imputers (BiSIM, BRITS,
    /// SSGAN). `None` uses their built-in default, which honours the
    /// `RM_BATCH` environment variable (else 1). Batch boundaries are fixed
    /// by the batch size alone and the per-batch gradient reduction is
    /// ordered, so any fixed value is bit-identical across thread counts —
    /// but unlike `threads`, `batch_size > 1` *does* change which model a
    /// fixed seed yields (fewer, summed-gradient optimizer steps).
    pub batch_size: Option<usize>,
    /// Numeric precision of the neural imputers' inference pass (BiSIM,
    /// BRITS, SSGAN). The default [`Precision::F64`] keeps the pipeline
    /// bit-identical to the pre-precision-axis output; [`Precision::F32`]
    /// rounds the trained weights once and runs inference through the f32
    /// SIMD kernels — faster, and still bit-identical across thread counts,
    /// just rounded differently from f64. Unlike `threads`, this knob *does*
    /// change output values.
    pub precision: Precision,
    /// Resident storage format of the trained inference snapshots. It has
    /// one value, [`SnapshotDtype::Native`]: snapshots are kept at
    /// [`PipelineConfig::precision`].
    pub snapshot_dtype: SnapshotDtype,
    /// Spatial shard count for the sharded pipeline mode ([`VenueShards`]).
    /// `None` means auto: the `RM_SHARDS` environment variable if set, else
    /// `1` (unsharded). With an effective count above 1,
    /// [`ImputationPipeline::impute`] and
    /// [`ImputationPipeline::export_sharded_snapshot`] partition the venue's
    /// survey paths into spatial shards and stream differentiation and
    /// imputation shard-by-shard (peak memory bounded by the largest shard),
    /// with per-shard seeds from [`rm_runtime::derive_seed`]. A shard count
    /// of 1 reproduces the unsharded pipeline bitwise; any fixed count is
    /// bit-identical across thread counts. The held-out evaluation protocol
    /// ([`ImputationPipeline::evaluate`]) always runs unsharded — it mirrors
    /// the paper's whole-venue tables.
    pub shards: Option<usize>,
    /// RNG seed controlling the test split and model initialisation.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            differentiator: DifferentiatorKind::TopoAc,
            imputer: ImputerKind::Bisim,
            eta: 0.1,
            estimator: EstimatorKind::Wknn,
            knn_k: 3,
            test_fraction: 0.1,
            attention: AttentionMode::SparsityFriendly,
            time_lag: TimeLagMode::Encoder,
            epochs: None,
            threads: 0,
            batch_size: None,
            precision: Precision::F64,
            snapshot_dtype: SnapshotDtype::Native,
            shards: None,
            seed: 2023,
        }
    }
}

/// The resident storage format of trained inference snapshots. Its one
/// value, [`SnapshotDtype::Native`], keeps a snapshot at the inference
/// [`Precision`]. The type exists only because the survey-to-answer
/// benchmark (`e2ebench/`) sets [`PipelineConfig::snapshot_dtype`] and
/// [`VenueSnapshot::snapshot_dtype`]; it goes, with both fields, in the
/// next change that may edit that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDtype {
    /// Snapshots at the inference precision.
    Native,
}

/// One venue's pipeline output, produced by
/// [`ImputationPipeline::export_snapshot`]: the imputed dense radio map, the
/// differentiator's mask and the estimator configuration — everything a
/// serving process needs to answer positioning queries — plus the trained
/// imputer snapshot as named tensors at the precision the inference path
/// keeps resident. The tensors are in-memory only,
/// for warm start: the `rm-serve` artifact codec never serializes them and
/// its serving models drop them. The codec lives in that crate so the
/// pipeline stays serialization-free.
#[derive(Debug, Clone)]
pub struct VenueSnapshot {
    /// Stable venue identifier (artifact registry key).
    pub venue: String,
    /// The imputed dense radio map the estimator is built over.
    pub map: DenseRadioMap,
    /// The differentiator's MAR/MNAR assignment for the source map.
    pub mask: MaskMatrix,
    /// The online location-estimation algorithm to build at load time.
    pub estimator: EstimatorKind,
    /// Neighbour count `k` for the KNN-style estimators.
    pub knn_k: usize,
    /// The seed the pipeline ran with (provenance; a rebuild with this seed
    /// reproduces the snapshot bitwise).
    pub seed: u64,
    /// Inference precision the tensors were exported at.
    pub precision: Precision,
    /// Resident storage dtype the tensors were exported at (always
    /// [`SnapshotDtype::Native`]).
    pub snapshot_dtype: SnapshotDtype,
    /// The trained imputer snapshot, one named tensor per parameter (empty
    /// for imputers without a trained model). In-memory only, for warm
    /// start; never serialized.
    pub tensors: Vec<NamedTensor>,
}

/// A venue's serving artifact in per-shard form, produced by
/// [`ImputationPipeline::export_sharded_snapshot`]: one [`VenueSnapshot`]
/// per spatial shard plus the [`VenueShards`] partition that produced them
/// (shard centroids route queries; member lists map shard-local record
/// indices back to global collection order). Each shard snapshot is an
/// independently publishable unit — an incremental update republishes only
/// the dirty shards' snapshots.
#[derive(Debug, Clone)]
pub struct ShardedVenueSnapshot {
    /// Stable venue identifier (artifact registry key).
    pub venue: String,
    /// One snapshot per shard, in shard-id order.
    pub snapshots: Vec<VenueSnapshot>,
    /// The partition the shards were computed under.
    pub shards: VenueShards,
}

impl ShardedVenueSnapshot {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.snapshots.len()
    }
}

/// A bare venue is a venue with one shard: every record in shard 0, whose
/// centroid is the mean of the map's locations (the origin for an empty
/// map), with no path routing pairs. This is how a whole-venue artifact is
/// published for serving.
impl From<VenueSnapshot> for ShardedVenueSnapshot {
    fn from(snapshot: VenueSnapshot) -> Self {
        let locations = snapshot.map.locations();
        let centroid = if locations.is_empty() {
            Point::origin()
        } else {
            let n = locations.len() as f64;
            let (sx, sy) = locations
                .iter()
                .fold((0.0, 0.0), |(ax, ay), p| (ax + p.x, ay + p.y));
            Point::new(sx / n, sy / n)
        };
        let shards = VenueShards::from_parts(vec![0; locations.len()], vec![centroid], Vec::new())
            .expect("one shard holds every record");
        Self {
            venue: snapshot.venue.clone(),
            snapshots: vec![snapshot],
            shards,
        }
    }
}

/// The result of one end-to-end evaluation run.
#[derive(Debug, Clone)]
pub struct EvaluationResult {
    /// Average positioning error on the held-out test queries, in metres.
    pub ape_m: f64,
    /// Wall-clock time spent in differentiation, in seconds.
    pub differentiation_seconds: f64,
    /// Wall-clock time spent in imputation, in seconds.
    pub imputation_seconds: f64,
    /// Number of test queries evaluated.
    pub num_test_queries: usize,
    /// Fraction of missing RSSIs classified as MAR by the differentiator.
    pub mar_fraction: Option<f64>,
}

/// The end-to-end imputation pipeline: differentiator → MNAR filling →
/// imputer → (optionally) positioning evaluation.
pub struct ImputationPipeline {
    /// Pipeline configuration.
    pub config: PipelineConfig,
}

impl ImputationPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The imputer construction options this pipeline uses, at `seed` (the
    /// venue seed for unsharded runs, a per-shard derived seed in sharded
    /// mode).
    pub fn build_options(&self, seed: u64) -> BuildOptions {
        BuildOptions {
            seed,
            attention: self.config.attention,
            time_lag: self.config.time_lag,
            epochs: self.config.epochs,
            threads: self.config.threads,
            batch_size: self.config.batch_size,
            precision: self.config.precision,
        }
    }

    /// The effective shard count: the configured value, else `RM_SHARDS`,
    /// else 1.
    pub fn effective_shards(&self) -> usize {
        self.config.shards.unwrap_or_else(default_shards).max(1)
    }

    /// The seed a shard's differentiation and imputation run with. With one
    /// shard this is the venue seed itself — the sharded path reproduces the
    /// unsharded pipeline bitwise — otherwise a per-shard derived stream.
    pub(crate) fn shard_seed(&self, num_shards: usize, shard: usize) -> u64 {
        if num_shards <= 1 {
            self.config.seed
        } else {
            rm_runtime::derive_seed(self.config.seed, shard as u64)
        }
    }

    /// Computes the venue's shard partition at the effective shard count —
    /// a pure function of `(map, shards, seed)`.
    pub fn shard(&self, map: &RadioMap) -> VenueShards {
        let requested = self.effective_shards();
        if requested <= 1 {
            VenueShards::single(map)
        } else {
            VenueShards::compute(map, requested, self.config.seed)
        }
    }

    /// Differentiates `map` with `seed` (factored out so sharded runs can
    /// re-seed per shard).
    fn differentiate_with_seed(
        &self,
        map: &RadioMap,
        topology: &MultiPolygon,
        seed: u64,
    ) -> MaskMatrix {
        self.config
            .differentiator
            .build(topology, self.config.eta, seed)
            .differentiate(map)
    }

    /// Runs only the differentiation stage.
    pub fn differentiate(&self, map: &RadioMap, topology: &MultiPolygon) -> MaskMatrix {
        self.differentiate_with_seed(map, topology, self.config.seed)
    }

    /// Runs differentiation followed by imputation and returns the imputed map
    /// together with the mask.
    ///
    /// With an effective shard count above 1 (see [`PipelineConfig::shards`])
    /// the venue is partitioned by [`VenueShards`] and each shard is
    /// differentiated and imputed independently — fanned over the
    /// deterministic pool with a per-shard derived seed — then the per-shard
    /// results are merged back into global record order. Shard count 1
    /// reproduces the unsharded path bitwise, and any fixed shard count is
    /// bit-identical across thread counts.
    pub fn impute(&self, map: &RadioMap, topology: &MultiPolygon) -> (ImputedRadioMap, MaskMatrix) {
        let shards = self.shard(map);
        if shards.num_shards() <= 1 {
            let mask = self.differentiate(map, topology);
            let imputer = self
                .config
                .imputer
                .build_with(&self.build_options(self.config.seed));
            return (imputer.impute(map, &mask), mask);
        }
        let parts = shards.split(map);
        let shard_ids: Vec<usize> = (0..shards.num_shards()).collect();
        let results = rm_runtime::par_map(self.config.threads, &shard_ids, |_, &shard| {
            let part = &parts[shard];
            let seed = self.shard_seed(shards.num_shards(), shard);
            let mask = self.differentiate_with_seed(part, topology, seed);
            let imputer = self.config.imputer.build_with(&self.build_options(seed));
            (imputer.impute(part, &mask), mask)
        });
        let masks: Vec<MaskMatrix> = results.iter().map(|(_, m)| m.clone()).collect();
        let mask = shards.merge_masks(&masks, map.num_aps());
        let mut fingerprints: Vec<Vec<f64>> = vec![Vec::new(); map.len()];
        let mut locations: Vec<Option<Point>> = vec![None; map.len()];
        for (shard, (imputed, _)) in results.into_iter().enumerate() {
            for (local, &record) in shards.members_of(shard).iter().enumerate() {
                fingerprints[record] = imputed.fingerprints[local].clone();
                locations[record] = imputed.locations[local];
            }
        }
        (
            ImputedRadioMap {
                fingerprints,
                locations,
            },
            mask,
        )
    }

    /// Differentiates and imputes one shard's sub-map with an explicit seed
    /// and packages it as that shard's [`VenueSnapshot`] — the unit the
    /// incremental ingest path recomputes and the per-shard registry swaps.
    /// With `warm = Some((tensors, epochs))` the imputer resumes from a
    /// previous snapshot's tensors through
    /// [`Imputer::impute_warm`](rm_imputers::Imputer::impute_warm) with
    /// `epochs` of fine-tuning; with `None` it trains from scratch.
    pub(crate) fn compute_shard(
        &self,
        venue: &str,
        part: &RadioMap,
        topology: &MultiPolygon,
        seed: u64,
        warm: Option<(&[NamedTensor], usize)>,
    ) -> VenueSnapshot {
        let mask = self.differentiate_with_seed(part, topology, seed);
        let imputer = self.config.imputer.build_with(&self.build_options(seed));
        let (imputed, tensors) = match warm {
            None => imputer.impute_with_snapshot(part, &mask),
            Some((previous, epochs)) => imputer.impute_warm(part, &mask, previous, epochs),
        };
        VenueSnapshot {
            venue: venue.to_string(),
            map: imputed.to_dense(part.num_aps()),
            mask,
            estimator: self.config.estimator,
            knn_k: self.config.knn_k,
            seed,
            precision: self.config.precision,
            snapshot_dtype: self.config.snapshot_dtype,
            tensors,
        }
    }

    /// Computes the snapshots of the shards `ids` of `map`'s partition
    /// `shards`, fanned over the deterministic pool in id order: each is
    /// [`ImputationPipeline::compute_shard`] over the shard's sub-map with
    /// the shard's seed ([`ImputationPipeline::shard_seed`]), warm from its
    /// previous snapshot's tensors with `epochs` of fine-tuning when `warm`
    /// is `Some((previous, epochs))`. The one fan-out behind the sharded
    /// export, [`LiveVenue::build`](crate::LiveVenue::build) and both of the
    /// live venue's recompute paths.
    pub(crate) fn compute_shards(
        &self,
        venue: &str,
        map: &RadioMap,
        shards: &VenueShards,
        topology: &MultiPolygon,
        ids: &[usize],
        warm: Option<(&[VenueSnapshot], usize)>,
    ) -> Vec<VenueSnapshot> {
        let n = shards.num_shards();
        rm_runtime::par_map(self.config.threads, ids, |_, &s| {
            let part = shards.submap(map, s);
            let warm = warm.map(|(previous, epochs)| (&previous[s].tensors[..], epochs));
            self.compute_shard(venue, &part, topology, self.shard_seed(n, s), warm)
        })
    }

    /// Runs differentiation + imputation and packages the result as a
    /// [`VenueSnapshot`] — the in-memory serving artifact for `venue`.
    ///
    /// Unlike [`ImputationPipeline::evaluate`], no test split is held out:
    /// a serving model is built from the *whole* survey, and every imputed
    /// record with a location enters the radio map. The trained imputer
    /// weights ride along as named tensors (via
    /// [`Imputer::impute_with_snapshot`]),
    /// exported at exactly the bits the inference path keeps resident, so
    /// persisting and reloading the snapshot reproduces the serving model
    /// bit for bit.
    pub fn export_snapshot(
        &self,
        venue: impl Into<String>,
        map: &RadioMap,
        topology: &MultiPolygon,
    ) -> VenueSnapshot {
        self.compute_shard(&venue.into(), map, topology, self.config.seed, None)
    }

    /// Runs the sharded pipeline end to end and packages the result as a
    /// [`ShardedVenueSnapshot`]: the venue is partitioned by
    /// [`VenueShards`], every shard is differentiated and imputed
    /// independently (per-shard derived seed, fanned over the deterministic
    /// pool), and each shard becomes its own [`VenueSnapshot`] — the publish
    /// unit of per-shard serving. With an effective shard count of 1 the
    /// single shard snapshot is bitwise the [`ImputationPipeline::export_snapshot`]
    /// output.
    pub fn export_sharded_snapshot(
        &self,
        venue: impl Into<String>,
        map: &RadioMap,
        topology: &MultiPolygon,
    ) -> ShardedVenueSnapshot {
        let venue = venue.into();
        let shards = self.shard(map);
        let shard_ids: Vec<usize> = (0..shards.num_shards()).collect();
        let snapshots = self.compute_shards(&venue, map, &shards, topology, &shard_ids, None);
        ShardedVenueSnapshot {
            venue,
            snapshots,
            shards,
        }
    }

    /// Runs the full evaluation protocol of Section V-A:
    ///
    /// 1. 10 % of the records with observed RPs are selected as test queries
    ///    and their RPs are hidden from the pipeline;
    /// 2. the whole map (test records included) is differentiated and imputed;
    /// 3. the non-test imputed records form the radio map used by the location
    ///    estimator, which is evaluated on the imputed test fingerprints
    ///    against the held-out ground-truth RPs.
    pub fn evaluate(&self, map: &RadioMap, topology: &MultiPolygon) -> EvaluationResult {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let (_, test_indices) =
            rm_radiomap::split_test_records(map, self.config.test_fraction, &mut rng);
        let ground_truth: Vec<(usize, rm_geometry::Point)> = test_indices
            .iter()
            .map(|&i| (i, map.record(i).rp.expect("test records have RPs")))
            .collect();

        // Hide the test RPs from the pipeline.
        let mut working = map.clone();
        for &(i, _) in &ground_truth {
            working.records_mut()[i].rp = None;
        }

        #[allow(clippy::disallowed_methods)]
        // rm-lint: allow(no-wallclock-in-deterministic-path): stage-timing telemetry — reported, never branched on
        let diff_start = Instant::now();
        let mask = self.differentiate(&working, topology);
        let differentiation_seconds = diff_start.elapsed().as_secs_f64();
        let mar_fraction = mask.mar_fraction();

        let imputer = self
            .config
            .imputer
            .build_with(&self.build_options(self.config.seed));
        #[allow(clippy::disallowed_methods)]
        // rm-lint: allow(no-wallclock-in-deterministic-path): stage-timing telemetry — reported, never branched on
        let imp_start = Instant::now();
        let imputed = imputer.impute(&working, &mask);
        let imputation_seconds = imp_start.elapsed().as_secs_f64();

        // Radio map for estimation: all imputed records except the test ones.
        // Sorted-slice membership instead of a hash set: same O(log n)
        // contains, no unordered structure in the deterministic path.
        let mut test_set: Vec<usize> = test_indices.to_vec();
        test_set.sort_unstable();
        let mut fingerprints = Vec::new();
        let mut locations = Vec::new();
        for i in 0..imputed.len() {
            if test_set.binary_search(&i).is_ok() {
                continue;
            }
            if let Some(loc) = imputed.locations[i] {
                fingerprints.push(imputed.fingerprints[i].clone());
                locations.push(loc);
            }
        }
        let dense = rm_radiomap::DenseRadioMap::new(fingerprints, locations, map.num_aps());
        let estimator =
            self.config
                .estimator
                .build_threads(dense, self.config.knn_k, self.config.threads);

        // Test queries use the imputed fingerprints (online fingerprints are
        // also imputed, cf. the footnote in Section V-A).
        let queries: Vec<TestQuery> = ground_truth
            .iter()
            .map(|&(i, location)| TestQuery {
                fingerprint: imputed.fingerprints[i].clone(),
                location,
            })
            .collect();
        let ape_m = evaluate_estimator_threads(estimator.as_ref(), &queries, self.config.threads)
            .unwrap_or(f64::NAN);

        EvaluationResult {
            ape_m,
            differentiation_seconds,
            imputation_seconds,
            num_test_queries: queries.len(),
            mar_fraction,
        }
    }

    /// Runs the full evaluation protocol for every `(differentiator,
    /// imputer)` cell of a grid, fanning the cells out over the deterministic
    /// thread pool ([`PipelineConfig::threads`] wide; the per-cell inner
    /// fan-outs degrade to serial inside workers, so the machine is not
    /// oversubscribed).
    ///
    /// Every cell reuses this pipeline's configuration (seed, η, estimator,
    /// epochs, ablations) with only the differentiator and imputer replaced —
    /// exactly the protocol of Table VI, where all cells share one test
    /// split. Results are returned in cell order and are bit-identical to
    /// evaluating each cell serially.
    pub fn evaluate_grid(
        &self,
        map: &RadioMap,
        topology: &MultiPolygon,
        cells: &[(DifferentiatorKind, ImputerKind)],
    ) -> Vec<EvaluationResult> {
        rm_runtime::par_map(
            self.config.threads,
            cells,
            |_, &(differentiator, imputer)| {
                let config = PipelineConfig {
                    differentiator,
                    imputer,
                    ..self.config.clone()
                };
                ImputationPipeline::new(config).evaluate(map, topology)
            },
        )
    }
}

/// Computes the RSSI imputation MAE against ground truth removed by
/// [`rm_radiomap::remove_random_rssis`] (the Fig. 14 metric).
pub fn rssi_imputation_mae(imputed: &ImputedRadioMap, removed: &[RemovedRssi]) -> Option<f64> {
    if removed.is_empty() {
        return None;
    }
    let total: f64 = removed
        .iter()
        .map(|r| (imputed.rssi(r.record, r.ap) - r.value).abs())
        .sum();
    Some(total / removed.len() as f64)
}

/// Computes the RP imputation error (mean Euclidean distance) against ground
/// truth removed by [`rm_radiomap::remove_random_rps`] (the Fig. 15 metric).
/// Records the imputer could not locate are skipped; returns `None` if none
/// could be evaluated.
pub fn rp_imputation_error(imputed: &ImputedRadioMap, removed: &[RemovedRp]) -> Option<f64> {
    let mut total = 0.0;
    let mut count = 0usize;
    for r in removed {
        if let Some(p) = imputed.locations[r.record] {
            total += p.distance(r.location);
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_venue_sim::{DatasetSpec, VenuePreset};

    fn small_dataset() -> rm_venue_sim::Dataset {
        DatasetSpec::new(VenuePreset::KaideLike, 3)
            .with_scale(0.05)
            .build()
    }

    #[test]
    fn kinds_expose_names_and_builders() {
        assert_eq!(ImputerKind::all().len(), 8);
        assert_eq!(DifferentiatorKind::TopoAc.name(), "TopoAC");
        assert_eq!(ImputerKind::Bisim.name(), "BiSIM");
        let topology = MultiPolygon::empty();
        for kind in [
            DifferentiatorKind::MarOnly,
            DifferentiatorKind::MnarOnly,
            DifferentiatorKind::TopoAc,
        ] {
            let d = kind.build(&topology, 0.1, 1);
            assert_eq!(d.name(), kind.name());
        }
    }

    #[test]
    fn pipeline_with_fast_imputer_produces_reasonable_ape() {
        let dataset = small_dataset();
        let config = PipelineConfig {
            imputer: ImputerKind::LinearInterpolation,
            differentiator: DifferentiatorKind::MnarOnly,
            ..PipelineConfig::default()
        };
        let result =
            ImputationPipeline::new(config).evaluate(&dataset.radio_map, &dataset.venue.walls);
        assert!(result.num_test_queries > 0);
        assert!(result.ape_m.is_finite());
        // The venue is ~64 x 50 m; any sane pipeline stays well below the diagonal.
        assert!(result.ape_m < 60.0, "APE {} too large", result.ape_m);
        assert!(result.imputation_seconds >= 0.0);
    }

    #[test]
    fn evaluate_grid_matches_per_cell_evaluation() {
        let dataset = small_dataset();
        let config = PipelineConfig {
            epochs: Some(2),
            ..PipelineConfig::default()
        };
        let pipeline = ImputationPipeline::new(config.clone());
        let cells = [
            (
                DifferentiatorKind::MnarOnly,
                ImputerKind::LinearInterpolation,
            ),
            (DifferentiatorKind::MarOnly, ImputerKind::CaseDeletion),
            (DifferentiatorKind::TopoAc, ImputerKind::Mice),
        ];
        let grid = pipeline.evaluate_grid(&dataset.radio_map, &dataset.venue.walls, &cells);
        assert_eq!(grid.len(), cells.len());
        for (&(differentiator, imputer), result) in cells.iter().zip(grid.iter()) {
            let single = ImputationPipeline::new(PipelineConfig {
                differentiator,
                imputer,
                ..config.clone()
            })
            .evaluate(&dataset.radio_map, &dataset.venue.walls);
            assert_eq!(result.ape_m.to_bits(), single.ape_m.to_bits());
            assert_eq!(result.num_test_queries, single.num_test_queries);
        }
    }

    #[test]
    fn f32_precision_pipeline_evaluates_and_stays_close_to_f64() {
        let dataset = small_dataset();
        let base = PipelineConfig {
            imputer: ImputerKind::Brits,
            differentiator: DifferentiatorKind::MarOnly,
            epochs: Some(2),
            ..PipelineConfig::default()
        };
        let f64_result = ImputationPipeline::new(base.clone())
            .evaluate(&dataset.radio_map, &dataset.venue.walls);
        let f32_result = ImputationPipeline::new(PipelineConfig {
            precision: Precision::F32,
            ..base
        })
        .evaluate(&dataset.radio_map, &dataset.venue.walls);
        assert!(f32_result.ape_m.is_finite());
        assert_eq!(f64_result.num_test_queries, f32_result.num_test_queries);
        // Same trained weights, inference merely rounded: the end-to-end APE
        // must not drift by more than a few centimetres.
        assert!(
            (f64_result.ape_m - f32_result.ape_m).abs() < 0.05,
            "f32 APE {} drifted from f64 APE {}",
            f32_result.ape_m,
            f64_result.ape_m
        );
    }

    #[test]
    fn impute_returns_mask_and_dense_map() {
        let dataset = small_dataset();
        let config = PipelineConfig {
            imputer: ImputerKind::CaseDeletion,
            differentiator: DifferentiatorKind::TopoAc,
            ..PipelineConfig::default()
        };
        let (imputed, mask) =
            ImputationPipeline::new(config).impute(&dataset.radio_map, &dataset.venue.walls);
        assert_eq!(imputed.len(), dataset.radio_map.len());
        assert_eq!(mask.rows(), dataset.radio_map.len());
    }

    #[test]
    fn a_bare_snapshot_converts_to_one_shard_holding_every_record() {
        let snapshot = VenueSnapshot {
            venue: "bare".into(),
            map: DenseRadioMap::new(
                vec![vec![-50.0], vec![-60.0], vec![-70.0]],
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(3.0, 3.0),
                    Point::new(6.0, 0.0),
                ],
                1,
            ),
            mask: MaskMatrix::all_observed(3, 1),
            estimator: EstimatorKind::Knn,
            knn_k: 1,
            seed: 5,
            precision: Precision::F64,
            snapshot_dtype: SnapshotDtype::Native,
            tensors: Vec::new(),
        };
        let sharded = ShardedVenueSnapshot::from(snapshot.clone());
        assert_eq!(sharded.venue, "bare");
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.shards.num_shards(), 1);
        assert_eq!(sharded.shards.members_of(0), [0, 1, 2]);
        assert_eq!(sharded.shards.assignments(), [0, 0, 0]);
        assert_eq!(sharded.shards.centroids(), [Point::new(3.0, 1.0)]);
        assert!(sharded.shards.path_shards().is_empty());
        assert_eq!(
            sharded.snapshots[0].map.fingerprints(),
            snapshot.map.fingerprints()
        );
    }

    #[test]
    fn imputation_error_helpers() {
        let imputed = ImputedRadioMap {
            fingerprints: vec![vec![-70.0, -80.0], vec![-60.0, -90.0]],
            locations: vec![Some(rm_geometry::Point::new(0.0, 0.0)), None],
        };
        let removed_rssis = vec![RemovedRssi {
            record: 0,
            ap: 1,
            value: -76.0,
        }];
        assert_eq!(rssi_imputation_mae(&imputed, &removed_rssis), Some(4.0));
        assert_eq!(rssi_imputation_mae(&imputed, &[]), None);

        let removed_rps = vec![
            RemovedRp {
                record: 0,
                location: rm_geometry::Point::new(3.0, 4.0),
            },
            RemovedRp {
                record: 1,
                location: rm_geometry::Point::new(1.0, 1.0),
            },
        ];
        // Record 1 has no imputed location and is skipped.
        assert_eq!(rp_imputation_error(&imputed, &removed_rps), Some(5.0));
    }
}
