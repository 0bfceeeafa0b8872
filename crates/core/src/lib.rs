//! `radiomap-core` — the public facade of the radio-map imputation framework.
//!
//! This crate ties together the building blocks of the reproduction of
//! *"Data Imputation for Sparse Radio Maps in Indoor Positioning"* (ICDE 2023):
//!
//! * venue simulation and walking surveys ([`venue_sim`]),
//! * the radio-map data model ([`radiomap`]),
//! * missing-RSSI differentiation ([`differentiator`]),
//! * data imputation — the baselines ([`imputers`]) and BiSIM ([`bisim`]),
//! * online positioning and metrics ([`positioning`]),
//!
//! and exposes an [`ImputationPipeline`] that runs the full
//! differentiate → impute → evaluate protocol of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use radiomap_core::prelude::*;
//!
//! // Build a small synthetic venue and its sparse radio map.
//! let dataset = DatasetSpec::new(VenuePreset::KaideLike, 7).with_scale(0.05).build();
//! println!("{}", dataset.stats().to_table_row());
//!
//! // Impute it with the topology-aware differentiator and linear interpolation
//! // (swap in `ImputerKind::Bisim` for the full model; `epochs` then bounds
//! // its training time — `None` honours the `RM_EPOCHS`/`RM_QUICK` env vars).
//! let config = PipelineConfig {
//!     imputer: ImputerKind::LinearInterpolation,
//!     epochs: Some(5),
//!     ..PipelineConfig::default()
//! };
//! let pipeline = ImputationPipeline::new(config);
//! let result = pipeline.evaluate(&dataset.radio_map, &dataset.venue.walls);
//! assert!(result.ape_m.is_finite());
//! assert!(result.num_test_queries > 0);
//! ```

pub mod ingest;
pub mod pipeline;

pub use ingest::LiveVenue;
pub use pipeline::{
    default_shards, rp_imputation_error, rssi_imputation_mae, BuildOptions, DifferentiatorKind,
    EvaluationResult, ImputationPipeline, ImputerKind, PipelineConfig, ShardedVenueSnapshot,
    SnapshotDtype, VenueSnapshot,
};
pub use rm_tensor::Precision;

// Re-export the component crates under stable names so downstream users can
// depend on `radiomap-core` alone.
pub use rm_bisim as bisim;
pub use rm_clustering as clustering;
pub use rm_differentiator as differentiator;
pub use rm_geometry as geometry;
pub use rm_imputers as imputers;
pub use rm_nn as nn;
pub use rm_positioning as positioning;
pub use rm_radiomap as radiomap;
pub use rm_tensor as tensor;
pub use rm_venue_sim as venue_sim;

/// A convenient prelude for examples, tests and the experiment harness.
pub mod prelude {
    pub use crate::ingest::LiveVenue;
    pub use crate::pipeline::{
        rp_imputation_error, rssi_imputation_mae, BuildOptions, DifferentiatorKind,
        EvaluationResult, ImputationPipeline, ImputerKind, PipelineConfig, ShardedVenueSnapshot,
        SnapshotDtype, VenueSnapshot,
    };
    pub use rm_bisim::{AttentionMode, Bisim, BisimConfig, TimeLagMode};
    pub use rm_differentiator::{Differentiator, MarOnly, MnarOnly};
    pub use rm_geometry::{MultiPolygon, Point, Polygon};
    pub use rm_imputers::{ImputedRadioMap, Imputer};
    pub use rm_positioning::{EstimatorKind, LocationEstimator, TestQuery};
    pub use rm_radiomap::{
        remove_random_rps, remove_random_rssis, DenseRadioMap, EntryKind, Fingerprint, MaskMatrix,
        RadioMap, RadioMapRecord, RadioMapStats, VenueShards, WalkingSurveyTable,
    };
    pub use rm_tensor::Precision;
    pub use rm_venue_sim::{Dataset, DatasetSpec, PropagationModel, VenuePreset};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let config = PipelineConfig::default();
        assert_eq!(config.imputer, ImputerKind::Bisim);
        assert_eq!(config.differentiator, DifferentiatorKind::TopoAc);
        assert_eq!(config.estimator, EstimatorKind::Wknn);
    }
}
