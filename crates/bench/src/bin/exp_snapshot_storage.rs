//! Snapshot-storage report: resident bytes of the recurrent imputers'
//! inference snapshots at each precision, and the per-venue accuracy cost of
//! running f32 inference from the rounded snapshots.
//!
//! This is the measurement half of the f32 storage contract: f32 must cut
//! resident snapshot bytes 2× against f64, and the accuracy delta it buys
//! that with has to be on the table, not assumed.

use radiomap_core::prelude::*;
use radiomap_core::{rssi_imputation_mae, DifferentiatorKind, ImputerKind, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bench::{experiment_dataset, experiment_seed, fmt, wifi_presets, ReportTable};

fn main() {
    // ---- Resident bytes of a BRITS-shaped inference snapshot. ----
    let mut bytes_table = ReportTable::new(
        "Snapshot resident bytes (one BRITS direction)",
        &["APs", "hidden", "f64", "f32", "f64/f32"],
    );
    for (aps, hidden) in [(24usize, 32usize), (60, 64), (120, 64)] {
        let (b64, b32) = rm_imputers::snapshot_resident_bytes(aps, hidden);
        bytes_table.add_row(vec![
            aps.to_string(),
            hidden.to_string(),
            b64.to_string(),
            b32.to_string(),
            format!("{:.2}x", b64 as f64 / b32 as f64),
        ]);
    }
    bytes_table.print();

    // ---- Accuracy cost per venue (β=0.2 RSSI-imputation MAE, BRITS). ----
    for preset in wifi_presets() {
        let dataset = experiment_dataset(preset);
        let mut rng = StdRng::seed_from_u64(experiment_seed() ^ 0x51a9);
        let (perturbed, removed) = remove_random_rssis(&dataset.radio_map, 0.2, &mut rng);
        let mae = |precision| {
            let config = PipelineConfig {
                differentiator: DifferentiatorKind::TopoAc,
                imputer: ImputerKind::Brits,
                precision,
                seed: experiment_seed(),
                ..PipelineConfig::default()
            };
            let imputed = radiomap_core::ImputationPipeline::new(config)
                .impute(&perturbed, &dataset.venue.walls)
                .0;
            rssi_imputation_mae(&imputed, &removed).unwrap_or(f64::NAN)
        };
        let base = mae(Precision::F64);
        let f32_mae = mae(Precision::F32);
        let mut table = ReportTable::new(
            &format!(
                "Snapshot precision vs BRITS RSSI MAE (dBm), {}",
                preset.name()
            ),
            &["precision", "MAE", "delta vs f64"],
        );
        table.add_row(vec!["f64".into(), fmt(base), fmt(0.0)]);
        table.add_row(vec!["f32".into(), fmt(f32_mae), fmt(f32_mae - base)]);
        table.print();
    }
}
