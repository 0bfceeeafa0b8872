//! Shared fixtures for the cross-crate integration tests.

use radiomap_core::prelude::*;

/// Builds a tiny synthetic dataset used across the integration tests. The
/// scale is deliberately small so that even the neural imputers finish in a
/// few seconds per test.
pub fn tiny_dataset(preset: VenuePreset, seed: u64) -> Dataset {
    DatasetSpec::new(preset, seed).with_scale(0.05).build()
}

/// A hand-built radio map on a single survey path with controllable missing
/// entries; useful for deterministic property tests.
pub fn straight_path_map(num_records: usize, num_aps: usize) -> RadioMap {
    let mut records = Vec::new();
    for i in 0..num_records {
        let values: Vec<Option<f64>> = (0..num_aps)
            .map(|ap| {
                if (i + ap) % 4 == 0 {
                    None
                } else {
                    Some(-50.0 - (i as f64) - (ap as f64) * 3.0)
                }
            })
            .collect();
        let rp = if i % 3 == 0 {
            Some(Point::new(i as f64 * 2.0, 1.0))
        } else {
            None
        };
        records.push(RadioMapRecord::new(
            Fingerprint::new(values),
            rp,
            i as f64 * 2.0,
            0,
        ));
    }
    RadioMap::new(records, num_aps)
}

/// A venue surveyed along several spatially separated paths — enough spatial
/// structure for [`VenueShards`] to
/// produce a real multi-shard partition. Path `p` runs along `x = 40 p`,
/// hears its own pair of APs strongly and the rest sporadically, and has an
/// RP on every other record.
pub fn multi_path_map(num_paths: usize, records_per_path: usize, num_aps: usize) -> RadioMap {
    let mut records = Vec::new();
    for path in 0..num_paths {
        for i in 0..records_per_path {
            let values: Vec<Option<f64>> = (0..num_aps)
                .map(|ap| {
                    if ap / 2 == path % (num_aps / 2).max(1) {
                        Some(-45.0 - i as f64 - ap as f64 * 2.0)
                    } else if (i + ap + path) % 3 == 0 {
                        Some(-80.0 - ((i + ap) % 7) as f64)
                    } else {
                        None
                    }
                })
                .collect();
            let rp = if i % 2 == 0 {
                Some(Point::new(
                    path as f64 * 40.0 + i as f64 * 2.0,
                    path as f64 * 8.0,
                ))
            } else {
                None
            };
            records.push(RadioMapRecord::new(
                Fingerprint::new(values),
                rp,
                i as f64,
                path,
            ));
        }
    }
    RadioMap::new(records, num_aps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let map = straight_path_map(9, 4);
        assert_eq!(map.len(), 9);
        assert!(map.missing_rssi_rate() > 0.0);
        assert!(map.observed_rp_count() >= 3);
    }
}
