//! Shared sequence preparation for the neural imputers (BRITS, SSGAN, BiSIM).
//!
//! Radio-map records on the same survey path form a temporally correlated
//! sequence. This module normalises RSSIs and locations into a stable numeric
//! range, computes the time-lag vectors of Eq. 1, and slices each path into
//! fixed-length subsequences (the paper uses `T = 5`).

use rm_geometry::Point;
use rm_radiomap::{MaskMatrix, RadioMap, MNAR_FILL_VALUE};

use crate::fill_mnars;

/// Normalisation parameters mapping physical units into a range suited to
/// neural-network training, and back.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalization {
    /// Minimum observed x coordinate.
    pub x_offset: f64,
    /// Minimum observed y coordinate.
    pub y_offset: f64,
    /// Scale dividing the coordinates (the larger venue extent).
    pub location_scale: f64,
    /// Scale dividing the time lags.
    pub time_scale: f64,
}

impl Normalization {
    /// Derives normalisation parameters from the observed RPs of a radio map.
    pub fn from_map(map: &RadioMap) -> Self {
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut any = false;
        for record in map.records() {
            if let Some(p) = record.rp {
                min = min.min(p);
                max = max.max(p);
                any = true;
            }
        }
        if !any {
            return Self {
                x_offset: 0.0,
                y_offset: 0.0,
                location_scale: 1.0,
                time_scale: 10.0,
            };
        }
        let extent = (max.x - min.x).max(max.y - min.y).max(1.0);
        Self {
            x_offset: min.x,
            y_offset: min.y,
            location_scale: extent,
            time_scale: 10.0,
        }
    }

    /// Maps an RSSI in `[-100, 0]` dBm into `[0, 1]`.
    pub fn normalize_rssi(&self, v: f64) -> f64 {
        (v - MNAR_FILL_VALUE) / 100.0
    }

    /// Inverse of [`Normalization::normalize_rssi`], clamped to the physical
    /// range.
    pub fn denormalize_rssi(&self, v: f64) -> f64 {
        (v * 100.0 + MNAR_FILL_VALUE).clamp(MNAR_FILL_VALUE, 0.0)
    }

    /// Maps a location into roughly `[0, 1]²`.
    pub fn normalize_point(&self, p: Point) -> (f64, f64) {
        (
            (p.x - self.x_offset) / self.location_scale,
            (p.y - self.y_offset) / self.location_scale,
        )
    }

    /// Inverse of [`Normalization::normalize_point`].
    pub fn denormalize_point(&self, x: f64, y: f64) -> Point {
        Point::new(
            x * self.location_scale + self.x_offset,
            y * self.location_scale + self.y_offset,
        )
    }

    /// Maps a time lag in seconds into normalised units.
    pub fn normalize_lag(&self, lag: f64) -> f64 {
        lag / self.time_scale
    }
}

/// One fixed-length subsequence of a survey path, fully prepared for the
/// neural imputers (Table IV of the paper shows the mask and time-lag inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSequence {
    /// Original record index of each step.
    pub record_indices: Vec<usize>,
    /// Collection times (seconds) of each step.
    pub times: Vec<f64>,
    /// Normalised dense fingerprints (missing entries are 0).
    pub fingerprints: Vec<Vec<f64>>,
    /// Fingerprint masks `m_i`: 1 for observed (including MNAR-filled), 0 for MAR.
    pub fingerprint_masks: Vec<Vec<f64>>,
    /// Normalised time-lag vectors `δ_i` (Eq. 1).
    pub time_lags: Vec<Vec<f64>>,
    /// Normalised RP coordinates (0, 0 when missing).
    pub rps: Vec<(f64, f64)>,
    /// RP masks `k_i`: 1 when the RP is observed, 0 otherwise.
    pub rp_masks: Vec<f64>,
}

impl PathSequence {
    /// Sequence length.
    pub fn len(&self) -> usize {
        self.record_indices.len()
    }

    /// Returns `true` for an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.record_indices.is_empty()
    }

    /// The reversed sequence used for the backward pass of the bidirectional
    /// models: every per-step vector is reversed and the time-lag vectors are
    /// recomputed with Eq. 1 over the reversed time order.
    pub fn reversed(&self, norm: &Normalization) -> PathSequence {
        let len = self.len();
        let rev = |i: usize| len - 1 - i;
        let mut out = PathSequence {
            record_indices: (0..len).map(|i| self.record_indices[rev(i)]).collect(),
            times: (0..len).map(|i| self.times[rev(i)]).collect(),
            fingerprints: (0..len)
                .map(|i| self.fingerprints[rev(i)].clone())
                .collect(),
            fingerprint_masks: (0..len)
                .map(|i| self.fingerprint_masks[rev(i)].clone())
                .collect(),
            time_lags: Vec::with_capacity(len),
            rps: (0..len).map(|i| self.rps[rev(i)]).collect(),
            rp_masks: (0..len).map(|i| self.rp_masks[rev(i)]).collect(),
        };
        let num_aps = self.fingerprints.first().map(Vec::len).unwrap_or(0);
        for step in 0..len {
            let lag = if step == 0 {
                vec![0.0; num_aps]
            } else {
                let dt = (out.times[step] - out.times[step - 1]).abs();
                (0..num_aps)
                    .map(|ap| {
                        if out.fingerprint_masks[step - 1][ap] > 0.5 {
                            norm.normalize_lag(dt)
                        } else {
                            out.time_lags[step - 1][ap] + norm.normalize_lag(dt)
                        }
                    })
                    .collect()
            };
            out.time_lags.push(lag);
        }
        out
    }
}

/// One inference sweep over `items` on the pool (`threads`, `0` = auto):
/// the items are split into one contiguous run per participant (one run
/// inside a pool worker, where the fan-out is serial), and each run maps
/// its items in order through `f(tape, index, item, out)` on one reused
/// tape `P`, pushing into one buffer sized up front to the sum of `count`
/// over the run. Returns each run's outputs; their concatenation is in
/// item order whatever the thread count, and the allocations grow with the
/// number of runs, not of items.
pub fn sweep<I, P, R>(
    threads: usize,
    items: &[I],
    count: impl Fn(&I) -> usize + Sync,
    f: impl Fn(&mut P, usize, &I, &mut Vec<R>) + Sync,
) -> Vec<Vec<R>>
where
    I: Sync,
    P: Default,
    R: Send,
{
    let participants = if rm_runtime::in_worker() {
        1
    } else {
        rm_runtime::resolve_threads(threads)
    };
    let run_len = items.len().div_ceil(participants.max(1));
    rm_runtime::par_chunks(threads, items, run_len, |k, run| {
        let mut tape = P::default();
        let mut out = Vec::with_capacity(run.iter().map(&count).sum());
        for (offset, item) in run.iter().enumerate() {
            f(&mut tape, k * run_len + offset, item, &mut out);
        }
        out
    })
}

/// Builds the normalised, MNAR-filled, fixed-length sequences for every survey
/// path of the radio map. Paths longer than `max_len` are sliced into
/// consecutive chunks (the paper slices to `T = 5`); single-record chunks are
/// kept (the models handle length-1 sequences).
pub fn build_sequences(
    map: &RadioMap,
    mask: &MaskMatrix,
    max_len: usize,
    norm: &Normalization,
) -> Vec<PathSequence> {
    let max_len = max_len.max(1);
    let filled = fill_mnars(map, mask);
    let num_aps = map.num_aps();
    let mut sequences = Vec::new();

    for path in map.path_record_indices() {
        for chunk in path.chunks(max_len) {
            let mut seq = PathSequence {
                record_indices: chunk.to_vec(),
                times: Vec::with_capacity(chunk.len()),
                fingerprints: Vec::with_capacity(chunk.len()),
                fingerprint_masks: Vec::with_capacity(chunk.len()),
                time_lags: Vec::with_capacity(chunk.len()),
                rps: Vec::with_capacity(chunk.len()),
                rp_masks: Vec::with_capacity(chunk.len()),
            };
            for (step, &record_index) in chunk.iter().enumerate() {
                let record = map.record(record_index);
                seq.times.push(record.time);
                // Fingerprint + mask (MNAR entries are already filled, MAR stay missing).
                let mut fingerprint = vec![0.0; num_aps];
                let mut fp_mask = vec![0.0; num_aps];
                for ap in 0..num_aps {
                    if let Some(v) = filled[record_index][ap] {
                        fingerprint[ap] = norm.normalize_rssi(v);
                        fp_mask[ap] = 1.0;
                    }
                }
                seq.fingerprints.push(fingerprint);
                seq.fingerprint_masks.push(fp_mask);
                // Time-lag vector (Eq. 1).
                let lag = if step == 0 {
                    vec![0.0; num_aps]
                } else {
                    let dt = record.time - map.record(chunk[step - 1]).time;
                    let previous_mask = &seq.fingerprint_masks[step - 1];
                    let previous_lag = &seq.time_lags[step - 1];
                    (0..num_aps)
                        .map(|ap| {
                            if previous_mask[ap] > 0.5 {
                                norm.normalize_lag(dt)
                            } else {
                                previous_lag[ap] + norm.normalize_lag(dt)
                            }
                        })
                        .collect()
                };
                seq.time_lags.push(lag);
                // RP + mask.
                match record.rp {
                    Some(p) => {
                        seq.rps.push(norm.normalize_point(p));
                        seq.rp_masks.push(1.0);
                    }
                    None => {
                        seq.rps.push((0.0, 0.0));
                        seq.rp_masks.push(0.0);
                    }
                }
            }
            sequences.push(seq);
        }
    }
    sequences
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_radiomap::{EntryKind, Fingerprint, RadioMapRecord};

    fn map_and_mask() -> (RadioMap, MaskMatrix) {
        // Mirrors Table III/IV structure: 5 records on one path.
        let mk = |values: Vec<Option<f64>>, rp: Option<Point>, t: f64| {
            RadioMapRecord::new(Fingerprint::new(values), rp, t, 0)
        };
        let map = RadioMap::new(
            vec![
                mk(
                    vec![Some(-70.0), Some(-83.0)],
                    Some(Point::new(0.0, 0.0)),
                    1.0,
                ),
                mk(vec![Some(-71.0), None], None, 3.0),
                mk(vec![None, None], Some(Point::new(4.0, 2.0)), 8.0),
                mk(vec![Some(-74.0), Some(-77.0)], None, 12.0),
                mk(vec![None, None], Some(Point::new(8.0, 8.0)), 16.0),
            ],
            2,
        );
        let mut mask = MaskMatrix::all_observed(5, 2);
        mask.set(1, 1, EntryKind::Mar);
        mask.set(2, 0, EntryKind::Mnar);
        mask.set(2, 1, EntryKind::Mar);
        mask.set(4, 0, EntryKind::Mar);
        mask.set(4, 1, EntryKind::Mnar);
        (map, mask)
    }

    #[test]
    fn normalization_roundtrips() {
        let (map, _) = map_and_mask();
        let norm = Normalization::from_map(&map);
        assert!((norm.denormalize_rssi(norm.normalize_rssi(-73.5)) + 73.5).abs() < 1e-9);
        let p = Point::new(4.0, 2.0);
        let (x, y) = norm.normalize_point(p);
        assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        assert!(norm.denormalize_point(x, y).distance(p) < 1e-9);
    }

    #[test]
    fn normalization_of_empty_map_is_identityish() {
        let norm = Normalization::from_map(&RadioMap::empty(2));
        assert_eq!(norm.location_scale, 1.0);
        assert_eq!(norm.normalize_rssi(MNAR_FILL_VALUE), 0.0);
        assert_eq!(norm.normalize_rssi(0.0), 1.0);
    }

    #[test]
    fn sequences_follow_the_time_lag_recurrence() {
        let (map, mask) = map_and_mask();
        let norm = Normalization::from_map(&map);
        let sequences = build_sequences(&map, &mask, 5, &norm);
        assert_eq!(sequences.len(), 1);
        let seq = &sequences[0];
        assert_eq!(seq.len(), 5);
        // Step 0: all lags zero.
        assert_eq!(seq.time_lags[0], vec![0.0, 0.0]);
        // Step 1 (t=3, dt=2): both APs observed at step 0 -> lag = 0.2 (2 s / 10).
        assert!((seq.time_lags[1][0] - 0.2).abs() < 1e-9);
        assert!((seq.time_lags[1][1] - 0.2).abs() < 1e-9);
        // Step 2 (t=8, dt=5): AP0 observed at step 1 -> 0.5; AP1 MAR at step 1 ->
        // accumulate 0.2 + 0.5.
        assert!((seq.time_lags[2][0] - 0.5).abs() < 1e-9);
        assert!((seq.time_lags[2][1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn masks_distinguish_mar_from_mnar_filled() {
        let (map, mask) = map_and_mask();
        let norm = Normalization::from_map(&map);
        let seq = &build_sequences(&map, &mask, 5, &norm)[0];
        // Record 2: AP0 is MNAR (filled with -100 -> mask 1, value 0 normalised),
        // AP1 is MAR (mask 0).
        assert_eq!(seq.fingerprint_masks[2][0], 1.0);
        assert_eq!(seq.fingerprints[2][0], 0.0);
        assert_eq!(seq.fingerprint_masks[2][1], 0.0);
        // RP masks.
        assert_eq!(seq.rp_masks[0], 1.0);
        assert_eq!(seq.rp_masks[1], 0.0);
    }

    #[test]
    fn reversed_sequence_flips_order_and_recomputes_lags() {
        let (map, mask) = map_and_mask();
        let norm = Normalization::from_map(&map);
        let seq = &build_sequences(&map, &mask, 5, &norm)[0];
        let rev = seq.reversed(&norm);
        assert_eq!(rev.record_indices, vec![4, 3, 2, 1, 0]);
        assert_eq!(rev.time_lags[0], vec![0.0, 0.0]);
        // Reversed step 1 goes from t=16 to t=12 (dt=4): AP0 MAR at reversed
        // step 0 -> accumulate; AP1 MNAR-filled (mask 1) -> 0.4.
        assert!((rev.time_lags[1][1] - 0.4).abs() < 1e-9);
        assert!((rev.time_lags[1][0] - 0.4).abs() < 1e-9);
        // Round-trip: reversing twice restores the original order.
        let back = rev.reversed(&norm);
        assert_eq!(back.record_indices, seq.record_indices);
        assert_eq!(back.fingerprints, seq.fingerprints);
    }

    #[test]
    fn long_paths_are_sliced() {
        let (map, mask) = map_and_mask();
        let norm = Normalization::from_map(&map);
        let sequences = build_sequences(&map, &mask, 2, &norm);
        assert_eq!(sequences.len(), 3);
        assert_eq!(sequences[0].len(), 2);
        assert_eq!(sequences[2].len(), 1);
        // Record indices cover every record exactly once.
        let mut all: Vec<usize> = sequences
            .iter()
            .flat_map(|s| s.record_indices.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }
}
