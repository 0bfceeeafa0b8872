//! Survey-to-answer benchmark of the radio-map system.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload build|live|warm|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs derive from `--seed` alone: a simulated walking survey of one fixed
//! venue preset, a re-survey of the same venue (every path walked again),
//! and the re-survey's located scans as device queries. They are generated
//! once, before anything is timed.
//!
//! **Set-up** brings the venue live: radio-map creation → sharded build
//! (partition, differentiation, BiSIM imputation per shard) → artifact
//! encode/decode → registry publish → one batch answered → the last path
//! re-walked twice, the first re-walk re-imputed from scratch and the second
//! fine-tuned warm, each dirty shard republished. It runs [`SETUP_REPEATS`]
//! times; `setup_s` is the median, in reference seconds (see [`trace`]).
//! Then one closed-loop client repeats the workload's operation for
//! `--seconds`:
//!
//! * `build` — survey table to first answer: the whole venue rebuilt from
//!   scratch by the pipeline, encoded, decoded, published to a fresh
//!   registry, one batch answered.
//! * `live` — a re-walk of one path arrives: radio-map creation,
//!   incremental ingest (the path's shard re-imputed from scratch), the
//!   shard's artifact encoded, decoded and republished, one batch answered.
//!   After the re-walks of every other path the venue is reset to its set-up
//!   state, untimed, so every cycle does the same work; only whole cycles
//!   run.
//! * `warm` — as `live`, but the dirty shard's imputer is fine-tuned from
//!   its previous weights for [`WARM_EPOCHS`] instead of trained afresh.
//! * `serve` — the whole query log, micro-batch by micro-batch, through the
//!   batching engine.
//!
//! Outputs are checked outside the timed intervals, against references the
//! benchmark computes itself:
//!
//! * every answer must equal, to [`ANSWER_TOLERANCE_M`], an exact
//!   whole-venue WKNN over the records of all shards (a brute-force f64
//!   scan in this file, so neither the int8 ranking nor the cross-shard
//!   merge of the program is compared with itself);
//! * the imputer must place the survey's unlocated records closer to where
//!   they were scanned than the centroid of the located records does — an
//!   untrained BiSIM errs by 1.45–2.0× the centroid's error, the 5-epoch one
//!   by 0.59–0.94× (68 seeds);
//! * a rebuild must reproduce the set-up artifact of `LiveVenue::build` bit
//!   for bit; every ingest must dirty exactly one shard and republish only
//!   it; a cold-ingested venue must equal a full recompute, and a
//!   warm-ingested shard must differ from one (else the fine-tune fell back
//!   to cold training).
//!
//! `--trace 0` reports the end-to-end metrics: the median and 90th
//! percentile of operation time, in reference milliseconds (wall time scaled
//! to a reference core speed, see [`trace`]), and `setup_s`. `--trace 1`
//! reports the per-layer metrics: the median reference milliseconds of one
//! call into each layer, from spans around the calls, plus work counts per
//! operation; the spans are written to
//! `e2ebench/traces/<workload>-<seed>.jsonl`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod trace;

use std::process::ExitCode;

use radiomap_core::prelude::*;
use radiomap_core::radiomap::MNAR_FILL_VALUE;
use radiomap_core::venue_sim::{simulate_survey, RADIO_MAP_EPSILON_S};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_serve::artifact::fnv1a64;
use rm_serve::{
    decode, decode_sharded, encode, encode_sharded, ModelRegistry, ShardedQueryEngine,
    MAX_MICRO_BATCH,
};

use trace::Tracer;

/// The venue every workload runs on.
const PRESET: VenuePreset = VenuePreset::KaideLike;
/// Preset scale: ~190 records over 53 APs on 11 survey paths.
const SCALE: f64 = 0.08;
/// BiSIM training epochs per cold (re-)imputation. Fewer leave the imputer
/// worse than the centroid baseline on most seeds (2 epochs: 0.96–1.46× over
/// 40 seeds).
const EPOCHS: usize = 5;
/// Fine-tuning epochs of a warm ingest. After one or two the imputed
/// positions are worse than before the ingest (one: worse than the centroid
/// on 4 of 6 seeds); after three they are better again (0.51–0.81× the
/// centroid's error over 36 seeds).
const WARM_EPOCHS: usize = 3;
/// Fan-out width of the pipeline, the publishes and the query engine. One
/// thread, because the host's vCPUs change speed independently: the
/// calibration on the measuring thread cannot speak for a second core.
const THREADS: usize = 1;
/// Size of the device query log (whole micro-batches).
const QUERIES: usize = 4 * MAX_MICRO_BATCH;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Largest distance, in metres, between a served answer and the exact
/// whole-venue WKNN answer. A different neighbour set moves an answer by
/// metres; a different summation order by ~1e-14 m.
const ANSWER_TOLERANCE_M: f64 = 1e-6;
const VENUE: &str = "e2e-venue";
/// How strongly times follow the reference computation's on a contended
/// core (see the `trace` module docs): the slope of log operation time
/// against log reference time, over 2-s bins of 90-s traced runs at one
/// thread, was 0.48 for `build`, 0.43 for `live` and 0.90 for `serve`.
/// Training and the rest of the offline pipeline slow down less than the
/// dense reference loop; the KNN scans of serving about as much.
const TRAINING_SENSITIVITY: f64 = 0.5;
const QUERY_SENSITIVITY: f64 = 0.9;

/// Layers timed in traced runs, as `(metric, span, sensitivity)`.
const LAYERS: [(&str, &str, f64); 14] = [
    (
        "radiomap_survey_ref_ms",
        "radiomap_survey",
        TRAINING_SENSITIVITY,
    ),
    ("radiomap_log_ref_ms", "radiomap_log", TRAINING_SENSITIVITY),
    ("shard_ref_ms", "shard", TRAINING_SENSITIVITY),
    (
        "differentiate_ref_ms",
        "differentiate",
        TRAINING_SENSITIVITY,
    ),
    ("impute_ref_ms", "impute", TRAINING_SENSITIVITY),
    ("ingest_ref_ms", "ingest", TRAINING_SENSITIVITY),
    ("ingest_warm_ref_ms", "ingest_warm", TRAINING_SENSITIVITY),
    ("encode_venue_ref_ms", "encode_venue", TRAINING_SENSITIVITY),
    ("encode_shard_ref_ms", "encode_shard", TRAINING_SENSITIVITY),
    ("decode_venue_ref_ms", "decode_venue", TRAINING_SENSITIVITY),
    ("decode_shard_ref_ms", "decode_shard", TRAINING_SENSITIVITY),
    (
        "publish_venue_ref_ms",
        "publish_venue",
        TRAINING_SENSITIVITY,
    ),
    (
        "publish_shard_ref_ms",
        "publish_shard",
        TRAINING_SENSITIVITY,
    ),
    ("query_ref_ms", "query", QUERY_SENSITIVITY),
];

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Build,
    Live,
    Warm,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::Live => "live",
            Workload::Warm => "warm",
            Workload::Serve => "serve",
        }
    }

    /// How strongly the operation's time follows the reference
    /// computation's (see the `trace` module docs).
    fn sensitivity(self) -> f64 {
        match self {
            Workload::Build | Workload::Live | Workload::Warm => TRAINING_SENSITIVITY,
            Workload::Serve => QUERY_SENSITIVITY,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "build" => Workload::Build,
                    "live" => Workload::Live,
                    "warm" => Workload::Warm,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything the workloads feed the system, generated from the seed.
struct Inputs {
    /// The venue's walking survey.
    survey: WalkingSurveyTable,
    /// The venue's walls (the topology-aware differentiator uses them).
    topology: MultiPolygon,
    /// The re-survey, one single-path table per log: log `k` walks the
    /// route of survey path `k` again.
    logs: Vec<WalkingSurveyTable>,
    /// Added to re-survey times once per re-walk, so a re-walk continues
    /// its path's sequence after the survey and every earlier re-walk.
    log_time_offset: f64,
    /// Device fingerprints, dense with the MNAR fill for unheard APs.
    queries: Vec<Vec<f64>>,
    /// Where each record of the survey's radio map was scanned, for the
    /// records surveyed without a position; `None` for located records.
    unlocated_truth: Vec<Option<Point>>,
    /// Mean error of placing every unlocated record at the centroid of the
    /// located ones: the bar the imputer has to clear.
    centroid_error_m: f64,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let dataset = DatasetSpec::new(PRESET, seed).with_scale(SCALE).build();
        let mut rng = StdRng::seed_from_u64(rm_runtime::derive_seed(seed, 1));
        let resurvey = simulate_survey(
            &dataset.venue,
            &dataset.propagation,
            &PRESET.survey_config(SCALE),
            &mut rng,
        )
        .table;
        let logs = resurvey
            .paths()
            .iter()
            .map(|entries| {
                let mut table = WalkingSurveyTable::new(resurvey.num_aps());
                table.add_path(entries.clone());
                table
            })
            .collect();
        let located: Vec<Vec<f64>> = resurvey
            .create_radio_map(RADIO_MAP_EPSILON_S)
            .records()
            .iter()
            .filter(|r| r.rp.is_some())
            .map(|r| r.fingerprint.to_dense(MNAR_FILL_VALUE))
            .collect();
        let queries = located.iter().cycle().take(QUERIES).cloned().collect();

        let map = dataset.survey.table.create_radio_map(RADIO_MAP_EPSILON_S);
        let unlocated_truth: Vec<Option<Point>> = map
            .records()
            .iter()
            .map(|r| {
                r.rp.is_none()
                    .then(|| {
                        dataset.survey.scan_positions[r.path_id]
                            .iter()
                            .find(|(time, _)| (time - r.time).abs() < 1e-9)
                            .map(|&(_, p)| p)
                    })
                    .flatten()
            })
            .collect();
        let rps: Vec<Point> = map.records().iter().filter_map(|r| r.rp).collect();
        let centroid = rps.iter().fold(Point::origin(), |acc, &p| acc + p) / rps.len() as f64;
        let truths: Vec<Point> = unlocated_truth.iter().flatten().copied().collect();
        let centroid_error_m =
            truths.iter().map(|p| p.distance(centroid)).sum::<f64>() / truths.len() as f64;
        let last = map.records().iter().map(|r| r.time);
        Self {
            log_time_offset: last.fold(0.0, f64::max) + 60.0,
            survey: dataset.survey.table,
            topology: dataset.venue.walls,
            logs,
            queries,
            unlocated_truth,
            centroid_error_m,
        }
    }

    /// The top-up path re-walked during set-up: the re-survey's last path.
    fn top_up(&self) -> usize {
        self.logs.len() - 1
    }

    /// The first micro-batch of the query log: the batch every build and
    /// update is checked with.
    fn first_batch(&self) -> &[Vec<f64>] {
        &self.queries[..MAX_MICRO_BATCH]
    }
}

/// The pipeline every workload runs: TopoAC differentiation, BiSIM
/// imputation, WKNN serving, one spatial shard per survey path. With a shard
/// per path and each re-walk joining its own path, every live update
/// re-imputes a shard of the same size.
fn pipeline_config(inputs: &Inputs, seed: u64) -> PipelineConfig {
    PipelineConfig {
        differentiator: DifferentiatorKind::TopoAc,
        imputer: ImputerKind::Bisim,
        epochs: Some(EPOCHS),
        batch_size: Some(1),
        threads: THREADS,
        shards: Some(inputs.survey.num_paths()),
        estimator: EstimatorKind::Wknn,
        seed,
        ..PipelineConfig::default()
    }
}

/// A venue brought live: the incremental ingest state and the registry that
/// serves it.
struct LiveState {
    live: LiveVenue,
    registry: ModelRegistry,
}

/// What set-up produced, for the checks after it.
struct Bringup {
    state: LiveState,
    /// The initial build, before the top-up re-walks.
    build: ShardedVenueSnapshot,
    /// Its artifact's checksum.
    build_hash: u64,
    /// The initial model's answers to the first micro-batch.
    build_answers: Vec<Option<Point>>,
    /// Work the whole set-up did.
    work: Work,
}

/// What operations are checked against, computed after set-up.
struct Reference {
    build_hash: u64,
    /// The initial model's answers to the first micro-batch (checked
    /// against [`exact_answers`]).
    build_answers: Vec<Option<Point>>,
    /// [`exact_answers`] for the whole query log on the set-up venue.
    served: Vec<Option<Point>>,
}

/// Work an operation did, for the per-layer counts.
#[derive(Default)]
struct Work {
    records_imputed: usize,
    artifact_bytes: usize,
}

/// How a re-walk is folded into the live venue.
#[derive(Clone, Copy, PartialEq)]
enum Update {
    /// `LiveVenue::ingest`: the dirty shard's imputer trained from scratch.
    Cold,
    /// `LiveVenue::ingest_warm`: fine-tuned from its previous weights.
    Warm,
}

/// The build as the pipeline stages it, called stage by stage so each
/// layer gets its own span and the clock can calibrate between shards:
/// partition, then per shard differentiation and imputation with the
/// pipeline's per-shard seed. Only traced runs use it; its artifact is
/// checked against the program's own build, bit for bit.
fn staged_build(
    pipeline: &ImputationPipeline,
    map: &RadioMap,
    topology: &MultiPolygon,
    t: &mut Tracer,
) -> ShardedVenueSnapshot {
    let config = &pipeline.config;
    let (shards, parts) = t.span("shard", || {
        let shards = pipeline.shard(map);
        let parts = shards.split(map);
        (shards, parts)
    });
    let n = parts.len();
    let mut snapshots = Vec::with_capacity(n);
    for (s, part) in parts.iter().enumerate() {
        t.maybe_calibrate();
        let seed = if n <= 1 {
            config.seed
        } else {
            rm_runtime::derive_seed(config.seed, s as u64)
        };
        let mask = t.span("differentiate", || {
            config
                .differentiator
                .build(topology, config.eta, seed)
                .differentiate(part)
        });
        let (imputed, tensors) = t.span("impute", || {
            config
                .imputer
                .build_with(&pipeline.build_options(seed))
                .impute_with_snapshot(part, &mask)
        });
        snapshots.push(VenueSnapshot {
            venue: VENUE.into(),
            map: imputed.to_dense(part.num_aps()),
            mask,
            estimator: config.estimator,
            knn_k: config.knn_k,
            seed,
            precision: config.precision,
            snapshot_dtype: config.snapshot_dtype,
            tensors,
        });
    }
    ShardedVenueSnapshot {
        venue: VENUE.into(),
        snapshots,
        shards,
    }
}

/// Answers one micro-batch through a fresh batching engine.
fn answer(registry: &ModelRegistry, batch: &[Vec<f64>], t: &mut Tracer) -> Vec<Option<Point>> {
    let mut engine = ShardedQueryEngine::new(registry, VENUE, THREADS);
    let responses = t.span("query", || engine.run_log(batch));
    responses.into_iter().map(|r| r.position).collect()
}

/// The WKNN answers of the whole venue, computed here rather than by the
/// program: every record of every shard is scored by its exact f64
/// Euclidean distance to the query, the `k` nearest (ties by record index)
/// are weighted by inverse distance.
fn exact_answers(
    snapshots: &[VenueSnapshot],
    shards: &VenueShards,
    queries: &[Vec<f64>],
) -> Vec<Option<Point>> {
    let k = snapshots.first().map_or(1, |s| s.knn_k.max(1));
    let mut records: Vec<(usize, &[f64], Point)> = Vec::new();
    for (s, snapshot) in snapshots.iter().enumerate() {
        let map = &snapshot.map;
        for (i, &global) in shards.members_of(s).iter().enumerate() {
            records.push((global, &map.fingerprints()[i], map.locations()[i]));
        }
    }
    queries
        .iter()
        .map(|query| {
            let mut scored: Vec<(f64, usize, Point)> = records
                .iter()
                .map(|&(global, fingerprint, location)| {
                    let d2: f64 = query
                        .iter()
                        .zip(fingerprint)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    (d2.sqrt(), global, location)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let nearest = &scored[..k.min(scored.len())];
            if nearest.is_empty() {
                return None;
            }
            let weights: Vec<f64> = nearest.iter().map(|n| 1.0 / (n.0 + 1e-6)).collect();
            let total: f64 = weights.iter().sum();
            let sum = nearest
                .iter()
                .zip(&weights)
                .fold(Point::origin(), |acc, (n, &w)| acc + n.2 * w);
            Some(sum / total)
        })
        .collect()
}

/// Whether every served answer lies within [`ANSWER_TOLERANCE_M`] of its
/// reference answer.
fn check_answers(served: &[Option<Point>], reference: &[Option<Point>]) -> Result<(), String> {
    if served.len() != reference.len() {
        return Err(format!(
            "{} answers for {} queries",
            served.len(),
            reference.len()
        ));
    }
    for (i, (a, b)) in served.iter().zip(reference).enumerate() {
        match (a, b) {
            (Some(a), Some(b)) if a.distance(*b) <= ANSWER_TOLERANCE_M => {}
            _ => {
                return Err(format!(
                    "query {i} answered {a:?}, the exact whole-venue WKNN {b:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Mean distance between the imputed and the true positions of the survey
/// records that were surveyed without one; it must stay below the
/// centroid's error.
fn check_imputation(
    snapshots: &[VenueSnapshot],
    shards: &VenueShards,
    inputs: &Inputs,
) -> Result<(), String> {
    let (mut error, mut count) = (0.0, 0usize);
    for (s, snapshot) in snapshots.iter().enumerate() {
        for (i, &global) in shards.members_of(s).iter().enumerate() {
            if let Some(Some(truth)) = inputs.unlocated_truth.get(global) {
                error += snapshot.map.locations()[i].distance(*truth);
                count += 1;
            }
        }
    }
    let expected = inputs.unlocated_truth.iter().flatten().count();
    if count != expected {
        return Err(format!(
            "{count} of {expected} unlocated survey records were imputed"
        ));
    }
    let mean = error / count.max(1) as f64;
    if mean >= inputs.centroid_error_m {
        return Err(format!(
            "imputed positions err by {mean:.2} m, the centroid of the located records by {:.2} m",
            inputs.centroid_error_m
        ));
    }
    Ok(())
}

/// Ingests re-walk number `round` of survey path `log` into the live venue
/// and republishes the shard it dirtied through its own artifact.
fn apply_log(
    state: &mut LiveState,
    inputs: &Inputs,
    log: usize,
    round: usize,
    update: Update,
    t: &mut Tracer,
) -> Result<(usize, Work), String> {
    let map = t.span("radiomap_log", || {
        inputs.logs[log].create_radio_map(RADIO_MAP_EPSILON_S)
    });
    let mut records = map.records().to_vec();
    for record in &mut records {
        record.path_id = log;
        record.time += inputs.log_time_offset * round as f64;
    }
    let dirty = match update {
        Update::Cold => t.span("ingest", || state.live.ingest(&records)),
        Update::Warm => t.span("ingest_warm", || {
            state.live.ingest_warm(&records, WARM_EPOCHS)
        }),
    };
    if dirty.len() != 1 {
        return Err(format!("path {log} dirtied shards {dirty:?}, not one"));
    }
    let shard = dirty[0];
    let bytes = t.span("encode_shard", || encode(&state.live.snapshots()[shard]));
    let snapshot = t
        .span("decode_shard", || decode(&bytes))
        .map_err(|e| format!("shard artifact failed to decode: {e}"))?;
    let sharded_model = |registry: &ModelRegistry| {
        registry
            .sharded_model(VENUE)
            .ok_or("venue vanished from the registry")
    };
    let before = sharded_model(&state.registry)?.shard_generations();
    t.span("publish_shard", || {
        state
            .registry
            .publish_shard(VENUE, shard, snapshot, state.live.shards(), THREADS)
    });
    let after = sharded_model(&state.registry)?.shard_generations();
    let republished: Vec<usize> = (0..after.len())
        .filter(|&s| before.get(s) != Some(&after[s]))
        .collect();
    if republished != [shard] {
        return Err(format!(
            "dirty shard {shard}, but shards {republished:?} were republished"
        ));
    }
    Ok((
        shard,
        Work {
            records_imputed: state.live.shards().members_of(shard).len(),
            artifact_bytes: bytes.len(),
        },
    ))
}

/// Set-up: brings the venue live from the survey.
fn bring_up(inputs: &Inputs, seed: u64, t: &mut Tracer) -> Result<Bringup, String> {
    let map = t.span("radiomap_survey", || {
        inputs.survey.create_radio_map(RADIO_MAP_EPSILON_S)
    });
    let config = pipeline_config(inputs, seed);
    let live = LiveVenue::build(VENUE, map.clone(), inputs.topology.clone(), config.clone());
    t.maybe_calibrate();
    let build = live.sharded_snapshot();
    let bytes = t.span("encode_venue", || encode_sharded(&build));
    if t.enabled() {
        let staged = staged_build(&ImputationPipeline::new(config), &map, &inputs.topology, t);
        if encode_sharded(&staged) != bytes {
            return Err("the staged build differs from LiveVenue::build".into());
        }
    }
    let decoded = t
        .span("decode_venue", || decode_sharded(&bytes))
        .map_err(|e| format!("venue artifact failed to decode: {e}"))?;
    let registry = ModelRegistry::new();
    t.span("publish_venue", || {
        registry.publish_sharded(decoded, THREADS)
    });
    let build_answers = answer(&registry, inputs.first_batch(), t);

    let mut state = LiveState { live, registry };
    t.maybe_calibrate();
    let (_, cold) = apply_log(&mut state, inputs, inputs.top_up(), 1, Update::Cold, t)?;
    t.maybe_calibrate();
    let (_, warm) = apply_log(&mut state, inputs, inputs.top_up(), 2, Update::Warm, t)?;
    Ok(Bringup {
        state,
        build,
        build_hash: fnv1a64(&bytes),
        build_answers,
        work: Work {
            records_imputed: map.len() + cold.records_imputed + warm.records_imputed,
            artifact_bytes: bytes.len() + cold.artifact_bytes + warm.artifact_bytes,
        },
    })
}

/// Checks what set-up produced and computes the references the operations
/// are checked against. A failed check makes the run incorrect but does not
/// stop it.
fn verify_setup(up: &Bringup, inputs: &Inputs) -> (Reference, Result<(), String>) {
    let initial = exact_answers(&up.build.snapshots, &up.build.shards, inputs.first_batch());
    let live = &up.state.live;
    let checks = check_imputation(&up.build.snapshots, &up.build.shards, inputs)
        .and_then(|()| check_answers(&up.build_answers, &initial))
        .map_err(|e| format!("the initial build: {e}"))
        .and_then(|()| {
            check_imputation(live.snapshots(), live.shards(), inputs)
                .map_err(|e| format!("after the top-up re-walks: {e}"))
        });
    let reference = Reference {
        build_hash: up.build_hash,
        build_answers: up.build_answers.clone(),
        served: exact_answers(live.snapshots(), live.shards(), &inputs.queries),
    };
    (reference, checks)
}

/// Survey table to first answer, from scratch: the pipeline's sharded
/// export (or, traced, its stages one by one), the venue artifact, a fresh
/// registry and one batch.
fn build_op(inputs: &Inputs, seed: u64, t: &mut Tracer) -> Result<(Work, Rebuilt), String> {
    let map = t.span("radiomap_survey", || {
        inputs.survey.create_radio_map(RADIO_MAP_EPSILON_S)
    });
    let pipeline = ImputationPipeline::new(pipeline_config(inputs, seed));
    t.maybe_calibrate();
    let snapshot = if t.enabled() {
        staged_build(&pipeline, &map, &inputs.topology, t)
    } else {
        pipeline.export_sharded_snapshot(VENUE, &map, &inputs.topology)
    };
    t.maybe_calibrate();
    let bytes = t.span("encode_venue", || encode_sharded(&snapshot));
    let decoded = t
        .span("decode_venue", || decode_sharded(&bytes))
        .map_err(|e| format!("venue artifact failed to decode: {e}"))?;
    let registry = ModelRegistry::new();
    t.span("publish_venue", || {
        registry.publish_sharded(decoded, THREADS)
    });
    let answers = answer(&registry, inputs.first_batch(), t);
    let work = Work {
        records_imputed: map.len(),
        artifact_bytes: bytes.len(),
    };
    Ok((
        work,
        Rebuilt {
            artifact: bytes,
            answers,
        },
    ))
}

/// What a rebuild produced, for checking against the set-up.
struct Rebuilt {
    artifact: Vec<u8>,
    /// Answers to the first micro-batch.
    answers: Vec<Option<Point>>,
}

/// Per-operation bookkeeping of the measured loop.
#[derive(Default)]
struct Tally {
    /// `(start_ns, end_ns)` of every operation on the tracer's clock.
    ops: Vec<(u128, u128)>,
    failed: u64,
    records_imputed: u64,
    artifact_bytes: u64,
}

impl Tally {
    /// Runs one operation, bracketed by calibrations outside its interval,
    /// and returns what it produced for checking; `None` if it failed.
    fn record<R>(
        &mut self,
        t: &mut Tracer,
        op: impl FnOnce(&mut Tracer) -> Result<(Work, R), String>,
    ) -> Option<R> {
        t.maybe_calibrate();
        t.begin_op("measure");
        let start_ns = t.now_ns();
        let result = op(t);
        self.ops.push((start_ns, t.now_ns()));
        t.maybe_calibrate();
        match result {
            Ok((work, produced)) => {
                self.records_imputed += work.records_imputed as u64;
                self.artifact_bytes += work.artifact_bytes as u64;
                Some(produced)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts the last operation as failed when its check failed.
    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        eprintln!("e2ebench: operation {} failed: {e}", self.ops.len());
    }

    /// A work count per measured operation, or per set-up if the operations
    /// did no such work (as the span medians fall back to the set-up).
    fn per_op(&self, total: u64, setup: usize) -> f64 {
        if total == 0 {
            setup as f64
        } else {
            total as f64 / self.ops.len() as f64
        }
    }
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    })
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Re-walks of every path but the set-up's top-up, one per operation, each
/// cycle followed by an untimed reset to the set-up state. Only whole cycles
/// run, so every run measures the same mix of paths. Checks every answer,
/// and at the end the shards the last cycle dirtied.
fn run_updates(
    update: Update,
    up: Bringup,
    inputs: &Inputs,
    seed: u64,
    deadline_ns: u128,
    tally: &mut Tally,
    t: &mut Tracer,
) -> Result<(), String> {
    let mut state = up.state;
    let cycle = inputs.top_up();
    let mut dirtied = Vec::with_capacity(cycle);
    loop {
        if dirtied.len() == cycle {
            if t.now_ns() >= deadline_ns {
                break;
            }
            state = bring_up(inputs, seed, &mut Tracer::new(false))?.state;
            dirtied.clear();
        }
        let log = dirtied.len();
        let produced = tally.record(t, |t| {
            let (shard, work) = apply_log(&mut state, inputs, log, 1, update, t)?;
            Ok((
                work,
                (shard, answer(&state.registry, inputs.first_batch(), t)),
            ))
        });
        let Some((shard, answers)) = produced else {
            return Err(format!("the re-walk of path {log} failed"));
        };
        dirtied.push(shard);
        let live = &state.live;
        tally.check(check_answers(
            &answers,
            &exact_answers(live.snapshots(), live.shards(), inputs.first_batch()),
        ));
    }
    t.calibrate();
    let live = &state.live;
    let full = live.recompute_all();
    let same = |s: usize| {
        let (a, b) = (&full[s], &live.snapshots()[s]);
        a.map == b.map && a.mask == b.mask
    };
    match update {
        // Incremental ingest must equal recomputing the shard from scratch.
        Update::Cold => {
            if let Some(&s) = dirtied.iter().find(|&&s| !same(s)) {
                return Err(format!("shard {s} differs from a full recompute"));
            }
        }
        // A fine-tune follows another trajectory than a cold training; the
        // fine-tuned imputer must still beat the centroid.
        Update::Warm => {
            if let Some(&s) = dirtied.iter().find(|&&s| same(s)) {
                return Err(format!(
                    "warm ingest of shard {s} equals a cold recompute: it fell back to cold training"
                ));
            }
            check_imputation(live.snapshots(), live.shards(), inputs)
                .map_err(|e| format!("after warm ingests: {e}"))?;
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let inputs = Inputs::generate(args.seed);
    let mut t = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    t.calibrate();
    for _ in 0..SETUP_REPEATS {
        t.begin_op("setup");
        let start_ns = t.now_ns();
        let up = bring_up(&inputs, args.seed, &mut t)?;
        let end_ns = t.now_ns();
        t.calibrate();
        setup_s.push(t.ref_ms(start_ns, end_ns, TRAINING_SENSITIVITY) / 1e3);
        prepared = Some(up);
    }
    let mut up = prepared.expect("at least one set-up");
    let (reference, mut checks) = verify_setup(&up, &inputs);
    let setup_work = std::mem::take(&mut up.work);
    t.calibrate();

    let deadline_ns = t.now_ns() + (args.seconds * 1e9) as u128;
    let mut tally = Tally::default();
    match args.workload {
        Workload::Build => {
            while t.now_ns() < deadline_ns {
                let Some(rebuilt) = tally.record(&mut t, |t| build_op(&inputs, args.seed, t))
                else {
                    continue;
                };
                tally.check(if fnv1a64(&rebuilt.artifact) != reference.build_hash {
                    Err("the rebuild differs from the set-up artifact".into())
                } else if rebuilt.answers != reference.build_answers {
                    Err("the rebuilt model answers differently".into())
                } else {
                    Ok(())
                });
            }
            t.calibrate();
        }
        Workload::Live | Workload::Warm => {
            let update = if args.workload == Workload::Live {
                Update::Cold
            } else {
                Update::Warm
            };
            checks = checks.and(run_updates(
                update,
                up,
                &inputs,
                args.seed,
                deadline_ns,
                &mut tally,
                &mut t,
            ));
        }
        Workload::Serve => {
            // One operation answers the whole query log, micro-batch by
            // micro-batch, so every operation does the same work.
            let mut engine = ShardedQueryEngine::new(&up.state.registry, VENUE, THREADS);
            while t.now_ns() < deadline_ns {
                let produced = tally.record(&mut t, |t| {
                    let mut answers = Vec::with_capacity(inputs.queries.len());
                    for batch in inputs.queries.chunks(MAX_MICRO_BATCH) {
                        let responses = t.span("query", || engine.run_log(batch));
                        answers.extend(responses.into_iter().map(|r| r.position));
                    }
                    Ok((Work::default(), answers))
                });
                if let Some(answers) = produced {
                    tally.check(check_answers(&answers, &reference.served));
                }
            }
            t.calibrate();
        }
    }
    if let Err(e) = &checks {
        eprintln!("e2ebench: {e}");
    }
    let raw_ms: Vec<f64> = tally
        .ops
        .iter()
        .map(|&(s, e)| (e - s) as f64 / 1e6)
        .collect();
    eprintln!(
        "e2ebench: {} operations, median {:.3} ms wall; reference computation median {:.3} ms",
        tally.ops.len(),
        median(raw_ms).unwrap_or(f64::NAN),
        t.calibration_ms().unwrap_or(f64::NAN),
    );

    let mut metrics = Vec::new();
    if args.trace {
        for (metric, layer, sensitivity) in LAYERS {
            let value = t
                .median_ref_ms(layer, sensitivity)
                .ok_or_else(|| format!("layer `{layer}` was never called"))?;
            metrics.push((metric, value, "ms"));
        }
        metrics.push((
            "records_imputed",
            tally.per_op(tally.records_imputed, setup_work.records_imputed),
            "count",
        ));
        metrics.push((
            "artifact_kib",
            tally.per_op(tally.artifact_bytes, setup_work.artifact_bytes) / 1024.0,
            "KiB",
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
        t.write_jsonl(&path, &tally.ops)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else if !tally.ops.is_empty() {
        let op_ms: Vec<f64> = tally
            .ops
            .iter()
            .map(|&(s, e)| t.ref_ms(s, e, args.workload.sensitivity()))
            .collect();
        metrics.push(("op_ref_ms", median(op_ms.clone()).expect("ops ran"), "ms"));
        metrics.push(("op_p90_ref_ms", percentile(op_ms, 0.9), "ms"));
        metrics.push(("setup_s", median(setup_s).expect("set-up ran"), "s"));
    }
    Ok(Report {
        correct: checks.is_ok() && tally.failed == 0 && !tally.ops.is_empty(),
        attempted: tally.ops.len(),
        failed: tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload build|live|warm|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
