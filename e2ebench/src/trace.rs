//! The benchmark's clock: machine-speed calibration, operation intervals and
//! in-memory spans around each call into a layer.
//!
//! # Calibration
//!
//! The hosts this benchmark runs on change speed within seconds and for
//! minutes at a time: on a 2-vCPU KVM guest with no steal time reported,
//! the fixed computation in [`reference`] took 0.8 ms in some seconds and
//! 1.9 ms in others, and a serving run measured 0.5 ms per micro-batch in
//! one minute and 1.1 ms in the next. Raw wall times of one run therefore
//! say more about the neighbours than about the program.
//!
//! So the clock times [`reference`] on the measuring thread just before and
//! after every operation, and inside long ones between calls into the
//! program at least every [`CAL_INTERVAL`], and reports each interval in
//! **reference milliseconds**: its wall time scaled to a core that runs the
//! reference in [`CAL_REF_MS`],
//!
//! ```text
//! ref_ms = wall_ms × (CAL_REF_MS / reference_ms) ^ sensitivity
//! ```
//!
//! summed over the pieces between calibrations, where `reference_ms` is the
//! mean of the two calibrations around a piece and `sensitivity` says how
//! strongly the kind of work timed follows the reference (1 = slows down
//! just as much). Time spent calibrating is not counted. The reference is
//! the benchmark's own code, so no change to the program can speed it up: a
//! change that saves 10 % of an operation's time lowers its reference
//! milliseconds by 10 %.
//!
//! # Spans
//!
//! A span records the layer it timed, the operation that caused it (set-up
//! repetitions and measured operations are numbered in one sequence), and
//! its start and end relative to the clock's creation. Spans are flat: each
//! wraps a single call into one layer, so its duration is its self time.
//! With tracing off, [`Tracer::span`] only runs the closure.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Side of the reference matrix product.
const CAL_N: usize = 48;
/// Products per reference run (0.8–1.9 ms on the development host).
const CAL_REPS: usize = 24;
/// Longest time between two calibrations while measuring.
const CAL_INTERVAL: Duration = Duration::from_millis(50);
/// Reference time of [`reference`] that reported milliseconds are scaled to.
const CAL_REF_MS: f64 = 1.0;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    op: u64,
    phase: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// One run of the reference computation.
struct Calibration {
    start_ns: u128,
    end_ns: u128,
    ms: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    phase: &'static str,
    spans: Vec<Span>,
    calibrations: Vec<Calibration>,
    cal_a: Vec<f64>,
    cal_b: Vec<f64>,
    cal_c: Vec<f64>,
}

impl Tracer {
    /// A clock; spans are recorded only when `enabled`.
    #[allow(clippy::disallowed_methods)] // the benchmark's clock; see the rm-lint allow inside
    pub fn new(enabled: bool) -> Self {
        let cells = CAL_N * CAL_N;
        Self {
            enabled,
            // rm-lint: allow(no-wallclock-in-deterministic-path): the benchmark's clock, only reported
            origin: Instant::now(),
            op: 0,
            phase: "setup",
            spans: Vec::new(),
            calibrations: Vec::new(),
            cal_a: (0..cells).map(|i| (i % 7) as f64 * 0.01).collect(),
            cal_b: (0..cells).map(|i| (i % 5) as f64 * 0.01).collect(),
            cal_c: vec![0.0; cells],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the clock was created.
    pub fn now_ns(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    /// Starts a new operation: later spans carry its id and `phase`.
    pub fn begin_op(&mut self, phase: &'static str) {
        self.op += 1;
        self.phase = phase;
    }

    /// Runs `f`, recording a span for `layer` when tracing is on.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            op: self.op,
            phase: self.phase,
            start_ns,
            end_ns,
        });
        result
    }

    /// Times one run of the reference computation.
    pub fn calibrate(&mut self) {
        let start_ns = self.now_ns();
        reference(&self.cal_a, &self.cal_b, &mut self.cal_c);
        let end_ns = self.now_ns();
        self.calibrations.push(Calibration {
            start_ns,
            end_ns,
            ms: (end_ns - start_ns) as f64 / 1e6,
        });
    }

    /// Calibrates unless the last calibration ended less than
    /// [`CAL_INTERVAL`] ago.
    pub fn maybe_calibrate(&mut self) {
        let due = self
            .calibrations
            .last()
            .is_none_or(|c| self.now_ns() - c.end_ns >= CAL_INTERVAL.as_nanos());
        if due {
            self.calibrate();
        }
    }

    /// Median reference time of the run, in milliseconds.
    pub fn calibration_ms(&self) -> Option<f64> {
        crate::median(self.calibrations.iter().map(|c| c.ms).collect())
    }

    /// The interval `[start_ns, end_ns]` in reference milliseconds for work
    /// of the given `sensitivity`: each piece between the calibrations
    /// inside it is scaled by the mean of the calibrations around that
    /// piece.
    pub fn ref_ms(&self, start_ns: u128, end_ns: u128, sensitivity: f64) -> f64 {
        let scaled = |from: u128, to: u128, before: Option<f64>, after: Option<f64>| {
            let reference = match (before, after) {
                (Some(b), Some(a)) => (b + a) / 2.0,
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => panic!("no calibration brackets the interval"),
            };
            (to - from) as f64 / 1e6 * (CAL_REF_MS / reference).powf(sensitivity)
        };
        let mut before = self
            .calibrations
            .iter()
            .rev()
            .find(|c| c.end_ns <= start_ns)
            .map(|c| c.ms);
        let mut from = start_ns;
        let mut total = 0.0;
        for c in &self.calibrations {
            if c.start_ns < start_ns {
                continue;
            }
            if c.start_ns >= end_ns {
                return total + scaled(from, end_ns, before, Some(c.ms));
            }
            total += scaled(from, c.start_ns, before, Some(c.ms));
            before = Some(c.ms);
            from = c.end_ns;
        }
        total + scaled(from, end_ns, before, None)
    }

    /// Median reference milliseconds of one call into `layer`: over the
    /// measured operations' calls if they made any, else over the set-up's;
    /// `None` if the layer was never called.
    pub fn median_ref_ms(&self, layer: &str, sensitivity: f64) -> Option<f64> {
        let calls = |phase: &str| -> Vec<f64> {
            self.spans
                .iter()
                .filter(|s| s.layer == layer && s.phase == phase)
                .map(|s| self.ref_ms(s.start_ns, s.end_ns, sensitivity))
                .collect()
        };
        crate::median(calls("measure")).or_else(|| crate::median(calls("setup")))
    }

    /// Writes every span, calibration and measured operation as one JSON
    /// object per line.
    pub fn write_jsonl(&self, path: &Path, ops: &[(u128, u128)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"op\":{},\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.op, s.phase, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.calibrations {
            writeln!(
                out,
                "{{\"layer\":\"calibration\",\"start_ns\":{},\"end_ns\":{}}}",
                c.start_ns, c.end_ns
            )?;
        }
        for (start_ns, end_ns) in ops {
            writeln!(
                out,
                "{{\"layer\":\"op\",\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}"
            )?;
        }
        out.flush()
    }
}

/// The reference computation: `CAL_REPS` dense `CAL_N`×`CAL_N` f64 matrix
/// products accumulated into `c`.
fn reference(a: &[f64], b: &[f64], c: &mut [f64]) {
    for _ in 0..CAL_REPS {
        let (a, b) = (black_box(a), black_box(b));
        for i in 0..CAL_N {
            for k in 0..CAL_N {
                let aik = a[i * CAL_N + k];
                for j in 0..CAL_N {
                    c[i * CAL_N + j] += aik * b[k * CAL_N + j];
                }
            }
        }
        black_box(&mut *c);
    }
}
