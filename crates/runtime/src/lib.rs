//! `rm-runtime` — a std-only, offline-safe parallel runtime with a
//! *determinism contract*.
//!
//! Every layer of the pipeline (differentiation grids, imputer column loops,
//! positioning queries, experiment cells) fans independent work items out over
//! a **persistent worker pool** (see [`pool`]): workers are spawned lazily on
//! the first parallel fan-out, park between calls, and are handed borrowed
//! jobs through type-erased tickets, so a dispatch costs a queue push and a
//! wakeup instead of a thread spawn. The pre-pool scoped-spawn implementation
//! is kept as [`par_map_scoped`] — the reference baseline that the pool must
//! match bitwise (cross-checked by property tests) and the unit of comparison
//! for the dispatch-overhead benches. The primitives are designed so that
//! **results are bit-identical at any thread count**:
//!
//! * [`par_map`] is *order-preserving*: item `i`'s result always lands in
//!   output slot `i`, no matter which worker computed it or in which order
//!   workers finished. As long as the mapped closure is a pure function of
//!   `(index, item)`, the output vector is independent of scheduling.
//! * [`par_chunks`] fixes the chunk boundaries from the *chunk size*, never
//!   from the thread count, so per-chunk reductions (partial sums, local
//!   argmins) combine in the same order regardless of parallelism.
//! * [`derive_seed`] gives every work item its own RNG stream derived from
//!   `(base_seed, item_index)`. Tasks that consume randomness stay
//!   reproducible because their seed depends on *what* they compute, not on
//!   *which thread* computes it or *when*.
//!
//! Nested fan-outs are degraded to serial execution inside worker threads (the
//! outer level already saturates the machine), which bounds the total thread
//! count and keeps wall-clock predictable. This changes nothing observable:
//! serial execution is just the one-thread schedule of the same deterministic
//! plan.
//!
//! # Thread-count resolution
//!
//! All primitives take a `threads` argument where `0` means *auto*: the
//! `RM_THREADS` environment variable if set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. Passing `1` forces the serial
//! fallback path (no threads are spawned at all). The *auto* value is
//! resolved once per process and cached, but an explicit positive request
//! always wins over the cache — callers that set
//! `PipelineConfig.threads` get exactly that width no matter what
//! `RM_THREADS` said when the cache was filled.

// Every `unsafe` operation must be argued individually, even inside an
// `unsafe fn` — rm-lint's `unsafe-needs-safety-comment` rule then pins a
// `// SAFETY:` justification to each explicit block.
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, UnsafeCell};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod alloc_counter;
pub mod pool;

pub use pool::{pool_enabled, pool_stats, PoolStats, MAX_WORKERS};

thread_local! {
    /// Set inside pool workers so nested fan-outs run serially instead of
    /// oversubscribing the machine.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The auto thread count, resolved once per process: probing
/// `available_parallelism` goes through a syscall (and cgroup files on
/// Linux), far too slow for the per-call fast path of fine-grained fan-outs.
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// Resolves a requested thread count: positive values pass through, `0` means
/// the `RM_THREADS` environment variable (if a positive integer) and finally
/// the machine's available parallelism. The auto value is resolved **once per
/// process** and cached; set `RM_THREADS` before the first fan-out.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    *AUTO_THREADS.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_THREADS
        if let Ok(v) = std::env::var("RM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The thread count `par_map`/`par_chunks` would use for `requested = 0`
/// (`RM_THREADS` override, else available parallelism).
pub fn default_threads() -> usize {
    resolve_threads(0)
}

/// Returns `true` when called from inside an `rm-runtime` worker thread
/// (where nested fan-outs degrade to serial execution).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Derives a per-item RNG seed from a base seed and an item index using a
/// SplitMix64-style finalizer. The mapping is:
///
/// * deterministic — the same `(base, stream)` always yields the same seed,
/// * scheduling-independent — it only depends on the item's *index*, so a
///   task's randomness is identical whether it runs first, last, serial or
///   parallel,
/// * well-spread — nearby indices produce statistically unrelated seeds, so
///   sibling tasks do not walk correlated RNG streams.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-preserving parallel map over a slice.
///
/// Applies `f(index, &items[index])` to every item using up to `threads`
/// participants (see [`resolve_threads`]; `0` = auto) — the calling thread
/// plus `threads - 1` persistent pool workers (see [`pool`]) — and returns
/// the results **in input order**. Work is distributed dynamically (an atomic
/// cursor), but the output is scheduling-independent: slot `i` always holds
/// `f(i, &items[i])`.
///
/// Falls back to a plain serial loop when one thread is requested, when there
/// is at most one item, or when called from inside another `par_map` worker
/// (nested parallelism would oversubscribe the machine). Set `RM_POOL=0` to
/// route parallel calls through [`par_map_scoped`] instead of the pool.
///
/// # Panics
/// Propagates panics from `f` (the first panicking participant aborts the
/// map; its original payload is re-raised on the caller). A panic never kills
/// a pool worker — the pool stays usable afterwards.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match parallel_width(threads, items.len()) {
        None => items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        Some(threads) if pool::enabled() => pool_par_map(threads, items, f),
        Some(threads) => scoped_par_map(threads, items, f),
    }
}

/// Resolves the effective width of a fan-out over `len` items, or `None`
/// when the call must take the serial fallback (at most one item, nested
/// inside a worker, or a resolved thread count of 1). Shared by [`par_map`]
/// and [`par_map_scoped`] so the pool path and the reference baseline can
/// never disagree about *whether* a call parallelises — only *how*.
fn parallel_width(threads: usize, len: usize) -> Option<usize> {
    if len <= 1 || in_worker() {
        return None;
    }
    let threads = resolve_threads(threads).min(len);
    if threads <= 1 {
        None
    } else {
        Some(threads)
    }
}

/// A fixed array of per-participant result buckets for the pool fan-out.
///
/// Each execution of a fan-out's job body claims a distinct bucket index
/// from an atomic cursor and is the only thread that ever touches that
/// bucket, so the buckets need no locking; the dispatching caller reads them
/// only after `Pool::run` returned (i.e. after every ticket finished, which
/// the pool's latch guarantees with a happens-before edge).
struct ParticipantSlots<R> {
    buckets: Vec<UnsafeCell<Vec<(usize, R)>>>,
}

// SAFETY: distinct participants access distinct buckets (unique indices from
// an atomic claim cursor), and the caller's final read is ordered after all
// participant writes by the pool latch, so sharing the array is sound for any
// `R` the results themselves allow crossing threads (`R: Send`).
#[allow(unsafe_code)]
unsafe impl<R: Send> Sync for ParticipantSlots<R> {}

impl<R> ParticipantSlots<R> {
    fn new(participants: usize) -> Self {
        let mut buckets = Vec::with_capacity(participants);
        buckets.resize_with(participants, || UnsafeCell::new(Vec::new()));
        Self { buckets }
    }

    /// Raw pointer to bucket `pid` (also keeps closures capturing the whole
    /// `Sync` wrapper rather than disjointly capturing the inner vector).
    ///
    /// SAFETY (caller): dereference only while `pid` is this thread's
    /// uniquely claimed participant index.
    fn bucket(&self, pid: usize) -> *mut Vec<(usize, R)> {
        self.buckets[pid].get()
    }
}

/// [`par_map`] dispatched through the persistent pool: the caller and
/// `threads - 1` pool workers drain a shared atomic cursor, each pushing its
/// `(index, result)` pairs into its own slot of a per-participant array —
/// the merge into the output vector happens on the caller alone, after the
/// fan-out's latch, so no participant ever takes a lock for its results.
/// Slot `i` of the output always ends up holding `f(i, &items[i])`.
fn pool_par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let extra = threads - 1;
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // One bucket per possible participant: `extra` tickets plus the caller.
    // (A ticket the caller reclaims unexecuted claims no bucket.)
    let participant = AtomicUsize::new(0);
    let slots: ParticipantSlots<R> = ParticipantSlots::new(extra + 1);
    // Panics are the cold path; a mutex on the payload slot is fine.
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let body = || {
        let pid = participant.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `pid` is unique per body execution and at most
        // `extra + 1` executions exist (one per dispatched ticket plus the
        // caller), so this is the only live reference to bucket `pid`; the
        // caller merges the buckets only after `Pool::run` returns.
        #[allow(unsafe_code)]
        let local = unsafe { &mut *slots.bucket(pid) };
        // Catch panics *inside* the job so the executing pool worker (or the
        // caller mid-dispatch) never unwinds through pool machinery; the
        // first payload is re-raised on the caller below.
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }));
        if let Err(payload) = outcome {
            abort.store(true, Ordering::Relaxed);
            let mut slot = panic_payload.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    };
    pool::get().run(&body, extra);

    if let Some(payload) = panic_payload.into_inner().unwrap() {
        std::panic::resume_unwind(payload);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for bucket in slots.buckets {
        for (i, r) in bucket.into_inner() {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("par_map filled every slot"))
        .collect()
}

/// The pre-pool implementation of [`par_map`]: spawns `threads` scoped
/// workers per call via [`std::thread::scope`] and joins them before
/// returning.
///
/// Kept public on purpose: it is the *reference baseline* of the determinism
/// contract — the pool path must produce bitwise-identical output (property
/// tests cross-check the two) — and the unit of comparison for the
/// dispatch-overhead benches that justify the minimum-work gate values in
/// `rm_imputers::gates`. Pipeline code should call [`par_map`].
///
/// # Panics
/// Propagates panics from `f` with their original payload.
pub fn par_map_scoped<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match parallel_width(threads, items.len()) {
        None => items.iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        Some(threads) => scoped_par_map(threads, items, f),
    }
}

/// Scoped-spawn fan-out over an already-resolved thread count (`threads ≥ 2`).
fn scoped_par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // Re-raise worker panics with their original payload so assertion
            // messages from inside fan-outs stay diagnosable.
            let local = match handle.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, r) in local {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|r| r.expect("par_map filled every slot"))
        .collect()
}

/// Order-preserving parallel map over fixed-size chunks of a slice.
///
/// The slice is split into consecutive chunks of `chunk_size` (the last chunk
/// may be shorter) and `f(chunk_index, chunk)` is applied to each via
/// [`par_map`]. Because the chunk boundaries depend only on `chunk_size` —
/// never on the thread count — reductions that combine the per-chunk results
/// in order are bit-identical at any parallelism level.
pub fn par_chunks<T, R, F>(threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk_size.max(1)).collect();
    par_map(threads, &chunks, |i, chunk| f(i, chunk))
}

/// Convenience: [`par_map`] over an index range `0..n` (for loops that index
/// into shared state instead of iterating a slice).
pub fn par_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(threads, &indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(4, &items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out, (0..1000).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_is_identical_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &v: &u64| derive_seed(v, i as u64);
        let serial = par_map(1, &items, f);
        for threads in [2, 3, 8] {
            assert_eq!(par_map(threads, &items, f), serial);
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map(8, &[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn par_chunks_boundaries_do_not_depend_on_threads() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let sums = |threads| par_chunks(threads, &items, 7, |_, c| c.iter().sum::<f64>());
        let serial = sums(1);
        assert_eq!(serial.len(), 100usize.div_ceil(7));
        for threads in [2, 5] {
            // Bitwise equality: same chunks, same per-chunk summation order.
            let parallel = sums(threads);
            assert!(serial
                .iter()
                .zip(parallel.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn par_indices_covers_the_range() {
        assert_eq!(par_indices(3, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn nested_par_map_degrades_to_serial() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(4, &outer, |_, &i| {
            assert!(in_worker());
            let inner: Vec<usize> = (0..8).collect();
            // Runs serially (no nested spawn) but must produce the same result.
            par_map(4, &inner, |_, &j| i * 10 + j)
        });
        assert_eq!(out[2], vec![20, 21, 22, 23, 24, 25, 26, 27]);
        assert!(!in_worker());
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(2023, 0), derive_seed(2023, 0));
        assert_ne!(derive_seed(2023, 0), derive_seed(2023, 1));
        assert_ne!(derive_seed(2023, 1), derive_seed(2024, 1));
        // Low bits should differ between adjacent streams (not a lattice).
        let a = derive_seed(1, 1) & 0xFFFF;
        let b = derive_seed(1, 2) & 0xFFFF;
        assert_ne!(a, b);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_payload() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(2, &items, |_, &v| {
            if v == 63 {
                panic!("boom");
            }
            v
        });
    }
}
