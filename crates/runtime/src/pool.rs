//! The persistent worker pool behind [`par_map`](crate::par_map).
//!
//! PR 2's runtime spawned scoped threads on every fan-out, which costs tens
//! of microseconds per worker per call — cheap for grid cells, ruinous for
//! the fine-grained fan-outs (MICE predictor scans, per-row predictions,
//! sequence reversals) that had to hide behind conservative minimum-work
//! gates. This module replaces the per-call spawn with a lazily-initialized,
//! process-lifetime pool: workers park on a condition variable and are handed
//! *tickets* — type-erased pointers to a job living on the dispatching
//! caller's stack — so a dispatch is one queue push plus a wakeup instead of
//! a thread spawn.
//!
//! # Determinism
//!
//! The pool changes *where* closures run, never *what* they compute: the
//! caller still owns the output slots, every item's result lands in its input
//! slot, and nested fan-outs still degrade to serial (workers are permanently
//! flagged via [`in_worker`](crate::in_worker), and the dispatching caller is
//! flagged while it participates). `par_map` through the pool is bit-identical
//! to the scoped implementation ([`par_map_scoped`](crate::par_map_scoped)),
//! which is kept as the reference baseline and cross-checked by property
//! tests.
//!
//! # Lifecycle and safety
//!
//! * **Init** — the pool is created on the first parallel dispatch; no
//!   threads exist until then (fully serial programs never pay for it).
//! * **Sizing** — workers are spawned on demand up to `requested - 1` per
//!   call (the caller is always the remaining participant), capped at
//!   [`MAX_WORKERS`]; the pool grows monotonically and never shrinks, so a
//!   process that once fanned out 8-wide keeps 7 parked workers (a few KiB of
//!   stack each).
//! * **Job lifetime** — a ticket borrows the job from the caller's stack.
//!   The caller blocks on a heap-allocated `Latch` until every ticket has
//!   finished executing, so the borrow can never dangle; the latch is
//!   reference-counted precisely so that a finishing worker touches only the
//!   latch — never the (about-to-be-freed) job — after its final count-down.
//!   Once the caller has drained the whole job itself it *reclaims* its
//!   still-queued tickets, so one fan-out never waits behind an unrelated
//!   concurrent fan-out's work just to have a no-op ticket popped.
//! * **Panics** — job bodies catch their own panics and re-raise them on the
//!   caller (see `pool_par_map` in the crate root), so a panicking closure
//!   never kills a worker: the pool survives and later fan-outs reuse it.
//! * **Shutdown** — none. Workers park forever and die with the process,
//!   exactly like the threads of a global async runtime.
//!
//! Set `RM_POOL=0` (or `off`/`scoped`) to disable the pool and route every
//! fan-out through the scoped-spawn implementation — useful for A/B
//! measurements and as an escape hatch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool size: far above any sensible `RM_THREADS`, low enough
/// that a buggy caller requesting `usize::MAX` threads cannot fork-bomb the
/// process.
pub const MAX_WORKERS: usize = 256;

/// A count-down latch: the caller waits until every dispatched ticket has
/// finished. Heap-allocated behind an [`Arc`] so the *last* action a worker
/// performs on shared state is on memory that is guaranteed to outlive it —
/// the job itself (on the caller's stack) is only ever touched strictly
/// before the count-down.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Self {
            pending: Mutex::new(pending),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending != 0 {
            pending = self.done.wait(pending).unwrap();
        }
    }
}

/// A type-erased invitation to participate in one fan-out: `run(data)` makes
/// the executing worker drain the job's shared work queue. `data` points at a
/// closure on the dispatching caller's stack; the latch keeps that frame
/// alive until every ticket has run.
struct Ticket {
    data: *const (),
    // SAFETY: the function is only ever `run_ticket::<B>` for the `B` that
    // `data` points to (both are set together in `Pool::run`), so the cast
    // inside can never type-pun.
    run: unsafe fn(*const ()),
    latch: Arc<Latch>,
}

// SAFETY: `data` is only dereferenced by `run` while the dispatching caller
// blocks on `latch` (the caller's stack frame outlives every ticket), and the
// pointed-to closure is `Sync` (enforced by `Pool::run`'s bound), so sharing
// the pointer across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Ticket {}

/// Runs the job closure a ticket points to. Monomorphised per job type so the
/// pool itself stays object-code small and allocation-free on dispatch.
///
/// SAFETY (caller): `data` must point to a live `B` shared via `Pool::run`.
#[allow(unsafe_code)]
unsafe fn run_ticket<B: Fn() + Sync>(data: *const ()) {
    // SAFETY: per this function's contract, `data` points to a live `B` on
    // the dispatching caller's stack, kept alive by the ticket's latch.
    unsafe { (*data.cast::<B>())() };
}

/// Cumulative pool counters, exposed for the stress suite (leak detection)
/// and the overhead benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned so far (monotonic; the pool never shrinks).
    pub workers: usize,
    /// Fan-outs dispatched through the pool so far.
    pub dispatches: u64,
    /// Tickets handed to workers so far (one per extra participant per
    /// dispatch).
    pub tickets: u64,
    /// Tickets reclaimed unexecuted by their caller (the caller drained the
    /// whole job before any worker popped them — common under contention).
    pub tickets_reclaimed: u64,
}

pub(crate) struct Pool {
    queue: Mutex<VecDeque<Ticket>>,
    available: Condvar,
    /// Number of spawned workers; also the lock serialising spawns.
    spawned: Mutex<usize>,
    dispatches: AtomicU64,
    tickets: AtomicU64,
    tickets_reclaimed: AtomicU64,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Whether fan-outs go through the persistent pool (default) or the scoped
/// reference implementation (`RM_POOL=0`/`off`/`scoped`). Resolved once per
/// process, like `RM_THREADS`.
pub fn pool_enabled() -> bool {
    enabled()
}

#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub(crate) fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_POOL
            std::env::var("RM_POOL").as_deref(),
            Ok("0") | Ok("off") | Ok("scoped")
        )
    })
}

/// The process-wide pool, created on first use.
pub(crate) fn get() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
        dispatches: AtomicU64::new(0),
        tickets: AtomicU64::new(0),
        tickets_reclaimed: AtomicU64::new(0),
    })
}

/// Current pool counters (zeros if no fan-out has dispatched yet).
pub fn pool_stats() -> PoolStats {
    match POOL.get() {
        Some(pool) => PoolStats {
            workers: *pool.spawned.lock().unwrap(),
            dispatches: pool.dispatches.load(Ordering::Relaxed),
            tickets: pool.tickets.load(Ordering::Relaxed),
            tickets_reclaimed: pool.tickets_reclaimed.load(Ordering::Relaxed),
        },
        None => PoolStats {
            workers: 0,
            dispatches: 0,
            tickets: 0,
            tickets_reclaimed: 0,
        },
    }
}

impl Pool {
    /// Makes at least `target` workers exist (capped at [`MAX_WORKERS`]) and
    /// returns how many actually do. Spawn failures are swallowed: the
    /// fan-out still completes because the caller participates, dispatches
    /// only as many tickets as there are workers to pop them, and reclaims
    /// any ticket still queued once it runs out of work (a ticket is an
    /// *invitation*, not a work assignment).
    fn ensure_workers(&'static self, target: usize) -> usize {
        let target = target.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < target {
            let name = format!("rm-pool-{}", *spawned);
            let builder = std::thread::Builder::new().name(name);
            if builder.spawn(move || self.worker_loop()).is_err() {
                break;
            }
            *spawned += 1;
        }
        *spawned
    }

    fn worker_loop(&self) {
        // Workers are permanently "in a worker": nested fan-outs inside jobs
        // degrade to serial instead of re-entering the pool (which both
        // bounds the thread count and makes worker-side deadlock impossible
        // — a worker never blocks on another job).
        crate::IN_WORKER.with(|w| w.set(true));
        loop {
            let ticket = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(ticket) = queue.pop_front() {
                        break ticket;
                    }
                    queue = self.available.wait(queue).unwrap();
                }
            };
            // SAFETY: the dispatching caller blocks on this ticket's latch,
            // so the job behind `data` is alive for the whole call; the
            // count-down below strictly follows it.
            #[allow(unsafe_code)]
            unsafe {
                (ticket.run)(ticket.data)
            };
            ticket.latch.count_down();
        }
    }

    /// Runs `body` on `1 + extra` participants: `extra` pool workers are
    /// invited via tickets and the caller itself participates (flagged as a
    /// worker so nested fan-outs degrade to serial). Returns only once every
    /// ticket has finished, so `body` may freely borrow from the caller's
    /// stack. `body` must not unwind — wrap panicky work in `catch_unwind`
    /// (as `pool_par_map` does) so a worker executing the ticket survives.
    pub(crate) fn run<B: Fn() + Sync>(&'static self, body: &B, extra: usize) {
        // Never dispatch more tickets than there are workers to pop them: if
        // thread creation fails entirely (RLIMIT_NPROC exhaustion and the
        // like), `extra` clamps to 0 and the call is simply the caller
        // running `body` serially — no orphaned tickets, no latch deadlock.
        let extra = extra.min(self.ensure_workers(extra));
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.tickets.fetch_add(extra as u64, Ordering::Relaxed);

        let latch = Arc::new(Latch::new(extra));
        if extra > 0 {
            let mut queue = self.queue.lock().unwrap();
            for _ in 0..extra {
                queue.push_back(Ticket {
                    data: (body as *const B).cast::<()>(),
                    run: run_ticket::<B>,
                    latch: Arc::clone(&latch),
                });
            }
            drop(queue);
            self.available.notify_all();
        }

        // Wait for every ticket even if `body` unwinds (it should not — see
        // the doc contract — but a dangling ticket would be use-after-free,
        // so the guard makes the wait unconditional).
        struct WaitGuard<'a>(&'a Latch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let guard = WaitGuard(&latch);

        // Restore the caller's worker flag even if `body` unwinds — a
        // permanently-flagged caller thread would silently serialise every
        // later fan-out it dispatches.
        struct WorkerFlagGuard(bool);
        impl Drop for WorkerFlagGuard {
            fn drop(&mut self) {
                crate::IN_WORKER.with(|w| w.set(self.0));
            }
        }
        {
            let _flag = WorkerFlagGuard(crate::IN_WORKER.with(|w| w.replace(true)));
            body();
        }

        // The caller has drained the work; reclaim any of *this* fan-out's
        // tickets that no worker got around to popping (they would only make
        // an already-finished job re-check an exhausted cursor, while forcing
        // this caller to wait behind unrelated concurrent fan-outs' jobs).
        if extra > 0 {
            let mut queue = self.queue.lock().unwrap();
            let before = queue.len();
            queue.retain(|ticket| !Arc::ptr_eq(&ticket.latch, &latch));
            let reclaimed = before - queue.len();
            drop(queue);
            if reclaimed > 0 {
                self.tickets_reclaimed
                    .fetch_add(reclaimed as u64, Ordering::Relaxed);
                for _ in 0..reclaimed {
                    latch.count_down();
                }
            }
        }

        drop(guard);
    }
}
