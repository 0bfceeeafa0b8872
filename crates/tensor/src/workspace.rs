//! Per-thread buffer pools: the arena layer that lets the autodiff graph's
//! hot loops reuse allocation capacity across iterations instead of
//! round-tripping the global allocator. (The tape-trained paths own their
//! buffers outright and do not touch it.)
//!
//! Two pieces:
//!
//! * [`BufferPool`] — a size-classed free list of raw `Vec<T>` buffers, one
//!   per thread per precision (reached through the sealed
//!   [`Scalar`] trait, so each pool worker owns its arena and
//!   no synchronisation is ever needed). Every [`Matrix`](crate::Matrix)
//!   constructor checks buffers out of it and every dropped matrix returns
//!   its buffer to it.
//! * The `RM_ARENA` escape hatch — `RM_ARENA=0` (or `off`) disables all
//!   reuse and restores the fresh-allocation path, the bitwise-checked
//!   reference baseline (same pattern as `RM_POOL=0`).
//!
//! Reuse is **capacity-only**: a checked-out buffer is always fully
//! re-initialised before use, so values are bitwise identical whether they
//! land in a recycled buffer or a fresh one. The determinism suite and the
//! `RM_THREADS=1/2/N` contract are unaffected by construction.

use std::sync::OnceLock;

use crate::scalar::Scalar;

/// Element budget per size class: class `c` keeps roughly
/// `PER_CLASS_ELEMENT_BUDGET >> c` buffers, so small classes can absorb an
/// entire training graph's worth of vectors (an unrolled recurrent step
/// returns hundreds of `hidden × 1` buffers at once when its graph is
/// recycled) while huge classes park only a handful. Overflow is returned to
/// the global allocator so a one-off fan-out cannot pin memory forever.
const PER_CLASS_ELEMENT_BUDGET: usize = 1 << 16;

/// Bounds on the per-class buffer count derived from the element budget.
const PER_CLASS_MIN: usize = 4;
const PER_CLASS_MAX: usize = 4096;

/// Number of power-of-two size classes (class `c` holds buffers of capacity
/// at least `1 << c`); 48 classes cover any buffer this workspace can hold.
const CLASS_COUNT: usize = 48;

static ARENA_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the arena layer is active (default) or disabled via `RM_ARENA=0`
/// (or `off`), which restores the fresh-allocation reference path. Resolved
/// once per process, like `RM_THREADS` and `RM_POOL`.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn arena_enabled() -> bool {
    *ARENA_ENABLED.get_or_init(|| {
        !matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_ARENA
            std::env::var("RM_ARENA").as_deref(),
            Ok("0") | Ok("off")
        )
    })
}

/// Reuse counters of a thread's [`BufferPool`] (see [`buffer_pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferPoolStats {
    /// Buffers checked out of this thread's pool.
    pub takes: u64,
    /// Checkouts served from the free lists (the rest hit the allocator).
    pub hits: u64,
}

/// This thread's buffer-pool reuse counters for element type `T` — test and
/// bench introspection, mirroring `rm_runtime::pool_stats`.
pub fn buffer_pool_stats<T: Scalar>() -> BufferPoolStats {
    T::with_buffer_pool(|pool| BufferPoolStats {
        takes: pool.takes,
        hits: pool.hits,
    })
}

/// A per-thread, size-classed free list of raw `Vec<T>` buffers.
///
/// Class `c` holds only buffers with `capacity >= 1 << c`; a checkout of
/// `len` elements pops from class `ceil(log2(len))`, so any pooled buffer it
/// finds is guaranteed large enough. Checked-out buffers are always empty
/// (`len == 0`) — the caller re-initialises every element, which is what
/// keeps reuse capacity-only and values bitwise identical.
pub struct BufferPool<T: Scalar> {
    classes: Vec<Vec<Vec<T>>>,
    takes: u64,
    hits: u64,
}

impl<T: Scalar> Default for BufferPool<T> {
    fn default() -> Self {
        let mut classes = Vec::with_capacity(CLASS_COUNT);
        classes.resize_with(CLASS_COUNT, Vec::new);
        Self {
            classes,
            takes: 0,
            hits: 0,
        }
    }
}

impl<T: Scalar> BufferPool<T> {
    /// Smallest class whose buffers can hold `len` elements (`len >= 1`).
    fn class_for_len(len: usize) -> usize {
        (usize::BITS - (len - 1).leading_zeros()) as usize
    }

    /// How many buffers class `class` may park (budget-scaled, clamped).
    fn class_cap(class: usize) -> usize {
        (PER_CLASS_ELEMENT_BUDGET >> class.min(usize::BITS as usize - 1))
            .clamp(PER_CLASS_MIN, PER_CLASS_MAX)
    }

    /// Checks out an empty buffer with capacity for at least `len` elements,
    /// reusing a pooled one when available.
    pub(crate) fn take(&mut self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        self.takes += 1;
        let class = Self::class_for_len(len);
        if let Some(buf) = self.classes.get_mut(class).and_then(Vec::pop) {
            self.hits += 1;
            debug_assert!(buf.is_empty() && buf.capacity() >= len);
            return buf;
        }
        // Round fresh allocations up to the class size so the buffer slots
        // cleanly back into the same class on return.
        Vec::with_capacity(1usize << class)
    }

    /// Returns a buffer to the pool (cleared; dropped if its class is full).
    pub(crate) fn give(&mut self, mut buf: Vec<T>) {
        let capacity = buf.capacity();
        if capacity == 0 {
            return;
        }
        buf.clear();
        // floor(log2(capacity)): the largest class the buffer satisfies.
        let class = (usize::BITS - 1 - capacity.leading_zeros()) as usize;
        if let Some(slot) = self.classes.get_mut(class) {
            if slot.len() < Self::class_cap(class) {
                slot.push(buf);
            }
        }
    }
}

/// Checks an empty buffer of capacity `>= len` out of this thread's pool, or
/// allocates fresh when the arena layer is disabled (`RM_ARENA=0`).
pub(crate) fn take_buffer<T: Scalar>(len: usize) -> Vec<T> {
    if arena_enabled() {
        T::with_buffer_pool(|pool| pool.take(len))
    } else {
        Vec::with_capacity(len)
    }
}

/// Returns a matrix's backing buffer to this thread's pool; a no-op when the
/// arena layer is disabled (the buffer just drops).
pub(crate) fn give_buffer<T: Scalar>(buf: Vec<T>) {
    if buf.capacity() != 0 && arena_enabled() {
        T::with_buffer_pool(|pool| pool.give(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn buffer_pool_reuses_capacity() {
        let before = buffer_pool_stats::<f64>();
        // Drop a matrix, then build one of the same size: with arenas on the
        // second construction must be served from the pool.
        drop(Matrix::<f64>::zeros(13, 7));
        let m = Matrix::<f64>::zeros(13, 7);
        assert_eq!(m.shape(), (13, 7));
        let after = buffer_pool_stats::<f64>();
        if arena_enabled() {
            assert!(after.takes > before.takes);
            assert!(after.hits > before.hits, "drop → rebuild missed the pool");
        } else {
            assert_eq!(after, before, "RM_ARENA=0 must bypass the pool");
        }
    }

    #[test]
    fn pooled_buffers_are_reinitialised() {
        // Park garbage in the pool, then check out a "zeros" of a smaller
        // shape that will reuse the same class: every element must be zero.
        drop(Matrix::<f64>::filled(8, 8, f64::NAN));
        let z = Matrix::<f64>::zeros(7, 9);
        assert!(z.data().iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        assert!(z.bits_eq(&Matrix::from_vec(7, 9, vec![0.0; 63])));
    }

    #[test]
    fn size_classes_round_trip() {
        let mut pool = BufferPool::<f64>::default();
        let buf = pool.take(100);
        assert!(buf.capacity() >= 100);
        let ptr = buf.as_ptr();
        pool.give(buf);
        // Same class (65..=128) must reuse the identical allocation.
        let again = pool.take(65);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(pool.takes, 2);
        assert_eq!(pool.hits, 1);
    }

    #[test]
    fn zero_length_takes_bypass_the_pool() {
        let mut pool = BufferPool::<f32>::default();
        let buf = pool.take(0);
        assert_eq!(buf.capacity(), 0);
        pool.give(buf);
        assert_eq!(pool.takes, 0);
        assert_eq!(pool.hits, 0);
    }
}
