//! A thread-local pool of recycled byte buffers.
//!
//! Encode scratch — the buffer a GIOP or Eternal message is encoded
//! into before its bytes are copied into a Totem payload — is needed
//! again by the very next message. Encode paths [`take`] a cleared
//! buffer (reusing a previously recycled allocation when one is
//! available) and [`recycle`] it once its bytes have been consumed.
//! Decoded values are never pooled: whoever decodes a byte sequence
//! keeps it for as long as it likes.
//!
//! The pool is deliberately simple and fully deterministic: a LIFO
//! stack of at most [`MAX_POOLED`] buffers, each retained only if its
//! capacity is at most [`MAX_RETAINED_CAPACITY`] (so one 350 kB state
//! transfer does not pin megabytes forever). [`PoolStats`] counts
//! takes/reuses/fresh allocations exactly and reproducibly; the
//! benchmark (`perf/`) reads them beside its counting allocator.

use std::cell::RefCell;

/// Maximum number of buffers retained in the pool.
pub const MAX_POOLED: usize = 64;

/// Maximum capacity (in bytes) of a buffer the pool will retain.
pub const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// Exact, deterministic allocation accounting for the thread's pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out by [`take`].
    pub takes: u64,
    /// Takes served by a fresh heap allocation (pool was empty).
    pub fresh: u64,
    /// Takes served by reusing a recycled buffer.
    pub reused: u64,
    /// Buffers accepted back by [`recycle`].
    pub recycled: u64,
    /// Buffers offered to [`recycle`] but dropped (pool full, buffer
    /// oversized, or buffer never allocated).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct PoolInner {
    bufs: Vec<Vec<u8>>,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<PoolInner> = RefCell::new(PoolInner::default());
}

/// Takes a cleared buffer from the pool, or allocates a fresh one.
pub fn take() -> Vec<u8> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.takes += 1;
        match p.bufs.pop() {
            Some(mut buf) => {
                p.stats.reused += 1;
                buf.clear();
                buf
            }
            None => {
                p.stats.fresh += 1;
                Vec::new()
            }
        }
    })
}

/// Returns a buffer to the pool for reuse. Buffers with no allocation,
/// buffers larger than [`MAX_RETAINED_CAPACITY`], and buffers arriving
/// while the pool already holds [`MAX_POOLED`] are dropped instead.
pub fn recycle(buf: Vec<u8>) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if buf.capacity() == 0
            || buf.capacity() > MAX_RETAINED_CAPACITY
            || p.bufs.len() >= MAX_POOLED
        {
            p.stats.dropped += 1;
            return;
        }
        p.stats.recycled += 1;
        p.bufs.push(buf);
    });
}

/// A snapshot of this thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Empties the pool and zeroes the counters (call before a measured
/// workload so [`stats`] reflects exactly that workload).
pub fn reset() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.bufs.clear();
        p.stats = PoolStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_the_allocation() {
        reset();
        let mut buf = take();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        recycle(buf);
        let again = take();
        assert!(again.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(again.capacity(), cap, "allocation must be reused");
        let s = stats();
        assert_eq!(s.takes, 2);
        assert_eq!(s.fresh, 1);
        assert_eq!(s.reused, 1);
        assert_eq!(s.recycled, 1);
        reset();
    }

    #[test]
    fn oversized_and_empty_buffers_dropped() {
        reset();
        recycle(Vec::new()); // never allocated
        recycle(Vec::with_capacity(MAX_RETAINED_CAPACITY + 1));
        let s = stats();
        assert_eq!(s.recycled, 0);
        assert_eq!(s.dropped, 2);
        reset();
    }

    #[test]
    fn pool_is_bounded() {
        reset();
        for _ in 0..(MAX_POOLED + 5) {
            recycle(Vec::with_capacity(8));
        }
        let s = stats();
        assert_eq!(s.recycled as usize, MAX_POOLED);
        assert_eq!(s.dropped as usize, 5);
        reset();
    }

    #[test]
    fn reset_clears_pool_and_stats() {
        reset();
        recycle(Vec::with_capacity(8));
        reset();
        assert_eq!(stats(), PoolStats::default());
        let buf = take();
        assert_eq!(buf.capacity(), 0, "pool must be empty after reset");
        assert_eq!(stats().fresh, 1);
        reset();
    }
}
