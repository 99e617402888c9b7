//! A counting global allocator for the `perf` binary only (the library
//! crates keep `forbid(unsafe_code)`): every call and every byte
//! requested is counted, and the benchmark reads the counters before
//! and after a timed region or a probe loop.
//!
//! The benchmark is one process with one thread, so the counters are
//! bumped with a relaxed load and a relaxed store, not a locked
//! read-modify-write: at ~110 allocations per request a `lock xadd`
//! pair would itself be several per cent of the time being measured.
//! Were a second thread ever to allocate, an update could be lost — a
//! wrong statistic, never undefined behaviour.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// One allocator call asking for `bytes`, of which `grown` are new.
#[inline(always)]
fn count(bytes: usize, grown: usize) {
    CALLS.store(CALLS.load(Relaxed).wrapping_add(1), Relaxed);
    BYTES.store(BYTES.load(Relaxed).wrapping_add(bytes as u64), Relaxed);
    let live = LIVE.load(Relaxed).wrapping_add(grown as u64);
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

#[inline(always)]
fn release(bytes: usize) {
    // Wrapping: a lost update (see above) must not become a panic here.
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes as u64), Relaxed);
}

/// `System`, with `alloc`/`alloc_zeroed`/`realloc` counted and the
/// live-byte high-water mark tracked.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        release(layout.size());
        count(new_size, new_size);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Tells glibc's malloc to keep freed memory in its heap: no `mmap`
/// per large block, no trimming, and a heap that grows 256 MB at a
/// time. Without this, `recovery_350kb` and `active_frag` — which
/// allocate and free tens of megabytes per round — spend up to half
/// their time in page faults, and that share swings by ±20 % from one
/// run to the next on a shared machine (perf/README.md, "Allocator
/// policy"). What the program asks of the allocator stays visible in
/// `allocs_per_req` and `alloc_kb_per_req`.
pub fn keep_freed_memory_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented tuning call; it takes
        // two integers, retains no pointer, and is called once, before
        // the first round, while the process has a single thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 1 << 30);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 256 << 20);
        }
    }
}

/// Starts a new high-water mark at the bytes live now, and returns
/// them: a round's own demand for heap is its peak minus this.
pub fn restart_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes that were allocated and not yet freed at any moment
/// since the last [`restart_peak`]: what the program asks for, whatever
/// the allocator and the kernel make of it.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocator calls and bytes requested since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counters now.
    pub fn now() -> Self {
        AllocSnapshot {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Calls and bytes since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
