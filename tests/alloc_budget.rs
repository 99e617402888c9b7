//! An allocation budget for the steady request path, so that an
//! allocation regression fails `cargo test` and not only the benchmark.
//!
//! The test binary installs a counting global allocator of its own (the
//! library crates keep `forbid(unsafe_code)`; this file is the one place
//! outside `perf/` that needs `unsafe`, for the `GlobalAlloc` impl). It
//! runs the shape of perf's `active_small` workload — four processors,
//! an active(2) `CounterServant`, a `StreamingClient` with sixteen
//! invocations in flight — and counts allocator calls per reply once the
//! stream is warm. The count is exact and repeats: the simulation is
//! deterministic and nothing else allocates on the measuring thread.

use eternal::app::{CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this
    /// thread. `const`-initialised and without a destructor, so reading
    /// it from inside the allocator allocates nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter any more; it is not the
    // one being measured.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Replies delivered before counting starts: handshakes done, short
/// keys negotiated, maps and queues at their working size.
const WARM_UP: u64 = 200;
/// Replies counted.
const MEASURED: u64 = 1_000;

/// Allocator calls per reply measured when this budget was set (ISSUE
/// 24, EXPERIMENTS.md P5): 21.97, against 22.34 at the parent commit —
/// what left is the B-tree nodes of Totem's retransmission store, now a
/// window whose deque stops growing once it spans a rotation.
/// One request is twelve deliveries — its own at four processors and
/// two reply copies at each — and none of them copies the body any
/// more. What is left, per reply (P4's call-site table): 6 for the
/// three multicasts (request, two reply copies: one exactly-sized
/// payload and its reference count each); 3 `Vec<Out>`, one per
/// delivery that asks something of the driver; 4 in the two server
/// ORBs (the servant's result and the encoded reply, twice); 5 at the
/// client (the application's invocation and its name, the
/// outstanding-call record, the encoded request, the reply body handed
/// to the application); ≈ 3.9 in Totem (action and batch vectors,
/// frame clones, the network model's delivery list).
const MEASURED_AT_ISSUE_24: f64 = 21.97;

#[test]
fn steady_state_allocations_per_reply_stay_within_budget() {
    let config = ClusterConfig {
        trace: false,
        ..ClusterConfig::default()
    };
    assert_eq!(config.processors, 4);
    let mut cluster = Cluster::new(config, 42);
    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let client = cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 16))
    });
    let client_node = cluster.hosting(client)[0];
    cluster.run_until_deployed();
    let replies = |cluster: &Cluster| cluster.mechanisms(client_node).counters().replies_delivered;
    while replies(&cluster) < WARM_UP {
        assert!(cluster.step(), "the stream ran dry");
    }
    let (replies_before, calls_before) = (replies(&cluster), CALLS.get());
    while replies(&cluster) < WARM_UP + MEASURED {
        assert!(cluster.step(), "the stream ran dry");
    }
    let calls = CALLS.get() - calls_before;
    let per_reply = calls as f64 / (replies(&cluster) - replies_before) as f64;
    let budget = MEASURED_AT_ISSUE_24 * 1.10;
    assert!(
        per_reply <= budget,
        "{per_reply:.2} allocator calls per reply in steady state, over the budget of \
         {budget:.2} ({MEASURED_AT_ISSUE_24} measured + 10 %): find the new allocation \
         with perf's `allocs_per_req` and the per-site table of EXPERIMENTS.md P4"
    );
    println!("{per_reply:.2} allocator calls per reply ({calls} calls)");
}
