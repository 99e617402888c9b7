//! Allocation budgets for the steady request path, so that an
//! allocation regression fails `cargo test` and not only the benchmark.
//!
//! The test binary installs a counting global allocator of its own (the
//! library crates keep `forbid(unsafe_code)`; this file is the one place
//! outside `perf/` that needs `unsafe`, for the `GlobalAlloc` impl). It
//! runs the shapes of two of perf's workloads — four processors, an
//! active(2) server and a client with invocations in flight: tiny
//! `increment`s (`active_small`) and 2–32 kB `put`s that travel as
//! many Totem frames (`active_frag`) — and counts allocator calls per
//! reply once the stream is warm. The counts are exact and repeat: the
//! simulation is deterministic and nothing else allocates on the
//! measuring thread. A third case holds the metrics registry to its
//! rule that a name is copied only when its metric is created.

use eternal::app::{AppInvocation, ClientApp, CounterServant, KvStoreServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::Any;
use eternal_giop::ReplyStatus;
use eternal_obs::MetricsRegistry;
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
/// keys negotiated, maps, queues and lent buffers at their working size.
const WARM_UP: u64 = 200;
/// Replies counted.
const MEASURED: u64 = 1_000;

/// Allocator calls per reply on the `active_small` shape, measured when
/// this budget was set (ISSUE 25, EXPERIMENTS.md P6): 16.41, against
/// 21.97 at the parent commit — what left is Totem's per-event action
/// vector, the network model's per-frame delivery list and the
/// per-delivery out-list, all now buffers the driver lends.
/// One request is twelve deliveries — its own at four processors and
/// two reply copies at each — and none of them copies the body. What is
/// left, per reply: 6 for the three multicasts (request, two reply
/// copies: one exactly-sized payload and its reference count each); 4
/// in the two server ORBs (the servant's result and the encoded reply,
/// twice); 5 at the client (the application's invocation and its name,
/// the outstanding-call record, the encoded request, the reply body
/// handed to the application); ≈ 1.4 in Totem (batch vectors and the
/// frame clones scheduled per destination).
const SMALL_AT_ISSUE_25: f64 = 16.41;

/// The same on the fragmented shape: 31.61, against 94.46 at the parent
/// commit, nearly two thirds of which were the per-event action vectors
/// and per-frame delivery lists of a request's ≈ 15 frames at four
/// processors.
const FRAG_AT_ISSUE_25: f64 = 31.61;

/// Steady-state allocator calls per reply of a four-processor cluster
/// running `server` as an active(2) group under `client`.
fn allocations_per_reply(
    server: impl Fn() -> Box<dyn eternal_orb::servant::CheckpointableServant> + Send + Sync + 'static,
    client: impl Fn(GroupId) -> Box<dyn ClientApp> + Send + Sync + 'static,
) -> f64 {
    let config = ClusterConfig {
        trace: false,
        ..ClusterConfig::default()
    };
    assert_eq!(config.processors, 4);
    let mut cluster = Cluster::new(config, 42);
    let server = cluster.deploy_server("server", FaultToleranceProperties::active(2), server);
    let driver = cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        client(server)
    });
    let client_node = cluster.hosting(driver)[0];
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
    calls as f64 / (replies(&cluster) - replies_before) as f64
}

fn assert_within_budget(shape: &str, per_reply: f64, measured: f64) {
    let budget = measured * 1.10;
    assert!(
        per_reply <= budget,
        "{shape}: {per_reply:.2} allocator calls per reply in steady state, over the budget \
         of {budget:.2} ({measured} measured + 10 %): find the new allocation with perf's \
         `allocs_per_req` and `scripts/profile.sh <workload> 10 alloc`"
    );
    println!("{shape}: {per_reply:.2} allocator calls per reply");
}

#[test]
fn steady_state_allocations_per_reply_stay_within_budget() {
    let per_reply = allocations_per_reply(
        || Box::new(CounterServant::default()),
        |server| Box::new(StreamingClient::new(server, "increment", 16)),
    );
    assert_within_budget("active_small shape", per_reply, SMALL_AT_ISSUE_25);
}

/// `put`s of 2–32 kB (a log-uniform ladder of sizes, as in perf's
/// `active_frag`) over eight keys, eight in flight.
struct Putter {
    server: GroupId,
    sent: u64,
}

impl Putter {
    fn next(&mut self) -> AppInvocation {
        let size = (2_048.0 * 16f64.powf((self.sent % 13) as f64 / 12.0)) as usize;
        let value: String = (0..size).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let key = format!("key-{}", self.sent % 8);
        self.sent += 1;
        AppInvocation {
            server: self.server,
            operation: "put".to_owned(),
            args: KvStoreServant::put_args(&key, &value),
            response_expected: true,
        }
    }
}

impl ClientApp for Putter {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        (0..8).map(|_| self.next()).collect()
    }

    fn on_reply(&mut self, _: GroupId, _: &str, _: ReplyStatus, _: &[u8]) -> Vec<AppInvocation> {
        vec![self.next()]
    }

    fn get_state(&self) -> Any {
        Any::from(self.sent as u32)
    }

    fn set_state(&mut self, _: &Any) {}
}

#[test]
fn fragmented_stream_allocations_per_reply_stay_within_budget() {
    let per_reply = allocations_per_reply(
        || Box::new(KvStoreServant::default()),
        |server| Box::new(Putter { server, sent: 0 }),
    );
    assert_within_budget("fragmented puts", per_reply, FRAG_AT_ISSUE_25);
}

/// A metric's name is copied into its key once, when the metric is
/// created; setting a gauge that exists, as counters and histograms are
/// updated, makes no allocator call.
#[test]
fn setting_an_existing_gauge_allocates_nothing() {
    let mut registry = MetricsRegistry::new();
    registry.gauge_set("eternal.holding_depth", 1);
    let before = CALLS.get();
    registry.gauge_set("eternal.holding_depth", 2);
    assert_eq!(CALLS.get() - before, 0, "re-setting a gauge allocated");
    assert_eq!(registry.gauge("eternal.holding_depth"), Some(2));
}
