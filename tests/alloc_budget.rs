//! Allocation budgets for the steady request path, so that an
//! allocation regression fails `cargo test` and not only the benchmark.
//!
//! The test binary installs a counting global allocator of its own (the
//! library crates keep `forbid(unsafe_code)`; this file is the one place
//! outside `perf/` that needs `unsafe`, for the `GlobalAlloc` impl). It
//! runs the shapes of two of perf's workloads — four processors, an
//! active(2) server and a client with invocations in flight: tiny
//! `increment`s (`active_small`) and 2–32 kB `put`s that travel as
//! many Totem frames (`active_frag`) — and of `get`s of 2–32 kB values,
//! whose large replies come in two copies, and counts allocator calls
//! and the bytes they ask for per reply once the stream is warm. A
//! fourth shape is a third workload's, `recovery_350kb`: a replica
//! killed and recovered by a state transfer, and the bytes asked for in
//! between counted in states' worth. A fifth is `passive_failover`'s: a
//! warm-passive group checkpointed again and again, the bytes asked for
//! counted in states' worth per checkpoint. The counts are exact and
//! repeat: the simulation is deterministic and nothing else allocates
//! on the measuring thread. A last case holds the metrics registry to
//! its rule that a name is copied only when its metric is created.

use eternal::app::{
    AppInvocation, BlobServant, ClientApp, CounterServant, KvStoreServant, StreamingClient,
};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::mechanisms::ReplicaPhase;
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::Any;
use eternal_giop::ReplyStatus;
use eternal_obs::MetricsRegistry;
use eternal_sim::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this
    /// thread. `const`-initialised and without a destructor, so reading
    /// it from inside the allocator allocates nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a realloc's new size, as in perf's
    /// `alloc_kb_per_req`).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter any more; it is not the
    // one being measured.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|sum| sum.set(sum.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
/// this budget was last set (EXPERIMENTS.md P8): 15.40. It was 21.97
/// before P6 lent Totem's per-event action vector, the network model's
/// per-frame delivery list and the per-delivery out-list, and 16.41
/// before P8 lent the reply body to the application.
/// One request is twelve deliveries — its own at four processors and
/// two reply copies at each — and none of them copies the body. What is
/// left, per reply: 6 for the three multicasts (request, two reply
/// copies: one exactly-sized payload and its reference count each); 4
/// in the two server ORBs (the servant's result and the encoded reply,
/// twice); 4 at the client (the application's invocation and its name,
/// the outstanding-call record, the encoded request; the client ORB
/// lends the reply body to the application instead of copying it);
/// ≈ 1.4 in Totem (batch vectors and the frame clones scheduled per
/// destination).
const SMALL_CALLS: f64 = 15.40;

/// The same on the fragmented shape: 23.36. It was 28.36 before P12,
/// which holds a body in several fragments by reference to its frames
/// instead of reassembling it at every processor (one list of pieces,
/// lent, in place of the buffer) and cuts a multicast's frames without
/// listing them; 94.46 before P6,
/// nearly two thirds of which were the per-event action vectors and
/// per-frame delivery lists of a request's ≈ 15 frames at four
/// processors, and 31.61 before P8, which cut each multicast's body
/// straight into its frames instead of encoding it first, sized the
/// `put` arguments exactly instead of regrowing them, and lent the
/// reply body.
const FRAG_CALLS: f64 = 23.36;

/// The kB those calls ask for per reply on the fragmented shape: 69.06,
/// against 114.89 before P12 and 151.26 before P8. Each byte of a
/// `put`'s value is now written once per hop, and only where the hop
/// reads it: the value, its arguments, the GIOP request, the frames,
/// the body gathered at the two processors that host a server replica
/// (for their ORBs; the two others read none of it) and the value each
/// of the two servants keeps.
const FRAG_KB: f64 = 69.06;

/// Steady-state allocator calls and kB asked for per reply of a
/// four-processor cluster running `server` as an active(2) group under
/// `client`.
fn allocations_per_reply(
    server: impl Fn() -> Box<dyn eternal_orb::servant::CheckpointableServant> + Send + Sync + 'static,
    client: impl Fn(GroupId) -> Box<dyn ClientApp> + Send + Sync + 'static,
) -> (f64, f64) {
    let config = ClusterConfig::default();
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
    let before = (replies(&cluster), CALLS.get(), BYTES.get());
    while replies(&cluster) < WARM_UP + MEASURED {
        assert!(cluster.step(), "the stream ran dry");
    }
    let per_reply = (replies(&cluster) - before.0) as f64;
    let calls = (CALLS.get() - before.1) as f64 / per_reply;
    let kb = (BYTES.get() - before.2) as f64 / 1024.0 / per_reply;
    println!("{calls:.2} allocator calls asking for {kb:.2} kB per reply");
    (calls, kb)
}

fn assert_within_budget(shape: &str, value: f64, measured: f64, what: &str) {
    let budget = measured * 1.10;
    assert!(
        value <= budget,
        "{shape}: {value:.2} {what}, over the budget of {budget:.2} ({measured} measured \
         + 10 %): find the new allocation with perf's `allocs_per_req`/`alloc_kb_per_req` \
         and `scripts/profile.sh <workload> 10 alloc` (or `bytes`)"
    );
}

#[test]
fn steady_state_allocations_per_reply_stay_within_budget() {
    let (calls, _) = allocations_per_reply(
        || Box::new(CounterServant::default()),
        |server| Box::new(StreamingClient::new(server, "increment", 16)),
    );
    let what = "allocator calls per reply in steady state";
    assert_within_budget("active_small shape", calls, SMALL_CALLS, what);
}

/// `put`s of 2–32 kB (a log-uniform ladder of sizes, as in perf's
/// `active_frag`) over eight keys, eight in flight.
struct Putter {
    server: GroupId,
    sent: u64,
}

/// The `n`-th value of the ladder: 2–32 kB, log-uniform over 13 rungs.
fn ladder_value(n: u64) -> String {
    let size = (2_048.0 * 16f64.powf((n % 13) as f64 / 12.0)) as usize;
    (0..size).map(|i| (b'a' + (i % 26) as u8) as char).collect()
}

impl Putter {
    fn next(&mut self) -> AppInvocation {
        let value = ladder_value(self.sent);
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
    let (calls, kb) = allocations_per_reply(
        || Box::new(KvStoreServant::default()),
        |server| Box::new(Putter { server, sent: 0 }),
    );
    let what = "allocator calls per reply in steady state";
    assert_within_budget("fragmented puts", calls, FRAG_CALLS, what);
    let what = "kB asked for per reply in steady state";
    assert_within_budget("fragmented puts", kb, FRAG_KB, what);
}

/// `get`s over eight keys whose values are 2–32 kB (the ladder's
/// first eight rungs, each `put` once first), eight in flight: large
/// replies, in two copies, one from each server replica.
struct Getter {
    server: GroupId,
    sent: u64,
}

impl Getter {
    fn next(&mut self) -> AppInvocation {
        let key = format!("key-{}", self.sent % 8);
        let (operation, args) = match self.sent < 8 {
            true => (
                "put",
                KvStoreServant::put_args(&key, &ladder_value(self.sent)),
            ),
            false => ("get", KvStoreServant::key_args(&key)),
        };
        self.sent += 1;
        AppInvocation {
            server: self.server,
            operation: operation.to_owned(),
            args,
            response_expected: true,
        }
    }
}

impl ClientApp for Getter {
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

/// The kB asked for per reply on the get-heavy shape: 31.81, against
/// 73.42 before P12, when every processor reassembled both copies of
/// every reply. A reply's value is written by the servant, the reply's encoding and
/// its frames at each of the two server replicas; the client's host
/// gathers the first copy into a buffer it lends the ORB and reads the
/// second copy not at all (duplicate suppression decides it from the
/// head), and the two processors that host neither group gather
/// nothing.
const GET_KB: f64 = 31.81;

#[test]
fn fragmented_replies_ask_for_their_bytes_within_budget() {
    let (_, kb) = allocations_per_reply(
        || Box::new(KvStoreServant::default()),
        |server| Box::new(Getter { server, sent: 0 }),
    );
    let what = "kB asked for per reply in steady state";
    assert_within_budget("fragmented gets", kb, GET_KB, what);
}

/// Application state of the transfer shape's servant: large enough
/// that its copies, not the requests served beside the transfer, set
/// the count.
const STATE_BYTES: usize = 128 * 1024;

/// Bytes asked for from a replica's kill until redundancy is restored
/// on the transfer shape, in states' worth: 8.08 (8.0760 before P12,
/// 8.0766 after: the lists of pieces at the four processors, lent from
/// then on, ask for what the donor's lists of frames no longer do). It
/// was 10.86 before P11, which cuts the donor's chunks straight
/// from the parts of its capture instead of from a retained copy of the
/// whole encoding, and wrote each chunk's fragments into the recovering
/// replica's inbound buffer instead of reassembling the chunk first (a
/// chunk's pieces are appended there at its delivery since P12); and
/// 17.36 before P9, which reassembles a chunk's body at the recovering
/// replica's host alone (not at all four processors), reserves that
/// replica's inbound buffer once for the whole stream instead of
/// doubling it, and lends it the application state for `set_state`
/// instead of copying it out (docs/RECOVERY.md, "Copies of the state").
const TRANSFER_STATES: f64 = 8.08;

/// An active(2) group of `BlobServant`s on four processors, streaming
/// `touch`es four at a time, loses a replica; the replacement is
/// launched and recovered by a chunked state transfer while the stream
/// goes on. Counts what is asked for from the kill until both replicas
/// are operational again.
#[test]
fn a_state_transfer_asks_for_its_states_worth_within_budget() {
    let mut cluster = Cluster::new(ClusterConfig::default(), 42);
    let server = cluster.deploy_server("server", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(STATE_BYTES))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(10));
    let operational = |cluster: &Cluster| {
        let phase = |n| cluster.mechanisms(n).replica_phase(server);
        let processors = cluster.processors().into_iter();
        processors
            .filter(|&n| phase(n) == Some(ReplicaPhase::Operational))
            .count()
    };
    assert_eq!(operational(&cluster), 2);
    let before = BYTES.get();
    cluster.kill_replica(server, cluster.hosting(server)[0]);
    while cluster.recovery_in_flight() || operational(&cluster) < 2 {
        assert!(cluster.step(), "the recovery ran dry");
    }
    let states = (BYTES.get() - before) as f64 / STATE_BYTES as f64;
    println!("{states:.2} states' worth of bytes asked for");
    let what = "states' worth of bytes asked for by a recovery";
    assert_within_budget("state transfer", states, TRANSFER_STATES, what);
}

/// Bytes asked for per checkpoint on the checkpoint shape, in states'
/// worth: 7.18 (7.22 before P12, 7.23 before P11). It was 15.11 before
/// P10, which keeps
/// a checkpoint's application state only at the two hosts that log it
/// (not at all four processors), logs it as received instead of
/// decoding a copy and re-encoding it, and lends it to the warm
/// backup's `set_state` (docs/RECOVERY.md, "Copies of a checkpoint").
/// Of the 7.18, 2.2 are the two logged bodies; the rest is the primary's
/// capture and frames (4: the `Any`, its encoding, the assignment's
/// encoding, its frames) and the warm backup's `set_state` decoding its
/// `Any` (1).
const CHECKPOINT_STATES: f64 = 7.18;

/// Checkpoints the checkpoint shape takes before counting starts, and
/// counts.
const CHECKPOINTS: (u64, u64) = (4, 32);

/// A warm-passive(2) group of `BlobServant`s on four processors,
/// checkpointed every 10 ms while streaming `touch`es four at a time.
/// Counts what is asked for over [`CHECKPOINTS`]' second number of
/// checkpoints, once the first number are logged.
#[test]
fn a_checkpoint_asks_for_its_states_worth_within_budget() {
    let mut cluster = Cluster::new(ClusterConfig::default(), 42);
    let props = FaultToleranceProperties::warm_passive(2)
        .with_checkpoint_interval(Duration::from_millis(10));
    let server = cluster.deploy_server("server", props, || {
        Box::new(BlobServant::with_size(STATE_BYTES))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    cluster.run_until_deployed();
    let primary = cluster.hosting(server)[0];
    let taken = |cluster: &Cluster| cluster.mechanisms(primary).checkpoints_taken(server);
    let (warm_up, counted) = CHECKPOINTS;
    while taken(&cluster) < warm_up {
        assert!(cluster.step(), "the stream ran dry");
    }
    let before = BYTES.get();
    while taken(&cluster) < warm_up + counted {
        assert!(cluster.step(), "the stream ran dry");
    }
    let states = (BYTES.get() - before) as f64 / STATE_BYTES as f64 / counted as f64;
    println!("{states:.2} states' worth of bytes asked for per checkpoint");
    let what = "states' worth of bytes asked for per checkpoint";
    assert_within_budget("checkpoint", states, CHECKPOINT_STATES, what);
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
