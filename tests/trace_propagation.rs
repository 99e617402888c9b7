//! Causal tracing must survive every transport-layer transformation.
//!
//! The tracing layer (PAPER.md §4 interceptors + the Totem total
//! order) stamps one span per pipeline hop and derives every link from
//! what each layer already sees: nothing about a trace is on the wire.
//! This file checks the contract that makes those spans trustworthy
//! evidence:
//!
//! - a traced run is the untraced run: same frames, wire bytes, final
//!   simulated time, replies, replica state and promotions;
//! - batching may repack messages into frames but must not change any
//!   trace's shape (`tree_signature` invariant, batching on vs off);
//! - exports are byte-identical across same-seed runs (the CI
//!   trace-smoke job diffs two `repro -- trace` invocations);
//! - a fragmented state transfer stays one causal chain, with one
//!   `totem.pack` span per fragment;
//! - loss-driven retransmission and a membership reformation never
//!   break cluster-wide total-order agreement (`verify_total_order`).

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::metrics::Promotion;
use eternal::properties::FaultToleranceProperties;
use eternal_obs::causal::{CausalRecorder, Hop};
use eternal_sim::{Duration, SimTime};

/// Streams `limit` invocations through a 3-way active counter server,
/// optionally injecting a loss burst mid-stream, and drains
/// completely; returns the cluster and the server group.
fn stream_run(seed: u64, batch_budget: usize, loss: f64, trace: bool) -> (Cluster, GroupId) {
    let mut config = ClusterConfig {
        trace,
        ..ClusterConfig::default()
    };
    config.totem.batch_budget_bytes = batch_budget;
    let mut c = Cluster::new(config, seed);
    let limit: u64 = 40;
    let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    let _driver = c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 6).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));

    if loss > 0.0 {
        c.net_mut().set_loss_probability(loss);
        c.run_for(Duration::from_millis(120));
        c.net_mut().set_loss_probability(0.0);
    }

    let deadline = c.now() + Duration::from_secs(120);
    loop {
        c.run_for(Duration::from_millis(5));
        if c.metrics().replies_delivered >= limit && c.outstanding_calls() == 0 {
            break;
        }
        assert!(
            c.now() < deadline,
            "workload failed to drain (replies={} of {limit})",
            c.metrics().replies_delivered
        );
    }
    c.run_for(Duration::from_millis(50));
    (c, server)
}

/// [`stream_run`] traced, for its recorder.
fn traced_run(seed: u64, batch_budget: usize, loss: f64) -> CausalRecorder {
    stream_run(seed, batch_budget, loss, true)
        .0
        .causal()
        .clone()
}

// ---------------------------------------------------------------------
// Batching invariance and export determinism.
// ---------------------------------------------------------------------

#[test]
fn tree_signature_is_invariant_under_batching() {
    let batched = traced_run(11, ClusterConfig::default().totem.batch_budget_bytes, 0.0);
    let unbatched = traced_run(11, 0, 0.0);
    assert!(!batched.is_empty(), "traced run recorded no spans");
    assert_eq!(
        batched.tree_signature(),
        unbatched.tree_signature(),
        "batching changed a trace's hop/node shape"
    );
    assert!(batched.verify_total_order().is_empty());
    assert!(unbatched.verify_total_order().is_empty());
}

#[test]
fn exports_are_byte_identical_across_same_seed_runs() {
    let a = traced_run(23, ClusterConfig::default().totem.batch_budget_bytes, 0.0);
    let b = traced_run(23, ClusterConfig::default().totem.batch_budget_bytes, 0.0);
    assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    assert_eq!(a.tree_signature(), b.tree_signature());
    assert_eq!(
        a.flight_recorder_json("test"),
        b.flight_recorder_json("test")
    );
}

#[test]
fn invocation_traces_cover_the_full_pipeline() {
    let rec = traced_run(7, ClusterConfig::default().totem.batch_budget_bytes, 0.0);
    // Every invocation trace that was marshalled must have reached the
    // servant and matched its reply — no chain goes dark mid-pipeline.
    for trace_id in rec.trace_ids() {
        let hops: Vec<Hop> = rec
            .events()
            .filter(|e| e.trace_id == trace_id)
            .map(|e| e.hop)
            .collect();
        if hops.contains(&Hop::Marshal) {
            for want in [Hop::Pack, Hop::Deliver, Hop::Dispatch, Hop::ReplyMatch] {
                assert!(
                    hops.contains(&want),
                    "trace {trace_id:x} marshalled but never reached {}",
                    want.code()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Retransmission under loss.
// ---------------------------------------------------------------------

#[test]
fn retransmission_under_loss_preserves_total_order_agreement() {
    let lossy = traced_run(31, ClusterConfig::default().totem.batch_budget_bytes, 0.10);
    assert!(!lossy.is_empty());
    // Retransmitted frames re-send already-packed messages: they must
    // not mint new spans or make processors disagree on order.
    let violations = lossy.verify_total_order();
    assert!(violations.is_empty(), "order violations: {violations:?}");
    let clean = traced_run(31, ClusterConfig::default().totem.batch_budget_bytes, 0.0);
    assert_eq!(
        lossy.tree_signature(),
        clean.tree_signature(),
        "loss-driven retransmission changed a trace's hop/node shape"
    );
}

// ---------------------------------------------------------------------
// Fragmented state transfer and membership reformation.
// ---------------------------------------------------------------------

/// Streams through a 3-way active server whose state spans several
/// frames, crashes one of its hosts (a membership reformation) and
/// drains once recovery has moved the state to the replacement;
/// returns the cluster and the server group.
fn transfer_run(trace: bool) -> (Cluster, GroupId) {
    let config = ClusterConfig {
        trace,
        ..ClusterConfig::default()
    };
    let frame_payload = config.net.frame_payload();
    let blob_len = frame_payload * 3 + 17;
    let mut c = Cluster::new(config, 5);
    let limit: u64 = 60;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(3), move || {
        Box::new(BlobServant::with_size(blob_len))
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 6).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    // Crash a server host (membership reformation) and let recovery
    // move the oversized blob state to the replacement replica.
    let driver_hosts = c.hosting(driver);
    let victim = *c
        .hosting(server)
        .iter()
        .find(|n| !driver_hosts.contains(n))
        .expect("a server host that does not host the driver");
    c.crash_processor(victim);
    c.run_for(Duration::from_millis(300));
    c.restart_processor(victim);

    let deadline = c.now() + Duration::from_secs(120);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
        {
            break;
        }
        assert!(
            c.now() < deadline,
            "workload failed to drain (replies={} of {limit})",
            c.metrics().replies_delivered
        );
    }
    c.run_for(Duration::from_millis(100));
    (c, server)
}

#[test]
fn fragmented_transfer_and_reformation_keep_one_chain() {
    let (c, _) = transfer_run(true);
    let rec = c.causal();
    let violations = rec.verify_total_order();
    assert!(violations.is_empty(), "order violations: {violations:?}");

    // Find a state-transfer trace: it must stay one chain from the
    // donor's get_state through per-fragment packs to set_state.
    let transfer_trace = rec
        .events()
        .find(|e| e.hop == Hop::SetState)
        .map(|e| e.trace_id)
        .expect("recovery ran a traced set_state");
    let hops: Vec<Hop> = rec
        .events()
        .filter(|e| e.trace_id == transfer_trace)
        .map(|e| e.hop)
        .collect();
    assert!(
        hops.contains(&Hop::GetState),
        "transfer chain lost its get_state root"
    );
    assert!(hops.contains(&Hop::Deliver));
    assert!(hops.contains(&Hop::Reassemble));
    let packs = hops.iter().filter(|&&h| h == Hop::Pack).count();
    assert!(
        packs > 1,
        "a state larger than three frames should fragment into multiple packed frames, saw {packs}"
    );

    // Requests held while the replacement replica synchronized must be
    // replayed under the same trace ids that delivered them.
    let held: Vec<u64> = rec
        .events()
        .filter(|e| e.hop == Hop::Hold)
        .map(|e| e.trace_id)
        .collect();
    for trace_id in &held {
        assert!(
            rec.events()
                .any(|e| e.trace_id == *trace_id && e.hop == Hop::Replay),
            "held message in trace {trace_id:x} was never replayed"
        );
    }
}

// ---------------------------------------------------------------------
// A traced run is the untraced run.
// ---------------------------------------------------------------------

/// What anyone outside the recorder can observe of a finished run:
/// frames and bytes on the wire, the final simulated time, the replies
/// and their round trips, every replica's state and every promotion.
type Observed = (
    u64,
    u64,
    SimTime,
    u64,
    Vec<Duration>,
    Vec<Option<Vec<u8>>>,
    Vec<Promotion>,
);

fn observe((mut c, server): (Cluster, GroupId)) -> Observed {
    let states = c
        .hosting(server)
        .into_iter()
        .map(|node| c.probe_application_state(node, server))
        .collect();
    let m = c.metrics();
    let (replies, round_trips) = (m.replies_delivered, m.round_trips.clone());
    let net = c.net();
    (
        net.frames_sent(),
        net.bytes_sent(),
        c.now(),
        replies,
        round_trips,
        states,
        m.promoted,
    )
}

/// A warm-passive counter whose primary is killed mid-stream: the
/// backup is promoted and replays the logged suffix.
fn failover_run(trace: bool) -> (Cluster, GroupId) {
    let config = ClusterConfig {
        trace,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(config, 12);
    let server = c.deploy_server(
        "counter",
        FaultToleranceProperties::warm_passive(2)
            .with_checkpoint_interval(Duration::from_millis(30))
            .with_min_replicas(1),
        || Box::new(CounterServant::default()),
    );
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(100));
    let primary = c
        .mechanisms(c.processors()[0])
        .primary_host(server)
        .expect("primary");
    c.kill_replica(server, primary);
    c.run_for(Duration::from_millis(300));
    (c, server)
}

#[test]
fn a_traced_run_equals_the_untraced_run() {
    let budget = ClusterConfig::default().totem.batch_budget_bytes;
    let untraced = observe(stream_run(31, budget, 0.10, false));
    let traced = observe(stream_run(31, budget, 0.10, true));
    assert!(untraced.3 >= 40, "the lossy stream drained");
    assert_eq!(traced, untraced, "tracing changed the lossy stream");

    let untraced = observe(transfer_run(false));
    let traced = observe(transfer_run(true));
    assert!(untraced.5.len() == 3, "recovery restored three replicas");
    assert_eq!(traced, untraced, "tracing changed the recovering run");

    let untraced = observe(failover_run(false));
    let traced = observe(failover_run(true));
    assert_eq!(untraced.6.len(), 1, "the backup was promoted");
    assert!(
        untraced.6[0].replayed > 0,
        "the promotion replayed a suffix"
    );
    assert_eq!(traced, untraced, "tracing changed the failover");
}
