//! Token-visit batching must be invisible to every ordering guarantee.
//!
//! The batching layer in `eternal-totem` packs multiple small messages
//! into one ring frame per token visit; this file checks the contract
//! that makes that safe: under loss bursts and a mid-stream membership
//! reformation (processor crash + restart), a batched run and an
//! unbatched run deliver the *same* totally-ordered request stream, the
//! same number of replies, and byte-identical final replica state —
//! batching may only change how deliveries are packed into frames,
//! never what is delivered or in what order.
//!
//! The evidence is the causal recorder, which a test can turn on
//! without changing what it observes: every node's Deliver hop of a
//! fragment carries the total-order position it was delivered at, and
//! its Reassemble hops name, in delivery order, each IIOP message the
//! node completed.

use eternal::app::{CounterServant, StreamingClient};
use eternal::chaos::{run_campaign, CampaignConfig, Topology};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::causal::Hop;
use eternal_sim::net::NodeId;
use eternal_sim::Duration;

/// What one scenario run leaves behind, for cross-run comparison.
struct Outcome {
    replies: u64,
    frames: u64,
    batches: u64,
    /// Converged server-replica state bytes.
    state: Vec<u8>,
    /// The IIOP requests one never-crashed node reassembled, in
    /// delivery order. (Replies come once per active replica, and the
    /// number of live replicas varies with recovery timing, so only the
    /// single-sender requests are comparable across runs.)
    requests: Vec<String>,
}

/// The IIOP messages `node` reassembled, in delivery order, each named
/// by its identity (connection, direction, operation sequence).
fn reassembled(c: &Cluster, node: NodeId) -> Vec<String> {
    c.causal()
        .events()
        .filter(|e| e.node == u64::from(node.0) && e.hop == Hop::Reassemble)
        .filter(|e| e.detail.starts_with("iiop "))
        .map(|e| e.detail.clone())
        .collect()
}

/// Streams 160 invocations through a 3-way active counter server while
/// injecting a loss burst and a crash + restart of a server-hosting
/// processor, then drains completely and collects the evidence.
fn faulty_run(budget: usize, seed: u64) -> Outcome {
    let mut config = ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    };
    config.totem.batch_budget_bytes = budget;
    let mut c = Cluster::new(config, seed);
    let limit: u64 = 160;
    let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 12).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    // Loss burst mid-stream: Totem retransmission must cover the gaps.
    c.net_mut().set_loss_probability(0.08);
    c.run_for(Duration::from_millis(150));
    c.net_mut().set_loss_probability(0.0);
    c.run_for(Duration::from_millis(50));

    // Membership reformation: crash a processor hosting a server
    // replica (but not the driver), let the ring re-form and recovery
    // run, then bring the processor back.
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
            "workload failed to drain (budget {budget}: replies={} of {limit})",
            c.metrics().replies_delivered
        );
    }
    c.run_for(Duration::from_millis(200));

    // Within one run, every operational server replica must hold
    // byte-identical state …
    let states: Vec<Vec<u8>> = c
        .hosting(server)
        .into_iter()
        .filter_map(|n| c.probe_application_state(n, server))
        .collect();
    assert!(states.len() >= 3, "server group back at full strength");
    for pair in states.windows(2) {
        assert_eq!(pair[0], pair[1], "replica state diverged within one run");
    }

    // … every node, the restarted one included, must have delivered
    // each fragment at the same total-order position, with nothing of
    // the history evicted …
    let causal = c.causal();
    assert_eq!(causal.verify_total_order(), Vec::<String>::new());
    assert_eq!(causal.dropped(), 0, "the recorder evicted history");

    // … and every never-crashed node must have reassembled the
    // identical IIOP sequence.
    let survivors: Vec<NodeId> = c
        .processors()
        .into_iter()
        .filter(|&n| n != victim)
        .collect();
    assert!(survivors.len() >= 2);
    let sequence = reassembled(&c, survivors[0]);
    for &node in &survivors[1..] {
        assert_eq!(
            reassembled(&c, node),
            sequence,
            "delivery order diverged between never-crashed nodes"
        );
    }

    let requests: Vec<String> = sequence
        .into_iter()
        .filter(|identity| identity.contains(" req "))
        .collect();
    assert!(
        requests.len() as u64 >= limit,
        "{} requests",
        requests.len()
    );
    Outcome {
        replies: c.metrics().replies_delivered,
        frames: c.net().frames_sent(),
        batches: c.metrics_registry().counter("totem.batches"),
        state: states.into_iter().next().unwrap(),
        requests,
    }
}

#[test]
fn batched_and_unbatched_runs_deliver_the_same_order_under_faults() {
    let batched = faulty_run(1408, 11);
    let unbatched = faulty_run(0, 11);

    // Batching must actually have been exercised (and only when on).
    assert!(batched.batches > 0, "batched run never formed a batch");
    assert_eq!(unbatched.batches, 0, "budget 0 must disable batching");

    // The application-visible outcome is identical …
    assert_eq!(batched.replies, unbatched.replies);
    assert_eq!(
        batched.state, unbatched.state,
        "final replica state differs between batched and unbatched runs"
    );
    // … the totally-ordered request sequences are identical …
    assert!(!batched.requests.is_empty());
    assert_eq!(
        batched.requests, unbatched.requests,
        "the request sequence differs between batched and unbatched runs"
    );
    // … and only the packing changed: fewer frames on the wire.
    assert!(
        batched.frames < unbatched.frames,
        "batching should save frames even under faults ({} vs {})",
        batched.frames,
        unbatched.frames
    );
}

/// The chaos campaign's invariants (total order, virtual synchrony,
/// convergence, recovery liveness) must hold at any batching budget.
/// The fault schedule is pinned per budget: the draws are the same, the
/// trajectories' end times are not, and a drift in either would leave
/// this test passing on a schedule it no longer means.
#[test]
fn chaos_campaign_passes_with_batching_on_and_off() {
    let faults = [
        ("delay_spike", 1),
        ("kill_mid_transfer", 2),
        ("kill_replica", 1),
        ("partition_heal", 1),
    ];
    for (budget, final_ns) in [(0, 385_123_200), (1408, 375_208_400)] {
        let mut cfg = CampaignConfig {
            seed: 21,
            steps: 5,
            topology: Topology::campaign(20_000),
            ..CampaignConfig::default()
        };
        cfg.topology.cluster.totem.batch_budget_bytes = budget;
        let summary = run_campaign(&cfg);
        assert!(summary.passed(), "budget {budget}: {summary}");
        let drawn: Vec<(&str, u64)> = summary.run.faults.iter().map(|(&k, &n)| (k, n)).collect();
        assert_eq!(drawn, faults, "budget {budget}: fault schedule drifted");
        assert_eq!(
            summary.run.final_time.as_nanos(),
            final_ns,
            "budget {budget}: trajectory drifted"
        );
    }
}

/// A degenerate budget (smaller than any message) must behave exactly
/// like batching off: nothing ever fits together, so no batch forms,
/// and the workload still completes.
#[test]
fn tiny_budget_degenerates_to_unbatched() {
    let tiny = faulty_run(1, 11);
    let off = faulty_run(0, 11);
    assert_eq!(tiny.batches, 0, "no two messages fit in a 1-byte budget");
    assert_eq!(tiny.replies, off.replies);
    assert_eq!(tiny.state, off.state);
    assert_eq!(tiny.requests, off.requests);
}
