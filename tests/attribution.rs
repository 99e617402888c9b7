//! Attribution arithmetic on real cluster runs: the per-request phase
//! decomposition must tile every traced round trip's RTT *exactly*
//! (tolerance zero — it is a telescoping identity, not an estimate),
//! the phase *set* must be invariant under frame loss and batching
//! (those knobs move durations between phases, they never invent or
//! remove a pipeline stage), and a held-then-replayed message must book
//! its holding-queue window as hold residency rather than inflating
//! dispatch. See `docs/ATTRIBUTION.md`.

use eternal::app::{CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::attribution::{attribute, AttributionReport, Phase};
use eternal_obs::Duration;

/// Runs a traced streaming-counter workload and attributes it.
///
/// `loss` is the per-receiver frame-drop probability, `batching`
/// toggles Totem's frame packing, and `kill_client_replica` fells one
/// replica of a two-way replicated client mid-run so its replacement
/// holds the replies delivered during recovery.
fn traced_run(loss: f64, batching: bool, kill_client_replica: bool) -> AttributionReport {
    let mut config = ClusterConfig {
        trace: true,
        causal_capacity: 1 << 18,
        ..ClusterConfig::default()
    };
    config.net.loss_probability = loss;
    if !batching {
        config.totem.batch_budget_bytes = 0;
    }
    let mut cluster = Cluster::new(config, 42);
    let counter =
        cluster.deploy_server("attr-counter", FaultToleranceProperties::active(2), || {
            Box::new(CounterServant::default())
        });
    let replicas = if kill_client_replica { 2 } else { 1 };
    let driver = cluster.deploy_client(
        "attr-driver",
        FaultToleranceProperties::active(replicas),
        move |_| Box::new(StreamingClient::new(counter, "increment", 4)),
    );
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(30));
    if kill_client_replica {
        let victim = cluster.hosting(driver)[0];
        cluster.kill_replica(driver, victim);
    }
    cluster.run_for(Duration::from_millis(60));
    attribute(cluster.causal())
}

/// The set of phases a report actually spent time in.
fn nonzero_phases(report: &AttributionReport) -> Vec<&'static str> {
    Phase::ALL
        .into_iter()
        .filter(|p| report.phase_total_ns(*p) > 0)
        .map(|p| p.name())
        .collect()
}

#[test]
fn fault_free_phases_tile_rtt_exactly() {
    let report = traced_run(0.0, true, false);
    assert!(
        report.requests.len() > 50,
        "workload too thin: {} requests",
        report.requests.len()
    );
    assert_eq!(
        (report.rooted_at_replay, report.missing_parent),
        (0, 0),
        "fault-free chains must close"
    );
    assert_eq!(report.non_monotone_chains, 0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for r in &report.requests {
        let sum: u64 = r.phase_ns.iter().sum();
        assert_eq!(
            sum,
            r.rtt.as_nanos(),
            "trace {:#x}: phases must sum to the RTT with zero residual",
            r.trace_id
        );
    }
}

#[test]
fn loss_and_batching_move_durations_not_the_phase_set() {
    let baseline = traced_run(0.0, true, false);
    let lossy = traced_run(0.1, true, false);
    let unbatched = traced_run(0.0, false, false);
    let expected = nonzero_phases(&baseline);
    for (name, report) in [("10% loss", &lossy), ("batching off", &unbatched)] {
        assert!(
            !report.requests.is_empty(),
            "{name}: no requests attributed"
        );
        assert!(
            report.violations.is_empty(),
            "{name}: tiling broke: {:?}",
            report.violations
        );
        assert_eq!(
            nonzero_phases(report),
            expected,
            "{name}: the phase set is structural — loss and batching may \
             only move durations between existing phases"
        );
    }
    // Loss recovery is retransmission rounds, and retransmitted frames
    // are deliberately not re-stamped: the extra latency must land in
    // the wire phase, visibly.
    let wire = Phase::WireRetransmit;
    assert!(
        lossy.phase_total_ns(wire) * baseline.requests.len() as u128
            > baseline.phase_total_ns(wire) * lossy.requests.len() as u128,
        "10% loss must widen mean wire+retransmit time: {} vs {}",
        lossy.phase_total_ns(wire),
        baseline.phase_total_ns(wire)
    );
}

#[test]
fn held_then_replayed_attributes_hold_residency_not_dispatch() {
    let report = traced_run(0.0, true, true);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let hold = Phase::HoldResidency.index();
    let dispatch = Phase::Dispatch.index();
    let held: Vec<_> = report
        .requests
        .iter()
        .filter(|r| r.phase_ns[hold] > 0)
        .collect();
    assert!(
        !held.is_empty(),
        "the recovering client replica must have held at least one reply"
    );
    // The hold window books against hold residency only: a held
    // request's dispatch phase stays within the ordinary servant
    // execution window seen by never-held requests.
    let plain_dispatch = report
        .requests
        .iter()
        .filter(|r| r.phase_ns[hold] == 0)
        .map(|r| r.phase_ns[dispatch])
        .max()
        .expect("some requests never touched the holding queue");
    for r in &held {
        assert!(
            r.phase_ns[dispatch] <= plain_dispatch,
            "trace {:#x}: hold window leaked into dispatch ({} > {})",
            r.trace_id,
            r.phase_ns[dispatch],
            plain_dispatch
        );
        let sum: u64 = r.phase_ns.iter().sum();
        assert_eq!(sum, r.rtt.as_nanos(), "held chains must still tile");
    }
}
