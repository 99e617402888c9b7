//! Integration tests for the unified instrumentation layer: the one
//! switch that turns recording on, phase-resolved recovery timelines,
//! and layer-local metrics across Totem, the ORB, and the Eternal
//! mechanisms.

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::RecoveryPhase;
use eternal_sim::Duration;

/// A Figure 6 style run: 2-way active server with `state_bytes` of
/// application state, streaming client, one replica killed, recovery
/// left to complete.
fn recovery_run(config: ClusterConfig, state_bytes: usize, seed: u64) -> Cluster {
    let mut c = Cluster::new(config, seed);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), move || {
        Box::new(BlobServant::with_size(state_bytes))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_secs(5));
    c
}

#[test]
fn timeline_phases_tile_the_recovery_episode() {
    let c = recovery_run(ClusterConfig::default(), 50_000, 21);
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 1);

    // The metrics and the timeline view are the same one record.
    let timelines = c.recovery_timelines();
    assert_eq!(timelines, &m.recoveries[..]);
    let tl = &timelines[0];

    // The five phases are contiguous, in canonical order and tile the
    // episode exactly, so their sum is the recovery time — well inside
    // the 5% acceptance tolerance.
    assert!(tl.is_contiguous(), "phases must tile the episode: {tl:?}");
    assert_eq!(tl.phase_sum(), tl.recovery_time());
    assert!(tl.covers_episode_within(0.05));
    assert!(tl.blocking_window <= tl.recovery_time());

    // With 50 kB of state the fragmented transfer dominates the
    // size-independent quiesce/get_state floor.
    let transfer = tl.phase(RecoveryPhase::Transfer).expect("present");
    let get_state = tl.phase(RecoveryPhase::GetState).expect("present");
    assert!(transfer.duration() > get_state.duration());
}

#[test]
fn totem_metrics_surface_loss_and_reformation() {
    let mut config = ClusterConfig::default();
    config.net.loss_probability = 0.02;
    let mut c = Cluster::new(config, 23);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_secs(1));

    // Crash a processor that hosts no replica so the ring must re-form.
    let spare = c
        .processors()
        .into_iter()
        .rev()
        .find(|n| !c.hosting(server).contains(n))
        .expect("spare processor");
    c.crash_processor(spare);
    c.run_for(Duration::from_secs(2));

    let reg = c.metrics_registry();
    assert!(
        reg.counter("totem.retransmits_served") > 0,
        "2% loss must trigger rtr retransmissions: {}",
        reg.render()
    );
    assert!(
        reg.counter("totem.reformations") > 0,
        "the crash must trigger a membership reformation"
    );
    let rotation = reg
        .histogram("totem.token_rotation")
        .expect("token rotation histogram recorded");
    assert!(rotation.count() > 0);
    assert!(rotation.p50() > Duration::ZERO);
    assert!(reg.counter("totem.broadcasts") > 0);
    assert!(reg.counter("net.frames_dropped") > 0);
}

#[test]
fn orb_metrics_flow_into_the_cluster_registry() {
    let config = ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    };
    let c = recovery_run(config, 1_000, 24);
    let reg = c.metrics_registry();
    assert!(reg.counter("orb.requests_dispatched") > 0);
    assert!(reg.counter("orb.replies_matched") > 0);
    // Recovery dispatches get_state at a donor and set_state at the
    // recovering replica through the ORB's control path.
    assert!(reg.counter("orb.control_dispatches") >= 2);
    // The latency histograms are derived from the metrics' records.
    let rtt = reg.histogram("orb.round_trip").expect("round trips timed");
    assert_eq!(rtt.count(), c.metrics().round_trips.len() as u64);
    assert!(rtt.p99() >= rtt.p50());
    let rec = reg
        .histogram("eternal.recovery_time")
        .expect("recovery timed");
    assert_eq!(rec.count(), 1);
}

#[test]
fn disabled_trace_records_and_allocates_nothing() {
    // The default cluster is untraced.
    let c = recovery_run(ClusterConfig::default(), 10_000, 25);

    // Work happened …
    assert_eq!(c.metrics().recoveries_completed, 1);
    assert!(c.metrics().replies_delivered > 0);

    // … but the causal recorder captured nothing,
    assert!(!c.causal().is_enabled());
    assert!(c.causal().is_empty());
    assert_eq!(c.causal().dropped(), 0);
    // and every ORB's log stayed disabled and empty too.
    for node in c.processors() {
        let orb_trace = c.mechanisms(node).orb().obs_trace();
        assert!(!orb_trace.is_enabled());
        assert!(orb_trace.is_empty());
    }
}
