//! Integration tests for the unified instrumentation layer: the typed
//! event trace, phase-resolved recovery timelines, and layer-local
//! metrics across Totem, the ORB, and the Eternal mechanisms.

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::{EventKind, RecoveryPhase, Trace};
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
    let c = recovery_run(ClusterConfig::default(), 1_000, 24);
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
    let config = ClusterConfig {
        trace: false,
        ..ClusterConfig::default()
    };
    let c = recovery_run(config, 10_000, 25);

    // Work happened …
    assert_eq!(c.metrics().recoveries_completed, 1);
    assert!(c.metrics().replies_delivered > 0);

    // … but the cluster trace captured nothing,
    assert!(!c.trace().is_enabled());
    assert!(c.trace().is_empty());
    assert_eq!(c.trace().dropped_events(), 0);
    // and every ORB's trace stayed disabled and empty too.
    for node in c.processors() {
        let orb_trace = c.mechanisms(node).orb().obs_trace();
        assert!(!orb_trace.is_enabled());
        assert!(orb_trace.is_empty());
    }
}

#[test]
fn bounded_trace_drops_oldest_but_keeps_counting() {
    let c = recovery_run(ClusterConfig::default(), 10_000, 26);
    let full = c.trace();
    assert_eq!(full.capacity(), eternal_obs::trace::DEFAULT_CAPACITY);
    assert_eq!(
        full.dropped_events(),
        0,
        "a recovery run fits the default ring"
    );
    // The same history through a 4-event ring.
    let mut trace = Trace::with_capacity(4);
    for e in full.events() {
        trace.record(e.at, e.source.clone(), e.kind, e.detail.clone());
    }
    assert_eq!(trace.capacity(), 4);
    assert!(
        trace.dropped_events() > 0,
        "a full recovery run overflows a 4-event ring"
    );
    // The ring is full and holds the newest events: total observed
    // activity is the buffer plus everything evicted before it.
    assert_eq!(trace.len(), 4);
    assert_eq!(trace.dropped_events() + 4, full.len() as u64);
    let newest = trace.event(trace.len() - 1).expect("nonempty");
    let oldest = trace.event(0).expect("nonempty");
    assert!(newest.at >= oldest.at, "buffer preserved chronology");
    assert_eq!(
        newest.kind,
        EventKind::RecoveryComplete,
        "the last event is kept"
    );
}
