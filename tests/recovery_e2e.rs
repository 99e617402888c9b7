//! End-to-end recovery tests spanning all crates: the full §5.1
//! state-transfer protocol over Totem over the simulated network, with
//! real GIOP traffic from real ORBs, under every replication style.

use eternal::app::{AppInvocation, BlobServant, ClientApp, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::{Any, Value};
use eternal_giop::ReplyStatus;
use eternal_obs::{EventKind, RecoveryPhase};
use eternal_sim::Duration;

mod common;
use common::settle;

fn cluster(seed: u64) -> Cluster {
    Cluster::new(ClusterConfig::default(), seed)
}

#[test]
fn active_recovery_preserves_state_continuity() {
    // A client that checks monotonicity of the counter it increments:
    // if the recovered replica lost or double-applied state, siblings
    // would diverge and replies would be wrong or missing.
    #[derive(Debug)]
    struct MonotoneChecker {
        server: GroupId,
        last: u32,
        violations: u32,
        replies: u32,
    }
    impl ClientApp for MonotoneChecker {
        fn on_start(&mut self) -> Vec<AppInvocation> {
            vec![AppInvocation::two_way(self.server, "increment")]
        }
        fn on_reply(
            &mut self,
            _s: GroupId,
            _op: &str,
            status: ReplyStatus,
            body: &[u8],
        ) -> Vec<AppInvocation> {
            assert_eq!(status, ReplyStatus::NoException);
            let v = u32::from_be_bytes(body.try_into().expect("u32 reply"));
            if v != self.last + 1 {
                self.violations += 1;
            }
            self.last = v;
            self.replies += 1;
            vec![AppInvocation::two_way(self.server, "increment")]
        }
        fn get_state(&self) -> Any {
            Any::from(Value::Struct(vec![
                Value::ULong(self.last),
                Value::ULong(self.violations),
                Value::ULong(self.replies),
            ]))
        }
        fn set_state(&mut self, state: &Any) {
            if let Value::Struct(m) = &state.value {
                if let [Value::ULong(l), Value::ULong(v), Value::ULong(r)] = m.as_slice() {
                    self.last = *l;
                    self.violations = *v;
                    self.replies = *r;
                }
            }
        }
    }

    let mut c = cluster(10);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("checker", FaultToleranceProperties::active(1), move |_| {
        Box::new(MonotoneChecker {
            server,
            last: 0,
            violations: 0,
            replies: 0,
        })
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));

    // Kill each server replica in turn, with recovery in between.
    for round in 0..2 {
        let victim = c.hosting(server)[round % c.hosting(server).len()];
        c.kill_replica(server, victim);
        c.run_for(Duration::from_millis(250));
    }
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 2, "both kills recovered");
    assert!(m.replies_delivered > 100);
    assert_eq!(
        m.replies_discarded_by_orb, 0,
        "no request-id desync with full state transfer"
    );
    assert_eq!(m.requests_discarded_unnegotiated, 0);
}

#[test]
fn recovery_is_concurrent_with_normal_operation() {
    // §5.1 / §3.3: the system keeps serving while the new replica is
    // synchronized; enqueued messages are delivered after set_state.
    let mut c = cluster(11);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    let replies_before = c.metrics().replies_delivered;
    c.kill_replica(server, victim);
    // A 200 kB transfer takes ~20+ ms of virtual time; run only 15 ms —
    // the stream must already be advancing again (the surviving replica
    // answers while the new one recovers).
    c.run_for(Duration::from_millis(15));
    let m = c.metrics();
    assert!(
        m.replies_delivered > replies_before + 20,
        "service continued during recovery: {} -> {}",
        replies_before,
        m.replies_delivered
    );
    assert_eq!(m.recoveries_completed, 0, "recovery still in flight");
    c.run_for(Duration::from_secs(2));
    assert_eq!(c.metrics().recoveries_completed, 1, "and then completes");
}

#[test]
fn recovery_phases_run_in_protocol_order() {
    // §5.1 orders the protocol strictly: the donor quiesces *before*
    // get_state runs, and set_state closes before the recovered replica
    // dispatches any normal invocation. The ORBs log only when traced.
    let config = ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(config, 18);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(30_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let hosts_before = c.hosting(server);
    c.kill_replica(server, hosts_before[0]);
    c.run_for(Duration::from_secs(3));
    assert_eq!(c.metrics().recoveries_completed, 1);

    // Quiesce completes before get_state begins, which completes before
    // the transfer — read off the episode's recovery timeline.
    let timeline = &c.recovery_timelines()[0];
    let phase = |p: RecoveryPhase| {
        timeline
            .phase(p)
            .unwrap_or_else(|| panic!("{p:?} in the timeline"))
    };
    assert!(phase(RecoveryPhase::Quiesce).end <= phase(RecoveryPhase::GetState).begin);
    assert!(phase(RecoveryPhase::GetState).end <= phase(RecoveryPhase::Transfer).begin);
    assert!(phase(RecoveryPhase::Transfer).end <= phase(RecoveryPhase::SetState).begin);
    assert!(phase(RecoveryPhase::SetState).end <= phase(RecoveryPhase::Replay).begin);

    // At the recovered replica's own ORB: the fabricated set_state is
    // dispatched before the first normal invocation after its launch.
    let replacement = c
        .hosting(server)
        .into_iter()
        .find(|n| !hosts_before.contains(n) || *n == hosts_before[0])
        .expect("replacement instantiated");
    let launched_at = timeline.launched_at;
    let orb_trace = c.mechanisms(replacement).orb().obs_trace();
    let events: Vec<_> = orb_trace.events().collect();
    let set_state_idx = events
        .iter()
        .position(|e| e.kind == EventKind::OrbControlDispatch && e.detail.contains("set_state"))
        .expect("set_state dispatched through the ORB control path");
    let first_dispatch_idx = events
        .iter()
        .position(|e| e.kind == EventKind::OrbRequestDispatched && e.at >= launched_at)
        .expect("recovered replica dispatches normal traffic");
    assert!(
        set_state_idx < first_dispatch_idx,
        "set_state (event {set_state_idx}) must close before the first \
         normal dispatch (event {first_dispatch_idx})"
    );
    assert!(events[set_state_idx].at >= launched_at);
}

#[test]
fn warm_passive_failover_replays_suffix() {
    let mut c = cluster(12);
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

    let m = c.metrics();
    assert_eq!(m.promotions, 1);
    let promotion = m.promoted[0];
    assert_eq!(promotion.group, server);
    assert!(promotion.ready_at <= c.now());
    assert!(
        promotion.replayed > 0,
        "messages since the last checkpoint must be replayed"
    );
    // Stream continues under the new primary.
    let before = c.metrics().replies_delivered;
    c.run_for(Duration::from_millis(100));
    assert!(c.metrics().replies_delivered > before);
}

#[test]
fn cold_passive_failover_launches_and_replays() {
    let mut c = cluster(13);
    let server = c.deploy_server(
        "counter",
        FaultToleranceProperties::cold_passive(2)
            .with_checkpoint_interval(Duration::from_millis(30))
            .with_min_replicas(1),
        || Box::new(CounterServant::default()),
    );
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(100));
    // Cold passive: exactly one instance exists.
    assert_eq!(c.hosting(server).len(), 1);

    let primary = c
        .mechanisms(c.processors()[0])
        .primary_host(server)
        .expect("primary");
    c.kill_replica(server, primary);
    c.run_for(Duration::from_millis(400));

    let m = c.metrics();
    assert_eq!(m.promotions, 1, "cold backup loaded and promoted");
    let new_primary = c
        .mechanisms(c.processors()[0])
        .primary_host(server)
        .expect("new primary");
    assert_ne!(new_primary, primary);
    let before = m.replies_delivered;
    c.run_for(Duration::from_millis(100));
    assert!(c.metrics().replies_delivered > before, "service resumed");
}

#[test]
fn client_replica_recovery_resumes_streaming() {
    let mut c = cluster(14);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let client = c.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(StreamingClient::new(server, "increment", 3))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));

    let victim = c.hosting(client)[0];
    c.kill_replica(client, victim);
    c.run_for(Duration::from_millis(300));
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 1, "client replica recovered");
    assert_eq!(m.replies_discarded_by_orb, 0, "request ids resynchronized");
    let before = m.replies_delivered;
    c.run_for(Duration::from_millis(100));
    assert!(c.metrics().replies_delivered > before);
}

#[test]
fn duplicate_suppression_under_active_replication() {
    let mut c = cluster(15);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2).with_limit(60))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(100));
    let m = c.metrics();
    // 2 client replicas × each logical request, 3 server replicas × each
    // logical reply: plenty of duplicates, all suppressed.
    assert!(m.duplicates_suppressed > m.replies_delivered);
    assert_eq!(m.replies_discarded_by_orb, 0);
    // Drain the (limited) stream to a quiescent point and audit the
    // full oracle: exactly-once effects and single-copy equivalence
    // make the "counter incremented once per logical invocation" claim
    // explicit instead of implicit.
    settle(&mut c);
    Oracle::new(OracleConfig::default())
        .with_pair(OraclePair {
            server,
            driver,
            kind: ServantKind::Counter,
        })
        .assert_clean(&mut c, "after the duplicate-suppression stream drained");
}

#[test]
fn recovery_quiescent_point_satisfies_the_full_oracle() {
    // The §5.1 recovery mid-stream, audited by the shared single-copy
    // oracle once everything drains: the recovered group must be
    // byte-identical to an unreplicated servant that replayed the
    // client's history serially, with exactly-once effects.
    let mut c = cluster(19);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 3).with_limit(120))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    // Give the fault detector time to notice and relaunch, then drain.
    c.run_for(Duration::from_millis(300));
    settle(&mut c);
    assert_eq!(c.metrics().recoveries_completed, 1);
    Oracle::new(OracleConfig::default())
        .with_pair(OraclePair {
            server,
            driver,
            kind: ServantKind::Counter,
        })
        .assert_clean(&mut c, "after mid-stream recovery drained");
}

#[test]
fn processor_crash_triggers_membership_recovery() {
    let mut c = cluster(16);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    // Crash the whole processor hosting a server replica.
    let victim = c.hosting(server)[0];
    c.crash_processor(victim);
    c.run_for(Duration::from_secs(2));
    let m = c.metrics();
    assert_eq!(
        m.recoveries_completed, 1,
        "replacement launched on a spare processor"
    );
    assert!(
        !c.hosting(server).contains(&victim),
        "replacement is elsewhere"
    );
    let before = m.replies_delivered;
    c.run_for(Duration::from_millis(100));
    assert!(c.metrics().replies_delivered > before, "service continues");
}

#[test]
fn crashed_processor_can_restart_and_host_again() {
    let mut c = cluster(17);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.crash_processor(victim);
    c.run_for(Duration::from_secs(1));
    c.restart_processor(victim);
    c.run_for(Duration::from_secs(2));
    // The ring re-forms with the restarted processor in it, and traffic
    // still flows.
    assert!(c.formed(), "membership healed after restart");
    let before = c.metrics().replies_delivered;
    c.run_for(Duration::from_millis(100));
    assert!(c.metrics().replies_delivered > before);
}
