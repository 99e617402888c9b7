//! Edge cases of the cluster harness and managers: double faults,
//! launches on dead processors, disabled auto-recovery, deployment
//! shapes, and the guards around the cluster's table of replica
//! launches in flight.

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

mod common;
use common::settle;

#[test]
fn deployment_shapes_match_styles() {
    let mut c = Cluster::new(ClusterConfig::default(), 60);
    let active = c.deploy_server("a", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    let warm = c.deploy_server(
        "w",
        FaultToleranceProperties::warm_passive(2).with_min_replicas(1),
        || Box::new(CounterServant::default()),
    );
    let cold = c.deploy_server(
        "c",
        FaultToleranceProperties::cold_passive(2).with_min_replicas(1),
        || Box::new(CounterServant::default()),
    );
    assert_eq!(c.hosting(active).len(), 3, "active: all replicas live");
    assert_eq!(c.hosting(warm).len(), 2, "warm: primary + loaded backup");
    assert_eq!(c.hosting(cold).len(), 1, "cold: only the primary is loaded");
    assert_eq!(c.group_by_name("w"), Some(warm));
    assert_eq!(c.group_by_name("nope"), None);
}

#[test]
fn killing_the_same_replica_twice_is_harmless() {
    let mut c = Cluster::new(ClusterConfig::default(), 61);
    let server = c.deploy_server("s", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2).with_limit(150))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    // Second kill before recovery: the replica is already gone.
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(300));
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 1, "exactly one recovery");
    assert!(m.replies_delivered > 0);
    // The double kill must not have confused the recovered group: at
    // quiescence the full oracle holds, double-kill or not.
    settle(&mut c);
    Oracle::new(OracleConfig::default())
        .with_pair(OraclePair {
            server,
            driver,
            kind: ServantKind::Counter,
        })
        .assert_clean(&mut c, "after the double kill recovered and drained");
}

#[test]
fn auto_recovery_can_be_disabled() {
    let config = ClusterConfig {
        auto_recover: false,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(config, 62);
    let server = c.deploy_server("s", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(400));
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 0, "nothing recovered automatically");
    assert_eq!(c.hosting(server).len(), 1, "degraded but serving");
    // Manual recovery still works.
    c.launch_replica(server, victim);
    c.run_for(Duration::from_millis(300));
    assert_eq!(c.metrics().recoveries_completed, 1);
    assert_eq!(c.hosting(server).len(), 2);
}

#[test]
fn launch_on_a_crashed_processor_is_dropped() {
    let config = ClusterConfig {
        auto_recover: false,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(config, 63);
    let server = c.deploy_server("s", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));
    let victim = c.hosting(server)[0];
    c.crash_processor(victim);
    c.run_for(Duration::from_millis(500));
    // Ask for a launch on the dead processor: silently dropped.
    c.launch_replica(server, victim);
    c.run_for(Duration::from_millis(300));
    assert_eq!(c.metrics().recoveries_completed, 0);
    // Restart it; now the launch sticks.
    c.restart_processor(victim);
    c.run_for(Duration::from_secs(1));
    c.launch_replica(server, victim);
    c.run_for(Duration::from_secs(1));
    assert_eq!(c.metrics().recoveries_completed, 1);
}

#[test]
fn multiple_groups_share_the_infrastructure() {
    let mut c = Cluster::new(ClusterConfig::default(), 64);
    let mut servers = Vec::new();
    for i in 0..3 {
        let s = c.deploy_server(
            &format!("s{i}"),
            FaultToleranceProperties::active(2),
            || Box::new(CounterServant::default()),
        );
        c.deploy_client(
            &format!("d{i}"),
            FaultToleranceProperties::active(1),
            move |_| Box::new(StreamingClient::new(s, "increment", 2)),
        );
        servers.push(s);
    }
    c.run_until_deployed();
    c.run_for(Duration::from_millis(100));
    // Kill one replica of each group simultaneously.
    for &s in &servers {
        let victim = c.hosting(s)[0];
        c.kill_replica(s, victim);
    }
    c.run_for(Duration::from_secs(1));
    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 3, "all groups recovered");
    assert_eq!(m.replies_discarded_by_orb, 0);
    for &s in &servers {
        assert_eq!(c.hosting(s).len(), 2);
    }
    // The group-generic oracle invariants (availability, reassembly,
    // dedup bounds) hold across every group sharing the infrastructure.
    let oracle = Oracle::new(OracleConfig::default());
    let mut violations = Vec::new();
    oracle.check_reassembly(&mut c, &mut violations);
    oracle.check_dedup_bound(&mut c, &mut violations);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
#[should_panic(expected = "cannot place")]
fn too_many_replicas_for_the_system_is_rejected() {
    let config = ClusterConfig {
        processors: 2,
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(config, 65);
    c.deploy_server("s", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
}

#[test]
fn report_renders_system_state() {
    let mut c = Cluster::new(ClusterConfig::default(), 66);
    let server = c.deploy_server(
        "acct",
        FaultToleranceProperties::warm_passive(2).with_min_replicas(1),
        || Box::new(CounterServant::default()),
    );
    c.deploy_client("drv", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));
    let report = c.report();
    assert!(report.contains("acct"), "{report}");
    assert!(report.contains("WarmPassive"), "{report}");
    assert!(report.contains("Operational"), "{report}");
    assert!(report.contains("Standby"), "{report}");
    assert!(report.contains("totals:"), "{report}");
    assert_eq!(c.groups().len(), 2);
}

/// A blob server on three hosts under a streaming driver, with one
/// replica killed: the stage for the launch-table guards below.
/// Returns the cluster, the group and the killed replica's host.
fn blob_cluster_with_a_dead_replica(
    auto_recover: bool,
    seed: u64,
) -> (Cluster, eternal::GroupId, eternal_sim::net::NodeId) {
    let mut config = ClusterConfig {
        auto_recover,
        ..ClusterConfig::default()
    };
    // Small chunks: the transfer streams long enough for a fault to
    // land in the middle of it.
    config.mech.chunk_bytes = 4_096;
    let mut c = Cluster::new(config, seed);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(3), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2).with_limit(400))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(30));
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    (c, server, victim)
}

/// Steps the cluster until `done` holds (at most 2 s of virtual time).
fn step_until(c: &mut Cluster, what: &str, done: impl Fn(&Cluster) -> bool) {
    let deadline = c.now() + Duration::from_secs(2);
    while !done(c) {
        assert!(c.step() && c.now() < deadline, "never saw {what}");
    }
}

/// The host streaming `group`'s state transfer, once one is under way.
fn streaming_donor(c: &Cluster, group: eternal::GroupId) -> Option<eternal_sim::net::NodeId> {
    c.live_processors()
        .into_iter()
        .find_map(|n| c.mechanisms(n).transfer_donor(group))
}

/// Guard: a donor's capture that arrives after the recovering host
/// crashed must not resurrect the aborted launch. The crash lands when
/// exactly one of the two donors has captured; the other one's capture
/// of the same (totally ordered) retrieval follows it.
#[test]
fn donor_capture_after_the_recovering_host_crashed_does_not_resurrect_the_launch() {
    let (mut c, server, new_host) = blob_cluster_with_a_dead_replica(false, 67);
    c.run_for(Duration::from_millis(30));
    c.launch_replica(server, new_host);
    assert!(c.recovery_in_flight(), "in flight from the decision on");
    let capturing = |c: &Cluster| {
        let donors = c.hosting(server).into_iter().filter(|&n| n != new_host);
        donors
            .filter(|&n| c.mechanisms(n).active_transfers() > 0)
            .count()
    };
    step_until(&mut c, "the first capture", |c| capturing(c) > 0);
    assert_eq!(capturing(&c), 1, "the second donor has yet to capture");
    assert_eq!(c.pending_launches(), [(server, new_host)]);
    c.crash_processor(new_host);
    assert!(!c.recovery_in_flight(), "the crash aborts the launch");
    c.run_for(Duration::from_millis(500));
    assert!(!c.recovery_in_flight(), "and the late capture leaves it so");
    assert_eq!(c.metrics().recoveries_completed, 0);
    assert_eq!(c.hosting(server).len(), 2);
}

/// Guard: a retry on the same host after an aborted transfer leaves
/// nothing of the first attempt open. The recovering host crashes
/// mid-stream and restarts at once; the resource manager launches the
/// replacement there again, and its completion is the only recovery
/// on record.
#[test]
fn a_retry_after_an_aborted_transfer_leaves_nothing_open() {
    let (mut c, server, new_host) = blob_cluster_with_a_dead_replica(true, 68);
    step_until(&mut c, "the chunk stream", |c| {
        streaming_donor(c, server).is_some()
    });
    assert_eq!(c.pending_launches(), [(server, new_host)]);
    c.crash_processor(new_host);
    assert!(!c.recovery_in_flight(), "the crash aborts the launch");
    c.restart_processor(new_host);
    step_until(&mut c, "the retry", |c| !c.pending_launches().is_empty());
    assert_eq!(c.pending_launches(), [(server, new_host)], "same host");
    c.run_for(Duration::from_secs(1));
    assert!(!c.recovery_in_flight(), "the first attempt left open");
    assert_eq!(c.metrics().recoveries_completed, 1);
    assert_eq!(c.recovery_timelines().len(), 1);
    assert_eq!(c.hosting(server).len(), 3);
}

/// Guard: a fault delivered while a launch of its group is in flight —
/// here the streaming donor's, mid-chunk-stream — is dropped by the
/// double-launch guard, so the group's strength must be re-examined
/// when that launch ends: the second replacement follows the first.
#[test]
fn a_fault_during_a_launch_is_re_examined_when_the_launch_ends() {
    let (mut c, server, _) = blob_cluster_with_a_dead_replica(true, 69);
    step_until(&mut c, "the chunk stream", |c| {
        streaming_donor(c, server).is_some()
    });
    let first_launch = c.pending_launches();
    assert_eq!(first_launch.len(), 1);
    let donor = streaming_donor(&c, server).expect("streaming");
    c.kill_replica(server, donor);
    // The donor's fault is detected and delivered while the first
    // launch is still streaming: nothing new is launched for it yet.
    c.run_for(Duration::from_millis(12));
    assert_eq!(c.pending_launches(), first_launch);
    assert_eq!(c.metrics().recoveries_completed, 0);
    c.run_for(Duration::from_secs(1));
    assert!(!c.recovery_in_flight());
    assert_eq!(c.metrics().recoveries_completed, 2, "both replaced");
    assert_eq!(c.hosting(server).len(), 3, "back at full strength");
}
