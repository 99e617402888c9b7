//! Edge cases of the cluster harness and managers: double faults,
//! launches on dead processors, disabled auto-recovery, deployment
//! shapes.

use eternal::app::{CounterServant, StreamingClient};
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
