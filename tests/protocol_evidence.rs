//! Direct evidence that the §5.1 protocol steps actually execute, and
//! that the whole stack survives a lossy network.

use eternal::app::{BlobServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

#[test]
fn recovery_drops_pre_sync_and_enqueues_post_sync_traffic() {
    // §5.1 steps i–ii: with a large state (slow transfer) and a fast
    // client, the recovering replica must observe BOTH phases: normal
    // messages arriving before its get_state sync point (dropped — the
    // transferred state contains their effects) and messages arriving
    // between sync point and set_state (enqueued, delivered afterwards).
    //
    // Token-visit batching is disabled here: it packs the driver's
    // requests into single ring frames, so whether any land inside the
    // (few-seqs-wide) pre-sync and enqueue windows becomes an
    // all-or-nothing accident of ring position. Unbatched trickle
    // traffic reliably straddles both windows; batched recovery
    // correctness is covered by the `batching_invariants` suite.
    let mut config = ClusterConfig::default();
    config.totem.batch_budget_bytes = 0;
    let mut c = Cluster::new(config, 50);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(300_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 6))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_secs(5));

    let m = c.metrics();
    assert_eq!(m.recoveries_completed, 1);
    // The replacement landed back on the victim's processor (designated
    // host preference), whose mechanisms carry the §5.1 counters.
    let counters = c.mechanisms(victim).counters();
    assert!(
        counters.dropped_pre_sync > 0,
        "step i: traffic before the sync point was dropped ({:?})",
        counters
    );
    assert!(
        counters.enqueued_during_recovery > 0,
        "step ii: traffic during the transfer was enqueued ({:?})",
        counters
    );
    // And the service stayed consistent throughout.
    assert_eq!(m.replies_discarded_by_orb, 0);
    assert_eq!(m.requests_discarded_unnegotiated, 0);
}

#[test]
fn full_stack_survives_a_lossy_network() {
    // 2 % frame loss under constant load: Totem repairs every gap, the
    // mechanisms stay consistent, and recovery still works.
    let mut config = ClusterConfig::default();
    config.net.loss_probability = 0.02;
    let mut c = Cluster::new(config, 51);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(5_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 3))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(100));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_secs(5));

    let m = c.metrics();
    assert!(c.net().frames_dropped() > 0, "loss actually occurred");
    assert_eq!(m.recoveries_completed, 1, "recovery completed despite loss");
    assert_eq!(m.replies_discarded_by_orb, 0);
    let before = m.replies_delivered;
    c.run_for(Duration::from_millis(200));
    assert!(c.metrics().replies_delivered > before, "stream healthy");
}

#[test]
fn no_checkpoint_traffic_for_active_groups_until_recovery() {
    // §3.3: "For active replication, there is no need to log any
    // checkpoints or messages until a replica is being recovered."
    let config = ClusterConfig::default();
    let mut c = Cluster::new(config, 52);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(1_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(300));
    let m = c.metrics();
    assert_eq!(m.checkpoints_logged, 0, "no periodic checkpoints");
    assert_eq!(m.messages_logged, 0, "no message logging");
    // Recovery performs exactly one state transfer.
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(300));
    assert_eq!(c.metrics().recoveries_completed, 1);
}

#[test]
fn passive_groups_log_continuously_but_transfer_rarely() {
    // The flip side of the §6 trade-off: warm passive logs constantly
    // (checkpoints + suffixes) but performs no §5.1 transfers while the
    // primary is healthy.
    let config = ClusterConfig::default();
    let mut c = Cluster::new(config, 53);
    let server = c.deploy_server(
        "blob",
        FaultToleranceProperties::warm_passive(2)
            .with_checkpoint_interval(Duration::from_millis(20))
            .with_min_replicas(1),
        || Box::new(BlobServant::with_size(1_000)),
    );
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(300));
    let m = c.metrics();
    assert!(m.checkpoints_logged >= 20, "periodic checkpoints flowing");
    assert!(m.messages_logged > 100, "suffix logging active");
    assert_eq!(m.recoveries_completed, 0, "no §5.1 transfer needed");
}
