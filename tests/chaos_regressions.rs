//! Chaos-derived regression tests. Each test pins one recovery-path
//! bug that the deterministic fault-injection campaigns (`repro --
//! chaos`, see `docs/CHAOS.md`) originally exposed, either as a
//! direct cluster-level scenario or as a replay of the exact campaign
//! seed that found it. They must stay green: a reintroduction of any
//! of these bugs flips the corresponding assertion.

use eternal::app::{BlobServant, BurstClient, CounterServant, StreamingClient};
use eternal::chaos::{run_campaign, CampaignConfig, CampaignSummary, Topology};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

fn cluster(seed: u64) -> Cluster {
    Cluster::new(ClusterConfig::default(), seed)
}

/// Pins a campaign's fault schedule: if the draws ever moved, a seed
/// that replays a bug would keep passing on a schedule that no longer
/// hits it. `faults` is the summary's map, `final_ns` its end time.
fn assert_schedule(summary: &CampaignSummary, faults: &[(&str, u64)], final_ns: u64) {
    let drawn: Vec<(&str, u64)> = summary.run.faults.iter().map(|(&k, &n)| (k, n)).collect();
    assert_eq!(drawn, faults, "fault schedule drifted: {summary}");
    assert_eq!(
        summary.run.final_time.as_nanos(),
        final_ns,
        "trajectory drifted: {summary}"
    );
}

/// All live operational replicas of `group`, with their
/// application-level state bytes.
fn replica_states(c: &mut Cluster, group: GroupId) -> Vec<(String, Vec<u8>)> {
    c.hosting(group)
        .into_iter()
        .filter_map(|n| {
            c.probe_application_state(n, group)
                .map(|s| (n.to_string(), s))
        })
        .collect()
}

fn assert_converged(c: &mut Cluster, group: GroupId, replicas: usize) {
    let states = replica_states(c, group);
    assert_eq!(states.len(), replicas, "all replicas live and operational");
    for pair in states.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "replica state diverged between {} and {}",
            pair[0].0, pair[1].0
        );
    }
}

/// Regression: the §4.2.2 handshake replay at a recovered server
/// replica used to go through the full dispatch path, re-executing the
/// application operation piggybacked on the stored handshake request —
/// a permanent +1 divergence from the siblings whose transferred state
/// already contained that operation's effect. The replay must absorb
/// the ORB-level state (request ids, code sets, object-key bindings)
/// without dispatching.
#[test]
fn recovered_server_replica_state_is_byte_identical() {
    let mut c = cluster(7);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(60));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(400));

    assert_eq!(c.metrics().recoveries_completed, 1);
    assert_converged(&mut c, server, 3);
}

/// Regression: load ticks used to be applied directly to each
/// processor's locally *operational* client replicas, outside the
/// total order. A tick landing inside a client-group state-transfer
/// window then advanced the donor after its `get_state` capture, and
/// the recovered sibling came up permanently one burst behind. Ticks
/// now travel through the totally-ordered multicast and obey the §5.1
/// phase discipline (dropped pre-sync, held and replayed during
/// enqueueing) — and the replayed tick must run against the
/// now-operational replica, not be discarded by a stale phase check.
#[test]
fn load_ticks_during_recovery_keep_client_replicas_identical() {
    let mut c = cluster(10);
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let driver = c.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(BurstClient::new(server, "increment", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    // Kill one driver replica, then keep ticking while its replacement
    // is launched and synchronized, so ticks land in every phase of
    // the transfer window.
    let victim = c.hosting(driver)[0];
    c.kill_replica(driver, victim);
    for _ in 0..60 {
        c.run_for(Duration::from_millis(1));
        c.kick_clients();
    }
    c.run_for(Duration::from_millis(500));

    assert!(c.metrics().recoveries_completed >= 1);
    assert!(!c.recovery_in_flight());
    assert_converged(&mut c, driver, 2);
    assert_converged(&mut c, server, 2);
}

/// Regression: when the recovering host died mid-transfer, the
/// donor-side `StateCaptured` notifications still in flight used to
/// re-create the aborted episode in the cluster's bookkeeping, leaving
/// `recovery_in_flight()` true forever (and blocking every later
/// launch of the group). Aborted transfers must stay aborted; the
/// group must still converge back to full strength via a fresh
/// episode.
#[test]
fn crash_of_recovering_host_mid_transfer_releases_recovery_machinery() {
    let mut c = cluster(2);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    // A 200 kB transfer takes tens of virtual milliseconds; stop in
    // the middle of it and crash the recovering host.
    c.run_for(Duration::from_millis(15));
    let (_, new_host) = c
        .pending_launches()
        .into_iter()
        .find(|&(g, _)| g == server)
        .expect("recovery mid-flight");
    c.crash_processor(new_host);

    c.run_for(Duration::from_secs(3));
    assert!(
        !c.recovery_in_flight(),
        "aborted episode resurrected: {:?}",
        c.pending_launches()
    );
    assert_converged(&mut c, server, 2);
}

/// Regression: a processor restart used to reset its transfer-id
/// counter, so the ids it fabricated after the restart collided with
/// pre-crash ids that the survivors' duplicate-suppression tables had
/// already seen — the matching `StateAssignment` was silently dropped
/// and the recovering replica waited forever. Transfer ids now carry
/// the fabricating node's incarnation number. Campaign seed 3 drives
/// exactly this interleaving (restart, then a recovery whose retrieval
/// the restarted node fabricates).
#[test]
fn restarted_processor_transfer_ids_do_not_collide() {
    let summary = run_campaign(&CampaignConfig {
        seed: 3,
        ..CampaignConfig::default()
    });
    assert!(summary.passed(), "{summary}");
    assert_schedule(
        &summary,
        &[
            ("crash_restart", 2),
            ("delay_spike", 4),
            ("kill_mid_transfer", 1),
            ("kill_replica", 2),
            ("loss_burst", 1),
        ],
        911_716_320,
    );
}

/// Regression: a crash + fast restart used to rejoin the Totem ring
/// before token-loss detection ever excluded the node, so the
/// survivors' membership-change fault path never fired and they kept
/// the dead incarnation's replicas in their operational views — even
/// electing the empty node as state donor, wedging every later
/// recovery of those groups. The rejoined node now announces its
/// previous incarnation's replica deaths through the total order.
/// Campaign seed 60 drives exactly this interleaving.
#[test]
fn fast_restart_rejoin_prunes_stale_operational_views() {
    let summary = run_campaign(&CampaignConfig {
        seed: 60,
        ..CampaignConfig::default()
    });
    assert!(summary.passed(), "{summary}");
    assert_schedule(
        &summary,
        &[
            ("delay_spike", 1),
            ("kill_donor_mid_stream", 1),
            ("kill_mid_transfer", 2),
            ("kill_replica", 3),
            ("partition_heal", 3),
        ],
        495_753_160,
    );
}

/// Recovery must complete under sustained message loss: Totem
/// retransmits cover the gaps, and the transfer window simply widens.
/// The driver is limited and the run drained to quiescence before the
/// convergence probe — with traffic still in flight, replicas may
/// legitimately differ by one burst at any given sampling instant
/// (arrival events land at slightly different virtual times per node).
#[test]
fn recovery_completes_under_message_loss() {
    let mut c = cluster(5);
    let limit: u64 = 6_000;
    let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(40));

    c.net_mut().set_loss_probability(0.05);
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_secs(2));
    c.net_mut().set_loss_probability(0.0);

    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit && c.outstanding_calls() == 0 {
            break;
        }
        assert!(c.now() < deadline, "workload failed to drain");
    }
    c.run_for(Duration::from_millis(300));

    assert_eq!(c.metrics().recoveries_completed, 1);
    assert!(!c.recovery_in_flight());
    assert_converged(&mut c, server, 2);
}

/// Cluster with the chunked transfer forced into a long stream: 4 kB
/// chunks over a 200 kB blob is a ~49-chunk pipeline, leaving a wide
/// window for faults to land mid-stream.
fn chunked_cluster(seed: u64) -> Cluster {
    let mut config = ClusterConfig::default();
    config.mech.chunk_bytes = 4_096;
    Cluster::new(config, seed)
}

/// Block until some live processor reports an elected donor for
/// `group` — i.e. the chunk stream is running — and return the donor.
fn wait_for_donor(c: &mut Cluster, group: GroupId) -> eternal_sim::net::NodeId {
    let deadline = c.now() + Duration::from_millis(200);
    loop {
        c.run_for(Duration::from_micros(500));
        let donor = c
            .processors()
            .into_iter()
            .filter(|&n| c.is_alive(n))
            .find_map(|n| c.mechanisms(n).transfer_donor(group));
        if let Some(d) = donor {
            return d;
        }
        assert!(c.now() < deadline, "chunk stream never started");
    }
}

/// The donor dies mid-chunk-stream. The surviving replica — which
/// captured and retained the same checkpoint at the same mark — must
/// take the stream over from the shared cursor (every retaining host
/// tracks the highest contiguously delivered chunk through the total
/// order), not restart the transfer from byte zero. Both the original
/// episode and the relaunch of the donor's own replica must complete,
/// and the group must converge byte-identically at full strength.
#[test]
fn donor_death_mid_chunk_stream_resumes_from_cursor() {
    let mut c = chunked_cluster(11);
    let limit: u64 = 2_000;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(3), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    let donor = wait_for_donor(&mut c, server);
    c.run_for(Duration::from_millis(1));
    c.kill_replica(server, donor);

    // Drain: both the original episode and the relaunch of the donor's
    // own replica must complete, and the bounded workload must finish.
    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
            && c.hosting(server).len() == 3
        {
            break;
        }
        assert!(c.now() < deadline, "group never returned to full strength");
    }
    let takeovers: u64 = c
        .processors()
        .into_iter()
        .filter(|&n| c.is_alive(n))
        .map(|n| c.mechanisms(n).counters().transfer_takeovers)
        .sum();
    assert!(
        takeovers >= 1,
        "survivor should resume the stream from the shared cursor"
    );
    assert!(c.metrics().recoveries_completed >= 2);
    assert_converged(&mut c, server, 3);
}

/// The recovering host crashes mid-chunk-stream. The donor's
/// remaining chunks and suffix messages for the aborted transfer must
/// not resurrect the episode (the chunked analogue of the
/// `StateCaptured` regression above), and a fresh episode must bring
/// the group back to full strength.
#[test]
fn crash_of_recovering_host_mid_chunk_stream_releases_machinery() {
    let mut c = chunked_cluster(4);
    let limit: u64 = 2_000;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(50));

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    wait_for_donor(&mut c, server);
    let (_, new_host) = c
        .pending_launches()
        .into_iter()
        .find(|&(g, _)| g == server)
        .expect("recovery mid-flight");
    c.crash_processor(new_host);

    // Drain to quiescence before probing: the fresh episode must
    // complete and the bounded workload must finish.
    let deadline = c.now() + Duration::from_secs(60);
    loop {
        c.run_for(Duration::from_millis(10));
        if c.metrics().replies_delivered >= limit
            && c.outstanding_calls() == 0
            && !c.recovery_in_flight()
            && c.hosting(server).len() == 2
        {
            break;
        }
        assert!(c.now() < deadline, "group never returned to full strength");
    }
    assert!(
        !c.recovery_in_flight(),
        "aborted chunked episode resurrected: {:?}",
        c.pending_launches()
    );
    assert_converged(&mut c, server, 2);
}

/// A partition cuts the donor off mid-chunk-stream and heals shortly
/// after. Whichever path the membership machinery takes — resuming
/// the stream after the reformation or abandoning the episode and
/// launching a fresh one — the group must converge byte-identically
/// at full strength once the ring is whole again. The driver is
/// bounded and drained before the kill so the only traffic in flight
/// across the partition is the chunk stream itself.
#[test]
fn partition_heal_with_chunks_in_flight_converges() {
    let mut c = chunked_cluster(9);
    let limit: u64 = 200;
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(200_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    c.run_until_deployed();
    let deadline = c.now() + Duration::from_secs(30);
    loop {
        c.run_for(Duration::from_millis(5));
        if c.metrics().replies_delivered >= limit && c.outstanding_calls() == 0 {
            break;
        }
        assert!(c.now() < deadline, "workload failed to drain");
    }

    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    let donor = wait_for_donor(&mut c, server);
    let rest: Vec<_> = c
        .processors()
        .into_iter()
        .filter(|&n| c.is_alive(n) && n != donor)
        .collect();
    c.net_mut().partition(&[&[donor], &rest]);
    c.run_for(Duration::from_millis(20));
    c.net_mut().heal();

    let deadline = c.now() + Duration::from_secs(10);
    loop {
        c.run_for(Duration::from_millis(10));
        if !c.recovery_in_flight() && c.hosting(server).len() == 2 {
            let states = replica_states(&mut c, server);
            if states.len() == 2 {
                break;
            }
        }
        assert!(c.now() < deadline, "group never reconverged after heal");
    }
    assert!(c.metrics().recoveries_completed >= 1);
    assert_converged(&mut c, server, 2);
}

/// The campaign itself is a deterministic function of its seed: two
/// runs with identical configuration must render identical summaries,
/// byte for byte — that is what makes `--seed` a reproduction recipe.
#[test]
fn campaign_replay_is_byte_identical() {
    let cfg = CampaignConfig {
        seed: 17,
        steps: 3,
        topology: Topology::campaign(20_000),
        ..CampaignConfig::default()
    };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.to_string(), b.to_string());
    assert_schedule(
        &a,
        &[
            ("delay_spike", 1),
            ("kill_donor_mid_stream", 1),
            ("loss_burst", 1),
        ],
        212_362_800,
    );
}
