//! Experiment runners reproducing the DSN 2001 evaluation (§6).
//!
//! Each function here regenerates one figure/table/claim of the paper
//! (see `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results):
//!
//! * [`fig6_point`] — **Figure 6**: recovery time of an actively
//!   replicated server vs the size of its application-level state.
//! * [`fig6_timeline`] — the same scenario with observability on,
//!   returning each episode's §5.1 phase breakdown (quiesce →
//!   get_state → transfer → set_state → replay).
//! * [`overhead_point`] — **T1**: fault-free response-time overhead of
//!   interception + multicast + replica consistency vs an unreplicated
//!   point-to-point IIOP baseline (paper: 10–15 %).
//! * [`style_run`] — **T2**: active vs warm passive vs cold passive —
//!   recovery/fail-over time and steady-state resource usage.
//! * [`checkpoint_sweep_point`] — **A3**: checkpoint-interval trade-off
//!   (log length vs fail-over time) for passive replication.
//! * [`frag_threshold`] — **A4**: the fragmentation mechanism behind
//!   Figure 6 (frames needed vs state size around the 1518-byte MTU).
//! * [`ablation_run`] — **A1/A2**: recovery with ORB/POA-level state
//!   transfer disabled reproduces the §4.2.1/§4.2.2 failure modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod health;
pub mod suite;

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::properties::{FaultToleranceProperties, ReplicationStyle};
use eternal_obs::RecoveryTimeline;
use eternal_orb::{ClientConnection, ObjectKey, Orb, ServerConnection};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::{Duration, Scheduler, SimTime};

/// One Figure 6 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Application-level state size configured at the server.
    pub state_bytes: usize,
    /// Bytes of state actually transferred (marshalled `any`).
    pub transferred_bytes: usize,
    /// Measured recovery time (re-launch → reinstatement).
    pub recovery: Duration,
    /// Total network frames the system sent during the run.
    pub frames: u64,
}

/// Runs the paper's §6 experiment for one state size: packet-driver
/// client streaming two-way invocations at a 2-way actively replicated
/// server; one replica killed and re-launched; recovery time measured.
pub fn fig6_point(state_bytes: usize, seed: u64) -> Fig6Point {
    fig6_timeline(state_bytes, seed).point
}

/// A [`fig6_point`] run: the measurement, plus the phase-resolved
/// timeline of each episode.
#[derive(Debug, Clone)]
pub struct TimelineRun {
    /// The Figure 6 measurement itself.
    pub point: Fig6Point,
    /// Phase breakdown (quiesce → get_state → transfer → set_state →
    /// replay) of every completed recovery episode.
    pub timelines: Vec<RecoveryTimeline>,
}

/// Runs the one Figure 6 scenario for one state size and returns the
/// measurement with its per-phase recovery breakdown.
pub fn fig6_timeline(state_bytes: usize, seed: u64) -> TimelineRun {
    let mut cluster = Cluster::new(ClusterConfig::default(), seed);
    let server = cluster.deploy_server("blob", FaultToleranceProperties::active(2), move || {
        Box::new(BlobServant::with_size(state_bytes))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(50));

    let victim = cluster.hosting(server)[0];
    cluster.kill_replica(server, victim);
    cluster.run_for(Duration::from_secs(5));

    let m = cluster.metrics();
    assert_eq!(m.recoveries_completed, 1, "recovery must complete");
    TimelineRun {
        point: Fig6Point {
            state_bytes,
            transferred_bytes: m.recoveries[0].app_state_bytes,
            recovery: m.recoveries[0].recovery_time(),
            frames: cluster.net().frames_sent(),
        },
        timelines: cluster.recovery_timelines().to_vec(),
    }
}

/// One T1 measurement at a given modeled invocation execution time.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// Modeled per-invocation execution time.
    pub exec_time: Duration,
    /// Mean round trip through Eternal (interception + Totem + replica
    /// consistency), actively replicated server (2 replicas).
    pub replicated_rtt: Duration,
    /// Mean round trip of the unreplicated point-to-point baseline.
    pub unreplicated_rtt: Duration,
}

impl OverheadPoint {
    /// Overhead of the fault-tolerant path over the unreplicated one.
    pub fn overhead_pct(&self) -> f64 {
        let r = self.replicated_rtt.as_nanos() as f64;
        let u = self.unreplicated_rtt.as_nanos() as f64;
        (r - u) / u * 100.0
    }
}

/// Measures T1 for one execution-time setting.
pub fn overhead_point(exec_time: Duration, seed: u64) -> OverheadPoint {
    // Replicated path.
    let mut config = ClusterConfig::default();
    config.mech.exec_time = exec_time;
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 1))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_secs(1));
    let replicated_rtt = cluster
        .metrics()
        .mean_round_trip()
        .expect("replicated traffic flowed");

    let unreplicated_rtt = unreplicated_round_trip(exec_time, 500, seed);
    OverheadPoint {
        exec_time,
        replicated_rtt,
        unreplicated_rtt,
    }
}

/// The unreplicated baseline: the same ORB code paths (marshalling,
/// request/reply matching) over direct point-to-point unicast on the
/// same network model — no interception, no multicast, no ordering.
pub fn unreplicated_round_trip(exec_time: Duration, invocations: u32, seed: u64) -> Duration {
    #[derive(Debug)]
    enum Ev {
        RequestArrives(Vec<u8>),
        ReplyArrives(Vec<u8>),
    }
    let mut net = NetworkModel::new(2, NetworkConfig::default(), seed);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let key = ObjectKey::from("counter");
    let mut server_orb = Orb::new("P1");
    server_orb
        .poa_mut()
        .activate_checkpointable(key.clone(), Box::new(CounterServant::default()));
    let mut server_conn = ServerConnection::new(1);
    let mut client = ClientConnection::new(1);

    let mut total = Duration::ZERO;
    let mut completed = 0u32;
    let mut sent_at = SimTime::ZERO;

    // Issue the first request.
    let (_, req) = client
        .build_request(&key, "increment", &[], true)
        .expect("encodes");
    for d in net.unicast(NodeId(0), NodeId(1), req.len().min(1472), SimTime::ZERO) {
        sched.schedule_at(d.at, Ev::RequestArrives(req.clone()));
    }

    while let Some((now, ev)) = sched.pop() {
        match ev {
            Ev::RequestArrives(bytes) => {
                let reply = server_conn
                    .handle_request(&bytes, server_orb.poa_mut())
                    .expect("parses")
                    .expect("two-way");
                let send_at = now + exec_time;
                for d in net.unicast(NodeId(1), NodeId(0), reply.len().min(1472), send_at) {
                    sched.schedule_at(d.at, Ev::ReplyArrives(reply.clone()));
                }
            }
            Ev::ReplyArrives(bytes) => {
                client.handle_reply(&bytes).expect("matches");
                total += now - sent_at;
                completed += 1;
                if completed >= invocations {
                    break;
                }
                sent_at = now;
                let (_, req) = client
                    .build_request(&key, "increment", &[], true)
                    .expect("encodes");
                for d in net.unicast(NodeId(0), NodeId(1), req.len().min(1472), now) {
                    sched.schedule_at(d.at, Ev::RequestArrives(req.clone()));
                }
            }
        }
    }
    assert!(completed > 0, "baseline must complete invocations");
    Duration::from_nanos(total.as_nanos() / completed as u64)
}

/// One T2 row: behaviour of a replication style under a primary/replica
/// failure with a constant invocation stream.
#[derive(Debug, Clone)]
pub struct StyleRun {
    /// The style measured.
    pub style: ReplicationStyle,
    /// Client-visible service interruption. Active replication masks
    /// the failure entirely (§3.1): the sibling replica keeps answering,
    /// so this is zero. Passive styles stall until the backup is
    /// promoted and has replayed the log suffix.
    pub service_interruption: Duration,
    /// Time until full redundancy/service capacity is restored: the
    /// §5.1 state transfer (active) or the promotion (passive).
    pub redundancy_restored: Duration,
    /// State-transfer recovery time (active style; none for promotions).
    pub recovery_time: Option<Duration>,
    /// Network frames sent over the whole run (resource usage).
    pub frames: u64,
    /// Wire bytes sent over the whole run.
    pub wire_bytes: u64,
    /// Checkpoints logged during the run.
    pub checkpoints: u64,
    /// Messages appended to checkpoint logs.
    pub messages_logged: u64,
    /// Replies the client received over the run.
    pub replies: u64,
}

/// Runs the T2 scenario for one replication style.
pub fn style_run(style: ReplicationStyle, seed: u64) -> StyleRun {
    let mut cluster = Cluster::new(ClusterConfig::default(), seed);
    let props = match style {
        ReplicationStyle::Active => FaultToleranceProperties::active(2),
        ReplicationStyle::WarmPassive => FaultToleranceProperties::warm_passive(2)
            .with_checkpoint_interval(Duration::from_millis(25))
            .with_min_replicas(1),
        ReplicationStyle::ColdPassive => FaultToleranceProperties::cold_passive(2)
            .with_checkpoint_interval(Duration::from_millis(25))
            .with_min_replicas(1),
    };
    let server = cluster.deploy_server("blob", props, || Box::new(BlobServant::with_size(10_000)));
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(200));

    // Kill the replica that is actually serving.
    let victim = match style {
        ReplicationStyle::Active => cluster.hosting(server)[0],
        _ => cluster
            .mechanisms(cluster.processors()[0])
            .primary_host(server)
            .expect("primary exists"),
    };
    let kill_time = cluster.now();
    let replies_before_kill = cluster.metrics().replies_delivered;
    cluster.kill_replica(server, victim);
    cluster.run_for(Duration::from_secs(2));

    let m = cluster.metrics();
    let restored_at = match style {
        ReplicationStyle::Active => m.recoveries.first().map(|r| r.operational_at),
        _ => m.promoted.first().map(|p| p.ready_at),
    };
    let redundancy_restored = restored_at
        .map(|t| t.saturating_since(kill_time))
        .unwrap_or(Duration::ZERO);
    // Active replication masks the failure: the sibling answers
    // throughout, so the client never stalls. Passive styles stall
    // until promotion completes.
    let interruption = match style {
        ReplicationStyle::Active => Duration::ZERO,
        _ => redundancy_restored,
    };
    assert!(
        m.replies_delivered > replies_before_kill,
        "service must resume after the failure"
    );
    StyleRun {
        style,
        service_interruption: interruption,
        redundancy_restored,
        recovery_time: m.recoveries.first().map(|r| r.recovery_time()),
        frames: cluster.net().frames_sent(),
        wire_bytes: cluster.net().bytes_sent(),
        checkpoints: m.checkpoints_logged,
        messages_logged: m.messages_logged,
        replies: m.replies_delivered,
    }
}

/// One A3 measurement: a checkpoint interval and its consequences.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSweepPoint {
    /// The interval swept.
    pub interval: Duration,
    /// Checkpoints taken during the steady-state window.
    pub checkpoints: u64,
    /// Messages in the log suffix at the moment the primary was killed
    /// (what the new primary must replay).
    pub suffix_at_kill: usize,
    /// Messages the promotion actually replayed.
    pub replayed: usize,
    /// Wire bytes spent during the steady-state window (checkpoint
    /// traffic cost).
    pub steady_state_bytes: u64,
}

/// Runs the A3 scenario for one checkpoint interval (warm passive).
pub fn checkpoint_sweep_point(interval: Duration, seed: u64) -> CheckpointSweepPoint {
    let mut cluster = Cluster::new(ClusterConfig::default(), seed);
    let server = cluster.deploy_server(
        "blob",
        FaultToleranceProperties::warm_passive(2)
            .with_checkpoint_interval(interval)
            .with_min_replicas(1),
        || Box::new(BlobServant::with_size(5_000)),
    );
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2))
    });
    cluster.run_until_deployed();
    let bytes_start = cluster.net().bytes_sent();
    cluster.run_for(Duration::from_millis(400));
    let steady_state_bytes = cluster.net().bytes_sent() - bytes_start;
    let checkpoints = cluster.metrics().checkpoints_logged;

    // Land the kill mid-interval (two thirds in), so the replayed suffix
    // reflects the interval rather than a lucky checkpoint boundary.
    cluster.run_for(Duration::from_nanos(interval.as_nanos() * 2 / 3));

    let primary = cluster
        .mechanisms(cluster.processors()[0])
        .primary_host(server)
        .expect("primary exists");
    // The (warm) backup is the other instance; its local log feeds the
    // promotion replay.
    let backup = cluster
        .hosting(server)
        .into_iter()
        .find(|&n| n != primary)
        .expect("warm backup instance exists");
    let suffix_at_kill = cluster.mechanisms(backup).log_suffix_len(server);
    cluster.kill_replica(server, primary);
    cluster.run_for(Duration::from_millis(500));

    let replayed = cluster.metrics().promoted.last().map_or(0, |p| p.replayed);
    CheckpointSweepPoint {
        interval,
        checkpoints,
        suffix_at_kill,
        replayed,
        steady_state_bytes,
    }
}

/// One A4 row: frames needed to carry a state of the given size.
#[derive(Debug, Clone, Copy)]
pub struct FragPoint {
    /// Application state size.
    pub state_bytes: usize,
    /// Frames a single state-transfer message needs on this network.
    pub frames_for_state: usize,
    /// Measured recovery time.
    pub recovery: Duration,
}

/// Runs A4: fine sweep of state sizes around the one-frame threshold.
pub fn frag_threshold(sizes: &[usize], seed: u64) -> Vec<FragPoint> {
    let net_cfg = NetworkConfig::default();
    sizes
        .iter()
        .map(|&s| {
            let p = fig6_point(s, seed);
            FragPoint {
                state_bytes: s,
                frames_for_state: net_cfg.frames_for(p.transferred_bytes),
                recovery: p.recovery,
            }
        })
        .collect()
}

/// One A5 row: the effect of the replication degree.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaCountPoint {
    /// Number of active replicas.
    pub replicas: usize,
    /// §5.1 recovery time after one replica is killed.
    pub recovery: Duration,
    /// Duplicates suppressed over the run (grows with the degree).
    pub duplicates: u64,
    /// Total frames on the wire (resource usage).
    pub frames: u64,
}

/// Runs A5: recovery and steady-state cost as the active replication
/// degree grows (the "more resource-intensive" half of the §6 claim,
/// quantified per replica added).
pub fn replica_count_point(replicas: usize, seed: u64) -> ReplicaCountPoint {
    let config = ClusterConfig {
        processors: (replicas as u32 + 2).max(4),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("blob", FaultToleranceProperties::active(replicas), || {
        Box::new(BlobServant::with_size(10_000))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 2))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(100));
    let victim = cluster.hosting(server)[0];
    cluster.kill_replica(server, victim);
    cluster.run_for(Duration::from_secs(2));
    let m = cluster.metrics();
    assert_eq!(m.recoveries_completed, 1);
    ReplicaCountPoint {
        replicas,
        recovery: m.recoveries[0].recovery_time(),
        duplicates: m.duplicates_suppressed,
        frames: cluster.net().frames_sent(),
    }
}

/// Outcome of the end-to-end causal-tracing run behind
/// `repro -- trace`: the recorder's deterministic exports plus the
/// cluster-wide total-order verification (see `docs/TRACING.md`).
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Chrome trace-event JSON of the retained causal history
    /// (`chrome://tracing` / Perfetto), byte-identical per seed.
    pub chrome_json: String,
    /// Structural span-tree signature (invariant under batching).
    pub tree_signature: String,
    /// Total-order violations found (empty = the paper's claim holds).
    pub violations: Vec<String>,
    /// Causal spans retained.
    pub spans: usize,
    /// Distinct traces retained.
    pub trace_count: usize,
    /// Indented span tree of the first retained trace, as a sample.
    pub sample_tree: String,
    /// Causal-recorder ring overflow: spans evicted before export
    /// (nonzero = the Chrome trace shows a truncated history).
    pub dropped_events: u64,
}

/// Runs the causal-tracing scenario: a 3-way actively replicated
/// counter and a streaming client with [`ClusterConfig::trace`] on, so
/// every invocation is traced from client marshal through Totem
/// delivery on all three replicas to the reply match.
pub fn trace_run(seed: u64) -> TraceRun {
    let config = ClusterConfig {
        trace: true,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(3), || {
        Box::new(CounterServant::default())
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 4))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(50));
    let rec = cluster.causal();
    let ids = rec.trace_ids();
    let sample_tree = ids
        .first()
        .map(|&t| rec.span_tree_text(t))
        .unwrap_or_default();
    TraceRun {
        chrome_json: rec.chrome_trace_json(),
        tree_signature: rec.tree_signature(),
        violations: rec.verify_total_order(),
        spans: rec.len(),
        trace_count: ids.len(),
        sample_tree,
        dropped_events: rec.dropped(),
    }
}

/// The A1/A2 ablation outcome.
#[derive(Debug, Clone, Copy)]
pub struct AblationRun {
    /// Whether ORB/POA-level state was transferred.
    pub orb_state_transferred: bool,
    /// §4.2.1 failures: replies discarded by client ORBs.
    pub replies_discarded: u64,
    /// §4.2.2 failures: requests discarded by unnegotiated server ORBs.
    pub requests_discarded: u64,
    /// Replies delivered after the recovery.
    pub post_recovery_replies: u64,
}

/// Runs the recovery scenario with or without ORB/POA-level state
/// transfer, recovering either a client or a server replica.
pub fn ablation_run(transfer_orb_state: bool, recover_client: bool, seed: u64) -> AblationRun {
    let mut config = ClusterConfig::default();
    config.mech.transfer_orb_state = transfer_orb_state;
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let client = cluster.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(50));

    let group: GroupId = if recover_client { client } else { server };
    let victim = cluster.hosting(group)[0];
    cluster.kill_replica(group, victim);
    cluster.run_for(Duration::from_millis(100));
    let before = cluster.metrics().replies_delivered;
    cluster.run_for(Duration::from_millis(200));

    let m = cluster.metrics();
    AblationRun {
        orb_state_transferred: transfer_orb_state,
        replies_discarded: m.replies_discarded_by_orb,
        requests_discarded: m.requests_discarded_unnegotiated,
        post_recovery_replies: m.replies_delivered - before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_is_monotone_in_state_size() {
        let small = fig6_point(10, 1);
        let large = fig6_point(200_000, 1);
        assert!(
            large.recovery > small.recovery,
            "recovery time must grow with state size: {} vs {}",
            small.recovery,
            large.recovery
        );
        assert!(large.transferred_bytes > 200_000);
    }

    #[test]
    fn overhead_shrinks_with_execution_time() {
        let fast = overhead_point(Duration::from_micros(100), 2);
        let slow = overhead_point(Duration::from_millis(2), 2);
        assert!(fast.overhead_pct() > slow.overhead_pct());
        assert!(slow.overhead_pct() > 0.0, "replication is never free");
    }

    #[test]
    fn baseline_round_trip_is_sane() {
        let rtt = unreplicated_round_trip(Duration::from_micros(50), 100, 3);
        // 2 × (serialization + propagation + cpu) + exec ≈ 190 µs.
        assert!(rtt > Duration::from_micros(100));
        assert!(rtt < Duration::from_millis(1));
    }

    #[test]
    fn ablation_reproduces_figure4() {
        let healthy = ablation_run(true, true, 4);
        assert_eq!(healthy.replies_discarded, 0);
        assert!(healthy.post_recovery_replies > 0);
        let crippled = ablation_run(false, true, 4);
        assert!(
            crippled.replies_discarded > 0,
            "request-id desync must surface"
        );
    }
}
