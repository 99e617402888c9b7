//! Controlled single-fault scenarios for the cluster-health subsystem.
//!
//! The chaos campaigns (`chaos.rs`) prove the *invariants* under a
//! randomized fault schedule; this module proves the *detectors*: each
//! scenario runs a standard replicated workload with health monitoring
//! on, injects exactly one fault class (or none), and hands back the
//! whole [`Cluster`] so callers can interrogate the auditor's agreed
//! epoch stream. The detection-coverage matrix test and the
//! `repro -- health` runner both drive it; every choice in here is
//! deterministic (first host, highest safe processor, midpoint split),
//! so the same seed reproduces the same epochs and diagnoses byte for
//! byte. See `docs/HEALTH.md` for the fault → detector map.

use crate::app::{BlobServant, BurstClient, CounterServant};
use crate::chaos::{self, FaultKind};
use crate::cluster::{Cluster, ClusterConfig};
use crate::gid::GroupId;
use crate::properties::FaultToleranceProperties;
use eternal_obs::health::{AuditorConfig, Detector};
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};

/// Parameters of one scenario.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Network-model seed (the scenario itself draws no randomness).
    pub seed: u64,
    /// The single fault class to inject, or `None` for a fault-free
    /// run (which must fire zero diagnoses).
    pub fault: Option<FaultKind>,
    /// Salt one group's published state digest mid-run — the only way
    /// to make the paper's mechanisms "diverge", proving the
    /// [`Detector::DigestDivergence`] path end to end.
    pub corrupt_digest: bool,
    /// Throttle flow control to one new message per token visit with
    /// batching off (and shrink the blob so its transfer doesn't crawl).
    /// A throttled ring saturates under the standard workload — even
    /// health snapshots queue — so only overload scenarios set this.
    pub throttled_ring: bool,
    /// Number of client re-bursts in an overload phase (0 = no such
    /// phase), spaced 500 µs apart. A sustained count (≈40) through a
    /// throttled ring outruns it for many health epochs and
    /// [`Detector::BackpressureGrowth`] must fire; a short count on the
    /// default ring is a transient spike that drains, and every
    /// detector must stay silent. Not a [`FaultKind`]: overload is a
    /// load shape, not a failure, and keeping it out of the chaos fault
    /// set preserves the campaigns' RNG schedule byte for byte.
    pub overload_kicks: u32,
}

/// Health-snapshot publish interval of every scenario.
const PERIOD: Duration = Duration::from_millis(1);

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            seed: 42,
            fault: None,
            corrupt_digest: false,
            throttled_ring: false,
            overload_kicks: 0,
        }
    }
}

/// A finished scenario: the cluster (auditor, registry, trace intact)
/// plus what was done to it.
#[derive(Debug)]
pub struct LabRun {
    /// The cluster after the run; `cluster.health_auditor()` holds the
    /// agreed epoch stream and every diagnosis.
    pub cluster: Cluster,
    /// The injected fault, if any.
    pub fault: Option<FaultKind>,
    /// Virtual time at which the fault (or digest corruption) was
    /// injected.
    pub injected_at: Option<SimTime>,
    /// The counter server group.
    pub counter: GroupId,
    /// The blob server group (large state; recovery spans many frames).
    pub blob: GroupId,
}

/// The documented fault → detector coverage map: the detector that
/// MUST fire (possibly among others) when the scenario injects `fault`.
pub const fn expected_detector(fault: FaultKind) -> Detector {
    match fault {
        // Recovery SLO is tightened so a normal blob transfer overruns.
        FaultKind::KillReplica => Detector::RecoveryOverrun,
        // Crashing the recovering host prolongs recovery past the SLO.
        FaultKind::KillMidTransfer => Detector::RecoveryOverrun,
        // Killing the donor mid-chunk-stream does too: the takeover
        // resumes the stream, but the episode stretches past the SLO.
        FaultKind::KillDonorMidStream => Detector::RecoveryOverrun,
        // A crashed processor stops publishing; the survivors notice.
        FaultKind::CrashRestart => Detector::ReplicaSilence,
        // Partition + heal forces at least two reformations close
        // together on every surviving node.
        FaultKind::PartitionHeal => Detector::ReformationStorm,
        // Frame loss under load drives token and message retransmits.
        FaultKind::LossBurst => Detector::RetransmitSurge,
        // 2.5 ms propagation makes a 5-hop token rotation exceed the
        // 8 ms token-slow threshold without tripping token-loss timers.
        FaultKind::DelaySpike => Detector::TokenStall,
    }
}

/// The auditor thresholds each scenario runs with: defaults, except
/// where the fault class needs a controlled SLO to make detection
/// deterministic (documented per arm).
pub fn auditor_config_for(fault: Option<FaultKind>) -> AuditorConfig {
    let base = AuditorConfig::default();
    match fault {
        // A 60 kB blob transfer takes ~5 ms of virtual time; a 2 ms
        // recovery SLO turns every §5.1 episode into an overrun.
        Some(FaultKind::KillReplica)
        | Some(FaultKind::KillMidTransfer)
        | Some(FaultKind::KillDonorMidStream) => AuditorConfig {
            recovery_deadline_ns: 2_000_000,
            ..base
        },
        // The two reformations (partition, heal) are separated by the
        // hold; widen the delta window so both land in it.
        Some(FaultKind::PartitionHeal) => AuditorConfig {
            window_epochs: 64,
            ..base
        },
        // The lab workload is light (a few dozen broadcasts per burst),
        // so even 30 % frame loss yields single-digit retransmissions
        // per window; a controlled surge budget keeps detection
        // deterministic. Fault-free runs see zero retransmissions, so
        // this cannot false-positive the baseline phase.
        Some(FaultKind::LossBurst) => AuditorConfig {
            retransmit_surge: 4,
            ..base
        },
        _ => base,
    }
}

/// Runs one scenario to completion.
pub fn run_scenario(cfg: &LabConfig) -> LabRun {
    let mut cluster_cfg = ClusterConfig {
        processors: chaos::PROCESSORS,
        health_period: PERIOD,
        health_auditor: auditor_config_for(cfg.fault),
        ..ClusterConfig::default()
    };
    // Small chunks: the blob's transfer streams long enough that the
    // donor-kill scenario has a window to land in.
    cluster_cfg.mech.chunk_bytes = 4_096;
    if cfg.throttled_ring {
        // One new message per token visit and no batching: offered
        // load can now outrun the ring, which is the point.
        cluster_cfg.totem.max_messages_per_token = 1;
        cluster_cfg.totem.batch_budget_bytes = 0;
    }
    let mut cluster = Cluster::new(cluster_cfg, cfg.seed.wrapping_add(1));

    // Overload runs shrink the blob: its state transfer is irrelevant
    // to backpressure and would crawl through the throttled ring.
    let blob_size = if cfg.throttled_ring { 4_000 } else { 60_000 };
    let counter = cluster.deploy_server(
        "health-counter",
        FaultToleranceProperties::active(3),
        || Box::new(CounterServant::default()),
    );
    // Three replicas: the donor-kill scenario consumes the recovering
    // replica and the donor and still needs a survivor to take over.
    let blob = cluster.deploy_server(
        "health-blob",
        FaultToleranceProperties::active(3),
        move || Box::new(BlobServant::with_size(blob_size)),
    );
    cluster.deploy_client(
        "health-counter-driver",
        FaultToleranceProperties::active(2),
        move |_| Box::new(BurstClient::new(counter, "increment", chaos::BURST)),
    );
    cluster.deploy_client(
        "health-blob-driver",
        FaultToleranceProperties::active(2),
        move |_| Box::new(BurstClient::new(blob, "touch", chaos::BURST)),
    );
    cluster.run_until_deployed();

    // Baseline: traffic over a healthy ring. Long enough that the
    // deployment transient (launch-phase recovering runs, initial
    // reformation) ages out of every detector window before injection.
    cluster.kick_clients();
    cluster.run_for(Duration::from_millis(30));

    let mut injected_at = None;
    if cfg.corrupt_digest {
        injected_at = Some(cluster.now());
        cluster.corrupt_health_digest(NodeId(0), counter);
        cluster.run_for(Duration::from_millis(20));
    }
    if cfg.overload_kicks > 0 {
        injected_at = Some(cluster.now());
        // Feed bursts faster than one-message-per-visit can drain: a
        // sustained phase makes the pending queues at the client hosts
        // climb monotonically across well over a full detector window
        // of health epochs, while a short one is a spike the drain
        // below absorbs. Either way the post-phase drain shows the
        // detector (if it fired) re-arming.
        for _ in 0..cfg.overload_kicks {
            cluster.kick_clients();
            cluster.run_for(Duration::from_micros(500));
        }
    }
    if let Some(fault) = cfg.fault {
        injected_at = Some(cluster.now());
        inject(&mut cluster, blob, fault);
    }

    // Drain to quiescence so summaries cover the full episode.
    cluster.kick_clients();
    cluster.run_for(Duration::from_millis(50));

    LabRun {
        cluster,
        fault: cfg.fault,
        injected_at,
        counter,
        blob,
    }
}

/// Runs `fault`'s script (`chaos.rs`) with the lab's constants, then
/// lets the episode play out.
fn inject(cluster: &mut Cluster, blob: GroupId, fault: FaultKind) {
    let ms = Duration::from_millis;
    // The lowest-id live host of the blob: a deterministic victim.
    let first_host = cluster.hosting(blob)[0];
    let tail = match fault {
        FaultKind::KillReplica => {
            cluster.kill_replica(blob, first_host);
            ms(150)
        }
        FaultKind::CrashRestart => {
            // The highest-id processor every group can survive losing,
            // held down well past the silence thresholds while the
            // survivors keep publishing.
            let victim = cluster
                .live_processors()
                .into_iter()
                .rev()
                .find(|&n| cluster.safe_to_crash(n))
                .expect("some processor is safe to crash");
            chaos::crash_restart(cluster, victim, ms(60), Duration::ZERO);
            ms(150)
        }
        FaultKind::PartitionHeal => {
            // Long enough for each side to install its own ring — the
            // token-loss timeout (30 ms) plus the consensus timeout that
            // gives up on the other side (40 ms) — so the heal forces a
            // second reformation.
            let cut = cluster.live_processors().len() / 2 + 1;
            chaos::partition_heal(cluster, cut, ms(100));
            ms(200)
        }
        FaultKind::LossBurst => {
            // Keep traffic flowing through the lossy window so dropped
            // frames keep landing in the token's retransmit-request set.
            chaos::loss_burst(cluster, 0.3, 6, ms(10));
            ms(100)
        }
        FaultKind::DelaySpike => {
            chaos::delay_spike(cluster, Duration::from_micros(2_500), false, ms(80));
            ms(60)
        }
        FaultKind::KillMidTransfer => {
            // Crash the recovering host itself, 1 ms into its transfer.
            if let Some(new_host) = chaos::kill_mid_transfer(cluster, blob, first_host, || ms(1)) {
                chaos::crash_restart(cluster, new_host, ms(40), Duration::ZERO);
            }
            ms(250)
        }
        FaultKind::KillDonorMidStream => {
            // A survivor resumes the stream from the cursor, and the
            // stretched episode overruns the tightened recovery SLO.
            chaos::kill_donor_mid_stream(cluster, blob, first_host, || ms(1));
            ms(250)
        }
    };
    cluster.run_for(tail);
}
