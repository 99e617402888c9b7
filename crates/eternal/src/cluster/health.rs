//! The cluster's side of health monitoring (docs/HEALTH.md):
//! backpressure samples, snapshot publishing, and the epoch each
//! snapshot is assigned at its first delivery.

use super::Cluster;
use crate::gid::GroupId;
use crate::message::EternalMessage;
use eternal_obs::causal::TraceTag;
use eternal_obs::health::{HealthAuditor, HealthSnapshot};
use eternal_obs::EventKind;
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use eternal_totem::node::Phase;

/// Backpressure gauges for one processor, sampled as the rotating
/// token leaves it (so every sample sits at a token-visit boundary —
/// the same instant flow control makes its send/hold decision). The
/// node's next [`HealthSnapshot`] publishes the latest sample, and the
/// cluster registry exports the live-node sums as gauges.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct BackpressureSample {
    /// Totem pending-queue depth (messages waiting for the token).
    pub(super) pending_depth: u64,
    /// Flow-control window slots in use as the token left.
    pub(super) flow_occupancy: u64,
    /// Bytes buffered in partially reassembled Eternal messages.
    pub(super) reassembly_bytes: u64,
    /// Checkpoint-log suffix length summed over the node's replicas.
    pub(super) log_suffix: u64,
}

impl Cluster {
    /// The online health auditor: the agreed epoch stream and every
    /// diagnosis fired so far. Empty unless
    /// [`ClusterConfig::health_period`](super::ClusterConfig::health_period) is nonzero.
    pub fn health_auditor(&self) -> &HealthAuditor {
        &self.health_auditor
    }

    /// Salts `group`'s state digest as published by `node` from now on
    /// — a test hook proving the auditor's divergence detector fires on
    /// real digest mismatches (the paper's mechanisms never diverge on
    /// their own; see `docs/HEALTH.md`).
    pub fn corrupt_health_digest(&mut self, node: NodeId, group: GroupId) {
        self.procs[node.0 as usize]
            .mech
            .corrupt_health_digest(group);
    }

    /// Refreshes `node`'s backpressure gauges at a token-visit
    /// boundary. The sample feeds three consumers: the node's next
    /// [`HealthSnapshot`] (so the auditor's queue-growth detector sees
    /// an agreed, totally-ordered depth series), the cluster metrics
    /// registry (dashboard export), and — indirectly — the attribution
    /// report's token-wait phase, which these depths explain.
    pub(super) fn sample_backpressure(&mut self, node: NodeId) {
        let totem = self.ring.node(node);
        let proc = &mut self.procs[node.0 as usize];
        proc.backpressure = BackpressureSample {
            pending_depth: totem.backlog() as u64,
            flow_occupancy: totem.flow_occupancy(),
            reassembly_bytes: proc.reasm.pending_bytes() as u64,
            log_suffix: proc.mech.log_suffix_total() as u64,
        };
    }

    /// Publishes one [`HealthSnapshot`] from `node` through the total
    /// order. Only live members of an operational ring publish —
    /// silence during reformation or partition is itself the signal the
    /// auditor's [`eternal_obs::health::Detector::ReplicaSilence`]
    /// detector listens for.
    pub(super) fn publish_health(&mut self, node: NodeId, now: SimTime) {
        if !self.is_alive(node) {
            return;
        }
        let totem = self.ring.node(node);
        if totem.phase() != Phase::Operational {
            return;
        }
        let proc = &mut self.procs[node.0 as usize];
        // No token circulates on a singleton ring; report a zero age
        // rather than time-since-the-ring-last-had-peers.
        let token_age = if totem.members().len() <= 1 {
            Duration::ZERO
        } else {
            proc.last_token_at.map_or(Duration::ZERO, |t| now - t)
        };
        let stats = totem.stats();
        let mech = &proc.mech;
        // Backpressure gauges come from the latest token-visit sample
        // rather than being re-read here: the health tick fires at an
        // arbitrary point in the rotation, and sampling mid-visit would
        // conflate "waiting for the token" with "backlogged".
        let bp = proc.backpressure;
        let seq = proc.health_seq;
        proc.health_seq += 1;
        let snap = Box::new(HealthSnapshot {
            node: u64::from(node.0),
            seq,
            published_ns: now.as_nanos(),
            token_age_ns: token_age.as_nanos(),
            broadcasts: stats.broadcasts,
            delivered: stats.delivered,
            retransmits: stats.retransmits_served + stats.token_retransmits,
            reformations: stats.reformations,
            holding_depth: mech.holding_depth_total() as u64,
            reassembly_depth: proc.reasm.pending() as u64,
            dedup_resident: mech.dedup_resident() as u64,
            recovering: mech.recovering_replicas() as u64,
            pending_depth: bp.pending_depth,
            flow_occupancy: bp.flow_occupancy,
            reassembly_bytes: bp.reassembly_bytes,
            log_suffix: bp.log_suffix,
            digest_epoch: proc.health_digest_epoch,
            digests: mech.health_digests().to_vec(),
        });
        self.record_event(
            format!("{node}/health"),
            EventKind::HealthSnapshot,
            format!("seq#{seq}"),
        );
        self.registry.counter_add("health.snapshots_published", 1);
        self.do_multicast(node, EternalMessage::Health { snap }, now, TraceTag::NONE);
    }

    /// Reacts to a delivered health snapshot at `node`. The epoch is
    /// assigned at the message's *first* delivery anywhere (that order
    /// is the total order), and the auditor observes each message
    /// exactly once, at that assignment. Every delivering node also
    /// tags its next snapshot's state digests with this epoch, so the
    /// auditor only ever compares digests captured at the same
    /// total-order point.
    pub(super) fn on_health_delivered(
        &mut self,
        node: NodeId,
        snap: &HealthSnapshot,
        now: SimTime,
    ) {
        let key = (snap.node, snap.seq);
        let epoch = match self.health_epoch_of.get(&key) {
            Some(&e) => e,
            None => {
                let e = self.next_health_epoch;
                self.next_health_epoch += 1;
                self.health_epoch_of.insert(key, e);
                // All deliveries of one message land within a few
                // rotations; entries far behind the frontier are dead.
                if self.health_epoch_of.len() > 2048 {
                    let floor = e.saturating_sub(1024);
                    self.health_epoch_of.retain(|_, &mut v| v >= floor);
                }
                for d in self.health_auditor.observe(e, now.as_nanos(), snap) {
                    self.registry.counter_add("health.diagnoses", 1);
                    self.registry
                        .counter_add(&format!("health.diagnoses.{}", d.severity.name()), 1);
                    self.registry
                        .counter_add(&format!("health.detector.{}", d.detector.name()), 1);
                    self.record_event(
                        "cluster/health-auditor",
                        EventKind::HealthDiagnosis,
                        d.to_string(),
                    );
                }
                e
            }
        };
        self.procs[node.0 as usize].health_digest_epoch = epoch;
    }
}
