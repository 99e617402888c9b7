//! Read-only views of a running cluster for tests, harnesses and
//! reports: accessors, probes, the aggregated metrics (fed from one sum
//! of the processors' [`MechCounters`]), digests and the status report.

use super::{Cluster, Processor};
use crate::gid::{ConnectionName, GroupId};
use crate::hash::{fold_word, hash_bytes, FNV_OFFSET};
use crate::mechanisms::{MechCounters, Mechanisms};
use crate::message::{Delivered, EternalMessage};
use crate::metrics::Metrics;
use eternal_obs::causal::CausalRecorder;
use eternal_obs::{EventKind, MetricsRegistry, RecoveryTimeline};
use eternal_sim::net::{NetworkModel, NodeId};
use eternal_sim::trace::Trace;
use eternal_sim::Duration;

impl Cluster {
    /// Whether every group keeps a live replica elsewhere if `victim`
    /// goes down (fault scripts never take a whole group out).
    pub fn safe_to_crash(&self, victim: NodeId) -> bool {
        self.groups
            .values()
            .all(|g| g.hosting.iter().any(|&n| n != victim && self.is_alive(n)))
    }

    /// The structured trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The causal span recorder (empty unless
    /// [`ClusterConfig::causal`](super::ClusterConfig::causal) was set).
    pub fn causal(&self) -> &CausalRecorder {
        &self.causal
    }

    /// Records an event in the cluster trace at the current instant —
    /// the cluster's own occurrences, and those of an external driver
    /// (the chaos campaign runner injects faults from outside).
    pub fn record_event(
        &mut self,
        source: impl Into<String>,
        kind: EventKind,
        detail: impl Into<String>,
    ) {
        let now = self.now();
        self.trace.record(now, source, kind, detail);
    }

    /// Adds to a named counter in the cluster-level metrics registry.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        self.registry.counter_add(name, n);
    }

    /// Records a duration sample in a cluster-level histogram.
    pub fn histogram_record(&mut self, name: &str, d: Duration) {
        self.registry.histogram_record(name, d);
    }

    /// The network model, read-only (for counters).
    pub fn net(&self) -> &NetworkModel {
        self.ring.net()
    }

    /// The network model, mutable (for partitions).
    pub fn net_mut(&mut self) -> &mut NetworkModel {
        self.ring.net_mut()
    }

    /// The mechanisms of one processor (inspection in tests).
    pub fn mechanisms(&self, node: NodeId) -> &Mechanisms {
        &self.procs[node.0 as usize].mech
    }

    /// The application-level state bytes of the replica of `group` on
    /// `node`, as a state transfer would capture them. `None` for dead
    /// processors and non-operational replicas. The convergence
    /// invariant requires all live operational replicas of a group to
    /// return byte-identical values at a quiescent point.
    pub fn probe_application_state(&mut self, node: NodeId, group: GroupId) -> Option<Vec<u8>> {
        if !self.is_alive(node) {
            return None;
        }
        self.procs[node.0 as usize]
            .mech
            .probe_application_state(group)
    }

    /// Invocations issued and still awaiting replies, summed over live
    /// processors. Zero once client traffic has drained.
    pub fn outstanding_calls(&self) -> usize {
        self.ring
            .live()
            .map(|n| self.mechanisms(n).outstanding_total())
            .sum()
    }

    /// Partially reassembled Eternal messages held at `node`.
    pub fn reassembly_pending(&self, node: NodeId) -> usize {
        self.procs
            .get(node.0 as usize)
            .map_or(0, |p| p.reasm.pending())
    }

    /// The processors' mechanism counters, summed counter by counter.
    fn mech_totals(&self) -> MechCounters {
        let mut totals = MechCounters::default();
        for Processor { mech, .. } in &self.procs {
            let mut counters = mech.counters();
            for ((_, _, total), (_, _, n)) in totals.table().into_iter().zip(counters.table()) {
                *total += *n;
            }
        }
        totals
    }

    /// Aggregated system metrics.
    pub fn metrics(&self) -> Metrics {
        let t = self.mech_totals();
        let mut m = self.metrics.clone();
        m.requests_dispatched += t.requests_dispatched;
        m.replies_delivered += t.replies_delivered;
        m.duplicates_suppressed += t.duplicates_suppressed;
        m.replies_discarded_by_orb += t.replies_discarded_by_orb;
        m.requests_discarded_unnegotiated += t.requests_discarded_unnegotiated;
        m.checkpoints_logged += t.checkpoints_logged;
        m.messages_logged += t.messages_logged;
        m
    }

    /// Requests dispatched, replies delivered and recoveries completed
    /// so far — what a settle loop watches — without the clone
    /// [`Cluster::metrics`] makes of every retained round trip.
    pub fn progress(&self) -> [u64; 3] {
        let t = self.mech_totals();
        [
            t.requests_dispatched,
            t.replies_delivered,
            self.metrics.recoveries_completed,
        ]
    }

    /// Layer-local metrics aggregated into one registry: cluster-level
    /// histograms, Totem engine counters, the mechanisms' counters,
    /// network counters, and (when tracing) each processor's ORB
    /// registry.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = self.registry.clone();
        for &node in self.ring.nodes() {
            let s = self.ring.node(node).stats();
            reg.counter_add("totem.broadcasts", s.broadcasts);
            reg.counter_add("totem.delivered", s.delivered);
            reg.counter_add("totem.config_changes", s.config_changes);
            reg.counter_add("totem.retransmits_served", s.retransmits_served);
            reg.counter_add("totem.token_retransmits", s.token_retransmits);
            reg.counter_add("totem.reformations", s.reformations);
            reg.counter_add("totem.batches", s.batches);
            reg.counter_add("totem.batched_messages", s.batched_messages);
            reg.counter_add("totem.frames_saved", s.frames_saved);
        }
        for (name, exported, total) in self.mech_totals().table() {
            if exported {
                reg.counter_add(name, *total);
            }
        }
        for Processor { mech, .. } in &self.procs {
            reg.merge(mech.orb().metrics());
        }
        reg.counter_add("net.frames_sent", self.net().frames_sent());
        reg.counter_add("net.frames_dropped", self.net().frames_dropped());
        reg.counter_add("net.bytes_sent", self.net().bytes_sent());
        // Instantaneous depths as gauges (summed over live processors):
        // the health snapshots sample the same quantities per node, but
        // the registry export is the place dashboards scrape. The
        // backpressure gauges (the last four) come from the latest
        // token-visit samples — the same values the health snapshots
        // publish per node through the total order.
        let mut gauges = [
            ("eternal.holding_depth", 0),
            ("eternal.dedup_resident", 0),
            ("eternal.reassembly_pending", 0),
            ("eternal.recovering_replicas", 0),
            ("eternal.transfer_chunks_pending", 0),
            ("totem.pending_depth", 0),
            ("totem.flow_occupancy", 0),
            ("eternal.reassembly_bytes", 0),
            ("eternal.log_suffix", 0),
        ];
        for node in self.ring.live() {
            let proc = &self.procs[node.0 as usize];
            let (mech, bp) = (&proc.mech, &proc.backpressure);
            let sample = [
                mech.holding_depth_total() as u64,
                mech.dedup_resident() as u64,
                proc.reasm.pending() as u64,
                mech.recovering_replicas() as u64,
                mech.transfer_chunks_pending() as u64,
                bp.pending_depth,
                bp.flow_occupancy,
                bp.reassembly_bytes,
                bp.log_suffix,
            ];
            for ((_, sum), n) in gauges.iter_mut().zip(sample) {
                *sum += n as i64;
            }
        }
        for (name, sum) in gauges {
            reg.gauge_set(name, sum);
        }
        reg.gauge_set("eternal.outstanding_calls", self.outstanding_calls() as i64);
        if self.config.health_period > Duration::ZERO {
            reg.gauge_set("health.epochs", self.health_auditor.epochs().len() as i64);
            reg.counter_add("health.diagnoses", 0);
        }
        reg
    }

    /// Phase-resolved timelines of completed recovery episodes, in
    /// completion order.
    pub fn recovery_timelines(&self) -> &[RecoveryTimeline] {
        &self.timelines
    }

    /// Chained digest over every IIOP message delivered (after
    /// total-order delivery and reassembly) at `node`, in delivery
    /// order. Two nodes that delivered the same messages in the same
    /// order have equal digests; the digest survives processor restarts
    /// (it keeps accumulating), so compare it across never-crashed
    /// nodes only.
    pub fn delivery_digest(&self, node: NodeId) -> u64 {
        self.procs[node.0 as usize].delivery_digest
    }

    /// Per-stream delivery digests at `node`: for each logical
    /// (connection, direction) IIOP stream, the chained digest
    /// over that stream's messages in delivery order (direction encoded
    /// 0 = request, 1 = reply). Deterministically ordered.
    pub fn stream_digests(&self, node: NodeId) -> Vec<((ConnectionName, u8), u64)> {
        self.stream_digests
            .iter()
            .filter(|((n, _, _), _)| *n == node)
            .map(|(&(_, conn, dir), &h)| ((conn, dir), h))
            .collect()
    }

    /// All deployed groups with their names, in id order.
    pub fn groups(&self) -> Vec<(GroupId, String)> {
        self.groups
            .iter()
            .map(|(&id, info)| (id, info.name.clone()))
            .collect()
    }

    /// Renders a human-readable status report of the whole system:
    /// processors, groups, replica placement and phases, and headline
    /// counters. Intended for operators and example binaries.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster @ {} ({} processors)",
            self.now(),
            self.config.processors
        );
        for &node in self.ring.nodes() {
            let status = if self.is_alive(node) { "up" } else { "DOWN" };
            let _ = writeln!(out, "  {node}: {status}");
        }
        for (&group, info) in &self.groups {
            let style = format!("{:?}", info.props.style);
            let _ = writeln!(
                out,
                "  {group} {:?} [{style}] hosts={:?} hosting={:?}",
                info.name, info.hosts, info.hosting
            );
            for &node in &info.hosting {
                if !self.is_alive(node) {
                    continue;
                }
                let mech = self.mechanisms(node);
                let phase = mech
                    .replica_phase(group)
                    .map(|p| format!("{p:?}"))
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "      {node}: phase={phase} log_suffix={} checkpoints={}",
                    mech.log_suffix_len(group),
                    mech.checkpoints_taken(group),
                );
            }
        }
        let m = self.metrics();
        let _ = writeln!(
            out,
            "  totals: dispatched={} replies={} dups={} recoveries={} promotions={}",
            m.requests_dispatched,
            m.replies_delivered,
            m.duplicates_suppressed,
            m.recoveries_completed,
            m.promotions,
        );
        out
    }

    /// Looks up a group by its deployment name.
    pub fn group_by_name(&self, name: &str) -> Option<GroupId> {
        self.groups
            .iter()
            .find(|(_, g)| g.name == name)
            .map(|(&id, _)| id)
    }

    /// Processors currently hosting an instance of `group`.
    pub fn hosting(&self, group: GroupId) -> Vec<NodeId> {
        self.groups[&group].hosting.iter().copied().collect()
    }

    /// Folds a reassembled IIOP delivery into `node`'s chained digests
    /// (the whole-node digest and the per-stream one). Non-IIOP
    /// protocol messages are excluded: they are identical by
    /// construction across batching modes, and the invariant of
    /// interest is the total order of *application* traffic.
    pub(super) fn digest_delivery(&mut self, node: NodeId, delivered: &Delivered<'_>) {
        let EternalMessage::Iiop {
            conn,
            direction,
            op_seq,
            ..
        } = &delivered.head
        else {
            return;
        };
        let bytes = &delivered.body[..];
        let dir = direction.wire_byte();
        // The body is read once, word-wise, and so is the fixed-size
        // link it goes into (identity, length — which keeps message
        // boundaries apart — and body hash); each chain then folds that
        // one word.
        let mut link = [0u8; 29];
        link[..4].copy_from_slice(&conn.client.0.to_be_bytes());
        link[4..8].copy_from_slice(&conn.server.0.to_be_bytes());
        link[8] = dir;
        link[9..13].copy_from_slice(&op_seq.to_be_bytes());
        link[13..21].copy_from_slice(&(bytes.len() as u64).to_be_bytes());
        link[21..].copy_from_slice(&hash_bytes(bytes).to_be_bytes());
        let link = hash_bytes(&link);
        let whole = &mut self.procs[node.0 as usize].delivery_digest;
        *whole = fold_word(*whole, link);
        let stream = self
            .stream_digests
            .entry((node, *conn, dir))
            .or_insert(FNV_OFFSET);
        *stream = fold_word(*stream, link);
    }
}
