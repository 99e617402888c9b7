//! The group **registry** of one processor — the managers' view of
//! the system (paper §2, Figure 1): every group's metadata, the hosts
//! of its operational and standby replicas (identical on every
//! processor, being functions of the total order), and the replica
//! hosted here from launch to death. Owns [`LocalGroup`] and
//! [`LocalReplica`].

use super::recovery::InboundTransfer;
use super::{Delivery, Mechanisms, Out, ReplicaPhase};
use crate::app::ClientApp;
use crate::causal::HopCtx;
use crate::gid::{ConnectionName, GroupId};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::message::{EternalMessage, OrderedInput};
use crate::properties::{FaultToleranceProperties, ReplicationStyle};
use crate::recovery::holding::HoldingQueue;
use crate::recovery::state3::OutstandingCall;
use crate::recovery::CheckpointLog;
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// How the group's object behaves.
pub enum GroupKind {
    /// A server object (servant registered in the local POA when a
    /// replica is hosted here).
    Server(Box<dyn Fn() -> Box<dyn CheckpointableServant> + Send>),
    /// A client object (deterministic event-driven application).
    Client(Box<dyn Fn(GroupId) -> Box<dyn ClientApp> + Send>),
}

impl std::fmt::Debug for GroupKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupKind::Server(_) => write!(f, "Server"),
            GroupKind::Client(_) => write!(f, "Client"),
        }
    }
}

/// Deployment-wide description of one object group, registered on every
/// processor.
#[derive(Debug)]
pub struct GroupMeta {
    /// The group id.
    pub id: GroupId,
    /// Human-readable name.
    pub name: String,
    /// Fault-tolerance properties.
    pub props: FaultToleranceProperties,
    /// Processors designated to host replicas (first entry is the
    /// initial primary for passive styles).
    pub hosts: Vec<NodeId>,
    /// Server or client behaviour.
    pub kind: GroupKind,
}

/// The replica of a group hosted on this processor.
pub(super) struct LocalReplica {
    pub(super) phase: ReplicaPhase,
    /// Client behaviour instance (servers live in the ORB's POA).
    pub(super) client_app: Option<Box<dyn ClientApp>>,
    /// Inputs held for replay after `set_state` (§5.1 step vi).
    pub(super) holding: HoldingQueue<OrderedInput>,
    /// Quiescence (paper §5): a replica is between operations at every
    /// delivery point, so only a dispatched oneway — no reply marks its
    /// completion — keeps the object busy, until this instant.
    oneway_settle_until: SimTime,
    /// Times a state capture had to wait out a oneway window.
    quiesce_deferrals: u64,
    /// The state transfer this recovering replica is bound to, fixed at
    /// the retrieval's total-order point, and what has arrived of it.
    /// A crash-and-relaunch can leave chunks of an abandoned transfer
    /// in flight; accepting one would bind the new replica's sync point
    /// to a stream no donor is driving any more, wedging the recovery —
    /// so the binding lives and dies with the replica. Boxed: only a
    /// recovering replica has one, and every group's entry would carry
    /// its size.
    pub(super) inbound: Option<Box<InboundTransfer>>,
}

impl LocalReplica {
    fn new(phase: ReplicaPhase, client_app: Option<Box<dyn ClientApp>>) -> Self {
        LocalReplica {
            phase,
            client_app,
            holding: HoldingQueue::new(),
            oneway_settle_until: SimTime::ZERO,
            quiesce_deferrals: 0,
            inbound: None,
        }
    }

    /// Records a `oneway` dispatched now that occupies the object until
    /// `settles_at`. An earlier oneway never shortens the horizon.
    pub(super) fn oneway_dispatched(&mut self, settles_at: SimTime) {
        self.oneway_settle_until = self.oneway_settle_until.max(settles_at);
    }

    /// How long a state capture delivered at `now` must wait for the
    /// object to be quiescent (§5): the rest of a oneway's settling
    /// window, if one is open. A nonzero wait counts as a deferral.
    pub(super) fn quiescence_wait(&mut self, now: SimTime) -> Duration {
        let wait = self.oneway_settle_until.saturating_since(now);
        if !wait.is_zero() {
            self.quiesce_deferrals += 1;
        }
        wait
    }
}

impl std::fmt::Debug for LocalReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalReplica")
            .field("phase", &self.phase)
            .field("holding", &self.holding.len())
            .finish()
    }
}

/// One group as this processor knows it.
#[derive(Debug)]
pub(super) struct LocalGroup {
    pub(super) meta: GroupMeta,
    pub(super) replica: Option<LocalReplica>,
    /// Hosts currently holding replicas able to serve state (active
    /// replicas, or the primary). Maintained identically on every
    /// processor from the totally ordered event stream.
    pub(super) operational_hosts: BTreeSet<NodeId>,
    /// Hosts currently holding standby (warm backup) replicas.
    pub(super) standby_hosts: BTreeSet<NodeId>,
    /// Checkpoint + message log (passive styles; also used to recover a
    /// primary after total group loss).
    pub(super) log: CheckpointLog,
    /// Invocations this (client-role) group awaits responses for.
    pub(super) outstanding: BTreeMap<(ConnectionName, u32), OutstandingCall>,
}

impl LocalGroup {
    pub(super) fn is_primary_style(&self) -> bool {
        self.meta.props.style.logs_checkpoints()
    }

    pub(super) fn primary_host(&self) -> Option<NodeId> {
        if self.is_primary_style() {
            self.operational_hosts.iter().next().copied()
        } else {
            None
        }
    }

    /// The host that serves a recovery of the replica on `new_host`:
    /// the lowest-id processor hosting a state-serving replica other
    /// than the recipient — a deterministic choice every processor
    /// evaluates identically. It fabricates the `get_state` and streams
    /// the state; after a donor fault the same rule, against the
    /// updated view, elects the successor.
    pub(super) fn donor_for(&self, new_host: NodeId) -> Option<NodeId> {
        self.operational_hosts
            .iter()
            .copied()
            .find(|&h| h != new_host)
    }
}

impl Mechanisms {
    /// Registers a group's deployment-wide metadata (on every
    /// processor, whether or not it hosts a replica).
    pub fn register_group(&mut self, meta: GroupMeta) {
        let hosts: BTreeSet<NodeId> = match meta.props.style {
            ReplicationStyle::Active => meta.hosts.iter().copied().collect(),
            // Passive: only the initial primary is operational.
            ReplicationStyle::WarmPassive | ReplicationStyle::ColdPassive => {
                meta.hosts.first().copied().into_iter().collect()
            }
        };
        let standby: BTreeSet<NodeId> = match meta.props.style {
            ReplicationStyle::WarmPassive => meta.hosts.iter().skip(1).copied().collect(),
            _ => BTreeSet::new(),
        };
        let group = meta.id;
        self.groups.insert(
            group,
            LocalGroup {
                meta,
                replica: None,
                operational_hosts: hosts,
                standby_hosts: standby,
                log: CheckpointLog::new(),
                outstanding: BTreeMap::new(),
            },
        );
    }

    /// Instantiates the locally hosted replica at deployment time, in
    /// the role the registered views give this host (cold backups are
    /// in neither view and are not instantiated). No state transfer:
    /// all initial replicas start identical.
    pub fn deploy_local_replica(&mut self, group: GroupId) {
        let lg = self.groups.get(&group).expect("group registered");
        let phase = if lg.operational_hosts.contains(&self.node) {
            ReplicaPhase::Operational
        } else if lg.standby_hosts.contains(&self.node) {
            ReplicaPhase::Standby
        } else {
            return;
        };
        self.instantiate_replica(group, phase);
    }

    pub(super) fn instantiate_replica(&mut self, group: GroupId, phase: ReplicaPhase) {
        let lg = self.groups.get_mut(&group).expect("group registered");
        let client_app = match &lg.meta.kind {
            GroupKind::Server(factory) => {
                let servant = factory();
                self.orb
                    .poa_mut()
                    .activate_checkpointable(Self::group_key(group), servant);
                None
            }
            GroupKind::Client(factory) => Some(factory(group)),
        };
        lg.replica = Some(LocalReplica::new(phase, client_app));
    }

    /// Replaces the group's object implementation for *future* replica
    /// instantiations on this processor (the Evolution Manager's lever:
    /// upgrades ride the normal recovery path, §2).
    pub fn replace_group_kind(&mut self, group: GroupId, kind: GroupKind) {
        if let Some(lg) = self.groups.get_mut(&group) {
            lg.meta.kind = kind;
        }
    }

    /// The replica of `group` hosted here, if there is one.
    pub(super) fn replica_mut(&mut self, group: GroupId) -> Option<&mut LocalReplica> {
        self.groups.get_mut(&group)?.replica.as_mut()
    }

    /// Whether a replica of `group` is hosted here, and its phase.
    pub fn replica_phase(&self, group: GroupId) -> Option<ReplicaPhase> {
        self.groups
            .get(&group)
            .and_then(|lg| lg.replica.as_ref())
            .map(|r| r.phase)
    }

    /// The host currently designated primary for a passive group (as
    /// seen from this processor's consistent view).
    pub fn primary_host(&self, group: GroupId) -> Option<NodeId> {
        self.groups.get(&group).and_then(|lg| lg.primary_host())
    }

    /// Hosts with state-serving replicas, from this processor's view.
    pub fn operational_hosts(&self, group: GroupId) -> Vec<NodeId> {
        self.groups
            .get(&group)
            .map(|lg| lg.operational_hosts.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Log length (suffix) of the group's local checkpoint log.
    pub fn log_suffix_len(&self, group: GroupId) -> usize {
        self.groups
            .get(&group)
            .map(|lg| lg.log.suffix_len())
            .unwrap_or(0)
    }

    /// Checkpoint-log suffix length summed over every locally hosted
    /// group (a backpressure gauge: replay debt accumulated since the
    /// last checkpoints).
    pub fn log_suffix_total(&self) -> usize {
        self.groups.values().map(|lg| lg.log.suffix_len()).sum()
    }

    /// Quiescence deferrals recorded for the group's local replica
    /// (how many state captures had to wait out a oneway window, §5).
    pub fn quiescence_deferrals(&self, group: GroupId) -> u64 {
        self.groups
            .get(&group)
            .and_then(|lg| lg.replica.as_ref())
            .map(|r| r.quiesce_deferrals)
            .unwrap_or(0)
    }

    /// Total checkpoints logged locally for the group.
    pub fn checkpoints_taken(&self, group: GroupId) -> u64 {
        self.groups
            .get(&group)
            .map(|lg| lg.log.checkpoints_taken())
            .unwrap_or(0)
    }

    /// Invocations issued locally that still await replies, across all
    /// hosted client groups. Zero at a true quiescent point.
    pub fn outstanding_total(&self) -> usize {
        self.groups.values().map(|lg| lg.outstanding.len()).sum()
    }

    /// Whether the client group of `conn` awaits a reply to its call
    /// `op_seq` here (a oneway is never awaited).
    pub fn awaits_reply(&self, conn: ConnectionName, op_seq: u32) -> bool {
        self.groups
            .get(&conn.client)
            .is_some_and(|lg| lg.outstanding.contains_key(&(conn, op_seq)))
    }

    /// Sparse dedup ids resident above the horizons (bounded by the
    /// suppressor's window; the chaos memory invariant watches it).
    pub fn dedup_resident(&self) -> usize {
        self.dedup.resident()
    }

    /// Ids the dedup horizon was forced past to stay bounded.
    pub fn dedup_gaps_skipped(&self) -> u64 {
        self.dedup.gaps_skipped()
    }

    /// Recomputes the per-group application-state digests of every
    /// locally hosted *operational* replica (non-operational replicas
    /// are skipped: their state legitimately lags mid-recovery).
    pub(super) fn refresh_health_digests(&mut self) {
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        let mut digests = Vec::new();
        for group in groups {
            if let Some(bytes) = self.probe_application_state(group) {
                let h = fnv1a(FNV_OFFSET, &bytes)
                    ^ self.health_digest_salt.get(&group).copied().unwrap_or(0);
                digests.push((u64::from(group.0), h));
            }
        }
        self.health_digests = digests;
    }

    /// The digests last computed by
    /// [`refresh_health_digests`](Self::refresh_health_digests) (empty
    /// before the first health delivery).
    pub fn health_digests(&self) -> &[(u64, u64)] {
        &self.health_digests
    }

    /// Corrupts this processor's health digest of `group` from now on
    /// (fault injection for the divergence detector — the application
    /// state itself is untouched).
    pub fn corrupt_health_digest(&mut self, group: GroupId) {
        *self.health_digest_salt.entry(group).or_insert(0) ^= 0x0005_EEDB_ADC0_FFEE;
    }

    /// Total held inputs across all locally hosted replicas (the §5.1
    /// holding queues; a health gauge).
    pub fn holding_depth_total(&self) -> usize {
        self.groups
            .values()
            .filter_map(|lg| lg.replica.as_ref())
            .map(|r| r.holding.len())
            .sum()
    }

    /// Locally hosted replicas currently mid-recovery (awaiting their
    /// synchronization point or enqueueing behind a state transfer).
    pub fn recovering_replicas(&self) -> usize {
        self.groups
            .values()
            .filter_map(|lg| lg.replica.as_ref())
            .filter(|r| {
                matches!(
                    r.phase,
                    ReplicaPhase::AwaitingSync | ReplicaPhase::Enqueueing
                )
            })
            .count()
    }

    /// Launches a recovering replica of `group` on this processor and
    /// announces it. The replica drops traffic until its
    /// synchronization point appears in the total order.
    pub fn launch_recovering_replica(&mut self, group: GroupId) -> Vec<Out> {
        // A fresh replica is bound to no transfer: chunk streams aimed
        // at a *previous* incarnation cannot splice into its recovery,
        // and it binds to the retrieval that answers ITS joining.
        self.instantiate_replica(group, ReplicaPhase::AwaitingSync);
        let host = self.node;
        vec![Out::chatter(EternalMessage::ReplicaJoining { group, host })]
    }

    /// Kills the locally hosted replica (process death). The local
    /// fault detector reports it; the multicast carries the detection.
    ///
    /// The replica's ORB dies with its process, so all connection-level
    /// ORB state for the group's connections is lost here — request-id
    /// counters, negotiated handshakes, pending-reply tables. What
    /// survives is the *mechanisms'* knowledge (the observer's stored
    /// handshakes and learned counters, the logs, the dedup horizons):
    /// exactly the split the paper's three-kinds-of-state analysis
    /// rests on.
    pub fn kill_local_replica(&mut self, group: GroupId) -> Vec<Out> {
        // Transfer contexts die with the replica process: a dead donor
        // cannot stream (survivors take over from the shared cursor),
        // and a dead recipient's partial reassembly goes with it.
        self.transfers.drop_group(group);
        let lg = self.groups.get_mut(&group).expect("group registered");
        if lg.replica.take().is_some() {
            if matches!(lg.meta.kind, GroupKind::Server(_)) {
                self.orb.poa_mut().deactivate(&Self::group_key(group));
            }
            self.client_conns.retain(|c, _| c.client != group);
            self.server_conns.retain(|c, _| c.server != group);
            let host = self.node;
            vec![Out::chatter(EternalMessage::ReplicaFault { group, host })]
        } else {
            Vec::new()
        }
    }

    /// A replica of `group` on `host` is gone: the consistent view
    /// drops it at this total-order point, transfers it took part in
    /// are re-elected or dropped, and a dead primary is succeeded.
    pub(super) fn on_fault(&mut self, group: GroupId, host: NodeId, d: &mut Delivery) {
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        let was_primary = lg.is_primary_style() && lg.primary_host() == Some(host);
        lg.operational_hosts.remove(&host);
        lg.standby_hosts.remove(&host);
        self.handle_transfer_fault(group, host, d);
        if !was_primary {
            return;
        }
        // Primary failed: promote (paper §3.2). The new primary is the
        // lowest-id designated host that is still a candidate.
        let lg = self.groups.get_mut(&group).expect("present above");
        let style = lg.meta.props.style;
        let candidate = match style {
            ReplicationStyle::WarmPassive => lg.standby_hosts.iter().next().copied(),
            ReplicationStyle::ColdPassive => lg.meta.hosts.iter().copied().find(|&h| h != host),
            ReplicationStyle::Active => None,
        };
        let Some(new_primary) = candidate else {
            return;
        };
        lg.operational_hosts.insert(new_primary);
        lg.standby_hosts.remove(&new_primary);
        if new_primary == self.node {
            self.promote_local(group, d);
        }
    }

    /// Processes a Totem configuration change: replicas on processors
    /// that left the membership are treated as failed, at the same
    /// total-order point on every survivor.
    pub fn on_config_change(
        &mut self,
        members: &[NodeId],
        now: SimTime,
        ctx: &mut HopCtx,
    ) -> Vec<Out> {
        let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
        let mut outs = Vec::new();
        let d = &mut Delivery::new(now, ctx, &mut outs);
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let dead: Vec<NodeId> = {
                let lg = self.groups.get(&group).expect("listed");
                lg.operational_hosts
                    .union(&lg.standby_hosts)
                    .copied()
                    .filter(|h| !member_set.contains(h))
                    .collect()
            };
            for host in dead {
                self.on_fault(group, host, d);
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn replica() -> LocalReplica {
        LocalReplica::new(ReplicaPhase::Operational, None)
    }

    /// The model's oneway settling window (`MechConfig::exec_time`).
    const WINDOW: Duration = Duration::from_micros(50);

    #[test]
    fn a_fresh_replica_is_quiescent() {
        let mut r = replica();
        assert_eq!(r.quiescence_wait(SimTime::ZERO), Duration::ZERO);
        assert_eq!(r.quiescence_wait(t(5)), Duration::ZERO);
        assert_eq!(r.quiesce_deferrals, 0);
    }

    #[test]
    fn oneways_occupy_the_window() {
        let mut r = replica();
        r.oneway_dispatched(t(100) + WINDOW);
        assert_eq!(r.quiescence_wait(t(100)), WINDOW);
        assert_eq!(r.quiescence_wait(t(149)), Duration::from_micros(1));
        assert_eq!(r.quiescence_wait(t(150)), Duration::ZERO);
        assert_eq!(r.quiescence_wait(t(120)), Duration::from_micros(30));
    }

    #[test]
    fn overlapping_oneways_extend_the_horizon() {
        let mut r = replica();
        r.oneway_dispatched(t(100) + WINDOW); // settles at 150
        r.oneway_dispatched(t(130) + WINDOW); // settles at 180
        assert_eq!(r.quiescence_wait(t(160)), Duration::from_micros(20));
        assert_eq!(r.quiescence_wait(t(180)), Duration::ZERO);
        // An earlier oneway never shortens the horizon.
        r.oneway_dispatched(t(100) + WINDOW);
        assert_eq!(r.quiescence_wait(t(170)), Duration::from_micros(10));
    }

    #[test]
    fn deferral_statistics() {
        let mut r = replica();
        r.oneway_dispatched(t(100) + WINDOW);
        r.quiescence_wait(t(100));
        r.quiescence_wait(t(140));
        assert_eq!(r.quiesce_deferrals, 2, "two captures waited");
        r.quiescence_wait(t(150));
        assert_eq!(r.quiesce_deferrals, 2, "a capture at quiescence does not");
    }
}
