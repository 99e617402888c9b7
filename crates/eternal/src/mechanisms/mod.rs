//! The per-processor **Replication Mechanisms + Recovery Mechanisms**
//! (paper §2): the component that receives every totally ordered
//! Eternal message, suppresses duplicates, routes IIOP traffic into the
//! local ORB's connections, maintains checkpoint/message logs, and runs
//! the §5.1 state-transfer protocol for replicas hosted here.
//!
//! The mechanisms are sans-io like everything else: the cluster driver
//! feeds them ordered messages and collects [`Out`] actions (multicasts
//! to issue, recovery-completion notifications). One instance exists per
//! processor, below the ORB and above Totem.
//!
//! The code is cut where the paper's Figure 1 cuts the component, as
//! `impl` blocks over the one [`Mechanisms`] struct defined here:
//! `registry` (the group table and the local replicas), `replication`
//! (§3, §4.1: the ordered-input path) and `recovery` (§3.3, §4, §5.1:
//! state transfer, checkpoints, promotion). DESIGN.md has the map.
//!
//! ### Modelling notes (vs the paper)
//!
//! * Replica execution is instantaneous in virtual time, but every
//!   reply/assignment a replica produces is multicast after a
//!   configurable execution delay, which models invocation processing
//!   cost. Consequently replicas are always quiescent at delivery
//!   points, and the paper's quiescence machinery (§5, "outside the
//!   scope of this paper") reduces to the holding-queue discipline that
//!   *is* implemented: a recovering replica drops pre-synchronization
//!   traffic, enqueues post-synchronization traffic, and drains the
//!   queue after state assignment.
//! * `get_state`/`set_state` for *server* objects are dispatched through
//!   the POA (the FT-CORBA `Checkpointable` path); the fabricated
//!   invocations travel as [`EternalMessage`] control messages rather
//!   than consuming GIOP request ids on application connections, which
//!   matches Eternal's use of its own connections for its own traffic.

mod recovery;
mod registry;
mod replication;

pub use registry::{GroupKind, GroupMeta};

use crate::causal::HopCtx;
use crate::gid::{ConnectionName, GroupId, TransferId};
use crate::interceptor::Interceptor;
use crate::message::{Body, Delivered, EternalMessage, RetrievalPurpose};
use crate::recovery::{DuplicateSuppressor, OrbStateObserver};
use eternal_orb::{ObjectKey, Orb};
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use recovery::Transfers;
use registry::LocalGroup;
use std::collections::BTreeMap;

/// Something the mechanisms ask their driver to do.
#[derive(Debug)]
pub enum Out {
    /// Multicast `message` through Totem after `delay` of local
    /// processing time.
    Multicast {
        /// Local processing delay before the message leaves.
        delay: Duration,
        /// The message.
        message: EternalMessage,
    },
    /// A reply was delivered into a local client application.
    ReplyDelivered {
        /// The logical connection.
        conn: ConnectionName,
        /// The operation's Eternal id.
        op_seq: u32,
    },
    /// A §5.1 state transfer completed and the local replica is
    /// operational.
    RecoveryComplete {
        /// The recovered group.
        group: GroupId,
        /// Application-level state size transferred.
        app_state_bytes: usize,
    },
    /// A passive backup hosted here was promoted to primary.
    Promoted {
        /// The group.
        group: GroupId,
        /// Messages replayed from the log suffix.
        replayed: usize,
        /// Time until the new primary is serving: cold promotions pay a
        /// process launch + checkpoint load, warm ones only the replay.
        ready_after: Duration,
    },
    /// This (donor) replica captured its three kinds of state in answer
    /// to a `StateRetrieval` — observability for the recovery timeline:
    /// the quiescence wait and the modeled `get_state` execution time
    /// resolve the quiesce/get_state phase boundary.
    StateCaptured {
        /// The group whose state was captured.
        group: GroupId,
        /// The transfer this capture answers.
        transfer: TransferId,
        /// Why the state was retrieved (recovery vs checkpoint).
        purpose: RetrievalPurpose,
        /// Time spent waiting for quiescence before capturing (§5).
        quiesce_wait: Duration,
        /// Modeled `get_state` execution time at the donor.
        capture_time: Duration,
        /// Application-level state size captured.
        app_state_bytes: usize,
    },
}

// The first push of every `Vec<Out>` reserves four of them.
const _: () = assert!(std::mem::size_of::<Out>() <= 104);

impl Out {
    /// The mechanisms' own chatter (joining, fault, retrieval), sent at
    /// once. No hop emits it: a retrieval's chain roots at its Pack
    /// hops, under a trace id derived from the transfer id.
    fn chatter(message: EternalMessage) -> Out {
        Out::Multicast {
            delay: Duration::ZERO,
            message,
        }
    }
}

/// What the handlers of one ordered delivery share.
struct Delivery<'a, 'r> {
    /// The delivery instant.
    now: SimTime,
    /// The causal-stamping context the cluster derived for the
    /// delivered message (inert when tracing is off).
    ctx: &'a mut HopCtx<'r>,
    /// The one sink of this delivery: whatever handles the message,
    /// however deep, pushes what it asks of the driver here, in order.
    outs: &'a mut Vec<Out>,
}

impl<'a, 'r> Delivery<'a, 'r> {
    fn new(now: SimTime, ctx: &'a mut HopCtx<'r>, outs: &'a mut Vec<Out>) -> Self {
        Delivery { now, ctx, outs }
    }
}

/// What a local replica is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// Processing normal traffic.
    Operational,
    /// Loaded as a warm backup: receives checkpoints, not traffic.
    Standby,
    /// Launched for recovery; normal traffic is *dropped* until the
    /// synchronization point — the last chunk of the state stream — is
    /// seen (its effects are in the transferred state or its suffix).
    AwaitingSync,
    /// Synchronization point seen; normal traffic is enqueued for
    /// delivery after state assignment (§5.1 steps i–v).
    Enqueueing,
}

/// Per-processor counters (aggregated by the cluster into
/// [`crate::metrics::Metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MechCounters {
    /// Requests dispatched into local server replicas.
    pub requests_dispatched: u64,
    /// Replies delivered to local client applications.
    pub replies_delivered: u64,
    /// Duplicates suppressed.
    pub duplicates_suppressed: u64,
    /// Replies the local ORB discarded on request-id mismatch (§4.2.1).
    pub replies_discarded_by_orb: u64,
    /// Requests discarded for missing handshake state (§4.2.2).
    pub requests_discarded_unnegotiated: u64,
    /// Checkpoints recorded locally.
    pub checkpoints_logged: u64,
    /// Messages appended to local logs.
    pub messages_logged: u64,
    /// Messages dropped at a recovering replica before its sync point.
    pub dropped_pre_sync: u64,
    /// Messages enqueued at recovering replicas.
    pub enqueued_during_recovery: u64,
    /// State chunks this processor streamed as a transfer donor.
    pub chunks_streamed: u64,
    /// Chunk deliveries ignored as duplicates or out-of-order repeats
    /// (takeover races and loss-recovery can produce both).
    pub chunk_duplicates: u64,
    /// Chunked streams this processor took over after a donor fault.
    pub transfer_takeovers: u64,
    /// Checkpoints fabricated by the suffix-bound trigger.
    pub suffix_checkpoints_triggered: u64,
}

impl MechCounters {
    /// Every counter beside its name in the cluster's metrics registry
    /// and whether the registry exports it: the one table the cluster
    /// sums its processors through and exports from.
    pub fn table(&mut self) -> [(&'static str, bool, &mut u64); 13] {
        macro_rules! row {
            ($field:ident, $exported:expr) => {
                (
                    concat!("eternal.", stringify!($field)),
                    $exported,
                    &mut self.$field,
                )
            };
        }
        [
            row!(requests_dispatched, true),
            row!(replies_delivered, true),
            row!(duplicates_suppressed, true),
            row!(replies_discarded_by_orb, false),
            row!(requests_discarded_unnegotiated, false),
            row!(checkpoints_logged, true),
            row!(messages_logged, true),
            row!(dropped_pre_sync, false),
            row!(enqueued_during_recovery, false),
            row!(chunks_streamed, true),
            row!(chunk_duplicates, true),
            row!(transfer_takeovers, true),
            row!(suffix_checkpoints_triggered, true),
        ]
    }
}

/// Configuration knobs of the mechanisms.
#[derive(Debug, Clone)]
pub struct MechConfig {
    /// Modeled execution time of one invocation at a replica.
    pub exec_time: Duration,
    /// Disable ORB/POA-level state transfer (ablation A1/A2: reproduces
    /// the paper's §4.2 failure modes).
    pub transfer_orb_state: bool,
    /// Disable infrastructure-level state transfer (ablation).
    pub transfer_infra_state: bool,
    /// Chunk payload size of the recovery state transfer
    /// (docs/RECOVERY.md); at least 1. A state no larger than this
    /// travels as a stream of one chunk.
    pub chunk_bytes: usize,
    /// Passive-group suffix bound (entries): the primary fabricates a
    /// checkpoint when its log suffix reaches this many messages, so
    /// replay memory and warm-promotion time stay bounded under
    /// sustained load. 0 disables.
    pub suffix_checkpoint_len: usize,
}

impl Default for MechConfig {
    fn default() -> Self {
        MechConfig {
            exec_time: Duration::from_micros(50),
            transfer_orb_state: true,
            transfer_infra_state: true,
            chunk_bytes: 32 * 1024,
            suffix_checkpoint_len: 2048,
        }
    }
}

/// The Eternal mechanisms of one processor.
pub struct Mechanisms {
    node: NodeId,
    config: MechConfig,
    orb: Orb,
    interceptor: Interceptor,
    observer: OrbStateObserver,
    dedup: DuplicateSuppressor,
    groups: BTreeMap<GroupId, LocalGroup>,
    /// The local ORB's client-side connection per logical connection,
    /// with the object key its requests are addressed to.
    client_conns: BTreeMap<ConnectionName, (u64, ObjectKey)>,
    server_conns: BTreeMap<ConnectionName, u64>,
    /// Everything this processor knows about state transfers in
    /// flight and recently completed.
    transfers: Transfers,
    counters: MechCounters,
    /// Per-group application-state digests last computed at a health
    /// delivery point (docs/HEALTH.md): `(group, fnv1a)` pairs in group
    /// order, carried in this processor's *next* published snapshot.
    health_digests: Vec<(u64, u64)>,
    /// Test-only corruption hook: XORed into a group's health digest so
    /// the divergence detector has something real to catch.
    health_digest_salt: BTreeMap<GroupId, u64>,
    /// Where a body delivered in pieces is gathered for a read that
    /// does not keep it (the local ORB's, the observer's, a warm
    /// backup's `set_state`), lent to each delivery.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Mechanisms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mechanisms")
            .field("node", &self.node)
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Mechanisms {
    /// Creates the mechanisms for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `config.chunk_bytes` is 0: it is a size, and a
    /// recovery's state always travels as at least one chunk.
    pub fn new(node: NodeId, config: MechConfig) -> Self {
        assert!(
            config.chunk_bytes > 0,
            "MechConfig::chunk_bytes is the chunk size of a state transfer and must be at least 1"
        );
        Mechanisms {
            node,
            config,
            orb: Orb::new(format!("P{}", node.0)),
            interceptor: Interceptor::new(),
            observer: OrbStateObserver::new(),
            dedup: DuplicateSuppressor::new(),
            groups: BTreeMap::new(),
            client_conns: BTreeMap::new(),
            server_conns: BTreeMap::new(),
            transfers: Transfers::new(node),
            counters: MechCounters::default(),
            health_digests: Vec::new(),
            health_digest_salt: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The processor this instance runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Turns on ORB-level observability (event trace + metrics) on this
    /// processor's ORB. The cluster does so when its own trace is
    /// enabled; off otherwise so bench paths allocate nothing.
    pub fn enable_orb_obs(&mut self) {
        self.orb.enable_obs(eternal_obs::trace::DEFAULT_CAPACITY);
    }

    /// Sets the restart incarnation (the hosting environment calls this
    /// when rebuilding the mechanisms after a processor restart, before
    /// any traffic): fabricated transfer ids must not repeat across
    /// restarts.
    pub fn set_incarnation(&mut self, incarnation: u32) {
        self.transfers.set_incarnation(incarnation);
    }

    /// Local counters.
    pub fn counters(&self) -> MechCounters {
        self.counters
    }

    /// Duplicates suppressed (from the suppressor itself).
    pub fn suppressed(&self) -> u64 {
        self.dedup.suppressed_count()
    }

    /// Access to the local ORB (tests compare ORB ground truth against
    /// transferred state).
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// The deterministic object key of a group's object.
    pub fn group_key(group: GroupId) -> ObjectKey {
        ObjectKey::new(format!("group/{}", group.0).into_bytes())
    }

    /// Handles one totally ordered message, owned: it goes the way of
    /// a delivered one, its body moved.
    pub fn on_delivered(
        &mut self,
        message: EternalMessage,
        now: SimTime,
        ctx: &mut HopCtx,
    ) -> Vec<Out> {
        self.on_delivered_view(message.into(), now, ctx)
    }

    /// Handles one totally ordered message. `now` is the delivery time;
    /// `ctx` is the causal-stamping context the cluster derived for the
    /// delivered message (inert when tracing is off).
    pub fn on_delivered_view(
        &mut self,
        delivered: Delivered<'_>,
        now: SimTime,
        ctx: &mut HopCtx,
    ) -> Vec<Out> {
        let mut outs = Vec::new();
        let Delivered { head, body } = delivered;
        self.on_delivered_into(head, &body, now, ctx, &mut outs);
        outs
    }

    /// [`Mechanisms::on_delivered_view`] of `head` and its `body`, lent:
    /// the body is read where it lies, and the driver keeps it (to hand
    /// a list of pieces back to its reassembler). What the delivery
    /// asks of the driver is appended to a list the driver lends (and
    /// drains) instead of returned in a new one; what `outs` already
    /// holds is left as it is.
    pub fn on_delivered_into(
        &mut self,
        head: EternalMessage,
        body: &Body<'_>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        self.orb.set_clock(now);
        let d = &mut Delivery::new(now, ctx, outs);
        match head {
            EternalMessage::Iiop {
                conn,
                direction,
                op_seq,
                ..
            } => self.on_iiop(conn, direction, op_seq, body, d),
            EternalMessage::ReplicaJoining { group, host } => self.on_joining(group, host, d.outs),
            EternalMessage::ReplicaFault { group, host } => self.on_fault(group, host, d),
            EternalMessage::StateRetrieval {
                group,
                transfer,
                purpose,
            } => self.on_retrieval(group, transfer, purpose, d),
            EternalMessage::StateAssignment {
                transfer,
                purpose,
                state,
            } => self.on_assignment(transfer, purpose, state, body, now),
            chunk @ EternalMessage::StateChunk { .. } => self.on_state_chunk(&chunk, body, d),
            EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                entries,
            } => self.on_state_suffix(group, transfer, new_host, entries, d),
            EternalMessage::LoadTick { group } => self.on_load_tick(group, d),
            EternalMessage::Health { .. } => {
                // The snapshot itself is consumed by the cluster driver
                // (epoch assignment + auditing). The mechanisms' job at
                // this delivery point is local: refresh the per-group
                // state digests. Replicas are quiescent at delivery
                // points, so every operational replica of a group
                // digests the same total-order prefix here — equal
                // digests at equal health epochs, by construction.
                self.refresh_health_digests();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::recovery::{CHUNK_PIPELINE, SEEN_TRANSFERS_WINDOW};
    use super::*;
    use crate::app::{AppInvocation, CounterServant, StreamingClient};
    use crate::properties::{FaultToleranceProperties, ReplicationStyle};
    use eternal_cdr::Any;
    use eternal_giop::ReplyStatus;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Runs `f` with a throwaway untraced stamping context — these tests
    /// exercise the mechanics, not the causal recorder.
    fn with_ctx<R>(f: impl FnOnce(&mut HopCtx) -> R) -> R {
        let mut rec = eternal_obs::causal::CausalRecorder::disabled();
        let mut ctx = HopCtx::new(&mut rec, 0, 0, 0, 0);
        f(&mut ctx)
    }

    /// A miniature total-order bus: collects `Out::Multicast` messages
    /// and delivers them to every mechanisms instance in FIFO order —
    /// exactly what Totem provides, minus the network.
    struct Bus {
        queue: std::collections::VecDeque<EternalMessage>,
        now: SimTime,
        /// Every collected `Out` in order, rendered compactly
        /// (multicasts by delay, kind and a hash of their wire bytes).
        transcript: Vec<String>,
        /// Deliver each message as the cluster does — encoded, and
        /// viewed in its wire bytes at every node — instead of owned.
        as_views: bool,
    }

    impl Bus {
        fn new() -> Self {
            Bus {
                queue: std::collections::VecDeque::new(),
                now: SimTime::ZERO,
                transcript: Vec::new(),
                as_views: false,
            }
        }

        fn collect(&mut self, outs: Vec<Out>) -> Vec<Out> {
            let mut rest = Vec::new();
            for out in outs {
                match out {
                    Out::Multicast { delay, message, .. } => {
                        self.transcript.push(format!(
                            "mc +{} {} {:016x}",
                            delay.as_nanos(),
                            message.kind(),
                            crate::hash::hash_bytes(&message.to_bytes())
                        ));
                        self.queue.push_back(message);
                    }
                    other => {
                        self.transcript.push(format!("{other:?}"));
                        rest.push(other);
                    }
                }
            }
            rest
        }

        /// Delivers the next queued message to every node; returns the
        /// message and the non-multicast outs it produced, or `None`
        /// once the bus has drained. Tests that inject faults at a
        /// specific total-order point (mid chunk stream, say) drive
        /// this directly.
        fn step(
            &mut self,
            mechs: &mut [&mut Mechanisms],
        ) -> Option<(EternalMessage, Vec<(NodeId, Out)>)> {
            let message = self.queue.pop_front()?;
            self.now += Duration::from_micros(100);
            let mut events = Vec::new();
            let wire = message.to_bytes();
            for mech in mechs.iter_mut() {
                let node = mech.node();
                let outs = with_ctx(|ctx| match self.as_views {
                    true => {
                        let view = Delivered::view(&wire).expect("decodes");
                        mech.on_delivered_view(view, self.now, ctx)
                    }
                    false => mech.on_delivered(message.clone(), self.now, ctx),
                });
                if !outs.is_empty() {
                    self.transcript.push(format!("at {node}:"));
                }
                for out in self.collect(outs) {
                    events.push((node, out));
                }
            }
            Some((message, events))
        }

        /// Drains the queue through every node; returns non-multicast
        /// outs per node id.
        fn run(&mut self, mechs: &mut [&mut Mechanisms]) -> Vec<(NodeId, Out)> {
            let mut events = Vec::new();
            while let Some((_, mut evs)) = self.step(mechs) {
                events.append(&mut evs);
            }
            events
        }
    }

    fn server_meta(group: GroupId, hosts: Vec<NodeId>, style: ReplicationStyle) -> GroupMeta {
        let props = match style {
            ReplicationStyle::Active => FaultToleranceProperties::active(hosts.len()),
            ReplicationStyle::WarmPassive => {
                FaultToleranceProperties::warm_passive(hosts.len()).with_min_replicas(1)
            }
            ReplicationStyle::ColdPassive => {
                FaultToleranceProperties::cold_passive(hosts.len()).with_min_replicas(1)
            }
        };
        GroupMeta {
            id: group,
            name: format!("server-{group}"),
            props,
            hosts,
            kind: GroupKind::Server(Box::new(|| Box::new(CounterServant::default()))),
        }
    }

    fn client_meta(group: GroupId, hosts: Vec<NodeId>, server: GroupId) -> GroupMeta {
        GroupMeta {
            id: group,
            name: format!("client-{group}"),
            props: FaultToleranceProperties::active(hosts.len()),
            hosts,
            kind: GroupKind::Client(Box::new(move |_| {
                // Bounded: the test bus drains the queue to quiescence,
                // so the stream must terminate.
                Box::new(StreamingClient::new(server, "increment", 1).with_limit(5))
            })),
        }
    }

    /// Registers the server group — a counter of `style` on
    /// `server_hosts` — and the `clients()` groups on every processor,
    /// and deploys each group's replica on its hosts.
    fn deploy(
        mechs: &mut [&mut Mechanisms],
        style: ReplicationStyle,
        server_hosts: Vec<NodeId>,
        clients: impl Fn() -> Vec<GroupMeta>,
    ) {
        for m in mechs.iter_mut() {
            let mut groups = vec![server_meta(GroupId(0), server_hosts.clone(), style)];
            groups.extend(clients());
            for meta in groups {
                let (group, hosted) = (meta.id, meta.hosts.contains(&m.node()));
                m.register_group(meta);
                if hosted {
                    m.deploy_local_replica(group);
                }
            }
        }
    }

    /// A client group on one host streaming `limit` increments at
    /// `server`, `window` at a time.
    fn streaming_meta(
        group: GroupId,
        host: NodeId,
        server: GroupId,
        window: usize,
        limit: u64,
    ) -> GroupMeta {
        GroupMeta {
            id: group,
            name: "client-stream".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![host],
            kind: GroupKind::Client(Box::new(move |_| {
                Box::new(StreamingClient::new(server, "increment", window).with_limit(limit))
            })),
        }
    }

    /// Two processors: a server replica on each (active), a client on
    /// P0. One full invocation round trip through real GIOP bytes.
    #[test]
    fn end_to_end_invocation_round_trip() {
        let server = GroupId(0);
        let client = GroupId(1);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::Active,
            vec![n(0), n(1)],
            || vec![client_meta(client, vec![n(0)], server)],
        );

        let mut bus = Bus::new();
        let outs = with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx));
        assert!(
            with_ctx(|ctx| b.start_clients(SimTime::ZERO, ctx)).is_empty(),
            "no client replica on P1"
        );
        bus.collect(outs);
        let events = bus.run(&mut [&mut a, &mut b]);
        // The client got its reply (and the streaming app immediately
        // issued follow-ups that also complete, until the bus drains in
        // lock-step; at least one ReplyDelivered must have appeared).
        assert!(events
            .iter()
            .any(|(node, out)| *node == n(0) && matches!(out, Out::ReplyDelivered { .. })));
        // Both server replicas dispatched the same operations.
        assert_eq!(
            a.counters().requests_dispatched,
            b.counters().requests_dispatched
        );
        assert!(a.counters().requests_dispatched > 0);
        // Duplicate replies (one per server replica) were suppressed.
        assert!(a.suppressed() > 0 || b.suppressed() > 0);
    }

    #[test]
    fn duplicate_iiop_copies_are_suppressed() {
        let server = GroupId(0);
        let client = GroupId(1);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        a.register_group(server_meta(server, vec![n(0)], ReplicationStyle::Active));
        a.register_group(client_meta(client, vec![n(9)], server));
        a.deploy_local_replica(server);

        // Build one request via a sibling's mechanisms to get real bytes.
        let mut sibling = Mechanisms::new(n(9), MechConfig::default());
        sibling.register_group(server_meta(server, vec![n(0)], ReplicationStyle::Active));
        sibling.register_group(client_meta(client, vec![n(9)], server));
        sibling.deploy_local_replica(client);
        let outs = with_ctx(|ctx| sibling.start_clients(SimTime::ZERO, ctx));
        let msg = outs
            .into_iter()
            .find_map(|o| match o {
                Out::Multicast { message, .. } => Some(message),
                _ => None,
            })
            .expect("client issued a request");

        let first = with_ctx(|ctx| a.on_delivered(msg.clone(), SimTime::ZERO, ctx));
        assert!(
            first.iter().any(|o| matches!(o, Out::Multicast { .. })),
            "first copy dispatched and produced a reply"
        );
        let second = with_ctx(|ctx| a.on_delivered(msg.clone(), SimTime::ZERO, ctx));
        assert!(second.is_empty(), "duplicate copy fully suppressed");
        let third = with_ctx(|ctx| a.on_delivered(msg, SimTime::ZERO, ctx));
        assert!(third.is_empty());
        assert_eq!(a.suppressed(), 2);
    }

    #[test]
    fn checkpoint_flow_logs_at_all_hosts() {
        let server = GroupId(0);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::WarmPassive,
            vec![n(0), n(1)],
            Vec::new,
        );
        assert_eq!(a.replica_phase(server), Some(ReplicaPhase::Operational));
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::Standby));

        let mut bus = Bus::new();
        // Only the primary host fabricates the checkpoint retrieval.
        assert!(b.checkpoint_due(server).is_empty());
        bus.collect(a.checkpoint_due(server));
        bus.run(&mut [&mut a, &mut b]);
        assert_eq!(a.checkpoints_taken(server), 1);
        assert_eq!(b.checkpoints_taken(server), 1);
        assert_eq!(a.counters().checkpoints_logged, 1);
    }

    /// A checkpoint is logged where the capture's mark was recorded at
    /// the retrieval and the processor is a host of the group at the
    /// assignment's delivery. Between the retrieval and the assignment's
    /// last fragment P2 becomes a host of the group and P3 stops being
    /// one: P2 logs nothing (a replica it gains is synchronized by a
    /// transfer, not by this checkpoint), and neither does P3. P4, no
    /// host but given a warm backup by a transfer beforehand, applies
    /// the body and logs nothing.
    #[test]
    fn a_host_change_after_the_retrieval_leaves_the_checkpoint_where_it_was_marked() {
        use crate::message::{EternalReassembler, FRAGMENT_OVERHEAD};
        let server = GroupId(0);
        let style = ReplicationStyle::WarmPassive;
        let mut mechs = [0, 1, 2, 3, 4].map(|i| Mechanisms::new(n(i), MechConfig::default()));
        deploy(
            &mut mechs.each_mut(),
            style,
            vec![n(0), n(1), n(3)],
            Vec::new,
        );
        let mut bus = Bus::new();
        bus.collect(mechs[4].launch_recovering_replica(server));
        bus.run(&mut mechs.each_mut());
        assert_eq!(mechs[4].replica_phase(server), Some(ReplicaPhase::Standby));
        bus.collect(mechs[0].checkpoint_due(server));
        let (retrieval, _) = bus.step(&mut mechs.each_mut()).expect("the retrieval");
        assert!(matches!(retrieval, EternalMessage::StateRetrieval { .. }));
        let assignment = bus.queue.pop_front().expect("the assignment");
        let hosts = [vec![n(0), n(1), n(2), n(3)], vec![n(0), n(1)]];
        for (m, hosts) in mechs[2..4].iter_mut().zip(hosts) {
            m.register_group(server_meta(server, hosts, style));
        }
        let taken = |mechs: &[Mechanisms; 5]| mechs.each_ref().map(|m| m.checkpoints_taken(server));
        let before = taken(&mechs);
        let frags: Vec<_> = assignment
            .fragments(n(0), 1, FRAGMENT_OVERHEAD + 40)
            .collect();
        assert!(frags.len() > 1, "the body comes in several fragments");
        for m in &mut mechs {
            let mut reassembler = EternalReassembler::new();
            let (last, rest) = frags.split_last().expect("fragments");
            for frag in rest {
                assert!(matches!(reassembler.push_view(frag), Ok(None)));
            }
            let done = reassembler.push_view(last);
            let delivered = done.expect("well-formed").expect("the last fragment");
            with_ctx(|ctx| m.on_delivered_view(delivered, bus.now, ctx));
        }
        let logged: Vec<u64> = (taken(&mechs).iter().zip(before))
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(logged, [1, 1, 0, 0, 0]);
        assert_eq!(mechs[1].replica_phase(server), Some(ReplicaPhase::Standby));
    }

    #[test]
    fn five_one_recovery_protocol_through_the_bus() {
        let server = GroupId(0);
        let client = GroupId(1);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::Active,
            vec![n(0), n(1)],
            || vec![client_meta(client, vec![n(0)], server)],
        );

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b]);

        // Kill B's replica; its fault is announced and a recovering
        // replica launched there.
        bus.collect(b.kill_local_replica(server));
        bus.run(&mut [&mut a, &mut b]);
        bus.collect(b.launch_recovering_replica(server));
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::AwaitingSync));
        let events = bus.run(&mut [&mut a, &mut b]);

        // The §5.1 episode completed at B with the counter's state.
        let recovered = events.iter().find_map(|(node, out)| match out {
            Out::RecoveryComplete {
                group,
                app_state_bytes,
            } if *node == n(1) && *group == server => Some(*app_state_bytes),
            _ => None,
        });
        let bytes = recovered.expect("B recovered");
        assert!(bytes > 0, "non-empty application state transferred");
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::Operational));
    }

    /// With a chunk size smaller than the checkpoint, the transfer
    /// streams several `StateChunk`s and still reinstates the replica
    /// with byte-identical state.
    #[test]
    fn chunked_recovery_streams_and_completes() {
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            chunk_bytes: 16,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg);
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::Active,
            vec![n(0), n(1)],
            || vec![client_meta(client, vec![n(0)], server)],
        );

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b]);

        bus.collect(b.kill_local_replica(server));
        bus.run(&mut [&mut a, &mut b]);
        bus.collect(b.launch_recovering_replica(server));
        let events = bus.run(&mut [&mut a, &mut b]);

        assert!(
            events.iter().any(|(node, out)| *node == n(1)
                && matches!(out, Out::RecoveryComplete { group, .. } if *group == server)),
            "B recovered over the chunked path"
        );
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::Operational));
        // The state exceeded the pipeline window: deliveries released
        // the later chunks.
        assert!(
            a.counters().chunks_streamed > CHUNK_PIPELINE as u64,
            "expected a stream longer than the window, streamed {}",
            a.counters().chunks_streamed
        );
        // No retained transfer contexts linger once the suffix lands.
        assert_eq!(a.active_transfers(), 0);
        assert_eq!(b.active_transfers(), 0);
        assert_eq!(a.transfer_chunks_pending(), 0);
        // Donor and recovered replica agree byte-for-byte.
        let donor_state = a.probe_application_state(server);
        assert!(donor_state.is_some());
        assert_eq!(donor_state, b.probe_application_state(server));
    }

    /// Killing the donor mid-stream hands the transfer to the next
    /// operational host, which resumes from the shared cursor rather
    /// than restarting from byte zero.
    #[test]
    fn donor_takeover_resumes_from_cursor() {
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            chunk_bytes: 8,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg.clone());
        let mut c = Mechanisms::new(n(2), cfg);
        deploy(
            &mut [&mut a, &mut b, &mut c],
            ReplicationStyle::Active,
            vec![n(0), n(1), n(2)],
            || vec![client_meta(client, vec![n(0)], server)],
        );

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b, &mut c]);

        bus.collect(c.kill_local_replica(server));
        bus.run(&mut [&mut a, &mut b, &mut c]);
        bus.collect(c.launch_recovering_replica(server));

        // Step until a few chunks have been delivered, then kill the
        // donor (P0, the lowest operational host) mid-stream.
        let mut chunk_messages = 0u32;
        let chunk_total = loop {
            let (message, _) = bus
                .step(&mut [&mut a, &mut b, &mut c])
                .expect("chunk stream under way");
            if let EternalMessage::StateChunk { total, .. } = &message {
                chunk_messages += 1;
                if chunk_messages == 3 {
                    break *total;
                }
            }
        };
        assert!(
            chunk_total > CHUNK_PIPELINE as u32,
            "state must split into enough chunks to interrupt ({chunk_total})"
        );
        assert_eq!(c.replica_phase(server), Some(ReplicaPhase::AwaitingSync));
        bus.collect(a.kill_local_replica(server));

        let mut recovered = false;
        while let Some((message, events)) = bus.step(&mut [&mut a, &mut b, &mut c]) {
            if matches!(message, EternalMessage::StateChunk { .. }) {
                chunk_messages += 1;
            }
            recovered |= events.iter().any(|(node, out)| {
                *node == n(2)
                    && matches!(out, Out::RecoveryComplete { group, .. } if *group == server)
            });
        }
        assert!(recovered, "takeover completed the recovery");
        assert_eq!(
            b.counters().transfer_takeovers,
            1,
            "P1 resumed the orphaned stream"
        );
        // Resumption from the cursor: at most the pipeline window's
        // worth of chunks is ever re-sent, never the whole stream.
        assert!(
            chunk_messages <= chunk_total + CHUNK_PIPELINE as u32,
            "{chunk_messages} chunk sends for a {chunk_total}-chunk checkpoint"
        );
        assert_eq!(c.replica_phase(server), Some(ReplicaPhase::Operational));
        assert_eq!(
            b.probe_application_state(server),
            c.probe_application_state(server)
        );
    }

    /// The donor's processor dies between two fragments of a chunk: the
    /// new host forgets the partial with its origin, the takeover
    /// resends the chunk from the shared cursor, and nothing the dead
    /// donor left behind reaches the inbound buffer — the recovered
    /// state is the donors' byte for byte. The new host takes every
    /// chunk in fragments, as the cluster delivers them; the others
    /// take whole messages.
    #[test]
    fn a_donor_killed_between_two_fragments_of_a_chunk_leaves_no_byte_behind() {
        use crate::message::{EternalReassembler, FRAGMENT_OVERHEAD};
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            chunk_bytes: 16,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg.clone());
        let mut c = Mechanisms::new(n(2), cfg);
        deploy(
            &mut [&mut a, &mut b, &mut c],
            ReplicationStyle::Active,
            vec![n(0), n(1), n(2)],
            || vec![client_meta(client, vec![n(0)], server)],
        );
        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b, &mut c]);
        bus.collect(c.kill_local_replica(server));
        bus.run(&mut [&mut a, &mut b, &mut c]);
        bus.collect(c.launch_recovering_replica(server));

        let mut reassembler = EternalReassembler::new();
        let (mut donor, mut msg_id, mut chunks) = (n(0), 0, 0);
        let mut recovered = false;
        while let Some(message) = bus.queue.pop_front() {
            bus.now += Duration::from_micros(100);
            let mut outs = Vec::new();
            let EternalMessage::StateChunk { total, .. } = message else {
                for m in [&mut a, &mut b, &mut c] {
                    outs.extend(with_ctx(|ctx| {
                        m.on_delivered(message.clone(), bus.now, ctx)
                    }));
                }
                recovered |= bus.collect(outs).iter().any(
                    |out| matches!(out, Out::RecoveryComplete { group, .. } if *group == server),
                );
                continue;
            };
            msg_id += 1;
            chunks += 1;
            // The head and 4 body bytes in the first of two fragments.
            let frags: Vec<_> = message
                .fragments(donor, msg_id, FRAGMENT_OVERHEAD + 36)
                .collect();
            assert_eq!(frags.len(), 2);
            if chunks == 3 {
                assert!(total > 3, "the stream goes on after the dead donor");
                let pushed = reassembler.push_view(&frags[0]);
                assert!(matches!(pushed, Ok(None)), "the first fragment is held");
                // P0 dies: its last fragment and its later chunks never
                // go out, and the new host forgets its partial.
                reassembler.forget_origin(donor);
                let dead = std::mem::take(&mut bus.queue);
                let alive = dead
                    .into_iter()
                    .filter(|m| !matches!(m, EternalMessage::StateChunk { .. }));
                bus.queue.extend(alive);
                bus.collect(a.kill_local_replica(server));
                donor = n(1);
                continue;
            }
            for m in [&mut a, &mut b] {
                outs.extend(with_ctx(|ctx| {
                    m.on_delivered(message.clone(), bus.now, ctx)
                }));
            }
            for frag in &frags {
                if let Some(delivered) = reassembler.push_view(frag).expect("well-formed") {
                    outs.extend(with_ctx(|ctx| c.on_delivered_view(delivered, bus.now, ctx)));
                }
            }
            bus.collect(outs);
        }
        assert!(recovered, "the takeover completed the recovery");
        assert_eq!(b.counters().transfer_takeovers, 1);
        assert_eq!(c.replica_phase(server), Some(ReplicaPhase::Operational));
        let donors = b.probe_application_state(server);
        assert!(donors.is_some());
        assert_eq!(donors, c.probe_application_state(server));
    }

    /// Delivers `message` at its total-order point: whole to `whole`,
    /// and as the rest of its `frags` through `reassembler` to `cut`,
    /// which was pushed the first one before.
    fn deliver_rest(
        message: &EternalMessage,
        frags: &[eternal_sim::Bytes],
        whole: &mut [&mut Mechanisms],
        (cut, reassembler): (&mut Mechanisms, &mut crate::message::EternalReassembler),
        bus: &mut Bus,
    ) {
        let mut outs = Vec::new();
        for m in whole {
            outs.extend(with_ctx(|ctx| {
                m.on_delivered(message.clone(), bus.now, ctx)
            }));
        }
        let (last, middle) = frags[1..].split_last().expect("several fragments");
        for frag in middle {
            assert!(matches!(reassembler.push_view(frag), Ok(None)));
        }
        let delivered = reassembler.push_view(last).expect("well-formed");
        let delivered = delivered.expect("the last fragment completes it");
        assert!(matches!(delivered.body, Body::Pieces(_)));
        outs.extend(with_ctx(|ctx| {
            cut.on_delivered_view(delivered, bus.now, ctx)
        }));
        bus.collect(outs);
    }

    /// A processor that hosts nothing when a request's first fragment
    /// arrives launches a recovering replica of its server group before
    /// the last one. The request's fate falls at its total-order point:
    /// delivered after the retrieval (the mark), it reaches the
    /// donors' transfer suffix whole; delivered after the last chunk
    /// (the sync point), it is held whole by the new replica. Either
    /// way the replica converges with the donors.
    #[test]
    fn a_launch_or_a_retrieval_between_two_fragments_finds_the_body_whole() {
        use crate::message::{EternalReassembler, FRAGMENT_OVERHEAD};
        let (server, client) = (GroupId(0), GroupId(1));
        for after_last_chunk in [false, true] {
            let mut a = Mechanisms::new(n(0), MechConfig::default());
            let mut b = Mechanisms::new(n(1), MechConfig::default());
            let mut c = Mechanisms::new(n(2), MechConfig::default());
            deploy(
                &mut [&mut a, &mut b, &mut c],
                ReplicationStyle::Active,
                vec![n(0), n(1)],
                || vec![streaming_meta(client, n(0), server, 1, 6)],
            );
            let mut bus = Bus::new();
            bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
            let request = bus.queue.pop_front().expect("the first request");
            let frags: Vec<_> = request.fragments(n(0), 1, FRAGMENT_OVERHEAD + 40).collect();
            assert!(frags.len() > 2, "the request comes in several fragments");
            let mut reassembler = EternalReassembler::new();
            assert!(matches!(reassembler.push_view(&frags[0]), Ok(None)));
            assert_eq!(c.replica_phase(server), None, "P2 hosts nothing");
            bus.collect(c.launch_recovering_replica(server));
            loop {
                let mechs = &mut [&mut a, &mut b, &mut c];
                let (message, _) = bus.step(mechs).expect("the recovery goes on");
                let marked = matches!(message, EternalMessage::StateRetrieval { .. });
                let synced = c.replica_phase(server) == Some(ReplicaPhase::Enqueueing);
                if (marked && !after_last_chunk) || synced {
                    break;
                }
            }
            let mid_stream = c.replica_phase(server) == Some(ReplicaPhase::AwaitingSync);
            assert_eq!(mid_stream, !after_last_chunk);
            let (held, dropped) = (c.holding_depth_total(), c.counters().dropped_pre_sync);
            let cut = (&mut c, &mut reassembler);
            deliver_rest(&request, &frags, &mut [&mut a, &mut b], cut, &mut bus);
            match after_last_chunk {
                true => assert_eq!(c.holding_depth_total(), held + 1, "held whole"),
                false => assert_eq!(c.counters().dropped_pre_sync, dropped + 1),
            }
            bus.run(&mut [&mut a, &mut b, &mut c]);
            assert_eq!(c.replica_phase(server), Some(ReplicaPhase::Operational));
            let donors = b.probe_application_state(server);
            assert!(donors.is_some());
            assert_eq!(donors, c.probe_application_state(server));
            assert_eq!(donors, a.probe_application_state(server));
        }
    }

    /// A processor that hosts neither group of a connection reads no
    /// byte of a request in several fragments: it gathers nothing and
    /// its observer learns nothing of the connection, while the hosts'
    /// observers do.
    #[test]
    fn a_processor_hosting_neither_group_reads_no_body() {
        use crate::message::{EternalReassembler, FRAGMENT_OVERHEAD};
        let (server, client) = (GroupId(0), GroupId(1));
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        let mut c = Mechanisms::new(n(2), MechConfig::default());
        deploy(
            &mut [&mut a, &mut b, &mut c],
            ReplicationStyle::Active,
            vec![n(1)],
            || vec![streaming_meta(client, n(0), server, 1, 1)],
        );
        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        let request = bus.queue.pop_front().expect("the request");
        let frags: Vec<_> = request.fragments(n(0), 1, FRAGMENT_OVERHEAD + 40).collect();
        for m in [&mut a, &mut b, &mut c] {
            let mut reassembler = EternalReassembler::new();
            assert!(matches!(reassembler.push_view(&frags[0]), Ok(None)));
            deliver_rest(&request, &frags, &mut [], (m, &mut reassembler), &mut bus);
        }
        let conn = ConnectionName { client, server };
        assert!(a.observer.connection(conn).is_some(), "the client's host");
        assert!(b.observer.connection(conn).is_some(), "the server's host");
        assert_eq!(c.observer.connection(conn), None);
        assert_eq!(c.scratch.capacity(), 0, "a body was gathered");
        assert_eq!(b.counters().requests_dispatched, 1);
    }

    /// Under sustained load a passive primary fabricates checkpoints
    /// when its log suffix hits the configured bound, without anyone
    /// calling `checkpoint_due`.
    #[test]
    fn suffix_bound_triggers_checkpoint() {
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            suffix_checkpoint_len: 3,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg);
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::WarmPassive,
            vec![n(0), n(1)],
            || vec![streaming_meta(client, n(0), server, 1, 12)],
        );

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b]);

        assert!(
            a.counters().suffix_checkpoints_triggered >= 2,
            "12 logged messages against a bound of 3 should trigger repeatedly, got {}",
            a.counters().suffix_checkpoints_triggered
        );
        assert!(
            b.counters().suffix_checkpoints_triggered == 0,
            "only the primary fabricates the checkpoint retrieval"
        );
        // The fabricated checkpoints were recorded at BOTH hosts, in
        // lock-step, and kept the replay suffix bounded.
        assert_eq!(a.checkpoints_taken(server), b.checkpoints_taken(server));
        assert!(a.checkpoints_taken(server) >= 2);
        assert!(
            a.log_suffix_len(server) <= 3,
            "suffix stays bounded at quiescence ({} entries)",
            a.log_suffix_len(server)
        );
        assert_eq!(a.log_suffix_len(server), b.log_suffix_len(server));
    }

    /// The surviving replica keeps dispatching invocations while the
    /// checkpoint streams: the group does not quiesce for the bulk of
    /// the transfer.
    #[test]
    fn chunked_transfer_covers_midstream_traffic() {
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            chunk_bytes: 8,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg);
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::Active,
            vec![n(0), n(1)],
            || vec![streaming_meta(client, n(0), server, 1, 40)],
        );

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| a.start_clients(SimTime::ZERO, ctx)));
        // Let some traffic through, then fail B with the queue still
        // busy; step past the fault's total-order point (the stream of
        // client follow-ups keeps the bus from draining).
        for _ in 0..6 {
            bus.step(&mut [&mut a, &mut b]).expect("traffic flowing");
        }
        bus.collect(b.kill_local_replica(server));
        loop {
            let (message, _) = bus
                .step(&mut [&mut a, &mut b])
                .expect("traffic keeps the bus busy");
            if matches!(message, EternalMessage::ReplicaFault { .. }) {
                break;
            }
        }
        bus.collect(b.launch_recovering_replica(server));

        let mut dispatched_at_first_chunk = None;
        let mut dispatched_at_last_chunk = None;
        let mut recovered = false;
        while let Some((message, events)) = bus.step(&mut [&mut a, &mut b]) {
            if let EternalMessage::StateChunk { index, total, .. } = message {
                if index == 0 {
                    dispatched_at_first_chunk = Some(a.counters().requests_dispatched);
                }
                if index + 1 == total {
                    dispatched_at_last_chunk = Some(a.counters().requests_dispatched);
                }
            }
            recovered |= events.iter().any(|(node, out)| {
                *node == n(1)
                    && matches!(out, Out::RecoveryComplete { group, .. } if *group == server)
            });
        }
        assert!(recovered, "B recovered mid-load");
        let first = dispatched_at_first_chunk.expect("stream started");
        let last = dispatched_at_last_chunk.expect("stream finished");
        assert!(
            last > first,
            "the group kept serving while state streamed ({first} → {last} dispatches)"
        );
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::Operational));
        assert_eq!(
            a.probe_application_state(server),
            b.probe_application_state(server)
        );
    }

    #[test]
    #[should_panic(expected = "chunk_bytes")]
    fn zero_chunk_size_is_rejected() {
        let _ = Mechanisms::new(
            n(0),
            MechConfig {
                chunk_bytes: 0,
                ..MechConfig::default()
            },
        );
    }

    /// `StateAssignment` is the checkpoint's message. One that claims a
    /// recovery — only the wire can produce it now — is dropped whole.
    #[test]
    fn recovery_purposed_assignment_changes_nothing() {
        let server = GroupId(0);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        for m in [&mut a, &mut b] {
            m.register_group(server_meta(
                server,
                vec![n(0), n(1)],
                ReplicationStyle::WarmPassive,
            ));
        }
        a.deploy_local_replica(server);
        let mut bus = Bus::new();
        bus.collect(b.launch_recovering_replica(server));
        // Stop at the retrieval: B is bound to the transfer and waiting
        // for its chunks.
        let transfer = loop {
            let (message, _) = bus.step(&mut [&mut a, &mut b]).expect("retrieval issued");
            if let EternalMessage::StateRetrieval { transfer, .. } = message {
                break transfer;
            }
        };
        let state = a.capture_three_kinds(server);
        let wire = EternalMessage::StateAssignment {
            transfer,
            purpose: RetrievalPurpose::Recovery { new_host: n(1) },
            state: Box::new(state),
        }
        .to_bytes();
        for m in [&mut a, &mut b] {
            let before = (
                m.replica_phase(server),
                m.operational_hosts(server),
                m.checkpoints_taken(server),
                m.log_suffix_len(server),
                m.transfer_tables_resident(),
            );
            let message = EternalMessage::from_bytes(&wire).expect("well-formed");
            let outs = with_ctx(|ctx| m.on_delivered(message, bus.now, ctx));
            assert!(outs.is_empty(), "{outs:?}");
            let after = (
                m.replica_phase(server),
                m.operational_hosts(server),
                m.checkpoints_taken(server),
                m.log_suffix_len(server),
                m.transfer_tables_resident(),
            );
            assert_eq!(before, after, "{}", m.node());
        }
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::AwaitingSync));
        // The stream it was waiting for still completes the recovery.
        bus.run(&mut [&mut a, &mut b]);
        assert_eq!(b.replica_phase(server), Some(ReplicaPhase::Standby));
    }

    /// Both per-transfer tables stay bounded over 10 000 checkpoints,
    /// one in ten of which loses its assignment (the primary "died"
    /// between `get_state` and `set_state`, leaving a mark behind).
    #[test]
    fn transfer_tables_stay_bounded_over_many_checkpoints() {
        let server = GroupId(0);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        deploy(
            &mut [&mut a, &mut b],
            ReplicationStyle::WarmPassive,
            vec![n(0), n(1)],
            Vec::new,
        );
        let mut bus = Bus::new();
        let mut high_water = (0, 0);
        for round in 0..10_000 {
            bus.collect(a.checkpoint_due(server));
            if round % 10 == 9 {
                bus.step(&mut [&mut a, &mut b]).expect("the retrieval");
                let lost = bus.queue.pop_front();
                assert!(matches!(lost, Some(EternalMessage::StateAssignment { .. })));
            }
            bus.run(&mut [&mut a, &mut b]);
            for m in [&a, &b] {
                let (seen, marks) = m.transfer_tables_resident();
                high_water = (high_water.0.max(seen), high_water.1.max(marks));
            }
        }
        assert_eq!(a.checkpoints_taken(server), 9_000);
        assert_eq!(b.checkpoints_taken(server), 9_000);
        assert_eq!(high_water.0, SEEN_TRANSFERS_WINDOW);
        assert!(
            high_water.1 <= 2,
            "a lost assignment's mark outlived the next checkpoint ({})",
            high_water.1
        );
    }

    /// Two promotions and one chunked recovery of a warm-passive group
    /// (P0, P1) under a client's load (P2), through `bus`. Returns the
    /// three processors and where in the transcript the first promotion
    /// starts.
    fn two_promotions_and_a_chunked_recovery(bus: &mut Bus) -> ([Mechanisms; 3], usize) {
        let server = GroupId(0);
        let client = GroupId(1);
        let cfg = MechConfig {
            chunk_bytes: 16,
            ..MechConfig::default()
        };
        let mut a = Mechanisms::new(n(0), cfg.clone());
        let mut b = Mechanisms::new(n(1), cfg.clone());
        let mut c = Mechanisms::new(n(2), cfg);
        deploy(
            &mut [&mut a, &mut b, &mut c],
            ReplicationStyle::WarmPassive,
            vec![n(0), n(1)],
            || vec![streaming_meta(client, n(2), server, 2, 60)],
        );

        bus.collect(with_ctx(|ctx| c.start_clients(SimTime::ZERO, ctx)));
        let mut steps = |bus: &mut Bus, a: &mut Mechanisms, b: &mut Mechanisms, n: usize| {
            for _ in 0..n {
                if bus.step(&mut [&mut *a, &mut *b, &mut c]).is_none() {
                    break;
                }
            }
        };
        steps(bus, &mut a, &mut b, 8);
        // A checkpoint mid-traffic, so the promotion below applies it
        // and replays only the suffix logged after its mark.
        bus.collect(a.checkpoint_due(server));
        steps(bus, &mut a, &mut b, 12);
        // Promotion 1: the primary dies, the warm backup replays.
        let promotion_1 = bus.transcript.len();
        bus.collect(a.kill_local_replica(server));
        steps(bus, &mut a, &mut b, 10);
        assert_eq!(b.primary_host(server), Some(n(1)));
        // Chunked recovery of the dead replica under the remaining
        // traffic: it completes as a standby whose re-baselined log
        // carries the transfer suffix and the held messages.
        bus.collect(a.launch_recovering_replica(server));
        steps(bus, &mut a, &mut b, 60);
        assert_eq!(a.replica_phase(server), Some(ReplicaPhase::Standby));
        // Promotion 2, out of that re-baselined log.
        bus.collect(b.kill_local_replica(server));
        steps(bus, &mut a, &mut b, usize::MAX);
        assert_eq!(a.replica_phase(server), Some(ReplicaPhase::Operational));
        ([a, b, c], promotion_1)
    }

    /// Two promotions and one chunked recovery of a warm-passive group
    /// under load go through the one replay routine and produce, `Out`
    /// for `Out`, what the three replay loops it replaced produced: the
    /// expectations were captured from the commit before it existed.
    #[test]
    fn promotion_and_chunked_recovery_replay_the_parents_out_sequence() {
        let server = GroupId(0);
        let mut bus = Bus::new();
        let ([mut a, ..], promotion_1) = two_promotions_and_a_chunked_recovery(&mut bus);

        // The first promotion, line for line: the fault, then at P1 the
        // four requests logged after the checkpoint's mark replayed
        // 50 µs apart, and the promotion record.
        let replayed: Vec<&str> = bus.transcript[promotion_1..]
            .iter()
            .map(String::as_str)
            .filter(|l| l.contains("fault") || l.contains("rep op#") || l.contains("Promoted"))
            .skip_while(|l| !l.contains("fault"))
            .take(6)
            .collect();
        assert_eq!(
            replayed,
            [
                "mc +0 fault G0@P0 fc20f9ab0cffac3c",
                "mc +100000 iiop G1->G0 rep op#6 fed8d0f31c0e606a",
                "mc +150000 iiop G1->G0 rep op#7 fa9854042de885cf",
                "mc +200000 iiop G1->G0 rep op#8 bca716d4275e910f",
                "mc +250000 iiop G1->G0 rep op#9 931b3976701716a5",
                "Promoted { group: GroupId(0), replayed: 4, ready_after: Duration(200000) }",
            ]
        );
        // The second replays 22 out of the log the recovery re-baselined
        // (3 suffix entries, the held traffic, what was logged after).
        let second = "Promoted { group: GroupId(0), replayed: 22, ready_after: Duration(1100000) }";
        assert!(bus.transcript.iter().any(|l| l == second));
        // Servant state: 61 increments, each executed exactly once.
        assert_eq!(
            a.probe_application_state(server),
            Some(vec![0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 61])
        );
        // And everything in between.
        assert_eq!(
            crate::hash::hash_bytes(bus.transcript.join("\n").as_bytes()),
            0x239e_a683_42c5_206f,
            "{}",
            bus.transcript.join("\n")
        );
    }

    /// A stream delivered the way the cluster delivers it — every node
    /// viewing the wire bytes — and the same stream delivered as owned
    /// messages are one path: the same `Out`s in the same order, the
    /// same counters, the same replica state. The scenario passes
    /// through each of the three places that keep a copy of a message
    /// they were shown: the passive group's log, the transfer-suffix
    /// window of the chunked recovery, and the recovering replica's
    /// holding queue.
    #[test]
    fn views_and_owned_messages_are_delivered_alike() {
        let server = GroupId(0);
        let observe = |as_views: bool| {
            let mut bus = Bus::new();
            bus.as_views = as_views;
            let (mechs, _) = two_promotions_and_a_chunked_recovery(&mut bus);
            let state = mechs.map(|mut m| {
                let state = (
                    m.replica_phase(server),
                    m.probe_application_state(server),
                    m.checkpoints_taken(server),
                    m.suppressed(),
                );
                (m.counters(), state)
            });
            (bus.transcript, state)
        };
        let (owned, viewed) = (observe(false), observe(true));
        assert_eq!(owned.0.join("\n"), viewed.0.join("\n"));
        assert_eq!(format!("{:?}", owned.1), format!("{:?}", viewed.1));
        // Each keeping site saw traffic: the hosts logged, the donor's
        // window shipped a non-empty suffix, the recipient held.
        let [(a, _), (b, _), _] = viewed.1;
        assert!(b.messages_logged > 0 && a.enqueued_during_recovery > 0);
        let shipped = |l: &String| l.contains("state_suffix") && !l.contains(" 0 entries");
        assert!(viewed.0.iter().any(shipped));
    }

    /// A client that alternates a oneway `notify` with a two-way `put`,
    /// `rounds` times: each reply releases the next pair.
    struct NotifyAndPut {
        server: GroupId,
        rounds: u32,
        issued: u32,
    }

    impl NotifyAndPut {
        fn pair(&mut self) -> Vec<AppInvocation> {
            if self.issued == self.rounds {
                return Vec::new();
            }
            self.issued += 1;
            let key = format!("k{}", self.issued);
            vec![
                AppInvocation {
                    server: self.server,
                    operation: "notify".into(),
                    args: crate::app::KvStoreServant::key_args(&key),
                    response_expected: false,
                },
                AppInvocation {
                    server: self.server,
                    operation: "put".into(),
                    args: crate::app::KvStoreServant::put_args(&key, "v"),
                    response_expected: true,
                },
            ]
        }
    }

    impl crate::app::ClientApp for NotifyAndPut {
        fn on_start(&mut self) -> Vec<AppInvocation> {
            self.pair()
        }
        fn on_reply(
            &mut self,
            _: GroupId,
            _: &str,
            _: ReplyStatus,
            _: &[u8],
        ) -> Vec<AppInvocation> {
            self.pair()
        }
        fn get_state(&self) -> Any {
            Any::from(self.issued)
        }
        fn set_state(&mut self, _: &Any) {}
    }

    /// Oneways, two-way round trips and a promotion's log replay push
    /// into the one sink of their delivery exactly what the per-function
    /// vectors it replaced concatenated to: the expectations were
    /// captured from the commit before the sink existed.
    #[test]
    fn oneway_two_way_and_promotion_replay_keep_the_parents_out_sequence() {
        let server = GroupId(0);
        let client = GroupId(1);
        let kv = |hosts: Vec<NodeId>| GroupMeta {
            id: server,
            name: "kv".into(),
            props: FaultToleranceProperties::warm_passive(hosts.len()).with_min_replicas(1),
            hosts,
            kind: GroupKind::Server(Box::new(|| Box::new(crate::app::KvStoreServant::default()))),
        };
        let driver = || GroupMeta {
            id: client,
            name: "driver".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![n(2)],
            kind: GroupKind::Client(Box::new(move |_| {
                Box::new(NotifyAndPut {
                    server,
                    rounds: 3,
                    issued: 0,
                })
            })),
        };
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        let mut b = Mechanisms::new(n(1), MechConfig::default());
        let mut c = Mechanisms::new(n(2), MechConfig::default());
        for m in [&mut a, &mut b, &mut c] {
            for meta in [kv(vec![n(0), n(1)]), driver()] {
                let (group, hosted) = (meta.id, meta.hosts.contains(&m.node()));
                m.register_group(meta);
                if hosted {
                    m.deploy_local_replica(group);
                }
            }
        }

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| c.start_clients(SimTime::ZERO, ctx)));
        bus.run(&mut [&mut a, &mut b, &mut c]);
        // Three oneways and three two-ways went through the primary.
        assert_eq!(a.counters().requests_dispatched, 6);
        assert_eq!(c.counters().replies_delivered, 3);
        let steady: Vec<&str> = bus.transcript.iter().map(String::as_str).collect();
        assert_eq!(
            steady,
            STEADY_TRANSCRIPT.lines().map(str::trim).collect::<Vec<_>>(),
            "{}",
            bus.transcript.join("\n")
        );

        // The primary dies; the warm backup replays all six logged
        // requests: the oneways produce nothing, each `put` its reply.
        let promotion = bus.transcript.len();
        bus.collect(a.kill_local_replica(server));
        bus.run(&mut [&mut a, &mut b, &mut c]);
        assert_eq!(b.primary_host(server), Some(n(1)));
        assert_eq!(b.counters().requests_dispatched, 6);
        let replayed: Vec<&str> = bus.transcript[promotion..]
            .iter()
            .map(String::as_str)
            .collect();
        assert_eq!(
            replayed,
            PROMOTION_TRANSCRIPT
                .lines()
                .map(str::trim)
                .collect::<Vec<_>>(),
            "{}",
            bus.transcript[promotion..].join("\n")
        );
    }

    const STEADY_TRANSCRIPT: &str = "\
        mc +0 iiop G1->G0 req op#0 1f5dc58cba87382e
        mc +0 iiop G1->G0 req op#1 a55f0fe464a2f7b0
        at P0:
        mc +50000 iiop G1->G0 rep op#1 4074bfdf561b4975
        at P2:
        ReplyDelivered { conn: ConnectionName { client: GroupId(1), server: GroupId(0) }, op_seq: 1 }
        mc +0 iiop G1->G0 req op#2 fda7890392f62bd6
        mc +0 iiop G1->G0 req op#3 dfd7ccaa0be215ad
        at P0:
        mc +50000 iiop G1->G0 rep op#3 f2b688c14dd748d2
        at P2:
        ReplyDelivered { conn: ConnectionName { client: GroupId(1), server: GroupId(0) }, op_seq: 3 }
        mc +0 iiop G1->G0 req op#4 35c3b4e0b65023c9
        mc +0 iiop G1->G0 req op#5 847e51eda31cc919
        at P0:
        mc +50000 iiop G1->G0 rep op#5 65ec7ec321a298d0
        at P2:
        ReplyDelivered { conn: ConnectionName { client: GroupId(1), server: GroupId(0) }, op_seq: 5 }";

    const PROMOTION_TRANSCRIPT: &str = "\
        mc +0 fault G0@P0 fc20f9ab0cffac3c
        at P1:
        mc +150000 iiop G1->G0 rep op#1 4074bfdf561b4975
        mc +250000 iiop G1->G0 rep op#3 f2b688c14dd748d2
        mc +350000 iiop G1->G0 rep op#5 65ec7ec321a298d0
        Promoted { group: GroupId(0), replayed: 6, ready_after: Duration(300000) }";

    #[test]
    fn oneway_invocations_dispatch_without_replies() {
        let server = GroupId(0);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        a.register_group(GroupMeta {
            id: server,
            name: "kv".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![n(0)],
            kind: GroupKind::Server(Box::new(|| Box::new(crate::app::KvStoreServant::default()))),
        });
        a.deploy_local_replica(server);

        // A oneway `notify` from a synthetic client group.
        let client = GroupId(1);
        let mut c = Mechanisms::new(n(9), MechConfig::default());
        c.register_group(GroupMeta {
            id: server,
            name: "kv".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![n(0)],
            kind: GroupKind::Server(Box::new(|| Box::new(crate::app::KvStoreServant::default()))),
        });
        struct OnewayApp {
            server: GroupId,
        }
        impl crate::app::ClientApp for OnewayApp {
            fn on_start(&mut self) -> Vec<AppInvocation> {
                vec![AppInvocation {
                    server: self.server,
                    operation: "notify".into(),
                    args: crate::app::KvStoreServant::key_args("hot"),
                    response_expected: false,
                }]
            }
            fn on_reply(
                &mut self,
                _s: GroupId,
                _o: &str,
                _st: ReplyStatus,
                _b: &[u8],
            ) -> Vec<AppInvocation> {
                Vec::new()
            }
            fn get_state(&self) -> Any {
                Any::from(0u32)
            }
            fn set_state(&mut self, _s: &Any) {}
        }
        c.register_group(GroupMeta {
            id: client,
            name: "oneway".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![n(9)],
            kind: GroupKind::Client(Box::new(move |_| Box::new(OnewayApp { server }))),
        });
        a.register_group(GroupMeta {
            id: client,
            name: "oneway".into(),
            props: FaultToleranceProperties::active(1),
            hosts: vec![n(9)],
            kind: GroupKind::Client(Box::new(move |_| Box::new(OnewayApp { server }))),
        });
        c.deploy_local_replica(client);

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| c.start_clients(SimTime::ZERO, ctx)));
        let events = bus.run(&mut [&mut a, &mut c]);
        assert_eq!(a.counters().requests_dispatched, 1, "oneway dispatched");
        assert!(
            events.is_empty() && bus.queue.is_empty(),
            "no reply generated for a oneway"
        );
    }

    #[test]
    fn replace_group_kind_changes_future_instantiations() {
        let server = GroupId(0);
        let mut a = Mechanisms::new(n(0), MechConfig::default());
        a.register_group(server_meta(server, vec![n(0)], ReplicationStyle::Active));
        a.deploy_local_replica(server);
        a.kill_local_replica(server);
        a.replace_group_kind(
            server,
            GroupKind::Server(Box::new(|| Box::new(crate::app::KvStoreServant::default()))),
        );
        a.instantiate_replica(server, ReplicaPhase::Operational);
        // The new implementation answers `len` (a KvStore op the counter
        // does not know).
        let out = a
            .orb
            .poa_mut()
            .dispatch(&Mechanisms::group_key(server), "len", &[]);
        assert!(out.is_ok(), "upgraded implementation active: {out:?}");
    }
}
