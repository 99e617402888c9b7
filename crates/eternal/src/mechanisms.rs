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

use crate::app::{AppInvocation, ClientApp};
use crate::causal::{iiop_trace_id, transfer_trace_id, HopCtx};
use crate::gid::{ConnectionName, Direction, GroupId, OperationId, TransferId};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::interceptor::{inject_trace_context, Interceptor};
use crate::message::{EternalMessage, OrderedInput, RetrievalPurpose};
use crate::properties::{FaultToleranceProperties, ReplicationStyle};
use crate::recovery::holding::{HeldEntry, HoldingQueue};
use crate::recovery::state3::{
    InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall, ThreeKindsOfState,
};
use crate::recovery::{CheckpointLog, DuplicateSuppressor, OrbStateObserver, QuiescenceTracker};
use eternal_cdr::Any;
use eternal_giop::TraceContext;
use eternal_obs::causal::{Hop, TraceTag};
use eternal_orb::servant::CheckpointableServant;
use eternal_orb::{ObjectKey, Orb};
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
        /// Causal tag of the chain this multicast extends
        /// ([`TraceTag::NONE`] for untraced infrastructure chatter; the
        /// cluster roots a fresh chain for traceable messages that
        /// arrive untagged).
        trace: TraceTag,
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

struct LocalReplica {
    phase: ReplicaPhase,
    /// Client behaviour instance (servers live in the ORB's POA).
    client_app: Option<Box<dyn ClientApp>>,
    /// Inputs held for replay after `set_state` (§5.1 step vi), each
    /// with the span of its [`Hop::Hold`] stamp (0 = untraced) so the
    /// eventual [`Hop::Replay`] hangs under the hold in the span tree.
    holding: HoldingQueue<(OrderedInput, u64)>,
    /// Quiescence bookkeeping (paper §5): oneway settling windows.
    quiesce: QuiescenceTracker,
    /// The state transfer this recovering replica is bound to, fixed at
    /// the retrieval's total-order point, and what has arrived of it.
    /// A crash-and-relaunch can leave chunks of an abandoned transfer
    /// in flight; accepting one would bind the new replica's sync point
    /// to a stream no donor is driving any more, wedging the recovery —
    /// so the binding lives and dies with the replica.
    inbound: Option<InboundTransfer>,
}

impl LocalReplica {
    /// How long a state capture delivered at `now` must wait for the
    /// object to be quiescent (§5): the rest of a oneway's settling
    /// window, if one is open. A nonzero wait counts as a deferral.
    fn quiescence_wait(&mut self, now: SimTime) -> Duration {
        let wait = self
            .quiesce
            .earliest_quiescence(now)
            .map_or(Duration::ZERO, |t| t.saturating_since(now));
        if !wait.is_zero() {
            self.quiesce.record_deferral();
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

#[derive(Debug)]
struct LocalGroup {
    meta: GroupMeta,
    replica: Option<LocalReplica>,
    /// Hosts currently holding replicas able to serve state (active
    /// replicas, or the primary). Maintained identically on every
    /// processor from the totally ordered event stream.
    operational_hosts: BTreeSet<NodeId>,
    /// Hosts currently holding standby (warm backup) replicas.
    standby_hosts: BTreeSet<NodeId>,
    /// Checkpoint + message log (passive styles; also used to recover a
    /// primary after total group loss).
    log: CheckpointLog,
    /// Invocations this (client-role) group awaits responses for.
    outstanding: BTreeMap<(ConnectionName, u32), OutstandingCall>,
}

impl LocalGroup {
    fn is_primary_style(&self) -> bool {
        self.meta.props.style.logs_checkpoints()
    }

    fn primary_host(&self) -> Option<NodeId> {
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
    fn donor_for(&self, new_host: NodeId) -> Option<NodeId> {
        self.operational_hosts
            .iter()
            .copied()
            .find(|&h| h != new_host)
    }
}

/// One retained side of an in-flight state transfer
/// (docs/RECOVERY.md). Every host that captured the checkpoint at the
/// mark keeps one — not just the streaming donor — so any of them can
/// take the stream over from the shared cursor after a donor fault,
/// without restarting from byte zero.
#[derive(Debug)]
struct DonorTransfer {
    group: GroupId,
    /// The recovering replica's host.
    new_host: NodeId,
    /// Host currently streaming; re-elected deterministically when it
    /// faults (every retaining host updates this at the same
    /// total-order point).
    donor: NodeId,
    /// The full encoded [`ThreeKindsOfState`] captured at the mark.
    bytes: Vec<u8>,
    /// Chunk count of `bytes` at the configured chunk size.
    total: u32,
    /// Highest contiguously *delivered* chunk index (`None` before
    /// chunk 0). Delivery is totally ordered, so the cursor is
    /// identical on every retaining host — the resume point after a
    /// takeover.
    cursor: Option<u32>,
    /// Ordered group inputs delivered after the mark: the recovering
    /// replica drops its traffic until the last chunk, and this log is
    /// the only copy of what it missed.
    suffix: Vec<OrderedInput>,
    /// Whether the suffix window is still open (closes at the last
    /// chunk's delivery, the same total-order point on every host).
    logging: bool,
}

/// Recipient-side reassembly of a state transfer.
#[derive(Debug)]
struct InboundTransfer {
    transfer: TransferId,
    buf: Vec<u8>,
    /// Next in-order chunk index expected (duplicates and out-of-order
    /// repeats from takeover races are ignored).
    next_index: u32,
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
    /// Enable ORB-level observability (event trace + metrics) on this
    /// processor's ORB. The cluster turns this on when its own trace is
    /// enabled; off by default so bench paths allocate nothing.
    pub obs: bool,
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

/// Modeled cost of launching a cold-passive replica and loading the
/// checkpoint into it at promotion time (§3.3: "launch the new primary
/// replica before providing it with the primary's last checkpoint").
const COLD_LOAD_TIME: Duration = Duration::from_millis(2);

/// Passive-group suffix bound in bytes, beside the configurable bound
/// in entries ([`MechConfig::suffix_checkpoint_len`]).
const SUFFIX_CHECKPOINT_BYTES: usize = 4 << 20;

/// Chunks the streaming donor keeps in flight, self-clocked by
/// total-order delivery: chunk `k`'s delivery releases chunk
/// `k + CHUNK_PIPELINE`.
const CHUNK_PIPELINE: usize = 4;

/// Completed transfers remembered for duplicate suppression. The
/// duplicates are a takeover race's second `StateSuffix`, a few
/// messages behind the first; hundreds of other transfers never
/// complete in between.
const SEEN_TRANSFERS_WINDOW: usize = 256;

impl Default for MechConfig {
    fn default() -> Self {
        MechConfig {
            exec_time: Duration::from_micros(50),
            transfer_orb_state: true,
            transfer_infra_state: true,
            obs: false,
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
    /// The last [`SEEN_TRANSFERS_WINDOW`] completed transfers, oldest
    /// first: a second assignment or suffix of one of them is dropped.
    seen_transfers: VecDeque<TransferId>,
    /// Log position of each in-flight checkpoint capture, per group in
    /// retrieval order: messages logged after the `get_state` point
    /// must survive the checkpoint's garbage collection (their effects
    /// are not in the captured state). A recorded checkpoint retires
    /// its group's older marks with its own — their primary died
    /// before answering.
    checkpoint_marks: BTreeMap<GroupId, VecDeque<(TransferId, u64)>>,
    /// Retained contexts of in-flight transfers this processor
    /// captured state for (BTreeMap: fault handling iterates it, and
    /// the multicasts it emits must come out in deterministic order).
    donor_transfers: BTreeMap<TransferId, DonorTransfer>,
    /// Passive groups whose primary (this processor) has a suffix-bound
    /// checkpoint retrieval in flight — one at a time per group.
    suffix_trigger_pending: BTreeSet<GroupId>,
    next_transfer_seq: u64,
    /// Restart count of this processor, stamped into every fabricated
    /// [`TransferId`]. A mechanism instance rebuilt after a crash starts
    /// its sequence counter at zero again; without the incarnation,
    /// re-fabricated ids would collide with pre-crash ones still in
    /// survivors' `seen_transfers` tables, and those survivors would
    /// silently discard the new transfer's `set_state` as a duplicate.
    incarnation: u64,
    counters: MechCounters,
    /// Per-group application-state digests last computed at a health
    /// delivery point (docs/HEALTH.md): `(group, fnv1a)` pairs in group
    /// order, carried in this processor's *next* published snapshot.
    health_digests: Vec<(u64, u64)>,
    /// Test-only corruption hook: XORed into a group's health digest so
    /// the divergence detector has something real to catch.
    health_digest_salt: BTreeMap<GroupId, u64>,
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
        let mut orb = Orb::new(format!("P{}", node.0));
        if config.obs {
            orb.enable_obs(eternal_obs::trace::DEFAULT_CAPACITY);
        }
        Mechanisms {
            node,
            config,
            orb,
            interceptor: Interceptor::new(),
            observer: OrbStateObserver::new(),
            dedup: DuplicateSuppressor::new(),
            groups: BTreeMap::new(),
            client_conns: BTreeMap::new(),
            server_conns: BTreeMap::new(),
            seen_transfers: VecDeque::new(),
            checkpoint_marks: BTreeMap::new(),
            donor_transfers: BTreeMap::new(),
            suffix_trigger_pending: BTreeSet::new(),
            next_transfer_seq: 0,
            incarnation: 0,
            counters: MechCounters::default(),
            health_digests: Vec::new(),
            health_digest_salt: BTreeMap::new(),
        }
    }

    /// The processor this instance runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sets the restart incarnation (the hosting environment calls this
    /// when rebuilding the mechanisms after a processor restart, before
    /// any traffic). See the `incarnation` field for why fabricated
    /// transfer ids must not repeat across restarts.
    pub fn set_incarnation(&mut self, incarnation: u32) {
        self.incarnation = u64::from(incarnation);
    }

    /// A cluster-unique transfer id: processor in the top 16 bits, the
    /// processor's restart incarnation in the next 16, then a local
    /// sequence number.
    fn fresh_transfer_id(&mut self) -> TransferId {
        let id = TransferId(
            ((u64::from(self.node.0) & 0xffff) << 48)
                | ((self.incarnation & 0xffff) << 32)
                | (self.next_transfer_seq & 0xffff_ffff),
        );
        self.next_transfer_seq += 1;
        id
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

    /// Instantiates the locally hosted replica at deployment time.
    /// No state transfer: all initial replicas start identical.
    pub fn deploy_local_replica(&mut self, group: GroupId) {
        let node = self.node;
        let lg = self.groups.get_mut(&group).expect("group registered");
        let style = lg.meta.props.style;
        let is_initial_primary = lg.meta.hosts.first() == Some(&node);
        let phase = match style {
            ReplicationStyle::Active => ReplicaPhase::Operational,
            ReplicationStyle::WarmPassive => {
                if is_initial_primary {
                    ReplicaPhase::Operational
                } else {
                    ReplicaPhase::Standby
                }
            }
            ReplicationStyle::ColdPassive => {
                if is_initial_primary {
                    ReplicaPhase::Operational
                } else {
                    // Cold backups are not instantiated.
                    return;
                }
            }
        };
        self.instantiate_replica(group, phase);
    }

    fn instantiate_replica(&mut self, group: GroupId, phase: ReplicaPhase) {
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
        lg.replica = Some(LocalReplica {
            phase,
            client_app,
            holding: HoldingQueue::new(),
            quiesce: QuiescenceTracker::new(self.config.exec_time),
            inbound: None,
        });
    }

    /// Replaces the group's object implementation for *future* replica
    /// instantiations on this processor (the Evolution Manager's lever:
    /// upgrades ride the normal recovery path, §2).
    pub fn replace_group_kind(&mut self, group: GroupId, kind: GroupKind) {
        if let Some(lg) = self.groups.get_mut(&group) {
            lg.meta.kind = kind;
        }
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
            .map(|r| r.quiesce.deferrals())
            .unwrap_or(0)
    }

    /// Total checkpoints logged locally for the group.
    pub fn checkpoints_taken(&self, group: GroupId) -> u64 {
        self.groups
            .get(&group)
            .map(|lg| lg.log.checkpoints_taken())
            .unwrap_or(0)
    }

    /// Starts locally hosted client replicas (deployment time): runs
    /// `on_start` and issues the resulting invocations.
    pub fn start_clients(&mut self, now: SimTime, ctx: &mut HopCtx) -> Vec<Out> {
        let mut outs = Vec::new();
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            if let Some(app) = self.operational_client(group) {
                let invocations = app.on_start();
                self.issue_invocations(group, invocations, now, ctx, &mut outs);
            }
        }
        outs
    }

    /// The application of the locally hosted client replica of `group`,
    /// if there is one and it is operational.
    fn operational_client(&mut self, group: GroupId) -> Option<&mut Box<dyn ClientApp>> {
        let replica = self.groups.get_mut(&group)?.replica.as_mut()?;
        if replica.phase != ReplicaPhase::Operational {
            return None;
        }
        replica.client_app.as_mut()
    }

    /// Runs `on_tick` of the locally hosted client replica of `group`
    /// (if operational) and issues the resulting invocations.
    fn tick_replica(
        &mut self,
        group: GroupId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(app) = self.operational_client(group) else {
            return;
        };
        let invocations = app.on_tick();
        self.issue_invocations(group, invocations, now, ctx, outs);
    }

    /// A totally ordered [`EternalMessage::LoadTick`]: ticks the local
    /// replica subject to the same phase discipline as normal traffic —
    /// operational replicas run it now, a pre-sync-point replica drops
    /// it (the donor ran it before the capture, so its effects arrive
    /// inside the transferred state), and an enqueueing replica holds
    /// it for replay after `set_state`.
    fn on_load_tick(
        &mut self,
        group: GroupId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        // Open transfer windows on this group log the tick: the
        // recovering replica drops it, and the suffix is its only copy.
        for dt in self.donor_transfers.values_mut() {
            if dt.group == group && dt.logging {
                dt.suffix.push(OrderedInput::LoadTick);
            }
        }
        if let Some(tick) = self.admit(group, OrderedInput::LoadTick, now, ctx) {
            self.deliver(group, &tick, now, ctx, outs);
        }
    }

    /// The phase discipline every ordered input meets at the local
    /// replica of `group`: an operational replica takes it now (it is
    /// handed back for delivery), a warm backup takes no traffic, a
    /// recovering replica drops it before its synchronization point —
    /// its effects arrive inside the transferred state — and holds it
    /// after (§5.1 step i).
    fn admit(
        &mut self,
        group: GroupId,
        input: OrderedInput,
        now: SimTime,
        ctx: &mut HopCtx,
    ) -> Option<OrderedInput> {
        let replica = self.groups.get_mut(&group)?.replica.as_mut()?;
        match replica.phase {
            ReplicaPhase::Operational => Some(input),
            ReplicaPhase::Standby => None,
            ReplicaPhase::AwaitingSync => {
                self.counters.dropped_pre_sync += 1;
                None
            }
            ReplicaPhase::Enqueueing => {
                // In the span tree a held message parks under a hold
                // hop, and its eventual replay hangs under that.
                let hold = match input {
                    OrderedInput::Iiop { .. } => {
                        ctx.stamp(now, Hop::Hold, format_args!("holding-queue"))
                    }
                    OrderedInput::LoadTick => 0,
                };
                replica.holding.hold((input, hold));
                self.counters.enqueued_during_recovery += 1;
                None
            }
        }
    }

    /// The application-level state bytes of the locally hosted replica
    /// of `group`, exactly as a state transfer would capture them —
    /// the convergence invariant compares these across replicas.
    /// `None` when no replica is hosted here or it is not operational.
    pub fn probe_application_state(&mut self, group: GroupId) -> Option<Vec<u8>> {
        if self.replica_phase(group) != Some(ReplicaPhase::Operational) {
            return None;
        }
        let is_server = matches!(self.groups.get(&group)?.meta.kind, GroupKind::Server(_));
        if is_server {
            self.orb
                .dispatch_control(&Self::group_key(group), "get_state", &[])
                .ok()
        } else {
            self.operational_client(group)?.get_state().to_bytes().ok()
        }
    }

    /// Invocations issued locally that still await replies, across all
    /// hosted client groups. Zero at a true quiescent point.
    pub fn outstanding_total(&self) -> usize {
        self.groups.values().map(|lg| lg.outstanding.len()).sum()
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

    /// Entries in the two per-transfer tables: completed transfers
    /// remembered for duplicate suppression (a fixed window) and
    /// checkpoint marks waiting for their assignment (a recorded
    /// checkpoint retires its group's older ones). The memory invariant
    /// watches both.
    pub fn transfer_tables_resident(&self) -> (usize, usize) {
        let marks = self.checkpoint_marks.values().map(VecDeque::len).sum();
        (self.seen_transfers.len(), marks)
    }

    /// In-flight transfers retained on this processor.
    pub fn active_transfers(&self) -> usize {
        self.donor_transfers.len()
    }

    /// Chunks not yet delivered across this processor's retained
    /// transfer contexts (the transfer-progress gauge).
    pub fn transfer_chunks_pending(&self) -> usize {
        self.donor_transfers
            .values()
            .map(|dt| dt.total as usize - dt.cursor.map_or(0, |c| c as usize + 1))
            .sum()
    }

    /// The host currently streaming `group`'s in-flight chunked
    /// transfer, from this processor's view (fault injection aims
    /// donor kills with this).
    pub fn transfer_donor(&self, group: GroupId) -> Option<NodeId> {
        self.donor_transfers
            .values()
            .find(|dt| dt.group == group)
            .map(|dt| dt.donor)
    }

    // ================================================================
    // Outgoing path: client invocations through the ORB + interceptor
    // ================================================================

    /// The local ORB's client-side connection for `conn`, opened on
    /// first use (when the key of the object at its far end is worked
    /// out, once).
    fn client_conn(&mut self, conn: ConnectionName) -> u64 {
        let opened = self.client_conns.entry(conn).or_insert_with(|| {
            (
                self.orb.open_client_connection(),
                Self::group_key(conn.server),
            )
        });
        opened.0
    }

    /// The local ORB's server-side connection for `conn`, accepted on
    /// first use.
    fn server_conn(&mut self, conn: ConnectionName) -> u64 {
        *self
            .server_conns
            .entry(conn)
            .or_insert_with(|| self.orb.accept_server_connection())
    }

    fn issue_invocations(
        &mut self,
        group: GroupId,
        invocations: Vec<AppInvocation>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        for inv in invocations {
            let conn = ConnectionName {
                client: group,
                server: inv.server,
            };
            let conn_id = self.client_conn(conn);
            let key = &self.client_conns[&conn].1;
            let (request_id, bytes) = self
                .orb
                .invoke(
                    conn_id,
                    key,
                    &inv.operation,
                    &inv.args,
                    inv.response_expected,
                )
                .expect("connection exists");
            // The interceptor sees what the ORB tried to write to its
            // socket; the observer learns the ORB state from it.
            self.observer.observe_request(conn, &bytes);
            // Each invocation roots its own causal chain at the client
            // interceptor (a follow-up issued from a reply handler hangs
            // under that reply's match span). The TraceContext rides
            // in-band in the GIOP request's service-context list.
            let trace_id = iiop_trace_id(conn, self.interceptor.next_op_seq(conn));
            let marshal = ctx.stamp_new(
                now,
                trace_id,
                ctx.parent(),
                Hop::Marshal,
                format_args!("req {conn} {}", inv.operation),
            );
            let bytes = if marshal != 0 {
                inject_trace_context(
                    bytes,
                    TraceContext {
                        trace_id,
                        span_id: marshal,
                        parent_span_id: ctx.parent(),
                        clock: ctx.clock(),
                    },
                )
            } else {
                bytes
            };
            let message = self.interceptor.capture_request(conn, bytes);
            let op_seq = match &message {
                EternalMessage::Iiop { op_seq, .. } => *op_seq,
                _ => unreachable!("capture_request returns Iiop"),
            };
            if inv.response_expected {
                let lg = self.groups.get_mut(&group).expect("group registered");
                lg.outstanding.insert(
                    (conn, op_seq),
                    OutstandingCall {
                        conn,
                        op_seq,
                        request_id,
                        operation: inv.operation,
                    },
                );
            }
            outs.push(Out::Multicast {
                delay: Duration::ZERO,
                message,
                trace: ctx.tag(trace_id, marshal),
            });
        }
    }

    // ================================================================
    // Incoming path: totally ordered Eternal messages
    // ================================================================

    /// Handles one totally ordered message. `now` is the delivery time;
    /// `ctx` is the causal-stamping context the cluster built from the
    /// delivered frame's [`TraceTag`] (inert when tracing is off).
    pub fn on_delivered(
        &mut self,
        message: EternalMessage,
        now: SimTime,
        ctx: &mut HopCtx,
    ) -> Vec<Out> {
        self.orb.set_clock(now);
        // The one sink of this delivery: whatever handles the message,
        // however deep, pushes what it asks of the driver here, in order.
        let mut outs = Vec::new();
        match message {
            EternalMessage::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => self.on_iiop(conn, direction, op_seq, bytes, now, ctx, &mut outs),
            EternalMessage::ReplicaJoining { group, host } => {
                self.on_joining(group, host, &mut outs)
            }
            EternalMessage::ReplicaFault { group, host } => {
                self.on_fault(group, host, now, ctx, &mut outs)
            }
            EternalMessage::StateRetrieval {
                group,
                transfer,
                purpose,
            } => self.on_retrieval(group, transfer, purpose, now, ctx, &mut outs),
            EternalMessage::StateAssignment {
                transfer,
                purpose,
                state,
            } => self.on_assignment(transfer, purpose, state, now),
            EternalMessage::StateChunk {
                group,
                transfer,
                new_host,
                index,
                total,
                bytes,
            } => self.on_state_chunk(
                group, transfer, new_host, index, total, bytes, now, ctx, &mut outs,
            ),
            EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                entries,
            } => self.on_state_suffix(group, transfer, new_host, entries, now, ctx, &mut outs),
            EternalMessage::LoadTick { group } => self.on_load_tick(group, now, ctx, &mut outs),
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
        outs
    }

    /// Recomputes the per-group application-state digests of every
    /// locally hosted *operational* replica (non-operational replicas
    /// are skipped: their state legitimately lags mid-recovery).
    fn refresh_health_digests(&mut self) {
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

    #[allow(clippy::too_many_arguments)]
    fn on_iiop(
        &mut self,
        conn: ConnectionName,
        direction: Direction,
        op_seq: u32,
        bytes: Vec<u8>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let op = OperationId {
            conn,
            direction,
            request_id: op_seq,
        };
        if !self.dedup.admit(op) {
            self.counters.duplicates_suppressed += 1;
            return;
        }
        if direction == Direction::Request {
            // Learn ORB/POA-level state by parsing (§4.2): request ids
            // and the stored handshake for later replay.
            self.observer.observe_request(conn, &bytes);
        }
        let target_group = match direction {
            Direction::Request => conn.server,
            Direction::Reply => conn.client,
        };
        let input = OrderedInput::Iiop {
            conn,
            direction,
            op_seq,
            bytes,
        };
        // Open transfer windows on this group log the input: the
        // recovering replica drops its traffic until the last chunk
        // arrives, and the transfer suffix is its only copy.
        for dt in self.donor_transfers.values_mut() {
            if dt.group == target_group && dt.logging {
                dt.suffix.push(input.clone());
            }
        }
        let mut trigger_checkpoint = false;
        let Some(lg) = self.groups.get_mut(&target_group) else {
            return;
        };
        // §3.3: passive groups log the ordered messages that follow
        // the checkpoint, at every processor participating in the
        // group.
        if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node) {
            lg.log.log_message(input.clone());
            self.counters.messages_logged += 1;
            // Bounded suffix: sustained load between periodic
            // checkpoints must not grow replay memory (or warm
            // promotion time) without bound. The primary fabricates
            // an extra checkpoint when the suffix crosses a bound,
            // one in flight per group at a time.
            let len_bound = self.config.suffix_checkpoint_len;
            let over = (len_bound > 0 && lg.log.suffix_len() >= len_bound)
                || lg.log.suffix_bytes() >= SUFFIX_CHECKPOINT_BYTES;
            if over
                && lg.primary_host() == Some(self.node)
                && self.suffix_trigger_pending.insert(target_group)
            {
                trigger_checkpoint = true;
            }
        }
        if direction == Direction::Reply {
            // The group-level outstanding table shrinks at *every*
            // host of the client group, deterministically.
            lg.outstanding.remove(&(conn, op_seq));
        }
        let admitted = self.admit(target_group, input, now, ctx);
        if trigger_checkpoint {
            self.counters.suffix_checkpoints_triggered += 1;
            outs.push(self.retrieval(target_group, RetrievalPurpose::Checkpoint));
        }
        if let Some(input) = admitted {
            self.deliver(target_group, &input, now, ctx, outs);
        }
    }

    /// Delivers one admitted input into the local operational replica
    /// of `group`.
    fn deliver(
        &mut self,
        group: GroupId,
        input: &OrderedInput,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        match input {
            OrderedInput::LoadTick => self.tick_replica(group, now, ctx, outs),
            OrderedInput::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => match direction {
                Direction::Request => {
                    self.deliver_request(group, *conn, *op_seq, bytes, now, ctx, outs)
                }
                Direction::Reply => {
                    self.deliver_reply(group, *conn, *op_seq, bytes, now, ctx, outs)
                }
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_request(
        &mut self,
        group: GroupId,
        conn: ConnectionName,
        op_seq: u32,
        bytes: &[u8],
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let conn_id = self.server_conn(conn);
        match self.orb.handle_request_disposed(conn_id, bytes) {
            Ok((maybe_reply, disposition)) => {
                use eternal_orb::RequestDisposition;
                match disposition {
                    RequestDisposition::Dispatched => {
                        self.counters.requests_dispatched += 1;
                        let dispatch =
                            ctx.stamp(now, Hop::Dispatch, format_args!("{conn} op#{op_seq}"));
                        if maybe_reply.is_none() {
                            // A oneway: no reply will ever signal its
                            // completion, so the object is considered
                            // non-quiescent for the execution window
                            // (paper §5).
                            if let Some(replica) = self
                                .groups
                                .get_mut(&group)
                                .and_then(|lg| lg.replica.as_mut())
                            {
                                replica.quiesce.oneway_dispatched(now);
                            }
                        }
                        if let Some(reply_bytes) = maybe_reply {
                            // The reply continues the request's chain:
                            // its emission hop hangs under the dispatch
                            // and the TraceContext travels back in the
                            // GIOP reply's service-context list.
                            let reply_span = ctx.stamp(now, Hop::Reply, format_args!("reply"));
                            let reply_bytes = if reply_span != 0 {
                                inject_trace_context(
                                    reply_bytes,
                                    TraceContext {
                                        trace_id: ctx.trace_id(),
                                        span_id: reply_span,
                                        parent_span_id: dispatch,
                                        clock: ctx.clock(),
                                    },
                                )
                            } else {
                                reply_bytes
                            };
                            let message = self.interceptor.capture_reply(conn, op_seq, reply_bytes);
                            outs.push(Out::Multicast {
                                delay: self.config.exec_time,
                                message,
                                trace: ctx.tag(ctx.trace_id(), reply_span),
                            });
                        }
                    }
                    RequestDisposition::DiscardedUnnegotiated => {
                        // §4.2.2 failure mode: the server ORB cannot
                        // interpret negotiated shortcuts it never saw.
                        self.counters.requests_discarded_unnegotiated += 1;
                    }
                }
            }
            Err(_) => { /* unparseable request; real ORBs send MessageError */ }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_reply(
        &mut self,
        group: GroupId,
        conn: ConnectionName,
        op_seq: u32,
        bytes: &[u8],
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(&(conn_id, _)) = self.client_conns.get(&conn) else {
            // We never issued on this connection (e.g. a recovered
            // replica without restored ORB state): the reply has nowhere
            // to go. A real ORB without the matching socket simply never
            // sees it.
            self.counters.replies_discarded_by_orb += 1;
            return;
        };
        match self.orb.handle_reply(conn_id, bytes) {
            Ok(outcome) => {
                self.counters.replies_delivered += 1;
                // The round trip closes here; follow-up invocations the
                // application issues from its reply handler root their
                // new chains under this span.
                ctx.stamp(now, Hop::ReplyMatch, format_args!("{conn} op#{op_seq}"));
                outs.push(Out::ReplyDelivered { conn, op_seq });
                let follow_ups = {
                    let lg = self
                        .groups
                        .get_mut(&group)
                        .expect("delivering to local group");
                    match lg.replica.as_mut().and_then(|r| r.client_app.as_mut()) {
                        Some(app) => app.on_reply(
                            conn.server,
                            &outcome.operation,
                            outcome.status,
                            &outcome.body,
                        ),
                        None => Vec::new(),
                    }
                };
                self.issue_invocations(group, follow_ups, now, ctx, outs);
            }
            Err(_) => {
                // §4.2.1 failure mode: request-id mismatch → the ORB
                // discards an otherwise valid reply.
                self.counters.replies_discarded_by_orb += 1;
            }
        }
    }

    // ================================================================
    // Recovery protocol (§5.1) and fault handling
    // ================================================================

    /// Launches a recovering replica of `group` on this processor and
    /// announces it. The replica drops traffic until its
    /// synchronization point appears in the total order.
    pub fn launch_recovering_replica(&mut self, group: GroupId) -> Vec<Out> {
        // A fresh replica is bound to no transfer: chunk streams aimed
        // at a *previous* incarnation cannot splice into its recovery,
        // and it binds to the retrieval that answers ITS joining.
        self.instantiate_replica(group, ReplicaPhase::AwaitingSync);
        vec![Out::Multicast {
            delay: Duration::ZERO,
            message: EternalMessage::ReplicaJoining {
                group,
                host: self.node,
            },
            trace: TraceTag::NONE,
        }]
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
        self.donor_transfers.retain(|_, dt| dt.group != group);
        let lg = self.groups.get_mut(&group).expect("group registered");
        if lg.replica.take().is_some() {
            if matches!(lg.meta.kind, GroupKind::Server(_)) {
                self.orb.poa_mut().deactivate(&Self::group_key(group));
            }
            self.client_conns.retain(|c, _| c.client != group);
            self.server_conns.retain(|c, _| c.server != group);
            vec![Out::Multicast {
                delay: Duration::ZERO,
                message: EternalMessage::ReplicaFault {
                    group,
                    host: self.node,
                },
                trace: TraceTag::NONE,
            }]
        } else {
            Vec::new()
        }
    }

    fn on_joining(&mut self, group: GroupId, host: NodeId, outs: &mut Vec<Out>) {
        let elected = self
            .groups
            .get(&group)
            .is_some_and(|lg| lg.donor_for(host) == Some(self.node));
        if elected {
            outs.push(self.retrieval(group, RetrievalPurpose::Recovery { new_host: host }));
        }
    }

    /// Fabricates a `get_state` under a fresh transfer id. Untagged: a
    /// recovery's chain roots at the cluster's send path (trace id
    /// derived from the transfer id).
    fn retrieval(&mut self, group: GroupId, purpose: RetrievalPurpose) -> Out {
        Out::Multicast {
            delay: Duration::ZERO,
            message: EternalMessage::StateRetrieval {
                group,
                transfer: self.fresh_transfer_id(),
                purpose,
            },
            trace: TraceTag::NONE,
        }
    }

    /// Fabricates the periodic checkpoint `get_state` if this processor
    /// currently hosts the primary (driver calls this on checkpoint
    /// ticks).
    pub fn checkpoint_due(&mut self, group: GroupId) -> Vec<Out> {
        let Some(lg) = self.groups.get(&group) else {
            return Vec::new();
        };
        if !lg.meta.props.style.logs_checkpoints() || lg.primary_host() != Some(self.node) {
            return Vec::new();
        }
        vec![self.retrieval(group, RetrievalPurpose::Checkpoint)]
    }

    fn on_retrieval(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        purpose: RetrievalPurpose,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        // Existing replicas with current state perform get_state — at
        // quiescence (§5): if the object is settling a oneway, the
        // capture waits out the remaining window (state effects applied
        // at dispatch in this model, so the capture content is already
        // consistent; only its timing shifts).
        let serves_state = lg.operational_hosts.contains(&self.node)
            && lg
                .replica
                .as_ref()
                .is_some_and(|r| r.phase == ReplicaPhase::Operational);
        if serves_state {
            let wait = lg
                .replica
                .as_mut()
                .expect("checked above")
                .quiescence_wait(now);
            let state = self.capture_three_kinds(group);
            // §5.1 step iii at the donor: the fabricated get_state.
            // The assignment it produces extends the transfer's chain.
            let get_state = ctx.stamp(
                now,
                Hop::GetState,
                format_args!("{group} {transfer} {}B", state.application.len()),
            );
            outs.push(Out::StateCaptured {
                group,
                transfer,
                purpose,
                quiesce_wait: wait,
                capture_time: self.config.exec_time,
                app_state_bytes: state.application.len(),
            });
            match purpose {
                RetrievalPurpose::Recovery { new_host } => {
                    // Every capturing host retains the encoded state
                    // and opens the suffix window; the elected donor
                    // streams it while the group keeps serving
                    // (docs/RECOVERY.md).
                    let bytes = state.to_bytes();
                    let total = bytes.len().div_ceil(self.config.chunk_bytes).max(1) as u32;
                    let donor = self.groups[&group]
                        .donor_for(new_host)
                        .expect("a capturing host exists");
                    let dt = DonorTransfer {
                        group,
                        new_host,
                        donor,
                        bytes,
                        total,
                        cursor: None,
                        suffix: Vec::new(),
                        logging: true,
                    };
                    self.donor_transfers.insert(transfer, dt);
                    if donor == self.node {
                        let delay = self.config.exec_time + wait;
                        let window = 0..CHUNK_PIPELINE as u32;
                        self.send_chunks(transfer, window, delay, get_state, now, ctx, outs);
                    }
                }
                RetrievalPurpose::Checkpoint => outs.push(Out::Multicast {
                    delay: self.config.exec_time + wait,
                    message: EternalMessage::StateAssignment {
                        transfer,
                        purpose,
                        state,
                    },
                    trace: ctx.tag(ctx.trace_id(), get_state),
                }),
            }
        }
        match purpose {
            // Every logging host records the log position of the
            // capture point, so the eventual assignment garbage-collects
            // exactly the messages the checkpoint covers.
            RetrievalPurpose::Checkpoint => {
                if let Some(lg) = self.groups.get(&group) {
                    if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node)
                    {
                        self.checkpoint_marks
                            .entry(group)
                            .or_default()
                            .push_back((transfer, lg.log.mark()));
                    }
                }
            }
            // Bind the recovering replica to THIS transfer: chunks of
            // any other (a stream abandoned by a crash-and-relaunch) are
            // stale and must not become its sync point. It keeps
            // dropping traffic while the stream is in flight — the
            // retaining hosts' suffix log covers that window — and its
            // §5.1 sync point is the *last chunk's* delivery, so the
            // blocking window is O(suffix), not O(state).
            RetrievalPurpose::Recovery { new_host } => {
                let replica = self
                    .groups
                    .get_mut(&group)
                    .and_then(|lg| lg.replica.as_mut())
                    .filter(|r| new_host == self.node && r.phase == ReplicaPhase::AwaitingSync);
                if let Some(replica) = replica {
                    replica.inbound = Some(InboundTransfer {
                        transfer,
                        buf: Vec::new(),
                        next_index: 0,
                    });
                }
            }
        }
    }

    /// Streams the chunks in `range` (as far as the state goes) of a
    /// retained transfer, each leaving after `delay` on the transfer's
    /// chain under `parent`.
    #[allow(clippy::too_many_arguments)]
    fn send_chunks(
        &mut self,
        transfer: TransferId,
        range: std::ops::Range<u32>,
        delay: Duration,
        parent: u64,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let dt = &self.donor_transfers[&transfer];
        let size = self.config.chunk_bytes;
        for index in range.start..range.end.min(dt.total) {
            let start = index as usize * size;
            let end = (start + size).min(dt.bytes.len());
            let span = ctx.stamp_new(
                now,
                transfer_trace_id(transfer),
                parent,
                Hop::StateChunk,
                format_args!("send {}/{} {}B", index + 1, dt.total, end - start),
            );
            self.counters.chunks_streamed += 1;
            outs.push(Out::Multicast {
                delay,
                message: EternalMessage::StateChunk {
                    group: dt.group,
                    transfer,
                    new_host: dt.new_host,
                    index,
                    total: dt.total,
                    bytes: dt.bytes[start..end].to_vec(),
                },
                trace: ctx.tag(transfer_trace_id(transfer), span),
            });
        }
    }

    /// One totally ordered state chunk. Three things happen here, at
    /// the same total-order point on every processor:
    ///
    /// * every retaining host advances the shared cursor (making a
    ///   takeover resume exactly where the stream left off),
    /// * the streaming donor releases the next pipelined chunk — or,
    ///   on the last chunk, closes the suffix window and ships the
    ///   suffix after the quiescence wait,
    /// * the recovering replica appends the payload and, on the last
    ///   chunk, flips to enqueueing (its deferred §5.1 sync point).
    #[allow(clippy::too_many_arguments)]
    fn on_state_chunk(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        new_host: NodeId,
        index: u32,
        total: u32,
        bytes: Vec<u8>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let last = index + 1 == total;
        let mut streaming = false;
        if let Some(dt) = self.donor_transfers.get_mut(&transfer) {
            if index == dt.cursor.map_or(0, |c| c + 1) {
                dt.cursor = Some(index);
                dt.logging = !last;
                streaming = dt.donor == self.node;
            } else {
                self.counters.chunk_duplicates += 1;
            }
        }
        if streaming && last {
            self.send_suffix(transfer, now, ctx, outs);
        } else if streaming {
            // Self-clocking: this delivery releases one more chunk.
            let next = index + CHUNK_PIPELINE as u32;
            self.send_chunks(
                transfer,
                next..next + 1,
                self.config.exec_time,
                ctx.parent(),
                now,
                ctx,
                outs,
            );
        }
        // ---- the recovering replica assembles the stream it is bound to.
        let replica = self
            .groups
            .get_mut(&group)
            .and_then(|lg| lg.replica.as_mut())
            .filter(|r| new_host == self.node && r.phase == ReplicaPhase::AwaitingSync);
        if let Some(replica) = replica {
            let Some(inbound) = replica
                .inbound
                .as_mut()
                .filter(|it| it.transfer == transfer)
            else {
                return;
            };
            if index == inbound.next_index {
                inbound.buf.extend_from_slice(&bytes);
                inbound.next_index += 1;
                ctx.stamp(
                    now,
                    Hop::StateChunk,
                    format_args!("recv {}/{} {}B", index + 1, total, bytes.len()),
                );
                if last {
                    // §5.1 step i, deferred: the last chunk is the
                    // recovering replica's synchronization point — the
                    // very position where the retaining hosts closed
                    // their suffix windows. From here traffic is held,
                    // not dropped; the blocking window starts now.
                    replica.phase = ReplicaPhase::Enqueueing;
                    replica.holding.mark_sync_point(transfer);
                }
            } else {
                self.counters.chunk_duplicates += 1;
            }
        }
    }

    /// The donor's closing step: the last chunk is through, every
    /// retaining host has closed its suffix window, and the recipient
    /// is enqueueing. Ship the suffix after the modeled execution delay
    /// — waiting out any oneway settling window first (§5), the only
    /// quiescence the chunked protocol ever needs.
    fn send_suffix(
        &mut self,
        transfer: TransferId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(dt) = self.donor_transfers.get(&transfer) else {
            return;
        };
        let group = dt.group;
        let new_host = dt.new_host;
        let entries = dt.suffix.clone();
        let Some(replica) = self
            .groups
            .get_mut(&group)
            .and_then(|lg| lg.replica.as_mut())
        else {
            return;
        };
        let wait = replica.quiescence_wait(now);
        let span = ctx.stamp_new(
            now,
            transfer_trace_id(transfer),
            ctx.parent(),
            Hop::StateChunk,
            format_args!("suffix {} entries", entries.len()),
        );
        outs.push(Out::Multicast {
            delay: self.config.exec_time + wait,
            message: EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                entries,
            },
            trace: ctx.tag(transfer_trace_id(transfer), span),
        });
    }

    /// The closing suffix of a transfer: the recovering replica applies
    /// the reassembled state, replays the suffix, and drains its
    /// holding queue; everyone else updates the consistent view and
    /// releases the retained context.
    #[allow(clippy::too_many_arguments)]
    fn on_state_suffix(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        new_host: NodeId,
        entries: Vec<OrderedInput>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        // The transfer is over: release the retained context even on
        // the duplicate deliveries a takeover race can produce.
        self.donor_transfers.remove(&transfer);
        if !self.first_completion(transfer) {
            return;
        }
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        // Every processor updates its consistent view at this
        // total-order point: an active group's recovered replica serves
        // state; a passive group's becomes a standby backup (the
        // primary is unchanged).
        if lg.meta.props.style == ReplicationStyle::Active {
            lg.operational_hosts.insert(new_host);
        } else {
            lg.standby_hosts.insert(new_host);
        }
        if new_host == self.node {
            self.complete_recovery(group, transfer, entries, now, ctx, outs);
        }
    }

    /// Whether this is the first completion (assignment or suffix) of
    /// `transfer` seen here; later ones are duplicates — one assignment
    /// per capturing replica, or both suffixes of a takeover race.
    fn first_completion(&mut self, transfer: TransferId) -> bool {
        if self.seen_transfers.contains(&transfer) {
            return false;
        }
        if self.seen_transfers.len() == SEEN_TRANSFERS_WINDOW {
            self.seen_transfers.pop_front();
        }
        self.seen_transfers.push_back(transfer);
        true
    }

    /// Re-opens the pipeline window after a donor takeover: sends the
    /// chunks after the shared cursor — never from byte zero — or the
    /// closing suffix if every chunk already made it through and only
    /// the dead donor's suffix was lost.
    fn resume_stream(
        &mut self,
        transfer: TransferId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(dt) = self.donor_transfers.get(&transfer) else {
            return;
        };
        if dt.cursor == Some(dt.total - 1) {
            return self.send_suffix(transfer, now, ctx, outs);
        }
        let first = dt.cursor.map_or(0, |c| c + 1);
        self.send_chunks(
            transfer,
            first..first + CHUNK_PIPELINE as u32,
            self.config.exec_time,
            ctx.parent(),
            now,
            ctx,
            outs,
        );
    }

    /// Captures the three kinds of state of the locally hosted,
    /// operational replica of `group` (§4, §5.1 step iii).
    fn capture_three_kinds(&mut self, group: GroupId) -> ThreeKindsOfState {
        // Application-level state, via the Checkpointable interface.
        let application = self
            .probe_application_state(group)
            .expect("operational replica has state");
        // ORB/POA-level state: learned by observation, not ORB hooks.
        let orb_poa = if self.config.transfer_orb_state {
            OrbPoaStateTransfer {
                next_request_ids: self.observer.next_request_ids(|c| c.client == group),
                handshakes: self.observer.handshakes(|c| c.server == group),
            }
        } else {
            OrbPoaStateTransfer::default()
        };
        // Infrastructure-level state.
        let infrastructure = if self.config.transfer_infra_state {
            let lg = self.groups.get(&group).expect("caller verified");
            InfraStateTransfer {
                outstanding: lg.outstanding.values().cloned().collect(),
                dedup_horizons: self
                    .dedup
                    .horizons()
                    .into_iter()
                    .filter(|(c, _, _)| c.client == group || c.server == group)
                    .collect(),
                op_counters: self
                    .interceptor
                    .op_counters()
                    .into_iter()
                    .filter(|(c, _)| c.client == group)
                    .collect(),
            }
        } else {
            InfraStateTransfer::default()
        };
        ThreeKindsOfState {
            group,
            application,
            orb_poa,
            infrastructure,
        }
    }

    /// A checkpoint's `set_state()` (§3.3): every host of the group
    /// logs it, garbage-collecting the messages it covers, and a warm
    /// backup applies it. A recovery's state never arrives this way.
    fn on_assignment(
        &mut self,
        transfer: TransferId,
        purpose: RetrievalPurpose,
        state: ThreeKindsOfState,
        now: SimTime,
    ) {
        if purpose != RetrievalPurpose::Checkpoint || !self.first_completion(transfer) {
            return;
        }
        let group = state.group;
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        // A landed checkpoint re-arms the suffix-bound trigger.
        self.suffix_trigger_pending.remove(&group);
        if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node) {
            let marks = self.checkpoint_marks.entry(group).or_default();
            let mark = match marks.iter().position(|&(t, _)| t == transfer) {
                // This mark is spent, and the group's earlier ones
                // belong to retrievals nobody will answer now.
                Some(at) => marks.drain(..=at).next_back().expect("found").1,
                None => lg.log.mark(),
            };
            lg.log
                .record_checkpoint_at_mark(state.to_bytes(), now, mark);
            self.counters.checkpoints_logged += 1;
        }
        // Warm backups are synchronized to the primary's checkpoint as
        // it is taken (§3.2).
        if self.replica_phase(group) == Some(ReplicaPhase::Standby) {
            self.apply_application_state(group, &state.application);
        }
    }

    /// §5.1 steps v–vi at the recovering replica: overwrite the sync
    /// point with the assignment, apply the three kinds of state in
    /// order (application, ORB/POA, infrastructure), replay the
    /// transfer suffix (the inputs the group processed while the
    /// stream was in flight), then dequeue and deliver the held
    /// messages.
    fn complete_recovery(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        suffix: Vec<OrderedInput>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        // Only a replica that is enqueueing behind THIS transfer's last
        // chunk completes; a suffix of any other transfer is stale and
        // leaves the binding alone.
        let (state_bytes, replay) = {
            let lg = self.groups.get_mut(&group).expect("checked by caller");
            let Some(replica) = lg.replica.as_mut() else {
                return;
            };
            if replica.phase != ReplicaPhase::Enqueueing
                || !replica.holding.overwrite_sync_point(transfer)
            {
                return;
            }
            let inbound = replica.inbound.take().expect("enqueueing behind a stream");
            // What replays, in order (§5.1 step vi): the transfer
            // suffix — delivered between the mark and the last chunk,
            // dropped here while the stream was in flight — then the
            // held traffic. The assignment itself is applied below, and
            // a sync point left by an abandoned transfer is skipped.
            let mut replay: Vec<(OrderedInput, u64, &str)> =
                suffix.into_iter().map(|e| (e, 0, "suffix ")).collect();
            while let Some(entry) = replica.holding.pop() {
                if let HeldEntry::Normal((input, hold)) = entry {
                    replay.push((input, hold, ""));
                }
            }
            (inbound.buf, replay)
        };
        let Ok(state) = ThreeKindsOfState::from_bytes(&state_bytes) else {
            return;
        };
        let app_state_bytes = state.application.len();

        // Apply in the paper's order (§4.3): application first, then
        // ORB/POA, then infrastructure.
        ctx.stamp(
            now,
            Hop::SetState,
            format_args!("{group} {transfer} {app_state_bytes}B"),
        );
        self.apply_application_state(group, &state.application);
        self.apply_orb_poa_state(group, &state.orb_poa);
        self.apply_infra_state(group, &state.infrastructure);

        // Re-baseline the checkpoint log for a logging group. The log
        // deliberately survives the replica process (see
        // `kill_local_replica`), so on a same-node relaunch it still
        // holds the previous incarnation's suffix — and the transferred
        // state already contains those operations' effects. Replaying
        // the stale suffix over the transferred state at the next
        // promotion would execute them twice. From this point the
        // promotion invariant `checkpoint + suffix replay == servant
        // state` holds: the checkpoint IS the transferred state, and
        // the transfer suffix + held traffic (delivered after the
        // capture, so outside it) are re-logged as they replay below.
        //
        // An active group's recovered replica processes traffic; a
        // passive group's becomes a warm standby behind the primary.
        // The phase flips before the replay: held inputs are delivered
        // to the now-synchronized replica exactly as live traffic would
        // be (a held load tick in particular re-checks the phase).
        let (logs, operational) = {
            let lg = self.groups.get_mut(&group).expect("checked by caller");
            let logs = lg.meta.props.style.logs_checkpoints();
            if logs {
                lg.log.clear();
                lg.log.record_checkpoint(state_bytes, now);
            }
            let operational = lg.meta.props.style == ReplicationStyle::Active
                || lg.primary_host() == Some(self.node);
            if let Some(replica) = lg.replica.as_mut() {
                replica.phase = if operational {
                    ReplicaPhase::Operational
                } else {
                    ReplicaPhase::Standby
                };
            }
            (logs, operational)
        };

        // The replies a replayed request re-produces (and the
        // invocations a replayed tick re-issues: same restored
        // operation counters, same ids) duplicate the siblings' and are
        // suppressed downstream. A replica completing as a standby
        // replays nothing — backups take no traffic — but still logs.
        for (input, hold, label) in replay {
            if let OrderedInput::Iiop {
                conn,
                direction: Direction::Reply,
                op_seq,
                ..
            } = &input
            {
                // The transferred outstanding table predates these
                // replies; retire them as they replay.
                let lg = self.groups.get_mut(&group).expect("checked by caller");
                lg.outstanding.remove(&(*conn, *op_seq));
            }
            if operational {
                self.replay(group, &input, hold, label, None, now, ctx, outs);
            }
            if logs && matches!(input, OrderedInput::Iiop { .. }) {
                let lg = self.groups.get_mut(&group).expect("checked by caller");
                lg.log.log_message(input);
            }
        }
        outs.push(Out::RecoveryComplete {
            group,
            app_state_bytes,
        });
    }

    /// Replays one ordered input into the local operational replica of
    /// `group` — the one routine behind transfer-suffix replay,
    /// holding-queue drain (§5.1 step vi) and promotion replay (§3.3).
    /// An IIOP message replays on its *own* causal chain, not on the
    /// chain of whatever triggered the replay: a [`Hop::Replay`]
    /// labelled `{label}{conn} op#{n}` under `hold` (the span of its
    /// hold hop; 0 roots it afresh — the original hops of a logged
    /// message may be long evicted), excursion and restore.
    ///
    /// `delay` is set by promotion replay only: the message's position
    /// in the replay, added to every multicast it produces. Such a
    /// message is dispatched at [`SimTime::ZERO`], so a oneway opens no
    /// settling window — that wait is inside the explicit delay.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        group: GroupId,
        input: &OrderedInput,
        hold: u64,
        label: &str,
        delay: Option<Duration>,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let OrderedInput::Iiop { conn, op_seq, .. } = input else {
            // A tick ordered after the capture: the transferred state
            // predates it, so this replica must run it too.
            return self.deliver(group, input, now, ctx, outs);
        };
        let saved = (ctx.trace_id(), ctx.parent());
        let trace = iiop_trace_id(*conn, *op_seq);
        let span = ctx.stamp_new(
            now,
            trace,
            hold,
            Hop::Replay,
            format_args!("{label}{conn} op#{op_seq}"),
        );
        ctx.set_chain(trace, span);
        let at = if delay.is_some() { SimTime::ZERO } else { now };
        let produced_from = outs.len();
        self.deliver(group, input, at, ctx, outs);
        ctx.set_chain(saved.0, saved.1);
        if let Some(delay) = delay {
            for out in &mut outs[produced_from..] {
                if let Out::Multicast { delay: d, .. } = out {
                    *d += delay;
                }
            }
        }
    }

    fn apply_application_state(&mut self, group: GroupId, application: &[u8]) {
        let key = Self::group_key(group);
        let lg = self.groups.get_mut(&group).expect("caller verified");
        match &lg.meta.kind {
            GroupKind::Server(_) => {
                self.orb
                    .dispatch_control(&key, "set_state", application)
                    .expect("transferred state is valid");
            }
            GroupKind::Client(_) => {
                if let Some(app) = lg.replica.as_mut().and_then(|r| r.client_app.as_mut()) {
                    if let Ok(any) = Any::from_bytes(application) {
                        app.set_state(&any);
                    }
                }
            }
        }
    }

    fn apply_orb_poa_state(&mut self, group: GroupId, orb_poa: &OrbPoaStateTransfer) {
        // §4.2.1: restore request-id counters into the client-side ORB
        // connections of the recovered object.
        for &(conn, next_id) in &orb_poa.next_request_ids {
            debug_assert_eq!(conn.client, group);
            let conn_id = self.client_conn(conn);
            if let Ok(client) = self.orb.client(conn_id) {
                client.restore_request_id(next_id);
            }
        }
        // §4.2.2: replay the stored client handshake message into the
        // new server replica's ORB ahead of any other request from that
        // client. Only the negotiated contexts are absorbed — the
        // handshake rides on the connection's first real request, whose
        // effects already arrived inside the transferred application
        // state, so dispatching it again would execute that operation
        // twice and diverge the recovered replica from its siblings.
        for (conn, handshake_bytes) in &orb_poa.handshakes {
            debug_assert_eq!(conn.server, group);
            let conn_id = self.server_conn(*conn);
            let _unparseable_ignored = self.orb.absorb_handshake(conn_id, handshake_bytes);
        }
        // Future transfers from this processor must know these facts too.
        self.observer
            .merge_transferred(&orb_poa.next_request_ids, &orb_poa.handshakes);
    }

    fn apply_infra_state(&mut self, group: GroupId, infra: &InfraStateTransfer) {
        self.dedup.restore_horizons(&infra.dedup_horizons);
        self.interceptor.restore_op_counters(&infra.op_counters);
        let mut calls: Vec<OutstandingCall> = infra.outstanding.clone();
        // Re-arm the ORB's pending-reply table for invocations issued by
        // the group before this replica recovered.
        for call in &calls {
            if let Some(&(conn_id, _)) = self.client_conns.get(&call.conn) {
                if let Ok(client) = self.orb.client(conn_id) {
                    client.restore_outstanding(call.request_id, &call.operation);
                }
            }
        }
        let lg = self.groups.get_mut(&group).expect("caller verified");
        lg.outstanding = calls.drain(..).map(|c| ((c.conn, c.op_seq), c)).collect();
    }

    fn on_fault(
        &mut self,
        group: GroupId,
        host: NodeId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        let was_primary = lg.is_primary_style() && lg.primary_host() == Some(host);
        lg.operational_hosts.remove(&host);
        lg.standby_hosts.remove(&host);
        // A suffix-bound checkpoint the dead host may have owed the
        // group can no longer be assumed in flight; let the trigger
        // re-arm at the (possibly new) primary.
        self.suffix_trigger_pending.remove(&group);
        self.handle_transfer_fault(group, host, now, ctx, outs);
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
            self.promote_local(group, now, ctx, outs);
        }
    }

    /// Chunked-transfer fault handling, at the fault's total-order
    /// point: a dead recipient aborts its transfers (the resource
    /// manager will relaunch and start a fresh one); a dead streaming
    /// donor is replaced by the next retaining host, which resumes from
    /// the shared cursor — never from byte zero.
    fn handle_transfer_fault(
        &mut self,
        group: GroupId,
        host: NodeId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let transfers: Vec<TransferId> = self
            .donor_transfers
            .iter()
            .filter(|(_, dt)| dt.group == group)
            .map(|(&t, _)| t)
            .collect();
        for transfer in transfers {
            let (recipient, donor) = {
                let dt = &self.donor_transfers[&transfer];
                (dt.new_host, dt.donor)
            };
            if recipient == host {
                self.donor_transfers.remove(&transfer);
                continue;
            }
            if donor != host {
                continue;
            }
            // Same election rule as the original choice, against the
            // already-updated view — identical on every retaining host.
            let Some(successor) = self.groups[&group].donor_for(recipient) else {
                // No retaining host left: the transfer dies with its
                // donors (total group loss is the log's job, §3.3).
                self.donor_transfers.remove(&transfer);
                continue;
            };
            self.donor_transfers
                .get_mut(&transfer)
                .expect("listed")
                .donor = successor;
            if successor != self.node {
                continue;
            }
            self.counters.transfer_takeovers += 1;
            self.resume_stream(transfer, now, ctx, outs);
        }
    }

    /// Promotes the local backup to primary: cold-loads the replica if
    /// needed, applies the logged checkpoint, and replays the logged
    /// message suffix (§3.3).
    fn promote_local(
        &mut self,
        group: GroupId,
        now: SimTime,
        ctx: &mut HopCtx,
        outs: &mut Vec<Out>,
    ) {
        let lg = self.groups.get_mut(&group).expect("promoting local group");
        let style = lg.meta.props.style;
        // Replay reads the log in place: it is lifted out of the group
        // for the duration (nothing below logs to it) and put back.
        let log = std::mem::take(&mut lg.log);
        let checkpoint = log
            .checkpoint()
            .and_then(|(bytes, _)| ThreeKindsOfState::from_bytes(bytes).ok());
        match style {
            // The replica is loaded and synchronized to the last
            // checkpoint's application state already; the other two
            // kinds come from the logged checkpoint.
            ReplicationStyle::WarmPassive => {}
            // Launch the replica, then checkpoint, then messages — "in
            // that order" (§3.3).
            ReplicationStyle::ColdPassive => {
                self.instantiate_replica(group, ReplicaPhase::Operational);
                if let Some(state) = &checkpoint {
                    self.apply_application_state(group, &state.application);
                }
            }
            ReplicationStyle::Active => unreachable!("only passive groups promote"),
        }
        if let Some(state) = &checkpoint {
            self.apply_orb_poa_state(group, &state.orb_poa);
            self.apply_infra_state(group, &state.infrastructure);
        }
        if let Some(replica) = self
            .groups
            .get_mut(&group)
            .and_then(|lg| lg.replica.as_mut())
        {
            replica.phase = ReplicaPhase::Operational;
        }
        // Replay the logged requests through the now-primary replica.
        // The replies it produces are multicast; duplicate suppression
        // at the receivers absorbs any the old primary already sent. A
        // cold promotion first pays the launch + checkpoint-load cost.
        let base = match style {
            ReplicationStyle::ColdPassive => COLD_LOAD_TIME,
            _ => Duration::ZERO,
        };
        let replayed = log.suffix_len();
        for (i, logged) in log.suffix().iter().enumerate() {
            let request = matches!(
                logged.input,
                OrderedInput::Iiop {
                    direction: Direction::Request,
                    ..
                }
            );
            if request {
                let delay = base + self.config.exec_time * (i as u64 + 1);
                self.replay(group, &logged.input, 0, "log ", Some(delay), now, ctx, outs);
            }
        }
        self.groups
            .get_mut(&group)
            .expect("promoting local group")
            .log = log;
        outs.push(Out::Promoted {
            group,
            replayed,
            ready_after: base + self.config.exec_time * replayed as u64,
        });
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
                self.on_fault(group, host, now, ctx, &mut outs);
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppInvocation, CounterServant, StreamingClient};
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
    }

    impl Bus {
        fn new() -> Self {
            Bus {
                queue: std::collections::VecDeque::new(),
                now: SimTime::ZERO,
                transcript: Vec::new(),
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
            for mech in mechs.iter_mut() {
                let node = mech.node();
                let outs = with_ctx(|ctx| mech.on_delivered(message.clone(), self.now, ctx));
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
            state,
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
    /// under load go through the one replay routine and produce, `Out`
    /// for `Out`, what the three replay loops it replaced produced: the
    /// expectations were captured from the commit before it existed.
    #[test]
    fn promotion_and_chunked_recovery_replay_the_parents_out_sequence() {
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

        let mut bus = Bus::new();
        bus.collect(with_ctx(|ctx| c.start_clients(SimTime::ZERO, ctx)));
        let mut steps = |bus: &mut Bus, a: &mut Mechanisms, b: &mut Mechanisms, n: usize| {
            for _ in 0..n {
                if bus.step(&mut [&mut *a, &mut *b, &mut c]).is_none() {
                    break;
                }
            }
        };
        steps(&mut bus, &mut a, &mut b, 8);
        // A checkpoint mid-traffic, so the promotion below applies it
        // and replays only the suffix logged after its mark.
        bus.collect(a.checkpoint_due(server));
        steps(&mut bus, &mut a, &mut b, 12);
        // Promotion 1: the primary dies, the warm backup replays.
        let promotion_1 = bus.transcript.len();
        bus.collect(a.kill_local_replica(server));
        steps(&mut bus, &mut a, &mut b, 10);
        assert_eq!(b.primary_host(server), Some(n(1)));
        // Chunked recovery of the dead replica under the remaining
        // traffic: it completes as a standby whose re-baselined log
        // carries the transfer suffix and the held messages.
        bus.collect(a.launch_recovering_replica(server));
        steps(&mut bus, &mut a, &mut b, 60);
        assert_eq!(a.replica_phase(server), Some(ReplicaPhase::Standby));
        // Promotion 2, out of that re-baselined log.
        bus.collect(b.kill_local_replica(server));
        steps(&mut bus, &mut a, &mut b, usize::MAX);
        assert_eq!(a.replica_phase(server), Some(ReplicaPhase::Operational));

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
