//! The whole-system harness: processors (Totem node + Eternal
//! mechanisms + ORB + replicas) over the deterministic network, driven
//! by one event loop: the [`Ring`] owns the scheduler, the network
//! model and the Totem engines, and the cluster is what consumes their
//! ordered deliveries — everything *above* Totem.
//!
//! This is the reproduction's stand-in for the paper's testbed (§6): a
//! network of workstations running Totem, the Eternal mechanisms, and
//! unmodified CORBA applications. The cluster deploys replicated object
//! groups from fault-tolerance properties, runs workloads, injects
//! replica and processor faults, and records the metrics the evaluation
//! section reports (recovery time vs state size, response times,
//! resource usage per replication style).

use crate::app::ClientApp;
use crate::causal::{self, HopCtx};
use crate::gid::{ConnectionName, Direction, GroupId, TransferId};
use crate::hash::{fold_word, hash_bytes, FNV_OFFSET};
use crate::manager::{ReplicationManager, ResourceManager};
use crate::mechanisms::{GroupKind, GroupMeta, MechConfig, Mechanisms, Out};
use crate::message::{fragment_eternal, EternalMessage, EternalReassembler, RetrievalPurpose};
use crate::metrics::{Metrics, RecoveryRecord};
use crate::properties::{FaultToleranceProperties, ReplicationStyle};
use eternal_obs::causal::{CausalRecorder, Hop, OrderPos, TraceTag};
use eternal_obs::health::{AuditorConfig, HealthAuditor, HealthSnapshot};
use eternal_obs::timeline::PhaseSpan;
use eternal_obs::{EventKind, MetricsRegistry, RecoveryPhase, RecoveryTimeline};
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::choice::SharedChoiceSource;
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::trace::Trace;
use eternal_sim::{Duration, SimTime};
use eternal_totem::node::{Action as TotemAction, Delivery as TotemDelivery, Phase};
use eternal_totem::ring::{Fate, Popped, Ring};
use eternal_totem::types::{Frame, Payload};
use eternal_totem::TotemConfig;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Static configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of processors.
    pub processors: u32,
    /// Network model parameters (bandwidth, frame size, loss …).
    pub net: NetworkConfig,
    /// Totem protocol parameters.
    pub totem: TotemConfig,
    /// Mechanisms parameters (execution time, ablation switches).
    pub mech: MechConfig,
    /// Whether the resource manager automatically restores the replica
    /// count after faults.
    pub auto_recover: bool,
    /// Record a structured trace (disable for benchmarks).
    pub trace: bool,
    /// Ring-buffer capacity of the trace (drop-oldest beyond it).
    pub trace_capacity: usize,
    /// Record end-to-end causal spans (marshal → pack → total-order
    /// delivery → dispatch/recovery hops) and carry [`TraceTag`]s on the
    /// wire. Off by default: tracing adds `TraceTag::WIRE_LEN` bytes to
    /// every traced frame, so enabling it changes network timing (see
    /// `docs/TRACING.md` for the budget).
    pub causal: bool,
    /// Ring-buffer capacity of the causal recorder (drop-oldest beyond
    /// it — the flight-recorder bound).
    pub causal_capacity: usize,
    /// Interval between cluster-health snapshots published by each live
    /// processor through the total order ([`EternalMessage::Health`]).
    /// `Duration::ZERO` (the default) disables health monitoring
    /// entirely: no ticks are scheduled, no messages are sent, and every
    /// existing workload stays byte-identical. See `docs/HEALTH.md`.
    pub health_period: Duration,
    /// Detector thresholds for the online health auditor. Its
    /// `period_ns` is overridden from `health_period` whenever health
    /// monitoring is on, so silence detection always matches the actual
    /// publish cadence.
    pub health_auditor: AuditorConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            processors: 4,
            net: NetworkConfig::default(),
            totem: TotemConfig::default(),
            mech: MechConfig::default(),
            auto_recover: true,
            trace: true,
            trace_capacity: eternal_obs::trace::DEFAULT_CAPACITY,
            causal: false,
            causal_capacity: eternal_obs::causal::DEFAULT_CAUSAL_CAPACITY,
            health_period: Duration::ZERO,
            health_auditor: AuditorConfig::default(),
        }
    }
}

/// Time to launch a replica process before it can join recovery.
const LAUNCH_DELAY: Duration = Duration::from_millis(2);

/// The cluster's own occurrences on the [`Ring`]'s schedule.
#[derive(Debug)]
enum Event {
    EternalMulticast {
        src: NodeId,
        message: EternalMessage,
        trace: TraceTag,
    },
    CheckpointTick {
        group: GroupId,
    },
    LaunchReplica {
        node: NodeId,
        group: GroupId,
    },
    HealthTick {
        node: NodeId,
    },
}

struct GroupInfo {
    name: String,
    props: FaultToleranceProperties,
    hosts: Vec<NodeId>,
    make_kind: Arc<dyn Fn() -> GroupKind + Send + Sync>,
    /// Cluster-side view of which processors currently hold an instance.
    hosting: BTreeSet<NodeId>,
    /// Whether this is a client (driver) group — load ticks target these.
    is_client: bool,
}

impl std::fmt::Debug for GroupInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupInfo")
            .field("name", &self.name)
            .field("hosts", &self.hosts)
            .finish()
    }
}

/// In-flight observation of one §5.1 recovery episode, keyed by its
/// transfer id. Boundary times accumulate as the protocol's messages
/// are delivered; the finished timeline is assembled at
/// `Out::RecoveryComplete`.
#[derive(Debug, Clone)]
struct EpisodeObs {
    group: GroupId,
    new_host: NodeId,
    /// Donor-side quiescence reached; `get_state` begins (earliest
    /// donor wins under active replication).
    capture_begin: Option<SimTime>,
    /// Donor-side `get_state` finished; the first chunks are handed to
    /// the transport.
    send_at: Option<SimTime>,
    /// When the recovering replica began *holding* traffic rather than
    /// dropping it — the start of the group-blocking window: the last
    /// chunk's delivery.
    enqueue_at: Option<SimTime>,
    /// The transfer's closing suffix was delivered at the recovering
    /// replica: the set_state instant.
    assignment_at: Option<SimTime>,
}

/// Backpressure gauges for one processor, sampled as the rotating
/// token leaves it (so every sample sits at a token-visit boundary —
/// the same instant flow control makes its send/hold decision). The
/// node's next [`HealthSnapshot`] publishes the latest sample, and the
/// cluster registry exports the live-node sums as gauges.
#[derive(Debug, Clone, Copy, Default)]
struct BackpressureSample {
    /// Totem pending-queue depth (messages waiting for the token).
    pending_depth: u64,
    /// Flow-control window slots in use as the token left.
    flow_occupancy: u64,
    /// Bytes buffered in partially reassembled Eternal messages.
    reassembly_bytes: u64,
    /// Checkpoint-log suffix length summed over the node's replicas.
    log_suffix: u64,
}

/// What one processor runs above its Totem engine, plus the cluster's
/// bookkeeping about it. A restart rebuilds `mech` and `reasm`; the
/// rest survives.
#[derive(Debug)]
struct Processor {
    mech: Mechanisms,
    reasm: EternalReassembler,
    /// Id of the last Eternal message this processor fragmented.
    next_emsg_id: u64,
    /// Lamport clock stamped into causal hops and wire tags (receive
    /// rule: `max(local, tag.clock) + 1`).
    lamport: u64,
    /// Last time the rotating token arrived here, for the
    /// token-rotation-time histogram.
    last_token_at: Option<SimTime>,
    /// Latest backpressure gauges, refreshed at each token-visit
    /// boundary (see [`BackpressureSample`]).
    backpressure: BackpressureSample,
    /// Chained digest over every reassembled IIOP delivery, in delivery
    /// order (the batching-invariant witness): each link folds one
    /// message's identity, length and word-wise body hash.
    delivery_digest: u64,
    /// Restart count, stamped into rebuilt mechanisms so their
    /// fabricated transfer ids never repeat a pre-crash id.
    incarnation: u32,
    /// Next health publish sequence number; not mechanism state, so an
    /// origin never reuses a (node, seq) identity after a restart.
    health_seq: u64,
    /// Epoch tag for the state digests the next health snapshot will
    /// carry: they are refreshed at each health delivery (a shared
    /// total-order point), and this records which.
    health_digest_epoch: u64,
}

impl Processor {
    fn new(node: NodeId, config: &ClusterConfig) -> Self {
        Processor {
            mech: Mechanisms::new(node, config.mech.clone()),
            reasm: EternalReassembler::new(),
            next_emsg_id: 0,
            lamport: 0,
            last_token_at: None,
            backpressure: BackpressureSample::default(),
            delivery_digest: FNV_OFFSET,
            incarnation: 0,
            health_seq: 0,
            health_digest_epoch: HealthSnapshot::NO_DIGEST,
        }
    }
}

/// The whole simulated system.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    /// The event loop: scheduler, network model, Totem engines, their
    /// liveness and timers.
    ring: Ring<Event>,
    /// One entry per processor, indexed by node id.
    procs: Vec<Processor>,
    groups: BTreeMap<GroupId, GroupInfo>,
    next_group: u32,
    issue_times: BTreeMap<(ConnectionName, u32), SimTime>,
    pending_launch: HashMap<(GroupId, NodeId), SimTime>,
    /// Groups with a replacement launch scheduled or in progress, so the
    /// two fault-detection paths (ReplicaFault message, membership
    /// change) never double-launch.
    launch_inflight: BTreeSet<GroupId>,
    /// Evolution Manager state: per upgrading group, the replicas still
    /// running the old implementation.
    upgrades: BTreeMap<GroupId, Vec<NodeId>>,
    metrics: Metrics,
    trace: Trace,
    /// End-to-end causal span recorder (cluster-global, so span ids are
    /// unique across processors and the total-order check can compare
    /// deliveries of the same frame on different nodes).
    causal: CausalRecorder,
    registry: MetricsRegistry,
    /// `(trace_id, pack_span)` pairs whose [`Hop::Send`] has been
    /// stamped: a packed frame's *first* transmission records the hop;
    /// retransmissions and recovery re-broadcasts re-serve the stored
    /// frame and must not re-stamp it (the Pack→Send gap is then pure
    /// token wait, and Send→Deliver absorbs wire plus retransmission
    /// delay). One entry per traced packed frame — causal tracing only
    /// runs in bounded diagnostic sessions, and nothing is inserted
    /// when the recorder is disabled.
    send_stamped: BTreeSet<(u64, u64)>,
    episodes: BTreeMap<TransferId, EpisodeObs>,
    /// Chained digests over each (connection, direction) IIOP stream as
    /// seen at each node; direction encoded 0 = request, 1 = reply.
    stream_digests: BTreeMap<(NodeId, ConnectionName, u8), u64>,
    timelines: Vec<RecoveryTimeline>,
    repl_mgr: ReplicationManager,
    res_mgr: ResourceManager,
    clients_started: bool,
    /// Online anomaly auditor over the agreed health-epoch stream
    /// (inert unless [`ClusterConfig::health_period`] is nonzero).
    health_auditor: HealthAuditor,
    /// Epoch assigned to each health message at its *first* delivery
    /// anywhere — first-delivery order is the total order, so every
    /// replica observes the same epoch numbering. Pruned once well past.
    health_epoch_of: HashMap<(u64, u64), u64>,
    next_health_epoch: u64,
}

impl Cluster {
    /// Builds the system and starts Totem on every processor.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        config.totem.validate();
        let mut config = config;
        // A traced cluster also traces its ORBs (restart_processor
        // clones this config, so adjust it once here).
        config.mech.obs = config.mech.obs || config.trace;
        let mut cluster = Cluster {
            repl_mgr: ReplicationManager::new(config.processors),
            res_mgr: ResourceManager,
            ring: Ring::new(
                config.processors,
                config.totem.clone(),
                config.net.clone(),
                seed,
            ),
            procs: (0..config.processors)
                .map(|i| Processor::new(NodeId(i), &config))
                .collect(),
            groups: BTreeMap::new(),
            next_group: 0,
            issue_times: BTreeMap::new(),
            pending_launch: HashMap::new(),
            launch_inflight: BTreeSet::new(),
            upgrades: BTreeMap::new(),
            metrics: Metrics::default(),
            trace: if config.trace {
                Trace::with_capacity(config.trace_capacity)
            } else {
                Trace::disabled()
            },
            causal: if config.causal {
                CausalRecorder::new(config.causal_capacity)
            } else {
                CausalRecorder::disabled()
            },
            registry: MetricsRegistry::new(),
            send_stamped: BTreeSet::new(),
            episodes: BTreeMap::new(),
            stream_digests: BTreeMap::new(),
            timelines: Vec::new(),
            clients_started: false,
            health_auditor: {
                let mut acfg = config.health_auditor.clone();
                if config.health_period > Duration::ZERO {
                    acfg.period_ns = config.health_period.as_nanos();
                }
                HealthAuditor::new(acfg)
            },
            health_epoch_of: HashMap::new(),
            next_health_epoch: 0,
            config,
        };
        for node in cluster.processors() {
            let actions = cluster.ring.start(node);
            cluster.apply_totem_actions(node, actions);
        }
        if cluster.config.health_period > Duration::ZERO {
            for node in cluster.processors() {
                cluster
                    .ring
                    .schedule_after(cluster.config.health_period, Event::HealthTick { node });
            }
        }
        cluster
    }

    /// Installs a schedule-exploration choice source: it resolves
    /// same-instant scheduler tie-breaks and the deliver / drop / delay
    /// fate of every multicast frame (see [`Ring::set_choice_source`]).
    pub fn set_choice_source(&mut self, source: SharedChoiceSource) {
        self.ring.set_choice_source(source);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ring.now()
    }

    /// The processors, in id order.
    pub fn processors(&self) -> Vec<NodeId> {
        self.ring.nodes().to_vec()
    }

    /// The processors currently up, in id order.
    pub fn live_processors(&self) -> Vec<NodeId> {
        self.ring.live().collect()
    }

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
    /// [`ClusterConfig::causal`] was set).
    pub fn causal(&self) -> &CausalRecorder {
        &self.causal
    }

    /// Records an event in the cluster trace on behalf of an external
    /// driver (the chaos campaign runner injects faults from outside).
    pub fn record_event(&mut self, source: &str, kind: EventKind, detail: String) {
        let now = self.now();
        self.trace.record(now, source.to_string(), kind, detail);
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

    /// Delivers a load tick to every client group's replicas (see
    /// [`crate::app::ClientApp::on_tick`]): the chaos campaigns
    /// re-burst traffic this way between fault steps.
    ///
    /// The tick is a state-changing input (it advances the client
    /// application's issue counters), so — per the paper's §2 replica
    /// determinism requirement — it travels through the totally-ordered
    /// multicast as [`EternalMessage::LoadTick`] rather than being
    /// applied locally. Every sibling then ticks at the *same* point in
    /// the total order: a replica recovering mid-transfer drops
    /// pre-sync ticks (their effect is in the transferred state) and
    /// holds post-retrieval ticks for replay after `set_state`, so
    /// donor and recovered replica stay byte-identical. Siblings' ticks
    /// issue identical invocations; duplicates are suppressed
    /// downstream exactly as at deployment time.
    pub fn kick_clients(&mut self) {
        let now = self.now();
        let Some(src) = self.ring.live().next() else {
            return;
        };
        let client_groups: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, info)| info.is_client)
            .map(|(&id, _)| id)
            .collect();
        for group in client_groups {
            self.do_multicast(src, EternalMessage::LoadTick { group }, now, TraceTag::NONE);
        }
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

    /// Whether any recovery machinery is in flight: scheduled or
    /// pending replica launches, or open state-transfer episodes.
    pub fn recovery_in_flight(&self) -> bool {
        !self.pending_launch.is_empty()
            || !self.launch_inflight.is_empty()
            || !self.episodes.is_empty()
    }

    /// Scheduled or in-progress replica launches as (group, new host)
    /// pairs, deterministically ordered. The chaos campaigns use this to
    /// find — and crash — the recovering host mid-transfer.
    pub fn pending_launches(&self) -> Vec<(GroupId, NodeId)> {
        let mut v: Vec<(GroupId, NodeId)> = self.pending_launch.keys().copied().collect();
        v.extend(self.episodes.values().map(|ep| (ep.group, ep.new_host)));
        v.sort();
        v.dedup();
        v
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

    /// Aggregated system metrics.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics.clone();
        for Processor { mech, .. } in &self.procs {
            let c = mech.counters();
            m.requests_dispatched += c.requests_dispatched;
            m.replies_delivered += c.replies_delivered;
            m.duplicates_suppressed += mech.suppressed();
            m.replies_discarded_by_orb += c.replies_discarded_by_orb;
            m.requests_discarded_unnegotiated += c.requests_discarded_unnegotiated;
            m.checkpoints_logged += c.checkpoints_logged;
            m.messages_logged += c.messages_logged;
        }
        m
    }

    /// Requests dispatched, replies delivered and recoveries completed
    /// so far — what a settle loop watches — without the clone
    /// [`Cluster::metrics`] makes of every retained round trip.
    pub fn progress(&self) -> [u64; 3] {
        let mut p = [0, 0, self.metrics.recoveries_completed];
        for Processor { mech, .. } in &self.procs {
            p[0] += mech.counters().requests_dispatched;
            p[1] += mech.counters().replies_delivered;
        }
        p
    }

    /// Layer-local metrics aggregated into one registry: cluster-level
    /// histograms, Totem engine counters, network counters, and (when
    /// tracing) each processor's ORB registry.
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
        for Processor { mech, .. } in &self.procs {
            let c = mech.counters();
            reg.counter_add("eternal.requests_dispatched", c.requests_dispatched);
            reg.counter_add("eternal.replies_delivered", c.replies_delivered);
            reg.counter_add("eternal.duplicates_suppressed", mech.suppressed());
            reg.counter_add("eternal.checkpoints_logged", c.checkpoints_logged);
            reg.counter_add("eternal.messages_logged", c.messages_logged);
            reg.counter_add("eternal.chunks_streamed", c.chunks_streamed);
            reg.counter_add("eternal.chunk_duplicates", c.chunk_duplicates);
            reg.counter_add("eternal.transfer_takeovers", c.transfer_takeovers);
            reg.counter_add(
                "eternal.suffix_checkpoints_triggered",
                c.suffix_checkpoints_triggered,
            );
            reg.merge(mech.orb().metrics());
        }
        reg.counter_add("net.frames_sent", self.net().frames_sent());
        reg.counter_add("net.frames_dropped", self.net().frames_dropped());
        reg.counter_add("net.bytes_sent", self.net().bytes_sent());
        // Instantaneous depths as gauges (summed over live processors):
        // the health snapshots sample the same quantities per node, but
        // the registry export is the place dashboards scrape.
        let mut holding = 0i64;
        let mut dedup = 0i64;
        let mut reasm = 0i64;
        let mut recovering = 0i64;
        let mut chunks_pending = 0i64;
        // Backpressure gauges from the latest token-visit samples — the
        // same values the health snapshots publish per node through the
        // total order.
        let mut pending_depth = 0i64;
        let mut flow_occupancy = 0i64;
        let mut reassembly_bytes = 0i64;
        let mut log_suffix = 0i64;
        for node in self.ring.live() {
            let proc = &self.procs[node.0 as usize];
            let (mech, bp) = (&proc.mech, &proc.backpressure);
            holding += mech.holding_depth_total() as i64;
            dedup += mech.dedup_resident() as i64;
            recovering += mech.recovering_replicas() as i64;
            reasm += proc.reasm.pending() as i64;
            chunks_pending += mech.transfer_chunks_pending() as i64;
            pending_depth += bp.pending_depth as i64;
            flow_occupancy += bp.flow_occupancy as i64;
            reassembly_bytes += bp.reassembly_bytes as i64;
            log_suffix += bp.log_suffix as i64;
        }
        reg.gauge_set("eternal.holding_depth", holding);
        reg.gauge_set("eternal.dedup_resident", dedup);
        reg.gauge_set("eternal.reassembly_pending", reasm);
        reg.gauge_set("eternal.recovering_replicas", recovering);
        reg.gauge_set("eternal.transfer_chunks_pending", chunks_pending);
        reg.gauge_set("eternal.outstanding_calls", self.outstanding_calls() as i64);
        reg.gauge_set("totem.pending_depth", pending_depth);
        reg.gauge_set("totem.flow_occupancy", flow_occupancy);
        reg.gauge_set("eternal.reassembly_bytes", reassembly_bytes);
        reg.gauge_set("eternal.log_suffix", log_suffix);
        if self.config.health_period > Duration::ZERO {
            reg.gauge_set("health.epochs", self.health_auditor.epochs().len() as i64);
            reg.counter_add("health.diagnoses", 0);
        }
        reg
    }

    /// The online health auditor: the agreed epoch stream and every
    /// diagnosis fired so far. Empty unless
    /// [`ClusterConfig::health_period`] is nonzero.
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

    // ================================================================
    // Deployment
    // ================================================================

    /// Deploys a replicated server object; returns its group id.
    pub fn deploy_server<F>(
        &mut self,
        name: &str,
        props: FaultToleranceProperties,
        factory: F,
    ) -> GroupId
    where
        F: Fn() -> Box<dyn CheckpointableServant> + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        self.deploy_group(
            name,
            props,
            Arc::new(move || {
                let f = Arc::clone(&factory);
                GroupKind::Server(Box::new(move || f()))
            }),
            false,
        )
    }

    /// Deploys a replicated client object; returns its group id.
    pub fn deploy_client<F>(
        &mut self,
        name: &str,
        props: FaultToleranceProperties,
        factory: F,
    ) -> GroupId
    where
        F: Fn(GroupId) -> Box<dyn ClientApp> + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        self.deploy_group(
            name,
            props,
            Arc::new(move || {
                let f = Arc::clone(&factory);
                GroupKind::Client(Box::new(move |g| f(g)))
            }),
            true,
        )
    }

    fn deploy_group(
        &mut self,
        name: &str,
        props: FaultToleranceProperties,
        make_kind: Arc<dyn Fn() -> GroupKind + Send + Sync>,
        is_client: bool,
    ) -> GroupId {
        props.validate();
        let id = GroupId(self.next_group);
        self.next_group += 1;
        let hosts = self.repl_mgr.plan_hosts(props.initial_replicas);
        // Register on every processor; instantiate on hosting ones.
        for (&node, Processor { mech, .. }) in self.ring.nodes().iter().zip(&mut self.procs) {
            mech.register_group(GroupMeta {
                id,
                name: name.to_owned(),
                props: props.clone(),
                hosts: hosts.clone(),
                kind: make_kind(),
            });
            let instantiates = match props.style {
                ReplicationStyle::Active | ReplicationStyle::WarmPassive => hosts.contains(&node),
                ReplicationStyle::ColdPassive => hosts.first() == Some(&node),
            };
            if instantiates {
                mech.deploy_local_replica(id);
            }
        }
        let hosting: BTreeSet<NodeId> = match props.style {
            ReplicationStyle::Active | ReplicationStyle::WarmPassive => {
                hosts.iter().copied().collect()
            }
            ReplicationStyle::ColdPassive => hosts.first().copied().into_iter().collect(),
        };
        if props.style.logs_checkpoints() {
            self.ring.schedule_after(
                props.checkpoint_interval,
                Event::CheckpointTick { group: id },
            );
        }
        self.groups.insert(
            id,
            GroupInfo {
                name: name.to_owned(),
                props,
                hosts,
                make_kind,
                hosting,
                is_client,
            },
        );
        id
    }

    /// The Evolution Manager (paper §2): upgrades a replicated server to
    /// a new implementation **without taking the service down**, by
    /// exploiting the replication itself. Replicas running the old
    /// implementation are killed one at a time; each replacement is
    /// instantiated from `factory` and synchronized through the normal
    /// §5.1 state transfer, so the new version starts from the old
    /// version's state. The group keeps serving throughout (its other
    /// replicas answer while each one is replaced).
    ///
    /// The new implementation must accept the old one's `set_state`
    /// payload (state-format compatibility is the application's
    /// contract, exactly as in the paper's Evolution Manager).
    ///
    /// # Panics
    ///
    /// Panics if the group is unknown, not active-style (rolling
    /// replacement needs siblings to serve state), or already upgrading.
    pub fn upgrade_server<F>(&mut self, group: GroupId, factory: F)
    where
        F: Fn() -> Box<dyn CheckpointableServant> + Send + Sync + 'static,
    {
        let info = self.groups.get_mut(&group).expect("unknown group");
        assert_eq!(
            info.props.style,
            ReplicationStyle::Active,
            "rolling upgrade requires active replication"
        );
        assert!(
            !self.upgrades.contains_key(&group),
            "upgrade already in progress"
        );
        let factory = Arc::new(factory);
        let make_kind: Arc<dyn Fn() -> GroupKind + Send + Sync> = Arc::new(move || {
            let f = Arc::clone(&factory);
            GroupKind::Server(Box::new(move || f()))
        });
        info.make_kind = Arc::clone(&make_kind);
        // Future instantiations everywhere use the new implementation.
        for Processor { mech, .. } in &mut self.procs {
            mech.replace_group_kind(group, make_kind());
        }
        let mut old_replicas: Vec<NodeId> = self.groups[&group].hosting.iter().copied().collect();
        old_replicas.reverse(); // pop() upgrades in host order
        let now = self.now();
        self.trace.record(
            now,
            "cluster/evolution-manager".to_string(),
            EventKind::UpgradeBegin,
            format!("{group} replicas={old_replicas:?}"),
        );
        self.upgrades.insert(group, old_replicas);
        self.upgrade_step(group);
    }

    /// Whether an upgrade is still replacing old replicas of `group`.
    pub fn upgrade_in_progress(&self, group: GroupId) -> bool {
        self.upgrades.contains_key(&group)
    }

    fn upgrade_step(&mut self, group: GroupId) {
        let Some(queue) = self.upgrades.get_mut(&group) else {
            return;
        };
        let Some(victim) = queue.pop() else {
            self.upgrades.remove(&group);
            let now = self.now();
            self.trace.record(
                now,
                "cluster/evolution-manager".to_string(),
                EventKind::UpgradeComplete,
                format!("{group}"),
            );
            return;
        };
        // Kill the old-version replica; the resource manager launches a
        // replacement that instantiates the new implementation and is
        // state-synchronized by the recovery mechanisms.
        self.kill_replica(group, victim);
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

    // ================================================================
    // Running
    // ================================================================

    /// Runs until the Totem ring is formed among all live processors and
    /// client applications have issued their initial invocations.
    ///
    /// # Panics
    ///
    /// Panics if formation does not converge within 30 virtual seconds.
    pub fn run_until_deployed(&mut self) {
        let deadline = self.now() + Duration::from_secs(30);
        while !self.formed() {
            assert!(self.now() < deadline, "ring formation did not converge");
            if !self.step() {
                panic!("simulation ran dry before the ring formed");
            }
        }
        if !self.clients_started {
            self.clients_started = true;
            for node in self.processors() {
                if self.is_alive(node) {
                    let now = self.now();
                    let proc = &mut self.procs[node.0 as usize];
                    let mut ctx = HopCtx::new(&mut self.causal, node.0 as u64, 0, 0, proc.lamport);
                    let outs = proc.mech.start_clients(now, &mut ctx);
                    self.process_outs(node, outs, now, Duration::ZERO);
                }
            }
        }
    }

    /// Whether all live processors share one operational ring.
    pub fn formed(&self) -> bool {
        self.ring.formed()
    }

    /// Whether a processor is up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.ring.is_alive(node)
    }

    /// Executes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(popped) = self.ring.pop() else {
            return false;
        };
        let now = self.now();
        match popped {
            Popped::Actions {
                node,
                token_visit,
                actions,
            } => {
                if token_visit {
                    if let Some(prev) = self.procs[node.0 as usize].last_token_at.replace(now) {
                        self.registry
                            .histogram_record("totem.token_rotation", now - prev);
                    }
                }
                self.apply_totem_actions(node, actions);
                if token_visit {
                    // Backpressure gauges are sampled as the token
                    // *leaves* the node: this visit's sends have
                    // drained what flow control allowed, so what
                    // remains pending is genuine backlog.
                    self.sample_backpressure(node);
                }
            }
            Popped::Ext(event) => self.handle_event(now, event),
            Popped::Stale => {}
        }
        true
    }

    /// Runs until `deadline` (events beyond it stay queued).
    pub fn run_until_time(&mut self, deadline: SimTime) {
        while self.ring.peek_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until_time(deadline);
    }

    // ================================================================
    // Fault injection and recovery
    // ================================================================

    /// Kills the replica of `group` hosted on `node` (process death;
    /// the processor and its mechanisms survive). Detection takes the
    /// group's fault-monitoring interval.
    pub fn kill_replica(&mut self, group: GroupId, node: NodeId) {
        let monitor = self.groups[&group].props.fault_monitoring_interval;
        self.groups
            .get_mut(&group)
            .expect("known group")
            .hosting
            .remove(&node);
        // If the victim was itself mid-recovery, that episode can never
        // complete; abort it so the launch guard doesn't wedge the
        // resource manager's next replacement.
        self.abort_recovery_at(node, Some(group));
        let outs = self.procs[node.0 as usize].mech.kill_local_replica(group);
        let now = self.now();
        self.trace.record(
            now,
            format!("{node}/cluster"),
            EventKind::ReplicaKilled,
            format!("{group}"),
        );
        self.process_outs(node, outs, now, monitor);
    }

    /// Launches a replacement replica of `group` on `node` after
    /// the 2 ms launch delay (the §5.1 recovery path).
    pub fn launch_replica(&mut self, group: GroupId, node: NodeId) {
        self.ring
            .schedule_after(LAUNCH_DELAY, Event::LaunchReplica { node, group });
    }

    /// Crashes an entire processor: Totem membership, mechanisms state,
    /// and all hosted replicas are lost.
    pub fn crash_processor(&mut self, node: NodeId) {
        self.ring.crash(node);
        for info in self.groups.values_mut() {
            info.hosting.remove(&node);
        }
        // Recovery aimed at the crashed processor (it was the recovering
        // host of a launch or an open state transfer) can never finish;
        // abort those episodes so the launch guards release.
        self.abort_recovery_at(node, None);
        let now = self.now();
        let proc = &mut self.procs[node.0 as usize];
        proc.last_token_at = None;
        // The crashed node's queues died with it — a stale sample would
        // otherwise surface in its first post-restart health snapshots.
        proc.backpressure = BackpressureSample::default();
        self.trace.record(
            now,
            format!("{node}/cluster"),
            EventKind::ProcessorCrashed,
            "",
        );
    }

    /// Drops recovery machinery whose recovering replica lived on `node`
    /// (scoped to one group when `only` is set): pending launches, open
    /// state-transfer episodes, and the per-group launch guards. Without
    /// this, killing the new host mid-transfer would leave its group's
    /// guard set forever and the resource manager could never launch a
    /// fresh replacement.
    fn abort_recovery_at(&mut self, node: NodeId, only: Option<GroupId>) {
        let launches: Vec<(GroupId, NodeId)> = self
            .pending_launch
            .keys()
            .copied()
            .filter(|&(g, n)| n == node && only.is_none_or(|og| og == g))
            .collect();
        for key in launches {
            self.pending_launch.remove(&key);
            self.launch_inflight.remove(&key.0);
        }
        let stale: Vec<TransferId> = self
            .episodes
            .iter()
            .filter(|(_, ep)| ep.new_host == node && only.is_none_or(|og| og == ep.group))
            .map(|(&t, _)| t)
            .collect();
        for t in stale {
            if let Some(ep) = self.episodes.remove(&t) {
                self.launch_inflight.remove(&ep.group);
            }
        }
    }

    /// Restarts a crashed processor with empty volatile state; its
    /// Totem node rejoins and groups re-register (no replicas are
    /// instantiated — recovery launches them).
    pub fn restart_processor(&mut self, node: NodeId) {
        assert!(!self.is_alive(node), "restart of a live processor");
        let actions = self.ring.restart(node);
        let proc = &mut self.procs[node.0 as usize];
        let mut mech = Mechanisms::new(node, self.config.mech.clone());
        proc.incarnation += 1;
        mech.set_incarnation(proc.incarnation);
        for (&id, info) in &self.groups {
            mech.register_group(GroupMeta {
                id,
                name: info.name.clone(),
                props: info.props.clone(),
                hosts: info.hosts.clone(),
                kind: (info.make_kind)(),
            });
        }
        proc.mech = mech;
        proc.reasm = EternalReassembler::new();
        let now = self.now();
        self.trace.record(
            now,
            format!("{node}/cluster"),
            EventKind::ProcessorRestarted,
            "",
        );
        self.apply_totem_actions(node, actions);
        // The replicas of the previous incarnation died with its
        // process, but a fast restart can rejoin the ring before
        // token-loss detection ever excluded the node — the survivors'
        // membership-change fault path then never fires, and they would
        // keep the dead replicas in their operational views forever
        // (even electing the empty node as a state donor, wedging every
        // later recovery of those groups). The rejoined fault detector
        // therefore announces the deaths itself, once per group, at a
        // total-order point; pruning a host that was never operational
        // is a no-op, and the resource manager restores replica counts
        // idempotently.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            self.do_multicast(
                node,
                EternalMessage::ReplicaFault { group, host: node },
                now,
                TraceTag::NONE,
            );
        }
    }

    // ================================================================
    // Internals
    // ================================================================

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::EternalMulticast {
                src,
                message,
                trace,
            } => self.do_multicast(src, message, now, trace),
            Event::CheckpointTick { group } => {
                if let Some(info) = self.groups.get(&group) {
                    let interval = info.props.checkpoint_interval;
                    for node in self.processors() {
                        if self.is_alive(node) {
                            let outs = self.procs[node.0 as usize].mech.checkpoint_due(group);
                            self.process_outs(node, outs, now, Duration::ZERO);
                        }
                    }
                    self.ring
                        .schedule_after(interval, Event::CheckpointTick { group });
                }
            }
            Event::LaunchReplica { node, group } => {
                if !self.is_alive(node) {
                    self.launch_inflight.remove(&group);
                    self.restore_strength(group, now);
                    return;
                }
                self.pending_launch.insert((group, node), now);
                self.groups
                    .get_mut(&group)
                    .expect("known group")
                    .hosting
                    .insert(node);
                self.trace.record(
                    now,
                    format!("{node}/cluster"),
                    EventKind::ReplicaLaunched,
                    format!("{group}"),
                );
                let outs = self.procs[node.0 as usize]
                    .mech
                    .launch_recovering_replica(group);
                self.process_outs(node, outs, now, Duration::ZERO);
            }
            Event::HealthTick { node } => {
                // Reschedule unconditionally — a crashed processor's
                // tick keeps firing silently so publishing resumes by
                // itself after a restart.
                self.ring
                    .schedule_after(self.config.health_period, Event::HealthTick { node });
                self.publish_health(node, now);
            }
        }
    }

    fn do_multicast(&mut self, src: NodeId, message: EternalMessage, now: SimTime, tag: TraceTag) {
        if !self.is_alive(src) {
            return;
        }
        if let EternalMessage::Iiop {
            conn,
            direction: Direction::Request,
            op_seq,
            ..
        } = &message
        {
            // Round-trip timing starts at the first copy's send.
            self.issue_times.entry((*conn, *op_seq)).or_insert(now);
        }
        // Send-side causal bookkeeping: bump the sender's Lamport clock,
        // root an untagged-but-traceable message (one reaching the send
        // path without an explicit tag, e.g. a recovery re-send) in a
        // fresh Marshal span, and stamp one Pack hop per Totem fragment.
        let mut tag = tag;
        if self.causal.is_enabled() {
            let clock = &mut self.procs[src.0 as usize].lamport;
            *clock = (*clock).max(tag.clock) + 1;
            let clock = *clock;
            if tag.is_none() {
                let tid = causal::trace_id_of(&message);
                if tid != 0 {
                    let span = self.causal.record(
                        now,
                        src.0 as u64,
                        tid,
                        0,
                        Hop::Marshal,
                        clock,
                        None,
                        message.kind(),
                    );
                    tag = TraceTag {
                        trace_id: tid,
                        parent_span: span,
                        clock,
                    };
                }
            } else {
                tag.clock = clock;
            }
        }
        let encoded = message.to_bytes();
        let max_payload = self.net().config().frame_payload().saturating_sub(32);
        let msg_id = {
            let id = &mut self.procs[src.0 as usize].next_emsg_id;
            *id += 1;
            *id
        };
        for (i, frag) in fragment_eternal(src, msg_id, &encoded, max_payload)
            .into_iter()
            .enumerate()
        {
            let frag_tag = if tag.is_none() {
                TraceTag::NONE
            } else {
                let span = self.causal.record(
                    now,
                    src.0 as u64,
                    tag.trace_id,
                    tag.parent_span,
                    Hop::Pack,
                    tag.clock,
                    None,
                    format!("frag {i}"),
                );
                TraceTag {
                    trace_id: tag.trace_id,
                    parent_span: span,
                    clock: tag.clock,
                }
            };
            let actions = self.ring.broadcast(src, frag, frag_tag);
            self.apply_totem_actions(src, actions);
        }
        eternal_cdr::pool::recycle(encoded);
    }

    /// Refreshes `node`'s backpressure gauges at a token-visit
    /// boundary. The sample feeds three consumers: the node's next
    /// [`HealthSnapshot`] (so the auditor's queue-growth detector sees
    /// an agreed, totally-ordered depth series), the cluster metrics
    /// registry (dashboard export), and — indirectly — the attribution
    /// report's token-wait phase, which these depths explain.
    fn sample_backpressure(&mut self, node: NodeId) {
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
    fn publish_health(&mut self, node: NodeId, now: SimTime) {
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
        let snap = HealthSnapshot {
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
        };
        self.trace.record(
            now,
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
    fn on_health_delivered(&mut self, node: NodeId, snap: &HealthSnapshot, now: SimTime) {
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
                    self.trace.record(
                        now,
                        "cluster/health-auditor".to_string(),
                        EventKind::HealthDiagnosis,
                        d.to_string(),
                    );
                }
                e
            }
        };
        self.procs[node.0 as usize].health_digest_epoch = epoch;
    }

    fn apply_totem_actions(&mut self, node: NodeId, actions: Vec<TotemAction>) {
        let now = self.now();
        for action in actions {
            match action {
                TotemAction::Multicast(frame) => {
                    if let Frame::Regular(m) = &frame {
                        if let Payload::Batch(items) = m.payload.inner() {
                            self.registry.histogram_record_value(
                                "totem.batch.occupancy",
                                items.len() as u64,
                            );
                        }
                        // Stamp a Send hop at each packed message's
                        // *first* transmission. Retransmissions and
                        // recovery re-broadcasts re-serve the stored
                        // frame and are deliberately not re-stamped, so
                        // Pack→Send measures pure token wait and
                        // Send→Deliver absorbs wire time plus any
                        // retransmission delay. The Lamport clock is
                        // not bumped: the hop is a timestamped alias of
                        // the Pack event leaving the node, not a new
                        // causal step.
                        if self.causal.is_enabled() {
                            for tag in &m.trace {
                                if tag.is_none()
                                    || !self.send_stamped.insert((tag.trace_id, tag.parent_span))
                                {
                                    continue;
                                }
                                self.causal.record(
                                    now,
                                    node.0 as u64,
                                    tag.trace_id,
                                    tag.parent_span,
                                    Hop::Send,
                                    tag.clock,
                                    None,
                                    format!("seq {}", m.seq),
                                );
                            }
                        }
                    }
                    match self.ring.multicast(node, frame) {
                        Fate::Delivered => {}
                        Fate::Dropped => self.registry.counter_add("explore.frames_dropped", 1),
                        Fate::Delayed => self.registry.counter_add("explore.frames_delayed", 1),
                    }
                }
                other => {
                    if let Some(delivery) = self.ring.execute(node, other) {
                        self.on_totem_delivery(node, delivery);
                    }
                }
            }
        }
    }

    fn on_totem_delivery(&mut self, node: NodeId, delivery: TotemDelivery) {
        let now = self.now();
        match delivery {
            TotemDelivery::Message {
                ring,
                seq,
                data,
                trace: tag,
                ..
            } => {
                // Receive-side causal bookkeeping: Lamport receive rule,
                // then a Deliver span carrying the total-order position
                // (the cross-replica agreement check keys on it) and a
                // Reassemble span once a full Eternal message pops out.
                let mut chain = (0u64, 0u64, 0u64); // (trace_id, parent, clock)
                if self.causal.is_enabled() && !tag.is_none() {
                    let clock = &mut self.procs[node.0 as usize].lamport;
                    *clock = (*clock).max(tag.clock) + 1;
                    let clock = *clock;
                    let span = self.causal.record(
                        now,
                        node.0 as u64,
                        tag.trace_id,
                        tag.parent_span,
                        Hop::Deliver,
                        clock,
                        Some(OrderPos {
                            ring_rep: ring.rep.0 as u64,
                            ring_seq: ring.seq,
                            seq,
                        }),
                        format!("{ring} seq {seq}"),
                    );
                    chain = (tag.trace_id, span, clock);
                }
                match self.procs[node.0 as usize].reasm.push(&data) {
                    Ok(Some(message)) => {
                        self.digest_delivery(node, &message);
                        self.observe_recovery_message(node, &message, now);
                        self.resource_manager_hook(node, &message, now);
                        if let EternalMessage::Health { snap } = &message {
                            self.on_health_delivered(node, snap, now);
                        }
                        if chain.0 != 0 {
                            let span = self.causal.record(
                                now,
                                node.0 as u64,
                                chain.0,
                                chain.1,
                                Hop::Reassemble,
                                chain.2,
                                None,
                                message.kind(),
                            );
                            chain.1 = span;
                        }
                        let mut ctx =
                            HopCtx::new(&mut self.causal, node.0 as u64, chain.0, chain.1, chain.2);
                        let outs = self.procs[node.0 as usize]
                            .mech
                            .on_delivered(message, now, &mut ctx);
                        self.process_outs(node, outs, now, Duration::ZERO);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.trace.record(
                            now,
                            format!("{node}/reasm"),
                            EventKind::ReassemblyError,
                            e.to_string(),
                        );
                    }
                }
            }
            TotemDelivery::ConfigChange { members, .. } => {
                self.trace.record(
                    now,
                    format!("{node}/totem"),
                    EventKind::ConfigChange,
                    format!("{members:?}"),
                );
                // Departed processors will never complete their partial
                // messages, and may rewind their msg_id counters on
                // restart; evict their reassembly state (mirroring the
                // GIOP reassembler's per-connection reset).
                let proc = &mut self.procs[node.0 as usize];
                for &origin in self.ring.nodes() {
                    if !members.contains(&origin) {
                        proc.reasm.forget_origin(origin);
                    }
                }
                // Cluster-side resource management reacts once, at the
                // lowest live member.
                if members.first() == Some(&node) {
                    self.resource_manager_config_change(&members, now);
                }
                let proc = &mut self.procs[node.0 as usize];
                let mut ctx = HopCtx::new(&mut self.causal, node.0 as u64, 0, 0, proc.lamport);
                let outs = proc.mech.on_config_change(&members, now, &mut ctx);
                self.process_outs(node, outs, now, Duration::ZERO);
            }
        }
    }

    /// The Resource Manager's reaction to a delivered fault: restore the
    /// replica count (paper §2). Acts once per fault, at the lowest live
    /// processor, with a deterministic replacement choice.
    fn resource_manager_hook(&mut self, node: NodeId, message: &EternalMessage, now: SimTime) {
        if !self.config.auto_recover {
            return;
        }
        let EternalMessage::ReplicaFault { group, .. } = message else {
            return;
        };
        if Some(node) != self.ring.live().next() {
            return;
        }
        self.restore_strength(*group, now);
    }

    /// Launch a replacement if `group` is below its minimum replica
    /// count and no launch is already in flight. Called from the
    /// resource-manager fault hook, and again whenever a launch guard
    /// releases: a replica fault delivered *during* an episode (e.g.
    /// the state donor dying mid-chunk-stream) is dropped by the
    /// double-launch guard, so the count must be re-examined once the
    /// episode ends.
    fn restore_strength(&mut self, group: GroupId, now: SimTime) {
        if !self.config.auto_recover || self.launch_inflight.contains(&group) {
            return;
        }
        let Some(info) = self.groups.get(&group) else {
            return;
        };
        if info.hosting.len() >= info.props.min_replicas {
            return;
        }
        let alive: Vec<NodeId> = self.ring.live().collect();
        let Some(&rm_node) = alive.first() else {
            return;
        };
        let hosting: Vec<NodeId> = info.hosting.iter().copied().collect();
        if let Some(replacement) = self
            .res_mgr
            .choose_replacement(&info.hosts, &hosting, &alive)
        {
            self.trace.record(
                now,
                format!("{rm_node}/resource-manager"),
                EventKind::ReplacementChosen,
                format!("{group} -> {replacement}"),
            );
            self.launch_inflight.insert(group);
            self.launch_replica(group, replacement);
        }
    }

    fn resource_manager_config_change(&mut self, members: &[NodeId], now: SimTime) {
        if !self.config.auto_recover {
            return;
        }
        let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
        // Only hosts that are actually down leave the hosting map. A
        // processor absent from this membership may merely be on the
        // other side of a partition, still running its replicas; during
        // a split both components react to their own configuration
        // change against this shared map, and treating the other side
        // as dead would empty every group's hosting and permanently
        // disable auto-recovery after the heal.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let info = self.groups.get_mut(&group).expect("listed");
            let dead: Vec<NodeId> = info
                .hosting
                .iter()
                .copied()
                .filter(|&h| !member_set.contains(&h) && !self.ring.is_alive(h))
                .collect();
            for d in &dead {
                info.hosting.remove(d);
            }
            if self.launch_inflight.contains(&group) {
                continue;
            }
            let info = self.groups.get(&group).expect("listed");
            if info.hosting.len() >= info.props.min_replicas {
                continue;
            }
            // A passive group below minimum but with a live primary is
            // handled by promotion plus (optionally) a new backup; only
            // launch when a state-serving path exists to copy from.
            if info.hosting.is_empty() {
                continue; // total loss: nothing to transfer state from
            }
            let alive: Vec<NodeId> = member_set.iter().copied().collect();
            let hosting: Vec<NodeId> = info.hosting.iter().copied().collect();
            let designated = info.hosts.clone();
            if let Some(replacement) =
                self.res_mgr
                    .choose_replacement(&designated, &hosting, &alive)
            {
                self.trace.record(
                    now,
                    "cluster/resource-manager".to_string(),
                    EventKind::ReplacementChosen,
                    format!("{group} -> {replacement}"),
                );
                self.launch_inflight.insert(group);
                self.launch_replica(group, replacement);
            }
        }
    }

    fn process_outs(&mut self, node: NodeId, outs: Vec<Out>, now: SimTime, extra: Duration) {
        for out in outs {
            match out {
                Out::Multicast {
                    delay,
                    message,
                    trace,
                } => {
                    self.ring.schedule_at(
                        now + delay + extra,
                        Event::EternalMulticast {
                            src: node,
                            message,
                            trace,
                        },
                    );
                }
                Out::ReplyDelivered { conn, op_seq } => {
                    if let Some(t0) = self.issue_times.remove(&(conn, op_seq)) {
                        self.metrics.round_trips.push(now - t0);
                        self.registry.histogram_record("orb.round_trip", now - t0);
                    }
                }
                Out::StateCaptured {
                    group,
                    transfer,
                    purpose: RetrievalPurpose::Recovery { new_host },
                    quiesce_wait,
                    capture_time,
                    ..
                } => {
                    // Donor-side boundaries: quiescence is reached
                    // `quiesce_wait` after the retrieval's delivery, and
                    // the first chunks leave `capture_time` later. Under
                    // active replication every operational replica
                    // captures; the earliest sender defines the episode.
                    // (Donors may see the retrieval before the new host
                    // does, so create the episode here if needed.)
                    //
                    // Donor captures can also arrive *after* the launch
                    // was aborted (the recovering host crashed while the
                    // retrieval was still in flight). Resurrecting the
                    // episode then would leave a transfer open forever,
                    // so only track launches that are still pending.
                    if !self.pending_launch.contains_key(&(group, new_host)) {
                        continue;
                    }
                    let cb = now + quiesce_wait;
                    let snd = cb + capture_time;
                    let ep = self.episodes.entry(transfer).or_insert(EpisodeObs {
                        group,
                        new_host,
                        capture_begin: None,
                        send_at: None,
                        enqueue_at: None,
                        assignment_at: None,
                    });
                    if ep.send_at.is_none_or(|s| snd < s) {
                        ep.capture_begin = Some(cb);
                        ep.send_at = Some(snd);
                    }
                }
                Out::StateCaptured { .. } => {} // checkpoint captures: no episode
                Out::RecoveryComplete {
                    group,
                    app_state_bytes,
                } => {
                    self.launch_inflight.remove(&group);
                    self.restore_strength(group, now);
                    if self.upgrades.contains_key(&group) {
                        // Evolution Manager: this replacement is running
                        // the new implementation; replace the next one.
                        self.upgrade_step(group);
                    }
                    if let Some(t0) = self.pending_launch.remove(&(group, node)) {
                        // The group-blocking window runs from the instant
                        // the new replica started holding traffic (see
                        // `EpisodeObs::enqueue_at`) to reinstatement; an
                        // episode that never reached the enqueue point
                        // conservatively counts from launch.
                        let enqueue_at = self
                            .episodes
                            .values()
                            .filter(|ep| ep.group == group && ep.new_host == node)
                            .filter_map(|ep| ep.enqueue_at)
                            .max()
                            .unwrap_or(t0);
                        let blocking_window = now - enqueue_at.min(now);
                        self.metrics.recoveries.push(RecoveryRecord {
                            launched_at: t0,
                            operational_at: now,
                            app_state_bytes,
                            blocking_window,
                        });
                        self.metrics.recoveries_completed += 1;
                        self.registry
                            .histogram_record("eternal.recovery_time", now - t0);
                        self.registry
                            .histogram_record("eternal.blocking_window", blocking_window);
                        self.finish_episode(node, group, t0, now, app_state_bytes);
                    }
                    self.trace.record(
                        now,
                        format!("{node}/recovery"),
                        EventKind::RecoveryComplete,
                        format!("{group} {app_state_bytes}B"),
                    );
                }
                Out::Promoted {
                    group,
                    replayed,
                    ready_after,
                } => {
                    self.metrics.promotions += 1;
                    self.trace.record(
                        now + ready_after,
                        format!("{node}/recovery"),
                        EventKind::PromotionComplete,
                        format!("{group} replayed={replayed}"),
                    );
                }
            }
        }
    }

    /// Folds a reassembled IIOP delivery into `node`'s chained digests
    /// (the whole-node digest and the per-stream one). Non-IIOP
    /// protocol messages are excluded: they are identical by
    /// construction across batching modes, and the invariant of
    /// interest is the total order of *application* traffic.
    fn digest_delivery(&mut self, node: NodeId, message: &EternalMessage) {
        let EternalMessage::Iiop {
            conn,
            direction,
            op_seq,
            bytes,
        } = message
        else {
            return;
        };
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

    /// Watches delivered recovery-protocol messages to place the episode
    /// boundaries that only the cluster can see: the retrieval opens the
    /// episode, the last chunk's delivery at the recovering replica
    /// opens the blocking window, and the suffix's is the set_state
    /// instant.
    fn observe_recovery_message(&mut self, node: NodeId, message: &EternalMessage, now: SimTime) {
        match message {
            EternalMessage::StateRetrieval {
                group,
                transfer,
                purpose: RetrievalPurpose::Recovery { new_host },
            } if node == *new_host && self.pending_launch.contains_key(&(*group, *new_host)) => {
                self.episodes.entry(*transfer).or_insert(EpisodeObs {
                    group: *group,
                    new_host: *new_host,
                    capture_begin: None,
                    send_at: None,
                    enqueue_at: None,
                    assignment_at: None,
                });
            }
            EternalMessage::StateChunk {
                transfer,
                new_host,
                index,
                total,
                ..
            } if node == *new_host => {
                // The recovering replica drops (rather than holds) its
                // traffic while chunks stream; the blocking window only
                // opens at the last chunk's delivery.
                if let Some(ep) = self
                    .episodes
                    .get_mut(transfer)
                    .filter(|_| index + 1 == *total)
                {
                    ep.enqueue_at = Some(now);
                }
            }
            EternalMessage::StateSuffix {
                transfer, new_host, ..
            } if node == *new_host => {
                if let Some(ep) = self.episodes.get_mut(transfer) {
                    ep.assignment_at.get_or_insert(now);
                }
            }
            _ => {}
        }
    }

    /// Closes the episode observation for `group` on `node` and turns it
    /// into a phase-resolved [`RecoveryTimeline`]: five contiguous phases
    /// tiling [launched_at, operational_at] exactly (§5.1's quiesce →
    /// get_state → transfer → set_state → replay). When tracing, the
    /// timeline is also emitted retrospectively as nested spans.
    fn finish_episode(
        &mut self,
        node: NodeId,
        group: GroupId,
        launched_at: SimTime,
        operational_at: SimTime,
        app_state_bytes: usize,
    ) {
        // Drain every open episode for this (group, node): a retry after
        // an aborted transfer can leave an earlier transfer-id behind,
        // and leaving it open would read as recovery-in-flight forever.
        // The completed attempt is the one whose assignment reached the
        // new host (latest such entry wins).
        let keys: Vec<TransferId> = self
            .episodes
            .iter()
            .filter(|(_, ep)| ep.group == group && ep.new_host == node)
            .map(|(&k, _)| k)
            .collect();
        let best = keys
            .iter()
            .copied()
            .max_by_key(|k| (self.episodes[k].assignment_at.is_some(), *k));
        let ep = match best {
            Some(k) => {
                let ep = self.episodes.remove(&k).expect("just found");
                for stale in keys {
                    self.episodes.remove(&stale);
                }
                ep
            }
            None => return,
        };
        let clamp = |t: SimTime, lo: SimTime| t.max(lo).min(operational_at);
        let t0 = launched_at;
        let cb = clamp(ep.capture_begin.unwrap_or(t0), t0);
        let snd = clamp(ep.send_at.unwrap_or(cb), cb);
        let ta = clamp(ep.assignment_at.unwrap_or(operational_at), snd);
        let bounds = [t0, cb, snd, ta, ta, operational_at];
        let phases: Vec<PhaseSpan> = RecoveryPhase::ALL
            .iter()
            .enumerate()
            .map(|(i, &phase)| PhaseSpan {
                phase,
                begin: bounds[i],
                end: bounds[i + 1],
            })
            .collect();
        let timeline = RecoveryTimeline {
            label: format!("{group}@{node}"),
            launched_at,
            operational_at,
            app_state_bytes,
            phases,
        };
        if self.trace.is_enabled() {
            let source = format!("{node}/recovery");
            let episode = self.trace.span_begin(
                launched_at,
                source.clone(),
                EventKind::RecoveryEpisode,
                format!("{group} {app_state_bytes}B"),
                None,
            );
            for p in &timeline.phases {
                let s = self.trace.span_begin(
                    p.begin,
                    source.clone(),
                    EventKind::Phase(p.phase),
                    String::new(),
                    Some(episode),
                );
                self.trace.span_end(p.end, s);
            }
            self.trace.span_end(operational_at, episode);
        }
        self.timelines.push(timeline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{BlobServant, CounterServant, StreamingClient};

    fn small_cluster(seed: u64) -> Cluster {
        Cluster::new(ClusterConfig::default(), seed)
    }

    #[test]
    fn deploys_and_streams_invocations() {
        let mut c = small_cluster(1);
        let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
            Box::new(CounterServant::default())
        });
        c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
            Box::new(StreamingClient::new(server, "increment", 4))
        });
        c.run_until_deployed();
        c.run_for(Duration::from_millis(100));
        let m = c.metrics();
        assert!(m.replies_delivered > 10, "replies: {}", m.replies_delivered);
        assert!(
            m.duplicates_suppressed > 0,
            "active server duplicates replies"
        );
        assert!(m.mean_round_trip().is_some());
    }

    #[test]
    fn active_recovery_round_trip() {
        let mut c = small_cluster(2);
        let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
            Box::new(BlobServant::with_size(1000))
        });
        c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
            Box::new(StreamingClient::new(server, "touch", 2))
        });
        c.run_until_deployed();
        c.run_for(Duration::from_millis(50));
        let victim = c.hosting(server)[0];
        c.kill_replica(server, victim);
        c.run_for(Duration::from_millis(200));
        let m = c.metrics();
        assert_eq!(m.recoveries_completed, 1, "auto-recovery ran");
        let rec = &m.recoveries[0];
        assert!(rec.app_state_bytes > 1000, "blob state transferred");
        assert!(rec.recovery_time() > Duration::ZERO);
        // Traffic continued through and after recovery.
        let replies_at_recovery = m.replies_delivered;
        c.run_for(Duration::from_millis(100));
        assert!(
            c.metrics().replies_delivered > replies_at_recovery,
            "stream still flowing"
        );
    }

    #[test]
    fn warm_passive_checkpoint_and_promotion() {
        let mut c = small_cluster(3);
        let server = c.deploy_server(
            "counter",
            FaultToleranceProperties::warm_passive(2)
                .with_checkpoint_interval(Duration::from_millis(20))
                .with_min_replicas(1),
            || Box::new(CounterServant::default()),
        );
        c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
            Box::new(StreamingClient::new(server, "increment", 2))
        });
        c.run_until_deployed();
        c.run_for(Duration::from_millis(100));
        let m = c.metrics();
        assert!(m.checkpoints_logged > 0, "periodic checkpoints taken");
        assert!(m.messages_logged > 0, "messages logged after checkpoints");
        // Kill the primary; a backup must take over.
        let primary = c
            .mechanisms(c.processors()[0])
            .primary_host(server)
            .expect("primary known");
        c.kill_replica(server, primary);
        c.run_for(Duration::from_millis(200));
        let m = c.metrics();
        assert_eq!(m.promotions, 1, "backup promoted");
        let replies_before = m.replies_delivered;
        c.run_for(Duration::from_millis(100));
        assert!(
            c.metrics().replies_delivered > replies_before,
            "service continues under the new primary"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = small_cluster(seed);
            let server = c.deploy_server("s", FaultToleranceProperties::active(2), || {
                Box::new(CounterServant::default())
            });
            c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
                Box::new(StreamingClient::new(server, "increment", 2))
            });
            c.run_until_deployed();
            c.run_for(Duration::from_millis(50));
            let m = c.metrics();
            (m.replies_delivered, m.requests_dispatched)
        };
        assert_eq!(run(7), run(7));
    }

    /// Both digests of one node after it delivers `history` — pairs of
    /// (op_seq, body) on one request stream — in order.
    fn digests_after(history: &[(u32, &[u8])]) -> (u64, u64) {
        let mut c = small_cluster(1);
        let node = NodeId(0);
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(0),
        };
        for &(op_seq, body) in history {
            let message = EternalMessage::Iiop {
                conn,
                direction: Direction::Request,
                op_seq,
                bytes: body.to_vec(),
            };
            c.digest_delivery(node, &message);
        }
        let streams = c.stream_digests(node);
        assert_eq!(streams.len(), usize::from(!history.is_empty()));
        let stream = streams.first().map_or(FNV_OFFSET, |&(_, h)| h);
        (c.delivery_digest(node), stream)
    }

    fn assert_both_differ(a: (u64, u64), b: (u64, u64), why: &str) {
        assert_ne!(a.0, b.0, "per-node digest: {why}");
        assert_ne!(a.1, b.1, "per-stream digest: {why}");
    }

    #[test]
    fn digests_see_every_body_byte() {
        let body: Vec<u8> = (0..100u8).collect();
        let base = digests_after(&[(1, &body)]);
        assert_eq!(base, digests_after(&[(1, &body)]), "a pure function");
        assert_both_differ(base, digests_after(&[]), "something was delivered");
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 1;
            let why = format!("byte {i} flipped");
            assert_both_differ(base, digests_after(&[(1, &flipped)]), &why);
        }
    }

    #[test]
    fn digests_see_delivery_order() {
        let (a, b): (&[u8], &[u8]) = (b"first body", b"second body");
        assert_both_differ(
            digests_after(&[(1, a), (2, b)]),
            digests_after(&[(2, b), (1, a)]),
            "two deliveries swapped",
        );
        // Even when the two messages are byte-identical but for their
        // operation ids.
        assert_both_differ(
            digests_after(&[(1, a), (2, a)]),
            digests_after(&[(2, a), (1, a)]),
            "two equal bodies swapped",
        );
    }

    #[test]
    fn digests_see_message_boundaries() {
        // The same bytes in the same order under the same operation
        // ids, cut differently: only the folded lengths tell them apart
        // from a stream's point of view.
        assert_both_differ(
            digests_after(&[(1, b"ab"), (2, b"c")]),
            digests_after(&[(1, b"a"), (2, b"bc")]),
            "a byte moved across a message boundary",
        );
        assert_both_differ(
            digests_after(&[(1, b"abc"), (2, b"")]),
            digests_after(&[(1, b""), (2, b"abc")]),
            "a whole body moved across a message boundary",
        );
    }

    #[test]
    fn digests_keep_streams_apart() {
        let mut c = small_cluster(1);
        let node = NodeId(0);
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(0),
        };
        for direction in [Direction::Request, Direction::Reply] {
            let message = EternalMessage::Iiop {
                conn,
                direction,
                op_seq: 1,
                bytes: b"same".to_vec(),
            };
            c.digest_delivery(node, &message);
        }
        // Non-IIOP traffic is not part of the application order.
        let before = c.delivery_digest(node);
        c.digest_delivery(node, &EternalMessage::LoadTick { group: GroupId(1) });
        assert_eq!(c.delivery_digest(node), before);
        let streams = c.stream_digests(node);
        assert_eq!(streams.len(), 2, "one chain per direction");
        assert_ne!(streams[0].1, streams[1].1);
        assert!(
            c.stream_digests(NodeId(1)).is_empty(),
            "digests are per node"
        );
        assert_eq!(c.delivery_digest(NodeId(1)), FNV_OFFSET);
    }
}
