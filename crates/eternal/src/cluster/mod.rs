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
//!
//! This file is the driver core (configuration, deployment, `step`, the
//! send path, Totem's actions and deliveries, `process_outs`); `faults`,
//! `health` and `probes` hold the rest of `impl Cluster`.

mod faults;
mod health;
mod probes;

use crate::app::ClientApp;
use crate::causal::{self, HopCtx};
use crate::gid::{ConnectionName, Direction, GroupId};
use crate::hash::FNV_OFFSET;
use crate::manager::{ReplicationManager, ResourceManager};
use crate::mechanisms::{GroupKind, GroupMeta, MechConfig, Mechanisms, Out};
use crate::message::{fragment_eternal, EternalMessage, EternalReassembler, RetrievalPurpose};
use crate::metrics::Metrics;
use crate::properties::{FaultToleranceProperties, ReplicationStyle};
use eternal_obs::causal::{CausalRecorder, Hop, OrderPos, TraceTag};
use eternal_obs::health::{AuditorConfig, HealthAuditor, HealthSnapshot};
use eternal_obs::{EventKind, MetricsRegistry, RecoveryTimeline};
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::choice::SharedChoiceSource;
use eternal_sim::net::{NetworkConfig, NodeId};
use eternal_sim::trace::Trace;
use eternal_sim::Bytes;
use eternal_sim::{Duration, SimTime};
use eternal_totem::node::{Action as TotemAction, Delivery as TotemDelivery};
use eternal_totem::ring::{Fate, Popped, Ring};
use eternal_totem::types::{Frame, Payload};
use eternal_totem::TotemConfig;
use faults::Launch;
use health::BackpressureSample;
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
    /// The detector thresholds of the online health auditor that
    /// scenarios tune (its silence detection follows `health_period`).
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

/// How a group's object is made on each processor, and again after
/// every restart.
type MakeKind = Arc<dyn Fn() -> GroupKind + Send + Sync>;

/// The [`MakeKind`] of a server group instantiated from `factory`.
fn server_kind<F>(factory: F) -> MakeKind
where
    F: Fn() -> Box<dyn CheckpointableServant> + Send + Sync + 'static,
{
    let factory = Arc::new(factory);
    Arc::new(move || {
        let f = Arc::clone(&factory);
        GroupKind::Server(Box::new(move || f()))
    })
}

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

// What each of the scheduler's slab slots holds.
const _: () = assert!(Ring::<Event>::EVENT_BYTES <= 104);

struct GroupInfo {
    name: String,
    props: FaultToleranceProperties,
    hosts: Vec<NodeId>,
    make_kind: MakeKind,
    /// Cluster-side view of which processors currently hold an instance.
    hosting: BTreeSet<NodeId>,
    /// Whether this is a client (driver) group — load ticks target these.
    is_client: bool,
}

impl GroupInfo {
    /// The group's deployment-wide description, as every processor's
    /// mechanisms register it.
    fn meta(&self, id: GroupId) -> GroupMeta {
        GroupMeta {
            id,
            name: self.name.clone(),
            props: self.props.clone(),
            hosts: self.hosts.clone(),
            kind: (self.make_kind)(),
        }
    }
}

impl std::fmt::Debug for GroupInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupInfo")
            .field("name", &self.name)
            .field("hosts", &self.hosts)
            .finish()
    }
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
    /// The mechanisms of a (re)started processor. A traced cluster also
    /// traces its ORBs.
    fn new_mechanisms(node: NodeId, config: &ClusterConfig) -> Mechanisms {
        let mut mech = Mechanisms::new(node, config.mech.clone());
        if config.trace {
            mech.enable_orb_obs();
        }
        mech
    }

    fn new(node: NodeId, config: &ClusterConfig) -> Self {
        Processor {
            mech: Self::new_mechanisms(node, config),
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
    /// Every replica launch in flight, by (group, new host), from the
    /// decision to reinstatement or abort (see `faults`).
    launches: BTreeMap<(GroupId, NodeId), Launch>,
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
            launches: BTreeMap::new(),
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
            stream_digests: BTreeMap::new(),
            timelines: Vec::new(),
            clients_started: false,
            health_auditor: HealthAuditor::new(
                config.health_auditor.clone(),
                config.health_period.as_nanos(),
            ),
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
        self.deploy_group(name, props, server_kind(factory), false)
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
        make_kind: MakeKind,
        is_client: bool,
    ) -> GroupId {
        props.validate();
        let id = GroupId(self.next_group);
        self.next_group += 1;
        let hosts = self.repl_mgr.plan_hosts(props.initial_replicas);
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
        let info = GroupInfo {
            name: name.to_owned(),
            props,
            hosts,
            make_kind,
            hosting,
            is_client,
        };
        // Register on every processor; instantiate on hosting ones.
        for (node, Processor { mech, .. }) in self.ring.nodes().iter().zip(&mut self.procs) {
            mech.register_group(info.meta(id));
            if info.hosting.contains(node) {
                mech.deploy_local_replica(id);
            }
        }
        self.groups.insert(id, info);
        id
    }

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
            Event::LaunchReplica { node, group } => self.start_launch(group, node, now),
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
        let max_payload = self.net().config().frame_payload().saturating_sub(32);
        let msg_id = {
            let id = &mut self.procs[src.0 as usize].next_emsg_id;
            *id += 1;
            *id
        };
        // A message that fits one frame is written into it directly;
        // a larger one is encoded and cut up.
        let whole = message.single_fragment(src, msg_id, max_payload);
        let encoded = whole.is_none().then(|| message.to_bytes());
        let cut = encoded.as_deref().map_or_else(Vec::new, |encoded| {
            fragment_eternal(src, msg_id, encoded, max_payload)
        });
        for (i, frag) in whole.map(Bytes::from).into_iter().chain(cut).enumerate() {
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
        if let Some(encoded) = encoded {
            eternal_cdr::pool::recycle(encoded);
        }
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
                match self.procs[node.0 as usize].reasm.push_view(&data) {
                    Ok(Some(delivered)) => {
                        self.digest_delivery(node, &delivered);
                        let message = &delivered.head;
                        self.observe_recovery_message(node, message, now);
                        self.resource_manager_hook(node, message);
                        if let EternalMessage::Health { snap } = message {
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
                            .on_delivered_view(delivered, now, &mut ctx);
                        self.process_outs(node, outs, now, Duration::ZERO);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.record_event(
                            format!("{node}/reasm"),
                            EventKind::ReassemblyError,
                            e.to_string(),
                        );
                    }
                }
            }
            TotemDelivery::ConfigChange { members, .. } => {
                self.record_event(
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
                    self.resource_manager_config_change(&members);
                }
                let proc = &mut self.procs[node.0 as usize];
                let mut ctx = HopCtx::new(&mut self.causal, node.0 as u64, 0, 0, proc.lamport);
                let outs = proc.mech.on_config_change(&members, now, &mut ctx);
                self.process_outs(node, outs, now, Duration::ZERO);
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
                    let quiesced = now + quiesce_wait;
                    self.observe_capture((group, new_host), transfer, quiesced, capture_time);
                }
                Out::StateCaptured { .. } => {} // checkpoint captures: no episode
                Out::RecoveryComplete {
                    group,
                    app_state_bytes,
                } => self.complete_launch(node, group, app_state_bytes, now),
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
            c.digest_delivery(node, &message.into());
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
            c.digest_delivery(node, &message.into());
        }
        // Non-IIOP traffic is not part of the application order.
        let before = c.delivery_digest(node);
        c.digest_delivery(node, &EternalMessage::LoadTick { group: GroupId(1) }.into());
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
