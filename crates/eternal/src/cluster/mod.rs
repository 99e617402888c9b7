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
use crate::causal::{self, Frag, HopCtx};
use crate::gid::{ConnectionName, Direction, GroupId};
use crate::manager::{ReplicationManager, ResourceManager};
use crate::mechanisms::{GroupKind, GroupMeta, MechConfig, Mechanisms, Out};
use crate::message::{EternalMessage, EternalReassembler, RetrievalPurpose, WireFragment};
use crate::metrics::{Metrics, Promotion};
use crate::properties::{FaultToleranceProperties, ReplicationStyle};
use eternal_obs::causal::{CausalRecorder, Hop, OrderPos};
use eternal_obs::health::{AuditorConfig, HealthAuditor, HealthSnapshot};
use eternal_obs::MetricsRegistry;
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::choice::SharedChoiceSource;
use eternal_sim::net::{NetworkConfig, NodeId};
use eternal_sim::{Duration, SimTime};
use eternal_totem::node::{Action as TotemAction, Delivery as TotemDelivery};
use eternal_totem::ring::{Fate, Popped, Ring};
use eternal_totem::types::{Frame, Payload, RegularMsg};
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
    /// Record end-to-end causal spans (marshal → pack → total-order
    /// delivery → dispatch/recovery hops) and each ORB's event log and
    /// counters. Every link is derived from what each layer already
    /// sees and nothing goes on the wire, so a traced run is the
    /// untraced run, frame for frame (see `docs/TRACING.md`). Off by
    /// default: recording costs host time.
    pub trace: bool,
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
            trace: false,
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
    /// With causal tracing on, the trace of each fragment this
    /// processor packed and has not yet multicast, by (msg_id, index):
    /// its first transmission stamps the Send hop and takes it out, so
    /// retransmissions and recovery re-sends stamp nothing.
    unsent: BTreeMap<(u64, u32), u64>,
    /// Last time the rotating token arrived here, for the
    /// token-rotation-time histogram.
    last_token_at: Option<SimTime>,
    /// Latest backpressure gauges, refreshed at each token-visit
    /// boundary (see [`BackpressureSample`]).
    backpressure: BackpressureSample,
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
            unsent: BTreeMap::new(),
            last_token_at: None,
            backpressure: BackpressureSample::default(),
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
    /// When the first copy of each call awaiting a reply was sent,
    /// until the reply is delivered.
    issue_times: BTreeMap<(ConnectionName, u32), SimTime>,
    /// Every replica launch in flight, by (group, new host), from the
    /// decision to reinstatement or abort (see `faults`).
    launches: BTreeMap<(GroupId, NodeId), Launch>,
    /// Evolution Manager state: per upgrading group, the replicas still
    /// running the old implementation.
    upgrades: BTreeMap<GroupId, Vec<NodeId>>,
    metrics: Metrics,
    /// End-to-end causal span recorder (cluster-global, so the
    /// total-order check can compare deliveries of the same fragment on
    /// different nodes).
    causal: CausalRecorder,
    registry: MetricsRegistry,
    /// The Totem action buffer every pop, start and broadcast is lent
    /// and `apply_totem_actions` drains; a call nested inside that
    /// drain finds it lent out and works on a vector of its own.
    actions: Vec<TotemAction>,
    /// Likewise the out-list every ordered delivery is lent.
    outs: Vec<Out>,
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
            causal: if config.trace {
                CausalRecorder::new(config.causal_capacity)
            } else {
                CausalRecorder::disabled()
            },
            registry: MetricsRegistry::new(),
            actions: Vec::new(),
            outs: Vec::new(),
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
            cluster.ring.start(node, &mut cluster.actions);
            cluster.apply_totem_actions(node);
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
            self.do_multicast(src, EternalMessage::LoadTick { group }, now);
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
                    let mut ctx = HopCtx::new(&mut self.causal, node.0 as u64, 0, 0, 0);
                    let outs = self.procs[node.0 as usize]
                        .mech
                        .start_clients(now, &mut ctx);
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
        self.step_until(SimTime::FAR_FUTURE)
    }

    /// Executes the next event at or before `until`; `false` if none.
    fn step_until(&mut self, until: SimTime) -> bool {
        let Some(popped) = self.ring.pop(until, &mut self.actions) else {
            return false;
        };
        let now = self.now();
        match popped {
            Popped::Actions { node, token_visit } => {
                if token_visit {
                    if let Some(prev) = self.procs[node.0 as usize].last_token_at.replace(now) {
                        self.registry
                            .histogram_record("totem.token_rotation", now - prev);
                    }
                }
                self.apply_totem_actions(node);
                if token_visit {
                    // Backpressure gauges are sampled as the token
                    // *leaves* the node: this visit's sends have
                    // drained what flow control allowed, so what
                    // remains pending is genuine backlog.
                    self.sample_backpressure(node);
                }
            }
            Popped::Ext(event) => self.handle_event(now, event),
        }
        true
    }

    /// Runs until `deadline` (events beyond it stay queued).
    pub fn run_until_time(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until_time(deadline);
    }

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::EternalMulticast { src, message } => self.do_multicast(src, message, now),
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

    fn do_multicast(&mut self, src: NodeId, message: EternalMessage, now: SimTime) {
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
            // Round-trip timing starts at the first copy's send of a
            // call whose client awaits a reply: a oneway's never ends.
            if self.procs[src.0 as usize].mech.awaits_reply(*conn, *op_seq) {
                self.issue_times.entry((*conn, *op_seq)).or_insert(now);
            }
        }
        // Send-side causal bookkeeping: one Pack hop per Totem fragment,
        // under the hop that emitted the message (derived from the
        // message, never carried to here).
        let trace_id = match self.causal.is_enabled() {
            true => causal::trace_id_of(&message),
            false => 0,
        };
        let emitted_by = causal::emitted_by(&message, trace_id, src);
        let max_payload = self.net().config().frame_payload().saturating_sub(32);
        let proc = &mut self.procs[src.0 as usize];
        proc.next_emsg_id += 1;
        let msg_id = proc.next_emsg_id;
        // A message that fits one frame is written into it directly;
        // a larger one is cut up, its body copied straight into the
        // frames.
        for (i, frag) in message.fragments(src, msg_id, max_payload).enumerate() {
            if trace_id != 0 {
                let index = i as u32;
                let pack = Frag {
                    origin: src,
                    msg_id,
                    index,
                };
                HopCtx::new(&mut self.causal, src.0 as u64, trace_id, emitted_by, 0).record(
                    now,
                    Hop::Pack,
                    pack,
                    None,
                    format_args!("frag {i}"),
                );
                let unsent = &mut self.procs[src.0 as usize].unsent;
                unsent.insert((msg_id, index), trace_id);
            }
            self.ring.broadcast(src, frag, &mut self.actions);
            self.apply_totem_actions(src);
        }
    }

    /// Stamps a Send hop for each message of `node`'s own frame `m` at
    /// its *first* transmission. Retransmissions and recovery
    /// re-broadcasts (a `Recovered` wrapper re-sends a frame some member
    /// held, hence one already sent) re-serve the stored frame and are
    /// deliberately not re-stamped, so Pack→Send measures pure token
    /// wait and Send→Deliver absorbs wire time plus any retransmission
    /// delay.
    fn stamp_first_sends(&mut self, node: NodeId, m: &RegularMsg, now: SimTime) {
        let unsent = &mut self.procs[node.0 as usize].unsent;
        let items = match &m.payload {
            _ if m.sender != node || unsent.is_empty() => return,
            Payload::App(data) => std::slice::from_ref(data),
            Payload::Batch(items) => items,
            Payload::Recovered { .. } => return,
        };
        for item in items {
            let Ok(fragment) = WireFragment::from_bytes(item) else {
                continue;
            };
            let frag = Frag::of(&fragment);
            if let Some(trace_id) = unsent.remove(&(frag.msg_id, frag.index)) {
                let pack = causal::pack_span(trace_id, frag);
                HopCtx::new(&mut self.causal, node.0 as u64, trace_id, pack, 0).record(
                    now,
                    Hop::Send,
                    frag,
                    None,
                    format_args!("seq {}", m.seq),
                );
            }
        }
    }

    /// Executes, in order, what the last call into the ring appended to
    /// the lent action buffer, and lends the emptied buffer again.
    fn apply_totem_actions(&mut self, node: NodeId) {
        let now = self.now();
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                TotemAction::Multicast(frame) => {
                    if let Frame::Regular(m) = &frame {
                        if let Payload::Batch(items) = m.payload.inner() {
                            self.registry.histogram_record_value(
                                "totem.batch.occupancy",
                                items.len() as u64,
                            );
                        }
                        if self.causal.is_enabled() {
                            self.stamp_first_sends(node, m, now);
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
        self.actions = actions;
    }

    fn on_totem_delivery(&mut self, node: NodeId, delivery: TotemDelivery) {
        let now = self.now();
        match delivery {
            TotemDelivery::Message {
                ring, seq, data, ..
            } => {
                let order = OrderPos {
                    ring_rep: ring.rep.0 as u64,
                    ring_seq: ring.seq,
                    seq,
                };
                let reasm = &mut self.procs[node.0 as usize].reasm;
                let pushed = reasm.push_view(&data);
                // Receive-side causal bookkeeping: a Deliver span under
                // the fragment's Pack span, carrying the total-order
                // position (the cross-replica agreement check keys on
                // it), then a Reassemble span once a full Eternal
                // message pops out. The trace is the whole message's,
                // or the head its first fragment held.
                let mut chain = (0, 0);
                if self.causal.is_enabled() {
                    if let Ok(fragment) = WireFragment::from_bytes(&data) {
                        let frag = Frag::of(&fragment);
                        let trace_id = match &pushed {
                            Ok(Some(delivered)) => causal::trace_id_of(&delivered.head),
                            Ok(None) => reasm
                                .partial_head(frag.origin, frag.msg_id)
                                .map_or(0, causal::trace_id_of),
                            Err(_) => 0,
                        };
                        let (pack, clock) = (causal::pack_span(trace_id, frag), order.clock());
                        let mut ctx =
                            HopCtx::new(&mut self.causal, node.0 as u64, trace_id, pack, clock);
                        let detail = format_args!("{ring} seq {seq}");
                        chain = (
                            trace_id,
                            ctx.record(now, Hop::Deliver, frag, Some(order), detail),
                        );
                        if let Ok(Some(delivered)) = &pushed {
                            let (whole, kind) = (Frag { index: 0, ..frag }, delivered.head.kind());
                            let detail = format_args!("{kind}");
                            chain.1 = ctx.record(now, Hop::Reassemble, whole, None, detail);
                        }
                    }
                }
                match pushed {
                    Ok(Some(delivered)) => {
                        let message = &delivered.head;
                        self.observe_recovery_message(node, message, now);
                        self.resource_manager_hook(node, message);
                        if let EternalMessage::Health { snap } = message {
                            self.on_health_delivered(node, snap, now);
                        }
                        let (trace_id, parent) = chain;
                        let clock = order.clock();
                        let mut ctx =
                            HopCtx::new(&mut self.causal, node.0 as u64, trace_id, parent, clock);
                        let mut outs = std::mem::take(&mut self.outs);
                        let (head, body) = (delivered.head, delivered.body);
                        let proc = &mut self.procs[node.0 as usize];
                        (proc.mech).on_delivered_into(head, &body, now, &mut ctx, &mut outs);
                        proc.reasm.recycle(body);
                        self.process_outs(node, outs.drain(..), now, Duration::ZERO);
                        self.outs = outs;
                    }
                    Ok(None) => {}
                    Err(_) => self.registry.counter_add("eternal.reassembly_errors", 1),
                }
            }
            TotemDelivery::ConfigChange { members, .. } => {
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
                let mut ctx = HopCtx::new(&mut self.causal, node.0 as u64, 0, 0, 0);
                let mech = &mut self.procs[node.0 as usize].mech;
                let outs = mech.on_config_change(&members, now, &mut ctx);
                self.process_outs(node, outs, now, Duration::ZERO);
            }
        }
    }

    fn process_outs(
        &mut self,
        node: NodeId,
        outs: impl IntoIterator<Item = Out>,
        now: SimTime,
        extra: Duration,
    ) {
        for out in outs {
            match out {
                Out::Multicast { delay, message } => {
                    self.ring.schedule_at(
                        now + delay + extra,
                        Event::EternalMulticast { src: node, message },
                    );
                }
                Out::ReplyDelivered { conn, op_seq } => {
                    if let Some(t0) = self.issue_times.remove(&(conn, op_seq)) {
                        self.metrics.round_trips.push(now - t0);
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
                } => self.metrics.promoted.push(Promotion {
                    group,
                    ready_at: now + ready_after,
                    replayed,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppInvocation, BlobServant, CounterServant, StreamingClient};
    use eternal_cdr::{Any, Value};

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

    /// Each round issues a oneway and a two-way `increment`; a reply
    /// starts the next round until `rounds` are done.
    struct OnewayThenCall {
        server: GroupId,
        rounds: u64,
    }

    impl OnewayThenCall {
        fn round(&mut self) -> Vec<AppInvocation> {
            if self.rounds == 0 {
                return Vec::new();
            }
            self.rounds -= 1;
            let oneway = AppInvocation {
                response_expected: false,
                ..AppInvocation::two_way(self.server, "increment")
            };
            vec![oneway, AppInvocation::two_way(self.server, "increment")]
        }
    }

    impl ClientApp for OnewayThenCall {
        fn on_start(&mut self) -> Vec<AppInvocation> {
            self.round()
        }

        fn on_reply(
            &mut self,
            _server: GroupId,
            _operation: &str,
            _status: eternal_giop::ReplyStatus,
            _body: &[u8],
        ) -> Vec<AppInvocation> {
            self.round()
        }

        fn get_state(&self) -> Any {
            Any::from(Value::ULongLong(self.rounds))
        }

        fn set_state(&mut self, state: &Any) {
            if let Value::ULongLong(rounds) = state.value {
                self.rounds = rounds;
            }
        }
    }

    #[test]
    fn only_awaited_calls_keep_a_round_trip_clock() {
        let mut c = small_cluster(3);
        let server = c.deploy_server("s", FaultToleranceProperties::active(2), || {
            Box::new(CounterServant::default())
        });
        c.deploy_client("d", FaultToleranceProperties::active(1), move |_| {
            Box::new(OnewayThenCall { server, rounds: 20 })
        });
        c.run_until_deployed();
        c.run_for(Duration::from_millis(200));
        let m = c.metrics();
        assert_eq!(m.replies_delivered, 20);
        assert_eq!(m.requests_dispatched, 2 * 2 * 20, "both kinds ran");
        assert_eq!(m.round_trips.len(), 20);
        assert_eq!(c.outstanding_calls(), 0);
        assert!(c.issue_times.is_empty(), "{:?}", c.issue_times);
    }

    #[test]
    fn send_hops_stay_one_per_packed_message() {
        // A long traced stream under loss, through a processor crash and
        // restart: retransmissions and recovery re-broadcasts re-serve
        // frames, and none may be stamped a second time.
        let config = ClusterConfig {
            trace: true,
            causal_capacity: 1 << 21,
            net: NetworkConfig {
                loss_probability: 0.02,
                ..NetworkConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(config, 5);
        let server = c.deploy_server("counter", FaultToleranceProperties::active(2), || {
            Box::new(CounterServant::default())
        });
        c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
            Box::new(StreamingClient::new(server, "increment", 4))
        });
        c.run_until_deployed();
        c.run_for(Duration::from_millis(200));
        let victim = c.hosting(server)[0];
        c.crash_processor(victim);
        c.run_for(Duration::from_millis(200));
        c.restart_processor(victim);
        c.run_for(Duration::from_millis(400));
        // What a sender still tracks as unsent is still queued.
        for node in c.live_processors() {
            let unsent = c.procs[node.0 as usize].unsent.len();
            assert!(unsent <= c.ring.node(node).backlog(), "{node}: {unsent}");
        }
        assert!(c.causal().len() < 1 << 21, "nothing evicted");
        let registry = c.metrics_registry();
        assert!(registry.counter("totem.retransmits_served") > 0);
        let mut sends: BTreeMap<u64, usize> = BTreeMap::new();
        let mut delivered = BTreeSet::new();
        for e in c.causal().events() {
            match e.hop {
                Hop::Send => *sends.entry(e.parent).or_default() += 1,
                Hop::Deliver => {
                    delivered.insert(e.parent);
                }
                _ => {}
            }
        }
        assert!(sends.len() > 1_000, "{} packed messages sent", sends.len());
        assert!(sends.values().all(|&n| n == 1), "a re-send was stamped");
        assert!(
            delivered.iter().all(|pack| sends.contains_key(pack)),
            "a delivered message was never stamped as sent"
        );
    }
}
