//! The five workloads: what each round builds, drives, measures and
//! checks. Everything here goes through the public APIs of the seven
//! crates; the program under test sees only the generated operations.
//!
//! A **round** is one fresh `Cluster` (or ORB pair) driven from a
//! stated start to the event that completes its work. Only that drive
//! loop is timed; building, deploying, ring formation and the
//! correctness gate are not.

use crate::alloc::{self, AllocSnapshot};
use crate::gen::{self, KvOp};
use crate::stats;
use eternal::app::{
    AppInvocation, BlobServant, ClientApp, CounterServant, KvStoreServant, StreamingClient,
};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::mechanisms::ReplicaPhase;
use eternal::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use eternal::properties::FaultToleranceProperties;
use eternal_cdr::{Any, Value};
use eternal_giop::ReplyStatus;
use eternal_orb::servant::{CheckpointableServant, Servant};
use eternal_orb::{ObjectKey, Orb};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::{Duration, Scheduler, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Token rotation, batching, dedup and the scheduler: tiny payloads.
    ActiveSmall,
    /// Fragmentation, reassembly, payload copies, CDR strings.
    ActiveFrag,
    /// The paper's Figure 6 experiment at its largest state, 350 kB.
    Recovery350Kb,
    /// Warm-passive logging, checkpoints, promotion and replay.
    PassiveFailover,
    /// Single-node baseline: `cdr`, `giop`, `orb`, `sim` only.
    UnreplicatedRpc,
}

/// State size of `recovery_350kb`'s servant.
pub const RECOVERY_STATE_BYTES: usize = 350_000;
/// State size of `passive_failover`'s servant.
pub const PASSIVE_STATE_BYTES: usize = 10_000;
/// Invocations per round of `unreplicated_rpc`.
pub const RPC_CALLS: u64 = 20_000;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ActiveSmall,
        Workload::ActiveFrag,
        Workload::Recovery350Kb,
        Workload::PassiveFailover,
        Workload::UnreplicatedRpc,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ActiveSmall => "active_small",
            Workload::ActiveFrag => "active_frag",
            Workload::Recovery350Kb => "recovery_350kb",
            Workload::PassiveFailover => "passive_failover",
            Workload::UnreplicatedRpc => "unreplicated_rpc",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop window: two-way invocations the client keeps in
    /// flight.
    pub fn window(self) -> usize {
        match self {
            Workload::ActiveSmall => 16,
            Workload::ActiveFrag => 8,
            Workload::Recovery350Kb | Workload::PassiveFailover => 4,
            Workload::UnreplicatedRpc => 1,
        }
    }

    /// Invocations the client issues in one round.
    pub fn issued_per_round(self) -> u64 {
        // `StreamingClient::with_limit(n)` stops issuing at the n-th
        // reply, with `window - 1` invocations still in flight.
        let streaming = |limit: u64| limit + self.window() as u64 - 1;
        match self {
            Workload::ActiveSmall | Workload::PassiveFailover => streaming(5_000),
            Workload::Recovery350Kb => streaming(250),
            Workload::ActiveFrag => gen::KV_OPS as u64,
            Workload::UnreplicatedRpc => RPC_CALLS,
        }
    }

    /// Virtual time from deployment to the injected replica kill.
    fn kill_after(self) -> Option<Duration> {
        match self {
            Workload::Recovery350Kb => Some(Duration::from_millis(10)),
            Workload::PassiveFailover => Some(Duration::from_millis(100)),
            _ => None,
        }
    }
}

/// One run's generated input: identical for every round of the run.
#[derive(Debug, Clone)]
pub struct Input {
    /// The workload the input is for.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// Modelled servant execution time: 50 µs plus the seed's jitter.
    pub exec_time: Duration,
    /// `active_frag`'s operations (empty for the other workloads).
    pub kv_ops: Arc<Vec<KvOp>>,
    /// State of an unreplicated reference servant that executed the
    /// round's operations serially, for the two workloads whose final
    /// state the harness checks itself (`active_frag`,
    /// `unreplicated_rpc`); the oracle replays the others' references.
    pub reference_state: Arc<Vec<u8>>,
    /// Fingerprint of everything the seed decided.
    pub hash: u64,
}

impl Input {
    /// Generates the input of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        let jitter = gen::exec_jitter_nanos(seed);
        let exec_time = Duration::from_nanos(50_000 + jitter);
        let kv_ops = if workload == Workload::ActiveFrag {
            gen::kv_ops(seed)
        } else {
            Vec::new()
        };
        let reference_state = match workload {
            Workload::ActiveFrag => {
                let mut reference = KvStoreServant::default();
                for op in &kv_ops {
                    let (operation, args) = kv_call(op);
                    reference
                        .dispatch(operation, &args)
                        .expect("reference store executes every generated op");
                }
                CheckpointableServant::get_state(&reference)
                    .expect("reference store has state")
                    .to_bytes()
                    .expect("reference store state encodes")
            }
            Workload::UnreplicatedRpc => ServantKind::Counter.reference_state(RPC_CALLS),
            _ => Vec::new(),
        };
        let hash = gen::kv_ops_hash(&kv_ops) ^ jitter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Input {
            workload,
            seed,
            exec_time,
            kv_ops: Arc::new(kv_ops),
            reference_state: Arc::new(reference_state),
            hash,
        }
    }
}

/// The IDL operation and CDR arguments of one key-value operation.
pub fn kv_call(op: &KvOp) -> (&'static str, Vec<u8>) {
    match op {
        KvOp::Put { key, value } => ("put", KvStoreServant::put_args(&gen::key_name(*key), value)),
        KvOp::Get { key } => ("get", KvStoreServant::key_args(&gen::key_name(*key))),
    }
}

/// `active_frag`'s client: replays the generated operations in order,
/// keeping `window` in flight. Deterministic, so replicas of it would
/// agree; its state has the `(sent, received)` shape the oracle's
/// driver check decodes.
struct KvClient {
    server: GroupId,
    ops: Arc<Vec<KvOp>>,
    window: usize,
    sent: u64,
    received: u64,
}

impl KvClient {
    fn next(&mut self) -> Option<AppInvocation> {
        let op = self.ops.get(self.sent as usize)?;
        self.sent += 1;
        let (operation, args) = kv_call(op);
        Some(AppInvocation {
            server: self.server,
            operation: operation.to_owned(),
            args,
            response_expected: true,
        })
    }
}

impl ClientApp for KvClient {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        (0..self.window).filter_map(|_| self.next()).collect()
    }

    fn on_reply(
        &mut self,
        _server: GroupId,
        _operation: &str,
        _status: ReplyStatus,
        _body: &[u8],
    ) -> Vec<AppInvocation> {
        self.received += 1;
        self.next().into_iter().collect()
    }

    fn get_state(&self) -> Any {
        Any::from(Value::Struct(vec![
            Value::ULongLong(self.sent),
            Value::ULongLong(self.received),
        ]))
    }

    fn set_state(&mut self, state: &Any) {
        if let Value::Struct(m) = &state.value {
            if let [Value::ULongLong(sent), Value::ULongLong(received)] = m.as_slice() {
                self.sent = *sent;
                self.received = *received;
            }
        }
    }
}

/// Called around every simulator event of a round. The untraced pass
/// uses [`NoHook`], which compiles to nothing.
pub trait StepHook {
    /// Just before the event is executed.
    fn before(&mut self) {}
    /// Just after: virtual time now, and replies the client has seen.
    fn after(&mut self, _now: SimTime, _replies: u64) {}
    /// The timed region starts (or the replica kill is injected) now:
    /// reply gaps count from here.
    fn arm(&mut self, _now: SimTime) {}
}

/// The hook of the untraced pass.
pub struct NoHook;
impl StepHook for NoHook {}

/// Simulated-time and wire results of one round: the behavioural
/// fingerprint. Deterministic per seed, so every round of a run — in
/// either pass — must produce the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Virtual {
    /// Replies delivered to the client in the timed region.
    pub replies: u64,
    /// Virtual ns from the start of the timed region to its last event.
    pub span_ns: u64,
    /// Wire bytes (payload + frame headers) sent in the timed region.
    pub wire_bytes: u64,
    /// Frames sent in the timed region.
    pub frames: u64,
    /// Median client-observed round trip, virtual ns.
    pub rtt_p50_ns: u64,
    /// 95th-percentile round trip, virtual ns.
    pub rtt_p95_ns: u64,
    /// Round trips the two percentiles are taken over.
    pub rtt_samples: u64,
    /// `RecoveryRecord::recovery_time()`, 0 without a state transfer.
    pub recovery_ns: u64,
    /// `RecoveryRecord::blocking_window`, 0 without a state transfer.
    pub blocking_ns: u64,
}

/// The counters behind the per-layer counts. The first twelve are
/// names of `Cluster::metrics_registry()`; the last three come from
/// `Metrics` and the CDR buffer pool.
const COUNTERS: [&str; 15] = [
    "totem.broadcasts",
    "totem.delivered",
    "totem.batches",
    "totem.batched_messages",
    "totem.frames_saved",
    "totem.retransmits_served",
    "totem.token_retransmits",
    "totem.reformations",
    "eternal.duplicates_suppressed",
    "eternal.messages_logged",
    "eternal.checkpoints_logged",
    "eternal.chunks_streamed",
    "eternal.promotions",
    "cdr.pool_takes",
    "cdr.pool_reused",
];
const REGISTRY_COUNTERS: usize = 12;

/// Per-layer counts over the timed region of one round, by the names
/// in [`COUNTERS`]; all 0 for the layers a workload does not run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; COUNTERS.len()]);

impl Counts {
    /// The count called `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in the list: a typo in this package.
    pub fn get(&self, name: &str) -> u64 {
        let at = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"));
        self.0[at]
    }

    fn read(cluster: Option<&Cluster>) -> Counts {
        let mut c = Counts::default();
        if let Some(cluster) = cluster {
            let reg = cluster.metrics_registry();
            for (slot, name) in c.0.iter_mut().zip(COUNTERS).take(REGISTRY_COUNTERS) {
                *slot = reg.counter(name);
            }
            c.0[REGISTRY_COUNTERS] = cluster.metrics().promotions;
        }
        let pool = eternal_cdr::pool::stats();
        c.0[REGISTRY_COUNTERS + 1] = pool.takes;
        c.0[REGISTRY_COUNTERS + 2] = pool.reused;
        c
    }

    fn since(self, earlier: Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

/// How a round is run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOpts {
    /// `ClusterConfig::trace` (the `obs` layer's event trace); off for
    /// every end-to-end number.
    pub obs_trace: bool,
    /// Read [`Counts`] at both ends of the timed region (clones the
    /// metrics registry twice, outside the timed region).
    pub counts: bool,
}

/// Everything one round produced.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host ns of the timed region.
    pub timed_ns: u64,
    /// Host ns of the set-up before it: build, deploy, ring formation,
    /// and the fault-free lead-in of the fault workloads.
    pub setup_ns: u64,
    /// Allocator calls and bytes requested in the timed region.
    pub allocs: AllocSnapshot,
    /// Most bytes live at once during set-up and the timed region, over
    /// what was live when the round began.
    pub peak_heap_bytes: u64,
    /// Simulator events executed in the timed region.
    pub steps: u64,
    /// Invocations the client issued over the whole round.
    pub issued: u64,
    /// Replies the client received over the whole round.
    pub received: u64,
    /// The behavioural fingerprint.
    pub virt: Virtual,
    /// Per-layer counts, when asked for.
    pub counts: Option<Counts>,
    /// Correctness-gate failures; empty means the round passed.
    pub failures: Vec<String>,
}

/// Runs one round of the input's workload.
pub fn run_round<H: StepHook>(input: &Input, opts: RoundOpts, hook: &mut H) -> Round {
    match input.workload {
        Workload::UnreplicatedRpc => rpc_round(input, opts, hook),
        _ => cluster_round(input, opts, hook),
    }
}

// ====================================================================
// Cluster workloads
// ====================================================================

/// A safety net, not a tuning knob: the longest round executes about
/// 10^5 events, so a round still running after 10^8 is wedged.
const STEP_BUDGET: u64 = 100_000_000;

struct Deployed {
    cluster: Cluster,
    server: GroupId,
    client: GroupId,
    client_node: NodeId,
    oracle: Oracle,
}

/// Fault-tolerance properties of the workload's server group.
pub fn server_props(w: Workload) -> FaultToleranceProperties {
    match w {
        Workload::PassiveFailover => FaultToleranceProperties::warm_passive(2)
            .with_checkpoint_interval(Duration::from_millis(25))
            .with_min_replicas(1),
        _ => FaultToleranceProperties::active(2),
    }
}

/// A fresh servant of the workload's kind.
pub fn new_servant(w: Workload) -> Box<dyn CheckpointableServant> {
    match w {
        Workload::ActiveSmall | Workload::UnreplicatedRpc => Box::new(CounterServant::default()),
        Workload::ActiveFrag => Box::new(KvStoreServant::default()),
        Workload::Recovery350Kb => Box::new(BlobServant::with_size(RECOVERY_STATE_BYTES)),
        Workload::PassiveFailover => Box::new(BlobServant::with_size(PASSIVE_STATE_BYTES)),
    }
}

/// The reference-servant kind the oracle replays, where it has one.
fn oracle_kind(w: Workload) -> Option<ServantKind> {
    match w {
        Workload::ActiveSmall | Workload::UnreplicatedRpc => Some(ServantKind::Counter),
        Workload::ActiveFrag => None,
        Workload::Recovery350Kb => Some(ServantKind::Blob {
            size: RECOVERY_STATE_BYTES,
        }),
        Workload::PassiveFailover => Some(ServantKind::Blob {
            size: PASSIVE_STATE_BYTES,
        }),
    }
}

/// The workload's closed-loop client, aimed at `server`.
pub fn new_client(input: &Input, server: GroupId) -> Box<dyn ClientApp> {
    let w = input.workload;
    let window = w.window();
    match oracle_kind(w) {
        None => Box::new(KvClient {
            server,
            ops: Arc::clone(&input.kv_ops),
            window,
            sent: 0,
            received: 0,
        }),
        Some(kind) => {
            let limit = w.issued_per_round() + 1 - window as u64;
            Box::new(StreamingClient::new(server, kind.operation(), window).with_limit(limit))
        }
    }
}

fn deploy(input: &Input, opts: RoundOpts) -> Deployed {
    let w = input.workload;
    let mut config = ClusterConfig {
        trace: opts.obs_trace,
        ..ClusterConfig::default()
    };
    config.mech.exec_time = input.exec_time;
    let mut cluster = Cluster::new(config, input.seed);
    let server = cluster.deploy_server("server", server_props(w), move || new_servant(w));
    let client_input = input.clone();
    let client = cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        new_client(&client_input, server)
    });
    let mut oracle = Oracle::new(OracleConfig::default());
    if let Some(kind) = oracle_kind(w) {
        oracle.add_pair(OraclePair {
            server,
            driver: client,
            kind,
        });
    }
    let client_node = cluster.hosting(client)[0];
    Deployed {
        cluster,
        server,
        client,
        client_node,
        oracle,
    }
}

fn client_replies(cluster: &Cluster, client_node: NodeId) -> u64 {
    cluster.mechanisms(client_node).counters().replies_delivered
}

/// Whether the state transfer that follows `recovery_350kb`'s kill has
/// put two operational replicas back.
fn redundancy_restored(cluster: &Cluster, server: GroupId) -> bool {
    !cluster.recovery_in_flight()
        && cluster
            .processors()
            .into_iter()
            .filter(|&n| {
                cluster.mechanisms(n).replica_phase(server) == Some(ReplicaPhase::Operational)
            })
            .count()
            == 2
}

fn cluster_round<H: StepHook>(input: &Input, opts: RoundOpts, hook: &mut H) -> Round {
    let w = input.workload;
    let heap0 = alloc::restart_peak();
    let setup_started = Instant::now();
    let Deployed {
        mut cluster,
        server,
        client,
        client_node,
        oracle,
    } = deploy(input, opts);
    cluster.run_until_deployed();
    let deployed_at = cluster.now();
    let kill_at = w.kill_after().map(|d| deployed_at + d);
    // Figure 6 times recovery alone: its fault-free lead-in is set-up.
    if w == Workload::Recovery350Kb {
        cluster.run_until_time(kill_at.expect("recovery workload kills"));
    }
    let before = cluster.metrics();
    let counts_before = opts.counts.then(|| Counts::read(Some(&cluster)));
    let region_start = cluster.now();
    let (bytes0, frames0) = (cluster.net().bytes_sent(), cluster.net().frames_sent());
    let replies0 = client_replies(&cluster, client_node);
    let want_replies = w.issued_per_round();
    let mut failures = Vec::new();
    let setup_ns = setup_started.elapsed().as_nanos() as u64;

    // ---------------------------------------------------------- timed
    let allocs0 = AllocSnapshot::now();
    let timed_started = Instant::now();
    let mut steps = 0u64;
    // `recovery_350kb` is timed from the kill itself.
    let mut kill_pending = match w {
        Workload::Recovery350Kb => Some(region_start),
        _ => kill_at,
    };
    hook.arm(region_start);
    loop {
        if let Some(at) = kill_pending {
            if cluster.now() >= at {
                kill_pending = None;
                let victim = match w {
                    Workload::Recovery350Kb => cluster.hosting(server)[0],
                    _ => cluster
                        .mechanisms(client_node)
                        .primary_host(server)
                        .expect("passive group has a primary"),
                };
                cluster.kill_replica(server, victim);
                hook.arm(cluster.now());
            }
        }
        hook.before();
        let more = cluster.step();
        steps += 1;
        let replies = client_replies(&cluster, client_node);
        hook.after(cluster.now(), replies);
        if replies >= want_replies
            && kill_pending.is_none()
            && (w != Workload::Recovery350Kb || redundancy_restored(&cluster, server))
        {
            break;
        }
        if !more || steps >= STEP_BUDGET {
            failures.push(format!("round did not complete within {steps} events"));
            break;
        }
    }
    let timed_ns = timed_started.elapsed().as_nanos() as u64;
    let allocs = AllocSnapshot::now().since(allocs0);
    let peak_heap_bytes = alloc::peak_live_bytes().saturating_sub(heap0);
    // ------------------------------------------------------ not timed

    let region_end = cluster.now();
    let wire_bytes = cluster.net().bytes_sent() - bytes0;
    let frames = cluster.net().frames_sent() - frames0;
    let replies = client_replies(&cluster, client_node) - replies0;
    let counts = counts_before.map(|b| Counts::read(Some(&cluster)).since(b));

    // Let duplicates and in-flight checkpoints land, so the gate looks
    // at a quiescent system.
    for _ in 0..200 {
        let partial: usize = cluster
            .processors()
            .into_iter()
            .map(|n| cluster.reassembly_pending(n))
            .sum();
        if partial == 0 && cluster.outstanding_calls() == 0 {
            break;
        }
        cluster.run_for(Duration::from_millis(1));
    }

    let after = cluster.metrics();
    let rtts: Vec<u64> = after.round_trips[before.round_trips.len()..]
        .iter()
        .map(|d| d.as_nanos())
        .collect();
    let rtt_samples = rtts.len() as u64;
    let (rtt_p50_ns, rtt_p95_ns) = rtt_percentiles(rtts);
    let recovery = after.recoveries.first();
    let virt = Virtual {
        replies,
        span_ns: (region_end - region_start).as_nanos(),
        wire_bytes,
        frames,
        rtt_p50_ns,
        rtt_p95_ns,
        rtt_samples,
        recovery_ns: recovery.map_or(0, |r| r.recovery_time().as_nanos()),
        blocking_ns: recovery.map_or(0, |r| r.blocking_window.as_nanos()),
    };

    // ------------------------------------------------ correctness gate
    let (issued, received) =
        driver_counts(&mut cluster, client_node, client).unwrap_or_else(|| {
            failures.push("client state unreadable".to_owned());
            (0, 0)
        });
    if issued != want_replies {
        failures.push(format!(
            "client issued {issued} invocations, expected {want_replies}"
        ));
    }
    if received != issued {
        failures.push(format!(
            "{issued} invocations issued but {received} replies received"
        ));
    }
    for v in oracle.check(&mut cluster) {
        failures.push(format!("oracle: {v}"));
    }
    if w == Workload::ActiveFrag {
        let live = cluster.hosting(server);
        match cluster.probe_application_state(live[0], server) {
            Some(state) if state == *input.reference_state => {}
            Some(state) => failures.push(format!(
                "store state ({} B) differs from the serial reference replay ({} B)",
                state.len(),
                input.reference_state.len()
            )),
            None => failures.push("store state unreadable".to_owned()),
        }
    }
    let (want_recoveries, want_promotions) = match w {
        Workload::Recovery350Kb => (1, 0),
        Workload::PassiveFailover => (0, 1),
        _ => (0, 0),
    };
    if after.recoveries_completed != want_recoveries || after.promotions != want_promotions {
        failures.push(format!(
            "{} recoveries and {} promotions completed, expected {want_recoveries} and {want_promotions}",
            after.recoveries_completed, after.promotions
        ));
    }

    Round {
        timed_ns,
        setup_ns,
        allocs,
        peak_heap_bytes,
        steps,
        issued,
        received,
        virt,
        counts,
        failures,
    }
}

/// Median and 95th percentile of the round trips, by nearest rank
/// (`(0, 0)` of none, which the gate reports as missing replies).
fn rtt_percentiles(rtts: Vec<u64>) -> (u64, u64) {
    if rtts.is_empty() {
        return (0, 0);
    }
    let sorted = stats::sorted(rtts.into_iter().map(|ns| ns as f64).collect());
    (
        stats::p50(&sorted) as u64,
        stats::percentile(&sorted, 0.95) as u64,
    )
}

/// `(sent, received)` of the client application, decoded from its
/// checkpointable state.
fn driver_counts(cluster: &mut Cluster, node: NodeId, client: GroupId) -> Option<(u64, u64)> {
    let bytes = cluster.probe_application_state(node, client)?;
    let any = Any::from_bytes(&bytes).ok()?;
    match &any.value {
        Value::Struct(m) => match m.as_slice() {
            [Value::ULongLong(sent), Value::ULongLong(received)] => Some((*sent, *received)),
            _ => None,
        },
        _ => None,
    }
}

// ====================================================================
// The unreplicated baseline
// ====================================================================

enum RpcEvent {
    Request(Vec<u8>),
    Reply(Vec<u8>),
}

/// One client ORB invoking one server ORB over point-to-point unicast
/// on the same network model: no interception, no multicast, no
/// ordering. T1's denominator.
fn rpc_round<H: StepHook>(input: &Input, opts: RoundOpts, hook: &mut H) -> Round {
    let heap0 = alloc::restart_peak();
    let setup_started = Instant::now();
    let (client_node, server_node) = (NodeId(0), NodeId(1));
    let mut net = NetworkModel::new(2, NetworkConfig::default(), input.seed);
    let frame_payload = net.config().frame_payload();
    let mut sched: Scheduler<RpcEvent> = Scheduler::new();
    let key = ObjectKey::from("counter");
    let mut server_orb = Orb::new("P1");
    let mut client_orb = Orb::new("P0");
    if opts.obs_trace {
        server_orb.enable_obs(eternal_obs::trace::DEFAULT_CAPACITY);
        client_orb.enable_obs(eternal_obs::trace::DEFAULT_CAPACITY);
    }
    server_orb
        .poa_mut()
        .activate_checkpointable(key.clone(), Box::new(CounterServant::default()));
    let server_conn = server_orb.accept_server_connection();
    let client_conn = client_orb.open_client_connection();
    let counts_before = opts.counts.then(|| Counts::read(None));
    let mut failures = Vec::new();
    let mut rtts: Vec<u64> = Vec::with_capacity(RPC_CALLS as usize);
    let setup_ns = setup_started.elapsed().as_nanos() as u64;

    // ---------------------------------------------------------- timed
    let allocs0 = AllocSnapshot::now();
    let timed_started = Instant::now();
    let (mut steps, mut issued, mut received) = (0u64, 0u64, 0u64);
    let mut sent_at = SimTime::ZERO;
    hook.arm(SimTime::ZERO);
    let send = |from: NodeId,
                to: NodeId,
                bytes: Vec<u8>,
                at: SimTime,
                net: &mut NetworkModel,
                sched: &mut Scheduler<RpcEvent>| {
        let delivery = net.unicast(from, to, bytes.len().min(frame_payload), at);
        let event = if to == server_node {
            RpcEvent::Request(bytes)
        } else {
            RpcEvent::Reply(bytes)
        };
        sched.schedule_at(delivery[0].at, event);
    };
    let (_, first) = client_orb
        .invoke(client_conn, &key, "increment", &[], true)
        .expect("request encodes");
    issued += 1;
    send(
        client_node,
        server_node,
        first,
        SimTime::ZERO,
        &mut net,
        &mut sched,
    );
    loop {
        hook.before();
        let Some((now, event)) = sched.pop() else {
            failures.push(format!("loop ran dry after {received} replies"));
            break;
        };
        steps += 1;
        match event {
            RpcEvent::Request(bytes) => {
                server_orb.set_clock(now);
                let (reply, _) = server_orb
                    .handle_request_disposed(server_conn, &bytes)
                    .expect("request parses");
                let reply = reply.expect("two-way invocation");
                send(
                    server_node,
                    client_node,
                    reply,
                    now + input.exec_time,
                    &mut net,
                    &mut sched,
                );
            }
            RpcEvent::Reply(bytes) => {
                client_orb.set_clock(now);
                client_orb
                    .handle_reply(client_conn, &bytes)
                    .expect("reply matches its request");
                received += 1;
                rtts.push((now - sent_at).as_nanos());
                if issued < RPC_CALLS {
                    let (_, request) = client_orb
                        .invoke(client_conn, &key, "increment", &[], true)
                        .expect("request encodes");
                    issued += 1;
                    sent_at = now;
                    send(client_node, server_node, request, now, &mut net, &mut sched);
                }
            }
        }
        hook.after(now, received);
        if received >= RPC_CALLS {
            break;
        }
    }
    let timed_ns = timed_started.elapsed().as_nanos() as u64;
    let allocs = AllocSnapshot::now().since(allocs0);
    let peak_heap_bytes = alloc::peak_live_bytes().saturating_sub(heap0);
    // ------------------------------------------------------ not timed

    let counts = counts_before.map(|b| Counts::read(None).since(b));
    let rtt_samples = rtts.len() as u64;
    let (rtt_p50_ns, rtt_p95_ns) = rtt_percentiles(rtts);
    let virt = Virtual {
        replies: received,
        span_ns: sched.now().as_nanos(),
        wire_bytes: net.bytes_sent(),
        frames: net.frames_sent(),
        rtt_p50_ns,
        rtt_p95_ns,
        rtt_samples,
        recovery_ns: 0,
        blocking_ns: 0,
    };
    if received != issued {
        failures.push(format!(
            "{issued} invocations issued but {received} replies received"
        ));
    }
    let state = server_orb
        .poa()
        .get_state_of(&key)
        .ok()
        .and_then(|any| any.to_bytes().ok());
    if state.as_deref() != Some(input.reference_state.as_slice()) {
        failures.push("servant state differs from the serial reference replay".to_owned());
    }
    Round {
        timed_ns,
        setup_ns,
        allocs,
        peak_heap_bytes,
        steps,
        issued,
        received,
        virt,
        counts,
        failures,
    }
}
