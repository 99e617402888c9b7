//! Deterministic fault-injection campaigns over the simulated cluster.
//!
//! The evaluation experiments (`eternal-bench`) each exercise one
//! scripted failure; a **campaign** instead drives a seeded schedule of
//! randomized faults — replica kills, processor crash/restart cycles,
//! partitions healed mid-reformation, loss bursts, delay spikes, and
//! crashes of the *recovering* host in the middle of a §5.1 state
//! transfer — through the same public [`Cluster`] APIs, and checks the
//! paper's correctness claims as machine-verified invariants after
//! every fault, once the system has re-quiesced:
//!
//! 1. **Convergence** — all live replicas of every group hold
//!    byte-identical application-level state (strong consistency, §2).
//! 2. **Exactly-once effects** — the operations a server executed equal
//!    the logical invocations its drivers issued: duplicates are
//!    suppressed, but nothing is lost or re-executed (§4.1).
//! 3. **Bounded recovery** — every completed recovery episode finished
//!    within a configured cap, and the cluster re-quiesced at all.
//! 4. **No orphaned reassembly state** — partially reassembled
//!    multicast messages do not survive quiescence.
//! 5. **Bounded duplicate-detection memory** — per-processor dedup
//!    tables stay under a fixed resident cap (§4.1's tables must not
//!    grow without bound under loss and restarts).
//! 6. **Bounded log suffix** — passive-group message logs stay under
//!    the suffix-bound checkpoint trigger's cap at every quiescent
//!    point: sustained load must not grow replay memory (or warm
//!    promotion time) without bound (§3.3, docs/RECOVERY.md).
//!
//! Everything is derived from [`CampaignConfig::seed`] through
//! [`SimRng`]: the same seed reproduces the same fault schedule, the
//! same virtual-time trajectory, and the same summary, byte for byte —
//! a failing campaign is a deterministic regression test. Run one from
//! the command line with `cargo run -p eternal-bench --bin repro --
//! chaos --seed N --steps M`, or see `docs/CHAOS.md`.

use crate::app::BurstClient;
use crate::app::{BlobServant, CounterServant};
use crate::cluster::{Cluster, ClusterConfig};
use crate::gid::GroupId;
use crate::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use crate::properties::FaultToleranceProperties;
use eternal_obs::export::{JsonWriter, Layout};
use eternal_obs::EventKind;
use eternal_sim::net::NodeId;
use eternal_sim::rng::SimRng;
use eternal_sim::{Duration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Kill one replica of a group that still has a sibling.
    KillReplica,
    /// Crash a whole processor, run through the reformation, restart it.
    CrashRestart,
    /// Partition the live processors into two components at a traffic
    /// quiescent point, hold briefly, heal (often mid-reformation).
    PartitionHeal,
    /// Raise the network loss probability for a burst of traffic.
    LossBurst,
    /// Raise the propagation delay for a burst of traffic.
    DelaySpike,
    /// Kill a replica, wait for the §5.1 recovery to start, then crash
    /// the *recovering* host mid-state-transfer.
    KillMidTransfer,
    /// Kill a replica, wait for the chunked state transfer to start
    /// streaming, then kill the *donor* replica mid-stream: the next
    /// operational host must take the stream over from the shared
    /// cursor rather than restart it from byte zero.
    KillDonorMidStream,
}

impl FaultKind {
    /// All kinds, in schedule-draw order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::KillReplica,
        FaultKind::CrashRestart,
        FaultKind::PartitionHeal,
        FaultKind::LossBurst,
        FaultKind::DelaySpike,
        FaultKind::KillMidTransfer,
        FaultKind::KillDonorMidStream,
    ];

    /// Stable display name (summary and trace detail strings).
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::KillReplica => "kill_replica",
            FaultKind::CrashRestart => "crash_restart",
            FaultKind::PartitionHeal => "partition_heal",
            FaultKind::LossBurst => "loss_burst",
            FaultKind::DelaySpike => "delay_spike",
            FaultKind::KillMidTransfer => "kill_mid_transfer",
            FaultKind::KillDonorMidStream => "kill_donor_mid_stream",
        }
    }
}

/// Cluster size of a campaign, and of a health-lab scenario: both
/// topologies (three-way active groups beside their drivers) need at
/// least four processors.
pub(crate) const PROCESSORS: u32 = 5;

/// Two-way invocations each driver replica issues per load tick, here
/// and in the health lab.
pub(crate) const BURST: u64 = 4;

/// Upper bound on any completed recovery episode (invariant 3).
const RECOVERY_CAP: Duration = Duration::from_millis(1_000);

/// Settle-loop slice of every harness: quiescence requires one full
/// slice with no metrics movement.
const SETTLE_SLICE: Duration = Duration::from_millis(10);

/// Settle-loop deadline per campaign step; exceeding it is itself a
/// bounded-recovery violation.
const SETTLE_CAP: Duration = Duration::from_secs(3);

/// Suffix-bound checkpoint trigger applied to every processor's
/// [`MechConfig::suffix_checkpoint_len`](crate::mechanisms::MechConfig)
/// — tight enough that the campaign's warm-passive ledger trips it
/// under load. Invariant 6 audits suffixes against twice this value
/// (the trigger's fabricated retrieval needs a round trip through the
/// total order, during which the suffix keeps growing).
const SUFFIX_CHECKPOINT_LEN: usize = 24;

/// Parameters of one campaign. Everything that affects the run is in
/// here — two equal configs produce byte-identical summaries.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the fault schedule and of the cluster's network model.
    pub seed: u64,
    /// Number of fault steps to inject.
    pub steps: usize,
    /// Application-level state size of the blob server (sized so a
    /// state transfer spans many frames, opening a window for
    /// [`FaultKind::KillMidTransfer`]).
    pub blob_size: usize,
    /// Chunk payload size applied to every processor's
    /// [`MechConfig::chunk_bytes`](crate::mechanisms::MechConfig):
    /// small enough that the blob's transfer streams many chunks,
    /// opening the window [`FaultKind::KillDonorMidStream`] aims at.
    pub chunk_bytes: usize,
    /// Overrides Totem's token-visit batching budget for the run
    /// (`Some(0)` disables batching, `None` keeps the protocol
    /// default). The invariants must hold at any budget — the batching
    /// test drives the same campaign with batching on and off.
    pub batch_budget_bytes: Option<usize>,
    /// Record causal traces during the campaign, arming the flight
    /// recorder: when any invariant fires, the summary carries the
    /// `flight_recorder.json` dump of the last spans before the
    /// violation. Off by default — traced frames carry extra wire
    /// bytes, so this is a distinct (still deterministic) campaign.
    pub causal: bool,
    /// Inject one synthetic invariant violation at the end of the run,
    /// regardless of what the campaign observed. Exists to exercise the
    /// violation → flight-recorder path end to end (the CI trace-smoke
    /// job asserts the dump is well-formed).
    pub force_violation: bool,
    /// Health-snapshot publish interval for the run's cluster
    /// ([`ClusterConfig::health_period`]). `Duration::ZERO` (the
    /// default) keeps health monitoring off and the campaign summary
    /// byte-identical to pre-health builds; nonzero adds a `health`
    /// rollup to the summary. See `docs/HEALTH.md`.
    pub health_period: Duration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            steps: 10,
            blob_size: 60_000,
            chunk_bytes: 4_096,
            batch_budget_bytes: None,
            causal: false,
            force_violation: false,
            health_period: Duration::ZERO,
        }
    }
}

/// Aggregate of the health auditor's output over one campaign, present
/// in the summary only when [`CampaignConfig::health_period`] was
/// nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthRollup {
    /// Agreed health epochs observed.
    pub epochs: u64,
    /// Diagnoses fired, all severities.
    pub diagnoses: u64,
    /// Critical diagnoses fired.
    pub critical: u64,
}

/// One invariant violation observed at a quiescent point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Fault step after which the check ran (0 = post-deployment
    /// baseline).
    pub step: usize,
    /// Invariant name (`convergence`, `exactly-once`,
    /// `bounded-recovery`, `reassembly-orphan`, `dedup-bound`,
    /// `suffix-bound`, `availability`).
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl Violation {
    /// Writes the violation as one inline object of a JSON export.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.object(Layout::Spaced)
            .field("step", self.step)
            .field_str("invariant", self.invariant)
            .field_str("detail", &self.detail)
            .end();
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}: {}", self.step, self.invariant, self.detail)
    }
}

/// Deterministic result of one campaign. [`Display`](fmt::Display)
/// renders it as the stable text block the CI smoke job diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Fault steps injected.
    pub steps: usize,
    /// Virtual time at the end of the campaign.
    pub final_time: SimTime,
    /// Injected faults by kind name.
    pub faults: BTreeMap<&'static str, u64>,
    /// Requests executed by server replicas.
    pub requests_dispatched: u64,
    /// Replies delivered to client replicas.
    pub replies_delivered: u64,
    /// Duplicate operations suppressed by the mechanisms.
    pub duplicates_suppressed: u64,
    /// Completed §5.1 recovery episodes.
    pub recoveries_completed: u64,
    /// Chunked transfers taken over by a surviving host after a donor
    /// fault, summed over live processors at the end — each one is a
    /// stream that resumed from its cursor instead of restarting.
    pub transfer_takeovers: u64,
    /// Request-ids force-skipped by dedup window eviction, summed over
    /// live processors at the end (should stay 0: Totem delivers
    /// reliably, so windows never overflow on gaps).
    pub dedup_gaps_skipped: u64,
    /// Invariant checks run.
    pub invariant_checks: u64,
    /// Violations, in discovery order.
    pub violations: Vec<Violation>,
    /// The post-mortem flight-recorder dump: present when the campaign
    /// ran with [`CampaignConfig::causal`] and at least one invariant
    /// was violated. `repro -- chaos` writes it to
    /// `flight_recorder.json`.
    pub flight_recorder: Option<String>,
    /// Health-auditor rollup, present only when the campaign ran with a
    /// nonzero [`CampaignConfig::health_period`] (keeps default
    /// summaries byte-identical).
    pub health: Option<HealthRollup>,
}

impl CampaignSummary {
    /// Whether every invariant held at every quiescent point.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable rendering of the summary (the
    /// `repro -- chaos --json` export; the flight-recorder dump is a
    /// separate file and is not embedded). Byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Block)
            .field("seed", self.seed)
            .field("steps", self.steps)
            .field("final_time_ns", self.final_time.as_nanos())
            .key("faults")
            .object(Layout::Spaced);
        for (name, n) in &self.faults {
            w.field(name, n);
        }
        w.end()
            .field("requests_dispatched", self.requests_dispatched)
            .field("replies_delivered", self.replies_delivered)
            .field("duplicates_suppressed", self.duplicates_suppressed)
            .field("recoveries_completed", self.recoveries_completed)
            .field("transfer_takeovers", self.transfer_takeovers)
            .field("dedup_gaps_skipped", self.dedup_gaps_skipped)
            .field("invariant_checks", self.invariant_checks)
            .key("violations")
            .array(Layout::Spaced);
        for v in &self.violations {
            v.write_json(&mut w);
        }
        w.end();
        if let Some(h) = &self.health {
            w.key("health")
                .object(Layout::Spaced)
                .field("epochs", h.epochs)
                .field("diagnoses", h.diagnoses)
                .field("critical", h.critical)
                .end();
        }
        w.field("passed", self.passed()).end();
        w.finish()
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos campaign: seed={} steps={} end={}",
            self.seed, self.steps, self.final_time
        )?;
        write!(f, "  faults:")?;
        for (name, n) in &self.faults {
            write!(f, " {name}={n}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  traffic: dispatched={} replies={} duplicates_suppressed={}",
            self.requests_dispatched, self.replies_delivered, self.duplicates_suppressed
        )?;
        writeln!(
            f,
            "  recovery: completed={} takeovers={} dedup_gaps_skipped={}",
            self.recoveries_completed, self.transfer_takeovers, self.dedup_gaps_skipped
        )?;
        writeln!(
            f,
            "  invariants: checks={} violations={}",
            self.invariant_checks,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "    VIOLATION {v}")?;
        }
        if let Some(h) = &self.health {
            writeln!(
                f,
                "  health: epochs={} diagnoses={} critical={}",
                h.epochs, h.diagnoses, h.critical
            )?;
        }
        write!(
            f,
            "  verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

// ---- fault scripts ----
//
// One script per multi-step fault, parameterised by victim and
// durations: a campaign draws the parameters from its rng, the health
// lab (`health_lab.rs`) passes constants. A duration that is only
// needed once something has been observed is a closure, so a campaign
// draws it then and not before.

/// Crashes `victim` and keeps it down for `quiet`; if `loaded` is
/// nonzero, re-bursts the clients and keeps it down that much longer,
/// so the survivors go through the reformation and the recoveries it
/// triggers under load; then restarts it.
pub fn crash_restart(cluster: &mut Cluster, victim: NodeId, quiet: Duration, loaded: Duration) {
    cluster.crash_processor(victim);
    cluster.run_for(quiet);
    if !loaded.is_zero() {
        cluster.kick_clients();
        cluster.run_for(loaded);
    }
    cluster.restart_processor(victim);
}

/// Splits the live processors into the first `cut` and the rest, holds
/// the partition for `hold`, heals it.
pub fn partition_heal(cluster: &mut Cluster, cut: usize, hold: Duration) {
    let live = cluster.live_processors();
    let (a, b) = live.split_at(cut);
    cluster.net_mut().partition(&[a, b]);
    cluster.run_for(hold);
    cluster.net_mut().heal();
}

/// Runs until the system is quiet — ring formed, no recovery machinery
/// in flight, no outstanding invocations, and no progress across one
/// full settle slice (10 ms) — or until `cap` has passed (returns
/// `false`: a bounded-recovery violation).
pub fn settle(cluster: &mut Cluster, cap: Duration) -> bool {
    let deadline = cluster.now() + cap;
    let mut last = cluster.progress();
    loop {
        cluster.run_for(SETTLE_SLICE);
        let snap = cluster.progress();
        let quiet =
            cluster.formed() && !cluster.recovery_in_flight() && cluster.outstanding_calls() == 0;
        if quiet && snap == last {
            return true;
        }
        last = snap;
        if cluster.now() >= deadline {
            return false;
        }
    }
}

/// Raises the loss probability to `loss` for `kicks` slices of `slice`
/// each, re-bursting the clients at the start of every slice.
pub fn loss_burst(cluster: &mut Cluster, loss: f64, kicks: u32, slice: Duration) {
    let base = cluster.net().config().loss_probability;
    cluster.net_mut().set_loss_probability(loss);
    for _ in 0..kicks {
        cluster.kick_clients();
        cluster.run_for(slice);
    }
    cluster.net_mut().set_loss_probability(base);
}

/// Raises the propagation delay to `delay` for `hold`, re-bursting the
/// clients first if `kick`.
pub fn delay_spike(cluster: &mut Cluster, delay: Duration, kick: bool, hold: Duration) {
    let base = cluster.net().config().propagation_delay;
    cluster.net_mut().set_propagation_delay(delay);
    if kick {
        cluster.kick_clients();
    }
    cluster.run_for(hold);
    cluster.net_mut().set_propagation_delay(base);
}

/// Slices forward in 500 µs steps until `probe` sees what a mid-transfer
/// fault aims at, for at most 200 ms.
fn await_target(
    cluster: &mut Cluster,
    probe: impl Fn(&Cluster) -> Option<NodeId>,
) -> Option<NodeId> {
    let deadline = cluster.now() + Duration::from_millis(200);
    loop {
        let seen = probe(cluster);
        if seen.is_some() || cluster.now() >= deadline {
            return seen;
        }
        cluster.run_for(Duration::from_micros(500));
    }
}

/// Kills `victim`'s replica of `group`, waits for the resource manager
/// to launch the replacement, and lets its state transfer run for
/// `into()`. Returns the *recovering* host if it can then be crashed
/// mid-transfer (every group keeps a replica elsewhere) — the caller's
/// [`crash_restart`]; the abort must release the launch guard so a
/// second recovery can succeed elsewhere. `None` also when the recovery
/// never started.
pub fn kill_mid_transfer(
    cluster: &mut Cluster,
    group: GroupId,
    victim: NodeId,
    into: impl FnOnce() -> Duration,
) -> Option<NodeId> {
    cluster.kill_replica(group, victim);
    let new_host = await_target(cluster, |c| {
        let launches = c.pending_launches();
        launches.iter().find(|&&(g, _)| g == group).map(|&(_, n)| n)
    })?;
    cluster.run_for(into());
    (cluster.is_alive(new_host) && cluster.safe_to_crash(new_host)).then_some(new_host)
}

/// Kills `victim`'s replica of `group`, waits for the chunk stream of
/// its replacement to be under way (every operational host retains a
/// transfer context naming the donor once the retrieval is delivered),
/// lets `into()` of it land, and kills the *donor's* replica: the next
/// operational host must resume the stream from the shared cursor
/// (never from byte zero) for the recovery to converge.
pub fn kill_donor_mid_stream(
    cluster: &mut Cluster,
    group: GroupId,
    victim: NodeId,
    into: impl FnOnce() -> Duration,
) {
    cluster.kill_replica(group, victim);
    let Some(donor) = await_target(cluster, |c| {
        c.live_processors()
            .into_iter()
            .find_map(|n| c.mechanisms(n).transfer_donor(group))
    }) else {
        return; // transfer never started
    };
    cluster.run_for(into());
    if cluster.is_alive(donor) && cluster.hosting(group).contains(&donor) {
        cluster.kill_replica(group, donor);
    }
}

/// The campaign state while running.
struct Campaign<'a> {
    cfg: &'a CampaignConfig,
    rng: SimRng,
    cluster: Cluster,
    /// Server/driver pairs audited by the shared [`Oracle`]
    /// (`pairs[1]` is always the blob pair, which the mid-transfer
    /// faults target).
    pairs: Vec<OraclePair>,
    faults: BTreeMap<&'static str, u64>,
    invariant_checks: u64,
    violations: Vec<Violation>,
    recoveries_seen: usize,
}

/// Runs one campaign to completion.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    let mut cluster_cfg = ClusterConfig {
        processors: PROCESSORS,
        ..ClusterConfig::default()
    };
    if let Some(budget) = cfg.batch_budget_bytes {
        cluster_cfg.totem.batch_budget_bytes = budget;
    }
    cluster_cfg.mech.chunk_bytes = cfg.chunk_bytes;
    cluster_cfg.mech.suffix_checkpoint_len = SUFFIX_CHECKPOINT_LEN;
    cluster_cfg.causal = cfg.causal;
    cluster_cfg.health_period = cfg.health_period;
    let cluster = Cluster::new(cluster_cfg, cfg.seed.wrapping_add(1));
    let mut campaign = Campaign {
        cfg,
        rng: SimRng::seed_from_u64(cfg.seed),
        cluster,
        pairs: Vec::new(),
        faults: BTreeMap::new(),
        invariant_checks: 0,
        violations: Vec::new(),
        recoveries_seen: 0,
    };
    campaign.deploy();
    campaign.run();
    campaign.finish()
}

impl Campaign<'_> {
    fn deploy(&mut self) {
        let blob_size = self.cfg.blob_size;
        let counter = self.cluster.deploy_server(
            "chaos-counter",
            FaultToleranceProperties::active(3),
            || Box::new(CounterServant::default()),
        );
        // Three replicas: [`FaultKind::KillDonorMidStream`] consumes
        // two (the recovering replica and the killed donor) and still
        // needs an operational survivor to take the stream over.
        let blob = self.cluster.deploy_server(
            "chaos-blob",
            FaultToleranceProperties::active(3),
            move || Box::new(BlobServant::with_size(blob_size)),
        );
        // A warm-passive pair: its primary logs every invocation, so
        // the suffix-bound checkpoint trigger (and invariant 6) get
        // exercised, and primary kills go through promotion + replay.
        let ledger = self.cluster.deploy_server(
            "chaos-ledger",
            FaultToleranceProperties::warm_passive(2),
            || Box::new(CounterServant::default()),
        );
        let counter_driver = self.cluster.deploy_client(
            "chaos-counter-driver",
            FaultToleranceProperties::active(2),
            move |_| Box::new(BurstClient::new(counter, "increment", BURST)),
        );
        let blob_driver = self.cluster.deploy_client(
            "chaos-blob-driver",
            FaultToleranceProperties::active(2),
            move |_| Box::new(BurstClient::new(blob, "touch", BURST)),
        );
        let ledger_driver = self.cluster.deploy_client(
            "chaos-ledger-driver",
            FaultToleranceProperties::active(2),
            move |_| Box::new(BurstClient::new(ledger, "increment", BURST)),
        );
        self.pairs = vec![
            OraclePair {
                server: counter,
                driver: counter_driver,
                kind: ServantKind::Counter,
            },
            OraclePair {
                server: blob,
                driver: blob_driver,
                kind: ServantKind::Blob { size: blob_size },
            },
            OraclePair {
                server: ledger,
                driver: ledger_driver,
                kind: ServantKind::Counter,
            },
        ];
        self.cluster.run_until_deployed();
    }

    fn run(&mut self) {
        // Post-deployment baseline: the invariants must hold before any
        // fault is injected (step 0).
        let settled = settle(&mut self.cluster, SETTLE_CAP);
        self.check_invariants(0, settled);
        for step in 1..=self.cfg.steps {
            let kind = self.pick_fault();
            *self.faults.entry(kind.name()).or_insert(0) += 1;
            self.cluster.counter_add("chaos.faults", 1);
            self.cluster.record_event(
                "chaos/campaign",
                EventKind::ChaosFault,
                format!("step {step} {}", kind.name()),
            );
            self.inject(kind);
            // Re-burst traffic over the (now repaired) system, then
            // drain it to the next quiescent point and audit.
            self.cluster.kick_clients();
            let settled = settle(&mut self.cluster, SETTLE_CAP);
            self.check_invariants(step, settled);
        }
    }

    /// Draws the next fault kind, retrying when the drawn kind is not
    /// currently applicable (e.g. no processor is safe to crash).
    /// Falls back to a loss burst, which always applies.
    fn pick_fault(&mut self) -> FaultKind {
        for _ in 0..8 {
            let kind = FaultKind::ALL[self.rng.gen_range(FaultKind::ALL.len() as u64) as usize];
            let applicable = match kind {
                FaultKind::KillReplica => !Self::killable_groups(&self.cluster).is_empty(),
                FaultKind::CrashRestart => !Self::crashable_processors(&self.cluster).is_empty(),
                FaultKind::PartitionHeal => self.cluster.live_processors().len() >= 2,
                FaultKind::LossBurst | FaultKind::DelaySpike => true,
                FaultKind::KillMidTransfer => {
                    let blob = self.pairs[1].server;
                    self.cluster.hosting(blob).len() >= 2
                }
                FaultKind::KillDonorMidStream => {
                    // One host recovers, one donates, one survives to
                    // take the stream over.
                    let blob = self.pairs[1].server;
                    self.cluster.hosting(blob).len() >= 3
                }
            };
            if applicable {
                return kind;
            }
        }
        FaultKind::LossBurst
    }

    /// Runs `kind`'s script with parameters drawn from the campaign's
    /// rng. Partitions are applied at traffic quiescence and healed
    /// before traffic resumes: replicas of one group split across
    /// components must not diverge, and with no invocations in flight
    /// they cannot; the short hold still lands the heal in the middle
    /// of the components' ring reformations.
    fn inject(&mut self, kind: FaultKind) {
        let cluster = &mut self.cluster;
        let rng = &mut self.rng;
        let blob = self.pairs[1].server;
        match kind {
            FaultKind::KillReplica => {
                let candidates = Self::killable_groups(cluster);
                let &group = rng.choose(&candidates).expect("checked applicable");
                let hosting = cluster.hosting(group);
                let &victim = rng.choose(&hosting).expect("hosting >= 2");
                cluster.kill_replica(group, victim);
            }
            FaultKind::CrashRestart => {
                let candidates = Self::crashable_processors(cluster);
                let &victim = rng.choose(&candidates).expect("checked applicable");
                let downtime = Duration::from_millis(20 + rng.gen_range(100));
                crash_restart(cluster, victim, downtime, downtime);
            }
            FaultKind::PartitionHeal => {
                let live = cluster.live_processors().len() as u64;
                let cut = 1 + rng.gen_range(live - 1) as usize;
                let hold = Duration::from_millis(5 + rng.gen_range(55));
                partition_heal(cluster, cut, hold);
            }
            FaultKind::LossBurst => {
                let loss = 0.05 + 0.25 * rng.next_f64();
                let hold = Duration::from_millis(20 + rng.gen_range(60));
                loss_burst(cluster, loss, 1, hold);
            }
            FaultKind::DelaySpike => {
                let delay = Duration::from_micros(200 + rng.gen_range(1_800));
                let hold = Duration::from_millis(20 + rng.gen_range(60));
                delay_spike(cluster, delay, true, hold);
            }
            FaultKind::KillMidTransfer | FaultKind::KillDonorMidStream => {
                let &victim = rng
                    .choose(&cluster.hosting(blob))
                    .expect("checked applicable");
                let into = || Duration::from_micros(200 + rng.gen_range(1_800));
                if kind == FaultKind::KillDonorMidStream {
                    kill_donor_mid_stream(cluster, blob, victim, into);
                } else if let Some(new_host) = kill_mid_transfer(cluster, blob, victim, into) {
                    let downtime = Duration::from_millis(20 + rng.gen_range(40));
                    crash_restart(cluster, new_host, downtime, Duration::ZERO);
                }
            }
        }
    }

    // ---- applicability helpers ----

    /// Groups that keep at least one replica if one is killed.
    fn killable_groups(cluster: &Cluster) -> Vec<GroupId> {
        cluster
            .groups()
            .into_iter()
            .map(|(g, _)| g)
            .filter(|&g| cluster.hosting(g).len() >= 2)
            .collect()
    }

    /// The campaign never takes a whole group out: total loss has
    /// nothing to transfer state from and is out of scope.
    fn crashable_processors(cluster: &Cluster) -> Vec<NodeId> {
        cluster
            .live_processors()
            .into_iter()
            .filter(|&n| cluster.safe_to_crash(n))
            .collect()
    }

    // ---- invariants ----

    fn violation(&mut self, step: usize, invariant: &'static str, detail: String) {
        self.cluster.counter_add("chaos.invariant_violations", 1);
        self.cluster.record_event(
            "chaos/invariants",
            EventKind::InvariantViolation,
            format!("step {step} {invariant}: {detail}"),
        );
        self.violations.push(Violation {
            step,
            invariant,
            detail,
        });
    }

    fn check_invariants(&mut self, step: usize, settled: bool) {
        self.cluster.counter_add("chaos.invariant_checks", 1);
        self.cluster.record_event(
            "chaos/invariants",
            EventKind::InvariantCheck,
            format!("step {step}"),
        );
        self.invariant_checks += 1;
        if !settled {
            self.violation(
                step,
                "bounded-recovery",
                format!("cluster failed to quiesce within {SETTLE_CAP}"),
            );
        }
        // Invariants 1, 2, 4, 5, 6 plus the single-copy reference
        // replay are the shared oracle; only the episode-based
        // recovery-time audit is campaign-specific.
        let oracle = self.oracle();
        for v in oracle.check(&mut self.cluster) {
            self.violation(step, v.invariant, v.detail);
        }
        self.check_recovery_times(step);
    }

    /// The shared oracle configured for this campaign's caps and pairs.
    fn oracle(&self) -> Oracle {
        let mut oracle = Oracle::new(OracleConfig {
            suffix_checkpoint_len: SUFFIX_CHECKPOINT_LEN,
        });
        for &pair in &self.pairs {
            oracle.add_pair(pair);
        }
        oracle
    }

    /// Invariant 3 (episode half): every newly completed recovery
    /// finished within the cap.
    fn check_recovery_times(&mut self, step: usize) {
        let records = self.cluster.metrics().recoveries;
        let cap = RECOVERY_CAP;
        for rec in &records[self.recoveries_seen..] {
            let took = rec.recovery_time();
            if took > cap {
                self.violation(
                    step,
                    "bounded-recovery",
                    format!("episode took {took} (cap {cap})"),
                );
            }
            self.cluster.histogram_record("chaos.recovery_time", took);
        }
        self.recoveries_seen = records.len();
    }

    fn finish(self) -> CampaignSummary {
        let m = self.cluster.metrics();
        let dedup_gaps_skipped = self
            .cluster
            .live_processors()
            .iter()
            .map(|&n| self.cluster.mechanisms(n).dedup_gaps_skipped())
            .sum();
        let transfer_takeovers = self
            .cluster
            .live_processors()
            .iter()
            .map(|&n| self.cluster.mechanisms(n).counters().transfer_takeovers)
            .sum();
        let mut violations = self.violations;
        if self.cfg.force_violation {
            violations.push(Violation {
                step: self.cfg.steps,
                invariant: "forced",
                detail: "synthetic violation injected by force_violation".into(),
            });
        }
        let flight_recorder = if self.cfg.causal && !violations.is_empty() {
            let reason = violations
                .iter()
                .map(Violation::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            Some(self.cluster.causal().flight_recorder_json(&reason))
        } else {
            None
        };
        let health = if self.cfg.health_period > Duration::ZERO {
            let auditor = self.cluster.health_auditor();
            Some(HealthRollup {
                epochs: auditor.epochs().len() as u64,
                diagnoses: auditor.diagnoses().len() as u64,
                critical: auditor.critical_count() as u64,
            })
        } else {
            None
        };
        CampaignSummary {
            seed: self.cfg.seed,
            steps: self.cfg.steps,
            final_time: self.cluster.now(),
            faults: self.faults,
            requests_dispatched: m.requests_dispatched,
            replies_delivered: m.replies_delivered,
            duplicates_suppressed: m.duplicates_suppressed,
            recoveries_completed: m.recoveries_completed,
            transfer_takeovers,
            dedup_gaps_skipped,
            invariant_checks: self.invariant_checks,
            violations,
            flight_recorder,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, steps: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            steps,
            blob_size: 20_000,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn baseline_campaign_passes() {
        let summary = run_campaign(&quick(7, 3));
        assert!(summary.passed(), "{summary}");
        assert!(summary.requests_dispatched > 0);
        assert!(summary.replies_delivered > 0);
        assert_eq!(summary.invariant_checks, 4); // baseline + 3 steps
    }

    #[test]
    fn same_seed_reproduces_summary_byte_for_byte() {
        let a = run_campaign(&quick(11, 4));
        let b = run_campaign(&quick(11, 4));
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn different_seeds_take_different_trajectories() {
        let a = run_campaign(&quick(1, 4));
        let b = run_campaign(&quick(2, 4));
        assert!(a.passed(), "{a}");
        assert!(b.passed(), "{b}");
        // The schedules (and so the traffic totals) should differ; a
        // collision on both counters would mean the seed is ignored.
        assert!(
            a.faults != b.faults || a.requests_dispatched != b.requests_dispatched,
            "seed had no effect: {a} vs {b}"
        );
    }

    #[test]
    fn summary_display_is_stable() {
        let s = run_campaign(&quick(5, 2)).to_string();
        assert!(s.starts_with("chaos campaign: seed=5 steps=2"));
        assert!(s.contains("verdict: PASS"), "{s}");
    }

    /// Violation details are free text: whatever they contain, the
    /// export stays strict JSON.
    #[test]
    fn hostile_violation_detail_is_escaped_in_the_export() {
        let mut cfg = quick(1, 1);
        cfg.force_violation = true;
        let mut summary = run_campaign(&cfg);
        summary.violations[0].detail = "\"\\\n\t\u{1}".into();
        let json = summary.to_json();
        assert!(
            json.contains(r#""detail": "\"\\\n\t\u0001"}"#),
            "detail not escaped: {json}"
        );
    }

    #[test]
    fn repeated_primary_kills_stay_exactly_once() {
        // Regression: the checkpoint log deliberately survives the
        // replica process, so a warm-passive replica recovered onto a
        // node that hosted a previous incarnation inherited the dead
        // incarnation's log suffix — whose effects the transferred
        // state already contains. The next promotion replayed that
        // stale suffix on top of the synchronized servant, running the
        // promoted primary ahead of everything the driver ever issued
        // (executed 56 vs issued 36 by round 1 of this scenario).
        // `complete_recovery` now re-baselines the log: checkpoint :=
        // transferred state, suffix := the post-capture traffic only.
        use crate::app::{BurstClient, CounterServant};
        use crate::cluster::{Cluster, ClusterConfig};
        use crate::mechanisms::ReplicaPhase;
        use crate::properties::FaultToleranceProperties;
        use eternal_sim::Duration;

        let mut c = Cluster::new(ClusterConfig::default(), 77);
        let server = c.deploy_server("ledger", FaultToleranceProperties::warm_passive(2), || {
            Box::new(CounterServant::default())
        });
        let driver = c.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
            Box::new(BurstClient::new(server, "increment", 4))
        });
        c.run_until_deployed();
        let executed = |c: &mut Cluster| {
            c.hosting(server)
                .into_iter()
                .find_map(|n| {
                    if c.mechanisms(n).replica_phase(server) == Some(ReplicaPhase::Operational) {
                        c.probe_application_state(n, server)
                    } else {
                        None
                    }
                })
                .map(|b| match eternal_cdr::Any::from_bytes(&b).unwrap().value {
                    eternal_cdr::Value::ULong(n) => u64::from(n),
                    _ => 0,
                })
        };
        let issued = |c: &mut Cluster| {
            c.hosting(driver)
                .into_iter()
                .find_map(|n| c.probe_application_state(n, driver))
                .map(|b| match eternal_cdr::Any::from_bytes(&b).unwrap().value {
                    eternal_cdr::Value::Struct(m) => match m.as_slice() {
                        [eternal_cdr::Value::ULongLong(s), _] => *s,
                        _ => 0,
                    },
                    _ => 0,
                })
        };
        let settle = |c: &mut Cluster| {
            for _ in 0..100 {
                c.run_for(Duration::from_millis(10));
                if c.outstanding_calls() == 0 && !c.recovery_in_flight() {
                    break;
                }
            }
        };
        // Each round kills the current primary: the standby that
        // promotes in round N is the replica that RECOVERED in round
        // N-1, onto a node whose mechanisms logged for the previous
        // incarnation. Four rounds alternate the two nodes, so both
        // relaunch-over-stale-log paths are exercised twice.
        for round in 0..4 {
            for _ in 0..2 {
                c.kick_clients();
                c.run_for(Duration::from_millis(5));
            }
            settle(&mut c);
            let primary = c
                .hosting(server)
                .into_iter()
                .find(|&n| c.mechanisms(n).replica_phase(server) == Some(ReplicaPhase::Operational))
                .expect("a primary is operational");
            c.kill_replica(server, primary);
            for _ in 0..2 {
                c.kick_clients();
                c.run_for(Duration::from_millis(5));
            }
            settle(&mut c);
            let (exec, sent) = (executed(&mut c), issued(&mut c));
            assert!(
                exec.is_some() && sent.is_some(),
                "round {round}: probes readable"
            );
            assert_eq!(
                exec, sent,
                "round {round}: promoted primary executed ops the driver never issued"
            );
            assert_eq!(
                c.hosting(server).len(),
                2,
                "round {round}: strength restored"
            );
        }
    }
}
