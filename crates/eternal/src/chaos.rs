//! Deterministic fault-injection campaigns over the simulated cluster.
//!
//! The evaluation experiments (`eternal-bench`) each exercise one
//! scripted failure; a **campaign** instead drives a seeded schedule of
//! randomized faults — replica kills, processor crash/restart cycles,
//! partitions healed mid-reformation, loss bursts, delay spikes, and
//! crashes of the *recovering* host or of the *donor* in the middle of
//! a §5.1 state transfer — through the same public [`Cluster`] APIs,
//! and after every fault, once the system has re-quiesced, checks the
//! paper's correctness claims: the shared oracle's invariants
//! ([`crate::oracle`]) and a cap on every recovery episode.
//!
//! There is one fault engine. A fault is decided in one place,
//! [`fault_step`], which asks the run's [`ChoiceSource`] for a kind, a
//! victim and each duration, and runs the kind's script; the one run
//! loop ([`crate::explore`]) deploys a [`Topology`] and then, per step,
//! injects a fault, re-bursts the drivers, settles and audits. A
//! campaign is a seeded **walk** through that loop: its source draws
//! every fault and parameter from a `SimRng` seeded with
//! [`CampaignConfig::seed`] and leaves the scheduler alone, so the same
//! seed reproduces the same summary byte for byte. A violating campaign
//! is shrunk to the fault choices that still violate, and its summary
//! carries a regression-test skeleton. Run one with `cargo run -p
//! eternal-bench --bin repro -- chaos --seed N --steps M`, or see
//! `docs/CHAOS.md`.

use crate::app::{BlobServant, BurstClient, CounterServant};
use crate::cluster::{Cluster, ClusterConfig};
use crate::explore::{self, Counterexample, Pin, RunOutcome, TraceSource};
use crate::gid::GroupId;
use crate::oracle::{OraclePair, ServantKind};
use crate::properties::FaultToleranceProperties;
use eternal_obs::export::{JsonWriter, Layout};
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::choice::{ChoiceKind, ChoiceSource};
use eternal_sim::net::NodeId;
use eternal_sim::Duration;
use std::cell::RefCell;
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
    /// All kinds, in draw order: branch `i` of a fault choice is
    /// `ALL[i - 1]`.
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

/// Settle-loop slice of every harness: quiescence requires one full
/// slice with no metrics movement.
const SETTLE_SLICE: Duration = Duration::from_millis(10);

/// What a run deploys: the cluster's configuration and its
/// server/driver pairs. Plain data, so a test plants an ablation by
/// editing `cluster` (`cluster.mech.transfer_orb_state = false`).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Prefix of every group name: `{name}-{server}` and
    /// `{name}-{server}-driver`.
    pub name: &'static str,
    /// The cluster every run of this topology builds.
    pub cluster: ClusterConfig,
    /// Server groups `(name, properties, servant)`, each driven by a
    /// client group of its own; deployed in order, then the drivers.
    pub servers: Vec<(&'static str, FaultToleranceProperties, ServantKind)>,
    /// Every driver group's properties.
    pub driver: FaultToleranceProperties,
    /// Two-way invocations each driver replica issues per load tick.
    pub burst: u64,
    /// Index into `servers` of the group the mid-transfer faults aim at.
    pub target: usize,
}

impl Topology {
    /// The campaign's (and the health lab's): five processors,
    /// three-way active counter and blob (`blob_size` bytes of state, so
    /// a transfer spans many chunks and frames) and a warm-passive
    /// ledger, each with a two-way driver issuing four calls per tick.
    pub fn campaign(blob_size: usize) -> Self {
        let mut cluster = ClusterConfig {
            processors: 5,
            ..ClusterConfig::default()
        };
        // Small chunks: the blob's transfer streams many of them,
        // opening the window [`FaultKind::KillDonorMidStream`] aims at.
        cluster.mech.chunk_bytes = 4_096;
        // Tight enough that the ledger trips the suffix-bound trigger
        // under load (invariant 6 audits suffixes against twice it).
        cluster.mech.suffix_checkpoint_len = 24;
        let active = FaultToleranceProperties::active;
        Topology {
            name: "chaos",
            cluster,
            servers: vec![
                ("counter", active(3), ServantKind::Counter),
                // Three replicas: [`FaultKind::KillDonorMidStream`]
                // consumes two (the recovering replica and the killed
                // donor) and still needs a survivor to take over.
                ("blob", active(3), ServantKind::Blob { size: blob_size }),
                // Warm passive: the primary logs every invocation, so
                // the suffix-bound trigger (invariant 6) is exercised
                // and primary kills go through promotion + replay.
                (
                    "ledger",
                    FaultToleranceProperties::warm_passive(2),
                    ServantKind::Counter,
                ),
            ],
            driver: active(2),
            burst: 4,
            target: 1,
        }
    }

    /// The explorer's: three processors, a two-way active counter
    /// driven by one client replica.
    pub fn counter() -> Self {
        let active = FaultToleranceProperties::active;
        Topology {
            name: "explore",
            cluster: ClusterConfig {
                processors: 3,
                ..ClusterConfig::default()
            },
            servers: vec![("counter", active(2), ServantKind::Counter)],
            driver: active(1),
            burst: 2,
            target: 0,
        }
    }

    /// Builds the cluster (network seed `seed`), deploys every server
    /// and then every driver, and runs until deployed. Returns the
    /// cluster and the oracle's pairs, in `servers` order.
    pub fn deploy(&self, seed: u64) -> (Cluster, Vec<OraclePair>) {
        let mut cluster = Cluster::new(self.cluster.clone(), seed);
        let mut groups = Vec::new();
        for &(name, ref props, kind) in &self.servers {
            let name = format!("{}-{name}", self.name);
            let server = cluster.deploy_server(&name, props.clone(), move || {
                let servant: Box<dyn CheckpointableServant> = match kind {
                    ServantKind::Counter => Box::new(CounterServant::default()),
                    ServantKind::Blob { size } => Box::new(BlobServant::with_size(size)),
                };
                servant
            });
            groups.push((name, server, kind));
        }
        let burst = self.burst;
        let pairs = groups
            .into_iter()
            .map(|(name, server, kind)| {
                let op = kind.operation();
                let driver = cluster.deploy_client(
                    &format!("{name}-driver"),
                    self.driver.clone(),
                    move |_| Box::new(BurstClient::new(server, op, burst)),
                );
                OraclePair {
                    server,
                    driver,
                    kind,
                }
            })
            .collect();
        cluster.run_until_deployed();
        (cluster, pairs)
    }
}

/// Parameters of one campaign. Everything that affects the run is in
/// here — two equal configs produce byte-identical summaries.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the fault schedule; the cluster's network model is
    /// seeded with `seed + 1`.
    pub seed: u64,
    /// Number of fault steps to inject.
    pub steps: usize,
    /// What the campaign deploys. Its `cluster` carries every
    /// cluster-level option, such as Totem's batching budget or causal
    /// tracing (`cluster.trace`: a violating run then carries the
    /// flight-recorder dump of the last spans before the violation).
    pub topology: Topology,
    /// Plant a synthetic exactly-once bug: a run that dropped a frame
    /// or injected a fault reports the re-execution a broken duplicate
    /// detector would have produced. Exercises the detect → shrink →
    /// report → flight-recorder path end to end (CI asserts on it).
    pub force_violation: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            steps: 10,
            topology: Topology::campaign(60_000),
            force_violation: false,
        }
    }
}

impl CampaignConfig {
    /// Replays the schedule `pins` names: each pinned choice takes its
    /// branch, every other choice its default. A campaign's minimal
    /// counterexample replays through this.
    pub fn replay(&self, pins: &[Pin]) -> RunOutcome {
        explore::run_schedule(self, TraceSource::pinned(pins))
    }
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

/// Deterministic result of one campaign: a view of its run's outcome.
/// [`Display`](fmt::Display) renders it as the stable text block the CI
/// smoke job diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// The seed the campaign ran with.
    pub seed: u64,
    /// Fault steps injected.
    pub steps: usize,
    /// The campaign's run: faults, traffic, violations, end time, and
    /// the flight-recorder dump `repro -- chaos` writes.
    pub run: RunOutcome,
    /// The violating schedule shrunk to its load-bearing choices, with
    /// a regression-test skeleton; `None` when the campaign passed.
    pub counterexample: Option<Counterexample>,
}

/// Runs one campaign to completion: a walk of the run loop whose source
/// draws every fault from the seed; a violating run is shrunk.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    let run = explore::run_schedule(cfg, TraceSource::walk(cfg.seed, false));
    let counterexample = (!run.violations.is_empty())
        .then(|| explore::build_counterexample(cfg, &run, "chaos", "CampaignConfig::default()"));
    CampaignSummary {
        seed: cfg.seed,
        steps: cfg.steps,
        run,
        counterexample,
    }
}

impl CampaignSummary {
    /// Whether every invariant held at every quiescent point.
    pub fn passed(&self) -> bool {
        self.run.violations.is_empty()
    }

    /// Machine-readable rendering of the summary (the
    /// `repro -- chaos --json` export; the flight-recorder dump is a
    /// separate file and is not embedded). Byte-deterministic.
    pub fn to_json(&self) -> String {
        let r = &self.run;
        let mut w = JsonWriter::default();
        w.object(Layout::Block)
            .field("seed", self.seed)
            .field("steps", self.steps)
            .field("final_time_ns", r.final_time.as_nanos())
            .key("faults")
            .object(Layout::Spaced);
        for (name, n) in &r.faults {
            w.field(name, n);
        }
        w.end()
            .field("requests_dispatched", r.requests_dispatched)
            .field("replies_delivered", r.replies_delivered)
            .field("duplicates_suppressed", r.duplicates_suppressed)
            .field("recoveries_completed", r.recoveries_completed)
            .field("transfer_takeovers", r.transfer_takeovers)
            .field("dedup_gaps_skipped", r.dedup_gaps_skipped)
            .field("invariant_checks", r.invariant_checks)
            .key("violations")
            .array(Layout::Spaced);
        for v in &r.violations {
            v.write_json(&mut w);
        }
        w.end();
        if let Some(ce) = &self.counterexample {
            w.key("counterexample");
            ce.write_json(&mut w);
        }
        w.field("passed", self.passed()).end();
        w.finish()
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.run;
        writeln!(
            f,
            "chaos campaign: seed={} steps={} end={}",
            self.seed, self.steps, r.final_time
        )?;
        write!(f, "  faults:")?;
        for (name, n) in &r.faults {
            write!(f, " {name}={n}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  traffic: dispatched={} replies={} duplicates_suppressed={}",
            r.requests_dispatched, r.replies_delivered, r.duplicates_suppressed
        )?;
        writeln!(
            f,
            "  recovery: completed={} takeovers={} dedup_gaps_skipped={}",
            r.recoveries_completed, r.transfer_takeovers, r.dedup_gaps_skipped
        )?;
        writeln!(
            f,
            "  invariants: checks={} violations={}",
            r.invariant_checks,
            r.violations.len()
        )?;
        for v in &r.violations {
            writeln!(f, "    VIOLATION {v}")?;
        }
        if let Some(ce) = &self.counterexample {
            write!(f, "{ce}")?;
        }
        write!(
            f,
            "  verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

// ---- the fault step ----

/// Draws one fault from `source` and runs its script, for a campaign's
/// walk and an explored schedule alike. Branch 0 of the
/// [`ChoiceKind::Fault`] choice is "no fault", branch `i` is
/// [`FaultKind::ALL`]`[i - 1]`. The victim and every duration are
/// [`ChoiceKind::Param`] choices whose branch 0 is the first candidate
/// or the shortest span. Mid-transfer faults aim at `target`.
/// Partitions come at traffic quiescence and heal before traffic
/// resumes, so split replicas cannot diverge; the short hold still
/// lands the heal mid-reformation.
pub(crate) fn fault_step(
    cluster: &mut Cluster,
    source: &RefCell<dyn ChoiceSource>,
    target: GroupId,
) -> Option<FaultKind> {
    let kind = pick_fault(cluster, source, target)?;
    let param = |arity: usize| source.borrow_mut().choose(ChoiceKind::Param, arity);
    let ms = |base: u64, arity: usize| Duration::from_millis(base + param(arity) as u64);
    let us = |base: u64, arity: usize| Duration::from_micros(base + param(arity) as u64);
    match kind {
        FaultKind::KillReplica => {
            let groups = killable_groups(cluster);
            let group = groups[param(groups.len())];
            let hosting = cluster.hosting(group);
            cluster.kill_replica(group, hosting[param(hosting.len())]);
        }
        FaultKind::CrashRestart => {
            let candidates = crashable_processors(cluster);
            let victim = candidates[param(candidates.len())];
            let downtime = ms(20, 100);
            crash_restart(cluster, victim, downtime, downtime);
        }
        FaultKind::PartitionHeal => {
            let cut = 1 + param(cluster.live_processors().len() - 1);
            partition_heal(cluster, cut, ms(5, 55));
        }
        FaultKind::LossBurst => {
            // 53 uniform mantissa bits, as `SimRng::next_f64` draws them.
            let unit = param(1 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
            loss_burst(cluster, 0.05 + 0.25 * unit, 1, ms(20, 60));
        }
        FaultKind::DelaySpike => {
            let delay = us(200, 1_800);
            delay_spike(cluster, delay, true, ms(20, 60));
        }
        FaultKind::KillMidTransfer | FaultKind::KillDonorMidStream => {
            let hosting = cluster.hosting(target);
            let victim = hosting[param(hosting.len())];
            let into = || us(200, 1_800);
            if kind == FaultKind::KillDonorMidStream {
                kill_donor_mid_stream(cluster, target, victim, into);
            } else if let Some(new_host) = kill_mid_transfer(cluster, target, victim, into) {
                crash_restart(cluster, new_host, ms(20, 40), Duration::ZERO);
            }
        }
    }
    Some(kind)
}

/// The fault-kind choice of [`fault_step`], asked again (eight times at
/// most, then a loss burst, which always applies) while the drawn kind
/// does not apply right now.
fn pick_fault(
    cluster: &Cluster,
    source: &RefCell<dyn ChoiceSource>,
    target: GroupId,
) -> Option<FaultKind> {
    let arity = FaultKind::ALL.len() + 1;
    for _ in 0..8 {
        let branch = source.borrow_mut().choose(ChoiceKind::Fault, arity);
        let kind = FaultKind::ALL[branch.checked_sub(1)?.min(arity - 2)];
        let applicable = match kind {
            FaultKind::KillReplica => !killable_groups(cluster).is_empty(),
            FaultKind::CrashRestart => !crashable_processors(cluster).is_empty(),
            FaultKind::PartitionHeal => cluster.live_processors().len() >= 2,
            FaultKind::LossBurst | FaultKind::DelaySpike => true,
            FaultKind::KillMidTransfer => cluster.hosting(target).len() >= 2,
            // One host recovers, one donates, one survives to take the
            // stream over.
            FaultKind::KillDonorMidStream => cluster.hosting(target).len() >= 3,
        };
        if applicable {
            return Some(kind);
        }
    }
    Some(FaultKind::LossBurst)
}

/// Groups that keep at least one replica if one is killed.
fn killable_groups(cluster: &Cluster) -> Vec<GroupId> {
    cluster
        .groups()
        .into_iter()
        .map(|(g, _)| g)
        .filter(|&g| cluster.hosting(g).len() >= 2)
        .collect()
}

/// Processors whose crash leaves every group a replica: total loss has
/// nothing to transfer state from and is out of scope.
fn crashable_processors(cluster: &Cluster) -> Vec<NodeId> {
    cluster
        .live_processors()
        .into_iter()
        .filter(|&n| cluster.safe_to_crash(n))
        .collect()
}

// ---- fault scripts ----
//
// One script per multi-step fault, parameterised by victim and
// durations: [`fault_step`] asks its source for the parameters, the
// health lab (`health_lab.rs`) passes constants. A duration that is
// only needed once something has been observed is a closure, so a
// campaign draws it then and not before.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, steps: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            steps,
            topology: Topology::campaign(20_000),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn baseline_campaign_passes() {
        let summary = run_campaign(&quick(7, 3));
        assert!(summary.passed(), "{summary}");
        assert!(summary.run.requests_dispatched > 0);
        assert!(summary.run.replies_delivered > 0);
        assert_eq!(summary.run.invariant_checks, 4); // baseline + 3 steps
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
            a.run.faults != b.run.faults || a.run.requests_dispatched != b.run.requests_dispatched,
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
        summary.run.violations[0].detail = "\"\\\n\t\u{1}".into();
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
