//! Systematic schedule-space exploration with a single-copy oracle, and
//! the run loop every fault campaign goes through.
//!
//! A chaos campaign ([`crate::chaos`]) is one seeded walk through the
//! schedule space; this module searches it *systematically*, in the
//! style of stateless model checking. Every nondeterministic decision
//! is a **choice-point** ([`eternal_sim::choice`]): the same-instant
//! scheduler tie-break, the fate of each multicast frame (deliver /
//! drop / delay), and, between load steps, which of the seven
//! [`FaultKind`]s to inject with what victim and durations
//! ([`chaos::fault_step`]). Branch 0 is always the unmodified simulator
//! and "no fault". A schedule is named by its [`Pin`]s and
//! fingerprinted (FNV-1a over the recorded choice trace). The search
//! spends its budget on breadth-first expansion — every tie, frame and
//! token position inside a window, every fault position wherever it
//! lies — and then, a fixed share of it, on seeded random walks; the
//! same `(seed, budget)` explores the same schedules in the same order.
//! Every schedule is audited at each quiescent point by the shared
//! single-copy **oracle** ([`crate::oracle`]) and the recovery-time cap.
//! A violating schedule — explored or a campaign's — is **shrunk**,
//! replayed with causal tracing for a flight-recorder dump, and rendered
//! as a ready-to-paste regression test (`tests/explore_regressions.rs`).
//! Run it with `cargo run -p eternal-bench --bin repro -- explore
//! --quick`; see `docs/TESTING.md`.

use crate::chaos::{self, settle, CampaignConfig, FaultKind, Topology, Violation};
use crate::cluster::Cluster;
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::oracle::{Oracle, OracleConfig};
use eternal_obs::export::{JsonWriter, Layout};
use eternal_obs::{MetricsRegistry, RecoveryTimeline};
use eternal_sim::choice::{ChoiceKind, ChoiceSource};
use eternal_sim::rng::SimRng;
use eternal_sim::{Duration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Prefix expansion branches ties, frames and tokens only among a run's
/// first this-many recorded choices, and at most this many ways each.
const DFS_WINDOW: usize = 48;
const MAX_ARITY: usize = 3;

/// Per-run cap on the expansion's non-default branches (iterative
/// deepening) and on the ties, frames and tokens a walk perturbs.
const NONDEFAULT_BUDGET: usize = 4;

/// Probability numerator (out of 16) that a walk perturbs a tie, frame
/// or token choice while under [`NONDEFAULT_BUDGET`].
const WALK_BIAS: u64 = 3;

/// Cap on recorded tie, frame and token choices per run: past it they
/// default, which forces a perturbed run to drain deterministically.
/// Fault and parameter choices are never capped.
const MAX_TRACE: usize = 20_000;

/// One run in this many of the budget is a random walk.
const WALK_SHARE: usize = 8;

/// Bounds on settling after a step and on every completed recovery
/// episode: exceeding either is a bounded-recovery violation.
const SETTLE_CAP: Duration = Duration::from_secs(3);
const RECOVERY_CAP: Duration = Duration::from_millis(1_000);

/// Number of [`ChoiceKind`]s: pins count choices per kind.
const KINDS: usize = 5;

/// Parameters of one exploration. Everything that affects the search is
/// in here — two equal configs produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Total schedule runs the search may spend (baseline + prefix
    /// expansion + random walks; shrinking and the traced re-run are
    /// not counted against it).
    pub budget: usize,
    /// Every explored schedule's run: its seed (the walks' seeds derive
    /// from it), load steps, [`Topology`] and plant.
    pub run: CampaignConfig,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 2_048,
            run: CampaignConfig {
                seed: 42,
                steps: 2,
                topology: Topology::counter(),
                force_violation: false,
            },
        }
    }
}

impl ExploreConfig {
    /// The `--quick` preset: a budget sized for CI smoke jobs that
    /// still clears 500+ distinct schedule fingerprints.
    pub fn quick() -> Self {
        ExploreConfig {
            budget: 640,
            ..ExploreConfig::default()
        }
    }
}

/// One recorded choice-point resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedChoice {
    /// What kind of decision this was.
    pub kind: ChoiceKind,
    /// Its rank among the run's choices of that kind (what a [`Pin`]
    /// names).
    pub nth: usize,
    /// The branch taken (0 = default).
    pub branch: usize,
    /// How many branches were available.
    pub arity: usize,
}

/// A forced branch: the `nth` (from 0) recorded choice of `kind` in a
/// run takes `branch`. Pins count per kind, so dropping a fault leaves
/// the other faults' pins on their own steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// The kind of choice pinned.
    pub kind: ChoiceKind,
    /// Its rank among the run's choices of that kind.
    pub nth: usize,
    /// The branch it takes.
    pub branch: usize,
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}={}", self.kind.name(), self.nth, self.branch)
    }
}

/// The deterministic result of running one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// FNV-1a fingerprint of the recorded choice trace.
    pub fingerprint: u64,
    /// Every recorded choice-point resolution, in order.
    pub trace: Vec<RecordedChoice>,
    /// Injected faults by kind name.
    pub faults: BTreeMap<&'static str, u64>,
    /// Violations, in discovery order.
    pub violations: Vec<Violation>,
    /// Invariant checks run (baseline + one per step).
    pub invariant_checks: u64,
    /// Virtual time at the end of the run.
    pub final_time: SimTime,
    /// Frames dropped by non-default frame-fate branches.
    pub frames_dropped: u64,
    /// Frames delayed by non-default frame-fate branches.
    pub frames_delayed: u64,
    /// Requests executed by server replicas.
    pub requests_dispatched: u64,
    /// Replies delivered to client replicas.
    pub replies_delivered: u64,
    /// Duplicate operations suppressed by the mechanisms.
    pub duplicates_suppressed: u64,
    /// Completed §5.1 recovery episodes.
    pub recoveries_completed: u64,
    /// Chunked transfers resumed from a dead donor's cursor (live
    /// processors at the end).
    pub transfer_takeovers: u64,
    /// Request-ids force-skipped by dedup window eviction (live
    /// processors at the end; Totem's reliability keeps it 0).
    pub dedup_gaps_skipped: u64,
    /// The flight-recorder dump, when the topology was causal and an
    /// invariant was violated.
    pub flight_recorder: Option<String>,
}

impl RunOutcome {
    /// The trace's non-default choices as pins — the schedule that
    /// reproduces this run.
    pub fn pins(&self) -> Vec<Pin> {
        let pinned = self.trace.iter().filter(|c| c.branch != 0);
        pinned
            .map(|c| Pin {
                kind: c.kind,
                nth: c.nth,
                branch: c.branch,
            })
            .collect()
    }
}

/// The recording [`ChoiceSource`] every run installs: pinned choices
/// take their branch, the rest come from a seeded walk or default.
///
/// A walk injects a fault at every fault choice, `1 + gen_range(arity -
/// 1)`, and draws every parameter as `gen_range(arity)`: in the order
/// the fault step asks, these are a chaos campaign's draws. With
/// `perturb`, a tie, frame or token choice also takes a non-default
/// branch with probability [`WALK_BIAS`]/16 until [`NONDEFAULT_BUDGET`]
/// are taken; without, it keeps its default.
#[derive(Debug, Default)]
pub(crate) struct TraceSource {
    pins: Vec<Pin>,
    walk: Option<SimRng>,
    perturb: bool,
    perturbed: usize,
    /// Choices recorded so far, per kind.
    seen: [usize; KINDS],
    taken: Vec<RecordedChoice>,
}

impl TraceSource {
    /// Replays `pins`; every other choice takes its default.
    pub(crate) fn pinned(pins: &[Pin]) -> Self {
        TraceSource {
            pins: pins.to_vec(),
            ..TraceSource::default()
        }
    }

    /// A walk seeded with `seed`.
    pub(crate) fn walk(seed: u64, perturb: bool) -> Self {
        TraceSource {
            walk: Some(SimRng::seed_from_u64(seed)),
            perturb,
            ..TraceSource::default()
        }
    }
}

impl ChoiceSource for TraceSource {
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        let fault = matches!(kind, ChoiceKind::Fault | ChoiceKind::Param);
        if !fault && (arity < 2 || self.taken.len() >= MAX_TRACE) {
            return 0;
        }
        let nth = self.seen[kind as usize];
        self.seen[kind as usize] += 1;
        let pin = self.pins.iter().find(|p| p.kind == kind && p.nth == nth);
        let branch = match (pin, &mut self.walk) {
            // Clamped in case the schedule diverged and this point got
            // narrower.
            (Some(pin), _) => pin.branch.min(arity - 1),
            (None, None) => 0,
            (None, Some(rng)) => match kind {
                ChoiceKind::Fault => 1 + rng.gen_range(arity as u64 - 1) as usize,
                ChoiceKind::Param => rng.gen_range(arity as u64) as usize,
                _ if self.perturb
                    && self.perturbed < NONDEFAULT_BUDGET
                    && rng.gen_range(16) < WALK_BIAS =>
                {
                    self.perturbed += 1;
                    1 + rng.gen_range(arity as u64 - 1) as usize
                }
                _ => 0,
            },
        };
        self.taken.push(RecordedChoice {
            kind,
            nth,
            branch,
            arity,
        });
        branch
    }
}

/// A run's cluster and what its audits have found.
struct Audit {
    cluster: Cluster,
    oracle: Oracle,
    violations: Vec<Violation>,
    recoveries_seen: usize,
}

impl Audit {
    fn violation(&mut self, step: usize, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            step,
            invariant,
            detail,
        });
    }

    /// Settles, then audits: the oracle's invariants (1, 2, 4, 5, 6
    /// and the single-copy replay) and invariant 3 — the cluster
    /// quiesced, and every newly completed recovery finished within
    /// the cap.
    fn check(&mut self, step: usize) {
        let settled = settle(&mut self.cluster, SETTLE_CAP);
        if !settled {
            self.violation(
                step,
                "bounded-recovery",
                format!("cluster failed to quiesce within {SETTLE_CAP}"),
            );
        }
        for v in self.oracle.check(&mut self.cluster) {
            self.violation(step, v.invariant, v.detail);
        }
        let timelines = self.cluster.recovery_timelines();
        let overruns: Vec<Duration> = timelines[self.recoveries_seen..]
            .iter()
            .map(RecoveryTimeline::recovery_time)
            .filter(|&took| took > RECOVERY_CAP)
            .collect();
        self.recoveries_seen = timelines.len();
        for took in overruns {
            self.violation(
                step,
                "bounded-recovery",
                format!("episode took {took} (cap {RECOVERY_CAP})"),
            );
        }
    }
}

/// The run loop: deploys `cfg`'s topology (network seed `seed + 1`),
/// installs `source`, settles and audits a baseline, then per step
/// asks for a fault, re-bursts the drivers, settles and audits; applies
/// the plant and returns the outcome.
pub(crate) fn run_schedule(cfg: &CampaignConfig, source: TraceSource) -> RunOutcome {
    let topology = &cfg.topology;
    let (mut cluster, pairs) = topology.deploy(cfg.seed.wrapping_add(1));
    let target = pairs[topology.target].server;
    let source = Rc::new(RefCell::new(source));
    cluster.set_choice_source(source.clone());
    let oracle = Oracle::new(OracleConfig {
        suffix_checkpoint_len: topology.cluster.mech.suffix_checkpoint_len,
    });
    let mut audit = Audit {
        cluster,
        oracle: pairs.into_iter().fold(oracle, Oracle::with_pair),
        violations: Vec::new(),
        recoveries_seen: 0,
    };
    let mut faults = BTreeMap::new();
    audit.check(0);
    for step in 1..=cfg.steps {
        if let Some(kind) = chaos::fault_step(&mut audit.cluster, &*source, target) {
            *faults.entry(kind.name()).or_insert(0) += 1;
        }
        audit.cluster.kick_clients();
        audit.check(step);
    }

    // The plant (`force_violation`): pretend duplicate detection is
    // broken under loss — a schedule that dropped a frame or injected a
    // fault "re-executed" the retransmitted invocations. Synthetic, but
    // schedule-dependent the way a real dedup bug is, so shrinking must
    // converge on one drop or one fault.
    let registry = audit.cluster.metrics_registry();
    let frames_dropped = registry.counter("explore.frames_dropped");
    let injected: u64 = faults.values().sum();
    if cfg.force_violation && frames_dropped + injected > 0 {
        audit.violation(
            cfg.steps,
            "exactly-once",
            format!(
                "planted dedup bug: {frames_dropped} dropped frame(s) and {injected} fault(s) \
                 re-executed on retransmit"
            ),
        );
    }

    let Audit {
        cluster,
        violations,
        ..
    } = audit;
    let trace = std::mem::take(&mut source.borrow_mut().taken);
    let fingerprint = trace.iter().fold(FNV_OFFSET, |fp, c| {
        let fp = fnv1a(fp, &[c.kind.tag()]);
        let fp = fnv1a(fp, &(c.arity as u64).to_le_bytes());
        fnv1a(fp, &(c.branch as u64).to_le_bytes())
    });
    let flight_recorder = (topology.cluster.trace && !violations.is_empty()).then(|| {
        let reason = violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        cluster.causal().flight_recorder_json(&reason)
    });
    let m = cluster.metrics();
    let live = cluster.live_processors();
    let mechs = || live.iter().map(|&n| cluster.mechanisms(n));
    RunOutcome {
        fingerprint,
        trace,
        faults,
        violations,
        invariant_checks: cfg.steps as u64 + 1,
        final_time: cluster.now(),
        frames_dropped,
        frames_delayed: registry.counter("explore.frames_delayed"),
        requests_dispatched: m.requests_dispatched,
        replies_delivered: m.replies_delivered,
        duplicates_suppressed: m.duplicates_suppressed,
        recoveries_completed: m.recoveries_completed,
        transfer_takeovers: mechs().map(|mech| mech.counters().transfer_takeovers).sum(),
        dedup_gaps_skipped: mechs().map(|mech| mech.dedup_gaps_skipped()).sum(),
        flight_recorder,
    }
}

/// A shrunk counterexample schedule, ready to be pinned as a test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Fingerprint of the *minimal* schedule's trace.
    pub fingerprint: u64,
    /// The minimal schedule: every pin is load-bearing.
    pub pins: Vec<Pin>,
    /// Violations the minimal schedule produces.
    pub violations: Vec<Violation>,
    /// Pins before shrinking (the violating run's non-default choices).
    pub shrunk_from: usize,
    /// Schedule re-runs the shrinker spent.
    pub shrink_runs: usize,
    /// Ready-to-paste regression test.
    pub skeleton: String,
    /// Flight-recorder dump of the minimal schedule's run.
    pub flight_recorder: Option<String>,
}

impl Counterexample {
    pub(crate) fn write_json<'w>(&self, w: &'w mut JsonWriter) -> &'w mut JsonWriter {
        w.object(Layout::Block)
            .field_str("fingerprint", format_args!("{:#018x}", self.fingerprint))
            .key("pins")
            .array(Layout::Spaced);
        for p in &self.pins {
            w.object(Layout::Spaced)
                .field_str("kind", p.kind.name())
                .field("nth", p.nth)
                .field("branch", p.branch)
                .end();
        }
        w.end().key("violations").array(Layout::Spaced);
        for v in &self.violations {
            v.write_json(w);
        }
        w.end()
            .field("shrunk_from", self.shrunk_from)
            .field("shrink_runs", self.shrink_runs)
            .field_str("skeleton", &self.skeleton)
            .key("flight_recorder");
        match &self.flight_recorder {
            Some(dump) => w.string(dump),
            None => w.value("null"),
        };
        w.end()
    }
}

/// The report lines of a counterexample: pins, violations, skeleton.
impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pins = self.pins.iter().map(Pin::to_string).collect::<Vec<_>>();
        writeln!(
            f,
            "  counterexample: fingerprint={:#018x} pins=[{}] (shrunk from {} in {} runs)",
            self.fingerprint,
            pins.join(", "),
            self.shrunk_from,
            self.shrink_runs
        )?;
        for v in &self.violations {
            writeln!(f, "    {v}")?;
        }
        writeln!(f, "  regression skeleton:")?;
        for line in self.skeleton.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Deterministic result of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// The seed explored with.
    pub seed: u64,
    /// The configured run budget.
    pub budget: usize,
    /// Schedules run (the search stops at the first violation).
    pub runs: usize,
    /// Distinct schedule fingerprints among them.
    pub distinct_fingerprints: usize,
    /// Runs from the breadth-first prefix expansion.
    pub dfs_runs: usize,
    /// Runs from the seeded random-walk phase.
    pub walk_runs: usize,
    /// Recorded choice-points, by kind name, over all runs.
    pub choice_counts: BTreeMap<&'static str, u64>,
    /// Non-default fault branches that injected a fault, by
    /// [`FaultKind`] name (every kind listed), over all runs.
    pub fault_branches: BTreeMap<&'static str, u64>,
    /// The most non-default branches any one run took.
    pub max_nondefault: usize,
    /// Frames dropped by explored branches, over all runs.
    pub frames_dropped: u64,
    /// Frames delayed by explored branches, over all runs.
    pub frames_delayed: u64,
    /// Longest recorded trace.
    pub max_trace_len: usize,
    /// Largest per-run final virtual time, nanoseconds.
    pub max_final_time_ns: u64,
    /// The first (shrunk) counterexample, if any schedule violated.
    pub counterexample: Option<Counterexample>,
    /// Histograms of trace lengths and non-default branches per run.
    pub registry: MetricsRegistry,
}

impl ExploreReport {
    /// Whether every explored schedule satisfied the oracle.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Machine-readable rendering (the `repro -- explore --json`
    /// export). Byte-deterministic: equal configs produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Block)
            .field("schema", 2)
            .field_str("tool", "explore")
            .field("seed", self.seed)
            .field("budget", self.budget)
            .field("runs", self.runs)
            .field("distinct_fingerprints", self.distinct_fingerprints)
            .field("dfs_runs", self.dfs_runs)
            .field("walk_runs", self.walk_runs)
            .field("max_nondefault", self.max_nondefault);
        for (key, counts) in [
            ("choice_points", &self.choice_counts),
            ("fault_branches", &self.fault_branches),
        ] {
            w.key(key).object(Layout::Spaced);
            for (name, n) in counts {
                w.field(name, n);
            }
            w.end();
        }
        w.field("frames_dropped", self.frames_dropped)
            .field("frames_delayed", self.frames_delayed)
            .field("max_trace_len", self.max_trace_len)
            .field("max_final_time_ns", self.max_final_time_ns)
            .key("counterexample");
        match &self.counterexample {
            None => w.value("null"),
            Some(ce) => ce.write_json(&mut w),
        };
        w.field("passed", self.passed()).end();
        w.finish()
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explore: seed={} budget={} runs={} distinct={} (dfs={} walks={})",
            self.seed,
            self.budget,
            self.runs,
            self.distinct_fingerprints,
            self.dfs_runs,
            self.walk_runs
        )?;
        let line = |counts: &BTreeMap<&str, u64>| {
            let pairs = counts.iter().map(|(name, n)| format!("{name}={n}"));
            pairs.collect::<Vec<_>>().join(" ")
        };
        writeln!(f, "  choice-points: {}", line(&self.choice_counts))?;
        writeln!(f, "  fault branches: {}", line(&self.fault_branches))?;
        writeln!(
            f,
            "  frames dropped={} delayed={} max-nondefault={} max-trace={} max-time={}ns",
            self.frames_dropped,
            self.frames_delayed,
            self.max_nondefault,
            self.max_trace_len,
            self.max_final_time_ns
        )?;
        if let Some(ce) = &self.counterexample {
            write!(f, "{ce}")?;
        }
        for line in self.registry.render().lines() {
            writeln!(f, "  {line}")?;
        }
        write!(
            f,
            "  verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs one exploration to completion: baseline, bounded breadth-first
/// prefix expansion, seeded random walks; stops early at the first
/// violating schedule, which it shrinks and reports.
pub fn run_explore(cfg: &ExploreConfig) -> ExploreReport {
    let seed = cfg.run.seed;
    let mut r = ExploreReport {
        seed,
        budget: cfg.budget,
        fault_branches: FaultKind::ALL.iter().map(|k| (k.name(), 0)).collect(),
        ..ExploreReport::default()
    };
    let dfs_budget = cfg.budget - cfg.budget / WALK_SHARE;
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: VecDeque<Vec<Pin>> = VecDeque::from([Vec::new()]); // the baseline
    while r.runs < cfg.budget {
        let pins = queue.pop_front().filter(|_| r.runs < dfs_budget);
        let from_dfs = pins.is_some();
        let source = match pins {
            Some(pins) => {
                r.dfs_runs += 1;
                TraceSource::pinned(&pins)
            }
            None => {
                r.walk_runs += 1;
                let salt = (r.runs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                TraceSource::walk(seed.wrapping_add(salt), true)
            }
        };
        let outcome = run_schedule(&cfg.run, source);
        r.runs += 1;
        seen.insert(outcome.fingerprint);
        let trace_len = outcome.trace.len();
        r.registry
            .histogram_record_value("explore.trace_len", trace_len as u64);
        let nondefault = outcome.trace.iter().filter(|c| c.branch != 0).count();
        r.registry
            .histogram_record_value("explore.nondefault_per_run", nondefault as u64);
        for c in &outcome.trace {
            *r.choice_counts.entry(c.kind.name()).or_insert(0) += 1;
        }
        for (name, n) in &outcome.faults {
            *r.fault_branches.entry(name).or_insert(0) += n;
        }
        r.frames_dropped += outcome.frames_dropped;
        r.frames_delayed += outcome.frames_delayed;
        r.max_nondefault = r.max_nondefault.max(nondefault);
        r.max_trace_len = r.max_trace_len.max(trace_len);
        r.max_final_time_ns = r.max_final_time_ns.max(outcome.final_time.as_nanos());

        if !outcome.violations.is_empty() {
            let ty = "eternal::explore::ExploreConfig::default().run";
            r.counterexample = Some(build_counterexample(&cfg.run, &outcome, "explore", ty));
            break;
        }

        // Breadth-first expansion: one extra non-default branch per
        // child (iterative deepening via queue order), at each position
        // past this run's last non-default one — tie, frame and token
        // positions inside the window, fault positions anywhere.
        if from_dfs && nondefault < NONDEFAULT_BUDGET {
            let parent = outcome.pins();
            let explored_from = outcome
                .trace
                .iter()
                .rposition(|c| c.branch != 0)
                .map_or(0, |p| p + 1);
            for (pos, c) in outcome.trace.iter().enumerate().skip(explored_from) {
                let arity = match c.kind {
                    ChoiceKind::Fault => c.arity,
                    ChoiceKind::Param => 1,
                    _ if pos < DFS_WINDOW => c.arity.min(MAX_ARITY),
                    _ => 1,
                };
                for branch in 1..arity {
                    if queue.len() + r.runs >= dfs_budget {
                        break;
                    }
                    let mut child = parent.clone();
                    child.push(Pin {
                        kind: c.kind,
                        nth: c.nth,
                        branch,
                    });
                    queue.push_back(child);
                }
            }
        }
    }
    r.distinct_fingerprints = seen.len();
    r
}

/// Shrinks a violating run to a minimal schedule, replays it with
/// causal tracing for the flight-recorder artifact, and renders the
/// regression-test skeleton (`origin` names the `repro` tool, `base`
/// the config expression the skeleton's run starts from).
pub(crate) fn build_counterexample(
    cfg: &CampaignConfig,
    found: &RunOutcome,
    origin: &str,
    base: &str,
) -> Counterexample {
    let original = found.pins();
    let mut pins = original.clone();
    let mut shrink_runs = 0;
    // Greedy delta-debugging: drop each pin, right to left (later
    // choices — usually consequences — go first), keeping the drop
    // whenever the violation still reproduces; repeat until a pass
    // drops nothing. A dropped pin takes its default: a dropped fault
    // is no fault, a dropped parameter its first candidate or smallest
    // value.
    loop {
        let before = pins.len();
        for i in (0..pins.len()).rev() {
            let mut candidate = pins.clone();
            candidate.remove(i);
            shrink_runs += 1;
            if !cfg.replay(&candidate).violations.is_empty() {
                pins = candidate;
            }
        }
        if pins.len() == before {
            break;
        }
    }
    // The minimal schedule, traced for the flight recorder: tracing puts
    // nothing on the wire, so the traced run is the run.
    let mut traced = cfg.clone();
    traced.topology.cluster.trace = true;
    let minimal = traced.replay(&pins);
    let fp = minimal.fingerprint;
    let violated: String = minimal
        .violations
        .iter()
        .map(|v| format!("/// Violated: {v}\n"))
        .collect();
    let pinned: String = pins
        .iter()
        .map(|p| {
            let (kind, nth, branch) = (p.kind, p.nth, p.branch);
            format!("        Pin {{ kind: ChoiceKind::{kind:?}, nth: {nth}, branch: {branch} }},\n")
        })
        .collect();
    let (seed, steps, plant) = (cfg.seed, cfg.steps, cfg.force_violation);
    let skeleton = format!(
        "/// Pinned by `repro -- {origin} --seed {seed}`: schedule {fp:#018x}.
{violated}#[test]
fn {origin}_regression_{fp:016x}() {{
    use eternal::chaos::CampaignConfig;
    use eternal::explore::Pin;
    use eternal_sim::choice::ChoiceKind;
    let cfg = CampaignConfig {{
        seed: {seed},
        steps: {steps},
        force_violation: {plant},
        // plus any edit the run made to its topology
        ..{base}
    }};
    let outcome = cfg.replay(&[
{pinned}    ]);
    // While the bug is unfixed this documents it; once fixed, flip to
    // assert the schedule stays clean.
    assert!(
        outcome.violations.is_empty(),
        \"schedule {fp:#018x} violated: {{:?}}\",
        outcome.violations
    );
}}
"
    );
    Counterexample {
        fingerprint: fp,
        skeleton,
        pins,
        violations: minimal.violations,
        shrunk_from: original.len(),
        shrink_runs,
        flight_recorder: minimal.flight_recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExploreConfig {
        let mut cfg = ExploreConfig {
            budget: 10,
            ..ExploreConfig::default()
        };
        cfg.run.steps = 1;
        cfg
    }

    #[test]
    fn baseline_schedule_is_clean_and_reproducible() {
        let a = tiny().run.replay(&[]);
        let b = tiny().run.replay(&[]);
        assert!(
            a.violations.is_empty(),
            "baseline violated: {:?}",
            a.violations
        );
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.final_time, b.final_time);
        assert!(!a.trace.is_empty(), "no choice-points recorded");
    }

    #[test]
    fn non_default_branch_changes_the_fingerprint() {
        let base = tiny().run.replay(&[]);
        let permuted = tiny().run.replay(&[Pin {
            kind: base.trace[0].kind,
            nth: 0,
            branch: 1,
        }]);
        assert_ne!(base.fingerprint, permuted.fingerprint);
        // And both schedules still satisfy the oracle.
        assert!(permuted.violations.is_empty(), "{:?}", permuted.violations);
    }

    #[test]
    fn explore_reports_are_byte_identical_across_runs() {
        let cfg = tiny();
        let a = run_explore(&cfg);
        let b = run_explore(&cfg);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.runs, cfg.budget);
        assert!(a.distinct_fingerprints > 1);
        assert!(a.passed());
    }

    #[test]
    fn forced_violation_is_found_shrunk_and_reported() {
        let mut cfg = ExploreConfig {
            budget: 64,
            ..tiny()
        };
        cfg.run.force_violation = true;
        let report = run_explore(&cfg);
        assert!(!report.passed());
        let ce = report.counterexample.expect("counterexample");
        assert!(
            ce.violations.iter().any(|v| v.invariant == "exactly-once"),
            "planted bug not detected: {:?}",
            ce.violations
        );
        // Minimality: every pin is load-bearing, and for the planted
        // bug one dropped frame or one fault suffices.
        assert_eq!(
            ce.pins.len(),
            1,
            "shrunk schedule not minimal: {:?}",
            ce.pins
        );
        assert!(ce.skeleton.contains("cfg.replay(&["));
        assert!(ce.skeleton.contains(&format!("seed: {}", cfg.run.seed)));
        // The pinned schedule reproduces the violation on replay.
        let again = cfg.run.replay(&ce.pins);
        assert!(!again.violations.is_empty());
    }

    /// The trace cap bounds only the recorded ties, frames and tokens:
    /// a campaign that runs past it still injects a fault every step.
    #[test]
    fn faults_past_the_trace_cap_still_fire() {
        let summary = crate::chaos::run_campaign(&CampaignConfig {
            seed: 4,
            steps: 14,
            topology: Topology::campaign(20_000),
            force_violation: false,
        });
        assert!(summary.passed(), "{summary}");
        assert_eq!(summary.run.faults.values().sum::<u64>(), 14);
        let trace = &summary.run.trace;
        let last = trace.iter().rposition(|c| c.kind == ChoiceKind::Fault);
        assert!(last.is_some_and(|pos| pos >= MAX_TRACE), "{last:?}");
    }

    /// As for the chaos export: a hostile violation detail comes out as
    /// an escaped JSON string.
    #[test]
    fn hostile_violation_detail_is_escaped_in_the_export() {
        let mut cfg = ExploreConfig {
            budget: 64,
            ..tiny()
        };
        cfg.run.force_violation = true;
        let mut report = run_explore(&cfg);
        report.counterexample.as_mut().expect("planted").violations[0].detail =
            "\"\\\n\t\u{1}".into();
        let json = report.to_json();
        assert!(
            json.contains(r#""detail": "\"\\\n\t\u0001"}"#),
            "detail not escaped: {json}"
        );
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let report = run_explore(&tiny());
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"counterexample\": null"));
        assert!(json.contains("\"passed\": true"));
    }
}
