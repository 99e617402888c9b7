//! Systematic schedule-space exploration with a single-copy oracle.
//!
//! The chaos campaigns ([`crate::chaos`]) sample the interleaving space
//! along randomly-seeded fault schedules: each seed is one trajectory,
//! and a bug that needs a specific event permutation can hide for a
//! long time. This module searches the space *systematically* instead,
//! in the style of stateless model checking:
//!
//! - Every nondeterministic decision the simulator makes is an explicit
//!   **choice-point** ([`eternal_sim::choice`]): the same-instant
//!   scheduler tie-break, the fate of each multicast frame at Totem
//!   token-visit and delivery boundaries (deliver / drop / delay), and
//!   coarse fault injection between load steps (kill a replica).
//!   Branch 0 of every choice-point is the unmodified simulator
//!   behaviour, so the all-defaults schedule is byte-identical to a
//!   normal run.
//! - A **search** walks distinct schedules: bounded breadth-first
//!   expansion over choice prefixes (iterative deepening in the number
//!   of non-default branches) followed by seeded random walks, all
//!   under one run budget. Each schedule is fingerprinted (FNV-1a over
//!   the recorded choice trace) for dedup and byte-identical
//!   resumability: the same `(seed, budget)` explores the same
//!   schedules in the same order, always.
//! - Every explored schedule is audited by the shared single-copy
//!   **oracle** ([`crate::oracle`]) at each quiescent point:
//!   convergence, exactly-once effects, and byte-equality of the
//!   replicated state against an unreplicated reference servant that
//!   replayed the observed history serially.
//!
//! On a violation the explorer **shrinks** the choice trace — zeroing
//! non-default branches one at a time while the violation reproduces —
//! re-runs the minimal schedule with causal tracing armed to capture a
//! flight-recorder dump, and emits a ready-to-paste regression-test
//! skeleton (see `tests/explore_regressions.rs` for pinned examples).
//! Run it from the command line: `cargo run -p eternal-bench --bin
//! repro -- explore --quick --json EXPLORE_eternal.json`; see
//! `docs/TESTING.md`.

use crate::app::{BurstClient, CounterServant};
use crate::chaos::{settle, Violation};
use crate::cluster::{Cluster, ClusterConfig};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::oracle::{Oracle, OracleConfig, OraclePair, ServantKind};
use crate::properties::FaultToleranceProperties;
use eternal_obs::export::{JsonWriter, Layout};
use eternal_obs::{EventKind, MetricsRegistry};
use eternal_sim::choice::{ChoiceKind, ChoiceSource};
use eternal_sim::rng::SimRng;
use eternal_sim::Duration;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

/// Cluster size per run.
const PROCESSORS: u32 = 3;

/// Two-way invocations each driver replica issues per load tick.
const BURST: u64 = 2;

/// Prefix expansion window: only the first this-many recorded choice
/// positions of a run are branched during the breadth-first phase (the
/// tail is covered by random walks).
const DFS_WINDOW: usize = 48;

/// Max branches explored per position during prefix expansion (arity
/// is clamped to this).
const MAX_ARITY: usize = 3;

/// Settle-loop deadline per step; exceeding it is a bounded-recovery
/// violation.
const SETTLE_CAP: Duration = Duration::from_secs(2);

/// Parameters of one exploration. Everything that affects the search is
/// in here — two equal configs produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seed of the cluster's network model and of the random-walk tail.
    pub seed: u64,
    /// Total schedule runs the search may spend (baseline + prefix
    /// expansion + random walks; shrinking and the traced re-run are
    /// not counted against it).
    pub budget: usize,
    /// Load steps per run: each step optionally injects a fault
    /// choice, kicks the drivers, settles, and audits the oracle.
    pub steps: usize,
    /// Per-run cap on non-default branches: bounds both the expansion
    /// depth (iterative deepening) and a random walk's divergence.
    pub nondefault_budget: usize,
    /// Random-walk bias: probability numerator (out of 16) that a walk
    /// takes a non-default branch at each choice-point.
    pub walk_bias: u64,
    /// Per-run step budget: hard cap on recorded choice-points; past
    /// it every choice defaults, which forces the run to drain
    /// deterministically.
    pub max_trace: usize,
    /// Plant a synthetic exactly-once bug that fires whenever a
    /// schedule actually drops a frame: the run then reports the
    /// re-execution a broken duplicate detector would have produced.
    /// Exercises the detect → shrink → report path end to end (the CI
    /// explore-smoke job asserts on it), like
    /// [`CampaignConfig::force_violation`](crate::chaos::CampaignConfig::force_violation)
    /// does for the chaos path.
    pub force_violation: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 42,
            budget: 2_048,
            steps: 2,
            nondefault_budget: 4,
            walk_bias: 3,
            max_trace: 20_000,
            force_violation: false,
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
    /// The branch taken (0 = default).
    pub branch: u8,
    /// How many branches were available.
    pub arity: u8,
}

/// The deterministic result of running one schedule.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// FNV-1a fingerprint of the recorded choice trace.
    pub fingerprint: u64,
    /// Every armed choice-point resolution, in order.
    pub trace: Vec<RecordedChoice>,
    /// Oracle violations, in discovery order.
    pub violations: Vec<Violation>,
    /// Virtual time at the end of the run, nanoseconds.
    pub final_time_ns: u64,
    /// Frames dropped by non-default frame-fate branches.
    pub frames_dropped: u64,
    /// Frames delayed by non-default frame-fate branches.
    pub frames_delayed: u64,
}

impl RunOutcome {
    /// The branch sequence of the trace, trimmed to the last
    /// non-default branch — the prefix that reproduces this schedule.
    pub fn prefix(&self) -> Vec<u8> {
        let mut branches: Vec<u8> = self.trace.iter().map(|c| c.branch).collect();
        while branches.last() == Some(&0) {
            branches.pop();
        }
        branches
    }
}

/// The recording/replaying [`ChoiceSource`] the explorer installs into
/// each run's cluster.
#[derive(Debug)]
struct TraceSource {
    /// Branches to force at the first recorded positions.
    prefix: Vec<u8>,
    /// Random tail for walk runs (`None`: defaults after the prefix).
    rng: Option<SimRng>,
    walk_bias: u64,
    nondefault_budget: usize,
    max_trace: usize,
    /// Recording starts only once armed (post-deployment), so trace
    /// positions are stable relative to the first load step.
    armed: bool,
    taken: Vec<RecordedChoice>,
    walk_nondefault: usize,
}

impl TraceSource {
    fn new(prefix: Vec<u8>, rng: Option<SimRng>, cfg: &ExploreConfig) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(TraceSource {
            prefix,
            rng,
            walk_bias: cfg.walk_bias,
            nondefault_budget: cfg.nondefault_budget,
            max_trace: cfg.max_trace,
            armed: false,
            taken: Vec::new(),
            walk_nondefault: 0,
        }))
    }
}

impl ChoiceSource for TraceSource {
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        if !self.armed || arity < 2 || self.taken.len() >= self.max_trace {
            return 0;
        }
        let pos = self.taken.len();
        let branch = if pos < self.prefix.len() {
            // Replay: forced branches are exact (clamped to arity in
            // case the schedule diverged and this point got narrower).
            usize::from(self.prefix[pos]).min(arity - 1)
        } else if let Some(rng) = &mut self.rng {
            // Walk tail, bounded by the non-default budget.
            if self.walk_nondefault < self.nondefault_budget && rng.gen_range(16) < self.walk_bias {
                self.walk_nondefault += 1;
                1 + rng.gen_range(arity as u64 - 1) as usize
            } else {
                0
            }
        } else {
            0
        };
        self.taken.push(RecordedChoice {
            kind,
            branch: branch as u8,
            arity: arity.min(u8::MAX as usize) as u8,
        });
        branch
    }
}

/// Replays the schedule identified by `prefix` (branch `prefix[i]` at
/// the `i`-th armed choice-point, defaults afterwards) and returns its
/// outcome. This is the resumability API: pinned regression tests in
/// `tests/explore_regressions.rs` call it with emitted minimal
/// schedules, and `run_explore` itself uses nothing stronger.
pub fn replay_prefix(cfg: &ExploreConfig, prefix: &[u8]) -> RunOutcome {
    run_schedule(cfg, prefix.to_vec(), None, false).0
}

/// Runs one schedule: `prefix` forced, then either defaults or a
/// seeded random tail. With `causal`, the cluster records causal spans
/// and the returned string holds the flight-recorder dump (present
/// only when the run violated).
fn run_schedule(
    cfg: &ExploreConfig,
    prefix: Vec<u8>,
    walk_seed: Option<u64>,
    causal: bool,
) -> (RunOutcome, Option<String>) {
    let cluster_cfg = ClusterConfig {
        processors: PROCESSORS,
        trace: causal,
        causal,
        ..ClusterConfig::default()
    };
    let suffix_threshold = cluster_cfg.mech.suffix_checkpoint_len;
    let mut cluster = Cluster::new(cluster_cfg, cfg.seed);
    let server = cluster.deploy_server(
        "explore-counter",
        FaultToleranceProperties::active(2),
        || Box::new(CounterServant::default()),
    );
    let driver = cluster.deploy_client(
        "explore-driver",
        FaultToleranceProperties::active(1),
        move |_| Box::new(BurstClient::new(server, "increment", BURST)),
    );
    cluster.run_until_deployed();

    let source = TraceSource::new(prefix, walk_seed.map(SimRng::seed_from_u64), cfg);
    cluster.set_choice_source(source.clone());
    source.borrow_mut().armed = true;

    let oracle = Oracle::new(OracleConfig {
        suffix_checkpoint_len: suffix_threshold,
    })
    .with_pair(OraclePair {
        server,
        driver,
        kind: ServantKind::Counter,
    });

    let mut violations = Vec::new();
    let audit =
        |cluster: &mut Cluster, violations: &mut Vec<Violation>, step: usize, settled: bool| {
            if !settled {
                violations.push(Violation {
                    step,
                    invariant: "bounded-recovery",
                    detail: format!("cluster failed to quiesce within {SETTLE_CAP}"),
                });
            }
            for v in oracle.check(cluster) {
                violations.push(Violation {
                    step,
                    invariant: v.invariant,
                    detail: v.detail,
                });
            }
        };

    // Post-deployment baseline, then the load steps.
    let settled = settle(&mut cluster, SETTLE_CAP);
    audit(&mut cluster, &mut violations, 0, settled);
    for step in 1..=cfg.steps {
        // Fault choice-point: when the server group can lose a replica,
        // branch 1 kills its first live one (auto-recovery then brings
        // a replacement up through the §5.1 state transfer, all inside
        // the explored schedule).
        let live: Vec<_> = cluster
            .hosting(server)
            .into_iter()
            .filter(|&n| cluster.is_alive(n))
            .collect();
        if live.len() >= 2 {
            let branch = source.borrow_mut().choose(ChoiceKind::Fault, 2);
            if branch == 1 {
                if causal {
                    cluster.record_event(
                        "explore/fault",
                        EventKind::ExploreChoice,
                        format!("step {step}: kill {}", live[0]),
                    );
                }
                cluster.kill_replica(server, live[0]);
            }
        }
        cluster.kick_clients();
        let settled = settle(&mut cluster, SETTLE_CAP);
        audit(&mut cluster, &mut violations, step, settled);
    }

    // Planted bug (`--force-violation`): pretend duplicate detection is
    // broken under frame loss — any schedule that actually dropped a
    // frame "re-executed" the retransmitted invocations. Purely
    // synthetic, but schedule-dependent the way a real dedup bug is, so
    // the detect → shrink → report pipeline is exercised honestly:
    // shrinking must converge on a minimal schedule that still drops a
    // frame.
    let registry = cluster.metrics_registry();
    let frames_dropped = registry.counter("explore.frames_dropped");
    let frames_delayed = registry.counter("explore.frames_delayed");
    if cfg.force_violation && frames_dropped > 0 {
        violations.push(Violation {
            step: cfg.steps,
            invariant: "exactly-once",
            detail: format!(
                "planted dedup bug: {frames_dropped} dropped frame(s) re-executed on retransmit"
            ),
        });
    }

    let trace = source.borrow().taken.clone();
    let mut fp = FNV_OFFSET;
    for c in &trace {
        fp = fnv1a(fp, &[c.kind.tag(), c.arity, c.branch]);
    }
    let outcome = RunOutcome {
        fingerprint: fp,
        trace,
        violations,
        final_time_ns: cluster.now().as_nanos(),
        frames_dropped,
        frames_delayed,
    };
    let flight = if causal && !outcome.violations.is_empty() {
        let reason = outcome
            .violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        cluster.record_event(
            "explore/counterexample",
            EventKind::ExploreCounterexample,
            format!("fingerprint {:#018x}: {reason}", outcome.fingerprint),
        );
        Some(cluster.causal().flight_recorder_json(&reason))
    } else {
        None
    };
    (outcome, flight)
}

/// A shrunk counterexample schedule, ready to be pinned as a test.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Fingerprint of the *minimal* schedule's trace.
    pub fingerprint: u64,
    /// Minimal branch prefix that reproduces the violation.
    pub prefix: Vec<u8>,
    /// The minimal schedule's full recorded trace.
    pub trace: Vec<RecordedChoice>,
    /// Violations the minimal schedule produces.
    pub violations: Vec<Violation>,
    /// Prefix length before shrinking.
    pub shrunk_from: usize,
    /// Schedule re-runs the shrinker spent.
    pub shrink_runs: usize,
    /// Ready-to-paste regression test.
    pub skeleton: String,
    /// Flight-recorder dump from the traced re-run of the minimal
    /// schedule (`None` when the violation did not reproduce under
    /// tracing — traced frames carry extra wire bytes, which can shift
    /// tight schedules).
    pub flight_recorder: Option<String>,
    /// Whether the traced re-run reproduced the violation.
    pub reproduced_with_tracing: bool,
}

/// Deterministic result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The seed explored with.
    pub seed: u64,
    /// The configured run budget.
    pub budget: usize,
    /// Schedules actually run (≤ budget; the search stops early on a
    /// violation).
    pub runs: usize,
    /// Distinct schedule fingerprints among them.
    pub distinct_fingerprints: usize,
    /// Runs from the breadth-first prefix expansion.
    pub dfs_runs: usize,
    /// Runs from the seeded random-walk phase.
    pub walk_runs: usize,
    /// Runs with at least one violation.
    pub violating_runs: usize,
    /// Armed choice-points resolved, by kind name, over all runs.
    pub choice_counts: BTreeMap<&'static str, u64>,
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
    /// Exploration counters + histograms (trace lengths, non-default
    /// branches per run), rendered into the text report.
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
            .field("schema", 1)
            .field_str("tool", "explore")
            .field("seed", self.seed)
            .field("budget", self.budget)
            .field("runs", self.runs)
            .field("distinct_fingerprints", self.distinct_fingerprints)
            .field("dfs_runs", self.dfs_runs)
            .field("walk_runs", self.walk_runs)
            .field("violating_runs", self.violating_runs)
            .key("choice_points")
            .object(Layout::Spaced);
        for (name, n) in &self.choice_counts {
            w.field(name, n);
        }
        w.end()
            .field("frames_dropped", self.frames_dropped)
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

impl Counterexample {
    fn write_json<'w>(&self, w: &'w mut JsonWriter) -> &'w mut JsonWriter {
        w.object(Layout::Block)
            .field_str("fingerprint", format_args!("{:#018x}", self.fingerprint))
            .key("prefix")
            .array(Layout::Spaced);
        for branch in &self.prefix {
            w.value(branch);
        }
        w.end().key("trace").array(Layout::Spaced);
        for c in &self.trace {
            w.object(Layout::Spaced)
                .field_str("kind", c.kind.name())
                .field("branch", c.branch)
                .field("arity", c.arity)
                .end();
        }
        w.end().key("violations").array(Layout::Spaced);
        for v in &self.violations {
            v.write_json(w);
        }
        w.end()
            .field("shrunk_from", self.shrunk_from)
            .field("shrink_runs", self.shrink_runs)
            .field("reproduced_with_tracing", self.reproduced_with_tracing)
            .field_str("skeleton", &self.skeleton)
            .key("flight_recorder");
        match &self.flight_recorder {
            Some(dump) => w.string(dump),
            None => w.value("null"),
        };
        w.end()
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
        let counts = self
            .choice_counts
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(f, "  choice-points: {counts}")?;
        writeln!(
            f,
            "  frames dropped={} delayed={} max-trace={} max-time={}ns",
            self.frames_dropped, self.frames_delayed, self.max_trace_len, self.max_final_time_ns
        )?;
        if let Some(ce) = &self.counterexample {
            writeln!(
                f,
                "  counterexample: fingerprint={:#018x} prefix={:?} (shrunk from {} in {} runs)",
                ce.fingerprint, ce.prefix, ce.shrunk_from, ce.shrink_runs
            )?;
            for v in &ce.violations {
                writeln!(f, "    {v}")?;
            }
            writeln!(f, "  regression skeleton:")?;
            for line in ce.skeleton.lines() {
                writeln!(f, "    {line}")?;
            }
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
    let mut seen: HashSet<u64> = HashSet::new();
    let mut registry = MetricsRegistry::new();
    let mut choice_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
    queue.push_back(Vec::new()); // the all-defaults baseline
    let mut runs = 0;
    let mut dfs_runs = 0;
    let mut walk_runs = 0;
    let mut violating_runs = 0;
    let mut frames_dropped = 0;
    let mut frames_delayed = 0;
    let mut max_trace_len = 0;
    let mut max_final_time_ns = 0;
    let mut counterexample = None;

    while runs < cfg.budget {
        let (outcome, from_dfs) = match queue.pop_front() {
            Some(prefix) => {
                dfs_runs += 1;
                (replay_prefix(cfg, &prefix), true)
            }
            None => {
                walk_runs += 1;
                let walk_seed = cfg
                    .seed
                    .wrapping_add((runs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (
                    run_schedule(cfg, Vec::new(), Some(walk_seed), false).0,
                    false,
                )
            }
        };
        runs += 1;
        seen.insert(outcome.fingerprint);
        registry.counter_add("explore.runs", 1);
        registry.histogram_record_value("explore.trace_len", outcome.trace.len() as u64);
        let nondefault = outcome.trace.iter().filter(|c| c.branch != 0).count();
        registry.histogram_record_value("explore.nondefault_per_run", nondefault as u64);
        for c in &outcome.trace {
            *choice_counts.entry(c.kind.name()).or_insert(0) += 1;
        }
        frames_dropped += outcome.frames_dropped;
        frames_delayed += outcome.frames_delayed;
        max_trace_len = max_trace_len.max(outcome.trace.len());
        max_final_time_ns = max_final_time_ns.max(outcome.final_time_ns);

        if !outcome.violations.is_empty() {
            violating_runs += 1;
            registry.counter_add("explore.violations", outcome.violations.len() as u64);
            counterexample = Some(build_counterexample(cfg, &outcome));
            break;
        }

        // Breadth-first expansion: branch each unexplored position of
        // this run's trace inside the window, one extra non-default
        // branch per child (iterative deepening via queue order).
        if from_dfs && nondefault < cfg.nondefault_budget {
            let explored_from = outcome
                .trace
                .iter()
                .rposition(|c| c.branch != 0)
                .map_or(0, |p| p + 1);
            let window = outcome.trace.len().min(DFS_WINDOW);
            for pos in explored_from..window {
                let arity = usize::from(outcome.trace[pos].arity).min(MAX_ARITY);
                for branch in 1..arity {
                    if queue.len() + runs >= cfg.budget {
                        break;
                    }
                    let mut child: Vec<u8> =
                        outcome.trace[..pos].iter().map(|c| c.branch).collect();
                    child.push(branch as u8);
                    queue.push_back(child);
                }
            }
        }
    }

    registry.counter_add("explore.distinct", seen.len() as u64);
    ExploreReport {
        seed: cfg.seed,
        budget: cfg.budget,
        runs,
        distinct_fingerprints: seen.len(),
        dfs_runs,
        walk_runs,
        violating_runs,
        choice_counts,
        frames_dropped,
        frames_delayed,
        max_trace_len,
        max_final_time_ns,
        counterexample,
        registry,
    }
}

/// Shrinks a violating schedule to a minimal prefix, re-runs it with
/// causal tracing for the flight-recorder artifact, and renders the
/// regression-test skeleton.
fn build_counterexample(cfg: &ExploreConfig, found: &RunOutcome) -> Counterexample {
    let original = found.prefix();
    let mut prefix = original.clone();
    let mut shrink_runs = 0;
    // Greedy delta-debugging: zero each non-default branch (right to
    // left, so later choices — usually consequences — go first) and
    // keep the zeroing whenever the violation still reproduces; repeat
    // until a fixed point.
    loop {
        let mut changed = false;
        for pos in (0..prefix.len()).rev() {
            if prefix[pos] == 0 {
                continue;
            }
            let mut candidate = prefix.clone();
            candidate[pos] = 0;
            while candidate.last() == Some(&0) {
                candidate.pop();
            }
            shrink_runs += 1;
            if !replay_prefix(cfg, &candidate).violations.is_empty() {
                prefix = candidate;
                changed = true;
                break; // positions shifted; restart the scan
            }
        }
        if !changed {
            break;
        }
    }
    // The minimal schedule, once plain (authoritative violations) and
    // once traced (flight recorder).
    let minimal = replay_prefix(cfg, &prefix);
    let (traced, flight) = run_schedule(cfg, prefix.clone(), None, true);
    let skeleton = render_skeleton(cfg, &prefix, &minimal);
    Counterexample {
        fingerprint: minimal.fingerprint,
        prefix,
        trace: minimal.trace,
        violations: minimal.violations,
        shrunk_from: original.len(),
        shrink_runs,
        skeleton,
        flight_recorder: flight,
        reproduced_with_tracing: !traced.violations.is_empty(),
    }
}

/// Renders a ready-to-paste regression test replaying `prefix`.
fn render_skeleton(cfg: &ExploreConfig, prefix: &[u8], minimal: &RunOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/// Pinned by `repro -- explore --seed {}`: schedule {:#018x}.",
        cfg.seed, minimal.fingerprint
    );
    for v in &minimal.violations {
        let _ = writeln!(out, "/// Violated: {v}");
    }
    let _ = writeln!(out, "#[test]");
    let _ = writeln!(
        out,
        "fn explore_regression_{:016x}() {{",
        minimal.fingerprint
    );
    let _ = writeln!(
        out,
        "    use eternal::explore::{{replay_prefix, ExploreConfig}};"
    );
    let _ = writeln!(out, "    let cfg = ExploreConfig {{");
    let _ = writeln!(out, "        seed: {},", cfg.seed);
    let _ = writeln!(out, "        force_violation: {},", cfg.force_violation);
    let _ = writeln!(out, "        ..ExploreConfig::default()");
    let _ = writeln!(out, "    }};");
    let branches = prefix
        .iter()
        .map(u8::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "    let outcome = replay_prefix(&cfg, &[{branches}]);");
    let _ = writeln!(
        out,
        "    // While the bug is unfixed this documents it; once fixed, flip to"
    );
    let _ = writeln!(out, "    // assert the schedule stays clean.");
    let _ = writeln!(out, "    assert!(");
    let _ = writeln!(out, "        outcome.violations.is_empty(),");
    let _ = writeln!(
        out,
        "        \"schedule {:#018x} violated: {{:?}}\",",
        minimal.fingerprint
    );
    let _ = writeln!(out, "        outcome.violations");
    let _ = writeln!(out, "    );");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExploreConfig {
        ExploreConfig {
            budget: 10,
            steps: 1,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn baseline_schedule_is_clean_and_reproducible() {
        let a = replay_prefix(&tiny(), &[]);
        let b = replay_prefix(&tiny(), &[]);
        assert!(
            a.violations.is_empty(),
            "baseline violated: {:?}",
            a.violations
        );
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.final_time_ns, b.final_time_ns);
        assert!(!a.trace.is_empty(), "no choice-points recorded");
    }

    #[test]
    fn non_default_branch_changes_the_fingerprint() {
        let base = replay_prefix(&tiny(), &[]);
        let permuted = replay_prefix(&tiny(), &[1]);
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
        let cfg = ExploreConfig {
            budget: 64,
            steps: 1,
            force_violation: true,
            ..ExploreConfig::default()
        };
        let report = run_explore(&cfg);
        assert!(!report.passed());
        let ce = report.counterexample.expect("counterexample");
        assert!(
            ce.violations.iter().any(|v| v.invariant == "exactly-once"),
            "planted bug not detected: {:?}",
            ce.violations
        );
        // Minimality: every non-default branch is load-bearing, and for
        // the planted frame-drop bug one branch suffices.
        assert_eq!(
            ce.prefix.iter().filter(|&&b| b != 0).count(),
            1,
            "shrunk prefix not minimal: {:?}",
            ce.prefix
        );
        assert!(ce.skeleton.contains("replay_prefix"));
        assert!(ce.skeleton.contains(&format!("seed: {}", cfg.seed)));
        // The pinned prefix reproduces the violation on replay.
        let again = replay_prefix(&cfg, &ce.prefix);
        assert!(!again.violations.is_empty());
    }

    /// As for the chaos export: a hostile violation detail comes out as
    /// an escaped JSON string.
    #[test]
    fn hostile_violation_detail_is_escaped_in_the_export() {
        let cfg = ExploreConfig {
            budget: 64,
            steps: 1,
            force_violation: true,
            ..ExploreConfig::default()
        };
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
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"counterexample\": null"));
        assert!(json.contains("\"passed\": true"));
    }
}
