//! The two passes of a run. The **untraced** pass measures every
//! end-to-end metric; the **traced** pass wraps each simulator event in
//! a span, reads the per-layer counts, runs the probes, and measures
//! its own overhead against a short untraced reference.

use crate::metrics::{self, Measured};
use crate::probes;
use crate::spans::{StepRecorder, Tracer};
use crate::stats;
use crate::workloads::{run_round, Counts, Input, NoHook, Round, RoundOpts, Virtual, Workload};
use std::time::{Duration, Instant};

/// Rounds run and discarded before measuring, so the thread-local
/// encode pool and the allocator's free lists are filled. The first of
/// them is the instrumented round that reads the reply-gap metric.
pub const WARM_UP_ROUNDS: usize = 3;
/// A run shorter than this many measured rounds reports what it has;
/// `--quick` asks for exactly this many.
pub const MIN_ROUNDS: usize = 3;
/// Traced rounds of the traced pass.
pub const TRACED_ROUNDS: usize = 20;
/// Rounds with the `obs` event trace on, for `obs.trace_on_slowdown`.
pub const OBS_ROUNDS: usize = 10;

/// What one pass of one workload produced.
#[derive(Debug)]
pub struct PassResult {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Fingerprint of the generated input.
    pub input_hash: u64,
    /// Metrics in catalogue order.
    pub metrics: Vec<Measured>,
    /// Measured rounds behind the host-time metrics.
    pub rounds: usize,
    /// Invocations issued over every round run, warm-up included.
    pub attempted: u64,
    /// Invocations without a reply, plus a round's worth for each round
    /// that failed the correctness gate.
    pub failed: u64,
    /// Gate failures and fingerprint mismatches, one line each.
    pub failures: Vec<String>,
    /// Median round ÷ fastest round exceeded 1.15.
    pub noisy: bool,
    /// `--quick`: too few rounds to compare with anything.
    pub quick: bool,
    /// Notes for the human-readable report.
    pub notes: Vec<String>,
}

impl PassResult {
    /// Whether every round passed the gate and agreed on the
    /// behavioural fingerprint.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Rounds of one workload, with the bookkeeping both passes share.
struct Runner<'a> {
    input: &'a Input,
    reference: Option<Virtual>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<'a> Runner<'a> {
    fn new(input: &'a Input) -> Self {
        Runner {
            input,
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Books a finished round: counts its invocations, records gate
    /// failures, and holds its fingerprint against the first round's.
    fn book(&mut self, label: &str, round: &Round) {
        let per_round = self.input.workload.issued_per_round();
        self.attempted += per_round;
        let mut lost = round.issued.saturating_sub(round.received);
        let mut problems = round.failures.clone();
        match self.reference {
            None => self.reference = Some(round.virt),
            Some(first) if first != round.virt => problems.push(format!(
                "virtual results differ from the first round's: {:?} vs {:?}",
                round.virt, first
            )),
            Some(_) => {}
        }
        if !problems.is_empty() {
            lost = lost.max(per_round);
        }
        self.failed += lost;
        // One line per problem, capped: a systematic failure repeats.
        for p in problems {
            if self.failures.len() < 20 {
                self.failures.push(format!("{label}: {p}"));
            }
        }
    }

    fn plain(&mut self, label: &str, opts: RoundOpts) -> Round {
        let round = run_round(self.input, opts, &mut NoHook);
        self.book(label, &round);
        round
    }

    /// An instrumented round: returns it with the longest reply gap.
    fn instrumented(
        &mut self,
        label: &str,
        opts: RoundOpts,
        tracer: Option<&mut Tracer>,
        parent: u32,
        round_id: u32,
    ) -> (Round, u64) {
        let name = match self.input.workload {
            Workload::UnreplicatedRpc => "orb.rpc_event",
            _ => "eternal.step",
        };
        let mut recorder = StepRecorder::new(tracer, name, parent, round_id);
        let round = run_round(self.input, opts, &mut recorder);
        self.book(label, &round);
        (round, recorder.max_reply_gap().as_nanos())
    }
}

/// Host-time statistics over measured rounds.
struct HostTimes {
    timed_ms: Vec<f64>,
}

impl HostTimes {
    fn of(rounds: &[Round]) -> Self {
        HostTimes {
            timed_ms: stats::sorted(rounds.iter().map(|r| r.timed_ns as f64 / 1e6).collect()),
        }
    }
    fn fastest(&self) -> f64 {
        stats::fastest(&self.timed_ms)
    }
    fn p10(&self) -> f64 {
        stats::percentile(&self.timed_ms, 0.10)
    }
    fn p50(&self) -> f64 {
        stats::p50(&self.timed_ms)
    }
    fn p90(&self) -> f64 {
        stats::percentile(&self.timed_ms, 0.90)
    }
    fn noise_ratio(&self) -> f64 {
        self.p50() / self.fastest()
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::p50(&stats::sorted(values.collect()))
}

const MB: f64 = 1_048_576.0;

fn peak_rss_mb() -> f64 {
    // Linux only, like the container the benchmark is specified for.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How long a pass may run, and how many measured rounds it wants.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock seconds for the whole pass.
    pub seconds: f64,
    /// `--quick`: exactly [`MIN_ROUNDS`] measured rounds.
    pub quick: bool,
}

/// Runs measured rounds until `deadline` (at least [`MIN_ROUNDS`]),
/// calling `before_each` ahead of every round.
fn measure_until(
    runner: &mut Runner<'_>,
    label: &str,
    opts: RoundOpts,
    deadline: Instant,
    quick: bool,
    mut before_each: impl FnMut(),
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        let started = Instant::now();
        before_each();
        rounds.push(runner.plain(label, opts));
        longest = longest.max(started.elapsed());
        let enough = rounds.len() >= MIN_ROUNDS;
        if enough && (quick || Instant::now() + longest > deadline) {
            return rounds;
        }
    }
}

/// The untraced pass: every end-to-end metric of one workload.
pub fn untraced(workload: Workload, seed: u64, budget: Budget) -> PassResult {
    let run_started = Instant::now();
    let deadline = run_started + Duration::from_secs_f64(budget.seconds);
    let input = Input::generate(workload, seed);
    let mut runner = Runner::new(&input);
    let opts = RoundOpts::default();

    let (first, outage_ns) = runner.instrumented("warm-up", opts, None, 0, 0);
    for _ in 1..WARM_UP_ROUNDS {
        runner.plain("warm-up", opts);
    }
    // Set-up is timed once per round and the fastest reported, like
    // every host time: each round times its own build-and-deploy, and
    // ahead of each round the input (with its reference replay) is
    // generated again, so the samples are spread over the whole run.
    let mut generation_s = Vec::new();
    let rounds = measure_until(&mut runner, "round", opts, deadline, budget.quick, || {
        let started = Instant::now();
        std::hint::black_box(Input::generate(workload, seed));
        generation_s.push(started.elapsed().as_secs_f64());
    });
    let generated_s = stats::fastest(&stats::sorted(generation_s));

    let host = HostTimes::of(&rounds);
    let virt = first.virt;
    let replies = virt.replies as f64;
    let fastest_s = host.fastest() / 1e3;
    // Allocation counts repeat from round to round once the pool is
    // warm; the median guards against the odd round that is not.
    let allocs = median_of(rounds.iter().map(|r| r.allocs.calls as f64));
    let alloc_bytes = median_of(rounds.iter().map(|r| r.allocs.bytes as f64));
    let peak_heap = median_of(rounds.iter().map(|r| r.peak_heap_bytes as f64));
    let round_setup_ns = stats::fastest(&stats::sorted(
        rounds.iter().map(|r| r.setup_ns as f64).collect(),
    ));
    let setup_s = generated_s + round_setup_ns / 1e9;
    let values = [
        ("req_per_s", replies / fastest_s),
        ("round_wall_ms", host.fastest()),
        ("setup_s", setup_s),
        ("peak_heap_mb", peak_heap / MB),
        ("allocs_per_req", allocs / replies),
        ("alloc_kb_per_req", alloc_bytes / 1024.0 / replies),
        ("sim_rtt_p50_us", virt.rtt_p50_ns as f64 / 1e3),
        ("sim_rtt_p95_us", virt.rtt_p95_ns as f64 / 1e3),
        ("sim_req_per_s", replies / (virt.span_ns as f64 / 1e9)),
        ("sim_outage_ms", outage_ns as f64 / 1e6),
        ("wire_bytes_per_req", virt.wire_bytes as f64 / replies),
        ("frames_per_req", virt.frames as f64 / replies),
    ];
    let notes = vec![
        format!(
            "host time: fastest {:.3} ms, p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms over {} rounds (p50/fastest {:.3})",
            host.fastest(),
            host.p10(),
            host.p50(),
            host.p90(),
            rounds.len(),
            host.noise_ratio()
        ),
        format!(
            "virtual time: {} replies in the timed region, {} round trips behind the percentiles",
            virt.replies, virt.rtt_samples
        ),
        format!(
            "set-up: input generation {generated_s:.6} s + round set-up {:.6} s (each the fastest of {})",
            round_setup_ns / 1e9,
            rounds.len()
        ),
        format!("memory: VmHWM {:.3} MB (not gated: it depends on where malloc places the largest blocks)", peak_rss_mb()),
    ];
    PassResult {
        workload,
        seed,
        input_hash: input.hash,
        metrics: metrics::in_catalogue_order(metrics::END_TO_END, &values),
        rounds: rounds.len(),
        attempted: runner.attempted,
        failed: runner.failed,
        noisy: host.noise_ratio() > 1.15,
        quick: budget.quick,
        failures: runner.failures,
        notes,
    }
}

/// The traced pass: every per-layer metric of one workload, and the
/// span file `out/trace-<workload>.json`.
pub fn traced(
    workload: Workload,
    seed: u64,
    budget: Budget,
    out_dir: &std::path::Path,
) -> PassResult {
    let run_started = Instant::now();
    // Each phase runs until its share of the budget has passed.
    let until = |share: f64| run_started + Duration::from_secs_f64(budget.seconds * share);
    let input = Input::generate(workload, seed);
    let mut runner = Runner::new(&input);
    let plain = RoundOpts::default();
    let mut tracer = Tracer::new();

    // 1. A short untraced reference, to price the tracing.
    for _ in 0..WARM_UP_ROUNDS {
        runner.plain("warm-up", plain);
    }
    let reference = measure_until(
        &mut runner,
        "reference",
        plain,
        until(0.30),
        budget.quick,
        || {},
    );
    let reference_host = HostTimes::of(&reference);

    // 2. The traced rounds.
    let traced_until = until(0.60);
    let counted = RoundOpts {
        counts: true,
        ..plain
    };
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut outage_ns = 0u64;
    let target = if budget.quick {
        MIN_ROUNDS
    } else {
        TRACED_ROUNDS
    };
    while traced_rounds.len() < target {
        let id = traced_rounds.len() as u32 + 1;
        let span = tracer.open("harness.round", 0, id);
        let (round, gap) = runner.instrumented("traced", counted, Some(&mut tracer), span, id);
        tracer.close(span);
        if traced_rounds.is_empty() {
            outage_ns = gap;
        } else if gap != outage_ns {
            runner.failures.push(format!(
                "traced: longest reply gap {gap} ns differs from the first round's {outage_ns} ns"
            ));
        }
        traced_rounds.push(round);
        if traced_rounds.len() >= MIN_ROUNDS && Instant::now() > traced_until {
            break;
        }
    }
    let traced_host = HostTimes::of(&traced_rounds);
    let mut step_ns: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent != 0 && s.round != 0)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let step_total: f64 = step_ns.iter().sum();
    let step_count = step_ns.len() as f64;
    step_ns = stats::sorted(step_ns);

    // 3. The obs layer's own event trace, on against off.
    let obs_until = until(0.75);
    let obs_opts = RoundOpts {
        obs_trace: true,
        ..plain
    };
    let mut obs_ms = Vec::new();
    let obs_target = if budget.quick { MIN_ROUNDS } else { OBS_ROUNDS };
    while obs_ms.len() < obs_target {
        // Tracing changes no virtual result, so these rounds are held
        // to the same fingerprint as every other.
        obs_ms.push(runner.plain("obs-trace", obs_opts).timed_ns as f64 / 1e6);
        if obs_ms.len() >= MIN_ROUNDS && Instant::now() > obs_until {
            break;
        }
    }
    let obs_fastest = stats::fastest(&stats::sorted(obs_ms));

    // 4. The probes.
    let probe_budget = Duration::from_secs_f64((budget.seconds * 0.22).max(0.2));
    let probed = probes::run(&input, probe_budget, budget.quick, &mut tracer);

    // ------------------------------------------------------ derive
    let first = &traced_rounds[0];
    let virt = first.virt;
    let replies = virt.replies as f64;
    let counts: Counts = first.counts.expect("traced rounds read the counts");
    for (i, r) in traced_rounds.iter().enumerate() {
        if r.counts != first.counts || r.steps != first.steps {
            runner.failures.push(format!(
                "traced round {}: per-layer counts differ from the first round's",
                i + 1
            ));
        }
    }
    let events_per_req = first.steps as f64 / replies;
    let host_ns_per_req = reference_host.fastest() * 1e6 / replies;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let explained = probes::explained_ns_per_req(workload, &probed, &counts, &virt, first.steps);
    let mut values = vec![
        ("sim.events_per_req", events_per_req),
        (
            "cdr.pool_takes_per_req",
            counts.get("cdr.pool_takes") as f64 / replies,
        ),
        (
            "cdr.pool_reuse_share",
            ratio(counts.get("cdr.pool_reused"), counts.get("cdr.pool_takes")),
        ),
        (
            "totem.msgs_per_batch",
            ratio(
                counts.get("totem.batched_messages"),
                counts.get("totem.batches"),
            ),
        ),
        (
            "totem.frames_saved_per_req",
            counts.get("totem.frames_saved") as f64 / replies,
        ),
        (
            "totem.delivered_per_req",
            counts.get("totem.delivered") as f64 / replies,
        ),
        (
            "totem.retransmits",
            counts.get("totem.retransmits_served") as f64,
        ),
        (
            "totem.token_retransmits",
            counts.get("totem.token_retransmits") as f64,
        ),
        (
            "totem.reformations",
            counts.get("totem.reformations") as f64,
        ),
        (
            "eternal.dup_suppressed_per_req",
            counts.get("eternal.duplicates_suppressed") as f64 / replies,
        ),
        (
            "eternal.logged_per_req",
            counts.get("eternal.messages_logged") as f64 / replies,
        ),
        (
            "eternal.checkpoints",
            counts.get("eternal.checkpoints_logged") as f64,
        ),
        (
            "eternal.chunks_streamed",
            counts.get("eternal.chunks_streamed") as f64,
        ),
        (
            "eternal.promotions",
            counts.get("eternal.promotions") as f64,
        ),
        ("eternal.sim_recovery_ms", virt.recovery_ns as f64 / 1e6),
        ("eternal.sim_blocking_ms", virt.blocking_ns as f64 / 1e6),
        ("eternal.step_ns_p50", stats::p50(&step_ns)),
        ("eternal.step_ns_p99", stats::percentile(&step_ns, 0.99)),
        ("eternal.ns_per_event", step_total / step_count),
        (
            "obs.trace_on_slowdown",
            obs_fastest / reference_host.fastest(),
        ),
        ("harness.round_ms_p50", reference_host.p50()),
        ("harness.round_ms_p90", reference_host.p90()),
        ("harness.noise_ratio", reference_host.noise_ratio()),
        ("harness.rounds", reference.len() as f64),
        (
            "harness.trace_overhead_share",
            traced_host.fastest() / reference_host.fastest() - 1.0,
        ),
        ("harness.explained_share", explained / host_ns_per_req),
    ];
    values.extend(probed.values.iter().copied());

    let mut notes = vec![
        format!(
            "untraced reference: fastest {:.3} ms of {} rounds; traced: fastest {:.3} ms of {} rounds, {} event spans",
            reference_host.fastest(),
            reference.len(),
            traced_host.fastest(),
            traced_rounds.len(),
            step_ns.len()
        ),
        format!(
            "host ns per request {:.0}, of which the outside probes account for {:.0}",
            host_ns_per_req, explained
        ),
        format!(
            "virtual (identical to the untraced pass by construction): longest reply gap {:.3} virt_ms",
            outage_ns as f64 / 1e6
        ),
    ];
    notes.extend(probed.notes.iter().cloned());

    // The statistics above use every span; the file keeps the event
    // spans of the first traced round only (tens of MB otherwise).
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    match tracer.write_chrome(&path, |s| s.parent == 0 || s.round == 1) {
        Ok(n) => notes.push(format!("{n} spans written to {}", path.display())),
        Err(e) => runner
            .failures
            .push(format!("cannot write {}: {e}", path.display())),
    }

    PassResult {
        workload,
        seed,
        input_hash: input.hash,
        metrics: metrics::in_catalogue_order(metrics::PER_LAYER, &values),
        rounds: traced_rounds.len(),
        attempted: runner.attempted,
        failed: runner.failed,
        noisy: reference_host.noise_ratio() > 1.15,
        quick: budget.quick,
        failures: runner.failures,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Budget = Budget {
        seconds: 1.0,
        quick: true,
    };

    /// Both passes of the two cheapest workloads, end to end: every
    /// catalogue metric gets exactly one value (`in_catalogue_order`
    /// panics otherwise), the gate passes, and the two passes agree on
    /// the virtual results they both see.
    #[test]
    fn both_passes_fill_the_catalogue_and_pass_the_gate() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-passes-{}", std::process::id()));
        for w in [Workload::ActiveSmall, Workload::UnreplicatedRpc] {
            let plain = untraced(w, 42, QUICK);
            assert!(plain.correct(), "{:?}", plain.failures);
            assert_eq!(plain.metrics.len(), metrics::END_TO_END.len());
            assert!(plain
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));
            assert_eq!(plain.failed, 0);
            assert_eq!(
                plain.attempted,
                (WARM_UP_ROUNDS + MIN_ROUNDS) as u64 * w.issued_per_round()
            );

            let traced = traced(w, 42, QUICK, &out);
            assert!(traced.correct(), "{:?}", traced.failures);
            assert_eq!(traced.metrics.len(), metrics::PER_LAYER.len());
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.def.name == name)
                    .expect("in the catalogue")
                    .value
            };
            assert!(value("sim.events_per_req") >= 2.0);
            assert_eq!(value("eternal.chunks_streamed"), 0.0);
            if w == Workload::UnreplicatedRpc {
                assert_eq!(value("totem.delivered_per_req"), 0.0);
            } else {
                assert!(value("totem.delivered_per_req") > 0.0);
            }
            assert!(out.join(format!("trace-{}.json", w.name())).is_file());
        }
        std::fs::remove_dir_all(out).expect("test output removed");
    }

    /// A different seed is a different input: `active_frag`'s virtual
    /// results move, and the gate still passes.
    #[test]
    fn another_seed_moves_active_frag_and_still_passes() {
        let round = |seed: u64| {
            let input = Input::generate(Workload::ActiveFrag, seed);
            let round = run_round(&input, RoundOpts::default(), &mut NoHook);
            assert!(round.failures.is_empty(), "{:?}", round.failures);
            round.virt
        };
        let (a, b) = (round(42), round(43));
        assert_eq!(a.replies, b.replies);
        assert_ne!(a, b);
        assert_eq!(a, round(42));
    }
}
