//! Regenerates every figure/table of the DSN 2001 evaluation as text
//! tables. Results are recorded in `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro            # everything
//! cargo run --release -p eternal-bench --bin repro -- fig6    # one experiment
//! ```
//!
//! Experiments: `fig6`, `timeline`, `overhead`, `styles`,
//! `checkpoint-sweep`, `frag-threshold`, `replicas`, `ablation-reqid`,
//! `ablation-handshake`.
//!
//! In addition, `chaos` runs a deterministic fault-injection campaign
//! (not part of the default everything-run; see `docs/CHAOS.md`):
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- chaos --seed 7 --steps 12
//! ```
//!
//! It prints the campaign summary and exits nonzero if any invariant
//! was violated, so CI can gate on it. `--json <path>` additionally
//! writes the summary as JSON; `--causal` records causal traces and
//! dumps `flight_recorder.json` on violation; `--force-violation`
//! injects a synthetic violation (flight-recorder path testing).
//!
//! `trace` runs the causal-tracing scenario (see `docs/TRACING.md`),
//! writes Chrome trace-event JSON (default `TRACE_eternal.json`,
//! override with `--json <path>`), prints a sample span tree, and exits
//! nonzero if any replica disagreed on the total order:
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- trace --seed 42
//! ```
//!
//! `explore` runs the systematic schedule-space explorer (see
//! `docs/TESTING.md`), writing the schema'd exploration report (default
//! `EXPLORE_eternal.json`, byte-identical per seed+budget) and, on a
//! violation, `flight_recorder.json` from the traced re-run of the
//! shrunk minimal schedule. It exits nonzero if any explored schedule
//! violated the single-copy oracle; `--force-violation` plants a
//! synthetic exactly-once bug so CI can exercise the detect → shrink →
//! report path:
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- explore --quick
//! cargo run --release -p eternal-bench --bin repro -- explore --seed 7 --budget 1000
//! ```
//!
//! `bench` runs the deterministic benchmark suite (also outside the
//! everything-run; see `docs/BENCHMARKS.md`), writing
//! `BENCH_eternal.json` and exiting nonzero on violated invariants.
//! `--compare <baseline.json>` additionally diffs the fresh report
//! against a recorded baseline, prints per-metric deltas, and exits
//! nonzero if any metric moved more than the threshold
//! (`--threshold-pct-x100 N`, default 500 = 5 %):
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- bench --quick
//! cargo run --release -p eternal-bench --bin repro -- bench --compare BENCH_eternal.json
//! ```
//!
//! `health` runs the totally-ordered health-monitoring scenario (see
//! `docs/HEALTH.md`), writing `HEALTH_eternal.json` (byte-identical per
//! seed+fault) and printing the Prometheus exposition of the final
//! metrics registry. A fault-free run exits nonzero if *any* diagnosis
//! fired (false positive); a `--fault KIND` run exits nonzero if the
//! documented detector for that kind did *not* fire:
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- health --seed 42
//! cargo run --release -p eternal-bench --bin repro -- health --fault crash_restart
//! ```
//!
//! `attribution` runs the per-request latency-attribution scenario
//! (see `docs/ATTRIBUTION.md`), writing `ATTRIB_eternal.json`
//! (byte-identical per seed) and printing the where-does-the-time-go
//! report; it exits nonzero if any attributed request failed to tile
//! its round trip exactly into the pipeline phases:
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- attribution --seed 42
//! ```
//!
//! `fingerprint` runs every byte-deterministic artefact above once, at
//! its standard seed, and prints one line per artefact — name, schema,
//! XXH64 of its bytes — plus a combined hash. The committed
//! `FINGERPRINT.txt` is that output; `--check FILE` exits nonzero and
//! names the artefacts that moved (see `docs/TESTING.md`):
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro -- fingerprint --check FINGERPRINT.txt
//! ```
//!
//! Unknown experiment names print the usage and exit 2.

use eternal::chaos::{run_campaign, CampaignConfig, FaultKind};
use eternal::explore::{run_explore, ExploreConfig};
use eternal::hash::hash_bytes;
use eternal::properties::ReplicationStyle;
use eternal_bench::{
    ablation_run, attribution, checkpoint_sweep_point, compare, fig6_point, fig6_timeline,
    frag_threshold, health, overhead_point, replica_count_point, style_run, suite, trace_run,
};
use eternal_obs::timeline::{render_breakdown_json, render_breakdown_table, RecoveryTimeline};
use eternal_sim::Duration;

/// Experiments runnable by name (an empty argument list runs them all).
const EXPERIMENTS: [&str; 9] = [
    "fig6",
    "timeline",
    "overhead",
    "styles",
    "checkpoint-sweep",
    "frag-threshold",
    "replicas",
    "ablation-reqid",
    "ablation-handshake",
];

fn usage() {
    eprintln!("usage: repro [EXPERIMENT ...] | repro SUBCOMMAND [FLAGS]");
    eprintln!();
    eprintln!(
        "experiments (no arguments runs them all): {}",
        EXPERIMENTS.join(", ")
    );
    eprintln!();
    eprintln!("subcommands:");
    eprintln!(
        "  timeline     figure-6 recovery breakdown by §5.1 phase \
         [--json PATH]"
    );
    eprintln!(
        "  chaos        deterministic fault-injection campaign \
         [--seed N] [--steps M] [--json PATH] [--causal] [--force-violation]"
    );
    eprintln!(
        "  bench        deterministic benchmark suite, writes BENCH_eternal.json \
         [--quick] [--compare BASELINE.json] [--threshold-pct-x100 N]"
    );
    eprintln!(
        "  trace        end-to-end causal tracing, writes TRACE_eternal.json \
         [--seed N] [--json PATH]"
    );
    eprintln!(
        "  health       totally-ordered health monitoring, writes HEALTH_eternal.json \
         [--seed N] [--fault KIND] [--json PATH]"
    );
    eprintln!(
        "  explore      systematic schedule-space exploration, writes EXPLORE_eternal.json \
         [--seed N] [--budget B] [--quick] [--json PATH] [--force-violation]"
    );
    eprintln!(
        "  attribution  per-request latency attribution, writes ATTRIB_eternal.json \
         [--seed N] [--json PATH]"
    );
    eprintln!("  fingerprint  one hash per deterministic artefact [--check FINGERPRINT.txt]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "chaos") {
        std::process::exit(chaos(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "explore") {
        std::process::exit(explore(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "bench") {
        std::process::exit(bench(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "trace") {
        std::process::exit(trace(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "health") {
        std::process::exit(health_cmd(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "attribution") {
        std::process::exit(attribution_cmd(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "fingerprint") {
        std::process::exit(fingerprint(&args[1..]));
    }
    // `timeline --json PATH` takes a flag; peel it off before the
    // experiment-name scan.
    let mut timeline_json: Option<String> = None;
    let mut args = args;
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if args.get(i.saturating_sub(1)).map(String::as_str) != Some("timeline") {
            eprintln!("repro: --json here only applies to the timeline experiment");
            usage();
            std::process::exit(2);
        }
        if i + 1 >= args.len() {
            eprintln!("repro: --json needs a path");
            std::process::exit(2);
        }
        timeline_json = Some(args.remove(i + 1));
        args.remove(i);
    }
    if let Some(unknown) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!("repro: unknown experiment {unknown:?}");
        usage();
        std::process::exit(2);
    }
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("fig6") {
        fig6();
    }
    if want("timeline") {
        timeline(timeline_json.as_deref());
    }
    if want("overhead") {
        overhead();
    }
    if want("styles") {
        styles();
    }
    if want("checkpoint-sweep") {
        checkpoint_sweep();
    }
    if want("frag-threshold") {
        frag();
    }
    if want("replicas") {
        replicas();
    }
    if want("ablation-reqid") {
        ablation_reqid();
    }
    if want("ablation-handshake") {
        ablation_handshake();
    }
}

/// `repro -- chaos [--seed N] [--steps M]`: one seeded campaign; the
/// same seed always reproduces the same summary byte for byte.
fn chaos(args: &[String]) -> i32 {
    let mut cfg = CampaignConfig::default();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let parse = |v: Option<&String>, what: &str| -> Option<u64> {
            let parsed = v.and_then(|s| s.parse().ok());
            if parsed.is_none() {
                eprintln!("chaos: {flag} needs a numeric {what}");
            }
            parsed
        };
        match flag.as_str() {
            "--seed" => match parse(it.next(), "seed") {
                Some(s) => cfg.seed = s,
                None => return 2,
            },
            "--steps" => match parse(it.next(), "step count") {
                Some(s) => cfg.steps = s as usize,
                None => return 2,
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("chaos: --json needs a path");
                    return 2;
                }
            },
            "--causal" => cfg.causal = true,
            "--force-violation" => {
                cfg.causal = true;
                cfg.force_violation = true;
            }
            other => {
                eprintln!(
                    "chaos: unknown flag {other} (expected --seed N / --steps M / \
                     --json PATH / --causal / --force-violation)"
                );
                return 2;
            }
        }
    }
    let summary = run_campaign(&cfg);
    println!("{summary}");
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, summary.to_json()) {
            eprintln!("chaos: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("chaos: wrote {path}");
    }
    if let Some(dump) = &summary.flight_recorder {
        if let Err(e) = std::fs::write("flight_recorder.json", dump) {
            eprintln!("chaos: cannot write flight_recorder.json: {e}");
            return 1;
        }
        eprintln!("chaos: wrote flight_recorder.json");
    }
    i32::from(!summary.passed())
}

/// `repro -- explore [--seed N] [--budget B] [--quick]`: one
/// deterministic schedule-space exploration (see `docs/TESTING.md`).
/// The same seed+budget always reproduces the same report byte for
/// byte; on a violation the shrunk counterexample's flight-recorder
/// dump lands in `flight_recorder.json`.
fn explore(args: &[String]) -> i32 {
    let mut cfg = ExploreConfig::default();
    let mut json_path = String::from("EXPLORE_eternal.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => {
                    eprintln!("explore: --seed needs a numeric seed");
                    return 2;
                }
            },
            "--budget" => match it.next().and_then(|s| s.parse().ok()) {
                Some(b) => cfg.budget = b,
                None => {
                    eprintln!("explore: --budget needs a run count");
                    return 2;
                }
            },
            "--quick" => cfg.budget = ExploreConfig::quick().budget,
            "--json" => match it.next() {
                Some(p) => json_path = p.clone(),
                None => {
                    eprintln!("explore: --json needs a path");
                    return 2;
                }
            },
            "--force-violation" => cfg.force_violation = true,
            other => {
                eprintln!(
                    "explore: unknown flag {other} (expected --seed N / --budget B / \
                     --quick / --json PATH / --force-violation)"
                );
                return 2;
            }
        }
    }
    let report = run_explore(&cfg);
    println!("{report}");
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("explore: cannot write {json_path}: {e}");
        return 1;
    }
    eprintln!("explore: wrote {json_path}");
    if let Some(ce) = &report.counterexample {
        if let Some(dump) = &ce.flight_recorder {
            if let Err(e) = std::fs::write("flight_recorder.json", dump) {
                eprintln!("explore: cannot write flight_recorder.json: {e}");
                return 1;
            }
            eprintln!("explore: wrote flight_recorder.json");
        }
    }
    i32::from(!report.passed())
}

/// `repro -- trace [--seed N] [--json PATH]`: the causal-tracing
/// scenario of `docs/TRACING.md`. Writes the Chrome trace-event export
/// (byte-identical per seed), prints one sample span tree, and exits
/// nonzero if replicas disagreed on the total order.
fn trace(args: &[String]) -> i32 {
    let mut seed = 42u64;
    let mut json_path = String::from("TRACE_eternal.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("trace: --seed needs a numeric seed");
                    return 2;
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = p.clone(),
                None => {
                    eprintln!("trace: --json needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("trace: unknown flag {other} (expected --seed N / --json PATH)");
                return 2;
            }
        }
    }
    let run = trace_run(seed);
    println!(
        "causal trace: seed={seed} spans={} traces={} dropped={} total_order_violations={}",
        run.spans,
        run.trace_count,
        run.dropped_events,
        run.violations.len()
    );
    if run.dropped_events > 0 {
        eprintln!(
            "trace: WARNING {} span(s) were evicted from the causal ring — the \
             export shows a truncated history",
            run.dropped_events
        );
    }
    println!("-- sample span tree (first trace) --");
    print!("{}", run.sample_tree);
    for v in &run.violations {
        eprintln!("trace: VIOLATION {v}");
    }
    if let Err(e) = std::fs::write(&json_path, &run.chrome_json) {
        eprintln!("trace: cannot write {json_path}: {e}");
        return 1;
    }
    eprintln!("trace: wrote {json_path}");
    i32::from(!run.violations.is_empty())
}

/// `repro -- bench [--quick] [--compare BASELINE.json]`: the
/// deterministic benchmark suite. Writes `BENCH_eternal.json` to the
/// current directory and exits nonzero if any suite invariant was
/// violated (see `docs/BENCHMARKS.md`). With `--compare`, the baseline
/// is read *before* the fresh report overwrites it, diffed metric by
/// metric, and any delta past the threshold also fails the run.
fn bench(args: &[String]) -> i32 {
    let mut quick = false;
    let mut baseline_path: Option<String> = None;
    let mut threshold = compare::DEFAULT_THRESHOLD_PCT_X100;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--compare" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("bench: --compare needs a baseline path");
                    return 2;
                }
            },
            "--threshold-pct-x100" => match it.next().and_then(|s| s.parse().ok()) {
                Some(t) => threshold = t,
                None => {
                    eprintln!("bench: --threshold-pct-x100 needs a number (500 = 5%)");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "bench: unknown flag {other} (expected --quick / --compare PATH / \
                     --threshold-pct-x100 N)"
                );
                return 2;
            }
        }
    }
    // Read the baseline up front: the usual invocation compares against
    // the committed BENCH_eternal.json, which we are about to replace.
    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("bench: cannot read baseline {path}: {e}");
                return 2;
            }
        },
        None => None,
    };
    let report = suite::run_suite(quick);
    print!("{}", report.json);
    if let Err(e) = std::fs::write("BENCH_eternal.json", &report.json) {
        eprintln!("bench: cannot write BENCH_eternal.json: {e}");
        return 1;
    }
    eprintln!("bench: wrote BENCH_eternal.json");
    for v in &report.violations {
        eprintln!("bench: VIOLATION {v}");
    }
    let mut failed = !report.violations.is_empty();
    if let Some(baseline) = baseline {
        match compare::compare(&baseline, &report.json, threshold) {
            Ok(cmp) => {
                print!("{}", cmp.render());
                if !cmp.passed() {
                    eprintln!(
                        "bench: {} regression(s) vs {}",
                        cmp.regressions.len(),
                        baseline_path.as_deref().unwrap_or("baseline")
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench: compare failed: {e}");
                return 2;
            }
        }
    }
    i32::from(failed)
}

/// `repro -- health [--seed N] [--fault KIND] [--json PATH]`: the
/// totally-ordered health-monitoring scenario of `docs/HEALTH.md`.
/// Prints the Prometheus exposition and a one-line summary, writes the
/// epoch/diagnosis document (byte-identical per seed+fault), and exits
/// nonzero when the run misses its detection contract: a fault-free
/// run that fired anything, or a forced-fault run whose documented
/// detector stayed silent.
fn health_cmd(args: &[String]) -> i32 {
    let mut seed = 42u64;
    let mut fault: Option<FaultKind> = None;
    let mut json_path = String::from("HEALTH_eternal.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("health: --seed needs a numeric seed");
                    return 2;
                }
            },
            "--fault" => match it.next().map(String::as_str).and_then(health::parse_fault) {
                Some(k) => fault = Some(k),
                None => {
                    eprintln!(
                        "health: --fault needs one of: {}",
                        FaultKind::ALL.map(FaultKind::name).join(", ")
                    );
                    return 2;
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = p.clone(),
                None => {
                    eprintln!("health: --json needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!(
                    "health: unknown flag {other} (expected --seed N / --fault KIND / \
                     --json PATH)"
                );
                return 2;
            }
        }
    }
    let run = health::health_run(seed, fault);
    print!("{}", run.prometheus);
    println!("{}", run.summary);
    if let Err(e) = std::fs::write(&json_path, &run.json) {
        eprintln!("health: cannot write {json_path}: {e}");
        return 1;
    }
    eprintln!("health: wrote {json_path}");
    i32::from(!run.passed)
}

/// `repro -- attribution [--seed N] [--json PATH]`: the per-request
/// latency-attribution scenario of `docs/ATTRIBUTION.md`. Prints the
/// phase table and slowest-requests report, writes the attribution
/// document (byte-identical per seed), and exits nonzero if any
/// attributed request failed to tile its round trip exactly.
fn attribution_cmd(args: &[String]) -> i32 {
    let mut seed = 42u64;
    let mut json_path = String::from("ATTRIB_eternal.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("attribution: --seed needs a numeric seed");
                    return 2;
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = p.clone(),
                None => {
                    eprintln!("attribution: --json needs a path");
                    return 2;
                }
            },
            other => {
                eprintln!("attribution: unknown flag {other} (expected --seed N / --json PATH)");
                return 2;
            }
        }
    }
    let run = attribution::attribution_run(seed);
    print!("{}", run.report);
    println!("{}", run.summary);
    if let Err(e) = std::fs::write(&json_path, &run.json) {
        eprintln!("attribution: cannot write {json_path}: {e}");
        return 1;
    }
    eprintln!("attribution: wrote {json_path}");
    i32::from(!run.passed)
}

/// `repro -- fingerprint [--check FILE]`: every byte-deterministic
/// artefact at the seed CI pins it at, hashed. A refactoring proves
/// itself neutral by leaving `FINGERPRINT.txt` unchanged; a behavioural
/// change shows which artefacts it moved.
fn fingerprint(args: &[String]) -> i32 {
    let expected = match args {
        [] => None,
        [flag, path] if flag == "--check" => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("fingerprint: cannot read {path}: {e}");
                return 2;
            }
        },
        _ => {
            eprintln!("fingerprint: expected no flags or --check FILE");
            return 2;
        }
    };
    let health_json = |fault| health::health_run(42, fault).json;
    let chaos_json = |seed| {
        let cfg = CampaignConfig {
            seed,
            steps: 10,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg).to_json()
    };
    let (timelines, dropped_events) = timeline_runs();
    let artefacts = [
        ("bench", suite::run_suite(false).json),
        ("trace", trace_run(42).chrome_json),
        ("attribution", attribution::attribution_run(42).json),
        ("health", health_json(None)),
        (
            "health.crash_restart",
            health_json(Some(FaultKind::CrashRestart)),
        ),
        (
            "health.kill_replica",
            health_json(Some(FaultKind::KillReplica)),
        ),
        ("explore", run_explore(&ExploreConfig::quick()).to_json()),
        (
            "timeline",
            render_breakdown_json(&timelines, dropped_events),
        ),
        ("chaos.7", chaos_json(7)),
        ("chaos.42", chaos_json(42)),
        ("chaos.60", chaos_json(60)),
    ];
    let mut lines = String::new();
    for (name, text) in &artefacts {
        let schema = text
            .split_once("\"schema\": ")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
            .unwrap_or("-");
        lines += &format!(
            "{name} schema={schema} xxh64={:016x}\n",
            hash_bytes(text.as_bytes())
        );
    }
    lines += &format!("combined xxh64={:016x}\n", hash_bytes(lines.as_bytes()));
    print!("{lines}");
    let Some(expected) = expected else {
        return 0;
    };
    for (want, got) in expected.lines().zip(lines.lines()) {
        if want != got {
            eprintln!("fingerprint: expected {want}");
            eprintln!("fingerprint:      got {got}");
        }
    }
    i32::from(expected != lines)
}

/// The Figure 6 recovery episodes `timeline` breaks down, with the
/// trace events evicted while recording them.
fn timeline_runs() -> (Vec<RecoveryTimeline>, u64) {
    let mut timelines = Vec::new();
    let mut dropped_events = 0u64;
    for &size in &[1_000usize, 10_000, 100_000, 300_000] {
        let run = fig6_timeline(size, 42);
        timelines.extend(run.timelines);
        dropped_events += run.dropped_events;
    }
    (timelines, dropped_events)
}

fn fig6() {
    println!("== Figure 6: recovery time vs application-level state size ==");
    println!("   (2-way active server, packet-driver client, replica killed + re-launched)");
    println!(
        "{:>12}  {:>14}  {:>14}",
        "state (B)", "transferred(B)", "recovery"
    );
    for &size in &[
        10usize, 1_000, 5_000, 10_000, 50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000,
    ] {
        let p = fig6_point(size, 42);
        println!(
            "{:>12}  {:>14}  {:>14}",
            p.state_bytes,
            p.transferred_bytes,
            p.recovery.to_string()
        );
    }
    println!();
}

fn timeline(json_path: Option<&str>) {
    println!("== Figure 6 breakdown: where recovery time goes, per §5.1 phase ==");
    println!("   (same scenario as fig6, observability on; phases tile the episode)");
    let (timelines, dropped_events) = timeline_runs();
    print!("{}", render_breakdown_table(&timelines));
    if dropped_events > 0 {
        eprintln!(
            "timeline: WARNING {dropped_events} trace event(s) were evicted from the \
             ring — the breakdown reflects a truncated history"
        );
    }
    if let Some(path) = json_path {
        match std::fs::write(path, render_breakdown_json(&timelines, dropped_events)) {
            Ok(()) => eprintln!("timeline: wrote {path}"),
            Err(e) => eprintln!("timeline: cannot write {path}: {e}"),
        }
    }
    println!("   (transfer dominates as state grows — fragmentation over the ring;");
    println!("    quiesce + get_state are the state-size-independent floor)");
    println!();
}

fn overhead() {
    println!("== T1: fault-free overhead of interception + multicast + consistency ==");
    println!("   (active 2-way server vs unreplicated point-to-point IIOP)");
    println!(
        "{:>12}  {:>14}  {:>14}  {:>9}",
        "exec time", "replicated", "unreplicated", "overhead"
    );
    for &us in &[100u64, 250, 500, 1_000, 2_000, 5_000] {
        let p = overhead_point(Duration::from_micros(us), 42);
        println!(
            "{:>12}  {:>14}  {:>14}  {:>8.1}%",
            p.exec_time.to_string(),
            p.replicated_rtt.to_string(),
            p.unreplicated_rtt.to_string(),
            p.overhead_pct()
        );
    }
    println!("   (paper: 10–15% for its test applications; the band is crossed");
    println!("    where invocation execution dominates the token latency)");
    println!();
}

fn styles() {
    println!("== T2: replication styles under failure (paper §6 closing claim) ==");
    println!(
        "{:>13}  {:>13}  {:>12}  {:>12}  {:>10}  {:>12}  {:>11}  {:>8}",
        "style",
        "interruption",
        "restored",
        "recovery",
        "frames",
        "wire bytes",
        "checkpoints",
        "logged"
    );
    for style in [
        ReplicationStyle::Active,
        ReplicationStyle::WarmPassive,
        ReplicationStyle::ColdPassive,
    ] {
        let r = style_run(style, 42);
        println!(
            "{:>13}  {:>13}  {:>12}  {:>12}  {:>10}  {:>12}  {:>11}  {:>8}",
            format!("{style:?}"),
            r.service_interruption.to_string(),
            r.redundancy_restored.to_string(),
            r.recovery_time
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            r.frames,
            r.wire_bytes,
            r.checkpoints,
            r.messages_logged
        );
    }
    println!("   (active: more resources, fewer state transfers, faster recovery;");
    println!("    passive: fewer resources, periodic transfers, slower fail-over)");
    println!();
}

fn checkpoint_sweep() {
    println!("== A3: checkpoint-interval sweep (warm passive) ==");
    println!(
        "{:>12}  {:>12}  {:>14}  {:>10}  {:>16}",
        "interval", "checkpoints", "suffix@kill", "replayed", "steady bytes"
    );
    for &ms in &[5u64, 10, 25, 50, 100, 200] {
        let p = checkpoint_sweep_point(Duration::from_millis(ms), 42);
        println!(
            "{:>12}  {:>12}  {:>14}  {:>10}  {:>16}",
            p.interval.to_string(),
            p.checkpoints,
            p.suffix_at_kill,
            p.replayed,
            p.steady_state_bytes
        );
    }
    println!("   (short intervals: more checkpoint traffic, shorter replay;");
    println!("    long intervals: cheaper steady state, longer replay at fail-over)");
    println!();
}

fn frag() {
    println!("== A4: fragmentation threshold behind Figure 6 ==");
    println!(
        "{:>12}  {:>14}  {:>14}",
        "state (B)", "frames needed", "recovery"
    );
    let sizes = [
        100usize, 500, 1_000, 1_400, 1_500, 2_000, 3_000, 4_500, 6_000, 12_000,
    ];
    for p in frag_threshold(&sizes, 42) {
        println!(
            "{:>12}  {:>14}  {:>14}",
            p.state_bytes,
            p.frames_for_state,
            p.recovery.to_string()
        );
    }
    println!();
}

fn replicas() {
    println!("== A5: active replication degree (resource cost vs recovery) ==");
    println!(
        "{:>10}  {:>14}  {:>12}  {:>10}",
        "replicas", "recovery", "duplicates", "frames"
    );
    for n in [2usize, 3, 4] {
        let p = replica_count_point(n, 42);
        println!(
            "{:>10}  {:>14}  {:>12}  {:>10}",
            p.replicas,
            p.recovery.to_string(),
            p.duplicates,
            p.frames
        );
    }
    println!("   (each extra replica adds one duplicate copy of every operation;");
    println!("    recovery lengthens mildly as more duplicate state offers queue up)");
    println!();
}

fn ablation_reqid() {
    println!("== A1: recovery of a client replica with/without ORB-state sync (§4.2.1) ==");
    for (label, on) in [("with", true), ("without", false)] {
        let r = ablation_run(on, true, 42);
        println!(
            "  {label:>8} ORB-state transfer: replies discarded by ORBs = {:>4}, post-recovery replies = {}",
            r.replies_discarded, r.post_recovery_replies
        );
    }
    println!("   (without it, request-id mismatch makes an ORB discard valid replies — Figure 4)");
    println!();
}

fn ablation_handshake() {
    println!("== A2: recovery of a server replica with/without handshake replay (§4.2.2) ==");
    for (label, on) in [("with", true), ("without", false)] {
        let r = ablation_run(on, false, 42);
        println!(
            "  {label:>8} ORB-state transfer: unnegotiated requests discarded = {:>4}, post-recovery replies = {}",
            r.requests_discarded, r.post_recovery_replies
        );
    }
    println!("   (without it, the new replica's ORB cannot interpret the negotiated shortcut)");
    println!();
}
