//! Regenerates the DSN 2001 evaluation as text tables (recorded in
//! `EXPERIMENTS.md`) and every byte-deterministic artefact that gates a
//! change to this repository.
//!
//! ```sh
//! cargo run --release -p eternal-bench --bin repro            # every experiment
//! cargo run --release -p eternal-bench --bin repro -- fig6    # experiments by name
//! cargo run --release -p eternal-bench --bin repro -- chaos --seed 7 --steps 12
//! cargo run --release -p eternal-bench --bin repro -- fingerprint --check FINGERPRINT.txt
//! ```
//!
//! The experiments ([`EXPERIMENTS`]) print tables and take no flags.
//! The subcommands are one table, [`TOOLS`]: each row names a tool,
//! its flags, the artefact it writes and the runs of it that
//! `fingerprint` hashes, and points at a function that turns parsed
//! flags into stdout text, artefact bytes and a verdict. One loop
//! ([`parse`]) reads every tool's flags, one driver ([`run_tool`])
//! prints, writes and exits, and the usage text is generated from the
//! table, so a tool cannot exist without appearing in all three.
//!
//! Exit codes are uniform: 0 when the tool's invariants held, 1 when
//! one was violated (a chaos or explorer violation, a bench invariant,
//! a false-positive or missed health diagnosis, a total-order
//! disagreement, an inexact attribution tiling, a moved fingerprint)
//! or an artefact could not be written, 2 on a flag error. A violation
//! under `chaos --causal` or `explore` also dumps
//! `flight_recorder.json`. See `docs/CHAOS.md`, `BENCHMARKS.md`,
//! `TRACING.md`, `HEALTH.md`, `TESTING.md` and `ATTRIBUTION.md` for
//! what each artefact holds.

use eternal::chaos::{run_campaign, CampaignConfig};
use eternal::explore::{run_explore, ExploreConfig};
use eternal::hash::hash_bytes;
use eternal::properties::ReplicationStyle;
use eternal_bench::{
    ablation_run, attribution, checkpoint_sweep_point, fig6_point, fig6_timeline, frag_threshold,
    health, overhead_point, replica_count_point, style_run, suite, trace_run,
};
use eternal_obs::timeline::{render_breakdown_json, render_breakdown_table};
use eternal_sim::Duration;
use std::fmt;

/// Experiments runnable by name, in the order an empty argument list
/// runs them all.
const EXPERIMENTS: [(&str, fn()); 9] = [
    ("fig6", fig6),
    ("timeline", timeline_experiment),
    ("overhead", overhead),
    ("styles", styles),
    ("checkpoint-sweep", checkpoint_sweep),
    ("frag-threshold", frag),
    ("replicas", replicas),
    ("ablation-reqid", ablation_reqid),
    ("ablation-handshake", ablation_handshake),
];

/// What a flag's value must be.
enum Value {
    /// A switch: the flag takes no value.
    None,
    /// An unsigned integer; the text names it in the error message.
    Number(&'static str),
    /// A file path.
    Path,
    /// One of a fixed set of names.
    OneOf(fn() -> Vec<&'static str>),
}

impl Value {
    fn accepts(&self, v: &str) -> bool {
        match self {
            Value::None | Value::Path => true,
            Value::Number(_) => v.parse::<u64>().is_ok(),
            Value::OneOf(names) => names().contains(&v),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => Ok(()),
            Value::Number(what) => write!(f, "a {what}"),
            Value::Path => f.write_str("a path"),
            Value::OneOf(names) => write!(f, "one of: {}", names().join(", ")),
        }
    }
}

/// One flag a tool accepts; `meta` is the value's placeholder in the
/// usage line (empty for a switch).
struct Flag {
    name: &'static str,
    meta: &'static str,
    value: Value,
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        if !self.meta.is_empty() {
            write!(f, " {}", self.meta)?;
        }
        Ok(())
    }
}

const fn flag(name: &'static str, meta: &'static str, value: Value) -> Flag {
    Flag { name, meta, value }
}

const SEED: Flag = flag("--seed", "N", Value::Number("numeric seed"));
const JSON: Flag = flag("--json", "PATH", Value::Path);
const QUICK: Flag = flag("--quick", "", Value::None);
const FORCE_VIOLATION: Flag = flag("--force-violation", "", Value::None);

/// A tool's parsed flags in command-line order; a switch's value is
/// empty.
struct Args(Vec<(&'static str, String)>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        let found = self.0.iter().rev().find(|(name, _)| *name == flag);
        found.map(|(_, value)| value.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn num(&self, flag: &str, default: u64) -> u64 {
        self.get(flag)
            .map_or(default, |v| v.parse().expect("parse() accepted the number"))
    }
}

/// What one run of a tool produced.
#[derive(Default)]
struct Outcome {
    /// The report for stdout.
    stdout: String,
    /// Warnings and violations for stderr, one per line.
    stderr: String,
    /// The artefact's bytes.
    artefact: String,
    /// The flight-recorder dump of a traced violation.
    flight_recorder: Option<String>,
    /// Whether the tool's invariants held.
    passed: bool,
}

/// One row of the tool table.
struct Tool {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    /// Where the artefact goes when `--json` does not say; `None`
    /// writes it only on request.
    output: Option<&'static str>,
    /// The `(label, flags)` runs whose artefacts `fingerprint` hashes,
    /// at the seeds CI pins them at.
    fingerprinted: &'static [(&'static str, &'static [&'static str])],
    /// Runs the tool; `Err` is a flag-level error (exit 2).
    run: fn(&Args) -> Result<Outcome, String>,
}

/// Every subcommand, in the order `fingerprint` hashes them.
static TOOLS: [Tool; 8] = [
    Tool {
        name: "bench",
        about: "deterministic benchmark suite",
        flags: &[QUICK],
        output: Some("BENCH_eternal.json"),
        fingerprinted: &[("bench", &[])],
        run: bench,
    },
    Tool {
        name: "trace",
        about: "end-to-end causal tracing",
        flags: &[SEED, JSON],
        output: Some("TRACE_eternal.json"),
        fingerprinted: &[("trace", &[])],
        run: trace,
    },
    Tool {
        name: "attribution",
        about: "per-request latency attribution",
        flags: &[SEED, JSON],
        output: Some("ATTRIB_eternal.json"),
        fingerprinted: &[("attribution", &[])],
        run: attribution_cmd,
    },
    Tool {
        name: "health",
        about: "totally-ordered health monitoring",
        flags: &[
            SEED,
            flag("--fault", "KIND", Value::OneOf(health::fault_names)),
            JSON,
        ],
        output: Some("HEALTH_eternal.json"),
        fingerprinted: &[
            ("health", &[]),
            ("health.crash_restart", &["--fault", "crash_restart"]),
            ("health.kill_replica", &["--fault", "kill_replica"]),
        ],
        run: health_cmd,
    },
    Tool {
        name: "explore",
        about: "systematic schedule-space exploration",
        flags: &[
            SEED,
            flag("--budget", "B", Value::Number("run count")),
            QUICK,
            JSON,
            FORCE_VIOLATION,
        ],
        output: Some("EXPLORE_eternal.json"),
        fingerprinted: &[("explore", &["--quick"])],
        run: explore,
    },
    Tool {
        name: "timeline",
        about: "figure-6 recovery breakdown by §5.1 phase",
        flags: &[JSON],
        output: None,
        fingerprinted: &[("timeline", &[])],
        run: timeline,
    },
    Tool {
        name: "chaos",
        about: "deterministic fault-injection campaign",
        flags: &[
            SEED,
            flag("--steps", "M", Value::Number("numeric step count")),
            JSON,
            flag("--causal", "", Value::None),
            FORCE_VIOLATION,
        ],
        output: None,
        fingerprinted: &[
            ("chaos.7", &["--seed", "7", "--steps", "10"]),
            ("chaos.42", &["--seed", "42", "--steps", "10"]),
            ("chaos.60", &["--seed", "60", "--steps", "10"]),
        ],
        run: chaos,
    },
    Tool {
        name: "fingerprint",
        about: "one hash per deterministic artefact",
        flags: &[flag("--check", "FINGERPRINT.txt", Value::Path)],
        output: None,
        fingerprinted: &[],
        run: fingerprint,
    },
];

fn usage() {
    eprintln!("usage: repro [EXPERIMENT ...] | repro SUBCOMMAND [FLAGS]");
    eprintln!();
    let experiments: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "experiments (no arguments runs them all): {}",
        experiments.join(", ")
    );
    eprintln!();
    eprintln!("subcommands:");
    for tool in &TOOLS {
        let writes = tool
            .output
            .map_or(String::new(), |p| format!(", writes {p}"));
        let flags: Vec<String> = tool.flags.iter().map(|f| format!("[{f}]")).collect();
        eprintln!(
            "  {:<12} {}{writes} {}",
            tool.name,
            tool.about,
            flags.join(" ")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(tool) = args.first().and_then(|a| find_tool(a)) {
        std::process::exit(run_tool(tool, &args[1..]));
    }
    let known = |arg: &String| EXPERIMENTS.iter().any(|(name, _)| name == arg);
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        eprintln!("repro: unknown experiment {unknown:?}");
        usage();
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run();
        }
    }
}

fn find_tool(name: &str) -> Option<&'static Tool> {
    TOOLS.iter().find(|t| t.name == name)
}

/// The one flag loop: every argument must be one of the tool's flags,
/// followed by a value its [`Value`] accepts.
fn parse<S: AsRef<str>>(tool: &Tool, raw: &[S]) -> Result<Args, String> {
    let mut args = Vec::new();
    let mut it = raw.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let Some(flag) = tool.flags.iter().find(|f| f.name == arg) else {
            let accepted: Vec<String> = tool.flags.iter().map(|f| f.to_string()).collect();
            return Err(format!(
                "unknown flag {arg} (expected {})",
                accepted.join(" / ")
            ));
        };
        let value = match flag.value {
            Value::None => "",
            ref kind => it
                .next()
                .filter(|v| kind.accepts(v))
                .ok_or_else(|| format!("{arg} needs {kind}"))?,
        };
        args.push((flag.name, value.to_owned()));
    }
    Ok(Args(args))
}

/// Runs one tool end to end: flags, report, artefact files, exit code.
fn run_tool<S: AsRef<str>>(tool: &Tool, raw: &[S]) -> i32 {
    let name = tool.name;
    let run = |args| Ok(((tool.run)(&args)?, args));
    let (out, args) = match parse(tool, raw).and_then(run) {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("{name}: {msg}");
            return 2;
        }
    };
    print!("{}", out.stdout);
    eprint!("{}", out.stderr);
    let files = [
        (args.get("--json").or(tool.output), Some(&out.artefact)),
        (Some("flight_recorder.json"), out.flight_recorder.as_ref()),
    ];
    for (path, bytes) in files {
        let (Some(path), Some(bytes)) = (path, bytes) else {
            continue;
        };
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("{name}: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("{name}: wrote {path}");
    }
    i32::from(!out.passed)
}

/// `chaos`: one seeded campaign (`docs/CHAOS.md`), byte-identical per
/// seed and step count; a violating one is shrunk to a regression
/// skeleton. `--causal` records causal traces, `--force-violation`
/// plants a violation so the shrink and flight-recorder paths run.
fn chaos(args: &Args) -> Result<Outcome, String> {
    let mut cfg = CampaignConfig::default();
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.steps = args.num("--steps", cfg.steps as u64) as usize;
    cfg.force_violation = args.has("--force-violation");
    cfg.topology.cluster.trace = cfg.force_violation || args.has("--causal");
    let summary = run_campaign(&cfg);
    Ok(Outcome {
        stdout: format!("{summary}\n"),
        artefact: summary.to_json(),
        passed: summary.passed(),
        flight_recorder: summary.run.flight_recorder,
        ..Outcome::default()
    })
}

/// `explore`: one deterministic schedule-space exploration
/// (`docs/TESTING.md`), byte-identical per seed and budget. A violating
/// schedule is shrunk and its traced re-run flight-recorded;
/// `--force-violation` plants an exactly-once bug to exercise that path.
fn explore(args: &Args) -> Result<Outcome, String> {
    let mut cfg = ExploreConfig::default();
    cfg.run.seed = args.num("--seed", cfg.run.seed);
    if args.has("--quick") {
        cfg.budget = ExploreConfig::quick().budget;
    }
    cfg.budget = args.num("--budget", cfg.budget as u64) as usize;
    cfg.run.force_violation = args.has("--force-violation");
    let report = run_explore(&cfg);
    let flight_recorder = report
        .counterexample
        .as_ref()
        .and_then(|ce| ce.flight_recorder.clone());
    Ok(Outcome {
        stdout: format!("{report}\n"),
        artefact: report.to_json(),
        flight_recorder,
        passed: report.passed(),
        ..Outcome::default()
    })
}

/// `trace`: the causal-tracing scenario of `docs/TRACING.md`. The
/// artefact is the Chrome trace-event export; the run fails if replicas
/// disagreed on the total order.
fn trace(args: &Args) -> Result<Outcome, String> {
    let seed = args.num("--seed", 42);
    let run = trace_run(seed);
    let mut stderr = String::new();
    if run.dropped_events > 0 {
        stderr += &format!(
            "trace: WARNING {} span(s) were evicted from the causal ring — the \
             export shows a truncated history\n",
            run.dropped_events
        );
    }
    for v in &run.violations {
        stderr += &format!("trace: VIOLATION {v}\n");
    }
    Ok(Outcome {
        stdout: format!(
            "causal trace: seed={seed} spans={} traces={} dropped={} total_order_violations={}\n\
             -- sample span tree (first trace) --\n{}",
            run.spans,
            run.trace_count,
            run.dropped_events,
            run.violations.len(),
            run.sample_tree
        ),
        stderr,
        artefact: run.chrome_json,
        passed: run.violations.is_empty(),
        ..Outcome::default()
    })
}

/// `bench`: the deterministic benchmark suite (`docs/BENCHMARKS.md`).
/// The report is both printed and written; the run fails on a violated
/// suite invariant.
fn bench(args: &Args) -> Result<Outcome, String> {
    let report = suite::run_suite(args.has("--quick"));
    let violations = report.violations.iter();
    Ok(Outcome {
        stdout: report.json.clone(),
        stderr: violations
            .map(|v| format!("bench: VIOLATION {v}\n"))
            .collect(),
        passed: report.violations.is_empty(),
        artefact: report.json,
        ..Outcome::default()
    })
}

/// `health`: the totally-ordered health-monitoring scenario of
/// `docs/HEALTH.md`. Prints the Prometheus exposition and a summary; a
/// fault-free run fails if anything fired, a `--fault KIND` run if the
/// documented detector for that kind stayed silent.
fn health_cmd(args: &Args) -> Result<Outcome, String> {
    let fault = args.get("--fault").and_then(health::parse_fault);
    let run = health::health_run(args.num("--seed", 42), fault);
    Ok(Outcome {
        stdout: format!("{}{}\n", run.prometheus, run.summary),
        artefact: run.json,
        passed: run.passed,
        ..Outcome::default()
    })
}

/// `attribution`: the per-request latency-attribution scenario of
/// `docs/ATTRIBUTION.md`. Fails if any attributed request did not tile
/// its round trip exactly.
fn attribution_cmd(args: &Args) -> Result<Outcome, String> {
    let run = attribution::attribution_run(args.num("--seed", 42));
    Ok(Outcome {
        stdout: format!("{}{}\n", run.report, run.summary),
        artefact: run.json,
        passed: run.passed,
        ..Outcome::default()
    })
}

/// `timeline`: the Figure 6 recovery episodes broken down by §5.1
/// phase; `--json` also writes the breakdown.
fn timeline(_: &Args) -> Result<Outcome, String> {
    let mut timelines = Vec::new();
    for &size in &[1_000usize, 10_000, 100_000, 300_000] {
        timelines.extend(fig6_timeline(size, 42).timelines);
    }
    Ok(Outcome {
        stdout: format!(
            "== Figure 6 breakdown: where recovery time goes, per §5.1 phase ==\n   \
             (same scenario as fig6; phases tile the episode)\n\
             {}   (transfer dominates as state grows — fragmentation over the ring;\n    \
             quiesce + get_state are the state-size-independent floor)\n\n",
            render_breakdown_table(&timelines)
        ),
        artefact: render_breakdown_json(&timelines),
        passed: true,
        ..Outcome::default()
    })
}

fn timeline_experiment() {
    run_tool(find_tool("timeline").expect("in the table"), &[] as &[&str]);
}

/// `fingerprint`: every run the table marks as fingerprinted, hashed —
/// one line per artefact (label, schema, XXH64) plus a combined hash.
/// A refactoring proves itself neutral by leaving `FINGERPRINT.txt`
/// unchanged; `--check FILE` fails and names, per artefact, what is
/// `missing` from the fresh lines, `unexpected` in them, or `moved`.
fn fingerprint(args: &Args) -> Result<Outcome, String> {
    let expected = match args.get("--check") {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
        }
        None => None,
    };
    let mut lines = String::new();
    for tool in &TOOLS {
        for (label, flags) in tool.fingerprinted {
            let args = parse(tool, flags).expect("the table uses the tool's own flags");
            let text = (tool.run)(&args)?.artefact;
            let schema = text
                .split_once("\"schema\": ")
                .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
                .unwrap_or("-");
            lines += &format!(
                "{label} schema={schema} xxh64={:016x}\n",
                hash_bytes(text.as_bytes())
            );
        }
    }
    lines += &format!("combined xxh64={:016x}\n", hash_bytes(lines.as_bytes()));
    let stderr = expected.map_or(String::new(), |want| fingerprint_diff(&want, &lines));
    Ok(Outcome {
        passed: stderr.is_empty(),
        stdout: lines,
        stderr,
        ..Outcome::default()
    })
}

/// Compares fingerprint lines by artefact name, so a list that gained,
/// lost or reordered entries still names exactly the ones that differ.
fn fingerprint_diff(expected: &str, fresh: &str) -> String {
    fn entries(text: &str) -> Vec<(&str, &str)> {
        let split = |line| str::split_once(line, ' ').unwrap_or((line, ""));
        text.lines().map(split).collect()
    }
    let (want, got) = (entries(expected), entries(fresh));
    let mut out = String::new();
    for (name, hash) in &want {
        match got.iter().find(|(n, _)| n == name) {
            None => out += &format!("fingerprint: missing {name} (expected {hash})\n"),
            Some((_, new)) if new != hash => {
                out += &format!("fingerprint: moved {name}: expected {hash}, got {new}\n");
            }
            Some(_) => {}
        }
    }
    for (name, hash) in &got {
        if !want.iter().any(|(n, _)| n == name) {
            out += &format!("fingerprint: unexpected {name} ({hash})\n");
        }
    }
    out
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
