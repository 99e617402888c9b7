//! `perf` — the repository's benchmark (see `perf/README.md`).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! perf [--seed <n>] [--seconds <s>] [--quick]                     both passes of all five
//! perf selfcheck [--seed <n>] [--seconds <s>] [--quick]           two sets, compared to the bounds
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output of a single pass is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod gen;
mod metrics;
mod passes;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::Better;
use passes::{Budget, PassResult};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds one pass measures for when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug)]
struct Args {
    selfcheck: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perf [selfcheck] [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        selfcheck: false,
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
    };
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".to_owned());
                }
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    alloc::keep_freed_memory_mapped();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        seconds: args.seconds,
        quick: args.quick,
    };
    if args.selfcheck {
        return selfcheck(&args);
    }
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    // Run from the repository root (as the driver does) or from `perf/`.
    let out_dir = if std::path::Path::new("perf").is_dir() {
        std::path::Path::new("perf").join("out")
    } else {
        std::path::PathBuf::from("out")
    };
    let mut all_correct = true;
    let mut last = None;
    for &w in &workloads {
        for &trace in passes {
            let result = if trace {
                passes::traced(w, args.seed, budget, &out_dir)
            } else {
                passes::untraced(w, args.seed, budget)
            };
            print_report(&result, trace);
            all_correct &= result.correct();
            last = Some(result);
        }
    }
    // The machine-readable line describes one pass, so it is printed
    // when exactly one was asked for.
    if let (Some(result), 1, 1) = (&last, workloads.len(), passes.len()) {
        println!("{}", json_line(result));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn kind_of(unit: &str) -> &'static str {
    if unit.contains("virt") || matches!(unit, "B" | "frames") {
        "simulated"
    } else if matches!(unit, "count" | "share" | "ratio" | "kB") {
        "count"
    } else {
        "host"
    }
}

fn print_report(r: &PassResult, trace: bool) {
    println!(
        "== {} · seed {} · input {:016x} · {} pass · {} rounds{}{}",
        r.workload.name(),
        r.seed,
        r.input_hash,
        if trace { "traced" } else { "untraced" },
        r.rounds,
        if r.quick {
            " · quick (not comparable)"
        } else {
            ""
        },
        if r.noisy { " · noisy" } else { "" },
    );
    for m in &r.metrics {
        println!(
            "{:<34} {:>18.6} {:<9} {:<9} {} is better",
            m.def.name,
            m.value,
            m.def.unit,
            kind_of(m.def.unit),
            m.def.better.word()
        );
    }
    for note in &r.notes {
        println!("   {note}");
    }
    println!(
        "   {} invocations attempted, {} failed, correct: {}",
        r.attempted,
        r.failed,
        r.correct()
    );
    for failure in &r.failures {
        println!("   FAILED {failure}");
    }
}

fn json_line(r: &PassResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.def.name,
                json_number(m.value),
                m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); JSON has no NaN or infinity, so those become 0 and the run
/// is already marked incorrect by whatever produced them.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

// ====================================================================
// selfcheck
// ====================================================================

/// Reads `"name": {"value": <number>` pairs out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(at) = line.find("\"metrics\":") else {
        return Vec::new();
    };
    line[at..]
        .split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|pair| {
            let name = pair[0].rsplit('"').nth(1)?;
            let number = pair[1].split([',', '}']).next()?;
            Some((name.to_owned(), number.trim().parse().ok()?))
        })
        .collect()
}

/// One untraced pass of `workload` in a child process (its own peak
/// memory, its own allocator state — what the driver does).
fn child_pass(args: &Args, workload: Workload) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{} failed ({}):\n{stdout}{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(parse_metrics(last))
}

/// Runs the untraced set twice back to back and holds the second to
/// the first within every metric's own bound.
fn selfcheck(args: &Args) -> ExitCode {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for set in 1..=2 {
        let mut results = Vec::new();
        for &w in &workloads {
            eprintln!("selfcheck: set {set}, {}", w.name());
            match child_pass(args, w) {
                Ok(metrics) => results.push(metrics),
                Err(e) => {
                    eprintln!("selfcheck: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        sets.push(results);
    }
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict{}",
        "workload",
        "metric",
        "first",
        "second",
        "worse by",
        "bound",
        if args.quick {
            "  (quick: not comparable)"
        } else {
            ""
        }
    );
    let mut exceeded = 0;
    for (i, w) in workloads.iter().enumerate() {
        for def in metrics::END_TO_END {
            let find =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
            let (Some(a), Some(b)) = (find(&sets[0][i]), find(&sets[1][i])) else {
                println!("{:<18} {:<20} missing from the output", w.name(), def.name);
                exceeded += 1;
                continue;
            };
            // Positive = the second set is worse than the first.
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let ok = worse <= def.bound;
            exceeded += usize::from(!ok);
            println!(
                "{:<18} {:<20} {:>16.6} {:>16.6} {:>8.3}% {:>6.1}%  {}",
                w.name(),
                def.name,
                a,
                b,
                worse * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if exceeded == 0 {
        println!("selfcheck: the two sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {exceeded} metric(s) outside their bound");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = "--workload active_frag --seed 7 --seconds 3 --trace 1";
        let args = parse_args(argv.split(' ').map(str::to_owned)).unwrap();
        assert_eq!(args.workload, Some(Workload::ActiveFrag));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Some(true)));
        assert!(parse_args(["--workload".to_owned(), "nope".to_owned()].into_iter()).is_err());
        assert!(parse_args(["--trace".to_owned(), "2".to_owned()].into_iter()).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_selfcheck_parser() {
        let pass = |defs: &'static [metrics::MetricDef]| PassResult {
            workload: Workload::ActiveSmall,
            seed: 1,
            input_hash: 0,
            metrics: defs
                .iter()
                .enumerate()
                .map(|(i, def)| metrics::Measured {
                    def,
                    value: 1.5 + i as f64 / 3.0,
                })
                .collect(),
            rounds: 3,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            noisy: false,
            quick: true,
            notes: Vec::new(),
        };
        for defs in [metrics::END_TO_END, metrics::PER_LAYER] {
            let line = json_line(&pass(defs));
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            let parsed = parse_metrics(&line);
            assert_eq!(parsed.len(), defs.len());
            for (i, (name, value)) in parsed.iter().enumerate() {
                assert_eq!(name, defs[i].name);
                assert_eq!(*value, 1.5 + i as f64 / 3.0);
            }
        }
    }
}
