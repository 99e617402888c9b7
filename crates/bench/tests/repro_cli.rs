//! CLI contract of the `repro` binary. The usage text is the tool's
//! only discoverable index, so it must list every experiment and every
//! subcommand with its flags and artefact; every subcommand must reject
//! an unknown flag (naming the ones it accepts) and a value flag
//! without its value with exit 2; and `fingerprint --check` must name
//! each artefact that is missing, unexpected or moved.

use std::process::{Command, Output};
use std::sync::OnceLock;

/// A flag and whether it takes a value.
type Flag = (&'static str, bool);

/// Every subcommand: its flags and the artefact, or the flag, that
/// marks its usage line as the real one.
const TOOLS: [(&str, &[Flag], &str); 8] = [
    ("bench", &[("--quick", false)], "BENCH_eternal.json"),
    (
        "trace",
        &[("--seed", true), ("--json", true)],
        "TRACE_eternal.json",
    ),
    (
        "attribution",
        &[("--seed", true), ("--json", true)],
        "ATTRIB_eternal.json",
    ),
    (
        "health",
        &[("--seed", true), ("--fault", true), ("--json", true)],
        "HEALTH_eternal.json",
    ),
    (
        "explore",
        &[
            ("--seed", true),
            ("--budget", true),
            ("--quick", false),
            ("--json", true),
            ("--force-violation", false),
        ],
        "EXPLORE_eternal.json",
    ),
    ("timeline", &[("--json", true)], "--json PATH"),
    (
        "chaos",
        &[
            ("--seed", true),
            ("--steps", true),
            ("--json", true),
            ("--causal", false),
            ("--force-violation", false),
        ],
        "--steps M",
    ),
    ("fingerprint", &[("--check", true)], "FINGERPRINT.txt"),
];

/// Every experiment runnable by bare name.
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

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiment_exits_2_with_a_complete_usage() {
    let (code, stderr) = repro(&["no-such-experiment"]);
    assert_eq!(code, Some(2), "unknown names must exit 2");
    assert!(
        stderr.contains("unknown experiment"),
        "must name the problem: {stderr}"
    );
    for (name, flags, marker) in TOOLS {
        let line = stderr
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("usage must list `{name}`:\n{stderr}"));
        assert!(
            line.contains(marker),
            "`{name}` line must carry its artefact ({marker}): {line}"
        );
        for (flag, _) in flags {
            assert!(line.contains(&format!("[{flag}")), "{name}: {flag}: {line}");
        }
    }
    for name in EXPERIMENTS {
        assert!(
            stderr.contains(name),
            "usage must list experiment `{name}`:\n{stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_flags_exit_2() {
    for (tool, flags, _) in TOOLS {
        let (code, stderr) = repro(&[tool, "--no-such-flag"]);
        assert_eq!(code, Some(2), "{tool}: unknown flags must exit 2");
        assert!(stderr.contains("unknown flag --no-such-flag"), "{stderr}");
        for (flag, _) in flags {
            assert!(stderr.contains(flag), "{tool} must name {flag}: {stderr}");
        }
    }
}

#[test]
fn value_flags_without_a_value_exit_2() {
    for (tool, flags, _) in TOOLS {
        for (flag, _) in flags.iter().filter(|(_, valued)| *valued) {
            let (code, stderr) = repro(&[tool, flag]);
            assert_eq!(code, Some(2), "{tool} {flag}: {stderr}");
            let says = format!("{tool}: {flag} needs ");
            assert!(stderr.starts_with(&says), "{tool} {flag}: {stderr}");
        }
    }
    // A value of the wrong kind is the same error.
    for args in [["chaos", "--steps", "x"], ["health", "--fault", "nope"]] {
        let (code, stderr) = repro(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(" needs "), "{args:?}: {stderr}");
    }
}

/// One `fingerprint --check` against the committed lines with one
/// artefact's line dropped, one hash changed and one line added: exit
/// code and stderr. The fresh lines are computed once for the three
/// cases below (every artefact in a debug build is most of a minute).
fn check_against_doctored_fingerprint() -> &'static (Option<i32>, String) {
    static RUN: OnceLock<(Option<i32>, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FINGERPRINT.txt");
        let committed = std::fs::read_to_string(root).expect("FINGERPRINT.txt is committed");
        let mut doctored = String::from("bogus schema=- xxh64=0000000000000000\n");
        for line in committed.lines() {
            if line.starts_with("chaos.7 ") {
                continue;
            }
            let moved = line.replace("trace schema=-", "trace schema=9");
            doctored += &format!("{moved}\n");
        }
        let path = std::env::temp_dir().join(format!("repro_cli_fp_{}.txt", std::process::id()));
        std::fs::write(&path, doctored).expect("temp file writes");
        let run = repro(&["fingerprint", "--check", path.to_str().expect("utf-8 path")]);
        let _ = std::fs::remove_file(&path);
        run
    })
}

#[test]
fn fingerprint_check_names_a_missing_artefact() {
    let (code, stderr) = check_against_doctored_fingerprint();
    assert_eq!(*code, Some(1), "{stderr}");
    assert!(stderr.contains("fingerprint: missing bogus "), "{stderr}");
}

#[test]
fn fingerprint_check_names_an_unexpected_artefact() {
    let (_, stderr) = check_against_doctored_fingerprint();
    assert!(
        stderr.contains("fingerprint: unexpected chaos.7 "),
        "{stderr}"
    );
}

#[test]
fn fingerprint_check_names_a_moved_artefact_and_only_that() {
    let (_, stderr) = check_against_doctored_fingerprint();
    assert!(
        stderr.contains("fingerprint: moved trace: expected schema=9"),
        "{stderr}"
    );
    // Matching is by name, not position: the dropped and the added
    // line shift every other artefact without implicating it.
    assert!(!stderr.contains("moved bench"), "{stderr}");
    assert!(!stderr.contains("moved chaos.60"), "{stderr}");
}
