//! The `repro -- health` runner: one health-lab scenario rendered as
//! the byte-deterministic `HEALTH_eternal.json` document plus a
//! Prometheus text exposition of the cluster's final metrics registry.
//!
//! Document schema (`docs/HEALTH.md` has the field-by-field spec):
//!
//! ```text
//! {
//!   "schema": 3,
//!   "seed": …, "period_ns": …, "fault": "none" | <kind>,
//!   "injected_at_ns": -1 | …, "final_time_ns": …,
//!   "epochs":    [ {epoch, at_ns, snap{…}} … ],   // the agreed stream
//!   "nodes":     [ {node, snapshots, max_…} … ],  // per-replica roll-ups
//!   "diagnoses": [ {epoch, at_ns, detector, severity, …} … ],
//!   "counts": {"epochs": …, "diagnoses": …, "warning": …, "critical": …,
//!              "causal_dropped_events": …}
//! }
//! ```
//!
//! Exit policy (mirrored by `repro`): a fault-free run must produce
//! zero diagnoses — any firing is a false positive and fails. A forced
//! fault run (`--fault KIND`) must fire the documented detector for
//! that kind — silence fails. Same seed, same flags → byte-identical
//! document.

use eternal::chaos::FaultKind;
use eternal::health_lab::{expected_detector, run_scenario, LabConfig};
use eternal_obs::export::{registry_to_prometheus, JsonWriter, Layout};
use eternal_obs::health::Severity;
use std::fmt::Write as _;

/// The result of one health run.
#[derive(Debug, Clone)]
pub struct HealthRun {
    /// `HEALTH_eternal.json` contents (trailing newline included).
    pub json: String,
    /// Prometheus text exposition of the final metrics registry.
    pub prometheus: String,
    /// One-line human summary.
    pub summary: String,
    /// Whether the run met its exit policy (see module docs).
    pub passed: bool,
}

/// Runs one scenario and renders its documents.
pub fn health_run(seed: u64, fault: Option<FaultKind>) -> HealthRun {
    let run = run_scenario(&LabConfig {
        seed,
        fault,
        ..LabConfig::default()
    });
    let auditor = run.cluster.health_auditor();
    let diagnoses = auditor.diagnoses();
    let warning = diagnoses
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let critical = auditor.critical_count();

    let passed = match fault {
        // A healthy cluster must be silent: every diagnosis here is a
        // false positive.
        None => diagnoses.is_empty(),
        // A faulty cluster must not be: the documented detector for
        // the injected kind has to fire after the injection point.
        Some(kind) => {
            let expected = expected_detector(kind);
            let injected = run.injected_at.map(|t| t.as_nanos()).unwrap_or(0);
            diagnoses
                .iter()
                .any(|d| d.detector == expected && d.at_ns >= injected)
        }
    };

    let epochs = auditor.epochs();
    // Truncated-observability accounting: the lab traces, and spans its
    // causal recorder evicted must not go unseen.
    let causal_dropped = run.cluster.causal().dropped();
    let mut w = JsonWriter::default();
    w.object(Layout::Block)
        .field("schema", 3)
        .field("seed", seed)
        .field("period_ns", auditor.period_ns())
        .field_str("fault", fault.map_or("none", FaultKind::name))
        .field(
            "injected_at_ns",
            run.injected_at.map_or(-1, |t| t.as_nanos() as i64),
        )
        .field("final_time_ns", run.cluster.now().as_nanos())
        .key("epochs")
        .array(Layout::Block);
    for rec in epochs {
        w.object(Layout::Spaced)
            .field("epoch", rec.epoch)
            .field("at_ns", rec.at_ns)
            .field("snap", rec.snap.to_json())
            .end();
    }
    w.end().key("nodes").array(Layout::Block);
    for s in auditor.node_summaries() {
        w.value(s.to_json());
    }
    w.end().key("diagnoses").array(Layout::Block);
    for d in diagnoses {
        w.value(d.to_json());
    }
    w.end()
        .key("counts")
        .object(Layout::Spaced)
        .field("epochs", epochs.len())
        .field("diagnoses", diagnoses.len())
        .field("warning", warning)
        .field("critical", critical)
        .field("causal_dropped_events", causal_dropped)
        .end()
        .field("passed", passed)
        .end();

    let mut summary = format!(
        "health: seed={seed} fault={} epochs={} diagnoses={} warning={warning} critical={critical} verdict={}",
        fault.map_or("none", FaultKind::name),
        epochs.len(),
        diagnoses.len(),
        if passed { "PASS" } else { "FAIL" }
    );
    if causal_dropped > 0 {
        let _ = write!(
            summary,
            "\nhealth: WARNING {causal_dropped} span(s) were evicted from the causal \
             recorder during this run"
        );
    }

    HealthRun {
        json: w.finish(),
        prometheus: registry_to_prometheus(&run.cluster.metrics_registry()),
        summary,
        passed,
    }
}

/// Parses a `--fault` argument into a kind.
pub fn parse_fault(name: &str) -> Option<FaultKind> {
    FaultKind::ALL.into_iter().find(|k| k.name() == name)
}

/// The names `--fault` accepts.
pub fn fault_names() -> Vec<&'static str> {
    FaultKind::ALL.map(FaultKind::name).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_names_round_trip_through_the_flag_parser() {
        for kind in FaultKind::ALL {
            assert_eq!(parse_fault(kind.name()), Some(kind));
        }
        assert_eq!(parse_fault("nonsense"), None);
    }
}
