//! Phase-resolved recovery timelines and the Figure-6 breakdown table.
//!
//! One [`RecoveryTimeline`] describes one recovery episode as five
//! contiguous [`PhaseSpan`]s (quiesce → `get_state` → transfer →
//! `set_state` → replay) tiling the interval from replica launch to
//! reinstatement. Because the phases tile the episode, their durations
//! sum *exactly* to `RecoveryRecord::recovery_time()` — the invariant
//! [`RecoveryTimeline::covers_episode_within`] checks and the
//! observability tests assert.

use crate::event::RecoveryPhase;
use crate::export::{JsonWriter, Layout};
use crate::time::{Duration, SimTime};
use std::fmt::Write as _;

/// One phase's interval within a recovery episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which §5.1 phase.
    pub phase: RecoveryPhase,
    /// Phase start (global sim time).
    pub begin: SimTime,
    /// Phase end (global sim time).
    pub end: SimTime,
}

impl PhaseSpan {
    /// The phase's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.begin)
    }
}

/// A complete recovery episode resolved into its five phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Human label, e.g. `"G0 -> P2"` (group and recovering host).
    pub label: String,
    /// When the replacement replica was launched.
    pub launched_at: SimTime,
    /// When it became operational (§5.1 step vi complete).
    pub operational_at: SimTime,
    /// Application-state bytes moved by the transfer.
    pub app_state_bytes: usize,
    /// The five phases, in order, tiling `[launched_at, operational_at]`.
    pub phases: Vec<PhaseSpan>,
}

impl RecoveryTimeline {
    /// End-to-end episode duration (equals
    /// `RecoveryRecord::recovery_time()` for the same episode).
    pub fn total(&self) -> Duration {
        self.operational_at.saturating_since(self.launched_at)
    }

    /// Sum of the phase durations.
    pub fn phase_sum(&self) -> Duration {
        self.phases
            .iter()
            .fold(Duration::ZERO, |acc, p| acc + p.duration())
    }

    /// The span for a given phase, if present.
    pub fn phase(&self, phase: RecoveryPhase) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Whether the phases are in canonical order, back-to-back (each
    /// phase begins where the previous ended), starting at
    /// `launched_at` and ending at `operational_at`.
    pub fn is_contiguous(&self) -> bool {
        if self.phases.len() != RecoveryPhase::ALL.len() {
            return false;
        }
        let mut cursor = self.launched_at;
        for (span, &want) in self.phases.iter().zip(RecoveryPhase::ALL.iter()) {
            if span.phase != want || span.begin != cursor || span.end < span.begin {
                return false;
            }
            cursor = span.end;
        }
        cursor == self.operational_at
    }

    /// Whether the phase durations sum to the episode total within the
    /// given relative tolerance (e.g. `0.05` for 5%).
    pub fn covers_episode_within(&self, tolerance: f64) -> bool {
        let total = self.total().as_nanos() as f64;
        let sum = self.phase_sum().as_nanos() as f64;
        if total == 0.0 {
            return sum == 0.0;
        }
        ((sum - total) / total).abs() <= tolerance
    }
}

/// Renders the Figure-6 style per-episode phase breakdown table.
pub fn render_breakdown_table(timelines: &[RecoveryTimeline]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "episode", "bytes", "quiesce", "get_state", "transfer", "set_state", "replay", "total"
    );
    for t in timelines {
        let cell = |p: RecoveryPhase| {
            t.phase(p)
                .map(|s| s.duration().to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            t.label,
            t.app_state_bytes,
            cell(RecoveryPhase::Quiesce),
            cell(RecoveryPhase::GetState),
            cell(RecoveryPhase::Transfer),
            cell(RecoveryPhase::SetState),
            cell(RecoveryPhase::Replay),
            t.total().to_string(),
        );
    }
    out
}

/// Renders the same per-episode breakdown as machine-readable JSON (the
/// `repro -- timeline --json` export). Rendering is byte-deterministic.
/// `dropped_events` is the structured-trace ring's overflow count for
/// the run(s) the episodes came from: nonzero means the breakdown was
/// computed from a truncated history, and consumers must see that
/// rather than silently trusting the numbers.
pub fn render_breakdown_json(timelines: &[RecoveryTimeline], dropped_events: u64) -> String {
    let mut w = JsonWriter::default();
    w.object(Layout::Block)
        .field("dropped_events", dropped_events)
        .key("episodes")
        .array(Layout::Block);
    for t in timelines {
        w.object(Layout::Spaced)
            .field_str("label", &t.label)
            .field("app_state_bytes", t.app_state_bytes)
            .field("launched_at_ns", t.launched_at.as_nanos())
            .field("operational_at_ns", t.operational_at.as_nanos())
            .field("total_ns", t.total().as_nanos())
            .key("phases")
            .object(Layout::Spaced);
        for span in &t.phases {
            w.field(format_args!("{:?}", span.phase), span.duration().as_nanos());
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn sample() -> RecoveryTimeline {
        let bounds = [t(100), t(150), t(200), t(500), t(510), t(600)];
        RecoveryTimeline {
            label: "G0 -> P2".into(),
            launched_at: bounds[0],
            operational_at: bounds[5],
            app_state_bytes: 4096,
            phases: RecoveryPhase::ALL
                .iter()
                .enumerate()
                .map(|(i, &phase)| PhaseSpan {
                    phase,
                    begin: bounds[i],
                    end: bounds[i + 1],
                })
                .collect(),
        }
    }

    #[test]
    fn contiguous_phases_sum_exactly() {
        let tl = sample();
        assert!(tl.is_contiguous());
        assert_eq!(tl.phase_sum(), tl.total());
        assert!(tl.covers_episode_within(0.0));
        assert_eq!(
            tl.phase(RecoveryPhase::Transfer).unwrap().duration(),
            Duration::from_micros(300)
        );
    }

    #[test]
    fn gap_breaks_contiguity() {
        let mut tl = sample();
        tl.phases[2].begin = t(210);
        assert!(!tl.is_contiguous());
    }

    #[test]
    fn out_of_order_breaks_contiguity() {
        let mut tl = sample();
        tl.phases.swap(1, 2);
        assert!(!tl.is_contiguous());
    }

    #[test]
    fn tolerance_check() {
        let mut tl = sample();
        // Shrink replay by 4% of the total (500us * 0.04 = 20us).
        tl.phases[4].end = t(590);
        assert!(!tl.is_contiguous());
        assert!(tl.covers_episode_within(0.05));
        assert!(!tl.covers_episode_within(0.01));
    }

    #[test]
    fn table_renders_all_phases() {
        let text = render_breakdown_table(&[sample()]);
        for name in ["quiesce", "get_state", "transfer", "set_state", "replay"] {
            assert!(text.contains(name), "missing column {name}");
        }
        assert!(text.contains("G0 -> P2"));
        assert!(text.contains("4096"));
    }

    #[test]
    fn json_breakdown_is_deterministic_and_complete() {
        let json = render_breakdown_json(&[sample()], 0);
        assert_eq!(json, render_breakdown_json(&[sample()], 0));
        assert!(json.contains("\"dropped_events\": 0"));
        assert!(json.contains("\"label\": \"G0 -> P2\""));
        assert!(json.contains("\"app_state_bytes\": 4096"));
        assert!(json.contains("\"total_ns\""));
        assert!(json.contains("\"phases\": {"));
        assert!(render_breakdown_json(&[], 3).contains("\"dropped_events\": 3"));
        assert!(render_breakdown_json(&[], 0).contains("\"episodes\": [\n  ]"));
    }
}
