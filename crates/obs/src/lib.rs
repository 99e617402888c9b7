//! The observability layer of the Eternal-RS reproduction of *"State
//! Synchronization and Recovery for Strongly Consistent Replicated
//! CORBA Objects"* (DSN 2001).
//!
//! The paper's headline result (Figure 6) is an *end-to-end* recovery
//! time; understanding — and later optimizing — where that time goes
//! requires phase-resolved instrumentation across all three protocol
//! layers (Totem, ORB, Eternal). This crate is the measurement
//! substrate they share:
//!
//! * [`time`] — virtual nanosecond instants and durations (moved here
//!   from `eternal-sim` so every layer, including the ORB which has no
//!   simulator dependency, can timestamp events).
//! * [`event`] — the typed [`event::EventKind`] taxonomy and
//!   [`event::TraceEvent`] record.
//! * [`causal`] — end-to-end causal tracing: the in-flight
//!   [`causal::TraceTag`], the per-hop [`causal::CausalEvent`] taxonomy,
//!   and the bounded [`causal::CausalRecorder`] that reconstructs span
//!   trees, verifies the total-order claim, exports Chrome trace-event
//!   JSON, and doubles as the post-mortem flight recorder
//!   (`docs/TRACING.md`).
//! * [`attribution`] — per-request latency attribution: tiles each
//!   traced round trip's RTT exactly into named pipeline phases along
//!   the critical path through fragments and batches, with per-phase
//!   histograms and a top-K slowest-requests table
//!   (`docs/ATTRIBUTION.md`).
//! * [`trace`] — a bounded, drop-oldest [`trace::Trace`] ring buffer
//!   with a span API ([`trace::Trace::span_begin`] /
//!   [`trace::Trace::span_end`]); all record paths are no-ops when the
//!   trace is disabled.
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of named counters,
//!   gauges, and log-bucketed latency histograms (p50/p95/p99/max).
//! * [`timeline`] — the phase-resolved
//!   [`timeline::RecoveryTimeline`] (quiesce → `get_state` → transfer
//!   → `set_state` → replay) and its Figure-6 breakdown table.
//! * [`health`] — totally-ordered cluster health: the
//!   [`health::HealthSnapshot`] each replica publishes through the
//!   total order, the agreed epoch stream, and the online
//!   [`health::HealthAuditor`] with its severity-graded detectors
//!   (`docs/HEALTH.md`).
//! * [`export`] — the one JSON writer behind every artefact, plus a
//!   Prometheus-style text exposition of a registry.
//!
//! The crate has no dependencies at all — it sits below `eternal-sim`
//! (which re-exports it) and below `eternal-orb`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod causal;
pub mod event;
pub mod export;
pub mod health;
pub mod metrics;
pub mod time;
pub mod timeline;
pub mod trace;

pub use attribution::{attribute, AttributionReport, Phase, RequestAttribution};
pub use causal::{CausalEvent, CausalRecorder, Hop, OrderPos, TraceTag};
pub use event::{EventKind, RecoveryPhase, SpanEdge, SpanId, SpanRef, TraceEvent};
pub use health::{
    AuditorConfig, Detector, Diagnosis, EpochRecord, HealthAuditor, HealthSnapshot, NodeSummary,
    Severity,
};
pub use metrics::{LogHistogram, MetricsRegistry};
pub use time::{Duration, SimTime};
pub use timeline::{PhaseSpan, RecoveryTimeline};
pub use trace::{Span, Trace};
