//! The typed event taxonomy shared by every protocol layer.
//!
//! Each [`TraceEvent`] carries an [`EventKind`] instead of a free-form
//! string, so tests match on variants. Every kind also has a stable
//! string **code** ([`EventKind::code`]), which is how an event prints.

use crate::time::SimTime;
use std::fmt;

/// A §5.1 state-transfer phase, as resolved in the recovery timeline.
///
/// The five phases tile a recovery episode from replica launch to
/// reinstatement:
///
/// 1. [`Quiesce`](RecoveryPhase::Quiesce) — launch, `ReplicaJoining`
///    announcement, `get_state` fabrication, and the donor waiting out
///    its quiescence window (§5).
/// 2. [`GetState`](RecoveryPhase::GetState) — the donor executing
///    `get_state` over the three kinds of state (§4).
/// 3. [`Transfer`](RecoveryPhase::Transfer) — the state assignment in
///    flight over the totally ordered ring (fragmented into frames;
///    this is the component that grows with state size in Figure 6).
/// 4. [`SetState`](RecoveryPhase::SetState) — applying the three kinds
///    of state at the recovering replica (§5.1 step v).
/// 5. [`Replay`](RecoveryPhase::Replay) — draining the holding queue
///    of messages enqueued since the synchronization point (step vi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryPhase {
    /// Launch through donor quiescence.
    Quiesce,
    /// Donor-side state capture.
    GetState,
    /// State assignment on the wire.
    Transfer,
    /// State application at the recovering replica.
    SetState,
    /// Holding-queue drain (log replay).
    Replay,
}

impl RecoveryPhase {
    /// All phases, in episode order.
    pub const ALL: [RecoveryPhase; 5] = [
        RecoveryPhase::Quiesce,
        RecoveryPhase::GetState,
        RecoveryPhase::Transfer,
        RecoveryPhase::SetState,
        RecoveryPhase::Replay,
    ];

    /// Short display name used in the breakdown table.
    pub const fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Quiesce => "quiesce",
            RecoveryPhase::GetState => "get_state",
            RecoveryPhase::Transfer => "transfer",
            RecoveryPhase::SetState => "set_state",
            RecoveryPhase::Replay => "replay",
        }
    }
}

/// Machine-matchable kind of a trace event.
///
/// Grouped by the layer that records it: cluster lifecycle, the
/// recovery protocol, Totem, and the ORB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    // ---- cluster lifecycle ----
    /// A replica process was killed (fault injection).
    ReplicaKilled,
    /// A replacement replica process was launched.
    ReplicaLaunched,
    /// A whole processor crashed.
    ProcessorCrashed,
    /// A crashed processor restarted.
    ProcessorRestarted,
    /// The resource manager chose a replacement host.
    ReplacementChosen,
    /// The evolution manager started a rolling upgrade.
    UpgradeBegin,
    /// A rolling upgrade replaced its last old replica.
    UpgradeComplete,
    /// A message could not be reassembled from its fragments.
    ReassemblyError,
    /// Totem delivered a configuration change.
    ConfigChange,

    // ---- recovery protocol (§5.1) ----
    /// A §5.1 state transfer completed; the replica is operational.
    RecoveryComplete,
    /// A passive backup was promoted to primary.
    PromotionComplete,

    // ---- ORB layer (§4.2) ----
    /// A client connection built a GIOP request (request-id progress).
    OrbRequestIssued,
    /// A server connection dispatched a request through the POA.
    OrbRequestDispatched,
    /// A server connection discarded a request for lack of negotiated
    /// state (§4.2.2 failure mode).
    OrbRequestDiscarded,
    /// A client connection matched a reply to an outstanding request.
    OrbReplyMatched,
    /// A client connection discarded a reply on request-id mismatch
    /// (§4.2.1 failure mode).
    OrbReplyDiscarded,
    /// A server connection completed the code-set/vendor handshake.
    OrbHandshakeNegotiated,
    /// Eternal dispatched a control operation (`get_state`/`set_state`)
    /// through the POA.
    OrbControlDispatch,

    // ---- fault-injection campaigns ----
    /// A campaign or an explored schedule injected a fault (crash,
    /// partition, loss burst, delay spike, …).
    ChaosFault,
    /// An invariant check ran at a quiescent point.
    InvariantCheck,
    /// An invariant check failed.
    InvariantViolation,

    // ---- cluster health (docs/HEALTH.md) ----
    /// A replica published a health snapshot through the total order.
    HealthSnapshot,
    /// The health auditor fired a diagnosis.
    HealthDiagnosis,

    // ---- schedule exploration (docs/TESTING.md) ----
    /// The explorer replayed a counterexample schedule (the traced
    /// re-run that feeds the flight recorder).
    ExploreCounterexample,
}

impl EventKind {
    /// The stable string code of this kind.
    pub const fn code(self) -> &'static str {
        match self {
            EventKind::ReplicaKilled => "replica.killed",
            EventKind::ReplicaLaunched => "replica.launched",
            EventKind::ProcessorCrashed => "processor.crashed",
            EventKind::ProcessorRestarted => "processor.restarted",
            EventKind::ReplacementChosen => "replacement.chosen",
            EventKind::UpgradeBegin => "upgrade.begin",
            EventKind::UpgradeComplete => "upgrade.complete",
            EventKind::ReassemblyError => "reassembly.error",
            EventKind::ConfigChange => "config.change",
            EventKind::RecoveryComplete => "recovery.complete",
            EventKind::PromotionComplete => "promotion.complete",
            EventKind::OrbRequestIssued => "orb.request.issued",
            EventKind::OrbRequestDispatched => "orb.request.dispatched",
            EventKind::OrbRequestDiscarded => "orb.request.discarded",
            EventKind::OrbReplyMatched => "orb.reply.matched",
            EventKind::OrbReplyDiscarded => "orb.reply.discarded",
            EventKind::OrbHandshakeNegotiated => "orb.handshake.negotiated",
            EventKind::OrbControlDispatch => "orb.control.dispatch",
            EventKind::ChaosFault => "chaos.fault",
            EventKind::InvariantCheck => "invariant.check",
            EventKind::InvariantViolation => "invariant.violation",
            EventKind::HealthSnapshot => "health.snapshot",
            EventKind::HealthDiagnosis => "health.diagnosis",
            EventKind::ExploreCounterexample => "explore.counterexample",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// Which component recorded it (e.g. `"P2/recovery"`).
    pub source: String,
    /// Typed event kind.
    pub kind: EventKind,
    /// Free-form details.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} {}",
            self.at,
            self.source,
            self.kind.code(),
            self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            EventKind::ReplicaKilled,
            EventKind::ReplicaLaunched,
            EventKind::ProcessorCrashed,
            EventKind::ProcessorRestarted,
            EventKind::ReplacementChosen,
            EventKind::UpgradeBegin,
            EventKind::UpgradeComplete,
            EventKind::ReassemblyError,
            EventKind::ConfigChange,
            EventKind::RecoveryComplete,
            EventKind::PromotionComplete,
            EventKind::OrbRequestIssued,
            EventKind::OrbRequestDispatched,
            EventKind::OrbRequestDiscarded,
            EventKind::OrbReplyMatched,
            EventKind::OrbReplyDiscarded,
            EventKind::OrbHandshakeNegotiated,
            EventKind::OrbControlDispatch,
            EventKind::ChaosFault,
            EventKind::InvariantCheck,
            EventKind::InvariantViolation,
            EventKind::HealthSnapshot,
            EventKind::HealthDiagnosis,
            EventKind::ExploreCounterexample,
        ];
        let codes: std::collections::BTreeSet<&str> = all.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), all.len(), "codes must be unique");
        // Codes consumed by pre-existing tests/benches must not change.
        assert!(codes.contains("promotion.complete"));
        assert!(codes.contains("upgrade.begin"));
        assert!(codes.contains("upgrade.complete"));
    }

    #[test]
    fn phase_order_and_names() {
        assert_eq!(RecoveryPhase::ALL.len(), 5);
        assert_eq!(RecoveryPhase::Quiesce.name(), "quiesce");
        assert_eq!(RecoveryPhase::Replay.name(), "replay");
        assert!(RecoveryPhase::Quiesce < RecoveryPhase::GetState);
    }

    #[test]
    fn display_is_readable() {
        let e = TraceEvent {
            at: SimTime::from_nanos(1000),
            source: "P0/rm".into(),
            kind: EventKind::OrbRequestDispatched,
            detail: "req 3".into(),
        };
        assert_eq!(
            e.to_string(),
            "t=1.000us [P0/rm] orb.request.dispatched req 3"
        );
    }
}
