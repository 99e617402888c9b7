//! The typed events of the ORB's log, and the §5.1 recovery phases.
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

/// Machine-matchable kind of an ORB trace event (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
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
}

impl EventKind {
    /// The stable string code of this kind.
    pub const fn code(self) -> &'static str {
        match self {
            EventKind::OrbRequestIssued => "orb.request.issued",
            EventKind::OrbRequestDispatched => "orb.request.dispatched",
            EventKind::OrbRequestDiscarded => "orb.request.discarded",
            EventKind::OrbReplyMatched => "orb.reply.matched",
            EventKind::OrbReplyDiscarded => "orb.reply.discarded",
            EventKind::OrbHandshakeNegotiated => "orb.handshake.negotiated",
            EventKind::OrbControlDispatch => "orb.control.dispatch",
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
            EventKind::OrbRequestIssued,
            EventKind::OrbRequestDispatched,
            EventKind::OrbRequestDiscarded,
            EventKind::OrbReplyMatched,
            EventKind::OrbReplyDiscarded,
            EventKind::OrbHandshakeNegotiated,
            EventKind::OrbControlDispatch,
        ];
        let codes: std::collections::BTreeSet<&str> = all.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), all.len(), "codes must be unique");
        // Codes consumed by tests must not change.
        assert!(codes.contains("orb.control.dispatch"));
        assert!(codes.contains("orb.request.dispatched"));
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
