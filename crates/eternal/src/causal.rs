//! Causal-tracing glue between the Eternal mechanisms and the
//! [`eternal_obs::causal`] recorder.
//!
//! The recorder itself lives in `eternal-obs` (it is shared with Totem,
//! which carries [`TraceTag`]s in its frame metadata). This module owns
//! the *Eternal-side* conventions:
//!
//! * how trace ids are derived from message identity (deterministic —
//!   no randomness, so same-seed runs produce byte-identical exports),
//! * the [`HopCtx`] handle the cluster passes into
//!   [`crate::mechanisms::Mechanisms::on_delivered`] so the mechanisms
//!   can stamp their hops (hold, dispatch, reply, `get_state`,
//!   `set_state`, replay) without owning the recorder.
//!
//! See `docs/TRACING.md` for the full span taxonomy and wire format.

use crate::gid::{ConnectionName, TransferId};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::message::EternalMessage;
use eternal_obs::causal::{CausalRecorder, Hop, TraceTag};
use eternal_obs::SimTime;
use std::fmt;

/// The trace id of one logical IIOP operation. Request and reply share
/// it (a round trip is one causal chain), and every replica derives the
/// same value independently — it is a pure function of the operation's
/// group-level identity, never of local ORB state.
pub fn iiop_trace_id(conn: ConnectionName, op_seq: u32) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"iiop");
    h = fnv1a(h, &conn.client.0.to_be_bytes());
    h = fnv1a(h, &conn.server.0.to_be_bytes());
    h = fnv1a(h, &op_seq.to_be_bytes());
    // Trace id 0 means "untraced"; avoid the (astronomically unlikely)
    // collision deterministically.
    if h == 0 {
        1
    } else {
        h
    }
}

/// The trace id of one §5.1 state-transfer episode (`get_state` →
/// assignment → `set_state` → replay form one causal chain).
pub fn transfer_trace_id(transfer: TransferId) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"xfer");
    h = fnv1a(h, &transfer.0.to_be_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

/// The trace id a multicast of `message` belongs to, for messages that
/// reach [`crate::cluster::Cluster`]'s send path without an explicit
/// tag. Infrastructure chatter (joins, faults, load ticks) is untraced:
/// it returns 0, which keeps those frames at zero wire overhead.
pub fn trace_id_of(message: &EternalMessage) -> u64 {
    match message {
        EternalMessage::Iiop { conn, op_seq, .. } => iiop_trace_id(*conn, *op_seq),
        // Chunks and the closing suffix extend the transfer's chain, so
        // a chunked recovery reads as one causal episode end to end.
        EternalMessage::StateRetrieval { transfer, .. }
        | EternalMessage::StateAssignment { transfer, .. }
        | EternalMessage::StateChunk { transfer, .. }
        | EternalMessage::StateSuffix { transfer, .. } => transfer_trace_id(*transfer),
        EternalMessage::ReplicaJoining { .. }
        | EternalMessage::ReplicaFault { .. }
        | EternalMessage::LoadTick { .. }
        // Health snapshots are untraced infrastructure: tracing them
        // would add TraceTag bytes to every periodic publish and skew
        // the very timings they measure.
        | EternalMessage::Health { .. } => 0,
    }
}

/// A borrowed stamping context for one delivered message (or one client
/// activation): the recorder, the processor it executes on, the chain
/// being extended, and the receive-updated Lamport clock.
///
/// [`stamp`](HopCtx::stamp) extends the current chain (each stamped hop
/// becomes the parent of the next); [`stamp_new`](HopCtx::stamp_new)
/// starts or crosses into a different trace (a follow-up invocation
/// issued from a reply handler roots its new chain in the reply-match
/// span). All paths are free when the recorder is disabled.
pub struct HopCtx<'a> {
    rec: &'a mut CausalRecorder,
    node: u64,
    trace_id: u64,
    parent: u64,
    clock: u64,
}

impl<'a> HopCtx<'a> {
    /// A context for `node` continuing `trace_id` below `parent`.
    pub fn new(
        rec: &'a mut CausalRecorder,
        node: u64,
        trace_id: u64,
        parent: u64,
        clock: u64,
    ) -> Self {
        HopCtx {
            rec,
            node,
            trace_id,
            parent,
            clock,
        }
    }

    /// Whether stamping does anything at all.
    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// The chain this context extends (0 = untraced delivery).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span the next [`stamp`](HopCtx::stamp) will hang under.
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// The Lamport clock of the hop being processed.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Redirects the context onto a different chain — used when one
    /// delivery processes messages of *other* traces (draining a
    /// recovering replica's holding queue replays held requests, each
    /// belonging to its own chain). Callers save and restore
    /// ([`trace_id`](HopCtx::trace_id), [`parent`](HopCtx::parent))
    /// around the excursion.
    pub fn set_chain(&mut self, trace_id: u64, parent: u64) {
        self.trace_id = trace_id;
        self.parent = parent;
    }

    /// Stamps a hop on the current chain and makes it the parent of
    /// subsequent stamps. Returns the span id (0 when disabled or the
    /// context is untraced). `detail` (pass `format_args!`) is rendered
    /// only when the hop is recorded, so an untraced run formats and
    /// allocates nothing.
    pub fn stamp(&mut self, at: SimTime, hop: Hop, detail: fmt::Arguments<'_>) -> u64 {
        if !self.rec.is_enabled() || self.trace_id == 0 {
            return 0;
        }
        let span = self.rec.record(
            at,
            self.node,
            self.trace_id,
            self.parent,
            hop,
            self.clock,
            None,
            detail.to_string(),
        );
        if span != 0 {
            self.parent = span;
        }
        span
    }

    /// Stamps a hop on an explicitly named trace without advancing this
    /// context's chain — used when one delivery *originates* a new
    /// causal chain (a fresh invocation, a state assignment).
    pub fn stamp_new(
        &mut self,
        at: SimTime,
        trace_id: u64,
        parent: u64,
        hop: Hop,
        detail: fmt::Arguments<'_>,
    ) -> u64 {
        if !self.rec.is_enabled() || trace_id == 0 {
            return 0;
        }
        self.rec.record(
            at,
            self.node,
            trace_id,
            parent,
            hop,
            self.clock,
            None,
            detail.to_string(),
        )
    }

    /// The wire tag for a message whose last stamped hop on `trace_id`
    /// was `parent`. [`TraceTag::NONE`] when the recorder is disabled —
    /// untraced runs must not grow their frames by even one tag.
    pub fn tag(&self, trace_id: u64, parent: u64) -> TraceTag {
        if !self.rec.is_enabled() || trace_id == 0 {
            TraceTag::NONE
        } else {
            TraceTag {
                trace_id,
                parent_span: parent,
                clock: self.clock,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::GroupId;

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(0),
        };
        assert_eq!(iiop_trace_id(conn, 7), iiop_trace_id(conn, 7));
        assert_ne!(iiop_trace_id(conn, 7), iiop_trace_id(conn, 8));
        assert_ne!(iiop_trace_id(conn, 7), 0);
        assert_ne!(
            transfer_trace_id(TransferId(3)),
            transfer_trace_id(TransferId(4))
        );
    }

    #[test]
    fn request_and_reply_share_a_trace() {
        let conn = ConnectionName {
            client: GroupId(2),
            server: GroupId(5),
        };
        let req = EternalMessage::Iiop {
            conn,
            direction: crate::gid::Direction::Request,
            op_seq: 3,
            bytes: vec![1],
        };
        let rep = EternalMessage::Iiop {
            conn,
            direction: crate::gid::Direction::Reply,
            op_seq: 3,
            bytes: vec![2],
        };
        assert_eq!(trace_id_of(&req), trace_id_of(&rep));
    }

    #[test]
    fn infrastructure_messages_are_untraced() {
        let m = EternalMessage::LoadTick { group: GroupId(0) };
        assert_eq!(trace_id_of(&m), 0);
    }

    #[test]
    fn chunks_and_suffix_share_the_transfer_trace() {
        use eternal_sim::net::NodeId;
        let transfer = TransferId(77);
        let chunk = EternalMessage::StateChunk {
            group: GroupId(0),
            transfer,
            new_host: NodeId(2),
            index: 0,
            total: 3,
            bytes: vec![1],
        };
        let suffix = EternalMessage::StateSuffix {
            group: GroupId(0),
            transfer,
            new_host: NodeId(2),
            entries: Vec::new(),
        };
        assert_eq!(trace_id_of(&chunk), transfer_trace_id(transfer));
        assert_eq!(trace_id_of(&suffix), transfer_trace_id(transfer));
    }

    #[test]
    fn hop_ctx_chains_spans() {
        let mut rec = CausalRecorder::new(16);
        let mut ctx = HopCtx::new(&mut rec, 1, 42, 0, 5);
        let a = ctx.stamp(SimTime::ZERO, Hop::Deliver, format_args!("a"));
        let b = ctx.stamp(SimTime::ZERO, Hop::Dispatch, format_args!("b {}", 2));
        assert_ne!(a, 0);
        let events: Vec<_> = rec.events().collect();
        assert_eq!(events[1].parent, a);
        assert_eq!(events[1].span, b);
        assert_eq!(events[1].detail, "b 2");
    }

    #[test]
    fn disabled_recorder_stamps_nothing() {
        let mut rec = CausalRecorder::disabled();
        let mut ctx = HopCtx::new(&mut rec, 1, 42, 0, 5);
        assert_eq!(ctx.stamp(SimTime::ZERO, Hop::Deliver, format_args!("a")), 0);
        assert!(rec.is_empty());
    }
}
