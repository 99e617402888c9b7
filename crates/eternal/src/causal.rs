//! Causal-tracing glue between the Eternal mechanisms and the
//! [`eternal_obs::causal`] recorder.
//!
//! No trace byte crosses the wire. Every hop derives what it links to
//! from what its layer already sees (`docs/TRACING.md`, "Derivation"):
//!
//! * the **trace id** is a pure function of message identity
//!   ([`trace_id_of`]), so every replica derives the same one;
//! * the **span id** is a pure function of the trace, the node, the
//!   hop kind and the fragment the hop handles ([`span_id`]), so a hop
//!   names its parent by deriving the parent's id, never by being
//!   told it;
//! * the **clock** is the total-order position being processed
//!   ([`OrderPos::clock`]): the agreed order already fixes every
//!   delivery's place, so a logical clock on the wire would add
//!   nothing.
//!
//! The one decision left — which hop a hop hangs under — is made here:
//! a fragment's Send and Deliver hops under its Pack hop
//! ([`pack_span`]), the Pack hops under the hop that emitted the
//! message ([`emitted_by`]), and the mechanisms' hops along the chain a
//! [`HopCtx`] carries through one delivery.

use crate::gid::{ConnectionName, Direction, TransferId};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::message::{EternalMessage, WireFragment};
use eternal_obs::causal::{CausalEvent, CausalRecorder, Hop, OrderPos};
use eternal_obs::SimTime;
use eternal_sim::net::NodeId;
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
    h.max(1)
}

/// The trace id of one §5.1 state-transfer episode (`get_state` →
/// chunks → suffix → `set_state` → replay form one causal chain).
pub fn transfer_trace_id(transfer: TransferId) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, b"xfer"), &transfer.0.to_be_bytes()).max(1)
}

/// The trace id a multicast of `message` belongs to. Infrastructure
/// chatter (joins, faults, load ticks, health snapshots) belongs to no
/// invocation or transfer: it returns 0 and is not traced.
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
        | EternalMessage::Health { .. } => 0,
    }
}

/// The index a transfer's closing suffix is stamped under among its
/// [`Hop::StateChunk`] hops (a chunk's is its own index).
pub const SUFFIX: u32 = u32::MAX;

/// What a hop handles, as far as its span id needs it: what tells the
/// hops of one kind that one node stamps on one trace apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frag {
    /// The processor that multicast the message.
    pub origin: NodeId,
    /// Its per-origin message counter (from 1).
    pub msg_id: u64,
    /// The fragment's index.
    pub index: u32,
}

impl Frag {
    /// The Totem fragment a wire hop (Pack, Send, Deliver) handles, as
    /// its envelope names it.
    pub fn of(fragment: &WireFragment<'_>) -> Self {
        Frag {
            origin: fragment.origin,
            msg_id: fragment.msg_id,
            index: fragment.index,
        }
    }

    /// A mechanisms' hop: a node stamps each kind at most once per
    /// trace, but for a transfer's chunks (`index` = the chunk's, or
    /// [`SUFFIX`]) and an IIOP message's hold and replay (`index` = its
    /// direction's wire byte). Message id 0 is no message's.
    pub const fn local(index: u32) -> Self {
        Frag {
            origin: NodeId(0),
            msg_id: 0,
            index,
        }
    }
}

/// The span id of `hop` at `node` on `trace_id`, handling `frag`.
/// Never 0, which means "no parent".
pub fn span_id(trace_id: u64, node: u64, hop: Hop, frag: Frag) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, hop.code().as_bytes());
    for word in [trace_id, node, u64::from(frag.origin.0), frag.msg_id] {
        h = fnv1a(h, &word.to_be_bytes());
    }
    fnv1a(h, &frag.index.to_be_bytes()).max(1)
}

/// The span of the Pack hop of `frag` on `trace_id`: the parent of the
/// fragment's Send hop at its origin and of its Deliver hop everywhere.
pub fn pack_span(trace_id: u64, frag: Frag) -> u64 {
    span_id(trace_id, u64::from(frag.origin.0), Hop::Pack, frag)
}

/// The span of the hop at `node` that emitted `message` (on its trace,
/// `trace_id`): the parent of the message's Pack hops, derived from the
/// message alone. 0 — the Pack hops root the chain — for what no hop
/// emits: untraced chatter, and a fabricated `get_state`.
pub fn emitted_by(message: &EternalMessage, trace_id: u64, node: NodeId) -> u64 {
    let (hop, index) = match message {
        EternalMessage::Iiop {
            direction: Direction::Request,
            ..
        } => (Hop::Marshal, 0),
        EternalMessage::Iiop {
            direction: Direction::Reply,
            ..
        } => (Hop::Reply, 0),
        EternalMessage::StateAssignment { .. } => (Hop::GetState, 0),
        EternalMessage::StateChunk { index, .. } => (Hop::StateChunk, *index),
        EternalMessage::StateSuffix { .. } => (Hop::StateChunk, SUFFIX),
        _ => return 0,
    };
    match trace_id {
        0 => 0,
        _ => span_id(trace_id, u64::from(node.0), hop, Frag::local(index)),
    }
}

/// A borrowed stamping context for one processor: the recorder, the
/// node, the chain being extended and the total-order position being
/// processed (0 outside an ordered delivery).
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
    /// A context for `node` continuing `trace_id` below `parent` while
    /// the delivery at position `clock` is processed.
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

    /// The chain this context extends (0 = untraced delivery).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span the next [`stamp`](HopCtx::stamp) will hang under.
    pub fn parent(&self) -> u64 {
        self.parent
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

    /// The span this node's `hop` number `index` on `trace_id` has, or
    /// would have if stamped (0 when the recorder is disabled): how a
    /// hop names a parent stamped by an earlier delivery.
    pub fn span(&self, trace_id: u64, hop: Hop, index: u32) -> u64 {
        match self.rec.is_enabled() && trace_id != 0 {
            true => span_id(trace_id, self.node, hop, Frag::local(index)),
            false => 0,
        }
    }

    /// Stamps `hop` number `index` on the current chain and makes it the
    /// parent of subsequent stamps. Returns the span id (0 when disabled
    /// or the context is untraced). `detail` (pass `format_args!`) is
    /// rendered only when the hop is recorded, so an untraced run
    /// formats and allocates nothing.
    pub fn stamp(&mut self, at: SimTime, hop: Hop, index: u32, detail: fmt::Arguments<'_>) -> u64 {
        self.record(at, hop, Frag::local(index), None, detail)
    }

    /// Stamps `hop` number `index` on an explicitly named trace without
    /// advancing this context's chain — used when one delivery
    /// *originates* a new causal chain (a fresh invocation, a chunk).
    pub fn stamp_new(
        &mut self,
        at: SimTime,
        trace_id: u64,
        parent: u64,
        hop: Hop,
        index: u32,
        detail: fmt::Arguments<'_>,
    ) -> u64 {
        let chain = (self.trace_id, self.parent);
        self.set_chain(trace_id, parent);
        let span = self.stamp(at, hop, index, detail);
        (self.trace_id, self.parent) = chain;
        span
    }

    /// [`stamp`](HopCtx::stamp) of a hop that handles `frag` (at
    /// total-order position `order`, for a Deliver hop): the one place
    /// an event is made.
    pub fn record(
        &mut self,
        at: SimTime,
        hop: Hop,
        frag: Frag,
        order: Option<OrderPos>,
        detail: fmt::Arguments<'_>,
    ) -> u64 {
        if !self.rec.is_enabled() || self.trace_id == 0 {
            return 0;
        }
        let span = span_id(self.trace_id, self.node, hop, frag);
        self.rec.record(CausalEvent {
            at,
            node: self.node,
            trace_id: self.trace_id,
            span,
            parent: self.parent,
            hop,
            clock: self.clock,
            order,
            detail: detail.to_string(),
        });
        self.parent = span;
        span
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
        let a = ctx.stamp(SimTime::ZERO, Hop::Hold, 1, format_args!("a"));
        let b = ctx.stamp(SimTime::ZERO, Hop::Dispatch, 0, format_args!("b {}", 2));
        assert_eq!(a, ctx.span(42, Hop::Hold, 1), "a later hop derives it");
        assert_ne!(a, ctx.span(42, Hop::Hold, 0));
        let events: Vec<_> = rec.events().collect();
        assert_eq!(events[1].parent, a);
        assert_eq!(events[1].span, b);
        assert_eq!(events[1].clock, 5);
        assert_eq!(events[1].detail, "b 2");
    }

    #[test]
    fn disabled_recorder_stamps_nothing() {
        let mut rec = CausalRecorder::disabled();
        let mut ctx = HopCtx::new(&mut rec, 1, 42, 0, 5);
        assert_eq!(ctx.stamp(SimTime::ZERO, Hop::Hold, 0, format_args!("a")), 0);
        assert_eq!(ctx.span(42, Hop::Hold, 0), 0);
        assert!(rec.is_empty());
    }

    #[test]
    fn span_ids_tell_apart_what_the_derivation_sees() {
        let frag = |origin, msg_id, index| Frag {
            origin: NodeId(origin),
            msg_id,
            index,
        };
        let base = span_id(7, 1, Hop::Deliver, frag(2, 5, 0));
        assert_eq!(base, span_id(7, 1, Hop::Deliver, frag(2, 5, 0)));
        // Two replicas' replies share a trace and may share a msg_id:
        // the origin keeps their deliveries apart.
        for other in [
            span_id(8, 1, Hop::Deliver, frag(2, 5, 0)),
            span_id(7, 3, Hop::Deliver, frag(2, 5, 0)),
            span_id(7, 1, Hop::Pack, frag(2, 5, 0)),
            span_id(7, 1, Hop::Deliver, frag(3, 5, 0)),
            span_id(7, 1, Hop::Deliver, frag(2, 6, 0)),
            span_id(7, 1, Hop::Deliver, frag(2, 5, 1)),
        ] {
            assert_ne!(base, other);
        }
        // Every receiver derives the Pack span at the fragment's origin.
        assert_eq!(
            pack_span(7, frag(2, 5, 0)),
            span_id(7, 2, Hop::Pack, frag(2, 5, 0))
        );
    }

    #[test]
    fn the_send_path_derives_the_emitting_hop() {
        let mut rec = CausalRecorder::new(16);
        let conn = ConnectionName {
            client: GroupId(1),
            server: GroupId(0),
        };
        let reply = EternalMessage::Iiop {
            conn,
            direction: crate::gid::Direction::Reply,
            op_seq: 3,
            bytes: vec![],
        };
        let tid = trace_id_of(&reply);
        let mut ctx = HopCtx::new(&mut rec, 2, tid, 0, 9);
        let span = ctx.stamp(SimTime::ZERO, Hop::Reply, 0, format_args!("reply"));
        assert_eq!(emitted_by(&reply, tid, NodeId(2)), span);
        assert_eq!(emitted_by(&reply, 0, NodeId(2)), 0, "untraced");
        let tick = EternalMessage::LoadTick { group: GroupId(0) };
        assert_eq!(emitted_by(&tick, tid, NodeId(2)), 0, "no emitting hop");
    }
}
