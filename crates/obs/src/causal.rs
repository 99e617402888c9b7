//! Causal distributed tracing through the total order.
//!
//! The paper's central claim is that every replica observes operations
//! and state transfers at the *same logical point in the total order*.
//! This module makes that claim directly inspectable: each client
//! invocation (and each state-transfer message) owns a **trace** — a
//! causal chain of [`CausalEvent`] hops stamped at every layer it
//! crosses (client marshal → Totem pack → ring delivery on every
//! replica → reassembly → dispatch → reply → reply match). Hops link to
//! their causal parent by span id, so a per-request **span tree** and a
//! cluster-wide causal order can be reconstructed after the fact.
//!
//! The [`CausalRecorder`] is a bounded drop-oldest ring. It costs no
//! wire byte: nothing about a trace travels with the messages, and
//! every id it stores is derived by the recording layer from what that
//! layer already sees (`eternal::causal`, `docs/TRACING.md`). It
//! doubles as the post-mortem **flight recorder** whose recent spans
//! are dumped to `flight_recorder.json` when a chaos or bench
//! invariant fires.
//!
//! Everything here is deterministic: trace and span ids are FNV-1a
//! hashes of message and hop identity, and both exports
//! ([`CausalRecorder::chrome_trace_json`],
//! [`CausalRecorder::flight_recorder_json`]) render byte-identically
//! for the same recorded history.

use crate::export::{JsonWriter, Layout};
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write;

/// Default bounded capacity of a [`CausalRecorder`].
pub const DEFAULT_CAUSAL_CAPACITY: usize = 65_536;

/// The hop taxonomy: where in the pipeline a [`CausalEvent`] was
/// stamped. Codes are stable strings used by both exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Hop {
    /// Client interceptor captured and marshalled an outgoing request
    /// (the root of an invocation trace).
    Marshal,
    /// A message (or fragment) was packed into a ring frame at a token
    /// visit — batched or singleton, each packed message keeps its own
    /// chain.
    Pack,
    /// The packed frame's *first* transmission left the sender (stamped
    /// once per packed message; retransmissions re-serve the stored
    /// frame and are deliberately not re-stamped, so the Pack→Send gap
    /// is pure token wait and the Send→Deliver gap absorbs wire time
    /// plus any retransmission delay).
    Send,
    /// Total-order delivery at one processor; carries the
    /// [`OrderPos`] all replicas must agree on.
    Deliver,
    /// Fragments completed into one Eternal message at a processor.
    Reassemble,
    /// The message was enqueued in a recovering replica's holding
    /// queue (§3.3) instead of being dispatched.
    Hold,
    /// The request was dispatched to the servant.
    Dispatch,
    /// The server-side interceptor captured the reply.
    Reply,
    /// The client ORB matched the reply to its outstanding request.
    ReplyMatch,
    /// A recovery `get_state` capture at the donor (§5.1 step iii).
    GetState,
    /// A recovery `set_state` application at the new replica (step v).
    SetState,
    /// A held message was replayed after `set_state` (step vi).
    Replay,
    /// One chunk of a chunked state transfer progressed (streamed at
    /// the donor or accepted at the recovering replica) — the
    /// chunk-level progress hops of docs/RECOVERY.md.
    StateChunk,
}

impl Hop {
    /// The stable string code of this hop.
    pub const fn code(self) -> &'static str {
        match self {
            Hop::Marshal => "client.marshal",
            Hop::Pack => "totem.pack",
            Hop::Send => "totem.send",
            Hop::Deliver => "totem.deliver",
            Hop::Reassemble => "eternal.reassemble",
            Hop::Hold => "eternal.hold",
            Hop::Dispatch => "eternal.dispatch",
            Hop::Reply => "eternal.reply",
            Hop::ReplyMatch => "client.reply_match",
            Hop::GetState => "recovery.get_state",
            Hop::SetState => "recovery.set_state",
            Hop::Replay => "recovery.replay",
            Hop::StateChunk => "recovery.state_chunk",
        }
    }
}

/// A position in the total order: the ring a message was delivered on
/// and its agreed sequence number. The paper's consistency claim is
/// precisely that every replica delivers a given message at the *same*
/// `OrderPos` — [`CausalRecorder::verify_total_order`] checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderPos {
    /// Ring id: representative processor.
    pub ring_rep: u64,
    /// Ring id: formation sequence number.
    pub ring_seq: u64,
    /// Agreed delivery sequence number on that ring.
    pub seq: u64,
}

impl OrderPos {
    /// The position as one number that grows along the total order (a
    /// ring formed later has a higher `ring_seq`): the clock of every
    /// hop stamped while this delivery is processed.
    pub const fn clock(self) -> u64 {
        (self.ring_seq << 32) | (self.seq & 0xffff_ffff)
    }
}

/// One stamped hop of a causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEvent {
    /// Virtual time of the hop.
    pub at: SimTime,
    /// Processor the hop executed on.
    pub node: u64,
    /// The chain this hop belongs to.
    pub trace_id: u64,
    /// This hop's span id: a hash of the trace, the node, the hop kind
    /// and what the hop handles, so the hops after it derive it.
    pub span: u64,
    /// Span id of the causal parent hop (0 = root).
    pub parent: u64,
    /// Where in the pipeline the hop was stamped.
    pub hop: Hop,
    /// The total-order position being processed
    /// ([`OrderPos::clock`]); 0 outside an ordered delivery.
    pub clock: u64,
    /// Total-order position, for [`Hop::Deliver`] events.
    pub order: Option<OrderPos>,
    /// Free-form context (operation id, transfer id, byte counts…).
    pub detail: String,
}

/// A bounded, drop-oldest ring of [`CausalEvent`]s: the reconstruction
/// substrate for span trees and the always-on flight recorder.
#[derive(Debug, Clone)]
pub struct CausalRecorder {
    enabled: bool,
    capacity: usize,
    events: VecDeque<CausalEvent>,
    dropped: u64,
}

impl CausalRecorder {
    /// A recorder keeping at most `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        CausalRecorder {
            enabled: true,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A recorder that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        CausalRecorder {
            enabled: false,
            capacity: 1,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Whether the recorder records events.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps one hop; nothing when disabled or the event is untraced
    /// (trace id 0).
    pub fn record(&mut self, event: CausalEvent) {
        if !self.enabled || event.trace_id == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &CausalEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the capacity bound.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events whose span id an earlier retained event already
    /// has. Span ids are derived, not allocated, so two events share
    /// one when a node stamped one kind of hop twice on one trace for
    /// the same fragment or index — which the derivation cannot tell
    /// apart — or by a 64-bit hash collision. A parent link through
    /// such an id is ambiguous, so it is counted, never hidden.
    pub fn span_collisions(&self) -> u64 {
        let mut seen = BTreeSet::new();
        self.events.iter().filter(|e| !seen.insert(e.span)).count() as u64
    }

    /// Distinct trace ids among retained events, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Verifies the paper's total-order claim over the retained
    /// history: every [`Hop::Deliver`] event that shares a causal
    /// parent (i.e. the same packed ring frame) must carry the same
    /// [`OrderPos`] on every processor that delivered it. Returns one
    /// human-readable line per violation (empty = claim holds).
    pub fn verify_total_order(&self) -> Vec<String> {
        let mut by_parent: BTreeMap<u64, Vec<&CausalEvent>> = BTreeMap::new();
        for e in &self.events {
            if e.hop == Hop::Deliver && e.parent != 0 {
                by_parent.entry(e.parent).or_default().push(e);
            }
        }
        let mut violations = Vec::new();
        for (parent, dels) in by_parent {
            let reference = dels[0].order;
            for d in &dels[1..] {
                if d.order != reference {
                    violations.push(format!(
                        "trace {:#018x}: deliveries of span {parent} disagree on the total \
                         order: node {} saw {:?}, node {} saw {:?}",
                        dels[0].trace_id, dels[0].node, reference, d.node, d.order
                    ));
                }
            }
        }
        violations
    }

    /// A structural signature of every span tree: for each trace, the
    /// multiset of (hop, node) pairs, rendered deterministically.
    /// Deliberately excludes times, sequence numbers, and span ids, so
    /// the signature is invariant under batching (`batch_budget_bytes`
    /// on vs off) and across runs — only the causal *shape* counts.
    pub fn tree_signature(&self) -> String {
        let mut per_trace: BTreeMap<u64, BTreeMap<(&'static str, u64), u64>> = BTreeMap::new();
        for e in &self.events {
            *per_trace
                .entry(e.trace_id)
                .or_default()
                .entry((e.hop.code(), e.node))
                .or_insert(0) += 1;
        }
        let mut out = String::new();
        for (trace, hops) in per_trace {
            let _ = write!(out, "{trace:#018x}:");
            for ((code, node), count) in hops {
                let _ = write!(out, " {code}@P{node}x{count}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the retained history as Chrome trace-event JSON (load in
    /// `chrome://tracing` or Perfetto). Each hop becomes a complete
    /// (`"X"`) event — `pid` is the processor, `tid` a small per-trace
    /// ordinal — whose duration runs to the next hop of the same trace
    /// on the same processor; flow events (`"s"`/`"t"`) draw the causal
    /// arrows across processors. Rendering is byte-deterministic.
    pub fn chrome_trace_json(&self) -> String {
        // Small stable ordinals for tids: first appearance order.
        let mut tids: BTreeMap<u64, u64> = BTreeMap::new();
        for e in &self.events {
            let next = tids.len() as u64 + 1;
            tids.entry(e.trace_id).or_insert(next);
        }
        // Duration of a hop: gap to the next same-trace same-node hop.
        let mut durs: Vec<u64> = vec![1_000; self.events.len()];
        let mut last_seen: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Some(prev) = last_seen.insert((e.trace_id, e.node), i) {
                let gap = e.at.as_nanos() - self.events[prev].at.as_nanos();
                durs[prev] = gap.max(1);
            }
        }
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let mut lines: Vec<String> = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            let (ts, tid) = (us(e.at.as_nanos()), tids[&e.trace_id]);
            let mut w = JsonWriter::default();
            w.object(Layout::Spaced)
                .field_str("name", e.hop.code())
                .field_str("cat", "eternal")
                .field_str("ph", "X")
                .field("ts", &ts)
                .field("dur", us(durs[i]))
                .field("pid", e.node)
                .field("tid", tid)
                .key("args")
                .object(Layout::Spaced)
                .field_str("trace_id", format_args!("{:#018x}", e.trace_id))
                .field("span", e.span)
                .field("parent", e.parent)
                .field("clock", e.clock);
            if let Some(o) = e.order {
                w.field_str("ring", format_args!("P{}/{}", o.ring_rep, o.ring_seq))
                    .field("seq", o.seq);
            }
            if !e.detail.is_empty() {
                w.field_str("detail", &e.detail);
            }
            w.end().end();
            lines.push(w.finish());
            // Causal arrows (flow id = the parent's span id): the parent
            // emits the start, each child a step.
            let flow = |ph: &str, id: u64| {
                let mut w = JsonWriter::default();
                w.object(Layout::Spaced)
                    .field_str("name", "causal")
                    .field_str("cat", "flow")
                    .field_str("ph", ph)
                    .field("id", id)
                    .field("ts", &ts)
                    .field("pid", e.node)
                    .field("tid", tid);
                if ph == "t" {
                    w.field_str("bp", "e");
                }
                w.end();
                w.finish()
            };
            if e.parent != 0 {
                lines.push(flow("t", e.parent));
            }
            if self.events.iter().any(|c| c.parent == e.span) {
                lines.push(flow("s", e.span));
            }
        }
        // Extra top-level keys are legal in the Chrome trace object
        // form; `droppedEvents` makes ring truncation visible in the
        // export itself rather than only in the recorder's counters.
        // One event per line, so the file diffs and greps by hop.
        let mut w = JsonWriter::default();
        w.object(Layout::Spaced)
            .field_str("displayTimeUnit", "ns")
            .field("droppedEvents", self.dropped)
            .field("traceEvents", format_args!("[\n{}\n]", lines.join(",\n")))
            .end();
        w.finish() + "\n"
    }

    /// Renders the retained ring — the last `capacity` spans before a
    /// failure — as the `flight_recorder.json` dump (schema documented
    /// in `docs/TRACING.md`). Rendering is byte-deterministic.
    pub fn flight_recorder_json(&self, reason: &str) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Block)
            .field("schema", 1)
            .field_str("reason", reason)
            .field("dropped_spans", self.dropped)
            .key("spans")
            .array(Layout::Block);
        for e in &self.events {
            w.object(Layout::Spaced)
                .field("at_ns", e.at.as_nanos())
                .field("node", e.node)
                .field_str("trace_id", format_args!("{:#018x}", e.trace_id))
                .field("span", e.span)
                .field("parent", e.parent)
                .field_str("hop", e.hop.code())
                .field("clock", e.clock);
            if let Some(o) = e.order {
                w.field("ring_rep", o.ring_rep)
                    .field("ring_seq", o.ring_seq)
                    .field("seq", o.seq);
            }
            w.field_str("detail", &e.detail).end();
        }
        w.end().end();
        w.finish()
    }

    /// Renders the span tree of one trace as indented text (parents
    /// before children, children in span-id order).
    pub fn span_tree_text(&self, trace_id: u64) -> String {
        let events: Vec<&CausalEvent> = self
            .events
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .collect();
        let mut children: BTreeMap<u64, Vec<&CausalEvent>> = BTreeMap::new();
        let mut roots: Vec<&CausalEvent> = Vec::new();
        for e in &events {
            if e.parent != 0 && events.iter().any(|p| p.span == e.parent) {
                children.entry(e.parent).or_default().push(e);
            } else {
                roots.push(e);
            }
        }
        let mut out = String::new();
        fn render(
            out: &mut String,
            e: &CausalEvent,
            depth: usize,
            children: &BTreeMap<u64, Vec<&CausalEvent>>,
        ) {
            let indent = "  ".repeat(depth);
            let order = match e.order {
                Some(o) => format!(" [ring P{}/{} seq {}]", o.ring_rep, o.ring_seq, o.seq),
                None => String::new(),
            };
            let detail = if e.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", e.detail)
            };
            let _ = writeln!(
                out,
                "{indent}{} @P{} {}{order}{detail}",
                e.hop.code(),
                e.node,
                e.at
            );
            if let Some(kids) = children.get(&e.span) {
                for kid in kids {
                    render(out, kid, depth + 1, children);
                }
            }
        }
        for root in roots {
            render(&mut out, root, 0, &children);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(seq: u64) -> Option<OrderPos> {
        Some(OrderPos {
            ring_rep: 0,
            ring_seq: 4,
            seq,
        })
    }

    /// One hop of trace 0xA1 (whose span ids the tests pick).
    fn hop(
        at: u64,
        node: u64,
        span: u64,
        parent: u64,
        hop: Hop,
        order: Option<OrderPos>,
    ) -> CausalEvent {
        CausalEvent {
            at: SimTime::from_nanos(at),
            node,
            trace_id: 0xA1,
            span,
            parent,
            hop,
            clock: order.map_or(0, OrderPos::clock),
            order,
            detail: if hop == Hop::Marshal {
                "op 1".into()
            } else {
                String::new()
            },
        }
    }

    /// One request traced across two replicas, `scale` apart in time,
    /// delivered at `seq`.
    fn request(scale: u64, seq: u64) -> CausalRecorder {
        let mut r = CausalRecorder::new(16);
        r.record(hop(scale, 0, 1, 0, Hop::Marshal, None));
        r.record(hop(2 * scale, 0, 2, 1, Hop::Pack, None));
        for node in [1u64, 2] {
            r.record(hop(
                3 * scale + node,
                node,
                10 * node,
                2,
                Hop::Deliver,
                pos(seq),
            ));
            r.record(hop(
                4 * scale + node,
                node,
                10 * node + 1,
                10 * node,
                Hop::Dispatch,
                None,
            ));
        }
        r
    }

    fn sample() -> CausalRecorder {
        request(10, 7)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = CausalRecorder::disabled();
        r.record(hop(0, 0, 1, 0, Hop::Marshal, None));
        assert!(r.is_empty());
    }

    #[test]
    fn untraced_tag_records_nothing() {
        let mut r = CausalRecorder::new(4);
        r.record(CausalEvent {
            trace_id: 0,
            ..hop(0, 0, 1, 0, Hop::Pack, None)
        });
        assert!(r.is_empty());
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut r = CausalRecorder::new(2);
        for i in 1..=5u64 {
            r.record(hop(i, 0, i, 0, Hop::Marshal, None));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        // The newest events are the ones kept.
        assert_eq!(r.events().last().unwrap().span, 5);
    }

    #[test]
    fn repeated_span_ids_are_counted() {
        let mut r = sample();
        assert_eq!(r.span_collisions(), 0);
        r.record(hop(99, 1, 11, 10, Hop::Dispatch, None));
        assert_eq!(r.span_collisions(), 1);
    }

    #[test]
    fn total_order_verification_catches_disagreement() {
        let mut agreeing = sample();
        assert!(agreeing.verify_total_order().is_empty());
        // A replica that saw the message at a different seq is caught.
        agreeing.record(hop(99, 3, 30, 2, Hop::Deliver, pos(8)));
        let violations = agreeing.verify_total_order();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("disagree"));
    }

    #[test]
    fn tree_signature_ignores_times_and_seqs() {
        // Same shape, different times and seq numbers.
        let a = sample().tree_signature();
        assert_eq!(a, request(1000, 19).tree_signature());
        assert!(a.contains("totem.deliver@P1x1"));
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let r = sample();
        assert_eq!(r.chrome_trace_json(), sample().chrome_trace_json());
        assert_eq!(
            r.flight_recorder_json("why"),
            sample().flight_recorder_json("why")
        );
        let chrome = r.chrome_trace_json();
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"name\": \"totem.deliver\""));
        assert!(chrome.contains("\"ph\": \"s\""), "flow start present");
        let dump = r.flight_recorder_json("forced \"test\"");
        assert!(dump.contains("\\\"test\\\""), "reason is escaped");
        assert!(dump.contains("\"hop\": \"client.marshal\""));
    }

    #[test]
    fn span_tree_text_nests_children() {
        let r = sample();
        let text = r.span_tree_text(0xA1);
        let marshal = text.find("client.marshal").unwrap();
        let deliver = text.find("  totem.deliver").unwrap();
        assert!(marshal < deliver, "root precedes indented child:\n{text}");
        assert!(text.contains("[ring P0/4 seq 7]"));
    }
}
