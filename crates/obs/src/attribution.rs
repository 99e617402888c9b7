//! Per-request latency attribution: where did the round trip go?
//!
//! The paper's evaluation (Figure 6, §5) reports *end-to-end* numbers;
//! this module decomposes them. It consumes the span trees a
//! [`CausalRecorder`] retains and tiles every traced request's RTT
//! **exactly** — to the nanosecond, no residual — into the named
//! [`Phase`]s of the total-order pipeline:
//!
//! * `client_marshal` — interceptor capture + marshalling on the client
//!   (plus, for replies, nothing: the reply's pre-pack execution window
//!   is attributed to `dispatch`).
//! * `token_wait` — queueing in the sender's pending queue until the
//!   rotating token arrives and the message is packed into a frame and
//!   first transmitted (the [`Hop::Pack`] → [`Hop::Send`] gap), summed
//!   over both the request and the reply leg.
//! * `wire_retransmit` — first transmission to total-order delivery
//!   ([`Hop::Send`] → [`Hop::Deliver`]): propagation plus any
//!   retransmission rounds (retransmitted frames are deliberately not
//!   re-stamped, so loss recovery widens exactly this phase).
//! * `reassembly` — delivery of the last fragment to completion of the
//!   Eternal message ([`Hop::Deliver`] → [`Hop::Reassemble`]).
//! * `hold_residency` — time parked in a recovering replica's §5.1
//!   holding queue ([`Hop::Hold`] → [`Hop::Replay`], or → direct
//!   dispatch after the synchronization point).
//! * `dispatch` — servant execution: dispatch, the execution window
//!   before the reply is handed back to the group channel.
//! * `reply_return` — matching the reassembled reply to the
//!   outstanding request at the client ORB.
//!
//! **Critical path, not sum.** A fragmented (or batched) request fans
//! out into parallel per-fragment chains; its latency is governed by
//! the *slowest* chain. The recorder already encodes this: a
//! [`Hop::Reassemble`] span's parent is the **last-arriving**
//! fragment's Deliver span, so walking parents from the reply match
//! back to the marshal root traverses precisely the critical path, and
//! the per-edge durations telescope to the exact RTT. Tiling is
//! therefore an arithmetic identity, checked anyway per request and
//! reported as a violation if it ever breaks.
//!
//! Aggregation: per-phase log-bucketed [`LogHistogram`]s plus a top-K
//! "slowest requests and their dominant phase" table. Everything is
//! integer-valued and deterministic — same recorded history, same
//! report, byte for byte (see `docs/ATTRIBUTION.md`).

use crate::causal::{CausalEvent, CausalRecorder, Hop};
use crate::metrics::LogHistogram;
use crate::time::{Duration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The named phases a traced round trip is tiled into. Order is the
/// pipeline order; it is also the deterministic tie-break when a
/// request's dominant phase is ambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Client-side capture and marshalling (marshal → pack).
    ClientMarshal,
    /// Sender-side queueing for the rotating token (pack → send), both
    /// legs.
    TokenWait,
    /// Wire propagation plus retransmission rounds (send → deliver),
    /// both legs.
    WireRetransmit,
    /// Fragment completion into one Eternal message (deliver →
    /// reassemble), both legs.
    Reassembly,
    /// Residency in a recovering replica's holding queue (§5.1).
    HoldResidency,
    /// Servant dispatch and the execution window before the reply is
    /// handed back.
    Dispatch,
    /// Reply matching at the client ORB.
    ReplyReturn,
}

/// Number of phases (the tiling always emits all of them, zero-valued
/// when a request never touched one — the phase *set* is invariant
/// under batching and loss; only the durations move).
pub const PHASES: usize = 7;

impl Phase {
    /// All phases, pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::ClientMarshal,
        Phase::TokenWait,
        Phase::WireRetransmit,
        Phase::Reassembly,
        Phase::HoldResidency,
        Phase::Dispatch,
        Phase::ReplyReturn,
    ];

    /// The stable string name of this phase (JSON key, metric suffix).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::ClientMarshal => "client_marshal",
            Phase::TokenWait => "token_wait",
            Phase::WireRetransmit => "wire_retransmit",
            Phase::Reassembly => "reassembly",
            Phase::HoldResidency => "hold_residency",
            Phase::Dispatch => "dispatch",
            Phase::ReplyReturn => "reply_return",
        }
    }

    /// The index of this phase in [`Phase::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Phase::ClientMarshal => 0,
            Phase::TokenWait => 1,
            Phase::WireRetransmit => 2,
            Phase::Reassembly => 3,
            Phase::HoldResidency => 4,
            Phase::Dispatch => 5,
            Phase::ReplyReturn => 6,
        }
    }
}

/// One completed round trip, tiled. A trace with replicated clients
/// yields one attribution per reply match (each client replica's
/// observation of the round trip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAttribution {
    /// The causal chain this round trip belongs to.
    pub trace_id: u64,
    /// Processor whose reply match anchors this observation.
    pub client_node: u64,
    /// Virtual time of the chain's marshal root.
    pub started_at: SimTime,
    /// End-to-end latency: reply match minus marshal.
    pub rtt: Duration,
    /// Nanoseconds attributed to each phase, indexed by
    /// [`Phase::index`]. Sums exactly to `rtt`.
    pub phase_ns: [u64; PHASES],
    /// Number of hops on the critical path (marshal root included).
    pub hops: u32,
}

impl RequestAttribution {
    /// The phase that received the most time (earliest pipeline phase
    /// wins ties, deterministically).
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::ALL[0];
        let mut best_ns = self.phase_ns[0];
        for p in Phase::ALL {
            if self.phase_ns[p.index()] > best_ns {
                best = p;
                best_ns = self.phase_ns[p.index()];
            }
        }
        best
    }
}

/// The aggregated output of [`attribute`]: per-request tilings,
/// per-phase histograms, and the bookkeeping that makes truncated
/// observability visible instead of silent.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Every completed, tiled round trip, in (started_at, trace_id,
    /// client_node) order.
    pub requests: Vec<RequestAttribution>,
    /// Per-phase latency histograms over all requests, indexed by
    /// [`Phase::index`].
    pub phase_histograms: [LogHistogram; PHASES],
    /// End-to-end RTT histogram over all requests.
    pub rtt_histogram: LogHistogram,
    /// Reply matches whose walk ended at a replay with no parent: the
    /// reply was replayed from a transfer suffix or a passive log, and
    /// its delivery at the replaying node, long before, is linked to
    /// nothing (docs/ATTRIBUTION.md). Not tiled, not silently dropped.
    pub rooted_at_replay: u64,
    /// Reply matches whose walk stopped short of a marshal root for any
    /// other reason: a parent span not among the retained events
    /// (evicted — see `dropped_events` — or never recorded).
    pub missing_parent: u64,
    /// Recorded events whose derived span id another event already has
    /// ([`CausalRecorder::span_collisions`]): a walk through such an id
    /// may take the wrong parent, so a nonzero count is reported.
    pub span_collisions: u64,
    /// Chains skipped because hop times were not monotone along the
    /// path (replayed-from-log chains stamp at epoch zero).
    pub non_monotone_chains: u64,
    /// Events the recorder ring evicted ([`CausalRecorder::dropped`]) —
    /// nonzero means the report describes a truncated window.
    pub dropped_events: u64,
    /// Tiling identity violations (sum of phases != RTT). Always empty
    /// unless the recorder's parent links are corrupted; surfaced so a
    /// regression cannot pass silently.
    pub violations: Vec<String>,
}

impl AttributionReport {
    /// The `k` slowest requests, slowest first (ties broken by
    /// trace id, then client node — deterministic).
    pub fn top_k(&self, k: usize) -> Vec<&RequestAttribution> {
        let mut refs: Vec<&RequestAttribution> = self.requests.iter().collect();
        refs.sort_by(|a, b| {
            b.rtt
                .cmp(&a.rtt)
                .then(a.trace_id.cmp(&b.trace_id))
                .then(a.client_node.cmp(&b.client_node))
        });
        refs.truncate(k);
        refs
    }

    /// Total nanoseconds attributed to `phase` across all requests.
    pub fn phase_total_ns(&self, phase: Phase) -> u128 {
        self.phase_histograms[phase.index()].sum_nanos()
    }

    /// Human-readable summary table: one line per phase with share of
    /// total time, then the top-K table.
    pub fn render_text(&self, k: usize) -> String {
        let mut out = String::new();
        let total: u128 = self.rtt_histogram.sum_nanos().max(1);
        let _ = writeln!(
            out,
            "attribution: {} round trips tiled ({} rooted at a replay, {} missing a parent, \
             {} non-monotone, {} span collisions)",
            self.requests.len(),
            self.rooted_at_replay,
            self.missing_parent,
            self.non_monotone_chains,
            self.span_collisions
        );
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "WARNING: recorder ring evicted {} events; this report describes a \
                 truncated window",
                self.dropped_events
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12} {:>12} {:>12} {:>6}",
            "phase", "count", "p50", "p99", "max", "share"
        );
        for p in Phase::ALL {
            let h = &self.phase_histograms[p.index()];
            let share_x10 = (h.sum_nanos() * 1000 / total) as u64;
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>12} {:>12} {:>12} {:>4}.{}%",
                p.name(),
                h.count(),
                format!("{}", h.p50()),
                format!("{}", h.p99()),
                format!("{}", h.max()),
                share_x10 / 10,
                share_x10 % 10
            );
        }
        let _ = writeln!(out, "slowest {k} requests:");
        for r in self.top_k(k) {
            let _ = writeln!(
                out,
                "  {:#018x} @P{} rtt={} dominant={} ({}ns)",
                r.trace_id,
                r.client_node,
                r.rtt,
                r.dominant().name(),
                r.phase_ns[r.dominant().index()]
            );
        }
        out
    }
}

/// Walks every reply match in the recorder back to its marshal root
/// along the critical path and tiles the RTT into phases. See the
/// module docs for the taxonomy and the tiling identity.
pub fn attribute(rec: &CausalRecorder) -> AttributionReport {
    // Group events by trace, preserving record order within each.
    let mut by_trace: BTreeMap<u64, Vec<&CausalEvent>> = BTreeMap::new();
    for e in rec.events() {
        by_trace.entry(e.trace_id).or_default().push(e);
    }
    let mut report = AttributionReport {
        requests: Vec::new(),
        phase_histograms: Default::default(),
        rtt_histogram: LogHistogram::new(),
        rooted_at_replay: 0,
        missing_parent: 0,
        span_collisions: rec.span_collisions(),
        non_monotone_chains: 0,
        dropped_events: rec.dropped(),
        violations: Vec::new(),
    };
    for (trace_id, events) in &by_trace {
        let by_span: BTreeMap<u64, &CausalEvent> = events.iter().map(|e| (e.span, *e)).collect();
        // A Send span is a *sibling* of the Deliver spans under the
        // same Pack parent (it never advances the chain); index it by
        // that parent for the token-wait/wire split.
        let send_by_pack: BTreeMap<u64, &CausalEvent> = events
            .iter()
            .filter(|e| e.hop == Hop::Send && e.parent != 0)
            .map(|e| (e.parent, *e))
            .collect();
        for anchor in events.iter().filter(|e| e.hop == Hop::ReplyMatch) {
            // Walk the parent chain back to the root. The walk stops
            // *at* the marshal hop: a follow-up invocation issued from
            // a reply handler records its marshal with a cross-trace
            // parent (the triggering reply's match span), which is a
            // causality link between round trips, not part of this one.
            let mut chain: Vec<&CausalEvent> = vec![anchor];
            let mut cur = *anchor;
            let mut broken = false;
            while cur.hop != Hop::Marshal && cur.parent != 0 {
                match by_span.get(&cur.parent) {
                    Some(p) => {
                        cur = p;
                        chain.push(p);
                    }
                    None => {
                        broken = true;
                        break;
                    }
                }
            }
            match chain.last().map(|e| e.hop) {
                Some(Hop::Marshal) if !broken => {}
                Some(Hop::Replay) if !broken => {
                    report.rooted_at_replay += 1;
                    continue;
                }
                _ => {
                    report.missing_parent += 1;
                    continue;
                }
            }
            chain.reverse(); // marshal root first
            if chain.windows(2).any(|w| w[1].at < w[0].at) {
                report.non_monotone_chains += 1;
                continue;
            }
            let root = chain[0];
            let rtt_ns = anchor.at.as_nanos() - root.at.as_nanos();
            let mut phase_ns = [0u64; PHASES];
            for w in chain.windows(2) {
                let (parent, child) = (w[0], w[1]);
                let edge = child.at.as_nanos() - parent.at.as_nanos();
                match child.hop {
                    Hop::Deliver => {
                        // Split at the frame's first transmission: the
                        // Send sibling under the same Pack span. No
                        // Send retained (evicted, or a pre-Send
                        // recording) → the whole edge is wire time.
                        match send_by_pack.get(&child.parent) {
                            Some(s) => {
                                let send_at =
                                    s.at.as_nanos()
                                        .clamp(parent.at.as_nanos(), child.at.as_nanos());
                                phase_ns[Phase::TokenWait.index()] +=
                                    send_at - parent.at.as_nanos();
                                phase_ns[Phase::WireRetransmit.index()] +=
                                    child.at.as_nanos() - send_at;
                            }
                            None => phase_ns[Phase::WireRetransmit.index()] += edge,
                        }
                    }
                    Hop::Pack => {
                        // The reply's marshal→pack window is the
                        // execution delay the servant imposed before
                        // the reply reached the group channel.
                        if parent.hop == Hop::Reply {
                            phase_ns[Phase::Dispatch.index()] += edge;
                        } else {
                            phase_ns[Phase::ClientMarshal.index()] += edge;
                        }
                    }
                    Hop::Reassemble | Hop::Hold => {
                        phase_ns[Phase::Reassembly.index()] += edge;
                    }
                    Hop::Replay => phase_ns[Phase::HoldResidency.index()] += edge,
                    Hop::Dispatch => {
                        if parent.hop == Hop::Hold {
                            phase_ns[Phase::HoldResidency.index()] += edge;
                        } else {
                            phase_ns[Phase::Dispatch.index()] += edge;
                        }
                    }
                    Hop::Reply => phase_ns[Phase::Dispatch.index()] += edge,
                    Hop::ReplyMatch => phase_ns[Phase::ReplyReturn.index()] += edge,
                    // Not part of an invocation round trip; attribute
                    // defensively rather than dropping time.
                    Hop::Marshal | Hop::Send | Hop::GetState | Hop::SetState | Hop::StateChunk => {
                        phase_ns[Phase::ClientMarshal.index()] += edge;
                    }
                }
            }
            let sum: u64 = phase_ns.iter().sum();
            if sum != rtt_ns {
                report.violations.push(format!(
                    "trace {trace_id:#018x} @P{}: phases sum to {sum}ns but rtt is \
                     {rtt_ns}ns",
                    anchor.node
                ));
            }
            for p in Phase::ALL {
                report.phase_histograms[p.index()].record_value(phase_ns[p.index()]);
            }
            report.rtt_histogram.record_value(rtt_ns);
            report.requests.push(RequestAttribution {
                trace_id: *trace_id,
                client_node: anchor.node,
                started_at: root.at,
                rtt: Duration::from_nanos(rtt_ns),
                phase_ns,
                hops: chain.len() as u32,
            });
        }
    }
    report
        .requests
        .sort_by_key(|r| (r.started_at, r.trace_id, r.client_node));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::OrderPos;

    /// Records a hop under the next span id of the test's own
    /// numbering (one past the highest retained), returning it.
    fn hop(
        rec: &mut CausalRecorder,
        at: u64,
        node: u64,
        trace_id: u64,
        parent: u64,
        hop: Hop,
        order: Option<OrderPos>,
    ) -> u64 {
        let span = rec.events().map(|e| e.span).max().unwrap_or(0) + 1;
        rec.record(CausalEvent {
            at: SimTime::from_nanos(at),
            node,
            trace_id,
            span,
            parent,
            hop,
            clock: 0,
            order,
            detail: String::new(),
        });
        span
    }

    /// Builds one fully traced round trip with explicit times:
    /// marshal 0 → pack 10 → send 40 → deliver 100 → reassemble 105 →
    /// dispatch 105 → reply 105 → pack 205 → send 215 → deliver 280 →
    /// reassemble 281 → reply_match 283.
    fn round_trip(rec: &mut CausalRecorder, trace: u64, hold_until: Option<u64>) {
        let m = hop(rec, 0, 0, trace, 0, Hop::Marshal, None);
        let p = hop(rec, 10, 0, trace, m, Hop::Pack, None);
        hop(rec, 40, 0, trace, p, Hop::Send, None);
        let pos = Some(OrderPos {
            ring_rep: 0,
            ring_seq: 1,
            seq: 1,
        });
        let d = hop(rec, 100, 1, trace, p, Hop::Deliver, pos);
        let r = hop(rec, 105, 1, trace, d, Hop::Reassemble, None);
        let dispatch_parent = match hold_until {
            None => r,
            Some(drain) => {
                let h = hop(rec, 105, 1, trace, r, Hop::Hold, None);
                hop(rec, drain, 1, trace, h, Hop::Replay, None)
            }
        };
        let base = hold_until.unwrap_or(105);
        let disp = hop(rec, base, 1, trace, dispatch_parent, Hop::Dispatch, None);
        let rep = hop(rec, base, 1, trace, disp, Hop::Reply, None);
        let p2 = hop(rec, base + 100, 1, trace, rep, Hop::Pack, None);
        hop(rec, base + 110, 1, trace, p2, Hop::Send, None);
        let d2 = hop(rec, base + 175, 0, trace, p2, Hop::Deliver, pos);
        let r2 = hop(rec, base + 176, 0, trace, d2, Hop::Reassemble, None);
        hop(rec, base + 178, 0, trace, r2, Hop::ReplyMatch, None);
    }

    #[test]
    fn phases_tile_rtt_exactly() {
        let mut rec = CausalRecorder::new(64);
        round_trip(&mut rec, 0xBEEF, None);
        let rep = attribute(&rec);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.requests.len(), 1);
        let r = &rep.requests[0];
        assert_eq!(r.rtt.as_nanos(), 283);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), 283);
        // marshal→pack = 10; token = (40-10) + (215-205) = 40;
        // wire = (100-40) + (280-215) = 125; reassembly = 5 + 1 = 6;
        // dispatch = 0 (dispatch→reply) + 100 (reply→pack) = 100;
        // reply_return = 283-281 = 2; hold = 0.
        assert_eq!(r.phase_ns[Phase::ClientMarshal.index()], 10);
        assert_eq!(r.phase_ns[Phase::TokenWait.index()], 40);
        assert_eq!(r.phase_ns[Phase::WireRetransmit.index()], 125);
        assert_eq!(r.phase_ns[Phase::Reassembly.index()], 6);
        assert_eq!(r.phase_ns[Phase::HoldResidency.index()], 0);
        assert_eq!(r.phase_ns[Phase::Dispatch.index()], 100);
        assert_eq!(r.phase_ns[Phase::ReplyReturn.index()], 2);
        assert_eq!(r.dominant(), Phase::WireRetransmit);
    }

    #[test]
    fn hold_window_goes_to_hold_residency_not_dispatch() {
        let mut rec = CausalRecorder::new(64);
        round_trip(&mut rec, 0xBEEF, Some(5_105));
        let rep = attribute(&rec);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        let r = &rep.requests[0];
        // Held from 105 to 5105: exactly 5000ns of hold residency, and
        // the dispatch phase is unchanged from the fault-free run.
        assert_eq!(r.phase_ns[Phase::HoldResidency.index()], 5_000);
        assert_eq!(r.phase_ns[Phase::Dispatch.index()], 100);
        assert_eq!(r.dominant(), Phase::HoldResidency);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), r.rtt.as_nanos());
    }

    #[test]
    fn missing_send_folds_token_wait_into_wire() {
        let mut rec = CausalRecorder::new(64);
        let m = hop(&mut rec, 0, 0, 7, 0, Hop::Marshal, None);
        let p = hop(&mut rec, 10, 0, 7, m, Hop::Pack, None);
        let d = hop(&mut rec, 100, 1, 7, p, Hop::Deliver, None);
        let r = hop(&mut rec, 100, 1, 7, d, Hop::Reassemble, None);
        let disp = hop(&mut rec, 100, 1, 7, r, Hop::Dispatch, None);
        let rep = hop(&mut rec, 100, 1, 7, disp, Hop::Reply, None);
        let p2 = hop(&mut rec, 150, 1, 7, rep, Hop::Pack, None);
        let d2 = hop(&mut rec, 200, 0, 7, p2, Hop::Deliver, None);
        let r2 = hop(&mut rec, 200, 0, 7, d2, Hop::Reassemble, None);
        hop(&mut rec, 200, 0, 7, r2, Hop::ReplyMatch, None);
        let report = attribute(&rec);
        let req = &report.requests[0];
        assert_eq!(req.phase_ns[Phase::TokenWait.index()], 0);
        assert_eq!(req.phase_ns[Phase::WireRetransmit.index()], 140);
        assert_eq!(req.phase_ns.iter().sum::<u64>(), 200);
    }

    #[test]
    fn broken_chain_is_counted_not_tiled() {
        let mut rec = CausalRecorder::new(64);
        // A reply match whose parent was evicted.
        hop(&mut rec, 50, 0, 9, 999, Hop::ReplyMatch, None);
        let rep = attribute(&rec);
        assert_eq!(rep.requests.len(), 0);
        assert_eq!(rep.missing_parent, 1);
        // A replayed reply whose replay roots its chain.
        let r = hop(&mut rec, 60, 0, 9, 0, Hop::Replay, None);
        hop(&mut rec, 60, 0, 9, r, Hop::ReplyMatch, None);
        let rep = attribute(&rec);
        assert_eq!((rep.rooted_at_replay, rep.missing_parent), (1, 1));
    }

    #[test]
    fn top_k_orders_slowest_first_deterministically() {
        let mut rec = CausalRecorder::new(256);
        round_trip(&mut rec, 0xA, None);
        round_trip(&mut rec, 0xB, Some(9_105)); // much slower
        let rep = attribute(&rec);
        let top = rep.top_k(2);
        assert_eq!(top[0].trace_id, 0xB);
        assert_eq!(top[1].trace_id, 0xA);
        assert_eq!(rep.top_k(1).len(), 1);
        let text = rep.render_text(2);
        assert!(text.contains("hold_residency"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn dropped_events_surface_in_report_and_warning() {
        let mut rec = CausalRecorder::new(4);
        round_trip(&mut rec, 0xC, None); // 12 events through a 4-ring
        let rep = attribute(&rec);
        assert!(rep.dropped_events > 0);
        assert!(rep.render_text(1).contains("WARNING"));
    }
}
