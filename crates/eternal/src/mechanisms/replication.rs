//! The **Replication Mechanisms** of one processor (paper §3, §4.1):
//! a client replica's invocations out through the ORB and the
//! interceptor; ordered inputs in through duplicate suppression, the
//! phase discipline of the local replica (`admit`), delivery into the
//! ORB's connections, and the one replay routine. Owns the connection
//! tables.

use super::recovery::suffix_bound_reached;
use super::{Delivery, Mechanisms, Out, ReplicaPhase};
use crate::app::{AppInvocation, ClientApp};
use crate::causal::{iiop_trace_id, HopCtx};
use crate::gid::{ConnectionName, Direction, GroupId, OperationId};
use crate::interceptor::inject_trace_context;
use crate::message::{EternalMessage, OrderedInput, RetrievalPurpose};
use crate::recovery::state3::OutstandingCall;
use eternal_giop::TraceContext;
use eternal_obs::causal::Hop;
use eternal_sim::{Duration, SimTime};
use std::borrow::Cow;

/// `bytes` — an intercepted GIOP request or reply — carrying the causal
/// [`TraceContext`] of the hop `span` in-band, in its service-context
/// list; untouched when the hop was not recorded (`span == 0`).
fn traced(bytes: Vec<u8>, trace_id: u64, span: u64, parent: u64, clock: u64) -> Vec<u8> {
    if span == 0 {
        return bytes;
    }
    let context = TraceContext {
        trace_id,
        span_id: span,
        parent_span_id: parent,
        clock,
    };
    inject_trace_context(bytes, context)
}

impl Mechanisms {
    /// Starts locally hosted client replicas (deployment time): runs
    /// `on_start` and issues the resulting invocations.
    pub fn start_clients(&mut self, now: SimTime, ctx: &mut HopCtx) -> Vec<Out> {
        let mut outs = Vec::new();
        let d = &mut Delivery::new(now, ctx, &mut outs);
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            if let Some(app) = self.operational_client(group) {
                let invocations = app.on_start();
                self.issue_invocations(group, invocations, d);
            }
        }
        outs
    }

    /// The application of the locally hosted client replica of `group`,
    /// if there is one and it is operational.
    pub(super) fn operational_client(&mut self, group: GroupId) -> Option<&mut Box<dyn ClientApp>> {
        let replica = self.groups.get_mut(&group)?.replica.as_mut()?;
        if replica.phase != ReplicaPhase::Operational {
            return None;
        }
        replica.client_app.as_mut()
    }

    /// Runs `on_tick` of the locally hosted client replica of `group`
    /// (if operational) and issues the resulting invocations.
    fn tick_replica(&mut self, group: GroupId, d: &mut Delivery) {
        let Some(app) = self.operational_client(group) else {
            return;
        };
        let invocations = app.on_tick();
        self.issue_invocations(group, invocations, d);
    }

    /// A totally ordered [`EternalMessage::LoadTick`]: ticks the local
    /// replica subject to the same phase discipline as normal traffic —
    /// operational replicas run it now, a pre-sync-point replica drops
    /// it (the donor ran it before the capture, so its effects arrive
    /// inside the transferred state), and an enqueueing replica holds
    /// it for replay after `set_state`.
    pub(super) fn on_load_tick(&mut self, group: GroupId, d: &mut Delivery) {
        // Open transfer windows on this group log the tick: the
        // recovering replica drops it, and the suffix is its only copy.
        self.transfers.log_input(group, || OrderedInput::LoadTick);
        if self.admit(group, || OrderedInput::LoadTick, d) {
            self.tick_replica(group, d);
        }
    }

    /// The phase discipline every ordered input meets at the local
    /// replica of `group`: an operational replica takes it now (`true`:
    /// deliver it), a warm backup takes no traffic, a recovering
    /// replica drops it before its synchronization point — its effects
    /// arrive inside the transferred state — and holds it after (§5.1
    /// step i), which is the one case an owned `input` is made for.
    fn admit(
        &mut self,
        group: GroupId,
        input: impl FnOnce() -> OrderedInput,
        d: &mut Delivery,
    ) -> bool {
        let Some(replica) = self
            .groups
            .get_mut(&group)
            .and_then(|lg| lg.replica.as_mut())
        else {
            return false;
        };
        match replica.phase {
            ReplicaPhase::Operational => return true,
            ReplicaPhase::Standby => {}
            ReplicaPhase::AwaitingSync => self.counters.dropped_pre_sync += 1,
            ReplicaPhase::Enqueueing => {
                // In the span tree a held message parks under a hold
                // hop, and its eventual replay hangs under that.
                let input = input();
                let hold = match input {
                    OrderedInput::Iiop { .. } => {
                        d.ctx.stamp(d.now, Hop::Hold, format_args!("holding-queue"))
                    }
                    OrderedInput::LoadTick => 0,
                };
                replica.holding.hold((input, hold));
                self.counters.enqueued_during_recovery += 1;
            }
        }
        false
    }

    /// The local ORB's client-side connection for `conn`, opened on
    /// first use (when the key of the object at its far end is worked
    /// out, once).
    pub(super) fn client_conn(&mut self, conn: ConnectionName) -> u64 {
        let opened = self.client_conns.entry(conn).or_insert_with(|| {
            (
                self.orb.open_client_connection(),
                Self::group_key(conn.server),
            )
        });
        opened.0
    }

    /// The local ORB's server-side connection for `conn`, accepted on
    /// first use.
    pub(super) fn server_conn(&mut self, conn: ConnectionName) -> u64 {
        *self
            .server_conns
            .entry(conn)
            .or_insert_with(|| self.orb.accept_server_connection())
    }

    fn issue_invocations(
        &mut self,
        group: GroupId,
        invocations: Vec<AppInvocation>,
        d: &mut Delivery,
    ) {
        for inv in invocations {
            let conn = ConnectionName {
                client: group,
                server: inv.server,
            };
            let conn_id = self.client_conn(conn);
            let key = &self.client_conns[&conn].1;
            let (request_id, bytes) = self
                .orb
                .invoke(
                    conn_id,
                    key,
                    &inv.operation,
                    &inv.args,
                    inv.response_expected,
                )
                .expect("connection exists");
            // The interceptor sees what the ORB tried to write to its
            // socket; the observer learns the ORB state from it.
            self.observer.observe_request(conn, &bytes);
            // Each invocation roots its own causal chain at the client
            // interceptor (a follow-up issued from a reply handler hangs
            // under that reply's match span). The TraceContext rides
            // in-band in the GIOP request's service-context list.
            let trace_id = iiop_trace_id(conn, self.interceptor.next_op_seq(conn));
            let marshal = d.ctx.stamp_new(
                d.now,
                trace_id,
                d.ctx.parent(),
                Hop::Marshal,
                format_args!("req {conn} {}", inv.operation),
            );
            let bytes = traced(bytes, trace_id, marshal, d.ctx.parent(), d.ctx.clock());
            let message = self.interceptor.capture_request(conn, bytes);
            let op_seq = match &message {
                EternalMessage::Iiop { op_seq, .. } => *op_seq,
                _ => unreachable!("capture_request returns Iiop"),
            };
            if inv.response_expected {
                let lg = self.groups.get_mut(&group).expect("group registered");
                lg.outstanding.insert(
                    (conn, op_seq),
                    OutstandingCall {
                        conn,
                        op_seq,
                        request_id,
                        operation: inv.operation,
                    },
                );
            }
            d.outs.push(Out::Multicast {
                delay: Duration::ZERO,
                message,
                trace: d.ctx.tag(trace_id, marshal),
            });
        }
    }

    /// One totally ordered IIOP message. Everything that decides its
    /// fate here — duplicate, request id, target group, who logs it,
    /// the local replica's phase — is read from the header and from
    /// `body` in place; an owned [`OrderedInput`] is made only where
    /// one is kept: an open transfer-suffix window, a passive group's
    /// log, an enqueueing replica's holding queue.
    pub(super) fn on_iiop(
        &mut self,
        conn: ConnectionName,
        direction: Direction,
        op_seq: u32,
        mut body: Cow<'_, [u8]>,
        d: &mut Delivery,
    ) {
        let op = OperationId {
            conn,
            direction,
            request_id: op_seq,
        };
        if !self.dedup.admit(op) {
            self.counters.duplicates_suppressed += 1;
            return;
        }
        if direction == Direction::Request {
            // Learn ORB/POA-level state by parsing (§4.2): request ids
            // and the stored handshake for later replay.
            self.observer.observe_request(conn, &body);
        }
        let target_group = match direction {
            Direction::Request => conn.server,
            Direction::Reply => conn.client,
        };
        let record = |bytes: Vec<u8>| OrderedInput::Iiop {
            conn,
            direction,
            op_seq,
            bytes,
        };
        // Open transfer windows on this group log the input: the
        // recovering replica drops its traffic until the last chunk
        // arrives, and the transfer suffix is its only copy.
        self.transfers
            .log_input(target_group, || record(body.to_vec()));
        let mut trigger_checkpoint = false;
        let Some(lg) = self.groups.get_mut(&target_group) else {
            return;
        };
        // §3.3: passive groups log the ordered messages that follow
        // the checkpoint, at every processor participating in the
        // group.
        if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node) {
            lg.log.log_message(record(body.to_vec()));
            self.counters.messages_logged += 1;
            // Bounded suffix: sustained load between periodic
            // checkpoints must not grow replay memory (or warm
            // promotion time) without bound. The primary fabricates
            // an extra checkpoint when the suffix crosses a bound,
            // one in flight per group at a time.
            trigger_checkpoint = suffix_bound_reached(&lg.log, self.config.suffix_checkpoint_len)
                && lg.primary_host() == Some(self.node)
                && self.transfers.arm_suffix_trigger(target_group);
        }
        if direction == Direction::Reply {
            // The group-level outstanding table shrinks at *every*
            // host of the client group, deterministically.
            lg.outstanding.remove(&(conn, op_seq));
        }
        // Held, the body is taken: one that came in several fragments
        // is moved, not copied.
        let held = || record(std::mem::take(&mut body).into_owned());
        let admitted = self.admit(target_group, held, d);
        if trigger_checkpoint {
            self.counters.suffix_checkpoints_triggered += 1;
            d.outs
                .push(self.retrieval(target_group, RetrievalPurpose::Checkpoint));
        }
        if admitted {
            self.deliver_iiop(target_group, conn, direction, op_seq, &body, d);
        }
    }

    /// Delivers one admitted input into the local operational replica
    /// of `group`.
    fn deliver(&mut self, group: GroupId, input: &OrderedInput, d: &mut Delivery) {
        match input {
            OrderedInput::LoadTick => self.tick_replica(group, d),
            OrderedInput::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => self.deliver_iiop(group, *conn, *direction, *op_seq, bytes, d),
        }
    }

    /// Hands an admitted IIOP message to the local ORB's connection.
    fn deliver_iiop(
        &mut self,
        group: GroupId,
        conn: ConnectionName,
        direction: Direction,
        op_seq: u32,
        bytes: &[u8],
        d: &mut Delivery,
    ) {
        match direction {
            Direction::Request => self.deliver_request(group, conn, op_seq, bytes, d),
            Direction::Reply => self.deliver_reply(group, conn, op_seq, bytes, d),
        }
    }

    fn deliver_request(
        &mut self,
        group: GroupId,
        conn: ConnectionName,
        op_seq: u32,
        bytes: &[u8],
        d: &mut Delivery,
    ) {
        let conn_id = self.server_conn(conn);
        match self.orb.handle_request_disposed(conn_id, bytes) {
            Ok((maybe_reply, disposition)) => {
                use eternal_orb::RequestDisposition;
                match disposition {
                    RequestDisposition::Dispatched => {
                        self.counters.requests_dispatched += 1;
                        let dispatch =
                            d.ctx
                                .stamp(d.now, Hop::Dispatch, format_args!("{conn} op#{op_seq}"));
                        if maybe_reply.is_none() {
                            // A oneway: no reply will ever signal its
                            // completion, so the object is considered
                            // non-quiescent for the execution window
                            // (paper §5).
                            let settles_at = d.now + self.config.exec_time;
                            if let Some(replica) = self.replica_mut(group) {
                                replica.oneway_dispatched(settles_at);
                            }
                        }
                        if let Some(reply_bytes) = maybe_reply {
                            // The reply continues the request's chain:
                            // its emission hop hangs under the dispatch
                            // and the TraceContext travels back in the
                            // GIOP reply's service-context list.
                            let reply_span = d.ctx.stamp(d.now, Hop::Reply, format_args!("reply"));
                            let (trace_id, clock) = (d.ctx.trace_id(), d.ctx.clock());
                            let reply_bytes =
                                traced(reply_bytes, trace_id, reply_span, dispatch, clock);
                            let message = self.interceptor.capture_reply(conn, op_seq, reply_bytes);
                            d.outs.push(Out::Multicast {
                                delay: self.config.exec_time,
                                message,
                                trace: d.ctx.tag(d.ctx.trace_id(), reply_span),
                            });
                        }
                    }
                    RequestDisposition::DiscardedUnnegotiated => {
                        // §4.2.2 failure mode: the server ORB cannot
                        // interpret negotiated shortcuts it never saw.
                        self.counters.requests_discarded_unnegotiated += 1;
                    }
                }
            }
            Err(_) => { /* unparseable request; real ORBs send MessageError */ }
        }
    }

    fn deliver_reply(
        &mut self,
        group: GroupId,
        conn: ConnectionName,
        op_seq: u32,
        bytes: &[u8],
        d: &mut Delivery,
    ) {
        let Some(&(conn_id, _)) = self.client_conns.get(&conn) else {
            // We never issued on this connection (e.g. a recovered
            // replica without restored ORB state): the reply has nowhere
            // to go. A real ORB without the matching socket simply never
            // sees it.
            self.counters.replies_discarded_by_orb += 1;
            return;
        };
        match self.orb.handle_reply(conn_id, bytes) {
            Ok(outcome) => {
                self.counters.replies_delivered += 1;
                // The round trip closes here; follow-up invocations the
                // application issues from its reply handler root their
                // new chains under this span.
                d.ctx
                    .stamp(d.now, Hop::ReplyMatch, format_args!("{conn} op#{op_seq}"));
                d.outs.push(Out::ReplyDelivered { conn, op_seq });
                let app = self.replica_mut(group).and_then(|r| r.client_app.as_mut());
                let follow_ups = app.map_or_else(Vec::new, |app| {
                    app.on_reply(
                        conn.server,
                        &outcome.operation,
                        outcome.status,
                        &outcome.body,
                    )
                });
                self.issue_invocations(group, follow_ups, d);
            }
            Err(_) => {
                // §4.2.1 failure mode: request-id mismatch → the ORB
                // discards an otherwise valid reply.
                self.counters.replies_discarded_by_orb += 1;
            }
        }
    }

    /// Replays one ordered input into the local operational replica of
    /// `group` — the one routine behind transfer-suffix replay,
    /// holding-queue drain (§5.1 step vi) and promotion replay (§3.3).
    /// An IIOP message replays on its *own* causal chain, not on the
    /// chain of whatever triggered the replay: a [`Hop::Replay`]
    /// labelled `{label}{conn} op#{n}` under `hold` (the span of its
    /// hold hop; 0 roots it afresh — the original hops of a logged
    /// message may be long evicted), excursion and restore.
    ///
    /// `delay` is set by promotion replay only: the message's position
    /// in the replay, added to every multicast it produces. Such a
    /// message is dispatched at [`SimTime::ZERO`], so a oneway opens no
    /// settling window — that wait is inside the explicit delay.
    pub(super) fn replay(
        &mut self,
        group: GroupId,
        input: &OrderedInput,
        hold: u64,
        label: &str,
        delay: Option<Duration>,
        d: &mut Delivery,
    ) {
        let OrderedInput::Iiop { conn, op_seq, .. } = input else {
            // A tick ordered after the capture: the transferred state
            // predates it, so this replica must run it too.
            return self.deliver(group, input, d);
        };
        let saved = (d.ctx.trace_id(), d.ctx.parent());
        let trace = iiop_trace_id(*conn, *op_seq);
        let span = d.ctx.stamp_new(
            d.now,
            trace,
            hold,
            Hop::Replay,
            format_args!("{label}{conn} op#{op_seq}"),
        );
        d.ctx.set_chain(trace, span);
        let now = d.now;
        if delay.is_some() {
            d.now = SimTime::ZERO;
        }
        let produced_from = d.outs.len();
        self.deliver(group, input, d);
        d.now = now;
        d.ctx.set_chain(saved.0, saved.1);
        if let Some(delay) = delay {
            for out in &mut d.outs[produced_from..] {
                if let Out::Multicast { delay: d, .. } = out {
                    *d += delay;
                }
            }
        }
    }
}
