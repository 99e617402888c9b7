//! The sans-io Totem protocol engine.
//!
//! A [`TotemNode`] consumes frames and timer expirations and emits
//! [`Action`]s. It never touches a clock or a socket, which makes every
//! protocol path unit-testable and lets the same engine run under the
//! deterministic harness ([`crate::harness`]) and under the Eternal
//! cluster driver.
//!
//! The engine implements the three phases of the Totem single-ring
//! protocol:
//!
//! 1. **Operational** — token rotation, sequenced broadcast, rtr-based
//!    retransmission, rotation-minimum aru tracking (for safety/GC).
//! 2. **Gather** — join-message flooding with proc-set/fail-set merging
//!    until every live candidate advertises identical sets (consensus).
//! 3. **Commit/Recovery** — the lowest-id candidate circulates a commit
//!    token: pass 1 collects each member's old-ring position, pass 2
//!    installs the new ring. Members then re-broadcast old-ring messages
//!    that some sharer lacks (wrapped as [`Payload::Recovered`]) before
//!    anyone delivers new traffic, so all members of the new
//!    configuration deliver the same set of old-ring messages ahead of
//!    the configuration change (virtual synchrony).

use crate::config::{TotemConfig, TOKEN_LOSS_TIMEOUT, TOKEN_RETRANSMIT_TIMEOUT};
use crate::types::{
    CommitEntry, CommitMsg, Frame, JoinMsg, Payload, RegularMsg, RingId, RotationAru, Timer, Token,
};
use crate::window::Window;
use eternal_sim::net::NodeId;
use eternal_sim::obs::causal::TraceTag;
use eternal_sim::Bytes;
use eternal_sim::Duration;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Interval between join-message re-floods while forming.
const JOIN_REBROADCAST_INTERVAL: Duration = Duration::from_millis(8);

/// How long to wait for matching join messages before moving
/// unresponsive processors to the fail set.
const CONSENSUS_TIMEOUT: Duration = Duration::from_millis(40);

/// Maximum distance `seq` may run ahead of the slowest member's aru
/// before broadcasts are held back.
pub const WINDOW_SIZE: u64 = 256;

/// Something the engine wants its driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Multicast a frame on the medium.
    Multicast(Frame),
    /// (Re)arm a timer; replaces any pending timer of the same kind.
    SetTimer(Timer, eternal_sim::Duration),
    /// Cancel a pending timer of this kind.
    CancelTimer(Timer),
    /// Hand an ordered event to the application.
    Deliver(Delivery),
}

/// An ordered event delivered to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// A totally ordered application message.
    Message {
        /// Ring it was sequenced on.
        ring: RingId,
        /// Its position in the total order of that ring.
        seq: u64,
        /// The broadcasting processor.
        sender: NodeId,
        /// Application bytes, shared with every other holder of the
        /// message (other members' deliveries, retransmission stores).
        data: Bytes,
        /// Causal trace tag the message carried ([`TraceTag::NONE`]
        /// when untraced); preserved through batching, retransmission,
        /// and recovery re-broadcast.
        trace: TraceTag,
    },
    /// The membership changed; subsequent messages are ordered on the
    /// new ring. Delivered after all surviving old-ring messages.
    ConfigChange {
        /// The new ring.
        ring: RingId,
        /// Its members, in ring order.
        members: Vec<NodeId>,
    },
}

/// A frame seen on the medium, borrowed: what
/// [`TotemNode::observe_progress`] compares with the control frame this
/// node last forwarded.
enum Observed<'a> {
    Regular(&'a RegularMsg),
    Token(&'a Token),
    Commit(&'a CommitMsg),
}

/// Which protocol phase the node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Flooding joins, seeking consensus on membership.
    Gather,
    /// Consensus reached; commit token circulating.
    Commit,
    /// New ring installed; exchanging old-ring messages.
    Recover,
    /// Normal operation on the installed ring.
    Operational,
}

#[derive(Debug)]
struct GatherState {
    proc_set: BTreeSet<NodeId>,
    fail_set: BTreeSet<NodeId>,
    /// Latest join message received from each candidate.
    joins: BTreeMap<NodeId, JoinMsg>,
    /// Set once we have forwarded/originated a commit token.
    committing: bool,
}

#[derive(Debug)]
struct OldRecovery {
    ring: RingId,
    /// Old-ring seqs (above my aru) I still have to deliver, ascending.
    expected: VecDeque<u64>,
    /// Old-ring messages I hold or have recovered, keyed by old seq. The
    /// payload is the original `App` or `Batch` (never `Recovered`), so
    /// a recovered batch still unpacks into the same app messages. The
    /// trace tags ride along so recovered messages keep their chains.
    store: BTreeMap<u64, (NodeId, Payload, Vec<TraceTag>)>,
    /// Old-ring seqs assigned to me for re-broadcast.
    to_rebroadcast: VecDeque<u64>,
}

/// The Totem protocol engine for one processor.
#[derive(Debug)]
pub struct TotemNode {
    id: NodeId,
    cfg: TotemConfig,
    phase: Phase,

    // ---- installed ring ----
    ring: Option<RingId>,
    members: Vec<NodeId>,
    /// Messages received on the current ring, by seq. Its floor is
    /// `safe_upto` whenever a frame or a timer is handled.
    received: Window,
    /// All of `1..=my_aru` received (and delivered or deferred).
    my_aru: u64,
    /// Everyone's aru was at least this during the last full rotation.
    safe_upto: u64,
    /// Highest token_seq processed or observed.
    last_token_seq: u64,
    /// Copy of the last token/commit frame we forwarded, for retransmit.
    forwarded: Option<Frame>,
    retransmit_count: u32,
    /// Leader only: the initial token for the current ring was emitted.
    launched: bool,
    /// Highest ring seq this node has ever been part of.
    ring_seq_high: u64,
    /// Diagnostic: what triggered the most recent gather (TOTEM_DEBUG).
    gather_reason: &'static str,

    // ---- application traffic ----
    pending: VecDeque<(Bytes, TraceTag)>,
    /// New-ring app messages buffered until recovery completes.
    deferred: Vec<(RingId, u64, NodeId, Bytes, TraceTag)>,

    // ---- membership ----
    gather: Option<GatherState>,
    old_recovery: Option<OldRecovery>,

    // ---- statistics ----
    broadcast_count: u64,
    delivered_count: u64,
    config_changes: u64,
    retransmits_served: u64,
    token_retransmits: u64,
    reformations: u64,
    batches: u64,
    batched_messages: u64,
    frames_saved: u64,
    store_refused: u64,
    last_flow_occupancy: u64,
}

/// Snapshot of a node's protocol counters, for export into a metrics
/// registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TotemStats {
    /// Application messages this node has broadcast.
    pub broadcasts: u64,
    /// Ordered deliveries made to the application.
    pub delivered: u64,
    /// Configuration changes delivered.
    pub config_changes: u64,
    /// Regular messages re-multicast in answer to a token's
    /// retransmission-request list.
    pub retransmits_served: u64,
    /// Times this node re-sent a forwarded token/commit frame because
    /// the successor did not take it in time.
    pub token_retransmits: u64,
    /// Membership reformations (gather entries) this node initiated or
    /// joined.
    pub reformations: u64,
    /// Multi-message [`Payload::Batch`] frames this node packed.
    pub batches: u64,
    /// Application messages carried inside those batches.
    pub batched_messages: u64,
    /// Ethernet frames avoided by batching (`batched_messages -
    /// batches`): each batch of *k* messages replaces *k* frames with
    /// one.
    pub frames_saved: u64,
    /// Regular messages the retransmission store refused because their
    /// seq lay beyond its window: handled as lost frames.
    pub store_refused: u64,
}

impl TotemNode {
    /// Creates a node. Call [`TotemNode::start`] to begin forming a ring.
    pub fn new(id: NodeId, cfg: TotemConfig) -> Self {
        cfg.validate();
        TotemNode {
            id,
            cfg,
            phase: Phase::Gather,
            ring: None,
            members: Vec::new(),
            received: Window::new(),
            my_aru: 0,
            safe_upto: 0,
            last_token_seq: 0,
            forwarded: None,
            retransmit_count: 0,
            launched: false,
            ring_seq_high: 0,
            gather_reason: "start",
            pending: VecDeque::new(),
            deferred: Vec::new(),
            gather: None,
            old_recovery: None,
            broadcast_count: 0,
            delivered_count: 0,
            config_changes: 0,
            retransmits_served: 0,
            token_retransmits: 0,
            reformations: 0,
            batches: 0,
            batched_messages: 0,
            frames_saved: 0,
            store_refused: 0,
            last_flow_occupancy: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current protocol phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The installed ring, if any.
    pub fn ring(&self) -> Option<RingId> {
        self.ring
    }

    /// Members of the installed ring (empty before the first formation).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of application messages this node has broadcast.
    pub fn broadcast_count(&self) -> u64 {
        self.broadcast_count
    }

    /// Number of ordered deliveries made to the application.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Number of configuration changes delivered.
    pub fn config_changes(&self) -> u64 {
        self.config_changes
    }

    /// Snapshot of all protocol counters.
    pub fn stats(&self) -> TotemStats {
        TotemStats {
            broadcasts: self.broadcast_count,
            delivered: self.delivered_count,
            config_changes: self.config_changes,
            retransmits_served: self.retransmits_served,
            token_retransmits: self.token_retransmits,
            reformations: self.reformations,
            batches: self.batches,
            batched_messages: self.batched_messages,
            frames_saved: self.frames_saved,
            store_refused: self.store_refused,
        }
    }

    /// Number of app payloads waiting to be sequenced.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Flow-control slot occupancy measured at this node's last token
    /// visit: sequence numbers in flight beyond its
    /// all-received-up-to, i.e. how much of the flow-control window
    /// ([`WINDOW_SIZE`]) was in use when it last held the token. A
    /// backpressure gauge — near the window size means senders are
    /// stalling on the window, not the medium.
    pub fn flow_occupancy(&self) -> u64 {
        self.last_flow_occupancy
    }

    /// All messages with sequence numbers `1..=aru` have been received
    /// on the current ring.
    pub fn aru(&self) -> u64 {
        self.my_aru
    }

    /// Every member held all messages up to this sequence number during
    /// the last complete token rotation.
    pub fn safe_upto(&self) -> u64 {
        self.safe_upto
    }

    /// Highest token sequence number processed or observed.
    pub fn last_token_seq(&self) -> u64 {
        self.last_token_seq
    }

    /// Begins membership formation (call once at startup/restart).
    pub fn start(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        self.enter_gather(BTreeSet::new(), BTreeSet::new(), &mut actions);
        actions
    }

    /// Queues an application payload for totally ordered broadcast.
    pub fn broadcast(&mut self, data: impl Into<Bytes>) -> Vec<Action> {
        self.broadcast_traced(data, TraceTag::NONE)
    }

    /// Queues an application payload for totally ordered broadcast,
    /// attaching a causal trace tag that rides the ring frame (and, for
    /// batched frames, stays aligned with this message) all the way to
    /// every member's [`Delivery::Message`].
    pub fn broadcast_traced(&mut self, data: impl Into<Bytes>, tag: TraceTag) -> Vec<Action> {
        self.pending.push_back((data.into(), tag));
        let mut actions = Vec::new();
        // A singleton operational ring has no token; sequence directly.
        if self.phase == Phase::Operational && self.members.len() == 1 {
            self.drain_singleton(&mut actions);
        }
        actions
    }

    /// Handles a frame observed on the medium. All frames are physically
    /// multicast; the node decides relevance (token/commit frames carry a
    /// target).
    pub fn handle_frame(&mut self, frame: Frame) -> Vec<Action> {
        // Room for what the frame itself announces — the timers, a
        // delivery per packed message, a frame per retransmission
        // request and the forwarded token — so the vector regrows only
        // for what it cannot (a closing gap, a reformation).
        let mut actions = Vec::with_capacity(match &frame {
            Frame::Regular(m) => 2 + m.payload.message_count(),
            Frame::Token(t) if t.target == self.id => 4 + t.rtr.len(),
            Frame::Token(_) => 2,
            Frame::Join(_) | Frame::Commit(_) => 0,
        });
        match frame {
            Frame::Regular(m) => self.on_regular(m, &mut actions),
            Frame::Token(t) => self.on_token(t, &mut actions),
            Frame::Join(j) => self.on_join(j, &mut actions),
            Frame::Commit(c) => self.on_commit(c, &mut actions),
        }
        actions
    }

    /// Handles a timer expiration previously requested via
    /// [`Action::SetTimer`].
    pub fn handle_timer(&mut self, timer: Timer) -> Vec<Action> {
        let mut actions = Vec::new();
        match timer {
            Timer::TokenLoss => {
                // The ring has stalled (token lost, holder crashed, or a
                // formation attempt died). Reform.
                self.gather_reason = "token-loss";
                self.enter_gather(BTreeSet::new(), BTreeSet::new(), &mut actions);
            }
            Timer::TokenRetransmit => {
                if let Some(frame) = self.forwarded.clone() {
                    self.retransmit_count += 1;
                    self.token_retransmits += 1;
                    if self.retransmit_count > 10 {
                        // The next member is unreachable; reform now
                        // rather than waiting for token loss.
                        self.gather_reason = "retransmit-exhausted";
                        self.enter_gather(BTreeSet::new(), BTreeSet::new(), &mut actions);
                    } else {
                        actions.push(Action::Multicast(frame));
                        actions.push(Action::SetTimer(
                            Timer::TokenRetransmit,
                            TOKEN_RETRANSMIT_TIMEOUT,
                        ));
                    }
                }
            }
            Timer::JoinRebroadcast => {
                if let Some(g) = &self.gather {
                    if !g.committing {
                        actions.push(Action::Multicast(Frame::Join(self.my_join(g))));
                        actions.push(Action::SetTimer(
                            Timer::JoinRebroadcast,
                            JOIN_REBROADCAST_INTERVAL,
                        ));
                    }
                } else if self.phase == Phase::Operational && self.members.len() == 1 {
                    // Singleton announcement (see install_ring).
                    let announce = JoinMsg {
                        sender: self.id,
                        proc_set: [self.id].into_iter().collect(),
                        fail_set: BTreeSet::new(),
                        ring_seq_hint: self.ring_seq_high,
                    };
                    actions.push(Action::Multicast(Frame::Join(announce)));
                    actions.push(Action::SetTimer(
                        Timer::JoinRebroadcast,
                        JOIN_REBROADCAST_INTERVAL * 4,
                    ));
                }
            }
            Timer::ConsensusTimeout => {
                self.on_consensus_timeout(&mut actions);
            }
        }
        actions
    }

    // ================================================================
    // Gather: join flooding and consensus
    // ================================================================

    fn my_join(&self, g: &GatherState) -> JoinMsg {
        JoinMsg {
            sender: self.id,
            proc_set: g.proc_set.clone(),
            fail_set: g.fail_set.clone(),
            ring_seq_hint: self.ring_seq_high,
        }
    }

    fn enter_gather(
        &mut self,
        extra_procs: BTreeSet<NodeId>,
        extra_fails: BTreeSet<NodeId>,
        actions: &mut Vec<Action>,
    ) {
        // Diagnostic hook: set TOTEM_DEBUG=1 to log every membership
        // reformation with the trigger that caused it.
        if std::env::var_os("TOTEM_DEBUG").is_some() {
            eprintln!(
                "[{}] enter_gather from {:?} ring={:?} reason={}",
                self.id, self.phase, self.ring, self.gather_reason
            );
        }
        self.reformations += 1;
        let mut proc_set: BTreeSet<NodeId> = self.members.iter().copied().collect();
        proc_set.insert(self.id);
        proc_set.extend(extra_procs);
        let mut fail_set = extra_fails;
        fail_set.remove(&self.id);
        self.phase = Phase::Gather;
        self.forwarded = None;
        self.retransmit_count = 0;
        let g = GatherState {
            proc_set,
            fail_set,
            joins: BTreeMap::new(),
            committing: false,
        };
        actions.push(Action::CancelTimer(Timer::TokenRetransmit));
        actions.push(Action::CancelTimer(Timer::TokenLoss));
        actions.push(Action::Multicast(Frame::Join(self.my_join(&g))));
        actions.push(Action::SetTimer(
            Timer::JoinRebroadcast,
            JOIN_REBROADCAST_INTERVAL,
        ));
        actions.push(Action::SetTimer(Timer::ConsensusTimeout, CONSENSUS_TIMEOUT));
        self.gather = Some(g);
    }

    fn on_join(&mut self, j: JoinMsg, actions: &mut Vec<Action>) {
        if j.sender == self.id {
            return; // our own flood echoed back (not possible on this medium, but harmless)
        }
        match self.phase {
            Phase::Gather | Phase::Commit => {
                // A join during Commit means someone is unhappy with the
                // formation in progress (or missed it); restart gathering
                // with the new information.
                if self.phase == Phase::Commit {
                    let mut procs = BTreeSet::new();
                    procs.extend(j.proc_set.iter().copied());
                    procs.insert(j.sender);
                    let fails: BTreeSet<NodeId> = j
                        .fail_set
                        .iter()
                        .copied()
                        .filter(|&f| f != self.id)
                        .collect();
                    self.gather_reason = "join-during-commit";
                    self.enter_gather(procs, fails, actions);
                    // fall through to normal gather processing below
                }
                let Some(g) = self.gather.as_mut() else {
                    return;
                };
                let mut changed = false;
                if !g.proc_set.contains(&j.sender) {
                    g.proc_set.insert(j.sender);
                    changed = true;
                }
                for &p in &j.proc_set {
                    changed |= g.proc_set.insert(p);
                }
                for &f in &j.fail_set {
                    if f != self.id {
                        changed |= g.fail_set.insert(f);
                    }
                }
                g.joins.insert(j.sender, j);
                if changed {
                    let join = self.my_join(self.gather.as_ref().expect("in gather"));
                    actions.push(Action::Multicast(Frame::Join(join)));
                    actions.push(Action::SetTimer(Timer::ConsensusTimeout, CONSENSUS_TIMEOUT));
                }
                self.check_consensus(actions);
            }
            Phase::Operational | Phase::Recover => {
                // Stale flood from a member that already formed with us?
                let stale = self.members.contains(&j.sender)
                    && j.ring_seq_hint < self.ring.map(|r| r.seq).unwrap_or(0);
                if stale {
                    return;
                }
                // A foreign joiner, or a member that lost the ring:
                // reform, carrying their candidate information.
                let mut procs = j.proc_set.clone();
                procs.insert(j.sender);
                let fails: BTreeSet<NodeId> = j
                    .fail_set
                    .iter()
                    .copied()
                    .filter(|&f| f != self.id)
                    .collect();
                self.gather_reason = "join-while-settled";
                self.enter_gather(procs, fails, actions);
                if let Some(g) = self.gather.as_mut() {
                    g.joins.insert(j.sender, j);
                }
                self.check_consensus(actions);
            }
        }
    }

    fn on_consensus_timeout(&mut self, actions: &mut Vec<Action>) {
        let Some(g) = self.gather.as_mut() else {
            return;
        };
        if g.committing {
            // The commit token died; reform from scratch.
            self.gather_reason = "commit-stalled";
            self.enter_gather(BTreeSet::new(), BTreeSet::new(), actions);
            return;
        }
        // Candidates that never produced a matching join are failed.
        let candidates: Vec<NodeId> = g
            .proc_set
            .difference(&g.fail_set)
            .copied()
            .filter(|&p| p != self.id)
            .collect();
        let mut newly_failed = Vec::new();
        for p in candidates {
            match g.joins.get(&p) {
                Some(j) if j.proc_set == g.proc_set && j.fail_set == g.fail_set => {}
                _ => newly_failed.push(p),
            }
        }
        for p in newly_failed {
            g.fail_set.insert(p);
        }
        let join = self.my_join(self.gather.as_ref().expect("in gather"));
        actions.push(Action::Multicast(Frame::Join(join)));
        actions.push(Action::SetTimer(Timer::ConsensusTimeout, CONSENSUS_TIMEOUT));
        self.check_consensus(actions);
    }

    fn check_consensus(&mut self, actions: &mut Vec<Action>) {
        let Some(g) = self.gather.as_ref() else {
            return;
        };
        if g.committing {
            return;
        }
        let candidates: Vec<NodeId> = g.proc_set.difference(&g.fail_set).copied().collect();
        debug_assert!(candidates.contains(&self.id));
        for &p in &candidates {
            if p == self.id {
                continue;
            }
            match g.joins.get(&p) {
                Some(j) if j.proc_set == g.proc_set && j.fail_set == g.fail_set => {}
                _ => return, // no consensus yet
            }
        }
        // Consensus. The lowest-id candidate originates the commit token.
        let leader = candidates[0];
        if leader != self.id {
            // Wait for the commit token; the consensus timer doubles as
            // the watchdog for a leader that never delivers one.
            return;
        }
        let new_seq = {
            let hint_max = g
                .joins
                .values()
                .map(|j| j.ring_seq_hint)
                .max()
                .unwrap_or(0)
                .max(self.ring_seq_high);
            hint_max + 4
        };
        let new_ring = RingId {
            seq: new_seq,
            rep: self.id,
        };
        let entries = vec![self.my_commit_entry()];
        if candidates.len() == 1 {
            // Singleton ring: no token to circulate; install directly.
            self.gather.as_mut().expect("in gather").committing = true;
            self.install_ring(new_ring, candidates, entries, actions);
            return;
        }
        let commit = CommitMsg {
            target: candidates[1],
            pass: 1,
            new_ring,
            members: candidates,
            entries,
        };
        self.gather.as_mut().expect("in gather").committing = true;
        self.phase = Phase::Commit;
        self.forward_control(Frame::Commit(commit), actions);
        // Watchdog: if formation stalls, token-loss fires and regathers.
        actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
        actions.push(Action::CancelTimer(Timer::JoinRebroadcast));
    }

    fn my_commit_entry(&self) -> CommitEntry {
        let held_above_aru: BTreeSet<u64> =
            self.received.keys().filter(|&s| s > self.my_aru).collect();
        CommitEntry {
            member: self.id,
            old_ring: self.ring,
            my_aru: self.my_aru,
            high_seq: self
                .received
                .keys()
                .next_back()
                .unwrap_or(self.my_aru)
                .max(self.my_aru),
            held_above_aru,
        }
    }

    fn on_commit(&mut self, c: CommitMsg, actions: &mut Vec<Action>) {
        // Progress observation: a commit frame farther along than the one
        // we forwarded means our forward arrived.
        self.observe_progress(Observed::Commit(&c), actions);
        // While settled, a commit token for a formation that excludes us
        // means the membership is moving on without us: re-gather.
        if matches!(self.phase, Phase::Operational | Phase::Recover)
            && Some(c.new_ring) != self.ring
            && self.on_foreign_ring_frame(c.new_ring, c.target, actions)
        {
            return;
        }
        if c.target != self.id {
            return;
        }
        if !c.members.contains(&self.id) {
            return;
        }
        let leader = c.members[0];
        match c.pass {
            1 => {
                if self.id == leader {
                    // Pass 1 complete: every member appended its entry.
                    if c.entries.len() != c.members.len() {
                        return; // malformed; let the watchdog reform
                    }
                    if self.ring == Some(c.new_ring) {
                        return; // duplicate pass-1 return
                    }
                    let mut c2 = c;
                    c2.pass = 2;
                    c2.target = c2.members[1];
                    self.install_ring(c2.new_ring, c2.members.clone(), c2.entries.clone(), actions);
                    self.forward_control(Frame::Commit(c2), actions);
                    actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
                } else {
                    // Append our entry and forward.
                    if !matches!(self.phase, Phase::Gather | Phase::Commit) {
                        return; // we're not forming; stale commit
                    }
                    if c.entries.iter().any(|e| e.member == self.id) {
                        return; // duplicate delivery of the commit token
                    }
                    let mut c = c;
                    c.entries.push(self.my_commit_entry());
                    let my_pos = c
                        .members
                        .iter()
                        .position(|&m| m == self.id)
                        .expect("member");
                    c.target = c.members[(my_pos + 1) % c.members.len()];
                    self.phase = Phase::Commit;
                    if let Some(g) = self.gather.as_mut() {
                        g.committing = true;
                    }
                    actions.push(Action::CancelTimer(Timer::JoinRebroadcast));
                    self.forward_control(Frame::Commit(c), actions);
                    actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
                }
            }
            2 => {
                if self.id == leader {
                    // Pass 2 returned: everyone installed (leader itself
                    // installed at the pass-1 return). Launch the ring by
                    // emitting the first regular token, exactly once.
                    if self.ring != Some(c.new_ring) || self.launched {
                        return;
                    }
                    self.launched = true;
                    let token = Token {
                        ring: c.new_ring,
                        target: self.next_member(),
                        token_seq: self.last_token_seq + 1,
                        seq: 0,
                        rtr: BTreeSet::new(),
                        // Fold the leader's own aru in at launch: the first
                        // rotation's minimum must cover every member, or
                        // the others may garbage-collect messages the
                        // leader (or a laggard) still needs.
                        aru: RotationAru {
                            this_rotation_min: self.my_aru,
                            last_rotation_min: 0,
                        },
                    };
                    self.last_token_seq = token.token_seq;
                    self.forward_control(Frame::Token(token), actions);
                    actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
                } else {
                    if self.ring == Some(c.new_ring) {
                        return; // duplicate pass-2 delivery; our own
                                // retransmit timer covers the forward
                    }
                    // Install the ring, then forward pass 2 onward.
                    let members = c.members.clone();
                    let entries = c.entries.clone();
                    let mut c = c;
                    let my_pos = c
                        .members
                        .iter()
                        .position(|&m| m == self.id)
                        .expect("member");
                    c.target = c.members[(my_pos + 1) % c.members.len()];
                    self.install_ring(c.new_ring, members, entries, actions);
                    self.forward_control(Frame::Commit(c), actions);
                    actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
                }
            }
            _ => {}
        }
    }

    // ================================================================
    // Ring installation and old-ring recovery
    // ================================================================

    fn install_ring(
        &mut self,
        new_ring: RingId,
        members: Vec<NodeId>,
        entries: Vec<CommitEntry>,
        actions: &mut Vec<Action>,
    ) {
        // Compute old-ring recovery obligations before discarding state.
        let old_recovery = self.ring.map(|old_ring| {
            let sharers: Vec<&CommitEntry> = entries
                .iter()
                .filter(|e| e.old_ring == Some(old_ring))
                .collect();
            let high = sharers
                .iter()
                .map(|e| e.high_seq)
                .max()
                .unwrap_or(self.my_aru);
            let low = sharers
                .iter()
                .map(|e| e.my_aru)
                .min()
                .unwrap_or(self.my_aru);
            // Seqs in (low, high] held by at least one sharer.
            let mut available: BTreeSet<u64> = BTreeSet::new();
            for e in &sharers {
                for s in (low + 1)..=e.my_aru {
                    available.insert(s);
                }
                available.extend(e.held_above_aru.iter().copied().filter(|&s| s <= high));
            }
            // A sharer lacks s if s > its aru and s not held.
            let lacks = |e: &CommitEntry, s: u64| s > e.my_aru && !e.held_above_aru.contains(&s);
            let holder_of = |s: u64| {
                sharers
                    .iter()
                    .filter(|e| !lacks(e, s))
                    .map(|e| e.member)
                    .min()
            };
            let needed: BTreeSet<u64> = available
                .iter()
                .copied()
                .filter(|&s| sharers.iter().any(|e| lacks(e, s)))
                .collect();
            let to_rebroadcast: VecDeque<u64> = needed
                .iter()
                .copied()
                .filter(|&s| holder_of(s) == Some(self.id))
                .collect();
            let expected: VecDeque<u64> = available
                .iter()
                .copied()
                .filter(|&s| s > self.my_aru)
                .collect();
            let store: BTreeMap<u64, (NodeId, Payload, Vec<TraceTag>)> = self
                .received
                .iter()
                .map(|(s, m)| (s, (m.sender, m.payload.inner().clone(), m.trace.clone())))
                .collect();
            OldRecovery {
                ring: old_ring,
                expected,
                store,
                to_rebroadcast,
            }
        });

        self.ring = Some(new_ring);
        self.ring_seq_high = self.ring_seq_high.max(new_ring.seq);
        self.members = members;
        self.received = Window::new();
        self.my_aru = 0;
        self.safe_upto = 0;
        // Token hop counters are per-ring: every member resets here,
        // before the leader can emit the new ring's first token (the
        // leader installs at the pass-1 return, members at pass-2, and
        // the token is emitted only after pass-2 completes the circuit).
        self.last_token_seq = 0;
        self.deferred.clear();
        self.gather = None;
        self.old_recovery = old_recovery;
        self.launched = false;
        self.phase = Phase::Recover;
        actions.push(Action::CancelTimer(Timer::JoinRebroadcast));
        actions.push(Action::CancelTimer(Timer::ConsensusTimeout));
        actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
        self.try_finish_recovery(actions);
        if self.phase == Phase::Operational && self.members.len() == 1 {
            actions.push(Action::CancelTimer(Timer::TokenLoss));
            // A singleton ring has no token traffic, so nothing announces
            // our existence; flood periodic joins so that reachable
            // processors (e.g. after a partition heals) can merge with us.
            actions.push(Action::SetTimer(
                Timer::JoinRebroadcast,
                JOIN_REBROADCAST_INTERVAL * 4,
            ));
            self.drain_singleton(actions);
        }
    }

    /// Delivers whatever old-ring messages are ready; completes recovery
    /// (config change + deferred new traffic) once nothing is owed.
    fn try_finish_recovery(&mut self, actions: &mut Vec<Action>) {
        if self.phase != Phase::Recover {
            return;
        }
        if let Some(rec) = self.old_recovery.as_mut() {
            while let Some(&next) = rec.expected.front() {
                match rec.store.get(&next) {
                    Some((sender, payload, tags)) => {
                        let (sender, payload, tags) = (*sender, payload.clone(), tags.clone());
                        rec.expected.pop_front();
                        let ring = rec.ring;
                        let tag_at = |i: usize| tags.get(i).copied().unwrap_or(TraceTag::NONE);
                        let deliver =
                            |data: Bytes, trace, count: &mut u64, actions: &mut Vec<Action>| {
                                *count += 1;
                                actions.push(Action::Deliver(Delivery::Message {
                                    ring,
                                    seq: next,
                                    sender,
                                    data,
                                    trace,
                                }));
                            };
                        match payload {
                            Payload::App(data) => {
                                deliver(data, tag_at(0), &mut self.delivered_count, actions)
                            }
                            Payload::Batch(items) => {
                                for (i, data) in items.into_iter().enumerate() {
                                    deliver(data, tag_at(i), &mut self.delivered_count, actions);
                                }
                            }
                            Payload::Recovered { .. } => {
                                unreachable!("recovery store holds unwrapped payloads")
                            }
                        }
                    }
                    None => break,
                }
            }
            if !rec.expected.is_empty() || !rec.to_rebroadcast.is_empty() {
                return; // still owed messages, or still owe rebroadcasts
            }
        }
        // Recovery complete.
        self.old_recovery = None;
        self.phase = Phase::Operational;
        self.config_changes += 1;
        actions.push(Action::Deliver(Delivery::ConfigChange {
            ring: self.ring.expect("installed"),
            members: self.members.clone(),
        }));
        // Flush new-ring traffic that arrived during recovery.
        for (ring, seq, sender, data, trace) in std::mem::take(&mut self.deferred) {
            self.delivered_count += 1;
            actions.push(Action::Deliver(Delivery::Message {
                ring,
                seq,
                sender,
                data,
                trace,
            }));
        }
    }

    // ================================================================
    // Operational: token and regular messages
    // ================================================================

    fn next_member(&self) -> NodeId {
        let pos = self
            .members
            .iter()
            .position(|&m| m == self.id)
            .expect("self is a ring member");
        self.members[(pos + 1) % self.members.len()]
    }

    /// Forward a control frame (token or commit), retaining a copy for
    /// retransmission.
    fn forward_control(&mut self, frame: Frame, actions: &mut Vec<Action>) {
        self.forwarded = Some(frame.clone());
        self.retransmit_count = 0;
        actions.push(Action::Multicast(frame));
        actions.push(Action::SetTimer(
            Timer::TokenRetransmit,
            TOKEN_RETRANSMIT_TIMEOUT,
        ));
    }

    /// Cancels pending retransmission when an observed frame proves the
    /// frame we forwarded was received.
    fn observe_progress(&mut self, observed: Observed<'_>, actions: &mut Vec<Action>) {
        let Some(fwd) = &self.forwarded else { return };
        let progressed = match (fwd, observed) {
            (Frame::Token(mine), Observed::Token(theirs)) => {
                theirs.ring == mine.ring && theirs.token_seq > mine.token_seq
            }
            (Frame::Token(mine), Observed::Regular(m)) => {
                // Only the token holder broadcasts; a regular message on
                // our ring from the token's target proves receipt.
                m.ring == mine.ring && m.sender == mine.target
            }
            (Frame::Commit(mine), Observed::Commit(theirs)) => {
                theirs.new_ring == mine.new_ring
                    && (theirs.pass, position_of(&theirs.members, theirs.target))
                        > (mine.pass, position_of(&mine.members, mine.target))
            }
            (Frame::Commit(mine), Observed::Token(t)) => t.ring >= mine.new_ring,
            _ => false,
        };
        if progressed {
            self.forwarded = None;
            self.retransmit_count = 0;
            actions.push(Action::CancelTimer(Timer::TokenRetransmit));
        }
    }

    /// Classifies a frame from a ring other than ours. Returns `true`
    /// when the frame is foreign (the caller must not process it).
    ///
    /// Two signals force a re-gather while we are settled
    /// (Operational/Recover): a *newer* ring (membership moved on without
    /// us), or evidence of a processor outside our membership (a split
    /// ring on the other side of a healed partition — possibly older
    /// than ours, but alive). Anything else is a stale straggler.
    fn on_foreign_ring_frame(
        &mut self,
        ring: RingId,
        evidence: NodeId,
        actions: &mut Vec<Action>,
    ) -> bool {
        match self.ring {
            Some(mine) if ring == mine => false,
            Some(mine) => {
                let newer = ring > mine;
                let outsider = !self.members.contains(&evidence);
                if (newer || outsider) && matches!(self.phase, Phase::Operational | Phase::Recover)
                {
                    self.gather_reason = if newer {
                        "newer-foreign-ring"
                    } else {
                        "outsider-frame"
                    };
                    self.enter_gather(BTreeSet::new(), BTreeSet::new(), actions);
                }
                true
            }
            None => true, // still forming; joins drive convergence
        }
    }

    fn on_token(&mut self, t: Token, actions: &mut Vec<Action>) {
        self.observe_progress(Observed::Token(&t), actions);
        if self.on_foreign_ring_frame(t.ring, t.target, actions) {
            return;
        }
        // Any current-ring token is evidence of life.
        actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
        if t.target != self.id {
            self.last_token_seq = self.last_token_seq.max(t.token_seq);
            return;
        }
        if t.token_seq <= self.last_token_seq {
            return; // duplicate of a token we already processed
        }
        if self.phase != Phase::Operational && self.phase != Phase::Recover {
            return;
        }
        self.last_token_seq = t.token_seq;
        let mut t = t;

        // 1. Retransmit requested messages we hold.
        let mut served = Vec::new();
        for &s in &t.rtr {
            if let Some(m) = self.received.get(s) {
                actions.push(Action::Multicast(Frame::Regular(m.clone())));
                served.push(s);
            }
        }
        self.retransmits_served += served.len() as u64;
        for s in served {
            t.rtr.remove(&s);
        }

        // 2. Broadcast new messages, recovery rebroadcasts first.
        let mut budget = self.cfg.max_messages_per_token;
        if self.phase == Phase::Recover {
            while budget > 0 && self.may_sequence_after(t.seq) {
                let Some(rec) = self.old_recovery.as_mut() else {
                    break;
                };
                let Some(&old_seq) = rec.to_rebroadcast.front() else {
                    break;
                };
                let Some((orig_sender, payload, tags)) = rec.store.get(&old_seq).cloned() else {
                    // We were assigned a message we no longer hold (should
                    // not happen); drop the obligation.
                    rec.to_rebroadcast.pop_front();
                    continue;
                };
                rec.to_rebroadcast.pop_front();
                let old_ring = rec.ring;
                t.seq += 1;
                let msg = RegularMsg {
                    ring: t.ring,
                    seq: t.seq,
                    sender: self.id,
                    payload: Payload::Recovered {
                        old_ring,
                        old_seq,
                        original_sender: orig_sender,
                        data: Box::new(payload),
                    },
                    trace: tags,
                };
                actions.push(Action::Multicast(Frame::Regular(msg.clone())));
                self.store_and_deliver(msg, actions);
                budget -= 1;
            }
            // Rebroadcast obligations may have just emptied.
            self.try_finish_recovery(actions);
        }
        if self.phase == Phase::Operational {
            while budget > 0 && !self.pending.is_empty() && self.may_sequence_after(t.seq) {
                let first = self.pending.pop_front().expect("non-empty");
                let (payload, tags) = self.pack_batch(first);
                // The frame, and our own delivery of each message in it.
                actions.reserve(1 + payload.message_count());
                t.seq += 1;
                let msg = RegularMsg {
                    ring: t.ring,
                    seq: t.seq,
                    sender: self.id,
                    payload,
                    trace: tags,
                };
                actions.push(Action::Multicast(Frame::Regular(msg.clone())));
                self.store_and_deliver(msg, actions);
                budget -= 1;
            }
        }

        // Sample flow-control occupancy at the token-visit boundary,
        // *after* this visit's sends: how much of the window is in
        // flight as the token leaves this node.
        self.last_flow_occupancy = t.seq.saturating_sub(self.my_aru);

        // 3. Request retransmission of our gaps.
        for s in (self.my_aru + 1)..=t.seq {
            if !self.received.contains(s) && t.rtr.len() < 128 {
                t.rtr.insert(s);
            }
        }

        // 4. Rotation-minimum aru bookkeeping (leader is the boundary).
        if self.ring.map(|r| r.rep) == Some(self.id) {
            // A full rotation just completed; its minimum covered every
            // member (the leader folded its own aru in at the start).
            t.aru.last_rotation_min = t.aru.this_rotation_min;
            t.aru.this_rotation_min = self.my_aru;
        } else {
            t.aru.this_rotation_min = t.aru.this_rotation_min.min(self.my_aru);
        }
        // The rotation minimum folded this node's aru in and arus only
        // grow, so neither clamp binds on a token a member could send;
        // with them `safe_upto` is the store's floor whatever arrives.
        let safe = t.aru.last_rotation_min.min(self.my_aru);
        self.safe_upto = self.safe_upto.max(safe);
        // Garbage-collect messages everyone holds.
        self.received.discard_through(self.safe_upto);

        // 5. Forward.
        t.target = self.next_member();
        t.token_seq += 1;
        self.last_token_seq = t.token_seq - 1; // we processed up to our own hop
        self.forward_control(Frame::Token(t), actions);
    }

    /// Flow control: whether this node may give the seq after `seq` to
    /// a message of its own — within [`WINDOW_SIZE`] of its aru, and
    /// inside the window of its store, so that what it multicasts it
    /// also holds for retransmission.
    fn may_sequence_after(&self, seq: u64) -> bool {
        seq.saturating_sub(self.my_aru) < WINDOW_SIZE && self.received.accepts(seq + 1)
    }

    fn on_regular(&mut self, m: RegularMsg, actions: &mut Vec<Action>) {
        self.observe_progress(Observed::Regular(&m), actions);
        if self.on_foreign_ring_frame(m.ring, m.sender, actions) {
            return;
        }
        actions.push(Action::SetTimer(Timer::TokenLoss, TOKEN_LOSS_TIMEOUT));
        if self.phase != Phase::Operational && self.phase != Phase::Recover {
            return;
        }
        debug_assert_eq!(self.received.floor(), self.safe_upto);
        if m.seq <= self.safe_upto || self.received.contains(m.seq) {
            return; // duplicate or already collected
        }
        self.store_and_deliver(m, actions);
    }

    /// Greedily packs `first` plus as many consecutive pending messages
    /// as fit within the batch budget into one payload (the token-visit
    /// batching fast path). Returns a plain [`Payload::App`] when
    /// batching is disabled, the message alone exceeds the budget, or
    /// nothing else fits. The returned tag vector is aligned with the
    /// packed items so each message keeps its own causal chain through
    /// batching; it is empty when no item carries a trace (untraced
    /// traffic pays zero wire bytes).
    fn pack_batch(&mut self, first: (Bytes, TraceTag)) -> (Payload, Vec<TraceTag>) {
        self.broadcast_count += 1;
        let (first, first_tag) = first;
        let budget = self.cfg.batch_budget_bytes;
        // A batch costs 4 bytes (item count) plus 4 bytes per item.
        let mut batch_len = 4 + 4 + first.len();
        // How many of the messages queued behind `first` fit (none when
        // batching is off or `first` alone is over budget), and whether
        // any message of the batch is traced: both vectors are then
        // allocated once at their final size — untraced, the tags not
        // at all.
        let mut traced = !first_tag.is_none();
        let mut fitting = 0;
        for (next, tag) in &self.pending {
            if batch_len + 4 + next.len() > budget {
                break;
            }
            batch_len += 4 + next.len();
            traced |= !tag.is_none();
            fitting += 1;
        }
        let mut tags = Vec::with_capacity(if traced { 1 + fitting } else { 0 });
        if traced {
            tags.push(first_tag);
        }
        if fitting == 0 {
            return (Payload::App(first), tags);
        }
        let mut items = Vec::with_capacity(1 + fitting);
        items.push(first);
        for (data, tag) in self.pending.drain(..fitting) {
            items.push(data);
            if traced {
                tags.push(tag);
            }
        }
        self.broadcast_count += fitting as u64;
        self.batches += 1;
        self.batched_messages += items.len() as u64;
        self.frames_saved += items.len() as u64 - 1;
        (Payload::Batch(items), tags)
    }

    /// Stores a regular message and advances in-order (agreed) delivery.
    /// Batches unpack here, transparently: each item becomes its own
    /// [`Delivery::Message`] carrying the batch's ring position.
    fn store_and_deliver(&mut self, m: RegularMsg, actions: &mut Vec<Action>) {
        if !self.received.insert(m) {
            // Beyond the window: as good as lost, and asked for again
            // through the token like any other gap.
            self.store_refused += 1;
            return;
        }
        // New-ring traffic is buffered while old-ring recovery is still
        // owed; the phase cannot change inside the loop.
        let recovering = self.phase == Phase::Recover;
        while let Some(msg) = self.received.get(self.my_aru + 1) {
            self.my_aru += 1;
            let (ring, seq, sender) = (msg.ring, msg.seq, msg.sender);
            let mut deliver = |i: usize, data: &Bytes| {
                let (data, trace) = (data.clone(), msg.tag_at(i));
                if recovering {
                    self.deferred.push((ring, seq, sender, data, trace));
                } else {
                    self.delivered_count += 1;
                    actions.push(Action::Deliver(Delivery::Message {
                        ring,
                        seq,
                        sender,
                        data,
                        trace,
                    }));
                }
            };
            match &msg.payload {
                Payload::App(data) => deliver(0, data),
                Payload::Batch(items) => {
                    for (i, data) in items.iter().enumerate() {
                        deliver(i, data);
                    }
                }
                Payload::Recovered {
                    old_ring,
                    old_seq,
                    original_sender,
                    data,
                } => {
                    // Only meaningful while we are recovering that ring.
                    let rec = self.old_recovery.as_mut();
                    if let Some(rec) = rec.filter(|rec| recovering && rec.ring == *old_ring) {
                        rec.store.entry(*old_seq).or_insert_with(|| {
                            (*original_sender, (**data).clone(), msg.trace.clone())
                        });
                    }
                }
            }
        }
        self.try_finish_recovery(actions);
    }

    /// Sequences pending messages directly on a singleton ring.
    fn drain_singleton(&mut self, actions: &mut Vec<Action>) {
        debug_assert_eq!(self.members.len(), 1);
        while let Some((data, tag)) = self.pending.pop_front() {
            let seq = self.my_aru + 1;
            self.broadcast_count += 1;
            let msg = RegularMsg {
                ring: self.ring.expect("installed"),
                seq,
                sender: self.id,
                payload: Payload::App(data),
                trace: if tag.is_none() { vec![] } else { vec![tag] },
            };
            // No receivers to multicast to, but deliver locally in order.
            self.store_and_deliver(msg, actions);
            // No token collects on a ring of one, and what its only
            // member has delivered every member holds.
            self.safe_upto = self.my_aru;
            self.received.discard_through(self.safe_upto);
        }
    }
}

fn position_of(members: &[NodeId], m: NodeId) -> usize {
    members.iter().position(|&x| x == m).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TotemHarness;
    use eternal_sim::Duration;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn cfg() -> TotemConfig {
        TotemConfig::default()
    }

    fn deliveries(actions: &[Action]) -> Vec<&Delivery> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    fn multicasts(actions: &[Action]) -> Vec<&Frame> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Multicast(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_floods_join() {
        let mut node = TotemNode::new(n(0), cfg());
        let actions = node.start();
        let frames = multicasts(&actions);
        assert_eq!(frames.len(), 1);
        match frames[0] {
            Frame::Join(j) => {
                assert_eq!(j.sender, n(0));
                assert!(j.proc_set.contains(&n(0)));
                assert!(j.fail_set.is_empty());
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(node.phase(), Phase::Gather);
    }

    #[test]
    fn consensus_timeout_alone_forms_singleton_ring() {
        let mut node = TotemNode::new(n(0), cfg());
        node.start();
        let actions = node.handle_timer(Timer::ConsensusTimeout);
        // Singleton consensus: installs a ring and delivers a config change.
        assert_eq!(node.phase(), Phase::Operational);
        let dels = deliveries(&actions);
        assert!(matches!(
            dels.last(),
            Some(Delivery::ConfigChange { members, .. }) if members == &vec![n(0)]
        ));
    }

    #[test]
    fn singleton_ring_sequences_broadcasts_directly() {
        let mut node = TotemNode::new(n(0), cfg());
        node.start();
        node.handle_timer(Timer::ConsensusTimeout);
        let actions = node.broadcast(b"solo".to_vec());
        let dels = deliveries(&actions);
        assert!(matches!(
            dels[0],
            Delivery::Message { seq: 1, data, .. } if &data[..] == b"solo"
        ));
    }

    /// Drives two nodes through formation by exchanging their actions
    /// directly (no network model).
    fn form_pair() -> (TotemNode, TotemNode) {
        form_pair_with(cfg(), cfg())
    }

    fn form_pair_with(cfg_a: TotemConfig, cfg_b: TotemConfig) -> (TotemNode, TotemNode) {
        let mut a = TotemNode::new(n(0), cfg_a);
        let mut b = TotemNode::new(n(1), cfg_b);
        let mut queue: Vec<(NodeId, Frame)> = Vec::new();
        let push = |from: NodeId, actions: Vec<Action>, queue: &mut Vec<(NodeId, Frame)>| {
            for act in actions {
                if let Action::Multicast(f) = act {
                    queue.push((from, f));
                }
            }
        };
        let a_actions = a.start();
        push(n(0), a_actions, &mut queue);
        let b_actions = b.start();
        push(n(1), b_actions, &mut queue);
        // Exchange frames until both nodes are operational (the token
        // then circulates forever, so we stop there and drop the rest).
        let mut steps = 0;
        while let Some((from, frame)) = queue.pop() {
            steps += 1;
            assert!(steps < 1000, "formation did not converge");
            if from != n(0) {
                let acts = a.handle_frame(frame.clone());
                push(n(0), acts, &mut queue);
            }
            if from != n(1) {
                let acts = b.handle_frame(frame);
                push(n(1), acts, &mut queue);
            }
            if a.phase() == Phase::Operational && b.phase() == Phase::Operational {
                break;
            }
        }
        (a, b)
    }

    #[test]
    fn two_nodes_form_a_ring() {
        let (a, b) = form_pair();
        assert_eq!(a.phase(), Phase::Operational);
        assert_eq!(b.phase(), Phase::Operational);
        assert_eq!(a.ring(), b.ring());
        assert_eq!(a.members(), &[n(0), n(1)]);
        assert_eq!(a.config_changes(), 1);
        assert_eq!(b.config_changes(), 1);
    }

    #[test]
    fn older_ring_frames_from_members_ignored() {
        let (mut a, _) = form_pair();
        // A straggler from a pre-formation ring, sent by a current
        // member: must be dropped without disturbing the ring.
        let bogus = RegularMsg {
            ring: RingId { seq: 0, rep: n(1) },
            seq: 1,
            sender: n(1),
            payload: Payload::App(vec![1].into()),
            trace: vec![],
        };
        let actions = a.handle_frame(Frame::Regular(bogus));
        assert!(deliveries(&actions).is_empty());
        assert_eq!(
            a.phase(),
            Phase::Operational,
            "stale frame must not disturb"
        );
    }

    #[test]
    fn older_ring_frame_from_outsider_triggers_rejoin() {
        let (mut a, _) = form_pair();
        // An older ring operated by a processor outside our membership
        // is a live split (e.g. the far side of a healed partition).
        let foreign = RegularMsg {
            ring: RingId { seq: 0, rep: n(9) },
            seq: 1,
            sender: n(9),
            payload: Payload::App(vec![1].into()),
            trace: vec![],
        };
        let actions = a.handle_frame(Frame::Regular(foreign));
        assert!(deliveries(&actions).is_empty());
        assert_eq!(a.phase(), Phase::Gather);
    }

    #[test]
    fn newer_foreign_ring_frame_triggers_rejoin() {
        let (mut a, _) = form_pair();
        let foreign = RegularMsg {
            ring: RingId {
                seq: 999,
                rep: n(9),
            },
            seq: 1,
            sender: n(9),
            payload: Payload::App(vec![1].into()),
            trace: vec![],
        };
        let actions = a.handle_frame(Frame::Regular(foreign));
        assert!(deliveries(&actions).is_empty());
        assert_eq!(a.phase(), Phase::Gather, "newer foreign ring → regather");
    }

    #[test]
    fn duplicate_regular_message_not_redelivered() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        let msg = RegularMsg {
            ring,
            seq: 1,
            sender: n(1),
            payload: Payload::App(vec![7].into()),
            trace: vec![],
        };
        let first = a.handle_frame(Frame::Regular(msg.clone()));
        assert_eq!(deliveries(&first).len(), 1);
        let second = a.handle_frame(Frame::Regular(msg));
        assert!(deliveries(&second).is_empty());
    }

    #[test]
    fn out_of_order_messages_delivered_in_seq_order() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        let mk = |seq| RegularMsg {
            ring,
            seq,
            sender: n(1),
            payload: Payload::App(vec![seq as u8].into()),
            trace: vec![],
        };
        let acts2 = a.handle_frame(Frame::Regular(mk(2)));
        assert!(deliveries(&acts2).is_empty(), "gap must block delivery");
        let acts1 = a.handle_frame(Frame::Regular(mk(1)));
        let dels = deliveries(&acts1);
        assert_eq!(dels.len(), 2);
        assert!(matches!(dels[0], Delivery::Message { seq: 1, .. }));
        assert!(matches!(dels[1], Delivery::Message { seq: 2, .. }));
    }

    #[test]
    fn token_gap_requests_retransmission() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        // a missed seq 1; token says seq=1.
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 1,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        let actions = a.handle_frame(Frame::Token(token));
        let fwd = multicasts(&actions)
            .into_iter()
            .find_map(|f| match f {
                Frame::Token(t) => Some(t.clone()),
                _ => None,
            })
            .expect("token forwarded");
        assert!(fwd.rtr.contains(&1), "missing seq should be in rtr");
        assert_eq!(fwd.target, n(1));
        assert_eq!(fwd.token_seq, 101);
    }

    #[test]
    fn token_holder_serves_retransmission_requests() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        a.handle_frame(Frame::Regular(RegularMsg {
            ring,
            seq: 1,
            sender: n(1),
            payload: Payload::App(vec![42].into()),
            trace: vec![],
        }));
        let mut rtr = BTreeSet::new();
        rtr.insert(1);
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 1,
            rtr,
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        let actions = a.handle_frame(Frame::Token(token));
        let frames = multicasts(&actions);
        let retransmitted = frames.iter().any(
            |f| matches!(f, Frame::Regular(m) if m.seq == 1 && m.payload == Payload::App(vec![42].into())),
        );
        assert!(retransmitted);
        // And the forwarded token's rtr is now empty.
        let fwd = frames
            .iter()
            .find_map(|f| match f {
                Frame::Token(t) => Some(t),
                _ => None,
            })
            .expect("token forwarded");
        assert!(fwd.rtr.is_empty());
    }

    #[test]
    fn token_visit_broadcasts_pending_with_flow_control() {
        // Batching off: each pending message takes its own seq, so the
        // flow-control constant is visible as a frame count.
        let (mut a, _) = form_pair_with(
            TotemConfig {
                batch_budget_bytes: 0,
                ..cfg()
            },
            TotemConfig {
                batch_budget_bytes: 0,
                ..cfg()
            },
        );
        let ring = a.ring().unwrap();
        for i in 0..20u8 {
            a.broadcast(vec![i]);
        }
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        let actions = a.handle_frame(Frame::Token(token));
        let regulars: Vec<_> = multicasts(&actions)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Regular(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(regulars.len(), cfg().max_messages_per_token);
        assert_eq!(
            regulars.iter().map(|m| m.seq).collect::<Vec<_>>(),
            (1..=cfg().max_messages_per_token as u64).collect::<Vec<_>>()
        );
        assert_eq!(a.backlog(), 20 - cfg().max_messages_per_token);
        // Own messages delivered to self in order.
        assert_eq!(deliveries(&actions).len(), cfg().max_messages_per_token);
    }

    #[test]
    fn duplicate_token_ignored() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        a.broadcast(vec![1]);
        let first = a.handle_frame(Frame::Token(token.clone()));
        assert!(!multicasts(&first).is_empty());
        a.broadcast(vec![2]);
        let second = a.handle_frame(Frame::Token(token));
        // Duplicate token: no broadcast, no forward.
        assert!(multicasts(&second).is_empty());
    }

    #[test]
    fn token_retransmit_then_give_up_regathers() {
        let (mut a, _) = form_pair();
        a.broadcast(vec![1]);
        let ring = a.ring().unwrap();
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        a.handle_frame(Frame::Token(token));
        // Fire the retransmit timer repeatedly; eventually a re-gather.
        for _ in 0..10 {
            let acts = a.handle_timer(Timer::TokenRetransmit);
            assert!(acts
                .iter()
                .any(|x| matches!(x, Action::Multicast(Frame::Token(_)))));
            assert_eq!(a.phase(), Phase::Operational);
        }
        let acts = a.handle_timer(Timer::TokenRetransmit);
        assert_eq!(a.phase(), Phase::Gather);
        assert!(acts
            .iter()
            .any(|x| matches!(x, Action::Multicast(Frame::Join(_)))));
    }

    #[test]
    fn token_loss_triggers_gather() {
        let (mut a, _) = form_pair();
        let acts = a.handle_timer(Timer::TokenLoss);
        assert_eq!(a.phase(), Phase::Gather);
        assert!(acts
            .iter()
            .any(|x| matches!(x, Action::Multicast(Frame::Join(_)))));
    }

    #[test]
    fn foreign_join_while_operational_triggers_gather() {
        let (mut a, _) = form_pair();
        let join = JoinMsg {
            sender: n(5),
            proc_set: [n(5)].into_iter().collect(),
            fail_set: BTreeSet::new(),
            ring_seq_hint: 0,
        };
        a.handle_frame(Frame::Join(join));
        assert_eq!(a.phase(), Phase::Gather);
    }

    #[test]
    fn stale_member_join_ignored_when_operational() {
        let (mut a, _) = form_pair();
        let ring_seq = a.ring().unwrap().seq;
        let join = JoinMsg {
            sender: n(1),
            proc_set: [n(0), n(1)].into_iter().collect(),
            fail_set: BTreeSet::new(),
            ring_seq_hint: ring_seq - 1, // pre-formation flood straggler
        };
        a.handle_frame(Frame::Join(join));
        assert_eq!(a.phase(), Phase::Operational);
    }

    #[test]
    fn rotation_min_aru_garbage_collects() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        for seq in 1..=4 {
            a.handle_frame(Frame::Regular(RegularMsg {
                ring,
                seq,
                sender: n(1),
                payload: Payload::App(vec![seq as u8].into()),
                trace: vec![],
            }));
        }
        // Token claims the previous full rotation had min aru 3.
        let token = Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 4,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 3,
                last_rotation_min: 3,
            },
        };
        a.handle_frame(Frame::Token(token));
        // Messages 1..=3 were GC'd: a retransmission request for them
        // can no longer be served.
        let mut rtr = BTreeSet::new();
        rtr.insert(2);
        let token2 = Token {
            ring,
            target: n(0),
            token_seq: 102,
            seq: 4,
            rtr,
            aru: RotationAru {
                this_rotation_min: 3,
                last_rotation_min: 3,
            },
        };
        let acts = a.handle_frame(Frame::Token(token2));
        let served = multicasts(&acts)
            .iter()
            .any(|f| matches!(f, Frame::Regular(m) if m.seq == 2));
        assert!(!served, "GC'd message must not be retransmitted");
    }

    #[test]
    fn singleton_ring_collects_what_it_delivers() {
        let mut node = TotemNode::new(n(0), cfg());
        node.start();
        node.handle_timer(Timer::ConsensusTimeout);
        // More than the store's window spans, with no token to collect.
        let sent = crate::window::WINDOW_CAP + 10;
        for i in 0..sent {
            let actions = node.broadcast(i.to_be_bytes().to_vec());
            assert_eq!(deliveries(&actions).len(), 1, "message {i}");
        }
        assert_eq!((node.aru(), node.safe_upto()), (sent, sent));
        assert_eq!(node.stats().store_refused, 0);
        assert_eq!(node.received.keys().count(), 0);
    }

    /// A one-byte message from `n(1)`, the other member of a pair.
    fn regular(ring: RingId, seq: u64) -> Frame {
        Frame::Regular(RegularMsg {
            ring,
            seq,
            sender: n(1),
            payload: Payload::App(vec![seq as u8].into()),
            trace: vec![],
        })
    }

    /// A token for `n(0)` whose last two rotations both had minimum
    /// aru `min`.
    fn token(ring: RingId, token_seq: u64, seq: u64, min: u64) -> Frame {
        Frame::Token(Token {
            ring,
            target: n(0),
            token_seq,
            seq,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: min,
                last_rotation_min: min,
            },
        })
    }

    #[test]
    fn a_seq_beyond_the_window_is_refused_and_the_sender_holds_back_at_its_edge() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        let cap = crate::window::WINDOW_CAP;
        // One past the window: dropped like a lost frame, never held.
        a.handle_frame(regular(ring, cap + 1));
        assert_eq!(a.stats().store_refused, 1);
        assert_eq!(a.received.keys().count(), 0);
        // The whole window, with no rotation minimum to collect it by.
        for seq in 1..=cap {
            a.handle_frame(regular(ring, seq));
        }
        assert_eq!((a.aru(), a.stats().store_refused), (cap, 1));
        // Its own message would be seq cap + 1, which it could not hold
        // for retransmission: it waits ...
        a.broadcast(vec![7]);
        let acts = a.handle_frame(token(ring, 100, cap, 0));
        assert!(!multicasts(&acts)
            .iter()
            .any(|f| matches!(f, Frame::Regular(_))));
        assert_eq!(a.backlog(), 1);
        // ... for the visit after a rotation minimum moves the floor.
        a.handle_frame(token(ring, 102, cap, cap));
        assert_eq!((a.backlog(), a.safe_upto()), (1, cap));
        let acts = a.handle_frame(token(ring, 104, cap, cap));
        assert!(multicasts(&acts)
            .iter()
            .any(|f| matches!(f, Frame::Regular(m) if m.seq == cap + 1)));
        assert_eq!((a.backlog(), a.stats().store_refused), (0, 1));
    }

    #[test]
    fn a_token_from_no_member_neither_lowers_the_floor_nor_collects_the_undelivered() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        for seq in [1, 2, 3, 5] {
            a.handle_frame(regular(ring, seq));
        }
        // A rotation minimum above this node's aru (3): 5 stays held.
        a.handle_frame(token(ring, 100, 5, 9));
        assert_eq!((a.aru(), a.safe_upto()), (3, 3));
        assert_eq!(a.received.keys().collect::<Vec<_>>(), [5]);
        // A rotation minimum below the last one: the floor stays.
        a.handle_frame(token(ring, 102, 5, 1));
        assert_eq!(a.safe_upto(), 3);
        // Both keep `safe_upto` the store's floor, which a late copy of
        // a collected message then meets (debug builds assert it).
        let acts = a.handle_frame(regular(ring, 2));
        assert!(deliveries(&acts).is_empty());
        let acts = a.handle_frame(regular(ring, 4));
        assert_eq!(deliveries(&acts).len(), 2);
        assert_eq!(a.stats().store_refused, 0);
    }

    fn token_for(ring: RingId) -> Token {
        Token {
            ring,
            target: n(0),
            token_seq: 100,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        }
    }

    #[test]
    fn token_visit_batches_small_messages_into_one_frame() {
        let (mut a, _) = form_pair(); // default config: batching on
        let ring = a.ring().unwrap();
        for i in 0..20u8 {
            a.broadcast(vec![i]);
        }
        let actions = a.handle_frame(Frame::Token(token_for(ring)));
        let regulars: Vec<_> = multicasts(&actions)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Regular(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        // All 20 1-byte messages fit in one batch frame under one seq.
        assert_eq!(regulars.len(), 1);
        assert_eq!(regulars[0].seq, 1);
        match &regulars[0].payload {
            Payload::Batch(items) => {
                assert_eq!(items.len(), 20);
                assert_eq!(&items[0][..], [0]);
                assert_eq!(&items[19][..], [19]);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(a.backlog(), 0);
        // Delivery unpacks: 20 ordered messages, all at ring position 1.
        let dels = deliveries(&actions);
        assert_eq!(dels.len(), 20);
        for (i, d) in dels.iter().enumerate() {
            match d {
                Delivery::Message { seq: 1, data, .. } => assert_eq!(&data[..], [i as u8]),
                other => panic!("expected message, got {other:?}"),
            }
        }
        let stats = a.stats();
        assert_eq!(stats.broadcasts, 20);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_messages, 20);
        assert_eq!(stats.frames_saved, 19);
        // The forwarded token advanced by one seq only.
        let fwd = multicasts(&actions)
            .into_iter()
            .find_map(|f| match f {
                Frame::Token(t) => Some(t.clone()),
                _ => None,
            })
            .expect("token forwarded");
        assert_eq!(fwd.seq, 1);
    }

    #[test]
    fn batch_budget_flushes_into_multiple_frames() {
        // Budget 40: two 10-byte items cost 4 + 2*(4+10) = 32 ≤ 40, a
        // third would cost 46 — so batches of exactly two.
        let cfg_small = TotemConfig {
            batch_budget_bytes: 40,
            ..cfg()
        };
        let (mut a, _) = form_pair_with(cfg_small, cfg());
        let ring = a.ring().unwrap();
        for i in 0..6u8 {
            a.broadcast(vec![i; 10]);
        }
        let actions = a.handle_frame(Frame::Token(token_for(ring)));
        let regulars: Vec<_> = multicasts(&actions)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Regular(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(regulars.len(), 3);
        for (i, m) in regulars.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1);
            match &m.payload {
                Payload::Batch(items) => assert_eq!(items.len(), 2),
                other => panic!("expected batch, got {other:?}"),
            }
        }
        assert_eq!(deliveries(&actions).len(), 6);
        assert_eq!(a.stats().frames_saved, 3);
    }

    #[test]
    fn oversized_message_bypasses_batching() {
        let cfg_small = TotemConfig {
            batch_budget_bytes: 40,
            ..cfg()
        };
        let (mut a, _) = form_pair_with(cfg_small, cfg());
        let ring = a.ring().unwrap();
        a.broadcast(vec![7; 100]); // alone exceeds the budget
        a.broadcast(vec![8; 10]);
        let actions = a.handle_frame(Frame::Token(token_for(ring)));
        let regulars: Vec<_> = multicasts(&actions)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Regular(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(regulars.len(), 2);
        assert!(matches!(&regulars[0].payload, Payload::App(d) if d.len() == 100));
        assert!(matches!(&regulars[1].payload, Payload::App(d) if d.len() == 10));
        assert_eq!(a.stats().batches, 0);
    }

    #[test]
    fn zero_budget_disables_batching() {
        let cfg_off = TotemConfig {
            batch_budget_bytes: 0,
            ..cfg()
        };
        let (mut a, _) = form_pair_with(cfg_off, cfg());
        let ring = a.ring().unwrap();
        for i in 0..4u8 {
            a.broadcast(vec![i]);
        }
        let actions = a.handle_frame(Frame::Token(token_for(ring)));
        let regulars: Vec<_> = multicasts(&actions)
            .into_iter()
            .filter_map(|f| match f {
                Frame::Regular(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(regulars.len(), 4);
        assert!(regulars
            .iter()
            .all(|m| matches!(&m.payload, Payload::App(_))));
        assert_eq!(a.stats().frames_saved, 0);
    }

    #[test]
    fn received_batch_unpacks_in_order() {
        let (mut a, _) = form_pair();
        let ring = a.ring().unwrap();
        let batch = RegularMsg {
            ring,
            seq: 1,
            sender: n(1),
            payload: Payload::Batch(vec![vec![10].into(), vec![11].into(), vec![12].into()]),
            trace: vec![],
        };
        let actions = a.handle_frame(Frame::Regular(batch));
        let dels = deliveries(&actions);
        assert_eq!(dels.len(), 3);
        for (i, d) in dels.iter().enumerate() {
            assert!(matches!(d, Delivery::Message { seq: 1, sender, data, .. }
                    if *sender == n(1) && data[..] == [10 + i as u8]));
        }
        assert_eq!(a.aru(), 1, "a batch occupies exactly one seq");
    }

    /// Every delivery of `originals` at `id` must be a view into the
    /// very buffer that was handed to `broadcast`.
    fn assert_deliveries_share(h: &TotemHarness, id: NodeId, originals: &[Bytes]) {
        let delivered: Vec<&Bytes> = h
            .deliveries(id)
            .iter()
            .filter_map(|d| match d {
                Delivery::Message { data, .. } => Some(data),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), originals.len(), "all delivered at {id}");
        for data in delivered {
            let original = originals
                .iter()
                .find(|o| *o == data)
                .expect("delivered bytes were broadcast");
            assert!(
                Bytes::ptr_eq(original, data),
                "payload copied on its way to {id}"
            );
        }
    }

    #[test]
    fn a_payload_is_one_allocation_at_every_member() {
        let mut h = TotemHarness::new(4, cfg(), 11);
        h.run_until_formed();
        // Small items travel inside a `Payload::Batch`, the large one
        // alone as a `Payload::App`.
        let originals: Vec<Bytes> = [10usize, 20, 30, 2000]
            .iter()
            .enumerate()
            .map(|(i, &len)| Bytes::from(vec![i as u8; len]))
            .collect();
        for data in &originals {
            h.broadcast(n(1), data.clone());
        }
        h.run_for(Duration::from_millis(100));
        assert!(h.node(n(1)).stats().batches > 0);
        for id in h.nodes() {
            assert_deliveries_share(&h, id, &originals);
        }
    }

    #[test]
    fn retransmitted_and_recovered_payloads_are_still_one_allocation() {
        let mut h = TotemHarness::new(4, cfg(), 3);
        h.run_until_formed();
        h.net_mut().set_loss_probability(0.25);
        let originals: Vec<Bytes> = (0..60u32)
            .map(|i| Bytes::from(i.to_be_bytes().repeat(1 + (i as usize % 7) * 60)))
            .collect();
        for (i, data) in originals.iter().enumerate() {
            h.broadcast(n(i as u32 % 3), data.clone());
        }
        // Crash a member mid-stream; the survivors (the three senders)
        // reform and must first re-broadcast the old-ring messages some
        // of them lack, wrapped as `Payload::Recovered`.
        h.run_for(Duration::from_millis(3));
        h.kill(n(3));
        let mut saw_rebroadcast_duty = false;
        let deadline = h.now() + Duration::from_secs(5);
        while h.now() < deadline && h.step() {
            saw_rebroadcast_duty |= h.nodes().into_iter().any(|id| {
                h.node(id)
                    .old_recovery
                    .as_ref()
                    .is_some_and(|rec| !rec.to_rebroadcast.is_empty())
            });
        }
        assert!(h.formed());
        let survivors = [n(0), n(1), n(2)];
        assert!(
            survivors
                .iter()
                .any(|&id| h.node(id).stats().retransmits_served > 0),
            "the seed must exercise rtr retransmission"
        );
        assert!(
            saw_rebroadcast_duty,
            "the seed must exercise recovery re-broadcast"
        );
        for id in survivors {
            assert_deliveries_share(&h, id, &originals);
        }
    }
}
