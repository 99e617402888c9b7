//! The **Recovery Mechanisms** of one processor (paper §3.3, §4, §5.1;
//! docs/RECOVERY.md): the state transfer — retrieval (the mark) →
//! chunk stream → suffix → reinstatement — checkpoints and the log
//! positions they cover, capture and application of the three kinds of
//! state, promotion, and donor takeover. [`Transfers`] owns what a
//! processor remembers *about transfers*, as plain data tested below
//! without an ORB; the `impl Mechanisms` block is the protocol.

use super::registry::{GroupKind, LocalReplica};
use super::{Delivery, Mechanisms, Out, ReplicaPhase};
use crate::causal::transfer_trace_id;
use crate::gid::{Direction, GroupId, TransferId};
use crate::message::{EternalMessage, OrderedInput, RetrievalPurpose};
use crate::properties::ReplicationStyle;
use crate::recovery::holding::HeldEntry;
use crate::recovery::state3::{
    InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall, ThreeKindsOfState,
};
use crate::recovery::CheckpointLog;
use eternal_cdr::Any;
use eternal_obs::causal::Hop;
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Modeled cost of launching a cold-passive replica and loading the
/// checkpoint into it at promotion time (§3.3: "launch the new primary
/// replica before providing it with the primary's last checkpoint").
const COLD_LOAD_TIME: Duration = Duration::from_millis(2);

/// Passive-group suffix bound in bytes, beside the configurable bound
/// in entries ([`super::MechConfig::suffix_checkpoint_len`]).
const SUFFIX_CHECKPOINT_BYTES: usize = 4 << 20;

/// Chunks the streaming donor keeps in flight, self-clocked by
/// total-order delivery: chunk `k`'s delivery releases chunk
/// `k + CHUNK_PIPELINE`.
pub(super) const CHUNK_PIPELINE: usize = 4;

/// Completed transfers remembered for duplicate suppression. The
/// duplicates are a takeover race's second `StateSuffix`, a few
/// messages behind the first; hundreds of other transfers never
/// complete in between.
pub(super) const SEEN_TRANSFERS_WINDOW: usize = 256;

/// Whether a passive group's log suffix has reached the bound at which
/// its primary fabricates an extra checkpoint (`len_bound` entries, 0
/// disabling that half, or [`SUFFIX_CHECKPOINT_BYTES`]).
pub(super) fn suffix_bound_reached(log: &CheckpointLog, len_bound: usize) -> bool {
    (len_bound > 0 && log.suffix_len() >= len_bound)
        || log.suffix_bytes() >= SUFFIX_CHECKPOINT_BYTES
}

/// One retained side of an in-flight state transfer
/// (docs/RECOVERY.md). Every host that captured the checkpoint at the
/// mark keeps one — not just the streaming donor — so any of them can
/// take the stream over from the shared cursor after a donor fault,
/// without restarting from byte zero.
#[derive(Debug)]
struct DonorTransfer {
    group: GroupId,
    /// The recovering replica's host.
    new_host: NodeId,
    /// Host currently streaming; re-elected deterministically when it
    /// faults (every retaining host updates this at the same
    /// total-order point).
    donor: NodeId,
    /// The full encoded [`ThreeKindsOfState`] captured at the mark.
    bytes: Vec<u8>,
    /// Chunk count of `bytes` at the configured chunk size.
    total: u32,
    /// Highest contiguously *delivered* chunk index (`None` before
    /// chunk 0). Delivery is totally ordered, so the cursor is
    /// identical on every retaining host — the resume point after a
    /// takeover.
    cursor: Option<u32>,
    /// Ordered group inputs delivered after the mark: the recovering
    /// replica drops its traffic until the last chunk, and this log is
    /// the only copy of what it missed.
    suffix: Vec<OrderedInput>,
    /// Whether the suffix window is still open (closes at the last
    /// chunk's delivery, the same total-order point on every host).
    logging: bool,
}

/// Recipient-side reassembly of a state transfer.
#[derive(Debug)]
pub(super) struct InboundTransfer {
    transfer: TransferId,
    buf: Vec<u8>,
    /// Next in-order chunk index expected (duplicates and out-of-order
    /// repeats from takeover races are ignored).
    next_index: u32,
}

/// What a delivered chunk did to its retained context here.
#[derive(Debug, PartialEq, Eq)]
enum ChunkStep {
    /// No context of that transfer is retained on this processor.
    Unretained,
    /// Not the next chunk in order: a duplicate or an out-of-order
    /// repeat, ignored.
    Duplicate,
    /// The cursor advanced; `streaming` tells whether this processor is
    /// the stream's donor and so owes its next step.
    Advanced { streaming: bool },
}

/// What the host that takes a stream over must send.
#[derive(Debug, PartialEq, Eq)]
enum Resume {
    /// The pipeline window after the shared cursor.
    Chunks(Range<u32>),
    /// Every chunk already landed; only the dead donor's closing suffix
    /// was lost.
    Suffix,
}

/// Everything one processor knows about state transfers. Every method
/// is a function of the totally ordered deliveries it is fed, so the
/// tables agree on all processors that saw the same prefix.
#[derive(Debug)]
pub(super) struct Transfers {
    /// The processor these tables live on.
    node: NodeId,
    /// Restart count of this processor, stamped into every fabricated
    /// [`TransferId`]. A mechanism instance rebuilt after a crash starts
    /// its sequence counter at zero again; without the incarnation,
    /// re-fabricated ids would collide with pre-crash ones still in
    /// survivors' `seen_transfers` tables, and those survivors would
    /// silently discard the new transfer's `set_state` as a duplicate.
    incarnation: u64,
    next_transfer_seq: u64,
    /// The last [`SEEN_TRANSFERS_WINDOW`] completed transfers, oldest
    /// first: a second assignment or suffix of one of them is dropped.
    seen_transfers: VecDeque<TransferId>,
    /// Log position of each in-flight checkpoint capture, per group in
    /// retrieval order: messages logged after the `get_state` point
    /// must survive the checkpoint's garbage collection (their effects
    /// are not in the captured state). A recorded checkpoint retires
    /// its group's older marks with its own — their primary died
    /// before answering.
    checkpoint_marks: BTreeMap<GroupId, VecDeque<(TransferId, u64)>>,
    /// Retained contexts of in-flight transfers this processor
    /// captured state for (BTreeMap: fault handling iterates it, and
    /// the multicasts it emits must come out in deterministic order).
    donor_transfers: BTreeMap<TransferId, DonorTransfer>,
    /// Passive groups whose primary (this processor) has a suffix-bound
    /// checkpoint retrieval in flight — one at a time per group.
    suffix_trigger_pending: BTreeSet<GroupId>,
}

impl Transfers {
    pub(super) fn new(node: NodeId) -> Self {
        Transfers {
            node,
            incarnation: 0,
            next_transfer_seq: 0,
            seen_transfers: VecDeque::new(),
            checkpoint_marks: BTreeMap::new(),
            donor_transfers: BTreeMap::new(),
            suffix_trigger_pending: BTreeSet::new(),
        }
    }

    pub(super) fn set_incarnation(&mut self, incarnation: u32) {
        self.incarnation = u64::from(incarnation);
    }

    /// A cluster-unique transfer id: processor in the top 16 bits, the
    /// processor's restart incarnation in the next 16, then a local
    /// sequence number.
    fn fresh_id(&mut self) -> TransferId {
        let id = TransferId(
            ((u64::from(self.node.0) & 0xffff) << 48)
                | ((self.incarnation & 0xffff) << 32)
                | (self.next_transfer_seq & 0xffff_ffff),
        );
        self.next_transfer_seq += 1;
        id
    }

    /// Retains `bytes`, the state captured at a recovery's mark, to be
    /// streamed by `donor` in chunks of `chunk_bytes`, and opens the
    /// transfer's suffix window.
    fn retain(
        &mut self,
        transfer: TransferId,
        group: GroupId,
        new_host: NodeId,
        donor: NodeId,
        bytes: Vec<u8>,
        chunk_bytes: usize,
    ) {
        let dt = DonorTransfer {
            group,
            new_host,
            donor,
            total: bytes.len().div_ceil(chunk_bytes).max(1) as u32,
            bytes,
            cursor: None,
            suffix: Vec::new(),
            logging: true,
        };
        self.donor_transfers.insert(transfer, dt);
    }

    /// Logs one ordered input of `group` into every suffix window open
    /// on it: the recovering replica drops its traffic until the last
    /// chunk arrives, and the transfer suffix is its only copy. The
    /// record is made per window, so none is made when none is open.
    pub(super) fn log_input(&mut self, group: GroupId, input: impl Fn() -> OrderedInput) {
        for dt in self.donor_transfers.values_mut() {
            if dt.group == group && dt.logging {
                dt.suffix.push(input());
            }
        }
    }

    /// One totally ordered chunk of `transfer`: the next one in order
    /// advances the shared cursor — and, being the `last`, closes the
    /// suffix window; any other is a duplicate.
    fn chunk_delivered(&mut self, transfer: TransferId, index: u32, last: bool) -> ChunkStep {
        let Some(dt) = self.donor_transfers.get_mut(&transfer) else {
            return ChunkStep::Unretained;
        };
        if index != dt.cursor.map_or(0, |c| c + 1) {
            return ChunkStep::Duplicate;
        }
        dt.cursor = Some(index);
        dt.logging = !last;
        ChunkStep::Advanced {
            streaming: dt.donor == self.node,
        }
    }

    /// The fault of `host`'s replica of `group`, at its total-order
    /// point: a dead recipient aborts its transfers (the resource
    /// manager will relaunch and start a fresh one); a dead streaming
    /// donor is replaced by whom `elect` names for the recipient — the
    /// original election rule against the already-updated view,
    /// identical on every retaining host — or, with no retaining host
    /// left, the transfer dies with its donors (total group loss is the
    /// log's job, §3.3). Returns what this processor must send where it
    /// is the successor. A suffix-bound checkpoint the dead host may
    /// have owed the group can no longer be assumed in flight either;
    /// the trigger re-arms at the (possibly new) primary.
    fn host_faulted(
        &mut self,
        group: GroupId,
        host: NodeId,
        elect: impl Fn(NodeId) -> Option<NodeId>,
    ) -> Vec<(TransferId, Resume)> {
        self.suffix_trigger_pending.remove(&group);
        let mut takeovers = Vec::new();
        self.donor_transfers.retain(|&transfer, dt| {
            if dt.group != group {
                return true;
            }
            if dt.new_host == host {
                return false;
            }
            if dt.donor != host {
                return true;
            }
            let Some(successor) = elect(dt.new_host) else {
                return false;
            };
            dt.donor = successor;
            if successor == self.node {
                let resume = match dt.cursor {
                    Some(c) if c + 1 == dt.total => Resume::Suffix,
                    cursor => {
                        let first = cursor.map_or(0, |c| c + 1);
                        Resume::Chunks(first..first + CHUNK_PIPELINE as u32)
                    }
                };
                takeovers.push((transfer, resume));
            }
            true
        });
        takeovers
    }

    /// Drops every context retained for `group` (its local replica
    /// died: a dead donor cannot stream, and a dead recipient's
    /// transfer is void).
    pub(super) fn drop_group(&mut self, group: GroupId) {
        self.donor_transfers.retain(|_, dt| dt.group != group);
    }

    /// Whether this is the first completion (assignment or suffix) of
    /// `transfer` seen here; later ones are duplicates — one assignment
    /// per capturing replica, or both suffixes of a takeover race. The
    /// transfer is over either way: its retained context is released.
    fn first_completion(&mut self, transfer: TransferId) -> bool {
        self.donor_transfers.remove(&transfer);
        if self.seen_transfers.contains(&transfer) {
            return false;
        }
        if self.seen_transfers.len() == SEEN_TRANSFERS_WINDOW {
            self.seen_transfers.pop_front();
        }
        self.seen_transfers.push_back(transfer);
        true
    }

    /// Records the log position `mark` of `group`'s checkpoint capture
    /// under `transfer`.
    fn mark_checkpoint(&mut self, group: GroupId, transfer: TransferId, mark: u64) {
        self.checkpoint_marks
            .entry(group)
            .or_default()
            .push_back((transfer, mark));
    }

    /// `group`'s checkpoint `transfer` landed: re-arms the suffix-bound
    /// trigger and spends the capture's log mark, if one was recorded
    /// here — together with the group's earlier ones, which belong to
    /// retrievals nobody will answer now.
    fn checkpoint_landed(&mut self, group: GroupId, transfer: TransferId) -> Option<u64> {
        self.suffix_trigger_pending.remove(&group);
        let marks = self.checkpoint_marks.get_mut(&group)?;
        let at = marks.iter().position(|&(t, _)| t == transfer)?;
        marks.drain(..=at).next_back().map(|(_, mark)| mark)
    }

    /// Claims `group`'s one suffix-bound checkpoint in flight; `false`
    /// if one already is.
    pub(super) fn arm_suffix_trigger(&mut self, group: GroupId) -> bool {
        self.suffix_trigger_pending.insert(group)
    }
}

impl Mechanisms {
    /// The application-level state bytes of the locally hosted replica
    /// of `group`, exactly as a state transfer would capture them —
    /// the convergence invariant compares these across replicas.
    /// `None` when no replica is hosted here or it is not operational.
    pub fn probe_application_state(&mut self, group: GroupId) -> Option<Vec<u8>> {
        if self.replica_phase(group) != Some(ReplicaPhase::Operational) {
            return None;
        }
        let is_server = matches!(self.groups.get(&group)?.meta.kind, GroupKind::Server(_));
        if is_server {
            self.orb
                .dispatch_control(&Self::group_key(group), "get_state", &[])
                .ok()
        } else {
            self.operational_client(group)?.get_state().to_bytes().ok()
        }
    }

    /// Entries in the two per-transfer tables: completed transfers
    /// remembered for duplicate suppression (a fixed window) and
    /// checkpoint marks waiting for their assignment (a recorded
    /// checkpoint retires its group's older ones). The memory invariant
    /// watches both.
    pub fn transfer_tables_resident(&self) -> (usize, usize) {
        let marks = self
            .transfers
            .checkpoint_marks
            .values()
            .map(VecDeque::len)
            .sum();
        (self.transfers.seen_transfers.len(), marks)
    }

    /// In-flight transfers retained on this processor.
    pub fn active_transfers(&self) -> usize {
        self.transfers.donor_transfers.len()
    }

    /// Chunks not yet delivered across this processor's retained
    /// transfer contexts (the transfer-progress gauge).
    pub fn transfer_chunks_pending(&self) -> usize {
        self.transfers
            .donor_transfers
            .values()
            .map(|dt| dt.total as usize - dt.cursor.map_or(0, |c| c as usize + 1))
            .sum()
    }

    /// The host currently streaming `group`'s in-flight chunked
    /// transfer, from this processor's view (fault injection aims
    /// donor kills with this).
    pub fn transfer_donor(&self, group: GroupId) -> Option<NodeId> {
        self.transfers
            .donor_transfers
            .values()
            .find(|dt| dt.group == group)
            .map(|dt| dt.donor)
    }

    /// A replica of `group` launched on `host` announced itself: the
    /// elected donor answers with the retrieval that marks its transfer.
    pub(super) fn on_joining(&mut self, group: GroupId, host: NodeId, outs: &mut Vec<Out>) {
        let elected = self
            .groups
            .get(&group)
            .is_some_and(|lg| lg.donor_for(host) == Some(self.node));
        if elected {
            outs.push(self.retrieval(group, RetrievalPurpose::Recovery { new_host: host }));
        }
    }

    /// Fabricates a `get_state` under a fresh transfer id.
    pub(super) fn retrieval(&mut self, group: GroupId, purpose: RetrievalPurpose) -> Out {
        let transfer = self.transfers.fresh_id();
        Out::chatter(EternalMessage::StateRetrieval {
            group,
            transfer,
            purpose,
        })
    }

    /// Fabricates the periodic checkpoint `get_state` if this processor
    /// currently hosts the primary (driver calls this on checkpoint
    /// ticks).
    pub fn checkpoint_due(&mut self, group: GroupId) -> Vec<Out> {
        let Some(lg) = self.groups.get(&group) else {
            return Vec::new();
        };
        if !lg.meta.props.style.logs_checkpoints() || lg.primary_host() != Some(self.node) {
            return Vec::new();
        }
        vec![self.retrieval(group, RetrievalPurpose::Checkpoint)]
    }

    /// A totally ordered `get_state` (§5.1 steps ii–iii): the mark of a
    /// recovery's transfer, or of a checkpoint.
    pub(super) fn on_retrieval(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        purpose: RetrievalPurpose,
        d: &mut Delivery,
    ) {
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        // Existing replicas with current state perform get_state — at
        // quiescence (§5): if the object is settling a oneway, the
        // capture waits out the remaining window (state effects applied
        // at dispatch in this model, so the capture content is already
        // consistent; only its timing shifts).
        let listed = lg.operational_hosts.contains(&self.node);
        let serving = lg
            .replica
            .as_mut()
            .filter(|r| listed && r.phase == ReplicaPhase::Operational);
        if let Some(replica) = serving {
            let wait = replica.quiescence_wait(d.now);
            let state = self.capture_three_kinds(group);
            // §5.1 step iii at the donor: the fabricated get_state.
            // The assignment it produces extends the transfer's chain.
            let get_state = d.ctx.stamp(
                d.now,
                Hop::GetState,
                format_args!("{group} {transfer} {}B", state.application.len()),
            );
            d.outs.push(Out::StateCaptured {
                group,
                transfer,
                purpose,
                quiesce_wait: wait,
                capture_time: self.config.exec_time,
                app_state_bytes: state.application.len(),
            });
            match purpose {
                RetrievalPurpose::Recovery { new_host } => {
                    // Every capturing host retains the encoded state
                    // and opens the suffix window; the elected donor
                    // streams it while the group keeps serving
                    // (docs/RECOVERY.md).
                    let donor = self.groups[&group]
                        .donor_for(new_host)
                        .expect("a capturing host exists");
                    let (bytes, size) = (state.to_bytes(), self.config.chunk_bytes);
                    self.transfers
                        .retain(transfer, group, new_host, donor, bytes, size);
                    if donor == self.node {
                        let delay = self.config.exec_time + wait;
                        let window = 0..CHUNK_PIPELINE as u32;
                        self.send_chunks(transfer, window, delay, get_state, d);
                    }
                }
                RetrievalPurpose::Checkpoint => d.outs.push(Out::Multicast {
                    delay: self.config.exec_time + wait,
                    message: EternalMessage::StateAssignment {
                        transfer,
                        purpose,
                        state: Box::new(state),
                    },
                    trace: d.ctx.tag(d.ctx.trace_id(), get_state),
                }),
            }
        }
        match purpose {
            // Every logging host records the log position of the
            // capture point, so the eventual assignment garbage-collects
            // exactly the messages the checkpoint covers.
            RetrievalPurpose::Checkpoint => {
                if let Some(lg) = self.groups.get(&group) {
                    if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node)
                    {
                        self.transfers
                            .mark_checkpoint(group, transfer, lg.log.mark());
                    }
                }
            }
            // Bind the recovering replica to THIS transfer: chunks of
            // any other (a stream abandoned by a crash-and-relaunch) are
            // stale and must not become its sync point. It keeps
            // dropping traffic while the stream is in flight — the
            // retaining hosts' suffix log covers that window — and its
            // §5.1 sync point is the *last chunk's* delivery, so the
            // blocking window is O(suffix), not O(state).
            RetrievalPurpose::Recovery { new_host } => {
                if let Some(replica) = self.awaiting_sync(group, new_host) {
                    replica.inbound = Some(InboundTransfer {
                        transfer,
                        buf: Vec::new(),
                        next_index: 0,
                    });
                }
            }
        }
    }

    /// Streams the chunks in `range` (as far as the state goes) of a
    /// retained transfer, each leaving after `delay` on the transfer's
    /// chain under `parent`.
    fn send_chunks(
        &mut self,
        transfer: TransferId,
        range: Range<u32>,
        delay: Duration,
        parent: u64,
        d: &mut Delivery,
    ) {
        let dt = &self.transfers.donor_transfers[&transfer];
        let size = self.config.chunk_bytes;
        for index in range.start..range.end.min(dt.total) {
            let start = index as usize * size;
            let end = (start + size).min(dt.bytes.len());
            let span = d.ctx.stamp_new(
                d.now,
                transfer_trace_id(transfer),
                parent,
                Hop::StateChunk,
                format_args!("send {}/{} {}B", index + 1, dt.total, end - start),
            );
            self.counters.chunks_streamed += 1;
            d.outs.push(Out::Multicast {
                delay,
                message: EternalMessage::StateChunk {
                    group: dt.group,
                    transfer,
                    new_host: dt.new_host,
                    index,
                    total: dt.total,
                    bytes: dt.bytes[start..end].to_vec(),
                },
                trace: d.ctx.tag(transfer_trace_id(transfer), span),
            });
        }
    }

    /// One totally ordered state chunk. Three things happen here, at
    /// the same total-order point on every processor:
    ///
    /// * every retaining host advances the shared cursor (making a
    ///   takeover resume exactly where the stream left off),
    /// * the streaming donor releases the next pipelined chunk — or,
    ///   on the last chunk, closes the suffix window and ships the
    ///   suffix after the quiescence wait,
    /// * the recovering replica appends the payload and, on the last
    ///   chunk, flips to enqueueing (its deferred §5.1 sync point).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_state_chunk(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        new_host: NodeId,
        index: u32,
        total: u32,
        bytes: &[u8],
        d: &mut Delivery,
    ) {
        // Off the wire: an index of `u32::MAX` must not overflow.
        let last = u64::from(index) + 1 == u64::from(total);
        let step = self.transfers.chunk_delivered(transfer, index, last);
        if step == ChunkStep::Duplicate {
            self.counters.chunk_duplicates += 1;
        }
        let streaming = step == ChunkStep::Advanced { streaming: true };
        if streaming && last {
            self.send_suffix(transfer, d);
        } else if streaming {
            // Self-clocking: this delivery releases one more chunk.
            let next = index + CHUNK_PIPELINE as u32;
            let parent = d.ctx.parent();
            self.send_chunks(transfer, next..next + 1, self.config.exec_time, parent, d);
        }
        // ---- the recovering replica assembles the stream it is bound to.
        let Some(replica) = self.awaiting_sync(group, new_host) else {
            return;
        };
        let Some(inbound) = replica
            .inbound
            .as_mut()
            .filter(|it| it.transfer == transfer)
        else {
            return;
        };
        if index != inbound.next_index {
            self.counters.chunk_duplicates += 1;
            return;
        }
        inbound.buf.extend_from_slice(bytes);
        inbound.next_index += 1;
        d.ctx.stamp(
            d.now,
            Hop::StateChunk,
            format_args!("recv {}/{} {}B", index + 1, total, bytes.len()),
        );
        if last {
            // §5.1 step i, deferred: the last chunk is the recovering
            // replica's synchronization point — the very position where
            // the retaining hosts closed their suffix windows. From
            // here traffic is held, not dropped; the blocking window
            // starts now.
            replica.phase = ReplicaPhase::Enqueueing;
            replica.holding.mark_sync_point(transfer);
        }
    }

    /// The local replica of `group`, if it is the one recovering on
    /// `new_host` and still ahead of its synchronization point: the
    /// only replica a retrieval binds and a chunk feeds.
    fn awaiting_sync(&mut self, group: GroupId, new_host: NodeId) -> Option<&mut LocalReplica> {
        let here = new_host == self.node;
        self.replica_mut(group)
            .filter(|r| here && r.phase == ReplicaPhase::AwaitingSync)
    }

    /// The donor's closing step: the last chunk is through, every
    /// retaining host has closed its suffix window, and the recipient
    /// is enqueueing. Ship the suffix after the modeled execution delay
    /// — waiting out any oneway settling window first (§5), the only
    /// quiescence the chunked protocol ever needs.
    fn send_suffix(&mut self, transfer: TransferId, d: &mut Delivery) {
        let Some(dt) = self.transfers.donor_transfers.get(&transfer) else {
            return;
        };
        let group = dt.group;
        let new_host = dt.new_host;
        let entries = dt.suffix.clone();
        let Some(replica) = self.replica_mut(group) else {
            return;
        };
        let wait = replica.quiescence_wait(d.now);
        let span = d.ctx.stamp_new(
            d.now,
            transfer_trace_id(transfer),
            d.ctx.parent(),
            Hop::StateChunk,
            format_args!("suffix {} entries", entries.len()),
        );
        d.outs.push(Out::Multicast {
            delay: self.config.exec_time + wait,
            message: EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                entries,
            },
            trace: d.ctx.tag(transfer_trace_id(transfer), span),
        });
    }

    /// The closing suffix of a transfer: the recovering replica applies
    /// the reassembled state, replays the suffix, and drains its
    /// holding queue; everyone else updates the consistent view and
    /// releases the retained context.
    pub(super) fn on_state_suffix(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        new_host: NodeId,
        entries: Vec<OrderedInput>,
        d: &mut Delivery,
    ) {
        // The transfer is over: the retained context is released even
        // on the duplicate deliveries a takeover race can produce.
        if !self.transfers.first_completion(transfer) {
            return;
        }
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        // Every processor updates its consistent view at this
        // total-order point: an active group's recovered replica serves
        // state; a passive group's becomes a standby backup (the
        // primary is unchanged).
        if lg.meta.props.style == ReplicationStyle::Active {
            lg.operational_hosts.insert(new_host);
        } else {
            lg.standby_hosts.insert(new_host);
        }
        if new_host == self.node {
            self.complete_recovery(group, transfer, entries, d);
        }
    }

    /// Captures the three kinds of state of the locally hosted,
    /// operational replica of `group` (§4, §5.1 step iii).
    pub(super) fn capture_three_kinds(&mut self, group: GroupId) -> ThreeKindsOfState {
        // Application-level state, via the Checkpointable interface.
        let application = self
            .probe_application_state(group)
            .expect("operational replica has state");
        // ORB/POA-level state: learned by observation, not ORB hooks.
        let orb_poa = if self.config.transfer_orb_state {
            OrbPoaStateTransfer {
                next_request_ids: self.observer.next_request_ids(|c| c.client == group),
                handshakes: self.observer.handshakes(|c| c.server == group),
            }
        } else {
            OrbPoaStateTransfer::default()
        };
        // Infrastructure-level state.
        let infrastructure = if self.config.transfer_infra_state {
            let lg = self.groups.get(&group).expect("caller verified");
            InfraStateTransfer {
                outstanding: lg.outstanding.values().cloned().collect(),
                dedup_horizons: self
                    .dedup
                    .horizons()
                    .into_iter()
                    .filter(|(c, _, _)| c.client == group || c.server == group)
                    .collect(),
                op_counters: self
                    .interceptor
                    .op_counters()
                    .into_iter()
                    .filter(|(c, _)| c.client == group)
                    .collect(),
            }
        } else {
            InfraStateTransfer::default()
        };
        ThreeKindsOfState {
            group,
            application,
            orb_poa,
            infrastructure,
        }
    }

    /// A checkpoint's `set_state()` (§3.3): every host of the group
    /// logs it, garbage-collecting the messages it covers, and a warm
    /// backup applies it. A recovery's state never arrives this way.
    pub(super) fn on_assignment(
        &mut self,
        transfer: TransferId,
        purpose: RetrievalPurpose,
        state: ThreeKindsOfState,
        now: SimTime,
    ) {
        if purpose != RetrievalPurpose::Checkpoint || !self.transfers.first_completion(transfer) {
            return;
        }
        let group = state.group;
        let Some(lg) = self.groups.get_mut(&group) else {
            return;
        };
        let mark = self.transfers.checkpoint_landed(group, transfer);
        if lg.meta.props.style.logs_checkpoints() && lg.meta.hosts.contains(&self.node) {
            let mark = mark.unwrap_or_else(|| lg.log.mark());
            lg.log
                .record_checkpoint_at_mark(state.to_bytes(), now, mark);
            self.counters.checkpoints_logged += 1;
        }
        // Warm backups are synchronized to the primary's checkpoint as
        // it is taken (§3.2).
        if self.replica_phase(group) == Some(ReplicaPhase::Standby) {
            self.apply_application_state(group, &state.application);
        }
    }

    /// §5.1 steps v–vi at the recovering replica: overwrite the sync
    /// point with the assignment, apply the three kinds of state in
    /// order (application, ORB/POA, infrastructure), replay the
    /// transfer suffix (the inputs the group processed while the
    /// stream was in flight), then dequeue and deliver the held
    /// messages.
    fn complete_recovery(
        &mut self,
        group: GroupId,
        transfer: TransferId,
        suffix: Vec<OrderedInput>,
        d: &mut Delivery,
    ) {
        // Only a replica that is enqueueing behind THIS transfer's last
        // chunk completes; a suffix of any other transfer is stale and
        // leaves the binding alone.
        let (state_bytes, replay) = {
            let lg = self.groups.get_mut(&group).expect("checked by caller");
            let Some(replica) = lg.replica.as_mut() else {
                return;
            };
            if replica.phase != ReplicaPhase::Enqueueing
                || !replica.holding.overwrite_sync_point(transfer)
            {
                return;
            }
            let inbound = replica.inbound.take().expect("enqueueing behind a stream");
            // What replays, in order (§5.1 step vi): the transfer
            // suffix — delivered between the mark and the last chunk,
            // dropped here while the stream was in flight — then the
            // held traffic. The assignment itself is applied below, and
            // a sync point left by an abandoned transfer is skipped.
            let mut replay: Vec<(OrderedInput, u64, &str)> =
                suffix.into_iter().map(|e| (e, 0, "suffix ")).collect();
            while let Some(entry) = replica.holding.pop() {
                if let HeldEntry::Normal((input, hold)) = entry {
                    replay.push((input, hold, ""));
                }
            }
            (inbound.buf, replay)
        };
        let Ok(state) = ThreeKindsOfState::from_bytes(&state_bytes) else {
            return;
        };
        let app_state_bytes = state.application.len();

        // Apply in the paper's order (§4.3): application first, then
        // ORB/POA, then infrastructure.
        d.ctx.stamp(
            d.now,
            Hop::SetState,
            format_args!("{group} {transfer} {app_state_bytes}B"),
        );
        self.apply_application_state(group, &state.application);
        self.apply_orb_poa_state(group, &state.orb_poa);
        self.apply_infra_state(group, &state.infrastructure);

        // Re-baseline the checkpoint log for a logging group. The log
        // deliberately survives the replica process (see
        // `kill_local_replica`), so on a same-node relaunch it still
        // holds the previous incarnation's suffix — and the transferred
        // state already contains those operations' effects. Replaying
        // the stale suffix over the transferred state at the next
        // promotion would execute them twice. From this point the
        // promotion invariant `checkpoint + suffix replay == servant
        // state` holds: the checkpoint IS the transferred state, and
        // the transfer suffix + held traffic (delivered after the
        // capture, so outside it) are re-logged as they replay below.
        //
        // An active group's recovered replica processes traffic; a
        // passive group's becomes a warm standby behind the primary.
        // The phase flips before the replay: held inputs are delivered
        // to the now-synchronized replica exactly as live traffic would
        // be (a held load tick in particular re-checks the phase).
        let (logs, operational) = {
            let lg = self.groups.get_mut(&group).expect("checked by caller");
            let logs = lg.meta.props.style.logs_checkpoints();
            if logs {
                lg.log.clear();
                lg.log.record_checkpoint(state_bytes, d.now);
            }
            let operational = lg.meta.props.style == ReplicationStyle::Active
                || lg.primary_host() == Some(self.node);
            if let Some(replica) = lg.replica.as_mut() {
                replica.phase = if operational {
                    ReplicaPhase::Operational
                } else {
                    ReplicaPhase::Standby
                };
            }
            (logs, operational)
        };

        // The replies a replayed request re-produces (and the
        // invocations a replayed tick re-issues: same restored
        // operation counters, same ids) duplicate the siblings' and are
        // suppressed downstream. A replica completing as a standby
        // replays nothing — backups take no traffic — but still logs.
        for (input, hold, label) in replay {
            if let OrderedInput::Iiop {
                conn,
                direction: Direction::Reply,
                op_seq,
                ..
            } = &input
            {
                // The transferred outstanding table predates these
                // replies; retire them as they replay.
                let lg = self.groups.get_mut(&group).expect("checked by caller");
                lg.outstanding.remove(&(*conn, *op_seq));
            }
            if operational {
                self.replay(group, &input, hold, label, None, d);
            }
            if logs && matches!(input, OrderedInput::Iiop { .. }) {
                let lg = self.groups.get_mut(&group).expect("checked by caller");
                lg.log.log_message(input);
            }
        }
        d.outs.push(Out::RecoveryComplete {
            group,
            app_state_bytes,
        });
    }

    fn apply_application_state(&mut self, group: GroupId, application: &[u8]) {
        let key = Self::group_key(group);
        let lg = self.groups.get_mut(&group).expect("caller verified");
        match &lg.meta.kind {
            GroupKind::Server(_) => {
                self.orb
                    .dispatch_control(&key, "set_state", application)
                    .expect("transferred state is valid");
            }
            GroupKind::Client(_) => {
                if let Some(app) = lg.replica.as_mut().and_then(|r| r.client_app.as_mut()) {
                    if let Ok(any) = Any::from_bytes(application) {
                        app.set_state(&any);
                    }
                }
            }
        }
    }

    fn apply_orb_poa_state(&mut self, group: GroupId, orb_poa: &OrbPoaStateTransfer) {
        // §4.2.1: restore request-id counters into the client-side ORB
        // connections of the recovered object.
        for &(conn, next_id) in &orb_poa.next_request_ids {
            debug_assert_eq!(conn.client, group);
            let conn_id = self.client_conn(conn);
            if let Ok(client) = self.orb.client(conn_id) {
                client.restore_request_id(next_id);
            }
        }
        // §4.2.2: replay the stored client handshake message into the
        // new server replica's ORB ahead of any other request from that
        // client. Only the negotiated contexts are absorbed — the
        // handshake rides on the connection's first real request, whose
        // effects already arrived inside the transferred application
        // state, so dispatching it again would execute that operation
        // twice and diverge the recovered replica from its siblings.
        for (conn, handshake_bytes) in &orb_poa.handshakes {
            debug_assert_eq!(conn.server, group);
            let conn_id = self.server_conn(*conn);
            let _unparseable_ignored = self.orb.absorb_handshake(conn_id, handshake_bytes);
        }
        // Future transfers from this processor must know these facts too.
        self.observer
            .merge_transferred(&orb_poa.next_request_ids, &orb_poa.handshakes);
    }

    fn apply_infra_state(&mut self, group: GroupId, infra: &InfraStateTransfer) {
        self.dedup.restore_horizons(&infra.dedup_horizons);
        self.interceptor.restore_op_counters(&infra.op_counters);
        let mut calls: Vec<OutstandingCall> = infra.outstanding.clone();
        // Re-arm the ORB's pending-reply table for invocations issued by
        // the group before this replica recovered.
        for call in &calls {
            if let Some(&(conn_id, _)) = self.client_conns.get(&call.conn) {
                if let Ok(client) = self.orb.client(conn_id) {
                    client.restore_outstanding(call.request_id, &call.operation);
                }
            }
        }
        let lg = self.groups.get_mut(&group).expect("caller verified");
        lg.outstanding = calls.drain(..).map(|c| ((c.conn, c.op_seq), c)).collect();
    }

    /// Chunked-transfer fault handling, at the fault's total-order
    /// point and against the already-updated view: where this processor
    /// succeeds a dead streaming donor it re-opens the pipeline window
    /// after the shared cursor, or re-sends the closing suffix.
    pub(super) fn handle_transfer_fault(&mut self, group: GroupId, host: NodeId, d: &mut Delivery) {
        let lg = &self.groups[&group];
        let takeovers = self
            .transfers
            .host_faulted(group, host, |recipient| lg.donor_for(recipient));
        for (transfer, resume) in takeovers {
            self.counters.transfer_takeovers += 1;
            match resume {
                Resume::Suffix => self.send_suffix(transfer, d),
                Resume::Chunks(window) => {
                    let delay = self.config.exec_time;
                    self.send_chunks(transfer, window, delay, d.ctx.parent(), d);
                }
            }
        }
    }

    /// Promotes the local backup to primary: cold-loads the replica if
    /// needed, applies the logged checkpoint, and replays the logged
    /// message suffix (§3.3).
    pub(super) fn promote_local(&mut self, group: GroupId, d: &mut Delivery) {
        let lg = self.groups.get_mut(&group).expect("promoting local group");
        let style = lg.meta.props.style;
        // Replay reads the log in place: it is lifted out of the group
        // for the duration (nothing below logs to it) and put back.
        let log = std::mem::take(&mut lg.log);
        let checkpoint = log
            .checkpoint()
            .and_then(|(bytes, _)| ThreeKindsOfState::from_bytes(bytes).ok());
        match style {
            // The replica is loaded and synchronized to the last
            // checkpoint's application state already; the other two
            // kinds come from the logged checkpoint.
            ReplicationStyle::WarmPassive => {}
            // Launch the replica, then checkpoint, then messages — "in
            // that order" (§3.3).
            ReplicationStyle::ColdPassive => {
                self.instantiate_replica(group, ReplicaPhase::Operational);
                if let Some(state) = &checkpoint {
                    self.apply_application_state(group, &state.application);
                }
            }
            ReplicationStyle::Active => unreachable!("only passive groups promote"),
        }
        if let Some(state) = &checkpoint {
            self.apply_orb_poa_state(group, &state.orb_poa);
            self.apply_infra_state(group, &state.infrastructure);
        }
        if let Some(replica) = self.replica_mut(group) {
            replica.phase = ReplicaPhase::Operational;
        }
        // Replay the logged requests through the now-primary replica.
        // The replies it produces are multicast; duplicate suppression
        // at the receivers absorbs any the old primary already sent. A
        // cold promotion first pays the launch + checkpoint-load cost.
        let base = match style {
            ReplicationStyle::ColdPassive => COLD_LOAD_TIME,
            _ => Duration::ZERO,
        };
        let replayed = log.suffix_len();
        for (i, logged) in log.suffix().iter().enumerate() {
            let request = matches!(
                logged.input,
                OrderedInput::Iiop {
                    direction: Direction::Request,
                    ..
                }
            );
            if request {
                let delay = base + self.config.exec_time * (i as u64 + 1);
                self.replay(group, &logged.input, 0, "log ", Some(delay), d);
            }
        }
        self.groups
            .get_mut(&group)
            .expect("promoting local group")
            .log = log;
        d.outs.push(Out::Promoted {
            group,
            replayed,
            ready_after: base + self.config.exec_time * replayed as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::ConnectionName;

    const G: GroupId = GroupId(7);
    const T: TransferId = TransferId(99);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn request(op_seq: u32) -> OrderedInput {
        OrderedInput::Iiop {
            conn: ConnectionName {
                client: GroupId(8),
                server: G,
            },
            direction: Direction::Request,
            op_seq,
            bytes: vec![op_seq as u8],
        }
    }

    /// The tables of processor `node`, retaining transfer `T`: ten
    /// chunks of `G`'s state streamed by P1 to the replica on P9.
    fn retaining(node: u32) -> Transfers {
        let mut t = Transfers::new(n(node));
        t.retain(T, G, n(9), n(1), vec![0; 100], 10);
        t
    }

    /// The lowest of `hosts` other than the recipient — the election
    /// rule `LocalGroup::donor_for` applies to its operational view.
    fn lowest_of(hosts: &'static [u32]) -> impl Fn(NodeId) -> Option<NodeId> {
        move |recipient| hosts.iter().map(|&h| n(h)).find(|&h| h != recipient)
    }

    #[test]
    fn cursor_advances_only_on_the_next_chunk_in_order() {
        let mut t = retaining(2);
        assert_eq!(t.donor_transfers[&T].total, 10);
        assert_eq!(t.chunk_delivered(T, 1, false), ChunkStep::Duplicate);
        assert_eq!(t.donor_transfers[&T].cursor, None, "chunk 0 comes first");
        let advanced = ChunkStep::Advanced { streaming: false };
        assert_eq!(t.chunk_delivered(T, 0, false), advanced);
        assert_eq!(t.chunk_delivered(T, 1, false), advanced);
        assert_eq!(t.chunk_delivered(T, 1, false), ChunkStep::Duplicate);
        assert_eq!(t.chunk_delivered(T, 0, false), ChunkStep::Duplicate);
        assert_eq!(t.chunk_delivered(T, 3, false), ChunkStep::Duplicate);
        assert_eq!(t.donor_transfers[&T].cursor, Some(1));
        // Only the streaming donor is told the next step is its own.
        let streaming = ChunkStep::Advanced { streaming: true };
        assert_eq!(retaining(1).chunk_delivered(T, 0, false), streaming);
        // A transfer nobody retained here advances nothing.
        let other = TransferId(5);
        assert_eq!(t.chunk_delivered(other, 0, false), ChunkStep::Unretained);
    }

    #[test]
    fn suffix_window_logs_from_the_mark_to_the_last_chunk() {
        let mut t = Transfers::new(n(2));
        t.log_input(G, || request(1)); // before the mark: no window yet
        t.retain(T, G, n(9), n(1), vec![0; 20], 10);
        t.log_input(G, || request(2));
        t.log_input(GroupId(3), || request(3)); // another group's traffic
        t.chunk_delivered(T, 0, false);
        t.log_input(G, || OrderedInput::LoadTick);
        t.chunk_delivered(T, 1, true);
        t.log_input(G, || request(4)); // after the last chunk: held, not logged
        assert_eq!(
            t.donor_transfers[&T].suffix,
            [request(2), OrderedInput::LoadTick]
        );
    }

    #[test]
    fn donor_fault_resumes_after_the_cursor_at_the_lowest_survivor() {
        for landed in [0u32, 3] {
            let mut at_p2 = retaining(2);
            let mut at_p3 = retaining(3);
            for index in 0..landed {
                at_p2.chunk_delivered(T, index, false);
                at_p3.chunk_delivered(T, index, false);
            }
            let resumes = at_p2.host_faulted(G, n(1), lowest_of(&[2, 3]));
            let window = landed..landed + CHUNK_PIPELINE as u32;
            assert_eq!(resumes, [(T, Resume::Chunks(window))]);
            assert!(at_p3.host_faulted(G, n(1), lowest_of(&[2, 3])).is_empty());
            // Both agree on the successor, and it now streams.
            assert_eq!(at_p2.donor_transfers[&T].donor, n(2));
            assert_eq!(at_p3.donor_transfers[&T].donor, n(2));
            let streaming = ChunkStep::Advanced { streaming: true };
            assert_eq!(at_p2.chunk_delivered(T, landed, false), streaming);
        }
    }

    #[test]
    fn donor_fault_after_the_last_chunk_resends_only_the_suffix() {
        let mut t = retaining(2);
        for index in 0..10 {
            t.chunk_delivered(T, index, index == 9);
        }
        let resumes = t.host_faulted(G, n(1), lowest_of(&[2]));
        assert_eq!(resumes, [(T, Resume::Suffix)]);
    }

    #[test]
    fn faults_that_end_or_spare_a_transfer() {
        // The recipient's fault voids the transfer.
        let mut t = retaining(2);
        assert!(t.host_faulted(G, n(9), lowest_of(&[1, 2])).is_empty());
        assert!(t.donor_transfers.is_empty());
        // So does the donor's, with no retaining host left to elect.
        let mut t = retaining(2);
        assert!(t.host_faulted(G, n(1), lowest_of(&[])).is_empty());
        assert!(t.donor_transfers.is_empty());
        // A bystander's fault, or one in another group, changes nothing.
        let mut t = retaining(2);
        assert!(t.host_faulted(G, n(3), lowest_of(&[1, 2])).is_empty());
        assert!(t.host_faulted(GroupId(3), n(1), lowest_of(&[2])).is_empty());
        assert_eq!(t.donor_transfers[&T].donor, n(1));
        // The local replica's death drops the group's contexts.
        t.drop_group(G);
        assert!(t.donor_transfers.is_empty());
    }

    #[test]
    fn completions_are_first_once_within_an_oldest_first_window() {
        let mut t = retaining(2);
        assert!(t.first_completion(T));
        assert!(t.donor_transfers.is_empty(), "context released");
        assert!(!t.first_completion(T), "a takeover race's second suffix");
        for id in 0..SEEN_TRANSFERS_WINDOW as u64 - 1 {
            assert!(t.first_completion(TransferId(1_000 + id)));
        }
        assert_eq!(t.seen_transfers.len(), SEEN_TRANSFERS_WINDOW);
        assert!(!t.first_completion(T), "still the oldest remembered");
        assert!(t.first_completion(TransferId(5_000)));
        assert_eq!(t.seen_transfers.len(), SEEN_TRANSFERS_WINDOW);
        assert!(t.first_completion(T), "evicted first, being the oldest");
        assert!(!t.first_completion(TransferId(5_000)));
    }

    #[test]
    fn checkpoint_marks_retire_with_their_elders() {
        let mut t = Transfers::new(n(1));
        for (id, mark) in [(1, 10), (2, 20), (3, 30)] {
            t.mark_checkpoint(G, TransferId(id), mark);
        }
        assert!(t.arm_suffix_trigger(G));
        assert!(!t.arm_suffix_trigger(G), "one in flight per group");
        assert_eq!(t.checkpoint_landed(G, TransferId(2)), Some(20));
        assert!(t.arm_suffix_trigger(G), "a landed checkpoint re-arms it");
        assert_eq!(t.checkpoint_landed(G, TransferId(1)), None, "retired");
        assert_eq!(t.checkpoint_landed(G, TransferId(3)), Some(30));
        assert_eq!(t.checkpoint_landed(GroupId(3), TransferId(4)), None);
    }

    #[test]
    fn ids_never_repeat_across_incarnations() {
        let mut t = Transfers::new(n(3));
        let before: Vec<TransferId> = (0..100).map(|_| t.fresh_id()).collect();
        // The rebuilt instance of a restarted processor counts from
        // zero again, under the next incarnation.
        let mut t = Transfers::new(n(3));
        t.set_incarnation(1);
        let after: Vec<TransferId> = (0..100).map(|_| t.fresh_id()).collect();
        assert!(after.iter().all(|id| !before.contains(id)));
        assert!(before.iter().chain(&after).all(|id| id.0 >> 48 == 3));
        // Nor do two processors' ids ever meet.
        let elsewhere = Transfers::new(n(4)).fresh_id();
        assert!(!before.contains(&elsewhere));
    }
}
