//! Wire-level types of the Totem single-ring protocol.
//!
//! Frames are modelled as structured values with a computed
//! [`Frame::wire_len`] rather than a byte codec: the network model only
//! needs sizes, and nothing in the system parses Totem frames off raw
//! bytes (Eternal parses the *GIOP payloads*, which do have a full codec
//! in `eternal-giop`).

use eternal_sim::net::NodeId;
use eternal_sim::obs::causal::TraceTag;
use eternal_sim::Bytes;
use std::collections::BTreeSet;

/// Identifies a ring configuration.
///
/// Ring ids are totally ordered by `(seq, rep)`; each reformation picks a
/// `seq` larger than any member's previous ring, so stale frames are
/// recognizable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingId {
    /// Monotonically increasing configuration number.
    pub seq: u64,
    /// The representative (lowest-id member) that formed the ring.
    pub rep: NodeId,
}

impl std::fmt::Display for RingId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring({}.{})", self.seq, self.rep)
    }
}

/// The payload of a regular (sequenced) message.
///
/// Application bytes are shared ([`Bytes`]): cloning a payload — into a
/// frame per destination, a retransmission, a recovery store — bumps
/// reference counts and copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// An application message (for Eternal: one IIOP chunk).
    App(Bytes),
    /// Several application messages packed into one frame during a
    /// single token visit. A batch occupies one sequence number and is
    /// unpacked transparently at delivery, in order, so the total order
    /// over application messages is exactly what it would have been had
    /// each item been broadcast alone.
    Batch(Vec<Bytes>),
    /// An old-ring message re-broadcast on the new ring during membership
    /// recovery, so that all surviving members of the old ring deliver it
    /// before the configuration change (virtual synchrony).
    Recovered {
        /// The ring the message was originally sequenced on.
        old_ring: RingId,
        /// Its sequence number on that ring.
        old_seq: u64,
        /// Its original sender.
        original_sender: NodeId,
        /// The original payload (an `App` or `Batch`, never a nested
        /// `Recovered`), preserved intact so a recovered batch still
        /// unpacks into the same sequence of application messages.
        data: Box<Payload>,
    },
}

impl Payload {
    /// Strips any [`Payload::Recovered`] wrapping, yielding the `App`
    /// or `Batch` that was originally broadcast.
    pub fn inner(&self) -> &Payload {
        match self {
            Payload::Recovered { data, .. } => data,
            other => other,
        }
    }

    /// Number of application messages this payload delivers.
    pub fn message_count(&self) -> usize {
        match self.inner() {
            Payload::App(_) => 1,
            Payload::Batch(items) => items.len(),
            Payload::Recovered { .. } => unreachable!("inner() strips Recovered"),
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            Payload::App(d) => d.len(),
            // Count prefix plus a length prefix per item.
            Payload::Batch(items) => 4 + items.iter().map(|i| 4 + i.len()).sum::<usize>(),
            Payload::Recovered { data, .. } => data.wire_len() + 24,
        }
    }
}

/// A regular (totally ordered) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegularMsg {
    /// Ring the message is sequenced on.
    pub ring: RingId,
    /// Ring-wide sequence number (total order key).
    pub seq: u64,
    /// Broadcasting processor.
    pub sender: NodeId,
    /// The payload.
    pub payload: Payload,
    /// Causal trace metadata: one tag per application message the
    /// payload delivers (aligned with batch items), so each packed
    /// message retains its own causal chain through batching,
    /// retransmission, and recovery re-broadcast. Empty when untraced —
    /// an empty vec adds nothing to [`Frame::wire_len`], keeping the
    /// tracing-off wire timing byte-identical.
    pub trace: Vec<TraceTag>,
}

impl RegularMsg {
    /// The trace tag of the `i`-th application message in the payload
    /// ([`TraceTag::NONE`] when untraced).
    pub fn tag_at(&self, i: usize) -> TraceTag {
        self.trace.get(i).copied().unwrap_or(TraceTag::NONE)
    }
}

/// Rotation-scoped minimum-aru bookkeeping carried on the token.
///
/// This is a simplification of Totem's `aru`/`aru_id` fields with the
/// same effect: after each complete rotation, `last_rotation_min` is the
/// minimum all-received-up-to value over every member during the
/// previous rotation, i.e. every member holds all messages up to it
/// (making them *safe* and garbage-collectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationAru {
    /// Minimum aru observed so far in the current rotation.
    pub this_rotation_min: u64,
    /// Minimum aru over the whole previous rotation.
    pub last_rotation_min: u64,
}

/// The circulating token. Only its holder may broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Ring this token belongs to.
    pub ring: RingId,
    /// The member the token is being passed to.
    pub target: NodeId,
    /// Increments on every hop; lets receivers discard stale duplicates.
    pub token_seq: u64,
    /// Highest sequence number broadcast on this ring so far.
    pub seq: u64,
    /// Sequence numbers some member is missing (retransmission requests).
    pub rtr: BTreeSet<u64>,
    /// Rotation bookkeeping for safe delivery / garbage collection.
    pub aru: RotationAru,
}

/// A membership (join) message, flooded while forming a new ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinMsg {
    /// The sender.
    pub sender: NodeId,
    /// Processors the sender believes should be in the new ring.
    pub proc_set: BTreeSet<NodeId>,
    /// Processors the sender believes have failed.
    pub fail_set: BTreeSet<NodeId>,
    /// The largest ring seq the sender has been part of (so the new ring
    /// id can exceed every member's history).
    pub ring_seq_hint: u64,
}

/// Per-member information collected on the commit token's first pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitEntry {
    /// The member this entry describes.
    pub member: NodeId,
    /// The ring the member was on (`None` for a fresh joiner).
    pub old_ring: Option<RingId>,
    /// The member's all-received-up-to on that ring.
    pub my_aru: u64,
    /// The highest sequence number the member has seen on that ring.
    pub high_seq: u64,
    /// Sequence numbers above `my_aru` that the member holds.
    pub held_above_aru: BTreeSet<u64>,
}

/// The commit token, circulated by the new ring's representative.
///
/// Pass 1 collects a [`CommitEntry`] from each member; pass 2 distributes
/// the agreed new ring id and the old-ring recovery obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitMsg {
    /// The member the commit token is being passed to.
    pub target: NodeId,
    /// 1 = collecting, 2 = distributing.
    pub pass: u8,
    /// The new ring being formed.
    pub new_ring: RingId,
    /// Members of the new ring, in ring order.
    pub members: Vec<NodeId>,
    /// One entry per member (filled during pass 1).
    pub entries: Vec<CommitEntry>,
}

/// Any Totem frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A sequenced broadcast.
    Regular(RegularMsg),
    /// The circulating token (addressed, but physically multicast).
    Token(Token),
    /// Membership formation flood.
    Join(JoinMsg),
    /// Ring-formation commit token.
    Commit(CommitMsg),
}

impl Frame {
    /// Approximate size of this frame on the wire, in bytes.
    ///
    /// Control frames (token, join, commit) are modelled as single
    /// frames; real Totem likewise bounds their variable-length fields so
    /// they fit one Ethernet frame. Callers should clamp to the network's
    /// maximum payload.
    pub fn wire_len(&self) -> usize {
        match self {
            Frame::Regular(m) => 32 + m.payload.wire_len() + TraceTag::WIRE_LEN * m.trace.len(),
            Frame::Token(t) => 48 + 8 * t.rtr.len(),
            Frame::Join(j) => 32 + 4 * (j.proc_set.len() + j.fail_set.len()),
            Frame::Commit(c) => {
                40 + 4 * c.members.len()
                    + c.entries
                        .iter()
                        .map(|e| 40 + 8 * e.held_above_aru.len())
                        .sum::<usize>()
            }
        }
    }

    /// A short tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Regular(_) => "regular",
            Frame::Token(_) => "token",
            Frame::Join(_) => "join",
            Frame::Commit(_) => "commit",
        }
    }
}

/// Timers a [`crate::node::TotemNode`] may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    /// No token seen for too long → begin membership formation.
    TokenLoss,
    /// The token we forwarded may have been lost → retransmit it.
    TokenRetransmit,
    /// Periodic re-flood of our join message while forming.
    JoinRebroadcast,
    /// Consensus not reached in time → declare unresponsive members
    /// failed and continue forming.
    ConsensusTimeout,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(len: usize) -> Bytes {
        vec![0; len].into()
    }

    #[test]
    fn ring_id_ordering() {
        let a = RingId {
            seq: 1,
            rep: NodeId(3),
        };
        let b = RingId {
            seq: 2,
            rep: NodeId(0),
        };
        assert!(a < b);
        let c = RingId {
            seq: 1,
            rep: NodeId(4),
        };
        assert!(a < c);
        assert_eq!(a.to_string(), "ring(1.P3)");
    }

    #[test]
    fn payload_inner_unwraps_and_counts() {
        let app = Payload::App(vec![1, 2].into());
        assert_eq!(app.inner(), &app);
        assert_eq!(app.message_count(), 1);
        let batch = Payload::Batch(vec![bytes(1), bytes(2), bytes(3)]);
        assert_eq!(batch.message_count(), 3);
        let rec = Payload::Recovered {
            old_ring: RingId {
                seq: 0,
                rep: NodeId(0),
            },
            old_seq: 5,
            original_sender: NodeId(1),
            data: Box::new(batch.clone()),
        };
        assert_eq!(rec.inner(), &batch);
        assert_eq!(rec.message_count(), 3);
    }

    #[test]
    fn batch_wire_len_counts_per_item_overhead() {
        let ring = RingId {
            seq: 0,
            rep: NodeId(0),
        };
        let frame = |payload| {
            Frame::Regular(RegularMsg {
                ring,
                seq: 1,
                sender: NodeId(0),
                payload,
                trace: vec![],
            })
        };
        let single = frame(Payload::App(bytes(10))).wire_len();
        let batch = frame(Payload::Batch(vec![bytes(10), bytes(10)])).wire_len();
        // Two 10-byte items in one frame: 32 header + 4 count + 2*(4+10),
        // versus 2 * (32 + 10) for two singles.
        assert_eq!(batch, 32 + 4 + 2 * 14);
        assert!(batch < 2 * single);
        // A recovered batch carries the same structure plus the 24-byte
        // recovery envelope.
        let rec = frame(Payload::Recovered {
            old_ring: ring,
            old_seq: 9,
            original_sender: NodeId(1),
            data: Box::new(Payload::Batch(vec![bytes(10), bytes(10)])),
        })
        .wire_len();
        assert_eq!(rec, batch + 24);
    }

    #[test]
    fn wire_len_scales() {
        let small = Frame::Regular(RegularMsg {
            ring: RingId {
                seq: 0,
                rep: NodeId(0),
            },
            seq: 1,
            sender: NodeId(0),
            payload: Payload::App(bytes(10)),
            trace: vec![],
        });
        let large = Frame::Regular(RegularMsg {
            ring: RingId {
                seq: 0,
                rep: NodeId(0),
            },
            seq: 1,
            sender: NodeId(0),
            payload: Payload::App(bytes(1000)),
            trace: vec![],
        });
        assert_eq!(large.wire_len() - small.wire_len(), 990);
        assert_eq!(small.kind(), "regular");
    }

    #[test]
    fn trace_tags_cost_wire_bytes_only_when_present() {
        let msg = |trace| {
            Frame::Regular(RegularMsg {
                ring: RingId {
                    seq: 0,
                    rep: NodeId(0),
                },
                seq: 1,
                sender: NodeId(0),
                payload: Payload::Batch(vec![bytes(10), bytes(10)]),
                trace,
            })
        };
        let untraced = msg(vec![]).wire_len();
        let traced = msg(vec![TraceTag::NONE; 2]).wire_len();
        assert_eq!(traced - untraced, 2 * TraceTag::WIRE_LEN);
        // tag_at defaults to NONE beyond the tag list.
        if let Frame::Regular(m) = msg(vec![]) {
            assert!(m.tag_at(0).is_none());
            assert!(m.tag_at(7).is_none());
        }
    }

    #[test]
    fn token_wire_len_counts_rtr() {
        let mut t = Token {
            ring: RingId {
                seq: 0,
                rep: NodeId(0),
            },
            target: NodeId(1),
            token_seq: 0,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        };
        let base = Frame::Token(t.clone()).wire_len();
        t.rtr.insert(5);
        t.rtr.insert(9);
        assert_eq!(Frame::Token(t).wire_len(), base + 16);
    }
}
