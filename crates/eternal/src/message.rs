//! Messages exchanged between the Eternal mechanisms of different
//! processors, and their fragmentation over the bounded Totem payload.
//!
//! Everything Eternal sends — intercepted IIOP messages, fabricated
//! `get_state`/`set_state` control traffic, fault notifications — is
//! multicast through Totem so it lands at every processor at the same
//! position in the total order. A message larger than one Ethernet
//! frame (notably a `set_state` carrying a large application state,
//! §6) is split into [`WireFragment`]s; its delivery point in the total
//! order is the arrival of its **last** fragment, which is the same at
//! every processor.

use crate::gid::{ConnectionName, Direction, GroupId, TransferId};
use crate::recovery::state3::ThreeKindsOfState;
use eternal_cdr::layout::{end_octet_seq, end_u32};
use eternal_cdr::{CdrDecoder, CdrEncoder, CdrError, Endian};
use eternal_obs::health::HealthSnapshot;
use eternal_sim::net::NodeId;
use eternal_sim::Bytes;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;

/// Why a `get_state()` is being fabricated (paper §3.3 vs §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalPurpose {
    /// Recovery of a new/recovering replica hosted on `new_host`: the
    /// state captured at this mark streams there as
    /// [`EternalMessage::StateChunk`]s closed by a
    /// [`EternalMessage::StateSuffix`].
    Recovery {
        /// Processor hosting the replica being recovered.
        new_host: NodeId,
    },
    /// Periodic checkpoint (passive replication); the resulting state is
    /// logged by every processor hosting the group (and applied by warm
    /// backups).
    Checkpoint,
}

/// A message between Eternal mechanisms, conveyed in Totem's total
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EternalMessage {
    /// An intercepted IIOP message of the application.
    Iiop {
        /// The logical client→server connection.
        conn: ConnectionName,
        /// Request or reply.
        direction: Direction,
        /// The Eternal-generated operation identifier (§4.3): replicas
        /// of a deterministic group assign the same value to the same
        /// logical operation, *independently of the GIOP request id*,
        /// which is ORB state and may diverge when recovery is done
        /// wrong (the paper's Figure 4).
        op_seq: u32,
        /// The verbatim IIOP bytes.
        bytes: Vec<u8>,
    },
    /// A new/recovered replica of `group` is ready on `host` and needs
    /// state synchronization before it may operate.
    ReplicaJoining {
        /// The group being recovered.
        group: GroupId,
        /// The processor hosting the new replica.
        host: NodeId,
    },
    /// A hosted replica died (detected by local fault monitoring).
    ReplicaFault {
        /// The group that lost a replica.
        group: GroupId,
        /// The processor whose replica died.
        host: NodeId,
    },
    /// The fabricated `get_state()` invocation: the mark in the total
    /// order at which existing replicas capture their state (at
    /// quiescence), and to which a recovering replica binds.
    StateRetrieval {
        /// The group whose state is captured.
        group: GroupId,
        /// Identifies this transfer episode.
        transfer: TransferId,
        /// Recovery or periodic checkpoint.
        purpose: RetrievalPurpose,
    },
    /// The fabricated `set_state()` of a periodic checkpoint, with the
    /// piggybacked three kinds of state: logged by every host of the
    /// group and applied by warm backups (§3.3). A recovery's state
    /// travels as [`EternalMessage::StateChunk`]s instead.
    StateAssignment {
        /// Matches the originating retrieval.
        transfer: TransferId,
        /// Mirrors the retrieval; only [`RetrievalPurpose::Checkpoint`]
        /// is ever sent, and anything else is ignored on delivery.
        purpose: RetrievalPurpose,
        /// The complete transferable state (boxed: the one fat,
        /// rare payload would otherwise set every message's size).
        state: Box<ThreeKindsOfState>,
    },
    /// An external load stimulus for a replicated client group,
    /// multicast so every replica ticks at the same total-order point.
    /// Replica determinism (§2) requires every state-changing input to
    /// arrive through the total order — a tick applied only to locally
    /// operational replicas would be missed by a sibling whose state
    /// was captured before the tick but who becomes operational after
    /// it, leaving that replica permanently behind.
    LoadTick {
        /// The client group to tick.
        group: GroupId,
    },
    /// A periodic cluster-health snapshot (docs/HEALTH.md), multicast
    /// so every processor observes the same totally-ordered stream of
    /// health epochs — the cluster agrees on its own health history the
    /// same way it agrees on application state.
    Health {
        /// The publisher's self-measurement (boxed, as
        /// [`EternalMessage::StateAssignment`]'s state is).
        snap: Box<HealthSnapshot>,
    },
    /// One fixed-size slice of the state captured at a recovery's
    /// synchronization mark (docs/RECOVERY.md) — the §5.1 `set_state()`
    /// in pieces; a state that fits one chunk is a stream of one.
    /// Chunks stream through the total order while the group keeps
    /// serving; the delivery of the **last** chunk
    /// (`index == total - 1`) is the shared total-order point at which
    /// the recovering replica starts enqueueing and the donors close
    /// their suffix logs.
    StateChunk {
        /// The group whose state is being transferred.
        group: GroupId,
        /// The transfer this chunk belongs to.
        transfer: TransferId,
        /// The processor hosting the recovering replica.
        new_host: NodeId,
        /// This chunk's position, `0..total`.
        index: u32,
        /// Total chunks in the checkpoint.
        total: u32,
        /// The checkpoint byte slice.
        bytes: Vec<u8>,
    },
    /// The post-mark suffix closing a chunked transfer: every ordered
    /// input the group received between the synchronization mark and
    /// the last chunk's delivery, replayed by the recovering replica
    /// after it applies the chunked checkpoint. The blocking (holding-
    /// queue) window of a chunked recovery spans only this message's
    /// flight time — O(suffix), not O(state size).
    StateSuffix {
        /// The group whose transfer is closing.
        group: GroupId,
        /// The transfer being closed.
        transfer: TransferId,
        /// The processor hosting the recovering replica.
        new_host: NodeId,
        /// The logged post-mark inputs, in delivery order.
        entries: Vec<OrderedInput>,
    },
}

// Every scheduled multicast and every `Out` carries one by value.
const _: () = assert!(std::mem::size_of::<EternalMessage>() <= 64);

/// One totally ordered input of a group: intercepted IIOP traffic
/// aimed at it, or a load tick for a client group. The one record of
/// "an input that may have to be replayed": the §5.1 holding queue
/// holds it, the §3.3 checkpoint log logs it, and a transfer's
/// [`EternalMessage::StateSuffix`] carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderedInput {
    /// An intercepted IIOP message (the fields of
    /// [`EternalMessage::Iiop`]).
    Iiop {
        /// The logical client→server connection.
        conn: ConnectionName,
        /// Request or reply.
        direction: Direction,
        /// The Eternal-generated operation identifier.
        op_seq: u32,
        /// The verbatim IIOP bytes.
        bytes: Vec<u8>,
    },
    /// A load tick ordered for the (client) group.
    LoadTick,
}

impl OrderedInput {
    /// Payload bytes the input retains (what the log's suffix-bound
    /// trigger accounts for).
    pub fn payload_len(&self) -> usize {
        match self {
            OrderedInput::Iiop { bytes, .. } => bytes.len(),
            OrderedInput::LoadTick => 0,
        }
    }

    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            OrderedInput::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => encode_iiop(enc, *conn, *direction, *op_seq, bytes),
            OrderedInput::LoadTick => enc.write_u8(1),
        }
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(match dec.read_u8()? {
            0 => {
                let (conn, direction, op_seq, bytes) = decode_iiop(dec)?;
                OrderedInput::Iiop {
                    conn,
                    direction,
                    op_seq,
                    bytes: bytes.to_vec(),
                }
            }
            1 => OrderedInput::LoadTick,
            other => return Err(bad_discriminant(other)),
        })
    }

    /// Where the encoding ends in a stream it starts at `at`.
    fn encoded_end(&self, at: usize) -> usize {
        match self {
            OrderedInput::Iiop { bytes, .. } => iiop_end(at, bytes.len()),
            OrderedInput::LoadTick => at + 1,
        }
    }
}

/// A two-valued discriminant octet held something no encoder writes.
fn bad_discriminant(got: u8) -> CdrError {
    CdrError::InvalidEnumDiscriminant {
        got: u32::from(got),
        count: 2,
    }
}

/// Reads what [`Direction::wire_byte`] wrote, and nothing else.
pub(crate) fn decode_direction(dec: &mut CdrDecoder<'_>) -> Result<Direction, CdrError> {
    match dec.read_u8()? {
        0 => Ok(Direction::Request),
        1 => Ok(Direction::Reply),
        other => Err(bad_discriminant(other)),
    }
}

/// The wire form of an intercepted IIOP message, tag included: the same
/// bytes whether it travels as an [`EternalMessage::Iiop`] of its own
/// or as an [`OrderedInput::Iiop`] inside a transfer suffix.
fn encode_iiop(
    enc: &mut CdrEncoder,
    conn: ConnectionName,
    direction: Direction,
    op_seq: u32,
    bytes: &[u8],
) {
    enc.write_u8(0);
    enc.write_u32(conn.client.0);
    enc.write_u32(conn.server.0);
    enc.write_u8(direction.wire_byte());
    enc.write_u32(op_seq);
    enc.write_octet_seq(bytes);
}

/// Where [`encode_iiop`] of a `body`-byte message stops when it starts
/// at `at`: tag, the connection's two groups, direction, operation id,
/// body.
fn iiop_end(at: usize, body: usize) -> usize {
    let direction = end_u32(end_u32(at + 1)) + 1;
    end_octet_seq(end_u32(direction), body)
}

/// Reads what [`encode_iiop`] wrote after its tag; the body is a view
/// into the input.
fn decode_iiop<'a>(
    dec: &mut CdrDecoder<'a>,
) -> Result<(ConnectionName, Direction, u32, &'a [u8]), CdrError> {
    let conn = ConnectionName {
        client: GroupId(dec.read_u32()?),
        server: GroupId(dec.read_u32()?),
    };
    let direction = decode_direction(dec)?;
    Ok((conn, direction, dec.read_u32()?, dec.read_octets()?))
}

impl EternalMessage {
    /// A short human-readable descriptor for traces and span details
    /// (e.g. `"iiop G1->G0 req op#3"`).
    pub fn kind(&self) -> String {
        match self {
            EternalMessage::Iiop {
                conn,
                direction,
                op_seq,
                ..
            } => {
                let dir = match direction {
                    Direction::Request => "req",
                    Direction::Reply => "rep",
                };
                format!("iiop {conn} {dir} op#{op_seq}")
            }
            EternalMessage::ReplicaJoining { group, host } => format!("joining {group}@{host}"),
            EternalMessage::ReplicaFault { group, host } => format!("fault {group}@{host}"),
            EternalMessage::StateRetrieval {
                group, transfer, ..
            } => {
                format!("get_state {group} {transfer}")
            }
            EternalMessage::StateAssignment { transfer, .. } => format!("set_state {transfer}"),
            EternalMessage::LoadTick { group } => format!("load_tick {group}"),
            EternalMessage::Health { snap } => {
                format!("health P{} seq#{}", snap.node, snap.seq)
            }
            EternalMessage::StateChunk {
                transfer,
                index,
                total,
                ..
            } => format!("state_chunk {transfer} {}/{total}", u64::from(*index) + 1),
            EternalMessage::StateSuffix {
                transfer, entries, ..
            } => format!("state_suffix {transfer} {} entries", entries.len()),
        }
    }

    /// Length of [`EternalMessage::to_bytes`]' output, from the fields
    /// alone: every one is fixed-size or carries its length.
    fn encoded_len(&self) -> usize {
        // After the tag: a u32 ends at 8, a u32 and a u64 — or a u64
        // alone — at 16.
        match self {
            EternalMessage::Iiop { bytes, .. } => iiop_end(0, bytes.len()),
            EternalMessage::ReplicaJoining { .. } | EternalMessage::ReplicaFault { .. } => 12,
            EternalMessage::StateRetrieval { purpose, .. } => purpose_end(16, *purpose),
            EternalMessage::StateAssignment { purpose, state, .. } => {
                state.encoded_end(purpose_end(16, *purpose))
            }
            EternalMessage::LoadTick { .. } => 8,
            EternalMessage::Health { snap } => {
                // 17 u64 gauges from 8, the digest count, then pairs of
                // u64 (8-aligned).
                let count_end = end_u32(8 + 17 * 8);
                match snap.digests.len() {
                    0 => count_end,
                    n => count_end.next_multiple_of(8) + 16 * n,
                }
            }
            // new_host, index and total follow the group and transfer.
            EternalMessage::StateChunk { bytes, .. } => end_octet_seq(16 + 12, bytes.len()),
            // new_host and the entry count follow them.
            EternalMessage::StateSuffix { entries, .. } => entries
                .iter()
                .fold(16 + 8, |at, entry| entry.encoded_end(at)),
        }
    }

    /// Serializes to CDR bytes (big-endian stream), into a buffer
    /// reserved once at the encoding's exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut enc = CdrEncoder::with_capacity(Endian::Big, len);
        self.encode(&mut enc);
        debug_assert_eq!(enc.len(), len, "{}", self.kind());
        enc.into_bytes()
    }

    /// The one Totem payload that holds all of the message as
    /// `origin`'s `msg_id`-th, when envelope and message fit
    /// `max_payload` together: what [`fragment_eternal`] makes of
    /// [`EternalMessage::to_bytes`] then, written once into one
    /// exactly-sized buffer.
    pub fn single_fragment(
        &self,
        origin: NodeId,
        msg_id: u64,
        max_payload: usize,
    ) -> Option<Vec<u8>> {
        let len = self.encoded_len();
        if FRAGMENT_OVERHEAD + len > max_payload {
            return None;
        }
        let buf = Vec::with_capacity(FRAGMENT_OVERHEAD + len);
        let mut enc = CdrEncoder::append_to(buf, Endian::Big);
        let envelope = WireFragment {
            origin,
            msg_id,
            index: 0,
            total: 1,
            chunk: &[],
        };
        envelope.encode_envelope(&mut enc, len);
        // The message is a CDR stream of its own: aligned from where
        // the envelope ends.
        let mut enc = CdrEncoder::append_to(enc.into_bytes(), Endian::Big);
        self.encode(&mut enc);
        debug_assert_eq!(enc.len(), len, "{}", self.kind());
        Some(enc.into_bytes())
    }

    /// Writes the message as a CDR stream from `enc`'s base.
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            EternalMessage::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => encode_iiop(enc, *conn, *direction, *op_seq, bytes),
            EternalMessage::ReplicaJoining { group, host } => {
                enc.write_u8(1);
                enc.write_u32(group.0);
                enc.write_u32(host.0);
            }
            EternalMessage::ReplicaFault { group, host } => {
                enc.write_u8(2);
                enc.write_u32(group.0);
                enc.write_u32(host.0);
            }
            EternalMessage::StateRetrieval {
                group,
                transfer,
                purpose,
            } => {
                enc.write_u8(3);
                enc.write_u32(group.0);
                enc.write_u64(transfer.0);
                encode_purpose(enc, *purpose);
            }
            EternalMessage::StateAssignment {
                transfer,
                purpose,
                state,
            } => {
                enc.write_u8(4);
                enc.write_u64(transfer.0);
                encode_purpose(enc, *purpose);
                state.encode(enc).expect("operation names contain no NUL");
            }
            EternalMessage::LoadTick { group } => {
                enc.write_u8(5);
                enc.write_u32(group.0);
            }
            EternalMessage::Health { snap } => {
                enc.write_u8(6);
                for v in [
                    snap.node,
                    snap.seq,
                    snap.published_ns,
                    snap.token_age_ns,
                    snap.broadcasts,
                    snap.delivered,
                    snap.retransmits,
                    snap.reformations,
                    snap.holding_depth,
                    snap.reassembly_depth,
                    snap.dedup_resident,
                    snap.recovering,
                    snap.pending_depth,
                    snap.flow_occupancy,
                    snap.reassembly_bytes,
                    snap.log_suffix,
                    snap.digest_epoch,
                ] {
                    enc.write_u64(v);
                }
                enc.write_u32(snap.digests.len() as u32);
                for &(g, d) in &snap.digests {
                    enc.write_u64(g);
                    enc.write_u64(d);
                }
            }
            EternalMessage::StateChunk {
                group,
                transfer,
                new_host,
                index,
                total,
                bytes,
            } => {
                enc.write_u8(7);
                enc.write_u32(group.0);
                enc.write_u64(transfer.0);
                enc.write_u32(new_host.0);
                enc.write_u32(*index);
                enc.write_u32(*total);
                enc.write_octet_seq(bytes);
            }
            EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                entries,
            } => {
                enc.write_u8(8);
                enc.write_u32(group.0);
                enc.write_u64(transfer.0);
                enc.write_u32(new_host.0);
                enc.write_u32(entries.len() as u32);
                for entry in entries {
                    entry.encode(enc);
                }
            }
        }
    }

    /// Deserializes from [`EternalMessage::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Propagates CDR failures; unknown tags yield
    /// [`CdrError::UnknownTypeCodeKind`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CdrError> {
        Delivered::view(bytes).map(Delivered::into_message)
    }

    /// The bulk body of the two variants that have one.
    fn bulk_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => {
                Some(bytes)
            }
            _ => None,
        }
    }

    /// The one decoder. The bulk body of an `Iiop` or a `StateChunk` is
    /// left empty in the returned message and reported as where it lies
    /// in `bytes`, for [`Delivered`] to view or to keep.
    fn decode(bytes: &[u8]) -> Result<(Self, Range<usize>), CdrError> {
        let mut dec = CdrDecoder::new(bytes, Endian::Big);
        let tag = dec.read_u8()?;
        // `body`, the last thing read, ends where the decoder stands.
        let just_read =
            |body: &[u8], dec: &CdrDecoder<'_>| dec.position() - body.len()..dec.position();
        let mut bulk = 0..0;
        let message = match tag {
            0 => {
                let (conn, direction, op_seq, body) = decode_iiop(&mut dec)?;
                bulk = just_read(body, &dec);
                EternalMessage::Iiop {
                    conn,
                    direction,
                    op_seq,
                    bytes: Vec::new(),
                }
            }
            1 => EternalMessage::ReplicaJoining {
                group: GroupId(dec.read_u32()?),
                host: NodeId(dec.read_u32()?),
            },
            2 => EternalMessage::ReplicaFault {
                group: GroupId(dec.read_u32()?),
                host: NodeId(dec.read_u32()?),
            },
            3 => EternalMessage::StateRetrieval {
                group: GroupId(dec.read_u32()?),
                transfer: TransferId(dec.read_u64()?),
                purpose: decode_purpose(&mut dec)?,
            },
            4 => EternalMessage::StateAssignment {
                transfer: TransferId(dec.read_u64()?),
                purpose: decode_purpose(&mut dec)?,
                state: Box::new(ThreeKindsOfState::decode(&mut dec)?),
            },
            5 => EternalMessage::LoadTick {
                group: GroupId(dec.read_u32()?),
            },
            6 => {
                let mut snap = HealthSnapshot {
                    node: dec.read_u64()?,
                    seq: dec.read_u64()?,
                    published_ns: dec.read_u64()?,
                    token_age_ns: dec.read_u64()?,
                    broadcasts: dec.read_u64()?,
                    delivered: dec.read_u64()?,
                    retransmits: dec.read_u64()?,
                    reformations: dec.read_u64()?,
                    holding_depth: dec.read_u64()?,
                    reassembly_depth: dec.read_u64()?,
                    dedup_resident: dec.read_u64()?,
                    recovering: dec.read_u64()?,
                    pending_depth: dec.read_u64()?,
                    flow_occupancy: dec.read_u64()?,
                    reassembly_bytes: dec.read_u64()?,
                    log_suffix: dec.read_u64()?,
                    digest_epoch: dec.read_u64()?,
                    digests: Vec::new(),
                };
                let n = dec.read_u32()? as usize;
                snap.digests.reserve(n.min(1024));
                for _ in 0..n {
                    let g = dec.read_u64()?;
                    let d = dec.read_u64()?;
                    snap.digests.push((g, d));
                }
                EternalMessage::Health {
                    snap: Box::new(snap),
                }
            }
            7 => {
                let group = GroupId(dec.read_u32()?);
                let transfer = TransferId(dec.read_u64()?);
                let new_host = NodeId(dec.read_u32()?);
                let index = dec.read_u32()?;
                let total = dec.read_u32()?;
                bulk = just_read(dec.read_octets()?, &dec);
                EternalMessage::StateChunk {
                    group,
                    transfer,
                    new_host,
                    index,
                    total,
                    bytes: Vec::new(),
                }
            }
            8 => {
                let group = GroupId(dec.read_u32()?);
                let transfer = TransferId(dec.read_u64()?);
                let new_host = NodeId(dec.read_u32()?);
                let n = dec.read_u32()?;
                let mut entries = Vec::with_capacity(n.min(4096) as usize);
                for _ in 0..n {
                    entries.push(OrderedInput::decode(&mut dec)?);
                }
                EternalMessage::StateSuffix {
                    group,
                    transfer,
                    new_host,
                    entries,
                }
            }
            other => return Err(CdrError::UnknownTypeCodeKind(other as u32)),
        };
        Ok((message, bulk))
    }
}

/// An ordered message as a processor receives it: every field decoded
/// but the bulk body, which is not copied. All that decides a message's
/// fate — whose it is, whether it is a duplicate, whether anything
/// local wants it — is in the head; only a replica that takes the
/// message, or a log that keeps it, reads or copies the body.
#[derive(Debug)]
pub struct Delivered<'a> {
    /// The message, with the body of an [`EternalMessage::Iiop`] or an
    /// [`EternalMessage::StateChunk`] left empty.
    pub head: EternalMessage,
    /// That body (empty for the other variants): a view into the
    /// delivered Totem payload when the message came in one fragment,
    /// the reassembly buffer itself when it came in several.
    pub body: Cow<'a, [u8]>,
}

impl<'a> Delivered<'a> {
    /// Decodes [`EternalMessage::to_bytes`] output; the body stays in
    /// `bytes`.
    ///
    /// # Errors
    ///
    /// As [`EternalMessage::from_bytes`].
    pub fn view(bytes: &'a [u8]) -> Result<Self, CdrError> {
        let (head, bulk) = EternalMessage::decode(bytes)?;
        let body = Cow::Borrowed(&bytes[bulk]);
        Ok(Delivered { head, body })
    }

    /// As [`Delivered::view`], out of a buffer the caller is finished
    /// with (a reassembled message's): the body — nearly all of such a
    /// buffer — stays in it, moved down over the header, and is not
    /// copied out.
    ///
    /// # Errors
    ///
    /// As [`EternalMessage::from_bytes`].
    pub fn from_buffer(mut buf: Vec<u8>) -> Result<Delivered<'static>, CdrError> {
        let (head, bulk) = EternalMessage::decode(&buf)?;
        let body = if bulk.is_empty() {
            // Nothing to keep: the buffer is freed here, not held
            // through the delivery.
            Cow::Borrowed(&[][..])
        } else {
            buf.truncate(bulk.end);
            buf.drain(..bulk.start);
            Cow::Owned(buf)
        };
        Ok(Delivered { head, body })
    }

    /// The owned message: the body is copied if it was a view, moved if
    /// it was a buffer.
    pub fn into_message(self) -> EternalMessage {
        let mut message = self.head;
        if let Some(body) = message.bulk_mut() {
            *body = self.body.into_owned();
        }
        message
    }
}

impl From<EternalMessage> for Delivered<'static> {
    /// An owned message as it would have been delivered; its body is
    /// moved, not copied.
    fn from(mut head: EternalMessage) -> Self {
        let body = head.bulk_mut().map(std::mem::take).unwrap_or_default();
        Delivered {
            head,
            body: Cow::Owned(body),
        }
    }
}

fn encode_purpose(enc: &mut CdrEncoder, p: RetrievalPurpose) {
    match p {
        RetrievalPurpose::Recovery { new_host } => {
            enc.write_u8(0);
            enc.write_u32(new_host.0);
        }
        RetrievalPurpose::Checkpoint => enc.write_u8(1),
    }
}

/// Where [`encode_purpose`] stops when it starts at `at`.
fn purpose_end(at: usize, p: RetrievalPurpose) -> usize {
    match p {
        RetrievalPurpose::Recovery { .. } => end_u32(at + 1),
        RetrievalPurpose::Checkpoint => at + 1,
    }
}

fn decode_purpose(dec: &mut CdrDecoder<'_>) -> Result<RetrievalPurpose, CdrError> {
    Ok(match dec.read_u8()? {
        0 => RetrievalPurpose::Recovery {
            new_host: NodeId(dec.read_u32()?),
        },
        1 => RetrievalPurpose::Checkpoint,
        other => return Err(bad_discriminant(other)),
    })
}

/// One fragment of an [`EternalMessage`] as carried in a single Totem
/// broadcast. The chunk is borrowed — from the encoded message when
/// fragmenting, from the delivered payload when reassembling — so the
/// envelope costs no copy in either direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFragment<'a> {
    /// The multicasting processor (scopes `msg_id`).
    pub origin: NodeId,
    /// Per-origin message counter.
    pub msg_id: u64,
    /// This fragment's index, `0..total`.
    pub index: u32,
    /// Total fragments in the message.
    pub total: u32,
    /// The byte slice.
    pub chunk: &'a [u8],
}

/// Fixed CDR overhead of a fragment envelope (origin + msg_id + index +
/// total + seq-length word, with alignment).
pub const FRAGMENT_OVERHEAD: usize = 28;

impl<'a> WireFragment<'a> {
    /// Serializes the fragment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = FRAGMENT_OVERHEAD + self.chunk.len();
        let mut enc = CdrEncoder::with_capacity(Endian::Big, len);
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Writes the fragment as a CDR stream of its own (aligned from the
    /// encoder's base).
    fn encode(&self, enc: &mut CdrEncoder) {
        self.encode_envelope(enc, self.chunk.len());
        enc.write_raw(self.chunk);
    }

    /// Writes all of the fragment but its chunk, announced as
    /// `chunk_len` bytes long: the [`FRAGMENT_OVERHEAD`] bytes that end
    /// in that length, for the chunk to follow.
    fn encode_envelope(&self, enc: &mut CdrEncoder, chunk_len: usize) {
        enc.write_u32(self.origin.0);
        enc.write_u64(self.msg_id);
        enc.write_u32(self.index);
        enc.write_u32(self.total);
        enc.write_u32(chunk_len as u32);
    }

    /// Deserializes a fragment; its chunk is a view into `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates CDR failures.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CdrError> {
        let mut dec = CdrDecoder::new(bytes, Endian::Big);
        let origin = NodeId(dec.read_u32()?);
        let msg_id = dec.read_u64()?;
        let index = dec.read_u32()?;
        let total = dec.read_u32()?;
        Ok(WireFragment {
            origin,
            msg_id,
            index,
            total,
            chunk: dec.read_octets()?,
        })
    }
}

/// Splits an encoded [`EternalMessage`] into fragment payloads, each of
/// whose *encoded* size is at most `max_payload` bytes.
///
/// The fragments are views into one exactly-sized buffer, so a message
/// costs one payload allocation however many frames it spans, and that
/// buffer is freed when the last holder of its last fragment lets go.
///
/// # Panics
///
/// Panics if `max_payload` cannot hold the envelope plus one byte.
pub fn fragment_eternal(
    origin: NodeId,
    msg_id: u64,
    encoded: &[u8],
    max_payload: usize,
) -> Vec<Bytes> {
    assert!(
        max_payload > FRAGMENT_OVERHEAD,
        "max_payload {max_payload} cannot hold a fragment envelope"
    );
    let chunk_size = max_payload - FRAGMENT_OVERHEAD;
    let total = encoded.len().div_ceil(chunk_size).max(1);
    let mut buf = Vec::with_capacity(total * FRAGMENT_OVERHEAD + encoded.len());
    for index in 0..total {
        let start = index * chunk_size;
        let end = (start + chunk_size).min(encoded.len());
        let mut enc = CdrEncoder::append_to(buf, Endian::Big);
        WireFragment {
            origin,
            msg_id,
            index: index as u32,
            total: total as u32,
            chunk: &encoded[start..end],
        }
        .encode(&mut enc);
        buf = enc.into_bytes();
    }
    // Every fragment but the last fills `max_payload` exactly.
    debug_assert_eq!(buf.len(), total * FRAGMENT_OVERHEAD + encoded.len());
    let buf = Bytes::from(buf);
    (0..total)
        .map(|index| {
            let start = index * max_payload;
            buf.slice(start..(start + max_payload).min(buf.len()))
        })
        .collect()
}

/// A partially reassembled message: the fragment index expected next,
/// the total announced by the first fragment (every later fragment must
/// agree), and the bytes accumulated so far, in a buffer sized by the
/// first fragment for the whole message.
#[derive(Debug)]
struct Partial {
    next: u32,
    total: u32,
    bytes: Vec<u8>,
}

/// Most bytes [`EternalReassembler::push`] reserves up front on the word
/// of a first fragment's `total` (a larger message still reassembles; its
/// buffer then grows as fragments arrive).
const MAX_PRESIZE: usize = 1 << 24;

/// Reassembles [`WireFragment`] streams back into [`EternalMessage`]s.
///
/// Totem delivers fragments of one origin in order, but fragments of
/// different origins interleave; partial messages are keyed by
/// `(origin, msg_id)`. When a processor leaves the membership its
/// partials must be evicted via [`EternalReassembler::forget_origin`]:
/// a crashed sender will never complete them, and if it restarts with
/// its `msg_id` counter rewound, stale bytes would otherwise collide
/// with the reused key and corrupt or swallow the new message.
#[derive(Debug, Default)]
pub struct EternalReassembler {
    partial: BTreeMap<(NodeId, u64), Partial>,
}

impl EternalReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages currently partially assembled.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Number of messages partially assembled from `origin`.
    pub fn pending_from(&self, origin: NodeId) -> usize {
        self.partial.keys().filter(|&&(o, _)| o == origin).count()
    }

    /// Bytes accumulated across all partially assembled messages (a
    /// backpressure gauge: memory parked waiting for trailing
    /// fragments).
    pub fn pending_bytes(&self) -> usize {
        self.partial.values().map(|p| p.bytes.len()).sum()
    }

    /// Drops every partial from `origin`. Called on a Totem membership
    /// change that excludes `origin` (mirroring `giop::Reassembler`'s
    /// per-connection `reset`): the departed processor will never send
    /// the remaining fragments, and may reuse `msg_id`s after restart.
    pub fn forget_origin(&mut self, origin: NodeId) {
        self.partial.retain(|&(o, _), _| o != origin);
    }

    /// Consumes one Totem payload; returns the completed message when
    /// this was its last fragment.
    ///
    /// # Errors
    ///
    /// As [`EternalReassembler::push_view`].
    pub fn push(&mut self, payload: &[u8]) -> Result<Option<EternalMessage>, CdrError> {
        Ok(self.push_view(payload)?.map(Delivered::into_message))
    }

    /// Consumes one Totem payload; returns the completed message when
    /// this was its last fragment, its body a view into `payload` if it
    /// was also its first.
    ///
    /// # Errors
    ///
    /// Propagates envelope/message decode failures; out-of-order
    /// fragments (impossible under Totem's guarantees), a fragment
    /// whose `total` disagrees with the first fragment's, or a zero
    /// `total` are reported as [`CdrError::TypeMismatch`] and the
    /// partial entry is dropped.
    pub fn push_view<'a>(&mut self, payload: &'a [u8]) -> Result<Option<Delivered<'a>>, CdrError> {
        let WireFragment {
            origin,
            msg_id,
            index,
            total,
            chunk,
        } = WireFragment::from_bytes(payload)?;
        if total == 0 {
            return Err(CdrError::TypeMismatch {
                expected: "fragment total > 0",
                found: "zero-fragment message",
            });
        }
        let key = (origin, msg_id);
        let begun = !self.partial.is_empty() && self.partial.contains_key(&key);
        if total == 1 && index == 0 && !begun {
            // The common case — a message that fits one frame — is
            // decoded straight from the delivered bytes.
            return Delivered::view(chunk).map(Some);
        }
        let entry = self.partial.entry(key).or_insert_with(|| {
            // Every fragment but the last is as long as the first, so
            // this holds the whole message and never grows. The bound
            // keeps a corrupt `total` from reserving the address space.
            // Not a pooled buffer: the message keeps it.
            let whole = (total as usize)
                .saturating_mul(chunk.len())
                .min(MAX_PRESIZE);
            Partial {
                next: 0,
                total,
                bytes: Vec::with_capacity(whole),
            }
        });
        if entry.total != total {
            self.partial.remove(&key);
            return Err(CdrError::TypeMismatch {
                expected: "consistent fragment total",
                found: "total mismatch within one message",
            });
        }
        if entry.next != index {
            self.partial.remove(&key);
            return Err(CdrError::TypeMismatch {
                expected: "next fragment index",
                found: "out-of-order fragment",
            });
        }
        entry.next += 1;
        entry.bytes.extend_from_slice(chunk);
        if entry.next == entry.total {
            let Partial { bytes, .. } = self.partial.remove(&key).expect("just inserted");
            // The buffer is this reassembler's own: the message keeps it.
            Delivered::from_buffer(bytes).map(Some)
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::state3::{InfraStateTransfer, OrbPoaStateTransfer};
    use eternal_sim::rng::SimRng;

    fn conn() -> ConnectionName {
        ConnectionName {
            client: GroupId(1),
            server: GroupId(2),
        }
    }

    fn samples() -> Vec<EternalMessage> {
        vec![
            EternalMessage::Iiop {
                conn: conn(),
                direction: Direction::Request,
                op_seq: 42,
                bytes: vec![1, 2, 3],
            },
            EternalMessage::ReplicaJoining {
                group: GroupId(3),
                host: NodeId(1),
            },
            EternalMessage::ReplicaFault {
                group: GroupId(3),
                host: NodeId(2),
            },
            EternalMessage::StateRetrieval {
                group: GroupId(3),
                transfer: TransferId(9),
                purpose: RetrievalPurpose::Recovery {
                    new_host: NodeId(4),
                },
            },
            EternalMessage::StateRetrieval {
                group: GroupId(3),
                transfer: TransferId(10),
                purpose: RetrievalPurpose::Checkpoint,
            },
            EternalMessage::StateAssignment {
                transfer: TransferId(9),
                purpose: RetrievalPurpose::Recovery {
                    new_host: NodeId(4),
                },
                state: Box::new(ThreeKindsOfState {
                    group: GroupId(3),
                    application: vec![7; 100],
                    orb_poa: OrbPoaStateTransfer {
                        next_request_ids: vec![(conn(), 351)],
                        handshakes: vec![(conn(), vec![9, 9])],
                    },
                    infrastructure: InfraStateTransfer::default(),
                }),
            },
            EternalMessage::LoadTick { group: GroupId(7) },
            EternalMessage::Health {
                snap: Box::new(HealthSnapshot {
                    node: 2,
                    seq: 41,
                    published_ns: 123_456_789,
                    token_age_ns: 350_000,
                    broadcasts: 100,
                    delivered: 400,
                    retransmits: 3,
                    reformations: 1,
                    holding_depth: 0,
                    reassembly_depth: 1,
                    dedup_resident: 12,
                    recovering: 0,
                    pending_depth: 6,
                    flow_occupancy: 3,
                    reassembly_bytes: 1408,
                    log_suffix: 17,
                    digest_epoch: 9,
                    digests: vec![(0, 0xDEAD), (1, 0xBEEF)],
                }),
            },
            EternalMessage::Health {
                snap: Box::new(HealthSnapshot {
                    node: 0,
                    seq: 0,
                    digest_epoch: HealthSnapshot::NO_DIGEST,
                    ..HealthSnapshot::default()
                }),
            },
            EternalMessage::StateChunk {
                group: GroupId(3),
                transfer: TransferId(9),
                new_host: NodeId(4),
                index: 2,
                total: 7,
                bytes: vec![0xAB; 4096],
            },
            EternalMessage::StateSuffix {
                group: GroupId(3),
                transfer: TransferId(9),
                new_host: NodeId(4),
                entries: vec![
                    OrderedInput::Iiop {
                        conn: conn(),
                        direction: Direction::Request,
                        op_seq: 17,
                        bytes: vec![1, 2, 3, 4],
                    },
                    OrderedInput::LoadTick,
                    OrderedInput::Iiop {
                        conn: conn(),
                        direction: Direction::Reply,
                        op_seq: 17,
                        bytes: vec![5, 6],
                    },
                ],
            },
            EternalMessage::StateSuffix {
                group: GroupId(1),
                transfer: TransferId(2),
                new_host: NodeId(0),
                entries: Vec::new(),
            },
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for msg in samples() {
            let bytes = msg.to_bytes();
            assert_eq!(EternalMessage::from_bytes(&bytes).unwrap(), msg);
        }
    }

    /// Golden wire vectors of the `Iiop` sample and of the `StateSuffix`
    /// sample (a request, a load tick, a reply), captured at the commit
    /// before the two shared one codec: the bytes have not moved.
    #[test]
    fn iiop_and_suffix_wire_bytes_are_pinned() {
        let golden = [
            "000000000000000100000002000000000000002a00000003010203",
            "0800000000000003000000000000000900000004000000030000000000000001\
             0000000200000000000000110000000401020304010000000000000100000002\
             0100000000000011000000020506",
        ];
        let pinned = samples().into_iter().filter(|m| match m {
            EternalMessage::Iiop { .. } => true,
            EternalMessage::StateSuffix { entries, .. } => !entries.is_empty(),
            _ => false,
        });
        assert_eq!(pinned.clone().count(), golden.len());
        for (message, hex) in pinned.zip(golden) {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(message.to_bytes(), bytes);
            assert_eq!(EternalMessage::from_bytes(&bytes).unwrap(), message);
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The three two-valued discriminants of the wire format — an IIOP
    /// message's direction, a suffix entry's tag, a retrieval's purpose
    /// — take the two values their encoders write and no other: one
    /// flipped bit must not turn a request into a reply, or an entry
    /// into a tick. Positions are into the pinned vectors above, and
    /// into those of the two retrievals of `samples()`.
    #[test]
    fn discriminants_other_than_zero_and_one_are_rejected() {
        let iiop = "000000000000000100000002000000000000002a00000003010203";
        let suffix = "0800000000000003000000000000000900000004000000030000000000000001\
                      0000000200000000000000110000000401020304010000000000000100000002\
                      0100000000000011000000020506";
        let recovery = "030000000000000300000000000000090000000000000004";
        let checkpoint = "0300000000000003000000000000000a01";
        let positions = [
            (iiop, 12, "direction of an Iiop"),
            (suffix, 36, "direction of a suffix entry"),
            (suffix, 52, "tag of a suffix entry"),
            (suffix, 64, "direction of a later suffix entry"),
            (recovery, 16, "purpose: recovery"),
            (checkpoint, 16, "purpose: checkpoint"),
        ];
        for (hex, at, what) in positions {
            let vector = unhex(hex);
            let message = EternalMessage::from_bytes(&vector).expect(what);
            assert_eq!(message.to_bytes(), vector, "{what}");
            assert!(vector[at] <= 1, "{what}");
            for other in 2..=255 {
                let mut damaged = vector.clone();
                damaged[at] = other;
                let expected = CdrError::InvalidEnumDiscriminant {
                    got: u32::from(other),
                    count: 2,
                };
                assert_eq!(
                    EternalMessage::from_bytes(&damaged),
                    Err(expected),
                    "{what}"
                );
            }
        }
        // The other legal value in a direction's place is the other
        // direction, byte for byte.
        let mut reply = unhex(iiop);
        reply[12] = 1;
        let message = EternalMessage::from_bytes(&reply).unwrap();
        assert!(matches!(
            message,
            EternalMessage::Iiop {
                direction: Direction::Reply,
                ..
            }
        ));
        assert_eq!(message.to_bytes(), reply);
    }

    /// Every variant is encoded into a buffer reserved once, at exactly
    /// the length computed from its fields beforehand.
    #[test]
    fn every_variant_is_encoded_into_a_buffer_of_exactly_its_length() {
        let fragment = WireFragment {
            origin: NodeId(1),
            msg_id: 2,
            index: 0,
            total: 1,
            chunk: &[9; 33],
        };
        eternal_cdr::pool::reset();
        let encoded = fragment.to_bytes();
        assert_eq!(encoded.capacity(), encoded.len());
        for message in samples() {
            // An empty pool, so the buffer is the encoder's own.
            eternal_cdr::pool::reset();
            let encoded = message.to_bytes();
            assert_eq!(encoded.len(), message.encoded_len(), "{}", message.kind());
            assert_eq!(encoded.capacity(), encoded.len(), "{}", message.kind());
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(EternalMessage::from_bytes(&[99]).is_err());
        assert!(EternalMessage::from_bytes(&[]).is_err());
    }

    #[test]
    fn fragment_envelope_overhead_is_accurate() {
        let frag = WireFragment {
            origin: NodeId(1),
            msg_id: 2,
            index: 0,
            total: 1,
            chunk: &[0; 100],
        };
        assert_eq!(frag.to_bytes().len(), FRAGMENT_OVERHEAD + 100);
    }

    #[test]
    fn small_message_is_one_fragment() {
        let msg = samples().remove(1);
        let frags = fragment_eternal(NodeId(0), 7, &msg.to_bytes(), 1416);
        assert_eq!(frags.len(), 1);
        let mut r = EternalReassembler::new();
        assert_eq!(r.push(&frags[0]).unwrap(), Some(msg));
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let msg = EternalMessage::StateAssignment {
            transfer: TransferId(1),
            purpose: RetrievalPurpose::Checkpoint,
            state: Box::new(ThreeKindsOfState {
                group: GroupId(1),
                application: (0..350_000u32).map(|i| (i % 251) as u8).collect(),
                orb_poa: OrbPoaStateTransfer::default(),
                infrastructure: InfraStateTransfer::default(),
            }),
        };
        let encoded = msg.to_bytes();
        let frags = fragment_eternal(NodeId(2), 5, &encoded, 1416);
        assert_eq!(
            frags.len(),
            encoded.len().div_ceil(1416 - FRAGMENT_OVERHEAD)
        );
        assert!(frags.iter().all(|f| f.len() <= 1416));
        let mut r = EternalReassembler::new();
        let mut out = None;
        for (i, f) in frags.iter().enumerate() {
            let res = r.push(f).unwrap();
            if i + 1 < frags.len() {
                assert!(res.is_none());
                assert_eq!(r.pending(), 1);
            } else {
                out = res;
            }
        }
        assert_eq!(out, Some(msg));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn interleaved_origins_reassemble_independently() {
        let m1 = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq: 1,
            bytes: vec![1; 5000],
        };
        let m2 = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Reply,
            op_seq: 1,
            bytes: vec![2; 5000],
        };
        let f1 = fragment_eternal(NodeId(0), 1, &m1.to_bytes(), 1000);
        let f2 = fragment_eternal(NodeId(1), 1, &m2.to_bytes(), 1000);
        let mut r = EternalReassembler::new();
        let mut done = Vec::new();
        // Strict interleave.
        for i in 0..f1.len().max(f2.len()) {
            if let Some(f) = f1.get(i) {
                if let Some(m) = r.push(f).unwrap() {
                    done.push(m);
                }
            }
            if let Some(f) = f2.get(i) {
                if let Some(m) = r.push(f).unwrap() {
                    done.push(m);
                }
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.contains(&m1) && done.contains(&m2));
    }

    #[test]
    fn out_of_order_fragment_rejected() {
        let msg = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq: 0,
            bytes: vec![0; 3000],
        };
        let frags = fragment_eternal(NodeId(0), 1, &msg.to_bytes(), 1000);
        let mut r = EternalReassembler::new();
        assert!(r.push(&frags[1]).is_err());
    }

    #[test]
    fn inconsistent_total_rejected_not_tolerated() {
        // Regression: a fragment lying about `total` used to be
        // silently tolerated (only the completion check consulted it),
        // so a malformed stream could complete early or never.
        let msg = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq: 0,
            bytes: vec![7; 2500],
        };
        let frags = fragment_eternal(NodeId(0), 1, &msg.to_bytes(), 1000);
        assert!(frags.len() >= 3);
        let mut lying = WireFragment::from_bytes(&frags[1]).unwrap();
        lying.total += 1;
        let mut r = EternalReassembler::new();
        assert_eq!(r.push(&frags[0]).unwrap(), None);
        assert!(
            r.push(&lying.to_bytes()).is_err(),
            "total mismatch rejected"
        );
        assert_eq!(r.pending(), 0, "poisoned partial dropped");
    }

    #[test]
    fn zero_total_rejected() {
        // Regression: `total == 0` could never satisfy the completion
        // check, so the entry leaked forever.
        let frag = WireFragment {
            origin: NodeId(3),
            msg_id: 9,
            index: 0,
            total: 0,
            chunk: &[1, 2, 3],
        };
        let mut r = EternalReassembler::new();
        assert!(r.push(&frag.to_bytes()).is_err());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn forget_origin_evicts_partials_and_permits_msg_id_reuse() {
        // Regression: a processor crashing mid-message left its partial
        // forever; after restart it reuses msg_ids from 0, and the
        // stale entry then corrupted/swallowed the fresh message.
        let origin = NodeId(2);
        let old = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq: 1,
            bytes: vec![0xAA; 3000],
        };
        let old_frags = fragment_eternal(origin, 1, &old.to_bytes(), 1000);
        assert!(old_frags.len() >= 3);
        let mut r = EternalReassembler::new();
        // Crash mid-message: only a prefix arrives.
        r.push(&old_frags[0]).unwrap();
        r.push(&old_frags[1]).unwrap();
        assert_eq!(r.pending_from(origin), 1);
        // Membership change excluding the origin.
        r.forget_origin(origin);
        assert_eq!(r.pending(), 0, "stale partial evicted");
        // Restarted origin reuses msg_id 1 for a different message.
        let new = EternalMessage::ReplicaJoining {
            group: GroupId(5),
            host: origin,
        };
        let new_frags = fragment_eternal(origin, 1, &new.to_bytes(), 1000);
        let mut out = None;
        for f in &new_frags {
            out = r.push(f).unwrap();
        }
        assert_eq!(out, Some(new), "reused msg_id delivers cleanly");
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn forget_origin_spares_other_origins() {
        let m = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Reply,
            op_seq: 2,
            bytes: vec![1; 2000],
        };
        let fa = fragment_eternal(NodeId(0), 1, &m.to_bytes(), 1000);
        let fb = fragment_eternal(NodeId(1), 1, &m.to_bytes(), 1000);
        let mut r = EternalReassembler::new();
        r.push(&fa[0]).unwrap();
        r.push(&fb[0]).unwrap();
        r.forget_origin(NodeId(0));
        assert_eq!(r.pending_from(NodeId(0)), 0);
        assert_eq!(r.pending_from(NodeId(1)), 1);
        // The spared message still completes.
        let mut out = None;
        for f in &fb[1..] {
            out = r.push(f).unwrap();
        }
        assert_eq!(out, Some(m));
    }

    #[test]
    fn fragments_of_one_message_share_one_exact_buffer() {
        let encoded = vec![7u8; 250];
        let frags = fragment_eternal(NodeId(0), 1, &encoded, 100 + FRAGMENT_OVERHEAD);
        assert_eq!(frags.len(), 3);
        assert!(frags.iter().all(|f| Bytes::ptr_eq(f, &frags[0])));
        // Each is byte-for-byte the stand-alone encoding.
        for (i, f) in frags.iter().enumerate() {
            let alone = WireFragment {
                origin: NodeId(0),
                msg_id: 1,
                index: i as u32,
                total: 3,
                chunk: &encoded[i * 100..(i * 100 + 100).min(250)],
            };
            assert_eq!(&f[..], &alone.to_bytes()[..]);
        }
    }

    /// An encoded IIOP message `size` bytes long — or, below the
    /// smallest such message, its truncated (undecodable) prefix.
    fn encoded_of_size(size: usize, rng: &mut SimRng) -> Vec<u8> {
        const HEADER: usize = 24;
        let body = (0..size.saturating_sub(HEADER))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut encoded = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Reply,
            op_seq: rng.next_u64() as u32,
            bytes: body,
        }
        .to_bytes();
        assert_eq!(encoded.len(), size.max(HEADER));
        encoded.truncate(size);
        encoded
    }

    #[test]
    fn reassembly_equals_decoding_the_whole_at_every_size() {
        const CHUNK: usize = 100;
        let mut rng = SimRng::seed_from_u64(0x5EED);
        // Dense around every multiple of the chunk size, sparse between.
        let mut sizes: Vec<usize> = (0..=3)
            .flat_map(|k| (k * CHUNK).saturating_sub(3)..=(k * CHUNK + 3).min(3 * CHUNK))
            .collect();
        sizes.extend((0..40).map(|_| rng.gen_range(3 * CHUNK as u64 + 1) as usize));
        let mut r = EternalReassembler::new();
        for (round, &size_a) in sizes.iter().enumerate() {
            // Two origins, each sending one message; their fragments
            // interleave at random.
            let size_b = sizes[rng.gen_range(sizes.len() as u64) as usize];
            let msg_id = round as u64;
            let wholes = [
                encoded_of_size(size_a, &mut rng),
                encoded_of_size(size_b, &mut rng),
            ];
            let mut queues = [NodeId(0), NodeId(1)].map(|origin| {
                let whole = &wholes[origin.0 as usize];
                let frags = fragment_eternal(origin, msg_id, whole, CHUNK + FRAGMENT_OVERHEAD);
                assert_eq!(frags.len(), whole.len().div_ceil(CHUNK).max(1));
                (origin, frags.len(), frags.into_iter())
            });
            let mut capacity: [Option<usize>; 2] = [None, None];
            while queues.iter().any(|(_, _, q)| q.len() > 0) {
                let pick = rng.gen_range(2) as usize;
                let (origin, _, queue) = &mut queues[pick];
                let Some(frag) = queue.next() else { continue };
                let pushed = r.push(&frag);
                if queue.len() > 0 {
                    assert_eq!(pushed, Ok(None), "message incomplete");
                    let held = r.partial[&(*origin, msg_id)].bytes.capacity();
                    if *capacity[pick].get_or_insert(held) != held {
                        panic!("partial of {size_a}/{size_b} B reallocated");
                    }
                } else {
                    let whole = EternalMessage::from_bytes(&wholes[pick]);
                    assert_eq!(pushed, whole.map(Some), "sizes {size_a}/{size_b}");
                }
                // Only a message some but not all of whose fragments
                // have arrived occupies a partial: a single-fragment
                // message never does.
                let begun = |(_, total, q): &(_, usize, std::vec::IntoIter<Bytes>)| {
                    (1..*total).contains(&q.len())
                };
                assert_eq!(r.pending(), queues.iter().filter(|q| begun(q)).count());
            }
            assert_eq!(r.pending(), 0);
        }
        // The hand-over of a reassembled buffer: decoding a message out
        // of a buffer of its own — with a reassembly buffer's spare
        // capacity — yields what decoding a copy of it does, at every
        // size (the smallest are truncated, hence undecodable), and the
        // body of the two bulk variants stays where it was (an empty
        // one has no place: the buffer is freed).
        for &size in &sizes {
            let chunk = EternalMessage::StateChunk {
                group: GroupId(3),
                transfer: TransferId(9),
                new_host: NodeId(4),
                index: 1,
                total: 2,
                bytes: vec![0xC4; size],
            };
            for whole in [encoded_of_size(size, &mut rng), chunk.to_bytes()] {
                let mut own = Vec::with_capacity(whole.len() + CHUNK);
                own.extend_from_slice(&whole);
                let buffer = own.as_ptr();
                let handed_over = Delivered::from_buffer(own).map(Delivered::into_message);
                assert_eq!(handed_over, EternalMessage::from_bytes(&whole), "{size}");
                if let Ok(
                    EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. },
                ) = handed_over
                {
                    assert!(
                        bytes.is_empty() || bytes.as_ptr() == buffer,
                        "the body was copied out"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "envelope")]
    fn tiny_max_payload_panics() {
        fragment_eternal(NodeId(0), 1, &[0; 10], 8);
    }

    #[test]
    fn empty_message_body_still_one_fragment() {
        let frags = fragment_eternal(NodeId(0), 1, &[], 100);
        assert_eq!(frags.len(), 1);
    }
}
