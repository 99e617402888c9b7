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
    /// travels as [`EternalMessage::StateChunk`]s instead. Its bulk body
    /// is the application state, and the other two kinds follow it.
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
            } => {
                encode_iiop_head(enc, *conn, *direction, *op_seq);
                enc.write_octet_seq(bytes);
            }
            OrderedInput::LoadTick => enc.write_u8(1),
        }
    }

    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(match dec.read_u8()? {
            0 => {
                let (conn, direction, op_seq) = decode_iiop_head(dec)?;
                OrderedInput::Iiop {
                    conn,
                    direction,
                    op_seq,
                    bytes: dec.read_octets()?.to_vec(),
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

/// The wire form of an intercepted IIOP message, tag included, up to
/// its body (a `sequence<octet>`): the same bytes whether it travels as
/// an [`EternalMessage::Iiop`] of its own or as an
/// [`OrderedInput::Iiop`] inside a transfer suffix.
fn encode_iiop_head(enc: &mut CdrEncoder, conn: ConnectionName, direction: Direction, op_seq: u32) {
    enc.write_u8(0);
    enc.write_u32(conn.client.0);
    enc.write_u32(conn.server.0);
    enc.write_u8(direction.wire_byte());
    enc.write_u32(op_seq);
}

/// Where an IIOP message with a `body`-byte body stops when it starts
/// at `at`: tag, the connection's two groups, direction, operation id,
/// body.
fn iiop_end(at: usize, body: usize) -> usize {
    let direction = end_u32(end_u32(at + 1)) + 1;
    end_octet_seq(end_u32(direction), body)
}

/// Reads what [`encode_iiop_head`] wrote after its tag.
fn decode_iiop_head(
    dec: &mut CdrDecoder<'_>,
) -> Result<(ConnectionName, Direction, u32), CdrError> {
    let conn = ConnectionName {
        client: GroupId(dec.read_u32()?),
        server: GroupId(dec.read_u32()?),
    };
    let direction = decode_direction(dec)?;
    Ok((conn, direction, dec.read_u32()?))
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

    /// What [`fragment_eternal`] makes of [`EternalMessage::to_bytes`],
    /// cut from its one buffer as the frames are taken (no list of them
    /// is made). A message that fits one frame is written there by
    /// [`EternalMessage::single_fragment`]; the head of a larger `Iiop`
    /// or `StateChunk` is encoded straight into the first frame and the
    /// body copied once, into the frames; other messages are encoded
    /// into a pooled buffer first. Panics as [`fragment_eternal`] does.
    pub fn fragments(
        &self,
        origin: NodeId,
        msg_id: u64,
        max_payload: usize,
    ) -> impl ExactSizeIterator<Item = Bytes> {
        let body = self.bulk();
        let head = self.encoded_len() - body.len();
        let tail = matches!(self, EternalMessage::StateAssignment { .. });
        let buf = if let Some(whole) = self.single_fragment(origin, msg_id, max_payload) {
            Bytes::from(whole)
        } else if body.is_empty() || tail || FRAGMENT_OVERHEAD + head > max_payload {
            let encoded = self.to_bytes();
            let buf = fragment_stream(origin, msg_id, 0, |_| {}, &encoded, max_payload);
            eternal_cdr::pool::recycle(encoded);
            buf
        } else {
            let write_head = |enc: &mut CdrEncoder| self.encode_head(enc);
            fragment_stream(origin, msg_id, head, write_head, body, max_payload)
        };
        frames(buf, max_payload)
    }

    /// Writes the message as a CDR stream from `enc`'s base.
    fn encode(&self, enc: &mut CdrEncoder) {
        self.encode_head(enc);
        enc.write_raw(self.bulk());
        if let EternalMessage::StateAssignment { state, .. } = self {
            state.encode_tail(enc);
        }
    }

    /// Writes the message up to the bytes of its bulk body, whose length
    /// word it does write: the body follows it raw.
    fn encode_head(&self, enc: &mut CdrEncoder) {
        match self {
            EternalMessage::Iiop {
                conn,
                direction,
                op_seq,
                bytes,
            } => {
                encode_iiop_head(enc, *conn, *direction, *op_seq);
                enc.write_u32(bytes.len() as u32);
            }
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
                enc.write_u32(state.group.0);
                enc.write_u32(state.application.len() as u32);
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
                enc.write_u32(bytes.len() as u32);
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

    /// The bulk body of an `Iiop`, a `StateChunk` or a
    /// `StateAssignment`; empty for the other variants.
    fn bulk(&self) -> &[u8] {
        match self {
            EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => bytes,
            EternalMessage::StateAssignment { state, .. } => &state.application,
            _ => &[],
        }
    }

    /// The bulk body of the three variants that have one.
    fn bulk_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            EternalMessage::Iiop { bytes, .. } | EternalMessage::StateChunk { bytes, .. } => {
                Some(bytes)
            }
            EternalMessage::StateAssignment { state, .. } => Some(&mut state.application),
            _ => None,
        }
    }

    /// The one decoder. A bulk body is left empty in the returned
    /// message and reported as where it lies in `bytes`, for
    /// [`Delivered`] to view or to keep.
    fn decode(bytes: &[u8]) -> Result<(Self, Range<usize>), CdrError> {
        if let Some((mut head, body)) = Self::decode_bulk_head(bytes)? {
            let body = body_within(body, bytes.len())?;
            head.decode_tail(&bytes[body.end..], &[], body.end)?;
            return Ok((head, body));
        }
        let mut dec = CdrDecoder::new(bytes, Endian::Big);
        let message = match dec.read_u8()? {
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
        Ok((message, 0..0))
    }

    /// Decodes a message with a bulk body up to the body's length word:
    /// the message, that body (and what follows it) left empty, and
    /// where the body lies in the stream `bytes` begin, which need not
    /// hold it. `None` for the other variants.
    fn decode_bulk_head(bytes: &[u8]) -> Result<Option<(Self, Range<usize>)>, CdrError> {
        let dec = &mut CdrDecoder::new(bytes, Endian::Big);
        let head = match dec.read_u8()? {
            0 => {
                let (conn, direction, op_seq) = decode_iiop_head(dec)?;
                EternalMessage::Iiop {
                    conn,
                    direction,
                    op_seq,
                    bytes: Vec::new(),
                }
            }
            7 => EternalMessage::StateChunk {
                group: GroupId(dec.read_u32()?),
                transfer: TransferId(dec.read_u64()?),
                new_host: NodeId(dec.read_u32()?),
                index: dec.read_u32()?,
                total: dec.read_u32()?,
                bytes: Vec::new(),
            },
            4 => EternalMessage::StateAssignment {
                transfer: TransferId(dec.read_u64()?),
                purpose: decode_purpose(dec)?,
                state: Box::new(ThreeKindsOfState::of(GroupId(dec.read_u32()?))),
            },
            _ => return Ok(None),
        };
        let len = dec.read_u32()? as usize;
        Ok(Some((head, dec.position()..dec.position() + len)))
    }

    /// Decodes what follows an assignment's body, the other two kinds
    /// of state, from `first` and the `rest` after it, which start at
    /// `at` in the message: from a copy as far past a multiple of 4, the
    /// most they align to.
    fn decode_tail(&mut self, first: &[u8], rest: &[Bytes], at: usize) -> Result<(), CdrError> {
        let EternalMessage::StateAssignment { state, .. } = self else {
            return Ok(());
        };
        let len = first.len() + rest.iter().map(|piece| piece.len()).sum::<usize>();
        let mut stream = Vec::with_capacity(at % 4 + len);
        stream.resize(at % 4, 0);
        stream.extend_from_slice(first);
        rest.iter()
            .for_each(|piece| stream.extend_from_slice(piece));
        let dec = &mut CdrDecoder::new(&stream, Endian::Big);
        dec.read_raw(at % 4)?;
        state.decode_tail(dec)
    }
}

/// `body` when a stream `len` bytes long holds it; refused otherwise as
/// `read_octets` refuses a length it cannot honour.
fn body_within(body: Range<usize>, len: usize) -> Result<Range<usize>, CdrError> {
    match body.end <= len {
        true => Ok(body),
        false => Err(CdrError::LengthOverrun {
            declared: body.len() as u32,
            remaining: len - body.start,
        }),
    }
}

/// An ordered message as a processor receives it: every field decoded
/// but the bulk body, which is not copied. All that decides a message's
/// fate — whose it is, whether it is a duplicate, whether anything
/// local wants it — is in the head, and is decided at its total-order
/// point; only a reader of the body gathers or copies it.
#[derive(Debug)]
pub struct Delivered<'a> {
    /// The message, with its bulk body left empty.
    pub head: EternalMessage,
    /// That body (empty for the other variants), where it lies.
    pub body: Body<'a>,
}

/// Where the bulk body of a delivered message lies.
#[derive(Debug, Clone)]
pub enum Body<'a> {
    /// In one slice: the delivered payload of a message in one
    /// fragment, or a buffer of its own (an owned message, or one
    /// decoded whole).
    Whole(Cow<'a, [u8]>),
    /// Its slices of the frames it came in, in order
    /// ([`EternalReassembler::push_view`], whose
    /// [`EternalReassembler::recycle`] takes the list back).
    Pieces(Vec<Bytes>),
}

impl Body<'_> {
    fn slices(&self) -> impl Iterator<Item = &[u8]> {
        let (whole, pieces): (&[u8], &[Bytes]) = match self {
            Body::Whole(bytes) => (bytes, &[]),
            Body::Pieces(pieces) => (&[], pieces),
        };
        std::iter::once(whole).chain(pieces.iter().map(|piece| &piece[..]))
    }

    /// Its length in bytes.
    pub fn len(&self) -> usize {
        self.slices().map(<[u8]>::len).sum()
    }

    /// Whether it is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends it to `buf`.
    pub fn append_to(&self, buf: &mut Vec<u8>) {
        self.slices().for_each(|slice| buf.extend_from_slice(slice));
    }

    /// A copy in a buffer of exactly its length.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len());
        self.append_to(&mut bytes);
        bytes
    }
}

/// A body as the mechanisms read it: where it lies when that is one
/// slice, and otherwise gathered, once, into a scratch buffer they lend.
pub(crate) struct BodyReader<'b, 'a> {
    body: &'b Body<'a>,
    /// Empty until the body is gathered into it.
    scratch: &'b mut Vec<u8>,
}

impl<'b, 'a> BodyReader<'b, 'a> {
    pub(crate) fn new(body: &'b Body<'a>, scratch: &'b mut Vec<u8>) -> Self {
        scratch.clear();
        BodyReader { body, scratch }
    }

    /// The body in one slice.
    pub(crate) fn bytes(&mut self) -> &[u8] {
        match self.body {
            Body::Whole(bytes) => bytes,
            Body::Pieces(pieces) if pieces.len() == 1 => &pieces[0],
            body => {
                if self.scratch.is_empty() {
                    body.append_to(self.scratch);
                }
                self.scratch
            }
        }
    }

    /// A copy in a buffer of exactly its length.
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        self.body.to_vec()
    }
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
        let body = Body::Whole(Cow::Borrowed(&bytes[bulk]));
        Ok(Delivered { head, body })
    }

    /// The owned message: the body is moved if it was a buffer, copied
    /// otherwise.
    pub fn into_message(self) -> EternalMessage {
        let mut message = self.head;
        if let Some(body) = message.bulk_mut() {
            *body = match self.body {
                Body::Whole(bytes) => bytes.into_owned(),
                pieces => pieces.to_vec(),
            };
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
            body: Body::Whole(Cow::Owned(body)),
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
    let buf = fragment_stream(origin, msg_id, 0, |_| {}, encoded, max_payload);
    frames(buf, max_payload).collect()
}

/// The frames of `buf`, fragments laid end to end, each `max_payload`
/// long but the last: views into it.
fn frames(buf: Bytes, max_payload: usize) -> impl ExactSizeIterator<Item = Bytes> {
    (0..buf.len().div_ceil(max_payload)).map(move |index| {
        let start = index * max_payload;
        buf.slice(start..(start + max_payload).min(buf.len()))
    })
}

/// The one buffer of the fragments [`fragment_eternal`] cuts from a
/// message whose first `head` bytes `write_head` writes, as a CDR
/// stream of their own, into the first fragment (which must hold
/// them), and whose `body` follows them.
fn fragment_stream(
    origin: NodeId,
    msg_id: u64,
    head: usize,
    write_head: impl Fn(&mut CdrEncoder),
    body: &[u8],
    max_payload: usize,
) -> Bytes {
    assert!(
        max_payload > FRAGMENT_OVERHEAD,
        "max_payload {max_payload} cannot hold a fragment envelope"
    );
    let chunk_size = max_payload - FRAGMENT_OVERHEAD;
    debug_assert!(head <= chunk_size);
    let len = head + body.len();
    let total = len.div_ceil(chunk_size).max(1);
    let mut buf = Vec::with_capacity(total * FRAGMENT_OVERHEAD + len);
    for index in 0..total {
        let start = index * chunk_size;
        let end = (start + chunk_size).min(len);
        let mut enc = CdrEncoder::append_to(buf, Endian::Big);
        let envelope = WireFragment {
            origin,
            msg_id,
            index: index as u32,
            total: total as u32,
            chunk: &[],
        };
        envelope.encode_envelope(&mut enc, end - start);
        if index == 0 {
            // The message is a CDR stream of its own: aligned from
            // where the envelope ends.
            enc = CdrEncoder::append_to(enc.into_bytes(), Endian::Big);
            write_head(&mut enc);
            debug_assert_eq!(enc.len(), head);
        }
        buf = enc.into_bytes();
        buf.extend_from_slice(&body[start.saturating_sub(head)..end - head]);
    }
    // Every fragment but the last fills `max_payload` exactly.
    debug_assert_eq!(buf.len(), total * FRAGMENT_OVERHEAD + len);
    Bytes::from(buf)
}

mod reassembly;
pub use reassembly::EternalReassembler;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::state3::{InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall};
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

    /// A checkpoint whose application state ends one byte past a
    /// multiple of 4, with every kind of ORB/POA and infrastructure
    /// state after it.
    fn pinned_checkpoint() -> EternalMessage {
        EternalMessage::StateAssignment {
            transfer: TransferId(9),
            purpose: RetrievalPurpose::Checkpoint,
            state: Box::new(ThreeKindsOfState {
                group: GroupId(2),
                application: vec![0xA5; 13],
                orb_poa: OrbPoaStateTransfer {
                    next_request_ids: vec![(conn(), 351)],
                    handshakes: vec![(conn(), vec![9, 9, 9])],
                },
                infrastructure: InfraStateTransfer {
                    outstanding: vec![OutstandingCall {
                        conn: conn(),
                        op_seq: 4,
                        request_id: 5,
                        operation: "put".into(),
                    }],
                    dedup_horizons: vec![(conn(), Direction::Reply, 6)],
                    op_counters: vec![(conn(), 7)],
                },
            }),
        }
    }

    /// Golden wire vectors of a checkpoint's encoding and of its four
    /// fragments of at most 40 bytes, captured at the commit before its
    /// application state became a bulk body: the bytes have not moved.
    #[test]
    fn checkpoint_wire_bytes_and_fragments_are_pinned() {
        let encoding = "0400000000000000000000000000000901000000000000020000000d\
                        a5a5a5a5a5a5a5a5a5a5a5a5a5000000000000010000000100000002\
                        0000015f00000001000000010000000200000003090909000000000100\
                        0000010000000200000004000000050000000470757400000000010000\
                        000100000002010000000000000600000001000000010000000200000007";
        let fragments = [
            "00000001000000000000000000000003000000000000000400000028\
             0400000000000000000000000000000901000000000000020000000da5a5a5a5a5a5a5a5a5a5a5a5",
            "00000001000000000000000000000003000000010000000400000028\
             a50000000000000100000001000000020000015f0000000100000001000000020000000309090900",
            "00000001000000000000000000000003000000020000000400000028\
             00000001000000010000000200000004000000050000000470757400000000010000000100000002",
            "00000001000000000000000000000003000000030000000400000018\
             010000000000000600000001000000010000000200000007",
        ];
        let message = pinned_checkpoint();
        assert_eq!(message.to_bytes(), unhex(encoding));
        assert_eq!(
            EternalMessage::from_bytes(&unhex(encoding)),
            Ok(message.clone())
        );
        let frags: Vec<Bytes> = message
            .fragments(NodeId(1), 3, FRAGMENT_OVERHEAD + 40)
            .collect();
        assert_eq!(frags, fragments.map(|hex| Bytes::from(unhex(hex))));
        let mut r = EternalReassembler::new();
        let (last, rest) = frags.split_last().unwrap();
        for frag in rest {
            assert_eq!(r.push(frag), Ok(None));
        }
        assert_eq!(r.push(last), Ok(Some(message)));
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
            r.push(&Bytes::from(lying.to_bytes())).is_err(),
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
        assert!(r.push(&Bytes::from(frag.to_bytes())).is_err());
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

    /// Whether every piece of `body` is a slice of `frames`' one
    /// buffer: no byte of it was copied.
    fn held_by_reference(body: &Body, frames: &[Bytes]) -> bool {
        match body {
            Body::Pieces(pieces) => pieces.iter().all(|p| Bytes::ptr_eq(p, &frames[0])),
            _ => false,
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
                (origin, frags.clone(), frags.into_iter())
            });
            while queues.iter().any(|(_, _, q)| q.len() > 0) {
                let pick = rng.gen_range(2) as usize;
                let (origin, frags, queue) = &mut queues[pick];
                let Some(frag) = queue.next() else { continue };
                let pushed = r.push(&frag);
                if queue.len() > 0 {
                    assert_eq!(pushed, Ok(None), "message incomplete");
                    // What a partial holds is its frames'.
                    let pieces = &r.partial[&(*origin, msg_id)].pieces;
                    assert!(pieces.iter().all(|p| Bytes::ptr_eq(p, &frags[0])));
                } else {
                    let whole = EternalMessage::from_bytes(&wholes[pick]);
                    assert_eq!(pushed, whole.map(Some), "sizes {size_a}/{size_b}");
                }
                // Only a message some but not all of whose fragments
                // have arrived occupies a partial: a single-fragment
                // message never does.
                let begun = |(_, frags, q): &(_, Vec<Bytes>, std::vec::IntoIter<Bytes>)| {
                    (1..frags.len()).contains(&q.len())
                };
                assert_eq!(r.pending(), queues.iter().filter(|q| begun(q)).count());
            }
            assert_eq!(r.pending(), 0);
        }
        // The hand-over: at every size (the smallest are truncated,
        // hence undecodable) a message in several fragments reassembles
        // to what decoding it whole yields, its body cut short or with
        // its length word inflated too, and the body of a bulk variant
        // is its slices of the frames, no byte of it copied — a state
        // chunk's, a checkpoint's (whose other two kinds of state, after
        // the body, are decoded from the last slices) and an IIOP
        // message's. A checkpoint's head is never lent mid-message.
        for (msg_id, &size) in sizes.iter().enumerate() {
            let chunk = EternalMessage::StateChunk {
                group: GroupId(3),
                transfer: TransferId(9),
                new_host: NodeId(4),
                index: 1,
                total: 2,
                bytes: vec![0xC4; size],
            };
            let mut checkpoint = pinned_checkpoint();
            *checkpoint.bulk_mut().expect("a bulk variant") = vec![0xA5; size];
            // With the head each partial lends (an IIOP message's is not
            // checked).
            let mut wholes = vec![(encoded_of_size(size, &mut rng), None)];
            // The body's length word: the chunk's eighth 4-byte word, the
            // checkpoint's seventh.
            for (message, word, lent) in [(chunk, 28, true), (checkpoint, 24, false)] {
                let mut head = message.clone();
                head.bulk_mut().expect("a bulk variant").clear();
                let encoded = message.to_bytes();
                let mut inflated = encoded.clone();
                inflated[word..word + 4].copy_from_slice(&(size as u32 + 1).to_be_bytes());
                let head = Some(lent.then_some(head));
                wholes.push((encoded[..encoded.len() - 1].to_vec(), head.clone()));
                wholes.push((inflated, head.clone()));
                wholes.push((encoded, head));
            }
            for (whole, bulk_head) in wholes {
                let key = (NodeId(2), msg_id as u64);
                let frags = fragment_eternal(key.0, key.1, &whole, CHUNK + FRAGMENT_OVERHEAD);
                let (last, rest) = frags.split_last().unwrap();
                let mut pending_bytes = 0;
                for frag in rest {
                    assert_eq!(r.push_view(frag).map(|d| d.is_none()), Ok(true));
                    pending_bytes += frag.len() - FRAGMENT_OVERHEAD;
                    assert_eq!(r.pending_bytes(), pending_bytes);
                    if let Some(head) = &bulk_head {
                        assert_eq!(r.partial_head(key.0, key.1), head.as_ref());
                    }
                }
                let handed_over = r.push_view(last);
                assert_eq!(r.partial_head(key.0, key.1), None);
                assert_eq!((r.pending(), r.pending_bytes()), (0, 0));
                if let Ok(Some(delivered)) = &handed_over {
                    if frags.len() > 1 && !delivered.body.is_empty() {
                        let held = held_by_reference(&delivered.body, &frags);
                        assert!(held, "size {size}: the body was copied");
                    }
                }
                let owned = handed_over.map(|done| done.map(Delivered::into_message));
                assert_eq!(owned, EternalMessage::from_bytes(&whole).map(Some));
            }
        }
    }

    /// A partial holds each fragment's chunk as a slice of its frame,
    /// after the head the first fragment holds, or whole when it cannot
    /// hold the head; it reserves no byte, and a corrupt `total`
    /// reserves a bounded list.
    #[test]
    fn a_partial_holds_its_fragments_by_reference() {
        const BODY: usize = 5_000;
        let msg = EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq: 3,
            bytes: vec![3; BODY],
        };
        let frags = fragment_eternal(NodeId(0), 1, &msg.to_bytes(), 1000);
        let mut r = EternalReassembler::new();
        for frag in &frags[..3] {
            assert_eq!(r.push(frag), Ok(None));
        }
        let partial = r.partial.values().next().unwrap();
        // The Iiop's head is 24 bytes long.
        let starts: Vec<_> = partial.pieces.iter().map(|p| p.as_ptr()).collect();
        let chunks = [24, 0, 0].map(|skip| FRAGMENT_OVERHEAD + skip);
        let expected: Vec<_> = (frags[..3].iter().zip(chunks))
            .map(|(f, at)| f[at..].as_ptr())
            .collect();
        assert_eq!(starts, expected);
        assert_eq!(r.pending_bytes(), 3 * (1000 - FRAGMENT_OVERHEAD));
        // A corrupt total.
        let mut first = WireFragment::from_bytes(&frags[0]).unwrap();
        first.total = u32::MAX;
        let mut r = EternalReassembler::new();
        assert_eq!(r.push(&Bytes::from(first.to_bytes())), Ok(None));
        assert!(r.partial.values().next().unwrap().pieces.capacity() <= 64);
        // A head the first fragment cannot hold: its whole chunks.
        let cut = fragment_eternal(NodeId(0), 1, &msg.to_bytes(), FRAGMENT_OVERHEAD + 16);
        let mut r = EternalReassembler::new();
        assert_eq!(r.push(&cut[0]), Ok(None));
        let pieces = &r.partial.values().next().unwrap().pieces;
        assert_eq!(pieces[0].as_ptr(), cut[0][FRAGMENT_OVERHEAD..].as_ptr());
        assert_eq!(pieces[0].len(), 16);
    }

    /// A body handed back lends its list to the next partial: a
    /// reassembler that gets every body back makes no list of its own
    /// after its first.
    #[test]
    fn a_recycled_body_lends_its_list_to_the_next_message() {
        let msg = |op_seq| EternalMessage::Iiop {
            conn: conn(),
            direction: Direction::Request,
            op_seq,
            bytes: vec![5; 3_000],
        };
        let mut r = EternalReassembler::new();
        let mut lists = Vec::new();
        for msg_id in 0..3 {
            let frags = fragment_eternal(NodeId(1), msg_id, &msg(msg_id as u32).to_bytes(), 1000);
            let (last, rest) = frags.split_last().unwrap();
            for frag in rest {
                assert_eq!(r.push_view(frag).map(|d| d.is_none()), Ok(true));
            }
            let delivered = r.push_view(last).unwrap().expect("the last fragment");
            let Body::Pieces(pieces) = &delivered.body else {
                panic!("a body in several fragments is held in pieces");
            };
            lists.push(pieces.as_ptr());
            assert_eq!(delivered.body.to_vec(), vec![5; 3_000]);
            r.recycle(delivered.body);
        }
        assert!(
            lists.iter().all(|&list| list == lists[0]),
            "a list was made anew"
        );
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
