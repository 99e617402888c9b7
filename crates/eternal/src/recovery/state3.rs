//! The **three kinds of state** of a replicated CORBA object (paper §4)
//! in their transferable form, plus the CDR codecs used to piggyback
//! them onto the fabricated `set_state()` invocation (§5.1 step iii).

use crate::gid::{ConnectionName, Direction, GroupId};
use crate::message::decode_direction;
use eternal_cdr::layout::{end_octet_seq, end_string, end_u32};
use eternal_cdr::{CdrDecoder, CdrEncoder, CdrError, Endian};

/// ORB/POA-level state (§4.2), as transferred between Recovery
/// Mechanisms. None of this is visible through ORB interfaces; Eternal
/// learns it by parsing the IIOP traffic of operational replicas
/// ([`crate::recovery::observer::OrbStateObserver`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrbPoaStateTransfer {
    /// §4.2.1: for each connection on which the object acts as a
    /// *client*, the request id its ORB will assign next (the observed
    /// last id + 1).
    pub next_request_ids: Vec<(ConnectionName, u32)>,
    /// §4.2.2: for each connection on which the object acts as a
    /// *server*, the stored client handshake message (complete IIOP
    /// request bytes) to replay into a new replica's ORB ahead of any
    /// other request.
    pub handshakes: Vec<(ConnectionName, Vec<u8>)>,
}

/// One invocation a (client-role) group has issued and is awaiting the
/// response to. Carried in the infrastructure-level state so that a
/// recovered replica's ORB can be re-armed to accept the reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutstandingCall {
    /// The logical connection the invocation went out on.
    pub conn: ConnectionName,
    /// The Eternal-generated operation identifier (§4.3).
    pub op_seq: u32,
    /// The GIOP request id the group's ORBs assigned.
    pub request_id: u32,
    /// The operation name (needed to resume the application callback).
    pub operation: String,
}

/// Infrastructure-level state (§4.3): information only Eternal needs,
/// invisible to both the object and the ORB.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InfraStateTransfer {
    /// Invocations the replica has issued and is awaiting responses for.
    pub outstanding: Vec<OutstandingCall>,
    /// The duplicate-suppression horizon per (connection, direction):
    /// all operations with Eternal op-ids at or below it have been seen.
    pub dedup_horizons: Vec<(ConnectionName, Direction, u32)>,
    /// The next Eternal operation identifier the group will assign per
    /// outgoing-request connection (so a recovered replica's invocations
    /// deduplicate against its siblings').
    pub op_counters: Vec<(ConnectionName, u32)>,
}

/// The complete piggybacked payload of a state transfer: the
/// application-level state (as the raw IIOP `get_state` reply body, a
/// CDR `any`) plus the other two kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreeKindsOfState {
    /// Which group this state belongs to.
    pub group: GroupId,
    /// Application-level state: the marshalled `any` returned by
    /// `get_state()` (§4.1).
    pub application: Vec<u8>,
    /// ORB/POA-level state (§4.2).
    pub orb_poa: OrbPoaStateTransfer,
    /// Infrastructure-level state (§4.3).
    pub infrastructure: InfraStateTransfer,
}

fn encode_conn(enc: &mut CdrEncoder, c: ConnectionName) {
    enc.write_u32(c.client.0);
    enc.write_u32(c.server.0);
}

fn decode_conn(dec: &mut CdrDecoder<'_>) -> Result<ConnectionName, CdrError> {
    Ok(ConnectionName {
        client: GroupId(dec.read_u32()?),
        server: GroupId(dec.read_u32()?),
    })
}

impl OrbPoaStateTransfer {
    /// Marshals into `enc`.
    pub fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_u32(self.next_request_ids.len() as u32);
        for &(conn, id) in &self.next_request_ids {
            encode_conn(enc, conn);
            enc.write_u32(id);
        }
        enc.write_u32(self.handshakes.len() as u32);
        for (conn, bytes) in &self.handshakes {
            encode_conn(enc, *conn);
            enc.write_octet_seq(bytes);
        }
    }

    /// Where [`OrbPoaStateTransfer::encode`] stops in a stream it
    /// starts at `at`.
    fn encoded_end(&self, at: usize) -> usize {
        // A connection and an id: three words.
        let at = end_u32(at) + 12 * self.next_request_ids.len();
        self.handshakes.iter().fold(end_u32(at), |at, (_, bytes)| {
            end_octet_seq(end_u32(at) + 4, bytes.len())
        })
    }

    /// Unmarshals from `dec`.
    ///
    /// # Errors
    ///
    /// Propagates CDR decoding failures.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let n = dec.read_u32()?;
        let mut next_request_ids = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let conn = decode_conn(dec)?;
            next_request_ids.push((conn, dec.read_u32()?));
        }
        let n = dec.read_u32()?;
        let mut handshakes = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let conn = decode_conn(dec)?;
            handshakes.push((conn, dec.read_octet_seq()?));
        }
        Ok(OrbPoaStateTransfer {
            next_request_ids,
            handshakes,
        })
    }
}

impl InfraStateTransfer {
    /// Marshals into `enc`.
    pub fn encode(&self, enc: &mut CdrEncoder) -> Result<(), CdrError> {
        enc.write_u32(self.outstanding.len() as u32);
        for call in &self.outstanding {
            encode_conn(enc, call.conn);
            enc.write_u32(call.op_seq);
            enc.write_u32(call.request_id);
            enc.write_string(&call.operation)?;
        }
        enc.write_u32(self.dedup_horizons.len() as u32);
        for &(conn, dir, horizon) in &self.dedup_horizons {
            encode_conn(enc, conn);
            enc.write_u8(dir.wire_byte());
            enc.write_u32(horizon);
        }
        enc.write_u32(self.op_counters.len() as u32);
        for &(conn, next) in &self.op_counters {
            encode_conn(enc, conn);
            enc.write_u32(next);
        }
        Ok(())
    }

    /// Where [`InfraStateTransfer::encode`] stops in a stream it starts
    /// at `at`.
    fn encoded_end(&self, at: usize) -> usize {
        // A connection and two ids (four words), then the name.
        let at = self.outstanding.iter().fold(end_u32(at), |at, call| {
            end_string(end_u32(at) + 12, &call.operation)
        });
        // A connection, the direction octet, the (aligned) horizon.
        let at = end_u32(at) + 16 * self.dedup_horizons.len();
        // A connection and a counter.
        end_u32(at) + 12 * self.op_counters.len()
    }

    /// Unmarshals from `dec`.
    ///
    /// # Errors
    ///
    /// Propagates CDR decoding failures.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let n = dec.read_u32()?;
        let mut outstanding = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            outstanding.push(OutstandingCall {
                conn: decode_conn(dec)?,
                op_seq: dec.read_u32()?,
                request_id: dec.read_u32()?,
                operation: dec.read_string()?,
            });
        }
        let n = dec.read_u32()?;
        let mut dedup_horizons = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            let conn = decode_conn(dec)?;
            let dir = decode_direction(dec)?;
            dedup_horizons.push((conn, dir, dec.read_u32()?));
        }
        let n = dec.read_u32()?;
        let mut op_counters = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            let conn = decode_conn(dec)?;
            op_counters.push((conn, dec.read_u32()?));
        }
        Ok(InfraStateTransfer {
            outstanding,
            dedup_horizons,
            op_counters,
        })
    }
}

impl ThreeKindsOfState {
    /// Marshals into `enc`.
    pub fn encode(&self, enc: &mut CdrEncoder) -> Result<(), CdrError> {
        enc.write_u32(self.group.0);
        enc.write_octet_seq(&self.application);
        self.orb_poa.encode(enc);
        self.infrastructure.encode(enc)
    }

    /// Unmarshals from `dec`.
    ///
    /// # Errors
    ///
    /// Propagates CDR decoding failures.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(ThreeKindsOfState {
            group: GroupId(dec.read_u32()?),
            application: dec.read_octet_seq()?,
            orb_poa: OrbPoaStateTransfer::decode(dec)?,
            infrastructure: InfraStateTransfer::decode(dec)?,
        })
    }

    /// Where [`ThreeKindsOfState::encode`] stops in a stream it starts
    /// at `at`: every field is fixed-size or carries its length.
    pub(crate) fn encoded_end(&self, at: usize) -> usize {
        let at = end_octet_seq(end_u32(at), self.application.len());
        self.infrastructure
            .encoded_end(self.orb_poa.encoded_end(at))
    }

    /// Convenience: full round-trip to bytes (big-endian stream), in a
    /// buffer reserved once at the encoding's exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_end(0);
        let mut enc = CdrEncoder::with_capacity(Endian::Big, len);
        self.encode(&mut enc)
            .expect("operation names contain no NUL");
        debug_assert_eq!(enc.len(), len);
        enc.into_bytes()
    }

    /// Convenience: decode from [`ThreeKindsOfState::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Propagates CDR decoding failures.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CdrError> {
        let mut dec = CdrDecoder::new(bytes, Endian::Big);
        Self::decode(&mut dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(c: u32, s: u32) -> ConnectionName {
        ConnectionName {
            client: GroupId(c),
            server: GroupId(s),
        }
    }

    fn sample() -> ThreeKindsOfState {
        ThreeKindsOfState {
            group: GroupId(7),
            application: vec![1, 2, 3, 4, 5],
            orb_poa: OrbPoaStateTransfer {
                next_request_ids: vec![(conn(7, 9), 351), (conn(7, 12), 12)],
                handshakes: vec![(conn(3, 7), b"GIOP...handshake".to_vec())],
            },
            infrastructure: InfraStateTransfer {
                outstanding: vec![OutstandingCall {
                    conn: conn(7, 9),
                    op_seq: 350,
                    request_id: 350,
                    operation: "deposit".into(),
                }],
                dedup_horizons: vec![
                    (conn(3, 7), Direction::Request, 42),
                    (conn(3, 7), Direction::Reply, 41),
                ],
                op_counters: vec![(conn(7, 9), 351)],
            },
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        assert_eq!(ThreeKindsOfState::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn empty_round_trip() {
        let s = ThreeKindsOfState {
            group: GroupId(0),
            application: vec![],
            orb_poa: OrbPoaStateTransfer::default(),
            infrastructure: InfraStateTransfer::default(),
        };
        assert_eq!(ThreeKindsOfState::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    /// Random states — lists of every length from none, byte strings and
    /// operation names of every length modulo the alignment — encode to
    /// exactly the length computed from their fields, wherever in a
    /// stream they start.
    #[test]
    fn the_length_computed_from_the_fields_is_the_length_encoded() {
        let mut rng = eternal_sim::rng::SimRng::seed_from_u64(0x57A7E);
        let bytes = |rng: &mut eternal_sim::rng::SimRng| vec![7u8; rng.gen_range(9) as usize];
        for _ in 0..256 {
            let n = |rng: &mut eternal_sim::rng::SimRng| 0..rng.gen_range(4);
            let state = ThreeKindsOfState {
                group: GroupId(7),
                application: bytes(&mut rng),
                orb_poa: OrbPoaStateTransfer {
                    next_request_ids: n(&mut rng).map(|i| (conn(7, i as u32), 3)).collect(),
                    handshakes: n(&mut rng)
                        .map(|i| (conn(i as u32, 7), bytes(&mut rng)))
                        .collect(),
                },
                infrastructure: InfraStateTransfer {
                    outstanding: n(&mut rng)
                        .map(|i| OutstandingCall {
                            conn: conn(7, 9),
                            op_seq: i as u32,
                            request_id: i as u32,
                            operation: "deposits"[..rng.gen_range(9) as usize].into(),
                        })
                        .collect(),
                    dedup_horizons: n(&mut rng)
                        .map(|i| (conn(3, 7), Direction::Reply, i as u32))
                        .collect(),
                    op_counters: n(&mut rng).map(|i| (conn(7, 9), i as u32)).collect(),
                },
            };
            for at in 0..8 {
                let mut enc = CdrEncoder::new(Endian::Big);
                enc.write_raw(&[0; 8][..at]);
                state.encode(&mut enc).unwrap();
                assert_eq!(state.encoded_end(at), enc.len(), "{state:?} at {at}");
            }
            // And the buffer `to_bytes` reserves is the buffer it fills.
            eternal_cdr::pool::reset();
            let encoded = state.to_bytes();
            assert_eq!(encoded.capacity(), encoded.len());
        }
    }

    #[test]
    fn a_direction_octet_is_zero_or_one() {
        let mut state = sample();
        state.infrastructure.outstanding.clear();
        let mut bytes = state.to_bytes();
        // The last horizon: connection, direction, padding, id — then
        // the one op counter (a count and three words).
        let direction = bytes.len() - 16 - 8;
        assert_eq!(bytes[direction], 1);
        for other in 2..=255 {
            bytes[direction] = other;
            assert_eq!(
                ThreeKindsOfState::from_bytes(&bytes),
                Err(CdrError::InvalidEnumDiscriminant {
                    got: u32::from(other),
                    count: 2
                })
            );
        }
        bytes[direction] = 0;
        let flipped = ThreeKindsOfState::from_bytes(&bytes).unwrap();
        assert_eq!(
            flipped.infrastructure.dedup_horizons[1].1,
            Direction::Request
        );
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(ThreeKindsOfState::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn application_state_size_dominates_encoding() {
        let mut s = sample();
        s.application = vec![0xAB; 100_000];
        let len = s.to_bytes().len();
        assert!(len > 100_000 && len < 101_000);
    }
}
