//! GIOP message bodies and the top-level [`GiopMessage`]: the owned
//! form of the messages whose codec is [`MessageView`].
//!
//! One deliberate simplification relative to the OMG specification:
//! CDR alignment in a body is computed relative to the *start of the
//! body* rather than the start of the message. Both peers in this
//! reproduction use the same rule, so streams are internally consistent
//! (the OMG rule exists only for in-place header prefixing, which we do
//! not need).

use crate::header::MessageType;
use crate::service_context::ServiceContextList;
use crate::view::MessageView;
use crate::GiopError;
use eternal_cdr::{CdrDecoder, CdrEncoder, Endian};

/// A client → server invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMessage {
    /// Out-of-band contexts (code sets, vendor handshake, …).
    pub service_context: ServiceContextList,
    /// Per-connection request identifier assigned by the client-side ORB
    /// (the §4.2.1 ORB/POA-level state).
    pub request_id: u32,
    /// `false` for `oneway` operations that never get a reply.
    pub response_expected: bool,
    /// Identifies the target object within the server ORB.
    pub object_key: Vec<u8>,
    /// The IDL operation name.
    pub operation: String,
    /// CDR-encoded in/inout arguments.
    pub body: Vec<u8>,
}

/// The outcome discriminant of a [`ReplyMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ReplyStatus {
    /// Operation succeeded; body holds results.
    NoException = 0,
    /// Operation raised a declared IDL exception; body holds it.
    UserException = 1,
    /// ORB-level failure; body holds a [`SystemExceptionBody`].
    SystemException = 2,
    /// The object lives elsewhere; body holds an IOR.
    LocationForward = 3,
}

impl ReplyStatus {
    pub(crate) fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            other => return Err(GiopError::UnknownMessageType(other as u8)),
        })
    }
}

/// A server → client result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMessage {
    /// Out-of-band contexts (e.g. handshake confirmation).
    pub service_context: ServiceContextList,
    /// Echoes the request's id so the client ORB can match it
    /// (mismatches are discarded — the §4.2.1 failure mode).
    pub request_id: u32,
    /// Outcome discriminant.
    pub reply_status: ReplyStatus,
    /// CDR-encoded results / exception / forward IOR.
    pub body: Vec<u8>,
}

/// The standard body of a `SystemException` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemExceptionBody {
    /// Repository id, e.g. `"IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"`.
    pub exception_id: String,
    /// Vendor minor code.
    pub minor: u32,
    /// 0 = COMPLETED_YES, 1 = COMPLETED_NO, 2 = COMPLETED_MAYBE.
    pub completed: u32,
}

impl SystemExceptionBody {
    /// Encodes into reply-body bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, GiopError> {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_string(&self.exception_id)?;
        enc.write_u32(self.minor);
        enc.write_u32(self.completed);
        Ok(enc.into_bytes())
    }

    /// Decodes from reply-body bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GiopError> {
        let mut dec = CdrDecoder::new(bytes, Endian::Big);
        Ok(SystemExceptionBody {
            exception_id: dec.read_string()?,
            minor: dec.read_u32()?,
            completed: dec.read_u32()?,
        })
    }
}

/// A client → server object-location probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateRequestMessage {
    /// Request identifier (same counter as normal requests).
    pub request_id: u32,
    /// The object key being located.
    pub object_key: Vec<u8>,
}

/// Status discriminant for a [`LocateReplyMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum LocateStatus {
    /// The server does not know the object.
    UnknownObject = 0,
    /// The object is served here.
    ObjectHere = 1,
    /// The object lives elsewhere (body would carry an IOR).
    ObjectForward = 2,
}

impl LocateStatus {
    pub(crate) fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => LocateStatus::UnknownObject,
            1 => LocateStatus::ObjectHere,
            2 => LocateStatus::ObjectForward,
            other => return Err(GiopError::UnknownMessageType(other as u8)),
        })
    }
}

/// A server → client answer to a [`LocateRequestMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocateReplyMessage {
    /// Echoes the probe's request id.
    pub request_id: u32,
    /// Where the object is.
    pub locate_status: LocateStatus,
}

/// Any GIOP message, ready to serialize onto (or parsed off) the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopMessage {
    /// Invocation.
    Request(RequestMessage),
    /// Result.
    Reply(ReplyMessage),
    /// Abandon an outstanding request.
    CancelRequest {
        /// Id of the request being abandoned.
        request_id: u32,
    },
    /// Object-location probe.
    LocateRequest(LocateRequestMessage),
    /// Probe answer.
    LocateReply(LocateReplyMessage),
    /// Orderly shutdown.
    CloseConnection,
    /// The peer sent garbage.
    MessageError,
    /// Continuation of a fragmented message; payload is raw body bytes.
    Fragment {
        /// Set when more fragments follow.
        more: bool,
        /// Raw continuation bytes.
        data: Vec<u8>,
    },
}

impl GiopMessage {
    /// The message type this variant serializes as.
    pub fn message_type(&self) -> MessageType {
        self.view().message_type()
    }

    /// Serializes header + body (see [`MessageView::to_bytes`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>, GiopError> {
        self.view().to_bytes()
    }

    /// Parses one complete message (header + exactly one body) into
    /// owned fields (see [`MessageView::parse`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<GiopMessage, GiopError> {
        Ok(MessageView::parse(bytes)?.to_message())
    }

    /// Convenience: the request id carried by this message, if any.
    pub fn request_id(&self) -> Option<u32> {
        match self {
            GiopMessage::Request(r) => Some(r.request_id),
            GiopMessage::Reply(r) => Some(r.request_id),
            GiopMessage::CancelRequest { request_id } => Some(*request_id),
            GiopMessage::LocateRequest(l) => Some(l.request_id),
            GiopMessage::LocateReply(l) => Some(l.request_id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_context::{CONTEXT_CODE_SETS, CONTEXT_ETERNAL_VENDOR};

    fn round_trip(msg: GiopMessage) {
        let bytes = msg.to_bytes().unwrap();
        assert_eq!(GiopMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn request_round_trip() {
        let mut sc = ServiceContextList::new();
        sc.set(CONTEXT_CODE_SETS, vec![1, 2]);
        sc.set(CONTEXT_ETERNAL_VENDOR, vec![3]);
        round_trip(GiopMessage::Request(RequestMessage {
            service_context: sc,
            request_id: 350,
            response_expected: true,
            object_key: b"bank/account".to_vec(),
            operation: "deposit".into(),
            body: vec![0, 0, 1, 44],
        }));
    }

    #[test]
    fn oneway_request_round_trip() {
        round_trip(GiopMessage::Request(RequestMessage {
            service_context: ServiceContextList::new(),
            request_id: 0,
            response_expected: false,
            object_key: vec![],
            operation: "notify".into(),
            body: vec![],
        }));
    }

    #[test]
    fn reply_round_trip_all_statuses() {
        for status in [
            ReplyStatus::NoException,
            ReplyStatus::UserException,
            ReplyStatus::SystemException,
            ReplyStatus::LocationForward,
        ] {
            round_trip(GiopMessage::Reply(ReplyMessage {
                service_context: ServiceContextList::new(),
                request_id: 7,
                reply_status: status,
                body: vec![9; 17],
            }));
        }
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(GiopMessage::CancelRequest { request_id: 12 });
        round_trip(GiopMessage::CloseConnection);
        round_trip(GiopMessage::MessageError);
        round_trip(GiopMessage::LocateRequest(LocateRequestMessage {
            request_id: 1,
            object_key: b"k".to_vec(),
        }));
        round_trip(GiopMessage::LocateReply(LocateReplyMessage {
            request_id: 1,
            locate_status: LocateStatus::ObjectHere,
        }));
    }

    #[test]
    fn fragment_round_trip_preserves_more_flag() {
        round_trip(GiopMessage::Fragment {
            more: true,
            data: vec![1, 2, 3],
        });
        round_trip(GiopMessage::Fragment {
            more: false,
            data: vec![],
        });
    }

    #[test]
    fn body_size_mismatch_detected() {
        let mut bytes = GiopMessage::CloseConnection.to_bytes().unwrap();
        bytes.push(0xAA); // trailing junk
        assert!(matches!(
            GiopMessage::from_bytes(&bytes),
            Err(GiopError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn system_exception_body_round_trip() {
        let exc = SystemExceptionBody {
            exception_id: "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0".into(),
            minor: 2,
            completed: 1,
        };
        let back = SystemExceptionBody::from_bytes(&exc.to_bytes().unwrap()).unwrap();
        assert_eq!(back, exc);
    }

    #[test]
    fn request_id_accessor() {
        assert_eq!(
            GiopMessage::CancelRequest { request_id: 5 }.request_id(),
            Some(5)
        );
        assert_eq!(GiopMessage::CloseConnection.request_id(), None);
    }

    #[test]
    fn large_body_round_trips() {
        round_trip(GiopMessage::Reply(ReplyMessage {
            service_context: ServiceContextList::new(),
            request_id: 1,
            reply_status: ReplyStatus::NoException,
            body: vec![0xAB; 350_000],
        }));
    }
}
