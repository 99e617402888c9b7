//! Borrowed views of GIOP messages, and the codec itself.
//!
//! [`MessageView::parse`] is the one parser and
//! [`MessageView::to_bytes`] the one encoder of this crate: the owned
//! [`GiopMessage`] goes through both ([`GiopMessage::from_bytes`] is
//! parse-then-copy, [`GiopMessage::to_bytes`] is view-then-encode), so
//! no field is checked or written in a second place. A view borrows the
//! bytes it was parsed from — or the owned message, servant result or
//! argument buffer it is about to be encoded from — and copies nothing.

use crate::header::{GiopHeader, MessageType, GIOP_HEADER_LEN};
use crate::message::{
    GiopMessage, LocateReplyMessage, LocateRequestMessage, LocateStatus, ReplyMessage, ReplyStatus,
    RequestMessage,
};
use crate::service_context::ServiceContextsView;
use crate::GiopError;
use eternal_cdr::layout::{end_octet_seq, end_string, end_u32};
use eternal_cdr::{CdrDecoder, CdrEncoder, Endian};

/// A client → server invocation, borrowed (see [`RequestMessage`]).
#[derive(Debug, Clone)]
pub struct RequestView<'a> {
    /// Out-of-band contexts.
    pub service_context: ServiceContextsView<'a>,
    /// Per-connection request identifier.
    pub request_id: u32,
    /// `false` for `oneway` operations.
    pub response_expected: bool,
    /// Identifies the target object within the server ORB.
    pub object_key: &'a [u8],
    /// The IDL operation name.
    pub operation: &'a str,
    /// CDR-encoded in/inout arguments.
    pub body: &'a [u8],
}

/// A server → client result, borrowed (see [`ReplyMessage`]).
#[derive(Debug, Clone)]
pub struct ReplyView<'a> {
    /// Out-of-band contexts.
    pub service_context: ServiceContextsView<'a>,
    /// Echoes the request's id.
    pub request_id: u32,
    /// Outcome discriminant.
    pub reply_status: ReplyStatus,
    /// CDR-encoded results / exception / forward IOR.
    pub body: &'a [u8],
}

/// Any GIOP message, borrowed (see [`GiopMessage`]).
#[derive(Debug, Clone)]
pub enum MessageView<'a> {
    /// Invocation.
    Request(RequestView<'a>),
    /// Result.
    Reply(ReplyView<'a>),
    /// Abandon an outstanding request.
    CancelRequest {
        /// Id of the request being abandoned.
        request_id: u32,
    },
    /// Object-location probe.
    LocateRequest {
        /// Request identifier.
        request_id: u32,
        /// The object key being located.
        object_key: &'a [u8],
    },
    /// Probe answer.
    LocateReply(LocateReplyMessage),
    /// Orderly shutdown.
    CloseConnection,
    /// The peer sent garbage.
    MessageError,
    /// Continuation of a fragmented message.
    Fragment {
        /// Set when more fragments follow.
        more: bool,
        /// Raw continuation bytes.
        data: &'a [u8],
    },
}

impl<'a> MessageView<'a> {
    /// Parses one complete message (header + exactly one body).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, GiopError> {
        let header = GiopHeader::from_bytes(bytes)?;
        let body = &bytes[GIOP_HEADER_LEN..];
        if body.len() != header.body_len as usize {
            return Err(GiopError::SizeMismatch {
                declared: header.body_len,
                actual: body.len(),
            });
        }
        let mut dec = CdrDecoder::new(body, header.endian);
        Ok(match header.message_type {
            MessageType::Request => MessageView::Request(RequestView {
                service_context: ServiceContextsView::parse(&mut dec)?,
                request_id: dec.read_u32()?,
                response_expected: dec.read_bool()?,
                object_key: dec.read_octets()?,
                operation: dec.read_str()?,
                body: dec.read_octets()?,
            }),
            MessageType::Reply => MessageView::Reply(ReplyView {
                service_context: ServiceContextsView::parse(&mut dec)?,
                request_id: dec.read_u32()?,
                reply_status: ReplyStatus::from_u32(dec.read_u32()?)?,
                body: dec.read_octets()?,
            }),
            MessageType::CancelRequest => MessageView::CancelRequest {
                request_id: dec.read_u32()?,
            },
            MessageType::LocateRequest => MessageView::LocateRequest {
                request_id: dec.read_u32()?,
                object_key: dec.read_octets()?,
            },
            MessageType::LocateReply => MessageView::LocateReply(LocateReplyMessage {
                request_id: dec.read_u32()?,
                locate_status: LocateStatus::from_u32(dec.read_u32()?)?,
            }),
            MessageType::CloseConnection => MessageView::CloseConnection,
            MessageType::MessageError => MessageView::MessageError,
            MessageType::Fragment => MessageView::Fragment {
                more: header.more_fragments,
                data: body,
            },
        })
    }

    /// The message type this variant serializes as.
    pub fn message_type(&self) -> MessageType {
        match self {
            MessageView::Request(_) => MessageType::Request,
            MessageView::Reply(_) => MessageType::Reply,
            MessageView::CancelRequest { .. } => MessageType::CancelRequest,
            MessageView::LocateRequest { .. } => MessageType::LocateRequest,
            MessageView::LocateReply(_) => MessageType::LocateReply,
            MessageView::CloseConnection => MessageType::CloseConnection,
            MessageView::MessageError => MessageType::MessageError,
            MessageView::Fragment { .. } => MessageType::Fragment,
        }
    }

    /// Length of the encoded body: every field below is either fixed
    /// size or carries its length, so the buffer is sized before the
    /// first byte is written.
    fn body_len(&self) -> usize {
        match self {
            MessageView::Request(r) => {
                // request id, response flag
                let at = end_u32(r.service_context.encoded_len()) + 1;
                let at = end_octet_seq(at, r.object_key.len());
                let at = end_string(at, r.operation);
                end_octet_seq(at, r.body.len())
            }
            MessageView::Reply(r) => {
                // request id, status
                let at = end_u32(r.service_context.encoded_len()) + 4;
                end_octet_seq(at, r.body.len())
            }
            MessageView::CancelRequest { .. } => 4,
            MessageView::LocateRequest { object_key, .. } => end_octet_seq(4, object_key.len()),
            MessageView::LocateReply(_) => 8,
            MessageView::CloseConnection | MessageView::MessageError => 0,
            MessageView::Fragment { data, .. } => data.len(),
        }
    }

    /// Serializes header + body into one pooled buffer, reserved once
    /// at its final size. Always emits big-endian streams; the parser
    /// honours either byte order.
    pub fn to_bytes(&self) -> Result<Vec<u8>, GiopError> {
        let endian = Endian::Big;
        let body_len = self.body_len();
        let mut header = GiopHeader::new(self.message_type(), endian, body_len as u32);
        if let MessageView::Fragment { more, .. } = self {
            header.more_fragments = *more;
        }
        let mut buf = eternal_cdr::pool::take();
        buf.reserve_exact(GIOP_HEADER_LEN + body_len);
        buf.extend_from_slice(&header.to_bytes());
        // CDR positions count from the start of the body.
        let mut body = CdrEncoder::append_to(buf, endian);
        match self {
            MessageView::Request(r) => {
                r.service_context.encode(&mut body);
                body.write_u32(r.request_id);
                body.write_bool(r.response_expected);
                body.write_octet_seq(r.object_key);
                body.write_string(r.operation)?;
                body.write_octet_seq(r.body);
            }
            MessageView::Reply(r) => {
                r.service_context.encode(&mut body);
                body.write_u32(r.request_id);
                body.write_u32(r.reply_status as u32);
                body.write_octet_seq(r.body);
            }
            MessageView::CancelRequest { request_id } => body.write_u32(*request_id),
            MessageView::LocateRequest {
                request_id,
                object_key,
            } => {
                body.write_u32(*request_id);
                body.write_octet_seq(object_key);
            }
            MessageView::LocateReply(l) => {
                body.write_u32(l.request_id);
                body.write_u32(l.locate_status as u32);
            }
            MessageView::CloseConnection | MessageView::MessageError => {}
            MessageView::Fragment { data, .. } => body.write_raw(data),
        }
        // The header went out first on the strength of this.
        assert_eq!(body.len(), body_len, "GIOP body length miscomputed");
        Ok(body.into_bytes())
    }

    /// Copies the message out of whatever it borrows.
    pub fn to_message(&self) -> GiopMessage {
        match self {
            MessageView::Request(r) => GiopMessage::Request(RequestMessage {
                service_context: r.service_context.to_list(),
                request_id: r.request_id,
                response_expected: r.response_expected,
                object_key: r.object_key.to_vec(),
                operation: r.operation.to_owned(),
                body: r.body.to_vec(),
            }),
            MessageView::Reply(r) => GiopMessage::Reply(ReplyMessage {
                service_context: r.service_context.to_list(),
                request_id: r.request_id,
                reply_status: r.reply_status,
                body: r.body.to_vec(),
            }),
            MessageView::CancelRequest { request_id } => GiopMessage::CancelRequest {
                request_id: *request_id,
            },
            MessageView::LocateRequest {
                request_id,
                object_key,
            } => GiopMessage::LocateRequest(LocateRequestMessage {
                request_id: *request_id,
                object_key: object_key.to_vec(),
            }),
            MessageView::LocateReply(l) => GiopMessage::LocateReply(l.clone()),
            MessageView::CloseConnection => GiopMessage::CloseConnection,
            MessageView::MessageError => GiopMessage::MessageError,
            MessageView::Fragment { more, data } => GiopMessage::Fragment {
                more: *more,
                data: data.to_vec(),
            },
        }
    }
}

impl GiopMessage {
    /// The message as a borrowed view.
    pub fn view(&self) -> MessageView<'_> {
        match self {
            GiopMessage::Request(r) => MessageView::Request(RequestView {
                service_context: r.service_context.view(),
                request_id: r.request_id,
                response_expected: r.response_expected,
                object_key: &r.object_key,
                operation: &r.operation,
                body: &r.body,
            }),
            GiopMessage::Reply(r) => MessageView::Reply(ReplyView {
                service_context: r.service_context.view(),
                request_id: r.request_id,
                reply_status: r.reply_status,
                body: &r.body,
            }),
            GiopMessage::CancelRequest { request_id } => MessageView::CancelRequest {
                request_id: *request_id,
            },
            GiopMessage::LocateRequest(l) => MessageView::LocateRequest {
                request_id: l.request_id,
                object_key: &l.object_key,
            },
            GiopMessage::LocateReply(l) => MessageView::LocateReply(l.clone()),
            GiopMessage::CloseConnection => MessageView::CloseConnection,
            GiopMessage::MessageError => MessageView::MessageError,
            GiopMessage::Fragment { more, data } => MessageView::Fragment { more: *more, data },
        }
    }
}
