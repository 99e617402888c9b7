//! The **General Inter-ORB Protocol (GIOP)** and its TCP/IP mapping
//! **IIOP**, reimplemented for the Eternal-RS reproduction of *"State
//! Synchronization and Recovery for Strongly Consistent Replicated CORBA
//! Objects"* (DSN 2001).
//!
//! GIOP defines the messages CORBA clients and servers exchange: every
//! message starts with a 12-byte header (magic `"GIOP"`, version, flags,
//! message type, body size) followed by a CDR-encoded body. The Eternal
//! system operates *entirely at this level* — it intercepts IIOP byte
//! streams below an unmodified ORB, so everything it knows about the
//! application (request identifiers §4.2.1, handshake service contexts
//! §4.2.2, operation names, object keys) it learns by parsing these
//! messages. This crate is therefore the shared vocabulary of the whole
//! reproduction.
//!
//! # Example
//!
//! ```
//! use eternal_giop::{GiopMessage, RequestMessage, ServiceContextList};
//!
//! let req = RequestMessage {
//!     service_context: ServiceContextList::default(),
//!     request_id: 350,
//!     response_expected: true,
//!     object_key: b"bank/account-7".to_vec(),
//!     operation: "deposit".to_owned(),
//!     body: vec![0, 0, 0, 5],
//! };
//! let bytes = GiopMessage::Request(req.clone()).to_bytes().unwrap();
//! let back = GiopMessage::from_bytes(&bytes).unwrap();
//! assert_eq!(back, GiopMessage::Request(req));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fragment;
mod header;
mod ior;
mod message;
mod service_context;
mod view;

pub use error::GiopError;
pub use fragment::{fragment_message, Reassembler};
pub use header::{GiopHeader, MessageType, GIOP_HEADER_LEN, GIOP_MAGIC};
pub use ior::{IiopProfile, Ior, TaggedComponent, TAG_CODE_SETS, TAG_INTERNET_IOP};
pub use message::{
    GiopMessage, LocateReplyMessage, LocateRequestMessage, LocateStatus, ReplyMessage, ReplyStatus,
    RequestMessage, SystemExceptionBody,
};
pub use service_context::{
    CodeSetContext, ServiceContext, ServiceContextIter, ServiceContextList, ServiceContextsView,
    TraceContext, VendorHandshake, CODESET_ISO_8859_1, CODESET_UTF_16, CODESET_UTF_8,
    CONTEXT_CODE_SETS, CONTEXT_ETERNAL_TRACE, CONTEXT_ETERNAL_VENDOR,
};
pub use view::{MessageView, ReplyView, RequestView};
