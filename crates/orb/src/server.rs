//! The server half of an IIOP connection.
//!
//! This is the receiving side of the §4.2.2 handshake: the first request
//! carries the client's code sets and short-key proposal; the server
//! caches both per-connection and confirms them in its reply. A server
//! connection that *missed* the handshake cannot resolve short object
//! keys — it discards such requests, exactly the failure mode Eternal's
//! handshake replay prevents for a recovered server replica.

use crate::object::{ObjectKey, WireKey};
use crate::poa::Poa;
use crate::servant::ServantError;
use crate::state::{NegotiatedState, ServerConnectionState};
use crate::OrbError;
use eternal_giop::{
    CodeSetContext, LocateReplyMessage, LocateStatus, MessageView, ReplyStatus, ReplyView,
    RequestView, ServiceContextList, SystemExceptionBody, VendorHandshake, CONTEXT_CODE_SETS,
    CONTEXT_ETERNAL_VENDOR,
};
use std::collections::BTreeMap;

/// What the server connection did with an incoming request (metadata for
/// metrics and tests; the reply bytes, if any, are returned separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestDisposition {
    /// Dispatched to a servant; a reply was produced (unless oneway).
    Dispatched,
    /// Dropped: the request used a short object key this connection
    /// never negotiated (the §4.2.2 failure mode).
    DiscardedUnnegotiated,
}

/// The server side of one logical IIOP connection.
#[derive(Debug)]
pub struct ServerConnection {
    id: u64,
    negotiated: NegotiatedState,
    last_seen_request_id: Option<u32>,
    short_keys: BTreeMap<u32, ObjectKey>,
    discarded_requests: u64,
    handled_requests: u64,
}

impl ServerConnection {
    /// Opens a server connection with no negotiated state — the
    /// condition of a freshly launched server replica's ORB.
    pub fn new(id: u64) -> Self {
        ServerConnection {
            id,
            negotiated: NegotiatedState::default(),
            last_seen_request_id: None,
            short_keys: BTreeMap::new(),
            discarded_requests: 0,
            handled_requests: 0,
        }
    }

    /// The connection id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests discarded for lack of negotiated state.
    pub fn discarded_requests(&self) -> u64 {
        self.discarded_requests
    }

    /// Requests successfully dispatched.
    pub fn handled_requests(&self) -> u64 {
        self.handled_requests
    }

    /// Whether this connection has seen the handshake.
    pub fn is_negotiated(&self) -> bool {
        self.negotiated.is_negotiated()
    }

    /// Consumes an incoming IIOP request, dispatching through `poa`.
    ///
    /// Returns the encoded reply bytes, or `None` for oneway requests
    /// and for requests discarded because they rely on un-negotiated
    /// state (use [`ServerConnection::handle_request_disposed`] when the
    /// caller needs to distinguish).
    ///
    /// # Errors
    ///
    /// Propagates parse failures; servant-level failures become
    /// exception replies, not errors.
    pub fn handle_request(
        &mut self,
        bytes: &[u8],
        poa: &mut Poa,
    ) -> Result<Option<Vec<u8>>, OrbError> {
        self.handle_request_disposed(bytes, poa).map(|(r, _)| r)
    }

    /// As [`ServerConnection::handle_request`], also reporting the
    /// disposition.
    pub fn handle_request_disposed(
        &mut self,
        bytes: &[u8],
        poa: &mut Poa,
    ) -> Result<(Option<Vec<u8>>, RequestDisposition), OrbError> {
        let req = request_view(bytes)?;
        let reply_contexts = self.negotiate(&req);

        // Resolve the object key, which may use the negotiated alias.
        let key = match ObjectKey::parse_wire(req.object_key) {
            WireKey::Full(k) => k,
            WireKey::Short(alias) => match self.short_keys.get(&alias) {
                Some(k) => k.as_bytes(),
                None => {
                    // §4.2.2: a server that missed the handshake cannot
                    // interpret the negotiated form; the request is
                    // discarded.
                    self.discarded_requests += 1;
                    return Ok((None, RequestDisposition::DiscardedUnnegotiated));
                }
            },
        };

        let outcome = poa.dispatch(key, req.operation, req.body);
        self.handled_requests += 1;
        if !req.response_expected {
            return Ok((None, RequestDisposition::Dispatched));
        }
        let (reply_status, body) = match outcome {
            Ok(body) => (ReplyStatus::NoException, body),
            Err(OrbError::Servant(
                e @ (ServantError::UserException(_)
                | ServantError::NoStateAvailable
                | ServantError::InvalidState),
            )) => (
                ReplyStatus::UserException,
                exception_body(&format!("IDL:Eternal/{e}:1.0")),
            ),
            Err(e) => (
                ReplyStatus::SystemException,
                exception_body(&format!("IDL:omg.org/CORBA/UNKNOWN:1.0 ({e})")),
            ),
        };
        // Encoded straight from the servant's result.
        let reply = MessageView::Reply(ReplyView {
            service_context: reply_contexts.view(),
            request_id: req.request_id,
            reply_status,
            body: &body,
        });
        Ok((Some(reply.to_bytes()?), RequestDisposition::Dispatched))
    }

    /// Records the request's id and caches what its handshake contexts
    /// (if it carries any) negotiate; returns the confirmations a reply
    /// to it carries.
    fn negotiate(&mut self, req: &RequestView<'_>) -> ServiceContextList {
        self.last_seen_request_id = Some(req.request_id);
        let mut confirmations = ServiceContextList::new();
        if let Some(cs) = req.service_context.find(CONTEXT_CODE_SETS) {
            if let Ok(ctx) = CodeSetContext::from_context_data(cs) {
                self.negotiated.code_sets = Some(ctx);
                confirmations.set(CONTEXT_CODE_SETS, ctx.to_context_data());
            }
        }
        if let Some(vh) = req.service_context.find(CONTEXT_ETERNAL_VENDOR) {
            if let Ok(hs) = VendorHandshake::from_context_data(vh) {
                confirmations.set(CONTEXT_ETERNAL_VENDOR, hs.to_context_data());
                self.short_keys
                    .insert(hs.short_key, ObjectKey::new(hs.full_key.clone()));
                self.negotiated.short_keys.insert(hs.short_key, hs.full_key);
            }
        }
        confirmations
    }

    /// Absorbs a *replayed* handshake request: caches its negotiated
    /// service contexts and short-key aliases exactly as
    /// [`ServerConnection::handle_request`] would, but does **not**
    /// dispatch the operation the handshake rode on and produces no
    /// reply.
    ///
    /// Eternal replays the stored handshake into a recovered server
    /// replica's ORB (§4.2.2) so it can interpret negotiated shortcuts.
    /// The handshake is the connection's first real request, and that
    /// operation's effects already arrived inside the transferred
    /// application state — dispatching it again here would execute it a
    /// second time and break exactly-once semantics (the recovered
    /// replica would permanently diverge from its siblings by one
    /// operation).
    ///
    /// # Errors
    ///
    /// Parse failures, or a non-request message.
    pub fn absorb_handshake(&mut self, bytes: &[u8]) -> Result<(), OrbError> {
        self.negotiate(&request_view(bytes)?);
        Ok(())
    }

    /// Answers a GIOP `LocateRequest`: `ObjectHere` when a servant is
    /// active under the (possibly short-form) key, `UnknownObject`
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Parse failures, or a non-locate message.
    pub fn handle_locate_request(&mut self, bytes: &[u8], poa: &Poa) -> Result<Vec<u8>, OrbError> {
        let MessageView::LocateRequest {
            request_id,
            object_key,
        } = MessageView::parse(bytes)?
        else {
            return Err(OrbError::UnexpectedMessage("expected a LocateRequest"));
        };
        let key = match ObjectKey::parse_wire(object_key) {
            WireKey::Full(k) => Some(k),
            WireKey::Short(alias) => self.short_keys.get(&alias).map(ObjectKey::as_bytes),
        };
        let locate_status = match key {
            Some(k) if poa.is_active(k) => LocateStatus::ObjectHere,
            _ => LocateStatus::UnknownObject,
        };
        Ok(MessageView::LocateReply(LocateReplyMessage {
            request_id,
            locate_status,
        })
        .to_bytes()?)
    }

    /// Snapshot of this connection's ORB-level state.
    pub fn orb_level_state(&self) -> ServerConnectionState {
        ServerConnectionState {
            negotiated: self.negotiated.clone(),
            last_seen_request_id: self.last_seen_request_id,
        }
    }

    /// Injects negotiated state directly (tests only; the product path
    /// is Eternal's handshake *replay*, which goes through
    /// [`ServerConnection::absorb_handshake`]).
    pub fn restore_negotiated(&mut self, negotiated: NegotiatedState) {
        for (&alias, full) in &negotiated.short_keys {
            self.short_keys.insert(alias, ObjectKey::new(full.clone()));
        }
        self.negotiated = negotiated;
    }
}

/// The request in `bytes`, in place.
fn request_view(bytes: &[u8]) -> Result<RequestView<'_>, OrbError> {
    match MessageView::parse(bytes)? {
        MessageView::Request(req) => Ok(req),
        _ => Err(OrbError::UnexpectedMessage(
            "server connection received a non-request message",
        )),
    }
}

fn exception_body(id: &str) -> Vec<u8> {
    SystemExceptionBody {
        exception_id: id.to_owned(),
        minor: 0,
        completed: 1, // COMPLETED_NO
    }
    .to_bytes()
    .expect("exception body encodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConnection;
    use crate::servant::{CheckpointableServant, Servant};
    use eternal_cdr::{Any, Value};
    use eternal_giop::GiopMessage;

    struct Counter(u32);
    impl Servant for Counter {
        fn dispatch(&mut self, op: &str, _args: &[u8]) -> Result<Vec<u8>, ServantError> {
            match op {
                "increment" => {
                    self.0 += 1;
                    Ok(self.0.to_be_bytes().to_vec())
                }
                "boom" => Err(ServantError::UserException("Boom".into())),
                other => Err(ServantError::BadOperation(other.to_owned())),
            }
        }
    }
    impl CheckpointableServant for Counter {
        fn get_state(&self) -> Result<Any, ServantError> {
            Ok(Any::from(self.0))
        }
        fn set_state(&mut self, state: &Any) -> Result<(), ServantError> {
            match &state.value {
                Value::ULong(v) => {
                    self.0 = *v;
                    Ok(())
                }
                _ => Err(ServantError::InvalidState),
            }
        }
    }

    fn key() -> ObjectKey {
        ObjectKey::from("counter")
    }

    fn setup() -> (ClientConnection, ServerConnection, Poa) {
        let mut poa = Poa::new();
        poa.activate_checkpointable(key(), Box::new(Counter(0)));
        (ClientConnection::new(1), ServerConnection::new(1), poa)
    }

    #[test]
    fn full_round_trip() {
        let (mut client, mut server, mut poa) = setup();
        let (id, req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
        let out = client.handle_reply(&reply).unwrap();
        assert_eq!(out.request_id, id);
        assert_eq!(out.status, ReplyStatus::NoException);
        assert_eq!(out.body, 1u32.to_be_bytes());
        assert_eq!(server.handled_requests(), 1);
    }

    #[test]
    fn handshake_negotiates_both_sides() {
        let (mut client, mut server, mut poa) = setup();
        let (_, req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
        client.handle_reply(&reply).unwrap();
        assert!(server.is_negotiated());
        assert!(client.is_negotiated());
        // Second request travels with the short key and still works.
        let (_, req2) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let GiopMessage::Request(parsed) = GiopMessage::from_bytes(&req2).unwrap() else {
            panic!("not a request");
        };
        assert_eq!(parsed.object_key, ObjectKey::short_form(1));
        let reply2 = server.handle_request(&req2, &mut poa).unwrap().unwrap();
        let out2 = client.handle_reply(&reply2).unwrap();
        assert_eq!(out2.body, 2u32.to_be_bytes());
    }

    #[test]
    fn unnegotiated_server_discards_short_key_requests() {
        // Reproduce §4.2.2: client negotiated with replica B1; fresh
        // replica B2 (new ServerConnection) missed the handshake.
        let (mut client, mut b1, mut poa1) = setup();
        let (_, req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let reply = b1.handle_request(&req, &mut poa1).unwrap().unwrap();
        client.handle_reply(&reply).unwrap();

        let mut b2 = ServerConnection::new(2);
        let mut poa2 = Poa::new();
        poa2.activate_checkpointable(key(), Box::new(Counter(0)));
        let (_, short_req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let (reply, disposition) = b2.handle_request_disposed(&short_req, &mut poa2).unwrap();
        assert_eq!(reply, None, "request silently discarded");
        assert_eq!(disposition, RequestDisposition::DiscardedUnnegotiated);
        assert_eq!(b2.discarded_requests(), 1);
        // B1, which saw the handshake, handles the identical bytes fine.
        assert!(b1.handle_request(&short_req, &mut poa1).unwrap().is_some());
    }

    #[test]
    fn replayed_handshake_restores_b2() {
        // Eternal's fix: replay the stored handshake message into the new
        // replica's ORB ahead of any other request (§4.2.2).
        let (mut client, mut b1, mut poa1) = setup();
        let (_, handshake_req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let reply = b1
            .handle_request(&handshake_req, &mut poa1)
            .unwrap()
            .unwrap();
        client.handle_reply(&reply).unwrap();

        let mut b2 = ServerConnection::new(2);
        let mut poa2 = Poa::new();
        poa2.activate_checkpointable(key(), Box::new(Counter(0)));
        // Replay the original handshake-carrying request into B2; its
        // reply is discarded by the recovery mechanisms.
        let _ = b2.handle_request(&handshake_req, &mut poa2).unwrap();
        assert!(b2.is_negotiated());
        // Now the short-key request works at B2.
        let (_, short_req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        assert!(b2.handle_request(&short_req, &mut poa2).unwrap().is_some());
        assert_eq!(b2.discarded_requests(), 0);
    }

    #[test]
    fn user_exception_propagates() {
        let (mut client, mut server, mut poa) = setup();
        let (_, req) = client.build_request(&key(), "boom", &[], true).unwrap();
        let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
        let out = client.handle_reply(&reply).unwrap();
        assert_eq!(out.status, ReplyStatus::UserException);
    }

    #[test]
    fn unknown_object_returns_system_exception() {
        let mut client = ClientConnection::new(1);
        let mut server = ServerConnection::new(1);
        let mut poa = Poa::new();
        let (_, req) = client
            .build_request(&ObjectKey::from("ghost"), "op", &[], true)
            .unwrap();
        let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
        let out = client.handle_reply(&reply).unwrap();
        assert_eq!(out.status, ReplyStatus::SystemException);
        let exc = SystemExceptionBody::from_bytes(&out.body).unwrap();
        assert!(exc.exception_id.contains("UNKNOWN"));
    }

    #[test]
    fn oneway_produces_no_reply() {
        let (mut client, mut server, mut poa) = setup();
        let (_, req) = client
            .build_request(&key(), "increment", &[], false)
            .unwrap();
        assert!(server.handle_request(&req, &mut poa).unwrap().is_none());
        assert_eq!(server.handled_requests(), 1);
    }

    #[test]
    fn reply_echoes_request_id() {
        let (mut client, mut server, mut poa) = setup();
        client.restore_request_id(350);
        let (_, req) = client
            .build_request(&key(), "increment", &[], true)
            .unwrap();
        let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
        let GiopMessage::Reply(parsed) = GiopMessage::from_bytes(&reply).unwrap() else {
            panic!("not a reply");
        };
        assert_eq!(parsed.request_id, 350);
        assert_eq!(server.orb_level_state().last_seen_request_id, Some(350));
    }

    #[test]
    fn get_set_state_through_the_wire() {
        let (mut client, mut server, mut poa) = setup();
        for _ in 0..3 {
            let (_, req) = client
                .build_request(&key(), "increment", &[], true)
                .unwrap();
            let reply = server.handle_request(&req, &mut poa).unwrap().unwrap();
            client.handle_reply(&reply).unwrap();
        }
        let (_, get_req) = client
            .build_request(&key(), "get_state", &[], true)
            .unwrap();
        let reply = server.handle_request(&get_req, &mut poa).unwrap().unwrap();
        let out = client.handle_reply(&reply).unwrap();
        let state = Any::from_bytes(&out.body).unwrap();
        assert_eq!(state.value, Value::ULong(3));
    }

    #[test]
    fn non_request_rejected() {
        let mut server = ServerConnection::new(1);
        let mut poa = Poa::new();
        let bogus = GiopMessage::CloseConnection.to_bytes().unwrap();
        assert!(server.handle_request(&bogus, &mut poa).is_err());
    }
}
