//! The client half of an IIOP connection.
//!
//! This is where the paper's §4.2.1 state lives: the per-connection
//! GIOP `request_id` counter, assigned to every outgoing request and
//! used to match (and *discard on mismatch*) incoming replies. It is
//! also the initiating half of the §4.2.2 handshake: the first request
//! on a connection carries code-set and vendor-shortcut service
//! contexts, and the negotiated results are cached for the connection's
//! lifetime.

use crate::object::ObjectKey;
use crate::state::{ClientConnectionState, NegotiatedState};
use crate::OrbError;
use eternal_giop::{
    CodeSetContext, MessageView, ReplyStatus, RequestView, ServiceContextList, VendorHandshake,
    CONTEXT_CODE_SETS, CONTEXT_ETERNAL_VENDOR,
};
use std::collections::BTreeMap;

/// A matched reply, returned by [`ClientConnection::handle_reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyOutcome {
    /// The request this reply answers.
    pub request_id: u32,
    /// The operation that was invoked.
    pub operation: String,
    /// The reply's status.
    pub status: ReplyStatus,
    /// The result (or exception) bytes.
    pub body: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Outstanding {
    operation: String,
}

/// The client side of one logical IIOP connection.
#[derive(Debug)]
pub struct ClientConnection {
    id: u64,
    next_request_id: u32,
    outstanding: BTreeMap<u32, Outstanding>,
    negotiated: NegotiatedState,
    handshake_started: bool,
    /// The wire form requests use for each object key the server has
    /// confirmed an alias for: `negotiated.short_keys` read the other
    /// way round (a key's lowest alias), so a request looks its key's
    /// bytes up instead of searching for an alias and building them.
    short_forms: BTreeMap<Vec<u8>, [u8; 7]>,
    next_alias: u32,
    /// Replies discarded because their request id matched nothing
    /// outstanding (the §4.2.1 failure counter).
    discarded_replies: u64,
}

impl ClientConnection {
    /// Opens a client connection with the counter at its initial value —
    /// exactly what a freshly started ORB does, and exactly why a
    /// recovered replica needs the counter restored (paper Figure 4).
    pub fn new(id: u64) -> Self {
        ClientConnection {
            id,
            next_request_id: 0,
            outstanding: BTreeMap::new(),
            negotiated: NegotiatedState::default(),
            handshake_started: false,
            short_forms: BTreeMap::new(),
            next_alias: 1,
            discarded_replies: 0,
        }
    }

    /// The connection id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request id the next request will carry.
    pub fn next_request_id(&self) -> u32 {
        self.next_request_id
    }

    /// Allocates the next GIOP request id, refusing to wrap.
    ///
    /// The Eternal duplicate-suppression horizon is monotone in id
    /// space: it never wraps, and it saturates once id `u32::MAX` has
    /// been seen (every id then counts as already-seen). A client that
    /// wrapped its counter back to 0 would therefore have every
    /// subsequent request suppressed as a duplicate. Instead the id
    /// space is defined as *finite*: `u32::MAX` is reserved as the
    /// exhaustion sentinel and the connection refuses further requests
    /// once `0..u32::MAX` are spent, keeping ORB and infrastructure
    /// views consistent.
    ///
    /// # Errors
    ///
    /// [`OrbError::RequestIdsExhausted`] when no usable id remains.
    fn allocate_request_id(&mut self) -> Result<u32, OrbError> {
        if self.next_request_id == u32::MAX {
            return Err(OrbError::RequestIdsExhausted);
        }
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        Ok(request_id)
    }

    /// Count of replies discarded due to request-id mismatch.
    pub fn discarded_replies(&self) -> u64 {
        self.discarded_replies
    }

    /// Number of requests awaiting replies.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether the handshake results are cached.
    pub fn is_negotiated(&self) -> bool {
        self.negotiated.is_negotiated()
    }

    /// Builds an IIOP request for `operation` on `key`, assigning the
    /// next request id. Returns the id and the encoded message bytes.
    ///
    /// The first request on the connection carries the handshake
    /// contexts (code sets + vendor short-key proposal). Once the server
    /// confirms an alias for `key`, subsequent requests use the short
    /// key on the wire.
    ///
    /// # Errors
    ///
    /// Returns an error if the message fails to encode, or
    /// [`OrbError::RequestIdsExhausted`] once the connection has
    /// consumed all `u32::MAX` usable ids (see
    /// [`ClientConnection::allocate_request_id`]).
    pub fn build_request(
        &mut self,
        key: &ObjectKey,
        operation: &str,
        args: &[u8],
        response_expected: bool,
    ) -> Result<(u32, Vec<u8>), OrbError> {
        let request_id = self.allocate_request_id()?;

        let mut service_context = ServiceContextList::new();
        if !self.handshake_started {
            // Initial handshake: code sets + a short-key proposal.
            self.handshake_started = true;
            service_context.set(
                CONTEXT_CODE_SETS,
                CodeSetContext::default_sets().to_context_data(),
            );
            let alias = self.next_alias;
            self.next_alias += 1;
            service_context.set(
                CONTEXT_ETERNAL_VENDOR,
                VendorHandshake {
                    full_key: key.as_bytes().to_vec(),
                    short_key: alias,
                }
                .to_context_data(),
            );
        }

        // Use the short form only after the server confirmed the alias.
        let object_key = match self.short_forms.get(key.as_bytes()) {
            Some(short) => short,
            None => key.as_bytes(),
        };

        if response_expected {
            self.outstanding.insert(
                request_id,
                Outstanding {
                    operation: operation.to_owned(),
                },
            );
        }
        // Encoded straight from the caller's slices.
        let msg = MessageView::Request(RequestView {
            service_context: service_context.view(),
            request_id,
            response_expected,
            object_key,
            operation,
            body: args,
        });
        Ok((request_id, msg.to_bytes()?))
    }

    /// Rebuilds `short_forms` from the confirmed aliases (on a
    /// handshake confirmation or a restore, never per request).
    fn index_short_forms(&mut self) {
        self.short_forms.clear();
        // Descending, so a key's lowest alias is the one that stays.
        for (&alias, full_key) in self.negotiated.short_keys.iter().rev() {
            self.short_forms
                .insert(full_key.clone(), ObjectKey::short_form(alias));
        }
    }

    /// Builds a GIOP `LocateRequest` probing whether the server knows
    /// `key`. Uses (and consumes) the same per-connection request-id
    /// counter as normal requests, as real ORBs do.
    ///
    /// # Errors
    ///
    /// Returns an error if the message fails to encode, or
    /// [`OrbError::RequestIdsExhausted`] once all ids are consumed.
    pub fn build_locate_request(&mut self, key: &ObjectKey) -> Result<(u32, Vec<u8>), OrbError> {
        let request_id = self.allocate_request_id()?;
        let msg = MessageView::LocateRequest {
            request_id,
            object_key: key.as_bytes(),
        };
        Ok((request_id, msg.to_bytes()?))
    }

    /// Abandons an outstanding request: removes it from the pending
    /// table (its eventual reply will be discarded as unmatched) and
    /// returns the encoded `CancelRequest` to transmit.
    ///
    /// # Errors
    ///
    /// [`OrbError::UnexpectedMessage`] if the id is not outstanding.
    pub fn cancel_request(&mut self, request_id: u32) -> Result<Vec<u8>, OrbError> {
        if self.outstanding.remove(&request_id).is_none() {
            return Err(OrbError::UnexpectedMessage(
                "cancel of a request that is not outstanding",
            ));
        }
        Ok(MessageView::CancelRequest { request_id }.to_bytes()?)
    }

    /// Consumes an incoming IIOP reply.
    ///
    /// Returns `Ok(outcome)` when the reply matches an outstanding
    /// request. Returns `Err(OrbError::UnexpectedMessage)` when the
    /// reply's request id matches nothing — the reply is **discarded**,
    /// reproducing the commercial-ORB behaviour that makes request-id
    /// recovery necessary (paper §4.2.1).
    pub fn handle_reply(&mut self, bytes: &[u8]) -> Result<ReplyOutcome, OrbError> {
        let MessageView::Reply(reply) = MessageView::parse(bytes)? else {
            return Err(OrbError::UnexpectedMessage(
                "client connection received a non-reply message",
            ));
        };
        let Some(outstanding) = self.outstanding.remove(&reply.request_id) else {
            self.discarded_replies += 1;
            return Err(OrbError::UnexpectedMessage(
                "reply request_id matches no outstanding request; discarded",
            ));
        };
        // Fold in handshake confirmations.
        if let Some(cs) = reply.service_context.find(CONTEXT_CODE_SETS) {
            if let Ok(ctx) = CodeSetContext::from_context_data(cs) {
                self.negotiated.code_sets = Some(ctx);
            }
        }
        if let Some(vh) = reply.service_context.find(CONTEXT_ETERNAL_VENDOR) {
            if let Ok(hs) = VendorHandshake::from_context_data(vh) {
                self.negotiated.short_keys.insert(hs.short_key, hs.full_key);
                self.index_short_forms();
            }
        }
        Ok(ReplyOutcome {
            request_id: reply.request_id,
            operation: outstanding.operation,
            status: reply.reply_status,
            body: reply.body.to_vec(),
        })
    }

    /// Snapshot of this connection's ORB-level state (ground truth for
    /// tests; Eternal reconstructs the equivalent by observation).
    pub fn orb_level_state(&self) -> ClientConnectionState {
        ClientConnectionState {
            next_request_id: self.next_request_id,
            outstanding: self.outstanding.keys().copied().collect(),
            negotiated: self.negotiated.clone(),
        }
    }

    /// Forces the request-id counter — the injection hook the Eternal
    /// recovery mechanisms use when restoring ORB/POA-level state into a
    /// recovered replica's ORB (paper §4.2.1: the stored value is
    /// "transferred, at the point of recovery").
    pub fn restore_request_id(&mut self, next: u32) {
        self.next_request_id = next;
    }

    /// Injects negotiated handshake state (the client-side counterpart
    /// of the server-side handshake replay).
    pub fn restore_negotiated(&mut self, negotiated: NegotiatedState) {
        self.negotiated = negotiated;
        self.index_short_forms();
        self.handshake_started = true;
    }

    /// Re-arms the connection to accept a reply for a request issued by
    /// an operational sibling replica before this one recovered. Part of
    /// restoring the infrastructure-level "invocations the replica has
    /// issued, and for which the replica is awaiting responses" (§4.3).
    pub fn restore_outstanding(&mut self, request_id: u32, operation: &str) {
        self.outstanding.insert(
            request_id,
            Outstanding {
                operation: operation.to_owned(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eternal_giop::{GiopMessage, ReplyMessage, ServiceContext};

    fn key() -> ObjectKey {
        ObjectKey::from("bank/account")
    }

    fn reply(request_id: u32, body: &[u8], contexts: Vec<ServiceContext>) -> Vec<u8> {
        let mut sc = ServiceContextList::new();
        for c in contexts {
            sc.set(c.id, c.data);
        }
        GiopMessage::Reply(ReplyMessage {
            service_context: sc,
            request_id,
            reply_status: ReplyStatus::NoException,
            body: body.to_vec(),
        })
        .to_bytes()
        .unwrap()
    }

    #[test]
    fn request_ids_increment_per_connection() {
        let mut c = ClientConnection::new(1);
        let (id0, _) = c.build_request(&key(), "op", &[], true).unwrap();
        let (id1, _) = c.build_request(&key(), "op", &[], true).unwrap();
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(c.next_request_id(), 2);
        assert_eq!(c.outstanding_count(), 2);
    }

    #[test]
    fn request_ids_refuse_to_wrap() {
        // Regression: ids used to `wrapping_add` back to 0, but the
        // dedup horizon downstream is monotone and saturates at
        // u32::MAX, so every post-wrap request would be suppressed as a
        // duplicate. The connection now treats the id space as finite.
        let mut c = ClientConnection::new(1);
        c.restore_request_id(u32::MAX - 2);
        let (a, _) = c.build_request(&key(), "op", &[], true).unwrap();
        let (b, _) = c.build_request(&key(), "op", &[], true).unwrap();
        assert_eq!((a, b), (u32::MAX - 2, u32::MAX - 1));
        let err = c.build_request(&key(), "op", &[], true).unwrap_err();
        assert!(matches!(err, OrbError::RequestIdsExhausted));
        // No wrap happened, and nothing half-issued is outstanding.
        assert_eq!(c.next_request_id(), u32::MAX);
        assert_eq!(c.outstanding_count(), 2);
        // Locate requests share the counter and the refusal.
        let err = c.build_locate_request(&key()).unwrap_err();
        assert!(matches!(err, OrbError::RequestIdsExhausted));
    }

    #[test]
    fn first_request_carries_handshake() {
        let mut c = ClientConnection::new(1);
        let (_, bytes) = c.build_request(&key(), "op", &[], true).unwrap();
        let GiopMessage::Request(req) = GiopMessage::from_bytes(&bytes).unwrap() else {
            panic!("not a request");
        };
        assert!(req.service_context.find(CONTEXT_CODE_SETS).is_some());
        let vh = req.service_context.find(CONTEXT_ETERNAL_VENDOR).unwrap();
        let hs = VendorHandshake::from_context_data(&vh.data).unwrap();
        assert_eq!(hs.full_key, key().as_bytes());
        // Second request: no handshake contexts.
        let (_, bytes2) = c.build_request(&key(), "op", &[], true).unwrap();
        let GiopMessage::Request(req2) = GiopMessage::from_bytes(&bytes2).unwrap() else {
            panic!("not a request");
        };
        assert!(req2.service_context.find(CONTEXT_CODE_SETS).is_none());
    }

    #[test]
    fn matching_reply_is_delivered() {
        let mut c = ClientConnection::new(1);
        let (id, _) = c.build_request(&key(), "deposit", &[], true).unwrap();
        let out = c.handle_reply(&reply(id, b"ok", vec![])).unwrap();
        assert_eq!(out.request_id, id);
        assert_eq!(out.operation, "deposit");
        assert_eq!(out.body, b"ok");
        assert_eq!(c.outstanding_count(), 0);
    }

    #[test]
    fn mismatched_reply_is_discarded() {
        let mut c = ClientConnection::new(1);
        let (_, _) = c.build_request(&key(), "op", &[], true).unwrap();
        // Reply for id 350 when only id 0 is outstanding (Figure 4).
        let err = c.handle_reply(&reply(350, b"late", vec![])).unwrap_err();
        assert!(matches!(err, OrbError::UnexpectedMessage(_)));
        assert_eq!(c.discarded_replies(), 1);
        assert_eq!(c.outstanding_count(), 1, "real request still waiting");
    }

    #[test]
    fn duplicate_reply_is_discarded() {
        let mut c = ClientConnection::new(1);
        let (id, _) = c.build_request(&key(), "op", &[], true).unwrap();
        c.handle_reply(&reply(id, b"ok", vec![])).unwrap();
        assert!(c.handle_reply(&reply(id, b"ok", vec![])).is_err());
        assert_eq!(c.discarded_replies(), 1);
    }

    #[test]
    fn handshake_confirmation_enables_short_keys() {
        let mut c = ClientConnection::new(1);
        let (id, _) = c.build_request(&key(), "op", &[], true).unwrap();
        let confirm = ServiceContext {
            id: CONTEXT_ETERNAL_VENDOR,
            data: VendorHandshake {
                full_key: key().as_bytes().to_vec(),
                short_key: 1,
            }
            .to_context_data(),
        };
        c.handle_reply(&reply(id, b"", vec![confirm])).unwrap();
        assert!(c.is_negotiated());
        // Next request uses the short form on the wire.
        let (_, bytes) = c.build_request(&key(), "op", &[], true).unwrap();
        let GiopMessage::Request(req) = GiopMessage::from_bytes(&bytes).unwrap() else {
            panic!("not a request");
        };
        assert_eq!(req.object_key, ObjectKey::short_form(1));
    }

    #[test]
    fn oneway_requests_are_not_outstanding() {
        let mut c = ClientConnection::new(1);
        let (id, _) = c.build_request(&key(), "notify", &[], false).unwrap();
        assert_eq!(c.outstanding_count(), 0);
        assert!(c.handle_reply(&reply(id, b"", vec![])).is_err());
    }

    #[test]
    fn restore_request_id_resynchronizes() {
        // The recovery scenario: a fresh connection would assign 0; after
        // restoration it continues from the operational replica's value.
        let mut c = ClientConnection::new(1);
        c.restore_request_id(351);
        let (id, _) = c.build_request(&key(), "op", &[], true).unwrap();
        assert_eq!(id, 351);
    }

    #[test]
    fn restore_negotiated_skips_handshake() {
        let mut fresh = ClientConnection::new(2);
        let mut negotiated = NegotiatedState::default();
        negotiated.short_keys.insert(5, key().as_bytes().to_vec());
        fresh.restore_negotiated(negotiated);
        let (_, bytes) = fresh.build_request(&key(), "op", &[], true).unwrap();
        let GiopMessage::Request(req) = GiopMessage::from_bytes(&bytes).unwrap() else {
            panic!("not a request");
        };
        assert!(
            req.service_context.find(CONTEXT_CODE_SETS).is_none(),
            "restored connection must not re-handshake"
        );
        assert_eq!(req.object_key, ObjectKey::short_form(5));
    }

    #[test]
    fn non_reply_rejected() {
        let mut c = ClientConnection::new(1);
        let bogus = GiopMessage::CloseConnection.to_bytes().unwrap();
        assert!(c.handle_reply(&bogus).is_err());
    }

    #[test]
    fn state_snapshot_reflects_counters() {
        let mut c = ClientConnection::new(1);
        c.build_request(&key(), "a", &[], true).unwrap();
        c.build_request(&key(), "b", &[], true).unwrap();
        let s = c.orb_level_state();
        assert_eq!(s.next_request_id, 2);
        assert_eq!(s.outstanding, vec![0, 1]);
    }
}
