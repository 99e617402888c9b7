//! Observation-based reconstruction of ORB/POA-level state (paper §4.2).
//!
//! The request-id counter and the negotiated handshake live *inside*
//! the ORB, and "there are no hooks in today's ORBs to retrieve this
//! information. Fortunately, the request_id information is visible from
//! outside the ORB, in the IIOP request and response messages that are
//! sent by the ORB." The observer therefore parses the IIOP requests
//! the local mechanisms convey and maintains, per logical connection:
//!
//! * the last request id each client-side ORB assigned (§4.2.1), and
//! * the stored initial handshake request (§4.2.2), kept verbatim so it
//!   can be replayed into a new server replica's ORB ahead of any other
//!   request from that client.
//!
//! It observes only where a replica of either group of a connection is
//! hosted or deployed, which is where a capture reads it; a replica
//! launched elsewhere gets the entries at its transfer (`merge_transferred`).

use crate::gid::ConnectionName;
use eternal_giop::{MessageView, CONTEXT_CODE_SETS, CONTEXT_ETERNAL_VENDOR};
use std::collections::BTreeMap;

/// Per-connection ORB-level facts learned from the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObservedConnection {
    /// Highest GIOP request id seen on an outgoing request.
    pub last_request_id: Option<u32>,
    /// The verbatim bytes of the handshake-carrying request (the first
    /// request bearing negotiation service contexts).
    pub handshake: Option<Vec<u8>>,
}

/// Parses IIOP traffic and accumulates the recoverable ORB/POA-level
/// state of every connection it sees.
#[derive(Debug, Default)]
pub struct OrbStateObserver {
    connections: BTreeMap<ConnectionName, ObservedConnection>,
}

impl OrbStateObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one outgoing/incoming IIOP request on `conn`, reading
    /// it where it lies: only the first handshake is ever copied.
    /// Non-request messages and unparseable bytes are ignored (the
    /// observer must never disturb the traffic it watches).
    pub fn observe_request(&mut self, conn: ConnectionName, bytes: &[u8]) {
        let Ok(MessageView::Request(req)) = MessageView::parse(bytes) else {
            return;
        };
        let entry = self.connections.entry(conn).or_default();
        entry.last_request_id = Some(match entry.last_request_id {
            Some(prev) => prev.max(req.request_id),
            None => req.request_id,
        });
        let carries_handshake = req.service_context.find(CONTEXT_CODE_SETS).is_some()
            || req.service_context.find(CONTEXT_ETERNAL_VENDOR).is_some();
        if carries_handshake && entry.handshake.is_none() {
            entry.handshake = Some(bytes.to_vec());
        }
    }

    /// What the observer knows about `conn`.
    pub fn connection(&self, conn: ConnectionName) -> Option<&ObservedConnection> {
        self.connections.get(&conn)
    }

    /// §4.2.1: the request id a consistent ORB would assign next on each
    /// connection where `is_client(conn)` holds.
    pub fn next_request_ids(
        &self,
        mut is_client: impl FnMut(ConnectionName) -> bool,
    ) -> Vec<(ConnectionName, u32)> {
        self.connections
            .iter()
            .filter(|(&c, o)| is_client(c) && o.last_request_id.is_some())
            .map(|(&c, o)| (c, o.last_request_id.expect("filtered Some").wrapping_add(1)))
            .collect()
    }

    /// §4.2.2: the stored handshake messages for each connection where
    /// `is_server(conn)` holds.
    pub fn handshakes(
        &self,
        mut is_server: impl FnMut(ConnectionName) -> bool,
    ) -> Vec<(ConnectionName, Vec<u8>)> {
        self.connections
            .iter()
            .filter(|(&c, _)| is_server(c))
            .filter_map(|(&c, o)| o.handshake.clone().map(|h| (c, h)))
            .collect()
    }

    /// Installs observations transferred from another processor's
    /// mechanisms (used when a new replica's host has never seen the
    /// connection's traffic).
    pub fn merge_transferred(
        &mut self,
        request_ids: &[(ConnectionName, u32)],
        handshakes: &[(ConnectionName, Vec<u8>)],
    ) {
        for &(conn, next) in request_ids {
            let entry = self.connections.entry(conn).or_default();
            let last = next.wrapping_sub(1);
            entry.last_request_id = Some(match entry.last_request_id {
                Some(prev) => prev.max(last),
                None => last,
            });
        }
        for (conn, bytes) in handshakes {
            let entry = self.connections.entry(*conn).or_default();
            if entry.handshake.is_none() {
                entry.handshake = Some(bytes.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::GroupId;
    use eternal_giop::{GiopMessage, RequestMessage, ServiceContextList};

    fn conn() -> ConnectionName {
        ConnectionName {
            client: GroupId(1),
            server: GroupId(2),
        }
    }

    fn request(id: u32, with_handshake: bool) -> Vec<u8> {
        let mut sc = ServiceContextList::new();
        if with_handshake {
            sc.set(CONTEXT_CODE_SETS, vec![0, 1, 2]);
        }
        GiopMessage::Request(RequestMessage {
            service_context: sc,
            request_id: id,
            response_expected: true,
            object_key: b"obj".to_vec(),
            operation: "op".into(),
            body: vec![],
        })
        .to_bytes()
        .unwrap()
    }

    #[test]
    fn learns_request_ids_by_parsing() {
        let mut obs = OrbStateObserver::new();
        obs.observe_request(conn(), &request(348, true));
        obs.observe_request(conn(), &request(349, false));
        obs.observe_request(conn(), &request(350, false));
        let ids = obs.next_request_ids(|_| true);
        assert_eq!(ids, vec![(conn(), 351)]);
    }

    #[test]
    fn max_wins_even_out_of_order() {
        let mut obs = OrbStateObserver::new();
        obs.observe_request(conn(), &request(10, false));
        obs.observe_request(conn(), &request(3, false));
        assert_eq!(obs.next_request_ids(|_| true), vec![(conn(), 11)]);
    }

    #[test]
    fn stores_first_handshake_verbatim() {
        let mut obs = OrbStateObserver::new();
        let hs = request(0, true);
        obs.observe_request(conn(), &hs);
        obs.observe_request(conn(), &request(1, true)); // later negotiation noise
        let stored = obs.handshakes(|_| true);
        assert_eq!(stored, vec![(conn(), hs)]);
    }

    #[test]
    fn plain_requests_store_no_handshake() {
        let mut obs = OrbStateObserver::new();
        obs.observe_request(conn(), &request(0, false));
        assert!(obs.handshakes(|_| true).is_empty());
        assert!(obs.connection(conn()).unwrap().handshake.is_none());
    }

    #[test]
    fn garbage_and_non_requests_ignored() {
        let mut obs = OrbStateObserver::new();
        obs.observe_request(conn(), &[1, 2, 3]);
        obs.observe_request(conn(), &GiopMessage::CloseConnection.to_bytes().unwrap());
        assert!(obs.connection(conn()).is_none());
    }

    #[test]
    fn filters_scope_the_role() {
        let mut obs = OrbStateObserver::new();
        obs.observe_request(conn(), &request(7, true));
        assert!(obs.next_request_ids(|_| false).is_empty());
        assert!(obs.handshakes(|_| false).is_empty());
    }

    #[test]
    fn merge_transferred_observations() {
        let mut obs = OrbStateObserver::new();
        let hs = request(0, true);
        obs.merge_transferred(&[(conn(), 351)], &[(conn(), hs.clone())]);
        assert_eq!(obs.next_request_ids(|_| true), vec![(conn(), 351)]);
        assert_eq!(obs.handshakes(|_| true), vec![(conn(), hs)]);
        // Local newer observation beats transferred older one.
        obs.observe_request(conn(), &request(400, false));
        assert_eq!(obs.next_request_ids(|_| true), vec![(conn(), 401)]);
    }
}
