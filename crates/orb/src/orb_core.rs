//! The ORB proper: owns the POA and both kinds of connections, and
//! exposes the byte-level transport boundary that Eternal intercepts.
//!
//! A real ORB writes IIOP to TCP sockets. Here the ORB returns encoded
//! bytes to its caller and consumes bytes handed in — the caller *is*
//! the transport. In an unreplicated deployment that caller is a plain
//! point-to-point channel; under Eternal it is the interceptor, which
//! diverts the bytes into totally ordered multicasts without the ORB
//! (or application) noticing. This inversion is what the paper means by
//! an interceptor "located outside the ORB, at the ORB's socket-level
//! interface to the operating system" (§2, footnote 1).

use crate::client::{ClientConnection, ReplyOutcome};
use crate::object::ObjectKey;
use crate::poa::Poa;
use crate::server::ServerConnection;
use crate::state::OrbLevelState;
use crate::OrbError;
use eternal_giop::{IiopProfile, Ior};
use eternal_obs::{EventKind, MetricsRegistry, SimTime, Trace};
use std::collections::BTreeMap;

/// A miniature Object Request Broker.
#[derive(Debug)]
pub struct Orb {
    host: String,
    poa: Poa,
    clients: BTreeMap<u64, ClientConnection>,
    servers: BTreeMap<u64, ServerConnection>,
    next_conn_id: u64,
    /// Virtual time of the event currently being processed; set by the
    /// driver via [`Orb::set_clock`] so trace timestamps are meaningful.
    clock: SimTime,
    /// Per-ORB trace of request-id progress and handshake events;
    /// disabled (no allocation on any path) unless [`Orb::enable_obs`]
    /// is called.
    trace: Trace,
    metrics: MetricsRegistry,
}

impl Orb {
    /// Creates an ORB identified by `host` (in the simulation, the
    /// processor name). Observability is off until [`Orb::enable_obs`].
    pub fn new(host: impl Into<String>) -> Self {
        Orb {
            host: host.into(),
            poa: Poa::new(),
            clients: BTreeMap::new(),
            servers: BTreeMap::new(),
            next_conn_id: 1,
            clock: SimTime::ZERO,
            trace: Trace::disabled(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Turns on event tracing with the given ring-buffer capacity.
    pub fn enable_obs(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// Advances the virtual clock used to timestamp trace events.
    pub fn set_clock(&mut self, now: SimTime) {
        self.clock = now;
    }

    /// This ORB's event trace.
    pub fn obs_trace(&self) -> &Trace {
        &self.trace
    }

    /// This ORB's layer-local metrics (counters only increment while
    /// processing; the driver merges them into the cluster registry).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The host name this ORB publishes in IORs.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The object adapter.
    pub fn poa(&self) -> &Poa {
        &self.poa
    }

    /// The object adapter, mutable.
    pub fn poa_mut(&mut self) -> &mut Poa {
        &mut self.poa
    }

    /// Publishes an IOR for an activated object.
    ///
    /// # Errors
    ///
    /// [`OrbError::ObjectNotExist`] when nothing is active under `key`.
    pub fn object_to_ior(&self, key: &ObjectKey, type_id: &str) -> Result<Ior, OrbError> {
        if !self.poa.is_active(key) {
            return Err(OrbError::ObjectNotExist(key.to_string()));
        }
        Ok(Ior {
            type_id: type_id.to_owned(),
            profile: IiopProfile {
                version: (1, 1),
                host: self.host.clone(),
                port: 2809,
                object_key: key.as_bytes().to_vec(),
                components: Vec::new(),
            },
        })
    }

    /// Opens a client connection (to one logical server endpoint) and
    /// returns its id.
    pub fn open_client_connection(&mut self) -> u64 {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.clients.insert(id, ClientConnection::new(id));
        id
    }

    /// Accepts a server connection (from one logical client endpoint)
    /// and returns its id.
    pub fn accept_server_connection(&mut self) -> u64 {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.servers.insert(id, ServerConnection::new(id));
        id
    }

    /// The client connection with the given id.
    ///
    /// # Errors
    ///
    /// [`OrbError::UnknownConnection`] if absent.
    #[inline]
    pub fn client(&mut self, id: u64) -> Result<&mut ClientConnection, OrbError> {
        self.clients
            .get_mut(&id)
            .ok_or(OrbError::UnknownConnection(id))
    }

    /// The server connection with the given id.
    ///
    /// # Errors
    ///
    /// [`OrbError::UnknownConnection`] if absent.
    pub fn server(&mut self, id: u64) -> Result<&mut ServerConnection, OrbError> {
        self.servers
            .get_mut(&id)
            .ok_or(OrbError::UnknownConnection(id))
    }

    /// Builds a request on client connection `conn`, returning
    /// `(request_id, bytes to transmit)`.
    ///
    /// # Errors
    ///
    /// Unknown connection or encoding failure.
    #[inline]
    pub fn invoke(
        &mut self,
        conn: u64,
        key: &ObjectKey,
        operation: &str,
        args: &[u8],
        response_expected: bool,
    ) -> Result<(u32, Vec<u8>), OrbError> {
        let built = self
            .client(conn)?
            .build_request(key, operation, args, response_expected)?;
        if self.trace.is_enabled() {
            self.metrics.counter_add("orb.requests_built", 1);
            self.trace.record(
                self.clock,
                format!("{}/orb", self.host),
                EventKind::OrbRequestIssued,
                format!("conn={conn} id={} op={operation}", built.0),
            );
        }
        Ok(built)
    }

    /// Feeds incoming request bytes to server connection `conn`;
    /// returns reply bytes when one is produced.
    ///
    /// # Errors
    ///
    /// Unknown connection or parse failure.
    pub fn handle_request(&mut self, conn: u64, bytes: &[u8]) -> Result<Option<Vec<u8>>, OrbError> {
        let server = self
            .servers
            .get_mut(&conn)
            .ok_or(OrbError::UnknownConnection(conn))?;
        server.handle_request(bytes, &mut self.poa)
    }

    /// As [`Orb::handle_request`], also reporting what the connection
    /// did with the request (dispatched vs discarded for lack of
    /// negotiated state).
    ///
    /// # Errors
    ///
    /// Unknown connection or parse failure.
    pub fn handle_request_disposed(
        &mut self,
        conn: u64,
        bytes: &[u8],
    ) -> Result<(Option<Vec<u8>>, crate::server::RequestDisposition), OrbError> {
        let server = self
            .servers
            .get_mut(&conn)
            .ok_or(OrbError::UnknownConnection(conn))?;
        let negotiated_before = server.is_negotiated();
        let result = server.handle_request_disposed(bytes, &mut self.poa);
        if self.trace.is_enabled() {
            let source = format!("{}/orb", self.host);
            if let Ok((_, disposition)) = &result {
                let negotiated_after = self.servers.get(&conn).is_some_and(|s| s.is_negotiated());
                if !negotiated_before && negotiated_after {
                    self.metrics.counter_add("orb.handshakes_negotiated", 1);
                    self.trace.record(
                        self.clock,
                        source.clone(),
                        EventKind::OrbHandshakeNegotiated,
                        format!("conn={conn}"),
                    );
                }
                let last_id = self
                    .servers
                    .get(&conn)
                    .and_then(|s| s.orb_level_state().last_seen_request_id);
                let id_detail = match last_id {
                    Some(id) => format!("conn={conn} id={id}"),
                    None => format!("conn={conn}"),
                };
                match disposition {
                    crate::server::RequestDisposition::Dispatched => {
                        self.metrics.counter_add("orb.requests_dispatched", 1);
                        self.trace.record(
                            self.clock,
                            source,
                            EventKind::OrbRequestDispatched,
                            id_detail,
                        );
                    }
                    crate::server::RequestDisposition::DiscardedUnnegotiated => {
                        self.metrics
                            .counter_add("orb.requests_discarded_unnegotiated", 1);
                        self.trace.record(
                            self.clock,
                            source,
                            EventKind::OrbRequestDiscarded,
                            id_detail,
                        );
                    }
                }
            }
        }
        result
    }

    /// Absorbs a replayed handshake on server connection `conn`:
    /// installs the negotiated service contexts and short-key aliases
    /// without dispatching the piggybacked operation (see
    /// [`crate::server::ServerConnection::absorb_handshake`]).
    ///
    /// # Errors
    ///
    /// Unknown connection or parse failure.
    pub fn absorb_handshake(&mut self, conn: u64, bytes: &[u8]) -> Result<(), OrbError> {
        let server = self
            .servers
            .get_mut(&conn)
            .ok_or(OrbError::UnknownConnection(conn))?;
        let negotiated_before = server.is_negotiated();
        let result = server.absorb_handshake(bytes);
        if self.trace.is_enabled() && result.is_ok() {
            let negotiated_after = self.servers.get(&conn).is_some_and(|s| s.is_negotiated());
            if !negotiated_before && negotiated_after {
                self.metrics.counter_add("orb.handshakes_negotiated", 1);
                self.trace.record(
                    self.clock,
                    format!("{}/orb", self.host),
                    EventKind::OrbHandshakeNegotiated,
                    format!("conn={conn}"),
                );
            }
        }
        result
    }

    /// Feeds incoming reply bytes to client connection `conn`.
    ///
    /// # Errors
    ///
    /// Unknown connection, parse failure, or a request-id mismatch (the
    /// reply is then discarded, per §4.2.1).
    #[inline]
    pub fn handle_reply<'a>(
        &mut self,
        conn: u64,
        bytes: &'a [u8],
    ) -> Result<ReplyOutcome<'a>, OrbError> {
        let result = self.client(conn)?.handle_reply(bytes);
        if self.trace.is_enabled() {
            let source = format!("{}/orb", self.host);
            match &result {
                Ok(outcome) => {
                    self.metrics.counter_add("orb.replies_matched", 1);
                    self.trace.record(
                        self.clock,
                        source,
                        EventKind::OrbReplyMatched,
                        format!(
                            "conn={conn} id={} op={}",
                            outcome.request_id, outcome.operation
                        ),
                    );
                }
                Err(err) => {
                    self.metrics.counter_add("orb.replies_discarded", 1);
                    self.trace.record(
                        self.clock,
                        source,
                        EventKind::OrbReplyDiscarded,
                        format!("conn={conn} {err}"),
                    );
                }
            }
        }
        result
    }

    /// Dispatches a control operation (`get_state` / `set_state`) to an
    /// active object through the POA, outside of any connection — used
    /// by Eternal's recovery mechanisms. Recorded in the trace so tests
    /// can order state application against normal dispatches.
    ///
    /// # Errors
    ///
    /// Whatever the POA dispatch raises (no such object, servant error).
    pub fn dispatch_control(
        &mut self,
        key: &ObjectKey,
        operation: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, OrbError> {
        if self.trace.is_enabled() {
            self.metrics.counter_add("orb.control_dispatches", 1);
            self.trace.record(
                self.clock,
                format!("{}/orb", self.host),
                EventKind::OrbControlDispatch,
                format!("op={operation} key={key}"),
            );
        }
        self.poa.dispatch(key, operation, args)
    }

    /// Ground-truth snapshot of all ORB/POA-level state (tests compare
    /// Eternal's observation-based reconstruction against this).
    pub fn orb_level_state(&self) -> OrbLevelState {
        OrbLevelState {
            clients: self
                .clients
                .iter()
                .map(|(&id, c)| (id, c.orb_level_state()))
                .collect(),
            servers: self
                .servers
                .iter()
                .map(|(&id, s)| (id, s.orb_level_state()))
                .collect(),
            poa_dispatch_count: self.poa.dispatch_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servant::{CheckpointableServant, Servant, ServantError};
    use eternal_cdr::{Any, Value};

    struct Counter(u32);
    impl Servant for Counter {
        fn dispatch(&mut self, op: &str, _args: &[u8]) -> Result<Vec<u8>, ServantError> {
            match op {
                "increment" => {
                    self.0 += 1;
                    Ok(self.0.to_be_bytes().to_vec())
                }
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

    #[test]
    fn two_orbs_end_to_end() {
        let key = ObjectKey::from("counter");
        let mut server_orb = Orb::new("P1");
        server_orb
            .poa_mut()
            .activate_checkpointable(key.clone(), Box::new(Counter(0)));
        let sconn = server_orb.accept_server_connection();

        let mut client_orb = Orb::new("P0");
        let cconn = client_orb.open_client_connection();

        for expected in 1..=3u32 {
            let (_, req) = client_orb
                .invoke(cconn, &key, "increment", &[], true)
                .unwrap();
            let reply = server_orb.handle_request(sconn, &req).unwrap().unwrap();
            let out = client_orb.handle_reply(cconn, &reply).unwrap();
            assert_eq!(out.body, expected.to_be_bytes());
        }
        let state = server_orb.orb_level_state();
        assert_eq!(state.poa_dispatch_count, 3);
        assert_eq!(state.servers[&sconn].last_seen_request_id, Some(2));
        let cstate = client_orb.orb_level_state();
        assert_eq!(cstate.clients[&cconn].next_request_id, 3);
    }

    #[test]
    fn ior_publication() {
        let key = ObjectKey::from("counter");
        let mut orb = Orb::new("P7");
        orb.poa_mut()
            .activate_checkpointable(key.clone(), Box::new(Counter(0)));
        let ior = orb.object_to_ior(&key, "IDL:Counter:1.0").unwrap();
        assert_eq!(ior.profile.host, "P7");
        assert_eq!(ior.profile.object_key, key.as_bytes());
        assert!(orb
            .object_to_ior(&ObjectKey::from("ghost"), "IDL:X:1.0")
            .is_err());
    }

    #[test]
    fn unknown_connections_rejected() {
        let mut orb = Orb::new("P0");
        assert!(matches!(
            orb.handle_request(99, &[]),
            Err(OrbError::UnknownConnection(99))
        ));
        assert!(matches!(
            orb.handle_reply(99, &[]),
            Err(OrbError::UnknownConnection(99))
        ));
    }

    #[test]
    fn connection_ids_are_unique() {
        let mut orb = Orb::new("P0");
        let a = orb.open_client_connection();
        let b = orb.accept_server_connection();
        let c = orb.open_client_connection();
        assert!(a != b && b != c && a != c);
    }
}
