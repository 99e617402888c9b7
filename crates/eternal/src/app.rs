//! Application-object traits and ready-made test applications.
//!
//! Server objects are [`CheckpointableServant`]s from `eternal-orb`
//! (the FT-CORBA `Checkpointable` interface). Client objects implement
//! [`ClientApp`]: a deterministic, event-driven behaviour that every
//! replica of a replicated client executes identically — the paper's
//! determinism requirement (§2.1) made explicit in the API.

use crate::gid::GroupId;
use eternal_cdr::{Any, Value};
use eternal_giop::ReplyStatus;
use eternal_orb::servant::{CheckpointableServant, Servant, ServantError};

/// An invocation a client application wants to issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppInvocation {
    /// The replicated server to invoke.
    pub server: GroupId,
    /// IDL operation name.
    pub operation: String,
    /// CDR-encoded arguments.
    pub args: Vec<u8>,
    /// `false` for oneway operations.
    pub response_expected: bool,
}

impl AppInvocation {
    /// A two-way invocation with no arguments.
    pub fn two_way(server: GroupId, operation: &str) -> Self {
        AppInvocation {
            server,
            operation: operation.to_owned(),
            args: Vec::new(),
            response_expected: true,
        }
    }
}

/// The behaviour of a replicated client object.
///
/// Implementations **must be deterministic**: given the same sequence
/// of callbacks, every replica must produce the same invocations and
/// reach the same state (paper §2.1). `get_state`/`set_state` make the
/// client Checkpointable, as FT-CORBA requires of every replicated
/// object.
pub trait ClientApp: Send {
    /// Called once when the replicated client is deployed; returns the
    /// initial invocations.
    fn on_start(&mut self) -> Vec<AppInvocation>;

    /// Called for each reply delivered to the client; returns follow-up
    /// invocations.
    fn on_reply(
        &mut self,
        server: GroupId,
        operation: &str,
        status: ReplyStatus,
        body: &[u8],
    ) -> Vec<AppInvocation>;

    /// Called when the infrastructure injects a load tick (the chaos
    /// campaign driver uses this to re-burst traffic between fault
    /// steps). Like every callback it must be deterministic; the
    /// default issues nothing.
    fn on_tick(&mut self) -> Vec<AppInvocation> {
        Vec::new()
    }

    /// Application-level state (paper §4.1).
    fn get_state(&self) -> Any;

    /// Overwrites application-level state.
    fn set_state(&mut self, state: &Any);
}

// ====================================================================
// Ready-made applications used by examples, tests, and benchmarks
// ====================================================================

/// A counter object: `increment` returns the new value, `value` reads
/// it. Application-level state is the count.
#[derive(Debug, Default)]
pub struct CounterServant {
    count: u32,
}

impl CounterServant {
    /// Creates a counter starting at `count`.
    pub fn with_value(count: u32) -> Self {
        CounterServant { count }
    }
}

impl Servant for CounterServant {
    fn dispatch(&mut self, operation: &str, _args: &[u8]) -> Result<Vec<u8>, ServantError> {
        match operation {
            "increment" => {
                self.count += 1;
                Ok(self.count.to_be_bytes().to_vec())
            }
            "value" => Ok(self.count.to_be_bytes().to_vec()),
            other => Err(ServantError::BadOperation(other.to_owned())),
        }
    }

    fn type_id(&self) -> &str {
        "IDL:Eternal/Counter:1.0"
    }
}

impl CheckpointableServant for CounterServant {
    fn get_state(&self) -> Result<Any, ServantError> {
        Ok(Any::from(self.count))
    }

    fn set_state(&mut self, state: &Any) -> Result<(), ServantError> {
        match &state.value {
            Value::ULong(v) => {
                self.count = *v;
                Ok(())
            }
            _ => Err(ServantError::InvalidState),
        }
    }
}

/// A server whose application-level state is an opaque blob of
/// configurable size — the server used to sweep Figure 6's x-axis.
/// Each `touch` deterministically mutates the blob (so checkpoints are
/// meaningful), and `size` reports its length.
#[derive(Debug)]
pub struct BlobServant {
    blob: Vec<u8>,
    touches: u32,
}

impl BlobServant {
    /// Creates a servant with `size` bytes of state.
    ///
    /// Byte `i` is `i % 251`, written a period at a time: a replacement
    /// replica is constructed inside the recovery it is timed with, and
    /// a division per byte was a ninth of the 350 kB one.
    pub fn with_size(size: usize) -> Self {
        const PERIOD: [u8; 251] = {
            let mut period = [0; 251];
            let mut i = 0;
            while i < period.len() {
                period[i] = i as u8;
                i += 1;
            }
            period
        };
        let mut blob = Vec::with_capacity(size);
        while blob.len() < size {
            let n = PERIOD.len().min(size - blob.len());
            blob.extend_from_slice(&PERIOD[..n]);
        }
        BlobServant { blob, touches: 0 }
    }
}

impl Servant for BlobServant {
    fn dispatch(&mut self, operation: &str, _args: &[u8]) -> Result<Vec<u8>, ServantError> {
        match operation {
            "touch" => {
                self.touches += 1;
                if !self.blob.is_empty() {
                    let idx = (self.touches as usize * 31) % self.blob.len();
                    self.blob[idx] = self.blob[idx].wrapping_add(1);
                }
                Ok(self.touches.to_be_bytes().to_vec())
            }
            "size" => Ok((self.blob.len() as u32).to_be_bytes().to_vec()),
            other => Err(ServantError::BadOperation(other.to_owned())),
        }
    }

    fn type_id(&self) -> &str {
        "IDL:Eternal/Blob:1.0"
    }
}

impl CheckpointableServant for BlobServant {
    fn get_state(&self) -> Result<Any, ServantError> {
        // State = touches counter + blob, as a struct of ulong + octets.
        Ok(Any::from(Value::Struct(vec![
            Value::ULong(self.touches),
            Value::Octets(self.blob.clone()),
        ])))
    }

    fn set_state(&mut self, state: &Any) -> Result<(), ServantError> {
        let Value::Struct(members) = &state.value else {
            return Err(ServantError::InvalidState);
        };
        let [Value::ULong(touches), Value::Octets(blob)] = members.as_slice() else {
            return Err(ServantError::InvalidState);
        };
        self.touches = *touches;
        self.blob.clone_from(blob);
        Ok(())
    }
}

/// A replicated key-value store with CDR-marshalled operations:
/// `put(key, value)`, `get(key) -> value`, `remove(key)`, and a
/// `notify(key)` **oneway** (no reply) that bumps a per-key access
/// counter. Application-level state is the full map plus the counters.
///
/// Arguments and results travel as CDR strings, exercising the real
/// marshalling path end to end.
#[derive(Debug, Default)]
pub struct KvStoreServant {
    entries: std::collections::BTreeMap<String, String>,
    touches: std::collections::BTreeMap<String, u32>,
}

impl KvStoreServant {
    fn read_two_strings(args: &[u8]) -> Result<(String, String), ServantError> {
        let mut dec = eternal_cdr::CdrDecoder::new(args, eternal_cdr::Endian::Big);
        let k = dec
            .read_string()
            .map_err(|e| ServantError::BadArguments(e.to_string()))?;
        let v = dec
            .read_string()
            .map_err(|e| ServantError::BadArguments(e.to_string()))?;
        Ok((k, v))
    }

    fn read_one_string(args: &[u8]) -> Result<String, ServantError> {
        let mut dec = eternal_cdr::CdrDecoder::new(args, eternal_cdr::Endian::Big);
        dec.read_string()
            .map_err(|e| ServantError::BadArguments(e.to_string()))
    }

    fn write_string(s: &str) -> Vec<u8> {
        let mut enc = eternal_cdr::CdrEncoder::new(eternal_cdr::Endian::Big);
        enc.write_string(s).expect("no NUL in values");
        enc.into_bytes()
    }

    /// Encodes `put` arguments (for clients).
    pub fn put_args(key: &str, value: &str) -> Vec<u8> {
        let mut enc = eternal_cdr::CdrEncoder::new(eternal_cdr::Endian::Big);
        enc.write_string(key).expect("no NUL");
        enc.write_string(value).expect("no NUL");
        enc.into_bytes()
    }

    /// Encodes `get`/`remove`/`notify` arguments (for clients).
    pub fn key_args(key: &str) -> Vec<u8> {
        Self::write_string(key)
    }
}

impl Servant for KvStoreServant {
    fn dispatch(&mut self, operation: &str, args: &[u8]) -> Result<Vec<u8>, ServantError> {
        match operation {
            "put" => {
                let (k, v) = Self::read_two_strings(args)?;
                self.entries.insert(k, v);
                Ok(Vec::new())
            }
            "get" => {
                let k = Self::read_one_string(args)?;
                match self.entries.get(&k) {
                    Some(v) => Ok(Self::write_string(v)),
                    None => Err(ServantError::UserException("KeyNotFound".into())),
                }
            }
            "remove" => {
                let k = Self::read_one_string(args)?;
                self.entries.remove(&k);
                Ok(Vec::new())
            }
            "notify" => {
                // Oneway: the result bytes are never sent anywhere.
                let k = Self::read_one_string(args)?;
                *self.touches.entry(k).or_insert(0) += 1;
                Ok(Vec::new())
            }
            "len" => Ok((self.entries.len() as u32).to_be_bytes().to_vec()),
            other => Err(ServantError::BadOperation(other.to_owned())),
        }
    }

    fn type_id(&self) -> &str {
        "IDL:Eternal/KvStore:1.0"
    }
}

/// The elements of a decoded sequence. An empty map's sequence has
/// nothing to infer an element type from, travels as the default
/// `sequence<octet>`, and so comes back as empty `Octets`.
fn sequence_items(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Sequence(items) => Some(items),
        Value::Octets(bytes) if bytes.is_empty() => Some(&[]),
        _ => None,
    }
}

impl CheckpointableServant for KvStoreServant {
    fn get_state(&self) -> Result<Any, ServantError> {
        let entries = Value::Sequence(
            self.entries
                .iter()
                .map(|(k, v)| {
                    Value::Struct(vec![Value::String(k.clone()), Value::String(v.clone())])
                })
                .collect(),
        );
        let touches = Value::Sequence(
            self.touches
                .iter()
                .map(|(k, n)| Value::Struct(vec![Value::String(k.clone()), Value::ULong(*n)]))
                .collect(),
        );
        Ok(Any::from(Value::Struct(vec![entries, touches])))
    }

    fn set_state(&mut self, state: &Any) -> Result<(), ServantError> {
        let Value::Struct(top) = &state.value else {
            return Err(ServantError::InvalidState);
        };
        let [entries, touches] = top.as_slice() else {
            return Err(ServantError::InvalidState);
        };
        let (Some(entries), Some(touches)) = (sequence_items(entries), sequence_items(touches))
        else {
            return Err(ServantError::InvalidState);
        };
        let mut new_entries = std::collections::BTreeMap::new();
        for e in entries {
            let Value::Struct(kv) = e else {
                return Err(ServantError::InvalidState);
            };
            let [Value::String(k), Value::String(v)] = kv.as_slice() else {
                return Err(ServantError::InvalidState);
            };
            new_entries.insert(k.clone(), v.clone());
        }
        let mut new_touches = std::collections::BTreeMap::new();
        for t in touches {
            let Value::Struct(kn) = t else {
                return Err(ServantError::InvalidState);
            };
            let [Value::String(k), Value::ULong(n)] = kn.as_slice() else {
                return Err(ServantError::InvalidState);
            };
            new_touches.insert(k.clone(), *n);
        }
        self.entries = new_entries;
        self.touches = new_touches;
        Ok(())
    }
}

/// The paper's test client (§6): "a packet driver, sending a constant
/// stream of two-way invocations" at a server group. Issues `burst`
/// invocations at start and one more for every reply received.
#[derive(Debug)]
pub struct StreamingClient {
    server: GroupId,
    operation: String,
    burst: usize,
    sent: u64,
    received: u64,
    /// Stop after this many replies (0 = unbounded).
    limit: u64,
}

impl StreamingClient {
    /// Streams `operation` at `server`, keeping `burst` invocations in
    /// flight.
    pub fn new(server: GroupId, operation: &str, burst: usize) -> Self {
        StreamingClient {
            server,
            operation: operation.to_owned(),
            burst,
            sent: 0,
            received: 0,
            limit: 0,
        }
    }

    /// Bounds the total number of replies to process.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    fn invocation(&mut self) -> AppInvocation {
        self.sent += 1;
        AppInvocation::two_way(self.server, &self.operation)
    }
}

impl ClientApp for StreamingClient {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        (0..self.burst).map(|_| self.invocation()).collect()
    }

    fn on_reply(
        &mut self,
        _server: GroupId,
        _operation: &str,
        _status: ReplyStatus,
        _body: &[u8],
    ) -> Vec<AppInvocation> {
        self.received += 1;
        if self.limit != 0 && self.received >= self.limit {
            return Vec::new();
        }
        vec![self.invocation()]
    }

    fn get_state(&self) -> Any {
        Any::from(Value::Struct(vec![
            Value::ULongLong(self.sent),
            Value::ULongLong(self.received),
        ]))
    }

    fn set_state(&mut self, state: &Any) {
        if let Value::Struct(m) = &state.value {
            if let [Value::ULongLong(sent), Value::ULongLong(received)] = m.as_slice() {
                self.sent = *sent;
                self.received = *received;
            }
        }
    }
}

/// A client that issues a fixed burst of two-way invocations per load
/// tick and then falls silent until the next tick — the workload shape
/// the chaos campaigns need: traffic that *drains*, so the cluster
/// reaches a quiescent point where convergence can be checked, then
/// restarts on demand.
#[derive(Debug)]
pub struct BurstClient {
    server: GroupId,
    operation: String,
    per_burst: u64,
    sent: u64,
    received: u64,
}

impl BurstClient {
    /// Issues `per_burst` invocations of `operation` at `server` on
    /// start and on every tick.
    pub fn new(server: GroupId, operation: &str, per_burst: u64) -> Self {
        BurstClient {
            server,
            operation: operation.to_owned(),
            per_burst,
            sent: 0,
            received: 0,
        }
    }

    fn burst(&mut self) -> Vec<AppInvocation> {
        (0..self.per_burst)
            .map(|_| {
                self.sent += 1;
                AppInvocation::two_way(self.server, &self.operation)
            })
            .collect()
    }
}

impl ClientApp for BurstClient {
    fn on_start(&mut self) -> Vec<AppInvocation> {
        self.burst()
    }

    fn on_reply(
        &mut self,
        _server: GroupId,
        _operation: &str,
        _status: ReplyStatus,
        _body: &[u8],
    ) -> Vec<AppInvocation> {
        self.received += 1;
        Vec::new()
    }

    fn on_tick(&mut self) -> Vec<AppInvocation> {
        self.burst()
    }

    fn get_state(&self) -> Any {
        Any::from(Value::Struct(vec![
            Value::ULongLong(self.sent),
            Value::ULongLong(self.received),
        ]))
    }

    fn set_state(&mut self, state: &Any) {
        if let Value::Struct(m) = &state.value {
            if let [Value::ULongLong(sent), Value::ULongLong(received)] = m.as_slice() {
                self.sent = *sent;
                self.received = *received;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_client_drains_between_ticks() {
        let mut c = BurstClient::new(GroupId(2), "increment", 3);
        assert_eq!(c.on_start().len(), 3);
        // Replies produce no follow-ups: the burst drains.
        assert!(c
            .on_reply(GroupId(2), "increment", ReplyStatus::NoException, &[])
            .is_empty());
        assert_eq!(c.on_tick().len(), 3);
        assert_eq!((c.sent, c.received), (6, 1));
        // State round-trips for recovery.
        let snap = c.get_state();
        let mut d = BurstClient::new(GroupId(2), "increment", 3);
        d.set_state(&snap);
        assert_eq!((d.sent, d.received), (6, 1));
    }

    #[test]
    fn counter_round_trip() {
        let mut c = CounterServant::default();
        assert_eq!(c.dispatch("increment", &[]).unwrap(), 1u32.to_be_bytes());
        assert_eq!(c.dispatch("value", &[]).unwrap(), 1u32.to_be_bytes());
        let snap = CheckpointableServant::get_state(&c).unwrap();
        let mut c2 = CounterServant::with_value(99);
        CheckpointableServant::set_state(&mut c2, &snap).unwrap();
        assert_eq!(c2.dispatch("value", &[]).unwrap(), 1u32.to_be_bytes());
    }

    #[test]
    fn blob_bytes_are_their_index_modulo_251() {
        for size in [0, 1, 250, 251, 252, 1000] {
            let expected: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            assert_eq!(BlobServant::with_size(size).blob, expected);
        }
    }

    #[test]
    fn blob_state_round_trips_and_scales() {
        let mut b = BlobServant::with_size(1000);
        b.dispatch("touch", &[]).unwrap();
        b.dispatch("touch", &[]).unwrap();
        let snap = CheckpointableServant::get_state(&b).unwrap();
        let mut b2 = BlobServant::with_size(0);
        CheckpointableServant::set_state(&mut b2, &snap).unwrap();
        assert_eq!(b2.blob, b.blob);
        assert_eq!(b2.touches, 2);
        // Marshalled size tracks the configured blob size.
        let small = CheckpointableServant::get_state(&BlobServant::with_size(10))
            .unwrap()
            .encoded_len();
        let large = CheckpointableServant::get_state(&BlobServant::with_size(10_000))
            .unwrap()
            .encoded_len();
        assert!(large > small + 9_000);
    }

    #[test]
    fn blob_state_wire_form_is_pinned() {
        // Captured from the element-wise `Value::Sequence(Octet…)`
        // representation this servant used before `Value::Octets`:
        // struct "anonymous" { m0: ulong, m1: sequence<octet> }.
        let mut b = BlobServant::with_size(8);
        b.dispatch("touch", &[]).unwrap();
        let bytes = CheckpointableServant::get_state(&b)
            .unwrap()
            .to_bytes()
            .unwrap();
        #[rustfmt::skip]
        let golden: [u8; 92] = [
            0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 64, 0, 0, 0, 0,
            0, 0, 0, 10, 97, 110, 111, 110, 121, 109, 111, 117, 115, 0, 0, 0,
            0, 0, 0, 2, 0, 0, 0, 3, 109, 48, 0, 0, 0, 0, 0, 5,
            0, 0, 0, 3, 109, 49, 0, 0, 0, 0, 0, 19, 0, 0, 0, 12,
            0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 1,
            0, 0, 0, 8, 0, 1, 2, 3, 4, 5, 6, 8,
        ];
        assert_eq!(bytes, golden);
        let mut b2 = BlobServant::with_size(0);
        CheckpointableServant::set_state(&mut b2, &Any::from_bytes(&golden).unwrap()).unwrap();
        assert_eq!((b2.blob, b2.touches), (b.blob, 1));
    }

    #[test]
    fn blob_rejects_malformed_state_and_keeps_its_own() {
        let mut b = BlobServant::with_size(4);
        b.dispatch("touch", &[]).unwrap();
        let elementwise = Value::Sequence(vec![Value::Octet(1), Value::Octet(2)]);
        for wrong in [
            Value::ULong(3),
            Value::Octets(vec![1, 2]),
            Value::Struct(vec![Value::ULong(9)]),
            Value::Struct(vec![Value::ULong(9), Value::String("no".into())]),
            // Only the shape `decode` yields is accepted.
            Value::Struct(vec![Value::ULong(9), elementwise]),
            Value::Struct(vec![Value::Octets(vec![1, 2]), Value::ULong(9)]),
            Value::Struct(vec![
                Value::ULong(9),
                Value::Octets(vec![1, 2]),
                Value::Null,
            ]),
        ] {
            assert!(matches!(
                CheckpointableServant::set_state(&mut b, &Any::from(wrong)),
                Err(ServantError::InvalidState)
            ));
            assert_eq!((b.blob.as_slice(), b.touches), (&[0u8, 1, 2, 4][..], 1));
        }
    }

    #[test]
    fn streaming_client_keeps_burst_in_flight() {
        let mut c = StreamingClient::new(GroupId(2), "touch", 4);
        let initial = c.on_start();
        assert_eq!(initial.len(), 4);
        assert!(initial.iter().all(|i| i.operation == "touch"));
        let next = c.on_reply(GroupId(2), "touch", ReplyStatus::NoException, &[]);
        assert_eq!(next.len(), 1);
        assert_eq!(c.sent, 5);
        assert_eq!(c.received, 1);
    }

    #[test]
    fn streaming_client_respects_limit() {
        let mut c = StreamingClient::new(GroupId(2), "op", 1).with_limit(2);
        c.on_start();
        assert_eq!(
            c.on_reply(GroupId(2), "op", ReplyStatus::NoException, &[])
                .len(),
            1
        );
        assert!(c
            .on_reply(GroupId(2), "op", ReplyStatus::NoException, &[])
            .is_empty());
    }

    #[test]
    fn kv_store_crud_round_trip() {
        let mut kv = KvStoreServant::default();
        kv.dispatch("put", &KvStoreServant::put_args("alice", "100"))
            .unwrap();
        kv.dispatch("put", &KvStoreServant::put_args("bob", "250"))
            .unwrap();
        let got = kv
            .dispatch("get", &KvStoreServant::key_args("alice"))
            .unwrap();
        let mut dec = eternal_cdr::CdrDecoder::new(&got, eternal_cdr::Endian::Big);
        assert_eq!(dec.read_string().unwrap(), "100");
        kv.dispatch("remove", &KvStoreServant::key_args("alice"))
            .unwrap();
        assert!(matches!(
            kv.dispatch("get", &KvStoreServant::key_args("alice")),
            Err(ServantError::UserException(_))
        ));
        assert_eq!(
            kv.dispatch("len", &[]).unwrap(),
            1u32.to_be_bytes().to_vec()
        );
    }

    #[test]
    fn kv_store_state_round_trips_through_any() {
        let mut kv = KvStoreServant::default();
        kv.dispatch("put", &KvStoreServant::put_args("k1", "v1"))
            .unwrap();
        kv.dispatch("put", &KvStoreServant::put_args("k2", "v2"))
            .unwrap();
        kv.dispatch("notify", &KvStoreServant::key_args("k1"))
            .unwrap();
        kv.dispatch("notify", &KvStoreServant::key_args("k1"))
            .unwrap();
        let snap = CheckpointableServant::get_state(&kv).unwrap();
        // Through the wire form, as recovery does.
        let bytes = snap.to_bytes().unwrap();
        let back = Any::from_bytes(&bytes).unwrap();
        let mut kv2 = KvStoreServant::default();
        CheckpointableServant::set_state(&mut kv2, &back).unwrap();
        assert_eq!(kv2.entries, kv.entries);
        assert_eq!(kv2.touches, kv.touches);
    }

    #[test]
    fn empty_kv_store_state_round_trips_through_the_wire() {
        // Empty maps travel as the default `sequence<octet>`.
        let snap = CheckpointableServant::get_state(&KvStoreServant::default()).unwrap();
        let back = Any::from_bytes(&snap.to_bytes().unwrap()).unwrap();
        let mut kv = KvStoreServant::default();
        kv.dispatch("put", &KvStoreServant::put_args("stale", "1"))
            .unwrap();
        CheckpointableServant::set_state(&mut kv, &back).unwrap();
        assert!(kv.entries.is_empty() && kv.touches.is_empty());
        // A non-empty octet sequence is still not a map.
        let wrong = Any::from(Value::Struct(vec![
            Value::Octets(vec![1]),
            Value::Octets(Vec::new()),
        ]));
        assert!(CheckpointableServant::set_state(&mut kv, &wrong).is_err());
    }

    #[test]
    fn kv_store_rejects_malformed_arguments_and_state() {
        let mut kv = KvStoreServant::default();
        assert!(matches!(
            kv.dispatch("get", &[1, 2]),
            Err(ServantError::BadArguments(_))
        ));
        assert!(CheckpointableServant::set_state(&mut kv, &Any::from(1u32)).is_err());
    }

    #[test]
    fn streaming_client_state_round_trip() {
        let mut a = StreamingClient::new(GroupId(2), "op", 2);
        a.on_start();
        a.on_reply(GroupId(2), "op", ReplyStatus::NoException, &[]);
        let snap = a.get_state();
        let mut b = StreamingClient::new(GroupId(2), "op", 2);
        b.set_state(&snap);
        assert_eq!((b.sent, b.received), (a.sent, a.received));
    }
}
