//! The Portable Object Adapter: servant registry, policies, and request
//! dispatch.

use crate::error::OrbError;
use crate::idl::InterfaceDef;
use crate::object::ObjectKey;
use crate::servant::{CheckpointableServant, Servant, ServantError, OP_GET_STATE, OP_SET_STATE};
use eternal_cdr::Any;
use std::collections::BTreeMap;

/// The POA threading policy — part of the ORB/POA-level state Eternal
/// must keep consistent across replicas (paper §4.2 mentions the
/// threading policy among the per-object data the ORB stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadingPolicy {
    /// Requests for the object are dispatched one at a time.
    #[default]
    SingleThread,
    /// The ORB may dispatch concurrently (a determinism hazard the
    /// Eternal replication mechanisms must serialize around).
    OrbControlled,
}

enum Registered {
    Plain(Box<dyn Servant>),
    Checkpointable(Box<dyn CheckpointableServant>),
}

impl std::fmt::Debug for Registered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Registered::Plain(_) => write!(f, "Plain(..)"),
            Registered::Checkpointable(_) => write!(f, "Checkpointable(..)"),
        }
    }
}

/// The Portable Object Adapter.
#[derive(Debug)]
pub struct Poa {
    servants: BTreeMap<ObjectKey, Registered>,
    interfaces: BTreeMap<ObjectKey, InterfaceDef>,
    threading: ThreadingPolicy,
    dispatch_count: u64,
}

impl Default for Poa {
    fn default() -> Self {
        Self::new()
    }
}

impl Poa {
    /// Creates an empty POA with the default (single-thread) policy.
    pub fn new() -> Self {
        Poa {
            servants: BTreeMap::new(),
            interfaces: BTreeMap::new(),
            threading: ThreadingPolicy::default(),
            dispatch_count: 0,
        }
    }

    /// The threading policy.
    pub fn threading_policy(&self) -> ThreadingPolicy {
        self.threading
    }

    /// Sets the threading policy.
    pub fn set_threading_policy(&mut self, policy: ThreadingPolicy) {
        self.threading = policy;
    }

    /// Number of requests dispatched so far (part of POA-level state).
    pub fn dispatch_count(&self) -> u64 {
        self.dispatch_count
    }

    /// Registers a plain (non-replicable) servant.
    ///
    /// # Errors
    ///
    /// [`OrbError::ObjectAlreadyActive`] if the key is taken.
    pub fn activate(&mut self, key: ObjectKey, servant: Box<dyn Servant>) -> Result<(), OrbError> {
        self.insert(key, Registered::Plain(servant))
    }

    /// Registers a checkpointable servant (required for every replicated
    /// object, per FT-CORBA).
    ///
    /// # Panics
    ///
    /// Panics if the key is already active (programming error in
    /// deployment code).
    pub fn activate_checkpointable(
        &mut self,
        key: ObjectKey,
        servant: Box<dyn CheckpointableServant>,
    ) {
        self.insert(key, Registered::Checkpointable(servant))
            .expect("object key already active");
    }

    fn insert(&mut self, key: ObjectKey, reg: Registered) -> Result<(), OrbError> {
        if self.servants.contains_key(&key) {
            return Err(OrbError::ObjectAlreadyActive(key.to_string()));
        }
        self.servants.insert(key, reg);
        Ok(())
    }

    /// Attaches an interface definition to an active object: dispatch
    /// then rejects operations outside the interface before the servant
    /// sees them, as a generated skeleton would.
    pub fn set_interface(&mut self, key: ObjectKey, interface: InterfaceDef) {
        self.interfaces.insert(key, interface);
    }

    /// The registered interface of an object, if any.
    pub fn interface(&self, key: &ObjectKey) -> Option<&InterfaceDef> {
        self.interfaces.get(key)
    }

    /// Removes a servant, returning whether one was present.
    pub fn deactivate(&mut self, key: &ObjectKey) -> bool {
        self.interfaces.remove(key);
        self.servants.remove(key).is_some()
    }

    /// Whether a servant is active under `key` (an [`ObjectKey`] or
    /// the bytes of one).
    pub fn is_active(&self, key: &[u8]) -> bool {
        self.servants.contains_key(key)
    }

    /// Keys of all active objects.
    pub fn active_keys(&self) -> Vec<ObjectKey> {
        self.servants.keys().cloned().collect()
    }

    /// Dispatches an operation to the servant under `key` (an
    /// [`ObjectKey`] or the bytes of one).
    ///
    /// `get_state`/`set_state` are routed to the [`CheckpointableServant`]
    /// methods, with the state marshalled as a CDR `any` (FT-CORBA wire
    /// form).
    ///
    /// # Errors
    ///
    /// [`OrbError::ObjectNotExist`] for unknown keys, and servant errors
    /// otherwise.
    pub fn dispatch(
        &mut self,
        key: &[u8],
        operation: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, OrbError> {
        if let Some(interface) = self.interfaces.get(key) {
            if !interface.has_operation(operation) {
                return Err(OrbError::Servant(ServantError::BadOperation(
                    operation.to_owned(),
                )));
            }
        }
        let reg = self
            .servants
            .get_mut(key)
            .ok_or_else(|| OrbError::ObjectNotExist(String::from_utf8_lossy(key).into_owned()))?;
        self.dispatch_count += 1;
        match (operation, reg) {
            (OP_GET_STATE, Registered::Checkpointable(s)) => {
                let state = s.get_state().map_err(OrbError::Servant)?;
                state
                    .to_bytes()
                    .map_err(|e| OrbError::Giop(eternal_giop::GiopError::Cdr(e)))
            }
            (OP_SET_STATE, Registered::Checkpointable(s)) => {
                let state = Any::from_bytes(args)
                    .map_err(|_| OrbError::Servant(ServantError::InvalidState))?;
                s.set_state(&state).map_err(OrbError::Servant)?;
                Ok(Vec::new())
            }
            (OP_GET_STATE | OP_SET_STATE, Registered::Plain(_)) => Err(OrbError::Servant(
                ServantError::BadOperation(operation.to_owned()),
            )),
            (op, Registered::Plain(s)) => s.dispatch(op, args).map_err(OrbError::Servant),
            (op, Registered::Checkpointable(s)) => s.dispatch(op, args).map_err(OrbError::Servant),
        }
    }

    /// Captures the application-level state of a checkpointable object
    /// directly (used by tests and by the local half of recovery; the
    /// distributed path goes through a totally ordered `get_state`
    /// invocation).
    pub fn get_state_of(&self, key: &ObjectKey) -> Result<Any, OrbError> {
        match self.servants.get(key) {
            Some(Registered::Checkpointable(s)) => s.get_state().map_err(OrbError::Servant),
            Some(Registered::Plain(_)) => Err(OrbError::Servant(ServantError::NoStateAvailable)),
            None => Err(OrbError::ObjectNotExist(key.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eternal_cdr::Value;

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

    fn key() -> ObjectKey {
        ObjectKey::from("counter")
    }

    fn poa_with_counter() -> Poa {
        let mut poa = Poa::new();
        poa.activate_checkpointable(key(), Box::new(Counter(0)));
        poa
    }

    #[test]
    fn dispatch_normal_operation() {
        let mut poa = poa_with_counter();
        let out = poa.dispatch(&key(), "increment", &[]).unwrap();
        assert_eq!(out, 1u32.to_be_bytes());
        assert_eq!(poa.dispatch_count(), 1);
    }

    #[test]
    fn unknown_object_rejected() {
        let mut poa = Poa::new();
        assert!(matches!(
            poa.dispatch(&key(), "increment", &[]),
            Err(OrbError::ObjectNotExist(_))
        ));
    }

    #[test]
    fn get_and_set_state_round_trip_via_dispatch() {
        let mut poa = poa_with_counter();
        poa.dispatch(&key(), "increment", &[]).unwrap();
        poa.dispatch(&key(), "increment", &[]).unwrap();
        let state_bytes = poa.dispatch(&key(), OP_GET_STATE, &[]).unwrap();
        // Reset through set_state on a fresh servant.
        let mut poa2 = poa_with_counter();
        poa2.dispatch(&key(), OP_SET_STATE, &state_bytes).unwrap();
        let after = poa2.dispatch(&key(), "increment", &[]).unwrap();
        assert_eq!(after, 3u32.to_be_bytes(), "resumed from transferred state");
    }

    #[test]
    fn set_state_with_garbage_is_invalid_state() {
        let mut poa = poa_with_counter();
        assert!(matches!(
            poa.dispatch(&key(), OP_SET_STATE, &[1, 2, 3]),
            Err(OrbError::Servant(ServantError::InvalidState))
        ));
    }

    #[test]
    fn checkpoint_ops_rejected_for_plain_servants() {
        struct Plain;
        impl Servant for Plain {
            fn dispatch(&mut self, _: &str, _: &[u8]) -> Result<Vec<u8>, ServantError> {
                Ok(vec![])
            }
        }
        let mut poa = Poa::new();
        poa.activate(key(), Box::new(Plain)).unwrap();
        assert!(matches!(
            poa.dispatch(&key(), OP_GET_STATE, &[]),
            Err(OrbError::Servant(ServantError::BadOperation(_)))
        ));
    }

    #[test]
    fn double_activation_rejected() {
        let mut poa = poa_with_counter();
        assert!(matches!(
            poa.activate(key(), Box::new(Counter(9))),
            Err(OrbError::ObjectAlreadyActive(_))
        ));
    }

    #[test]
    fn deactivate_then_dispatch_fails() {
        let mut poa = poa_with_counter();
        assert!(poa.deactivate(&key()));
        assert!(!poa.deactivate(&key()));
        assert!(poa.dispatch(&key(), "increment", &[]).is_err());
        assert!(!poa.is_active(&key()));
    }

    #[test]
    fn direct_state_capture() {
        let mut poa = poa_with_counter();
        poa.dispatch(&key(), "increment", &[]).unwrap();
        let snap = poa.get_state_of(&key()).unwrap();
        assert_eq!(snap.value, Value::ULong(1));
    }

    #[test]
    fn registered_interface_gates_dispatch() {
        use crate::idl::InterfaceDef;
        let mut poa = poa_with_counter();
        poa.set_interface(
            key(),
            InterfaceDef::new("IDL:Counter:1.0")
                .two_way("increment")
                .inherit_checkpointable(),
        );
        assert!(poa.dispatch(&key(), "increment", &[]).is_ok());
        assert!(poa.dispatch(&key(), "get_state", &[]).is_ok());
        // `value` exists on the servant but is NOT in the interface:
        // rejected before the servant sees it.
        assert!(matches!(
            poa.dispatch(&key(), "value", &[]),
            Err(OrbError::Servant(ServantError::BadOperation(_)))
        ));
        assert!(poa.interface(&key()).is_some());
        poa.deactivate(&key());
        assert!(poa.interface(&key()).is_none());
    }

    #[test]
    fn threading_policy_round_trip() {
        let mut poa = Poa::new();
        assert_eq!(poa.threading_policy(), ThreadingPolicy::SingleThread);
        poa.set_threading_policy(ThreadingPolicy::OrbControlled);
        assert_eq!(poa.threading_policy(), ThreadingPolicy::OrbControlled);
    }
}
