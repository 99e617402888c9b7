//! The Eternal **Recovery Mechanisms** (paper §§3–5): the three kinds of
//! state, checkpoint/message logging, observation-based reconstruction
//! of ORB/POA-level state, holding queues, and the state-transfer
//! synchronization protocol.

pub mod dedup;
pub mod holding;
pub mod log;
pub mod observer;
pub mod state3;

pub use dedup::DuplicateSuppressor;
pub use holding::HoldingQueue;
pub use log::CheckpointLog;
pub use observer::OrbStateObserver;
pub use state3::{InfraStateTransfer, OrbPoaStateTransfer, OutstandingCall, ThreeKindsOfState};
