//! A reimplementation of the **Totem single-ring protocol** — the
//! reliable totally-ordered multicast substrate of the Eternal system
//! (Moser et al., CACM 1996) — for the Eternal-RS reproduction of *"State
//! Synchronization and Recovery for Strongly Consistent Replicated CORBA
//! Objects"* (DSN 2001).
//!
//! Eternal conveys every IIOP message of the CORBA application as a
//! Totem multicast, and its recovery protocol leans on three Totem
//! guarantees, all implemented here:
//!
//! * **Total order** — a token circulates a logical ring of processors;
//!   only the token holder broadcasts, stamping each message with a
//!   ring-wide sequence number. Every processor delivers messages in
//!   sequence-number order (*agreed* delivery).
//! * **Reliability** — gaps are repaired via retransmission requests
//!   carried on the token; the token itself is retransmitted by its last
//!   forwarder on timeout.
//! * **Virtual synchrony** — when a processor fails, joins, or a
//!   partition forms or heals, a membership protocol (Gather → Commit →
//!   Recovery) forms a new ring. Surviving members exchange the old
//!   ring's messages so that all members of the new configuration deliver
//!   the same set of old-ring messages *before* the configuration-change
//!   event announcing the new membership.
//!
//! The protocol engine ([`node::TotemNode`]) is *sans-io*: it consumes
//! frames and timer expirations and emits actions (frames to multicast,
//! timers to set, deliveries to the application). [`ring::Ring`] is the
//! one event loop that runs a set of engines over the deterministic
//! network model of [`eternal_sim`] and hands their actions and ordered
//! deliveries to its driver: [`harness::TotemHarness`] logs them, the
//! Eternal core's whole-system cluster puts ORBs and replication
//! mechanisms on top.
//!
//! # Example
//!
//! ```
//! use eternal_totem::harness::TotemHarness;
//! use eternal_totem::TotemConfig;
//!
//! let mut h = TotemHarness::new(3, TotemConfig::default(), 7);
//! h.run_until_formed();
//! h.broadcast(h.nodes()[0], b"hello".to_vec());
//! h.run_for(eternal_sim::Duration::from_millis(50));
//! // Every node delivered the message, in the same order.
//! for n in h.nodes() {
//!     assert_eq!(h.delivered_payloads(n), vec![b"hello".to_vec()]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod harness;
pub mod node;
pub mod ring;
pub mod types;
mod window;

pub use config::TotemConfig;
pub use node::{Action, Delivery, TotemNode, TotemStats};
pub use types::{Frame, Payload, RingId, Timer};
