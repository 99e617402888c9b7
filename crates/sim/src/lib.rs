//! Deterministic discrete-event simulation kernel for the Eternal-RS
//! reproduction of *"State Synchronization and Recovery for Strongly
//! Consistent Replicated CORBA Objects"* (DSN 2001).
//!
//! The paper's evaluation ran on a network of dual-processor 167 MHz
//! UltraSPARC workstations connected by 100 Mbps Ethernet. That testbed is
//! not available, so this crate provides the substitute substrate: a
//! virtual clock, an event scheduler, a seeded random source, and a
//! network model that reproduces the *mechanisms* the paper's results
//! depend on — most importantly the fragmentation of large messages into
//! maximum-transmission-unit-sized Ethernet frames (1518 bytes), which is
//! what makes recovery time grow with application-state size in Figure 6.
//!
//! Everything in this crate is deterministic: two runs with the same seed
//! and the same sequence of scheduler calls produce identical event
//! orders, which the test suite relies on.
//!
//! # Example
//!
//! ```
//! use eternal_sim::time::{Duration, SimTime};
//! use eternal_sim::sched::Scheduler;
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO + Duration::from_millis(5), "later");
//! sched.schedule_at(SimTime::ZERO + Duration::from_millis(1), "sooner");
//! let (t1, e1) = sched.pop().unwrap();
//! assert_eq!(e1, "sooner");
//! assert_eq!(t1, SimTime::ZERO + Duration::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod choice;
pub mod net;
pub mod rng;
pub mod sched;

// Virtual time moved down into `eternal-obs` so layers without a
// simulator dependency (the ORB) can timestamp events; re-export it
// here so `eternal_sim::time::…` paths keep working.
pub use eternal_obs as obs;
pub use eternal_obs::time;

pub use bytes::Bytes;
pub use choice::{ChoiceKind, ChoiceSource, FifoChoice, SharedChoiceSource};
pub use net::{NetworkConfig, NetworkModel};
pub use sched::Scheduler;
pub use time::{Duration, SimTime};
