//! **Eternal-RS** — a from-scratch Rust reproduction of the Eternal
//! system described in:
//!
//! > P. Narasimhan, L. E. Moser, P. M. Melliar-Smith. *"State
//! > Synchronization and Recovery for Strongly Consistent Replicated
//! > CORBA Objects."* DSN 2001.
//!
//! Eternal provides transparent fault tolerance for CORBA applications:
//! it replicates application objects, intercepts their IIOP messages
//! below an unmodified ORB, and conveys them by reliable totally-ordered
//! multicast (Totem), so all replicas of an object perform the same
//! operations in the same order. This crate implements the paper's
//! focus — **state synchronization and recovery** — on top of the
//! substrates in the sibling crates (`eternal-cdr`, `eternal-giop`,
//! `eternal-orb`, `eternal-totem`, `eternal-sim`):
//!
//! * the **three kinds of state** of every replicated object (§4):
//!   application-level (`get_state`/`set_state` checkpoints, as CDR
//!   `any`), ORB/POA-level (GIOP request-id counters learned by parsing
//!   IIOP traffic, and stored client handshake messages for replay), and
//!   infrastructure-level (duplicate-suppression tables, outstanding
//!   invocations, replication roles);
//! * **replication styles** (§3): active, warm passive, and cold
//!   passive, with checkpoint + message logging and log garbage
//!   collection at each new checkpoint;
//! * the **state-transfer synchronization protocol** (§5.1): the
//!   `get_state()` invocation delivered (at quiescence) only to existing
//!   replicas, enqueueing of normal traffic at the recovering replica
//!   from the synchronization point, the fabricated `set_state()` with
//!   piggybacked ORB/POA- and infrastructure-level state that overwrites
//!   the queue head, and in-order drain of the holding queue afterwards;
//! * the **managers** (§2): a replication manager that deploys object
//!   groups from fault-tolerance properties, a resource manager that
//!   restores the replica count after failures, and fault detectors fed
//!   by both local monitoring and Totem membership changes.
//!
//! The whole system runs inside a deterministic discrete-event
//! simulation ([`cluster::Cluster`]); see `DESIGN.md` at the repository
//! root for the substitution table (paper testbed → simulation) and
//! `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! # Quickstart
//!
//! ```
//! use eternal::cluster::{Cluster, ClusterConfig};
//! use eternal::properties::{FaultToleranceProperties, ReplicationStyle};
//! use eternal::app::{CounterServant, StreamingClient};
//!
//! let mut cluster = Cluster::new(ClusterConfig::default(), 42);
//! // A 2-way actively replicated counter on processors 1 and 2.
//! let server = cluster.deploy_server(
//!     "counter",
//!     FaultToleranceProperties::active(2),
//!     || Box::new(CounterServant::default()),
//! );
//! // A 1-way "packet driver" client streaming increments at it.
//! let _client = cluster.deploy_client(
//!     "driver",
//!     FaultToleranceProperties::active(1),
//!     move |_| Box::new(StreamingClient::new(server, "increment", 8)),
//! );
//! cluster.run_until_deployed();
//! cluster.run_for(eternal_sim::Duration::from_millis(200));
//! assert!(cluster.metrics().replies_delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod causal;
pub mod chaos;
pub mod cluster;
pub mod explore;
pub mod gid;
pub mod hash;
pub mod health_lab;
pub mod interceptor;
pub mod manager;
pub mod mechanisms;
pub mod message;
pub mod metrics;
pub mod oracle;
pub mod properties;
pub mod recovery;

pub use cluster::{Cluster, ClusterConfig};
pub use gid::{ConnectionName, Direction, GroupId};
pub use properties::{FaultToleranceProperties, ReplicationStyle};
