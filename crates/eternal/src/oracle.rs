//! The shared correctness oracle: every invariant the paper's claims
//! (§2 strong consistency, §4.1 exactly-once effects) translate to,
//! checkable at any quiescent point of a simulated cluster.
//!
//! Historically these checks lived inside the chaos campaign
//! ([`crate::chaos`]) and were re-implemented ad hoc by the end-to-end
//! tests. This module centralizes them so the chaos campaign, the
//! schedule explorer ([`crate::explore`]), and the integration tests
//! all audit the *same* invariants:
//!
//! 1. **Convergence / availability** — all live operational replicas of
//!    every group hold byte-identical application state, and every
//!    group still has at least one live replica.
//! 2. **Exactly-once effects** — the operations a server executed equal
//!    the logical invocations its driver issued, and every invocation
//!    was answered.
//! 3. **Single-copy equivalence** — the replicated group's state is
//!    byte-identical to the state of an *unreplicated reference
//!    servant* that executed the client-observed operation history once
//!    each, in order. This is the linearizability check: at quiescence
//!    the replicated object must be indistinguishable from one correct
//!    copy that processed the history serially.
//! 4. **No orphaned reassembly state** — partially reassembled
//!    multicasts do not survive quiescence.
//! 5. **Bounded dedup memory** — per-processor duplicate-suppression
//!    tables (operation ids, completed transfers, checkpoint marks)
//!    stay under a resident cap.
//! 6. **Bounded log suffix** — passive-group message logs stay under
//!    twice the suffix-checkpoint trigger.
//!
//! The oracle is *pure*: [`Oracle::check`] inspects the cluster and
//! returns violations; it never mutates simulation state beyond the
//! read-side probes, and it does not record events — callers decide how
//! to report.

use crate::app::{BlobServant, CounterServant};
use crate::cluster::Cluster;
use crate::gid::GroupId;
use crate::mechanisms::ReplicaPhase;
use eternal_cdr::{Any, Value};
use eternal_orb::servant::{CheckpointableServant, Servant};
use eternal_sim::net::NodeId;
use std::fmt;

/// What a server group's reference servant is, for the single-copy
/// replay and the exactly-once effect decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServantKind {
    /// [`CounterServant`]: state decodes to `ULong(count)`, operations
    /// are `increment`.
    Counter,
    /// [`BlobServant`] with the given initial blob size: state decodes
    /// to `Struct[ULong(touches), Sequence]`, operations are `touch`.
    Blob {
        /// Initial blob size the replicated servants were deployed with.
        size: usize,
    },
}

impl ServantKind {
    /// The operation the driver streams at this servant.
    pub fn operation(self) -> &'static str {
        match self {
            ServantKind::Counter => "increment",
            ServantKind::Blob { .. } => "touch",
        }
    }

    /// Decodes the number of operations the servant has executed from
    /// its CDR-encoded application state.
    pub fn effects(self, state: &[u8]) -> Option<u64> {
        let any = Any::from_bytes(state).ok()?;
        match (self, &any.value) {
            (ServantKind::Counter, Value::ULong(count)) => Some(u64::from(*count)),
            (ServantKind::Blob { .. }, Value::Struct(members)) => match members.as_slice() {
                [Value::ULong(touches), _] => Some(u64::from(*touches)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Replays `ops` operations against a fresh unreplicated reference
    /// servant and returns its CDR-encoded application state — the
    /// state any correct single copy must end in after executing the
    /// history once, serially.
    pub fn reference_state(self, ops: u64) -> Vec<u8> {
        match self {
            ServantKind::Counter => {
                let mut servant = CounterServant::default();
                for _ in 0..ops {
                    servant
                        .dispatch("increment", &[])
                        .expect("reference counter dispatch");
                }
                CheckpointableServant::get_state(&servant)
                    .expect("reference counter state")
                    .to_bytes()
                    .expect("reference counter encoding")
            }
            ServantKind::Blob { size } => {
                let mut servant = BlobServant::with_size(size);
                for _ in 0..ops {
                    servant
                        .dispatch("touch", &[])
                        .expect("reference blob dispatch");
                }
                CheckpointableServant::get_state(&servant)
                    .expect("reference blob state")
                    .to_bytes()
                    .expect("reference blob encoding")
            }
        }
    }
}

/// A server group and the driver group streaming at it, as audited by
/// the exactly-once and single-copy checks.
#[derive(Debug, Clone, Copy)]
pub struct OraclePair {
    /// The replicated server group.
    pub server: GroupId,
    /// The replicated client group issuing invocations at `server`.
    /// Its application state must decode to
    /// `Struct[ULongLong(sent), ULongLong(received)]` (the
    /// [`BurstClient`](crate::app::BurstClient) shape).
    pub driver: GroupId,
    /// Reference-servant kind of `server`.
    pub kind: ServantKind,
}

/// Upper bound on per-processor dedup residency (invariant 5).
const DEDUP_RESIDENT_CAP: usize = 8_192;

/// Caps for the resource-bound invariants.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleConfig {
    /// The suffix-bound checkpoint trigger the cluster was configured
    /// with; audited suffixes must stay under twice this value
    /// (invariant 6). `0` disables the check.
    pub suffix_checkpoint_len: usize,
}

/// One oracle violation at a quiescent point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Invariant name (`convergence`, `availability`, `exactly-once`,
    /// `single-copy`, `reassembly-orphan`, `dedup-bound`,
    /// `suffix-bound`).
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The single-copy correctness oracle. Build one with the audited
/// server/driver pairs, then call [`Oracle::check`] at every quiescent
/// point.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    cfg: OracleConfig,
    pairs: Vec<OraclePair>,
}

impl Oracle {
    /// Creates an oracle with the given resource caps and no pairs:
    /// only the group-generic invariants (convergence, reassembly,
    /// dedup, suffix) are checked until pairs are added.
    pub fn new(cfg: OracleConfig) -> Self {
        Oracle {
            cfg,
            pairs: Vec::new(),
        }
    }

    /// Registers a server/driver pair for the exactly-once and
    /// single-copy checks.
    pub fn add_pair(&mut self, pair: OraclePair) -> &mut Self {
        self.pairs.push(pair);
        self
    }

    /// Builder-style [`Oracle::add_pair`].
    pub fn with_pair(mut self, pair: OraclePair) -> Self {
        self.pairs.push(pair);
        self
    }

    /// The registered pairs.
    pub fn pairs(&self) -> &[OraclePair] {
        &self.pairs
    }

    /// Runs every invariant against the cluster at its current (assumed
    /// quiescent) point and returns all violations, in deterministic
    /// order.
    pub fn check(&self, cluster: &mut Cluster) -> Vec<OracleViolation> {
        let mut out = Vec::new();
        self.check_convergence(cluster, &mut out);
        self.check_exactly_once(cluster, &mut out);
        self.check_single_copy(cluster, &mut out);
        self.check_reassembly(cluster, &mut out);
        self.check_dedup_bound(cluster, &mut out);
        self.check_suffix_bound(cluster, &mut out);
        out
    }

    /// [`Oracle::check`], panicking with the full violation list on any
    /// failure. `context` names the quiescent point in the panic
    /// message — integration tests call this at each of theirs.
    pub fn assert_clean(&self, cluster: &mut Cluster, context: &str) {
        let violations = self.check(cluster);
        assert!(
            violations.is_empty(),
            "oracle violated at {context}:\n{}",
            violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Invariant 1: byte-identical application state across each
    /// group's live operational replicas, plus availability.
    pub fn check_convergence(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        for (group, name) in cluster.groups() {
            let live: Vec<NodeId> = cluster
                .hosting(group)
                .into_iter()
                .filter(|&n| cluster.is_alive(n))
                .collect();
            if live.is_empty() {
                out.push(OracleViolation {
                    invariant: "availability",
                    detail: format!("{name}: no live replica"),
                });
                continue;
            }
            let mut reference: Option<(NodeId, Vec<u8>)> = None;
            for &node in &live {
                // Warm backups hold a checkpoint + suffix rather than
                // live state; convergence compares operational replicas.
                if cluster.mechanisms(node).replica_phase(group) == Some(ReplicaPhase::Standby) {
                    continue;
                }
                match cluster.probe_application_state(node, group) {
                    None => out.push(OracleViolation {
                        invariant: "convergence",
                        detail: format!("{name}@{node}: replica not operational at quiescence"),
                    }),
                    Some(state) => match &reference {
                        None => reference = Some((node, state)),
                        Some((ref_node, ref_state)) => {
                            if *ref_state != state {
                                out.push(OracleViolation {
                                    invariant: "convergence",
                                    detail: format!(
                                        "{name}: state at {node} ({}B) != state at {ref_node} ({}B)",
                                        state.len(),
                                        ref_state.len()
                                    ),
                                });
                            }
                        }
                    },
                }
            }
        }
    }

    /// Invariant 2: executed effects equal issued invocations, and
    /// every issued invocation was answered.
    pub fn check_exactly_once(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        for pair in &self.pairs {
            let Some(executed) = server_effects(cluster, pair) else {
                out.push(OracleViolation {
                    invariant: "exactly-once",
                    detail: format!("{:?}: server state unreadable", pair.kind),
                });
                continue;
            };
            let Some((sent, received)) = driver_counts(cluster, pair) else {
                out.push(OracleViolation {
                    invariant: "exactly-once",
                    detail: format!("{:?}: driver state unreadable", pair.kind),
                });
                continue;
            };
            if executed != sent {
                out.push(OracleViolation {
                    invariant: "exactly-once",
                    detail: format!(
                        "{:?} {:?}: server executed {executed} ops, driver issued {sent}",
                        pair.server, pair.kind
                    ),
                });
            }
            if received != sent {
                out.push(OracleViolation {
                    invariant: "exactly-once",
                    detail: format!(
                        "{:?}: driver issued {sent} ops but saw {received} replies",
                        pair.kind
                    ),
                });
            }
        }
    }

    /// Invariant 3: the replicated group's state is byte-identical to a
    /// fresh unreplicated reference servant that replayed the driver's
    /// operation history once, serially.
    pub fn check_single_copy(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        for pair in &self.pairs {
            let Some((sent, _)) = driver_counts(cluster, pair) else {
                continue; // already reported by exactly-once
            };
            let Some(node) = operational_replica(cluster, pair.server) else {
                continue; // already reported by convergence/availability
            };
            let Some(actual) = cluster.probe_application_state(node, pair.server) else {
                continue;
            };
            let expected = pair.kind.reference_state(sent);
            if actual != expected {
                out.push(OracleViolation {
                    invariant: "single-copy",
                    detail: format!(
                        "{:?} {:?}: replicated state ({}B) diverges from reference replay of {sent} ops ({}B)",
                        pair.server,
                        pair.kind,
                        actual.len(),
                        expected.len()
                    ),
                });
            }
        }
    }

    /// Invariant 4: no partially reassembled multicast survives a
    /// quiescent point on any live processor.
    pub fn check_reassembly(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        for node in cluster.live_processors() {
            let pending = cluster.reassembly_pending(node);
            if pending > 0 {
                out.push(OracleViolation {
                    invariant: "reassembly-orphan",
                    detail: format!("{node}: {pending} partial message(s) at quiescence"),
                });
            }
        }
    }

    /// Invariant 5: duplicate-suppression memory stays bounded — the
    /// operation-id tables, and the two per-transfer tables beside them
    /// (completed transfers remembered, checkpoint marks awaiting their
    /// assignment).
    pub fn check_dedup_bound(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        let cap = DEDUP_RESIDENT_CAP;
        for node in cluster.live_processors() {
            let mech = cluster.mechanisms(node);
            let (seen, marks) = mech.transfer_tables_resident();
            for (resident, what) in [
                (mech.dedup_resident(), "dedup ids"),
                (seen, "seen transfers"),
                (marks, "checkpoint marks"),
            ] {
                if resident > cap {
                    out.push(OracleViolation {
                        invariant: "dedup-bound",
                        detail: format!("{node}: {resident} resident {what} (cap {cap})"),
                    });
                }
            }
        }
    }

    /// Invariant 6: passive-group log suffixes stay bounded (twice the
    /// checkpoint trigger; the fabricated retrieval needs a round trip
    /// through the total order, during which logging continues).
    pub fn check_suffix_bound(&self, cluster: &mut Cluster, out: &mut Vec<OracleViolation>) {
        let threshold = self.cfg.suffix_checkpoint_len;
        if threshold == 0 {
            return;
        }
        let cap = 2 * threshold;
        for (group, name) in cluster.groups() {
            for node in cluster.live_processors() {
                let len = cluster.mechanisms(node).log_suffix_len(group);
                if len > cap {
                    out.push(OracleViolation {
                        invariant: "suffix-bound",
                        detail: format!(
                            "{name}@{node}: {len} logged messages at quiescence (cap {cap})"
                        ),
                    });
                }
            }
        }
    }
}

/// First live operational replica of a group, in hosting order.
fn operational_replica(cluster: &Cluster, group: GroupId) -> Option<NodeId> {
    cluster.hosting(group).into_iter().find(|&n| {
        cluster.is_alive(n)
            && cluster.mechanisms(n).replica_phase(group) == Some(ReplicaPhase::Operational)
    })
}

/// The number of operations a server group has executed, decoded from
/// the application state of its first live operational replica.
pub fn server_effects(cluster: &mut Cluster, pair: &OraclePair) -> Option<u64> {
    let node = operational_replica(cluster, pair.server)?;
    let bytes = cluster.probe_application_state(node, pair.server)?;
    pair.kind.effects(&bytes)
}

/// `(sent, received)` of the driver group, from its first live replica.
/// Sibling replicas run in lockstep, so one copy of each logical
/// invocation counts once here however many replicas issued duplicates
/// of it.
pub fn driver_counts(cluster: &mut Cluster, pair: &OraclePair) -> Option<(u64, u64)> {
    let node = cluster
        .hosting(pair.driver)
        .into_iter()
        .find(|&n| cluster.is_alive(n))?;
    let bytes = cluster.probe_application_state(node, pair.driver)?;
    let any = Any::from_bytes(&bytes).ok()?;
    match &any.value {
        Value::Struct(members) => match members.as_slice() {
            [Value::ULongLong(sent), Value::ULongLong(received)] => Some((*sent, *received)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counter_state_matches_direct_servant() {
        let mut direct = CounterServant::default();
        for _ in 0..17 {
            direct.dispatch("increment", &[]).unwrap();
        }
        let direct_bytes = CheckpointableServant::get_state(&direct)
            .unwrap()
            .to_bytes()
            .unwrap();
        assert_eq!(ServantKind::Counter.reference_state(17), direct_bytes);
    }

    #[test]
    fn reference_blob_state_depends_on_ops_and_size() {
        let a = ServantKind::Blob { size: 100 }.reference_state(5);
        let b = ServantKind::Blob { size: 100 }.reference_state(6);
        let c = ServantKind::Blob { size: 101 }.reference_state(5);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ServantKind::Blob { size: 100 }.reference_state(5));
    }

    #[test]
    fn effects_decode_reference_states() {
        let counter = ServantKind::Counter;
        assert_eq!(counter.effects(&counter.reference_state(9)), Some(9));
        let blob = ServantKind::Blob { size: 32 };
        assert_eq!(blob.effects(&blob.reference_state(4)), Some(4));
        assert_eq!(counter.effects(&blob.reference_state(4)), None);
        assert_eq!(counter.effects(b"not cdr"), None);
    }

    #[test]
    fn operations_match_kinds() {
        assert_eq!(ServantKind::Counter.operation(), "increment");
        assert_eq!(ServantKind::Blob { size: 1 }.operation(), "touch");
    }
}
