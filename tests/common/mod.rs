//! Helpers shared by the cluster-level integration tests.

use eternal::cluster::Cluster;
use eternal_sim::Duration;

/// Runs the cluster to genuine quiescence (ring formed, no outstanding
/// invocations, no recovery in flight) so the oracle's quiescent-point
/// invariants apply. Panics if quiescence is not reached in 2 s of
/// virtual time — these scenarios use drained (limited) workloads.
pub fn settle(c: &mut Cluster) {
    let deadline = c.now() + Duration::from_secs(2);
    while c.outstanding_calls() > 0 || c.recovery_in_flight() || !c.formed() {
        assert!(c.now() < deadline, "cluster failed to quiesce");
        c.run_for(Duration::from_millis(10));
    }
    c.run_for(Duration::from_millis(10));
}
