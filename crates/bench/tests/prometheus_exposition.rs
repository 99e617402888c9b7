//! The Prometheus exposition that `repro -- health` prints is pinned by
//! hash. `FINGERPRINT.txt` covers the health JSON documents but not this
//! text, which is rendered from the cluster's metrics registry at the
//! end of the run: counters, gauges and the latency histograms derived
//! from the recorded round trips and recovery episodes. A change to how
//! any of them is kept must leave the exposition byte-identical.

use eternal::chaos::FaultKind;
use eternal::hash::hash_bytes;
use eternal_bench::health::health_run;

/// The exposition of the seed-42 health run under `fault`.
fn exposition(fault: Option<FaultKind>) -> String {
    let run = health_run(42, fault);
    assert!(run.passed, "{}", run.summary);
    run.prometheus
}

#[test]
fn fault_free_exposition_is_pinned() {
    let text = exposition(None);
    assert_eq!(hash_bytes(text.as_bytes()), 0x6bcf_6231_2d36_dce9, "{text}");
}

#[test]
fn kill_replica_exposition_is_pinned() {
    let text = exposition(Some(FaultKind::KillReplica));
    // The killed replica is recovered, so the recovery histograms are
    // there beside the round-trip one.
    assert!(text.contains("eternal_recovery_time_count 1"), "{text}");
    assert_eq!(hash_bytes(text.as_bytes()), 0x698f_5c23_5fe1_7cc4, "{text}");
}
