//! Pinned minimal schedules from `repro -- explore` (docs/TESTING.md).
//!
//! Each pinned test started life as a skeleton emitted by the
//! explorer's shrinker (`repro -- explore --force-violation`). The
//! planted dedup bug only exists behind `force_violation: true`, so
//! unlike a real-bug pin these assert **both** directions:
//!
//! - with the planted bug armed, the minimal schedule still detects it
//!   (the detect → shrink → replay pipeline keeps working), and
//! - with the bug absent, the very same schedule is clean (the
//!   violation was the plant, not the schedule).
//!
//! A real explorer-found bug would be pinned with the skeleton's
//! original `violations.is_empty()` assertion once fixed.

use eternal::app::{BurstClient, CounterServant};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::explore::{replay_prefix, run_explore, ExploreConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_sim::choice::{ChoiceKind, FifoChoice};
use eternal_sim::Duration;
use std::cell::RefCell;
use std::rc::Rc;

fn planted(force_violation: bool) -> ExploreConfig {
    ExploreConfig {
        seed: 42,
        force_violation,
        ..ExploreConfig::default()
    }
}

/// Pinned by `repro -- explore --seed 42 --force-violation`: schedule
/// 0xf59fbbf3415c32b5, the shrinker's minimal prefix. One non-default
/// branch: dropping a token-carrying frame at the third armed
/// choice-point.
#[test]
fn explore_regression_f59fbbf3415c32b5() {
    let outcome = replay_prefix(&planted(true), &[0, 0, 1]);
    assert_eq!(
        outcome.fingerprint, 0xf59f_bbf3_415c_32b5,
        "schedule drifted"
    );
    assert_eq!(outcome.trace[2].kind, ChoiceKind::Token);
    assert_eq!(outcome.frames_dropped, 1);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.invariant == "exactly-once"),
        "planted dedup bug no longer detected: {:?}",
        outcome.violations
    );
    // Without the plant, the same frame-drop schedule is handled
    // correctly by the real duplicate detector.
    let clean = replay_prefix(&planted(false), &[0, 0, 1]);
    assert_eq!(clean.fingerprint, 0xf59f_bbf3_415c_32b5);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Pinned by the same campaign: schedule 0x4dff07b0382c7838, a distinct
/// minimal counterexample that drops a *data* frame (fifth armed
/// choice-point) instead of a token frame.
#[test]
fn explore_regression_4dff07b0382c7838() {
    let outcome = replay_prefix(&planted(true), &[0, 0, 0, 0, 1]);
    assert_eq!(
        outcome.fingerprint, 0x4dff_07b0_382c_7838,
        "schedule drifted"
    );
    assert_eq!(outcome.trace[4].kind, ChoiceKind::Frame);
    assert_eq!(outcome.frames_dropped, 1);
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.invariant == "exactly-once"),
        "planted dedup bug no longer detected: {:?}",
        outcome.violations
    );
    let clean = replay_prefix(&planted(false), &[0, 0, 0, 0, 1]);
    assert_eq!(clean.fingerprint, 0x4dff_07b0_382c_7838);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Delaying the same token frame (branch 2) instead of dropping it
/// never trips the planted bug: the plant is keyed on actual loss, so
/// shrinking converges on drops and not on harmless delays.
#[test]
fn delayed_frames_do_not_trip_the_planted_bug() {
    let outcome = replay_prefix(&planted(true), &[0, 0, 2]);
    assert_eq!(
        outcome.trace[2].kind,
        ChoiceKind::Token,
        "the frame the first pin drops"
    );
    assert_eq!(outcome.frames_dropped, 0);
    assert_eq!(outcome.frames_delayed, 1);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

/// The explorer itself re-finds and re-shrinks a planted counterexample
/// to a single-branch prefix, deterministically.
#[test]
fn explorer_rediscovers_and_shrinks_the_planted_bug() {
    let cfg = ExploreConfig {
        budget: 32,
        steps: 1,
        ..planted(true)
    };
    let a = run_explore(&cfg);
    let b = run_explore(&cfg);
    assert_eq!(a.to_json(), b.to_json(), "explorations diverged");
    let ce = a.counterexample.expect("planted bug not found");
    assert_eq!(ce.prefix.iter().filter(|&&b| b != 0).count(), 1);
    assert!(!replay_prefix(&cfg, &ce.prefix).violations.is_empty());
}

/// Satellite property: installing the default FIFO tie-breaker is
/// observationally a no-op for a whole cluster run — per-node delivery
/// digests (a hash chain over every totally-ordered delivery) are
/// byte-identical with and without the choice layer armed.
#[test]
fn fifo_choice_source_preserves_cluster_digests() {
    let run = |with_source: bool| {
        let mut cluster = Cluster::new(ClusterConfig::default(), 42);
        if with_source {
            cluster.set_choice_source(Rc::new(RefCell::new(FifoChoice)));
        }
        let server = cluster.deploy_server(
            "digest-counter",
            FaultToleranceProperties::active(2),
            || Box::new(CounterServant::default()),
        );
        let _driver = cluster.deploy_client(
            "digest-driver",
            FaultToleranceProperties::active(1),
            move |_| Box::new(BurstClient::new(server, "increment", 4)),
        );
        cluster.run_until_deployed();
        for _ in 0..3 {
            cluster.kick_clients();
            cluster.run_for(Duration::from_millis(50));
        }
        cluster
            .processors()
            .into_iter()
            .map(|n| cluster.delivery_digest(n))
            .collect::<Vec<u64>>()
    };
    assert_eq!(run(false), run(true));
}
