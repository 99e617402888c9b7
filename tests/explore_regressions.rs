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
//! original `violations.is_empty()` assertion once fixed. The
//! proof-of-power pins plant a real defect instead — the §5.1 transfer
//! without its ORB/POA-level state — by editing the topology's
//! `ClusterConfig`, and check that the explorer and a chaos campaign
//! both find it and shrink it to fault choices alone.

use eternal::app::{BurstClient, CounterServant};
use eternal::chaos::{run_campaign, CampaignConfig};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::explore::{run_explore, ExploreConfig, Pin};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::causal::CausalEvent;
use eternal_sim::choice::{ChoiceKind, FifoChoice};
use eternal_sim::Duration;
use std::cell::RefCell;
use std::rc::Rc;

fn planted(force_violation: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        force_violation,
        ..ExploreConfig::default().run
    }
}

/// Pinned by `repro -- explore --seed 42 --force-violation`: schedule
/// 0x5262998a6a0132c7, the shrinker's minimal schedule. One pin:
/// dropping the first token frame (the third recorded choice).
#[test]
fn explore_regression_5262998a6a0132c7() {
    let pins = [Pin {
        kind: ChoiceKind::Token,
        nth: 0,
        branch: 1,
    }];
    let outcome = planted(true).replay(&pins);
    assert_eq!(
        outcome.fingerprint, 0x5262_998a_6a01_32c7,
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
    let clean = planted(false).replay(&pins);
    assert_eq!(clean.fingerprint, 0x5262_998a_6a01_32c7);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Pinned by the same exploration: schedule 0xad9556b31ec78d22, a
/// distinct minimal counterexample that drops the first *data* frame
/// (the fifth recorded choice) instead of a token frame.
#[test]
fn explore_regression_ad9556b31ec78d22() {
    let pins = [Pin {
        kind: ChoiceKind::Frame,
        nth: 0,
        branch: 1,
    }];
    let outcome = planted(true).replay(&pins);
    assert_eq!(
        outcome.fingerprint, 0xad95_56b3_1ec7_8d22,
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
    let clean = planted(false).replay(&pins);
    assert_eq!(clean.fingerprint, 0xad95_56b3_1ec7_8d22);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Delaying the same token frame (branch 2) instead of dropping it
/// never trips the planted bug: the plant is keyed on actual loss, so
/// shrinking converges on drops and not on harmless delays.
#[test]
fn delayed_frames_do_not_trip_the_planted_bug() {
    let outcome = planted(true).replay(&[Pin {
        kind: ChoiceKind::Token,
        nth: 0,
        branch: 2,
    }]);
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
/// to a single pin, deterministically.
#[test]
fn explorer_rediscovers_and_shrinks_the_planted_bug() {
    let cfg = ExploreConfig {
        budget: 32,
        run: CampaignConfig {
            steps: 1,
            ..planted(true)
        },
    };
    let a = run_explore(&cfg);
    let b = run_explore(&cfg);
    assert_eq!(a.to_json(), b.to_json(), "explorations diverged");
    let ce = a.counterexample.expect("planted bug not found");
    assert_eq!(ce.pins.len(), 1);
    assert!(!cfg.run.replay(&ce.pins).violations.is_empty());
}

/// Proof of power: with the recovering replica's ORB/POA-level state
/// left out of the §5.1 transfer (the `ablation-handshake` experiment),
/// the explorer at its quick budget finds a violation, and the shrunk
/// schedule is a single fault. The fault choice sits at trace position
/// 521, far outside the expansion window, so this holds only because
/// the expansion branches every fault position.
#[test]
fn explorer_finds_the_orb_state_ablation_with_one_fault() {
    let mut cfg = ExploreConfig::quick();
    cfg.run.topology.cluster.mech.transfer_orb_state = false;
    let report = run_explore(&cfg);
    let ce = report.counterexample.expect("ablation not found");
    assert_eq!(ce.pins.len(), 1, "{:?}", ce.pins);
    assert_eq!(ce.pins[0].kind, ChoiceKind::Fault, "{:?}", ce.pins);
    assert!(!cfg.run.replay(&ce.pins).violations.is_empty());
    // The same fault is handled correctly when the ORB state travels.
    let clean = ExploreConfig::quick().run.replay(&ce.pins);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Proof of power for campaigns: chaos seed 7 under the same ablation
/// fails, and the shrinker reduces its ten-step walk to at most two
/// fault choices, every parameter at its default.
#[test]
fn campaign_seed_7_shrinks_the_orb_state_ablation_to_faults() {
    let mut cfg = CampaignConfig {
        seed: 7,
        ..CampaignConfig::default()
    };
    cfg.topology.cluster.mech.transfer_orb_state = false;
    let summary = run_campaign(&cfg);
    assert!(!summary.passed(), "{summary}");
    let ce = summary
        .counterexample
        .expect("a failing campaign is shrunk");
    assert!(ce.pins.len() <= 2, "{:?}", ce.pins);
    assert!(
        ce.pins.iter().all(|p| p.kind == ChoiceKind::Fault),
        "{:?}",
        ce.pins
    );
    assert!(ce.skeleton.contains("#[test]"), "{}", ce.skeleton);
    let clean = CampaignConfig {
        seed: 7,
        ..CampaignConfig::default()
    }
    .replay(&ce.pins);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
}

/// Installing the default FIFO tie-breaker is observationally a no-op
/// for a whole cluster run: the causal history — every hop's node,
/// time, parent and total-order position — is identical with and
/// without the choice layer armed, and so are the end time and the
/// bytes sent.
#[test]
fn fifo_choice_source_preserves_the_causal_history() {
    let run = |with_source: bool| {
        let config = ClusterConfig {
            trace: true,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, 42);
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
        let causal = cluster.causal();
        assert_eq!(causal.dropped(), 0, "the recorder evicted history");
        let history: Vec<CausalEvent> = causal.events().cloned().collect();
        (history, cluster.now(), cluster.net().bytes_sent())
    };
    let (fifo, with_source) = (run(false), run(true));
    assert!(
        fifo.0.iter().any(|e| e.order.is_some()),
        "nothing delivered"
    );
    assert_eq!(fifo, with_source);
}
