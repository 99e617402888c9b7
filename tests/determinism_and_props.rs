//! Whole-system properties: determinism of the simulation, the
//! checkpoint+replay ≡ full-replay log invariant, and randomized fault
//! schedules that must never break ordering or dedup invariants.

use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_orb::servant::{CheckpointableServant, Servant};
use eternal_sim::rng::SimRng;
use eternal_sim::Duration;

fn full_run(seed: u64, kill_after_ms: u64) -> (u64, u64, u64, u64) {
    let config = ClusterConfig::default();
    let mut c = Cluster::new(config, seed);
    let server = c.deploy_server("blob", FaultToleranceProperties::active(2), || {
        Box::new(BlobServant::with_size(5_000))
    });
    c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 3))
    });
    c.run_until_deployed();
    c.run_for(Duration::from_millis(kill_after_ms));
    let victim = c.hosting(server)[0];
    c.kill_replica(server, victim);
    c.run_for(Duration::from_millis(400));
    let m = c.metrics();
    (
        m.replies_delivered,
        m.requests_dispatched,
        m.duplicates_suppressed,
        m.recoveries_completed,
    )
}

#[test]
fn identical_seeds_produce_identical_histories() {
    assert_eq!(full_run(99, 40), full_run(99, 40));
}

#[test]
fn different_seeds_still_recover() {
    for seed in 0..5 {
        let (replies, _, _, recoveries) = full_run(seed, 30 + seed * 7);
        assert!(replies > 50, "seed {seed}: replies {replies}");
        assert_eq!(recoveries, 1, "seed {seed}");
    }
}

#[test]
fn checkpoint_plus_suffix_equals_full_replay() {
    // The §3.3 log invariant, checked directly on a servant: applying a
    // checkpoint and replaying the ops after it must equal replaying
    // everything from scratch.
    let ops = 57usize;
    let checkpoint_at = 23usize;

    let mut full = CounterServant::default();
    for _ in 0..ops {
        full.dispatch("increment", &[]).expect("dispatches");
    }

    let mut primary = CounterServant::default();
    for _ in 0..checkpoint_at {
        primary.dispatch("increment", &[]).expect("dispatches");
    }
    let checkpoint = CheckpointableServant::get_state(&primary).expect("has state");

    let mut recovered = CounterServant::default();
    CheckpointableServant::set_state(&mut recovered, &checkpoint).expect("valid");
    for _ in checkpoint_at..ops {
        recovered.dispatch("increment", &[]).expect("dispatches");
    }

    assert_eq!(
        recovered.dispatch("value", &[]).unwrap(),
        full.dispatch("value", &[]).unwrap()
    );
}

#[test]
fn randomized_fault_schedule_never_wedges() {
    // Kill random replicas at random times (letting recovery interleave
    // with further faults); the system must keep making progress and
    // every §4.2 counter must stay clean.
    let mut rng = SimRng::seed_from_u64(4242);
    for round in 0..3 {
        let config = ClusterConfig::default();
        let mut c = Cluster::new(config, 1000 + round);
        let server = c.deploy_server("counter", FaultToleranceProperties::active(3), || {
            Box::new(CounterServant::default())
        });
        c.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
            Box::new(StreamingClient::new(server, "increment", 2))
        });
        c.run_until_deployed();
        for _ in 0..3 {
            c.run_for(Duration::from_millis(30 + rng.gen_range(100)));
            let hosting = c.hosting(server);
            if hosting.len() > 1 {
                let victim = hosting[rng.gen_range(hosting.len() as u64) as usize];
                c.kill_replica(server, victim);
            }
        }
        c.run_for(Duration::from_secs(3));
        let m = c.metrics();
        assert!(m.replies_delivered > 100, "round {round} stalled");
        assert_eq!(m.replies_discarded_by_orb, 0, "round {round}");
        assert_eq!(m.requests_discarded_unnegotiated, 0, "round {round}");
        assert!(
            !c.hosting(server).is_empty(),
            "round {round} lost the group"
        );
    }
}

/// Any (seed, kill time) combination recovers and keeps serving.
#[test]
fn recovery_works_for_arbitrary_timing() {
    let mut rng = SimRng::seed_from_u64(0xE7E_0001);
    for case in 0..8 {
        let seed = rng.gen_range(1000);
        let kill_ms = 20 + rng.gen_range(100);
        let (replies, dispatched, _, recoveries) = full_run(seed, kill_ms);
        assert!(replies > 0, "case {case} (seed {seed}, kill {kill_ms}ms)");
        assert!(
            dispatched >= replies,
            "case {case} (seed {seed}, kill {kill_ms}ms)"
        );
        assert_eq!(recoveries, 1, "case {case} (seed {seed}, kill {kill_ms}ms)");
    }
}
