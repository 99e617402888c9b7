//! Property tests for the simulation kernel: scheduler ordering and
//! determinism, network-model timing laws. Randomized cases are driven
//! by the crate's own deterministic [`SimRng`] (fixed seeds) so the
//! suite builds offline and replays identically.

use eternal_sim::choice::{ChoiceKind, ChoiceSource, FifoChoice};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::rng::SimRng;
use eternal_sim::{Duration, Scheduler, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A tie-breaker that picks branches from the crate's own PRNG —
/// enough adversarial permutation power for the properties below.
#[derive(Debug)]
struct RandomChoice(SimRng);

impl ChoiceSource for RandomChoice {
    fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
        self.0.gen_range(arity as u64) as usize
    }
}

/// Events pop in non-decreasing time order, FIFO within a tie.
#[test]
fn scheduler_pops_in_order() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0001);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000)).collect();
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = s.pop() {
            assert_eq!(at, SimTime::from_nanos(t));
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }
}

/// The default tie-breaker ([`FifoChoice`], branch 0 everywhere) pops
/// the exact sequence an un-instrumented scheduler would: installing it
/// is observationally a no-op.
#[test]
fn fifo_choice_source_is_identity() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0007);
    for _case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        // Coarse times (0..8) force plenty of same-instant ties.
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        let mut plain = Scheduler::new();
        let mut instrumented = Scheduler::new();
        instrumented.set_choice_source(Rc::new(RefCell::new(FifoChoice)));
        for (i, &t) in times.iter().enumerate() {
            plain.schedule_at(SimTime::from_nanos(t), i);
            instrumented.schedule_at(SimTime::from_nanos(t), i);
        }
        let a: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| instrumented.pop()).collect();
        assert_eq!(a, b);
    }
}

/// Permuting tie-breaks can reorder entries *within* an instant but
/// never across instants: pop times stay monotone, each entry keeps its
/// scheduled time, and the multiset of fired entries is untouched.
#[test]
fn time_is_monotone_under_permutation() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0009);
    for case in 0..64 {
        let n = 1 + rng.gen_range(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(6)).collect();
        let mut s = Scheduler::new();
        s.set_choice_source(Rc::new(RefCell::new(RandomChoice(SimRng::seed_from_u64(
            0x2000 + case,
        )))));
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut fired: Vec<usize> = Vec::new();
        while let Some((at, i)) = s.pop() {
            assert!(at >= last, "time ran backwards");
            assert_eq!(at, SimTime::from_nanos(times[i]), "entry moved instants");
            last = at;
            fired.push(i);
        }
        fired.sort_unstable();
        assert_eq!(
            fired,
            (0..n).collect::<Vec<_>>(),
            "entries lost or duplicated"
        );
    }
}

/// Serialization time is monotone in payload and frames never beat
/// light: arrival ≥ send + serialization + propagation.
#[test]
fn network_timing_laws() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0003);
    for _case in 0..32 {
        let n = 1 + rng.gen_range(49) as usize;
        let payloads: Vec<usize> = (0..n).map(|_| 1 + rng.gen_range(1471) as usize).collect();
        let cfg = NetworkConfig::default();
        let mut net = NetworkModel::new(2, cfg.clone(), 1);
        let mut now = SimTime::ZERO;
        for &p in &payloads {
            let deliveries = net.multicast(NodeId(0), p, now);
            assert_eq!(deliveries.len(), 1);
            let min_arrival = now + cfg.serialization_time(p) + cfg.propagation_delay;
            assert!(deliveries[0].at >= min_arrival);
            now += Duration::from_nanos(1);
        }
    }
}

/// The medium serializes: two frames sent at the same instant arrive
/// strictly ordered, separated by at least the first frame's
/// serialization time.
#[test]
fn shared_medium_serializes() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0004);
    for _case in 0..64 {
        let p1 = 1 + rng.gen_range(1471) as usize;
        let p2 = 1 + rng.gen_range(1471) as usize;
        let cfg = NetworkConfig::default();
        let mut net = NetworkModel::new(3, cfg.clone(), 2);
        let d1 = net.multicast(NodeId(0), p1, SimTime::ZERO);
        let d2 = net.multicast(NodeId(1), p2, SimTime::ZERO);
        assert!(d2[0].at >= d1[0].at + cfg.serialization_time(p2));
    }
}

/// frames_for × payload covers the message exactly.
#[test]
fn fragmentation_arithmetic() {
    let mut rng = SimRng::seed_from_u64(0x5EED_0005);
    let mut lens: Vec<usize> = (0..128)
        .map(|_| rng.gen_range(2_000_000) as usize)
        .collect();
    lens.extend([0, 1, 1472, 1473, 1_999_999]);
    for len in lens {
        let cfg = NetworkConfig::default();
        let frames = cfg.frames_for(len);
        assert!(frames >= 1);
        assert!(frames * cfg.frame_payload() >= len);
        if len > cfg.frame_payload() {
            assert!((frames - 1) * cfg.frame_payload() < len);
        }
    }
}

/// The PRNG stream is identical for identical seeds and the
/// exponential draw is always positive and finite.
#[test]
fn rng_reproducibility() {
    let mut seeder = SimRng::seed_from_u64(0x5EED_0006);
    for _case in 0..64 {
        let seed = seeder.next_u64();
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let e = a.exponential(3.0);
        assert!(e.is_finite() && e >= 0.0);
    }
}

#[test]
fn partition_isolation_is_symmetric_and_complete() {
    let mut net = NetworkModel::new(6, NetworkConfig::default(), 3);
    let left = [NodeId(0), NodeId(1), NodeId(2)];
    let right = [NodeId(3), NodeId(4), NodeId(5)];
    net.partition(&[&left, &right]);
    for &a in &left {
        for &b in &right {
            assert!(!net.can_reach(a, b), "{a}->{b}");
            assert!(!net.can_reach(b, a), "{b}->{a}");
        }
        for &a2 in &left {
            if a != a2 {
                assert!(net.can_reach(a, a2));
            }
        }
    }
    net.heal();
    for &a in &left {
        for &b in &right {
            assert!(net.can_reach(a, b));
        }
    }
}
