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

/// A tie-breaker that replays a list of branches (some out of range,
/// to be clamped) and records the arity of every tie it was asked.
#[derive(Debug)]
struct Scripted {
    branches: Vec<usize>,
    asked: Vec<usize>,
}

impl ChoiceSource for Scripted {
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
        assert_eq!(kind, ChoiceKind::Tie);
        self.asked.push(arity);
        self.branches[self.asked.len() - 1]
    }
}

/// The scheduler against a model that is nothing but its contract: a
/// `Vec` of `(time, seq, payload)` kept sorted, popped from the front,
/// the tied front entries offered to the tie-breaker in `seq` order.
/// Random interleavings of `schedule_at`, `schedule_after` and `pop`
/// with no choice source, with [`FifoChoice`] and with a scripted one:
/// the same pops at the same instants, the same ties asked, and a slab
/// that is exactly as long as the most events ever pending at once.
/// The last six cases have the shape a cluster gives the scheduler — a
/// thousand pending fixed-delay re-arms interleaved with near arrivals,
/// now and then a key out of order or far in the future — which is the
/// one its sorted runs were made for.
#[test]
fn scheduler_matches_a_sorted_vec_model() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Source {
        None,
        Fifo,
        Scripted,
    }
    let mut rng = SimRng::seed_from_u64(0x5EED_0023);
    let mut ties = 0;
    for case in 0..102 {
        let source = [Source::None, Source::Fifo, Source::Scripted][case % 3];
        let timers = case >= 96;
        let ops = if timers { 6000 } else { 1 + rng.gen_range(400) };
        // More branches than there can be ties; every eighth overshoots.
        let branches: Vec<usize> = (0..=ops)
            .map(|i| match i % 8 {
                7 => usize::MAX,
                _ => rng.gen_range(6) as usize,
            })
            .collect();
        let scripted = Rc::new(RefCell::new(Scripted {
            branches: branches.clone(),
            asked: Vec::new(),
        }));
        let mut s: Scheduler<u64> = Scheduler::new();
        match source {
            Source::None => {}
            Source::Fifo => s.set_choice_source(Rc::new(RefCell::new(FifoChoice))),
            Source::Scripted => s.set_choice_source(scripted.clone()),
        }
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let (mut now, mut next_seq, mut high_water) = (0u64, 0u64, 0usize);
        // When the shared medium is next free: arrivals follow it.
        let mut medium = 0;
        let mut expected_asked = Vec::new();
        let mut model_pop = |model: &mut Vec<(u64, u64, u64)>| {
            let &(front, ..) = model.first()?;
            let tied = model.iter().take_while(|e| e.0 == front).count();
            let pick = if source == Source::Scripted && tied >= 2 {
                expected_asked.push(tied);
                branches[expected_asked.len() - 1].min(tied - 1)
            } else {
                0
            };
            Some(model.remove(pick))
        };
        // Schedule-heavy first, pop-heavy after, so the queue both
        // builds up and runs down to empty within a case.
        for op in 0..ops {
            let pop_weight = match timers {
                // Build up to a thousand pending, then hold there.
                true => 1 + (model.len() >= 1000) as u64,
                false if op < ops / 2 => 1,
                false => 3,
            };
            if rng.gen_range(4) < pop_weight {
                let popped = s.pop();
                let expected = model_pop(&mut model);
                assert_eq!(
                    popped.map(|(at, payload)| (at.as_nanos(), payload)),
                    expected.map(|(at, _, payload)| (at, payload)),
                    "case {case} op {op}"
                );
                if let Some((at, ..)) = expected {
                    now = at;
                }
            } else {
                // Coarse delays force plenty of same-instant ties.
                let delay = match (timers, rng.gen_range(64)) {
                    (false, _) => rng.gen_range(4) * 10,
                    (true, 0..=23) => 30_000,
                    (true, 24..=31) => 5_000,
                    (true, 32..=61) => {
                        medium = now.max(medium) + rng.gen_range(3) * 10;
                        medium + 100 - now
                    }
                    (true, 62) => rng.gen_range(10) * 10,
                    (true, _) => 1_000_000,
                };
                let payload = rng.next_u64();
                if rng.chance(0.5) {
                    s.schedule_at(SimTime::from_nanos(now + delay), payload);
                } else {
                    s.schedule_after(Duration::from_nanos(delay), payload);
                }
                let at = model.partition_point(|e| e.0 <= now + delay);
                model.insert(at, (now + delay, next_seq, payload));
                next_seq += 1;
            }
            high_water = high_water.max(model.len());
            assert_eq!(s.now(), SimTime::from_nanos(now));
            assert_eq!(
                s.peek_time().map(SimTime::as_nanos),
                model.first().map(|e| e.0)
            );
            assert_eq!(s.is_empty(), model.is_empty());
            assert_eq!(s.slots(), high_water, "case {case} op {op}");
        }
        while let Some((at, _, payload)) = model_pop(&mut model) {
            assert_eq!(s.pop(), Some((SimTime::from_nanos(at), payload)));
            now = at;
        }
        assert_eq!(s.pop(), None);
        assert_eq!(scripted.borrow().asked, expected_asked, "case {case}");
        ties += expected_asked.len();
        // Every slot is free again and every one is reused before the
        // slab grows by one.
        for i in 0..high_water {
            s.schedule_at(SimTime::from_nanos(now), i as u64);
            assert_eq!(s.slots(), high_water);
        }
        s.schedule_at(SimTime::from_nanos(now), 0);
        assert_eq!(s.slots(), high_water + 1);
    }
    assert!(ties > 4000, "only {ties} ties were put to the script");
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
