//! Cross-module Totem invariants, including randomized-schedule property
//! tests: total order is a prefix relation between any two nodes'
//! delivery logs, no duplicates ever surface, and flow control bounds
//! the sender's window. Randomized schedules are driven by the
//! deterministic `eternal-sim` RNG (fixed seeds) so the suite builds
//! offline and replays identically.

use eternal_sim::choice::{ChoiceKind, ChoiceSource};
use eternal_sim::net::{NetworkConfig, NodeId};
use eternal_sim::rng::SimRng;
use eternal_sim::Duration;
use eternal_totem::harness::TotemHarness;
use eternal_totem::node::Delivery;
use eternal_totem::{Action, Frame, RingId, Timer, TotemConfig, TotemNode};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Message logs of two correct nodes must be prefix-ordered: one is a
/// prefix of the other (they may have delivered different amounts, but
/// never in different orders).
fn assert_prefix_ordered(a: &[Vec<u8>], b: &[Vec<u8>]) {
    let common = a.len().min(b.len());
    assert_eq!(&a[..common], &b[..common], "order divergence");
}

#[test]
fn delivery_logs_are_prefix_ordered_under_loss() {
    let net_cfg = NetworkConfig {
        loss_probability: 0.08,
        ..NetworkConfig::default()
    };
    let mut h = TotemHarness::with_network(4, TotemConfig::default(), net_cfg, 99);
    h.run_until_formed();
    for i in 0..120u32 {
        h.broadcast(n(i % 4), i.to_be_bytes().to_vec());
    }
    // Sample mid-flight: logs may be unequal lengths but must agree on
    // the common prefix.
    h.run_for(Duration::from_millis(15));
    let logs: Vec<_> = (0..4).map(|i| h.delivered_payloads(n(i))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert_prefix_ordered(&logs[i], &logs[j]);
        }
    }
    // And eventually all deliver everything.
    h.run_for(Duration::from_secs(5));
    for i in 0..4 {
        assert_eq!(h.delivered_payloads(n(i)).len(), 120, "node {i}");
    }
}

#[test]
fn flow_control_bounds_backlog_drain_rate() {
    let cfg = TotemConfig::default();
    let per_visit = cfg.max_messages_per_token;
    let mut h = TotemHarness::new(2, cfg, 7);
    h.run_until_formed();
    // Queue far more than one token visit can drain.
    for i in 0..(per_visit * 10) as u32 {
        h.broadcast(n(0), i.to_be_bytes().to_vec());
    }
    assert_eq!(h.node(n(0)).backlog(), per_visit * 10);
    // All eventually flow, in order.
    h.run_for(Duration::from_secs(1));
    assert_eq!(h.node(n(0)).backlog(), 0);
    let log = h.delivered_payloads(n(1));
    assert_eq!(log.len(), per_visit * 10);
    let expected: Vec<Vec<u8>> = (0..(per_visit * 10) as u32)
        .map(|i| i.to_be_bytes().to_vec())
        .collect();
    assert_eq!(log, expected, "single-sender FIFO preserved");
}

#[test]
fn config_changes_are_ordered_consistently() {
    let mut h = TotemHarness::new(3, TotemConfig::default(), 13);
    h.run_until_formed();
    for i in 0..10u32 {
        h.broadcast(n(0), i.to_be_bytes().to_vec());
    }
    h.run_for(Duration::from_millis(5));
    h.kill(n(2));
    h.run_for(Duration::from_secs(2));
    h.restart(n(2));
    h.run_for(Duration::from_secs(2));
    assert!(h.formed());
    // Survivors saw the same sequence of events (messages + config
    // changes) for the rings they shared.
    let render = |id: NodeId| -> Vec<String> {
        h.deliveries(id)
            .iter()
            .map(|d| match d {
                Delivery::Message { sender, data, .. } => format!("m {sender} {data:?}"),
                Delivery::ConfigChange { members, .. } => format!("c {members:?}"),
            })
            .collect()
    };
    assert_eq!(render(n(0)), render(n(1)));
}

#[test]
fn safe_upto_never_exceeds_any_members_deliveries() {
    let mut h = TotemHarness::new(3, TotemConfig::default(), 21);
    h.run_until_formed();
    for i in 0..60u32 {
        h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
    }
    h.run_for(Duration::from_secs(1));
    let min_delivered = (0..3)
        .map(|i| h.delivered_payloads(n(i)).len() as u64)
        .min()
        .unwrap();
    for i in 0..3 {
        assert!(
            h.node(n(i)).safe_upto() <= min_delivered + 60,
            "safety bound violated"
        );
        // After quiescence everyone delivered everything, so safe_upto
        // eventually reaches the full count.
        assert!(h.node(n(i)).safe_upto() >= 1);
    }
}

/// Total order + completeness hold for arbitrary seeds, loss rates,
/// and message loads.
#[test]
fn total_order_holds_for_arbitrary_schedules() {
    let mut rng = SimRng::seed_from_u64(0x707_0001);
    for _case in 0..12 {
        let seed = rng.gen_range(10_000);
        let loss = rng.next_f64() * 0.10;
        let msgs = 10 + rng.gen_range(70) as usize;
        let net_cfg = NetworkConfig {
            loss_probability: loss,
            ..NetworkConfig::default()
        };
        let mut h = TotemHarness::with_network(3, TotemConfig::default(), net_cfg, seed);
        h.run_until_formed();
        for i in 0..msgs as u32 {
            h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_secs(4));
        let l0 = h.delivered_payloads(n(0));
        assert_eq!(l0.len(), msgs, "all messages delivered");
        for i in 1..3 {
            assert_eq!(h.delivered_payloads(n(i)), l0);
        }
        // No duplicates.
        let mut sorted = l0.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), msgs);
    }
}

/// A node crash at an arbitrary moment never breaks survivor
/// agreement.
#[test]
fn crash_at_any_point_preserves_agreement() {
    let mut rng = SimRng::seed_from_u64(0x707_0002);
    for _case in 0..12 {
        let seed = rng.gen_range(10_000);
        let kill_after_us = 100 + rng.gen_range(4_900);
        let mut h = TotemHarness::new(3, TotemConfig::default(), seed);
        h.run_until_formed();
        for i in 0..40u32 {
            h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_micros(kill_after_us));
        h.kill(n(2));
        h.run_for(Duration::from_secs(3));
        let l0 = h.delivered_payloads(n(0));
        let l1 = h.delivered_payloads(n(1));
        assert_eq!(l0, l1, "survivors agree exactly");
        // Survivors' own messages (n0, n1 senders) must all appear.
        let survivor_msgs = (0..40u32).filter(|i| i % 3 != 2).count();
        assert!(l0.len() >= survivor_msgs);
    }
}

/// An explorer-style fate schedule: each frame at its send boundary is
/// dropped or delayed with probability `rate` until `budget` faults are
/// spent; scheduler ties stay FIFO.
#[derive(Debug)]
struct RandomFates {
    rng: SimRng,
    rate: f64,
    budget: u32,
}

impl ChoiceSource for RandomFates {
    fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
        if kind == ChoiceKind::Tie || self.budget == 0 || !self.rng.chance(self.rate) {
            return 0;
        }
        self.budget -= 1;
        1 + self.rng.gen_range(2) as usize
    }
}

/// One node's delivery log cut at its configuration changes: the ring
/// each change installed and the payloads delivered until the next.
fn configurations(h: &TotemHarness, id: NodeId) -> Vec<(RingId, Vec<&[u8]>)> {
    let mut out: Vec<(RingId, Vec<&[u8]>)> = Vec::new();
    for d in h.deliveries(id) {
        match d {
            Delivery::ConfigChange { ring, .. } => out.push((*ring, Vec::new())),
            Delivery::Message { data, .. } => out.last_mut().expect("a ring first").1.push(data),
        }
    }
    out
}

/// Totem's own guarantees under explorer fates, with nothing above the
/// ring. Whatever a bounded schedule of dropped and delayed frames
/// (tokens, joins, commit tokens) does to the membership: no node
/// delivers a message twice; two nodes deliver the messages they share
/// in the same order (agreed order) and, moving together from one
/// configuration to the next, the same messages in between (virtual
/// synchrony); and once the faults are spent the ring reforms.
#[test]
fn totem_guarantees_hold_under_explorer_fate_schedules() {
    let mut rng = SimRng::seed_from_u64(0x707_0003);
    let (mut faults, mut transitions) = (0, 0);
    for case in 0..64u64 {
        let budget = 1 + rng.gen_range(96) as u32;
        let fates = Rc::new(RefCell::new(RandomFates {
            rng: SimRng::seed_from_u64(0xFA7E_0000 + case),
            rate: 0.05 + rng.next_f64() * 0.45,
            budget,
        }));
        let mut h = TotemHarness::new(3, TotemConfig::default(), rng.gen_range(10_000));
        h.run_until_formed();
        h.set_choice_source(fates.clone());
        for i in 0..60u32 {
            h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
            if i % 15 == 14 {
                h.run_for(Duration::from_millis(10 + rng.gen_range(30)));
            }
        }
        h.run_for(Duration::from_millis(500));
        faults += budget - fates.borrow().budget;
        assert!(h.formed(), "case {case}: ring did not reform");

        let configs: Vec<_> = (0..3).map(|i| configurations(&h, n(i))).collect();
        let logs: Vec<Vec<&[u8]>> = configs
            .iter()
            .map(|c| c.iter().flat_map(|(_, msgs)| msgs).copied().collect())
            .collect();
        for (i, log) in logs.iter().enumerate() {
            // Against itself (`j == i`) this is the no-duplicates check.
            for (j, other) in logs.iter().enumerate() {
                let theirs: HashMap<&[u8], usize> = other.iter().copied().zip(0..).collect();
                let shared: Vec<usize> =
                    log.iter().filter_map(|m| theirs.get(m).copied()).collect();
                let agreed = shared.windows(2).all(|w| w[0] < w[1]);
                assert!(
                    agreed,
                    "case {case}: P{i} and P{j} order shared messages differently"
                );
            }
        }
        for (i, a) in configs.iter().enumerate() {
            for (wa, wb) in configs[i + 1..]
                .iter()
                .flat_map(|b| {
                    a.windows(2)
                        .flat_map(|wa| b.windows(2).map(move |wb| (wa, wb)))
                })
                .filter(|(wa, wb)| (wa[0].0, wa[1].0) == (wb[0].0, wb[1].0))
            {
                transitions += 1;
                assert_eq!(wa[0].1, wb[0].1, "case {case}: {} -> {}", wa[0].0, wa[1].0);
            }
        }
    }
    assert!(
        faults >= 64 && transitions > 0,
        "the schedules must bite: {faults} faults, {transitions} shared reformations"
    );
}

/// The buffer-writing entry points are the allocating ones: two copies
/// of four engines see the same seeded stream of frames (some lost),
/// timer firings and broadcasts — one copy through `handle_frame`,
/// `handle_timer` and `broadcast`, the other
/// through their `_into` forms writing into one reused buffer that is
/// never cleared — and every call appends exactly the actions the
/// allocating call returns.
#[test]
fn lent_buffers_receive_what_the_allocating_entry_points_return() {
    const TIMERS: [Timer; 4] = [
        Timer::TokenLoss,
        Timer::TokenRetransmit,
        Timer::JoinRebroadcast,
        Timer::ConsensusTimeout,
    ];
    let (mut delivered, mut reformations) = (0, 0);
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from_u64(0x1E47 + seed);
        let engines = || -> Vec<TotemNode> {
            (0..4)
                .map(|i| TotemNode::new(n(i), TotemConfig::default()))
                .collect()
        };
        let (mut owned, mut lent) = (engines(), engines());
        let mut buffer = vec![Action::CancelTimer(Timer::TokenLoss)];
        let mut wire: VecDeque<(usize, Frame)> = VecDeque::new();
        // Per node and timer kind: armed and not yet fired or cancelled.
        let mut armed = [[false; 4]; 4];
        for i in 0..4 {
            let actions = owned[i].start();
            assert_eq!(lent[i].start(), actions);
            fan_out(i, &actions, &mut wire, &mut armed[i]);
        }
        for step in 0..4_000u32 {
            let node = rng.gen_range(4) as usize;
            let mark = buffer.len();
            let expected = if rng.chance(0.15) {
                let data = vec![step as u8; 1 + rng.gen_range(600) as usize];
                lent[node].broadcast_into(data.clone(), &mut buffer);
                owned[node].broadcast(data)
            } else if wire.is_empty() || rng.chance(0.02) {
                let kinds: Vec<usize> = (0..4).filter(|&k| armed[node][k]).collect();
                let Some(&kind) = rng.choose(&kinds) else {
                    continue;
                };
                armed[node][kind] = false;
                lent[node].handle_timer_into(TIMERS[kind], &mut buffer);
                owned[node].handle_timer(TIMERS[kind])
            } else {
                let (dst, frame) = wire.pop_front().expect("not empty");
                if rng.chance(0.05) {
                    continue; // lost on the medium
                }
                lent[dst].handle_frame_into(frame.clone(), &mut buffer);
                let actions = owned[dst].handle_frame(frame);
                assert_eq!(buffer[mark..], actions, "seed {seed} step {step}");
                fan_out(dst, &actions, &mut wire, &mut armed[dst]);
                if buffer.len() > 512 {
                    buffer.drain(..buffer.len() - 8);
                }
                continue;
            };
            assert_eq!(buffer[mark..], expected, "seed {seed} step {step}");
            fan_out(node, &expected, &mut wire, &mut armed[node]);
        }
        for (o, l) in owned.iter().zip(&lent) {
            assert_eq!(o.stats(), l.stats());
            delivered += o.stats().delivered;
            reformations += o.stats().reformations;
        }
    }
    assert!(
        delivered > 1_000 && reformations > 24,
        "the stream must order traffic and reform: {delivered} deliveries, {reformations} gathers"
    );
}

/// Puts `src`'s multicasts on the wire for every other node and tracks
/// which of its timers are armed.
fn fan_out(
    src: usize,
    actions: &[Action],
    wire: &mut VecDeque<(usize, Frame)>,
    armed: &mut [bool; 4],
) {
    for action in actions {
        match action {
            Action::Multicast(frame) => {
                wire.extend((0..4).filter(|&d| d != src).map(|d| (d, frame.clone())));
            }
            Action::SetTimer(timer, _) => armed[*timer as usize] = true,
            Action::CancelTimer(timer) => armed[*timer as usize] = false,
            Action::Deliver(_) => {}
        }
    }
}
