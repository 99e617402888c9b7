//! The one event loop: a set of [`TotemNode`]s over the simulated
//! network, under whatever sits above them.
//!
//! A [`Ring`] is the single owner of the scheduler, the network model,
//! the protocol engines, their liveness and their timer generations.
//! Its two drivers — [`TotemHarness`](crate::harness::TotemHarness)
//! (`Ring<()>`) and the whole-system `eternal::Cluster` (`Ring` over its
//! own event type) — are thin loops around three calls:
//!
//! * [`Ring::pop`] takes the next scheduled occurrence: a frame or a
//!   still-current timer is run through its engine and the engine's
//!   [`Action`]s come back; [`Popped::Ext`] is an event the driver
//!   scheduled itself; a frame for a crashed node, or a timer re-armed
//!   or cancelled since, is [`Popped::Stale`].
//! * [`Ring::execute`] does an action's mechanical part (frame fan-out,
//!   timer arm/cancel) and returns an ordered [`Delivery`] to the
//!   driver: the only thing the layers above Totem are driven by.
//! * [`Ring::multicast`] is the fan-out alone, for a driver that wants
//!   to see a frame before it leaves and learn its [`Fate`] after.
//!
//! **Timers are cancelled by generation, not in the scheduler.** Each
//! node keeps one counter per [`Timer`] kind; arming or cancelling bumps
//! it, and a firing that does not carry the current value is stale.
//!
//! **The call-order rule.** Same-instant events pop in the order they
//! were scheduled and a choice source is consulted in call order, so a
//! driver keeps runs reproducible by executing an engine's actions in
//! the order emitted and consuming each delivery inline, before the
//! next action.

use crate::config::TotemConfig;
use crate::node::{Action, Delivery, Phase, TotemNode};
use crate::types::{Frame, Timer};
use eternal_sim::choice::{ChoiceKind, SharedChoiceSource};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::obs::causal::TraceTag;
use eternal_sim::{Bytes, Duration, Scheduler, SimTime};

/// Extra latency a frame's deliveries incur when a choice source picks
/// [`Fate::Delayed`]: half a default token-rotation timeout, enough to
/// reorder against same-flight frames without instantly tripping
/// failure detectors.
pub const EXPLORE_DELAY: Duration = Duration::from_micros(750);

/// A scheduled occurrence.
#[derive(Debug)]
enum Event<X> {
    /// A frame arrives at a node.
    Frame(NodeId, Frame),
    /// A node's timer fires, if the generation is still current.
    Timer(NodeId, Timer, u64),
    /// An occurrence of the embedding driver's own.
    Ext(X),
}

/// What [`Ring::pop`] took off the schedule.
#[derive(Debug)]
pub enum Popped<X> {
    /// A frame or timer was handled by `node`'s engine; `actions` are
    /// for the driver to [`Ring::execute`], in order.
    Actions {
        /// The node whose engine ran.
        node: NodeId,
        /// Whether this was the token arriving at its addressee (a
        /// token-visit boundary).
        token_visit: bool,
        /// What the engine wants done.
        actions: Vec<Action>,
    },
    /// An event the driver scheduled through [`Ring::schedule_at`].
    Ext(X),
    /// A frame for a crashed node or an outdated timer firing: nothing
    /// happened.
    Stale,
}

/// What became of a frame at its send boundary. Without a choice source
/// every frame is [`Fate::Delivered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Handed to the network model as usual (branch 0).
    Delivered,
    /// Lost before reaching the network model (branch 1).
    Dropped,
    /// Handed to the network model, every arrival [`EXPLORE_DELAY`]
    /// late (branch 2).
    Delayed,
}

#[derive(Debug)]
struct Slot {
    engine: TotemNode,
    alive: bool,
    /// Current generation of each [`Timer`] kind, indexed by kind.
    timer_gen: [u64; 4],
}

/// Totem engines on the simulated network, with room on the schedule
/// for the embedding driver's own events of type `X`.
#[derive(Debug)]
pub struct Ring<X> {
    sched: Scheduler<Event<X>>,
    net: NetworkModel,
    /// Schedule-exploration choice source (also installed into `sched`
    /// for tie-breaks); `None` outside exploration.
    choices: Option<SharedChoiceSource>,
    cfg: TotemConfig,
    /// One slot per node, indexed by node id (ids are dense `0..n`).
    slots: Vec<Slot>,
}

impl<X> Ring<X> {
    /// Bytes one scheduled occurrence takes in the scheduler's slab: a
    /// driver pins its own event type's weight against this.
    pub const EVENT_BYTES: usize = std::mem::size_of::<Event<X>>();

    /// Creates `n` engines (ids `0..n`) over a fresh network, all alive
    /// and none started: the driver calls [`Ring::start`] on each.
    pub fn new(n: u32, cfg: TotemConfig, net_cfg: NetworkConfig, seed: u64) -> Self {
        let slot = |i| Slot {
            engine: TotemNode::new(NodeId(i), cfg.clone()),
            alive: true,
            timer_gen: [0; 4],
        };
        Ring {
            sched: Scheduler::new(),
            net: NetworkModel::new(n, net_cfg, seed),
            choices: None,
            slots: (0..n).map(slot).collect(),
            cfg,
        }
    }

    /// Installs a schedule-exploration
    /// [`ChoiceSource`](eternal_sim::choice::ChoiceSource): it resolves
    /// same-instant scheduler tie-breaks ([`ChoiceKind::Tie`]) and the
    /// [`Fate`] of every frame at its send boundary
    /// ([`ChoiceKind::Token`] for token frames, [`ChoiceKind::Frame`]
    /// for the rest). A source that always answers 0 reproduces the run
    /// without one.
    pub fn set_choice_source(&mut self, source: SharedChoiceSource) {
        self.sched.set_choice_source(source.clone());
        self.choices = Some(source);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Time of the next scheduled occurrence, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.sched.peek_time()
    }

    /// All node ids, alive or not, in id order.
    pub fn nodes(&self) -> &[NodeId] {
        self.net.nodes()
    }

    /// The live node ids, in id order.
    pub fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().filter(|s| s.alive).map(|s| s.engine.id())
    }

    /// Whether `node` exists and is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.slots.get(node.0 as usize).is_some_and(|s| s.alive)
    }

    /// `node`'s protocol engine (a crashed node's is its last one).
    pub fn node(&self, node: NodeId) -> &TotemNode {
        &self.slots[node.0 as usize].engine
    }

    /// The network model, read-only (for counters).
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// The network model, mutable (for partitions and fault knobs).
    pub fn net_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// Schedules one of the driver's own events at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: X) {
        self.sched.schedule_at(at, Event::Ext(event));
    }

    /// Schedules one of the driver's own events `delay` from now.
    pub fn schedule_after(&mut self, delay: Duration, event: X) {
        self.sched.schedule_after(delay, Event::Ext(event));
    }

    /// Begins membership formation at `node`; the driver executes the
    /// returned actions.
    pub fn start(&mut self, node: NodeId) -> Vec<Action> {
        self.slots[node.0 as usize].engine.start()
    }

    /// Queues `data` for totally ordered broadcast from `node`; a
    /// crashed node queues nothing.
    pub fn broadcast(
        &mut self,
        node: NodeId,
        data: impl Into<Bytes>,
        tag: TraceTag,
    ) -> Vec<Action> {
        let slot = &mut self.slots[node.0 as usize];
        if slot.alive {
            slot.engine.broadcast_traced(data, tag)
        } else {
            Vec::new()
        }
    }

    /// Crashes `node`: it stops sending, receiving and processing, and
    /// every firing of its timers already on the schedule becomes stale.
    pub fn crash(&mut self, node: NodeId) {
        let slot = &mut self.slots[node.0 as usize];
        slot.alive = false;
        slot.timer_gen
            .iter_mut()
            .for_each(|generation| *generation += 1);
        self.net.set_up(node, false);
    }

    /// Restarts a crashed node with a fresh engine (volatile state
    /// lost, as after a real crash) and begins membership formation;
    /// the driver executes the returned actions.
    ///
    /// # Panics
    ///
    /// Panics if `node` is alive.
    pub fn restart(&mut self, node: NodeId) -> Vec<Action> {
        let slot = &mut self.slots[node.0 as usize];
        assert!(!slot.alive, "restart of a live node");
        slot.alive = true;
        slot.engine = TotemNode::new(node, self.cfg.clone());
        self.net.set_up(node, true);
        self.start(node)
    }

    /// Whether all live nodes are operational on one ring whose
    /// membership is exactly the live set.
    pub fn formed(&self) -> bool {
        let ring = self.live().next().and_then(|first| self.node(first).ring());
        self.live().all(|id| {
            let n = self.node(id);
            n.phase() == Phase::Operational
                && n.ring() == ring
                && n.members().iter().copied().eq(self.live())
        })
    }

    /// Takes the next occurrence off the schedule, advancing the clock
    /// to it. Returns `None` when nothing is scheduled.
    pub fn pop(&mut self) -> Option<Popped<X>> {
        let (node, token_visit, actions) = match self.sched.pop()?.1 {
            Event::Ext(event) => return Some(Popped::Ext(event)),
            Event::Frame(dst, frame) if self.is_alive(dst) => {
                let token_visit = matches!(&frame, Frame::Token(t) if t.target == dst);
                let engine = &mut self.slots[dst.0 as usize].engine;
                (dst, token_visit, engine.handle_frame(frame))
            }
            Event::Timer(node, timer, generation)
                if self.is_alive(node)
                    && self.slots[node.0 as usize].timer_gen[timer as usize] == generation =>
            {
                let engine = &mut self.slots[node.0 as usize].engine;
                (node, false, engine.handle_timer(timer))
            }
            Event::Frame(..) | Event::Timer(..) => return Some(Popped::Stale),
        };
        Some(Popped::Actions {
            node,
            token_visit,
            actions,
        })
    }

    /// Performs the mechanical part of one of `node`'s actions and
    /// hands an ordered delivery back to the driver.
    pub fn execute(&mut self, node: NodeId, action: Action) -> Option<Delivery> {
        match action {
            Action::Multicast(frame) => {
                self.multicast(node, frame);
            }
            Action::SetTimer(timer, after) => {
                let generation = self.next_generation(node, timer);
                self.sched
                    .schedule_after(after, Event::Timer(node, timer, generation));
            }
            Action::CancelTimer(timer) => {
                self.next_generation(node, timer);
            }
            Action::Deliver(delivery) => return Some(delivery),
        }
        None
    }

    /// Invalidates every scheduled firing of `node`'s `timer` and
    /// returns the generation a new firing must carry to be current.
    fn next_generation(&mut self, node: NodeId, timer: Timer) -> u64 {
        let generation = &mut self.slots[node.0 as usize].timer_gen[timer as usize];
        *generation += 1;
        *generation
    }

    /// Sends `frame` from `src`: asks the choice source (if any) for
    /// its [`Fate`], then schedules its arrival at every node the
    /// network model says it reaches.
    pub fn multicast(&mut self, src: NodeId, frame: Frame) -> Fate {
        let kind = match frame {
            Frame::Token(_) => ChoiceKind::Token,
            _ => ChoiceKind::Frame,
        };
        let choice = self.choices.as_ref();
        let (fate, extra) = match choice.map_or(0, |c| c.borrow_mut().choose(kind, 3)) {
            0 => (Fate::Delivered, Duration::ZERO),
            1 => return Fate::Dropped,
            _ => (Fate::Delayed, EXPLORE_DELAY),
        };
        let wire = frame.wire_len().min(self.net.config().frame_payload());
        for d in self.net.multicast(src, wire, self.sched.now()) {
            self.sched
                .schedule_at(d.at + extra, Event::Frame(d.dst, frame.clone()));
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{JoinMsg, RingId, RotationAru, Token};
    use eternal_sim::choice::ChoiceSource;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const ALL_TIMERS: [Timer; 4] = [
        Timer::TokenLoss,
        Timer::TokenRetransmit,
        Timer::JoinRebroadcast,
        Timer::ConsensusTimeout,
    ];

    fn ring<X>(n: u32) -> Ring<X> {
        Ring::new(n, TotemConfig::default(), NetworkConfig::default(), 1)
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Pops the next occurrence: the node whose engine ran and whether
    /// it was a token visit, or `None` for a stale one.
    fn ran(ring: &mut Ring<()>) -> Option<(NodeId, bool)> {
        match ring.pop().expect("something scheduled") {
            Popped::Actions {
                node, token_visit, ..
            } => Some((node, token_visit)),
            Popped::Stale => None,
            Popped::Ext(()) => unreachable!("nothing external was scheduled"),
        }
    }

    fn join() -> Frame {
        Frame::Join(JoinMsg {
            sender: N0,
            proc_set: BTreeSet::from([N0]),
            fail_set: BTreeSet::new(),
            ring_seq_hint: 0,
        })
    }

    #[test]
    fn rearmed_and_cancelled_timers_fire_stale() {
        let mut ring: Ring<()> = ring(1);
        ring.execute(N0, Action::SetTimer(Timer::JoinRebroadcast, ms(5)));
        ring.execute(N0, Action::CancelTimer(Timer::JoinRebroadcast));
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(10)));
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(20)));
        assert_eq!(ran(&mut ring), None, "cancelled");
        assert_eq!(ran(&mut ring), None, "re-armed");
        assert_eq!(ring.now(), SimTime::ZERO + ms(10));
        assert_eq!(ran(&mut ring), Some((N0, false)));
        assert_eq!(ring.now(), SimTime::ZERO + ms(20));
        assert!(ring.pop().is_none());
    }

    #[test]
    fn crash_invalidates_every_timer_and_restart_starts_afresh() {
        let mut ring: Ring<()> = ring(2);
        for (timer, delay) in ALL_TIMERS.into_iter().zip(1..) {
            ring.execute(N0, Action::SetTimer(timer, ms(delay)));
        }
        ring.broadcast(N0, vec![1], TraceTag::NONE);
        assert_eq!(ring.node(N0).backlog(), 1);
        ring.multicast(N1, join());
        ring.crash(N0);
        assert!(!ring.is_alive(N0) && !ring.net().is_up(N0));
        assert_eq!(ring.live().collect::<Vec<_>>(), [N1]);
        assert!(ring.broadcast(N0, vec![2], TraceTag::NONE).is_empty());
        assert_eq!(ran(&mut ring), None, "a frame for the dead");

        assert!(!ring.restart(N0).is_empty(), "formation begins again");
        assert!(ring.is_alive(N0) && ring.net().is_up(N0));
        assert_eq!(ring.node(N0).backlog(), 0, "the old engine's queue is gone");
        // Alive again, yet the firings armed before the crash belong to
        // the node's previous life.
        for _ in ALL_TIMERS {
            assert_eq!(ran(&mut ring), None);
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn ext_and_protocol_events_at_one_instant_pop_in_scheduling_order() {
        let mut ring: Ring<&str> = ring(1);
        ring.schedule_at(SimTime::ZERO + ms(1), "first");
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(1)));
        ring.schedule_after(ms(1), "last");
        assert!(matches!(ring.pop(), Some(Popped::Ext("first"))));
        assert!(matches!(ring.pop(), Some(Popped::Actions { node: N0, .. })));
        assert!(matches!(ring.pop(), Some(Popped::Ext("last"))));
        assert_eq!(ring.now(), SimTime::ZERO + ms(1));
    }

    /// Replays a fixed list of branches and records what was asked.
    #[derive(Debug)]
    struct Scripted(Vec<usize>, Vec<ChoiceKind>);

    impl ChoiceSource for Scripted {
        fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize {
            assert_eq!(arity, 3, "deliver / drop / delay");
            self.1.push(kind);
            self.0[self.1.len() - 1]
        }
    }

    #[test]
    fn scripted_fates_drop_before_the_network_and_delay_by_the_constant() {
        let mut plain: Ring<()> = ring(2);
        assert_eq!(plain.multicast(N0, join()), Fate::Delivered);
        let undelayed = plain.peek_time().expect("one arrival");

        let source = Rc::new(RefCell::new(Scripted(vec![1, 2, 0], Vec::new())));
        let mut ring: Ring<()> = ring(2);
        ring.set_choice_source(source.clone());
        assert_eq!(ring.multicast(N0, join()), Fate::Dropped);
        assert_eq!(ring.net().frames_sent(), 0, "dropped before the medium");
        assert_eq!(ring.peek_time(), None);
        assert_eq!(ring.multicast(N0, join()), Fate::Delayed);
        assert_eq!(ring.net().frames_sent(), 1);
        assert_eq!(ring.peek_time(), Some(undelayed + EXPLORE_DELAY));

        let token = Frame::Token(Token {
            ring: RingId { seq: 4, rep: N0 },
            target: N1,
            token_seq: 0,
            seq: 0,
            rtr: BTreeSet::new(),
            aru: RotationAru {
                this_rotation_min: 0,
                last_rotation_min: 0,
            },
        });
        assert_eq!(ring.multicast(N0, token), Fate::Delivered);
        let asked = [ChoiceKind::Frame, ChoiceKind::Frame, ChoiceKind::Token];
        assert_eq!(source.borrow().1, asked);
        // The token overtakes the delayed join, and its arrival at its
        // addressee is a token visit.
        assert_eq!(ran(&mut ring), Some((N1, true)));
        assert_eq!(ran(&mut ring), Some((N1, false)));
    }
}
