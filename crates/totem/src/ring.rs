//! The one event loop: a set of [`TotemNode`]s over the simulated
//! network, under whatever sits above them.
//!
//! A [`Ring`] is the single owner of the scheduler, the network model,
//! the protocol engines, their liveness and their timer deadlines.
//! Its two drivers — [`TotemHarness`](crate::harness::TotemHarness)
//! (`Ring<()>`) and the whole-system `eternal::Cluster` (`Ring` over its
//! own event type) — are thin loops around three calls:
//!
//! * [`Ring::pop`] takes the next scheduled occurrence that does
//!   something: a frame or a due timer is run through its engine and
//!   the engine's [`Action`]s are appended to the driver's buffer;
//!   [`Popped::Ext`] is an event the driver scheduled itself. A frame
//!   for a crashed node, and a timer firing that finds its timer
//!   cancelled or re-armed later, are passed over.
//! * [`Ring::execute`] does an action's mechanical part (frame fan-out,
//!   timer arm/cancel) and returns an ordered [`Delivery`] to the
//!   driver: the only thing the layers above Totem are driven by.
//! * [`Ring::multicast`] is the fan-out alone, for a driver that wants
//!   to see a frame before it leaves and learn its [`Fate`] after.
//!
//! **One scheduled firing per timer.** Each node keeps, per [`Timer`]
//! kind, a deadline and at most one firing on the schedule. Arming sets
//! the deadline and schedules a firing only if none is pending at or
//! before it; cancelling, or crashing, clears the deadline. A firing
//! that pops before the deadline re-schedules itself at it, so the
//! re-arm of the token-loss timeout at every token and regular frame
//! costs no event, and a timer still fires at the instant of its last
//! arming. Only a re-arm to an *earlier* instant withdraws the pending
//! firing from the schedule.
//!
//! **The call-order rule.** Same-instant events pop in the order they
//! were scheduled and a choice source is consulted in call order, so a
//! driver keeps runs reproducible by executing an engine's actions in
//! the order emitted and consuming each delivery inline, before the
//! next action.
//!
//! **Lent buffers.** `pop`, `start`, `restart` and `broadcast` append
//! to a `Vec<Action>` the driver owns, drains and lends again, so the
//! event path allocates no vector per event.

use crate::config::TotemConfig;
use crate::node::{Action, Delivery, Phase, TotemNode};
use crate::types::{Frame, Timer};
use eternal_sim::choice::{ChoiceKind, SharedChoiceSource};
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
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
    /// A node's timer's one scheduled firing.
    Timer(NodeId, Timer),
    /// An occurrence of the embedding driver's own.
    Ext(X),
}

/// What [`Ring::pop`] took off the schedule.
#[derive(Debug)]
pub enum Popped<X> {
    /// A frame or timer was handled by `node`'s engine; what it wants
    /// done was appended to the buffer [`Ring::pop`] was lent, for the
    /// driver to [`Ring::execute`], in order.
    Actions {
        /// The node whose engine ran.
        node: NodeId,
        /// Whether this was the token arriving at its addressee (a
        /// token-visit boundary).
        token_visit: bool,
    },
    /// An event the driver scheduled through [`Ring::schedule_at`].
    Ext(X),
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

/// One of a node's timers.
#[derive(Debug, Clone, Copy, Default)]
struct Armed {
    /// When the timer is due; `None` while it is not armed.
    deadline: Option<SimTime>,
    /// When its one firing on the schedule pops; never after `deadline`.
    firing: Option<SimTime>,
}

#[derive(Debug)]
struct Slot {
    engine: TotemNode,
    alive: bool,
    /// Each [`Timer`] kind's deadline and firing, indexed by kind.
    timers: [Armed; 4],
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
            timers: [Armed::default(); 4],
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
    /// actions appended to `actions`.
    pub fn start(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        actions.extend(self.slots[node.0 as usize].engine.start());
    }

    /// Queues `data` for totally ordered broadcast from `node`,
    /// appending what its engine asks to `actions`; a crashed node
    /// queues nothing.
    pub fn broadcast(&mut self, node: NodeId, data: impl Into<Bytes>, actions: &mut Vec<Action>) {
        let slot = &mut self.slots[node.0 as usize];
        if slot.alive {
            slot.engine.broadcast_into(data, actions);
        }
    }

    /// Crashes `node`: it stops sending, receiving and processing, and
    /// every one of its timers is disarmed.
    pub fn crash(&mut self, node: NodeId) {
        let slot = &mut self.slots[node.0 as usize];
        slot.alive = false;
        slot.timers.iter_mut().for_each(|t| t.deadline = None);
        self.net.set_up(node, false);
    }

    /// Restarts a crashed node with a fresh engine (volatile state
    /// lost, as after a real crash) and begins membership formation;
    /// the driver executes the actions appended to `actions`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is alive.
    pub fn restart(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        let slot = &mut self.slots[node.0 as usize];
        assert!(!slot.alive, "restart of a live node");
        slot.alive = true;
        slot.engine = TotemNode::new(node, self.cfg.clone());
        self.net.set_up(node, true);
        self.start(node, actions);
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

    /// Takes the next occurrence at or before `until` off the schedule,
    /// advancing the clock to it; an engine that runs appends its
    /// actions to `actions`. What does nothing is passed over: a frame
    /// for a crashed node, a firing whose timer was cancelled, and a
    /// firing that re-schedules itself at its timer's later deadline.
    /// Returns `None` when nothing else is scheduled at or before
    /// `until` ([`SimTime::FAR_FUTURE`] bounds nothing).
    pub fn pop(&mut self, until: SimTime, actions: &mut Vec<Action>) -> Option<Popped<X>> {
        while self.sched.peek_time()? <= until {
            let (at, event) = self.sched.pop()?;
            match event {
                Event::Ext(event) => return Some(Popped::Ext(event)),
                Event::Frame(dst, frame) => {
                    let slot = &mut self.slots[dst.0 as usize];
                    if slot.alive {
                        let token_visit = matches!(&frame, Frame::Token(t) if t.target == dst);
                        slot.engine.handle_frame_into(frame, actions);
                        return Some(Popped::Actions {
                            node: dst,
                            token_visit,
                        });
                    }
                }
                Event::Timer(node, timer) => {
                    let slot = &mut self.slots[node.0 as usize];
                    let armed = &mut slot.timers[timer as usize];
                    armed.firing = None;
                    match armed.deadline {
                        Some(due) if due > at => {
                            armed.firing = Some(due);
                            self.sched.schedule_at(due, Event::Timer(node, timer));
                        }
                        Some(_) => {
                            armed.deadline = None;
                            if slot.alive {
                                slot.engine.handle_timer_into(timer, actions);
                                return Some(Popped::Actions {
                                    node,
                                    token_visit: false,
                                });
                            }
                        }
                        None => {}
                    }
                }
            }
        }
        None
    }

    /// Performs the mechanical part of one of `node`'s actions and
    /// hands an ordered delivery back to the driver.
    pub fn execute(&mut self, node: NodeId, action: Action) -> Option<Delivery> {
        match action {
            Action::Multicast(frame) => {
                self.multicast(node, frame);
            }
            Action::SetTimer(timer, after) => self.arm(node, timer, self.now() + after),
            Action::CancelTimer(timer) => {
                self.slots[node.0 as usize].timers[timer as usize].deadline = None;
            }
            Action::Deliver(delivery) => return Some(delivery),
        }
        None
    }

    /// Arms `node`'s `timer` to fire at `due`. A firing already on the
    /// schedule serves if it pops no later (it re-schedules itself at
    /// `due`); a later one is withdrawn for a new one at `due`.
    fn arm(&mut self, node: NodeId, timer: Timer, due: SimTime) {
        let armed = &mut self.slots[node.0 as usize].timers[timer as usize];
        armed.deadline = Some(due);
        if armed.firing.is_some_and(|at| at <= due) {
            return;
        }
        if let Some(later) = armed.firing.replace(due) {
            self.sched.withdraw(
                later,
                |event| matches!(event, Event::Timer(n, t) if (*n, *t) == (node, timer)),
            );
        }
        self.sched.schedule_at(due, Event::Timer(node, timer));
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
        let now = self.sched.now();
        let sched = &mut self.sched;
        self.net.transmit(src, None, wire, now, |d| {
            sched.schedule_at(d.at + extra, Event::Frame(d.dst, frame.clone()));
        });
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

    /// Pops the next occurrence that runs something: the node whose
    /// engine ran and whether it was a token visit.
    fn ran(ring: &mut Ring<()>) -> (NodeId, bool) {
        match ring.pop(SimTime::FAR_FUTURE, &mut Vec::new()) {
            Some(Popped::Actions { node, token_visit }) => (node, token_visit),
            other => panic!("expected an engine to run, popped {other:?}"),
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

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    #[test]
    fn rearmed_and_cancelled_timers_fire_once_at_their_last_deadline() {
        let mut ring: Ring<()> = ring(1);
        ring.execute(N0, Action::SetTimer(Timer::JoinRebroadcast, ms(5)));
        ring.execute(N0, Action::CancelTimer(Timer::JoinRebroadcast));
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(10)));
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(20)));
        assert_eq!(ring.sched.slots(), 2, "one firing per timer");
        // The cancelled firing does nothing, and the re-armed timer's
        // firing moves itself on to the deadline, without passing the
        // driver's bound.
        assert!(ring.pop(at(15), &mut Vec::new()).is_none());
        assert_eq!(ring.now(), at(10));
        assert_eq!(ran(&mut ring), (N0, false));
        assert_eq!(ring.now(), at(20));
        assert!(ring.pop(SimTime::FAR_FUTURE, &mut Vec::new()).is_none());

        // Re-armed to an earlier instant, the timer trades its later
        // firing for one at the new deadline.
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(30)));
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(5)));
        assert_eq!(ring.sched.slots(), 2);
        assert_eq!(ran(&mut ring), (N0, false));
        assert_eq!(ring.now(), at(25));
        assert!(ring.pop(SimTime::FAR_FUTURE, &mut Vec::new()).is_none());
        assert_eq!(ring.now(), at(25), "nothing was left at 50 ms");
    }

    #[test]
    fn crash_invalidates_every_timer_and_restart_starts_afresh() {
        let mut ring: Ring<()> = ring(2);
        for (timer, delay) in ALL_TIMERS.into_iter().zip(1..) {
            ring.execute(N0, Action::SetTimer(timer, ms(delay)));
        }
        let mut actions = Vec::new();
        ring.broadcast(N0, vec![1], &mut actions);
        assert_eq!(ring.node(N0).backlog(), 1);
        ring.multicast(N1, join());
        ring.crash(N0);
        assert!(!ring.is_alive(N0) && !ring.net().is_up(N0));
        assert_eq!(ring.live().collect::<Vec<_>>(), [N1]);
        ring.broadcast(N0, vec![2], &mut actions);
        assert!(actions.is_empty());
        assert!(
            ring.pop(at(0) + Duration::from_micros(999), &mut actions)
                .is_none(),
            "a frame for the dead runs nothing"
        );
        assert!(ring.now() > SimTime::ZERO, "the frame arrived");

        ring.restart(N0, &mut actions);
        assert!(!actions.is_empty(), "formation begins again");
        assert!(ring.is_alive(N0) && ring.net().is_up(N0));
        assert_eq!(ring.node(N0).backlog(), 0, "the old engine's queue is gone");
        // Alive again, yet the timers armed before the crash belong to
        // the node's previous life: their firings pop and run nothing.
        assert!(ring.pop(SimTime::FAR_FUTURE, &mut actions).is_none());
        assert_eq!(ring.now(), at(ALL_TIMERS.len() as u64));
    }

    #[test]
    fn ext_and_protocol_events_at_one_instant_pop_in_scheduling_order() {
        let mut ring: Ring<&str> = ring(1);
        ring.schedule_at(SimTime::ZERO + ms(1), "first");
        ring.execute(N0, Action::SetTimer(Timer::TokenLoss, ms(1)));
        ring.schedule_after(ms(1), "last");
        let actions = &mut Vec::new();
        let mut pop = || ring.pop(SimTime::FAR_FUTURE, actions);
        assert!(matches!(pop(), Some(Popped::Ext("first"))));
        assert!(matches!(pop(), Some(Popped::Actions { node: N0, .. })));
        assert!(matches!(pop(), Some(Popped::Ext("last"))));
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
        let undelayed = plain.sched.peek_time().expect("one arrival");

        let source = Rc::new(RefCell::new(Scripted(vec![1, 2, 0], Vec::new())));
        let mut ring: Ring<()> = ring(2);
        ring.set_choice_source(source.clone());
        assert_eq!(ring.multicast(N0, join()), Fate::Dropped);
        assert_eq!(ring.net().frames_sent(), 0, "dropped before the medium");
        assert_eq!(ring.sched.peek_time(), None);
        assert_eq!(ring.multicast(N0, join()), Fate::Delayed);
        assert_eq!(ring.net().frames_sent(), 1);
        assert_eq!(ring.sched.peek_time(), Some(undelayed + EXPLORE_DELAY));

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
        assert_eq!(ran(&mut ring), (N1, true));
        assert_eq!(ran(&mut ring), (N1, false));
    }

    /// The scheme this ring's timers replaced, kept as their reference:
    /// every arming schedules a firing of its own under a fresh
    /// generation, cancelling and crashing bump the generation, and a
    /// firing runs its timer only if its node is alive and its
    /// generation still current.
    struct Generations {
        generation: Vec<[u64; 4]>,
        alive: Vec<bool>,
        /// `(when, node, timer, generation)` of every firing not yet due.
        pending: Vec<(SimTime, NodeId, Timer, u64)>,
    }

    impl Generations {
        fn new(n: usize) -> Self {
            Generations {
                generation: vec![[0; 4]; n],
                alive: vec![true; n],
                pending: Vec::new(),
            }
        }

        fn bump(&mut self, node: NodeId, timer: Timer) -> u64 {
            let generation = &mut self.generation[node.0 as usize][timer as usize];
            *generation += 1;
            *generation
        }

        /// The `(instant, node, timer)` of every timer run up to `until`,
        /// sorted.
        fn run_until(&mut self, until: SimTime) -> Vec<(SimTime, NodeId, usize)> {
            let mut ran = Vec::new();
            self.pending.retain(|&(when, node, timer, generation)| {
                let (i, t) = (node.0 as usize, timer as usize);
                if when <= until && self.alive[i] && self.generation[i][t] == generation {
                    ran.push((when, node, t));
                }
                when > until
            });
            ran.sort();
            ran
        }
    }

    /// Every `(node, timer)`'s deadline, node-major.
    fn deadlines(ring: &Ring<()>) -> Vec<Option<SimTime>> {
        let slots = ring.slots.iter();
        slots.flat_map(|s| s.timers.map(|t| t.deadline)).collect()
    }

    /// Pops up to and including the driver's own event at `until`,
    /// naming each timer run: the one whose deadline the pop consumed.
    fn run_until(ring: &mut Ring<()>, until: SimTime) -> Vec<(SimTime, NodeId, usize)> {
        let mut ran = Vec::new();
        loop {
            let before = deadlines(ring);
            match ring.pop(SimTime::FAR_FUTURE, &mut Vec::new()) {
                Some(Popped::Actions { node, .. }) => {
                    let after = deadlines(ring);
                    let now = Some(ring.now());
                    let i = (0..before.len())
                        .find(|&i| before[i] == now && after[i].is_none())
                        .expect("a due timer ran");
                    assert_eq!(i / 4, node.0 as usize);
                    ran.push((ring.now(), node, i % 4));
                }
                Some(Popped::Ext(())) if ring.now() == until => break,
                other => panic!("popped {other:?} before {until}"),
            }
        }
        ran.sort();
        ran
    }

    /// Random arming (to earlier instants as well as later ones),
    /// cancelling, crashing and restarting over two to four nodes: every
    /// timer runs at the instants the generation scheme runs it, from at
    /// most one firing per `(node, timer)` on the schedule.
    #[test]
    fn timers_fire_as_under_generations_from_one_firing_each() {
        let mut rng = eternal_sim::rng::SimRng::seed_from_u64(0x5EED_0026);
        let (mut runs, mut earlier) = (0, 0);
        for case in 0..64 {
            let n = 2 + rng.gen_range(3) as usize;
            let mut ring: Ring<()> = ring(n as u32);
            let mut model = Generations::new(n);
            let mut now = SimTime::ZERO;
            for op in 0..400 {
                // Operations fall 1 ns past the millisecond, timers a
                // whole number of them later: no firing shares an instant
                // with an operation.
                now += ms(rng.gen_range(6)) + Duration::from_nanos(1);
                ring.schedule_at(now, ());
                let ran = run_until(&mut ring, now);
                assert_eq!(ran, model.run_until(now), "case {case} op {op}");
                runs += ran.len();

                let node = NodeId(rng.gen_range(n as u64) as u32);
                let timer = ALL_TIMERS[rng.gen_range(4) as usize];
                match rng.gen_range(10) {
                    0..=5 => {
                        let after = ms(1 + rng.gen_range(40));
                        let armed = ring.slots[node.0 as usize].timers[timer as usize];
                        earlier += armed.firing.is_some_and(|at| now + after < at) as usize;
                        ring.execute(node, Action::SetTimer(timer, after));
                        let generation = model.bump(node, timer);
                        model.pending.push((now + after, node, timer, generation));
                    }
                    6..=7 => {
                        ring.execute(node, Action::CancelTimer(timer));
                        model.bump(node, timer);
                    }
                    _ if ring.is_alive(node) => {
                        ring.crash(node);
                        model.alive[node.0 as usize] = false;
                        for timer in ALL_TIMERS {
                            model.bump(node, timer);
                        }
                    }
                    _ => {
                        // The fresh engine's own arming is not executed.
                        ring.restart(node, &mut Vec::new());
                        model.alive[node.0 as usize] = true;
                    }
                }
                // Every firing ever pending at once, plus the driver's
                // own event: at most one firing per (node, timer).
                assert!(ring.sched.slots() <= 4 * n + 1, "case {case} op {op}");
            }
            ring.schedule_at(now + ms(100), ());
            let ran = run_until(&mut ring, now + ms(100));
            assert_eq!(ran, model.run_until(SimTime::FAR_FUTURE), "case {case}");
            assert!(ring.sched.is_empty());
        }
        assert!(
            runs > 3_000 && earlier > 1_000,
            "{runs} runs, {earlier} earlier re-arms"
        );
    }
}
