//! The discrete-event scheduler: a priority queue of `(time, event)`
//! pairs with a deterministic FIFO tie-break for events scheduled at the
//! same instant.
//!
//! The queue orders 24-byte keys — `(time, seq, slot)` — and the events
//! themselves wait in a slab whose free slots are chained through one
//! another, so ordering moves a key, never an event, whatever an event
//! weighs.
//!
//! Nearly every key arrives already in order — a timer is `now +
//! constant`, a frame arrival follows the shared medium's monotone
//! clock — so the pending keys are kept as a few sorted runs plus a
//! heap: a key that extends a run is appended to it, only a key that
//! extends none is sifted, and a pop takes the least of the runs'
//! fronts and the heap's top. The order popped is the order of the
//! keys, whichever container each waited in.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::choice::{ChoiceKind, SharedChoiceSource};
use crate::time::{Duration, SimTime};

/// What the queue orders: when, the scheduling order among equal times,
/// and where in the slab the event waits. `(time, seq)` is unique, so
/// the slot never decides a comparison.
type Key = (SimTime, u64, u32);

const _: () = assert!(std::mem::size_of::<Key>() == 24);

/// How many sorted runs take the keys that arrive in order. A cluster
/// schedules at four recurring distances — the token-loss and
/// token-retransmit timeouts, frame arrivals, and the mechanisms' sends
/// one servant execution time from now — and each settles into a run of
/// its own: four runs take 93 % of an `active_small` cluster's keys
/// where three take 54 %, and a fifth would have only the heap's last
/// 7 % to win (DESIGN.md, "The schedule's weight").
const RUNS: usize = 4;

/// One place in the slab.
#[derive(Debug)]
enum Slot<E> {
    /// A pending event, named by exactly one pending key.
    Pending(E),
    /// Free, and which slot was freed before it ([`NO_SLOT`] for none):
    /// the free list, last freed first reused.
    Free(u32),
}

/// The end of the free list.
const NO_SLOT: u32 = u32::MAX;

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which keeps whole-system simulations
/// reproducible run-to-run.
///
/// There is no cancellation: a driver that re-arms or cancels a timer
/// bumps a generation counter of its own and ignores the stale firing
/// when it pops (`eternal_totem::ring`).
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Each ascending: [`Scheduler::push_key`] appends a key to the
    /// first run it does not precede the last key of.
    runs: [VecDeque<Key>; RUNS],
    /// The keys that extended no run.
    heap: BinaryHeap<Reverse<Key>>,
    /// The pending events, each at the slot its key names. It grows
    /// only when no slot is free, so its length is the most events that
    /// were ever pending at once.
    slab: Vec<Slot<E>>,
    /// The slot freed last, head of the free list.
    free: u32,
    now: SimTime,
    next_seq: u64,
    choices: Option<SharedChoiceSource>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            runs: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: NO_SLOT,
            now: SimTime::ZERO,
            next_seq: 0,
            choices: None,
        }
    }

    /// Installs a [`ChoiceSource`](crate::choice::ChoiceSource) that
    /// resolves same-instant tie-breaks. With a source installed,
    /// whenever two or more pending events share the minimal timestamp
    /// the source picks which one pops next ([`ChoiceKind::Tie`], branch
    /// `i` = the `i`-th tied entry in FIFO order). Branch `0` reproduces
    /// the default FIFO schedule exactly.
    pub fn set_choice_source(&mut self, source: SharedChoiceSource) {
        self.choices = Some(source);
    }

    /// Removes the installed choice source, restoring pure FIFO
    /// tie-breaking.
    pub fn clear_choice_source(&mut self) {
        self.choices = None;
    }

    /// Returns `true` if a choice source is installed.
    pub fn has_choice_source(&self) -> bool {
        self.choices.is_some()
    }

    /// The current virtual time: the timestamp of the most recently
    /// popped event (or zero if none has been popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.runs.iter().all(VecDeque::is_empty)
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current time (events cannot
    /// be scheduled in the past).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event in the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free {
            NO_SLOT => {
                let slot = self.slab.len();
                assert!(slot < NO_SLOT as usize, "too many events pending");
                self.slab.push(Slot::Pending(event));
                slot as u32
            }
            slot => {
                match std::mem::replace(&mut self.slab[slot as usize], Slot::Pending(event)) {
                    Slot::Free(next) => self.free = next,
                    Slot::Pending(_) => unreachable!("the free list names a pending slot"),
                }
                slot
            }
        };
        self.push_key((time, seq, slot));
    }

    /// Adds a pending key: to the back of the first run it keeps
    /// ascending, to the heap if there is none.
    fn push_key(&mut self, key: Key) {
        match self
            .runs
            .iter_mut()
            .find(|run| run.back().is_none_or(|last| *last <= key))
        {
            Some(run) => run.push_back(key),
            None => self.heap.push(Reverse(key)),
        }
    }

    /// The least pending key and the container it waits in (a run's
    /// index, [`RUNS`] for the heap).
    fn least_key(&self) -> Option<(Key, usize)> {
        let mut least = self.heap.peek().map(|&Reverse(key)| (key, RUNS));
        for (at, run) in self.runs.iter().enumerate() {
            if let Some(&key) = run.front() {
                if least.is_none_or(|(least, _)| key < least) {
                    least = Some((key, at));
                }
            }
        }
        least
    }

    /// Removes and returns the least pending key.
    fn pop_key(&mut self) -> Option<Key> {
        let (key, at) = self.least_key()?;
        match self.runs.get_mut(at) {
            Some(run) => run.pop_front(),
            None => self.heap.pop().map(|Reverse(key)| key),
        };
        Some(key)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut next = self.pop_key()?;
        if self.choices.is_some() {
            next = self.pick_among_tied(next);
        }
        let (time, _, slot) = next;
        let freed = Slot::Free(std::mem::replace(&mut self.free, slot));
        let Slot::Pending(event) = std::mem::replace(&mut self.slab[slot as usize], freed) else {
            unreachable!("a key names a free slot")
        };
        self.now = time;
        Some((time, event))
    }

    /// `pop` with an installed choice source: gather every key tied
    /// with `first` at the minimal timestamp, let the source pick one,
    /// and push the rest back (they keep their original `seq`, so FIFO
    /// order among them is preserved for the next tie).
    fn pick_among_tied(&mut self, first: Key) -> Key {
        // Keys pop in (time, seq) order, so `tied` is FIFO-ordered.
        let mut tied = vec![first];
        while self.peek_time() == Some(first.0) {
            tied.push(self.pop_key().expect("peeked entry present"));
        }
        let pick = match &self.choices {
            Some(source) if tied.len() >= 2 => {
                let branch = source.borrow_mut().choose(ChoiceKind::Tie, tied.len());
                branch.min(tied.len() - 1)
            }
            _ => 0,
        };
        let chosen = tied.swap_remove(pick);
        for entry in tied {
            self.push_key(entry);
        }
        chosen
    }

    /// Returns the timestamp of the next pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.least_key().map(|((time, ..), _)| time)
    }

    /// Slots the event slab has grown to: the most events that were
    /// ever pending at once, since a freed slot is reused before a new
    /// one is made.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(42), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), 1u32);
        s.pop();
        s.schedule_after(Duration::from_nanos(10), 2u32);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_nanos(110));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn empty_scheduler_behaviour() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert!(s.pop().is_none());
    }

    /// The stream a cluster gives the scheduler (the last cases of
    /// `sim_props.rs::scheduler_matches_a_sorted_vec_model`): a thousand
    /// pending re-arms at two fixed delays, arrivals that follow the
    /// medium between them, now and then a key ahead of the arrivals or
    /// a slow periodic timer's far behind everything. (Far keys at
    /// *random* distances would each close a run to all nearer keys
    /// until it popped; the heap takes those, as it took every key
    /// before there were runs.)
    #[test]
    fn nine_keys_in_ten_of_a_clusters_stream_extend_a_run() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x5EED_0024);
        let mut s = Scheduler::new();
        let (mut keys, mut sifted) = (0, 0);
        // When the shared medium is next free: arrivals follow it.
        let mut medium = 0;
        for _ in 0..20_000 {
            let pending = s.runs.iter().map(VecDeque::len).sum::<usize>() + s.heap.len();
            if rng.gen_range(4) < 1 + (pending >= 1000) as u64 {
                s.pop();
                continue;
            }
            let delay = match rng.gen_range(64) {
                0..=23 => 30_000,
                24..=31 => 5_000,
                32..=61 => {
                    medium = s.now().as_nanos().max(medium) + rng.gen_range(3) * 10;
                    medium + 100 - s.now().as_nanos()
                }
                62 => rng.gen_range(10) * 10,
                _ => 1_000_000,
            };
            let in_heap = s.heap.len();
            s.schedule_after(Duration::from_nanos(delay), ());
            keys += 1;
            sifted += s.heap.len() - in_heap;
        }
        assert!(keys > 10_000 && sifted * 10 <= keys, "{sifted} of {keys}");
        for run in &s.runs {
            assert!(run.iter().is_sorted());
        }
    }

    use crate::choice::{ChoiceKind, ChoiceSource, FifoChoice};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test source: replays a fixed list of branches, then defaults.
    #[derive(Debug)]
    struct Scripted {
        branches: Vec<usize>,
        at: usize,
        asked: Vec<usize>,
    }

    impl Scripted {
        fn new(branches: Vec<usize>) -> Rc<RefCell<Self>> {
            Rc::new(RefCell::new(Scripted {
                branches,
                at: 0,
                asked: Vec::new(),
            }))
        }
    }

    impl ChoiceSource for Scripted {
        fn choose(&mut self, _kind: ChoiceKind, arity: usize) -> usize {
            self.asked.push(arity);
            let b = self.branches.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            b
        }
    }

    #[test]
    fn fifo_choice_source_matches_no_source() {
        let build = |with_source: bool| {
            let mut s = Scheduler::new();
            if with_source {
                s.set_choice_source(Rc::new(RefCell::new(FifoChoice)));
            }
            let t = SimTime::from_nanos(5);
            for i in 0..20 {
                s.schedule_at(t, i);
            }
            s.schedule_at(SimTime::from_nanos(9), 99);
            std::iter::from_fn(|| s.pop()).collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn tie_break_choice_permutes_same_instant_entries() {
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![2, 1]);
        s.set_choice_source(src.clone());
        let t = SimTime::from_nanos(5);
        for i in 0..3 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        // First pick: branch 2 of [0,1,2] -> 2. Second: branch 1 of
        // [0,1] -> 1. Last: arity 1, no query, pops 0.
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(src.borrow().asked, vec![3, 2]);
    }

    #[test]
    fn choice_source_not_consulted_for_singletons() {
        let mut s = Scheduler::new();
        let src = Scripted::new(vec![]);
        s.set_choice_source(src.clone());
        for i in 0..5u64 {
            s.schedule_at(SimTime::from_nanos(10 * (i + 1)), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(src.borrow().asked.is_empty());
    }

    #[test]
    fn out_of_range_branch_clamps_to_last() {
        let mut s = Scheduler::new();
        s.set_choice_source(Scripted::new(vec![usize::MAX]));
        let t = SimTime::from_nanos(5);
        s.schedule_at(t, "a");
        s.schedule_at(t, "b");
        let (_, first) = s.pop().unwrap();
        assert_eq!(first, "b");
    }

    #[test]
    fn clear_choice_source_restores_fifo() {
        let mut s = Scheduler::new();
        s.set_choice_source(Scripted::new(vec![1, 1, 1]));
        assert!(s.has_choice_source());
        s.clear_choice_source();
        assert!(!s.has_choice_source());
        let t = SimTime::from_nanos(5);
        for i in 0..4 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
