//! The discrete-event scheduler: a priority queue of `(time, event)`
//! pairs with a deterministic FIFO tie-break for events scheduled at the
//! same instant.
//!
//! The queue orders 24-byte keys — `(time, seq, slot)` — and the events
//! themselves wait in a slab whose free slots are chained through one
//! another, so ordering moves a key, never an event, whatever an event
//! weighs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::choice::{ChoiceKind, SharedChoiceSource};
use crate::time::{Duration, SimTime};

/// What the queue orders: when, the scheduling order among equal times,
/// and where in the slab the event waits. `(time, seq)` is unique, so
/// the slot never decides a comparison.
type Key = (SimTime, u64, u32);

const _: () = assert!(std::mem::size_of::<Key>() == 24);

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
/// A driver that re-arms a timer keeps one firing scheduled and moves a
/// deadline of its own; only a re-arm to an *earlier* instant takes the
/// firing back, through [`Scheduler::withdraw`] (`eternal_totem::ring`).
#[derive(Debug)]
pub struct Scheduler<E> {
    /// The pending keys, least on top.
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

    /// The current virtual time: the timestamp of the most recently
    /// popped event (or zero if none has been popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        self.heap.push(Reverse((time, seq, slot)));
    }

    /// Takes back every event pending at `time` that `unwanted` picks,
    /// freeing its slot. It passes over every pending key, so a driver
    /// keeps it off its common path: the ring withdraws a timer's firing
    /// only when the timer is re-armed to an earlier instant.
    pub fn withdraw(&mut self, time: SimTime, mut unwanted: impl FnMut(&E) -> bool) {
        let (slab, free) = (&mut self.slab, &mut self.free);
        self.heap.retain(|&Reverse((at, _, slot))| {
            let place = &mut slab[slot as usize];
            let gone = at == time && matches!(place, Slot::Pending(event) if unwanted(event));
            if gone {
                *place = Slot::Free(std::mem::replace(free, slot));
            }
            !gone
        });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(mut next) = self.heap.pop()?;
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
            tied.push(self.heap.pop().expect("peeked entry present").0);
        }
        let pick = match &self.choices {
            Some(source) if tied.len() >= 2 => {
                let branch = source.borrow_mut().choose(ChoiceKind::Tie, tied.len());
                branch.min(tied.len() - 1)
            }
            _ => 0,
        };
        let chosen = tied.swap_remove(pick);
        self.heap.extend(tied.into_iter().map(Reverse));
        chosen
    }

    /// Returns the timestamp of the next pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((time, ..))| time)
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

    #[test]
    fn withdraw_frees_only_the_picked_events_at_that_instant() {
        let mut s = Scheduler::new();
        let (t, u) = (SimTime::from_nanos(5), SimTime::from_nanos(9));
        for e in [1, 2, 3] {
            s.schedule_at(t, e);
        }
        s.schedule_at(u, 2);
        s.withdraw(t, |&e| e == 2);
        s.schedule_at(u, 4);
        assert_eq!(s.slots(), 4, "the withdrawn event's slot is reused");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(order, [(t, 1), (t, 3), (u, 2), (u, 4)]);
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
}
