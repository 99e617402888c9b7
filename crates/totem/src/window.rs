//! The retransmission store: a bounded window over sequence numbers.
//!
//! A ring's sequence numbers are dense — every seq above the floor is
//! either held or a gap about to be asked for again — so the store is
//! the index `seq - base` into a deque rather than a search of a tree:
//! insertion, lookup and in-order delivery are an index each, and
//! garbage collection at a token visit pops what it collects off the
//! front instead of walking what it keeps.

use crate::types::RegularMsg;
use std::collections::VecDeque;

/// The most sequence numbers the window spans above its floor; a
/// message further ahead than that is refused, as if the medium had
/// lost it, and is asked for again through the token once the floor
/// has caught up. It bounds what a frame can make a node reserve: the
/// deque is extended only to a seq the window accepts, so never past
/// this many slots. Sixteen flow-control windows, sixty times the widest
/// span any test, chaos campaign or benchmark workload reaches (66),
/// and ≈ 400 kB of slots for a node made to fill it (DESIGN.md,
/// `crates/totem`).
pub(crate) const WINDOW_CAP: u64 = 16 * crate::node::WINDOW_SIZE;

/// The messages a node holds on its current ring, by seq.
#[derive(Debug)]
pub(crate) struct Window {
    /// The seq of `slots[0]`; every seq below it has been collected.
    base: u64,
    /// `slots[i]` is the message with seq `base + i`, `None` for a gap.
    /// The last slot is never a gap.
    slots: VecDeque<Option<RegularMsg>>,
}

impl Window {
    /// An empty window over a new ring, whose first seq is 1.
    pub(crate) fn new() -> Self {
        Window {
            base: 1,
            slots: VecDeque::new(),
        }
    }

    /// Every seq at or below the floor has been collected and is
    /// refused from then on.
    pub(crate) fn floor(&self) -> u64 {
        self.base - 1
    }

    fn index(&self, seq: u64) -> Option<usize> {
        seq.checked_sub(self.base)
            .filter(|&i| i < WINDOW_CAP)
            .map(|i| i as usize)
    }

    /// Whether `seq` lies inside the window: above the floor by no more
    /// than [`WINDOW_CAP`].
    pub(crate) fn accepts(&self, seq: u64) -> bool {
        self.index(seq).is_some()
    }

    /// Stores `m` under its seq and returns `true`, or refuses it —
    /// reserving nothing — if the window does not accept its seq.
    pub(crate) fn insert(&mut self, m: RegularMsg) -> bool {
        let Some(i) = self.index(m.seq) else {
            return false;
        };
        if i >= self.slots.len() {
            self.slots.resize_with(i, || None);
            self.slots.push_back(Some(m));
        } else {
            self.slots[i] = Some(m);
        }
        true
    }

    pub(crate) fn get(&self, seq: u64) -> Option<&RegularMsg> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// The held messages in seq order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &RegularMsg)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| Some((base + i as u64, slot.as_ref()?)))
    }

    /// The held seqs, ascending.
    pub(crate) fn keys(&self) -> impl DoubleEndedIterator<Item = u64> + '_ {
        self.iter().map(|(seq, _)| seq)
    }

    /// Collects every message at or below `floor` (never lowering the
    /// floor): the cost is what is collected, not what stays.
    pub(crate) fn discard_through(&mut self, floor: u64) {
        while self.base <= floor {
            if self.slots.pop_front().is_none() {
                // Nothing is held any more: the rest is only the floor.
                self.base = floor + 1;
                return;
            }
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Payload, RingId};
    use eternal_sim::net::NodeId;
    use eternal_sim::rng::SimRng;
    use std::collections::BTreeMap;

    fn msg(seq: u64, mark: u8) -> RegularMsg {
        RegularMsg {
            ring: RingId {
                seq: 1,
                rep: NodeId(0),
            },
            seq,
            sender: NodeId(u32::from(mark)),
            payload: Payload::App(vec![mark].into()),
            trace: vec![],
        }
    }

    /// Seeded streams of inserts (ahead of, inside and below the held
    /// range, duplicates included), collections and lookups, against
    /// the map the window replaced: the same contents by every way the
    /// node reads them, and the same in-order delivery sequence.
    #[test]
    fn matches_a_btreemap_model() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0024);
        let mut collected_in_bulk = 0;
        for case in 0..200 {
            let mut window = Window::new();
            let mut model: BTreeMap<u64, RegularMsg> = BTreeMap::new();
            let mut floor = 0u64;
            // The node's delivery loop, run over each store.
            let (mut aru, mut model_aru) = (0u64, 0u64);
            let (mut delivered, mut model_delivered) = (Vec::new(), Vec::new());
            for op in 0..300u64 {
                let at = format!("case {case} op {op}");
                match rng.gen_range(8) {
                    0 => {
                        // Usually a little behind the deliveries, as a
                        // rotation minimum is; sometimes past all held.
                        let to = match rng.gen_range(8) {
                            0 => floor + rng.gen_range(60),
                            _ => model_aru.saturating_sub(rng.gen_range(4)),
                        };
                        if model.keys().next_back().is_some_and(|&last| last <= to) {
                            collected_in_bulk += 1;
                        }
                        window.discard_through(to);
                        floor = floor.max(to);
                        model.retain(|&s, _| s > floor);
                        // Past a gap nothing can fill any more.
                        (aru, model_aru) = (aru.max(floor), model_aru.max(floor));
                    }
                    _ => {
                        let seq = (model_aru + rng.gen_range(24)).saturating_sub(6);
                        let m = msg(seq, op as u8);
                        let accepted = window.insert(m.clone());
                        assert_eq!(accepted, seq > floor, "{at}");
                        assert_eq!(window.accepts(seq), accepted, "{at}");
                        if accepted {
                            model.insert(seq, m);
                        }
                    }
                }
                while let Some(m) = window.get(aru + 1) {
                    aru += 1;
                    delivered.push((m.seq, m.sender));
                }
                while let Some(m) = model.get(&(model_aru + 1)) {
                    model_aru += 1;
                    model_delivered.push((m.seq, m.sender));
                }
                assert_eq!(delivered, model_delivered, "{at}");
                assert_eq!(window.floor(), floor, "{at}");
                for seq in floor.saturating_sub(3)..floor + 60 {
                    assert_eq!(window.get(seq), model.get(&seq), "{at} seq {seq}");
                    assert_eq!(window.contains(seq), model.contains_key(&seq), "{at}");
                }
                assert!(window.keys().eq(model.keys().copied()), "{at}");
                assert!(window.iter().eq(model.iter().map(|(&s, m)| (s, m))), "{at}");
                assert_eq!(
                    window.keys().next_back(),
                    model.keys().next_back().copied(),
                    "{at}"
                );
                assert!(window.slots.back().is_none_or(Option::is_some), "{at}");
            }
            assert!(aru > 20, "case {case} delivered only {aru}");
        }
        assert!(collected_in_bulk > 50, "{collected_in_bulk}");
    }

    #[test]
    fn a_seq_outside_the_window_is_refused_without_reserving_anything() {
        let mut window = Window::new();
        for seq in [0, WINDOW_CAP + 1, u64::MAX] {
            assert!(!window.insert(msg(seq, 0)), "{seq}");
        }
        assert_eq!(window.slots.capacity(), 0);
        window.discard_through(1000);
        for seq in [0, 1, 1000, 1001 + WINDOW_CAP, u64::MAX] {
            assert!(!window.accepts(seq) && !window.insert(msg(seq, 0)), "{seq}");
            assert_eq!(window.get(seq), None);
        }
        assert_eq!(window.slots.capacity(), 0);
        assert_eq!(window.keys().count(), 0);
        // The edges inside are taken, and the far one costs the window
        // its full span and no more.
        assert!(window.insert(msg(1001, 1)) && window.insert(msg(1000 + WINDOW_CAP, 2)));
        assert_eq!(window.slots.len() as u64, WINDOW_CAP);
        assert_eq!(window.keys().collect::<Vec<_>>(), [1001, 1000 + WINDOW_CAP]);
        // Collecting through a gap leaves the floor where it was asked.
        window.discard_through(2000);
        assert_eq!(window.floor(), 2000);
        assert_eq!(window.keys().collect::<Vec<_>>(), [1000 + WINDOW_CAP]);
        window.discard_through(1000 + WINDOW_CAP);
        assert_eq!((window.floor(), window.slots.len()), (1000 + WINDOW_CAP, 0));
    }
}
