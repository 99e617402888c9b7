//! Holding queues for messages that arrive while a replica cannot take
//! them (paper §3.3 and §5.1).
//!
//! "Eternal does not discard these normal invocations and responses,
//! but instead, enqueues them (in the order of their receipt) at the
//! Recovery Mechanisms hosting the recovering replica. Once the replica
//! is recovered, the Recovery Mechanisms dispatch the enqueued
//! invocations and responses to the now-operational replica."
//!
//! The same queue implements §5.1's synchronization trick: the logged
//! `get_state()` invocation occupies the queue head as the *state
//! synchronization point*, and the matching `set_state()` later
//! **overwrites** that head entry, so state assignment happens at
//! exactly the total-order position where the state was captured.

use crate::gid::TransferId;
use std::collections::VecDeque;

/// An entry held for later delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeldEntry<M> {
    /// A normal invocation/response, in receipt order.
    Normal(M),
    /// The state-synchronization point: where `get_state()` appeared in
    /// the total order (§5.1 step i).
    SyncPoint(TransferId),
    /// The synchronization point after its `set_state()` overwrote it
    /// (§5.1 step v). The state itself is applied when it arrives, not
    /// parked here: the entry only keeps the assignment's position.
    Assignment {
        /// The transfer this assignment belongs to.
        transfer: TransferId,
    },
}

/// The holding queue of one recovering (or busy) replica.
#[derive(Debug)]
pub struct HoldingQueue<M> {
    entries: VecDeque<HeldEntry<M>>,
    max_held: usize,
}

impl<M> Default for HoldingQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> HoldingQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HoldingQueue {
            entries: VecDeque::new(),
            max_held: 0,
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of the queue length.
    pub fn max_held(&self) -> usize {
        self.max_held
    }

    /// Enqueues a normal message in receipt order.
    pub fn hold(&mut self, msg: M) {
        self.entries.push_back(HeldEntry::Normal(msg));
        self.max_held = self.max_held.max(self.entries.len());
    }

    /// Records the `get_state()` synchronization point (§5.1 step i).
    pub fn mark_sync_point(&mut self, transfer: TransferId) {
        self.entries.push_back(HeldEntry::SyncPoint(transfer));
        self.max_held = self.max_held.max(self.entries.len());
    }

    /// §5.1 step v: the `set_state()` invocation overwrites the entry
    /// previously occupied by its `get_state()`. Returns `false` if no
    /// matching synchronization point exists (stale/duplicate transfer).
    pub fn overwrite_sync_point(&mut self, transfer: TransferId) -> bool {
        for entry in self.entries.iter_mut() {
            if matches!(entry, HeldEntry::SyncPoint(t) if *t == transfer) {
                *entry = HeldEntry::Assignment { transfer };
                return true;
            }
        }
        false
    }

    /// Pops the head entry.
    pub fn pop(&mut self) -> Option<HeldEntry<M>> {
        self.entries.pop_front()
    }

    /// Drops everything (replica withdrawn).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_in_receipt_order() {
        let mut q: HoldingQueue<u32> = HoldingQueue::new();
        q.hold(1);
        q.hold(2);
        q.hold(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(HeldEntry::Normal(1)));
        assert_eq!(q.pop(), Some(HeldEntry::Normal(2)));
        assert_eq!(q.pop(), Some(HeldEntry::Normal(3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sync_point_is_overwritten_in_place() {
        // The §5.1 scenario: get_state at the head, normal invocations X
        // and Y behind it, then set_state overwrites the head.
        let mut q: HoldingQueue<&'static str> = HoldingQueue::new();
        q.mark_sync_point(TransferId(1));
        q.hold("X");
        q.hold("Y");
        assert!(q.overwrite_sync_point(TransferId(1)));
        assert_eq!(
            q.pop(),
            Some(HeldEntry::Assignment {
                transfer: TransferId(1)
            }),
            "the head is the assignment"
        );
        assert_eq!(q.pop(), Some(HeldEntry::Normal("X")));
        assert_eq!(q.pop(), Some(HeldEntry::Normal("Y")));
    }

    #[test]
    fn overwrite_without_sync_point_fails() {
        let mut q: HoldingQueue<u32> = HoldingQueue::new();
        q.hold(1);
        assert!(!q.overwrite_sync_point(TransferId(9)));
    }

    #[test]
    fn overwrite_matches_transfer_id() {
        let mut q: HoldingQueue<u32> = HoldingQueue::new();
        q.mark_sync_point(TransferId(1));
        q.mark_sync_point(TransferId(2));
        assert!(q.overwrite_sync_point(TransferId(2)));
        assert_eq!(q.pop(), Some(HeldEntry::SyncPoint(TransferId(1))));
        assert_eq!(
            q.pop(),
            Some(HeldEntry::Assignment {
                transfer: TransferId(2)
            })
        );
    }

    #[test]
    fn high_water_mark_tracks() {
        let mut q: HoldingQueue<u32> = HoldingQueue::new();
        q.hold(1);
        q.hold(2);
        q.pop();
        q.hold(3);
        assert_eq!(q.max_held(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut q: HoldingQueue<u32> = HoldingQueue::new();
        q.hold(1);
        q.mark_sync_point(TransferId(1));
        q.clear();
        assert!(q.is_empty());
    }
}
