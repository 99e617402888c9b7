//! Checkpoint and message logging (paper §3.3).
//!
//! For passive replication, Eternal periodically captures the primary's
//! state as a checkpoint and logs the ordered messages that follow it;
//! each new checkpoint *overwrites* the previous one and garbage-
//! collects the logged messages before it. Recovering a primary means
//! applying the checkpoint and then replaying the logged messages, in
//! order.

use crate::message::OrderedInput;
use eternal_sim::SimTime;

/// One logged, totally ordered input of the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedMessage {
    /// Position in the group's delivery order (monotonically increasing
    /// per log).
    pub order: u64,
    /// The input, exactly as a replay needs it.
    pub input: OrderedInput,
}

/// The checkpoint + suffix log kept for one replicated object.
#[derive(Debug, Default)]
pub struct CheckpointLog {
    /// The most recent checkpoint (application-level state bytes) and
    /// the time it was taken.
    checkpoint: Option<(Vec<u8>, SimTime)>,
    /// Messages delivered after the checkpoint, in delivery order.
    messages: Vec<LoggedMessage>,
    /// Running byte total of `messages` (the suffix-bound trigger
    /// consults it on every logged message; recomputing would be O(n)
    /// per append).
    suffix_byte_total: usize,
    next_order: u64,
    checkpoints_taken: u64,
    messages_logged: u64,
    messages_discarded: u64,
}

impl CheckpointLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a new checkpoint, overwriting the previous one and
    /// discarding the messages logged before it (§3.3: "each checkpoint
    /// ... overwrites the previous checkpoint").
    pub fn record_checkpoint(&mut self, state: Vec<u8>, at: SimTime) {
        let mark = self.next_order;
        self.record_checkpoint_at_mark(state, at, mark);
    }

    /// The current log position. A checkpoint whose state was *captured*
    /// now must garbage-collect only messages logged before this mark:
    /// messages that arrive while the captured state travels to the log
    /// are **after** the checkpoint and must survive (their effects are
    /// not in the captured state).
    pub fn mark(&self) -> u64 {
        self.next_order
    }

    /// Records a checkpoint captured at log position `mark` (see
    /// [`CheckpointLog::mark`]): messages logged at or after the mark are
    /// retained as the new suffix.
    ///
    /// A mark beyond the current position discards nothing: such a mark
    /// was taken against an earlier incarnation of this log (before a
    /// [`CheckpointLog::clear`]), so every message in the current
    /// incarnation was logged *after* the capture point and honouring
    /// the stale mark literally would garbage-collect messages whose
    /// effects are not in the checkpoint.
    pub fn record_checkpoint_at_mark(&mut self, state: Vec<u8>, at: SimTime, mark: u64) {
        let mark = if mark > self.next_order { 0 } else { mark };
        self.checkpoint = Some((state, at));
        let before = self.messages.len();
        self.messages.retain(|m| m.order >= mark);
        self.messages_discarded += (before - self.messages.len()) as u64;
        self.suffix_byte_total = self.messages.iter().map(|m| m.input.payload_len()).sum();
        self.checkpoints_taken += 1;
    }

    /// Appends an ordered input after the current checkpoint.
    pub fn log_message(&mut self, input: OrderedInput) {
        let order = self.next_order;
        self.next_order += 1;
        self.messages_logged += 1;
        self.suffix_byte_total += input.payload_len();
        self.messages.push(LoggedMessage { order, input });
    }

    /// The current checkpoint, if any.
    pub fn checkpoint(&self) -> Option<(&[u8], SimTime)> {
        self.checkpoint.as_ref().map(|(b, t)| (b.as_slice(), *t))
    }

    /// Messages logged since the current checkpoint, in order.
    pub fn suffix(&self) -> &[LoggedMessage] {
        &self.messages
    }

    /// Number of messages currently in the suffix.
    pub fn suffix_len(&self) -> usize {
        self.messages.len()
    }

    /// Bytes held by the suffix (for resource accounting and the
    /// suffix-bound checkpoint trigger, which checks it per message).
    pub fn suffix_bytes(&self) -> usize {
        self.suffix_byte_total
    }

    /// Total checkpoints recorded over the log's lifetime.
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }

    /// Total messages ever logged.
    pub fn messages_logged(&self) -> u64 {
        self.messages_logged
    }

    /// Total messages garbage-collected by checkpoints.
    pub fn messages_discarded(&self) -> u64 {
        self.messages_discarded
    }

    /// Clears everything (when a group is withdrawn from a processor).
    ///
    /// The order counter and the lifetime counters reset too: a
    /// re-hosted group starts a fresh log incarnation. Leaving
    /// `next_order` running would let a `mark()` taken before the clear
    /// garbage-collect the wrong suffix afterwards, and carrying the old
    /// counters forward would report phantom `messages_discarded` (and
    /// friends) against the new hosting.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::{ConnectionName, Direction, GroupId};

    /// A logged request whose one payload byte tells it apart.
    fn msg(b: u8) -> OrderedInput {
        OrderedInput::Iiop {
            conn: ConnectionName {
                client: GroupId(1),
                server: GroupId(0),
            },
            direction: Direction::Request,
            op_seq: u32::from(b),
            bytes: vec![b],
        }
    }

    fn payload(m: &LoggedMessage) -> u8 {
        match &m.input {
            OrderedInput::Iiop { bytes, .. } => bytes[0],
            OrderedInput::LoadTick => panic!("only requests are logged here"),
        }
    }

    #[test]
    fn checkpoint_overwrites_and_gcs() {
        let mut log = CheckpointLog::new();
        log.record_checkpoint(vec![1], SimTime::from_nanos(10));
        log.log_message(msg(10));
        log.log_message(msg(11));
        assert_eq!(log.suffix_len(), 2);
        log.record_checkpoint(vec![2], SimTime::from_nanos(20));
        assert_eq!(log.suffix_len(), 0, "suffix GC'd by new checkpoint");
        let (state, at) = log.checkpoint().unwrap();
        assert_eq!(state, &[2]);
        assert_eq!(at, SimTime::from_nanos(20));
        assert_eq!(log.checkpoints_taken(), 2);
        assert_eq!(log.messages_discarded(), 2);
    }

    #[test]
    fn checkpoint_at_mark_keeps_in_flight_messages() {
        // The §3.3 discipline: messages that arrive between the state
        // capture (get_state point) and the checkpoint's arrival at the
        // log are AFTER the checkpoint; GC must spare them.
        let mut log = CheckpointLog::new();
        log.log_message(msg(1)); // covered by the capture
        let mark = log.mark();
        log.log_message(msg(2)); // in flight during the capture
        log.log_message(msg(3));
        log.record_checkpoint_at_mark(vec![9], SimTime::from_nanos(5), mark);
        let kept: Vec<u8> = log.suffix().iter().map(payload).collect();
        assert_eq!(kept, vec![2, 3], "post-capture messages survive");
        assert_eq!(log.messages_discarded(), 1);
    }

    #[test]
    fn suffix_keeps_order() {
        let mut log = CheckpointLog::new();
        log.record_checkpoint(vec![], SimTime::ZERO);
        for i in 0..5u8 {
            log.log_message(msg(i));
        }
        let orders: Vec<u64> = log.suffix().iter().map(|m| m.order).collect();
        assert_eq!(orders, vec![0, 1, 2, 3, 4]);
        let payloads: Vec<u8> = log.suffix().iter().map(payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        assert_eq!(log.suffix_bytes(), 5);
    }

    #[test]
    fn orders_stay_monotonic_across_checkpoints() {
        let mut log = CheckpointLog::new();
        log.log_message(msg(1));
        log.record_checkpoint(vec![], SimTime::ZERO);
        log.log_message(msg(2));
        assert_eq!(log.suffix()[0].order, 1);
    }

    #[test]
    fn empty_log_reports_nothing() {
        let log = CheckpointLog::new();
        assert!(log.checkpoint().is_none());
        assert!(log.suffix().is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut log = CheckpointLog::new();
        log.record_checkpoint(vec![1], SimTime::ZERO);
        log.log_message(msg(2));
        log.clear();
        assert!(log.checkpoint().is_none());
        assert_eq!(log.suffix_len(), 0);
    }

    #[test]
    fn clear_resets_order_and_lifetime_counters() {
        // Regression: `clear()` left `next_order` and the lifetime
        // counters running, so a re-hosted group inherited the previous
        // incarnation's accounting (phantom `messages_discarded`) and a
        // pre-clear mark could GC the wrong suffix.
        let mut log = CheckpointLog::new();
        for i in 0..5u8 {
            log.log_message(msg(i));
        }
        log.record_checkpoint(vec![9], SimTime::from_nanos(1));
        assert_eq!(log.messages_discarded(), 5);
        log.clear();
        assert_eq!(log.mark(), 0, "order counter restarts");
        assert_eq!(log.checkpoints_taken(), 0);
        assert_eq!(log.messages_logged(), 0);
        assert_eq!(log.messages_discarded(), 0, "no phantom discards");
        // The fresh incarnation numbers from zero again.
        log.log_message(msg(7));
        assert_eq!(log.suffix()[0].order, 0);
    }

    #[test]
    fn stale_mark_from_before_clear_is_clamped() {
        // Regression: a mark taken before a withdraw/re-host cycle is
        // numerically ahead of the cleared log's order counter; applying
        // it verbatim would discard post-capture messages whose effects
        // the checkpoint does not contain.
        let mut log = CheckpointLog::new();
        for i in 0..10u8 {
            log.log_message(msg(i));
        }
        let stale_mark = log.mark(); // 10, against the old incarnation
        log.clear();
        log.log_message(msg(100)); // logged *after* the capture point
        log.log_message(msg(101));
        log.record_checkpoint_at_mark(vec![1], SimTime::from_nanos(2), stale_mark);
        let kept: Vec<u8> = log.suffix().iter().map(payload).collect();
        assert_eq!(kept, vec![100, 101], "post-capture messages survive");
        assert_eq!(log.messages_discarded(), 0);
    }

    #[test]
    fn mark_zero_on_fresh_log_discards_nothing() {
        let mut log = CheckpointLog::new();
        log.record_checkpoint_at_mark(vec![1], SimTime::ZERO, 0);
        assert_eq!(log.messages_discarded(), 0);
        assert_eq!(log.checkpoints_taken(), 1);
        // And after a clear, mark 0 against the new incarnation keeps
        // the messages logged since.
        log.clear();
        log.log_message(msg(5));
        log.record_checkpoint_at_mark(vec![2], SimTime::from_nanos(3), 0);
        assert_eq!(log.suffix_len(), 1, "post-mark message retained");
        assert_eq!(log.messages_discarded(), 0);
    }

    #[test]
    fn discard_accounting_across_clear_rehost_cycles() {
        let mut log = CheckpointLog::new();
        for cycle in 0..3 {
            for i in 0..4u8 {
                log.log_message(msg(i));
            }
            let mark = log.mark();
            log.log_message(msg(99)); // in flight during capture
            log.record_checkpoint_at_mark(vec![cycle], SimTime::from_nanos(u64::from(cycle)), mark);
            assert_eq!(
                log.messages_discarded(),
                4,
                "each incarnation counts only its own discards"
            );
            log.clear();
        }
    }
}
