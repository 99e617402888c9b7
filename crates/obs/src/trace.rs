//! A bounded, structured log of point events.
//!
//! Simulations append [`TraceEvent`]s as they run; tests assert over
//! the recorded sequence (e.g. "the `set_state` delivery at the
//! recovering replica precedes every normal invocation delivered to
//! it"), and the benchmark harness mines it for timings.
//!
//! The buffer is a **ring**: beyond [`Trace::capacity`] events the
//! oldest are dropped (counted by [`Trace::dropped_events`]), so long
//! benchmark runs cannot grow memory without bound. A disabled trace
//! ([`Trace::disabled`]) records nothing and allocates nothing; guard
//! expensive `format!` detail construction with [`Trace::is_enabled`].

use crate::event::{EventKind, TraceEvent};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// An append-mostly trace ring buffer.
#[derive(Debug, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    enabled: bool,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates an enabled trace with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an enabled trace bounded to `capacity` events
    /// (drop-oldest beyond it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Trace {
            events: VecDeque::new(),
            enabled: true,
            capacity,
            dropped: 0,
        }
    }

    /// Creates a disabled trace that discards all events (for benches).
    /// Nothing is allocated on any record path.
    pub fn disabled() -> Self {
        Trace {
            events: VecDeque::new(),
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring-buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (oldest-first) since creation or the last
    /// [`Trace::clear`].
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Appends a point event (no-op when disabled).
    pub fn record(
        &mut self,
        at: SimTime,
        source: impl Into<String>,
        kind: EventKind,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.push(TraceEvent {
                at,
                source: source.into(),
                kind,
                detail: detail.into(),
            });
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The event at buffer index `i` (0 = oldest held).
    pub fn event(&self, i: usize) -> Option<&TraceEvent> {
        self.events.get(i)
    }

    /// Events whose typed kind equals `kind`.
    pub fn of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Clears the buffer and the dropped counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::new();
        tr.record(t(1), "a", EventKind::ConfigChange, "");
        tr.record(t(2), "b", EventKind::ReplicaKilled, "x");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.event(1).unwrap().detail, "x");
    }

    #[test]
    fn disabled_trace_discards_and_allocates_nothing() {
        let mut tr = Trace::disabled();
        tr.record(SimTime::ZERO, "a", EventKind::ConfigChange, "");
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_events(), 0);
        assert!(!tr.is_enabled());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5u64 {
            tr.record(t(i), "a", EventKind::ConfigChange, format!("{i}"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped_events(), 2);
        let details: Vec<&str> = tr.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["2", "3", "4"]);
    }

    #[test]
    fn kind_query_selects_by_variant() {
        let mut tr = Trace::new();
        tr.record(t(1), "a", EventKind::ReplicaKilled, "1");
        tr.record(t(2), "a", EventKind::RecoveryComplete, "2");
        tr.record(t(3), "a", EventKind::ReplicaKilled, "3");
        let details: Vec<&str> = tr
            .of(EventKind::ReplicaKilled)
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(details, vec!["1", "3"]);
        assert_eq!(tr.of(EventKind::UpgradeBegin).count(), 0);
    }

    #[test]
    fn clear_empties_and_resets_dropped() {
        let mut tr = Trace::with_capacity(1);
        tr.record(t(1), "a", EventKind::ConfigChange, "");
        tr.record(t(2), "a", EventKind::ConfigChange, "");
        assert_eq!(tr.dropped_events(), 1);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_events(), 0);
    }
}
