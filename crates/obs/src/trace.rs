//! A bounded, structured log of point events: each ORB's log.
//!
//! An ORB appends [`TraceEvent`]s as it runs; tests assert over the
//! recorded sequence (e.g. "the `set_state` dispatch at the recovering
//! replica precedes every normal invocation dispatched to it").
//!
//! The buffer is a **ring**: beyond its capacity the
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

    /// Events evicted (oldest-first) since creation.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn records_in_order() {
        let mut tr = Trace::with_capacity(DEFAULT_CAPACITY);
        tr.record(t(1), "a", EventKind::OrbRequestIssued, "");
        tr.record(t(2), "b", EventKind::OrbRequestDispatched, "x");
        assert_eq!(tr.len(), 2);
        let details: Vec<&str> = tr.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["", "x"]);
    }

    #[test]
    fn disabled_trace_discards_and_allocates_nothing() {
        let mut tr = Trace::disabled();
        tr.record(SimTime::ZERO, "a", EventKind::OrbRequestIssued, "");
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_events(), 0);
        assert!(!tr.is_enabled());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5u64 {
            tr.record(t(i), "a", EventKind::OrbRequestIssued, format!("{i}"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped_events(), 2);
        let details: Vec<&str> = tr.events().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["2", "3", "4"]);
    }
}
