//! Pluggable choice-points for systematic schedule exploration.
//!
//! A deterministic simulation resolves every nondeterministic decision
//! the same way on every run — same-instant events pop in FIFO order,
//! frames are delivered — so one run samples exactly one schedule of
//! the many the real system could exhibit. A [`ChoiceSource`] turns
//! those hard-wired decisions into explicit *choice-points*: components
//! that own one (the [`Scheduler`](crate::Scheduler) tie-break, a
//! frame-delivery fate, a fault and its parameters) ask the installed
//! source to pick a branch in `0..arity`. Branch `0` is always the
//! default — the exact decision the unmodified simulator would have
//! made — so a source that answers `0` everywhere reproduces the
//! baseline schedule byte for byte, and an explorer that enumerates
//! non-zero answers walks the schedule space systematically.
//!
//! Sources are shared via `Rc<RefCell<_>>`: the simulation is
//! single-threaded, and the explorer needs to keep a handle on the
//! concrete source (to read back the recorded trace) while the
//! scheduler and cluster consult it.

use std::cell::RefCell;
use std::rc::Rc;

/// What kind of decision a choice-point resolves.
///
/// The kind is advisory — it lets a recording source label its trace
/// and lets bounded searches budget different decision classes
/// separately — but every kind obeys the same contract: branch `0` is
/// the unmodified simulator's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// Permutation of same-instant scheduler entries. Branch `i` pops
    /// the `i`-th entry (in FIFO order) of the tied set.
    Tie,
    /// Fate of a regular multicast frame at a delivery boundary:
    /// `0` deliver, `1` drop, `2` delay.
    Frame,
    /// Fate of a Totem token frame at a token-visit boundary:
    /// `0` deliver, `1` drop, `2` delay.
    Token,
    /// Which fault to inject between load steps: `0` none, `1..` a kind.
    Fault,
    /// A fault's victim, duration or probability: `0` the first or least.
    Param,
}

impl ChoiceKind {
    /// Stable single-byte tag used when fingerprinting a choice trace.
    pub fn tag(self) -> u8 {
        match self {
            ChoiceKind::Tie => b'T',
            ChoiceKind::Frame => b'F',
            ChoiceKind::Token => b'K',
            ChoiceKind::Fault => b'X',
            ChoiceKind::Param => b'P',
        }
    }

    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ChoiceKind::Tie => "tie",
            ChoiceKind::Frame => "frame",
            ChoiceKind::Token => "token",
            ChoiceKind::Fault => "fault",
            ChoiceKind::Param => "param",
        }
    }
}

/// A resolver for simulator choice-points.
///
/// Implementations must be deterministic functions of their own state:
/// given the same sequence of `(kind, arity)` queries they must return
/// the same sequence of branches, or exploration loses its byte-exact
/// replayability.
pub trait ChoiceSource: std::fmt::Debug {
    /// Pick a branch in `0..arity` for a choice-point of `kind`.
    ///
    /// A tie, frame or token is asked about only when `arity >= 2`; a
    /// [`ChoiceKind::Param`] at any arity. Returning a value `>= arity`
    /// is treated as the last branch by callers.
    fn choose(&mut self, kind: ChoiceKind, arity: usize) -> usize;
}

/// Shared handle to a [`ChoiceSource`], cloneable across the scheduler
/// and any other component that owns choice-points.
pub type SharedChoiceSource = Rc<RefCell<dyn ChoiceSource>>;

/// The trivial source: always picks branch `0`, i.e. the unmodified
/// simulator behaviour. Installing `FifoChoice` must be observationally
/// identical to installing no source at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoChoice;

impl ChoiceSource for FifoChoice {
    fn choose(&mut self, _kind: ChoiceKind, _arity: usize) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_choice_always_picks_default() {
        let mut c = FifoChoice;
        for arity in 2..10 {
            assert_eq!(c.choose(ChoiceKind::Tie, arity), 0);
            assert_eq!(c.choose(ChoiceKind::Fault, arity), 0);
        }
    }

    #[test]
    fn kind_tags_are_distinct() {
        let kinds = [
            ChoiceKind::Tie,
            ChoiceKind::Frame,
            ChoiceKind::Token,
            ChoiceKind::Fault,
            ChoiceKind::Param,
        ];
        let mut tags: Vec<u8> = kinds.iter().map(|k| k.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len());
        for k in kinds {
            assert!(!k.name().is_empty());
        }
    }
}
