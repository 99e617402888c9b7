//! Duplicate invocation/response suppression (paper §2.1).
//!
//! With active replication, every replica of a three-way replicated
//! client multicasts the same logical invocation, so a server's
//! mechanisms receive three copies. Because deterministic client ORBs
//! assign identical GIOP request ids, the triple *(connection,
//! direction, request id)* identifies the logical operation, and the
//! first copy in the total order wins; the rest are suppressed before
//! they ever reach the target ORB.

use crate::gid::{ConnectionName, Direction, OperationId};
use std::collections::{BTreeMap, BTreeSet};

/// Default bound on the per-stream sparse id set; see
/// [`DuplicateSuppressor::with_window`].
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Sliding-window duplicate filter.
///
/// Per `(connection, direction)` the suppressor keeps a *horizon* (all
/// ids at or below it have been seen) plus the sparse set of ids seen
/// above it, advancing the horizon as the window fills. Memory stays
/// bounded no matter how long the system runs: if an id never arrives
/// (dropped at a reformation, or a cancelled request) and the sparse
/// set outgrows the window, the horizon is *forced* past the gap. A
/// straggler copy of a skipped id is then suppressed as a duplicate —
/// the safe direction for exactly-once semantics (suppress, never
/// re-execute).
#[derive(Debug)]
pub struct DuplicateSuppressor {
    streams: BTreeMap<(ConnectionName, Direction), Stream>,
    suppressed: u64,
    window: usize,
    gaps_skipped: u64,
}

impl Default for DuplicateSuppressor {
    fn default() -> Self {
        Self {
            streams: BTreeMap::new(),
            suppressed: 0,
            window: DEFAULT_DEDUP_WINDOW,
            gaps_skipped: 0,
        }
    }
}

#[derive(Debug, Default)]
struct Stream {
    /// Every id `<= horizon` has been seen. Starts "nothing seen".
    horizon: Option<u32>,
    /// Ids above the horizon seen out of order.
    above: BTreeSet<u32>,
}

impl Stream {
    fn seen(&self, id: u32) -> bool {
        match self.horizon {
            Some(h) if id <= h => true,
            _ => self.above.contains(&id),
        }
    }

    /// Records `id`; returns how many missing ids were skipped over to
    /// keep the sparse set within `window`.
    fn record(&mut self, id: u32, window: usize) -> u64 {
        // In order and nothing waiting above: the horizon moves up by
        // one and the sparse set is not touched.
        let next = self.horizon.map_or(Some(0), |h| h.checked_add(1));
        if self.above.is_empty() && next == Some(id) {
            self.horizon = next;
            return 0;
        }
        self.above.insert(id);
        self.advance_contiguous();
        let mut skipped = 0;
        while self.above.len() > window {
            // A gap is blocking compaction and the window is full:
            // jump the horizon to the lowest id actually seen, marking
            // the missing ids in between as seen-by-fiat.
            let lowest = *self.above.iter().next().expect("non-empty");
            self.above.remove(&lowest);
            let below = match self.horizon {
                None => lowest as u64,
                Some(h) => (lowest - h - 1) as u64,
            };
            skipped += below;
            self.horizon = Some(lowest);
            self.advance_contiguous();
        }
        skipped
    }

    fn advance_contiguous(&mut self) {
        loop {
            let next = match self.horizon {
                None => 0,
                Some(h) => match h.checked_add(1) {
                    Some(n) => n,
                    None => {
                        // Horizon saturated at u32::MAX: every possible
                        // id has been seen; nothing sparse remains.
                        self.above.clear();
                        return;
                    }
                },
            };
            if self.above.remove(&next) {
                self.horizon = Some(next);
            } else {
                return;
            }
        }
    }
}

impl DuplicateSuppressor {
    /// Creates an empty suppressor with the default window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a suppressor whose per-stream sparse set holds at most
    /// `window` ids before the horizon is forced past a gap.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "dedup window must hold at least one id");
        Self {
            window,
            ..Self::default()
        }
    }

    /// Returns `true` the first time an operation is admitted, `false`
    /// for every duplicate thereafter.
    pub fn admit(&mut self, op: OperationId) -> bool {
        let stream = self.streams.entry((op.conn, op.direction)).or_default();
        if stream.seen(op.request_id) {
            self.suppressed += 1;
            false
        } else {
            self.gaps_skipped += stream.record(op.request_id, self.window);
            true
        }
    }

    /// Whether the operation has been seen (without recording it).
    pub fn has_seen(&self, op: OperationId) -> bool {
        self.streams
            .get(&(op.conn, op.direction))
            .is_some_and(|s| s.seen(op.request_id))
    }

    /// Number of duplicates suppressed so far.
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// Number of never-seen ids the horizon was forced past to keep
    /// memory bounded.
    pub fn gaps_skipped(&self) -> u64 {
        self.gaps_skipped
    }

    /// Total ids currently resident in sparse (above-horizon) sets —
    /// the suppressor's only unbounded-in-principle storage, bounded in
    /// practice by `window` per stream.
    pub fn resident(&self) -> usize {
        self.streams.values().map(|s| s.above.len()).sum()
    }

    /// The dedup horizon per stream, for the infrastructure-level state
    /// transfer (§4.3): a new replica must not re-deliver operations its
    /// group already processed.
    pub fn horizons(&self) -> Vec<(ConnectionName, Direction, u32)> {
        // In stream order (a connection's requests before its replies):
        // two captures of the same state are the same bytes.
        self.streams
            .iter()
            .filter_map(|(&(conn, dir), s)| s.horizon.map(|h| (conn, dir, h)))
            .collect()
    }

    /// Installs transferred horizons (marking everything at or below
    /// each horizon as seen).
    pub fn restore_horizons(&mut self, horizons: &[(ConnectionName, Direction, u32)]) {
        for &(conn, dir, h) in horizons {
            let stream = self.streams.entry((conn, dir)).or_default();
            let new_h = match stream.horizon {
                Some(old) => old.max(h),
                None => h,
            };
            stream.horizon = Some(new_h);
            stream.above.retain(|&id| id > new_h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::GroupId;

    fn op(id: u32) -> OperationId {
        OperationId {
            conn: ConnectionName {
                client: GroupId(1),
                server: GroupId(2),
            },
            direction: Direction::Request,
            request_id: id,
        }
    }

    #[test]
    fn first_copy_wins() {
        let mut d = DuplicateSuppressor::new();
        assert!(d.admit(op(0)));
        assert!(!d.admit(op(0)));
        assert!(!d.admit(op(0)));
        assert_eq!(d.suppressed_count(), 2);
    }

    #[test]
    fn distinct_operations_all_admitted() {
        let mut d = DuplicateSuppressor::new();
        for i in 0..100 {
            assert!(d.admit(op(i)));
        }
        assert_eq!(d.suppressed_count(), 0);
    }

    #[test]
    fn directions_are_separate_streams() {
        let mut d = DuplicateSuppressor::new();
        let req = op(5);
        let rep = OperationId {
            direction: Direction::Reply,
            ..req
        };
        assert!(d.admit(req));
        assert!(d.admit(rep));
        assert!(!d.admit(req));
        assert!(!d.admit(rep));
    }

    #[test]
    fn horizon_advances_and_bounds_memory() {
        let mut d = DuplicateSuppressor::new();
        for i in 0..10_000u32 {
            d.admit(op(i));
        }
        let horizons = d.horizons();
        assert_eq!(horizons.len(), 1);
        assert_eq!(horizons[0].2, 9_999);
        let stream = d.streams.values().next().unwrap();
        assert!(stream.above.is_empty(), "window fully compacted");
    }

    #[test]
    fn out_of_order_ids_tracked() {
        let mut d = DuplicateSuppressor::new();
        assert!(d.admit(op(2)));
        assert!(!d.admit(op(2)));
        assert!(d.admit(op(0)));
        assert!(d.admit(op(1)));
        // Horizon now 2; all three are dups.
        for i in 0..=2 {
            assert!(d.has_seen(op(i)));
        }
        assert_eq!(d.horizons()[0].2, 2);
    }

    #[test]
    fn restored_horizon_suppresses_old_operations() {
        // The recovered-replica scenario: the new replica's mechanisms
        // must not re-admit operations the group already handled.
        let mut fresh = DuplicateSuppressor::new();
        fresh.restore_horizons(&[(
            ConnectionName {
                client: GroupId(1),
                server: GroupId(2),
            },
            Direction::Request,
            350,
        )]);
        assert!(!fresh.admit(op(350)), "pre-horizon op suppressed");
        assert!(!fresh.admit(op(0)));
        assert!(fresh.admit(op(351)), "new op admitted");
    }

    #[test]
    fn permanent_gap_does_not_grow_memory() {
        // Regression: one permanently missing id used to pin the
        // horizon forever, so `above` grew without bound.
        let mut d = DuplicateSuppressor::with_window(512);
        for i in 0..100_000u32 {
            if i == 5 {
                continue; // the hole: dropped at a reformation
            }
            assert!(d.admit(op(i)));
        }
        assert!(
            d.resident() <= 512,
            "sparse set bounded by window, got {}",
            d.resident()
        );
        assert_eq!(d.gaps_skipped(), 1, "exactly the hole was skipped");
        let h = d.horizons()[0].2;
        assert!(h >= 99_999 - 512, "horizon forced past the gap, at {h}");
        // A straggler copy of the skipped id is suppressed, never
        // re-admitted: the safe direction for exactly-once.
        assert!(d.has_seen(op(5)));
        assert!(!d.admit(op(5)));
    }

    #[test]
    fn many_gaps_still_bounded() {
        let mut d = DuplicateSuppressor::with_window(64);
        // Every third id missing.
        for i in 0..30_000u32 {
            if i % 3 != 0 {
                d.admit(op(i));
            }
        }
        assert!(d.resident() <= 64);
        assert!(d.gaps_skipped() > 0);
    }

    #[test]
    fn horizon_saturates_cleanly_at_u32_max() {
        // Companion to the ORB-side wraparound fix: ids never exceed
        // u32::MAX, and if the horizon reaches it the stream is simply
        // exhausted — every id counts as seen, nothing sparse remains.
        let mut d = DuplicateSuppressor::new();
        d.restore_horizons(&[(op(0).conn, Direction::Request, u32::MAX - 2)]);
        assert!(d.admit(op(u32::MAX - 1)));
        assert!(d.admit(op(u32::MAX)));
        assert_eq!(d.horizons()[0].2, u32::MAX);
        assert_eq!(d.resident(), 0);
        assert!(!d.admit(op(0)), "exhausted stream admits nothing");
        assert!(!d.admit(op(u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        DuplicateSuppressor::with_window(0);
    }

    #[test]
    fn restore_keeps_larger_local_horizon() {
        let mut d = DuplicateSuppressor::new();
        for i in 0..10 {
            d.admit(op(i));
        }
        d.restore_horizons(&[(op(0).conn, Direction::Request, 5)]);
        assert_eq!(d.horizons()[0].2, 9);
    }
}
