//! Counters and timing records collected by the cluster, mined by the
//! benchmark harness for the tables in `EXPERIMENTS.md`.

use crate::gid::GroupId;
use eternal_obs::RecoveryTimeline;
use eternal_sim::{Duration, SimTime};

/// One primary promotion of a passive group (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// The promoted group.
    pub group: GroupId,
    /// When the new primary is serving: after its log replay and, for a
    /// cold backup, its launch.
    pub ready_at: SimTime,
    /// Logged messages the new primary replayed.
    pub replayed: usize,
}

/// System-wide counters.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Requests actually dispatched into server replicas.
    pub requests_dispatched: u64,
    /// Replies actually delivered to client replicas' applications.
    pub replies_delivered: u64,
    /// Duplicate operations suppressed by the replication mechanisms.
    pub duplicates_suppressed: u64,
    /// Replies discarded by client ORBs on request-id mismatch (§4.2.1
    /// failures; nonzero only when recovery is crippled, as in the A1
    /// ablation).
    pub replies_discarded_by_orb: u64,
    /// Requests discarded by server ORBs missing handshake state
    /// (§4.2.2 failures; nonzero only in the A2 ablation).
    pub requests_discarded_unnegotiated: u64,
    /// Checkpoints recorded in logs.
    pub checkpoints_logged: u64,
    /// Messages appended to checkpoint logs.
    pub messages_logged: u64,
    /// State transfers completed (recoveries): the length of
    /// `recoveries`, filled in when the metrics are read.
    pub recoveries_completed: u64,
    /// Primary promotions (passive styles): the length of `promoted`,
    /// filled in when the metrics are read.
    pub promotions: u64,
    /// Completed round-trip invocation latencies (client-observed).
    pub round_trips: Vec<Duration>,
    /// Completed recovery episodes, in completion order.
    pub recoveries: Vec<RecoveryTimeline>,
    /// Completed promotions, in order.
    pub promoted: Vec<Promotion>,
}

impl Metrics {
    /// Mean of the recorded round-trip latencies.
    pub fn mean_round_trip(&self) -> Option<Duration> {
        if self.round_trips.is_empty() {
            return None;
        }
        let sum: u64 = self.round_trips.iter().map(|d| d.as_nanos()).sum();
        Some(Duration::from_nanos(sum / self.round_trips.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eternal_sim::SimTime;

    #[test]
    fn recovery_time_is_interval() {
        let r = RecoveryTimeline {
            label: "G0@P1".into(),
            launched_at: SimTime::from_nanos(100),
            operational_at: SimTime::from_nanos(350),
            app_state_bytes: 10,
            blocking_window: Duration::from_nanos(40),
            phases: Vec::new(),
        };
        assert_eq!(r.recovery_time(), Duration::from_nanos(250));
        assert!(r.blocking_window < r.recovery_time());
    }

    #[test]
    fn mean_and_percentiles() {
        let mut m = Metrics::default();
        assert!(m.mean_round_trip().is_none());
        for ms in [1u64, 2, 3, 4, 5] {
            m.round_trips.push(Duration::from_millis(ms));
        }
        assert_eq!(m.mean_round_trip(), Some(Duration::from_millis(3)));
    }

    #[test]
    fn snapshot_sorts_once_and_answers_all_percentiles() {
        let mut m = Metrics::default();
        // Deliberately unsorted input: the mean does not depend on
        // insertion order, and reading it leaves the source untouched.
        for ms in [9u64, 1, 7, 3, 5, 2, 8, 4, 6, 10] {
            m.round_trips.push(Duration::from_millis(ms));
        }
        assert_eq!(m.mean_round_trip(), Some(Duration::from_micros(5_500)));
        assert_eq!(m.round_trips[0], Duration::from_millis(9));
    }

    #[test]
    fn snapshot_of_empty_metrics() {
        let m = Metrics::default();
        assert!(m.mean_round_trip().is_none() && m.recoveries.is_empty());
    }
}
