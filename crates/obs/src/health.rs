//! Totally-ordered cluster health monitoring: snapshots, epochs, and an
//! online anomaly auditor.
//!
//! Every replica periodically publishes a compact [`HealthSnapshot`]
//! **through the total order** (the transport lives in the `eternal`
//! crate; this module only defines the data and the analysis). Because
//! the snapshots are ordered like any other message, every operational
//! processor observes the *same* sequence of snapshots — the cluster
//! deterministically agrees on a stream of **health epochs** the same
//! way it agrees on application state. Epoch *k* is the *k*-th health
//! snapshot in the total order, whoever published it.
//!
//! On top of the agreed epoch stream, the [`HealthAuditor`] runs a set
//! of severity-graded [`Detector`]s and fires structured [`Diagnosis`]
//! records on rising edges (with per-subject hysteresis, so a
//! persisting condition does not re-fire every epoch). The default
//! [`AuditorConfig`] thresholds are chosen so that a fault-free run of
//! the reproduction's workloads fires **zero** diagnoses; the chaos
//! campaigns' fault classes each trip their mapped detector (see
//! `docs/HEALTH.md` for the coverage matrix).
//!
//! The digest-divergence detector leans on the repository's central
//! modelling note: replicas are always quiescent at total-order
//! delivery points, so per-group state digests computed *at the
//! delivery of the same health snapshot* are byte-identical across
//! operational replicas — any mismatch at equal digest epochs is a real
//! consistency violation, never measurement skew.

use crate::export::{JsonWriter, Layout};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One replica's periodic self-measurement, published through the
/// total order. All identifiers are plain integers (this crate sits
/// below the protocol layers and knows nothing of their id types).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Publishing processor id.
    pub node: u64,
    /// Per-node publish sequence number (monotonic across restarts —
    /// the publisher's driver owns the counter).
    pub seq: u64,
    /// Virtual time at publication, in nanoseconds.
    pub published_ns: u64,
    /// Age of the most recent token visit at publication (zero on
    /// singleton rings, which have no token).
    pub token_age_ns: u64,
    /// Totem: application messages broadcast so far.
    pub broadcasts: u64,
    /// Totem: ordered deliveries made so far.
    pub delivered: u64,
    /// Totem: retransmissions (messages re-served + token re-sends).
    pub retransmits: u64,
    /// Totem: membership reformations joined so far.
    pub reformations: u64,
    /// Held inputs across all locally hosted replicas (the §5.1
    /// holding queues).
    pub holding_depth: u64,
    /// Partially reassembled multicast messages held locally.
    pub reassembly_depth: u64,
    /// Duplicate-suppression ids resident above the horizons.
    pub dedup_resident: u64,
    /// Locally hosted replicas currently mid-recovery (awaiting sync
    /// or enqueueing).
    pub recovering: u64,
    /// Totem pending-queue depth (messages broadcast locally but not
    /// yet packed into ring frames), sampled at the last token visit.
    pub pending_depth: u64,
    /// Totem flow-control slot occupancy at the last token visit:
    /// sequence numbers in flight beyond the local all-received-up-to.
    pub flow_occupancy: u64,
    /// Bytes parked in partially reassembled multicast messages.
    pub reassembly_bytes: u64,
    /// Checkpoint-log suffix length across locally hosted passive
    /// groups (messages logged since the last checkpoint).
    pub log_suffix: u64,
    /// The health epoch at which [`HealthSnapshot::digests`] were
    /// computed, or [`u64::MAX`] when no digest has been taken yet.
    pub digest_epoch: u64,
    /// Per-group application-state digests, `(group, fnv1a)` pairs in
    /// ascending group order, computed at the delivery point of health
    /// epoch [`HealthSnapshot::digest_epoch`].
    pub digests: Vec<(u64, u64)>,
}

impl HealthSnapshot {
    /// Sentinel for "no digest taken yet".
    pub const NO_DIGEST: u64 = u64::MAX;

    /// Serializes the snapshot as one JSON object (stable field order;
    /// the `repro -- health` report embeds these verbatim).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Compact)
            .field("node", self.node)
            .field("seq", self.seq)
            .field("published_ns", self.published_ns)
            .field("token_age_ns", self.token_age_ns)
            .field("broadcasts", self.broadcasts)
            .field("delivered", self.delivered)
            .field("retransmits", self.retransmits)
            .field("reformations", self.reformations)
            .field("holding_depth", self.holding_depth)
            .field("reassembly_depth", self.reassembly_depth)
            .field("dedup_resident", self.dedup_resident)
            .field("recovering", self.recovering)
            .field("pending_depth", self.pending_depth)
            .field("flow_occupancy", self.flow_occupancy)
            .field("reassembly_bytes", self.reassembly_bytes)
            .field("log_suffix", self.log_suffix)
            // `NO_DIGEST` is `u64::MAX`: it renders as -1.
            .field("digest_epoch", self.digest_epoch as i64)
            .key("digests")
            .array(Layout::Compact);
        for (g, d) in &self.digests {
            w.array(Layout::Compact).value(g).value(d).end();
        }
        w.end().end();
        w.finish()
    }
}

/// How bad a diagnosis is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but expected under faults; no action needed.
    Info,
    /// Degraded but self-correcting; watch it.
    Warning,
    /// Service-threatening; operator (or recovery) action required.
    Critical,
}

impl Severity {
    /// Stable display name.
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The auditor's detector taxonomy. Each watches one legal-state
/// envelope of the protocol stack (thresholds in [`AuditorConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Detector {
    /// The rotating token is slow (warning) or presumed stuck
    /// (critical): a publisher reported a token age past threshold.
    TokenStall,
    /// Too many membership reformations within the sliding window.
    ReformationStorm,
    /// Retransmission counters climbing too fast (lossy medium or a
    /// struggling successor).
    RetransmitSurge,
    /// A holding queue, the reassembly table, or the dedup table grew
    /// past its configured cap (unbounded-growth guard).
    QueueGrowth,
    /// Backpressure trend: a node's Totem pending-queue depth was
    /// monotone nondecreasing across its entire sliding window and
    /// grew by at least the configured amount — the offered load has
    /// outrun the ring's drain rate. Unlike [`Detector::QueueGrowth`]
    /// (an absolute cap), this catches sustained growth long before any
    /// cap is hit, while staying quiet on transient bursts (a single
    /// shrink anywhere in the window resets the condition).
    BackpressureGrowth,
    /// A replica has been mid-recovery for longer than the recovery
    /// SLO deadline.
    RecoveryOverrun,
    /// A processor stopped publishing health snapshots (crashed,
    /// partitioned away, or wedged).
    ReplicaSilence,
    /// Two processors reported different application-state digests for
    /// the same group at the same digest epoch — a real consistency
    /// violation (replicas are quiescent at delivery points).
    DigestDivergence,
}

impl Detector {
    /// All detectors, in a stable order.
    pub const ALL: [Detector; 8] = [
        Detector::TokenStall,
        Detector::ReformationStorm,
        Detector::RetransmitSurge,
        Detector::QueueGrowth,
        Detector::BackpressureGrowth,
        Detector::RecoveryOverrun,
        Detector::ReplicaSilence,
        Detector::DigestDivergence,
    ];

    /// Stable snake_case name (JSON, metric names, trace details).
    pub const fn name(self) -> &'static str {
        match self {
            Detector::TokenStall => "token_stall",
            Detector::ReformationStorm => "reformation_storm",
            Detector::RetransmitSurge => "retransmit_surge",
            Detector::QueueGrowth => "queue_growth",
            Detector::BackpressureGrowth => "backpressure_growth",
            Detector::RecoveryOverrun => "recovery_overrun",
            Detector::ReplicaSilence => "replica_silence",
            Detector::DigestDivergence => "digest_divergence",
        }
    }
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured detector firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// Health epoch at which the detector fired.
    pub epoch: u64,
    /// Virtual time of the firing, in nanoseconds.
    pub at_ns: u64,
    /// Which detector fired.
    pub detector: Detector,
    /// Graded severity.
    pub severity: Severity,
    /// What the diagnosis is about, e.g. `"node 3"` or `"group 1"`.
    pub subject: String,
    /// The measured value that crossed the threshold.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
    /// Human-readable specifics.
    pub detail: String,
}

impl Diagnosis {
    /// Serializes the diagnosis as one JSON object (stable order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Compact)
            .field("epoch", self.epoch)
            .field("at_ns", self.at_ns)
            .field_str("detector", self.detector)
            .field_str("severity", self.severity)
            .field_str("subject", &self.subject)
            .field("value", self.value)
            .field("threshold", self.threshold)
            .field_str("detail", &self.detail)
            .end();
        w.finish()
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} epoch {}: {} (value {} threshold {})",
            self.severity,
            self.detector,
            self.subject,
            self.epoch,
            self.detail,
            self.value,
            self.threshold
        )
    }
}

/// The detector thresholds scenarios tune; the rest are the constants
/// below. All are *service-level objectives* tuned against the
/// reproduction's network and Totem defaults so that fault-free runs
/// fire nothing; tests tighten these three to make a specific envelope
/// observable (see `docs/HEALTH.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditorConfig {
    /// Sliding window (snapshots per node) for the delta detectors.
    pub window_epochs: usize,
    /// Retransmissions within the window at/past this → surge
    /// (warning; twice this → critical).
    pub retransmit_surge: u64,
    /// A replica continuously mid-recovery past this is an overrun
    /// (critical).
    pub recovery_deadline_ns: u64,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        AuditorConfig {
            window_epochs: 8,
            retransmit_surge: 20,
            recovery_deadline_ns: 400_000_000,
        }
    }
}

/// Token age past this is a slow token (warning).
const TOKEN_SLOW_NS: u64 = 8_000_000;
/// Token age past this is a presumed-stuck token (critical).
const TOKEN_STUCK_NS: u64 = 25_000_000;
/// Reformations within the window at/past this → storm (warning;
/// twice this → critical).
const REFORMATION_STORM: u64 = 2;
/// Holding-queue depth cap (at/past → warning; twice → critical).
const HOLDING_CAP: u64 = 256;
/// Reassembly-table cap (at/past → warning; twice → critical).
const REASSEMBLY_CAP: u64 = 64;
/// Dedup-table resident cap (at/past → warning; twice → critical).
const DEDUP_CAP: u64 = 8192;
/// Minimum total pending-depth growth, across a node's *full* sliding
/// window of monotone-nondecreasing samples, for the backpressure
/// detector (warning; twice → critical).
const BACKPRESSURE_GROWTH: u64 = 8;
/// A node not heard from for this many publish periods is silent
/// (warning; twice that → critical).
const SILENCE_FACTOR: u64 = 4;
/// Consecutive clear observations of a subject before its detector
/// re-arms (hysteresis).
const CLEAR_EPOCHS: u32 = 2;

/// One agreed health epoch: the epoch index, its assignment time, and
/// the snapshot that occupies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Global epoch index (position in the total order's snapshot
    /// stream).
    pub epoch: u64,
    /// Virtual time the epoch was observed, in nanoseconds.
    pub at_ns: u64,
    /// The snapshot.
    pub snap: HealthSnapshot,
}

/// Per-node roll-up of an epoch stream (the `repro -- health` report's
/// per-replica summaries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSummary {
    /// The processor.
    pub node: u64,
    /// Snapshots it published.
    pub snapshots: u64,
    /// Largest token age it ever reported.
    pub max_token_age_ns: u64,
    /// Largest holding-queue depth it ever reported.
    pub max_holding_depth: u64,
    /// Largest reassembly depth it ever reported.
    pub max_reassembly_depth: u64,
    /// Largest dedup residency it ever reported.
    pub max_dedup_resident: u64,
    /// Largest Totem pending-queue depth it ever reported.
    pub max_pending_depth: u64,
    /// Reformations joined between its first and last snapshot.
    pub reformations: u64,
    /// Retransmissions between its first and last snapshot.
    pub retransmits: u64,
    /// Snapshots in which it reported a replica mid-recovery.
    pub recovering_epochs: u64,
}

impl NodeSummary {
    /// Serializes the summary as one JSON object (stable order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.object(Layout::Compact)
            .field("node", self.node)
            .field("snapshots", self.snapshots)
            .field("max_token_age_ns", self.max_token_age_ns)
            .field("max_holding_depth", self.max_holding_depth)
            .field("max_reassembly_depth", self.max_reassembly_depth)
            .field("max_dedup_resident", self.max_dedup_resident)
            .field("max_pending_depth", self.max_pending_depth)
            .field("reformations", self.reformations)
            .field("retransmits", self.retransmits)
            .field("recovering_epochs", self.recovering_epochs)
            .end();
        w.finish()
    }
}

/// Subject of a diagnosis, for hysteresis keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Subject {
    Node(u64),
    Group(u64),
}

impl Subject {
    fn label(self) -> String {
        match self {
            Subject::Node(n) => format!("node {n}"),
            Subject::Group(g) => format!("group {g}"),
        }
    }
}

#[derive(Debug, Default)]
struct ArmState {
    /// Highest severity currently active (fired and not yet cleared).
    active: Option<Severity>,
    /// Consecutive clear observations since the last firing.
    clear_streak: u32,
}

/// How many digest epochs of claims the divergence detector retains.
const DIGEST_RETAIN_EPOCHS: u64 = 64;

/// The online auditor: consumes the agreed epoch stream, maintains
/// per-node sliding windows, and fires [`Diagnosis`] records on rising
/// edges.
#[derive(Debug)]
pub struct HealthAuditor {
    cfg: AuditorConfig,
    /// Expected publish period in nanoseconds (zero disables the
    /// period-scaled silence detector).
    period_ns: u64,
    /// The full agreed epoch stream, in order.
    epochs: Vec<EpochRecord>,
    /// Per-node sliding window of recent snapshots.
    window: BTreeMap<u64, VecDeque<HealthSnapshot>>,
    /// Per-node time of the last snapshot observed (silence detector).
    last_seen_ns: BTreeMap<u64, u64>,
    /// Per-node start of the current contiguous mid-recovery run.
    recovering_since_ns: BTreeMap<u64, u64>,
    /// Digest claims: (group, digest_epoch) → (digest, claiming node).
    digest_claims: BTreeMap<(u64, u64), (u64, u64)>,
    /// Hysteresis state per (detector, subject).
    arm: BTreeMap<(Detector, Subject), ArmState>,
    /// Every diagnosis ever fired, in order.
    diagnoses: Vec<Diagnosis>,
}

impl HealthAuditor {
    /// Creates an auditor with the given thresholds for snapshots
    /// published every `period_ns`.
    pub fn new(cfg: AuditorConfig, period_ns: u64) -> Self {
        HealthAuditor {
            cfg,
            period_ns,
            epochs: Vec::new(),
            window: BTreeMap::new(),
            last_seen_ns: BTreeMap::new(),
            recovering_since_ns: BTreeMap::new(),
            digest_claims: BTreeMap::new(),
            arm: BTreeMap::new(),
            diagnoses: Vec::new(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &AuditorConfig {
        &self.cfg
    }

    /// The publish period the silence detector scales by.
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    /// The agreed epoch stream observed so far.
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// Every diagnosis fired so far, in firing order.
    pub fn diagnoses(&self) -> &[Diagnosis] {
        &self.diagnoses
    }

    /// Number of critical diagnoses fired so far.
    pub fn critical_count(&self) -> usize {
        self.diagnoses
            .iter()
            .filter(|d| d.severity == Severity::Critical)
            .count()
    }

    /// Per-node roll-ups of the whole epoch stream, in node order.
    pub fn node_summaries(&self) -> Vec<NodeSummary> {
        let mut per: BTreeMap<u64, (NodeSummary, HealthSnapshot, HealthSnapshot)> = BTreeMap::new();
        for rec in &self.epochs {
            let s = &rec.snap;
            let entry = per.entry(s.node).or_insert_with(|| {
                (
                    NodeSummary {
                        node: s.node,
                        ..NodeSummary::default()
                    },
                    s.clone(),
                    s.clone(),
                )
            });
            entry.0.snapshots += 1;
            entry.0.max_token_age_ns = entry.0.max_token_age_ns.max(s.token_age_ns);
            entry.0.max_holding_depth = entry.0.max_holding_depth.max(s.holding_depth);
            entry.0.max_reassembly_depth = entry.0.max_reassembly_depth.max(s.reassembly_depth);
            entry.0.max_dedup_resident = entry.0.max_dedup_resident.max(s.dedup_resident);
            entry.0.max_pending_depth = entry.0.max_pending_depth.max(s.pending_depth);
            if s.recovering > 0 {
                entry.0.recovering_epochs += 1;
            }
            entry.2 = s.clone();
        }
        per.into_values()
            .map(|(mut sum, first, last)| {
                sum.reformations = last.reformations.saturating_sub(first.reformations);
                sum.retransmits = last.retransmits.saturating_sub(first.retransmits);
                sum
            })
            .collect()
    }

    /// Feeds one agreed epoch into the auditor. `epoch` must be the
    /// next global index in the snapshot stream, `now_ns` its
    /// observation time. Returns the diagnoses newly fired by this
    /// epoch (also retained in [`HealthAuditor::diagnoses`]).
    pub fn observe(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) -> Vec<Diagnosis> {
        let fired_before = self.diagnoses.len();
        self.epochs.push(EpochRecord {
            epoch,
            at_ns: now_ns,
            snap: snap.clone(),
        });
        self.last_seen_ns.insert(snap.node, now_ns);
        {
            let win = self.window.entry(snap.node).or_default();
            win.push_back(snap.clone());
            while win.len() > self.cfg.window_epochs.max(2) {
                win.pop_front();
            }
        }
        self.check_token(epoch, now_ns, snap);
        self.check_deltas(epoch, now_ns, snap);
        self.check_queues(epoch, now_ns, snap);
        self.check_backpressure(epoch, now_ns, snap);
        self.check_recovery(epoch, now_ns, snap);
        self.check_silence(epoch, now_ns, snap.node);
        self.check_digests(epoch, now_ns, snap);
        self.diagnoses[fired_before..].to_vec()
    }

    // ---- individual detectors ----

    fn check_token(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        let subject = Subject::Node(snap.node);
        let age = snap.token_age_ns;
        if age >= TOKEN_STUCK_NS {
            self.fire(
                epoch,
                now_ns,
                Detector::TokenStall,
                Severity::Critical,
                subject,
                age,
                TOKEN_STUCK_NS,
                format!("token presumed stuck: age {age}ns"),
            );
        } else if age >= TOKEN_SLOW_NS {
            self.fire(
                epoch,
                now_ns,
                Detector::TokenStall,
                Severity::Warning,
                subject,
                age,
                TOKEN_SLOW_NS,
                format!("slow token rotation: age {age}ns"),
            );
        } else {
            self.clear(Detector::TokenStall, subject);
        }
    }

    fn check_deltas(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        let subject = Subject::Node(snap.node);
        let Some(win) = self.window.get(&snap.node) else {
            return;
        };
        let (first, last) = (
            win.front().expect("nonempty"),
            win.back().expect("nonempty"),
        );
        let reformations = last.reformations.saturating_sub(first.reformations);
        let retransmits = last.retransmits.saturating_sub(first.retransmits);
        let window = win.len();
        self.graded(
            epoch,
            now_ns,
            Detector::ReformationStorm,
            subject,
            reformations,
            REFORMATION_STORM,
            format!("{reformations} reformations in {window} epochs"),
        );
        self.graded(
            epoch,
            now_ns,
            Detector::RetransmitSurge,
            subject,
            retransmits,
            self.cfg.retransmit_surge,
            format!("{retransmits} retransmissions in {window} epochs"),
        );
    }

    fn check_queues(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        let subject = Subject::Node(snap.node);
        // Report the worst offender relative to its cap; one arm state
        // per node keeps a multi-queue blowup from triple-firing.
        let candidates = [
            ("holding queue", snap.holding_depth, HOLDING_CAP),
            ("reassembly table", snap.reassembly_depth, REASSEMBLY_CAP),
            ("dedup table", snap.dedup_resident, DEDUP_CAP),
        ];
        let worst = candidates
            .iter()
            .filter(|(_, v, cap)| v >= cap)
            .max_by(|a, b| {
                // Compare v/cap ratios without division: v_a·cap_b vs
                // v_b·cap_a (widened so huge depths cannot overflow).
                (u128::from(a.1) * u128::from(b.2)).cmp(&(u128::from(b.1) * u128::from(a.2)))
            });
        match worst {
            Some(&(name, value, cap)) => {
                let sev = if value >= cap.saturating_mul(2) {
                    Severity::Critical
                } else {
                    Severity::Warning
                };
                self.fire(
                    epoch,
                    now_ns,
                    Detector::QueueGrowth,
                    sev,
                    subject,
                    value,
                    cap,
                    format!("{name} at {value} (cap {cap})"),
                );
            }
            None => self.clear(Detector::QueueGrowth, subject),
        }
    }

    fn check_backpressure(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        let subject = Subject::Node(snap.node);
        let Some(win) = self.window.get(&snap.node) else {
            return;
        };
        let full = self.cfg.window_epochs.max(2);
        if win.len() < full {
            // Not enough history to call a trend either way: neither
            // fire nor clear, so a short stream cannot false-positive
            // *or* prematurely re-arm an active subject.
            return;
        }
        let monotone = win
            .iter()
            .zip(win.iter().skip(1))
            .all(|(a, b)| b.pending_depth >= a.pending_depth);
        let growth = win
            .back()
            .expect("nonempty")
            .pending_depth
            .saturating_sub(win.front().expect("nonempty").pending_depth);
        if monotone && growth >= BACKPRESSURE_GROWTH {
            let depth = win.back().expect("nonempty").pending_depth;
            self.graded(
                epoch,
                now_ns,
                Detector::BackpressureGrowth,
                subject,
                growth,
                BACKPRESSURE_GROWTH,
                format!(
                    "pending depth grew monotonically by {growth} over {full} epochs \
                     (now {depth})"
                ),
            );
        } else {
            self.clear(Detector::BackpressureGrowth, subject);
        }
    }

    fn check_recovery(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        let subject = Subject::Node(snap.node);
        if snap.recovering > 0 {
            let since = *self
                .recovering_since_ns
                .entry(snap.node)
                .or_insert(snap.published_ns);
            let elapsed = now_ns.saturating_sub(since);
            if elapsed > self.cfg.recovery_deadline_ns {
                self.fire(
                    epoch,
                    now_ns,
                    Detector::RecoveryOverrun,
                    Severity::Critical,
                    subject,
                    elapsed,
                    self.cfg.recovery_deadline_ns,
                    format!(
                        "{} replica(s) mid-recovery for {elapsed}ns",
                        snap.recovering
                    ),
                );
            }
        } else {
            self.recovering_since_ns.remove(&snap.node);
            self.clear(Detector::RecoveryOverrun, subject);
        }
    }

    fn check_silence(&mut self, epoch: u64, now_ns: u64, speaker: u64) {
        if self.period_ns == 0 {
            return;
        }
        let warn_after = SILENCE_FACTOR.saturating_mul(self.period_ns);
        let nodes: Vec<(u64, u64)> = self
            .last_seen_ns
            .iter()
            .map(|(&n, &t)| (n, t))
            .filter(|&(n, _)| n != speaker)
            .collect();
        for (node, last) in nodes {
            let quiet = now_ns.saturating_sub(last);
            let subject = Subject::Node(node);
            if quiet >= warn_after.saturating_mul(2) {
                self.fire(
                    epoch,
                    now_ns,
                    Detector::ReplicaSilence,
                    Severity::Critical,
                    subject,
                    quiet,
                    warn_after.saturating_mul(2),
                    format!("no health snapshot for {quiet}ns"),
                );
            } else if quiet >= warn_after {
                self.fire(
                    epoch,
                    now_ns,
                    Detector::ReplicaSilence,
                    Severity::Warning,
                    subject,
                    quiet,
                    warn_after,
                    format!("no health snapshot for {quiet}ns"),
                );
            } else {
                self.clear(Detector::ReplicaSilence, subject);
            }
        }
    }

    fn check_digests(&mut self, epoch: u64, now_ns: u64, snap: &HealthSnapshot) {
        if snap.digest_epoch == HealthSnapshot::NO_DIGEST {
            return;
        }
        for &(group, digest) in &snap.digests {
            let key = (group, snap.digest_epoch);
            match self.digest_claims.get(&key) {
                None => {
                    self.digest_claims.insert(key, (digest, snap.node));
                }
                Some(&(other_digest, other_node)) if other_digest != digest => {
                    self.fire(
                        epoch,
                        now_ns,
                        Detector::DigestDivergence,
                        Severity::Critical,
                        Subject::Group(group),
                        digest,
                        other_digest,
                        format!(
                            "digest {digest:#x} at node {} != {other_digest:#x} at node {other_node} (digest epoch {})",
                            snap.node, snap.digest_epoch
                        ),
                    );
                }
                Some(_) => {
                    self.clear(Detector::DigestDivergence, Subject::Group(group));
                }
            }
        }
        // Bound the claims table: drop epochs far behind this one.
        let floor = snap.digest_epoch.saturating_sub(DIGEST_RETAIN_EPOCHS);
        self.digest_claims.retain(|&(_, e), _| e >= floor);
    }

    // ---- firing machinery ----

    /// Warning at `threshold`, critical at twice it, clear below.
    #[allow(clippy::too_many_arguments)]
    fn graded(
        &mut self,
        epoch: u64,
        now_ns: u64,
        detector: Detector,
        subject: Subject,
        value: u64,
        threshold: u64,
        detail: String,
    ) {
        if threshold == 0 {
            return;
        }
        if value >= threshold.saturating_mul(2) {
            self.fire(
                epoch,
                now_ns,
                detector,
                Severity::Critical,
                subject,
                value,
                threshold.saturating_mul(2),
                detail,
            );
        } else if value >= threshold {
            self.fire(
                epoch,
                now_ns,
                detector,
                Severity::Warning,
                subject,
                value,
                threshold,
                detail,
            );
        } else {
            self.clear(detector, subject);
        }
    }

    /// Fires on a rising edge only: a subject already active at this or
    /// a higher severity is suppressed until it clears (hysteresis); an
    /// escalation (warning → critical) counts as a rising edge.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &mut self,
        epoch: u64,
        now_ns: u64,
        detector: Detector,
        severity: Severity,
        subject: Subject,
        value: u64,
        threshold: u64,
        detail: String,
    ) {
        let st = self.arm.entry((detector, subject)).or_default();
        st.clear_streak = 0;
        let escalation = match st.active {
            None => true,
            Some(active) => severity > active,
        };
        if !escalation {
            return;
        }
        st.active = Some(severity);
        self.diagnoses.push(Diagnosis {
            epoch,
            at_ns: now_ns,
            detector,
            severity,
            subject: subject.label(),
            value,
            threshold,
            detail,
        });
    }

    /// Records a clear observation; after [`CLEAR_EPOCHS`] consecutive
    /// clears the subject re-arms.
    fn clear(&mut self, detector: Detector, subject: Subject) {
        if let Some(st) = self.arm.get_mut(&(detector, subject)) {
            st.clear_streak += 1;
            if st.clear_streak >= CLEAR_EPOCHS {
                self.arm.remove(&(detector, subject));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD_NS: u64 = 5_000_000;

    fn auditor() -> HealthAuditor {
        HealthAuditor::new(AuditorConfig::default(), PERIOD_NS)
    }

    fn snap(node: u64, seq: u64, at_ns: u64) -> HealthSnapshot {
        HealthSnapshot {
            node,
            seq,
            published_ns: at_ns,
            token_age_ns: 300_000,
            digest_epoch: HealthSnapshot::NO_DIGEST,
            ..HealthSnapshot::default()
        }
    }

    #[test]
    fn quiet_stream_fires_nothing() {
        let mut a = auditor();
        let period = 5_000_000u64;
        let mut epoch = 0;
        for round in 0..20u64 {
            for node in 0..4u64 {
                let t = (round + 1) * period + node * 10_000;
                a.observe(epoch, t, &snap(node, round, t));
                epoch += 1;
            }
        }
        assert!(a.diagnoses().is_empty(), "{:?}", a.diagnoses());
        assert_eq!(a.epochs().len(), 80);
    }

    #[test]
    fn token_stall_edges_and_hysteresis() {
        let mut a = auditor();
        let mut s = snap(0, 0, 5_000_000);
        // One below the edge: nothing.
        s.token_age_ns = TOKEN_SLOW_NS - 1;
        a.observe(0, 5_000_000, &s);
        assert!(a.diagnoses().is_empty());
        // At the edge: warning.
        s.token_age_ns = TOKEN_SLOW_NS;
        a.observe(1, 10_000_000, &s);
        assert_eq!(a.diagnoses().len(), 1);
        assert_eq!(a.diagnoses()[0].severity, Severity::Warning);
        // Still past the edge: suppressed by hysteresis.
        a.observe(2, 15_000_000, &s);
        assert_eq!(a.diagnoses().len(), 1);
        // Escalates to critical exactly once.
        s.token_age_ns = TOKEN_STUCK_NS;
        a.observe(3, 20_000_000, &s);
        a.observe(4, 25_000_000, &s);
        assert_eq!(a.diagnoses().len(), 2);
        assert_eq!(a.diagnoses()[1].severity, Severity::Critical);
        assert_eq!(a.critical_count(), 1);
        // Clears for clear_epochs, then re-fires on the next excursion.
        s.token_age_ns = 100_000;
        for i in 0..u64::from(CLEAR_EPOCHS) {
            a.observe(5 + i, 30_000_000 + i, &s);
        }
        s.token_age_ns = TOKEN_SLOW_NS;
        a.observe(10, 50_000_000, &s);
        assert_eq!(a.diagnoses().len(), 3);
    }

    #[test]
    fn reformation_storm_uses_window_deltas() {
        let mut a = auditor();
        let mut s = snap(1, 0, 5_000_000);
        s.reformations = 40; // large absolute baseline: deltas matter
        a.observe(0, 5_000_000, &s);
        s.reformations = 41;
        a.observe(1, 10_000_000, &s);
        assert!(a.diagnoses().is_empty(), "delta 1 below storm threshold");
        s.reformations = 42;
        a.observe(2, 15_000_000, &s);
        assert_eq!(a.diagnoses().len(), 1);
        assert_eq!(a.diagnoses()[0].detector, Detector::ReformationStorm);
    }

    #[test]
    fn queue_growth_grades_by_cap() {
        let mut a = auditor();
        let mut s = snap(2, 0, 5_000_000);
        s.dedup_resident = DEDUP_CAP * 2;
        a.observe(0, 5_000_000, &s);
        assert_eq!(a.diagnoses().len(), 1);
        let d = &a.diagnoses()[0];
        assert_eq!(d.detector, Detector::QueueGrowth);
        assert_eq!(d.severity, Severity::Critical);
        assert!(d.detail.contains("dedup table"));
    }

    #[test]
    fn recovery_overrun_needs_continuous_run() {
        let cfg = AuditorConfig {
            recovery_deadline_ns: 10_000_000,
            ..AuditorConfig::default()
        };
        let mut a = HealthAuditor::new(cfg, PERIOD_NS);
        let mut s = snap(0, 0, 5_000_000);
        s.recovering = 1;
        a.observe(0, 5_000_000, &s);
        assert!(a.diagnoses().is_empty(), "within deadline");
        // Recovery finishes; the run resets.
        s.recovering = 0;
        a.observe(1, 14_000_000, &s);
        s.recovering = 1;
        s.published_ns = 20_000_000;
        a.observe(2, 20_000_000, &s);
        assert!(a.diagnoses().is_empty(), "new run starts fresh");
        a.observe(3, 31_000_000, &s);
        assert_eq!(a.diagnoses().len(), 1);
        assert_eq!(a.diagnoses()[0].detector, Detector::RecoveryOverrun);
        assert_eq!(a.diagnoses()[0].severity, Severity::Critical);
    }

    #[test]
    fn silence_noticed_via_other_speakers() {
        let mut a = auditor();
        let period = a.period_ns();
        // Both nodes speak once.
        a.observe(0, period, &snap(0, 0, period));
        a.observe(1, period + 1000, &snap(1, 0, period + 1000));
        // Node 1 goes quiet; node 0 keeps publishing.
        let mut fired = Vec::new();
        for round in 2..12u64 {
            let t = round * period;
            fired.extend(a.observe(round, t, &snap(0, round, t)));
        }
        let silence: Vec<&Diagnosis> = fired
            .iter()
            .filter(|d| d.detector == Detector::ReplicaSilence)
            .collect();
        assert_eq!(silence.len(), 2, "warning then critical: {silence:?}");
        assert_eq!(silence[0].severity, Severity::Warning);
        assert_eq!(silence[1].severity, Severity::Critical);
        assert_eq!(silence[0].subject, "node 1");
    }

    #[test]
    fn digest_divergence_compares_equal_epochs_only() {
        let mut a = auditor();
        let mut s0 = snap(0, 0, 5_000_000);
        s0.digest_epoch = 3;
        s0.digests = vec![(0, 0xAAAA)];
        a.observe(0, 5_000_000, &s0);
        // Different digest at a *different* epoch: no comparison.
        let mut s1 = snap(1, 0, 5_100_000);
        s1.digest_epoch = 4;
        s1.digests = vec![(0, 0xBBBB)];
        a.observe(1, 5_100_000, &s1);
        assert!(a.diagnoses().is_empty());
        // Same epoch, same digest: agreement.
        let mut s2 = snap(2, 0, 5_200_000);
        s2.digest_epoch = 3;
        s2.digests = vec![(0, 0xAAAA)];
        a.observe(2, 5_200_000, &s2);
        assert!(a.diagnoses().is_empty());
        // Same epoch, different digest: critical divergence.
        let mut s3 = snap(3, 0, 5_300_000);
        s3.digest_epoch = 3;
        s3.digests = vec![(0, 0xCCCC)];
        a.observe(3, 5_300_000, &s3);
        assert_eq!(a.diagnoses().len(), 1);
        let d = &a.diagnoses()[0];
        assert_eq!(d.detector, Detector::DigestDivergence);
        assert_eq!(d.severity, Severity::Critical);
        assert_eq!(d.subject, "group 0");
    }

    #[test]
    fn backpressure_fires_on_sustained_monotone_growth() {
        let mut a = auditor();
        let window = a.config().window_epochs as u64;
        let growth_min = BACKPRESSURE_GROWTH;
        // Depth climbs by growth_min every epoch, never shrinking.
        for i in 0..window + 2 {
            let t = (i + 1) * 5_000_000;
            let mut s = snap(0, i, t);
            s.pending_depth = i * growth_min;
            a.observe(i, t, &s);
        }
        let fired: Vec<&Diagnosis> = a
            .diagnoses()
            .iter()
            .filter(|d| d.detector == Detector::BackpressureGrowth)
            .collect();
        assert!(!fired.is_empty(), "sustained growth must fire");
        // Growth of (window-1)*growth_min >= 2*growth_min → critical.
        assert_eq!(fired[0].severity, Severity::Critical);
        assert!(fired[0].detail.contains("monotonically"), "{fired:?}");
    }

    #[test]
    fn backpressure_ignores_transient_bursts() {
        let mut a = auditor();
        let window = a.config().window_epochs as u64;
        let growth_min = BACKPRESSURE_GROWTH;
        // A burst grows the queue fast, then it drains: every window
        // containing the shrink is non-monotone, and windows after the
        // drain have zero growth.
        let depths: Vec<u64> = (0..window + 6)
            .map(|i| {
                if i < 3 {
                    i * growth_min * 2 // sharp climb
                } else {
                    0 // drained
                }
            })
            .collect();
        for (i, &d) in depths.iter().enumerate() {
            let t = (i as u64 + 1) * 5_000_000;
            let mut s = snap(0, i as u64, t);
            s.pending_depth = d;
            a.observe(i as u64, t, &s);
        }
        assert!(
            a.diagnoses()
                .iter()
                .all(|d| d.detector != Detector::BackpressureGrowth),
            "transient burst must not fire: {:?}",
            a.diagnoses()
        );
    }

    #[test]
    fn backpressure_needs_a_full_window() {
        let mut a = auditor();
        let growth_min = BACKPRESSURE_GROWTH;
        // Fewer epochs than the window: growth alone must not fire.
        for i in 0..(a.config().window_epochs as u64 - 1) {
            let t = (i + 1) * 5_000_000;
            let mut s = snap(0, i, t);
            s.pending_depth = i * growth_min * 4;
            a.observe(i, t, &s);
        }
        assert!(a.diagnoses().is_empty(), "{:?}", a.diagnoses());
    }

    #[test]
    fn node_summaries_roll_up_the_stream() {
        let mut a = auditor();
        let mut s = snap(0, 0, 1000);
        s.retransmits = 5;
        a.observe(0, 1000, &s);
        s.seq = 1;
        s.retransmits = 9;
        s.holding_depth = 17;
        s.recovering = 1;
        a.observe(1, 2000, &s);
        let sums = a.node_summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].snapshots, 2);
        assert_eq!(sums[0].retransmits, 4);
        assert_eq!(sums[0].max_holding_depth, 17);
        assert_eq!(sums[0].recovering_epochs, 1);
    }

    #[test]
    fn snapshot_and_diagnosis_json_are_stable() {
        let mut s = snap(3, 7, 42);
        s.digest_epoch = 2;
        s.digests = vec![(0, 11), (1, 22)];
        let js = s.to_json();
        assert!(js.starts_with("{\"node\":3,\"seq\":7,"));
        assert!(js.contains(
            "\"pending_depth\":0,\"flow_occupancy\":0,\"reassembly_bytes\":0,\"log_suffix\":0,"
        ));
        assert!(js.ends_with("\"digest_epoch\":2,\"digests\":[[0,11],[1,22]]}"));
        assert!(snap(0, 0, 0).to_json().contains("\"digest_epoch\":-1"));
        let d = Diagnosis {
            epoch: 9,
            at_ns: 100,
            detector: Detector::TokenStall,
            severity: Severity::Warning,
            subject: "node 1".into(),
            value: 8,
            threshold: 4,
            detail: "slow".into(),
        };
        assert_eq!(
            d.to_json(),
            "{\"epoch\":9,\"at_ns\":100,\"detector\":\"token_stall\",\"severity\":\"warning\",\"subject\":\"node 1\",\"value\":8,\"threshold\":4,\"detail\":\"slow\"}"
        );
    }

    #[test]
    fn detector_names_stable_and_unique() {
        let names: std::collections::BTreeSet<&str> =
            Detector::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), Detector::ALL.len());
        assert!(names.contains("digest_divergence"));
        assert!(names.contains("backpressure_growth"));
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Critical);
    }
}
