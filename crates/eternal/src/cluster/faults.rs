//! Faults and what the cluster does about them: fault injection, the
//! Resource Manager (paper §2: "maintains the initial and the minimum
//! number of replicas"), the Evolution Manager's rolling upgrade, which
//! rides the same path, and the one table of replica launches in
//! flight. A [`Launch`] is created when the launch is decided, learns
//! its start time when the process comes up, collects the boundary
//! times of the transfers aimed at it, and is removed at reinstatement,
//! when its host is down at start time, or when host or replica dies
//! mid-recovery. While a group has one, the resource manager starts no
//! other for it.

use super::{server_kind, Cluster, Event, Processor};
use crate::gid::{GroupId, TransferId};
use crate::message::{EternalMessage, EternalReassembler, RetrievalPurpose};
use crate::metrics::RecoveryRecord;
use crate::properties::ReplicationStyle;
use eternal_obs::causal::TraceTag;
use eternal_obs::timeline::PhaseSpan;
use eternal_obs::{EventKind, RecoveryPhase, RecoveryTimeline};
use eternal_orb::servant::CheckpointableServant;
use eternal_sim::net::NodeId;
use eternal_sim::{Duration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Time to launch a replica process before it can join recovery.
const LAUNCH_DELAY: Duration = Duration::from_millis(2);

/// One replica launch in flight, keyed by (group, new host) in
/// [`Cluster::launches`].
#[derive(Debug, Default)]
pub(super) struct Launch {
    /// When the replica process came up and announced itself; `None`
    /// while the launch delay runs.
    launched_at: Option<SimTime>,
    /// What has been observed of each state transfer aimed at this
    /// launch. A retry after an aborted transfer can leave an earlier
    /// transfer id beside the one that completes.
    episodes: BTreeMap<TransferId, EpisodeObs>,
}

/// In-flight observation of one §5.1 state transfer. Boundary times
/// accumulate as the protocol's messages are delivered; the finished
/// timeline is assembled at `Out::RecoveryComplete`.
#[derive(Debug, Default)]
struct EpisodeObs {
    /// Donor-side quiescence reached; `get_state` begins (earliest
    /// donor wins under active replication).
    capture_begin: Option<SimTime>,
    /// Donor-side `get_state` finished; the first chunks are handed to
    /// the transport.
    send_at: Option<SimTime>,
    /// When the recovering replica began *holding* traffic rather than
    /// dropping it — the start of the group-blocking window: the last
    /// chunk's delivery.
    enqueue_at: Option<SimTime>,
    /// The transfer's closing suffix was delivered at the recovering
    /// replica: the set_state instant.
    assignment_at: Option<SimTime>,
}

impl Cluster {
    /// Whether any recovery machinery is in flight: a replica launch
    /// decided, started or mid state transfer.
    pub fn recovery_in_flight(&self) -> bool {
        !self.launches.is_empty()
    }

    /// Replica launches whose process has started, as (group, new host)
    /// pairs, deterministically ordered. The chaos campaigns use this to
    /// find — and crash — the recovering host mid-transfer.
    pub fn pending_launches(&self) -> Vec<(GroupId, NodeId)> {
        self.launches
            .iter()
            .filter(|(_, launch)| launch.launched_at.is_some())
            .map(|(&key, _)| key)
            .collect()
    }

    /// Kills the replica of `group` hosted on `node` (process death;
    /// the processor and its mechanisms survive). Detection takes the
    /// group's fault-monitoring interval.
    pub fn kill_replica(&mut self, group: GroupId, node: NodeId) {
        let info = self.groups.get_mut(&group).expect("known group");
        let monitor = info.props.fault_monitoring_interval;
        info.hosting.remove(&node);
        // If the victim was itself mid-recovery, that launch can never
        // complete; abort it so it doesn't wedge the resource manager's
        // next replacement.
        self.abort_recovery_at(node, Some(group));
        let outs = self.procs[node.0 as usize].mech.kill_local_replica(group);
        let now = self.now();
        self.record_event(
            format!("{node}/cluster"),
            EventKind::ReplicaKilled,
            format!("{group}"),
        );
        self.process_outs(node, outs, now, monitor);
    }

    /// Launches a replacement replica of `group` on `node` after
    /// the 2 ms launch delay (the §5.1 recovery path).
    pub fn launch_replica(&mut self, group: GroupId, node: NodeId) {
        self.launches.entry((group, node)).or_default();
        self.ring
            .schedule_after(LAUNCH_DELAY, Event::LaunchReplica { node, group });
    }

    /// The launch delay of `group`'s replica on `node` is over: the
    /// process comes up as a recovering replica and announces itself —
    /// unless its processor went down meanwhile, which drops the launch
    /// and leaves the group to be re-examined.
    pub(super) fn start_launch(&mut self, group: GroupId, node: NodeId, now: SimTime) {
        if !self.is_alive(node) {
            self.launches.remove(&(group, node));
            self.restore_strength(group, None);
            return;
        }
        self.launches.entry((group, node)).or_default().launched_at = Some(now);
        self.groups
            .get_mut(&group)
            .expect("known group")
            .hosting
            .insert(node);
        self.record_event(
            format!("{node}/cluster"),
            EventKind::ReplicaLaunched,
            format!("{group}"),
        );
        let outs = self.procs[node.0 as usize]
            .mech
            .launch_recovering_replica(group);
        self.process_outs(node, outs, now, Duration::ZERO);
    }

    /// Crashes an entire processor: Totem membership, mechanisms state,
    /// and all hosted replicas are lost.
    pub fn crash_processor(&mut self, node: NodeId) {
        self.ring.crash(node);
        for info in self.groups.values_mut() {
            info.hosting.remove(&node);
        }
        // Recovery aimed at the crashed processor (it was the recovering
        // host of a started launch) can never finish; abort it so the
        // group can be given a replacement elsewhere.
        self.abort_recovery_at(node, None);
        let proc = &mut self.procs[node.0 as usize];
        proc.last_token_at = None;
        // The crashed node's queues died with it — a stale sample would
        // otherwise surface in its first post-restart health snapshots.
        proc.backpressure = Default::default();
        self.record_event(format!("{node}/cluster"), EventKind::ProcessorCrashed, "");
    }

    /// Drops the launches whose recovering replica lived on `node`
    /// (scoped to one group when `only` is set), with everything
    /// observed of their state transfers. Without this, killing the new
    /// host mid-transfer would keep its group's launch in flight
    /// forever and the resource manager could never launch a fresh
    /// replacement. A launch still waiting out its launch delay is left
    /// to [`Cluster::start_launch`], which finds the processor down.
    fn abort_recovery_at(&mut self, node: NodeId, only: Option<GroupId>) {
        self.launches.retain(|&(g, n), launch| {
            n != node || only.is_some_and(|og| og != g) || launch.launched_at.is_none()
        });
    }

    /// Restarts a crashed processor with empty volatile state; its
    /// Totem node rejoins and groups re-register (no replicas are
    /// instantiated — recovery launches them).
    pub fn restart_processor(&mut self, node: NodeId) {
        assert!(!self.is_alive(node), "restart of a live processor");
        let actions = self.ring.restart(node);
        let proc = &mut self.procs[node.0 as usize];
        proc.incarnation += 1;
        let mut mech = Processor::new_mechanisms(node, &self.config);
        mech.set_incarnation(proc.incarnation);
        for (&id, info) in &self.groups {
            mech.register_group(info.meta(id));
        }
        proc.mech = mech;
        proc.reasm = EternalReassembler::new();
        let now = self.now();
        self.record_event(format!("{node}/cluster"), EventKind::ProcessorRestarted, "");
        self.apply_totem_actions(node, actions);
        // The replicas of the previous incarnation died with its
        // process, but a fast restart can rejoin the ring before
        // token-loss detection ever excluded the node — the survivors'
        // membership-change fault path then never fires, and they would
        // keep the dead replicas in their operational views forever
        // (even electing the empty node as a state donor, wedging every
        // later recovery of those groups). The rejoined fault detector
        // therefore announces the deaths itself, once per group, at a
        // total-order point; pruning a host that was never operational
        // is a no-op, and the resource manager restores replica counts
        // idempotently.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            self.do_multicast(
                node,
                EternalMessage::ReplicaFault { group, host: node },
                now,
                TraceTag::NONE,
            );
        }
    }

    /// The Resource Manager's reaction to a delivered fault: restore the
    /// replica count (paper §2). Acts once per fault, at the lowest live
    /// processor, with a deterministic replacement choice.
    pub(super) fn resource_manager_hook(&mut self, node: NodeId, message: &EternalMessage) {
        let EternalMessage::ReplicaFault { group, .. } = message else {
            return;
        };
        if Some(node) == self.ring.live().next() {
            self.restore_strength(*group, None);
        }
    }

    /// The Resource Manager's reaction to a membership change, once per
    /// change: hosts that went down leave the hosting map, and every
    /// group left under strength — but not without a replica to copy
    /// state from — gets a replacement among the new `members`.
    pub(super) fn resource_manager_config_change(&mut self, members: &[NodeId]) {
        if !self.config.auto_recover {
            return;
        }
        let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
        let alive: Vec<NodeId> = member_set.iter().copied().collect();
        // Only hosts that are actually down leave the hosting map. A
        // processor absent from this membership may merely be on the
        // other side of a partition, still running its replicas; during
        // a split both components react to their own configuration
        // change against this shared map, and treating the other side
        // as dead would empty every group's hosting and permanently
        // disable auto-recovery after the heal.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let info = self.groups.get_mut(&group).expect("listed");
            let ring = &self.ring;
            info.hosting
                .retain(|h| member_set.contains(h) || ring.is_alive(*h));
            // A passive group below minimum but with a live primary is
            // handled by promotion plus (optionally) a new backup; only
            // launch when a state-serving path exists to copy from
            // (total loss: nothing to transfer state from).
            if !info.hosting.is_empty() {
                self.restore_strength(group, Some(&alive));
            }
        }
    }

    /// The one replacement-launch routine: if `group` is below its
    /// minimum replica count and has no launch in flight (the guard
    /// that keeps the two fault-detection paths — `ReplicaFault`
    /// message, membership change — from double-launching), chooses a
    /// host and launches a replica there. The candidates are the
    /// `members` of a new configuration or, on the fault path (`None`),
    /// the live processors, the lowest of which acts as the manager.
    ///
    /// Called from both resource-manager paths, and again whenever a
    /// launch ends: a replica fault delivered *during* a launch (e.g.
    /// the state donor dying mid-chunk-stream) is dropped by the
    /// double-launch guard, so the count must be re-examined once the
    /// launch is over.
    fn restore_strength(&mut self, group: GroupId, members: Option<&[NodeId]>) {
        if !self.config.auto_recover || self.launches.keys().any(|&(g, _)| g == group) {
            return;
        }
        let Some(info) = self.groups.get(&group) else {
            return;
        };
        if info.hosting.len() >= info.props.min_replicas {
            return;
        }
        let live: Vec<NodeId>;
        let (alive, manager) = match members {
            Some(members) => (members, None),
            None => {
                live = self.ring.live().collect();
                (&live[..], live.first())
            }
        };
        let hosting: Vec<NodeId> = info.hosting.iter().copied().collect();
        if let Some(replacement) = self
            .res_mgr
            .choose_replacement(&info.hosts, &hosting, alive)
        {
            let source = match manager {
                Some(rm_node) => format!("{rm_node}/resource-manager"),
                None => "cluster/resource-manager".to_string(),
            };
            let choice = format!("{group} -> {replacement}");
            self.record_event(source, EventKind::ReplacementChosen, choice);
            self.launch_replica(group, replacement);
        }
    }

    /// The Evolution Manager (paper §2): upgrades a replicated server to
    /// a new implementation **without taking the service down**, by
    /// exploiting the replication itself. Replicas running the old
    /// implementation are killed one at a time; each replacement is
    /// instantiated from `factory` and synchronized through the normal
    /// §5.1 state transfer, so the new version starts from the old
    /// version's state. The group keeps serving throughout (its other
    /// replicas answer while each one is replaced).
    ///
    /// The new implementation must accept the old one's `set_state`
    /// payload (state-format compatibility is the application's
    /// contract, exactly as in the paper's Evolution Manager).
    ///
    /// # Panics
    ///
    /// Panics if the group is unknown, not active-style (rolling
    /// replacement needs siblings to serve state), or already upgrading.
    pub fn upgrade_server<F>(&mut self, group: GroupId, factory: F)
    where
        F: Fn() -> Box<dyn CheckpointableServant> + Send + Sync + 'static,
    {
        let info = self.groups.get_mut(&group).expect("unknown group");
        assert_eq!(
            info.props.style,
            ReplicationStyle::Active,
            "rolling upgrade requires active replication"
        );
        assert!(
            !self.upgrades.contains_key(&group),
            "upgrade already in progress"
        );
        let make_kind = server_kind(factory);
        info.make_kind = Arc::clone(&make_kind);
        // Future instantiations everywhere use the new implementation.
        for Processor { mech, .. } in &mut self.procs {
            mech.replace_group_kind(group, make_kind());
        }
        let mut old_replicas: Vec<NodeId> = self.groups[&group].hosting.iter().copied().collect();
        old_replicas.reverse(); // pop() upgrades in host order
        self.record_event(
            "cluster/evolution-manager",
            EventKind::UpgradeBegin,
            format!("{group} replicas={old_replicas:?}"),
        );
        self.upgrades.insert(group, old_replicas);
        self.upgrade_step(group);
    }

    /// Whether an upgrade is still replacing old replicas of `group`.
    pub fn upgrade_in_progress(&self, group: GroupId) -> bool {
        self.upgrades.contains_key(&group)
    }

    fn upgrade_step(&mut self, group: GroupId) {
        let Some(queue) = self.upgrades.get_mut(&group) else {
            return;
        };
        let Some(victim) = queue.pop() else {
            self.upgrades.remove(&group);
            self.record_event(
                "cluster/evolution-manager",
                EventKind::UpgradeComplete,
                format!("{group}"),
            );
            return;
        };
        // Kill the old-version replica; the resource manager launches a
        // replacement that instantiates the new implementation and is
        // state-synchronized by the recovery mechanisms.
        self.kill_replica(group, victim);
    }

    /// The started launch of `group`'s replica on `new_host`, if one is
    /// in flight. Recovery-protocol traffic can outlive the launch it
    /// belonged to (the recovering host crashed while a retrieval or a
    /// donor's capture was still in flight); observing it then would
    /// resurrect a launch nobody will ever complete, so only launches
    /// still on the table are tracked.
    fn started_launch(&mut self, group: GroupId, new_host: NodeId) -> Option<&mut Launch> {
        self.launches
            .get_mut(&(group, new_host))
            .filter(|launch| launch.launched_at.is_some())
    }

    /// A donor captured its state for the recovery `transfer` of
    /// `group`'s replica on `new_host`, `quiesce_wait` after the
    /// retrieval's delivery; the first chunks leave `capture_time`
    /// later. Under active replication every operational replica
    /// captures; the earliest sender defines the episode. (Donors may
    /// see the retrieval before the new host does, so the episode is
    /// created here if needed.)
    pub(super) fn observe_capture(
        &mut self,
        (group, new_host): (GroupId, NodeId),
        transfer: TransferId,
        capture_begin: SimTime,
        capture_time: Duration,
    ) {
        let Some(launch) = self.started_launch(group, new_host) else {
            return;
        };
        let ep = launch.episodes.entry(transfer).or_default();
        let send_at = capture_begin + capture_time;
        if ep.send_at.is_none_or(|s| send_at < s) {
            ep.capture_begin = Some(capture_begin);
            ep.send_at = Some(send_at);
        }
    }

    /// Watches recovery-protocol messages delivered at `node` to place
    /// the episode boundaries that only the cluster can see, at the
    /// recovering replica's own host: the retrieval opens the episode,
    /// the last chunk's delivery opens the blocking window (the replica
    /// drops, rather than holds, its traffic while chunks stream), and
    /// the suffix's is the set_state instant.
    pub(super) fn observe_recovery_message(
        &mut self,
        node: NodeId,
        message: &EternalMessage,
        now: SimTime,
    ) {
        let (group, new_host, transfer) = match *message {
            EternalMessage::StateRetrieval {
                group,
                transfer,
                purpose: RetrievalPurpose::Recovery { new_host },
            }
            | EternalMessage::StateChunk {
                group,
                transfer,
                new_host,
                ..
            }
            | EternalMessage::StateSuffix {
                group,
                transfer,
                new_host,
                ..
            } => (group, new_host, transfer),
            _ => return,
        };
        if node != new_host {
            return;
        }
        let Some(launch) = self.started_launch(group, new_host) else {
            return;
        };
        match message {
            EternalMessage::StateRetrieval { .. } => {
                launch.episodes.entry(transfer).or_default();
            }
            EternalMessage::StateChunk { index, total, .. }
                if u64::from(*index) + 1 == u64::from(*total) =>
            {
                if let Some(ep) = launch.episodes.get_mut(&transfer) {
                    ep.enqueue_at = Some(now);
                }
            }
            EternalMessage::StateSuffix { .. } => {
                if let Some(ep) = launch.episodes.get_mut(&transfer) {
                    ep.assignment_at.get_or_insert(now);
                }
            }
            _ => {}
        }
    }

    /// `group`'s replica on `node` is reinstated: its launch ends, the
    /// group's strength is re-examined (and a rolling upgrade moves on
    /// to the next old replica), and a launch that had started is
    /// recorded as a completed recovery.
    pub(super) fn complete_launch(
        &mut self,
        node: NodeId,
        group: GroupId,
        app_state_bytes: usize,
        now: SimTime,
    ) {
        let launch = self.launches.remove(&(group, node));
        self.restore_strength(group, None);
        // Evolution Manager: this replacement is running the new
        // implementation; replace the next one.
        self.upgrade_step(group);
        if let Some(Launch {
            launched_at: Some(t0),
            episodes,
        }) = launch
        {
            // The group-blocking window runs from the instant the new
            // replica started holding traffic (see
            // `EpisodeObs::enqueue_at`) to reinstatement; a launch that
            // never reached the enqueue point conservatively counts
            // from its start.
            let enqueue_at = episodes.values().filter_map(|ep| ep.enqueue_at).max();
            let blocking_window = now - enqueue_at.unwrap_or(t0).min(now);
            self.metrics.recoveries.push(RecoveryRecord {
                launched_at: t0,
                operational_at: now,
                app_state_bytes,
                blocking_window,
            });
            self.metrics.recoveries_completed += 1;
            self.registry
                .histogram_record("eternal.recovery_time", now - t0);
            self.registry
                .histogram_record("eternal.blocking_window", blocking_window);
            // The completed attempt is the one whose suffix reached the
            // new host (the latest such transfer wins); a retry after an
            // aborted transfer can have left an earlier one beside it.
            let completed = episodes
                .into_iter()
                .max_by_key(|(transfer, ep)| (ep.assignment_at.is_some(), *transfer));
            if let Some((_, ep)) = completed {
                self.record_timeline(node, group, &ep, t0, now, app_state_bytes);
            }
        }
        self.record_event(
            format!("{node}/recovery"),
            EventKind::RecoveryComplete,
            format!("{group} {app_state_bytes}B"),
        );
    }

    /// Turns a completed launch's episode into a phase-resolved
    /// [`RecoveryTimeline`]: five contiguous phases tiling
    /// [launched_at, operational_at] exactly (§5.1's quiesce →
    /// get_state → transfer → set_state → replay). When tracing, the
    /// timeline is also emitted retrospectively as nested spans.
    fn record_timeline(
        &mut self,
        node: NodeId,
        group: GroupId,
        ep: &EpisodeObs,
        launched_at: SimTime,
        operational_at: SimTime,
        app_state_bytes: usize,
    ) {
        let clamp = |t: SimTime, lo: SimTime| t.max(lo).min(operational_at);
        let t0 = launched_at;
        let cb = clamp(ep.capture_begin.unwrap_or(t0), t0);
        let snd = clamp(ep.send_at.unwrap_or(cb), cb);
        let ta = clamp(ep.assignment_at.unwrap_or(operational_at), snd);
        let bounds = [t0, cb, snd, ta, ta, operational_at];
        let phases: Vec<PhaseSpan> = RecoveryPhase::ALL
            .iter()
            .enumerate()
            .map(|(i, &phase)| PhaseSpan {
                phase,
                begin: bounds[i],
                end: bounds[i + 1],
            })
            .collect();
        let timeline = RecoveryTimeline {
            label: format!("{group}@{node}"),
            launched_at,
            operational_at,
            app_state_bytes,
            phases,
        };
        if self.trace.is_enabled() {
            let source = format!("{node}/recovery");
            let episode = self.trace.span_begin(
                launched_at,
                source.clone(),
                EventKind::RecoveryEpisode,
                format!("{group} {app_state_bytes}B"),
                None,
            );
            for p in &timeline.phases {
                let s = self.trace.span_begin(
                    p.begin,
                    source.clone(),
                    EventKind::Phase(p.phase),
                    String::new(),
                    Some(episode),
                );
                self.trace.span_end(p.end, s);
            }
            self.trace.span_end(operational_at, episode);
        }
        self.timelines.push(timeline);
    }
}
