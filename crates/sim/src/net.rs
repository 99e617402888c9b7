//! A model of the paper's testbed network: a single shared 100 Mbps
//! Ethernet segment carrying multicast frames of at most 1518 bytes.
//!
//! The model captures the properties the DSN 2001 evaluation depends on:
//!
//! * **Serialization delay** — a frame of `n` bytes occupies the shared
//!   medium for `n * 8 / bandwidth` seconds; concurrent senders queue
//!   behind the medium's `busy_until` time. This is what makes
//!   state-transfer time grow linearly with state size in Figure 6.
//! * **Maximum frame size** — callers (the Totem layer) must fragment
//!   larger messages; [`NetworkConfig::max_frame`] is exposed so they can.
//! * **Loss** — each receiver independently drops a frame with a
//!   configurable probability, exercising Totem's retransmission path.
//! * **Partitions and crashed nodes** — frames do not cross partition
//!   boundaries, and crashed nodes neither send nor receive.

use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use std::fmt;

/// Identifies a processor attached to the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Static parameters of the simulated network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Link bandwidth in bits per second. Default: 100 Mbps, matching the
    /// paper's testbed.
    pub bandwidth_bps: u64,
    /// One-way propagation plus interrupt/driver latency per frame.
    pub propagation_delay: Duration,
    /// Maximum frame size in bytes (Ethernet: 1518, including headers).
    pub max_frame: usize,
    /// Per-frame header overhead (Ethernet MAC + IP + UDP). Subtracted
    /// from `max_frame` to obtain the usable payload per frame.
    pub frame_overhead: usize,
    /// Probability that any given receiver drops any given frame.
    pub loss_probability: f64,
    /// CPU cost charged to the receiver for processing one frame.
    pub per_frame_recv_cpu: Duration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::from_micros(50),
            max_frame: 1518,
            frame_overhead: 46, // 18 B Ethernet + 20 B IP + 8 B UDP
            loss_probability: 0.0,
            per_frame_recv_cpu: Duration::from_micros(20),
        }
    }
}

impl NetworkConfig {
    /// Usable payload bytes per frame.
    pub fn frame_payload(&self) -> usize {
        self.max_frame - self.frame_overhead
    }

    /// Number of frames needed to carry a message of `len` payload bytes.
    /// A zero-length message still requires one frame.
    pub fn frames_for(&self, len: usize) -> usize {
        len.div_ceil(self.frame_payload()).max(1)
    }

    /// Time for a frame carrying `payload` bytes to serialize onto the
    /// medium (headers included).
    #[inline]
    pub fn serialization_time(&self, payload: usize) -> Duration {
        let wire_bytes = (payload + self.frame_overhead).min(self.max_frame) as u64;
        Duration::from_nanos(wire_bytes * 8 * 1_000_000_000 / self.bandwidth_bps)
    }
}

/// A pending frame delivery computed by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub dst: NodeId,
    /// Time at which the frame becomes available at the receiver.
    pub at: SimTime,
}

/// The shared-medium network model.
///
/// The model is *passive*: callers ask it when a frame sent now would
/// arrive at each reachable receiver, then schedule those deliveries on
/// their own [`crate::sched::Scheduler`].
#[derive(Debug)]
pub struct NetworkModel {
    config: NetworkConfig,
    rng: SimRng,
    nodes: Vec<NodeId>,
    /// Liveness and partition number per node, indexed by node id (ids
    /// are dense `0..n`).
    up: Vec<bool>,
    partition_of: Vec<u32>,
    busy_until: SimTime,
    busy_time: Duration,
    frames_sent: u64,
    frames_dropped: u64,
    bytes_sent: u64,
}

impl NetworkModel {
    /// Creates a network of `n` nodes (ids `0..n`), all up, unpartitioned.
    pub fn new(n: u32, config: NetworkConfig, seed: u64) -> Self {
        NetworkModel {
            config,
            rng: SimRng::seed_from_u64(seed),
            nodes: (0..n).map(NodeId).collect(),
            up: vec![true; n as usize],
            partition_of: vec![0; n as usize],
            busy_until: SimTime::ZERO,
            busy_time: Duration::ZERO,
            frames_sent: 0,
            frames_dropped: 0,
            bytes_sent: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Changes the receiver-side frame-loss probability at runtime
    /// (fault injection: loss bursts). Clamped to `[0, 1]`.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.config.loss_probability = p.clamp(0.0, 1.0);
    }

    /// Changes the per-frame propagation delay at runtime (fault
    /// injection: delay spikes).
    pub fn set_propagation_delay(&mut self, d: Duration) {
        self.config.propagation_delay = d;
    }

    /// All node ids, up or down.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Marks a node as crashed (`false`) or restarted (`true`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not one of this network's nodes.
    pub fn set_up(&mut self, node: NodeId, up: bool) {
        self.up[node.0 as usize] = up;
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Splits the network: each slice in `groups` becomes an isolated
    /// partition. Nodes not listed end up in their own singleton
    /// partitions.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        let mut next = groups.len() as u32;
        for (node, slot) in self.nodes.iter().zip(&mut self.partition_of) {
            *slot = match groups.iter().position(|g| g.contains(node)) {
                Some(i) => i as u32,
                None => {
                    next += 1;
                    next - 1
                }
            };
        }
    }

    /// Removes all partitions, re-merging the network.
    pub fn heal(&mut self) {
        self.partition_of.fill(0);
    }

    /// Whether frames from `a` currently reach `b`.
    pub fn can_reach(&self, a: NodeId, b: NodeId) -> bool {
        self.is_up(a)
            && self.is_up(b)
            && self.partition_of[a.0 as usize] == self.partition_of[b.0 as usize]
    }

    /// Computes the deliveries for a multicast frame of `payload` bytes
    /// sent by `src` at time `now`. The sender itself does not receive
    /// the frame. Frames are serialized through the shared medium in
    /// call order.
    pub fn multicast(&mut self, src: NodeId, payload: usize, now: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.transmit(src, None, payload, now, |d| out.push(d));
        out
    }

    /// Computes the delivery for a unicast frame (used by the
    /// unreplicated point-to-point IIOP baseline).
    #[inline]
    pub fn unicast(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: usize,
        now: SimTime,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.transmit(src, Some(dst), payload, now, |d| out.push(d));
        out
    }

    /// Sends a frame of `payload` bytes from `src` at `now` — to every
    /// other node, or `only` to one — and hands each delivery to
    /// `arrive` as it is drawn, in node order: the fan-out that
    /// [`NetworkModel::multicast`] and [`NetworkModel::unicast`]
    /// collect, without a vector of its own.
    pub fn transmit(
        &mut self,
        src: NodeId,
        only: Option<NodeId>,
        payload: usize,
        now: SimTime,
        mut arrive: impl FnMut(Delivery),
    ) {
        assert!(
            payload <= self.config.frame_payload(),
            "frame payload {payload} exceeds maximum {} — fragment before sending",
            self.config.frame_payload()
        );
        if !self.is_up(src) {
            return;
        }
        let start = now.max(self.busy_until);
        let ser = self.config.serialization_time(payload);
        self.busy_until = start + ser;
        self.busy_time += ser;
        self.frames_sent += 1;
        self.bytes_sent += (payload + self.config.frame_overhead) as u64;
        let arrival = start + ser + self.config.propagation_delay + self.config.per_frame_recv_cpu;

        for &dst in &self.nodes {
            if dst == src || only.is_some_and(|d| d != dst) || !self.can_reach(src, dst) {
                continue;
            }
            if self.rng.chance(self.config.loss_probability) {
                self.frames_dropped += 1;
                continue;
            }
            arrive(Delivery { dst, at: arrival });
        }
    }

    /// Total frames handed to the medium so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total receiver-side drops injected so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Total wire bytes (payload + headers) transmitted so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Cumulative time the shared medium has spent serializing frames —
    /// the utilization numerator for throughput benchmarks (batching
    /// shows up directly as less busy time per delivered message).
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: u32) -> NetworkModel {
        NetworkModel::new(n, NetworkConfig::default(), 42)
    }

    #[test]
    fn frame_payload_excludes_overhead() {
        let c = NetworkConfig::default();
        assert_eq!(c.frame_payload(), 1472);
    }

    #[test]
    fn frames_for_counts_fragments() {
        let c = NetworkConfig::default();
        assert_eq!(c.frames_for(0), 1);
        assert_eq!(c.frames_for(1), 1);
        assert_eq!(c.frames_for(1472), 1);
        assert_eq!(c.frames_for(1473), 2);
        assert_eq!(c.frames_for(350_000), 238);
    }

    #[test]
    fn serialization_time_scales_with_size() {
        let c = NetworkConfig::default();
        // 1472 + 46 = 1518 B = 12144 bits at 100 Mbps = 121.44 us.
        assert_eq!(c.serialization_time(1472), Duration::from_nanos(121_440));
        assert!(c.serialization_time(10) < c.serialization_time(1000));
    }

    #[test]
    fn multicast_reaches_all_but_sender() {
        let mut n = net(4);
        let d = n.multicast(NodeId(0), 100, SimTime::ZERO);
        let dsts: Vec<_> = d.iter().map(|x| x.dst).collect();
        assert_eq!(dsts, vec![NodeId(1), NodeId(2), NodeId(3)]);
        // All receivers get it at the same instant (shared medium).
        assert!(d.windows(2).all(|w| w[0].at == w[1].at));
    }

    #[test]
    fn medium_serializes_back_to_back_sends() {
        let mut n = net(2);
        let d1 = n.multicast(NodeId(0), 1472, SimTime::ZERO);
        let d2 = n.multicast(NodeId(1), 1472, SimTime::ZERO);
        // The second frame queues behind the first.
        assert!(d2[0].at > d1[0].at);
        assert_eq!(
            d2[0].at - d1[0].at,
            NetworkConfig::default().serialization_time(1472)
        );
    }

    #[test]
    fn crashed_node_sends_and_receives_nothing() {
        let mut n = net(3);
        n.set_up(NodeId(1), false);
        let d = n.multicast(NodeId(0), 10, SimTime::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, NodeId(2));
        assert!(n.multicast(NodeId(1), 10, SimTime::ZERO).is_empty());
        n.set_up(NodeId(1), true);
        assert_eq!(n.multicast(NodeId(0), 10, SimTime::ZERO).len(), 2);
    }

    #[test]
    fn partition_blocks_cross_traffic_and_heal_restores() {
        let mut n = net(4);
        n.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]]);
        let d = n.multicast(NodeId(0), 10, SimTime::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, NodeId(1));
        assert!(!n.can_reach(NodeId(0), NodeId(2)));
        n.heal();
        assert!(n.can_reach(NodeId(0), NodeId(2)));
        assert_eq!(n.multicast(NodeId(0), 10, SimTime::ZERO).len(), 3);
    }

    #[test]
    fn unlisted_nodes_get_singleton_partitions() {
        let mut n = net(3);
        n.partition(&[&[NodeId(0)]]);
        assert!(!n.can_reach(NodeId(1), NodeId(2)));
        assert!(!n.can_reach(NodeId(0), NodeId(1)));
    }

    #[test]
    fn loss_probability_drops_frames() {
        let cfg = NetworkConfig {
            loss_probability: 1.0,
            ..NetworkConfig::default()
        };
        let mut n = NetworkModel::new(2, cfg, 1);
        assert!(n.multicast(NodeId(0), 10, SimTime::ZERO).is_empty());
        assert_eq!(n.frames_dropped(), 1);
    }

    #[test]
    fn runtime_fault_knobs_apply_and_restore() {
        let mut n = net(2);
        n.set_loss_probability(1.0);
        assert!(n.multicast(NodeId(0), 10, SimTime::ZERO).is_empty());
        n.set_loss_probability(0.0);
        assert_eq!(n.multicast(NodeId(0), 10, SimTime::ZERO).len(), 1);
        let base = n.multicast(NodeId(0), 10, SimTime::ZERO)[0].at;
        n.set_propagation_delay(Duration::from_millis(5));
        let spiked = n.multicast(NodeId(0), 10, SimTime::ZERO)[0].at;
        assert!(spiked > base + Duration::from_millis(4));
        // Out-of-range probabilities are clamped, not propagated.
        n.set_loss_probability(7.0);
        assert_eq!(n.config().loss_probability, 1.0);
    }

    #[test]
    fn unicast_reaches_only_target() {
        let mut n = net(3);
        let d = n.unicast(NodeId(0), NodeId(2), 10, SimTime::ZERO);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, NodeId(2));
    }

    #[test]
    fn the_fan_out_draws_what_the_collected_deliveries_hold() {
        // Two models on one seed, one asked through the wrappers and one
        // through `transmit`: the same destinations, instants and loss
        // draws, frame after frame, through a crash and a partition.
        let cfg = NetworkConfig {
            loss_probability: 0.3,
            ..NetworkConfig::default()
        };
        let (mut collected, mut fanned) = (
            NetworkModel::new(5, cfg.clone(), 9),
            NetworkModel::new(5, cfg, 9),
        );
        let mut now = SimTime::ZERO;
        for i in 0..400u32 {
            let (src, payload) = (NodeId(i % 5), 10 + (i as usize * 37) % 1400);
            let only = (i % 7 == 0).then_some(NodeId((i + 2) % 5));
            for net in [&mut collected, &mut fanned] {
                match i {
                    100 => net.set_up(NodeId(3), false),
                    200 => net.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(4)]]),
                    300 => net.heal(),
                    _ => {}
                }
            }
            let expected = match only {
                Some(dst) => collected.unicast(src, dst, payload, now),
                None => collected.multicast(src, payload, now),
            };
            let mut drawn = Vec::new();
            fanned.transmit(src, only, payload, now, |d| drawn.push(d));
            assert_eq!(drawn, expected, "frame {i}");
            now += Duration::from_micros(40);
        }
        assert!(collected.frames_dropped() > 100);
        let counters = |n: &NetworkModel| {
            (
                n.frames_sent(),
                n.frames_dropped(),
                n.bytes_sent(),
                n.busy_time(),
            )
        };
        assert_eq!(counters(&fanned), counters(&collected));
    }

    #[test]
    #[should_panic(expected = "fragment before sending")]
    fn oversized_frame_panics() {
        let mut n = net(2);
        n.multicast(NodeId(0), 100_000, SimTime::ZERO);
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net(2);
        n.multicast(NodeId(0), 100, SimTime::ZERO);
        n.multicast(NodeId(0), 200, SimTime::ZERO);
        assert_eq!(n.frames_sent(), 2);
        assert_eq!(n.bytes_sent(), 100 + 200 + 2 * 46);
        let cfg = NetworkConfig::default();
        let expected = cfg.serialization_time(100) + cfg.serialization_time(200);
        assert_eq!(n.busy_time(), expected);
    }
}
