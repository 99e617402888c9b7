//! A deterministic driver for Totem on its own: a [`Ring`] (which owns
//! the scheduler, the network model and the engines — see
//! [`crate::ring`]) with nothing above it. The harness executes every
//! engine action as it comes and logs the ordered [`Delivery`] events
//! per node, which is all the protocol tests need. The Eternal cluster
//! is the other driver of the same [`Ring`], with replication
//! mechanisms consuming the deliveries instead of a log.

use crate::config::TotemConfig;
use crate::node::{Action, Delivery, TotemNode};
use crate::ring::{Popped, Ring};
use eternal_sim::choice::SharedChoiceSource;
use eternal_sim::net::{NetworkConfig, NetworkModel, NodeId};
use eternal_sim::{Bytes, Duration, SimTime};

/// Drives [`TotemNode`]s over the deterministic network model.
#[derive(Debug)]
pub struct TotemHarness {
    ring: Ring<()>,
    /// Ordered deliveries per node since its (re)start, by node id.
    delivered: Vec<Vec<Delivery>>,
    /// The action buffer every call into the ring is lent, and that
    /// `apply_actions` drains.
    actions: Vec<Action>,
}

impl TotemHarness {
    /// Creates `n` nodes over a default network and starts them all.
    pub fn new(n: u32, cfg: TotemConfig, seed: u64) -> Self {
        Self::with_network(n, cfg, NetworkConfig::default(), seed)
    }

    /// Creates `n` nodes over a custom network and starts them all.
    pub fn with_network(n: u32, cfg: TotemConfig, net_cfg: NetworkConfig, seed: u64) -> Self {
        let mut h = TotemHarness {
            ring: Ring::new(n, cfg, net_cfg, seed),
            delivered: vec![Vec::new(); n as usize],
            actions: Vec::new(),
        };
        for id in h.nodes() {
            h.ring.start(id, &mut h.actions);
            h.apply_actions(id);
        }
        h
    }

    /// Installs a schedule-exploration choice source (see
    /// [`Ring::set_choice_source`]).
    pub fn set_choice_source(&mut self, source: SharedChoiceSource) {
        self.ring.set_choice_source(source);
    }

    /// Node ids, in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.ring.nodes().to_vec()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ring.now()
    }

    /// Immutable access to a node's engine.
    pub fn node(&self, id: NodeId) -> &TotemNode {
        self.ring.node(id)
    }

    /// The network model (for partitioning, statistics).
    pub fn net_mut(&mut self) -> &mut NetworkModel {
        self.ring.net_mut()
    }

    /// The network model, read-only.
    pub fn net(&self) -> &NetworkModel {
        self.ring.net()
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.ring.is_alive(id)
    }

    /// Queues an application payload for totally ordered broadcast from
    /// `id`.
    pub fn broadcast(&mut self, id: NodeId, data: impl Into<Bytes>) {
        self.ring.broadcast(id, data, &mut self.actions);
        self.apply_actions(id);
    }

    /// Crashes a node: it stops sending, receiving, and processing, and
    /// loses all volatile state.
    pub fn kill(&mut self, id: NodeId) {
        self.ring.crash(id);
    }

    /// Restarts a crashed node with a fresh engine (volatile state lost,
    /// as after a real crash). Its delivery log is cleared.
    pub fn restart(&mut self, id: NodeId) {
        self.ring.restart(id, &mut self.actions);
        self.delivered[id.0 as usize].clear();
        self.apply_actions(id);
    }

    /// Ordered deliveries observed at `id` since start/restart.
    pub fn deliveries(&self, id: NodeId) -> &[Delivery] {
        &self.delivered[id.0 as usize]
    }

    /// Only the message payloads delivered at `id`, in order.
    pub fn delivered_payloads(&self, id: NodeId) -> Vec<Vec<u8>> {
        self.deliveries(id)
            .iter()
            .filter_map(|d| match d {
                Delivery::Message { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .collect()
    }

    /// Executes one scheduled event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::FAR_FUTURE)
    }

    /// Executes the next event at or before `until`; `false` if none.
    fn step_until(&mut self, until: SimTime) -> bool {
        match self.ring.pop(until, &mut self.actions) {
            None => return false,
            Some(Popped::Actions { node, .. }) => self.apply_actions(node),
            Some(Popped::Ext(())) => {}
        }
        true
    }

    /// Runs until virtual time `deadline` (events after it stay queued).
    pub fn run_until_time(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until_time(deadline);
    }

    /// Runs until every live node is operational on the same ring whose
    /// membership is exactly the live set.
    ///
    /// # Panics
    ///
    /// Panics if formation does not converge within 30 virtual seconds.
    pub fn run_until_formed(&mut self) {
        let deadline = self.now() + Duration::from_secs(30);
        while !self.formed() {
            assert!(
                self.now() < deadline,
                "ring formation did not converge by {deadline}"
            );
            if !self.step() {
                panic!("simulation ran dry before the ring formed");
            }
        }
    }

    /// Whether all live nodes share one ring containing exactly the live
    /// nodes.
    pub fn formed(&self) -> bool {
        self.ring.formed()
    }

    /// Executes, in order, what the last call into the ring appended to
    /// the lent buffer, leaving it empty for the next.
    fn apply_actions(&mut self, src: NodeId) {
        for action in self.actions.drain(..) {
            if let Some(delivery) = self.ring.execute(src, action) {
                self.delivered[src.0 as usize].push(delivery);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn three_nodes_form_and_order_messages() {
        let mut h = TotemHarness::new(3, TotemConfig::default(), 1);
        h.run_until_formed();
        h.broadcast(n(0), b"a".to_vec());
        h.broadcast(n(1), b"b".to_vec());
        h.broadcast(n(2), b"c".to_vec());
        h.run_for(Duration::from_millis(100));
        let order0 = h.delivered_payloads(n(0));
        assert_eq!(order0.len(), 3);
        for id in [n(1), n(2)] {
            assert_eq!(h.delivered_payloads(id), order0, "order differs at {id}");
        }
    }

    #[test]
    fn heavy_load_is_delivered_everywhere_in_same_order() {
        let mut h = TotemHarness::new(4, TotemConfig::default(), 2);
        h.run_until_formed();
        for i in 0..100u32 {
            let src = n(i % 4);
            h.broadcast(src, i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_secs(2));
        let order0 = h.delivered_payloads(n(0));
        assert_eq!(order0.len(), 100);
        for i in 1..4 {
            assert_eq!(h.delivered_payloads(n(i)), order0);
        }
    }

    #[test]
    fn lossy_network_still_delivers_total_order() {
        let net_cfg = NetworkConfig {
            loss_probability: 0.05,
            ..NetworkConfig::default()
        };
        let mut h = TotemHarness::with_network(3, TotemConfig::default(), net_cfg, 3);
        h.run_until_formed();
        for i in 0..50u32 {
            h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_secs(5));
        let order0 = h.delivered_payloads(n(0));
        assert_eq!(order0.len(), 50, "all messages delivered despite loss");
        for i in 1..3 {
            assert_eq!(h.delivered_payloads(n(i)), order0);
        }
    }

    #[test]
    fn killing_a_node_reforms_the_ring() {
        let mut h = TotemHarness::new(3, TotemConfig::default(), 4);
        h.run_until_formed();
        h.kill(n(2));
        h.run_for(Duration::from_millis(500));
        assert!(h.formed(), "survivors should reform");
        let survivors_ring = h.node(n(0)).members().to_vec();
        assert_eq!(survivors_ring, vec![n(0), n(1)]);
        // Traffic still flows.
        h.broadcast(n(0), b"post-failure".to_vec());
        h.run_for(Duration::from_millis(100));
        assert_eq!(h.delivered_payloads(n(1)).last().unwrap(), b"post-failure");
    }

    #[test]
    fn restarted_node_rejoins() {
        let mut h = TotemHarness::new(3, TotemConfig::default(), 5);
        h.run_until_formed();
        h.kill(n(1));
        h.run_for(Duration::from_millis(300));
        h.restart(n(1));
        h.run_for(Duration::from_millis(500));
        assert!(h.formed(), "rejoin should converge");
        assert_eq!(h.node(n(0)).members(), &[n(0), n(1), n(2)]);
        h.broadcast(n(1), b"back".to_vec());
        h.run_for(Duration::from_millis(100));
        for i in 0..3 {
            assert_eq!(h.delivered_payloads(n(i)).last().unwrap(), b"back");
        }
    }

    #[test]
    fn virtual_synchrony_on_failure() {
        // Messages broadcast right before a failure must be delivered by
        // all survivors before their config change, identically.
        let mut h = TotemHarness::new(3, TotemConfig::default(), 6);
        h.run_until_formed();
        for i in 0..20u32 {
            h.broadcast(n(0), i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_millis(5));
        h.kill(n(2));
        h.run_for(Duration::from_secs(2));
        assert!(h.formed());
        // Compare the full delivery logs (messages + config changes) of
        // the survivors after the initial formation event.
        let log = |id: NodeId| -> Vec<String> {
            h.deliveries(id)
                .iter()
                .map(|d| match d {
                    Delivery::Message { sender, data, .. } => {
                        format!("msg {sender} {data:?}")
                    }
                    Delivery::ConfigChange { members, .. } => format!("cfg {members:?}"),
                })
                .collect()
        };
        assert_eq!(log(n(0)), log(n(1)));
        // All 20 messages were delivered (broadcast by the survivor n0).
        assert_eq!(h.delivered_payloads(n(0)).len(), 20);
    }

    #[test]
    fn partition_and_heal_reform_total_order() {
        let mut h = TotemHarness::new(4, TotemConfig::default(), 7);
        h.run_until_formed();
        h.net_mut().partition(&[&[n(0), n(1)], &[n(2), n(3)]]);
        h.run_for(Duration::from_secs(1));
        // Each side reformed among itself.
        assert_eq!(h.node(n(0)).members(), &[n(0), n(1)]);
        assert_eq!(h.node(n(2)).members(), &[n(2), n(3)]);
        // Independent progress on both sides.
        h.broadcast(n(0), b"left".to_vec());
        h.broadcast(n(2), b"right".to_vec());
        h.run_for(Duration::from_millis(200));
        assert_eq!(h.delivered_payloads(n(1)), vec![b"left".to_vec()]);
        assert_eq!(h.delivered_payloads(n(3)), vec![b"right".to_vec()]);
        // Heal: one ring again, traffic flows everywhere.
        h.net_mut().heal();
        h.run_for(Duration::from_secs(2));
        assert!(h.formed(), "remerge should converge");
        h.broadcast(n(3), b"merged".to_vec());
        h.run_for(Duration::from_millis(200));
        for i in 0..4 {
            assert_eq!(h.delivered_payloads(n(i)).last().unwrap(), b"merged");
        }
    }

    #[test]
    fn no_duplicate_deliveries_under_loss_and_failure() {
        let net_cfg = NetworkConfig {
            loss_probability: 0.02,
            ..NetworkConfig::default()
        };
        let mut h = TotemHarness::with_network(3, TotemConfig::default(), net_cfg, 8);
        h.run_until_formed();
        for i in 0..30u32 {
            h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
        }
        h.run_for(Duration::from_millis(20));
        h.kill(n(2));
        h.run_for(Duration::from_secs(3));
        for id in [n(0), n(1)] {
            let payloads = h.delivered_payloads(id);
            let mut dedup = payloads.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), payloads.len(), "duplicates at {id}");
        }
    }

    #[test]
    fn the_lent_buffer_and_a_fresh_one_per_call_give_the_same_record() {
        // `fresh` hands every call into the ring a new vector, as the
        // engine's allocating wrappers do; otherwise one buffer is lent,
        // drained and lent again. A lossy stream through a crash and a
        // restart must leave the same deliveries at every node.
        let run = |fresh: bool| {
            let net_cfg = NetworkConfig {
                loss_probability: 0.05,
                ..NetworkConfig::default()
            };
            let mut h = TotemHarness::with_network(4, TotemConfig::default(), net_cfg, 12);
            h.run_until_formed();
            let step = |h: &mut TotemHarness, until| {
                if fresh {
                    h.actions = Vec::new();
                }
                h.step_until(until)
            };
            for i in 0..300u32 {
                match i {
                    100 => h.kill(n(3)),
                    200 => h.restart(n(3)),
                    _ => {}
                }
                if fresh {
                    h.actions = Vec::new();
                }
                h.broadcast(n(i % 3), vec![i as u8; 1 + (i as usize * 13) % 900]);
                for _ in 0..8 {
                    step(&mut h, SimTime::FAR_FUTURE);
                }
            }
            let deadline = h.now() + Duration::from_secs(2);
            while step(&mut h, deadline) {}
            assert!(h.formed());
            let record: Vec<Vec<Delivery>> = h
                .nodes()
                .into_iter()
                .map(|id| h.deliveries(id).to_vec())
                .collect();
            (record, h.now(), h.net().frames_dropped())
        };
        let lent = run(false);
        assert!(lent.0[0].len() > 300 && lent.2 > 0);
        assert_eq!(lent, run(true));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut h = TotemHarness::new(3, TotemConfig::default(), seed);
            h.run_until_formed();
            for i in 0..10u32 {
                h.broadcast(n(i % 3), i.to_be_bytes().to_vec());
            }
            h.run_for(Duration::from_millis(500));
            (h.delivered_payloads(n(0)), h.now())
        };
        assert_eq!(run(42), run(42));
    }
}
