//! Demonstrates *why* application-level state alone is not enough
//! (paper §4): recovery with ORB/POA-level state transfer disabled
//! reproduces both failure modes the paper describes.
//!
//! * §4.2.1 / Figure 4 — a recovered **client** replica whose ORB
//!   restarts its GIOP request-id counter at 0 desynchronizes
//!   request/reply matching: one replica's ORB discards a perfectly
//!   valid reply and its application waits forever.
//! * §4.2.2 — a recovered **server** replica whose ORB never saw the
//!   client-server handshake discards requests that use the negotiated
//!   vendor shortcut.
//!
//! ```sh
//! cargo run --example three_kinds_of_state
//! ```

use eternal::app::{CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

/// Runs the recovery scenario and reports (§4.2.1 discards, §4.2.2
/// discards, replies delivered after recovery).
fn run(transfer_orb_state: bool, recover_client: bool) -> (u64, u64, u64) {
    let mut config = ClusterConfig::default();
    config.mech.transfer_orb_state = transfer_orb_state;
    let mut cluster = Cluster::new(config, 11);

    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    let client = cluster.deploy_client("driver", FaultToleranceProperties::active(2), move |_| {
        Box::new(StreamingClient::new(server, "increment", 2))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(50));

    // Kill and recover one replica of the chosen side.
    let group = if recover_client { client } else { server };
    let victim = cluster.hosting(group)[0];
    cluster.kill_replica(group, victim);
    cluster.run_for(Duration::from_millis(100));
    let before = cluster.metrics().replies_delivered;
    cluster.run_for(Duration::from_millis(200));

    let m = cluster.metrics();
    (
        m.replies_discarded_by_orb,
        m.requests_discarded_unnegotiated,
        m.replies_delivered - before,
    )
}

fn main() {
    println!("=== full three-kinds-of-state transfer (Eternal's behaviour) ===");
    let (discarded_replies, discarded_requests, flowing) = run(true, true);
    println!(
        "client recovery:  ORB-discarded replies={discarded_replies}  \
         unnegotiated requests={discarded_requests}  post-recovery replies={flowing}"
    );
    assert_eq!(discarded_replies, 0);
    assert!(flowing > 0);

    let (discarded_replies, discarded_requests, flowing) = run(true, false);
    println!(
        "server recovery:  ORB-discarded replies={discarded_replies}  \
         unnegotiated requests={discarded_requests}  post-recovery replies={flowing}"
    );
    assert_eq!(discarded_requests, 0);
    assert!(flowing > 0);

    println!();
    println!("=== ablation: application-level state only (no ORB/POA transfer) ===");
    let (discarded_replies, _, _) = run(false, true);
    println!(
        "client recovery:  ORB-discarded replies={discarded_replies}   <- §4.2.1 failure (Figure 4)"
    );
    assert!(discarded_replies > 0, "request-id mismatch must appear");

    let (_, discarded_requests, _) = run(false, false);
    println!(
        "server recovery:  unnegotiated requests discarded={discarded_requests}   <- §4.2.2 failure"
    );
    assert!(discarded_requests > 0, "handshake loss must appear");

    println!();
    println!("application-level state alone is not enough: the ORB/POA-level");
    println!("state (request ids, handshakes) must be synchronized too ✓");
}
