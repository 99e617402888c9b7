//! The paper's §6 experiment in miniature: a packet-driver client
//! streams two-way invocations at a 2-way actively replicated server;
//! one replica is killed and re-launched while the stream continues.
//! Recovery time is measured for several application-state sizes,
//! showing the Figure 6 effect: recovery time grows with the size of
//! the state that must be fragmented across Ethernet-sized multicasts.
//!
//! ```sh
//! cargo run --release --example packet_driver
//! ```

use eternal::app::{BlobServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::properties::FaultToleranceProperties;
use eternal_sim::Duration;

fn recovery_time_for(state_bytes: usize) -> (Duration, u64) {
    let config = ClusterConfig::default();
    let mut cluster = Cluster::new(config, 42);
    let server = cluster.deploy_server("blob", FaultToleranceProperties::active(2), move || {
        Box::new(BlobServant::with_size(state_bytes))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4))
    });
    cluster.run_until_deployed();
    cluster.run_for(Duration::from_millis(50));

    let victim = cluster.hosting(server)[0];
    cluster.kill_replica(server, victim);
    cluster.run_for(Duration::from_secs(3));

    let m = cluster.metrics();
    assert_eq!(m.recoveries_completed, 1, "recovery must complete");
    (m.recoveries[0].recovery_time(), m.replies_delivered)
}

fn main() {
    println!("state size  ->  recovery time   (stream replies)");
    for &size in &[10usize, 1_000, 10_000, 50_000, 100_000, 350_000] {
        let (t, replies) = recovery_time_for(size);
        println!("{size:>9} B  ->  {t:>12}   ({replies} replies delivered)");
    }
    println!();
    println!("recovery time grows with state size: the state travels as a stream");
    println!("of 32 kB chunks, each fragmented into 1518-byte Ethernet multicasts.");
}
