//! Quickstart: run the paper's protocol (SRP) on a small static network
//! and watch a route discovery produce a labeled, loop-free DAG.
//!
//! ```sh
//! cargo run --release -p slr-runner --example quickstart
//! ```

use slr_mobility::Position;
use slr_netsim::time::SimTime;
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::Sim;
use slr_traffic::{PacketSpec, TrafficScript};

fn main() {
    // A 6-node line, 200 m spacing — the topology of the paper's Fig. 1:
    // node 5 (E) will discover a route to node 0 (T).
    let positions: Vec<Position> = (0..6)
        .map(|i| Position::new(200.0 * i as f64, 0.0))
        .collect();

    // One CBR flow: node 5 → node 0, 4 packets/s for 20 seconds.
    let packets: Vec<PacketSpec> = (0..80)
        .map(|i| PacketSpec {
            time: SimTime::from_millis(2_000 + i * 250),
            src: 5,
            dst: 0,
            bytes: 512,
            flow: 0,
        })
        .collect();

    let mut scenario = Scenario::quick(ProtocolKind::Srp, 900, 7, 0);
    scenario.nodes = 6;
    scenario.end = SimTime::from_secs(30);

    let sim = Sim::with_static_topology(scenario, positions, TrafficScript::from_packets(packets));
    // Run with the loop-freedom oracle checking Theorem 3 every simulated
    // second; it panics if the successor graph ever stops being a DAG.
    let summary = sim.run_with_loop_oracle(slr_netsim::SimDuration::from_secs(1));

    println!("SRP quickstart (6-node line, one 4 pps CBR flow)");
    println!("  packets originated : {}", summary.originated);
    println!("  packets delivered  : {}", summary.delivered);
    println!("  delivery ratio     : {:.3}", summary.delivery_ratio);
    println!("  mean latency       : {:.4} s", summary.latency);
    println!("  network load       : {:.3}", summary.network_load);
    println!(
        "  seqno increments   : {} (loop-freedom needs none)",
        summary.avg_seqno
    );
    println!(
        "  label-order drift  : {} (expected 0)",
        summary.oracle_soft_violations
    );
    assert!(summary.delivery_ratio > 0.95, "quickstart should deliver");
}
