//! Integration tests for the memory-lean scale profile: the `huge`
//! family's registry contract, bounded metrics memory over long runs,
//! the per-subsystem memory report, SRP's per-node state budget on the
//! dense family, geodesic stretch, and an oracle-on
//! spot check of a huge-family trial at a CI-feasible node count.

use slr_mobility::Terrain;
use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec, TrafficSpec};
use slr_runner::sim::Sim;

#[test]
fn huge_family_is_a_local_static_disc() {
    let s = Family::Huge.base(ProtocolKind::Srp, 1, 0, false);
    assert_eq!(s.nodes, 100_000);
    assert_eq!(s.mobility, MobilitySpec::Static);
    assert_eq!(s.topology.name(), "disc");
    assert_eq!(s.traffic.locality_m, Some(Family::HUGE_LOCALITY_M));
    // Constant density across the node sweep, like the dense family.
    let swept = Family::Huge.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Nodes, 50_000);
    match swept.topology {
        TopologySpec::Disc { radius } => {
            assert!((radius - Family::dense_disc_radius(50_000)).abs() < 1e-9)
        }
        other => panic!("huge must stay on a disc, got {other:?}"),
    }
    // The speed sweep selects the slow-waypoint variant.
    let slow = Family::Huge.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::MaxSpeed, 2);
    assert_eq!(
        slow.mobility,
        MobilitySpec::RandomWaypoint {
            pause: SimDuration::from_secs(30),
            max_speed: 2.0,
        }
    );
    assert!(Family::Huge.supports(SweepParam::MaxSpeed));
    assert!(!Family::Huge.supports(SweepParam::Pause));
}

/// The delivery-dedup regression the unbounded `delivered_uids` hashset
/// would fail: metrics memory over a 10× duration run stays bounded by
/// the flow structure (windows compact as flows complete), not by the
/// ever-growing delivered-packet count.
#[test]
fn metrics_memory_stays_bounded_over_10x_duration() {
    let scenario = |secs: u64| {
        let mut s = Family::Grid.base(ProtocolKind::Srp, 7, 0, false);
        s.end = SimTime::from_secs(secs);
        s
    };
    let (_, short) = Sim::new(scenario(70)).run_detailed();
    let (_, long) = Sim::new(scenario(700)).run_detailed();
    assert!(
        long.data_delivered > 5 * short.data_delivered,
        "10x duration must deliver much more traffic ({} vs {})",
        long.data_delivered,
        short.data_delivered
    );
    // The hashset held ≥ 9 bytes per delivered uid forever; the ledger
    // stays under one byte per delivery and under an absolute roof.
    assert!(
        (long.dedup_mem_bytes() as u64) < long.data_delivered,
        "dedup state grew to {} bytes for {} deliveries",
        long.dedup_mem_bytes(),
        long.data_delivered
    );
    assert!(
        long.dedup_mem_bytes() <= 64 * 1024,
        "dedup state unbounded: {} bytes",
        long.dedup_mem_bytes()
    );
}

/// End-to-end probe of `Sim::run_with_mem_report` on a small huge-family
/// trial: every subsystem reports live bytes and the per-node figure is
/// sane (at full scale: the benchmark's `runner.mem.*` on `huge`).
#[test]
fn mem_report_accounts_every_subsystem() {
    let s = Family::Huge.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 1000);
    let (summary, _, mem) = Sim::new(s).run_with_mem_report();
    assert!(summary.delivery_ratio > 0.9, "{}", summary.delivery_ratio);
    assert_eq!(mem.nodes, 1000);
    assert!(mem.proto_bytes > 0, "protocol tables unaccounted");
    assert!(mem.mac_bytes > 0, "MAC state unaccounted");
    assert!(mem.channel_bytes > 0, "channel state unaccounted");
    assert!(mem.spatial_bytes > 0, "spatial index unaccounted");
    assert!(mem.metrics_bytes > 0, "delivery dedup unaccounted");
    assert_eq!(
        mem.total(),
        mem.proto_bytes
            + mem.mac_bytes
            + mem.channel_bytes
            + mem.spatial_bytes
            + mem.queue_bytes
            + mem.metrics_bytes
    );
    // Small trials carry fixed overheads, so the budget here is loose;
    // the ≤ 1 KiB/node protocol+MAC figure is reported at 100k nodes
    // by the benchmark's `huge` workload (`runner.mem.bytes_per_node`).
    assert!(
        mem.bytes_per_node() < 64.0 * 1024.0,
        "implausible footprint: {} B/node",
        mem.bytes_per_node()
    );
}

/// Tier-1 guard on what every node holds before and beside its routes on
/// the huge family: the inline `Mac`, the boxed protocol instance, the
/// armed-timer slots and the small tables, as `MemReport` counts them.
/// Per-trial constants held once per node (configuration copies,
/// allocator minimums of one-entry tables) are what this budget catches.
/// The count is deterministic, on the same 1 000-node trial as
/// `mem_report_accounts_every_subsystem`, and reads 2 370 B/node (2 707
/// while each node copied the MAC and SRP configurations).
#[test]
fn fixed_state_per_node_on_huge_stays_under_budget() {
    let s = Family::Huge.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 1000);
    let (_, _, mem) = Sim::new(s).run_with_mem_report();
    let per_node = (mem.proto_bytes + mem.mac_bytes) / mem.nodes;
    assert!(
        per_node <= 2560,
        "protocol + MAC state {per_node} B/node exceeds the 2.5 KiB budget"
    );
}

/// The per-node structs themselves: a node's MAC lives inline in the
/// harness's `Vec`, its protocol in a `Box`, and neither may carry a
/// private copy of a per-trial constant.
#[test]
fn per_node_structs_stay_small() {
    use std::mem::size_of;
    assert!(size_of::<slr_radio::Mac<slr_runner::Payload>>() <= 336);
    assert!(size_of::<slr_protocols::srp::Srp>() <= 272);
}

/// Tier-1 guard on SRP's per-node state where it is largest: a mobile
/// dense trial, where every node holds routes to many destinations. The
/// count is deterministic (capacities, not timings) and reads 10 119
/// B/node, the boxed instance included, so the budget fails once that
/// state grows by a fifth.
#[test]
fn srp_state_per_node_on_dense_stays_under_budget() {
    let mut s = Family::Dense.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 200);
    s.end = SimTime::from_secs(15);
    let (summary, _, mem) = Sim::new(s).run_with_mem_report();
    assert!(summary.delivery_ratio > 0.0, "trial carried no traffic");
    assert_eq!(mem.nodes, 200);
    let per_node = mem.proto_bytes / mem.nodes;
    assert!(
        per_node <= 12 * 1024,
        "SRP state {per_node} B/node exceeds the 12 KiB budget"
    );
}

/// Geodesic stretch (hops over the straight-line minimum at radio range)
/// is finite on locality-bounded static discs and does not worsen as
/// density rises — denser discs offer straighter multihop paths.
#[test]
fn geodesic_stretch_finite_and_not_worse_when_denser() {
    let disc = |area_per_node: f64| {
        let nodes = 500;
        let radius = (nodes as f64 * area_per_node / core::f64::consts::PI).sqrt();
        let mut s = Scenario::quick(ProtocolKind::Srp, 0, 42, 0);
        s.nodes = nodes;
        s.topology = TopologySpec::Disc { radius };
        s.terrain = Terrain::new(2.0 * radius, 2.0 * radius);
        s.mobility = MobilitySpec::Static;
        s.traffic = TrafficSpec {
            locality_m: Some(1500.0),
            ..TrafficSpec::paper_cbr(8)
        };
        s.end = SimTime::from_secs(40);
        let (_, metrics) = Sim::new(s).run_detailed();
        metrics
            .geodesic_stretch()
            .expect("locality-bounded disc must deliver")
    };
    // The huge family's density vs a 2.5× denser disc.
    let sparse = disc(Family::DENSE_AREA_PER_NODE_M2);
    let dense = disc(Family::DENSE_AREA_PER_NODE_M2 / 2.5);
    assert!(
        sparse.is_finite() && sparse >= 1.0,
        "sparse stretch {sparse}"
    );
    assert!(dense.is_finite() && dense >= 1.0, "dense stretch {dense}");
    assert!(
        dense <= sparse + 0.05,
        "stretch worsened with density: {dense} (dense) vs {sparse} (sparse)"
    );
}

/// Oracle-on spot check (Theorem 3 loop freedom machine-checked at 1 s
/// checkpoints) of the huge family at a CI-feasible node count.
#[test]
fn huge_family_holds_under_loop_oracle() {
    let s = Family::Huge.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 1000);
    let (summary, _soft) = Sim::new(s).run_with_loop_oracle(SimDuration::from_secs(1));
    assert!(summary.oracle_checks > 0, "oracle never ran");
    assert!(summary.delivery_ratio > 0.9, "{}", summary.delivery_ratio);
}
