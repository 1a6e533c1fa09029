//! Cross-crate checks of the scenario registry: every family builds and
//! runs, static structured topologies deliver essentially everything with
//! zero loop-oracle violations, and each family is bit-reproducible per
//! seed.

use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::Sim;

/// A small, fast scenario per family (node counts and durations chosen so
/// the whole file stays in CI budget).
fn small_scenario(family: Family, kind: ProtocolKind, seed: u64) -> slr_runner::Scenario {
    let (param, value) = match family {
        Family::PaperSweep => (SweepParam::Pause, 300),
        Family::Grid => (SweepParam::Nodes, 16),
        Family::Line => (SweepParam::Nodes, 6),
        Family::Disc => (SweepParam::Flows, 6),
        Family::Scaling => (SweepParam::Nodes, 20),
        Family::Churn => (SweepParam::ChurnRate, 6),
        Family::Partition | Family::CrashRejoin => (SweepParam::Nodes, 16),
        // CI-sized slice of the thousand-node family (the full scale is
        // covered by the dense CI smoke run and the benchmark's `dense`).
        Family::Dense => (SweepParam::Nodes, 100),
        // CI-sized slice of the 100k-node memory-lean family (full scale
        // is covered by the huge CI smoke run and the benchmark's `huge`).
        Family::Huge => (SweepParam::Nodes, 400),
        // Default fraction (10% → one adversary at this scale): higher
        // fractions legitimately collapse delivery (that is the measured
        // effect, not a harness failure) and belong to the sweeps.
        Family::Byzantine | Family::Sybil | Family::Chaos => (SweepParam::Adversaries, 10),
    };
    let mut s = family.scenario_at(kind, seed, 0, false, param, value);
    // Trim runtimes: enough traffic to measure, short enough for CI.
    s.end = SimTime::from_secs(45);
    if family == Family::PaperSweep || family == Family::Scaling {
        s.nodes = 20;
        s.set_flows(4);
    }
    s
}

#[test]
fn static_grid_delivers_everything_loop_free() {
    // The registry's flagship guarantee: on a static grid with no churn,
    // SRP delivers ≥99% and the Theorem 3 oracle sees zero violations —
    // hard (cycles / order breaks, which would panic) or soft (label
    // drift, which only DELETE_PERIOD forgetting under churn can cause).
    let s = Family::Grid.scenario_at(ProtocolKind::Srp, 9, 0, false, SweepParam::Nodes, 16);
    let summary = Sim::new(s).run_with_loop_oracle(SimDuration::from_secs(1));
    assert!(
        summary.originated > 100,
        "too little traffic: {}",
        summary.originated
    );
    assert!(
        summary.delivery_ratio >= 0.99,
        "grid delivery {} below 0.99",
        summary.delivery_ratio
    );
    assert_eq!(
        summary.oracle_soft_violations, 0,
        "static grid must show zero soft order violations"
    );
    assert_eq!(
        summary.avg_seqno, 0.0,
        "SRP must not touch sequence numbers"
    );
}

#[test]
fn static_line_delivers_loop_free() {
    let s = Family::Line.scenario_at(ProtocolKind::Srp, 4, 0, false, SweepParam::Nodes, 6);
    let summary = Sim::new(s).run_with_loop_oracle(SimDuration::from_secs(1));
    assert!(
        summary.delivery_ratio >= 0.99,
        "line delivery {}",
        summary.delivery_ratio
    );
    assert_eq!(summary.oracle_soft_violations, 0);
}

#[test]
fn every_family_runs_and_delivers_something() {
    for family in Family::ALL {
        let s = small_scenario(family, ProtocolKind::Srp, 77);
        let summary = Sim::new(s).run();
        assert!(
            summary.originated > 0,
            "{}: no traffic originated",
            family.name()
        );
        assert!(
            summary.delivery_ratio > 0.3,
            "{}: delivery collapsed to {}",
            family.name(),
            summary.delivery_ratio
        );
    }
}

#[test]
fn same_seed_reproduces_identically_across_families() {
    for family in Family::ALL {
        for kind in [ProtocolKind::Srp, ProtocolKind::Aodv] {
            let a = Sim::new(small_scenario(family, kind, 2024)).run();
            let b = Sim::new(small_scenario(family, kind, 2024)).run();
            assert_eq!(
                a,
                b,
                "{}/{} not bit-reproducible",
                family.name(),
                kind.name()
            );
        }
        let c = Sim::new(small_scenario(family, ProtocolKind::Srp, 2025)).run();
        let a = Sim::new(small_scenario(family, ProtocolKind::Srp, 2024)).run();
        assert_ne!(a, c, "{}: different seeds should differ", family.name());
    }
}

#[test]
fn traffic_is_protocol_independent_in_every_family() {
    for family in Family::ALL {
        let srp = Sim::new(small_scenario(family, ProtocolKind::Srp, 11)).run();
        let dsr = Sim::new(small_scenario(family, ProtocolKind::Dsr, 11)).run();
        assert_eq!(
            srp.originated,
            dsr.originated,
            "{}: offered load must not depend on the protocol",
            family.name()
        );
    }
}
