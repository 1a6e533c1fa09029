//! Reproducibility: identical seeds produce bit-identical results,
//! mobility/traffic are identical across protocols within a trial, and
//! every spatial-index neighbor query agrees with the brute-force scan.

use slr_netsim::time::SimTime;
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::Sim;

#[test]
fn identical_seeds_reproduce_exactly() {
    for kind in [ProtocolKind::Srp, ProtocolKind::Dsr, ProtocolKind::Olsr] {
        let mk = || {
            let mut s = Scenario::quick(kind, 50, 2024, 1);
            s.nodes = 25;
            s.end = SimTime::from_secs(45);
            s.set_flows(5);
            s
        };
        let a = Sim::new(mk()).run();
        let b = Sim::new(mk()).run();
        assert_eq!(a, b, "{} not deterministic", kind.name());
    }
}

#[test]
fn different_trials_differ() {
    let mk = |trial| {
        let mut s = Scenario::quick(ProtocolKind::Srp, 50, 2024, trial);
        s.nodes = 25;
        s.end = SimTime::from_secs(45);
        s.set_flows(5);
        s
    };
    let a = Sim::new(mk(0)).run();
    let b = Sim::new(mk(1)).run();
    assert_ne!(a, b, "different trials should see different scripts");
}

/// The spatial index's equivalence guarantee, pinned on fixed seeds (the
/// proptest in `proptest_spatial.rs` fuzzes the same property): every
/// neighbor query the grid-indexed medium answers must equal the
/// brute-force position scan's (validation panics on the first
/// divergence), and the checked trial must summarize bit-identically to
/// the unchecked one — across mobility (stale buckets would shift
/// receptions), churn dynamics (the admittance gate composes with the
/// neighbor query), and structured topologies.
#[test]
fn spatial_index_matches_brute_force_medium() {
    let scenarios: Vec<(&str, Scenario)> = vec![
        ("mobile paper-sweep", {
            let mut s = Scenario::quick(ProtocolKind::Srp, 0, 77, 0);
            s.nodes = 40;
            s.end = SimTime::from_secs(50);
            s.set_flows(6);
            s
        }),
        (
            "grid under churn",
            Family::Churn.scenario_at(ProtocolKind::Aodv, 5, 1, false, SweepParam::ChurnRate, 8),
        ),
        ("dense disc (scaled down)", {
            let mut s =
                Family::Dense.scenario_at(ProtocolKind::Srp, 9, 0, false, SweepParam::Nodes, 100);
            s.end = SimTime::from_secs(25);
            s
        }),
    ];
    for (name, scenario) in scenarios {
        let grid = Sim::new(scenario).run();
        let mut validated = Sim::new(scenario);
        validated.enable_spatial_validation();
        assert_eq!(
            grid,
            validated.run(),
            "{name}: validation perturbed the trial"
        );
        assert!(grid.originated > 0, "{name}: no traffic");
    }
}

/// `--validate-spatial` wires the cross-checking medium into a full
/// trial; a run completing under it is itself the assertion (any
/// divergent query panics with a diagnostic).
#[test]
fn spatial_validation_passes_on_mobile_trial() {
    let mut s = Scenario::quick(ProtocolKind::Srp, 0, 31, 0);
    s.nodes = 30;
    s.end = SimTime::from_secs(40);
    s.set_flows(5);
    let mut sim = Sim::new(s);
    sim.enable_spatial_validation();
    let validated = sim.run();
    assert_eq!(validated, Sim::new(s).run(), "validation must not perturb");
}

#[test]
fn traffic_demand_is_protocol_independent() {
    // The number of originated packets depends only on (seed, trial).
    let mk = |kind| {
        let mut s = Scenario::quick(kind, 50, 7, 2);
        s.nodes = 25;
        s.end = SimTime::from_secs(45);
        s.set_flows(5);
        s
    };
    let srp = Sim::new(mk(ProtocolKind::Srp)).run();
    let aodv = Sim::new(mk(ProtocolKind::Aodv)).run();
    let olsr = Sim::new(mk(ProtocolKind::Olsr)).run();
    assert_eq!(srp.originated, aodv.originated);
    assert_eq!(srp.originated, olsr.originated);
}
