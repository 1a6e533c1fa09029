//! Property tests for the spatial-index medium: over *arbitrary* random
//! topologies, mobility and churn dynamics, every neighbor query the
//! grid-bucketed `SpatialIndex` + incremental `PositionTracker` answers
//! in a trial is cross-checked against the brute-force O(N) position scan
//! (the reference oracle kept in `slr-radio`), which panics on the first
//! divergent answer, and the checked trial is **bit-identical** to the
//! unchecked one.
//!
//! This is the contract that makes the index safe to use by default:
//! the channel's neighbor sets, signal powers, capture decisions and
//! busy/idle transitions — and therefore every metric in the trial
//! summary — may not shift by a single bit, no matter how nodes move or
//! which links the dynamics layer severs.

use proptest::prelude::*;

use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec};
use slr_runner::sim::Sim;
use slr_runner::DynamicsSpec;

/// A CI-sized scenario over the fuzzed axes: topology shape, mobility
/// pause, flow count and optional link churn.
#[allow(clippy::too_many_arguments)]
fn scenario(
    kind: ProtocolKind,
    seed: u64,
    nodes: usize,
    topology: u8,
    mobile: bool,
    pause: u64,
    flows: usize,
    churn: Option<u64>,
) -> Scenario {
    let mut s = Scenario::quick(kind, 0, seed, 0);
    s.nodes = nodes;
    s.topology = match topology % 4 {
        0 => TopologySpec::UniformRandom,
        1 => TopologySpec::Grid { spacing: 180.0 },
        2 => TopologySpec::Line { spacing: 200.0 },
        _ => TopologySpec::Disc { radius: 400.0 },
    };
    s.mobility = if mobile {
        MobilitySpec::RandomWaypoint {
            pause: SimDuration::from_secs(pause),
            max_speed: 20.0,
        }
    } else {
        MobilitySpec::Static
    };
    s.set_flows(flows);
    if let Some(rate) = churn {
        s.dynamics = DynamicsSpec::LinkChurn {
            flaps_per_minute: rate as f64,
            mean_down_secs: 2.0,
        };
    }
    s.end = SimTime::from_secs(35);
    s
}

/// Runs `s` with every neighbor query validated against the brute-force
/// scan, and holds the summary to the unvalidated run's.
fn media_agree(s: Scenario) -> Result<(), TestCaseError> {
    let grid = Sim::new(s).run();
    let mut validated = Sim::new(s);
    validated.enable_spatial_validation();
    let validated = validated.run();
    prop_assert_eq!(&grid, &validated, "validation perturbed {}", s.describe());
    prop_assert!(grid.originated > 0, "no traffic in {}", s.describe());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topology × mobility × flows: bit-identical summaries.
    #[test]
    fn grid_medium_equals_brute_force(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        pause in 0u64..=20,
        flows in 2usize..=6,
    ) {
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, pause, flows, None,
        );
        media_agree(s)?;
    }

    /// Same property with churn dynamics layered on (the admittance
    /// gate composes with the neighbor query) and a protocol that
    /// stresses link failures hard.
    #[test]
    fn grid_medium_equals_brute_force_under_churn(
        seed in 0u64..100_000,
        nodes in 12usize..=30,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        rate in 1u64..=20,
    ) {
        let s = scenario(
            ProtocolKind::Aodv, seed, nodes, topology, mobile, 5, 3, Some(rate),
        );
        media_agree(s)?;
    }

    /// The dense family itself, scaled down to CI size, with the
    /// validating medium active: every single neighbor query is
    /// cross-checked against the brute-force oracle in-line.
    #[test]
    fn dense_family_survives_full_query_validation(
        seed in 0u64..100_000,
        nodes in 60u64..=140,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(25);
        let mut sim = Sim::new(s);
        sim.enable_spatial_validation();
        let validated = sim.run();
        prop_assert!(validated.originated > 0);
    }
}
