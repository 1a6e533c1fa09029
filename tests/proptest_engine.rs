//! Property tests for the event engines: over *arbitrary* random
//! topologies, mobility, protocols and dynamics (link churn and node
//! crash–rejoin), the conservative-window *parallel* engine is
//! **bit-identical** to the serial batched engine at every worker count
//! (1, 2 and 8) — with its windows widened across MAC timers, and with
//! and without every neighbor query (the workers' speculative ones
//! included) cross-checked against the brute-force medium.
//!
//! This is the contract that makes the parallel engine safe to use:
//! node-local tasks may execute in any wall-clock order on any worker,
//! but the canonical side-effect merge must reconstruct the serial
//! batched history exactly, so every metric in the trial summary —
//! deliveries, collisions, latencies, repair episodes — may not shift by
//! a single bit, no matter how receivers interleave, crash
//! mid-reception, or rejoin with signals still in the air.

use proptest::prelude::*;

use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec};
use slr_runner::sim::{EngineKind, Sim};
use slr_runner::DynamicsSpec;

/// A CI-sized scenario over the fuzzed axes.
fn scenario(
    kind: ProtocolKind,
    seed: u64,
    nodes: usize,
    topology: u8,
    mobile: bool,
    flows: usize,
    dynamics: DynamicsSpec,
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
            pause: SimDuration::from_secs(5),
            max_speed: 20.0,
        }
    } else {
        MobilitySpec::Static
    };
    s.set_flows(flows);
    s.dynamics = dynamics;
    s.end = SimTime::from_secs(35);
    s
}

/// Dynamics selector for the fuzzed axes: none, link churn at `level`
/// flaps per minute, or crash–rejoin of `1 + level % 4` nodes.
fn dynamics(pick: u8, level: u64) -> DynamicsSpec {
    match pick {
        0 => DynamicsSpec::None,
        1 => DynamicsSpec::LinkChurn {
            flaps_per_minute: level as f64,
            mean_down_secs: 2.0,
        },
        _ => DynamicsSpec::default_crash(1 + level as usize % 4),
    }
}

/// parallel@1 ≡ parallel@2 ≡ parallel@8 ≡ batched, bit-identical, once
/// per entry of `validation` (`true` cross-checks every neighbor query
/// against the brute-force medium). Window composition is a pure
/// execution heuristic under the canonical merge (see `crate::par`), so
/// neither the worker count nor the validated medium can change a single
/// bit of the summary.
fn parallel_agrees(s: Scenario, validation: &[bool]) -> Result<(), TestCaseError> {
    let batched = Sim::new(s).with_engine(EngineKind::Batched).run();
    for &validate in validation {
        for workers in [1usize, 2, 8] {
            let mut par = Sim::new(s)
                .with_engine(EngineKind::Parallel)
                .with_workers(workers);
            if validate {
                par.enable_spatial_validation();
            }
            prop_assert_eq!(
                &batched,
                &par.run(),
                "parallel@{} (validated: {}) diverged from batched on {}",
                workers,
                validate,
                s.describe()
            );
        }
    }
    prop_assert!(batched.originated > 0, "no traffic in {}", s.describe());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel engine's worker-count axis over topology × mobility ×
    /// protocol × flows × dynamics: every fuzzed trial runs under batched
    /// and under parallel@{1,2,8}, and all four summaries must be
    /// bit-identical. `protocol` picks SRP or AODV (AODV's link-failure
    /// handling is the harder case under churn); `dynamics` selects none /
    /// link churn at `level` flaps per minute / crash–rejoin, so the
    /// window discipline is exercised against timer-cancel storms, epoch
    /// bumps and mid-window-adjacent crash quarantines alike.
    #[test]
    fn parallel_engine_bit_identical_across_worker_counts(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        protocol in 0u8..2,
        flows in 2usize..=6,
        pick in 0u8..3,
        level in 1u64..=20,
    ) {
        let kind = [ProtocolKind::Srp, ProtocolKind::Aodv][protocol as usize];
        let s = scenario(
            kind, seed, nodes, topology, mobile, flows, dynamics(pick, level),
        );
        parallel_agrees(s, &[false])?;
    }

    /// The engines agree under AODV with link churn at every fuzzed rate
    /// (timer cancel/reschedule storms and MAC retry cascades exercise
    /// the queue's tombstone path).
    #[test]
    fn engines_agree_under_churn(
        seed in 0u64..100_000,
        nodes in 12usize..=30,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        rate in 1u64..=20,
    ) {
        let s = scenario(
            ProtocolKind::Aodv, seed, nodes, topology, mobile, 3, dynamics(1, rate),
        );
        parallel_agrees(s, &[false])?;
    }

    /// The engines agree under node crash–rejoin: crash epochs,
    /// channel-side signal quarantine and the lazy carrier resync must
    /// behave identically whether receiver completions run serially or
    /// on node-local tasks across workers.
    #[test]
    fn engines_agree_under_crash_rejoin(
        seed in 0u64..100_000,
        nodes in 12usize..=30,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        crashes in 1usize..=4,
    ) {
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, 3,
            DynamicsSpec::default_crash(crashes),
        );
        parallel_agrees(s, &[false])?;
    }

    /// The dense family itself (scaled down to CI size, run a little
    /// longer and larger than below) — the workload the batched engine
    /// exists for.
    #[test]
    fn dense_family_engines_agree(
        seed in 0u64..100_000,
        nodes in 60u64..=120,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(25);
        parallel_agrees(s, &[false])?;
    }

    /// The dense family (CI-scaled) under the parallel engine: the
    /// receiver sets here are large enough that windows actually cross
    /// the pool threshold, so this exercises the sharded path (not just
    /// inline windows) at 2 and 8 workers.
    #[test]
    fn dense_family_parallel_agrees(
        seed in 0u64..100_000,
        nodes in 60u64..=100,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(20);
        parallel_agrees(s, &[false])?;
    }

    /// Widened windows (MAC-timer hopping) over topology × mobility ×
    /// dynamics at workers ∈ {1, 2, 8}, unvalidated and with every
    /// neighbor query — the speculative ones the hopped timers consume
    /// included — checked against the brute-force medium: all reproduce
    /// the batched summary bit for bit.
    #[test]
    fn widening_bit_identical_across_worker_counts(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        pick in 0u8..3,
    ) {
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, 3, dynamics(pick, 8),
        );
        parallel_agrees(s, &[false, true])?;
    }

    /// The same on the dense family (CI-scaled), where same-timestamp MAC
    /// timers are plentiful enough that hopping actually composes
    /// multi-timer windows and workers speculate their queries.
    #[test]
    fn dense_family_widening_agrees(
        seed in 0u64..100_000,
        nodes in 60u64..=100,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(20);
        parallel_agrees(s, &[false, true])?;
    }
}
