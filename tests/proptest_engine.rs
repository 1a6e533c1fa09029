//! Property tests for the event engines: over *arbitrary* random
//! topologies, mobility and dynamics (link churn and node crash–rejoin),
//! a trial driven by one `TxComplete` event per transmission is
//! **bit-identical** to the same trial driven by the retained
//! per-receiver `RxEnd`/`TxEnd` scheduling — the reference oracle, the
//! same way `BruteForceMedium` anchors the spatial index in
//! `proptest_spatial.rs` — and the conservative-window *parallel* engine
//! is bit-identical to batched at every worker count (1, 2 and 8) under
//! both window rules — widened by MAC-timer hopping on the spatial-grid
//! medium, narrow on the brute-force one — fuzzed over the same axes.
//!
//! This is the contract that makes the batched engine safe to use by
//! default: both engines share the per-receiver completion code verbatim
//! and differ only in how many heap events carry it, so every metric in
//! the trial summary — deliveries, collisions, latencies, repair
//! episodes — may not shift by a single bit, no matter how receivers
//! interleave, crash mid-reception, or rejoin with signals still in the
//! air. The parallel engine extends the same contract across threads:
//! node-local tasks may execute in any wall-clock order on any worker,
//! but the canonical side-effect merge must reconstruct the serial
//! batched history exactly.

use proptest::prelude::*;

use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec};
use slr_runner::sim::{EngineKind, MediumKind, Sim};
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

fn engines_agree(s: Scenario) -> Result<(), TestCaseError> {
    let batched = Sim::new(s).with_engine(EngineKind::Batched).run();
    let per_rx = Sim::new(s).with_engine(EngineKind::PerReceiver).run();
    prop_assert_eq!(&batched, &per_rx, "engines diverged on {}", s.describe());
    prop_assert!(batched.originated > 0, "no traffic in {}", s.describe());
    Ok(())
}

/// parallel@1 ≡ parallel@2 ≡ parallel@8 ≡ batched, bit-identical, on each
/// of `media`. The medium is also the widening axis: the parallel engine
/// hops MAC timers into its windows on the spatial-grid medium and keeps
/// the narrow safe-events-only windows on the brute-force one. Either
/// rule, at any worker count, cannot change a single bit of the summary —
/// window composition is a pure execution heuristic under the canonical
/// merge (see `crate::par`).
fn parallel_agrees(s: Scenario, media: &[MediumKind]) -> Result<(), TestCaseError> {
    let batched = Sim::new(s).with_engine(EngineKind::Batched).run();
    for &medium in media {
        for workers in [1usize, 2, 8] {
            let par = Sim::new(s)
                .with_engine(EngineKind::Parallel)
                .with_workers(workers)
                .with_medium(medium)
                .run();
            prop_assert_eq!(
                &batched,
                &par,
                "parallel@{} on {:?} diverged from batched on {}",
                workers,
                medium,
                s.describe()
            );
        }
    }
    prop_assert!(batched.originated > 0, "no traffic in {}", s.describe());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topology × mobility × flows: bit-identical summaries.
    #[test]
    fn batched_engine_equals_per_receiver(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        flows in 2usize..=6,
    ) {
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, flows,
            DynamicsSpec::None,
        );
        engines_agree(s)?;
    }

    /// Same property under link churn (timer cancel/reschedule storms
    /// and MAC retry cascades exercise the queue's tombstone path).
    #[test]
    fn engines_agree_under_churn(
        seed in 0u64..100_000,
        nodes in 12usize..=30,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        rate in 1u64..=20,
    ) {
        let s = scenario(
            ProtocolKind::Aodv, seed, nodes, topology, mobile, 3,
            DynamicsSpec::LinkChurn {
                flaps_per_minute: rate as f64,
                mean_down_secs: 2.0,
            },
        );
        engines_agree(s)?;
    }

    /// Same property under node crash–rejoin: crash epochs, channel-side
    /// signal quarantine and the lazy carrier resync must behave
    /// identically whether receiver completions arrive as one batch or
    /// as individual heap events.
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
        engines_agree(s)?;
    }

    /// The dense family itself (scaled down to CI size) — the workload
    /// the batched engine exists for — with the spatial oracle layered
    /// on top: both axes of the equivalence matrix at once.
    #[test]
    fn dense_family_engines_agree(
        seed in 0u64..100_000,
        nodes in 60u64..=120,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(25);
        engines_agree(s)?;
    }

    /// The parallel engine's worker-count axis over topology × mobility ×
    /// dynamics: every fuzzed trial runs under batched and under
    /// parallel@{1,2,8}, and all four summaries must be bit-identical.
    /// `dynamics` selects none / link churn / crash–rejoin, so the window
    /// discipline is exercised against timer-cancel storms, epoch bumps
    /// and mid-window-adjacent crash quarantines alike.
    #[test]
    fn parallel_engine_bit_identical_across_worker_counts(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        dynamics in 0u8..3,
    ) {
        let dynamics = match dynamics {
            0 => DynamicsSpec::None,
            1 => DynamicsSpec::LinkChurn { flaps_per_minute: 8.0, mean_down_secs: 2.0 },
            _ => DynamicsSpec::default_crash(2),
        };
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, 3, dynamics,
        );
        parallel_agrees(s, &[MediumKind::SpatialGrid])?;
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
        parallel_agrees(s, &[MediumKind::SpatialGrid])?;
    }

    /// The medium axis over topology × mobility × dynamics: widened
    /// (MAC-timer hopping, spatial grid) and narrow (brute force) windows
    /// at workers ∈ {1, 2, 8} all reproduce the batched summary bit for
    /// bit, including under timer-cancel storms and crash epochs.
    #[test]
    fn widening_bit_identical_across_worker_counts(
        seed in 0u64..100_000,
        nodes in 12usize..=40,
        topology in 0u8..4,
        mobile in proptest::bool::ANY,
        dynamics in 0u8..3,
    ) {
        let dynamics = match dynamics {
            0 => DynamicsSpec::None,
            1 => DynamicsSpec::LinkChurn { flaps_per_minute: 8.0, mean_down_secs: 2.0 },
            _ => DynamicsSpec::default_crash(2),
        };
        let s = scenario(
            ProtocolKind::Srp, seed, nodes, topology, mobile, 3, dynamics,
        );
        parallel_agrees(s, &[MediumKind::SpatialGrid, MediumKind::BruteForce])?;
    }

    /// The medium axis on the dense family (CI-scaled), where
    /// same-timestamp MAC timers are plentiful enough that hopping
    /// actually composes multi-timer windows.
    #[test]
    fn dense_family_widening_agrees(
        seed in 0u64..100_000,
        nodes in 60u64..=100,
    ) {
        let mut s = Family::Dense.scenario_at(
            ProtocolKind::Srp, seed, 0, false, SweepParam::Nodes, nodes,
        );
        s.end = SimTime::from_secs(20);
        parallel_agrees(s, &[MediumKind::SpatialGrid, MediumKind::BruteForce])?;
    }
}
