//! Cross-crate checks of the network-dynamics subsystem: every protocol
//! survives churn and partitions reproducibly, sweeps stay bit-identical
//! across thread counts, SRP stays loop-free under all three dynamics
//! families across many seeds, and delivery recovers after a heal.

use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::dynamics::DynamicsSpec;
use slr_runner::experiment::{run_sweep, SweepConfig};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::Sim;
use slr_runner::trace::PacketFate;

/// A CI-sized dynamics scenario: 16-node static grid, short run.
fn small(family: Family, kind: ProtocolKind, seed: u64) -> slr_runner::Scenario {
    let (param, value) = match family {
        Family::Churn => (SweepParam::ChurnRate, 8),
        _ => (SweepParam::Nodes, 16),
    };
    let mut s = family.scenario_at(kind, seed, 0, false, param, value);
    s.end = SimTime::from_secs(60);
    s
}

#[test]
fn every_protocol_survives_churn_and_partition_reproducibly() {
    for family in [Family::Churn, Family::Partition] {
        for kind in ProtocolKind::all() {
            let a = Sim::new(small(family, kind, 42)).run();
            let b = Sim::new(small(family, kind, 42)).run();
            assert_eq!(
                a,
                b,
                "{}/{}: same seed must reproduce bit-identically",
                family.name(),
                kind.name()
            );
            assert!(
                a.originated > 0,
                "{}/{}: no traffic",
                family.name(),
                kind.name()
            );
            assert!(
                a.dynamics_events > 0,
                "{}/{}: dynamics never fired",
                family.name(),
                kind.name()
            );
            // Dynamics hurt, but routing must still function.
            assert!(
                a.delivery_ratio > 0.25,
                "{}/{}: delivery collapsed to {}",
                family.name(),
                kind.name(),
                a.delivery_ratio
            );
        }
    }
}

#[test]
fn dynamics_sweeps_are_bit_identical_across_thread_counts() {
    for family in [Family::Churn, Family::Partition, Family::CrashRejoin] {
        let cfg = |threads| SweepConfig {
            seed: 7,
            trials: 2,
            family,
            param: family.default_param(),
            values: vec![family.default_values(false)[0]],
            threads,
            override_duration: Some(45),
            ..SweepConfig::default()
        };
        let serial = run_sweep(&[ProtocolKind::Srp, ProtocolKind::Aodv], &cfg(1));
        let parallel = run_sweep(&[ProtocolKind::Srp, ProtocolKind::Aodv], &cfg(4));
        assert_eq!(
            serial.runs,
            parallel.runs,
            "{}: thread count leaked into results",
            family.name()
        );
    }
}

#[test]
fn srp_loop_free_under_all_dynamics_families_across_seeds() {
    // The acceptance bar: zero loop-oracle violations (hard violations
    // panic inside the oracle) for churn, partition and crash–rejoin
    // under at least 20 seeds each. The oracle also checks immediately
    // after every dynamics event, the adversarial instants.
    for family in [Family::Churn, Family::Partition, Family::CrashRejoin] {
        for seed in 0..20u64 {
            let mut s = small(family, ProtocolKind::Srp, seed);
            s.end = SimTime::from_secs(40);
            let summary = Sim::new(s).run_with_loop_oracle(SimDuration::from_secs(2));
            assert!(
                summary.dynamics_events > 0,
                "{} seed {seed}: dynamics never fired",
                family.name()
            );
        }
    }
}

#[test]
fn churn_rate_sweep_degrades_gracefully_and_counts_events() {
    let cfg = SweepConfig {
        seed: 11,
        trials: 2,
        family: Family::Churn,
        param: SweepParam::ChurnRate,
        values: vec![2, 16],
        override_duration: Some(50),
        ..SweepConfig::default()
    };
    let result = run_sweep(&[ProtocolKind::Srp], &cfg);
    let gentle = &result.runs[&("SRP", 2)];
    let harsh = &result.runs[&("SRP", 16)];
    let events = |trials: &[slr_runner::TrialSummary]| -> u64 {
        trials.iter().map(|t| t.dynamics_events).sum()
    };
    assert!(
        events(harsh) > events(gentle),
        "16 flaps/min must schedule more events than 2 ({} vs {})",
        events(harsh),
        events(gentle)
    );
    let mean = |trials: &[slr_runner::TrialSummary]| -> f64 {
        trials.iter().map(|t| t.delivery_ratio).sum::<f64>() / trials.len() as f64
    };
    assert!(
        mean(gentle) > mean(harsh),
        "more churn should not improve delivery: {} vs {}",
        mean(gentle),
        mean(harsh)
    );
}

#[test]
fn srp_delivery_recovers_after_partition_heals() {
    let mut s = small(Family::Partition, ProtocolKind::Srp, 5);
    s.end = SimTime::from_secs(90);
    let (_, heal) = s
        .dynamics
        .window(s.traffic_start, s.end)
        .expect("partition has a window");
    let (_summary, trace) = Sim::new(s).run_traced();
    // Post-heal packets: originated after the heal with enough runway to
    // reach the destination before the run ends.
    let settle = heal + SimDuration::from_secs(2);
    let cutoff = SimTime::from_secs(88);
    let mut total = 0u64;
    let mut delivered = 0u64;
    for (uid, events) in trace.iter() {
        let origin = events.first().expect("traced packets have events").time();
        if origin < settle || origin > cutoff {
            continue;
        }
        total += 1;
        if trace.fate(uid) == PacketFate::Delivered {
            delivered += 1;
        }
    }
    assert!(total > 50, "too few post-heal packets to judge: {total}");
    let ratio = delivered as f64 / total as f64;
    assert!(
        ratio >= 0.9,
        "post-heal delivery {ratio:.3} below 0.9 ({delivered}/{total})"
    );
}

#[test]
fn crashed_nodes_drop_state_and_rejoin_cold() {
    // A crash wipes routing state: after the run, delivery still works
    // (the rejoined nodes rebuilt their tables) and the crash/rejoin
    // events balance.
    let mut s = small(Family::CrashRejoin, ProtocolKind::Srp, 3);
    s.dynamics = DynamicsSpec::default_crash(3);
    s.end = SimTime::from_secs(60);
    let (summary, metrics) = Sim::new(s).run_detailed();
    assert_eq!(metrics.dynamics_crashes, 3);
    assert_eq!(metrics.dynamics_rejoins, 3);
    assert!(
        summary.delivery_ratio > 0.5,
        "delivery {} too low",
        summary.delivery_ratio
    );
}

#[test]
fn dynamics_compose_with_any_family_via_override() {
    // --dynamics overlays churn onto the paper's mobile scenario: both
    // mobility and administrative flaps are active at once.
    let cfg = SweepConfig {
        seed: 9,
        trials: 1,
        family: Family::PaperSweep,
        param: SweepParam::Pause,
        values: vec![300],
        override_nodes: Some(20),
        override_flows: Some(4),
        override_duration: Some(45),
        override_dynamics: Some(DynamicsSpec::LinkChurn {
            flaps_per_minute: 6.0,
            mean_down_secs: 2.0,
        }),
        ..SweepConfig::default()
    };
    let result = run_sweep(&[ProtocolKind::Srp], &cfg);
    let trial = &result.runs[&("SRP", 300)][0];
    assert!(trial.dynamics_events > 0, "override dynamics never fired");
    assert!(trial.originated > 0);
}

#[test]
fn route_repair_latency_is_measured_under_dynamics() {
    let s = small(Family::Partition, ProtocolKind::Srp, 12);
    let (summary, metrics) = Sim::new(s).run_detailed();
    assert!(summary.dynamics_events >= 2, "cut + heal expected");
    assert!(
        metrics.route_repairs > 0,
        "no repair latency sample was taken"
    );
    assert!(
        summary.repair_latency >= 0.0 && summary.repair_latency < 60.0,
        "repair latency {} implausible",
        summary.repair_latency
    );
}
