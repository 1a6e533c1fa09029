//! Cross-crate checks of the adversarial participant tier: adversary
//! trials stay bit-identical across transmission-end engines and worker
//! counts (the oracle's sampling schedule included), the containment
//! counters actually move when adversaries act, the audit never strikes
//! an honest sender, and a node that crashes and rejoins — the chaos
//! adversary's signature move — never acts on a carrier view that
//! disagrees with the channel's ground truth.

use slr_mobility::Position;
use slr_netsim::admittance::DynAction;
use slr_netsim::rng::stream;
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::{Audit, RoutingProtocol};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::{EngineKind, Sim};
use slr_traffic::TrafficScript;

/// A CI-sized adversarial scenario with enough victims to matter
/// (25% of a 16-node grid → 4 adversaries).
fn adversarial(family: Family, percent: u64, seed: u64) -> slr_runner::Scenario {
    let mut s = family.scenario_at(
        ProtocolKind::Srp,
        seed,
        0,
        false,
        SweepParam::Adversaries,
        percent,
    );
    s.end = SimTime::from_secs(45);
    s
}

#[test]
fn adversary_trials_bit_identical_across_engines_and_workers() {
    // The determinism contract of the adversary axis: misbehaviour is
    // scripted from named RNG streams and the oracle samples only at
    // timestamp boundaries, so an adversarial trial — checks, soft
    // census, containment counters and all — must not depend on how the
    // engine groups same-time events or how many workers dispatch them.
    for family in [Family::Byzantine, Family::Sybil, Family::Chaos] {
        let reference =
            Sim::new(adversarial(family, 25, 5)).run_with_loop_oracle(SimDuration::from_secs(1));
        for (engine, workers) in [
            (EngineKind::Parallel, 1),
            (EngineKind::Parallel, 2),
            (EngineKind::Parallel, 4),
        ] {
            let got = Sim::new(adversarial(family, 25, 5))
                .with_engine(engine)
                .with_workers(workers)
                .run_with_loop_oracle(SimDuration::from_secs(1));
            assert_eq!(
                reference,
                got,
                "{} trial diverged under {engine:?} with {workers} worker(s)",
                family.name()
            );
        }
    }
}

#[test]
fn containment_counters_move_when_adversaries_act() {
    for (family, expect_rejections) in [
        // Byzantine liars forge content, which the audit does not judge;
        // only a replayed `d = 0` flood strikes them, and this trial
        // need not produce one.
        (Family::Byzantine, false),
        (Family::Sybil, true),
        // Chaos replays overheard RREQs: a replayed `d = 0` flood names
        // its true source but arrives from the replayer.
        (Family::Chaos, true),
    ] {
        let summary = Sim::new(adversarial(family, 25, 9)).run();
        assert!(
            summary.adversary_actions > 0,
            "{}: adversaries never acted",
            family.name()
        );
        if expect_rejections {
            assert!(
                summary.audit_rejections > 0,
                "{}: honest audit layer never rejected anything",
                family.name()
            );
        }
    }
}

#[test]
fn audit_never_strikes_an_honest_sender() {
    // Every node honest, every node audited: a static 5×5 grid at 200 m
    // spacing under CBR traffic, plain and with two crash–rejoins (a
    // neighbor that reboots cold restarts its sequence numbers). Honest
    // SRP advertises unreduced labels and regressed seqnos, so only a
    // check no honest message can fail keeps the count at zero.
    let mut counts = Vec::new();
    for seed in [1, 2] {
        for crashes in [false, true] {
            let mut scenario = Scenario::quick(ProtocolKind::Srp, 0, seed, 0);
            scenario.nodes = 25;
            scenario.end = SimTime::from_secs(60);
            let positions = (0..25)
                .map(|i| Position::new(200.0 * (i % 5) as f64, 200.0 * (i / 5) as f64))
                .collect();
            let traffic = TrafficScript::generate(
                25,
                &scenario.traffic_config(),
                &mut stream(seed, "traffic", 0),
            );
            let protos = (0..25)
                .map(|i| {
                    Box::new(Audit::new(ProtocolKind::Srp.build(i))) as Box<dyn RoutingProtocol>
                })
                .collect();
            let mut sim = Sim::with_protocols(scenario, positions, traffic, protos);
            if crashes {
                for (node, down, up) in [(12, 20, 25), (6, 35, 38)] {
                    sim.inject_dynamics(SimTime::from_secs(down), DynAction::NodeCrash(node));
                    sim.inject_dynamics(SimTime::from_secs(up), DynAction::NodeRejoin(node));
                }
            }
            counts.push((seed, crashes, sim.run().audit_rejections));
        }
    }
    assert!(
        counts.iter().all(|&(_, _, rejections)| rejections == 0),
        "the audit struck honest senders (seed, crashes, rejections): {counts:?}"
    );
}

#[test]
fn honest_trials_report_zero_containment() {
    let s = Family::Grid.scenario_at(ProtocolKind::Srp, 9, 0, false, SweepParam::Nodes, 16);
    let summary = Sim::new(s).run();
    assert_eq!(summary.adversary_actions, 0);
    assert_eq!(summary.audit_rejections, 0);
}

#[test]
fn rejoining_node_never_acts_on_stale_carrier_view() {
    // Regression for the lazy carrier resync (`Mac::set_carrier` elision):
    // a crash–rejoin pair — exactly what chaos adversaries compile into
    // the dynamics schedule — rebuilds the node's MAC, and the rebuilt
    // MAC's *effective* carrier view must agree with the channel's ground
    // truth at every observable instant, not only after the next
    // notification happens to arrive.
    let mut s = Family::Grid.scenario_at(ProtocolKind::Srp, 3, 0, false, SweepParam::Nodes, 16);
    s.end = SimTime::from_secs(40);
    let mut sim = Sim::new(s);
    let crash_at = SimTime::from_secs(20);
    let rejoin_at = SimTime::from_secs(23);
    sim.inject_dynamics(crash_at, DynAction::NodeCrash(4));
    sim.inject_dynamics(rejoin_at, DynAction::NodeRejoin(4));
    let mut t = SimTime::from_secs(15);
    let end = SimTime::from_secs(35);
    while t < end {
        sim.advance_until(t);
        let now = sim.now();
        for node in 0..16 {
            if node == 4 && now >= crash_at && now < rejoin_at {
                continue; // powered off: no MAC view to agree on
            }
            assert_eq!(
                sim.mac_carrier_busy(node),
                sim.channel_is_busy(node),
                "node {node} carrier view diverged from ground truth at {now:?}"
            );
        }
        t += SimDuration::from_millis(50);
    }
}
