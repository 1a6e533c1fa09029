//! The event engines' fixed-seed contracts (the proptests in
//! `proptest_engine.rs` fuzz the same properties, and the golden corpus
//! in `golden.rs` holds a fixed fleet to recorded summaries under every
//! engine and worker count):
//!
//! * parallel vs batched bit-identity with more workers than nodes, and
//!   under sub-airtime injected dynamics;
//! * parallel vs batched event-for-event identity: the same number of
//!   popped events, not just the same summary;
//! * the crash-mid-reception audit: a node crashing while a signal is in
//!   flight at its antenna and rejoining — before *or* after that signal
//!   ends — must come back with a MAC whose carrier view matches the
//!   channel's ground truth at every instant, without phantom collision
//!   accounting from the undecodable signal (run under both engines,
//!   including the parallel engine's mixed `advance_until` stepping);
//! * the CLI JSON regression: the full `run_sweep` + `render_json`
//!   pipeline (the path behind `slrsim --json`, with and without
//!   `--oracle`) emits byte-identical documents under the parallel
//!   engine and under batched, once the two config-echo lines that
//!   legitimately differ (`"engine"`, `"workers"`) are stripped.

use slr_netsim::admittance::DynAction;
use slr_netsim::time::{SimDuration, SimTime};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::report::render_json;
use slr_runner::scenario::{MobilitySpec, ProtocolKind, Scenario};
use slr_runner::sim::{EngineKind, Sim};
use slr_runner::{run_sweep, DynamicsSpec, SweepConfig};
use slr_traffic::{PacketSpec, TrafficScript};

use slr_mobility::Position;

/// More pool workers than nodes: the execution width clamps to the node
/// count and the surplus workers must idle through every broadcast
/// without touching (or panicking on) anyone else's shard.
#[test]
fn parallel_engine_with_more_workers_than_nodes() {
    let scenario = Family::Churn.scenario_at(ProtocolKind::Srp, 5, 0, false, SweepParam::Nodes, 9);
    let batched = Sim::new(scenario).with_engine(EngineKind::Batched).run();
    let par = Sim::new(scenario)
        .with_engine(EngineKind::Parallel)
        .with_workers(16)
        .run();
    assert_eq!(batched, par, "16 workers over 9 nodes diverged");
}

/// The parallel engine is the serial walk event for event: on a dense
/// trial, where same-timestamp MAC timers are plentiful, it pops exactly
/// as many events as batched at every worker count (parallel@1 included,
/// whose windows run inline), not merely the same summary. A window that
/// pops a MAC timer ahead of the window tasks that cancel it would fire
/// that timer anyway — the debug tripwire in `Sim::dispatch` and the
/// event count both catch it.
#[test]
fn parallel_engine_pops_exactly_the_batched_events() {
    let mut scenario =
        Family::Dense.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 100);
    scenario.end = SimTime::from_secs(15);
    let (batched, batched_metrics) = Sim::new(scenario).run_detailed();
    assert!(batched.originated > 0, "no traffic");
    for workers in [1usize, 2, 8] {
        let (par, par_metrics) = Sim::new(scenario)
            .with_engine(EngineKind::Parallel)
            .with_workers(workers)
            .run_detailed();
        assert_eq!(
            par_metrics.sim_events, batched_metrics.sim_events,
            "parallel@{workers} popped a different number of events than batched"
        );
        assert_eq!(par, batched, "parallel@{workers} diverged from batched");
    }
}

/// Pooled windows replay deliveries through the merge; the stretch
/// bookkeeping must ride along, so the geodesic stretch reads the same
/// under every engine and worker count.
#[test]
fn parallel_engine_records_the_batched_stretch() {
    let mut scenario =
        Family::Dense.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 300);
    scenario.end = SimTime::from_secs(15);
    let (_, batched) = Sim::new(scenario).run_detailed();
    assert!(batched.stretch_count > 0, "no deliveries");
    for workers in [1usize, 2, 8] {
        let (_, par) = Sim::new(scenario)
            .with_engine(EngineKind::Parallel)
            .with_workers(workers)
            .run_detailed();
        assert_eq!(
            (par.stretch_count, par.stretch_sum.to_bits()),
            (batched.stretch_count, batched.stretch_sum.to_bits()),
            "parallel@{workers} recorded stretch {}/{}, batched {}/{}",
            par.stretch_count,
            par.stretch_sum,
            batched.stretch_count,
            batched.stretch_sum
        );
    }
}

/// The parallel engine's merge emits the batched engine's packet trace:
/// the same events, per packet, in the same order, at every worker count.
/// A static 100-node dense disc: transmissions that end together complete
/// dozens of receivers in one window, so pooled windows (at least three
/// tasks per worker) really execute — about 70 of them at two workers.
#[test]
fn parallel_engine_emits_the_batched_trace() {
    let mut scenario =
        Family::Dense.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Nodes, 100);
    scenario.mobility = MobilitySpec::Static;
    scenario.end = SimTime::from_secs(20);
    let (_, batched) = Sim::new(scenario).run_traced();
    let batched: Vec<_> = batched.iter().collect();
    assert!(!batched.is_empty(), "no traffic");
    for workers in [1usize, 2] {
        let (_, par) = Sim::new(scenario)
            .with_engine(EngineKind::Parallel)
            .with_workers(workers)
            .run_traced();
        assert!(
            par.iter().eq(batched.iter().copied()),
            "parallel@{workers} traced differently from batched"
        );
    }
}

/// The audit fixture: two static SRP nodes 100 m apart, a trigger packet
/// at t = 10 s (whose route discovery puts a broadcast on the air toward
/// node 1) and steady follow-up traffic from 15 s.
fn audit_sim(engine: EngineKind) -> Sim {
    let mut scenario = Scenario::quick(ProtocolKind::Srp, 900, 3, 0);
    scenario.nodes = 2;
    scenario.end = SimTime::from_secs(45);
    let positions = vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)];
    let mut packets = vec![PacketSpec {
        time: SimTime::from_secs(10),
        src: 0,
        dst: 1,
        bytes: 512,
        flow: 0,
    }];
    packets.extend((0..30).map(|i| PacketSpec {
        time: SimTime::from_millis(15_000 + i * 250),
        src: 0,
        dst: 1,
        bytes: 512,
        flow: 0,
    }));
    Sim::with_static_topology(scenario, positions, TrafficScript::from_packets(packets))
        .with_engine(engine)
}

/// Steps until a signal is in flight at node 1, returning the detection
/// instant (within 25 µs of the true transmission start).
fn step_to_first_signal(sim: &mut Sim) -> SimTime {
    let mut t = SimTime::from_secs(10);
    sim.advance_until(t);
    while !sim.channel_is_busy(1) {
        t += SimDuration::from_micros(25);
        sim.advance_until(t);
        assert!(
            t < SimTime::from_secs(12),
            "no transmission ever reached node 1"
        );
    }
    t
}

/// Walks 5 ms in 25 µs steps asserting the rejoined MAC's carrier view
/// equals channel ground truth at every step.
fn assert_views_agree(sim: &mut Sim, from: SimTime) {
    let mut t = from;
    for _ in 0..200 {
        t += SimDuration::from_micros(25);
        sim.advance_until(t);
        assert_eq!(
            sim.mac_carrier_busy(1),
            sim.channel_is_busy(1),
            "carrier views diverged at {t}"
        );
    }
}

fn crash_rejoin_before_signal_end(engine: EngineKind) {
    let mut sim = audit_sim(engine);
    let t = step_to_first_signal(&mut sim);
    // Crash node 1 mid-reception, rejoin while the signal (≥ 350 µs of
    // airtime) is still in the air.
    sim.inject_dynamics(t + SimDuration::from_micros(25), DynAction::NodeCrash(1));
    sim.inject_dynamics(t + SimDuration::from_micros(75), DynAction::NodeRejoin(1));
    sim.advance_until(t + SimDuration::from_micros(100));
    assert!(
        sim.channel_is_busy(1),
        "fixture broke: signal ended before the rejoin window"
    );
    assert!(
        sim.mac_carrier_busy(1),
        "fresh MAC is deaf to the signal still at its antenna"
    );
    // Through the signal's end and the protocol's reboot chatter, the
    // rejoined node's view must track the medium exactly.
    assert_views_agree(&mut sim, t + SimDuration::from_micros(100));
    assert_eq!(
        sim.channel_collisions(),
        0,
        "the undecodable quarantined signal must not count as a \
         collision, and the rebooted MAC must defer to it"
    );
    // The trial still completes and the follow-up traffic flows.
    let (summary, metrics) = sim.run_detailed();
    assert_eq!(summary.originated, 31);
    assert!(
        summary.delivered >= 25,
        "post-rejoin delivery collapsed: {} of {}",
        summary.delivered,
        summary.originated
    );
    assert_eq!(metrics.dynamics_crashes, 1);
    assert_eq!(metrics.dynamics_rejoins, 1);
}

fn crash_rejoin_after_signal_end(engine: EngineKind) {
    let mut sim = audit_sim(engine);
    let t = step_to_first_signal(&mut sim);
    // Crash mid-reception; the signal ends (≤ t + ~400 µs) while the
    // node is still down; rejoin afterwards.
    sim.inject_dynamics(t + SimDuration::from_micros(25), DynAction::NodeCrash(1));
    sim.inject_dynamics(t + SimDuration::from_millis(2), DynAction::NodeRejoin(1));
    sim.advance_until(t + SimDuration::from_millis(2) + SimDuration::from_micros(25));
    // The quarantined signal ended at a down antenna: no delivery, no
    // collision, and the rejoined MAC must not believe a long-gone
    // signal still occupies the medium.
    assert_eq!(sim.channel_collisions(), 0);
    assert_views_agree(&mut sim, t + SimDuration::from_millis(2));
    let (summary, _) = sim.run_detailed();
    assert_eq!(summary.originated, 31);
    assert!(
        summary.delivered >= 25,
        "post-rejoin delivery collapsed: {} of {}",
        summary.delivered,
        summary.originated
    );
}

#[test]
fn crash_mid_reception_rejoin_before_signal_end_batched() {
    crash_rejoin_before_signal_end(EngineKind::Batched);
}

#[test]
fn crash_mid_reception_rejoin_after_signal_end_batched() {
    crash_rejoin_after_signal_end(EngineKind::Batched);
}

#[test]
fn crash_mid_reception_rejoin_before_signal_end_parallel() {
    crash_rejoin_before_signal_end(EngineKind::Parallel);
}

#[test]
fn crash_mid_reception_rejoin_after_signal_end_parallel() {
    crash_rejoin_after_signal_end(EngineKind::Parallel);
}

/// The same sub-airtime injected schedule must produce bit-identical
/// trials under both engines (the proptest fuzzes compiled schedules,
/// which cannot place events inside an airtime window; this pins the
/// adversarial timing directly — for the parallel engine it also mixes
/// `advance_until` inline stepping with a pooled full run).
#[test]
fn injected_mid_airtime_dynamics_keep_engines_identical() {
    let run = |engine| {
        let mut sim = audit_sim(engine);
        if engine == EngineKind::Parallel {
            sim = sim.with_workers(4);
        }
        let t = step_to_first_signal(&mut sim);
        sim.inject_dynamics(t + SimDuration::from_micros(25), DynAction::NodeCrash(1));
        sim.inject_dynamics(t + SimDuration::from_micros(75), DynAction::NodeRejoin(1));
        sim.run_detailed().0
    };
    assert_eq!(run(EngineKind::Batched), run(EngineKind::Parallel));
}

/// Drops the two config-echo lines (`"engine"`, `"workers"`) that
/// legitimately differ between engine runs of the same sweep; everything
/// else in the JSON document — aggregates, confidence intervals, raw
/// per-trial summaries — must be byte-identical.
fn strip_engine_echo(json: &str) -> String {
    let stripped: Vec<&str> = json
        .lines()
        .filter(|line| {
            let t = line.trim_start();
            !t.starts_with("\"engine\":") && !t.starts_with("\"workers\":")
        })
        .collect();
    // The echo lines must actually be present, or the filter proves
    // nothing (e.g. after a rename in `render_json`).
    assert_eq!(
        json.lines().count(),
        stripped.len() + 2,
        "engine/workers echo missing from JSON"
    );
    stripped.join("\n")
}

/// A CI-sized fixed-seed sweep for the JSON regressions: two dense
/// trials per protocol at one point, shortened so the whole matrix
/// (batched plus parallel at 2 and 8 workers) stays fast.
fn json_sweep_config() -> SweepConfig {
    let mut cfg = SweepConfig::for_family(Family::Dense, false);
    cfg.seed = 42;
    cfg.trials = 2;
    cfg.threads = 1;
    cfg.values = vec![60];
    cfg.override_duration = Some(20);
    cfg
}

/// The exact path behind `slrsim --json`: `run_sweep` + `render_json`
/// with a fixed seed produces byte-identical documents under the
/// parallel engine (2 and 8 workers) and
/// under batched, modulo the engine/workers echo. This pins the whole
/// pipeline — trial scheduling, per-trial RNG derivation, metric
/// aggregation and JSON formatting — not just the trial summaries the
/// other tests compare.
#[test]
fn cli_json_byte_identical_across_engines() {
    let protocols = [ProtocolKind::Srp, ProtocolKind::Aodv];
    let mut cfg = json_sweep_config();

    cfg.engine = EngineKind::Batched;
    let batched = render_json(&run_sweep(&protocols, &cfg));

    for workers in [2usize, 8] {
        cfg.engine = EngineKind::Parallel;
        cfg.workers = workers;
        let par = render_json(&run_sweep(&protocols, &cfg));
        // The raw documents must differ (the echo is honest)...
        assert_ne!(batched, par, "engine echo missing at {workers} workers");
        // ...and agree byte for byte once the echo is stripped.
        assert_eq!(
            strip_engine_echo(&batched),
            strip_engine_echo(&par),
            "CLI JSON diverged between batched and parallel@{workers}"
        );
    }
}

/// The `--oracle` variant of the same regression: SRP trials run under
/// the loop-freedom oracle (`SweepConfig::oracle`, as `slrsim --oracle`
/// runs them) on a crash–rejoin workload, and the rendered JSON must still be
/// byte-identical between batched and parallel@2 after stripping the
/// engine/workers echo.
#[test]
fn cli_json_byte_identical_with_oracle() {
    let oracle_json = |engine: EngineKind, workers: usize| {
        let mut cfg = json_sweep_config();
        cfg.values = vec![40];
        cfg.override_dynamics = Some(DynamicsSpec::default_crash(2));
        cfg.engine = engine;
        cfg.workers = workers;
        cfg.oracle = true;
        render_json(&run_sweep(&[ProtocolKind::Srp], &cfg))
    };

    let batched = oracle_json(EngineKind::Batched, 1);
    let par = oracle_json(EngineKind::Parallel, 2);
    assert_ne!(batched, par, "engine echo missing");
    assert_eq!(
        strip_engine_echo(&batched),
        strip_engine_echo(&par),
        "oracle CLI JSON diverged between batched and parallel@2"
    );
}
