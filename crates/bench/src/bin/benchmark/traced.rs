//! The traced run: one extra repetition with every existing probe on,
//! spans at each boundary visible from outside the program, the isolated
//! replays, and the fold of all of it into the per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use slr_mobility::MobilityScript;
use slr_netsim::rng::stream;
use slr_netsim::time::SimTime;
use slr_runner::experiment::run_sweep;
use slr_runner::report::render_json;
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::{EngineKind, WindowStats};
use slr_runner::{MemReport, Metrics, MobilitySpec, Scenario, TopologySpec};
use slr_traffic::TrafficScript;

use crate::layers::{Inputs, Metric, REPLAYS};
use crate::rep::{digest, run_rep, Outcome};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::workloads::{Job, Workload};

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Trial runs made (every pass counts) and how many broke a check.
    pub attempted: u64,
    pub failed: u64,
    pub spans: Spans,
}

/// One trial of the untraced reference pass. A trial that panicked has no
/// outcome, and zeroes for everything else.
struct Reference {
    protocol: ProtocolKind,
    wall_s: f64,
    outcome: Option<Outcome>,
    metrics: Metrics,
    mem: MemReport,
}

/// One operation of the traced run. As in the timed run, a panic is a
/// failed operation (`None`) and the run goes on.
fn op<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Generates a scenario's mobility and traffic scripts exactly as
/// `Sim::new` does, each under its own span, so the two generators are
/// timed directly (the scripts also parameterise the replays).
fn generate_scripts(
    s: &Scenario,
    spans: &mut Spans,
    parent: SpanId,
    trial: usize,
) -> (MobilityScript, TrafficScript) {
    let master = s.master_seed();
    let span = spans.open(Some(parent), Some(trial), "mobility.generate");
    let mobility = match (s.mobility, s.topology) {
        (MobilitySpec::RandomWaypoint { .. }, TopologySpec::UniformRandom) => {
            let cfg = s.waypoint_config().expect("waypoint mobility");
            MobilityScript::generate(s.nodes, &cfg, &mut stream(master, "mobility", 0))
        }
        (MobilitySpec::RandomWaypoint { .. }, topology) => {
            let starts =
                topology.positions(s.nodes, &s.terrain, &mut stream(master, "topology", 0));
            let mut cfg = s.waypoint_config().expect("waypoint mobility");
            cfg.terrain = topology.enclosing_terrain(s.nodes, s.terrain);
            MobilityScript::generate_from(&starts, &cfg, &mut stream(master, "mobility", 0))
        }
        (MobilitySpec::Static, topology) => MobilityScript::stationary(&topology.positions(
            s.nodes,
            &s.terrain,
            &mut stream(master, "topology", 0),
        )),
    };
    spans.close(span);
    let span = spans.open(Some(parent), Some(trial), "traffic.generate");
    let rng = &mut stream(master, "traffic", 0);
    let traffic = match s.traffic.locality_m {
        None => TrafficScript::generate(s.nodes, &s.traffic_config(), rng),
        Some(max_dist_m) => TrafficScript::generate_local(
            &s.traffic_config(),
            rng,
            &mobility.positions_at(SimTime::ZERO),
            max_dist_m,
        ),
    };
    spans.close(span);
    (mobility, traffic)
}

/// The untraced reference: every trial through `run_with_mem_report`
/// (`run_detailed` plus one end-of-run footprint walk), timed.
fn reference_pass(w: &Workload, spans: &mut Spans, root: SpanId) -> Vec<Reference> {
    let pass = spans.open(Some(root), None, "reference");
    let runs = w
        .jobs()
        .into_iter()
        .enumerate()
        .map(|(trial, job)| {
            let ran = op(|| {
                let sim = w.sim(job);
                let span = spans.open(Some(pass), Some(trial), "reference.run");
                let t0 = Instant::now();
                let (summary, metrics, mem) = sim.run_with_mem_report();
                let wall_s = t0.elapsed().as_secs_f64();
                spans.close(span);
                (wall_s, Outcome::of(&summary, &metrics), metrics, mem)
            });
            let (wall_s, outcome, metrics, mem) = match ran {
                Some((wall_s, outcome, metrics, mem)) => (wall_s, Some(outcome), metrics, mem),
                None => (0.0, None, Metrics::default(), MemReport::default()),
            };
            Reference {
                protocol: job.0,
                wall_s,
                outcome,
                metrics,
                mem,
            }
        })
        .collect();
    spans.close(pass);
    runs
}

/// What one traced trial returned besides its spans.
struct Probed {
    /// Probes must not perturb the simulation: the digest is the
    /// reference pass's.
    digest_ok: bool,
    window: WindowStats,
}

/// One traced trial: set-up under spans, then the run with the engine's
/// probe on, its accumulators attached to the `run` span as aggregate
/// children (laid end to end from the span's start) so that the span's
/// self time is what no probe accounts for.
fn traced_trial(
    w: &Workload,
    job: Job,
    trial: usize,
    reference: &Reference,
    spans: &mut Spans,
    rep: SpanId,
) -> (Probed, MobilityScript) {
    let span = spans.open(Some(rep), Some(trial), "trial");
    let setup = spans.open(Some(span), Some(trial), "setup");
    let (mobility, _traffic) = generate_scripts(&w.scenario(job), spans, setup, trial);
    let scripts_ns = spans.now_ns() - spans.get(setup).start_ns;
    let new_start = spans.now_ns();
    let sim = w.sim(job);
    let new_end = spans.now_ns();
    // `Sim::new` generates both scripts again; what is left is assembly.
    let assemble_ns = (new_end - new_start).saturating_sub(scripts_ns);
    spans.add(
        Some(setup),
        Some(trial),
        "runner.assemble",
        new_end - assemble_ns,
        new_end,
    );
    spans.close(setup);

    let run = spans.open(Some(span), Some(trial), "run");
    let mut window = WindowStats::default();
    let (summary, parts): (_, Vec<(&str, u64)>) = if w.cfg.engine == EngineKind::Parallel {
        let (summary, stats) = sim.run_with_window_stats();
        window = stats;
        (
            summary,
            vec![
                ("par.serial", stats.serial_ns),
                ("par.parallel", stats.parallel_ns),
            ],
        )
    } else {
        let (summary, _, phases) = sim.run_phased();
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        (
            summary,
            vec![
                ("phase.medium", ns(phases.medium)),
                ("phase.signal", ns(phases.signal)),
                ("phase.mac", ns(phases.mac)),
                ("phase.proto", ns(phases.proto)),
            ],
        )
    };
    spans.close(run);
    let mut at = spans.get(run).start_ns;
    for (name, ns) in parts {
        spans.add(Some(run), Some(trial), name, at, at + ns);
        at += ns;
    }
    spans.close(span);
    let digest_ok = Some(digest(&summary)) == reference.outcome.map(|o| o.digest);
    (Probed { digest_ok, window }, mobility)
}

/// `Err` is a harness error: no trial could even be set up, so nothing
/// parameterises the replays. Anything less is counted in `failed`.
pub fn run_traced(w: &Workload, smoke: bool) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let root = spans.open(None, None, "workload");
    let jobs = w.jobs();
    let mut attempted = 0;
    let mut failed = 0;
    let implausible = |o: Option<Outcome>| !o.is_some_and(|o| o.plausible());

    let reference = reference_pass(w, &mut spans, root);
    attempted += reference.len() as u64;
    failed += reference.iter().filter(|r| implausible(r.outcome)).count() as u64;

    let rep = spans.open(Some(root), None, "rep");
    let mut probed = Vec::new();
    let mut first_script = None;
    for (trial, (&job, reference)) in jobs.iter().zip(&reference).enumerate() {
        attempted += 1;
        match op(|| traced_trial(w, job, trial, reference, &mut spans, rep)) {
            Some((p, script)) => {
                failed += u64::from(!p.digest_ok);
                probed.push(p);
                first_script.get_or_insert(script);
            }
            None => failed += 1,
        }
    }
    spans.close(rep);

    // Trials only the traced run makes (`Workload::probe`), untraced.
    let mut probe_walls = Vec::new();
    if let Some(probe) = w.probe() {
        let span = spans.open(Some(root), None, "probe");
        let probe_rep = run_rep(&probe);
        spans.close(span);
        attempted += probe_rep.trials.len() as u64;
        for (job, t) in probe.jobs().iter().zip(&probe_rep.trials) {
            failed += u64::from(implausible(t.outcome));
            probe_walls.push((job.0, t.wall_s));
        }
    }

    // The same job list through the sweep driver on one thread: what is
    // left after the trials themselves is pool, collection and merge cost.
    attempted += jobs.len() as u64;
    let span = spans.open(Some(root), None, "sweep");
    let t0 = Instant::now();
    let result = op(|| run_sweep(&w.protocols, &w.cfg));
    let sweep_s = t0.elapsed().as_secs_f64();
    spans.close(span);
    let span = spans.open(Some(root), None, "report.render_json");
    let t0 = Instant::now();
    if let Some(result) = &result {
        std::hint::black_box(render_json(result));
    }
    let render_json_s = t0.elapsed().as_secs_f64();
    spans.close(span);
    // Each of the sweep's trials is held to the reference pass's digest; a
    // sweep that panicked has none.
    for (&(kind, value, trial), r) in jobs.iter().zip(&reference) {
        let summary = result
            .as_ref()
            .and_then(|res| res.runs.get(&(kind.name(), value))?.get(trial as usize));
        let same = summary.is_some() && summary.map(digest) == r.outcome.map(|o| o.digest);
        failed += u64::from(!same);
    }

    // The parallel workload against its serial twin: same scenario, same
    // digest, and the ratio of their untraced walls.
    let mut speedup = 0.0;
    if let Some(twin) = w.serial_twin() {
        let span = spans.open(Some(root), None, "serial-twin");
        let twin_rep = run_rep(&twin);
        spans.close(span);
        attempted += reference.len() as u64;
        for (i, r) in reference.iter().enumerate() {
            // A trial the twin lacks, or that panicked on either side, fails.
            let twin = twin_rep.trials.get(i).and_then(|t| t.outcome);
            let same = twin.is_some() && twin.map(|o| o.digest) == r.outcome.map(|o| o.digest);
            failed += u64::from(!same);
        }
        speedup = twin_rep.wall_s() / reference.iter().map(|r| r.wall_s).sum::<f64>();
    }

    let mut metrics = fold(w, &reference, &probe_walls, &probed, &spans);
    metrics.push(("runner.par.speedup_vs_batched", speedup));
    let reference_total: f64 = spans.total_s("reference");
    metrics.push(("runner.sweep.overhead_s", sweep_s - reference_total));
    metrics.push(("runner.report.render_json_s", render_json_s));

    let scenario = w.scenario(jobs[0]);
    let script = first_script.ok_or("no trial of the traced run could be set up")?;
    let inputs = Inputs {
        scenario: &scenario,
        script: &script,
        protocols: &w.protocols,
        workers: w.cfg.workers,
        shrink: if smoke { 100 } else { 1 },
    };
    for (name, replay) in REPLAYS {
        let span = spans.open(Some(root), None, name);
        metrics.extend(replay(&inputs));
        spans.close(span);
    }
    spans.close(root);
    Ok(Traced {
        metrics,
        attempted,
        failed,
        spans,
    })
}

/// Folds the reference pass, the probes and the spans into the in-situ
/// per-layer metrics.
fn fold(
    w: &Workload,
    reference: &[Reference],
    probe_walls: &[(ProtocolKind, f64)],
    probed: &[Probed],
    spans: &Spans,
) -> Vec<Metric> {
    let sum =
        |f: &dyn Fn(&Metrics) -> u64| reference.iter().map(|r| f(&r.metrics)).sum::<u64>() as f64;
    let srp = |f: &dyn Fn(&Metrics) -> u64| -> Vec<u64> {
        reference
            .iter()
            .filter(|r| r.protocol == ProtocolKind::Srp)
            .map(|r| f(&r.metrics))
            .collect()
    };
    let untraced_s: f64 = reference.iter().map(|r| r.wall_s).sum();
    let traced_s = spans.total_s("run");
    let events = sum(&|m| m.sim_events);
    let transmissions = sum(&|m| m.mac_tx_data + m.control_sent);
    let originated = sum(&|m| m.data_originated);
    let delivered = sum(&|m| m.data_delivered);
    let max_denominator = srp(&|m| m.max_fd_denominator)
        .into_iter()
        .max()
        .unwrap_or(0);
    let phase = |name: &str| spans.total_s(name);
    let other_s = spans.self_s("run");
    let per_tx_us = |s: f64| s * 1e6 / transmissions.max(1.0);
    let window = probed.iter().fold(WindowStats::default(), |mut a, p| {
        let s = &p.window;
        a.serial_events += s.serial_events;
        a.windows += s.windows;
        a.windowed_events += s.windowed_events;
        a.multi_events += s.multi_events;
        a.max_width = a.max_width.max(s.max_width);
        a.mac_hops += s.mac_hops;
        a.spec_hits += s.spec_hits;
        a.spec_misses += s.spec_misses;
        a.serial_ns += s.serial_ns;
        a.parallel_ns += s.parallel_ns;
        a
    });
    let parallel = w.cfg.engine == EngineKind::Parallel;
    let mem = |f: &dyn Fn(&MemReport) -> usize| {
        reference.iter().map(|r| f(&r.mem)).max().unwrap_or(0) as f64
    };
    let trial_s = |kind: ProtocolKind| {
        let walls: Vec<f64> = reference
            .iter()
            .map(|r| (r.protocol, r.wall_s))
            .chain(probe_walls.iter().copied())
            .filter(|(protocol, _)| *protocol == kind)
            .map(|(_, wall_s)| wall_s)
            .collect();
        if walls.is_empty() {
            0.0
        } else {
            median(&walls)
        }
    };
    vec![
        ("runner.sim.events", events),
        (
            "runner.sim.us_per_event",
            untraced_s * 1e6 / events.max(1.0),
        ),
        ("runner.sim.phase_medium_s", phase("phase.medium")),
        ("runner.sim.phase_signal_s", phase("phase.signal")),
        ("runner.sim.phase_mac_s", phase("phase.mac")),
        ("runner.sim.phase_proto_s", phase("phase.proto")),
        ("runner.sim.phase_other_s", other_s),
        ("runner.sim.other_share", other_s / traced_s),
        ("trace.overhead", traced_s / untraced_s),
        ("runner.medium.us_per_tx", per_tx_us(phase("phase.medium"))),
        (
            "radio.channel.signal_us_per_tx",
            per_tx_us(phase("phase.signal")),
        ),
        ("radio.mac.us_per_tx", per_tx_us(phase("phase.mac"))),
        ("radio.channel.transmissions", transmissions),
        ("radio.channel.collisions", sum(&|m| m.collisions)),
        ("radio.mac.drops", sum(&|m| m.mac_drops)),
        ("radio.mac.drop_retry", sum(&|m| m.mac_drop_retry)),
        ("radio.mac.drop_ifq", sum(&|m| m.mac_drop_ifq)),
        ("protocols.control_sent", sum(&|m| m.control_sent)),
        ("protocols.proto_share", phase("phase.proto") / traced_s),
        (
            "protocols.srp.discoveries",
            srp(&|m| m.discoveries).iter().sum::<u64>() as f64,
        ),
        (
            "protocols.srp.resets",
            srp(&|m| m.resets).iter().sum::<u64>() as f64,
        ),
        ("protocols.srp.max_denominator", max_denominator as f64),
        ("runner.metrics.originated", originated),
        ("runner.metrics.delivered", delivered),
        (
            "runner.metrics.duplicates",
            sum(&|m| m.duplicate_deliveries),
        ),
        (
            "runner.metrics.data_drops",
            sum(&|m| m.drops.values().sum()),
        ),
        (
            "runner.metrics.delivery_ratio",
            delivered / originated.max(1.0),
        ),
        (
            "runner.metrics.network_load",
            sum(&|m| m.control_sent) / delivered.max(1.0),
        ),
        (
            "runner.metrics.latency_s",
            reference.iter().map(|r| r.metrics.latency_sum).sum::<f64>() / delivered.max(1.0),
        ),
        (
            "runner.metrics.label_bits",
            label_bits(max_denominator) as f64,
        ),
        ("runner.par.windows", window.windows as f64),
        ("runner.par.mean_width", window.mean_width()),
        ("runner.par.multi_share", window.multi_share()),
        ("runner.par.max_width", window.max_width as f64),
        ("runner.par.mac_hops", window.mac_hops as f64),
        ("runner.par.spec_hits", window.spec_hits as f64),
        ("runner.par.spec_misses", window.spec_misses as f64),
        (
            "runner.par.serial_share",
            if parallel { window.serial_share() } else { 0.0 },
        ),
        ("runner.mem.proto_bytes", mem(&|m| m.proto_bytes)),
        ("runner.mem.mac_bytes", mem(&|m| m.mac_bytes)),
        ("runner.mem.channel_bytes", mem(&|m| m.channel_bytes)),
        ("runner.mem.spatial_bytes", mem(&|m| m.spatial_bytes)),
        ("runner.mem.queue_bytes", mem(&|m| m.queue_bytes)),
        ("runner.mem.metrics_bytes", mem(&|m| m.metrics_bytes)),
        (
            "runner.mem.bytes_per_node",
            reference
                .iter()
                .map(|r| r.mem.bytes_per_node())
                .fold(0.0, f64::max),
        ),
        ("mobility.generate_s", phase("mobility.generate")),
        ("traffic.generate_s", phase("traffic.generate")),
        ("runner.assemble_s", phase("runner.assemble")),
        ("runner.trial_s.srp", trial_s(ProtocolKind::Srp)),
        ("runner.trial_s.aodv", trial_s(ProtocolKind::Aodv)),
        ("runner.trial_s.dsr", trial_s(ProtocolKind::Dsr)),
        ("runner.trial_s.ldr", trial_s(ProtocolKind::Ldr)),
        ("runner.trial_s.olsr", trial_s(ProtocolKind::Olsr)),
    ]
}

/// Bits a label denominator needs: ⌈log2(max denominator)⌉, 0 when the
/// workload ran no SRP.
pub fn label_bits(max_denominator: u64) -> u32 {
    match max_denominator {
        0 | 1 => 0,
        d => 64 - (d - 1).leading_zeros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_bits_is_the_ceiling_of_log2() {
        assert_eq!(label_bits(0), 0);
        assert_eq!(label_bits(1), 0);
        assert_eq!(label_bits(2), 1);
        assert_eq!(label_bits(3), 2);
        assert_eq!(label_bits(1 << 27), 27);
        assert_eq!(label_bits((1 << 27) + 1), 28);
        assert_eq!(label_bits(u64::from(u32::MAX)), 32);
    }
}
