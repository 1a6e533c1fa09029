//! Experiment drivers: sweeps of any scalar scenario parameter over any
//! registered scenario family, with multi-threaded trials, plus the
//! aggregations behind the paper's Table I and Figures 3–7.
//!
//! The paper's evaluation is the special case `family = paper-sweep,
//! param = pause`; the same machinery runs node-count scaling sweeps,
//! flow-count contention sweeps, and any other [`SweepParam`] the
//! registry understands.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use slr_netsim::time::{SimDuration, SimTime, MAX_SECS};

use crate::adversary::AdversarySpec;
use crate::dynamics::DynamicsSpec;
use crate::metrics::TrialSummary;
use crate::registry::{Family, SweepParam};
use crate::scenario::{ProtocolKind, Scenario};
use crate::sim::{EngineKind, Sim};
use crate::stats::MeanCi;

/// The paper's eight pause times (§V).
pub const PAUSE_TIMES: [u64; 8] = [0, 50, 100, 200, 300, 500, 700, 900];

/// Which metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fig. 4 / Table I column 1.
    DeliveryRatio,
    /// Fig. 5 / Table I column 2.
    NetworkLoad,
    /// Fig. 6 / Table I column 3.
    Latency,
    /// Fig. 3.
    MacDrops,
    /// Fig. 7.
    AvgSeqno,
}

impl Metric {
    /// Extracts the metric from a trial summary.
    pub fn of(&self, s: &TrialSummary) -> f64 {
        match self {
            Metric::DeliveryRatio => s.delivery_ratio,
            Metric::NetworkLoad => s.network_load,
            Metric::Latency => s.latency,
            Metric::MacDrops => s.mac_drops_per_node,
            Metric::AvgSeqno => s.avg_seqno,
        }
    }

    /// Axis label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::DeliveryRatio => "Delivery Ratio",
            Metric::NetworkLoad => "Network Load",
            Metric::Latency => "Data Latency (seconds)",
            Metric::MacDrops => "MAC Drops (packets)",
            Metric::AvgSeqno => "Avg. node sequence number",
        }
    }

    /// JSON key used in machine-readable reports.
    pub fn key(&self) -> &'static str {
        match self {
            Metric::DeliveryRatio => "delivery_ratio",
            Metric::NetworkLoad => "network_load",
            Metric::Latency => "latency",
            Metric::MacDrops => "mac_drops_per_node",
            Metric::AvgSeqno => "avg_seqno",
        }
    }

    /// All metrics, in the paper's figure order.
    pub fn all() -> [Metric; 5] {
        [
            Metric::MacDrops,
            Metric::DeliveryRatio,
            Metric::NetworkLoad,
            Metric::Latency,
            Metric::AvgSeqno,
        ]
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base seed; trial `t` derives from `(seed, t)`.
    pub seed: u64,
    /// Trials per (protocol, value) point (paper: 10).
    pub trials: u64,
    /// The scenario family to run.
    pub family: Family,
    /// The scalar parameter being swept.
    pub param: SweepParam,
    /// The values `param` takes, one sweep point each.
    pub values: Vec<u64>,
    /// Use the paper-scale scenario (`true`) or the scaled-down quick one.
    pub paper_scale: bool,
    /// The sweep's thread ceiling, the calling thread included (CLI
    /// `--threads`). Trials are independent, so they run side by side:
    /// `threads` at once under the batched engine, `threads / workers`
    /// (at least one) under the parallel engine, where each trial brings
    /// its own `workers`-wide window pool.
    pub threads: usize,
    /// Optional node-count override applied after the family builds each
    /// point (CLI `--nodes`).
    pub override_nodes: Option<usize>,
    /// Optional flow-count override (CLI `--flows`).
    pub override_flows: Option<usize>,
    /// Optional end-time override in seconds (CLI `--duration`).
    pub override_duration: Option<u64>,
    /// Optional dynamics override applied after the family builds each
    /// point (CLI `--dynamics`), composing topology events onto any
    /// family.
    pub override_dynamics: Option<DynamicsSpec>,
    /// Optional adversary override applied after the family builds each
    /// point (CLI `--adversary`), fielding misbehaving nodes on any
    /// family.
    pub override_adversary: Option<AdversarySpec>,
    /// Cross-check every neighbor query against the brute-force oracle
    /// (CLI `--validate-spatial`; debug only — it adds an O(N) scan per
    /// transmission on top of the index).
    pub validate_spatial: bool,
    /// Which transmission-end event engine trials run under (CLI
    /// `--engine`).
    pub engine: EngineKind,
    /// Intra-trial workers for [`EngineKind::Parallel`] (CLI `--workers`;
    /// must be 1 under the batched engine). Output is bit-identical at
    /// any worker count; this only trades wall clock. Each parallel
    /// trial's workers count against [`SweepConfig::threads`].
    pub workers: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 42,
            trials: 3,
            family: Family::PaperSweep,
            param: SweepParam::Pause,
            values: PAUSE_TIMES.to_vec(),
            paper_scale: false,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            override_nodes: None,
            override_flows: None,
            override_duration: None,
            override_dynamics: None,
            override_adversary: None,
            validate_spatial: false,
            engine: EngineKind::default(),
            workers: 1,
        }
    }
}

impl SweepConfig {
    /// A family's default sweep at the given scale.
    pub fn for_family(family: Family, paper_scale: bool) -> Self {
        SweepConfig {
            family,
            param: family.default_param(),
            values: family.default_values(paper_scale),
            paper_scale,
            ..SweepConfig::default()
        }
    }

    /// Resolves a CLI's `(family, --param, --values)` triple into a
    /// validated `(param, values)` pair: fills family defaults where flags
    /// were omitted, and rejects inapplicable params (e.g. pause on a
    /// static family), mismatched defaults, and degenerate values.
    pub fn resolve(
        family: Family,
        param: Option<SweepParam>,
        values: Option<Vec<u64>>,
        paper_scale: bool,
    ) -> Result<(SweepParam, Vec<u64>), String> {
        let param = param.unwrap_or_else(|| family.default_param());
        if !family.supports(param) {
            return Err(format!(
                "scenario {} has no {} to sweep (static mobility)",
                family.name(),
                param.name()
            ));
        }
        let values = match values {
            Some(v) => v,
            // Family defaults only fit the family's own parameter
            // (grid's node counts are not pause times).
            None if param == family.default_param() => family.default_values(paper_scale),
            None => {
                return Err(format!(
                    "--param {} on scenario {} needs explicit --values (the family's defaults are {} values)",
                    param.name(),
                    family.name(),
                    family.default_param().name()
                ));
            }
        };
        if values.is_empty() {
            return Err("sweep needs at least one value".to_string());
        }
        for &v in &values {
            param.validate_value(v)?;
        }
        Ok((param, values))
    }

    /// Checks this configuration the way [`SweepConfig::resolve`] would,
    /// plus override consistency: a fixed `--nodes`/`--flows` override
    /// would silently clobber a sweep of the same parameter, reporting
    /// identical points at different x values.
    pub fn validate(&self) -> Result<(), String> {
        SweepConfig::resolve(
            self.family,
            Some(self.param),
            Some(self.values.clone()),
            self.paper_scale,
        )?;
        if self.trials == 0 {
            return Err("trials must be at least 1 (a sweep of no trials measures nothing)".into());
        }
        if self.threads == 0 {
            return Err("threads must be at least 1 (the calling thread runs trials too)".into());
        }
        if let Some(d) = self.override_duration.filter(|&d| d > MAX_SECS) {
            return Err(format!(
                "duration must be at most {MAX_SECS} s (the simulated clock's range), got {d}"
            ));
        }
        if self.override_nodes.is_some() && self.param == SweepParam::Nodes {
            return Err("--nodes conflicts with sweeping nodes (drop one)".to_string());
        }
        if self.override_flows.is_some() && self.param == SweepParam::Flows {
            return Err("--flows conflicts with sweeping flows (drop one)".to_string());
        }
        if self.param == SweepParam::ChurnRate {
            if let Some(d) = self.override_dynamics {
                if !matches!(d, DynamicsSpec::LinkChurn { .. }) {
                    return Err(format!(
                        "--dynamics {} conflicts with sweeping churn (every point would be identical)",
                        d.name()
                    ));
                }
            }
        }
        if self.param == SweepParam::Adversaries {
            if let Some(AdversarySpec::None) = self.override_adversary {
                return Err(
                    "--adversary none conflicts with sweeping adversaries (every \
                     point would be identical)"
                        .to_string(),
                );
            }
        }
        if self.workers == 0 {
            return Err(
                "workers must be at least 1 (`--workers auto` resolves the host's parallelism)"
                    .to_string(),
            );
        }
        if self.workers > 1 && self.engine != EngineKind::Parallel {
            return Err(format!(
                "workers = {} requires the parallel engine: only parallel \
                 trials open windows that can occupy extra cores (the \
                 batched engine parallelizes across trials via threads \
                 alone)",
                self.workers
            ));
        }
        // Overrides are constant across points, so one probe scenario
        // catches degenerate combinations before they panic a worker.
        let probe = self.scenario_for(ProtocolKind::Srp, self.values[0], 0);
        // The spatial index numbers nodes with `u32` ids.
        if !(2..=u32::MAX as usize).contains(&probe.nodes) {
            return Err(format!(
                "scenario needs 2 to {} nodes, got {}",
                u32::MAX,
                probe.nodes
            ));
        }
        // A trial of no flows offers nothing, and its delivery ratio of 0
        // would read as total loss (a flow sweep rejects 0 the same way).
        if probe.flows() == 0 {
            return Err("flows must be >= 1 (a trial of no flows offers nothing)".to_string());
        }
        // A waypoint pause leg starts before the end and lasts the whole
        // pause, so the clock must reach past the end by that much.
        if self.param == SweepParam::Pause {
            for &v in &self.values {
                if probe.end.checked_add(SimDuration::from_secs(v)).is_none() {
                    return Err(format!(
                        "pause {v} s runs past the simulated clock's range ({MAX_SECS} s)"
                    ));
                }
            }
        }
        if probe.end <= probe.traffic_start {
            return Err(format!(
                "duration {} s leaves no traffic window (traffic starts at {} s)",
                probe.end.as_secs_f64(),
                probe.traffic_start.as_secs_f64()
            ));
        }
        Ok(())
    }

    /// Builds the scenario for one sweep point.
    pub fn scenario_for(&self, kind: ProtocolKind, value: u64, trial: u64) -> Scenario {
        let mut s =
            self.family
                .scenario_at(kind, self.seed, trial, self.paper_scale, self.param, value);
        if let Some(n) = self.override_nodes {
            s.nodes = n;
        }
        if let Some(f) = self.override_flows {
            s.set_flows(f);
        }
        if let Some(d) = self.override_duration {
            s.end = SimTime::from_secs(d);
        }
        if let Some(d) = self.override_dynamics {
            // Apply before a churn sweep would have: the sweep value wins.
            if self.param != SweepParam::ChurnRate {
                s.dynamics = d;
            }
        }
        if let Some(a) = self.override_adversary {
            // An adversary sweep sets the fraction on the family's kind;
            // otherwise `--adversary` picks kind and fraction wholesale.
            if self.param == SweepParam::Adversaries {
                let mut a = a;
                a.set_percent(s.adversary.percent().max(1));
                s.adversary = a;
            } else {
                s.adversary = a;
            }
        }
        s
    }

    /// The simulation for one trial of one sweep point, under the
    /// sweep's engine settings.
    fn sim_for(&self, kind: ProtocolKind, value: u64, trial: u64) -> Sim {
        let mut sim = Sim::new(self.scenario_for(kind, value, trial))
            .with_engine(self.engine)
            .with_workers(self.workers);
        if self.validate_spatial {
            sim.enable_spatial_validation();
        }
        sim
    }
}

/// All trial summaries of a sweep, keyed by `(protocol, value)`.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Raw per-trial summaries.
    pub runs: BTreeMap<(&'static str, u64), Vec<TrialSummary>>,
    /// Protocols included, in plot order.
    pub protocols: Vec<ProtocolKind>,
    /// The family that was run.
    pub family: Family,
    /// The parameter that was swept.
    pub param: SweepParam,
    /// The values it took.
    pub values: Vec<u64>,
    /// The engine that dispatched the trials.
    pub engine: EngineKind,
    /// The resolved intra-trial worker count (always a concrete number —
    /// `--workers auto` resolves before the sweep runs; 1 for the serial
    /// engines). Echoed into the JSON config block so archived results
    /// record what actually ran.
    pub workers: usize,
}

impl SweepResult {
    /// Mean ± CI of `metric` for `(protocol, value)`.
    pub fn point(&self, protocol: ProtocolKind, value: u64, metric: Metric) -> MeanCi {
        let samples: Vec<f64> = self
            .runs
            .get(&(protocol.name(), value))
            .map(|v| v.iter().map(|s| metric.of(s)).collect())
            .unwrap_or_default();
        MeanCi::from_samples(&samples)
    }

    /// Table-I style aggregate: the metric averaged over *all sweep
    /// values* (each trial at each value is one sample, as in the paper's
    /// "performance average over all pause times").
    pub fn overall(&self, protocol: ProtocolKind, metric: Metric) -> MeanCi {
        let mut samples = Vec::new();
        for value in &self.values {
            if let Some(v) = self.runs.get(&(protocol.name(), *value)) {
                samples.extend(v.iter().map(|s| metric.of(s)));
            }
        }
        MeanCi::from_samples(&samples)
    }

    /// The largest SRP feasible-distance denominator across all runs
    /// (the paper reports "the maximum denominator stayed under 840
    /// million").
    pub fn max_fd_denominator(&self, protocol: ProtocolKind) -> u64 {
        self.values
            .iter()
            .filter_map(|p| self.runs.get(&(protocol.name(), *p)))
            .flatten()
            .map(|s| s.max_fd_denominator)
            .max()
            .unwrap_or(0)
    }
}

/// Strictly parses a comma-separated `--values` list: any unparsable
/// token is an error, not a silently dropped sweep point.
pub fn parse_values(list: &str) -> Result<Vec<u64>, String> {
    let values: Vec<u64> = list
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad value {:?} in {list:?} (expected integers)", s.trim()))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err("expected a comma-separated list of integers".to_string());
    }
    Ok(values)
}

/// Runs a full sweep: `protocols × values × trials`, the trials
/// side by side on the sweep's threads. Deterministic per `(seed, trial)`
/// regardless of scheduling: each trial is an isolated simulation with
/// its own derived RNG streams, window scheduling cannot reach
/// simulation output, and results are collected in trial order.
///
/// # Panics
///
/// Panics if the configuration fails [`SweepConfig::validate`] — CLIs
/// should validate (or build via [`SweepConfig::resolve`]) first for a
/// clean error instead.
pub fn run_sweep(protocols: &[ProtocolKind], cfg: &SweepConfig) -> SweepResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid sweep configuration: {e}");
    }
    let jobs = trial_jobs(protocols, cfg);
    let summaries = run_trials(cfg, &jobs, |&(kind, value, trial)| {
        cfg.sim_for(kind, value, trial).run()
    });
    let mut runs: BTreeMap<(&'static str, u64), Vec<TrialSummary>> = BTreeMap::new();
    for (&(kind, value, _), summary) in jobs.iter().zip(summaries) {
        runs.entry((kind.name(), value)).or_default().push(summary);
    }
    SweepResult {
        runs,
        protocols: protocols.to_vec(),
        family: cfg.family,
        param: cfg.param,
        values: cfg.values.clone(),
        engine: cfg.engine,
        workers: cfg.workers,
    }
}

/// Runs every point of `kind` once under the loop-freedom oracle (the
/// oracle inspects each trial's own protocol state every simulated second
/// and after every dynamics event, so trials still run side by side) and
/// returns the summaries, so they double as `kind`'s sweep results. The
/// per-trial `oracle:` report lines go to stderr in trial order.
///
/// # Panics
///
/// Panics on a loop-freedom violation, or if `kind`'s protocol exposes no
/// successor view to check (today only the SRP engine does:
/// [`ProtocolKind::runs_srp`]).
pub fn run_oracle_pass(
    cfg: &SweepConfig,
    kind: ProtocolKind,
) -> BTreeMap<(&'static str, u64), Vec<TrialSummary>> {
    let jobs = trial_jobs(&[kind], cfg);
    let results = run_trials(cfg, &jobs, |&(kind, value, trial)| {
        cfg.sim_for(kind, value, trial)
            .run_with_loop_oracle(SimDuration::from_secs(1))
    });
    let mut runs: BTreeMap<(&'static str, u64), Vec<TrialSummary>> = BTreeMap::new();
    for (&(_, value, trial), (summary, soft)) in jobs.iter().zip(results) {
        eprintln!(
            "oracle: {} {}={} trial {} OK ({} soft order drift(s), {} dynamics event(s))",
            kind.name(),
            cfg.param.name(),
            value,
            trial,
            soft,
            summary.dynamics_events,
        );
        runs.entry((kind.name(), value)).or_default().push(summary);
    }
    eprintln!(
        "oracle: loop-freedom held at every {} checkpoint",
        kind.name()
    );
    runs
}

/// The `(protocol, value, trial)` jobs of a sweep, in sweep order (so
/// each point's trials come out trial-ordered).
fn trial_jobs(protocols: &[ProtocolKind], cfg: &SweepConfig) -> Vec<(ProtocolKind, u64, u64)> {
    let mut jobs = Vec::new();
    for &kind in protocols {
        for &value in &cfg.values {
            for trial in 0..cfg.trials {
                jobs.push((kind, value, trial));
            }
        }
    }
    jobs
}

/// The trial scheduler: runs `run` once per job on scoped threads, the
/// caller among them, each taking the next job off a shared index, and
/// returns the results in job order. At most `threads` jobs run at once
/// under the batched engine and `threads / workers` (at least one) under
/// the parallel engine, whose trials each stand up a `workers`-wide pool.
///
/// # Panics
///
/// Re-raises the panic of a job that panicked.
fn run_trials<J: Sync, T: Send>(
    cfg: &SweepConfig,
    jobs: &[J],
    run: impl Fn(&J) -> T + Sync,
) -> Vec<T> {
    let at_once = (cfg.threads / cfg.workers).max(1).min(jobs.len());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            done.push((i, run(job)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..at_once).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Runs a single trial (the building block for examples and tests).
pub fn run_trial(scenario: Scenario) -> TrialSummary {
    Sim::new(scenario).run()
}

/// A convenience wrapper for quick single-point comparisons.
pub fn quick_compare(
    protocols: &[ProtocolKind],
    pause: u64,
    trials: u64,
    seed: u64,
) -> Vec<(&'static str, MeanCi)> {
    let cfg = SweepConfig {
        seed,
        trials,
        values: vec![pause],
        ..SweepConfig::default()
    };
    let result = run_sweep(protocols, &cfg);
    protocols
        .iter()
        .map(|p| (p.name(), result.point(*p, pause, Metric::DeliveryRatio)))
        .collect()
}

/// Duration helper used by binaries to describe scenarios.
pub fn pause_duration(pause: u64) -> SimDuration {
    SimDuration::from_secs(pause)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_collects_all_points() {
        let cfg = SweepConfig {
            seed: 11,
            trials: 2,
            values: vec![150],
            threads: 2,
            ..SweepConfig::default()
        };
        // A tiny sweep with two protocols; quick scenarios are 50 nodes ×
        // 160 s, so keep this to one pause.
        let result = run_sweep(&[ProtocolKind::Srp, ProtocolKind::Aodv], &cfg);
        assert_eq!(result.runs.len(), 2);
        for v in result.runs.values() {
            assert_eq!(v.len(), 2);
        }
        let p = result.point(ProtocolKind::Srp, 150, Metric::DeliveryRatio);
        assert_eq!(p.n, 2);
        assert!(p.mean > 0.0, "SRP should deliver something: {p:?}");
    }

    #[test]
    fn sweep_can_vary_node_count() {
        let cfg = SweepConfig {
            seed: 3,
            trials: 1,
            family: Family::Grid,
            param: SweepParam::Nodes,
            values: vec![9, 16],
            threads: 2,
            override_duration: Some(40),
            ..SweepConfig::default()
        };
        let result = run_sweep(&[ProtocolKind::Srp], &cfg);
        assert_eq!(result.runs.len(), 2);
        for (&(_, value), trials) in &result.runs {
            assert!(value == 9 || value == 16);
            assert_eq!(trials.len(), 1);
            assert!(
                trials[0].originated > 0,
                "nodes={value} generated no traffic"
            );
        }
    }

    #[test]
    fn resolve_guards_param_value_combinations() {
        // A non-default param without explicit values must not inherit the
        // family's defaults (pause times are not node counts).
        assert!(
            SweepConfig::resolve(Family::PaperSweep, Some(SweepParam::Nodes), None, false).is_err()
        );
        // Mobility params are inapplicable on static families.
        assert!(SweepConfig::resolve(
            Family::Grid,
            Some(SweepParam::Pause),
            Some(vec![100]),
            false
        )
        .is_err());
        assert!(SweepConfig::resolve(
            Family::Disc,
            Some(SweepParam::MaxSpeed),
            Some(vec![10]),
            false
        )
        .is_err());
        // Degenerate values are rejected up front, not deep in a worker.
        assert!(SweepConfig::resolve(
            Family::PaperSweep,
            Some(SweepParam::Nodes),
            Some(vec![1]),
            false
        )
        .is_err());
        assert!(SweepConfig::resolve(
            Family::PaperSweep,
            Some(SweepParam::PacketRate),
            Some(vec![0]),
            false
        )
        .is_err());
        // Omitted flags fall back to the family's defaults.
        let (p, v) = SweepConfig::resolve(Family::Grid, None, None, false).unwrap();
        assert_eq!(p, SweepParam::Nodes);
        assert_eq!(v, vec![9, 25, 49]);
    }

    #[test]
    fn validate_rejects_override_sweep_conflicts() {
        let cfg = SweepConfig {
            family: Family::Grid,
            param: SweepParam::Nodes,
            values: vec![9, 25],
            override_nodes: Some(50),
            ..SweepConfig::default()
        };
        assert!(
            cfg.validate().is_err(),
            "--nodes must not clobber a node sweep"
        );
        let ok = SweepConfig {
            family: Family::Grid,
            param: SweepParam::Nodes,
            values: vec![9, 25],
            override_flows: Some(3),
            ..SweepConfig::default()
        };
        assert!(ok.validate().is_ok(), "orthogonal overrides are fine");
    }

    #[test]
    fn validate_rejects_zero_flows_override() {
        let cfg = |flows| SweepConfig {
            override_flows: Some(flows),
            ..SweepConfig::default()
        };
        let e = cfg(0).validate().unwrap_err();
        assert!(e.contains("flows must be >= 1"), "{e}");
        assert!(cfg(1).validate().is_ok());
    }

    /// Seconds from the command line are multiplied into `u64`
    /// nanoseconds; past the clock's range they used to wrap (a
    /// `--duration 18446744100` ran a 26.3 s trial).
    #[test]
    fn validate_rejects_clock_overflow() {
        let base = || SweepConfig {
            values: vec![0],
            ..SweepConfig::default()
        };
        let with_duration = |d| SweepConfig {
            override_duration: Some(d),
            ..base()
        };
        assert!(with_duration(MAX_SECS).validate().is_ok());
        for d in [MAX_SECS + 1, 18_446_744_100, u64::MAX] {
            let e = with_duration(d).validate().unwrap_err();
            assert!(e.contains("duration"), "{e}");
        }
        // Out of range on its own, and in range but past the clock once
        // the pause leg starts just before the trial's end.
        for pause in [u64::MAX, MAX_SECS + 1, MAX_SECS] {
            let cfg = SweepConfig {
                values: vec![0, pause],
                ..SweepConfig::default()
            };
            let e = cfg.validate().unwrap_err();
            assert!(e.contains("pause"), "{e}");
        }
    }

    /// A sweep of no trials printed a delivery ratio of 0 for every
    /// point, and a node count past `u32::MAX` panicked allocating.
    #[test]
    fn validate_rejects_empty_and_oversized_sweeps() {
        let e = SweepConfig {
            trials: 0,
            values: vec![0],
            ..SweepConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("trials"), "{e}");
        // `--threads 0` is an error, not a silent single thread.
        let e = SweepConfig {
            threads: 0,
            values: vec![0],
            ..SweepConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(e.contains("threads"), "{e}");
        let too_many = u64::from(u32::MAX) + 1;
        let swept = SweepConfig {
            family: Family::Grid,
            param: SweepParam::Nodes,
            values: vec![9, too_many],
            ..SweepConfig::default()
        };
        let e = swept.validate().unwrap_err();
        assert!(e.contains("nodes"), "{e}");
        for n in [too_many as usize, usize::MAX] {
            let overridden = SweepConfig {
                override_nodes: Some(n),
                values: vec![0],
                ..SweepConfig::default()
            };
            let e = overridden.validate().unwrap_err();
            assert!(e.contains("nodes"), "{e}");
        }
    }

    #[test]
    fn worker_thread_core_budget() {
        // Validation: >1 workers require the parallel engine.
        let bad = SweepConfig {
            workers: 4,
            values: vec![0],
            ..SweepConfig::default()
        };
        assert!(bad.validate().is_err());
        let zero = SweepConfig {
            workers: 0,
            values: vec![0],
            ..SweepConfig::default()
        };
        assert!(zero.validate().is_err());
        let ok = SweepConfig {
            engine: EngineKind::Parallel,
            workers: 2,
            values: vec![0],
            ..SweepConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn sweep_runs_under_the_parallel_engine() {
        let run = |engine, workers| {
            let cfg = SweepConfig {
                seed: 11,
                trials: 2,
                values: vec![150],
                threads: 2,
                engine,
                workers,
                ..SweepConfig::default()
            };
            run_sweep(&[ProtocolKind::Srp], &cfg)
        };
        let batched = run(EngineKind::Batched, 1);
        let parallel = run(EngineKind::Parallel, 2);
        // The whole sweep result — every trial summary — is bit-identical.
        for (key, cell) in &batched.runs {
            assert_eq!(cell, &parallel.runs[key], "sweep diverged at {key:?}");
        }
    }

    /// SRP-MP runs the same `Srp` engine as SRP, so the oracle pass must
    /// check it too rather than skip it.
    #[test]
    fn oracle_pass_checks_srp_multipath() {
        let cfg = SweepConfig {
            trials: 1,
            values: vec![9],
            override_duration: Some(30),
            ..SweepConfig::for_family(Family::Grid, false)
        };
        let runs = run_oracle_pass(&cfg, ProtocolKind::SrpMultipath);
        let cell = &runs[&(ProtocolKind::SrpMultipath.name(), 9)];
        assert_eq!(cell.len(), 1);
        assert!(cell[0].oracle_checks > 0, "the oracle never ran");
    }

    /// `threads` bounds the trials in flight, the calling thread counted;
    /// under the parallel engine each trial's workers count against it.
    #[test]
    fn sweep_never_runs_more_trials_at_once_than_threads() {
        let cases = [
            (EngineKind::Batched, 1, 1, 1),
            (EngineKind::Batched, 2, 1, 2),
            (EngineKind::Parallel, 4, 2, 2),
            (EngineKind::Parallel, 1, 2, 1),
        ];
        for (engine, threads, workers, limit) in cases {
            let cfg = SweepConfig {
                threads,
                engine,
                workers,
                ..SweepConfig::default()
            };
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let jobs: Vec<usize> = (0..8).collect();
            let done = run_trials(&cfg, &jobs, |&job| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Long enough for a surplus thread to pick up the next job.
                std::thread::sleep(std::time::Duration::from_millis(5));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                job
            });
            assert_eq!(done, jobs, "results must come back in job order");
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= limit,
                "{peak} trials in flight at threads {threads}, workers {workers}"
            );
        }
    }

    /// A trial that panics fails the whole sweep with its own message,
    /// whichever thread ran it.
    #[test]
    fn panicking_trial_reraises_from_the_scheduler() {
        let cfg = SweepConfig {
            threads: 2,
            ..SweepConfig::default()
        };
        let jobs: Vec<usize> = (0..6).collect();
        let r = std::panic::catch_unwind(|| {
            run_trials(&cfg, &jobs, |&job| {
                if job == 3 {
                    panic!("trial {job} boom");
                }
                job
            })
        });
        let payload = r.expect_err("the trial's panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(msg, "trial 3 boom");
    }

    /// The oracle pass runs its trials side by side; the summaries (and
    /// with them the oracle's check and soft-violation counts) must not
    /// depend on how many run at once.
    #[test]
    fn oracle_pass_is_identical_at_one_and_two_threads() {
        let pass = |threads| {
            let cfg = SweepConfig {
                trials: 2,
                values: vec![9, 16],
                override_duration: Some(30),
                threads,
                ..SweepConfig::for_family(Family::Grid, false)
            };
            run_oracle_pass(&cfg, ProtocolKind::Srp)
        };
        let one = pass(1);
        assert_eq!(one.values().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(one, pass(2));
    }

    #[test]
    fn parse_values_is_strict() {
        assert_eq!(parse_values("1, 2,3").unwrap(), vec![1, 2, 3]);
        assert!(
            parse_values("10,1O0,300").is_err(),
            "typo must not be dropped"
        );
        assert!(parse_values("").is_err());
    }

    #[test]
    fn adversary_override_composes() {
        use crate::registry::Family;
        // `--adversary` fields misbehaving nodes on any family.
        let cfg = SweepConfig {
            override_adversary: Some(AdversarySpec::default_chaos()),
            ..SweepConfig::default()
        };
        let s = cfg.scenario_for(ProtocolKind::Srp, 0, 0);
        assert_eq!(s.adversary.name(), "chaos");
        // Under an adversary-fraction sweep the swept value wins; the
        // override only picks the kind.
        let cfg = SweepConfig {
            family: Family::Byzantine,
            param: SweepParam::Adversaries,
            values: vec![10, 25],
            override_adversary: Some(AdversarySpec::default_sybil()),
            ..SweepConfig::default()
        };
        let s = cfg.scenario_for(ProtocolKind::Srp, 25, 0);
        assert_eq!(s.adversary.name(), "sybil");
        assert_eq!(s.adversary.percent(), 25);
        // `--adversary none` under an adversary sweep would flatten every
        // point; rejected up front.
        let bad = SweepConfig {
            family: Family::Byzantine,
            param: SweepParam::Adversaries,
            values: vec![10],
            override_adversary: Some(AdversarySpec::None),
            ..SweepConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn overrides_apply_after_family_build() {
        let cfg = SweepConfig {
            override_nodes: Some(12),
            override_flows: Some(2),
            override_duration: Some(33),
            ..SweepConfig::default()
        };
        let s = cfg.scenario_for(ProtocolKind::Srp, 0, 0);
        assert_eq!(s.nodes, 12);
        assert_eq!(s.flows(), 2);
        assert_eq!(s.end, SimTime::from_secs(33));
    }
}
