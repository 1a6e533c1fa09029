//! The five workloads. Each is a `SweepConfig` plus a protocol list, so a
//! workload's trials are exactly the jobs `run_sweep` would run for it:
//! the program under test receives the generated `Scenario`s and nothing
//! else. `--seed` is the only input.
//!
//! Every workload but `grid-olsr` pools several scenario draws (trial
//! indices) per repetition. How much a scenario costs to simulate follows
//! its draw of placement, mobility and flows: over 30 seeds the events of
//! one `dense` trial spread (interquartile range ÷ median) 21 %, of one
//! `huge` trial 12 %, of `paper` at two trials a point 16 % — before any
//! host noise, against a largest allowed bound of 25 %. Pooled as below
//! they spread 10 %, 6 % and 10 %.

use slr_runner::experiment::SweepConfig;
use slr_runner::registry::Family;
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::{EngineKind, Sim};
use slr_runner::Scenario;

pub const NAMES: [&str; 5] = ["paper", "grid-olsr", "dense", "dense-par", "huge"];

pub struct Workload {
    pub name: &'static str,
    pub protocols: Vec<ProtocolKind>,
    pub cfg: SweepConfig,
}

/// One trial of a workload: `(protocol, sweep value, trial index)`.
pub type Job = (ProtocolKind, u64, u64);

/// Workers of the parallel workload: two, or one on a single-core host
/// (more threads than cores would measure scheduling, not the engine).
pub fn par_workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    /// `smoke` shrinks every workload to run in a second or two even
    /// unoptimised; it keeps each workload's family, engine and protocol
    /// set, so every code path and metric name is still exercised.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        use ProtocolKind::{Aodv, Dsr, Ldr, Olsr, Srp};
        let base = |family: Family, paper_scale: bool| SweepConfig {
            seed,
            trials: 1,
            threads: 1,
            ..SweepConfig::for_family(family, paper_scale)
        };
        // Traffic starts 10 s in, so 20 s is 10 s of it; five draws of
        // that spread 10 % where two draws of the family's 40 s spread 14 %
        // for more host time.
        let dense = |engine: EngineKind| SweepConfig {
            trials: if smoke { 1 } else { 5 },
            values: vec![if smoke { 100 } else { 1000 }],
            override_duration: Some(if smoke { 15 } else { 20 }),
            engine,
            workers: if engine == EngineKind::Parallel {
                par_workers()
            } else {
                1
            },
            ..base(Family::Dense, false)
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        let (protocols, cfg) = match name {
            "paper" => (
                vec![Srp, Aodv, Dsr, Ldr],
                SweepConfig {
                    trials: if smoke { 1 } else { 3 },
                    values: if smoke { vec![0] } else { vec![0, 900] },
                    override_duration: Some(if smoke { 15 } else { 80 }),
                    ..base(Family::PaperSweep, false)
                },
            ),
            // On the static grid, not the paper's random placement: OLSR's
            // cost follows the topology it learns, and over random
            // placements host time per event spread 40 % from seed to seed.
            "grid-olsr" => (
                vec![Olsr],
                SweepConfig {
                    values: vec![if smoke { 25 } else { 100 }],
                    override_duration: Some(if smoke { 20 } else { 22 }),
                    ..base(Family::Grid, false)
                },
            ),
            "dense" => (vec![Srp], dense(EngineKind::Batched)),
            "dense-par" => (vec![Srp], dense(EngineKind::Parallel)),
            "huge" => (
                vec![Srp],
                SweepConfig {
                    trials: if smoke { 1 } else { 3 },
                    values: vec![if smoke { 500 } else { 100_000 }],
                    override_duration: smoke.then_some(8),
                    ..base(Family::Huge, true)
                },
            ),
            _ => return None,
        };
        cfg.validate().expect("workload configuration");
        Some(Workload {
            name,
            protocols,
            cfg,
        })
    }

    /// The same scenarios on the serial batched engine, if this workload
    /// runs the parallel one: its digests and its wall clock are what the
    /// parallel engine is held against.
    pub fn serial_twin(&self) -> Option<Workload> {
        (self.cfg.engine == EngineKind::Parallel).then(|| Workload {
            name: "dense",
            protocols: self.protocols.clone(),
            cfg: SweepConfig {
                engine: EngineKind::Batched,
                workers: 1,
                ..self.cfg.clone()
            },
        })
    }

    /// A trial only the traced run makes, and only for `runner.trial_s.*`:
    /// it is in no sum and no timed repetition. `paper` runs OLSR once on
    /// its own mobile scenario (pause 0, trial 0). That is where the cost
    /// of OLSR under topology change — neighbour expiry, MPR and topology
    /// churn, recomputing routes that did change — is recorded, beside the
    /// static `grid-olsr`; it spreads too far from seed to seed, and costs
    /// too much, to be a bounded workload of its own.
    pub fn probe(&self) -> Option<Workload> {
        (self.name == "paper").then(|| Workload {
            name: self.name,
            protocols: vec![ProtocolKind::Olsr],
            cfg: SweepConfig {
                values: vec![0],
                trials: 1,
                ..self.cfg.clone()
            },
        })
    }

    /// The workload's trials, in `run_sweep`'s job order.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for &kind in &self.protocols {
            for &value in &self.cfg.values {
                for trial in 0..self.cfg.trials {
                    jobs.push((kind, value, trial));
                }
            }
        }
        jobs
    }

    pub fn scenario(&self, (kind, value, trial): Job) -> Scenario {
        self.cfg.scenario_for(kind, value, trial)
    }

    /// Builds one trial the way `run_sweep` does.
    pub fn sim(&self, job: Job) -> Sim {
        Sim::new(self.scenario(job))
            .with_engine(self.cfg.engine)
            .with_workers(self.cfg.workers)
    }
}
