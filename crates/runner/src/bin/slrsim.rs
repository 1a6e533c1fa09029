//! `slrsim` — run any registered scenario family from the command line.
//!
//! ```sh
//! cargo run --release -p slr-runner --bin slrsim -- --scenario grid
//! cargo run --release -p slr-runner --bin slrsim -- \
//!     --scenario churn --param churn --values 2,6,12 --json
//! cargo run --release -p slr-runner --bin slrsim -- \
//!     --scenario grid --dynamics partition:2 --protocol srp --oracle
//! ```
//!
//! Flags (all optional; the parser is shared with the `slr-bench`
//! binaries, see [`slr_runner::cli`]):
//!
//! * `--scenario NAME` — scenario family (default `paper-sweep`); see
//!   `--list-scenarios`
//! * `--param NAME` — swept parameter
//!   (`pause|nodes|flows|rate|speed|churn`; default: the family's)
//! * `--values a,b,c` — sweep points (default: the family's)
//! * `--pause SECONDS` — shorthand for `--param pause --values SECONDS`
//! * `--protocol srp|srp-mp|aodv|dsr|ldr|olsr|all` (default `all`)
//! * `--trials N` (default 1), `--seed N` (default 42), `--threads N`
//! * `--nodes N`, `--flows N`, `--duration SECONDS` — post-build overrides
//! * `--dynamics churn[:RATE]|partition[:K]|crash[:N]|none` — overlay a
//!   topology-dynamics schedule on any family
//! * `--adversary byzantine[:PCT]|sybil[:PCT]|chaos[:PCT]|none` — field
//!   misbehaving nodes on any family (honest nodes get the audit layer)
//! * `--paper` — paper-scale scenarios instead of quick
//! * `--json` — emit one JSON document with aggregates and per-trial
//!   summaries instead of the text table
//! * `--oracle` — additionally run SRP trials under the loop-freedom
//!   oracle (panics on any Theorem 3 violation)
//! * `--validate-spatial` — debug: cross-check every neighbor query —
//!   the spatial index's answer or the parallel engine's speculation —
//!   against the brute-force oracle (pairs well with `--oracle`; adds an
//!   O(N) scan per transmission)
//! * `--engine batched|parallel` — transmission-end event dispatch; the
//!   two are bit-identical, they trade wall clock only
//! * `--workers N|auto` — intra-trial workers for `--engine parallel`
//!   (default: the machine's cores, capped at 8; `auto` resolves to the
//!   host's full parallelism and the JSON echo records the resolved
//!   number); the sweep sizes one unified work-stealing pool at
//!   `workers × threads` capped at the available cores, shared by
//!   cross-trial jobs and intra-trial window shards
//! * `--list-scenarios` — print the registry and exit

use slr_netsim::time::SimDuration;
use slr_runner::cli::{parse_cli, render_scenario_list, usage, CliAction};
use slr_runner::experiment::{run_sweep, Metric, SweepConfig, SweepResult};
use slr_runner::report::render_json;
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::Sim;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_cli(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match opts.action {
        CliAction::ListScenarios => {
            print!("{}", render_scenario_list());
            return;
        }
        CliAction::Help => {
            eprintln!("{}", usage("slrsim"));
            return;
        }
        CliAction::Run => {}
    }

    let workers = opts.effective_workers();
    let protocols = opts
        .protocols
        .unwrap_or_else(|| ProtocolKind::all().to_vec());
    let family = opts.family;
    let (param, values) = match SweepConfig::resolve(family, opts.param, opts.values, opts.paper) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut cfg = SweepConfig {
        seed: opts.seed,
        trials: opts.trials.unwrap_or(1),
        family,
        param,
        values,
        paper_scale: opts.paper,
        override_nodes: opts.nodes,
        override_flows: opts.flows,
        override_duration: opts.duration,
        override_dynamics: opts.dynamics,
        override_adversary: opts.adversary,
        validate_spatial: opts.validate_spatial,
        engine: opts.engine,
        workers,
        ..SweepConfig::default()
    };
    if let Some(t) = opts.threads {
        cfg.threads = t;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let result = if opts.oracle && protocols.contains(&ProtocolKind::Srp) {
        // SRP trials run once, sequentially, under the oracle; their
        // summaries feed the stats directly (no duplicate simulation).
        // Other protocols still go through the parallel sweep.
        let srp_runs = run_oracle_pass(&cfg);
        let others: Vec<ProtocolKind> = protocols
            .iter()
            .copied()
            .filter(|p| *p != ProtocolKind::Srp)
            .collect();
        let mut result = if others.is_empty() {
            SweepResult {
                runs: Default::default(),
                protocols: Vec::new(),
                family: cfg.family,
                param: cfg.param,
                values: cfg.values.clone(),
                engine: cfg.engine,
                workers: cfg.workers,
            }
        } else {
            run_sweep(&others, &cfg)
        };
        result.runs.extend(srp_runs);
        result.protocols = protocols.clone();
        result
    } else {
        if opts.oracle {
            eprintln!("--oracle: no SRP in the protocol set, skipping");
        }
        run_sweep(&protocols, &cfg)
    };

    if opts.json {
        print!("{}", render_json(&result));
        return;
    }

    let first = cfg.scenario_for(protocols[0], cfg.values[0], 0);
    eprintln!(
        "scenario {} ({}), sweeping {} over {:?}, {} trial(s), seed {}",
        family.name(),
        first.describe(),
        param.name(),
        cfg.values,
        cfg.trials,
        cfg.seed
    );
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>11} {:>12} {:>9}",
        "proto",
        param.name(),
        "delivery",
        "load",
        "latency(s)",
        "drops/node",
        "seqno"
    );
    for kind in &protocols {
        for &value in &cfg.values {
            println!(
                "{:<8} {:>8} {:>9.3} {:>9.3} {:>11.4} {:>12.1} {:>9.2}",
                kind.name(),
                value,
                result.point(*kind, value, Metric::DeliveryRatio).mean,
                result.point(*kind, value, Metric::NetworkLoad).mean,
                result.point(*kind, value, Metric::Latency).mean,
                result.point(*kind, value, Metric::MacDrops).mean,
                result.point(*kind, value, Metric::AvgSeqno).mean,
            );
        }
    }
}

/// Runs every SRP point once under the loop-freedom oracle (sequential —
/// the oracle inspects global protocol state every simulated second and
/// after every dynamics event) and returns the summaries so they double
/// as the SRP sweep results.
fn run_oracle_pass(
    cfg: &SweepConfig,
) -> std::collections::BTreeMap<(&'static str, u64), Vec<slr_runner::TrialSummary>> {
    let mut runs: std::collections::BTreeMap<(&'static str, u64), Vec<slr_runner::TrialSummary>> =
        Default::default();
    for &value in &cfg.values {
        for trial in 0..cfg.trials {
            let scenario = cfg.scenario_for(ProtocolKind::Srp, value, trial);
            let mut sim = Sim::new(scenario)
                .with_engine(cfg.engine)
                .with_workers(cfg.workers);
            if cfg.validate_spatial {
                sim.enable_spatial_validation();
            }
            let (summary, soft) = sim.run_with_loop_oracle(SimDuration::from_secs(1));
            eprintln!(
                "oracle: {}={} trial {} OK ({} soft order drift(s), {} dynamics event(s))",
                cfg.param.name(),
                value,
                trial,
                soft,
                summary.dynamics_events,
            );
            runs.entry((ProtocolKind::Srp.name(), value))
                .or_default()
                .push(summary);
        }
    }
    eprintln!("oracle: loop-freedom held at every checkpoint");
    runs
}
