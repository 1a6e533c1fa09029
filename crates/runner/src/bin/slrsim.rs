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
//! binaries and the examples, see [`slr_runner::cli`]):
//!
//! * `--scenario NAME` — scenario family (default `paper-sweep`); see
//!   `--list-scenarios`
//! * `--param NAME` — swept parameter
//!   (`pause|nodes|flows|rate|speed|churn`; default: the family's)
//! * `--values a,b,c` — sweep points (default: the family's)
//! * `--pause SECONDS` — shorthand for `--param pause --values SECONDS`
//! * `--protocol srp|srp-mp|aodv|dsr|ldr|olsr|all` (default `all`)
//! * `--trials N` (default 1), `--seed N` (default 42)
//! * `--threads N` — the sweep's thread ceiling (default: the machine's
//!   cores): trials run `N` at a time, or `N / workers` at a time (at
//!   least one) under `--engine parallel`
//! * `--nodes N`, `--flows N`, `--duration SECONDS` — post-build overrides
//! * `--dynamics churn[:RATE]|partition[:K]|crash[:N]|none` — overlay a
//!   topology-dynamics schedule on any family
//! * `--adversary byzantine[:PCT]|sybil[:PCT]|chaos[:PCT]|none` — field
//!   misbehaving nodes on any family (honest nodes get the audit layer)
//! * `--paper` — paper-scale scenarios instead of quick
//! * `--json` — emit one JSON document with aggregates and per-trial
//!   summaries instead of the text table
//! * `--oracle` — run the SRP and SRP-MP trials of the sweep under the
//!   loop-freedom oracle, which checks every node's successor view for
//!   Definition 1 order breaks and Theorem 3 cycles (panics on either).
//!   It is a property of the sweep (`SweepConfig::oracle`), so every
//!   front end that takes the shared flags honours it
//! * `--validate-spatial` — debug: cross-check the spatial index's answer
//!   to every neighbor query against the brute-force oracle (pairs well
//!   with `--oracle`; adds an O(N) scan per transmission)
//! * `--engine batched|parallel` — transmission-end event dispatch; the
//!   two are bit-identical, they trade wall clock only
//! * `--workers N|auto` — intra-trial workers for `--engine parallel`
//!   (default: the machine's cores, capped at 8; `auto` resolves to the
//!   host's full parallelism and the JSON echo records the resolved
//!   number); each trial stands up its own pool of that width
//! * `--list-scenarios` — print the registry and exit

use slr_runner::cli::{parse_cli, render_scenario_list, usage, CliAction};
use slr_runner::experiment::{run_sweep, Metric};
use slr_runner::report::render_json;
use slr_runner::scenario::ProtocolKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args, |_| 1) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match cli.action {
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

    let cfg = cli.sweep;
    let protocols = cli
        .protocols
        .unwrap_or_else(|| ProtocolKind::all().to_vec());
    let result = run_sweep(&protocols, &cfg);

    if cli.json {
        print!("{}", render_json(&result));
        return;
    }

    let first = cfg.scenario_for(protocols[0], cfg.values[0], 0);
    eprintln!(
        "scenario {} ({}), sweeping {} over {:?}, {} trial(s), seed {}",
        cfg.family.name(),
        first.describe(),
        cfg.param.name(),
        cfg.values,
        cfg.trials,
        cfg.seed
    );
    println!(
        "{:<8} {:>8} {:>9} {:>9} {:>11} {:>12} {:>9}",
        "proto",
        cfg.param.name(),
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
