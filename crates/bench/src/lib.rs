//! # slr-bench — benchmark harness for the SLR reproduction
//!
//! Three binaries:
//!
//! * `all_figures` regenerates Table I and Figs. 3–7 from a single sweep,
//!   each beside the paper's published value or shape. Default is a
//!   laptop-scale quick mode (50 nodes, 160 s, 3 trials); pass `--paper`
//!   for the full §V configuration (100 nodes, 910 s, 10 trials — hours
//!   of CPU). Any registered scenario family can be substituted with
//!   `--scenario NAME`.
//! * `ablation_multipath` compares uni-path SRP with round-robin
//!   multipath forwarding over the same sweep.
//! * `benchmark` is the repository benchmark declared in
//!   `BENCHMARK.json` (see `src/bin/benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slr_runner::cli::{parse_cli, render_scenario_list, usage, CliAction};
use slr_runner::experiment::SweepConfig;

/// Command-line options shared by the figure/table binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Sweep configuration assembled from the flags.
    pub sweep: SweepConfig,
    /// Whether `--paper` was requested.
    pub paper: bool,
}

impl Cli {
    /// Parses `std::env::args` with the flag parser shared with `slrsim`
    /// ([`slr_runner::cli::parse_cli`]).
    ///
    /// Flags: `--paper`, `--trials N` (default 10 at paper scale, else 3),
    /// `--seed N`, `--threads N` (default: available parallelism),
    /// `--pauses a,b,c` (defaults to the paper's eight pause times),
    /// `--scenario NAME` (any registry family; its default param/values
    /// replace the pause sweep), `--param NAME`, `--values a,b,c`,
    /// `--dynamics churn[:R]|partition[:K]|crash[:N]`.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let opts = match parse_cli(&args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        match opts.action {
            CliAction::Help => {
                eprintln!("{}", usage("(figure/table binary)"));
                std::process::exit(0);
            }
            CliAction::ListScenarios => {
                print!("{}", render_scenario_list());
                std::process::exit(0);
            }
            CliAction::Run => {}
        }
        // The figure/table binaries fix their own protocol sets and output
        // formats; accepting these flags and ignoring them would silently
        // change what an hours-long sweep appears to measure.
        if opts.protocols.is_some() || opts.json || opts.oracle {
            eprintln!(
                "--protocol/--json/--oracle are slrsim flags; the figure binaries \
                 run the paper's protocol set with their own output"
            );
            std::process::exit(2);
        }
        let paper = opts.paper;
        let workers = opts.effective_workers();
        let trials = opts.trials.unwrap_or(if paper { 10 } else { 3 });
        let threads = opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        let (param, values) =
            match SweepConfig::resolve(opts.family, opts.param, opts.values, paper) {
                Ok(resolved) => resolved,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
        let sweep = SweepConfig {
            seed: opts.seed,
            trials,
            family: opts.family,
            param,
            values,
            paper_scale: paper,
            threads,
            override_nodes: opts.nodes,
            override_flows: opts.flows,
            override_duration: opts.duration,
            override_dynamics: opts.dynamics,
            override_adversary: opts.adversary,
            validate_spatial: opts.validate_spatial,
            engine: opts.engine,
            workers,
        };
        if let Err(e) = sweep.validate() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Cli { sweep, paper }
    }

    /// One-line description of the configuration, for run logs.
    pub fn describe(&self) -> String {
        format!(
            "{} scale, family {}, {} trials/point, {} {:?}, seed {}, {} threads",
            if self.paper {
                "paper (100 nodes, 910 s)"
            } else {
                "quick (50 nodes, 160 s)"
            },
            self.sweep.family.name(),
            self.sweep.trials,
            self.sweep.param.name(),
            self.sweep.values,
            self.sweep.seed,
            self.sweep.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slr_runner::experiment::PAUSE_TIMES;

    #[test]
    fn default_cli_shape() {
        // Parsing with no args (test binary args are filtered out as
        // unknown flags at worst).
        let cli = Cli {
            sweep: SweepConfig {
                seed: 42,
                trials: 3,
                values: PAUSE_TIMES.to_vec(),
                threads: 2,
                ..SweepConfig::default()
            },
            paper: false,
        };
        assert!(cli.describe().contains("quick"));
        assert!(cli.describe().contains("paper-sweep"));
        assert_eq!(cli.sweep.values.len(), 8);
    }
}
