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
//!
//! The figure binaries parse the same flags as `slrsim` into one
//! validated sweep ([`Cli::parse`]). `--oracle` is a property of that
//! sweep, so here too it runs the SRP and SRP-MP trials under the
//! loop-freedom oracle and prints its `oracle:` report to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slr_runner::cli::{parse_cli, render_scenario_list, usage, CliAction};
use slr_runner::experiment::SweepConfig;

/// Command-line options shared by the figure/table binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Sweep configuration assembled from the flags.
    pub sweep: SweepConfig,
}

impl Cli {
    /// Parses `std::env::args` with the flag parser shared with `slrsim`
    /// ([`slr_runner::cli::parse_cli`]), exiting with status 2 on an
    /// error. Every shared flag applies except `--protocol` and `--json`:
    /// the binaries fix their own protocol sets and output. `--trials`
    /// defaults to 10 at paper scale, else 3.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cli = match parse_cli(&args, |paper| if paper { 10 } else { 3 }) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        match cli.action {
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
        // Accepting these flags and ignoring them would silently change
        // what an hours-long sweep appears to measure.
        if cli.protocols.is_some() || cli.json {
            eprintln!(
                "--protocol/--json are slrsim flags; the figure binaries \
                 run the paper's protocol set with their own output"
            );
            std::process::exit(2);
        }
        Cli { sweep: cli.sweep }
    }

    /// One-line description of the configuration, for run logs.
    pub fn describe(&self) -> String {
        format!(
            "{} scale, family {}, {} trials/point, {} {:?}, seed {}, {} threads",
            if self.sweep.paper_scale {
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
        };
        assert!(cli.describe().contains("quick"));
        assert!(cli.describe().contains("paper-sweep"));
        assert_eq!(cli.sweep.values.len(), 8);
    }
}
