//! The shared command-line parser for every harness front-end.
//!
//! `slrsim` and the `slr-bench` figure/table binaries accept the same core
//! sweep flags; this module owns the single flag loop both build on, so
//! the front-ends cannot drift (previously each hand-rolled its own copy).
//! Parsing is strict: unknown flags, missing flag arguments and
//! conflicting shorthands are errors, not warnings — a typo must not
//! silently change what an hours-long sweep measures.

use crate::adversary::AdversarySpec;
use crate::dynamics::DynamicsSpec;
use crate::registry::{Family, SweepParam};
use crate::scenario::ProtocolKind;
use crate::sim::EngineKind;

/// What the invocation asks the binary to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliAction {
    /// Run the configured sweep.
    Run,
    /// Print the scenario registry and exit.
    ListScenarios,
    /// Print usage and exit.
    Help,
}

/// Every option the shared flag set can express. Front-ends consume the
/// subset they support and turn the rest into their defaults.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Scenario family (`--scenario`, default paper-sweep).
    pub family: Family,
    /// Swept parameter (`--param`), if given.
    pub param: Option<SweepParam>,
    /// Sweep values (`--values` / `--pauses`), if given.
    pub values: Option<Vec<u64>>,
    /// Protocol set (`--protocol NAME|all`), if given.
    pub protocols: Option<Vec<ProtocolKind>>,
    /// Trials per point (`--trials`), if given.
    pub trials: Option<u64>,
    /// Base seed (`--seed`, default 42).
    pub seed: u64,
    /// The sweep's thread ceiling (`--threads`), if given; see
    /// [`crate::experiment::SweepConfig::threads`].
    pub threads: Option<usize>,
    /// Workers *within* a trial for `--engine parallel` (`--workers
    /// N|auto`), if given. `auto` is resolved to the host's parallelism
    /// at parse time, so downstream consumers (and the JSON config echo)
    /// always see a concrete number.
    pub workers: Option<usize>,
    /// Node-count override (`--nodes`), if given.
    pub nodes: Option<usize>,
    /// Flow-count override (`--flows`), if given.
    pub flows: Option<usize>,
    /// Duration override in seconds (`--duration`), if given.
    pub duration: Option<u64>,
    /// Dynamics override (`--dynamics churn[:R]|partition[:K]|crash[:N]`).
    pub dynamics: Option<DynamicsSpec>,
    /// Adversary override (`--adversary byzantine[:P]|sybil[:P]|chaos[:P]|none`).
    pub adversary: Option<AdversarySpec>,
    /// `--paper`: full §V scale.
    pub paper: bool,
    /// `--oracle`: run SRP and SRP-MP under the loop-freedom oracle.
    pub oracle: bool,
    /// `--validate-spatial`: cross-check every spatial-index neighbor
    /// query against the brute-force oracle (debug; slows trials to the
    /// old O(N·N) cost).
    pub validate_spatial: bool,
    /// `--engine batched|parallel`: how transmission-end events are
    /// dispatched (batched by default; parallel executes conservative
    /// windows on `--workers` threads, bit-identical at any worker count).
    pub engine: EngineKind,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// What to do (run / list / help).
    pub action: CliAction,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            family: Family::PaperSweep,
            param: None,
            values: None,
            protocols: None,
            trials: None,
            seed: 42,
            threads: None,
            workers: None,
            nodes: None,
            flows: None,
            duration: None,
            dynamics: None,
            adversary: None,
            paper: false,
            oracle: false,
            validate_spatial: false,
            engine: EngineKind::Batched,
            json: false,
            action: CliAction::Run,
        }
    }
}

impl CliOptions {
    /// Resolves `--workers` to a concrete intra-trial width: the explicit
    /// flag under `--engine parallel`, else the machine's cores capped at
    /// 8 (where the scaling curve flattens), else 1 for the batched
    /// engine. The single defaulting policy every front-end shares.
    pub fn effective_workers(&self) -> usize {
        match (self.engine, self.workers) {
            (EngineKind::Parallel, Some(w)) => w,
            (EngineKind::Parallel, None) => std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            _ => 1,
        }
    }
}

/// The one-line usage string shared by the front-ends.
pub fn usage(bin: &str) -> String {
    format!(
        "{bin} [--scenario NAME] [--param pause|nodes|flows|rate|speed|churn] \
         [--values a,b,c] [--pause S] [--protocol NAME|all] [--trials N] \
         [--seed N] [--threads N] [--nodes N] [--flows N] [--duration S] \
         [--dynamics churn[:RATE]|partition[:K]|crash[:N]|none] \
         [--adversary byzantine[:PCT]|sybil[:PCT]|chaos[:PCT]|none] [--paper] \
         [--json] [--oracle] [--validate-spatial] \
         [--engine batched|parallel] [--workers N|auto] \
         [--list-scenarios]"
    )
}

/// Renders the scenario registry for `--list-scenarios`.
pub fn render_scenario_list() -> String {
    let mut out = String::from("registered scenario families:\n\n");
    for f in Family::ALL {
        out.push_str(&format!(
            "  {:<12} {}\n  {:<12} default sweep: --param {} --values {}\n\n",
            f.name(),
            f.summary(),
            "",
            f.default_param().name(),
            f.default_values(false)
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    out.push_str(&format!(
        "sweepable parameters: {}\n",
        SweepParam::ALL
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out
}

/// Parses the shared flag set. `args` excludes the binary name (pass
/// `std::env::args().skip(1)` collected).
///
/// # Errors
///
/// Returns a human-readable message on unknown flags, missing or
/// malformed flag arguments, and conflicting shorthands (`--pause` vs.
/// `--param`/`--values`).
pub fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    // `--pause S` is shorthand for `--param pause --values S`; mixing the
    // shorthand with the explicit flags would leave the later flag
    // silently winning, so it is rejected instead.
    let mut saw_pause_shorthand = false;
    let mut saw_param = false;
    let mut saw_values = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take_value = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--scenario" | "--family" => {
                let name = take_value()?;
                opts.family = Family::parse(&name)
                    .ok_or_else(|| format!("unknown scenario {name:?}; try --list-scenarios"))?;
            }
            "--param" => {
                let name = take_value()?;
                opts.param = Some(SweepParam::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown sweep parameter {name:?} ({})",
                        SweepParam::ALL
                            .iter()
                            .map(|p| p.name())
                            .collect::<Vec<_>>()
                            .join("|")
                    )
                })?);
                saw_param = true;
            }
            "--values" | "--pauses" => {
                let list = take_value()?;
                opts.values = Some(
                    crate::experiment::parse_values(&list).map_err(|e| format!("{flag}: {e}"))?,
                );
                saw_values = true;
            }
            "--pause" => {
                let v = take_value()?;
                let pause: u64 = v.trim().parse().map_err(|_| {
                    format!("--pause needs an integer number of seconds, got {v:?}")
                })?;
                opts.param = Some(SweepParam::Pause);
                opts.values = Some(vec![pause]);
                saw_pause_shorthand = true;
            }
            "--protocol" => {
                let name = take_value()?;
                opts.protocols = Some(if name.eq_ignore_ascii_case("all") {
                    ProtocolKind::all().to_vec()
                } else {
                    vec![ProtocolKind::parse(&name).ok_or_else(|| {
                        format!("unknown protocol {name:?} (srp|srp-mp|aodv|dsr|ldr|olsr|all)")
                    })?]
                });
            }
            "--trials" => opts.trials = Some(parse_num(flag, &take_value()?)?),
            "--seed" => opts.seed = parse_num(flag, &take_value()?)?,
            "--threads" => opts.threads = Some(parse_num(flag, &take_value()?)? as usize),
            "--workers" => {
                let v = take_value()?;
                let w = if v.eq_ignore_ascii_case("auto") {
                    // Resolve immediately: everything downstream (the
                    // trials-at-once count, the JSON echo) wants the
                    // concrete number, not the sentinel.
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    let w = parse_num(flag, &v)? as usize;
                    if w == 0 {
                        return Err(
                            "--workers needs at least 1 (or `auto` for the host's parallelism)"
                                .to_string(),
                        );
                    }
                    w
                };
                opts.workers = Some(w);
            }
            "--nodes" => opts.nodes = Some(parse_num(flag, &take_value()?)? as usize),
            "--flows" => opts.flows = Some(parse_num(flag, &take_value()?)? as usize),
            "--duration" => opts.duration = Some(parse_num(flag, &take_value()?)?),
            "--dynamics" => opts.dynamics = Some(DynamicsSpec::parse(&take_value()?)?),
            "--adversary" => opts.adversary = Some(AdversarySpec::parse(&take_value()?)?),
            "--paper" => opts.paper = true,
            "--oracle" => opts.oracle = true,
            "--validate-spatial" => opts.validate_spatial = true,
            "--engine" => {
                opts.engine = match take_value()?.as_str() {
                    "batched" => EngineKind::Batched,
                    "parallel" => EngineKind::Parallel,
                    other => {
                        return Err(format!(
                            "unknown engine {other:?} (expected batched or parallel)"
                        ))
                    }
                }
            }
            "--json" => opts.json = true,
            "--list-scenarios" | "--list" => opts.action = CliAction::ListScenarios,
            "--help" | "-h" => opts.action = CliAction::Help,
            other => return Err(format!("unknown flag {other}; see --help")),
        }
        i += 1;
    }

    if saw_pause_shorthand && (saw_param || saw_values) {
        return Err(
            "--pause is shorthand for --param pause --values S; drop it or the explicit flags"
                .to_string(),
        );
    }
    if opts.workers.is_some() && opts.engine != EngineKind::Parallel {
        return Err(
            "--workers only applies to --engine parallel: only parallel trials \
             open windows that can occupy extra cores (the batched engine \
             parallelizes across trials via --threads alone)"
                .to_string(),
        );
    }
    Ok(opts)
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("{flag} needs an integer, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_with_no_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.family, Family::PaperSweep);
        assert_eq!(o.param, None);
        assert_eq!(o.values, None);
        assert_eq!(o.seed, 42);
        assert_eq!(o.action, CliAction::Run);
        assert!(!o.paper && !o.json && !o.oracle && !o.validate_spatial);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse(&[
            "--scenario",
            "churn",
            "--param",
            "churn",
            "--values",
            "2,6,12",
            "--protocol",
            "srp",
            "--trials",
            "5",
            "--seed",
            "7",
            "--threads",
            "3",
            "--nodes",
            "20",
            "--flows",
            "4",
            "--duration",
            "60",
            "--dynamics",
            "churn:12",
            "--adversary",
            "byzantine:20",
            "--paper",
            "--json",
            "--oracle",
            "--validate-spatial",
        ])
        .unwrap();
        assert_eq!(o.family, Family::Churn);
        assert_eq!(o.param, Some(SweepParam::ChurnRate));
        assert_eq!(o.values, Some(vec![2, 6, 12]));
        assert_eq!(o.protocols, Some(vec![ProtocolKind::Srp]));
        assert_eq!(o.trials, Some(5));
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.nodes, Some(20));
        assert_eq!(o.flows, Some(4));
        assert_eq!(o.duration, Some(60));
        assert_eq!(
            o.dynamics,
            Some(DynamicsSpec::LinkChurn {
                flaps_per_minute: 12.0,
                mean_down_secs: 2.0
            })
        );
        assert_eq!(o.adversary, Some(AdversarySpec::Byzantine { percent: 20 }));
        assert!(o.paper && o.json && o.oracle);
        assert!(o.validate_spatial);
    }

    #[test]
    fn adversary_flag_parses_and_rejects() {
        let o = parse(&["--adversary", "sybil"]).unwrap();
        assert_eq!(o.adversary, Some(AdversarySpec::default_sybil()));
        let o = parse(&["--adversary", "none"]).unwrap();
        assert_eq!(o.adversary, Some(AdversarySpec::None));
        assert!(parse(&["--adversary", "gremlin"]).is_err());
        assert!(parse(&["--adversary", "chaos:80"]).is_err());
        assert!(usage("slrsim").contains("--adversary"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse(&["--bogus"]).unwrap_err();
        assert!(e.contains("unknown flag --bogus"), "{e}");
        // A value-looking token in flag position errors too.
        assert!(parse(&["churn"]).is_err());
    }

    #[test]
    fn missing_flag_values_are_errors() {
        for flag in [
            "--scenario",
            "--param",
            "--values",
            "--pause",
            "--protocol",
            "--trials",
            "--seed",
            "--threads",
            "--nodes",
            "--flows",
            "--duration",
            "--dynamics",
            "--adversary",
        ] {
            let e = parse(&[flag]).unwrap_err();
            assert!(e.contains(flag), "{flag}: {e}");
        }
    }

    #[test]
    fn values_parsing_is_strict() {
        assert_eq!(
            parse(&["--values", "1, 2,3"]).unwrap().values,
            Some(vec![1, 2, 3])
        );
        let e = parse(&["--values", "10,1O0"]).unwrap_err();
        assert!(e.contains("--values"), "{e}");
        assert!(parse(&["--values", ""]).is_err());
        // --pauses is the slr-bench-era alias for the same list.
        assert_eq!(
            parse(&["--pauses", "0,900"]).unwrap().values,
            Some(vec![0, 900])
        );
    }

    #[test]
    fn pause_shorthand_conflicts_with_explicit_flags() {
        let o = parse(&["--pause", "300"]).unwrap();
        assert_eq!(o.param, Some(SweepParam::Pause));
        assert_eq!(o.values, Some(vec![300]));
        assert!(parse(&["--pause", "300", "--values", "1,2"]).is_err());
        assert!(parse(&["--param", "nodes", "--pause", "300"]).is_err());
        assert!(parse(&["--pause", "nope"]).is_err());
    }

    #[test]
    fn bad_enum_values_are_errors() {
        assert!(parse(&["--scenario", "quake"]).is_err());
        assert!(parse(&["--param", "frobnication"]).is_err());
        assert!(parse(&["--protocol", "ospf"]).is_err());
        assert!(parse(&["--dynamics", "churn:0"]).is_err());
        assert!(parse(&["--trials", "three"]).is_err());
    }

    #[test]
    fn actions_and_aliases() {
        assert_eq!(
            parse(&["--list-scenarios"]).unwrap().action,
            CliAction::ListScenarios
        );
        assert_eq!(parse(&["--list"]).unwrap().action, CliAction::ListScenarios);
        assert_eq!(parse(&["--help"]).unwrap().action, CliAction::Help);
        assert_eq!(parse(&["-h"]).unwrap().action, CliAction::Help);
        assert_eq!(
            parse(&["--family", "grid"]).unwrap().family,
            Family::Grid,
            "--family is an alias for --scenario"
        );
    }

    #[test]
    fn parallel_engine_and_workers() {
        let o = parse(&["--engine", "parallel", "--workers", "4"]).unwrap();
        assert_eq!(o.engine, EngineKind::Parallel);
        assert_eq!(o.workers, Some(4));
        // `--engine parallel` without `--workers` defers the width to the
        // front-end's default (`CliOptions::effective_workers`).
        let o = parse(&["--engine", "parallel"]).unwrap();
        assert_eq!(o.workers, None);
        // Guard rails: workers need the parallel engine, and at least 1.
        let e = parse(&["--workers", "4"]).unwrap_err();
        assert!(e.contains("--engine parallel"), "{e}");
        let e = parse(&["--engine", "batched", "--workers", "2"]).unwrap_err();
        assert!(e.contains("--engine parallel"), "{e}");
        assert!(parse(&["--engine", "parallel", "--workers", "0"]).is_err());
        assert!(parse(&["--engine", "quantum"]).is_err());
        let e = parse(&["--engine", "per-receiver"]).unwrap_err();
        assert!(e.contains("batched or parallel"), "{e}");
        assert!(usage("slrsim").contains("--workers"));
    }

    #[test]
    fn workers_auto_resolves_to_host_parallelism() {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let o = parse(&["--engine", "parallel", "--workers", "auto"]).unwrap();
        assert_eq!(o.workers, Some(host), "auto must resolve at parse time");
        let o = parse(&["--engine", "parallel", "--workers", "AUTO"]).unwrap();
        assert_eq!(o.workers, Some(host), "auto is case-insensitive");
        // The sentinel still needs the parallel engine, and the guard
        // explains why rather than just refusing.
        let e = parse(&["--workers", "auto"]).unwrap_err();
        assert!(e.contains("parallelizes across trials"), "{e}");
        // Non-numeric non-auto values are still parse errors.
        assert!(parse(&["--engine", "parallel", "--workers", "many"]).is_err());
    }

    #[test]
    fn protocol_all_expands() {
        let o = parse(&["--protocol", "ALL"]).unwrap();
        assert_eq!(o.protocols, Some(ProtocolKind::all().to_vec()));
    }

    #[test]
    fn registry_listing_mentions_every_family() {
        let listing = render_scenario_list();
        for f in Family::ALL {
            assert!(listing.contains(f.name()), "missing {}", f.name());
        }
        assert!(listing.contains("churn"));
        assert!(listing.contains("dense"));
        assert!(usage("slrsim").contains("--dynamics"));
        assert!(usage("slrsim").contains("--validate-spatial"));
    }
}
