//! The shared command-line parser for every harness front-end.
//!
//! `slrsim`, the `slr-bench` figure/table binaries and the examples accept
//! the same sweep flags; [`parse_cli`] turns them into one validated
//! [`SweepConfig`], so the front-ends cannot drift. Parsing is strict:
//! unknown flags, missing flag arguments, conflicting shorthands and
//! sweeps the registry cannot run are errors, not warnings — a typo must
//! not silently change what an hours-long sweep measures.

use crate::adversary::AdversarySpec;
use crate::dynamics::DynamicsSpec;
use crate::experiment::SweepConfig;
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

/// A parsed invocation: what to do, and the sweep to do it with.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// What to do (run / list / help).
    pub action: CliAction,
    /// The sweep the flags describe, with family defaults filled in, the
    /// `--pause` shorthand and `--workers auto` resolved, and
    /// [`SweepConfig::validate`] passed. For `ListScenarios` and `Help`
    /// nothing runs, so the flags are only syntax-checked and this is
    /// [`SweepConfig::default`].
    pub sweep: SweepConfig,
    /// Protocol set (`--protocol NAME|all`), if given.
    pub protocols: Option<Vec<ProtocolKind>>,
    /// `--json`: machine-readable output.
    pub json: bool,
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

/// Parses the shared flag set into a validated sweep. `args` excludes the
/// binary name (pass `std::env::args().skip(1)` collected).
/// `default_trials` gives the trials per point when `--trials` is absent,
/// from whether `--paper` was given.
///
/// `--workers` defaults to the machine's cores capped at 8 (where the
/// scaling curve flattens) under `--engine parallel`, and is 1 under the
/// batched engine; `auto` resolves to the host's full parallelism, so
/// the JSON config echo always records a concrete number.
///
/// # Errors
///
/// Returns a human-readable message on unknown flags, missing or
/// malformed flag arguments, conflicting shorthands (`--pause` vs.
/// `--param`/`--values`), and on a sweep that [`SweepConfig::resolve`]
/// or [`SweepConfig::validate`] rejects.
pub fn parse_cli(args: &[String], default_trials: fn(bool) -> u64) -> Result<Invocation, String> {
    let mut sweep = SweepConfig::default();
    let mut param = None;
    let mut values = None;
    let mut trials = None;
    let mut workers = None;
    let mut protocols = None;
    let mut json = false;
    let mut action = CliAction::Run;
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
                sweep.family = Family::parse(&name)
                    .ok_or_else(|| format!("unknown scenario {name:?}; try --list-scenarios"))?;
            }
            "--param" => {
                let name = take_value()?;
                param = Some(SweepParam::parse(&name).ok_or_else(|| {
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
                values = Some(
                    crate::experiment::parse_values(&list).map_err(|e| format!("{flag}: {e}"))?,
                );
                saw_values = true;
            }
            "--pause" => {
                let v = take_value()?;
                let pause: u64 = v.trim().parse().map_err(|_| {
                    format!("--pause needs an integer number of seconds, got {v:?}")
                })?;
                param = Some(SweepParam::Pause);
                values = Some(vec![pause]);
                saw_pause_shorthand = true;
            }
            "--protocol" => {
                let name = take_value()?;
                protocols = Some(if name.eq_ignore_ascii_case("all") {
                    ProtocolKind::all().to_vec()
                } else {
                    vec![ProtocolKind::parse(&name).ok_or_else(|| {
                        format!("unknown protocol {name:?} (srp|srp-mp|aodv|dsr|ldr|olsr|all)")
                    })?]
                });
            }
            "--trials" => trials = Some(parse_num(flag, &take_value()?)?),
            "--seed" => sweep.seed = parse_num(flag, &take_value()?)?,
            "--threads" => sweep.threads = parse_num(flag, &take_value()?)? as usize,
            "--workers" => {
                let v = take_value()?;
                let w = if v.eq_ignore_ascii_case("auto") {
                    host_parallelism()
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
                workers = Some(w);
            }
            "--nodes" => sweep.override_nodes = Some(parse_num(flag, &take_value()?)? as usize),
            "--flows" => sweep.override_flows = Some(parse_num(flag, &take_value()?)? as usize),
            "--duration" => sweep.override_duration = Some(parse_num(flag, &take_value()?)?),
            "--dynamics" => sweep.override_dynamics = Some(DynamicsSpec::parse(&take_value()?)?),
            "--adversary" => sweep.override_adversary = Some(AdversarySpec::parse(&take_value()?)?),
            "--paper" => sweep.paper_scale = true,
            "--oracle" => sweep.oracle = true,
            "--validate-spatial" => sweep.validate_spatial = true,
            "--engine" => {
                sweep.engine = match take_value()?.as_str() {
                    "batched" => EngineKind::Batched,
                    "parallel" => EngineKind::Parallel,
                    other => {
                        return Err(format!(
                            "unknown engine {other:?} (expected batched or parallel)"
                        ))
                    }
                }
            }
            "--json" => json = true,
            "--list-scenarios" | "--list" => action = CliAction::ListScenarios,
            "--help" | "-h" => action = CliAction::Help,
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
    if workers.is_some() && sweep.engine != EngineKind::Parallel {
        return Err(
            "--workers only applies to --engine parallel: only parallel trials \
             open windows that can occupy extra cores (the batched engine \
             parallelizes across trials via --threads alone)"
                .to_string(),
        );
    }
    if action != CliAction::Run {
        return Ok(Invocation {
            action,
            sweep: SweepConfig::default(),
            protocols,
            json,
        });
    }
    (sweep.param, sweep.values) =
        SweepConfig::resolve(sweep.family, param, values, sweep.paper_scale)?;
    sweep.trials = trials.unwrap_or_else(|| default_trials(sweep.paper_scale));
    if sweep.engine == EngineKind::Parallel {
        sweep.workers = workers.unwrap_or_else(|| host_parallelism().min(8));
    }
    sweep.validate()?;
    Ok(Invocation {
        action,
        sweep,
        protocols,
        json,
    })
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("{flag} needs an integer, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PAUSE_TIMES;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&args, |_| 1)
    }

    #[test]
    fn defaults_with_no_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.sweep.family, Family::PaperSweep);
        assert_eq!(o.sweep.param, SweepParam::Pause);
        assert_eq!(o.sweep.values, PAUSE_TIMES.to_vec());
        assert_eq!(o.sweep.seed, 42);
        assert_eq!(o.sweep.trials, 1);
        assert_eq!(o.sweep.workers, 1);
        assert_eq!(o.action, CliAction::Run);
        assert_eq!(o.protocols, None);
        assert!(!o.sweep.paper_scale && !o.json && !o.sweep.oracle && !o.sweep.validate_spatial);
    }

    #[test]
    fn trials_default_comes_from_the_caller() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let figures = |paper| if paper { 10 } else { 3 };
        assert_eq!(parse_cli(&args(&[]), figures).unwrap().sweep.trials, 3);
        assert_eq!(
            parse_cli(&args(&["--paper"]), figures)
                .unwrap()
                .sweep
                .trials,
            10
        );
        assert_eq!(
            parse_cli(&args(&["--paper", "--trials", "2"]), figures)
                .unwrap()
                .sweep
                .trials,
            2
        );
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
        let s = &o.sweep;
        assert_eq!(s.family, Family::Churn);
        assert_eq!(s.param, SweepParam::ChurnRate);
        assert_eq!(s.values, vec![2, 6, 12]);
        assert_eq!(o.protocols, Some(vec![ProtocolKind::Srp]));
        assert_eq!(s.trials, 5);
        assert_eq!(s.seed, 7);
        assert_eq!(s.threads, 3);
        assert_eq!(s.override_nodes, Some(20));
        assert_eq!(s.override_flows, Some(4));
        assert_eq!(s.override_duration, Some(60));
        assert_eq!(
            s.override_dynamics,
            Some(DynamicsSpec::LinkChurn {
                flaps_per_minute: 12.0,
                mean_down_secs: 2.0
            })
        );
        assert_eq!(
            s.override_adversary,
            Some(AdversarySpec::Byzantine { percent: 20 })
        );
        assert!(s.paper_scale && o.json && s.oracle);
        assert!(s.validate_spatial);
    }

    #[test]
    fn adversary_flag_parses_and_rejects() {
        let o = parse(&["--adversary", "sybil"]).unwrap();
        assert_eq!(
            o.sweep.override_adversary,
            Some(AdversarySpec::default_sybil())
        );
        let o = parse(&["--adversary", "none"]).unwrap();
        assert_eq!(o.sweep.override_adversary, Some(AdversarySpec::None));
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
            parse(&["--values", "1, 2,3"]).unwrap().sweep.values,
            vec![1, 2, 3]
        );
        let e = parse(&["--values", "10,1O0"]).unwrap_err();
        assert!(e.contains("--values"), "{e}");
        assert!(parse(&["--values", ""]).is_err());
        // --pauses is the slr-bench-era alias for the same list.
        assert_eq!(
            parse(&["--pauses", "0,900"]).unwrap().sweep.values,
            vec![0, 900]
        );
    }

    #[test]
    fn pause_shorthand_conflicts_with_explicit_flags() {
        let o = parse(&["--pause", "300"]).unwrap();
        assert_eq!(o.sweep.param, SweepParam::Pause);
        assert_eq!(o.sweep.values, vec![300]);
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

    /// The sweep comes back resolved and validated: a flag set the
    /// registry or the validator rejects is a parse error.
    #[test]
    fn invalid_sweeps_are_errors() {
        let e = parse(&["--scenario", "grid", "--pause", "100"]).unwrap_err();
        assert!(e.contains("static mobility"), "{e}");
        let e = parse(&["--trials", "0"]).unwrap_err();
        assert!(e.contains("trials"), "{e}");
        let e = parse(&["--scenario", "grid", "--nodes", "9"]).unwrap_err();
        assert!(e.contains("--nodes conflicts"), "{e}");
        // Nothing runs for --help or --list-scenarios, so the sweep is
        // not checked there.
        let o = parse(&["--trials", "0", "--help"]).unwrap();
        assert_eq!(o.action, CliAction::Help);
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
            parse(&["--family", "grid"]).unwrap().sweep.family,
            Family::Grid,
            "--family is an alias for --scenario"
        );
    }

    #[test]
    fn parallel_engine_and_workers() {
        let o = parse(&["--engine", "parallel", "--workers", "4"]).unwrap();
        assert_eq!(o.sweep.engine, EngineKind::Parallel);
        assert_eq!(o.sweep.workers, 4);
        // `--engine parallel` without `--workers` takes the host's cores,
        // capped at 8.
        let o = parse(&["--engine", "parallel"]).unwrap();
        assert_eq!(o.sweep.workers, host_parallelism().min(8));
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
        let host = host_parallelism();
        let o = parse(&["--engine", "parallel", "--workers", "auto"]).unwrap();
        assert_eq!(o.sweep.workers, host, "auto must resolve at parse time");
        let o = parse(&["--engine", "parallel", "--workers", "AUTO"]).unwrap();
        assert_eq!(o.sweep.workers, host, "auto is case-insensitive");
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

    /// Random flag sequences from the real flag names and junk values:
    /// the parser answers every one with `Ok` or `Err`, never a panic,
    /// and every sweep it accepts builds its first scenario.
    #[test]
    fn parse_cli_never_panics() {
        let usage = usage("slrsim");
        let flags: Vec<&str> = usage
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|t| t.starts_with("--"))
            .collect();
        assert!(flags.len() >= 20, "too few flags in usage: {flags:?}");
        let max = u64::MAX.to_string();
        let junk = [
            "",
            "-1",
            "0",
            "auto",
            max.as_str(),
            "1,,2",
            "partition:0",
            "byzantine:100",
            "1",
            "30",
            "grid",
            "crash-rejoin",
            "nodes",
            "parallel",
            "srp",
        ];
        // splitmix64: a fixed, dependency-free token stream.
        let mut state = 0x5EED_u64;
        let mut next = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut accepted = 0;
        for _ in 0..3000 {
            let len = next(8);
            let args: Vec<String> = (0..len)
                .map(|_| {
                    if next(2) == 0 {
                        flags[next(flags.len())].to_string()
                    } else {
                        junk[next(junk.len())].to_string()
                    }
                })
                .collect();
            if let Ok(o) = parse_cli(&args, |_| 1) {
                accepted += 1;
                o.sweep
                    .scenario_for(ProtocolKind::Srp, o.sweep.values[0], 0);
            }
        }
        assert!(accepted > 100, "only {accepted} sequences accepted");
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
