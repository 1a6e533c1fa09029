//! The model-checker CLI.
//!
//! ```text
//! slr-check --list-configs
//! slr-check --config line3 [--depth N] [--states N] [--trace-out FILE]
//!           [--expect-violation]
//! slr-check --set ci|nightly [--trace-out FILE]
//! slr-check --replay FILE [--expect-violation]
//! slr-check --config line3 --probe "appsend 0; deliver 0; tick"
//! ```
//!
//! Exit codes: 0 — outcome matched expectation (clean, or violation
//! found with `--expect-violation`); 1 — outcome did not match; 2 —
//! usage or I/O error.

use std::process::ExitCode;

use slr_check::bfs;
use slr_check::configs;
use slr_check::model::parse_script;
use slr_check::trace::{active_regress_feature, Trace};

struct Opts {
    config: Option<String>,
    set: Option<String>,
    replay: Option<String>,
    probe: Option<String>,
    depth: Option<usize>,
    states: Option<usize>,
    trace_out: Option<String>,
    expect_violation: bool,
    list: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        config: None,
        set: None,
        replay: None,
        probe: None,
        depth: None,
        states: None,
        trace_out: None,
        expect_violation: false,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "--config" => o.config = Some(val("--config")?),
            "--set" => o.set = Some(val("--set")?),
            "--replay" => o.replay = Some(val("--replay")?),
            "--probe" => o.probe = Some(val("--probe")?),
            "--depth" => {
                o.depth = Some(
                    val("--depth")?
                        .parse()
                        .map_err(|e| format!("--depth: {e}"))?,
                )
            }
            "--states" => {
                o.states = Some(
                    val("--states")?
                        .parse()
                        .map_err(|e| format!("--states: {e}"))?,
                )
            }
            "--trace-out" => o.trace_out = Some(val("--trace-out")?),
            "--expect-violation" => o.expect_violation = true,
            "--list-configs" => o.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("slr-check: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let o = parse_args()?;

    if o.list {
        for c in configs::all() {
            println!("{:<12} {}", c.name, c.about);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &o.replay {
        return replay(path, o.expect_violation);
    }

    // Set mode: explore every config in the named set; all must be clean.
    // On a violation, the trace lands in the `--trace-out` directory under
    // the config's name (the nightly workflow uploads it as an artifact).
    if let Some(set) = &o.set {
        let names = match set.as_str() {
            "ci" => configs::ci_set(),
            "nightly" => configs::nightly_set(),
            other => return Err(format!("unknown set '{other}' (ci|nightly)")),
        };
        let mut dirty = false;
        for name in names {
            let cfg = configs::model_for(name).expect("registered set member");
            let trace_path = o
                .trace_out
                .as_deref()
                .map(|dir| format!("{dir}/{name}.trace"));
            if explore_one(&cfg, trace_path.as_deref())? {
                dirty = true;
            }
        }
        return Ok(if dirty {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let name = o
        .config
        .as_deref()
        .ok_or("need --config NAME (or --set, --list-configs, --replay FILE)")?;
    let mut cfg = configs::model_for(name).ok_or_else(|| format!("unknown config '{name}'"))?;
    if let Some(d) = o.depth {
        cfg.max_depth = d;
    }
    if let Some(s) = o.states {
        cfg.max_states = s;
    }

    if let Some(script) = &o.probe {
        return probe(&cfg, script);
    }

    let found = explore_one(&cfg, o.trace_out.as_deref())?;
    Ok(match (found, o.expect_violation) {
        (true, true) | (false, false) => ExitCode::SUCCESS,
        (true, false) => ExitCode::FAILURE,
        (false, true) => {
            eprintln!("slr-check: expected a violation (is the regress feature compiled in?)");
            ExitCode::FAILURE
        }
    })
}

/// Explores one config, printing the outcome (and writing the trace to
/// `trace_out` on violation). Returns whether a violation was found.
fn explore_one(
    cfg: &slr_check::model::ModelConfig,
    trace_out: Option<&str>,
) -> Result<bool, String> {
    let feature = active_regress_feature();
    println!(
        "exploring '{}' (depth<={}, states<={}{})",
        cfg.name,
        cfg.max_depth,
        cfg.max_states,
        if feature.is_empty() {
            String::new()
        } else {
            format!(", fault: {feature}")
        }
    );
    let model = configs::srp_model(cfg);
    let res = bfs::explore(&model)?;
    println!(
        "states={} transitions={} max_depth={} truncated={}",
        res.states, res.transitions, res.max_depth_seen, res.truncated_by_states
    );
    match &res.violation {
        Some(v) => {
            println!(
                "VIOLATION after {} explored steps: {}",
                v.actions.len(),
                v.desc
            );
            for (k, a) in v.prefix.iter().enumerate() {
                println!("  prefix[{k}]: {a}");
            }
            for (k, a) in v.actions.iter().enumerate() {
                println!("  step[{k}]: {a}");
            }
            if let Some(path) = trace_out {
                let t = Trace::from_violation(cfg.name, v);
                std::fs::write(path, t.to_text()).map_err(|e| format!("writing {path}: {e}"))?;
                println!("trace written to {path}");
            }
            Ok(true)
        }
        None => {
            println!("no violations");
            Ok(false)
        }
    }
}

fn replay(path: &str, expect_violation: bool) -> Result<ExitCode, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let t = Trace::parse(&src)?;
    let feature = active_regress_feature();
    if t.feature != feature {
        return Err(format!(
            "trace was found under feature '{}' but this binary has '{}' — rebuild with \
             `--features {}`",
            t.feature,
            if feature.is_empty() {
                "(none)"
            } else {
                feature
            },
            t.feature
        ));
    }
    let cfg = configs::model_for(&t.config)
        .ok_or_else(|| format!("trace references unknown config '{}'", t.config))?;
    let model = configs::srp_model(&cfg);
    let (hit, steps) = bfs::run_script(&model, &t.script(), false)?;
    match hit {
        Some(desc) => {
            println!("replay reproduces the violation at step {steps}: {desc}");
            Ok(if expect_violation {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        None => {
            println!("replay completed {steps} steps with no violation");
            Ok(if expect_violation {
                eprintln!("slr-check: trace no longer reproduces (fix effective?)");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
    }
}

fn probe(cfg: &slr_check::model::ModelConfig, script: &str) -> Result<ExitCode, String> {
    let actions = parse_script(script)?;
    let model = configs::srp_model(cfg);
    let (hit, steps) = bfs::run_script(&model, &actions, true)?;
    if let Some(desc) = hit {
        println!("VIOLATION at step {steps}: {desc}");
    }
    // Show what is enabled next, for incremental script construction.
    let mut st = model.start();
    for &a in &actions[..steps] {
        model.apply(&mut st, a)?;
    }
    println!("-- enabled next:");
    for a in model.enumerate(&st) {
        println!("   {a}");
    }
    Ok(ExitCode::SUCCESS)
}
