//! `benchmark` — the repository's one benchmark: five workloads, four
//! end-to-end metrics, per-layer metrics and an outside-in traced run.
//! `README.md` beside this file says what each number is and why;
//! `BENCHMARK.json` at the repository root declares every name printed
//! here, and the self-test below keeps the two in step.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! timed run (`--trace 0`: end-to-end metrics) and the traced run
//! (`--trace 1`: per-layer metrics) do. Each run ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod layers;
mod rep;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime};

use layers::Metric;
use rep::{run_rep, spawn_rep, Rep};
use stats::{median, Summary};
use traced::{label_bits, run_traced};
use workloads::{nproc, Workload, NAMES};

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    /// Internal: run one repetition for the parent that launched this
    /// process at the given UNIX time in ns.
    child_rep: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 16.0,
        trace: None,
        smoke: false,
        child_rep: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--smoke" => out.smoke = true,
            "--child-rep" => {
                out.child_rep = Some(value()?.parse().map_err(|e| format!("--child-rep: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &out.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w} (one of {NAMES:?})"));
        }
    }
    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            out.seconds
        ));
    }
    Ok(out)
}

/// What one run hands the driver: the last line of standard output.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                // A ratio whose base a failed operation zeroed is not a number.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit a metric is printed with, from its name.
fn unit_of(name: &str) -> &'static str {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    const RATIOS: [&str; 10] = [
        "other_share",
        "overhead",
        "proto_share",
        "mean_width",
        "multi_share",
        "serial_share",
        "speedup_vs_batched",
        "candidates_per_neighbor",
        "delivery_ratio",
        "network_load",
    ];
    if leaf.ends_with("_s") || name.starts_with("runner.trial_s.") {
        "s"
    } else if leaf.contains("ns_per_") {
        "ns"
    } else if leaf.contains("us_per_") {
        "us"
    } else if leaf.ends_with("_bytes") || leaf == "bytes_per_node" {
        "bytes"
    } else if leaf.ends_with("_mb") {
        "MB"
    } else if leaf == "label_bits" {
        "bits"
    } else if RATIOS.contains(&leaf) {
        "ratio"
    } else {
        "count"
    }
}

/// Counts the operations of the timed repetitions that failed: a panic, a
/// digest that differs from the first repetition's for the same trial
/// (the determinism contract), implausible delivery counts, or — when the
/// workload has a serial twin — a digest that differs from the twin's.
fn failed_ops(reps: &[Rep], twin: Option<&Rep>) -> u64 {
    let mut failed = 0;
    for rep in reps {
        for (i, trial) in rep.trials.iter().enumerate() {
            let digest = trial.outcome.map(|o| o.digest);
            let expect = |other: &Rep| other.trials[i].outcome.map(|o| o.digest);
            let ok = trial.outcome.is_some_and(|o| o.plausible())
                && digest == expect(&reps[0])
                && twin.map_or(true, |t| digest == expect(t));
            failed += u64::from(!ok);
        }
    }
    failed
}

/// The timed run: repetitions for `seconds` (at least [`MIN_REPS`]), each
/// in a fresh child process, probes off; then the checks.
fn timed_run(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    if args.smoke {
        reps.push(run_rep(w));
    } else {
        while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
            reps.push(spawn_rep(w, args.seed)?);
        }
    }
    let twin = w.serial_twin().map(|serial| run_rep(&serial));
    let failed = failed_ops(&reps, twin.as_ref());
    let attempted = reps.iter().map(|r| r.trials.len() as u64).sum();

    // Simulated statistics come from the first repetition; the checks
    // above hold every other one to the same digests.
    let first: Vec<_> = reps[0].trials.iter().filter_map(|t| t.outcome).collect();
    let events: u64 = first.iter().map(|o| o.sim_events).sum();
    let originated: u64 = first.iter().map(|o| o.originated).sum();
    let delivered: u64 = first.iter().map(|o| o.delivered).sum();
    let control: u64 = first.iter().map(|o| o.control_sent).sum();
    let latency: f64 = first.iter().map(|o| o.latency_sum).sum();
    let max_denominator = first.iter().map(|o| o.max_denominator).max().unwrap_or(0);
    let sim_digest = first.iter().fold(stats::FNV_OFFSET, |h, o| {
        stats::fnv1a(h, &o.digest.to_le_bytes())
    });

    let delivery_ratio = delivered as f64 / originated.max(1) as f64;

    let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.vm_hwm_kb as f64 / 1024.0).collect();

    let name = w.name;
    println!(
        "{name}: reps={} ops={attempted} failed_ops={failed} workers={} sim_digest={sim_digest:016x}",
        reps.len(),
        w.cfg.workers
    );
    println!("{name}: wall_s        {}", Summary::of(&walls).render("s"));
    println!("{name}: setup_s       {}", Summary::of(&setups).render("s"));
    println!("{name}: peak_rss_mb   {}", Summary::of(&rss).render("MB"));
    println!(
        "{name}: simulated (exact per seed): events={events} originated={originated} \
         delivered={delivered} delivery_ratio={delivery_ratio:.6} network_load={:.6} latency_s={:.6} \
         label_bits={}",
        control as f64 / delivered.max(1) as f64,
        latency / delivered.max(1) as f64,
        label_bits(max_denominator),
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics: vec![
            ("wall_s", median(&walls)),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", median(&rss)),
            ("delivery_ratio", delivery_ratio),
        ],
    })
}

/// The traced run: per-layer metrics, and the spans written as a Chrome
/// trace under the build's target directory.
fn traced_run(w: &Workload, args: &Args) -> Result<RunResult, String> {
    let traced = run_traced(w, args.smoke)?;
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&dir).join("benchmark");
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.spans.chrome_trace()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{}: traced run: ops={} failed_ops={} trace={}",
        w.name,
        traced.attempted,
        traced.failed,
        path.display()
    );
    for (name, value) in &traced.metrics {
        println!("{}: {name:<42} {value:>16.6} {}", w.name, unit_of(name));
    }
    Ok(RunResult {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: traced.metrics,
    })
}

/// The benchmark package's own manifest. The workspace's
/// `[profile.release]` is repeated there, and a test holds the two equal.
const MANIFEST: &str = include_str!("Cargo.toml");

/// The settings under `[profile.release]` in a manifest's text.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Host, toolchain and build, printed ahead of every result: a timing
/// without them cannot be compared with anything.
fn fingerprint(args: &Args) -> String {
    let tool = |cmd: &str, argv: &[&str]| {
        Command::new(cmd)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug".to_string()
    } else {
        format!("release ({})", release_profile(MANIFEST).join(", ")).replace('"', "")
    };
    format!(
        "host: nproc={} cpu=\"{cpu}\" rustc=\"{}\" commit={} profile=\"{profile}\"\n\
         run: seed={} seconds={} smoke={} parallel-workload workers={}\n\
         model: unvalidated against the published Table I (PAPER.md holds no reference values); \
         no error figure is given",
        nproc(),
        tool("rustc", &["-V"]),
        tool("git", &["describe", "--always", "--dirty"]),
        args.seed,
        args.seconds,
        args.smoke,
        workloads::par_workers(),
    )
}

fn main() -> ExitCode {
    let entered = SystemTime::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    if let Some(launched_unix_ns) = args.child_rep {
        let w = Workload::new(names[0], args.seed, args.smoke).expect("validated name");
        rep::child_main(&w, entered, launched_unix_ns);
        return ExitCode::SUCCESS;
    }
    println!("{}", fingerprint(&args));
    for name in names {
        let w = Workload::new(name, args.seed, args.smoke).expect("validated name");
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            let run = if trace {
                traced_run(&w, &args)
            } else {
                timed_run(&w, &args)
            };
            // A failed operation is data; only a harness error exits non-zero.
            match run {
                Ok(result) => println!("{}", result.json()),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use rep::{Outcome, TrialRun};

    /// `"name": "…"` (and optionally `"unit": "…"`) of every entry of the
    /// array under `key` in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../../../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\": [")).expect("key present");
        let body = &json[start..start + json[start..].find(']').expect("array closes")];
        let field = |entry: &str, name: &str| -> String {
            entry
                .split(&format!("\"{name}\": \""))
                .nth(1)
                .map_or(String::new(), |rest| {
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn sorted(names: &[(String, String)]) -> Vec<(String, String)> {
        let mut v = names.to_vec();
        v.sort();
        v
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        sorted(
            &metrics
                .iter()
                .map(|(name, _)| (name.to_string(), unit_of(name).to_string()))
                .collect::<Vec<_>>(),
        )
    }

    /// The tier-1 self-test: the smoke run of every workload prints
    /// exactly the workloads, metrics and units `BENCHMARK.json` declares,
    /// each once, so the declaration and the binary cannot drift apart.
    #[test]
    fn smoke_run_prints_exactly_what_benchmark_json_declares() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, NAMES);
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        assert!(NAMES.len() <= 8 && end_to_end.len() <= 16 && per_layer.len() <= 128);
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let ok = |s: &str, extra: &str| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(ok(name, "_.-") && name.len() <= 64, "bad name {name}");
            assert!(
                ok(unit, "_/%.-") && unit.len() <= 16,
                "bad unit {unit} of {name}"
            );
        }
        let mut once = sorted(&per_layer);
        once.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(
            once.len(),
            per_layer.len(),
            "a per-layer name is declared twice"
        );

        let args = parse_args(&["--smoke".to_string(), "--seed".to_string(), "7".to_string()])
            .expect("arguments");
        for name in NAMES {
            let w = Workload::new(name, args.seed, true).expect("workload");
            let timed = timed_run(&w, &args).expect("timed run");
            assert_eq!(
                timed.failed, 0,
                "{name}: failed operations in the timed run"
            );
            assert_eq!(printed(&timed.metrics), sorted(&end_to_end), "{name}");
            assert!(timed
                .metrics
                .iter()
                .all(|(_, v)| *v > 0.0 || cfg!(not(target_os = "linux"))));

            let traced = run_traced(&w, true).expect("traced run");
            assert_eq!(
                traced.failed, 0,
                "{name}: failed operations in the traced run"
            );
            assert_eq!(printed(&traced.metrics), sorted(&per_layer), "{name}");
            assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            // The phases and the self time account for the whole run span.
            let get = |n: &str| traced.metrics.iter().find(|(m, _)| *m == n).expect(n).1;
            if name != "dense-par" {
                let parts: f64 = ["medium", "signal", "mac", "proto", "other"]
                    .iter()
                    .map(|p| get(&format!("runner.sim.phase_{p}_s")))
                    .sum();
                let run = traced.spans.total_s("run");
                assert!(
                    (parts - run).abs() <= 1e-6 * run.max(1.0),
                    "{name}: {parts} vs {run}"
                );
            } else {
                assert!(get("runner.par.windows") > 0.0);
                assert!(get("runner.par.speedup_vs_batched") > 0.0);
            }
            assert!(traced
                .spans
                .chrome_trace()
                .contains("\"name\":\"layer.netsim.queue\""));
            let line = RunResult {
                attempted: traced.attempted,
                failed: traced.failed,
                metrics: traced.metrics,
            }
            .json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    fn rep_of(digests: &[Option<u64>]) -> Rep {
        Rep {
            trials: digests
                .iter()
                .map(|d| TrialRun {
                    setup_s: 0.0,
                    wall_s: 1.0,
                    outcome: d.map(|digest| Outcome {
                        digest,
                        originated: 10,
                        delivered: 9,
                        control_sent: 5,
                        latency_sum: 1.0,
                        max_denominator: 8,
                        sim_events: 100,
                    }),
                })
                .collect(),
            vm_hwm_kb: 1,
            startup_s: 0.0,
        }
    }

    #[test]
    fn failure_accounting_follows_the_rules() {
        let good = rep_of(&[Some(1), Some(2)]);
        assert_eq!(failed_ops(&[good.clone(), good.clone()], None), 0);
        // A panic, and a digest that differs from the first repetition's.
        assert_eq!(
            failed_ops(&[good.clone(), rep_of(&[None, Some(2)])], None),
            1
        );
        assert_eq!(
            failed_ops(&[good.clone(), rep_of(&[Some(1), Some(3)])], None),
            1
        );
        // Every repetition is held to the serial twin's digests.
        assert_eq!(
            failed_ops(
                &[good.clone(), good.clone()],
                Some(&rep_of(&[Some(1), Some(9)]))
            ),
            2
        );
        assert_eq!(failed_ops(std::slice::from_ref(&good), Some(&good)), 0);
        // Nothing delivered, or more delivered than sent.
        let mut odd = good.clone();
        odd.trials[0].outcome.as_mut().expect("ran").delivered = 0;
        odd.trials[1].outcome.as_mut().expect("ran").delivered = 11;
        assert_eq!(failed_ops(&[odd], None), 2);
    }

    /// The driver builds this directory as a package of its own while the
    /// workspace's tests build the same source as `slr-bench`'s binary:
    /// both must be the build `cargo build --release` gives a user.
    #[test]
    fn the_package_repeats_the_workspace_release_profile() {
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(MANIFEST), workspace);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a =
            parse("--workload huge --seed 7 --seconds 12 --trace 1").expect("driver's arguments");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("huge"), 7, 12.0, Some(true))
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
