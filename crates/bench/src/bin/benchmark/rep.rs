//! One repetition of a workload — every trial built and run once, closed
//! loop, one at a time — and the child-process protocol that lets each
//! timed repetition pay what a CLI user pays (a fresh heap) and report a
//! peak resident set size of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use slr_runner::report::trial_summary_json;
use slr_runner::{Metrics, TrialSummary};

use crate::stats::{fnv1a, vm_hwm_kb, FNV_OFFSET};
use crate::workloads::Workload;

/// What one trial's simulation produced, as far as the checks and the
/// simulated metrics need it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub digest: u64,
    pub originated: u64,
    pub delivered: u64,
    pub control_sent: u64,
    pub latency_sum: f64,
    pub max_denominator: u64,
    pub sim_events: u64,
}

/// The digest that makes "simulated statistics identical" an integer
/// compare: FNV-1a over the trial's summary JSON.
pub fn digest(summary: &TrialSummary) -> u64 {
    fnv1a(FNV_OFFSET, trial_summary_json(summary).as_bytes())
}

impl Outcome {
    pub fn of(summary: &TrialSummary, metrics: &Metrics) -> Outcome {
        Outcome {
            digest: digest(summary),
            originated: metrics.data_originated,
            delivered: metrics.data_delivered,
            control_sent: metrics.control_sent,
            latency_sum: metrics.latency_sum,
            max_denominator: metrics.max_fd_denominator,
            sim_events: metrics.sim_events,
        }
    }

    /// The sanity half of the failure rules: traffic flowed and no packet
    /// was delivered that was never sent.
    pub fn plausible(&self) -> bool {
        self.originated > 0 && self.delivered > 0 && self.delivered <= self.originated
    }
}

#[derive(Debug, Clone, Copy)]
pub struct TrialRun {
    /// Host seconds from `scenario_for` to a ready `Sim`.
    pub setup_s: f64,
    /// Host seconds inside `Sim::run_detailed`.
    pub wall_s: f64,
    /// `None` if the trial panicked.
    pub outcome: Option<Outcome>,
}

#[derive(Debug, Clone)]
pub struct Rep {
    pub trials: Vec<TrialRun>,
    pub vm_hwm_kb: u64,
    /// Host seconds from launching the repetition's process to its `main`
    /// (0 for an in-process repetition).
    pub startup_s: f64,
}

impl Rep {
    /// What is paid before the first event is simulated: starting the
    /// process, then building every trial.
    pub fn setup_s(&self) -> f64 {
        self.startup_s + self.trials.iter().map(|t| t.setup_s).sum::<f64>()
    }

    pub fn wall_s(&self) -> f64 {
        self.trials.iter().map(|t| t.wall_s).sum()
    }
}

/// Runs every trial of `w` once, in this process. Each trial is built
/// once and that build is the one timed: in a fresh process it is the cold
/// build a CLI user pays, and nothing warms the heap before the run.
pub fn run_rep(w: &Workload) -> Rep {
    let trials = w
        .jobs()
        .into_iter()
        .map(|job| {
            let (mut setup_s, mut wall_s) = (0.0, 0.0);
            // A panicking trial is a failed operation, not a harness error.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let sim = w.sim(job);
                setup_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let (summary, metrics) = sim.run_detailed();
                wall_s = t0.elapsed().as_secs_f64();
                Outcome::of(&summary, &metrics)
            }))
            .ok();
            TrialRun {
                setup_s,
                wall_s,
                outcome,
            }
        })
        .collect();
    Rep {
        trials,
        vm_hwm_kb: vm_hwm_kb(),
        startup_s: 0.0,
    }
}

/// Child side: runs one repetition and prints it for [`spawn_rep`].
/// `entered` is when this process reached `main`, `launched_unix_ns` when
/// the parent launched it.
pub fn child_main(w: &Workload, entered: SystemTime, launched_unix_ns: u64) {
    let launched = UNIX_EPOCH + Duration::from_nanos(launched_unix_ns);
    let startup_s = entered
        .duration_since(launched)
        .unwrap_or_default()
        .as_secs_f64();
    print!(
        "{}",
        encode(&Rep {
            startup_s,
            ..run_rep(w)
        })
    );
}

/// Parent side: one repetition in a fresh process of this binary, waited
/// for before returning (never more than one child alive).
pub fn spawn_rep(w: &Workload, seed: u64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let launched = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("system clock: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child-rep",
            &launched.as_nanos().to_string(),
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition child exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    decode(&text, w).ok_or_else(|| format!("unparsable child output:\n{text}"))
}

/// One line per trial — timings in ns, the latency sum as its bit pattern
/// so it crosses the pipe exactly — then the child's start-up and peak RSS.
fn encode(rep: &Rep) -> String {
    let mut s = String::new();
    for t in &rep.trials {
        let (setup_ns, wall_ns) = ((t.setup_s * 1e9) as u64, (t.wall_s * 1e9) as u64);
        match t.outcome {
            Some(o) => s.push_str(&format!(
                "trial {setup_ns} {wall_ns} {} {} {} {} {} {} {}\n",
                o.digest,
                o.originated,
                o.delivered,
                o.control_sent,
                o.latency_sum.to_bits(),
                o.max_denominator,
                o.sim_events
            )),
            None => s.push_str(&format!("panicked {setup_ns} {wall_ns}\n")),
        }
    }
    s.push_str(&format!("startup_ns {}\n", (rep.startup_s * 1e9) as u64));
    s.push_str(&format!("vm_hwm_kb {}\n", rep.vm_hwm_kb));
    s
}

fn decode(text: &str, w: &Workload) -> Option<Rep> {
    let mut trials = Vec::new();
    let mut vm_hwm_kb = None;
    let mut startup_ns = None;
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let tag = words.next()?;
        let nums: Vec<u64> = words.map(|x| x.parse().ok()).collect::<Option<_>>()?;
        match (tag, nums.as_slice()) {
            ("vm_hwm_kb", &[kb]) => vm_hwm_kb = Some(kb),
            ("startup_ns", &[ns]) => startup_ns = Some(ns),
            ("trial" | "panicked", &[setup_ns, wall_ns, ref rest @ ..]) => {
                let outcome = match *rest {
                    [digest, originated, delivered, control_sent, latency, max_denominator, sim_events]
                        if tag == "trial" =>
                    {
                        Some(Outcome {
                            digest,
                            originated,
                            delivered,
                            control_sent,
                            latency_sum: f64::from_bits(latency),
                            max_denominator,
                            sim_events,
                        })
                    }
                    [] if tag == "panicked" => None,
                    _ => return None,
                };
                trials.push(TrialRun {
                    setup_s: setup_ns as f64 / 1e9,
                    wall_s: wall_ns as f64 / 1e9,
                    outcome,
                });
            }
            _ => return None,
        }
    }
    (trials.len() == w.jobs().len()).then_some(Rep {
        trials,
        vm_hwm_kb: vm_hwm_kb?,
        startup_s: startup_ns? as f64 / 1e9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_survives_the_pipe() {
        let w = Workload::new("paper", 1, false).expect("workload");
        let ok = Outcome {
            digest: u64::MAX,
            originated: 10,
            delivered: 9,
            control_sent: 77,
            latency_sum: 0.1 + 0.2,
            max_denominator: 1 << 27,
            sim_events: 12345,
        };
        let trials: Vec<TrialRun> = w
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, _)| TrialRun {
                setup_s: 0.001,
                wall_s: 0.25,
                outcome: (i != 3).then_some(ok),
            })
            .collect();
        let rep = Rep {
            trials,
            vm_hwm_kb: 4321,
            startup_s: 0.0015,
        };
        let back = decode(&encode(&rep), &w).expect("decodes");
        assert_eq!((back.vm_hwm_kb, back.startup_s), (4321, 0.0015));
        let n = w.jobs().len();
        assert!((back.setup_s() - (0.0015 + n as f64 * 0.001)).abs() < 1e-9);
        assert_eq!(back.trials.len(), n);
        for (a, b) in rep.trials.iter().zip(&back.trials) {
            assert_eq!(a.outcome, b.outcome);
            assert!((a.wall_s - b.wall_s).abs() < 1e-8);
        }
        // A truncated or foreign output is a harness error, not a result.
        assert!(decode("vm_hwm_kb 1\n", &w).is_none());
        assert!(decode("hello\n", &w).is_none());
    }
}
