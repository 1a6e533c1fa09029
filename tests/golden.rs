//! The golden corpus: `report::trial_summary_json` of a fixed set of
//! trials, compared byte for byte with `tests/golden.txt`. A change that
//! must not move behaviour keeps the file; a deliberate behaviour change
//! shows as a one-file diff.
//!
//! Three groups of lines:
//!
//! * six OLSR trials (grid 25/100 × 22 s, paper-sweep 50 nodes × 40 s,
//!   seeds 42/7), carried over unchanged from the corpus that pinned the
//!   lazy OLSR route table;
//! * every registry family × every protocol at seed 42, trial 0, at the
//!   family's smallest quick sweep value over 30 s (`dense` at 100 nodes
//!   over 15 s and `huge` at 500 over 8 s, the benchmark's smoke runs);
//! * the engine fleet: four fixed scenarios that every engine must
//!   reproduce — batched, parallel at 1, 2 and 8 workers, and parallel
//!   with every neighbour query cross-checked against the brute-force
//!   medium all have to match the one recorded line.
//!
//! To regenerate after a *deliberate* behaviour change:
//!
//! ```sh
//! cargo test --release -p slr --test golden -- --ignored regenerate
//! ```

use std::collections::BTreeMap;

use slr_netsim::time::SimTime;
use slr_runner::experiment::SweepConfig;
use slr_runner::registry::{Family, SweepParam};
use slr_runner::report::trial_summary_json;
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::{EngineKind, Sim};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden.txt");
const GOLDEN: &str = include_str!("golden.txt");

/// One corpus line before it is run: its label and its scenario.
type Case = (String, Scenario);

/// `(family, sweep value, duration in s)` of the OLSR group: what
/// `slrsim --scenario grid --values 25,100 --duration 22` and
/// `--scenario paper-sweep --values 0 --duration 40` run, trial 0.
const OLSR: [(Family, u64, u64); 3] = [
    (Family::Grid, 25, 22),
    (Family::Grid, 100, 22),
    (Family::PaperSweep, 0, 40),
];

/// Sweep value and simulated seconds of `family`'s matrix trials: the
/// smallest quick value over 30 s, except `dense` and `huge`, which run
/// at the benchmark's smoke size and length.
fn matrix_point(family: Family) -> (u64, u64) {
    match family {
        Family::Dense => (100, 15),
        Family::Huge => (500, 8),
        _ => {
            let values = family.default_values(false);
            (*values.iter().min().expect("a default value"), 30)
        }
    }
}

/// Trial 0 of `family`'s sweep at `value`, cut to `secs`.
fn sweep_point(family: Family, kind: ProtocolKind, value: u64, secs: u64, seed: u64) -> Scenario {
    SweepConfig {
        seed,
        override_duration: Some(secs),
        ..SweepConfig::for_family(family, false)
    }
    .scenario_for(kind, value, 0)
}

fn olsr_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (family, value, secs) in OLSR {
        for seed in [42, 7] {
            cases.push((
                format!(
                    "{} value={value} duration={secs} seed={seed}",
                    family.name()
                ),
                sweep_point(family, ProtocolKind::Olsr, value, secs, seed),
            ));
        }
    }
    cases
}

fn matrix_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for family in Family::ALL {
        let (value, secs) = matrix_point(family);
        for kind in ProtocolKind::all() {
            cases.push((
                format!(
                    "{} {} value={value} duration={secs} seed=42",
                    kind.name(),
                    family.name()
                ),
                sweep_point(family, kind, value, secs, 42),
            ));
        }
    }
    cases
}

/// The engine fleet: a mobile trial, link churn, crash–rejoin epochs and
/// a scaled-down dense disc, so every completion and quarantine path of
/// the engines runs.
fn fleet_cases() -> Vec<Case> {
    let fleet = [
        ("mobile-paper-sweep", {
            let mut s = Scenario::quick(ProtocolKind::Srp, 0, 77, 0);
            s.nodes = 40;
            s.end = SimTime::from_secs(50);
            s.set_flows(6);
            s
        }),
        (
            "grid-under-churn",
            Family::Churn.scenario_at(ProtocolKind::Aodv, 5, 1, false, SweepParam::ChurnRate, 8),
        ),
        (
            "crash-rejoin",
            Family::CrashRejoin.scenario_at(ProtocolKind::Srp, 11, 0, false, SweepParam::Nodes, 16),
        ),
        ("dense-disc-scaled-down", {
            let mut s =
                Family::Dense.scenario_at(ProtocolKind::Srp, 9, 0, false, SweepParam::Nodes, 100);
            s.end = SimTime::from_secs(25);
            s
        }),
    ];
    fleet
        .into_iter()
        .map(|(name, s)| (format!("fleet {name}"), s))
        .collect()
}

fn summary_json(sim: Sim) -> String {
    trial_summary_json(&sim.run())
}

/// The recorded lines, label → JSON.
fn recorded() -> BTreeMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let at = l.find(" {").expect("a label, then the JSON");
            (&l[..at], &l[at + 1..])
        })
        .collect()
}

/// Runs every case under `run` and holds it to its recorded line.
fn check(cases: Vec<Case>, run: impl Fn(Scenario) -> String) {
    let recorded = recorded();
    for (label, scenario) in cases {
        let want = recorded
            .get(label.as_str())
            .unwrap_or_else(|| panic!("{label}: not in the corpus"));
        assert_eq!(run(scenario), *want, "{label}: trial summary changed");
    }
}

#[test]
fn corpus_lists_exactly_the_cases() {
    let labels: Vec<String> = olsr_cases()
        .into_iter()
        .chain(matrix_cases())
        .chain(fleet_cases())
        .map(|(label, _)| label)
        .collect();
    let recorded: Vec<&str> = recorded().into_keys().collect();
    let mut sorted = labels.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), labels.len(), "duplicate labels");
    assert_eq!(sorted, recorded);
}

#[test]
fn olsr_trials_match_the_recorded_summaries() {
    check(olsr_cases(), |s| summary_json(Sim::new(s)));
}

#[test]
fn every_family_and_protocol_matches_the_recorded_summaries() {
    check(matrix_cases(), |s| summary_json(Sim::new(s)));
}

/// The engine contract: every engine, worker count and the validated
/// medium reproduce the same recorded trial.
#[test]
fn fleet_matches_under_every_engine_and_with_validation() {
    check(fleet_cases(), |s| {
        let batched = summary_json(Sim::new(s).with_engine(EngineKind::Batched));
        for workers in [1, 2, 8] {
            let par = Sim::new(s)
                .with_engine(EngineKind::Parallel)
                .with_workers(workers);
            assert_eq!(summary_json(par), batched, "parallel@{workers}");
        }
        let mut validated = Sim::new(s)
            .with_engine(EngineKind::Parallel)
            .with_workers(2);
        validated.enable_spatial_validation();
        assert_eq!(summary_json(validated), batched, "validated parallel@2");
        batched
    });
}

#[test]
#[ignore = "rewrites tests/golden.txt; run only after a deliberate behaviour change"]
fn regenerate() {
    let mut out: String = GOLDEN
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let cases = olsr_cases()
        .into_iter()
        .chain(matrix_cases())
        .chain(fleet_cases());
    for (label, scenario) in cases {
        out.push_str(&format!("{label} {}\n", summary_json(Sim::new(scenario))));
    }
    std::fs::write(GOLDEN_PATH, out).expect("write golden file");
}
