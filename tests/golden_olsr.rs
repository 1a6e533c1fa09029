//! Golden OLSR trials: `report::trial_summary_json` of six fixed OLSR
//! trials, compared byte for byte with `tests/golden_olsr.txt`. The file
//! was recorded from the eager `recompute_routes` implementation (commit
//! 0cf98c2, before OLSR's route table became lazy), so a digest-preserving
//! rewrite of `olsr.rs` keeps it and a behaviour change shows as a
//! one-file diff.
//!
//! To regenerate after a *deliberate* behaviour change:
//!
//! ```sh
//! cargo test --release -p slr --test golden_olsr -- --ignored regenerate
//! ```

use slr_runner::experiment::SweepConfig;
use slr_runner::registry::Family;
use slr_runner::report::trial_summary_json;
use slr_runner::scenario::ProtocolKind;
use slr_runner::sim::Sim;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_olsr.txt");
const GOLDEN: &str = include_str!("golden_olsr.txt");

/// `(family, sweep value, duration in s)`: what `slrsim --scenario grid
/// --values 25,100 --duration 22` and `--scenario paper-sweep --values 0
/// --duration 40` run, trial 0.
const CASES: [(Family, u64, u64); 3] = [
    (Family::Grid, 25, 22),
    (Family::Grid, 100, 22),
    (Family::PaperSweep, 0, 40),
];
const SEEDS: [u64; 2] = [42, 7];

fn render() -> String {
    let mut out = String::new();
    for (family, value, secs) in CASES {
        for seed in SEEDS {
            let cfg = SweepConfig {
                seed,
                override_duration: Some(secs),
                ..SweepConfig::for_family(family, false)
            };
            let summary = Sim::new(cfg.scenario_for(ProtocolKind::Olsr, value, 0)).run();
            out.push_str(&format!(
                "{} value={value} duration={secs} seed={seed} {}\n",
                family.name(),
                trial_summary_json(&summary)
            ));
        }
    }
    out
}

#[test]
fn olsr_trials_match_the_recorded_summaries() {
    let recorded: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let now = render();
    for (got, want) in now.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "OLSR trial summary changed");
    }
    assert_eq!(now.lines().count(), recorded.lines().count());
}

#[test]
#[ignore = "rewrites tests/golden_olsr.txt; run only after a deliberate behaviour change"]
fn regenerate() {
    let header: String = GOLDEN
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(GOLDEN_PATH, header + &render()).expect("write golden file");
}
