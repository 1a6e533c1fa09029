//! Cross-crate integration tests for the model checker (crates/check).
//!
//! The rediscovery tests are compiled only when the corresponding
//! `regress-*` feature is forwarded (separate CI invocations — the
//! normal test suite must never run with a loop-freedom fix disabled);
//! everything else runs in the default suite.

use slr_check::bfs;
use slr_check::configs;
use slr_check::model::Action;
use slr_check::trace::Trace;

/// Exploration is a deterministic function of the config: same budgets →
/// same state count, transition count and (absence of a) counterexample.
#[test]
fn exploration_is_deterministic() {
    let run = || {
        let mut cfg = configs::model_for("line3").expect("builtin config");
        cfg.max_depth = 7;
        cfg.max_states = 200_000;
        let model = configs::srp_model(&cfg);
        bfs::explore(&model).expect("exploration runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.states, b.states);
    assert_eq!(a.transitions, b.transitions);
    assert_eq!(a.max_depth_seen, b.max_depth_seen);
    assert!(
        a.violation.is_none() && b.violation.is_none(),
        "line3 must be clean on fixed code: {:?}",
        a.violation
    );
    assert!(
        a.states > 1_000,
        "budgeted line3 should still cover >1k states"
    );
}

/// Every committed config's scripted prefix must apply cleanly on fixed
/// code (a prefix that errors or violates would poison the CI run).
#[test]
fn builtin_prefixes_apply_cleanly() {
    for cfg in configs::all() {
        let model = configs::srp_model(&cfg);
        match bfs::apply_prefix(&model) {
            Ok(_) => {}
            Err(Ok(v)) => panic!(
                "config {}: prefix violates invariants: {}",
                cfg.name, v.desc
            ),
            Err(Err(e)) => panic!("config {}: prefix fails to apply: {e}", cfg.name),
        }
    }
}

/// A trace file round-trips through write → parse → replay: the
/// replayed script visits the same states and ends clean on fixed code.
#[test]
fn trace_round_trip_replays() {
    let cfg = configs::model_for("line3-pr2").expect("builtin config");
    let model = configs::srp_model(&cfg);
    let script: Vec<Action> = cfg.prefix.clone();
    let (hit, steps) = bfs::run_script(&model, &script, false).expect("script applies");
    assert_eq!(hit, None, "fixed code: prefix alone must be clean");
    assert_eq!(steps, script.len());

    let t = Trace {
        config: "line3-pr2".into(),
        feature: String::new(),
        prefix: script.clone(),
        actions: vec![],
        violation: "none (round-trip fixture)".into(),
    };
    let back = Trace::parse(&t.to_text()).expect("trace parses");
    assert_eq!(back.script(), script);
    let (hit2, steps2) = bfs::run_script(&model, &back.script(), false).expect("replay applies");
    assert_eq!((hit2, steps2), (None, steps));
}

/// Every committed counterexample under `crates/check/traces/` parses,
/// names a registered config, stores exactly that config's prefix, and
/// writes back byte-identical. (Replaying them needs their regress
/// feature; the CI `checker` job does that.)
#[test]
fn committed_traces_match_their_configs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../check/traces");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("traces directory") {
        let path = entry.expect("directory entry").path();
        let src = std::fs::read_to_string(&path).expect("trace reads");
        let t = Trace::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let cfg = configs::model_for(&t.config)
            .unwrap_or_else(|| panic!("{}: unknown config '{}'", path.display(), t.config));
        assert_eq!(t.prefix, cfg.prefix, "{}: stale prefix", path.display());
        assert_eq!(
            t.to_text(),
            src,
            "{}: not in canonical form",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 2, "expected the committed traces, found {seen}");
}

/// Rediscovery of the PR 2 crash–rejoin stale-successor loop: with the
/// cold-reboot fix disabled, exhaustive search from the crash–rejoin
/// frontier must find a successor-graph cycle — and the counterexample
/// must itself replay.
#[cfg(feature = "regress-pr2-cold-reboot")]
#[test]
fn rediscovers_pr2_crash_rejoin_loop() {
    let cfg = configs::model_for("line3-pr2").expect("builtin config");
    let model = configs::srp_model(&cfg);
    let res = bfs::explore(&model).expect("exploration runs");
    let v = res
        .violation
        .expect("regress-pr2-cold-reboot must re-introduce the loop");
    assert!(
        v.desc.contains("cycle"),
        "expected a cycle violation, got: {}",
        v.desc
    );

    let t = Trace::from_violation(cfg.name, &v);
    assert_eq!(t.feature, "regress-pr2-cold-reboot");
    let parsed = Trace::parse(&t.to_text()).expect("trace parses");
    let (hit, _) = bfs::run_script(&model, &parsed.script(), false).expect("replay applies");
    assert!(hit.is_some(), "replayed counterexample must reproduce");
}

/// Rediscovery of the PR 7 DELETE_PERIOD equal-seqno re-adoption loop:
/// with per-entry freshness stamps disabled, stale successor entries
/// outlive their label and a later discovery closes the cycle.
#[cfg(feature = "regress-pr7-entry-expiry")]
#[test]
fn rediscovers_pr7_entry_expiry_loop() {
    let cfg = configs::model_for("bowtie5-pr7").expect("builtin config");
    let model = configs::srp_model(&cfg);
    let res = bfs::explore(&model).expect("exploration runs");
    let v = res
        .violation
        .expect("regress-pr7-entry-expiry must re-introduce the loop");
    assert!(
        v.desc.contains("cycle"),
        "expected a cycle violation, got: {}",
        v.desc
    );

    let t = Trace::from_violation(cfg.name, &v);
    let parsed = Trace::parse(&t.to_text()).expect("trace parses");
    let (hit, _) = bfs::run_script(&model, &parsed.script(), false).expect("replay applies");
    assert!(hit.is_some(), "replayed counterexample must reproduce");
}

/// The regress configs are clean on *fixed* code under the same budgets
/// the rediscovery runs use — proving the checker's positives come from
/// the injected faults, not the configs.
#[cfg(not(any(
    feature = "regress-pr2-cold-reboot",
    feature = "regress-pr7-entry-expiry"
)))]
#[test]
fn regress_configs_clean_on_fixed_code() {
    for name in ["line3-pr2", "bowtie5-pr7"] {
        let mut cfg = configs::model_for(name).expect("builtin config");
        // Budget-bounded for test wall clock; CI's `checker` job runs the
        // full budgets via the slr-check binary.
        cfg.max_depth = cfg.max_depth.min(8);
        cfg.max_states = cfg.max_states.min(300_000);
        let model = configs::srp_model(&cfg);
        let res = bfs::explore(&model).expect("exploration runs");
        assert!(
            res.violation.is_none(),
            "{name} found a violation on fixed code: {:?}",
            res.violation
        );
    }
}
