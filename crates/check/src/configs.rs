//! The committed model configurations.
//!
//! Each config is a named closed system the CI `checker` job explores.
//! Budgets are tuned so the CI set finishes well inside the 120 s wall
//! budget; the `-deep` variants are nightly-only.
//!
//! Prefixes are deterministic scripts (built with the `--probe` mode of
//! `slr-check`) that position the system at an interesting frontier —
//! e.g. "routes built, node crashed and back" — so the exhaustive budget
//! is spent on the part of the space where the historical bugs lived
//! rather than on route discovery permutations.

use slr_netsim::time::SimDuration;
use slr_protocols::api::NodeId;
use slr_protocols::discovery::DiscoveryConfig;
use slr_protocols::srp::{MultipathPolicy, Srp, SrpConfig};

use crate::model::{Action, Flow, Model, ModelConfig};

/// SRP tuning used by every model config.
///
/// Horizons are compressed to whole seconds of model time so the tick
/// budget can cross them: routes idle out after 2 s, labels are forgotten
/// 3 s later (`delete_period > route_lifetime`, as the paper requires).
/// `min_reply_hops = 0` lets intermediate nodes reply on the small
/// topologies; RERR rate limiting is off so error paths are explored
/// every time; buffering horizons are pushed out of reach so the tick
/// budget never expires buffered packets mid-exploration (that dimension
/// is covered by the harness's integration tests, not the checker).
pub fn model_srp_config() -> SrpConfig {
    SrpConfig {
        delete_period: SimDuration::from_secs(3),
        max_denom: 1_000_000_000,
        lie_k: 10_000,
        min_reply_hops: 0,
        route_lifetime: SimDuration::from_secs(2),
        // First-ring TTL (5) already covers every model topology
        // (diameter <= 4), so retries never change the flood shape.
        discovery: DiscoveryConfig {
            per_hop_latency: SimDuration::from_secs(1),
            buffer_capacity: 4,
            buffer_timeout: SimDuration::from_secs(1 << 20),
            rerr_rate_limit: SimDuration::ZERO,
        },
        multipath: MultipathPolicy::SingleMinHop,
        reduce_den_threshold: 1 << 27,
        rreq_cache_lifetime: SimDuration::from_secs(1 << 20),
    }
}

/// Constructs the SRP instance for node `i` of a model config.
pub fn make_srp(i: NodeId, cfg: &ModelConfig) -> Srp {
    Srp::new(i, cfg.srp)
}

/// A [`Model`] over the registered config `name`, if it exists.
pub fn model_for(name: &str) -> Option<ModelConfig> {
    all().into_iter().find(|c| c.name == name)
}

/// Convenience: builds the checker [`Model`] for a config.
pub fn srp_model(cfg: &ModelConfig) -> Model<'_, Srp> {
    Model {
        cfg,
        make: &|i, c| make_srp(i, c),
    }
}

fn parse_script(steps: &[&str]) -> Vec<Action> {
    steps
        .iter()
        .map(|s| Action::parse(s).expect("builtin prefix action"))
        .collect()
}

/// Every registered configuration, CI set first.
pub fn all() -> Vec<ModelConfig> {
    vec![
        line3(),
        ring4(),
        line3_pr2(),
        bowtie5_pr7(),
        ring5_deep(),
        line4_deep(),
    ]
}

/// The configs the fast CI job runs (≤120 s together).
pub fn ci_set() -> Vec<&'static str> {
    vec!["line3", "ring4", "line3-pr2", "bowtie5-pr7"]
}

/// The deeper nightly-only configs.
pub fn nightly_set() -> Vec<&'static str> {
    vec!["ring5-deep", "line4-deep"]
}

/// 3-node line 0–1–2: discovery + crash–rejoin of the middle node, full
/// message nondeterminism. The smallest system where relaying matters.
pub fn line3() -> ModelConfig {
    ModelConfig {
        name: "line3",
        about: "3-node line, crash/rejoin of the relay, drops+dups, from cold start",
        nodes: 3,
        edges: vec![(0, 1), (1, 2)],
        flows: vec![
            Flow {
                src: 0,
                dst: 2,
                budget: 2,
            },
            Flow {
                src: 1,
                dst: 2,
                budget: 1,
            },
        ],
        max_ticks: 4,
        crash_budget: vec![0, 1, 0],
        link_budget: vec![0, 0],
        allow_drop: true,
        dup_budget: 1,
        max_depth: 14,
        max_states: 400_000,
        prefix: Vec::new(),
        srp: model_srp_config(),
    }
}

/// 4-node ring: redundant paths, one link-down/up cycle, no crashes.
/// Exercises Split/mediant label assignment (two route copies meet).
pub fn ring4() -> ModelConfig {
    ModelConfig {
        name: "ring4",
        about: "4-node ring, one link churn cycle, drops, redundant paths",
        nodes: 4,
        edges: vec![(0, 1), (0, 3), (1, 2), (2, 3)],
        flows: vec![Flow {
            src: 0,
            dst: 2,
            budget: 2,
        }],
        max_ticks: 3,
        crash_budget: vec![0, 0, 0, 0],
        link_budget: vec![0, 2, 0, 0],
        allow_drop: true,
        dup_budget: 0,
        max_depth: 14,
        max_states: 400_000,
        prefix: Vec::new(),
        srp: model_srp_config(),
    }
}

/// The PR 2 rediscovery config: 3-node line with a scripted prefix that
/// builds the 0→1→2 route and crash–rejoins the relay; exploration then
/// only needs the rejoined node's re-discovery interleavings. With the
/// `regress-pr2-cold-reboot` fault injected, the stale-successor 2-cycle
/// appears within a few steps; on fixed code the same space is clean.
pub fn line3_pr2() -> ModelConfig {
    ModelConfig {
        name: "line3-pr2",
        about: "3-node line positioned after relay crash-rejoin (PR 2 regression frontier)",
        nodes: 3,
        edges: vec![(0, 1), (1, 2)],
        flows: vec![
            Flow {
                src: 0,
                dst: 2,
                budget: 1,
            },
            Flow {
                src: 1,
                dst: 2,
                budget: 1,
            },
        ],
        max_ticks: 2,
        crash_budget: vec![0, 1, 0],
        link_budget: vec![0, 0],
        allow_drop: true,
        dup_budget: 0,
        max_depth: 12,
        max_states: 400_000,
        // Build 0's route to 2 through 1 (flood out and back), then
        // crash-rejoin the relay. Constructed with `--probe`.
        prefix: parse_script(&[
            "appsend 0", // 0 floods RREQ for 2
            "deliver 0", // RREQ reaches 1; 1 relays (echo + onward copy)
            "deliver 1", // onward copy reaches 2; 2 replies
            "drop 0",    // the echo back to 0 is moot; drop it
            "deliver 0", // RREP 2->1
            "deliver 0", // RREP 1->0; 0 sends the buffered data
            "deliver 0", // data 0->1
            "deliver 0", // data 1->2: route 0->1->2 is live
            "crash 1",
            "rejoin 1",
        ]),
        srp: model_srp_config(),
    }
}

/// The PR 7 rediscovery config: the "bowtie" (0–1, 0–2, 1–3, 2–3, 2–4)
/// where node 0 can hold two successors toward 3, node 2's entry can
/// expire while its label is forgotten, and node 4's later discovery
/// makes 2 adopt 0 — closing the cycle with 0's stale unexpired entry.
/// The prefix (built with `--probe`) walks the long deterministic setup;
/// exploration covers the final discovery's interleavings.
pub fn bowtie5_pr7() -> ModelConfig {
    ModelConfig {
        name: "bowtie5-pr7",
        about: "5-node bowtie positioned at the DELETE_PERIOD expiry frontier (PR 7 regression)",
        nodes: 5,
        edges: vec![(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)],
        flows: vec![
            Flow {
                src: 3,
                dst: 0,
                budget: 1,
            },
            // Keep-alive traffic: each send refreshes 0's route to 3 at
            // try_forward time, so its successor entries survive the
            // whole DELETE_PERIOD window without ever being re-learned.
            Flow {
                src: 0,
                dst: 3,
                budget: 4,
            },
            Flow {
                src: 4,
                dst: 3,
                budget: 1,
            },
        ],
        max_ticks: 5,
        crash_budget: vec![0, 0, 0, 0, 0],
        link_budget: vec![0, 0, 0, 1, 0],
        allow_drop: true,
        dup_budget: 0,
        max_depth: 10,
        max_states: 400_000,
        // Deterministic setup (built with `--probe`): builds 0's two-way
        // split toward 3 (via 1 and via 2), downs link 2–3, then uses
        // keep-alive sends from 0 to walk the clock to t=5 — past node
        // 2's DELETE_PERIOD — while 0's entries stay active. Node 4's
        // first flood (t=2) is dropped everywhere except as the lazy
        // touch that starts 2's forget countdown; its ring-retry timer
        // is left pending for exploration to fire.
        prefix: parse_script(&[
            "appsend 0",                   // 3 floods RREQ for 0
            "drop 1",                      // lose the 3->2 copy: only the 3->1 arm proceeds
            "deliver 0",                   // RREQ reaches 1; 1 relays
            "deliver 0",                   // relay reaches 0; 0 replies (label 1/2 via 1)
            "drop 0",                      // drop the 1->3 echo
            "drop 0",                      // drop the 0->2 onward flood copy
            "timer 3 9223372036854775808", // 3's ring retry: re-flood
            "deliver 1",                   // retry RREQ 3->2; 2 relays (label 1/2 via 3)
            "deliver 0",                   // relay 2->0: 0 splits, succs {1, 2}, label 2/3
            "drop 0",                      // drop the 2->3 echo
            "drop 0",                      // drop the 2->4 flood copy
            "drop 0",                      // drop the retry's 3->1 arm
            "drop 0",                      // drop 0's RREP back toward 3 (route 0->3 is up)
            "linkdown 3",                  // sever 2-3: 2's entry can now only go stale
            "tick",                        // t=1
            "appsend 1",                   // keep-alive 0->3 (via succ 1), refreshes expiry
            "drop 0",                      // the data packet itself is irrelevant; drop it
            "tick",                        // t=2: 2's dest-3 route idles out (lifetime 2)
            "appsend 1",                   // keep-alive
            "drop 0",
            "appsend 2", // 4 floods RREQ for 3 (flood A)
            "deliver 0", // flood A touches 2: lazy invalidate, forget@5
            "drop 0",    // drop 2's relay of flood A toward 0
            "drop 0",    // drop 2's relay echo toward 4
            "tick",      // t=3
            "appsend 1", // keep-alive
            "drop 0",
            "tick",      // t=4
            "appsend 1", // keep-alive: 0's entries now live through t=6
            "drop 0",
            "tick", // t=5: 2's label hits forget_at
        ]),
        srp: model_srp_config(),
    }
}

/// Nightly: 5-node ring with crash and link churn, deeper bound.
pub fn ring5_deep() -> ModelConfig {
    ModelConfig {
        name: "ring5-deep",
        about: "nightly: 5-node ring, crash + link churn, deeper exhaustive bound",
        nodes: 5,
        edges: vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],
        flows: vec![
            Flow {
                src: 0,
                dst: 3,
                budget: 2,
            },
            Flow {
                src: 2,
                dst: 0,
                budget: 1,
            },
        ],
        max_ticks: 4,
        crash_budget: vec![0, 1, 0, 0, 0],
        link_budget: vec![0, 2, 0, 0, 0],
        allow_drop: true,
        dup_budget: 0,
        max_depth: 16,
        max_states: 12_000_000,
        prefix: Vec::new(),
        srp: model_srp_config(),
    }
}

/// Nightly: 4-node line with duplication and both end flows.
pub fn line4_deep() -> ModelConfig {
    ModelConfig {
        name: "line4-deep",
        about: "nightly: 4-node line, crash of either relay, dups, deeper bound",
        nodes: 4,
        edges: vec![(0, 1), (1, 2), (2, 3)],
        flows: vec![
            Flow {
                src: 0,
                dst: 3,
                budget: 2,
            },
            Flow {
                src: 3,
                dst: 0,
                budget: 1,
            },
        ],
        max_ticks: 5,
        crash_budget: vec![0, 1, 1, 0],
        link_budget: vec![0, 0, 0],
        allow_drop: true,
        dup_budget: 1,
        max_depth: 16,
        max_states: 12_000_000,
        prefix: Vec::new(),
        srp: model_srp_config(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_well_formed() {
        for c in all() {
            assert_eq!(c.crash_budget.len(), c.nodes, "{}", c.name);
            assert_eq!(c.link_budget.len(), c.edges.len(), "{}", c.name);
            for &(a, b) in &c.edges {
                assert!(a < b && b < c.nodes, "{}: bad edge ({a},{b})", c.name);
            }
            for f in &c.flows {
                assert!(
                    f.src < c.nodes && f.dst < c.nodes && f.src != f.dst,
                    "{}",
                    c.name
                );
            }
            assert!(model_for(c.name).is_some());
        }
    }
}
