//! # slr-check — bounded exhaustive model checking for SRP
//!
//! Both real SRP loops found in this repo's history (the PR 2
//! crash–rejoin stale-successor cycle and the PR 7 DELETE_PERIOD
//! equal-seqno re-adoption) lived in temporal windows random simulation
//! is bad at hitting; exhaustive exploration of a *small closed system*
//! finds them in seconds. This crate is a stateright-style checker built
//! in-repo — it drives the **actual** protocol engine
//! ([`slr_protocols::srp::Srp`], via the `model-check` seam) through
//! every interleaving of message delivery/loss/duplication, timer firing,
//! link churn, crash–rejoin and expiry-boundary clock ticks on 3–5-node
//! topologies, checking the paper's invariants at every state:
//!
//! * Theorem 3 — per-destination successor-graph acyclicity;
//! * Definition 1 / Eq. 5 — label order along every installed edge;
//! * seqno-floor monotonicity (crash-reset aside);
//! * the audit layer's distance-0 identity property on in-flight RREQs.
//!
//! Search is plain BFS with hashed-state deduplication
//! ([`slr_netsim::hash::FastHasher`] over a canonical, clock-relative
//! serialization of all node + network state), so the first
//! counterexample found is a *shortest* one, and the explored-state count
//! is deterministic. Counterexamples are trace files of `--probe` scripts
//! that replay through the same deterministic driver (`slr-check --replay`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod configs;
pub mod model;
pub mod trace;
