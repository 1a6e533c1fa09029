//! The model-checking seam (`model-check` feature): what a protocol must
//! expose for `slr-check` to drive it through a bounded exhaustive state
//! search.
//!
//! The checker explores every interleaving of a small closed system by
//! cloning protocol instances, so a checkable protocol needs three things
//! beyond [`RoutingProtocol`]:
//!
//! 1. **snapshotting** (`Clone`) — branch points copy the whole instance;
//! 2. **canonical serialization** ([`ModelCheckable::model_canonical`]) —
//!    a byte encoding of all behavior-relevant state, with stored
//!    timestamps rewritten as *deltas from `now`* (clamped at the horizon
//!    that governs them) so two states that behave identically hash
//!    identically regardless of absolute clock;
//! 3. **invariant views** (`model_label` / `model_successors` /
//!    `model_destinations` / `model_seqno_floor`) — the per-destination
//!    label and successor graph the Theorem 3 / Definition 1 checks run
//!    over, identical to what the simulation harness's loop-freedom
//!    oracle reads.
//!
//! Everything here is additive and feature-gated: hot paths do not change
//! when the feature is off, and nothing in the simulation harness depends
//! on it.

use crate::api::{NodeId, RoutingProtocol};
use slr_core::SplitLabel32;
use slr_netsim::time::{SimDuration, SimTime};

/// Appends `v` to a canonical serialization.
pub(crate) fn put(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the age of a stored stamp, saturated at `cap` — ages at or
/// past the horizon are behaviorally identical.
pub(crate) fn age(out: &mut Vec<u8>, now: SimTime, then: SimTime, cap: SimDuration) {
    put(
        out,
        now.saturating_since(then).as_nanos().min(cap.as_nanos()),
    );
}

/// A routing protocol the bounded model checker can drive.
///
/// Implemented by [`crate::srp::Srp`]; AODV/LDR can follow by providing
/// the same views over their route tables.
pub trait ModelCheckable: RoutingProtocol + Clone {
    /// Appends a canonical byte encoding of all behavior-relevant state
    /// to `out`. Stored absolute times must be encoded relative to `now`
    /// and clamped at their governing horizon; pure statistics counters
    /// must be excluded.
    fn model_canonical(&self, now: SimTime, out: &mut Vec<u8>);

    /// This node's current label (ordering) for `dst`.
    fn model_label(&self, dst: NodeId) -> SplitLabel32;

    /// Current successors toward `dst` with their recorded advertisement
    /// orderings, applying the same lazy expiry the protocol itself would.
    fn model_successors(&self, dst: NodeId, now: SimTime) -> Vec<(NodeId, SplitLabel32)>;

    /// Destinations with any installed successor state.
    fn model_destinations(&self) -> Vec<NodeId>;

    /// The sequence-number floor retained for `dst` (0 if none).
    fn model_seqno_floor(&self, dst: NodeId) -> u64;
}
