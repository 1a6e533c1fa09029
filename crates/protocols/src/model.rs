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
//! 3. **the successor graph** ([`SuccessorView`], not feature-gated) —
//!    the per-destination labels and successor entries the Theorem 3 /
//!    Definition 1 checks run over, the same view the simulation
//!    harness's loop-freedom oracle reads — plus
//!    [`ModelCheckable::model_seqno_floor`] for floor monotonicity.
//!
//! Everything here is additive and feature-gated: hot paths do not change
//! when the feature is off, and nothing in the simulation harness depends
//! on it.

use crate::api::{NodeId, RoutingProtocol, SuccessorView};
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
/// Implemented by [`crate::srp::Srp`]; a protocol that exposes a
/// [`SuccessorView`] of its route table can follow.
pub trait ModelCheckable: RoutingProtocol + SuccessorView + Clone {
    /// Appends a canonical byte encoding of all behavior-relevant state
    /// to `out`. Stored absolute times must be encoded relative to `now`
    /// and clamped at their governing horizon; pure statistics counters
    /// must be excluded.
    fn model_canonical(&self, now: SimTime, out: &mut Vec<u8>);

    /// The sequence-number floor retained for `dst` (0 if none).
    fn model_seqno_floor(&self, dst: NodeId) -> u64;
}
