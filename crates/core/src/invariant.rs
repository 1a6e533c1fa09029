//! Machine-readable SRP safety invariants, lifted from the paper for use
//! by oracles, the model checker and `debug_assertions` hooks.
//!
//! The simulation harness's loop-freedom oracle (`Sim::check_loop_freedom`)
//! runs the first two over every node's successor view at each checkpoint;
//! the bounded model checker (`slr-check`) runs all four after every
//! transition:
//!
//! * **Theorem 3** — the per-destination successor graph is acyclic at
//!   every instant ([`check_acyclic`]);
//! * **Definition 1 / Eq. 5** — along every installed successor edge the
//!   upstream node's *current* label strictly precedes the ordering
//!   recorded when the edge was created ([`check_edge_order`]);
//! * **seqno-floor monotonicity** — a node's per-destination sequence
//!   number floor never decreases while the node stays up; it survives
//!   DELETE_PERIOD label forgetting (the PR 7 fix)
//!   ([`check_floor_monotone`]);
//! * **distance-0 identity** — a route request claiming distance 0 to its
//!   source must come from the source itself (the audit layer's first-hop
//!   identity check) ([`check_distance_zero`]).
//!
//! Keeping the predicates here — next to [`crate::neworder`] and
//! [`crate::successors`], which implement the algorithm they constrain —
//! means the checker verifies the *actual* engine against the *actual*
//! algebra, with no hand-translated spec that can drift.

use crate::dag::find_cycle;
use crate::fraction::FracInt;
use crate::label::SplitLabel;
use core::fmt;

/// One directed successor edge `(from → to)` in the successor graph of a
/// single destination, together with the labels the invariants constrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccessorEdge<T: FracInt> {
    /// The upstream node holding the successor entry.
    pub from: usize,
    /// The successor node.
    pub to: usize,
    /// `from`'s current label for the destination (`O_from^T`).
    pub own: SplitLabel<T>,
    /// The ordering recorded when the edge was installed (`S_from^{T,to}`).
    pub recorded: SplitLabel<T>,
}

/// A violated invariant, carrying enough context to print a diagnostic and
/// to key a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation<T: FracInt> {
    /// Definition 1 / Eq. 5 broken: `own ⊀ recorded` on an installed edge.
    EdgeOrder {
        /// The destination whose successor graph holds the edge.
        dest: usize,
        /// The offending edge with both labels.
        edge: SuccessorEdge<T>,
    },
    /// Theorem 3 broken: the successor graph contains a directed cycle.
    Cycle {
        /// The destination whose successor graph is cyclic.
        dest: usize,
        /// The cycle as a node sequence (first node repeated implicitly).
        nodes: Vec<usize>,
    },
    /// A node's per-destination sequence-number floor decreased.
    FloorRegressed {
        /// The node whose floor regressed.
        node: usize,
        /// The destination the floor guards.
        dest: usize,
        /// The floor before the transition.
        before: u64,
        /// The (smaller) floor after the transition.
        after: u64,
    },
    /// A route request carried distance 0 but was not sent by its source.
    DistanceZero {
        /// The node the request claims as source.
        claimed_src: usize,
        /// The node that actually transmitted the request.
        sender: usize,
    },
}

impl<T: FracInt> fmt::Display for InvariantViolation<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::EdgeOrder { dest, edge } => write!(
                f,
                "Definition 1 broken for dest {}: edge {} -> {} has own {:?} !< recorded {:?}",
                dest, edge.from, edge.to, edge.own, edge.recorded
            ),
            InvariantViolation::Cycle { dest, nodes } => {
                write!(
                    f,
                    "Theorem 3 broken for dest {dest}: successor cycle {nodes:?}"
                )
            }
            InvariantViolation::FloorRegressed {
                node,
                dest,
                before,
                after,
            } => write!(
                f,
                "seqno floor regressed at node {node} for dest {dest}: {before} -> {after}"
            ),
            InvariantViolation::DistanceZero {
                claimed_src,
                sender,
            } => write!(
                f,
                "distance-0 RREQ for src {claimed_src} transmitted by {sender}"
            ),
        }
    }
}

/// Definition 1 / Eq. 5, edge by edge: the upstream node's current label
/// must strictly precede the ordering recorded with the successor entry
/// (`O_from^T ≺ S_from^{T,to}`). Returns the first violating edge.
pub fn check_edge_order<T: FracInt>(
    dest: usize,
    edges: &[SuccessorEdge<T>],
) -> Result<(), InvariantViolation<T>> {
    for e in edges {
        if !e.own.precedes(&e.recorded) {
            return Err(InvariantViolation::EdgeOrder { dest, edge: *e });
        }
    }
    Ok(())
}

/// Theorem 3: the successor graph restricted to `edges` must be acyclic.
/// `n` bounds the node-id space (ids in `edges` must be `< n`).
pub fn check_acyclic<T: FracInt>(
    dest: usize,
    n: usize,
    edges: &[SuccessorEdge<T>],
) -> Result<(), InvariantViolation<T>> {
    let raw: Vec<(usize, usize)> = edges.iter().map(|e| (e.from, e.to)).collect();
    match find_cycle(n, &raw) {
        None => Ok(()),
        Some(nodes) => Err(InvariantViolation::Cycle { dest, nodes }),
    }
}

/// Both structural checks for one destination's successor graph: the
/// per-edge label order (Definition 1) first — a broken edge is the more
/// precise diagnostic — then global acyclicity (Theorem 3).
pub fn check_destination<T: FracInt>(
    dest: usize,
    n: usize,
    edges: &[SuccessorEdge<T>],
) -> Result<(), InvariantViolation<T>> {
    check_edge_order(dest, edges)?;
    check_acyclic(dest, n, edges)
}

/// Seqno-floor monotonicity across one transition: `after < before` is a
/// violation. Crash–rejoin legitimately resets the floor, so callers must
/// skip nodes that were wiped during the transition.
pub fn check_floor_monotone<T: FracInt>(
    node: usize,
    dest: usize,
    before: u64,
    after: u64,
) -> Result<(), InvariantViolation<T>> {
    if after < before {
        Err(InvariantViolation::FloorRegressed {
            node,
            dest,
            before,
            after,
        })
    } else {
        Ok(())
    }
}

/// The audit layer's distance-0 identity property: an in-flight route
/// request whose accumulated distance is 0 must have been transmitted by
/// the node it names as source.
pub fn check_distance_zero<T: FracInt>(
    claimed_src: usize,
    sender: usize,
    distance: u32,
) -> Result<(), InvariantViolation<T>> {
    if distance == 0 && sender != claimed_src {
        Err(InvariantViolation::DistanceZero {
            claimed_src,
            sender,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraction::Fraction;

    fn l(sn: u64, n: u32, d: u32) -> SplitLabel<u32> {
        SplitLabel::new(sn, Fraction::new(n, d).unwrap())
    }

    fn edge(
        from: usize,
        to: usize,
        own: SplitLabel<u32>,
        rec: SplitLabel<u32>,
    ) -> SuccessorEdge<u32> {
        SuccessorEdge {
            from,
            to,
            own,
            recorded: rec,
        }
    }

    #[test]
    fn ordered_dag_passes() {
        // 2 -> 1 -> 0 with labels 2/3, 1/2 and recorded orderings one step
        // below each owner: exactly what a clean discovery installs.
        let edges = [
            edge(2, 1, l(1, 2, 3), l(1, 1, 2)),
            edge(1, 0, l(1, 1, 2), l(1, 0, 1)),
        ];
        assert!(check_destination(0, 3, &edges).is_ok());
    }

    #[test]
    fn edge_order_violation_is_reported_first() {
        // own == recorded is already a violation (strict precedence).
        let edges = [edge(2, 1, l(1, 1, 2), l(1, 1, 2))];
        match check_destination(0, 3, &edges) {
            Err(InvariantViolation::EdgeOrder { dest: 0, edge: e }) => {
                assert_eq!((e.from, e.to), (2, 1));
            }
            other => panic!("expected EdgeOrder, got {other:?}"),
        }
    }

    #[test]
    fn two_cycle_is_caught_even_when_edges_are_locally_ordered() {
        // Both historical SRP loops looked exactly like this: each edge
        // satisfies own < recorded locally, yet 1 <-> 2 globally.
        let edges = [
            edge(1, 2, l(1, 3, 4), l(1, 2, 3)),
            edge(2, 1, l(1, 2, 3), l(1, 1, 2)),
        ];
        assert!(check_edge_order(0, &edges).is_ok());
        match check_acyclic(0, 3, &edges) {
            Err(InvariantViolation::Cycle { dest: 0, nodes }) => {
                assert_eq!(nodes.len(), 2);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn floor_and_distance_zero_predicates() {
        assert!(check_floor_monotone::<u32>(1, 0, 3, 3).is_ok());
        assert!(check_floor_monotone::<u32>(1, 0, 3, 4).is_ok());
        assert!(check_floor_monotone::<u32>(1, 0, 4, 3).is_err());
        assert!(check_distance_zero::<u32>(5, 5, 0).is_ok());
        assert!(check_distance_zero::<u32>(5, 4, 1).is_ok());
        assert!(check_distance_zero::<u32>(5, 4, 0).is_err());
    }
}
