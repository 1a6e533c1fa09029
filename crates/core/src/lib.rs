//! # slr-core — Split Label Routing label algebra
//!
//! A from-scratch implementation of the label machinery behind
//! *Loop-Free Routing Using a Dense Label Set in Wireless Networks*
//! (Mosko & Garcia-Luna-Aceves, ICDCS 2004).
//!
//! SLR keeps per-destination node labels in topological order over a
//! **dense** ordinal set, so the successor graph is a DAG at every instant
//! (Theorem 3) and a node can be inserted between two existing labels
//! without relabeling its predecessors. The paper instantiates that set as
//! SRP's `(sn, F)` orderings; this crate holds exactly the algebra SRP
//! runs:
//!
//! * [`Fraction`] — proper fractions with **mediant** splitting (Eq. 1) and
//!   the next-element operator (Eq. 2), in the paper's 32-bit flavor
//!   ([`Frac32`]) and a 64-bit variant, with overflow detection and the
//!   Fibonacci worst-case split bound
//!   ([`fraction::worst_case_split_capacity`] = 45 for `u32`);
//! * [`SplitLabel`] — SRP's composite ordering `O = (sn, F)` with the
//!   Ordering Criteria `≺` of Definition 5;
//! * [`new_order`] — Algorithm 1 (`NEWORDER`), plus the Definition 1
//!   *maintain order* predicate ([`maintains_order`]) it provably satisfies
//!   (Theorem 6), and the Farey-tree label reduction ([`reduce_label`],
//!   built on [`sternbrocot::simplest_between`]);
//! * [`SuccessorTable`] — the multi-path successor set `S_i` with `S_max`
//!   and the Algorithm 1 line 13 pruning;
//! * [`LabelInterner`] — `u32` handles for the distinct labels held in hot
//!   per-node state;
//! * [`invariant`] — the Theorem 3 and Definition 1 checks that the
//!   simulator's loop oracle and the `slr-check` model checker run over
//!   SRP's live successor graphs.
//!
//! ## Quick example
//!
//! ```
//! use slr_core::{new_order, Fraction, NewOrderCase, SplitLabel};
//!
//! // The paper's Fig. 1: a line E-D-C-B-A-T, where E requests a route to
//! // T. Every node on the path is unassigned, so the cached solicitation
//! // ordering stays (0, 1/1), and the reply from T relabels A, B, C, D, E
//! // in turn, each advertising its new label to the next.
//! let unassigned = SplitLabel::<u32>::unassigned();
//! let mut adv = SplitLabel::destination(1); // T
//! for n in 1..=5 {
//!     let g = new_order(unassigned, unassigned, adv);
//!     assert_eq!(g.case, NewOrderCase::NextElement);
//!     assert_eq!(g.label, SplitLabel::new(1, Fraction::new(n, n + 1)?));
//!     adv = g.label;
//! }
//! // Final topological order 5/6 → 4/5 → 3/4 → 2/3 → 1/2 → 0/1.
//! # Ok::<(), slr_core::FractionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fraction;
pub mod intern;
pub mod invariant;
pub mod label;
pub mod neworder;
pub mod sternbrocot;
pub mod successors;

pub use fraction::{Frac32, Frac64, FracInt, Fraction, FractionError};
pub use intern::{LabelHandle, LabelInterner};
pub use invariant::{InvariantViolation, SuccessorEdge};
pub use label::{SeqNo, SplitLabel, SplitLabel32, SplitLabel64};
pub use neworder::{
    check_order, maintains_order, needs_denominator_reset, new_order, reduce_label, NewOrder,
    NewOrderCase, OrderCheck,
};
pub use successors::{SuccessorEntry, SuccessorTable};
