//! Property-based tests for the SLR label algebra: machine checks of the
//! paper's Theorems 5 and 6 (density of the orderings and NEWORDER's
//! order maintenance) over randomized inputs.

use proptest::prelude::*;

use slr_core::sternbrocot::simplest_between;
use slr_core::{maintains_order, new_order, Fraction, SplitLabel};

/// A strategy producing arbitrary valid `u32` fractions (including 0/1 and
/// 1/1 but biased toward proper interiors).
fn frac() -> impl Strategy<Value = Fraction<u32>> {
    (1u32..=1_000_000)
        .prop_flat_map(|den| (0u32..=den).prop_map(move |num| Fraction::new(num, den).unwrap()))
}

/// Small sequence numbers so equal-seqno cases are well represented.
fn label() -> impl Strategy<Value = SplitLabel<u32>> {
    (0u64..4, frac()).prop_map(|(sn, fd)| SplitLabel::new(sn, fd))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Eq. 1: the mediant of two fractions lies strictly between them.
    #[test]
    fn mediant_strictly_between(a in frac(), b in frac()) {
        prop_assume!(a < b);
        if let Some(m) = a.checked_mediant(&b) {
            prop_assert!(a < m && m < b, "{a} {m} {b}");
        }
    }

    /// Cross-multiplication order is a total order consistent with values.
    #[test]
    fn fraction_order_matches_f64(a in frac(), b in frac()) {
        let (x, y) = (a.value(), b.value());
        if (x - y).abs() > 1e-9 {
            prop_assert_eq!(a < b, x < y);
        }
    }

    /// The next-element is strictly greater and the least such step keeps
    /// the value below one.
    #[test]
    fn next_element_properties(a in frac()) {
        if let Some(n) = a.next_element() {
            prop_assert!(a < n);
            prop_assert!(n <= Fraction::one());
        } else {
            prop_assert!(a.is_one());
        }
    }

    /// The ≺ relation of Definition 5 is irreflexive, asymmetric and
    /// transitive — a strict partial order.
    #[test]
    fn oc_is_strict_partial_order(a in label(), b in label(), c in label()) {
        prop_assert!(!a.precedes(&a));
        if a.precedes(&b) {
            prop_assert!(!b.precedes(&a));
        }
        if a.precedes(&b) && b.precedes(&c) {
            prop_assert!(a.precedes(&c));
        }
        // Totality on non-equal labels.
        if a != b {
            prop_assert!(a.precedes(&b) || b.precedes(&a));
        }
    }

    /// Theorem 5 (density): between two distinct orderings there is a third.
    #[test]
    fn oc_is_dense(a in label(), b in label()) {
        prop_assume!(a.precedes(&b));
        // Construct the witness the proof uses.
        let c = if a.seqno() != b.seqno() {
            b.next_element()
        } else {
            a.fd().checked_mediant(&b.fd()).map(|fd| SplitLabel::new(a.seqno(), fd))
        };
        if let Some(c) = c {
            prop_assert!(a.precedes(&c), "{a} !≺ {c} (b={b})");
            prop_assert!(c.precedes(&b), "{c} !≺ {b} (a={a})");
        }
    }

    /// Theorem 6: whenever the advertisement is feasible at the node
    /// (Fact 1) and along the reverse path (Fact 2), a finite NEWORDER
    /// result maintains Eqs. 3–5. Feasible triples are built by sorting
    /// three arbitrary labels so the advertisement is the lowest.
    #[test]
    fn neworder_maintains_order(a in label(), b in label(), c in label(), swap in prop::bool::ANY) {
        let mut v = [a, b, c];
        // Sort by DAG height: lowest (closest to destination) last.
        v.sort_by(|x, y| {
            if x.precedes(y) {
                core::cmp::Ordering::Less // x higher than y
            } else if y.precedes(x) {
                core::cmp::Ordering::Greater
            } else {
                core::cmp::Ordering::Equal
            }
        });
        let (mut own, mut cached, adv) = (v[0], v[1], v[2]);
        if swap {
            core::mem::swap(&mut own, &mut cached);
        }
        prop_assume!(own.precedes(&adv) && cached.precedes(&adv));
        let g = new_order(own, cached, adv);
        if g.label.is_finite() {
            prop_assert!(maintains_order(&g.label, &own, &cached, &adv, None),
                "own={own} cached={cached} adv={adv} g={:?}", g);
        }
    }

    /// An infeasible advertisement (own ⊀ adv) never yields a finite label.
    #[test]
    fn neworder_rejects_infeasible(own in label(), cached in label(), adv in label()) {
        prop_assume!(!own.precedes(&adv));
        let g = new_order(own, cached, adv);
        // When own == adv numerically with equal seqno, KeepOwn may fire;
        // that is still order-safe because no new successor below own is
        // implied. Any *other* infeasible input must be rejected.
        if own.seqno() > adv.seqno() {
            prop_assert!(!g.label.is_finite());
        }
    }

    /// Farey interpolation: the simplest fraction is inside the interval
    /// and never has a larger denominator than the mediant.
    #[test]
    fn simplest_between_inside_and_simple(a in frac(), b in frac()) {
        prop_assume!(a < b);
        let s = simplest_between(&a, &b);
        prop_assert!(s.is_some(), "interval ({a},{b}) should contain a fraction");
        let s = s.unwrap();
        prop_assert!(a < s && s < b);
        if let Some(m) = a.checked_mediant(&b) {
            prop_assert!(s.den() <= m.den(), "simplest {s} vs mediant {m}");
        }
        // Result is in lowest terms.
        prop_assert!(s.is_reduced(), "{s} not reduced");
    }
}
