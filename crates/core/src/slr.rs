//! The generic SLR class of §II: a dense ordinal label set and the
//! Definition 1 relabeling discipline, independent of any concrete protocol.
//!
//! This module uses the *SLR orientation* of the order — the destination
//! carries the **least** label, labels strictly decrease along every
//! successor edge toward it — matching the paper's `<` on the ordinal set
//! `L` (the SRP ordering of Definition 5 inverts the fraction sense inside
//! the composite label; see [`crate::label`]).

use core::cmp::Ordering;
use core::fmt;

use crate::fraction::{FracInt, Fraction};
use crate::sternbrocot::{simplest_between, SbPath};

/// A dense ordinal label set `L` (§II): a strict linear order with least
/// and greatest elements, a next-element operator, and interpolation
/// between any two distinct elements.
///
/// `between`/`next_up` return `None` only for *bounded* implementations
/// (such as fixed-width fractions) when the representation overflows, or
/// when the request is vacuous (`next_up` of the greatest element, or
/// `between` on an empty interval).
pub trait DenseLabel: Clone + Eq + fmt::Debug {
    /// The least element — the natural label for the destination.
    fn least() -> Self;
    /// The greatest element `∞` — the label of an unassigned node.
    fn greatest() -> Self;
    /// The strict linear order on the set.
    fn cmp_label(&self, other: &Self) -> Ordering;
    /// A label strictly between `lo` and `hi` (requires `lo < hi`).
    fn between(lo: &Self, hi: &Self) -> Option<Self>;
    /// A label strictly greater than `self` (`ε⁺`); `None` for the
    /// greatest element.
    fn next_up(&self) -> Option<Self>;

    /// `self < other` in label order.
    fn lt(&self, other: &Self) -> bool {
        self.cmp_label(other) == Ordering::Less
    }

    /// `self <= other` in label order.
    fn le(&self, other: &Self) -> bool {
        self.cmp_label(other) != Ordering::Greater
    }

    /// The smaller of two labels.
    fn min_of(a: Self, b: Self) -> Self {
        if a.le(&b) {
            a
        } else {
            b
        }
    }
}

impl<T: FracInt> DenseLabel for Fraction<T> {
    fn least() -> Self {
        Fraction::zero()
    }
    fn greatest() -> Self {
        Fraction::one()
    }
    fn cmp_label(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
    fn between(lo: &Self, hi: &Self) -> Option<Self> {
        if lo.cmp_value(hi) != Ordering::Less {
            return None;
        }
        lo.checked_mediant(hi)
    }
    fn next_up(&self) -> Option<Self> {
        self.next_element()
    }
}

/// A fraction label that interpolates with the **simplest** fraction in the
/// open interval (Farey / Stern–Brocot reduction) instead of the raw
/// mediant — the extension sketched in the paper's conclusion. Splitting
/// consumes the fixed-width budget much more slowly; see the
/// relabel-storm test in [`crate::sternbrocot`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FareyFraction<T: FracInt>(pub Fraction<T>);

impl<T: FracInt> fmt::Debug for FareyFraction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<T: FracInt> fmt::Display for FareyFraction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<T: FracInt> DenseLabel for FareyFraction<T> {
    fn least() -> Self {
        FareyFraction(Fraction::zero())
    }
    fn greatest() -> Self {
        FareyFraction(Fraction::one())
    }
    fn cmp_label(&self, other: &Self) -> Ordering {
        self.0.cmp_value(&other.0)
    }
    fn between(lo: &Self, hi: &Self) -> Option<Self> {
        simplest_between(&lo.0, &hi.0).map(FareyFraction)
    }
    fn next_up(&self) -> Option<Self> {
        if self.0.is_one() {
            return None;
        }
        // The simplest fraction strictly above self.
        simplest_between(&self.0, &Fraction::one()).map(FareyFraction)
    }
}

impl DenseLabel for SbPath {
    fn least() -> Self {
        SbPath::Least
    }
    fn greatest() -> Self {
        SbPath::Greatest
    }
    fn cmp_label(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
    fn between(lo: &Self, hi: &Self) -> Option<Self> {
        SbPath::between(lo, hi)
    }
    fn next_up(&self) -> Option<Self> {
        SbPath::next_up(self)
    }
}

/// The Definition 1 inequalities in SLR orientation, for a proposed label
/// `g` given the node's current label, the cached minimum predecessor label
/// `M_i`, the advertised label `L_?`, and the maximum successor label
/// `S_max` (the least element when the successor set is empty).
pub fn maintains_order_slr<L: DenseLabel>(
    g: &L,
    own: &L,
    cached_min: &L,
    adv: &L,
    s_max: &L,
) -> bool {
    g.le(own)              // Eq. 3: labels non-increasing
        && g.lt(cached_min) // Eq. 4: below all predecessors on the path
        && adv.lt(g)        // Eq. 5: strictly above the advertiser
        && s_max.lt(g) // Eq. 6: strictly above existing successors
}

/// Chooses a new label per §II's narrative rule: keep the current label if
/// it already maintains order; otherwise take the advertisement's
/// next-element; otherwise split between the advertised label and
/// `min(M_i, L_i)`. Returns `None` when no maintaining label exists in the
/// (possibly bounded) set.
///
/// This reproduces both worked examples of the paper — see
/// `examples/paper_figures.rs`.
pub fn choose_label<L: DenseLabel>(own: &L, cached_min: &L, adv: &L, s_max: &L) -> Option<L> {
    // Keep the current label when possible (the paper's nodes G and H in
    // Example 2 "satisfy Eq. 4 with their current labels, so no change is
    // necessary").
    if maintains_order_slr(own, own, cached_min, adv, s_max) {
        return Some(own.clone());
    }
    // Generally choose the next-element of the advertisement…
    if let Some(g) = adv.next_up() {
        if maintains_order_slr(&g, own, cached_min, adv, s_max) {
            return Some(g);
        }
    }
    // …otherwise split the advertised label and the cached minimum. Eq. 6
    // is re-checked on the result: if the split lands at or below S_max the
    // caller must either drop successors or reject (Theorem 4 ignores Eq. 6
    // for the same reason).
    let hi = L::min_of(cached_min.clone(), own.clone());
    let g = L::between(adv, &hi)?;
    if maintains_order_slr(&g, own, cached_min, adv, s_max) {
        Some(g)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type F = Fraction<u32>;

    fn f(n: u32, d: u32) -> F {
        Fraction::new(n, d).unwrap()
    }

    #[test]
    fn fraction_dense_label_basics() {
        assert_eq!(F::least(), f(0, 1));
        assert_eq!(F::greatest(), f(1, 1));
        assert!(F::least() < F::greatest());
        assert_eq!(F::between(&f(1, 2), &f(2, 3)).unwrap(), f(3, 5));
        assert!(F::between(&f(2, 3), &f(1, 2)).is_none());
        assert_eq!(f(1, 2).next_up().unwrap(), f(2, 3));
        assert!(F::greatest().next_up().is_none());
    }

    #[test]
    fn farey_fraction_splits_simpler() {
        type G = FareyFraction<u32>;
        let lo = FareyFraction(f(1, 3));
        let hi = FareyFraction(f(1, 2));
        // Mediant would give 2/5; simplest in (1/3, 1/2) is also 2/5.
        assert_eq!(G::between(&lo, &hi).unwrap().0, f(2, 5));
        // But for (2/7, 1/3): mediant 3/10 = simplest 3/10; deeper case:
        let lo = FareyFraction(f(4, 9));
        let hi = FareyFraction(f(5, 9));
        // Mediant = 9/18 = 1/2 unreduced; Farey gives 1/2 reduced.
        let g = G::between(&lo, &hi).unwrap();
        assert_eq!(g.0.num(), 1);
        assert_eq!(g.0.den(), 2);
    }

    #[test]
    fn sbpath_is_a_dense_label() {
        let a = SbPath::least();
        let b = SbPath::greatest();
        let m = SbPath::between(&a, &b).unwrap();
        assert!(a.lt(&m) && m.lt(&b));
        assert!(m.next_up().is_some());
    }

    #[test]
    fn example1_initial_labeling() {
        // Fig. 1: T=0/1 replies; A..E relabel to 1/2, 2/3, 3/4, 4/5, 5/6.
        let mut adv = f(0, 1);
        let mut labels = Vec::new();
        for _ in 0..5 {
            let own = F::greatest();
            let cached = F::greatest(); // request carried 1/1
            let g = choose_label(&own, &cached, &adv, &F::least()).unwrap();
            labels.push(g);
            adv = g;
        }
        assert_eq!(labels, vec![f(1, 2), f(2, 3), f(3, 4), f(4, 5), f(5, 6)]);
    }

    #[test]
    fn example2_relabeling() {
        // Fig. 2: A replies with 1/2. B (label 2/3, cached M=2/3) splits to
        // 3/5; F (label 2/3, cached M=2/3) splits to 5/8; G and H keep
        // their labels.
        let least = F::least();

        // Node B: own 2/3, cached 2/3, adv 1/2, successors empty.
        let g_b = choose_label(&f(2, 3), &f(2, 3), &f(1, 2), &least).unwrap();
        assert_eq!(g_b, f(3, 5));

        // Node F: own 2/3, cached 2/3 (G relayed min(2/3, 3/4)), adv 3/5.
        let g_f = choose_label(&f(2, 3), &f(2, 3), &f(3, 5), &least).unwrap();
        assert_eq!(g_f, f(5, 8));

        // Node G: own 2/3, cached 3/4 (from H), adv 5/8 → keeps 2/3.
        let g_g = choose_label(&f(2, 3), &f(3, 4), &f(5, 8), &least).unwrap();
        assert_eq!(g_g, f(2, 3));

        // Node H: own 3/4, cached ∞ (it originated), adv 2/3 → keeps 3/4.
        let g_h = choose_label(&f(3, 4), &F::greatest(), &f(2, 3), &least).unwrap();
        assert_eq!(g_h, f(3, 4));
    }

    #[test]
    fn choose_label_none_when_interval_empty() {
        // own == adv: no label strictly between can also be <= own.
        let r = choose_label(&f(1, 2), &f(1, 2), &f(1, 2), &F::least());
        assert!(r.is_none());
    }

    #[test]
    fn choose_label_respects_smax() {
        // s_max above the only viable interval forces None.
        let r = choose_label(&f(1, 2), &f(2, 3), &f(1, 3), &f(1, 2));
        assert!(r.is_none(), "got {r:?}");
        // With a low s_max the same call succeeds.
        let r = choose_label(&f(1, 2), &f(2, 3), &f(1, 3), &f(1, 4)).unwrap();
        assert!(f(1, 3) < r && r <= f(1, 2));
    }
}
