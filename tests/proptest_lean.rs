//! Property tests for the memory-lean label machinery: interning and
//! Farey reduction.
//!
//! The lean profile keeps `u32` interner handles in hot per-node caches
//! and reduces raw-mediant fractions to the simplest Definition 1
//! equivalent. Both are safe only if (a) handles round-trip to
//! numerically equal labels, with Definition 4 numeric equality
//! (`1/2 == 2/4`) surviving the indirection, and (b) reduction never
//! reorders a successor set — the reduced label must satisfy exactly the
//! Definition 1 inequalities the raw mediant did, against the advertiser,
//! the node's own and cached labels, and every installed successor.

use std::collections::HashMap;

use proptest::prelude::*;

use slr_core::sternbrocot::simplest_between;
use slr_core::{
    maintains_order, reduce_label, Fraction, LabelHandle, LabelInterner, SplitLabel, SplitLabel32,
};

/// A proper fraction `n/d` with `0 < n < d`.
fn frac(n: u32, d: u32) -> Fraction<u32> {
    Fraction::new(n, d).expect("strategy yields proper fractions")
}

/// `n/d` with `0 <= n <= d`, zero numerators and `d/d` included.
fn frac_or_zero(n: u32, d: u32) -> Fraction<u32> {
    Fraction::new(n, d).expect("0 <= n <= d and d > 0")
}

/// Strategy: a proper fraction with denominator up to `max_den`.
fn any_frac(max_den: u32) -> impl Strategy<Value = Fraction<u32>> {
    (2..=max_den).prop_flat_map(|d| (1..d).prop_map(move |n| frac(n, d)))
}

/// The hash-indexed interner the sorted one replaced, kept as the
/// differential reference: a `HashMap` keyed by `SplitLabel`'s numeric
/// `Eq`/`Hash`, storing the first representation seen.
#[derive(Default)]
struct HashInterner {
    labels: Vec<SplitLabel32>,
    index: HashMap<SplitLabel32, LabelHandle>,
}

impl HashInterner {
    fn intern(&mut self, label: SplitLabel32) -> LabelHandle {
        if let Some(&h) = self.index.get(&label) {
            return h;
        }
        let h = self.labels.len() as LabelHandle;
        self.labels.push(label);
        self.index.insert(label, h);
        h
    }
}

proptest! {
    /// The sorted interner is observably the hash-indexed one: on label
    /// streams dense in numerically equal twins (`1/2`, `2/4`,
    /// `500/1000`), destination zeros (`0/1`, `0/3`) and repeated and
    /// distinct seqnos, both hand out the same handles in the same order,
    /// agree on `len()`, and `get()` returns the same first-seen
    /// components.
    #[test]
    fn sorted_interner_matches_hash_interner(
        stream in proptest::collection::vec((0u64..6, 1u32..40, 0u32..40, 1u32..600, 0u32..3), 1..200),
    ) {
        let mut sorted: LabelInterner<u32> = LabelInterner::new();
        let mut reference = HashInterner::default();
        for &(sn, d, n, k, twin) in &stream {
            // `twin == 0` scales the fraction up: a non-reduced twin of
            // the plain `n/d` the other draws produce.
            let (n, d) = (n.min(d), d);
            let (n, d) = if twin == 0 { (n * k, d * k) } else { (n, d) };
            let label = SplitLabel::new(sn, frac_or_zero(n, d));
            let h = sorted.intern(label);
            prop_assert_eq!(h, reference.intern(label), "handles diverged at {:?}", label);
            prop_assert_eq!(sorted.len(), reference.labels.len());
        }
        for (h, want) in reference.labels.iter().enumerate() {
            let got = sorted.get(h as LabelHandle);
            prop_assert_eq!(got.seqno(), want.seqno());
            prop_assert_eq!(
                (got.fd().num(), got.fd().den()),
                (want.fd().num(), want.fd().den()),
                "handle {} lost its first-seen representation", h
            );
        }
    }

    /// Interned handles round-trip: `get(intern(l))` is numerically equal
    /// to `l`, and re-interning yields the same handle.
    #[test]
    fn interned_handles_round_trip(
        labels in proptest::collection::vec((0u64..50, any_frac(1000)), 1..40),
    ) {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        let handles: Vec<_> = labels
            .iter()
            .map(|&(sn, f)| it.intern(SplitLabel::new(sn, f)))
            .collect();
        for (&(sn, f), &h) in labels.iter().zip(&handles) {
            let l = SplitLabel32::new(sn, f);
            prop_assert_eq!(it.get(h), l, "round-trip changed the label");
            prop_assert_eq!(it.intern(l), h, "re-intern changed the handle");
        }
        prop_assert!(it.len() <= labels.len());
    }

    /// Definition 4 numeric equality survives interning: `k·n / k·d`
    /// shares the handle of `n/d` at the same seqno, and distinct
    /// seqnos never collapse.
    #[test]
    fn numeric_equality_survives_interning(
        sn in 0u64..50,
        f in any_frac(1000),
        k in 1u32..40,
    ) {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        let a = it.intern(SplitLabel::new(sn, f));
        let scaled = frac(f.num() * k, f.den() * k);
        prop_assert_eq!(it.intern(SplitLabel::new(sn, scaled)), a, "1/2 == 2/4 must share a handle");
        prop_assert_eq!(it.len(), 1);
        let b = it.intern(SplitLabel::new(sn + 1, f));
        prop_assert!(a != b, "different seqno must not collapse");
    }

    /// `simplest_between` stays strictly inside its open interval and
    /// never returns a more complex fraction than the raw mediant — the
    /// primitive fact the reduction leans on.
    #[test]
    fn simplest_between_stays_inside_interval(
        a in any_frac(100_000),
        b in any_frac(100_000),
    ) {
        prop_assume!(a != b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if let Some(r) = simplest_between(&lo, &hi) {
            prop_assert!(lo < r && r < hi, "{r:?} escaped ({lo:?}, {hi:?})");
            if let Some(m) = lo.checked_mediant(&hi) {
                prop_assert!(r.den() <= m.den(), "simplest beat by the mediant");
            }
        }
    }

    /// Farey reduction preserves Definition 1 order in every successor
    /// set: when `reduce_label` accepts a reduced fraction for the raw
    /// mediant `g`, the result still maintains order against the
    /// advertiser and the node's own/cached labels, stays strictly above
    /// every installed successor's same-seqno fraction (so the successor
    /// set's order is untouched), and is strictly simpler than `g`.
    #[test]
    fn reduction_never_reorders_a_successor_set(
        sn in 0u64..50,
        a in any_frac(100_000),
        b in any_frac(100_000),
        succ_dens in proptest::collection::vec(2u32..100_000, 0..10),
    ) {
        prop_assume!(a != b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let Some(mediant) = lo.checked_mediant(&hi) else {
            return Ok(());
        };
        // The raw-mediant adoption the engine would make: advertiser
        // below, own/cached above, all at one seqno (Eqs. 3–5).
        let g = SplitLabel32::new(sn, mediant);
        let adv = SplitLabel32::new(sn, lo);
        let own = SplitLabel32::new(sn, hi);
        let cached = own;
        // Installed successors: same-seqno fractions at or below the
        // advertiser's (Eq. 6 floor = their maximum).
        let succs: Vec<Fraction<u32>> = succ_dens
            .iter()
            .map(|&d| {
                let s = frac(1, d);
                if s < lo {
                    s
                } else {
                    lo
                }
            })
            .collect();
        let floor = succs.iter().copied().max();

        if let Some(r) = reduce_label(&g, &own, &cached, &adv, floor) {
            prop_assert_eq!(r.seqno(), sn, "reduction must not touch the seqno");
            prop_assert!(
                maintains_order(&r, &own, &cached, &adv, None),
                "reduced label broke Definition 1: {r:?}"
            );
            prop_assert!(
                r.fd().den() < g.fd().den(),
                "reduction must be strictly simpler"
            );
            for s in &succs {
                prop_assert!(
                    *s < r.fd(),
                    "successor {s:?} no longer precedes the reduced {r:?}"
                );
            }
        }
        // Whether or not reduction fired, the raw mediant itself orders
        // correctly — the baseline the reduced label must match.
        prop_assert!(maintains_order(&g, &own, &cached, &adv, None));
    }
}
