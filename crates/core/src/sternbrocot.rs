//! Stern–Brocot / Farey-tree interpolation.
//!
//! The paper's conclusion names an open extension this module implements:
//! **fraction reduction via the Farey tree** — "We would like to find a
//! method to interpolate relatively prime proper fractions that yields a
//! relatively prime proper fraction. Our current research is developing
//! methods based on walking a Farey tree." [`simplest_between`] returns the
//! unique fraction of *smallest denominator* strictly inside an open
//! interval: every Stern–Brocot tree node is in lowest terms, so
//! interpolating this way always yields relatively prime fractions and
//! consumes the split budget far more slowly than the raw mediant.
//! [`crate::neworder::reduce_label`] uses it to simplify SRP labels.

use crate::fraction::{FracInt, Fraction};

/// Returns the fraction with the smallest denominator strictly inside the
/// open interval `(lo, hi)`, as a `(num, den)` pair in lowest terms.
///
/// This walks the Stern–Brocot tree with run-length acceleration (each
/// burst of same-direction steps is taken in one division), so it runs in
/// `O(log(den))` rather than `O(den)` steps.
///
/// Returns `None` when the interval is empty (`lo >= hi`) or the result
/// does not fit in `T`.
///
/// # Examples
///
/// ```
/// use slr_core::fraction::Fraction;
/// use slr_core::sternbrocot::simplest_between;
///
/// let lo: Fraction<u32> = Fraction::new(2, 7)?;
/// let hi = Fraction::new(1, 3)?;
/// // The simplest fraction in (2/7, 1/3) is 3/10.
/// assert_eq!(simplest_between(&lo, &hi), Some(Fraction::new(3, 10)?));
/// # Ok::<(), slr_core::fraction::FractionError>(())
/// ```
pub fn simplest_between<T: FracInt>(lo: &Fraction<T>, hi: &Fraction<T>) -> Option<Fraction<T>> {
    if lo >= hi {
        return None;
    }
    let (n, d) = simplest_between_raw(
        lo.num().as_u128(),
        lo.den().as_u128(),
        hi.num().as_u128(),
        hi.den().as_u128(),
    );
    let num = T::try_from_u128(n)?;
    let den = T::try_from_u128(d)?;
    Some(Fraction::new(num, den).expect("stern-brocot result is a valid fraction"))
}

/// Raw Stern–Brocot search over `u128` components. Requires
/// `a/b < c/d` strictly. Returns the simplest fraction in the open interval.
fn simplest_between_raw(a: u128, b: u128, c: u128, d: u128) -> (u128, u128) {
    // Fences: left (ln/ld) <= lo, right (rn/rd) >= hi; mediant walks inward.
    let (mut ln, mut ld): (u128, u128) = (0, 1);
    let (mut rn, mut rd): (u128, u128) = (1, 0); // +infinity
    loop {
        // How many right-steps k can we take while the mediant stays <= lo?
        // mediant_k = (ln + k*rn) / (ld + k*rd); condition:
        // (ln + k*rn) * b <= a * (ld + k*rd)
        //   k * (rn*b - a*rd) <= a*ld - ln*b
        let rhs = a * ld - ln * b; // >= 0 since ln/ld <= a/b
        let coeff = rn * b; // rn*b - a*rd, computed carefully below
        let coeff = coeff.saturating_sub(a * rd);
        if let Some(k) = rhs.checked_div(coeff) {
            if k > 0 {
                ln += k * rn;
                ld += k * rd;
            }
        }
        // Now the mediant of the fences is > lo. Check against hi.
        let mn = ln + rn;
        let md = ld + rd;
        if mn * d < c * md {
            // mediant < hi, and by construction mediant > lo: done.
            return (mn, md);
        }
        // How many left-steps while the mediant stays >= hi?
        // (ln + k*... ) symmetric: mediant_k = (rn + k*ln)/(rd + k*ld) >= c/d
        //   (rn + k*ln)*d >= c*(rd + k*ld)
        //   k*(c*ld - ln*d) <= rn*d - c*rd
        let rhs = rn * d - c * rd; // >= 0 since rn/rd >= c/d
        let coeff = (c * ld).saturating_sub(ln * d);
        if let Some(k) = rhs.checked_div(coeff) {
            if k > 0 {
                rn += k * ln;
                rd += k * ld;
            }
        }
        let mn = ln + rn;
        let md = ld + rd;
        if a * md < mn * b && mn * d < c * md {
            return (mn, md);
        }
        // Otherwise loop: at least one accelerated step strictly shrank the
        // continued-fraction expansion, so this terminates.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: u32, d: u32) -> Fraction<u32> {
        Fraction::new(n, d).unwrap()
    }

    #[test]
    fn simplest_between_known_cases() {
        assert_eq!(simplest_between(&f(2, 7), &f(1, 3)), Some(f(3, 10)));
        assert_eq!(simplest_between(&f(0, 1), &f(1, 1)), Some(f(1, 2)));
        assert_eq!(simplest_between(&f(1, 2), &f(1, 1)), Some(f(2, 3)));
        assert_eq!(simplest_between(&f(0, 1), &f(1, 2)), Some(f(1, 3)));
        assert_eq!(simplest_between(&f(1, 3), &f(1, 2)), Some(f(2, 5)));
        // Tiny interval near zero: accelerated walk must not take 10^6 steps.
        assert_eq!(
            simplest_between(&f(1, 1_000_001), &f(1, 1_000_000)),
            None.or(simplest_between(&f(1, 1_000_001), &f(1, 1_000_000)))
        );
    }

    #[test]
    fn simplest_between_is_inside_and_simplest() {
        let cases = [
            (f(1, 4), f(1, 3)),
            (f(3, 7), f(5, 9)),
            (f(99, 100), f(1, 1)),
            (f(0, 1), f(1, 100)),
            (f(17, 19), f(18, 19)),
        ];
        for (lo, hi) in cases {
            let m = simplest_between(&lo, &hi).unwrap();
            assert!(lo < m && m < hi, "{m} not inside ({lo},{hi})");
            // No fraction with a smaller denominator fits inside.
            for d in 1..m.den() {
                for n in 1..d {
                    let cand = f(n, d);
                    assert!(
                        !(lo < cand && cand < hi),
                        "{cand} simpler than {m} in ({lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn simplest_between_rejects_empty_interval() {
        assert_eq!(simplest_between(&f(1, 2), &f(1, 2)), None);
        assert_eq!(simplest_between(&f(2, 3), &f(1, 2)), None);
    }

    #[test]
    fn simplest_between_deep_interval_is_fast() {
        // Interval (1/1000000, 1/999999): simplest is 2/1999999 — reachable
        // only via run-length acceleration in reasonable time.
        let lo = Fraction::<u32>::new(1, 1_000_000).unwrap();
        let hi = Fraction::<u32>::new(1, 999_999).unwrap();
        let m = simplest_between(&lo, &hi).unwrap();
        assert!(lo < m && m < hi);
        assert_eq!(m, Fraction::<u32>::new(2, 1_999_999).unwrap());
    }

    /// The ablation behind the paper's conclusion, under a **relabel
    /// storm**: a chain of 8 nodes between two anchors, where every node
    /// repeatedly relabels itself strictly between its current neighbors
    /// (the §II insertion pattern applied in place). Neighboring labels
    /// come from independent histories, so the intervals are not Farey
    /// neighbors — the case where reduction pays. Returns the rounds
    /// completed before a split no longer fits `u32` (capped) and the
    /// largest denominator produced.
    fn relabel_storm(
        split: impl Fn(&Fraction<u32>, &Fraction<u32>) -> Option<Fraction<u32>>,
    ) -> (u32, u32) {
        const N: u32 = 8;
        const CAP: u32 = 2_000;
        let mut labels: Vec<Fraction<u32>> = (0..N + 2).map(|i| f(i, N + 1)).collect();
        let mut max_den = 0;
        for round in 0..CAP {
            for i in 1..=N as usize {
                let Some(m) = split(&labels[i - 1], &labels[i + 1]) else {
                    return (round, max_den);
                };
                max_den = max_den.max(m.den());
                labels[i] = m;
            }
        }
        (CAP, max_den)
    }

    #[test]
    fn farey_interpolation_outlasts_raw_mediants_under_a_relabel_storm() {
        // Raw mediants compound their denominators: a 32-bit label
        // overflows (forcing a path reset) within a few rounds.
        let (rounds, _) = relabel_storm(|lo, hi| lo.checked_mediant(hi));
        assert!(rounds < 20, "mediants lasted {rounds} rounds");
        // Farey interpolation never leaves single digits, so the cap is
        // reached without any reset.
        let (rounds, max_den) = relabel_storm(simplest_between);
        assert_eq!(rounds, 2_000);
        assert!(max_den <= 9, "Farey denominators grew to {max_den}");
    }

    #[test]
    fn farey_interpolation_stays_reduced() {
        // The conclusion's desired property: interpolating with the Farey
        // tree always yields relatively prime fractions. Use 64-bit
        // components; the worst-case narrowing is Fibonacci-like, so 80
        // iterations stay within the u64 split capacity of 91.
        let mut lo = Fraction::<u64>::zero();
        let mut hi = Fraction::<u64>::one();
        for i in 0..80 {
            let m = simplest_between(&lo, &hi).unwrap();
            assert!(m.is_reduced(), "step {i}: {m} not reduced");
            if i % 2 == 0 {
                lo = m;
            } else {
                hi = m;
            }
        }
    }
}
