//! Proper fractions with mediant interpolation.
//!
//! The paper's label set for SRP is built from proper fractions `m/n`
//! (`0 <= m <= n`, `n >= 1`) with the least element `0/1` and the greatest
//! element `1/1` (§II). Two operations matter:
//!
//! * the **mediant** `(m+p)/(n+q)` of `m/n < p/q`, which always lies strictly
//!   between them (Eq. 1) and is how SLR "splits" an interval to insert a
//!   node into an existing DAG, and
//! * the **next-element** `(m+1)/(n+1)`, the mediant with `1/1` (Eq. 2).
//!
//! Fractions are deliberately **not** reduced when splitting — the paper's
//! SRP circulates raw mediants (§VI notes reduction as future work; see
//! [`crate::sternbrocot::simplest_between`] for the Farey-tree reduction this
//! crate implements as that extension).
//!
//! Comparison, equality and hashing are **numeric** (cross-multiplication in
//! 128-bit), so `1/2 == 2/4`; the component pair is still observable through
//! [`Fraction::num`] / [`Fraction::den`].

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};

mod private {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Unsigned integer types usable as fraction components.
///
/// This trait is sealed: it is implemented for `u32` (the paper's practical
/// implementation, §III) and `u64` (twice the worst-case split capacity; see
/// [`worst_case_split_capacity`]) and cannot be implemented outside this
/// crate.
pub trait FracInt:
    private::Sealed + Copy + Eq + Ord + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The largest representable value.
    const MAX: Self;
    /// Number of bits in the representation.
    const BITS: u32;

    /// Checked addition, `None` on overflow.
    fn checked_add(self, rhs: Self) -> Option<Self>;
    /// Checked subtraction, `None` on underflow.
    fn checked_sub(self, rhs: Self) -> Option<Self>;
    /// Checked multiplication, `None` on overflow.
    fn checked_mul(self, rhs: Self) -> Option<Self>;
    /// Lossless widening to `u128` for overflow-free cross-multiplication.
    fn as_u128(self) -> u128;
    /// Narrowing from `u128`, `None` if the value does not fit.
    fn try_from_u128(v: u128) -> Option<Self>;
}

macro_rules! impl_frac_int {
    ($t:ty) => {
        impl FracInt for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MAX: Self = <$t>::MAX;
            const BITS: u32 = <$t>::BITS;

            #[inline]
            fn checked_add(self, rhs: Self) -> Option<Self> {
                <$t>::checked_add(self, rhs)
            }
            #[inline]
            fn checked_sub(self, rhs: Self) -> Option<Self> {
                <$t>::checked_sub(self, rhs)
            }
            #[inline]
            fn checked_mul(self, rhs: Self) -> Option<Self> {
                <$t>::checked_mul(self, rhs)
            }
            #[inline]
            fn as_u128(self) -> u128 {
                self as u128
            }
            #[inline]
            fn try_from_u128(v: u128) -> Option<Self> {
                <$t>::try_from(v).ok()
            }
        }
    };
}

impl_frac_int!(u32);
impl_frac_int!(u64);

/// Errors returned when constructing a [`Fraction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FractionError {
    /// The denominator was zero.
    ZeroDenominator,
    /// The numerator exceeded the denominator (`m > n`).
    Improper,
}

impl fmt::Display for FractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FractionError::ZeroDenominator => write!(f, "fraction denominator must be non-zero"),
            FractionError::Improper => {
                write!(f, "fraction numerator must not exceed its denominator")
            }
        }
    }
}

impl std::error::Error for FractionError {}

/// A fraction `m/n` with `0 <= m <= n` and `n >= 1`.
///
/// The value range is the closed interval `[0, 1]`: `0/1` is the paper's
/// least element (the destination's own feasible distance) and `1/1` the
/// greatest (an unassigned node). Values strictly inside `(0, 1)` are the
/// *proper fractions* the paper labels intermediate nodes with.
///
/// # Examples
///
/// ```
/// use slr_core::fraction::Fraction;
///
/// let half: Fraction<u32> = Fraction::new(1, 2)?;
/// let two_thirds = Fraction::new(2, 3)?;
/// // Eq. 1: the mediant lies strictly between its arguments.
/// let m = half.checked_mediant(&two_thirds).unwrap();
/// assert_eq!(m, Fraction::new(3, 5)?);
/// assert!(half < m && m < two_thirds);
/// # Ok::<(), slr_core::fraction::FractionError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Fraction<T: FracInt> {
    num: T,
    den: T,
}

/// The paper's 32-bit practical implementation (§III).
pub type Frac32 = Fraction<u32>;
/// A 64-bit variant with roughly double the worst-case split capacity.
pub type Frac64 = Fraction<u64>;

impl<T: FracInt> Fraction<T> {
    /// Creates the fraction `num/den`.
    ///
    /// # Errors
    ///
    /// Returns [`FractionError::ZeroDenominator`] if `den == 0` and
    /// [`FractionError::Improper`] if `num > den`.
    pub fn new(num: T, den: T) -> Result<Self, FractionError> {
        if den == T::ZERO {
            return Err(FractionError::ZeroDenominator);
        }
        if num > den {
            return Err(FractionError::Improper);
        }
        Ok(Fraction { num, den })
    }

    /// The least element `0/1` (the destination's feasible distance).
    pub fn zero() -> Self {
        Fraction {
            num: T::ZERO,
            den: T::ONE,
        }
    }

    /// The greatest element `1/1` (an unassigned node).
    pub fn one() -> Self {
        Fraction {
            num: T::ONE,
            den: T::ONE,
        }
    }

    /// The numerator component.
    pub fn num(&self) -> T {
        self.num
    }

    /// The denominator component.
    pub fn den(&self) -> T {
        self.den
    }

    /// Whether the value equals zero (`m == 0`).
    pub fn is_zero(&self) -> bool {
        self.num == T::ZERO
    }

    /// Whether the value equals one (`m == n`), i.e. the greatest element.
    pub fn is_one(&self) -> bool {
        self.num == self.den
    }

    /// Numeric comparison by 128-bit cross-multiplication (Definition 4):
    /// `m/n < p/q` iff `m·q < n·p`.
    pub fn cmp_value(&self, other: &Self) -> Ordering {
        let lhs = self.num.as_u128() * other.den.as_u128();
        let rhs = other.num.as_u128() * self.den.as_u128();
        lhs.cmp(&rhs)
    }

    /// The mediant `(m+p)/(n+q)` of `self` and `other` (Eq. 1).
    ///
    /// Returns `None` if either component addition overflows `T` — the
    /// condition SRP's Eq. 11 calls an "F overflow", which forces a path
    /// reset request.
    pub fn checked_mediant(&self, other: &Self) -> Option<Self> {
        let num = self.num.checked_add(other.num)?;
        let den = self.den.checked_add(other.den)?;
        debug_assert!(num <= den);
        Some(Fraction { num, den })
    }

    /// Whether taking the mediant of `self` and `other` would overflow `T`.
    ///
    /// SRP's relay rule (Eq. 11) tests exactly this (`n + q` overflowing)
    /// to decide whether to set the reset-required T bit.
    pub fn mediant_overflows(&self, other: &Self) -> bool {
        self.den.checked_add(other.den).is_none() || self.num.checked_add(other.num).is_none()
    }

    /// The next-element `(m+1)/(n+1)`, the mediant with `1/1` (Eq. 2).
    ///
    /// Returns `None` for the greatest element `1/1` (which the paper
    /// defines as not being the next-element of anything and having none),
    /// or on component overflow.
    pub fn next_element(&self) -> Option<Self> {
        if self.is_one() {
            return None;
        }
        self.checked_mediant(&Self::one())
    }

    /// The numeric value as `f64` (lossy; for display and diagnostics only).
    pub fn value(&self) -> f64 {
        self.num.as_u128() as f64 / self.den.as_u128() as f64
    }

    /// Whether the fraction is in lowest terms (`gcd(m, n) == 1`). Every
    /// fraction has `n >= 1`, so `0/1` and `1/1` are the reduced endpoints.
    pub fn is_reduced(&self) -> bool {
        gcd_u128(self.num.as_u128(), self.den.as_u128()) == 1
    }

    /// The fraction reduced to lowest terms.
    ///
    /// SRP as specified never reduces (§VI); this is provided for hashing,
    /// diagnostics and the Farey-reduction extension.
    pub fn reduced(&self) -> Self {
        let g = gcd_u128(self.num.as_u128(), self.den.as_u128());
        if g <= 1 {
            return *self;
        }
        // Division by a common divisor cannot fail to fit.
        let num = T::try_from_u128(self.num.as_u128() / g).expect("reduced numerator fits");
        let den = T::try_from_u128(self.den.as_u128() / g).expect("reduced denominator fits");
        Fraction { num, den }
    }

    /// The "lying" RREQ ordering heuristic from §V: a node advertising a
    /// solicitation understates its fraction so only strictly better nodes
    /// reply. For `p/q` with `p >= 2` this is `(p-1)/(q-1)`; for `p == 1`
    /// the fraction is first scaled by `k` giving `(k-1)/(k·q - 1)` (the
    /// paper used `k = 10000`).
    ///
    /// Returns `self` unchanged for `0/1` (a destination never lies about
    /// itself) and `None` only if the `k` scaling overflows.
    pub fn lie_down(&self, k: u64) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        if self.is_one() {
            // Unassigned labels are flagged with the U bit instead of lying.
            return Some(*self);
        }
        let one = T::ONE;
        if self.num > one {
            let num = self.num.checked_sub(one)?;
            let den = self.den.checked_sub(one)?;
            return Some(Fraction { num, den });
        }
        // num == 1: scale both components by k, then subtract one.
        let k = T::try_from_u128(k as u128)?;
        let num = self.num.checked_mul(k)?.checked_sub(one)?;
        let den = self.den.checked_mul(k)?.checked_sub(one)?;
        Some(Fraction { num, den })
    }
}

impl<T: FracInt> PartialEq for Fraction<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_value(other) == Ordering::Equal
    }
}

impl<T: FracInt> Eq for Fraction<T> {}

impl<T: FracInt> PartialOrd for Fraction<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: FracInt> Ord for Fraction<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
}

impl<T: FracInt> Hash for Fraction<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the reduced form so numerically-equal fractions hash equally.
        let r = self.reduced();
        r.num.as_u128().hash(state);
        r.den.as_u128().hash(state);
    }
}

impl<T: FracInt> fmt::Debug for Fraction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl<T: FracInt> fmt::Display for Fraction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl<T: FracInt> Default for Fraction<T> {
    /// The default is the greatest element `1/1` (an unassigned label).
    fn default() -> Self {
        Self::one()
    }
}

/// Greatest common divisor (Euclid, 128-bit).
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Worst-case number of consecutive mediant splits representable in `T`.
///
/// Repeatedly splitting between the latest mediant and the nearer endpoint
/// produces Fibonacci denominators, the fastest-growing case. The paper
/// computes the bound 45 for 32-bit components ("this scheme can mask at
/// least 45 ordering violations along a path"); for `u64` it is 91.
///
/// # Examples
///
/// ```
/// assert_eq!(slr_core::fraction::worst_case_split_capacity::<u32>(), 45);
/// assert_eq!(slr_core::fraction::worst_case_split_capacity::<u64>(), 91);
/// ```
pub fn worst_case_split_capacity<T: FracInt>() -> u32 {
    let max = T::MAX.as_u128();
    let (mut a, mut b): (u128, u128) = (1, 1);
    let mut k = 0u32;
    loop {
        let c = a + b;
        if c > max {
            return k;
        }
        a = b;
        b = c;
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: u32, d: u32) -> Frac32 {
        Fraction::new(n, d).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Fraction::<u32>::new(1, 0).is_err());
        assert_eq!(
            Fraction::<u32>::new(3, 2).unwrap_err(),
            FractionError::Improper
        );
        assert!(Fraction::<u32>::new(0, 1).is_ok());
        assert!(Fraction::<u32>::new(1, 1).is_ok());
        assert!(Fraction::<u32>::new(7, 7).is_ok());
    }

    #[test]
    fn zero_and_one() {
        assert!(Frac32::zero().is_zero());
        assert!(Frac32::one().is_one());
    }

    #[test]
    fn numeric_equality() {
        assert_eq!(f(1, 2), f(2, 4));
        assert_eq!(f(3, 9), f(1, 3));
        assert_ne!(f(1, 2), f(2, 3));
        assert_eq!(f(7, 7), Frac32::one());
    }

    #[test]
    fn ordering_by_cross_multiplication() {
        assert!(f(1, 3) < f(1, 2));
        assert!(f(2, 3) > f(1, 2));
        assert!(Frac32::zero() < f(1, 1000000));
        assert!(f(999999, 1000000) < Frac32::one());
    }

    #[test]
    fn mediant_lies_strictly_between() {
        // Eq. 1 of the paper.
        let a = f(1, 2);
        let b = f(2, 3);
        let m = a.checked_mediant(&b).unwrap();
        assert_eq!(m, f(3, 5));
        assert!(a < m && m < b);
    }

    #[test]
    fn mediant_of_endpoints_is_one_half() {
        let m = Frac32::zero().checked_mediant(&Frac32::one()).unwrap();
        assert_eq!(m, f(1, 2));
    }

    #[test]
    fn next_element_matches_eq2() {
        assert_eq!(f(1, 2).next_element().unwrap(), f(2, 3));
        assert_eq!(f(2, 3).next_element().unwrap(), f(3, 4));
        assert_eq!(Frac32::zero().next_element().unwrap(), f(1, 2));
        assert!(Frac32::one().next_element().is_none());
    }

    #[test]
    fn next_element_is_strictly_greater() {
        let cases = [f(0, 1), f(1, 2), f(3, 7), f(999, 1000)];
        for c in cases {
            let n = c.next_element().unwrap();
            assert!(c < n, "{c} !< {n}");
        }
    }

    #[test]
    fn mediant_overflow_detection() {
        let near_max = Fraction::<u32>::new(u32::MAX - 1, u32::MAX).unwrap();
        assert!(near_max.mediant_overflows(&near_max));
        assert!(near_max.checked_mediant(&near_max).is_none());
        assert!(!f(1, 2).mediant_overflows(&f(1, 3)));
    }

    #[test]
    fn reduction() {
        assert_eq!(f(2, 4).reduced().num(), 1);
        assert_eq!(f(2, 4).reduced().den(), 2);
        assert_eq!(f(3, 5).reduced().num(), 3);
        assert_eq!(Frac32::zero().reduced(), Frac32::zero());
        assert!(!f(2, 4).is_reduced() && f(2, 4).reduced().is_reduced());
        assert!(f(3, 5).is_reduced());
        assert!(Frac32::zero().is_reduced() && Frac32::one().is_reduced());
        assert!(!f(0, 2).is_reduced() && !f(7, 7).is_reduced());
    }

    #[test]
    fn fibonacci_split_capacity_matches_paper() {
        // §III: "The least upper bound ... in a 32-bit unsigned integer is
        // found from the Fibonacci sequence to be 45 times."
        assert_eq!(worst_case_split_capacity::<u32>(), 45);
        assert_eq!(worst_case_split_capacity::<u64>(), 91);
    }

    #[test]
    fn worst_case_split_sequence_overflows_exactly_at_capacity() {
        // The worst case splits between the two most recent labels, which
        // grows denominators as Fibonacci numbers (the paper's bound of 45
        // for 32-bit components).
        let mut a = Frac32::zero();
        let mut b = Frac32::one();
        let mut fib_splits = 0u32;
        while let Some(m) = a.checked_mediant(&b) {
            a = b;
            b = m;
            fib_splits += 1;
        }
        assert_eq!(fib_splits, worst_case_split_capacity::<u32>());
    }

    #[test]
    fn lie_heuristic() {
        // p >= 2: subtract one from both components.
        assert_eq!(f(3, 4).lie_down(10_000).unwrap(), f(2, 3));
        assert!(f(3, 4).lie_down(10_000).unwrap() < f(3, 4));
        // p == 1: scale by k first.
        let lied = f(1, 2).lie_down(10_000).unwrap();
        assert_eq!(lied, f(9_999, 19_999));
        assert!(lied < f(1, 2));
        // Degenerate labels pass through unchanged.
        assert_eq!(Frac32::zero().lie_down(10_000).unwrap(), Frac32::zero());
        assert_eq!(Frac32::one().lie_down(10_000).unwrap(), Frac32::one());
    }

    #[test]
    fn display_formats() {
        assert_eq!(f(3, 5).to_string(), "3/5");
        assert_eq!(format!("{:?}", f(3, 5)), "3/5");
    }

    #[test]
    fn hash_consistent_with_numeric_eq() {
        use std::collections::hash_map::DefaultHasher;
        fn h(x: &Frac32) -> u64 {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&f(1, 2)), h(&f(2, 4)));
        assert_eq!(h(&f(3, 9)), h(&f(1, 3)));
    }

    #[test]
    fn value_approximation() {
        assert!((f(1, 2).value() - 0.5).abs() < 1e-12);
        assert!((f(2, 3).value() - 0.666_666).abs() < 1e-3);
    }

    #[test]
    fn default_is_unassigned() {
        assert!(Frac32::default().is_one());
    }
}
