//! Label interning: u32 handles for [`SplitLabel`]s in hot per-node state.
//!
//! At 100k nodes the engaged-calculation caches hold millions of
//! `SplitLabel32`s, yet the number of *distinct* orderings circulating in
//! a trial is small — floods carry the same few solicitation orderings to
//! every node they reach. An interner stores each distinct label once and
//! hands out a dense `u32` handle, shrinking hot cache entries and making
//! label equality a single integer compare.
//!
//! Interning is **numeric**: two labels that are numerically equal under
//! the paper's Definition 4 comparison (`1/2 == 2/4`) share one handle.
//! The index is a list of handles sorted by `(seqno, fd)`, where `fd`
//! compares by [`Fraction`](crate::Fraction)'s cross-multiplying `Ord`,
//! and a lookup is a binary search. Two labels compare `Equal` under that
//! order exactly when [`SplitLabel`]'s `Eq` holds, and no denominator is
//! ever zero, so the order is total and its equivalence classes are the
//! numeric ones. The first representation seen is the one stored, so
//! `get` returns a label numerically equal to — not necessarily
//! component-identical with — the interned one; hot structures that need
//! the exact components (a node's own label) keep the full `SplitLabel`.

use std::cmp::Ordering;

use crate::fraction::FracInt;
use crate::label::SplitLabel;

/// A handle into a [`LabelInterner`] (index of first insertion).
pub type LabelHandle = u32;

/// A per-node (or per-trial) table of distinct split labels.
///
/// # Examples
///
/// ```
/// use slr_core::{Fraction, LabelInterner, SplitLabel};
///
/// let mut it: LabelInterner<u32> = LabelInterner::new();
/// let a = it.intern(SplitLabel::new(1, Fraction::new(1, 2)?));
/// let b = it.intern(SplitLabel::new(1, Fraction::new(2, 4)?));
/// // Numeric equality survives interning: 1/2 and 2/4 share a handle.
/// assert_eq!(a, b);
/// assert_eq!(it.get(a), SplitLabel::new(1, Fraction::new(1, 2)?));
/// # Ok::<(), slr_core::FractionError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelInterner<T: FracInt> {
    /// Labels by handle, in first-insertion order.
    labels: Vec<SplitLabel<T>>,
    /// Every handle once, sorted by its label's `(seqno, fd)`.
    sorted: Vec<LabelHandle>,
}

/// The interner's total order: sequence number, then fraction value.
fn by_value<T: FracInt>(a: &SplitLabel<T>, b: &SplitLabel<T>) -> Ordering {
    a.seqno().cmp(&b.seqno()).then_with(|| a.fd().cmp(&b.fd()))
}

impl<T: FracInt> LabelInterner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        LabelInterner {
            labels: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Returns the handle for `label`, interning it on first sight.
    /// Numerically equal labels (Definition 4) map to the same handle.
    pub fn intern(&mut self, label: SplitLabel<T>) -> LabelHandle {
        let labels = &self.labels;
        match self
            .sorted
            .binary_search_by(|&h| by_value(&labels[h as usize], &label))
        {
            Ok(i) => self.sorted[i],
            Err(i) => {
                let h = self.labels.len() as LabelHandle;
                self.labels.push(label);
                self.sorted.insert(i, h);
                h
            }
        }
    }

    /// The label behind `handle` (the first representation interned).
    ///
    /// # Panics
    ///
    /// Panics if `handle` was not produced by this interner.
    pub fn get(&self, handle: LabelHandle) -> SplitLabel<T> {
        self.labels[handle as usize]
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Live heap bytes held by the interner (the label store and the
    /// sorted index; capacities, since the allocator holds capacity).
    pub fn mem_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<SplitLabel<T>>()
            + self.sorted.capacity() * std::mem::size_of::<LabelHandle>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraction::Fraction;
    use crate::label::SplitLabel32;

    fn l(sn: u64, n: u32, d: u32) -> SplitLabel32 {
        SplitLabel::new(sn, Fraction::new(n, d).unwrap())
    }

    #[test]
    fn roundtrip_and_dedup() {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        let a = it.intern(l(1, 1, 2));
        let b = it.intern(l(1, 1, 3));
        let a2 = it.intern(l(1, 1, 2));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(a), l(1, 1, 2));
        assert_eq!(it.get(b), l(1, 1, 3));
    }

    #[test]
    fn numeric_equality_shares_handles() {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        let a = it.intern(l(3, 1, 2));
        let b = it.intern(l(3, 2, 4));
        let c = it.intern(l(3, 500, 1000));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(it.len(), 1);
        // Different seqno must not collapse.
        let d = it.intern(l(4, 1, 2));
        assert_ne!(a, d);
    }

    #[test]
    fn unassigned_and_destination_are_distinct() {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        let u = it.intern(SplitLabel32::unassigned());
        let d = it.intern(SplitLabel32::destination(1));
        assert_ne!(u, d);
        assert!(it.get(u).is_unassigned());
    }

    #[test]
    fn mem_bytes_grows_with_contents() {
        let mut it: LabelInterner<u32> = LabelInterner::new();
        assert_eq!(it.mem_bytes(), 0);
        it.intern(l(1, 1, 2));
        assert!(it.mem_bytes() > 0);
    }
}
