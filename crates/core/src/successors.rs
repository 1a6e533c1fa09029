//! Per-destination successor tables (the set `S_i` of §II and `S_A^T` of
//! §III).
//!
//! SLR is inherently multi-path: a node may keep any set of successors whose
//! recorded advertisement orderings are all strictly below its own label.
//! The table records, per successor, the ordering carried by the
//! advertisement that created the link, the measured distance and when the
//! successor was last confirmed, supports
//! the maximum-successor query (`S_max`, the strict lower bound for the
//! node's own label, Eq. 6), and implements line 13 of Algorithm 1 —
//! eliminating successors that would be out of order under a proposed new
//! label.

use crate::fraction::FracInt;
use crate::label::SplitLabel;

/// One successor record: everything a node keeps about one (destination,
/// neighbor) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessorEntry<K, T: FracInt> {
    /// The successor (next-hop neighbor).
    pub neighbor: K,
    /// The ordering `O_?^T` advertised when this successor was installed.
    pub label: SplitLabel<T>,
    /// Measured distance (cumulative link cost) via this successor. With
    /// unit link costs this is a hop count. Not used for loop-freedom —
    /// only for multi-path successor choice (§II).
    pub distance: u32,
    /// When this successor was last confirmed — the advertisement or
    /// data-plane use that vouched for the recorded ordering — in the
    /// caller's clock.
    ///
    /// A recorded ordering is only evidence about the neighbor's label
    /// while the neighbor could not yet have invalidated *and forgotten*
    /// it. A routing protocol therefore prunes an entry unconfirmed for
    /// ROUTE_LIFETIME, and DELETE_PERIOD > ROUTE_LIFETIME guarantees every
    /// stale entry pointing at a node dies before that node may restart
    /// its label (Definition 3). A per-destination expiry refreshed by
    /// *any* advertisement or use for the destination would keep
    /// individual stale entries alive forever, and a neighbor that forgot
    /// and re-adopted a regressed label at the same sequence number would
    /// close a successor cycle the per-node order checks cannot see.
    pub confirmed: u64,
}

/// The successor set `S_i` for one destination, keyed by neighbor id.
///
/// # Examples
///
/// ```
/// use slr_core::{Fraction, SplitLabel, SuccessorTable};
///
/// let mut s: SuccessorTable<u64, u32> = SuccessorTable::new();
/// s.insert(7, SplitLabel::new(1, Fraction::new(1, 3)?), 2, 0);
/// s.insert(9, SplitLabel::new(1, Fraction::new(1, 2)?), 3, 0);
/// // S_max is the successor ordering *highest* in the DAG (largest label).
/// assert_eq!(s.max_label().unwrap(), SplitLabel::new(1, Fraction::new(1, 2)?));
/// // The best (min-hop) successor is node 7.
/// assert_eq!(s.best_successor().unwrap().neighbor, 7);
/// # Ok::<(), slr_core::FractionError>(())
/// ```
/// Backed by one `Vec` sorted by neighbor rather than a `BTreeMap`: a
/// node's successor set for one destination holds a handful of entries,
/// and at 100k+ nodes the tree's per-node allocations dominated the
/// table's payload. Most sets hold exactly one successor, so the first
/// insert reserves exactly one slot, and an emptied table (an invalidated
/// route) releases its storage. Iteration stays in ascending neighbor
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SuccessorTable<K: Ord + Copy, T: FracInt> {
    entries: Vec<SuccessorEntry<K, T>>,
}

impl<K: Ord + Copy, T: FracInt> SuccessorTable<K, T> {
    /// Creates an empty successor table (an *invalid* route, Definition 2).
    pub fn new() -> Self {
        SuccessorTable {
            entries: Vec::new(),
        }
    }

    fn index_of(&self, neighbor: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.neighbor.cmp(neighbor))
    }

    /// Drops the storage of an emptied table.
    fn release_if_empty(&mut self) {
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
    }

    /// Whether the table is empty (the route is invalid, Definition 2).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of successors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Installs or refreshes a successor with the ordering its
    /// advertisement carried (`S_A^{T,B} ← O_?^T`, Procedure 3), confirmed
    /// at `confirmed`.
    pub fn insert(&mut self, neighbor: K, label: SplitLabel<T>, distance: u32, confirmed: u64) {
        let entry = SuccessorEntry {
            neighbor,
            label,
            distance,
            confirmed,
        };
        match self.index_of(&neighbor) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => {
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(1);
                }
                self.entries.insert(i, entry)
            }
        }
    }

    /// Re-confirms an installed successor at `at` (a data-plane use).
    /// No-op if `neighbor` is not a successor.
    pub fn confirm(&mut self, neighbor: &K, at: u64) {
        if let Ok(i) = self.index_of(neighbor) {
            self.entries[i].confirmed = at;
        }
    }

    /// Removes a successor (link break, RERR, or route timeout). Returns the
    /// removed entry if present.
    pub fn remove(&mut self, neighbor: &K) -> Option<SuccessorEntry<K, T>> {
        let i = self.index_of(neighbor).ok()?;
        let entry = self.entries.remove(i);
        self.release_if_empty();
        Some(entry)
    }

    /// Keeps only the successors for which `keep` holds.
    pub fn retain(&mut self, keep: impl FnMut(&SuccessorEntry<K, T>) -> bool) {
        self.entries.retain(keep);
        self.release_if_empty();
    }

    /// Clears all successors (invalidating the route) and releases the
    /// storage.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// Looks up a successor's entry.
    pub fn get(&self, neighbor: &K) -> Option<&SuccessorEntry<K, T>> {
        self.index_of(neighbor).ok().map(|i| &self.entries[i])
    }

    /// Whether `neighbor` is currently a successor.
    pub fn contains(&self, neighbor: &K) -> bool {
        self.index_of(neighbor).is_ok()
    }

    /// Iterates over the entries in neighbor order.
    pub fn iter(&self) -> impl Iterator<Item = &SuccessorEntry<K, T>> {
        self.entries.iter()
    }

    /// Live heap bytes held by this table (capacity, not length — the
    /// allocator holds capacity).
    pub fn mem_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<SuccessorEntry<K, T>>()
    }

    /// The maximum successor ordering `S_max` — the strict lower bound for
    /// this node's own label (Eq. 6). `None` when the table is empty (the
    /// paper then takes the least element, making Eq. 6 trivial).
    pub fn max_label(&self) -> Option<SplitLabel<T>> {
        let mut it = self.entries.iter();
        let first = it.next()?.label;
        Some(it.fold(first, |acc, e| SplitLabel::max_label(acc, e.label)))
    }

    /// The successor with minimum measured distance (ties broken by lowest
    /// neighbor id) — the simple min-hop uni-path choice from §III.
    pub fn best_successor(&self) -> Option<SuccessorEntry<K, T>> {
        self.entries
            .iter()
            .min_by_key(|e| (e.distance, e.neighbor))
            .copied()
    }

    /// Line 13 of Algorithm 1: eliminate any successor `i` whose recorded
    /// ordering is not strictly below a proposed label `g`
    /// (`G_A^T ⊀ S_A^{T,i}`).
    pub fn prune_out_of_order(&mut self, g: &SplitLabel<T>) {
        self.retain(|e| g.precedes(&e.label));
    }
}

impl<K: Ord + Copy, T: FracInt> Default for SuccessorTable<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fraction::Fraction;

    type Tbl = SuccessorTable<u32, u32>;

    fn l(sn: u64, n: u32, d: u32) -> SplitLabel<u32> {
        SplitLabel::new(sn, Fraction::new(n, d).unwrap())
    }

    #[test]
    fn empty_route_is_invalid() {
        let t = Tbl::new();
        assert!(t.is_empty());
        assert!(t.max_label().is_none());
        assert!(t.best_successor().is_none());
    }

    #[test]
    fn insert_and_query() {
        let mut t = Tbl::new();
        t.insert(1, l(1, 1, 3), 2, 0);
        t.insert(2, l(1, 1, 2), 4, 0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(&1));
        assert_eq!(t.get(&1).unwrap().distance, 2);
    }

    #[test]
    fn max_label_is_the_highest_successor() {
        let mut t = Tbl::new();
        t.insert(1, l(1, 1, 3), 2, 0); // fraction 1/3
        t.insert(2, l(1, 1, 2), 4, 0); // fraction 1/2 — higher in DAG
        t.insert(3, l(2, 2, 3), 1, 0); // seqno 2 — lower in DAG (fresher)
                                       // max picks the label *highest* in the DAG: seqno 1, fraction 1/2.
        assert_eq!(t.max_label().unwrap(), l(1, 1, 2));
    }

    #[test]
    fn best_successor_is_min_distance() {
        let mut t = Tbl::new();
        t.insert(5, l(1, 1, 3), 3, 0);
        t.insert(9, l(1, 1, 4), 1, 0);
        assert_eq!(t.best_successor().unwrap().neighbor, 9);
        // Tie on distance → lowest id.
        t.insert(2, l(1, 1, 5), 1, 0);
        assert_eq!(t.best_successor().unwrap().neighbor, 2);
    }

    #[test]
    fn prune_removes_out_of_order_successors() {
        let mut t = Tbl::new();
        t.insert(1, l(1, 1, 4), 2, 0); // 1/4 — fine below g = 1/3
        t.insert(2, l(1, 1, 2), 2, 0); // 1/2 — above g, must go
        t.insert(3, l(2, 3, 4), 2, 0); // fresher seqno — below g, stays
        let g = l(1, 1, 3);
        t.prune_out_of_order(&g);
        let left: Vec<u32> = t.iter().map(|e| e.neighbor).collect();
        assert_eq!(left, vec![1, 3]);
    }

    #[test]
    fn remove_and_clear() {
        let mut t = Tbl::new();
        t.insert(1, l(1, 1, 4), 2, 0);
        assert!(t.remove(&1).is_some());
        assert!(t.remove(&1).is_none());
        t.insert(2, l(1, 1, 4), 2, 0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn one_successor_occupies_one_slot() {
        let mut t = Tbl::new();
        assert_eq!(t.mem_bytes(), 0);
        t.insert(4, l(1, 1, 2), 1, 0);
        assert_eq!(
            t.mem_bytes(),
            std::mem::size_of::<SuccessorEntry<u32, u32>>()
        );
        // Growth past one slot stays amortised.
        t.insert(5, l(1, 1, 3), 1, 0);
        t.insert(6, l(1, 1, 4), 1, 0);
        assert_eq!(t.len(), 3);
        assert!(t.mem_bytes() >= 3 * std::mem::size_of::<SuccessorEntry<u32, u32>>());
    }

    #[test]
    fn emptied_table_releases_its_storage() {
        let mut t = Tbl::new();
        t.insert(1, l(1, 1, 4), 2, 0);
        t.insert(2, l(1, 1, 3), 2, 0);
        t.clear();
        assert_eq!(t.mem_bytes(), 0);
        t.insert(1, l(1, 1, 4), 2, 0);
        t.remove(&1);
        assert_eq!(t.mem_bytes(), 0);
        t.insert(1, l(1, 1, 4), 2, 0);
        t.retain(|_| false);
        assert_eq!(t.mem_bytes(), 0);
    }

    #[test]
    fn reinsert_updates_label_distance_and_stamp() {
        let mut t = Tbl::new();
        t.insert(3, l(1, 1, 4), 2, 10);
        t.insert(3, l(2, 1, 2), 5, 20);
        assert_eq!(t.len(), 1);
        let e = t.get(&3).unwrap();
        assert_eq!((e.label, e.distance, e.confirmed), (l(2, 1, 2), 5, 20));
        t.confirm(&3, 30);
        assert_eq!(t.get(&3).unwrap().confirmed, 30);
        // Confirming a non-successor installs nothing.
        t.confirm(&8, 30);
        assert!(!t.contains(&8));
    }
}
