//! Compact sorted-vector maps for per-node protocol state.
//!
//! At 100k+ nodes the dominant memory cost of the protocol layer is not
//! the entries themselves but the hash-map superstructure around them: a
//! `FastHashMap` holding two routes costs a full bucket array plus
//! per-entry control bytes, repeated once per node per table. A
//! [`VecMap`] stores the same entries in one sorted `Vec<(K, V)>` —
//! binary-search lookups, shift-insertions — which is strictly smaller
//! and, for the 0–8-entry tables a node actually holds, just as fast.
//!
//! The map iterates in ascending key order, which is *more* deterministic
//! than the hash-ordered iteration it replaces: callers that previously
//! collected keys and sorted them can rely on the order directly. Lookup,
//! insertion and removal semantics match `std::collections` maps.

/// A map backed by a single `Vec` of entries kept sorted by key.
///
/// Designed as a drop-in for the subset of the `HashMap` API the routing
/// engines use: `get`/`get_mut`/`insert`/`remove`/`contains_key`/
/// `entry().or_insert*`/`retain`/`keys`/`iter`/`values`. All iteration
/// is in ascending key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// An empty map (allocates nothing until the first insertion).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn index_of(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index_of(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.index_of(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index_of(key).is_ok()
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index_of(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Inserts a new entry at sorted position `i`. The first entry of an
    /// empty map reserves exactly one slot: most per-node tables hold one
    /// entry for their whole life, and `Vec`'s first growth would reserve
    /// four. Later growth stays amortised.
    fn insert_at(&mut self, i: usize, key: K, value: V) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(i, (key, value));
    }

    /// Removes and returns the value at `key`, if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.index_of(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Drops every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps only the entries for which `f` returns `true`.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Mutable `(key, value)` pairs in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// The `HashMap`-style entry API (the subset the engines use).
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.index_of(&key);
        Entry {
            map: self,
            key,
            slot,
        }
    }

    /// Live heap bytes held by this map (superstructure + entries).
    /// Counts `Vec` capacity, not length — capacity is what the
    /// allocator actually holds.
    pub fn mem_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// Releases surplus capacity (after a pruning sweep).
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }
}

/// A view into a single [`VecMap`] slot, occupied or vacant.
pub struct Entry<'a, K: Ord + Copy, V> {
    map: &'a mut VecMap<K, V>,
    key: K,
    slot: Result<usize, usize>,
}

impl<'a, K: Ord + Copy, V> Entry<'a, K, V> {
    /// Inserts `default` if vacant; returns the value either way.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `default()` if vacant; returns the value either way.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.map.insert_at(i, self.key, default());
                i
            }
        };
        &mut self.map.entries[i].1
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = VecMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: VecMap<u32, &str> = VecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "THREE"), Some("three"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&3), Some(&"THREE"));
        assert!(m.contains_key(&1) && !m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: VecMap<u64, u64> = VecMap::new();
        for k in [9, 2, 7, 0, 4] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 2, 4, 7, 9]);
        let pairs: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(0, 0), (2, 20), (4, 40), (7, 70), (9, 90)]);
    }

    #[test]
    fn entry_api_matches_hashmap_semantics() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        *m.entry(7).or_insert(0) += 1;
        *m.entry(7).or_insert(0) += 1;
        assert_eq!(m.get(&7), Some(&2));
        let v = m.entry(9).or_insert_with(|| 42);
        assert_eq!(*v, 42);
        *v += 1;
        assert_eq!(m.get(&9), Some(&43));
    }

    #[test]
    fn retain_prunes_in_place() {
        let mut m: VecMap<u32, u32> = (0..10u32).map(|k| (k, k)).collect();
        m.retain(|k, _| k % 3 == 0);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 3, 6, 9]);
    }

    #[test]
    fn one_entry_map_holds_one_slot() {
        let one = std::mem::size_of::<(u64, u32)>();
        let mut m: VecMap<u64, u32> = VecMap::new();
        m.insert(3, 30);
        assert_eq!(m.mem_bytes(), one);
        let mut e: VecMap<u64, u32> = VecMap::new();
        *e.entry(3).or_insert(0) += 1;
        assert_eq!(e.mem_bytes(), one);
        // Growth past the first entry stays amortised.
        m.insert(1, 10);
        assert!(m.mem_bytes() >= 2 * one);
    }

    #[test]
    fn mem_bytes_tracks_capacity() {
        let mut m: VecMap<u64, u64> = VecMap::new();
        assert_eq!(m.mem_bytes(), 0);
        m.insert(1, 1);
        assert!(m.mem_bytes() >= std::mem::size_of::<(u64, u64)>());
    }
}
