//! A fixed-capacity Chase–Lev work-stealing deque over `usize` payloads.
//!
//! The window pool (see [`crate::pool`]) hands a window's shards to its
//! threads through one of these, in the classic work-stealing shape: the
//! window's owner pushes and pops at the *bottom* of the deque (LIFO,
//! cache-warm), idle pool threads steal from the *top* (FIFO, oldest
//! shard first) — so the owner's fast path is uncontended and thieves
//! only synchronize on a single compare-exchange.
//!
//! This is the Chase–Lev algorithm (SPAA '05) with the Lê et al. (PPoPP
//! '13) memory orderings, restricted to what the engine needs:
//!
//! * payloads are plain `usize` shard indices stored in `AtomicUsize`
//!   cells, so the buffer needs no uninitialized memory and no `unsafe` —
//!   every cell access is an atomic load/store and the top CAS decides
//!   ownership of the value;
//! * capacity is fixed at construction (a window never has more shards
//!   than the pool has threads, which is known up front), so the growing
//!   path — the source of the algorithm's only hard memory-reclamation
//!   problem — is simply absent. `push` on a full deque reports failure
//!   and the caller runs the item inline.
//!
//! Determinism note: *which* thread executes a stolen shard is
//! nondeterministic, but the parallel engine's canonical merge keys every
//! side effect by shard index, not by executing thread, so steal order
//! cannot reach simulation output (the bit-identity proptests fuzz this).

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// A bounded single-owner, multi-thief work-stealing deque of `usize`.
///
/// The owner calls [`StealDeque::push`] / [`StealDeque::pop`]; any number
/// of other threads call [`StealDeque::steal`] concurrently. All three may
/// overlap freely.
pub struct StealDeque {
    buf: Box<[AtomicUsize]>,
    mask: usize,
    /// Steal end. Only ever incremented, via CAS, by whoever takes the
    /// oldest element (a thief, or the owner racing for the last one).
    top: AtomicI64,
    /// Owner end. Only the owner writes it.
    bottom: AtomicI64,
}

impl StealDeque {
    /// Creates a deque holding at most `capacity` items (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        StealDeque {
            buf: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Owner-only: appends `v` at the bottom. Returns `false` (rejecting
    /// the item) if the deque is full.
    pub fn push(&self, v: usize) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buf.len() as i64 {
            return false;
        }
        self.buf[(b as usize) & self.mask].store(v, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
        true
    }

    /// Owner-only: takes the most recently pushed item, racing thieves
    /// for the last one.
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = self.buf[(b as usize) & self.mask].load(Ordering::Relaxed);
        if t == b {
            // Single element left: win it from the thieves via the top
            // CAS or lose it to one of them.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(v);
        }
        Some(v)
    }

    /// Thief: takes the oldest item, or `None` if empty or lost a race
    /// (callers retry or move on; a lost race is not "empty").
    pub fn steal(&self) -> Option<usize> {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let v = self.buf[(t as usize) & self.mask].load(Ordering::Relaxed);
        // The CAS both claims the slot and validates `v`: a push can only
        // overwrite this physical cell after `top` has moved past `t`
        // (the full check in `push` orders it so), which makes this CAS
        // fail — so a successful CAS proves `v` was read intact.
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
            .then_some(v)
    }

    /// Racy emptiness hint for park/unpark heuristics; never used for
    /// correctness decisions.
    pub fn is_empty_hint(&self) -> bool {
        self.top.load(Ordering::Relaxed) >= self.bottom.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn owner_pushes_and_pops_lifo() {
        let d = StealDeque::new(8);
        for i in 0..5 {
            assert!(d.push(i));
        }
        for i in (0..5).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None, "pop on empty is repeatable");
    }

    #[test]
    fn steal_takes_oldest_first() {
        let d = StealDeque::new(8);
        for i in 10..14 {
            assert!(d.push(i));
        }
        assert_eq!(d.steal(), Some(10));
        assert_eq!(d.steal(), Some(11));
        assert_eq!(d.pop(), Some(13));
        assert_eq!(d.pop(), Some(12));
        assert_eq!(d.steal(), None);
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn push_rejects_when_full() {
        let d = StealDeque::new(2);
        assert_eq!(d.capacity(), 2);
        assert!(d.push(1));
        assert!(d.push(2));
        assert!(!d.push(3), "full deque must reject");
        assert_eq!(d.steal(), Some(1));
        assert!(d.push(3), "space freed by a steal is reusable");
    }

    #[test]
    fn reuse_across_many_rounds_wraps_indices() {
        let d = StealDeque::new(4);
        for round in 0..1000usize {
            assert!(d.push(round));
            assert!(d.push(round + 1));
            assert_eq!(d.steal(), Some(round));
            assert_eq!(d.pop(), Some(round + 1));
            assert!(d.is_empty_hint());
        }
    }

    /// Every pushed item is taken exactly once across a pool of hungry
    /// thieves racing the owner's pops, over many rounds.
    #[test]
    fn concurrent_steals_neither_lose_nor_duplicate() {
        const ROUNDS: usize = 50;
        const ITEMS: usize = 64;
        const THIEVES: usize = 2;
        let d = StealDeque::new(ITEMS);
        let stop = AtomicBool::new(false);
        let taken: Vec<[AtomicUsize; ITEMS]> = (0..THIEVES + 1)
            .map(|_| std::array::from_fn(|_| AtomicUsize::new(0)))
            .collect();
        std::thread::scope(|s| {
            let (owner_taken, thief_taken) = taken.split_first().unwrap();
            for counts in thief_taken {
                s.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        if let Some(v) = d.steal() {
                            counts[v].fetch_add(1, Ordering::Relaxed);
                        } else {
                            // Yield, not spin: on a single-core host the
                            // owner only progresses when thieves cede.
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for round in 1..=ROUNDS {
                for i in 0..ITEMS {
                    assert!(d.push(i));
                }
                // Owner drains what the thieves leave it.
                while let Some(v) = d.pop() {
                    owner_taken[v].fetch_add(1, Ordering::Relaxed);
                }
                // Wait until every item of this round is accounted for
                // (each item taken exactly `round` times so far).
                loop {
                    let total: usize = taken
                        .iter()
                        .flat_map(|c| c.iter())
                        .map(|a| a.load(Ordering::Relaxed))
                        .sum();
                    if total == round * ITEMS {
                        break;
                    }
                    assert!(total < round * ITEMS, "an item was taken twice");
                    std::thread::yield_now();
                }
            }
            stop.store(true, Ordering::Release);
        });
        // Exactly ROUNDS takes of every item, owner + thieves combined.
        for i in 0..ITEMS {
            let total: usize = taken.iter().map(|c| c[i].load(Ordering::Relaxed)).sum();
            assert_eq!(total, ROUNDS, "item {i} lost or duplicated");
        }
    }
}
