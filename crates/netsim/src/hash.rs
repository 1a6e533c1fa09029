//! A fast, deterministic hasher for simulation-internal keys.
//!
//! The standard library's default SipHash defends against adversarial
//! keys; simulation state is keyed by small trusted integers (node ids,
//! flood ids, packet uids), where SipHash costs more than the table probe
//! it guards. [`FastHasher`] is an unseeded multiply-xor mix — hot-path
//! protocol and harness tables pay a few cycles per lookup instead.
//!
//! Determinism: unlike `RandomState`, the mix is identical in every
//! process, so even code that (incorrectly) let iteration order influence
//! behavior would at least stay bit-reproducible across runs. Nothing in
//! the workspace may depend on iteration order regardless — the
//! reproducibility tests ran under per-process-random SipHash for three
//! PRs, which would have caught any such leak.
//!
//! Outside the integration tests and the benchmark, these two aliases
//! are the only way workspace code reaches std's hashed containers: the
//! workspace `clippy.toml` denies `HashMap` and `HashSet` elsewhere.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for small trusted keys (see module docs).
#[derive(Default)]
pub struct FastHasher(u64);

const MIX: u64 = 0x9E37_79B9_7F4A_7C15; // 2⁶⁴ / φ, the usual Fibonacci mix

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // A final avalanche so low-entropy keys spread across the table.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(MIX);
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for compound/byte keys; integer keys take the fast
        // paths below.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64)
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64)
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64)
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MIX);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64)
    }

    fn write_i32(&mut self, n: i32) {
        self.write_u64(n as u32 as u64)
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64)
    }
}

/// `HashMap` keyed by trusted simulation ids.
#[expect(
    clippy::disallowed_types,
    reason = "the fixed hasher replaces RandomState's per-process order"
)]
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed by trusted simulation ids.
#[expect(
    clippy::disallowed_types,
    reason = "the fixed hasher replaces RandomState's per-process order"
)]
pub type FastHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_apart() {
        let mut set = FastHashSet::default();
        for i in 0..10_000u64 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
        for i in 0..10_000u64 {
            assert!(set.contains(&i));
        }
    }

    #[test]
    fn tuple_keys_work() {
        let mut m: FastHashMap<(u32, u64), u32> = FastHashMap::default();
        for a in 0..50 {
            for b in 0..50u64 {
                m.insert((a, b), a + b as u32);
            }
        }
        assert_eq!(m.len(), 2500);
        assert_eq!(m[&(7, 13)], 20);
    }

    #[test]
    fn deterministic_across_instances() {
        use std::hash::Hash;
        let h = |k: u64| {
            let mut hasher = FastHasher::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    /// The `#[expect]`s on the aliases above and on the runner's phase
    /// timing fail clippy if the `HashMap`, `HashSet` or `Instant` entry
    /// leaves the workspace `clippy.toml`. No code is exempt from the
    /// other two, so this test holds them in place.
    #[test]
    fn clippy_toml_denies_every_nondeterministic_name() {
        let config = include_str!("../../../clippy.toml");
        for path in [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::time::Instant",
            "std::time::SystemTime",
            "rand::thread_rng",
        ] {
            let entry = format!("path = \"{path}\"");
            let listed = config
                .lines()
                .any(|line| !line.trim_start().starts_with('#') && line.contains(&entry));
            assert!(listed, "clippy.toml must deny {path}");
        }
    }
}
