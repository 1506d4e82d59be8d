//! A fast, deterministic hasher for simulation-state maps.
//!
//! std's default `RandomState` runs SipHash-1-3 under per-map random keys:
//! resistant to hash flooding, but several times slower than the
//! simulation needs for the small integer and short-string keys it hashes
//! on almost every event (lock tables, row stores, pending-op maps, link
//! clocks). [`FxHasher`] is the multiply-rotate word hash used inside rustc
//! and Firefox. It has no random state, so a map's layout depends only on
//! its insert/remove history.
//!
//! The choice of hasher never decides simulated behaviour: with
//! `RandomState` iteration order already changed from map to map and from
//! process to process, so no protocol code may let it order emissions
//! (collect and sort first, or keep a `BTreeMap`). Every simulation-state
//! map in the workspace uses [`FxHashMap`]/[`FxHashSet`]; the workspace
//! `clippy.toml` rejects the std aliases.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`]; `Default` makes maps via `::default()`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through the deterministic Fx multiply-rotate hash.
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through the deterministic Fx multiply-rotate hash.
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Multiplier of the Fx word mix (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hash: each word is folded in with one rotate, xor and
/// multiply. Not collision-resistant against adversarial keys, which a
/// closed simulation does not have.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((head, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*head));
            bytes = rest;
        }
        if let Some((head, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u32::from_le_bytes(*head) as u64);
            bytes = rest;
        }
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; hashbrown picks
    /// buckets from the low bits, so rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_keys() {
        assert_eq!(hash_of(&(7u64, "inode")), hash_of(&(7u64, "inode")));
        assert_ne!(hash_of(&(7u64, "inode")), hash_of(&(8u64, "inode")));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&"abcdefghij"), hash_of(&"abcdefghik"));
    }

    #[test]
    fn maps_work_with_integer_and_string_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i << 12, i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|i| m[&(i << 12)] == i));
        let mut s: FxHashSet<String> = FxHashSet::default();
        s.insert("a".into());
        assert!(s.contains("a") && !s.contains("b"));
    }
}
