//! A fast, deterministic hasher for small integer-like keys.
//!
//! The analysis hot paths (TRG edge accounting, affinity candidate
//! discovery) perform tens of millions of map operations keyed by `(u32,
//! u32)` pairs. `std`'s default SipHash is DoS-resistant but costs more
//! than the surrounding work for such tiny keys; this module provides a
//! multiply-rotate hasher in the FxHash family (as used by rustc) that is
//! a handful of instructions per word.
//!
//! Determinism note: unlike `RandomState`, this hasher is fixed across
//! runs. No analysis output may depend on map iteration order regardless
//! (tie-breaks are explicit everywhere), so the switch is behaviourally
//! neutral; it only removes per-process seed variation in iteration
//! order.
//!
//! Bucket spread: `HashMap` picks a bucket from the hash's low bits, and
//! the low bits of a product depend only on the low bits of the key, so
//! [`FxHasher::finish`] rotates the product to bring its well-mixed high
//! bits down. Ids that share their low bits (aligned addresses, a foreign
//! numbering) then still spread over the buckets. The hash is fixed and
//! unkeyed, so it does not resist keys chosen to collide: some of these
//! maps are keyed by ids from clop-serve's clients, and a client that
//! picks colliding ids can still make its folds slow.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier close to 2^64 / golden ratio; spreads consecutive
/// integers across the high bits, which `HashMap` uses for bucket
/// selection via the top-7 control bytes and low-bit masking.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add_word(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Pad the tail with a sentinel byte so prefixes of a zero run
            // of different lengths still hash apart.
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            buf[rest.len()] = 0x80 | rest.len() as u8;
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_word(n as u64);
        self.add_word((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of((3u32, 17u32)), hash_of((3u32, 17u32)));
        assert_eq!(hash_of("affinity"), hash_of("affinity"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Consecutive small pairs — the common key shape — must not
        // collide wholesale.
        let mut seen = std::collections::HashSet::new();
        for x in 0u32..64 {
            for y in 0u32..64 {
                seen.insert(hash_of((x, y)));
            }
        }
        assert_eq!(seen.len(), 64 * 64);
    }

    /// Distinct values of the low 16 bits (the bucket bits of a map of up
    /// to 65,536 buckets) over `keys`.
    fn low_bits<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.map(|k| hash_of(k) & 0xffff)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    #[test]
    fn ids_sharing_their_low_bits_spread_over_the_buckets() {
        // Unrotated, the product's low 16 bits see only the key's low 16
        // bits: every `j << 16` would share one value, and these pairs
        // 0.05 % of them.
        let n = 1usize << 16;
        assert!(low_bits((0..1u32 << 16).map(|j| j << 16)) * 2 >= n);
        let pairs = (0..1u32 << 16).map(|j| (j << 16, ((j * 7 + 3) & 0xffff) << 16));
        assert!(low_bits(pairs) * 2 >= n);
        assert!(low_bits(0..1u32 << 16) * 2 >= n);
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn byte_writes_cover_tails() {
        // Slices of every length 0..16 hash without panicking and unequal
        // lengths of the same prefix differ (the length is hashed by the
        // slice impl, but check the tail path too).
        let bytes: Vec<u8> = (0u8..16).collect();
        let hashes: Vec<u64> = (0..=16)
            .map(|n| {
                let mut h = FxHasher::default();
                h.write(&bytes[..n]);
                h.finish()
            })
            .collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "lengths {i} and {j} collide");
            }
        }
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            *m.entry((i % 50, i % 7)).or_insert(0) += 1;
        }
        assert_eq!(m.values().sum::<u64>(), 1000);
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.extend(0..100u32);
        assert_eq!(s.len(), 100);
    }
}
