//! A small multiply-rotate hasher for the keys the analyses cannot
//! number densely (field locations, register ids past a function's
//! `reg_count`, data-flow def maps). The keys are a few machine words
//! of program structure, never attacker-chosen bytes, so SipHash's
//! flooding resistance buys nothing here and its cost dominated small
//! scoped solves.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Folds each word in with a rotate, xor and multiply; `finish` rotates
/// the well-mixed high bits down to where the table indexes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MulRotHasher(u64);

impl MulRotHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulRotHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` hashed by [`MulRotHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotHasher>>;

/// A `HashSet` hashed by [`MulRotHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<MulRotHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<MulRotHasher>::default().hash_one(x)
    }

    #[test]
    fn nearby_keys_spread_over_low_bits() {
        // A table of 256 buckets indexes by the low byte: consecutive
        // keys must not pile into a few buckets.
        let buckets: HashSet<u64> = (0u64..256).map(|k| hash_of(k) & 0xff).collect();
        assert!(buckets.len() > 128, "{} distinct low bytes", buckets.len());
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }
}
