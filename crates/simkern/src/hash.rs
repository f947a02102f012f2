//! One integer hasher for the workspace's integer-keyed maps.
//!
//! The rule learners and the simulator's GUID store look up host ids,
//! packed host pairs and GUIDs millions of times per run. std's SipHash
//! runs several keyed mixing rounds over every key; [`IntHasher`] spends
//! one folded 64×64→128 multiply per key word.
//!
//! [`IntState`] seeds every map the way std's `RandomState` does: a base
//! drawn once per thread from std's own random keys, plus a per-map
//! counter, mixed by SplitMix64 into the map's seed. Two consequences:
//!
//! * keys that reach a map from outside the process (host ids on
//!   `arq serve`'s socket) cannot be chosen offline to collide, because
//!   the slot a key lands in depends on a seed the sender never sees;
//! * one map refilled from another in the other's iteration order does
//!   not go quadratic, because the two maps hash with unrelated seeds.
//!
//! Nothing observable may depend on a map's iteration order: it differs
//! between maps and between processes, exactly as it does under
//! `RandomState`.

use crate::rng::SplitMix64;
use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The golden-ratio multiplier the fold uses.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A hasher for integer keys: each word written is xored into the state
/// and folded through one 64×64→128 multiply (low half xor high half),
/// so every input bit reaches the low bits a table indexes by.
#[derive(Debug, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    /// Byte keys (strings, slices) fold eight bytes at a time; the
    /// integer writes below are the fast path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x).wrapping_mul(u128::from(MUL));
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

thread_local! {
    /// The next map's SplitMix64 input: a random base, stepped per map.
    static NEXT_SEED: Cell<u64> = Cell::new(RandomState::new().build_hasher().finish());
}

/// The [`BuildHasher`] of every [`IntMap`]: each `default()` draws a
/// fresh seed (see the module docs), and a cloned map keeps its seed.
#[derive(Debug, Clone, Copy)]
pub struct IntState(u64);

impl Default for IntState {
    fn default() -> Self {
        IntState(NEXT_SEED.with(|next| {
            let mut mix = SplitMix64::new(next.get());
            let seed = mix.next();
            next.set(next.get().wrapping_add(1));
            seed
        }))
    }
}

impl BuildHasher for IntState {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher(self.0)
    }
}

/// A `HashMap` keyed by integers (or tuples of them) through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_with<K: Hash>(state: &IntState, key: K) -> u64 {
        state.hash_one(key)
    }

    /// How evenly `keys` fill a table of `2^bits` slots indexed by the
    /// hash's low bits: the fullest slot's load over the mean load.
    fn spread<K: Hash>(state: &IntState, keys: impl Iterator<Item = K>, bits: u32) -> f64 {
        let mut slots = vec![0u32; 1 << bits];
        let mut n = 0u32;
        for key in keys {
            slots[(hash_with(state, key) & ((1 << bits) - 1)) as usize] += 1;
            n += 1;
        }
        let mean = f64::from(n) / f64::from(1u32 << bits);
        f64::from(*slots.iter().max().unwrap()) / mean
    }

    /// Structured key sets — power-of-two strides, keys that differ only
    /// in their high bits, `(x, x)` pairs — spread over the low bits a
    /// table indexes by about as well as random keys would, at fixed
    /// seeds (zero among them) so the check repeats exactly. With 8 keys
    /// per slot on average, a fair hash's fullest slot holds ~2.5× that.
    #[test]
    fn structured_keys_spread_over_low_bits() {
        let bits = 10;
        let n = 8u64 << bits;
        let mut seeds = SplitMix64::new(0x5EED);
        for seed in [0, 1, u64::MAX]
            .into_iter()
            .chain((0..5).map(|_| seeds.next()))
        {
            let state = IntState(seed);
            let sets = [
                (
                    "u32 stride 1",
                    spread(&state, (0..n).map(|i| i as u32), bits),
                ),
                (
                    "u32 stride 2^10",
                    spread(&state, (0..n).map(|i| (i << 10) as u32), bits),
                ),
                (
                    "u64 stride 2^32",
                    spread(&state, (0..n).map(|i| i << 32), bits),
                ),
                (
                    "u64 high bits only",
                    spread(&state, (0..n).map(u64::reverse_bits), bits),
                ),
                (
                    "u128 high word only",
                    spread(&state, (0..n).map(|i| u128::from(i) << 64), bits),
                ),
                (
                    "u128 stride 2^96",
                    spread(&state, (0..n).map(|i| u128::from(i) << 96), bits),
                ),
                (
                    "(x, x) pairs",
                    spread(&state, (0..n).map(|i| (i as u32, i as u32)), bits),
                ),
                (
                    "(x, x) pairs, stride 2^16",
                    spread(
                        &state,
                        (0..n).map(|i| ((i << 16) as u32, (i << 16) as u32)),
                        bits,
                    ),
                ),
            ];
            for (name, ratio) in sets {
                assert!(
                    ratio < 4.0,
                    "seed {seed:#x}, {name}: fullest slot {ratio:.1}× the mean"
                );
            }
        }
    }

    #[test]
    fn every_map_gets_its_own_seed() {
        let (a, b) = (IntState::default(), IntState::default());
        assert_ne!(a.0, b.0);
        assert_ne!(hash_with(&a, 7u32), hash_with(&b, 7u32));
        // A clone keeps its seed, so a cloned map still finds its keys.
        assert_eq!(hash_with(&a, 7u32), hash_with(&a.clone(), 7u32));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: IntMap<(u32, u32), u64> = IntMap::default();
        for i in 0..10_000u32 {
            *map.entry((i % 97, i % 13)).or_insert(0) += 1;
        }
        assert_eq!(map.len(), 97 * 13);
        assert_eq!(map.values().sum::<u64>(), 10_000);
        let strings: IntMap<String, ()> = ["a", "bb", "a", "a long key past eight bytes"]
            .iter()
            .map(|s| (s.to_string(), ()))
            .collect();
        assert_eq!(strings.len(), 3);
        assert!(strings.contains_key("bb"));
    }
}
