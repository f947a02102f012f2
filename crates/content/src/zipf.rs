//! Zipf-distributed sampling.
//!
//! P2P measurement studies consistently find Zipf-like popularity for both
//! query terms and shared files. This sampler precomputes the cumulative
//! distribution once and draws in expected O(1) with a guide table
//! (Chen & Asau): `u ∈ [0, 1)` falls in one of `g` equal buckets, a
//! power of two at least `8n` wide, and `guide[j]` is the rank of the
//! bucket's lower edge `j / g`. A draw starts there and scans forward
//! while `cdf[i] <= u`. Because `g` is a power of two, `⌊u·g⌋` and
//! `j / g` are exact, so the start never overshoots and the rank equals
//! `cdf.partition_point(|&c| c <= u).min(n - 1)` — the binary search it
//! replaced — for every `u` (pinned by a differential test).

use arq_simkern::Rng64;

/// A Zipf(α) distribution over ranks `0..n` (rank 0 most popular).
///
/// P(rank = k) ∝ 1 / (k+1)^α. With α = 0 this degenerates to the uniform
/// distribution, which tests exploit.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `alpha >= 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(alpha >= 0.0, "negative Zipf exponent");
        assert!(u32::try_from(n).is_ok(), "Zipf support too large");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().unwrap() = 1.0;
        let g = (8 * n).next_power_of_two();
        let mut guide = Vec::with_capacity(g);
        let mut i = 0;
        for j in 0..g {
            let edge = j as f64 / g as f64;
            while i < n - 1 && cdf[i] <= edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.rank(rng.f64())
    }

    /// The rank of `u ∈ [0, 1)`: the first index with `cdf > u`, capped
    /// at the last rank.
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] <= u {
            i += 1;
        }
        i
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(100, 0.9);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf not monotone at {k}");
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Rng64::seed_from(77);
        let n = 200_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let got = f64::from(count) / n as f64;
            let want = z.pmf(k);
            assert!(
                (got - want).abs() < 0.01,
                "rank {k}: got {got:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn single_rank_support() {
        let z = Zipf::new(1, 1.2);
        let mut rng = Rng64::seed_from(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn guide_table_rank_equals_the_binary_search() {
        let mut rng = Rng64::seed_from(0x21FF);
        for n in [1, 2, 7, 500, 4096] {
            for alpha in [0.0, 0.6, 0.9, 2.5] {
                let z = Zipf::new(n, alpha);
                let reference = |u: f64| z.cdf.partition_point(|&c| c <= u).min(n - 1);
                let g = z.guide.len();
                let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
                for &c in &z.cdf {
                    us.extend([c, c.next_down(), c.next_up()]);
                }
                us.extend((0..g).map(|j| j as f64 / g as f64));
                us.extend((0..100_000).map(|_| rng.f64()));
                for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(z.rank(u), reference(u), "n {n} alpha {alpha} u {u:e}");
                }
            }
        }
    }

    #[test]
    fn pmf_is_a_distribution_for_any_support_and_exponent() {
        let mut rng = Rng64::seed_from(0x21F0);
        for _ in 0..200 {
            let n = 1 + rng.index(499);
            let alpha = rng.f64() * 3.0;
            let z = Zipf::new(n, alpha);
            let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
            for k in 1..n {
                assert!(
                    z.pmf(k) <= z.pmf(k - 1) + 1e-12,
                    "n {n} alpha {alpha} k {k}"
                );
            }
        }
    }

    #[test]
    fn samples_fall_in_support() {
        let mut rng = Rng64::seed_from(0x21F1);
        for _ in 0..200 {
            let n = 1 + rng.index(199);
            let z = Zipf::new(n, rng.f64() * 2.5);
            for _ in 0..200 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn rejects_empty_support() {
        Zipf::new(0, 1.0);
    }
}
