//! Key and value generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates fixed-width keys over a bounded key space.
///
/// Keys render as zero-padded decimal indices (like db_bench's default
/// key format), so lexicographic order equals numeric order.
#[derive(Debug)]
pub struct KeyGenerator {
    rng: StdRng,
    key_space: u64,
    key_size: usize,
    distribution: KeyDistribution,
}

/// How key indices are drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over the key space.
    Uniform,
    /// Sequential (wraps at the key space).
    Sequential {
        /// Next index to emit.
        next: u64,
    },
    /// Power-law popularity: rank `r` drawn with P(r) proportional to
    /// `r^-alpha`, then mapped through a pseudo-random permutation so hot
    /// keys scatter across the key space (the FAST '20 mixgraph shape).
    PowerLaw {
        /// Skew exponent; 0 = uniform, ~0.9 = Facebook-like.
        alpha: f64,
    },
    /// Latest-skewed (YCSB D): a power-law rank anchored at the insert
    /// frontier, so the most recently inserted keys are the hottest.
    /// Unlike [`PowerLaw`](KeyDistribution::PowerLaw), ranks are *not* permuted — recency is the
    /// point. The frontier advances via
    /// [`KeyGenerator::advance_frontier`] as inserts land.
    Latest {
        /// Skew exponent for the recency rank (YCSB uses ~0.99).
        alpha: f64,
        /// One past the newest inserted key index.
        frontier: u64,
    },
}

/// Draws a power-law rank in `[0, n)` by inverse-CDF sampling of a
/// bounded Pareto: rank 0 is the most popular, with P(r) ∝ `r^-alpha`.
fn power_law_rank(rng: &mut StdRng, n: u64, alpha: f64) -> u64 {
    let u: f64 = rng.gen_range(0.0f64..1.0);
    let nf = n.max(1) as f64;
    let rank = if alpha <= 0.0 {
        (u * nf) as u64
    } else if (alpha - 1.0).abs() < 1e-9 {
        (nf.powf(u) - 1.0) as u64
    } else {
        let one_minus_a = 1.0 - alpha;
        (((nf.powf(one_minus_a) - 1.0) * u + 1.0).powf(1.0 / one_minus_a) - 1.0) as u64
    };
    rank.min(n.saturating_sub(1))
}

impl KeyGenerator {
    /// Creates a generator for `key_space` distinct keys of `key_size`
    /// bytes.
    pub fn new(seed: u64, key_space: u64, key_size: usize, distribution: KeyDistribution) -> Self {
        KeyGenerator {
            rng: StdRng::seed_from_u64(seed),
            key_space: key_space.max(1),
            key_size: key_size.max(4),
            distribution,
        }
    }

    /// Draws the next key index.
    pub fn next_index(&mut self) -> u64 {
        match &mut self.distribution {
            KeyDistribution::Uniform => self.rng.gen_range(0..self.key_space),
            KeyDistribution::Sequential { next } => {
                let v = *next % self.key_space;
                *next += 1;
                v
            }
            KeyDistribution::PowerLaw { alpha } => {
                let rank = power_law_rank(&mut self.rng, self.key_space, *alpha);
                // Scatter ranks over the space deterministically.
                rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.key_space
            }
            KeyDistribution::Latest { alpha, frontier } => {
                let n = (*frontier).max(1);
                let rank = power_law_rank(&mut self.rng, n, *alpha);
                n - 1 - rank
            }
        }
    }

    /// Advances the [`KeyDistribution::Latest`] insert frontier by `by`
    /// newly inserted keys; a no-op for every other distribution.
    pub fn advance_frontier(&mut self, by: u64) {
        if let KeyDistribution::Latest { frontier, .. } = &mut self.distribution {
            *frontier += by;
        }
    }

    /// Renders an index as a key.
    pub fn key_for(&self, index: u64) -> Vec<u8> {
        render_key(index, self.key_size)
    }

    /// Draws and renders the next key.
    pub fn next_key(&mut self) -> Vec<u8> {
        let idx = self.next_index();
        self.key_for(idx)
    }
}

/// Renders a key index as `key_size` bytes (at least 4) of zero-padded
/// decimal, written digit by digit from the end: a key shorter than the
/// 20 digits a `u64` can need keeps the index's last digits.
pub fn render_key(mut index: u64, key_size: usize) -> Vec<u8> {
    let mut key = vec![b'0'; key_size.max(4)];
    for digit in key.iter_mut().rev().take(20) {
        *digit = b'0' + (index % 10) as u8;
        index /= 10;
    }
    key
}

/// Generates values with controlled compressibility.
#[derive(Debug)]
pub struct ValueGenerator {
    rng: StdRng,
    value_size: usize,
    /// Fraction of bytes that are random (incompressible).
    entropy: f64,
    pareto: Option<(f64, usize)>, // (shape, min)
}

impl ValueGenerator {
    /// Fixed-size values with `entropy` incompressible fraction
    /// (db_bench's `compression_ratio` knob; 0.5 by default).
    pub fn fixed(seed: u64, value_size: usize, entropy: f64) -> Self {
        ValueGenerator {
            rng: StdRng::seed_from_u64(seed ^ 0xbeef),
            value_size,
            entropy: entropy.clamp(0.0, 1.0),
            pareto: None,
        }
    }

    /// Pareto-distributed value sizes with mean near `value_size`
    /// (the mixgraph value model).
    pub fn pareto(seed: u64, value_size: usize, shape: f64, min: usize) -> Self {
        ValueGenerator {
            rng: StdRng::seed_from_u64(seed ^ 0xbeef),
            value_size,
            entropy: 0.5,
            pareto: Some((shape.max(1.05), min.max(1))),
        }
    }

    /// Generates the next value.
    pub fn next_value(&mut self) -> Vec<u8> {
        let size = match self.pareto {
            None => self.value_size,
            Some((shape, min)) => {
                // Bounded Pareto draw with mean steered toward value_size.
                let u: f64 = self.rng.gen_range(1e-9f64..1.0);
                let scale = min as f64;
                let raw = scale / u.powf(1.0 / shape);
                (raw as usize).clamp(min, self.value_size * 20)
            }
        };
        let random_bytes = (size as f64 * self.entropy) as usize;
        let mut v = vec![0u8; size];
        for byte in v.iter_mut().take(random_bytes) {
            *byte = self.rng.gen();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_key_is_order_preserving_and_sized() {
        let a = render_key(5, 16);
        let b = render_key(50, 16);
        assert_eq!(a.len(), 16);
        assert!(a < b);
    }

    #[test]
    fn render_key_matches_the_format_renderer() {
        // The renderer as it was written first: the index through
        // `format!`, its last digits copied into the zero-filled key.
        fn formatted(index: u64, key_size: usize) -> Vec<u8> {
            let digits = format!("{index:020}");
            let mut key = vec![b'0'; key_size.max(4)];
            let take = digits.len().min(key.len());
            let dst_start = key.len() - take;
            let src_start = digits.len() - take;
            key[dst_start..].copy_from_slice(&digits.as_bytes()[src_start..]);
            key
        }
        for index in [0, 9, 10, 10u64.pow(15), 10u64.pow(16) - 1, 10u64.pow(19), u64::MAX] {
            for key_size in [1, 4, 16, 20, 24] {
                assert_eq!(
                    render_key(index, key_size),
                    formatted(index, key_size),
                    "index {index}, key_size {key_size}"
                );
            }
        }
    }

    #[test]
    fn uniform_covers_space() {
        let mut g = KeyGenerator::new(1, 1000, 16, KeyDistribution::Uniform);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let idx = g.next_index();
            assert!(idx < 1000);
            seen.insert(idx);
        }
        assert!(seen.len() > 950, "covered {}", seen.len());
    }

    #[test]
    fn sequential_wraps() {
        let mut g = KeyGenerator::new(1, 3, 16, KeyDistribution::Sequential { next: 0 });
        let idxs: Vec<u64> = (0..6).map(|_| g.next_index()).collect();
        assert_eq!(idxs, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn power_law_is_skewed() {
        let mut g = KeyGenerator::new(1, 100_000, 16, KeyDistribution::PowerLaw { alpha: 0.92 });
        let mut counts = std::collections::HashMap::new();
        let draws = 100_000;
        for _ in 0..draws {
            *counts.entry(g.next_index()).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = freqs.iter().take(100).sum();
        // Under uniform, 100 keys would get ~0.1% of draws; skew should
        // give the top 100 keys far more.
        assert!(
            top100 as f64 / draws as f64 > 0.05,
            "top-100 share {}",
            top100 as f64 / draws as f64
        );
    }

    #[test]
    fn power_law_deterministic_per_seed() {
        let mut a = KeyGenerator::new(7, 1000, 16, KeyDistribution::PowerLaw { alpha: 0.9 });
        let mut b = KeyGenerator::new(7, 1000, 16, KeyDistribution::PowerLaw { alpha: 0.9 });
        for _ in 0..100 {
            assert_eq!(a.next_index(), b.next_index());
        }
    }

    #[test]
    fn latest_skews_toward_the_frontier_and_follows_inserts() {
        let mut g = KeyGenerator::new(
            3,
            1_000_000,
            16,
            KeyDistribution::Latest { alpha: 0.99, frontier: 10_000 },
        );
        let draws = 20_000;
        let recent = (0..draws)
            .map(|_| g.next_index())
            .filter(|i| {
                assert!(*i < 10_000);
                *i >= 9_000
            })
            .count();
        // Under uniform, the newest 10% would get ~10% of draws; the
        // recency skew should concentrate far more there.
        assert!(recent * 2 > draws, "recent-decile share {recent}/{draws}");
        // Advancing the frontier makes brand-new keys drawable (and hot).
        g.advance_frontier(90_000);
        let past_old_frontier =
            (0..draws).map(|_| g.next_index()).filter(|i| *i >= 10_000).count();
        assert!(past_old_frontier * 2 > draws, "frontier ignored: {past_old_frontier}");
    }

    #[test]
    fn fixed_values_half_compressible() {
        let mut g = ValueGenerator::fixed(1, 100, 0.5);
        let v = g.next_value();
        assert_eq!(v.len(), 100);
        let zeros = v.iter().filter(|b| **b == 0).count();
        assert!(zeros >= 50, "zeros {zeros}");
    }

    #[test]
    fn pareto_values_vary_but_bounded() {
        let mut g = ValueGenerator::pareto(1, 100, 2.0, 60);
        let sizes: Vec<usize> = (0..1000).map(|_| g.next_value().len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 60);
        assert!(max > min, "sizes should vary");
        assert!(max <= 2000);
    }
}
