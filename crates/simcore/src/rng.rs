//! Seedable pseudo-random number generators.
//!
//! Simulation reproducibility requires RNGs whose entire state is the
//! seed. We provide two standard generators:
//!
//! * [`SplitMix64`] — a tiny 64-bit mixer; used to expand one `u64` seed
//!   into larger state, and adequate on its own for workload jitter.
//! * [`Xoshiro256`] — xoshiro256++, a fast general-purpose generator
//!   with 256-bit state, seeded via SplitMix64 as its authors recommend.
//!
//! Neither is cryptographic; both are deterministic on every platform.

/// SplitMix64: Steele, Lea & Flood's 64-bit mixing generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 and
        // irrelevant for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Derive the seed of an independent child stream from a root seed.
    ///
    /// Parallel sweeps give every run `derive_stream(root, index)` so
    /// that (a) no RNG state is shared between concurrent runs and
    /// (b) a run's stream depends only on `(root, index)` — never on
    /// which worker thread executed it or in what order — which is what
    /// makes serial and multi-threaded sweeps bit-identical.
    ///
    /// Two full SplitMix64 scrambles separate the root/stream inputs so
    /// that consecutive indices yield statistically unrelated streams.
    pub const fn derive_stream(root: u64, stream: u64) -> u64 {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut sm = SplitMix64::new(stream ^ GOLDEN.wrapping_mul(root.rotate_left(17)));
        let a = sm.const_next();
        let mut sm2 = SplitMix64::new(root ^ a);
        sm2.const_next()
    }

    /// `next_u64` usable in const contexts (used by `derive_stream`).
    const fn const_next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 by Blackman & Vigna.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 expansion of a single `u64`, per the
    /// generator authors' recommendation.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256 { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Sample a normally distributed value (Box–Muller, mean `mu`,
    /// standard deviation `sigma`).
    pub fn next_gaussian(&mut self, mu: f64, sigma: f64) -> f64 {
        // Avoid ln(0) by sampling u1 from (0,1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mu + sigma * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence() {
        // Reference values from the public-domain reference
        // implementation seeded with 1234567.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn derive_stream_is_pure_and_spreads() {
        // Pure function of (root, index).
        assert_eq!(
            SplitMix64::derive_stream(42, 7),
            SplitMix64::derive_stream(42, 7)
        );
        // Distinct indices and distinct roots give distinct streams.
        let mut seeds: Vec<u64> = (0..1000)
            .map(|i| SplitMix64::derive_stream(0xDEAD_BEEF, i))
            .collect();
        seeds.extend((0..1000).map(|i| SplitMix64::derive_stream(0xFEED_FACE, i)));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2000, "derived stream seeds collided");
    }

    #[test]
    fn derived_streams_are_statistically_independent() {
        // Adjacent stream indices must not produce correlated output:
        // compare first values bit-by-bit over many indices.
        let mut agree = 0u32;
        let mut total = 0u32;
        for i in 0..64 {
            let a = SplitMix64::new(SplitMix64::derive_stream(1, i)).next_u64();
            let b = SplitMix64::new(SplitMix64::derive_stream(1, i + 1)).next_u64();
            agree += (!(a ^ b)).count_ones();
            total += 64;
        }
        let frac = agree as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "bit agreement {frac}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_sampling_respects_bound() {
        let mut r = Xoshiro256::new(9);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn bounded_sampling_covers_range() {
        let mut r = Xoshiro256::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_mean_and_spread_are_plausible() {
        let mut r = Xoshiro256::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }
}
