//! Deterministic RNG for simulated workloads.

/// SplitMix64: tiny, fast, high-quality 64-bit generator with trivially
/// seedable independent streams.
///
/// Used for workload generation *inside* simulations (e.g. the random block
/// positions of the Table 2 service-call experiment). Determinism matters
/// more than cryptographic quality here: a seeded run must reproduce the
/// paper table bit-for-bit on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive an independent stream for substream `index`.
    pub fn split(&self, index: u64) -> Self {
        // Mix the stream index through one SplitMix64 round so adjacent
        // indices yield unrelated streams.
        let mut child = Self::new(self.state ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        child.next_u64();
        Self::new(child.next_u64())
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free multiply-shift; bias is < 2^-64 * bound,
        // negligible for workload generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence() {
        // Reference values for SplitMix64 with seed 1234567 (from the
        // public-domain C implementation by Vigna).
        let mut rng = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let root = SplitMix64::new(7);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let same = (0..64).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
        // All residues eventually hit.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = rng.next_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
