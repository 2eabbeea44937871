//! A small deterministic PRNG (SplitMix64), replacing the external `rand`
//! dependency so the workspace builds fully offline.
//!
//! Every consumer of randomness in the workspace — the sparse workload
//! generators in [`crate::gen`], the SCNN activation model, and the fault
//! injector in `stellar-sim` — draws from this generator, so a seed fully
//! determines an experiment. SplitMix64 passes BigCrush, is 5 lines of
//! arithmetic, and has a trivially seedable 64-bit state.

/// A seedable SplitMix64 pseudo-random number generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator with the given seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.unit_f64() * (hi - lo)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream() {
        // Published SplitMix64 outputs for seed 0.
        let mut r = Rng64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn determinism() {
        let a: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng64::seed_from_u64(43);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = Rng64::seed_from_u64(7);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit_f64()));
            let v = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&v));
            assert!(r.range_usize(3, 9) < 9);
            assert!(r.range_usize(3, 9) >= 3);
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes_and_mean() {
        let mut r = Rng64::seed_from_u64(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_f64_roughly_uniform() {
        let mut r = Rng64::seed_from_u64(11);
        let mean: f64 = (0..10_000).map(|_| r.unit_f64()).sum::<f64>() / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
    }
}
