//! A small, dependency-free deterministic PRNG for workload generation
//! and tests.
//!
//! The repository must build and test hermetically (no crates.io
//! access), so instead of the `rand` crate we ship a SplitMix64-seeded
//! xorshift generator. Statistical quality is far beyond what the
//! workload generators need (they only shape *value similarity*
//! distributions), and determinism across platforms is guaranteed
//! because everything is plain wrapping 64-bit integer arithmetic.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used directly for seeding and stateless hashing, and internally by
/// [`Rng`] for initialization.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xorshift128+ generator seeded via SplitMix64.
///
/// # Examples
///
/// ```
/// use gscalar_core::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.range_u32(0, 10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s0: u64,
    s1: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion, so
    /// nearby seeds give unrelated streams).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        Rng { s0, s1 }
    }

    /// The next 64 random bits (xorshift128+).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping; the bias for spans far
        // below 2^64 is immeasurably small for our purposes.
        let hi128 = (u128::from(self.next_u64()) * u128::from(span)) >> 64;
        lo + hi128 as u64
    }

    /// A uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = lo.abs_diff(hi);
        let off = self.range_u64(0, span);
        lo.wrapping_add(off as i64)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        let v = lo as f64 + self.f64_unit() * (f64::from(hi) - f64::from(lo));
        (v as f32).clamp(lo, f32::from_bits(hi.to_bits() - 1).max(lo))
    }

    /// A random `bool` that is true with probability `percent`/100.
    pub fn percent(&mut self, percent: u32) -> bool {
        self.range_u32(0, 100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.range_u32(5, 17);
            assert!((5..17).contains(&v));
            let f = r.range_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = r.range_i64(-10, 10);
            assert!((-10..10).contains(&i));
        }
    }

    #[test]
    fn range_u32_covers_all_values() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn percent_is_roughly_calibrated() {
        let mut r = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.percent(25)).count();
        assert!((2200..2800).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_floats_are_half_on_average() {
        let mut r = Rng::seed_from_u64(13);
        let mean: f64 = (0..10_000).map(|_| r.f64_unit()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }
}
