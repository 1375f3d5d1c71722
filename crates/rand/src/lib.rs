//! In-tree pseudo-random number generation for the Drum workspace.
//!
//! The workspace builds hermetically offline, so instead of the crates.io
//! `rand` crate this crate re-implements the *small* slice of its API the
//! repository actually uses:
//!
//! * [`Rng`] — `next_u64`, `fill_bytes`, `random_range`, `random_bool`;
//! * [`SeedableRng`] — `from_seed`, `seed_from_u64` (SplitMix64 expansion)
//!   and `from_os_rng` (best-effort OS entropy, used by `drum-net` to seed
//!   port randomization when no explicit seed is given);
//! * [`rngs::SmallRng`] — xoshiro256++, a fast 256-bit-state generator;
//! * [`seq::index::sample`] — partial Fisher–Yates sampling without
//!   replacement, used for view and buffer selection.
//!
//! The library target is deliberately named `rand` so existing
//! `use rand::rngs::SmallRng;` imports keep compiling; `cargo tree` still
//! shows only workspace crates.
//!
//! Determinism is a feature, not an accident: the paper's adversarial
//! experiments (PAPER.md §7–9) are reproduced by Monte-Carlo simulation, and
//! every generator here produces an identical stream for an identical seed on
//! every platform.
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x: u64 = a.random_range(0..10);
//! assert!(x < 10);
//! ```

#![forbid(unsafe_code)]

mod os;
pub mod rngs;
pub mod seq;

use core::ops::{Range, RangeInclusive};

/// A source of randomness.
///
/// Only `next_u64` is required; everything else derives from it. Unlike the
/// crates.io trait split (`RngCore` + extension trait) there is a single
/// trait here, with [`RngExt`] provided as an alias so both import styles in
/// the workspace resolve.
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits (upper half of a
    /// 64-bit draw — xoshiro's low bits are the weaker ones).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            let n = rem.len();
            rem.copy_from_slice(&last[..n]);
        }
    }

    /// Samples uniformly from `range` (`start..end` or `start..=end`).
    ///
    /// Integer ranges are unbiased (Lemire multiply-with-rejection); float
    /// ranges are uniform over `[start, end)` with 53 bits of precision.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, B>(&mut self, range: B) -> T
    where
        B: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        // Compare a 53-bit uniform integer against p scaled to the same
        // grid; exact for p = 0 and p = 1.
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Alias of [`Rng`] kept so `use rand::RngExt;` call sites compile; with a
/// single trait there is no core/extension split to mirror.
pub use self::Rng as RngExt;

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed material (a fixed-size byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator directly from raw seed bytes.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed, expanded to the full state
    /// width with SplitMix64 (the expansion recommended by the xoshiro
    /// authors: distinct `u64` seeds yield well-decorrelated states).
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = rngs::SplitMix64::new(state);
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }

    /// Builds the generator from best-effort OS entropy.
    ///
    /// Used where unpredictability matters more than reproducibility — e.g.
    /// `drum-net` port randomization outside deterministic experiments.
    /// Entropy comes from the OS-keyed `RandomState` hasher plus the clock
    /// and a process-global counter; no two calls return the same stream.
    fn from_os_rng() -> Self {
        let mut seed = Self::Seed::default();
        os::fill(seed.as_mut());
        Self::from_seed(seed)
    }
}

/// A range that [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `0..span` via Lemire's multiply-with-rejection: a
/// 128-bit multiply maps a 64-bit draw onto the span, and draws landing in
/// the biased low fringe are rejected, so every value is exactly equally
/// likely.
fn sample_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut lo = m as u64;
    if lo < span {
        let threshold = span.wrapping_neg() % span;
        while lo < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! uint_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + sample_below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                match ((end - start) as u64).checked_add(1) {
                    Some(span) => start + sample_below(rng, span) as $t,
                    // Full-width range: every 64-bit draw is already uniform.
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

uint_sample_range!(u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53-bit mantissa-uniform value in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = rng.random_range(0..=3);
            assert!(w <= 3);
            let f: f64 = rng.random_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn inclusive_full_width_range_does_not_overflow() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _: u64 = rng.random_range(0..=u64::MAX);
    }

    #[test]
    fn random_bool_extremes_are_exact() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(rng.random_bool(1.0));
            assert!(!rng.random_bool(0.0));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn random_bool_rejects_bad_probability() {
        let mut rng = SmallRng::seed_from_u64(5);
        rng.random_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(6);
        let _: u64 = rng.random_range(5..5);
    }

    #[test]
    fn rng_usable_through_mut_reference() {
        fn draw(mut rng: impl Rng) -> u64 {
            rng.random_range(0..100u64)
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = draw(&mut rng);
        let _ = rng.next_u64();
    }

    #[test]
    fn from_os_rng_streams_differ() {
        let mut a = SmallRng::from_os_rng();
        let mut b = SmallRng::from_os_rng();
        // 256-bit states: a collision means the entropy source is broken.
        let left: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let right: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(left, right);
    }
}
