//! Concrete generators: [`SmallRng`] (xoshiro256++) and [`SplitMix64`].

use crate::{Rng, SeedableRng};

/// SplitMix64: a tiny generator with a 64-bit counter state.
///
/// Passes BigCrush on its own; used here mainly to expand 64-bit seeds into
/// the 256-bit [`SmallRng`] state (the expansion the xoshiro authors
/// recommend) and to mix OS entropy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stateless SplitMix64 finalizer: a bijective avalanche mix of
    /// `x`. Distinct inputs give distinct outputs (it is invertible), and
    /// one flipped input bit flips ~half the output bits — the property
    /// the counter-derived stream keys below lean on.
    #[inline]
    pub fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One chaining step of the counter-derived key schedule:
/// `mix(acc ^ part)`. Sequential chaining (rather than a symmetric XOR of
/// the parts) makes the key order-sensitive: `fold(fold(K, a), b)` and
/// `fold(fold(K, b), a)` land in unrelated places.
#[inline]
pub fn key_fold(acc: u64, part: u64) -> u64 {
    SplitMix64::mix(acc ^ part)
}

/// Folds `parts` into a 64-bit stream key (see [`SmallRng::from_key`]).
///
/// Useful when a caller derives many related streams: fold the common
/// prefix once (e.g. `(trial_seed, round)`), then [`key_fold`] the varying
/// suffix (e.g. a process index) per stream.
pub fn derive_stream_key(parts: &[u64]) -> u64 {
    // Arbitrary non-zero initial accumulator (first 64 fractional bits of
    // sqrt(2)); distinguishes `derive([])` from `derive([0])`.
    parts
        .iter()
        .fold(0x6A09_E667_F3BC_C908, |acc, &p| key_fold(acc, p))
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: [u8; 8]) -> Self {
        Self::new(u64::from_le_bytes(seed))
    }
}

/// The workspace's workhorse generator: xoshiro256++.
///
/// 256 bits of state, a handful of xors/rotates per draw, equidistributed in
/// every 64-bit output, and identical streams for identical seeds on every
/// platform — the property the paper-reproduction experiments rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
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
}

impl SmallRng {
    /// Creates an independent stream from a structured counter key.
    ///
    /// The parts are chained through [`key_fold`] (SplitMix64 finalizer
    /// steps) and the folded key is expanded into the 256-bit xoshiro
    /// state via `seed_from_u64`. This is the primitive behind the
    /// simulator's stepper: every `(trial_seed, round, process, phase)`
    /// tuple gets its own statistically independent stream, so no
    /// process's draws depend on how many another process made, and the
    /// resulting trial is a pure function of the key material alone
    /// (never of the worker count).
    pub fn from_key(parts: &[u64]) -> SmallRng {
        use crate::SeedableRng;
        SmallRng::seed_from_u64(derive_stream_key(parts))
    }
}

impl SeedableRng for SmallRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            // The all-zero state is xoshiro's one fixed point; remap it to a
            // full-entropy state instead of emitting zeros forever.
            let mut sm = SplitMix64::new(0);
            for word in &mut s {
                *word = sm.next_u64();
            }
        }
        Self { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 from the reference C implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // xoshiro256++ reference: state {1, 2, 3, 4}.
        let mut seed = [0u8; 32];
        for (i, word) in [1u64, 2, 3, 4].into_iter().enumerate() {
            seed[i * 8..(i + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        let mut rng = SmallRng::from_seed(seed);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for want in expected {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = SmallRng::from_seed([0u8; 32]);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_ne!(draws, vec![0, 0, 0, 0]);
    }

    #[test]
    fn mix_matches_splitmix_step() {
        // `mix(x)` must equal the output of a SplitMix64 stepped once from
        // state `x` — the two implementations may never drift apart.
        for x in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let mut sm = SplitMix64::new(x);
            assert_eq!(SplitMix64::mix(x), sm.next_u64(), "x = {x:#x}");
        }
    }

    #[test]
    fn key_fold_is_order_sensitive() {
        let ab = key_fold(key_fold(7, 1), 2);
        let ba = key_fold(key_fold(7, 2), 1);
        assert_ne!(ab, ba);
        // Length-extension distinguishes a prefix from the padded key.
        assert_ne!(derive_stream_key(&[1]), derive_stream_key(&[1, 0]));
        assert_ne!(derive_stream_key(&[]), derive_stream_key(&[0]));
    }

    #[test]
    fn derive_stream_key_folds_incrementally() {
        // The documented prefix-folding idiom must agree with the one-shot
        // derivation: derive([a, b, c]) == fold(fold(derive([a]), b), c).
        let full = derive_stream_key(&[11, 22, 33]);
        let prefix = derive_stream_key(&[11]);
        assert_eq!(key_fold(key_fold(prefix, 22), 33), full);
    }

    #[test]
    fn from_key_streams_are_deterministic_and_distinct() {
        let mut a = SmallRng::from_key(&[2004, 3, 17]);
        let mut b = SmallRng::from_key(&[2004, 3, 17]);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        // Neighbouring counter keys must give unrelated streams.
        let mut c = SmallRng::from_key(&[2004, 3, 18]);
        let mut d = SmallRng::from_key(&[2004, 4, 17]);
        let first: Vec<u64> = vec![
            SmallRng::from_key(&[2004, 3, 17]).next_u64(),
            c.next_u64(),
            d.next_u64(),
        ];
        assert_eq!(
            first.iter().collect::<std::collections::HashSet<_>>().len(),
            3,
            "adjacent keys collided: {first:?}"
        );
    }

    #[test]
    fn from_key_counter_grid_has_no_collisions() {
        // A small (round × process) grid of derived keys — the
        // stepper's actual usage — must be collision-free.
        let mut seen = std::collections::HashSet::new();
        for round in 0..64u64 {
            for process in 0..64u64 {
                assert!(
                    seen.insert(derive_stream_key(&[99, round, process])),
                    "collision at round {round} process {process}"
                );
            }
        }
    }

    #[test]
    fn from_key_streams_look_uniform() {
        // Cheap statistical sanity: one draw from each of 40k counter-keyed
        // streams should have balanced bits (the cross-stream analogue of
        // the per-stream statistics suite).
        let mut ones = [0u32; 64];
        let streams = 40_000u64;
        for i in 0..streams {
            let x = SmallRng::from_key(&[7, i]).next_u64();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((x >> bit) & 1) as u32;
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            let p = f64::from(count) / streams as f64;
            assert!((p - 0.5).abs() < 0.02, "bit {bit} biased: {p}");
        }
    }
}
