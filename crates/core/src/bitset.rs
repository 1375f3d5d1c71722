//! A fixed-capacity word-packed bitset.
//!
//! The simulator tracks which of `n` processes hold the message `M` (and
//! which learned it this round) with per-process flags that are reset,
//! scanned and counted every round. Packing them 64 per word turns the
//! per-round reset into a short `memset`, the "how many delivered"
//! count into a handful of `popcnt`s, and the delivery scan into
//! per-word `trailing_zeros` walks that skip empty words entirely —
//! while [`BitSet::iter_ones`] still yields indices in ascending order,
//! which is what keeps fixed-seed traces byte-identical.

/// A fixed-capacity set of bit flags over indices `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a set of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set addresses zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears every bit (one pass over the packed words).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits, via per-word popcount.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits with index in `lo..hi`, via masked popcounts on
    /// the boundary words and whole-word popcounts in between.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len`.
    pub fn count_range(&self, lo: usize, hi: usize) -> usize {
        assert!(
            lo <= hi && hi <= self.len,
            "range {lo}..{hi} out of 0..{}",
            self.len
        );
        if lo == hi {
            return 0;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        // Mask of bits >= lo%64 in the first word, bits <= (hi-1)%64 in
        // the last.
        let lo_mask = !0u64 << (lo % 64);
        let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
        if first == last {
            return (self.words[first] & lo_mask & hi_mask).count_ones() as usize;
        }
        let mut total = (self.words[first] & lo_mask).count_ones() as usize;
        for w in &self.words[first + 1..last] {
            total += w.count_ones() as usize;
        }
        total + (self.words[last] & hi_mask).count_ones() as usize
    }

    /// The packed backing words, 64 bits per word, least-significant bit
    /// first; bits at `len` and above are always clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the set bits in ascending index order, skipping clear
    /// words wholesale (`trailing_zeros` within each word).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                std::iter::successors(Some(w), |&rest| {
                    let rest = rest & (rest - 1); // drop lowest set bit
                    (rest != 0).then_some(rest)
                })
                .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        assert!((0..130).all(|i| !b.get(i)));
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut b = BitSet::new(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            b.set(i);
            assert!(b.get(i));
        }
        assert!(!b.get(2));
        assert!(!b.get(126));
        assert_eq!(b.count_ones(), 8);
    }

    #[test]
    fn iter_ones_ascending_and_complete() {
        let mut b = BitSet::new(300);
        let want = [3usize, 5, 63, 64, 100, 191, 192, 255, 299];
        // Insert out of order; iteration must still be ascending.
        for &i in want.iter().rev() {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), want);
    }

    #[test]
    fn clear_all_resets_everything() {
        let mut b = BitSet::new(90);
        for i in 0..90 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 90);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_is_idempotent() {
        let mut b = BitSet::new(10);
        b.set(4);
        b.set(4);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn matches_vec_bool_reference() {
        // Randomized cross-check against the Vec<bool> it replaces.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..50 {
            let len = rng.random_range(1usize..400);
            let mut bits = BitSet::new(len);
            let mut reference = vec![false; len];
            for _ in 0..len {
                let i = rng.random_range(0..len);
                bits.set(i);
                reference[i] = true;
            }
            assert_eq!(bits.count_ones(), reference.iter().filter(|&&v| v).count());
            assert_eq!(
                bits.iter_ones().collect::<Vec<_>>(),
                (0..len).filter(|&i| reference[i]).collect::<Vec<_>>()
            );
            for (i, &want) in reference.iter().enumerate() {
                assert_eq!(bits.get(i), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitSet::new(64).get(64);
    }

    #[test]
    fn count_range_boundary_cases() {
        let mut b = BitSet::new(300);
        for i in [0, 1, 63, 64, 65, 127, 128, 191, 192, 299] {
            b.set(i);
        }
        assert_eq!(b.count_range(0, 300), b.count_ones());
        assert_eq!(b.count_range(0, 0), 0);
        assert_eq!(b.count_range(150, 150), 0);
        assert_eq!(b.count_range(0, 1), 1);
        assert_eq!(b.count_range(1, 63), 1);
        assert_eq!(b.count_range(63, 65), 2);
        assert_eq!(b.count_range(64, 192), 5);
        assert_eq!(b.count_range(299, 300), 1);
        // Sub-word range entirely inside one word.
        assert_eq!(b.count_range(65, 66), 1);
        assert_eq!(b.count_range(66, 127), 0);
    }

    #[test]
    #[should_panic(expected = "out of 0..")]
    fn count_range_rejects_out_of_bounds() {
        BitSet::new(100).count_range(50, 101);
    }

    #[test]
    fn words_exposes_packed_layout() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert_eq!(b.words(), &[1u64, 1u64, 2u64]);
    }

    #[test]
    fn prop_count_range_matches_a_naive_loop() {
        // Property test against the naive per-bit reference: random sets,
        // random ranges.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2004);
        for _ in 0..60 {
            let len = rng.random_range(1usize..500);
            let mut a = BitSet::new(len);
            let mut ra = vec![false; len];
            for _ in 0..len / 2 {
                let i = rng.random_range(0..len);
                a.set(i);
                ra[i] = true;
            }
            for _ in 0..10 {
                let lo = rng.random_range(0..=len);
                let hi = rng.random_range(lo..=len);
                assert_eq!(
                    a.count_range(lo, hi),
                    (lo..hi).filter(|&i| ra[i]).count(),
                    "len={len} range={lo}..{hi}"
                );
            }
        }
    }
}
