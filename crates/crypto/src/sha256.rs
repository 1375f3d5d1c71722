//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The Drum paper assumes standard cryptographic primitives for source
//! authentication and for concealing the randomly chosen ports. No
//! third-party cryptography crates are available in this build environment,
//! so the primitive is implemented here and verified against the official
//! FIPS test vectors in the unit tests below.
//!
//! # Examples
//!
//! ```
//! use drum_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     drum_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Internal block size of SHA-256 in bytes (also the HMAC block size).
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 prime numbers.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and obtain the digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`Sha256::digest`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length padding).
    len: u64,
    /// Partially filled block.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha256")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the 32-byte digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Fill a partially filled block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Compress full blocks directly from the input slice — no staging
        // copy through `buf`.
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(&mut self.state, block);
        }
        // Stash the tail.
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80 terminator, zeros, then the bit length — one extra
        // block when fewer than 9 bytes remain in the current one.
        let mut block = [0u8; BLOCK_LEN];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len + 1 > BLOCK_LEN - 8 {
            compress(&mut self.state, &block);
            block = [0u8; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The SHA-256 compression function over one 64-byte block.
///
/// A free function over the state words (rather than a method) so callers
/// can compress blocks borrowed from other `Sha256` fields — or straight
/// from caller-owned input slices — without aliasing conflicts.
///
/// Dispatches to the x86-64 SHA-NI implementation when the CPU supports it
/// (the feature probe is cached by `std`), falling back to the portable
/// software rounds below. Both produce identical digests.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), BLOCK_LEN);
    #[cfg(test)]
    COMPRESSIONS.with(|n| n.set(n.get() + 1));
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        shani::compress(state, block);
        return;
    }
    compress_soft(state, block);
}

#[cfg(test)]
thread_local! {
    /// Compressions run on this thread, so tests can check a block count
    /// against real hashing.
    pub(crate) static COMPRESSIONS: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// Portable software implementation of the compression function.
fn compress_soft(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), BLOCK_LEN);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-256 compression via the x86-64 SHA new instructions.
///
/// The one `unsafe` island in this crate (see the crate-level lint note):
/// the intrinsics themselves are `unsafe` only because they require the
/// `sha`/`ssse3`/`sse4.1` CPU features, which [`available`] probes at
/// runtime before any call. The round sequence follows Intel's published
/// SHA extensions reference flow; the FIPS 180-4 vectors in the test module
/// below cover it on hardware that has the extension.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU can run [`compress`]. `std` caches the CPUID probe,
    /// so steady-state cost is one atomic load.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses one 64-byte block into `state`.
    ///
    /// Panics in debug builds if called without [`available`]; in release the
    /// caller's feature check is the guarantee the intrinsics need.
    #[inline]
    pub fn compress(state: &mut [u32; 8], block: &[u8]) {
        debug_assert!(available());
        // SAFETY: the dispatcher only reaches this after `available()`
        // confirmed the sha/ssse3/sse4.1 features at runtime.
        unsafe { compress_block(state, block) }
    }

    /// Four consecutive round constants as one vector, lowest lane first.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn k4(i: usize) -> __m128i {
        _mm_set_epi32(
            K[i + 3] as i32,
            K[i + 2] as i32,
            K[i + 1] as i32,
            K[i] as i32,
        )
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_block(state: &mut [u32; 8], block: &[u8]) {
        debug_assert_eq!(block.len(), BLOCK_LEN);
        // Byte shuffle turning the big-endian message words little-endian.
        let mask = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );

        // Load state and rearrange the (a..h) words into the ABEF/CDGH lane
        // order the sha256rnds2 instruction works in.
        let tmp = _mm_loadu_si128(state.as_ptr().cast());
        let mut state1 = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32(tmp, 0xb1); // CDAB
        state1 = _mm_shuffle_epi32(state1, 0x1b); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, state1, 8); // ABEF
        state1 = _mm_blend_epi16(state1, tmp, 0xf0); // CDGH

        let abef_save = state0;
        let cdgh_save = state1;

        // Each sha256rnds2 performs two rounds; a shuffled reissue of the
        // same wk vector covers the other two of each four-round group.
        macro_rules! rounds4 {
            ($wk:expr) => {{
                let wk = $wk;
                state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
                state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }

        // Rounds 0-15: message words straight from the block.
        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask);
        rounds4!(_mm_add_epi32(msg0, k4(0)));
        rounds4!(_mm_add_epi32(msg1, k4(4)));
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);
        rounds4!(_mm_add_epi32(msg2, k4(8)));
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);
        rounds4!(_mm_add_epi32(msg3, k4(12)));

        // Rounds 16-63: extend the schedule four words at a time. Each step
        // finishes w[i..i+4] from the three prior vectors, then runs the
        // four rounds that consume it.
        macro_rules! extend_rounds4 {
            ($cur:ident, $prev1:ident, $prev2:ident, $base:expr) => {{
                let tmp = _mm_alignr_epi8($prev1, $prev2, 4);
                $cur = _mm_sha256msg2_epu32(_mm_add_epi32($cur, tmp), $prev1);
                rounds4!(_mm_add_epi32($cur, k4($base)));
            }};
        }
        extend_rounds4!(msg0, msg3, msg2, 16);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);
        extend_rounds4!(msg1, msg0, msg3, 20);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);
        extend_rounds4!(msg2, msg1, msg0, 24);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);
        extend_rounds4!(msg3, msg2, msg1, 28);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);
        extend_rounds4!(msg0, msg3, msg2, 32);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);
        extend_rounds4!(msg1, msg0, msg3, 36);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);
        extend_rounds4!(msg2, msg1, msg0, 40);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);
        extend_rounds4!(msg3, msg2, msg1, 44);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);
        extend_rounds4!(msg0, msg3, msg2, 48);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);
        extend_rounds4!(msg1, msg0, msg3, 52);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);
        extend_rounds4!(msg2, msg1, msg0, 56);
        extend_rounds4!(msg3, msg2, msg1, 60);
        let _ = (msg0, msg1, msg2, msg3);

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);

        // Undo the ABEF/CDGH arrangement and store.
        let tmp = _mm_shuffle_epi32(state0, 0x1b); // FEBA
        state1 = _mm_shuffle_epi32(state1, 0xb1); // DCHG
        state0 = _mm_blend_epi16(tmp, state1, 0xf0); // DCBA
        state1 = _mm_alignr_epi8(state1, tmp, 8); // HGFE
        _mm_storeu_si128(state.as_mut_ptr().cast(), state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), state1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&Sha256::digest(data))
    }

    // Pins the portable fallback directly: on SHA-NI hardware the public API
    // never reaches `compress_soft`, so exercise it by hand with the padded
    // single-block message for "abc".
    #[test]
    fn soft_compress_matches_fips_abc() {
        let mut block = [0u8; BLOCK_LEN];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[BLOCK_LEN - 8..].copy_from_slice(&24u64.to_be_bytes());
        let mut state = H0;
        compress_soft(&mut state, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        assert_eq!(
            hex::encode(&out),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    // The dispatcher and the portable rounds must agree bit-for-bit on
    // arbitrary blocks and chained states (trivially true without SHA-NI).
    #[test]
    fn soft_and_dispatched_compress_agree() {
        let mut block = [0u8; BLOCK_LEN];
        let mut fast = H0;
        let mut soft = H0;
        for round in 0u32..50 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (i as u32).wrapping_mul(37).wrapping_add(round * 101) as u8;
            }
            compress(&mut fast, &block);
            compress_soft(&mut soft, &block);
            assert_eq!(fast, soft, "diverged at round {round}");
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(
            hex_digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn many_small_updates_match_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(core::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"drum"), Sha256::digest(b"drun"));
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Sha256::new()).is_empty());
    }
}
