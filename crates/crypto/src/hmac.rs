//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1) built on [`crate::sha256`].
//!
//! Used by Drum for two purposes:
//!
//! * **source authentication** of data messages (a stand-in for the digital
//!   signatures the paper assumes), and
//! * deriving the keystream that seals randomly chosen port numbers in
//!   transit (see [`mod@crate::seal`]).
//!
//! # Examples
//!
//! ```
//! use drum_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     drum_crypto::hex::encode(&tag),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
//! );
//! ```

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, data)`.
///
/// Keys longer than the 64-byte block size are first hashed, per the RFC.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// A precomputed HMAC-SHA-256 key schedule.
///
/// [`HmacSha256::new`] pays two SHA-256 compression passes — one absorbing
/// the `ipad` key block, one the `opad` block — every time it is called. On
/// Drum's receive path that cost recurs per message even though each peer's
/// key is fixed, and it is exactly the kind of per-message work an attacker
/// gets to amplify with forged traffic. `HmacKey` performs both passes once
/// and caches the two mid-states; each subsequent MAC starts from cheap
/// state copies with no allocation, no key-block XOR and no pad
/// compressions.
///
/// Tags are bit-identical to the one-shot [`hmac_sha256`] path.
#[derive(Clone)]
pub struct HmacKey {
    /// Hash state after absorbing `key ^ ipad`.
    inner: Sha256,
    /// Hash state after absorbing `key ^ opad`.
    outer: Sha256,
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Derives the key schedule. Keys longer than the 64-byte block size are
    /// first hashed, per the RFC.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// MACs `data` under the cached schedule.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        self.mac_parts(&[data])
    }

    /// MACs the logical concatenation of `parts` without copying them into a
    /// contiguous buffer. Equivalent to `mac` over the concatenation.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut mac = self.begin();
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    /// Starts an incremental MAC from the cached schedule.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }
}

/// Incremental HMAC-SHA-256 computation.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer hash state (`key ^ opad` already absorbed), retained until
    /// finalization.
    outer: Sha256,
}

impl core::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    ///
    /// Rebuilds the key schedule from scratch; callers that MAC repeatedly
    /// under one key should cache an [`HmacKey`] and use [`HmacKey::begin`].
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Compares two MAC tags in constant time.
///
/// Prevents the (theoretical, in this simulated setting) timing side channel
/// of a short-circuiting comparison.
pub fn verify_tag(expected: &[u8; DIGEST_LEN], actual: &[u8; DIGEST_LEN]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaa; 131];
        let data = b"This is a test using a larger than block-size key and a larger than \
                     block-size data. The key needs to be hashed before being used by the \
                     HMAC algorithm.";
        let tag = hmac_sha256(&key, data);
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn cached_key_matches_oneshot() {
        let key = HmacKey::new(b"k");
        assert_eq!(key.mac(b"hello world"), hmac_sha256(b"k", b"hello world"));
        // Reuse does not perturb the cached schedule.
        assert_eq!(key.mac(b"hello world"), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn cached_key_long_key_matches_oneshot() {
        let long_key = [0xaa; 131];
        let key = HmacKey::new(&long_key);
        assert_eq!(key.mac(b"msg"), hmac_sha256(&long_key, b"msg"));
    }

    #[test]
    fn mac_parts_equals_concatenation() {
        let key = HmacKey::new(b"parts-key");
        let whole = key.mac(b"abcdef");
        assert_eq!(key.mac_parts(&[b"abc", b"def"]), whole);
        assert_eq!(key.mac_parts(&[b"", b"abcdef", b""]), whole);
        assert_eq!(key.mac_parts(&[b"a", b"b", b"c", b"d", b"e", b"f"]), whole);
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn verify_tag_accepts_equal_rejects_unequal() {
        let t1 = hmac_sha256(b"k", b"m");
        let mut t2 = t1;
        assert!(verify_tag(&t1, &t2));
        t2[31] ^= 1;
        assert!(!verify_tag(&t1, &t2));
    }
}
