//! Sealing of randomly chosen port numbers (and other small payloads).
//!
//! Drum transmits the random ports chosen for push-replies, pull-replies and
//! data messages inside pull-requests and push-offers. The paper encrypts
//! them under the recipient's public key so an eavesdropping attacker cannot
//! learn which ephemeral ports to flood. Here the seal is an authenticated
//! stream cipher keyed with the *recipient's* secret (obtained through the
//! [`crate::keys::KeyStore`] standing in for the PKI):
//!
//! ```text
//! keystream = HMAC(K_r, "drum.seal.ks" || nonce)
//! ct        = plaintext XOR keystream
//! tag       = HMAC(K_r, "drum.seal.tag" || nonce || ct)
//! ```
//!
//! The adversary holds no group member's key, so sealed ports are both
//! confidential and tamper-evident for the threat model of the paper.
//!
//! Both MACs resume from the schedule the recipient's [`SecretKey`] carries
//! ([`SecretKey::schedule`]) and stream their parts without a staging
//! buffer. Each input fits one block behind the `ipad` state, so a seal or
//! an open costs 4 SHA-256 compressions — one inner and one outer block per
//! MAC — where a one-shot HMAC would pay 8; the bytes are the one-shot
//! construction's.

use crate::hmac::verify_tag;
use crate::keys::SecretKey;

/// Maximum plaintext length a single seal supports (one keystream block).
pub const MAX_SEALED_LEN: usize = 32;

/// Length of the authentication tag appended to a sealed payload.
pub const TAG_LEN: usize = 32;

/// A sealed (encrypted + authenticated) payload together with its nonce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBox {
    /// Caller-supplied uniquifier (e.g. round number and message counter).
    pub nonce: u64,
    /// Ciphertext, same length as the plaintext.
    pub ciphertext: Vec<u8>,
    /// HMAC tag binding nonce and ciphertext to the recipient key.
    pub tag: [u8; TAG_LEN],
}

/// Errors from [`open`]/[`seal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Plaintext longer than [`MAX_SEALED_LEN`].
    TooLong {
        /// Requested length.
        len: usize,
    },
    /// Authentication failed: wrong key, wrong nonce or tampered data.
    BadTag,
}

impl core::fmt::Display for SealError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealError::TooLong { len } => {
                write!(
                    f,
                    "plaintext of {len} bytes exceeds seal capacity {MAX_SEALED_LEN}"
                )
            }
            SealError::BadTag => write!(f, "seal authentication failed"),
        }
    }
}

impl std::error::Error for SealError {}

fn keystream(key: &SecretKey, nonce: u64) -> [u8; 32] {
    key.schedule()
        .mac_parts(&[b"drum.seal.ks", &nonce.to_be_bytes()])
}

fn auth_tag(key: &SecretKey, nonce: u64, ct: &[u8]) -> [u8; TAG_LEN] {
    key.schedule()
        .mac_parts(&[b"drum.seal.tag", &nonce.to_be_bytes(), ct])
}

/// Seals `plaintext` for the holder of `recipient_key`.
///
/// `nonce` must not repeat for the same recipient key while the sealed value
/// matters (Drum uses the round number and an in-round counter); reuse leaks
/// the XOR of the two plaintexts, as with any stream cipher.
///
/// # Errors
///
/// Returns [`SealError::TooLong`] if `plaintext` exceeds [`MAX_SEALED_LEN`].
pub fn seal(
    recipient_key: &SecretKey,
    nonce: u64,
    plaintext: &[u8],
) -> Result<SealedBox, SealError> {
    if plaintext.len() > MAX_SEALED_LEN {
        return Err(SealError::TooLong {
            len: plaintext.len(),
        });
    }
    let ks = keystream(recipient_key, nonce);
    let ciphertext: Vec<u8> = plaintext
        .iter()
        .zip(ks.iter())
        .map(|(p, k)| p ^ k)
        .collect();
    let tag = auth_tag(recipient_key, nonce, &ciphertext);
    Ok(SealedBox {
        nonce,
        ciphertext,
        tag,
    })
}

/// Opens a [`SealedBox`] with the recipient's key.
///
/// # Errors
///
/// Returns [`SealError::BadTag`] if the tag does not verify (wrong key or
/// tampering).
pub fn open(recipient_key: &SecretKey, sealed: &SealedBox) -> Result<Vec<u8>, SealError> {
    let expected = auth_tag(recipient_key, sealed.nonce, &sealed.ciphertext);
    if !verify_tag(&expected, &sealed.tag) {
        return Err(SealError::BadTag);
    }
    let ks = keystream(recipient_key, sealed.nonce);
    Ok(sealed
        .ciphertext
        .iter()
        .zip(ks.iter())
        .map(|(c, k)| c ^ k)
        .collect())
}

/// Convenience: seals a 16-bit port number.
///
/// # Errors
///
/// Never fails in practice (2 bytes < capacity); the `Result` mirrors
/// [`seal`].
pub fn seal_port(recipient_key: &SecretKey, nonce: u64, port: u16) -> Result<SealedBox, SealError> {
    seal(recipient_key, nonce, &port.to_be_bytes())
}

/// Convenience: opens a sealed 16-bit port number.
///
/// # Errors
///
/// Returns [`SealError::BadTag`] on authentication failure or if the
/// plaintext is not exactly two bytes.
pub fn open_port(recipient_key: &SecretKey, sealed: &SealedBox) -> Result<u16, SealError> {
    let expected = auth_tag(recipient_key, sealed.nonce, &sealed.ciphertext);
    let ct: [u8; 2] = match sealed.ciphertext.as_slice().try_into() {
        Ok(ct) if verify_tag(&expected, &sealed.tag) => ct,
        _ => return Err(SealError::BadTag),
    };
    let ks = keystream(recipient_key, sealed.nonce);
    Ok(u16::from_be_bytes([ct[0] ^ ks[0], ct[1] ^ ks[1]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn key(byte: u8) -> SecretKey {
        SecretKey::from_bytes([byte; 32])
    }

    #[test]
    fn round_trip() {
        let k = key(1);
        let sealed = seal(&k, 7, b"hello").unwrap();
        assert_eq!(open(&k, &sealed).unwrap(), b"hello");
    }

    #[test]
    fn port_round_trip() {
        let k = key(2);
        let sealed = seal_port(&k, 1, 54321).unwrap();
        assert_eq!(open_port(&k, &sealed).unwrap(), 54321);
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(1), 7, b"hello").unwrap();
        assert_eq!(open(&key(2), &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key(1);
        let mut sealed = seal(&k, 7, b"hello").unwrap();
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open(&k, &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key(1);
        let mut sealed = seal(&k, 7, b"hello").unwrap();
        sealed.nonce += 1;
        assert_eq!(open(&k, &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let k = key(3);
        let sealed = seal(&k, 9, b"\x00\x00").unwrap();
        // A zero plaintext must not yield a zero ciphertext.
        assert_ne!(sealed.ciphertext, vec![0, 0]);
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let k = key(4);
        let a = seal(&k, 1, b"port").unwrap();
        let b = seal(&k, 2, b"port").unwrap();
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn too_long_rejected() {
        let k = key(5);
        let data = [0u8; MAX_SEALED_LEN + 1];
        assert_eq!(seal(&k, 0, &data), Err(SealError::TooLong { len: 33 }));
    }

    #[test]
    fn empty_plaintext_ok() {
        let k = key(6);
        let sealed = seal(&k, 0, b"").unwrap();
        assert_eq!(open(&k, &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn random_ports_round_trip() {
        let mut rng = SmallRng::seed_from_u64(11);
        let k = SecretKey::generate(&mut rng);
        for nonce in 0..100u64 {
            let port = (nonce * 577 % 65536) as u16;
            let sealed = seal_port(&k, nonce, port).unwrap();
            assert_eq!(open_port(&k, &sealed).unwrap(), port);
        }
    }

    /// The one-shot construction the module doc spells out, on raw key
    /// bytes.
    fn one_shot_seal(key: &SecretKey, nonce: u64, port: u16) -> SealedBox {
        use crate::hmac::hmac_sha256;
        let ks = hmac_sha256(
            key.as_bytes(),
            &[&b"drum.seal.ks"[..], &nonce.to_be_bytes()].concat(),
        );
        let pt = port.to_be_bytes();
        let ciphertext = vec![pt[0] ^ ks[0], pt[1] ^ ks[1]];
        let tag = hmac_sha256(
            key.as_bytes(),
            &[&b"drum.seal.tag"[..], &nonce.to_be_bytes(), &ciphertext].concat(),
        );
        SealedBox {
            nonce,
            ciphertext,
            tag,
        }
    }

    fn compressions() -> u64 {
        crate::sha256::COMPRESSIONS.with(|n| n.get())
    }

    #[test]
    fn ports_seal_to_the_one_shot_bytes_in_four_compressions_each_way() {
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..64u64 {
            let k = SecretKey::generate(&mut rng);
            let (nonce, port) = ((i << 20) | i, (i * 1_009 % 65_536) as u16);
            let want = one_shot_seal(&k, nonce, port);

            let before = compressions();
            let sealed = seal_port(&k, nonce, port).unwrap();
            assert_eq!(compressions() - before, 4, "seal");
            assert_eq!(sealed, want);

            let before = compressions();
            assert_eq!(open_port(&k, &sealed), Ok(port));
            assert_eq!(compressions() - before, 4, "open");
        }
        // A forged box is refused after the tag alone: half the cost.
        let k = key(8);
        let mut forged = seal_port(&k, 3, 4_000).unwrap();
        forged.tag[0] ^= 1;
        let before = compressions();
        assert_eq!(open_port(&k, &forged), Err(SealError::BadTag));
        assert_eq!(compressions() - before, 2);
        // A box of the wrong length is no port, whatever its tag.
        let long = seal(&k, 3, b"abc").unwrap();
        assert_eq!(open_port(&k, &long), Err(SealError::BadTag));
    }

    #[test]
    fn error_display() {
        assert!(SealError::BadTag.to_string().contains("authentication"));
        assert!(SealError::TooLong { len: 40 }.to_string().contains("40"));
    }
}
