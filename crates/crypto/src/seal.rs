//! Sealing of randomly chosen port numbers.
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
//! ct        = port (2 bytes, big-endian) XOR keystream
//! tag       = HMAC(K_r, "drum.seal.tag" || nonce || ct)
//! ```
//!
//! The adversary holds no group member's key, so sealed ports are both
//! confidential and tamper-evident for the threat model of the paper. A
//! [`SealedPort`] is a fixed-size `Copy` value: sealing, decoding and
//! cloning one allocates nothing.
//!
//! Both MACs resume from the schedule the recipient's [`SecretKey`] carries
//! ([`SecretKey::schedule`]) and stream their parts without a staging
//! buffer. Each input fits one block behind the `ipad` state, so a seal or
//! an open costs 4 SHA-256 compressions — one inner and one outer block per
//! MAC — where a one-shot HMAC would pay 8; the bytes are the one-shot
//! construction's.

use crate::hmac::verify_tag;
use crate::keys::SecretKey;

/// A sealed (encrypted + authenticated) 16-bit port together with its
/// nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedPort {
    /// Caller-supplied uniquifier (e.g. round number and message counter).
    pub nonce: u64,
    /// The port's two big-endian bytes, encrypted.
    pub ciphertext: [u8; 2],
    /// HMAC tag binding nonce and ciphertext to the recipient key.
    pub tag: [u8; 32],
}

/// Errors from [`open_port`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Authentication failed: wrong key, wrong nonce or tampered data.
    BadTag,
}

impl core::fmt::Display for SealError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SealError::BadTag => write!(f, "seal authentication failed"),
        }
    }
}

impl std::error::Error for SealError {}

fn keystream(key: &SecretKey, nonce: u64) -> [u8; 32] {
    key.schedule()
        .mac_parts(&[b"drum.seal.ks", &nonce.to_be_bytes()])
}

fn auth_tag(key: &SecretKey, nonce: u64, ct: &[u8; 2]) -> [u8; 32] {
    key.schedule()
        .mac_parts(&[b"drum.seal.tag", &nonce.to_be_bytes(), ct])
}

/// Seals `port` for the holder of `recipient_key`.
///
/// `nonce` must not repeat for the same recipient key while the sealed port
/// matters (Drum uses the round number and an in-round counter); reuse leaks
/// the XOR of the two ports, as with any stream cipher.
///
/// # Errors
///
/// Never fails; the `Result` is part of the published signature.
pub fn seal_port(
    recipient_key: &SecretKey,
    nonce: u64,
    port: u16,
) -> Result<SealedPort, SealError> {
    let (pt, ks) = (port.to_be_bytes(), keystream(recipient_key, nonce));
    let ciphertext = [pt[0] ^ ks[0], pt[1] ^ ks[1]];
    Ok(SealedPort {
        nonce,
        ciphertext,
        tag: auth_tag(recipient_key, nonce, &ciphertext),
    })
}

/// Opens a sealed port with the recipient's key.
///
/// # Errors
///
/// Returns [`SealError::BadTag`] if the tag does not verify (wrong key or
/// tampering).
pub fn open_port(recipient_key: &SecretKey, sealed: &SealedPort) -> Result<u16, SealError> {
    let expected = auth_tag(recipient_key, sealed.nonce, &sealed.ciphertext);
    if !verify_tag(&expected, &sealed.tag) {
        return Err(SealError::BadTag);
    }
    let (ct, ks) = (sealed.ciphertext, keystream(recipient_key, sealed.nonce));
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
        for port in [0, 1, 0x8000, u16::MAX] {
            let sealed = seal_port(&k, 7, port).unwrap();
            assert_eq!(open_port(&k, &sealed), Ok(port));
        }
    }

    #[test]
    fn port_round_trip() {
        let k = key(2);
        let sealed = seal_port(&k, 1, 54321).unwrap();
        assert_eq!(open_port(&k, &sealed).unwrap(), 54321);
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal_port(&key(1), 7, 4242).unwrap();
        assert_eq!(open_port(&key(2), &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key(1);
        let mut sealed = seal_port(&k, 7, 4242).unwrap();
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open_port(&k, &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key(1);
        let mut sealed = seal_port(&k, 7, 4242).unwrap();
        sealed.nonce += 1;
        assert_eq!(open_port(&k, &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let k = key(3);
        let sealed = seal_port(&k, 9, 0).unwrap();
        // A zero port must not yield a zero ciphertext.
        assert_ne!(sealed.ciphertext, [0, 0]);
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let k = key(4);
        let a = seal_port(&k, 1, 4242).unwrap();
        let b = seal_port(&k, 2, 4242).unwrap();
        assert_ne!(a.ciphertext, b.ciphertext);
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
    fn one_shot_seal(key: &SecretKey, nonce: u64, port: u16) -> SealedPort {
        use crate::hmac::hmac_sha256;
        let ks = hmac_sha256(
            key.as_bytes(),
            &[&b"drum.seal.ks"[..], &nonce.to_be_bytes()].concat(),
        );
        let pt = port.to_be_bytes();
        let ciphertext = [pt[0] ^ ks[0], pt[1] ^ ks[1]];
        let tag = hmac_sha256(
            key.as_bytes(),
            &[&b"drum.seal.tag"[..], &nonce.to_be_bytes(), &ciphertext].concat(),
        );
        SealedPort {
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
        // A forged port is refused after the tag alone: half the cost.
        let k = key(8);
        let mut forged = seal_port(&k, 3, 4_000).unwrap();
        forged.tag[0] ^= 1;
        let before = compressions();
        assert_eq!(open_port(&k, &forged), Err(SealError::BadTag));
        assert_eq!(compressions() - before, 2);
    }

    #[test]
    fn error_display() {
        assert!(SealError::BadTag.to_string().contains("authentication"));
    }
}
