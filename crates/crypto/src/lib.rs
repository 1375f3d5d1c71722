//! Cryptographic substrate for the Drum DoS-resistant gossip protocol.
//!
//! The Drum paper (Badishi, Keidar, Sasson — DSN 2004) assumes two standard
//! cryptographic services:
//!
//! 1. **Source authentication** — each multicast data message can be
//!    attributed unforgeably to its originator ([`auth`]).
//! 2. **Port concealment** — the randomly chosen ports carried in
//!    pull-requests and push-offers are encrypted so the attacker cannot
//!    target them ([`mod@seal`]).
//!
//! Both are built on a from-scratch, test-vector-verified SHA-256
//! ([`sha256`]) and HMAC-SHA-256 ([`hmac`]); key distribution is modeled by
//! a [`keys::KeyStore`] standing in for the paper's PKI (see `DESIGN.md`
//! for the substitution rationale).
//!
//! # Examples
//!
//! Sealing a random port for a gossip partner:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use drum_crypto::keys::KeyStore;
//! use drum_crypto::seal::{seal_port, open_port};
//!
//! let pki = KeyStore::new(42);
//! let partner_key = pki.register(7);
//!
//! // Sender side: conceal the ephemeral port.
//! let sealed = seal_port(&pki.key_of(7)?, /*nonce=*/ 1, 50123)?;
//!
//! // Recipient side: recover it.
//! assert_eq!(open_port(&partner_key, &sealed)?, 50123);
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied crate-wide and allowed in exactly one place: the
// `sha256::shani` module, the leaf kernel that calls x86-64 intrinsics
// behind a runtime CPU-feature check. Everything else in this crate is safe
// Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod batch;
pub mod hex;
pub mod hmac;
pub mod keys;
pub mod multiway;
pub mod seal;
pub mod sha256;

pub use auth::{
    sign, sign_frame_with, sign_with, verify, verify_frame, verify_frame_with, verify_with,
    AuthError, AuthTag, AUTH_TAG_LEN,
};
pub use batch::{BatchVerifier, MacCounters, VerifyRequest};
pub use hmac::HmacKey;
pub use keys::{KeyStore, SecretKey, UnknownPeerError};
pub use seal::{open_port, seal_port, SealError, SealedPort};

#[cfg(test)]
mod proptests {
    use crate::hmac::{hmac_sha256, HmacKey};
    use crate::keys::SecretKey;
    use crate::seal::{open_port, seal_port};
    use crate::sha256::Sha256;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};

    fn key_bytes(g: &mut Gen) -> [u8; 32] {
        let mut key = [0u8; 32];
        for b in &mut key {
            *b = g.u8();
        }
        key
    }

    #[test]
    fn sha256_incremental_equals_oneshot() {
        check(
            "sha256_incremental_equals_oneshot",
            Config::default(),
            |g| {
                let data = g.bytes(0..512);
                let split = g.usize_in(0..512).min(data.len());
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                prop_assert_eq!(h.finalize(), Sha256::digest(&data));
                Ok(())
            },
        );
    }

    #[test]
    fn hmac_deterministic() {
        check("hmac_deterministic", Config::default(), |g| {
            let key = g.bytes(0..100);
            let data = g.bytes(0..200);
            prop_assert_eq!(hmac_sha256(&key, &data), hmac_sha256(&key, &data));
            Ok(())
        });
    }

    #[test]
    fn cached_schedule_hmac_equals_oneshot() {
        check(
            "cached_schedule_hmac_equals_oneshot",
            Config::default(),
            |g| {
                let key = g.bytes(0..100);
                let data = g.bytes(0..256);
                let split = g.usize_in(0..257).min(data.len());
                let schedule = HmacKey::new(&key);
                let expected = hmac_sha256(&key, &data);
                // One-shot over the cached schedule.
                prop_assert_eq!(schedule.mac(&data), expected);
                // Streamed as two arbitrary parts.
                prop_assert_eq!(
                    schedule.mac_parts(&[&data[..split], &data[split..]]),
                    expected
                );
                // Incremental context started from the cached schedule.
                let mut mac = schedule.begin();
                mac.update(&data[..split]);
                mac.update(&data[split..]);
                prop_assert_eq!(mac.finalize(), expected);
                Ok(())
            },
        );
    }

    #[test]
    fn seal_round_trips() {
        check("seal_round_trips", Config::default(), |g| {
            let k = SecretKey::from_bytes(key_bytes(g));
            let (nonce, port) = (g.u64(), g.u16());
            let sealed = seal_port(&k, nonce, port).unwrap();
            prop_assert_eq!(open_port(&k, &sealed), Ok(port));
            Ok(())
        });
    }

    #[test]
    fn seal_tamper_detected() {
        check("seal_tamper_detected", Config::default(), |g| {
            let k = SecretKey::from_bytes(key_bytes(g));
            let (nonce, port) = (g.u64(), g.u16());
            let flip = g.u8() | 1; // non-zero XOR mask
            let mut sealed = seal_port(&k, nonce, port).unwrap();
            // Any one of the ciphertext and tag bytes.
            let i = g.index(2 + 32);
            match i.checked_sub(2) {
                None => sealed.ciphertext[i] ^= flip,
                Some(t) => sealed.tag[t] ^= flip,
            }
            prop_assert!(open_port(&k, &sealed).is_err());
            Ok(())
        });
    }

    #[test]
    fn hex_round_trips() {
        check("hex_round_trips", Config::default(), |g| {
            let data = g.bytes(0..64);
            prop_assert_eq!(
                crate::hex::decode(&crate::hex::encode(&data)).unwrap(),
                data
            );
            Ok(())
        });
    }
}
