//! Source authentication of multicast data messages.
//!
//! Every data message in Drum originates at exactly one source, and the
//! paper requires that sources "can be identified using standard
//! cryptographic techniques". This module provides that service: a source
//! tags each message with `HMAC(K_src, source || seq || payload)` using its
//! registered key; any holder of the [`KeyStore`] (i.e. any honest group
//! member, via the PKI stand-in) can verify the tag, and the adversary
//! cannot forge it.

use crate::hmac::{verify_tag, HmacKey};
use crate::keys::{KeyStore, SecretKey, UnknownPeerError};

/// Length in bytes of an authentication tag.
pub const AUTH_TAG_LEN: usize = 32;

/// Domain-separation prefix for data-message tags.
const MSG_DOMAIN: &[u8] = b"drum.msg.auth";

/// Domain-separation prefix for frame tags.
const FRAME_DOMAIN: &[u8] = b"drum.frame.auth";

/// An unforgeable tag binding a payload to its source and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthTag(pub [u8; AUTH_TAG_LEN]);

impl AuthTag {
    /// A tag of all zeros; convenient for tests of the rejection path.
    pub fn zero() -> Self {
        AuthTag([0u8; AUTH_TAG_LEN])
    }

    /// Constant-time equality, for verify paths comparing an expected tag
    /// against an attacker-supplied one.
    ///
    /// The derived `PartialEq` short-circuits at the first differing byte,
    /// which would (theoretically, in this simulated setting) leak how much
    /// of a forged tag's prefix is correct. Every verdict in this crate goes
    /// through this helper or the equivalent [`verify_tag`] instead.
    pub fn ct_eq(&self, other: &AuthTag) -> bool {
        verify_tag(&self.0, &other.0)
    }
}

/// Why verification of a message failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The claimed source has no registered key.
    UnknownSource(UnknownPeerError),
    /// The tag did not verify: forged or corrupted message.
    Forged,
}

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuthError::UnknownSource(e) => write!(f, "unknown source: {e}"),
            AuthError::Forged => write!(f, "message authentication failed"),
        }
    }
}

impl std::error::Error for AuthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuthError::UnknownSource(e) => Some(e),
            AuthError::Forged => None,
        }
    }
}

/// The domain string of a frame tag (`frame`) or a data-message tag. The
/// distinct strings mean a frame tag can never be replayed as a
/// data-message tag (or vice versa) even though both are HMACs under the
/// same per-member key over an attacker-visible triple.
fn domain(frame: bool) -> &'static [u8] {
    if frame {
        FRAME_DOMAIN
    } else {
        MSG_DOMAIN
    }
}

/// Streams `domain ‖ a ‖ b ‖ payload` through the cached key schedule. No
/// intermediate buffer is allocated — this runs once per received message,
/// so it must be as close to raw HMAC cost as possible.
fn tag_of(frame: bool, key: &HmacKey, a: u64, b: u64, payload: &[u8]) -> [u8; AUTH_TAG_LEN] {
    key.mac_parts(&[domain(frame), &a.to_be_bytes(), &b.to_be_bytes(), payload])
}

/// Constant-time check of a carried tag against the expected one.
fn check(expected: [u8; AUTH_TAG_LEN], tag: &AuthTag) -> Result<(), AuthError> {
    if verify_tag(&expected, &tag.0) {
        Ok(())
    } else {
        Err(AuthError::Forged)
    }
}

/// [`verify`] (or, with `frame`, [`verify_frame`]) in one function.
pub(crate) fn verify_in(
    frame: bool,
    store: &KeyStore,
    a: u64,
    b: u64,
    payload: &[u8],
    tag: &AuthTag,
) -> Result<(), AuthError> {
    let expected = store
        .with_key(a, |key| tag_of(frame, key.schedule(), a, b, payload))
        .map_err(AuthError::UnknownSource)?;
    check(expected, tag)
}

/// SHA-256 compressions one data-message tag costs under a cached key
/// schedule: the inner tail (domain ‖ source ‖ seq ‖ payload ‖ padding)
/// resumed from the ipad midstate, plus the one outer block. The engine
/// counts `crypto.compress_calls` with it.
pub fn msg_tag_compressions(payload_len: usize) -> u64 {
    tag_compressions(false, payload_len)
}

/// [`msg_tag_compressions`] for either domain.
pub(crate) fn tag_compressions(frame: bool, payload_len: usize) -> u64 {
    // 0x80 marker + 8-byte length field close the inner stream.
    let inner = domain(frame).len() + 16 + payload_len + 9;
    inner.div_ceil(crate::sha256::BLOCK_LEN) as u64 + 1
}

/// Computes the authentication tag for a `(source, seq, payload)` triple
/// using a precomputed key schedule (see [`SecretKey::hmac_key`]).
pub fn sign_with(auth_key: &HmacKey, source: u64, seq: u64, payload: &[u8]) -> AuthTag {
    AuthTag(tag_of(false, auth_key, source, seq, payload))
}

/// Computes the authentication tag for a `(source, seq, payload)` triple
/// using the source's own key.
///
/// Uses the schedule the key carries ([`SecretKey::schedule`]).
pub fn sign(source_key: &SecretKey, source: u64, seq: u64, payload: &[u8]) -> AuthTag {
    sign_with(source_key.schedule(), source, seq, payload)
}

/// Verifies a tag against a precomputed key schedule for `source`.
///
/// # Errors
///
/// * [`AuthError::Forged`] — the tag does not match.
pub fn verify_with(
    auth_key: &HmacKey,
    source: u64,
    seq: u64,
    payload: &[u8],
    tag: &AuthTag,
) -> Result<(), AuthError> {
    check(tag_of(false, auth_key, source, seq, payload), tag)
}

/// Verifies a tag against the key registered for `source` in `store`.
///
/// MACs under the schedule the stored key carries ([`SecretKey::schedule`]),
/// so no verification pays key-schedule cost.
///
/// # Errors
///
/// * [`AuthError::UnknownSource`] — `source` has no key in `store`.
/// * [`AuthError::Forged`] — the tag does not match.
pub fn verify(
    store: &KeyStore,
    source: u64,
    seq: u64,
    payload: &[u8],
    tag: &AuthTag,
) -> Result<(), AuthError> {
    verify_in(false, store, source, seq, payload, tag)
}

/// Computes the tag a gossip *frame* carries: one HMAC by the frame's
/// sender over the whole frame body. Domain-separated from [`sign_with`],
/// so the two tag families cannot be replayed into each other's verifiers.
///
/// The runtime retired frames (DESIGN.md §19: a frame tag proves only that
/// *a member* built the frame, not that the sources inside are genuine).
/// The frame-domain functions stay because `benchmark/`'s probes and the
/// hostile-frame tests call them.
pub fn sign_frame_with(auth_key: &HmacKey, sender: u64, nonce: u64, body: &[u8]) -> AuthTag {
    AuthTag(tag_of(true, auth_key, sender, nonce, body))
}

/// Verifies a frame tag against a precomputed key schedule for `sender`.
///
/// # Errors
///
/// * [`AuthError::Forged`] — the tag does not match.
pub fn verify_frame_with(
    auth_key: &HmacKey,
    sender: u64,
    nonce: u64,
    body: &[u8],
    tag: &AuthTag,
) -> Result<(), AuthError> {
    check(tag_of(true, auth_key, sender, nonce, body), tag)
}

/// Verifies a frame tag against the key registered for `sender` in `store`.
///
/// # Errors
///
/// * [`AuthError::UnknownSource`] — `sender` has no key in `store`.
/// * [`AuthError::Forged`] — the tag does not match.
pub fn verify_frame(
    store: &KeyStore,
    sender: u64,
    nonce: u64,
    body: &[u8],
    tag: &AuthTag,
) -> Result<(), AuthError> {
    verify_in(true, store, sender, nonce, body, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(source: u64) -> (KeyStore, SecretKey) {
        let store = KeyStore::new(123);
        let key = store.register(source);
        (store, key)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 42, b"payload");
        assert!(verify(&store, 1, 42, b"payload", &tag).is_ok());
    }

    #[test]
    fn cached_schedule_paths_match_oneshot() {
        let (store, key) = store_with(1);
        let schedule = key.hmac_key();
        let tag = sign(&key, 1, 42, b"payload");
        assert_eq!(sign_with(&schedule, 1, 42, b"payload"), tag);
        assert!(verify_with(&schedule, 1, 42, b"payload", &tag).is_ok());
        assert_eq!(
            verify_with(&schedule, 1, 42, b"other", &tag),
            Err(AuthError::Forged)
        );
        // Store-level verify goes through the stored key's schedule.
        assert!(verify(&store, 1, 42, b"payload", &tag).is_ok());
        assert!(verify(&store, 1, 42, b"payload", &tag).is_ok());
    }

    #[test]
    fn wrong_payload_rejected() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 42, b"payload");
        assert_eq!(
            verify(&store, 1, 42, b"other", &tag),
            Err(AuthError::Forged)
        );
    }

    #[test]
    fn wrong_seq_rejected() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 42, b"payload");
        assert_eq!(
            verify(&store, 1, 43, b"payload", &tag),
            Err(AuthError::Forged)
        );
    }

    #[test]
    fn frame_sign_verify_round_trip() {
        let (store, key) = store_with(1);
        let tag = sign_frame_with(&key.hmac_key(), 1, 7, b"frame body");
        assert!(verify_frame(&store, 1, 7, b"frame body", &tag).is_ok());
        assert_eq!(
            verify_frame(&store, 1, 7, b"tampered", &tag),
            Err(AuthError::Forged)
        );
        assert_eq!(
            verify_frame(&store, 1, 8, b"frame body", &tag),
            Err(AuthError::Forged)
        );
        assert!(matches!(
            verify_frame(&store, 9, 7, b"frame body", &tag),
            Err(AuthError::UnknownSource(_))
        ));
    }

    #[test]
    fn frame_and_message_domains_are_separated() {
        // A frame tag over (sender, nonce, body) must not verify as a data
        // message tag over the same (source, seq, payload) triple, and vice
        // versa — otherwise a captured frame could be replayed as a signed
        // data message attributed to an honest sender.
        let (store, key) = store_with(1);
        let schedule = key.hmac_key();
        let frame_tag = sign_frame_with(&schedule, 1, 7, b"bytes");
        let msg_tag = sign_with(&schedule, 1, 7, b"bytes");
        assert_ne!(frame_tag, msg_tag);
        assert_eq!(
            verify(&store, 1, 7, b"bytes", &frame_tag),
            Err(AuthError::Forged)
        );
        assert_eq!(
            verify_frame(&store, 1, 7, b"bytes", &msg_tag),
            Err(AuthError::Forged)
        );
    }

    #[test]
    fn spoofed_source_rejected() {
        let store = KeyStore::new(5);
        let key1 = store.register(1);
        store.register(2);
        // Adversary signs with key 1 but claims source 2.
        let tag = sign(&key1, 2, 0, b"m");
        assert_eq!(verify(&store, 2, 0, b"m", &tag), Err(AuthError::Forged));
    }

    #[test]
    fn unknown_source_rejected() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 9, 0, b"m");
        assert!(matches!(
            verify(&store, 9, 0, b"m", &tag),
            Err(AuthError::UnknownSource(_))
        ));
    }

    #[test]
    fn zero_tag_rejected() {
        let (store, _) = store_with(1);
        assert_eq!(
            verify(&store, 1, 0, b"m", &AuthTag::zero()),
            Err(AuthError::Forged)
        );
    }

    #[test]
    fn msg_tag_compressions_matches_the_kernel_count() {
        let (_, key) = store_with(1);
        let schedule = key.hmac_key();
        let counted = |sign: fn(&HmacKey, u64, u64, &[u8]) -> AuthTag, payload: &[u8]| {
            let before = crate::sha256::COMPRESSIONS.with(|n| n.get());
            sign(&schedule, 1, 2, payload);
            crate::sha256::COMPRESSIONS.with(|n| n.get()) - before
        };
        // Every padding boundary of the first three inner blocks.
        for len in 0..=160usize {
            let payload = vec![0x5a; len];
            assert_eq!(
                msg_tag_compressions(len),
                counted(sign_with, &payload),
                "len {len}"
            );
            let frame = counted(sign_frame_with, &payload);
            assert_eq!(tag_compressions(true, len), frame, "frame len {len}");
        }
        // The benchmark's 50-byte payload: two inner blocks and the outer.
        assert_eq!(msg_tag_compressions(50), 3);
    }

    #[test]
    fn ct_eq_agrees_with_derived_eq() {
        let (_, key) = store_with(1);
        let tag = sign(&key, 1, 0, b"m");
        assert!(tag.ct_eq(&tag));
        // Flip each byte position in turn: ct_eq must reject no matter
        // where the difference sits (prefix, middle, last byte).
        for i in 0..AUTH_TAG_LEN {
            let mut other = tag;
            other.0[i] ^= 0x80;
            assert!(!tag.ct_eq(&other), "flip at {i}");
            assert_ne!(tag, other);
        }
        assert!(!tag.ct_eq(&AuthTag::zero()));
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let e = AuthError::UnknownSource(UnknownPeerError { peer: 3 });
        assert!(e.to_string().contains('3'));
        assert!(e.source().is_some());
        assert!(AuthError::Forged.source().is_none());
    }
}
