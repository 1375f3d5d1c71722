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
use crate::multiway::{MacJob, MultiMac};

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
    /// of a forged tag's prefix is correct. Every verdict in this module —
    /// scalar and multiway — goes through this helper or the equivalent
    /// [`verify_tag`] instead.
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

/// Streams `"drum.msg.auth" ‖ source ‖ seq ‖ payload` through the cached
/// key schedule. No intermediate buffer is allocated — this runs once per
/// received message, so it must be as close to raw HMAC cost as possible.
fn tag_of(key: &HmacKey, source: u64, seq: u64, payload: &[u8]) -> [u8; AUTH_TAG_LEN] {
    key.mac_parts(&[
        MSG_DOMAIN,
        &source.to_be_bytes(),
        &seq.to_be_bytes(),
        payload,
    ])
}

/// Frame-domain variant of [`tag_of`]: `"drum.frame.auth" ‖ sender ‖ nonce
/// ‖ body`. The distinct domain string means a frame tag can never be
/// replayed as a data-message tag (or vice versa) even though both are
/// HMACs under the same per-member key over an attacker-visible triple.
fn frame_tag_of(key: &HmacKey, sender: u64, nonce: u64, body: &[u8]) -> [u8; AUTH_TAG_LEN] {
    key.mac_parts(&[
        FRAME_DOMAIN,
        &sender.to_be_bytes(),
        &nonce.to_be_bytes(),
        body,
    ])
}

/// SHA-256 compressions one data-message tag costs under a cached key
/// schedule: the inner tail (domain ‖ source ‖ seq ‖ payload ‖ padding)
/// resumed from the ipad midstate, plus the one outer block. Callers of the
/// scalar [`verify_with`] path use it to keep the `crypto.compress_calls`
/// counters in the units the multiway kernel reports.
pub fn msg_tag_compressions(payload_len: usize) -> u64 {
    // 0x80 marker + 8-byte length field close the inner stream.
    let inner = MSG_DOMAIN.len() + 16 + payload_len + 9;
    inner.div_ceil(crate::sha256::BLOCK_LEN) as u64 + 1
}

/// Builds the multiway job computing the same tag as [`sign_with`] /
/// [`verify_with`] for a `(source, seq, payload)` triple.
pub fn msg_job<'a>(key: &'a HmacKey, source: u64, seq: u64, payload: &'a [u8]) -> MacJob<'a> {
    MacJob {
        key,
        domain: MSG_DOMAIN,
        a: source,
        b: seq,
        payload,
    }
}

/// Builds the multiway job computing the same tag as [`sign_frame_with`] /
/// [`verify_frame_with`] for a `(sender, nonce, body)` triple.
pub fn frame_job<'a>(key: &'a HmacKey, sender: u64, nonce: u64, body: &'a [u8]) -> MacJob<'a> {
    MacJob {
        key,
        domain: FRAME_DOMAIN,
        a: sender,
        b: nonce,
        payload: body,
    }
}

/// Signs every job through the multiway kernel, appending the tags to `out`
/// in job order. Bit-identical to calling [`sign_with`] /
/// [`sign_frame_with`] per job.
pub fn sign_many(mm: &mut MultiMac, jobs: &[MacJob<'_>], out: &mut Vec<AuthTag>) {
    out.clear();
    out.extend(mm.mac_many(jobs).iter().map(|d| AuthTag(*d)));
}

/// Verifies `tags[i]` against the expected tag of `jobs[i]` for every job,
/// appending per-job verdicts to `verdicts` in job order. Comparison is
/// constant-time per tag ([`AuthTag::ct_eq`]).
///
/// # Panics
///
/// Panics if `jobs` and `tags` differ in length.
pub fn verify_many(
    mm: &mut MultiMac,
    jobs: &[MacJob<'_>],
    tags: &[AuthTag],
    verdicts: &mut Vec<Result<(), AuthError>>,
) {
    assert_eq!(jobs.len(), tags.len());
    verdicts.clear();
    verdicts.extend(
        mm.mac_many(jobs)
            .iter()
            .zip(tags.iter())
            .map(|(expected, tag)| {
                if AuthTag(*expected).ct_eq(tag) {
                    Ok(())
                } else {
                    Err(AuthError::Forged)
                }
            }),
    );
}

/// Computes the authentication tag for a `(source, seq, payload)` triple
/// using a precomputed key schedule (see [`SecretKey::hmac_key`]).
pub fn sign_with(auth_key: &HmacKey, source: u64, seq: u64, payload: &[u8]) -> AuthTag {
    AuthTag(tag_of(auth_key, source, seq, payload))
}

/// Computes the authentication tag for a `(source, seq, payload)` triple
/// using the source's own key.
///
/// Derives the key schedule on every call; hot paths should cache it with
/// [`SecretKey::hmac_key`] and use [`sign_with`].
pub fn sign(source_key: &SecretKey, source: u64, seq: u64, payload: &[u8]) -> AuthTag {
    sign_with(&source_key.hmac_key(), source, seq, payload)
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
    let expected = tag_of(auth_key, source, seq, payload);
    if verify_tag(&expected, &tag.0) {
        Ok(())
    } else {
        Err(AuthError::Forged)
    }
}

/// Verifies a tag against the key registered for `source` in `store`.
///
/// Uses the store's cached per-peer key schedule ([`KeyStore::auth_key_of`]),
/// so repeated verifications for one source pay no key-schedule cost.
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
    let key = store
        .auth_key_of(source)
        .map_err(AuthError::UnknownSource)?;
    verify_with(&key, source, seq, payload, tag)
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
    AuthTag(frame_tag_of(auth_key, sender, nonce, body))
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
    let expected = frame_tag_of(auth_key, sender, nonce, body);
    if verify_tag(&expected, &tag.0) {
        Ok(())
    } else {
        Err(AuthError::Forged)
    }
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
    let key = store
        .auth_key_of(sender)
        .map_err(AuthError::UnknownSource)?;
    verify_frame_with(&key, sender, nonce, body, tag)
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
        // Store-level verify goes through the cached per-peer schedule.
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
        let mut mm = MultiMac::scalar();
        // Every padding boundary of the first three inner blocks.
        for len in 0..=160usize {
            let payload = vec![0x5a; len];
            mm.mac_many(&[msg_job(&schedule, 1, 2, &payload)]);
            let counted = mm.take_stats();
            assert_eq!(msg_tag_compressions(len), counted.lanes_filled, "len {len}");
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
    fn sign_many_matches_scalar_sign() {
        let (_, key) = store_with(1);
        let schedule = key.hmac_key();
        let payloads: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; i as usize * 3]).collect();
        let jobs: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 2 == 0 {
                    msg_job(&schedule, 1, i as u64, p)
                } else {
                    frame_job(&schedule, 1, i as u64, p)
                }
            })
            .collect();
        let mut mm = crate::multiway::MultiMac::lanes();
        let mut tags = Vec::new();
        sign_many(&mut mm, &jobs, &mut tags);
        for (i, (tag, p)) in tags.iter().zip(payloads.iter()).enumerate() {
            let want = if i % 2 == 0 {
                sign_with(&schedule, 1, i as u64, p)
            } else {
                sign_frame_with(&schedule, 1, i as u64, p)
            };
            assert_eq!(*tag, want, "job {i}");
        }

        // verify_many accepts the genuine tags and pinpoints a forgery.
        let mut verdicts = Vec::new();
        verify_many(&mut mm, &jobs, &tags, &mut verdicts);
        assert!(verdicts.iter().all(|v| v.is_ok()));
        tags[7].0[0] ^= 1;
        verify_many(&mut mm, &jobs, &tags, &mut verdicts);
        for (i, v) in verdicts.iter().enumerate() {
            if i == 7 {
                assert_eq!(*v, Err(AuthError::Forged));
            } else {
                assert!(v.is_ok());
            }
        }
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
