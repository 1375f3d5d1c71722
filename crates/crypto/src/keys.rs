//! Key management for the Drum protocol.
//!
//! The paper assumes a public-key infrastructure: data-message sources are
//! authenticated with signatures and the randomly chosen gossip ports are
//! encrypted under the recipient's public key. No asymmetric-crypto crate is
//! available offline, so this module provides the **functional equivalent**
//! for the modeled adversary (who can fabricate and snoop messages but holds
//! no group member's key):
//!
//! * every process owns a random 256-bit [`SecretKey`];
//! * a [`KeyStore`] plays the role of the PKI — honest processes use it to
//!   seal data *for* a recipient or verify tags *from* a source, while the
//!   adversary (by assumption) has no access to it.
//!
//! This substitution is documented in `DESIGN.md`; it preserves the two
//! properties the protocol actually relies on: unforgeability of sources and
//! confidentiality of sealed ports.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::hmac::HmacKey;

/// A 256-bit symmetric secret owned by one process.
///
/// The key carries its HMAC key schedule — the hash states after the
/// `ipad` and `opad` blocks — computed once when the key is made. Every MAC
/// under the key (signatures, seals, opens, derivations) resumes from those
/// states, so none of them pays the two key-schedule compressions.
#[derive(Clone)]
pub struct SecretKey {
    bytes: [u8; 32],
    schedule: HmacKey,
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &Self) -> bool {
        // The schedule is a function of the bytes.
        self.bytes == other.bytes
    }
}

impl Eq for SecretKey {}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

impl SecretKey {
    /// Generates a fresh random key from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Builds a key from raw bytes (e.g. for tests or key exchange).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey {
            schedule: HmacKey::new(&bytes),
            bytes,
        }
    }

    /// Derives a sub-key bound to a usage `label` (domain separation).
    pub fn derive(&self, label: &[u8]) -> SecretKey {
        Self::from_bytes(self.schedule.mac(label))
    }

    /// Raw key bytes. Use sparingly; prefer the higher-level APIs.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The key's HMAC key schedule, computed when the key was made.
    pub fn schedule(&self) -> &HmacKey {
        &self.schedule
    }

    /// An owned copy of [`SecretKey::schedule`], for callers that keep the
    /// schedule apart from the key.
    pub fn hmac_key(&self) -> HmacKey {
        self.schedule.clone()
    }
}

/// Error returned when a [`KeyStore`] lookup fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownPeerError {
    /// The peer identifier that had no registered key.
    pub peer: u64,
}

impl core::fmt::Display for UnknownPeerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no key registered for peer {}", self.peer)
    }
}

impl std::error::Error for UnknownPeerError {}

/// A shared registry of per-process keys, standing in for a PKI.
///
/// Cloning a `KeyStore` is cheap and yields a handle to the same underlying
/// registry, so one store can be shared by all honest processes of a test or
/// experiment. Each registered [`SecretKey`] carries its own HMAC schedule,
/// so a re-registered peer's MACs follow the new key with nothing to
/// invalidate.
///
/// # Examples
///
/// ```
/// use drum_crypto::keys::KeyStore;
///
/// let store = KeyStore::new(7);
/// store.register(1);
/// store.register(2);
/// assert!(store.contains(1));
/// assert!(!store.contains(3));
/// ```
#[derive(Clone, Debug)]
pub struct KeyStore {
    inner: Arc<RwLock<HashMap<u64, SecretKey>>>,
    seed_rng: Arc<RwLock<SmallRng>>,
}

impl KeyStore {
    /// Creates an empty key store; `seed` makes key generation deterministic
    /// for reproducible experiments.
    pub fn new(seed: u64) -> Self {
        KeyStore {
            inner: Arc::new(RwLock::new(HashMap::new())),
            seed_rng: Arc::new(RwLock::new(SmallRng::seed_from_u64(seed))),
        }
    }

    // Key material is valid even if another thread panicked mid-operation,
    // so lock poisoning is recovered rather than propagated.
    fn read_keys(&self) -> RwLockReadGuard<'_, HashMap<u64, SecretKey>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_keys(&self) -> RwLockWriteGuard<'_, HashMap<u64, SecretKey>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a fresh key for `peer`, replacing any existing one.
    /// Returns the generated key.
    pub fn register(&self, peer: u64) -> SecretKey {
        let key = {
            let mut rng = self
                .seed_rng
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            SecretKey::generate(&mut *rng)
        };
        self.write_keys().insert(peer, key.clone());
        key
    }

    /// Registers an externally generated key for `peer`.
    pub fn register_key(&self, peer: u64, key: SecretKey) {
        self.write_keys().insert(peer, key);
    }

    /// Whether a key is registered for `peer`.
    pub fn contains(&self, peer: u64) -> bool {
        self.read_keys().contains_key(&peer)
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.read_keys().len()
    }

    /// Whether no peers are registered.
    pub fn is_empty(&self) -> bool {
        self.read_keys().is_empty()
    }

    /// Fetches the key for `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPeerError`] if `peer` was never registered.
    pub fn key_of(&self, peer: u64) -> Result<SecretKey, UnknownPeerError> {
        self.with_key(peer, SecretKey::clone)
    }

    /// Runs `f` on the key registered for `peer` without copying it: the
    /// receive path's lookup, which MACs under the key's embedded schedule.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPeerError`] if `peer` was never registered.
    pub(crate) fn with_key<T>(
        &self,
        peer: u64,
        f: impl FnOnce(&SecretKey) -> T,
    ) -> Result<T, UnknownPeerError> {
        self.read_keys()
            .get(&peer)
            .map(f)
            .ok_or(UnknownPeerError { peer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;

    #[test]
    fn register_and_lookup() {
        let store = KeyStore::new(1);
        let k = store.register(42);
        assert_eq!(store.key_of(42).unwrap(), k);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn unknown_peer_is_error() {
        let store = KeyStore::new(1);
        let err = store.key_of(9).unwrap_err();
        assert_eq!(err.peer, 9);
        assert!(err.to_string().contains('9'));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KeyStore::new(99);
        let b = KeyStore::new(99);
        assert_eq!(a.register(1), b.register(1));
    }

    #[test]
    fn distinct_peers_distinct_keys() {
        let store = KeyStore::new(3);
        assert_ne!(store.register(1), store.register(2));
    }

    #[test]
    fn clones_share_state() {
        let store = KeyStore::new(1);
        let clone = store.clone();
        store.register(7);
        assert!(clone.contains(7));
    }

    #[test]
    fn derive_is_label_separated() {
        let mut rng = SmallRng::seed_from_u64(0);
        let k = SecretKey::generate(&mut rng);
        assert_ne!(k.derive(b"a").as_bytes(), k.derive(b"b").as_bytes());
    }

    #[test]
    fn a_stored_key_carries_the_schedule_of_its_bytes() {
        let store = KeyStore::new(11);
        let secret = store.register(4);
        let stored = store.key_of(4).unwrap();
        assert_eq!(
            stored.schedule().mac(b"m"),
            hmac_sha256(stored.as_bytes(), b"m")
        );
        assert_eq!(
            store.with_key(4, |k| k.schedule().mac(b"m")),
            Ok(secret.hmac_key().mac(b"m"))
        );
        assert_eq!(
            SecretKey::from_bytes([1u8; 32]).derive(b"label").as_bytes(),
            &hmac_sha256(&[1u8; 32], b"label")
        );
    }

    #[test]
    fn a_rekeyed_peer_is_looked_up_under_its_new_schedule() {
        let store = KeyStore::new(11);
        let old = store.register(4);
        let new_secret = store.register(4);
        let mac = |store: &KeyStore| store.with_key(4, |k| k.schedule().mac(b"m")).unwrap();
        assert_ne!(mac(&store), old.schedule().mac(b"m"));
        assert_eq!(mac(&store), new_secret.schedule().mac(b"m"));

        store.register_key(4, SecretKey::from_bytes([9u8; 32]));
        assert_eq!(mac(&store), hmac_sha256(&[9u8; 32], b"m"));
        assert_eq!(store.with_key(5, |_| ()), Err(UnknownPeerError { peer: 5 }));
    }

    #[test]
    fn secret_key_debug_hides_material() {
        let k = SecretKey::from_bytes([7u8; 32]);
        assert_eq!(format!("{k:?}"), "SecretKey(..)");
    }
}
