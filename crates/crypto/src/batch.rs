//! Scalar shim of the retired batch verifier, kept only for `benchmark/`
//! (ROADMAP item 5, "Library pins").

use crate::auth::{self, AuthError, AuthTag};
use crate::keys::KeyStore;

/// What a [`BatchVerifier`] hashed since the last harvest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// SHA-256 blocks.
    pub lanes_filled: u64,
}

/// One datagram's authentication claim.
#[derive(Debug, Clone, Copy)]
pub struct VerifyRequest<'a> {
    /// Frame domain (sender, nonce, body) rather than message domain.
    pub frame: bool,
    /// Claimed source (or frame sender).
    pub source: u64,
    /// Sequence number (or frame nonce).
    pub seq: u64,
    /// The authenticated bytes.
    pub payload: &'a [u8],
    /// The tag the datagram carried.
    pub tag: AuthTag,
}

/// Verifies each request once, on the single-block path engines use.
#[derive(Debug, Default)]
pub struct BatchVerifier(MacCounters);

impl BatchVerifier {
    /// A verifier with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: there is no per-round state.
    pub fn begin_round(&mut self) {}

    /// Replaces `verdicts` with one verdict per request, in request order.
    pub fn verify_many(
        &mut self,
        store: &KeyStore,
        reqs: &[VerifyRequest<'_>],
        verdicts: &mut Vec<Result<(), AuthError>>,
    ) {
        verdicts.clear();
        for r in reqs {
            let verdict = auth::verify_in(r.frame, store, r.source, r.seq, r.payload, &r.tag);
            if !matches!(verdict, Err(AuthError::UnknownSource(_))) {
                self.0.lanes_filled += auth::tag_compressions(r.frame, r.payload.len());
            }
            verdicts.push(verdict);
        }
    }

    /// Returns the counters and resets them.
    pub fn take_counters(&mut self) -> MacCounters {
        core::mem::take(&mut self.0)
    }
}
