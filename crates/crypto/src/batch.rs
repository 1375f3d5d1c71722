//! Batched verification of authentication tags under flood fan-in.
//!
//! The attacks in the Drum paper (and the MABS line of work on batch
//! signatures) exploit the asymmetry between *sending* a fabricated message
//! (cheap) and *verifying* it (an HMAC, or worse a signature, per packet).
//! A blind flood, however, is highly redundant: the attacker replays the
//! same fabricated — or previously authentic — datagram at every victim,
//! many times per round, and `recvmmsg` hands the receiver whole batches of
//! identical `(source, seq, tag)` triples.
//!
//! [`BatchVerifier`] amortizes that redundancy. It keeps a round-scoped
//! verdict cache keyed on the `(source, seq, tag)` triple: the first
//! occurrence pays the full HMAC (`full_verifies`), every identical
//! repetition — whether a duplicate of a valid message, a replayed
//! authentic datagram, or a repeated forgery — reuses the cached verdict
//! (`batch_hits`). Candidates are ordered cheapest-reject-first: the
//! unknown-source key lookup (a hash probe) runs before any HMAC is
//! computed, so datagrams claiming a nonexistent source never reach the
//! compression function at all.
//!
//! Because the tag is an HMAC over `(source, seq, payload)`, two distinct
//! payloads colliding on the same triple is cryptographically negligible —
//! but the cache does not *assume* it: each cache entry records the payload
//! it was verified against, and a mismatching payload under the same triple
//! pays its own full verification. The verifier is therefore *exactly*
//! equivalent, accept/reject-wise, to calling [`crate::auth::verify`] per
//! datagram; it only changes how often the HMAC is computed.
//!
//! The cache is cleared at every round boundary ([`BatchVerifier::begin_round`])
//! so its memory is bounded by one round's reception budget of *unique*
//! messages, and so verdicts never outlive the key-store state they were
//! computed under.

use std::collections::HashMap;
use std::sync::Arc;

use crate::auth::{
    frame_job, msg_job, verify_frame_with, verify_with, AuthError, AuthTag, AUTH_TAG_LEN,
};
use crate::hmac::HmacKey;
use crate::keys::KeyStore;
use crate::multiway::MultiMac;

/// Which HMAC domain a cached verdict was computed under. Message and frame
/// tags are domain-separated on the wire (see [`crate::auth`]), so their
/// verdicts must never answer for each other even when the visible
/// `(source, seq, tag, payload)` quadruple coincides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Domain {
    Message,
    Frame,
}

/// Cache key: the wire-visible identity of a datagram's authentication
/// claim. Everything an attacker can replay verbatim hashes to the same key.
type TripleKey = (Domain, u64, u64, [u8; AUTH_TAG_LEN]);

/// Verdicts recorded under one triple. The `Vec` disambiguates the
/// (negligible, but handled) case of distinct payloads under one triple;
/// in practice it holds exactly one entry.
type Verdicts = Vec<(Vec<u8>, Result<(), AuthError>)>;

/// Counters harvested from a [`BatchVerifier`] in one read, so per-round
/// emission does not re-read the underlying tallies twice: how many HMACs
/// actually ran, how many verdicts the round cache served, and the exact
/// multiway-kernel utilization behind the HMACs that did run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// HMAC computations performed.
    pub full_verifies: u64,
    /// Verdicts served from the round cache (or aliased within one batch).
    pub batch_hits: u64,
    /// Compression-kernel invocations (8-wide or single-block) behind the
    /// full verifications.
    pub compress_calls: u64,
    /// Total kernel lanes those invocations advanced.
    pub lanes_filled: u64,
}

/// One datagram's authentication claim, for [`BatchVerifier::verify_many`]:
/// the same arguments `verify` / `verify_frame` take, by reference so a
/// whole poll-drain can be described without copying payloads.
#[derive(Debug, Clone, Copy)]
pub struct VerifyRequest<'a> {
    /// Frame-domain claim (`sender`/`nonce`/`body`) rather than a
    /// message-domain one (`source`/`seq`/`payload`). The engine only ever
    /// passes `false` now that the runtime has no frames (DESIGN.md §19);
    /// the field stays for `benchmark/`, which constructs this struct.
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

/// A round-scoped, payload-checked verdict cache over `(source, seq, tag)`
/// triples. See the [module docs](self) for the design rationale.
#[derive(Debug, Default)]
pub struct BatchVerifier {
    cache: HashMap<TripleKey, Verdicts>,
    /// Multiway engine for [`Self::verify_many`]; its lane counters are
    /// folded into [`MacCounters`] at each harvest.
    mm: MultiMac,
    full_verifies: u64,
    batch_hits: u64,
}

impl BatchVerifier {
    /// Creates an empty verifier with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the verdict cache at a round boundary. Counters are
    /// cumulative across rounds; they are harvested with
    /// [`take_counters`](Self::take_counters).
    pub fn begin_round(&mut self) {
        self.cache.clear();
    }

    /// Verifies one datagram's tag, reusing this round's cached verdict for
    /// identical `(source, seq, tag, payload)` fan-in.
    ///
    /// Accept/reject behavior is bit-identical to [`crate::auth::verify`];
    /// only the number of HMAC computations differs.
    ///
    /// # Errors
    ///
    /// * [`AuthError::UnknownSource`] — `source` has no key in `store`
    ///   (rejected before any HMAC work, and never cached: the lookup is
    ///   already as cheap as the cache probe).
    /// * [`AuthError::Forged`] — the tag does not match.
    pub fn verify(
        &mut self,
        store: &KeyStore,
        source: u64,
        seq: u64,
        payload: &[u8],
        tag: &AuthTag,
    ) -> Result<(), AuthError> {
        self.verify_in(Domain::Message, store, source, seq, payload, tag)
    }

    /// Verifies one *frame* tag (see [`crate::auth::verify_frame`]) with the
    /// same round-scoped caching as [`verify`](Self::verify). A flooded
    /// receiver replaying identical captured frames pays one HMAC per unique
    /// frame per round, no matter how many data messages each frame carries.
    ///
    /// # Errors
    ///
    /// * [`AuthError::UnknownSource`] — `sender` has no key in `store`.
    /// * [`AuthError::Forged`] — the tag does not match.
    pub fn verify_frame(
        &mut self,
        store: &KeyStore,
        sender: u64,
        nonce: u64,
        body: &[u8],
        tag: &AuthTag,
    ) -> Result<(), AuthError> {
        self.verify_in(Domain::Frame, store, sender, nonce, body, tag)
    }

    fn verify_in(
        &mut self,
        domain: Domain,
        store: &KeyStore,
        source: u64,
        seq: u64,
        payload: &[u8],
        tag: &AuthTag,
    ) -> Result<(), AuthError> {
        // Cheapest reject first: an unregistered source is a hash probe,
        // not an HMAC. Checking it before the cache also keeps the cache
        // free of entries that a concurrent key-store change could stale.
        let key = match store.auth_key_of(source) {
            Ok(key) => key,
            Err(e) => return Err(AuthError::UnknownSource(e)),
        };

        let triple = (domain, source, seq, tag.0);
        if let Some(entries) = self.cache.get(&triple) {
            for (seen_payload, verdict) in entries {
                if seen_payload.as_slice() == payload {
                    self.batch_hits += 1;
                    return *verdict;
                }
            }
        }

        let verdict = match domain {
            Domain::Message => verify_with(&key, source, seq, payload, tag),
            Domain::Frame => verify_frame_with(&key, source, seq, payload, tag),
        };
        self.full_verifies += 1;
        self.cache
            .entry(triple)
            .or_default()
            .push((payload.to_vec(), verdict));
        verdict
    }

    /// Verifies a whole drain's worth of claims in one pass, appending the
    /// per-request verdicts to `verdicts` in request order.
    ///
    /// Decision- and counter-identical to calling [`verify`](Self::verify) /
    /// [`verify_frame`](Self::verify_frame) per request in order: unknown
    /// sources reject before any HMAC work, cached verdicts (including ones
    /// established *earlier in this same batch*) count as `batch_hits`, and
    /// each unique claim pays exactly one `full_verifies`. The difference is
    /// that all unique claims accumulate into multiway lanes and run through
    /// the 8-lane kernel together instead of one HMAC at a time.
    pub fn verify_many(
        &mut self,
        store: &KeyStore,
        reqs: &[VerifyRequest<'_>],
        verdicts: &mut Vec<Result<(), AuthError>>,
    ) {
        verdicts.clear();
        // Per-request resolution: a verdict already known (cache hit or
        // unknown source), or a lane index into this batch's unique claims.
        enum Slot {
            Done(Result<(), AuthError>),
            Lane(u32),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(reqs.len());
        // Unique claims: the key (held to keep the schedule borrow alive
        // through the kernel call), the request carrying the bytes, and a
        // within-batch index of claims sharing a triple.
        let mut lane_keys: Vec<Arc<HmacKey>> = Vec::new();
        let mut lane_req: Vec<u32> = Vec::new();
        let mut pending: HashMap<TripleKey, Vec<u32>> = HashMap::new();

        for req in reqs {
            // Cheapest reject first, exactly as in `verify_in`.
            let key = match store.auth_key_of(req.source) {
                Ok(key) => key,
                Err(e) => {
                    slots.push(Slot::Done(Err(AuthError::UnknownSource(e))));
                    continue;
                }
            };
            let domain = if req.frame {
                Domain::Frame
            } else {
                Domain::Message
            };
            let triple = (domain, req.source, req.seq, req.tag.0);
            if let Some(entries) = self.cache.get(&triple) {
                if let Some((_, verdict)) = entries
                    .iter()
                    .find(|(seen, _)| seen.as_slice() == req.payload)
                {
                    self.batch_hits += 1;
                    slots.push(Slot::Done(*verdict));
                    continue;
                }
            }
            // A claim identical to an earlier one in this batch aliases to
            // its lane — sequentially, the earlier one would have populated
            // the cache by now, so this is a batch hit there too.
            if let Some(lanes) = pending.get(&triple) {
                if let Some(&lane) = lanes
                    .iter()
                    .find(|&&lane| reqs[lane_req[lane as usize] as usize].payload == req.payload)
                {
                    self.batch_hits += 1;
                    slots.push(Slot::Lane(lane));
                    continue;
                }
            }
            self.full_verifies += 1;
            let lane = lane_keys.len() as u32;
            lane_keys.push(key);
            lane_req.push((slots.len()) as u32);
            pending.entry(triple).or_default().push(lane);
            slots.push(Slot::Lane(lane));
        }

        // One multiway pass over the unique claims.
        let jobs: Vec<_> = lane_req
            .iter()
            .zip(lane_keys.iter())
            .map(|(&i, key)| {
                let req = &reqs[i as usize];
                if req.frame {
                    frame_job(key, req.source, req.seq, req.payload)
                } else {
                    msg_job(key, req.source, req.seq, req.payload)
                }
            })
            .collect();
        let lane_verdicts: Vec<Result<(), AuthError>> = self
            .mm
            .mac_many(&jobs)
            .iter()
            .zip(lane_req.iter())
            .map(|(expected, &i)| {
                if AuthTag(*expected).ct_eq(&reqs[i as usize].tag) {
                    Ok(())
                } else {
                    Err(AuthError::Forged)
                }
            })
            .collect();

        // Record each unique claim's verdict in the round cache (first-
        // occurrence order, as the sequential path would), then emit the
        // per-request verdicts.
        for (lane, &i) in lane_req.iter().enumerate() {
            let req = &reqs[i as usize];
            let domain = if req.frame {
                Domain::Frame
            } else {
                Domain::Message
            };
            let triple = (domain, req.source, req.seq, req.tag.0);
            self.cache
                .entry(triple)
                .or_default()
                .push((req.payload.to_vec(), lane_verdicts[lane]));
        }
        verdicts.extend(slots.iter().map(|slot| match slot {
            Slot::Done(v) => *v,
            Slot::Lane(lane) => lane_verdicts[*lane as usize],
        }));
    }

    /// HMAC computations performed since the last counter harvest.
    pub fn full_verifies(&self) -> u64 {
        self.full_verifies
    }

    /// Verdicts served from the round cache since the last counter harvest.
    pub fn batch_hits(&self) -> u64 {
        self.batch_hits
    }

    /// Harvests all counters in one read and resets them, for periodic
    /// export into a metrics registry.
    pub fn take_counters(&mut self) -> MacCounters {
        let lanes = self.mm.take_stats();
        let out = MacCounters {
            full_verifies: self.full_verifies,
            batch_hits: self.batch_hits,
            compress_calls: lanes.compress_calls,
            lanes_filled: lanes.lanes_filled,
        };
        self.full_verifies = 0;
        self.batch_hits = 0;
        out
    }

    /// Number of distinct `(source, seq, tag)` triples cached this round.
    pub fn cached_triples(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{sign, verify};
    use crate::keys::SecretKey;

    fn store_with(source: u64) -> (KeyStore, SecretKey) {
        let store = KeyStore::new(123);
        let key = store.register(source);
        (store, key)
    }

    #[test]
    fn identical_fan_in_verifies_once() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 7, b"payload");
        let mut bv = BatchVerifier::new();
        for _ in 0..64 {
            assert!(bv.verify(&store, 1, 7, b"payload", &tag).is_ok());
        }
        assert_eq!(bv.full_verifies(), 1);
        assert_eq!(bv.batch_hits(), 63);
    }

    #[test]
    fn repeated_forgery_rejected_from_cache() {
        let (store, _) = store_with(1);
        let mut bv = BatchVerifier::new();
        for _ in 0..10 {
            assert_eq!(
                bv.verify(&store, 1, 0, b"fake", &AuthTag::zero()),
                Err(AuthError::Forged)
            );
        }
        assert_eq!(bv.full_verifies(), 1);
        assert_eq!(bv.batch_hits(), 9);
    }

    #[test]
    fn unknown_source_rejected_without_hmac() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 9, 0, b"m");
        let mut bv = BatchVerifier::new();
        for _ in 0..5 {
            assert!(matches!(
                bv.verify(&store, 9, 0, b"m", &tag),
                Err(AuthError::UnknownSource(_))
            ));
        }
        assert_eq!(bv.full_verifies(), 0);
        assert_eq!(bv.batch_hits(), 0);
    }

    #[test]
    fn same_triple_different_payload_pays_its_own_verify() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 3, b"real");
        let mut bv = BatchVerifier::new();
        assert!(bv.verify(&store, 1, 3, b"real", &tag).is_ok());
        // An attacker grafting a different payload under the same triple
        // must not inherit the cached accept.
        assert_eq!(
            bv.verify(&store, 1, 3, b"graft", &tag),
            Err(AuthError::Forged)
        );
        assert!(bv.verify(&store, 1, 3, b"real", &tag).is_ok());
        assert_eq!(bv.full_verifies(), 2);
        assert_eq!(bv.batch_hits(), 1);
        assert_eq!(bv.cached_triples(), 1);
    }

    #[test]
    fn round_boundary_clears_the_cache_but_not_counters() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 0, b"m");
        let mut bv = BatchVerifier::new();
        assert!(bv.verify(&store, 1, 0, b"m", &tag).is_ok());
        bv.begin_round();
        assert_eq!(bv.cached_triples(), 0);
        assert!(bv.verify(&store, 1, 0, b"m", &tag).is_ok());
        assert_eq!(bv.full_verifies(), 2);
        assert_eq!(bv.batch_hits(), 0);
    }

    #[test]
    fn take_counters_resets() {
        let (store, key) = store_with(1);
        let tag = sign(&key, 1, 0, b"m");
        let mut bv = BatchVerifier::new();
        bv.verify(&store, 1, 0, b"m", &tag).unwrap();
        bv.verify(&store, 1, 0, b"m", &tag).unwrap();
        let c = bv.take_counters();
        assert_eq!((c.full_verifies, c.batch_hits), (1, 1));
        assert_eq!(bv.take_counters(), MacCounters::default());
    }

    #[test]
    fn frame_verdicts_cache_per_domain() {
        use crate::auth::sign_frame_with;
        let (store, key) = store_with(1);
        let schedule = key.hmac_key();
        let frame_tag = sign_frame_with(&schedule, 1, 7, b"body");
        let mut bv = BatchVerifier::new();
        // Identical frame fan-in pays one HMAC.
        for _ in 0..8 {
            assert!(bv.verify_frame(&store, 1, 7, b"body", &frame_tag).is_ok());
        }
        assert_eq!(bv.full_verifies(), 1);
        assert_eq!(bv.batch_hits(), 7);
        // The same quadruple replayed into the *message* verifier must not
        // inherit the frame verdict: it pays its own HMAC and is rejected.
        assert_eq!(
            bv.verify(&store, 1, 7, b"body", &frame_tag),
            Err(AuthError::Forged)
        );
        assert_eq!(bv.full_verifies(), 2);
        // Forged frames are rejected and the rejection is cached too.
        for _ in 0..3 {
            assert_eq!(
                bv.verify_frame(&store, 1, 9, b"body", &AuthTag::zero()),
                Err(AuthError::Forged)
            );
        }
        assert_eq!(bv.full_verifies(), 3);
    }

    /// The equivalence contract: on a hostile mixed batch (valid messages,
    /// forgeries, replays of authentic datagrams, duplicate fan-in, unknown
    /// sources), the batched path returns exactly the per-datagram verdicts.
    #[test]
    fn hostile_mixed_batch_matches_per_datagram_path() {
        let store = KeyStore::new(7);
        let k1 = store.register(1);
        let k2 = store.register(2);

        let real1 = sign(&k1, 1, 10, b"alpha");
        let real2 = sign(&k2, 2, 11, b"beta");
        let cross = sign(&k1, 2, 11, b"beta"); // wrong key for claimed source

        let batch: Vec<(u64, u64, &[u8], AuthTag)> = vec![
            (1, 10, b"alpha", real1),    // valid
            (1, 10, b"alpha", real1),    // duplicate fan-in
            (2, 11, b"beta", real2),     // valid, second source
            (1, 10, b"tampered", real1), // forged payload
            (2, 11, b"beta", cross),     // spoofed source
            (1, 10, b"alpha", real1),    // replayed authentic datagram
            (9, 10, b"alpha", real1),    // unknown source
            (1, 99, b"alpha", real1),    // wrong seq
            (1, 10, b"tampered", real1), // repeated forgery
        ];

        let mut bv = BatchVerifier::new();
        for (source, seq, payload, tag) in &batch {
            let batched = bv.verify(&store, *source, *seq, payload, tag);
            let reference = verify(&store, *source, *seq, payload, tag);
            assert_eq!(batched, reference);
        }
        // 5 unique registered-source claims paid an HMAC; 3 repeats hit the
        // cache; the unknown source touched neither counter.
        assert_eq!(bv.full_verifies(), 5);
        assert_eq!(bv.batch_hits(), 3);

        // The multiway batched entry point returns the same verdicts with
        // the same counters, whether the whole batch lands in one call or
        // the cache was warmed by earlier sequential calls.
        let reqs: Vec<VerifyRequest<'_>> = batch
            .iter()
            .map(|(source, seq, payload, tag)| VerifyRequest {
                frame: false,
                source: *source,
                seq: *seq,
                payload,
                tag: *tag,
            })
            .collect();
        let mut mv = BatchVerifier::new();
        let mut verdicts = Vec::new();
        mv.verify_many(&store, &reqs, &mut verdicts);
        for ((source, seq, payload, tag), got) in batch.iter().zip(verdicts.iter()) {
            assert_eq!(*got, verify(&store, *source, *seq, payload, tag));
        }
        let c = mv.take_counters();
        assert_eq!(c.full_verifies, 5);
        assert_eq!(c.batch_hits, 3);
        // 5 unique short claims = 10 blocks through the kernel.
        assert_eq!(c.lanes_filled, 10);

        // Warm-cache replay of the same batch: all registered claims hit.
        mv.verify_many(&store, &reqs, &mut verdicts);
        let c = mv.take_counters();
        assert_eq!(c.full_verifies, 0);
        assert_eq!(c.batch_hits, 8);
        assert_eq!(c.lanes_filled, 0);
    }

    #[test]
    fn verify_many_frames_and_messages_mixed() {
        use crate::auth::sign_frame_with;
        let (store, key) = store_with(1);
        let schedule = key.hmac_key();
        let msg_tag = sign(&key, 1, 7, b"bytes");
        let frame_tag = sign_frame_with(&schedule, 1, 7, b"bytes");
        // Same quadruple in both domains: each pays its own verify, and the
        // frame tag presented in the message domain is rejected.
        let reqs = [
            VerifyRequest {
                frame: false,
                source: 1,
                seq: 7,
                payload: b"bytes",
                tag: msg_tag,
            },
            VerifyRequest {
                frame: true,
                source: 1,
                seq: 7,
                payload: b"bytes",
                tag: frame_tag,
            },
            VerifyRequest {
                frame: false,
                source: 1,
                seq: 7,
                payload: b"bytes",
                tag: frame_tag,
            },
            VerifyRequest {
                frame: true,
                source: 1,
                seq: 7,
                payload: b"bytes",
                tag: frame_tag,
            },
            VerifyRequest {
                frame: false,
                source: 9,
                seq: 7,
                payload: b"bytes",
                tag: msg_tag,
            },
        ];
        let mut bv = BatchVerifier::new();
        let mut verdicts = Vec::new();
        bv.verify_many(&store, &reqs, &mut verdicts);
        assert_eq!(verdicts[0], Ok(()));
        assert_eq!(verdicts[1], Ok(()));
        assert_eq!(verdicts[2], Err(AuthError::Forged));
        assert_eq!(verdicts[3], Ok(())); // within-batch alias of [1]
        assert!(matches!(verdicts[4], Err(AuthError::UnknownSource(_))));
        let c = bv.take_counters();
        assert_eq!(c.full_verifies, 3);
        assert_eq!(c.batch_hits, 1);
    }
}
