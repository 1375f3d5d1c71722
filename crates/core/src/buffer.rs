//! The per-process message buffer.
//!
//! Upon delivering a new data message a process "saves it in its message
//! buffer for a number of rounds" (§4); in the measurement configuration
//! messages are purged after 10 rounds and at most 80 randomly chosen new
//! messages are sent to each gossip partner per round (§8.2).
//!
//! # Steady-state layout
//!
//! Under a sustained multi-message stream the buffer is on the per-round hot
//! path three times: `purge` at every round boundary, `increment_hops` right
//! after it, and `select_missing` once per gossip partner. The store is
//! therefore an *age-bucketed ring*: one bucket per insertion round, oldest
//! at the front. Purging pops whole expired buckets off the front — O(1)
//! amortized per stored message, never a full scan — and a `HashMap` index
//! from [`MessageId`] to `(round, slot)` keeps `contains`/`get` O(1).
//!
//! The digest a pull-request or push-reply advertises is kept *live*: a
//! [`Digest`] of the buffered ids updated at every insert and purge, so
//! [`MessageBuffer::digest`] clones it instead of re-sorting every buffered
//! id two or three times a round. Purging removes oldest-first, so a
//! source's interval shrinks from its low end in place.
//!
//! The "seen" digest (which prevents re-delivery of purged messages that
//! gossip back in) is unbounded by default, matching the paper's model where
//! a process remembers everything it ever delivered. For long soaks,
//! [`MessageBuffer::with_seen_window`] bounds it to a round window: ids
//! older than the window are evicted via [`Digest::remove`], so memory is
//! O(active window) instead of O(history).

use rand::Rng;
use std::collections::{HashMap, VecDeque};

use crate::digest::Digest;
use crate::ids::{MessageId, Round};
use crate::message::DataMessage;

/// Fixed per-message bookkeeping charged to [`MessageBuffer::bytes`] on top
/// of the payload: the `DataMessage` struct itself plus the index entry.
const MESSAGE_OVERHEAD_BYTES: usize =
    std::mem::size_of::<DataMessage>() + std::mem::size_of::<(MessageId, (Round, u32))>();

/// One insertion round's worth of messages.
#[derive(Debug, Clone, Default)]
struct Bucket {
    round: Round,
    slots: Vec<DataMessage>,
    /// Ids inserted this round, remembered for windowed-seen eviction.
    /// Only populated when a seen window is configured.
    seen_ids: Vec<MessageId>,
}

/// A bounded, age-purged store of data messages.
///
/// # Examples
///
/// ```
/// use drum_core::bytes::Bytes;
/// use drum_core::buffer::MessageBuffer;
/// use drum_core::ids::{MessageId, ProcessId, Round};
/// use drum_core::message::DataMessage;
/// use drum_crypto::auth::AuthTag;
///
/// let mut buf = MessageBuffer::new(10);
/// let msg = DataMessage {
///     id: MessageId::new(ProcessId(1), 0),
///     hops: 0,
///     payload: Bytes::from_static(b"hello"),
///     auth: AuthTag::zero(),
/// };
/// assert!(buf.insert(msg, Round(0)));
/// assert_eq!(buf.len(), 1);
/// buf.purge(Round(11));
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageBuffer {
    /// Age-bucketed ring: buckets sorted by insertion round, oldest first.
    buckets: VecDeque<Bucket>,
    /// O(1) membership: id → (insertion round, slot within that bucket).
    index: HashMap<MessageId, (Round, u32)>,
    /// Digest of everything inserted within the seen window (everything
    /// *ever* inserted when the window is 0 = unbounded), used to avoid
    /// re-delivering a purged message that gossips back in.
    seen: Digest,
    /// Digest of the currently *buffered* ids, maintained wherever `index`
    /// changes so [`Self::digest`] is a clone instead of a rebuild.
    live: Digest,
    /// Messages are purged once `now - inserted >= max_age` rounds.
    max_age: u64,
    /// Seen ids are evicted once `now - inserted >= seen_window` rounds;
    /// 0 keeps them forever (the default, matching the paper's model).
    seen_window: u64,
    /// Approximate heap footprint of the buffered messages.
    bytes: usize,
    /// High-water mark of [`Self::bytes`] since creation.
    bytes_peak: usize,
    /// Messages visited by `purge` since creation (each visit removes the
    /// message, so this is also the cumulative purge count). Diagnostic for
    /// the `max_age = 0` fast path, which must do no iteration work at all.
    purge_visits: u64,
    /// Buckets retired by `purge`, cleared and kept for reuse so a
    /// steady-state round (one bucket retired, one opened) recycles the
    /// slot capacity instead of reallocating it. Bounded by the number of
    /// buckets ever concurrently live (≤ max(max_age, seen_window) + 1).
    spare: Vec<Bucket>,
}

impl MessageBuffer {
    /// Creates a buffer that retains messages for `max_age` rounds.
    /// `max_age = 0` means "never purge" (the analysis/simulation setting
    /// where `M` is never purged).
    pub fn new(max_age: u64) -> Self {
        MessageBuffer {
            max_age,
            ..Self::default()
        }
    }

    /// Creates a buffer whose *seen* digest is also round-windowed: ids are
    /// forgotten `seen_window` rounds after insertion, bounding memory to
    /// the active window instead of the whole stream history.
    ///
    /// A message that gossips back in after its seen entry expired is
    /// re-delivered, so the window must comfortably exceed the time a
    /// message can still be in flight (several multiples of `max_age`).
    /// The default (and `seen_window = 0`) keeps seen ids forever.
    ///
    /// # Panics
    ///
    /// Panics if `seen_window` is non-zero but smaller than `max_age`: the
    /// seen set would forget a message while it is still buffered.
    pub fn with_seen_window(max_age: u64, seen_window: u64) -> Self {
        assert!(
            seen_window == 0 || seen_window >= max_age,
            "seen window ({seen_window}) must cover the retention age ({max_age})"
        );
        MessageBuffer {
            max_age,
            seen_window,
            ..Self::default()
        }
    }

    /// Position of the bucket for `round`, or where one would be inserted.
    fn bucket_pos(&self, round: Round) -> Result<usize, usize> {
        self.buckets.binary_search_by(|b| b.round.cmp(&round))
    }

    /// Inserts a message at local round `now`.
    ///
    /// Returns `true` if the message is *new* (never seen before); `false`
    /// if it is a duplicate or was already seen and purged. Duplicates are
    /// not re-inserted.
    pub fn insert(&mut self, msg: DataMessage, now: Round) -> bool {
        if !self.seen.insert(msg.id) {
            return false;
        }
        let pos = match self.bucket_pos(now) {
            Ok(pos) => pos,
            Err(pos) => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.round = now;
                self.buckets.insert(pos, bucket);
                pos
            }
        };
        let bucket = &mut self.buckets[pos];
        let id = msg.id;
        self.bytes += msg.payload.len() + MESSAGE_OVERHEAD_BYTES;
        self.bytes_peak = self.bytes_peak.max(self.bytes);
        self.index.insert(id, (now, bucket.slots.len() as u32));
        self.live.insert(id);
        bucket.slots.push(msg);
        if self.seen_window > 0 {
            bucket.seen_ids.push(id);
        }
        true
    }

    /// Whether `id` has ever been seen (within the seen window, if one is
    /// configured; otherwise ever).
    pub fn seen(&self, id: MessageId) -> bool {
        self.seen.contains(id)
    }

    /// Whether `id` is currently buffered.
    pub fn contains(&self, id: MessageId) -> bool {
        self.index.contains_key(&id)
    }

    /// Fetches a buffered message.
    pub fn get(&self, id: MessageId) -> Option<&DataMessage> {
        let &(round, slot) = self.index.get(&id)?;
        let pos = self.bucket_pos(round).ok()?;
        self.buckets[pos].slots.get(slot as usize)
    }

    /// Number of currently buffered messages.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Approximate heap footprint of the buffered messages, in bytes
    /// (payloads plus fixed per-message bookkeeping).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of [`Self::bytes`] since creation.
    pub fn bytes_peak(&self) -> usize {
        self.bytes_peak
    }

    /// Messages visited by [`Self::purge`] since creation. The `max_age = 0`
    /// ("never purge") mode must keep this at zero no matter how large the
    /// buffer grows — purging is skipped entirely, not scanned-and-kept.
    pub fn purge_work(&self) -> u64 {
        self.purge_visits
    }

    /// Digest of the currently buffered messages (what a pull-request or
    /// push-reply advertises).
    ///
    /// A clone of the digest kept live by `insert` and `purge`: its cost
    /// follows the number of sources and intervals (one of each for a
    /// contiguous stream), not the number of buffered ids.
    pub fn digest(&self) -> Digest {
        debug_assert_eq!(
            self.live,
            self.index.keys().copied().collect::<Digest>(),
            "live digest diverged from the buffered ids"
        );
        self.live.clone()
    }

    /// Digest of everything seen (within the seen window, if configured).
    pub fn seen_digest(&self) -> &Digest {
        &self.seen
    }

    /// Removes messages older than the retention age. Returns how many were
    /// purged. A `max_age` of 0 disables purging and does no iteration work.
    pub fn purge(&mut self, now: Round) -> usize {
        if self.max_age == 0 {
            return 0;
        }
        let mut purged = 0usize;
        while let Some(front) = self.buckets.front() {
            if now.since(front.round) < self.max_age {
                break;
            }
            // Expired seen ids stay queued (not yet evictable) unless the
            // window has also passed; drain them with the bucket when it has.
            let evict_seen = self.seen_window > 0 && now.since(front.round) >= self.seen_window;
            if !evict_seen && self.seen_window > 0 {
                // The bucket's messages expire now but their seen ids must
                // survive until the window closes: move them to a tombstone
                // bucket that holds only seen ids.
                break;
            }
            let mut bucket = self.buckets.pop_front().expect("front checked above");
            for msg in &bucket.slots {
                self.index.remove(&msg.id);
                self.live.remove(msg.id);
                self.bytes -= msg.payload.len() + MESSAGE_OVERHEAD_BYTES;
                self.purge_visits += 1;
                purged += 1;
            }
            if evict_seen {
                for id in &bucket.seen_ids {
                    self.seen.remove(*id);
                }
            }
            bucket.slots.clear();
            bucket.seen_ids.clear();
            self.spare.push(bucket);
        }
        // With a seen window, buckets older than max_age but younger than
        // the window keep their seen ids; purge their message slots in place.
        if self.seen_window > 0 {
            for bucket in &mut self.buckets {
                if now.since(bucket.round) < self.max_age {
                    break;
                }
                for msg in bucket.slots.drain(..) {
                    self.index.remove(&msg.id);
                    self.live.remove(msg.id);
                    self.bytes -= msg.payload.len() + MESSAGE_OVERHEAD_BYTES;
                    self.purge_visits += 1;
                    purged += 1;
                }
            }
        }
        purged
    }

    /// Increments the round counter (`hops`) of every buffered message —
    /// the paper's §8.1 accounting, performed once per local round.
    pub fn increment_hops(&mut self) {
        for bucket in &mut self.buckets {
            for msg in &mut bucket.slots {
                msg.hops = msg.hops.saturating_add(1);
            }
        }
    }

    /// Selects up to `max` random buffered messages that are *missing* from
    /// `their_digest` — the messages to push or to include in a pull-reply.
    ///
    /// Allocates the result vector; the per-partner hot path should use
    /// [`Self::select_missing_into`] with a reused buffer instead.
    pub fn select_missing<R: Rng + ?Sized>(
        &self,
        their_digest: &Digest,
        max: usize,
        rng: &mut R,
    ) -> Vec<DataMessage> {
        let mut out = Vec::new();
        self.select_missing_into(their_digest, max, rng, &mut out);
        out
    }

    /// [`Self::select_missing`] into a caller-provided buffer.
    ///
    /// `out` is cleared first and never shrunk, so a buffer reused across
    /// partners and rounds grows once to the configured per-exchange cap and
    /// then allocates nothing: selection is a single reservoir-sampling pass
    /// over the age buckets (uniform over the missing messages), and cloning
    /// a [`DataMessage`] only bumps the payload's refcount.
    pub fn select_missing_into<R: Rng + ?Sized>(
        &self,
        their_digest: &Digest,
        max: usize,
        rng: &mut R,
        out: &mut Vec<DataMessage>,
    ) {
        out.clear();
        if max == 0 {
            return;
        }
        let mut candidates = 0usize;
        for bucket in &self.buckets {
            for msg in &bucket.slots {
                if their_digest.contains(msg.id) {
                    continue;
                }
                if candidates < max {
                    out.push(msg.clone());
                } else {
                    // Reservoir step: the i-th candidate (0-based) replaces a
                    // kept one with probability max / (i + 1).
                    let j = rng.random_range(0..=candidates);
                    if j < max {
                        out[j] = msg.clone();
                    }
                }
                candidates += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::ids::ProcessId;
    use drum_crypto::auth::AuthTag;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn msg(source: u64, seq: u64) -> DataMessage {
        DataMessage {
            id: MessageId::new(ProcessId(source), seq),
            hops: 0,
            payload: Bytes::from_static(b"x"),
            auth: AuthTag::zero(),
        }
    }

    #[test]
    fn insert_and_duplicate() {
        let mut buf = MessageBuffer::new(10);
        assert!(buf.insert(msg(1, 0), Round(0)));
        assert!(!buf.insert(msg(1, 0), Round(0)));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn purge_by_age() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(0));
        buf.insert(msg(1, 1), Round(5));
        assert_eq!(buf.purge(Round(9)), 0);
        assert_eq!(buf.purge(Round(10)), 1); // seq 0 is 10 rounds old
        assert!(buf.contains(MessageId::new(ProcessId(1), 1)));
        assert_eq!(buf.purge(Round(15)), 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn zero_age_never_purges() {
        let mut buf = MessageBuffer::new(0);
        buf.insert(msg(1, 0), Round(0));
        assert_eq!(buf.purge(Round(1_000_000)), 0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn zero_age_purge_does_no_iteration_work() {
        // Regression: "never purge" must early-return, not scan-and-keep.
        // `purge_work` counts every message a purge pass visits; with
        // max_age = 0 it must stay at zero regardless of buffer size.
        let mut buf = MessageBuffer::new(0);
        for seq in 0..1_000 {
            buf.insert(msg(1, seq), Round(seq));
        }
        for round in 0..100 {
            assert_eq!(buf.purge(Round(1_000_000 + round)), 0);
        }
        assert_eq!(buf.purge_work(), 0);
        assert_eq!(buf.len(), 1_000);

        // Sanity: a purging buffer does count its visits.
        let mut aged = MessageBuffer::new(1);
        aged.insert(msg(1, 0), Round(0));
        aged.purge(Round(5));
        assert_eq!(aged.purge_work(), 1);
    }

    #[test]
    fn purged_message_not_reinserted() {
        let mut buf = MessageBuffer::new(1);
        buf.insert(msg(1, 0), Round(0));
        buf.purge(Round(5));
        assert!(buf.is_empty());
        // Gossip brings the old message back: it must be recognized as seen.
        assert!(!buf.insert(msg(1, 0), Round(5)));
        assert!(buf.is_empty());
        assert!(buf.seen(MessageId::new(ProcessId(1), 0)));
    }

    #[test]
    fn windowed_seen_evicts_old_ids() {
        let mut buf = MessageBuffer::with_seen_window(2, 10);
        buf.insert(msg(1, 0), Round(0));
        // Expired from the buffer at round 2, but still within the seen
        // window: a re-arrival is recognized and dropped.
        buf.purge(Round(5));
        assert!(buf.is_empty());
        assert!(buf.seen(MessageId::new(ProcessId(1), 0)));
        assert!(!buf.insert(msg(1, 0), Round(5)));
        // Past the window the id is forgotten and the message re-delivers.
        buf.purge(Round(10));
        assert!(!buf.seen(MessageId::new(ProcessId(1), 0)));
        assert!(buf.insert(msg(1, 0), Round(10)));
    }

    #[test]
    fn windowed_seen_memory_is_bounded_by_the_window() {
        let mut buf = MessageBuffer::with_seen_window(10, 40);
        for round in 0..10_000u64 {
            buf.insert(msg(1, round), Round(round));
            buf.purge(Round(round));
            assert!(buf.len() <= 10);
        }
        // Only the window's worth of ids is remembered; with sequential
        // seqs that is one compact interval, not 10k entries.
        assert!(buf.seen_digest().len() <= 41);
        let unbounded = {
            let mut b = MessageBuffer::new(10);
            for round in 0..10_000u64 {
                b.insert(msg(1, round), Round(round));
                b.purge(Round(round));
            }
            b.seen_digest().len()
        };
        assert_eq!(unbounded, 10_000);
    }

    #[test]
    #[should_panic(expected = "seen window")]
    fn seen_window_smaller_than_max_age_panics() {
        let _ = MessageBuffer::with_seen_window(10, 5);
    }

    #[test]
    fn bytes_track_inserts_and_purges() {
        let mut buf = MessageBuffer::new(1);
        assert_eq!(buf.bytes(), 0);
        buf.insert(msg(1, 0), Round(0));
        buf.insert(msg(1, 1), Round(0));
        let full = buf.bytes();
        assert!(full > 0);
        buf.purge(Round(1));
        assert_eq!(buf.bytes(), 0);
        assert_eq!(buf.bytes_peak(), full);
    }

    #[test]
    fn digest_reflects_buffer() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(0));
        buf.insert(msg(2, 3), Round(0));
        let d = buf.digest();
        assert!(d.contains(MessageId::new(ProcessId(1), 0)));
        assert!(d.contains(MessageId::new(ProcessId(2), 3)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn get_finds_messages_across_buckets() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(0));
        buf.insert(msg(2, 7), Round(3));
        buf.insert(msg(1, 1), Round(3));
        assert_eq!(
            buf.get(MessageId::new(ProcessId(2), 7)).unwrap().id,
            MessageId::new(ProcessId(2), 7)
        );
        assert!(buf.get(MessageId::new(ProcessId(9), 9)).is_none());
    }

    #[test]
    fn select_missing_excludes_known() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(0));
        buf.insert(msg(1, 1), Round(0));
        let mut their = Digest::new();
        their.insert(MessageId::new(ProcessId(1), 0));
        let mut rng = SmallRng::seed_from_u64(1);
        let selected = buf.select_missing(&their, 10, &mut rng);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].id, MessageId::new(ProcessId(1), 1));
    }

    #[test]
    fn select_missing_respects_max() {
        let mut buf = MessageBuffer::new(10);
        for seq in 0..100 {
            buf.insert(msg(1, seq), Round(0));
        }
        let mut rng = SmallRng::seed_from_u64(2);
        let selected = buf.select_missing(&Digest::new(), 7, &mut rng);
        assert_eq!(selected.len(), 7);
        // All distinct.
        let mut ids: Vec<MessageId> = selected.iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn select_missing_random_subset_varies() {
        let mut buf = MessageBuffer::new(10);
        for seq in 0..50 {
            buf.insert(msg(1, seq), Round(0));
        }
        let mut rng1 = SmallRng::seed_from_u64(1);
        let mut rng2 = SmallRng::seed_from_u64(2);
        let s1: Vec<MessageId> = buf
            .select_missing(&Digest::new(), 5, &mut rng1)
            .iter()
            .map(|m| m.id)
            .collect();
        let s2: Vec<MessageId> = buf
            .select_missing(&Digest::new(), 5, &mut rng2)
            .iter()
            .map(|m| m.id)
            .collect();
        // Overwhelmingly likely to differ for 50-choose-5.
        assert_ne!(s1, s2);
    }

    #[test]
    fn select_missing_into_reuses_the_buffer() {
        let mut buf = MessageBuffer::new(10);
        for seq in 0..30 {
            buf.insert(msg(1, seq), Round(0));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        buf.select_missing_into(&Digest::new(), 8, &mut rng, &mut out);
        assert_eq!(out.len(), 8);
        let cap = out.capacity();
        for _ in 0..10 {
            buf.select_missing_into(&Digest::new(), 8, &mut rng, &mut out);
            assert_eq!(out.len(), 8);
            assert_eq!(out.capacity(), cap);
        }
        // max = 0 clears and selects nothing.
        buf.select_missing_into(&Digest::new(), 0, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn select_missing_matches_into_variant() {
        let mut buf = MessageBuffer::new(10);
        for seq in 0..40 {
            buf.insert(msg(1, seq), Round(seq % 4));
        }
        let mut rng1 = SmallRng::seed_from_u64(9);
        let mut rng2 = SmallRng::seed_from_u64(9);
        let a = buf.select_missing(&Digest::new(), 6, &mut rng1);
        let mut b = Vec::new();
        buf.select_missing_into(&Digest::new(), 6, &mut rng2, &mut b);
        let ids = |v: &[DataMessage]| v.iter().map(|m| m.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn hops_increment() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(0));
        buf.increment_hops();
        buf.increment_hops();
        assert_eq!(buf.get(MessageId::new(ProcessId(1), 0)).unwrap().hops, 2);
    }
}
