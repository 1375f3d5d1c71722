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
//! therefore one *insertion-ordered ring*: a `VecDeque` of
//! `(insertion round, message)`, oldest at the front. Inserts never go back
//! in time, so insertion order is round order and purging pops expired
//! messages off the front — O(1) amortized per stored message, never a full
//! scan. The ring is one allocation that follows the total number of
//! messages buffered at once, whatever their split across rounds, and a
//! stored message costs its ring entry plus its payload: there is no id
//! index.
//!
//! The digest a pull-request or push-reply advertises is kept *live*: a
//! [`Digest`] of the buffered ids updated at every insert and purge, so
//! [`MessageBuffer::digest`] clones it instead of re-sorting every buffered
//! id two or three times a round, and [`MessageBuffer::contains`] asks it.
//! Purging removes oldest-first, so a source's interval shrinks from its
//! low end in place.
//!
//! The "seen" digest (which prevents re-delivery of purged messages that
//! gossip back in) is unbounded by default, matching the paper's model where
//! a process remembers everything it ever delivered. For long soaks,
//! [`MessageBuffer::with_seen_window`] bounds it to a round window: a second
//! ring of `(insertion round, id)` remembers what to forget, ids older than
//! the window are evicted via [`Digest::remove`], and memory is O(active
//! window) instead of O(history).

use rand::Rng;
use std::collections::VecDeque;

use crate::digest::{covers, Digest};
use crate::ids::{MessageId, Round};
use crate::message::DataMessage;

/// Fixed per-message bookkeeping charged to [`MessageBuffer::bytes`] on top
/// of the payload: the ring entry.
const MESSAGE_OVERHEAD_BYTES: usize = std::mem::size_of::<(Round, DataMessage)>();

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
    /// The buffered messages with their insertion rounds, in insertion
    /// order (so in round order), oldest first.
    ring: VecDeque<(Round, DataMessage)>,
    /// Every id inserted within the seen window, with its insertion round,
    /// oldest first; kept only when a seen window is configured.
    seen_ring: VecDeque<(Round, MessageId)>,
    /// Round of the latest insert: inserts never go back in time.
    newest: Round,
    /// Digest of everything inserted within the seen window (everything
    /// *ever* inserted when the window is 0 = unbounded), used to avoid
    /// re-delivering a purged message that gossips back in.
    seen: Digest,
    /// Digest of the currently *buffered* ids, maintained wherever the ring
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

    /// Inserts a message at local round `now`.
    ///
    /// Returns `true` if the message is *new* (never seen before); `false`
    /// if it is a duplicate or was already seen and purged. Duplicates are
    /// not re-inserted.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the round of a previous insert: the
    /// ring is kept in round order by inserting at the current round only
    /// (as the engine does).
    pub fn insert(&mut self, msg: DataMessage, now: Round) -> bool {
        assert!(
            now >= self.newest,
            "insert at round {now} after an insert at round {}",
            self.newest
        );
        self.newest = now;
        if !self.seen.insert(msg.id) {
            return false;
        }
        let id = msg.id;
        self.bytes += msg.payload.len() + MESSAGE_OVERHEAD_BYTES;
        self.bytes_peak = self.bytes_peak.max(self.bytes);
        self.live.insert(id);
        self.ring.push_back((now, msg));
        if self.seen_window > 0 {
            self.seen_ring.push_back((now, id));
        }
        true
    }

    /// Whether `id` has ever been seen (within the seen window, if one is
    /// configured; otherwise ever).
    pub fn seen(&self, id: MessageId) -> bool {
        self.seen.contains(id)
    }

    /// Whether `id` is currently buffered (a lookup in the live digest).
    pub fn contains(&self, id: MessageId) -> bool {
        self.live.contains(id)
    }

    /// Fetches a buffered message by scanning the ring; no protocol step
    /// looks a message up by id.
    pub fn get(&self, id: MessageId) -> Option<&DataMessage> {
        self.ring
            .iter()
            .map(|(_, msg)| msg)
            .find(|msg| msg.id == id)
    }

    /// The buffered ids, oldest first: the reference the live digest is
    /// checked against, independent of it.
    pub(crate) fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.ring.iter().map(|(_, msg)| msg.id)
    }

    /// Number of currently buffered messages.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
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
            self.ids().collect::<Digest>(),
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
        while let Some(&(round, _)) = self.ring.front() {
            if now.since(round) < self.max_age {
                break;
            }
            let (_, msg) = self.ring.pop_front().expect("front checked above");
            self.live.remove(msg.id);
            self.bytes -= msg.payload.len() + MESSAGE_OVERHEAD_BYTES;
            purged += 1;
        }
        self.purge_visits += purged as u64;
        // The seen window covers the retention age, so an id leaves `seen`
        // only after its message has left the ring.
        while let Some(&(round, id)) = self.seen_ring.front() {
            if now.since(round) < self.seen_window {
                break;
            }
            self.seen_ring.pop_front();
            self.seen.remove(id);
        }
        purged
    }

    /// Increments the round counter (`hops`) of every buffered message —
    /// the paper's §8.1 accounting, performed once per local round.
    pub fn increment_hops(&mut self) {
        for (_, msg) in &mut self.ring {
            msg.hops = msg.hops.saturating_add(1);
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
    /// `out` is cleared first and never shrunk, and an `out` too small for
    /// the largest possible selection (`max` or everything buffered) grows
    /// to it in one step, so a buffer reused across partners and rounds
    /// allocates once and then nothing: selection is a single
    /// reservoir-sampling pass over the ring in insertion order (uniform over
    /// the missing messages), and cloning a [`DataMessage`] only bumps the
    /// payload's refcount.
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
        out.reserve(max.min(self.len()));
        let mut candidates = 0usize;
        // Buffered messages come in runs of one source, so the digest's
        // map is searched once per run, not once per message.
        let mut source = None;
        let mut owned: &[(u64, u64)] = &[];
        for (_, msg) in &self.ring {
            if source != Some(msg.id.source) {
                source = Some(msg.id.source);
                owned = their_digest.intervals_of(msg.id.source);
            }
            if covers(owned, msg.id.seq) {
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

    /// A stored message costs its ring entry and its payload, nothing else.
    #[test]
    fn bytes_are_the_ring_entries_plus_the_payloads() {
        let mut buf = MessageBuffer::new(10);
        for seq in 0..37 {
            let mut m = msg(1, seq);
            m.payload = Bytes::from(vec![7u8; 50]);
            assert!(buf.insert(m, Round(seq / 4)));
        }
        assert_eq!(MESSAGE_OVERHEAD_BYTES, size_of::<(Round, DataMessage)>());
        assert_eq!(buf.bytes(), 37 * (size_of::<(Round, DataMessage)>() + 50));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(size_of::<(Round, DataMessage)>(), 80);
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
    fn ring_capacity_follows_the_total_buffered() {
        // One 200-message round, then `max_age` rounds of 10: per-round
        // storage would keep the burst round's capacity beside ten more;
        // the one ring only ever holds 200 at once.
        let mut buf = MessageBuffer::new(10);
        for seq in 0..200 {
            buf.insert(msg(1, seq), Round(0));
        }
        for round in 1..=10u64 {
            buf.purge(Round(round));
            for i in 0..10 {
                buf.insert(msg(1, 200 + round * 10 + i), Round(round));
            }
        }
        assert_eq!(buf.len(), 100);
        assert!(
            buf.ring.capacity() <= 512,
            "ring capacity {}",
            buf.ring.capacity()
        );
    }

    #[test]
    #[should_panic(expected = "after an insert at round")]
    fn an_insert_back_in_time_panics() {
        let mut buf = MessageBuffer::new(10);
        buf.insert(msg(1, 0), Round(3));
        buf.insert(msg(1, 1), Round(2));
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
            buf.insert(msg(1, seq), Round(seq / 10));
        }
        let mut rng1 = SmallRng::seed_from_u64(9);
        let mut rng2 = SmallRng::seed_from_u64(9);
        let a = buf.select_missing(&Digest::new(), 6, &mut rng1);
        let mut b = Vec::new();
        buf.select_missing_into(&Digest::new(), 6, &mut rng2, &mut b);
        let ids = |v: &[DataMessage]| v.iter().map(|m| m.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    /// The per-run interval lookup selects what a per-message
    /// `Digest::contains` test selects, with the same RNG draws.
    #[test]
    fn select_missing_matches_a_per_message_contains_scan() {
        let mut buf = MessageBuffer::new(10);
        let mut theirs = Digest::new();
        for i in 0..120u64 {
            // Runs of one source, sources revisited across rounds.
            let (source, seq) = (i / 7 % 4, i);
            buf.insert(msg(source, seq), Round(i / 30));
            if i % 3 == 0 || (source == 2 && i % 2 == 0) {
                theirs.insert(MessageId::new(ProcessId(source), seq));
            }
        }
        theirs.insert(MessageId::new(ProcessId(9), 1));
        for max in [0, 1, 5, 200] {
            let mut rng = SmallRng::seed_from_u64(max as u64);
            let mut got = Vec::new();
            buf.select_missing_into(&theirs, max, &mut rng, &mut got);

            let mut rng_ref = SmallRng::seed_from_u64(max as u64);
            let mut want: Vec<MessageId> = Vec::new();
            let missing = buf.ring.iter().filter(|(_, m)| !theirs.contains(m.id));
            for (candidates, (_, m)) in missing.enumerate() {
                if candidates < max {
                    want.push(m.id);
                } else if max > 0 {
                    let j = rng_ref.random_range(0..=candidates);
                    if j < max {
                        want[j] = m.id;
                    }
                }
            }
            assert_eq!(got.iter().map(|m| m.id).collect::<Vec<_>>(), want);
            assert_eq!(rng.next_u64(), rng_ref.next_u64(), "same draws");
        }
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
