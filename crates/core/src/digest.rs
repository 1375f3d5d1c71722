//! Message digests exchanged during gossip.
//!
//! A pull-request carries "a digest of the messages [the requester] has
//! received"; a push-reply carries a digest of the messages the push target
//! has (§4). A digest is a compact summary of a set of [`MessageId`]s: per
//! source, the owned sequence numbers are kept as a sorted list of closed
//! intervals, so long runs of consecutively numbered messages cost O(1).

use crate::ids::{MessageId, ProcessId};
use std::collections::BTreeMap;

/// A compact set of [`MessageId`]s.
///
/// # Examples
///
/// ```
/// use drum_core::digest::Digest;
/// use drum_core::ids::{MessageId, ProcessId};
///
/// let mut d = Digest::new();
/// d.insert(MessageId::new(ProcessId(1), 0));
/// d.insert(MessageId::new(ProcessId(1), 1));
/// d.insert(MessageId::new(ProcessId(1), 2));
/// assert!(d.contains(MessageId::new(ProcessId(1), 1)));
/// assert_eq!(d.len(), 3);
/// // Three consecutive seqs collapse into one interval.
/// assert_eq!(d.interval_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest {
    /// Per source: sorted, disjoint, non-adjacent closed intervals
    /// `[lo, hi]` of owned sequence numbers.
    ranges: BTreeMap<ProcessId, Vec<(u64, u64)>>,
}

impl Digest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one id. Returns `true` if it was not already present.
    pub fn insert(&mut self, id: MessageId) -> bool {
        let intervals = self.ranges.entry(id.source).or_default();
        let seq = id.seq;
        // Find the first interval with lo > seq.
        let pos = intervals.partition_point(|&(lo, _)| lo <= seq);
        // Check containment in the preceding interval.
        if pos > 0 {
            let (lo, hi) = intervals[pos - 1];
            if seq >= lo && seq <= hi {
                return false;
            }
        }
        // Can we extend the preceding interval? (checked: hi may be u64::MAX)
        let extends_prev = pos > 0 && intervals[pos - 1].1.checked_add(1) == Some(seq);
        // Can we extend the following interval? (checked: seq may be u64::MAX)
        let extends_next = pos < intervals.len() && seq.checked_add(1) == Some(intervals[pos].0);
        match (extends_prev, extends_next) {
            (true, true) => {
                intervals[pos - 1].1 = intervals[pos].1;
                intervals.remove(pos);
            }
            (true, false) => intervals[pos - 1].1 = seq,
            (false, true) => intervals[pos].0 = seq,
            (false, false) => intervals.insert(pos, (seq, seq)),
        }
        true
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: MessageId) -> bool {
        covers(self.intervals_of(id.source), id.seq)
    }

    /// The sorted, disjoint intervals owned for `source` (empty when the
    /// digest has none): a caller testing many ids of one source looks the
    /// source up once, then binary-searches this slice per id.
    pub fn intervals_of(&self, source: ProcessId) -> &[(u64, u64)] {
        self.ranges.get(&source).map_or(&[], Vec::as_slice)
    }

    /// Removes one id. Returns `true` if it was present.
    ///
    /// Removal from the middle of an interval splits it in two, so a digest
    /// under point removals stays canonical (sorted, disjoint, non-adjacent)
    /// and round-trips through [`Digest::from_intervals`] unchanged. This is
    /// what lets a round-windowed "seen" set evict expired ids without
    /// rebuilding the whole digest.
    pub fn remove(&mut self, id: MessageId) -> bool {
        let Some(intervals) = self.ranges.get_mut(&id.source) else {
            return false;
        };
        let seq = id.seq;
        let pos = intervals.partition_point(|&(lo, _)| lo <= seq);
        if pos == 0 {
            return false;
        }
        let (lo, hi) = intervals[pos - 1];
        if seq < lo || seq > hi {
            return false;
        }
        match (seq == lo, seq == hi) {
            (true, true) => {
                intervals.remove(pos - 1);
            }
            (true, false) => intervals[pos - 1].0 = seq + 1,
            (false, true) => intervals[pos - 1].1 = seq - 1,
            (false, false) => {
                intervals[pos - 1].1 = seq - 1;
                intervals.insert(pos, (seq + 1, hi));
            }
        }
        if intervals.is_empty() {
            self.ranges.remove(&id.source);
        }
        true
    }

    /// Total number of ids in the digest.
    pub fn len(&self) -> usize {
        self.ranges
            .values()
            .flat_map(|v| v.iter())
            .map(|&(lo, hi)| (hi - lo + 1) as usize)
            .sum()
    }

    /// Whether the digest is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of sources with at least one id.
    pub fn source_count(&self) -> usize {
        self.ranges.len()
    }

    /// Number of stored intervals (compactness measure).
    pub fn interval_count(&self) -> usize {
        self.ranges.values().map(Vec::len).sum()
    }

    /// Iterates over all ids (expanded from intervals) in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.ranges.iter().flat_map(|(&source, intervals)| {
            intervals
                .iter()
                .flat_map(move |&(lo, hi)| (lo..=hi).map(move |seq| MessageId::new(source, seq)))
        })
    }

    /// The sources that appear in the digest.
    pub fn sources(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ranges.keys().copied()
    }

    /// Raw interval view for wire encoding: `(source, &[(lo, hi)])`.
    pub fn intervals(&self) -> impl Iterator<Item = (ProcessId, &[(u64, u64)])> + '_ {
        self.ranges.iter().map(|(&s, v)| (s, v.as_slice()))
    }

    /// Reconstructs a digest from raw intervals (wire decoding).
    ///
    /// # Errors
    ///
    /// Returns [`DigestError`] if intervals are unsorted, overlapping,
    /// adjacent (should have been merged) or inverted.
    pub fn from_intervals<I>(entries: I) -> Result<Self, DigestError>
    where
        I: IntoIterator<Item = (ProcessId, Vec<(u64, u64)>)>,
    {
        let mut ranges = BTreeMap::new();
        for (source, intervals) in entries {
            for &(lo, hi) in &intervals {
                if lo > hi {
                    return Err(DigestError::InvertedInterval { source, lo, hi });
                }
            }
            for w in intervals.windows(2) {
                // Next interval must start at least 2 past the previous end,
                // otherwise they overlap or should have been merged.
                // (saturating: the previous end may be u64::MAX, in which
                // case nothing can legally follow it.)
                if w[1].0 <= w[0].1.saturating_add(1) {
                    return Err(DigestError::UnsortedIntervals { source });
                }
            }
            if !intervals.is_empty() && ranges.insert(source, intervals).is_some() {
                return Err(DigestError::DuplicateSource { source });
            }
        }
        Ok(Digest { ranges })
    }
}

/// Whether `seq` lies in one of `intervals`, a slice from
/// [`Digest::intervals_of`].
pub(crate) fn covers(intervals: &[(u64, u64)], seq: u64) -> bool {
    let pos = intervals.partition_point(|&(lo, _)| lo <= seq);
    pos > 0 && seq <= intervals[pos - 1].1
}

impl FromIterator<MessageId> for Digest {
    fn from_iter<T: IntoIterator<Item = MessageId>>(iter: T) -> Self {
        let mut d = Digest::new();
        for id in iter {
            d.insert(id);
        }
        d
    }
}

impl Extend<MessageId> for Digest {
    fn extend<T: IntoIterator<Item = MessageId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Errors decoding a [`Digest`] from raw intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestError {
    /// An interval had `lo > hi`.
    InvertedInterval {
        /// Source the interval belongs to.
        source: ProcessId,
        /// Interval start.
        lo: u64,
        /// Interval end.
        hi: u64,
    },
    /// Intervals for a source were unsorted, overlapping or unmerged.
    UnsortedIntervals {
        /// Offending source.
        source: ProcessId,
    },
    /// The same source appeared twice.
    DuplicateSource {
        /// Offending source.
        source: ProcessId,
    },
}

impl core::fmt::Display for DigestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DigestError::InvertedInterval { source, lo, hi } => {
                write!(f, "inverted interval [{lo}, {hi}] for {source}")
            }
            DigestError::UnsortedIntervals { source } => {
                write!(f, "unsorted or overlapping intervals for {source}")
            }
            DigestError::DuplicateSource { source } => {
                write!(f, "source {source} appears twice")
            }
        }
    }
}

impl std::error::Error for DigestError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: u64, q: u64) -> MessageId {
        MessageId::new(ProcessId(s), q)
    }

    #[test]
    fn empty_digest() {
        let d = Digest::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(!d.contains(id(0, 0)));
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn insert_and_contains() {
        let mut d = Digest::new();
        assert!(d.insert(id(1, 5)));
        assert!(!d.insert(id(1, 5)));
        assert!(d.contains(id(1, 5)));
        assert!(!d.contains(id(1, 4)));
        assert!(!d.contains(id(2, 5)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn source_count_follows_inserts_and_removes() {
        let mut d = Digest::new();
        assert_eq!(d.source_count(), 0);
        d.insert(id(1, 0));
        d.insert(id(1, 5));
        d.insert(id(4, 2));
        assert_eq!(d.source_count(), 2);
        assert_eq!(d.source_count(), d.intervals().count());
        d.remove(id(4, 2));
        assert_eq!(d.source_count(), 1);
    }

    #[test]
    fn consecutive_seqs_merge() {
        let mut d = Digest::new();
        d.insert(id(1, 0));
        d.insert(id(1, 2));
        assert_eq!(d.interval_count(), 2);
        d.insert(id(1, 1)); // bridges the gap
        assert_eq!(d.interval_count(), 1);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn extend_forward_and_backward() {
        let mut d = Digest::new();
        d.insert(id(1, 5));
        d.insert(id(1, 6)); // extend forward
        d.insert(id(1, 4)); // extend backward
        assert_eq!(d.interval_count(), 1);
        assert_eq!(d.len(), 3);
        assert!(d.contains(id(1, 4)));
        assert!(d.contains(id(1, 6)));
    }

    #[test]
    fn multiple_sources() {
        let mut d = Digest::new();
        d.insert(id(1, 0));
        d.insert(id(2, 0));
        assert_eq!(d.sources().count(), 2);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let ids = [id(2, 3), id(1, 0), id(1, 1), id(1, 7), id(2, 4)];
        let d: Digest = ids.into_iter().collect();
        let collected: Vec<MessageId> = d.iter().collect();
        assert_eq!(
            collected,
            vec![id(1, 0), id(1, 1), id(1, 7), id(2, 3), id(2, 4)]
        );
    }

    #[test]
    fn interval_round_trip() {
        let ids = [id(1, 0), id(1, 1), id(1, 5), id(3, 2)];
        let d: Digest = ids.into_iter().collect();
        let raw: Vec<(ProcessId, Vec<(u64, u64)>)> =
            d.intervals().map(|(s, v)| (s, v.to_vec())).collect();
        let d2 = Digest::from_intervals(raw).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn from_intervals_rejects_bad_input() {
        let p = ProcessId(1);
        assert!(matches!(
            Digest::from_intervals([(p, vec![(5, 3)])]),
            Err(DigestError::InvertedInterval { .. })
        ));
        assert!(matches!(
            Digest::from_intervals([(p, vec![(0, 2), (2, 4)])]),
            Err(DigestError::UnsortedIntervals { .. })
        ));
        // Adjacent intervals should have been merged.
        assert!(matches!(
            Digest::from_intervals([(p, vec![(0, 2), (3, 4)])]),
            Err(DigestError::UnsortedIntervals { .. })
        ));
        assert!(matches!(
            Digest::from_intervals(vec![(p, vec![(0, 1)]), (p, vec![(5, 6)])]),
            Err(DigestError::DuplicateSource { .. })
        ));
    }

    #[test]
    fn from_intervals_skips_empty_sources() {
        let d = Digest::from_intervals([(ProcessId(1), vec![])]).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn large_run_is_compact() {
        let mut d = Digest::new();
        for seq in 0..10_000 {
            d.insert(id(1, seq));
        }
        assert_eq!(d.interval_count(), 1);
        assert_eq!(d.len(), 10_000);
    }

    #[test]
    fn error_display() {
        let e = DigestError::InvertedInterval {
            source: ProcessId(1),
            lo: 5,
            hi: 3,
        };
        assert!(e.to_string().contains("p1"));
    }

    #[test]
    fn remove_shrinks_splits_and_drops_intervals() {
        let mut d: Digest = [id(1, 0), id(1, 1), id(1, 2), id(1, 3), id(2, 7)]
            .into_iter()
            .collect();
        // Absent ids are a no-op.
        assert!(!d.remove(id(1, 9)));
        assert!(!d.remove(id(3, 0)));
        // Middle removal splits one interval into two.
        assert!(d.remove(id(1, 2)));
        assert!(!d.contains(id(1, 2)));
        assert_eq!(d.interval_count(), 3);
        // Edge removals shrink.
        assert!(d.remove(id(1, 0)));
        assert!(d.remove(id(1, 3)));
        assert!(d.contains(id(1, 1)));
        // Singleton removal drops the source entirely.
        assert!(d.remove(id(2, 7)));
        assert!(!d.sources().any(|s| s == ProcessId(2)));
        assert!(d.remove(id(1, 1)));
        assert!(d.is_empty());
        // Removal never leaves non-canonical intervals behind: round-trip.
        let mut d2: Digest = (0..10).map(|q| id(1, q)).collect();
        d2.remove(id(1, 4));
        let raw: Vec<(ProcessId, Vec<(u64, u64)>)> =
            d2.intervals().map(|(s, v)| (s, v.to_vec())).collect();
        assert_eq!(Digest::from_intervals(raw).unwrap(), d2);
    }

    #[test]
    fn remove_then_insert_round_trips() {
        let mut d: Digest = (0..8).map(|q| id(1, q)).collect();
        assert!(d.remove(id(1, 3)));
        assert!(d.insert(id(1, 3)));
        assert_eq!(d.interval_count(), 1);
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn u64_max_sequence_numbers() {
        // The extreme end of the sequence space must not overflow the
        // interval arithmetic.
        let mut d = Digest::new();
        assert!(d.insert(id(1, u64::MAX)));
        assert!(d.contains(id(1, u64::MAX)));
        assert!(!d.insert(id(1, u64::MAX)));
        d.insert(id(1, u64::MAX - 1)); // extends backward into the max
        assert_eq!(d.interval_count(), 1);
        assert!(d.contains(id(1, u64::MAX - 1)));

        // Wire form with an interval ending at u64::MAX.
        let raw: Vec<(ProcessId, Vec<(u64, u64)>)> =
            d.intervals().map(|(s, v)| (s, v.to_vec())).collect();
        assert_eq!(Digest::from_intervals(raw).unwrap(), d);
        // An interval "following" u64::MAX is always invalid.
        assert!(
            Digest::from_intervals([(ProcessId(1), vec![(u64::MAX, u64::MAX), (0, 1)])]).is_err()
        );
    }
}
