//! Identifier newtypes shared across the Drum stack.

/// A group member's identity.
///
/// Ids are unique within a group; the crypto layer binds a key to each
/// id. Internally a `u64` so it doubles as the peer id used by
/// [`drum_crypto::keys::KeyStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u64);

impl ProcessId {
    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(v: u64) -> Self {
        ProcessId(v)
    }
}

/// Globally unique identity of a multicast data message: the pair of its
/// source process and a per-source sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// Originating process (each message has exactly one source).
    pub source: ProcessId,
    /// Source-local sequence number, starting at 0.
    pub seq: u64,
}

impl MessageId {
    /// Creates a message id.
    pub fn new(source: ProcessId, seq: u64) -> Self {
        MessageId { source, seq }
    }
}

impl core::fmt::Display for MessageId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}#{}", self.source, self.seq)
    }
}

/// A locally counted gossip round.
///
/// Rounds are *not* synchronized between processes; each process advances its
/// own counter (§4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(pub u64);

impl Round {
    /// The first round.
    pub const ZERO: Round = Round(0);

    /// The round after this one.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Rounds elapsed since `earlier` (saturating).
    pub fn since(self, earlier: Round) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The raw counter.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for Round {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(v: u64) -> Self {
        Round(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(MessageId::new(ProcessId(3), 9).to_string(), "p3#9");
        assert_eq!(Round(7).to_string(), "r7");
    }

    #[test]
    fn round_arithmetic() {
        assert_eq!(Round::ZERO.next(), Round(1));
        assert_eq!(Round(10).since(Round(4)), 6);
        assert_eq!(Round(4).since(Round(10)), 0);
    }

    #[test]
    fn conversions() {
        assert_eq!(ProcessId::from(5).as_u64(), 5);
        assert_eq!(Round::from(2).as_u64(), 2);
    }

    #[test]
    fn ordering() {
        assert!(MessageId::new(ProcessId(1), 5) < MessageId::new(ProcessId(2), 0));
        assert!(MessageId::new(ProcessId(1), 5) < MessageId::new(ProcessId(1), 6));
    }
}
