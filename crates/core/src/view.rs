//! Random view selection.
//!
//! Every round a process chooses two small random sets of group members —
//! `view_push` and `view_pull` — from its local membership list (§4). The
//! randomness of these choices is one of the three pillars of Drum's
//! DoS-resistance: an attacker cannot predict whom a process will gossip
//! with.

use rand::seq::index;
use rand::Rng;

use crate::ids::ProcessId;

/// A local membership list with random-view sampling.
///
/// # Examples
///
/// ```
/// use drum_core::ids::ProcessId;
/// use drum_core::view::Membership;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let me = ProcessId(0);
/// let members: Vec<ProcessId> = (0..10).map(ProcessId).collect();
/// let membership = Membership::new(me, members);
/// let mut rng = SmallRng::seed_from_u64(7);
/// let view = membership.sample_view(2, &mut rng);
/// assert_eq!(view.len(), 2);
/// assert!(!view.contains(&me));
/// ```
#[derive(Debug, Clone)]
pub struct Membership {
    me: ProcessId,
    /// All known members except `me`, deduplicated.
    others: Vec<ProcessId>,
}

impl Membership {
    /// Builds a membership list for process `me`.
    ///
    /// `members` may or may not include `me`; it is excluded either way.
    /// Duplicates are removed.
    pub fn new(me: ProcessId, members: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut others: Vec<ProcessId> = members.into_iter().filter(|p| *p != me).collect();
        others.sort();
        others.dedup();
        Membership { me, others }
    }

    /// This process's own id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of *other* known members.
    pub fn len(&self) -> usize {
        self.others.len()
    }

    /// Whether no other members are known.
    pub fn is_empty(&self) -> bool {
        self.others.is_empty()
    }

    /// All other members, sorted.
    pub fn others(&self) -> &[ProcessId] {
        &self.others
    }

    /// Whether `p` is a known member (other than self).
    pub fn contains(&self, p: ProcessId) -> bool {
        self.others.binary_search(&p).is_ok()
    }

    /// Samples `k` distinct random members (fewer if the group is smaller).
    pub fn sample_view<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<ProcessId> {
        let k = k.min(self.others.len());
        index::sample(rng, self.others.len(), k)
            .iter()
            .map(|i| self.others[i])
            .collect()
    }

    /// Samples the push and pull views for one round. The two views are
    /// drawn independently (they may overlap), matching the paper's model
    /// where `view_push` and `view_pull` are separate random choices.
    pub fn sample_round_views<R: Rng + ?Sized>(
        &self,
        push_size: usize,
        pull_size: usize,
        rng: &mut R,
    ) -> RoundViews {
        RoundViews {
            push: self.sample_view(push_size, rng),
            pull: self.sample_view(pull_size, rng),
        }
    }
}

/// The pair of views a process gossips with in one round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundViews {
    /// Targets of push(-offer) messages.
    pub push: Vec<ProcessId>,
    /// Targets of pull-request messages.
    pub pull: Vec<ProcessId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn members(n: u64) -> Vec<ProcessId> {
        (0..n).map(ProcessId).collect()
    }

    #[test]
    fn excludes_self_and_dedups() {
        let m = Membership::new(
            ProcessId(1),
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(2)],
        );
        assert_eq!(m.len(), 2);
        assert!(!m.contains(ProcessId(1)));
        assert!(m.contains(ProcessId(0)));
        assert_eq!(m.me(), ProcessId(1));
    }

    #[test]
    fn sample_view_distinct_members() {
        let m = Membership::new(ProcessId(0), members(20));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let view = m.sample_view(4, &mut rng);
            assert_eq!(view.len(), 4);
            let mut v = view.clone();
            v.sort();
            v.dedup();
            assert_eq!(v.len(), 4, "view has duplicates: {view:?}");
            assert!(!view.contains(&ProcessId(0)));
        }
    }

    #[test]
    fn sample_view_caps_at_group_size() {
        let m = Membership::new(ProcessId(0), members(3));
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(m.sample_view(10, &mut rng).len(), 2);
    }

    #[test]
    fn sample_view_empty_group() {
        let m = Membership::new(ProcessId(0), vec![]);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(m.sample_view(4, &mut rng).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn round_views_sizes() {
        let m = Membership::new(ProcessId(0), members(50));
        let mut rng = SmallRng::seed_from_u64(5);
        let views = m.sample_round_views(2, 2, &mut rng);
        assert_eq!(views.push.len(), 2);
        assert_eq!(views.pull.len(), 2);
    }

    #[test]
    fn views_cover_all_members_over_time() {
        // Uniformity smoke test: over many rounds every member is chosen.
        let m = Membership::new(ProcessId(0), members(10));
        let mut rng = SmallRng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            for p in m.sample_view(2, &mut rng) {
                seen.insert(p);
            }
        }
        assert_eq!(seen.len(), 9);
    }
}
