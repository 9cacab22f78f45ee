//! Leader election *inside* the replicated store: the leader lease is a plain
//! key in the quorum KV, acquired with [`ReplicatedKvStore::compare_and_swap`].
//!
//! An earlier control plane paired a standalone message-passing election
//! cluster (its own tick-simulated quorum) with a [`ReplicatedKvStore`] (the
//! journal quorum). Two
//! quorums are two fault domains: the election cluster can elect a leader
//! while the data replicas have lost their majority (or vice versa), a
//! split-brain window where "who leads" and "what is committed" disagree.
//! `StoreElection` collapses the two: a campaign is a CAS against the same
//! replica set the journal commits to, so leadership exists **iff** the data
//! quorum does. Losing the store majority revokes the ability to elect; a
//! control-plane node crash is tracked as a volatile liveness flag and merely
//! invalidates the lease until the next campaign.
//!
//! The lease value is `"<node-id> <term>"`. Campaigns are deterministic (the
//! lowest live node wins), matching the deterministic simulation style of the
//! rest of the crate: what is being modeled is the *fault-domain coupling*,
//! not timeout randomization.

use crate::kvstore::{ReplicatedKvStore, StoreError};

/// Deterministic leader election whose lease record lives in the replicated
/// store itself.
#[derive(Debug, Clone)]
pub struct StoreElection {
    store: ReplicatedKvStore,
    /// Store key holding the lease (`"<prefix>/leader"`).
    key: String,
    /// Volatile liveness of each electable control-plane node.
    crashed: Vec<bool>,
}

impl StoreElection {
    /// Create an election over `num_nodes` electable nodes whose lease lives
    /// under `"<prefix>/leader"` in `store`. No campaign is run; call
    /// [`StoreElection::campaign`].
    pub fn new(store: ReplicatedKvStore, prefix: &str, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "an election needs at least one node");
        StoreElection { store, key: format!("{prefix}/leader"), crashed: vec![false; num_nodes] }
    }

    /// Number of electable nodes.
    pub fn len(&self) -> usize {
        self.crashed.len()
    }

    /// `true` if there are no electable nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.crashed.is_empty()
    }

    /// `true` while `id` is crashed.
    pub fn is_crashed(&self, id: usize) -> bool {
        self.crashed[id]
    }

    /// Crash node `id`. If it holds the lease, the lease is implicitly
    /// invalid until the next [`StoreElection::campaign`].
    pub fn crash(&mut self, id: usize) {
        self.crashed[id] = true;
    }

    /// Recover node `id`. A recovered ex-leader does **not** reclaim the
    /// lease: it rejoins as a follower and only leads again if a later
    /// campaign elects it.
    pub fn recover(&mut self, id: usize) {
        self.crashed[id] = false;
    }

    /// The current leader: the live lease holder, or `None` when the lease is
    /// absent, held by a crashed node, or unreadable (every store replica
    /// down). No side effects — reading never campaigns.
    pub fn leader(&self) -> Option<usize> {
        let (id, _) = self.read_lease()?;
        (id < self.len() && !self.crashed[id]).then_some(id)
    }

    /// Term of the current lease record (0 before the first campaign).
    pub fn current_term(&self) -> u64 {
        self.read_lease().map(|(_, term)| term).unwrap_or(0)
    }

    /// Run a campaign: if the lease holder is alive it is confirmed;
    /// otherwise the lowest live node takes the lease at `term + 1` via CAS
    /// against the store quorum.
    ///
    /// Returns the leader after the campaign, `Ok(None)` when every node is
    /// crashed, and `Err(NoQuorum)` when the store majority is down — with
    /// the lease in the data quorum, no journal majority means no election.
    pub fn campaign(&mut self) -> Result<Option<usize>, StoreError> {
        if let Some(leader) = self.leader() {
            return Ok(Some(leader));
        }
        let Some(candidate) = self.crashed.iter().position(|&c| !c) else {
            return Ok(None);
        };
        let raw = match self.store.get(&self.key) {
            Ok(value) => Some(value),
            Err(StoreError::KeyNotFound) => None,
            Err(StoreError::NoQuorum) => return Err(StoreError::NoQuorum),
        };
        let term = raw.as_deref().and_then(parse_lease).map(|(_, t)| t).unwrap_or(0);
        let swapped = self.store.compare_and_swap(
            &self.key,
            raw.as_deref(),
            format!("{candidate} {}", term + 1),
        )?;
        // Single-writer in this deterministic simulation: the CAS can only
        // fail if someone raced us, which run_until_leader retries away.
        if swapped {
            Ok(Some(candidate))
        } else {
            Ok(self.leader())
        }
    }

    /// Campaign until a leader holds the lease (API-compatible with
    /// `Cluster::run_until_leader`; the store-backed campaign is
    /// deterministic, so one attempt decides and the bound is vestigial).
    /// Returns `None` if no live node can be elected or the store quorum is
    /// down.
    pub fn run_until_leader(&mut self, _max_attempts: usize) -> Option<usize> {
        self.campaign().ok().flatten()
    }

    fn read_lease(&self) -> Option<(usize, u64)> {
        parse_lease(&self.store.get(&self.key).ok()?)
    }
}

fn parse_lease(raw: &str) -> Option<(usize, u64)> {
    let (id, term) = raw.split_once(' ')?;
    Some((id.parse().ok()?, term.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn election() -> StoreElection {
        StoreElection::new(ReplicatedKvStore::new(1), "ctl", 3)
    }

    #[test]
    fn first_campaign_elects_the_lowest_live_node() {
        let mut e = election();
        assert_eq!(e.leader(), None, "no lease before the first campaign");
        assert_eq!(e.campaign(), Ok(Some(0)));
        assert_eq!(e.leader(), Some(0));
        assert_eq!(e.current_term(), 1);
        // A repeat campaign confirms the live holder without a new term.
        assert_eq!(e.campaign(), Ok(Some(0)));
        assert_eq!(e.current_term(), 1);
    }

    #[test]
    fn crashed_leader_is_replaced_and_does_not_reclaim_the_lease() {
        let mut e = election();
        e.campaign().unwrap();
        e.crash(0);
        assert_eq!(e.leader(), None, "a crashed holder invalidates the lease");
        assert_eq!(e.campaign(), Ok(Some(1)));
        assert_eq!(e.current_term(), 2);
        e.recover(0);
        assert_eq!(e.leader(), Some(1), "the recovered ex-leader rejoins as follower");
        assert_eq!(e.campaign(), Ok(Some(1)));
    }

    #[test]
    fn all_nodes_crashed_means_no_leader() {
        let mut e = election();
        e.campaign().unwrap();
        for id in 0..e.len() {
            e.crash(id);
        }
        assert_eq!(e.leader(), None);
        assert_eq!(e.campaign(), Ok(None));
        assert_eq!(e.run_until_leader(5_000), None);
    }

    /// The fault-domain coupling this module exists for: once the *store*
    /// majority is gone, no leader can be elected — leadership cannot outlive
    /// the data quorum it journals to.
    #[test]
    fn losing_the_store_quorum_blocks_elections() {
        let store = ReplicatedKvStore::new(1);
        let mut e = StoreElection::new(store.clone(), "ctl", 3);
        e.campaign().unwrap();
        e.crash(0);
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(e.campaign(), Err(StoreError::NoQuorum));
        assert_eq!(e.run_until_leader(5_000), None);
        store.recover_replica(0);
        assert_eq!(e.campaign(), Ok(Some(1)), "election resumes with the quorum");
    }

    #[test]
    fn lease_is_shared_between_clones_of_the_store() {
        let store = ReplicatedKvStore::new(1);
        let mut a = StoreElection::new(store.clone(), "ctl", 3);
        let b = StoreElection::new(store, "ctl", 3);
        a.campaign().unwrap();
        assert_eq!(b.leader(), Some(0), "the lease record is in the shared quorum KV");
    }
}
