//! Fault injection for the cloud simulation: a seeded crash schedule
//! ([`FailurePlan`]) kills the control-plane leaders at simulated instants
//! mid-run; the simulation fails over to replicas rebuilt from the
//! replicated `snapshot + log replay` and keeps going. Each [`Crash`] records
//! whether the rebuilt state matched the pre-crash state byte for byte; the
//! loss and duplication invariants the chaos suites assert live on
//! [`crate::sim::Report`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded crash schedule for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Simulated instants at which the control-plane leader crashes,
    /// ascending.
    pub crash_times_s: Vec<f64>,
    /// Install a snapshot (and compact the journal) every this many
    /// dispatched batches; `0` disables checkpointing, so every failover
    /// replays the journal from genesis.
    pub snapshot_every_batches: usize,
}

impl FailurePlan {
    /// Derive a crash schedule from a seed: `num_crashes` leader kills spread
    /// over the middle 90% of the simulated duration, plus a default
    /// checkpoint cadence of one snapshot per three batches.
    pub fn from_seed(seed: u64, duration_s: f64, num_crashes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11_0E25);
        let mut crash_times_s: Vec<f64> =
            (0..num_crashes).map(|_| rng.gen_range(0.05..0.95) * duration_s).collect();
        crash_times_s.sort_by(f64::total_cmp);
        FailurePlan { crash_times_s, snapshot_every_batches: 3 }
    }

    /// The same schedule with a different checkpoint cadence.
    pub fn with_snapshot_every(mut self, batches: usize) -> Self {
        self.snapshot_every_batches = batches;
        self
    }
}

/// One injected crash — every shard's leader killed at once — and its
/// recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Crash {
    /// Simulated time of the crash.
    pub t_s: f64,
    /// Per shard: `(killed leader, leader elected by the failover)`.
    pub leaders: Vec<(usize, usize)>,
    /// Journal entries replayed on top of the latest snapshots to rebuild.
    pub replayed_events: u64,
    /// `true` iff every shard's rebuilt state matched its pre-crash digest.
    pub digests_matched: bool,
    /// `true` iff the fleet allocator rebuilt from the journaled lease sets
    /// with no QPU leaked or double-granted.
    pub allocator_consistent: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_plans_are_seed_deterministic_sorted_and_in_range() {
        let a = FailurePlan::from_seed(9, 600.0, 4);
        let b = FailurePlan::from_seed(9, 600.0, 4);
        assert_eq!(a, b);
        assert_eq!(a.crash_times_s.len(), 4);
        assert!(a.crash_times_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.crash_times_s.iter().all(|&t| t > 0.0 && t < 600.0));
        let c = FailurePlan::from_seed(10, 600.0, 4);
        assert_ne!(a, c, "different seeds give different schedules");
        assert_eq!(a.with_snapshot_every(7).snapshot_every_batches, 7);
    }
}
