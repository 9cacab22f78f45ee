//! Sharded control-plane e2e suite: hash-partitioned tenants across N
//! shards, per-shard DRR fairness composing into the global weighted split,
//! and whole-plane chaos (every shard's leader killed mid-run) with
//! per-shard byte-for-byte failover digests and lease-allocator consistency.
//!
//! Like the chaos suite, CI can run this as a seed matrix
//! (`QONDUCTOR_CHAOS_SEED=<seed>` selects one leg; unset runs the default
//! set).

use qonductor_cloudsim::sharded::{pairs, HEAVY_WEIGHT};
use qonductor_cloudsim::{run, FailurePlan, Scenario};
use qonductor_core::jobmanager::{CalibrationPolicy, TenantId};
use qonductor_core::sharding::ShardedControlPlane;
use qonductor_scheduler::ScheduleTrigger;

/// Default seed matrix (mirrors the chaos suite).
const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 41, 59];
const DURATION_S: f64 = 300.0;
const CRASHES_PER_RUN: usize = 3;

fn sharded_scenario(seed: u64) -> Scenario {
    pairs(2, DURATION_S, seed)
}

/// The heavy tenant of every shard.
fn heavy_tenants(scenario: &Scenario) -> Vec<TenantId> {
    (0..scenario.tenants.len() as TenantId)
        .filter(|&t| scenario.tenants[t as usize].config.weight == HEAVY_WEIGHT)
        .collect()
}

/// Seeds under test: the single `QONDUCTOR_CHAOS_SEED` if set (one CI matrix
/// leg), otherwise the whole default set.
fn seeds_under_test() -> Vec<u64> {
    match std::env::var("QONDUCTOR_CHAOS_SEED") {
        Ok(seed) => vec![seed.parse().expect("QONDUCTOR_CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// Weights 2:1 split across shards (one heavy + one light pair per shard,
/// saturating streams) yield the heavy tenants a ~2/3 global share of all
/// admitted batch slots, within ±10% — per-shard DRR composes into global
/// weighted fairness because the shards' active populations are balanced.
#[test]
fn sharded_fairness_composes_to_the_global_weighted_split() {
    for seed in seeds_under_test() {
        let scenario = sharded_scenario(seed);
        let report = run(&scenario, None);
        assert!(!report.batches.is_empty(), "seed {seed}: batches must dispatch");
        assert!(!report.completed.is_empty(), "seed {seed}: applications must complete");
        for shard in 0..scenario.shards {
            assert!(
                report.batches.iter().any(|b| b.shard == shard),
                "seed {seed}: shard {shard} never dispatched"
            );
        }
        let share: f64 =
            heavy_tenants(&scenario).into_iter().map(|t| report.admitted_share(t)).sum();
        assert!(
            (share - 2.0 / 3.0).abs() <= 0.1,
            "seed {seed}: heavy global share {share} strays from 2/3"
        );
        assert_eq!(report.lost_tickets(), 0, "seed {seed}: every ledger balances");
    }
}

/// Killing every shard's leader at seeded mid-run instants is invisible to
/// the workload: each shard's rebuilt state matches its pre-crash digest
/// byte for byte, the fleet allocator rebuilds from the journaled lease sets
/// without leaking or double-granting a QPU, and the fault-injected run
/// produces exactly the batches and completions of the failure-free run.
#[test]
fn sharded_failovers_are_byte_exact_per_shard_across_the_seed_matrix() {
    for seed in seeds_under_test() {
        let plan = FailurePlan::from_seed(seed, DURATION_S, CRASHES_PER_RUN);
        let chaos = run(&sharded_scenario(seed), Some(&plan));
        assert_eq!(chaos.crashes.len(), CRASHES_PER_RUN, "seed {seed}");
        assert!(
            chaos.all_digests_matched(),
            "seed {seed}: a shard's rebuilt state diverged: {:?}",
            chaos.crashes
        );
        assert!(
            chaos.allocator_always_consistent(),
            "seed {seed}: lease replay leaked or double-granted capacity"
        );
        assert_eq!(chaos.lost_tickets(), 0, "seed {seed}");
        assert!(chaos.double_dispatched_jobs().is_empty(), "seed {seed}");

        let plain = run(&sharded_scenario(seed), None);
        assert_eq!(chaos.batches, plain.batches, "seed {seed}: batch streams diverged");
        assert_eq!(chaos.completed, plain.completed, "seed {seed}: completions diverged");
        // The chaos and plain runs snapshot on different cadences, so their
        // incremental digests are not comparable — compare the byte oracle.
        assert_eq!(
            chaos.final_states, plain.final_states,
            "seed {seed}: final per-shard states diverged"
        );
    }
}

/// The mid-lease crash window: a shard's leader dies *between* journaling a
/// lease grant and first using the QPU. The replay must restore the grant
/// (no leak) without letting any other shard claim the QPU (no double
/// grant), for both directions of a lease move.
#[test]
fn leader_death_between_lease_journal_and_use_neither_leaks_nor_double_grants() {
    let mut plane = ShardedControlPlane::new(
        2,
        8,
        ScheduleTrigger::new(12, 45.0),
        CalibrationPolicy::Naive,
        1,
        41,
    );
    let fleet = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        qonductor_backend::Fleet::ibm_default(&mut rng)
    };

    // Move QPU 0 from shard 0 to shard 1: release journaled on shard 0,
    // grant journaled on shard 1, and the leader dies before shard 1 ever
    // dispatches onto it.
    assert_eq!(plane.release_qpu(0, 0, &fleet).unwrap(), Ok(()));
    assert_eq!(plane.lease_qpu(1, 0).unwrap(), Ok(()));
    let digests = plane.state_digests();
    plane.crash_all_leaders();
    plane.failover_all().expect("both shards fail over");
    assert_eq!(plane.state_digests(), digests, "replay is byte-exact mid-lease");
    let rebuilt = plane.rebuild_allocator().expect("no QPU is double-granted");
    assert_eq!(rebuilt.owner(0), Some(1), "the journaled grant survives the crash");
    assert_eq!(&rebuilt, plane.allocator(), "live and journaled lease state agree");
    // The grant is exclusive after replay: shard 0 cannot claim QPU 0 back
    // without shard 1 releasing it.
    assert!(plane.lease_qpu(0, 0).unwrap().is_err());
    assert_eq!(plane.release_qpu(1, 0, &fleet).unwrap(), Ok(()));
    assert_eq!(plane.lease_qpu(0, 0).unwrap(), Ok(()));
}
