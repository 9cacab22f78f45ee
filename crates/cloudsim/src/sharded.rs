//! The sharded scenario: tenants are hash-partitioned across N control-plane
//! shards, each owning its own journal, batch engine, submission service,
//! and trigger, and leasing an exclusive slice of the QPU fleet. Every shard
//! holds one *heavy* and one *light* saturating tenant — placement is
//! steered with never-submitting filler registrations, since global ids are
//! sequential and routed by the pure [`shard_of_global`] hash — so per-shard
//! DRR fairness composes into the global 2:1 batch-share split of the
//! unsharded plane.

use crate::multitenant::saturating;
use crate::sim::{Scenario, Tenant};
use qonductor_core::jobmanager::TenantId;
use qonductor_core::sharding::shard_of_global;
use qonductor_core::submission::TenantConfig;
use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};

/// DRR weight of each shard's heavy tenant.
pub const HEAVY_WEIGHT: u32 = 2;
/// DRR weight of each shard's light tenant (and of the fillers).
pub const LIGHT_WEIGHT: u32 = 1;

/// One heavy and one light tenant per shard, each submitting 9000 jobs/h,
/// over `num_shards` shards of the default fleet with 12-job / 45 s
/// triggers.
pub fn pairs(num_shards: usize, duration_s: f64, seed: u64) -> Scenario {
    let filler = Tenant {
        config: TenantConfig { weight: LIGHT_WEIGHT, max_in_flight: 1, max_retries: 0 },
        slo: None,
    };
    let (mut has_heavy, mut has_light) = (vec![false; num_shards], vec![false; num_shards]);
    let mut weights = Vec::new();
    let mut slots = Vec::new(); // registration index of each active tenant
    let mut registered = 0usize;
    while has_heavy.contains(&false) || has_light.contains(&false) {
        assert!(registered < 10_000 * num_shards, "placement steering failed to cover every shard");
        let shard = shard_of_global(registered as TenantId, num_shards);
        let weight = if !has_heavy[shard] {
            has_heavy[shard] = true;
            HEAVY_WEIGHT
        } else if !has_light[shard] {
            has_light[shard] = true;
            LIGHT_WEIGHT
        } else {
            registered += 1;
            continue;
        };
        weights.push(weight);
        slots.push(registered);
        registered += 1;
    }
    let mut scenario = saturating(&weights, 9000.0, duration_s, seed);
    let mut tenants = vec![filler; registered];
    for (active, &slot) in slots.iter().enumerate() {
        tenants[slot] = scenario.tenants[active];
    }
    for arrival in &mut scenario.arrivals {
        arrival.stream = slots[arrival.stream];
    }
    Scenario {
        shards: num_shards,
        tenants,
        trigger: ScheduleTrigger::new(12, 45.0),
        scheduler: SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 16,
                max_generations: 8,
                max_evaluations: 800,
                num_threads: 1,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        },
        ..scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;
    use std::collections::BTreeSet;

    #[test]
    fn every_shard_gets_one_heavy_and_one_light_active_tenant() {
        let scenario = pairs(4, 300.0, 2025);
        let active: BTreeSet<usize> = scenario.arrivals.iter().map(|a| a.stream).collect();
        assert_eq!(active.len(), 8, "one heavy + one light per shard");
        let mut per_shard = vec![(0usize, 0usize); 4];
        for &tenant in &active {
            let shard = shard_of_global(tenant as TenantId, 4);
            if scenario.tenants[tenant].config.weight == HEAVY_WEIGHT {
                per_shard[shard].0 += 1;
            } else {
                per_shard[shard].1 += 1;
            }
        }
        assert!(per_shard.iter().all(|&(h, l)| h == 1 && l == 1), "{per_shard:?}");
    }

    #[test]
    fn sharded_run_dispatches_on_every_shard_and_is_deterministic() {
        let scenario = pairs(2, 200.0, 2025);
        let a = run(&scenario, None);
        let b = run(&scenario, None);
        assert!(!a.batches.is_empty());
        for shard in 0..scenario.shards {
            assert!(
                a.batches.iter().any(|batch| batch.shard == shard),
                "shard {shard} never dispatched"
            );
        }
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.completed.len(), b.completed.len());
        assert_eq!(a.final_digests, b.final_digests);
    }
}
