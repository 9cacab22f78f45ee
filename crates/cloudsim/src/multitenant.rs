//! Multi-tenant scenarios: independent tenants with their own Poisson
//! arrival streams and fairness weights submit through the non-blocking
//! front-end of the replicated control plane, and weighted-fair admission
//! drains their queues into the shared batch engine — the fairness path of
//! the control plane exercised end to end under realistic load.

use crate::load::{ArrivalConfig, TenantArrivalConfig};
use crate::sim::{default_fleet, Scenario, Tenant};
use qonductor_core::submission::TenantConfig;

/// One tenant per weight on the default fleet, each with a flat Poisson
/// stream of `rate_per_hour` (30% mitigated), a one-retry budget, and its
/// in-flight cap lifted so the DRR weights are the only throttle. 10 s
/// steps; callers pick the trigger and scheduler.
pub fn saturating(weights: &[u32], rate_per_hour: f64, duration_s: f64, seed: u64) -> Scenario {
    let stream = TenantArrivalConfig {
        arrival: ArrivalConfig {
            mean_rate_per_hour: rate_per_hour,
            diurnal_amplitude: 0.0,
            ..ArrivalConfig::default()
        },
        mitigation_fraction: 0.3,
    };
    let tenants = weights
        .iter()
        .map(|&weight| {
            let config = TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 };
            (Tenant { config, slo: None }, stream)
        })
        .collect();
    Scenario::poisson(default_fleet(seed), tenants, duration_s, 10.0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::FailurePlan;
    use crate::sim::run;
    use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};

    /// Each stream alone (2.5 jobs/s) exceeds the ~1.8 jobs/s dispatch
    /// capacity (18-job batches, one per 10 s step), so both tenant queues
    /// stay saturated and the DRR weights bind.
    fn saturating_scenario() -> Scenario {
        Scenario {
            trigger: ScheduleTrigger::new(18, 45.0),
            scheduler: SchedulerConfig {
                nsga2: Nsga2Config {
                    population_size: 16,
                    max_generations: 10,
                    max_evaluations: 1000,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                ..SchedulerConfig::default()
            },
            ..saturating(&[2, 1], 9000.0, 400.0, 42)
        }
    }

    #[test]
    fn weighted_tenants_share_batches_by_weight() {
        let report = run(&saturating_scenario(), None);
        assert!(!report.batches.is_empty(), "batches must dispatch");
        assert!(!report.completed.is_empty(), "applications must complete");
        // Equal saturating arrival rates, weights 2:1: the heavy tenant's
        // aggregate admitted share tracks 2/3.
        let share = report.admitted_share(0);
        assert!((share - 2.0 / 3.0).abs() <= 0.1, "heavy-tenant share {share}");
        // No tenant loses tickets: queued + in flight + completed + rejected
        // accounts for every submission.
        for outcome in &report.tenants {
            let s = outcome.stats;
            assert_eq!(
                s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected,
                s.submitted,
                "tenant {} conserves tickets",
                outcome.tenant
            );
            assert!(s.completed > 0, "tenant {} completes work", outcome.tenant);
        }
        // Batches never exceed the queue-size trigger limit.
        assert!(report.batches.iter().all(|b| b.job_ids.len() <= 18));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&saturating_scenario(), None);
        let b = run(&saturating_scenario(), None);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.completed.len(), b.completed.len());
    }

    /// Leader crashes mid-run are invisible to the workload: every failover
    /// rebuilds the job state byte for byte, so the fault-injected run
    /// produces *exactly* the batches and completions of the failure-free
    /// run, loses no ticket, and dispatches no job twice.
    #[test]
    fn failovers_mid_run_lose_no_state() {
        let plan = FailurePlan::from_seed(5, 400.0, 2);
        let chaos = run(&saturating_scenario(), Some(&plan));
        assert_eq!(chaos.crashes.len(), 2);
        assert!(chaos.all_digests_matched(), "rebuilt state diverged: {:?}", chaos.crashes);
        assert_eq!(chaos.lost_tickets(), 0);
        assert!(chaos.double_dispatched_jobs().is_empty());
        assert!(chaos.snapshots_installed > 0, "checkpoints compacted the journal");
        for crash in &chaos.crashes {
            for (old, new) in &crash.leaders {
                assert_ne!(old, new, "failover elected a new leader");
            }
        }
        let plain = run(&saturating_scenario(), None);
        assert_eq!(chaos.batches, plain.batches);
        assert_eq!(chaos.completed, plain.completed);
    }
}
