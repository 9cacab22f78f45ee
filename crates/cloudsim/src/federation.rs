//! The federated-fleet placement scenario: a heterogeneous multi-provider
//! federation (superconducting Falcons, a premium ion trap, a near-free
//! simulator, split across two regions) runs the same workload under each
//! [`PlacementStrategy`] while a seeded regional outage carves a maintenance
//! hole into the capacity view. The arms are compared on cost × fidelity ×
//! turnaround, and every arm is audited for executions started inside the
//! outage — the planner must route *around* scheduled capacity holes, not
//! through them.

use crate::load::ArrivalConfig;
use crate::sim::{run, Report, Scenario};
use qonductor_backend::{Fleet, ResourceClass};
use qonductor_core::federation::{
    CostOptimized, FederatedFleet, LeastLoaded, PlacementStrategy, QuantumAware,
};
use qonductor_core::jobmanager::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Region taken down by the seeded outage.
pub const OUTAGE_REGION: &str = "eu-central";
/// Cost-lane weight of the cost-optimized arm.
const COST_WEIGHT: f64 = 1.0;

/// Configuration of the federation placement scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Outage start (simulated seconds).
    pub outage_start_s: f64,
    /// Outage end (simulated seconds).
    pub outage_end_s: f64,
    /// Workload and fleet seed.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            duration_s: 1500.0,
            outage_start_s: 400.0,
            outage_end_s: 900.0,
            seed: 77,
        }
    }
}

impl FederationConfig {
    /// One placement arm's scenario: the federation with the outage
    /// scheduled, a flat 900 jobs/h single-tenant stream, 25-job / 60 s
    /// triggers, and the strategy's preference and cost weight. Dispatch is
    /// calibration-aware: the partition machinery that handles calibration
    /// crossovers is what turns maintenance windows into scheduled capacity
    /// holes.
    pub fn scenario(&self, strategy: &dyn PlacementStrategy) -> Scenario {
        let sched = strategy.scheduler_config(SchedulerConfig::default());
        let mut federation = federated_heterogeneous(self.seed);
        federation.fleet_mut().schedule_region_outage(
            OUTAGE_REGION,
            self.outage_start_s,
            self.outage_end_s,
        );
        let arrival = ArrivalConfig {
            mean_rate_per_hour: 900.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        };
        Scenario {
            trigger: ScheduleTrigger::new(25, 60.0),
            scheduler: SchedulerConfig {
                nsga2: Nsga2Config {
                    population_size: 20,
                    max_generations: 15,
                    max_evaluations: 1500,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                preference: sched.preference,
                cost_weight: sched.cost_weight,
                ..SchedulerConfig::default()
            },
            calibration: CalibrationPolicy::SplitAtBoundary,
            sample_every_s: 100.0,
            ..Scenario::paper(federation.into_fleet(), arrival, 0.5, self.duration_s, self.seed)
        }
    }
}

/// One placement strategy's run over the federated fleet.
#[derive(Debug, Clone)]
pub struct PlacementArm {
    /// Strategy name ([`PlacementStrategy::name`]).
    pub strategy: String,
    /// The arm's full simulation report.
    pub report: Report,
    /// Executions that *started* inside the outage window on an affected
    /// QPU — must be 0 for every strategy (the planner routes around
    /// scheduled capacity holes).
    pub outage_violations: usize,
}

/// Side-by-side outcome of the federation placement scenario.
#[derive(Debug, Clone)]
pub struct FederationComparison {
    /// The scenario configuration every arm ran under.
    pub config: FederationConfig,
    /// One arm per strategy, in run order.
    pub arms: Vec<PlacementArm>,
    /// Flat indices of the QPUs taken down by the outage.
    pub affected_qpus: Vec<usize>,
    /// `(provider name, qpu count)` spans of the federation.
    pub provider_spans: Vec<(String, usize)>,
}

impl FederationComparison {
    /// The arm run under the named strategy.
    pub fn arm(&self, strategy: &str) -> Option<&PlacementArm> {
        self.arms.iter().find(|a| a.strategy == strategy)
    }

    /// Per-application cost reduction of the cost-optimized arm relative to
    /// the least-loaded arm: `least_loaded − cost_optimized` mean cost per
    /// completed application (positive = the cost lane saved money).
    ///
    /// Compared per completed application rather than as raw totals because
    /// the arms complete different amounts of work — an arm that finishes
    /// more jobs spends more in absolute terms even when each job is
    /// cheaper.
    pub fn cost_reduction(&self) -> f64 {
        self.least_loaded_minus_cost_optimized(Report::mean_cost)
    }

    /// Mean-fidelity drop the cost-optimized arm paid for its savings:
    /// `least_loaded − cost_optimized` (positive = fidelity got worse).
    pub fn fidelity_cost(&self) -> f64 {
        self.least_loaded_minus_cost_optimized(Report::mean_fidelity)
    }

    fn least_loaded_minus_cost_optimized(&self, metric: fn(&Report) -> f64) -> f64 {
        match (self.arm("least-loaded"), self.arm("cost-optimized")) {
            (Some(ll), Some(co)) => metric(&ll.report) - metric(&co.report),
            _ => 0.0,
        }
    }

    /// Human-readable comparison table — the `federation_summary.txt`
    /// artifact the CI scenario uploads.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "federation placement comparison — outage: {} [{:.0}s, {:.0}s), {} QPU(s) down\n",
            OUTAGE_REGION,
            self.config.outage_start_s,
            self.config.outage_end_s,
            self.affected_qpus.len()
        );
        let spans: Vec<String> =
            self.provider_spans.iter().map(|(name, len)| format!("{name}({len})")).collect();
        out.push_str(&format!("providers: {}\n\n", spans.join(" ")));
        out.push_str(
            "strategy         completed  total_cost  mean_cost  mean_fidelity  mean_completion_s  outage_violations\n",
        );
        for arm in &self.arms {
            out.push_str(&format!(
                "{:<16} {:>9} {:>11.2} {:>10.2} {:>14.4} {:>18.1} {:>18}\n",
                arm.strategy,
                arm.report.completed.len(),
                arm.report.total_cost(),
                arm.report.mean_cost(),
                arm.report.mean_fidelity(),
                arm.report.mean_completion_s(),
                arm.outage_violations,
            ));
        }
        out.push_str(&format!(
            "\nmean-cost reduction per app (least-loaded − cost-optimized): {:.2}\n",
            self.cost_reduction()
        ));
        out.push_str(&format!(
            "fidelity cost of the savings (least-loaded − cost-optimized): {:.4}\n",
            self.fidelity_cost()
        ));
        out
    }
}

/// The scenario's federation: the heterogeneous fleet's devices regrouped
/// into one provider per resource class (`sc-cloud`, `ion-cloud`,
/// `sim-cloud`). The class groups are contiguous in the heterogeneous spec,
/// so the composed flat fleet is member-for-member identical to
/// [`Fleet::heterogeneous`] under the same seed.
pub fn federated_heterogeneous(seed: u64) -> FederatedFleet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let fleet = Fleet::heterogeneous(&mut rng);
    let mut providers: Vec<(&str, Vec<_>)> =
        vec![("sc-cloud", Vec::new()), ("ion-cloud", Vec::new()), ("sim-cloud", Vec::new())];
    for member in fleet.members() {
        let slot = match member.qpu.resource_class {
            ResourceClass::Superconducting => 0,
            ResourceClass::IonTrap => 1,
            ResourceClass::Simulator => 2,
        };
        providers[slot].1.push(member.clone());
    }
    FederatedFleet::new(
        providers.into_iter().map(|(name, members)| (name, Fleet::from_members(members))).collect(),
    )
}

/// Run the full federation placement comparison: least-loaded,
/// quantum-aware, and cost-optimized placement over identically seeded
/// fleets, workloads, and outage schedules.
pub fn run_federation_comparison(config: &FederationConfig) -> FederationComparison {
    let cost_optimized = CostOptimized { cost_weight: COST_WEIGHT };
    let strategies: [&dyn PlacementStrategy; 3] = [&LeastLoaded, &QuantumAware, &cost_optimized];
    let federation = federated_heterogeneous(config.seed);
    let affected_qpus: Vec<usize> = federation
        .fleet()
        .members()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.qpu.region == OUTAGE_REGION)
        .map(|(i, _)| i)
        .collect();
    let arms = strategies
        .iter()
        .map(|strategy| {
            let report = run(&config.scenario(*strategy), None);
            let outage_violations = report
                .completed
                .iter()
                .filter(|c| {
                    let start_s = c.submit_s + c.waiting_s;
                    affected_qpus.contains(&c.qpu_index)
                        && start_s >= config.outage_start_s
                        && start_s < config.outage_end_s
                })
                .count();
            PlacementArm { strategy: strategy.name().to_string(), report, outage_violations }
        })
        .collect();
    FederationComparison {
        config: config.clone(),
        arms,
        affected_qpus,
        provider_spans: federation.provider_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_federated_composition_matches_the_flat_heterogeneous_fleet() {
        let fed = federated_heterogeneous(77);
        let mut rng = StdRng::seed_from_u64(77 ^ 0xF1EE7);
        let flat = Fleet::heterogeneous(&mut rng);
        assert_eq!(fed.num_qpus(), flat.len());
        for (a, b) in fed.fleet().members().iter().zip(flat.members()) {
            assert_eq!(a.qpu.name, b.qpu.name, "composition must preserve member order");
            assert_eq!(a.qpu.cost_per_shot, b.qpu.cost_per_shot);
            assert_eq!(a.qpu.region, b.qpu.region);
        }
        assert_eq!(
            fed.provider_spans(),
            vec![
                ("sc-cloud".to_string(), 4),
                ("ion-cloud".to_string(), 1),
                ("sim-cloud".to_string(), 1)
            ]
        );
    }

    /// Fast smoke version of the scenario (the full comparison runs in
    /// `tests/federation.rs` and CI): all arms complete work, and no arm
    /// starts an execution inside the outage on an affected device.
    #[test]
    fn all_arms_complete_work_and_respect_the_outage() {
        let config = FederationConfig {
            duration_s: 700.0,
            outage_start_s: 200.0,
            outage_end_s: 500.0,
            ..FederationConfig::default()
        };
        let comparison = run_federation_comparison(&config);
        assert_eq!(comparison.arms.len(), 3);
        assert_eq!(comparison.affected_qpus.len(), 3, "eu-central hosts 3 devices");
        for arm in &comparison.arms {
            assert!(
                !arm.report.completed.is_empty(),
                "arm {} completed no applications",
                arm.strategy
            );
            assert_eq!(
                arm.outage_violations, 0,
                "arm {} started executions inside the outage",
                arm.strategy
            );
        }
        let summary = comparison.summary();
        assert!(summary.contains("least-loaded"));
        assert!(summary.contains("cost-optimized"));
        assert!(summary.contains("quantum-aware"));
    }
}
