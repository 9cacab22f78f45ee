//! The drifting-hardware scenario (§7): run the same workload twice on a
//! fleet whose devices recalibrate *inside* the simulated window — once with
//! calibration-aware dispatch ([`CalibrationPolicy::SplitAtBoundary`]: batch
//! plans are partitioned at recalibration boundaries and the post-boundary
//! jobs re-estimated against the new snapshot) and once with the naive
//! baseline (stale estimates dispatch regardless) — and compare the realized
//! fidelity-estimation error and the re-plan overhead.

use crate::load::ArrivalConfig;
use crate::sim::{default_fleet, run, Report, Scenario};
use qonductor_core::jobmanager::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};

/// Configuration of the drift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Seconds between recalibration boundaries — shortened well below the
    /// hourly default so calibrations genuinely change mid-run.
    pub calibration_period_s: f64,
    /// Workload and fleet seed.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { duration_s: 1500.0, calibration_period_s: 400.0, seed: 77 }
    }
}

impl DriftConfig {
    /// The scenario: a flat 900 jobs/h single-tenant stream on the default
    /// fleet recalibrating every period, batched by 25-job / 60 s triggers,
    /// dispatched under `calibration`.
    pub fn scenario(&self, calibration: CalibrationPolicy) -> Scenario {
        let arrival = ArrivalConfig {
            mean_rate_per_hour: 900.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        };
        let fleet =
            default_fleet(self.seed).with_calibration_period(self.calibration_period_s, 0.0);
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
                ..SchedulerConfig::default()
            },
            calibration,
            sample_every_s: 100.0,
            ..Scenario::paper(fleet, arrival, 0.5, self.duration_s, self.seed)
        }
    }
}

/// Side-by-side outcome of the drift scenario.
#[derive(Debug, Clone)]
pub struct DriftComparison {
    /// The calibration-aware run (split + re-estimate at boundaries).
    pub aware: Report,
    /// The naive baseline (stale estimates dispatch across boundaries).
    pub naive: Report,
}

impl DriftComparison {
    /// Reduction of the mean fidelity-estimation error achieved by
    /// calibration-aware dispatch: `naive − aware` (positive = aware wins).
    pub fn fidelity_error_reduction(&self) -> f64 {
        self.naive.mean_fidelity_error() - self.aware.mean_fidelity_error()
    }

    /// Re-plan overhead of the aware run: boundary deferrals plus
    /// re-estimated jobs (work the naive baseline never performs).
    pub fn replan_overhead(&self) -> usize {
        self.aware.deferred_total() + self.aware.reestimated_jobs
    }
}

/// Run the calibration-aware arm and the naive arm on identically seeded
/// fleets and workload streams.
pub fn run_drift_comparison(config: &DriftConfig) -> DriftComparison {
    DriftComparison {
        aware: run(&config.scenario(CalibrationPolicy::SplitAtBoundary), None),
        naive: run(&config.scenario(CalibrationPolicy::Naive), None),
    }
}

/// Side-by-side outcome of the proactive boundary-penalty study: both arms
/// run calibration-aware dispatch, but the penalized arm also steers NSGA-II
/// *away* from boundary-crossing plans
/// ([`SchedulerConfig::boundary_penalty_weight`] > 0), so fewer batches need
/// the reactive split-and-defer path at dispatch time.
#[derive(Debug, Clone)]
pub struct PenaltyComparison {
    /// Calibration-aware with the proactive NSGA-II boundary penalty.
    pub penalized: Report,
    /// Calibration-aware with the penalty disabled.
    pub baseline: Report,
}

/// Run the boundary-penalty study: calibration-aware dispatch with and
/// without the proactive NSGA-II penalty, on identical fleets and workloads.
pub fn run_penalty_comparison(config: &DriftConfig, weight: f64) -> PenaltyComparison {
    let aware = config.scenario(CalibrationPolicy::SplitAtBoundary);
    let mut penalized = aware.clone();
    penalized.scheduler.boundary_penalty_weight = weight;
    PenaltyComparison { penalized: run(&penalized, None), baseline: run(&aware, None) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast smoke version of the drift comparison (the full scenario runs
    /// in `tests/drift.rs` and CI): boundaries fall inside the window, the
    /// aware arm splits and re-estimates, the naive arm never does.
    #[test]
    fn aware_arm_splits_and_reestimates_naive_never() {
        let config = DriftConfig { duration_s: 900.0, calibration_period_s: 300.0, seed: 77 };
        let comparison = run_drift_comparison(&config);
        assert!(comparison.aware.split_batches() > 0, "plans must cross boundaries");
        assert!(comparison.aware.reestimated_jobs > 0, "deferred jobs must be re-estimated");
        assert_eq!(comparison.naive.split_batches(), 0);
        assert_eq!(comparison.naive.reestimated_jobs, 0);
        assert!(!comparison.aware.completed.is_empty() && !comparison.naive.completed.is_empty());
        assert!(comparison.replan_overhead() > 0);
    }
}
