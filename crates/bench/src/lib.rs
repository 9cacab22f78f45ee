//! # qonductor-bench
//!
//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper's evaluation (§8). Each `benches/figXX_*.rs` target is a
//! standalone harness (`harness = false`) that runs the corresponding
//! experiment and prints the same rows/series the paper reports; the
//! `micro_scheduler` target is a conventional Criterion micro-benchmark of the
//! scheduler's hot path.
//!
//! The experiment-to-target mapping is listed in `DESIGN.md` (§5) and the
//! measured-vs-paper numbers are recorded in `EXPERIMENTS.md`.

use qonductor_backend::Fleet;
use qonductor_cloudsim::{ArrivalConfig, Placement, Scenario};
use qonductor_scheduler::{JobRequest, Preference, QpuState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Print the standard header for a figure/table harness.
pub fn banner(experiment: &str, description: &str) {
    println!("================================================================");
    println!("{experiment}: {description}");
    println!("================================================================");
}

/// Scale factor for the simulated experiments, controlled with the
/// `QONDUCTOR_BENCH_SCALE` environment variable (1.0 = paper-scale, smaller
/// values shrink the simulated duration for quick runs).
pub fn bench_scale() -> f64 {
    std::env::var("QONDUCTOR_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0 && *v <= 1.0)
        .unwrap_or(0.25)
}

/// The cloud-simulation scenario of the end-to-end figures: one simulated
/// hour (scaled by [`bench_scale`]) of diurnal arrivals at `rate_per_hour`
/// from one unthrottled tenant on `fleet`, half of them mitigated, at the
/// paper's 100-job / 120 s trigger.
pub fn paper_scenario(
    fleet: Fleet,
    placement: Placement,
    rate_per_hour: f64,
    seed: u64,
) -> Scenario {
    let arrival = ArrivalConfig { mean_rate_per_hour: rate_per_hour, ..Default::default() };
    let mut scenario = Scenario::paper(fleet, arrival, 0.5, 3600.0 * bench_scale(), seed);
    scenario.placement = placement;
    scenario.scheduler.nsga2.max_evaluations = 8000;
    scenario
}

/// Generate a synthetic batch of scheduling jobs and QPU states (used by the
/// scheduler-facing figures 9c and 10b and the ablations).
pub fn synthetic_problem(
    num_jobs: usize,
    num_qpus: usize,
    seed: u64,
) -> (Vec<JobRequest>, Vec<QpuState>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let qpus: Vec<QpuState> = (0..num_qpus)
        .map(|i| QpuState {
            name: format!("qpu{i:02}"),
            num_qubits: 27,
            waiting_time_s: rng.gen_range(0.0..600.0),
            calibration_epoch: 0,
        })
        .collect();
    let jobs: Vec<JobRequest> = (0..num_jobs)
        .map(|i| {
            let base_fid: f64 = rng.gen_range(0.55..0.95);
            JobRequest {
                job_id: i as u64,
                qubits: rng.gen_range(2..=27),
                shots: rng.gen_range(1000..8000),
                fidelity_per_qpu: (0..num_qpus)
                    .map(|_| (base_fid + rng.gen_range(-0.15..0.15)).clamp(0.05, 0.99))
                    .collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(5.0..120.0)).collect(),
            }
        })
        .collect();
    (jobs, qpus)
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The preference used when figures call for "balanced" weights.
pub fn balanced() -> Preference {
    Preference::balanced()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_bounded() {
        let s = bench_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn synthetic_problem_shapes() {
        let (jobs, qpus) = synthetic_problem(20, 4, 1);
        assert_eq!(jobs.len(), 20);
        assert_eq!(qpus.len(), 4);
        assert!(jobs.iter().all(|j| j.fidelity_per_qpu.len() == 4));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
