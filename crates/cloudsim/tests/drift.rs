//! The drifting-hardware scenario end-to-end (§7): calibrations genuinely
//! change mid-run, and calibration-aware dispatch (split at the boundary +
//! re-estimate) is compared against the naive baseline on realized
//! fidelity-estimation error and re-plan overhead. A fault-injected
//! (leader-crash) run of the same scenario must produce byte-identical split
//! decisions and a byte-identical final control-plane digest to the
//! failure-free run.
//!
//! CI runs this suite and uploads the emitted `calibration_drift_summary.txt`
//! artifact.

use qonductor_cloudsim::{
    run, run_drift_comparison, run_penalty_comparison, DriftConfig, FailurePlan, Report,
};
use qonductor_core::CalibrationPolicy;
use std::io::Write;

#[test]
fn calibration_aware_dispatch_reduces_fidelity_error_under_drift() {
    let config = DriftConfig::default();
    let comparison = run_drift_comparison(&config);

    // The §7 path is genuinely exercised: plans cross boundaries, the aware
    // arm splits and re-estimates, the naive arm never does.
    assert!(comparison.aware.split_batches() > 0, "no batch crossed a boundary");
    assert!(comparison.aware.deferred_total() > 0);
    assert!(comparison.aware.reestimated_jobs > 0, "deferred jobs must be re-estimated");
    assert_eq!(comparison.naive.split_batches(), 0);
    assert_eq!(comparison.naive.reestimated_jobs, 0);
    assert!(!comparison.aware.completed.is_empty() && !comparison.naive.completed.is_empty());

    // Headline: dispatching with epoch-fresh estimates shrinks the gap
    // between the fidelity the scheduler believed and the fidelity implied
    // by the calibration actually in force at execution.
    let aware_err = comparison.aware.mean_fidelity_error();
    let naive_err = comparison.naive.mean_fidelity_error();
    assert!(
        aware_err < naive_err,
        "calibration-aware dispatch must reduce the realized estimation error: \
         aware {aware_err:.5} vs naive {naive_err:.5}"
    );

    // Deferral is a delay, not a drop: every arrival is accounted for.
    for report in [&comparison.aware, &comparison.naive] {
        let enqueued: usize = report.batches.iter().map(|d| d.enqueued.len()).sum();
        assert!(enqueued as u64 + report.rejected() <= report.arrived());
    }

    let summary = format!(
        "metric,aware,naive\n\
         split_batches,{},{}\n\
         deferred_jobs,{},{}\n\
         reestimated_jobs,{},{}\n\
         mean_fidelity_error,{:.6},{:.6}\n\
         fidelity_error_reduction,{:.6},-\n\
         replan_overhead,{},0\n\
         completed,{},{}\n\
         mean_completion_s,{:.3},{:.3}\n",
        comparison.aware.split_batches(),
        comparison.naive.split_batches(),
        comparison.aware.deferred_total(),
        comparison.naive.deferred_total(),
        comparison.aware.reestimated_jobs,
        comparison.naive.reestimated_jobs,
        aware_err,
        naive_err,
        comparison.fidelity_error_reduction(),
        comparison.replan_overhead(),
        comparison.aware.completed.len(),
        comparison.naive.completed.len(),
        comparison.aware.mean_completion_s(),
        comparison.naive.mean_completion_s(),
    );
    println!("{summary}");
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("calibration_drift_summary.txt");
    let mut file = std::fs::File::create(&path).expect("summary file is writable");
    file.write_all(summary.as_bytes()).unwrap();
}

/// Share of jobs handed to the scheduler that the §7 split pulled back out
/// at a recalibration boundary. Deferred jobs re-enter later batches, so the
/// rate (not the absolute count) is the comparable quantity between arms
/// whose throughput differs.
fn deferral_rate(report: &Report) -> f64 {
    report.deferred_total() as f64 / report.dispatched_jobs().max(1) as f64
}

/// The proactive boundary penalty: steering NSGA-II away from plans whose
/// per-QPU busy time spills past the device's next recalibration must reduce
/// the share of dispatched jobs the reactive split path has to defer — at
/// equal or better realized fidelity error. (Both arms run the same
/// calibration-aware dispatch; only the optimizer objective differs.)
#[test]
fn boundary_penalty_reduces_split_deferrals_at_equal_or_better_fidelity_error() {
    const PENALTY_WEIGHT: f64 = 0.1;
    let config = DriftConfig::default();
    let comparison = run_penalty_comparison(&config, PENALTY_WEIGHT);

    // Both arms genuinely cross boundaries.
    assert!(comparison.baseline.split_batches() > 0, "no batch crossed a boundary");
    assert!(!comparison.penalized.completed.is_empty());

    let base_rate = deferral_rate(&comparison.baseline);
    let pen_rate = deferral_rate(&comparison.penalized);
    assert!(
        pen_rate < base_rate,
        "the boundary penalty must reduce the deferral rate: \
         penalized {pen_rate:.4} vs baseline {base_rate:.4}"
    );
    let base_err = comparison.baseline.mean_fidelity_error();
    let pen_err = comparison.penalized.mean_fidelity_error();
    assert!(
        pen_err <= base_err,
        "fewer splits must not cost fidelity accuracy: \
         penalized {pen_err:.6} vs baseline {base_err:.6}"
    );

    let summary = format!(
        "metric,penalized(w={PENALTY_WEIGHT}),baseline(w=0)\n\
         deferral_rate,{:.4},{:.4}\n\
         deferred_jobs,{},{}\n\
         split_batches,{},{}\n\
         mean_fidelity_error,{:.6},{:.6}\n\
         completed,{},{}\n",
        pen_rate,
        base_rate,
        comparison.penalized.deferred_total(),
        comparison.baseline.deferred_total(),
        comparison.penalized.split_batches(),
        comparison.baseline.split_batches(),
        pen_err,
        base_err,
        comparison.penalized.completed.len(),
        comparison.baseline.completed.len(),
    );
    println!("{summary}");
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("boundary_penalty_summary.txt");
    std::fs::write(&path, summary).expect("summary file is writable");
}

/// Acceptance: a fault-injected (leader-crash) run of the drift scenario
/// produces byte-identical split decisions and final digests to the
/// failure-free run — the §7 split state (deferral counters, hold times,
/// refreshed estimates) replays exactly from `snapshot + log replay`.
#[test]
fn drift_scenario_split_decisions_survive_leader_crashes_byte_for_byte() {
    let config = DriftConfig { duration_s: 1000.0, ..DriftConfig::default() };
    let aware = config.scenario(CalibrationPolicy::SplitAtBoundary);
    let plan = FailurePlan::from_seed(config.seed, config.duration_s, 3);
    let chaos = run(&aware, Some(&plan));
    let plain = run(
        &aware,
        Some(&FailurePlan {
            crash_times_s: vec![],
            snapshot_every_batches: plan.snapshot_every_batches,
        }),
    );

    assert_eq!(chaos.crashes.len(), 3, "all crashes injected");
    assert!(chaos.all_digests_matched(), "a failover rebuilt divergent state: {:?}", chaos.crashes);
    assert!(chaos.split_batches() > 0, "the fault-injected run must still cross boundaries");
    // Byte-identical split decisions and final state.
    assert_eq!(chaos.batches, plain.batches);
    assert_eq!(chaos.final_digests, plain.final_digests);
    assert_eq!(chaos.completed, plain.completed);
    assert_eq!(chaos.reestimated_jobs, plain.reestimated_jobs);
}
