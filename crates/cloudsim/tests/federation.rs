//! Federation scenario suite: the heterogeneous multi-provider placement
//! comparison under a seeded regional outage, plus the safety rail that a
//! single-provider federation is byte-identical to the unfederated plane.
//!
//! CI runs this in the chaos seed matrix (`QONDUCTOR_CHAOS_SEED=<seed>`
//! selects the workload seed; unset uses the scenario default) and uploads
//! the emitted `federation_summary.txt` artifact.

use qonductor_backend::Fleet;
use qonductor_cloudsim::{
    default_fleet, run, run_federation_comparison, FailurePlan, FederationConfig, Scenario,
};
use qonductor_core::federation::FederatedFleet;
use qonductor_core::jobmanager::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Workload seed: the CI matrix leg's `QONDUCTOR_CHAOS_SEED` if set, else
/// the scenario default.
fn scenario_seed() -> u64 {
    match std::env::var("QONDUCTOR_CHAOS_SEED") {
        Ok(seed) => seed.parse().expect("QONDUCTOR_CHAOS_SEED must be an integer"),
        Err(_) => 77,
    }
}

/// The heterogeneous outage scenario end-to-end: cost-optimized placement
/// must reduce total spend relative to least-loaded at a bounded fidelity
/// penalty, and *no* strategy may start an execution inside the outage
/// window on an affected device. Emits the `federation_summary.txt`
/// artifact CI uploads.
#[test]
fn outage_comparison_meets_the_cost_and_maintenance_acceptance() {
    let seed = scenario_seed();
    let config = FederationConfig { seed, ..FederationConfig::default() };
    let comparison = run_federation_comparison(&config);

    // Emit the artifact first so CI uploads it even when an assertion trips.
    let summary = format!("seed {seed}\n\n{}", comparison.summary());
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("federation_summary.txt");
    let mut file = std::fs::File::create(&path).expect("summary file is writable");
    file.write_all(summary.as_bytes()).unwrap();
    println!("{summary}");

    for arm in &comparison.arms {
        assert!(
            !arm.report.completed.is_empty(),
            "seed {seed}: arm {} completed no applications",
            arm.strategy
        );
        assert_eq!(
            arm.outage_violations, 0,
            "seed {seed}: arm {} dispatched executions into the maintenance window",
            arm.strategy
        );
    }

    // Costs are compared per completed application: the arms finish
    // different amounts of work, so raw totals reward low throughput.
    let least_loaded = comparison.arm("least-loaded").expect("arm present");
    let cost_optimized = comparison.arm("cost-optimized").expect("arm present");
    assert!(
        cost_optimized.report.mean_cost() < least_loaded.report.mean_cost(),
        "seed {seed}: cost-optimized placement must cut the mean per-app cost \
         ({:.2} vs {:.2})",
        cost_optimized.report.mean_cost(),
        least_loaded.report.mean_cost(),
    );
    assert!(
        comparison.fidelity_cost() < 0.2,
        "seed {seed}: the savings must come at a bounded fidelity penalty \
         (drop {:.4})",
        comparison.fidelity_cost(),
    );
}

/// Safety rail: a federation of exactly one provider must be byte-identical
/// to today's unfederated plane — same dispatch stream, same completions,
/// same final journal digest.
#[test]
fn a_single_provider_federation_is_byte_identical_to_the_flat_plane() {
    let flat = Scenario {
        trigger: ScheduleTrigger::new(15, 45.0),
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
        calibration: CalibrationPolicy::SplitAtBoundary,
        plan_ahead: true,
        sample_every_s: 100.0,
        ..Scenario::paper(default_fleet(41), Default::default(), 0.5, 600.0, 41)
    };
    let no_crashes = FailurePlan { crash_times_s: Vec::new(), snapshot_every_batches: 8 };

    // Arm B: the identical fleet (`Scenario::paper` seeds the fleet RNG with
    // seed ^ 0xF1EE7 — replicate it exactly) wrapped in a single-provider
    // federation.
    let mut fleet_rng = StdRng::seed_from_u64(flat.seed ^ 0xF1EE7);
    let federation = FederatedFleet::single("ibm", Fleet::ibm_default(&mut fleet_rng));
    assert_eq!(federation.provider_of(0), Some("ibm"));
    let federated = Scenario { fleet: federation.into_fleet(), ..flat.clone() };

    let flat = run(&flat, Some(&no_crashes));
    let federated = run(&federated, Some(&no_crashes));
    assert_eq!(flat.batches, federated.batches, "dispatch streams must match batch-for-batch");
    assert_eq!(flat.completed, federated.completed, "completions must match app-for-app");
    assert_eq!(flat.qpu_names, federated.qpu_names);
    assert_eq!(
        flat.final_states, federated.final_states,
        "final control-plane states must be byte-identical"
    );
    assert_eq!(flat.speculative_batches, federated.speculative_batches);
}
