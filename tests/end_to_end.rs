//! Integration tests spanning the full stack: circuits → transpiler →
//! mitigation → estimator → scheduler → orchestrator → cloud simulation.

use qonductor::backend::{Fleet, Simulator};
use qonductor::circuit::generators::{ghz, qaoa_maxcut, MaxCutGraph};
use qonductor::cloudsim::{default_fleet, run, ArrivalConfig, Placement, Report, Scenario};
use qonductor::core::{
    mitigated_execution_workflow, DeploymentConfig, Orchestrator, Priority, WorkflowStatus,
};
use qonductor::estimator::{generate_plans, EstimationBackend, PlanGeneratorConfig};
use qonductor::mitigation::MitigationStack;
use qonductor::scheduler::{ClassicalRequest, Nsga2Config, Preference, SchedulerConfig};
use qonductor::transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_pipeline_circuit_to_execution_on_every_fleet_device() {
    let mut rng = StdRng::seed_from_u64(1);
    let fleet = Fleet::ibm_default(&mut rng);
    let transpiler = Transpiler::default();
    let simulator = Simulator::analytic();
    let circuit = ghz(7);
    for member in fleet.members() {
        let transpiled = transpiler.transpile_for_qpu(&circuit, &member.qpu);
        let mut exec_rng = StdRng::seed_from_u64(2);
        let result =
            simulator.execute(&transpiled.circuit, &member.qpu.noise_model(), &mut exec_rng);
        assert!(result.fidelity > 0.0 && result.fidelity <= 1.0, "{}", member.qpu.name);
        assert!(result.duration_ns > 0.0);
    }
}

#[test]
fn mitigation_improves_estimated_fidelity_on_real_transpiled_circuits() {
    let mut rng = StdRng::seed_from_u64(3);
    let fleet = Fleet::ibm_default(&mut rng);
    let qpu = &fleet.by_name("ibm_algiers").unwrap().qpu; // the noisiest Falcon
    let transpiler = Transpiler::default();
    let graph = MaxCutGraph::ring(14);
    let circuit = qaoa_maxcut(&graph, &[0.4], &[0.9]);
    let transpiled = transpiler.transpile_for_qpu(&circuit, qpu);
    let noise = qpu.noise_model();
    let base = noise.estimated_success_probability(&transpiled.circuit);
    let mitigated =
        MitigationStack::listing2().cost(&transpiled.circuit, &noise).mitigated_fidelity(base);
    assert!(mitigated > base, "mitigated {mitigated} must exceed baseline {base}");
    assert!(mitigated <= 1.0);
}

#[test]
fn resource_plans_feed_the_orchestrator_consistently() {
    let orchestrator = Orchestrator::with_default_cluster(5);
    let wf = mitigated_execution_workflow(
        "integration-qaoa",
        qaoa_maxcut(&MaxCutGraph::ring(10), &[0.5], &[0.2]),
        MitigationStack::listing2(),
        ClassicalRequest::small(),
    );
    let image = orchestrator.create_workflow(
        wf,
        DeploymentConfig { priority: Priority::Balanced, ..Default::default() },
    );
    let plans = orchestrator.estimate_resources(image).unwrap();
    assert!(!plans.is_empty());
    let run = orchestrator.invoke(image).unwrap();
    let result = orchestrator.workflow_results(run).unwrap();
    // The plan actually used by the run is one of the plan space's labels.
    assert!(!result.plan.stack_label.is_empty());
    assert!(result.mean_fidelity() > 0.0);
    assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
}

#[test]
fn plan_generation_and_direct_estimation_agree_on_feasibility() {
    let mut rng = StdRng::seed_from_u64(9);
    let fleet = Fleet::ibm_default(&mut rng);
    let templates = fleet.template_qpus();
    // A 20-qubit circuit only fits the 27-qubit model.
    let circuit = ghz(20);
    let plans = generate_plans(
        &circuit,
        &templates,
        EstimationBackend::Analytic,
        &PlanGeneratorConfig::default(),
    );
    assert!(!plans.is_empty());
    assert!(plans.iter().all(|p| p.qpu_model == "falcon-r5.11"));
}

#[test]
fn qonductor_policy_beats_fcfs_on_completion_time_in_a_short_simulation() {
    // Both policies face the *identical* arrival stream and calibration
    // trajectory (the simulation keeps arrivals, calibration drift, and
    // completion jitter on independent seeded RNG streams), so this is a
    // true like-for-like comparison. The workload is unmitigated: PEC
    // mitigation creates rare minutes-long mega-jobs whose survivor bias
    // makes "mean completion of completed jobs" phase-chaotic under load,
    // drowning the policy effect in seed luck. At 3000 unmitigated
    // jobs/hour the fidelity-greedy FCFS baseline funnels everything onto
    // one or two favourite devices while Qonductor load-balances the fleet
    // — the paper's RQ1 shape, stable across seeds.
    let scenario = |placement| Scenario {
        placement,
        scheduler: SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 24,
                max_generations: 20,
                max_evaluations: 2500,
                num_threads: 2,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        },
        ..Scenario::paper(
            default_fleet(99),
            ArrivalConfig { mean_rate_per_hour: 3000.0, ..Default::default() },
            0.0,
            600.0,
            99,
        )
    };
    let qonductor = run(&scenario(Placement::Qonductor), None);
    let fcfs = run(&scenario(Placement::Fcfs), None);
    assert_eq!(qonductor.arrived(), fcfs.arrived(), "identical workload in both arms");
    assert!(!qonductor.completed.is_empty() && !fcfs.completed.is_empty());
    // The headline RQ1 shape: Qonductor completes jobs faster, pushes far
    // more of them through, and uses the fleet more evenly, at a small (or
    // no) fidelity penalty.
    assert!(
        qonductor.mean_completion_s() < fcfs.mean_completion_s(),
        "Qonductor {:.1}s vs FCFS {:.1}s",
        qonductor.mean_completion_s(),
        fcfs.mean_completion_s()
    );
    assert!(
        qonductor.completed.len() >= 2 * fcfs.completed.len(),
        "load balancing multiplies throughput: {} vs {}",
        qonductor.completed.len(),
        fcfs.completed.len()
    );
    assert!(qonductor.mean_utilization() >= fcfs.mean_utilization() * 0.95);
    let fidelity_penalty =
        (fcfs.mean_fidelity() - qonductor.mean_fidelity()) / fcfs.mean_fidelity();
    assert!(fidelity_penalty < 0.15, "fidelity penalty {fidelity_penalty} too large");
}

#[test]
fn scheduling_priorities_shape_end_to_end_outcomes() {
    let scenario = |preference| Scenario {
        scheduler: SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 24,
                max_generations: 20,
                max_evaluations: 2500,
                num_threads: 2,
                ..Nsga2Config::default()
            },
            preference,
            ..SchedulerConfig::default()
        },
        ..Scenario::paper(
            default_fleet(123),
            ArrivalConfig { mean_rate_per_hour: 1000.0, ..Default::default() },
            0.5,
            500.0,
            123,
        )
    };
    let jct_first = run(&scenario(Preference::jct_first()), None);
    let fid_first = run(&scenario(Preference::fidelity_first()), None);
    assert!(!jct_first.cycles.is_empty() && !fid_first.cycles.is_empty());
    // The cross-run JCT ordering is robust: a jct-first scheduler produces
    // faster chosen solutions than a fidelity-first one.
    let mean_chosen_jct = |r: &Report| {
        r.cycles.iter().map(|c| c.chosen.mean_jct_s).sum::<f64>() / r.cycles.len().max(1) as f64
    };
    assert!(mean_chosen_jct(&jct_first) <= mean_chosen_jct(&fid_first) + 1e-6);
    // Fidelity differences between whole runs are smaller than the noise the
    // diverging queue states introduce, so compare each run's chosen
    // solutions against its own Pareto fronts: the preferred objective must
    // sit near the front's best value, and closer than under the opposite
    // preference.
    let fid_gap = |r: &Report| {
        r.cycles.iter().map(|c| c.front_max_fidelity - c.chosen.mean_fidelity()).sum::<f64>()
            / r.cycles.len().max(1) as f64
    };
    let jct_gap = |r: &Report| {
        r.cycles
            .iter()
            .map(|c| (c.chosen.mean_jct_s - c.front_min_jct_s) / c.front_max_jct_s.max(1e-9))
            .sum::<f64>()
            / r.cycles.len().max(1) as f64
    };
    assert!(
        fid_gap(&fid_first) <= fid_gap(&jct_first) + 1e-6,
        "fidelity-first must track the front's best fidelity: {} vs {}",
        fid_gap(&fid_first),
        fid_gap(&jct_first)
    );
    assert!(
        jct_gap(&jct_first) <= jct_gap(&fid_first) + 1e-6,
        "jct-first must track the front's best JCT: {} vs {}",
        jct_gap(&jct_first),
        jct_gap(&fid_first)
    );
}
