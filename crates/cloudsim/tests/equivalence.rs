//! Report-equivalence oracle: the unified event loop must reproduce, bit for
//! bit, the deterministic report fields that the six former per-scenario
//! drivers produced for the same scenarios. Each row fingerprints one run —
//! FNV-1a 64 over a canonical text rendering of its time series, cycle
//! statistics, batches, completions, counters, crash records, and final
//! `encode_state()` bytes — and the table holds the values those drivers
//! reported.
//!
//! Left out on purpose: the wall-clock `stage_runtimes_s`, the incremental
//! digests, and `replayed_events`, which count journal entries — the
//! single-shard plane also journals its lease grants. For the same reason
//! the lease section of the encoded state is cut out before hashing.

use qonductor_cloudsim::slo::{BULK_TENANT, SLO_TENANT};
use qonductor_cloudsim::{
    default_fleet, run, run_drift_comparison, run_federation_comparison, run_slo_comparison,
    ArrivalConfig, DriftConfig, FailurePlan, FederationConfig, Placement, Report, Scenario,
    SloConfig,
};
use qonductor_core::digest::Fnv64;
use qonductor_core::submission::RejectReason;
use qonductor_core::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};

/// `(run, fingerprint)` as reported by the former drivers.
const FINGERPRINTS: [(&str, u64); 19] = [
    ("qonductor", 0xcabe7b2dd5ca6332),
    ("fcfs", 0x73650d0fccb77cf2),
    ("least_busy", 0xd69b52b5cc5d7863),
    ("pipelined_chaos_11", 0x318c9d49b10bcdbd),
    ("drift_aware", 0xaf6083251557fc7e),
    ("drift_naive", 0x84931b88999b62fe),
    ("federation_least-loaded", 0x4ed19522b046cf72),
    ("federation_quantum-aware", 0x896c14d93aa1293d),
    ("federation_cost-optimized", 0xe19730ffe9047ce9),
    ("slo_aware_11", 0x7dcdf9edea6dc7d6),
    ("weighted_fair_11", 0x04c80daaa0640071),
    ("slo_aware_23", 0x72993139d246e4bc),
    ("weighted_fair_23", 0x478c150f97abeafc),
    ("slo_aware_37", 0x6f8e2ccc91dc9134),
    ("weighted_fair_37", 0x24a280ae84f5450c),
    ("slo_aware_41", 0x58015e469013fa46),
    ("weighted_fair_41", 0xcffd2ed804050789),
    ("slo_aware_59", 0x2cfc1d755560c81b),
    ("weighted_fair_59", 0xa3bcffd704b5843c),
];

/// The final encoded state with the lease section (`"\nlease <qpus>"`,
/// which a lease-free plane omits) cut out, rendered line by line.
fn encoded_state(r: &Report) -> String {
    let mut state = r.final_states[0].clone();
    if let Some(at) = state.find("\nlease ") {
        let end = state[at + 1..].find('\n').map_or(state.len(), |n| at + 1 + n);
        state.replace_range(at..end, "");
    }
    state.lines().collect::<Vec<_>>().join("\n")
}

/// The single-tenant rendering: time series, cycles, batches, completions,
/// and counters.
fn single_tenant(r: &Report) -> String {
    let mut s = String::new();
    for p in &r.timeline {
        s += &format!(
            "{:?} {:?} {:?} {:?} {} {}\n",
            p.t_s,
            p.mean_fidelity,
            p.mean_completion_s,
            p.mean_utilization,
            p.scheduler_queue_len,
            p.completed
        );
    }
    for c in &r.cycles {
        s += &format!(
            "{:?} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}\n",
            c.t_s,
            c.num_jobs,
            c.chosen,
            c.chosen_p95_jct_s,
            c.front_min_jct_s,
            c.front_max_jct_s,
            c.front_max_fidelity,
            c.front_min_fidelity,
            c.chosen_mean_exec_s,
            c.front_min_exec_s,
            c.front_max_exec_s
        );
    }
    for b in &r.batches {
        s += &format!(
            "{:?} {:?} {:?} {:?} {}\n",
            b.t_s, b.job_ids, b.enqueued, b.deferred, b.fleet_epoch
        );
    }
    for c in &r.completed {
        s += &format!(
            "{} {} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}\n",
            c.app_id,
            c.qpu_index,
            c.submit_s,
            c.completion_s,
            c.waiting_s,
            c.execution_s,
            c.fidelity,
            c.fidelity_error,
            c.mitigated,
            c.cost
        );
    }
    s += &format!(
        "{:?}\n{:?}\n{} {} {} {}\n",
        r.qpu_busy_s,
        r.qpu_names,
        r.arrived(),
        r.rejected(),
        r.reestimated_jobs,
        r.speculative_batches
    );
    s
}

/// [`single_tenant`] plus crash records, checkpoints, and the final state.
fn with_chaos(r: &Report) -> String {
    let mut s = single_tenant(r);
    for c in &r.crashes {
        let (old, new) = c.leaders[0];
        s += &format!("{:?} {old} {new} {}\n", c.t_s, c.digests_matched);
    }
    s + &format!("{}\n{}", r.snapshots_installed, encoded_state(r))
}

/// The SLO-arm rendering: deadline aggregates, batch compositions, SLO
/// completions, tenant ledgers, and the final state.
fn slo_arm(r: &Report, deadline_s: f64) -> String {
    let slo = r.tenant(SLO_TENANT);
    let completed: Vec<_> = r.completed.iter().filter(|c| c.tenant == SLO_TENANT).collect();
    let mut turnarounds: Vec<f64> = completed.iter().map(|c| c.completion_s).collect();
    turnarounds.sort_by(f64::total_cmp);
    let mean_turnaround_s = if turnarounds.is_empty() {
        0.0
    } else {
        turnarounds.iter().sum::<f64>() / turnarounds.len() as f64
    };
    let mut s = format!(
        "{} {} {} {} {:?} {:?} {:?} {} {} {} {} {} {} {} {} {} {}\n",
        slo.arrived,
        r.tenant(BULK_TENANT).arrived,
        completed.len(),
        r.deadline_hits(SLO_TENANT, deadline_s),
        r.deadline_hit_rate(SLO_TENANT, deadline_s),
        r.p95_turnaround_s(SLO_TENANT),
        mean_turnaround_s,
        slo.stats.escalated,
        r.provisioned,
        r.retired,
        slo.knit,
        slo.infeasible,
        r.rejected_for(RejectReason::Infeasible),
        r.rejected_for(RejectReason::DeadlineMissed),
        r.rejected_for(RejectReason::RetriesExhausted),
        r.batches.len(),
        r.dispatched_jobs()
    );
    for b in &r.batches {
        s += &format!(
            "{:?} {:?} {} {:?} {:?}\n",
            b.t_s,
            b.reason,
            b.job_ids.len(),
            b.tenant_jobs,
            b.job_ids
        );
    }
    for c in completed {
        s += &format!(
            "{} {:?} {:?} {}\n",
            c.app_id,
            c.submit_s,
            c.completion_s,
            c.completion_s <= deadline_s
        );
    }
    for t in &r.tenants {
        s += &format!("{} {:?}\n", t.tenant, t.stats);
    }
    s + &format!("{}\n{}", r.snapshots_installed, encoded_state(r))
}

fn small_nsga2(
    population_size: usize,
    max_generations: usize,
    max_evaluations: usize,
) -> Nsga2Config {
    Nsga2Config {
        population_size,
        max_generations,
        max_evaluations,
        num_threads: 2,
        ..Nsga2Config::default()
    }
}

#[test]
fn the_unified_loop_reproduces_every_former_driver() {
    let mut rows: Vec<(String, String)> = Vec::new();
    let arrival = ArrivalConfig { mean_rate_per_hour: 600.0, ..Default::default() };
    for (name, placement) in [
        ("qonductor", Placement::Qonductor),
        ("fcfs", Placement::Fcfs),
        ("least_busy", Placement::LeastBusy),
    ] {
        let scenario = Scenario {
            placement,
            trigger: ScheduleTrigger::new(30, 60.0),
            scheduler: SchedulerConfig {
                nsga2: small_nsga2(20, 15, 1500),
                ..SchedulerConfig::default()
            },
            sample_every_s: 50.0,
            ..Scenario::paper(default_fleet(7), arrival, 0.5, 400.0, 7)
        };
        rows.push((name.into(), with_chaos(&run(&scenario, None))));
    }

    let light =
        ArrivalConfig { mean_rate_per_hour: 200.0, diurnal_amplitude: 0.0, ..Default::default() };
    let pipelined = Scenario {
        trigger: ScheduleTrigger::new(15, 40.0),
        scheduler: SchedulerConfig {
            nsga2: small_nsga2(16, 10, 1000),
            ..SchedulerConfig::default()
        },
        calibration: CalibrationPolicy::SplitAtBoundary,
        plan_ahead: true,
        sample_every_s: 100.0,
        ..Scenario::paper(default_fleet(11), light, 0.3, 400.0, 11)
    };
    let plan = FailurePlan::from_seed(11, 400.0, 3);
    rows.push(("pipelined_chaos_11".into(), with_chaos(&run(&pipelined, Some(&plan)))));

    let drift = run_drift_comparison(&DriftConfig::default());
    rows.push(("drift_aware".into(), single_tenant(&drift.aware)));
    rows.push(("drift_naive".into(), single_tenant(&drift.naive)));

    for arm in run_federation_comparison(&FederationConfig::default()).arms {
        let canon =
            format!("{}{} {}\n", single_tenant(&arm.report), arm.strategy, arm.outage_violations);
        rows.push((format!("federation_{}", arm.strategy), canon));
    }

    for seed in [11u64, 23, 37, 41, 59] {
        let comparison = run_slo_comparison(&SloConfig { seed, ..SloConfig::default() });
        let deadline_s = comparison.config.deadline_s;
        rows.push((format!("slo_aware_{seed}"), slo_arm(&comparison.slo_aware, deadline_s)));
        rows.push((
            format!("weighted_fair_{seed}"),
            slo_arm(&comparison.weighted_fair, deadline_s),
        ));
    }

    // The renderings land next to the test binary for diffing a moved row.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("equivalence");
    std::fs::create_dir_all(&dir).expect("target tmpdir is writable");
    let mut mismatched = Vec::new();
    for ((name, canon), (expected_name, expected)) in rows.iter().zip(FINGERPRINTS) {
        assert_eq!(name, expected_name, "row order");
        std::fs::write(dir.join(format!("{name}.txt")), canon).unwrap();
        let mut hash = Fnv64::new();
        hash.absorb(canon.as_bytes());
        if hash.value() != expected {
            mismatched.push(format!("{name}: 0x{:016x} != 0x{expected:016x}", hash.value()));
        }
    }
    assert_eq!(rows.len(), FINGERPRINTS.len());
    assert!(mismatched.is_empty(), "fingerprints moved:\n{}", mismatched.join("\n"));
}
