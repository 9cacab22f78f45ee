//! Multi-tenant submission: three tenants with fairness weights 3:2:1 submit
//! saturating Poisson streams through the non-blocking `SubmissionService`;
//! the weighted-fair (deficit-round-robin) admission step drains their queues
//! into the shared batch engine, and per-batch compositions plus per-tenant
//! wait/turnaround statistics show the weights binding under contention.
//!
//! Run with: `cargo run --release --example multi_tenant`

use qonductor::cloudsim::multitenant::saturating;
use qonductor::cloudsim::{run, Scenario};
use qonductor::scheduler::{Nsga2Config, ScheduleTrigger, SchedulerConfig};

fn main() {
    let scenario = Scenario {
        trigger: ScheduleTrigger::new(24, 60.0),
        scheduler: SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 24,
                max_generations: 15,
                max_evaluations: 2000,
                num_threads: 2,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        },
        ..saturating(&[3, 2, 1], 9000.0, 600.0, 7)
    };

    println!("three tenants, weights 3:2:1, equal saturating arrival streams\n");
    let report = run(&scenario, None);

    println!("first batches (tenant:jobs):");
    for batch in report.batches.iter().take(6) {
        let composition: Vec<String> =
            batch.tenant_jobs.iter().map(|(t, n)| format!("t{t}:{n}")).collect();
        println!(
            "  t={:6.1}s  {:?}  {} jobs  [{}]",
            batch.t_s,
            batch.reason,
            batch.job_ids.len(),
            composition.join(" ")
        );
    }

    println!("\nper-tenant outcome:");
    println!("  tenant  weight  share   arrived  admitted  completed  wait(s)  turnaround(s)");
    for outcome in &report.tenants {
        let s = outcome.stats;
        println!(
            "  t{:<6} {:>6} {:>6.3} {:>8} {:>9} {:>10} {:>8.1} {:>14.1}",
            outcome.tenant,
            s.weight,
            report.admitted_share(outcome.tenant),
            outcome.arrived,
            s.admitted,
            s.completed,
            s.mean_queue_wait_s,
            s.mean_turnaround_s,
        );
    }
    println!(
        "\n{} batches dispatched, {} jobs admitted, {} completed",
        report.batches.len(),
        report.dispatched_jobs(),
        report.completed.len()
    );
}
