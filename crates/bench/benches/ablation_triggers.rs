//! Ablation — scheduling triggers: sweep the queue-size limit and the
//! time-based interval (§7 defaults: 100 jobs / 120 s) and report their effect
//! on mean completion time and fidelity.

use qonductor_bench::{banner, paper_scenario};
use qonductor_cloudsim::{default_fleet, run, Placement};
use qonductor_scheduler::ScheduleTrigger;

fn main() {
    banner(
        "Ablation: scheduling triggers",
        "Queue-limit / interval sweep at 1500 j/h (paper defaults: 100 jobs, 120 s)",
    );
    println!(
        "{:>12} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "queue limit", "interval [s]", "cycles", "mean JCT [s]", "mean fidelity", "utilization"
    );
    for &(queue_limit, interval_s) in
        &[(25usize, 60.0f64), (100, 120.0), (200, 240.0), (400, 480.0)]
    {
        let mut scenario = paper_scenario(default_fleet(61), Placement::Qonductor, 1500.0, 61);
        scenario.trigger = ScheduleTrigger::new(queue_limit, interval_s);
        let report = run(&scenario, None);
        println!(
            "{:>12} {:>12.0} {:>10} {:>14.1} {:>14.3} {:>12.2}",
            queue_limit,
            interval_s,
            report.cycles.len(),
            report.mean_completion_s(),
            report.mean_fidelity(),
            report.mean_utilization()
        );
    }
    println!();
    println!(
        "(design claim: small triggers schedule too eagerly on partial information; very large"
    );
    println!(" triggers delay placement — the paper's 100-job / 120-s defaults sit in between)");
}
