//! Figure 10(a) — Mean execution time of the scheduled quantum jobs per
//! scheduling cycle: Pareto-front extremes vs the chosen solution.

use qonductor_bench::{banner, mean, paper_scenario, pct};
use qonductor_cloudsim::{default_fleet, run, Placement};

fn main() {
    banner(
        "Figure 10(a)",
        "Mean execution time of scheduled jobs per cycle (1500 j/h, balanced weights)",
    );
    let report = run(&paper_scenario(default_fleet(41), Placement::Qonductor, 1500.0, 41), None);

    println!("{:>6} {:>14} {:>14} {:>14}", "cycle", "min front [s]", "max front [s]", "chosen [s]");
    for (i, c) in report.cycles.iter().enumerate() {
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>14.2}",
            i + 1,
            c.front_min_exec_s,
            c.front_max_exec_s,
            c.chosen_mean_exec_s
        );
    }
    let chosen = mean(&report.cycles.iter().map(|c| c.chosen_mean_exec_s).collect::<Vec<_>>());
    let max = mean(&report.cycles.iter().map(|c| c.front_max_exec_s).collect::<Vec<_>>());
    println!();
    println!(
        "chosen solution achieves {} lower mean execution time than the maximum Pareto front",
        pct((max - chosen) / max.max(1e-9))
    );
    println!("(paper: 63.4% lower than the maximum Pareto front)");
}
