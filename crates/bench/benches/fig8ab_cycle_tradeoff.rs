//! Figure 8(a)/(b) — Per-scheduling-cycle JCT and fidelity of the scheduled
//! jobs: minimum/maximum Pareto-front values, the chosen (balanced) solution's
//! mean, and its 95th percentile, at 1500 jobs/hour.

use qonductor_bench::{banner, mean, paper_scenario, pct};
use qonductor_cloudsim::{default_fleet, run, Placement};

fn main() {
    banner(
        "Figure 8(a)/(b)",
        "Per-cycle JCT and fidelity: Pareto extremes vs chosen solution (1500 j/h, balanced weights)",
    );
    let report = run(&paper_scenario(default_fleet(31), Placement::Qonductor, 1500.0, 31), None);

    println!("-- (a) JCT of scheduled jobs [s] --");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "cycle", "jobs", "min front", "max front", "chosen mean", "chosen p95"
    );
    for (i, c) in report.cycles.iter().enumerate() {
        println!(
            "{:>6} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            i + 1,
            c.num_jobs,
            c.front_min_jct_s,
            c.front_max_jct_s,
            c.chosen.mean_jct_s,
            c.chosen_p95_jct_s
        );
    }

    println!();
    println!("-- (b) Fidelity of scheduled jobs --");
    println!("{:>6} {:>12} {:>12} {:>12}", "cycle", "min front", "max front", "chosen");
    for (i, c) in report.cycles.iter().enumerate() {
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>12.3}",
            i + 1,
            c.front_min_fidelity,
            c.front_max_fidelity,
            c.chosen.mean_fidelity()
        );
    }

    let chosen_jct = mean(&report.cycles.iter().map(|c| c.chosen.mean_jct_s).collect::<Vec<_>>());
    let max_jct = mean(&report.cycles.iter().map(|c| c.front_max_jct_s).collect::<Vec<_>>());
    let chosen_fid =
        mean(&report.cycles.iter().map(|c| c.chosen.mean_fidelity()).collect::<Vec<_>>());
    let max_fid = mean(&report.cycles.iter().map(|c| c.front_max_fidelity).collect::<Vec<_>>());
    println!();
    println!(
        "chosen vs max-Pareto: JCT {} lower, fidelity {} lower",
        pct((max_jct - chosen_jct) / max_jct.max(1e-9)),
        pct((max_fid - chosen_fid) / max_fid.max(1e-9))
    );
    println!("(paper: chosen mean JCT 34% lower than the max front, fidelity only 4% lower than the max)");
}
