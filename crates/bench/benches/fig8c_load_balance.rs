//! Figure 8(c) — QPU load (total active runtime) per device for workloads of
//! 1500, 3000, and 4500 jobs/hour under the Qonductor scheduler.

use qonductor_bench::{banner, paper_scenario, pct};
use qonductor_cloudsim::{default_fleet, run, Placement};

fn main() {
    banner("Figure 8(c)", "QPU load as total active runtime for increasing workloads");
    let rates = [1500.0, 3000.0, 4500.0];
    let mut per_rate = Vec::new();
    for &rate in &rates {
        let report = run(&paper_scenario(default_fleet(57), Placement::Qonductor, rate, 57), None);
        per_rate.push(report);
    }

    let names = &per_rate[0].qpu_names;
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "IBM QPU", "1500 j/h [s]", "3000 j/h [s]", "4500 j/h [s]"
    );
    for (i, name) in names.iter().enumerate() {
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>14.0}",
            name, per_rate[0].qpu_busy_s[i], per_rate[1].qpu_busy_s[i], per_rate[2].qpu_busy_s[i]
        );
    }
    println!();
    for (rate, report) in rates.iter().zip(&per_rate) {
        println!(
            "{} j/h: maximum load difference between QPUs = {}",
            rate,
            pct(report.max_load_difference())
        );
    }
    println!("(paper: nearly uniform distribution, max 15.8% load difference at 1500 j/h)");
}
