//! Figure 9(b) — Scheduler pending-queue size over time as the workload scales
//! from 1500 to 3000 to 4500 jobs/hour.

use qonductor_bench::{banner, paper_scenario};
use qonductor_cloudsim::{default_fleet, run, Placement};

fn main() {
    banner("Figure 9(b)", "Scheduler queue size vs workload (1500 / 3000 / 4500 j/h)");
    let rates = [1500.0, 3000.0, 4500.0];
    let reports: Vec<_> = rates
        .iter()
        .map(|&rate| run(&paper_scenario(default_fleet(83), Placement::Qonductor, rate, 83), None))
        .collect();

    print!("{:>8}", "t [s]");
    for rate in &rates {
        print!(" {:>12}", format!("{rate} j/h"));
    }
    println!();
    let len = reports.iter().map(|r| r.timeline.len()).min().unwrap_or(0);
    for i in 0..len {
        print!("{:>8.0}", reports[0].timeline[i].t_s);
        for r in &reports {
            print!(" {:>12}", r.timeline[i].scheduler_queue_len);
        }
        println!();
    }

    println!();
    for (rate, r) in rates.iter().zip(&reports) {
        let max_queue = r.timeline.iter().map(|p| p.scheduler_queue_len).max().unwrap_or(0);
        println!(
            "{} j/h: max pending queue {} jobs, scheduling cycles {}",
            rate,
            max_queue,
            r.cycles.len()
        );
    }
    println!("(paper: the scheduler remains stable at up to 3x the current IBM load; the sawtooth");
    println!(
        " drops correspond to queue-size / time-based scheduling triggers emptying the queue)"
    );
}
