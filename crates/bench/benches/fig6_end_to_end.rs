//! Figure 6 — Qonductor end-to-end performance vs FCFS over one simulated hour
//! at 1500 applications/hour: (a) mean fidelity, (b) mean completion time,
//! (c) mean QPU utilization.

use qonductor_bench::{banner, paper_scenario, pct};
use qonductor_cloudsim::{default_fleet, run, Placement, Report};

fn simulate(placement: Placement) -> Report {
    run(&paper_scenario(default_fleet(99), placement, 1500.0, 99), None)
}

fn main() {
    banner(
        "Figure 6",
        "End-to-end fidelity / completion time / utilization, Qonductor vs FCFS (1500 apps/h)",
    );
    let qonductor = simulate(Placement::Qonductor);
    let fcfs = simulate(Placement::Fcfs);

    println!("-- (a)+(b)+(c) time series [t, mean fidelity, mean JCT (s), utilization] --");
    println!(
        "{:>7} | {:>10} {:>12} {:>8} | {:>10} {:>12} {:>8}",
        "t [s]", "Qon fid", "Qon JCT", "Qon util", "FCFS fid", "FCFS JCT", "FCFS util"
    );
    for (q, f) in qonductor.timeline.iter().zip(fcfs.timeline.iter()) {
        println!(
            "{:>7.0} | {:>10.3} {:>12.1} {:>8.2} | {:>10.3} {:>12.1} {:>8.2}",
            q.t_s,
            q.mean_fidelity,
            q.mean_completion_s,
            q.mean_utilization,
            f.mean_fidelity,
            f.mean_completion_s,
            f.mean_utilization
        );
    }

    println!();
    println!("-- summary --");
    let fid_penalty =
        (fcfs.mean_fidelity() - qonductor.mean_fidelity()) / fcfs.mean_fidelity().max(1e-9);
    let jct_gain = (fcfs.mean_completion_s() - qonductor.mean_completion_s())
        / fcfs.mean_completion_s().max(1e-9);
    let util_gain = (qonductor.mean_utilization() - fcfs.mean_utilization())
        / fcfs.mean_utilization().max(1e-9);
    println!(
        "mean fidelity     : Qonductor {:.3} vs FCFS {:.3}  (penalty {})",
        qonductor.mean_fidelity(),
        fcfs.mean_fidelity(),
        pct(fid_penalty)
    );
    println!(
        "mean completion   : Qonductor {:.1} s vs FCFS {:.1} s  (reduction {})",
        qonductor.mean_completion_s(),
        fcfs.mean_completion_s(),
        pct(jct_gain)
    );
    println!(
        "mean utilization  : Qonductor {:.2} vs FCFS {:.2}  (increase {})",
        qonductor.mean_utilization(),
        fcfs.mean_utilization(),
        pct(util_gain)
    );
    println!("(paper: <3% fidelity penalty, ~48% lower completion time, ~66% higher utilization)");
}
