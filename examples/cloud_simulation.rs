//! Cloud-scale simulation (the Figure-6 scenario, shortened): drive the
//! modelled 8-QPU fleet with the measured IBM arrival process and compare the
//! Qonductor scheduler against FCFS on fidelity, completion time, utilization,
//! and load balance.
//!
//! Run with: `cargo run --release --example cloud_simulation`

use qonductor::cloudsim::{default_fleet, run, ArrivalConfig, Placement, Report, Scenario};
use qonductor::scheduler::Nsga2Config;

fn simulate(placement: Placement) -> Report {
    // One quarter of a simulated hour keeps the example snappy.
    let mut scenario = Scenario::paper(
        default_fleet(11),
        ArrivalConfig { mean_rate_per_hour: 1500.0, ..Default::default() },
        0.5,
        900.0,
        11,
    );
    scenario.placement = placement;
    scenario.scheduler.nsga2 =
        Nsga2Config { population_size: 40, max_generations: 30, ..Default::default() };
    run(&scenario, None)
}

fn main() {
    println!("simulating 15 minutes of cloud load (1500 applications/hour)...\n");
    let qonductor = simulate(Placement::Qonductor);
    let fcfs = simulate(Placement::Fcfs);

    println!("{:<26} {:>12} {:>12}", "metric", "Qonductor", "FCFS");
    println!("{:<26} {:>12} {:>12}", "applications arrived", qonductor.arrived(), fcfs.arrived());
    println!(
        "{:<26} {:>12} {:>12}",
        "applications completed",
        qonductor.completed.len(),
        fcfs.completed.len()
    );
    println!(
        "{:<26} {:>12.3} {:>12.3}",
        "mean fidelity",
        qonductor.mean_fidelity(),
        fcfs.mean_fidelity()
    );
    println!(
        "{:<26} {:>12.1} {:>12.1}",
        "mean completion time [s]",
        qonductor.mean_completion_s(),
        fcfs.mean_completion_s()
    );
    println!(
        "{:<26} {:>12.2} {:>12.2}",
        "mean QPU utilization",
        qonductor.mean_utilization(),
        fcfs.mean_utilization()
    );
    println!(
        "{:<26} {:>11.1}% {:>11.1}%",
        "max QPU load difference",
        qonductor.max_load_difference() * 100.0,
        fcfs.max_load_difference() * 100.0
    );

    println!("\nper-QPU busy time [s]:");
    println!("{:<16} {:>12} {:>12}", "QPU", "Qonductor", "FCFS");
    for (i, name) in qonductor.qpu_names.iter().enumerate() {
        println!("{:<16} {:>12.0} {:>12.0}", name, qonductor.qpu_busy_s[i], fcfs.qpu_busy_s[i]);
    }
    println!(
        "\nQonductor ran {} scheduling cycles (NSGA-II + MCDM, balanced preference).",
        qonductor.cycles.len()
    );
}
