//! Figure 9(a) — Mean JCT as the quantum cluster scales from 4 to 8 to 16 QPUs
//! (1500 jobs/hour, Qonductor scheduler).

use qonductor_backend::Fleet;
use qonductor_bench::{banner, paper_scenario, pct};
use qonductor_cloudsim::{run, Placement};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    banner("Figure 9(a)", "Mean JCT vs quantum cluster size (4 / 8 / 16 QPUs, 1500 j/h)");
    let sizes = [4usize, 8, 16];
    let mut results = Vec::new();
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(71 ^ n as u64);
        let fleet = Fleet::scaled(n, &mut rng);
        let report = run(&paper_scenario(fleet, Placement::Qonductor, 1500.0, 71), None);
        results.push((n, report));
    }

    println!("-- mean JCT over time [s] --");
    print!("{:>8}", "t [s]");
    for (n, _) in &results {
        print!(" {:>12}", format!("{n} QPUs"));
    }
    println!();
    let len = results.iter().map(|(_, r)| r.timeline.len()).min().unwrap_or(0);
    for i in 0..len {
        print!("{:>8.0}", results[0].1.timeline[i].t_s);
        for (_, r) in &results {
            print!(" {:>12.1}", r.timeline[i].mean_completion_s);
        }
        println!();
    }

    println!();
    let base = results[0].1.mean_completion_s();
    for (n, r) in &results {
        let improvement = (base - r.mean_completion_s()) / base.max(1e-9);
        println!(
            "{:>2} QPUs: mean JCT {:>10.1} s  (improvement over 4 QPUs: {})",
            n,
            r.mean_completion_s(),
            pct(improvement)
        );
    }
    println!("(paper: 8 QPUs improve JCT by 52.8% over 4; 16 QPUs by 81%)");
}
