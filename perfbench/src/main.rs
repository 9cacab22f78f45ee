//! End-to-end benchmark of the Qonductor job path with a per-layer ledger.
//!
//! ```text
//! perfbench --workload <paper-diurnal|tenant-storm|vqa-loop> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload unpaced (capacity, repeated until the time
//! budget is spent) and paced (latency), and prints the end-to-end metrics.
//! `--trace 1` alternates untraced and traced unpaced runs and prints the
//! per-layer ledger. Every run of a process must end in byte-identical
//! simulated state; the last line of standard output is one JSON object.

mod calib;
mod ledger;
mod metrics;
mod openloop;
mod stats;
mod vqa;

use metrics::Report;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let report: Result<Report, String> = metrics::run(&args, metrics::FULL_SCALE, budget);
    match report {
        Ok(report) => {
            report.print(&args);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            Report::failed().print(&args);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload vqa-loop --seed 42 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            args,
            Args { workload: "vqa-loop".into(), seed: 42, seconds: 20.0, trace: true }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload vqa-loop").is_err());
        assert!(parse("--workload vqa-loop --seed 1 --trace 2").is_err());
        assert!(parse("--workload vqa-loop --seed 1 --seconds -1").is_err());
        assert!(parse("--workload vqa-loop --seed 1 --scale 0.5").is_err());
        assert!(parse("--workload vqa-loop --seed").is_err());
    }
}
