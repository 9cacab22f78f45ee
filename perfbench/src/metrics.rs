//! Runs a workload in its modes, checks that every run agrees, and turns
//! the observations into the end-to-end and per-layer metrics.

use crate::calib;
use crate::ledger::{Layer, Ledger};
use crate::openloop::{self, OpenLoop, Pace, Scale};
use crate::stats::{mean, median, ratio, Quantile, ReuseMeter};
use crate::vqa::{self, Vqa};
use crate::Args;
use qonductor::core::digest::Fnv64;
use std::time::{Duration, Instant};

/// A workload and the reason it is in the benchmark.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 3] = [
    WorkloadInfo {
        name: "paper-diurnal",
        why: "the paper's own 8-QPU cloud at 1500 jobs/h; the transpiling estimator does most of \
              the work and half the arrivals repeat an earlier circuit",
    },
    WorkloadInfo {
        name: "tenant-storm",
        why: "10^5 tenants on 2 shards over one shared fleet, failing over in the drain; \
              admission, journal, dispatch and recovery work while estimator and NSGA-II idle",
    },
    WorkloadInfo {
        name: "vqa-loop",
        why: "8 variational clients in a closed loop through the Table-2 API; small batches, so \
              per-cycle fixed costs dominate; circuits repeat in shape, never in angles",
    },
];

/// The simulated outcome of one run: a function of the inputs alone, so
/// every run of a workload must produce the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    pub offered: usize,
    pub completed: usize,
    pub rejected: usize,
    pub unresolved: usize,
    /// Submit → finish per offered job; rejected and unresolved jobs are
    /// censored at the drain cap.
    pub jct_s: Vec<f64>,
    /// Estimated fidelity on the QPU each completed job ran on.
    pub fidelity: Vec<f64>,
    /// Per-QPU busy share of the window: the arrival window plus the drain
    /// (open loop), the waves back to back (vqa-loop).
    pub busy_share: Vec<f64>,
    /// Offered work ÷ fleet capacity over the window, counting each job at
    /// its fastest estimate.
    pub offered_load: f64,
    pub end_s: f64,
    /// `encode_state()` of every shard at the end.
    pub states: Vec<String>,
}

/// Wall-clock observations of one run.
#[derive(Debug, Default)]
pub struct Wall {
    pub loop_s: f64,
    pub ack_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// Where in the paced window each ack and lag sample fell, in `[0, 1)`.
    pub ack_at: Vec<f64>,
    pub lag_at: Vec<f64>,
    pub invoke_ms: Vec<f64>,
    /// Each failover's wall at the reference host speed (`calib`).
    pub recovery_ms: Vec<f64>,
    /// Each failover's wall as measured.
    pub recovery_raw_ms: Vec<f64>,
    /// Wall spent in the fault schedule (snapshots, crashes, failovers)
    /// outside the calibration kernel; measured as `recovery_ms`, so left
    /// out of `jobs_per_s`.
    pub faults_s: f64,
    /// Wall spent timing the calibration kernel around failovers.
    pub calibrating_s: f64,
    /// Wall outside the fault schedule and the calibration kernel at the end
    /// of each of `SLICES` slices of the run, cumulative. A slice ends at a
    /// fixed point of the simulated run, so it holds the same work in every
    /// run of a process.
    pub marks: Vec<f64>,
}

/// How many slices `Wall::marks` cuts a run into.
pub const SLICES: usize = 20;

impl Wall {
    /// Wall of the run so far outside the fault schedule and the
    /// calibration kernel.
    pub fn busy_s(&self, started: Instant) -> f64 {
        started.elapsed().as_secs_f64() - self.faults_s - self.calibrating_s
    }

    /// End every slice before `slice` that is still open; `busy_s` is the
    /// run's wall so far outside the fault schedule.
    pub fn mark_until(&mut self, slice: usize, busy_s: f64) {
        while self.marks.len() < slice.min(SLICES) {
            self.marks.push(busy_s);
        }
    }

    /// Start timing a stretch of the fault schedule.
    pub fn fault_start(&self) -> (Instant, f64) {
        (Instant::now(), self.calibrating_s)
    }

    /// End a stretch of the fault schedule begun at `start`.
    pub fn fault_end(&mut self, start: (Instant, f64)) {
        self.faults_s += start.0.elapsed().as_secs_f64() - (self.calibrating_s - start.1);
    }

    /// Time `recover` as time without service, with the calibration kernel
    /// timed right before and right after it.
    pub fn recovery<T>(&mut self, recover: impl FnOnce() -> T) -> (T, Duration) {
        let before = self.calibrate();
        let began = Instant::now();
        let out = recover();
        let took = began.elapsed();
        let after = self.calibrate();
        let ms = took.as_secs_f64() * 1e3;
        self.recovery_raw_ms.push(ms);
        self.recovery_ms.push(calib::scaled(ms, before, after));
        (out, took)
    }

    fn calibrate(&mut self) -> f64 {
        let began = Instant::now();
        let kernel_s = calib::kernel_s();
        self.calibrating_s += began.elapsed().as_secs_f64();
        kernel_s
    }
}

/// The workload at the size the benchmark measures; the smoke tests shrink it.
pub const FULL_SCALE: f64 = 1.0;

enum Bench {
    Open(Box<OpenLoop>),
    Vqa(Vqa),
}

enum Bed {
    Open(Box<openloop::Bed>),
    Vqa(Box<vqa::VqaBed>),
}

impl Bench {
    fn build(name: &str, seed: u64, scale: f64) -> Bench {
        match name {
            "paper-diurnal" => Bench::Open(Box::new(openloop::paper_diurnal(seed, Scale(scale)))),
            "tenant-storm" => Bench::Open(Box::new(openloop::tenant_storm(seed, Scale(scale)))),
            "vqa-loop" => Bench::Vqa(vqa::vqa_loop(seed, ((160.0 * scale) as usize).max(4))),
            other => unreachable!("workload {other} validated at parse time"),
        }
    }

    fn setup(&self) -> Bed {
        match self {
            Bench::Open(w) => Bed::Open(Box::new(w.setup())),
            Bench::Vqa(w) => Bed::Vqa(Box::new(w.setup())),
        }
    }

    fn run(
        &self,
        bed: Bed,
        paced: bool,
        ledger: &mut Option<Ledger>,
    ) -> Result<(Sim, Wall, ReuseMeter), String> {
        match (self, bed) {
            (Bench::Open(w), Bed::Open(bed)) => {
                w.run(*bed, if paced { Pace::Paced } else { Pace::Unpaced }, ledger)
            }
            (Bench::Vqa(w), Bed::Vqa(bed)) => w.run(*bed, paced, ledger),
            _ => unreachable!("a bed runs the bench that set it up"),
        }
    }

    /// Simulated seconds per wall second of the paced run, for the report.
    fn pacing(&self) -> String {
        match self {
            Bench::Open(w) => format!(
                "open loop, compression C = {} sim s per wall s up to t = {} s of a {} s window",
                w.compression, w.paced_until_s, w.horizon_s
            ),
            Bench::Vqa(w) => format!(
                "closed loop of {} clients, one wave due every {} ms",
                vqa::CLIENTS,
                w.period.as_millis()
            ),
        }
    }
}

/// One timed set-up plus run.
struct Rep {
    setup_s: f64,
    sim: Sim,
    wall: Wall,
    meter: ReuseMeter,
    ledger: Option<Ledger>,
}

fn rep(bench: &Bench, paced: bool, traced: bool) -> Result<Rep, String> {
    let began = Instant::now();
    let bed = bench.setup();
    let setup_s = began.elapsed().as_secs_f64();
    let mut ledger = traced.then(Ledger::default);
    let (cpu0, ticks0) = (process_cpu_s(), cpu_ticks());
    let (sim, wall, meter) = bench.run(bed, paced, &mut ledger)?;
    let steal = match (ticks0, cpu_ticks()) {
        (Some(a), Some(b)) => ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64),
        _ => 0.0,
    };
    eprintln!(
        "perfbench: {} run: setup {setup_s:.4} s, loop {:.4} s, cpu {:.2} s, steal {steal:.3}",
        match (paced, traced) {
            (true, _) => "paced",
            (false, true) => "traced",
            (false, false) => "unpaced",
        },
        wall.loop_s,
        process_cpu_s() - cpu0
    );
    Ok(Rep { setup_s, sim, wall, meter, ledger })
}

/// Fails unless `rep` ended in the same simulated state as `first`.
fn same_sim(first: &Sim, rep: &Rep, what: &str) -> Result<(), String> {
    if first.states != rep.sim.states {
        return Err(format!("{what} run ended in a different encode_state() than the first run"));
    }
    if *first != rep.sim {
        let (a, b) = (first, &rep.sim);
        let fields = [
            (
                "counts",
                (a.offered, a.completed, a.rejected, a.unresolved)
                    != (b.offered, b.completed, b.rejected, b.unresolved),
            ),
            ("jct_s", a.jct_s != b.jct_s),
            ("fidelity", a.fidelity != b.fidelity),
            ("busy_share", a.busy_share != b.busy_share),
            ("end_s", a.end_s != b.end_s),
        ];
        let differing: Vec<&str> = fields.iter().filter(|f| f.1).map(|f| f.0).collect();
        return Err(format!(
            "{what} run produced different simulated metrics than the first run: {differing:?}"
        ));
    }
    Ok(())
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, if any.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, samples: None }
}

fn quantile(name: &'static str, values: &[f64], q: f64, unit: &'static str) -> Metric {
    let Quantile { value, samples } = Quantile::of(values, q);
    Metric { name, value, unit, samples: Some(samples) }
}

/// Everything a process prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// The report of a run whose correctness checks failed.
    pub fn failed() -> Report {
        Report { correct: false, attempted: 1, failed: 1, metrics: Vec::new(), notes: Vec::new() }
    }

    pub fn print(&self, args: &Args) {
        println!(
            "# perfbench workload={} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            match m.samples {
                Some(n) => {
                    println!("{:<32} {:>16} {:<8} (n={n})", m.name, fmt_value(m.value), m.unit)
                }
                None => println!("{:<32} {:>16} {}", m.name, fmt_value(m.value), m.unit),
            }
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e4 || v == v.trunc() {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust prints for the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance(args: &Args, bench: &Bench) -> Vec<String> {
    let info = WORKLOADS.iter().find(|w| w.name == args.workload).expect("validated");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!(
            "host nproc={nproc} rustc={} commit={} seed={}",
            std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            args.seed
        ),
        format!("why {}: {}", info.name, info.why),
        format!("pacing: {}", bench.pacing()),
        "every figure below is measured on this host; none is modeled".into(),
    ]
}

/// CPU seconds this process has used, all threads (`/proc/self/stat`).
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the command name start at field 3; utime and
            // stime are fields 14 and 15, in ticks of 1/100 s.
            let f: Vec<&str> = s.rsplit_once(')')?.1.split_whitespace().collect();
            let ticks = |i: usize| f.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Run one workload as `args` asks, within about `budget` of measuring.
pub fn run(args: &Args, scale: f64, budget: Duration) -> Result<Report, String> {
    let bench = Bench::build(&args.workload, args.seed, scale);
    let mut notes = provenance(args, &bench);
    let ticks = cpu_ticks();
    let began = Instant::now();
    let report = if args.trace {
        traced(&bench, budget, began, &mut notes)?
    } else {
        untraced(&bench, budget, began, &mut notes)?
    };
    if let (Some(a), Some(b)) = (ticks, cpu_ticks()) {
        let steal = ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64);
        notes.push(format!(
            "CPU time the host took from this machine while measuring (steal): {steal:.3} share"
        ));
    }
    Ok(Report { notes, ..report })
}

/// Keep repeating while another repetition as long as the last one fits in
/// the budget, but at least `min` times.
fn more(reps: usize, min: usize, began: Instant, budget: Duration, last: Duration) -> bool {
    reps < min || (reps < 64 && began.elapsed() + last <= budget)
}

fn untraced(
    bench: &Bench,
    budget: Duration,
    began: Instant,
    notes: &mut Vec<String>,
) -> Result<Report, String> {
    // Run 0 is paced and also warms the process up; the unpaced runs after
    // it are the capacity samples.
    const MIN_MEASURED: usize = 3;
    let mut setups = Vec::new();
    let (mut recovery, mut recovery_raw) = (Vec::new(), Vec::new());
    let mut marks: Vec<Vec<f64>> = Vec::new();
    let mut invoke = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Sim> = None;
    let mut paced: Option<Rep> = None;
    let mut last = Duration::ZERO;
    for i in 0.. {
        if i > 0 && !more(marks.len(), MIN_MEASURED, began, budget, last) {
            break;
        }
        extra_setups(bench, &mut setups);
        let is_paced = i == 0;
        let rep_began = Instant::now();
        let r = rep(bench, is_paced, false)?;
        match &first {
            None => first = Some(r.sim.clone()),
            Some(f) => same_sim(f, &r, if is_paced { "paced" } else { "unpaced" })?,
        }
        setups.push(r.setup_s);
        attempted += r.sim.offered as u64;
        failed += r.sim.rejected as u64;
        if is_paced {
            paced = Some(r);
        } else {
            last = rep_began.elapsed();
            recovery.extend(&r.wall.recovery_ms);
            recovery_raw.extend(&r.wall.recovery_raw_ms);
            invoke.extend(&r.wall.invoke_ms);
            marks.push(r.wall.marks);
        }
    }
    let reps = marks.len();
    let (first, paced) = (first.expect("ran"), paced.expect("ran"));
    notes.push(format!(
        "1 paced + {reps} unpaced runs, all ending in the same encode_state() (digest {:016x})",
        states_digest(&first.states)
    ));
    let sim = &first;
    let failed_share = ratio((sim.rejected + sim.unresolved) as f64, sim.offered as f64);
    notes.push(format!(
        "offered={} completed={} rejected={} unresolved={} failed_share={failed_share} share",
        sim.offered, sim.completed, sim.rejected, sim.unresolved
    ));
    // Printed, not gated: the highest minus the lowest of 32 busy shares,
    // most of them near idle on tenant-storm, moved 0.18–0.40 (interquartile
    // range ÷ median) between sets of ten seeds.
    let busy = &sim.busy_share;
    let spread = busy.iter().copied().fold(f64::MIN, f64::max)
        - busy.iter().copied().fold(f64::MAX, f64::min);
    notes.push(format!(
        "offered load {} of fleet capacity; mean QPU busy share {} over {} QPUs; \
         load_spread={spread} share (not gated)",
        sim.offered_load,
        mean(&sim.busy_share),
        sim.busy_share.len()
    ));
    // The paced latencies are printed, not gated: on tenant-storm they are a
    // few milliseconds or less, and host CPU steal moved their medians by
    // 25–200% between otherwise equal runs; the tails have few independent
    // samples (one per stall or per batch). No bound the gate may use holds.
    for (name, values, at) in [
        ("ack_p50_ms", &paced.wall.ack_ms, &paced.wall.ack_at),
        ("lag_p50_ms", &paced.wall.lag_ms, &paced.wall.lag_at),
    ] {
        let value = window_median(values, at);
        notes.push(format!("{name}={value} ms (n={}, not gated)", values.len()));
    }
    for (name, values, q) in [
        ("ack_p99_ms", &paced.wall.ack_ms, 0.99),
        ("lag_p90_ms", &paced.wall.lag_ms, 0.9),
        ("lag_p99_ms", &paced.wall.lag_ms, 0.99),
    ] {
        let Quantile { value, samples } = Quantile::of(values, q);
        notes.push(format!("{name}={value} ms (n={samples}, not gated)"));
    }
    // Printed, not gated: on paper-diurnal the tail is the few jobs censored
    // at the drain cap, so it follows the submit time of the earliest of
    // them and moved 0.08–0.35 (interquartile range ÷ median) between sets
    // of ten seeds.
    let Quantile { value, samples } = Quantile::of(&sim.jct_s, 0.99);
    notes.push(format!("jct_p99_s={value} s (n={samples}, not gated)"));
    if invoke.is_empty() {
        notes.push("invoke_p50_ms, invoke_p90_ms: n/a (open loop; no invoke_many_as wave)".into());
    } else {
        for (name, q) in [("invoke_p50_ms", 0.5), ("invoke_p90_ms", 0.9)] {
            let Quantile { value, samples } = Quantile::of(&invoke, q);
            notes.push(format!("{name}={value} ms (n={samples})"));
        }
    }
    notes.push(format!(
        "recovery_ms at this host's speed, not scaled: {} ms (not gated)",
        median(&recovery_raw)
    ));
    let metrics = vec![
        Metric { samples: Some(setups.len()), ..metric("setup_s", median(&setups), "s") },
        Metric {
            samples: Some(reps),
            ..metric("jobs_per_s", first.offered as f64 / sliced_wall_s(&marks), "jobs/s")
        },
        quantile("jct_p50_s", &sim.jct_s, 0.5, "s"),
        Metric {
            samples: Some(sim.fidelity.len()),
            ..metric("fidelity_mean", mean(&sim.fidelity), "1")
        },
        metric("completed_share", ratio(sim.completed as f64, sim.offered as f64), "share"),
        quantile("recovery_ms", &recovery, 0.5, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(Report { correct: true, attempted, failed, metrics, notes: Vec::new() })
}

/// Wall of a run with each slice's wall taken as its median over the runs
/// whose cumulative `marks` are given. Every run does the same work in a
/// slice, so a burst of host load that hits one run's slice drops out.
fn sliced_wall_s(marks: &[Vec<f64>]) -> f64 {
    (0..SLICES)
        .map(|k| {
            let walls: Vec<f64> =
                marks.iter().map(|m| m[k] - if k == 0 { 0.0 } else { m[k - 1] }).collect();
            median(&walls)
        })
        .sum()
}

/// Median over `WINDOWS` equal slices of the paced window of each slice's
/// median. The host's CPU can be taken away for seconds at a time; a burst
/// then moves one slice, not the figure.
fn window_median(values: &[f64], at: &[f64]) -> f64 {
    const WINDOWS: usize = 5;
    let mut slices = vec![Vec::new(); WINDOWS];
    for (&v, &a) in values.iter().zip(at) {
        slices[((a * WINDOWS as f64) as usize).min(WINDOWS - 1)].push(v);
    }
    let medians: Vec<f64> = slices.iter().filter(|s| !s.is_empty()).map(|s| median(s)).collect();
    median(&medians)
}

/// Cheap set-ups are noisy: before each run, take up to `SETUP_SAMPLES` more
/// set-ups while that costs under a quarter second, so the median spans the
/// whole process rather than one moment of it.
fn extra_setups(bench: &Bench, setups: &mut Vec<f64>) {
    const SETUP_SAMPLES: usize = 1000;
    let mut spent = 0.0;
    for _ in 0..SETUP_SAMPLES {
        if spent + median(setups) >= 0.25 {
            break;
        }
        let began = Instant::now();
        let bed = bench.setup();
        let took = began.elapsed().as_secs_f64();
        drop(bed);
        setups.push(took);
        spent += took;
    }
}

fn traced(
    bench: &Bench,
    budget: Duration,
    began: Instant,
    notes: &mut Vec<String>,
) -> Result<Report, String> {
    let mut plain_walls = Vec::new();
    let mut traced_reps: Vec<(f64, Ledger, ReuseMeter)> = Vec::new();
    let mut first: Option<Sim> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pairs = 0usize;
    let mut last = Duration::ZERO;
    while more(pairs, 2, began, budget, last) {
        let pair_began = Instant::now();
        // Alternate which mode goes first, so drift does not read as overhead.
        let order = if pairs.is_multiple_of(2) { [false, true] } else { [true, false] };
        for traced in order {
            let r = rep(bench, false, traced)?;
            match &first {
                None => first = Some(r.sim.clone()),
                Some(f) => same_sim(f, &r, if traced { "traced" } else { "untraced" })?,
            }
            attempted += r.sim.offered as u64;
            failed += r.sim.rejected as u64;
            let wall = r.wall.loop_s - r.wall.calibrating_s;
            match r.ledger {
                Some(ledger) => {
                    let wall = wall - ledger.meter_ns as f64 * 1e-9;
                    traced_reps.push((wall, ledger, r.meter));
                }
                None => plain_walls.push(wall),
            }
        }
        pairs += 1;
        last = pair_began.elapsed();
    }
    let first = first.expect("at least one run");
    notes.push(format!(
        "{pairs} untraced + {pairs} traced unpaced runs, all ending in the same encode_state() (digest {:016x})",
        states_digest(&first.states)
    ));
    traced_reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let walls: Vec<f64> = traced_reps.iter().map(|r| r.0).collect();
    let (wall_s, ledger, meter) = traced_reps.swap_remove(traced_reps.len() / 2);
    let overhead = median(&walls) / median(&plain_walls) - 1.0;
    let mut metrics = layer_metrics(&ledger, &meter, wall_s);
    metrics.push(metric("trace.overhead_share", overhead, "share"));
    let ranked = ranking(&ledger, wall_s);
    notes.push(format!("ledger of the median traced run ({wall_s:.4} s): {ranked}"));
    Ok(Report { correct: true, attempted, failed, metrics, notes: Vec::new() })
}

fn ranking(ledger: &Ledger, wall_s: f64) -> String {
    let mut rows: Vec<(Layer, f64)> =
        crate::ledger::LAYERS.iter().map(|&l| (l, ledger.self_ns(l) as f64 * 1e-9)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.iter()
        .map(|(l, s)| format!("{l:?} {:.1}%", 100.0 * s / wall_s))
        .collect::<Vec<_>>()
        .join(", ")
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn layer_metrics(l: &Ledger, meter: &ReuseMeter, wall_s: f64) -> Vec<Metric> {
    let q = |values: &[f64], p: f64| Quantile::of(values, p).value;
    let sched_ms = ms(l.self_ns(Layer::Scheduler));
    vec![
        metric("estimator.calls", meter.calls as f64, "count"),
        metric("estimator.self_ms", ms(l.self_ns(Layer::Estimator)), "ms"),
        metric(
            "estimator.us_per_job",
            ratio(ms(l.self_ns(Layer::Estimator)) * 1e3, l.estimator_jobs as f64),
            "us",
        ),
        metric("estimator.repeat_share", meter.exact_share(), "share"),
        metric("estimator.shape_repeat_share", meter.shape_share(), "share"),
        metric("journal.self_ms", ms(l.self_ns(Layer::Journal)), "ms"),
        metric("journal.entries", l.journal_entries as f64, "count"),
        metric("journal.rounds", l.journal_rounds as f64, "count"),
        metric(
            "journal.entries_per_round",
            ratio(l.journal_entries as f64, l.journal_rounds as f64),
            "count",
        ),
        metric("admission.passes", l.admission_passes as f64, "count"),
        metric("admission.self_ms", ms(l.self_ns(Layer::Admission)), "ms"),
        metric(
            "admission.jobs_per_pass",
            ratio(l.admitted_jobs as f64, l.admission_passes as f64),
            "count",
        ),
        metric("admission.queue_wait_s", mean(&l.queue_wait_s), "s"),
        metric("scheduler.cycles", l.batches as f64, "count"),
        metric("scheduler.self_ms", sched_ms, "ms"),
        metric("scheduler.cycle_p50_ms", q(&l.cycle_ms, 0.5), "ms"),
        metric("scheduler.cycle_p90_ms", q(&l.cycle_ms, 0.9), "ms"),
        metric(
            "scheduler.jobs_per_cycle",
            ratio(l.scheduled_jobs as f64, l.batches as f64),
            "count",
        ),
        metric("dispatch.self_ms", ms(l.self_ns(Layer::Dispatch)), "ms"),
        metric("dispatch.batches", l.batches as f64, "count"),
        metric("dispatch.parked", l.parked as f64, "count"),
        metric("dispatch.parked_unleased", l.parked_unleased as f64, "count"),
        metric("dispatch.useful_share", ratio(l.enqueued as f64, l.placed as f64), "share"),
        metric("simulator.self_ms", ms(l.self_ns(Layer::Simulator)), "ms"),
        metric("simulator.completions", l.completions as f64, "count"),
        metric("recovery.self_ms", ms(l.self_ns(Layer::Recovery)), "ms"),
        metric("recovery.crashes", l.crashes as f64, "count"),
        metric("recovery.replayed_events", l.replayed_events as f64, "count"),
        metric(
            "recovery.us_per_event",
            ratio(ms(l.failover_ns) * 1e3, l.replayed_events as f64),
            "us",
        ),
        metric("orchestrator.self_ms", ms(l.self_ns(Layer::Orchestrator)), "ms"),
        metric("orchestrator.create_ms", ms(l.create_ns), "ms"),
        metric("orchestrator.estimate_ms", ms(l.estimate_ns), "ms"),
        metric("orchestrator.invoke_ms", ms(l.invoke_ns), "ms"),
        metric("orchestrator.monitor_writes", l.monitor_writes as f64, "count"),
        metric("orchestrator.batches", l.orchestrator_batches as f64, "count"),
        metric("ledger.wall_ms", wall_s * 1e3, "ms"),
        metric("ledger.unattributed_share", 1.0 - l.total_ns() as f64 * 1e-9 / wall_s, "share"),
    ]
}

/// 64-bit FNV-1a over every shard's encoded state, for the report.
fn states_digest(states: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for s in states {
        h.absorb(s.as_bytes());
        h.absorb(b"\n");
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: f64 = 0.02;

    fn args(workload: &str, trace: bool) -> Args {
        Args { workload: workload.into(), seed: 7, seconds: 0.01, trace }
    }

    fn value(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    #[test]
    fn every_workload_smoke_runs_in_every_mode() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let report = run(&args(w.name, trace), SMOKE, Duration::ZERO).expect("checks pass");
                assert!(report.correct, "{}", w.name);
                assert!(report.attempted > 0);
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{}", w.name);
            }
        }
    }

    #[test]
    fn paced_unpaced_and_traced_runs_end_in_the_same_state() {
        for w in WORKLOADS {
            let bench = Bench::build(w.name, 3, SMOKE);
            let paced = rep(&bench, true, false).expect("paced");
            for traced in [false, true] {
                let r = rep(&bench, false, traced).expect("unpaced");
                same_sim(&paced.sim, &r, w.name).expect("same simulated outcome");
                let marks = &r.wall.marks;
                assert_eq!(marks.len(), SLICES, "{}", w.name);
                assert!(marks.windows(2).all(|m| m[0] <= m[1]), "{}", w.name);
                let busy = r.wall.loop_s - r.wall.faults_s - r.wall.calibrating_s;
                assert!(marks[SLICES - 1] <= busy + 1e-9);
            }
        }
    }

    #[test]
    fn the_ledger_adds_up_to_the_traced_wall() {
        for w in WORKLOADS {
            let report = run(&args(w.name, true), SMOKE, Duration::ZERO).expect("checks pass");
            let unattributed = value(&report, "ledger.unattributed_share");
            assert!((0.0..0.25).contains(&unattributed), "{}: {unattributed}", w.name);
        }
    }

    #[test]
    fn the_seed_changes_the_inputs_and_not_the_program() {
        let (a, b) = match (
            Bench::build("tenant-storm", 1, SMOKE),
            Bench::build("tenant-storm", 2, SMOKE),
        ) {
            (Bench::Open(a), Bench::Open(b)) => (a, b),
            _ => unreachable!(),
        };
        assert_ne!(
            a.arrivals.iter().map(|x| x.t_s).collect::<Vec<_>>(),
            b.arrivals.iter().map(|x| x.t_s).collect::<Vec<_>>()
        );
        assert_eq!((a.shards, a.trigger, a.tenants.len()), (b.shards, b.trigger, b.tenants.len()));
        assert_eq!(format!("{:?}", a.scheduler), format!("{:?}", b.scheduler));
        assert_eq!(
            (a.horizon_s, a.drain_s, a.compression),
            (b.horizon_s, b.drain_s, b.compression)
        );
        let (a, b) = match (Bench::build("vqa-loop", 1, SMOKE), Bench::build("vqa-loop", 2, SMOKE))
        {
            (Bench::Vqa(a), Bench::Vqa(b)) => (a, b),
            _ => unreachable!(),
        };
        assert_eq!((a.iterations(), a.period), (b.iterations(), b.period));
        assert_ne!(a.circuit(0, 0).instructions(), b.circuit(0, 0).instructions(), "fresh angles");
        assert_eq!(a.circuit(0, 0).len(), b.circuit(0, 0).len(), "same ansatz shape");
    }

    #[test]
    fn window_median_ignores_one_disturbed_slice() {
        let at: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let mut values = vec![1.0; 100];
        for v in &mut values[..20] {
            *v = 50.0;
        }
        assert_eq!(window_median(&values, &at), 1.0);
    }

    #[test]
    fn sliced_wall_drops_a_burst_in_one_run() {
        let even: Vec<f64> = (1..=SLICES).map(|k| k as f64).collect();
        let mut burst = even.clone();
        for m in &mut burst[5..] {
            *m += 10.0;
        }
        assert_eq!(sliced_wall_s(&[even.clone(), burst, even]), SLICES as f64);
    }

    #[test]
    fn json_keeps_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
    }
}
