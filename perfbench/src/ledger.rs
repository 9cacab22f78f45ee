//! The per-layer ledger of a traced run.
//!
//! Spans sit in the benchmark's own code, around each call into a layer. A
//! call can run child layers inside it: the quorum journal runs inside
//! submit, admit, dispatch and completion accounting, and NSGA-II runs inside
//! dispatch. Their time is read from the program's public counters
//! (`journal_nanos()`, `jobmanager().scheduling_nanos()`) before and after
//! the call, charged to the child layer, and subtracted from the caller's
//! self time. Every nanosecond of a span lands in exactly one layer, so the
//! layers add up to the traced wall less the benchmark's own loop.

use std::time::{Duration, Instant};

/// The layers of the job path, named after the crates and modules that
/// implement them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `qonductor-estimator`, `-transpiler`, `-mitigation` (and the
    /// closed-form `cloudsim::estimates`).
    Estimator,
    /// `qonductor-consensus` through `core::replication`.
    Journal,
    /// `core::submission` submit and admit, plus the `core::sharding` fan-out.
    Admission,
    /// `qonductor-scheduler` (NSGA-II + MCDM).
    Scheduler,
    /// `core::jobmanager` dispatch, including calibration re-estimation
    /// bookkeeping.
    Dispatch,
    /// `qonductor-backend`: queue advance and completion drain.
    Simulator,
    /// `core::replication` snapshot, crash and failover.
    Recovery,
    /// `core::orchestrator`, registry and monitor (the Table-2 API).
    Orchestrator,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Estimator,
    Layer::Journal,
    Layer::Admission,
    Layer::Scheduler,
    Layer::Dispatch,
    Layer::Simulator,
    Layer::Recovery,
    Layer::Orchestrator,
];

/// Program counters read around a call, summed over shards: journal
/// nanoseconds, journal entries (`log().len()`) and committed quorum writes
/// (`store().committed_writes()`), plus scheduling nanoseconds per shard.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub journal_ns: u64,
    pub entries: u64,
    pub rounds: u64,
    pub sched_ns: Vec<u64>,
}

/// Scheduling nanoseconds each shard spent inside one traced call.
#[derive(Debug, Clone, Default)]
pub struct Charge {
    pub sched_ns: Vec<u64>,
}

/// Per-layer self time plus the counts the per-layer metrics are made of.
#[derive(Debug, Default)]
pub struct Ledger {
    self_ns: [u64; LAYERS.len()],
    /// Time the benchmark spent in its own measuring code inside the traced
    /// loop (the reuse meter); taken out of the traced wall.
    pub meter_ns: u64,
    pub estimator_jobs: u64,
    pub admission_passes: u64,
    pub admitted_jobs: u64,
    pub queue_wait_s: Vec<f64>,
    pub cycle_ms: Vec<f64>,
    pub batches: u64,
    pub scheduled_jobs: u64,
    pub parked: u64,
    pub parked_unleased: u64,
    pub placed: u64,
    pub enqueued: u64,
    pub completions: u64,
    pub crashes: u64,
    pub replayed_events: u64,
    pub failover_ns: u64,
    pub journal_entries: u64,
    pub journal_rounds: u64,
    pub create_ns: u64,
    pub estimate_ns: u64,
    pub invoke_ns: u64,
    pub monitor_writes: u64,
    pub orchestrator_batches: u64,
}

impl Ledger {
    /// Charge `elapsed` to `layer`, less the child time the counters saw.
    pub fn charge(
        &mut self,
        layer: Layer,
        elapsed: Duration,
        before: &Probe,
        after: &Probe,
    ) -> Charge {
        let journal_ns = after.journal_ns.saturating_sub(before.journal_ns);
        let sched_ns: Vec<u64> = after
            .sched_ns
            .iter()
            .zip(before.sched_ns.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total = elapsed.as_nanos() as u64;
        let journal = journal_ns.min(total);
        let sched = sched_ns.iter().sum::<u64>().min(total - journal);
        self.add(Layer::Journal, journal);
        self.add(Layer::Scheduler, sched);
        self.add(layer, total - journal - sched);
        self.journal_entries += after.entries.saturating_sub(before.entries);
        self.journal_rounds += after.rounds.saturating_sub(before.rounds);
        Charge { sched_ns }
    }

    /// Charge a call with no child layers.
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.self_ns[layer as usize] += ns;
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Run `f` on `target`; in a traced run, charge its wall time to `layer`
/// (children split out through `probe`). Untraced runs read no counter.
pub fn timed<P, R>(
    ledger: &mut Option<Ledger>,
    layer: Layer,
    target: &mut P,
    probe: impl Fn(&P) -> Probe,
    f: impl FnOnce(&mut P) -> R,
) -> (R, Option<Charge>) {
    match ledger {
        None => (f(target), None),
        Some(ledger) => {
            let before = probe(target);
            let started = Instant::now();
            let result = f(target);
            let elapsed = started.elapsed();
            let charge = ledger.charge(layer, elapsed, &before, &probe(target));
            (result, Some(charge))
        }
    }
}

/// Run `f`; in a traced run, charge its wall time to `layer` (no children).
pub fn leaf<R>(ledger: &mut Option<Ledger>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match ledger {
        None => f(),
        Some(ledger) => {
            let started = Instant::now();
            let result = f();
            ledger.add(layer, started.elapsed().as_nanos() as u64);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_split_out_of_the_caller() {
        let mut ledger = Ledger::default();
        let before = Probe { journal_ns: 100, entries: 5, rounds: 7, sched_ns: vec![10, 0] };
        let after = Probe { journal_ns: 400, entries: 9, rounds: 8, sched_ns: vec![510, 200] };
        ledger.charge(Layer::Dispatch, Duration::from_nanos(2_000), &before, &after);
        assert_eq!(ledger.self_ns(Layer::Journal), 300);
        assert_eq!(ledger.self_ns(Layer::Scheduler), 700);
        assert_eq!(ledger.self_ns(Layer::Dispatch), 1_000);
        assert_eq!(ledger.total_ns(), 2_000, "a span lands in exactly one layer");
        assert_eq!((ledger.journal_entries, ledger.journal_rounds), (4, 1));
    }

    #[test]
    fn children_never_exceed_the_span() {
        let mut ledger = Ledger::default();
        let before = Probe { journal_ns: 0, sched_ns: vec![0], ..Probe::default() };
        let after = Probe { journal_ns: 900, sched_ns: vec![900], ..Probe::default() };
        ledger.charge(Layer::Admission, Duration::from_nanos(1_000), &before, &after);
        assert_eq!(ledger.total_ns(), 1_000);
    }
}
