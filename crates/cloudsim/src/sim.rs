//! The quantum-cloud discrete-time simulation (§8.2): one event loop that
//! drives the same [`ShardedControlPlane`] the orchestrator serves jobs
//! through (one shard unless the scenario asks for more), so every
//! submission, admission, dispatch, re-estimation, lease, and completion rides
//! the quorum-replicated journal and the chaos harness covers every scenario.
//!
//! A [`Scenario`] fixes the fleet, the tenants, and a pre-generated
//! time-sorted arrival list; [`run`] steps simulated time — crash and fail
//! over, advance the fleet, account completions, submit, autoscale, admit,
//! re-estimate, dispatch, plan ahead, checkpoint, sample — and returns one
//! [`Report`].
//!
//! RNG rule: arrivals are drawn before the run (by the scenario builders),
//! while calibration drift and completion jitter each draw from their own
//! seeded stream. Two runs of one seed that differ only in policy therefore
//! face the identical workload and calibration trajectory.

use crate::estimates::{self, FastEstimate};
use crate::failover::{Crash, FailurePlan};
use crate::load::{
    ArrivalConfig, HybridApplication, MultiTenantLoadGenerator, StreamArrival, TenantArrivalConfig,
};
use qonductor_backend::{Fleet, FleetMember, JobQueue, Qpu, QpuModel, ResourceClass};
use qonductor_circuit::CircuitMetrics;
use qonductor_core::jobmanager::{BatchRecord, CalibrationPolicy, JobId, JobSpec, TenantId};
use qonductor_core::sharding::{GlobalTicket, ShardedControlPlane};
use qonductor_core::submission::{RejectReason, SloClass, TenantConfig, TenantStats, TicketStatus};
use qonductor_core::{Autoscaler, AutoscalerConfig, ScalingDecision};
use qonductor_mitigation::{knitting, MitigationStack};
use qonductor_scheduler::{
    HybridScheduler, Nsga2Config, Objectives, ScheduleTrigger, SchedulerConfig, TriggerReason,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// How admitted jobs reach the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Trigger-gated NSGA-II + MCDM batches, with the scenario scheduler's
    /// preference.
    Qonductor,
    /// First-come-first-serve onto the highest-fidelity feasible QPU — the
    /// "standard practice in the current quantum cloud" baseline.
    Fcfs,
    /// First-come-first-serve onto the least-busy feasible QPU (IBM
    /// `least_busy`).
    LeastBusy,
}

/// One tenant of a scenario. Tenants register in order, so the `i`-th
/// tenant's global id is `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tenant {
    /// DRR weight, in-flight cap, and retry budget.
    pub config: TenantConfig,
    /// Deadline class: its jobs ride the escalation lane, and its
    /// applications that fit no QPU are cut into fragments instead of
    /// dropped.
    pub slo: Option<SloClass>,
}

/// Everything one simulation run needs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The QPU fleet (cloned per run).
    pub fleet: Fleet,
    /// Control-plane shards; tenants hash across them and QPUs are leased
    /// round-robin.
    pub shards: usize,
    /// The tenants, in registration order.
    pub tenants: Vec<Tenant>,
    /// Pre-generated arrivals sorted by submission time; `stream` indexes
    /// [`Self::tenants`].
    pub arrivals: Vec<StreamArrival>,
    /// Every shard's batch trigger (queue-size limit, interval, SLO margin).
    pub trigger: ScheduleTrigger,
    /// NSGA-II + MCDM configuration of the batch scheduler.
    pub scheduler: SchedulerConfig,
    /// How batches that cross a recalibration boundary are treated (§7).
    pub calibration: CalibrationPolicy,
    /// Batch scheduling or one of the direct-placement baselines.
    pub placement: Placement,
    /// After each step, speculatively schedule the next step's batch; the
    /// plan is adopted only if its input digest still matches, so dispatches
    /// are byte-identical either way.
    pub plan_ahead: bool,
    /// Elastic `Simulator`-class capacity, grown and shrunk with the arrival
    /// rate.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Simulation step (seconds).
    pub step_s: f64,
    /// Metrics sampling interval (seconds).
    pub sample_every_s: f64,
    /// Seed of the drift, jitter, and elastic-device streams.
    pub seed: u64,
}

/// The default 8-QPU IBM-like fleet of a seed.
pub fn default_fleet(seed: u64) -> Fleet {
    Fleet::ibm_default(&mut StdRng::seed_from_u64(seed ^ 0xF1EE7))
}

impl Scenario {
    /// Tenants submitting independent Poisson streams to `fleet`. Arrivals
    /// are drawn once, step window by step window, from their own seeded
    /// stream. Everything else takes the paper's defaults: one shard, a
    /// 100-job / 120 s trigger, balanced NSGA-II + MCDM batches,
    /// calibration-naive dispatch, and a sample every 60 s.
    pub fn poisson(
        fleet: Fleet,
        tenants: Vec<(Tenant, TenantArrivalConfig)>,
        duration_s: f64,
        step_s: f64,
        seed: u64,
    ) -> Self {
        let streams: Vec<TenantArrivalConfig> = tenants.iter().map(|(_, s)| *s).collect();
        let mut load = MultiTenantLoadGenerator::new(&streams, fleet.max_qubits());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A22_17A1);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        while t < duration_s {
            let t_next = (t + step_s).min(duration_s);
            arrivals.extend(load.arrivals_in(t, t_next, &mut rng));
            t = t_next;
        }
        Scenario {
            fleet,
            shards: 1,
            tenants: tenants.into_iter().map(|(tenant, _)| tenant).collect(),
            arrivals,
            trigger: ScheduleTrigger::new(100, 120.0),
            scheduler: SchedulerConfig {
                nsga2: Nsga2Config {
                    population_size: 40,
                    max_generations: 40,
                    max_evaluations: 6000,
                    num_threads: 4,
                    ..Nsga2Config::default()
                },
                ..SchedulerConfig::default()
            },
            calibration: CalibrationPolicy::Naive,
            placement: Placement::Qonductor,
            plan_ahead: false,
            autoscaler: None,
            duration_s,
            step_s,
            sample_every_s: 60.0,
            seed,
        }
    }

    /// The paper's cloud (§8.2): one unthrottled tenant on `fleet` (the
    /// 8-QPU [`default_fleet`] in the evaluation) in 10 s steps, with
    /// `mitigation_fraction` of its arrivals requesting error mitigation.
    pub fn paper(
        fleet: Fleet,
        arrival: ArrivalConfig,
        mitigation_fraction: f64,
        duration_s: f64,
        seed: u64,
    ) -> Self {
        let tenant = Tenant {
            config: TenantConfig { weight: 1, max_in_flight: usize::MAX, max_retries: 0 },
            slo: None,
        };
        let stream = TenantArrivalConfig { arrival, mitigation_fraction };
        Scenario::poisson(fleet, vec![(tenant, stream)], duration_s, 10.0, seed)
    }
}

/// One sampled point of the time series (Figures 6 and 9b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Simulated time of the sample (seconds).
    pub t_s: f64,
    /// Mean fidelity of all applications completed so far.
    pub mean_fidelity: f64,
    /// Mean end-to-end completion time of all applications completed so far (s).
    pub mean_completion_s: f64,
    /// Mean QPU utilization across the fleet, in [0, 1].
    pub mean_utilization: f64,
    /// Jobs pending in the schedulers' pools.
    pub scheduler_queue_len: usize,
    /// Applications completed so far.
    pub completed: usize,
}

/// Per-scheduling-cycle statistics (Figures 8a, 8b, 10a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// Simulated time of the cycle.
    pub t_s: f64,
    /// Number of jobs scheduled in the cycle.
    pub num_jobs: usize,
    /// Objectives of the chosen solution.
    pub chosen: Objectives,
    /// 95th-percentile JCT of the chosen solution (seconds).
    pub chosen_p95_jct_s: f64,
    /// Minimum mean-JCT over the Pareto front.
    pub front_min_jct_s: f64,
    /// Maximum mean-JCT over the Pareto front.
    pub front_max_jct_s: f64,
    /// Maximum mean fidelity over the Pareto front.
    pub front_max_fidelity: f64,
    /// Minimum mean fidelity over the Pareto front.
    pub front_min_fidelity: f64,
    /// Mean per-job execution time of the chosen solution (seconds).
    pub chosen_mean_exec_s: f64,
    /// Minimum mean execution time over the Pareto front (seconds).
    pub front_min_exec_s: f64,
    /// Maximum mean execution time over the Pareto front (seconds).
    pub front_max_exec_s: f64,
    /// Scheduler stage runtimes (wall-clock seconds): pre-processing,
    /// optimization, selection.
    pub stage_runtimes_s: [f64; 3],
}

/// One completed application (all fragments, for a cut one).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Completion {
    /// Global id of the submitting tenant.
    pub tenant: TenantId,
    /// Application id.
    pub app_id: u64,
    /// QPU the (last) job ran on.
    pub qpu_index: usize,
    /// Submission time (s).
    pub submit_s: f64,
    /// Completion time = last finish − submit (s).
    pub completion_s: f64,
    /// Waiting time before the first execution started (s).
    pub waiting_s: f64,
    /// Quantum execution time, summed over fragments (s).
    pub execution_s: f64,
    /// Achieved fidelity (the product over fragments).
    pub fidelity: f64,
    /// Largest gap between the fidelity estimate a job was scheduled with
    /// and the estimate recomputed from the calibration in force when it
    /// finished — the realized cost of dispatching across a drift cycle
    /// with stale estimates (0 when no boundary intervened).
    pub fidelity_error: f64,
    /// Whether the application used error mitigation.
    pub mitigated: bool,
    /// Monetary cost: `shots × cost_per_shot`, summed over fragments.
    pub cost: f64,
}

/// One dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The shard that dispatched it.
    pub shard: usize,
    /// Simulated dispatch time.
    pub t_s: f64,
    /// Why the shard's trigger fired.
    pub reason: TriggerReason,
    /// Shard-local job ids handed to the scheduler.
    pub job_ids: Vec<JobId>,
    /// Jobs actually enqueued (placements minus the deferred set).
    pub enqueued: Vec<JobId>,
    /// Jobs pulled out at a recalibration boundary (§7 split decision).
    pub deferred: Vec<JobId>,
    /// `(global tenant, job count)` pairs, ascending.
    pub tenant_jobs: Vec<(TenantId, usize)>,
    /// Fleet-wide calibration epoch at dispatch.
    pub fleet_epoch: u64,
}

/// One tenant's end-of-run outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOutcome {
    /// Global tenant id.
    pub tenant: TenantId,
    /// Applications that arrived.
    pub arrived: u64,
    /// Applications that fit no QPU and were never submitted (the cutter
    /// could not save them, or the tenant has no SLO class).
    pub infeasible: u64,
    /// Applications cut into fragments because they fit no QPU whole.
    pub knit: u64,
    /// Submission-service accounting (admissions, completions, waits).
    pub stats: TenantStats,
}

/// The outcome of one (possibly fault-injected) run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-tenant outcomes, by global id.
    pub tenants: Vec<TenantOutcome>,
    /// Every dispatched batch (empty for the direct-placement baselines).
    pub batches: Vec<Batch>,
    /// Per-scheduling-cycle statistics.
    pub cycles: Vec<CycleRecord>,
    /// Every completed application, in completion order.
    pub completed: Vec<Completion>,
    /// Every terminally rejected ticket: `(global tenant, reason)`.
    pub rejections: Vec<(TenantId, RejectReason)>,
    /// Time series of aggregate metrics.
    pub timeline: Vec<TimePoint>,
    /// Total busy seconds per QPU of the final fleet, Figure 8c.
    pub qpu_busy_s: Vec<f64>,
    /// QPU names, index-aligned with `qpu_busy_s`.
    pub qpu_names: Vec<String>,
    /// Pooled jobs whose estimates were recomputed after a drift cycle.
    pub reestimated_jobs: usize,
    /// Batches dispatched from an adopted plan-ahead schedule.
    pub speculative_batches: usize,
    /// Elastic QPUs provisioned.
    pub provisioned: u64,
    /// Elastic QPUs retired.
    pub retired: u64,
    /// One record per injected crash.
    pub crashes: Vec<Crash>,
    /// Snapshots installed (journal compactions).
    pub snapshots_installed: u64,
    /// Per-shard incremental state digests at the end of the run
    /// (comparable between runs that snapshot on the same schedule).
    pub final_digests: Vec<String>,
    /// Per-shard byte-for-byte encoded states at the end of the run (the
    /// `encode_state` oracle).
    pub final_states: Vec<String>,
}

impl Report {
    /// A tenant's outcome by global id.
    pub fn tenant(&self, tenant: TenantId) -> &TenantOutcome {
        &self.tenants[tenant as usize]
    }

    /// Applications that arrived across every tenant.
    pub fn arrived(&self) -> u64 {
        self.tenants.iter().map(|t| t.arrived).sum()
    }

    /// Applications never submitted plus tickets terminally rejected.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.infeasible).sum::<u64>() + self.rejections.len() as u64
    }

    /// Tickets terminally rejected for `reason`.
    pub fn rejected_for(&self, reason: RejectReason) -> usize {
        self.rejections.iter().filter(|(_, r)| *r == reason).count()
    }

    /// Jobs handed to the scheduler across all batches.
    pub fn dispatched_jobs(&self) -> usize {
        self.batches.iter().map(|b| b.job_ids.len()).sum()
    }

    /// Mean fidelity over all completed applications.
    pub fn mean_fidelity(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.fidelity))
    }

    /// Mean completion time over all completed applications (seconds).
    pub fn mean_completion_s(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.completion_s))
    }

    /// Final mean QPU utilization.
    pub fn mean_utilization(&self) -> f64 {
        self.timeline.last().map_or(0.0, |p| p.mean_utilization)
    }

    /// Mean fidelity estimation error over all completed applications.
    pub fn mean_fidelity_error(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.fidelity_error))
    }

    /// Total monetary cost across all completed applications.
    pub fn total_cost(&self) -> f64 {
        self.completed.iter().map(|c| c.cost).sum()
    }

    /// Mean per-application monetary cost.
    pub fn mean_cost(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.cost))
    }

    /// Batches whose plan crossed a recalibration boundary.
    pub fn split_batches(&self) -> usize {
        self.batches.iter().filter(|b| !b.deferred.is_empty()).count()
    }

    /// Boundary deferrals across all batches (a job deferred twice counts
    /// twice).
    pub fn deferred_total(&self) -> usize {
        self.batches.iter().map(|b| b.deferred.len()).sum()
    }

    /// Figure 8c's maximum load difference: `(max − min) / max` over
    /// per-QPU busy time.
    pub fn max_load_difference(&self) -> f64 {
        let max = self.qpu_busy_s.iter().cloned().fold(0.0, f64::max);
        let min = self.qpu_busy_s.iter().cloned().fold(f64::INFINITY, f64::min);
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }

    /// A tenant's share of all jobs handed to the scheduler, in `[0, 1]`.
    pub fn admitted_share(&self, tenant: TenantId) -> f64 {
        let total = self.dispatched_jobs();
        if total == 0 {
            return 0.0;
        }
        let own: usize = self
            .batches
            .iter()
            .flat_map(|b| &b.tenant_jobs)
            .filter(|(t, _)| *t == tenant)
            .map(|(_, n)| n)
            .sum();
        own as f64 / total as f64
    }

    /// Per-tenant accounting imbalance, summed: |submitted − (queued + in
    /// flight + completed + rejected)|. Zero iff every ledger balances — a
    /// lost ticket and a double-resolved one both make it non-zero.
    pub fn lost_tickets(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| {
                let s = t.stats;
                s.submitted
                    .abs_diff(s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected)
            })
            .sum()
    }

    /// `(shard, job id)` pairs handed to the scheduler more than once. Job
    /// ids are shard-local, so the pair is the unique key.
    pub fn double_dispatched_jobs(&self) -> Vec<(usize, JobId)> {
        let mut counts: HashMap<(usize, JobId), usize> = HashMap::new();
        for batch in &self.batches {
            for &job_id in &batch.job_ids {
                *counts.entry((batch.shard, job_id)).or_insert(0) += 1;
            }
        }
        let mut duplicated: Vec<_> =
            counts.into_iter().filter(|&(_, n)| n > 1).map(|(key, _)| key).collect();
        duplicated.sort_unstable();
        duplicated
    }

    /// `true` iff every failover rebuilt every shard's pre-crash state.
    pub fn all_digests_matched(&self) -> bool {
        self.crashes.iter().all(|c| c.digests_matched)
    }

    /// `true` iff the lease allocator rebuilt conflict-free after every crash.
    pub fn allocator_always_consistent(&self) -> bool {
        self.crashes.iter().all(|c| c.allocator_consistent)
    }

    /// Completion times of a tenant's completed applications, ascending.
    fn turnarounds(&self, tenant: TenantId) -> Vec<f64> {
        let mut own: Vec<f64> =
            self.completed.iter().filter(|c| c.tenant == tenant).map(|c| c.completion_s).collect();
        own.sort_by(f64::total_cmp);
        own
    }

    /// A tenant's applications completed within `deadline_s` of submission.
    pub fn deadline_hits(&self, tenant: TenantId, deadline_s: f64) -> u64 {
        self.turnarounds(tenant).iter().filter(|&&t| t <= deadline_s).count() as u64
    }

    /// `deadline_hits / arrived` — unfinished, rejected, and late
    /// applications all count as misses, so "p95 deadlines held" is exactly
    /// `deadline_hit_rate >= 0.95` (1 with no arrivals).
    pub fn deadline_hit_rate(&self, tenant: TenantId, deadline_s: f64) -> f64 {
        let arrived = self.tenant(tenant).arrived;
        if arrived == 0 {
            1.0
        } else {
            self.deadline_hits(tenant, deadline_s) as f64 / arrived as f64
        }
    }

    /// A tenant's completed applications.
    pub fn completions(&self, tenant: TenantId) -> usize {
        self.completed.iter().filter(|c| c.tenant == tenant).count()
    }

    /// 95th-percentile completion time of a tenant's completed applications
    /// (seconds; 0 with none).
    pub fn p95_turnaround_s(&self, tenant: TenantId) -> f64 {
        let sorted = self.turnarounds(tenant);
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = iter.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// One submitted job: a whole application or one fragment of a cut one.
struct Job {
    app_id: u64,
    /// Per-QPU estimates the job is scheduled against (refreshed when it is
    /// re-estimated after a drift cycle).
    estimates: Vec<FastEstimate>,
    /// The circuit and mitigation stack, kept for re-estimation.
    app: HybridApplication,
}

/// An application with fragments still outstanding, and what the finished
/// ones measured so far.
struct Pending {
    outstanding: usize,
    rejected: bool,
    first_start_s: f64,
    last_finish_s: f64,
    done: Completion,
}

const DEFAULT_SNAPSHOT_EVERY_BATCHES: usize = 8;

/// Run a scenario to completion. With a failure plan, every shard's leader
/// is killed at each scheduled instant and the shards fail over to replicas
/// rebuilt from `snapshot + log replay`; without one the run checkpoints
/// every 8 batches.
pub fn run(scenario: &Scenario, failures: Option<&FailurePlan>) -> Report {
    let sc = scenario;
    let mut fleet = sc.fleet.clone();
    let base_len = fleet.len();
    let mut drift_rng = StdRng::seed_from_u64(sc.seed ^ 0x00D8_1F7C);
    let mut jitter_rng = StdRng::seed_from_u64(sc.seed);
    let mut elastic_rng = StdRng::seed_from_u64(sc.seed ^ 0xE1A5);
    let mut plane = ShardedControlPlane::new(
        sc.shards,
        base_len,
        sc.trigger,
        sc.calibration,
        1,
        sc.seed ^ 0x51AB,
    );
    for (index, tenant) in sc.tenants.iter().enumerate() {
        let global = match tenant.slo {
            Some(slo) => plane.register_tenant_with_slo(tenant.config, slo),
            None => plane.register_tenant_with(tenant.config),
        }
        .expect("fresh stores have quorums");
        debug_assert_eq!(global as usize, index, "global ids follow registration order");
    }
    // Warm-started like the orchestrator: each cycle seeds NSGA-II from the
    // previous cycle's Pareto front.
    let scheduler = (sc.placement == Placement::Qonductor)
        .then(|| HybridScheduler::with_warm_start(sc.scheduler));
    let mut scaler = sc.autoscaler.map(Autoscaler::new);
    let mut crash_schedule: VecDeque<f64> =
        failures.map(|p| p.crash_times_s.iter().copied().collect()).unwrap_or_default();
    let snapshot_every =
        failures.map_or(DEFAULT_SNAPSHOT_EVERY_BATCHES, |p| p.snapshot_every_batches);

    let mut jobs: HashMap<GlobalTicket, Job> = HashMap::new();
    let mut apps: HashMap<u64, Pending> = HashMap::new();
    let mut counts = vec![(0u64, 0u64, 0u64); sc.tenants.len()]; // arrived, infeasible, knit
    let mut next_arrival = 0usize;
    let mut next_sample_s = 0.0;
    let mut report = Report::default();

    let mut t = 0.0f64;
    while t < sc.duration_s {
        let t_next = (t + sc.step_s).min(sc.duration_s);

        // 1. Crash every shard's leader at each scheduled instant in
        //    (t, t_next], fail over, and verify the rebuilds.
        while crash_schedule.front().is_some_and(|&c| c <= t_next) {
            let t_s = crash_schedule.pop_front().expect("front checked");
            let digests = plane.state_digests();
            let old: Vec<usize> = plane.shards().iter().map(|s| s.leader().unwrap_or(0)).collect();
            let replayed_events = plane.shards().iter().map(|s| s.replay_backlog()).sum();
            plane.crash_all_leaders();
            plane.failover_all().expect("a majority of each shard's replicas survives");
            report.crashes.push(Crash {
                t_s,
                leaders: old
                    .into_iter()
                    .zip(plane.shards())
                    .map(|(old, shard)| (old, shard.leader().unwrap_or(old)))
                    .collect(),
                replayed_events,
                digests_matched: plane.state_digests() == digests,
                allocator_consistent: plane.rebuild_allocator().is_ok(),
            });
        }

        // 2. Advance queues and calibration to t_next, then account the
        //    completions on the shard leasing each QPU — jobs arriving in
        //    [t, t_next) are enqueued at t_next and never start early.
        fleet.advance_to(t_next, &mut drift_rng);
        let epoch = fleet.calibration_epoch();
        for (ticket, completion) in plane.drain_and_note(&mut fleet).expect("journals have quorums")
        {
            let Some(job) = jobs.remove(&ticket) else { continue };
            let Some(app) = apps.get_mut(&job.app_id) else { continue };
            let qpu = completion.qpu_index;
            let (est, member) = (&job.estimates[qpu], &fleet.members()[qpu].qpu);
            // The estimate from the calibration in force at the drain step:
            // the gap is the realized cost of scheduling on a stale snapshot.
            let fresh = (member.num_qubits() >= job.app.circuit.num_qubits())
                .then(|| estimates::estimate(&job.app.circuit, &job.app.mitigation, member));
            let jitter = 1.0 + jitter_rng.gen_range(-0.02..0.02);
            app.outstanding -= 1;
            app.first_start_s = app.first_start_s.min(completion.record.start_time_s);
            app.last_finish_s = app.last_finish_s.max(completion.record.finish_time_s);
            let done = &mut app.done;
            done.qpu_index = qpu;
            done.execution_s += completion.record.execution_s();
            done.fidelity *= (est.fidelity * jitter).clamp(0.0, 1.0);
            done.fidelity_error = done
                .fidelity_error
                .max(fresh.map_or(0.0, |fresh| (est.fidelity - fresh.fidelity).abs()));
            done.cost += job.app.circuit.shots() as f64 * member.cost_per_shot;
            if app.outstanding == 0 {
                let app = apps.remove(&job.app_id).expect("present above");
                if !app.rejected {
                    let mut done = app.done;
                    done.completion_s = app.last_finish_s - done.submit_s;
                    done.waiting_s = app.first_start_s - done.submit_s;
                    report.completed.push(done);
                }
            }
        }

        // 3. Arrivals in [t, t_next): non-blocking, journaled submission.
        while sc.arrivals.get(next_arrival).is_some_and(|a| a.app.submit_time_s < t_next) {
            let StreamArrival { stream, app } = &sc.arrivals[next_arrival];
            next_arrival += 1;
            if let Some(scaler) = scaler.as_mut() {
                scaler.observe_arrival(app.submit_time_s, ResourceClass::Simulator);
            }
            let (arrived, infeasible, knit) = &mut counts[*stream];
            *arrived += 1;
            let mut submissions: Vec<(JobSpec, Job)> =
                build_submission(&fleet, app).into_iter().collect();
            if submissions.is_empty() && sc.tenants[*stream].slo.is_some() {
                // Retry-with-cutting: split the circuit before any retry
                // budget is burned and submit the fragments.
                *knit += 1;
                submissions = knitting::cut_in_half(&app.circuit)
                    .fragments
                    .into_iter()
                    .filter_map(|circuit| {
                        let fragment = HybridApplication {
                            app_id: app.app_id,
                            submit_time_s: app.submit_time_s,
                            circuit,
                            mitigation: MitigationStack::none(),
                        };
                        build_submission(&fleet, &fragment)
                    })
                    .collect();
            }
            if submissions.is_empty() {
                *infeasible += 1;
                continue;
            }
            let done = Completion {
                tenant: *stream as TenantId,
                app_id: app.app_id,
                submit_s: app.submit_time_s,
                fidelity: 1.0,
                mitigated: !app.mitigation.is_empty(),
                ..Completion::default()
            };
            apps.insert(
                app.app_id,
                Pending {
                    outstanding: submissions.len(),
                    rejected: false,
                    first_start_s: f64::INFINITY,
                    last_finish_s: f64::NEG_INFINITY,
                    done,
                },
            );
            for (spec, job) in submissions {
                let ticket = plane
                    .submit(*stream as TenantId, spec, app.submit_time_s)
                    .expect("streams map to registered tenants; journals have quorums");
                jobs.insert(ticket, job);
            }
        }

        // 4. Elastic capacity: grow or shrink Simulator-class tail members,
        //    leasing and journaling each one before the fleet changes.
        if let Some(scaler) = scaler.as_mut() {
            match scaler.decide(t_next, fleet.len() - base_len) {
                ScalingDecision::Grow(n) => {
                    for _ in 0..n {
                        let (index, class) = (fleet.len(), ResourceClass::Simulator);
                        plane
                            .provision_qpu(index % sc.shards, t_next, index, class)
                            .expect("journals have quorums")
                            .expect("the fleet tail is unleased");
                        let name = format!("elastic_sim_{}", report.provisioned);
                        fleet.push_member(FleetMember {
                            qpu: Qpu::new(name, QpuModel::falcon_27(), 1.3, &mut elastic_rng)
                                .with_resource_class(class)
                                .with_cost_per_shot(0.05),
                            queue: JobQueue::new(),
                        });
                        report.provisioned += 1;
                    }
                }
                ScalingDecision::Shrink(n) => {
                    for _ in 0..n {
                        // Only an idle, drained elastic tail retires.
                        if fleet.len() <= base_len || fleet.pop_member().is_none() {
                            break;
                        }
                        let index = fleet.len();
                        plane
                            .retire_qpu(index % sc.shards, t_next, index)
                            .expect("journals have quorums")
                            .expect("the provisioning shard holds the lease");
                        report.retired += 1;
                    }
                }
                ScalingDecision::Hold => {}
            }
        }

        // 5. Weighted-fair admission (escalation lane first), journaled.
        let admitted = plane.admit(t_next).expect("journals have quorums");

        // 6. Recompute the estimates of every stale pooled job against the
        //    current calibration, journaling each refresh. Running after
        //    admission covers boundary-deferred jobs and jobs admitted only
        //    now from a pre-boundary backlog — nothing dispatches stale.
        if sc.calibration == CalibrationPolicy::SplitAtBoundary {
            for (shard, job_id) in plane.stale_pending_all(epoch) {
                let Some(ticket) = plane.admitted_ticket(shard, job_id) else { continue };
                let Some(job) = jobs.get_mut(&ticket) else { continue };
                let Some((spec, fresh)) = build_submission(&fleet, &job.app) else { continue };
                job.estimates = fresh.estimates;
                if plane.reestimate_job(shard, job_id, spec).expect("journals have quorums") {
                    report.reestimated_jobs += 1;
                }
            }
        }

        // 7. Placement: the baselines put each admitted job straight onto a
        //    queue (journaled, no trigger, no optimizer); Qonductor runs
        //    every due shard trigger's NSGA-II + MCDM cycle.
        match &scheduler {
            None => {
                for (ticket, job_id) in admitted {
                    // The (shard-masked) spec says where the job can run.
                    let spec = &plane.pending_job(ticket.shard, job_id).expect("admitted").spec;
                    let feasible = (0..spec.exec_time_per_qpu.len().min(fleet.len()))
                        .filter(|&i| spec.exec_time_per_qpu[i].is_finite());
                    let waiting = |i: usize| fleet.members()[i].queue.estimated_waiting_s();
                    let qpu = match sc.placement {
                        Placement::Fcfs => feasible.max_by(|&a, &b| {
                            spec.fidelity_per_qpu[a].total_cmp(&spec.fidelity_per_qpu[b])
                        }),
                        _ => feasible.min_by(|&a, &b| waiting(a).total_cmp(&waiting(b))),
                    };
                    plane.shards_mut()[ticket.shard]
                        .dispatch_direct(job_id, qpu.unwrap_or(0), &mut fleet)
                        .expect("journals have quorums");
                }
            }
            Some(scheduler) => {
                let outcomes = plane
                    .try_dispatch(t_next, scheduler, &mut fleet)
                    .expect("journals have quorums");
                for (shard, outcome) in outcomes {
                    for &ticket in &outcome.terminal_rejections {
                        let global = plane.global_of(shard, ticket.tenant).expect("registered");
                        let ticket = GlobalTicket { shard, ticket };
                        let reason = match plane.poll(ticket) {
                            Some(TicketStatus::Rejected { reason, .. }) => reason,
                            _ => RejectReason::RetriesExhausted,
                        };
                        report.rejections.push((global, reason));
                        let Some(job) = jobs.remove(&ticket) else { continue };
                        if let Some(app) = apps.get_mut(&job.app_id) {
                            app.outstanding -= 1;
                            app.rejected = true;
                            if app.outstanding == 0 {
                                apps.remove(&job.app_id);
                            }
                        }
                    }
                    let batch = &outcome.record;
                    if let Some(cycle) = cycle_record(batch, shard, &plane, &jobs) {
                        report.cycles.push(cycle);
                    }
                    report.speculative_batches += usize::from(batch.speculative);
                    report.batches.push(Batch {
                        shard,
                        t_s: batch.t_s,
                        reason: batch.reason,
                        job_ids: batch.job_ids.clone(),
                        enqueued: batch.enqueued_job_ids(),
                        deferred: batch.deferred.iter().map(|(id, _)| *id).collect(),
                        tenant_jobs: batch
                            .tenant_jobs
                            .iter()
                            .map(|&(local, n)| {
                                (plane.global_of(shard, local).expect("registered"), n)
                            })
                            .collect(),
                        fleet_epoch: batch.fleet_epoch,
                    });
                    // Periodic checkpoint: snapshot and compact every journal
                    // so failovers replay a short suffix, not history.
                    if snapshot_every > 0 && report.batches.len().is_multiple_of(snapshot_every) {
                        plane.snapshot_all().expect("journals have quorums");
                        report.snapshots_installed += 1;
                    }
                }
                if sc.plan_ahead {
                    for shard in plane.shards_mut() {
                        shard.plan_ahead(t_next + sc.step_s, scheduler, &fleet);
                    }
                }
            }
        }

        // 8. Metrics sampling.
        if t_next >= next_sample_s {
            next_sample_s += sc.sample_every_s;
            report.timeline.push(TimePoint {
                t_s: t_next,
                mean_fidelity: report.mean_fidelity(),
                mean_completion_s: report.mean_completion_s(),
                mean_utilization: mean(fleet.members().iter().map(|m| m.queue.utilization())),
                scheduler_queue_len: plane
                    .shards()
                    .iter()
                    .map(|s| s.jobmanager().pending_len())
                    .sum(),
                completed: report.completed.len(),
            });
        }
        t = t_next;
    }

    report.tenants = counts
        .into_iter()
        .enumerate()
        .map(|(index, (arrived, infeasible, knit))| TenantOutcome {
            tenant: index as TenantId,
            arrived,
            infeasible,
            knit,
            stats: plane.tenant_stats(index as TenantId).expect("tenant registered"),
        })
        .collect();
    report.qpu_busy_s = fleet.members().iter().map(|m| m.queue.busy_s()).collect();
    report.qpu_names = fleet.members().iter().map(|m| m.qpu.name.clone()).collect();
    report.final_digests = plane.state_digests();
    report.final_states = plane.encoded_states();
    report
}

/// The engine submission (per-QPU fast estimates) for an application, or
/// `None` if no QPU fits the circuit.
fn build_submission(fleet: &Fleet, app: &HybridApplication) -> Option<(JobSpec, Job)> {
    let qubits = app.circuit.num_qubits();
    if qubits > fleet.max_qubits() {
        return None;
    }
    let metrics = CircuitMetrics::of(&app.circuit);
    let estimates: Vec<FastEstimate> = fleet
        .members()
        .iter()
        .map(|m| {
            if m.qpu.num_qubits() >= qubits {
                let cost = estimates::stack_cost_for(&app.circuit, &app.mitigation, &m.qpu);
                estimates::estimate_from_metrics(&metrics, cost, &m.qpu)
            } else {
                FastEstimate { fidelity: 0.0, quantum_time_s: f64::INFINITY, classical_time_s: 0.0 }
            }
        })
        .collect();
    let spec = JobSpec {
        qubits,
        shots: app.circuit.shots(),
        fidelity_per_qpu: estimates.iter().map(|e| e.fidelity).collect(),
        exec_time_per_qpu: estimates.iter().map(|e| e.quantum_time_s).collect(),
        estimate_epoch: fleet.calibration_epoch(),
    };
    Some((spec, Job { app_id: app.app_id, estimates, app: app.clone() }))
}

/// Derive the per-cycle statistics of Figures 8 and 10a from a batch
/// record; engine job ids map back to jobs through the shard's tickets.
fn cycle_record(
    batch: &BatchRecord,
    shard: usize,
    plane: &ShardedControlPlane,
    jobs: &HashMap<GlobalTicket, Job>,
) -> Option<CycleRecord> {
    if batch.job_ids.is_empty() {
        return None;
    }
    let estimates: HashMap<JobId, &[FastEstimate]> = batch
        .job_ids
        .iter()
        .filter_map(|&job_id| {
            let job = jobs.get(&plane.admitted_ticket(shard, job_id)?)?;
            Some((job_id, job.estimates.as_slice()))
        })
        .collect();
    let outcome = &batch.outcome;
    // Placements follow the scheduler's job order, so every Pareto
    // solution's assignment vector aligns with it.
    let order: Vec<JobId> = outcome.placements.iter().map(|p| p.job_id).collect();
    let mean_exec = |assignment: &[usize]| {
        let n = assignment.len().min(order.len());
        if n == 0 {
            return 0.0;
        }
        let total = (0..n)
            .filter_map(|i| estimates.get(&order[i])?.get(assignment[i]))
            .map(|e| e.quantum_time_s)
            .filter(|e| e.is_finite())
            .fold(0.0, |sum, e| sum + e);
        total / n as f64
    };
    // Per-job completion estimates of the chosen placements (queue wait +
    // all co-scheduled execution on the chosen QPU), mirroring Eq. 1.
    let mut per_qpu_load = vec![0.0f64; batch.qpus.len()];
    for p in &outcome.placements {
        // Jobs estimated before an elastic QPU joined have no entry for it.
        if let Some(e) = estimates.get(&p.job_id).and_then(|e| e.get(p.qpu_index)) {
            per_qpu_load[p.qpu_index] += e.quantum_time_s;
        }
    }
    let mut jcts: Vec<f64> = outcome
        .placements
        .iter()
        .map(|p| batch.qpus[p.qpu_index].waiting_time_s + per_qpu_load[p.qpu_index])
        .collect();
    jcts.sort_by(f64::total_cmp);
    let p95 = jcts
        .get(((jcts.len() as f64 - 1.0) * 0.95).round() as usize)
        .or(jcts.last())
        .copied()
        .unwrap_or(0.0);
    let chosen: Vec<usize> = outcome.placements.iter().map(|p| p.qpu_index).collect();
    let chosen_exec = mean_exec(&chosen);
    let front = &outcome.pareto_front;
    let execs: Vec<f64> = front.iter().map(|s| mean_exec(&s.assignment)).collect();
    let jct = front.iter().map(|s| s.objectives.mean_jct_s);
    let fid = front.iter().map(|s| s.objectives.mean_fidelity());
    Some(CycleRecord {
        t_s: batch.t_s,
        num_jobs: batch.job_ids.len(),
        chosen: outcome.chosen,
        chosen_p95_jct_s: p95,
        front_min_jct_s: jct.clone().fold(f64::INFINITY, f64::min),
        front_max_jct_s: jct.fold(0.0, f64::max),
        front_max_fidelity: fid.clone().fold(0.0, f64::max),
        front_min_fidelity: fid.fold(f64::INFINITY, f64::min),
        chosen_mean_exec_s: chosen_exec,
        front_min_exec_s: execs.iter().fold(chosen_exec, |a, &b| a.min(b)),
        front_max_exec_s: execs.iter().fold(chosen_exec, |a, &b| a.max(b)),
        stage_runtimes_s: [
            outcome.timings.preprocessing_s,
            outcome.timings.optimization_s,
            outcome.timings.selection_s,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_scenario(placement: Placement) -> Scenario {
        Scenario {
            placement,
            trigger: ScheduleTrigger::new(30, 60.0),
            scheduler: SchedulerConfig {
                nsga2: Nsga2Config {
                    population_size: 20,
                    max_generations: 15,
                    max_evaluations: 1500,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                ..SchedulerConfig::default()
            },
            sample_every_s: 50.0,
            ..Scenario::paper(
                default_fleet(7),
                ArrivalConfig { mean_rate_per_hour: 600.0, ..Default::default() },
                0.5,
                400.0,
                7,
            )
        }
    }

    #[test]
    fn qonductor_simulation_produces_cycles_and_completions() {
        let report = run(&short_scenario(Placement::Qonductor), None);
        assert!(report.arrived() > 20);
        assert!(!report.cycles.is_empty(), "scheduling cycles must have run");
        assert!(!report.completed.is_empty(), "jobs must have completed");
        assert!(!report.timeline.is_empty());
        assert_eq!(report.qpu_busy_s.len(), 8);
        for c in &report.completed {
            assert!(c.fidelity >= 0.0 && c.fidelity <= 1.0);
            assert!(c.completion_s >= c.execution_s - 1e-6);
            assert!(c.waiting_s >= -1e-6);
        }
    }

    #[test]
    fn fcfs_concentrates_load_qonductor_spreads_it() {
        let fcfs = run(&short_scenario(Placement::Fcfs), None);
        let qonductor = run(&short_scenario(Placement::Qonductor), None);
        // FCFS (fidelity-greedy) leaves some QPUs idle; Qonductor spreads the
        // load, so its max-load-difference is smaller.
        assert!(
            qonductor.max_load_difference() < fcfs.max_load_difference() + 1e-9,
            "qonductor {} vs fcfs {}",
            qonductor.max_load_difference(),
            fcfs.max_load_difference()
        );
        // FCFS uses fewer distinct QPUs than Qonductor.
        let used = |r: &Report| r.qpu_busy_s.iter().filter(|&&b| b > 0.0).count();
        assert!(used(&qonductor) >= used(&fcfs));
    }

    #[test]
    fn cycle_records_are_internally_consistent() {
        let report = run(&short_scenario(Placement::Qonductor), None);
        for c in &report.cycles {
            assert!(c.front_min_jct_s <= c.chosen.mean_jct_s + 1e-6);
            assert!(c.front_max_jct_s >= c.chosen.mean_jct_s - 1e-6);
            assert!(c.front_min_fidelity <= c.chosen.mean_fidelity() + 1e-6);
            assert!(c.front_max_fidelity >= c.chosen.mean_fidelity() - 1e-6);
            assert!(c.front_min_exec_s <= c.chosen_mean_exec_s + 1e-6);
            assert!(c.front_max_exec_s >= c.chosen_mean_exec_s - 1e-6);
            assert!(c.chosen_p95_jct_s >= 0.0);
            assert!(c.num_jobs > 0);
            assert!(c.stage_runtimes_s[1] > 0.0, "optimization stage must take time");
        }
    }

    #[test]
    fn least_busy_policy_runs_without_scheduler_cycles() {
        let report = run(&short_scenario(Placement::LeastBusy), None);
        assert!(report.cycles.is_empty());
        assert!(!report.completed.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&short_scenario(Placement::Fcfs), None);
        let b = run(&short_scenario(Placement::Fcfs), None);
        assert_eq!(a.arrived(), b.arrived());
        assert_eq!(a.completed.len(), b.completed.len());
        assert!((a.mean_fidelity() - b.mean_fidelity()).abs() < 1e-12);
    }

    /// Warm-started scheduling stays deterministic: two fresh runs of the
    /// same seed produce identical batch sequences and completions.
    #[test]
    fn qonductor_policy_is_deterministic_with_warm_start() {
        let a = run(&short_scenario(Placement::Qonductor), None);
        let b = run(&short_scenario(Placement::Qonductor), None);
        assert!(!a.batches.is_empty());
        assert_eq!(a.batches, b.batches, "warm-started batches must be reproducible");
        assert_eq!(a.completed.len(), b.completed.len());
        assert!((a.mean_fidelity() - b.mean_fidelity()).abs() < 1e-12);
        assert!((a.mean_completion_s() - b.mean_completion_s()).abs() < 1e-9);
    }

    /// Leader crashes mid-run are invisible to the single-tenant policies
    /// too: the fault-injected run matches the failure-free run's
    /// completions, batches, and final digest exactly.
    #[test]
    fn baseline_sim_failovers_are_invisible() {
        for placement in [Placement::Fcfs, Placement::Qonductor] {
            let plan = FailurePlan::from_seed(31, 400.0, 2);
            let chaos = run(&short_scenario(placement), Some(&plan));
            let plain = run(
                &short_scenario(placement),
                Some(&FailurePlan {
                    crash_times_s: vec![],
                    snapshot_every_batches: plan.snapshot_every_batches,
                }),
            );
            assert_eq!(chaos.crashes.len(), 2, "{placement:?}");
            assert!(chaos.all_digests_matched(), "{placement:?}: rebuilt state diverged");
            assert_eq!(chaos.final_digests, plain.final_digests, "{placement:?}");
            assert_eq!(chaos.completed, plain.completed, "{placement:?}");
            assert_eq!(chaos.batches, plain.batches, "{placement:?}");
            assert!(!chaos.completed.is_empty(), "{placement:?}");
        }
    }
}
