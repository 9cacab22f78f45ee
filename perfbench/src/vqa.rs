//! `vqa-loop`: variational clients in a closed loop through the Table-2 API.
//!
//! Each iteration registers one workflow per client (`create_workflow`),
//! asks for its resource plans (`estimate_resources`) and invokes all of
//! them as one `invoke_many_as` wave on `Orchestrator::with_default_cluster`.
//! The trigger fires at the wave size, so each wave dispatches as one batch.
//! Every client keeps a QAOA ansatz of fixed shape and draws fresh angles each
//! iteration: circuits repeat in shape, never in parameters.

use crate::ledger::{timed, Layer, Ledger, Probe};
use crate::metrics::{Sim, Wall, SLICES};
use crate::openloop::{ms_since, no_probe, pace_until};
use crate::stats::{InputKey, ReuseMeter};
use qonductor::backend::Fleet;
use qonductor::circuit::generators::{qaoa_maxcut, MaxCutGraph};
use qonductor::circuit::Circuit;
use qonductor::core::jobmanager::TenantId;
use qonductor::core::workflow::mitigated_execution_workflow;
use qonductor::core::{DeploymentConfig, Orchestrator, RunId};
use qonductor::mitigation::MitigationStack;
use qonductor::scheduler::{ClassicalRequest, ScheduleTrigger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The generated inputs of a vqa-loop run.
pub struct Vqa {
    cluster_seed: u64,
    /// `(graph, stack)` per client: the ansatz shape and mitigation.
    clients: Vec<(MaxCutGraph, MitigationStack)>,
    /// `tries[iteration][client]`.
    tries: Vec<Vec<Try>>,
    /// A snapshot every `fault_every` waves, a crash and failover half-way
    /// between snapshots.
    fault_every: usize,
    /// Wall period between wave due instants in the paced run.
    pub period: Duration,
}

/// One client's parameters for one iteration.
struct Try {
    gammas: Vec<f64>,
    betas: Vec<f64>,
    shots: u32,
}

pub struct VqaBed {
    orch: Orchestrator,
    tenant: TenantId,
}

fn probe(orch: &Orchestrator) -> Probe {
    orch.with_sharded_control(crate::openloop::probe)
}

pub const CLIENTS: usize = 8;
/// Waves between failovers, so `recovery_ms` is a median over many of them.
const FAULT_EVERY: usize = 10;
const CLUSTER_SEED: u64 = 2025;

/// Build the vqa-loop inputs: `CLIENTS` clients, half of them mitigated with
/// the Listing-2 stack, `iterations` waves.
pub fn vqa_loop(seed: u64, iterations: usize) -> Vqa {
    // The clients' ansatz shapes and the cluster are fixed; the seed draws
    // the angles and the shot budget of every try.
    let mut shapes = StdRng::seed_from_u64(CLUSTER_SEED);
    let clients: Vec<(MaxCutGraph, MitigationStack)> = (0..CLIENTS)
        .map(|c| {
            let graph = MaxCutGraph::random(8 + c as u32 % 4 * 2, 0.3, &mut shapes);
            let stack =
                if c % 2 == 0 { MitigationStack::listing2() } else { MitigationStack::none() };
            (graph, stack)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let tries = (0..iterations)
        .map(|_| {
            (0..CLIENTS)
                .map(|_| Try {
                    gammas: (0..2).map(|_| rng.gen_range(0.0..std::f64::consts::PI)).collect(),
                    betas: (0..2).map(|_| rng.gen_range(0.0..std::f64::consts::PI)).collect(),
                    shots: rng.gen_range(1000..=4000u32),
                })
                .collect()
        })
        .collect();
    Vqa {
        cluster_seed: CLUSTER_SEED,
        clients,
        tries,
        fault_every: FAULT_EVERY.min(iterations).max(2),
        period: Duration::from_millis(60),
    }
}

impl Vqa {
    pub fn iterations(&self) -> usize {
        self.tries.len()
    }

    pub fn setup(&self) -> VqaBed {
        let orch = Orchestrator::with_default_cluster(self.cluster_seed)
            .with_trigger(ScheduleTrigger::new(CLIENTS, 120.0));
        let tenant = orch.register_tenant(1);
        VqaBed { orch, tenant }
    }

    pub fn circuit(&self, iteration: usize, client: usize) -> Circuit {
        let Try { gammas, betas, shots } = &self.tries[iteration][client];
        let mut circuit = qaoa_maxcut(&self.clients[client].0, gammas, betas);
        circuit.set_shots(*shots);
        circuit
    }

    /// Run every wave once; `paced` makes wave `k` due at `start + k·period`.
    pub fn run(
        &self,
        bed: VqaBed,
        paced: bool,
        ledger: &mut Option<Ledger>,
    ) -> Result<(Sim, Wall, ReuseMeter), String> {
        let VqaBed { mut orch, tenant } = bed;
        // The orchestrator's fleet is a pure function of the cluster seed;
        // rebuilt here only to know which QPUs fit each circuit.
        let fleet = Fleet::ibm_default(&mut StdRng::seed_from_u64(self.cluster_seed));
        let mut meter = ReuseMeter::default();
        let mut wall = Wall::default();
        let mut run_ids: Vec<RunId> = Vec::new();
        let mut failed = 0usize;
        let start_counts = ledger.as_ref().map(|_| counts(&orch));
        let started = Instant::now();
        for k in 0..self.iterations() {
            let due = started + self.period * k as u32;
            if paced {
                pace_until(due);
            }
            let circuits: Vec<Circuit> = (0..CLIENTS).map(|c| self.circuit(k, c)).collect();
            // Each client registers its workflow and asks for plans; that
            // answer is the client's acknowledgement.
            let (mut create_ns, mut estimate_ns) = (0u64, 0u64);
            let mut images = Vec::with_capacity(CLIENTS);
            for (c, circuit) in circuits.iter().enumerate() {
                let workflow = mitigated_execution_workflow(
                    format!("vqa-{c}-{k}"),
                    circuit.clone(),
                    self.clients[c].1.clone(),
                    ClassicalRequest::small(),
                );
                let began = Instant::now();
                let image = orch.create_workflow(workflow, DeploymentConfig::default());
                let created = Instant::now();
                let plans =
                    orch.estimate_resources(image).map_err(|e| format!("estimate: {e:?}"))?;
                create_ns += (created - began).as_nanos() as u64;
                estimate_ns += created.elapsed().as_nanos() as u64;
                if plans.is_empty() {
                    return Err(format!("no resource plan for wave {k}"));
                }
                if paced {
                    wall.ack_ms.push(ms_since(due));
                    wall.ack_at.push(k as f64 / self.iterations() as f64);
                }
                images.push(image);
            }
            let invoke_began = Instant::now();
            let (results, charge) = timed(ledger, Layer::Orchestrator, &mut orch, probe, |o| {
                o.invoke_many_as(tenant, &images)
            });
            let invoke = invoke_began.elapsed();
            wall.invoke_ms.push(invoke.as_secs_f64() * 1e3);
            if paced {
                wall.lag_ms.push(ms_since(due));
                wall.lag_at.push(k as f64 / self.iterations() as f64);
            }
            for result in results {
                match result {
                    Ok(run_id) => run_ids.push(run_id),
                    Err(_) => failed += 1,
                }
            }
            if let Some(l) = ledger.as_mut() {
                l.create_ns += create_ns;
                l.estimate_ns += estimate_ns;
                l.invoke_ns += invoke.as_nanos() as u64;
                // Plan generation is the estimator crate behind a thin call.
                l.add(Layer::Orchestrator, create_ns);
                l.add(Layer::Estimator, estimate_ns);
                l.estimator_jobs += CLIENTS as u64;
                if let Some(charge) = charge {
                    // The trigger fires at the wave size: one batch per wave.
                    l.cycle_ms.push(charge.sched_ns.iter().sum::<u64>() as f64 * 1e-6);
                }
                l.meter_ns += meter_wave(&mut meter, &fleet, &orch, &circuits);
            }

            // Fault schedule.
            let fault = wall.fault_start();
            if (k + 1) % self.fault_every == self.fault_every / 2 {
                let (snap, _) =
                    timed(ledger, Layer::Recovery, &mut orch, no_probe, |o| o.snapshot_control());
                snap.map_err(|e| format!("snapshot: {e:?}"))?;
            }
            if (k + 1) % self.fault_every == 0 {
                let before = orch.control_digest();
                if let Some(l) = ledger.as_mut() {
                    orch.with_sharded_control(|plane| {
                        l.replayed_events +=
                            plane.shards().iter().map(|s| s.replay_backlog()).sum::<u64>();
                        l.crashes += plane.num_shards() as u64;
                    });
                }
                let (recovered, took) = wall.recovery(|| orch.failover());
                recovered.map_err(|e| format!("failover: {e:?}"))?;
                if let Some(l) = ledger.as_mut() {
                    l.add(Layer::Recovery, took.as_nanos() as u64);
                    l.failover_ns += took.as_nanos() as u64;
                }
                if orch.control_digest() != before {
                    return Err(format!(
                        "failover after wave {k} did not rebuild the pre-crash state"
                    ));
                }
            }
            wall.fault_end(fault);
            // Slice m ends after wave ⌈(m + 1)·iterations/SLICES⌉ − 1.
            let busy_s = wall.busy_s(started);
            wall.mark_until((k + 1) * SLICES / self.iterations(), busy_s);
        }
        wall.loop_s = started.elapsed().as_secs_f64();

        // Every invoked run completed, and the plane agrees.
        let runs = self.iterations() * CLIENTS;
        let mut jct_s = Vec::with_capacity(runs);
        let mut fidelity = Vec::with_capacity(runs);
        let mut busy: HashMap<String, f64> = HashMap::new();
        // Waves run back to back in simulated time, each as long as its
        // longest run: the window is the sum of those.
        let mut end_s = 0.0f64;
        for wave in run_ids.chunks(CLIENTS) {
            let mut longest = 0.0f64;
            for &run_id in wave {
                let result =
                    orch.workflow_results(run_id).map_err(|e| format!("results: {e:?}"))?;
                jct_s.push(result.completion_s);
                for step in &result.quantum_steps {
                    fidelity.push(step.fidelity);
                    *busy.entry(step.qpu.clone()).or_default() += step.execution_s;
                }
                longest = longest.max(result.completion_s);
            }
            end_s += longest;
        }
        let stats = orch.tenant_stats(tenant).ok_or("tenant vanished")?;
        let quantum_steps = fidelity.len() as u64;
        if stats.submitted != quantum_steps
            || stats.completed != quantum_steps
            || stats.queued + stats.in_flight != 0
        {
            return Err(format!(
                "ticket conservation: {quantum_steps} quantum steps ran, tenant reads {stats:?}"
            ));
        }
        if run_ids.len() + failed != runs {
            return Err(format!("{runs} runs invoked, {} returned", run_ids.len() + failed));
        }
        if let (Some(l), Some(start)) = (ledger.as_mut(), start_counts) {
            let end = counts(&orch);
            l.monitor_writes = end.0 - start.0;
            l.orchestrator_batches = end.1 - start.1;
            l.batches = l.orchestrator_batches;
            let batches = orch.monitor().schedule_batches();
            l.scheduled_jobs = batches[start.1 as usize..].iter().map(|b| b.num_jobs as u64).sum();
            l.completions = fidelity.len() as u64;
        }
        let window_s = end_s.max(1.0);
        let busy_share: Vec<f64> = fleet
            .members()
            .iter()
            .map(|m| busy.get(&m.qpu.name).copied().unwrap_or(0.0) / window_s)
            .collect();
        let states = orch.with_sharded_control(|plane| plane.encoded_states());
        let sim = Sim {
            offered: runs,
            completed: run_ids.len(),
            rejected: failed,
            unresolved: 0,
            jct_s,
            fidelity,
            offered_load: busy_share.iter().sum::<f64>() / busy_share.len() as f64,
            busy_share,
            end_s,
            states,
        };
        Ok((sim, wall, meter))
    }
}

/// Meter the quantum steps of one wave: each is estimated inside
/// `invoke_many_as` on every QPU it fits, against that QPU's calibration
/// cycle as the monitor last recorded it. Returns the time spent.
fn meter_wave(
    meter: &mut ReuseMeter,
    fleet: &Fleet,
    orch: &Orchestrator,
    circuits: &[Circuit],
) -> u64 {
    let began = Instant::now();
    for circuit in circuits {
        let key = InputKey::of(circuit);
        for (i, member) in fleet.members().iter().enumerate() {
            if member.qpu.num_qubits() >= circuit.num_qubits() {
                let epoch = orch.monitor().qpu_calibration_cycle(&member.qpu.name).unwrap_or(0);
                meter.record(key, i, epoch);
            }
        }
    }
    began.elapsed().as_nanos() as u64
}

/// (monitor writes, batches recorded by the monitor).
fn counts(orch: &Orchestrator) -> (u64, u64) {
    let monitor = orch.monitor();
    (monitor.store().committed_writes(), monitor.schedule_batches().len() as u64)
}
