//! The sharded control plane: tenants are partitioned by hash across N
//! independent [`ReplicatedControlPlane`] shards, each owning its own
//! journal, [`JobManager`], [`SubmissionService`], and `ScheduleTrigger`, and
//! leasing exclusive QPU capacity from the shared [`FleetAllocator`].
//!
//! The single `ReplicatedControlPlane` is a global serialization point: one
//! journal quorum carries every submission, and one DRR admission pass walks
//! every registered tenant (O(T) per pass). Sharding divides both by N —
//! each shard journals and admits only its `T/N` tenants — which is what
//! lets throughput scale ~linearly in shard count at 10⁵–10⁶ registered
//! tenants (see `BENCH_controlplane.json`).
//!
//! Invariants:
//! - **Routing is pure.** [`shard_of_global`] maps a global tenant id to its
//!   shard by FNV-1a hash; callers can precompute where the *next* tenant
//!   will land ([`ShardedControlPlane::next_shard`]).
//! - **Leases are journaled on the granting shard.** A shard journals
//!   `LeaseGranted` *before* using the QPU, so its `failover()` replays the
//!   lease set byte-for-byte and [`FleetAllocator::rebuild`] over the
//!   per-shard sets proves capacity is neither leaked nor double-granted.
//! - **Specs are masked to the lease.** A submission routed to a shard has
//!   its estimate table masked to the shard's leased QPUs (fidelity 0, exec
//!   ∞ elsewhere), so the shard's scheduler can only place jobs on capacity
//!   the shard owns. A shard leasing the whole fleet (the single-shard
//!   default) keeps specs untouched — bit-identical to the unsharded plane.
//! - **Completions route by lease owner.** Per-shard job ids collide across
//!   shards, so drained completions are attributed to the shard leasing the
//!   QPU they ran on — which is exactly the shard that dispatched them.

use crate::fleetlease::{FleetAllocator, LeaseError, ReleaseError};
use crate::jobmanager::{CalibrationPolicy, CompletedExecution, JobId, JobSpec, TenantId};
use crate::replication::{
    DispatchOutcome, FailoverError, ReplicatedControlPlane, ReplicationError,
};
use crate::submission::{JobTicket, TenantConfig, TenantStats, TicketStatus};
use qonductor_backend::{Fleet, ResourceClass};
use qonductor_scheduler::{HybridScheduler, ScheduleTrigger};
use std::collections::HashMap;

/// A ticket qualified by the shard that issued it: per-shard ticket and job
/// ids are only unique within their shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalTicket {
    /// The shard the job was routed to.
    pub shard: usize,
    /// The shard-local ticket.
    pub ticket: JobTicket,
}

impl GlobalTicket {
    /// Canonical text encoding `shard:tenant:ticket` — what a client stores
    /// to poll across sessions. `decode(encode(t)) == t` exactly.
    pub fn encode(&self) -> String {
        format!("{}:{}:{}", self.shard, self.ticket.tenant, self.ticket.ticket)
    }

    /// Decode a ticket produced by [`GlobalTicket::encode`]. Returns `None`
    /// on any malformed input (wrong field count, non-numeric fields,
    /// trailing garbage).
    pub fn decode(encoded: &str) -> Option<GlobalTicket> {
        let mut fields = encoded.split(':');
        let shard = fields.next()?.parse().ok()?;
        let tenant = fields.next()?.parse().ok()?;
        let ticket = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        Some(GlobalTicket { shard, ticket: JobTicket { tenant, ticket } })
    }
}

/// Pure shard router: FNV-1a over the global tenant id's little-endian
/// bytes, mod the shard count. Deterministic and stateless, so any layer
/// (submission routing, scenario builders, benches) computes the same
/// placement.
pub fn shard_of_global(global: TenantId, num_shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in global.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % num_shards as u64) as usize
}

/// N control-plane shards behind one façade (see the module docs).
#[derive(Debug)]
pub struct ShardedControlPlane {
    shards: Vec<ReplicatedControlPlane>,
    allocator: FleetAllocator,
    /// Next global tenant id (global ids are assigned sequentially).
    next_global: TenantId,
    /// `placement[global] = (shard, local id)`.
    placement: Vec<(usize, TenantId)>,
    /// Reverse map: `(shard, local id) → global id`.
    global_of: HashMap<(usize, TenantId), TenantId>,
}

impl ShardedControlPlane {
    /// A sharded plane of `num_shards` shards over a `num_qpus` fleet. Each
    /// shard gets its own journal store of `2f + 1` replicas, an independent
    /// copy of `trigger`, and the calibration `policy`; QPU `i` is leased to
    /// shard `i % num_shards` (round-robin), journaled on the holding shard.
    pub fn new(
        num_shards: usize,
        num_qpus: usize,
        trigger: ScheduleTrigger,
        policy: CalibrationPolicy,
        fault_tolerance: usize,
        seed: u64,
    ) -> Self {
        assert!(num_shards > 0, "a sharded plane needs at least one shard");
        let shards: Vec<ReplicatedControlPlane> = (0..num_shards)
            .map(|s| {
                ReplicatedControlPlane::with_policy(
                    trigger,
                    policy,
                    fault_tolerance,
                    seed.wrapping_add(s as u64),
                )
            })
            .collect();
        let mut plane = ShardedControlPlane {
            shards,
            allocator: FleetAllocator::new(num_qpus),
            next_global: 0,
            placement: Vec::new(),
            global_of: HashMap::new(),
        };
        for qpu_index in 0..num_qpus {
            let shard = qpu_index % num_shards;
            plane
                .lease_qpu(shard, qpu_index)
                .expect("fresh stores have quorums")
                .expect("a fresh allocator has every QPU free");
        }
        plane
    }

    /// Attach provider spans to the shared allocator (federated
    /// deployments): `spans[p] = (provider name, qpu count)` concatenated in
    /// flat-index order. Pure configuration — nothing is journaled, and
    /// failover re-attaches the spans to the rebuilt allocator.
    pub fn with_provider_spans(mut self, spans: Vec<(String, usize)>) -> Self {
        self.allocator = self.allocator.with_provider_spans(spans);
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of QPUs in the shared fleet.
    pub fn num_qpus(&self) -> usize {
        self.allocator.num_qpus()
    }

    /// One shard, read-only.
    pub fn shard(&self, index: usize) -> &ReplicatedControlPlane {
        &self.shards[index]
    }

    /// All shards, read-only.
    pub fn shards(&self) -> &[ReplicatedControlPlane] {
        &self.shards
    }

    /// All shards, mutable — for callers driving shards from parallel
    /// threads over disjoint sub-fleets (the throughput bench). The lease
    /// partition is what makes that safe: shards share no QPU.
    pub fn shards_mut(&mut self) -> &mut [ReplicatedControlPlane] {
        &mut self.shards
    }

    /// The live lease bookkeeping.
    pub fn allocator(&self) -> &FleetAllocator {
        &self.allocator
    }

    /// The shard the *next* registered tenant will land on (registration
    /// assigns global ids sequentially; the router is pure).
    pub fn next_shard(&self) -> usize {
        shard_of_global(self.next_global, self.num_shards())
    }

    /// Where a registered global tenant lives: `(shard, shard-local id)`.
    pub fn placement_of(&self, global: TenantId) -> Option<(usize, TenantId)> {
        self.placement.get(global as usize).copied()
    }

    /// The global id of a shard-local tenant.
    pub fn global_of(&self, shard: usize, local: TenantId) -> Option<TenantId> {
        self.global_of.get(&(shard, local)).copied()
    }

    /// Register a tenant (journaled on its home shard). Returns the global
    /// tenant id.
    pub fn register_tenant(&mut self, weight: u32) -> Result<TenantId, ReplicationError> {
        self.register_tenant_with(TenantConfig::weighted(weight))
    }

    /// [`Self::register_tenant`] with an explicit configuration.
    pub fn register_tenant_with(
        &mut self,
        config: TenantConfig,
    ) -> Result<TenantId, ReplicationError> {
        self.register_tenant_inner(config, None)
    }

    /// [`Self::register_tenant_with`] plus an SLO class: the class is
    /// journaled on the tenant's home shard (it rides the registration
    /// event), so the shard's escalation lane and failover replay see it.
    pub fn register_tenant_with_slo(
        &mut self,
        config: TenantConfig,
        slo: crate::submission::SloClass,
    ) -> Result<TenantId, ReplicationError> {
        self.register_tenant_inner(config, Some(slo))
    }

    fn register_tenant_inner(
        &mut self,
        config: TenantConfig,
        slo: Option<crate::submission::SloClass>,
    ) -> Result<TenantId, ReplicationError> {
        let global = self.next_global;
        let shard = shard_of_global(global, self.num_shards());
        let local = match slo {
            Some(slo) => self.shards[shard].register_tenant_with_slo(config, slo)?,
            None => self.shards[shard].register_tenant_with(config)?,
        };
        self.next_global += 1;
        self.placement.push((shard, local));
        self.global_of.insert((shard, local), global);
        Ok(global)
    }

    /// Every registered tenant's `(global id, config)`, in global-id order —
    /// what a rebuild-with-different-shape constructor re-registers.
    pub fn tenant_configs_global(&self) -> Vec<(TenantId, TenantConfig)> {
        self.placement
            .iter()
            .enumerate()
            .map(|(global, &(shard, local))| {
                let config = self.shards[shard]
                    .submissions()
                    .tenant_configs()
                    .into_iter()
                    .find(|(id, _)| *id == local)
                    .map(|(_, config)| config)
                    .expect("placement tracks registered tenants");
                (global as TenantId, config)
            })
            .collect()
    }

    /// Submit a job for a global tenant: route to its shard, mask the spec
    /// to the shard's leased QPUs, journal on that shard. The returned
    /// ticket is shard-qualified.
    pub fn submit(
        &mut self,
        global: TenantId,
        spec: JobSpec,
        now_s: f64,
    ) -> Result<GlobalTicket, ReplicationError> {
        let (shard, local) = self
            .placement_of(global)
            .ok_or(ReplicationError::Submission(crate::SubmissionError::UnknownTenant(global)))?;
        let masked = self.mask_spec(shard, spec);
        let ticket = self.shards[shard].submit(local, masked, now_s)?;
        Ok(GlobalTicket { shard, ticket })
    }

    /// Observe a ticket's progress on its shard.
    pub fn poll(&self, ticket: GlobalTicket) -> Option<TicketStatus> {
        self.shards.get(ticket.shard)?.poll(ticket.ticket)
    }

    /// One weighted-fair admission pass per shard (each shard walks only its
    /// own *active* tenants — the O(T/N) win), stepped on real threads when
    /// there is more than one shard: admission touches nothing but the
    /// shard's own journaled state (the shared fleet enters only at
    /// dispatch), so the shards are data-disjoint and `thread::scope` hands
    /// each a `&mut` slice element. Results merge in shard order, so the
    /// returned sequence is identical to the serial walk. Returns all
    /// admitted tickets, shard-qualified.
    pub fn admit(&mut self, now_s: f64) -> Result<Vec<(GlobalTicket, JobId)>, ReplicationError> {
        let per_shard: Vec<Result<Vec<(JobTicket, JobId)>, ReplicationError>> =
            if self.shards.len() > 1 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .shards
                        .iter_mut()
                        .map(|plane| scope.spawn(move || plane.admit(now_s)))
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("shard panicked")).collect()
                })
            } else {
                self.shards.iter_mut().map(|plane| plane.admit(now_s)).collect()
            };
        let mut admitted = Vec::new();
        for (shard, result) in per_shard.into_iter().enumerate() {
            for (ticket, job_id) in result? {
                admitted.push((GlobalTicket { shard, ticket }, job_id));
            }
        }
        Ok(admitted)
    }

    /// One trigger-gated scheduling cycle per shard. Each shard schedules
    /// against the full fleet topology but its masked specs only place jobs
    /// on QPUs it leases. Returns `(shard, outcome)` for every shard whose
    /// trigger fired.
    pub fn try_dispatch(
        &mut self,
        now_s: f64,
        scheduler: &HybridScheduler,
        fleet: &mut Fleet,
    ) -> Result<Vec<(usize, DispatchOutcome)>, ReplicationError> {
        let mut outcomes = Vec::new();
        for (shard, plane) in self.shards.iter_mut().enumerate() {
            if let Some(outcome) = plane.try_dispatch(now_s, scheduler, fleet)? {
                outcomes.push((shard, outcome));
            }
        }
        Ok(outcomes)
    }

    /// Plan-ahead pipelining per shard: each shard speculatively schedules
    /// for its own next trigger instant (volatile, never journaled).
    pub fn plan_ahead_all(&mut self, scheduler: &HybridScheduler, fleet: &Fleet) {
        for plane in &mut self.shards {
            if let Some(fire_s) = plane.next_trigger_s() {
                plane.plan_ahead(fire_s, scheduler, fleet);
            }
        }
    }

    /// Drain fleet completions once and account each on the shard leasing
    /// the QPU it ran on (per-shard job ids collide; the lease owner is the
    /// dispatching shard). Returns shard-qualified `(ticket, completion)`
    /// pairs.
    pub fn drain_and_note(
        &mut self,
        fleet: &mut Fleet,
    ) -> Result<Vec<(GlobalTicket, CompletedExecution)>, ReplicationError> {
        let drained = self.shards[0].drain_completions(fleet);
        let mut per_shard: Vec<Vec<CompletedExecution>> = vec![Vec::new(); self.shards.len()];
        for completion in drained {
            let owner = self.allocator.owner(completion.qpu_index).unwrap_or(0);
            per_shard[owner].push(completion);
        }
        let mut resolved = Vec::new();
        for (shard, completions) in per_shard.iter().enumerate() {
            if completions.is_empty() {
                continue;
            }
            for (ticket, completion) in self.shards[shard].note_completions(completions)? {
                resolved.push((GlobalTicket { shard, ticket }, completion));
            }
        }
        Ok(resolved)
    }

    /// Earliest next completion across the fleet (fleet state is shared, so
    /// any shard's engine computes the same answer).
    pub fn next_event_s(&self, fleet: &Fleet) -> Option<f64> {
        self.shards[0].next_event_s(fleet)
    }

    /// Earliest instant any shard's trigger can fire.
    pub fn next_trigger_s(&self) -> Option<f64> {
        self.shards.iter().filter_map(|s| s.next_trigger_s()).min_by(f64::total_cmp)
    }

    /// Pending jobs with stale estimates across all shards, shard-qualified.
    pub fn stale_pending_all(&self, fleet_epoch: u64) -> Vec<(usize, JobId)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(shard, plane)| {
                plane.stale_pending(fleet_epoch).into_iter().map(move |job| (shard, job))
            })
            .collect()
    }

    /// A shard's pending job by id.
    pub fn pending_job(&self, shard: usize, job_id: JobId) -> Option<&crate::PendingJob> {
        self.shards[shard].pending_job(job_id)
    }

    /// The shard-qualified ticket admitted as `job_id` on `shard`.
    pub fn admitted_ticket(&self, shard: usize, job_id: JobId) -> Option<GlobalTicket> {
        let ticket = self.shards[shard].submissions().admitted_ticket(job_id)?;
        Some(GlobalTicket { shard, ticket })
    }

    /// Re-estimate a shard's pending job (the fresh spec is re-masked to the
    /// shard's leases before journaling, like a submission).
    pub fn reestimate_job(
        &mut self,
        shard: usize,
        job_id: JobId,
        spec: JobSpec,
    ) -> Result<bool, ReplicationError> {
        let masked = self.mask_spec(shard, spec);
        self.shards[shard].reestimate_job(job_id, masked)
    }

    /// A global tenant's admission statistics.
    pub fn tenant_stats(&self, global: TenantId) -> Option<TenantStats> {
        let (shard, local) = self.placement_of(global)?;
        self.shards[shard].submissions().tenant_stats(local)
    }

    /// Every tenant's statistics keyed by *global* id, in global-id order.
    pub fn snapshot_stats(&self) -> Vec<(TenantId, TenantStats)> {
        self.placement
            .iter()
            .enumerate()
            .filter_map(|(global, &(shard, local))| {
                let stats = self.shards[shard].submissions().tenant_stats(local)?;
                Some((global as TenantId, stats))
            })
            .collect()
    }

    /// Grant `qpu_index` to `shard`. The outer `Result` is journal plumbing;
    /// the inner one is the domain answer, checked against the allocator
    /// *before* anything is journaled: `Ok(())` once the shard holds the
    /// lease (re-granting to the holder journals nothing), or the typed
    /// refusal for an unknown shard, an index outside the fleet, or a QPU
    /// another shard holds. The grant is journaled on the shard (write-ahead)
    /// before any use.
    pub fn lease_qpu(
        &mut self,
        shard: usize,
        qpu_index: usize,
    ) -> Result<Result<(), LeaseError>, ReplicationError> {
        if let Err(refusal) = self.check_shard(shard) {
            return Ok(Err(refusal));
        }
        if let Err(refusal) = self.allocator.check_grant(shard, qpu_index) {
            return Ok(Err(refusal));
        }
        self.shards[shard].lease_qpu(qpu_index)?;
        let granted = self.allocator.try_grant(shard, qpu_index);
        debug_assert!(granted, "allocator agreed above");
        Ok(Ok(()))
    }

    /// Record an autoscaler grow decision: the allocator's index space grows
    /// to cover `qpu_index` (elastic capacity appends at the tail, so it may
    /// exceed the index space by at most one), `shard` leases it write-ahead,
    /// and the shard journals the provisioning — all before the caller
    /// appends the QPU to the fleet. Leasing the new tail keeps a
    /// single-shard plane's lease covering the whole fleet, so its specs
    /// still pass through unmasked.
    pub fn provision_qpu(
        &mut self,
        shard: usize,
        now_s: f64,
        qpu_index: usize,
        class: ResourceClass,
    ) -> Result<Result<(), LeaseError>, ReplicationError> {
        if let Err(refusal) = self.check_shard(shard) {
            return Ok(Err(refusal));
        }
        let num_qpus = self.allocator.num_qpus();
        if qpu_index > num_qpus {
            return Ok(Err(LeaseError::UnknownQpu { qpu_index, num_qpus }));
        }
        self.allocator.grow_to(qpu_index + 1);
        if let Err(refusal) = self.lease_qpu(shard, qpu_index)? {
            return Ok(Err(refusal));
        }
        self.shards[shard].provision_qpu(now_s, qpu_index, class)?;
        Ok(Ok(()))
    }

    /// Record an autoscaler shrink decision for an elastic QPU the caller has
    /// already drained out of the fleet (`Fleet::pop_member` refuses a tail
    /// with work): `shard` journals the retirement and releases the lease.
    pub fn retire_qpu(
        &mut self,
        shard: usize,
        now_s: f64,
        qpu_index: usize,
    ) -> Result<Result<(), ReleaseError>, ReplicationError> {
        if let Err(refusal) = self.allocator.check_release(shard, qpu_index, 0) {
            return Ok(Err(refusal));
        }
        self.shards[shard].retire_qpu(now_s, qpu_index)?;
        self.shards[shard].release_qpu(qpu_index)?;
        let released = self.allocator.release(shard, qpu_index, 0);
        debug_assert!(released.is_ok(), "allocator ownership checked above");
        Ok(Ok(()))
    }

    fn check_shard(&self, shard: usize) -> Result<(), LeaseError> {
        if shard < self.shards.len() {
            Ok(())
        } else {
            Err(LeaseError::UnknownShard { shard, num_shards: self.shards.len() })
        }
    }

    /// Release `shard`'s lease on `qpu_index`. The outer `Result` is journal
    /// plumbing; the inner one is the domain answer — `Ok(())` on release, or
    /// the typed refusal: [`ReleaseError::NotOwner`] for an ownership
    /// mismatch, [`ReleaseError::QueueBusy`] while the QPU's queue still
    /// holds the shard's dispatched work (releasing mid-execution would
    /// re-route those completions to the next lease holder).
    pub fn release_qpu(
        &mut self,
        shard: usize,
        qpu_index: usize,
        fleet: &Fleet,
    ) -> Result<Result<(), ReleaseError>, ReplicationError> {
        let pending_jobs = fleet.members()[qpu_index].queue.pending_len();
        if let Err(refusal) = self.allocator.check_release(shard, qpu_index, pending_jobs) {
            return Ok(Err(refusal));
        }
        if !self.shards[shard].release_qpu(qpu_index)? {
            // Ownership was verified against the live allocator, so the
            // journaled lease set disagreeing means the lease is not ours.
            return Ok(Err(ReleaseError::NotOwner {
                qpu_index,
                requested_by: shard,
                held_by: self.allocator.owner(qpu_index),
            }));
        }
        let released = self.allocator.release(shard, qpu_index, pending_jobs);
        debug_assert!(released.is_ok(), "allocator ownership checked above");
        Ok(Ok(()))
    }

    /// Checkpoint every shard (snapshot + journal compaction). Returns the
    /// per-shard first-uncovered indices.
    pub fn snapshot_all(&self) -> Result<Vec<u64>, ReplicationError> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Per-shard state digests (incremental fingerprints), in shard order.
    /// Per-shard equality is the failover-exactness criterion; suites that
    /// assert byte exactness compare each shard's
    /// [`ReplicatedControlPlane::encode_state`] oracle directly.
    pub fn state_digests(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.state_digest()).collect()
    }

    /// All shards' digests joined into one string (shard-separated), for
    /// whole-plane equality checks.
    pub fn combined_digest(&self) -> String {
        self.state_digests().join("\n--shard--\n")
    }

    /// Per-shard byte-for-byte encoded states, in shard order — the
    /// `encode_state` oracle for cross-run comparisons where the incremental
    /// digests are not comparable (different snapshot schedules).
    pub fn encoded_states(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.encode_state()).collect()
    }

    /// Crash one shard's leader (volatile state dies; journal survives).
    pub fn crash_leader(&mut self, shard: usize) {
        self.shards[shard].crash_leader();
    }

    /// Fail over one shard, then re-derive the allocator from every shard's
    /// journaled lease set — proving the replay neither leaked nor
    /// double-granted capacity.
    pub fn failover(&mut self, shard: usize) -> Result<(), FailoverError> {
        self.shards[shard].failover()?;
        self.allocator = self.rebuild_allocator().map_err(|_| FailoverError::CorruptState)?;
        Ok(())
    }

    /// Crash every shard's leader.
    pub fn crash_all_leaders(&mut self) {
        for shard in 0..self.shards.len() {
            self.crash_leader(shard);
        }
    }

    /// Fail over every shard (see [`Self::failover`]).
    pub fn failover_all(&mut self) -> Result<(), FailoverError> {
        for plane in &mut self.shards {
            plane.failover()?;
        }
        self.allocator = self.rebuild_allocator().map_err(|_| FailoverError::CorruptState)?;
        Ok(())
    }

    /// Reconstruct the allocator from the shards' journaled lease sets,
    /// failing on any double grant or out-of-range index. Provider spans are
    /// static configuration (membership is index-derived, never journaled),
    /// so they are carried
    /// over from the live allocator — the rebuilt provider attribution is
    /// byte-identical to the pre-crash one.
    pub fn rebuild_allocator(&self) -> Result<FleetAllocator, LeaseError> {
        let sets: Vec<_> = self.shards.iter().map(|s| s.leases().clone()).collect();
        let spans: Vec<(String, usize)> =
            self.allocator.provider_spans().iter().map(|s| (s.name.clone(), s.len)).collect();
        Ok(FleetAllocator::rebuild(&sets, self.allocator.num_qpus())?.with_provider_spans(spans))
    }

    /// Mask a full-fleet spec to a shard's leased QPUs: non-leased entries
    /// get fidelity 0 and infinite execution time, the same "cannot run
    /// here" encoding the estimator uses for infeasible devices. A shard
    /// leasing the whole fleet passes specs through untouched, keeping the
    /// single-shard plane bit-identical to the unsharded one.
    fn mask_spec(&self, shard: usize, mut spec: JobSpec) -> JobSpec {
        let leased = self.shards[shard].leases();
        if leased.len() >= spec.fidelity_per_qpu.len() {
            return spec;
        }
        for qpu in 0..spec.fidelity_per_qpu.len() {
            if !leased.contains(&qpu) {
                spec.fidelity_per_qpu[qpu] = 0.0;
                spec.exec_time_per_qpu[qpu] = f64::INFINITY;
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_scheduler::{Nsga2Config, SchedulerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fleet(seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        Fleet::ibm_default(&mut rng)
    }

    fn scheduler() -> HybridScheduler {
        HybridScheduler::new(SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 16,
                max_generations: 8,
                max_evaluations: 800,
                num_threads: 1,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        })
    }

    fn spec(fleet: &Fleet, qubits: u32, exec_s: f64) -> JobSpec {
        JobSpec {
            qubits,
            shots: 1000,
            fidelity_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { 0.9 } else { 0.0 })
                .collect(),
            exec_time_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { exec_s } else { f64::INFINITY })
                .collect(),
            estimate_epoch: fleet.calibration_epoch(),
        }
    }

    fn plane(num_shards: usize, num_qpus: usize) -> ShardedControlPlane {
        ShardedControlPlane::new(
            num_shards,
            num_qpus,
            ScheduleTrigger::new(1, 30.0),
            CalibrationPolicy::Naive,
            1,
            7,
        )
    }

    #[test]
    fn the_shard_router_is_pure_and_covers_every_shard() {
        for tenant in 0..64u32 {
            let first = shard_of_global(tenant, 4);
            assert_eq!(first, shard_of_global(tenant, 4), "routing is deterministic");
            assert!(first < 4);
        }
        let hit: std::collections::BTreeSet<usize> =
            (0..64u32).map(|t| shard_of_global(t, 4)).collect();
        assert_eq!(hit.len(), 4, "64 sequential tenants should touch all 4 shards");
        assert_eq!(shard_of_global(9, 1), 0, "a single shard absorbs everything");
    }

    #[test]
    fn construction_partitions_the_fleet_round_robin() {
        let plane = plane(3, 8);
        for qpu in 0..8 {
            assert_eq!(plane.allocator().owner(qpu), Some(qpu % 3));
        }
        for shard in 0..3 {
            let journaled = plane.shard(shard).leases();
            let live: std::collections::BTreeSet<usize> =
                plane.allocator().leased_by(shard).into_iter().collect();
            assert_eq!(journaled, &live, "journaled and live lease sets agree");
        }
        assert!(plane.rebuild_allocator().is_ok());
    }

    #[test]
    fn registration_routes_by_the_pure_router_and_round_trips_ids() {
        let mut plane = plane(4, 8);
        for _ in 0..32 {
            let expected_shard = plane.next_shard();
            let global = plane.register_tenant(1).unwrap();
            let (shard, local) = plane.placement_of(global).unwrap();
            assert_eq!(shard, expected_shard);
            assert_eq!(shard, shard_of_global(global, 4));
            assert_eq!(plane.global_of(shard, local), Some(global));
        }
        let configs = plane.tenant_configs_global();
        assert_eq!(configs.len(), 32);
        assert!(configs.iter().enumerate().all(|(i, (id, _))| *id == i as TenantId));
    }

    #[test]
    fn submissions_are_masked_to_the_shard_lease() {
        let mut plane = plane(2, 8);
        let fleet = small_fleet(3);
        let tenant = plane.register_tenant(1).unwrap();
        let (shard, _) = plane.placement_of(tenant).unwrap();
        let ticket = plane.submit(tenant, spec(&fleet, 5, 30.0), 0.0).unwrap();
        assert_eq!(ticket.shard, shard);
        let admitted = plane.admit(1.0).unwrap();
        assert_eq!(admitted.len(), 1);
        let (_, job_id) = admitted[0];
        let pending = plane.pending_job(shard, job_id).unwrap();
        let leased = plane.shard(shard).leases();
        for (qpu, (&fid, &exec)) in pending
            .spec
            .fidelity_per_qpu
            .iter()
            .zip(pending.spec.exec_time_per_qpu.iter())
            .enumerate()
        {
            if !leased.contains(&qpu) {
                assert_eq!(fid, 0.0, "non-leased QPU {qpu} must be masked out");
                assert!(exec.is_infinite());
            }
        }
        assert!(
            leased.iter().any(|&q| pending.spec.fidelity_per_qpu[q] > 0.0),
            "the job must stay feasible on the shard's own lease"
        );
    }

    /// An SLO class registered through the sharded front door lands on the
    /// tenant's home shard: the escalation lane fires there, and the shard's
    /// crash + failover replays it byte-for-byte.
    #[test]
    fn slo_classes_route_to_the_home_shard_and_survive_its_failover() {
        use crate::submission::SloClass;
        let mut plane = ShardedControlPlane::new(
            2,
            8,
            ScheduleTrigger::new(100, 30.0),
            CalibrationPolicy::Naive,
            1,
            7,
        );
        let fleet = small_fleet(3);
        let tenant = plane
            .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
            .unwrap();
        let (shard, local) = plane.placement_of(tenant).unwrap();
        assert_eq!(
            plane.shard(shard).submissions().tenant_slo(local).map(|s| s.deadline_s),
            Some(20.0)
        );
        let ticket = plane.submit(tenant, spec(&fleet, 5, 10.0), 1.0).unwrap();
        // interval+margin horizon (32 s) overshoots the deadline at 21: the
        // shard-local escalation lane admits it despite queue_limit 100.
        let admitted = plane.admit(2.0).unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].0, ticket);
        assert_eq!(plane.shard(shard).submissions().tenant_stats(local).unwrap().escalated, 1);
        let digest = plane.shard(shard).state_digest();
        plane.shards_mut()[shard].crash_leader();
        plane.shards_mut()[shard].failover().expect("failover succeeds");
        assert_eq!(plane.shard(shard).state_digest(), digest, "escalation replays on the shard");
    }

    #[test]
    fn a_single_shard_plane_matches_the_unsharded_plane_byte_for_byte() {
        let trigger = ScheduleTrigger::new(1, 30.0);
        let mut sharded = ShardedControlPlane::new(1, 8, trigger, CalibrationPolicy::Naive, 1, 7);
        let mut flat = ReplicatedControlPlane::with_policy(trigger, CalibrationPolicy::Naive, 1, 7);
        let mut fleet_a = small_fleet(3);
        let mut fleet_b = small_fleet(3);
        let scheduler = scheduler();

        let t_sharded = sharded.register_tenant(2).unwrap();
        let t_flat = flat.register_tenant(2).unwrap();
        for i in 0..3 {
            sharded.submit(t_sharded, spec(&fleet_a, 5, 30.0 + i as f64), 1.0).unwrap();
            flat.submit(t_flat, spec(&fleet_b, 5, 30.0 + i as f64), 1.0).unwrap();
        }
        sharded.admit(2.0).unwrap();
        flat.admit(2.0).unwrap();
        let out_a = sharded.try_dispatch(31.0, &scheduler, &mut fleet_a).unwrap();
        let out_b = flat.try_dispatch(31.0, &scheduler, &mut fleet_b).unwrap();
        assert_eq!(out_a.len(), 1);
        assert!(out_b.is_some());

        // Compare the encode_state oracle (real bytes — the hash digests
        // would differ here because the sharded plane journals lease
        // events). The unsharded encoding has no lease section; strip the
        // sharded plane's full-fleet lease line before comparing.
        let encoded = sharded.shard(0).encode_state();
        let encoded =
            encoded.lines().filter(|l| !l.starts_with("lease ")).collect::<Vec<_>>().join("\n");
        assert_eq!(encoded, flat.encode_state());
    }

    #[test]
    fn completions_route_to_the_leasing_shard() {
        let mut plane = plane(2, 8);
        let mut fleet = small_fleet(3);
        let scheduler = scheduler();
        let mut tenants = Vec::new();
        for _ in 0..4 {
            tenants.push(plane.register_tenant(1).unwrap());
        }
        let mut tickets = Vec::new();
        for &tenant in &tenants {
            tickets.push(plane.submit(tenant, spec(&fleet, 5, 25.0), 1.0).unwrap());
        }
        plane.admit(2.0).unwrap();
        let outcomes = plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap();
        assert!(!outcomes.is_empty(), "at least one shard dispatched");

        let horizon = plane.next_event_s(&fleet).expect("work is running");
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(horizon + 1.0, &mut rng);
        let resolved = plane.drain_and_note(&mut fleet).unwrap();
        assert!(!resolved.is_empty());
        for (ticket, completion) in &resolved {
            assert_eq!(
                plane.allocator().owner(completion.qpu_index),
                Some(ticket.shard),
                "a completion must be credited to the shard leasing its QPU"
            );
            assert!(
                matches!(plane.poll(*ticket), Some(TicketStatus::Completed { .. })),
                "the shard that dispatched the job resolves its ticket"
            );
        }
    }

    #[test]
    fn per_shard_failover_is_byte_exact_and_rebuilds_the_allocator() {
        let mut plane = plane(2, 8);
        let fleet = small_fleet(3);
        let mut tenants = Vec::new();
        for weight in [2u32, 1, 2, 1] {
            tenants.push(plane.register_tenant(weight).unwrap());
        }
        for &tenant in &tenants {
            plane.submit(tenant, spec(&fleet, 5, 20.0), 1.0).unwrap();
        }
        plane.admit(2.0).unwrap();

        let before = plane.state_digests();
        plane.crash_all_leaders();
        plane.failover_all().unwrap();
        assert_eq!(plane.state_digests(), before, "each shard replays to its exact digest");

        let rebuilt = plane.rebuild_allocator().unwrap();
        assert_eq!(&rebuilt, plane.allocator(), "the live allocator matches the journals");
    }

    #[test]
    fn releases_are_refused_while_the_qpu_queue_is_busy() {
        let mut plane = plane(2, 8);
        let mut fleet = small_fleet(3);
        let scheduler = scheduler();
        let tenant = plane.register_tenant(1).unwrap();
        let (shard, _) = plane.placement_of(tenant).unwrap();
        plane.submit(tenant, spec(&fleet, 5, 40.0), 1.0).unwrap();
        plane.admit(2.0).unwrap();
        let outcomes = plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap();
        assert!(outcomes.iter().any(|(s, _)| *s == shard), "the home shard dispatched");

        let busy_qpu = fleet
            .members()
            .iter()
            .position(|m| m.queue.pending_len() > 0)
            .expect("the dispatched job occupies a queue");
        assert_eq!(plane.allocator().owner(busy_qpu), Some(shard));
        let pending_jobs = fleet.members()[busy_qpu].queue.pending_len();
        assert_eq!(
            plane.release_qpu(shard, busy_qpu, &fleet).unwrap(),
            Err(ReleaseError::QueueBusy { qpu_index: busy_qpu, pending_jobs }),
            "a lease with in-flight work refuses release with the typed reason"
        );
        let other = (shard + 1) % 2;
        assert_eq!(
            plane.release_qpu(other, busy_qpu, &fleet).unwrap(),
            Err(ReleaseError::NotOwner {
                qpu_index: busy_qpu,
                requested_by: other,
                held_by: Some(shard)
            }),
            "a non-owner release reports the actual holder"
        );

        // Drain the work; the release then goes through and the QPU can move.
        let horizon = plane.next_event_s(&fleet).expect("work is running");
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(horizon + 1.0, &mut rng);
        plane.drain_and_note(&mut fleet).unwrap();
        assert_eq!(plane.release_qpu(shard, busy_qpu, &fleet).unwrap(), Ok(()));
        assert_eq!(plane.allocator().owner(busy_qpu), None);
        assert_eq!(plane.lease_qpu(other, busy_qpu).unwrap(), Ok(()));
        assert_eq!(plane.allocator().owner(busy_qpu), Some(other));
        assert!(plane.rebuild_allocator().is_ok(), "journals stay conflict-free after a move");
    }

    /// A lease request naming a QPU outside the fleet (or a shard outside
    /// the plane) is refused before anything is journaled, so it cannot
    /// poison the journaled lease sets that every later failover rebuilds
    /// the allocator from.
    #[test]
    fn an_out_of_range_lease_is_refused_and_later_failovers_still_work() {
        let mut plane = plane(2, 8);
        let journal_len = plane.shard(0).log().len();
        assert_eq!(
            plane.lease_qpu(0, 99).unwrap(),
            Err(LeaseError::UnknownQpu { qpu_index: 99, num_qpus: 8 })
        );
        assert_eq!(
            plane.lease_qpu(2, 0).unwrap(),
            Err(LeaseError::UnknownShard { shard: 2, num_shards: 2 })
        );
        assert_eq!(plane.shard(0).log().len(), journal_len, "a refusal journals nothing");
        assert!(plane.rebuild_allocator().is_ok());
        plane.crash_leader(0);
        plane.failover(0).expect("the journals hold no out-of-range grant");
        assert_eq!(plane.allocator().leased_by(0), vec![0, 2, 4, 6]);
    }

    /// Elastic capacity grows the index space, leases the new tail to the
    /// provisioning shard, and hands it back on retirement; both survive a
    /// failover.
    #[test]
    fn provisioned_qpus_are_leased_and_released_through_the_journal() {
        let mut plane = plane(1, 4);
        assert_eq!(
            plane.provision_qpu(0, 5.0, 6, ResourceClass::Simulator).unwrap(),
            Err(LeaseError::UnknownQpu { qpu_index: 6, num_qpus: 4 }),
            "elastic capacity appends at the tail"
        );
        assert_eq!(plane.provision_qpu(0, 5.0, 4, ResourceClass::Simulator).unwrap(), Ok(()));
        assert_eq!(plane.num_qpus(), 5);
        assert_eq!(plane.allocator().owner(4), Some(0));
        assert!(plane.shard(0).elastic().contains(&4));
        plane.crash_all_leaders();
        plane.failover_all().unwrap();
        assert_eq!(plane.allocator().owner(4), Some(0), "the elastic lease replays");
        assert_eq!(plane.retire_qpu(0, 9.0, 4).unwrap(), Ok(()));
        assert_eq!(plane.allocator().owner(4), None);
        assert!(plane.shard(0).elastic().is_empty());
        assert!(matches!(plane.retire_qpu(0, 9.0, 4).unwrap(), Err(ReleaseError::NotOwner { .. })));
    }

    #[test]
    fn the_router_balances_a_large_tenant_population() {
        // Satellite check: FNV-1a over 10⁵ sequential tenant ids must spread
        // evenly — the heaviest shard may not carry more than 1.1× the
        // lightest (the hash is uniform; sequential ids are the worst
        // realistic input since registration assigns them in order).
        const TENANTS: u32 = 100_000;
        for num_shards in [2usize, 4, 8, 16] {
            let mut load = vec![0u32; num_shards];
            for tenant in 0..TENANTS {
                load[shard_of_global(tenant, num_shards)] += 1;
            }
            let max = *load.iter().max().unwrap();
            let min = *load.iter().min().unwrap();
            assert!(min > 0, "no shard may be starved at {num_shards} shards");
            let ratio = f64::from(max) / f64::from(min);
            assert!(
                ratio < 1.1,
                "shard load imbalance {ratio:.3} at {num_shards} shards (max {max}, min {min})"
            );
        }
    }

    #[test]
    fn global_tickets_roundtrip_through_their_text_encoding() {
        let tickets = [
            GlobalTicket { shard: 0, ticket: JobTicket { tenant: 0, ticket: 0 } },
            GlobalTicket { shard: 7, ticket: JobTicket { tenant: 42, ticket: 9_001 } },
            GlobalTicket {
                shard: usize::MAX,
                ticket: JobTicket { tenant: u32::MAX, ticket: u64::MAX },
            },
        ];
        for ticket in tickets {
            let encoded = ticket.encode();
            assert_eq!(GlobalTicket::decode(&encoded), Some(ticket), "roundtrip of {encoded}");
        }
        for bad in ["", "1", "1:2", "1:2:3:4", "x:2:3", "1:-2:3", "1:2:3 "] {
            assert_eq!(GlobalTicket::decode(bad), None, "malformed input {bad:?} must be rejected");
        }
    }

    #[test]
    fn provider_spans_survive_failover_byte_for_byte() {
        let mut plane =
            plane(2, 8).with_provider_spans(vec![("ibm".to_string(), 6), ("ionq".to_string(), 2)]);
        let fleet = small_fleet(3);
        let tenant = plane.register_tenant(1).unwrap();
        plane.submit(tenant, spec(&fleet, 5, 20.0), 1.0).unwrap();
        plane.admit(2.0).unwrap();

        let before = plane.allocator().clone();
        assert_eq!(before.provider_of(5), Some("ibm"));
        assert_eq!(before.provider_of(6), Some("ionq"));
        plane.crash_all_leaders();
        plane.failover_all().unwrap();
        assert_eq!(
            plane.allocator(),
            &before,
            "rebuilt allocator (leases + spans) must match the pre-crash one exactly"
        );
        for shard in 0..2 {
            assert_eq!(
                plane.allocator().leased_by_provider(shard),
                before.leased_by_provider(shard)
            );
        }
    }
}
