//! Integration tests of the fault-tolerance substrate (§4): the replicated
//! system monitor, replica failures, and fault injection against the journaled control plane — a
//! leader crash between trigger-fire and batch dispatch loses no tickets, and
//! minority store-replica churn mid-run leaves weighted fairness intact.

mod common;

use common::{feasible_spec, small_fleet, small_scheduler};
use qonductor::consensus::{LogEntry, ReplicatedKvStore, StoreError};
use qonductor::core::{
    ReplicatedControlPlane, SloClass, SystemMonitor, TenantConfig, TicketStatus, WorkflowStatus,
};
use qonductor::scheduler::ScheduleTrigger;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn system_monitor_state_survives_replica_failures() {
    let monitor = SystemMonitor::new(1); // 3 replicas, tolerates 1 failure
    monitor.record_qpu_static("ibm_cairo", 27, "falcon-r5.11").unwrap();
    monitor.set_workflow_status(1, WorkflowStatus::Running).unwrap();
    monitor.set_workflow_result(1, "fidelity=0.91").unwrap();

    monitor.store().crash_replica(0);
    // Reads and writes keep working with a majority.
    assert_eq!(monitor.workflow_status(1), Some(WorkflowStatus::Running));
    monitor.set_workflow_status(1, WorkflowStatus::Completed).unwrap();
    assert_eq!(monitor.workflow_status(1), Some(WorkflowStatus::Completed));
    assert_eq!(monitor.workflow_result(1).unwrap(), "fidelity=0.91");
    assert_eq!(monitor.qpu_names(), vec!["ibm_cairo".to_string()]);

    // Recovering the replica catches it up; afterwards even the other two can fail.
    monitor.store().recover_replica(0);
    monitor.store().crash_replica(1);
    monitor.store().crash_replica(2);
    assert_eq!(monitor.workflow_status(1), Some(WorkflowStatus::Completed));
}

#[test]
fn writes_are_rejected_without_a_quorum() {
    let store = ReplicatedKvStore::new(1);
    store.put("a", "1").unwrap();
    store.crash_replica(0);
    store.crash_replica(1);
    assert!(!store.has_quorum());
    assert_eq!(store.put("b", "2"), Err(StoreError::NoQuorum));
    // The surviving replica still serves committed state.
    assert_eq!(store.get("a").unwrap(), "1");
    // Recovering one replica restores the write quorum.
    store.recover_replica(0);
    assert!(store.has_quorum());
    store.put("b", "2").unwrap();
    assert_eq!(store.get("b").unwrap(), "2");
}

/// The leader crashes in the window between the trigger firing (the pool has
/// reached the queue limit) and the batch dispatch being journaled: nothing
/// was written, so the rebuilt replica still holds every admitted job in the
/// pool, the trigger re-fires on the recovered state, and every pre-crash
/// ticket resolves to `Completed` via `poll` after the failover.
#[test]
fn leader_crash_between_trigger_fire_and_dispatch_loses_no_tickets() {
    let mut fleet = small_fleet(21);
    let scheduler = small_scheduler(16, 8, 800);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(4, 1e12), 1, 91);
    let tenant = plane.register_tenant(1).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| plane.submit(tenant, feasible_spec(&fleet, 5, 6.0), i as f64).unwrap())
        .collect();
    plane.admit(3.0).unwrap();
    assert_eq!(plane.jobmanager().pending_len(), 4);
    // The queue-size trigger is due *now* — the next dispatch call would fire
    // it. The leader dies first.
    assert_eq!(plane.next_trigger_s(), Some(3.0), "trigger is due before the crash");
    let digest = plane.state_digest();
    plane.crash_leader();
    plane.failover().expect("failover succeeds");
    assert_eq!(plane.state_digest(), digest, "rebuilt state is byte-identical");
    assert_eq!(plane.jobmanager().pending_len(), 4, "no admitted job was lost");

    // The recovered replica re-fires the trigger and dispatches the batch.
    let outcome = plane
        .try_dispatch(3.0, &scheduler, &mut fleet)
        .expect("journal has a quorum")
        .expect("trigger re-fires on the rebuilt state");
    assert_eq!(outcome.record.job_ids.len(), 4);
    let mut rng = StdRng::seed_from_u64(5);
    fleet.advance_to(1e6, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).unwrap();
    for &ticket in &tickets {
        assert!(
            matches!(plane.poll(ticket), Some(TicketStatus::Completed { .. })),
            "pre-crash ticket {ticket:?} must resolve, got {:?}",
            plane.poll(ticket)
        );
    }
}

/// Crash + recover of a *minority* of store replicas during a saturated 2:1
/// multi-tenant run: journal writes keep committing on the surviving
/// majority, the recovered replicas catch up, and the weighted-fair admitted
/// shares stay within the ±10% envelope of `tests/fairness.rs`. No ticket is
/// lost.
#[test]
fn minority_store_replica_churn_preserves_weighted_fairness() {
    let mut fleet = small_fleet(22);
    let scheduler = small_scheduler(16, 8, 800);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(12, 30.0), 1, 92);
    let heavy = plane
        .register_tenant_with(TenantConfig { weight: 2, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();
    let light = plane
        .register_tenant_with(TenantConfig { weight: 1, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();
    let mut tickets = Vec::new();
    for i in 0..60 {
        let at = i as f64 * 0.001;
        tickets.push(plane.submit(heavy, feasible_spec(&fleet, 5, 4.0), at).unwrap());
        tickets.push(plane.submit(light, feasible_spec(&fleet, 5, 4.0), at).unwrap());
    }

    let mut rng = StdRng::seed_from_u64(9);
    let mut t = 1.0;
    let mut round = 0usize;
    let mut heavy_saturated = 0usize;
    let mut total_saturated = 0usize;
    while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
        round += 1;
        assert!(round < 100, "drain loop must converge");
        // Storage-tier churn: one replica down at a time, never a majority.
        match round {
            2 => plane.store().crash_replica(0),
            5 => {
                plane.store().recover_replica(0);
                plane.store().crash_replica(2);
            }
            8 => plane.store().recover_replica(2),
            _ => {}
        }
        plane.admit(t).expect("a minority crash never costs the quorum");
        let saturated =
            plane.submissions().queued_len(heavy) > 0 && plane.submissions().queued_len(light) > 0;
        if let Some(outcome) = plane.try_dispatch(t, &scheduler, &mut fleet).unwrap() {
            let batch = &outcome.record;
            if saturated {
                let count = |tenant| {
                    batch
                        .tenant_jobs
                        .iter()
                        .find(|(id, _)| *id == tenant)
                        .map_or(0usize, |(_, n)| *n)
                };
                heavy_saturated += count(heavy);
                total_saturated += batch.job_ids.len();
            }
        }
        t += 31.0;
        fleet.advance_to(t, &mut rng);
        let done = plane.drain_completions(&mut fleet);
        plane.note_completions(&done).unwrap();
    }
    assert!(total_saturated >= 36, "enough saturated batches to judge fairness");
    let share = heavy_saturated as f64 / total_saturated as f64;
    assert!(
        (share - 2.0 / 3.0).abs() <= 0.1,
        "heavy share {share} drifted outside the ±10% envelope under replica churn"
    );

    fleet.advance_to(t + 1e6, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).unwrap();
    for ticket in &tickets {
        assert!(
            matches!(plane.poll(*ticket), Some(TicketStatus::Completed { .. })),
            "ticket {ticket:?} must complete despite replica churn"
        );
    }
    // The journal survived the churn end-to-end: a full rebuild still works
    // and matches the live state byte for byte.
    let digest = plane.state_digest();
    plane.crash_leader();
    plane.failover().expect("failover succeeds after churn");
    assert_eq!(plane.state_digest(), digest);
}

/// Drive one fixed mixed workload — registrations (bulk + SLO), submissions,
/// an escalating admission pass, a batch dispatch, completions — against a
/// seeded plane. Shared by the journal-equivalence gate below.
fn drive_fixed_workload(plane: &mut ReplicatedControlPlane) {
    let mut fleet = small_fleet(93);
    let scheduler = small_scheduler(16, 8, 800);
    let bulk = plane.register_tenant(2).unwrap();
    let slo = plane
        .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
        .unwrap();
    for i in 0..6 {
        plane.submit(bulk, feasible_spec(&fleet, 5, 4.0), i as f64 * 0.1).unwrap();
    }
    let urgent = plane.submit(slo, feasible_spec(&fleet, 5, 4.0), 1.0).unwrap();
    // At t=2 the interval+margin horizon (32 s) overshoots the deadline at
    // 21: the SLO ticket escalates, then the DRR pass admits the rest — an
    // admission cycle with both event kinds in one staged batch.
    let admitted = plane.admit(2.0).unwrap();
    assert_eq!(admitted.first().map(|&(t, _)| t), Some(urgent), "escalation admits first");
    plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap().expect("trigger fires");
    let mut rng = StdRng::seed_from_u64(7);
    fleet.advance_to(1e5, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    assert!(!done.is_empty(), "the batch must complete");
    plane.note_completions(&done).unwrap();
}

/// The CI journal-equivalence gate: on a fixed seed, the group-commit path
/// and the per-event path journal byte-identical event sequences at the same
/// indices, and leave byte-identical control-plane states. Replay cannot
/// tell which path wrote the log.
#[test]
fn group_commit_and_per_event_paths_write_identical_journals() {
    let trigger = ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0);
    let mut grouped = ReplicatedControlPlane::new(trigger, 1, 93);
    let mut per_event = ReplicatedControlPlane::new(trigger, 1, 93);
    per_event.set_group_commit(false);
    assert!(grouped.group_commit());
    assert!(!per_event.group_commit());

    drive_fixed_workload(&mut grouped);
    drive_fixed_workload(&mut per_event);

    let grouped_entries = grouped.log().entries_from(0);
    let per_event_entries = per_event.log().entries_from(0);
    assert!(grouped_entries.len() > 4, "the workload journals a non-trivial sequence");
    assert_eq!(grouped_entries.len(), per_event_entries.len());
    for ((index_a, event_a), (index_b, event_b)) in
        grouped_entries.iter().zip(per_event_entries.iter())
    {
        assert_eq!(index_a, index_b);
        assert_eq!(event_a.encode(), event_b.encode(), "journal bytes diverged at {index_a}");
    }
    assert_eq!(grouped.encode_state(), per_event.encode_state(), "states diverged");
    assert_eq!(grouped.state_digest(), per_event.state_digest(), "digests diverged");
}

/// The crash-between-stage-and-commit window of group commit: the quorum dies
/// after an admission cycle's events are staged but before the batched append
/// commits. Nothing may land — no prefix of the batch, no local state change
/// — and a recovery + failover replays to exactly the pre-batch bytes.
#[test]
fn a_crash_between_stage_and_commit_replays_to_the_pre_batch_state() {
    let fleet = small_fleet(94);
    let trigger = ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0);
    let mut plane = ReplicatedControlPlane::new(trigger, 1, 94);
    let bulk = plane.register_tenant(2).unwrap();
    let slo = plane
        .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
        .unwrap();
    for i in 0..4 {
        plane.submit(bulk, feasible_spec(&fleet, 5, 4.0), i as f64 * 0.1).unwrap();
    }
    plane.submit(slo, feasible_spec(&fleet, 5, 4.0), 1.0).unwrap();
    let pre_batch_state = plane.encode_state();
    let pre_batch_len = plane.log().len();

    // Kill the quorum; the staged batch (escalation + admission pass) must
    // fail its single commit round and leave no trace, locally or durably.
    plane.store().crash_replica(0);
    plane.store().crash_replica(1);
    assert_eq!(plane.admit(2.0), Err(StoreError::NoQuorum.into()));
    assert_eq!(plane.encode_state(), pre_batch_state, "the failed batch mutated local state");
    assert_eq!(plane.log().len(), pre_batch_len, "the failed batch left a journal prefix");

    // Recover the store, crash the leader, and replay: the rebuilt state is
    // the pre-batch bytes.
    plane.store().recover_replica(0);
    plane.store().recover_replica(1);
    plane.crash_leader();
    plane.failover().expect("failover succeeds");
    assert_eq!(plane.encode_state(), pre_batch_state, "replay must land on the pre-batch state");

    // The retried cycle commits at the same indices and admits everything.
    let admitted = plane.admit(2.0).unwrap();
    assert_eq!(admitted.len(), 5, "the retried admission admits the full backlog");
    assert!(plane.log().len() > pre_batch_len);
}
