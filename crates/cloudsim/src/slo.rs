//! Bursty SLO scenario: a deadline-bound tenant shares the fleet with a
//! heavyweight bulk tenant and is hit by an arrival burst that exceeds the
//! base fleet's service capacity. The scenario runs the same pre-generated
//! offered load through two control-plane arms and compares their deadline
//! behaviour:
//!
//! * **SLO-aware** — the deadline tenant registers an [`SloClass`]; its
//!   jobs ride the journaled escalation lane past the DRR scan, the
//!   [`ScheduleTrigger`] fires early on negative deadline slack, an
//!   autoscaler watches the arrival window and provisions elastic
//!   `Simulator`-class capacity through journaled leases and
//!   `QpuProvisioned`/`QpuRetired` events, and arrivals too wide for every
//!   QPU are routed through `mitigation::knitting` into sub-circuit jobs
//!   instead of being rejected.
//! * **Plain weighted-fair** — the same trigger and weights with no SLO
//!   class, no escalation, no autoscaling, and no retry-with-cutting.
//!
//! Both arms consume *byte-identical* arrival streams (arrivals are
//! pre-generated from a dedicated RNG before the arms run), so the comparison
//! isolates the admission and elasticity policies. The SLO-aware arm also
//! runs under the seeded leader-crash chaos harness: every `SloEscalated`,
//! `QpuProvisioned`, and `QpuRetired` event rides the replicated journal, so
//! a fault-injected run must reproduce the failure-free run byte for byte.

use crate::load::{ArrivalConfig, LoadGenerator, StreamArrival};
use crate::sim::{run, Placement, Report, Scenario, Tenant};
use qonductor_backend::Fleet;
use qonductor_core::jobmanager::{CalibrationPolicy, TenantId};
use qonductor_core::submission::{RejectReason, SloClass, TenantConfig};
use qonductor_core::AutoscalerConfig;
use qonductor_scheduler::{Nsga2Config, Preference, ScheduleTrigger, SchedulerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Global id of the heavyweight bulk tenant.
pub const BULK_TENANT: TenantId = 0;
/// Global id of the deadline-bound tenant.
pub const SLO_TENANT: TenantId = 1;

/// Configuration of the bursty SLO scenario. The load shape is fixed: a
/// weight-8 bulk tenant at a flat 600 jobs/h (5% mitigated), and an
/// unmitigated SLO tenant at 240 jobs/h plus 1200 jobs/h during the burst,
/// drawing circuits up to 40 qubits — wider than the widest device, so a
/// fraction must be knit to run at all.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Simulated duration (seconds).
    pub duration_s: f64,
    /// Relative deadline of every SLO-tenant application (seconds after
    /// submission).
    pub deadline_s: f64,
    /// Burst window start (seconds).
    pub burst_start_s: f64,
    /// Burst window end (seconds, exclusive).
    pub burst_end_s: f64,
    /// Seed of the arrival stream, fleet, and elastic devices.
    pub seed: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            duration_s: 900.0,
            deadline_s: 75.0,
            burst_start_s: 150.0,
            burst_end_s: 450.0,
            seed: 77,
        }
    }
}

/// Simulation step (seconds).
const STEP_S: f64 = 5.0;
/// Time-based trigger interval (seconds) — deliberately longer than the
/// deadline, so only the slack-aware early fire can save an SLO job.
const TRIGGER_INTERVAL_S: f64 = 150.0;

impl SloConfig {
    /// One arm's scenario. `slo_aware` gives the SLO tenant its class (and
    /// with it the escalation lane and retry-with-cutting) and turns on the
    /// autoscaler; otherwise the identical offered load runs through plain
    /// weighted-fair admission.
    pub fn scenario(&self, slo_aware: bool) -> Scenario {
        let fleet = Fleet::heterogeneous(&mut StdRng::seed_from_u64(self.seed ^ 0xF1EE7));
        let arrivals = self.offered_load(fleet.max_qubits());
        let config = |weight| TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 };
        let slo = SloClass { deadline_s: self.deadline_s, priority: 1, max_error: 1.0 };
        Scenario {
            fleet,
            shards: 1,
            tenants: vec![
                Tenant { config: config(8), slo: None },
                Tenant { config: config(1), slo: slo_aware.then_some(slo) },
            ],
            arrivals,
            trigger: ScheduleTrigger::new(48, TRIGGER_INTERVAL_S).with_slo_margin(60.0),
            scheduler: SchedulerConfig {
                nsga2: Nsga2Config {
                    population_size: 20,
                    max_generations: 15,
                    max_evaluations: 1500,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                preference: Preference::jct_first(),
                ..SchedulerConfig::default()
            },
            calibration: CalibrationPolicy::Naive,
            placement: Placement::Qonductor,
            plan_ahead: false,
            autoscaler: slo_aware.then_some(AutoscalerConfig {
                window_s: 100.0,
                target_rate_per_qpu: 0.05,
                baseline_rate: 0.15,
                min_elastic: 0,
                max_elastic: 8,
                cooldown_s: 30.0,
                ..AutoscalerConfig::default()
            }),
            duration_s: self.duration_s,
            step_s: STEP_S,
            sample_every_s: 60.0,
            seed: self.seed,
        }
    }

    /// The full offered load, drawn from a dedicated RNG so both arms (and
    /// fault-injected re-runs) see byte-identical arrivals.
    fn offered_load(&self, fleet_max_qubits: u32) -> Vec<StreamArrival> {
        let constant = |rate: f64| ArrivalConfig {
            mean_rate_per_hour: rate,
            diurnal_amplitude: 0.0,
            ..ArrivalConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA11A);
        // Arrivals stop one full deadline window before the end of the run,
        // so every application can prove a deadline hit — without the
        // cutoff, late arrivals would count as structural misses in both
        // arms.
        let horizon_s = (self.duration_s - self.deadline_s - STEP_S).max(0.0);
        // Heavy mitigation stacks multiply quantum time up to ~24x, so the
        // bulk mix sets how lumpy the background service times are.
        let mut bulk = LoadGenerator::new(constant(600.0), fleet_max_qubits, 0.05);
        // SLO circuits are unmitigated (the tenant pays for latency, not
        // error bars) but may be wider than any device.
        let mut slo_base = LoadGenerator::new(constant(240.0), 40, 0.0);
        let mut slo_burst = LoadGenerator::new(constant(1200.0), 40, 0.0);
        let mut merged: Vec<StreamArrival> = Vec::new();
        let mut add = |stream: usize, apps: Vec<_>| {
            merged.extend(apps.into_iter().map(|app| StreamArrival { stream, app }));
        };
        add(BULK_TENANT as usize, bulk.arrivals_in(0.0, horizon_s, &mut rng));
        add(SLO_TENANT as usize, slo_base.arrivals_in(0.0, horizon_s, &mut rng));
        let burst_end_s = self.burst_end_s.min(horizon_s);
        add(SLO_TENANT as usize, slo_burst.arrivals_in(self.burst_start_s, burst_end_s, &mut rng));
        merged.sort_by(|a, b| a.app.submit_time_s.total_cmp(&b.app.submit_time_s));
        for (id, arrival) in merged.iter_mut().enumerate() {
            arrival.app.app_id = id as u64;
        }
        merged
    }
}

/// Side-by-side outcome of the two arms over the same offered load.
#[derive(Debug, Clone)]
pub struct SloComparison {
    /// The scenario configuration both arms ran under.
    pub config: SloConfig,
    /// The SLO-aware arm.
    pub slo_aware: Report,
    /// The plain weighted-fair arm.
    pub weighted_fair: Report,
}

impl SloComparison {
    /// The SLO tenant's deadline hit rates, `(slo_aware, weighted_fair)`.
    pub fn hit_rates(&self) -> (f64, f64) {
        let deadline_s = self.config.deadline_s;
        (
            self.slo_aware.deadline_hit_rate(SLO_TENANT, deadline_s),
            self.weighted_fair.deadline_hit_rate(SLO_TENANT, deadline_s),
        )
    }

    /// Human-readable summary (the `slo_summary.txt` artifact).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "Bursty SLO scenario (seed {}): deadline {:.0} s, burst [{:.0}, {:.0}) s of {:.0} s, \
             trigger interval {TRIGGER_INTERVAL_S:.0} s\n\n",
            self.config.seed,
            self.config.deadline_s,
            self.config.burst_start_s,
            self.config.burst_end_s,
            self.config.duration_s,
        );
        out.push_str(
            "arm            arrived completed hit_rate p95_turnaround_s escalated provisioned \
             retired knit infeasible_rejected\n",
        );
        for (name, arm) in [("slo_aware", &self.slo_aware), ("weighted_fair", &self.weighted_fair)]
        {
            let slo = arm.tenant(SLO_TENANT);
            out.push_str(&format!(
                "{name:<14} {:>7} {:>9} {:>8.4} {:>16.2} {:>9} {:>11} {:>7} {:>4} {:>19}\n",
                slo.arrived,
                arm.completions(SLO_TENANT),
                arm.deadline_hit_rate(SLO_TENANT, self.config.deadline_s),
                arm.p95_turnaround_s(SLO_TENANT),
                slo.stats.escalated,
                arm.provisioned,
                arm.retired,
                slo.knit,
                slo.infeasible as usize + arm.rejected_for(RejectReason::Infeasible),
            ));
        }
        let (aware, plain) = self.hit_rates();
        out.push_str(&format!(
            "\nslo_aware holds the p95 deadline: {} (hit_rate {aware:.4})\n\
             weighted_fair holds the p95 deadline: {} (hit_rate {plain:.4})\n",
            aware >= 0.95,
            plain >= 0.95,
        ));
        out
    }
}

/// Run both arms over the identical offered load and return the comparison.
pub fn run_slo_comparison(config: &SloConfig) -> SloComparison {
    SloComparison {
        config: config.clone(),
        slo_aware: run(&config.scenario(true), None),
        weighted_fair: run(&config.scenario(false), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SloConfig {
        SloConfig {
            duration_s: 400.0,
            burst_start_s: 100.0,
            burst_end_s: 250.0,
            ..Default::default()
        }
    }

    #[test]
    fn slo_arm_escalates_scales_and_knits() {
        let r = run(&quick_config().scenario(true), None);
        let slo = r.tenant(SLO_TENANT);
        assert!(
            slo.arrived > 0 && r.tenant(BULK_TENANT).arrived > 0,
            "load arrives on both streams"
        );
        assert!(r.completions(SLO_TENANT) > 0, "SLO applications complete");
        assert!(slo.stats.escalated > 0, "the bypass lane is exercised");
        assert!(r.provisioned > 0, "the burst provisions elastic capacity");
        assert!(slo.knit > 0, "wide arrivals are knit, not dropped");
        assert_eq!(slo.infeasible, 0, "nothing knittable is dropped");
        assert_eq!(
            r.rejected_for(RejectReason::Infeasible),
            0,
            "nothing is terminally rejected as infeasible"
        );
    }

    #[test]
    fn arms_consume_identical_offered_load_and_slo_arm_wins() {
        let comparison = run_slo_comparison(&quick_config());
        let (slo, plain) = (&comparison.slo_aware, &comparison.weighted_fair);
        for tenant in [SLO_TENANT, BULK_TENANT] {
            assert_eq!(
                slo.tenant(tenant).arrived,
                plain.tenant(tenant).arrived,
                "identical offered load"
            );
        }
        let (slo_rate, plain_rate) = comparison.hit_rates();
        assert!(
            slo_rate > plain_rate,
            "SLO-aware hit rate {slo_rate} must beat weighted-fair {plain_rate}"
        );
        assert!(
            plain.tenant(SLO_TENANT).infeasible > 0,
            "the plain arm drops what the cutter would save"
        );
        assert_eq!(
            plain.tenant(SLO_TENANT).stats.escalated,
            0,
            "no escalations without an SLO class"
        );
        assert_eq!(plain.provisioned, 0, "no autoscaling without an SLO class");
        let summary = comparison.summary();
        assert!(summary.contains("slo_aware"));
        assert!(summary.contains("weighted_fair"));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&quick_config().scenario(true), None);
        let b = run(&quick_config().scenario(true), None);
        assert_eq!(a.final_digests, b.final_digests);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.completed, b.completed);
    }
}
