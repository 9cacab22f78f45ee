//! Cloud load generation (§8.2): a Poisson arrival process whose rate follows
//! the diurnal variation measured on the IBM Quantum platform (1100–2050 jobs
//! per hour across the day, 1500 jobs/hour on average), and synthesis of hybrid
//! applications (random benchmark circuits, shot counts, and sizes following a
//! normal distribution, with ~50% of applications using error mitigation).

use qonductor_circuit::{Circuit, WorkloadConfig, WorkloadGenerator};
use qonductor_mitigation::{candidate_stacks, MitigationStack};
use rand::Rng;

/// Arrival-process configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean arrival rate in jobs per hour (paper baseline: 1500).
    pub mean_rate_per_hour: f64,
    /// Relative amplitude of the diurnal rate variation (paper: 1100–2050 j/h
    /// around a 1500 j/h mean ⇒ amplitude ≈ 0.3).
    pub diurnal_amplitude: f64,
    /// Period of the diurnal variation in seconds (24 h by default).
    pub diurnal_period_s: f64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            mean_rate_per_hour: 1500.0,
            diurnal_amplitude: 0.3,
            diurnal_period_s: 24.0 * 3600.0,
        }
    }
}

impl ArrivalConfig {
    /// Instantaneous arrival rate (jobs/hour) at simulated time `t_s`.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t_s / self.diurnal_period_s;
        (self.mean_rate_per_hour * (1.0 + self.diurnal_amplitude * phase.sin())).max(1.0)
    }

    /// Sample the next inter-arrival gap (seconds) at time `t_s` from an
    /// exponential distribution with the instantaneous rate.
    pub fn sample_gap_s<R: Rng + ?Sized>(&self, t_s: f64, rng: &mut R) -> f64 {
        let rate_per_s = self.rate_at(t_s) / 3600.0;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / rate_per_s
    }
}

/// One synthesized hybrid application (a single quantum job plus optional
/// classical error-mitigation processing).
#[derive(Debug, Clone)]
pub struct HybridApplication {
    /// Application identifier.
    pub app_id: u64,
    /// Simulated submission time (seconds).
    pub submit_time_s: f64,
    /// The application's quantum circuit.
    pub circuit: Circuit,
    /// The error-mitigation stack it requested (empty stack = none).
    pub mitigation: MitigationStack,
}

/// Hybrid-application generator.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    arrival: ArrivalConfig,
    workload: WorkloadGenerator,
    /// Fraction of applications that request error mitigation (paper: 50%).
    mitigation_fraction: f64,
    next_app_id: u64,
}

impl LoadGenerator {
    /// Create a load generator whose circuits fit devices of `max_qubits`.
    pub fn new(arrival: ArrivalConfig, max_qubits: u32, mitigation_fraction: f64) -> Self {
        let workload = WorkloadGenerator::new(WorkloadConfig {
            mean_qubits: (f64::from(max_qubits) * 0.5).max(4.0),
            std_qubits: (f64::from(max_qubits) * 0.25).max(2.0),
            min_qubits: 2,
            max_qubits,
            ..WorkloadConfig::default()
        });
        LoadGenerator { arrival, workload, mitigation_fraction, next_app_id: 0 }
    }

    /// The arrival configuration.
    pub fn arrival(&self) -> &ArrivalConfig {
        &self.arrival
    }

    /// Generate all applications arriving in the window `[from_s, to_s)`.
    pub fn arrivals_in<R: Rng + ?Sized>(
        &mut self,
        from_s: f64,
        to_s: f64,
        rng: &mut R,
    ) -> Vec<HybridApplication> {
        let mut out = Vec::new();
        let mut t = from_s;
        loop {
            t += self.arrival.sample_gap_s(t, rng);
            if t >= to_s {
                break;
            }
            out.push(self.generate_app(t, rng));
        }
        out
    }

    /// Generate a single application submitted at `submit_time_s`.
    pub fn generate_app<R: Rng + ?Sized>(
        &mut self,
        submit_time_s: f64,
        rng: &mut R,
    ) -> HybridApplication {
        let app_id = self.next_app_id;
        self.next_app_id += 1;
        let circuit = self.workload.sample_circuit(rng);
        let mitigation = if rng.gen_bool(self.mitigation_fraction.clamp(0.0, 1.0)) {
            let stacks = candidate_stacks();
            stacks[rng.gen_range(1..stacks.len())].clone()
        } else {
            MitigationStack::none()
        };
        HybridApplication { app_id, submit_time_s, circuit, mitigation }
    }
}

/// One tenant's arrival stream in a multi-tenant load (per-tenant Poisson
/// rate and mitigation mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantArrivalConfig {
    /// The tenant's Poisson arrival process.
    pub arrival: ArrivalConfig,
    /// Fraction of this tenant's applications requesting error mitigation.
    pub mitigation_fraction: f64,
}

impl Default for TenantArrivalConfig {
    fn default() -> Self {
        TenantArrivalConfig { arrival: ArrivalConfig::default(), mitigation_fraction: 0.5 }
    }
}

/// An application arrival attributed to one stream of a
/// [`MultiTenantLoadGenerator`].
#[derive(Debug, Clone)]
pub struct StreamArrival {
    /// Index of the stream (tenant) the application arrived on.
    pub stream: usize,
    /// The application (ids are unique and increasing across all streams).
    pub app: HybridApplication,
}

/// Superposition of independent per-tenant Poisson arrival streams: each
/// stream has its own rate and mitigation mix, and the merged output is
/// ordered by submission time with globally unique, time-ordered app ids.
#[derive(Debug, Clone)]
pub struct MultiTenantLoadGenerator {
    streams: Vec<LoadGenerator>,
    next_app_id: u64,
}

impl MultiTenantLoadGenerator {
    /// One stream per config entry, all fitting devices of `max_qubits`.
    pub fn new(configs: &[TenantArrivalConfig], max_qubits: u32) -> Self {
        let streams = configs
            .iter()
            .map(|c| LoadGenerator::new(c.arrival, max_qubits, c.mitigation_fraction))
            .collect();
        MultiTenantLoadGenerator { streams, next_app_id: 0 }
    }

    /// Number of tenant streams.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Generate the merged arrivals of every stream in `[from_s, to_s)`,
    /// sorted by submission time, with app ids reassigned to be unique and
    /// increasing across the merge.
    pub fn arrivals_in<R: Rng + ?Sized>(
        &mut self,
        from_s: f64,
        to_s: f64,
        rng: &mut R,
    ) -> Vec<StreamArrival> {
        let mut merged: Vec<StreamArrival> = Vec::new();
        for (stream, generator) in self.streams.iter_mut().enumerate() {
            merged.extend(
                generator
                    .arrivals_in(from_s, to_s, rng)
                    .into_iter()
                    .map(|app| StreamArrival { stream, app }),
            );
        }
        merged.sort_by(|a, b| {
            a.app
                .submit_time_s
                .partial_cmp(&b.app.submit_time_s)
                .expect("submission times are finite")
        });
        for arrival in &mut merged {
            arrival.app.app_id = self.next_app_id;
            self.next_app_id += 1;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn diurnal_rate_stays_in_the_measured_band() {
        let cfg = ArrivalConfig::default();
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for hour in 0..24 {
            let r = cfg.rate_at(hour as f64 * 3600.0);
            min = min.min(r);
            max = max.max(r);
        }
        assert!((1000.0..=1200.0).contains(&min), "min rate {min}");
        assert!((1900.0..=2050.0).contains(&max), "max rate {max}");
    }

    #[test]
    fn one_hour_of_arrivals_is_close_to_the_mean_rate() {
        let mut gen = LoadGenerator::new(ArrivalConfig::default(), 27, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let apps = gen.arrivals_in(0.0, 3600.0, &mut rng);
        // Poisson with ~1500–1900 expected arrivals in the first hour (rising phase).
        assert!(apps.len() > 1200 && apps.len() < 2300, "got {} arrivals", apps.len());
        // Arrival times are increasing and inside the window.
        for w in apps.windows(2) {
            assert!(w[0].submit_time_s <= w[1].submit_time_s);
        }
        assert!(apps.iter().all(|a| a.submit_time_s < 3600.0));
    }

    #[test]
    fn roughly_half_the_applications_use_mitigation() {
        let mut gen = LoadGenerator::new(ArrivalConfig::default(), 27, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let apps = gen.arrivals_in(0.0, 1800.0, &mut rng);
        let mitigated = apps.iter().filter(|a| !a.mitigation.is_empty()).count();
        let fraction = mitigated as f64 / apps.len() as f64;
        assert!((0.4..0.6).contains(&fraction), "mitigated fraction {fraction}");
    }

    #[test]
    fn circuits_fit_the_requested_device_size() {
        let mut gen = LoadGenerator::new(ArrivalConfig::default(), 16, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let apps = gen.arrivals_in(0.0, 600.0, &mut rng);
        assert!(!apps.is_empty());
        assert!(apps.iter().all(|a| a.circuit.num_qubits() <= 16));
        // Application ids are unique and increasing.
        for w in apps.windows(2) {
            assert!(w[1].app_id > w[0].app_id);
        }
    }

    #[test]
    fn multi_tenant_streams_merge_ordered_with_unique_ids() {
        let fast = TenantArrivalConfig {
            arrival: ArrivalConfig { mean_rate_per_hour: 1800.0, ..Default::default() },
            mitigation_fraction: 0.0,
        };
        let slow = TenantArrivalConfig {
            arrival: ArrivalConfig { mean_rate_per_hour: 600.0, ..Default::default() },
            mitigation_fraction: 1.0,
        };
        let mut gen = MultiTenantLoadGenerator::new(&[fast, slow], 27);
        assert_eq!(gen.num_streams(), 2);
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = gen.arrivals_in(0.0, 1800.0, &mut rng);
        // Ordered by time, ids unique and increasing across the merge.
        for w in arrivals.windows(2) {
            assert!(w[0].app.submit_time_s <= w[1].app.submit_time_s);
            assert!(w[0].app.app_id < w[1].app.app_id);
        }
        // Both streams contribute, roughly proportionally to their rates.
        let fast_n = arrivals.iter().filter(|a| a.stream == 0).count();
        let slow_n = arrivals.iter().filter(|a| a.stream == 1).count();
        assert!(fast_n > slow_n * 2, "fast {fast_n} vs slow {slow_n}");
        assert!(slow_n > 100, "slow stream produces arrivals, got {slow_n}");
        // Mitigation mix follows the per-stream config.
        assert!(arrivals.iter().filter(|a| a.stream == 0).all(|a| a.app.mitigation.is_empty()));
        assert!(arrivals.iter().filter(|a| a.stream == 1).all(|a| !a.app.mitigation.is_empty()));
        // A second window continues the id space without reuse.
        let more = gen.arrivals_in(1800.0, 2400.0, &mut rng);
        assert!(more[0].app.app_id > arrivals.last().unwrap().app.app_id);
    }

    #[test]
    fn higher_rate_produces_more_arrivals() {
        let mut slow = LoadGenerator::new(
            ArrivalConfig { mean_rate_per_hour: 500.0, ..Default::default() },
            27,
            0.5,
        );
        let mut fast = LoadGenerator::new(
            ArrivalConfig { mean_rate_per_hour: 4500.0, ..Default::default() },
            27,
            0.5,
        );
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(4);
        let a = slow.arrivals_in(0.0, 1800.0, &mut rng1).len();
        let b = fast.arrivals_in(0.0, 1800.0, &mut rng2).len();
        assert!(b > 3 * a, "fast {b} vs slow {a}");
    }
}
