//! Fast per-QPU fidelity and execution-time estimates used by the cloud
//! simulation's scheduler input (the "fetch estimates from the system monitor"
//! part of the job pre-processing stage).
//!
//! The full resource-estimator path (per-QPU transpilation + trained
//! regression) is exercised in the `qonductor-estimator` crate and its benches;
//! inside the high-throughput cloud simulation we use a closed-form model on
//! circuit metrics and device calibration so that hundreds of thousands of
//! (job, QPU) pairs can be evaluated per simulated hour, exactly like the
//! paper's simulation consumes pre-computed estimations.

use qonductor_backend::{CalibrationData, Qpu};
use qonductor_circuit::{Circuit, CircuitMetrics};
use qonductor_mitigation::{MitigationCost, MitigationStack};

/// Closed-form estimate of one job on one QPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastEstimate {
    /// Estimated execution fidelity (after mitigation).
    pub fidelity: f64,
    /// Estimated quantum execution time in seconds (all shots and all
    /// mitigation-generated circuits).
    pub quantum_time_s: f64,
    /// Estimated classical processing time in seconds.
    pub classical_time_s: f64,
}

/// Routing overhead factor: how many extra two-qubit gates sparse connectivity
/// adds, as a multiplicative factor on the logical two-qubit count. Grows with
/// circuit width relative to device size (wider circuits need more SWAPs on a
/// heavy-hex lattice).
fn routing_factor(circuit_width: u32, device_qubits: u32) -> f64 {
    if device_qubits == 0 {
        return 1.0;
    }
    let fill = f64::from(circuit_width) / f64::from(device_qubits);
    1.0 + 1.5 * fill.clamp(0.0, 1.0)
}

/// Estimate the unmitigated fidelity of a circuit on a device from its metrics
/// and the device calibration (ESP-style product model with routing overhead).
pub fn base_fidelity(
    metrics: &CircuitMetrics,
    calibration: &CalibrationData,
    device_qubits: u32,
) -> f64 {
    let routing = routing_factor(metrics.width, device_qubits);
    let two_q = metrics.two_qubit_gates as f64 * routing;
    let one_q = metrics.one_qubit_gates as f64;
    let gate_part = (1.0 - calibration.mean_two_qubit_error()).powf(two_q)
        * (1.0 - calibration.mean_gate_error()).powf(one_q);
    let readout_part = (1.0 - calibration.mean_readout_error()).powf(metrics.measurements as f64);
    // Decoherence over the critical path: depth × average 2q duration.
    let depth_ns = metrics.depth as f64 * 250.0 * routing;
    let t_us = depth_ns / 1000.0;
    let rate =
        0.5 * (1.0 / calibration.mean_t1_us().max(1.0) + 1.0 / calibration.mean_t2_us().max(1.0));
    let decoherence = (-t_us * rate * metrics.width as f64 * 0.5).exp();
    (gate_part * readout_part * decoherence).clamp(0.0, 1.0)
}

/// Per-shot repetition delay on superconducting hardware (qubit reset +
/// control-electronics turnaround), in nanoseconds. IBM's default `rep_delay`
/// is 250 µs and dominates the per-shot budget for shallow circuits.
const SHOT_TURNAROUND_NS: f64 = 250_000.0;

/// Fixed per-job overhead in seconds (payload upload, control-electronics
/// loading, result retrieval) — the reason real cloud jobs take tens of
/// seconds even for small circuits.
const JOB_OVERHEAD_S: f64 = 8.0;

/// Estimate the unmitigated quantum execution time (seconds, all shots),
/// including the per-shot repetition delay and the fixed per-job overhead.
pub fn base_quantum_time_s(
    metrics: &CircuitMetrics,
    calibration: &CalibrationData,
    device_qubits: u32,
) -> f64 {
    let routing = routing_factor(metrics.width, device_qubits);
    let gate_ns = metrics.depth as f64 * 220.0 * routing;
    let readout_ns = calibration.qubits.first().map(|q| q.readout_duration_ns).unwrap_or(700.0);
    let per_shot_ns = gate_ns + readout_ns + SHOT_TURNAROUND_NS;
    JOB_OVERHEAD_S + per_shot_ns * f64::from(metrics.shots) / 1e9
}

/// Full per-QPU estimate for a job with a mitigation stack.
pub fn estimate(circuit: &Circuit, stack: &MitigationStack, qpu: &Qpu) -> FastEstimate {
    let metrics = CircuitMetrics::of(circuit);
    estimate_from_metrics(&metrics, stack_cost_for(circuit, stack, qpu), qpu)
}

/// Mitigation cost of a stack for a circuit on a QPU.
pub fn stack_cost_for(circuit: &Circuit, stack: &MitigationStack, qpu: &Qpu) -> MitigationCost {
    stack.cost(circuit, &qpu.noise_model())
}

/// Estimate from precomputed metrics and mitigation cost.
pub fn estimate_from_metrics(
    metrics: &CircuitMetrics,
    mitigation: MitigationCost,
    qpu: &Qpu,
) -> FastEstimate {
    let base_f = base_fidelity(metrics, &qpu.calibration, qpu.num_qubits());
    let base_t = base_quantum_time_s(metrics, &qpu.calibration, qpu.num_qubits());
    FastEstimate {
        fidelity: mitigation.mitigated_fidelity(base_f),
        quantum_time_s: base_t * mitigation.quantum_time_factor,
        classical_time_s: mitigation.classical_time_accelerated_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::QpuModel;
    use qonductor_circuit::generators::ghz;
    use qonductor_mitigation::MitigationStack;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn qpu(quality: f64, seed: u64) -> Qpu {
        let mut rng = StdRng::seed_from_u64(seed);
        Qpu::new("test", QpuModel::falcon_27(), quality, &mut rng)
    }

    #[test]
    fn fidelity_decreases_with_circuit_size_and_noise() {
        let good = qpu(0.7, 1);
        let bad = qpu(2.0, 1);
        let small = estimate(&ghz(4), &MitigationStack::none(), &good);
        let large = estimate(&ghz(24), &MitigationStack::none(), &good);
        let large_bad = estimate(&ghz(24), &MitigationStack::none(), &bad);
        assert!(small.fidelity > large.fidelity);
        assert!(large.fidelity > large_bad.fidelity);
        assert!(small.fidelity <= 1.0 && large_bad.fidelity >= 0.0);
    }

    #[test]
    fn quantum_time_scales_with_shots_and_depth() {
        let q = qpu(1.0, 2);
        let mut short = ghz(8);
        short.set_shots(1000);
        let mut long = ghz(24);
        long.set_shots(8000);
        let a = estimate(&short, &MitigationStack::none(), &q);
        let b = estimate(&long, &MitigationStack::none(), &q);
        assert!(b.quantum_time_s > a.quantum_time_s);
        // Beyond the fixed per-job overhead, the shot-dependent part scales ~8x.
        assert!((b.quantum_time_s - 8.0) > (a.quantum_time_s - 8.0) * 5.0);
    }

    #[test]
    fn mitigation_raises_fidelity_and_time() {
        let q = qpu(1.3, 3);
        let plain = estimate(&ghz(20), &MitigationStack::none(), &q);
        let mitigated = estimate(&ghz(20), &MitigationStack::listing2(), &q);
        assert!(mitigated.fidelity > plain.fidelity);
        assert!(mitigated.quantum_time_s > plain.quantum_time_s);
        assert!(mitigated.classical_time_s > plain.classical_time_s);
    }

    #[test]
    fn better_devices_give_better_estimates() {
        let good = qpu(0.7, 4);
        let bad = qpu(1.4, 4);
        let c = ghz(16);
        let a = estimate(&c, &MitigationStack::none(), &good);
        let b = estimate(&c, &MitigationStack::none(), &bad);
        assert!(a.fidelity > b.fidelity);
    }
}
