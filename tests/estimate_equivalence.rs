//! Estimate-equivalence oracle: the per-QPU estimate path — transpile for a
//! device or template, then ESP and the mitigation stack's cost on the
//! transpiled circuit, exactly the calls `Orchestrator::step_estimates`
//! makes — must stay bit-identical under optimisation. Each row
//! fingerprints every estimate one target produced for a fixed job mix:
//! FNV-1a 64 over a canonical rendering of the transpiled instructions,
//! both layouts, the SWAP count, the circuit metrics, the makespan, the ESP
//! and every field of the mitigation cost, with floats rendered as raw bits.
//!
//! Inputs: 40 applications from the paper's load generator (27-qubit cap,
//! half of them mitigated) on each QPU of `Fleet::ibm_default` over three
//! calibration epochs, on a 32-qubit all-to-all trapped-ion device, and on
//! every template QPU of the fleet.

use qonductor::backend::{Fleet, NoiseModel, Qpu, QpuModel};
use qonductor::circuit::Circuit;
use qonductor::cloudsim::{ArrivalConfig, LoadGenerator};
use qonductor::core::digest::Fnv64;
use qonductor::mitigation::MitigationStack;
use qonductor::transpiler::{TranspiledCircuit, Transpiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// `(target, fingerprint)`; `@<epoch>` marks a device's calibration epoch.
const FINGERPRINTS: [(&str, u64); 30] = [
    ("ibm_auckland@0", 0xa380d47399e7a801),
    ("ibm_hanoi@0", 0xa1e8e7a8d6d0967e),
    ("ibm_cairo@0", 0x3ecad1fdeee64786),
    ("ibm_kolkata@0", 0xa32404aba34731df),
    ("ibm_mumbai@0", 0xd0474b629ab1dd44),
    ("ibm_algiers@0", 0xd6057b0760dc5416),
    ("ibm_guadalupe@0", 0xd7c67fd9a828060a),
    ("ibm_lagos@0", 0xbaa1b3e26a0d3a05),
    ("ion_32@0", 0xcda14083f94e3fb7),
    ("ibm_auckland@1", 0xd23588c69eddfb12),
    ("ibm_hanoi@1", 0x0a12e09076444af6),
    ("ibm_cairo@1", 0xfe353ed88ca6e732),
    ("ibm_kolkata@1", 0x89d6478c354206c0),
    ("ibm_mumbai@1", 0x4607ba47a6afd631),
    ("ibm_algiers@1", 0x95d1d6fce7691274),
    ("ibm_guadalupe@1", 0x25ca9f6443013e7c),
    ("ibm_lagos@1", 0x5aa44b464981299e),
    ("ion_32@1", 0x81fce6fd365ae8e8),
    ("ibm_auckland@2", 0x6e3572ee8a2460e1),
    ("ibm_hanoi@2", 0x4c5ffa1b7cdbf668),
    ("ibm_cairo@2", 0x2300e03f8e55ff00),
    ("ibm_kolkata@2", 0x7ff7e9874bc39d82),
    ("ibm_mumbai@2", 0x9ecbecc4d2e687aa),
    ("ibm_algiers@2", 0x26126e045896d0b3),
    ("ibm_guadalupe@2", 0xb04a6c69aadd25d4),
    ("ibm_lagos@2", 0x3b5a4e5102103cc5),
    ("ion_32@2", 0xdff212f027817e0d),
    ("template falcon-r5.11", 0xcf6dfe2b1cc7030d),
    ("template falcon-r4p", 0x1bf118e778c5c32e),
    ("template falcon-r5.11h", 0x2bdb5311c78cd8ce),
];

const APPS: usize = 40;
const EPOCHS: u64 = 3;

/// Canonical rendering of one estimate.
fn render(
    out: &mut String,
    app: usize,
    t: &TranspiledCircuit,
    noise: &NoiseModel,
    stack: &MitigationStack,
) {
    let _ = writeln!(out, "app {app} shots {}", t.circuit.shots());
    for i in t.circuit.instructions() {
        let _ = writeln!(out, "{:?}", i);
    }
    let _ = writeln!(
        out,
        "{:?} {:?} {} {:?}",
        t.initial_layout.mapping(),
        t.final_layout.mapping(),
        t.swaps_inserted,
        t.metrics
    );
    let esp = noise.estimated_success_probability(&t.circuit);
    let cost = stack.cost(&t.circuit, noise);
    let _ = writeln!(
        out,
        "{:x} {:x} {:x} {} {:x} {:x} {:x} {:x} {:x}",
        t.duration_s().to_bits(),
        t.total_execution_s().to_bits(),
        esp.to_bits(),
        cost.circuit_multiplicity,
        cost.quantum_time_factor.to_bits(),
        cost.classical_time_cpu_s.to_bits(),
        cost.accelerator_speedup.to_bits(),
        cost.error_reduction_factor.to_bits(),
        cost.mitigated_fidelity(esp).to_bits()
    );
}

fn fingerprint(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.absorb(s.as_bytes());
    h.value()
}

/// Every estimate of the job mix on one device, as `step_estimates` makes it.
fn device_row(qpu: &Qpu, apps: &[(Circuit, MitigationStack)], transpiler: &Transpiler) -> u64 {
    let mut out = String::new();
    for (app, (circuit, stack)) in apps.iter().enumerate() {
        if qpu.num_qubits() < circuit.num_qubits() {
            continue;
        }
        let noise = qpu.noise_model();
        let t = transpiler.transpile_for_qpu(circuit, qpu);
        render(&mut out, app, &t, &noise, stack);
    }
    fingerprint(&out)
}

fn rows() -> Vec<(String, u64)> {
    let mut load = LoadGenerator::new(ArrivalConfig::default(), 27, 0.5);
    let mut rng = StdRng::seed_from_u64(1313);
    let apps: Vec<(Circuit, MitigationStack)> = (0..APPS)
        .map(|i| {
            let app = load.generate_app(i as f64, &mut rng);
            (app.circuit, app.mitigation)
        })
        .collect();

    let mut fleet_rng = StdRng::seed_from_u64(2026);
    let mut fleet = Fleet::ibm_default(&mut fleet_rng);
    let mut ion = Qpu::new("ion_32", QpuModel::trapped_ion(32), 0.9, &mut fleet_rng);
    let transpiler = Transpiler::default();

    let mut rows = Vec::new();
    let mut drift_rng = StdRng::seed_from_u64(77);
    for epoch in 0..EPOCHS {
        for member in fleet.members() {
            let row = device_row(&member.qpu, &apps, &transpiler);
            rows.push((format!("{}@{epoch}", member.qpu.name), row));
        }
        rows.push((format!("{}@{epoch}", ion.name), device_row(&ion, &apps, &transpiler)));
        let now = 3600.0 * (epoch + 1) as f64;
        for member in fleet.members_mut() {
            member.qpu.recalibrate(now, &mut drift_rng);
        }
        ion.recalibrate(now, &mut drift_rng);
    }

    for template in fleet.template_qpus() {
        let noise = template.noise_model();
        let mut out = String::new();
        for (app, (circuit, stack)) in apps.iter().enumerate() {
            if template.num_qubits() < circuit.num_qubits() {
                continue;
            }
            let t = transpiler.transpile_for_template(circuit, &template);
            render(&mut out, app, &t, &noise, stack);
        }
        rows.push((format!("template {}", template.model.name), fingerprint(&out)));
    }
    rows
}

#[test]
fn per_qpu_estimates_match_the_pinned_fingerprints() {
    let rows = rows();
    assert_eq!(rows.len(), FINGERPRINTS.len());
    let mut moved = Vec::new();
    for ((name, got), (want_name, want)) in rows.iter().zip(FINGERPRINTS.iter()) {
        assert_eq!(name, want_name, "row order changed");
        if got != want {
            moved.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(moved.is_empty(), "estimates moved:\n{}", moved.join("\n"));
}
