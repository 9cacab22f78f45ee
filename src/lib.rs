//! # Qonductor
//!
//! A Rust reproduction of *"Qonductor: A Cloud Orchestrator for Quantum
//! Computing"* (SC '25). This facade crate re-exports the workspace crates
//! under a single namespace so that examples, integration tests, and
//! downstream users can depend on one crate.
//!
//! * [`circuit`] — circuit IR, DAG, metrics, algorithm generators, workloads.
//! * [`backend`] — QPU models, calibration, noise, noisy simulator, queues, fleets.
//! * [`transpiler`] — basis decomposition, layout/routing, scheduling.
//! * [`mitigation`] — ZNE, REM, DD, Pauli twirling, PEC, circuit knitting.
//! * [`estimator`] — regression + numerical fidelity/runtime estimation, resource plans.
//! * [`scheduler`] — NSGA-II multi-objective scheduler, MCDM selection, baselines.
//! * [`consensus`] — replicated KV store and log, in-store leader election.
//! * [`cloudsim`] — discrete-event cloud simulation, load generator, metrics.
//! * [`core`] — the Qonductor API, workflow manager/registry, job manager, control plane.

pub use qonductor_backend as backend;
pub use qonductor_circuit as circuit;
pub use qonductor_cloudsim as cloudsim;
pub use qonductor_consensus as consensus;
pub use qonductor_core as core;
pub use qonductor_estimator as estimator;
pub use qonductor_mitigation as mitigation;
pub use qonductor_scheduler as scheduler;
pub use qonductor_transpiler as transpiler;
