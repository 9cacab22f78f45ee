//! # qonductor-cloudsim
//!
//! Quantum-cloud simulation environment replicating the paper's evaluation
//! methodology (§8.2): a diurnal Poisson load generator calibrated to the
//! measured IBM Quantum arrival rates (1100–2050 jobs/hour, mean 1500),
//! synthetic hybrid applications (benchmark circuits + optional error
//! mitigation), closed-form per-QPU fidelity/runtime estimates, and one
//! discrete-time event loop ([`sim::run`]) that drives a
//! [`Scenario`] — fleet, tenants, pre-generated arrivals, placement policy —
//! through the sharded control plane the orchestrator serves jobs with,
//! collecting the end-to-end metrics of §8.1 in one [`Report`]. The
//! `multitenant`, `sharded`, `drift`, `federation`, and `slo` modules build
//! the evaluation's scenarios.

#![warn(missing_docs)]

pub mod drift;
pub mod estimates;
pub mod failover;
pub mod federation;
pub mod load;
pub mod multitenant;
pub mod sharded;
pub mod sim;
pub mod slo;

pub use drift::{
    run_drift_comparison, run_penalty_comparison, DriftComparison, DriftConfig, PenaltyComparison,
};
pub use estimates::{estimate, FastEstimate};
pub use failover::{Crash, FailurePlan};
pub use federation::{
    federated_heterogeneous, run_federation_comparison, FederationComparison, FederationConfig,
    PlacementArm,
};
pub use load::{
    ArrivalConfig, HybridApplication, LoadGenerator, MultiTenantLoadGenerator, StreamArrival,
    TenantArrivalConfig,
};
pub use sim::{
    default_fleet, run, Batch, Completion, CycleRecord, Placement, Report, Scenario, Tenant,
    TenantOutcome, TimePoint,
};
pub use slo::{run_slo_comparison, SloComparison, SloConfig};
