//! # qonductor-core
//!
//! The Qonductor control plane and data plane (§4, §5): the hardware-agnostic
//! user API of Table 2 (`create_workflow`, `deploy`, `invoke`,
//! `workflow_results`, image listing, resource estimation, scheduling), the
//! workflow manager (hybrid DAGs of classical and quantum steps), the workflow
//! registry (hybrid workflow images), deployment configuration (Listing 1
//! analogue), the replicated system monitor, the consensus-backed replication
//! of the job state (every `JobManager`/`SubmissionService` transition is
//! journaled through [`replication::ReplicatedControlPlane`], so a
//! control-plane failover loses no pending jobs), and the orchestrator that
//! wires the resource estimator, hybrid scheduler, QPU fleet, and classical
//! nodes into an end-to-end execution engine.

#![warn(missing_docs)]

pub mod autoscaler;
pub mod config;
pub mod digest;
pub mod federation;
pub mod fleetlease;
pub mod jobmanager;
pub mod monitor;
pub mod orchestrator;
pub mod registry;
pub mod replication;
pub mod sharding;
pub mod submission;
pub mod workflow;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScalingDecision, ScalingStrategy};
pub use config::{DeploymentConfig, Priority, ResourceLimits};
pub use federation::{
    CostOptimized, FederatedFleet, LeastLoaded, PlacementStrategy, Provider, ProviderCapacity,
    QuantumAware,
};
pub use fleetlease::{FleetAllocator, LeaseConflict, LeaseError, ProviderSpan, ReleaseError};
pub use jobmanager::{
    BatchRecord, CalibrationPolicy, CompletedExecution, JobId, JobManager, JobSpec, PendingJob,
    TenantId, DEFAULT_TENANT,
};
pub use monitor::{
    BatchObservation, ReestimationObservation, SplitObservation, SystemMonitor, WorkflowStatus,
};
pub use orchestrator::{
    ClassicalStepResult, Orchestrator, OrchestratorError, QuantumStepResult, RunId, WorkflowResult,
};
pub use registry::{HybridWorkflowImage, ImageId, WorkflowRegistry};
pub use replication::{
    ControlPlaneEvent, DispatchOutcome, FailoverError, ReplicatedControlPlane, ReplicationError,
};
pub use sharding::{shard_of_global, GlobalTicket, ShardedControlPlane};
pub use submission::{
    JobTicket, RejectReason, SloClass, SubmissionError, SubmissionService, TenantConfig,
    TenantStats, TicketId, TicketStatus,
};
pub use workflow::{
    mitigated_execution_workflow, ClassicalKind, ClassicalStep, QuantumStep, Step, Workflow,
};
