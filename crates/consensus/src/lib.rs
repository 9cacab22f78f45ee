//! # qonductor-consensus
//!
//! Fault-tolerance substrate for the Qonductor control plane and system
//! monitor (§4): a majority-quorum replicated key-value store that persists
//! the complete system state (worker resources, QPU calibration, job queues,
//! workflow status, and results), a typed append-only replicated log with
//! snapshot compaction — the journaling substrate of the control plane — and
//! leader election in the store itself ([`lease::StoreElection`]): the leader
//! lease is a CAS'd key in the same quorum KV that holds the journal, so the
//! election and the data share one fault domain (no split-brain window
//! between an election cluster and the data replicas).

#![warn(missing_docs)]

pub mod kvstore;
pub mod lease;
pub mod log;

pub use kvstore::{ReplicatedKvStore, StoreError};
pub use lease::StoreElection;
pub use log::{LogEntry, ReplicatedLog};
