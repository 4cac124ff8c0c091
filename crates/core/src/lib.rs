//! Full-system NUMA coherence simulator and experiment runner for the
//! ALLARM (DATE 2014) reproduction.
//!
//! This crate assembles the substrates — NUMA memory ([`allarm_mem`]),
//! private cache hierarchies ([`allarm_cache`]), the mesh network
//! ([`allarm_noc`]), the sparse-directory controllers with the baseline and
//! ALLARM allocation policies ([`allarm_coherence`]) and the energy model
//! ([`allarm_energy`]) — into a trace-driven simulator of the sixteen-node
//! machine of Table I, and runs the scenario grids behind every figure of
//! the paper's evaluation.
//!
//! # Quick start
//!
//! The public API is organised around declarative **scenarios**: a
//! [`Scenario`] is a serializable value (TOML/JSON) describing one run —
//! machine, allocation policy, NUMA policy, workload, seed — and a
//! [`ScenarioGrid`] adds sweep axes. The [`BatchRunner`] executes a
//! scenario set across OS threads with results delivered in deterministic
//! order.
//!
//! ```
//! use allarm_core::{AllocationPolicy, BatchRunner, Scenario, ScenarioGrid};
//! use allarm_workloads::Benchmark;
//!
//! // One benchmark under both policies, in parallel.
//! let grid = ScenarioGrid::new(
//!         Scenario::quick_test(Benchmark::OceanContiguous, AllocationPolicy::Baseline)
//!             .with_accesses(1_000))
//!     .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm]);
//! let results = BatchRunner::new().run(&grid.expand()).unwrap();
//! let comparison = &results.paired()[0];
//! // ALLARM never increases the number of probe-filter evictions.
//! assert!(comparison.normalized_evictions() <= 1.0);
//! ```
//!
//! The layers of the public API, from lowest to highest:
//!
//! * [`SimulationBuilder`] — validate a machine/policy combination and get
//!   a [`Simulator`] that replays one [`allarm_workloads::Workload`] into a
//!   [`SimReport`] of every metric;
//! * [`Scenario`] — the declarative, serializable form of one run;
//! * [`ScenarioGrid`] + [`BatchRunner`] — sweep expansion and parallel
//!   execution, feeding [`ResultSink`]s in scenario order.
//!
//! The paper's figures are [`ScenarioGrid`]s too, defined only by the
//! documents checked in under `scenarios/` (loaded with
//! [`load_scenario_doc`], shortened with [`doc::override_accesses`]):
//! `scenario_run` writes their reports as JSONL and the `figures` binary
//! renders every table from it with the [`report`] helpers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod builder;
pub mod doc;
pub mod jobs;
pub mod metrics;
pub mod report;
pub mod scenario;
mod sharded;
pub mod simulator;
pub mod snapshot;
mod system;

pub use batch::{
    verify_resume_rows, BatchEntry, BatchResults, BatchRunner, CsvFileSink, JsonlFileSink,
    JsonlSink, RecordedRow, ResultSink, ResumeScan, RunOutcome, VecSink,
};
pub use builder::SimulationBuilder;
pub use doc::{load_scenario_doc, parse_scenario_doc, ScenarioDoc};
pub use jobs::{
    JobId, JobScheduler, JobState, JobStatus, RowsChunk, SchedulerConfig, SchedulerMetrics,
    SubmitError,
};
pub use metrics::{Comparison, SimReport};
pub use scenario::{Scenario, ScenarioGrid, SimThreads};
pub use simulator::Simulator;
pub use snapshot::{SimSnapshot, SnapError, SnapHeader, SNAP_VERSION};

// Re-export the vocabulary types callers need to drive the API without
// importing every substrate crate.
pub use allarm_coherence::AllocationPolicy;
pub use allarm_mem::NumaPolicy;
pub use allarm_types::config::MachineConfig;
pub use allarm_types::error::ConfigError;
pub use allarm_workloads::{Benchmark, TraceFormat, Workload, WorkloadSpec};
