//! The repository benchmark of the ALLARM simulator: end-to-end host
//! throughput, set-up time and memory on three workloads, with per-layer
//! attribution from a separate traced run.
//!
//! The benchmark drives the simulator only through the public APIs of the
//! workspace crates. See `README.md` next to this package for the
//! workloads, metrics and how to run it.

pub mod bench;
pub mod components;
pub mod guard;
pub mod stats;
pub mod tracer;
pub mod workloads;
