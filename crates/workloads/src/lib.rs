//! Synthetic SPLASH2/PARSEC-like workloads for the ALLARM evaluation.
//!
//! The paper evaluates ALLARM on eight SPLASH2 and PARSEC benchmarks running
//! on a full-system GEM5 simulation. Neither the benchmark binaries nor a
//! full-system simulator are available here, so this crate substitutes
//! **workload profiles**: for each benchmark, a parametric description of
//! the memory behaviour the paper's analysis actually appeals to —
//!
//! * per-thread private data, split into a *hot* reused set and a *streamed*
//!   set (the source of baseline probe-filter churn);
//! * globally shared data, likewise split into hot and streamed regions;
//! * the fraction of accesses that target shared data (which, combined with
//!   first-touch placement, determines the local/remote request mix of
//!   Fig. 2);
//! * the write fraction and whether shared data is initialised by thread 0
//!   (the producer/consumer pattern that makes `blackscholes` sensitive to
//!   probe-filter capacity in Fig. 3h).
//!
//! [`TraceGenerator`] turns a profile into per-thread memory-access traces
//! that the simulator in `allarm-core` replays; [`multiprocess`] builds the
//! two-copies-of-one-thread setup of the paper's multi-process experiment
//! (Fig. 4).
//!
//! # Examples
//!
//! ```
//! use allarm_workloads::{Benchmark, TraceGenerator};
//!
//! let gen = TraceGenerator::new(16, 2_000, 42);
//! let workload = gen.generate(Benchmark::OceanContiguous);
//! assert_eq!(workload.threads.len(), 16);
//! assert!(workload.threads.iter().all(|t| !t.accesses.is_empty()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod multiprocess;
pub mod profile;
pub mod source;
pub mod spec;
pub mod trace;
pub mod tracefile;

pub use multiprocess::{consolidation_workload, multiprocess_workload};
pub use profile::{Benchmark, BenchmarkProfile};
pub use source::{AccessSource, SourceThread, ThreadFeed};
pub use spec::WorkloadSpec;
pub use trace::{
    fnv1a, ChecksumStream, MemAccess, ThreadTrace, TraceGenerator, Workload, FNV1A_OFFSET,
};
pub use tracefile::{FrameFeed, FrameMeta, TraceFormat, TraceHeader, TraceSource};
