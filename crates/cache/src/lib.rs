//! Set-associative cache models for the ALLARM simulator.
//!
//! Each simulated core owns a small private cache hierarchy — split L1
//! instruction/data caches and a private, exclusive L2 — exactly as in
//! Table I of the paper. This crate provides:
//!
//! * [`CoherenceState`] — MOESI line states shared with the directory model;
//! * [`SetAssocCache`] — a generic set-associative array with pluggable
//!   replacement ([`ReplacementPolicy`]), backing the private data caches
//!   and the shared LLC slices ([`LlcSlice`]);
//! * [`CoreCaches`] — the per-core L1D + exclusive L2 hierarchy with the
//!   fill/eviction/invalidation operations the directory controller needs.
//!
//! # Examples
//!
//! ```
//! use allarm_cache::{CoreCaches, CoherenceState, AccessOutcome};
//! use allarm_types::{config::MachineConfig, addr::LineAddr};
//!
//! let cfg = MachineConfig::small_test();
//! let mut caches = CoreCaches::new(&cfg.l1d, &cfg.l2);
//! let line = LineAddr::new(0x40);
//!
//! // First access misses everywhere and must go to the directory.
//! assert_eq!(caches.access(line, false), AccessOutcome::Miss);
//! // After the fill, the line hits in L1.
//! caches.fill(line, CoherenceState::Exclusive);
//! assert_eq!(caches.access(line, false), AccessOutcome::L1Hit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hierarchy;
pub mod llc;
pub mod replacement;
pub mod set_assoc;
pub mod state;
pub mod stats;

pub use hierarchy::{AccessOutcome, CoherenceNeed, CoreCaches, CoreCachesState, ProbeOutcome};
pub use llc::LlcSlice;
pub use replacement::ReplacementPolicy;
pub use set_assoc::{EvictedLine, SetAssocCache, SetAssocState, WayState};
pub use state::CoherenceState;
pub use stats::CacheStats;
