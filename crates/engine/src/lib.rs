//! Deterministic discrete-event simulation kernel.
//!
//! The ALLARM evaluation does not need a full parallel-discrete-event engine,
//! but it does need three things the standard library does not provide
//! directly:
//!
//! * a **multi-actor clock** ([`CoreScheduler`]) that repeatedly selects the
//!   actor (core) with the smallest local time — backed by a lazy min-heap,
//!   so selection is `O(log n)` on large machines — which is how the
//!   trace-driven simulator in `allarm-core` interleaves cores;
//! * a **sharding layer** ([`ShardPlan`], [`MergeKey`], [`merge_events`])
//!   that partitions the machine by home node and defines the deterministic
//!   `(time, actor, seq)` order in which cross-shard events are merged at
//!   epoch barriers, making an N-shard run byte-identical to a serial one;
//!   and
//! * a **seeded random-number layer** ([`rng::StreamRng`]) that hands
//!   independent, reproducible streams to each component.
//!
//! # Examples
//!
//! ```
//! use allarm_engine::{merge_events, Keyed, MergeKey};
//! use allarm_types::Nanos;
//!
//! // Two shards' events for one round: equal times break ties by actor.
//! let shard0 = vec![Keyed::new(MergeKey::new(Nanos::new(5), 1, 0), "c")];
//! let shard1 = vec![
//!     Keyed::new(MergeKey::new(Nanos::new(1), 3, 0), "a"),
//!     Keyed::new(MergeKey::new(Nanos::new(5), 0, 0), "b"),
//! ];
//! let order: Vec<&str> = merge_events([shard0, shard1])
//!     .into_iter()
//!     .map(|e| e.payload)
//!     .collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
pub mod scheduler;
pub mod shard;

pub use rng::StreamRng;
pub use scheduler::CoreScheduler;
pub use shard::{merge_events, Keyed, MergeKey, PhaseBarrier, ShardPlan};
