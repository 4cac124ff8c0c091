//! Deterministic simulation substrate.
//!
//! Two pieces the standard library does not provide directly:
//!
//! * a **sharding layer** ([`ShardPlan`], [`MergeKey`], [`merge_events`],
//!   [`PhaseBarrier`]) that partitions the machine's cores by node and
//!   defines the deterministic `(time, actor, seq)` order in which
//!   cross-shard events are merged at epoch barriers — what lets the kernel in
//!   `allarm-core` make an N-shard run byte-identical to a serial one; and
//! * **seeded random-number streams** ([`rng::StreamRng`]): independent,
//!   reproducible, named sub-streams of one seed. The randomized tests draw
//!   their cases from them; the simulator itself does not (see the
//!   [`rng`] module docs).
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
pub mod shard;

pub use rng::StreamRng;
pub use shard::{
    merge_events, sort_by_unique_key, BarrierAborted, Keyed, MergeKey, PhaseBarrier, ShardPlan,
};
