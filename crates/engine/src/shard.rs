//! Sharding and deterministic cross-shard event merging.
//!
//! The parallel simulation kernel partitions the machine by home node: each
//! *shard* owns a contiguous block of nodes — their directory slices, DRAM
//! channels, and the cores pinned to those nodes — and runs on its own OS
//! thread. Shards interact only at epoch barriers, by exchanging timestamped
//! events (coherence requests, eviction notices, page faults). For the
//! parallel run to be byte-identical to the serial one, every consumer must
//! process its incoming events in an order that does not depend on how many
//! shards produced them; [`MergeKey`] defines that order — `(timestamp,
//! source actor, per-actor sequence number)` — and [`merge_events`] applies
//! it to [`Keyed`] event batches (consumers with richer event types, like
//! the coherence `DirectoryShard`, sort by the same key themselves).
//!
//! The key is a *total* order as long as each source actor stamps its events
//! with a monotonically increasing sequence number: two events from the same
//! actor differ in `seq`, and events from different actors differ in
//! `actor`. Sorting is therefore deterministic regardless of arrival order,
//! which is exactly the property the epoch-barrier scheme needs.

use allarm_types::Nanos;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The deterministic ordering key of one cross-shard event.
///
/// Ordered by `(time, actor, seq)`: earliest simulated time first, ties
/// broken by the issuing actor's index, then by the actor's own event
/// sequence number. With per-actor monotone sequence numbers this is a
/// total order over all events of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MergeKey {
    /// Simulated time the event was issued.
    pub time: Nanos,
    /// Index of the issuing actor (core), the second tie-breaker.
    pub actor: u32,
    /// The issuing actor's monotone event counter, the final tie-breaker.
    pub seq: u32,
}

impl MergeKey {
    /// Creates a key.
    pub fn new(time: Nanos, actor: u32, seq: u32) -> Self {
        MergeKey { time, actor, seq }
    }
}

/// An event tagged with its deterministic ordering key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keyed<T> {
    /// The ordering key.
    pub key: MergeKey,
    /// The event payload.
    pub payload: T,
}

impl<T> Keyed<T> {
    /// Creates a keyed event.
    pub fn new(key: MergeKey, payload: T) -> Self {
        Keyed { key, payload }
    }
}

/// Merges per-shard event batches into a single deterministically ordered
/// stream (ascending [`MergeKey`]).
///
/// The result is independent of how the events were distributed across the
/// input batches and of the order of the batches themselves — the property
/// that makes an N-shard run produce the same event order as a 1-shard run.
pub fn merge_events<T>(batches: impl IntoIterator<Item = Vec<Keyed<T>>>) -> Vec<Keyed<T>> {
    let mut merged: Vec<Keyed<T>> = batches.into_iter().flatten().collect();
    sort_by_unique_key(&mut merged, |e| e.key);
    merged
}

/// Sorts `items` ascending by `key`, which must be unique per item — as
/// every [`MergeKey`] of a run is, since it carries its actor and that
/// actor's sequence number. With unique keys an unstable sort produces
/// the one order a stable sort would, without the stable sort's
/// allocated merge buffer; debug builds check the uniqueness.
pub fn sort_by_unique_key<T, K: Ord>(items: &mut [T], mut key: impl FnMut(&T) -> K) {
    items.sort_unstable_by_key(&mut key);
    debug_assert!(
        items.windows(2).all(|pair| key(&pair[0]) < key(&pair[1])),
        "sort keys must be unique"
    );
}

/// The static assignment of nodes (and their pinned cores) to shards.
///
/// Nodes are split into `num_shards` contiguous blocks of (almost) equal
/// size. The plan is pure data over *nodes*: a node moves to a shard with
/// everything it hosts — its directory slice, DRAM channel, and **all** of
/// its cores. With one core per affinity domain (the paper's machine) the
/// node partition is also the core partition; on multi-core-node
/// topologies a node's whole core block stays together, which is what
/// keeps the sharded kernel's determinism argument intact.
///
/// # Examples
///
/// ```
/// use allarm_engine::ShardPlan;
///
/// let plan = ShardPlan::new(16, 4);
/// assert_eq!(plan.num_shards(), 4);
/// assert_eq!(plan.shard_of_node(0), 0);
/// assert_eq!(plan.shard_of_node(15), 3);
/// assert_eq!(plan.nodes_of_shard(1), 4..8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    num_nodes: usize,
    /// Half-open node ranges, one per shard, covering `0..num_nodes`.
    bounds: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partitions `num_nodes` nodes into at most `num_shards` contiguous
    /// blocks. The shard count is clamped to `1..=num_nodes`, so a plan
    /// always has at least one shard and no empty shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize, num_shards: usize) -> Self {
        assert!(num_nodes > 0, "cannot shard a machine with no nodes");
        let shards = num_shards.clamp(1, num_nodes);
        let base = num_nodes / shards;
        let extra = num_nodes % shards;
        let mut bounds = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            bounds.push((start, start + len));
            start += len;
        }
        ShardPlan { num_nodes, bounds }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.bounds.len()
    }

    /// Number of nodes across all shards.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The shard that owns `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn shard_of_node(&self, node: usize) -> usize {
        assert!(node < self.num_nodes, "node {node} out of range");
        self.bounds
            .iter()
            .position(|&(start, end)| node >= start && node < end)
            .expect("bounds cover every node")
    }

    /// The half-open range of nodes owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn nodes_of_shard(&self, shard: usize) -> std::ops::Range<usize> {
        let (start, end) = self.bounds[shard];
        start..end
    }
}

/// A sense-reversing phase barrier tuned for simulation rounds.
///
/// The epoch scheme crosses a barrier twice per round, and rounds can be
/// microseconds long, so barrier latency is on the kernel's critical path.
/// `std::sync::Barrier` parks threads in the kernel (a futex sleep/wake per
/// crossing), which is ruinous both when rounds are short and when shards
/// outnumber hardware threads. This barrier spins briefly — the fast path
/// when every shard has its own core — and then falls back to
/// [`std::thread::yield_now`], which degrades gracefully into cooperative
/// scheduling on oversubscribed hosts.
///
/// # Examples
///
/// ```
/// use allarm_engine::PhaseBarrier;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let barrier = PhaseBarrier::new(4);
/// let counter = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             counter.fetch_add(1, Ordering::Relaxed);
///             barrier.wait();
///             // Every increment happened before any thread proceeds.
///             assert_eq!(counter.load(Ordering::Relaxed), 4);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct PhaseBarrier {
    participants: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl PhaseBarrier {
    /// Iterations of busy-spinning before falling back to yielding.
    const SPINS: u32 = 128;

    /// Creates a barrier for `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "a barrier needs at least one participant");
        PhaseBarrier {
            participants,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Number of threads that must arrive before any proceeds.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Blocks until all participants have arrived. Reusable: the next
    /// `wait` starts a new generation.
    pub fn wait(&self) {
        if self.participants == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            // Last arriver: reset the count, then release the generation.
            // The release ordering publishes the reset (and everything the
            // arrivers did this phase) before anyone crosses.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins < Self::SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_node_exactly_once() {
        for (nodes, shards) in [(16, 4), (16, 3), (5, 2), (7, 16), (1, 1), (64, 5)] {
            let plan = ShardPlan::new(nodes, shards);
            let mut seen = vec![0usize; nodes];
            for s in 0..plan.num_shards() {
                for n in plan.nodes_of_shard(s) {
                    seen[n] += 1;
                    assert_eq!(plan.shard_of_node(n), s);
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{nodes}/{shards}: {seen:?}");
            assert!(plan.num_shards() <= nodes.max(1));
            assert!(plan.num_shards() >= 1);
        }
    }

    #[test]
    fn phase_barrier_synchronizes_many_generations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let threads = 4;
        let rounds = 500;
        let barrier = PhaseBarrier::new(threads);
        assert_eq!(barrier.participants(), threads);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // All increments of this round are visible to all.
                        assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * threads);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), threads * rounds);
    }

    #[test]
    fn single_participant_barrier_is_free() {
        let barrier = PhaseBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardPlan::new(4, 0).num_shards(), 1);
        assert_eq!(ShardPlan::new(4, 99).num_shards(), 4);
    }

    #[test]
    fn keys_order_by_time_then_actor_then_seq() {
        let a = MergeKey::new(Nanos::new(5), 1, 9);
        let b = MergeKey::new(Nanos::new(6), 0, 0);
        let c = MergeKey::new(Nanos::new(5), 2, 0);
        let d = MergeKey::new(Nanos::new(5), 1, 10);
        assert!(a < b);
        assert!(a < c);
        assert!(a < d);
        assert!(d < c);
    }

    /// The determinism property the epoch scheme rests on: however events
    /// are distributed across shards, the merged order is identical.
    #[test]
    fn merge_order_is_independent_of_sharding() {
        // A pool of events from 8 actors with colliding timestamps.
        let mut pool = Vec::new();
        let mut state = 77u64;
        for actor in 0..8u32 {
            for seq in 0..50u32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
                let time = Nanos::new(state % 16); // force many time ties
                pool.push(Keyed::new(MergeKey::new(time, actor, seq), (actor, seq)));
            }
        }

        // Partition the pool as 1, 2, 4 and 8 "shards" (by actor), in
        // scrambled batch orders, and check every merge agrees.
        let reference = merge_events([pool.clone()]);
        for shards in [2usize, 4, 8] {
            let mut batches: Vec<Vec<Keyed<(u32, u32)>>> = vec![Vec::new(); shards];
            for e in &pool {
                batches[e.key.actor as usize % shards].push(e.clone());
            }
            batches.reverse(); // batch order must not matter
            let merged = merge_events(batches);
            assert_eq!(merged, reference, "{shards} shards diverged");
        }

        // The reference itself is sorted by key, and keys are unique.
        for pair in reference.windows(2) {
            assert!(pair[0].key < pair[1].key);
        }
    }
}
