//! The sparse directory ("probe filter") array.
//!
//! Each node's memory controller owns a probe filter: a set-associative
//! array of directory entries, sized to cover a multiple of the node's
//! cache capacity (2x the L2 in the paper's one-core-per-node machine,
//! matching deployed AMD Hammer systems). An entry records the owner of a
//! line and the set of cores that may hold a copy. When a set is full,
//! allocating a new entry evicts a victim, and the eviction must
//! back-invalidate the line from every cache that may hold it — the
//! expensive side effect ALLARM avoids for thread-local data.
//!
//! On machines with several cores per NUMA node the filter is **two-level**
//! ([`ProbeFilter::hierarchical`]): each entry's exact core set is fronted
//! by a node-presence vector ([`PfEntry::node_presence`]), consulted first
//! on every array access so probes and back-invalidations are steered at
//! node granularity. The level-1 vector is a separate, narrower SRAM read,
//! tracked by its own activity counter
//! ([`PfStats::node_vector_accesses`]) so the energy model can charge it
//! independently of the full entry read.

use crate::sharers::{NodeSet, SharerSet};
use allarm_types::addr::LineAddr;
use allarm_types::config::{PfReplacement, ProbeFilterConfig};
use allarm_types::ids::CoreId;
use allarm_types::stats::Counter;

/// One directory entry: the tracked line, its owner, and its sharers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfEntry {
    /// The tracked cache line.
    pub line: LineAddr,
    /// The core considered the owner (the last writer or first requester);
    /// probes for dirty data go here first.
    pub owner: CoreId,
    /// Cores that may hold a copy (always includes the owner).
    pub sharers: SharerSet,
}

impl PfEntry {
    /// Creates an entry owned (and solely shared) by `owner`.
    pub fn new(line: LineAddr, owner: CoreId) -> Self {
        PfEntry {
            line,
            owner,
            sharers: SharerSet::only(owner),
        }
    }

    /// The level-1 (node-granularity) view of this entry's sharers under a
    /// blocked assignment of `cores_per_node` cores per node — the
    /// presence vector a hierarchical directory consults before expanding
    /// to individual cores.
    pub fn node_presence(&self, cores_per_node: u32) -> NodeSet {
        self.sharers.node_set(cores_per_node)
    }
}

/// A victim entry displaced by an allocation.
///
/// The directory controller must back-invalidate `line` from every core in
/// `sharers` (or broadcast, under Hammer-style tracking) before the entry
/// can be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfEviction {
    /// The evicted entry.
    pub entry: PfEntry,
}

/// Probe-filter activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfStats {
    /// Lookups that found an entry.
    pub hits: Counter,
    /// Lookups that found no entry.
    pub misses: Counter,
    /// Entries allocated.
    pub allocations: Counter,
    /// Entries displaced by an allocation (the paper's headline metric).
    pub evictions: Counter,
    /// Entries removed because the last cached copy was evicted from the
    /// owning cache (eviction notifications / writebacks).
    pub deallocations: Counter,
    /// Entry reads+writes, the activity count for the dynamic-energy model.
    pub array_accesses: Counter,
    /// Level-1 node-presence-vector reads of a hierarchical (two-level)
    /// filter, charged separately by the energy model. Always zero on
    /// one-core-per-node topologies, which have no level-1 vector.
    pub node_vector_accesses: Counter,
}

impl PfStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Current hit rate.
    pub fn hit_rate(&self) -> f64 {
        allarm_types::stats::ratio(self.hits.get(), self.lookups())
    }
}

#[derive(Debug, Clone)]
struct Slot {
    entry: PfEntry,
    last_touch: u64,
    valid: bool,
}

/// A set-associative sparse directory.
///
/// Storage is a single flat slab of `num_sets * ways` slots indexed by
/// `set * ways + way`, pre-initialised to invalid slots — one allocation,
/// sequential walks in the directory hot path. Sets never reorder (the
/// old per-set `Vec` only ever pushed or overwrote in place, never
/// removed), so a slot's `valid` flag carries the same information the
/// grow-only `Vec` length did and every position-dependent choice —
/// first-invalid reuse, LRU and random victim selection — is unchanged.
///
/// # Examples
///
/// ```
/// use allarm_coherence::ProbeFilter;
/// use allarm_types::{config::ProbeFilterConfig, ids::CoreId, addr::LineAddr};
///
/// let mut pf = ProbeFilter::new(&ProbeFilterConfig::new(4096, 4));
/// let line = LineAddr::new(42);
/// assert!(pf.lookup(line).is_none());
/// let eviction = pf.allocate(line, CoreId::new(1));
/// assert!(eviction.is_none());
/// assert_eq!(pf.lookup(line).unwrap().owner, CoreId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct ProbeFilter {
    /// `num_sets * ways` slots; invalid slots are free.
    slab: Vec<Slot>,
    num_sets: usize,
    ways: usize,
    replacement: PfReplacement,
    /// Cores per NUMA node; `1` means a flat (single-level) filter, larger
    /// values enable the level-1 node-presence vector.
    cores_per_node: u32,
    tick: u64,
    stats: PfStats,
}

impl ProbeFilter {
    /// Creates a flat (one core per node) probe filter with the geometry of
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets or ways.
    pub fn new(config: &ProbeFilterConfig) -> Self {
        ProbeFilter::hierarchical(config, 1)
    }

    /// Creates a probe filter for a machine with `cores_per_node` cores per
    /// NUMA node. With more than one core per node the filter is two-level:
    /// every array access first reads the entry's node-presence vector
    /// (counted in [`PfStats::node_vector_accesses`]) before the exact
    /// per-core sharer map.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets or ways, or if
    /// `cores_per_node` is zero.
    pub fn hierarchical(config: &ProbeFilterConfig, cores_per_node: u32) -> Self {
        let num_sets = config.num_sets() as usize;
        let ways = config.ways as usize;
        assert!(num_sets > 0, "probe filter must have at least one set");
        assert!(ways > 0, "probe filter must have at least one way");
        assert!(cores_per_node > 0, "a node hosts at least one core");
        let empty = Slot {
            entry: PfEntry::new(LineAddr::new(0), CoreId::new(0)),
            last_touch: 0,
            valid: false,
        };
        ProbeFilter {
            slab: vec![empty; num_sets * ways],
            num_sets,
            ways,
            replacement: config.replacement,
            cores_per_node,
            tick: 0,
            stats: PfStats::default(),
        }
    }

    /// Cores per NUMA node this filter tracks (1 = flat).
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Start of `line`'s set within the slab.
    fn set_base(&self, line: LineAddr) -> usize {
        (line.raw() % self.num_sets as u64) as usize * self.ways
    }

    /// The slab index of `line`'s valid slot, if it has one. Every
    /// operation on one line's entry walks its set here.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        self.slab[base..base + self.ways]
            .iter()
            .position(|s| s.valid && s.entry.line == line)
            .map(|pos| base + pos)
    }

    /// Charges one full array access; on a hierarchical filter the level-1
    /// node vector is read first, charged separately.
    fn touch_array(&mut self) {
        self.stats.array_accesses.incr();
        if self.cores_per_node > 1 {
            self.stats.node_vector_accesses.incr();
        }
    }

    /// Looks up the entry for `line`, updating recency and hit/miss counts.
    pub fn lookup(&mut self, line: LineAddr) -> Option<PfEntry> {
        self.tick += 1;
        self.touch_array();
        match self.find(line) {
            Some(at) => {
                self.slab[at].last_touch = self.tick;
                self.stats.hits.incr();
                Some(self.slab[at].entry.clone())
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Checks for an entry without touching recency or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<PfEntry> {
        self.find(line).map(|at| self.slab[at].entry.clone())
    }

    /// The level-1 view of `line`'s entry, if present: the nodes holding at
    /// least one copy. Statistics-free, like [`ProbeFilter::peek`].
    pub fn node_presence(&self, line: LineAddr) -> Option<NodeSet> {
        self.find(line)
            .map(|at| self.slab[at].entry.node_presence(self.cores_per_node))
    }

    /// Allocates an entry for `line` owned by `owner`, evicting the LRU
    /// entry of a full set.
    ///
    /// Returns the eviction the directory controller must process, if any.
    /// Allocating a line that already has an entry refreshes that entry
    /// instead (owner unchanged, requester added as a sharer by the caller).
    pub fn allocate(&mut self, line: LineAddr, owner: CoreId) -> Option<PfEviction> {
        self.tick += 1;
        let tick = self.tick;
        self.touch_array();
        if let Some(at) = self.find(line) {
            self.slab[at].last_touch = tick;
            return None;
        }

        self.stats.allocations.incr();
        let new_slot = Slot {
            entry: PfEntry::new(line, owner),
            last_touch: tick,
            valid: true,
        };

        // Reuse the first invalid slot if the set has one (a never-used way
        // or a deallocated entry).
        let base = self.set_base(line);
        let ways = self.ways;
        if let Some(slot) = self.slab[base..base + ways].iter_mut().find(|s| !s.valid) {
            *slot = new_slot;
            return None;
        }

        // Set full: evict a victim. The eviction costs an extra array read
        // (victim read-out) plus the write of the replacement, which the
        // energy model charges via `array_accesses`.
        self.touch_array();
        let victim_idx = match self.replacement {
            PfReplacement::Lru => self.slab[base..base + ways]
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.last_touch, *i))
                .map(|(i, _)| i)
                .expect("set is non-empty"),
            PfReplacement::Random => {
                // SplitMix64 hash of the allocation tick: deterministic
                // across runs but uncorrelated with the access pattern.
                let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % ways as u64) as usize
            }
        };
        let victim = std::mem::replace(&mut self.slab[base + victim_idx], new_slot).entry;
        self.stats.evictions.incr();
        Some(PfEviction { entry: victim })
    }

    /// Adds `core` to the sharer set of an existing entry; returns false if
    /// no entry exists.
    pub fn add_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        let Some(at) = self.find(line) else {
            return false;
        };
        self.slab[at].entry.sharers.insert(core);
        true
    }

    /// Replaces the owner (and optionally collapses the sharer set to just
    /// the new owner, as happens after a GetX).
    pub fn set_owner(&mut self, line: LineAddr, owner: CoreId, exclusive: bool) -> bool {
        let Some(at) = self.find(line) else {
            return false;
        };
        let entry = &mut self.slab[at].entry;
        entry.owner = owner;
        if exclusive {
            entry.sharers = SharerSet::only(owner);
        } else {
            entry.sharers.insert(owner);
        }
        true
    }

    /// Removes `core` from the sharer set of `line`'s entry; if the sharer
    /// set becomes empty the entry is deallocated. Returns true if an entry
    /// was deallocated.
    ///
    /// This implements the baseline's eviction-notification optimisation:
    /// when a cache tells the directory it dropped its copy, the directory
    /// can free the entry once no copies remain.
    pub fn remove_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
        let Some(at) = self.find(line) else {
            return false;
        };
        let slot = &mut self.slab[at];
        slot.entry.sharers.remove(core);
        let emptied = slot.entry.sharers.is_empty();
        if emptied {
            slot.valid = false;
        }
        self.touch_array();
        if emptied {
            self.stats.deallocations.incr();
        }
        emptied
    }

    /// Explicitly removes the entry for `line`, if present.
    pub fn deallocate(&mut self, line: LineAddr) -> bool {
        let Some(at) = self.find(line) else {
            return false;
        };
        self.slab[at].valid = false;
        self.stats.deallocations.incr();
        true
    }

    /// Number of valid entries currently resident.
    pub fn occupancy(&self) -> usize {
        self.slab.iter().filter(|s| s.valid).count()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }

    /// Activity statistics.
    pub fn stats(&self) -> &PfStats {
        &self.stats
    }

    /// Exports the complete dynamic state of the filter for checkpointing:
    /// every slab position (the valid/invalid *pattern* is semantic —
    /// first-invalid reuse depends on it), the allocation tick and the
    /// statistics. [`ProbeFilter::restore_state`] of the export onto a
    /// fresh same-geometry filter reproduces it bit-for-bit.
    pub fn export_state(&self) -> ProbeFilterState {
        ProbeFilterState {
            slots: self
                .slab
                .iter()
                .map(|s| {
                    if s.valid {
                        Some(PfSlotState {
                            entry: s.entry.clone(),
                            last_touch: s.last_touch,
                        })
                    } else {
                        None
                    }
                })
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Restores state previously captured with [`ProbeFilter::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the export's slot count does not match this filter's
    /// geometry.
    pub fn restore_state(&mut self, state: &ProbeFilterState) {
        assert_eq!(
            state.slots.len(),
            self.slab.len(),
            "snapshot slot count does not match probe-filter geometry"
        );
        for (slot, restored) in self.slab.iter_mut().zip(&state.slots) {
            match restored {
                Some(s) => {
                    slot.entry = s.entry.clone();
                    slot.last_touch = s.last_touch;
                    slot.valid = true;
                }
                None => {
                    slot.entry = PfEntry::new(LineAddr::new(0), CoreId::new(0));
                    slot.last_touch = 0;
                    slot.valid = false;
                }
            }
        }
        self.tick = state.tick;
        self.stats = state.stats;
    }
}

/// One valid slab slot of a checkpointed [`ProbeFilter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfSlotState {
    /// The directory entry.
    pub entry: PfEntry,
    /// Recency stamp (drives LRU victim choice).
    pub last_touch: u64,
}

/// The complete dynamic state of a [`ProbeFilter`], as captured by
/// [`ProbeFilter::export_state`]. One element per slab position, `None` for
/// invalid slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFilterState {
    /// Every slab position in storage order.
    pub slots: Vec<Option<PfSlotState>>,
    /// The allocation/recency tick.
    pub tick: u64,
    /// Activity statistics at capture time.
    pub stats: PfStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProbeFilter {
        // 2 sets x 2 ways, LRU so victim choices are easy to reason about.
        let mut cfg = ProbeFilterConfig::new(4 * 64, 2);
        cfg.replacement = allarm_types::config::PfReplacement::Lru;
        ProbeFilter::new(&cfg)
    }

    /// A tiny filter with the default (pseudo-random) replacement.
    fn tiny_random() -> ProbeFilter {
        ProbeFilter::new(&ProbeFilterConfig::new(4 * 64, 2))
    }

    #[test]
    fn allocate_then_lookup() {
        let mut pf = tiny();
        let line = LineAddr::new(3);
        assert!(pf.lookup(line).is_none());
        assert!(pf.allocate(line, CoreId::new(2)).is_none());
        let entry = pf.lookup(line).unwrap();
        assert_eq!(entry.owner, CoreId::new(2));
        assert!(entry.sharers.contains(CoreId::new(2)));
        assert_eq!(pf.stats().hits.get(), 1);
        assert_eq!(pf.stats().misses.get(), 1);
        assert_eq!(pf.stats().allocations.get(), 1);
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut pf = tiny();
        // Lines 0, 2, 4 map to set 0.
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(2), CoreId::new(0));
        // Touch line 0 so line 2 is LRU.
        pf.lookup(LineAddr::new(0));
        let evicted = pf.allocate(LineAddr::new(4), CoreId::new(1)).unwrap();
        assert_eq!(evicted.entry.line, LineAddr::new(2));
        assert_eq!(pf.stats().evictions.get(), 1);
        assert!(pf.peek(LineAddr::new(0)).is_some());
        assert!(pf.peek(LineAddr::new(2)).is_none());
    }

    #[test]
    fn reallocating_existing_line_does_not_evict() {
        let mut pf = tiny();
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(2), CoreId::new(0));
        assert!(pf.allocate(LineAddr::new(0), CoreId::new(5)).is_none());
        // Owner is unchanged by a refresh.
        assert_eq!(pf.peek(LineAddr::new(0)).unwrap().owner, CoreId::new(0));
        assert_eq!(pf.stats().allocations.get(), 2);
        assert_eq!(pf.stats().evictions.get(), 0);
    }

    #[test]
    fn sharer_management() {
        let mut pf = tiny();
        let line = LineAddr::new(1);
        pf.allocate(line, CoreId::new(0));
        assert!(pf.add_sharer(line, CoreId::new(3)));
        let entry = pf.peek(line).unwrap();
        assert_eq!(entry.sharers.count(), 2);
        // GetX by core 3: owner changes and sharers collapse.
        assert!(pf.set_owner(line, CoreId::new(3), true));
        let entry = pf.peek(line).unwrap();
        assert_eq!(entry.owner, CoreId::new(3));
        assert_eq!(entry.sharers.count(), 1);
        assert!(!pf.add_sharer(LineAddr::new(999), CoreId::new(0)));
        assert!(!pf.set_owner(LineAddr::new(999), CoreId::new(0), true));
    }

    #[test]
    fn remove_sharer_deallocates_when_last_copy_gone() {
        let mut pf = tiny();
        let line = LineAddr::new(1);
        pf.allocate(line, CoreId::new(0));
        pf.add_sharer(line, CoreId::new(1));
        assert!(!pf.remove_sharer(line, CoreId::new(0)));
        assert!(pf.peek(line).is_some());
        assert!(pf.remove_sharer(line, CoreId::new(1)));
        assert!(pf.peek(line).is_none());
        assert_eq!(pf.stats().deallocations.get(), 1);
        assert_eq!(pf.occupancy(), 0);
    }

    #[test]
    fn deallocated_slot_is_reused_without_eviction() {
        let mut pf = tiny();
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(2), CoreId::new(0));
        assert!(pf.deallocate(LineAddr::new(0)));
        // Set 0 now has a free slot: allocating line 4 must not evict.
        assert!(pf.allocate(LineAddr::new(4), CoreId::new(1)).is_none());
        assert_eq!(pf.stats().evictions.get(), 0);
        assert!(!pf.deallocate(LineAddr::new(0)));
    }

    #[test]
    fn occupancy_and_capacity() {
        let mut pf = tiny();
        assert_eq!(pf.capacity(), 4);
        assert_eq!(pf.occupancy(), 0);
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(1), CoreId::new(0));
        assert_eq!(pf.occupancy(), 2);
        // Over-filling never exceeds capacity.
        for i in 0..32u64 {
            pf.allocate(LineAddr::new(i), CoreId::new(0));
        }
        assert_eq!(pf.occupancy(), 4);
    }

    #[test]
    fn geometry_from_table1_config() {
        let pf = ProbeFilter::new(&ProbeFilterConfig::new(512 * 1024, 8));
        assert_eq!(pf.capacity(), 8192);
    }

    #[test]
    fn hit_rate_reporting() {
        let mut pf = tiny();
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.lookup(LineAddr::new(0));
        pf.lookup(LineAddr::new(1));
        assert_eq!(pf.stats().lookups(), 2);
        assert!((pf.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_replacement_is_deterministic_and_evicts_some_resident_entry() {
        let mut a = tiny_random();
        let mut b = tiny_random();
        for pf in [&mut a, &mut b] {
            pf.allocate(LineAddr::new(0), CoreId::new(0));
            pf.allocate(LineAddr::new(2), CoreId::new(0));
        }
        let va = a.allocate(LineAddr::new(4), CoreId::new(1)).unwrap();
        let vb = b.allocate(LineAddr::new(4), CoreId::new(1)).unwrap();
        assert_eq!(va, vb, "same history must evict the same victim");
        assert!(va.entry.line == LineAddr::new(0) || va.entry.line == LineAddr::new(2));
        assert!(a.peek(LineAddr::new(4)).is_some());
    }

    #[test]
    fn hierarchical_filter_counts_node_vector_reads() {
        // Flat filter: no level-1 vector, no level-1 accesses.
        let mut flat = tiny();
        flat.allocate(LineAddr::new(0), CoreId::new(0));
        flat.lookup(LineAddr::new(0));
        assert_eq!(flat.cores_per_node(), 1);
        assert_eq!(flat.stats().node_vector_accesses.get(), 0);

        // Two-level filter: every array access reads the node vector first.
        let mut cfg = ProbeFilterConfig::new(4 * 64, 2);
        cfg.replacement = allarm_types::config::PfReplacement::Lru;
        let mut hier = ProbeFilter::hierarchical(&cfg, 4);
        hier.allocate(LineAddr::new(0), CoreId::new(0));
        hier.lookup(LineAddr::new(0));
        assert_eq!(hier.cores_per_node(), 4);
        assert_eq!(
            hier.stats().node_vector_accesses.get(),
            hier.stats().array_accesses.get()
        );
    }

    #[test]
    fn node_presence_projects_sharers_onto_nodes() {
        let mut pf = ProbeFilter::hierarchical(&ProbeFilterConfig::new(4096, 4), 2);
        let line = LineAddr::new(9);
        assert!(pf.node_presence(line).is_none());
        pf.allocate(line, CoreId::new(0));
        pf.add_sharer(line, CoreId::new(1)); // same node as core 0
        pf.add_sharer(line, CoreId::new(5)); // node 2
        let nodes = pf.node_presence(line).unwrap();
        assert_eq!(nodes.count(), 2);
        assert!(nodes.contains(allarm_types::ids::NodeId::new(0)));
        assert!(nodes.contains(allarm_types::ids::NodeId::new(2)));
        // The exact core set is still tracked underneath.
        assert_eq!(pf.peek(line).unwrap().sharers.count(), 3);
    }

    #[test]
    fn peek_does_not_affect_stats() {
        let mut pf = tiny();
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        let before = *pf.stats();
        pf.peek(LineAddr::new(0));
        pf.peek(LineAddr::new(5));
        assert_eq!(*pf.stats(), before);
    }

    /// The grow-only nested-`Vec` storage the flat slab replaced, kept as
    /// an executable specification: a set was a `Vec<Slot>` that only ever
    /// pushed or overwrote in place, so a pre-initialised invalid slab
    /// must reproduce it operation for operation.
    struct NestedModel {
        sets: Vec<Vec<Slot>>,
        ways: usize,
        replacement: PfReplacement,
        cores_per_node: u32,
        tick: u64,
        stats: PfStats,
    }

    impl NestedModel {
        fn new(num_sets: usize, ways: usize, replacement: PfReplacement, cpn: u32) -> Self {
            NestedModel {
                sets: vec![Vec::new(); num_sets],
                ways,
                replacement,
                cores_per_node: cpn,
                tick: 0,
                stats: PfStats::default(),
            }
        }

        fn set_index(&self, line: LineAddr) -> usize {
            (line.raw() % self.sets.len() as u64) as usize
        }

        fn touch_array(&mut self) {
            self.stats.array_accesses.incr();
            if self.cores_per_node > 1 {
                self.stats.node_vector_accesses.incr();
            }
        }

        fn find_mut(&mut self, line: LineAddr) -> Option<&mut Slot> {
            let set = self.set_index(line);
            self.sets[set]
                .iter_mut()
                .find(|s| s.valid && s.entry.line == line)
        }

        fn lookup(&mut self, line: LineAddr) -> Option<PfEntry> {
            self.tick += 1;
            let tick = self.tick;
            self.touch_array();
            let hit = self.find_mut(line).map(|slot| {
                slot.last_touch = tick;
                slot.entry.clone()
            });
            match hit {
                Some(entry) => {
                    self.stats.hits.incr();
                    Some(entry)
                }
                None => {
                    self.stats.misses.incr();
                    None
                }
            }
        }

        fn allocate(&mut self, line: LineAddr, owner: CoreId) -> Option<PfEviction> {
            self.tick += 1;
            let tick = self.tick;
            self.touch_array();
            if let Some(slot) = self.find_mut(line) {
                slot.last_touch = tick;
                return None;
            }
            self.stats.allocations.incr();
            let new_slot = Slot {
                entry: PfEntry::new(line, owner),
                last_touch: tick,
                valid: true,
            };
            let set = self.set_index(line);
            if let Some(slot) = self.sets[set].iter_mut().find(|s| !s.valid) {
                *slot = new_slot;
                return None;
            }
            if self.sets[set].len() < self.ways {
                self.sets[set].push(new_slot);
                return None;
            }
            self.touch_array();
            let victim_idx = match self.replacement {
                PfReplacement::Lru => self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, s)| (s.last_touch, *i))
                    .map(|(i, _)| i)
                    .expect("set is non-empty"),
                PfReplacement::Random => {
                    let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((z ^ (z >> 31)) % self.sets[set].len() as u64) as usize
                }
            };
            let victim = std::mem::replace(&mut self.sets[set][victim_idx], new_slot).entry;
            self.stats.evictions.incr();
            Some(PfEviction { entry: victim })
        }

        fn add_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
            if let Some(slot) = self.find_mut(line) {
                slot.entry.sharers.insert(core);
                true
            } else {
                false
            }
        }

        fn set_owner(&mut self, line: LineAddr, owner: CoreId, exclusive: bool) -> bool {
            if let Some(slot) = self.find_mut(line) {
                slot.entry.owner = owner;
                if exclusive {
                    slot.entry.sharers = SharerSet::only(owner);
                } else {
                    slot.entry.sharers.insert(owner);
                }
                true
            } else {
                false
            }
        }

        fn remove_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
            let mut emptied_opt = None;
            if let Some(slot) = self.find_mut(line) {
                slot.entry.sharers.remove(core);
                let emptied = slot.entry.sharers.is_empty();
                if emptied {
                    slot.valid = false;
                }
                emptied_opt = Some(emptied);
            }
            if let Some(emptied) = emptied_opt {
                self.touch_array();
                if emptied {
                    self.stats.deallocations.incr();
                    return true;
                }
            }
            false
        }

        fn deallocate(&mut self, line: LineAddr) -> bool {
            if let Some(slot) = self.find_mut(line) {
                slot.valid = false;
                self.stats.deallocations.incr();
                true
            } else {
                false
            }
        }

        fn occupancy(&self) -> usize {
            self.sets
                .iter()
                .flat_map(|s| s.iter())
                .filter(|s| s.valid)
                .count()
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives the flat-slab filter and the grow-only nested-`Vec`
    /// reference through the same seeded operation stream and demands
    /// identical return values, stats and occupancy — covering the
    /// position-dependent pieces (first-invalid reuse, LRU and random
    /// victim selection) across both replacement policies and both the
    /// flat and hierarchical sharer-tracking modes.
    #[test]
    fn flat_slab_matches_nested_vec_reference_model() {
        for replacement in [PfReplacement::Lru, PfReplacement::Random] {
            for cores_per_node in [1u32, 4] {
                for seed in 1..=3u64 {
                    let mut cfg = ProbeFilterConfig::new(16 * 64, 4);
                    cfg.replacement = replacement;
                    let mut flat = ProbeFilter::hierarchical(&cfg, cores_per_node);
                    let mut model =
                        NestedModel::new(flat.num_sets, flat.ways, replacement, cores_per_node);
                    let mut rng = seed;
                    for _ in 0..5_000 {
                        let r = splitmix64(&mut rng);
                        let line = LineAddr::new(r % 64); // 4x conflict pressure
                        let core = CoreId::new(((r >> 8) % 8) as u16);
                        match (r >> 16) % 6 {
                            0 => assert_eq!(flat.lookup(line), model.lookup(line)),
                            1 | 2 => {
                                assert_eq!(flat.allocate(line, core), model.allocate(line, core));
                            }
                            3 => assert_eq!(
                                flat.add_sharer(line, core),
                                model.add_sharer(line, core)
                            ),
                            4 => {
                                let exclusive = (r >> 32) & 1 == 1;
                                assert_eq!(
                                    flat.set_owner(line, core, exclusive),
                                    model.set_owner(line, core, exclusive)
                                );
                            }
                            _ => assert_eq!(
                                flat.remove_sharer(line, core),
                                model.remove_sharer(line, core)
                            ),
                        }
                        if r.is_multiple_of(97) {
                            assert_eq!(flat.deallocate(line), model.deallocate(line));
                        }
                    }
                    assert_eq!(
                        *flat.stats(),
                        model.stats,
                        "{replacement:?} cpn {cores_per_node} seed {seed}"
                    );
                    assert_eq!(flat.occupancy(), model.occupancy());
                    for addr in 0..64u64 {
                        assert_eq!(
                            flat.peek(LineAddr::new(addr)),
                            model
                                .sets
                                .iter()
                                .flat_map(|s| s.iter())
                                .find(|s| s.valid && s.entry.line == LineAddr::new(addr))
                                .map(|s| s.entry.clone())
                        );
                    }
                }
            }
        }
    }
}
