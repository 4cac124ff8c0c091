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
//! by a node-presence vector, read first on every array access. That
//! level-1 vector is not stored: it is a separate, narrower SRAM read,
//! charged by its own activity counter ([`PfStats::node_vector_accesses`])
//! so the energy model can price it apart from the full entry read, and
//! the directory steers probes and back-invalidations at node granularity
//! by grouping an entry's cores per node.
//!
//! Every entry, sharer bits included, lives in one flat slab of machine
//! words (see [`ProbeFilter`]). A lookup walks the line's set once and
//! hands out the entry's [`PfSlot`]; the directory reads the entry in place
//! through it ([`PfEntryView`]) and updates it without walking the set
//! again, and none of this touches the host heap.

use crate::sharers::{SharerSet, SharerView, WORD_BITS};
use allarm_types::addr::{LineAddr, LINE_BYTES};
use allarm_types::config::{PfReplacement, ProbeFilterConfig};
use allarm_types::ids::CoreId;
use allarm_types::stats::Counter;
use allarm_types::topology::Topology;

/// One directory entry, owned: the tracked line, its owner, and its
/// sharers. The form checkpoints carry; the filter itself stores entries
/// in its slab and lends them out as [`PfEntryView`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PfEntry {
    /// The tracked cache line.
    pub line: LineAddr,
    /// The core considered the owner (the last writer or first requester);
    /// probes for dirty data go here first.
    pub owner: CoreId,
    /// Cores that may hold a copy. Never empty, but it need not include
    /// the owner: when the owner drops its copy while other copies remain,
    /// the owner's bit is cleared and the owner field is kept.
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
}

/// Where one entry sits in a [`ProbeFilter`]'s slab, as
/// [`ProbeFilter::lookup`] and [`ProbeFilter::allocate`] hand it out. The
/// slab never reorders, so a slot names its entry until that entry is
/// freed ([`ProbeFilter::remove_sharer`]) or evicted: one directory
/// transaction reads and updates its entry through the slot without
/// walking the set again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfSlot(usize);

/// One directory entry read in place: what [`ProbeFilter::entry`]
/// returns, and what [`ProbeFilter::allocate`] returns for the victim of a
/// full set. The sharers are the slot's own
/// words, so reading an entry never allocates.
#[derive(Debug, Clone, Copy)]
pub struct PfEntryView<'a> {
    /// The tracked cache line.
    pub line: LineAddr,
    /// The core considered the owner.
    pub owner: CoreId,
    /// Cores that may hold a copy.
    pub sharers: SharerView<'a>,
}

impl PfEntryView<'_> {
    /// The owned copy of this entry.
    pub fn to_entry(&self) -> PfEntry {
        PfEntry {
            line: self.line,
            owner: self.owner,
            sharers: self.sharers.to_set(),
        }
    }

    /// Reads the entry stored in `slot` (a slab slot or a victim copy).
    fn of(slot: &[u64]) -> PfEntryView<'_> {
        PfEntryView {
            line: LineAddr::new(slot[TAG]),
            owner: CoreId::new(slot[OWNER] as u16),
            sharers: SharerView::new(&slot[WORDS..]),
        }
    }
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

/// Word offsets within a slab slot: the tag, the recency stamp and the
/// owner, followed by the sharer words.
const TAG: usize = 0;
const STAMP: usize = 1;
const OWNER: usize = 2;
const WORDS: usize = 3;

/// The tag of a free slot: a line number no 64-bit byte address maps to.
/// A valid slot's tag is its line.
const FREE: u64 = u64::MAX;

/// A set-associative sparse directory.
///
/// Storage is a single flat slab of `u64` words: `num_sets * ways` slots
/// indexed by `set * ways + way`, each `[tag, recency stamp, owner,
/// sharer words…]`, pre-initialised to free slots. The sharer words come
/// at a fixed stride of ⌈cores/64⌉, so a slot is 32 B on machines of up to
/// 64 cores and 56 B at 256, and no entry owns a heap block. One
/// allocation serves the whole array, and a set is walked sequentially.
/// Sets never reorder (the old per-set `Vec` only ever pushed or overwrote
/// in place, never removed), so a free slot carries the same information
/// the grow-only `Vec` length did and every position-dependent choice —
/// first-free reuse, LRU and random victim selection — is unchanged.
///
/// The stride is fixed when the filter is built:
/// [`ProbeFilter::for_machine`] sizes it for the machine's core count, and
/// the other constructors for 64 nodes, one sharer word per core of a node
/// (see [`ProbeFilter::hierarchical`]). Tracking a core past that width is
/// a caller bug and panics on the slab's bounds check.
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
/// let (slot, victim) = pf.allocate(line, CoreId::new(1));
/// assert!(victim.is_none());
/// pf.add_sharer(slot, CoreId::new(3));
/// let slot = pf.lookup(line).unwrap();
/// assert_eq!(pf.entry(slot).owner, CoreId::new(1));
/// assert_eq!(pf.entry(slot).sharers.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ProbeFilter {
    /// `num_sets * ways` slots of `WORDS + stride` words each.
    slab: Vec<u64>,
    /// Sharer words per slot.
    stride: usize,
    num_sets: usize,
    ways: usize,
    replacement: PfReplacement,
    /// Cores per NUMA node; `1` means a flat (single-level) filter, larger
    /// values enable the level-1 node-presence vector.
    cores_per_node: u32,
    tick: u64,
    stats: PfStats,
    /// The last evicted slot, copied out before its slot was reused;
    /// [`ProbeFilter::allocate`] lends it out.
    victim: Vec<u64>,
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
    /// per-core sharer map. Not knowing the machine's core count, the slots
    /// hold 64 nodes' cores — one sharer word per core of a node — which
    /// fits every reference machine; [`ProbeFilter::for_machine`] sizes
    /// them for a given machine instead.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets or ways, or if
    /// `cores_per_node` is zero.
    pub fn hierarchical(config: &ProbeFilterConfig, cores_per_node: u32) -> Self {
        ProbeFilter::with_stride(config, cores_per_node, cores_per_node as usize)
    }

    /// Creates the probe filter of one node of `topology`, with slots wide
    /// enough for every core of the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero sets or ways.
    pub fn for_machine(config: &ProbeFilterConfig, topology: Topology) -> Self {
        let cores = topology.num_cores() as usize;
        ProbeFilter::with_stride(config, topology.cores_per_node(), cores.div_ceil(WORD_BITS))
    }

    fn with_stride(config: &ProbeFilterConfig, cores_per_node: u32, stride: usize) -> Self {
        let num_sets = config.num_sets() as usize;
        let ways = config.ways as usize;
        assert!(num_sets > 0, "probe filter must have at least one set");
        assert!(ways > 0, "probe filter must have at least one way");
        assert!(cores_per_node > 0, "a node hosts at least one core");
        let stride = stride.max(1);
        ProbeFilter {
            slab: vec![FREE; num_sets * ways * (WORDS + stride)],
            stride,
            num_sets,
            ways,
            replacement: config.replacement,
            cores_per_node,
            tick: 0,
            stats: PfStats::default(),
            victim: Vec::with_capacity(WORDS + stride),
        }
    }

    /// Cores per NUMA node this filter tracks (1 = flat).
    pub fn cores_per_node(&self) -> u32 {
        self.cores_per_node
    }

    /// Words per slot.
    fn slot_len(&self) -> usize {
        WORDS + self.stride
    }

    fn slot(&self, at: usize) -> &[u64] {
        let len = self.slot_len();
        &self.slab[at * len..(at + 1) * len]
    }

    fn slot_mut(&mut self, at: usize) -> &mut [u64] {
        let len = self.slot_len();
        &mut self.slab[at * len..(at + 1) * len]
    }

    /// Index of the first slot of `line`'s set.
    fn set_base(&self, line: LineAddr) -> usize {
        (line.raw() % self.num_sets as u64) as usize * self.ways
    }

    /// The live entry in `slot`, for an update.
    fn entry_mut(&mut self, slot: PfSlot) -> &mut [u64] {
        let words = self.slot_mut(slot.0);
        debug_assert_ne!(words[TAG], FREE, "slot {} holds no entry", slot.0);
        words
    }

    /// The slot of `line`'s entry, if it has one, without touching recency
    /// or statistics. Every directory request walks `line`'s set once,
    /// here or through [`ProbeFilter::lookup`].
    pub fn find(&self, line: LineAddr) -> Option<PfSlot> {
        let base = self.set_base(line);
        let len = self.slot_len();
        self.slab[base * len..(base + self.ways) * len]
            .chunks_exact(len)
            .position(|slot| slot[TAG] == line.raw())
            .map(|way| PfSlot(base + way))
    }

    /// Charges one full array access; on a hierarchical filter the level-1
    /// node vector is read first, charged separately.
    fn touch_array(&mut self) {
        self.stats.array_accesses.incr();
        if self.cores_per_node > 1 {
            self.stats.node_vector_accesses.incr();
        }
    }

    /// Looks up the entry for `line`, updating recency and hit/miss counts,
    /// and returns its slot.
    pub fn lookup(&mut self, line: LineAddr) -> Option<PfSlot> {
        self.tick += 1;
        self.touch_array();
        let Some(slot) = self.find(line) else {
            self.stats.misses.incr();
            return None;
        };
        let tick = self.tick;
        self.entry_mut(slot)[STAMP] = tick;
        self.stats.hits.incr();
        Some(slot)
    }

    /// Reads the entry in `slot`, which a lookup, a [`ProbeFilter::find`]
    /// or an allocation of the current transaction handed out.
    pub fn entry(&self, slot: PfSlot) -> PfEntryView<'_> {
        let words = self.slot(slot.0);
        debug_assert_ne!(words[TAG], FREE, "slot {} holds no entry", slot.0);
        PfEntryView::of(words)
    }

    /// Allocates an entry, owned and solely shared by `owner`, for `line`,
    /// which has none (the directory allocates after a lookup miss, or
    /// after freeing the line's entry). The set's first free slot is used;
    /// a full set evicts a victim chosen by the replacement policy.
    ///
    /// Returns the new entry's slot, and the evicted entry the directory
    /// controller must process, if any; the victim stays readable until
    /// the filter is next changed.
    pub fn allocate(&mut self, line: LineAddr, owner: CoreId) -> (PfSlot, Option<PfEntryView<'_>>) {
        debug_assert!(self.find(line).is_none(), "{line} already has an entry");
        self.tick += 1;
        let tick = self.tick;
        self.touch_array();
        self.stats.allocations.incr();
        // Reuse the first free slot if the set has one (a never-used way
        // or a freed entry).
        let base = self.set_base(line);
        let ways = self.ways;
        if let Some(way) = (0..ways).find(|&way| self.slot(base + way)[TAG] == FREE) {
            self.install(base + way, line, owner, tick);
            return (PfSlot(base + way), None);
        }

        // Set full: evict a victim. The eviction costs an extra array read
        // (victim read-out) plus the write of the replacement, which the
        // energy model charges via `array_accesses`.
        self.touch_array();
        let way = match self.replacement {
            PfReplacement::Lru => (0..ways)
                .min_by_key(|&way| (self.slot(base + way)[STAMP], way))
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
        let len = self.slot_len();
        let at = base + way;
        self.victim.clear();
        self.victim
            .extend_from_slice(&self.slab[at * len..(at + 1) * len]);
        self.install(at, line, owner, tick);
        self.stats.evictions.incr();
        (PfSlot(at), Some(PfEntryView::of(&self.victim)))
    }

    /// Writes a fresh entry for `line`, owned and solely shared by
    /// `owner`, into slot `at`.
    fn install(&mut self, at: usize, line: LineAddr, owner: CoreId, tick: u64) {
        let slot = self.slot_mut(at);
        slot[TAG] = line.raw();
        slot[STAMP] = tick;
        slot[OWNER] = u64::from(owner.raw());
        slot[WORDS..].fill(0);
        set_bit(&mut slot[WORDS..], owner);
    }

    /// Adds `core` to the sharers of the entry in `slot`.
    pub fn add_sharer(&mut self, slot: PfSlot, core: CoreId) {
        set_bit(&mut self.entry_mut(slot)[WORDS..], core);
    }

    /// Makes `owner` the owner of the entry in `slot` and a sharer,
    /// dropping every other sharer if `exclusive` (as after a GetX).
    pub fn set_owner(&mut self, slot: PfSlot, owner: CoreId, exclusive: bool) {
        let words = self.entry_mut(slot);
        words[OWNER] = u64::from(owner.raw());
        if exclusive {
            words[WORDS..].fill(0);
        }
        set_bit(&mut words[WORDS..], owner);
    }

    /// Removes `core` from the sharers of the entry in `slot`, freeing the
    /// entry if no sharer remains. Returns true if it freed the entry.
    ///
    /// This implements the baseline's eviction-notification optimisation:
    /// when a cache tells the directory it dropped its copy, the directory
    /// can free the entry once no copies remain.
    pub fn remove_sharer(&mut self, slot: PfSlot, core: CoreId) -> bool {
        let words = self.entry_mut(slot);
        words[WORDS + core.index() / WORD_BITS] &= !(1 << (core.index() % WORD_BITS));
        let emptied = words[WORDS..].iter().all(|&w| w == 0);
        if emptied {
            words[TAG] = FREE;
        }
        self.touch_array();
        if emptied {
            self.stats.deallocations.incr();
        }
        emptied
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
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
                .chunks_exact(self.slot_len())
                .map(|slot| {
                    (slot[TAG] != FREE).then(|| PfSlotState {
                        entry: PfEntryView::of(slot).to_entry(),
                        last_touch: slot[STAMP],
                    })
                })
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Checks that `state` fits the filter of one node of `topology` under
    /// `config`, as [`ProbeFilter::restore_state`] assumes: the same slot
    /// count, every owner and sharer one of the machine's cores, and every
    /// line inside the address space (a larger one would read as free).
    ///
    /// # Errors
    ///
    /// The reason, with the filter as its subject (`tracks core4, ...`).
    pub fn check_state(
        config: &ProbeFilterConfig,
        topology: Topology,
        state: &ProbeFilterState,
    ) -> Result<(), String> {
        let slots = (config.num_sets() * u64::from(config.ways)) as usize;
        if state.slots.len() != slots {
            return Err(format!(
                "has {} probe-filter slots but the machine's has {slots}",
                state.slots.len()
            ));
        }
        let cores = topology.num_cores() as usize;
        for entry in state.slots.iter().flatten().map(|slot| &slot.entry) {
            let mut tracked = std::iter::once(entry.owner).chain(entry.sharers.iter());
            if let Some(core) = tracked.find(|core| core.index() >= cores) {
                return Err(format!("tracks {core}, outside the {cores}-core machine"));
            }
            if entry.line.raw() > u64::MAX / LINE_BYTES {
                return Err(format!(
                    "tracks line {}, past the address space",
                    entry.line
                ));
            }
        }
        Ok(())
    }

    /// Restores state captured with [`ProbeFilter::export_state`] that
    /// passed [`ProbeFilter::check_state`] for this filter's configuration.
    pub fn restore_state(&mut self, state: &ProbeFilterState) {
        for (at, restored) in state.slots.iter().enumerate() {
            let slot = self.slot_mut(at);
            slot.fill(0);
            slot[TAG] = FREE;
            if let Some(s) = restored {
                slot[TAG] = s.entry.line.raw();
                slot[STAMP] = s.last_touch;
                slot[OWNER] = u64::from(s.entry.owner.raw());
                let words = s.entry.sharers.view().words();
                slot[WORDS..WORDS + words.len()].copy_from_slice(words);
            }
        }
        self.tick = state.tick;
        self.stats = state.stats;
    }
}

/// Sets `core`'s bit in a slot's sharer words.
fn set_bit(words: &mut [u64], core: CoreId) {
    words[core.index() / WORD_BITS] |= 1 << (core.index() % WORD_BITS);
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

    /// `line`'s entry, if it has one.
    fn entry_of(pf: &ProbeFilter, line: LineAddr) -> Option<PfEntry> {
        pf.find(line).map(|slot| pf.entry(slot).to_entry())
    }

    /// The number of valid entries.
    fn occupancy(pf: &ProbeFilter) -> usize {
        pf.export_state().slots.iter().flatten().count()
    }

    #[test]
    fn allocate_then_lookup() {
        let mut pf = tiny();
        let line = LineAddr::new(3);
        assert!(pf.lookup(line).is_none());
        let (allocated, victim) = pf.allocate(line, CoreId::new(2));
        assert!(victim.is_none());
        let slot = pf.lookup(line).unwrap();
        assert_eq!(slot, allocated);
        let entry = pf.entry(slot);
        assert_eq!(entry.line, line);
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
        let (lru_slot, _) = pf.allocate(LineAddr::new(2), CoreId::new(0));
        // Touch line 0 so line 2 is LRU.
        pf.lookup(LineAddr::new(0));
        let (slot, evicted) = pf.allocate(LineAddr::new(4), CoreId::new(1));
        assert_eq!(evicted.unwrap().line, LineAddr::new(2));
        // The new entry took the victim's slot.
        assert_eq!(slot, lru_slot);
        assert_eq!(pf.stats().evictions.get(), 1);
        assert!(pf.find(LineAddr::new(0)).is_some());
        assert!(pf.find(LineAddr::new(2)).is_none());
    }

    #[test]
    fn sharer_management() {
        let mut pf = tiny();
        let line = LineAddr::new(1);
        let (slot, _) = pf.allocate(line, CoreId::new(0));
        pf.add_sharer(slot, CoreId::new(3));
        assert_eq!(pf.entry(slot).sharers.count(), 2);
        // A read-sharing owner change keeps the other sharers.
        pf.set_owner(slot, CoreId::new(1), false);
        let entry = pf.entry(slot);
        assert_eq!(entry.owner, CoreId::new(1));
        assert_eq!(entry.sharers.count(), 3);
        // GetX by core 3: owner changes and sharers collapse.
        pf.set_owner(slot, CoreId::new(3), true);
        let entry = pf.entry(pf.find(line).unwrap());
        assert_eq!(entry.owner, CoreId::new(3));
        assert_eq!(
            entry.sharers.iter().collect::<Vec<_>>(),
            vec![CoreId::new(3)]
        );
    }

    #[test]
    fn remove_sharer_deallocates_when_last_copy_gone() {
        let mut pf = tiny();
        let line = LineAddr::new(1);
        let (slot, _) = pf.allocate(line, CoreId::new(0));
        pf.add_sharer(slot, CoreId::new(1));
        assert!(!pf.remove_sharer(slot, CoreId::new(0)));
        // The owner of record survives its own removal.
        let entry = pf.entry(pf.find(line).unwrap());
        assert_eq!(entry.owner, CoreId::new(0));
        assert!(!entry.sharers.contains(CoreId::new(0)));
        assert!(pf.remove_sharer(slot, CoreId::new(1)));
        assert!(pf.find(line).is_none());
        assert_eq!(pf.stats().deallocations.get(), 1);
        assert_eq!(occupancy(&pf), 0);
    }

    #[test]
    fn deallocated_slot_is_reused_without_eviction() {
        let mut pf = tiny();
        let (freed, _) = pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(2), CoreId::new(0));
        assert!(pf.remove_sharer(freed, CoreId::new(0)));
        assert!(pf.find(LineAddr::new(0)).is_none());
        // Set 0 now has a free slot: allocating line 4 must not evict.
        let (slot, victim) = pf.allocate(LineAddr::new(4), CoreId::new(1));
        assert!(victim.is_none());
        assert_eq!(slot, freed);
        assert_eq!(pf.stats().evictions.get(), 0);
    }

    #[test]
    fn occupancy_and_capacity() {
        let mut pf = tiny();
        assert_eq!(pf.capacity(), 4);
        assert_eq!(occupancy(&pf), 0);
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        pf.allocate(LineAddr::new(1), CoreId::new(0));
        assert_eq!(occupancy(&pf), 2);
        // Over-filling never exceeds capacity.
        for i in 0..32u64 {
            if pf.find(LineAddr::new(i)).is_none() {
                pf.allocate(LineAddr::new(i), CoreId::new(0));
            }
        }
        assert_eq!(occupancy(&pf), 4);
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
        let (slot_a, va) = a.allocate(LineAddr::new(4), CoreId::new(1));
        let (slot_b, vb) = b.allocate(LineAddr::new(4), CoreId::new(1));
        let (va, vb) = (va.unwrap().to_entry(), vb.unwrap().to_entry());
        assert_eq!(va, vb, "same history must evict the same victim");
        assert_eq!(slot_a, slot_b);
        assert!(va.line == LineAddr::new(0) || va.line == LineAddr::new(2));
        assert_eq!(a.find(LineAddr::new(4)), Some(slot_a));
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
    fn find_does_not_affect_stats() {
        let mut pf = tiny();
        pf.allocate(LineAddr::new(0), CoreId::new(0));
        let before = *pf.stats();
        pf.find(LineAddr::new(0));
        pf.find(LineAddr::new(5));
        assert_eq!(*pf.stats(), before);
    }

    #[test]
    fn machine_sized_slots_are_32_bytes_to_64_cores_and_56_at_256() {
        let cfg = ProbeFilterConfig::new(4096, 4);
        for (topology, slot_bytes) in [
            (Topology::new(16, 1), 32),
            (Topology::new(16, 4), 32),
            (Topology::new(64, 4), 56),
        ] {
            let pf = ProbeFilter::for_machine(&cfg, topology);
            assert_eq!(pf.slot_len() * 8, slot_bytes, "{topology:?}");
            assert_eq!(pf.slab.len(), pf.capacity() * pf.slot_len());
        }
    }

    /// One slot of the nested-`Vec` reference model.
    #[derive(Clone)]
    struct Slot {
        entry: PfEntry,
        last_touch: u64,
        valid: bool,
    }

    /// The grow-only nested-`Vec` storage the flat slab replaced, kept as
    /// an executable specification: a set was a `Vec<Slot>` that only ever
    /// pushed or overwrote in place, so a pre-initialised invalid slab
    /// must reproduce it operation for operation, with an entry's slab slot
    /// at `set * ways + ` its position in the set's `Vec`.
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

        /// The slab slot of `line`'s entry, if it has one.
        fn slot_of(&self, line: LineAddr) -> Option<usize> {
            let set = self.set_index(line);
            self.sets[set]
                .iter()
                .position(|s| s.valid && s.entry.line == line)
                .map(|pos| set * self.ways + pos)
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

        /// Allocates an entry for `line`, which has none.
        fn allocate(&mut self, line: LineAddr, owner: CoreId) -> Option<PfEntry> {
            self.tick += 1;
            let tick = self.tick;
            self.touch_array();
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
            Some(victim)
        }

        /// The entry of `line`, which has one.
        fn entry_mut(&mut self, line: LineAddr) -> &mut PfEntry {
            &mut self.find_mut(line).expect("line has an entry").entry
        }

        fn set_owner(&mut self, line: LineAddr, owner: CoreId, exclusive: bool) {
            let entry = self.entry_mut(line);
            entry.owner = owner;
            if exclusive {
                entry.sharers = SharerSet::only(owner);
            } else {
                entry.sharers.insert(owner);
            }
        }

        fn remove_sharer(&mut self, line: LineAddr, core: CoreId) -> bool {
            let slot = self.find_mut(line).expect("line has an entry");
            slot.entry.sharers.remove(core);
            let emptied = slot.entry.sharers.is_empty();
            slot.valid = !emptied;
            self.touch_array();
            if emptied {
                self.stats.deallocations.incr();
            }
            emptied
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
    /// identical return values — every entry read and every evicted
    /// victim, sharers included — the same slot for every line, stats and
    /// occupancy. Updates go through the slot of an entry the model also
    /// holds, and only lines without an entry are allocated, as the
    /// directory does. The stream covers the position-dependent pieces
    /// (first-free reuse, LRU and random victim selection) across both
    /// replacement policies, the flat and hierarchical sharer-tracking
    /// modes, and sharer sets of one word (8 cores) and of four (256 cores,
    /// in slots sized for the machine or by `hierarchical`'s 64 cores per
    /// core of a node).
    #[test]
    fn flat_slab_matches_nested_vec_reference_model() {
        for replacement in [PfReplacement::Lru, PfReplacement::Random] {
            for (cores_per_node, cores) in [(1u32, 8u64), (4, 8), (4, 256), (1, 256)] {
                for seed in 1..=3u64 {
                    let mut cfg = ProbeFilterConfig::new(16 * 64, 4);
                    cfg.replacement = replacement;
                    let mut flat = if cores > 64 && (cores_per_node == 1 || seed % 2 == 1) {
                        let nodes = (cores as u32) / cores_per_node;
                        ProbeFilter::for_machine(&cfg, Topology::new(nodes, cores_per_node))
                    } else {
                        ProbeFilter::hierarchical(&cfg, cores_per_node)
                    };
                    let mut model =
                        NestedModel::new(flat.num_sets, flat.ways, replacement, cores_per_node);
                    let mut rng = seed;
                    for _ in 0..5_000 {
                        let r = splitmix64(&mut rng);
                        let line = LineAddr::new(r % 64); // 4x conflict pressure
                        let core = CoreId::new(((r >> 8) % cores) as u16);
                        let slot = flat.find(line);
                        assert_eq!(slot.map(|slot| slot.0), model.slot_of(line));
                        match ((r >> 16) % 6, slot) {
                            (0, _) => assert_eq!(
                                flat.lookup(line).map(|slot| flat.entry(slot).to_entry()),
                                model.lookup(line)
                            ),
                            (1 | 2, None) => assert_eq!(
                                flat.allocate(line, core).1.map(|e| e.to_entry()),
                                model.allocate(line, core)
                            ),
                            (3, Some(slot)) => {
                                flat.add_sharer(slot, core);
                                model.entry_mut(line).sharers.insert(core);
                            }
                            (4, Some(slot)) => {
                                let exclusive = (r >> 32) & 1 == 1;
                                flat.set_owner(slot, core, exclusive);
                                model.set_owner(line, core, exclusive);
                            }
                            (5, Some(slot)) => assert_eq!(
                                flat.remove_sharer(slot, core),
                                model.remove_sharer(line, core)
                            ),
                            _ => continue,
                        }
                        let expected = model.find_mut(line).map(|s| s.entry.clone());
                        assert_eq!(entry_of(&flat, line), expected);
                    }
                    assert_eq!(
                        *flat.stats(),
                        model.stats,
                        "{replacement:?} cpn {cores_per_node} cores {cores} seed {seed}"
                    );
                    assert_eq!(occupancy(&flat), model.occupancy());
                    // A checkpoint round trip onto a fresh filter of the
                    // same width reproduces every entry.
                    let state = flat.export_state();
                    let mut restored = ProbeFilter::with_stride(&cfg, cores_per_node, flat.stride);
                    restored.restore_state(&state);
                    assert_eq!(restored.export_state(), state);
                    for addr in 0..64u64 {
                        let line = LineAddr::new(addr);
                        let expected = model.find_mut(line).map(|s| s.entry.clone());
                        for pf in [&flat, &restored] {
                            assert_eq!(entry_of(pf, line), expected);
                        }
                    }
                }
            }
        }
    }
}
