//! A generic set-associative array of cache lines.

use crate::state::CoherenceState;
use crate::stats::CacheStats;
use allarm_types::addr::LineAddr;
use allarm_types::config::CacheConfig;

/// A line pushed out of the array to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub addr: LineAddr,
    /// Its coherence state at the time of eviction.
    pub state: CoherenceState,
}

impl EvictedLine {
    /// True if the victim held dirty data that must be written back.
    pub fn needs_writeback(&self) -> bool {
        self.state.is_dirty()
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    addr: LineAddr,
    state: CoherenceState,
    last_touch: u64,
}

/// A set-associative array of cache lines with MOESI state per line and
/// LRU replacement.
///
/// This structure backs the private data caches (`L1D`, `L2`) and the
/// shared per-node LLC slices. (The probe filter keeps its own slab, in
/// `allarm-coherence`.)
///
/// Storage is a single flat slab of `num_sets * ways` entries indexed by
/// `set * ways + way` — one allocation, cache-friendly walks — with a
/// per-set occupancy count. Within a set the occupied prefix behaves
/// like a `Vec` (push appends at `len`, removal is a `swap_remove`), and
/// iteration follows that storage order. Snapshots list each set's ways
/// by recency instead (see [`SetAssocCache::export_state`]).
///
/// A full set evicts its least recently touched line. Every lookup and
/// insert stamps the way it touches with a fresh tick, so no two resident
/// ways share a stamp and the victim never depends on position.
///
/// # Examples
///
/// ```
/// use allarm_cache::{SetAssocCache, CoherenceState};
/// use allarm_types::{config::CacheConfig, addr::LineAddr};
///
/// let mut cache = SetAssocCache::new(&CacheConfig::new(4096, 2, 1));
/// let line = LineAddr::new(7);
/// assert_eq!(cache.lookup(line), None);
/// cache.insert(line, CoherenceState::Exclusive);
/// assert_eq!(cache.lookup(line), Some(CoherenceState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `num_sets * ways` entries; only the first `lens[set]` ways of each
    /// set's `ways`-sized span are meaningful.
    slab: Vec<Way>,
    lens: Vec<u32>,
    num_sets: usize,
    ways: usize,
    tick: u64,
    stats: CacheStats,
}

/// Filler for unoccupied slab entries; never read (all walks stop at the
/// set's occupancy count).
const EMPTY_WAY: Way = Way {
    addr: LineAddr::new(0),
    state: CoherenceState::Invalid,
    last_touch: 0,
};

impl SetAssocCache {
    /// Creates a cache with the geometry of `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero ways or zero sets.
    pub fn new(config: &CacheConfig) -> Self {
        assert!(config.ways > 0, "cache must have at least one way");
        let num_sets = config.num_sets() as usize;
        let ways = config.ways as usize;
        assert!(num_sets > 0, "cache must have at least one set");
        SetAssocCache {
            slab: vec![EMPTY_WAY; num_sets * ways],
            lens: vec![0; num_sets],
            num_sets,
            ways,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The occupied ways of `set`.
    fn set_ways(&self, set: usize) -> &[Way] {
        let base = set * self.ways;
        &self.slab[base..base + self.lens[set] as usize]
    }

    /// Finds `line`: its set, and its slab index if it is resident. Every
    /// operation on one line walks its set here.
    fn find(&self, line: LineAddr) -> (usize, Option<usize>) {
        let set = (line.raw() % self.num_sets as u64) as usize;
        let pos = self.set_ways(set).iter().position(|w| w.addr == line);
        (set, pos.map(|pos| set * self.ways + pos))
    }

    /// Removes slab entry `at` from `set`'s occupied prefix by moving the
    /// last occupied way into its place (`Vec::swap_remove` equivalent).
    fn swap_remove_way(&mut self, set: usize, at: usize) -> Way {
        let last = set * self.ways + self.lens[set] as usize - 1;
        debug_assert!(at <= last, "swap_remove out of bounds");
        let removed = self.slab[at];
        self.slab[at] = self.slab[last];
        self.lens[set] -= 1;
        removed
    }

    /// [`SetAssocCache::find`] for a demand access: advances the recency
    /// clock and counts the hit or miss.
    fn find_counted(&mut self, line: LineAddr) -> (usize, Option<usize>) {
        self.tick += 1;
        let found = self.find(line);
        if found.1.is_some() {
            self.stats.hits.incr();
        } else {
            self.stats.misses.incr();
        }
        found
    }

    /// Looks up `line`, updating recency and hit/miss statistics.
    pub fn lookup(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let at = self.find_counted(line).1?;
        self.slab[at].last_touch = self.tick;
        Some(self.slab[at].state)
    }

    /// A [`SetAssocCache::lookup`] that removes a hit line in the same walk
    /// and returns its state: the exclusive L2's promotion of a hit back to
    /// the L1. It advances the clock and counts the hit or miss exactly as
    /// `lookup` does.
    pub fn take(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let (set, at) = self.find_counted(line);
        Some(self.swap_remove_way(set, at?).state)
    }

    /// Checks whether `line` is present without updating recency or
    /// statistics (a directory probe).
    pub fn probe(&self, line: LineAddr) -> Option<CoherenceState> {
        self.find(line).1.map(|at| self.slab[at].state)
    }

    /// Inserts `line` in `state`, evicting the set's least recently touched
    /// line if the set is full.
    ///
    /// Returns the victim, if any. Inserting a line that is already present
    /// just updates its state and recency and returns `None`.
    pub fn insert(&mut self, line: LineAddr, state: CoherenceState) -> Option<EvictedLine> {
        self.tick += 1;
        let way = Way {
            addr: line,
            state,
            last_touch: self.tick,
        };
        let (set, at) = self.find(line);
        if let Some(at) = at {
            self.slab[at] = way;
            return None;
        }

        let mut victim = None;
        let len = self.lens[set] as usize;
        if len == self.ways {
            let base = set * self.ways;
            let lru = (base..base + len)
                .min_by_key(|&at| self.slab[at].last_touch)
                .expect("a full set is non-empty");
            let evicted = self.swap_remove_way(set, lru);
            self.stats.evictions.incr();
            if evicted.state.is_dirty() {
                self.stats.writebacks.incr();
            }
            victim = Some(EvictedLine {
                addr: evicted.addr,
                state: evicted.state,
            });
        }
        self.slab[set * self.ways + self.lens[set] as usize] = way;
        self.lens[set] += 1;
        victim
    }

    /// Removes `line` (a directory-initiated invalidation), returning its
    /// state if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let state = self.remove_silently(line)?;
        self.stats.invalidations.incr();
        if state.is_dirty() {
            self.stats.writebacks.incr();
        }
        Some(state)
    }

    /// Maps the state of a resident line through `f` in one walk and
    /// returns the state it found, without updating recency or statistics
    /// (a directory downgrade or a write grant). `None`, and no change, if
    /// the line is not present.
    pub fn map_state(
        &mut self,
        line: LineAddr,
        f: impl FnOnce(CoherenceState) -> CoherenceState,
    ) -> Option<CoherenceState> {
        let at = self.find(line).1?;
        let way = &mut self.slab[at];
        let found = way.state;
        way.state = f(found);
        Some(found)
    }

    /// Removes `line` without counting it as an invalidation or advancing
    /// the recency clock.
    pub fn remove_silently(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let (set, at) = self.find(line);
        Some(self.swap_remove_way(set, at?).state)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of resident lines.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Iterates over all resident lines and their states.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, CoherenceState)> + '_ {
        (0..self.num_sets).flat_map(|set| self.set_ways(set).iter().map(|w| (w.addr, w.state)))
    }

    /// Exports the complete dynamic state of the array — every occupied way,
    /// least recently touched first, the recency clock and the statistics —
    /// for checkpointing. [`SetAssocCache::restore_state`] of the export
    /// onto a fresh same-geometry cache reproduces every lookup, victim and
    /// statistic of the array.
    ///
    /// Ways are listed by recency stamp, not storage order, because storage
    /// order is not a function of the lines' history: two invalidations in
    /// one set leave a different order depending on which ran first, and
    /// directory work on different threads invalidates lines of one set
    /// concurrently. Stamps are unique among resident ways, so the export
    /// is canonical.
    pub fn export_state(&self) -> SetAssocState {
        SetAssocState {
            sets: (0..self.num_sets)
                .map(|set| {
                    let mut ways: Vec<WayState> = self
                        .set_ways(set)
                        .iter()
                        .map(|w| WayState {
                            addr: w.addr,
                            state: w.state,
                            last_touch: w.last_touch,
                        })
                        .collect();
                    ways.sort_by_key(|w| w.last_touch);
                    ways
                })
                .collect(),
            tick: self.tick,
            stats: self.stats,
        }
    }

    /// Checks that `state` fits an array of `config`'s geometry, as
    /// [`SetAssocCache::restore_state`] assumes: the same set count, and no
    /// set holding more lines than the array has ways.
    ///
    /// # Errors
    ///
    /// The reason, with the array as its subject (`has 3 sets but ...`).
    pub fn check_state(config: &CacheConfig, state: &SetAssocState) -> Result<(), String> {
        let sets = config.num_sets() as usize;
        if state.sets.len() != sets {
            return Err(format!(
                "has {} sets but the machine's has {sets}",
                state.sets.len()
            ));
        }
        let ways = config.ways as usize;
        match state.sets.iter().position(|set| set.len() > ways) {
            Some(set) => Err(format!(
                "set {set} holds {} lines but the array is {ways}-way",
                state.sets[set].len()
            )),
            None => Ok(()),
        }
    }

    /// Restores state captured with [`SetAssocCache::export_state`] that
    /// passed [`SetAssocCache::check_state`] for this cache's configuration.
    pub fn restore_state(&mut self, state: &SetAssocState) {
        for (set, ways) in state.sets.iter().enumerate() {
            self.lens[set] = ways.len() as u32;
            for (pos, w) in ways.iter().enumerate() {
                self.slab[set * self.ways + pos] = Way {
                    addr: w.addr,
                    state: w.state,
                    last_touch: w.last_touch,
                };
            }
        }
        self.tick = state.tick;
        self.stats = state.stats;
    }
}

/// One occupied way of a checkpointed [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayState {
    /// The resident line.
    pub addr: LineAddr,
    /// Its MOESI state.
    pub state: CoherenceState,
    /// Recency stamp (drives LRU victim choice).
    pub last_touch: u64,
}

/// The complete dynamic state of a [`SetAssocCache`], as captured by
/// [`SetAssocCache::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocState {
    /// Occupied ways per set, least recently touched first.
    pub sets: Vec<Vec<WayState>>,
    /// The recency clock.
    pub tick: u64,
    /// Access statistics at capture time.
    pub stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways = 4 lines.
        SetAssocCache::new(&CacheConfig::new(4 * 64, 2, 1))
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = tiny();
        let line = LineAddr::new(4);
        assert_eq!(c.lookup(line), None);
        assert!(c.insert(line, CoherenceState::Shared).is_none());
        assert_eq!(c.lookup(line), Some(CoherenceState::Shared));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn full_set_evicts_lru_victim() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even addresses, 2 sets).
        c.insert(LineAddr::new(0), CoherenceState::Exclusive);
        c.insert(LineAddr::new(2), CoherenceState::Exclusive);
        // Touch line 0 so line 2 becomes LRU.
        c.lookup(LineAddr::new(0));
        let victim = c
            .insert(LineAddr::new(4), CoherenceState::Exclusive)
            .unwrap();
        assert_eq!(victim.addr, LineAddr::new(2));
        assert_eq!(c.stats().evictions.get(), 1);
        assert!(c.probe(LineAddr::new(0)).is_some());
        assert!(c.probe(LineAddr::new(2)).is_none());
    }

    #[test]
    fn dirty_victim_counts_writeback() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Modified);
        c.insert(LineAddr::new(2), CoherenceState::Shared);
        let victim = c.insert(LineAddr::new(4), CoherenceState::Shared).unwrap();
        assert_eq!(victim.addr, LineAddr::new(0));
        assert!(victim.needs_writeback());
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn reinserting_resident_line_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Shared);
        let victim = c.insert(LineAddr::new(0), CoherenceState::Modified);
        assert!(victim.is_none());
        assert_eq!(c.probe(LineAddr::new(0)), Some(CoherenceState::Modified));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_does_not_touch_stats_or_recency() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Shared);
        let hits_before = c.stats().hits.get();
        let misses_before = c.stats().misses.get();
        assert!(c.probe(LineAddr::new(0)).is_some());
        assert!(c.probe(LineAddr::new(6)).is_none());
        assert_eq!(c.stats().hits.get(), hits_before);
        assert_eq!(c.stats().misses.get(), misses_before);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Modified);
        assert_eq!(
            c.invalidate(LineAddr::new(0)),
            Some(CoherenceState::Modified)
        );
        assert_eq!(c.invalidate(LineAddr::new(0)), None);
        assert_eq!(c.stats().invalidations.get(), 1);
        assert_eq!(c.stats().writebacks.get(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_silently_does_not_count_invalidation() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Exclusive);
        assert_eq!(
            c.remove_silently(LineAddr::new(0)),
            Some(CoherenceState::Exclusive)
        );
        assert_eq!(c.stats().invalidations.get(), 0);
        assert_eq!(c.remove_silently(LineAddr::new(0)), None);
    }

    #[test]
    fn set_state_changes_resident_lines_only() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Exclusive);
        let before = c.export_state();
        assert_eq!(
            c.map_state(LineAddr::new(0), CoherenceState::after_remote_read),
            Some(CoherenceState::Exclusive)
        );
        assert_eq!(c.probe(LineAddr::new(0)), Some(CoherenceState::Shared));
        assert_eq!(
            c.map_state(LineAddr::new(2), |_| CoherenceState::Modified),
            None
        );
        assert_eq!(c.len(), 1);
        // Neither call touched the clock or the statistics.
        let after = c.export_state();
        assert_eq!((after.tick, after.stats), (before.tick, before.stats));
    }

    /// Two invalidations in one set leave the same export whichever runs
    /// first, though they leave the ways in different storage orders.
    #[test]
    fn export_does_not_depend_on_invalidation_order() {
        // One set of four ways, full.
        let mut a = SetAssocCache::new(&CacheConfig::new(4 * 64, 4, 1));
        for line in 0..4 {
            a.insert(LineAddr::new(line), CoherenceState::Shared);
        }
        let mut b = a.clone();
        a.invalidate(LineAddr::new(0));
        a.invalidate(LineAddr::new(1));
        b.invalidate(LineAddr::new(1));
        b.invalidate(LineAddr::new(0));
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            b.iter().collect::<Vec<_>>(),
            "the two orders must reach different storage orders"
        );
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn capacity_and_geometry() {
        let c = tiny();
        assert_eq!(c.capacity(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.num_sets(), 2);
        let from_cfg = SetAssocCache::new(&CacheConfig::new(4096, 4, 1));
        assert_eq!(from_cfg.capacity(), 64);
        assert_eq!(from_cfg.num_sets(), 16);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.insert(LineAddr::new(i), CoherenceState::Shared);
        }
        assert!(c.len() <= c.capacity());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn iter_visits_all_resident_lines() {
        let mut c = tiny();
        c.insert(LineAddr::new(0), CoherenceState::Shared);
        c.insert(LineAddr::new(1), CoherenceState::Modified);
        let mut lines: Vec<u64> = c.iter().map(|(addr, _)| addr.raw()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = SetAssocCache::new(&CacheConfig::new(4096, 0, 1));
    }

    /// The nested-`Vec` storage the flat slab replaced, kept as an
    /// executable specification: every operation must return the same
    /// value and leave the same stats as this model.
    struct NestedModel {
        sets: Vec<Vec<Way>>,
        ways: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl NestedModel {
        fn new(num_sets: usize, ways: usize) -> Self {
            NestedModel {
                sets: vec![Vec::new(); num_sets],
                ways,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, line: LineAddr) -> usize {
            (line.raw() % self.sets.len() as u64) as usize
        }

        fn lookup(&mut self, line: LineAddr) -> Option<CoherenceState> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(line);
            if let Some(way) = self.sets[set].iter_mut().find(|w| w.addr == line) {
                way.last_touch = tick;
                self.stats.hits.incr();
                Some(way.state)
            } else {
                self.stats.misses.incr();
                None
            }
        }

        fn insert(&mut self, line: LineAddr, state: CoherenceState) -> Option<EvictedLine> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(line);
            if let Some(way) = self.sets[set].iter_mut().find(|w| w.addr == line) {
                way.state = state;
                way.last_touch = tick;
                return None;
            }
            let mut victim = None;
            if self.sets[set].len() >= self.ways {
                let lru = (0..self.ways)
                    .min_by_key(|&pos| (self.sets[set][pos].last_touch, pos))
                    .unwrap();
                let evicted = self.sets[set].swap_remove(lru);
                self.stats.evictions.incr();
                if evicted.state.is_dirty() {
                    self.stats.writebacks.incr();
                }
                victim = Some(EvictedLine {
                    addr: evicted.addr,
                    state: evicted.state,
                });
            }
            self.sets[set].push(Way {
                addr: line,
                state,
                last_touch: tick,
            });
            victim
        }

        fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
            let set = self.set_index(line);
            if let Some(pos) = self.sets[set].iter().position(|w| w.addr == line) {
                let way = self.sets[set].swap_remove(pos);
                self.stats.invalidations.incr();
                if way.state.is_dirty() {
                    self.stats.writebacks.incr();
                }
                Some(way.state)
            } else {
                None
            }
        }

        fn remove_silently(&mut self, line: LineAddr) -> Option<CoherenceState> {
            let set = self.set_index(line);
            let pos = self.sets[set].iter().position(|w| w.addr == line)?;
            Some(self.sets[set].swap_remove(pos).state)
        }

        fn contents(&self) -> Vec<(u64, CoherenceState)> {
            // In storage order: swap_remove reordering must match too.
            self.sets
                .iter()
                .flat_map(|set| set.iter().map(|w| (w.addr.raw(), w.state)))
                .collect()
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives the flat-slab cache and the nested-`Vec` reference through
    /// the same seeded operation stream and demands identical results,
    /// identical stats, and identical storage order — the strongest form
    /// of "the slab refactor changed nothing", covering the LRU victim
    /// choice and the `swap_remove` reordering.
    #[test]
    fn flat_slab_matches_nested_vec_reference_model() {
        for seed in 1..=4u64 {
            let mut rng = seed;
            // 4 sets x 3 ways.
            let mut flat = SetAssocCache::new(&CacheConfig::new(12 * 64, 3, 1));
            let mut model = NestedModel::new(4, 3);
            let states = [
                CoherenceState::Modified,
                CoherenceState::Owned,
                CoherenceState::Exclusive,
                CoherenceState::Shared,
            ];
            for _ in 0..5_000 {
                let r = splitmix64(&mut rng);
                let line = LineAddr::new(r % 48); // 4x conflict pressure
                let state = states[(r >> 8) as usize % states.len()];
                match (r >> 16) % 5 {
                    0 => assert_eq!(flat.lookup(line), model.lookup(line)),
                    1 | 2 => assert_eq!(flat.insert(line, state), model.insert(line, state)),
                    3 => assert_eq!(flat.invalidate(line), model.invalidate(line)),
                    _ => assert_eq!(flat.remove_silently(line), model.remove_silently(line)),
                }
            }
            let flat_contents: Vec<(u64, CoherenceState)> = flat
                .iter()
                .map(|(addr, state)| (addr.raw(), state))
                .collect();
            assert_eq!(flat_contents, model.contents(), "seed {seed}");
            assert_eq!(flat.stats().hits.get(), model.stats.hits.get());
            assert_eq!(flat.stats().misses.get(), model.stats.misses.get());
            assert_eq!(flat.stats().evictions.get(), model.stats.evictions.get());
            assert_eq!(flat.stats().writebacks.get(), model.stats.writebacks.get());
            assert_eq!(
                flat.stats().invalidations.get(),
                model.stats.invalidations.get()
            );
        }
    }
}
