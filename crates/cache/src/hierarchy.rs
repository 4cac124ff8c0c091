//! The per-core private cache hierarchy: L1D backed by an exclusive L2.
//!
//! The paper's cores have split 32 kB L1 caches and a private 256 kB
//! *exclusive* L2 (a victim cache for the L1). Instruction fetches are not
//! modelled — the evaluation figures are driven entirely by data traffic —
//! so the hierarchy here is L1D + L2. Exclusivity matters because it fixes
//! the total caching capacity per core (L1 + L2) that the probe filter must
//! cover with its 2x-of-L2 budget.

use crate::set_assoc::{EvictedLine, SetAssocCache};
use crate::state::CoherenceState;
use crate::stats::CacheStats;
use allarm_types::addr::LineAddr;
use allarm_types::config::CacheConfig;

/// Where a data access found its line, before any coherence action.
/// `RequestKind::for_access` (in `allarm-coherence`) turns it into the
/// request the access needs from the line's home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache.
    L1Hit {
        /// A store found the line in a state that cannot be written.
        upgrade: bool,
    },
    /// Missed L1 but hit the private L2; the line is promoted back to L1
    /// (exclusive hierarchy).
    L2Hit {
        /// A store found the line in a state that cannot be written.
        upgrade: bool,
    },
    /// Missed the whole private hierarchy; the directory must be consulted.
    Miss,
}

/// Result of a directory probe of this core's hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The line is not cached by this core.
    Miss,
    /// The line is cached in the given state (after any requested downgrade
    /// or invalidation has been applied).
    Hit {
        /// The state the line was found in, before the probe's side effect.
        state: CoherenceState,
        /// Whether the copy held dirty data that the probe flushed.
        dirty: bool,
    },
}

/// A single core's private L1D + exclusive L2 hierarchy.
///
/// # Examples
///
/// ```
/// use allarm_cache::{CoreCaches, CoherenceState, AccessOutcome};
/// use allarm_types::{config::MachineConfig, addr::LineAddr};
///
/// let cfg = MachineConfig::small_test();
/// let mut caches = CoreCaches::new(&cfg.l1d, &cfg.l2);
/// let line = LineAddr::new(100);
///
/// // A load misses and is filled Shared; a store then hits a read-only
/// // copy and needs an upgrade, after which it hits a writable one.
/// assert_eq!(caches.access(line, false), AccessOutcome::Miss);
/// caches.fill(line, CoherenceState::Shared);
/// assert_eq!(caches.access(line, true), AccessOutcome::L1Hit { upgrade: true });
/// assert!(caches.grant_write(line));
/// assert_eq!(caches.access(line, true), AccessOutcome::L1Hit { upgrade: false });
/// ```
#[derive(Debug, Clone)]
pub struct CoreCaches {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    /// L2 lines displaced entirely out of the hierarchy since the last call
    /// to [`CoreCaches::take_capacity_victims`].
    pending_victims: Vec<EvictedLine>,
}

impl CoreCaches {
    /// Creates the hierarchy from L1D and L2 configurations.
    pub fn new(l1d: &CacheConfig, l2: &CacheConfig) -> Self {
        CoreCaches {
            l1d: SetAssocCache::new(l1d),
            l2: SetAssocCache::new(l2),
            pending_victims: Vec::new(),
        }
    }

    /// Performs a load (`write == false`) or store (`write == true`),
    /// walking each level's set once; an L2 hit moves back up to L1
    /// (exclusive hierarchy). The line keeps the state it was found in:
    /// write permission arrives by [`CoreCaches::grant_write`] or
    /// [`CoreCaches::fill`], so a store hit on an Exclusive line leaves it
    /// Exclusive (MOESI's silent E→M transition is not modelled).
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        let upgrade = |state: CoherenceState| write && !state.can_write();
        if let Some(state) = self.l1d.lookup(line) {
            return AccessOutcome::L1Hit {
                upgrade: upgrade(state),
            };
        }
        match self.l2.take(line) {
            Some(state) => {
                self.install_l1(line, state);
                AccessOutcome::L2Hit {
                    upgrade: upgrade(state),
                }
            }
            None => AccessOutcome::Miss,
        }
    }

    /// Installs a line delivered by the directory in the given state.
    ///
    /// Victims pushed entirely out of the hierarchy are recorded and can be
    /// collected with [`CoreCaches::take_capacity_victims`] so the simulator
    /// can notify the directory (the paper's baseline notifies the directory
    /// of evictions of exclusively-owned blocks).
    pub fn fill(&mut self, line: LineAddr, state: CoherenceState) {
        self.install_l1(line, state);
    }

    /// Grants write permission for a line already present (upgrade
    /// completion). Returns false if the line is no longer cached — the
    /// copy was invalidated between the upgrade request and its grant (a
    /// concurrent writer won ownership first), so the grantee must refetch
    /// the data instead.
    pub fn grant_write(&mut self, line: LineAddr) -> bool {
        self.l1d.set_state(line, CoherenceState::Modified)
            || self.l2.set_state(line, CoherenceState::Modified)
    }

    /// Directory probe: reports whether the line is cached here and in what
    /// state. If `downgrade` is true the copy is demoted to a shared state
    /// (remote GetS); if `invalidate` is true it is removed (remote GetX)
    /// through [`CoreCaches::invalidate`].
    pub fn probe(&mut self, line: LineAddr, downgrade: bool, invalidate: bool) -> ProbeOutcome {
        let state = if invalidate {
            self.invalidate(line)
        } else {
            self.state_of(line)
        };
        let Some(state) = state else {
            return ProbeOutcome::Miss;
        };
        if downgrade && !invalidate {
            let next = state.after_remote_read();
            if !self.l1d.set_state(line, next) {
                self.l2.set_state(line, next);
            }
        }
        ProbeOutcome::Hit {
            state,
            dirty: state.is_dirty(),
        }
    }

    /// Removes the line from the level that holds it, returning the state
    /// it was in; the hierarchy is exclusive, so L2 is walked only if L1
    /// missed. Every invalidating directory probe, for ownership or for a
    /// probe-filter eviction, reaches this through [`CoreCaches::probe`].
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
        self.l1d
            .invalidate(line)
            .or_else(|| self.l2.invalidate(line))
    }

    /// The line's state anywhere in the private hierarchy, without touching
    /// recency or statistics.
    pub fn state_of(&self, line: LineAddr) -> Option<CoherenceState> {
        self.l1d.probe(line).or_else(|| self.l2.probe(line))
    }

    /// True if the line is present anywhere in the private hierarchy.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.state_of(line).is_some()
    }

    /// Drains the lines that have been displaced entirely out of the
    /// hierarchy (L2 capacity victims) since the last call. The buffer
    /// keeps its capacity, so collecting victims never allocates once it
    /// has grown to the largest batch.
    pub fn take_capacity_victims(&mut self) -> std::vec::Drain<'_, EvictedLine> {
        self.pending_victims.drain(..)
    }

    /// L1D statistics.
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Number of lines resident across both levels.
    pub fn resident_lines(&self) -> usize {
        self.l1d.len() + self.l2.len()
    }

    fn install_l1(&mut self, line: LineAddr, state: CoherenceState) {
        if let Some(l1_victim) = self.l1d.insert(line, state) {
            // Exclusive hierarchy: the L1 victim moves down into the L2.
            if let Some(l2_victim) = self.l2.insert(l1_victim.addr, l1_victim.state) {
                self.pending_victims.push(l2_victim);
            }
        }
    }

    /// Exports the complete dynamic state of the hierarchy (both levels plus
    /// any uncollected capacity victims) for checkpointing.
    pub fn export_state(&self) -> CoreCachesState {
        CoreCachesState {
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            pending_victims: self.pending_victims.clone(),
        }
    }

    /// Restores state captured with [`CoreCaches::export_state`] whose
    /// levels each passed [`SetAssocCache::check_state`] for this hierarchy.
    pub fn restore_state(&mut self, state: &CoreCachesState) {
        self.l1d.restore_state(&state.l1d);
        self.l2.restore_state(&state.l2);
        self.pending_victims = state.pending_victims.clone();
    }
}

/// The complete dynamic state of a [`CoreCaches`] hierarchy, as captured by
/// [`CoreCaches::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreCachesState {
    /// The L1 data cache.
    pub l1d: crate::set_assoc::SetAssocState,
    /// The private exclusive L2.
    pub l2: crate::set_assoc::SetAssocState,
    /// L2 capacity victims not yet collected by the simulator.
    pub pending_victims: Vec<EvictedLine>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_types::config::MachineConfig;

    fn caches() -> CoreCaches {
        let cfg = MachineConfig::small_test();
        CoreCaches::new(&cfg.l1d, &cfg.l2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = caches();
        let line = LineAddr::new(10);
        assert_eq!(c.access(line, false), AccessOutcome::Miss);
        c.fill(line, CoherenceState::Exclusive);
        assert_eq!(
            c.access(line, false),
            AccessOutcome::L1Hit { upgrade: false }
        );
        assert!(c.contains(line));
    }

    #[test]
    fn l2_hit_promotes_back_to_l1() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let l1_lines = cfg.l1d.num_lines();
        // Fill more lines than the L1 holds so early lines fall to L2.
        for i in 0..(l1_lines + 8) {
            let line = LineAddr::new(i);
            c.access(line, false);
            c.fill(line, CoherenceState::Exclusive);
        }
        // Line 0 must have been displaced from L1 into L2.
        assert!(c.contains(LineAddr::new(0)));
        let outcome = c.access(LineAddr::new(0), false);
        assert_eq!(outcome, AccessOutcome::L2Hit { upgrade: false });
        // After promotion it hits in L1.
        assert_eq!(
            c.access(LineAddr::new(0), false),
            AccessOutcome::L1Hit { upgrade: false }
        );
    }

    #[test]
    fn access_read_write_upgrade() {
        let mut c = caches();
        let line = LineAddr::new(77);
        assert_eq!(c.access(line, false), AccessOutcome::Miss);
        assert_eq!(c.access(line, true), AccessOutcome::Miss);
        c.fill(line, CoherenceState::Shared);
        assert_eq!(
            c.access(line, false),
            AccessOutcome::L1Hit { upgrade: false }
        );
        assert_eq!(c.access(line, true), AccessOutcome::L1Hit { upgrade: true });
        assert!(c.grant_write(line));
        assert_eq!(
            c.access(line, true),
            AccessOutcome::L1Hit { upgrade: false }
        );
        assert_eq!(c.state_of(line), Some(CoherenceState::Modified));
    }

    #[test]
    fn grant_write_reports_an_invalidated_line() {
        let mut c = caches();
        let line = LineAddr::new(8);
        c.fill(line, CoherenceState::Shared);
        // The copy is invalidated (a concurrent writer took ownership)
        // before the upgrade grant arrives: the grant must report the miss
        // so the grantee can refetch instead of losing the write.
        c.probe(line, false, true);
        assert!(!c.grant_write(line));
        assert!(!c.contains(line));
    }

    #[test]
    fn probe_miss_and_hit() {
        let mut c = caches();
        let line = LineAddr::new(5);
        assert_eq!(c.probe(line, false, false), ProbeOutcome::Miss);
        c.fill(line, CoherenceState::Modified);
        match c.probe(line, false, false) {
            ProbeOutcome::Hit { state, dirty } => {
                assert_eq!(state, CoherenceState::Modified);
                assert!(dirty);
            }
            ProbeOutcome::Miss => panic!("expected a hit"),
        }
        // Non-mutating probe left the line alone.
        assert_eq!(c.state_of(line), Some(CoherenceState::Modified));
    }

    #[test]
    fn probe_downgrade_demotes_dirty_line_to_owned() {
        let mut c = caches();
        let line = LineAddr::new(5);
        c.fill(line, CoherenceState::Modified);
        c.probe(line, true, false);
        assert_eq!(c.state_of(line), Some(CoherenceState::Owned));
        // A clean exclusive line demotes to shared.
        let line2 = LineAddr::new(6);
        c.fill(line2, CoherenceState::Exclusive);
        c.probe(line2, true, false);
        assert_eq!(c.state_of(line2), Some(CoherenceState::Shared));
    }

    #[test]
    fn probe_invalidate_removes_line() {
        let mut c = caches();
        let line = LineAddr::new(5);
        c.fill(line, CoherenceState::Shared);
        c.probe(line, false, true);
        assert!(!c.contains(line));
    }

    #[test]
    fn invalidate_removes_from_either_level() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let l1_lines = cfg.l1d.num_lines();
        for i in 0..(l1_lines + 4) {
            c.fill(LineAddr::new(i), CoherenceState::Exclusive);
        }
        // Line 0 now lives in L2.
        assert_eq!(
            c.invalidate(LineAddr::new(0)),
            Some(CoherenceState::Exclusive)
        );
        assert!(!c.contains(LineAddr::new(0)));
        assert_eq!(c.invalidate(LineAddr::new(9999)), None);
    }

    #[test]
    fn capacity_victims_surface_after_overflow() {
        let cfg = MachineConfig::small_test();
        let mut c = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let total = cfg.l1d.num_lines() + cfg.l2.num_lines();
        // Stream enough distinct lines to overflow L1 + L2 combined.
        for i in 0..(total * 2) {
            c.fill(LineAddr::new(i), CoherenceState::Exclusive);
        }
        let victims: Vec<_> = c.take_capacity_victims().collect();
        assert!(!victims.is_empty());
        // Victims are gone from the hierarchy.
        for v in &victims {
            assert!(!c.contains(v.addr));
        }
        // Draining twice yields nothing new.
        assert_eq!(c.take_capacity_victims().len(), 0);
        // The hierarchy never holds more than its capacity.
        assert!(c.resident_lines() <= total as usize);
    }

    #[test]
    fn write_access_is_still_a_presence_hit() {
        let mut c = caches();
        let line = LineAddr::new(3);
        c.fill(line, CoherenceState::Shared);
        assert_eq!(c.access(line, true), AccessOutcome::L1Hit { upgrade: true });
    }

    /// Every resident state × load/store × level, and both kinds of miss,
    /// map to the expected outcome. `RequestKind::for_access`'s own table
    /// (in `allarm-coherence`) maps each outcome to its request.
    #[test]
    fn access_outcome_table() {
        use CoherenceState::{Exclusive, Modified, Owned, Shared};
        // (state, store, upgrade): a store needs an upgrade exactly when
        // the state cannot be written.
        let rows = [
            (Modified, false, false),
            (Modified, true, false),
            (Owned, false, false),
            (Owned, true, true),
            (Exclusive, false, false),
            (Exclusive, true, false),
            (Shared, false, false),
            (Shared, true, true),
        ];
        let l1_sets = MachineConfig::small_test().l1d.num_sets();
        let line = LineAddr::new(7);
        for (state, write, upgrade) in rows {
            let mut c = caches();
            c.fill(line, state);
            let outcome = c.access(line, write);
            assert_eq!(outcome, AccessOutcome::L1Hit { upgrade }, "{state} in L1");
            assert_eq!(c.state_of(line), Some(state));

            // Two fills into the line's 2-way L1 set push it down to L2.
            let mut c = caches();
            c.fill(line, state);
            for k in 1..=2 {
                c.fill(LineAddr::new(7 + k * l1_sets), Shared);
            }
            let outcome = c.access(line, write);
            assert_eq!(outcome, AccessOutcome::L2Hit { upgrade }, "{state} in L2");
            assert_eq!(c.state_of(line), Some(state));
        }
        for write in [false, true] {
            assert_eq!(caches().access(line, write), AccessOutcome::Miss);
        }
    }
}
