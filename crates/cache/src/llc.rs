//! The shared per-node LLC slice (NUCA).
//!
//! Each NUMA node optionally owns one slice, shared by the node's cores,
//! sitting on the miss path between the private L2s and the home
//! directory. The slice is **inclusive of nothing** and holds only clean
//! `Shared` copies: it fills when a core on the node receives a `Shared`
//! data reply, and a later read miss from any core on the same node can be
//! served from the slice without consulting the home directory. Writable
//! (`Exclusive`/`Modified`) fills never enter the slice: a store hits a
//! writable copy without any directory message
//! (`CoherenceState::can_write`), so a slice copy of such a line could go
//! stale unannounced. (After such a store an `Exclusive` line stays
//! `Exclusive`: `CoreCaches::access` does not model the E→M transition.)
//!
//! Coherence invariant: *slice-resident ⇒ probe-filter-tracked*. Every
//! `Shared` fill is tracked by the home directory, and the directory keeps
//! the node's presence bit alive while the slice holds the line (private
//! evictions check the slice before clearing it), so ownership
//! invalidations and probe-filter evictions always reach the slice.

use crate::set_assoc::{SetAssocCache, SetAssocState};
use crate::state::CoherenceState;
use crate::stats::CacheStats;
use allarm_types::addr::LineAddr;
use allarm_types::config::LlcConfig;

/// One node's shared LLC slice: a set-associative array of clean `Shared`
/// lines with LRU replacement.
///
/// # Examples
///
/// ```
/// use allarm_cache::LlcSlice;
/// use allarm_types::{addr::LineAddr, config::LlcConfig};
///
/// let mut slice = LlcSlice::new(&LlcConfig::shared_slice(64 * 1024, 16));
/// let line = LineAddr::new(9);
/// assert!(!slice.lookup(line));
/// slice.fill(line);
/// assert!(slice.lookup(line));
/// ```
#[derive(Debug, Clone)]
pub struct LlcSlice {
    array: SetAssocCache,
}

impl LlcSlice {
    /// Creates a slice with the configured geometry and LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry; validate the [`LlcConfig`] first to
    /// get an error instead.
    pub fn new(config: &LlcConfig) -> Self {
        LlcSlice {
            array: SetAssocCache::new(&config.cache_config()),
        }
    }

    /// A core-phase lookup by a core on this slice's node: updates recency
    /// and hit/miss statistics. Returns whether the line was resident.
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.array.lookup(line).is_some()
    }

    /// A directory-phase presence check: no recency update, no statistics
    /// (safe to call concurrently-in-effect from any shard — the slice is
    /// not observably mutated).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.array.probe(line).is_some()
    }

    /// Inserts a clean `Shared` copy of `line` after a data reply. A
    /// capacity victim is dropped silently — slice lines are never dirty,
    /// so nothing is written back and the directory is not notified (the
    /// node's cores may still hold private copies, so node presence must
    /// stay tracked regardless).
    pub fn fill(&mut self, line: LineAddr) {
        self.array.insert(line, CoherenceState::Shared);
    }

    /// Removes `line` on a directory-initiated invalidation (ownership
    /// transfer or probe-filter eviction). Returns whether the line was
    /// resident. Besides the removal it bumps only commutative counters, so
    /// concurrent invalidations of different lines commute up to the set's
    /// storage order, which lookups ignore and checkpoints do not record.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.array.invalidate(line).is_some()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> &CacheStats {
        self.array.stats()
    }

    /// Exports the slice's complete dynamic state for checkpointing.
    pub fn export_state(&self) -> SetAssocState {
        self.array.export_state()
    }

    /// Restores state captured with [`LlcSlice::export_state`] that passed
    /// [`SetAssocCache::check_state`] for [`LlcConfig::cache_config`].
    pub fn restore_state(&mut self, state: &SetAssocState) {
        self.array.restore_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> LlcSlice {
        // 64 lines: 4 sets x 16 ways.
        LlcSlice::new(&LlcConfig::shared_slice(4 * 1024, 16))
    }

    #[test]
    fn fill_then_lookup_hits_and_counts() {
        let mut s = slice();
        let line = LineAddr::new(5);
        assert!(!s.lookup(line));
        s.fill(line);
        assert!(s.lookup(line));
        assert_eq!(s.stats().hits.get(), 1);
        assert_eq!(s.stats().misses.get(), 1);
    }

    #[test]
    fn probe_is_pure() {
        let mut s = slice();
        s.fill(LineAddr::new(1));
        let before = *s.stats();
        assert!(s.probe(LineAddr::new(1)));
        assert!(!s.probe(LineAddr::new(2)));
        assert_eq!(*s.stats(), before);
        let snap = s.export_state();
        s.probe(LineAddr::new(1));
        assert_eq!(s.export_state(), snap, "probe must not move recency");
    }

    #[test]
    fn invalidate_removes_and_reports_presence() {
        let mut s = slice();
        s.fill(LineAddr::new(3));
        assert!(s.invalidate(LineAddr::new(3)));
        assert!(!s.invalidate(LineAddr::new(3)));
        assert!(s.is_empty());
        assert_eq!(s.stats().invalidations.get(), 1);
        // Slice lines are clean Shared: never written back.
        assert_eq!(s.stats().writebacks.get(), 0);
    }

    #[test]
    fn capacity_victims_are_silent_clean_drops() {
        // 1-set direct test: 64 lines capacity, all to one slice.
        let mut s = LlcSlice::new(&LlcConfig::shared_slice(4 * 1024, 16));
        for i in 0..300u64 {
            s.fill(LineAddr::new(i));
        }
        assert_eq!(s.len(), 64);
        assert!(s.stats().evictions.get() > 0);
        assert_eq!(s.stats().writebacks.get(), 0);
    }

    #[test]
    fn export_restore_roundtrips() {
        let mut s = slice();
        for i in 0..10u64 {
            s.fill(LineAddr::new(i * 3));
        }
        s.lookup(LineAddr::new(3));
        let snap = s.export_state();
        let mut restored = slice();
        restored.restore_state(&snap);
        assert_eq!(restored.export_state(), snap);
        assert_eq!(restored.len(), s.len());
    }
}
