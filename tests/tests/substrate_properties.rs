//! Randomized property tests of the substrate data structures: caches and
//! the private hierarchy, the probe filter, the mesh and the NUMA
//! allocator.
//!
//! The workspace builds offline, so instead of proptest these use the
//! engine's own [`StreamRng`] to generate many random operation sequences
//! from fixed seeds — fully deterministic, reproducible by seed, and with
//! the failing case number printed on assertion failure.

use std::collections::HashSet;

use allarm_cache::{
    AccessOutcome, CoherenceState, CoreCaches, EvictedLine, ProbeOutcome, SetAssocCache,
};
use allarm_coherence::{ProbeFilter, RequestKind};
use allarm_engine::StreamRng;
use allarm_mem::{NumaAllocator, NumaPolicy};
use allarm_noc::Mesh;
use allarm_types::addr::{LineAddr, VirtAddr, PAGE_BYTES};
use allarm_types::config::{CacheConfig, DramConfig, MachineConfig, ProbeFilterConfig};
use allarm_types::ids::{CoreId, NodeId};

/// Runs `body` for `cases` independent random cases. On a failure the
/// case index (the stream label under root seed `0x5E5D_2014`) is printed
/// before the panic propagates, so the failing sequence can be replayed
/// in isolation.
fn for_cases(cases: u64, body: impl Fn(&mut StreamRng)) {
    let root = StreamRng::from_seed(0x5E5D_2014);
    for case in 0..cases {
        let mut rng = root.stream(case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "randomized case {case} failed (replay: StreamRng::from_seed(0x5E5D_2014).stream({case}))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// A set-associative cache never holds more lines than its capacity and
/// never holds the same line twice, for any insert/invalidate sequence.
#[test]
fn cache_capacity_and_uniqueness() {
    for_cases(64, |rng| {
        let mut cache = SetAssocCache::new(&CacheConfig::new(4096, 4, 1));
        let ops = 1 + rng.below(399);
        for _ in 0..ops {
            let line = LineAddr::new(rng.below(256));
            if rng.chance(0.5) {
                cache.invalidate(line);
            } else {
                cache.insert(line, CoherenceState::Exclusive);
            }
            assert!(cache.len() <= cache.capacity());
            let mut seen = std::collections::HashSet::new();
            for (addr, _) in cache.iter() {
                assert!(seen.insert(addr), "line {addr} present twice");
            }
        }
    });
}

/// After inserting a line it is always findable until it is evicted or
/// invalidated.
#[test]
fn cache_insert_makes_line_resident() {
    for_cases(64, |rng| {
        let mut cache = SetAssocCache::new(&CacheConfig::new(2048, 2, 1));
        let ops = 1 + rng.below(199);
        for _ in 0..ops {
            let line = LineAddr::new(rng.below(512));
            cache.insert(line, CoherenceState::Shared);
            assert_eq!(cache.probe(line), Some(CoherenceState::Shared));
        }
    });
}

/// A private L1D + exclusive L2 kept as two bare arrays and driven by the
/// calls a core made before [`CoreCaches::access`] answered in one walk:
/// the need from side-effect-free probes of both levels, then an L1
/// lookup, then an L2 lookup whose hit is removed and moved up to L1. An
/// invalidation removes the line from both levels.
struct TwoCallHierarchy {
    l1d: SetAssocCache,
    l2: SetAssocCache,
    victims: Vec<EvictedLine>,
}

impl TwoCallHierarchy {
    fn state_of(&self, line: LineAddr) -> Option<CoherenceState> {
        self.l1d.probe(line).or_else(|| self.l2.probe(line))
    }

    fn access(&mut self, line: LineAddr, write: bool) -> Option<RequestKind> {
        let need = match self.state_of(line) {
            None if write => Some(RequestKind::GetX),
            None => Some(RequestKind::GetS),
            Some(state) => (write && !state.can_write()).then_some(RequestKind::Upgrade),
        };
        if self.l1d.lookup(line).is_none() {
            if let Some(state) = self.l2.lookup(line) {
                self.l2.remove_silently(line);
                self.fill(line, state);
            }
        }
        need
    }

    fn fill(&mut self, line: LineAddr, state: CoherenceState) {
        if let Some(victim) = self.l1d.insert(line, state) {
            self.victims
                .extend(self.l2.insert(victim.addr, victim.state));
        }
    }

    /// Sets a resident line's state, in L1 if it is there, else in L2.
    fn set_state(&mut self, line: LineAddr, state: CoherenceState) -> bool {
        self.l1d.map_state(line, |_| state).is_some()
            || self.l2.map_state(line, |_| state).is_some()
    }

    fn grant_write(&mut self, line: LineAddr) -> bool {
        self.set_state(line, CoherenceState::Modified)
    }

    fn probe(&mut self, line: LineAddr, downgrade: bool, invalidate: bool) -> ProbeOutcome {
        let Some(state) = self.state_of(line) else {
            return ProbeOutcome::Miss;
        };
        if invalidate {
            self.invalidate(line);
        } else if downgrade {
            self.set_state(line, state.after_remote_read());
        }
        ProbeOutcome::Hit {
            state,
            dirty: state.is_dirty(),
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<CoherenceState> {
        let in_l1 = self.l1d.invalidate(line);
        let in_l2 = self.l2.invalidate(line);
        in_l1.or(in_l2)
    }
}

/// One walk per level leaves the hierarchy exactly as the two calls did.
/// Random accesses (a miss followed by the fill of that line, as in the
/// kernel), write grants, probes and invalidations over a line range three
/// times the small machine's L1D + L2 capacity drive [`CoreCaches`] and
/// [`TwoCallHierarchy`] side by side. After every step the request, each
/// call's result, both levels' exported ways, clocks and statistics, and
/// the capacity victims must match, and no line may sit in both levels:
/// [`CoreCaches::invalidate`] stops at the L1 on that rule.
#[test]
fn one_hierarchy_walk_matches_the_two_call_sequence() {
    let cfg = MachineConfig::small_test();
    let span = 3 * (cfg.l1d.num_lines() + cfg.l2.num_lines());
    for_cases(8, |rng| {
        let mut caches = CoreCaches::new(&cfg.l1d, &cfg.l2);
        let mut reference = TwoCallHierarchy {
            l1d: SetAssocCache::new(&cfg.l1d),
            l2: SetAssocCache::new(&cfg.l2),
            victims: Vec::new(),
        };
        let mut outcomes = Vec::new();
        let mut victims_seen = 0;
        for _ in 0..2_000 {
            let line = LineAddr::new(rng.below(span));
            match rng.below(10) {
                0..=5 => {
                    let write = rng.chance(0.4);
                    let outcome = caches.access(line, write);
                    if !outcomes.contains(&outcome) {
                        outcomes.push(outcome);
                    }
                    let request = RequestKind::for_access(outcome, write);
                    assert_eq!(request, reference.access(line, write), "{outcome:?}");
                    if outcome == AccessOutcome::Miss {
                        let state = if write {
                            CoherenceState::Modified
                        } else if rng.chance(0.5) {
                            CoherenceState::Exclusive
                        } else {
                            CoherenceState::Shared
                        };
                        caches.fill(line, state);
                        reference.fill(line, state);
                    }
                }
                6 => assert_eq!(caches.grant_write(line), reference.grant_write(line)),
                7 | 8 => {
                    let (downgrade, invalidate) = (rng.chance(0.5), rng.chance(0.5));
                    assert_eq!(
                        caches.probe(line, downgrade, invalidate),
                        reference.probe(line, downgrade, invalidate)
                    );
                }
                _ => assert_eq!(caches.invalidate(line), reference.invalidate(line)),
            }

            let state = caches.export_state();
            assert_eq!(state.l1d, reference.l1d.export_state());
            assert_eq!(state.l2, reference.l2.export_state());
            let victims: Vec<EvictedLine> = caches.take_capacity_victims().collect();
            assert_eq!(victims, std::mem::take(&mut reference.victims));
            victims_seen += victims.len();
            let in_l1: HashSet<LineAddr> =
                state.l1d.sets.iter().flatten().map(|w| w.addr).collect();
            for way in state.l2.sets.iter().flatten() {
                assert!(!in_l1.contains(&way.addr), "{} in L1 and L2", way.addr);
            }
        }
        // Lines spilled out of the hierarchy, and every kind of outcome
        // was exercised.
        assert!(victims_seen > 0);
        for upgrade in [false, true] {
            assert!(outcomes.contains(&AccessOutcome::L1Hit { upgrade }));
            assert!(outcomes.contains(&AccessOutcome::L2Hit { upgrade }));
        }
        assert!(outcomes.contains(&AccessOutcome::Miss));
    });
}

/// The probe filter never exceeds its capacity, and its occupancy accounting
/// balances: allocations = evictions + resident + deallocations. As the
/// directory does, only lines without an entry are allocated.
#[test]
fn probe_filter_occupancy_bounded() {
    for_cases(64, |rng| {
        let mut pf = ProbeFilter::new(&ProbeFilterConfig::new(64 * 64, 4));
        let ops = 1 + rng.below(499);
        for _ in 0..ops {
            let line = LineAddr::new(rng.below(2048));
            if pf.find(line).is_some() {
                continue;
            }
            let (slot, _) = pf.allocate(line, CoreId::new(0));
            assert_eq!(
                pf.find(line),
                Some(slot),
                "freshly allocated entry must be present"
            );
            assert!(pf.occupancy() <= pf.capacity());
        }
        let stats = pf.stats();
        assert_eq!(
            stats.evictions.get() + pf.occupancy() as u64 + stats.deallocations.get(),
            stats.allocations.get(),
            "allocations = evictions + resident + deallocations"
        );
    });
}

/// XY routing: the route length always equals the Manhattan distance plus
/// one, endpoints match, and consecutive nodes are mesh neighbours.
#[test]
fn mesh_routes_are_minimal_and_connected() {
    for_cases(64, |rng| {
        let width = 1 + rng.below(5) as u32;
        let height = 1 + rng.below(5) as u32;
        let mesh = Mesh::new(width, height);
        let n = (width * height) as u16;
        let from = NodeId::new((rng.below(36) % u64::from(n)) as u16);
        let to = NodeId::new((rng.below(36) % u64::from(n)) as u16);
        let route = mesh.route(from, to);
        assert_eq!(route.len() as u32, mesh.hops(from, to) + 1);
        assert_eq!(route.first().copied(), Some(from));
        assert_eq!(route.last().copied(), Some(to));
        for pair in route.windows(2) {
            assert_eq!(mesh.hops(pair[0], pair[1]), 1);
        }
    });
}

/// First-touch placement homes a page on its first toucher whenever that
/// node has capacity, and translations are stable afterwards.
#[test]
fn first_touch_is_sticky() {
    for_cases(64, |rng| {
        let mut numa = NumaAllocator::new(
            4,
            DramConfig::new(256 * PAGE_BYTES, 60),
            NumaPolicy::FirstTouch,
        );
        let mut first: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
        let touches = 1 + rng.below(199);
        for _ in 0..touches {
            let page = rng.below(64);
            let node = rng.below(4) as u16;
            let vaddr = VirtAddr::new(page * PAGE_BYTES + 8);
            let frame = numa.translate(vaddr, NodeId::new(node));
            match first.entry(page) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    // Plenty of capacity in this test, so no spills: the home
                    // is the first toucher.
                    assert_eq!(frame.home, NodeId::new(node));
                    e.insert(frame.home);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(frame.home, *e.get(), "mapping must be stable");
                }
            }
            assert_eq!(numa.home_of_page(frame.phys_page), frame.home);
        }
    });
}
