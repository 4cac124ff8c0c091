//! Randomized property tests of the substrate data structures: caches, the
//! probe filter, the mesh and the NUMA allocator.
//!
//! The workspace builds offline, so instead of proptest these use the
//! engine's own [`StreamRng`] to generate many random operation sequences
//! from fixed seeds — fully deterministic, reproducible by seed, and with
//! the failing case number printed on assertion failure.

use allarm_cache::{CoherenceState, ReplacementPolicy, SetAssocCache};
use allarm_coherence::ProbeFilter;
use allarm_engine::StreamRng;
use allarm_mem::{NumaAllocator, NumaPolicy};
use allarm_noc::Mesh;
use allarm_types::addr::{LineAddr, VirtAddr, PAGE_BYTES};
use allarm_types::config::{CacheConfig, DramConfig, ProbeFilterConfig};
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
        let policy = *rng
            .choose(&[
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ])
            .unwrap();
        let mut cache = SetAssocCache::with_policy(&CacheConfig::new(4096, 4, 1), policy);
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

/// The probe filter never exceeds its capacity, and its occupancy accounting
/// balances: allocations = evictions + resident + deallocations.
#[test]
fn probe_filter_occupancy_bounded() {
    for_cases(64, |rng| {
        let mut pf = ProbeFilter::new(&ProbeFilterConfig::new(64 * 64, 4));
        let ops = 1 + rng.below(499);
        for _ in 0..ops {
            let line = LineAddr::new(rng.below(2048));
            pf.allocate(line, CoreId::new(0));
            assert!(
                pf.peek(line).is_some(),
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
