//! Page-granularity NUMA allocation with first-touch / next-touch semantics.

use crate::policy::NumaPolicy;
use allarm_types::addr::{LineAddr, PageAddr, PhysAddr, VirtAddr, PAGE_BYTES};
use allarm_types::config::DramConfig;
use allarm_types::ids::NodeId;
use allarm_types::stats::Counter;
use std::collections::HashMap;

/// The result of translating a virtual address: the physical frame backing
/// its page and the NUMA node that frame lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Physical page number.
    pub phys_page: PageAddr,
    /// Home node of the page (the node whose memory controller and directory
    /// own every line of the page).
    pub home: NodeId,
    /// True if this translation allocated the page (i.e. this was the first
    /// touch).
    pub newly_allocated: bool,
}

impl Frame {
    /// Physical address of `vaddr` within this frame.
    pub fn phys_addr(&self, vaddr: VirtAddr) -> PhysAddr {
        PhysAddr::new(self.phys_page.raw() * PAGE_BYTES + vaddr.page_offset())
    }

    /// Physical cache line containing `vaddr`.
    pub fn line(&self, vaddr: VirtAddr) -> LineAddr {
        self.phys_addr(vaddr).line()
    }
}

/// Allocation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// Pages allocated on the toucher's preferred node.
    pub local_allocations: Counter,
    /// Pages that had to spill to a different node because the preferred
    /// node's DRAM slice was full (the best-effort failure mode the paper
    /// mentions in Section II-A).
    pub spilled_allocations: Counter,
    /// Pages re-homed by the next-touch policy.
    pub rehomed_pages: Counter,
}

/// Page-granularity NUMA memory allocator.
///
/// Pages are homed according to a [`NumaPolicy`]; physical page numbers
/// encode their home node (`node * pages_per_node + slot`), so any component
/// can recover the home node of a physical line with [`NumaAllocator::home_of_line`]
/// without consulting the page table again — exactly the role the real
/// machine's memory-controller address decoding plays.
///
/// # Examples
///
/// ```
/// use allarm_mem::{NumaAllocator, NumaPolicy};
/// use allarm_types::{config::DramConfig, ids::NodeId, addr::VirtAddr};
///
/// let mut numa = NumaAllocator::new(2, DramConfig::new(1 << 20, 60), NumaPolicy::FirstTouch);
/// let frame = numa.translate(VirtAddr::new(0x42_000), NodeId::new(1));
/// assert!(frame.newly_allocated);
/// assert_eq!(numa.home_of_line(frame.line(VirtAddr::new(0x42_000))), NodeId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct NumaAllocator {
    num_nodes: usize,
    pages_per_node: u64,
    policy: NumaPolicy,
    /// Virtual page -> (physical frame, first toucher) mapping.
    page_table: HashMap<PageAddr, PageMapping>,
    /// Next free slot within each node's DRAM slice.
    next_slot: Vec<u64>,
    /// Round-robin cursor for the interleaved policy and for spill placement.
    round_robin: usize,
    stats: NumaStats,
}

#[derive(Debug, Clone, Copy)]
struct PageMapping {
    phys_page: PageAddr,
    home: NodeId,
    first_toucher: NodeId,
    touches: u32,
}

/// One mapped virtual page of a checkpointed [`NumaAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntryState {
    /// The virtual page.
    pub vpage: PageAddr,
    /// The physical frame backing it.
    pub phys_page: PageAddr,
    /// The page's home node.
    pub home: NodeId,
    /// The node that first touched the page (drives next-touch).
    pub first_toucher: NodeId,
    /// Touch count (next-touch arms while this is 1).
    pub touches: u32,
}

/// The complete dynamic state of a [`NumaAllocator`], as captured by
/// [`NumaAllocator::export_state`]. Canonical: pages sorted by virtual page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaAllocatorState {
    /// Every mapped page, sorted by virtual page number.
    pub pages: Vec<PageEntryState>,
    /// Next free slot within each node's DRAM slice.
    pub next_slot: Vec<u64>,
    /// Round-robin cursor (interleaved placement and spill).
    pub round_robin: u64,
    /// Allocation statistics at capture time.
    pub stats: NumaStats,
}

impl NumaAllocator {
    /// Creates an allocator for `num_nodes` nodes whose DRAM slices follow
    /// `dram`, homing pages according to `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn new(num_nodes: usize, dram: DramConfig, policy: NumaPolicy) -> Self {
        assert!(num_nodes > 0, "a NUMA system needs at least one node");
        NumaAllocator {
            num_nodes,
            pages_per_node: dram.pages_per_node(),
            policy,
            page_table: HashMap::new(),
            next_slot: vec![0; num_nodes],
            round_robin: 0,
            stats: NumaStats::default(),
        }
    }

    /// The placement policy in force.
    pub fn policy(&self) -> NumaPolicy {
        self.policy
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Translates a virtual address touched by a core on `toucher` into a
    /// physical frame, allocating the page according to the policy if this is
    /// its first touch.
    pub fn translate(&mut self, vaddr: VirtAddr, toucher: NodeId) -> Frame {
        let vpage = vaddr.page();
        if let Some(mapping) = self.page_table.get(&vpage).copied() {
            return self.retouch(vpage, mapping, toucher);
        }
        let preferred = self.preferred_node(toucher);
        let (phys_page, home) = self.allocate_page(preferred);
        self.page_table.insert(
            vpage,
            PageMapping {
                phys_page,
                home,
                first_toucher: toucher,
                touches: 1,
            },
        );
        Frame {
            phys_page,
            home,
            newly_allocated: true,
        }
    }

    /// Read-only translation: the frame backing `vaddr` if the page is
    /// mapped *and* no policy action is pending, `None` otherwise.
    ///
    /// `None` means the touch must go through [`NumaAllocator::translate`]
    /// (which needs `&mut self`): either the page is unmapped (a first-touch
    /// allocation), or the next-touch policy is still armed on it (the
    /// second touch may re-home the page). The sharded simulation kernel
    /// relies on this split — cores translate concurrently through `lookup`
    /// and route the rare mutating touches ("page faults") through a
    /// deterministic serial merge step.
    pub fn lookup(&self, vaddr: VirtAddr) -> Option<Frame> {
        let mapping = self.page_table.get(&vaddr.page())?;
        if self.policy == NumaPolicy::NextTouch && mapping.touches == 1 {
            // The second touch decides whether the page is re-homed, so it
            // must be a mutating touch no matter which node makes it.
            return None;
        }
        Some(Frame {
            phys_page: mapping.phys_page,
            home: mapping.home,
            newly_allocated: false,
        })
    }

    /// Returns the current mapping of a virtual page, if it has been touched.
    pub fn mapping_of(&self, vpage: PageAddr) -> Option<(PageAddr, NodeId)> {
        self.page_table.get(&vpage).map(|m| (m.phys_page, m.home))
    }

    /// Returns the home node of a physical cache line.
    ///
    /// Physical pages are laid out as `node * pages_per_node + slot`, so the
    /// home node is recovered by integer division — the same address
    /// decoding a real memory controller performs.
    pub fn home_of_line(&self, line: LineAddr) -> NodeId {
        self.home_of_page(line.page())
    }

    /// Returns the home node of a physical page.
    pub fn home_of_page(&self, page: PageAddr) -> NodeId {
        let node = (page.raw() / self.pages_per_node) as usize % self.num_nodes;
        NodeId::new(node as u16)
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &NumaStats {
        &self.stats
    }

    /// Number of pages currently allocated on `node`.
    pub fn pages_on_node(&self, node: NodeId) -> u64 {
        self.next_slot[node.index()]
    }

    /// Total number of mapped virtual pages.
    pub fn mapped_pages(&self) -> usize {
        self.page_table.len()
    }

    /// Exports the complete dynamic state of the allocator for
    /// checkpointing. Page-table entries are emitted sorted by virtual page
    /// so the export is canonical (independent of `HashMap` iteration
    /// order).
    pub fn export_state(&self) -> NumaAllocatorState {
        let mut pages: Vec<PageEntryState> = self
            .page_table
            .iter()
            .map(|(&vpage, m)| PageEntryState {
                vpage,
                phys_page: m.phys_page,
                home: m.home,
                first_toucher: m.first_toucher,
                touches: m.touches,
            })
            .collect();
        pages.sort_by_key(|p| p.vpage.raw());
        NumaAllocatorState {
            pages,
            next_slot: self.next_slot.clone(),
            round_robin: self.round_robin as u64,
            stats: self.stats.clone(),
        }
    }

    /// Checks that `state` is a page table an allocator for `num_nodes`
    /// nodes of `dram` could have written, as [`NumaAllocator::restore_state`]
    /// and later translations assume: one next-slot cursor per node, and
    /// each virtual page listed once, in order, first touched on a node, and
    /// homed on the node its frame number encodes, below that node's next
    /// free slot, in a frame of its own (found with the one allocation here,
    /// a sorted list of the frames).
    ///
    /// # Errors
    ///
    /// The reason, with the page table as its subject (`maps two ...`).
    pub fn check_state(
        num_nodes: usize,
        dram: DramConfig,
        state: &NumaAllocatorState,
    ) -> Result<(), String> {
        if state.next_slot.len() != num_nodes {
            let cursors = state.next_slot.len();
            return Err(format!(
                "has {cursors} next-slot cursors for {num_nodes} nodes"
            ));
        }
        let pages_per_node = dram.pages_per_node();
        for (i, page) in state.pages.iter().enumerate() {
            let (vpage, frame) = (page.vpage.raw(), page.phys_page.raw());
            let node = frame / pages_per_node;
            let next = state.next_slot.get(node as usize);
            let why = if i > 0 && state.pages[i - 1].vpage.raw() >= vpage {
                "lists the page twice or out of order".to_string()
            } else if u64::from(page.home.raw()) != node {
                format!("homes the page on {}", page.home)
            } else if next.is_none_or(|&next| frame % pages_per_node >= next) {
                "its node has not allocated that frame".to_string()
            } else if page.first_toucher.index() >= num_nodes {
                format!("has it first touched on {}", page.first_toucher)
            } else {
                continue;
            };
            return Err(format!(
                "maps virtual page {vpage:#x} to frame {frame:#x} of node {node}, but {why}"
            ));
        }
        let mut frames: Vec<u64> = state.pages.iter().map(|p| p.phys_page.raw()).collect();
        frames.sort_unstable();
        match frames.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(format!("maps two virtual pages to frame {:#x}", pair[0])),
            None => Ok(()),
        }
    }

    /// Restores state captured with [`NumaAllocator::export_state`] that
    /// passed [`NumaAllocator::check_state`] for this allocator's geometry.
    pub fn restore_state(&mut self, state: &NumaAllocatorState) {
        self.page_table = state
            .pages
            .iter()
            .map(|p| {
                (
                    p.vpage,
                    PageMapping {
                        phys_page: p.phys_page,
                        home: p.home,
                        first_toucher: p.first_toucher,
                        touches: p.touches,
                    },
                )
            })
            .collect();
        self.next_slot = state.next_slot.clone();
        self.round_robin = state.round_robin as usize;
        self.stats = state.stats.clone();
    }

    fn retouch(&mut self, vpage: PageAddr, mapping: PageMapping, toucher: NodeId) -> Frame {
        // Next-touch: the second toucher (if different from the first)
        // re-homes the page.
        if self.policy == NumaPolicy::NextTouch
            && mapping.touches == 1
            && toucher != mapping.first_toucher
        {
            let (phys_page, home) = self.allocate_page(toucher);
            self.stats.rehomed_pages.incr();
            let entry = self.page_table.get_mut(&vpage).expect("mapping exists");
            entry.phys_page = phys_page;
            entry.home = home;
            entry.touches += 1;
            return Frame {
                phys_page,
                home,
                newly_allocated: false,
            };
        }
        let entry = self.page_table.get_mut(&vpage).expect("mapping exists");
        entry.touches = entry.touches.saturating_add(1);
        Frame {
            phys_page: mapping.phys_page,
            home: mapping.home,
            newly_allocated: false,
        }
    }

    fn preferred_node(&mut self, toucher: NodeId) -> NodeId {
        match self.policy {
            NumaPolicy::FirstTouch | NumaPolicy::NextTouch => toucher,
            NumaPolicy::Fixed(node) => node,
            NumaPolicy::Interleaved => {
                let node = NodeId::new((self.round_robin % self.num_nodes) as u16);
                self.round_robin += 1;
                node
            }
        }
    }

    /// Allocates a physical page, preferring `preferred` but spilling to the
    /// next node with free capacity when the preferred slice is full.
    fn allocate_page(&mut self, preferred: NodeId) -> (PageAddr, NodeId) {
        for offset in 0..self.num_nodes {
            let candidate = (preferred.index() + offset) % self.num_nodes;
            if self.next_slot[candidate] < self.pages_per_node {
                let slot = self.next_slot[candidate];
                self.next_slot[candidate] += 1;
                if offset == 0 {
                    self.stats.local_allocations.incr();
                } else {
                    self.stats.spilled_allocations.incr();
                }
                let phys_page = PageAddr::new(candidate as u64 * self.pages_per_node + slot);
                return (phys_page, NodeId::new(candidate as u16));
            }
        }
        panic!(
            "physical memory exhausted: all {} nodes are full",
            self.num_nodes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dram() -> DramConfig {
        // 4 pages per node.
        DramConfig::new(4 * PAGE_BYTES, 60)
    }

    #[test]
    fn first_touch_homes_on_toucher() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::FirstTouch);
        let f = numa.translate(VirtAddr::new(0x5000), NodeId::new(3));
        assert_eq!(f.home, NodeId::new(3));
        assert!(f.newly_allocated);
        // Subsequent touches from other nodes keep the mapping.
        let g = numa.translate(VirtAddr::new(0x5fff), NodeId::new(0));
        assert_eq!(g.home, NodeId::new(3));
        assert!(!g.newly_allocated);
        assert_eq!(g.phys_page, f.phys_page);
    }

    #[test]
    fn distinct_virtual_pages_get_distinct_frames() {
        let mut numa = NumaAllocator::new(2, small_dram(), NumaPolicy::FirstTouch);
        let a = numa.translate(VirtAddr::new(0), NodeId::new(0));
        let b = numa.translate(VirtAddr::new(PAGE_BYTES), NodeId::new(0));
        assert_ne!(a.phys_page, b.phys_page);
        assert_eq!(numa.mapped_pages(), 2);
        assert_eq!(numa.pages_on_node(NodeId::new(0)), 2);
    }

    #[test]
    fn home_of_line_recovers_node_from_phys_layout() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::FirstTouch);
        for node in 0..4u16 {
            let vaddr = VirtAddr::new(u64::from(node) * PAGE_BYTES * 16);
            let f = numa.translate(vaddr, NodeId::new(node));
            assert_eq!(numa.home_of_line(f.line(vaddr)), NodeId::new(node));
            assert_eq!(numa.home_of_page(f.phys_page), NodeId::new(node));
        }
    }

    #[test]
    fn spills_to_other_node_when_full() {
        // 4 pages per node; allocate 5 pages from node 0.
        let mut numa = NumaAllocator::new(2, small_dram(), NumaPolicy::FirstTouch);
        for i in 0..5u64 {
            numa.translate(VirtAddr::new(i * PAGE_BYTES), NodeId::new(0));
        }
        assert_eq!(numa.stats().local_allocations.get(), 4);
        assert_eq!(numa.stats().spilled_allocations.get(), 1);
        assert_eq!(numa.pages_on_node(NodeId::new(0)), 4);
        assert_eq!(numa.pages_on_node(NodeId::new(1)), 1);
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn exhausting_all_nodes_panics() {
        let mut numa = NumaAllocator::new(1, small_dram(), NumaPolicy::FirstTouch);
        for i in 0..5u64 {
            numa.translate(VirtAddr::new(i * PAGE_BYTES), NodeId::new(0));
        }
    }

    #[test]
    fn interleaved_round_robins() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::Interleaved);
        let homes: Vec<NodeId> = (0..4u64)
            .map(|i| {
                numa.translate(VirtAddr::new(i * PAGE_BYTES), NodeId::new(0))
                    .home
            })
            .collect();
        assert_eq!(
            homes,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn fixed_policy_homes_everything_on_one_node() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::Fixed(NodeId::new(2)));
        for i in 0..3u64 {
            let f = numa.translate(VirtAddr::new(i * PAGE_BYTES), NodeId::new(i as u16));
            assert_eq!(f.home, NodeId::new(2));
        }
    }

    #[test]
    fn next_touch_rehomes_on_second_distinct_toucher() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::NextTouch);
        // Thread 0 initialises the page...
        let f = numa.translate(VirtAddr::new(0x9000), NodeId::new(0));
        assert_eq!(f.home, NodeId::new(0));
        // ...thread 2 is the real user: the page moves to node 2.
        let g = numa.translate(VirtAddr::new(0x9000), NodeId::new(2));
        assert_eq!(g.home, NodeId::new(2));
        assert_eq!(numa.stats().rehomed_pages.get(), 1);
        // Further touches keep the new home.
        let h = numa.translate(VirtAddr::new(0x9000), NodeId::new(0));
        assert_eq!(h.home, NodeId::new(2));
    }

    #[test]
    fn next_touch_same_toucher_does_not_rehome() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::NextTouch);
        numa.translate(VirtAddr::new(0x9000), NodeId::new(1));
        let g = numa.translate(VirtAddr::new(0x9000), NodeId::new(1));
        assert_eq!(g.home, NodeId::new(1));
        assert_eq!(numa.stats().rehomed_pages.get(), 0);
    }

    #[test]
    fn frame_phys_addr_preserves_offset() {
        let mut numa = NumaAllocator::new(2, small_dram(), NumaPolicy::FirstTouch);
        let vaddr = VirtAddr::new(3 * PAGE_BYTES + 321);
        let f = numa.translate(vaddr, NodeId::new(1));
        let pa = f.phys_addr(vaddr);
        assert_eq!(pa.raw() % PAGE_BYTES, 321);
        assert_eq!(pa.page(), f.phys_page);
    }

    #[test]
    fn lookup_is_read_only_and_matches_translate() {
        let mut numa = NumaAllocator::new(2, small_dram(), NumaPolicy::FirstTouch);
        let vaddr = VirtAddr::new(0x5000);
        // Unmapped: lookup refuses, translate allocates.
        assert_eq!(numa.lookup(vaddr), None);
        let f = numa.translate(vaddr, NodeId::new(1));
        // Mapped: lookup agrees with translate (minus the allocation flag).
        let l = numa.lookup(vaddr).expect("mapped page resolves");
        assert_eq!(l.phys_page, f.phys_page);
        assert_eq!(l.home, f.home);
        assert!(!l.newly_allocated);
        assert_eq!(numa.mapped_pages(), 1);
    }

    #[test]
    fn lookup_defers_armed_next_touch_pages_to_translate() {
        let mut numa = NumaAllocator::new(4, small_dram(), NumaPolicy::NextTouch);
        let vaddr = VirtAddr::new(0x9000);
        numa.translate(vaddr, NodeId::new(0));
        // One touch so far: the re-home decision is still pending, so the
        // read-only path must refuse no matter who asks.
        assert_eq!(numa.lookup(vaddr), None);
        // The second (mutating) touch re-homes and disarms...
        let g = numa.translate(vaddr, NodeId::new(2));
        assert_eq!(g.home, NodeId::new(2));
        // ...after which lookup resolves.
        assert_eq!(numa.lookup(vaddr).map(|f| f.home), Some(NodeId::new(2)));
    }

    #[test]
    fn mapping_of_reports_translation() {
        let mut numa = NumaAllocator::new(2, small_dram(), NumaPolicy::FirstTouch);
        assert_eq!(numa.mapping_of(PageAddr::new(7)), None);
        let f = numa.translate(VirtAddr::new(7 * PAGE_BYTES), NodeId::new(1));
        assert_eq!(
            numa.mapping_of(PageAddr::new(7)),
            Some((f.phys_page, NodeId::new(1)))
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = NumaAllocator::new(0, small_dram(), NumaPolicy::FirstTouch);
    }

    #[test]
    fn policy_accessor() {
        let numa = NumaAllocator::new(2, small_dram(), NumaPolicy::Interleaved);
        assert_eq!(numa.policy(), NumaPolicy::Interleaved);
        assert_eq!(numa.num_nodes(), 2);
    }
}
