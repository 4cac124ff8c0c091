//! The per-node directory controller.
//!
//! Every node's memory controller owns a [`DirectoryController`]: it receives
//! coherence requests for lines homed on its node, consults the probe
//! filter, and orchestrates probes, invalidations, DRAM accesses and data
//! returns. The controller implements both the baseline Hammer-with-probe-
//! filter flow and the ALLARM modification (allocate only on remote miss,
//! with a parallel probe of the local core), selected by its
//! [`AllocationPolicy`].

use crate::policy::AllocationPolicy;
use crate::probe_filter::{PfSlot, ProbeFilter};
use crate::request::{CoherenceRequest, RequestKind};
use crate::sharers::SharerView;
use allarm_cache::{CoherenceState, ProbeOutcome};
use allarm_noc::MessageClass;
use allarm_types::addr::LineAddr;
use allarm_types::config::{ProbeFilterConfig, SharerTracking};
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::stats::Counter;
use allarm_types::topology::Topology;
use allarm_types::Nanos;
use std::mem;

/// The machine resources a directory controller needs to reach: every
/// core's private caches, the on-chip network, and the DRAM behind each
/// memory controller.
///
/// The full-system simulator in `allarm-core` implements this over its
/// component collections; unit tests implement it over miniature in-memory
/// fakes.
pub trait SystemAccess {
    /// Probes `core`'s private hierarchy for `line`.
    ///
    /// If `downgrade` is true a dirty/exclusive copy is demoted to a shared
    /// state; if `invalidate` is true the copy is removed.
    fn probe_cache(
        &mut self,
        core: CoreId,
        line: LineAddr,
        downgrade: bool,
        invalidate: bool,
    ) -> ProbeOutcome;

    /// Sends a message, recording its traffic, and returns its latency.
    fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos;

    /// Latency of a message without recording traffic (for critical-path
    /// what-if computations).
    fn message_latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos;

    /// Reads a line from `node`'s DRAM, returning the access latency.
    fn dram_read(&mut self, node: NodeId) -> Nanos;

    /// Writes a line back to `node`'s DRAM, returning the access latency.
    fn dram_write(&mut self, node: NodeId) -> Nanos;

    /// The affinity domain a core belongs to.
    fn node_of_core(&self, core: CoreId) -> NodeId;

    /// The node's *designated* core — the one core per affinity domain the
    /// ALLARM policy is enabled for (Section II-E of the paper: one core,
    /// or one shared last-level cache, per domain). On one-core nodes this
    /// is simply the node's core.
    fn local_core_of(&self, node: NodeId) -> CoreId;

    /// Total number of cores in the machine (used for Hammer-style
    /// broadcast).
    fn num_cores(&self) -> usize;

    /// Latency of probing a core's cache array (the on-die SRAM lookup).
    fn cache_access_latency(&self) -> Nanos;

    /// Probes `node`'s shared LLC slice for `line`, removing the copy when
    /// `invalidate` is true. Returns whether the slice held the line.
    ///
    /// The default is the LLC-less machine: no slice, never resident. A
    /// non-invalidating probe must not observably mutate the slice (no
    /// recency or statistics updates) — the sharded kernel calls it from
    /// the directory phase, where cross-shard ordering is not defined.
    fn probe_llc(&mut self, node: NodeId, line: LineAddr, invalidate: bool) -> bool {
        let _ = (node, line, invalidate);
        false
    }
}

/// What the directory tells the requesting core when a request completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryResponse {
    /// Critical-path latency of the transaction, from the request message
    /// leaving the requester to the data (or grant) arriving back.
    pub latency: Nanos,
    /// The MOESI state the requester installs the line in.
    pub fill_state: CoherenceState,
    /// For ALLARM remote misses: whether the probe of the local core stayed
    /// off the critical path (`Some(true)`), was on it (`Some(false)`), or
    /// was not performed at all (`None`). Drives Fig. 3g.
    pub local_probe_hidden: Option<bool>,
}

/// Directory-controller activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Requests received.
    pub requests: Counter,
    /// Requests from the directory's own affinity domain.
    pub requests_local: Counter,
    /// Requests from other affinity domains.
    pub requests_remote: Counter,
    /// Misses for which ALLARM skipped probe-filter allocation.
    pub allarm_allocation_skips: Counter,
    /// Probe-filter evictions processed (back-invalidations of a victim).
    pub pf_evictions: Counter,
    /// Coherence messages sent while processing probe-filter evictions
    /// (invalidations, acks and writebacks). `messages / evictions` is the
    /// quantity plotted in Fig. 3d.
    pub eviction_messages: Counter,
    /// Cache copies actually invalidated by probe-filter evictions.
    pub eviction_invalidations: Counter,
    /// Dirty copies written back because of probe-filter evictions.
    pub eviction_writebacks: Counter,
    /// ALLARM probes of the local core on remote misses.
    pub local_probes: Counter,
    /// Local probes that hit (the local core held the line).
    pub local_probe_hits: Counter,
    /// Local probes that stayed off the critical path (Fig. 3g numerator).
    pub local_probes_hidden: Counter,
    /// Lines served from DRAM.
    pub dram_fills: Counter,
    /// Lines served by a cache-to-cache transfer.
    pub cache_transfers: Counter,
    /// Invalidations sent to satisfy GetX/upgrade requests.
    pub ownership_invalidations: Counter,
}

impl DirectoryStats {
    /// Average number of coherence messages per probe-filter eviction
    /// (Fig. 3d). Zero when no evictions occurred.
    pub fn messages_per_eviction(&self) -> f64 {
        allarm_types::stats::ratio(self.eviction_messages.get(), self.pf_evictions.get())
    }

    /// Fraction of requests that came from the local core (Fig. 2).
    pub fn local_fraction(&self) -> f64 {
        allarm_types::stats::ratio(self.requests_local.get(), self.requests.get())
    }

    /// Fraction of local probes that stayed off the critical path (Fig. 3g).
    pub fn hidden_probe_fraction(&self) -> f64 {
        allarm_types::stats::ratio(self.local_probes_hidden.get(), self.local_probes.get())
    }

    /// Accumulates another block of counters into this one.
    pub fn merge(&mut self, other: &DirectoryStats) {
        self.requests += other.requests;
        self.requests_local += other.requests_local;
        self.requests_remote += other.requests_remote;
        self.allarm_allocation_skips += other.allarm_allocation_skips;
        self.pf_evictions += other.pf_evictions;
        self.eviction_messages += other.eviction_messages;
        self.eviction_invalidations += other.eviction_invalidations;
        self.eviction_writebacks += other.eviction_writebacks;
        self.local_probes += other.local_probes;
        self.local_probe_hits += other.local_probe_hits;
        self.local_probes_hidden += other.local_probes_hidden;
        self.dram_fills += other.dram_fills;
        self.cache_transfers += other.cache_transfers;
        self.ownership_invalidations += other.ownership_invalidations;
    }
}

/// The complete dynamic state of a [`DirectoryController`], as captured by
/// [`DirectoryController::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryControllerState {
    /// The probe-filter array contents.
    pub probe_filter: crate::probe_filter::ProbeFilterState,
    /// Controller counters at capture time.
    pub stats: DirectoryStats,
}

/// One node's share of an invalidation, as
/// [`DirectoryController::invalidate_node`] reports it.
#[derive(Debug, Clone, Copy)]
struct NodeInvalidation {
    node: NodeId,
    /// Cores probed on the node.
    probed: u64,
    /// Invalidate out, array lookup, combined ack back.
    round_trip: Nanos,
    /// Probed cores that held the line.
    hits: u64,
    /// Probed cores that held it dirty.
    dirty: u64,
}

/// A directory controller plus its probe filter, for one home node.
#[derive(Debug, Clone)]
pub struct DirectoryController {
    home: NodeId,
    probe_filter: ProbeFilter,
    policy: AllocationPolicy,
    sharer_tracking: SharerTracking,
    pf_latency: Nanos,
    stats: DirectoryStats,
    // Reused buffers, so no transaction allocates: the sharer words of the
    // entry being served (a hit, or an eviction's victim), copied out of
    // the probe filter so the flow can update it, and one node's run of
    // invalidation targets.
    sharers: Vec<u64>,
    group: Vec<CoreId>,
}

impl DirectoryController {
    /// Creates a controller for the directory homed on `home`, on a
    /// one-core-per-node machine of `home + 1` nodes. Its probe filter's
    /// sharer words hold that many cores rounded up to a whole word (at
    /// least 64); a larger machine needs [`Self::hierarchical`].
    pub fn new(home: NodeId, config: &ProbeFilterConfig, policy: AllocationPolicy) -> Self {
        let topology = Topology::flat(home.index() as u32 + 1);
        DirectoryController::hierarchical(home, config, policy, topology)
    }

    /// Creates a controller for a node of a machine of shape `topology`,
    /// its probe filter sized for the machine's core count once
    /// ([`ProbeFilter::for_machine`]). With several cores per node the
    /// filter is two-level (node-presence vector over the exact core map),
    /// and probes / back-invalidations are steered at node granularity: one
    /// invalidation message and one combined ack per *node*, with the
    /// node's member caches probed there in parallel. On a flat topology
    /// the flows are exactly [`Self::new`]'s.
    pub fn hierarchical(
        home: NodeId,
        config: &ProbeFilterConfig,
        policy: AllocationPolicy,
        topology: Topology,
    ) -> Self {
        DirectoryController {
            home,
            probe_filter: ProbeFilter::for_machine(config, topology),
            policy,
            sharer_tracking: config.sharer_tracking,
            pf_latency: config.access_latency,
            stats: DirectoryStats::default(),
            sharers: Vec::new(),
            group: Vec::new(),
        }
    }

    /// The node this directory is responsible for.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The allocation policy in force.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// The probe filter backing this directory.
    pub fn probe_filter(&self) -> &ProbeFilter {
        &self.probe_filter
    }

    /// Controller statistics (the probe-filter array's own counters are on
    /// [`DirectoryController::probe_filter`]).
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Exports this controller's complete dynamic state (probe-filter
    /// contents plus the controller's counters) for checkpointing.
    pub fn export_state(&self) -> DirectoryControllerState {
        DirectoryControllerState {
            probe_filter: self.probe_filter.export_state(),
            stats: self.stats,
        }
    }

    /// Restores state captured with [`DirectoryController::export_state`]
    /// whose filter passed [`ProbeFilter::check_state`] for this controller.
    pub fn restore_state(&mut self, state: &DirectoryControllerState) {
        self.probe_filter.restore_state(&state.probe_filter);
        self.stats = state.stats;
    }

    /// Handles one coherence request, driving probes/invalidations/DRAM
    /// through `sys`, and returns the response the requester sees.
    pub fn handle_request(
        &mut self,
        req: CoherenceRequest,
        sys: &mut dyn SystemAccess,
    ) -> DirectoryResponse {
        self.stats.requests.incr();
        let local = req.is_local_to(self.home);
        if local {
            self.stats.requests_local.incr();
        } else {
            self.stats.requests_remote.incr();
        }

        // The request message travels from the requester to the home node,
        // then the probe filter is consulted (it is *always* consulted,
        // which is what makes switching into ALLARM mode at run time safe —
        // Section II-C).
        let mut latency = sys.send(req.requester_node, self.home, MessageClass::Request);
        latency += self.pf_latency;

        // The lookup is the request's one walk of the line's set.
        let response = match self.probe_filter.lookup(req.line) {
            Some(slot) => {
                // Copy the entry out of the filter, so the flow can update
                // it through its slot; the sharer words go into the reused
                // buffer.
                let entry = self.probe_filter.entry(slot);
                let owner = entry.owner;
                let mut sharers = mem::take(&mut self.sharers);
                sharers.clear();
                sharers.extend_from_slice(entry.sharers.words());
                let response = self.handle_hit(req, slot, owner, SharerView::new(&sharers), sys);
                self.sharers = sharers;
                response
            }
            None => self.handle_miss(req, sys),
        };

        DirectoryResponse {
            latency: latency + response.latency,
            ..response
        }
    }

    /// Processes a cache's notification that it dropped its copy of `line`
    /// (a clean-exclusive eviction notice or a dirty writeback). Updates the
    /// probe filter and absorbs the writeback; returns the latency of the
    /// writeback path (not on any core's critical path).
    pub fn note_cache_eviction(
        &mut self,
        line: LineAddr,
        core: CoreId,
        dirty: bool,
        sys: &mut dyn SystemAccess,
    ) -> Nanos {
        let src = sys.node_of_core(core);
        let class = if dirty {
            MessageClass::WriteBack
        } else {
            MessageClass::EvictNotify
        };
        let mut latency = sys.send(src, self.home, class);
        if dirty {
            latency += sys.dram_write(self.home);
        }
        // If the core's node still holds the line in its shared LLC slice,
        // the node-level presence must survive the private eviction — keep
        // the core tracked so ownership invalidations and back-invalidations
        // keep reaching the slice (slice-resident ⇒ probe-filter-tracked).
        if !sys.probe_llc(src, line, false) {
            if let Some(slot) = self.probe_filter.find(line) {
                self.probe_filter.remove_sharer(slot, core);
            }
        }
        latency
    }

    /// Serves a request whose line has an entry, in `slot`: `owner` and
    /// `sharers` are the entry as the lookup found it.
    fn handle_hit(
        &mut self,
        req: CoherenceRequest,
        slot: PfSlot,
        owner: CoreId,
        sharers: SharerView<'_>,
        sys: &mut dyn SystemAccess,
    ) -> DirectoryResponse {
        match req.kind {
            RequestKind::GetS => {
                if owner != req.requester && sharers.contains(owner) {
                    // Probe the owner and launch the DRAM read speculatively
                    // in parallel (as deployed Hammer directories do): if the
                    // owner still holds the line it supplies it
                    // cache-to-cache, otherwise the memory copy is used and
                    // the probe cost is overlapped with the DRAM access.
                    let owner_node = sys.node_of_core(owner);
                    let probe = sys.send(self.home, owner_node, MessageClass::Probe);
                    let outcome = sys.probe_cache(owner, req.line, true, false);
                    match outcome {
                        ProbeOutcome::Hit { .. } => {
                            self.stats.cache_transfers.incr();
                            let transfer =
                                sys.send(owner_node, req.requester_node, MessageClass::ProbeData);
                            // A dirty owner keeps the line in Owned state and
                            // remains the owner of record.
                            self.probe_filter.add_sharer(slot, req.requester);
                            return DirectoryResponse {
                                latency: probe + sys.cache_access_latency() + transfer,
                                fill_state: CoherenceState::Shared,
                                local_probe_hidden: None,
                            };
                        }
                        ProbeOutcome::Miss => {
                            // Stale entry: the owner dropped the line without
                            // the directory noticing (silent clean drop). The
                            // speculative memory read supplies the data; the
                            // probe round trip overlaps with it.
                            let ack = sys.send(owner_node, self.home, MessageClass::ProbeAck);
                            // Same invariant as note_cache_eviction: the
                            // owner's node slice may still hold the line even
                            // though the private copy was silently dropped.
                            let freed = !sys.probe_llc(owner_node, req.line, false)
                                && self.probe_filter.remove_sharer(slot, owner);
                            let dram = sys.dram_read(self.home);
                            self.stats.dram_fills.incr();
                            let probe_path = probe + sys.cache_access_latency() + ack;
                            let data = sys.send(self.home, req.requester_node, MessageClass::Data);
                            // Re-establish tracking for the requester: a fresh
                            // entry (evicting nothing, as the set has a free
                            // slot) and an exclusive copy if the owner was the
                            // last sharer, else a shared copy.
                            let fill_state = if freed {
                                self.probe_filter.allocate(req.line, req.requester);
                                CoherenceState::Exclusive
                            } else {
                                self.probe_filter.add_sharer(slot, req.requester);
                                CoherenceState::Shared
                            };
                            return DirectoryResponse {
                                latency: probe_path.max(dram) + data,
                                fill_state,
                                local_probe_hidden: None,
                            };
                        }
                    }
                }
                // The requester is (or was) the owner of record, or the owner
                // is unknown: serve from memory and refresh the entry.
                let dram = sys.dram_read(self.home);
                self.stats.dram_fills.incr();
                let data = sys.send(self.home, req.requester_node, MessageClass::Data);
                self.probe_filter.add_sharer(slot, req.requester);
                let state = if sharers.count() <= 1 {
                    CoherenceState::Exclusive
                } else {
                    CoherenceState::Shared
                };
                DirectoryResponse {
                    latency: dram + data,
                    fill_state: state,
                    local_probe_hidden: None,
                }
            }
            RequestKind::GetX | RequestKind::Upgrade => {
                let response = self.invalidate_for_ownership(req, sharers, sys);
                self.probe_filter.set_owner(slot, req.requester, true);
                response
            }
        }
    }

    /// Invalidates `line` in every cache that may hold it — the `sharers`
    /// under a sharer vector, every core under Hammer broadcast — except
    /// `exclude`'s. The cores are walked once, in ascending order, and
    /// each run of same-node cores becomes one [`Self::invalidate_node`]:
    /// that grouping is what makes tracking hierarchical on multi-core
    /// nodes, where the directory sends one invalidation (and collects one
    /// combined ack) per *node* and the node fans it out to its member
    /// caches locally. With one core per node every run is a single core
    /// and the flow is the classic per-core one. `done` sees each node's
    /// outcome before the next node is reached.
    fn invalidate_targets(
        &mut self,
        sharers: SharerView<'_>,
        exclude: CoreId,
        line: LineAddr,
        sys: &mut dyn SystemAccess,
        mut done: impl FnMut(&mut DirectoryStats, &mut dyn SystemAccess, NodeInvalidation),
    ) {
        // One of the two chained sources is always empty.
        let (listed, everyone) = match self.sharer_tracking {
            SharerTracking::SharerVector => (sharers, 0..0),
            SharerTracking::HammerBroadcast => (SharerView::new(&[]), 0..sys.num_cores() as u16),
        };
        let mut targets = listed
            .iter()
            .chain(everyone.map(CoreId::new))
            .filter(|&core| core != exclude);
        let mut group = mem::take(&mut self.group);
        let mut next = targets.next().map(|core| (core, sys.node_of_core(core)));
        while let Some((core, node)) = next {
            group.push(core);
            next = targets.next().map(|core| (core, sys.node_of_core(core)));
            if next.is_some_and(|(_, after)| after == node) {
                continue;
            }
            let outcome = self.invalidate_node(node, &group, line, sys);
            done(&mut self.stats, sys, outcome);
            group.clear();
        }
        self.group = group;
    }

    /// One node's share of an invalidation: one Invalidate reaches `node`,
    /// its member `cores` and its shared LLC slice lose their copies there
    /// in parallel (one array latency, no extra traffic), and one combined
    /// ack returns.
    fn invalidate_node(
        &self,
        node: NodeId,
        cores: &[CoreId],
        line: LineAddr,
        sys: &mut dyn SystemAccess,
    ) -> NodeInvalidation {
        let inv = sys.send(self.home, node, MessageClass::Invalidate);
        let (mut hits, mut dirty) = (0, 0);
        for &core in cores {
            if let ProbeOutcome::Hit {
                dirty: was_dirty, ..
            } = sys.probe_cache(core, line, false, true)
            {
                hits += 1;
                dirty += u64::from(was_dirty);
            }
        }
        sys.probe_llc(node, line, true);
        let ack = sys.send(node, self.home, MessageClass::InvalidateAck);
        NodeInvalidation {
            node,
            probed: cores.len() as u64,
            round_trip: inv + sys.cache_access_latency() + ack,
            hits,
            dirty,
        }
    }

    /// Invalidates every copy other than the requester's and (for GetX)
    /// delivers the data. Used for both probe-filter hits on writes and the
    /// write-miss allocation path.
    fn invalidate_for_ownership(
        &mut self,
        req: CoherenceRequest,
        sharers: SharerView<'_>,
        sys: &mut dyn SystemAccess,
    ) -> DirectoryResponse {
        // All invalidations proceed in parallel; the critical path is the
        // slowest round trip. Within a node the member caches are probed in
        // parallel off one message, so the node costs a single array
        // latency however many cores it hosts.
        let mut inval_path = Nanos::ZERO;
        let mut dirty_source: Option<NodeId> = None;
        self.invalidate_targets(sharers, req.requester, req.line, sys, |stats, _, node| {
            stats.ownership_invalidations.add(node.probed);
            if node.dirty > 0 {
                dirty_source = Some(node.node);
            }
            inval_path = inval_path.max(node.round_trip);
        });

        // The requester's own node slice may also hold a clean copy (the
        // requester is excluded from the target groups): it must die before
        // the requester takes Modified ownership, or a same-node reader
        // could later be served stale data from the slice.
        sys.probe_llc(req.requester_node, req.line, true);

        // Data delivery (GetX only). A dirty copy is forwarded
        // cache-to-cache; otherwise memory supplies it, overlapping with the
        // invalidations.
        let data_path = if req.kind.needs_data() {
            if let Some(src) = dirty_source {
                self.stats.cache_transfers.incr();
                sys.send(src, req.requester_node, MessageClass::ProbeData)
            } else {
                let dram = sys.dram_read(self.home);
                self.stats.dram_fills.incr();
                dram + sys.send(self.home, req.requester_node, MessageClass::Data)
            }
        } else {
            Nanos::ZERO
        };

        DirectoryResponse {
            latency: inval_path.max(data_path),
            fill_state: CoherenceState::Modified,
            local_probe_hidden: None,
        }
    }

    fn handle_miss(
        &mut self,
        req: CoherenceRequest,
        sys: &mut dyn SystemAccess,
    ) -> DirectoryResponse {
        // ALLARM is enabled for *one* core per affinity domain (Section
        // II-E): only the node's designated core may hold untracked lines,
        // because the remote-miss flow probes exactly that core. Misses
        // from a multi-core node's other local cores take the baseline
        // allocate path. With one core per node the designated core is the
        // only local core and this reduces to the node-level policy check.
        let allocate = self.policy.should_allocate(req.requester_node, self.home)
            || req.requester != sys.local_core_of(self.home);

        if !allocate {
            // ALLARM, local requester: no probe-filter entry, no coherence
            // traffic; the line is served straight from the local DRAM.
            self.stats.allarm_allocation_skips.incr();
            let dram = sys.dram_read(self.home);
            self.stats.dram_fills.incr();
            let data = sys.send(self.home, req.requester_node, MessageClass::Data);
            let fill_state = if req.kind.is_write() {
                CoherenceState::Modified
            } else {
                CoherenceState::Exclusive
            };
            return DirectoryResponse {
                latency: dram + data,
                fill_state,
                local_probe_hidden: None,
            };
        }

        // Allocate an entry (possibly displacing a victim, whose sharer
        // words are copied into the reused buffer).
        let (slot, victim) = self.probe_filter.allocate(req.line, req.requester);
        if let Some(victim) = victim {
            let line = victim.line;
            let mut sharers = mem::take(&mut self.sharers);
            sharers.clear();
            sharers.extend_from_slice(victim.sharers.words());
            self.process_pf_eviction(line, SharerView::new(&sharers), sys);
            self.sharers = sharers;
        }

        if self.policy.is_allarm() {
            // Remote miss under ALLARM: the local core may hold the line
            // without a directory entry, so it must be probed. The probe and
            // the DRAM access are launched in parallel (Section II-D).
            self.allarm_remote_miss(req, slot, sys)
        } else {
            // Baseline miss: nobody holds the line (the probe filter tracks
            // every cached line), so memory supplies it.
            let dram = sys.dram_read(self.home);
            self.stats.dram_fills.incr();
            let data = sys.send(self.home, req.requester_node, MessageClass::Data);
            let fill_state = if req.kind.is_write() {
                CoherenceState::Modified
            } else {
                CoherenceState::Exclusive
            };
            DirectoryResponse {
                latency: dram + data,
                fill_state,
                local_probe_hidden: None,
            }
        }
    }

    /// The ALLARM remote-miss flow: allocate (done by the caller, into
    /// `slot`), probe the local core, fetch from DRAM in parallel, and serve
    /// from whichever source actually holds the data.
    fn allarm_remote_miss(
        &mut self,
        req: CoherenceRequest,
        slot: PfSlot,
        sys: &mut dyn SystemAccess,
    ) -> DirectoryResponse {
        let local_core = sys.local_core_of(self.home);
        self.stats.local_probes.incr();

        // The probe travels on-die (home -> home: zero network hops) and
        // looks up the local core's SRAM.
        let probe_msg = sys.send(self.home, self.home, MessageClass::Probe);
        let probe_latency = probe_msg + sys.cache_access_latency();
        let is_write = req.kind.is_write();
        let outcome = sys.probe_cache(local_core, req.line, !is_write, is_write);

        // The DRAM access is issued concurrently with the probe.
        let dram_latency = sys.dram_read(self.home);
        self.stats.dram_fills.incr();

        match outcome {
            ProbeOutcome::Hit { dirty, .. } => {
                self.stats.local_probe_hits.incr();
                self.stats.cache_transfers.incr();
                // The local core supplies the line; the prefetched DRAM copy
                // is discarded. The probe is on the critical path.
                let transfer = sys.send(self.home, req.requester_node, MessageClass::ProbeData);
                // The new entry names the requester as owner and sole
                // sharer. That is already right for a write: the probe
                // invalidated the local copy. On a read the local core
                // keeps a shared or owned copy and is tracked alongside the
                // requester; a dirty one stays the owner of record.
                if !is_write {
                    if dirty {
                        self.probe_filter.set_owner(slot, local_core, false);
                    } else {
                        self.probe_filter.add_sharer(slot, local_core);
                    }
                }
                let fill_state = if is_write {
                    CoherenceState::Modified
                } else {
                    CoherenceState::Shared
                };
                DirectoryResponse {
                    latency: probe_latency + transfer,
                    fill_state,
                    local_probe_hidden: Some(false),
                }
            }
            ProbeOutcome::Miss => {
                // The common case the paper's analysis relies on: the local
                // core does not hold the line, the DRAM access dominates, and
                // the probe is completely hidden.
                let hidden = probe_latency <= dram_latency;
                if hidden {
                    self.stats.local_probes_hidden.incr();
                }
                let data = sys.send(self.home, req.requester_node, MessageClass::Data);
                let fill_state = if is_write {
                    CoherenceState::Modified
                } else {
                    CoherenceState::Exclusive
                };
                DirectoryResponse {
                    latency: probe_latency.max(dram_latency) + data,
                    fill_state,
                    local_probe_hidden: Some(hidden),
                }
            }
        }
    }

    /// Back-invalidates a probe-filter victim from every cache that may hold
    /// it. The invalidations are not on the requesting core's critical path
    /// (the directory retires them in the background), but every message and
    /// every lost cache line is accounted for — they are the cost the paper
    /// measures in Figs. 3b–3f.
    fn process_pf_eviction(
        &mut self,
        line: LineAddr,
        sharers: SharerView<'_>,
        sys: &mut dyn SystemAccess,
    ) {
        self.stats.pf_evictions.incr();
        let home = self.home;
        // No core is exempt from a back-invalidation, so exclude a core id
        // that cannot occur.
        let nobody = CoreId::new(u16::MAX);
        self.invalidate_targets(sharers, nobody, line, sys, |stats, sys, node| {
            // On one-core nodes the invalidation and its ack are the
            // classic two-messages-per-sharer cost of Fig. 3d; hierarchical
            // tracking amortizes them across the node's cores. Once the
            // directory stops tracking the line, the node's shared LLC
            // slice may no longer serve it either.
            stats.eviction_messages.add(2);
            stats.eviction_invalidations.add(node.hits);
            for _ in 0..node.dirty {
                // The victim's dirty data must be written back to memory.
                sys.send(node.node, home, MessageClass::WriteBack);
                stats.eviction_messages.incr();
                stats.eviction_writebacks.incr();
                sys.dram_write(home);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_cache::CoreCaches;
    use allarm_noc::Network;
    use allarm_types::config::{MachineConfig, NocConfig};

    /// A miniature machine for exercising the controller directly: four
    /// cores unless built with [`MiniSystem::with_cores`]. With
    /// `cores_per_node > 1` the cores fold onto fewer nodes (blocked
    /// assignment), exercising the hierarchical flows.
    struct MiniSystem {
        caches: Vec<CoreCaches>,
        network: Network,
        cores_per_node: u16,
        dram_latency: Nanos,
        dram_reads: u64,
        dram_writes: u64,
    }

    impl MiniSystem {
        fn new() -> Self {
            MiniSystem::with_cores_per_node(1)
        }

        fn with_cores_per_node(cores_per_node: u16) -> Self {
            MiniSystem::with_cores(4, cores_per_node)
        }

        /// `cores` cores on two or four nodes.
        fn with_cores(cores: u16, cores_per_node: u16) -> Self {
            let cfg = MachineConfig::small_test();
            let nodes = u32::from(cores / cores_per_node);
            assert!(nodes == 2 || nodes == 4, "a 1x2 or 2x2 mesh");
            MiniSystem {
                caches: (0..cores)
                    .map(|_| CoreCaches::new(&cfg.l1d, &cfg.l2))
                    .collect(),
                network: Network::new(NocConfig::mesh(nodes / 2, 2)),
                cores_per_node,
                dram_latency: Nanos::new(60),
                dram_reads: 0,
                dram_writes: 0,
            }
        }
    }

    impl SystemAccess for MiniSystem {
        fn probe_cache(
            &mut self,
            core: CoreId,
            line: LineAddr,
            downgrade: bool,
            invalidate: bool,
        ) -> ProbeOutcome {
            self.caches[core.index()].probe(line, downgrade, invalidate)
        }

        fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
            self.network.send(src, dst, class)
        }

        fn message_latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
            self.network.latency(src, dst, class)
        }

        fn dram_read(&mut self, node: NodeId) -> Nanos {
            let _ = node;
            self.dram_reads += 1;
            self.dram_latency
        }

        fn dram_write(&mut self, node: NodeId) -> Nanos {
            let _ = node;
            self.dram_writes += 1;
            self.dram_latency
        }

        fn node_of_core(&self, core: CoreId) -> NodeId {
            NodeId::new(core.raw() / self.cores_per_node)
        }

        fn local_core_of(&self, node: NodeId) -> CoreId {
            CoreId::new(node.raw() * self.cores_per_node)
        }

        fn num_cores(&self) -> usize {
            self.caches.len()
        }

        fn cache_access_latency(&self) -> Nanos {
            Nanos::new(1)
        }
    }

    fn controller(policy: AllocationPolicy) -> DirectoryController {
        // 2 entries: tiny, to force evictions; LRU so the victim is the
        // entry the test expects.
        let mut cfg = ProbeFilterConfig::new(2 * 64, 2);
        cfg.replacement = allarm_types::config::PfReplacement::Lru;
        DirectoryController::new(NodeId::new(0), &cfg, policy)
    }

    fn big_controller(policy: AllocationPolicy) -> DirectoryController {
        DirectoryController::new(NodeId::new(0), &ProbeFilterConfig::new(4096, 4), policy)
    }

    fn gets(line: u64, core: u16) -> CoherenceRequest {
        CoherenceRequest::new(
            LineAddr::new(line),
            RequestKind::GetS,
            CoreId::new(core),
            NodeId::new(core),
        )
    }

    fn getx(line: u64, core: u16) -> CoherenceRequest {
        CoherenceRequest::new(
            LineAddr::new(line),
            RequestKind::GetX,
            CoreId::new(core),
            NodeId::new(core),
        )
    }

    #[test]
    fn baseline_local_miss_allocates_entry() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let resp = dir.handle_request(gets(100, 0), &mut sys);
        assert_eq!(resp.fill_state, CoherenceState::Exclusive);
        assert!(dir.probe_filter().peek(LineAddr::new(100)).is_some());
        assert_eq!(dir.stats().requests_local.get(), 1);
        assert_eq!(sys.dram_reads, 1);
        // Local request: only the DRAM latency and the (free) on-node
        // messages are on the path.
        assert_eq!(resp.latency, Nanos::new(60) + dir.pf_latency);
    }

    #[test]
    fn allarm_local_miss_skips_allocation() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Allarm);
        let resp = dir.handle_request(gets(100, 0), &mut sys);
        assert_eq!(resp.fill_state, CoherenceState::Exclusive);
        assert!(dir.probe_filter().peek(LineAddr::new(100)).is_none());
        assert_eq!(dir.stats().allarm_allocation_skips.get(), 1);
        assert_eq!(resp.local_probe_hidden, None);
        assert_eq!(sys.dram_reads, 1);
    }

    #[test]
    fn allarm_remote_miss_allocates_and_hides_probe() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Allarm);
        // Remote core 3 requests a line homed on node 0; the local core does
        // not hold it, so the probe is hidden behind DRAM.
        let resp = dir.handle_request(gets(100, 3), &mut sys);
        assert!(dir.probe_filter().peek(LineAddr::new(100)).is_some());
        assert_eq!(resp.local_probe_hidden, Some(true));
        assert_eq!(dir.stats().local_probes.get(), 1);
        assert_eq!(dir.stats().local_probes_hidden.get(), 1);
        assert_eq!(dir.stats().local_probe_hits.get(), 0);
        assert_eq!(resp.fill_state, CoherenceState::Exclusive);
    }

    #[test]
    fn allarm_remote_miss_with_local_copy_serves_cache_to_cache() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Allarm);
        // The local core (core 0) already holds the line privately, with no
        // probe-filter entry (it was served via the ALLARM local path).
        dir.handle_request(gets(100, 0), &mut sys);
        sys.caches[0].fill(LineAddr::new(100), CoherenceState::Modified);
        // Now remote core 2 reads the same line.
        let resp = dir.handle_request(gets(100, 2), &mut sys);
        assert_eq!(resp.local_probe_hidden, Some(false));
        assert_eq!(resp.fill_state, CoherenceState::Shared);
        assert_eq!(dir.stats().local_probe_hits.get(), 1);
        assert_eq!(dir.stats().cache_transfers.get(), 1);
        // The local core keeps an owned copy and is tracked as the owner.
        let entry = dir.probe_filter().peek(LineAddr::new(100)).unwrap();
        assert!(entry.sharers.contains(CoreId::new(0)));
        assert!(entry.sharers.contains(CoreId::new(2)));
        assert_eq!(entry.owner, CoreId::new(0));
        assert_eq!(
            sys.caches[0].state_of(LineAddr::new(100)),
            Some(CoherenceState::Owned)
        );
    }

    #[test]
    fn allarm_remote_read_shares_a_clean_local_copy() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Allarm);
        // The local core (core 0) holds the line clean and exclusive, with
        // no probe-filter entry.
        let r = dir.handle_request(gets(100, 0), &mut sys);
        sys.caches[0].fill(LineAddr::new(100), r.fill_state);
        assert_eq!(r.fill_state, CoherenceState::Exclusive);
        // Remote core 2 reads it: the local copy supplies the data.
        let resp = dir.handle_request(gets(100, 2), &mut sys);
        assert_eq!(resp.local_probe_hidden, Some(false));
        assert_eq!(resp.fill_state, CoherenceState::Shared);
        // The requester stays the owner of record; the local core joins
        // the sharers with a copy demoted to Shared.
        let entry = dir.probe_filter().peek(LineAddr::new(100)).unwrap();
        assert_eq!(entry.owner, CoreId::new(2));
        assert_eq!(
            entry.sharers.iter().collect::<Vec<_>>(),
            vec![CoreId::new(0), CoreId::new(2)]
        );
        assert_eq!(
            sys.caches[0].state_of(LineAddr::new(100)),
            Some(CoherenceState::Shared)
        );
    }

    #[test]
    fn allarm_remote_write_invalidates_local_copy() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Allarm);
        dir.handle_request(gets(100, 0), &mut sys);
        sys.caches[0].fill(LineAddr::new(100), CoherenceState::Modified);
        let resp = dir.handle_request(getx(100, 2), &mut sys);
        assert_eq!(resp.fill_state, CoherenceState::Modified);
        // The local copy is gone and the requester is the sole tracked owner.
        assert_eq!(sys.caches[0].state_of(LineAddr::new(100)), None);
        let entry = dir.probe_filter().peek(LineAddr::new(100)).unwrap();
        assert_eq!(entry.owner, CoreId::new(2));
        assert_eq!(entry.sharers.count(), 1);
    }

    #[test]
    fn pf_hit_gets_probes_owner_for_cache_to_cache_transfer() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        // Core 1 fetches the line (remote miss, allocates, owner = core 1).
        let r1 = dir.handle_request(gets(200, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(200), r1.fill_state);
        // Core 2 reads it: the directory probes core 1, which supplies it.
        let r2 = dir.handle_request(gets(200, 2), &mut sys);
        assert_eq!(r2.fill_state, CoherenceState::Shared);
        assert_eq!(dir.stats().cache_transfers.get(), 1);
        let entry = dir.probe_filter().peek(LineAddr::new(200)).unwrap();
        assert!(entry.sharers.contains(CoreId::new(1)));
        assert!(entry.sharers.contains(CoreId::new(2)));
    }

    #[test]
    fn pf_hit_with_stale_owner_falls_back_to_dram() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let r1 = dir.handle_request(gets(200, 1), &mut sys);
        // Core 1 never actually keeps the line (silent drop): don't fill.
        let _ = r1;
        let reads_before = sys.dram_reads;
        let r2 = dir.handle_request(gets(200, 2), &mut sys);
        assert_eq!(r2.fill_state, CoherenceState::Exclusive);
        assert_eq!(sys.dram_reads, reads_before + 1);
    }

    #[test]
    fn stale_owner_with_another_sharer_serves_a_shared_copy() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let line = LineAddr::new(200);
        // Core 1 owns the line and core 2 shares it.
        for core in [1, 2] {
            let r = dir.handle_request(gets(200, core), &mut sys);
            sys.caches[core as usize].fill(line, r.fill_state);
        }
        // The owner drops its copy without telling the directory.
        sys.caches[1].invalidate(line);
        let reads_before = sys.dram_reads;
        let r = dir.handle_request(gets(200, 3), &mut sys);
        // Memory supplies the data, and core 2's copy keeps the
        // requester's Shared.
        assert_eq!(r.fill_state, CoherenceState::Shared);
        assert_eq!(sys.dram_reads, reads_before + 1);
        let entry = dir.probe_filter().peek(line).unwrap();
        assert_eq!(
            entry.sharers.iter().collect::<Vec<_>>(),
            vec![CoreId::new(2), CoreId::new(3)]
        );
        // The owner of record is kept, its bit cleared.
        assert_eq!(entry.owner, CoreId::new(1));
    }

    #[test]
    fn getx_invalidates_all_sharers() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        // Cores 1 and 2 both cache the line.
        let r1 = dir.handle_request(gets(300, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(300), r1.fill_state);
        let r2 = dir.handle_request(gets(300, 2), &mut sys);
        sys.caches[2].fill(LineAddr::new(300), r2.fill_state);
        // Core 3 writes it.
        let r3 = dir.handle_request(getx(300, 3), &mut sys);
        assert_eq!(r3.fill_state, CoherenceState::Modified);
        assert!(dir.stats().ownership_invalidations.get() >= 2);
        assert_eq!(sys.caches[1].state_of(LineAddr::new(300)), None);
        assert_eq!(sys.caches[2].state_of(LineAddr::new(300)), None);
        let entry = dir.probe_filter().peek(LineAddr::new(300)).unwrap();
        assert_eq!(entry.owner, CoreId::new(3));
        assert_eq!(entry.sharers.count(), 1);
    }

    #[test]
    fn upgrade_needs_no_data_message() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let r1 = dir.handle_request(gets(300, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(300), r1.fill_state);
        let data_before = sys.network.stats().messages_of(MessageClass::Data)
            + sys.network.stats().messages_of(MessageClass::ProbeData);
        let req = CoherenceRequest::new(
            LineAddr::new(300),
            RequestKind::Upgrade,
            CoreId::new(1),
            NodeId::new(1),
        );
        let resp = dir.handle_request(req, &mut sys);
        assert_eq!(resp.fill_state, CoherenceState::Modified);
        let data_after = sys.network.stats().messages_of(MessageClass::Data)
            + sys.network.stats().messages_of(MessageClass::ProbeData);
        assert_eq!(data_before, data_after);
    }

    #[test]
    fn pf_eviction_back_invalidates_sharers() {
        let mut sys = MiniSystem::new();
        // Tiny probe filter: 2 sets x 2 ways... actually 2-entry config:
        let mut dir = controller(AllocationPolicy::Baseline);
        // Fill lines that all land in the same set until one is evicted.
        // With 2 entries (1 set would need ways=2); use lines 0, 2, 4 which
        // share set 0 of a 2-set filter.
        let r = dir.handle_request(gets(0, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(0), r.fill_state);
        let r = dir.handle_request(gets(2, 2), &mut sys);
        sys.caches[2].fill(LineAddr::new(2), r.fill_state);
        let evictions_before = dir.stats().pf_evictions.get();
        let _ = dir.handle_request(gets(4, 3), &mut sys);
        assert_eq!(dir.stats().pf_evictions.get(), evictions_before + 1);
        // The victim (line 0, cached by core 1) was invalidated in core 1's
        // cache even though core 1 did nothing wrong — the collateral damage
        // ALLARM avoids.
        assert_eq!(sys.caches[1].state_of(LineAddr::new(0)), None);
        assert!(dir.stats().eviction_messages.get() >= 2);
        assert_eq!(dir.stats().eviction_invalidations.get(), 1);
        assert!(dir.stats().messages_per_eviction() >= 2.0);
    }

    #[test]
    fn eviction_of_dirty_copy_forces_writeback() {
        let mut sys = MiniSystem::new();
        let mut dir = controller(AllocationPolicy::Baseline);
        let r = dir.handle_request(getx(0, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(0), r.fill_state);
        dir.handle_request(gets(2, 2), &mut sys);
        let writes_before = sys.dram_writes;
        dir.handle_request(gets(4, 3), &mut sys);
        assert_eq!(dir.stats().eviction_writebacks.get(), 1);
        assert_eq!(sys.dram_writes, writes_before + 1);
    }

    #[test]
    fn eviction_notice_deallocates_entry() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let r = dir.handle_request(gets(500, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(500), r.fill_state);
        assert!(dir.probe_filter().peek(LineAddr::new(500)).is_some());
        dir.note_cache_eviction(LineAddr::new(500), CoreId::new(1), false, &mut sys);
        assert!(dir.probe_filter().peek(LineAddr::new(500)).is_none());
    }

    #[test]
    fn dirty_eviction_notice_writes_back() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        let r = dir.handle_request(getx(500, 1), &mut sys);
        sys.caches[1].fill(LineAddr::new(500), r.fill_state);
        let writes_before = sys.dram_writes;
        let latency = dir.note_cache_eviction(LineAddr::new(500), CoreId::new(1), true, &mut sys);
        assert_eq!(sys.dram_writes, writes_before + 1);
        assert!(latency >= Nanos::new(60));
    }

    #[test]
    fn local_remote_fractions_are_tracked() {
        let mut sys = MiniSystem::new();
        let mut dir = big_controller(AllocationPolicy::Baseline);
        dir.handle_request(gets(1, 0), &mut sys);
        dir.handle_request(gets(2, 1), &mut sys);
        dir.handle_request(gets(3, 2), &mut sys);
        dir.handle_request(gets(4, 0), &mut sys);
        assert_eq!(dir.stats().requests.get(), 4);
        assert_eq!(dir.stats().requests_local.get(), 2);
        assert_eq!(dir.stats().requests_remote.get(), 2);
        assert!((dir.stats().local_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hammer_broadcast_sends_more_eviction_messages() {
        let mut sys_vec = MiniSystem::new();
        let mut sys_bc = MiniSystem::new();
        let mut cfg = ProbeFilterConfig::new(2 * 64, 2);
        cfg.replacement = allarm_types::config::PfReplacement::Lru;
        let mut dir_vec =
            DirectoryController::new(NodeId::new(0), &cfg, AllocationPolicy::Baseline);
        cfg.sharer_tracking = SharerTracking::HammerBroadcast;
        let mut dir_bc = DirectoryController::new(NodeId::new(0), &cfg, AllocationPolicy::Baseline);

        for dir_sys in [(&mut dir_vec, &mut sys_vec), (&mut dir_bc, &mut sys_bc)] {
            let (dir, sys) = dir_sys;
            let r = dir.handle_request(gets(0, 1), sys);
            sys.caches[1].fill(LineAddr::new(0), r.fill_state);
            dir.handle_request(gets(2, 2), sys);
            dir.handle_request(gets(4, 3), sys);
        }
        assert!(dir_bc.stats().eviction_messages.get() > dir_vec.stats().eviction_messages.get());
    }

    #[test]
    fn accessors() {
        let dir = big_controller(AllocationPolicy::Allarm);
        assert_eq!(dir.home(), NodeId::new(0));
        assert_eq!(dir.policy(), AllocationPolicy::Allarm);
        assert_eq!(dir.stats().requests.get(), 0);
    }

    /// A request on the 2-node x 2-core machine; the requester node is
    /// derived from the hierarchical mapping.
    fn gets2(line: u64, core: u16) -> CoherenceRequest {
        CoherenceRequest::new(
            LineAddr::new(line),
            RequestKind::GetS,
            CoreId::new(core),
            NodeId::new(core / 2),
        )
    }

    #[test]
    fn allarm_skips_allocation_only_for_the_designated_core() {
        // 2 nodes x 2 cores: node 0 hosts cores 0 (designated) and 1.
        let mut sys = MiniSystem::with_cores_per_node(2);
        let mut dir = DirectoryController::hierarchical(
            NodeId::new(0),
            &ProbeFilterConfig::new(4096, 4),
            AllocationPolicy::Allarm,
            Topology::new(2, 2),
        );
        // The designated core's local miss stays untracked...
        dir.handle_request(gets2(100, 0), &mut sys);
        assert!(dir.probe_filter().peek(LineAddr::new(100)).is_none());
        assert_eq!(dir.stats().allarm_allocation_skips.get(), 1);
        // ...but the same node's other core allocates like the baseline:
        // the remote-miss flow only ever probes the designated core, so
        // lines cached elsewhere on the node must be tracked.
        dir.handle_request(gets2(101, 1), &mut sys);
        assert!(dir.probe_filter().peek(LineAddr::new(101)).is_some());
        assert_eq!(dir.stats().allarm_allocation_skips.get(), 1);
    }

    #[test]
    fn hierarchical_eviction_amortizes_messages_across_a_node() {
        // 2 nodes x 2 cores, a 2-entry probe filter homed on node 0. Cores
        // 2 and 3 (both node 1) share line 0; evicting its entry must cost
        // one invalidation + one ack for the *node*, not per core.
        let mut sys = MiniSystem::with_cores_per_node(2);
        let mut cfg = ProbeFilterConfig::new(2 * 64, 2);
        cfg.replacement = allarm_types::config::PfReplacement::Lru;
        let mut dir = DirectoryController::hierarchical(
            NodeId::new(0),
            &cfg,
            AllocationPolicy::Baseline,
            Topology::new(2, 2),
        );
        let r = dir.handle_request(gets2(0, 2), &mut sys);
        sys.caches[2].fill(LineAddr::new(0), r.fill_state);
        let r = dir.handle_request(gets2(0, 3), &mut sys);
        sys.caches[3].fill(LineAddr::new(0), r.fill_state);
        assert_eq!(
            dir.probe_filter()
                .peek(LineAddr::new(0))
                .unwrap()
                .sharers
                .count(),
            2
        );
        // Fill the set (lines 0 and 2 map to set 0) and displace line 0.
        dir.handle_request(gets2(2, 0), &mut sys);
        dir.handle_request(gets2(4, 0), &mut sys);
        assert_eq!(dir.stats().pf_evictions.get(), 1);
        // Two sharers, one node: 1 invalidate + 1 ack.
        assert_eq!(dir.stats().eviction_messages.get(), 2);
        assert_eq!(dir.stats().eviction_invalidations.get(), 2);
        assert_eq!(sys.caches[2].state_of(LineAddr::new(0)), None);
        assert_eq!(sys.caches[3].state_of(LineAddr::new(0)), None);
        // The two-level filter recorded its node-vector activity.
        assert!(dir.probe_filter().stats().node_vector_accesses.get() > 0);
    }

    #[test]
    fn wide_sharer_sets_invalidate_once_per_node() {
        // 256 cores on two nodes of 128: the line's sharers 5 and 70 (node
        // 0, sharer words 0 and 1) and 130 (node 1, word 2) lose their
        // copies to core 200's GetX with one Invalidate and one ack per
        // node, and every probed core counts as an ownership invalidation.
        let mut sys = MiniSystem::with_cores(256, 128);
        let mut dir = DirectoryController::hierarchical(
            NodeId::new(0),
            &ProbeFilterConfig::new(4096, 4),
            AllocationPolicy::Baseline,
            Topology::new(2, 128),
        );
        let request = |kind, core: u16| {
            CoherenceRequest::new(
                LineAddr::new(300),
                kind,
                CoreId::new(core),
                NodeId::new(core / 128),
            )
        };
        for core in [5, 70, 130] {
            let r = dir.handle_request(request(RequestKind::GetS, core), &mut sys);
            sys.caches[core as usize].fill(LineAddr::new(300), r.fill_state);
        }
        let sharers: Vec<u16> = dir
            .probe_filter()
            .peek(LineAddr::new(300))
            .unwrap()
            .sharers
            .iter()
            .map(|c| c.raw())
            .collect();
        assert_eq!(sharers, vec![5, 70, 130]);

        let count = |sys: &MiniSystem, class| sys.network.stats().messages_of(class);
        let (inv, acks) = (
            count(&sys, MessageClass::Invalidate),
            count(&sys, MessageClass::InvalidateAck),
        );
        let r = dir.handle_request(request(RequestKind::GetX, 200), &mut sys);
        assert_eq!(r.fill_state, CoherenceState::Modified);
        assert_eq!(count(&sys, MessageClass::Invalidate) - inv, 2);
        assert_eq!(count(&sys, MessageClass::InvalidateAck) - acks, 2);
        assert_eq!(dir.stats().ownership_invalidations.get(), 3);
        for core in [5, 70, 130] {
            assert_eq!(sys.caches[core].state_of(LineAddr::new(300)), None);
        }
        let entry = dir.probe_filter().peek(LineAddr::new(300)).unwrap();
        assert_eq!(entry.owner, CoreId::new(200));
        assert_eq!(
            entry.sharers.iter().collect::<Vec<_>>(),
            vec![CoreId::new(200)]
        );
    }
}
