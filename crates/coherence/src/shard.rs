//! Per-node directories and the cross-thread coherence message boundary.
//!
//! Everything a core wants from a directory crosses from the core phase to
//! the directory phase of the parallel simulation kernel as an explicit,
//! timestamped [`CoherenceEvent`]. The kernel keeps one [`DirectoryNode`]
//! per home node — its controller (probe filter plus counters) and its
//! occupancy clock — and in each directory phase one shard thread claims a
//! node and drains that node's events in the deterministic `(timestamp,
//! source core, sequence)` order defined by [`allarm_engine::MergeKey`].
//! The protocol-visible order of transactions at every directory — and
//! therefore every counter and latency in the final report — is thus
//! independent of how many OS threads the simulation runs on, and of
//! which thread claims which node.
//!
//! Transactions of *different* homes run concurrently and still commute,
//! because every cache line has exactly one home node and a directory only
//! ever touches cache state for lines it homes. What two of them may share
//! is a *set* of one core's cache or one LLC slice: each changes or removes
//! only its own line there, and bumps commutative counters. Removals in
//! one set do leave the set's storage order depending on which ran first;
//! that order is invisible to lookups and victim choice, and checkpoints
//! list ways by recency instead (`SetAssocCache::export_state`).

use crate::controller::{DirectoryController, SystemAccess};
use crate::request::CoherenceRequest;
use allarm_cache::CoherenceState;
use allarm_engine::{sort_by_unique_key, MergeKey};
use allarm_types::addr::LineAddr;
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::Nanos;

/// Time a directory controller is occupied by one coherence transaction
/// (tag pipeline, protocol state machine and response scheduling), excluding
/// the per-message work of probe-filter eviction processing which is charged
/// separately.
pub const DIRECTORY_SERVICE_TIME: Nanos = Nanos(12);

/// Controller time charged per coherence message sent while processing a
/// probe-filter eviction (back-invalidations, acks, writebacks).
pub const EVICTION_MESSAGE_TIME: Nanos = Nanos(4);

/// Controller time charged per probe-filter eviction on top of its
/// messages (victim selection and entry teardown).
pub const EVICTION_BASE_TIME: Nanos = Nanos(8);

/// One unit of work crossing the phase boundary toward a home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceOp {
    /// A core's coherence request (miss or upgrade) for a line homed on the
    /// destination node.
    Request {
        /// The request itself (line, kind, requester).
        request: CoherenceRequest,
        /// When the request reaches the home directory: the issuing core's
        /// clock plus its private-hierarchy latency.
        arrival: Nanos,
    },
    /// Notification that a core dropped its copy of a line (an L2 capacity
    /// victim): a dirty writeback or a clean eviction notice.
    EvictNotice {
        /// The line displaced out of the core's private hierarchy.
        line: LineAddr,
        /// The core that lost the line.
        core: CoreId,
        /// True if the victim held dirty data that must be written back.
        dirty: bool,
    },
}

/// A timestamped coherence message bound for a home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceEvent {
    /// The home node whose directory must process this event.
    pub home: NodeId,
    /// Deterministic processing order: `(timestamp, source core, seq)`.
    pub key: MergeKey,
    /// The work to perform.
    pub op: CoherenceOp,
}

/// What the home directory sends back to a requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceReply {
    /// The core the reply is for.
    pub core: CoreId,
    /// The [`MergeKey`] of the request this reply answers. A core holding
    /// several outstanding misses commits its replies in this (total,
    /// thread-count-independent) order.
    pub key: MergeKey,
    /// Latency added on top of the core's private-hierarchy walk: the time
    /// spent queued behind earlier transactions at the controller plus the
    /// transaction's own critical path.
    pub latency: Nanos,
    /// The MOESI state the requester installs the line in.
    pub fill_state: CoherenceState,
    /// True if the reply carries data (fill); false for an upgrade grant.
    pub carries_data: bool,
}

/// The checkpointed state of one home node's directory: its controller
/// (probe filter + counters) and its occupancy clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryNodeState {
    /// The controller's dynamic state.
    pub controller: crate::controller::DirectoryControllerState,
    /// The controller occupancy clock (queueing model).
    pub busy_until: Nanos,
}

/// One home node's directory: its controller (probe filter and counters)
/// and its occupancy clock.
///
/// # Examples
///
/// ```
/// use allarm_coherence::{AllocationPolicy, DirectoryController, DirectoryNode};
/// use allarm_types::config::ProbeFilterConfig;
/// use allarm_types::ids::NodeId;
///
/// let home = NodeId::new(5);
/// let node = DirectoryNode::new(DirectoryController::new(
///     home,
///     &ProbeFilterConfig::new(4096, 4),
///     AllocationPolicy::Allarm,
/// ));
/// assert_eq!(node.controller().home(), home);
/// assert_eq!(node.export_state().busy_until.as_u64(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryNode {
    controller: DirectoryController,
    /// Controller occupancy: a request arriving while the controller is
    /// still working on earlier transactions (including probe-filter
    /// eviction back-invalidations) queues behind them.
    busy_until: Nanos,
}

impl DirectoryNode {
    /// An idle directory around `controller`.
    pub fn new(controller: DirectoryController) -> Self {
        DirectoryNode {
            controller,
            busy_until: Nanos::ZERO,
        }
    }

    /// The node's controller.
    pub fn controller(&self) -> &DirectoryController {
        &self.controller
    }

    /// Consumes the directory, returning its controller (for end-of-run
    /// statistics merging).
    pub fn into_controller(self) -> DirectoryController {
        self.controller
    }

    /// Exports the complete dynamic state of the directory: the controller
    /// (probe filter + counters) and its occupancy clock.
    pub fn export_state(&self) -> DirectoryNodeState {
        DirectoryNodeState {
            controller: self.controller.export_state(),
            busy_until: self.busy_until,
        }
    }

    /// Restores state captured with [`DirectoryNode::export_state`] whose
    /// filter passed [`crate::ProbeFilter::check_state`] for this node.
    pub fn restore_state(&mut self, state: &DirectoryNodeState) {
        self.controller.restore_state(&state.controller);
        self.busy_until = state.busy_until;
    }

    /// Drains a batch of this node's events through its controller, in
    /// deterministic [`MergeKey`] order, and appends the replies owed to
    /// requesting cores to `replies` (in the same order) — a buffer the
    /// caller reuses from round to round.
    ///
    /// The batch may arrive unsorted (it is typically concatenated from
    /// several producing threads); sorting happens here so no caller can
    /// accidentally feed a nondeterministic order. Every key is unique
    /// (each carries its core and that core's sequence number).
    ///
    /// # Panics
    ///
    /// Panics if an event is homed on another node.
    pub fn process(
        &mut self,
        events: &mut [CoherenceEvent],
        sys: &mut dyn SystemAccess,
        replies: &mut Vec<CoherenceReply>,
    ) {
        sort_by_unique_key(events, |e| e.key);
        let home = self.controller.home();
        for &event in events.iter() {
            assert_eq!(
                event.home,
                home,
                "event for node {} routed to the directory of node {}",
                event.home.index(),
                home.index()
            );
            match event.op {
                CoherenceOp::Request { request, arrival } => {
                    replies.push(self.handle_request(request, arrival, event.key, sys));
                }
                CoherenceOp::EvictNotice { line, core, dirty } => {
                    // Writebacks retire in the background; their latency is
                    // not on any core's critical path.
                    self.controller.note_cache_eviction(line, core, dirty, sys);
                }
            }
        }
    }

    /// One request transaction: the protocol flow plus the controller-
    /// occupancy model. The back-invalidation work of probe-filter
    /// evictions keeps the controller busy for every message it has to send
    /// and collect, which is how eviction pressure degrades every later
    /// request to the same directory.
    fn handle_request(
        &mut self,
        request: CoherenceRequest,
        arrival: Nanos,
        key: MergeKey,
        sys: &mut dyn SystemAccess,
    ) -> CoherenceReply {
        let dir = &mut self.controller;
        let evictions_before = dir.stats().pf_evictions.get();
        let messages_before = dir.stats().eviction_messages.get();
        let response = dir.handle_request(request, sys);

        let queue_delay = self.busy_until.saturating_sub(arrival);
        let eviction_work = EVICTION_MESSAGE_TIME
            * (dir.stats().eviction_messages.get() - messages_before)
            + EVICTION_BASE_TIME * (dir.stats().pf_evictions.get() - evictions_before);
        let service = DIRECTORY_SERVICE_TIME + eviction_work;
        self.busy_until = arrival + queue_delay + service;

        CoherenceReply {
            core: request.requester,
            key,
            latency: queue_delay + response.latency,
            fill_state: response.fill_state,
            carries_data: request.kind.needs_data(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocationPolicy;
    use crate::request::RequestKind;
    use allarm_cache::{CoreCaches, ProbeOutcome};
    use allarm_noc::{MessageClass, Network};
    use allarm_types::config::ProbeFilterConfig;
    use allarm_types::config::{MachineConfig, NocConfig};

    /// A miniature 4-core machine backing the directory under test.
    struct MiniSystem {
        caches: Vec<CoreCaches>,
        network: Network,
        dram_accesses: u64,
    }

    impl MiniSystem {
        fn new() -> Self {
            let cfg = MachineConfig::small_test();
            MiniSystem {
                caches: (0..4).map(|_| CoreCaches::new(&cfg.l1d, &cfg.l2)).collect(),
                network: Network::new(NocConfig::mesh(2, 2)),
                dram_accesses: 0,
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
        fn dram_read(&mut self, _node: NodeId) -> Nanos {
            self.dram_accesses += 1;
            Nanos::new(60)
        }
        fn dram_write(&mut self, _node: NodeId) -> Nanos {
            self.dram_accesses += 1;
            Nanos::new(60)
        }
        fn node_of_core(&self, core: CoreId) -> NodeId {
            NodeId::new(core.raw())
        }
        fn local_core_of(&self, node: NodeId) -> CoreId {
            CoreId::new(node.raw())
        }
        fn num_cores(&self) -> usize {
            self.caches.len()
        }
        fn cache_access_latency(&self) -> Nanos {
            Nanos::new(1)
        }
    }

    fn request_event(home: u16, line: u64, core: u16, time: u64, seq: u32) -> CoherenceEvent {
        CoherenceEvent {
            home: NodeId::new(home),
            key: MergeKey::new(Nanos::new(time), u32::from(core), seq),
            op: CoherenceOp::Request {
                request: CoherenceRequest::new(
                    LineAddr::new(line),
                    RequestKind::GetS,
                    CoreId::new(core),
                    NodeId::new(core),
                ),
                arrival: Nanos::new(time),
            },
        }
    }

    fn directory(home: u16) -> DirectoryNode {
        DirectoryNode::new(DirectoryController::new(
            NodeId::new(home),
            &ProbeFilterConfig::new(4096, 4),
            AllocationPolicy::Baseline,
        ))
    }

    /// Drains `events` through `dir` into a fresh reply buffer.
    fn process(
        dir: &mut DirectoryNode,
        events: &mut [CoherenceEvent],
        sys: &mut MiniSystem,
    ) -> Vec<CoherenceReply> {
        let mut replies = Vec::new();
        dir.process(events, sys, &mut replies);
        replies
    }

    #[test]
    fn events_are_processed_in_merge_key_order_regardless_of_arrival() {
        // Two orderings of the same batch must leave identical state.
        let mut batch = vec![
            request_event(0, 100, 2, 50, 0),
            request_event(0, 201, 3, 10, 0),
            request_event(0, 100, 1, 10, 1),
            request_event(0, 201, 1, 10, 0),
        ];
        let mut reversed = batch.clone();
        reversed.reverse();

        let mut sys_a = MiniSystem::new();
        let mut dir_a = directory(0);
        let replies_a = process(&mut dir_a, &mut batch, &mut sys_a);

        let mut sys_b = MiniSystem::new();
        let mut dir_b = directory(0);
        let replies_b = process(&mut dir_b, &mut reversed, &mut sys_b);

        assert_eq!(replies_a, replies_b);
        assert_eq!(sys_a.dram_accesses, sys_b.dram_accesses);
        assert_eq!(dir_a.controller().stats(), dir_b.controller().stats());
        assert_eq!(dir_a.export_state(), dir_b.export_state());
        // (time, core, seq) orders core 1's time-10 events first, so core
        // 2's identical-line request at time 50 sees the allocated entry.
        assert_eq!(replies_a[0].core, CoreId::new(1));
        assert_eq!(replies_a.len(), 4);
    }

    #[test]
    fn queueing_charges_requests_behind_controller_occupancy() {
        // Two requests to the same controller at the same arrival time: the
        // second queues behind the first's service time. The control run
        // spaces the arrivals far apart, so the latency difference between
        // the two runs is exactly the queueing delay.
        let mut sys = MiniSystem::new();
        let mut s = directory(0);
        let queued = process(
            &mut s,
            &mut [
                request_event(0, 100, 1, 10, 0),
                request_event(0, 164, 2, 10, 0),
            ],
            &mut sys,
        );

        let mut sys = MiniSystem::new();
        let mut s = directory(0);
        let spaced = process(
            &mut s,
            &mut [
                request_event(0, 100, 1, 10, 0),
                request_event(0, 164, 2, 10_000, 0),
            ],
            &mut sys,
        );

        assert_eq!(queued.len(), 2);
        assert_eq!(queued[0], spaced[0]);
        assert_eq!(
            queued[1].latency,
            spaced[1].latency + DIRECTORY_SERVICE_TIME,
            "the back-to-back request must absorb the first's service time"
        );
    }

    #[test]
    fn evict_notices_free_directory_entries_without_replies() {
        let mut sys = MiniSystem::new();
        let mut s = directory(0);
        let replies = process(&mut s, &mut [request_event(0, 100, 1, 10, 0)], &mut sys);
        assert_eq!(replies.len(), 1);
        let pf = s.controller().probe_filter();
        assert!(pf.find(LineAddr::new(100)).is_some());

        let notice = CoherenceEvent {
            home: NodeId::new(0),
            key: MergeKey::new(Nanos::new(20), 1, 1),
            op: CoherenceOp::EvictNotice {
                line: LineAddr::new(100),
                core: CoreId::new(1),
                dirty: false,
            },
        };
        let replies = process(&mut s, &mut [notice], &mut sys);
        assert!(replies.is_empty());
        let pf = s.controller().probe_filter();
        assert!(pf.find(LineAddr::new(100)).is_none());
    }

    #[test]
    #[should_panic(expected = "event for node 3 routed to the directory of node 1")]
    fn misrouted_events_are_rejected() {
        let mut sys = MiniSystem::new();
        process(
            &mut directory(1),
            &mut [request_event(3, 1, 1, 0, 0)],
            &mut sys,
        );
    }
}
