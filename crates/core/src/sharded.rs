//! The deterministic sharded execution kernel behind [`crate::Simulator`].
//!
//! A run executes on one or more OS threads, its *shards*. The cores are
//! partitioned by node ([`ShardPlan`]): each shard replays the cores pinned
//! to one contiguous block of nodes (a node's whole core block, on
//! multi-core-node topologies). The directories are not partitioned: each
//! home node has one [`DirectoryNode`] record — controller, probe filter
//! and occupancy clock — behind its own lock, and the shards share the
//! directory work of every round by claiming nodes, so it splits by load
//! rather than by node index. Events travel through per-destination
//! mailboxes ([`Exchange`]) — per home node for directory events, per
//! shard for replies — so each consumer drains exactly what it owns.
//! Execution proceeds in *rounds*, each a pair of barrier-separated
//! phases:
//!
//! 1. **Core phase** (parallel, shard-local state only): every shard first
//!    commits the directory replies its cores received last round (fills,
//!    upgrade grants, clock advances, capacity-victim collection) in
//!    per-core [`MergeKey`] order, then replays each of its unfinished
//!    cores once, forward through private-cache hits *and further
//!    coherence misses* until the core blocks. A core does not stop at its
//!    first miss: it keeps issuing requests for independent lines,
//!    accumulating an in-flight *miss window*, until it touches a line that
//!    is already in flight, fills its window (`miss_window.depth`, the MSHR
//!    count), runs past the round's time horizon, page-faults, or exhausts
//!    its trace.
//! 2. **Directory phase** (parallel by home node): pending page faults are
//!    applied to the allocator in deterministic `(time, core, seq)` order
//!    by the lead shard; concurrently every shard claims the next
//!    unprocessed home node from one atomic cursor, in ascending node
//!    order, and drains that node's coherence events — sorted by the same
//!    key — through the node's directory, probing remote caches through
//!    per-core locks, until every node of the round is done. The lead shard
//!    joins the claiming once its faults are applied. It resets the cursor
//!    during the core phase: every claim falls between the round's two
//!    barriers, and the reset falls outside them.
//!
//! **Run order.** A shard runs its unfinished cores in `(local clock, slot
//! index)` order, laggard first: one sort per core phase. Every run ends
//! with the core either finished or blocked on something the same round
//! resolves — its window's replies commit at the start of the next core
//! phase, and its page fault is applied between the phases — so every
//! unfinished core is runnable again when the next core phase starts, and
//! each runs exactly once per round. The order matters only where cores
//! share shard-local state: same-node cores consult their node's LLC slice
//! in it. A node's cores always live on one shard, in thread order, so the
//! order among them does not depend on the shard count.
//!
//! **The time horizon.** Batching several misses per round is what lets a
//! round carry several rounds' worth of traffic per barrier crossing, but
//! an unbounded window would let a fast core race arbitrarily far ahead of
//! the slowest one, reordering directory traffic relative to a short
//! window. The horizon pins that skew: at the end of every core phase each
//! shard publishes the minimum clock of its unfinished cores
//! ([`Exchange::min_clock`]); each shard folds the global minimum and sets
//! next round's horizon to `min + miss_window.horizon`. A core with a
//! non-empty window stops issuing once its local time passes the horizon.
//! A core's *first* miss of a round is never gated — the horizon bounds
//! window growth, not progress — so the kernel cannot deadlock.
//!
//! **Why the result is independent of the shard count.** The core phase
//! touches only state owned by the running shard (its cores' caches,
//! cursors and windows) plus read-only views, so the window a core issues
//! is a pure function of round-start state and the round horizon. The
//! horizon itself is a fold (min) over all cores' round-start clocks —
//! shard-count-invariant because the clocks are. The directory phase
//! orders each home node's events by a total order ([`MergeKey`]) that
//! does not mention shards or rounds, and all of a node's events go
//! through its one record, so which shard claims the node does not matter.
//! Transactions of *different* homes never touch the same cache line (a
//! line has exactly one home), so they commute: where two share a set of
//! one core's cache or one LLC slice, each changes or removes only its own
//! line and bumps commutative counters. (Two removals in one set leave its
//! storage order depending on which ran first; lookups and victim choice
//! ignore that order, and checkpoints list ways by recency instead.)
//! Replies commit to each core in the same key order the requests were
//! issued in, so the core-side cache mutations replay identically too.
//! Every merged statistic is a sum, a max, or per-shard-identical. Hence
//! `sim_threads = N` produces byte-identical reports to `sim_threads = 1`
//! — the batch-level guarantee of the runner, extended down into a single
//! simulation.
//!
//! **Failure.** A shard that panics aborts the phase barrier, which unwinds
//! every peer waiting at it, and [`run_kernel`] re-raises the failed
//! shard's own panic: a run fails the same way at every `sim_threads`
//! instead of leaving the other shards waiting forever.
//!
//! With `miss_window.depth = 1` (see [`MissWindowConfig::serial`]) every
//! window holds at most one miss and the horizon never engages, which
//! reproduces the unbatched kernel's timing bit-for-bit — the ablation
//! baseline for the `rounds_executed` counter.
//!
//! [`MissWindowConfig::serial`]: allarm_types::MissWindowConfig::serial

use std::mem;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use allarm_cache::{
    AccessOutcome, CoherenceState, CoreCaches, CoreCachesState, LlcSlice, SetAssocState,
};
use allarm_coherence::{
    AllocationPolicy, CoherenceEvent, CoherenceOp, CoherenceReply, CoherenceRequest,
    DirectoryController, DirectoryNode, DirectoryNodeState, RequestKind,
};
use allarm_engine::{sort_by_unique_key, BarrierAborted, Keyed, MergeKey, PhaseBarrier, ShardPlan};
use allarm_mem::{NumaAllocator, NumaAllocatorState, NumaPolicy};
use allarm_noc::NocStats;
use allarm_types::addr::{LineAddr, VirtAddr};
use allarm_types::config::MachineConfig;
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::topology::Topology;
use allarm_types::Nanos;
use allarm_workloads::{AccessSource, ThreadFeed};

use crate::system::ShardSystem;

/// A touch the allocator could not resolve read-only: a first touch of a
/// page, or a pending next-touch re-homing decision. Carried as a
/// [`Keyed`] event and resolved centrally, in [`MergeKey`] order, between
/// the two phases of a round.
#[derive(Debug, Clone, Copy)]
struct PageFault {
    vaddr: VirtAddr,
    toucher: NodeId,
}

/// The cross-shard mailboxes. Events and replies are routed **per
/// destination**: `events[node][src]` holds what shard `src` produced for
/// home node `node` this round, and `replies[dst][src]` what it produced
/// for the cores of shard `dst`, so a consumer drains exactly its own
/// column — O(events) per round — instead of scanning every shard's outbox
/// for the pieces it owns. Page faults keep a single slot per source
/// because they have a single consumer (the lead shard).
///
/// Each mailbox is written by its source shard in one phase and read by
/// its consumer in the next; the phase barriers guarantee the accesses
/// never overlap, the mutexes make that safe in the type system.
/// Producers swap their filled buffer with the drained-but-allocated one
/// left in the mailbox, so in steady state no mailbox traffic allocates.
struct Exchange {
    /// `events[node][src]`: coherence events homed on `node`.
    events: Vec<Vec<Mutex<Vec<CoherenceEvent>>>>,
    /// `replies[dst][src]`: directory replies for cores pinned to `dst`.
    replies: Vec<Vec<Mutex<Vec<CoherenceReply>>>>,
    faults: Vec<Mutex<Vec<Keyed<PageFault>>>>,
    /// Per shard: the minimum clock of its live (unfinished) cores at the
    /// end of its core phase, or `u64::MAX` if none remain. Folded by
    /// every shard in the directory phase into next round's time horizon.
    /// Written before and read after a barrier, so never racy.
    min_clock: Vec<AtomicU64>,
    /// The next home node to claim in this round's directory phase. Claims
    /// fall between the round's two barriers; the lead shard resets it to
    /// 0 in the core phase, which the barriers order before every claim.
    next_node: AtomicUsize,
}

impl Exchange {
    fn new(num_nodes: usize, num_shards: usize) -> Self {
        fn matrix<T>(rows: usize, columns: usize) -> Vec<Vec<Mutex<Vec<T>>>> {
            (0..rows)
                .map(|_| (0..columns).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        }
        Exchange {
            events: matrix(num_nodes, num_shards),
            replies: matrix(num_shards, num_shards),
            faults: (0..num_shards).map(|_| Mutex::new(Vec::new())).collect(),
            min_clock: (0..num_shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            next_node: AtomicUsize::new(0),
        }
    }
}

/// One in-flight coherence transaction of one core: issued in the core
/// phase, resolved by the [`CoherenceReply`] carrying the same key next
/// round. The private-hierarchy latency of the triggering access is folded
/// into the core's clock when the window parks, so the reply only needs to
/// add the directory's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending {
    pub(crate) key: MergeKey,
    pub(crate) line: LineAddr,
}

/// One workload slot (a software thread pinned to a core) as a shard sees
/// it.
#[derive(Debug)]
struct Slot<'a> {
    /// Index into the source's thread list.
    thread: usize,
    core: CoreId,
    node: NodeId,
    /// This thread's record cursor into `feed`: a direct slice on the
    /// materialized path, a frame-at-a-time streaming decode on the v2
    /// trace path. Identical streams either way.
    feed: ThreadFeed<'a>,
    cursor: usize,
    /// Monotone event counter; the final tie-breaker of this core's
    /// [`MergeKey`]s.
    seq: u32,
    /// The in-flight miss window, in issue (= key) order. Every reply for
    /// the window arrives in the next directory phase, so the window is
    /// always empty again when the core next runs.
    window: Vec<Pending>,
    /// The core's local clock.
    clock: Nanos,
    /// True once the trace is exhausted and the window has drained.
    finished: bool,
    /// True if the core's last run stopped on a page fault.
    faulted: bool,
}

impl Slot<'_> {
    fn next_key(&mut self, time: Nanos) -> MergeKey {
        let key = MergeKey::new(time, u32::from(self.core.raw()), self.seq);
        self.seq += 1;
        key
    }

    /// Reports the lines a fill of `filled` displaced entirely out of this
    /// core's hierarchy, stamped at `completed`. Dirty (exclusively-owned)
    /// victims are written back, which also notifies the home directory
    /// and frees its entry — the baseline's eviction-notification
    /// optimisation. Clean victims are dropped silently, as in the
    /// deployed Hammer protocol, so their directory entries go stale until
    /// the probe filter's own replacement recycles them. That stale
    /// occupancy is precisely the pressure ALLARM removes for thread-local
    /// data.
    ///
    /// A victim that is itself part of this commit batch — the just-filled
    /// line, or a line the rest of the window is about to reinstall — must
    /// not be reported: its directory entry is live for the in-flight
    /// transaction, and the notice would free it out from under the reply.
    /// (Unreachable at window depth 1, where the remaining window is always
    /// empty.)
    fn notify_dirty_victims(
        &mut self,
        caches: &mut CoreCaches,
        filled: LineAddr,
        completed: Nanos,
        allocator: &NumaAllocator,
        outboxes: &mut [Vec<CoherenceEvent>],
    ) {
        for victim in caches.take_capacity_victims() {
            if victim.state.is_dirty()
                && victim.addr != filled
                && !self.window.iter().any(|p| p.line == victim.addr)
            {
                let home = allocator.home_of_line(victim.addr);
                let event = CoherenceEvent {
                    home,
                    key: self.next_key(completed),
                    op: CoherenceOp::EvictNotice {
                        line: victim.addr,
                        core: self.core,
                        dirty: true,
                    },
                };
                outboxes[home.index()].push(event);
            }
        }
    }
}

/// One workload thread's execution state, as captured at a checkpoint and
/// keyed by its index into `workload.threads` — canonical (per thread, not
/// per shard), so a snapshot restores onto any shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ThreadState {
    /// Index into `workload.threads`.
    pub(crate) thread: usize,
    /// The core the thread is pinned to (for cross-checking the workload).
    pub(crate) core: CoreId,
    /// The core's local clock.
    pub(crate) clock: Nanos,
    /// True if the trace is exhausted and the window has drained.
    pub(crate) finished: bool,
    /// True if the core's last run stopped on a page fault.
    pub(crate) faulted: bool,
    /// Next access to replay.
    pub(crate) cursor: usize,
    /// Monotone event counter (MergeKey tie-breaker).
    pub(crate) seq: u32,
    /// The in-flight miss window, in issue order; its replies are in
    /// [`KernelState::replies`].
    pub(crate) window: Vec<Pending>,
}

/// The complete mid-run state of the kernel, captured at a frozen point
/// (the end of a round, after every directory phase and before any core
/// phase). Canonical: every collection is keyed by thread, node or core
/// index — never by shard — so the capture is byte-identical for every
/// `sim_threads` value and restores onto any.
#[derive(Debug, Clone)]
pub(crate) struct KernelState {
    /// Per-thread execution state, sorted by thread index.
    pub(crate) threads: Vec<ThreadState>,
    /// Per-home-node directory state (probe filter, counters, occupancy),
    /// indexed by node.
    pub(crate) dirs: Vec<DirectoryNodeState>,
    /// Per-core private-hierarchy state, indexed by core.
    pub(crate) caches: Vec<CoreCachesState>,
    /// Per-node shared LLC slice state, indexed by node. Empty when the
    /// machine's LLC is disabled — and then absent from the snapshot file,
    /// keeping LLC-less snapshots byte-identical to the previous format.
    pub(crate) llc: Vec<SetAssocState>,
    /// The NUMA page table and allocation cursors.
    pub(crate) allocator: NumaAllocatorState,
    /// Directory replies produced in the checkpoint round and not yet
    /// committed, sorted by `(core, key)` — the exact order the next core
    /// phase commits them in.
    pub(crate) replies: Vec<CoherenceReply>,
    /// Next round's issue cutoff (identical on every shard).
    pub(crate) round_horizon: Nanos,
    /// Whole-run totals so far (all shards, plus any restored run's).
    pub(crate) totals: Totals,
}

/// The run totals: what every shard accumulates, every checkpoint carries
/// and the report prints. Workers count from zero; a restored run's totals
/// enter the same [`Totals::absorb`] fold as every shard's, both when a
/// checkpoint is assembled and when the final report is merged, so totals
/// stay true across any number of checkpoint/restore generations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Totals {
    /// Accesses replayed.
    pub(crate) accesses: u64,
    /// Barrier-to-barrier rounds. Every shard crosses the same barriers,
    /// so only the lead shard counts them.
    pub(crate) rounds: u64,
    /// Coherence events drained through the home directories.
    pub(crate) events_merged: u64,
    /// Deepest miss window any core accumulated in a single round.
    pub(crate) max_window: u32,
    /// Network traffic.
    pub(crate) noc: NocStats,
    /// DRAM line reads.
    pub(crate) dram_reads: u64,
    /// DRAM writebacks.
    pub(crate) dram_writes: u64,
}

impl Totals {
    /// Folds `other` in: a sum for every count, a max for `max_window`.
    /// Both are commutative, so the fold order is immaterial to the values.
    fn absorb(&mut self, other: &Totals) {
        self.accesses += other.accesses;
        self.rounds += other.rounds;
        self.events_merged += other.events_merged;
        self.max_window = self.max_window.max(other.max_window);
        self.noc.merge(&other.noc);
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
    }
}

/// The shard-local slice of a checkpoint, captured by each worker at the
/// frozen point and assembled into a [`KernelState`] by shard 0.
struct ShardPart {
    threads: Vec<ThreadState>,
    totals: Totals,
}

/// Shared checkpoint coordination. The decision to checkpoint is taken at
/// the frozen point from `total` and `next_target`, which every shard reads
/// between the same two barriers — so the decision is uniform and every
/// shard performs the same barrier sequence.
struct CheckpointCtl {
    /// Capture whenever total accesses cross a multiple of this (0 = off).
    every: u64,
    /// The next access total that triggers a capture.
    next_target: AtomicU64,
    /// Accesses replayed so far across all shards (including the resume
    /// base); shards add their per-round delta during the core phase, so
    /// the value is stable from the mid-round barrier to the next core
    /// phase — which covers the frozen point.
    total: AtomicU64,
    /// Set by shard 0 when the checkpoint callback broke; every shard
    /// exits.
    stop: AtomicBool,
    /// Per-shard capture slots for the round being checkpointed.
    parts: Vec<Mutex<Option<ShardPart>>>,
    /// Totals the run started from (non-zero after a restore).
    base: Totals,
}

impl CheckpointCtl {
    fn new(every: u64, num_shards: usize, base: Totals) -> Self {
        CheckpointCtl {
            every,
            next_target: AtomicU64::new(next_multiple(base.accesses, every)),
            total: AtomicU64::new(base.accesses),
            stop: AtomicBool::new(false),
            parts: (0..num_shards).map(|_| Mutex::new(None)).collect(),
            base,
        }
    }

    /// True if this run can ever checkpoint (gates the per-round atomics).
    fn active(&self) -> bool {
        self.every > 0
    }
}

/// The first multiple of `every` above `total` (`u64::MAX` when `every`
/// is 0): the access total that triggers the next capture.
fn next_multiple(total: u64, every: u64) -> u64 {
    match total.checked_div(every) {
        Some(done) => (done + 1) * every,
        None => u64::MAX,
    }
}

/// Everything one shard accumulates that the final report needs.
struct ShardOutput {
    /// The largest local clock among the shard's cores.
    makespan: Nanos,
    totals: Totals,
}

/// The checkpoint callback: receives each capture; breaking stops the run.
pub(crate) type Emit<'a> = dyn FnMut(KernelState) -> ControlFlow<()> + 'a;

/// The merged outcome of a run, consumed by the report builder.
pub(crate) struct KernelOutput {
    pub(crate) controllers: Vec<DirectoryController>,
    pub(crate) caches: Vec<CoreCaches>,
    /// Per-node shared LLC slices (empty when the LLC is disabled).
    pub(crate) llc: Vec<LlcSlice>,
    pub(crate) makespan: Nanos,
    pub(crate) totals: Totals,
}

/// Replays `source` on the machine with `num_shards` worker threads and
/// returns the merged state. The output is byte-identical for every
/// `num_shards` value — and, because both [`AccessSource`] kinds deliver
/// identical per-thread record streams, identical whether the source is a
/// materialized workload or a streaming v2 trace.
///
/// It optionally restores a mid-run state, which must have passed
/// `Simulator::check_start` for this machine and source, and hands a
/// checkpoint to `emit` whenever the access total crosses a multiple of
/// `every` (0 = never). When `emit` breaks, every shard stops at that round
/// boundary and the output covers the run so far.
///
/// # Panics
///
/// A panic on any shard — a trace frame that fails verification
/// mid-replay, say — ends every shard and is re-raised here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kernel(
    config: &MachineConfig,
    policy: AllocationPolicy,
    numa_policy: NumaPolicy,
    source: AccessSource<'_>,
    num_shards: usize,
    restore: Option<&KernelState>,
    every: u64,
    emit: &mut Emit<'_>,
) -> KernelOutput {
    let num_nodes = config.num_nodes() as usize;
    let num_cores = config.num_cores as usize;
    let topology = config.topology();
    let plan = ShardPlan::new(num_nodes, num_shards);
    let num_shards = plan.num_shards();
    let num_slices = if config.llc.enabled { num_nodes } else { 0 };

    let mut numa = NumaAllocator::new(num_nodes, config.dram, numa_policy);
    let mut live = source.num_threads();
    let mut base = Totals::default();
    if let Some(state) = restore {
        numa.restore_state(&state.allocator);
        live = state.threads.iter().filter(|t| !t.finished).count();
        base = state.totals.clone();
    }
    // The shared structures are built, and restored, across the run's
    // threads: at 256 cores their slabs take over 100 MB of writes.
    let caches = build_parallel(num_cores, num_shards, |core| {
        let mut caches = CoreCaches::new(&config.l1d, &config.l2);
        if let Some(state) = restore {
            caches.restore_state(&state.caches[core]);
        }
        Mutex::new(caches)
    });
    let llc = build_parallel(num_slices, num_shards, |node| {
        let mut slice = LlcSlice::new(&config.llc);
        if let Some(state) = restore {
            slice.restore_state(&state.llc[node]);
        }
        Mutex::new(slice)
    });
    let dirs = build_parallel(num_nodes, num_shards, |node| {
        let home = NodeId::new(node as u16);
        let mut dir = DirectoryNode::new(DirectoryController::hierarchical(
            home,
            &config.probe_filter,
            policy,
            topology,
        ));
        if let Some(state) = restore {
            dir.restore_state(&state.dirs[node]);
        }
        Mutex::new(dir)
    });
    let allocator = RwLock::new(numa);
    let exchange = Exchange::new(num_nodes, num_shards);
    if let Some(state) = restore {
        // The checkpoint round's un-committed replies go back into the
        // mailboxes of the shards owning their cores. All into source
        // column 0: the consumer drains every column before sorting, so
        // the column split carries no information.
        for &reply in &state.replies {
            let dst = plan.shard_of_node(topology.node_of_core(reply.core).index());
            exchange.replies[dst][0]
                .lock()
                .expect("reply mailbox poisoned")
                .push(reply);
        }
    }
    let barrier = PhaseBarrier::new(num_shards);
    let live_slots = AtomicUsize::new(live);
    let ctl = CheckpointCtl::new(every, num_shards, base);

    let mut outputs: Vec<Option<ShardOutput>> = Vec::new();
    outputs.resize_with(num_shards, || None);
    let outputs = Mutex::new(outputs);

    let failures = std::thread::scope(|scope| {
        // A shard that panics aborts the barrier, so its peers unwind
        // instead of waiting for it forever.
        let run_shard = |shard_id: usize, emit: Option<&mut Emit<'_>>| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut worker = ShardWorker::new(
                    shard_id,
                    &plan,
                    config,
                    source,
                    &caches,
                    &llc,
                    &dirs,
                    &allocator,
                    &exchange,
                    &barrier,
                    &live_slots,
                    &ctl,
                    restore,
                );
                worker.run(emit);
                outputs.lock().expect("output collection poisoned")[shard_id] =
                    Some(worker.into_output());
            }));
            if result.is_err() {
                barrier.abort();
            }
            result
        };
        // Shard 0 (the fault and checkpoint leader) runs on the calling
        // thread — which is why it alone gets the emit callback — and a
        // serial run (`num_shards == 1`) spawns nothing.
        let handles: Vec<_> = (1..num_shards)
            .map(|shard_id| scope.spawn(move || run_shard(shard_id, None)))
            .collect();
        let mut results = vec![run_shard(0, Some(emit))];
        results.extend(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("shard panics are caught")),
        );
        results
            .into_iter()
            .filter_map(Result::err)
            .collect::<Vec<_>>()
    });
    // Re-raise the panic that failed the run, not a peer's abort.
    if let Some(payload) = failures
        .into_iter()
        .min_by_key(|payload| payload.is::<BarrierAborted>())
    {
        panic::resume_unwind(payload);
    }

    merge(
        caches,
        llc,
        dirs,
        outputs.into_inner().expect("outputs poisoned"),
        &ctl.base,
    )
}

/// Builds `len` items in index order, `build(index)` each, on up to
/// `threads` threads: one contiguous block of indices each, the first
/// block on the calling thread.
fn build_parallel<T: Send>(
    len: usize,
    threads: usize,
    build: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, len.max(1));
    let block = len.div_ceil(threads);
    let build_block =
        |start: usize| -> Vec<T> { (start..len.min(start + block)).map(&build).collect() };
    let build_block = &build_block;
    std::thread::scope(|scope| {
        let rest: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || build_block(t * block)))
            .collect();
        let mut items = build_block(0);
        for handle in rest {
            items.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        items
    })
}

/// Folds the per-shard outputs into the single-machine view, on top of the
/// totals the run started from, so a restored run reports whole-run
/// totals. Controllers come out in node order.
fn merge(
    caches: Vec<Mutex<CoreCaches>>,
    llc: Vec<Mutex<LlcSlice>>,
    dirs: Vec<Mutex<DirectoryNode>>,
    outputs: Vec<Option<ShardOutput>>,
    base: &Totals,
) -> KernelOutput {
    let mut makespan = Nanos::ZERO;
    let mut totals = base.clone();
    for output in outputs {
        let output = output.expect("every shard reports an output");
        makespan = makespan.max(output.makespan);
        totals.absorb(&output.totals);
    }
    KernelOutput {
        controllers: dirs
            .into_iter()
            .map(|d| {
                d.into_inner()
                    .expect("directory lock poisoned")
                    .into_controller()
            })
            .collect(),
        caches: caches
            .into_iter()
            .map(|c| c.into_inner().expect("cache lock poisoned"))
            .collect(),
        llc: llc
            .into_iter()
            .map(|s| s.into_inner().expect("LLC slice lock poisoned"))
            .collect(),
        makespan,
        totals,
    }
}

/// One shard's execution state for the duration of a run.
struct ShardWorker<'a> {
    shard_id: usize,
    topology: Topology,
    /// Node index -> the shard replaying its cores, for reply routing.
    shard_of_node: Vec<usize>,
    slots: Vec<Slot<'a>>,
    /// Global core index -> local slot index, for reply delivery.
    slot_of_core: Vec<Option<usize>>,
    sys: ShardSystem<'a>,
    caches: &'a [Mutex<CoreCaches>],
    /// Per-node shared LLC slices (empty when disabled). The core phase
    /// only ever locks this shard's own nodes' slices; the directory phase
    /// reaches any node's through [`ShardSystem::probe_llc`].
    llc: &'a [Mutex<LlcSlice>],
    /// Per-home-node directories, claimed one at a time in the directory
    /// phase by whichever shard takes the node off the cursor.
    dirs: &'a [Mutex<DirectoryNode>],
    allocator: &'a RwLock<NumaAllocator>,
    exchange: &'a Exchange,
    barrier: &'a PhaseBarrier,
    /// Count of slots that have not yet exhausted their traces, across all
    /// shards; the shared termination condition.
    live_slots: &'a AtomicUsize,
    /// Shared checkpoint coordination (targets, access total, capture
    /// slots).
    ckpt: &'a CheckpointCtl,
    /// The value of `totals.accesses` already folded into `ckpt.total`, so
    /// each core phase publishes only its delta.
    accesses_reported: u64,
    l1_latency: Nanos,
    l2_latency: Nanos,
    /// LLC slice lookup latency, added to every read miss that consults
    /// the local slice (hit or miss). [`Nanos::ZERO`]-cost when disabled.
    llc_latency: Nanos,
    llc_enabled: bool,
    /// Maximum in-flight misses per core (the MSHR count).
    depth: usize,
    /// Window growth allowance beyond the globally slowest live core.
    horizon_ns: Nanos,
    /// This round's absolute issue cutoff: `min(live clocks) + horizon_ns`
    /// as of the previous round's end, identical on every shard.
    round_horizon: Nanos,
    /// The kernel's own counts. The traffic totals (`noc`, DRAM) stay zero
    /// here: `sys` accounts them, and [`ShardWorker::totals`] adds them.
    totals: Totals,
    // Round-local buffers, persisted across rounds so the steady state
    // allocates nothing (the `alloc_budget` test holds it to that). The
    // outboxes (one per home node), the fault buffer and `routed` (one per
    // shard) swap with the exchange mailboxes; the scratch vectors are
    // drained or cleared each round. `reply_scratch` holds the replies
    // committed in the core phase and those the claimed directories
    // produce in the directory phase; `fault_merge` is the lead shard's
    // merged view of every fault mailbox.
    run_order: Vec<usize>,
    outboxes: Vec<Vec<CoherenceEvent>>,
    fault_scratch: Vec<Keyed<PageFault>>,
    fault_merge: Vec<Keyed<PageFault>>,
    inbox_scratch: Vec<CoherenceEvent>,
    reply_scratch: Vec<CoherenceReply>,
    routed_scratch: Vec<Vec<CoherenceReply>>,
}

impl<'a> ShardWorker<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard_id: usize,
        plan: &ShardPlan,
        config: &MachineConfig,
        source: AccessSource<'a>,
        caches: &'a [Mutex<CoreCaches>],
        llc: &'a [Mutex<LlcSlice>],
        dirs: &'a [Mutex<DirectoryNode>],
        allocator: &'a RwLock<NumaAllocator>,
        exchange: &'a Exchange,
        barrier: &'a PhaseBarrier,
        live_slots: &'a AtomicUsize,
        ckpt: &'a CheckpointCtl,
        restore: Option<&KernelState>,
    ) -> Self {
        let topology = config.topology();
        let nodes = plan.nodes_of_shard(shard_id);
        // A slot belongs to the shard owning the node its core is pinned
        // to; with several cores per node, a node's whole core block moves
        // together, so the determinism argument is untouched. Feeds open
        // after the restore block below, so a streaming source seeks
        // straight to each restored cursor's frame instead of frame 0.
        let mut slots: Vec<Slot> = source
            .threads()
            .iter()
            .enumerate()
            .filter(|(_, t)| nodes.contains(&topology.node_of_core(t.core).index()))
            .map(|(thread, t)| Slot {
                thread,
                core: t.core,
                node: topology.node_of_core(t.core),
                feed: ThreadFeed::Slice(&[]),
                cursor: 0,
                seq: 0,
                window: Vec::new(),
                clock: Nanos::ZERO,
                finished: false,
                faulted: false,
            })
            .collect();
        let mut slot_of_core = vec![None; config.num_cores as usize];
        for (local, slot) in slots.iter().enumerate() {
            assert!(
                slot_of_core[slot.core.index()].replace(local).is_none(),
                "workload pins two threads to core {}",
                slot.core.index()
            );
        }
        let shard_of_node: Vec<usize> = (0..plan.num_nodes())
            .map(|n| plan.shard_of_node(n))
            .collect();
        let num_shards = plan.num_shards();
        let mut round_horizon = config.miss_window.horizon;
        if let Some(state) = restore {
            // Snapshot threads are sorted by thread index, so each slot's
            // state is at its own index.
            for slot in &mut slots {
                let thread = &state.threads[slot.thread];
                slot.cursor = thread.cursor;
                slot.seq = thread.seq;
                slot.window = thread.window.clone();
                slot.clock = thread.clock;
                slot.finished = thread.finished;
                slot.faulted = thread.faulted;
            }
            round_horizon = state.round_horizon;
        }
        for slot in &mut slots {
            slot.feed = source
                .open_thread(slot.thread, slot.cursor as u64)
                .unwrap_or_else(|e| {
                    panic!(
                        "cannot open thread {} of `{}`: {e}",
                        slot.thread,
                        source.name()
                    )
                });
        }
        ShardWorker {
            shard_id,
            topology,
            shard_of_node,
            slots,
            slot_of_core,
            sys: ShardSystem::new(caches, llc, config),
            caches,
            llc,
            dirs,
            allocator,
            exchange,
            barrier,
            live_slots,
            ckpt,
            accesses_reported: 0,
            l1_latency: config.l1d.access_latency,
            l2_latency: config.l2.access_latency,
            llc_latency: config.llc.access_latency,
            llc_enabled: config.llc.enabled,
            depth: config.miss_window.depth.max(1) as usize,
            horizon_ns: config.miss_window.horizon,
            round_horizon,
            totals: Totals::default(),
            run_order: Vec::new(),
            outboxes: vec![Vec::new(); plan.num_nodes()],
            fault_scratch: Vec::new(),
            fault_merge: Vec::new(),
            inbox_scratch: Vec::new(),
            reply_scratch: Vec::new(),
            routed_scratch: vec![Vec::new(); num_shards],
        }
    }

    /// The round loop. Both phases of a round end on the shared barrier;
    /// the termination condition is read between rounds, when it is stable
    /// and identical for every shard.
    fn run(&mut self, mut emit: Option<&mut Emit<'_>>) {
        loop {
            if self.shard_id == 0 {
                self.totals.rounds += 1;
            }
            self.core_phase();
            self.barrier.wait();
            if self.shard_id == 0 {
                self.apply_faults();
            }
            self.directory_phase();
            // The termination flag must be read while it is frozen: between
            // the barriers only directory phases run, and only core phases
            // retire slots. Reading *after* the end-of-round barrier would
            // race with faster shards already decrementing it in their next
            // core phase, leaving shards disagreeing on whether to exit.
            // The checkpoint decision is read at the same frozen point —
            // `total` and `next_target` are stable here — so every shard
            // takes the same branch and the same barrier sequence.
            let done = self.live_slots.load(Ordering::Acquire) == 0;
            let ckpt = !done
                && self.ckpt.active()
                && self.ckpt.total.load(Ordering::Acquire)
                    >= self.ckpt.next_target.load(Ordering::Acquire);
            self.barrier.wait();
            if done {
                return;
            }
            if ckpt && self.checkpoint_round(&mut emit) {
                return;
            }
        }
    }

    /// Captures the frozen end-of-round state across all shards. Each
    /// shard deposits its slice; shard 0 — while every other shard idles
    /// at the middle barrier, so the shared caches, allocator and reply
    /// mailboxes are safe to walk — assembles the canonical
    /// [`KernelState`], emits it, and advances the trigger. Returns true
    /// if the run should stop (the callback broke).
    fn checkpoint_round(&mut self, emit: &mut Option<&mut Emit<'_>>) -> bool {
        let part = self.capture_part();
        *self.ckpt.parts[self.shard_id]
            .lock()
            .expect("checkpoint part poisoned") = Some(part);
        self.barrier.wait();
        if self.shard_id == 0 {
            let state = self.assemble();
            let total = state.totals.accesses;
            if let Some(emit) = emit {
                if emit(state).is_break() {
                    self.ckpt.stop.store(true, Ordering::Release);
                }
            }
            self.ckpt
                .next_target
                .store(next_multiple(total, self.ckpt.every), Ordering::Release);
        }
        self.barrier.wait();
        self.ckpt.stop.load(Ordering::Acquire)
    }

    /// This shard's slice of a checkpoint: its threads and its totals.
    fn capture_part(&self) -> ShardPart {
        let threads = self
            .slots
            .iter()
            .map(|slot| ThreadState {
                thread: slot.thread,
                core: slot.core,
                clock: slot.clock,
                finished: slot.finished,
                faulted: slot.faulted,
                cursor: slot.cursor,
                seq: slot.seq,
                window: slot.window.clone(),
            })
            .collect();
        ShardPart {
            threads,
            totals: self.totals(),
        }
    }

    /// This shard's totals so far: the kernel's counts plus the traffic
    /// its system view accounted.
    fn totals(&self) -> Totals {
        let (noc, dram_reads, dram_writes) = self.sys.stats_view();
        Totals {
            noc,
            dram_reads,
            dram_writes,
            ..self.totals.clone()
        }
    }

    /// Shard 0 only: folds the deposited parts and the shared state into
    /// the canonical [`KernelState`]. Threads are re-sorted by thread
    /// index; directories, caches and slices are read in index order;
    /// replies are cloned out of the mailboxes (not drained — the next core
    /// phase still commits them) and sorted by the order they commit in.
    fn assemble(&self) -> KernelState {
        let mut threads: Vec<ThreadState> = Vec::new();
        let mut totals = self.ckpt.base.clone();
        for part in &self.ckpt.parts {
            let part = part
                .lock()
                .expect("checkpoint part poisoned")
                .take()
                .expect("every shard deposits a part before the barrier");
            threads.extend(part.threads);
            totals.absorb(&part.totals);
        }
        threads.sort_by_key(|t| t.thread);
        let dirs = self
            .dirs
            .iter()
            .map(|d| d.lock().expect("directory lock poisoned").export_state())
            .collect();
        let caches = self
            .caches
            .iter()
            .map(|c| c.lock().expect("cache lock poisoned").export_state())
            .collect();
        let llc = self
            .llc
            .iter()
            .map(|s| s.lock().expect("LLC slice lock poisoned").export_state())
            .collect();
        let allocator = self
            .allocator
            .read()
            .expect("allocator lock poisoned")
            .export_state();
        let mut replies = Vec::new();
        for column in &self.exchange.replies {
            for mailbox in column {
                replies.extend(
                    mailbox
                        .lock()
                        .expect("reply mailbox poisoned")
                        .iter()
                        .copied(),
                );
            }
        }
        replies.sort_by_key(|r| (r.core.index(), r.key));
        KernelState {
            threads,
            dirs,
            caches,
            llc,
            allocator,
            replies,
            round_horizon: self.round_horizon,
            totals,
        }
    }

    /// Phase 1: commit last round's replies to this shard's cores, then
    /// replay each unfinished core forward until it blocks, laggard first
    /// (see the module docs on run order). Every emitted event goes
    /// straight into its home node's mailbox.
    fn core_phase(&mut self) {
        if self.shard_id == 0 {
            // Every claim of the last directory phase happened before the
            // last barrier, and every claim of the next one happens after
            // the next: nobody reads the cursor now.
            self.exchange.next_node.store(0, Ordering::Relaxed);
        }
        let mut outboxes = mem::take(&mut self.outboxes);
        // The lead shard drained last round's fault mailbox, so the buffer
        // swapped back out of it is empty.
        let mut faults = mem::take(&mut self.fault_scratch);
        debug_assert!(faults.is_empty(), "the lead shard drains every fault");
        {
            let allocator = self.allocator.read().expect("allocator lock poisoned");
            self.deliver_replies(&allocator, &mut outboxes);
            let mut order = mem::take(&mut self.run_order);
            order.clear();
            order.extend((0..self.slots.len()).filter(|&local| !self.slots[local].finished));
            order.sort_unstable_by_key(|&local| (self.slots[local].clock, local));
            for &local in &order {
                self.run_slot(local, &allocator, &mut outboxes, &mut faults);
            }
            self.run_order = order;
        }
        for (node, outbox) in outboxes.iter_mut().enumerate() {
            // Swap rather than assign: the claimer drained the mailbox
            // with `append`, leaving an empty vector whose capacity we
            // inherit for next round. An empty outbox has nothing to
            // deliver, and the drained mailbox is empty already.
            if outbox.is_empty() {
                continue;
            }
            let mut mailbox = self.exchange.events[node][self.shard_id]
                .lock()
                .expect("event mailbox poisoned");
            mem::swap(&mut *mailbox, outbox);
        }
        {
            let mut mailbox = self.exchange.faults[self.shard_id]
                .lock()
                .expect("fault mailbox poisoned");
            mem::swap(&mut *mailbox, &mut faults);
        }
        self.outboxes = outboxes;
        self.fault_scratch = faults;

        // Publish the minimum clock of this shard's live cores; the fold
        // across shards (after the barrier) bounds next round's window
        // growth. `u64::MAX` marks a shard with no live cores left.
        let mut min = u64::MAX;
        for slot in self.slots.iter().filter(|slot| !slot.finished) {
            min = min.min(slot.clock.as_u64());
        }
        self.exchange.min_clock[self.shard_id].store(min, Ordering::Release);

        // Publish this round's access delta. `total` is then stable from
        // the mid-round barrier to the next core phase, which covers the
        // frozen point where the checkpoint decision reads it.
        if self.ckpt.active() {
            let delta = self.totals.accesses - self.accesses_reported;
            self.accesses_reported = self.totals.accesses;
            if delta > 0 {
                self.ckpt.total.fetch_add(delta, Ordering::AcqRel);
            }
        }
    }

    /// Commits every reply addressed to one of this shard's cores, in
    /// per-core issue order: install the data, surface capacity victims as
    /// eviction notices, and advance the core's clock by the directory
    /// latency.
    fn deliver_replies(
        &mut self,
        allocator: &RwLockReadGuard<'_, NumaAllocator>,
        outboxes: &mut [Vec<CoherenceEvent>],
    ) {
        let mut replies = mem::take(&mut self.reply_scratch);
        replies.clear();
        for mailbox in &self.exchange.replies[self.shard_id] {
            replies.append(&mut mailbox.lock().expect("reply mailbox poisoned"));
        }
        // Mailbox (source-shard) order depends on the shard count; commit
        // order must not. Group by core, then replay each core's replies
        // in the key order its requests were issued in.
        sort_by_unique_key(&mut replies, |reply| (reply.core.index(), reply.key));
        for reply in &replies {
            let local = self.slot_of_core[reply.core.index()]
                .expect("replies are routed to the shard owning the core");
            let slot = &mut self.slots[local];
            // Window keys are strictly increasing, and the directory
            // answers every request the round it receives it, so the
            // sorted replies walk the window front to back.
            let pending = slot.window.remove(0);
            assert_eq!(
                pending.key, reply.key,
                "replies commit in the order their requests were issued"
            );
            // The transaction completes at `arrival + latency`, an absolute
            // time (the key's timestamp is the arrival). The core clock
            // advances to the latest completion seen so far — not by the
            // sum of the window's latencies: the misses overlapped at the
            // controller, so their queueing delays overlap too. Summing
            // them would charge the shared wait once per miss, and — since
            // inflated clocks inflate the next round's arrivals and the
            // controllers' occupancy horizons — compound round over round.
            // At window depth 1 the maximum is always the single reply's
            // completion, reproducing the unbatched kernel's clock exactly.
            slot.clock = slot.clock.max(reply.key.time + reply.latency);
            let completed = slot.clock;

            let mut caches = self.caches[slot.core.index()]
                .lock()
                .expect("cache lock poisoned");
            if reply.carries_data {
                caches.fill(pending.line, reply.fill_state);
                // A Shared data reply also fills the node's LLC slice, so
                // later read misses from any core on this node are served
                // locally. Exclusive/Modified fills never enter the slice:
                // a resident copy could go stale through a silent E→M
                // upgrade that no directory message announces. The slice
                // is this shard's own node's — shard-local, deterministic.
                if self.llc_enabled && reply.fill_state == CoherenceState::Shared {
                    self.llc[slot.node.index()]
                        .lock()
                        .expect("LLC slice lock poisoned")
                        .fill(pending.line);
                }
            } else if !caches.grant_write(pending.line) {
                // The Shared copy was invalidated while the upgrade was
                // parked (an earlier-keyed writer won ownership of the
                // line this round). The directory has already recorded
                // this core as the new owner, so install the line
                // Modified — the refetched data a real upgrade-miss
                // reply would carry — keeping cache state and directory
                // bookkeeping consistent.
                caches.fill(pending.line, CoherenceState::Modified);
            }
            slot.notify_dirty_victims(&mut caches, pending.line, completed, allocator, outboxes);
        }
        self.reply_scratch = replies;
    }

    /// Replays one core until it blocks: on a full or dependent miss
    /// window, on the round horizon, on a page fault, or on the end of its
    /// trace.
    fn run_slot(
        &mut self,
        local: usize,
        allocator: &RwLockReadGuard<'_, NumaAllocator>,
        outboxes: &mut [Vec<CoherenceEvent>],
        faults: &mut Vec<Keyed<PageFault>>,
    ) {
        let slot = &mut self.slots[local];
        slot.faulted = false;
        debug_assert!(
            slot.window.is_empty(),
            "every reply for a window arrives the round after it is issued"
        );
        let mut caches = self.caches[slot.core.index()]
            .lock()
            .expect("cache lock poisoned");
        // Hit latencies — and the private-hierarchy part of every issued
        // miss — accumulate locally and commit to the clock once, when the
        // core blocks. Replies later add only the directory latency on top.
        let base = slot.clock;
        let mut elapsed = Nanos::ZERO;
        loop {
            let Some(access) = slot.feed.get(slot.cursor) else {
                // A trace that ends mid-window retires next round, after
                // the outstanding replies commit.
                if slot.window.is_empty() {
                    slot.finished = true;
                    self.live_slots.fetch_sub(1, Ordering::AcqRel);
                }
                break;
            };

            // The horizon gates only window *growth*: a core that has
            // already issued a miss this round stops (even through hits)
            // once its local time passes the cutoff, so no core races
            // ahead of the globally slowest one by more than the
            // configured allowance. Checked before any mutation, so the
            // access replays verbatim next round.
            if !slot.window.is_empty() && base + elapsed > self.round_horizon {
                break;
            }

            // Virtual-to-physical translation; an unmapped (or policy-
            // pending) page blocks the core until the fault is resolved in
            // the deterministic merge step.
            let Some(frame) = allocator.lookup(access.vaddr) else {
                faults.push(Keyed::new(
                    slot.next_key(base + elapsed),
                    PageFault {
                        vaddr: access.vaddr,
                        toucher: slot.node,
                    },
                ));
                slot.faulted = true;
                break;
            };
            let line = frame.line(access.vaddr);

            // An access to a line with an in-flight transaction depends on
            // the reply; stop here without consuming the access.
            if slot.window.iter().any(|p| p.line == line) {
                break;
            }

            // Walk the private hierarchy.
            let outcome = caches.access(line, access.write);
            slot.cursor += 1;
            self.totals.accesses += 1;
            let mut latency = self.l1_latency;
            if !matches!(outcome, AccessOutcome::L1Hit { .. }) {
                latency += self.l2_latency;
            }
            elapsed += latency;

            let Some(kind) = RequestKind::for_access(outcome, access.write) else {
                continue;
            };
            // A read miss consults the node's shared LLC slice before the
            // home directory. The slice is node-pinned and a node's whole
            // core block lives on this shard, so the lookup (which moves
            // recency and counts a hit or miss) touches shard-local state
            // only — the order same-node cores run in is fixed by the
            // run order and independent of the shard count. Writes and
            // upgrades bypass the slice: it holds only clean Shared lines,
            // which cannot satisfy an ownership request.
            if self.llc_enabled && kind == RequestKind::GetS {
                elapsed += self.llc_latency;
                let hit = self.llc[slot.node.index()]
                    .lock()
                    .expect("LLC slice lock poisoned")
                    .lookup(line);
                if hit {
                    // Served locally: fill the private hierarchy Shared
                    // and keep replaying — no directory transaction, no
                    // window entry. The directory already tracks this
                    // node (slice-resident ⇒ probe-filter-tracked), so no
                    // sharer bookkeeping is lost.
                    caches.fill(line, CoherenceState::Shared);
                    slot.notify_dirty_victims(
                        &mut caches,
                        line,
                        base + elapsed,
                        allocator,
                        outboxes,
                    );
                    continue;
                }
                // Slice miss: fall through to the directory, with the
                // slice lookup latency already folded into the arrival.
            }
            let arrival = base + elapsed;
            let key = slot.next_key(arrival);
            let event = CoherenceEvent {
                home: frame.home,
                key,
                op: CoherenceOp::Request {
                    request: CoherenceRequest::new(line, kind, slot.core, slot.node),
                    arrival,
                },
            };
            outboxes[frame.home.index()].push(event);
            slot.window.push(Pending { key, line });
            self.totals.max_window = self.totals.max_window.max(slot.window.len() as u32);
            if slot.window.len() >= self.depth {
                break;
            }
            // Window not full: keep replaying — the next independent miss
            // overlaps with this one.
        }
        slot.clock += elapsed;
    }

    /// The lead shard resolves every page fault of the round, in merged
    /// `(time, core, seq)` order, against the allocator. This is the only
    /// serial section of a round; faults are rare after the working set is
    /// mapped.
    fn apply_faults(&mut self) {
        let mut faults = mem::take(&mut self.fault_merge);
        for mailbox in &self.exchange.faults {
            faults.append(&mut mailbox.lock().expect("fault mailbox poisoned"));
        }
        if !faults.is_empty() {
            sort_by_unique_key(&mut faults, |fault| fault.key);
            let mut allocator = self.allocator.write().expect("allocator lock poisoned");
            for fault in faults.drain(..) {
                // The first fault in key order performs the allocation (or
                // the next-touch re-homing); later faults on the same page
                // are plain re-touches.
                allocator.translate(fault.payload.vaddr, fault.payload.toucher);
            }
        }
        self.fault_merge = faults;
    }

    /// Phase 2: claim home nodes off the shared cursor until none is
    /// left, drain each claimed node's events through its directory, and
    /// route every reply to the shard owning the requesting core.
    fn directory_phase(&mut self) {
        // Fold next round's horizon from the per-shard minima published at
        // the end of the core phase (the barrier between the phases orders
        // the stores before these loads). Identical on every shard, and
        // independent of the shard count because the per-core clocks are.
        let mut min = u64::MAX;
        for clock in &self.exchange.min_clock {
            min = min.min(clock.load(Ordering::Acquire));
        }
        self.round_horizon = Nanos::new(min.saturating_add(self.horizon_ns.as_u64()));

        let mut inbox = mem::take(&mut self.inbox_scratch);
        let mut replies = mem::take(&mut self.reply_scratch);
        replies.clear();
        loop {
            let node = self.exchange.next_node.fetch_add(1, Ordering::Relaxed);
            let Some(mailboxes) = self.exchange.events.get(node) else {
                break;
            };
            inbox.clear();
            for mailbox in mailboxes {
                inbox.append(&mut mailbox.lock().expect("event mailbox poisoned"));
            }
            if inbox.is_empty() {
                continue;
            }
            self.totals.events_merged += inbox.len() as u64;
            self.dirs[node]
                .lock()
                .expect("directory lock poisoned")
                .process(&mut inbox, &mut self.sys, &mut replies);
        }
        self.inbox_scratch = inbox;

        let mut routed = mem::take(&mut self.routed_scratch);
        for reply in replies.drain(..) {
            let node = self.topology.node_of_core(reply.core);
            routed[self.shard_of_node[node.index()]].push(reply);
        }
        self.reply_scratch = replies;
        for (dst, bin) in routed.iter_mut().enumerate() {
            let mut mailbox = self.exchange.replies[dst][self.shard_id]
                .lock()
                .expect("reply mailbox poisoned");
            mem::swap(&mut *mailbox, bin);
        }
        self.routed_scratch = routed;
    }

    /// Tears the worker down into the statistics the report needs.
    fn into_output(self) -> ShardOutput {
        ShardOutput {
            totals: self.totals(),
            makespan: self
                .slots
                .iter()
                .map(|slot| slot.clock)
                .max()
                .unwrap_or(Nanos::ZERO),
        }
    }
}
