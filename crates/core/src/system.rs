//! The assembled machine: caches, network, DRAM and the address map.
//!
//! [`ShardSystem`] is one shard's view of the machine in the parallel
//! kernel: shared per-core caches behind locks, plus shard-private
//! network-traffic and DRAM accounting. Every counter a shard accumulates
//! is a commutative sum, so merging the shard views (in any fixed order)
//! reconstructs exactly what a single-shard run would have counted.

use std::sync::Mutex;

use allarm_cache::{CoreCaches, LlcSlice, ProbeOutcome};
use allarm_coherence::SystemAccess;
use allarm_mem::DramModel;
use allarm_noc::{MessageClass, Network, NocStats};
use allarm_types::addr::LineAddr;
use allarm_types::config::MachineConfig;
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::topology::Topology;
use allarm_types::Nanos;

/// One shard's machine access in the parallel kernel.
///
/// The per-core caches and per-node LLC slices are shared across shards (a
/// directory transaction probes whichever cores and slices hold its line,
/// wherever they live), so they sit behind per-core and per-slice locks.
/// The network and DRAM accounting is shard-private: message latencies
/// are pure functions of the immutable topology and DRAM's fixed latency,
/// and the traffic and access counters are sums, added across shards at
/// report time whichever shard claimed the directory that caused them.
///
/// Cross-shard determinism rests on the argument spelled out in
/// [`allarm_coherence::shard`]: concurrent directory transactions may
/// touch the same set of one cache, but never the same *line*; each
/// changes or removes only its own line and bumps commutative counters.
/// The one interleaving-dependent effect — a set's storage order after two
/// removals — is invisible to lookups and victim choice, and checkpoints
/// list ways by recency instead.
#[derive(Debug)]
pub(crate) struct ShardSystem<'a> {
    caches: &'a [Mutex<CoreCaches>],
    llc: &'a [Mutex<LlcSlice>],
    network: Network,
    dram: DramModel,
    topology: Topology,
    cache_latency: Nanos,
}

impl<'a> ShardSystem<'a> {
    /// Creates one shard's view over the shared caches and LLC slices.
    pub(crate) fn new(
        caches: &'a [Mutex<CoreCaches>],
        llc: &'a [Mutex<LlcSlice>],
        config: &MachineConfig,
    ) -> Self {
        ShardSystem {
            caches,
            llc,
            network: Network::new(config.noc),
            dram: DramModel::new(config.num_nodes() as usize, config.dram),
            topology: config.topology(),
            cache_latency: config.l1d.access_latency,
        }
    }

    /// A copy of the accumulated statistics:
    /// `(network traffic, DRAM reads, DRAM writes)`.
    pub(crate) fn stats_view(&self) -> (NocStats, u64, u64) {
        (
            self.network.stats().clone(),
            self.dram.total_reads(),
            self.dram.total_writes(),
        )
    }
}

impl SystemAccess for ShardSystem<'_> {
    fn probe_cache(
        &mut self,
        core: CoreId,
        line: LineAddr,
        downgrade: bool,
        invalidate: bool,
    ) -> ProbeOutcome {
        self.caches[core.index()]
            .lock()
            .expect("a cache lock holder panicked")
            .probe(line, downgrade, invalidate)
    }

    fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        self.network.send(src, dst, class)
    }

    fn message_latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        self.network.latency(src, dst, class)
    }

    fn dram_read(&mut self, node: NodeId) -> Nanos {
        self.dram.read(node)
    }

    fn dram_write(&mut self, node: NodeId) -> Nanos {
        self.dram.write(node)
    }

    fn node_of_core(&self, core: CoreId) -> NodeId {
        self.topology.node_of_core(core)
    }

    fn local_core_of(&self, node: NodeId) -> CoreId {
        self.topology.local_core_of(node)
    }

    fn num_cores(&self) -> usize {
        self.caches.len()
    }

    fn cache_access_latency(&self) -> Nanos {
        self.cache_latency
    }

    fn probe_llc(&mut self, node: NodeId, line: LineAddr, invalidate: bool) -> bool {
        if self.llc.is_empty() {
            return false;
        }
        let mut slice = self.llc[node.index()]
            .lock()
            .expect("an LLC slice lock holder panicked");
        if invalidate {
            slice.invalidate(line)
        } else {
            slice.probe(line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_cache::CoherenceState;

    fn shared_caches(cfg: &MachineConfig) -> Vec<Mutex<CoreCaches>> {
        (0..cfg.num_cores)
            .map(|_| Mutex::new(CoreCaches::new(&cfg.l1d, &cfg.l2)))
            .collect()
    }

    /// One slice per node when the LLC is enabled, none otherwise.
    fn shared_llc(cfg: &MachineConfig) -> Vec<Mutex<LlcSlice>> {
        let slices = if cfg.llc.enabled { cfg.num_nodes() } else { 0 };
        (0..slices)
            .map(|_| Mutex::new(LlcSlice::new(&cfg.llc)))
            .collect()
    }

    #[test]
    fn shard_system_reaches_shared_caches_and_private_accounting() {
        let cfg = MachineConfig::small_test();
        let caches = shared_caches(&cfg);
        let llc = shared_llc(&cfg);
        let mut sys = ShardSystem::new(&caches, &llc, &cfg);
        let line = LineAddr::new(42);
        assert_eq!(
            sys.probe_cache(CoreId::new(2), line, false, false),
            ProbeOutcome::Miss
        );
        caches[2]
            .lock()
            .unwrap()
            .fill(line, CoherenceState::Modified);
        assert!(matches!(
            sys.probe_cache(CoreId::new(2), line, false, false),
            ProbeOutcome::Hit { dirty: true, .. }
        ));
        sys.send(NodeId::new(0), NodeId::new(3), MessageClass::Data);
        sys.dram_read(NodeId::new(1));
        assert_eq!(sys.node_of_core(CoreId::new(3)), NodeId::new(3));
        assert_eq!(sys.local_core_of(NodeId::new(1)), CoreId::new(1));
        assert_eq!(SystemAccess::num_cores(&sys), 4);
        assert_eq!(sys.cache_access_latency(), Nanos::new(1));
        let (noc, reads, writes) = sys.stats_view();
        assert_eq!(noc.total_messages(), 1);
        assert_eq!((reads, writes), (1, 0));
    }

    #[test]
    fn llc_disabled_machines_have_no_slices_and_probes_miss() {
        let cfg = MachineConfig::small_test();
        assert!(!cfg.llc.enabled);
        let caches = shared_caches(&cfg);
        let llc = shared_llc(&cfg);
        assert!(llc.is_empty());
        let mut sys = ShardSystem::new(&caches, &llc, &cfg);
        assert!(!sys.probe_llc(NodeId::new(0), LineAddr::new(7), false));
        assert!(!sys.probe_llc(NodeId::new(0), LineAddr::new(7), true));
    }

    #[test]
    fn llc_probe_and_invalidate_reach_the_named_node_slice() {
        let mut cfg = MachineConfig::small_test();
        cfg.llc = allarm_types::config::LlcConfig::shared_slice(64 * 1024, 16);
        let caches = shared_caches(&cfg);
        let llc = shared_llc(&cfg);
        assert_eq!(llc.len(), cfg.num_nodes() as usize);
        let line = LineAddr::new(11);
        llc[2].lock().unwrap().fill(line);
        let mut sys = ShardSystem::new(&caches, &llc, &cfg);
        assert!(!sys.probe_llc(NodeId::new(1), line, false));
        assert!(sys.probe_llc(NodeId::new(2), line, false));
        // A pure probe leaves the line resident; an invalidate removes it.
        assert!(sys.probe_llc(NodeId::new(2), line, true));
        assert!(!sys.probe_llc(NodeId::new(2), line, false));
        assert!(llc[2].lock().unwrap().is_empty());
    }
}
