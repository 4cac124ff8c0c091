//! The trace-driven, cycle-approximate multicore simulator.

use std::ops::ControlFlow;

use crate::metrics::SimReport;
use crate::scenario::SimThreads;
use crate::sharded::{self, KernelOutput, KernelState};
use crate::snapshot::{config_fingerprint, SimSnapshot, SnapHeader};
use allarm_cache::SetAssocState;
use allarm_coherence::{AllocationPolicy, DirectoryStats, PfStats};
use allarm_energy::EnergyModel;
use allarm_mem::NumaPolicy;
use allarm_types::addr::LINE_BYTES;
use allarm_types::config::{CacheConfig, MachineConfig};
use allarm_types::error::ConfigError;
use allarm_types::Nanos;
use allarm_workloads::{AccessSource, Workload};

/// Where a [`Simulator::replay`] starts.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// From access zero.
    Cold,
    /// From a snapshot of this exact machine, policy and workload. The
    /// report is byte-identical to an uninterrupted run's, for every
    /// `sim_threads` value; on a streaming source each worker seeks its
    /// threads' frames straight to the snapshot cursors.
    Restore(&'a SimSnapshot),
    /// From a snapshot of a *different* workload that shares the
    /// snapshot's consumed prefix — fork-from-warm, where one warm image
    /// seeds several measured-region lengths. Only the shape is checked
    /// (thread count, core pinning, cursor bounds); the caller proves the
    /// prefix matches (the batch runner compares the reference streams).
    Fork(&'a SimSnapshot),
}

/// A configured simulator, ready to replay one workload.
///
/// Construct one through [`crate::SimulationBuilder`] (programmatic) or
/// [`crate::Scenario`] (declarative); both validate the configuration
/// before a simulator exists.
///
/// The simulation model: each thread's trace is replayed on its core,
/// interleaved in deterministic local-clock order. Every reference walks
/// the private hierarchy; misses become coherence requests to the home
/// directory of the line (determined by first-touch NUMA placement), which
/// executes the full baseline or ALLARM protocol flow against the other
/// cores' caches, the mesh and DRAM. The simulated execution time is the
/// largest per-core accumulated latency.
///
/// Execution runs on the crate's sharded kernel: the cores are partitioned
/// by node across `sim_threads` worker threads, which share the directory
/// work by claiming home nodes, and coherence traffic is merged in a
/// deterministic order — so
/// the report is **byte-identical for every thread count**. `sim_threads`
/// is purely a host-performance knob.
///
/// There is one way to run: [`Simulator::replay`] takes the source, where
/// to [`Start`] (cold, restored from a [`SimSnapshot`], or forked from a
/// warm one), a checkpoint interval and a checkpoint callback that may
/// stop the run. [`Simulator::run`] and [`Simulator::run_source`] are its
/// cold, uncheckpointed shorthand.
///
/// # Examples
///
/// ```
/// use allarm_core::{AllocationPolicy, MachineConfig, SimulationBuilder};
/// use allarm_workloads::{Benchmark, TraceGenerator};
///
/// let workload = TraceGenerator::new(4, 500, 1).generate(Benchmark::Barnes);
/// let report = SimulationBuilder::new(MachineConfig::small_test())
///     .policy(AllocationPolicy::Allarm)
///     .build()
///     .expect("valid configuration")
///     .run(&workload);
/// assert_eq!(report.total_accesses as usize, workload.total_accesses());
/// ```
///
/// Or declaratively, from a (checked-in) scenario document:
///
/// ```
/// use allarm_core::{AllocationPolicy, Scenario};
/// use allarm_workloads::Benchmark;
///
/// let report = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm)
///     .with_accesses(500)
///     .run()
///     .expect("valid scenario");
/// assert!(report.total_accesses > 0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: MachineConfig,
    policy: AllocationPolicy,
    numa_policy: NumaPolicy,
    sim_threads: usize,
}

impl Simulator {
    /// Assembles a simulator from already-validated parts. Only
    /// [`crate::SimulationBuilder`] calls this; it is the crate-internal
    /// seam between validation and execution.
    pub(crate) fn from_parts(
        config: MachineConfig,
        policy: AllocationPolicy,
        numa_policy: NumaPolicy,
        sim_threads: usize,
    ) -> Self {
        Simulator {
            config,
            policy,
            numa_policy,
            sim_threads,
        }
    }

    /// The machine configuration this simulator was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The allocation policy in force at every directory.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// The NUMA page-placement policy in force.
    pub fn numa_policy(&self) -> NumaPolicy {
        self.numa_policy
    }

    /// The intra-run worker-thread count (`0` means one worker per
    /// available hardware thread). The report does not depend on it.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Replays `workload` and returns the full metric report.
    ///
    /// # Panics
    ///
    /// Panics if the workload needs more cores than the machine has, or if
    /// the machine configuration is invalid.
    pub fn run(&self, workload: &Workload) -> SimReport {
        self.run_source(workload.into())
    }

    /// Replays any [`AccessSource`] — a materialized workload or a
    /// streaming v2 trace — and returns the full metric report. Both
    /// source kinds deliver identical record streams, so a streaming
    /// replay's report is byte-identical to the materialized run's.
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`], plus if a streaming source's trace file
    /// cannot be re-read or fails frame verification mid-replay.
    pub fn run_source(&self, source: AccessSource<'_>) -> SimReport {
        self.replay(source, Start::Cold, 0, |_| ControlFlow::Continue(()))
            .expect("a cold start checks no snapshot")
    }

    /// The general entry point: replays `source` from `start`, handing a
    /// [`SimSnapshot`] to `on_checkpoint` each time the access total
    /// crosses a multiple of `every` (`0`: never). A snapshot lands at the
    /// end-of-round boundary *after* the crossing, so consecutive
    /// checkpoints of a run are monotone in `accesses_done`, and it carries
    /// whole-run totals, so checkpointing composes across restore
    /// generations. When `on_checkpoint` returns [`ControlFlow::Break`],
    /// the run stops at that boundary and the report covers the accesses
    /// replayed so far.
    ///
    /// A warm-up is the first checkpoint of a cold run, kept and broken on
    /// (if the workload finishes first, the callback never runs); the
    /// [`crate::snapshot`] module example restores one.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`], before anything runs, when the snapshot
    /// of a [`Start::Restore`] or [`Start::Fork`] does not fit: it was taken
    /// under another machine/policy configuration
    /// (`snapshot.config_fingerprint`), a restore's workload differs
    /// (`snapshot.workload_checksum`), or the workload has another thread
    /// count, pins a thread to another core, or is shorter than a snapshot
    /// cursor (`fork` for a fork, `snapshot.threads` for a restore). Both
    /// starts also refuse a snapshot whose directories, private caches or
    /// LLC slices do not have the machine's count and geometry, or whose
    /// directories track a core outside the machine
    /// (`snapshot.directories`, `snapshot.caches`, `snapshot.llc`).
    ///
    /// # Panics
    ///
    /// As [`Simulator::run_source`].
    pub fn replay(
        &self,
        source: AccessSource<'_>,
        start: Start<'_>,
        every: u64,
        mut on_checkpoint: impl FnMut(SimSnapshot) -> ControlFlow<()>,
    ) -> Result<SimReport, ConfigError> {
        let restore = self.check_start(source, start)?;
        assert!(
            source.cores_required() <= self.config.num_cores as usize,
            "workload needs {} cores but the machine has {}",
            source.cores_required(),
            self.config.num_cores
        );
        self.config
            .validate()
            .unwrap_or_else(|e| panic!("invalid machine configuration: {e}"));

        let output = sharded::run_kernel(
            &self.config,
            self.policy,
            self.numa_policy,
            source,
            SimThreads(self.sim_threads).resolve(),
            restore.map(SimSnapshot::state),
            every,
            &mut |state| on_checkpoint(self.wrap_snapshot(source, state)),
        );
        Ok(self.build_report(source, output))
    }

    /// The restore checks: answers the snapshot `start` resumes from, or
    /// the [`ConfigError`] naming the snapshot field that does not fit
    /// this simulator and `source` (see [`Simulator::replay`]).
    pub(crate) fn check_start<'a>(
        &self,
        source: AccessSource<'_>,
        start: Start<'a>,
    ) -> Result<Option<&'a SimSnapshot>, ConfigError> {
        let (Start::Restore(snap) | Start::Fork(snap)) = start else {
            return Ok(None);
        };
        let header = snap.header();
        let fingerprint = config_fingerprint(&self.config, self.policy, self.numa_policy);
        if header.config_fingerprint != fingerprint {
            return Err(ConfigError::new(
                "snapshot.config_fingerprint",
                format!(
                    "the snapshot was taken under a different machine/policy configuration \
                     (fingerprint {:#018x}, this scenario's is {fingerprint:#018x})",
                    header.config_fingerprint
                ),
            ));
        }
        // Both starts share the shape checks below; a restore's are only
        // reachable by a crafted file, since its checksum already matched.
        let (field, forked) = if let Start::Restore(_) = start {
            if header.workload_checksum != source.checksum() {
                return Err(ConfigError::new(
                    "snapshot.workload_checksum",
                    format!(
                        "the snapshot was taken from a different workload (`{}`, checksum \
                         {:#018x}; `{}` has {:#018x})",
                        header.workload_name,
                        header.workload_checksum,
                        source.name(),
                        source.checksum()
                    ),
                ));
            }
            ("snapshot.threads", "")
        } else {
            ("fork", "forked ")
        };
        let threads = source.threads();
        let state = snap.state();
        if state.threads.len() != threads.len() {
            return Err(ConfigError::new(
                field,
                format!(
                    "the snapshot has {} threads but the {forked}workload has {}",
                    state.threads.len(),
                    threads.len()
                ),
            ));
        }
        for (taken, trace) in state.threads.iter().zip(&threads) {
            if taken.core != trace.core {
                return Err(ConfigError::new(
                    field,
                    format!(
                        "the {forked}workload pins thread {} to core {}, the snapshot to core {}",
                        taken.thread, trace.core, taken.core
                    ),
                ));
            }
            if taken.cursor as u64 > trace.accesses {
                return Err(ConfigError::new(
                    field,
                    format!(
                        "snapshot cursor {} of thread {} is past the {forked}trace ({} accesses)",
                        taken.cursor, taken.thread, trace.accesses
                    ),
                ));
            }
        }
        check_geometry(&self.config, state)?;
        Ok(Some(snap))
    }

    fn wrap_snapshot(&self, source: AccessSource<'_>, state: KernelState) -> SimSnapshot {
        let header = SnapHeader {
            config_fingerprint: config_fingerprint(&self.config, self.policy, self.numa_policy),
            num_cores: self.config.num_cores,
            num_nodes: self.config.num_nodes(),
            policy: self.policy.name().to_string(),
            workload_name: source.name().to_string(),
            workload_checksum: source.checksum(),
            workload_total: source.total_accesses(),
            accesses_done: state.totals.accesses,
            row_index: u64::MAX,
            scenario: String::new(),
        };
        SimSnapshot::from_kernel(header, state)
    }

    fn build_report(&self, source: AccessSource<'_>, output: KernelOutput) -> SimReport {
        let mut dir_stats = DirectoryStats::default();
        let mut pf_stats = PfStats::default();
        for dir in &output.controllers {
            dir_stats.merge(dir.stats());
            let pf = dir.probe_filter().stats();
            pf_stats.hits += pf.hits;
            pf_stats.misses += pf.misses;
            pf_stats.allocations += pf.allocations;
            pf_stats.evictions += pf.evictions;
            pf_stats.deallocations += pf.deallocations;
            pf_stats.array_accesses += pf.array_accesses;
            pf_stats.node_vector_accesses += pf.node_vector_accesses;
        }

        let mut l1_hits = 0u64;
        let mut l2_hits = 0u64;
        let mut l2_misses = 0u64;
        for caches in &output.caches {
            l1_hits += caches.l1_stats().hits.get();
            l2_hits += caches.l2_stats().hits.get();
            l2_misses += caches.l2_stats().misses.get();
        }

        let mut llc_stats = allarm_cache::CacheStats::default();
        for slice in &output.llc {
            llc_stats.merge(slice.stats());
        }
        // Each hit, miss, eviction read-out and invalidation touches the
        // slice array once (slice fills ride the lookup that missed, so
        // they are not charged separately).
        let llc_accesses = llc_stats.hits.get()
            + llc_stats.misses.get()
            + llc_stats.evictions.get()
            + llc_stats.invalidations.get();
        let totals = &output.totals;
        let energy =
            EnergyModel::default().dynamic_energy_with_llc(&totals.noc, &pf_stats, llc_accesses);

        SimReport {
            workload: source.name().to_string(),
            policy: self.policy.name().to_string(),
            pf_coverage_bytes: self.config.probe_filter.coverage_bytes,
            runtime: if output.makespan == Nanos::ZERO {
                Nanos::new(1)
            } else {
                output.makespan
            },
            total_accesses: totals.accesses,
            l1_hits,
            l2_hits,
            l2_misses,
            directory_requests: dir_stats.requests.get(),
            local_requests: dir_stats.requests_local.get(),
            remote_requests: dir_stats.requests_remote.get(),
            pf_allocations: pf_stats.allocations.get(),
            pf_evictions: pf_stats.evictions.get(),
            eviction_messages: dir_stats.eviction_messages.get(),
            eviction_invalidations: dir_stats.eviction_invalidations.get(),
            allarm_allocation_skips: dir_stats.allarm_allocation_skips.get(),
            noc_bytes: totals.noc.total_bytes(),
            noc_messages: totals.noc.total_messages(),
            dram_reads: totals.dram_reads,
            dram_writes: totals.dram_writes,
            local_probes: dir_stats.local_probes.get(),
            local_probe_hits: dir_stats.local_probe_hits.get(),
            local_probes_hidden: dir_stats.local_probes_hidden.get(),
            llc_hits: llc_stats.hits.get(),
            llc_misses: llc_stats.misses.get(),
            llc_evictions: llc_stats.evictions.get(),
            llc_invalidations: llc_stats.invalidations.get(),
            energy,
            rounds_executed: totals.rounds,
            events_merged: totals.events_merged,
            max_window_depth: totals.max_window,
            workload_checksum: source.checksum(),
        }
    }
}

/// The machine-shape checks of a restore or fork, on top of the header's:
/// the snapshot's directories, private caches and LLC slices must have the
/// machine's count and geometry, and every core a directory names must be
/// one of the machine's. The kernel restores all of them by index, so a
/// crafted file that disagrees would otherwise panic the restore — or
/// index past a probe-filter slot's sharer words.
fn check_geometry(config: &MachineConfig, state: &KernelState) -> Result<(), ConfigError> {
    let nodes = config.num_nodes() as usize;
    let cores = config.num_cores as usize;
    let dirs = |reason: String| Err(ConfigError::new("snapshot.directories", reason));
    if state.dirs.len() != nodes {
        return dirs(format!(
            "the snapshot has {} directories but the machine has {nodes} nodes",
            state.dirs.len()
        ));
    }
    let pf = &config.probe_filter;
    let slots = (pf.num_sets() * u64::from(pf.ways)) as usize;
    for (node, dir) in state.dirs.iter().enumerate() {
        let filter = &dir.controller.probe_filter;
        if filter.slots.len() != slots {
            return dirs(format!(
                "the directory of node {node} has {} probe-filter slots but the machine's \
                 has {slots}",
                filter.slots.len()
            ));
        }
        for entry in filter.slots.iter().flatten().map(|slot| &slot.entry) {
            let mut tracked = std::iter::once(entry.owner).chain(entry.sharers.iter());
            if let Some(core) = tracked.find(|core| core.index() >= cores) {
                return dirs(format!(
                    "the directory of node {node} tracks {core}, outside the {cores}-core machine"
                ));
            }
            if entry.line.raw() > u64::MAX / LINE_BYTES {
                return dirs(format!(
                    "the directory of node {node} tracks line {}, past the address space",
                    entry.line
                ));
            }
        }
    }
    if state.caches.len() != cores {
        return Err(ConfigError::new(
            "snapshot.caches",
            format!(
                "the snapshot has {} private hierarchies but the machine has {cores} cores",
                state.caches.len()
            ),
        ));
    }
    for (core, caches) in state.caches.iter().enumerate() {
        let what = format!("core {core}'s");
        check_sets("snapshot.caches", &what, "L1D", &caches.l1d, &config.l1d)?;
        check_sets("snapshot.caches", &what, "L2", &caches.l2, &config.l2)?;
    }
    let slices = if config.llc.enabled { nodes } else { 0 };
    if state.llc.len() != slices {
        return Err(ConfigError::new(
            "snapshot.llc",
            format!(
                "the snapshot has {} LLC slices but the machine has {slices}",
                state.llc.len()
            ),
        ));
    }
    let llc = config.llc.cache_config();
    for (node, slice) in state.llc.iter().enumerate() {
        check_sets(
            "snapshot.llc",
            &format!("node {node}'s"),
            "LLC slice",
            slice,
            &llc,
        )?;
    }
    Ok(())
}

/// One cache array of a snapshot against the machine's geometry: the same
/// set count, and no set holding more lines than the array has ways.
fn check_sets(
    field: &str,
    owner: &str,
    level: &str,
    state: &SetAssocState,
    config: &CacheConfig,
) -> Result<(), ConfigError> {
    let sets = config.num_sets() as usize;
    if state.sets.len() != sets {
        return Err(ConfigError::new(
            field,
            format!(
                "{owner} {level} has {} sets but the machine's has {sets}",
                state.sets.len()
            ),
        ));
    }
    let ways = config.ways as usize;
    match state.sets.iter().position(|set| set.len() > ways) {
        Some(set) => Err(ConfigError::new(
            field,
            format!(
                "{owner} {level} set {set} holds {} lines but the array is {ways}-way",
                state.sets[set].len()
            ),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use allarm_workloads::{Benchmark, TraceGenerator};

    fn small_workload() -> Workload {
        TraceGenerator::new(4, 1_500, 7).generate(Benchmark::Barnes)
    }

    fn simulator(policy: AllocationPolicy) -> Simulator {
        SimulationBuilder::new(MachineConfig::small_test())
            .policy(policy)
            .build()
            .expect("small_test is valid")
    }

    #[test]
    fn replays_every_access() {
        let workload = small_workload();
        let report = simulator(AllocationPolicy::Baseline).run(&workload);
        assert_eq!(report.total_accesses as usize, workload.total_accesses());
        assert_eq!(
            report.l1_hits + report.l2_hits + report.l2_misses,
            report.total_accesses
        );
        assert!(report.runtime > Nanos::ZERO);
    }

    #[test]
    fn directory_requests_equal_misses_plus_upgrades() {
        let workload = small_workload();
        let report = simulator(AllocationPolicy::Baseline).run(&workload);
        assert!(report.directory_requests >= report.l2_misses);
        assert_eq!(
            report.directory_requests,
            report.local_requests + report.remote_requests
        );
    }

    #[test]
    fn allarm_skips_allocations_and_reduces_evictions() {
        let workload = small_workload();
        let baseline = simulator(AllocationPolicy::Baseline).run(&workload);
        let allarm = simulator(AllocationPolicy::Allarm).run(&workload);
        assert_eq!(baseline.allarm_allocation_skips, 0);
        assert!(allarm.allarm_allocation_skips > 0);
        assert!(allarm.pf_allocations < baseline.pf_allocations);
        assert!(allarm.pf_evictions <= baseline.pf_evictions);
        // Baseline never probes the local core; ALLARM does so on remote
        // misses only.
        assert_eq!(baseline.local_probes, 0);
        assert!(allarm.local_probes > 0);
        assert!(allarm.local_probes_hidden <= allarm.local_probes);
    }

    #[test]
    fn runs_are_deterministic() {
        let workload = small_workload();
        let a = simulator(AllocationPolicy::Allarm).run(&workload);
        let b = simulator(AllocationPolicy::Allarm).run(&workload);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_runs_match_serial_byte_for_byte() {
        let workload = small_workload();
        for policy in AllocationPolicy::ALL {
            let serial = simulator(policy).run(&workload);
            for threads in [2, 4, 0] {
                let sharded = SimulationBuilder::new(MachineConfig::small_test())
                    .policy(policy)
                    .sim_threads(threads)
                    .build()
                    .expect("small_test is valid")
                    .run(&workload);
                assert_eq!(serial, sharded, "{policy}: sim_threads={threads} diverged");
            }
        }
    }

    fn multicore_llc_config(enabled: bool) -> MachineConfig {
        // Two 2-core nodes, so slices are genuinely shared between cores.
        let mut cfg = MachineConfig::small_test();
        cfg.cores_per_node = allarm_types::config::CoresPerNode(2);
        cfg.noc = allarm_types::config::NocConfig::mesh(1, 2);
        if enabled {
            cfg.llc = allarm_types::config::LlcConfig::shared_slice(256 * 1024, 16);
        }
        cfg
    }

    #[test]
    fn llc_slices_serve_shared_read_misses_locally() {
        let workload = small_workload();
        let run = |enabled| {
            SimulationBuilder::new(multicore_llc_config(enabled))
                .policy(AllocationPolicy::Baseline)
                .build()
                .expect("valid configuration")
                .run(&workload)
        };
        let off = run(false);
        let on = run(true);
        // Disabled: the report carries no trace of the LLC at all.
        assert_eq!(off.llc_hits, 0);
        assert_eq!(off.llc_misses, 0);
        assert_eq!(off.energy.llc_pj, 0.0);
        // Enabled: the same workload replays fully, some read misses are
        // served from the slices, and those transactions never reach the
        // home directories.
        assert_eq!(on.total_accesses, off.total_accesses);
        assert_eq!(on.workload_checksum, off.workload_checksum);
        assert!(on.llc_hits > 0, "no slice hits: {on:?}");
        assert!(on.llc_misses > 0);
        assert!(on.energy.llc_pj > 0.0);
        // Every reference still lands somewhere: hits in the private
        // hierarchy, in the slice, or at a directory. (Slice hits vs the
        // LLC-less run's directory requests is *not* an identity — a slice
        // hit installs the line Shared where a directory fill may have
        // granted Exclusive, so later writes cost Upgrade requests the
        // LLC-less run avoided.)
        assert_eq!(
            on.l1_hits + on.l2_hits + on.l2_misses,
            on.total_accesses,
            "private-hierarchy accounting must survive slice fills"
        );
    }

    #[test]
    fn llc_enabled_runs_are_shard_count_invariant() {
        let workload = small_workload();
        let run = |threads| {
            SimulationBuilder::new(multicore_llc_config(true))
                .policy(AllocationPolicy::Allarm)
                .sim_threads(threads)
                .build()
                .expect("valid configuration")
                .run(&workload)
        };
        let serial = run(1);
        assert!(serial.llc_hits > 0);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn llc_enabled_snapshot_resumes_byte_identically() {
        let workload = small_workload();
        let build = |threads| {
            SimulationBuilder::new(multicore_llc_config(true))
                .policy(AllocationPolicy::Baseline)
                .sim_threads(threads)
                .build()
                .expect("valid configuration")
        };
        let full = build(1).run(&workload);
        let snap = warm_up(&build(1), &workload, 3_000);
        let snap = SimSnapshot::from_bytes(&snap.to_bytes()).expect("round-trips");
        assert!(!snap.state().llc.is_empty(), "snapshot carries the slices");
        for threads in [1, 2] {
            assert_eq!(
                finish(&build(threads), &workload, Start::Restore(&snap)),
                Ok(full.clone())
            );
        }
    }

    #[test]
    fn snapshot_caches_and_slices_must_have_the_machine_geometry() {
        let workload = small_workload();
        let sim = SimulationBuilder::new(multicore_llc_config(true))
            .build()
            .expect("valid configuration");
        let snap = warm_up(&sim, &workload, 3_000);
        assert!(check_geometry(sim.config(), snap.state()).is_ok());
        let refused = |edit: &dyn Fn(&mut KernelState)| {
            let mut state = snap.state().clone();
            edit(&mut state);
            check_geometry(sim.config(), &state).unwrap_err()
        };

        let err = refused(&|state| {
            state.caches.pop();
        });
        assert_eq!(err.field(), "snapshot.caches", "{err}");
        let err = refused(&|state| {
            let ways = sim.config().l2.ways as usize;
            let sets = &mut state.caches[0].l2.sets;
            let set = sets.iter_mut().find(|set| !set.is_empty()).unwrap();
            let line = set[0];
            set.resize(ways + 1, line);
        });
        assert_eq!(err.field(), "snapshot.caches", "{err}");
        assert!(err.reason().contains("core 0's L2 set"), "{err}");

        let err = refused(&|state| {
            state.llc.pop();
        });
        assert_eq!(err.field(), "snapshot.llc", "{err}");
        let err = refused(&|state| {
            state.llc[0].sets.pop();
        });
        assert_eq!(err.field(), "snapshot.llc", "{err}");
        assert!(err.reason().contains("sets"), "{err}");
    }

    /// The first checkpoint at `accesses`, taken by stopping there.
    fn warm_up(sim: &Simulator, workload: &Workload, accesses: u64) -> SimSnapshot {
        let mut warm = None;
        sim.replay(workload.into(), Start::Cold, accesses, |snap| {
            warm = Some(snap);
            ControlFlow::Break(())
        })
        .expect("a cold start checks no snapshot");
        warm.expect("the workload outlasts the warm-up")
    }

    fn finish(
        sim: &Simulator,
        workload: &Workload,
        start: Start<'_>,
    ) -> Result<SimReport, ConfigError> {
        sim.replay(workload.into(), start, 0, |_| ControlFlow::Continue(()))
    }

    #[test]
    fn checkpoints_are_monotone_and_breaking_stops_the_run() {
        let workload = small_workload();
        let sim = simulator(AllocationPolicy::Allarm);
        let mut taken = Vec::new();
        let full = sim
            .replay((&workload).into(), Start::Cold, 1_000, |snap| {
                taken.push(snap.accesses_done());
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(full, sim.run(&workload), "checkpointing is invisible");
        assert!(taken.len() >= 4, "{taken:?}");
        assert!(taken.windows(2).all(|w| w[0] < w[1]), "{taken:?}");
        assert!(taken[0] >= 1_000);

        // Breaking at the first checkpoint: the callback runs once and the
        // report covers exactly the snapshot's prefix.
        let mut calls = 0;
        let partial = sim
            .replay((&workload).into(), Start::Cold, 1_000, |_| {
                calls += 1;
                ControlFlow::Break(())
            })
            .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(partial.total_accesses, taken[0]);
        // The first checkpoint of a run equals a warm-up stopped there.
        assert_eq!(warm_up(&sim, &workload, 1_000).accesses_done(), taken[0]);
    }

    #[test]
    fn mismatched_restores_are_refused_with_the_field_named() {
        let workload = small_workload();
        let sim = simulator(AllocationPolicy::Baseline);
        let snap = warm_up(&sim, &workload, 2_000);

        // Another machine/policy configuration: the fingerprint differs.
        let err = finish(
            &simulator(AllocationPolicy::Allarm),
            &workload,
            Start::Restore(&snap),
        )
        .unwrap_err();
        assert_eq!(err.field(), "snapshot.config_fingerprint", "{err}");
        let err = finish(
            &simulator(AllocationPolicy::Allarm),
            &workload,
            Start::Fork(&snap),
        )
        .unwrap_err();
        assert_eq!(err.field(), "snapshot.config_fingerprint", "{err}");

        // Another workload under the same configuration: the checksum
        // differs.
        let other = TraceGenerator::new(4, 1_500, 8).generate(Benchmark::Barnes);
        let err = finish(&sim, &other, Start::Restore(&snap)).unwrap_err();
        assert_eq!(err.field(), "snapshot.workload_checksum", "{err}");
        assert!(err.reason().contains("different workload"), "{err}");
    }

    #[test]
    fn forks_onto_misshapen_workloads_are_refused() {
        let host = TraceGenerator::new(4, 1_500, 7).generate(Benchmark::Barnes);
        let sim = simulator(AllocationPolicy::Baseline);
        let snap = warm_up(&sim, &host, 3_000);

        // Another thread count.
        let narrow = TraceGenerator::new(2, 1_500, 7).generate(Benchmark::Barnes);
        let err = finish(&sim, &narrow, Start::Fork(&snap)).unwrap_err();
        assert_eq!(err.field(), "fork");
        assert!(err.reason().contains("threads"), "{err}");

        // Other core pinning: swap two threads' cores.
        let mut repinned = host.clone();
        let (a, b) = (repinned.threads[0].core, repinned.threads[1].core);
        repinned.threads[0].core = b;
        repinned.threads[1].core = a;
        let err = finish(&sim, &repinned, Start::Fork(&snap)).unwrap_err();
        assert_eq!(err.field(), "fork");
        assert!(err.reason().contains("pins thread 0"), "{err}");

        // A trace shorter than the snapshot cursor.
        let mut short = host.clone();
        short.threads[2].accesses.truncate(10);
        assert!(snap.state().threads[2].cursor > 10);
        let err = finish(&sim, &short, Start::Fork(&snap)).unwrap_err();
        assert_eq!(err.field(), "fork");
        assert!(
            err.reason()
                .contains("of thread 2 is past the forked trace"),
            "{err}"
        );

        // The host itself forks cleanly.
        assert_eq!(finish(&sim, &host, Start::Fork(&snap)), Ok(sim.run(&host)));
    }

    #[test]
    fn policy_and_config_accessors() {
        let sim = simulator(AllocationPolicy::Allarm);
        assert_eq!(sim.policy(), AllocationPolicy::Allarm);
        assert_eq!(sim.numa_policy(), NumaPolicy::FirstTouch);
        assert_eq!(sim.config().num_cores, 4);
        assert_eq!(sim.sim_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn oversized_workload_is_rejected() {
        let workload = TraceGenerator::new(8, 10, 1).generate(Benchmark::Barnes);
        simulator(AllocationPolicy::Baseline).run(&workload);
    }

    #[test]
    fn numa_policy_override_changes_homing() {
        let workload = small_workload();
        let first_touch = simulator(AllocationPolicy::Baseline).run(&workload);
        let interleaved = SimulationBuilder::new(MachineConfig::small_test())
            .numa_policy(NumaPolicy::Interleaved)
            .build()
            .expect("valid configuration")
            .run(&workload);
        // Interleaving destroys locality: the local fraction drops.
        assert!(interleaved.local_fraction() < first_touch.local_fraction());
    }

    #[test]
    fn miss_window_batching_cuts_rounds_at_least_in_half() {
        use allarm_types::config::MissWindowConfig;
        // Raytrace is the most miss-heavy generated profile: long strided
        // sweeps with little reuse, so cores issue many independent misses
        // back to back — exactly what the window overlaps.
        // On the paper machine: raytrace's page-touch rate exhausts
        // small_test's modelled DRAM.
        let workload = TraceGenerator::new(4, 2_000, 3).generate(Benchmark::Raytrace);
        let batched = SimulationBuilder::new(MachineConfig::date2014())
            .policy(AllocationPolicy::Baseline)
            .build()
            .expect("date2014 is valid")
            .run(&workload);
        let mut serial_cfg = MachineConfig::date2014();
        serial_cfg.miss_window = MissWindowConfig::serial();
        let unbatched = SimulationBuilder::new(serial_cfg)
            .policy(AllocationPolicy::Baseline)
            .build()
            .expect("date2014 with a serial window is valid")
            .run(&workload);

        // Depth 1 means at most one in-flight miss; the default window
        // must actually overlap misses and drain rounds off the barrier.
        assert_eq!(unbatched.max_window_depth, 1);
        assert!(batched.max_window_depth > 1);
        assert!(
            batched.rounds_executed * 2 <= unbatched.rounds_executed,
            "batching should at least halve the barrier crossings: {} batched vs {} unbatched",
            batched.rounds_executed,
            unbatched.rounds_executed
        );
        // The replayed work is identical either way; only timing and
        // round structure may differ.
        assert_eq!(batched.total_accesses, unbatched.total_accesses);
        assert!(batched.events_merged > 0);
        assert_eq!(batched.workload_checksum, unbatched.workload_checksum);
    }

    #[test]
    fn next_touch_policy_runs_identically_across_shard_counts() {
        // Next-touch exercises the fault path hardest: every page faults
        // twice (allocation, then the re-homing decision).
        let workload = small_workload();
        let build = |threads| {
            SimulationBuilder::new(MachineConfig::small_test())
                .numa_policy(NumaPolicy::NextTouch)
                .sim_threads(threads)
                .build()
                .expect("valid configuration")
                .run(&workload)
        };
        let serial = build(1);
        assert_eq!(serial, build(2));
        assert_eq!(serial, build(4));
    }
}
