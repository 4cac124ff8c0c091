//! Experiment scales: the machine, thread count, trace length and seed
//! behind every figure of the evaluation, and the probe-filter coverages
//! the figures sweep.
//!
//! An [`ExperimentConfig`] stamps its scale into [`Scenario`]s; the
//! `allarm-bench` grid constructors build the paper's figure grids from
//! them, which are checked in under `scenarios/`, run by `scenario_run`
//! and rendered by the `figures` binary.

use crate::scenario::Scenario;
use allarm_coherence::AllocationPolicy;
use allarm_mem::NumaPolicy;
use allarm_types::config::MachineConfig;
use allarm_types::ids::CoreId;
use allarm_workloads::{Benchmark, WorkloadSpec};

/// Everything that defines an experiment apart from the benchmark itself:
/// the machine, the number of threads, the trace length and the seed.
/// Convenience layer over [`Scenario`]: each accessor stamps these values
/// into a scenario for one benchmark/policy pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// The simulated machine (Table I by default).
    pub machine: MachineConfig,
    /// Number of worker threads (16 in the paper's multi-threaded runs).
    pub threads: usize,
    /// Main-phase memory references per thread.
    pub accesses_per_thread: usize,
    /// Seed for workload generation.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The configuration used to regenerate the paper's figures: the Table I
    /// machine with 16 threads. The trace length is chosen so each run
    /// completes in seconds while giving every directory thousands of
    /// requests (the per-benchmark ratios are stable well below this
    /// length).
    pub fn paper() -> Self {
        ExperimentConfig {
            machine: MachineConfig::date2014(),
            threads: 16,
            accesses_per_thread: 250_000,
            seed: 2014,
        }
    }

    /// The scaled 64-core experiment: the [`MachineConfig::scale64`]
    /// machine (16 NUMA nodes × 4 cores on the Table I substrate) with one
    /// thread per core. The trace length is shorter than the paper runs —
    /// four times as many threads issue requests, so every directory still
    /// sees thousands of transactions.
    pub fn scale64() -> Self {
        ExperimentConfig {
            machine: MachineConfig::scale64(),
            threads: 64,
            accesses_per_thread: 50_000,
            seed: 2014,
        }
    }

    /// The scaled 256-core experiment: the [`MachineConfig::scale256`]
    /// machine (64 NUMA nodes × 4 cores on an 8×8 fabric) with one thread
    /// per core. The trace length keeps a full grid affordable: sixteen
    /// times the paper's thread count issues requests, so every directory
    /// still sees thousands of transactions at a fraction of the per-thread
    /// length.
    pub fn scale256() -> Self {
        ExperimentConfig {
            machine: MachineConfig::scale256(),
            threads: 256,
            accesses_per_thread: 20_000,
            seed: 2014,
        }
    }

    /// A scaled-down configuration for unit and integration tests: the 16
    /// core machine but with short traces.
    pub fn quick_test() -> Self {
        ExperimentConfig {
            machine: MachineConfig::date2014(),
            threads: 16,
            accesses_per_thread: 3_000,
            seed: 2014,
        }
    }

    /// Returns a copy with a different trace length.
    pub fn with_accesses_per_thread(mut self, accesses: usize) -> Self {
        self.accesses_per_thread = accesses;
        self
    }

    /// The multi-threaded scenario for one benchmark under one policy.
    pub fn scenario(&self, benchmark: Benchmark, policy: AllocationPolicy) -> Scenario {
        Scenario {
            name: format!("{}/{}", benchmark.name(), policy.name()),
            machine: self.machine,
            policy,
            numa_policy: NumaPolicy::FirstTouch,
            workload: WorkloadSpec::threads(benchmark, self.threads, self.accesses_per_thread),
            seed: self.seed,
            sim_threads: crate::scenario::SimThreads::SERIAL,
            warmup_accesses: 0,
        }
    }

    /// The two-process scenario of Section III-B for one benchmark under
    /// one policy.
    pub fn multiprocess_scenario(
        &self,
        benchmark: Benchmark,
        policy: AllocationPolicy,
    ) -> Scenario {
        let cores = multiprocess_cores(&self.machine);
        Scenario {
            name: format!("{}-2p/{}", benchmark.name(), policy.name()),
            machine: self.machine,
            policy,
            numa_policy: NumaPolicy::FirstTouch,
            workload: WorkloadSpec::multiprocess(
                benchmark,
                cores.to_vec(),
                self.accesses_per_thread,
            ),
            seed: self.seed,
            sim_threads: crate::scenario::SimThreads::SERIAL,
            warmup_accesses: 0,
        }
    }
}

/// The cores the two processes of the multi-process experiment are pinned
/// to: opposite quadrants of the 4x4 mesh.
pub fn multiprocess_cores(machine: &MachineConfig) -> [CoreId; 2] {
    [CoreId::new(0), CoreId::new((machine.num_cores / 2) as u16)]
}

/// The probe-filter coverages of Fig. 3h (512 kB, 256 kB, 128 kB).
pub const FIG3H_COVERAGES: [u64; 3] = [512 * 1024, 256 * 1024, 128 * 1024];

/// The probe-filter coverages of Fig. 4 (512 kB down to 32 kB).
pub const FIG4_COVERAGES: [u64; 5] = [512 * 1024, 256 * 1024, 128 * 1024, 64 * 1024, 32 * 1024];

/// The per-node probe-filter coverages of the scaled (64-core) directory-
/// pressure sweep: from the full 2x coverage of a node's aggregate L2 down
/// to a quarter of it, the regime where four cores contending for one
/// node's directory makes sparse-directory pressure visible.
pub const SCALE64_COVERAGES: [u64; 4] = [2 * 1024 * 1024, 1024 * 1024, 512 * 1024, 256 * 1024];

/// The per-node probe-filter coverages of the 256-core directory-pressure
/// sweep. Each node keeps the scale64 shape — four cores sharing one
/// directory and the same aggregate L2 — so the interesting per-node
/// coverage range is unchanged; only the node count and the fabric grow.
pub const SCALE256_COVERAGES: [u64; 4] = SCALE64_COVERAGES;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            machine: MachineConfig::date2014(),
            threads: 16,
            accesses_per_thread: 800,
            seed: 7,
        }
    }

    #[test]
    fn multiprocess_cores_are_distinct_nodes() {
        let cores = multiprocess_cores(&MachineConfig::date2014());
        assert_ne!(cores[0], cores[1]);
        assert_eq!(cores[1], CoreId::new(8));
    }

    #[test]
    fn config_builders() {
        let cfg = ExperimentConfig::quick_test().with_accesses_per_thread(100);
        assert_eq!(cfg.accesses_per_thread, 100);
        assert_eq!(cfg.machine, ExperimentConfig::quick_test().machine);
    }

    #[test]
    fn config_scenarios_carry_the_experiment_scale() {
        let cfg = tiny_cfg();
        let s = cfg.scenario(Benchmark::Dedup, AllocationPolicy::Allarm);
        assert_eq!(s.name, "dedup/allarm");
        assert_eq!(s.workload.accesses().unwrap(), 800);
        assert_eq!(s.seed, 7);
        s.validate().unwrap();
        let mp = cfg.multiprocess_scenario(Benchmark::Barnes, AllocationPolicy::Baseline);
        assert_eq!(mp.workload.cores_required().unwrap(), 9);
        mp.validate().unwrap();
    }

    #[test]
    fn figure_coverage_constants_match_the_paper() {
        assert_eq!(FIG3H_COVERAGES, [524288, 262144, 131072]);
        assert_eq!(FIG4_COVERAGES.len(), 5);
        assert_eq!(FIG4_COVERAGES[4], 32 * 1024);
    }

    #[test]
    fn scale64_config_runs_one_thread_per_core() {
        let cfg = ExperimentConfig::scale64();
        assert_eq!(cfg.threads, cfg.machine.num_cores as usize);
        assert_eq!(cfg.machine.num_nodes(), 16);
        let s = cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Allarm);
        s.validate().unwrap();
        assert_eq!(s.name, "raytrace/allarm");
        // The sweep coverages descend from the node's full 2x L2 coverage.
        assert_eq!(
            SCALE64_COVERAGES[0],
            cfg.machine.probe_filter.coverage_bytes
        );
        assert!(SCALE64_COVERAGES.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn scale256_config_runs_one_thread_per_core() {
        let cfg = ExperimentConfig::scale256();
        assert_eq!(cfg.threads, 256);
        assert_eq!(cfg.threads, cfg.machine.num_cores as usize);
        assert_eq!(cfg.machine.num_nodes(), 64);
        let s = cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Allarm);
        s.validate().unwrap();
        assert_eq!(s.name, "raytrace/allarm");
        // The LLC is an opt-in: the stock scale256 machine reports exactly
        // like an LLC-less one until a scenario enables it.
        assert!(!cfg.machine.llc.enabled);
    }
}
