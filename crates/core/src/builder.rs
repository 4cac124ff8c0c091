//! Validating builder for configured simulators.
//!
//! [`SimulationBuilder`] is the only way to construct a [`Simulator`]: it
//! collects the machine and policies (from a [`Scenario`] or
//! programmatically), validates the combination once, and hands out a
//! ready-to-run simulator. Replaces the old positional
//! `Simulator::new(MachineConfig, AllocationPolicy)` constructor, which
//! could build unvalidated simulators that only failed deep inside `run`.

use allarm_coherence::AllocationPolicy;
use allarm_mem::NumaPolicy;
use allarm_types::config::MachineConfig;
use allarm_types::error::ConfigError;

use crate::scenario::Scenario;
use crate::simulator::Simulator;

/// Step-by-step construction of a validated [`Simulator`].
///
/// # Examples
///
/// ```
/// use allarm_core::{AllocationPolicy, MachineConfig, SimulationBuilder};
/// use allarm_mem::NumaPolicy;
/// use allarm_workloads::{Benchmark, TraceGenerator};
///
/// let simulator = SimulationBuilder::new(MachineConfig::small_test())
///     .policy(AllocationPolicy::Allarm)
///     .numa_policy(NumaPolicy::FirstTouch)
///     .build()
///     .expect("valid configuration");
///
/// let workload = TraceGenerator::new(4, 500, 1).generate(Benchmark::Barnes);
/// let report = simulator.run(&workload);
/// assert_eq!(report.total_accesses as usize, workload.total_accesses());
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    machine: MachineConfig,
    policy: AllocationPolicy,
    numa_policy: NumaPolicy,
    sim_threads: usize,
}

impl SimulationBuilder {
    /// Starts a builder for `machine` with the defaults the paper uses:
    /// baseline allocation and first-touch NUMA placement.
    pub fn new(machine: MachineConfig) -> Self {
        SimulationBuilder {
            machine,
            policy: AllocationPolicy::default(),
            numa_policy: NumaPolicy::default(),
            sim_threads: 1,
        }
    }

    /// Starts a builder from a declarative [`Scenario`], validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the scenario fails
    /// [`Scenario::validate`].
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, ConfigError> {
        scenario.validate()?;
        Ok(SimulationBuilder {
            machine: scenario.machine,
            policy: scenario.policy,
            numa_policy: scenario.numa_policy,
            sim_threads: scenario.sim_threads.get(),
        })
    }

    /// Sets the probe-filter allocation policy.
    pub fn policy(mut self, policy: AllocationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the NUMA page-placement policy.
    pub fn numa_policy(mut self, numa_policy: NumaPolicy) -> Self {
        self.numa_policy = numa_policy;
        self
    }

    /// Sets the number of worker threads one simulation run shards across
    /// (`0`: one worker per available hardware thread). Reports are
    /// byte-identical for every value — the sharded kernel merges
    /// cross-shard coherence traffic in a deterministic order — so this is
    /// purely a host-performance knob. Defaults to `1` (serial).
    pub fn sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = sim_threads;
        self
    }

    /// Validates the machine configuration and produces the simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field.
    pub fn build(self) -> Result<Simulator, ConfigError> {
        self.machine.validate()?;
        Ok(Simulator::from_parts(
            self.machine,
            self.policy,
            self.numa_policy,
            self.sim_threads,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_workloads::Benchmark;

    #[test]
    fn builder_defaults_match_the_paper() {
        let sim = SimulationBuilder::new(MachineConfig::small_test())
            .build()
            .unwrap();
        assert_eq!(sim.policy(), AllocationPolicy::Baseline);
        assert_eq!(sim.numa_policy(), NumaPolicy::FirstTouch);
    }

    #[test]
    fn builder_applies_overrides() {
        let sim = SimulationBuilder::new(MachineConfig::small_test())
            .policy(AllocationPolicy::Allarm)
            .numa_policy(NumaPolicy::Interleaved)
            .sim_threads(4)
            .build()
            .unwrap();
        assert_eq!(sim.policy(), AllocationPolicy::Allarm);
        assert_eq!(sim.numa_policy(), NumaPolicy::Interleaved);
        assert_eq!(sim.sim_threads(), 4);
    }

    #[test]
    fn invalid_machines_fail_at_build_time() {
        let mut machine = MachineConfig::small_test();
        machine.num_cores = 3; // mesh is 2x2
        let err = SimulationBuilder::new(machine).build().unwrap_err();
        assert_eq!(err.field(), "noc.mesh");
    }

    #[test]
    fn from_scenario_validates_first() {
        let good = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm);
        let sim = SimulationBuilder::from_scenario(&good)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(sim.policy(), AllocationPolicy::Allarm);

        let mut bad = good;
        bad.machine.l2.size_bytes = 0;
        assert!(SimulationBuilder::from_scenario(&bad).is_err());
    }
}
