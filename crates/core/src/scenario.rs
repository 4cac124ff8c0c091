//! Declarative simulation scenarios and sweep grids.
//!
//! A [`Scenario`] is a plain, serde-(de)serializable value — in the spirit
//! of Firecracker's `MachineConfiguration` — that bundles everything one
//! simulation run needs: the machine geometry, the directory allocation
//! policy, the NUMA page-placement policy, the workload spec, and the seed.
//! Scenario documents round-trip through TOML and JSON, so experiments can
//! be checked in, diffed and reviewed instead of being hardwired in code.
//!
//! A [`ScenarioGrid`] is a scenario plus sweep axes (benchmarks, policies,
//! probe-filter coverages, NUMA policies); [`ScenarioGrid::expand`] takes
//! the cartesian product and yields the concrete scenario set the
//! [`crate::BatchRunner`] executes in parallel.

use allarm_coherence::AllocationPolicy;
use allarm_mem::NumaPolicy;
use allarm_types::config::MachineConfig;
use allarm_types::error::ConfigError;
use allarm_workloads::{Benchmark, Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::batch::{BatchRunner, WorkloadHandle};
use crate::builder::SimulationBuilder;
use crate::metrics::SimReport;
use crate::simulator::Simulator;

/// Everything one simulation run needs, as a serializable value.
///
/// # Examples
///
/// Build a scenario in code, round-trip it through TOML, and run it:
///
/// ```
/// use allarm_core::{AllocationPolicy, Scenario};
/// use allarm_workloads::Benchmark;
///
/// let scenario = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm)
///     .with_accesses(1_000);
/// let text = scenario.to_toml().unwrap();
/// let parsed = Scenario::from_toml(&text).unwrap();
/// assert_eq!(parsed, scenario);
///
/// let report = parsed.run().unwrap();
/// assert!(report.total_accesses > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label, propagated into reports and result sinks.
    pub name: String,
    /// The simulated machine (Table I by default).
    pub machine: MachineConfig,
    /// The probe-filter allocation policy in force at every directory.
    pub policy: AllocationPolicy,
    /// The NUMA page-placement policy.
    pub numa_policy: NumaPolicy,
    /// What to run.
    pub workload: WorkloadSpec,
    /// Seed for workload generation (and any other randomness); a scenario
    /// is a pure function of its fields, including this one.
    pub seed: u64,
    /// Worker threads one run shards across ([`SimThreads`]; defaults to
    /// serial). Reports are byte-identical for every value, so this knob
    /// never makes a scenario a different experiment — it only changes how
    /// fast the host executes it.
    #[serde(default)]
    pub sim_threads: SimThreads,
    /// Shared warm-up prefix in total accesses (summed across threads);
    /// `0` — the default — disables fork-from-warm. Batch members that
    /// agree on machine, policies, seed, workload shape and this value
    /// execute the prefix once and fork every member from the in-memory
    /// warm image ([`crate::BatchRunner`]). Like [`Scenario::sim_threads`],
    /// this never changes a report — forked runs are byte-identical to
    /// cold ones — so it is a scheduling hint, not an experiment axis;
    /// a standalone [`Scenario::run`] ignores it.
    #[serde(default)]
    pub warmup_accesses: u64,
}

/// The intra-run parallelism knob of a [`Scenario`]: how many worker
/// threads one simulation runs on.
///
/// `1` (the default) runs serially; `0` means one worker per available
/// hardware thread. The sharded kernel guarantees byte-identical reports
/// for every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimThreads(pub usize);

impl SimThreads {
    /// Serial execution (the default).
    pub const SERIAL: SimThreads = SimThreads(1);

    /// One worker per available hardware thread.
    pub const AUTO: SimThreads = SimThreads(0);

    /// The raw thread count (`0` means auto).
    pub fn get(self) -> usize {
        self.0
    }

    /// The concrete worker count this setting resolves to on this host.
    pub fn resolve(self) -> usize {
        match self.0 {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for SimThreads {
    fn default() -> Self {
        SimThreads::SERIAL
    }
}

impl Scenario {
    /// A scenario on the paper's Table I machine with the evaluation's
    /// 16-thread, 250k-access configuration.
    pub fn paper(benchmark: Benchmark, policy: AllocationPolicy) -> Self {
        Scenario {
            name: format!("{}/{}", benchmark.name(), policy.name()),
            machine: MachineConfig::date2014(),
            policy,
            numa_policy: NumaPolicy::FirstTouch,
            workload: WorkloadSpec::threads(benchmark, 16, 250_000),
            seed: 2014,
            sim_threads: SimThreads::default(),
            warmup_accesses: 0,
        }
    }

    /// A scaled-down scenario (Table I machine, short traces) for tests.
    pub fn quick_test(benchmark: Benchmark, policy: AllocationPolicy) -> Self {
        Scenario {
            workload: WorkloadSpec::threads(benchmark, 16, 3_000),
            ..Scenario::paper(benchmark, policy)
        }
    }

    /// Returns a copy with a different name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns a copy with a different allocation policy (name updated to
    /// match if it was the default `workload/policy` form).
    pub fn with_policy(mut self, policy: AllocationPolicy) -> Self {
        let label = self.workload.label();
        let default_name = format!("{}/{}", label, self.policy.name());
        if self.name == default_name {
            self.name = format!("{}/{}", label, policy.name());
        }
        self.policy = policy;
        self
    }

    /// Returns a copy with a different probe-filter coverage per node.
    pub fn with_pf_coverage(mut self, coverage_bytes: u64) -> Self {
        self.machine = self.machine.with_probe_filter_coverage(coverage_bytes);
        self
    }

    /// Returns a copy with a different per-thread / per-process trace
    /// length.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.workload = self.workload.with_accesses(accesses);
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy sharding each run across `sim_threads` worker
    /// threads (`0`: one per available hardware thread). The report is
    /// unaffected; only wall-clock time changes.
    pub fn with_sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = SimThreads(sim_threads);
        self
    }

    /// Returns a copy with a different warm-up prefix length (total
    /// accesses; `0` disables fork-from-warm). Purely a batch-scheduling
    /// hint — see [`Scenario::warmup_accesses`].
    pub fn with_warmup_accesses(mut self, accesses: u64) -> Self {
        self.warmup_accesses = accesses;
        self
    }

    /// Validates the scenario: machine geometry, workload spec, and their
    /// compatibility (the machine must have enough cores).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        self.workload
            .validate()
            .map_err(|e| ConfigError::new("workload", e))?;
        let required = self
            .workload
            .cores_required()
            .map_err(|e| ConfigError::new("workload", e))?;
        if required > self.machine.num_cores as usize {
            return Err(ConfigError::new(
                "workload",
                format!(
                    "needs {required} cores but the machine has {}",
                    self.machine.num_cores
                ),
            ));
        }
        Ok(())
    }

    /// Generates the concrete workload for this scenario — a pure function
    /// of the workload spec and seed.
    pub fn workload(&self) -> Workload {
        self.workload.materialize(self.seed)
    }

    /// Opens this scenario's workload as a bounded-memory streaming trace
    /// source, when the spec is a frame-chunked `binary-v2` replay —
    /// `Ok(None)` for every other spec (those must be materialized via
    /// [`Scenario::workload`]). Streaming and materialized replays of the
    /// same file produce byte-identical reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a streamable trace cannot be opened
    /// or fails its directory validation.
    pub fn streaming_source(&self) -> Result<Option<allarm_workloads::TraceSource>, ConfigError> {
        self.workload
            .streaming_source()
            .map_err(|e| ConfigError::new("workload", e))
    }

    /// Builds the configured simulator for this scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if validation fails.
    pub fn build(&self) -> Result<Simulator, ConfigError> {
        SimulationBuilder::from_scenario(self)?.build()
    }

    /// Validates, builds and runs the scenario — a one-row batch through
    /// the [`BatchRunner`]'s per-row path, cold, without the warm-up fork.
    /// Frame-chunked `binary-v2` trace replays stream straight off disk
    /// (one decoded frame per thread in memory); every other workload is
    /// materialized first. The report is byte-identical either way.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if validation fails.
    pub fn run(&self) -> Result<SimReport, ConfigError> {
        self.validate()?;
        BatchRunner::with_threads(1).run_row(0, self, &WorkloadHandle::open(self)?, None)
    }

    /// Serializes the scenario as a TOML document.
    ///
    /// # Errors
    ///
    /// Returns an error if the value cannot be rendered (never happens for
    /// well-formed scenarios).
    pub fn to_toml(&self) -> Result<String, serde::Error> {
        toml::to_string(self)
    }

    /// Parses a scenario from a TOML document.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first malformed field.
    pub fn from_toml(text: &str) -> Result<Self, serde::Error> {
        toml::from_str(text)
    }

    /// Serializes the scenario as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }
}

/// A base scenario plus sweep axes: the declarative form of "this figure".
///
/// Empty axes mean "keep the base scenario's value"; non-empty axes are
/// swept in order, and [`ScenarioGrid::expand`] yields the cartesian
/// product (benchmarks × coverages × NUMA policies × allocation policies),
/// slowest axis first, so related runs — in particular the baseline/ALLARM
/// pair of one configuration — sit next to each other in the result order.
///
/// # Examples
///
/// ```
/// use allarm_core::{AllocationPolicy, Scenario, ScenarioGrid};
/// use allarm_workloads::Benchmark;
///
/// let grid = ScenarioGrid::new(Scenario::quick_test(
///         Benchmark::Barnes, AllocationPolicy::Baseline))
///     .benchmarks(vec![Benchmark::Barnes, Benchmark::X264])
///     .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
///     .pf_coverages(vec![512 * 1024, 128 * 1024]);
/// assert_eq!(grid.len(), 8);
/// let scenarios = grid.expand();
/// assert_eq!(scenarios[0].name, "barnes/512kB/baseline");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// The scenario every grid point starts from.
    pub base: Scenario,
    /// Benchmarks to sweep (empty: keep the base workload's benchmark).
    pub benchmarks: Vec<Benchmark>,
    /// Probe-filter coverages in bytes to sweep (empty: keep the base).
    pub pf_coverages: Vec<u64>,
    /// NUMA policies to sweep (empty: keep the base).
    pub numa_policies: Vec<NumaPolicy>,
    /// Per-thread / per-process trace lengths to sweep (empty: keep the
    /// base workload's). Varies second-fastest — just above the policy
    /// axis — so the points sharing one fork-from-warm image (same
    /// machine/policy, different length) sit next to each other.
    #[serde(default)]
    pub accesses: Vec<usize>,
    /// Allocation policies to sweep (empty: keep the base). This is the
    /// fastest-varying axis, so each configuration's policy pair is
    /// adjacent in the expansion.
    pub policies: Vec<AllocationPolicy>,
    /// Optional shared warm-up prefix: every expanded scenario gets its
    /// [`Scenario::warmup_accesses`] set to `warmup.accesses`, so the
    /// batch runner executes the prefix once per machine/workload group
    /// and forks each grid point from the warm image. In TOML:
    /// `warmup = { accesses = 20000 }` (or a `[warmup]` table).
    #[serde(default)]
    pub warmup: Option<Warmup>,
}

/// The shared warm-up stanza of a [`ScenarioGrid`]: the prefix every grid
/// point replays identically before the swept axes can diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Warmup {
    /// Warm-up length in total accesses, summed across all threads.
    pub accesses: u64,
}

impl ScenarioGrid {
    /// Creates a grid with no sweep axes (expands to just the base).
    pub fn new(base: Scenario) -> Self {
        ScenarioGrid {
            base,
            benchmarks: Vec::new(),
            pf_coverages: Vec::new(),
            numa_policies: Vec::new(),
            accesses: Vec::new(),
            policies: Vec::new(),
            warmup: None,
        }
    }

    /// Sets the benchmark axis.
    pub fn benchmarks(mut self, benchmarks: Vec<Benchmark>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Sets the probe-filter coverage axis (bytes per node).
    pub fn pf_coverages(mut self, coverages: Vec<u64>) -> Self {
        self.pf_coverages = coverages;
        self
    }

    /// Sets the NUMA policy axis.
    pub fn numa_policies(mut self, policies: Vec<NumaPolicy>) -> Self {
        self.numa_policies = policies;
        self
    }

    /// Sets the allocation policy axis.
    pub fn policies(mut self, policies: Vec<AllocationPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the trace-length axis (per-thread / per-process accesses).
    pub fn accesses(mut self, accesses: Vec<usize>) -> Self {
        self.accesses = accesses;
        self
    }

    /// Sets the shared warm-up prefix (total accesses across threads).
    pub fn warmup(mut self, accesses: u64) -> Self {
        self.warmup = Some(Warmup { accesses });
        self
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        [
            self.benchmarks.len(),
            self.pf_coverages.len(),
            self.numa_policies.len(),
            self.accesses.len(),
            self.policies.len(),
        ]
        .iter()
        .map(|&n| n.max(1))
        .product()
    }

    /// True if the grid expands to nothing (never; kept for clippy's
    /// `len_without_is_empty` convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Expands the grid into concrete scenarios, slowest axis first:
    /// benchmarks, then coverages, then NUMA policies, then trace
    /// lengths, then allocation policies. Scenario names encode the swept
    /// axes, e.g. `"barnes/512kB/baseline"` or
    /// `"raytrace/1600acc/allarm"`.
    pub fn expand(&self) -> Vec<Scenario> {
        // A trace replay fixes the reference stream, so a benchmark axis
        // over one would expand to byte-identical rows under N different
        // labels ([`WorkloadSpec::with_benchmark`] cannot relabel a
        // trace). `validate` refuses such grids loudly; `expand` called
        // directly collapses the axis to the single honest point.
        let benchmarks: Vec<Option<Benchmark>> =
            if self.base.workload.benchmark().is_none() && !self.benchmarks.is_empty() {
                axis(&[])
            } else {
                axis(&self.benchmarks)
            };
        let coverages: Vec<Option<u64>> = axis(&self.pf_coverages);
        let numas: Vec<Option<NumaPolicy>> = axis(&self.numa_policies);
        let lengths: Vec<Option<usize>> = axis(&self.accesses);
        let policies: Vec<Option<AllocationPolicy>> = axis(&self.policies);

        let mut scenarios = Vec::with_capacity(self.len());
        for &bench in &benchmarks {
            for &coverage in &coverages {
                for &numa in &numas {
                    for &length in &lengths {
                        for &policy in &policies {
                            let mut s = self.base.clone();
                            if let Some(b) = bench {
                                s.workload = s.workload.with_benchmark(b);
                            }
                            if let Some(c) = coverage {
                                s.machine = s.machine.with_probe_filter_coverage(c);
                            }
                            if let Some(n) = numa {
                                s.numa_policy = n;
                            }
                            if let Some(a) = length {
                                s.workload = s.workload.with_accesses(a);
                            }
                            if let Some(p) = policy {
                                s.policy = p;
                            }
                            if let Some(w) = self.warmup {
                                s.warmup_accesses = w.accesses;
                            }
                            s.name = grid_point_name(&s, bench, coverage, numa, length, policy);
                            scenarios.push(s);
                        }
                    }
                }
            }
        }
        scenarios
    }

    /// Validates the base and every axis value.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found across the expansion, or a
    /// `benchmarks` error when the axis is swept over a trace-replay base
    /// (a trace fixes the reference stream, so every point would replay
    /// the identical workload under a misleading benchmark label).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.benchmarks.is_empty() && self.base.workload.benchmark().is_none() {
            return Err(ConfigError::new(
                "benchmarks",
                "cannot sweep the benchmark axis over a trace-replay workload — the \
                 trace file fixes the reference stream",
            ));
        }
        for scenario in self.expand() {
            scenario.validate()?;
        }
        Ok(())
    }

    /// Serializes the grid as a TOML document.
    ///
    /// # Errors
    ///
    /// Returns an error if the value cannot be rendered.
    pub fn to_toml(&self) -> Result<String, serde::Error> {
        toml::to_string(self)
    }

    /// Parses a grid from a TOML document.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first malformed field.
    pub fn from_toml(text: &str) -> Result<Self, serde::Error> {
        toml::from_str(text)
    }
}

/// Turns a sweep axis into "sweep these" or "keep the base" form.
fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
    if values.is_empty() {
        vec![None]
    } else {
        values.iter().copied().map(Some).collect()
    }
}

/// Builds the `workload[/coverage][/numa][/accesses]/policy` name of one
/// grid point; axes that are not swept are omitted (except the workload
/// label — the benchmark name, or a replayed trace's recorded name — and
/// the policy, which always appear so reports stay self-describing).
fn grid_point_name(
    scenario: &Scenario,
    bench: Option<Benchmark>,
    coverage: Option<u64>,
    numa: Option<NumaPolicy>,
    length: Option<usize>,
    _policy: Option<AllocationPolicy>,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(
        bench
            .map(|b| b.name().to_string())
            .unwrap_or_else(|| scenario.workload.label()),
    );
    if let Some(c) = coverage {
        parts.push(format!("{}kB", c / 1024));
    }
    if let Some(n) = numa {
        parts.push(n.name().to_string());
    }
    if let Some(a) = length {
        parts.push(format!("{a}acc"));
    }
    parts.push(scenario.policy.name().to_string());
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_is_valid_and_named() {
        let s = Scenario::paper(Benchmark::Barnes, AllocationPolicy::Allarm);
        s.validate().unwrap();
        assert_eq!(s.name, "barnes/allarm");
        assert_eq!(s.machine, MachineConfig::date2014());
        assert_eq!(s.seed, 2014);
    }

    #[test]
    fn builder_style_helpers_compose() {
        let s = Scenario::quick_test(Benchmark::Dedup, AllocationPolicy::Baseline)
            .with_policy(AllocationPolicy::Allarm)
            .with_pf_coverage(128 * 1024)
            .with_accesses(500)
            .with_seed(7)
            .named("custom");
        assert_eq!(s.policy, AllocationPolicy::Allarm);
        assert_eq!(s.machine.probe_filter.coverage_bytes, 128 * 1024);
        assert_eq!(s.workload.accesses().unwrap(), 500);
        assert_eq!(s.seed, 7);
        assert_eq!(s.name, "custom");
    }

    #[test]
    fn with_policy_renames_default_names_only() {
        let s = Scenario::quick_test(Benchmark::Dedup, AllocationPolicy::Baseline)
            .with_policy(AllocationPolicy::Allarm);
        assert_eq!(s.name, "dedup/allarm");
        let s = Scenario::quick_test(Benchmark::Dedup, AllocationPolicy::Baseline)
            .named("mine")
            .with_policy(AllocationPolicy::Allarm);
        assert_eq!(s.name, "mine");
    }

    #[test]
    fn validation_rejects_oversized_workloads() {
        let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
        s.workload = WorkloadSpec::threads(Benchmark::Barnes, 64, 10);
        let err = s.validate().unwrap_err();
        assert_eq!(err.field(), "workload");
        assert!(err.reason().contains("64 cores"));
    }

    #[test]
    fn validation_rejects_bad_machines() {
        let mut s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
        s.machine.l2.ways = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn toml_without_miss_window_parses_to_the_default() {
        // Scenario documents written before the miss window existed have
        // no `[machine.miss_window]` table; they must keep parsing and get
        // the default window.
        let s = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
        let text = s.to_toml().unwrap();
        let start = text
            .find("[machine.miss_window]")
            .expect("the window is serialized as its own machine table");
        let end = text[start + 1..]
            .find("\n[")
            .map(|i| start + 1 + i + 1)
            .unwrap_or(text.len());
        let stripped = format!("{}{}", &text[..start], &text[end..]);
        assert!(!stripped.contains("miss_window"));
        let parsed = Scenario::from_toml(&stripped).unwrap();
        assert_eq!(
            parsed.machine.miss_window,
            allarm_types::MissWindowConfig::default_window()
        );
        assert_eq!(parsed, s);
    }

    #[test]
    fn workload_generation_is_pure() {
        let s =
            Scenario::quick_test(Benchmark::Cholesky, AllocationPolicy::Allarm).with_accesses(200);
        assert_eq!(s.workload(), s.workload());
        assert_ne!(s.workload(), s.with_seed(3).workload());
    }

    #[test]
    fn grid_expansion_orders_policy_fastest() {
        let grid = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ))
        .benchmarks(vec![Benchmark::Barnes, Benchmark::Dedup])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm]);
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(grid.len(), 4);
        assert_eq!(scenarios[0].name, "barnes/baseline");
        assert_eq!(scenarios[1].name, "barnes/allarm");
        assert_eq!(scenarios[2].name, "dedup/baseline");
        assert_eq!(scenarios[3].name, "dedup/allarm");
    }

    #[test]
    fn empty_axes_keep_the_base() {
        let base = Scenario::quick_test(Benchmark::X264, AllocationPolicy::Allarm);
        let grid = ScenarioGrid::new(base.clone());
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].machine, base.machine);
        assert_eq!(scenarios[0].policy, AllocationPolicy::Allarm);
        assert_eq!(scenarios[0].name, "x264/allarm");
        assert!(!grid.is_empty());
    }

    #[test]
    fn coverage_axis_appears_in_names() {
        let grid = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ))
        .pf_coverages(vec![512 * 1024, 64 * 1024]);
        let scenarios = grid.expand();
        assert_eq!(scenarios[0].name, "barnes/512kB/baseline");
        assert_eq!(scenarios[1].name, "barnes/64kB/baseline");
        assert_eq!(scenarios[1].machine.probe_filter.coverage_bytes, 64 * 1024);
    }

    #[test]
    fn accesses_axis_and_warmup_flow_into_every_point() {
        let grid = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ))
        .accesses(vec![400, 800])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .warmup(1_000);
        assert_eq!(grid.len(), 4);
        let scenarios = grid.expand();
        assert_eq!(scenarios[0].name, "barnes/400acc/baseline");
        assert_eq!(scenarios[3].name, "barnes/800acc/allarm");
        // The length axis varies just above the policy axis, so both
        // policies of one length are adjacent (paired comparisons) and
        // both lengths of one policy share a warm image group.
        assert_eq!(scenarios[1].workload.accesses().unwrap(), 400);
        assert_eq!(scenarios[2].workload.accesses().unwrap(), 800);
        for s in &scenarios {
            assert_eq!(s.warmup_accesses, 1_000);
        }
        grid.validate().unwrap();
    }

    #[test]
    fn warmup_grids_round_trip_and_old_documents_still_parse() {
        let grid = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ))
        .accesses(vec![500])
        .warmup(2_000);
        let text = grid.to_toml().unwrap();
        assert!(text.contains("[warmup]"), "{text}");
        assert_eq!(ScenarioGrid::from_toml(&text).unwrap(), grid);

        // A document written before the warmup/accesses fields existed
        // has neither key; it must keep parsing with the defaults.
        let plain = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ));
        let stripped: String = plain
            .to_toml()
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("accesses = ") && !l.starts_with("warmup_accesses = "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!stripped.contains("warmup"));
        let parsed = ScenarioGrid::from_toml(&stripped).unwrap();
        assert_eq!(parsed, plain);
        assert_eq!(parsed.base.warmup_accesses, 0);
        assert!(parsed.warmup.is_none());
    }

    #[test]
    fn accesses_axis_over_a_text_or_v1_trace_replay_is_accepted() {
        use allarm_workloads::{tracefile, TraceFormat, TraceGenerator};
        let dir = std::env::temp_dir().join(format!("allarm-grid-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recorded = TraceGenerator::new(2, 100, 3).generate(Benchmark::Barnes);
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let path = dir.join(format!("capture.{}", format.name()));
            tracefile::write_trace_file(&path, &recorded, format).unwrap();
            let mut base = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
            base.workload = WorkloadSpec::trace_file(path.to_string_lossy(), format);
            let grid = ScenarioGrid::new(base).accesses(vec![50, 100]);
            // Every format honours a length, so the axis is allowed…
            grid.validate().unwrap();
            let points = grid.expand();
            // …and each point replays a prefix of the file.
            assert_eq!(points[0].workload.accesses().unwrap(), 50);
            assert_eq!(points[1].workload.accesses().unwrap(), 100);
            assert!(points[0]
                .workload()
                .threads
                .iter()
                .all(|t| t.accesses.len() == 50));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accesses_axis_over_a_v2_trace_replay_is_accepted() {
        use allarm_workloads::{tracefile, TraceFormat, TraceGenerator};
        let dir = std::env::temp_dir().join(format!("allarm-grid-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.btrace");
        let recorded = TraceGenerator::new(2, 100, 3).generate(Benchmark::Barnes);
        tracefile::write_trace_file_framed(&path, &recorded, TraceFormat::BinaryV2, 32).unwrap();

        let mut base = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
        base.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2);
        let grid = ScenarioGrid::new(base).accesses(vec![50, 100]);
        // v2 frames support real prefix truncation, so the axis is allowed…
        grid.validate().unwrap();
        let points = grid.expand();
        // …and actually shortens each point's replay.
        assert_eq!(points[0].workload.accesses().unwrap(), 50);
        assert_eq!(points[1].workload.accesses().unwrap(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn benchmark_axis_over_a_trace_replay_is_rejected() {
        let mut base = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
        base.workload =
            WorkloadSpec::trace_file("capture.trace", allarm_workloads::TraceFormat::Binary);
        let grid = ScenarioGrid::new(base).benchmarks(vec![Benchmark::Barnes, Benchmark::X264]);
        let err = grid.validate().unwrap_err();
        assert_eq!(err.field(), "benchmarks");
        assert!(err.reason().contains("trace"), "{err}");
        // Direct `expand` callers (who skipped `validate`) must not get N
        // byte-identical rows under N labels: the axis collapses to the
        // one honest point.
        assert_eq!(grid.expand().len(), 1);
    }

    #[test]
    fn grid_validate_covers_every_point() {
        let mut grid = ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ));
        grid.validate().unwrap();
        // A coverage whose geometry collapses to zero sets must be caught.
        grid.pf_coverages = vec![512 * 1024, 2 * 64];
        assert!(grid.validate().is_err());
    }
}
