//! End-to-end integration tests of the full simulator: the substrates wired
//! together exactly as the figure grids run them — a [`ScenarioGrid`]
//! expanded over both allocation policies, executed by the [`BatchRunner`]
//! and paired into baseline/ALLARM comparisons.

use allarm_core::{
    AllocationPolicy, BatchRunner, Comparison, MachineConfig, Scenario, ScenarioGrid, SimReport,
    SimulationBuilder,
};
use allarm_tests::load_grid;
use allarm_types::Nanos;
use allarm_workloads::{Benchmark, TraceGenerator};

/// One benchmark on the Table I machine with 16 short threads.
fn tiny(benchmark: Benchmark, policy: AllocationPolicy) -> Scenario {
    Scenario::quick_test(benchmark, policy).with_accesses(1_200)
}

/// Runs `grid` under both policies and pairs each baseline run with its
/// ALLARM run.
fn paired(grid: ScenarioGrid) -> Vec<Comparison> {
    let grid = grid.policies(AllocationPolicy::ALL.to_vec());
    let comparisons = BatchRunner::new()
        .run(&grid.expand())
        .expect("valid grid")
        .paired();
    assert_eq!(comparisons.len(), grid.len() / 2, "every point pairs up");
    comparisons
}

/// One benchmark under both policies.
fn compare(benchmark: Benchmark) -> Comparison {
    let base = tiny(benchmark, AllocationPolicy::Baseline);
    paired(ScenarioGrid::new(base)).remove(0)
}

#[test]
fn every_access_is_accounted_for() {
    let base = tiny(Benchmark::Barnes, AllocationPolicy::Baseline);
    let grid = ScenarioGrid::new(base).benchmarks(vec![Benchmark::Barnes, Benchmark::Blackscholes]);
    let comparisons = paired(grid);
    assert_eq!(comparisons.len(), 2);
    for report in comparisons.iter().flat_map(|c| [&c.baseline, &c.allarm]) {
        let (bench, policy) = (&report.workload, &report.policy);
        assert_eq!(
            report.l1_hits + report.l2_hits + report.l2_misses,
            report.total_accesses,
            "{bench}/{policy}: hierarchy outcomes must partition the accesses"
        );
        assert_eq!(
            report.local_requests + report.remote_requests,
            report.directory_requests
        );
        assert!(report.runtime > Nanos::ZERO);
    }
}

#[test]
fn allarm_never_increases_probe_filter_pressure() {
    let base = tiny(Benchmark::Barnes, AllocationPolicy::Baseline);
    let comparisons = paired(ScenarioGrid::new(base).benchmarks(Benchmark::ALL.to_vec()));
    for (bench, cmp) in Benchmark::ALL.iter().zip(comparisons) {
        assert_eq!(cmp.baseline.workload, bench.name());
        assert!(
            cmp.allarm.pf_allocations <= cmp.baseline.pf_allocations,
            "{bench}: ALLARM allocated more probe-filter entries than the baseline"
        );
        assert!(
            cmp.allarm.pf_evictions <= cmp.baseline.pf_evictions,
            "{bench}: ALLARM evicted more probe-filter entries than the baseline"
        );
        assert!(
            cmp.allarm.allarm_allocation_skips > 0,
            "{bench}: ALLARM never skipped"
        );
        assert_eq!(cmp.baseline.allarm_allocation_skips, 0);
    }
}

#[test]
fn baseline_performs_no_local_probes_and_allarm_hides_most_of_them() {
    let cmp = compare(Benchmark::OceanContiguous);
    assert_eq!(cmp.baseline.local_probes, 0);
    assert!(cmp.allarm.local_probes > 0);
    assert!(cmp.hidden_probe_fraction() > 0.5);
    assert!(cmp.allarm.local_probes_hidden <= cmp.allarm.local_probes);
}

#[test]
fn local_fraction_tracks_the_benchmark_mix() {
    // Mostly-shared blackscholes must see a lower local fraction than the
    // NUMA-friendly ocean.
    let blackscholes = compare(Benchmark::Blackscholes);
    let ocean = compare(Benchmark::OceanContiguous);
    assert!(blackscholes.local_fraction() < ocean.local_fraction());
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    // The same scenario twice, in one parallel batch.
    let scenario = tiny(Benchmark::Dedup, AllocationPolicy::Allarm);
    let results = BatchRunner::with_threads(2)
        .run(&[scenario.clone(), scenario])
        .unwrap();
    let reports: Vec<&SimReport> = results.reports().collect();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn shrinking_the_probe_filter_never_helps_the_baseline() {
    let base = tiny(Benchmark::Barnes, AllocationPolicy::Baseline);
    let points = paired(ScenarioGrid::new(base).pf_coverages(vec![512 * 1024, 64 * 1024]));
    assert_eq!(points.len(), 2);
    assert_eq!(points[0].baseline.pf_coverage_bytes, 512 * 1024);
    assert_eq!(points[1].baseline.pf_coverage_bytes, 64 * 1024);
    assert!(
        points[1].baseline.pf_evictions >= points[0].baseline.pf_evictions,
        "a smaller probe filter cannot evict less"
    );
    assert!(points[1].baseline.runtime >= points[0].baseline.runtime);
}

#[test]
fn multiprocess_workload_is_local_and_allarm_keeps_it_out_of_the_directory() {
    // One point of the Fig. 4 grid: two copies of cholesky, on cores 0 and 8.
    let base = load_grid("fig4_multiprocess.toml")
        .base
        .with_accesses(4_000);
    let grid = ScenarioGrid::new(base)
        .benchmarks(vec![Benchmark::Cholesky])
        .pf_coverages(vec![64 * 1024]);
    let point = &paired(grid)[0];
    assert_eq!(point.baseline.workload, "cholesky-2p");
    assert!(point.baseline.local_fraction() > 0.95);
    // The baseline allocates for everything; ALLARM allocates (almost)
    // nothing because every request is local.
    assert!(point.allarm.pf_allocations * 10 < point.baseline.pf_allocations);
    assert!(point.allarm.pf_evictions <= point.baseline.pf_evictions);
}

#[test]
fn policies_agree_when_there_is_no_coherence_pressure() {
    // A single-threaded workload that fits in the cache: both policies
    // produce identical runtimes because the directory is barely exercised.
    let machine = MachineConfig::date2014();
    let workload = TraceGenerator::new(1, 2_000, 3).generate(Benchmark::Blackscholes);
    let build = |policy| {
        SimulationBuilder::new(machine)
            .policy(policy)
            .build()
            .expect("the Table I machine is valid")
    };
    let baseline = build(AllocationPolicy::Baseline).run(&workload);
    let allarm = build(AllocationPolicy::Allarm).run(&workload);
    assert_eq!(baseline.l2_misses, allarm.l2_misses);
    assert_eq!(baseline.runtime, allarm.runtime);
}

#[test]
fn energy_tracks_activity() {
    let cmp = compare(Benchmark::OceanNonContiguous);
    assert!(cmp.baseline.energy.probe_filter_pj > 0.0);
    assert!(cmp.baseline.energy.noc_pj > 0.0);
    // Fewer evictions and allocations must not cost more probe-filter energy.
    assert!(cmp.allarm.energy.probe_filter_pj <= cmp.baseline.energy.probe_filter_pj);
}
