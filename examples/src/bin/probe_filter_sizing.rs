//! Probe-filter sizing study: how small can the sparse directory be?
//!
//! A designer wanting to hand directory SRAM back to the last-level cache
//! (the motivation of the paper's Section III-A5 area table) needs to know
//! how each policy degrades as the probe filter shrinks. This example sweeps
//! the probe-filter coverage for a consolidated multi-process workload — two
//! independent single-threaded jobs, the data-centre scenario of the paper's
//! Section III-B — and prints runtime, evictions, and the silicon area each
//! configuration would occupy.
//!
//! ```text
//! cargo run --release -p allarm-examples --bin probe_filter_sizing
//! ```

use std::num::NonZeroUsize;

use allarm_core::doc::override_accesses;
use allarm_core::{BatchRunner, ScenarioGrid};
use allarm_energy::probe_filter_area_mm2;
use allarm_workloads::Benchmark;

fn main() {
    let bench = Benchmark::Cholesky;
    println!("probe-filter sizing for two single-threaded copies of {bench}");
    println!();
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "PF size", "area mm2", "baseline ns", "allarm ns", "base evict", "allarm evict"
    );

    // The paper's Fig. 4 sweep narrowed to one benchmark and 60k accesses
    // per process: one baseline/ALLARM pair per coverage, all run in
    // parallel.
    let grid = ScenarioGrid::from_toml(include_str!("../../../scenarios/fig4_multiprocess.toml"))
        .expect("the checked-in Fig. 4 grid parses")
        .benchmarks(vec![bench]);
    let mut scenarios = grid.expand();
    override_accesses(&mut scenarios, NonZeroUsize::new(60_000).expect("non-zero"));
    let points = BatchRunner::new()
        .run(&scenarios)
        .expect("the Fig. 4 sweep is valid")
        .paired();
    for point in &points {
        let coverage = point.baseline.pf_coverage_bytes;
        println!(
            "{:<8} {:>10.2} {:>14} {:>14} {:>12} {:>12}",
            format!("{}kB", coverage / 1024),
            probe_filter_area_mm2(coverage),
            point.baseline.runtime.as_u64(),
            point.allarm.runtime.as_u64(),
            point.baseline.pf_evictions,
            point.allarm.pf_evictions,
        );
    }

    let full = &points[0];
    let smallest = points.last().expect("sweep has points");
    let baseline_slowdown =
        smallest.baseline.runtime.as_f64() / full.baseline.runtime.as_f64() - 1.0;
    let allarm_slowdown = smallest.allarm.runtime.as_f64() / full.allarm.runtime.as_f64() - 1.0;
    println!();
    println!(
        "shrinking {}kB -> {}kB costs the baseline {:.1}% runtime but ALLARM only {:.1}%,",
        full.baseline.pf_coverage_bytes / 1024,
        smallest.baseline.pf_coverage_bytes / 1024,
        baseline_slowdown * 100.0,
        allarm_slowdown * 100.0
    );
    println!(
        "while freeing {:.2} mm2 of directory SRAM for reuse as cache.",
        probe_filter_area_mm2(full.baseline.pf_coverage_bytes)
            - probe_filter_area_mm2(smallest.baseline.pf_coverage_bytes)
    );
}
