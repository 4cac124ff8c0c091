//! Integration-test-only crate: the tests spanning multiple ALLARM crates
//! live in the `tests/` subdirectory of this package. This library holds
//! what several of them share: loading the checked-in scenario documents,
//! which are the only definition of every grid.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use allarm_core::doc::override_accesses;
use allarm_core::{
    load_scenario_doc, Scenario, ScenarioDoc, ScenarioGrid, TraceFormat, WorkloadSpec,
};

/// The directory of the checked-in scenario documents.
pub fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// Loads the grid document `scenarios/<name>` the way `scenario_run` does,
/// with its trace paths resolved against `scenarios/`.
///
/// # Panics
///
/// When the file is unreadable, malformed or a single scenario.
pub fn load_grid(name: &str) -> ScenarioGrid {
    let path = scenarios_dir().join(name);
    match load_scenario_doc(&path.to_string_lossy()) {
        Ok(ScenarioDoc::Grid(grid)) => *grid,
        Ok(ScenarioDoc::Single(_)) => panic!("{name} is a single scenario, not a grid"),
        Err(e) => panic!("{e}"),
    }
}

/// The scenarios of `scenarios/<name>` with every workload shortened to
/// `accesses` per thread, as `scenario_run --accesses` runs them.
///
/// # Panics
///
/// As [`load_grid`], or when `accesses` is zero.
pub fn shortened(name: &str, accesses: usize) -> Vec<Scenario> {
    let mut scenarios = load_grid(name).expand();
    override_accesses(
        &mut scenarios,
        NonZeroUsize::new(accesses).expect("a positive trace length"),
    );
    scenarios
}

/// `tracefile_v2_comparison.toml`'s grid replaying a copy of the committed
/// v2 sample trace, written to `dir`, with one byte flipped inside frame
/// 1's body: the trace opens, and the replay meets the bad frame. The grid
/// names the copy by its path as given in `dir`.
///
/// # Panics
///
/// When the sample is unreadable or the copy cannot be written.
pub fn corrupt_frame_grid(dir: &Path) -> ScenarioGrid {
    let mut bytes = std::fs::read(scenarios_dir().join("tracefile_sample_v2.btrace")).unwrap();
    bytes[10_200] ^= 0xff;
    let path = dir.join("corrupt.btrace");
    std::fs::write(&path, bytes).unwrap();
    let mut grid = load_grid("tracefile_v2_comparison.toml");
    grid.base.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2);
    grid
}

/// The shapes the figures, the comparisons and the trace round trip rely
/// on, checked on the documents that define each grid.
#[cfg(test)]
mod tests {
    use super::*;
    use allarm_types::config::FabricKind;
    use allarm_workloads::{Benchmark, TraceFormat, WorkloadSpec};

    /// The replay documents name their traces relative to `scenarios/`.
    fn sample_trace(file: &str, format: TraceFormat) -> WorkloadSpec {
        WorkloadSpec::trace_file(file, format).resolved_against(&scenarios_dir())
    }

    #[test]
    fn figure_grids_have_the_expected_sizes() {
        let fig3 = load_grid("fig3_comparison.toml");
        assert_eq!(fig3.len(), 16); // 8 benchmarks x 2 policies
        assert_eq!(load_grid("fig3h_pf_sweep.toml").len(), 48); // x 3 coverages
        assert_eq!(load_grid("fig4_multiprocess.toml").len(), 40); // 4 benchmarks x 5 coverages x 2
        fig3.validate().unwrap();
    }

    #[test]
    fn scale64_grids_run_the_multicore_node_machine() {
        let grid = load_grid("scale64_comparison.toml");
        assert_eq!(grid.len(), 6); // 3 benchmarks x 2 policies
        grid.validate().unwrap();
        assert_eq!(grid.base.machine.num_cores, 64);
        assert_eq!(grid.base.machine.cores_per_node.get(), 4);
        assert_eq!(grid.base.workload.cores_required().unwrap(), 64);

        let sweep = load_grid("scale64_pf_sweep.toml");
        assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
        sweep.validate().unwrap();
        assert_eq!(
            sweep.pf_coverages,
            vec![2 * 1024 * 1024, 1024 * 1024, 512 * 1024, 256 * 1024]
        );
    }

    #[test]
    fn scale256_grids_run_the_nuca_machine_on_the_new_fabrics() {
        let grid = load_grid("scale256_comparison.toml");
        assert_eq!(grid.len(), 6); // 3 benchmarks x 2 policies
        grid.validate().unwrap();
        assert_eq!(grid.base.machine.num_cores, 256);
        assert_eq!(grid.base.machine.num_nodes(), 64);
        assert_eq!(grid.base.machine.noc.fabric, FabricKind::Torus);
        assert!(grid.base.machine.llc.enabled);
        assert_eq!(grid.base.workload.cores_required().unwrap(), 256);

        let sweep = load_grid("scale256_pf_sweep.toml");
        assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
        sweep.validate().unwrap();
        assert_eq!(sweep.base.machine.noc.fabric, FabricKind::CMesh);
        assert_eq!(sweep.base.machine.noc.concentration.get(), 4);
        assert!(sweep.base.machine.llc.enabled);
        // Each node keeps the scale64 shape, so the same coverage range.
        assert_eq!(
            sweep.pf_coverages,
            load_grid("scale64_pf_sweep.toml").pf_coverages
        );
    }

    /// Both trace replays are the source grid with only the workload
    /// swapped for the committed sample, so their rows are comparable byte
    /// for byte (the CI round-trip gates diff them).
    #[test]
    fn tracefile_grids_mirror_each_other() {
        let source = load_grid("tracefile_source.toml");
        assert_eq!(source.len(), 2);
        source.validate().unwrap();
        assert_eq!(
            source.base.workload,
            WorkloadSpec::threads(Benchmark::Blackscholes, 2, 1_000)
        );

        let replay = load_grid("tracefile_comparison.toml");
        assert_eq!(replay.len(), 2);
        assert_eq!(replay.base.machine, source.base.machine);
        assert_eq!(replay.base.seed, source.base.seed);
        assert_eq!(replay.policies, source.policies);
        assert_eq!(
            replay.base.workload,
            sample_trace("tracefile_sample.trace", TraceFormat::Binary)
        );
    }

    #[test]
    fn tracefile_v2_grid_streams_the_committed_sample() {
        let source = load_grid("tracefile_source.toml");
        let replay = load_grid("tracefile_v2_comparison.toml");
        assert_eq!(replay.len(), 2);
        assert_eq!(replay.base.machine, source.base.machine);
        assert_eq!(replay.base.seed, source.base.seed);
        assert_eq!(replay.policies, source.policies);
        assert_eq!(
            replay.base.workload,
            sample_trace("tracefile_sample_v2.btrace", TraceFormat::BinaryV2)
        );

        // Resolved against the committed sample, the grid validates and
        // opens as a streaming source carrying the exact reference stream
        // the source grid's generator produces.
        replay.validate().unwrap();
        let trace = replay.base.workload.streaming_source().unwrap().unwrap();
        let recorded = source.base.workload.materialize(source.base.seed);
        assert_eq!(
            trace.checksum(),
            recorded.checksum(),
            "scenarios/tracefile_sample_v2.btrace has drifted from the generator — \
             regenerate it with `trace_tool record --format binary-v2`"
        );
        assert_eq!(replay.base.workload.materialize(source.base.seed), recorded);
    }

    #[test]
    fn serving_and_consolidation_grids_cover_the_new_profiles() {
        let kv = load_grid("kv_store_comparison.toml");
        assert_eq!(kv.len(), 2);
        kv.validate().unwrap();
        assert_eq!(kv.base.workload.benchmark(), Some(Benchmark::KvStore));

        let grid = load_grid("consolidation_comparison.toml");
        assert_eq!(grid.len(), 2);
        grid.validate().unwrap();
        assert_eq!(grid.base.workload.cores_required().unwrap(), 12);
        // The tenant rotation mixes benchmarks, so the spec reports no
        // single benchmark and a benchmark axis cannot be layered on top.
        assert_eq!(grid.base.workload.benchmark(), None);
        let swept = grid.benchmarks(vec![Benchmark::Barnes]);
        assert!(swept.validate().is_err());
    }

    #[test]
    fn tracefile_comparison_grid_validates_against_the_committed_sample() {
        let grid = load_grid("tracefile_comparison.toml");
        grid.validate().unwrap();
        assert_eq!(grid.base.workload.cores_required().unwrap(), 2);
        // The committed trace is exactly what the source grid's workload
        // generates, so the replayed stream checksums identically.
        let source = load_grid("tracefile_source.toml");
        let recorded = source.base.workload.materialize(source.base.seed);
        assert_eq!(
            grid.base.workload.materialize(source.base.seed),
            recorded,
            "scenarios/tracefile_sample.trace has drifted from the generator — \
             regenerate it with `trace_tool record`"
        );
    }
}
