//! The scenario grids behind the paper's figures and the renderer that
//! turns their reports into the paper's tables.
//!
//! Each figure is a declarative [`ScenarioGrid`] constructed here from an
//! [`ExperimentConfig`] scale and checked in as TOML under `scenarios/`
//! (`export_scenarios` regenerates them). `scenario_run` executes a grid
//! and writes its reports as JSONL; the `figures` binary renders every
//! table from the three figure grids' JSONL through [`figures`].

#![warn(missing_docs)]

pub mod figures;

use allarm_core::{AllocationPolicy, ExperimentConfig, Scenario, ScenarioGrid};
use allarm_types::config::{LlcConfig, NocConfig};
use allarm_workloads::{Benchmark, TraceFormat, WorkloadSpec};

// Scenario-document loading lives in `allarm_core::doc` (one shared parse
// and error path for `scenario_run`, `trace_tool`, and the HTTP server);
// re-exported here so the command-line tools keep their historical imports.
pub use allarm_core::doc::{load_scenario_doc, parse_scenario_doc, ScenarioDoc};

/// The grid behind Fig. 2 and Fig. 3a–3g: every benchmark of the
/// multi-threaded evaluation under both allocation policies. Also checked
/// in as `scenarios/fig3_comparison.toml`.
pub fn fig3_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.scenario(Benchmark::Barnes, AllocationPolicy::Baseline))
        .benchmarks(Benchmark::ALL.to_vec())
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The grid behind Fig. 3h: every benchmark × the three probe-filter
/// coverages × both policies. Also checked in as
/// `scenarios/fig3h_pf_sweep.toml`.
pub fn fig3h_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    fig3_grid(cfg).pf_coverages(allarm_core::FIG3H_COVERAGES.to_vec())
}

/// A beyond-the-paper grid: PARSEC `streamcluster` (not part of the
/// original evaluation) under both policies. Also checked in as
/// `scenarios/streamcluster_comparison.toml`.
pub fn streamcluster_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.scenario(Benchmark::Streamcluster, AllocationPolicy::Baseline))
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The scaled-machine comparison grid: the 64-core machine (16 NUMA nodes
/// × 4 cores) running a sharing-heavy trio — the scaled `raytrace`
/// profile plus two SPLASH2 stalwarts — under both policies. Built from
/// [`ExperimentConfig::scale64`] and also checked in as
/// `scenarios/scale64_comparison.toml`.
pub fn scale64_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Baseline))
        .benchmarks(vec![
            Benchmark::Barnes,
            Benchmark::OceanContiguous,
            Benchmark::Raytrace,
        ])
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The scaled-machine directory-pressure sweep: `raytrace` on the 64-core
/// machine across descending per-node probe-filter coverages
/// ([`allarm_core::SCALE64_COVERAGES`]) under both policies — four cores
/// contending for each node's directory is exactly where sparse-directory
/// pressure grows. Also checked in as `scenarios/scale64_pf_sweep.toml`.
pub fn scale64_pf_sweep_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Baseline))
        .pf_coverages(allarm_core::SCALE64_COVERAGES.to_vec())
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The 256-core comparison grid: 64 NUMA nodes × 4 cores wired as an 8×8
/// torus, every node fronting its directory with a shared 4 MiB LLC slice
/// — the NUCA machine the LLC work targets — running the scale64 trio
/// under both allocation policies. Built from
/// [`ExperimentConfig::scale256`] and also checked in as
/// `scenarios/scale256_comparison.toml`.
pub fn scale256_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    let mut base = cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Baseline);
    base.machine = base
        .machine
        .with_noc(NocConfig::torus(8, 8))
        .with_llc(LlcConfig::shared_slice(4 * 1024 * 1024, 16));
    ScenarioGrid::new(base)
        .benchmarks(vec![
            Benchmark::Barnes,
            Benchmark::OceanContiguous,
            Benchmark::Raytrace,
        ])
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The 256-core directory-pressure sweep: `raytrace` across the
/// [`allarm_core::SCALE256_COVERAGES`] per-node probe-filter coverages on
/// a 4×4 concentrated mesh (four nodes per router) with the shared LLC
/// slices enabled — the third fabric family exercised end to end. Also
/// checked in as `scenarios/scale256_pf_sweep.toml`.
pub fn scale256_pf_sweep_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    let mut base = cfg.scenario(Benchmark::Raytrace, AllocationPolicy::Baseline);
    base.machine = base
        .machine
        .with_noc(NocConfig::cmesh(4, 4, 4))
        .with_llc(LlcConfig::shared_slice(4 * 1024 * 1024, 16));
    ScenarioGrid::new(base)
        .pf_coverages(allarm_core::SCALE256_COVERAGES.to_vec())
        .policies(AllocationPolicy::ALL.to_vec())
}

/// The benchmark the checked-in sample trace records.
pub const TRACE_SAMPLE_BENCHMARK: Benchmark = Benchmark::Blackscholes;
/// Worker threads of the sample-trace workload (kept small so the
/// committed file stays a few tens of kilobytes).
pub const TRACE_SAMPLE_THREADS: usize = 2;
/// Main-phase references per thread of the sample-trace workload.
pub const TRACE_SAMPLE_ACCESSES: usize = 1_000;
/// File name of the committed sample trace, relative to `scenarios/` (the
/// checked-in grid names it relative to itself).
pub const TRACE_SAMPLE_FILE: &str = "tracefile_sample.trace";

/// The generator side of the trace round trip: the grid whose base
/// workload `trace_tool record` dumps to produce the committed sample
/// trace, and whose direct runs the trace replay must reproduce
/// byte-identically. Also checked in as `scenarios/tracefile_source.toml`.
pub fn tracefile_source_grid() -> ScenarioGrid {
    let mut base = Scenario::paper(TRACE_SAMPLE_BENCHMARK, AllocationPolicy::Baseline);
    base.workload = WorkloadSpec::threads(
        TRACE_SAMPLE_BENCHMARK,
        TRACE_SAMPLE_THREADS,
        TRACE_SAMPLE_ACCESSES,
    );
    ScenarioGrid::new(base).policies(AllocationPolicy::ALL.to_vec())
}

/// The replay side: the same machine and policies as
/// [`tracefile_source_grid`], but driven by the committed sample trace
/// through [`WorkloadSpec::TraceFile`]. Also checked in as
/// `scenarios/tracefile_comparison.toml`; the CI round-trip gate diffs its
/// JSONL output against the source grid's.
pub fn tracefile_comparison_grid() -> ScenarioGrid {
    let mut grid = tracefile_source_grid();
    grid.base.workload = WorkloadSpec::trace_file(TRACE_SAMPLE_FILE, TraceFormat::Binary);
    grid
}

/// File name of the committed frame-chunked (`binary-v2`) sample trace,
/// relative to `scenarios/`. Records the same workload as
/// [`TRACE_SAMPLE_FILE`]; the frame directory makes it seekable and
/// streamable.
pub const TRACE_SAMPLE_V2_FILE: &str = "tracefile_sample_v2.btrace";

/// The streaming-replay side: the same machine and policies as
/// [`tracefile_source_grid`], but driven by the committed frame-chunked
/// v2 sample through the pull-based [`allarm_workloads::TraceSource`]
/// path — the simulator replays it frame by frame without materializing
/// the workload. Also checked in as
/// `scenarios/tracefile_v2_comparison.toml`; the CI round-trip gate
/// diffs its JSONL output against both the source grid's and the v1
/// replay's.
pub fn tracefile_v2_comparison_grid() -> ScenarioGrid {
    let mut grid = tracefile_source_grid();
    grid.base.workload = WorkloadSpec::trace_file(TRACE_SAMPLE_V2_FILE, TraceFormat::BinaryV2);
    grid
}

/// The serving-shaped comparison grid: the beyond-the-paper `kv-store`
/// profile (skewed Zipfian GET/PUT traffic over a large shared value
/// store, with a drifting hot set) under both allocation policies — the
/// datacenter-workload counterpoint to the paper's HPC suite. Also
/// checked in as `scenarios/kv_store_comparison.toml`.
pub fn kv_store_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.scenario(Benchmark::KvStore, AllocationPolicy::Baseline))
        .policies(AllocationPolicy::ALL.to_vec())
}

/// Tenants packed into the consolidation grid: a dozen single-threaded
/// processes on the 16-core paper machine — six times the process count
/// of the paper's Fig. 4 experiment.
pub const CONSOLIDATION_TENANTS: usize = 12;

/// The benchmark mix consolidation tenants rotate through — a serving
/// tenant between two HPC tenants, the heterogeneous node the north star
/// implies.
pub const CONSOLIDATION_MIX: [Benchmark; 3] = [
    Benchmark::KvStore,
    Benchmark::Barnes,
    Benchmark::OceanContiguous,
];

/// The consolidation comparison grid: [`CONSOLIDATION_TENANTS`]
/// single-threaded tenants rotating through [`CONSOLIDATION_MIX`], each
/// in its own address space and homed on its own core by first-touch,
/// under both policies. Generalizes Fig. 4's two-copy setup to a packed
/// multi-tenant node where the baseline probe filter drowns in
/// never-probed private entries. Also checked in as
/// `scenarios/consolidation_comparison.toml`.
pub fn consolidation_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    let mut base = cfg.scenario(Benchmark::Barnes, AllocationPolicy::Baseline);
    base.workload = WorkloadSpec::consolidation(
        CONSOLIDATION_MIX.to_vec(),
        CONSOLIDATION_TENANTS,
        cfg.accesses_per_thread,
    );
    base.name = format!("consolidation-{CONSOLIDATION_TENANTS}t/baseline");
    ScenarioGrid::new(base).policies(AllocationPolicy::ALL.to_vec())
}

/// The grid behind Fig. 4: the SPLASH2 subset as two-process workloads ×
/// five probe-filter coverages × both policies. Also checked in as
/// `scenarios/fig4_multiprocess.toml`.
pub fn fig4_grid(cfg: &ExperimentConfig) -> ScenarioGrid {
    ScenarioGrid::new(cfg.multiprocess_scenario(Benchmark::Barnes, AllocationPolicy::Baseline))
        .benchmarks(Benchmark::MULTIPROCESS.to_vec())
        .pf_coverages(allarm_core::FIG4_COVERAGES.to_vec())
        .policies(AllocationPolicy::ALL.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn figure_grids_have_the_expected_sizes() {
        let cfg = ExperimentConfig::quick_test();
        assert_eq!(fig3_grid(&cfg).len(), 16); // 8 benchmarks x 2 policies
        assert_eq!(fig3h_grid(&cfg).len(), 48); // x 3 coverages
        assert_eq!(fig4_grid(&cfg).len(), 40); // 4 benchmarks x 5 coverages x 2
        fig3_grid(&cfg).validate().unwrap();
    }

    #[test]
    fn scale64_grids_run_the_multicore_node_machine() {
        let cfg = ExperimentConfig::scale64();
        let grid = scale64_grid(&cfg);
        assert_eq!(grid.len(), 6); // 3 benchmarks x 2 policies
        grid.validate().unwrap();
        assert_eq!(grid.base.machine.num_cores, 64);
        assert_eq!(grid.base.machine.cores_per_node.get(), 4);
        assert_eq!(grid.base.workload.cores_required().unwrap(), 64);

        let sweep = scale64_pf_sweep_grid(&cfg);
        assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
        sweep.validate().unwrap();
        assert_eq!(sweep.pf_coverages, allarm_core::SCALE64_COVERAGES.to_vec());
    }

    #[test]
    fn scale256_grids_run_the_nuca_machine_on_the_new_fabrics() {
        use allarm_types::config::FabricKind;
        let cfg = ExperimentConfig::scale256();

        let grid = scale256_grid(&cfg);
        assert_eq!(grid.len(), 6); // 3 benchmarks x 2 policies
        grid.validate().unwrap();
        assert_eq!(grid.base.machine.num_cores, 256);
        assert_eq!(grid.base.machine.num_nodes(), 64);
        assert_eq!(grid.base.machine.noc.fabric, FabricKind::Torus);
        assert!(grid.base.machine.llc.enabled);
        assert_eq!(grid.base.workload.cores_required().unwrap(), 256);

        let sweep = scale256_pf_sweep_grid(&cfg);
        assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
        sweep.validate().unwrap();
        assert_eq!(sweep.base.machine.noc.fabric, FabricKind::CMesh);
        assert_eq!(sweep.base.machine.noc.concentration.get(), 4);
        assert!(sweep.base.machine.llc.enabled);
        assert_eq!(sweep.pf_coverages, allarm_core::SCALE256_COVERAGES.to_vec());
    }

    #[test]
    fn doc_loading_is_reexported_from_core() {
        // The shared loader moved to `allarm_core::doc`; the re-export must
        // keep classifying grids structurally.
        let cfg = ExperimentConfig::quick_test();
        let grid = fig3_grid(&cfg);
        let doc = parse_scenario_doc(&grid.to_toml().unwrap(), true).unwrap();
        assert_eq!(doc, ScenarioDoc::Grid(Box::new(grid)));
        assert_eq!(doc.expand().len(), 16);
    }

    #[test]
    fn tracefile_grids_mirror_each_other() {
        let source = tracefile_source_grid();
        assert_eq!(source.len(), 2);
        source.validate().unwrap();
        assert_eq!(
            source.base.workload,
            allarm_workloads::WorkloadSpec::threads(
                TRACE_SAMPLE_BENCHMARK,
                TRACE_SAMPLE_THREADS,
                TRACE_SAMPLE_ACCESSES
            )
        );

        let replay = tracefile_comparison_grid();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay.base.machine, source.base.machine);
        assert_eq!(replay.base.seed, source.base.seed);
        assert_eq!(
            replay.base.workload,
            allarm_workloads::WorkloadSpec::trace_file(TRACE_SAMPLE_FILE, TraceFormat::Binary)
        );
    }

    #[test]
    fn tracefile_v2_grid_streams_the_committed_sample() {
        let source = tracefile_source_grid();
        let replay = tracefile_v2_comparison_grid();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay.base.machine, source.base.machine);
        assert_eq!(replay.base.seed, source.base.seed);
        assert_eq!(
            replay.base.workload,
            WorkloadSpec::trace_file(TRACE_SAMPLE_V2_FILE, TraceFormat::BinaryV2)
        );

        // Resolved against the committed sample, the grid validates and
        // opens as a streaming source carrying the exact reference stream
        // the source grid's generator produces.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut grid = tracefile_v2_comparison_grid();
        grid.base.workload = grid.base.workload.resolved_against(&dir);
        grid.validate().unwrap();
        let trace = grid.base.workload.streaming_source().unwrap().unwrap();
        let recorded = source.base.workload.materialize(source.base.seed);
        assert_eq!(
            trace.checksum(),
            recorded.checksum(),
            "scenarios/{TRACE_SAMPLE_V2_FILE} has drifted from the generator — \
             regenerate it with `trace_tool record --format binary-v2`"
        );
        assert_eq!(grid.base.workload.materialize(source.base.seed), recorded);
    }

    #[test]
    fn serving_and_consolidation_grids_cover_the_new_profiles() {
        let cfg = ExperimentConfig::quick_test();

        let kv = kv_store_grid(&cfg);
        assert_eq!(kv.len(), 2);
        kv.validate().unwrap();
        assert_eq!(kv.base.workload.benchmark(), Some(Benchmark::KvStore));

        let grid = consolidation_grid(&cfg);
        assert_eq!(grid.len(), 2);
        grid.validate().unwrap();
        assert_eq!(
            grid.base.workload.cores_required().unwrap(),
            CONSOLIDATION_TENANTS
        );
        // The tenant rotation mixes benchmarks, so the spec reports no
        // single benchmark and a benchmark axis cannot be layered on top.
        assert_eq!(grid.base.workload.benchmark(), None);
        let swept = consolidation_grid(&cfg).benchmarks(vec![Benchmark::Barnes]);
        assert!(swept.validate().is_err());
    }

    #[test]
    fn tracefile_comparison_grid_validates_against_the_committed_sample() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut grid = tracefile_comparison_grid();
        grid.base.workload = grid.base.workload.resolved_against(&dir);
        grid.validate().unwrap();
        assert_eq!(
            grid.base.workload.cores_required().unwrap(),
            TRACE_SAMPLE_THREADS
        );
        // The committed trace is exactly what the source grid's workload
        // generates, so the replayed stream checksums identically.
        let source = tracefile_source_grid();
        let recorded = source.base.workload.materialize(source.base.seed);
        assert_eq!(
            grid.base.workload.materialize(source.base.seed),
            recorded,
            "scenarios/{TRACE_SAMPLE_FILE} has drifted from the generator — \
             regenerate it with `trace_tool record`"
        );
    }
}
