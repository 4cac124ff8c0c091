//! The documents under `scenarios/` are the only definition of every grid:
//! each must load as a grid that validates, and keep the shape the paper's
//! figures, the examples and the CI gates rely on.

use allarm_core::ScenarioGrid;
use allarm_tests::{load_grid, scenarios_dir};
use allarm_types::config::FabricKind;
use allarm_types::ids::CoreId;
use allarm_workloads::WorkloadSpec;

/// Scenario documents from before the multi-core-node refactor carry no
/// `cores_per_node` field; they must keep parsing as one-core-per-node
/// machines so every historical grid is still byte-compatible.
#[test]
fn pre_topology_documents_default_to_one_core_per_node() {
    let text = std::fs::read_to_string(scenarios_dir().join("fig3_comparison.toml")).unwrap();
    let stripped: String = text
        .lines()
        .filter(|l| !l.starts_with("cores_per_node"))
        .map(|l| format!("{l}\n"))
        .collect();
    let grid = ScenarioGrid::from_toml(&stripped).unwrap();
    assert_eq!(grid.base.machine.cores_per_node.get(), 1);
    assert_eq!(grid, load_grid("fig3_comparison.toml"));
}

/// Scenario documents from before the NUCA/fabric work carry neither an
/// `llc` stanza nor `fabric`/`concentration` fields; they must keep
/// parsing as LLC-less meshes — absent is the same machine as an explicit
/// `enabled = false` stanza, so every historical grid still runs
/// byte-identically.
#[test]
fn pre_nuca_documents_default_to_no_llc_and_a_mesh_fabric() {
    let text = std::fs::read_to_string(scenarios_dir().join("fig3_comparison.toml")).unwrap();
    let mut stripped = String::new();
    let mut in_llc = false;
    for line in text.lines() {
        if line.trim() == "[base.machine.llc]" {
            in_llc = true;
            continue;
        }
        if in_llc {
            // Swallow the stanza body until the next table header.
            if line.trim_start().starts_with('[') {
                in_llc = false;
            } else {
                continue;
            }
        }
        if line.starts_with("fabric") || line.starts_with("concentration") {
            continue;
        }
        stripped.push_str(line);
        stripped.push('\n');
    }
    assert!(!stripped.contains("llc") && !stripped.contains("fabric"));
    let grid = ScenarioGrid::from_toml(&stripped).unwrap();
    assert!(!grid.base.machine.llc.enabled);
    assert_eq!(grid.base.machine.noc.fabric, FabricKind::Mesh);
    assert_eq!(grid.base.machine.noc.concentration.get(), 1);
    assert_eq!(grid, load_grid("fig3_comparison.toml"));
}

#[test]
fn checked_in_grids_are_valid_and_sized_as_documented() {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(scenarios_dir()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !name.ends_with(".toml") {
            continue;
        }
        // Trace paths are resolved against scenarios/ (what scenario_run
        // does), so this also proves every committed sample trace exists
        // and its header is well-formed and machine-compatible.
        let grid = load_grid(&name);
        grid.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!grid.is_empty(), "{name} expands to no scenario");
        names.push(name);
    }
    assert!(
        names.iter().any(|n| n == "scale64_fork_sweep.toml"),
        "every document is listed: {names:?}"
    );

    let fig3 = load_grid("fig3_comparison.toml");
    assert_eq!(fig3.len(), 16); // 8 benchmarks x 2 policies

    let fig3h = load_grid("fig3h_pf_sweep.toml");
    assert_eq!(fig3h.len(), 48); // x 3 coverages
    assert_eq!(fig3h.pf_coverages, vec![512 * 1024, 256 * 1024, 128 * 1024]);

    // Fig. 4: two single-threaded processes on opposite quadrants of the
    // 4x4 mesh, across five coverages from 512 kB down to 32 kB.
    let fig4 = load_grid("fig4_multiprocess.toml");
    assert_eq!(fig4.len(), 40); // 4 benchmarks x 5 coverages x 2 policies
    assert_eq!(fig4.base.workload.cores_required().unwrap(), 9);
    let WorkloadSpec::Multiprocess { cores, .. } = &fig4.base.workload else {
        panic!("fig4 runs a multi-process workload");
    };
    assert_eq!(cores, &[CoreId::new(0), CoreId::new(8)]);
    assert_eq!(
        fig4.pf_coverages,
        vec![512 * 1024, 256 * 1024, 128 * 1024, 64 * 1024, 32 * 1024]
    );

    let streamcluster = load_grid("streamcluster_comparison.toml");
    assert_eq!(streamcluster.len(), 2); // 1 benchmark x 2 policies
    assert_eq!(streamcluster.base.workload.label(), "streamcluster");

    let scale64 = load_grid("scale64_comparison.toml");
    assert_eq!(scale64.len(), 6); // 3 benchmarks x 2 policies
    assert_eq!(scale64.base.machine.num_cores, 64);
    assert_eq!(scale64.base.machine.cores_per_node.get(), 4);
    assert_eq!(scale64.base.machine.num_nodes(), 16);

    // The directory-pressure sweep starts at the node's full probe-filter
    // coverage and only shrinks it.
    let sweep = load_grid("scale64_pf_sweep.toml");
    assert_eq!(sweep.len(), 8); // 4 coverages x 2 policies
    assert_eq!(
        sweep.pf_coverages,
        vec![2 * 1024 * 1024, 1024 * 1024, 512 * 1024, 256 * 1024]
    );
    assert_eq!(
        sweep.pf_coverages[0],
        sweep.base.machine.probe_filter.coverage_bytes
    );
    assert!(sweep.pf_coverages.windows(2).all(|w| w[0] > w[1]));

    let scale256 = load_grid("scale256_comparison.toml");
    assert_eq!(scale256.len(), 6); // 3 benchmarks x 2 policies
    assert_eq!(scale256.base.machine.num_cores, 256);
    assert_eq!(scale256.base.machine.num_nodes(), 64);
    assert_eq!(scale256.base.machine.noc.fabric, FabricKind::Torus);
    assert!(scale256.base.machine.llc.enabled);

    // Same per-node shape as scale64, so the same coverage range.
    let sweep256 = load_grid("scale256_pf_sweep.toml");
    assert_eq!(sweep256.len(), 8); // 4 coverages x 2 policies
    assert_eq!(sweep256.base.machine.noc.fabric, FabricKind::CMesh);
    assert_eq!(sweep256.base.machine.noc.concentration.get(), 4);
    assert_eq!(sweep256.pf_coverages, sweep.pf_coverages);

    let source = load_grid("tracefile_source.toml");
    assert_eq!(source.len(), 2); // 1 workload x 2 policies
    assert_eq!(source.base.workload.cores_required().unwrap(), 2);

    let replay = load_grid("tracefile_comparison.toml");
    assert_eq!(replay.len(), 2);
    assert_eq!(replay.base.workload.label(), "blackscholes");
    assert_eq!(replay.base.workload.cores_required().unwrap(), 2);

    // Unlike the v1 grid, the v2 replay opens as a true streaming source.
    let replay_v2 = load_grid("tracefile_v2_comparison.toml");
    assert_eq!(replay_v2.len(), 2);
    assert!(replay_v2
        .base
        .workload
        .streaming_source()
        .unwrap()
        .is_some());
    assert_eq!(replay_v2.base.workload.cores_required().unwrap(), 2);

    let kv = load_grid("kv_store_comparison.toml");
    assert_eq!(kv.len(), 2); // 1 benchmark x 2 policies
    assert_eq!(kv.base.workload.label(), "kv-store");

    let consolidation = load_grid("consolidation_comparison.toml");
    assert_eq!(consolidation.len(), 2); // 1 workload x 2 policies
    assert_eq!(consolidation.base.workload.cores_required().unwrap(), 12);
}

/// The committed sample trace must be exactly what `trace_tool record`
/// produces from the committed source grid — the round trip CI enforces
/// with a byte diff, checked here at the workload level so `cargo test`
/// catches drift too.
#[test]
fn committed_sample_trace_matches_the_source_grid() {
    let source = load_grid("tracefile_source.toml");
    let recorded = source.base.workload.materialize(source.base.seed);

    let replay = load_grid("tracefile_comparison.toml");
    let replayed = replay.base.workload.materialize(replay.base.seed);
    assert_eq!(
        replayed, recorded,
        "scenarios/tracefile_sample.trace drifted from the generator — regenerate with \
         `trace_tool record --format binary --out scenarios/tracefile_sample.trace \
         scenarios/tracefile_source.toml`"
    );
    assert_eq!(replayed.checksum(), recorded.checksum());

    // The frame-chunked v2 sample carries the same reference stream — both
    // via full materialization and via the header-level stream checksum.
    let v2 = load_grid("tracefile_v2_comparison.toml");
    let streamed = v2.base.workload.streaming_source().unwrap().unwrap();
    assert_eq!(
        streamed.checksum(),
        recorded.checksum(),
        "scenarios/tracefile_sample_v2.btrace drifted from the generator — regenerate \
         with `trace_tool record --format binary-v2 --out \
         scenarios/tracefile_sample_v2.btrace scenarios/tracefile_source.toml`"
    );
    assert_eq!(v2.base.workload.materialize(v2.base.seed), recorded);
}
