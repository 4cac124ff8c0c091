//! The acceptance criterion of the intra-run parallelism work: for every
//! checked-in scenario grid, sharding a simulation across worker threads
//! (`sim_threads` ∈ {1, 2, 4}) produces reports **byte-identical** to the
//! serial run — the same guarantee the batch runner gives across
//! scenario-level workers, extended down into a single simulation.
//!
//! The grids are scaled down (shorter traces), and the large sweep grids
//! are subsampled (every benchmark and every policy still appears), so the
//! sweep stays fast; determinism is a structural property of the kernel,
//! not of the trace length. The CI determinism gate complements this by
//! diffing `scenario_run --sim-threads 4` output on the *full* fig3 grid.

use std::ops::ControlFlow;

use allarm_core::simulator::Start;
use allarm_core::{
    AllocationPolicy, BatchRunner, JsonlSink, MachineConfig, NumaPolicy, Scenario, SimSnapshot,
    SimulationBuilder,
};
use allarm_tests::{load_grid, scenarios_dir, shortened};
use allarm_types::ids::NodeId;
use allarm_workloads::{Benchmark, TraceGenerator};

/// How each checked-in document is scaled down: its per-thread trace
/// length (`None`: the full length) and the stride its expansion is
/// subsampled with. Policy is the fastest-varying axis, so only odd
/// strides keep both policies (the test checks that every subsample holds
/// every policy its document lists). Stride 5 over fig3h's 48 points keeps
/// all 8 benchmarks and all 6 coverage × policy pairs; stride 3 over
/// fig4's 40 keeps all 4 benchmarks and all 10 pairs. The scale64 and
/// scale256 grids put the multi-core-node topology — where a shard owns
/// whole nodes, i.e. blocks of four cores — and the NUCA machine (LLC
/// slices on, torus and concentrated-mesh fabrics) under the same
/// byte-identity requirement as the paper machine. The three trace grids
/// cover an externally sourced reference stream: the v1 replay at full
/// length (the committed sample is already short) and the streaming
/// binary-v2 path.
const SHRINK: [(&str, Option<usize>, usize); 13] = [
    ("consolidation_comparison.toml", Some(700), 1),
    ("fig3_comparison.toml", Some(700), 1),
    ("fig3h_pf_sweep.toml", Some(700), 5),
    ("fig4_multiprocess.toml", Some(700), 3),
    ("kv_store_comparison.toml", Some(700), 1),
    ("scale256_comparison.toml", Some(150), 3),
    ("scale256_pf_sweep.toml", Some(150), 5),
    ("scale64_comparison.toml", Some(400), 1),
    ("scale64_pf_sweep.toml", Some(400), 3),
    ("streamcluster_comparison.toml", Some(700), 1),
    ("tracefile_comparison.toml", None, 1),
    ("tracefile_source.toml", Some(700), 1),
    ("tracefile_v2_comparison.toml", Some(700), 1),
];

/// Documents this test leaves out. The fork-from-warm sweep's point is its
/// trace-length axis, which shortening would flatten; CI's "snapshot
/// checkpoint/restore gate" runs it whole, restores it at `sim_threads`
/// 1, 2 and 4 and diffs every row against the uninterrupted run.
const LEFT_OUT: [&str; 1] = ["scale64_fork_sweep.toml"];

/// Every `*.toml` under `scenarios/`, by file name.
fn checked_in_documents() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ is readable")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".toml"))
        .collect();
    names.sort();
    names
}

#[test]
fn sharded_runs_are_byte_identical_across_every_checked_in_grid() {
    let mut covered: Vec<String> = SHRINK
        .iter()
        .map(|(name, ..)| name.to_string())
        .chain(LEFT_OUT.iter().map(|name| name.to_string()))
        .collect();
    covered.sort();
    assert_eq!(
        covered,
        checked_in_documents(),
        "every document under scenarios/ needs a row in SHRINK (or LEFT_OUT)"
    );

    for (name, accesses, stride) in SHRINK {
        let scenarios: Vec<Scenario> = match accesses {
            Some(accesses) => shortened(name, accesses),
            None => load_grid(name).expand(),
        }
        .into_iter()
        .step_by(stride)
        .collect();
        for policy in load_grid(name).policies {
            assert!(
                scenarios.iter().any(|s| s.policy == policy),
                "{name}: stride {stride} drops every {policy:?} point"
            );
        }
        let serial: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_sim_threads(1))
            .collect();
        let reference = BatchRunner::with_threads(1)
            .run(&serial)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for sim_threads in [2usize, 4] {
            let sharded: Vec<Scenario> = scenarios
                .iter()
                .map(|s| s.clone().with_sim_threads(sim_threads))
                .collect();
            let result = BatchRunner::with_threads(1)
                .run(&sharded)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for (a, b) in reference.entries.iter().zip(&result.entries) {
                assert_eq!(
                    a.report, b.report,
                    "{name}/{}: sim_threads={sim_threads} diverged from serial",
                    a.scenario.name
                );
            }
        }
    }
}

/// Miss-window batching under stress: a deep window and a wide horizon on
/// the most miss-heavy profile (raytrace on the 64-core machine) must stay
/// byte-identical across shard counts. The grids above already gate the
/// *default* window; this pins the knob at its aggressive end, where
/// per-round windows are deepest and the reply-commit ordering does the
/// most work.
#[test]
fn deep_miss_windows_stay_byte_identical_across_shard_counts() {
    use allarm_types::{MissWindowConfig, Nanos};

    let mut base = load_grid("scale64_comparison.toml").base.with_accesses(500);
    assert_eq!(base.name, "raytrace/baseline");
    base.machine.miss_window = MissWindowConfig {
        depth: 16,
        horizon: Nanos::new(2_000),
    };

    let run = |sim_threads: usize| {
        let scenarios = vec![base.clone().with_sim_threads(sim_threads)];
        BatchRunner::with_threads(1)
            .run(&scenarios)
            .expect("scenario is valid")
    };
    let serial = run(1);
    assert!(
        serial.entries[0].report.max_window_depth > 1,
        "the stress profile must actually batch misses"
    );
    for sim_threads in [2usize, 4] {
        let sharded = run(sim_threads);
        assert_eq!(
            serial.entries[0].report, sharded.entries[0].report,
            "sim_threads={sim_threads} diverged under a deep miss window"
        );
    }
}

/// The JSONL a sweep writes must not depend on the shard count either —
/// this is the exact comparison the CI determinism gate performs with
/// `scenario_run --sim-threads 4`.
#[test]
fn rendered_jsonl_is_identical_across_shard_counts() {
    let scenarios = shortened("streamcluster_comparison.toml", 500);

    let mut renderings = Vec::new();
    for sim_threads in [1usize, 4] {
        let set: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_sim_threads(sim_threads))
            .collect();
        let mut sink = JsonlSink::new();
        BatchRunner::with_threads(2)
            .run_with_sink(&set, &mut sink)
            .expect("grid is valid");
        renderings.push(sink.into_string());
    }
    assert_eq!(renderings[0], renderings[1]);
    assert_eq!(renderings[0].lines().count(), scenarios.len());
}

/// Skewed homes. With every page homed on the machine's last node (until
/// its DRAM fills, which these short runs never do), that node's directory
/// receives nearly every event, and it is the last node the shard threads
/// claim in each directory phase. Reports and mid-run snapshot bytes must
/// still not depend on the thread count, and the serial run's checkpoint
/// must restore at four threads to the uninterrupted report. Runs a scale64
/// raytrace and a kv-store on the scale256 machine with its LLC slices on.
#[test]
fn skewed_homes_stay_byte_identical_and_restorable_at_every_shard_count() {
    let scale256 = load_grid("scale256_comparison.toml").base.machine;
    assert!(scale256.llc.enabled);
    let cases = [
        (
            MachineConfig::scale64(),
            TraceGenerator::new(64, 300, 2014).generate(Benchmark::Raytrace),
        ),
        (
            scale256,
            TraceGenerator::new(256, 60, 2014).generate(Benchmark::KvStore),
        ),
    ];
    for (machine, workload) in cases {
        let last = NodeId::new(machine.num_nodes() as u16 - 1);
        let simulator = |sim_threads: usize| {
            SimulationBuilder::new(machine)
                .policy(AllocationPolicy::Allarm)
                .numa_policy(NumaPolicy::Fixed(last))
                .sim_threads(sim_threads)
                .build()
                .expect("the machine is valid")
        };
        // One run per thread count yields both the report and the
        // snapshot taken at half way: checkpointing does not change the
        // report.
        let half = workload.total_accesses() as u64 / 2;
        let run = |sim_threads: usize| {
            let mut snapshot = None;
            let report = simulator(sim_threads)
                .replay((&workload).into(), Start::Cold, half, |snap| {
                    snapshot.get_or_insert_with(|| snap.to_bytes());
                    ControlFlow::Continue(())
                })
                .expect("a cold start checks no snapshot");
            (
                report,
                snapshot.expect("the workload outlasts the checkpoint"),
            )
        };

        let (reference, reference_snapshot) = run(1);
        // Only the last node's own cores make local requests.
        assert!(
            reference.local_requests * 10 < reference.directory_requests,
            "{} of {} requests were local: the homes are not skewed",
            reference.local_requests,
            reference.directory_requests
        );
        for sim_threads in [2usize, 4] {
            let (report, snapshot) = run(sim_threads);
            assert_eq!(
                serde_json::to_string(&report),
                serde_json::to_string(&reference),
                "{} cores, sim_threads={sim_threads}: the report diverged",
                machine.num_cores
            );
            assert!(
                snapshot == reference_snapshot,
                "{} cores, sim_threads={sim_threads}: the snapshot bytes diverged",
                machine.num_cores
            );
        }

        let snapshot =
            SimSnapshot::from_bytes(&reference_snapshot).expect("a just-written snapshot parses");
        let resumed = simulator(4)
            .replay((&workload).into(), Start::Restore(&snapshot), 0, |_| {
                ControlFlow::Continue(())
            })
            .expect("the snapshot fits");
        assert_eq!(
            serde_json::to_string(&resumed),
            serde_json::to_string(&reference),
            "{} cores: the restore at sim_threads 4 diverged",
            machine.num_cores
        );
    }
}
