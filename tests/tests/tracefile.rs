//! End-to-end tests of the trace-file ingestion subsystem: record → parse
//! round trips across workload shapes and both formats, corruption error
//! paths, and the headline guarantee — replaying a recorded trace through
//! the full scenario API produces a simulation report **byte-identical**
//! to running the generated workload directly, at every shard count.

use allarm_core::{
    AllocationPolicy, BatchRunner, JsonlSink, MachineConfig, Scenario, TraceFormat, WorkloadSpec,
};
use allarm_tests::corrupt_frame_grid;
use allarm_types::ids::CoreId;
use allarm_workloads::tracefile::{self, TraceHeader};
use allarm_workloads::Benchmark;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("allarm-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spread of workload shapes: multi-threaded across several benchmarks
/// and sizes, plus a multi-process one (non-contiguous core pinning).
fn shapes() -> Vec<(WorkloadSpec, u64)> {
    vec![
        (WorkloadSpec::threads(Benchmark::Barnes, 1, 50), 1),
        (WorkloadSpec::threads(Benchmark::Blackscholes, 2, 700), 2014),
        (WorkloadSpec::threads(Benchmark::OceanContiguous, 4, 333), 7),
        (WorkloadSpec::threads(Benchmark::X264, 3, 0), 9),
        (
            WorkloadSpec::multiprocess(Benchmark::Dedup, vec![CoreId::new(0), CoreId::new(8)], 250),
            5,
        ),
    ]
}

#[test]
fn every_workload_shape_round_trips_through_both_formats() {
    let dir = temp_dir("roundtrip");
    for (i, (spec, seed)) in shapes().into_iter().enumerate() {
        let workload = spec.materialize(seed);
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let path = dir.join(format!("w{i}.{}", format.name()));
            tracefile::write_trace_file(&path, &workload, format).unwrap();

            // Header-only read sees the right shape without the body.
            let header: TraceHeader = tracefile::read_header(&path).unwrap();
            assert_eq!(header.format, format);
            assert_eq!(header.name, workload.name);
            assert_eq!(header.threads.len(), workload.threads.len());
            assert_eq!(header.total_accesses() as usize, workload.total_accesses());
            assert_eq!(header.cores_required(), workload.cores_required());
            assert_eq!(header.checksum, Some(workload.checksum()));

            // Full decode reproduces the workload exactly.
            let (_, decoded) = tracefile::read_workload(&path).unwrap();
            assert_eq!(decoded, workload, "shape {i} via {}", format.name());

            // And so does the WorkloadSpec-level replay, for any seed.
            let replay = WorkloadSpec::trace_file(path.to_string_lossy(), format);
            replay.validate().unwrap();
            assert_eq!(replay.materialize(seed ^ 0xffff), workload);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_and_truncated_files_error_instead_of_replaying_garbage() {
    let dir = temp_dir("corrupt");
    let workload = WorkloadSpec::threads(Benchmark::Cholesky, 2, 300).materialize(3);

    // Binary: flip one body byte → checksum mismatch.
    let path = dir.join("flip.btrace");
    tracefile::write_trace_file(&path, &workload, TraceFormat::Binary).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 40;
    bytes[mid] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();
    let err = tracefile::read_workload(&path).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum mismatch") || msg.contains("varint") || msg.contains("trailing"),
        "{msg}"
    );

    // Binary: truncate the body → "cut short".
    let path = dir.join("trunc.btrace");
    tracefile::write_trace_file(&path, &workload, TraceFormat::Binary).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
    assert!(tracefile::read_workload(&path).is_err());
    // The header is still fine — validation passes, replay panics only at
    // materialize time (and scenario validation is header-level).
    tracefile::read_header(&path).unwrap();

    // Text: drop the last record → declared/actual count mismatch.
    let path = dir.join("short.trace");
    tracefile::write_trace_file(&path, &workload, TraceFormat::Text).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: String = text
        .lines()
        .take(text.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, kept).unwrap();
    let err = tracefile::read_workload(&path).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_validation_reports_trace_problems_as_config_errors() {
    let base = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);

    // Missing file: a ConfigError naming the workload, not a panic.
    let mut missing = base.clone();
    missing.workload = WorkloadSpec::trace_file("/does/not/exist.trace", TraceFormat::Binary);
    let err = missing.validate().unwrap_err();
    assert_eq!(err.field(), "workload");
    assert!(err.reason().contains("/does/not/exist.trace"), "{err}");

    // A trace needing more cores than the machine has: caught at validate
    // time from the header alone.
    let dir = temp_dir("oversized");
    let path = dir.join("wide.trace");
    let wide = WorkloadSpec::threads(Benchmark::Barnes, 8, 10).materialize(1);
    tracefile::write_trace_file(&path, &wide, TraceFormat::Text).unwrap();
    let mut oversized = base.clone();
    oversized.machine = MachineConfig::small_test();
    assert!(oversized.machine.num_cores < 8);
    oversized.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::Text);
    let err = oversized.validate().unwrap_err();
    assert_eq!(err.field(), "workload");
    assert!(err.reason().contains("cores"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline guarantee: `trace_tool record`-style capture of a
/// generated workload, replayed through the scenario API, produces a
/// report byte-identical to the direct run — including the rendered JSONL,
/// and for sharded runs.
#[test]
fn trace_replay_reports_are_byte_identical_to_direct_runs() {
    let dir = temp_dir("replay");
    let direct = Scenario::quick_test(Benchmark::Blackscholes, AllocationPolicy::Baseline)
        .with_accesses(800);
    let workload = direct.workload();

    for format in [TraceFormat::Text, TraceFormat::Binary] {
        let path = dir.join(format!("replay.{}", format.name()));
        tracefile::write_trace_file(&path, &workload, format).unwrap();
        let mut replay = direct.clone();
        replay.workload = WorkloadSpec::trace_file(path.to_string_lossy(), format);

        for sim_threads in [1usize, 2] {
            let pair = vec![
                direct.clone().with_sim_threads(sim_threads),
                replay.clone().with_sim_threads(sim_threads),
            ];
            let results = BatchRunner::with_threads(1).run(&pair).unwrap();
            assert_eq!(
                results.entries[0].report,
                results.entries[1].report,
                "{} replay diverged at sim_threads={sim_threads}",
                format.name()
            );
            // Provenance: the report's checksum is the file's checksum.
            assert_eq!(
                results.entries[1].report.workload_checksum,
                tracefile::read_header(&path).unwrap().checksum.unwrap()
            );
        }

        // The rendered JSONL matches too (scenario names equal by
        // construction here), which is what the CI gate diffs.
        let mut direct_sink = JsonlSink::new();
        let mut replay_sink = JsonlSink::new();
        BatchRunner::with_threads(1)
            .run_with_sink(std::slice::from_ref(&direct), &mut direct_sink)
            .unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(std::slice::from_ref(&replay), &mut replay_sink)
            .unwrap();
        assert_eq!(direct_sink.into_string(), replay_sink.into_string());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The streaming guarantee of the frame-chunked v2 container: replaying a
/// recording through the pull-based [`allarm_workloads::TraceSource`] path
/// (the simulator decodes frames on demand, never materializing the
/// workload) produces a report byte-identical to the direct run at every
/// shard count, and carries the recorded stream checksum as provenance.
#[test]
fn v2_streaming_replay_is_byte_identical_to_the_materialized_run() {
    let dir = temp_dir("stream");
    let direct = Scenario::quick_test(Benchmark::OceanContiguous, AllocationPolicy::Baseline)
        .with_accesses(900);
    let workload = direct.workload();
    let path = dir.join("stream.btrace");
    // A short frame length so the replay crosses many frame boundaries.
    tracefile::write_trace_file_framed(&path, &workload, TraceFormat::BinaryV2, 256).unwrap();

    let mut replay = direct.clone();
    replay.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2);
    replay.validate().unwrap();
    assert!(replay.workload.streaming_source().unwrap().is_some());

    for sim_threads in [1usize, 2, 4] {
        let pair = vec![
            direct.clone().with_sim_threads(sim_threads),
            replay.clone().with_sim_threads(sim_threads),
        ];
        let results = BatchRunner::with_threads(1).run(&pair).unwrap();
        assert_eq!(
            results.entries[0].report, results.entries[1].report,
            "streaming replay diverged at sim_threads={sim_threads}"
        );
        assert_eq!(
            results.entries[1].report.workload_checksum,
            workload.checksum()
        );
    }

    // `--accesses` over a v2 replay is a *real* per-thread prefix
    // truncation (satellite of the silent-no-op sweep): the report covers
    // exactly the truncated stream, whose checksum is recomputed from the
    // frames actually replayed.
    let mut truncated = replay.clone();
    truncated.workload = truncated.workload.with_accesses(300);
    truncated.validate().unwrap();
    let report = truncated.run().unwrap();
    let expected: usize = workload
        .threads
        .iter()
        .map(|t| t.accesses.len().min(300))
        .sum();
    assert_eq!(report.total_accesses as usize, expected);
    assert_ne!(report.workload_checksum, workload.checksum());
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-written (adversarial) text trace drives the simulator: two cores
/// ping-ponging writes on one line — behaviour no generated profile
/// produces deliberately.
#[test]
fn hand_written_adversarial_trace_runs_end_to_end() {
    let dir = temp_dir("pingpong");
    let path = dir.join("pingpong.trace");
    let mut text = String::from(
        "allarm-trace v1 text\n\
         # two cores bouncing one cache line\n\
         name pingpong\n\
         thread 0 core 0 accesses 64\n\
         thread 1 core 15 accesses 64\n",
    );
    for i in 0..64 {
        text.push_str(&format!("0 {} 40000\n", if i % 2 == 0 { 'w' } else { 'r' }));
        text.push_str(&format!(
            "15 {} 40000\n",
            if i % 2 == 0 { 'r' } else { 'w' }
        ));
    }
    std::fs::write(&path, text).unwrap();

    let mut scenario = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline);
    scenario.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::Text);
    scenario.name = "pingpong/baseline".into();
    scenario.validate().unwrap();
    let report = scenario.run().unwrap();
    assert_eq!(report.workload, "pingpong");
    assert_eq!(report.total_accesses, 128);
    // Every reference targets one shared line homed on one node: all of
    // the second core's requests are remote.
    assert!(report.remote_requests > 0);
    assert_eq!(report.workload_checksum, scenario.workload().checksum());
    std::fs::remove_dir_all(&dir).ok();
}

/// A frame that fails its checksum mid-replay fails a sharded run the way
/// it fails a serial one: the shard that reads it panics naming the frame,
/// and the other shard, instead of waiting at the phase barrier forever,
/// unwinds too. The run is on its own thread so that a hang fails the test
/// after a minute rather than stalling the suite.
#[test]
fn a_corrupt_frame_fails_a_sharded_replay_instead_of_hanging() {
    let dir = temp_dir("corrupt-frame");
    let scenario = corrupt_frame_grid(&dir).base.with_sim_threads(2);

    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(panic::catch_unwind(AssertUnwindSafe(|| scenario.run())));
    });
    let payload = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the sim_threads 2 replay of a corrupt frame hung")
        .expect_err("a corrupt frame must fail the run");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(
        message.contains("frame 1 failed its checksum"),
        "the panic must name the frame: {message:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Both rows of the corrupt-frame grid on two batch workers: the batch
/// ends with the failed row's own panic, naming the frame, as the serial
/// loop does, not with the worker scope's generic one.
#[test]
fn a_corrupt_frame_fails_a_parallel_batch_with_the_rows_own_panic() {
    let dir = temp_dir("corrupt-batch");
    let scenarios = corrupt_frame_grid(&dir).expand();
    assert_eq!(scenarios.len(), 2);
    let payload = panic::catch_unwind(AssertUnwindSafe(|| {
        BatchRunner::with_threads(2).run(&scenarios)
    }))
    .expect_err("a corrupt frame must fail the batch");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("frame 1 failed its checksum"),
        "the panic must name the frame: {message:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
