//! A corrupt `binary-v2` frame must never hang or abort the benchmark: the
//! run that hits it is counted as failed and the benchmark still reports.
//!
//! The corruption sits in a frame body, which opening the trace does not
//! read (it checks the header and frame directory only), so the simulator
//! meets it mid-replay: a panic inside a shard at `sim_threads` 1, and a
//! shard left waiting at the phase barrier at `sim_threads` 2.

use allarm_core::{AllocationPolicy, Scenario, TraceFormat, WorkloadSpec};
use allarm_workloads::tracefile::write_trace_file_framed;
use allarm_workloads::{Benchmark, TraceSource};
use perfbench::bench::measure;
use perfbench::workloads::{spec, Input, Prepared, Spec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The generated kv-store scenario on the paper's machine.
fn generated(sim_threads: usize) -> Scenario {
    Scenario {
        workload: WorkloadSpec::threads(Benchmark::KvStore, 16, 4_000),
        ..Scenario::paper(Benchmark::KvStore, AllocationPolicy::Allarm)
    }
    .with_seed(5)
    .with_sim_threads(sim_threads)
}

/// A streamed replay of the trace at `path` at `sim_threads`.
fn prepared(path: &Path, sim_threads: usize) -> Prepared {
    let generated = generated(sim_threads);
    let scenario = Scenario {
        workload: WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2),
        ..generated.clone()
    };
    let source = TraceSource::open(path).expect("the directory is intact, so the trace opens");
    Prepared::Single {
        simulator: Arc::new(scenario.build().expect("valid scenario")),
        scenario,
        input: Input::Streamed(Arc::new(source)),
        generated,
    }
}

/// Records the workload with small frames, and a copy with one byte of a
/// mid-trace frame body flipped.
fn record(dir: &Path) -> (PathBuf, PathBuf) {
    let workload = generated(1).workload();
    let good = dir.join("good.btrace");
    write_trace_file_framed(&good, &workload, TraceFormat::BinaryV2, 512).expect("trace written");
    let frame = {
        let source = TraceSource::open(&good).expect("trace opens");
        let frames = source.frames(0);
        frames[frames.len() / 2]
    };
    let mut bytes = std::fs::read(&good).expect("trace reads");
    bytes[(frame.offset + frame.bytes / 2) as usize] ^= 0xff;
    let bad = dir.join("corrupt.btrace");
    std::fs::write(&bad, bytes).expect("corrupt copy written");
    (good, bad)
}

fn test_spec(sim_threads: usize) -> Spec {
    Spec {
        sim_threads,
        digests: &[],
        ..*spec("kvstore256-v2").expect("the kv-store workload exists")
    }
}

#[test]
fn a_corrupt_frame_is_a_counted_failure_not_a_hang() {
    let dir = scratch("corrupt");
    let (good, bad) = record(&dir);
    let deadline = Duration::from_secs(10);
    for sim_threads in [1, 2] {
        let spec = test_spec(sim_threads);
        let clean = measure(
            || Ok(prepared(&good, sim_threads)),
            &spec,
            5,
            Duration::ZERO,
            deadline,
        )
        .expect("set-up succeeds");
        assert_eq!(
            clean.failed, 0,
            "intact trace at st={sim_threads}: {:?}",
            clean.failures
        );
        assert!(clean.attempted > 0);

        let start = Instant::now();
        let result = measure(
            || Ok(prepared(&bad, sim_threads)),
            &spec,
            5,
            Duration::ZERO,
            deadline,
        )
        .expect("set-up succeeds");
        let error_rate = result.failed as f64 / result.attempted as f64;
        assert!(
            error_rate > 0.0,
            "st={sim_threads}: the corrupt frame went unnoticed"
        );
        assert!(
            start.elapsed() < deadline * 3,
            "st={sim_threads}: the benchmark did not terminate in time"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
