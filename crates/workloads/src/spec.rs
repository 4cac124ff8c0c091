//! Declarative, serializable workload specifications.
//!
//! A [`WorkloadSpec`] is the workload half of a scenario document: it names
//! *what* to run (a benchmark, how many threads or processes, how long a
//! trace) without materializing the trace itself. Specs are plain serde
//! values, so they round-trip through TOML/JSON scenario files, and
//! [`WorkloadSpec::materialize`] turns one into a concrete [`Workload`] as a
//! pure function of `(spec, seed)` — the foundation of the batch runner's
//! determinism guarantee.

use crate::multiprocess::{consolidation_workload, multiprocess_workload};
use crate::profile::Benchmark;
use crate::trace::{TraceGenerator, Workload};
use crate::tracefile::{self, TraceFormat, TraceSource};
use allarm_types::ids::CoreId;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A declarative description of a workload, (de)serializable as part of a
/// scenario document.
///
/// # Examples
///
/// ```
/// use allarm_workloads::{Benchmark, WorkloadSpec};
///
/// let spec = WorkloadSpec::threads(Benchmark::Barnes, 4, 1_000);
/// let workload = spec.materialize(42);
/// assert_eq!(workload.threads.len(), 4);
/// // Materialization is a pure function of (spec, seed):
/// assert_eq!(spec.materialize(42), workload);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A multi-threaded run of one benchmark: `threads` worker threads
    /// pinned to cores `0..threads`, each issuing `accesses_per_thread`
    /// main-phase references (the setup of Fig. 2 and Fig. 3).
    Threads {
        /// The benchmark whose profile drives trace generation.
        benchmark: Benchmark,
        /// Number of worker threads.
        threads: usize,
        /// Main-phase memory references per thread.
        accesses_per_thread: usize,
    },
    /// Independent single-threaded copies of one benchmark, pinned to the
    /// given cores — the consolidated multi-process setup of Fig. 4.
    Multiprocess {
        /// The benchmark each process runs.
        benchmark: Benchmark,
        /// The core each process is pinned to (one process per entry; the
        /// entries must be distinct).
        cores: Vec<CoreId>,
        /// Main-phase memory references per process.
        accesses_per_process: usize,
    },
    /// Dozens of independent single-threaded tenant processes packed onto
    /// cores `0..tenants`, cycling through `benchmarks` round-robin — the
    /// datacenter-consolidation generalization of Fig. 4's two-copy setup
    /// (see [`crate::consolidation_workload`]). Tenants share nothing;
    /// their address spaces are disjoint by construction.
    Consolidation {
        /// The benchmark rotation; tenant `i` runs `benchmarks[i % len]`.
        /// May mix batch and serving profiles (e.g. barnes + kv-store).
        benchmarks: Vec<Benchmark>,
        /// Number of single-threaded tenant processes.
        tenants: usize,
        /// Main-phase memory references per tenant.
        accesses_per_tenant: usize,
    },
    /// A captured (or hand-written) address stream replayed from a trace
    /// file on disk — see [`crate::tracefile`] for the format. The seed is
    /// unused; materialization is a pure function of the file contents,
    /// and the file's checksum is carried into simulation reports so the
    /// determinism story survives external inputs.
    TraceFile {
        /// Path to the trace file. Relative paths are resolved against the
        /// process working directory; `scenario_run` resolves them against
        /// the scenario document's directory first (see
        /// [`WorkloadSpec::resolved_against`]).
        path: String,
        /// The encoding the file is declared to use; validation fails if
        /// the file's magic disagrees.
        format: TraceFormat,
        /// Per-thread replay limit in records; `0` (the default) replays
        /// the full trace. Every format honours it: a `binary-v2` trace
        /// streams the prefix frame by frame, text and v1 traces are
        /// truncated in memory. Either way the replay's checksum is the
        /// truncated stream's.
        #[serde(default)]
        limit: u64,
    },
}

impl WorkloadSpec {
    /// Convenience constructor for the multi-threaded form.
    pub fn threads(benchmark: Benchmark, threads: usize, accesses_per_thread: usize) -> Self {
        WorkloadSpec::Threads {
            benchmark,
            threads,
            accesses_per_thread,
        }
    }

    /// Convenience constructor for the multi-process form.
    pub fn multiprocess(
        benchmark: Benchmark,
        cores: Vec<CoreId>,
        accesses_per_process: usize,
    ) -> Self {
        WorkloadSpec::Multiprocess {
            benchmark,
            cores,
            accesses_per_process,
        }
    }

    /// Convenience constructor for the consolidation form.
    pub fn consolidation(
        benchmarks: Vec<Benchmark>,
        tenants: usize,
        accesses_per_tenant: usize,
    ) -> Self {
        WorkloadSpec::Consolidation {
            benchmarks,
            tenants,
            accesses_per_tenant,
        }
    }

    /// Convenience constructor for the trace-replay form.
    pub fn trace_file(path: impl Into<String>, format: TraceFormat) -> Self {
        WorkloadSpec::TraceFile {
            path: path.into(),
            format,
            limit: 0,
        }
    }

    /// The benchmark this spec runs, if it is a generated one (trace
    /// replays carry no benchmark identity — use [`WorkloadSpec::label`]
    /// for a human-readable name that always exists).
    pub fn benchmark(&self) -> Option<Benchmark> {
        match self {
            WorkloadSpec::Threads { benchmark, .. }
            | WorkloadSpec::Multiprocess { benchmark, .. } => Some(*benchmark),
            // A single-entry rotation is one benchmark in all but name; a
            // mixed rotation has no single identity (so e.g. a grid
            // benchmark axis over it collapses rather than mislabeling).
            WorkloadSpec::Consolidation { benchmarks, .. } => match benchmarks.as_slice() {
                [only] => Some(*only),
                _ => None,
            },
            WorkloadSpec::TraceFile { .. } => None,
        }
    }

    /// A short human-readable name for the workload: the benchmark name
    /// for generated specs, the trace header's workload name for replays
    /// (falling back to the file stem when the file is unreadable). Used
    /// by scenario grids to name expansion points.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Threads { benchmark, .. }
            | WorkloadSpec::Multiprocess { benchmark, .. } => benchmark.name().to_string(),
            WorkloadSpec::Consolidation { tenants, .. } => format!("consolidation-{tenants}t"),
            WorkloadSpec::TraceFile { path, .. } => match tracefile::read_header_cached(path) {
                Ok(header) => header.name,
                Err(_) => Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.clone()),
            },
        }
    }

    /// Returns a copy running a different benchmark with the same shape
    /// (used when a scenario grid sweeps the benchmark axis). A no-op for
    /// trace replays, whose content is fixed by the file.
    pub fn with_benchmark(&self, benchmark: Benchmark) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            WorkloadSpec::Threads { benchmark: b, .. }
            | WorkloadSpec::Multiprocess { benchmark: b, .. } => *b = benchmark,
            // Every tenant switches to the named benchmark (the rotation
            // collapses — a homogeneous consolidation of it).
            WorkloadSpec::Consolidation { benchmarks, .. } => *benchmarks = vec![benchmark],
            WorkloadSpec::TraceFile { .. } => {}
        }
        spec
    }

    /// Returns a copy with a different per-thread / per-process trace
    /// length. For trace replays, of any format, this sets the per-thread
    /// truncation `limit` (`0` clears it: the full trace).
    pub fn with_accesses(&self, accesses: usize) -> Self {
        let mut spec = self.clone();
        match &mut spec {
            WorkloadSpec::Threads {
                accesses_per_thread,
                ..
            } => *accesses_per_thread = accesses,
            WorkloadSpec::Multiprocess {
                accesses_per_process,
                ..
            } => *accesses_per_process = accesses,
            WorkloadSpec::Consolidation {
                accesses_per_tenant,
                ..
            } => *accesses_per_tenant = accesses,
            WorkloadSpec::TraceFile { limit, .. } => *limit = accesses as u64,
        }
        spec
    }

    /// Returns a copy with a relative trace path joined onto `base` (specs
    /// without paths, and absolute paths, are returned unchanged). Scenario
    /// loaders call this with the scenario document's directory so a
    /// checked-in document can name its trace relative to itself.
    pub fn resolved_against(&self, base: &Path) -> Self {
        match self {
            WorkloadSpec::TraceFile {
                path,
                format,
                limit,
            } if Path::new(path).is_relative() => WorkloadSpec::TraceFile {
                path: base.join(path).to_string_lossy().into_owned(),
                format: *format,
                limit: *limit,
            },
            other => other.clone(),
        }
    }

    /// The per-thread / per-process trace length (for replays: the longest
    /// single thread's replayed stream, after any truncation limit). Trace
    /// headers are parsed once and cached process-wide, so repeated calls
    /// cost a metadata stat, not a re-parse.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O or format error when a trace file's
    /// header cannot be read — an unreadable trace is an error, not an
    /// empty workload.
    pub fn accesses(&self) -> Result<usize, String> {
        match self {
            WorkloadSpec::Threads {
                accesses_per_thread,
                ..
            } => Ok(*accesses_per_thread),
            WorkloadSpec::Multiprocess {
                accesses_per_process,
                ..
            } => Ok(*accesses_per_process),
            WorkloadSpec::Consolidation {
                accesses_per_tenant,
                ..
            } => Ok(*accesses_per_tenant),
            WorkloadSpec::TraceFile { path, limit, .. } => {
                let header = tracefile::read_header_cached(path)
                    .map_err(|e| format!("workload.path: {path}: {e}"))?;
                let mut longest = header.max_thread_accesses();
                if *limit > 0 {
                    longest = longest.min(*limit);
                }
                Ok(usize::try_from(longest).unwrap_or(usize::MAX))
            }
        }
    }

    /// Total references across all threads this spec materializes to.
    /// Generated specs build the trace (the init phases depend on the
    /// profile); trace replays answer from the (cached) header alone, so
    /// verifying a multi-million-access trace's volume never decodes its
    /// body.
    ///
    /// # Errors
    ///
    /// As [`WorkloadSpec::accesses`].
    ///
    /// # Panics
    ///
    /// Panics if a generated spec fails [`WorkloadSpec::validate`].
    pub fn total_accesses(&self, seed: u64) -> Result<u64, String> {
        match self {
            WorkloadSpec::TraceFile { path, limit, .. } => {
                let header = tracefile::read_header_cached(path)
                    .map_err(|e| format!("workload.path: {path}: {e}"))?;
                Ok(header
                    .threads
                    .iter()
                    .map(|t| {
                        if *limit > 0 {
                            t.accesses.min(*limit)
                        } else {
                            t.accesses
                        }
                    })
                    .sum())
            }
            _ => Ok(self.materialize(seed).total_accesses() as u64),
        }
    }

    /// The minimum number of cores a machine needs to run this workload
    /// (for replays: from the cached trace header).
    ///
    /// # Errors
    ///
    /// As [`WorkloadSpec::accesses`].
    pub fn cores_required(&self) -> Result<usize, String> {
        match self {
            WorkloadSpec::Threads { threads, .. } => Ok(*threads),
            WorkloadSpec::Multiprocess { cores, .. } => {
                Ok(cores.iter().map(|c| c.index() + 1).max().unwrap_or(0))
            }
            WorkloadSpec::Consolidation { tenants, .. } => Ok(*tenants),
            WorkloadSpec::TraceFile { path, .. } => tracefile::read_header_cached(path)
                .map(|h| h.cores_required())
                .map_err(|e| format!("workload.path: {path}: {e}")),
        }
    }

    /// Opens this spec's trace file as a bounded-memory streaming
    /// [`TraceSource`], honoring any truncation limit — `Ok(None)` when
    /// the spec is not a `binary-v2` replay and must be materialized
    /// instead (text and v1 replays are materialized like generated
    /// workloads, and [`WorkloadSpec::materialize`] applies their limit).
    ///
    /// # Errors
    ///
    /// Returns the open/validation error for a streamable trace that
    /// cannot be opened (missing file, corrupt directory, bad checksums).
    pub fn streaming_source(&self) -> Result<Option<TraceSource>, String> {
        match self {
            WorkloadSpec::TraceFile {
                path,
                format: TraceFormat::BinaryV2,
                limit,
            } => TraceSource::open_with_limit(path, *limit)
                .map(Some)
                .map_err(|e| format!("workload.path: {path}: {e}")),
            _ => Ok(None),
        }
    }

    /// Checks the spec is runnable.
    ///
    /// For trace replays this reads and validates the file's *header*
    /// (existence, magic, declared threads, format agreement) without
    /// decoding the body, so a missing or corrupt trace surfaces here as a
    /// configuration error rather than a panic deep inside a run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: zero threads, an
    /// empty or duplicated core list, an unreadable or malformed trace
    /// header, or a trace whose encoding disagrees with the declared
    /// `format`.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WorkloadSpec::Threads { threads, .. } => {
                if *threads == 0 {
                    return Err("workload.threads: must be non-zero".to_string());
                }
            }
            WorkloadSpec::Multiprocess { cores, .. } => {
                if cores.is_empty() {
                    return Err("workload.cores: must name at least one core".to_string());
                }
                let distinct: std::collections::HashSet<CoreId> = cores.iter().copied().collect();
                if distinct.len() != cores.len() {
                    return Err("workload.cores: process cores must be distinct".to_string());
                }
            }
            WorkloadSpec::Consolidation {
                benchmarks,
                tenants,
                ..
            } => {
                if benchmarks.is_empty() {
                    return Err("workload.benchmarks: must name at least one benchmark".to_string());
                }
                if *tenants == 0 {
                    return Err("workload.tenants: must be non-zero".to_string());
                }
            }
            WorkloadSpec::TraceFile { path, format, .. } => {
                let header = tracefile::read_header_cached(path)
                    .map_err(|e| format!("workload.path: {path}: {e}"))?;
                if header.format != *format {
                    return Err(format!(
                        "workload.format: {path} is a {} trace but the spec declares {}",
                        header.format.name(),
                        format.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Generates the concrete workload: a pure function of `(self, seed)`
    /// — for trace replays, of the file contents (the seed is unused, the
    /// decoded stream is checksum-verified, then cut to any `limit`).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`], or if a trace
    /// file's body is truncated or fails its checksum; callers that take
    /// untrusted specs should validate first (body corruption is only
    /// detectable here, and is reported with the failing path).
    pub fn materialize(&self, seed: u64) -> Workload {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid workload spec: {e}"));
        match self {
            WorkloadSpec::Threads {
                benchmark,
                threads,
                accesses_per_thread,
            } => TraceGenerator::new(*threads, *accesses_per_thread, seed).generate(*benchmark),
            WorkloadSpec::Multiprocess {
                benchmark,
                cores,
                accesses_per_process,
            } => multiprocess_workload(*benchmark, *accesses_per_process, seed, cores),
            WorkloadSpec::Consolidation {
                benchmarks,
                tenants,
                accesses_per_tenant,
            } => consolidation_workload(benchmarks, *tenants, *accesses_per_tenant, seed),
            WorkloadSpec::TraceFile { path, limit, .. } => {
                let (_, mut workload) = tracefile::read_workload(path)
                    .unwrap_or_else(|e| panic!("unreadable trace {path}: {e}"));
                if *limit > 0 {
                    let limit = usize::try_from(*limit).unwrap_or(usize::MAX);
                    for thread in &mut workload.threads {
                        thread.accesses.truncate(limit);
                    }
                }
                workload
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_spec_materializes_deterministically() {
        let spec = WorkloadSpec::threads(Benchmark::Cholesky, 4, 500);
        assert_eq!(spec.benchmark(), Some(Benchmark::Cholesky));
        assert_eq!(spec.label(), "cholesky");
        assert_eq!(spec.cores_required().unwrap(), 4);
        assert_eq!(spec.accesses().unwrap(), 500);
        let a = spec.materialize(9);
        let b = spec.materialize(9);
        assert_eq!(a, b);
        assert_eq!(a.name, "cholesky");
        assert_ne!(a, spec.materialize(10));
    }

    #[test]
    fn consolidation_spec_round_trips_and_materializes() {
        let spec = WorkloadSpec::consolidation(vec![Benchmark::Barnes, Benchmark::KvStore], 6, 400);
        spec.validate().unwrap();
        // A mixed rotation has no single benchmark identity; a collapsed
        // one does.
        assert_eq!(spec.benchmark(), None);
        assert_eq!(
            spec.with_benchmark(Benchmark::X264).benchmark(),
            Some(Benchmark::X264)
        );
        assert_eq!(spec.label(), "consolidation-6t");
        assert_eq!(spec.cores_required().unwrap(), 6);
        assert_eq!(spec.accesses().unwrap(), 400);
        assert_eq!(spec.with_accesses(100).accesses().unwrap(), 100);
        let w = spec.materialize(3);
        assert_eq!(w.threads.len(), 6);
        assert_eq!(w, spec.materialize(3));
        assert_eq!(spec.total_accesses(3).unwrap(), w.total_accesses() as u64);
        // Serde round-trip through TOML, as scenario documents require.
        let text = toml::to_string(&spec).unwrap();
        assert_eq!(toml::from_str::<WorkloadSpec>(&text).unwrap(), spec);

        let empty = WorkloadSpec::consolidation(vec![], 2, 10);
        assert!(empty.validate().unwrap_err().contains("benchmark"));
        let none = WorkloadSpec::consolidation(vec![Benchmark::Barnes], 0, 10);
        assert!(none.validate().unwrap_err().contains("tenants"));
    }

    #[test]
    fn multiprocess_spec_pins_processes() {
        let spec = WorkloadSpec::multiprocess(
            Benchmark::Barnes,
            vec![CoreId::new(0), CoreId::new(8)],
            300,
        );
        assert_eq!(spec.cores_required().unwrap(), 9);
        let w = spec.materialize(7);
        assert_eq!(w.threads.len(), 2);
        assert_eq!(w.threads[1].core, CoreId::new(8));
        assert_eq!(w.name, "barnes-2p");
    }

    #[test]
    fn axis_helpers_replace_one_field() {
        let spec = WorkloadSpec::threads(Benchmark::Barnes, 16, 1_000);
        let other = spec.with_benchmark(Benchmark::X264).with_accesses(50);
        assert_eq!(other.benchmark(), Some(Benchmark::X264));
        assert_eq!(other.accesses().unwrap(), 50);
        assert_eq!(other.cores_required().unwrap(), 16);
        // The original is untouched.
        assert_eq!(spec.benchmark(), Some(Benchmark::Barnes));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(WorkloadSpec::threads(Benchmark::Barnes, 0, 10)
            .validate()
            .is_err());
        assert!(WorkloadSpec::multiprocess(Benchmark::Barnes, vec![], 10)
            .validate()
            .is_err());
        assert!(WorkloadSpec::multiprocess(
            Benchmark::Barnes,
            vec![CoreId::new(1), CoreId::new(1)],
            10
        )
        .validate()
        .is_err());
    }

    #[test]
    fn spec_serializes_roundtrip() {
        use serde::{Deserialize as _, Serialize as _};
        for spec in [
            WorkloadSpec::threads(Benchmark::Dedup, 16, 250_000),
            WorkloadSpec::multiprocess(
                Benchmark::OceanContiguous,
                vec![CoreId::new(0), CoreId::new(8)],
                60_000,
            ),
            WorkloadSpec::trace_file("captures/run1.trace", TraceFormat::Binary),
        ] {
            let v = spec.to_value();
            assert_eq!(WorkloadSpec::from_value(&v).unwrap(), spec);
        }
    }

    #[test]
    fn trace_file_spec_replays_the_recorded_workload() {
        let dir = std::env::temp_dir().join(format!("allarm-spec-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trace");
        let recorded = WorkloadSpec::threads(Benchmark::Dedup, 3, 200).materialize(5);
        tracefile::write_trace_file(&path, &recorded, TraceFormat::Text).unwrap();

        let spec = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::Text);
        spec.validate().unwrap();
        assert_eq!(spec.benchmark(), None);
        assert_eq!(spec.label(), "dedup");
        assert_eq!(spec.cores_required().unwrap(), 3);
        assert_eq!(spec.accesses().unwrap(), recorded.threads[0].accesses.len());
        // The seed is irrelevant: replay is a pure function of the file.
        assert_eq!(spec.materialize(1), recorded);
        assert_eq!(spec.materialize(99), recorded);
        // A replay has no benchmark to swap, and its length override is a
        // per-thread limit.
        assert_eq!(spec.with_benchmark(Benchmark::Barnes), spec);
        assert_eq!(
            spec.with_accesses(7),
            WorkloadSpec::TraceFile {
                path: path.to_string_lossy().into_owned(),
                format: TraceFormat::Text,
                limit: 7,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_file_validation_reports_missing_and_mismatched_files() {
        let missing = WorkloadSpec::trace_file("/nonexistent/trace.bin", TraceFormat::Binary);
        let err = missing.validate().unwrap_err();
        assert!(err.contains("workload.path"), "{err}");
        // An unreadable trace is an error, not an empty workload.
        assert!(missing.cores_required().is_err());
        assert!(missing.accesses().is_err());
        assert!(missing.total_accesses(0).is_err());

        let dir = std::env::temp_dir().join(format!("allarm-spec-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.trace");
        let recorded = WorkloadSpec::threads(Benchmark::Dedup, 2, 50).materialize(5);
        tracefile::write_trace_file(&path, &recorded, TraceFormat::Text).unwrap();
        let wrong = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::Binary);
        let err = wrong.validate().unwrap_err();
        assert!(err.contains("text trace"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_replays_support_real_truncation_and_streaming() {
        let dir = std::env::temp_dir().join(format!("allarm-spec-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.btrace");
        let recorded = WorkloadSpec::threads(Benchmark::Dedup, 2, 200).materialize(5);
        tracefile::write_trace_file_framed(&path, &recorded, TraceFormat::BinaryV2, 64).unwrap();

        let spec = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2);
        spec.validate().unwrap();
        // with_accesses is a *real* truncation on v2, not a silent no-op.
        let short = spec.with_accesses(40);
        assert_ne!(short, spec);
        short.validate().unwrap();
        assert_eq!(short.accesses().unwrap(), 40);
        assert_eq!(short.total_accesses(0).unwrap(), 80);
        let materialized = short.materialize(0);
        assert!(materialized.threads.iter().all(|t| t.accesses.len() == 40));
        // The streaming source replays the identical truncated stream.
        let source = short.streaming_source().unwrap().unwrap();
        assert_eq!(source.checksum(), materialized.checksum());
        assert_eq!(source.total_accesses(), 80);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_and_v1_replays_are_truncated_in_memory() {
        let dir = std::env::temp_dir().join(format!("allarm-spec-cut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recorded = WorkloadSpec::threads(Benchmark::Dedup, 2, 200).materialize(5);
        let v2_path = dir.join("sample.btrace");
        tracefile::write_trace_file_framed(&v2_path, &recorded, TraceFormat::BinaryV2, 64).unwrap();
        let v2_prefix = WorkloadSpec::trace_file(v2_path.to_string_lossy(), TraceFormat::BinaryV2)
            .with_accesses(40)
            .streaming_source()
            .unwrap()
            .unwrap();

        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let path = dir.join(format!("sample.{}", format.name()));
            tracefile::write_trace_file(&path, &recorded, format).unwrap();
            let short = WorkloadSpec::trace_file(path.to_string_lossy(), format).with_accesses(40);
            short.validate().unwrap();
            assert_eq!(short.accesses().unwrap(), 40);
            assert_eq!(short.total_accesses(0).unwrap(), 80);
            // Not streamable, so materialized: cut to the prefix a v2
            // replay streams, with the v2 prefix's checksum.
            assert!(short.streaming_source().unwrap().is_none());
            let materialized = short.materialize(0);
            for (cut, full) in materialized.threads.iter().zip(&recorded.threads) {
                assert_eq!(cut.accesses[..], full.accesses[..40], "{}", format.name());
            }
            assert_eq!(materialized.checksum(), v2_prefix.checksum());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relative_trace_paths_resolve_against_a_base_dir() {
        let spec = WorkloadSpec::trace_file("sample.trace", TraceFormat::Text);
        let resolved = spec.resolved_against(Path::new("/docs/scenarios"));
        assert_eq!(
            resolved,
            WorkloadSpec::trace_file("/docs/scenarios/sample.trace", TraceFormat::Text)
        );
        // Absolute paths and generated specs pass through unchanged.
        let absolute = WorkloadSpec::trace_file("/a/b.trace", TraceFormat::Binary);
        assert_eq!(absolute.resolved_against(Path::new("/docs")), absolute);
        let threads = WorkloadSpec::threads(Benchmark::Barnes, 2, 10);
        assert_eq!(threads.resolved_against(Path::new("/docs")), threads);
    }
}
