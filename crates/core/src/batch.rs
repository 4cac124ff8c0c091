//! Parallel execution of scenario sets.
//!
//! [`BatchRunner`] takes the scenarios a [`crate::ScenarioGrid`] expands to
//! (or any hand-built list), validates them all up front, and executes them
//! across OS threads. Each scenario is a pure function of its own fields —
//! its report is byte-identical for every `sim_threads` value and every
//! worker count — so parallel and serial execution produce **identical**
//! results; the runner additionally delivers results to the [`ResultSink`]
//! in scenario order regardless of completion order, so sinks observe the
//! same sequence either way.
//!
//! Each distinct `(spec, seed)` workload is opened once and shared between
//! scenarios via [`Arc`], so a policy-comparison grid does not pay trace
//! generation twice per benchmark. Frame-chunked v2 trace replays stream
//! off disk; generated workloads and text and v1 trace replays are
//! materialized.
//!
//! Scenarios that declare a [`crate::Scenario::warmup_accesses`] prefix are
//! additionally grouped by machine, policies, seed and workload shape:
//! the runner executes the shared prefix **once** per group, snapshots the
//! simulator in memory, and forks every member from the warm image
//! (fork-from-warm). Forked reports are byte-identical to cold runs — the
//! kernel snapshot is exact — and [`BatchRunner::with_verify_forks`] turns
//! that guarantee into an assertion by re-running each member cold.
//!
//! Results can stay in memory ([`VecSink`], [`JsonlSink`]) or stream to
//! disk as they complete ([`JsonlFileSink`], [`CsvFileSink`]), so long
//! sweeps persist partial results instead of losing everything on an
//! interruption.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use allarm_types::error::ConfigError;
use allarm_workloads::{AccessSource, TraceSource, Workload};

use crate::metrics::{Comparison, SimReport};
use crate::scenario::{Scenario, SimThreads};
use crate::simulator::Start;
use crate::snapshot::SimSnapshot;

/// One scenario's ready-to-replay workload. Frame-chunked v2 trace replays
/// hold only the trace's header and frame directory and stream the body
/// straight off disk during the run — a batch over a
/// multi-hundred-million-access trace never holds the decoded stream in
/// memory; every other workload is materialized.
#[derive(Debug, Clone)]
pub(crate) enum WorkloadHandle {
    /// Every access in memory, shared between scenarios via [`Arc`].
    Materialized(Arc<Workload>),
    /// A bounded-memory streaming v2 trace source.
    Streaming(Arc<TraceSource>),
}

impl WorkloadHandle {
    /// Opens `scenario`'s workload: the one place that chooses between
    /// streaming and materializing it.
    ///
    /// # Errors
    ///
    /// Returns a `workload` [`ConfigError`] when a streamable trace cannot
    /// be opened or fails its directory validation.
    pub(crate) fn open(scenario: &Scenario) -> Result<Self, ConfigError> {
        Ok(match scenario.streaming_source()? {
            Some(source) => WorkloadHandle::Streaming(Arc::new(source)),
            None => WorkloadHandle::Materialized(Arc::new(scenario.workload())),
        })
    }

    /// The replay feed the simulator consumes — identical record streams
    /// for both kinds.
    fn source(&self) -> AccessSource<'_> {
        match self {
            WorkloadHandle::Materialized(w) => AccessSource::from(&**w),
            WorkloadHandle::Streaming(t) => AccessSource::from(&**t),
        }
    }

    /// The in-memory workload, when one exists. Fork-from-warm planning
    /// requires one (prefix comparison reads the raw access vectors), so
    /// streaming scenarios always run cold.
    fn materialized(&self) -> Option<&Arc<Workload>> {
        match self {
            WorkloadHandle::Materialized(w) => Some(w),
            WorkloadHandle::Streaming(_) => None,
        }
    }
}

/// One completed scenario: the descriptor and its report.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Position of the scenario in the submitted batch.
    pub index: usize,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The full metric report of the run.
    pub report: SimReport,
}

impl BatchEntry {
    /// Renders this entry as one line of the JSONL result format — the
    /// exact bytes [`JsonlSink`] and [`JsonlFileSink`] record (without the
    /// trailing newline), so any transport (an in-memory buffer, an HTTP
    /// stream) can carry rows byte-identical to the file sinks' output.
    pub fn jsonl_line(&self) -> String {
        jsonl_line(self)
    }
}

/// How a batch run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every pending scenario ran and was recorded.
    Completed,
    /// The cancel flag was observed between grid rows: the rows already
    /// recorded are final and correct, the rest never ran.
    Cancelled,
}

/// Consumes completed runs, in scenario order.
///
/// The runner guarantees `record` is called with strictly increasing
/// `entry.index`, for both serial and parallel execution, so a sink never
/// needs to reorder.
pub trait ResultSink {
    /// Receives the next completed entry.
    fn record(&mut self, entry: &BatchEntry);
}

/// A sink that simply collects every entry.
#[derive(Debug, Default)]
pub struct VecSink {
    entries: Vec<BatchEntry>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Consumes the sink, returning the collected entries.
    pub fn into_entries(self) -> Vec<BatchEntry> {
        self.entries
    }
}

impl ResultSink for VecSink {
    fn record(&mut self, entry: &BatchEntry) {
        self.entries.push(entry.clone());
    }
}

/// A sink that renders each entry as one JSON object per line (JSONL),
/// ready for downstream tooling. Each line carries the scenario `index`
/// and `scenario` name alongside the `report`, so sweep rows that differ
/// only in swept machine axes (e.g. probe-filter coverage) stay
/// distinguishable without relying on line order.
#[derive(Debug, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// Consumes the sink, returning the JSONL document.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl ResultSink for JsonlSink {
    fn record(&mut self, entry: &BatchEntry) {
        self.out.push_str(&jsonl_line(entry));
        self.out.push('\n');
    }
}

/// The lines of a partially-written output file that are certainly
/// complete. Every record is written as `line + '\n'` and flushed
/// sequentially, so a file not ending in a newline was cut mid-record —
/// its final line must be dropped even when the truncation happens to
/// leave parseable content (e.g. a CSV row chopped inside its last
/// numeric field).
fn complete_lines(text: &str) -> std::vec::IntoIter<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    if !text.is_empty() && !text.ends_with('\n') {
        lines.pop();
    }
    lines.into_iter()
}

/// One completed row recovered from a partially-written output file: the
/// identity a resumed sweep verifies against the current batch before any
/// new row is appended (see [`verify_resume_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedRow {
    /// The scenario's position in the batch when the row was written.
    pub index: usize,
    /// The recorded scenario name.
    pub scenario: String,
    /// The recorded report's total replayed memory references.
    pub total_accesses: u64,
}

/// The read-only result of scanning a partially-written output file: the
/// complete lines to keep and the [`RecordedRow`]s they describe. Produced
/// by [`JsonlFileSink::scan`] / [`CsvFileSink::scan`] **without touching
/// the file**, so mismatches found by [`verify_resume_rows`] leave an
/// interrupted sweep's output exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeScan {
    keep: Vec<String>,
    rows: Vec<RecordedRow>,
}

impl ResumeScan {
    /// The recovered rows, in file order.
    pub fn rows(&self) -> &[RecordedRow] {
        &self.rows
    }

    /// The scenario indices already recorded (the set for
    /// [`BatchRunner::with_completed`]).
    pub fn completed(&self) -> HashSet<usize> {
        self.rows.iter().map(|r| r.index).collect()
    }

    fn keep_lines(&self) -> Vec<&str> {
        self.keep.iter().map(String::as_str).collect()
    }
}

/// Extracts the row identity — and the raw report tree, for schema
/// checking — from one [`JsonlSink`]-format line, if the line is complete
/// and well-formed.
fn jsonl_row(line: &str) -> Option<(RecordedRow, serde::Value)> {
    let value: serde::Value = serde_json::from_str(line).ok()?;
    let serde::Value::U64(index) = value.get("index")? else {
        return None;
    };
    let serde::Value::Str(scenario) = value.get("scenario")? else {
        return None;
    };
    let report = value.get("report")?;
    let serde::Value::U64(total_accesses) = report.get("total_accesses")? else {
        return None;
    };
    let row = RecordedRow {
        index: *index as usize,
        scenario: scenario.clone(),
        total_accesses: *total_accesses,
    };
    Some((row, report.clone()))
}

/// Renders one batch entry as the line format of [`JsonlSink`].
fn jsonl_line(entry: &BatchEntry) -> String {
    use serde::{Serialize as _, Value};
    let line = Value::Map(vec![
        ("index".to_string(), Value::U64(entry.index as u64)),
        (
            "scenario".to_string(),
            Value::Str(entry.scenario.name.clone()),
        ),
        ("report".to_string(), entry.report.to_value()),
    ]);
    serde_json::to_string(&line)
}

/// Shared plumbing of the file-backed sinks: a flushed-per-record writer
/// with deferred I/O errors. Errors are captured at the failing record and
/// surfaced by `finish` (the [`ResultSink`] trait keeps `record` infallible
/// so in-memory sinks stay trivial).
#[derive(Debug)]
struct FileWriter {
    out: std::io::BufWriter<std::fs::File>,
    error: Option<std::io::Error>,
}

impl FileWriter {
    fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(FileWriter {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            error: None,
        })
    }

    /// Reopens `path` for a resumed sweep: the still-parseable prefix
    /// `keep` (everything up to the first line an interruption may have
    /// truncated) is rewritten in one buffered pass with a single flush —
    /// the per-record flush discipline only matters for records written
    /// *after* this point — and subsequent records append after it.
    fn reopen(path: impl AsRef<std::path::Path>, keep: &[&str]) -> std::io::Result<Self> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in keep {
            writeln!(out, "{line}")?;
        }
        out.flush()?;
        Ok(FileWriter { out, error: None })
    }

    /// Writes one line and flushes, so partially completed sweeps survive
    /// an interruption. After the first error, further writes are skipped.
    fn write_line(&mut self, line: &str) {
        use std::io::Write as _;
        if self.error.is_some() {
            return;
        }
        let result = writeln!(self.out, "{line}").and_then(|()| self.out.flush());
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    fn finish(mut self) -> std::io::Result<()> {
        use std::io::Write as _;
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

/// A sink that streams each entry to a file as one JSON object per line
/// (the [`JsonlSink`] format), flushing after every record. I/O errors are
/// deferred and surfaced by [`JsonlFileSink::finish`].
#[derive(Debug)]
pub struct JsonlFileSink {
    out: FileWriter,
}

impl JsonlFileSink {
    /// Creates (truncating) the output file.
    ///
    /// # Errors
    ///
    /// Returns the error of the failed create.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlFileSink {
            out: FileWriter::create(path)?,
        })
    }

    /// Scans a partially-written output file **without modifying it**:
    /// complete, well-formed lines are kept (a truncated final line from
    /// the interruption is dropped) and their recorded row identities are
    /// recovered, so the caller can cross-check them against the batch
    /// ([`verify_resume_rows`]) before anything is rewritten. A missing
    /// file scans as empty.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed read, or `InvalidData` when a
    /// recorded row's report does not deserialize under this build's
    /// schema (the file was written by a different build — appending new
    /// rows after it would break fresh-run byte-identity).
    pub fn scan(path: impl AsRef<std::path::Path>) -> std::io::Result<ResumeScan> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut keep = Vec::new();
        let mut rows = Vec::new();
        for line in complete_lines(&text) {
            let Some((row, report)) = jsonl_row(line) else {
                // The first malformed line is where the interruption hit;
                // everything after it is untrustworthy.
                break;
            };
            // A line that carries a row identity but whose report no
            // longer matches the current schema was written by a
            // different build — appending rows of the new schema after it
            // would break the file's fresh-run byte-identity, so refuse
            // up front (the file stays untouched).
            use serde::Deserialize as _;
            if crate::metrics::SimReport::from_value(&report).is_err() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "row {} was recorded with an incompatible report schema \
                         (written by a different build?) — re-run the sweep from scratch",
                        row.index
                    ),
                ));
            }
            keep.push(line.to_string());
            rows.push(row);
        }
        Ok(ResumeScan { keep, rows })
    }

    /// Reopens `path` for appending after a [`JsonlFileSink::scan`]: the
    /// scanned prefix is rewritten and new records append after it.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed reopen.
    pub fn resume_scanned(
        path: impl AsRef<std::path::Path>,
        scan: &ResumeScan,
    ) -> std::io::Result<Self> {
        Ok(JsonlFileSink {
            out: FileWriter::reopen(path, &scan.keep_lines())?,
        })
    }

    /// Flushes and closes the sink, surfacing the first I/O error hit
    /// while recording.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, or the flush error.
    pub fn finish(self) -> std::io::Result<()> {
        self.out.finish()
    }
}

impl ResultSink for JsonlFileSink {
    fn record(&mut self, entry: &BatchEntry) {
        self.out.write_line(&jsonl_line(entry));
    }
}

/// A sink that streams each entry to a CSV file (header plus one flat row
/// per run), flushing after every record. The column set is
/// [`SimReport::CSV_HEADER`]; the header is written at create time, so
/// even an empty batch leaves a well-formed file. I/O errors are deferred
/// and surfaced by [`CsvFileSink::finish`].
#[derive(Debug)]
pub struct CsvFileSink {
    out: FileWriter,
}

impl CsvFileSink {
    /// Creates (truncating) the output file and writes the header row.
    ///
    /// # Errors
    ///
    /// Returns the error of the failed create.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let mut out = FileWriter::create(path)?;
        out.write_line(&Self::header());
        Ok(CsvFileSink { out })
    }

    fn header() -> String {
        format!("index,scenario,{}", SimReport::CSV_HEADER)
    }

    /// Scans a partially-written CSV file **without modifying it**: the
    /// header and every complete row are kept and each row's identity is
    /// recovered, so the caller can cross-check the rows against the batch
    /// ([`verify_resume_rows`]) before anything is rewritten. A missing or
    /// empty file (or one cut off mid-header) scans as fresh.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed read, or `InvalidData` when the
    /// file's header does not match this build's column set (recorded by
    /// a different build — resuming would silently drop its rows).
    pub fn scan(path: impl AsRef<std::path::Path>) -> std::io::Result<ResumeScan> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut lines = complete_lines(&text);
        let mut keep = vec![Self::header()];
        let mut rows = Vec::new();
        // A non-empty file whose (complete) first line is not the current
        // header was recorded by a different build — resuming would
        // silently truncate its rows, so refuse with the file untouched.
        // (A missing file, an empty file, or one cut mid-header scans as
        // fresh: nothing complete has been recorded yet.)
        if let Some(first) = lines.next() {
            let header = Self::header();
            if first != header {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "the file's column header does not match this build's (recorded by \
                     a different build?) — re-run the sweep from scratch",
                ));
            }
            let columns: Vec<&str> = header.split(',').collect();
            let total_at = columns
                .iter()
                .position(|&c| c == "total_accesses")
                .expect("the report header has a total_accesses column");
            for line in lines {
                // A complete row parses a leading index and has the full
                // column count (commas inside quoted fields — escaped
                // scenario names — don't split); the first row that
                // doesn't marks the interruption point.
                let Some(fields) = csv_fields(line) else {
                    break; // truncated inside a quoted field
                };
                if fields.len() != columns.len() {
                    break;
                }
                let (Ok(index), Ok(total_accesses)) =
                    (fields[0].parse::<usize>(), fields[total_at].parse::<u64>())
                else {
                    break;
                };
                keep.push(line.to_string());
                rows.push(RecordedRow {
                    index,
                    scenario: fields[1].clone(),
                    total_accesses,
                });
            }
        }
        Ok(ResumeScan { keep, rows })
    }

    /// Reopens `path` for appending after a [`CsvFileSink::scan`]: the
    /// header and scanned rows are rewritten and new rows append after
    /// them.
    ///
    /// # Errors
    ///
    /// Returns the error of a failed reopen.
    pub fn resume_scanned(
        path: impl AsRef<std::path::Path>,
        scan: &ResumeScan,
    ) -> std::io::Result<Self> {
        Ok(CsvFileSink {
            out: FileWriter::reopen(path, &scan.keep_lines())?,
        })
    }

    /// Flushes and closes the sink, surfacing the first I/O error hit
    /// while recording.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, or the flush error.
    pub fn finish(self) -> std::io::Result<()> {
        self.out.finish()
    }
}

impl ResultSink for CsvFileSink {
    fn record(&mut self, entry: &BatchEntry) {
        let row = format!(
            "{},{},{}",
            entry.index,
            csv_escape(&entry.scenario.name),
            entry.report.csv_row()
        );
        self.out.write_line(&row);
    }
}

/// Splits one CSV row into unescaped fields, honouring [`csv_escape`]-style
/// quoting (a comma inside a quoted field does not split; `""` is an
/// escaped quote). Returns `None` if the row ends inside a quoted field —
/// i.e. it was truncated mid-write.
fn csv_fields(line: &str) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    if in_quotes {
        return None;
    }
    fields.push(current);
    Some(fields)
}

/// Cross-checks the rows recovered from a partially-written output file
/// against the batch a resumed sweep is about to run, so a resume under
/// different settings (an `--accesses` override, an edited scenario
/// document, the wrong output file) fails **before** the file is rewritten
/// instead of silently appending rows that were produced under other
/// settings than the recorded ones.
///
/// Checks, per recorded row: the index exists in the batch, the recorded
/// scenario name matches, and the recorded report's `total_accesses`
/// equals what the current scenario's workload materializes to (workloads
/// are materialized at most once per distinct `(spec, seed)` pair, the
/// same sharing rule the runner uses).
///
/// # Errors
///
/// Returns a `resume` [`ConfigError`] describing the first mismatch, or
/// the underlying validation error if a row's scenario is itself invalid.
pub fn verify_resume_rows(scenarios: &[Scenario], rows: &[RecordedRow]) -> Result<(), ConfigError> {
    let mut totals: Vec<(usize, u64)> = Vec::new();
    for row in rows {
        let Some(scenario) = scenarios.get(row.index) else {
            return Err(ConfigError::new(
                "resume",
                format!(
                    "output file records scenario index {} but the batch has only {} \
                     scenario(s) — resuming against the wrong file?",
                    row.index,
                    scenarios.len()
                ),
            ));
        };
        if scenario.name != row.scenario {
            return Err(ConfigError::new(
                "resume",
                format!(
                    "output row {} records scenario `{}` but the batch expects `{}` — was \
                     the scenario document edited since the file was written?",
                    row.index, row.scenario, scenario.name
                ),
            ));
        }
        scenario.validate()?;
        let expected = match totals.iter().find(|&&(i, _)| {
            scenarios[i].workload == scenario.workload && scenarios[i].seed == scenario.seed
        }) {
            Some(&(_, total)) => total,
            None => {
                // Trace replays answer from their header; generated specs
                // materialize once per distinct (spec, seed).
                let total = scenario
                    .workload
                    .total_accesses(scenario.seed)
                    .map_err(|e| ConfigError::new("resume", e))?;
                totals.push((row.index, total));
                total
            }
        };
        if expected != row.total_accesses {
            return Err(ConfigError::new(
                "resume",
                format!(
                    "output row {} (`{}`) records {} total accesses but the current \
                     settings produce {} — resumed with a different --accesses override \
                     or an edited workload?",
                    row.index, row.scenario, row.total_accesses, expected
                ),
            ));
        }
    }
    Ok(())
}

/// Quotes a CSV field if it contains a comma, quote or newline.
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The ordered results of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResults {
    /// Completed entries, in scenario order.
    pub entries: Vec<BatchEntry>,
}

impl BatchResults {
    /// The reports, in scenario order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.entries.iter().map(|e| &e.report)
    }

    /// Number of completed scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pairs adjacent baseline/ALLARM runs of the same configuration into
    /// [`Comparison`]s — the shape every per-benchmark figure consumes.
    ///
    /// Two consecutive entries form a pair when they differ *only* in
    /// allocation policy (baseline first), which is exactly how
    /// [`crate::ScenarioGrid`] orders its expansion (policy is the
    /// fastest-varying axis).
    pub fn paired(&self) -> Vec<Comparison> {
        let mut comparisons = Vec::new();
        let mut i = 0;
        while i + 1 < self.entries.len() {
            let a = &self.entries[i];
            let b = &self.entries[i + 1];
            if same_but_policy(&a.scenario, &b.scenario)
                && !a.scenario.policy.is_allarm()
                && b.scenario.policy.is_allarm()
            {
                comparisons.push(Comparison::new(a.report.clone(), b.report.clone()));
                i += 2;
            } else {
                i += 1;
            }
        }
        comparisons
    }
}

/// True if the two scenarios are identical apart from allocation policy
/// (and the name, which encodes the policy).
fn same_but_policy(a: &Scenario, b: &Scenario) -> bool {
    a.machine == b.machine
        && a.numa_policy == b.numa_policy
        && a.workload == b.workload
        && a.seed == b.seed
}

/// Executes scenario sets, optionally in parallel.
///
/// There is one way to run a batch: [`BatchRunner::run_with_sink`] streams
/// ordered entries into a [`ResultSink`], and [`BatchRunner::run`]
/// collects them. Everything else is a runner setting: the worker count,
/// fork verification ([`BatchRunner::with_verify_forks`]), mid-run
/// checkpoints ([`BatchRunner::with_checkpoint_every`]), the rows an
/// interrupted sweep already recorded ([`BatchRunner::with_completed`]),
/// a mid-run snapshot to continue ([`BatchRunner::with_restore`]) and a
/// cancel flag ([`BatchRunner::with_cancel`]).
///
/// # Examples
///
/// ```
/// use allarm_core::{AllocationPolicy, BatchRunner, Scenario, ScenarioGrid};
/// use allarm_workloads::Benchmark;
///
/// let grid = ScenarioGrid::new(
///         Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline)
///             .with_accesses(500))
///     .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm]);
/// let results = BatchRunner::new().run(&grid.expand()).unwrap();
/// assert_eq!(results.len(), 2);
/// let pairs = results.paired();
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].baseline.policy, "baseline");
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    num_threads: usize,
    verify_forks: bool,
    checkpoint: Option<CheckpointCfg>,
    completed: HashSet<usize>,
    restore: Option<Arc<SimSnapshot>>,
    cancel: Option<Arc<AtomicBool>>,
}

/// Mid-run checkpointing of a batch: the active run's full simulator state
/// is written (atomically) to `path` every `every` accesses.
#[derive(Debug, Clone)]
struct CheckpointCfg {
    every: u64,
    path: PathBuf,
}

impl BatchRunner {
    /// Creates a runner using every available hardware thread.
    pub fn new() -> Self {
        BatchRunner::with_threads(SimThreads::AUTO.resolve())
    }

    /// Creates a runner with an explicit worker count (clamped to ≥ 1).
    /// `with_threads(1)` is the serial runner.
    pub fn with_threads(num_threads: usize) -> Self {
        BatchRunner {
            num_threads: num_threads.max(1),
            verify_forks: false,
            checkpoint: None,
            completed: HashSet::new(),
            restore: None,
            cancel: None,
        }
    }

    /// The worker count this runner uses.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Returns a copy that re-runs every fork-from-warm scenario cold and
    /// asserts the forked report equals the cold one byte for byte — the
    /// CI equivalence gate. The batch's *recorded* rows are the forked
    /// ones either way; this only adds the cross-check (and its cost).
    pub fn with_verify_forks(mut self, verify: bool) -> Self {
        self.verify_forks = verify;
        self
    }

    /// Returns a copy that checkpoints the active run's simulator state to
    /// `path` each time its access total crosses a multiple of `every`
    /// (atomic overwrite, so an interruption always leaves the previous
    /// complete snapshot). Checkpointing forces **serial** execution — a
    /// single snapshot file identifies a single in-flight row — and
    /// disables fork-from-warm for the batch.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_checkpoint_every(mut self, every: u64, path: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint = Some(CheckpointCfg {
            every,
            path: path.into(),
        });
        self
    }

    /// Returns a copy that skips the scenarios whose indices are in
    /// `completed` — the resume path of an interrupted sweep. Skipped
    /// indices are neither executed nor re-recorded; the remaining entries
    /// still reach the sink in ascending index order. [`ResumeScan`]
    /// recovers the set from a partially-written output file.
    ///
    /// Completion is matched **by index**: a resumed run must use the same
    /// scenario set, in the same order, as the interrupted one (reordering
    /// the grid between runs silently pairs old rows with new scenarios).
    /// An index beyond the batch is rejected, which catches the common
    /// mistake of resuming against the wrong output file.
    pub fn with_completed(mut self, completed: HashSet<usize>) -> Self {
        self.completed = completed;
        self
    }

    /// Returns a copy that continues the row a batch checkpoint names
    /// ([`crate::SnapHeader::row_index`], see
    /// [`BatchRunner::with_checkpoint_every`]) from inside that row instead
    /// of starting it over — the `--restore` path of an interrupted sweep.
    /// Restoring forces serial execution, like checkpointing.
    ///
    /// [`BatchRunner::validate`] lists what the snapshot must match. A
    /// caller that also passes the completed rows of a partially-written
    /// output file should first cross-check the snapshot's cursor against
    /// those rows (`row_index == rows recorded`), and validate, **before**
    /// reopening the file.
    pub fn with_restore(mut self, snapshot: Arc<SimSnapshot>) -> Self {
        self.restore = Some(snapshot);
        self
    }

    /// Returns a copy that polls `cancel` **between grid rows**: once the
    /// flag reads true, no further scenario starts and the run ends
    /// [`RunOutcome::Cancelled`]. Rows already recorded are final (the
    /// sink saw the same ordered prefix a full run would have produced);
    /// rows in flight when the flag flips still finish computing but are
    /// only recorded if every earlier row is, so the sink never observes a
    /// gap. A row that is mid-simulation is *not* interrupted —
    /// cancellation granularity is the grid row, which keeps every
    /// recorded row byte-identical to an uncancelled run's.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Validates and runs every scenario, returning ordered results.
    ///
    /// # Errors
    ///
    /// As [`BatchRunner::run_with_sink`].
    pub fn run(&self, scenarios: &[Scenario]) -> Result<BatchResults, ConfigError> {
        let mut sink = VecSink::new();
        self.run_with_sink(scenarios, &mut sink)?;
        Ok(BatchResults {
            entries: sink.into_entries(),
        })
    }

    /// Validates and runs every pending scenario, streaming ordered entries
    /// into `sink`, and reports whether the cancel flag stopped the batch.
    ///
    /// # Errors
    ///
    /// Returns the first error of [`BatchRunner::validate`] — the sink is
    /// not touched unless validation passes — or a `checkpoint`
    /// [`ConfigError`] when a snapshot write failed (the sweep stops at
    /// that row, unrecorded).
    pub fn run_with_sink(
        &self,
        scenarios: &[Scenario],
        sink: &mut dyn ResultSink,
    ) -> Result<RunOutcome, ConfigError> {
        self.validate(scenarios)?;

        // Open each distinct (spec, seed) workload exactly once, in
        // scenario order, and share it across the batch. Scenarios already
        // completed by a resumed sweep never open one (None) — unless a
        // still-pending sibling shares the workload, in which case that
        // sibling does.
        let mut workloads: Vec<Option<WorkloadHandle>> = Vec::with_capacity(scenarios.len());
        for (index, scenario) in scenarios.iter().enumerate() {
            if self.completed.contains(&index) {
                workloads.push(None);
                continue;
            }
            let existing = (0..index).find(|&i| {
                workloads[i].is_some()
                    && scenarios[i].workload == scenario.workload
                    && scenarios[i].seed == scenario.seed
            });
            workloads.push(match existing {
                Some(i) => workloads[i].clone(),
                None => Some(WorkloadHandle::open(scenario)?),
            });
        }

        // Execute each warm-up group's shared prefix once and keep the
        // image in memory; members fork from it instead of replaying the
        // prefix. Checkpointed batches skip the optimisation — the
        // checkpoint stream of a run must describe that run from access
        // zero.
        let warm = if self.checkpoint.is_some() {
            vec![None; scenarios.len()]
        } else {
            self.plan_warm_images(scenarios, &workloads)
        };

        // Split the thread budget between scenario-level workers and the
        // intra-run shards each simulation will spawn: a batch of scenarios
        // that each shard 4-wide gets a quarter of the workers. Sizing by
        // the batch *maximum* is deliberately conservative — it can starve
        // a mixed batch's serial scenarios of workers, but never
        // oversubscribes the host. Neither level of parallelism affects
        // the results, only the wall clock.
        let max_sim_threads = scenarios
            .iter()
            .map(|s| s.sim_threads.resolve())
            .max()
            .unwrap_or(1)
            .max(1);
        let workers = if self.checkpoint.is_some() || self.restore.is_some() {
            1 // a single snapshot file identifies a single in-flight row
        } else {
            (self.num_threads / max_sim_threads).clamp(1, scenarios.len().max(1))
        };
        let pending_total = scenarios.len() - self.completed.len();
        if workers <= 1 {
            let mut recorded = 0usize;
            for (index, scenario) in scenarios.iter().enumerate() {
                let Some(workload) = &workloads[index] else {
                    continue; // already completed by the resumed sweep
                };
                if self.cancelled() {
                    return Ok(RunOutcome::Cancelled);
                }
                let report = self.run_row(index, scenario, workload, warm[index].as_deref())?;
                sink.record(&BatchEntry {
                    index,
                    scenario: scenario.clone(),
                    report,
                });
                recorded += 1;
            }
            return Ok(self.outcome(recorded, pending_total));
        }

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<SimReport, ConfigError>)>();
        let recorded = std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let workloads = &workloads;
                let warm = &warm;
                scope.spawn(move || loop {
                    // Cancellation is checked before a worker claims its
                    // next row; rows already claimed run to completion.
                    if self.cancelled() {
                        return;
                    }
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= scenarios.len() {
                        return;
                    }
                    let Some(workload) = &workloads[index] else {
                        continue; // already completed by the resumed sweep
                    };
                    let report =
                        self.run_row(index, &scenarios[index], workload, warm[index].as_deref());
                    // The receiver is gone only once the main thread
                    // stopped on a failed row (or panicked): stop too.
                    if tx.send((index, report)).is_err() {
                        return;
                    }
                });
            }
            drop(tx);

            // Buffer completions and flush the ready prefix in order, so the
            // sink sees the same sequence as a serial run; resumed indices
            // flush as no-ops. On cancellation an out-of-order straggler
            // whose predecessors never ran stays buffered and is dropped —
            // the sink only ever sees the gap-free prefix. A failed row
            // ends the batch there, like the serial loop.
            let mut pending: Vec<Option<Result<SimReport, ConfigError>>> =
                vec![None; scenarios.len()];
            let mut next_to_flush = 0;
            let mut recorded = 0usize;
            for (index, report) in rx {
                pending[index] = Some(report);
                while next_to_flush < pending.len() {
                    if self.completed.contains(&next_to_flush) {
                        next_to_flush += 1;
                        continue;
                    }
                    let Some(report) = pending[next_to_flush].take() else {
                        break;
                    };
                    sink.record(&BatchEntry {
                        index: next_to_flush,
                        scenario: scenarios[next_to_flush].clone(),
                        report: report?,
                    });
                    recorded += 1;
                    next_to_flush += 1;
                }
            }
            Ok(recorded)
        })?;
        Ok(self.outcome(recorded, pending_total))
    }

    /// Checks everything [`BatchRunner::run_with_sink`] checks before it
    /// touches the sink: every scenario validates (completed ones too — a
    /// resumed sweep must be the same sweep), every completed index exists
    /// in the batch, and a restore snapshot is a batch checkpoint naming a
    /// pending row whose scenario name matches and whose machine and
    /// policies (`snapshot.config_fingerprint`) and workload
    /// (`snapshot.workload_checksum`) it was taken from. A front end that
    /// rewrites an output file before running calls this first, so a
    /// refused run leaves the file untouched.
    ///
    /// # Errors
    ///
    /// Returns the first failing check: a scenario's own [`ConfigError`],
    /// a `resume` error for a stray completed index, a `restore` error for
    /// a snapshot that does not name a pending row of this batch, or the
    /// [`crate::Simulator::replay`] restore check's error.
    pub fn validate(&self, scenarios: &[Scenario]) -> Result<(), ConfigError> {
        for scenario in scenarios {
            scenario.validate()?;
        }
        if let Some(stray) = self.completed.iter().find(|&&i| i >= scenarios.len()) {
            return Err(ConfigError::new(
                "resume",
                format!(
                    "output file records scenario index {stray} but the batch has only {} \
                     scenario(s) — resuming against the wrong file?",
                    scenarios.len()
                ),
            ));
        }
        let Some(snap) = &self.restore else {
            return Ok(());
        };
        let header = snap.header();
        if !header.is_batch_checkpoint() {
            return Err(ConfigError::new(
                "restore",
                "the snapshot does not identify a batch row — was it written by \
                 --checkpoint-every?",
            ));
        }
        let index = header.row_index as usize;
        let Some(scenario) = scenarios.get(index) else {
            return Err(ConfigError::new(
                "restore",
                format!(
                    "the snapshot records scenario index {index} but the batch has only \
                     {} scenario(s) — restoring against the wrong snapshot?",
                    scenarios.len()
                ),
            ));
        };
        if self.completed.contains(&index) {
            return Err(ConfigError::new(
                "restore",
                format!(
                    "scenario index {index} is already recorded in the output — the \
                     snapshot is stale"
                ),
            ));
        }
        if header.scenario != scenario.name {
            return Err(ConfigError::new(
                "restore",
                format!(
                    "the snapshot was taken from scenario `{}` but index {index} of this \
                     batch is `{}` — was the scenario document edited?",
                    header.scenario, scenario.name
                ),
            ));
        }
        let workload = WorkloadHandle::open(scenario)?;
        scenario
            .build()?
            .check_start(workload.source(), Start::Restore(snap))
            .map(drop)
    }

    /// Plans fork-from-warm for a batch: groups the still-pending
    /// scenarios that can share a warm image (see [`same_warm_group`]),
    /// executes each group's shared prefix once, and returns the image
    /// every member forks from (`None`: run cold). The longest member
    /// hosts the warm-up run — the prefix must not exhaust its trace —
    /// and each member is admitted only if [`forkable`] proves the
    /// consumed prefix exists verbatim in its own workload; anything else
    /// falls back to a cold run, never to a wrong one.
    fn plan_warm_images(
        &self,
        scenarios: &[Scenario],
        workloads: &[Option<WorkloadHandle>],
    ) -> Vec<Option<Arc<SimSnapshot>>> {
        // Streaming handles never join a warm group: fork admission
        // compares raw access prefixes, which only materialized workloads
        // carry. A streaming scenario simply runs cold.
        let materialized = |j: usize| workloads[j].as_ref().and_then(WorkloadHandle::materialized);
        let mut warm: Vec<Option<Arc<SimSnapshot>>> = vec![None; scenarios.len()];
        let mut grouped = vec![false; scenarios.len()];
        for i in 0..scenarios.len() {
            if grouped[i] || materialized(i).is_none() || scenarios[i].warmup_accesses == 0 {
                continue;
            }
            let members: Vec<usize> = (i..scenarios.len())
                .filter(|&j| {
                    !grouped[j]
                        && materialized(j).is_some()
                        && same_warm_group(&scenarios[i], &scenarios[j])
                })
                .collect();
            for &j in &members {
                grouped[j] = true;
            }
            let &host = members
                .iter()
                .max_by_key(|&&j| materialized(j).expect("filtered above").total_accesses())
                .expect("the group contains at least scenario i");
            let host_workload = materialized(host).expect("filtered above");
            let warmup = scenarios[host].warmup_accesses;
            if warmup >= host_workload.total_accesses() as u64 {
                continue; // the warm-up would finish even the longest member: all run cold
            }
            // The warm image is the cold run's first checkpoint at the
            // warm-up length; if the workload finishes first (the
            // final-round edge), no checkpoint is taken and all run cold.
            let simulator = scenarios[host].build().expect("validated above");
            let mut image = None;
            simulator
                .replay((&**host_workload).into(), Start::Cold, warmup, |snap| {
                    image = Some(snap);
                    ControlFlow::Break(())
                })
                .expect("a cold start checks no snapshot");
            let Some(snap) = image.map(Arc::new) else {
                continue;
            };
            for &j in &members {
                if forkable(
                    &snap,
                    host_workload,
                    materialized(j).expect("filtered above"),
                ) {
                    warm[j] = Some(snap.clone());
                }
            }
        }
        warm
    }

    /// Runs one pending row — the one per-row path, which
    /// [`Scenario::run`] shares: restored from the runner's snapshot when
    /// it names this row, forked from its warm image when one applies,
    /// cold otherwise, and checkpointed when configured. Under
    /// [`BatchRunner::with_verify_forks`] a forked row additionally runs
    /// cold and the two reports are asserted byte-identical.
    ///
    /// # Errors
    ///
    /// Returns the restore check's [`ConfigError`], or a `checkpoint` one
    /// if a snapshot write failed (the run stops there and its report is
    /// discarded, so the sweep stops at a well-defined row).
    ///
    /// # Panics
    ///
    /// Panics when verify-forks finds a divergence (a kernel snapshot bug
    /// — the recorded result could not be trusted).
    pub(crate) fn run_row(
        &self,
        index: usize,
        scenario: &Scenario,
        workload: &WorkloadHandle,
        warm: Option<&SimSnapshot>,
    ) -> Result<SimReport, ConfigError> {
        let simulator = scenario.build()?;
        let restore = self
            .restore
            .as_deref()
            .filter(|snap| snap.header().row_index == index as u64);
        let start = match (restore, warm) {
            (Some(snap), _) => Start::Restore(snap),
            (None, Some(snap)) => Start::Fork(snap),
            (None, None) => Start::Cold,
        };
        let checkpoint = self.checkpoint.as_ref();
        let mut write_error = None;
        let every = checkpoint.map_or(0, |cfg| cfg.every);
        let report = simulator.replay(workload.source(), start, every, |snap| {
            let path = &checkpoint
                .expect("only a configured interval checkpoints")
                .path;
            match snap.with_row(index as u64, &scenario.name).write_to(path) {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => {
                    write_error = Some(ConfigError::new(
                        "checkpoint",
                        format!("failed to write snapshot `{}`: {e}", path.display()),
                    ));
                    ControlFlow::Break(())
                }
            }
        })?;
        if let Some(e) = write_error {
            return Err(e);
        }
        if self.verify_forks && matches!(start, Start::Fork(_)) {
            assert_eq!(
                report,
                simulator.run_source(workload.source()),
                "fork-from-warm diverged from the cold run for `{}`",
                scenario.name
            );
        }
        Ok(report)
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// A run under a cancel flag completed only if every pending row was
    /// recorded; the flag flipping *after* the last row is not a
    /// cancellation.
    fn outcome(&self, recorded: usize, pending_total: usize) -> RunOutcome {
        if self.cancelled() && recorded < pending_total {
            RunOutcome::Cancelled
        } else {
            RunOutcome::Completed
        }
    }
}

/// True if two scenarios can fork from one warm image: identical machine,
/// allocation and NUMA policies, seed and warm-up length, and workload
/// specs that differ at most in trace length — generated traces of the
/// same `(benchmark, threads, seed)` are exact prefixes of their longer
/// siblings, so the shared warm-up replays identical references for every
/// member (and [`forkable`] verifies exactly that before admitting one).
fn same_warm_group(a: &Scenario, b: &Scenario) -> bool {
    a.warmup_accesses == b.warmup_accesses
        && a.machine == b.machine
        && a.policy == b.policy
        && a.numa_policy == b.numa_policy
        && a.seed == b.seed
        && a.workload.with_accesses(0) == b.workload.with_accesses(0)
}

/// True if `workload` can fork from `snap` (taken while replaying `host`):
/// per thread, the consumed prefix must sit strictly inside the member's
/// own trace (`cursor < len`, so no thread sits exactly at an end the warm
/// run did not observe), be byte-identical to what the warm run actually
/// replayed, and keep the same core pinning. Anything else — including a
/// warm image whose host finished a thread — disqualifies the member.
fn forkable(snap: &SimSnapshot, host: &Workload, workload: &Workload) -> bool {
    let threads = &snap.state().threads;
    threads.len() == workload.threads.len()
        && threads.iter().all(|t| {
            let (Some(h), Some(w)) = (host.threads.get(t.thread), workload.threads.get(t.thread))
            else {
                return false;
            };
            !t.finished
                && t.cursor < w.accesses.len()
                && t.cursor <= h.accesses.len()
                && h.accesses[..t.cursor] == w.accesses[..t.cursor]
                && h.core == w.core
                && h.thread == w.thread
        })
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGrid;
    use allarm_coherence::AllocationPolicy;
    use allarm_workloads::Benchmark;
    use serde::Deserialize as _;

    fn tiny_grid() -> Vec<Scenario> {
        ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(400),
        )
        .benchmarks(vec![Benchmark::Barnes, Benchmark::Cholesky])
        .pf_coverages(vec![512 * 1024, 128 * 1024])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let scenarios = tiny_grid();
        assert_eq!(scenarios.len(), 8);
        let serial = BatchRunner::with_threads(1).run(&scenarios).unwrap();
        let parallel = BatchRunner::with_threads(4).run(&scenarios).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 8);
        // Ordered by scenario index.
        for (i, entry) in serial.entries.iter().enumerate() {
            assert_eq!(entry.index, i);
            assert_eq!(entry.scenario, scenarios[i]);
        }
    }

    #[test]
    fn paired_yields_one_comparison_per_configuration() {
        let results = BatchRunner::new().run(&tiny_grid()).unwrap();
        let pairs = results.paired();
        assert_eq!(pairs.len(), 4);
        for cmp in &pairs {
            assert_eq!(cmp.baseline.policy, "baseline");
            assert_eq!(cmp.allarm.policy, "allarm");
            assert_eq!(cmp.baseline.total_accesses, cmp.allarm.total_accesses);
        }
    }

    #[test]
    fn workloads_are_shared_not_regenerated() {
        // Both policies of one configuration must replay the identical
        // trace: total accesses match exactly.
        let scenarios = ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Dedup, AllocationPolicy::Baseline).with_accesses(300),
        )
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand();
        let results = BatchRunner::new().run(&scenarios).unwrap();
        assert_eq!(
            results.entries[0].report.total_accesses,
            results.entries[1].report.total_accesses
        );
    }

    #[test]
    fn invalid_scenario_fails_the_whole_batch_before_running() {
        let mut scenarios = tiny_grid();
        scenarios[3].machine.l2.ways = 0;
        let err = BatchRunner::new().run(&scenarios).unwrap_err();
        assert_eq!(err.field(), "l2.ways");
    }

    #[test]
    fn sinks_observe_ordered_entries() {
        let scenarios = tiny_grid();
        let mut sink = JsonlSink::new();
        BatchRunner::with_threads(4)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        let text = sink.into_string();
        assert_eq!(text.lines().count(), scenarios.len());
        // Lines carry the scenario identity and parse back as reports, in
        // scenario order.
        let first: serde::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("index"), Some(&serde::Value::U64(0)));
        assert_eq!(
            first.get("scenario"),
            Some(&serde::Value::Str(scenarios[0].name.clone()))
        );
        let report = SimReport::from_value(first.get("report").unwrap()).unwrap();
        assert_eq!(report.workload, "barnes");
        assert_eq!(report.policy, "baseline");
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(BatchRunner::with_threads(0).num_threads(), 1);
        assert!(BatchRunner::new().num_threads() >= 1);
    }

    #[test]
    fn file_sinks_stream_ordered_results_to_disk() {
        let scenarios = ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(300),
        )
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand();
        let dir = std::env::temp_dir().join(format!("allarm-sink-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("results.jsonl");
        let csv_path = dir.join("results.csv");

        let mut jsonl = JsonlFileSink::create(&jsonl_path).unwrap();
        BatchRunner::with_threads(2)
            .run_with_sink(&scenarios, &mut jsonl)
            .unwrap();
        jsonl.finish().unwrap();

        let mut csv = CsvFileSink::create(&csv_path).unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut csv)
            .unwrap();
        csv.finish().unwrap();

        // The JSONL file matches the in-memory sink byte for byte.
        let mut reference = JsonlSink::new();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut reference)
            .unwrap();
        let on_disk = std::fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(on_disk, reference.into_string());

        // The CSV file has a header plus one row per scenario, with the
        // scenario identity in the leading columns.
        let csv_text = std::fs::read_to_string(&csv_path).unwrap();
        let lines: Vec<&str> = csv_text.lines().collect();
        assert_eq!(lines.len(), scenarios.len() + 1);
        assert!(lines[0].starts_with("index,scenario,workload,policy,"));
        assert!(lines[1].starts_with("0,barnes/baseline,barnes,baseline,"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and rows must have the same arity"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_budget_is_split_with_intra_run_threads() {
        // A batch whose scenarios each shard 2-wide must still produce the
        // same results (the split is a scheduling decision, not a semantic
        // one).
        let scenarios: Vec<Scenario> = tiny_grid()
            .into_iter()
            .map(|s| s.with_sim_threads(2))
            .collect();
        let wide = BatchRunner::with_threads(4).run(&scenarios).unwrap();
        let narrow = BatchRunner::with_threads(1).run(&scenarios).unwrap();
        let plain = BatchRunner::with_threads(4).run(&tiny_grid()).unwrap();
        assert_eq!(wide.len(), narrow.len());
        for ((w, n), p) in wide.entries.iter().zip(&narrow.entries).zip(&plain.entries) {
            assert_eq!(w.report, n.report);
            // sim_threads never changes the report itself.
            assert_eq!(w.report, p.report);
        }
    }

    #[test]
    fn resumed_jsonl_sweep_skips_recorded_indices_and_matches_a_full_run() {
        let scenarios = tiny_grid();
        let dir = std::env::temp_dir().join(format!("allarm-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");

        // The reference: the full sweep in one go.
        let mut reference = JsonlSink::new();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut reference)
            .unwrap();
        let reference = reference.into_string();

        // An "interrupted" sweep: the first three complete lines plus a
        // truncated fourth, as a crash mid-write would leave.
        let prefix: String = reference
            .lines()
            .take(3)
            .map(|l| format!("{l}\n"))
            .collect();
        let truncated = &reference.lines().nth(3).unwrap()[..20];
        std::fs::write(&path, format!("{prefix}{truncated}")).unwrap();

        let scan = JsonlFileSink::scan(&path).unwrap();
        let mut sink = JsonlFileSink::resume_scanned(&path, &scan).unwrap();
        let completed = scan.completed();
        assert_eq!(completed, HashSet::from([0, 1, 2]));
        BatchRunner::with_threads(2)
            .with_completed(completed)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        sink.finish().unwrap();

        // The resumed file is byte-identical to the uninterrupted sweep:
        // the truncated line is gone, indices 0-2 were not re-run, 3-7
        // were appended in order.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_csv_sweep_completes_the_remaining_rows() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(4).collect();
        let dir = std::env::temp_dir().join(format!("allarm-resume-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.csv");

        let mut full = CsvFileSink::create(&path).unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut full)
            .unwrap();
        full.finish().unwrap();
        let reference = std::fs::read_to_string(&path).unwrap();

        // Keep the header and two rows; chop the third row mid-field.
        let keep: Vec<&str> = reference.lines().take(3).collect();
        let broken = &reference.lines().nth(3).unwrap()[..5];
        std::fs::write(&path, format!("{}\n{broken}", keep.join("\n"))).unwrap();

        let scan = CsvFileSink::scan(&path).unwrap();
        let mut sink = CsvFileSink::resume_scanned(&path, &scan).unwrap();
        let completed = scan.completed();
        assert_eq!(completed, HashSet::from([0, 1]));
        BatchRunner::with_threads(1)
            .with_completed(completed)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_missing_or_fresh_files_starts_from_scratch() {
        let dir = std::env::temp_dir().join(format!("allarm-resume-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scan = JsonlFileSink::scan(dir.join("missing.jsonl")).unwrap();
        assert!(scan.completed().is_empty());
        let jsonl = JsonlFileSink::resume_scanned(dir.join("missing.jsonl"), &scan).unwrap();
        jsonl.finish().unwrap();
        let scan = CsvFileSink::scan(dir.join("missing.csv")).unwrap();
        assert!(scan.completed().is_empty());
        let csv = CsvFileSink::resume_scanned(dir.join("missing.csv"), &scan).unwrap();
        csv.finish().unwrap();
        // The fresh CSV still gets its header.
        let text = std::fs::read_to_string(dir.join("missing.csv")).unwrap();
        assert!(text.starts_with("index,scenario,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_escape_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_field_count_honours_quoting() {
        assert_eq!(csv_fields("a,b,c").map(|f| f.len()), Some(3));
        assert_eq!(csv_fields("0,\"a,b\",c").map(|f| f.len()), Some(3));
        assert_eq!(
            csv_fields("0,\"say \"\"hi\"\",now\",c").map(|f| f.len()),
            Some(3)
        );
        // Truncated inside a quoted field.
        assert_eq!(csv_fields("0,\"a,b"), None);
        assert_eq!(csv_fields("").map(|f| f.len()), Some(1));
    }

    #[test]
    fn csv_resume_handles_comma_bearing_scenario_names() {
        let mut scenarios: Vec<Scenario> = tiny_grid().into_iter().take(3).collect();
        for (i, s) in scenarios.iter_mut().enumerate() {
            s.name = format!("swept, point {i}");
        }
        let dir = std::env::temp_dir().join(format!("allarm-resume-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quoted.csv");

        let mut full = CsvFileSink::create(&path).unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut full)
            .unwrap();
        full.finish().unwrap();
        let reference = std::fs::read_to_string(&path).unwrap();

        // Truncate the second row inside its quoted name field.
        let keep: Vec<&str> = reference.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n1,\"swept", keep.join("\n"))).unwrap();
        let scan = CsvFileSink::scan(&path).unwrap();
        let mut sink = CsvFileSink::resume_scanned(&path, &scan).unwrap();
        let completed = scan.completed();
        assert_eq!(completed, HashSet::from([0]));
        BatchRunner::with_threads(1)
            .with_completed(completed)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_rows_quote_comma_bearing_workload_names() {
        // A trace replay's workload name comes from its header, and a text
        // trace's `name` directive may hold commas.
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(1).collect();
        let mut results = BatchRunner::with_threads(1).run(&scenarios).unwrap();
        let mut entry = results.entries.remove(0);
        entry.report.workload = "black,scholes".to_string();
        let dir = std::env::temp_dir().join(format!("allarm-csv-name-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("named.csv");

        let mut sink = CsvFileSink::create(&path).unwrap();
        sink.record(&entry);
        sink.finish().unwrap();
        let scan = CsvFileSink::scan(&path).unwrap();
        assert_eq!(scan.completed(), HashSet::from([0]));
        assert_eq!(scan.rows()[0].scenario, entry.scenario.name);
        assert_eq!(scan.rows()[0].total_accesses, entry.report.total_accesses);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_truncated_inside_the_final_field_are_dropped() {
        // A crash mid-write of the last numeric column loses no comma, so
        // column counting alone cannot see it — the missing trailing
        // newline is what gives it away.
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let dir = std::env::temp_dir().join(format!("allarm-resume-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.csv");

        let mut full = CsvFileSink::create(&path).unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut full)
            .unwrap();
        full.finish().unwrap();
        let reference = std::fs::read_to_string(&path).unwrap();

        // Chop the final row three characters short, keeping every comma.
        let chopped = &reference[..reference.len() - 3];
        assert_eq!(chopped.lines().count(), reference.lines().count());
        std::fs::write(&path, chopped).unwrap();

        let scan = CsvFileSink::scan(&path).unwrap();
        let mut sink = CsvFileSink::resume_scanned(&path, &scan).unwrap();
        let completed = scan.completed();
        assert_eq!(completed, HashSet::from([0]));
        BatchRunner::with_threads(1)
            .with_completed(completed)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);

        // Same property for JSONL.
        let jsonl_path = dir.join("tail.jsonl");
        let mut full = JsonlFileSink::create(&jsonl_path).unwrap();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut full)
            .unwrap();
        full.finish().unwrap();
        let reference = std::fs::read_to_string(&jsonl_path).unwrap();
        std::fs::write(&jsonl_path, &reference[..reference.len() - 2]).unwrap();
        let scan = JsonlFileSink::scan(&jsonl_path).unwrap();
        let sink = JsonlFileSink::resume_scanned(&jsonl_path, &scan).unwrap();
        assert_eq!(scan.completed(), HashSet::from([0]));
        sink.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_recovers_row_identities_without_touching_the_file() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let dir = std::env::temp_dir().join(format!("allarm-scan-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, scan) in [("scan.jsonl", false), ("scan.csv", true)] {
            let path = dir.join(name);
            if scan {
                let mut sink = CsvFileSink::create(&path).unwrap();
                BatchRunner::with_threads(1)
                    .run_with_sink(&scenarios, &mut sink)
                    .unwrap();
                sink.finish().unwrap();
            } else {
                let mut sink = JsonlFileSink::create(&path).unwrap();
                BatchRunner::with_threads(1)
                    .run_with_sink(&scenarios, &mut sink)
                    .unwrap();
                sink.finish().unwrap();
            }
            let before = std::fs::read_to_string(&path).unwrap();
            let result = if scan {
                CsvFileSink::scan(&path).unwrap()
            } else {
                JsonlFileSink::scan(&path).unwrap()
            };
            // The file is untouched by scanning.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
            assert_eq!(result.rows().len(), 2);
            assert_eq!(result.completed(), HashSet::from([0, 1]));
            for (row, scenario) in result.rows().iter().zip(&scenarios) {
                assert_eq!(row.scenario, scenario.name);
                assert_eq!(
                    row.total_accesses,
                    scenario.workload().total_accesses() as u64
                );
            }
            // And the recovered rows verify against the batch they came
            // from.
            verify_resume_rows(&scenarios, result.rows()).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_resume_rows_rejects_changed_access_counts() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let rows = vec![RecordedRow {
            index: 0,
            scenario: scenarios[0].name.clone(),
            total_accesses: scenarios[0].workload().total_accesses() as u64,
        }];
        verify_resume_rows(&scenarios, &rows).unwrap();

        // The same file resumed after an `--accesses`-style override: the
        // recorded volume no longer matches what the spec would produce.
        let overridden: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_accesses(99))
            .collect();
        let err = verify_resume_rows(&overridden, &rows).unwrap_err();
        assert_eq!(err.field(), "resume");
        assert!(err.reason().contains("total accesses"), "{err}");
    }

    #[test]
    fn verify_resume_rows_rejects_renamed_scenarios_and_stray_indices() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let err = verify_resume_rows(
            &scenarios,
            &[RecordedRow {
                index: 0,
                scenario: "someone-else/baseline".into(),
                total_accesses: 1,
            }],
        )
        .unwrap_err();
        assert!(err.reason().contains("edited"), "{err}");

        let err = verify_resume_rows(
            &scenarios,
            &[RecordedRow {
                index: 9,
                scenario: "x".into(),
                total_accesses: 1,
            }],
        )
        .unwrap_err();
        assert!(err.reason().contains("wrong file"), "{err}");
    }

    #[test]
    fn files_recorded_by_other_builds_are_refused_untouched() {
        let dir = std::env::temp_dir().join(format!("allarm-schema-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A CSV with an older/foreign column header: scan must refuse
        // (resuming would silently truncate its rows) and not modify it.
        let csv_path = dir.join("old.csv");
        let old_csv =
            "index,scenario,workload,policy,runtime_ns\n0,barnes/baseline,barnes,baseline,12\n";
        std::fs::write(&csv_path, old_csv).unwrap();
        let err = CsvFileSink::scan(&csv_path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), old_csv);

        // A JSONL row whose report lacks fields of the current schema:
        // same refusal, file untouched.
        let jsonl_path = dir.join("old.jsonl");
        let old_jsonl =
            "{\"index\":0,\"scenario\":\"barnes/baseline\",\"report\":{\"total_accesses\":5}}\n";
        std::fs::write(&jsonl_path, old_jsonl).unwrap();
        let err = JsonlFileSink::scan(&jsonl_path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), old_jsonl);

        // An empty existing file still scans as fresh.
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "").unwrap();
        assert!(CsvFileSink::scan(&empty).unwrap().rows().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_fields_unescapes_quoted_names() {
        assert_eq!(
            csv_fields("0,\"say \"\"hi\"\",now\",c").unwrap(),
            vec!["0", "say \"hi\",now", "c"]
        );
        assert_eq!(csv_fields("a,b").unwrap(), vec!["a", "b"]);
        assert_eq!(csv_fields("0,\"open"), None);
    }

    #[test]
    fn jsonl_line_matches_the_sink_encoding() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(1).collect();
        let results = BatchRunner::with_threads(1).run(&scenarios).unwrap();
        let mut sink = JsonlSink::new();
        sink.record(&results.entries[0]);
        assert_eq!(
            sink.into_string(),
            format!("{}\n", results.entries[0].jsonl_line())
        );
    }

    #[test]
    fn cancel_before_the_first_row_records_nothing() {
        let scenarios = tiny_grid();
        let cancel = Arc::new(AtomicBool::new(true));
        for threads in [1, 4] {
            let mut sink = VecSink::new();
            let outcome = BatchRunner::with_threads(threads)
                .with_cancel(cancel.clone())
                .run_with_sink(&scenarios, &mut sink)
                .unwrap();
            assert_eq!(outcome, RunOutcome::Cancelled);
            assert!(sink.into_entries().is_empty());
        }
    }

    #[test]
    fn unset_cancel_flag_completes_identically_to_a_plain_run() {
        let scenarios = tiny_grid();
        let reference = BatchRunner::with_threads(4).run(&scenarios).unwrap();
        let cancel = Arc::new(AtomicBool::new(false));
        let mut sink = VecSink::new();
        let outcome = BatchRunner::with_threads(4)
            .with_cancel(cancel)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(sink.into_entries(), reference.entries);
    }

    #[test]
    fn mid_batch_cancellation_records_a_gap_free_identical_prefix() {
        let scenarios = tiny_grid();
        let reference = BatchRunner::with_threads(1).run(&scenarios).unwrap();

        /// Flips the cancel flag after the second record reaches the sink.
        struct TrippingSink<'a> {
            entries: Vec<BatchEntry>,
            cancel: &'a AtomicBool,
        }
        impl ResultSink for TrippingSink<'_> {
            fn record(&mut self, entry: &BatchEntry) {
                self.entries.push(entry.clone());
                if self.entries.len() == 2 {
                    self.cancel.store(true, Ordering::Relaxed);
                }
            }
        }

        // Serial execution is fully deterministic: exactly the two rows
        // recorded before the flag flipped, then a clean stop.
        let cancel = Arc::new(AtomicBool::new(false));
        let mut sink = TrippingSink {
            entries: Vec::new(),
            cancel: &cancel,
        };
        let outcome = BatchRunner::with_threads(1)
            .with_cancel(cancel.clone())
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        assert_eq!(outcome, RunOutcome::Cancelled);
        assert_eq!(sink.entries.as_slice(), &reference.entries[..2]);

        // Parallel execution may let in-flight rows finish (cancellation is
        // checked before each claim), but whatever is recorded must be a
        // gap-free byte-identical prefix, with the outcome matching.
        let cancel = Arc::new(AtomicBool::new(false));
        let mut sink = TrippingSink {
            entries: Vec::new(),
            cancel: &cancel,
        };
        let outcome = BatchRunner::with_threads(4)
            .with_cancel(cancel.clone())
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        assert!(sink.entries.len() >= 2);
        assert_eq!(
            sink.entries.as_slice(),
            &reference.entries[..sink.entries.len()]
        );
        assert_eq!(
            outcome,
            if sink.entries.len() < scenarios.len() {
                RunOutcome::Cancelled
            } else {
                RunOutcome::Completed
            }
        );
    }

    /// A warm-fork grid: two trace lengths under both policies, sharing
    /// one warm-up prefix per policy.
    fn warm_grid() -> Vec<Scenario> {
        ScenarioGrid::new(Scenario::quick_test(
            Benchmark::Barnes,
            AllocationPolicy::Baseline,
        ))
        .accesses(vec![300, 500])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .warmup(800)
        .expand()
    }

    #[test]
    fn fork_from_warm_reports_are_byte_identical_to_cold_runs() {
        let scenarios = warm_grid();
        assert_eq!(scenarios.len(), 4);
        // Every grid point actually gets a warm image (the planner did
        // not silently fall back cold).
        let runner = BatchRunner::with_threads(1);
        let workloads: Vec<Option<WorkloadHandle>> = scenarios
            .iter()
            .map(|s| Some(WorkloadHandle::Materialized(Arc::new(s.workload()))))
            .collect();
        let warm = runner.plan_warm_images(&scenarios, &workloads);
        assert!(warm.iter().all(Option::is_some), "a member fell back cold");
        // Each policy forms its own group: baseline points share one
        // image, ALLARM points another.
        assert!(Arc::ptr_eq(
            warm[0].as_ref().unwrap(),
            warm[2].as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(
            warm[1].as_ref().unwrap(),
            warm[3].as_ref().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            warm[0].as_ref().unwrap(),
            warm[1].as_ref().unwrap()
        ));

        // The forked sweep equals the cold sweep byte for byte — asserted
        // internally by verify-forks and externally against a run with
        // the warm-up hint stripped.
        let forked = runner
            .clone()
            .with_verify_forks(true)
            .run(&scenarios)
            .unwrap();
        let cold_scenarios: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_warmup_accesses(0))
            .collect();
        let cold = BatchRunner::with_threads(1).run(&cold_scenarios).unwrap();
        for (f, c) in forked.entries.iter().zip(&cold.entries) {
            assert_eq!(f.report, c.report, "{} diverged", f.scenario.name);
        }
    }

    #[test]
    fn text_trace_accesses_axis_forks_from_warm() {
        use allarm_workloads::{tracefile, TraceFormat, WorkloadSpec};
        // A text replay is materialized, so points that differ only in
        // their `limit` share a warm group, as generated workloads do.
        let dir = std::env::temp_dir().join(format!("allarm-warm-text-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.txt");
        let mut base =
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(600);
        let recorded = base.workload();
        tracefile::write_trace_file(&path, &recorded, TraceFormat::Text).unwrap();
        base.workload = WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::Text);
        let scenarios = ScenarioGrid::new(base)
            .accesses(vec![300, 500])
            .warmup(800)
            .expand();
        let runner = BatchRunner::with_threads(1);
        let workloads: Vec<Option<WorkloadHandle>> = scenarios
            .iter()
            .map(|s| Some(WorkloadHandle::open(s).unwrap()))
            .collect();
        let warm = runner.plan_warm_images(&scenarios, &workloads);
        assert!(warm.iter().all(Option::is_some), "a member fell back cold");
        assert!(Arc::ptr_eq(
            warm[0].as_ref().unwrap(),
            warm[1].as_ref().unwrap()
        ));

        let forked = runner.with_verify_forks(true).run(&scenarios).unwrap();
        let cold_scenarios: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_warmup_accesses(0))
            .collect();
        let cold = BatchRunner::with_threads(1).run(&cold_scenarios).unwrap();
        let lines = |results: &BatchResults| -> Vec<String> {
            results.entries.iter().map(BatchEntry::jsonl_line).collect()
        };
        assert_eq!(lines(&forked), lines(&cold));
        // Each point replayed its own prefix of the file.
        for (entry, per_thread) in forked.entries.iter().zip([300, 500]) {
            assert_eq!(
                entry.report.total_accesses as usize,
                per_thread * recorded.threads.len()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_warmups_fall_back_to_cold_runs() {
        // A warm-up longer than every member's trace cannot be honoured;
        // the batch must still complete, cold and correct.
        let scenarios: Vec<Scenario> = warm_grid()
            .into_iter()
            .map(|s| s.with_warmup_accesses(1_000_000))
            .collect();
        let runner = BatchRunner::with_threads(1);
        let workloads: Vec<Option<WorkloadHandle>> = scenarios
            .iter()
            .map(|s| Some(WorkloadHandle::Materialized(Arc::new(s.workload()))))
            .collect();
        let warm = runner.plan_warm_images(&scenarios, &workloads);
        assert!(warm.iter().all(Option::is_none));
        let results = runner.run(&scenarios).unwrap();
        let cold: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_warmup_accesses(0))
            .collect();
        let reference = BatchRunner::with_threads(1).run(&cold).unwrap();
        for (f, c) in results.entries.iter().zip(&reference.entries) {
            assert_eq!(f.report, c.report);
        }
    }

    #[test]
    fn checkpointed_sweeps_restore_mid_run_and_match_a_full_run() {
        let scenarios = ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(300),
        )
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand();
        let dir = std::env::temp_dir().join(format!("allarm-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl_path = dir.join("sweep.jsonl");
        let snap_path = dir.join("sweep.jsonl.snap");

        // Reference: the full sweep, no checkpointing.
        let mut reference = JsonlSink::new();
        BatchRunner::with_threads(1)
            .run_with_sink(&scenarios, &mut reference)
            .unwrap();
        let reference = reference.into_string();

        // A checkpointed sweep records identical rows and leaves the last
        // row's snapshot on disk.
        let mut sink = JsonlFileSink::create(&jsonl_path).unwrap();
        BatchRunner::with_threads(1)
            .with_checkpoint_every(900, &snap_path)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), reference);
        let last = SimSnapshot::read_from(&snap_path).unwrap();
        assert_eq!(last.header().row_index, 1);
        assert_eq!(last.header().scenario, scenarios[1].name);

        // Emulate an interruption during row 1: the output holds row 0,
        // the snapshot holds row 1 mid-run. Restoring and resuming must
        // finish the file byte-identical to the uninterrupted sweep.
        std::fs::write(
            &jsonl_path,
            format!("{}\n", reference.lines().next().unwrap()),
        )
        .unwrap();
        let snap = Arc::new(first_checkpoint(&scenarios[1], 900).with_row(1, &scenarios[1].name));
        let scan = JsonlFileSink::scan(&jsonl_path).unwrap();
        verify_resume_rows(&scenarios, scan.rows()).unwrap();
        assert_eq!(snap.header().row_index as usize, scan.rows().len());
        let runner = BatchRunner::with_threads(1)
            .with_completed(scan.completed())
            .with_restore(snap);
        runner.validate(&scenarios).unwrap();
        let mut sink = JsonlFileSink::resume_scanned(&jsonl_path, &scan).unwrap();
        runner.run_with_sink(&scenarios, &mut sink).unwrap();
        sink.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_snapshots_that_do_not_name_a_pending_row() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let plain = first_checkpoint(&scenarios[0], 900);
        let runner = BatchRunner::with_threads(1);
        let mut sink = VecSink::new();
        let mut refuse = |runner: BatchRunner| {
            let err = runner.validate(&scenarios).unwrap_err();
            assert_eq!(
                runner.run_with_sink(&scenarios, &mut sink),
                Err(err.clone())
            );
            err
        };

        // Not a batch checkpoint at all.
        let err = refuse(runner.clone().with_restore(Arc::new(plain.clone())));
        assert_eq!(err.field(), "restore");
        assert!(err.reason().contains("checkpoint-every"), "{err}");

        // Stale: the named row is already recorded.
        let tagged = Arc::new(plain.clone().with_row(0, &scenarios[0].name));
        let err = refuse(
            runner
                .clone()
                .with_completed(HashSet::from([0]))
                .with_restore(tagged),
        );
        assert!(err.reason().contains("stale"), "{err}");

        // Renamed: the snapshot's scenario is not the batch's at that
        // index.
        let renamed = Arc::new(plain.clone().with_row(0, "someone-else/baseline"));
        let err = refuse(runner.clone().with_restore(renamed));
        assert!(err.reason().contains("edited"), "{err}");

        // Out of range.
        let beyond = Arc::new(plain.clone().with_row(9, &scenarios[0].name));
        let err = refuse(runner.clone().with_restore(beyond));
        assert!(err.reason().contains("wrong snapshot"), "{err}");

        // The right row, but taken under another policy (scenario 1 is
        // scenario 0 under ALLARM): the fingerprint differs.
        let policy = Arc::new(plain.clone().with_row(1, &scenarios[1].name));
        let err = refuse(runner.clone().with_restore(policy));
        assert_eq!(err.field(), "snapshot.config_fingerprint", "{err}");

        // The right row and configuration, but another workload length:
        // the checksum differs.
        let shorter: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_accesses(300))
            .collect();
        let tagged = Arc::new(plain.clone().with_row(0, &scenarios[0].name));
        let err = runner
            .clone()
            .with_restore(tagged)
            .validate(&shorter)
            .unwrap_err();
        assert_eq!(err.field(), "snapshot.workload_checksum", "{err}");
        assert!(
            sink.into_entries().is_empty(),
            "the sink must stay untouched"
        );
    }

    /// The first checkpoint of `scenario`'s cold run at interval `every`.
    fn first_checkpoint(scenario: &Scenario, every: u64) -> SimSnapshot {
        let mut first = None;
        scenario
            .build()
            .unwrap()
            .replay((&scenario.workload()).into(), Start::Cold, every, |snap| {
                first = Some(snap);
                ControlFlow::Break(())
            })
            .unwrap();
        first.expect("the workload outlasts one interval")
    }

    #[test]
    fn resuming_against_the_wrong_file_is_rejected() {
        let scenarios: Vec<Scenario> = tiny_grid().into_iter().take(2).collect();
        let completed = HashSet::from([0usize, 7]);
        let mut sink = VecSink::new();
        let err = BatchRunner::with_threads(1)
            .with_completed(completed)
            .run_with_sink(&scenarios, &mut sink)
            .unwrap_err();
        assert_eq!(err.field(), "resume");
        assert!(sink.into_entries().is_empty());
    }
}
