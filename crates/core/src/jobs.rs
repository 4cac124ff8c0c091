//! The job subsystem: a library-owned scheduler over the [`BatchRunner`].
//!
//! Until now only the `scenario_run` binary drove batches; serving
//! simulations to concurrent clients needs the *library* to own the
//! runner. A [`JobScheduler`] accepts validated scenario sets as **jobs**,
//! applies admission control (a bounded queue — work beyond
//! [`SchedulerConfig::max_queue_depth`] is rejected with a typed
//! [`SubmitError::QueueFull`] instead of growing memory without bound),
//! and executes them on a fixed pool of worker threads, each feeding a
//! [`BatchRunner`] with a per-job `sim_threads` budget.
//!
//! Results stream: every completed grid row is encoded as one JSONL line —
//! the exact [`BatchEntry::jsonl_line`] bytes the file sinks write, so a
//! job's streamed output is byte-identical to `scenario_run --output` on
//! the same document — and appended to the job's in-memory row log, where
//! [`JobScheduler::wait_rows`] readers block until new rows land or the
//! job reaches a terminal state. Jobs can be cancelled between grid rows
//! ([`JobScheduler::cancel`]); rows recorded before the cancellation are
//! final.
//!
//! The scheduler is `Arc`-shared and fully thread-safe; the HTTP layer in
//! `crates/server` is one front door, in-process embedding is another.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use allarm_types::error::ConfigError;

use crate::batch::{BatchEntry, BatchRunner, ResultSink, RunOutcome};
use crate::scenario::{Scenario, SimThreads};

/// Identifies one submitted job. Ids are small integers assigned in
/// submission order and never reused within a scheduler's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the job's rows.
    Running,
    /// Every row completed and was recorded.
    Done,
    /// The run aborted with an error (see [`JobStatus::error`]).
    Failed,
    /// Cancelled before every row completed; recorded rows are final.
    Cancelled,
}

impl JobState {
    /// The lowercase wire name of the state (`"queued"`, `"running"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A point-in-time snapshot of one job's progress.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job's id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Rows recorded so far (== rows streamable right now).
    pub rows_completed: usize,
    /// Rows the job's document expands to.
    pub rows_total: usize,
    /// The failure reason, when `state` is [`JobState::Failed`].
    pub error: Option<String>,
}

/// Sizing of a [`JobScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads, i.e. jobs executing concurrently. `0` starts no
    /// workers — jobs queue forever — which makes admission-control and
    /// queued-cancellation behaviour deterministic under test.
    pub workers: usize,
    /// The thread budget handed to each job's [`BatchRunner`] (split
    /// between scenario-level parallelism and per-run `sim_threads`
    /// shards; `0` means all available hardware threads). Results are
    /// byte-identical for every value.
    pub sim_threads_per_job: usize,
    /// Jobs allowed to sit in the queue (excluding running ones); a
    /// submission beyond this depth is rejected with
    /// [`SubmitError::QueueFull`].
    pub max_queue_depth: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            sim_threads_per_job: 1,
            max_queue_depth: 16,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// A scenario in the set failed validation.
    Invalid(ConfigError),
    /// The queue already holds `max_queue_depth` jobs — the typed
    /// 429-style signal; retry after a queued job drains.
    QueueFull {
        /// The configured depth that was reached.
        depth: usize,
    },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "{e}"),
            SubmitError::QueueFull { depth } => {
                write!(f, "job queue is full ({depth} job(s) queued) — retry later")
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

/// A batch of result rows returned by [`JobScheduler::wait_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowsChunk {
    /// JSONL lines (no trailing newline each), in grid-row order,
    /// starting at the `from` index the caller passed.
    pub rows: Vec<String>,
    /// The job's state when the snapshot was taken.
    pub state: JobState,
    /// True once the job is terminal *and* every recorded row has been
    /// returned — the stream is over.
    pub done: bool,
}

/// Aggregate counters for the `/metrics` endpoint (and anyone else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerMetrics {
    /// Jobs currently queued.
    pub jobs_queued: usize,
    /// Jobs currently running.
    pub jobs_running: usize,
    /// Jobs that completed every row.
    pub jobs_done: usize,
    /// Jobs that failed.
    pub jobs_failed: usize,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: usize,
    /// Submissions rejected by admission control.
    pub jobs_rejected_total: u64,
    /// Grid rows recorded across all jobs, ever.
    pub rows_completed_total: u64,
}

struct Job {
    scenarios: Arc<[Scenario]>,
    state: JobState,
    rows: Vec<Arc<str>>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
}

struct Inner {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    shutdown: bool,
    rows_completed_total: u64,
    jobs_rejected_total: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Wakes idle workers when work arrives or shutdown is flagged.
    work: Condvar,
    /// Wakes row streamers and status pollers on any job progress.
    progress: Condvar,
}

/// The scheduler: admission control, a job queue, and a worker pool that
/// feeds the [`BatchRunner`]. See the module docs for the full story.
///
/// # Examples
///
/// ```
/// use allarm_core::{AllocationPolicy, JobScheduler, JobState, Scenario, SchedulerConfig};
/// use allarm_workloads::Benchmark;
///
/// let scheduler = JobScheduler::start(SchedulerConfig::default());
/// let scenario = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm)
///     .with_accesses(500);
/// let id = scheduler.submit(vec![scenario]).unwrap();
/// let status = scheduler.wait_terminal(id).unwrap();
/// assert_eq!(status.state, JobState::Done);
/// assert_eq!(status.rows_completed, 1);
/// ```
pub struct JobScheduler {
    shared: Arc<Shared>,
    config: SchedulerConfig,
}

impl fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobScheduler")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl JobScheduler {
    /// Starts the scheduler: spawns `config.workers` worker threads (which
    /// idle on a condvar until jobs arrive) and returns the handle. The
    /// handle is cheap to share behind an [`Arc`].
    pub fn start(config: SchedulerConfig) -> Self {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                shutdown: false,
                rows_completed_total: 0,
                jobs_rejected_total: 0,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let runner_threads = config.sim_threads_per_job;
        for _ in 0..config.workers {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, runner_threads));
        }
        JobScheduler { shared, config }
    }

    /// The sizing this scheduler was started with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Validates and admits a job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] if any scenario fails validation (nothing
    /// is queued), [`SubmitError::QueueFull`] past the configured depth,
    /// [`SubmitError::ShuttingDown`] after [`JobScheduler::shutdown`].
    pub fn submit(&self, scenarios: Vec<Scenario>) -> Result<JobId, SubmitError> {
        for scenario in &scenarios {
            scenario.validate().map_err(SubmitError::Invalid)?;
        }
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.config.max_queue_depth {
            inner.jobs_rejected_total += 1;
            return Err(SubmitError::QueueFull {
                depth: self.config.max_queue_depth,
            });
        }
        let index = inner.jobs.len();
        inner.jobs.push(Job {
            scenarios: scenarios.into(),
            state: JobState::Queued,
            rows: Vec::new(),
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
        });
        inner.queue.push_back(index);
        self.shared.work.notify_one();
        Ok(JobId(index as u64))
    }

    /// A snapshot of one job's progress, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let inner = self.shared.inner.lock().unwrap();
        inner.jobs.get(id.0 as usize).map(|job| snapshot(id, job))
    }

    /// Requests cancellation and returns the resulting status, or `None`
    /// for an unknown id. A queued job is cancelled immediately; a running
    /// job stops **between grid rows** (rows already recorded stay valid,
    /// the in-flight row finishes computing but is only recorded if its
    /// predecessors all were); a terminal job is left as it ended.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let mut inner = self.shared.inner.lock().unwrap();
        let index = id.0 as usize;
        inner.jobs.get(index)?;
        let job = &mut inner.jobs[index];
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel.store(true, Ordering::Relaxed);
                inner.queue.retain(|&queued| queued != index);
                self.shared.progress.notify_all();
            }
            JobState::Running => job.cancel.store(true, Ordering::Relaxed),
            _ => {}
        }
        Some(snapshot(id, &inner.jobs[index]))
    }

    /// Blocks until the job has rows beyond `from` or is terminal, then
    /// returns the new rows and whether the stream is over. Returns `None`
    /// for an unknown id.
    ///
    /// Streaming a whole job is a loop:
    ///
    /// ```ignore
    /// let mut from = 0;
    /// loop {
    ///     let chunk = scheduler.wait_rows(id, from)?;
    ///     for row in &chunk.rows { writeln!(out, "{row}")?; }
    ///     from += chunk.rows.len();
    ///     if chunk.done { break; }
    /// }
    /// ```
    pub fn wait_rows(&self, id: JobId, from: usize) -> Option<RowsChunk> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            let job = inner.jobs.get(id.0 as usize)?;
            if job.rows.len() > from || job.state.is_terminal() {
                let rows: Vec<String> = job.rows[from.min(job.rows.len())..]
                    .iter()
                    .map(|r| r.to_string())
                    .collect();
                let state = job.state;
                return Some(RowsChunk {
                    done: state.is_terminal(),
                    rows,
                    state,
                });
            }
            inner = self.shared.progress.wait(inner).unwrap();
        }
    }

    /// Blocks until the job reaches a terminal state and returns its final
    /// status, or `None` for an unknown id.
    pub fn wait_terminal(&self, id: JobId) -> Option<JobStatus> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            let job = inner.jobs.get(id.0 as usize)?;
            if job.state.is_terminal() {
                return Some(snapshot(id, job));
            }
            inner = self.shared.progress.wait(inner).unwrap();
        }
    }

    /// Current aggregate counters.
    pub fn metrics(&self) -> SchedulerMetrics {
        let inner = self.shared.inner.lock().unwrap();
        let mut m = SchedulerMetrics {
            jobs_rejected_total: inner.jobs_rejected_total,
            rows_completed_total: inner.rows_completed_total,
            ..SchedulerMetrics::default()
        };
        for job in &inner.jobs {
            match job.state {
                JobState::Queued => m.jobs_queued += 1,
                JobState::Running => m.jobs_running += 1,
                JobState::Done => m.jobs_done += 1,
                JobState::Failed => m.jobs_failed += 1,
                JobState::Cancelled => m.jobs_cancelled += 1,
            }
        }
        m
    }

    /// Stops accepting submissions, flags every queued/running job for
    /// cancellation, and wakes the workers so they exit once their current
    /// row finishes. Idempotent.
    pub fn shutdown(&self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.shutdown = true;
        let queued: Vec<usize> = inner.queue.drain(..).collect();
        for index in queued {
            inner.jobs[index].state = JobState::Cancelled;
        }
        for job in &inner.jobs {
            job.cancel.store(true, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        self.shared.progress.notify_all();
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn snapshot(id: JobId, job: &Job) -> JobStatus {
    JobStatus {
        id,
        state: job.state,
        rows_completed: job.rows.len(),
        rows_total: job.scenarios.len(),
        error: job.error.clone(),
    }
}

/// The sink a worker hands its job's [`BatchRunner`]: each ordered row is
/// encoded once ([`BatchEntry::jsonl_line`]) and appended to the job's row
/// log under the scheduler lock, waking any streaming readers.
struct JobSink<'a> {
    shared: &'a Shared,
    index: usize,
}

impl ResultSink for JobSink<'_> {
    fn record(&mut self, entry: &BatchEntry) {
        let line: Arc<str> = entry.jsonl_line().into();
        let mut inner = self.shared.inner.lock().unwrap();
        inner.jobs[self.index].rows.push(line);
        inner.rows_completed_total += 1;
        self.shared.progress.notify_all();
    }
}

fn worker_loop(shared: &Shared, runner_threads: usize) {
    loop {
        // Claim the next queued job (or exit on shutdown).
        let (index, scenarios, cancel) = {
            let mut inner = shared.inner.lock().unwrap();
            loop {
                if inner.shutdown {
                    return;
                }
                if let Some(index) = inner.queue.pop_front() {
                    let job = &mut inner.jobs[index];
                    job.state = JobState::Running;
                    shared.progress.notify_all();
                    break (index, Arc::clone(&job.scenarios), Arc::clone(&job.cancel));
                }
                inner = shared.work.wait(inner).unwrap();
            }
        };

        let runner =
            BatchRunner::with_threads(SimThreads(runner_threads).resolve()).with_cancel(cancel);
        let mut sink = JobSink { shared, index };
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            runner
                .run_with_sink(&scenarios, &mut sink)
                .map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload)));

        let mut inner = shared.inner.lock().unwrap();
        let job = &mut inner.jobs[index];
        match result {
            Ok(RunOutcome::Completed) => job.state = JobState::Done,
            Ok(RunOutcome::Cancelled) => job.state = JobState::Cancelled,
            // The run panicked (a trace frame failing its checksum, say), or
            // failed: submit() validated everything, so that only happens
            // if e.g. a trace file vanished since admission.
            Err(e) => {
                job.state = JobState::Failed;
                job.error = Some(e);
            }
        }
        shared.progress.notify_all();
    }
}

/// A panic payload's message: the `String` of a formatted `panic!` or the
/// `&str` of a literal one.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("the run panicked", |s| s)
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchRunner, JsonlSink};
    use crate::scenario::ScenarioGrid;
    use allarm_coherence::AllocationPolicy;
    use allarm_workloads::Benchmark;

    fn small_grid(accesses: usize) -> Vec<Scenario> {
        ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline)
                .with_accesses(accesses),
        )
        .benchmarks(vec![Benchmark::Barnes, Benchmark::Cholesky])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand()
    }

    fn reference_jsonl(scenarios: &[Scenario]) -> String {
        let mut sink = JsonlSink::new();
        BatchRunner::with_threads(1)
            .run_with_sink(scenarios, &mut sink)
            .unwrap();
        sink.into_string()
    }

    #[test]
    fn a_job_streams_rows_byte_identical_to_the_file_sinks() {
        let scenarios = small_grid(400);
        let reference = reference_jsonl(&scenarios);
        let scheduler = JobScheduler::start(SchedulerConfig::default());
        let id = scheduler.submit(scenarios.clone()).unwrap();

        // Stream rows exactly as the HTTP layer would.
        let mut streamed = String::new();
        let mut from = 0;
        loop {
            let chunk = scheduler.wait_rows(id, from).unwrap();
            for row in &chunk.rows {
                streamed.push_str(row);
                streamed.push('\n');
            }
            from += chunk.rows.len();
            if chunk.done {
                assert_eq!(chunk.state, JobState::Done);
                break;
            }
        }
        assert_eq!(streamed, reference);

        let status = scheduler.status(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.rows_completed, scenarios.len());
        assert_eq!(status.rows_total, scenarios.len());
        assert_eq!(status.error, None);
    }

    #[test]
    fn concurrent_jobs_both_complete_under_the_thread_budget() {
        let a = small_grid(400);
        let mut b = small_grid(700);
        for s in &mut b {
            s.name = format!("b/{}", s.name);
        }
        let (ref_a, ref_b) = (reference_jsonl(&a), reference_jsonl(&b));
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 2,
            sim_threads_per_job: 1,
            max_queue_depth: 4,
        });
        let id_a = scheduler.submit(a).unwrap();
        let id_b = scheduler.submit(b).unwrap();
        assert_ne!(id_a, id_b);
        assert_eq!(scheduler.wait_terminal(id_a).unwrap().state, JobState::Done);
        assert_eq!(scheduler.wait_terminal(id_b).unwrap().state, JobState::Done);
        for (id, reference) in [(id_a, ref_a), (id_b, ref_b)] {
            let chunk = scheduler.wait_rows(id, 0).unwrap();
            let streamed: String = chunk.rows.iter().map(|r| format!("{r}\n")).collect();
            assert_eq!(streamed, reference);
        }
        let m = scheduler.metrics();
        assert_eq!(m.jobs_done, 2);
        assert_eq!(m.rows_completed_total, 8);
    }

    #[test]
    fn admission_control_rejects_past_the_configured_depth() {
        // workers: 0 keeps everything queued, so the depth check is
        // deterministic.
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 0,
            sim_threads_per_job: 1,
            max_queue_depth: 2,
        });
        let one = || vec![small_grid(300).remove(0)];
        scheduler.submit(one()).unwrap();
        scheduler.submit(one()).unwrap();
        let err = scheduler.submit(one()).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { depth: 2 });
        assert!(err.to_string().contains("queue is full"), "{err}");
        let m = scheduler.metrics();
        assert_eq!(m.jobs_queued, 2);
        assert_eq!(m.jobs_rejected_total, 1);

        // Cancelling a queued job frees its slot.
        scheduler.cancel(JobId(0)).unwrap();
        assert_eq!(
            scheduler.status(JobId(0)).unwrap().state,
            JobState::Cancelled
        );
        scheduler.submit(one()).unwrap();
    }

    #[test]
    fn invalid_scenarios_are_rejected_before_queueing() {
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        let mut bad = small_grid(300);
        bad[1].machine.l2.ways = 0;
        let err = scheduler.submit(bad).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        assert_eq!(scheduler.metrics().jobs_queued, 0);
        assert_eq!(scheduler.status(JobId(0)), None);
    }

    #[test]
    fn cancelling_a_running_job_stops_between_rows() {
        // A single worker and a job with many modest rows: cancel as soon
        // as the first row lands, then check the job ends Cancelled with a
        // correct prefix recorded (or, in the worst scheduling case, Done
        // — but never Failed, and never with corrupt rows).
        let scenarios: Vec<Scenario> = ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline)
                .with_accesses(4_000),
        )
        .benchmarks(vec![
            Benchmark::Barnes,
            Benchmark::Cholesky,
            Benchmark::Dedup,
            Benchmark::X264,
        ])
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .expand();
        let reference = reference_jsonl(&scenarios);
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 1,
            sim_threads_per_job: 1,
            max_queue_depth: 4,
        });
        let id = scheduler.submit(scenarios).unwrap();
        let first = scheduler.wait_rows(id, 0).unwrap();
        assert!(!first.rows.is_empty());
        scheduler.cancel(id).unwrap();
        let status = scheduler.wait_terminal(id).unwrap();
        assert!(
            matches!(status.state, JobState::Cancelled | JobState::Done),
            "{:?}",
            status.state
        );
        let chunk = scheduler.wait_rows(id, 0).unwrap();
        let streamed: String = chunk.rows.iter().map(|r| format!("{r}\n")).collect();
        assert!(reference.starts_with(&streamed));
        if status.state == JobState::Cancelled {
            assert!(status.rows_completed < status.rows_total);
        }

        // The scheduler stays healthy for the next job.
        let next = scheduler.submit(small_grid(300)).unwrap();
        assert_eq!(scheduler.wait_terminal(next).unwrap().state, JobState::Done);
    }

    #[test]
    fn shutdown_rejects_new_work_and_cancels_queued_jobs() {
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        let id = scheduler.submit(small_grid(300)).unwrap();
        scheduler.shutdown();
        assert_eq!(scheduler.status(id).unwrap().state, JobState::Cancelled);
        assert_eq!(
            scheduler.submit(small_grid(300)).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn unknown_ids_answer_none_everywhere() {
        let scheduler = JobScheduler::start(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        assert_eq!(scheduler.status(JobId(7)), None);
        assert_eq!(scheduler.cancel(JobId(7)), None);
        assert_eq!(scheduler.wait_rows(JobId(7), 0), None);
        assert_eq!(scheduler.wait_terminal(JobId(7)), None);
    }
}
