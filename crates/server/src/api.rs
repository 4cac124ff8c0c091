//! The typed API layer: routes parsed [`Request`]s onto the job
//! scheduler.
//!
//! The split mirrors `micro_http`/`api_server`: [`crate::http`] owns the
//! wire, this module owns the semantics. Every endpoint parses into the
//! existing `allarm_core` types — scenario documents go through the same
//! [`parse_scenario_doc`] path as `scenario_run` and `trace_tool`, so a
//! malformed POST body gets the identical error text (naming the format
//! the body was parsed as) a malformed file would get on the CLI.
//!
//! Routes:
//!
//! | Method   | Path                    | Answer                           |
//! |----------|-------------------------|----------------------------------|
//! | `POST`   | `/v1/jobs`              | `201` + job status (or `429`)    |
//! | `GET`    | `/v1/jobs/<id>`         | `200` + job status               |
//! | `GET`    | `/v1/jobs/<id>/results` | `200` chunked JSONL row stream   |
//! | `DELETE` | `/v1/jobs/<id>`         | `200` + post-cancel job status   |
//! | `GET`    | `/metrics`              | `200` plain-text counters        |
//!
//! `POST /v1/jobs` accepts a scenario document as TOML or JSON: an
//! explicit `Content-Type` mentioning `json` or `toml` decides, otherwise
//! the body is sniffed ([`allarm_core::doc::sniff_is_json`]). The query
//! parameters `?accesses=N` and `?sim_threads=N` mirror `scenario_run`'s
//! `--accesses`/`--sim-threads` flags, applied identically — so a job's
//! streamed results are byte-for-byte the file `scenario_run --output`
//! writes for the same document and overrides. Where `scenario_run` warns
//! that `--accesses` cannot shorten a text or v1 binary trace replay, the
//! server refuses the job with a `400` naming the scenario.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use allarm_core::doc::{override_accesses, parse_scenario_doc, sniff_is_json};
use allarm_core::{JobId, JobScheduler, JobStatus, SimThreads, SubmitError};
use serde::Value;

use crate::http::{json_escape, Method, Request, Response, StatusCode};

/// How the connection layer must answer a routed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Handled {
    /// Write this complete response.
    Full(Response),
    /// Stream the job's JSONL rows as a chunked `200` until the job is
    /// terminal (the job id is known to exist).
    StreamRows(JobId),
}

/// The API: a routing table over one shared [`JobScheduler`].
#[derive(Debug)]
pub struct Api {
    scheduler: Arc<JobScheduler>,
    bytes_served: AtomicU64,
}

impl Api {
    /// An API over `scheduler`.
    pub fn new(scheduler: Arc<JobScheduler>) -> Self {
        Api {
            scheduler,
            bytes_served: AtomicU64::new(0),
        }
    }

    /// The scheduler behind the API (the connection layer streams rows
    /// from it directly).
    pub fn scheduler(&self) -> &Arc<JobScheduler> {
        &self.scheduler
    }

    /// Adds to the served-bytes counter (the connection layer reports
    /// every response it writes, full or streamed).
    pub fn note_bytes_served(&self, n: u64) {
        self.bytes_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Routes one request. Infallible by construction: every failure mode
    /// is a typed error *response*.
    pub fn handle(&self, request: &Request) -> Handled {
        let segments: Vec<&str> = request
            .path()
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match (request.method, segments.as_slice()) {
            (Method::Post, ["v1", "jobs"]) => Handled::Full(self.submit(request)),
            (Method::Get, ["v1", "jobs", id]) => Handled::Full(self.status(id)),
            (Method::Get, ["v1", "jobs", id, "results"]) => self.results(id),
            (Method::Delete, ["v1", "jobs", id]) => Handled::Full(self.cancel(id)),
            (Method::Get, ["metrics"]) => Handled::Full(self.metrics()),
            _ => Handled::Full(error(
                StatusCode(404),
                &format!("no route for {} {}", request.method.name(), request.path()),
            )),
        }
    }

    fn submit(&self, request: &Request) -> Response {
        let Ok(text) = std::str::from_utf8(&request.body) else {
            return error(StatusCode(400), "request body is not valid UTF-8");
        };
        // Content negotiation: an explicit Content-Type wins, bare text is
        // sniffed (both document shapes serialize as a JSON object, so a
        // leading '{' means JSON).
        let is_toml = match request.header("content-type") {
            Some(ct) if ct.to_ascii_lowercase().contains("json") => false,
            Some(ct) if ct.to_ascii_lowercase().contains("toml") => true,
            _ => !sniff_is_json(text),
        };
        let doc = match parse_scenario_doc(text, is_toml) {
            Ok(doc) => doc,
            Err(e) => return error(StatusCode(400), &e),
        };
        if let Err(e) = doc.validate() {
            return error(StatusCode(400), &e.to_string());
        }

        let mut scenarios = doc.expand();
        // The same overrides scenario_run applies for --sim-threads and
        // --accesses, in the same order — except that a length override a
        // trace replay cannot honour is refused here rather than warned
        // about, since a warning would never reach the client.
        for (key, value) in request.query_pairs() {
            let parsed: Result<usize, _> = value.parse();
            match (key, parsed) {
                ("sim_threads", Ok(n)) => {
                    for scenario in &mut scenarios {
                        scenario.sim_threads = SimThreads(n);
                    }
                }
                ("accesses", Ok(n)) => {
                    // A zero limit would mean "unlimited" to a trace replay.
                    let Some(n) = NonZeroUsize::new(n) else {
                        return error(
                            StatusCode(400),
                            "query parameter accesses needs a positive number, got \"0\"",
                        );
                    };
                    if let Some(fixed) = override_accesses(&mut scenarios, n).first() {
                        return error(
                            StatusCode(400),
                            &format!("query parameter accesses={n} has no effect: {fixed}"),
                        );
                    }
                }
                ("sim_threads" | "accesses", Err(_)) => {
                    return error(
                        StatusCode(400),
                        &format!("query parameter {key} needs a number, got {value:?}"),
                    );
                }
                _ => {
                    return error(StatusCode(400), &format!("unknown query parameter {key:?}"));
                }
            }
        }

        match self.scheduler.submit(scenarios) {
            Ok(id) => {
                // The job exists, so the status lookup cannot miss.
                let status = self.scheduler.status(id).expect("job just submitted");
                Response::json(StatusCode(201), status_json(&status))
            }
            Err(e @ SubmitError::Invalid(_)) => error(StatusCode(400), &e.to_string()),
            Err(e @ SubmitError::QueueFull { .. }) => error(StatusCode(429), &e.to_string()),
            Err(e @ SubmitError::ShuttingDown) => error(StatusCode(503), &e.to_string()),
        }
    }

    fn status(&self, id: &str) -> Response {
        match self.lookup(id) {
            Ok(status) => Response::json(StatusCode(200), status_json(&status)),
            Err(resp) => resp,
        }
    }

    fn results(&self, id: &str) -> Handled {
        // Decide 404 vs stream *before* any bytes go out: a chunked 200
        // cannot be downgraded once its head is written.
        match self.lookup(id) {
            Ok(status) => Handled::StreamRows(status.id),
            Err(resp) => Handled::Full(resp),
        }
    }

    fn cancel(&self, id: &str) -> Response {
        let Ok(parsed) = parse_id(id) else {
            return error(StatusCode(404), &format!("malformed job id {id:?}"));
        };
        match self.scheduler.cancel(parsed) {
            Some(status) => Response::json(StatusCode(200), status_json(&status)),
            None => error(StatusCode(404), &format!("no job {id}")),
        }
    }

    fn metrics(&self) -> Response {
        let m = self.scheduler.metrics();
        let body = format!(
            "allarm_jobs_queued {}\n\
             allarm_jobs_running {}\n\
             allarm_jobs_done {}\n\
             allarm_jobs_failed {}\n\
             allarm_jobs_cancelled {}\n\
             allarm_jobs_rejected_total {}\n\
             allarm_rows_completed_total {}\n\
             allarm_queue_depth_limit {}\n\
             allarm_bytes_served_total {}\n",
            m.jobs_queued,
            m.jobs_running,
            m.jobs_done,
            m.jobs_failed,
            m.jobs_cancelled,
            m.jobs_rejected_total,
            m.rows_completed_total,
            self.scheduler.config().max_queue_depth,
            self.bytes_served.load(Ordering::Relaxed),
        );
        Response::text(StatusCode(200), body)
    }

    fn lookup(&self, id: &str) -> Result<JobStatus, Response> {
        let parsed = parse_id(id)
            .map_err(|()| error(StatusCode(404), &format!("malformed job id {id:?}")))?;
        self.scheduler
            .status(parsed)
            .ok_or_else(|| error(StatusCode(404), &format!("no job {id}")))
    }
}

fn parse_id(id: &str) -> Result<JobId, ()> {
    id.parse::<u64>().map(JobId).map_err(|_| ())
}

/// Renders a [`JobStatus`] as the wire JSON object.
pub fn status_json(status: &JobStatus) -> String {
    let value = Value::Map(vec![
        ("id".into(), Value::U64(status.id.0)),
        ("state".into(), Value::Str(status.state.name().into())),
        (
            "rows_completed".into(),
            Value::U64(status.rows_completed as u64),
        ),
        ("rows_total".into(), Value::U64(status.rows_total as u64)),
        (
            "error".into(),
            match &status.error {
                Some(e) => Value::Str(e.clone()),
                None => Value::Null,
            },
        ),
    ]);
    serde_json::to_string(&value)
}

fn error(status: StatusCode, message: &str) -> Response {
    Response::json(status, format!("{{\"error\": {}}}", json_escape(message)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_core::{
        AllocationPolicy, Benchmark, JobState, Scenario, ScenarioGrid, SchedulerConfig,
        TraceFormat, WorkloadSpec,
    };

    fn api(config: SchedulerConfig) -> Api {
        Api::new(Arc::new(JobScheduler::start(config)))
    }

    fn request(method: Method, target: &str, body: &[u8]) -> Request {
        Request {
            method,
            target: target.to_string(),
            version: crate::http::Version::Http11,
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    fn grid_toml() -> String {
        ScenarioGrid::new(
            Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Baseline).with_accesses(300),
        )
        .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm])
        .to_toml()
        .unwrap()
    }

    fn full(api: &Api, req: &Request) -> Response {
        match api.handle(req) {
            Handled::Full(resp) => resp,
            other => panic!("expected a full response, got {other:?}"),
        }
    }

    #[test]
    fn submit_then_status_then_results_round_trip() {
        let api = api(SchedulerConfig::default());
        let resp = full(
            &api,
            &request(Method::Post, "/v1/jobs", grid_toml().as_bytes()),
        );
        assert_eq!(resp.status, StatusCode(201));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"id\":0"), "{body}");
        assert!(body.contains("\"rows_total\":2"), "{body}");

        api.scheduler().wait_terminal(JobId(0)).unwrap();
        let resp = full(&api, &request(Method::Get, "/v1/jobs/0", b""));
        assert_eq!(resp.status, StatusCode(200));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"state\":\"done\""), "{body}");
        assert!(body.contains("\"rows_completed\":2"), "{body}");
        assert!(body.contains("\"error\":null"), "{body}");

        // Results on a known id become a stream; the id must pre-resolve.
        assert_eq!(
            api.handle(&request(Method::Get, "/v1/jobs/0/results", b"")),
            Handled::StreamRows(JobId(0))
        );
    }

    #[test]
    fn json_bodies_and_content_types_are_honoured() {
        let api = api(SchedulerConfig::default());
        let scenario =
            Scenario::quick_test(Benchmark::Cholesky, AllocationPolicy::Allarm).with_accesses(300);

        // Bare JSON body: sniffed by the leading '{'.
        let resp = full(
            &api,
            &request(Method::Post, "/v1/jobs", scenario.to_json().as_bytes()),
        );
        assert_eq!(resp.status, StatusCode(201));

        // An explicit Content-Type overrides the sniff: TOML declared as
        // JSON fails with the *JSON* parser named.
        let mut req = request(Method::Post, "/v1/jobs", grid_toml().as_bytes());
        req.headers
            .push(("Content-Type".into(), "application/json".into()));
        let resp = full(&api, &req);
        assert_eq!(resp.status, StatusCode(400));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("parsed as JSON"), "{body}");
    }

    #[test]
    fn malformed_documents_get_the_shared_loader_error() {
        let api = api(SchedulerConfig::default());
        let resp = full(&api, &request(Method::Post, "/v1/jobs", b"not = a = doc"));
        assert_eq!(resp.status, StatusCode(400));
        let body = String::from_utf8(resp.body).unwrap();
        // The same format-naming error text the CLI front doors produce.
        assert!(body.contains("parsed as TOML"), "{body}");
    }

    #[test]
    fn query_overrides_apply_and_bad_ones_are_rejected() {
        let api = api(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        let resp = full(
            &api,
            &request(
                Method::Post,
                "/v1/jobs?accesses=123&sim_threads=2",
                grid_toml().as_bytes(),
            ),
        );
        assert_eq!(resp.status, StatusCode(201));

        for target in [
            "/v1/jobs?accesses=lots",
            "/v1/jobs?sim_threads=",
            "/v1/jobs?unknown=1",
        ] {
            let resp = full(&api, &request(Method::Post, target, grid_toml().as_bytes()));
            assert_eq!(resp.status, StatusCode(400), "{target}");
        }
    }

    /// A grid replaying one of the committed sample traces.
    fn replay_toml(file: &str, format: TraceFormat) -> String {
        let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let base = Scenario {
            workload: WorkloadSpec::trace_file(path, format),
            ..Scenario::quick_test(Benchmark::Blackscholes, AllocationPolicy::Baseline)
        };
        ScenarioGrid::new(base).to_toml().unwrap()
    }

    #[test]
    fn accesses_overrides_that_cannot_take_effect_are_refused() {
        let api = api(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        let post = |target: &str, body: &str| {
            let resp = full(&api, &request(Method::Post, target, body.as_bytes()));
            (resp.status, String::from_utf8(resp.body).unwrap())
        };

        // A zero limit on a binary-v2 replay would mean "unlimited".
        let v2 = replay_toml("tracefile_sample_v2.btrace", TraceFormat::BinaryV2);
        let (status, body) = post("/v1/jobs?accesses=0", &v2);
        assert_eq!(status, StatusCode(400), "{body}");
        assert!(body.contains("accesses needs a positive number"), "{body}");
        assert_eq!(post("/v1/jobs?accesses=500", &v2).0, StatusCode(201));

        // A v1 binary replay keeps its recorded length, so the override is
        // refused, naming the scenario and the trace's format.
        let v1 = replay_toml("tracefile_sample.trace", TraceFormat::Binary);
        let (status, body) = post("/v1/jobs?accesses=500", &v1);
        assert_eq!(status, StatusCode(400), "{body}");
        assert!(body.contains("accesses=500 has no effect"), "{body}");
        // The grid names its point after the trace's recorded workload.
        assert!(
            body.contains("`blackscholes/baseline` replays a binary trace"),
            "{body}"
        );
        assert_eq!(post("/v1/jobs", &v1).0, StatusCode(201));
    }

    #[test]
    fn admission_control_answers_429_with_a_typed_error() {
        let api = api(SchedulerConfig {
            workers: 0,
            max_queue_depth: 1,
            ..SchedulerConfig::default()
        });
        let post = request(Method::Post, "/v1/jobs", grid_toml().as_bytes());
        assert_eq!(full(&api, &post).status, StatusCode(201));
        let resp = full(&api, &post);
        assert_eq!(resp.status, StatusCode(429));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("queue is full"), "{body}");
    }

    #[test]
    fn cancel_is_typed_and_unknown_ids_are_404() {
        let api = api(SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        });
        full(
            &api,
            &request(Method::Post, "/v1/jobs", grid_toml().as_bytes()),
        );
        let resp = full(&api, &request(Method::Delete, "/v1/jobs/0", b""));
        assert_eq!(resp.status, StatusCode(200));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"state\":\"cancelled\""), "{body}");
        assert_eq!(
            api.scheduler().status(JobId(0)).unwrap().state,
            JobState::Cancelled
        );

        for req in [
            request(Method::Get, "/v1/jobs/99", b""),
            request(Method::Get, "/v1/jobs/99/results", b""),
            request(Method::Delete, "/v1/jobs/99", b""),
            request(Method::Get, "/v1/jobs/banana", b""),
            request(Method::Get, "/v1/nope", b""),
            request(Method::Delete, "/metrics", b""),
        ] {
            let resp = full(&api, &req);
            assert_eq!(resp.status, StatusCode(404), "{}", req.target);
        }
    }

    #[test]
    fn metrics_expose_the_scheduler_counters() {
        let api = api(SchedulerConfig {
            workers: 0,
            max_queue_depth: 1,
            ..SchedulerConfig::default()
        });
        let post = request(Method::Post, "/v1/jobs", grid_toml().as_bytes());
        full(&api, &post); // queued
        full(&api, &post); // rejected
        api.note_bytes_served(321);
        let resp = full(&api, &request(Method::Get, "/metrics", b""));
        assert_eq!(resp.status, StatusCode(200));
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("allarm_jobs_queued 1\n"), "{body}");
        assert!(body.contains("allarm_jobs_rejected_total 1\n"), "{body}");
        assert!(body.contains("allarm_queue_depth_limit 1\n"), "{body}");
        assert!(body.contains("allarm_bytes_served_total 321\n"), "{body}");
    }
}
