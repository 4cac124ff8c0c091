//! Scenario-document parsing: the one shared path every front door uses.
//!
//! A *scenario document* is the serde surface of [`Scenario`] /
//! [`ScenarioGrid`] rendered as TOML or JSON — the format checked in under
//! `scenarios/`, fed to `scenario_run` and `trace_tool`, and POSTed to the
//! HTTP server. All of them parse through this module, so a malformed
//! document produces the identical error (naming the format the text was
//! parsed as) no matter which door it came in through.

use std::num::NonZeroUsize;
use std::path::Path;

use serde::Deserialize as _;

use crate::scenario::{Scenario, ScenarioGrid};

/// A parsed scenario document: either a single scenario or a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioDoc {
    /// One scenario.
    Single(Box<Scenario>),
    /// A grid of scenarios.
    Grid(Box<ScenarioGrid>),
}

impl ScenarioDoc {
    /// The scenarios this document expands to.
    pub fn expand(&self) -> Vec<Scenario> {
        match self {
            ScenarioDoc::Single(s) => vec![(**s).clone()],
            ScenarioDoc::Grid(g) => g.expand(),
        }
    }

    /// Validates the document: the single scenario, or the whole grid —
    /// including axis-level checks a per-scenario pass cannot see, such as
    /// a benchmark sweep over a trace-replay base.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ConfigError`] found.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        match self {
            ScenarioDoc::Single(s) => s.validate(),
            ScenarioDoc::Grid(g) => g.validate(),
        }
    }

    /// Returns a copy with relative trace-file paths in the document's
    /// workload joined onto `dir` (the document's own directory), so a
    /// checked-in document can name its trace relative to itself and still
    /// run from any working directory.
    pub fn resolved_against(&self, dir: &Path) -> ScenarioDoc {
        match self {
            ScenarioDoc::Single(s) => {
                let mut s = (**s).clone();
                s.workload = s.workload.resolved_against(dir);
                ScenarioDoc::Single(Box::new(s))
            }
            ScenarioDoc::Grid(g) => {
                let mut g = (**g).clone();
                g.base.workload = g.base.workload.resolved_against(dir);
                ScenarioDoc::Grid(Box::new(g))
            }
        }
    }
}

/// Parses a scenario document from TOML or JSON (the caller picks, e.g. by
/// file extension — see [`load_scenario_doc`] — or by HTTP content type —
/// see [`sniff_is_json`]). A document whose *top level* has a `base` table
/// is a [`ScenarioGrid`]; otherwise it is a single [`Scenario`]. (The
/// detection is structural — parsed, not substring-matched — so a scenario
/// merely *named* "base" is not misclassified.)
///
/// # Errors
///
/// Returns an error string describing the first malformed field, naming
/// the format the text was parsed as (so a mis-extensioned file points at
/// the real problem).
pub fn parse_scenario_doc(text: &str, is_toml: bool) -> Result<ScenarioDoc, String> {
    let fmt = if is_toml { "TOML" } else { "JSON" };
    let tree: serde::Value = if is_toml {
        toml::from_str(text)
            .map_err(|e| format!("invalid scenario document (parsed as {fmt}): {e}"))?
    } else {
        serde_json::from_str(text)
            .map_err(|e| format!("invalid scenario document (parsed as {fmt}): {e}"))?
    };
    if tree.get("base").is_some() {
        ScenarioGrid::from_value(&tree)
            .map(|g| ScenarioDoc::Grid(Box::new(g)))
            .map_err(|e| format!("invalid scenario grid (parsed as {fmt}): {e}"))
    } else {
        Scenario::from_value(&tree)
            .map(|s| ScenarioDoc::Single(Box::new(s)))
            .map_err(|e| format!("invalid scenario (parsed as {fmt}): {e}"))
    }
}

/// Guesses whether a scenario document without a path or content type is
/// JSON: both document shapes serialize as a JSON *object*, so a first
/// non-whitespace byte of `{` means JSON and anything else means TOML
/// (TOML documents start with a bare key or a `[table]` header). Used by
/// callers that receive bare text — e.g. an HTTP body with no
/// `Content-Type` — where [`load_scenario_doc`]'s extension sniff has
/// nothing to look at.
pub fn sniff_is_json(text: &str) -> bool {
    text.trim_start().starts_with('{')
}

/// Loads a scenario document from disk: parsed as JSON when the path ends
/// in `.json` **case-insensitively** (so `GRID.JSON` is not fed to the
/// TOML parser), TOML otherwise, with relative trace-file paths resolved
/// against the document's directory.
///
/// # Errors
///
/// Returns an error string (prefixed with the path) for unreadable files
/// or malformed documents.
pub fn load_scenario_doc(path: &str) -> Result<ScenarioDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let is_toml = !path.to_ascii_lowercase().ends_with(".json");
    let doc = parse_scenario_doc(&text, is_toml).map_err(|e| format!("{path}: {e}"))?;
    let dir = Path::new(path).parent().unwrap_or_else(|| Path::new("."));
    Ok(doc.resolved_against(dir))
}

/// Applies a per-thread trace-length override — `scenario_run --accesses`
/// and the HTTP server's `?accesses=` — to every scenario: generated
/// workloads get the new length, trace replays of every format a `limit`.
/// (A zero override cannot be expressed: a zero trace limit means
/// "unlimited".)
pub fn override_accesses(scenarios: &mut [Scenario], accesses: NonZeroUsize) {
    for scenario in scenarios {
        scenario.workload = scenario.workload.with_accesses(accesses.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_coherence::AllocationPolicy;
    use allarm_workloads::{Benchmark, TraceFormat, WorkloadSpec};

    #[test]
    fn scenario_docs_parse_both_shapes() {
        let single = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm);
        let doc = parse_scenario_doc(&single.to_toml().unwrap(), true).unwrap();
        assert_eq!(doc, ScenarioDoc::Single(Box::new(single.clone())));
        assert_eq!(doc.expand().len(), 1);

        let grid = crate::ScenarioGrid::new(single.clone())
            .policies(vec![AllocationPolicy::Baseline, AllocationPolicy::Allarm]);
        let doc = parse_scenario_doc(&grid.to_toml().unwrap(), true).unwrap();
        assert_eq!(doc, ScenarioDoc::Grid(Box::new(grid.clone())));
        assert_eq!(doc.expand().len(), 2);

        // JSON forms too.
        let doc = parse_scenario_doc(&single.to_json(), false).unwrap();
        assert_eq!(doc.expand(), vec![single]);
    }

    #[test]
    fn accesses_override_shortens_every_workload() {
        let generated = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm);
        let mut scenarios = vec![generated.clone()];
        for (file, format) in [
            ("capture.txt", TraceFormat::Text),
            ("capture.trace", TraceFormat::Binary),
            ("capture.btrace", TraceFormat::BinaryV2),
        ] {
            let mut replay = generated.clone();
            replay.workload = WorkloadSpec::trace_file(file, format);
            scenarios.push(replay);
        }
        override_accesses(&mut scenarios, NonZeroUsize::new(100).unwrap());
        assert_eq!(scenarios[0].workload.accesses().unwrap(), 100);
        // Every trace format takes the override as its per-thread limit.
        for replay in &scenarios[1..] {
            let WorkloadSpec::TraceFile { limit, .. } = replay.workload else {
                panic!("a replay stays a replay");
            };
            assert_eq!(limit, 100);
        }
    }

    #[test]
    fn malformed_documents_are_rejected_naming_the_assumed_format() {
        let err = parse_scenario_doc("nonsense", true).unwrap_err();
        assert!(err.contains("parsed as TOML"), "{err}");
        let err = parse_scenario_doc("{}", false).unwrap_err();
        assert!(err.contains("parsed as JSON"), "{err}");
    }

    #[test]
    fn bare_text_sniff_distinguishes_the_two_formats() {
        let single = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm);
        assert!(sniff_is_json(&single.to_json()));
        assert!(sniff_is_json("\n\t  {\"name\": \"x\"}"));
        assert!(!sniff_is_json(&single.to_toml().unwrap()));
        assert!(!sniff_is_json("[base]\nname = \"x\""));
        assert!(!sniff_is_json(""));
    }

    #[test]
    fn json_extension_is_sniffed_case_insensitively() {
        let single = Scenario::quick_test(Benchmark::Barnes, AllocationPolicy::Allarm);
        let dir = std::env::temp_dir().join(format!("allarm-core-doc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.JSON");
        std::fs::write(&path, single.to_json()).unwrap();
        let doc = load_scenario_doc(path.to_str().unwrap()).unwrap();
        assert_eq!(doc.expand(), vec![single]);
        // A JSON payload under a .toml name fails, but the error now says
        // which parser ran.
        let toml_path = dir.join("grid.toml");
        std::fs::write(&toml_path, "{ not toml }").unwrap();
        let err = load_scenario_doc(toml_path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("parsed as TOML"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
