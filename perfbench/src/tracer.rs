//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are kept in memory while the benchmark runs and written out as
//! JSONL when it ends. A disabled tracer records nothing, so untraced runs
//! pay only a branch per call site.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call, as `layer.operation`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The worker that recorded the span (0: the main thread).
    pub worker: usize,
    /// Operations the call performed (accesses, messages, rows, ...).
    pub ops: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// A span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    worker: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans (or, with `enabled == false`, ignores
    /// them) relative to `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            worker: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for worker thread `worker`, sharing this tracer's epoch.
    pub fn for_worker(&self, worker: usize) -> Self {
        Tracer {
            worker,
            spans: Vec::new(),
            open: Vec::new(),
            ..*self
        }
    }

    /// Whether this tracer records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::exit`]. Spans opened while it
    /// is open become its children.
    pub(crate) fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            worker: self.worker,
            ops: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, crediting it with `ops` operations.
    pub(crate) fn exit(&mut self, ops: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end_ns;
        self.spans[index].ops = ops;
    }

    /// Times `f` as one span of `ops` operations.
    pub fn span<R>(&mut self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit(ops);
        out
    }

    /// Appends a worker's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Every recorded span, in start order per worker.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and operations of every span named `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, ops), s| {
                (d + s.duration(), ops + s.ops)
            })
    }

    /// Nanoseconds per operation over every span named `name` (zero if it
    /// recorded no operations).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (time, ops) = self.total(name);
        crate::stats::ratio(time.as_nanos() as f64, ops as f64)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"worker\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.worker, s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_sum_by_name() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("outer");
        t.span("inner", 3, || ());
        let mut worker = t.for_worker(1);
        worker.span("inner", 4, || ());
        t.absorb(worker);
        t.exit(1);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[2].worker, 1);
        assert_eq!(t.total("inner").1, 7);

        let mut off = Tracer::new(false, Instant::now());
        off.span("x", 1, || ());
        assert!(off.spans().is_empty());
    }
}
