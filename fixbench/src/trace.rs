//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside the program is instrumented). Each span has a name,
//! start, end, parent and the case index as its id; probe spans are
//! marked so the case accounting can leave them out. With tracing off
//! every call is a no-op that never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span id used for spans that belong to no single case (set-up work).
pub const NO_CASE: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub case: usize,
    pub probe: bool,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, case: usize, probe: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            case,
            probe,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// its duration (zero when tracing is off).
    pub fn exit(&mut self, open: Open) -> Duration {
        let Some(id) = open.0 else {
            return Duration::ZERO;
        };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.origin.elapsed();
        self.spans[id].dur()
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed();
        while self.stack.len() > depth {
            let id = self.stack.pop().expect("stack is longer than depth");
            self.spans[id].end = now;
        }
    }

    /// The part of closed span `open` that its direct children leave
    /// uncovered (zero when tracing is off).
    pub fn uncovered(&self, open: Open) -> Duration {
        let Some(id) = open.0 else {
            return Duration::ZERO;
        };
        let covered: Duration = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur)
            .sum();
        self.spans[id].dur().saturating_sub(covered)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, case: usize, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, case, false);
        let out = f();
        self.exit(open);
        out
    }

    /// Runs `f` inside a probe span: timed, but outside case accounting.
    pub fn probe<T>(&mut self, name: &'static str, case: usize, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, case, true);
        let out = f();
        self.exit(open);
        out
    }

    /// Total time of the spans of each name.
    pub fn totals(&self) -> BTreeMap<&'static str, Duration> {
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.dur();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let case = if s.case == NO_CASE {
                "null".to_owned()
            } else {
                s.case.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"case\":{case},\"probe\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.probe
            )?;
        }
        w.flush()
    }
}
