//! Spans of a traced run: each call a ladder rung makes into a public
//! entry point is wrapped in a span recorded from the benchmark's own
//! code. Spans stay in memory and are written out once, as JSON lines,
//! when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the index of the enclosing span plus
/// one (0 = none); `req` is the request's position in the workload's
/// sequence, shared by that request on every rung.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rung: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, which is
/// how the tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// allocate inside timed sections.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span under `parent`.
    pub fn begin(
        &mut self,
        rung: &'static str,
        name: &'static str,
        req: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            rung,
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0.map_or(0, |p| p + 1),
            req,
        });
        SpanId(Some((self.spans.len() - 1) as u32))
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"rung\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.rung,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}
