//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], which
//! always read the clock (the untraced measurements come from those same
//! two reads); a span is recorded only while the tracer is enabled, so the
//! traced/untraced difference is the recording itself. Spans are kept in
//! memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`ir.encode.decode`, `core.session.solve`, `tcp.query`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request id, shared by the spans of one request or program pass.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its start instant and, when recording, its slot.
#[must_use = "a begun span must be ended"]
pub struct Open {
    at: Instant,
    slot: Option<usize>,
}

/// A per-thread span recorder (merge threads with [`Tracer::absorb`]).
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// across threads so merged traces line up).
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` for request `req`, nested in the innermost
    /// open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        let at = Instant::now();
        let slot = self.enabled.then(|| {
            let ns = self.ns(at);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                req,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { at, slot }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(slot), "spans must close innermost first");
            self.spans[slot].end_ns = self.ns(now);
        }
        now - open.at
    }

    /// Records a span timed elsewhere, outside the nesting stack (for
    /// requests that overlap, such as pipelined queries on one socket).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                req,
            });
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: its duration minus the part its child spans
    /// cover (children never overlap each other, so their durations sum).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time summed per `(group, layer)`, where `group` maps a span's
    /// request id to the unit it is reported per (a pass, a request kind).
    pub fn self_ms_by<G: Ord>(
        &self,
        group: impl Fn(&Span) -> G,
    ) -> BTreeMap<(G, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry((group(s), s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
