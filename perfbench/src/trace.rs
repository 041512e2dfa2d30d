//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a workspace crate: name (`<layer>.<what>`, the layer being the
//! crate name), start, end, parent span, and the request or work-item
//! id they belong to. They stay in memory and are written as JSON
//! lines when the run ends. When tracing is off every call is a
//! branch on a bool and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request or work item the span belongs to.
    pub req: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close in
    /// reverse order of opening).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Closes a span like [`Tracer::end`], renaming it when `rename` is
    /// set (for a span whose kind is known only once it ends, such as a
    /// cache lookup that turned out to hit).
    pub fn end_as(&mut self, open: Open, rename: Option<&'static str>) {
        if let (Some(idx), Some(name)) = (open.0, rename) {
            self.spans[idx].name = name;
        }
        self.end(open);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Records an already-timed span (for intervals measured outside
    /// the tracer, such as a request's due time to its last byte).
    /// Nanoseconds are relative to [`Tracer::origin`].
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes spans as JSON lines: id (the line index), name, start, end,
/// parent id, request id.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be written.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover, summed by name, in nanoseconds.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Self time per layer (the span name's first component), ns.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_time_by_name(spans) {
        *out.entry(name.split('.').next().unwrap_or(name))
            .or_insert(0) += ns;
    }
    out
}

/// Durations of every span called `name`, in nanoseconds.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    #[allow(clippy::cast_precision_loss)]
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// The share of the spans named `root` that none of their children
/// account for: root self time over root duration.
#[must_use]
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let total: f64 = durations(spans, root).iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let own = self_time_by_name(spans).get(root).copied().unwrap_or(0) as f64;
    own / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("fleet.epoch", 0, 100, None),
            span("aging.physics", 10, 50, Some(0)),
            span("core.decide", 50, 90, Some(0)),
            span("cells.characterize", 55, 85, Some(2)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["fleet.epoch"], 20);
        assert_eq!(by_name["aging.physics"], 40);
        assert_eq!(by_name["core.decide"], 10);
        assert_eq!(by_name["cells.characterize"], 30);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        assert!((unattributed_frac(&spans, "fleet.epoch") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.record("serve.x", 0, 1, None, 0).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_get_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("fleet.lifetime", 3);
        t.span("fleet.step", 3, || ());
        t.end(outer);
        t.span("fleet.encode", 4, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(s[1].req, 3);
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
