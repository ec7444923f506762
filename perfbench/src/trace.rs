//! Spans recorded around every call the benchmark makes into a layer.
//!
//! A span is (name, label, start, end, parent) within one run id. Spans are
//! kept in memory and written out once, when the run ends. With tracing
//! off every call is a no-op, so the untraced runs that give the
//! end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies an open or closed span; `SpanId::NONE` is the root's parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The parent of a top-level span, and what a disabled tracer returns.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    label: String,
    start_s: f64,
    end_s: f64,
    parent: SpanId,
}

/// A thread-safe span recorder.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &'static str, label: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_s = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            label: label.to_string(),
            start_s,
            end_s: f64::NAN,
            parent,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span log poisoned")[id.0].end_s = end_s;
    }

    /// Runs `f` inside a span; `f` receives the span's id as parent for
    /// nested calls.
    pub fn span<T>(
        &self,
        name: &'static str,
        label: &str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, label, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Total self time per span name: each span's duration minus the union
    /// of its children's intervals (children may overlap when they ran on
    /// different client threads).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if span.parent != SpanId::NONE {
                children[span.parent.0].push((span.start_s, span.end_s));
            }
        }
        let mut totals = BTreeMap::new();
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = f64::NEG_INFINITY;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            *totals.entry(span.name).or_insert(0.0) += (span.end_s - span.start_s) - covered;
        }
        totals
    }

    /// The span log as JSON: one object per span, parents by index.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if span.parent == SpanId::NONE {
                "null".to_string()
            } else {
                span.parent.0.to_string()
            };
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_s\":{:.6},\"end_s\":{:.6},\"parent\":{parent}}}",
                span.name, span.label, span.start_s, span.end_s
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
