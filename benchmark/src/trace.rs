//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded only in a traced run, kept in memory, and written to
//! `trace.json` when the run ends. A span names its layer (the crate the
//! call went into), its parent span and the request it belongs to, so one
//! job's spans can be pulled out by request id.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span.
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the trace.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer (crate) the time belongs to: `engine`, `store`, `service`, …
    pub layer: &'static str,
    /// What ran.
    pub name: String,
    /// Request (job or repetition) the span belongs to.
    pub request: u64,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled tracer records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled` is false for the untraced (end-to-end) run.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose interval is already known (e.g. a stage the
    /// server reported). Returns its id, or `None` when disabled.
    pub fn record(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no span recorder panics holding the lock");
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            request,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Time `f` as a span. The closure receives the new span's id so it
    /// can parent further spans. The id is reserved before `f` runs, so a
    /// parent always precedes its children in the trace.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = self.now_ns();
        let id = self.record(layer, name, parent, request, start, start);
        let out = f(id);
        let end = self.now_ns();
        if let Some(id) = id {
            self.spans.lock().expect("span lock")[id as usize].end_ns = end;
        }
        out
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write the trace as JSON: `{"spans": [...], "self_time_ns": {layer: ns}}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let rows: Vec<Value> = spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent,
                    "layer": s.layer,
                    "name": s.name,
                    "request": s.request,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        let doc = json!({
            "self_time_ns": layer_self_times(&spans),
            "spans": rows,
        });
        std::fs::write(path, serde_json::to_vec(&doc)?)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_default() += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: format!("s{id}"),
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, None, "driver", 0, 100),
            // Two children that overlap each other on [30, 40].
            span(1, Some(0), "engine", 10, 40),
            span(2, Some(0), "engine", 30, 60),
            // A child sticking out past its parent is clipped to it.
            span(3, Some(0), "store", 90, 130),
            // A grandchild only reduces its own parent.
            span(4, Some(1), "graph", 15, 25),
        ];
        let own = self_times(&spans);
        // Parent: 100 - ([10,60] = 50) - ([90,100] = 10) = 40.
        assert_eq!(own, vec![40, 20, 30, 40, 10]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer["driver"], 40);
        assert_eq!(by_layer["engine"], 50);
        assert_eq!(by_layer["store"], 40);
        assert_eq!(by_layer["graph"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("engine", "x", None, 0, |id| {
            assert!(id.is_none());
            5
        });
        assert_eq!(v, 5);
        assert!(t.record("engine", "y", None, 0, 1, 2).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_orders_spans() {
        let t = Tracer::new(true);
        t.span("driver", "rep", None, 3, |rep| {
            t.span("engine", "pr", rep, 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].request, 3);
    }
}
