//! Spans recorded from the benchmark's own side of each library call.
//!
//! Every timed call goes through [`Tracer::time`], which always measures
//! the call's wall time (the metrics need it) and, while recording is on,
//! also keeps a span: name, parent, start and end. Spans sit around whole
//! calls, loops and delivery chunks, never around single records, and stay
//! in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's creation.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Span recorder; off unless the run is a traced one.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; `None` when nothing was recorded.
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the operations that follow; the traced
    /// run alternates so it can compare traced and untraced operations.
    /// Only takes effect between top-level spans.
    pub fn set_recording(&mut self, on: bool) {
        if self.open.is_empty() {
            self.recording = self.enabled && on;
        }
    }

    /// Opens a parent span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = self.origin.elapsed();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Times `f`, recording a leaf span named `name` when recording is on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let span = self.enter(name);
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed();
        self.exit(span);
        (out, elapsed)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer: each span's duration minus the time its child
    /// spans cover, summed by layer. A span's layer is its name without the
    /// last dotted component (`core.pipeline.execute` → `core.pipeline`).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let own = s.end.saturating_sub(s.start).saturating_sub(children);
            *by_layer.entry(layer_of(s.name)).or_insert(Duration::ZERO) += own;
        }
        by_layer
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("bench.op");
        tr.time("core.pipeline.execute", || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(5));
        tr.exit(outer);
        let by_layer = tr.self_time_by_layer();
        assert!(by_layer["core.pipeline"] >= Duration::from_millis(20));
        assert!(by_layer["bench"] >= Duration::from_millis(5));
        assert!(by_layer["bench"] < Duration::from_millis(20));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let ((), d) = tr.time("core.stats.group_table", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(d >= Duration::from_millis(2));
        assert_eq!(tr.span_count(), 0);
    }
}
