//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side: name,
//! start, end, the span that caused it, and the pass it belongs to.  Spans
//! stay in memory while the run measures and are written out once it ends,
//! so the recording costs one `Instant::now()` pair and a `Vec` push per
//! call.  A layer's self time is its span's duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub pass: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Span log of one benchmark run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    /// Start pass `pass`: every span opened until the next call belongs to it.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { pass: self.pass, name, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) under its final name: a
    /// simulation learns which execution path it took only once it ran.
    pub fn close_as(&mut self, id: usize, name: &'static str) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.name = name;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened above `depth` (after a panic unwound past
    /// them), keeping their names.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("open span");
            self.close_as(id, self.spans[id].name);
        }
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close_as(id, name);
        out
    }

    /// Self time per span name, summed over the spans of `pass`.
    pub fn self_times(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.pass == pass) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - child_time[i];
        }
        out
    }

    /// Summed duration of the root spans of `pass`.
    pub fn pass_duration(&self, pass: u32) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none() && s.pass == pass).map(|s| s.end - s.start).sum()
    }

    /// The log as JSON lines: `{"id", "pass", "name", "parent", "start_s", "end_s"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"pass\":{},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.pass, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.set_pass(1);
        let root = spans.open("pass");
        spans.time("record", || std::thread::sleep(std::time::Duration::from_millis(5)));
        spans.close_as(root, "pass");
        let st = spans.self_times(1);
        let total = spans.pass_duration(1);
        assert!(st["record"] >= 0.005);
        assert!((st["pass"] + st["record"] - total).abs() < 1e-9);
        assert!(spans.self_times(2).is_empty());
        let depth = spans.depth();
        spans.open("record");
        spans.open("compiled");
        spans.close_to(depth);
        assert_eq!(spans.depth(), depth);
        assert_eq!(spans.to_jsonl().lines().count(), 4);
    }
}
