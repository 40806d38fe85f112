//! In-memory span recording around calls into the program's layers.
//!
//! A span has a name, a start and end on the process's monotonic clock,
//! the span that caused it, and the id of the pass it belongs to. Spans
//! are only recorded when a [`Tracer`] is handed to a pass; the plain
//! passes that give the end-to-end metrics take none.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Which pass (or set-up) the span belongs to.
    pub pass: u64,
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans; shared by reference with worker threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span under `parent`; returns its index for
    /// [`Tracer::close`] and for its children.
    #[must_use]
    pub fn open(&self, pass: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recording never panics");
        spans.push(Span {
            pass,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// End a span.
    pub fn close(&self, span: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recording never panics")[span].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recording never panics")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children of one span do not overlap here,
/// since every traced pass calls the program from one thread at a time).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

/// Total self time per span name over the spans of one pass.
pub fn self_time_by_name(spans: &[Span], pass: u64) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut by = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.pass == pass {
            *by.entry(s.name).or_insert(0.0) += t;
        }
    }
    by
}

/// Spans as JSON lines, with their self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let mut m = Map::new();
        m.insert("id".to_string(), Value::U64(i as u64));
        m.insert("pass".to_string(), Value::U64(s.pass));
        m.insert("name".to_string(), Value::String(s.name.to_string()));
        m.insert(
            "parent".to_string(),
            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
        );
        m.insert("start_ns".to_string(), Value::U64(s.start_ns));
        m.insert("end_ns".to_string(), Value::U64(s.end_ns));
        m.insert("self_s".to_string(), Value::F64(self_s));
        out.push_str(&serde_json::to_string(&Value::Object(m)).expect("span serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |pass, name, parent, start_ns, end_ns| Span {
            pass,
            name,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, "pass", None, 0, 1_000),
            span(1, "cell", Some(0), 100, 400),
            span(1, "cell", Some(0), 500, 900),
            span(1, "inner", Some(2), 600, 700),
            span(2, "pass", None, 1_000, 1_500),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 300e-9).abs() < 1e-15);
        assert!((selfs[2] - 300e-9).abs() < 1e-15);
        let by = self_time_by_name(&spans, 1);
        assert!((by["cell"] - 600e-9).abs() < 1e-15);
        assert!(!by.contains_key("missing"));
        assert_eq!(to_jsonl(&spans).lines().count(), 5);
    }
}
