//! Host-time spans recorded around the benchmark's calls into each layer.
//! Kept in memory while the benchmark runs and written out at the end, so
//! recording costs two clock reads and a push.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start: f64,
    end: f64,
}

/// Spans in seconds since the recorder was created.
pub struct Spans {
    origin: Instant,
    next: usize,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), next: 0, list: Vec::new() }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// An id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }

    /// Record a span under a reserved id.
    pub fn fill(&mut self, id: usize, name: &str, parent: Option<usize>, start: f64, end: f64) {
        self.list.push(Span { id, parent, name: name.to_owned(), start, end });
    }

    /// Record a finished span and return its id.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let id = self.reserve();
        self.fill(id, name, parent, start, end);
        id
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, start, end);
        out
    }

    /// One JSON object per line, in id order.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&Span> = self.list.iter().collect();
        spans.sort_by_key(|s| s.id);
        let mut out = String::new();
        for s in spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let name = s.name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{name}\", \"start_s\": {}, \"end_s\": {}}}",
                s.id, s.start, s.end
            );
        }
        out
    }
}
