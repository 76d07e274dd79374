//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: a name,
//! a start and an end (nanoseconds since the tracer's epoch), the index of
//! the enclosing span, and an id shared by every span of one request (or
//! one step). Spans stay in memory and are written out once, when the run
//! ends. With tracing off, [`Tracer::open`] and [`Tracer::close`] record
//! nothing.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, start_ns, end_ns: start_ns, parent });
        let at = self.spans.len() - 1;
        self.stack.push(at);
        at
    }

    /// Closes `span` (which must be the innermost open span).
    pub fn close(&mut self, span: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&span), "spans close innermost first");
        self.stack.pop();
        self.spans[span].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, id);
        let out = f();
        self.close(s);
        out
    }

    /// Records an already-finished interval (a request's queue wait, from
    /// clock readings the request loop took) under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span { name, id, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Self time of each span: its duration minus the time its children
    /// cover (children of one span never overlap — they are recorded by
    /// one thread in sequence, or are disjoint phases of one request).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Total self time (seconds) of all spans called `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        let st = self.self_times_ns();
        self.spans
            .iter()
            .zip(st)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, (s, st)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {st}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.record("root", 1, 0, 100, None);
        t.record("a", 1, 10, 30, Some(root));
        t.record("b", 1, 40, 90, Some(root));
        assert_eq!(t.self_times_ns(), vec![30, 20, 50]);
    }

    #[test]
    fn nesting_follows_open_spans_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", 7);
        t.span("inner", 7, || ());
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
