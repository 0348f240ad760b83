//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Every client thread owns one [`SpanLog`]; a span is the layer name,
//! start and end (nanoseconds since the run's origin), the span that
//! caused it, and the operation id it belongs to. Logs are merged and
//! written out as JSON lines when the run ends. A disabled log (the
//! untraced runs) records nothing and costs one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span within the same log (after a merge,
    /// within the merged log).
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span buffer.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A new, empty log with this log's origin and switch — one per
    /// client thread, merged back with [`SpanLog::merge`].
    pub fn empty(&self) -> Self {
        Self::new(self.origin, self.enabled)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, or `None` when disabled.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, op, parent);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_logs_record_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let v = log.time("x", 1, None, || 7);
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, true);
        let p = a.open("op", 0, None);
        a.time("child", 0, p, || ());
        a.close(p);
        let mut b = SpanLog::new(origin, true);
        let q = b.open("op", 1, None);
        b.time("child", 1, q, || ());
        b.close(q);
        a.merge(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.durations_ms("child").len(), 2);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
