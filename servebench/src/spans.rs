//! In-memory spans for the traced run.
//!
//! A span records one call into a layer's public function: its name,
//! start and end (nanoseconds since the log's epoch), the span it ran
//! inside, and the request it belongs to. Spans stay in memory while the
//! workload runs and are written out as JSONL when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.offer`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one connection (one thread), in start order.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one; close it with
    /// [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, req);
        let out = f();
        self.exit(idx);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one span never overlap (one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// The name of each span's outermost ancestor (its own name for a root).
pub fn roots(spans: &[Span]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        // Parents precede children, so the parent's root is known.
        let root = match s.parent {
            Some(p) => out[p],
            None => s.name,
        };
        out.push(root);
    }
    out
}

/// Self times grouped by `(root name, span name)`, in nanoseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Vec<f64>> {
    let mut out: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for ((s, st), root) in spans.iter().zip(self_times(spans)).zip(roots(spans)) {
        out.entry((root, s.name)).or_default().push(st as f64);
    }
    out
}

/// Writes spans as JSONL, one object per span, tagged with the index
/// of the connection whose log it came from (`parent` and `id` index
/// that connection's spans).
pub fn write_jsonl(path: &Path, logs: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (conn, spans) in logs.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"conn\":{conn},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
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
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("server.query", 0, 100, None),
            span("engine.flush", 10, 30, Some(0)),
            span("api.decode", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times along one request sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(roots(&spans), vec!["server.query"; 4]);
    }

    #[test]
    fn log_nests_and_groups_by_root() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.enter("server.ingest", 7);
        log.leaf("engine.offer", 7, || ());
        log.exit(root);
        log.leaf("api.absorb", 7, || ());
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let by = self_by_name(spans);
        assert!(by.contains_key(&("server.ingest", "engine.offer")));
        assert!(by.contains_key(&("api.absorb", "api.absorb")));
    }
}
