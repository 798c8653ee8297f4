//! Harness-side spans. The traced run wraps each call it makes into a
//! layer in a span `(name, request, parent, start, end)`, keeps them in
//! memory, and writes them as JSON lines when the run ends. Spans inside
//! the program are a later change (ROADMAP item 1's probes); until then a
//! request's spans nest only as deep as the calls the harness itself makes.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant `now_ns` counts from: its first use in this process.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since [`origin`]: one clock for every span and sample, so
/// replays and threads line up in the trace file.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this.
    pub request: u64,
    /// Index + 1 of the causing span in the same sink; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's (or one replay's) span buffer. Recording stops at the
/// cap so a fast workload cannot turn the trace into the workload.
#[derive(Debug)]
pub struct SpanSink {
    source: String,
    spans: Vec<Span>,
    cap: usize,
    enabled: bool,
    requests: u64,
}

impl SpanSink {
    pub fn new(source: impl Into<String>, cap: usize) -> Self {
        SpanSink {
            source: source.into(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            enabled: false,
            requests: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn recording(&self) -> bool {
        self.enabled && self.spans.len() < self.cap
    }

    /// Allocate the next request id of this sink.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Open a span whose end is not known yet; returns its id for children
    /// to name as `parent` (0 when not recording).
    pub fn open(&mut self, name: &'static str, request: u64, parent: u32, start_ns: u64) -> u32 {
        self.record(name, request, parent, start_ns, start_ns)
    }

    /// Close a span opened with [`SpanSink::open`]; id 0 is ignored.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_ns = end_ns;
        }
    }

    /// Record a finished span; returns its id (0 when not recording).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.recording() {
            return 0;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == 0 {
                "null".to_string()
            } else {
                format!("\"{}/{}\"", self.source, s.parent)
            };
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":\"{}/{}\",\"request\":\"{}/{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                self.source,
                i + 1,
                self.source,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Write every sink to `path` as JSON lines; returns the span count.
pub fn write_jsonl(path: &Path, sinks: &[SpanSink]) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for sink in sinks {
        sink.write_to(&mut out)?;
    }
    out.flush()?;
    Ok(sinks.iter().map(SpanSink::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_and_stop_at_the_cap() {
        let mut sink = SpanSink::new("w0", 2);
        assert_eq!(
            sink.record("a", 1, 0, 0, 1),
            0,
            "disabled sinks record nothing"
        );
        sink.set_enabled(true);
        let req = sink.next_request();
        let root = sink.open("request.apply", req, 0, 10);
        let child = sink.record("core.apply_call", req, root, 10, 40);
        assert_eq!((root, child), (1, 2));
        assert_eq!(sink.record("core.ticket_wait", req, root, 40, 50), 0);
        sink.close(root, 50);
        sink.close(0, 99);
        assert_eq!(sink.spans[0].end_ns, 50);
        let mut out = Vec::new();
        sink.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":\"w0/1\"") && lines[0].contains("\"parent\":null"));
        assert!(
            lines[1].contains("\"parent\":\"w0/1\"") && lines[1].contains("\"request\":\"w0/1\"")
        );
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
