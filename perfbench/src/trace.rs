//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer. A disabled tracer records nothing, so the
//! untraced runs that give the end-to-end metrics pay only a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: name, start and end (ns since the tracer began), the
/// span that caused it, and the work count the layer reported.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
    /// Time covered by this span's direct children.
    child_ns: u64,
}

/// Totals for one span name.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns a handle for
    /// [`Tracer::exit`] (ignored when disabled).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            count: 0,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, recording the work count the layer reported.
    pub fn exit(&mut self, id: usize, count: u64) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse order");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
        let dur = end - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Time `f` as a span with no count.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id, 0);
        out
    }

    /// Per-name totals, self time being duration minus the part of the
    /// interval the span's children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur - s.child_ns.min(dur);
            t.count += s.count;
        }
        out
    }

    /// Write every span as one JSON array.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner, 3);
        t.exit(outer, 0);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.self_ns + i.total_ns, o.total_ns);
        assert_eq!(i.count, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.totals().is_empty());
    }
}
