//! In-memory spans recorded around calls into each layer's public
//! functions. Self time is a span's duration minus what its children
//! cover; spans of one operation share an operation id.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
pub struct Span {
    /// Layer name, e.g. `core.hom.eval`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

/// Records spans into memory. A disabled tracer records nothing and
/// costs one branch per call, so the same replay code gives the
/// untraced baseline for the tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts operation `op`: later spans carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("close matches an open");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Self time of every span, in nanoseconds, aligned with the spans.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-operation self time of each span name: `name -> op -> ns`,
    /// summing the spans an operation has under that name.
    pub fn self_ns_per_op(&self) -> BTreeMap<&'static str, BTreeMap<u64, u64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default().entry(s.op).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, parent, own
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin_op(1);
        t.open("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let per = t.self_ns_per_op();
        let child = per["child"][&1];
        assert!(child >= 2_000_000);
        let op_total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(per["op"][&1], op_total - child);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert!(t.self_ns_per_op().is_empty());
    }
}
