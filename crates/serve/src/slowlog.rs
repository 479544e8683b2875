//! The slow-query log: a bounded ring of JSONL entries for requests
//! that crossed the `--slow-ms` threshold.
//!
//! Every slow request is recorded with its full telemetry capture — the
//! request's span tree (parent-linked, as recorded by a per-request
//! [`Memory`] sink teed onto the session sink) and per-rule attribution
//! aggregated from the maintenance chase's keyed `("rule", i)` events —
//! so a slow insert can be blamed on the rule that did the work without
//! re-running it under a profiler. Entries are pre-rendered one-line
//! JSON (`{"schema":1,"req":...,...}`), dumped oldest-first by the
//! `slowlog` protocol command; once the ring is full the oldest entry
//! is evicted and counted in [`SlowLog::dropped`].
//!
//! ## The non-panicking writer
//!
//! [`bddfc_core::obs::JsonLines`] panics on I/O errors — right for a
//! trace you asked for explicitly, wrong for a diagnostic side-channel:
//! a full disk must not take the service down. When a stream writer is
//! attached ([`SlowLog::set_writer`], the `--slow-log FILE` flag), each
//! entry is *also* appended there through [`LossyWriter`], which
//! swallows I/O errors and counts them ([`LossyWriter::failures`],
//! exported as the `bddfc_slowlog_write_failures_total` metric) instead
//! of panicking or silently lying.

use bddfc_core::obs::{json_escape, Memory, OwnedEvent, SCHEMA_VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A JSONL writer that never panics: I/O errors increment a counter
/// and drop the line. The failure counter is shared, so it stays
/// readable (for metrics export) while the writer is owned by the log.
pub struct LossyWriter {
    writer: Mutex<Box<dyn Write + Send>>,
    failures: Arc<AtomicU64>,
}

impl LossyWriter {
    /// Wraps `writer`; each [`LossyWriter::write_line`] appends one
    /// `\n`-terminated line and flushes.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        LossyWriter { writer: Mutex::new(writer), failures: Arc::new(AtomicU64::new(0)) }
    }

    /// Total write attempts that failed (each counted once, whether the
    /// write or the flush failed).
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Writes one line; on any I/O error, counts it and returns.
    pub fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("slowlog writer lock poisoned");
        let ok = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .is_ok();
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Ring {
    entries: VecDeque<String>,
    dropped: u64,
}

/// The bounded slow-query log (see the module docs).
pub struct SlowLog {
    threshold_ns: u64,
    cap: usize,
    ring: Mutex<Ring>,
    writer: Option<LossyWriter>,
}

impl SlowLog {
    /// A log recording requests at or above `threshold_ms`, keeping at
    /// most `cap` entries.
    pub fn new(threshold_ms: u64, cap: usize) -> Self {
        SlowLog {
            threshold_ns: threshold_ms.saturating_mul(1_000_000),
            cap: cap.max(1),
            ring: Mutex::new(Ring { entries: VecDeque::new(), dropped: 0 }),
            writer: None,
        }
    }

    /// Attaches a stream writer: every future entry is also appended
    /// there as one JSONL line (lossily — see [`LossyWriter`]).
    pub fn set_writer(&mut self, writer: Box<dyn Write + Send>) {
        self.writer = Some(LossyWriter::new(writer));
    }

    /// The recording threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Entries currently resident in the ring.
    pub fn len(&self) -> u64 {
        self.ring.lock().expect("slowlog lock poisoned").entries.len() as u64
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries the ring evicted to stay within its bound.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("slowlog lock poisoned").dropped
    }

    /// Stream-writer failures so far (0 when no writer is attached).
    pub fn write_failures(&self) -> u64 {
        self.writer.as_ref().map_or(0, |w| w.failures())
    }

    /// Snapshot of the resident entries, oldest first.
    pub fn entries(&self) -> Vec<String> {
        self.ring.lock().expect("slowlog lock poisoned").entries.iter().cloned().collect()
    }

    /// Records one slow request from its per-request telemetry capture.
    pub fn record(
        &self,
        req: u64,
        command: &str,
        wall_ns: u64,
        reply: Option<&str>,
        capture: &Memory,
    ) {
        let entry = render_entry(req, command, wall_ns, reply, capture);
        if let Some(w) = &self.writer {
            w.write_line(&entry);
        }
        let mut ring = self.ring.lock().expect("slowlog lock poisoned");
        if ring.entries.len() == self.cap {
            ring.entries.pop_front();
            ring.dropped += 1;
        }
        ring.entries.push_back(entry);
    }
}

/// Renders one slow-query entry as a single JSON line: request id,
/// command, wall time, the reply's first line, the captured span tree
/// (parent-linked, ids local to the request) and per-rule attribution
/// aggregated from `("rule", i)`-keyed events.
pub fn render_entry(
    req: u64,
    command: &str,
    wall_ns: u64,
    reply: Option<&str>,
    capture: &Memory,
) -> String {
    let mut out = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"req\":{req},\"command\":\"{}\",\"wall_ns\":{wall_ns}",
        json_escape(command)
    );
    if let Some(r) = reply {
        let first = r.lines().next().unwrap_or("");
        let _ = write!(out, ",\"reply\":\"{}\"", json_escape(first));
    }
    out.push_str(",\"spans\":[");
    let mut sep = "";
    for s in capture.spans() {
        let _ = write!(
            out,
            "{sep}{{\"id\":{},\"parent\":{},\"engine\":\"{}\",\"name\":\"{}\"",
            s.id,
            s.parent,
            json_escape(s.engine),
            json_escape(s.name)
        );
        if let Some((k, v)) = s.key {
            let _ = write!(out, ",\"{}\":{v}", json_escape(k));
        }
        let _ = write!(out, ",\"wall_ns\":{}}}", s.wall_ns());
        sep = ",";
    }
    out.push_str("],\"rules\":[");
    let mut rules: BTreeMap<u64, RuleAgg> = BTreeMap::new();
    for e in capture.events() {
        if let Some(("rule", idx)) = e.key {
            let agg = rules.entry(idx).or_default();
            agg.events += 1;
            agg.fired += field(&e, "triggers_fired");
            agg.wall_ns += e.gauge("wall_ns").unwrap_or(0);
        }
    }
    let mut sep = "";
    for (idx, agg) in &rules {
        let _ = write!(
            out,
            "{sep}{{\"rule\":{idx},\"events\":{},\"fired\":{},\"wall_ns\":{}}}",
            agg.events, agg.fired, agg.wall_ns
        );
        sep = ",";
    }
    out.push_str("]}");
    out
}

#[derive(Default)]
struct RuleAgg {
    events: u64,
    fired: u64,
    wall_ns: u64,
}

fn field(e: &OwnedEvent, name: &str) -> u64 {
    e.field(name).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::obs::{Event, EventSink};

    fn capture_with_spans_and_rules() -> Memory {
        let m = Memory::new(64);
        let run = m.span_open("serve", "request", 0, Some(("req", 1)));
        let round = m.span_open("chase", "round", run, Some(("round", 1)));
        m.record(Event {
            engine: "chase",
            name: "trigger",
            parent: round,
            key: Some(("rule", 0)),
            fields: &[("triggers_fired", 2)],
            gauges: &[("wall_ns", 500)],
        });
        m.record(Event {
            engine: "chase",
            name: "trigger",
            parent: round,
            key: Some(("rule", 0)),
            fields: &[("triggers_fired", 1)],
            gauges: &[("wall_ns", 300)],
        });
        m.span_close(round);
        m.span_close(run);
        m
    }

    #[test]
    fn entries_carry_span_tree_and_rule_attribution() {
        let m = capture_with_spans_and_rules();
        let entry = render_entry(7, "insert", 9_000_000, Some("ok epoch=2"), &m);
        assert!(entry.starts_with("{\"schema\":1,\"req\":7,\"command\":\"insert\",\"wall_ns\":9000000"), "{entry}");
        assert!(entry.contains("\"reply\":\"ok epoch=2\""), "{entry}");
        assert!(entry.contains("\"name\":\"request\""), "{entry}");
        assert!(entry.contains("\"parent\":1"), "span tree must be parent-linked: {entry}");
        assert!(entry.contains("{\"rule\":0,\"events\":2,\"fired\":3,\"wall_ns\":800}"), "{entry}");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let log = SlowLog::new(0, 2);
        let m = Memory::new(4);
        for i in 0..5 {
            log.record(i, "query", 100 + i, Some("true"), &m);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let entries = log.entries();
        assert!(entries[0].contains("\"req\":3") && entries[1].contains("\"req\":4"), "{entries:?}");
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::Other, "disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lossy_writer_counts_failures_instead_of_panicking() {
        let mut log = SlowLog::new(0, 8);
        log.set_writer(Box::new(FailingWriter));
        let m = Memory::new(4);
        log.record(1, "query", 5, None, &m);
        log.record(2, "query", 5, None, &m);
        assert_eq!(log.write_failures(), 2);
        // The ring still recorded both entries.
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn working_writer_streams_jsonl() {
        // Shared buffer so we can inspect what the owned writer wrote.
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let mut log = SlowLog::new(0, 8);
        log.set_writer(Box::new(shared.clone()));
        log.record(1, "query", 42, Some("true"), &Memory::new(4));
        assert_eq!(log.write_failures(), 0);
        let written = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(written.ends_with("}\n"), "{written}");
        assert!(written.contains("\"req\":1"), "{written}");
    }
}
